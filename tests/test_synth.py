import json
import re
import warnings
from collections import deque

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from _helpers import bfs_mask_oracle
from saea.cli import run
from saea.errors import ValidationError
from saea.graph import normalized_adjacency, structural_mask
from saea.synth import (
    BURN_IN,
    GraphSpec,
    SynthConfig,
    erdos_renyi_graph,
    generate,
    oracle_floor,
    path_graph,
    ring_graph,
    structured_var_coefficients,
)


def simple_config(**overrides):
    settings = dict(
        graph=GraphSpec("ring", 6),
        steps=500,
        dgp_self=(0.5, 0.2),
        dgp_hop=(0.2, 0.0),
        phi_star=np.zeros((6, 6)),
        sigma=1.0,
        seed=0,
    )
    settings.update(overrides)
    return SynthConfig(**settings)


def test_generate_deterministic_bit_identical():
    a = generate(simple_config())
    b = generate(simple_config())
    assert a.frame.values.tobytes() == b.frame.values.tobytes()
    assert a.residuals.tobytes() == b.residuals.tobytes()
    c = generate(simple_config(seed=1))
    assert a.frame.values.tobytes() != c.frame.values.tobytes()


def test_zero_phi_iid_residual_lag1_crosscov_small():
    bundle = generate(simple_config(steps=20000))
    eta = bundle.residuals - bundle.residuals.mean(axis=0)
    lag1 = eta[:-1].T @ eta[1:] / (eta.shape[0] - 1)
    assert np.max(np.abs(lag1)) < 0.05


def test_noiseless_zero_phi_reproduces_deterministic_trajectory():
    bundle = generate(simple_config(sigma=0.0, steps=50))
    assert_array_equal(bundle.frame.values, np.zeros((50, 6)))
    assert_array_equal(bundle.residuals, np.zeros((50, 6)))


def test_frame_equals_dynamics_plus_residuals():
    # the invariant x_t = f*(history) + eta_t, checked by recomputing f*
    from saea.graph import normalized_adjacency

    cfg = simple_config(phi_star=0.4 * np.eye(6), steps=300)
    bundle = generate(cfg)
    hop = normalized_adjacency(bundle.graph)
    taps = [
        cfg.dgp_self[h] * np.eye(6) + cfg.dgp_hop[h] * hop
        for h in range(2)
    ]
    x = bundle.frame.values
    for t in range(2, x.shape[0]):
        fstar = taps[0] @ x[t - 1] + taps[1] @ x[t - 2]
        assert_allclose(x[t], fstar + bundle.residuals[t], atol=1e-12)


def test_scaled_identity_phi_stationary_variance():
    bundle = generate(simple_config(phi_star=0.6 * np.eye(6), steps=20000))
    target = 1.0 / (1.0 - 0.36)
    assert_allclose(bundle.residuals.var(axis=0), np.full(6, target), rtol=0.08)


def test_residual_variance_no_drift_between_halves():
    bundle = generate(simple_config(phi_star=0.5 * np.eye(6), steps=20000))
    half = bundle.residuals.shape[0] // 2
    v1 = bundle.residuals[:half].var()
    v2 = bundle.residuals[half:].var()
    assert abs(v2 - v1) / v1 < 0.10


def test_lag1_identity_matches_phi_times_cov():
    phi = 0.5 * np.eye(6)
    phi[0, 1] = 0.2  # within one hop on the ring
    bundle = generate(simple_config(phi_star=phi, steps=20000))
    eta = bundle.residuals
    gamma0 = eta.T @ eta / eta.shape[0]
    lag1 = eta[1:].T @ eta[:-1] / (eta.shape[0] - 1)  # E[eta_{t+1} eta_t^T]
    assert np.max(np.abs(lag1 - phi @ gamma0)) < 0.05


def test_oracle_floor_values():
    assert oracle_floor(simple_config(sigma=0.7)) == pytest.approx(0.7)
    with pytest.raises(ValidationError, match="sigma"):  # refused as the config is built
        simple_config(graph=GraphSpec("path", 2), phi_star=np.zeros((2, 2)), sigma=np.diag([1.0, 4.0]))


@pytest.mark.parametrize("sigma", [-0.5, float("nan"), np.array(1.0), [1.0], "1.0"])
def test_sigma_must_be_a_nonnegative_number(sigma):
    with pytest.raises(ValidationError, match="sigma"):
        generate(simple_config(sigma=sigma))


def reference_generate(cfg):
    """The simulation written step by step: a (sigma I) @ z innovation per
    step and a newest-first deque of the last `lags` values."""
    graph = cfg.graph.build()
    n, lags = graph.n, len(cfg.dgp_self)
    hop = normalized_adjacency(graph)
    taps = [cfg.dgp_self[h] * np.eye(n) + cfg.dgp_hop[h] * hop for h in range(lags)]
    chol = cfg.sigma * np.eye(n)
    rng = np.random.default_rng(cfg.seed)
    history = deque([np.zeros(n)] * lags, maxlen=lags)
    eta_prev = np.zeros(n)
    values, residuals, innovations = [], [], []
    for _ in range(BURN_IN + cfg.steps):
        eps = chol @ rng.standard_normal(n)
        eta = cfg.phi_star @ eta_prev + eps
        x = sum(taps[h] @ history[h] for h in range(lags))
        if cfg.quad_coeff != 0.0:
            x = x + cfg.quad_coeff * history[0] ** 2
        x = x + eta
        values.append(x)
        residuals.append(eta)
        innovations.append(eps)
        history.appendleft(x)
        eta_prev = eta
    return tuple(np.array(a[BURN_IN:]) for a in (values, residuals, innovations))


@pytest.mark.parametrize(
    "spec, sigma, dgp_self, dgp_hop, quad, structured",
    [
        (GraphSpec("ring", 8), 0.7, (0.5,), (0.3,), 0.0, True),
        (GraphSpec("ring", 20), 1.0, (0.4, 0.2), (0.2, 0.1), 0.002, False),
        (GraphSpec("erdos_renyi", 30, p_edge=0.1, seed=2), 0.5, (0.5, 0.2), (0.0, 0.1), 0.0, True),
    ],
    ids=["ring8", "ring20-quad", "er30"],
)
def test_generate_matches_the_step_by_step_reference_bit_for_bit(
    spec, sigma, dgp_self, dgp_hop, quad, structured
):
    graph = spec.build()
    if structured:
        phi = structured_var_coefficients(graph, seed=1, radius=0.6)
    else:
        phi = 0.4 * np.eye(graph.n) + 0.15 * normalized_adjacency(graph)
    cfg = SynthConfig(graph=spec, steps=300, dgp_self=dgp_self, dgp_hop=dgp_hop,
                      phi_star=phi, sigma=sigma, quad_coeff=quad, seed=4)
    bundle = generate(cfg)
    values, residuals, innovations = reference_generate(cfg)
    assert bundle.frame.values.tobytes() == values.tobytes()
    assert bundle.residuals.tobytes() == residuals.tobytes()
    assert bundle.innovations.tobytes() == innovations.tobytes()
    assert bundle.floor == sigma


def test_oracle_predictor_rmse_matches_floor():
    # the optimal predictor's residual is the innovation sequence
    bundle = generate(simple_config(phi_star=0.55 * np.eye(6), steps=20000))
    empirical = np.sqrt(np.mean(bundle.innovations**2))
    assert abs(empirical - bundle.floor) / bundle.floor < 0.02


def test_innovations_consistent_with_var_recursion():
    phi = 0.5 * np.eye(6)
    bundle = generate(simple_config(phi_star=phi, steps=400))
    eta = bundle.residuals
    eps = bundle.innovations
    assert_allclose(eta[1:], eta[:-1] @ phi.T + eps[1:], atol=1e-12)


def test_nonstationary_phi_rejected():
    with pytest.raises(ValidationError):
        generate(simple_config(phi_star=1.05 * np.eye(6)))


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_nonfinite_phi_rejected(value):
    phi = np.zeros((6, 6))
    phi[0, 0] = value
    with pytest.raises(ValidationError, match="finite"):
        generate(simple_config(phi_star=phi))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_diverging_simulation_rejected():
    with pytest.raises(ValidationError, match="simulation diverged"):
        generate(simple_config(quad_coeff=1.0, steps=50))


@pytest.mark.parametrize("quad", [float("nan"), float("inf"), -float("inf")], ids=repr)
def test_nonfinite_quad_coeff_is_refused_before_anything_is_simulated(tmp_path, capsys, quad):
    message = f"quad_coeff must be a finite number, got {quad!r}"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning from a simulation fails the test
        with pytest.raises(ValidationError, match=re.escape(message)):
            generate(simple_config(quad_coeff=quad))
        assert run(["synth", "--n", "4", "--steps", "50", f"--quad={quad}", "--out", str(tmp_path)]) == 1
    assert json.loads(capsys.readouterr().err) == {"error": "ValidationError", "message": message}
    assert not list(tmp_path.iterdir())


def test_phi_support_outside_one_hop_rejected():
    phi = np.zeros((6, 6))
    phi[0, 3] = 0.3  # three hops away on a 6-ring
    with pytest.raises(ValidationError):
        generate(simple_config(phi_star=phi))


def test_mismatched_dgp_lengths_rejected():
    with pytest.raises(ValidationError, match=re.escape("dgp_hop has shape (1,), expected (2,)")):
        simple_config(dgp_hop=(0.2,))


@pytest.mark.parametrize(
    "taps, message",
    [
        ({"dgp_self": ("a", "b")}, "dgp_self is not an array of numbers"),
        ({"dgp_hop": ("0.2", "x")}, "dgp_hop is not an array of numbers"),
        ({"dgp_self": (0.5, float("nan"))}, "dgp_self has non-finite entries"),
        ({"dgp_hop": (float("inf"), 0.0)}, "dgp_hop has non-finite entries"),
        ({"dgp_self": (), "dgp_hop": ()}, "dgp_self has shape (0,), expected (L,)"),
        ({"dgp_self": 0.5}, "dgp_self has shape (), expected (L,)"),
    ],
    ids=["self-strings", "hop-strings", "self-nan", "hop-inf", "empty", "scalar"],
)
def test_synth_config_refuses_bad_taps_at_construction(taps, message):
    with pytest.raises(ValidationError) as refused:
        simple_config(**taps)
    assert str(refused.value) == message


def test_synth_config_stores_taps_as_tuples_of_floats():
    cfg = simple_config(dgp_self=np.array([0.5, 0.2]), dgp_hop=["0.2", 0])
    assert cfg.dgp_self == (0.5, 0.2) and cfg.dgp_hop == (0.2, 0.0)
    assert all(type(c) is float for c in cfg.dgp_self + cfg.dgp_hop)
    assert json.loads(json.dumps(cfg.to_dict()))["dgp_hop"] == [0.2, 0.0]


def test_quad_mismatch_changes_trajectory():
    a = generate(simple_config(steps=200))
    b = generate(simple_config(steps=200, quad_coeff=0.02))
    assert not np.allclose(a.frame.values, b.frame.values)


def test_bfs_oracle_path3_order1():
    g = path_graph(3)
    assert_array_equal(bfs_mask_oracle(g, 1), [[0, 0, 1], [0, 0, 0], [1, 0, 0]])


def test_bfs_oracle_order_at_least_diameter_is_zero():
    g = erdos_renyi_graph(8, 0.9, seed=0)  # dense, diameter <= 2
    assert_array_equal(bfs_mask_oracle(g, 2), np.zeros((8, 8)))


def test_bfs_oracle_edgeless_all_ones_offdiag():
    from saea.graph import SensorGraph

    g = SensorGraph(np.zeros((4, 4)))
    expected = np.ones((4, 4)) - np.eye(4)
    assert_array_equal(bfs_mask_oracle(g, 1), expected)


def test_graph_builders():
    ring = ring_graph(5)
    assert ring.adjacency.sum(axis=1).tolist() == [2.0] * 5
    path = path_graph(5)
    assert path.adjacency.sum(axis=1).tolist() == [1.0, 2.0, 2.0, 2.0, 1.0]
    er = erdos_renyi_graph(30, 0.2, seed=1)
    assert_array_equal(er.adjacency, er.adjacency.T)
    assert np.all(np.diag(er.adjacency) == 0)
    with pytest.raises(ValidationError):
        ring_graph(2)
    with pytest.raises(ValidationError):
        erdos_renyi_graph(5, 1.5)


def test_structured_var_coefficients_properties():
    for kind, graph in (("ring", ring_graph(12)), ("er", erdos_renyi_graph(12, 0.3, seed=4))):
        phi = structured_var_coefficients(graph, seed=2, radius=0.6)
        eigs = np.abs(np.linalg.eigvals(phi))
        assert np.max(eigs) == pytest.approx(0.6, abs=1e-12)
        mask = structural_mask(graph, 1).mask
        assert not np.any((mask > 0) & (phi != 0))
        assert_array_equal(np.triu(phi, k=1), np.zeros((12, 12)))


def test_structured_var_coefficients_generate_compatible():
    graph_spec = GraphSpec("erdos_renyi", 8, p_edge=0.4, seed=3)
    phi = structured_var_coefficients(graph_spec.build(), seed=5, radius=0.5)
    bundle = generate(
        SynthConfig(graph=graph_spec, steps=300, dgp_self=(0.4,), dgp_hop=(0.0,),
                    phi_star=phi, sigma=1.0, seed=6)
    )
    assert bundle.frame.num_steps == 300


@pytest.mark.parametrize("kind", ["path", "ring"])
def test_graph_spec_records_no_p_edge_for_a_graph_that_ignores_it(kind):
    assert GraphSpec(kind, 5, p_edge=float("nan")).p_edge is None
    assert GraphSpec("erdos_renyi", 5, p_edge=0.25).p_edge == 0.25


def test_graph_spec_stores_numpy_counts_as_json_integers():
    spec = GraphSpec("ring", np.int64(4), seed=np.int64(1))
    assert type(spec.n) is int and type(spec.seed) is int
    cfg = SynthConfig(graph=spec, steps=50, dgp_self=(0.5,), dgp_hop=(0.0,), phi_star=0.3 * np.eye(4))
    recorded = json.loads(json.dumps(cfg.to_dict()))
    assert (recorded["graph"]["n"], recorded["graph"]["seed"]) == (4, 1)


def test_graph_spec_refuses_a_bad_count_at_construction():
    with pytest.raises(ValidationError, match="n must be >= 1"):
        GraphSpec("ring", 0)
    with pytest.raises(ValidationError, match="graph seed must be >= 0"):
        GraphSpec("ring", 4, seed=-1)


def test_graph_spec_refuses_an_unknown_kind_when_built():
    with pytest.raises(ValidationError, match="unknown graph kind 'star'"):
        GraphSpec("star", 4).build()
