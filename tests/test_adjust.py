import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from _helpers import central_diff, max_rel_err, payload_fd_grads
from saea.adjust import (
    ErrorModel,
    _phi_to_payload_grads,
    RegularizerConfig,
    companion_matrix,
    default_regularizer,
    materialize_phi,
    power_iteration_radius,
    predict_windows,
    regularize,
    saea_loss,
    saea_predict,
    spectral_radius,
    transform_window,
)
from saea.data import SeriesFrame, make_windows, shift_with_mean
from saea.errors import ConfigurationError, ContractError, ValidationError
from saea.forecaster import MLP1, GraphFilterAR, NodeAR
from saea.graph import structural_mask
from saea.synth import path_graph, ring_graph

ALL_KINDS = ("scalar", "diagonal", "sparse_full", "low_rank", "low_rank_sparse", "structural")


def make_em(kind, n, var_order=1, rank=2, graph=None, randomize=None):
    mask = structural_mask(graph if graph is not None else ring_graph(n), 1)
    em = ErrorModel.zeros(
        kind,
        n,
        var_order=var_order,
        rank=rank if kind in ("low_rank", "low_rank_sparse") else None,
        mask=mask if kind == "structural" else None,
    )
    if randomize is not None:
        rng = np.random.default_rng(randomize)
        for name, arr in em.payload.items():
            magnitude = rng.uniform(0.15, 0.6, size=arr.shape)
            em.payload[name] = magnitude * np.where(rng.random(arr.shape) < 0.5, -1.0, 1.0)
    return em


# -- materialize_phi ---------------------------------------------------------


def test_materialize_scalar():
    em = ErrorModel("scalar", 3)
    em.payload["coef"][0] = 0.5
    assert_array_equal(materialize_phi(em, 0), 0.5 * np.eye(3))


def test_materialize_diagonal():
    em = ErrorModel("diagonal", 2)
    em.payload["diag"][0] = [1.0, 2.0]
    assert_array_equal(materialize_phi(em, 0), [[1.0, 0.0], [0.0, 2.0]])


def test_materialize_low_rank_hand_product():
    em = ErrorModel("low_rank", 2, rank=1)
    em.payload["left"][0] = [[1.0], [0.0]]
    em.payload["right"][0] = [[0.0, 1.0]]
    assert_array_equal(materialize_phi(em, 0), [[0.0, 1.0], [0.0, 0.0]])


def test_materialize_low_rank_sparse_sum():
    em = ErrorModel("low_rank_sparse", 2, rank=1)
    em.payload["left"][0] = [[1.0], [1.0]]
    em.payload["right"][0] = [[1.0, 0.0]]
    em.payload["sparse"][0] = [[0.0, 0.5], [0.0, 0.0]]
    assert_array_equal(materialize_phi(em, 0), [[1.0, 0.5], [1.0, 0.0]])


def test_materialize_lag_out_of_range():
    em = ErrorModel("scalar", 2)
    with pytest.raises(ValidationError):
        materialize_phi(em, 1)


def test_materialized_low_rank_has_rank_at_most_k():
    rng = np.random.default_rng(0)
    em = ErrorModel("low_rank", 8, rank=3)
    em.payload["left"][0] = rng.normal(size=(8, 3))
    em.payload["right"][0] = rng.normal(size=(3, 8))
    assert np.linalg.matrix_rank(materialize_phi(em, 0)) <= 3


# -- regularize --------------------------------------------------------------


def test_regularize_scalar_hinge():
    cfg = RegularizerConfig(alpha=1.0)
    em = ErrorModel("scalar", 3)
    em.payload["coef"][0] = 0.5
    value, grads = regularize(em, cfg)
    assert value == 0.0 and grads["coef"][0] == 0.0
    em.payload["coef"][0] = 1.5
    value, grads = regularize(em, cfg)
    assert value == pytest.approx(0.5) and grads["coef"][0] == 1.0


def test_regularize_diagonal_hinge():
    em = ErrorModel("diagonal", 2)
    em.payload["diag"][0] = [0.2, -1.3]
    value, grads = regularize(em, RegularizerConfig(alpha=1.0))
    assert value == pytest.approx(0.3)
    assert_array_equal(grads["diag"][0], [0.0, -1.0])


def test_regularize_sparse_l1():
    em = ErrorModel("sparse_full", 2)
    em.payload["matrix"][0] = [[0.5, -1.0], [0.0, 2.0]]
    value, grads = regularize(em, RegularizerConfig(alpha=1.0))
    assert value == pytest.approx(3.5)
    assert_array_equal(grads["matrix"][0], [[1.0, -1.0], [0.0, 1.0]])


def test_regularize_structural_hand_frobenius():
    g = path_graph(3)
    em = ErrorModel("structural", 3, mask=structural_mask(g, 1))
    em.payload["matrix"][0] = [[0.0, 0.0, 3.0], [0.0, 0.0, 0.0], [4.0, 0.0, 0.0]]
    value, grads = regularize(em, RegularizerConfig(alpha=1.0))
    assert value == pytest.approx(5.0)
    assert_allclose(grads["matrix"][0], np.array(em.payload["matrix"][0]) / 5.0)


def test_regularize_structural_squared_flag():
    g = path_graph(3)
    em = ErrorModel("structural", 3, mask=structural_mask(g, 1))
    em.payload["matrix"][0] = [[0.0, 0.0, 3.0], [0.0, 0.0, 0.0], [4.0, 0.0, 0.0]]
    cfg = RegularizerConfig(alpha=1.0, squared_structural_penalty=True)
    value, grads = regularize(em, cfg)
    assert value == pytest.approx(25.0)
    assert_allclose(grads["matrix"][0], 2.0 * np.array(em.payload["matrix"][0]))


def test_regularize_low_rank_frobenius_sum():
    em = ErrorModel("low_rank", 2, rank=1)
    em.payload["left"][0] = [[3.0], [4.0]]
    em.payload["right"][0] = [[0.0, 2.0]]
    value, grads = regularize(em, RegularizerConfig(alpha=1.0))
    assert value == pytest.approx(7.0)
    assert_allclose(grads["left"][0], [[0.6], [0.8]])
    assert_allclose(grads["right"][0], [[0.0, 1.0]])


def test_regularize_low_rank_sparse_beta_weighting():
    em = ErrorModel("low_rank_sparse", 2, rank=1)
    em.payload["sparse"][0] = [[1.0, 0.0], [0.0, -1.0]]
    value, _ = regularize(em, RegularizerConfig(alpha=10.0, beta=1000.0))
    assert value == pytest.approx(200.0)  # (beta/alpha) * l1 = 100 * 2


def test_regularize_sums_over_lags():
    em = ErrorModel("diagonal", 2, var_order=2)
    em.payload["diag"][0] = [1.5, 0.0]
    em.payload["diag"][1] = [0.0, -2.0]
    value, _ = regularize(em, RegularizerConfig(alpha=1.0))
    assert value == pytest.approx(0.5 + 1.0)


def test_regularize_zero_payload_zero_subgradient():
    for kind in ALL_KINDS:
        em = make_em(kind, 4)
        value, grads = regularize(em, RegularizerConfig(alpha=1.0, beta=1.0))
        assert value == 0.0
        for g in grads.values():
            assert_array_equal(g, np.zeros_like(g))


def test_structural_without_mask_is_configuration_error():
    em = ErrorModel("structural", 3)
    with pytest.raises(ConfigurationError):
        regularize(em, RegularizerConfig(alpha=1.0))


def test_default_regularizer_table():
    assert default_regularizer("structural").alpha == 1000.0
    assert default_regularizer("scalar").alpha == 1000.0
    assert default_regularizer("diagonal").alpha == 1000.0
    assert default_regularizer("sparse_full").alpha == 100.0
    low = default_regularizer("low_rank")
    assert low.alpha == 100.0 and low.rank == 10
    lrs = default_regularizer("low_rank_sparse")
    assert (lrs.alpha, lrs.beta, lrs.rank) == (10.0, 1000.0, 10)
    assert default_regularizer("sparse_full", alpha=7.0).alpha == 7.0


# -- transform_window --------------------------------------------------------


def test_transform_zero_phi_identity():
    rng = np.random.default_rng(0)
    w, s = rng.normal(size=(2, 5, 3))
    em = ErrorModel("sparse_full", 3)
    assert_array_equal(transform_window(w, s, em), w)


def test_transform_identity_phi_constant_series():
    w = np.full((4, 2), 3.0)
    em = ErrorModel("diagonal", 2)
    em.payload["diag"][0] = [1.0, 1.0]
    out = transform_window(w, shift_with_mean(w, 1), em)
    assert_allclose(out, np.zeros((4, 2)), atol=1e-15)


def test_transform_hand_example():
    em = ErrorModel("sparse_full", 1)
    em.payload["matrix"][0] = 0.5
    out = transform_window([[4.0], [2.0]], [[2.0], [3.0]], em)
    assert_array_equal(out, [[3.0], [0.5]])


def test_transform_var2_requires_second_shift():
    em = ErrorModel("sparse_full", 2, var_order=2)
    w = np.zeros((3, 2))
    with pytest.raises(ContractError):
        transform_window(w, w, em)
    with pytest.raises(ContractError):
        transform_window(w, np.zeros((2, 2)), ErrorModel("sparse_full", 2))


def test_transform_var2_both_lags():
    rng = np.random.default_rng(1)
    w, s1, s2 = rng.normal(size=(3, 4, 2))
    em = ErrorModel("sparse_full", 2, var_order=2)
    phi1 = rng.normal(size=(2, 2))
    phi2 = rng.normal(size=(2, 2))
    em.payload["matrix"][0] = phi1
    em.payload["matrix"][1] = phi2
    out = transform_window(w, s1, em, s2)
    expected = w - s1 @ phi1.T - s2 @ phi2.T
    assert_allclose(out, expected, atol=1e-14)


# -- saea_predict ------------------------------------------------------------


def test_predict_zero_phi_equals_forward():
    rng = np.random.default_rng(2)
    model = NodeAR(3, 2, seed=1)
    w = rng.normal(size=(3, 2))
    s = shift_with_mean(w, 1)
    em = ErrorModel("sparse_full", 2)
    assert_array_equal(saea_predict(model, em, w, s), model.forward(w))
    assert_array_equal(saea_predict(model, None, w, s), model.forward(w))


def test_predict_zero_model_is_anchor_term():
    model = NodeAR(2, 2, seed=0)
    model.set_params(np.zeros(model.num_params))
    em = ErrorModel("sparse_full", 2)
    phi = np.array([[0.3, -0.1], [0.2, 0.5]])
    em.payload["matrix"][0] = phi
    w = np.array([[1.0, 2.0], [0.5, -1.0]])
    assert_allclose(saea_predict(model, em, w, shift_with_mean(w, 1)), phi @ w[0], atol=1e-14)


def test_predict_hand_chain():
    em = ErrorModel("sparse_full", 1)
    em.payload["matrix"][0] = 0.5
    model = NodeAR(2, 1, seed=0)
    model.set_params(np.array([1.0, 0.0, 0.0]))
    out = saea_predict(model, em, [[4.0], [2.0]], [[2.0], [3.0]])
    assert_allclose(out, [5.0], atol=1e-14)


def test_predict_linear_in_anchor_with_fixed_transform():
    # changing the anchor while compensating the shifted window so the
    # transformed input stays fixed must move the prediction by phi @ delta
    rng = np.random.default_rng(3)
    n = 3
    phi = 0.3 * np.eye(n) + rng.normal(scale=0.05, size=(n, n))
    em = ErrorModel("sparse_full", n)
    em.payload["matrix"][0] = phi
    model = MLP1(4, n, hidden=8, seed=2)
    w = rng.normal(size=(4, n))
    s = rng.normal(size=(4, n))
    delta = rng.normal(size=n)
    w2 = w.copy()
    w2[0] += delta
    s2 = s.copy()
    s2[0] += np.linalg.solve(phi, delta)  # keeps transformed row 0 unchanged
    diff = saea_predict(model, em, w2, s2) - saea_predict(model, em, w, s)
    assert np.max(np.abs(diff - phi @ delta)) < 1e-10


def test_predict_windows_matches_single_window_loop():
    rng = np.random.default_rng(4)
    frame = SeriesFrame(rng.normal(size=(30, 4)))
    ws = make_windows(frame, 5, 0)
    model = GraphFilterAR.from_graph(5, ring_graph(4), seed=3)
    for var_order in (1, 2):
        em = make_em("sparse_full", 4, var_order=var_order, randomize=11)
        batch = predict_windows(model, em, ws)
        for b in range(ws.batch):
            w = ws.inputs[b]
            single = saea_predict(
                model,
                em,
                w,
                ws.inputs_shifted[b],
                shift_with_mean(w, 2) if var_order == 2 else None,
            )
            assert_allclose(batch[b], single, atol=1e-12)


# -- saea_loss ---------------------------------------------------------------


def random_batch(n=4, h=3, b=8, seed=5):
    rng = np.random.default_rng(seed)
    frame = SeriesFrame(rng.normal(size=(b + h, n)))
    return make_windows(frame, h, 0)


def test_loss_with_frozen_zero_phi_is_plain_mse():
    batch = random_batch()
    model = NodeAR(3, 4, seed=1)
    em = ErrorModel.zeros("sparse_full", 4)
    adjusted = saea_loss(model, em, RegularizerConfig(alpha=100.0), batch)
    plain = saea_loss(model, None, RegularizerConfig(alpha=0.0), batch)
    assert adjusted.loss == pytest.approx(plain.loss, rel=1e-15)
    assert adjusted.penalty == 0.0
    assert_allclose(adjusted.grad_theta, plain.grad_theta, atol=1e-15)


def test_loss_zero_for_perfect_model_on_noiseless_data():
    # target rows equal the newest lag; a persistence model is exact
    values = np.tile(np.array([[1.0, -2.0]]), (10, 1))
    ws = make_windows(SeriesFrame(values), 2, 0)
    model = NodeAR(2, 2, seed=0)
    model.set_params(np.array([1.0, 1.0, 0.0, 0.0, 0.0, 0.0]))
    em = ErrorModel.zeros("sparse_full", 2)
    res = saea_loss(model, em, RegularizerConfig(alpha=0.0), ws)
    assert res.loss == pytest.approx(0.0, abs=1e-24)


def test_reduction_identity_all_kinds():
    batch = random_batch(n=5, h=4, b=6, seed=9)
    model = MLP1(4, 5, hidden=7, seed=4)
    plain = saea_loss(model, None, RegularizerConfig(alpha=0.0), batch)
    base_forward = model.forward_batch(batch.inputs)
    for kind in ALL_KINDS:
        for var_order in (1, 2):
            em = make_em(kind, 5, var_order=var_order)
            cfg = default_regularizer(kind, rank=em.rank)
            res = saea_loss(model, em, cfg, batch)
            assert abs(res.loss - plain.loss) <= 1e-12 * abs(plain.loss)
            assert_allclose(predict_windows(model, em, batch), base_forward, atol=1e-15)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("var_order", [1, 2])
def test_loss_gradients_match_finite_differences(kind, var_order):
    batch = random_batch(n=4, h=3, b=8, seed=13)
    graph = ring_graph(4)
    model = GraphFilterAR.from_graph(3, graph, seed=5)
    em = make_em(kind, 4, var_order=var_order, graph=graph, randomize=21)
    cfg = RegularizerConfig(alpha=0.7, beta=0.3, rank=em.rank)
    res = saea_loss(model, em, cfg, batch)

    theta0 = model.get_params()

    def loss_theta(theta):
        model.set_params(theta)
        out = saea_loss(model, em, cfg, batch).loss
        model.set_params(theta0)
        return out

    assert max_rel_err(res.grad_theta, central_diff(loss_theta, theta0)) < 1e-4

    fd = payload_fd_grads(lambda: saea_loss(model, em, cfg, batch).loss, em)
    for name in em.payload:
        assert max_rel_err(res.payload_grads[name], fd[name]) < 1e-4


def reference_coefficient_grads(model, em, batch):
    """Per-lag dMSE/dPhi by the einsum formulas the loss was first written with."""
    lags = range(em.var_order)
    phis = [materialize_phi(em, lag) for lag in lags]
    shifts = [shift_with_mean(batch.inputs, lag + 1) for lag in lags]
    anchors = [batch.inputs[:, lag] for lag in lags]
    transformed = batch.inputs - sum(s @ phi.T for s, phi in zip(shifts, phis))
    preds = model.forward_batch(transformed) + sum(a @ phi.T for a, phi in zip(anchors, phis))
    resid = preds - batch.targets
    cots = (2.0 / resid.size) * resid
    _, grad_input = model.vjp_batch(transformed, cots)
    return [
        np.einsum("bi,bj->ij", cots, a) - np.einsum("bhi,bhj->ij", grad_input, s)
        for a, s in zip(anchors, shifts)
    ]


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("var_order", [1, 2])
def test_loss_coefficient_gradient_matches_einsum_reference(kind, var_order):
    n = 50
    batch = random_batch(n=n, h=5, b=7, seed=17)
    graph = ring_graph(n)
    model = GraphFilterAR.from_graph(5, graph, seed=6)
    em = make_em(kind, n, var_order=var_order, rank=3, graph=graph, randomize=23)
    # alpha = 0 leaves only the data term, which is what the reference computes
    res = saea_loss(model, em, RegularizerConfig(alpha=0.0), batch)
    expected = _phi_to_payload_grads(em, reference_coefficient_grads(model, em, batch))
    for name, grad in expected.items():
        assert np.max(np.abs(res.payload_grads[name] - grad)) <= 1e-12 * np.max(np.abs(grad))


def test_loss_empty_batch_rejected():
    batch = random_batch()
    empty = batch.take(np.array([], dtype=int))
    with pytest.raises(ValidationError):
        saea_loss(NodeAR(3, 4, seed=0), None, RegularizerConfig(alpha=0.0), empty)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_loss_nan_raises_divergence():
    from saea.errors import DivergenceError

    batch = random_batch()
    model = NodeAR(3, 4, seed=0)
    model.set_params(np.full(model.num_params, np.inf))
    with pytest.raises(DivergenceError):
        saea_loss(model, None, RegularizerConfig(alpha=0.0), batch)


# -- spectral radius ---------------------------------------------------------


def test_spectral_radius_scaled_identity():
    em = ErrorModel("scalar", 3)
    em.payload["coef"][0] = 0.5
    assert spectral_radius(em) == pytest.approx(0.5, abs=1e-8)


def test_spectral_radius_zero():
    assert spectral_radius(ErrorModel("sparse_full", 4)) == 0.0


def test_spectral_radius_complex_pair_hand_value():
    em = ErrorModel("sparse_full", 2)
    em.payload["matrix"][0] = [[0.0, 1.0], [0.25, 0.0]]
    value, converged = spectral_radius(em, with_flag=True)
    assert value == pytest.approx(0.5, abs=1e-3)
    assert not converged  # eigenvalues +/- 0.5 keep the iteration oscillating


def test_spectral_radius_matches_eig_random():
    rng = np.random.default_rng(8)
    for var_order in (1, 2):
        for _ in range(5):
            em = ErrorModel("sparse_full", 4, var_order=var_order)
            for lag in range(var_order):
                em.payload["matrix"][lag] = rng.normal(scale=0.3, size=(4, 4))
            expected = np.max(np.abs(np.linalg.eigvals(companion_matrix(em))))
            assert spectral_radius(em) == pytest.approx(expected, rel=2e-3, abs=1e-6)


def test_companion_matrix_var2_shape():
    em = ErrorModel("sparse_full", 3, var_order=2)
    c = companion_matrix(em)
    assert c.shape == (6, 6)
    assert_array_equal(c[3:, :3], np.eye(3))


def test_power_iteration_nilpotent():
    value, converged = power_iteration_radius(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert value == 0.0 and converged


# -- ErrorModel plumbing ------------------------------------------------------


def test_error_model_validation():
    with pytest.raises(ValidationError):
        ErrorModel("banana", 3)
    with pytest.raises(ValidationError):
        ErrorModel("scalar", 3, var_order=3)
    with pytest.raises(ConfigurationError):
        ErrorModel("low_rank", 3)  # rank missing
    with pytest.raises(ConfigurationError):
        ErrorModel("low_rank", 3, rank=4)  # rank > n
    with pytest.raises(ConfigurationError):
        ErrorModel("scalar", 3, payload={"coef": np.zeros(2)})  # wrong lag count


def test_for_training_low_rank_starts_at_zero_product():
    em = ErrorModel.for_training("low_rank", 6, rank=2, seed=3)
    assert np.any(em.payload["left"] != 0)
    assert_array_equal(materialize_phi(em, 0), np.zeros((6, 6)))


def test_clone_is_independent():
    em = make_em("diagonal", 3, randomize=1)
    other = em.clone()
    other.payload["diag"][0, 0] += 1.0
    assert em.payload["diag"][0, 0] != other.payload["diag"][0, 0]


def test_error_model_blob_roundtrip_with_mask_hash():
    g = ring_graph(5)
    em = make_em("structural", 5, graph=g, randomize=2)
    blob = em.to_blob()
    assert "mask_sha256" in blob
    again = ErrorModel.from_blob(blob)
    assert_array_equal(again.payload["matrix"], em.payload["matrix"])
    blob["mask"][0][1] = 1.0 - blob["mask"][0][1]
    with pytest.raises(ValidationError):
        ErrorModel.from_blob(blob)
