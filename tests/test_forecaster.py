import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from _helpers import central_diff, max_rel_err
from saea.errors import ContractError, ValidationError
from saea.forecaster import (
    MLP1,
    GraphFilterAR,
    NodeAR,
    build_forecaster,
    forecaster_from_blob,
)
from saea.graph import normalized_adjacency
from saea.synth import erdos_renyi_graph, path_graph, ring_graph

H, N = 4, 6


def all_models(seed=0, hidden=64):
    graph = ring_graph(N)
    return [
        NodeAR(H, N, seed=seed),
        GraphFilterAR.from_graph(H, graph, seed=seed),
        MLP1(H, N, hidden=hidden, seed=seed),
    ]


def test_nodear_zero_weights_zero_prediction():
    model = NodeAR(3, 2, seed=0)
    model.set_params(np.zeros(model.num_params))
    window = np.random.default_rng(0).normal(size=(3, 2))
    assert_array_equal(model.forward(window), np.zeros(2))


def test_nodear_identity_persistence():
    model = NodeAR(1, 3, seed=0)
    model.set_params(np.concatenate([np.ones(3), np.zeros(3)]))
    window = np.array([[2.0, -1.0, 0.5]])
    assert_array_equal(model.forward(window), window[0])


def test_graphfilter_hand_matrix_product():
    graph = path_graph(3)
    model = GraphFilterAR.from_graph(2, graph, seed=0)
    tap_self = np.array([0.5, -0.25])
    tap_hop = np.array([1.0, 2.0])
    bias = np.array([0.1, 0.2, 0.3])
    model.set_params(np.concatenate([tap_self, tap_hop, bias]))
    a_hat = normalized_adjacency(graph)
    window = np.array([[1.0, 2.0, 3.0], [-1.0, 0.0, 1.0]])
    expected = (
        0.5 * window[0]
        + 1.0 * a_hat @ window[0]
        - 0.25 * window[1]
        + 2.0 * a_hat @ window[1]
        + bias
    )
    assert_allclose(model.forward(window), expected, atol=1e-14)


@pytest.mark.parametrize("model_idx", [0, 1, 2])
def test_vjp_matches_finite_differences_20_seeds(model_idx):
    worst_theta = worst_input = 0.0
    for seed in range(20):
        model = all_models(seed=seed)[model_idx]
        rng = np.random.default_rng(1000 + seed)
        window = rng.normal(size=(H, N))
        cot = rng.normal(size=N)
        res = model.vjp(window, cot)

        theta0 = model.get_params()

        def loss_theta(theta):
            model.set_params(theta)
            out = float(cot @ model.forward(window))
            model.set_params(theta0)
            return out

        fd_theta = central_diff(loss_theta, theta0)
        worst_theta = max(worst_theta, max_rel_err(res.grad_theta, fd_theta))

        def loss_input(flat):
            return float(cot @ model.forward(flat.reshape(H, N)))

        fd_input = central_diff(loss_input, window.ravel()).reshape(H, N)
        worst_input = max(worst_input, max_rel_err(res.grad_input, fd_input))
    assert worst_theta < 1e-4
    assert worst_input < 1e-4


def test_vjp_batch_equals_single_window_vjps():
    rng = np.random.default_rng(11)
    windows = rng.normal(size=(7, H, N))
    cots = rng.normal(size=(7, N))
    for model in all_models(seed=4):
        grad_theta, grad_input = model.vjp_batch(windows, cots)
        singles = [model.vjp(w, c) for w, c in zip(windows, cots)]
        summed = np.sum([r.grad_theta for r in singles], axis=0)
        assert_allclose(grad_theta, summed, rtol=1e-12, atol=1e-14)
        assert_allclose(grad_input, np.stack([r.grad_input for r in singles]), rtol=1e-12, atol=1e-14)
        assert_allclose(np.stack([r.value for r in singles]), model.forward_batch(windows), atol=1e-14)


def test_graphfilter_matches_per_lag_propagation_reference():
    b, h, n = 7, 5, 50
    model = GraphFilterAR.from_graph(h, erdos_renyi_graph(n, 0.2, seed=3), seed=8)
    rng = np.random.default_rng(12)
    model.set_params(model.get_params() + rng.normal(size=model.num_params))
    windows = rng.normal(size=(b, h, n))
    cots = rng.normal(size=(b, n))
    # the formulas the model was first written with: propagate every lag
    hopped = windows @ model.propagation.T
    values = (
        np.einsum("h,bhn->bn", model.tap_self, windows)
        + np.einsum("h,bhn->bn", model.tap_hop, hopped)
        + model.bias
    )
    grad_theta = np.concatenate([
        np.einsum("bhn,bn->h", windows, cots),
        np.einsum("bhn,bn->h", hopped, cots),
        cots.sum(axis=0),
    ])
    got_values = model.forward_batch(windows)
    got_theta, _ = model.vjp_batch(windows, cots)
    assert np.max(np.abs(got_values - values)) <= 1e-12 * np.max(np.abs(values))
    assert np.max(np.abs(got_theta - grad_theta)) <= 1e-12 * np.max(np.abs(grad_theta))


def test_vjp_zero_cotangent_zero_gradients():
    for model in all_models():
        window = np.random.default_rng(1).normal(size=(H, N))
        res = model.vjp(window, np.zeros(N))
        assert_array_equal(res.grad_theta, np.zeros(model.num_params))
        assert_array_equal(res.grad_input, np.zeros((H, N)))


def test_linear_models_are_linear_with_zero_bias():
    rng = np.random.default_rng(2)
    for model in all_models()[:2]:
        theta = model.get_params()
        theta[-N:] = 0.0  # bias is the trailing block for both linear models
        model.set_params(theta)
        x, y = rng.normal(size=(2, H, N))
        a, b = 1.7, -0.6
        lhs = model.forward(a * x + b * y)
        rhs = a * model.forward(x) + b * model.forward(y)
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_linear_models_grad_input_window_independent():
    rng = np.random.default_rng(3)
    cot = rng.normal(size=N)
    for model in all_models()[:2]:
        g1 = model.vjp(rng.normal(size=(H, N)), cot).grad_input
        g2 = model.vjp(rng.normal(size=(H, N)), cot).grad_input
        assert_allclose(g1, g2, atol=1e-14)


def test_deterministic_construction_from_seed():
    for a, b in zip(all_models(seed=5), all_models(seed=5)):
        assert a.get_params().tobytes() == b.get_params().tobytes()


def test_param_roundtrip_preserves_forward():
    rng = np.random.default_rng(4)
    window = rng.normal(size=(H, N))
    for model in all_models(seed=2):
        before = model.forward(window)
        model.set_params(model.get_params())
        assert_array_equal(model.forward(window), before)


def test_forward_batch_matches_single():
    rng = np.random.default_rng(5)
    windows = rng.normal(size=(7, H, N))
    for model in all_models(seed=3):
        batch = model.forward_batch(windows)
        for b in range(7):
            assert_allclose(batch[b], model.forward(windows[b]), atol=1e-14)


def test_contract_errors_on_shape_mismatch():
    model = NodeAR(3, 2, seed=0)
    with pytest.raises(ContractError):
        model.forward(np.zeros((2, 2)))
    with pytest.raises(ContractError):
        model.vjp(np.zeros((3, 2)), np.zeros(3))
    with pytest.raises(ContractError):
        model.set_params(np.zeros(5))


def test_checkpoint_blob_roundtrip():
    rng = np.random.default_rng(6)
    window = rng.normal(size=(H, N))
    for model in all_models(seed=7, hidden=9):
        blob = model.to_blob()
        assert blob["version"] == 1
        clone = forecaster_from_blob(blob)
        assert_array_equal(clone.forward(window), model.forward(window))


def test_checkpoint_requires_version():
    blob = NodeAR(2, 2, seed=0).to_blob()
    del blob["version"]
    with pytest.raises(ValidationError):
        forecaster_from_blob(blob)


def test_build_forecaster_dispatch_and_errors():
    graph = ring_graph(N)
    assert build_forecaster("nodear", H, N).kind == "nodear"
    assert build_forecaster("graphfilter", H, N, graph=graph).kind == "graphfilter"
    assert build_forecaster("mlp1", H, N, hidden=4).kind == "mlp1"
    with pytest.raises(ValidationError):
        build_forecaster("graphfilter", H, N)  # graph missing
    with pytest.raises(ValidationError):
        build_forecaster("svr", H, N)
    with pytest.raises(ValidationError):
        build_forecaster("graphfilter", H, N + 1, graph=graph)
