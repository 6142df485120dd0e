import re
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from _helpers import central_diff, max_rel_err
from saea.adjust import saea_predict
from saea.errors import ValidationError
from saea.forecaster import (
    MLP1,
    Forecaster,
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
    model.set_params(np.zeros(model.get_params().size))
    windows = np.random.default_rng(0).normal(size=(1, 3, 2))
    assert_array_equal(model.forward_batch(windows), np.zeros((1, 2)))


def test_nodear_identity_persistence():
    model = NodeAR(1, 3, seed=0)
    model.set_params(np.concatenate([np.ones(3), np.zeros(3)]))
    windows = np.array([[[2.0, -1.0, 0.5]]])
    assert_array_equal(model.forward_batch(windows), windows[:, 0])


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
    assert_allclose(model.forward_batch(window[None])[0], expected, atol=1e-14)


@pytest.mark.parametrize("model_idx", [0, 1, 2])
def test_vjp_matches_finite_differences_20_seeds(model_idx):
    worst_theta = worst_input = 0.0
    for seed in range(20):
        model = all_models(seed=seed)[model_idx]
        rng = np.random.default_rng(1000 + seed)
        window = rng.normal(size=(1, H, N))
        cot = rng.normal(size=(1, N))
        grad_theta, grad_input = model.vjp_batch(window, cot)

        theta0 = model.get_params()

        def loss_theta(theta):
            model.set_params(theta)
            out = float(np.sum(cot * model.forward_batch(window)))
            model.set_params(theta0)
            return out

        fd_theta = central_diff(loss_theta, theta0)
        worst_theta = max(worst_theta, max_rel_err(grad_theta, fd_theta))

        def loss_input(flat):
            return float(np.sum(cot * model.forward_batch(flat.reshape(1, H, N))))

        fd_input = central_diff(loss_input, window.ravel()).reshape(1, H, N)
        worst_input = max(worst_input, max_rel_err(grad_input, fd_input))
    assert worst_theta < 1e-4
    assert worst_input < 1e-4


def test_vjp_batch_equals_single_window_vjps():
    # B windows at once against B batches of one
    rng = np.random.default_rng(11)
    windows = rng.normal(size=(7, H, N))
    cots = rng.normal(size=(7, N))
    for model in all_models(seed=4):
        grad_theta, grad_input = model.vjp_batch(windows, cots)
        singles = [model.vjp_batch(windows[b : b + 1], cots[b : b + 1]) for b in range(7)]
        summed = np.sum([theta for theta, _ in singles], axis=0)
        assert_allclose(grad_theta, summed, rtol=1e-12, atol=1e-14)
        assert_allclose(grad_input, np.concatenate([g for _, g in singles]), rtol=1e-12, atol=1e-14)


def test_graphfilter_matches_per_lag_propagation_reference():
    b, h, n = 7, 5, 50
    model = GraphFilterAR.from_graph(h, erdos_renyi_graph(n, 0.2, seed=3), seed=8)
    rng = np.random.default_rng(12)
    model.set_params(model.get_params() + rng.normal(size=model.get_params().size))
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
        windows = np.random.default_rng(1).normal(size=(2, H, N))
        grad_theta, grad_input = model.vjp_batch(windows, np.zeros((2, N)))
        assert_array_equal(grad_theta, np.zeros(model.get_params().size))
        assert_array_equal(grad_input, np.zeros((2, H, N)))


def test_linear_models_are_linear_with_zero_bias():
    rng = np.random.default_rng(2)
    for model in all_models()[:2]:
        theta = model.get_params()
        theta[-N:] = 0.0  # bias is the trailing block for both linear models
        model.set_params(theta)
        x, y = rng.normal(size=(2, 1, H, N))
        a, b = 1.7, -0.6
        lhs = model.forward_batch(a * x + b * y)
        rhs = a * model.forward_batch(x) + b * model.forward_batch(y)
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_linear_models_grad_input_window_independent():
    rng = np.random.default_rng(3)
    cot = rng.normal(size=N)
    for model in all_models()[:2]:
        g1 = model.vjp_batch(rng.normal(size=(1, H, N)), cot[None])[1]
        g2 = model.vjp_batch(rng.normal(size=(1, H, N)), cot[None])[1]
        assert_allclose(g1, g2, atol=1e-14)


def test_deterministic_construction_from_seed():
    for a, b in zip(all_models(seed=5), all_models(seed=5)):
        assert a.get_params().tobytes() == b.get_params().tobytes()


def test_param_roundtrip_preserves_forward():
    rng = np.random.default_rng(4)
    windows = rng.normal(size=(3, H, N))
    for model in all_models(seed=2):
        before = model.forward_batch(windows)
        model.set_params(model.get_params())
        assert_array_equal(model.forward_batch(windows), before)


def test_forward_batch_matches_single():
    rng = np.random.default_rng(5)
    windows = rng.normal(size=(7, H, N))
    for model in all_models(seed=3):
        batch = model.forward_batch(windows)
        for b in range(7):
            assert_allclose(batch[b], model.forward_batch(windows[b : b + 1])[0], atol=1e-14)


def test_contract_errors_on_shape_mismatch():
    model = NodeAR(3, 2, seed=0)
    for window in (np.zeros((2, 2)), np.zeros((3, 3)), np.zeros((1, 3, 2))):
        with pytest.raises(ValidationError, match=re.escape(f"window has shape {window.shape}, expected (3, 2)")):
            saea_predict(model, None, window)
    for model in all_models():
        p = model.get_params().size
        for theta in (np.zeros(p - 1), np.zeros(p + 1), np.zeros((1, p))):
            with pytest.raises(ValidationError, match=re.escape(f"theta has shape {theta.shape}, expected ({p},)")):
                model.set_params(theta)


def test_set_params_reports_both_shapes():
    # eight one-element lists hold NodeAR(3, 2)'s eight values in the wrong shape
    with pytest.raises(ValidationError, match=re.escape("theta has shape (8, 1), expected (8,)")):
        NodeAR(3, 2).set_params([[0.0]] * 8)


def test_set_params_copies_theta():
    windows = np.random.default_rng(8).normal(size=(2, H, N))
    for model in all_models(seed=1):
        theta = model.get_params() + 0.1
        model.set_params(theta)
        before = model.forward_batch(windows)
        theta[:] = 7.0
        assert_array_equal(model.forward_batch(windows), before)


class SquashedLastLag(Forecaster):
    """A forecaster defined outside the library: scale * tanh(mix @ x_{t-1}) + bias."""

    kind = "squashed"
    params = ("mix", "scale", "bias")

    def __init__(self, history, n, seed=0):
        super().__init__(history, n)
        rng = np.random.default_rng(seed)
        self.mix = rng.normal(size=(n, n)) / n
        self.scale = np.array([1.5])
        self.bias = rng.normal(size=n)

    def forward_batch(self, windows):
        return self.scale[0] * np.tanh(windows[:, 0] @ self.mix.T) + self.bias

    def vjp_batch(self, windows, cotangents):
        z = np.tanh(windows[:, 0] @ self.mix.T)
        dpre = self.scale[0] * cotangents * (1.0 - z * z)
        grad_input = np.zeros_like(windows)
        grad_input[:, 0] = dpre @ self.mix
        grad_theta = np.concatenate(
            [(dpre.T @ windows[:, 0]).ravel(), [np.sum(cotangents * z)], cotangents.sum(axis=0)]
        )
        return grad_theta, grad_input


def test_custom_forecaster_declares_params_once():
    model = SquashedLastLag(H, N, seed=3)
    assert model.get_params().shape == (N * N + 1 + N,)
    theta = np.random.default_rng(9).normal(size=N * N + 1 + N)
    model.set_params(theta)
    assert_array_equal(model.get_params(), theta)
    assert model.mix.shape == (N, N) and model.scale.shape == (1,)
    assert_array_equal(model.mix, theta[: N * N].reshape(N, N))
    assert model.scale[0] == theta[N * N]
    assert_array_equal(model.bias, theta[N * N + 1 :])

    rng = np.random.default_rng(10)
    window, cot = rng.normal(size=(1, H, N)), rng.normal(size=(1, N))
    grad_theta, grad_input = model.vjp_batch(window, cot)

    def loss_theta(t):
        model.set_params(t)
        out = float(np.sum(cot * model.forward_batch(window)))
        model.set_params(theta)
        return out

    def loss_input(flat):
        return float(np.sum(cot * model.forward_batch(flat.reshape(1, H, N))))

    assert max_rel_err(grad_theta, central_diff(loss_theta, theta)) < 1e-4
    fd_input = central_diff(loss_input, window.ravel()).reshape(1, H, N)
    assert max_rel_err(grad_input, fd_input) < 1e-4


def test_checkpoint_blob_roundtrip():
    rng = np.random.default_rng(6)
    windows = rng.normal(size=(3, H, N))
    for model in all_models(seed=7, hidden=9):
        blob = model.to_blob()
        assert "version" not in blob
        clone = forecaster_from_blob(blob)
        assert_array_equal(clone.forward_batch(windows), model.forward_batch(windows))


def test_checkpoint_rejects_an_unknown_kind():
    blob = NodeAR(2, 2, seed=0).to_blob()
    with pytest.raises(ValidationError, match="'svr'"):
        forecaster_from_blob({**blob, "kind": "svr"})


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


def test_a_theta_of_the_wrong_length_fails_before_the_model_is_built():
    # mlp1 at history = n = hidden = 100 would allocate 8 MB of weights
    blob = {"kind": "mlp1", "history": 100, "n": 100, "hidden": 100, "theta": [0.0] * 100}
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match=r"1010200 parameters, not len\(theta\) = 100"):
            forecaster_from_blob(blob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
