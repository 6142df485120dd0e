import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from saea.adjust import ErrorModel, predict_windows, saea_predict
from saea.data import SeriesFrame, chronological_split, make_windows, shift_with_mean
from saea.errors import ValidationError
from saea.forecaster import GraphFilterAR, NodeAR
from saea.graph import structural_mask
from saea.synth import GraphSpec, SynthConfig, generate, structured_var_coefficients
from saea.train import (
    TrainConfig,
    fit,
    fit_direct_multistep,
    load_checkpoint,
    load_checkpoint_blob,
    predict_recursive,
    resolve_regularizer,
    rmsprop_step,
    save_checkpoint,
    sgd_step,
)


def sinusoid_frame(n=4, t=500, seed=0):
    """Marginally stable per-sensor oscillators: x_t = 2cos(w) x_{t-1} - x_{t-2},
    which a per-sensor linear AR model reproduces exactly."""
    rng = np.random.default_rng(seed)
    omega = rng.uniform(0.3, 1.2, n)
    phase = rng.uniform(0.0, 2.0 * np.pi, n)
    amp = rng.uniform(1.0, 3.0, n)
    steps = np.arange(t)
    return SeriesFrame(amp * np.sin(np.outer(steps, omega) + phase))


def correlated_bundle(seed=0, steps=1500, n=10):
    spec = GraphSpec("ring", n)
    phi = structured_var_coefficients(spec.build(), seed=seed + 50, radius=0.55,
                                      coupling_low=0.3, coupling_high=0.7)
    return generate(SynthConfig(graph=spec, steps=steps, dgp_self=(0.5, 0.2),
                                dgp_hop=(0.0, 0.0), phi_star=phi, sigma=1.0, seed=seed))


# -- optimizer steps ----------------------------------------------------------


def test_rmsprop_zero_gradient_leaves_params():
    params, state = rmsprop_step(np.array([1.0, -2.0]), np.zeros(2), np.zeros(2), 0.1)
    assert_array_equal(params, [1.0, -2.0])
    assert_array_equal(state, [0.0, 0.0])


def test_rmsprop_hand_value():
    params, state = rmsprop_step(np.array([1.0]), np.array([1.0]), np.array([0.0]), 0.1)
    assert state[0] == pytest.approx(0.1)
    assert params[0] == pytest.approx(1.0 - 0.1 / np.sqrt(0.1 + 1e-8), abs=1e-12)
    assert params[0] == pytest.approx(0.6838, abs=1e-4)


def test_rmsprop_deterministic():
    a = rmsprop_step(np.array([0.5]), np.array([0.3]), np.array([0.2]), 0.01)
    b = rmsprop_step(np.array([0.5]), np.array([0.3]), np.array([0.2]), 0.01)
    assert a[0].tobytes() == b[0].tobytes() and a[1].tobytes() == b[1].tobytes()


def test_rmsprop_shape_mismatch():
    with pytest.raises(ValidationError):
        rmsprop_step(np.zeros(2), np.zeros(3), np.zeros(2), 0.1)


def test_sgd_step():
    assert_array_equal(sgd_step(np.array([1.0]), np.array([2.0]), 0.1), [0.8])


# -- fit ----------------------------------------------------------------------


def exact_recovery_report(epochs=800, lr=2e-4):
    frame = sinusoid_frame()
    train_f, val_f, _ = chronological_split(frame, 0.7, 0.15)
    h = 4
    tws = make_windows(train_f, h, 0)
    vws = make_windows(val_f, h, 0)
    model = NodeAR(h, frame.num_sensors, seed=0)
    em = ErrorModel.for_training("sparse_full", frame.num_sensors, seed=0)
    cfg = TrainConfig(epochs=epochs, learning_rate=lr, alpha=100.0, seed=0, history=h)
    return fit(model, em, cfg, tws, vws)


def test_fit_noiseless_linear_dgp_recovers_below_1e3():
    report = exact_recovery_report()
    assert np.sqrt(report.best_val_mse) < 1e-3


def test_fit_deterministic_bit_identical():
    frame = sinusoid_frame(t=120)
    train_f, val_f, _ = chronological_split(frame, 0.7, 0.15)
    tws = make_windows(train_f, 3, 0)
    vws = make_windows(val_f, 3, 0)

    def run():
        model = NodeAR(3, frame.num_sensors, seed=1)
        em = ErrorModel.for_training("diagonal", frame.num_sensors, seed=1)
        cfg = TrainConfig(epochs=5, seed=7, history=3)
        return fit(model, em, cfg, tws, vws)

    a, b = run(), run()
    assert a.train_loss == b.train_loss
    assert a.val_mse == b.val_mse


def test_fit_rejects_zero_epochs():
    frame = sinusoid_frame(t=60)
    tws = make_windows(frame, 3, 0)
    with pytest.raises(ValidationError):
        fit(NodeAR(3, 4, seed=0), None, TrainConfig(epochs=0), tws, tws)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_fit_divergence_keeps_last_good_state():
    frame = sinusoid_frame(t=120)
    tws = make_windows(frame, 3, 0)
    model = NodeAR(3, 4, seed=0)
    cfg = TrainConfig(epochs=50, learning_rate=1e12, optimizer="sgd", seed=0, history=3)
    report = fit(model, None, cfg, tws, tws)
    assert report.diverged
    assert report.epochs_run < 50
    restored, _ = load_checkpoint_blob(report.final_checkpoint)
    assert np.all(np.isfinite(restored.get_params()))  # rolled back, not diverged
    assert np.all(np.isfinite(model.get_params()))


def test_fit_best_and_final_checkpoints_hold_their_states():
    frame = sinusoid_frame(t=120)
    train_f, val_f, _ = chronological_split(frame, 0.7, 0.15)
    tws = make_windows(train_f, 3, 0)
    vws = make_windows(val_f, 3, 0)
    model = NodeAR(3, 4, seed=1)
    em = ErrorModel.for_training("diagonal", 4, seed=1)
    report = fit(model, em, TrainConfig(epochs=8, learning_rate=0.2, seed=3, history=3), tws, vws)
    assert report.best_epoch < report.epochs_run - 1  # best and final states differ
    best = report.best_checkpoint
    assert (best["epoch"], best["val_mse"]) == (report.best_epoch, report.best_val_mse)
    best_model, best_em = load_checkpoint_blob(best)
    best_mse = float(np.mean((predict_windows(best_model, best_em, vws) - vws.targets) ** 2))
    assert best_mse == report.best_val_mse
    final = report.final_checkpoint
    assert (final["epoch"], final["diverged"]) == (report.epochs_run - 1, False)
    final_model, final_em = load_checkpoint_blob(final)
    assert_array_equal(final_model.get_params(), model.get_params())
    assert_array_equal(final_em.payload["diag"], em.payload["diag"])


def test_fit_train_loss_decreases():
    bundle = correlated_bundle(seed=1, steps=800, n=6)
    train_f, val_f, _ = chronological_split(bundle.frame, 0.7, 0.15)
    tws = make_windows(train_f, 4, 0)
    vws = make_windows(val_f, 4, 0)
    model = GraphFilterAR.from_graph(4, bundle.graph, seed=1)
    report = fit(model, None, TrainConfig(epochs=30, seed=1, history=4), tws, vws)
    assert report.train_loss[-1] < report.train_loss[0]


def test_fit_baseline_dominance_and_phi_moves():
    bundle = correlated_bundle(seed=2)
    train_f, val_f, _ = chronological_split(bundle.frame, 0.6, 0.15)
    h = 5
    tws = make_windows(train_f, h, 0)
    vws = make_windows(val_f, h, 0)
    mask = structural_mask(bundle.graph, 1)

    results = {}
    for kind in ("none", "structural"):
        model = GraphFilterAR.from_graph(h, bundle.graph, seed=3)
        em = None if kind == "none" else ErrorModel.for_training(
            "structural", bundle.graph.n, mask=mask, seed=3
        )
        report = fit(model, em, TrainConfig(epochs=50, seed=3, history=h), tws, vws)
        results[kind] = (report, em)
    base = np.sqrt(results["none"][0].best_val_mse)
    adjusted = np.sqrt(results["structural"][0].best_val_mse)
    assert adjusted <= 1.02 * base
    phi = results["structural"][1].payload["matrix"][0]
    assert np.linalg.norm(phi) > 0.1


def test_fit_structural_penalty_respects_mask():
    bundle = correlated_bundle(seed=4)
    train_f, val_f, _ = chronological_split(bundle.frame, 0.6, 0.15)
    h = 5
    tws = make_windows(train_f, h, 0)
    vws = make_windows(val_f, h, 0)
    mask = structural_mask(bundle.graph, 1)
    model = GraphFilterAR.from_graph(h, bundle.graph, seed=0)
    em = ErrorModel.for_training("structural", bundle.graph.n, mask=mask, seed=0)
    fit(model, em, TrainConfig(epochs=60, seed=0, history=h), tws, vws)
    phi = np.abs(em.payload["matrix"][0])
    masked_mean = phi[mask.mask > 0].mean()
    unmasked_mean = phi[mask.mask == 0].mean()
    assert masked_mean < 0.05 * unmasked_mean


def test_fit_radius_logged_every_epoch():
    frame = sinusoid_frame(t=100)
    train_f, val_f, _ = chronological_split(frame, 0.6, 0.2)
    tws = make_windows(train_f, 3, 0)
    vws = make_windows(val_f, 3, 0)
    model = NodeAR(3, 4, seed=0)
    em = ErrorModel.for_training("scalar", 4, seed=0)
    report = fit(model, em, TrainConfig(epochs=4, seed=0, history=3), tws, vws)
    assert len(report.radius) == 4 == len(report.train_loss) == len(report.val_mse)


def test_resolve_regularizer_uses_kind_defaults():
    cfg = TrainConfig()
    assert resolve_regularizer(cfg, ErrorModel.zeros("structural", 4)).alpha == 1000.0
    assert resolve_regularizer(cfg, ErrorModel.zeros("sparse_full", 4)).alpha == 100.0
    assert resolve_regularizer(cfg, None).alpha == 0.0
    override = TrainConfig(alpha=5.0)
    assert resolve_regularizer(override, ErrorModel.zeros("scalar", 4)).alpha == 5.0


def test_grad_clip_limits_update():
    frame = sinusoid_frame(t=100)
    tws = make_windows(frame, 3, 0)
    model = NodeAR(3, 4, seed=0)
    theta0 = model.get_params().copy()
    cfg = TrainConfig(epochs=1, optimizer="sgd", learning_rate=1.0, grad_clip=1e-6,
                      seed=0, history=3, shuffle=False)
    fit(model, None, cfg, tws, tws)
    # with a tiny clip the total parameter movement stays tiny
    moved = np.linalg.norm(model.get_params() - theta0)
    assert 0 < moved < 1e-4


# -- multi-horizon and recursive ----------------------------------------------


def test_fit_direct_multistep_single_horizon_matches_fit():
    frame = sinusoid_frame(t=150)
    train_f, val_f, _ = chronological_split(frame, 0.7, 0.15)
    cfg = TrainConfig(epochs=5, seed=2, history=3)

    results = fit_direct_multistep(
        lambda p: NodeAR(3, 4, seed=2),
        lambda p: ErrorModel.for_training("diagonal", 4, seed=2),
        cfg,
        train_f,
        val_f,
        [0],
    )
    assert len(results) == 1 and not results[0].failed

    model = NodeAR(3, 4, seed=2)
    em = ErrorModel.for_training("diagonal", 4, seed=2)
    direct = fit(model, em, cfg, make_windows(train_f, 3, 0), make_windows(val_f, 3, 0))
    assert results[0].report.train_loss == direct.train_loss


def test_fit_direct_multistep_distinct_horizons():
    frame = sinusoid_frame(t=200)
    train_f, val_f, _ = chronological_split(frame, 0.7, 0.15)
    cfg = TrainConfig(epochs=20, learning_rate=1e-3, seed=3, history=4)
    results = fit_direct_multistep(
        lambda p: NodeAR(4, 4, seed=3),
        lambda p: ErrorModel.for_training("diagonal", 4, seed=3),
        cfg,
        train_f,
        val_f,
        [0, 2, 5],
    )
    assert [r.horizon_step for r in results] == [0, 2, 5]
    assert all(not r.failed for r in results)
    payloads = [r.em.payload["diag"].tobytes() for r in results]
    assert len(set(payloads)) == 3


def test_fit_direct_multistep_partial_failure():
    frame = sinusoid_frame(t=30)
    train_f, val_f, _ = chronological_split(frame, 0.6, 0.3)
    cfg = TrainConfig(epochs=2, seed=0, history=3)
    results = fit_direct_multistep(
        lambda p: NodeAR(3, 4, seed=0),
        lambda p: None,
        cfg,
        train_f,
        val_f,
        [0, 500],  # second horizon impossible for this series length
    )
    assert not results[0].failed
    assert results[1].failed and "short" in results[1].error


def test_fit_direct_multistep_propagates_programming_errors():
    frame = sinusoid_frame(t=30)
    train_f, val_f, _ = chronological_split(frame, 0.6, 0.3)

    def broken_factory(p):
        raise TypeError("factory bug")

    with pytest.raises(TypeError):
        fit_direct_multistep(
            broken_factory, lambda p: None, TrainConfig(epochs=2, history=3), train_f, val_f, [0]
        )


def test_fit_direct_multistep_requires_horizons():
    with pytest.raises(ValidationError):
        fit_direct_multistep(lambda p: None, lambda p: None, TrainConfig(), None, None, [])


def test_predict_recursive_one_step_equals_predict():
    rng = np.random.default_rng(5)
    window = rng.normal(size=(4, 3))
    model = NodeAR(4, 3, seed=1)
    em = ErrorModel.for_training("diagonal", 3, seed=1)
    em.payload["diag"][0] = rng.uniform(-0.3, 0.3, 3)
    rolled = predict_recursive(model, em, window, 1)
    single = saea_predict(model, em, window, shift_with_mean(window, 1))
    assert_allclose(rolled[0], single, atol=1e-14)


def test_predict_recursive_identity_persistence_constant():
    model = NodeAR(2, 3, seed=0)
    model.set_params(np.array([1.0] * 3 + [0.0] * 3 + [0.0] * 3))
    window = np.full((2, 3), 2.5)
    out = predict_recursive(model, None, window, 6)
    assert_array_equal(out, np.full((6, 3), 2.5))


def test_predict_recursive_ar1_closed_form():
    model = NodeAR(2, 1, seed=0)
    model.set_params(np.array([0.9, 0.0, 0.0]))  # x_t = 0.9 x_{t-1}
    x0 = 2.0
    window = np.array([[x0], [x0 / 0.9]])
    out = predict_recursive(model, None, window, 10)
    expected = x0 * 0.9 ** np.arange(1, 11)
    assert np.max(np.abs(out.ravel() - expected)) < 1e-8


def test_predict_recursive_validates_steps():
    with pytest.raises(ValidationError):
        predict_recursive(NodeAR(2, 1, seed=0), None, np.zeros((2, 1)), 0)


# -- checkpoints ---------------------------------------------------------------


def test_checkpoint_file_roundtrip(tmp_path):
    model = NodeAR(3, 4, seed=9)
    em = ErrorModel.for_training("sparse_full", 4, seed=9)
    em.payload["matrix"][0, 0, 1] = 0.25
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, model, em, extra={"horizon_step": 2})
    model2, em2 = load_checkpoint(path)
    rng = np.random.default_rng(0)
    window = rng.normal(size=(3, 4))
    s = shift_with_mean(window, 1)
    assert_allclose(
        saea_predict(model2, em2, window, s),
        saea_predict(model, em, window, s),
        atol=1e-15,
    )
    assert not (tmp_path / "ckpt.json.tmp").exists()


def test_checkpoint_none_error_model(tmp_path):
    path = tmp_path / "plain.json"
    save_checkpoint(path, NodeAR(2, 2, seed=0), None)
    _, em = load_checkpoint(path)
    assert em is None
