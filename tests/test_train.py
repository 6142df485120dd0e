import json

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from saea.adjust import ErrorModel, default_regularizer, predict_windows, saea_loss, saea_predict
from saea.data import SeriesFrame, chronological_split, make_windows
from saea.errors import ValidationError
from saea.forecaster import MLP1, GraphFilterAR, NodeAR
from saea.graph import structural_mask
from saea.synth import GraphSpec, SynthConfig, generate, ring_graph, structured_var_coefficients
from saea.train import (
    TrainConfig,
    checkpoint_blob,
    fit,
    load_checkpoint,
    load_checkpoint_blob,
    predict_recursive,
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
    cfg = TrainConfig(epochs=epochs, lr=lr, alpha=100.0, seed=0)
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
        cfg = TrainConfig(epochs=5, seed=7)
        return fit(model, em, cfg, tws, vws)

    a, b = run(), run()
    assert a.train_loss == b.train_loss
    assert a.val_mse == b.val_mse


def test_fit_rejects_zero_epochs():
    frame = sinusoid_frame(t=60)
    tws = make_windows(frame, 3, 0)
    with pytest.raises(ValidationError):
        fit(NodeAR(3, 4, seed=0), None, TrainConfig(epochs=0), tws, tws)


@pytest.mark.parametrize("grad_clip", [0.0, -1.0])
def test_train_config_rejects_nonpositive_grad_clip(grad_clip):
    # a negative clip scale would reverse every step and raise the loss
    with pytest.raises(ValidationError, match="grad_clip"):
        TrainConfig(grad_clip=grad_clip)


@pytest.mark.parametrize(
    "setting, value",
    [
        ("lr", 0.0),
        ("lr", float("nan")),
        ("lr", float("inf")),
        ("grad_clip", float("nan")),
        ("grad_clip", float("inf")),
        ("batch", 0),
        ("optimizer", "adam"),
    ],
)
def test_train_config_rejects_a_bad_setting_naming_it(setting, value):
    with pytest.raises(ValidationError, match=setting):
        TrainConfig(**{setting: value})


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_fit_divergence_keeps_last_good_state():
    frame = sinusoid_frame(t=120)
    tws = make_windows(frame, 3, 0)
    model = NodeAR(3, 4, seed=0)
    cfg = TrainConfig(epochs=50, lr=1e12, optimizer="sgd", seed=0)
    report = fit(model, None, cfg, tws, tws)
    assert report.diverged
    assert report.epochs_run < 50
    restored, _ = load_checkpoint_blob(report.final_checkpoint)
    assert np.all(np.isfinite(restored.get_params()))  # rolled back, not diverged
    assert np.all(np.isfinite(model.get_params()))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_fit_divergence_rolls_the_error_model_back_to_the_last_finished_epoch():
    tws = make_windows(sinusoid_frame(t=120), 3, 0)

    def run(epochs):
        model, em = NodeAR(3, 4, seed=0), ErrorModel.for_training("diagonal", 4, seed=0)
        report = fit(model, em, TrainConfig(epochs=epochs, lr=100.0, optimizer="sgd", seed=0), tws, tws)
        return model, em, report

    model, em, report = run(50)
    assert report.diverged and report.epochs_run >= 1
    # the same fit stopped after its last finished epoch holds the same state
    kept_model, kept_em, kept = run(report.epochs_run)
    assert not kept.diverged
    assert np.all(np.isfinite(em.payload["diag"]))
    assert_array_equal(em.payload["diag"], kept_em.payload["diag"])
    assert_array_equal(model.get_params(), kept_model.get_params())
    _, final_em = load_checkpoint_blob(report.final_checkpoint)
    assert_array_equal(final_em.payload["diag"], kept_em.payload["diag"])


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_fit_nonfinite_validation_mse_is_a_divergence():
    tws = make_windows(sinusoid_frame(t=120), 3, 0)
    model, em = NodeAR(3, 4), ErrorModel.for_training("diagonal", 4)
    report = fit(model, em, TrainConfig(epochs=60, lr=1e12, optimizer="sgd"), tws, tws)
    assert report.diverged
    assert np.all(np.isfinite(report.val_mse))
    # the kept state (the model's and the final checkpoint's) predicts finite values
    assert np.all(np.isfinite(predict_windows(model, em, tws)))
    kept_model, kept_em = load_checkpoint_blob(report.final_checkpoint)
    assert np.all(np.isfinite(predict_windows(kept_model, kept_em, tws)))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_fit_diverging_in_its_first_epoch_keeps_the_starting_state():
    tws = make_windows(sinusoid_frame(t=120), 3, 0)
    model = NodeAR(3, 4, seed=0)
    theta0 = model.get_params()
    report = fit(model, None, TrainConfig(epochs=5, lr=1e200, optimizer="sgd"), tws, tws)
    assert report.diverged and report.epochs_run == 0
    assert report.best_val_mse is None and report.best_epoch == -1
    assert report.best_checkpoint is report.final_checkpoint
    assert_array_equal(model.get_params(), theta0)


def test_fit_best_and_final_checkpoints_hold_their_states():
    frame = sinusoid_frame(t=120)
    train_f, val_f, _ = chronological_split(frame, 0.7, 0.15)
    tws = make_windows(train_f, 3, 0)
    vws = make_windows(val_f, 3, 0)
    model = NodeAR(3, 4, seed=1)
    em = ErrorModel.for_training("diagonal", 4, seed=1)
    report = fit(model, em, TrainConfig(epochs=8, lr=0.2, seed=3), tws, vws)
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
    report = fit(model, None, TrainConfig(epochs=30, seed=1), tws, vws)
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
        report = fit(model, em, TrainConfig(epochs=50, seed=3), tws, vws)
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
    fit(model, em, TrainConfig(epochs=60, seed=0), tws, vws)
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
    report = fit(model, em, TrainConfig(epochs=4, seed=0), tws, vws)
    assert len(report.radius) == 4 == len(report.train_loss) == len(report.val_mse)


def test_fit_penalizes_with_the_kinds_default_alpha():
    """TrainConfig's alpha of None is the kind's default (structural: 1000)."""
    train_f, val_f, _ = chronological_split(sinusoid_frame(t=120), 0.6, 0.2)
    tws, vws = make_windows(train_f, 3, 0), make_windows(val_f, 3, 0)
    mask = structural_mask(ring_graph(4), 1)

    def fitted(cfg):
        em = ErrorModel.for_training("structural", 4, mask=mask, seed=0)
        return fit(NodeAR(3, 4, seed=0), em, cfg, tws, vws).final_checkpoint

    default = fitted(TrainConfig())
    assert fitted(TrainConfig(alpha=1000.0)) == default
    assert fitted(TrainConfig(alpha=5.0)) != default


def test_grad_clip_limits_update():
    frame = sinusoid_frame(t=100)
    tws = make_windows(frame, 3, 0)
    model = NodeAR(3, 4, seed=0)
    theta0 = model.get_params().copy()
    cfg = TrainConfig(epochs=1, optimizer="sgd", lr=1.0, grad_clip=1e-6, seed=0)
    fit(model, None, cfg, tws, tws)
    # with a tiny clip the total parameter movement stays tiny
    moved = np.linalg.norm(model.get_params() - theta0)
    assert 0 < moved < 1e-4


def test_grad_clip_scales_theta_and_payload_by_one_factor():
    """One SGD step on one batch moves theta and the payload along the whole
    gradient, shortened by one factor to the clip norm."""
    tws = make_windows(sinusoid_frame(t=100), 3, 0)
    model, em = NodeAR(3, 4, seed=0), ErrorModel.for_training("diagonal", 4, seed=0)
    theta0, diag0 = model.get_params(), em.payload["diag"].copy()
    result = saea_loss(model, em, default_regularizer("diagonal"), tws)
    norm = np.linalg.norm(np.concatenate([result.grad_theta, result.payload_grads["diag"]], axis=None))
    lr, clip = 0.5, 1e-3
    assert norm > 10 * clip and np.any(result.payload_grads["diag"] != 0)
    cfg = TrainConfig(epochs=1, batch=tws.batch, optimizer="sgd", lr=lr, grad_clip=clip, seed=0)
    fit(model, em, cfg, tws, tws)
    scale = lr * clip / norm
    assert_allclose(theta0 - model.get_params(), scale * result.grad_theta, rtol=1e-9, atol=1e-18)
    assert_allclose(diag0 - em.payload["diag"], scale * result.payload_grads["diag"], rtol=1e-9, atol=1e-18)


# -- recursive rollout ----------------------------------------------


def test_predict_recursive_one_step_equals_predict():
    rng = np.random.default_rng(5)
    window = rng.normal(size=(4, 3))
    model = NodeAR(4, 3, seed=1)
    em = ErrorModel.for_training("diagonal", 3, seed=1)
    em.payload["diag"][0] = rng.uniform(-0.3, 0.3, 3)
    rolled = predict_recursive(model, em, window, 1)
    single = saea_predict(model, em, window)
    assert_allclose(rolled[0], single, atol=1e-14)


def test_predict_recursive_leaves_the_window_unchanged():
    rng = np.random.default_rng(6)
    window = rng.normal(size=(4, 3))
    before = window.copy()
    em = ErrorModel("sparse_full", 3, var_order=2)
    em.payload["matrix"][:] = rng.uniform(-0.2, 0.2, size=(2, 3, 3))
    out = predict_recursive(MLP1(4, 3, hidden=5, seed=2), em, window, 6)
    assert np.all(np.isfinite(out))
    assert_array_equal(window, before)


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


def test_predict_recursive_rejects_a_1d_window():
    with pytest.raises(ValidationError, match="window"):
        predict_recursive(NodeAR(2, 1, seed=0), None, np.zeros(2), 3)


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
    assert_allclose(saea_predict(model2, em2, window), saea_predict(model, em, window), atol=1e-15)
    assert not (tmp_path / "ckpt.json.tmp").exists()


def test_checkpoint_none_error_model(tmp_path):
    path = tmp_path / "plain.json"
    save_checkpoint(path, NodeAR(2, 2, seed=0), None)
    _, em = load_checkpoint(path)
    assert em is None


def test_checkpoint_format_version_must_match():
    blob = checkpoint_blob(NodeAR(3, 2, seed=0), ErrorModel("diagonal", 2))
    load_checkpoint_blob(blob)
    for version in (None, 0, 2, "1"):
        with pytest.raises(ValidationError):
            load_checkpoint_blob({**blob, "format_version": version})
    del blob["format_version"]
    with pytest.raises(ValidationError):
        load_checkpoint_blob(blob)


def _without(blob, *path):
    """A copy of a JSON blob with the field at `path` removed."""
    if len(path) == 1:
        return {k: v for k, v in blob.items() if k != path[0]}
    return {**blob, path[0]: _without(blob[path[0]], *path[1:])}


def _with(blob, value, *path):
    """A copy of a JSON blob with the field at `path` set to value."""
    if len(path) == 1:
        return {**blob, path[0]: value}
    return {**blob, path[0]: _with(blob[path[0]], value, *path[1:])}


@pytest.mark.parametrize(
    "edit, field",
    [
        (lambda b: _without(b, "model"), "'model'"),
        (lambda b: _with(b, [], "model"), "'model'"),
        (lambda b: _without(b, "model", "theta"), "'theta'"),
        (lambda b: _with(b, [["x"]], "model", "theta"), "'theta'"),
        (lambda b: _with(b, "12", "model", "history"), "'history'"),
        (lambda b: _without(b, "model", "propagation"), "'propagation'"),
        (lambda b: _with(b, [], "error_model"), "'error_model'"),
        (lambda b: _without(b, "error_model", "payload"), "'payload'"),
        (lambda b: _with(b, "x", "error_model", "payload", "matrix"), "'matrix'"),
        (lambda b: _with(b, 2.0, "error_model", "var_order"), "'var_order'"),
        (lambda b: _without(b, "error_model", "mask_order"), "'mask_order'"),
    ],
)
def test_malformed_checkpoint_field_is_a_validation_error_naming_it(edit, field):
    graph = ring_graph(4)
    model = GraphFilterAR.from_graph(3, graph, seed=0)
    em = ErrorModel("structural", 4, mask=structural_mask(graph, 1))
    blob = json.loads(json.dumps(checkpoint_blob(model, em)))
    load_checkpoint_blob(blob)
    with pytest.raises(ValidationError, match=field):
        load_checkpoint_blob(edit(blob))
