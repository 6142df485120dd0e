import argparse
import json
import math
import re
import tempfile

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from saea.adjust import ErrorModel, LossResult, predict_windows, saea_loss, saea_predict
from saea.cli import build_parser, cmd_eval, cmd_synth, parse_horizons
from saea.data import (
    Normalizer,
    SeriesFrame,
    WindowSet,
    check_shape,
    chronological_split,
    make_windows,
    shift_with_mean,
    write_json,
)
from saea.errors import DivergenceError, ValidationError
from saea.forecaster import MLP1, GraphFilterAR, NodeAR
from saea.graph import SensorGraph, structural_mask
from saea.metrics import acf, crosslag_cov, ecm, offdiag_energy, residual_report, rmse
from saea.synth import (
    GraphSpec,
    SynthConfig,
    erdos_renyi_graph,
    generate,
    ring_graph,
    structured_var_coefficients,
)
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
    em = ErrorModel.for_training("sparse_full", frame.num_sensors, seed=0, alpha=100.0)
    cfg = TrainConfig(epochs=epochs, lr=lr, seed=0)
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


def test_fit_rejects_an_empty_window_set():
    # fit never sees one: the empty set is refused as it is built
    tws = make_windows(sinusoid_frame(t=60), 3, 0)
    with pytest.raises(ValidationError, match=re.escape("inputs has shape (0, 3, 4), expected (B, H, N)")):
        tws.take([])


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


def _synth_config(**kw):
    return SynthConfig(**{"graph": GraphSpec("ring", 4), "steps": 20, "dgp_self": (0.5,),
                          "dgp_hop": (0.2,), "phi_star": np.zeros((4, 4)), **kw})


def _synth(**kw):
    return generate(_synth_config(**kw))


def _synth_command(**kw):
    """cmd_synth on a 4-sensor ring, with library values in place of parsed flags."""
    with tempfile.TemporaryDirectory() as out:
        args = build_parser().parse_args(["synth", "--n", "4", "--steps", "20", "--out", out])
        return cmd_synth(argparse.Namespace(**{**vars(args), **kw}))


# (call taking the count as a keyword, the keyword, the name its errors give,
# lowest value taken, highest or None); the other arguments are valid
COUNTS = [
    *((TrainConfig, field, field, int(field != "seed"), None) for field in ("epochs", "batch", "seed")),
    (lambda **kw: ErrorModel(**{"kind": "low_rank", "n": 3, **kw}), "n", "n", 1, None),
    (lambda **kw: ErrorModel(**{"kind": "low_rank", "n": 3, **kw}), "var_order", "var_order", 1, None),
    (lambda **kw: ErrorModel(**{"kind": "low_rank", "n": 3, **kw}), "rank", "rank", 1, 3),
    *((lambda **kw: NodeAR(**{"history": 3, "n": 2, **kw}), field, field, 1, None)
      for field in ("history", "n")),
    (lambda **kw: MLP1(3, 2, **kw), "hidden", "hidden", 1, None),
    (lambda **kw: NodeAR(3, 2, **kw), "seed", "seed", 0, None),
    (lambda **kw: GraphFilterAR(3, np.zeros((2, 2)), **kw), "seed", "seed", 0, None),
    (lambda **kw: MLP1(3, 2, **kw), "seed", "seed", 0, None),
    (lambda **kw: ErrorModel.for_training("low_rank", 3, **kw), "seed", "seed", 0, None),
    (lambda **kw: predict_recursive(NodeAR(3, 2), None, np.zeros((3, 2)), **kw), "steps", "steps", 1, None),
    (lambda **kw: structural_mask(ring_graph(4), **kw), "order", "mask order", 1, 2),
    (lambda **kw: GraphSpec(**{"kind": "path", "n": 3, **kw}).build(), "n", "n", 1, None),
    (lambda **kw: GraphSpec("path", 3, **kw).build(), "seed", "graph seed", 0, None),
    (lambda **kw: ring_graph(**kw), "n", "ring graph n", 3, None),
    (lambda **kw: erdos_renyi_graph(4, 0.5, **kw), "seed", "seed", 0, None),
    (lambda **kw: structured_var_coefficients(ring_graph(4), **kw), "seed", "seed", 0, None),
    (_synth, "steps", "steps", 1, None),
    (_synth, "seed", "seed", 0, None),
    (lambda **kw: make_windows(SeriesFrame(np.zeros((10, 2))), **{"history": 3, **kw}),
     "history", "history", 2, None),
    (lambda **kw: make_windows(SeriesFrame(np.zeros((10, 2))), 3, **kw), "horizon_step", "horizon_step", 0, None),
    (lambda **kw: shift_with_mean(np.zeros((3, 2)), **kw), "shift", "shift", 1, None),
    (lambda **kw: acf(np.arange(5.0), **kw), "max_lag", "max_lag", 0, 4),
    (lambda **kw: crosslag_cov(np.arange(10.0).reshape(5, 2), **kw), "ts", "lag", 0, 4),
]
COUNT_IDS = [
    "epochs", "batch", "seed", "em-n", "var_order", "rank", "history", "model-n", "hidden",
    "nodear-seed", "graphfilter-seed", "mlp1-seed", "em-seed", "steps", "mask-order", "graph-n",
    "graph-seed", "ring-n", "erdos-renyi-seed", "var-coefficients-seed", "synth-steps", "synth-seed",
    "window-history", "horizon_step", "shift", "max_lag", "crosslag-ts",
]


@pytest.mark.parametrize("value", [2.5, True, np.float64(2.0), "2"], ids=repr)
@pytest.mark.parametrize("build, keyword, name, low, high", COUNTS, ids=COUNT_IDS)
def test_counts_refuse_a_bool_or_non_integer_naming_the_field(build, keyword, name, low, high, value):
    with pytest.raises(ValidationError, match=re.escape(f"{name} must be an integer, got {value!r}")):
        build(**{keyword: value})


@pytest.mark.parametrize("build, keyword, name, low, high", COUNTS, ids=COUNT_IDS)
def test_counts_refuse_a_value_out_of_range_naming_the_field(build, keyword, name, low, high):
    if high is None:
        refused = {low - 1: f"{name} must be >= {low}, got {low - 1}"}
    else:
        refused = {value: f"{name} must be in [{low}, {high}], got {value}" for value in (low - 1, high + 1)}
    for value, message in refused.items():
        with pytest.raises(ValidationError, match=re.escape(message)):
            build(**{keyword: value})


@pytest.mark.parametrize("build, keyword, name, low, high", COUNTS, ids=COUNT_IDS)
def test_counts_take_a_numpy_integer(build, keyword, name, low, high):
    value = max(2, low)
    built = build(**{keyword: np.int64(value)})
    if hasattr(built, keyword):  # stored as a Python int
        assert getattr(built, keyword) == value and type(getattr(built, keyword)) is int
        if hasattr(built, "to_blob"):  # a checkpoint holds it as a JSON integer
            assert json.loads(json.dumps(built.to_blob()))[keyword] == value


def _split(**kw):
    return chronological_split(SeriesFrame(np.zeros((10, 1))), **{"train_frac": 0.3, "val_frac": 0.2, **kw})


def _var_coefficients(**kw):
    return structured_var_coefficients(ring_graph(4), **kw)


# (call taking the real as a keyword, the keyword, the name its errors give,
# lowest and highest value or None, whether each of those is open); the
# other arguments are valid
REALS = [
    *((TrainConfig, field, field, 0, None, True, False) for field in ("lr", "grad_clip")),
    *((lambda **kw: ErrorModel(**{"kind": "low_rank_sparse", "n": 3, **kw}), field, field, 0, None, False, False)
      for field in ("alpha", "beta")),
    (lambda **kw: SeriesFrame(np.zeros((3, 2)), **kw), "step_minutes", "step_minutes", 0, None, True, False),
    (lambda **kw: parse_horizons((5.0,), **kw), "step_min", "step_min", 0, None, True, False),
    *((_split, field, field, 0, 1, True, True) for field in ("train_frac", "val_frac")),
    (lambda **kw: erdos_renyi_graph(4, **kw), "p_edge", "p_edge", 0, 1, False, False),
    (_var_coefficients, "radius", "radius", 0, 1, False, True),
    (_var_coefficients, "diag_low", "diag_low", 0, 0.6, False, False),
    (_synth_command, "phi_radius", "phi_radius", 0, None, False, False),
    (_synth_config, "sigma", "sigma", 0, None, False, False),
    (_synth_config, "quad_coeff", "quad_coeff", None, None, False, False),
]
REAL_IDS = [
    "lr", "grad_clip", "alpha", "beta", "step_minutes", "step_min", "train_frac", "val_frac", "p_edge",
    "radius", "diag_low", "phi_radius", "sigma", "quad_coeff",
]


@pytest.mark.parametrize("value", [True, "0.1", math.nan, math.inf, -math.inf, 10**400],
                         ids=["True", "'0.1'", "nan", "inf", "-inf", "int-beyond-float"])
@pytest.mark.parametrize("build, keyword, name, low, high, low_open, high_open", REALS, ids=REAL_IDS)
def test_reals_refuse_a_bool_string_or_nonfinite_value_naming_the_field(
    build, keyword, name, low, high, low_open, high_open, value
):
    with pytest.raises(ValidationError, match=re.escape(f"{name} must be a finite number, got {value!r}")):
        build(**{keyword: value})


@pytest.mark.parametrize("build, keyword, name, low, high, low_open, high_open", REALS, ids=REAL_IDS)
def test_reals_refuse_a_value_just_outside_each_end_naming_the_field(
    build, keyword, name, low, high, low_open, high_open
):
    # an open end is itself outside; past a closed one, the next float is
    outside = []
    if low is not None:
        outside.append(low if low_open else math.nextafter(low, -math.inf))
    if high is not None:
        outside.append(high if high_open else math.nextafter(high, math.inf))
    if high is None:
        bound = f"{'>' if low_open else '>='} {low}"
    else:
        bound = f"in {'(' if low_open else '['}{low}, {high}{')' if high_open else ']'}"
    for value in outside:
        with pytest.raises(ValidationError, match=re.escape(f"{name} must be {bound}, got {value!r}")):
            build(**{keyword: value})


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("build, keyword, name, low, high, low_open, high_open", REALS, ids=REAL_IDS)
def test_reals_take_a_numpy_float(build, keyword, name, low, high, low_open, high_open, dtype):
    value = 0.0 if low is None else low + 0.5 if high is None else (low + high) / 2
    built = build(**{keyword: dtype(value)})
    if hasattr(built, keyword):  # stored as a Python float
        assert getattr(built, keyword) == float(dtype(value)) and type(getattr(built, keyword)) is float


def _phi_star_file(values):
    """cmd_synth on a 4-sensor ring, reading --phi-star from a file of values."""
    np.savetxt("phi_star.csv", values, delimiter=",")
    return _synth_command(phi_star="phi_star.csv")


def _eval_normalizer(**fields):
    """cmd_eval of a 4-sensor checkpoint whose z-score normalizer takes its
    mean and std from fields, else unit values; the series is never read."""
    arrays = {"mean": np.ones(4), "std": np.ones(4), **fields}
    normalizer = {"mode": "zscore", **{name: values.tolist() for name, values in arrays.items()}}
    write_json("checkpoint.json", checkpoint_blob(NodeAR(3, 4), None, {"normalizer": normalizer}))
    argv = ["eval", "--checkpoint", "checkpoint.json", "--series", "unread.csv", "--out", "out"]
    return cmd_eval(build_parser().parse_args(argv))


# (call taking the array as its one argument, the name its errors give, a
# wrong shape, the shape expected, as the message writes it where it names
# free axes); the other arguments are valid, and the calls run in an empty
# working directory
SHAPES = [
    (lambda a: NodeAR(3, 2).set_params(a), "theta", (8, 1), (8,)),
    (lambda a: rmsprop_step(np.zeros(2), a, np.zeros(2), 0.1), "grads", (3,), (2,)),
    (lambda a: rmsprop_step(np.zeros(2), np.zeros(2), a, 0.1), "state", (2, 1), (2,)),
    (lambda a: sgd_step(np.zeros((2, 2)), a, 0.1), "grads", (4,), (2, 2)),
    (lambda a: ErrorModel("sparse_full", 3, payload={"matrix": a}), "payload 'matrix'", (3, 3), (1, 3, 3)),
    (lambda a: _synth(phi_star=a), "phi_star", (3, 3), (4, 4)),
    (_phi_star_file, "phi_star.csv: phi_star", (3, 3), (4, 4)),
    (lambda a: _eval_normalizer(mean=a, std=a), "normalizer field 'mean'", (5,), (4,)),
    (lambda a: Normalizer(a, a), "normalizer field 'mean'", (2, 3), "(N,)"),
    (lambda a: _eval_normalizer(std=a), "normalizer field 'std'", (3,), (4,)),
    (lambda a: Normalizer(np.zeros(1), np.ones(1)).transform(a), "values", (3, 8), (3, 1)),
    (lambda a: Normalizer(np.zeros(1), np.ones(1)).inverse(a), "values", (3, 8), (3, 1)),
    (lambda a: rmse(np.zeros((3, 2)), a), "predictions", (2, 3), (3, 2)),
    (SeriesFrame, "series values", (5,), "(T, N)"),
    (lambda a: WindowSet(a, np.zeros((15, 4))), "inputs", (15, 4), "(B, H, N)"),
    (lambda a: WindowSet(np.zeros((5, 3, 4)), a), "targets", (5, 1), (5, 4)),
    (SensorGraph, "adjacency", (2, 3), "(N, N)"),
    (lambda a: GraphFilterAR(3, a), "propagation", (2, 3), "(N, N)"),
    (ecm, "residuals", (5,), "(T, N)"),
    (lambda a: crosslag_cov(a, 1), "residuals", (5, 2, 1), "(T, N)"),
    (lambda a: residual_report(a, a), "residuals", (5,), "(T, N)"),
    (offdiag_energy, "matrix", (2, 3), "(N, N)"),
    (lambda a: acf(a, 2), "series", (50, 3), "(T,)"),
    (lambda a: saea_loss(NodeAR(3, 4), None, WindowSet(a, np.zeros((5, 4)))), "windows", (5, 1, 4), "(B, 3, 4)"),
    (lambda a: saea_predict(NodeAR(3, 4), None, a), "window", (1, 4), (3, 4)),
    (lambda a: saea_predict(NodeAR(3, 4), None, np.zeros((3, 4)), a), "shifted window", (3, 1), (3, 4)),
]
SHAPE_IDS = [
    "theta", "rmsprop-grads", "rmsprop-state", "sgd-grads", "payload", "phi_star", "phi-star-file",
    "normalizer-mean", "normalizer-1d", "normalizer-std", "normalizer-transform", "normalizer-inverse",
    "predictions", "series", "window-inputs", "window-targets", "adjacency", "propagation", "ecm",
    "crosslag", "residual-report", "offdiag-energy", "acf", "loss-windows", "predict-window",
    "shifted-window",
]


@pytest.mark.parametrize("build, name, shape, expected", SHAPES, ids=SHAPE_IDS)
def test_shapes_refuse_a_wrong_shape_naming_the_array(tmp_path, monkeypatch, build, name, shape, expected):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ValidationError) as refused:
        build(np.ones(shape))
    assert str(refused.value) == f"{name} has shape {shape}, expected {expected}"


def test_check_shape_converts_without_copying_a_float64_array():
    values = np.zeros((2, 3))
    assert check_shape("values", values, (2, 3)) is values
    converted = check_shape("values", [[1, 2, 3]], (1, 3))
    assert converted.dtype == np.float64 and converted.tolist() == [[1.0, 2.0, 3.0]]


def test_check_finite_converts_without_copying_a_float64_array():
    # the finite check (check_shape with finite=True) converts as the shape check does
    values = np.zeros((2, 3))
    assert check_shape("values", values, (2, 3), finite=True) is values
    converted = check_shape("values", [[1, 2, 3]], (1, 3), finite=True)
    assert converted.dtype == np.float64 and converted.tolist() == [[1.0, 2.0, 3.0]]


def test_check_shape_names_free_axes_that_share_one_length():
    for shape in ((1, 1), (4, 4)):
        assert check_shape("square", np.zeros(shape), ("N", "N")).shape == shape
    # a free axis is >= 1 long; a fixed one is the length it names, 0 too
    with pytest.raises(ValidationError, match=re.escape("square has shape (0, 0), expected (N, N)")):
        check_shape("square", np.zeros((0, 0)), ("N", "N"))
    assert check_shape("rows", np.zeros((0, 2)), (0, 2)).shape == (0, 2)
    with pytest.raises(ValidationError, match=re.escape("windows has shape (7, 2, 2), expected (B, 3, N)")):
        check_shape("windows", np.zeros((7, 2, 2)), ("B", 3, "N"))


def test_check_shape_refuses_the_shape_before_the_entries():
    with pytest.raises(ValidationError, match=re.escape("values has shape (3,), expected (2,)")):
        check_shape("values", [math.nan] * 3, (2,), finite=True)


# calls given an array with an empty free axis, each refused by the shape
# rule where the array is first checked
EMPTY = [
    lambda: SeriesFrame(np.zeros((30, 0))),
    lambda: SeriesFrame(np.zeros((0, 3))),
    lambda: residual_report(np.zeros((5, 0)), np.zeros((5, 0))),
    lambda: ecm(np.zeros((5, 0)), "temporal"),
    lambda: Normalizer.fit("zscore", np.zeros((5, 0))),
    lambda: Normalizer(np.zeros(0), np.ones(0)),
    lambda: WindowSet(np.zeros((0, 3, 2)), np.zeros((0, 2))),
    lambda: make_windows(SeriesFrame(np.zeros((10, 2))), 3).take([]),
    lambda: acf(np.zeros(0), 0),
]
EMPTY_IDS = [
    "series-no-sensors", "series-no-steps", "residual-report", "ecm-temporal", "normalizer-fit",
    "normalizer-pair", "window-set", "window-take", "acf",
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("build", EMPTY, ids=EMPTY_IDS)
def test_an_empty_free_axis_is_refused_by_the_shape_rule(build):
    with pytest.raises(ValidationError, match="has shape"):
        build()


@pytest.mark.parametrize(
    "build, name",
    [
        (lambda: SeriesFrame([["a", "b"]]), "series values"),
        (lambda: SeriesFrame([[1.0, 2.0], [1.0]]), "series values"),
        (lambda: SensorGraph([["0", "x"], ["1", "0"]]), "adjacency"),
        (lambda: ErrorModel("scalar", 2, payload={"coef": ["x"]}), "payload 'coef'"),
        (lambda: _synth_config(dgp_self=("x",)), "dgp_self"),
        (lambda: SeriesFrame(np.array([[1 + 2j, 3], [4, 5]])), "series values"),
        (lambda: SeriesFrame([[1 + 2j, 3], [4, 5]]), "series values"),
    ],
    ids=["strings", "ragged", "adjacency-strings", "payload-strings", "taps-strings", "complex-array",
         "complex-list"],
)
def test_values_numpy_cannot_convert_are_refused_naming_the_array(build, name):
    with pytest.raises(ValidationError) as refused:
        build()
    assert str(refused.value) == f"{name} is not an array of numbers"


def test_objects_holding_arrays_compare_and_hash_by_identity():
    # a generated __eq__ would compare arrays, whose truth value is ambiguous,
    # and a generated __hash__ would hash them, which numpy refuses
    builds = [
        lambda: Normalizer(np.zeros(2), np.ones(2)),
        lambda: SeriesFrame(np.zeros((4, 2))),
        lambda: make_windows(SeriesFrame(np.zeros((4, 2))), 2),
        lambda: SensorGraph(np.zeros((2, 2))),
        lambda: structural_mask(ring_graph(4), 1),
        _synth_config,
        _synth,
        lambda: LossResult(0.0, np.zeros(2), {"matrix": np.zeros((1, 2, 2))}, 0.0, 0.0),
    ]
    for build in builds:
        one, other = build(), build()
        assert one == one and one != other
        assert hash(one) == hash(one) and len({one, other}) == 2


def _with_entry(shape, value):
    """An array of shape, zeros but for value at its second entry (off any diagonal)."""
    array = np.zeros(shape)
    array.flat[1] = value
    return array


def _rescaled_phi_diag(value):
    """cmd_synth rescaling phi_diag * I + phi_hop * A to a radius, under the
    errstate that main gives every command (inf * 0 is NaN, silently)."""
    with np.errstate(all="ignore"):
        return _synth_command(phi_diag=value, phi_radius=0.5)


# (call taking a number to put in an otherwise valid array, the name its
# errors give)
FINITE = [
    (lambda x: SeriesFrame(_with_entry((3, 2), x)), "series values"),
    (lambda x: SensorGraph(_with_entry((2, 2), x)), "adjacency"),
    (lambda x: _synth(phi_star=_with_entry((4, 4), x)), "phi_star"),
    (_rescaled_phi_diag, "phi_star"),
    (lambda x: GraphFilterAR(3, _with_entry((2, 2), x)), "propagation"),
    (lambda x: ErrorModel("sparse_full", 2, payload={"matrix": _with_entry((1, 2, 2), x)}), "payload 'matrix'"),
    (lambda x: Normalizer(_with_entry(3, x), np.ones(3)), "normalizer field 'mean'"),
    (lambda x: Normalizer(np.zeros(3), 1.0 + _with_entry(3, x)), "normalizer field 'std'"),
]
FINITE_IDS = [
    "series", "adjacency", "phi_star", "phi-radius-rescale", "propagation", "payload", "normalizer-mean",
    "normalizer-std",
]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("build, name", FINITE, ids=FINITE_IDS)
def test_finite_arrays_refuse_a_nonfinite_entry_naming_the_array(build, name, value):
    with pytest.raises(ValidationError) as refused:
        build(value)
    assert str(refused.value) == f"{name} has non-finite entries"


def test_synth_config_stores_numpy_counts_as_json_integers():
    cfg = _synth_config(steps=np.int64(50), seed=np.int64(1))
    recorded = json.loads(json.dumps(cfg.to_dict()))
    assert (recorded["steps"], recorded["seed"]) == (50, 1)
    assert type(recorded["steps"]) is int and type(recorded["seed"]) is int


def test_structural_checkpoint_with_a_numpy_mask_order_loads_back(tmp_path):
    mask = structural_mask(ring_graph(6), np.int64(2))
    em = ErrorModel("structural", 6, mask=mask)
    save_checkpoint(tmp_path / "ckpt.json", NodeAR(3, 6), em)
    loaded = load_checkpoint(tmp_path / "ckpt.json")[1]
    assert loaded.mask.order == 2
    assert_array_equal(loaded.mask.mask, mask.mask)


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


@pytest.mark.parametrize("var_order", [1, 2])
@pytest.mark.parametrize(
    "kind", ["none", "scalar", "diagonal", "sparse_full", "low_rank", "low_rank_sparse", "structural"]
)
def test_fit_without_the_radius_changes_nothing_else(kind, var_order):
    """The radius is a pure read: skipping it leaves every other result bit-identical."""
    train_f, val_f, _ = chronological_split(sinusoid_frame(t=120), 0.6, 0.2)
    tws, vws = make_windows(train_f, 3, 0), make_windows(val_f, 3, 0)
    mask = structural_mask(ring_graph(4), 1) if kind == "structural" else None

    def fitted(radius):
        model = NodeAR(3, 4, seed=2)
        em = None if kind == "none" else ErrorModel.for_training(
            kind, 4, var_order=var_order, mask=mask, seed=2
        )
        return fit(model, em, TrainConfig(epochs=3, lr=0.05, seed=5), tws, vws, radius=radius)

    logged, skipped = fitted(True), fitted(False)
    assert len(logged.radius) == 3 and skipped.radius == []
    for name in ("train_loss", "val_mse", "best_epoch", "best_val_mse", "epochs_run", "diverged",
                 "best_checkpoint", "final_checkpoint"):
        assert getattr(skipped, name) == getattr(logged, name), name


def test_fit_penalizes_with_the_kinds_default_alpha():
    """An error model's alpha of None is the kind's default (structural: 1000)."""
    train_f, val_f, _ = chronological_split(sinusoid_frame(t=120), 0.6, 0.2)
    tws, vws = make_windows(train_f, 3, 0), make_windows(val_f, 3, 0)
    mask = structural_mask(ring_graph(4), 1)

    def fitted(**weights):
        em = ErrorModel.for_training("structural", 4, mask=mask, seed=0, **weights)
        return fit(NodeAR(3, 4, seed=0), em, TrainConfig(), tws, vws).final_checkpoint

    default = fitted()
    assert fitted(alpha=1000.0) == default
    assert fitted(alpha=5.0) != default


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
    result = saea_loss(model, em, tws)
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



@pytest.mark.parametrize("steps", [2.5, True, "3"])
def test_predict_recursive_rejects_a_step_count_that_is_not_an_integer(steps):
    with pytest.raises(ValidationError, match="steps"):
        predict_recursive(NodeAR(2, 1, seed=0), None, np.zeros((2, 1)), steps)


def test_predict_recursive_takes_a_numpy_integer_step_count():
    out = predict_recursive(NodeAR(2, 1, seed=0), None, np.zeros((2, 1)), np.int64(2))
    assert out.shape == (2, 1)

def test_predict_recursive_rejects_a_1d_window():
    with pytest.raises(ValidationError, match=re.escape("window has shape (2,), expected (2, 1)")):
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


def test_save_checkpoint_of_a_nonfinite_model_writes_nothing(tmp_path):
    diverged = NodeAR(2, 2, seed=0)
    diverged.set_params(np.full(diverged.get_params().size, np.nan))
    diverged_em = ErrorModel("diagonal", 2)
    diverged_em.payload["diag"][0, 1] = np.inf
    for model, em in ((diverged, None), (NodeAR(2, 2, seed=0), diverged_em)):
        path = tmp_path / "run" / "ckpt.json"
        with pytest.raises(DivergenceError, match="ckpt.json"):
            save_checkpoint(path, model, em)
        assert not path.parent.exists()


def test_checkpoint_none_error_model(tmp_path):
    path = tmp_path / "plain.json"
    save_checkpoint(path, NodeAR(2, 2, seed=0), None)
    _, em = load_checkpoint(path)
    assert em is None


def test_checkpoint_format_version_must_match():
    blob = checkpoint_blob(NodeAR(3, 2, seed=0), ErrorModel("diagonal", 2))
    load_checkpoint_blob(blob)
    for version in (None, 0, 1, 3, "2"):
        with pytest.raises(ValidationError, match=f"format_version {version!r} "):
            load_checkpoint_blob({**blob, "format_version": version})
    del blob["format_version"]
    with pytest.raises(ValidationError):
        load_checkpoint_blob(blob)


@pytest.mark.parametrize(
    "n, var_order, message",
    [(5, 1, "field 'n' is 5, but its model's n is 2"),
     (2, 4, "field 'var_order' is 4, but its model's history is 3")],
    ids=["n", "var_order"],
)
def test_a_pair_the_model_cannot_serve_is_refused_at_save_and_at_load(tmp_path, n, var_order, message):
    # one check for writer and reader: the writer leaves no file, and the
    # reader refuses the same pair however the file was written
    model, em = NodeAR(3, 2, seed=0), ErrorModel("diagonal", n, var_order=var_order)
    path = tmp_path / "ckpt.json"
    for write in (lambda: checkpoint_blob(model, em), lambda: save_checkpoint(path, model, em)):
        with pytest.raises(ValidationError, match=re.escape(message)):
            write()
    assert not path.exists()
    blob = {**checkpoint_blob(model, None), "error_model": em.to_blob()}
    with pytest.raises(ValidationError, match=re.escape(message)):
        load_checkpoint_blob(json.loads(json.dumps(blob)))


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
        # a ragged array
        (lambda b: _with(b, [[0.0] * 4] * 3 + [[0.0] * 3], "error_model", "adjacency"), "'adjacency'"),
    ],
    ids=[
        "<lambda>-'model'0", "<lambda>-'model'1", "<lambda>-'theta'0", "<lambda>-'theta'1",
        "<lambda>-'history'", "<lambda>-'propagation'", "<lambda>-'error_model'", "<lambda>-'payload'",
        "<lambda>-'matrix'", "<lambda>-'var_order'", "<lambda>-'mask_order'", "<lambda>-'adjacency'",
    ],
)
def test_malformed_checkpoint_field_is_a_validation_error_naming_it(edit, field):
    blob = structural_checkpoint()
    load_checkpoint_blob(blob)
    with pytest.raises(ValidationError, match=field):
        load_checkpoint_blob(edit(blob))


def structural_checkpoint():
    """The JSON round trip of a graphfilter + structural checkpoint on 4 sensors."""
    graph = ring_graph(4)
    model = GraphFilterAR.from_graph(3, graph, seed=0)
    em = ErrorModel("structural", 4, mask=structural_mask(graph, 1))
    return json.loads(json.dumps(checkpoint_blob(model, em)))


@pytest.mark.parametrize(
    "value, path",
    [
        (True, ("model", "history")),
        (True, ("error_model", "var_order")),
        (True, ("error_model", "mask_order")),
        ([float("nan")] + [0.0] * 9, ("model", "theta")),  # 10 values, as stored
        ([[[float("inf")] * 4] * 4], ("error_model", "payload", "matrix")),
        ([True] + [0.0] * 9, ("model", "theta")),
        ([[[0.0, True, 0.0, 0.0]] + [[0.0] * 4] * 3], ("error_model", "payload", "matrix")),
        ([[0, True, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]], ("error_model", "adjacency")),
    ],
    ids=[
        "history-bool", "var-order-bool", "mask-order-bool", "theta-nan", "matrix-inf",
        "theta-bool", "matrix-bool", "adjacency-bool",
    ],
)
def test_checkpoint_number_is_finite_and_not_a_boolean(value, path):
    blob = structural_checkpoint()
    assert len(blob["model"]["theta"]) == 10
    with pytest.raises(ValidationError, match=f"'{path[-1]}'"):
        load_checkpoint_blob(_with(blob, value, *path))
