import io
import json
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import saea.data
from saea.data import (
    Normalizer,
    SeriesFrame,
    WindowSet,
    chronological_split,
    ingest_csv,
    make_windows,
    save_series_csv,
    shift_with_mean,
    write_json,
)
from saea.errors import ParseError, SplitError, ValidationError, WindowError
from saea.forecaster import GraphFilterAR
from saea.synth import ring_graph
from saea.train import checkpoint_blob


def write_csv(path, header, rows):
    lines = [",".join(header)] + [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def test_ingest_zeros(tmp_path):
    path = tmp_path / "s.csv"
    write_csv(path, ["a", "b"], [[0, 0]] * 3)
    frame = ingest_csv(path)
    assert frame.num_steps == 3 and frame.num_sensors == 2
    assert_array_equal(frame.values, np.zeros((3, 2)))


def test_ingest_reports_bad_cell_location(tmp_path):
    path = tmp_path / "s.csv"
    rows = [[float(i), float(i), float(i)] for i in range(8)]
    rows[5][2] = "oops"
    write_csv(path, ["a", "b", "c"], rows)
    with pytest.raises(ParseError) as err:
        ingest_csv(path)
    assert err.value.row == 5 and err.value.column == 2
    assert "row 5" in str(err.value) and "column 2" in str(err.value)


def test_ingest_ragged_row(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("a,b\n1,2\n3\n")
    with pytest.raises(ParseError) as err:
        ingest_csv(path)
    assert err.value.row == 1


def test_ingest_rejects_nonfinite_rows_with_indices(tmp_path):
    path = tmp_path / "s.csv"
    write_csv(path, ["a", "b"], [[1, 2], ["nan", 3], [4, 5], ["inf", 6]])
    with pytest.raises(ValidationError) as err:
        ingest_csv(path)
    assert "[1, 3]" in str(err.value)


def test_ingest_rejects_numeric_header_and_empty(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("1.0,2.0\n3,4\n")
    with pytest.raises(ParseError):
        ingest_csv(path)
    empty = tmp_path / "e.csv"
    empty.write_text("")
    with pytest.raises(ParseError):
        ingest_csv(empty)


def test_series_csv_roundtrip_bit_identical(tmp_path):
    rng = np.random.default_rng(7)
    frame = SeriesFrame(rng.normal(size=(40, 5)) * 1e3)
    path = tmp_path / "round.csv"
    save_series_csv(frame, path)
    again = ingest_csv(path)
    assert again.values.tobytes() == frame.values.tobytes()


# (id, file text, whether the one-call np.loadtxt path takes the body)
INGEST_CORPUS = [
    ("plain", "a,b\n1.5,-2\n3e-3,4E+2\n", True),
    ("decimal-forms", "a,b\n1.,.5\n-.5e-1,+2\n", True),
    ("no-final-newline", "a,b\n1,2\n3,4", True),
    ("crlf", "a,b\r\n1,2\r\n3,4\r\n", True),
    ("lone-cr", "a,b\r1,2\r3,4\r", True),
    ("spaces", "a,b\n 1 , 2\n3 ,4 \n", True),
    ("one-column", "a\n1\n2\n", True),
    ("one-row", "a,b,c\n1,2,3\n", True),
    ("quoted-header", '"a\nx",b\n1,2\n', True),
    ("blank-line", "a,b\n1,2\n\n3,4\n", False),
    ("blank-last-line", "a,b\n1,2\n3,4\n\n", False),
    ("blank-body", "a,b\n\n", False),
    ("spaces-line", "a,b\n1,2\n  \n", False),
    ("hash-row", "a,b\n1,2\n#3,4\n", False),
    ("hash-cell", "a,b\n1,2 # note\n", False),
    ("quoted", 'a,b\n"1",2\n', False),
    ("quoted-comma", 'a,b\n"1,5",2\n', False),
    ("quoted-newline", 'a,b\n"1\n",2\n', False),
    ("underscore", "a,b\n1_0,2\n", False),
    ("nonfinite", "a,b\n1,nan\n2,3\ninf,2\n-Infinity,3\n", False),
    ("overflow", "a,b\n1e999,2\n", False),
    ("empty-cell", "a,b\n1,\n", False),
    ("empty-row-cells", "a,b\n,\n", False),
    ("trailing-commas", "a,b\n1,2,\n3,4,\n", False),
    ("ragged-short", "a,b\n1,2\n3\n", False),
    ("ragged-long", "a,b\n1,2,3\n", False),
    ("non-numeric", "a,b\n1,x\n", False),
    ("tab", "a,b\n1\t,2\n", False),
    ("form-feed", "a,b\n1,2\x0c3,4\n", False),
    ("unicode-digit", "a,b\n\u0661,2\n", False),
    ("nul", "a,b\n1,\x002\n", False),
    ("header-only", "a,b\n", False),
    ("numeric-header", "1,2\n3,4\n", False),
    ("empty", "", False),
]


def _ingest_outcome(path):
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # np.loadtxt warns on a body with no data
            return "ok", ingest_csv(path).values.tobytes()
    except Exception as exc:  # compared by type, text and location
        return type(exc).__name__, str(exc), getattr(exc, "row", None), getattr(exc, "column", None)


@pytest.mark.parametrize("text, fast", [c[1:] for c in INGEST_CORPUS],
                         ids=[c[0] for c in INGEST_CORPUS])
def test_ingest_fast_path_matches_the_cell_parser(tmp_path, monkeypatch, text, fast):
    path = tmp_path / "s.csv"
    path.write_bytes(text.encode("utf-8"))
    taken = []
    plain = saea.data._read_plain_rows
    monkeypatch.setattr(saea.data, "_read_plain_rows",
                        lambda fh, n: taken.append(plain(fh, n)) or taken[-1])
    outcome = _ingest_outcome(path)
    assert (len(taken) == 1 and taken[0] is not None) == fast
    monkeypatch.setattr(saea.data, "_read_plain_rows", lambda fh, n: None)
    assert outcome == _ingest_outcome(path)


def test_ingest_fast_path_bit_equal_across_blocks(tmp_path, monkeypatch):
    rng = np.random.default_rng(11)
    frame = SeriesFrame(rng.normal(size=(300, 7)) * 10.0 ** rng.integers(-8, 8, size=(300, 7)))
    path = tmp_path / "s.csv"
    save_series_csv(frame, path)
    monkeypatch.setattr(saea.data, "_PLAIN_BLOCK_CHARS", 1000)  # ~8 lines per block
    with path.open(newline="") as fh:
        fh.readline()
        assert saea.data._read_plain_rows(fh, 7).tobytes() == frame.values.tobytes()
    assert ingest_csv(path).values.tobytes() == frame.values.tobytes()
    # a bad line in a late block sends the whole file through the cell parser
    lines = path.read_text().splitlines(keepends=True)
    lines[250] = lines[250].replace(",", ",x", 1)
    path.write_text("".join(lines))
    with pytest.raises(ParseError) as err:
        ingest_csv(path)
    assert (err.value.row, err.value.column) == (249, 1)


def test_write_json_bytes_equal_json_dump(tmp_path):
    model = GraphFilterAR.from_graph(3, ring_graph(4), seed=2)
    blob = checkpoint_blob(model, None, {"epoch": 3, "diverged": False, "val_mse": 0.1 / 3})
    report = {"b": [1.5, float("inf"), None], "a": {"z": True, "y": [[1e-300, -0.0]]}}
    for obj, indent in ((blob, None), (report, 1)):
        path = tmp_path / "out.json"
        write_json(path, obj, indent=indent)
        expected = io.StringIO()
        json.dump(obj, expected, sort_keys=True, indent=indent)
        assert path.read_bytes() == (expected.getvalue() + "\n").encode()


def test_split_sizes_default_fractions():
    frame = SeriesFrame(np.arange(20.0).reshape(10, 2))
    train, val, test = chronological_split(frame, 0.7, 0.1)
    assert (train.num_steps, val.num_steps, test.num_steps) == (7, 1, 2)


def test_split_empty_segment_errors():
    frame = SeriesFrame(np.zeros((3, 1)))
    with pytest.raises(SplitError):
        chronological_split(frame, 0.7, 0.1)


def test_split_even_quarters():
    frame = SeriesFrame(np.zeros((100, 1)))
    train, val, test = chronological_split(frame, 0.5, 0.25)
    assert (train.num_steps, val.num_steps, test.num_steps) == (50, 25, 25)


def test_split_invalid_fractions():
    frame = SeriesFrame(np.zeros((10, 1)))
    with pytest.raises(ValidationError):
        chronological_split(frame, 0.9, 0.2)
    with pytest.raises(ValidationError):
        chronological_split(frame, 0.0, 0.2)


@pytest.mark.parametrize("fracs", [(float("nan"), 0.2), (0.6, float("nan")), (float("inf"), 0.1)])
def test_split_nonfinite_fraction_is_a_validation_error(fracs):
    with pytest.raises(ValidationError, match="frac"):
        chronological_split(SeriesFrame(np.zeros((10, 1))), *fracs)


def test_split_order_preserving_no_leak():
    values = np.arange(30.0)[:, None]  # row index as sentinel value
    train, val, test = chronological_split(SeriesFrame(values), 0.6, 0.2)
    assert train.values.max() < val.values.min() < test.values.min()
    rebuilt = np.vstack([train.values, val.values, test.values])
    assert_array_equal(rebuilt, values)


def test_make_windows_hand_example():
    frame = SeriesFrame(np.array([[1.0], [2.0], [3.0], [4.0]]))
    ws = make_windows(frame, history=2, horizon_step=0)
    assert ws.batch == 2
    assert_array_equal(ws.inputs[0], [[2.0], [1.0]])
    assert_array_equal(ws.inputs_shifted[0], [[1.0], [1.5]])
    assert_array_equal(ws.anchors[0], [2.0])
    assert_array_equal(ws.targets[0], [3.0])
    assert_array_equal(ws.inputs[1], [[3.0], [2.0]])
    assert_array_equal(ws.targets[1], [4.0])


def test_windows_constant_series_shift_is_identity():
    frame = SeriesFrame(np.full((30, 3), 4.25))
    ws = make_windows(frame, history=5, horizon_step=2)
    assert_array_equal(ws.inputs_shifted, ws.inputs)


def test_take_subset_derives_shift_and_anchors():
    rng = np.random.default_rng(3)
    ws = make_windows(SeriesFrame(rng.normal(size=(40, 3))), history=5, horizon_step=1)
    sub = ws.take(np.array([7, 0, 21, 3]))
    assert_array_equal(sub.inputs_shifted, shift_with_mean(sub.inputs, 1))
    assert_array_equal(sub.anchors, sub.inputs[:, 0])
    assert_array_equal(sub.inputs, ws.inputs[[7, 0, 21, 3]])
    assert_array_equal(sub.targets, ws.targets[[7, 0, 21, 3]])


@pytest.mark.parametrize("horizon_step", [0, 2])
def test_make_windows_are_views_equal_to_the_row_gather(horizon_step):
    rng = np.random.default_rng(5)
    frame = SeriesFrame(rng.normal(size=(40, 3)))
    ws = make_windows(frame, 6, horizon_step)
    b = 40 - 6 - horizon_step
    row_idx = (6 - 1 - np.arange(6))[None, :] + np.arange(b)[:, None]
    assert ws.inputs.tobytes() == frame.values[row_idx].tobytes()
    assert ws.targets.tobytes() == frame.values[6 + horizon_step + np.arange(b)].tobytes()
    for arr in (ws.inputs, ws.targets):
        assert np.shares_memory(arr, frame.values)
        assert not arr.flags.writeable
    sub = ws.take(np.array([4, 0, 9]))
    assert sub.inputs.flags.c_contiguous and not np.shares_memory(sub.inputs, frame.values)
    assert sub.inputs.tobytes() == frame.values[row_idx[[4, 0, 9]]].tobytes()


def test_window_set_leaves_the_callers_arrays_writeable():
    inputs, targets = np.zeros((3, 4, 2)), np.zeros((3, 2))
    ws = WindowSet(inputs=inputs, targets=targets)
    assert inputs.flags.writeable and targets.flags.writeable
    assert not (ws.inputs.flags.writeable or ws.targets.flags.writeable)


def test_window_count_arithmetic():
    frame = SeriesFrame(np.zeros((100, 2)))
    assert make_windows(frame, 12, 2).batch == 86


def test_windowing_is_index_exact():
    rng = np.random.default_rng(0)
    values = rng.normal(size=(50, 4))
    ws = make_windows(SeriesFrame(values), history=6, horizon_step=1)
    for b in range(ws.batch):
        t = 6 + b
        for h in range(6):
            assert_array_equal(ws.inputs[b, h], values[t - 1 - h])
        assert_array_equal(ws.targets[b], values[t + 1])
        assert_array_equal(ws.anchors[b], values[t - 1])
        for h in range(5):
            assert_array_equal(ws.inputs_shifted[b, h], ws.inputs[b, h + 1])
        assert_allclose(ws.inputs_shifted[b, 5], ws.inputs[b].mean(axis=0), atol=1e-15)


def test_window_errors():
    frame = SeriesFrame(np.zeros((4, 1)))
    with pytest.raises(ValidationError):
        make_windows(frame, history=1)
    with pytest.raises(WindowError):
        make_windows(frame, history=4)
    with pytest.raises(WindowError):
        make_windows(frame, history=2, horizon_step=5)


def test_shift_with_mean_second_shift():
    rng = np.random.default_rng(1)
    window = rng.normal(size=(4, 3))
    shifted2 = shift_with_mean(window, 2)
    assert_array_equal(shifted2[:2], window[2:])
    mean = window.mean(axis=0)
    assert_allclose(shifted2[2], mean, atol=1e-15)
    assert_allclose(shifted2[3], mean, atol=1e-15)


def test_shift_with_mean_batched_matches_loop():
    rng = np.random.default_rng(2)
    windows = rng.normal(size=(7, 5, 3))
    batched = shift_with_mean(windows, 1)
    for b in range(7):
        assert_array_equal(batched[b], shift_with_mean(windows[b], 1))


def test_normalizer_zscore_train_stats():
    rng = np.random.default_rng(3)
    values = rng.normal(5.0, 3.0, size=(500, 4))
    norm = Normalizer.fit("zscore", values)
    z = norm.transform(values)
    assert_allclose(z.mean(axis=0), np.zeros(4), atol=1e-8)
    assert_allclose(z.std(axis=0), np.ones(4), atol=1e-8)
    back = norm.inverse(z)
    assert np.max(np.abs(back - values) / np.maximum(np.abs(values), 1e-12)) < 1e-10


def test_normalizer_constant_sensor_unit_std():
    values = np.column_stack([np.full(50, 7.0), np.arange(50.0)])
    norm = Normalizer.fit("zscore", values)
    assert norm.std[0] == 1.0
    assert_allclose(norm.inverse(norm.transform(values)), values, atol=1e-10)


def test_normalizer_none_mode_passthrough():
    values = np.arange(10.0).reshape(5, 2)
    norm = Normalizer.fit("none", values)
    assert norm.mean is None and norm.std is None
    assert np.shares_memory(norm.transform(values), values)
    assert np.shares_memory(norm.inverse(values), values)
    assert_array_equal(norm.transform(values), values)
    assert Normalizer.from_blob(norm.to_blob()) == Normalizer()
    with pytest.raises(ValidationError):
        Normalizer.fit("minmax", values)


def test_normalizer_zscore_is_the_plain_formula():
    x = np.random.default_rng(6).normal(3.0, 2.0, size=(40, 3))
    norm = Normalizer.fit("zscore", x[:30])
    assert_array_equal(norm.transform(x), (x - norm.mean) / norm.std)
    assert_array_equal(norm.inverse(x), x * norm.std + norm.mean)


def test_normalizer_blob_roundtrip():
    values = np.random.default_rng(5).normal(size=(30, 2))
    norm = Normalizer.fit("zscore", values)
    blob = norm.to_blob()
    assert blob == {"mode": "zscore", "mean": norm.mean.tolist(), "std": norm.std.tolist()}
    again = Normalizer.from_blob(blob)
    assert_array_equal(again.transform(values), norm.transform(values))


def test_frame_rejects_nonfinite_and_bad_shapes():
    with pytest.raises(ValidationError):
        SeriesFrame(np.array([1.0, 2.0]))
    with pytest.raises(ValidationError):
        SeriesFrame(np.array([[1.0], [np.inf]]))
    with pytest.raises(ValidationError):
        SeriesFrame(np.zeros((3, 1)), step_minutes=0.0)
