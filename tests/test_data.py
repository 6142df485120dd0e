import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from saea.data import (
    Normalizer,
    SeriesFrame,
    chronological_split,
    ingest_csv,
    make_windows,
    save_series_csv,
    shift_with_mean,
)
from saea.errors import ParseError, SplitError, ValidationError, WindowError


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
    norm = Normalizer("zscore").fit(values)
    z = norm.transform(values)
    assert_allclose(z.mean(axis=0), np.zeros(4), atol=1e-8)
    assert_allclose(z.std(axis=0), np.ones(4), atol=1e-8)
    back = norm.inverse(z)
    assert np.max(np.abs(back - values) / np.maximum(np.abs(values), 1e-12)) < 1e-10


def test_normalizer_constant_sensor_unit_std():
    values = np.column_stack([np.full(50, 7.0), np.arange(50.0)])
    norm = Normalizer("zscore").fit(values)
    assert norm.std_[0] == 1.0
    assert_allclose(norm.inverse(norm.transform(values)), values, atol=1e-10)


def test_normalizer_none_mode_passthrough():
    values = np.arange(10.0).reshape(5, 2)
    norm = Normalizer("none")
    assert_array_equal(norm.transform(values), values)
    with pytest.raises(ValidationError):
        Normalizer("minmax")


def test_normalizer_blob_roundtrip():
    values = np.random.default_rng(5).normal(size=(30, 2))
    norm = Normalizer("zscore").fit(values)
    again = Normalizer.from_blob(norm.to_blob())
    assert_allclose(again.transform(values), norm.transform(values), atol=1e-15)


def test_frame_rejects_nonfinite_and_bad_shapes():
    with pytest.raises(ValidationError):
        SeriesFrame(np.array([1.0, 2.0]))
    with pytest.raises(ValidationError):
        SeriesFrame(np.array([[1.0], [np.inf]]))
    with pytest.raises(ValidationError):
        SeriesFrame(np.zeros((3, 1)), step_minutes=0.0)
