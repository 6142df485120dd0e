"""Series ingestion, chronological splitting, normalization, and windowing."""

from __future__ import annotations

import csv
import json
import math
import numbers
import os
from contextlib import contextmanager
from dataclasses import dataclass, replace
from itertools import islice

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DivergenceError, ParseError, ValidationError


def readonly(values) -> np.ndarray:
    """A read-only float64 view of values; it copies only to convert the
    dtype, and the caller's array stays writeable."""
    view = np.asarray(values, dtype=np.float64).view()
    view.flags.writeable = False
    return view


def check_count(name: str, value, low: int, high: int | None = None) -> int:
    """value as a Python int, if it is an integer (a numpy integer is one, a
    bool is not) in the closed range [low, high], or >= low when high is
    None; else a ValidationError naming the setting."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return int(_in_range(name, value, low, high))


def check_real(name: str, value, low=None, high=None, *, low_open=False, high_open=False) -> float:
    """value as a Python float, if it is a finite real number (a numpy float
    is one, a bool is not) between low and high, where a bound of None is
    absent and an open one is excluded; else a ValidationError naming the
    setting."""
    try:
        finite = not isinstance(value, bool) and isinstance(value, numbers.Real) and math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        finite = False
    if not finite:
        raise ValidationError(f"{name} must be a finite number, got {value!r}")
    return float(_in_range(name, value, low, high, low_open, high_open))


def check_shape(name: str, value, shape: tuple, finite: bool = False) -> np.ndarray:
    """value as a float64 array (copied only to convert it) if it has shape,
    where an axis named by a string is a free length >= 1 that every axis of
    that name shares: ("N", "N") is any nonempty square matrix; and, when
    finite, if every entry is finite. Else a ValidationError, the shape's
    before the finiteness one; a complex array is refused as not numbers, as
    the equal Python list is."""
    try:
        if isinstance(value, (np.ndarray, np.generic)) and np.iscomplexobj(value):
            raise TypeError("the cast would drop the imaginary part")
        array = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"{name} is not an array of numbers") from None
    sizes = {}
    # a named axis of length 0 records -1, a length no axis has, so it differs
    if array.shape != shape and (array.ndim != len(shape) or any(
        got != (sizes.setdefault(want, got or -1) if isinstance(want, str) else want)
        for got, want in zip(array.shape, shape)
    )):
        expected = ", ".join(map(str, shape)) + ("," if len(shape) == 1 else "")
        raise ValidationError(f"{name} has shape {array.shape}, expected ({expected})")
    if finite and not np.all(np.isfinite(array)):
        raise ValidationError(f"{name} has non-finite entries")
    return array


def _in_range(name: str, value, low, high, low_open=False, high_open=False):
    """value, if the bounds of check_count or check_real hold it; else their ValidationError."""
    if (low is None or low < value or low == value and not low_open) and (
        high is None or value < high or value == high and not high_open
    ):
        return value
    if high is None:
        bound = f"{'>' if low_open else '>='} {low}"
    else:
        bound = f"in {'(' if low_open else '['}{low}, {high}{')' if high_open else ']'}"
    raise ValidationError(f"{name} must be {bound}, got {value!r}")


def check_split(train_frac, val_frac) -> tuple[float, float]:
    """The split fractions as Python floats, each in (0, 1) and together below 1."""
    fracs = tuple(check_real(name, frac, 0, 1, low_open=True, high_open=True)
                  for name, frac in (("train_frac", train_frac), ("val_frac", val_frac)))
    if not sum(fracs) < 1:
        raise ValidationError("train_frac + val_frac must be < 1")
    return fracs


def seeded_rng(seed) -> np.random.Generator:
    """numpy's generator for a seed that check_count takes as an integer >= 0."""
    return np.random.default_rng(check_count("seed", seed, 0))


@dataclass(frozen=True, eq=False)
class SeriesFrame:
    """T x N observation matrix sampled at a fixed interval, stored as a
    read-only view of the values given."""

    values: np.ndarray
    step_minutes: float = 5.0

    def __post_init__(self):
        v = readonly(check_shape("series values", self.values, ("T", "N"), finite=True))
        step = check_real("step_minutes", self.step_minutes, 0, low_open=True)
        object.__setattr__(self, "step_minutes", step)
        object.__setattr__(self, "values", v)

    @property
    def num_steps(self) -> int:
        return self.values.shape[0]

    @property
    def num_sensors(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True, eq=False)
class WindowSet:
    """Supervised windows for direct step-p forecasting.

    inputs[b, h] is the observation h+1 steps before the forecast origin of
    window b (newest lag first); targets[b] is the observation the window
    forecasts. Both are read-only views of the arrays given
    (make_windows passes views of the series, so no window is copied);
    take() gathers a C-contiguous subset. The shifted windows and the
    anchors that the adjustment reads are derived from inputs on access.
    rows (make_windows sets them, take() does not) are the (B+H-1, N) series
    rows that inputs view as row_windows(rows, H), else a ValidationError.
    """

    inputs: np.ndarray   # (B, H, N)
    targets: np.ndarray  # (B, N)
    rows: np.ndarray | None = None  # (B+H-1, N)

    def __post_init__(self):
        object.__setattr__(self, "inputs", readonly(check_shape("inputs", self.inputs, ("B", "H", "N"))))
        targets = check_shape("targets", self.targets, (self.batch, self.num_sensors))
        object.__setattr__(self, "targets", readonly(targets))
        if self.rows is not None:  # the same memory, shape and strides, so the same values
            object.__setattr__(self, "rows", readonly(self.rows))
            if row_windows(self.rows, self.history).__array_interface__ != self.inputs.__array_interface__:
                raise ValidationError("inputs are not the row_windows view of rows")

    @property
    def inputs_shifted(self) -> np.ndarray:
        """inputs advanced one more step into the past, the out-of-window row
        replaced by the in-window mean: shift_with_mean(inputs, 1)."""
        return shift_with_mean(self.inputs, 1)

    @property
    def anchors(self) -> np.ndarray:
        """The newest lag of every window, inputs[:, 0]."""
        return self.inputs[:, 0]

    @property
    def batch(self) -> int:
        return self.inputs.shape[0]

    @property
    def history(self) -> int:
        return self.inputs.shape[1]

    @property
    def num_sensors(self) -> int:
        return self.inputs.shape[2]

    def take(self, indices) -> "WindowSet":
        """Row subset for an index array, gathered into C-contiguous arrays."""
        return WindowSet(inputs=self.inputs[indices], targets=self.targets[indices])


def ingest_csv(path, step_minutes: float = SeriesFrame.step_minutes,
               num_sensors: int | None = None) -> SeriesFrame:
    """Read a sensor series CSV: one header row naming columns, then a body
    of one row per step, read by _read_records. Given num_sensors, a header
    naming another number of columns is a ValidationError, raised before the
    body is read."""
    with open_text(path, newline="") as fh:
        header = next(csv.reader(fh), None)
        if header is None:
            raise ParseError(f"{path}: empty file, missing header row")
        header = [h.strip() for h in header]
        if len(header) == 0 or all(h == "" for h in header):
            raise ParseError(f"{path}: header names zero sensor columns")
        if all(_is_number(h) for h in header):
            raise ParseError(
                f"{path}: first row is numeric; expected a header row naming sensors"
            )
        n = len(header)
        if num_sensors is not None and n != num_sensors:
            raise ValidationError(f"{path}: series has {n} sensors, expected {num_sensors}")
        return SeriesFrame(values=_read_records(path, fh, n, skip=1), step_minutes=step_minutes)


def load_matrix_csv(path) -> np.ndarray:
    """A headerless CSV as a (rows, n) float64 array, n the width of its
    first row, read by _read_records as ingest_csv reads a series body."""
    with open_text(path, newline="") as fh:
        first = next(csv.reader(fh), None)
        if first == []:
            raise ParseError(f"{path}: row 0 is blank", row=0)
        fh.seek(0)
        return _read_records(path, fh, len(first or ()), skip=0)


def _read_records(path, fh, n: int, skip: int) -> np.ndarray:
    """The CSV records of fh after its first `skip`, where fh is positioned,
    as (T, n) values. A ragged row or a non-numeric cell (a blank or `#` line
    is one), or no row at all, is a ParseError with the (row, column), rows
    counted from 0 after the skipped records; rows holding NaN/Inf are a
    ValidationError naming them. A body of plain decimal numbers is parsed
    by np.loadtxt in blocks of lines; any other body, and every error, goes
    through the per-cell parser."""
    values = _read_plain_rows(fh, n)
    if values is not None:
        return values
    fh.seek(0)
    rows, nonfinite_rows = [], []
    for r, row in enumerate(islice(csv.reader(fh), skip, None)):
        if len(row) != n:
            raise ParseError(f"{path}: row {r} has {len(row)} columns, expected {n}", row=r)
        vals = np.empty(n, dtype=np.float64)
        for c, cell in enumerate(row):
            try:
                vals[c] = float(cell)
            except ValueError:
                raise ParseError(
                    f"{path}: non-numeric cell at row {r}, column {c}: {cell!r}", row=r, column=c
                ) from None
        if not np.all(np.isfinite(vals)):
            nonfinite_rows.append(r)
        rows.append(vals)
    if not rows:
        raise ParseError(f"{path}: no data rows")
    if nonfinite_rows:
        raise ValidationError(
            f"{path}: non-finite values in rows {nonfinite_rows}; clean the file before reading it"
        )
    return np.vstack(rows)


# _read_plain_rows hands np.loadtxt about this many characters of lines at a
# time, so ingest holds one block of the file's text, not all of it.
_PLAIN_BLOCK_CHARS = 1 << 22


def _read_plain_rows(fh, n: int):
    """The rest of fh as (T, n) values, parsed by np.loadtxt a block of lines
    at a time, or None unless every line is plain decimal numbers (digits,
    ".eE+-", commas, spaces, CR/LF), which np.loadtxt and float() read alike
    through PyOS_string_to_double, and np.loadtxt reads each line as one row
    of n finite values (it skips blank lines, so a block comes up short)."""
    blocks = []
    while lines := fh.readlines(_PLAIN_BLOCK_CHARS):
        text = "".join(lines)
        if text.isspace() or not text.isascii() or text.encode().translate(
            None, b"0123456789.eE+-, \r\n"
        ):
            return None
        try:
            block = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2, dtype=np.float64)
        except ValueError:
            return None
        if block.shape != (len(lines), n) or not np.all(np.isfinite(block)):
            return None
        blocks.append(block)
    return np.vstack(blocks) if blocks else None


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def write_float_rows(path, rows, header=None) -> None:
    """Write a CSV of float rows, lossless (repr), after an optional header row."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        if header is not None:
            fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(repr, np.asarray(row, dtype=np.float64).tolist())) + "\n")


def save_series_csv(frame: SeriesFrame, path) -> None:
    """Write a frame with a sensor_0..sensor_{N-1} header. Lossless round-trip."""
    write_float_rows(path, frame.values, [f"sensor_{i}" for i in range(frame.num_sensors)])


def write_json(path, obj, indent=None) -> None:
    """Atomic write (temp file then rename) of JSON-native values as strict
    JSON, keys sorted, newline-terminated, into a directory made if missing.
    A number that is not finite is a DivergenceError naming path, and no file
    or directory: the text is encoded before either is made."""
    try:
        text = json.dumps(obj, sort_keys=True, indent=indent, allow_nan=False) + "\n"
    except ValueError:
        raise DivergenceError(f"{path}: a number to write is not finite") from None
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


@contextmanager
def open_text(path, newline=None):
    """A UTF-8 text file opened for reading (newline as for open()); bytes
    read from it that are not UTF-8 raise a ParseError naming the path."""
    with open(path, encoding="utf-8", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text: {exc}") from None


def read_json(path):
    """Parse a JSON file; malformed JSON is a ParseError naming the path."""
    with open_text(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: malformed JSON: {exc}") from None


def _only_numbers(values: list) -> bool:
    """Whether a nested list holds numbers, and no booleans, at every depth."""
    types = set(map(type, values))
    if list in types:
        return types == {list} and all(map(_only_numbers, values))
    return all(issubclass(t, (int, float)) and t is not bool for t in types)


def blob_field(blob: dict, name: str, kind: type, what: str = "checkpoint"):
    """blob[name] if it holds a JSON value of type `kind` (a list comes back
    as a float64 array, and a float field also takes an integer); a boolean
    is no number, at any depth of a list, and a number or list must be
    finite. Else a ValidationError naming the field."""
    value = blob.get(name)
    try:
        if isinstance(value, (int, float) if kind is float else kind) and not isinstance(value, bool):
            if kind is list:
                if _only_numbers(value):
                    value = np.asarray(value, dtype=np.float64)
                    if np.all(np.isfinite(value)):
                        return value
            elif kind is not float or math.isfinite(value):
                return value
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValidationError(f"{what} field {name!r} is missing or not a valid {kind.__name__}")


def chronological_split(
    frame: SeriesFrame, train_frac: float, val_frac: float
) -> tuple[SeriesFrame, SeriesFrame, SeriesFrame]:
    """Contiguous, order-preserving train/val/test segments covering all rows,
    as read-only views of the frame's values; the fractions follow check_split."""
    train_frac, val_frac = check_split(train_frac, val_frac)
    t = frame.num_steps
    n_train = int(t * train_frac)
    n_val = int(t * val_frac)
    n_test = t - n_train - n_val
    if n_train == 0 or n_val == 0 or n_test == 0:
        raise ValidationError(
            f"split of T={t} with fractions ({train_frac}, {val_frac}) produces "
            f"sizes ({n_train}, {n_val}, {n_test}); every segment must be nonempty"
        )
    parts = (
        frame.values[:n_train],
        frame.values[n_train : n_train + n_val],
        frame.values[n_train + n_val :],
    )
    return tuple(replace(frame, values=p) for p in parts)


def shift_with_mean(windows: np.ndarray, shift: int = 1) -> np.ndarray:
    """Advance window rows `shift` steps further into the past.

    Rows that would fall outside the window are replaced by the mean of the
    in-window rows. Accepts a single (H, N) window or a batch (..., H, N).
    """
    w = np.asarray(windows, dtype=np.float64)
    if w.ndim < 2:
        raise ValidationError("windows must have at least two dimensions (H, N)")
    h = w.shape[-2]
    shift = check_count("shift", shift, 1)
    keep = max(h - shift, 0)
    out = np.empty(w.shape)
    out[..., :keep, :] = w[..., shift:, :]
    # np.mean's own reduce and divide, without its Python wrapper: bit-equal
    out[..., keep:, :] = w.sum(axis=-2, keepdims=True) / h
    return out


def make_windows(frame: SeriesFrame, history: int, horizon_step: int = 0) -> WindowSet:
    """Build all supervised windows for direct step-p forecasting.

    B = T - H - p windows; window b forecasts row H + b + p from the H rows
    preceding row H + b. Inputs, targets and rows are read-only views of the
    frame's values (inputs are row_windows of rows), not copies.
    """
    history = check_count("history", history, 2)  # the shifted window needs one more lag
    horizon_step = check_count("horizon_step", horizon_step, 0)
    t = frame.num_steps
    b = t - history - horizon_step
    if b < 1:
        raise ValidationError(
            f"series of T={t} too short for history={history}, "
            f"horizon_step={horizon_step} (need T >= {history + horizon_step + 1})"
        )
    rows = frame.values[: b + history - 1]
    return WindowSet(row_windows(rows, history), frame.values[history + horizon_step :], rows)


def row_windows(rows: np.ndarray, history: int) -> np.ndarray:
    """Read-only (M-H+1, H, N) view of an (M, N) block: windows[b, h] = rows[H - 1 + b - h]."""
    return sliding_window_view(rows, history, axis=0).transpose(0, 2, 1)[:, ::-1]


@dataclass(frozen=True, eq=False)
class Normalizer:
    """Per-sensor z-score transform (x - mean) / std, or the identity when
    mean and std are None; the identity returns its input, not a copy. Else
    both are finite 1-D arrays of one length >= 1, std > 0, held read-only, and
    transform and inverse take values whose last axis has that length."""

    mean: np.ndarray | None = None
    std: np.ndarray | None = None

    def __post_init__(self):
        if (self.mean is None) != (self.std is None):
            raise ValidationError("normalizer fields 'mean' and 'std' are given both or neither")
        if self.mean is not None:
            mean = check_shape("normalizer field 'mean'", self.mean, ("N",), finite=True)
            std = check_shape("normalizer field 'std'", self.std, mean.shape, finite=True)
            object.__setattr__(self, "mean", readonly(mean))
            object.__setattr__(self, "std", readonly(std))
            if not np.all(self.std > 0):
                raise ValidationError("normalizer field 'std' must be > 0 for every sensor")

    @classmethod
    def fit(cls, mode: str, values) -> "Normalizer":
        """The identity for mode "none"; for "zscore", the per-sensor mean and
        standard deviation of values (the training split), with unit std for
        constant sensors so the transform stays invertible."""
        if mode == "none":
            return cls()
        if mode != "zscore":
            raise ValidationError(f"unknown normalizer mode {mode!r}")
        v = check_shape("values", values, ("T", "N"))
        std = v.std(axis=0)
        std[std <= 1e-12] = 1.0
        return cls(v.mean(axis=0), std)

    def transform(self, values: np.ndarray) -> np.ndarray:
        if self.mean is None:
            return values
        return (check_shape("values", values, np.shape(values)[:-1] + self.mean.shape) - self.mean) / self.std

    def inverse(self, values: np.ndarray) -> np.ndarray:
        if self.mean is None:
            return values
        return check_shape("values", values, np.shape(values)[:-1] + self.std.shape) * self.std + self.mean

    def to_blob(self) -> dict:
        if self.mean is None:
            return {"mode": "none"}
        return {"mode": "zscore", "mean": self.mean.tolist(), "std": self.std.tolist()}

    @classmethod
    def from_blob(cls, blob: dict) -> "Normalizer":
        """Rebuild from to_blob's output; a missing or mistyped field, or a
        pair the constructor refuses, is a ValidationError naming it."""
        mode = blob_field(blob, "mode", str, "normalizer")
        if mode != "zscore":
            return cls.fit(mode, None)  # the identity, or the unknown mode's error
        return cls(*(blob_field(blob, name, list, "normalizer") for name in ("mean", "std")))
