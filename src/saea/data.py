"""Series ingestion, chronological splitting, normalization, and windowing."""

from __future__ import annotations

import csv
import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ParseError, SplitError, ValidationError, WindowError


def readonly(values) -> np.ndarray:
    """A read-only float64 view of values; it copies only to convert the
    dtype, and the caller's array stays writeable."""
    view = np.asarray(values, dtype=np.float64).view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True)
class SeriesFrame:
    """T x N observation matrix sampled at a fixed interval, stored as a
    read-only view of the values given."""

    values: np.ndarray
    step_minutes: float = 5.0

    def __post_init__(self):
        v = readonly(self.values)
        if v.ndim != 2:
            raise ValidationError(f"series values must be 2-D (T x N), got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValidationError("series values contain non-finite entries")
        if self.step_minutes <= 0:
            raise ValidationError("step_minutes must be positive")
        object.__setattr__(self, "values", v)

    @property
    def num_steps(self) -> int:
        return self.values.shape[0]

    @property
    def num_sensors(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class WindowSet:
    """Supervised windows for direct step-p forecasting.

    inputs[b, h] is the observation h+1 steps before the forecast origin of
    window b (newest lag first); targets[b] is the observation the window
    forecasts. Both are read-only views of the arrays given
    (make_windows passes views of the series, so no window is copied);
    take() gathers a C-contiguous subset. The shifted windows and the
    anchors that the adjustment reads are derived from inputs on access.
    """

    inputs: np.ndarray   # (B, H, N)
    targets: np.ndarray  # (B, N)

    def __post_init__(self):
        for name in ("inputs", "targets"):
            object.__setattr__(self, name, readonly(getattr(self, name)))
        if self.inputs.ndim != 3 or self.targets.shape != (self.batch, self.num_sensors):
            raise ValidationError(
                f"inputs {self.inputs.shape} and targets {self.targets.shape} are not (B, H, N) and (B, N)"
            )

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


def ingest_csv(path, step_minutes: float = 5.0, num_sensors: int | None = None) -> SeriesFrame:
    """Read a sensor series CSV (one header row naming columns, one row per step).

    Raises ParseError with the offending (row, column) for ragged rows or
    non-numeric cells; rows are indexed from 0 over the data body. Rows that
    parse but contain NaN/Inf are rejected with their indices reported.
    Given num_sensors, a header naming another number of columns is a
    ValidationError, raised before the body is read.
    A body of plain decimal numbers is parsed by np.loadtxt in blocks of
    lines; any other body, and every error, goes through the per-cell parser.
    """
    with open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file, missing header row") from None
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
        values = _read_plain_rows(fh, n)
        if values is not None:
            return SeriesFrame(values=values, step_minutes=step_minutes)
        fh.seek(0)
        next(reader)
        rows = []
        nonfinite_rows = []
        for r, row in enumerate(reader):
            if len(row) != n:
                raise ParseError(
                    f"{path}: row {r} has {len(row)} columns, expected {n}", row=r
                )
            vals = np.empty(n, dtype=np.float64)
            for c, cell in enumerate(row):
                try:
                    vals[c] = float(cell)
                except ValueError:
                    raise ParseError(
                        f"{path}: non-numeric cell at row {r}, column {c}: {cell!r}",
                        row=r,
                        column=c,
                    ) from None
            if not np.all(np.isfinite(vals)):
                nonfinite_rows.append(r)
            rows.append(vals)
    if not rows:
        raise ParseError(f"{path}: no data rows")
    if nonfinite_rows:
        raise ValidationError(
            f"{path}: non-finite values in rows {nonfinite_rows}; "
            "clean the series before ingestion"
        )
    return SeriesFrame(values=np.vstack(rows), step_minutes=step_minutes)


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
    with open(path, "w", encoding="utf-8") as fh:
        if header is not None:
            fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(repr, np.asarray(row, dtype=np.float64).tolist())) + "\n")


def save_series_csv(frame: SeriesFrame, path) -> None:
    """Write a frame with a sensor_0..sensor_{N-1} header. Lossless round-trip."""
    write_float_rows(path, frame.values, [f"sensor_{i}" for i in range(frame.num_sensors)])


def write_json(path, obj, indent=None, allow_nan=True) -> None:
    """Atomic write (temp file then rename) of JSON-native values, keys
    sorted, newline-terminated. Encoded before any file is opened, so with
    allow_nan=False a non-finite float is json's ValueError and no file."""
    text = json.dumps(obj, sort_keys=True, indent=indent, allow_nan=allow_nan) + "\n"
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
    as read-only views of the frame's values."""
    # written so that a NaN fraction fails them
    if not (train_frac > 0 and val_frac > 0):
        raise ValidationError(f"split fractions must be positive, got ({train_frac}, {val_frac})")
    if not train_frac + val_frac < 1:
        raise ValidationError("train_frac + val_frac must be < 1")
    t = frame.num_steps
    n_train = int(t * train_frac)
    n_val = int(t * val_frac)
    n_test = t - n_train - n_val
    if n_train == 0 or n_val == 0 or n_test == 0:
        raise SplitError(
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
    if shift < 1:
        raise ValidationError("shift must be >= 1")
    keep = max(h - shift, 0)
    out = np.empty(w.shape)
    out[..., :keep, :] = w[..., shift:, :]
    # np.mean's own reduce and divide, without its Python wrapper: bit-equal
    out[..., keep:, :] = w.sum(axis=-2, keepdims=True) / h
    return out


def make_windows(frame: SeriesFrame, history: int, horizon_step: int = 0) -> WindowSet:
    """Build all supervised windows for direct step-p forecasting.

    B = T - H - p windows; window b forecasts row H + b + p from the H rows
    preceding row H + b. Inputs and targets are read-only views of the
    frame's values: a strided window view and a row slice, not copies.
    """
    if history < 2:
        raise ValidationError("history must be >= 2 (the shifted window needs one more lag)")
    if horizon_step < 0:
        raise ValidationError("horizon_step must be >= 0")
    t = frame.num_steps
    b = t - history - horizon_step
    if b < 1:
        raise WindowError(
            f"series of T={t} too short for history={history}, "
            f"horizon_step={horizon_step} (need T >= {history + horizon_step + 1})"
        )
    values = frame.values
    # inputs[b, h] = values[history + b - 1 - h], newest lag first
    inputs = sliding_window_view(values, history, axis=0)[:b].transpose(0, 2, 1)[:, ::-1]
    targets = values[history + horizon_step :]
    return WindowSet(inputs=inputs, targets=targets)


@dataclass(frozen=True)
class Normalizer:
    """Per-sensor z-score transform (x - mean) / std, or the identity when
    mean and std are None; the identity returns its input, not a copy."""

    mean: np.ndarray | None = None
    std: np.ndarray | None = None

    @classmethod
    def fit(cls, mode: str, values) -> "Normalizer":
        """The identity for mode "none"; for "zscore", the per-sensor mean and
        standard deviation of values (the training split), with unit std for
        constant sensors so the transform stays invertible."""
        if mode == "none":
            return cls()
        if mode != "zscore":
            raise ValidationError(f"unknown normalizer mode {mode!r}")
        v = np.asarray(values, dtype=np.float64)
        std = v.std(axis=0)
        std[std <= 1e-12] = 1.0
        return cls(v.mean(axis=0), std)

    def transform(self, values: np.ndarray) -> np.ndarray:
        if self.mean is None:
            return values
        return (np.asarray(values, dtype=np.float64) - self.mean) / self.std

    def inverse(self, values: np.ndarray) -> np.ndarray:
        if self.mean is None:
            return values
        return np.asarray(values, dtype=np.float64) * self.std + self.mean

    def to_blob(self) -> dict:
        if self.mean is None:
            return {"mode": "none"}
        return {"mode": "zscore", "mean": self.mean.tolist(), "std": self.std.tolist()}

    @classmethod
    def from_blob(cls, blob: dict) -> "Normalizer":
        """Rebuild from to_blob's output; a missing or mistyped field, or a
        std that is not > 0 throughout, is a ValidationError naming it."""
        mode = blob_field(blob, "mode", str, "normalizer")
        if mode != "zscore":
            return cls.fit(mode, None)  # the identity, or the unknown mode's error
        mean, std = (blob_field(blob, name, list, "normalizer") for name in ("mean", "std"))
        if not np.all(std > 0):
            raise ValidationError("normalizer field 'std' must be > 0 for every sensor")
        return cls(mean, std)
