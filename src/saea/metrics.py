"""Forecast accuracy metrics and residual-correlation diagnostics."""

from __future__ import annotations

import numpy as np

from .data import check_count, check_shape
from .errors import UndefinedMetricError, ValidationError

MASK_THRESHOLD = 1e-6
_BLOCK_VALUES = 1 << 16


def _pair(y_true, y_pred) -> tuple[np.ndarray, np.ndarray]:
    yt = np.asarray(y_true, dtype=np.float64)
    return yt, check_shape("predictions", y_pred, yt.shape)


def _row_blocks(a: np.ndarray):
    """Slices of a's leading axis of about _BLOCK_VALUES values each."""
    step = max(1, _BLOCK_VALUES // max(1, a[:1].size))
    return (slice(lo, lo + step) for lo in range(0, a.shape[0], step))


def mape(y_true, y_pred) -> tuple[float, int]:
    """Mean absolute percentage error over entries with |truth| > MASK_THRESHOLD.

    Returns (percent, masked_count). Raises if every entry is masked.
    """
    yt, yp = np.atleast_1d(*_pair(y_true, y_pred))
    keep = (yt > MASK_THRESHOLD) | (yt < -MASK_THRESHOLD)  # |yt| > threshold, with no |yt| array
    kept = int(np.count_nonzero(keep))
    if not kept:
        raise UndefinedMetricError("MAPE undefined: every entry is below the mask threshold")
    ratios, end = np.empty(kept), 0  # filled block by block in yt[keep]'s order, for one mean
    for rows in _row_blocks(yt):
        truth = yt[rows][keep[rows]]
        out = ratios[end : end + truth.size]
        np.abs(np.subtract(truth, yp[rows][keep[rows]], out=out), out=out)
        out /= np.abs(truth, out=truth)
        end += truth.size
    return float(np.mean(ratios)) * 100.0, yt.size - kept


def rmse(y_true, y_pred) -> float:
    """Root mean squared entrywise error, in the units of the inputs."""
    yt, yp = _pair(y_true, y_pred)
    if yt.size == 0:
        raise UndefinedMetricError("RMSE undefined on empty input")
    diff = yt - yp
    diff *= diff
    return float(np.sqrt(np.mean(diff)))


def accuracy(y_true, y_pred) -> dict:
    """The accuracy block every scored output reports: MAPE with its masked
    entry count, and RMSE."""
    pct, masked = mape(y_true, y_pred)
    return {"mape_percent": pct, "mape_masked_count": masked, "rmse": rmse(y_true, y_pred)}


def ecm(residuals, orientation: str = "spatial") -> np.ndarray:
    """Residual correlation matrix.

    For residuals E of shape (T, N): spatial gives E^T E / T (sensor by
    sensor); temporal gives E E^T / N (step by step). No mean removal.
    """
    e = check_shape("residuals", residuals, ("T", "N"))
    if e.shape[0] < 2:
        raise ValidationError("need at least two residual rows")
    if orientation == "spatial":
        return e.T @ e / e.shape[0]
    if orientation == "temporal":
        return e @ e.T / e.shape[1]
    raise ValidationError(f"unknown orientation {orientation!r}")


def acf(series, max_lag: int) -> tuple[np.ndarray, float]:
    """Sample autocorrelation of one 1-D series, with the 2/sqrt(T) band.

    Mean-removed, normalized to 1 at lag 0; returns (values of length
    max_lag + 1, band). Undefined for constant series.
    """
    x = check_shape("series", series, ("T",))
    t = x.size
    max_lag = check_count("max_lag", max_lag, 0, t - 1)
    centered = x - x.mean()
    denom = float(np.dot(centered, centered))
    if denom <= 0.0:
        raise UndefinedMetricError("ACF undefined for a constant series")
    values = np.empty(max_lag + 1)
    for k in range(max_lag + 1):
        values[k] = np.dot(centered[: t - k], centered[k:]) / denom
    return values, 2.0 / np.sqrt(t)


def crosslag_cov(residuals, ts: int) -> np.ndarray:
    """Cross-lag covariance of mean-removed residuals at time offset ts.

    Entry (i, j) averages residual_i at time t times residual_j at time
    t + ts. At ts = 0 this equals the spatial ECM of the mean-removed
    residuals exactly.
    """
    e = check_shape("residuals", residuals, ("T", "N"))
    return _lag_product(e - e.mean(axis=0), ts)


def _lag_product(centered: np.ndarray, ts) -> np.ndarray:
    t = centered.shape[0]
    ts = check_count("lag", ts, 0, t - 1)
    return centered[: t - ts].T @ centered[ts:] / (t - ts)


def offdiag_energy(matrix) -> float:
    """Share of a square matrix's Frobenius norm carried off the diagonal.

    0 for diagonal matrices, 1 for hollow ones; a zero matrix maps to 0.
    """
    m = check_shape("matrix", matrix, ("N", "N"))
    full = float(np.linalg.norm(m))
    if full == 0.0:
        return 0.0
    hollow = m - np.diag(np.diag(m))
    return float(np.linalg.norm(hollow)) / full


def _temporal_summary(residuals: np.ndarray, gram: np.ndarray) -> dict:
    """Summary of the step-by-step correlation matrix E E^T / N without
    materializing it: its Frobenius norm equals that of the Gram matrix
    E^T E, and its diagonal is the per-step squared norm over N."""
    t, n = residuals.shape
    full_sq = float(np.sum(gram**2)) / n**2
    blocks = (residuals[rows] for rows in _row_blocks(residuals))
    diag = np.concatenate([np.sum(b * b, axis=1) for b in blocks]) / n
    off_sq = max(full_sq - float(np.sum(diag * diag)), 0.0)
    return {
        "shape": [t, t],
        "trace_mean": float(diag.mean()),
        "offdiag_energy": float(np.sqrt(off_sq / full_sq)) if full_sq > 0 else 0.0,
    }


def residual_report(
    y_true,
    y_pred,
    max_lag: int = 20,
    ts_lags: tuple[int, ...] = (1,),
) -> dict:
    """JSON-ready bundle of accuracy metrics and correlation diagnostics.

    Residual rows are prediction errors per time step; per-sensor ACF entries
    are null for constant residual columns.
    """
    yt, yp = _pair(y_true, y_pred)
    t, n = check_shape("residuals", yt, ("T", "N")).shape
    if t < 2:
        raise ValidationError("need at least two residual rows")
    residuals = yt - yp
    gram = residuals.T @ residuals
    spatial = gram / t
    summary = _temporal_summary(residuals, gram)
    acf_values = []
    for j in range(n):
        try:
            values, _ = acf(residuals[:, j], max_lag)
            acf_values.append([float(v) for v in values])
        except UndefinedMetricError:
            acf_values.append(None)
    residuals -= residuals.mean(axis=0)  # crosslag_cov's centring, in place once the ACFs are taken
    crosslag = {str(ts): _lag_product(residuals, ts) for ts in ts_lags}
    del residuals  # accuracy's scratch takes its place; the lists are built after it
    return {
        **accuracy(yt, yp),
        "num_steps": t,
        "num_sensors": n,
        "ecm_spatial": spatial.tolist(),
        "ecm_temporal_summary": summary,
        "ecm_spatial_offdiag_energy": offdiag_energy(spatial),
        "acf_band": float(2.0 / np.sqrt(t)),
        "acf_max_lag": int(max_lag),
        "acf": acf_values,
        "crosslag": {ts: c.tolist() for ts, c in crosslag.items()},
    }
