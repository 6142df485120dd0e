"""Forecast accuracy metrics and residual-correlation diagnostics."""

from __future__ import annotations

import numpy as np

from .data import check_count
from .errors import UndefinedMetricError, ValidationError

MASK_THRESHOLD = 1e-6


def mape(y_true, y_pred) -> tuple[float, int]:
    """Mean absolute percentage error over entries with |truth| > MASK_THRESHOLD.

    Returns (percent, masked_count). Raises if every entry is masked.
    """
    yt = np.asarray(y_true, dtype=np.float64)
    yp = np.asarray(y_pred, dtype=np.float64)
    if yt.shape != yp.shape:
        raise ValidationError(f"shape mismatch {yt.shape} vs {yp.shape}")
    keep = np.abs(yt) > MASK_THRESHOLD
    masked = int(yt.size - keep.sum())
    if not np.any(keep):
        raise UndefinedMetricError("MAPE undefined: every entry is below the mask threshold")
    pct = float(np.mean(np.abs(yt[keep] - yp[keep]) / np.abs(yt[keep]))) * 100.0
    return pct, masked


def rmse(y_true, y_pred) -> float:
    """Root mean squared entrywise error, in the units of the inputs."""
    yt = np.asarray(y_true, dtype=np.float64)
    yp = np.asarray(y_pred, dtype=np.float64)
    if yt.shape != yp.shape:
        raise ValidationError(f"shape mismatch {yt.shape} vs {yp.shape}")
    if yt.size == 0:
        raise UndefinedMetricError("RMSE undefined on empty input")
    diff = yt - yp
    return float(np.sqrt(np.mean(diff * diff)))


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
    e = np.asarray(residuals, dtype=np.float64)
    if e.ndim != 2:
        raise ValidationError("residual matrix must be 2-D (T x N)")
    t = e.shape[0]
    if t < 2:
        raise ValidationError("need at least two residual rows")
    if orientation == "spatial":
        return e.T @ e / t
    if orientation == "temporal":
        return e @ e.T / e.shape[1]
    raise ValidationError(f"unknown orientation {orientation!r}")


def acf(series, max_lag: int) -> tuple[np.ndarray, float]:
    """Sample autocorrelation of one series, with the 2/sqrt(T) band.

    Mean-removed, normalized to 1 at lag 0; returns (values of length
    max_lag + 1, band). Undefined for constant series.
    """
    x = np.asarray(series, dtype=np.float64).ravel()
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
    e = np.asarray(residuals, dtype=np.float64)
    if e.ndim != 2:
        raise ValidationError("residual matrix must be 2-D (T x N)")
    t = e.shape[0]
    ts = check_count("lag", ts, 0, t - 1)
    centered = e - e.mean(axis=0)
    return centered[: t - ts].T @ centered[ts:] / (t - ts)


def offdiag_energy(matrix) -> float:
    """Share of a square matrix's Frobenius norm carried off the diagonal.

    0 for diagonal matrices, 1 for hollow ones; a zero matrix maps to 0.
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError("offdiag_energy requires a square matrix")
    full = float(np.linalg.norm(m))
    if full == 0.0:
        return 0.0
    hollow = m - np.diag(np.diag(m))
    return float(np.linalg.norm(hollow)) / full


def _temporal_summary(residuals: np.ndarray) -> dict:
    """Summary of the step-by-step correlation matrix E E^T / N without
    materializing it: its Frobenius norm equals that of E^T E, and its
    diagonal is the per-step squared norm over N."""
    t, n = residuals.shape
    full_sq = float(np.sum((residuals.T @ residuals) ** 2)) / n**2
    diag = np.sum(residuals * residuals, axis=1) / n
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
    yt = np.asarray(y_true, dtype=np.float64)
    yp = np.asarray(y_pred, dtype=np.float64)
    residuals = yt - yp
    spatial = ecm(residuals, "spatial")
    acf_values = []
    band = 2.0 / np.sqrt(residuals.shape[0])
    for j in range(residuals.shape[1]):
        try:
            values, band = acf(residuals[:, j], max_lag)
            acf_values.append([float(v) for v in values])
        except UndefinedMetricError:
            acf_values.append(None)
    return {
        **accuracy(yt, yp),
        "num_steps": int(residuals.shape[0]),
        "num_sensors": int(residuals.shape[1]),
        "ecm_spatial": spatial.tolist(),
        "ecm_temporal_summary": _temporal_summary(residuals),
        "ecm_spatial_offdiag_energy": offdiag_energy(spatial),
        "acf_band": float(band),
        "acf_max_lag": int(max_lag),
        "acf": acf_values,
        "crosslag": {str(ts): crosslag_cov(residuals, ts).tolist() for ts in ts_lags},
    }
