import json
import re
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.linalg import solve_discrete_lyapunov

from saea.data import Normalizer
from saea.errors import UndefinedMetricError, ValidationError
from saea.metrics import (
    MASK_THRESHOLD,
    _temporal_summary,
    accuracy,
    acf,
    crosslag_cov,
    ecm,
    mape,
    offdiag_energy,
    residual_report,
    rmse,
)


def test_mape_hand_value():
    pct, masked = mape([2.0, 4.0], [1.0, 5.0])
    assert pct == pytest.approx(37.5)
    assert masked == 0
    assert accuracy([2.0, 4.0], [1.0, 5.0]) == {
        "mape_percent": pct, "mape_masked_count": 0, "rmse": rmse([2.0, 4.0], [1.0, 5.0])
    }


def test_mape_perfect_is_zero():
    pct, _ = mape([1.0, -2.0, 3.0], [1.0, -2.0, 3.0])
    assert pct == 0.0


def test_mape_masks_zero_truth():
    pct, masked = mape([0.0, 2.0], [5.0, 1.0])
    assert masked == 1
    assert pct == pytest.approx(50.0)
    assert accuracy([0.0, 2.0], [5.0, 1.0]) == {
        "mape_percent": pct, "mape_masked_count": 1, "rmse": rmse([0.0, 2.0], [5.0, 1.0])
    }


def test_mape_all_masked_undefined():
    with pytest.raises(UndefinedMetricError):
        mape([0.0, 0.0], [1.0, 1.0])


def test_mape_shape_mismatch():
    with pytest.raises(ValidationError):
        mape([1.0], [1.0, 2.0])


def test_rmse_hand_values():
    assert rmse([0.0, 0.0], [0.0, 2.0]) == pytest.approx(np.sqrt(2.0))
    assert rmse([3.0, 4.0], [3.0, 4.0]) == 0.0


def test_rmse_matches_naive_loop():
    rng = np.random.default_rng(0)
    y, p = rng.normal(size=(2, 40, 3))
    total = 0.0
    for i in range(40):
        for j in range(3):
            total += (y[i, j] - p[i, j]) ** 2
    assert rmse(y, p) == pytest.approx(np.sqrt(total / 120.0), abs=1e-12)


def test_rmse_empty_undefined():
    with pytest.raises(UndefinedMetricError):
        rmse(np.empty(0), np.empty(0))


def test_ecm_identity_residuals():
    assert_allclose(ecm(np.eye(2), "spatial"), 0.5 * np.eye(2))


def test_ecm_constant_column_diagonal_entry():
    e = np.column_stack([np.full(10, 3.0), np.zeros(10)])
    spatial = ecm(e, "spatial")
    assert spatial[0, 0] == pytest.approx(9.0)


def test_ecm_orientations_and_errors():
    e = np.random.default_rng(1).normal(size=(6, 3))
    assert ecm(e, "spatial").shape == (3, 3)
    assert ecm(e, "temporal").shape == (6, 6)
    assert_allclose(ecm(e, "temporal"), e @ e.T / 3.0)
    with pytest.raises(ValidationError):
        ecm(e, "diagonal")
    with pytest.raises(ValidationError):
        ecm(e[:1], "spatial")


def test_ecm_iid_monte_carlo_near_identity():
    rng = np.random.default_rng(2)
    e = rng.standard_normal((10000, 5))
    assert np.max(np.abs(ecm(e, "spatial") - np.eye(5))) < 0.05


def test_ecm_spatial_symmetric_psd():
    rng = np.random.default_rng(3)
    e = rng.normal(size=(30, 6)) @ rng.normal(size=(6, 6))
    spatial = ecm(e, "spatial")
    assert_allclose(spatial, spatial.T, atol=1e-12)
    assert np.min(np.linalg.eigvalsh(spatial)) > -1e-8


def test_acf_lag0_is_one_and_band():
    rng = np.random.default_rng(4)
    values, band = acf(rng.normal(size=400), 10)
    assert values[0] == pytest.approx(1.0)
    assert band == pytest.approx(2.0 / np.sqrt(400))
    assert values.shape == (11,)


def test_acf_white_noise_few_exceedances():
    rng = np.random.default_rng(5)
    fractions = []
    for _ in range(50):
        values, band = acf(rng.normal(size=10000), 20)
        fractions.append(np.mean(np.abs(values[1:]) > band))
    assert np.mean(fractions) < 0.08  # nominal exceedance rate is ~4.6%


def test_acf_ar1_geometric_decay():
    rng = np.random.default_rng(6)
    t = 50000
    x = np.empty(t)
    x[0] = rng.standard_normal()
    eps = rng.standard_normal(t)
    for i in range(1, t):
        x[i] = 0.9 * x[i - 1] + eps[i]
    values, _ = acf(x, 5)
    assert_allclose(values[1:], [0.9 ** k for k in range(1, 6)], atol=0.05)


def test_acf_constant_series_undefined():
    with pytest.raises(UndefinedMetricError):
        acf(np.full(100, 2.0), 5)


def test_acf_max_lag_bounds():
    for max_lag in (10, -1, -2):
        with pytest.raises(ValidationError):
            acf(np.arange(10.0), max_lag)


def test_crosslag_zero_lag_equals_mean_removed_ecm():
    rng = np.random.default_rng(7)
    e = rng.normal(loc=3.0, size=(50, 4))
    centered = e - e.mean(axis=0)
    assert_array_equal(crosslag_cov(e, 0), ecm(centered, "spatial"))


def test_crosslag_iid_near_zero():
    rng = np.random.default_rng(8)
    e = rng.standard_normal((10000, 4))
    assert np.max(np.abs(crosslag_cov(e, 1))) < 0.05


def test_crosslag_var1_lyapunov_oracle():
    # symmetric coefficient matrix commutes with the stationary covariance,
    # so the lag-1 cross covariance equals phi @ cov
    rng = np.random.default_rng(9)
    phi = np.array([[0.5, 0.2, 0.0], [0.2, 0.4, 0.1], [0.0, 0.1, 0.3]])
    t = 60000
    eta = np.zeros((t, 3))
    for i in range(1, t):
        eta[i] = phi @ eta[i - 1] + rng.standard_normal(3)
    gamma0 = solve_discrete_lyapunov(phi, np.eye(3))
    expected = phi @ gamma0
    measured = crosslag_cov(eta, 1)
    assert np.max(np.abs(measured - expected)) < 0.05


def test_crosslag_bounds():
    e = np.zeros((5, 2))
    with pytest.raises(ValidationError):
        crosslag_cov(e, 5)


def test_offdiag_energy_values():
    assert offdiag_energy(np.diag([1.0, 2.0, 3.0])) == 0.0
    hollow = np.array([[0.0, 1.0], [2.0, 0.0]])
    assert offdiag_energy(hollow) == 1.0
    assert offdiag_energy(np.ones((2, 2))) == pytest.approx(np.sqrt(2.0) / 2.0)
    assert offdiag_energy(np.zeros((3, 3))) == 0.0
    with pytest.raises(ValidationError):
        offdiag_energy(np.ones((2, 3)))


def test_metrics_invariant_under_normalization_roundtrip():
    rng = np.random.default_rng(10)
    truth = rng.normal(50.0, 8.0, size=(200, 4))
    preds = truth + rng.normal(0.0, 2.0, size=(200, 4))
    norm = Normalizer.fit("zscore", truth)
    truth_round = norm.inverse(norm.transform(truth))
    preds_round = norm.inverse(norm.transform(preds))
    assert abs(rmse(truth, preds) - rmse(truth_round, preds_round)) < 1e-8
    assert abs(mape(truth, preds)[0] - mape(truth_round, preds_round)[0]) < 1e-8


def test_residual_report_structure():
    rng = np.random.default_rng(11)
    truth = rng.normal(10.0, 2.0, size=(60, 3))
    preds = truth + rng.normal(size=(60, 3))
    report = residual_report(truth, preds, max_lag=5, ts_lags=(1, 2))
    assert set(report) >= {
        "mape_percent",
        "rmse",
        "ecm_spatial",
        "ecm_temporal_summary",
        "acf",
        "acf_band",
        "crosslag",
        "ecm_spatial_offdiag_energy",
    }
    assert len(report["acf"]) == 3
    assert len(report["acf"][0]) == 6
    assert report["acf"][0][0] == pytest.approx(1.0)
    assert set(report["crosslag"]) == {"1", "2"}
    assert len(report["ecm_spatial"]) == 3


def test_residual_report_writes_null_acf_for_a_constant_residual_column():
    rng = np.random.default_rng(12)
    truth = rng.normal(size=(40, 3))
    preds = truth + rng.normal(size=(40, 3))
    truth[:, 2], preds[:, 2] = 3.0, 2.5  # a constant residual in column 2
    report = residual_report(truth, preds, max_lag=4)
    assert report["acf"][2] is None and len(report["acf"][0]) == 5
    assert json.loads(json.dumps(report))["acf"][2] is None


@pytest.mark.parametrize("shape", [(30, 4), (5, 12)])
def test_temporal_summary_matches_the_temporal_ecm(shape):
    e = np.random.default_rng(13).normal(size=shape)
    full = ecm(e, "temporal")
    summary = _temporal_summary(e, e.T @ e)
    assert summary["shape"] == list(full.shape)
    assert summary["trace_mean"] == pytest.approx(float(np.mean(np.diag(full))), rel=1e-12)
    assert summary["offdiag_energy"] == pytest.approx(offdiag_energy(full), rel=1e-9)
    zeros = np.zeros(shape)
    assert _temporal_summary(zeros, zeros.T @ zeros)["offdiag_energy"] == 0.0


# -- the scoring functions against their one-expression formulas -------------


def formula_accuracy(yt, yp):
    keep = np.abs(yt) > MASK_THRESHOLD
    pct = float(np.mean(np.abs(yt[keep] - yp[keep]) / np.abs(yt[keep]))) * 100.0
    diff = yt - yp
    rmse_value = float(np.sqrt(np.mean(diff * diff)))
    return {"mape_percent": pct, "mape_masked_count": int(yt.size - keep.sum()), "rmse": rmse_value}


def formula_report(yt, yp, max_lag, ts_lags):
    e = yt - yp
    t, n = e.shape
    spatial = e.T @ e / t
    acfs = []
    for j in range(n):
        column = e[:, j].copy()
        centered = column - column.mean()
        denom = float(np.dot(centered, centered))
        acfs.append(
            [float(np.dot(centered[: t - k], centered[k:]) / denom) for k in range(max_lag + 1)]
            if denom > 0.0 else None
        )
    full_sq = float(np.sum((e.T @ e) ** 2)) / n**2
    diag = np.sum(e * e, axis=1) / n
    off_sq = max(full_sq - float(np.sum(diag * diag)), 0.0)
    full = float(np.linalg.norm(spatial))
    hollow = float(np.linalg.norm(spatial - np.diag(np.diag(spatial))))
    centered = e - e.mean(axis=0)
    return {
        **formula_accuracy(yt, yp),
        "num_steps": t,
        "num_sensors": n,
        "ecm_spatial": spatial.tolist(),
        "ecm_temporal_summary": {
            "shape": [t, t],
            "trace_mean": float(diag.mean()),
            "offdiag_energy": float(np.sqrt(off_sq / full_sq)) if full_sq > 0 else 0.0,
        },
        "ecm_spatial_offdiag_energy": hollow / full if full else 0.0,
        "acf_band": float(2.0 / np.sqrt(t)),
        "acf_max_lag": max_lag,
        "acf": acfs,
        "crosslag": {str(ts): (centered[: t - ts].T @ centered[ts:] / (t - ts)).tolist() for ts in ts_lags},
    }


def scored_pair(shape, seed=14):
    """Truth with exact zeros, entries in (0, 1e-6] of either sign and a
    constant residual in its last column (when there are two or more)."""
    rng = np.random.default_rng(seed)
    truth = rng.normal(5.0, 3.0, size=shape)
    preds = truth + rng.normal(size=shape)
    truth.flat[::7] = 0.0
    tiny = truth.flat[3::11]
    truth.flat[3::11] = rng.uniform(1e-9, MASK_THRESHOLD, size=tiny.shape) * rng.choice([-1.0, 1.0], tiny.shape)
    if shape[1] > 1:
        truth[:, -1], preds[:, -1] = 3.0, 2.5
    return truth, preds


SCORED_SHAPES = [(7988, 200), (1000, 17), (3, 2), (700, 1)]


@pytest.mark.parametrize("shape", SCORED_SHAPES, ids=str)
def test_accuracy_equals_its_formulas_bit_for_bit(shape):
    truth, preds = scored_pair(shape)
    expected = formula_accuracy(truth, preds)
    assert expected["mape_masked_count"] > 0
    assert accuracy(truth, preds) == expected
    assert mape(truth, preds) == (expected["mape_percent"], expected["mape_masked_count"])
    assert rmse(truth, preds) == expected["rmse"]


@pytest.mark.parametrize("shape", SCORED_SHAPES, ids=str)
def test_residual_report_equals_its_formulas_bit_for_bit(shape):
    truth, preds = scored_pair(shape)
    max_lag = min(20, shape[0] - 1)
    ts_lags = tuple(ts for ts in (0, 1, 3) if ts < shape[0])
    report = residual_report(truth, preds, max_lag=max_lag, ts_lags=ts_lags)
    assert report == formula_report(truth, preds, max_lag, ts_lags)
    assert (report["acf"][-1] is None) == (shape[1] > 1)


def test_scoring_errors_keep_their_classes():
    zeros, ones = np.zeros((30, 3)), np.ones((30, 3))
    for score in (mape, accuracy, residual_report):
        with pytest.raises(UndefinedMetricError):
            score(zeros, ones)
    for score in (mape, rmse, accuracy, residual_report):
        for other in (np.ones((30, 1)), np.ones((29, 3))):
            refused = f"predictions has shape {other.shape}, expected (30, 3)"
            with pytest.raises(ValidationError, match=re.escape(refused)):
                score(ones, other)
    with pytest.raises(ValidationError, match="at least two residual rows"):
        residual_report(np.ones((1, 3)), np.zeros((1, 3)))
    with pytest.raises(ValidationError, match=re.escape("residuals has shape (5,), expected (T, N)")):
        residual_report(np.ones(5), np.zeros(5))
    with pytest.raises(ValidationError, match="max_lag"):  # before the all-masked MAPE
        residual_report(zeros[:5], ones[:5])


@pytest.mark.parametrize("score, bound", [(accuracy, 1.35), (residual_report, 1.5)], ids=["accuracy", "report"])
def test_scoring_holds_about_one_residual_array(score, bound):
    # road200_score's test split: 7988 windows of 200 sensors, 12.8 MB a (B, N) array
    rng = np.random.default_rng(15)
    truth = rng.normal(5.0, 3.0, size=(7988, 200))
    preds = truth + rng.normal(size=truth.shape)
    tracemalloc.start()
    try:
        score(truth, preds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / truth.nbytes <= bound
