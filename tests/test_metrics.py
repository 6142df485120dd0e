import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.linalg import solve_discrete_lyapunov

from saea.data import Normalizer
from saea.errors import UndefinedMetricError, ValidationError
from saea.metrics import (
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
