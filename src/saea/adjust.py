"""Autocorrelated-error adjustment: the toolkit core.

Residuals of a base forecaster are modeled as a VAR(p) process with
coefficient matrices learned jointly with the forecaster. At training time
the loss couples the coefficient matrices into both the target side (the
anchor term) and the model's inputs (the transformed window); at inference
the prediction is the anchor correction plus the base model applied to the
transformed window.

Six coefficient parameterizations are supported:

  scalar          one shared autocorrelation coefficient per lag
  diagonal        one coefficient per sensor per lag
  sparse_full     a dense matrix per lag under an l1 penalty
  low_rank        a rank-k factorization left @ right per lag
  low_rank_sparse low-rank plus an l1-penalized sparse part per lag
  structural      a dense matrix penalized outside the graph's hop support

All gradients are closed-form; subgradients are 0 at nondifferentiable
points (l1 at zero, hinge kinks, matrix norms at the origin).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .data import WindowSet, shift_with_mean
from .errors import ConfigurationError, ContractError, DivergenceError, ValidationError
from .forecaster import Forecaster
from .graph import StructuralMask

KINDS = (
    "scalar",
    "diagonal",
    "sparse_full",
    "low_rank",
    "low_rank_sparse",
    "structural",
)

# Tuned default penalty settings per parameterization (alpha, beta, rank).
DEFAULT_REGULARIZATION = {
    "scalar": {"alpha": 1000.0},
    "diagonal": {"alpha": 1000.0},
    "sparse_full": {"alpha": 100.0},
    "low_rank": {"alpha": 100.0, "rank": 10},
    "low_rank_sparse": {"alpha": 10.0, "beta": 1000.0, "rank": 10},
    "structural": {"alpha": 1000.0},
}


@dataclass(frozen=True)
class RegularizerConfig:
    """Penalty settings: total penalty is alpha * R(payload).

    For low_rank_sparse, R internally weights the sparse part by beta/alpha,
    so the effective penalty is alpha*(|left| + |right|) + beta*l1(sparse).
    squared_structural_penalty switches the structural term from the
    Frobenius norm of the masked matrix to its square.
    """

    alpha: float
    beta: float = 0.0
    rank: int | None = None
    squared_structural_penalty: bool = False

    def __post_init__(self):
        if self.alpha < 0:
            raise ValidationError("alpha must be >= 0")
        if self.beta < 0:
            raise ValidationError("beta must be >= 0")


def default_regularizer(kind: str, **overrides) -> RegularizerConfig:
    """RegularizerConfig with the tuned defaults for a parameterization."""
    if kind not in DEFAULT_REGULARIZATION:
        raise ValidationError(f"unknown error-model kind {kind!r}")
    settings = dict(DEFAULT_REGULARIZATION[kind])
    for key, value in overrides.items():
        if value is not None:
            settings[key] = value
    return RegularizerConfig(**settings)


class ErrorModel:
    """VAR(p) error coefficients in one of six parameterizations.

    payload maps array names to float64 arrays with a leading VAR-lag axis:

      scalar:          coef  (p,)
      diagonal:        diag  (p, n)
      sparse_full:     matrix (p, n, n)
      structural:      matrix (p, n, n), plus a StructuralMask
      low_rank:        left (p, n, k), right (p, k, n)
      low_rank_sparse: left, right, sparse (p, n, n)
    """

    def __init__(
        self,
        kind: str,
        n: int,
        var_order: int = 1,
        rank: int | None = None,
        mask: StructuralMask | None = None,
        payload: dict | None = None,
    ):
        if kind not in KINDS:
            raise ValidationError(f"unknown error-model kind {kind!r}; expected {KINDS}")
        if var_order not in (1, 2):
            raise ValidationError("var_order must be 1 or 2")
        if n < 1:
            raise ValidationError("sensor count must be >= 1")
        if kind in ("low_rank", "low_rank_sparse"):
            if rank is None:
                raise ConfigurationError(f"{kind} requires a rank")
            if not 1 <= rank <= n:
                raise ConfigurationError(f"rank must be in [1, {n}], got {rank}")
        if mask is not None and mask.mask.shape != (n, n):
            raise ConfigurationError(
                f"mask shape {mask.mask.shape} does not match n={n}"
            )
        self.kind = kind
        self.n = n
        self.var_order = var_order
        self.rank = rank
        self.mask = mask
        self.payload = payload if payload is not None else self._zero_payload()
        self._check_payload()

    def _zero_payload(self) -> dict:
        p, n = self.var_order, self.n
        if self.kind == "scalar":
            return {"coef": np.zeros(p)}
        if self.kind == "diagonal":
            return {"diag": np.zeros((p, n))}
        if self.kind in ("sparse_full", "structural"):
            return {"matrix": np.zeros((p, n, n))}
        if self.kind == "low_rank":
            return {"left": np.zeros((p, n, self.rank)), "right": np.zeros((p, self.rank, n))}
        return {
            "left": np.zeros((p, n, self.rank)),
            "right": np.zeros((p, self.rank, n)),
            "sparse": np.zeros((p, n, n)),
        }

    def _check_payload(self):
        expected = {name: arr.shape for name, arr in self._zero_payload().items()}
        if set(self.payload) != set(expected):
            raise ConfigurationError(
                f"payload keys {sorted(self.payload)} != expected {sorted(expected)}"
            )
        for name, shape in expected.items():
            arr = np.asarray(self.payload[name], dtype=np.float64)
            if arr.shape != shape:
                raise ConfigurationError(
                    f"payload {name!r} has shape {arr.shape}, expected {shape}"
                )
            self.payload[name] = arr

    @classmethod
    def zeros(
        cls,
        kind: str,
        n: int,
        var_order: int = 1,
        rank: int | None = None,
        mask: StructuralMask | None = None,
    ) -> "ErrorModel":
        return cls(kind, n, var_order=var_order, rank=rank, mask=mask)

    @classmethod
    def for_training(
        cls,
        kind: str,
        n: int,
        var_order: int = 1,
        rank: int | None = None,
        mask: StructuralMask | None = None,
        seed: int = 0,
    ) -> "ErrorModel":
        """Zero-initialized payload, except low-rank left factors get tiny
        Gaussian noise (right factors stay zero, so the product is still zero
        and training starts exactly at the unadjusted baseline)."""
        em = cls.zeros(kind, n, var_order=var_order, rank=rank, mask=mask)
        if kind in ("low_rank", "low_rank_sparse"):
            rng = np.random.default_rng(seed)
            em.payload["left"] = rng.normal(0.0, 1e-3, size=em.payload["left"].shape)
        return em

    def clone(self) -> "ErrorModel":
        return ErrorModel(
            self.kind,
            self.n,
            var_order=self.var_order,
            rank=self.rank,
            mask=self.mask,
            payload={k: v.copy() for k, v in self.payload.items()},
        )

    def is_zero(self) -> bool:
        return all(np.all(v == 0) for v in self.payload.values())

    def to_blob(self) -> dict:
        blob = {
            "kind": self.kind,
            "n": self.n,
            "var_order": self.var_order,
            "payload": {k: v.tolist() for k, v in self.payload.items()},
        }
        if self.rank is not None:
            blob["rank"] = self.rank
        if self.mask is not None:
            blob["mask_order"] = self.mask.order
            blob["mask"] = self.mask.mask.tolist()
            blob["mask_sha256"] = mask_hash(self.mask)
        return blob

    @classmethod
    def from_blob(cls, blob: dict) -> "ErrorModel":
        mask = None
        if "mask" in blob:
            mask = StructuralMask(
                order=int(blob["mask_order"]),
                mask=np.asarray(blob["mask"], dtype=np.float64),
            )
            if blob.get("mask_sha256") and mask_hash(mask) != blob["mask_sha256"]:
                raise ValidationError("checkpoint mask does not match its recorded hash")
        return cls(
            blob["kind"],
            int(blob["n"]),
            var_order=int(blob["var_order"]),
            rank=blob.get("rank"),
            mask=mask,
            payload={
                k: np.asarray(v, dtype=np.float64) for k, v in blob["payload"].items()
            },
        )


def mask_hash(mask: StructuralMask) -> str:
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(mask.mask, dtype=np.float64).tobytes())
    return digest.hexdigest()


def materialize_phi(em: ErrorModel, lag: int) -> np.ndarray:
    """Dense N x N coefficient matrix for one VAR lag."""
    if not 0 <= lag < em.var_order:
        raise ValidationError(f"lag {lag} out of range for var_order {em.var_order}")
    n = em.n
    if em.kind == "scalar":
        return em.payload["coef"][lag] * np.eye(n)
    if em.kind == "diagonal":
        return np.diag(em.payload["diag"][lag])
    if em.kind in ("sparse_full", "structural"):
        return em.payload["matrix"][lag].copy()
    product = em.payload["left"][lag] @ em.payload["right"][lag]
    if em.kind == "low_rank":
        return product
    return product + em.payload["sparse"][lag]


def _materialize_all(em: ErrorModel) -> list[np.ndarray]:
    return [materialize_phi(em, lag) for lag in range(em.var_order)]


def _frobenius_and_grad(arr: np.ndarray) -> tuple[float, np.ndarray]:
    norm = float(np.sqrt(np.sum(arr * arr)))
    if norm == 0.0:
        return 0.0, np.zeros_like(arr)
    return norm, arr / norm


def regularize(em: ErrorModel, cfg: RegularizerConfig) -> tuple[float, dict]:
    """Penalty value R and its subgradients over the raw payload arrays.

    The same per-lag term is summed across VAR lags. The returned value is R
    itself; the training loss scales it by alpha.
    """
    grads = {name: np.zeros_like(arr) for name, arr in em.payload.items()}
    value = 0.0
    if em.kind == "scalar":
        coef = em.payload["coef"]
        over = np.abs(coef) > 1.0
        value = float(np.sum(np.maximum(0.0, np.abs(coef) - 1.0)))
        grads["coef"] = np.where(over, np.sign(coef), 0.0)
    elif em.kind == "diagonal":
        diag = em.payload["diag"]
        over = np.abs(diag) > 1.0
        value = float(np.sum(np.maximum(0.0, np.abs(diag) - 1.0)))
        grads["diag"] = np.where(over, np.sign(diag), 0.0)
    elif em.kind == "sparse_full":
        matrix = em.payload["matrix"]
        value = float(np.sum(np.abs(matrix)))
        grads["matrix"] = np.sign(matrix)
    elif em.kind in ("low_rank", "low_rank_sparse"):
        for lag in range(em.var_order):
            for name in ("left", "right"):
                norm, grad = _frobenius_and_grad(em.payload[name][lag])
                value += norm
                grads[name][lag] = grad
        if em.kind == "low_rank_sparse":
            # beta/alpha weighting keeps the alpha * R total equal to
            # alpha*(|left|+|right|) + beta*l1(sparse); with alpha = 0 the
            # whole penalty term vanishes.
            ratio = cfg.beta / cfg.alpha if cfg.alpha > 0 else 0.0
            sparse = em.payload["sparse"]
            value += ratio * float(np.sum(np.abs(sparse)))
            grads["sparse"] = ratio * np.sign(sparse)
    elif em.kind == "structural":
        if em.mask is None:
            raise ConfigurationError("structural error model requires a StructuralMask")
        m = em.mask.mask
        for lag in range(em.var_order):
            masked = m * em.payload["matrix"][lag]
            if cfg.squared_structural_penalty:
                value += float(np.sum(masked * masked))
                grads["matrix"][lag] = 2.0 * masked
            else:
                norm, grad = _frobenius_and_grad(masked)
                value += norm
                grads["matrix"][lag] = grad
    return value, grads


def _minus_shifted(inputs: np.ndarray, shifts, phis) -> np.ndarray:
    """inputs - sum over lags of shift @ phi^T, each one 2-D BLAS product.

    Written (phi @ shift^T)^T so that BLAS packs the (B*H)-row operand in
    blocks; shift @ phi^T packs it whole into BLAS's resident buffer."""
    n = inputs.shape[-1]
    out = inputs.reshape(-1, n)
    for shift, phi in zip(shifts, phis):
        out = out - (phi @ shift.reshape(-1, n).T).T
    return out.reshape(inputs.shape)


def transform_window(
    window: np.ndarray,
    window_shifted: np.ndarray,
    em: ErrorModel | None,
    window_shifted2: np.ndarray | None = None,
) -> np.ndarray:
    """Subtract the coefficient-weighted shifted window(s) from the window.

    Row h becomes window[h] - Phi_1 @ shifted[h] (- Phi_2 @ shifted2[h] for a
    second-order error model). Accepts single (H, N) windows or batches.
    """
    w = np.asarray(window, dtype=np.float64)
    s1 = np.asarray(window_shifted, dtype=np.float64)
    if w.shape != s1.shape:
        raise ContractError(f"window shape {w.shape} != shifted shape {s1.shape}")
    if em is None:
        return w.copy()
    shifts = [s1]
    if em.var_order == 2:
        if window_shifted2 is None:
            raise ContractError("var_order 2 requires the doubly-shifted window")
        s2 = np.asarray(window_shifted2, dtype=np.float64)
        if s2.shape != w.shape:
            raise ContractError(f"shifted2 shape {s2.shape} != window shape {w.shape}")
        shifts.append(s2)
    return _minus_shifted(w, shifts, _materialize_all(em))


def saea_predict(
    model: Forecaster,
    em: ErrorModel | None,
    window: np.ndarray,
    window_shifted: np.ndarray,
    window_shifted2: np.ndarray | None = None,
) -> np.ndarray:
    """Adjusted one-window prediction: anchor correction plus base forward.

    prediction = sum_lags Phi_lag @ window[lag] + f(transformed window).
    With a zero (or absent) error model this reduces to the plain forward.
    """
    w = np.asarray(window, dtype=np.float64)
    if em is None:
        return model.forward(w)
    transformed = transform_window(w, window_shifted, em, window_shifted2)
    pred = model.forward(transformed)
    phis = _materialize_all(em)
    pred = pred + phis[0] @ w[0]
    if em.var_order == 2:
        pred = pred + phis[1] @ w[1]
    return pred


def predict_windows(model: Forecaster, em: ErrorModel | None, ws: WindowSet) -> np.ndarray:
    """Batched adjusted predictions for every window in a WindowSet."""
    if em is None:
        return model.forward_batch(ws.inputs)
    shifted2 = shift_with_mean(ws.inputs, 2) if em.var_order == 2 else None
    transformed = transform_window(ws.inputs, ws.inputs_shifted, em, shifted2)
    preds = model.forward_batch(transformed)
    phis = _materialize_all(em)
    preds = preds + ws.anchors @ phis[0].T
    if em.var_order == 2:
        preds = preds + ws.inputs[:, 1, :] @ phis[1].T
    return preds


@dataclass(frozen=True)
class LossResult:
    loss: float
    grad_theta: np.ndarray
    payload_grads: dict
    mse: float
    penalty: float


def _phi_to_payload_grads(em: ErrorModel, grad_phis: list[np.ndarray]) -> dict:
    """Chain rule from per-lag dense-coefficient gradients to payload gradients."""
    grads = {name: np.zeros_like(arr) for name, arr in em.payload.items()}
    for lag, g in enumerate(grad_phis):
        if em.kind == "scalar":
            grads["coef"][lag] = np.trace(g)
        elif em.kind == "diagonal":
            grads["diag"][lag] = np.diag(g).copy()
        elif em.kind in ("sparse_full", "structural"):
            grads["matrix"][lag] = g
        else:
            left = em.payload["left"][lag]
            right = em.payload["right"][lag]
            grads["left"][lag] = g @ right.T
            grads["right"][lag] = left.T @ g
            if em.kind == "low_rank_sparse":
                grads["sparse"][lag] = g
    return grads


def saea_loss(
    model: Forecaster,
    em: ErrorModel | None,
    cfg: RegularizerConfig,
    batch: WindowSet,
) -> LossResult:
    """Adjusted training loss and its analytic gradients.

    loss = mean over batch and sensors of squared residual
           (target - adjusted prediction), plus alpha * R(payload).

    Gradients flow to theta through the base model and to the payload through
    both the anchor term and the transformed inputs. With em=None this is the
    plain mean squared error of the base model.
    """
    if batch.batch == 0:
        raise ValidationError("loss requires a nonempty batch")
    inputs = batch.inputs
    if em is None:
        preds = model.forward_batch(inputs)
        resid = preds - batch.targets
        mse = float(np.mean(resid * resid))
        if not np.isfinite(mse):
            raise DivergenceError("non-finite loss")
        cots = (2.0 / resid.size) * resid
        grad_theta, _ = model.vjp_batch(inputs, cots)
        return LossResult(mse, grad_theta, {}, mse, 0.0)

    phis = _materialize_all(em)
    shifted = [batch.inputs_shifted]
    if em.var_order == 2:
        shifted.append(shift_with_mean(inputs, 2))
    anchors = [batch.anchors]
    if em.var_order == 2:
        anchors.append(inputs[:, 1, :])

    transformed = _minus_shifted(inputs, shifted, phis)
    preds = model.forward_batch(transformed)
    for phi, anchor in zip(phis, anchors):
        preds = preds + anchor @ phi.T

    resid = preds - batch.targets
    mse = float(np.mean(resid * resid))
    reg_value, reg_grads = regularize(em, cfg)
    penalty = cfg.alpha * reg_value
    loss = mse + penalty
    if not np.isfinite(loss):
        raise DivergenceError("non-finite loss")

    cots = (2.0 / resid.size) * resid
    grad_theta, grad_input = model.vjp_batch(transformed, cots)

    grad_flat = grad_input.reshape(-1, em.n)
    grad_phis = []
    for anchor, shift in zip(anchors, shifted):
        # anchor path: d(anchor @ phi^T)/d phi, plus input path through f
        g = cots.T @ anchor
        g -= grad_flat.T @ shift.reshape(-1, em.n)
        grad_phis.append(g)

    payload_grads = _phi_to_payload_grads(em, grad_phis)
    for name, grad in reg_grads.items():
        payload_grads[name] = payload_grads[name] + cfg.alpha * grad
    return LossResult(loss, grad_theta, payload_grads, mse, penalty)


def companion_matrix(em: ErrorModel) -> np.ndarray:
    """Companion form of the VAR coefficients (N x N for order 1, 2N x 2N for 2)."""
    phis = _materialize_all(em)
    if em.var_order == 1:
        return phis[0]
    n = em.n
    top = np.hstack(phis)
    bottom = np.hstack([np.eye(n), np.zeros((n, n))])
    return np.vstack([top, bottom])


def power_iteration_radius(
    matrix: np.ndarray,
    tol: float = 1e-8,
    max_iter: int = 10000,
    seed: int = 0,
) -> tuple[float, bool]:
    """Largest |eigenvalue| estimate via normalized power iteration.

    The per-step growth rate is the primary estimate. When it keeps
    oscillating (a complex dominant pair), the cumulative geometric growth
    rate is returned instead, flagged as unconverged.
    """
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError("spectral radius requires a square matrix")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(a.shape[0])
    x /= np.linalg.norm(x)
    log_growth = 0.0
    prev = None
    for _ in range(max_iter):
        y = a @ x
        growth = float(np.linalg.norm(y))
        if growth == 0.0:
            return 0.0, True
        log_growth += np.log(growth)
        x = y / growth
        if prev is not None and abs(growth - prev) <= tol * max(1.0, growth):
            return growth, True
        prev = growth
    return float(np.exp(log_growth / max_iter)), False


def spectral_radius(em: ErrorModel, with_flag: bool = False):
    """Spectral radius of the VAR companion matrix (stationarity diagnostic).

    With with_flag=True returns (estimate, converged); a non-converged power
    iteration still yields a usable geometric-growth estimate.
    """
    estimate, converged = power_iteration_radius(companion_matrix(em))
    if with_flag:
        return estimate, converged
    return estimate
