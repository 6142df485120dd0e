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
import math
from dataclasses import dataclass, replace

import numpy as np

from .data import WindowSet, blob_field, readonly, shift_with_mean
from .errors import ConfigurationError, ContractError, DivergenceError, ValidationError
from .forecaster import Forecaster
from .graph import StructuralMask

# The payload arrays of each parameterization, by name, with their axes:
# p the VAR order (the leading lag axis), n the sensors, k the rank.
PAYLOAD_AXES = {
    "scalar": {"coef": "p"},
    "diagonal": {"diag": "pn"},
    "sparse_full": {"matrix": "pnn"},
    "low_rank": {"left": "pnk", "right": "pkn"},
    "low_rank_sparse": {"left": "pnk", "right": "pkn", "sparse": "pnn"},
    "structural": {"matrix": "pnn"},
}
KINDS = tuple(PAYLOAD_AXES)

# Tuned default penalty settings per parameterization (alpha, beta) and the
# default rank of the low-rank kinds (read by the CLI, not the regularizer).
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
    """Penalty settings: the penalty is alpha * R(payload), plus
    beta * l1(sparse) for low_rank_sparse (so alpha = 0 keeps the beta term).
    """

    alpha: float
    beta: float = 0.0

    def __post_init__(self):
        if not 0 <= self.alpha < math.inf:
            raise ValidationError(f"alpha must be finite and >= 0, got {self.alpha}")
        if not 0 <= self.beta < math.inf:
            raise ValidationError(f"beta must be finite and >= 0, got {self.beta}")


def default_regularizer(kind: str, **overrides) -> RegularizerConfig:
    """RegularizerConfig with the tuned defaults for a parameterization."""
    if kind not in DEFAULT_REGULARIZATION:
        raise ValidationError(f"unknown error-model kind {kind!r}")
    settings = dict(DEFAULT_REGULARIZATION[kind])
    settings.pop("rank", None)
    for key, value in overrides.items():
        if value is not None:
            settings[key] = value
    return RegularizerConfig(**settings)


@dataclass(eq=False)
class ErrorModel:
    """VAR(p) error coefficients in one of six parameterizations.

    payload maps each array name of PAYLOAD_AXES[kind] to a float64 array of
    those axes (zeros when no payload is given); the model holds copies of
    the arrays given, never the caller's dict or arrays. structural also
    holds a StructuralMask.
    """

    kind: str
    n: int
    var_order: int = 1
    rank: int | None = None
    mask: StructuralMask | None = None
    payload: dict | None = None

    def __post_init__(self):
        kind, n, var_order, rank, mask = self.kind, self.n, self.var_order, self.rank, self.mask
        if kind not in KINDS:
            raise ValidationError(f"unknown error-model kind {kind!r}; expected {KINDS}")
        if var_order < 1:
            raise ValidationError(f"var_order must be >= 1, got {var_order}")
        if n < 1:
            raise ValidationError("sensor count must be >= 1")
        if kind in ("low_rank", "low_rank_sparse"):
            if rank is None:
                raise ConfigurationError(f"{kind} requires a rank")
            if not 1 <= rank <= n:
                raise ConfigurationError(f"rank must be in [1, {n}], got {rank}")
        if (mask is None) == (kind == "structural"):
            need = "requires a" if mask is None else "takes no"
            raise ConfigurationError(f"{kind} error model {need} StructuralMask")
        if mask is not None and mask.mask.shape != (n, n):
            raise ConfigurationError(
                f"mask shape {mask.mask.shape} does not match n={n}"
            )
        dims = {"p": var_order, "n": n, "k": rank}
        expected = {name: tuple(dims[a] for a in axes) for name, axes in PAYLOAD_AXES[kind].items()}
        payload = self.payload
        if payload is None:
            payload = {name: np.zeros(shape) for name, shape in expected.items()}
        if set(payload) != set(expected):
            raise ConfigurationError(
                f"payload keys {sorted(payload)} != expected {sorted(expected)}"
            )
        self.payload = {name: np.array(payload[name], dtype=np.float64) for name in expected}
        for name, shape in expected.items():
            if self.payload[name].shape != shape:
                raise ConfigurationError(
                    f"payload {name!r} has shape {self.payload[name].shape}, expected {shape}"
                )

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
        em = cls(kind, n, var_order=var_order, rank=rank, mask=mask)
        if kind in ("low_rank", "low_rank_sparse"):
            rng = np.random.default_rng(seed)
            em.payload["left"] = rng.normal(0.0, 1e-3, size=em.payload["left"].shape)
        return em

    def clone(self) -> "ErrorModel":
        return replace(self)

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
        """Rebuild from to_blob's output; a missing or mistyped field is a
        ValidationError naming it."""
        mask = None
        if "mask" in blob:
            mask = StructuralMask(
                order=blob_field(blob, "mask_order", int, "error model"),
                mask=blob_field(blob, "mask", list, "error model"),
            )
            if blob.get("mask_sha256") != mask_hash(mask):
                raise ValidationError("checkpoint mask does not match its recorded mask_sha256")
        payload = blob_field(blob, "payload", dict, "error model")
        return cls(
            blob_field(blob, "kind", str, "error model"),
            blob_field(blob, "n", int, "error model"),
            var_order=blob_field(blob, "var_order", int, "error model"),
            rank=blob_field(blob, "rank", int, "error model") if "rank" in blob else None,
            mask=mask,
            payload={k: blob_field(payload, k, list, "error model payload") for k in payload},
        )


def mask_hash(mask: StructuralMask) -> str:
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(mask.mask, dtype=np.float64).tobytes())
    return digest.hexdigest()


def materialize_phi(em: ErrorModel) -> np.ndarray:
    """Dense coefficient matrices of all VAR lags, stacked (p, N, N); for the
    kinds that store them, a read-only view of the payload, not a copy."""
    payload = em.payload
    if em.kind == "scalar":
        return payload["coef"][:, None, None] * np.eye(em.n)
    if em.kind == "diagonal":
        phis = np.zeros((em.var_order, em.n, em.n))
        phis[:, np.arange(em.n), np.arange(em.n)] = payload["diag"]
        return phis
    if em.kind in ("sparse_full", "structural"):
        return readonly(payload["matrix"])
    product = payload["left"] @ payload["right"]
    if em.kind == "low_rank":
        return product
    return product + payload["sparse"]


def _frobenius_and_grad(arr: np.ndarray) -> tuple[float, np.ndarray]:
    norm = float(np.sqrt(np.sum(arr * arr)))
    if norm == 0.0:
        return 0.0, np.zeros_like(arr)
    return norm, arr / norm


def regularize(em: ErrorModel, cfg: RegularizerConfig) -> tuple[float, dict]:
    """The weighted penalty alpha * R(payload), plus beta * l1(sparse) for
    low_rank_sparse, and its subgradients over the raw payload arrays.

    The same per-lag term is summed across VAR lags. The training loss adds
    the value and the subgradients as they are.
    """
    grads = {name: np.zeros_like(arr) for name, arr in em.payload.items()}
    value = 0.0
    if em.kind in ("scalar", "diagonal"):
        # hinge on each coefficient's magnitude above 1
        name = "coef" if em.kind == "scalar" else "diag"
        coef = em.payload[name]
        value = float(np.sum(np.maximum(0.0, np.abs(coef) - 1.0)))
        grads[name] = np.where(np.abs(coef) > 1.0, np.sign(coef), 0.0)
    elif em.kind == "sparse_full":
        matrix = em.payload["matrix"]
        value = float(np.sum(np.abs(matrix)))
        grads["matrix"] = np.sign(matrix)
    else:
        # per-lag Frobenius norms: of both low-rank factors, or of the
        # structural matrix's entries outside the graph's hop support
        if em.kind == "structural":
            normed = {"matrix": em.mask.mask * em.payload["matrix"]}
        else:
            normed = {name: em.payload[name] for name in ("left", "right")}
        for lag in range(em.var_order):
            for name, arr in normed.items():
                norm, grads[name][lag] = _frobenius_and_grad(arr[lag])
                value += norm
    value, grads = cfg.alpha * value, {name: cfg.alpha * g for name, g in grads.items()}
    if em.kind == "low_rank_sparse":
        sparse = em.payload["sparse"]
        value += cfg.beta * float(np.sum(np.abs(sparse)))
        grads["sparse"] = cfg.beta * np.sign(sparse)
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


def _adjusted_forward(
    model: Forecaster, em: ErrorModel | None, inputs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, list]:
    """Adjusted predictions, transformed windows and lag shifts for a (B, H, N)
    batch. The only place shifts are formed: over the lags k = 1..p, with
    shifts[k-1] = shift_with_mean(inputs, k),

      transformed = inputs - sum_k shifts[k-1] @ Phi_k^T
      preds       = sum_k inputs[:, k-1] @ Phi_k^T + f(transformed)

    With no error model this is the plain forward on the inputs, no shifts.
    The anchor of lag k is row k-1 of the window, so p may not exceed H.
    """
    if em is None:
        return model.forward_batch(inputs), inputs, []
    if em.var_order > inputs.shape[1]:
        raise ContractError(
            f"var_order {em.var_order} exceeds the window's {inputs.shape[1]} rows"
        )
    phis = materialize_phi(em)
    shifts = [shift_with_mean(inputs, k) for k in range(1, em.var_order + 1)]
    transformed = _minus_shifted(inputs, shifts, phis)
    preds = model.forward_batch(transformed)
    for lag, phi in enumerate(phis):
        preds = preds + (phi @ inputs[:, lag].T).T
    return preds, transformed, shifts


def saea_predict(model: Forecaster, em: ErrorModel | None, window, *shifted) -> np.ndarray:
    """Adjusted one-window prediction: the batched core on a batch of one.

    prediction = sum_k Phi_k @ window[k-1] + f(transformed window), with the
    lag shifts derived from the window itself; it reduces to the plain
    forward for a zero (or absent) error model. Shifted windows passed after
    the window are accepted for older callers but never used: at most
    max(p, 1) of them, each of the window's shape, else a ContractError.
    """
    w = np.asarray(window, dtype=np.float64)
    if w.shape != (model.history, model.n):
        raise ContractError(f"window shape {w.shape} != ({model.history}, {model.n})")
    limit = max(em.var_order if em is not None else 0, 1)
    if len(shifted) > limit or any(np.shape(s) != w.shape for s in shifted):
        raise ContractError(f"at most {limit} shifted windows of shape {w.shape} are accepted")
    return _adjusted_forward(model, em, w[None])[0][0]


# predict_windows scores about this many values' worth of windows at a time
# (one (chunk, H, N) array), so its temporaries do not grow with the windows.
_SCORE_CHUNK_VALUES = 1 << 20


def predict_windows(model: Forecaster, em: ErrorModel | None, ws: WindowSet) -> np.ndarray:
    """Batched adjusted predictions for every window in a WindowSet, scored
    by the adjusted-forward core in C-contiguous chunks of windows.

    The chunk is a power of two and the remainder joins the last chunk, so
    each BLAS product splits into column blocks as the whole-set product
    does; with OpenBLAS 0.3.31 (Haswell kernels) the predictions then equal
    one whole-set call's bit for bit."""
    limit = max(1, _SCORE_CHUNK_VALUES // (ws.history * ws.num_sensors))
    chunk = 1 << (limit.bit_length() - 1)
    count = max(1, ws.batch // chunk)
    preds = np.empty((ws.batch, ws.num_sensors))
    for i in range(count):
        rows = slice(i * chunk, ws.batch if i == count - 1 else (i + 1) * chunk)
        preds[rows] = _adjusted_forward(model, em, np.ascontiguousarray(ws.inputs[rows]))[0]
    return preds


@dataclass(frozen=True)
class LossResult:
    loss: float
    grad_theta: np.ndarray
    payload_grads: dict
    mse: float
    penalty: float


def _phi_to_payload_grads(em: ErrorModel, grad_phis: np.ndarray) -> dict:
    """Chain rule from the stacked (p, N, N) dense-coefficient gradient to
    the payload gradients."""
    if em.kind == "scalar":
        return {"coef": grad_phis.trace(axis1=1, axis2=2)}
    if em.kind == "diagonal":
        return {"diag": grad_phis.diagonal(axis1=1, axis2=2).copy()}
    if em.kind in ("sparse_full", "structural"):
        return {"matrix": grad_phis}
    grads = {
        "left": grad_phis @ em.payload["right"].transpose(0, 2, 1),
        "right": em.payload["left"].transpose(0, 2, 1) @ grad_phis,
    }
    if em.kind == "low_rank_sparse":
        grads["sparse"] = grad_phis
    return grads


def saea_loss(
    model: Forecaster,
    em: ErrorModel | None,
    cfg: RegularizerConfig,
    batch: WindowSet,
) -> LossResult:
    """Adjusted training loss and its analytic gradients.

    loss = mean over batch and sensors of squared residual
           (target - adjusted prediction), plus regularize's penalty.

    Gradients flow to theta through the base model and to the payload through
    both the anchor term and the transformed inputs. With em=None this is the
    plain mean squared error of the base model.
    """
    if batch.batch == 0:
        raise ValidationError("loss requires a nonempty batch")
    inputs = batch.inputs
    preds, transformed, shifts = _adjusted_forward(model, em, inputs)
    resid = preds - batch.targets
    mse = float(np.mean(resid * resid))
    penalty, reg_grads = regularize(em, cfg) if em is not None else (0.0, {})
    loss = mse + penalty
    if not np.isfinite(loss):
        raise DivergenceError("non-finite loss")

    cots = (2.0 / resid.size) * resid
    grad_theta, grad_input = model.vjp_batch(transformed, cots)
    if em is None:
        return LossResult(loss, grad_theta, {}, mse, penalty)

    grad_flat = grad_input.reshape(-1, em.n)
    grad_phis = np.empty((em.var_order, em.n, em.n))
    for lag, shift in enumerate(shifts):
        # anchor path d(anchor @ phi^T)/d phi, minus the input path through f
        grad_phis[lag] = cots.T @ inputs[:, lag]
        grad_phis[lag] -= grad_flat.T @ shift.reshape(-1, em.n)

    payload_grads = _phi_to_payload_grads(em, grad_phis)
    for name, grad in reg_grads.items():
        payload_grads[name] = payload_grads[name] + grad
    return LossResult(loss, grad_theta, payload_grads, mse, penalty)


def companion_matrix(em: ErrorModel) -> np.ndarray:
    """Companion form of the VAR(p) coefficients, (N*p) x (N*p): the blocks
    [Phi_1 ... Phi_p] over the identity that moves each lag down one slot."""
    n, p = em.n, em.var_order
    return np.vstack([np.concatenate(materialize_phi(em), axis=1), np.eye(n * (p - 1), n * p)])


def spectral_radius(em: ErrorModel) -> float:
    """Spectral radius of the VAR companion matrix (stationarity diagnostic).

    The largest eigenvalue modulus, from a dense eigenvalue solve: exact up to
    rounding, including complex or near-degenerate leading pairs.
    """
    return float(np.max(np.abs(np.linalg.eigvals(companion_matrix(em)))))
