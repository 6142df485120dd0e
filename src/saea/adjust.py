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

from dataclasses import dataclass, replace

import numpy as np

from .data import (
    WindowSet, blob_field, check_count, check_real, check_shape, row_windows, seeded_rng,
    shift_with_mean,
)
from .errors import DivergenceError, ValidationError
from .forecaster import Forecaster
from .graph import SensorGraph, StructuralMask, structural_mask

# The payload arrays of each parameterization, by name: their axes (p the VAR
# order, the leading lag axis; n the sensors; k the rank), their penalty rule
# (see regularize) and the error-model field that weights it.
_FACTORS = {"left": ("pnk", "frobenius", "alpha"), "right": ("pkn", "frobenius", "alpha")}
PAYLOAD = {
    "scalar": {"coef": ("p", "hinge", "alpha")},
    "diagonal": {"diag": ("pn", "hinge", "alpha")},
    "sparse_full": {"matrix": ("pnn", "l1", "alpha")},
    "low_rank": _FACTORS,
    "low_rank_sparse": {**_FACTORS, "sparse": ("pnn", "l1", "beta")},
    "structural": {"matrix": ("pnn", "masked_frobenius", "alpha")},
}
KINDS = tuple(PAYLOAD)

# Tuned default settings per parameterization: the penalty weights alpha
# (and beta) and the rank of the low-rank kinds, capped at the sensor count.
DEFAULT_REGULARIZATION = {
    "scalar": {"alpha": 1000.0},
    "diagonal": {"alpha": 1000.0},
    "sparse_full": {"alpha": 100.0},
    "low_rank": {"alpha": 100.0, "rank": 10},
    "low_rank_sparse": {"alpha": 10.0, "beta": 1000.0, "rank": 10},
    "structural": {"alpha": 1000.0},
}


@dataclass(eq=False)
class ErrorModel:
    """VAR(p) error coefficients in one of six parameterizations, with the
    penalty that training puts on them.

    payload maps each array name of PAYLOAD[kind] to a finite float64 array
    of its axes (zeros when no payload is given); the model holds copies of
    the arrays given, never the caller's dict or arrays. structural also
    holds a StructuralMask. alpha, beta and rank are settled here, for the
    kind, from DEFAULT_REGULARIZATION: None takes the default (rank at most
    n), and a setting the kind does not use is None whatever was given.
    """

    kind: str
    n: int
    var_order: int = 1
    rank: int | None = None
    mask: StructuralMask | None = None
    payload: dict | None = None
    alpha: float | None = None
    beta: float | None = None

    def __post_init__(self):
        kind, mask = self.kind, self.mask
        if kind not in KINDS:
            raise ValidationError(f"unknown error-model kind {kind!r}; expected {KINDS}")
        self.n = n = check_count("n", self.n, 1)
        self.var_order = var_order = check_count("var_order", self.var_order, 1)
        defaults = DEFAULT_REGULARIZATION[kind]
        for name in ("alpha", "beta", "rank"):
            value = getattr(self, name)
            if name not in defaults:
                value = None
            elif name == "rank":
                value = check_count(name, min(defaults[name], n) if value is None else value, 1, n)
            else:
                value = check_real(name, defaults[name] if value is None else value, 0)
            setattr(self, name, value)
        if (mask is None) == (kind == "structural"):
            need = "requires a" if mask is None else "takes no"
            raise ValidationError(f"{kind} error model {need} StructuralMask")
        if mask is not None and mask.graph.n != n:
            raise ValidationError(f"mask adjacency has {mask.graph.n} nodes, not n={n}")
        dims = {"p": var_order, "n": n, "k": self.rank}
        expected = {name: tuple(dims[a] for a in spec[0]) for name, spec in PAYLOAD[kind].items()}
        payload = self.payload
        if payload is None:
            payload = {name: np.zeros(shape) for name, shape in expected.items()}
        if set(payload) != set(expected):
            raise ValidationError(f"payload keys {sorted(payload)} != expected {sorted(expected)}")
        self.payload = {name: np.array(check_shape(f"payload {name!r}", payload[name], shape, finite=True))
                        for name, shape in expected.items()}

    @classmethod
    def for_training(cls, kind: str, n: int, seed: int = 0, **fields) -> "ErrorModel":
        """Zero-initialized payload, except low-rank left factors get tiny
        Gaussian noise (right factors stay zero, so the product is still zero
        and training starts exactly at the unadjusted baseline). The other
        fields go to the constructor as given."""
        em = cls(kind, n, **fields)
        rng = seeded_rng(seed)
        if "left" in em.payload:
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
            blob["adjacency"] = self.mask.graph.adjacency.tolist()
        return blob

    @classmethod
    def from_blob(cls, blob: dict) -> "ErrorModel":
        """Rebuild from to_blob's output, a structural mask from its graph; a
        missing or mistyped field is a ValidationError naming it."""
        n = blob_field(blob, "n", int, "error model")
        mask = None
        if blob.keys() & {"adjacency", "mask_order"}:
            graph = SensorGraph(blob_field(blob, "adjacency", list, "error model"))
            mask = structural_mask(graph, blob_field(blob, "mask_order", int, "error model"))
        payload = blob_field(blob, "payload", dict, "error model")
        return cls(
            blob_field(blob, "kind", str, "error model"),
            n,
            var_order=blob_field(blob, "var_order", int, "error model"),
            rank=blob_field(blob, "rank", int, "error model") if "rank" in blob else None,
            mask=mask,
            payload={k: blob_field(payload, k, list, "error model payload") for k in payload},
        )


def materialize_phi(em: ErrorModel) -> np.ndarray:
    """Dense coefficient matrices of all VAR lags, stacked (p, N, N): the lag
    maps applied to the identity, Phi_k = apply(k, I)^T."""
    apply, eye = _lag_maps(em)[0], np.eye(em.n)
    return np.stack([apply(lag, eye).T for lag in range(em.var_order)])


def regularize(em: ErrorModel) -> tuple[float, dict]:
    """The error model's penalty, each payload array's PAYLOAD rule times its
    weight, summed (so alpha = 0 keeps low_rank_sparse's beta term), and its
    subgradients over the raw payload arrays, each a fresh array that the
    training loss adds its data gradient into.

    hinge is the sum of the coefficients' magnitudes above 1, l1 that of all
    magnitudes, frobenius the sum over lags of each lag's Frobenius norm and
    masked_frobenius that of the entries outside the graph's hop support.
    """
    value, grads = 0.0, {}
    for name, (_, rule, field) in PAYLOAD[em.kind].items():
        arr, weight = em.payload[name], getattr(em, field)
        if rule == "hinge":
            term = np.sum(np.maximum(0.0, np.abs(arr) - 1.0))
            grad = np.where(np.abs(arr) > 1.0, np.sign(arr), 0.0)
        elif rule == "l1":
            term, grad = np.sum(np.abs(arr)), np.sign(arr)
        else:
            if rule == "masked_frobenius":
                arr = em.mask.mask * arr
            term, grad = 0.0, np.zeros_like(arr)
            for lag, block in enumerate(arr):
                norm = float(np.sqrt(np.sum(block * block)))
                if norm > 0.0:
                    term += norm
                    grad[lag] = block / norm
        grad *= weight
        value += weight * float(term)
        grads[name] = grad
    return value, grads


def _term(axes: str, name: str, payload: dict):
    """apply and contract (see _lag_maps) of payload array name's term of Phi_k
    by its PAYLOAD axes: p and pn scale the rows, O(MN); a left factor takes
    its right one, (rows @ R_k^T) @ L_k^T, O(MNk); a pnn matrix M gives
    (M_k @ rows^T)^T, O(MN^2), so that BLAS packs the M-row operand in blocks."""
    arr = payload[name]
    if axes in ("p", "pn"):
        summed = "ri,ri->i" if axes == "pn" else "ri,ri->"
        return (lambda k, rows: rows * arr[k]), (lambda k, u, v: {name: np.einsum(summed, u, v)})
    if axes == "pnn":
        return (lambda k, rows: (arr[k] @ rows.T).T), (lambda k, u, v: {name: u.T @ v})
    right = payload["right"]
    return (lambda k, rows: (rows @ right[k].T) @ arr[k].T), (
        lambda k, u, v: {"left": u.T @ (v @ right[k].T), "right": (u @ arr[k]).T @ v}
    )


def _lag_maps(em: ErrorModel):
    """Each lag's coefficient map and its payload gradient, through em's own
    payload: apply(k, rows) = rows @ Phi_k^T for an (M, N) block of rows, and
    contract(k, u, v) = the lag-k payload gradients of sum_r u_r^T Phi_k v_r,
    for (M, N) blocks u and v. Phi_k sums one _term per payload array, a
    left/right pair counting as one: apply adds the terms' products into the
    first one's fresh array, and contract merges their gradients.
    """
    specs = PAYLOAD[em.kind].items()
    terms = [_term(axes, name, em.payload) for name, (axes, _, _) in specs if axes != "pkn"]
    applies, contracts = zip(*terms)

    def apply(k, rows):
        product = applies[0](k, rows)
        for term in applies[1:]:
            product += term(k, rows)
        return product

    def contract(k, u, v):
        return {name: grad for term in contracts for name, grad in term(k, u, v).items()}

    return apply, contract


def _lag_products(model: Forecaster, em: ErrorModel | None, inputs: np.ndarray, rows=None):
    """Per lag k = 1..p of a (B, H, N) batch, its distinct rows through Phi_k
    once and windowed back, by reshape or, given the rows inputs view, by
    row_windows: products[k-1] = inputs @ Phi_k^T, (B, H, N), by _lag_maps,
    whose apply and contract come last. As Phi_k maps each row alone, _combine
    reads both terms from this one product. With no error model the list is
    empty. The anchor of lag k is row k-1, so p may not exceed H; each window
    must be the model's (H, N), or a size-1 axis would broadcast silently.
    """
    check_shape("windows", inputs, ("B", model.history, model.n))
    if em is None:
        return [], None, None
    if em.var_order > inputs.shape[1]:
        raise ValidationError(f"var_order {em.var_order} exceeds the window's {inputs.shape[1]} rows")
    if em.n != model.n:
        raise ValidationError(f"error model has {em.n} sensors, the forecaster {model.n}")
    apply, contract = _lag_maps(em)
    if rows is None:
        rows, window = inputs.reshape(-1, em.n), lambda product: product.reshape(inputs.shape)
    else:
        window = lambda product: row_windows(product, inputs.shape[1])
    products = [window(apply(lag, rows)) for lag in range(em.var_order)]
    return products, apply, contract


def _combine(model: Forecaster, inputs: np.ndarray, products: list):
    """Adjusted predictions and transformed windows of a (B, H, N) batch from
    its lag products: transformed = inputs - sum_k shift_with_mean(products[k-1],
    k), the shift moved onto the product (shift(x) @ Phi^T = shift(x @ Phi^T)),
    and preds = f(transformed) + sum_k products[k-1][:, k-1], the anchor terms;
    with no products, the plain forward."""
    transformed = inputs
    for k, product in enumerate(products, start=1):
        transformed = transformed - shift_with_mean(product, k)
    preds = model.forward_batch(transformed)
    for lag, product in enumerate(products):
        preds = preds + product[:, lag]
    return preds, transformed


def _adjusted_forward(model: Forecaster, em: ErrorModel | None, inputs: np.ndarray, rows=None):
    """Adjusted predictions, transformed windows and the lag maps' contract
    for a (B, H, N) batch: _combine on its _lag_products."""
    products, _, contract = _lag_products(model, em, inputs, rows)
    return (*_combine(model, inputs, products), contract)


def saea_predict(model: Forecaster, em: ErrorModel | None, window, *shifted) -> np.ndarray:
    """Adjusted one-window prediction: the batched core on a batch of one.

    prediction = sum_k Phi_k @ window[k-1] + f(transformed window), with the
    lag shifts derived from the window itself; it reduces to the plain
    forward for a zero (or absent) error model. Shifted windows passed after
    the window are accepted for older callers but never used: at most
    max(p, 1) of them, each of the model's (H, N) window shape, else a
    ValidationError.
    """
    shape = (model.history, model.n)
    limit = max(em.var_order if em is not None else 0, 1)
    if len(shifted) > limit:
        raise ValidationError(f"at most {limit} shifted windows of shape {shape} are accepted")
    for s in shifted:
        check_shape("shifted window", s, shape)
    return _adjusted_forward(model, em, check_shape("window", window, shape)[None])[0][0]


# predict_windows scores about this many values' worth of windows at a time
# (one (chunk, H, N) array), so its temporaries do not grow with the windows.
_SCORE_CHUNK_VALUES = 1 << 20


def predict_windows(model: Forecaster, em: ErrorModel | None, ws: WindowSet) -> np.ndarray:
    """Batched adjusted predictions for every window in a WindowSet, scored
    by the adjusted-forward core in chunks; a chunk of c windows with rows
    (a make_windows set) maps its c+H-1 rows, not c*H, through each Phi_k.
    The chunk is a power of two and the remainder joins the last chunk. The
    predictions equal those of the gathered windows to about 1e-16 relative,
    not bit for bit: BLAS splits c+H-1 rows into blocks otherwise."""
    limit = max(1, _SCORE_CHUNK_VALUES // (ws.history * ws.num_sensors))
    chunk = 1 << (limit.bit_length() - 1)
    count = max(1, ws.batch // chunk)
    preds = np.empty((ws.batch, ws.num_sensors))
    for i in range(count):
        lo, hi = i * chunk, ws.batch if i == count - 1 else (i + 1) * chunk
        rows = None if ws.rows is None else ws.rows[lo : hi + ws.history - 1]
        preds[lo:hi] = _adjusted_forward(model, em, ws.inputs[lo:hi], rows)[0]
    return preds


@dataclass(frozen=True, eq=False)
class LossResult:
    loss: float
    grad_theta: np.ndarray
    payload_grads: dict
    mse: float
    penalty: float


def saea_loss(model: Forecaster, em: ErrorModel | None, batch: WindowSet) -> LossResult:
    """Adjusted training loss and its analytic gradients.

    loss = mean over batch and sensors of squared residual
           (target - adjusted prediction), plus regularize's penalty with
           the error model's own weights.

    Gradients flow to theta through the base model and to the payload through
    both the anchor term and the transformed inputs. With em=None this is the
    plain mean squared error of the base model.
    """
    inputs = batch.inputs
    preds, transformed, contract = _adjusted_forward(model, em, inputs)
    resid = preds - batch.targets
    mse = float(np.mean(resid * resid))
    penalty, payload_grads = regularize(em) if em is not None else (0.0, {})
    loss = mse + penalty
    if not np.isfinite(loss):
        raise DivergenceError("non-finite loss")

    cots = (2.0 / resid.size) * resid
    grad_theta, grad_input = model.vjp_batch(transformed, cots)
    grad_flat = grad_input.reshape(-1, model.n)
    for lag in range(em.var_order if em is not None else 0):
        # add the anchor path d(anchor @ Phi^T), minus the input path through f
        anchor = contract(lag, cots, inputs[:, lag])
        through_f = contract(lag, grad_flat, shift_with_mean(inputs, lag + 1).reshape(-1, em.n))
        for name, grad in anchor.items():
            grad -= through_f[name]
            payload_grads[name][lag] += grad
    return LossResult(loss, grad_theta, payload_grads, mse, penalty)


def companion_matrix(em: ErrorModel) -> np.ndarray:
    """Companion form of the VAR(p) coefficients, (N*p) x (N*p): the blocks
    [Phi_1 ... Phi_p] over the identity that moves each lag down one slot.
    Adding 0.0 turns every -0.0 into +0.0, so eigenvalue solves do not depend
    on how a kind's dense form signs its zeros."""
    n, p = em.n, em.var_order
    blocks = np.concatenate(materialize_phi(em), axis=1)
    return np.vstack([blocks, np.eye(n * (p - 1), n * p)]) + 0.0


def spectral_radius(em: ErrorModel) -> float:
    """Spectral radius of the VAR companion matrix (stationarity diagnostic).

    The largest eigenvalue modulus, from a dense eigenvalue solve: exact up to
    rounding, including complex or near-degenerate leading pairs.
    """
    return float(np.max(np.abs(np.linalg.eigvals(companion_matrix(em)))))
