"""Differentiable one-step base forecasters with hand-derived VJPs.

Each model maps an (H, N) window of past observations (newest lag first) to an
N-vector prediction, and exposes vector-Jacobian products with respect to both
its flat parameter vector and its input window. Gradients are closed-form per
model; finite-difference checks live in the test suite.

All arithmetic is float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ValidationError
from .graph import SensorGraph, normalized_adjacency

CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class VjpResult:
    value: np.ndarray       # (N,) prediction, from forward_batch
    grad_theta: np.ndarray  # (P,) cotangent^T d f / d theta, from vjp_batch
    grad_input: np.ndarray  # (H, N) cotangent^T d f / d window, from vjp_batch


class Forecaster:
    """Contract for a deterministic differentiable map (H, N) -> (N,).

    Subclasses implement the batched `forward_batch` / `vjp_batch`; the
    single-window entry points validate shapes and delegate. `vjp_batch`
    returns gradients only, `(grad_theta, grad_input)`: grad_theta summed over
    the batch and grad_input per window, shape (B, H, N). Callers that need the
    values as well already have them from `forward_batch`.
    """

    kind = "base"

    def __init__(self, history: int, n: int):
        if history < 1 or n < 1:
            raise ValidationError("history and sensor count must be >= 1")
        self.history = int(history)
        self.n = int(n)

    # -- parameter vector -------------------------------------------------
    def get_params(self) -> np.ndarray:
        raise NotImplementedError

    def set_params(self, theta: np.ndarray) -> None:
        raise NotImplementedError

    @property
    def num_params(self) -> int:
        return self.get_params().size

    # -- contract operations ----------------------------------------------
    def forward(self, window: np.ndarray) -> np.ndarray:
        w = self._check_window(window)
        return self.forward_batch(w[None])[0]

    def vjp(self, window: np.ndarray, cotangent: np.ndarray) -> VjpResult:
        w = self._check_window(window)
        c = np.asarray(cotangent, dtype=np.float64)
        if c.shape != (self.n,):
            raise ContractError(f"cotangent shape {c.shape} != ({self.n},)")
        grad_theta, grad_input = self.vjp_batch(w[None], c[None])
        return VjpResult(self.forward_batch(w[None])[0], grad_theta, grad_input[0])

    def forward_batch(self, windows: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def vjp_batch(self, windows, cotangents) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def _check_window(self, window) -> np.ndarray:
        w = np.asarray(window, dtype=np.float64)
        if w.shape != (self.history, self.n):
            raise ContractError(
                f"window shape {w.shape} != ({self.history}, {self.n})"
            )
        return w

    # -- serialization ------------------------------------------------------
    def to_blob(self) -> dict:
        blob = {
            "version": CHECKPOINT_VERSION,
            "kind": self.kind,
            "history": self.history,
            "n": self.n,
            "theta": self.get_params().tolist(),
        }
        blob.update(self._extra_blob())
        return blob

    def _extra_blob(self) -> dict:
        return {}


class NodeAR(Forecaster):
    """Independent per-sensor linear autoregression over the sensor's own lags."""

    kind = "nodear"

    def __init__(self, history: int, n: int, seed: int = 0):
        super().__init__(history, n)
        rng = np.random.default_rng(seed)
        scale = 1.0 / np.sqrt(history)
        self.weights = rng.uniform(-scale, scale, size=(history, n))
        self.bias = np.zeros(n)

    def get_params(self) -> np.ndarray:
        return np.concatenate([self.weights.ravel(), self.bias])

    def set_params(self, theta) -> None:
        theta = np.asarray(theta, dtype=np.float64)
        hn = self.history * self.n
        if theta.shape != (hn + self.n,):
            raise ContractError(f"theta length {theta.size} != {hn + self.n}")
        self.weights = theta[:hn].reshape(self.history, self.n).copy()
        self.bias = theta[hn:].copy()

    def forward_batch(self, windows):
        return np.einsum("bhn,hn->bn", windows, self.weights) + self.bias

    def vjp_batch(self, windows, cotangents):
        grad_w = np.einsum("bhn,bn->hn", windows, cotangents)
        grad_b = cotangents.sum(axis=0)
        grad_input = np.einsum("hn,bn->bhn", self.weights, cotangents)
        return np.concatenate([grad_w.ravel(), grad_b]), grad_input


class GraphFilterAR(Forecaster):
    """Linear spatiotemporal filter: per lag, an identity tap plus a one-hop tap
    over the symmetrically normalized adjacency, plus a per-sensor bias."""

    kind = "graphfilter"

    def __init__(self, history: int, propagation: np.ndarray, seed: int = 0):
        prop = np.asarray(propagation, dtype=np.float64)
        if prop.ndim != 2 or prop.shape[0] != prop.shape[1]:
            raise ValidationError("propagation matrix must be square")
        super().__init__(history, prop.shape[0])
        self.propagation = prop.copy()
        self.propagation.flags.writeable = False
        rng = np.random.default_rng(seed)
        scale = 1.0 / np.sqrt(2 * history)
        self.tap_self = rng.uniform(-scale, scale, size=history)
        self.tap_hop = rng.uniform(-scale, scale, size=history)
        self.bias = np.zeros(self.n)

    @classmethod
    def from_graph(cls, history: int, graph: SensorGraph, seed: int = 0) -> "GraphFilterAR":
        return cls(history, normalized_adjacency(graph), seed=seed)

    def get_params(self) -> np.ndarray:
        return np.concatenate([self.tap_self, self.tap_hop, self.bias])

    def set_params(self, theta) -> None:
        theta = np.asarray(theta, dtype=np.float64)
        h = self.history
        if theta.shape != (2 * h + self.n,):
            raise ContractError(f"theta length {theta.size} != {2 * h + self.n}")
        self.tap_self = theta[:h].copy()
        self.tap_hop = theta[h : 2 * h].copy()
        self.bias = theta[2 * h :].copy()

    def forward_batch(self, windows):
        # linear in the window: mix the lags first, then propagate once per window
        own = np.einsum("h,bhn->bn", self.tap_self, windows)
        mixed = np.einsum("h,bhn->bn", self.tap_hop, windows)
        return own + mixed @ self.propagation.T + self.bias

    def vjp_batch(self, windows, cotangents):
        back_hopped = cotangents @ self.propagation  # rows are prop^T @ cotangent
        grad_self = np.einsum("bhn,bn->h", windows, cotangents)
        grad_hop = np.einsum("bhn,bn->h", windows, back_hopped)
        grad_b = cotangents.sum(axis=0)
        grad_input = (
            self.tap_self[None, :, None] * cotangents[:, None, :]
            + self.tap_hop[None, :, None] * back_hopped[:, None, :]
        )
        return np.concatenate([grad_self, grad_hop, grad_b]), grad_input

    def _extra_blob(self) -> dict:
        return {"propagation": self.propagation.tolist()}


class MLP1(Forecaster):
    """One-hidden-layer tanh network over the flattened window."""

    kind = "mlp1"

    def __init__(self, history: int, n: int, hidden: int = 64, seed: int = 0):
        super().__init__(history, n)
        if hidden < 1:
            raise ValidationError("hidden width must be >= 1")
        self.hidden = int(hidden)
        rng = np.random.default_rng(seed)
        d_in = history * n
        s1 = 1.0 / np.sqrt(d_in)
        s2 = 1.0 / np.sqrt(hidden)
        self.w1 = rng.uniform(-s1, s1, size=(hidden, d_in))
        self.b1 = np.zeros(hidden)
        self.w2 = rng.uniform(-s2, s2, size=(n, hidden))
        self.b2 = np.zeros(n)

    def get_params(self) -> np.ndarray:
        return np.concatenate(
            [self.w1.ravel(), self.b1, self.w2.ravel(), self.b2]
        )

    def set_params(self, theta) -> None:
        theta = np.asarray(theta, dtype=np.float64)
        d_in = self.history * self.n
        sizes = [self.hidden * d_in, self.hidden, self.n * self.hidden, self.n]
        if theta.shape != (sum(sizes),):
            raise ContractError(f"theta length {theta.size} != {sum(sizes)}")
        parts = np.split(theta, np.cumsum(sizes)[:-1])
        self.w1 = parts[0].reshape(self.hidden, d_in).copy()
        self.b1 = parts[1].copy()
        self.w2 = parts[2].reshape(self.n, self.hidden).copy()
        self.b2 = parts[3].copy()

    def forward_batch(self, windows):
        flat = windows.reshape(windows.shape[0], -1)
        z = np.tanh(flat @ self.w1.T + self.b1)
        return z @ self.w2.T + self.b2

    def vjp_batch(self, windows, cotangents):
        b = windows.shape[0]
        flat = windows.reshape(b, -1)
        z = np.tanh(flat @ self.w1.T + self.b1)  # hidden activations the backward pass needs
        grad_w2 = cotangents.T @ z
        grad_b2 = cotangents.sum(axis=0)
        dpre = (cotangents @ self.w2) * (1.0 - z * z)
        grad_w1 = dpre.T @ flat
        grad_b1 = dpre.sum(axis=0)
        grad_input = (dpre @ self.w1).reshape(b, self.history, self.n)
        grad_theta = np.concatenate(
            [grad_w1.ravel(), grad_b1, grad_w2.ravel(), grad_b2]
        )
        return grad_theta, grad_input

    def _extra_blob(self) -> dict:
        return {"hidden": self.hidden}


MODEL_KINDS = ("nodear", "graphfilter", "mlp1")


def build_forecaster(
    kind: str,
    history: int,
    n: int,
    seed: int = 0,
    graph: SensorGraph | None = None,
    hidden: int = 64,
) -> Forecaster:
    """Construct a base model by kind tag. graphfilter requires a graph."""
    if kind == "nodear":
        return NodeAR(history, n, seed=seed)
    if kind == "graphfilter":
        if graph is None:
            raise ValidationError("graphfilter model requires an adjacency graph")
        if graph.n != n:
            raise ValidationError(f"graph has {graph.n} nodes, series has {n} sensors")
        return GraphFilterAR.from_graph(history, graph, seed=seed)
    if kind == "mlp1":
        return MLP1(history, n, hidden=hidden, seed=seed)
    raise ValidationError(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")


def forecaster_from_blob(blob: dict) -> Forecaster:
    """Rebuild a model from its checkpoint blob."""
    if "version" not in blob:
        raise ValidationError("model checkpoint missing mandatory version field")
    kind = blob.get("kind")
    history, n = int(blob["history"]), int(blob["n"])
    if kind == "nodear":
        model = NodeAR(history, n)
    elif kind == "graphfilter":
        model = GraphFilterAR(history, np.asarray(blob["propagation"], dtype=np.float64))
    elif kind == "mlp1":
        model = MLP1(history, n, hidden=int(blob["hidden"]))
    else:
        raise ValidationError(f"unknown model kind {kind!r} in checkpoint")
    model.set_params(np.asarray(blob["theta"], dtype=np.float64))
    return model
