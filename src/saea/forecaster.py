"""Differentiable one-step base forecasters with hand-derived VJPs.

Each model maps a (B, H, N) batch of windows of past observations (newest lag
first) to (B, N) predictions, and exposes vector-Jacobian products with
respect to both its flat parameter vector and its input windows. A single
window is a batch of one; `adjust.saea_predict` serves it. Gradients are
closed-form per model; finite-difference checks live in the test suite.

All arithmetic is float64.
"""

from __future__ import annotations

import numpy as np

from .data import blob_field, check_count, check_shape, readonly, seeded_rng
from .errors import ValidationError
from .graph import SensorGraph, normalized_adjacency


class Forecaster:
    """Contract for a deterministic differentiable map (B, H, N) -> (B, N).

    A subclass sets `kind` (its checkpoint tag) and `params`, the names of
    its parameter arrays in θ order, and implements `forward_batch` and
    `vjp_batch`; θ is those arrays raveled and concatenated. `vjp_batch`
    takes (B, N) cotangents and returns gradients only, `(grad_theta,
    grad_input)`: grad_theta summed over the batch and in `params` order,
    and grad_input per window, shape (B, H, N).
    """

    kind = "base"
    params: tuple[str, ...] = ()

    def __init__(self, history: int, n: int):
        self.history = check_count("history", history, 1)
        self.n = check_count("n", n, 1)

    # -- parameter vector -------------------------------------------------
    def get_params(self) -> np.ndarray:
        return np.concatenate([getattr(self, name).ravel() for name in self.params])

    def set_params(self, theta) -> None:
        """Replace every parameter array by a copy of its slice of theta; each
        keeps the shape of the array the model holds now."""
        arrays = [getattr(self, name) for name in self.params]
        theta = check_shape("theta", theta, (sum(arr.size for arr in arrays),))
        start = 0
        for name, arr in zip(self.params, arrays):
            setattr(self, name, theta[start : start + arr.size].reshape(arr.shape).copy())
            start += arr.size

    # -- contract operations ----------------------------------------------
    def forward_batch(self, windows: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def vjp_batch(self, windows, cotangents) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    # -- serialization ------------------------------------------------------
    def to_blob(self) -> dict:
        blob = {
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
    params = ("weights", "bias")

    def __init__(self, history: int, n: int, seed: int = 0):
        super().__init__(history, n)
        rng = seeded_rng(seed)
        scale = 1.0 / np.sqrt(history)
        self.weights = rng.uniform(-scale, scale, size=(history, n))
        self.bias = np.zeros(n)

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
    params = ("tap_self", "tap_hop", "bias")

    def __init__(self, history: int, propagation: np.ndarray, seed: int = 0):
        prop = readonly(np.array(check_shape("propagation", propagation, ("N", "N"), finite=True)))
        super().__init__(history, prop.shape[0])
        self.propagation = prop
        rng = seeded_rng(seed)
        scale = 1.0 / np.sqrt(2 * history)
        self.tap_self = rng.uniform(-scale, scale, size=history)
        self.tap_hop = rng.uniform(-scale, scale, size=history)
        self.bias = np.zeros(self.n)

    @classmethod
    def from_graph(cls, history: int, graph: SensorGraph, seed: int = 0) -> "GraphFilterAR":
        return cls(history, normalized_adjacency(graph), seed=seed)

    def forward_batch(self, windows):
        # linear in the window: mix the lags first, then propagate once per
        # window, as (P @ mixed^T)^T so BLAS packs the B-row operand in blocks
        own = np.einsum("h,bhn->bn", self.tap_self, windows)
        mixed = np.einsum("h,bhn->bn", self.tap_hop, windows)
        return own + (self.propagation @ mixed.T).T + self.bias

    def vjp_batch(self, windows, cotangents):
        back_hopped = cotangents @ self.propagation  # rows are prop^T @ cotangent
        grad_self = np.einsum("bhn,bn->h", windows, cotangents)
        grad_hop = np.einsum("bhn,bn->h", windows, back_hopped)
        grad_b = cotangents.sum(axis=0)
        # one lag at a time: the (B, N) temporaries stay in cache, where the
        # broadcast (B, H, N) form's three would not
        grad_input = np.empty(windows.shape)
        for h in range(self.history):
            grad_input[:, h] = self.tap_self[h] * cotangents + self.tap_hop[h] * back_hopped
        return np.concatenate([grad_self, grad_hop, grad_b]), grad_input

    def _extra_blob(self) -> dict:
        return {"propagation": self.propagation.tolist()}


class MLP1(Forecaster):
    """One-hidden-layer tanh network over the flattened window."""

    kind = "mlp1"
    params = ("w1", "b1", "w2", "b2")
    hidden = 64  # the default width; each model stores its own

    def __init__(self, history: int, n: int, hidden: int = hidden, seed: int = 0):
        super().__init__(history, n)
        self.hidden = hidden = check_count("hidden", hidden, 1)
        d_in = self.history * self.n
        if hidden * d_in * 8 > np.iinfo(np.intp).max:  # numpy's array size limit
            raise ValidationError(f"hidden={hidden} is too large for a hidden x (H*N) layer")
        rng = seeded_rng(seed)
        s1 = 1.0 / np.sqrt(d_in)
        s2 = 1.0 / np.sqrt(hidden)
        self.w1 = rng.uniform(-s1, s1, size=(hidden, d_in))
        self.b1 = np.zeros(hidden)
        self.w2 = rng.uniform(-s2, s2, size=(n, hidden))
        self.b2 = np.zeros(n)

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
    hidden: int = MLP1.hidden,
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
    """Rebuild a model from its checkpoint blob. A missing or mistyped field
    is a ValidationError naming it, and so, before any model is built, is a
    theta whose length is not the kind's parameter count for the blob's
    sizes, counted in Python ints."""
    kind, theta = blob.get("kind"), blob_field(blob, "theta", list, "model")
    names = ("history", "n", "hidden") if kind == "mlp1" else ("history", "n")
    sizes = {name: blob_field(blob, name, int, "model") for name in names}
    history, n = sizes["history"], sizes["n"]
    if kind == "nodear":
        count, build = history * n + n, lambda: NodeAR(history, n)
    elif kind == "graphfilter":
        propagation = blob_field(blob, "propagation", list, "model")
        count, build = 2 * history + n, lambda: GraphFilterAR(history, propagation)
    elif kind == "mlp1":
        hidden = sizes["hidden"]
        count, build = hidden * (history * n + 1 + n) + n, lambda: MLP1(history, n, hidden=hidden)
    else:
        raise ValidationError(f"unknown model kind {kind!r} in checkpoint")
    if count != theta.size:
        named = ", ".join(f"model field {name!r} = {value}" for name, value in sizes.items())
        raise ValidationError(f"{named} give {count} parameters, not len(theta) = {theta.size}")
    model = build()
    if model.n != n:
        raise ValidationError(f"model field 'n' is {n}, but its propagation has size {model.n}")
    model.set_params(theta)
    return model
