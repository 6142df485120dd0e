"""Shared test utilities: finite differences, relative-error reduction, the
dense coefficients and coefficient chain rule the adjusted loss is checked
against, the reachability oracle structural masks are checked against and
the error names a command may report."""

import builtins

import numpy as np

from saea.graph import SensorGraph

# the classes saea.errors defines
ERROR_CLASSES = ("SaeaError", "ValidationError", "ParseError", "DivergenceError", "UndefinedMetricError")


def reported_error(name: str) -> bool:
    """Whether name may stand in a command's JSON error line: a saea.errors
    class, MemoryError or an OSError subclass."""
    known = name in ERROR_CLASSES or name == "MemoryError"
    return known or issubclass(getattr(builtins, name, object), OSError)


def central_diff(f, x, h=1e-5):
    """Central finite differences of a scalar function over a flat array."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.empty_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        grad[i] = (f(xp) - f(xm)) / (2.0 * h)
    return grad


def max_rel_err(a, b, floor=1e-6):
    """Worst entrywise |a-b| / max(|a|, |b|, floor)."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / scale)) if a.size else 0.0


def payload_fd_grads(loss_fn, em, h=1e-5):
    """Central differences of loss_fn() over every error-model payload entry."""
    grads = {}
    for name, arr in em.payload.items():
        flat = arr.ravel()
        g = np.empty_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_fn()
            flat[i] = orig - h
            down = loss_fn()
            flat[i] = orig
            g[i] = (up - down) / (2.0 * h)
        grads[name] = g.reshape(arr.shape)
    return grads


def dense_phi_oracle(em):
    """The stacked (p, N, N) coefficient matrices by each kind's hand formula:
    coef * I, diag(d), the matrix, L @ R and L @ R + S."""
    payload = em.payload
    if em.kind == "scalar":
        return payload["coef"][:, None, None] * np.eye(em.n)
    if em.kind == "diagonal":
        return np.stack([np.diag(d) for d in payload["diag"]])
    if em.kind in ("sparse_full", "structural"):
        return payload["matrix"].copy()
    product = payload["left"] @ payload["right"]
    return product + payload["sparse"] if em.kind == "low_rank_sparse" else product


def phi_to_payload_grads(em, grad_phis):
    """Chain rule from the stacked (p, N, N) dense-coefficient gradient to
    the payload gradients: the reference for the per-kind factored gradients
    of the adjusted loss."""
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


def bfs_mask_oracle(graph: SensorGraph, order: int) -> np.ndarray:
    """Reachability oracle: mask[i, j] = 1 iff hop-distance(i, j) > order, i != j.

    Deliberately independent of the matrix-power construction; used to
    cross-check structural masks.
    """
    n = graph.n
    support = graph.adjacency > 0
    neighbors = [np.nonzero(support[i])[0] for i in range(n)]
    mask = np.ones((n, n))
    for start in range(n):
        dist = {start: 0}
        frontier = [start]
        depth = 0
        while frontier and depth < order:
            depth += 1
            nxt = []
            for u in frontier:
                for v in neighbors[u]:
                    if v not in dist:
                        dist[v] = depth
                        nxt.append(v)
            frontier = nxt
        for j, d in dist.items():
            if d <= order:
                mask[start, j] = 0.0
    np.fill_diagonal(mask, 0.0)
    return mask
