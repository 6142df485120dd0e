"""Sensor-graph utilities: normalized adjacency and hop-limited structural masks.

The structural mask marks sensor pairs that are *not* reachable within a given
number of hops over the graph's edge set (the pairs of positive weight);
penalizing the masked entries of an error-coefficient matrix confines learned
error coupling to the physical network.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import readonly, write_float_rows
from .errors import ParseError, UnsupportedOrderError, ValidationError


@dataclass(frozen=True)
class SensorGraph:
    """Weighted sensor network: a dense float64 (n, n) adjacency, square,
    finite, nonnegative and without self-loops, stored as a read-only copy.

    Matrices derived from it (normalized adjacency, hop masks) are computed
    by the functions below when needed.
    """

    adjacency: np.ndarray

    def __post_init__(self):
        w = readonly(np.array(self.adjacency, dtype=np.float64))
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValidationError(f"adjacency must be square, got shape {w.shape}")
        if w.shape[0] == 0:
            raise ValidationError("adjacency must have at least one node")
        if not np.all(np.isfinite(w)):
            raise ValidationError("adjacency contains non-finite entries")
        if np.any(w < 0):
            raise ValidationError("adjacency weights must be nonnegative")
        if np.any(np.diag(w) != 0):
            raise ValidationError("adjacency may not contain self-loops (nonzero diagonal)")
        object.__setattr__(self, "adjacency", w)

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]


@dataclass(frozen=True)
class StructuralMask:
    """Binary matrix: 1 marks pairs farther apart than `order` hops, 0 otherwise.

    The diagonal is always 0 (self-dependence is never penalized). The
    mask is stored as a read-only view of the array given; a mask that
    structural_mask could not have built is rejected.
    """

    order: int
    mask: np.ndarray

    def __post_init__(self):
        _check_mask_order(self.order)
        m = readonly(self.mask)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError(f"structural mask must be square, got shape {m.shape}")
        if not np.all((m == 0) | (m == 1)):
            raise ValidationError("structural mask entries must all be 0 or 1")
        if np.any(np.diag(m) != 0):
            raise ValidationError("structural mask must have a zero diagonal")
        object.__setattr__(self, "mask", m)


def _check_mask_order(order: int) -> None:
    if order not in (1, 2):
        raise UnsupportedOrderError(f"mask order must be 1 or 2, got {order}")


def normalized_adjacency(graph: SensorGraph) -> np.ndarray:
    """Symmetrically normalized adjacency D^{-1/2} W D^{-1/2}, taking
    D^{-1/2} to be 0 at zero-degree nodes."""
    deg = graph.adjacency.sum(axis=1)
    inv_sqrt = np.zeros_like(deg)
    inv_sqrt[deg > 0] = 1.0 / np.sqrt(deg[deg > 0])
    return np.outer(inv_sqrt, inv_sqrt) * graph.adjacency


def structural_mask(graph: SensorGraph, order: int) -> StructuralMask:
    """Mask of sensor pairs beyond `order` hops of each other.

    (I + A)^order counts the walks of at most `order` hops over the 0/1 edge
    set A (weight > 0), so its zero entries are exactly the pairs to mask.
    The counts are small integers, so no tolerance is involved, and the
    diagonal is 0 by construction.
    """
    _check_mask_order(order)
    walks = np.linalg.matrix_power(np.eye(graph.n) + (graph.adjacency > 0), order)
    return StructuralMask(order=order, mask=np.where(walks > 0, 0.0, 1.0))


def load_adjacency_csv(path) -> SensorGraph:
    """Read a headerless N x N CSV of nonnegative weights into a SensorGraph."""
    return SensorGraph(load_matrix_csv(path, "adjacency"))


def load_matrix_csv(path, what: str) -> np.ndarray:
    """Read a headerless numeric CSV as a 2-D float64 array; a malformed cell
    is a ParseError naming `what` and the file."""
    try:
        return np.loadtxt(path, delimiter=",", ndmin=2, dtype=np.float64)
    except ValueError as exc:
        raise ParseError(f"malformed {what} CSV {path}: {exc}") from exc


def save_adjacency_csv(graph: SensorGraph, path) -> None:
    """Write the adjacency matrix as a headerless CSV (lossless float repr)."""
    write_float_rows(path, graph.adjacency)
