"""Sensor-graph utilities: normalized adjacency and hop-limited structural masks.

The structural mask marks sensor pairs that are *not* reachable within a given
number of hops over the graph's edge set (the pairs of positive weight);
penalizing the masked entries of an error-coefficient matrix confines learned
error coupling to the physical network.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import check_count, check_finite, check_shape, load_matrix_csv, readonly, write_float_rows
from .errors import ValidationError


@dataclass(frozen=True, eq=False)
class SensorGraph:
    """Weighted sensor network: a dense float64 (n, n) adjacency, square,
    finite, nonnegative and without self-loops, stored as a read-only copy.
    Edges are directed: adjacency[i, j] > 0 lets sensor i receive from
    sensor j, and row i of the adjacency, of the hop mask, of each Phi_k and
    of the propagation is what sensor i receives.

    Matrices derived from it (normalized adjacency, hop masks) are computed
    by the functions below when needed.
    """

    adjacency: np.ndarray

    def __post_init__(self):
        w = check_finite("adjacency", np.array(self.adjacency, dtype=np.float64))
        w = readonly(check_shape("adjacency", w, ("N", "N")))
        if w.shape[0] == 0:
            raise ValidationError("adjacency must have at least one node")
        if np.any(w < 0):
            raise ValidationError("adjacency weights must be nonnegative")
        if np.any(np.diag(w) != 0):
            raise ValidationError("adjacency may not contain self-loops (nonzero diagonal)")
        object.__setattr__(self, "adjacency", w)

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]


@dataclass(frozen=True, eq=False)
class StructuralMask:
    """Hop mask of a sensor graph: 1 marks pairs farther apart than `order`
    (1 or 2) hops, 0 otherwise, so the diagonal is always 0 (self-dependence
    is never penalized).

    The mask is derived from the graph once, at construction, and stored
    read-only: (I + A)^order counts the walks of at most `order` hops over
    the 0/1 edge set A (weight > 0), so its zero entries are exactly the
    pairs to mask. The counts are small integers, so no tolerance is involved.
    """

    graph: SensorGraph
    order: int
    mask: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "order", check_count("mask order", self.order, 1, 2))
        edges = self.graph.adjacency > 0
        walks = np.linalg.matrix_power(np.eye(self.graph.n) + edges, self.order)
        object.__setattr__(self, "mask", readonly(np.where(walks > 0, 0.0, 1.0)))


def normalized_adjacency(graph: SensorGraph) -> np.ndarray:
    """Normalized adjacency D_out^{-1/2} W D_in^{-1/2}, D_out holding the
    row sums of W and D_in its column sums, taking D^{-1/2} to be 0 at
    zero-degree nodes, so every edge keeps a positive weight. The column
    sums are row sums of a C-contiguous copy of W^T: on a symmetric W they
    are the same bits, and the result is D^{-1/2} W D^{-1/2}."""
    w = graph.adjacency
    deg = np.stack([w.sum(axis=1), np.ascontiguousarray(w.T).sum(axis=1)])
    with np.errstate(divide="ignore"):
        out_scale, in_scale = np.where(deg > 0, 1.0 / np.sqrt(deg), 0.0)
    return np.outer(out_scale, in_scale) * w


def structural_mask(graph: SensorGraph, order: int) -> StructuralMask:
    """Mask of sensor pairs beyond `order` hops of each other."""
    return StructuralMask(graph, order)


def load_adjacency_csv(path) -> SensorGraph:
    """Read a headerless N x N CSV of nonnegative weights into a SensorGraph;
    an adjacency the graph rejects is a ValidationError naming the file."""
    weights = load_matrix_csv(path)
    try:
        return SensorGraph(weights)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def save_adjacency_csv(graph: SensorGraph, path) -> None:
    """Write the adjacency matrix as a headerless CSV (lossless float repr)."""
    write_float_rows(path, graph.adjacency)
