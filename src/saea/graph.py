"""Sensor-graph utilities: normalized adjacency/Laplacian and hop-limited structural masks.

The structural mask marks sensor pairs that are *not* reachable within a given
number of hops; penalizing the masked entries of an error-coefficient matrix
confines learned error coupling to the physical network.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import write_float_rows
from .errors import ParseError, UnsupportedOrderError, ValidationError

# |entry| at or below this counts as a structural zero; float noise must not
# flip mask bits.
SUPPORT_TOL = 1e-12


def _validate_adjacency(adjacency) -> np.ndarray:
    w = np.array(adjacency, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValidationError(f"adjacency must be square, got shape {w.shape}")
    if w.shape[0] == 0:
        raise ValidationError("adjacency must have at least one node")
    if not np.all(np.isfinite(w)):
        raise ValidationError("adjacency contains non-finite entries")
    if np.any(w < 0):
        raise ValidationError("adjacency weights must be nonnegative")
    if np.any(np.abs(np.diag(w)) > SUPPORT_TOL):
        raise ValidationError("adjacency may not contain self-loops (nonzero diagonal)")
    return w


@dataclass(frozen=True)
class SensorGraph:
    """Weighted sensor network: a dense float64 (n, n) adjacency, read-only.

    Matrices derived from it (normalized adjacency and Laplacian) are
    computed by the functions below when needed.
    """

    adjacency: np.ndarray

    @classmethod
    def from_adjacency(cls, adjacency) -> "SensorGraph":
        w = _validate_adjacency(adjacency)
        w.flags.writeable = False
        return cls(adjacency=w)

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]


@dataclass(frozen=True)
class StructuralMask:
    """Binary matrix: 1 marks pairs farther apart than `order` hops, 0 otherwise.

    The diagonal is always 0 (self-dependence is never penalized).
    """

    order: int
    mask: np.ndarray

    def __post_init__(self):
        self.mask.flags.writeable = False


def normalized_laplacian(graph: SensorGraph) -> np.ndarray:
    """Symmetric normalized Laplacian I - D^{-1/2} W D^{-1/2}.

    Rows and columns of zero-degree nodes are all-zero, including the
    diagonal entry (isolated-node convention).
    """
    lap = -normalized_adjacency(graph)
    # Diagonal is 1 for connected nodes; isolated nodes get an all-zero row.
    np.fill_diagonal(lap, np.where(graph.adjacency.sum(axis=1) > 0, 1.0, 0.0))
    return lap


def normalized_adjacency(graph: SensorGraph) -> np.ndarray:
    """Symmetrically normalized adjacency D^{-1/2} W D^{-1/2}, taking
    D^{-1/2} to be 0 at zero-degree nodes."""
    deg = graph.adjacency.sum(axis=1)
    inv_sqrt = np.zeros_like(deg)
    inv_sqrt[deg > 0] = 1.0 / np.sqrt(deg[deg > 0])
    return np.outer(inv_sqrt, inv_sqrt) * graph.adjacency


def structural_mask(graph: SensorGraph, order: int) -> StructuralMask:
    """Mask of sensor pairs beyond `order` hops of each other.

    Order 1 takes the support of the normalized Laplacian (one minus the
    ceiling of its absolute value); order 2 applies the same construction to
    the support of W + W^2. Entries are strictly binary and the diagonal is
    forced to 0.
    """
    if order not in (1, 2):
        raise UnsupportedOrderError(f"mask order must be 1 or 2, got {order}")
    if order == 1:
        support = np.abs(normalized_laplacian(graph)) > SUPPORT_TOL
    else:
        w = graph.adjacency
        support = np.abs(w + w @ w) > SUPPORT_TOL
    mask = np.where(support, 0.0, 1.0)
    np.fill_diagonal(mask, 0.0)
    return StructuralMask(order=order, mask=mask)


def load_adjacency_csv(path) -> SensorGraph:
    """Read a headerless N x N CSV of nonnegative weights into a SensorGraph."""
    return SensorGraph.from_adjacency(load_matrix_csv(path, "adjacency"))


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
