"""Synthetic spatiotemporal processes with known dynamics and error structure.

The data-generating process is a linear graph filter (the same family as
GraphFilterAR, optionally with a small quadratic mismatch term) driven by
errors that follow a first-order VAR process with a known coefficient matrix.
Because both the dynamics and the error coupling are known, the best
achievable one-step RMSE has a closed form, which makes desk-scale end-to-end
claims checkable.

Sampling uses numpy's Generator (PCG64 stream, ziggurat normals), so a seed
pins the bundle bit-for-bit on a given numpy version.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .data import SeriesFrame, check_count, check_real, check_shape, seeded_rng
from .errors import ValidationError
from .graph import SensorGraph, normalized_adjacency, structural_mask


def path_graph(n: int) -> SensorGraph:
    """Unit-weight chain 0 - 1 - ... - (n-1)."""
    w = np.zeros((n, n))
    idx = np.arange(n - 1)
    w[idx, idx + 1] = 1.0
    w[idx + 1, idx] = 1.0
    return SensorGraph(w)


def ring_graph(n: int) -> SensorGraph:
    """Unit-weight cycle over n nodes."""
    n = check_count("ring graph n", n, 3)
    w = np.zeros((n, n))
    idx = np.arange(n)
    w[idx, (idx + 1) % n] = 1.0
    w[(idx + 1) % n, idx] = 1.0
    return SensorGraph(w)


def erdos_renyi_graph(n: int, p_edge: float, seed: int = 0) -> SensorGraph:
    """Symmetric unit-weight random graph without self-loops."""
    p_edge = check_real("p_edge", p_edge, 0, 1)
    rng = seeded_rng(seed)
    upper = rng.random((n, n)) < p_edge
    w = np.triu(upper, k=1).astype(np.float64)
    w = w + w.T
    return SensorGraph(w)


@dataclass(frozen=True)
class GraphSpec:
    """A graph to build; p_edge is None, whatever was given, unless the kind
    is erdos_renyi, the one kind that uses it. n (>= 1) and seed (>= 0) are
    checked at construction and stored as Python ints."""

    kind: str  # path | ring | erdos_renyi
    n: int
    p_edge: float | None = None
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "n", check_count("n", self.n, 1))
        object.__setattr__(self, "seed", check_count("graph seed", self.seed, 0))
        if self.kind != "erdos_renyi":
            object.__setattr__(self, "p_edge", None)

    def build(self) -> SensorGraph:
        if self.n**2 * 8 > np.iinfo(np.intp).max:  # numpy's array size limit
            raise ValidationError(f"n={self.n} is too large for an N x N adjacency")
        if self.kind == "path":
            return path_graph(self.n)
        if self.kind == "ring":
            return ring_graph(self.n)
        if self.kind == "erdos_renyi":
            return erdos_renyi_graph(self.n, self.p_edge, seed=self.seed)
        raise ValidationError(f"unknown graph kind {self.kind!r}")


# Steps simulated and dropped before the kept series: the recursions start
# from all-zero history and errors, and 200 steps lets that start decay
# towards the stationary distribution.
BURN_IN = 200


@dataclass(frozen=True, eq=False)
class SynthConfig:
    """Everything needed to simulate one bundle.

    dgp_self / dgp_hop are the identity-tap and one-hop-tap coefficients of
    the true dynamics per lag; phi_star couples past errors into current
    errors and must be structurally supported (within one hop) with spectral
    radius below 1. sigma is the nonnegative innovation scale: the
    innovations are white noise N(0, sigma^2 I). quad_coeff adds a small
    quadratic term to the dynamics to emulate model misspecification.
    steps (>= 1), seed (>= 0), sigma (>= 0) and a finite quad_coeff are
    checked at construction and stored as Python numbers, and the taps, finite
    and of one length >= 1, as tuples of Python floats.
    """

    graph: GraphSpec
    steps: int
    dgp_self: tuple
    dgp_hop: tuple
    phi_star: np.ndarray
    sigma: float = 1.0
    quad_coeff: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name, check, *bounds in (("steps", check_count, 1), ("seed", check_count, 0),
                                     ("sigma", check_real, 0), ("quad_coeff", check_real)):
            object.__setattr__(self, name, check(name, getattr(self, name), *bounds))
        dgp_self = check_shape("dgp_self", self.dgp_self, ("L",), finite=True)
        dgp_hop = check_shape("dgp_hop", self.dgp_hop, dgp_self.shape, finite=True)
        object.__setattr__(self, "dgp_self", tuple(dgp_self.tolist()))
        object.__setattr__(self, "dgp_hop", tuple(dgp_hop.tolist()))

    def to_dict(self) -> dict:
        taps = {name: list(getattr(self, name)) for name in ("dgp_self", "dgp_hop")}
        settings = {name: value for name, value in asdict(self).items() if name != "phi_star"}
        return {**settings, **taps, "burn_in": BURN_IN}


@dataclass(frozen=True, eq=False)
class SynthBundle:
    frame: SeriesFrame
    residuals: np.ndarray    # (T, N) true error process, aligned with frame rows
    innovations: np.ndarray  # (T, N) white-noise part of the errors
    graph: SensorGraph
    phi_star: np.ndarray
    floor: float


def oracle_floor(cfg: SynthConfig) -> float:
    """Best achievable one-step RMSE: the optimal predictor's residual is the
    white-noise innovation, so the floor is sqrt(trace(sigma^2 I) / N) = sigma."""
    return cfg.sigma


def generate(cfg: SynthConfig) -> SynthBundle:
    """Simulate a bundle: VAR(1) errors riding on graph-filter dynamics.

    Rejects configurations whose error coefficients are not finite, are
    nonstationary or leave the one-hop structural pattern, and more steps
    than numpy can shape.
    """
    graph = cfg.graph.build()
    n = graph.n
    phi = check_shape("phi_star", cfg.phi_star, (n, n), finite=True)
    radius = float(np.max(np.abs(np.linalg.eigvals(phi))))
    if radius >= 1.0:
        raise ValidationError(f"phi_star spectral radius {radius:.4f} >= 1; nonstationary")
    mask = structural_mask(graph, 1).mask
    if np.any((mask > 0) & (np.abs(phi) > 0)):
        raise ValidationError("phi_star support must stay within one hop of the graph")
    if (BURN_IN + cfg.steps) * n * 8 > np.iinfo(np.intp).max:  # numpy's array size limit
        raise ValidationError(f"steps={cfg.steps} is too large for a steps x N series")
    rng = seeded_rng(cfg.seed)

    hop = normalized_adjacency(graph)
    lags = len(cfg.dgp_self)
    taps = [
        cfg.dgp_self[h] * np.eye(n) + cfg.dgp_hop[h] * hop for h in range(lags)
    ]

    total = BURN_IN + cfg.steps
    innovations = rng.standard_normal((total, n))
    innovations *= cfg.sigma
    # `lags` leading zero rows are the initial history: step t writes row
    # lags + t and reads lag h from row lags + t - 1 - h
    values = np.zeros((lags + total, n))
    residuals = np.empty((total, n))
    eta = np.zeros(n)
    for t in range(total):
        eta = phi @ eta + innovations[t]
        x = sum(taps[h] @ values[lags + t - 1 - h] for h in range(lags))
        if cfg.quad_coeff != 0.0:
            x = x + cfg.quad_coeff * values[lags + t - 1] ** 2
        values[lags + t] = x + eta
        residuals[t] = eta
    if not np.all(np.isfinite(values)):
        raise ValidationError("simulation diverged; reduce tap magnitudes or quad_coeff")

    frame = SeriesFrame(values=values[lags + BURN_IN :])
    return SynthBundle(
        frame=frame,
        residuals=residuals[BURN_IN:],
        innovations=innovations[BURN_IN:],
        graph=graph,
        phi_star=phi.copy(),
        floor=oracle_floor(cfg),
    )


def structured_var_coefficients(
    graph: SensorGraph,
    seed: int = 0,
    radius: float = 0.6,
    diag_low: float = 0.45,
    coupling_low: float = 0.4,
    coupling_high: float = 0.9,
) -> np.ndarray:
    """Heterogeneous error coefficients on the graph support with an exact radius.

    Diagonal entries are drawn in [diag_low, radius] with the maximum pinned
    at radius; cross-sensor coupling is placed only on edges (i, j) with
    j < i, which keeps the matrix lower-triangular so its eigenvalues are
    exactly the diagonal. The coupling itself can be large and signed, which
    makes the error structure expressive without touching stationarity.
    """
    radius = check_real("radius", radius, 0, 1, high_open=True)
    diag_low = check_real("diag_low", diag_low, 0, radius)
    n = graph.n
    rng = seeded_rng(seed)
    phi = np.zeros((n, n))
    diag = rng.uniform(diag_low, radius, n)
    diag[rng.integers(n)] = radius
    phi[np.arange(n), np.arange(n)] = diag
    support = graph.adjacency > 0
    lower_i, lower_j = np.nonzero(np.tril(support, k=-1))
    signs = rng.choice([-1.0, 1.0], lower_i.size)
    phi[lower_i, lower_j] = signs * rng.uniform(coupling_low, coupling_high, lower_i.size)
    return phi
