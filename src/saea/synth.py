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

from collections import deque
from dataclasses import asdict, dataclass

import numpy as np

from .data import SeriesFrame
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
    if n < 3:
        raise ValidationError("ring graph needs at least 3 nodes")
    w = np.zeros((n, n))
    idx = np.arange(n)
    w[idx, (idx + 1) % n] = 1.0
    w[(idx + 1) % n, idx] = 1.0
    return SensorGraph(w)


def erdos_renyi_graph(n: int, p_edge: float, seed: int = 0) -> SensorGraph:
    """Symmetric unit-weight random graph without self-loops."""
    if not 0 <= p_edge <= 1:
        raise ValidationError("edge probability must be in [0, 1]")
    rng = np.random.default_rng(seed)
    upper = rng.random((n, n)) < p_edge
    w = np.triu(upper, k=1).astype(np.float64)
    w = w + w.T
    return SensorGraph(w)


@dataclass(frozen=True)
class GraphSpec:
    kind: str  # path | ring | erdos_renyi
    n: int
    p_edge: float | None = None
    seed: int = 0

    def build(self) -> SensorGraph:
        if self.kind == "path":
            return path_graph(self.n)
        if self.kind == "ring":
            return ring_graph(self.n)
        if self.kind == "erdos_renyi":
            if self.p_edge is None:
                raise ValidationError("erdos_renyi graph needs p_edge")
            return erdos_renyi_graph(self.n, self.p_edge, seed=self.seed)
        raise ValidationError(f"unknown graph kind {self.kind!r}")


@dataclass(frozen=True)
class SynthConfig:
    """Everything needed to simulate one bundle.

    dgp_self / dgp_hop are the identity-tap and one-hop-tap coefficients of
    the true dynamics per lag; phi_star couples past errors into current
    errors and must be structurally supported (within one hop) with spectral
    radius below 1. sigma is a noise scale (covariance sigma^2 I) or a full
    covariance matrix. quad_coeff adds a small quadratic term to the dynamics
    to emulate model misspecification.
    """

    graph: GraphSpec
    steps: int
    dgp_self: tuple
    dgp_hop: tuple
    phi_star: np.ndarray
    sigma: float | np.ndarray = 1.0
    quad_coeff: float = 0.0
    seed: int = 0
    burn_in: int = 200

    def to_dict(self) -> dict:
        sigma = self.sigma
        return {
            "graph": asdict(self.graph),
            "steps": self.steps,
            "dgp_self": [float(c) for c in self.dgp_self],
            "dgp_hop": [float(c) for c in self.dgp_hop],
            "phi_star": np.asarray(self.phi_star).tolist(),
            "sigma": sigma.tolist() if isinstance(sigma, np.ndarray) else float(sigma),
            "quad_coeff": float(self.quad_coeff),
            "seed": self.seed,
            "burn_in": self.burn_in,
        }


@dataclass(frozen=True)
class SynthBundle:
    frame: SeriesFrame
    residuals: np.ndarray    # (T, N) true error process, aligned with frame rows
    innovations: np.ndarray  # (T, N) white-noise part of the errors
    graph: SensorGraph
    phi_star: np.ndarray
    floor: float
    config: SynthConfig


def _noise_chol(sigma, n: int) -> np.ndarray:
    if np.isscalar(sigma):
        if sigma < 0:
            raise ValidationError("sigma must be nonnegative")
        return float(sigma) * np.eye(n)
    cov = np.asarray(sigma, dtype=np.float64)
    if cov.shape != (n, n):
        raise ValidationError(f"noise covariance shape {cov.shape} != ({n}, {n})")
    return np.linalg.cholesky(cov)


def _noise_trace(sigma, n: int) -> float:
    if np.isscalar(sigma):
        return n * float(sigma) ** 2
    return float(np.trace(np.asarray(sigma, dtype=np.float64)))


def oracle_floor(cfg: SynthConfig) -> float:
    """Best achievable one-step RMSE: the optimal predictor's residual is the
    white-noise innovation, so the floor is sqrt(trace(Sigma) / N)."""
    return float(np.sqrt(_noise_trace(cfg.sigma, cfg.graph.n) / cfg.graph.n))


def generate(cfg: SynthConfig) -> SynthBundle:
    """Simulate a bundle: VAR(1) errors riding on graph-filter dynamics.

    Rejects configurations whose error coefficients are nonstationary or
    whose support leaves the one-hop structural pattern.
    """
    graph = cfg.graph.build()
    n = graph.n
    phi = np.asarray(cfg.phi_star, dtype=np.float64)
    if phi.shape != (n, n):
        raise ValidationError(f"phi_star shape {phi.shape} != ({n}, {n})")
    radius = float(np.max(np.abs(np.linalg.eigvals(phi))))
    if radius >= 1.0:
        raise ValidationError(f"phi_star spectral radius {radius:.4f} >= 1; nonstationary")
    mask = structural_mask(graph, 1).mask
    if np.any((mask > 0) & (np.abs(phi) > 0)):
        raise ValidationError("phi_star support must stay within one hop of the graph")
    if len(cfg.dgp_self) != len(cfg.dgp_hop) or len(cfg.dgp_self) == 0:
        raise ValidationError("dgp_self and dgp_hop must be equal-length and nonempty")
    if cfg.steps < 1:
        raise ValidationError("steps must be >= 1")

    hop = normalized_adjacency(graph)
    lags = len(cfg.dgp_self)
    taps = [
        cfg.dgp_self[h] * np.eye(n) + cfg.dgp_hop[h] * hop for h in range(lags)
    ]
    chol = _noise_chol(cfg.sigma, n)
    rng = np.random.default_rng(cfg.seed)

    total = cfg.burn_in + cfg.steps
    history = deque([np.zeros(n)] * lags, maxlen=lags)  # newest first
    eta_prev = np.zeros(n)
    values = np.empty((total, n))
    residuals = np.empty((total, n))
    innovations = np.empty((total, n))
    for t in range(total):
        eps = chol @ rng.standard_normal(n)
        eta = phi @ eta_prev + eps
        x = sum(taps[h] @ history[h] for h in range(lags))
        if cfg.quad_coeff != 0.0:
            x = x + cfg.quad_coeff * history[0] ** 2
        x = x + eta
        values[t] = x
        residuals[t] = eta
        innovations[t] = eps
        history.appendleft(x)
        eta_prev = eta
    if not np.all(np.isfinite(values)):
        raise ValidationError("simulation diverged; reduce tap magnitudes or quad_coeff")

    keep = slice(cfg.burn_in, total)
    frame = SeriesFrame(values=values[keep].copy(), step_minutes=5.0)
    return SynthBundle(
        frame=frame,
        residuals=residuals[keep].copy(),
        innovations=innovations[keep].copy(),
        graph=graph,
        phi_star=phi.copy(),
        floor=oracle_floor(cfg),
        config=cfg,
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
    if not 0 <= radius < 1:
        raise ValidationError("radius must be in [0, 1)")
    if not 0 <= diag_low <= radius:
        raise ValidationError("diag_low must be in [0, radius]")
    n = graph.n
    rng = np.random.default_rng(seed)
    phi = np.zeros((n, n))
    diag = rng.uniform(diag_low, radius, n)
    diag[rng.integers(n)] = radius
    phi[np.arange(n), np.arange(n)] = diag
    support = np.abs(graph.adjacency) > 0
    lower_i, lower_j = np.nonzero(np.tril(support, k=-1))
    signs = rng.choice([-1.0, 1.0], lower_i.size)
    phi[lower_i, lower_j] = signs * rng.uniform(coupling_low, coupling_high, lower_i.size)
    return phi


def bfs_mask_oracle(graph: SensorGraph, order: int) -> np.ndarray:
    """Reachability oracle: mask[i, j] = 1 iff hop-distance(i, j) > order, i != j.

    Deliberately independent of the Laplacian-based construction; used to
    cross-check structural masks.
    """
    n = graph.n
    support = np.abs(graph.adjacency) > 0
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
