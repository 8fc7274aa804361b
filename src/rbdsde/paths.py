"""Time grids, seeded Brownian noise ensembles, discrete process containers,
and empirical estimators of the S2 / M2 / A2 norms.

Two independent Brownian motions drive everything downstream: W (forward,
d-dimensional, one increment stream per Monte Carlo path) and B (backward,
l-dimensional, a single realized path per experiment).  Noise is generated
from counter-based Philox substreams keyed by (seed, stream id), so path k's
increments never depend on how many paths were requested or on any execution
order.

Path arrays are stored node-major (row i holds node i over all paths) and
exposed as (num_paths, nodes, dim) views, so the per-node reads of the
forward and backward recursions touch contiguous memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "TimeGrid",
    "NoiseEnsemble",
    "ProcessSample",
    "build_grid",
    "sample_noise",
    "empirical_norm",
]

# Substream ids at or above this value are reserved for realizations of B;
# ids below it index W paths.  Keeps the two families collision-free for any
# practical path count.
_B_STREAM_BASE = 1 << 62


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Discrete time mesh on [0, T], T being the last node.

    Nodes must start at 0 and be strictly increasing.  ``build_grid``
    produces the uniform mesh; custom node vectors are allowed.
    """

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or len(nodes) < 2:
            raise ValueError("need a 1-D vector of at least two nodes")
        if nodes[0] != 0.0:
            raise ValueError("first node must be 0")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")
        nodes.setflags(write=False)

    @property
    def horizon(self) -> float:
        return float(self.nodes[-1])

    @property
    def num_steps(self) -> int:
        return len(self.nodes) - 1

    @property
    def dt(self) -> np.ndarray:
        """Step sizes, length ``num_steps``."""
        return np.diff(self.nodes)

    def index_of(self, t: float) -> int:
        """Index of the node equal to ``t`` (within 1e-12 relative)."""
        idx = int(np.argmin(np.abs(self.nodes - t)))
        if abs(self.nodes[idx] - t) > 1e-12 * max(1.0, self.horizon):
            raise ValueError(f"t={t} is not a grid node")
        return idx


def build_grid(T: float, N: int) -> TimeGrid:
    """Uniform time grid with N steps on [0, T].

    Parameters
    ----------
    T : float
        Horizon, strictly positive.
    N : int
        Number of steps, at least 1.
    """
    if not T > 0:  # NaN fails too
        raise ValueError(f"horizon must be positive, got {T}")
    if N < 1:
        raise ValueError(f"need at least one step, got {N}")
    return TimeGrid(np.linspace(0.0, float(T), int(N) + 1))


def _key(seed: int, stream_id: int) -> list[int]:
    # Counter-based generator: the (seed, stream) pair fully determines the
    # draw, independent of call ordering or thread layout.
    return [int(seed) & (2**64 - 1), int(stream_id)]


@dataclass(frozen=True, eq=False)
class NoiseEnsemble:
    """Sampled increments of W (per path) and one realized path of B.

    ``w_increments`` has shape (num_paths, N, d) and ``b_increments`` shape
    (N, l); every component has variance dt per step.  B is deliberately a
    single path: the solution of the backward equation is a random field over
    the B-randomness, and the path-wise regression runs over W only.

    ``sample_noise`` stores W node-major, so ``w_increments`` is a view
    whose step-i slice ``w_increments[:, i]`` is contiguous.
    """

    grid: TimeGrid
    w_increments: np.ndarray
    b_increments: np.ndarray

    def __post_init__(self):
        N = self.grid.num_steps
        if self.w_increments.shape[1:2] != (N,):
            raise ValueError("w_increments must have shape (num_paths, N, d)")
        if self.b_increments.shape[0] != N:
            raise ValueError("b_increments must have shape (N, l)")
        self.w_increments.setflags(write=False)
        self.b_increments.setflags(write=False)

    @property
    def num_paths(self) -> int:
        return self.w_increments.shape[0]

    @property
    def d(self) -> int:
        return self.w_increments.shape[2]

    @property
    def ell(self) -> int:
        return self.b_increments.shape[1]

    def b_path(self) -> np.ndarray:
        """Cumulative B path, shape (N+1, l), starting at 0."""
        out = np.zeros((self.grid.num_steps + 1, self.ell))
        np.cumsum(self.b_increments, axis=0, out=out[1:])
        return out


def sample_noise(grid: TimeGrid, num_paths: int, d: int = 1, ell: int = 1,
                 seed: int = 0, b_stream: int = 0) -> NoiseEnsemble:
    """Sample the two independent Brownian increment families.

    Parameters
    ----------
    grid : TimeGrid
    num_paths : int
        Number of W paths (>= 1).
    d, ell : int
        Dimensions of W and B.
    seed : int
        Master seed; identical seeds reproduce the ensemble bit for bit.
    b_stream : int
        Index of the B realization; use 0, 1, ... to loop over independent
        B paths in batch experiments without touching the W streams.
    """
    if num_paths < 1 or d < 1 or ell < 1:
        raise ValueError("num_paths, d and ell must all be >= 1")
    N = grid.num_steps
    scale = np.sqrt(grid.dt)[:, None]
    # one generator, re-keyed per path: path k draws from key [seed, k]
    bits = np.random.Philox(key=_key(seed, 0))
    state = bits.state
    draw = np.random.Generator(bits)
    w = np.empty((N, num_paths, d))
    for k in range(num_paths):
        state["state"]["key"][1] = k
        bits.state = state
        w[:, k] = draw.standard_normal((N, d))
    w *= scale[:, None]
    b = np.random.Generator(np.random.Philox(key=_key(seed, _B_STREAM_BASE + b_stream)))
    return NoiseEnsemble(grid, w.transpose(1, 0, 2), b.standard_normal((N, ell)) * scale)


@dataclass(frozen=True, eq=False)
class ProcessSample:
    """Discrete adapted process sample, shape (num_paths, N+1, dim).

    The forward paths and the solver's Y, Z and K store their values
    node-major and pass the transposed (num_paths, N+1, dim) view here.
    """

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 3 or vals.shape[1] != self.grid.num_steps + 1:
            raise ValueError("values must have shape (num_paths, N+1, dim)")
        if vals.shape[0] < 1:
            raise ValueError("need at least one path")
        vals.setflags(write=False)


def empirical_norm(p: ProcessSample, kind: str) -> float:
    """Empirical norm estimator over the whole grid.

    kind "S2": mean over paths of the running sup of |.|^2;
    kind "M2": mean over paths of the left-endpoint time integral of ||.||^2;
    kind "A2": mean over paths of the squared value at the last node.
    """
    if p.values.size == 0:
        raise ValueError("empty sample")
    sq = np.sum(p.values ** 2, axis=2)
    if kind == "S2":
        return float(np.mean(np.max(sq, axis=1)))
    if kind == "M2":
        return float(np.mean(np.sum(sq[:, :-1] * p.grid.dt, axis=1)))
    if kind == "A2":
        return float(np.mean(sq[:, -1]))
    raise ValueError(f"unknown norm kind {kind!r}")
