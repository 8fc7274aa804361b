"""Explicit Euler simulation of the forward diffusion started at (t, x), and
the empirical flow-continuity diagnostic in the start point.

Paths are frozen at the start state before the start node, so two starts can
be compared pathwise over the whole horizon under common random numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .generators import ProblemSpec
from .paths import NoiseEnsemble, ProcessSample

__all__ = ["ForwardEnsemble", "simulate_forward", "FlowReport", "flow_continuity_test"]


@dataclass(frozen=True, eq=False)
class ForwardEnsemble:
    """Simulated forward paths and the index of the grid node they start from."""

    start_index: int
    paths: ProcessSample


def simulate_forward(problem: ProblemSpec, t: float, x, noise: NoiseEnsemble) -> ForwardEnsemble:
    """Euler paths X_{i+1} = X_i + b(X_i) dt + sigma(X_i) dW_i from node t.

    ``t`` must be a grid node; values before it are frozen at ``x`` exactly.
    """
    grid = noise.grid
    i0 = grid.index_of(t)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (problem.dim,):
        raise ValueError(f"start state must have shape ({problem.dim},)")
    if noise.d != problem.dim:
        raise ValueError("noise dimension does not match the problem")
    dt = grid.dt
    dw = noise.w_increments.transpose(1, 0, 2)
    # node-major: row i holds node i over all paths
    vals = np.empty((grid.num_steps + 1, noise.num_paths, problem.dim))
    vals[:i0 + 1] = x
    for i in range(i0, grid.num_steps):
        xi = vals[i]
        vals[i + 1] = (xi + problem.drift(xi) * dt[i]
                       + np.einsum("mij,mj->mi", problem.diffusion(xi), dw[i]))
    return ForwardEnsemble(start_index=i0,
                           paths=ProcessSample(grid=grid, values=vals.transpose(1, 0, 2)))


@dataclass(frozen=True)
class FlowReport:
    """Flow-continuity estimates across a shrinking ladder of perturbations.

    ``ratios`` holds E sup|X - X'|^p divided by |dt|^{p/2} + |dx|^p per rung;
    ``slope`` is the log-log slope of the estimate against the rung scale.
    """

    estimates: np.ndarray
    ratios: np.ndarray
    slope: float
    stable: bool


def flow_continuity_test(problem: ProblemSpec, start_a, start_b, p: int,
                         noise: NoiseEnsemble) -> FlowReport:
    """Estimate E sup_s |X^{t,x} - X^{t',x'}|^p against |t-t'|^{p/2} + |x-x'|^p.

    Both starts run on the same noise (common random numbers).  The second
    start is pulled toward the first along the scales 1, 1/2, 1/4, 1/8 to
    probe whether the empirical constant is stable (its positive ratios
    within a factor 8); intermediate start times snap to the nearest grid
    node and the snapped values feed the denominators.
    """
    if p < 2 or p % 2 != 0:
        raise ValueError("p must be a positive even integer")
    t_a, x_a = float(start_a[0]), np.atleast_1d(np.asarray(start_a[1], dtype=float))
    t_b, x_b = float(start_b[0]), np.atleast_1d(np.asarray(start_b[1], dtype=float))
    nodes = noise.grid.nodes
    base = simulate_forward(problem, nodes[int(np.argmin(np.abs(nodes - t_a)))], x_a, noise)

    scales = (1.0, 0.5, 0.25, 0.125)
    ests, denoms = [], []
    for s in scales:
        t_k = nodes[int(np.argmin(np.abs(nodes - (t_a + s * (t_b - t_a)))))]
        x_k = x_a + s * (x_b - x_a)
        other = simulate_forward(problem, t_k, x_k, noise)
        diff = base.paths.values - other.paths.values
        sup = np.max(np.sqrt(np.sum(diff ** 2, axis=2)), axis=1)
        dt_k = abs(t_k - nodes[base.start_index])
        dx_k = float(np.sqrt(np.sum((x_k - x_a) ** 2)))
        ests.append(float(np.mean(sup ** p)))
        denoms.append(dt_k ** (p / 2) + dx_k ** p)

    ests = np.array(ests)
    denoms = np.array(denoms)
    ratios = np.where(denoms > 0, ests / np.where(denoms > 0, denoms, 1.0), 0.0)
    if np.all(ests > 0):
        slope = float(np.polyfit(np.log(scales), np.log(ests), 1)[0])
        positive = ratios[ratios > 0]
        stable = bool(len(positive) and np.max(positive) / np.min(positive) <= 8.0)
    else:
        # degenerate ladder (identical starts): nothing to regress
        slope = float("nan")
        stable = True
    return FlowReport(estimates=ests, ratios=ratios, slope=slope, stable=stable)
