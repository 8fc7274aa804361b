"""The obstacle-SPDE random field u(t, x) = Y_t^{t,x} for one realized B
path, the transform eta (with y-inverse epsilon) that removes the backward
noise, and the monotone envelope approximation fields.

Every field point (t, x) is an independent solver run started at (t, x) on
the grid from t to T; all points share one noise ensemble and one B path, so
spatial differences of u come out with low variance.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .generators import EnvelopeRangeError, GeneratorSpec, ProblemSpec, lipschitz_envelope
from .forward import simulate_forward
from .paths import NoiseEnsemble, TimeGrid
from .solver import (GeneratorEvaluationError, RegressionBasis, SingularRegressionError,
                     SolverConfig, picard_solve)

__all__ = [
    "UnsupportedProblemError",
    "StepSizeError",
    "FieldSample",
    "evaluate_u_field",
    "DossTransform",
    "solve_doss_eta",
    "MonotoneFieldReport",
    "monotone_field_sequence",
]


class UnsupportedProblemError(ValueError):
    """The field pipeline requires a z-free backward-noise coefficient g."""


class StepSizeError(RuntimeError):
    """The transform lost monotonicity in y; the Euler step is too coarse."""


@dataclass(frozen=True, eq=False)
class FieldSample:
    """u on a space-time grid for one realized B path.

    ``values[i, j]`` approximates u(time_nodes[i], space_points[j]); the
    terminal row is the terminal map evaluated exactly.  ``stderr`` holds the
    Monte Carlo standard error of each entry given the B path, and
    ``non_converged`` the (t, x0) points whose Picard loop did not converge.
    """

    space_points: np.ndarray
    time_nodes: np.ndarray
    values: np.ndarray
    stderr: np.ndarray
    non_converged: list[tuple[float, float]]


def evaluate_u_field(problem: ProblemSpec, space_points, times,
                     noise: NoiseEnsemble, basis: RegressionBasis,
                     cfg: SolverConfig) -> FieldSample:
    """Evaluate u(t, x) = Y_t^{t,x} on the requested space-time grid.

    ``times`` must be grid nodes; z-dependent g is rejected (the field link
    holds only for z-free backward-noise coefficients).  A point (t, x)
    below T is one Picard solve from x on the noise's grid from t to T,
    whose start value is u(t, x); the terminal row is the terminal map.  A
    non-finite generator, a singular regression or an envelope generator
    queried outside its u grid raises its error with the field point named
    after the node, which counts from t.
    """
    if problem.generators.g_depends_on_z:
        raise UnsupportedProblemError(
            "the u(t, x) field requires g independent of z")
    grid = noise.grid
    pts = np.asarray(space_points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.shape[1] != problem.dim:
        raise ValueError(f"space points must have dimension {problem.dim}")
    indices = tuple(grid.index_of(float(t)) for t in np.atleast_1d(times))

    values = np.empty((len(indices), len(pts)))
    stderr = np.empty_like(values)
    non_converged: list[tuple[float, float]] = []
    for a, idx in enumerate(indices):
        t = float(grid.nodes[idx])
        for j, x in enumerate(pts):
            if idx == grid.num_steps:
                values[a, j] = float(problem.terminal(x[None, :])[0])
                stderr[a, j] = 0.0
                continue
            rest = noise.from_node(idx)
            fwd = simulate_forward(problem, t, x, rest)
            try:
                sol, _, _ = picard_solve(problem, fwd, rest, basis, cfg)
            except (EnvelopeRangeError, GeneratorEvaluationError, SingularRegressionError) as e:
                raise type(e)(f"{e} at field point t={t}, x0={float(x[0])}") from e
            values[a, j] = float(np.mean(sol.y.values[:, 0, 0]))
            stderr[a, j] = sol.diagnostics["value_stderr"]
            if not sol.diagnostics["converged"]:
                non_converged.append((t, float(x[0])))
    return FieldSample(space_points=pts, time_nodes=np.array([grid.nodes[i] for i in indices]),
                       values=values, stderr=stderr, non_converged=non_converged)


@dataclass(frozen=True, eq=False)
class DossTransform:
    """Sampled transform eta(t, x, y) and its y-inverse on the same grid.

    eta solves, backward from eta(T, x, y) = y, the equation driven by the
    realized B path with the 1/2 <g, D_y g> drift correction; epsilon
    inverts it in y by monotone interpolation.
    """

    y_nodes: np.ndarray
    eta: np.ndarray  # (N+1, G, ny): time node, x point, y node

    def eta_at(self, t_index: int, x_index: int, y) -> np.ndarray:
        return np.interp(np.asarray(y, dtype=float), self.y_nodes,
                         self.eta[t_index, x_index])

    def epsilon(self, t_index: int, x_index: int, v) -> np.ndarray:
        return np.interp(np.asarray(v, dtype=float), self.eta[t_index, x_index],
                         self.y_nodes)

    def inverse_identity_error(self) -> float:
        """max |epsilon(eta(y)) - y| over the y nodes of every slice (exact at
        the knots)."""
        worst = 0.0
        for i in range(self.eta.shape[0]):
            for j in range(self.eta.shape[1]):
                back = self.epsilon(i, j, self.eta_at(i, j, self.y_nodes))
                worst = max(worst, float(np.max(np.abs(back - self.y_nodes))))
        return worst


def solve_doss_eta(gen: GeneratorSpec, grid: TimeGrid, x_points, y_nodes,
                   b_increments: np.ndarray) -> DossTransform:
    """March eta backward from the identity at T along the realized B path.

    Each step adds the g . dB term and the 1/2 <g, D_y g> drift, the latter
    integrated against the realized quadratic variation dB^2 of its own
    component (in continuous time d[B] = dt exactly; pathwise this quadrature
    keeps the scheme first order in dt for scalar B, where plain dt weighting
    would stall at order 1/2).  D_y g is formed by central differences with
    a step of 1e-4 of the y range.  A non-monotone
    eta slice aborts with the offending node, signalling that the step is
    too coarse.
    """
    if gen.g_depends_on_z:
        raise UnsupportedProblemError("the transform requires g independent of z")
    xp = np.asarray(x_points, dtype=float)
    if xp.ndim == 1:
        xp = xp[:, None]
    ys = np.asarray(y_nodes, dtype=float)
    if ys.ndim != 1 or len(ys) < 2 or np.any(np.diff(ys) <= 0):
        raise ValueError("y_nodes must be strictly increasing")
    n_steps = grid.num_steps
    if b_increments.shape[0] != n_steps:
        raise ValueError("b_increments do not match the grid")
    h = 1e-4 * float(ys[-1] - ys[0])
    g_count, ny = len(xp), len(ys)
    d = xp.shape[1]
    x_rep = np.repeat(xp, ny, axis=0)
    z0 = np.zeros((g_count * ny, d))

    eta = np.empty((n_steps + 1, g_count, ny))
    eta[n_steps] = ys[None, :]
    for i in range(n_steps - 1, -1, -1):
        flat = eta[i + 1].reshape(-1)
        t_next = float(grid.nodes[i + 1])
        gv = gen.g(t_next, x_rep, flat, z0)
        dyg = (gen.g(t_next, x_rep, flat + h, z0)
               - gen.g(t_next, x_rep, flat - h, z0)) / (2.0 * h)
        drift = 0.5 * np.sum(gv * dyg * b_increments[i][None, :] ** 2, axis=1)
        eta[i] = (flat + drift + gv @ b_increments[i]).reshape(g_count, ny)
        if np.any(np.diff(eta[i], axis=1) <= 0):
            raise StepSizeError(
                f"eta lost monotonicity in y at node {i}; refine the time step")
    return DossTransform(y_nodes=ys, eta=eta)


@dataclass(frozen=True, eq=False)
class MonotoneFieldReport:
    """Envelope approximation fields bracketing u, with monotonicity stats.

    Lower fields come from the n-Lipschitz lower envelopes of f and must be
    non-decreasing in n; upper fields mirror this from above.  Violations
    are counted beyond three standard errors.
    """

    n_values: tuple[int, ...]
    base: FieldSample
    lower: dict[int, FieldSample]
    upper: dict[int, FieldSample]
    lower_monotone_violations: int
    upper_monotone_violations: int
    grid_tols: np.ndarray
    widths_non_increasing: bool
    base_within_bracket: bool


def monotone_field_sequence(problem: ProblemSpec, n_values, space_points, times,
                            noise: NoiseEnsemble, basis: RegressionBasis,
                            cfg: SolverConfig) -> MonotoneFieldReport:
    """Fields from the lower/upper envelope generators for each n, with the
    base field, monotonicity counts and the bracket containment check.  An
    empty ``n_values`` gives the base field alone."""
    n_values = tuple(sorted(int(n) for n in n_values))
    # every envelope is built, and an inadmissible n rejected, before any solve
    envelopes = {n: (lipschitz_envelope(problem.generators, n, "lower"),
                     lipschitz_envelope(problem.generators, n, "upper")) for n in n_values}
    base = evaluate_u_field(problem, space_points, times, noise, basis, cfg)
    lower: dict[int, FieldSample] = {}
    upper: dict[int, FieldSample] = {}
    gtol: dict[int, float] = {}
    for n, (lo, up) in envelopes.items():
        gtol[n] = lo.grid_tol
        lower[n] = evaluate_u_field(dataclasses.replace(problem, generators=lo.as_generator()),
                                    space_points, times, noise, basis, cfg)
        upper[n] = evaluate_u_field(dataclasses.replace(problem, generators=up.as_generator()),
                                    space_points, times, noise, basis, cfg)

    # the grid envelope sits within grid_tol of the true one; a u field driven
    # by a generator shifted by eps moves by at most eps * horizon, so grid
    # effects enter every field comparison through this slack
    fslack = {n: gtol[n] * problem.horizon for n in n_values}
    lo_viol = 0
    up_viol = 0
    for a, b in zip(n_values, n_values[1:]):
        tol = 3.0 * (lower[a].stderr + lower[b].stderr) + fslack[a] + fslack[b]
        lo_viol += int(np.sum(lower[a].values > lower[b].values + tol))
        tol = 3.0 * (upper[a].stderr + upper[b].stderr) + fslack[a] + fslack[b]
        up_viol += int(np.sum(upper[b].values > upper[a].values + tol))

    widths = np.array([float(np.max(upper[n].values - lower[n].values))
                       for n in n_values])
    slack = np.array([3.0 * float(np.max(upper[n].stderr + lower[n].stderr)) + 2.0 * fslack[n]
                      for n in n_values])
    widths_mono = bool(np.all(widths[1:] <= widths[:-1] + slack[1:] + slack[:-1]))

    within = True
    if n_values:
        n_top = n_values[-1]
        tol = 3.0 * (base.stderr + lower[n_top].stderr) + fslack[n_top]
        within = bool(np.all(base.values >= lower[n_top].values - tol))
        tol = 3.0 * (base.stderr + upper[n_top].stderr) + fslack[n_top]
        within &= bool(np.all(base.values <= upper[n_top].values + tol))

    return MonotoneFieldReport(
        n_values=n_values, base=base, lower=lower, upper=upper,
        lower_monotone_violations=lo_viol, upper_monotone_violations=up_viol,
        grid_tols=np.array([gtol[n] for n in n_values]),
        widths_non_increasing=widths_mono,
        base_within_bracket=within)
