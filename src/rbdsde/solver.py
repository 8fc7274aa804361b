"""The discrete backward solver.

One backward sweep solves the reflected equation with the y-argument of the
generators frozen at a given process (the inner, Lipschitz-in-z problem);
the outer Picard loop feeds each sweep the previous Y until the mean-square
gap stalls below tolerance.  Conditional expectations with respect to the
forward filtration are realized by ridge-regularized least squares on a
finite basis of the state, with the single realized B path entering every
sweep as exogenous data.

Per backward step, with dt = t_{i+1} - t_i:

    Z_i   = (1/dt) E[ Y_{i+1} dW_i | X_i ]
    Yhat  = E[ Y_{i+1} + f(t_i, X_i, ybar_i, Z_i) dt
               + g(t_{i+1}, X_{i+1}, ybar_{i+1}, Z_i) . dB_i | X_i ]
    Y_i   = max(Yhat, S_i),   dK_i = Y_i - Yhat

where ybar is the frozen iterate and S_i = h(t_i, X_i).  g rides at the
right endpoint because its integral is a backward stochastic integral whose
natural discretization anchors the integrand at the future node.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .forward import ForwardEnsemble
from .generators import ProblemSpec
from .modulus import MajorantSequence, moment_bound_constant
from .paths import NoiseEnsemble, ProcessSample

__all__ = [
    "SingularRegressionError",
    "GeneratorEvaluationError",
    "ComparisonSetupError",
    "RegressionBasis",
    "RegressionPlan",
    "SolverConfig",
    "SolutionTriple",
    "solve_frozen_rbdsde",
    "picard_solve",
    "obstacle_values",
    "skorokhod_residual",
    "ComparisonReport",
    "comparison_experiment",
    "majorant_inputs",
    "MajorantGapReport",
    "picard_gap_vs_majorant",
]

# comparison_experiment spot-checks its ordering preconditions on this many
# sampled arguments, allowing _ORDER_TOL of rounding
_ORDER_SAMPLES = 512
_ORDER_TOL = 1e-9
# picard_gap_vs_majorant allows a gap to exceed its majorant by this much
_GAP_TOL = 1e-3
# a SolutionTriple's K may start off 0 or step down by this much of rounding
_K_TOL = 1e-12
# _path_mean sums the paths in blocks of at most this many
_PATH_BLOCK = 4096


class SingularRegressionError(RuntimeError):
    """Normal equations are rank deficient and no ridge was supplied."""


class GeneratorEvaluationError(RuntimeError):
    """A generator, the terminal map or the obstacle produced a non-finite
    value; the message names the node."""


class ComparisonSetupError(ValueError):
    """The ordered-comparison preconditions failed on sampled arguments."""


@dataclass(frozen=True)
class RegressionBasis:
    """Finite basis of the state used to project on the forward filtration.

    Every kind is the local-polynomial family: all monomials of total degree
    <= ``degree`` in the standardized state, fitted separately inside each of
    ``bins`` boxes per dimension.  Bin edges follow the per-dimension sample
    quantiles, which equalizes the per-box sample mass.  The other kinds are
    shorthand, normalised at construction: "polynomial" is one box
    (``bins`` becomes 1) and "piecewise-constant" is degree 0 (``degree``
    becomes 0).
    """

    kind: str = "local-polynomial"
    degree: int = 1
    bins: int = 16

    def __post_init__(self):
        if self.kind not in ("polynomial", "piecewise-constant", "local-polynomial"):
            raise ValueError(f"unknown basis kind {self.kind!r}")
        if self.kind == "polynomial":
            object.__setattr__(self, "bins", 1)
        elif self.kind == "piecewise-constant":
            object.__setattr__(self, "degree", 0)
        if self.degree < 0:
            raise ValueError("degree must be >= 0")
        if self.bins < 1:
            raise ValueError("bins must be >= 1")


def _multi_indices(d: int, degree: int):
    out = [alpha for alpha in itertools.product(range(degree + 1), repeat=d)
           if sum(alpha) <= degree]
    out.sort(key=lambda a: (sum(a), a))
    return out


def _monomials(s: np.ndarray, degree: int) -> np.ndarray:
    m, d = s.shape
    cols = []
    for alpha in _multi_indices(d, degree):
        col = np.ones(m)
        for j, a in enumerate(alpha):
            if a:
                col = col * s[:, j] ** a
        cols.append(col)
    return np.column_stack(cols)


def _bin_ids(state: np.ndarray, bins: int) -> np.ndarray:
    m, d = state.shape
    ids = np.zeros(m, dtype=int)
    for j in range(d):
        col = state[:, j]
        edges = np.quantile(col, np.linspace(0.0, 1.0, bins + 1)[1:-1])
        ids = ids * bins + np.searchsorted(edges, col, side="right")
    return ids


def _moments(loc: np.ndarray, ids: np.ndarray, n_bins: int, v2: np.ndarray) -> np.ndarray:
    """Mean products of the basis columns with each column of ``v2``, one
    (k, q) block per bin.  Bincount accumulation keeps the reduction order
    fixed."""
    m, k = loc.shape
    out = np.empty((n_bins, k, v2.shape[1]))
    for a in range(k):
        for j in range(v2.shape[1]):
            out[:, a, j] = np.bincount(ids, weights=loc[:, a] * v2[:, j], minlength=n_bins)
    return out / m


class RegressionPlan:
    """Regression designs of one forward ensemble, built once per node.

    ``states`` holds the (M, n, d) forward paths; stored node-major, as
    ``simulate_forward`` leaves them, each node's (M, d) state is contiguous.
    The first ``fit`` at a node builds and caches what depends on the state
    alone: the standardisation (mu, sd), the bin ids, and the ridged Gram
    matrices.
    Later fits there only accumulate the right-hand side, so a Picard loop
    projecting every sweep on the same filtration pays for its designs once,
    and a rank-deficient design is reported at the first fit that needs it.

    The Gram matrix is block diagonal, so the plan solves one small system
    per occupied bin.  The local monomials are rebuilt from (mu, sd) at each
    fit rather than stored, which keeps the plan at one small integer per
    path and node.
    """

    def __init__(self, basis: RegressionBasis, states: np.ndarray, ridge: float):
        self.states = np.asarray(states, dtype=float)
        self.basis = basis
        self.ridge = ridge
        self._nodes = {}

    def _design(self, node: int):
        state = self.states[:, node]
        m = state.shape[0]
        mu = state.mean(axis=0)
        sd = state.std(axis=0)
        sd = np.where(sd > 0, sd, 1.0)
        loc = _monomials((state - mu) / sd, self.basis.degree)
        k = loc.shape[1]
        occupied, ids = np.unique(_bin_ids(state, self.basis.bins), return_inverse=True)
        n_bins = len(occupied)
        # the smallest unsigned type holding every id: one byte up to 256 bins
        ids = ids.astype(np.min_scalar_type(n_bins - 1))
        if m < n_bins * k:
            raise ValueError(f"need at least as many paths ({m}) as basis "
                             f"functions ({n_bins * k}) at node {node}")
        gram = _moments(loc, ids, n_bins, loc)
        if self.ridge > 0:
            gram = gram + self.ridge * np.eye(k)
        else:
            short = np.flatnonzero(np.atleast_1d(np.linalg.matrix_rank(gram)) < k)
            if short.size:
                raise SingularRegressionError("rank-deficient normal equations with ridge = 0 "
                                              f"at node {node}, bin {occupied[short[0]]}")
        return mu, sd, ids, n_bins, gram

    def fit(self, node: int, values: np.ndarray) -> np.ndarray:
        """Fitted values at each path's own state; ``values`` may be (M,) or
        (M, q) for q simultaneous projections."""
        if node not in self._nodes:
            self._nodes[node] = self._design(node)
        mu, sd, ids, n_bins, gram = self._nodes[node]
        loc = _monomials((self.states[:, node] - mu) / sd, self.basis.degree)
        vals = np.asarray(values, dtype=float)
        v2 = vals[:, None] if vals.ndim == 1 else vals
        coef = np.linalg.solve(gram, _moments(loc, ids, n_bins, v2))
        fitted = np.einsum("ma,maq->mq", loc, coef[ids])
        return fitted[:, 0] if vals.ndim == 1 else fitted


@dataclass(frozen=True)
class SolverConfig:
    picard_tol: float = 1e-4
    picard_max_iter: int = 12
    ridge: float = 1e-8
    z_scheme: str = "regression"

    def __post_init__(self):
        if self.picard_tol <= 0:
            raise ValueError("picard_tol must be positive")
        if self.picard_max_iter < 1:
            raise ValueError("picard_max_iter must be >= 1")
        if self.ridge < 0:
            raise ValueError("ridge must be >= 0")
        if self.z_scheme not in ("regression", "finite-increment"):
            raise ValueError(f"unknown z_scheme {self.z_scheme!r}")


@dataclass(frozen=True, eq=False)
class SolutionTriple:
    """Discrete (Y, Z, K) with solver diagnostics; K must start at 0 and be
    non-decreasing, which is checked at construction."""

    y: ProcessSample
    z: ProcessSample
    k: ProcessSample
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        k = self.k.values
        if np.any(np.abs(k[:, 0]) > _K_TOL):
            raise ValueError("K must start at 0")
        if np.any(np.diff(k, axis=1) < -_K_TOL):
            raise ValueError("K must be non-decreasing")


def _check_finite(arr: np.ndarray, what: str, node: int):
    if not np.all(np.isfinite(arr)):
        raise GeneratorEvaluationError(f"non-finite {what} at node {node}")


def solve_frozen_rbdsde(problem: ProblemSpec, frozen_y, forward: ForwardEnsemble,
                        noise: NoiseEnsemble, plan: RegressionPlan,
                        cfg: SolverConfig, start_index: int = 0, *,
                        obstacle: np.ndarray | None) -> SolutionTriple:
    """One backward sweep with the generator y-arguments frozen at ``frozen_y``.

    ``frozen_y`` is an (M, N+1) array on the same grid, ``plan`` a
    regression plan of ``forward``'s paths, and ``obstacle`` the (M, N+1)
    obstacle process of ``obstacle_values`` (None without an obstacle).
    Values before ``start_index`` replicate the start-node solution (the
    standard extension below the start time).

    Y, Z and K are stored node-major, (N+1, M[, d]), and returned as
    (M, N+1, dim) views; inputs stored node-major (as ``simulate_forward``,
    ``obstacle_values`` and this sweep leave them) are read row by row.
    """
    grid = noise.grid
    n_steps = grid.num_steps
    m = noise.num_paths
    gen = problem.generators
    frozen = np.asarray(frozen_y, dtype=float)
    if frozen.shape != (m, n_steps + 1):
        raise ValueError("frozen_y must have shape (num_paths, N+1)")
    if obstacle is not None and obstacle.shape != (m, n_steps + 1):
        raise ValueError("obstacle must have shape (num_paths, N+1)")
    if noise.ell != gen.ell:
        raise ValueError("noise B dimension does not match the generator")
    # node-major views of the inputs: row i is node (or step) i
    xs = forward.paths.values.transpose(1, 0, 2)
    dw = noise.w_increments.transpose(1, 0, 2)
    frozen = frozen.T
    obstacle = None if obstacle is None else obstacle.T
    dt = grid.dt
    db = noise.b_increments
    nodes = grid.nodes

    y = np.empty((n_steps + 1, m))
    z = np.zeros((n_steps + 1, m, problem.dim))
    # k[i + 1] holds the push at node i until the running sum below
    k = np.zeros((n_steps + 1, m))

    y[n_steps] = problem.terminal(xs[n_steps])
    _check_finite(y[n_steps], "terminal value", n_steps)
    # pathwise rollout (terminal plus integrated drivers and pushes): its
    # spread is a conservative scale for the start-value sampling error,
    # which the post-regression spread of Y would understate
    rollout = y[n_steps].copy()

    for i in range(n_steps - 1, start_index - 1, -1):
        if cfg.z_scheme == "regression":
            zi = plan.fit(i, y[i + 1][:, None] * dw[i]) / dt[i]
        else:
            # finite-increment form: project the martingale increment of Y
            ybar = plan.fit(i, y[i + 1])
            zi = plan.fit(i, (y[i + 1] - ybar)[:, None] * dw[i]) / dt[i]
        z[i] = zi

        f_i = gen.f(float(nodes[i]), xs[i], frozen[i], zi)
        g_i = gen.g(float(nodes[i + 1]), xs[i + 1], frozen[i + 1], zi)
        target = y[i + 1] + f_i * dt[i] + g_i @ db[i]
        _check_finite(target, "generator value", i)

        yhat = plan.fit(i, target)
        y[i] = yhat if obstacle is None else np.maximum(yhat, obstacle[i])
        k[i + 1] = y[i] - yhat
        rollout += f_i * dt[i] + g_i @ db[i] + k[i + 1]

    value_stderr = float(np.std(rollout) / math.sqrt(m))
    for i in range(start_index + 1, n_steps):
        k[i + 1] += k[i]
    if start_index > 0:
        y[:start_index] = y[start_index]

    return SolutionTriple(
        y=ProcessSample(grid=grid, values=y.T[:, :, None]),
        z=ProcessSample(grid=grid, values=z.transpose(1, 0, 2)),
        k=ProcessSample(grid=grid, values=k.T[:, :, None]),
        diagnostics={"value_stderr": value_stderr},
    )


def obstacle_values(problem: ProblemSpec, forward: ForwardEnsemble) -> np.ndarray | None:
    """Obstacle process S_i = h(t_i, X_i) along the forward paths, or None.

    The only evaluation of h along the paths: every sweep of a Picard solve
    reflects against this array.  A non-finite value raises
    GeneratorEvaluationError naming its node.
    """
    if problem.obstacle is None:
        return None
    xs = forward.paths.values
    nodes = forward.paths.grid.nodes
    columns = []
    for i in range(len(nodes)):
        columns.append(problem.obstacle(float(nodes[i]), xs[:, i]))
        _check_finite(columns[-1], "obstacle value", i)
    # stored node-major, like the paths
    return np.stack(columns).T


def _path_mean(term, *arrays: np.ndarray) -> np.ndarray:
    """Mean over axis 0 (the paths) of ``term(*blocks)``, where the blocks
    are the arrays' slices of at most _PATH_BLOCK paths.

    The paths are added one after another in path order, whatever the
    arrays' memory layout: each block is copied path-major behind the
    running sum and reduced along axis 0.  That is the order of ``np.mean``
    on a C-contiguous array, so the record keeps its bits, and no
    temporary is larger than one block.
    """
    m = arrays[0].shape[0]
    total = 0.0
    for lo in range(0, m, _PATH_BLOCK):
        block = term(*(a[lo:lo + _PATH_BLOCK] for a in arrays))
        stack = np.empty((len(block) + 1,) + block.shape[1:])
        stack[0] = total
        stack[1:] = block
        total = np.add.reduce(stack, axis=0)
    return total / m


def _contact_gap(y: np.ndarray, k: np.ndarray, s: np.ndarray) -> np.ndarray:
    """(Y_i - S_i) dK_i where K pushes, 0 elsewhere, for (paths, nodes) blocks."""
    dk = np.diff(k, axis=1)
    return np.where(dk > 0, (y[:, :-1] - s[:, :-1]) * dk, 0.0)


def _flatness_partial(sol: SolutionTriple, obstacle: np.ndarray | None) -> np.ndarray:
    n_nodes = sol.y.grid.num_steps + 1
    if obstacle is None:
        return np.zeros(n_nodes)
    out = np.zeros(n_nodes)
    out[1:] = np.cumsum(_path_mean(_contact_gap, sol.y.values[:, :, 0],
                                   sol.k.values[:, :, 0], obstacle))
    return out


def skorokhod_residual(sol: SolutionTriple, obstacle: np.ndarray | None) -> float:
    """Empirical mean over paths of sum_i (Y_i - S_i) dK_i.

    The discrete reflection makes each term vanish whenever the push is
    positive, so a nonzero residual flags a desynchronized K bookkeeping.
    """
    return float(_flatness_partial(sol, obstacle)[-1])


def picard_solve(problem: ProblemSpec, forward: ForwardEnsemble, noise: NoiseEnsemble,
                 basis: RegressionBasis, cfg: SolverConfig,
                 start_index: int = 0) -> tuple[SolutionTriple, int, list[float]]:
    """Outer iteration freezing y at the previous sweep, from Y^0 = Z^0 = 0.

    Stops when the sup-over-nodes of the empirical mean of |Y^n - Y^{n-1}|^2
    drops below ``cfg.picard_tol``; otherwise runs ``picard_max_iter`` sweeps
    and returns the last iterate flagged non-converged.  One regression plan
    serves every sweep, so each node's design is built once, in the first.
    Returns the solution triple, the number of sweeps, and the gap history
    (the sup over nodes of each sweep's gap).  ``diagnostics["per_iteration"]``
    maps each of mean_Y, mean_Z_norm, mean_K, gap (the node-wise mean-square
    gap) and skorokhod_partial to an (iterations, N+1) array; each is a
    mean over the paths taken in path order.
    """
    obstacle = obstacle_values(problem, forward)
    plan = RegressionPlan(basis, forward.paths.values, cfg.ridge)
    prev = np.zeros((noise.grid.num_steps + 1, noise.num_paths)).T
    rows: list[dict] = []
    converged = False
    for iterations in range(1, cfg.picard_max_iter + 1):
        # drop the last iterate's Z and K before the sweep allocates its own
        sol = None
        sol = solve_frozen_rbdsde(problem, prev, forward, noise, plan, cfg,
                                  start_index=start_index, obstacle=obstacle)
        ycur = sol.y.values[:, :, 0]
        profile = _path_mean(lambda a, b: (a - b) ** 2, ycur, prev)
        rows.append({
            "mean_Y": _path_mean(np.asarray, ycur),
            "mean_Z_norm": _path_mean(lambda z: np.sqrt(np.sum(z ** 2, axis=2)), sol.z.values),
            "mean_K": _path_mean(np.asarray, sol.k.values[:, :, 0]),
            "gap": profile,
            "skorokhod_partial": _flatness_partial(sol, obstacle),
        })
        if float(np.max(profile)) < cfg.picard_tol:
            converged = True
            break
        prev = ycur
    per_iteration = {key: np.array([row[key] for row in rows]) for key in rows[0]}
    sol.diagnostics.update({
        "converged": converged,
        "per_iteration": per_iteration,
        "skorokhod_residual": float(per_iteration["skorokhod_partial"][-1, -1]),
    })
    return sol, iterations, [float(g) for g in np.max(per_iteration["gap"], axis=1)]


@dataclass(frozen=True)
class ComparisonReport:
    """Ordered-solution diagnostics under common random numbers."""

    max_mean_positive_part: float
    node_means: np.ndarray
    node_stderr: np.ndarray
    violation_fraction: float
    both_converged: bool

    def within(self) -> bool:
        """Every node mean of the positive part is within 3 standard errors of 0."""
        return bool(np.all(self.node_means <= 3.0 * self.node_stderr))


def comparison_experiment(problem1: ProblemSpec, problem2: ProblemSpec,
                          forward: ForwardEnsemble, noise: NoiseEnsemble,
                          basis: RegressionBasis, cfg: SolverConfig) -> ComparisonReport:
    """Solve an ordered pair on shared noise and measure (Y1 - Y2)^+.

    The ordering preconditions (terminal, obstacle, generator f, identical g
    and forward coefficients) are spot-checked on sampled arguments first;
    violations raise ComparisonSetupError.
    """
    rng = np.random.Generator(np.random.Philox(key=[77010, 0]))
    grid = noise.grid
    xs = forward.paths.values
    pick_path = rng.integers(0, xs.shape[0], size=_ORDER_SAMPLES)
    pick_node = rng.integers(0, xs.shape[1], size=_ORDER_SAMPLES)
    x_smp = xs[pick_path, pick_node]
    y_smp = rng.normal(0.0, 2.0, size=_ORDER_SAMPLES)
    z_smp = rng.normal(0.0, 2.0, size=(_ORDER_SAMPLES, problem1.dim))
    t_smp = float(rng.uniform(0.0, grid.horizon))

    if float(np.max(problem1.terminal(x_smp) - problem2.terminal(x_smp))) > _ORDER_TOL:
        raise ComparisonSetupError("terminal data are not ordered")
    if problem1.obstacle is not None:
        s1 = problem1.obstacle(t_smp, x_smp)
        s2 = (problem2.obstacle(t_smp, x_smp) if problem2.obstacle is not None
              else np.full(_ORDER_SAMPLES, -np.inf))
        if float(np.max(s1 - s2)) > _ORDER_TOL:
            raise ComparisonSetupError("obstacles are not ordered")
    f_gap = (problem1.generators.f(t_smp, x_smp, y_smp, z_smp)
             - problem2.generators.f(t_smp, x_smp, y_smp, z_smp))
    if float(np.max(f_gap)) > _ORDER_TOL:
        raise ComparisonSetupError("generators f are not ordered")
    g_gap = np.abs(problem1.generators.g(t_smp, x_smp, y_smp, z_smp)
                   - problem2.generators.g(t_smp, x_smp, y_smp, z_smp))
    if float(np.max(g_gap)) > _ORDER_TOL:
        raise ComparisonSetupError("generators g differ")
    if (float(np.max(np.abs(problem1.drift(x_smp) - problem2.drift(x_smp)))) > _ORDER_TOL
            or float(np.max(np.abs(problem1.diffusion(x_smp)
                                   - problem2.diffusion(x_smp)))) > _ORDER_TOL):
        raise ComparisonSetupError("forward coefficients differ; shared paths are invalid")

    sol1, _, _ = picard_solve(problem1, forward, noise, basis, cfg)
    sol2, _, _ = picard_solve(problem2, forward, noise, basis, cfg)
    diff = sol1.y.values[:, :, 0] - sol2.y.values[:, :, 0]
    # np.mean and np.std of a path-major diff, summed in the same order
    node_means = _path_mean(lambda d: np.maximum(d, 0.0), diff)
    centre = _path_mean(np.asarray, diff)
    spread = np.sqrt(_path_mean(lambda d: (d - centre) ** 2, diff))
    node_stderr = spread / math.sqrt(diff.shape[0])
    return ComparisonReport(
        max_mean_positive_part=float(np.max(node_means)),
        node_means=node_means,
        node_stderr=node_stderr,
        violation_fraction=float(np.mean(diff > 1e-12)),
        both_converged=bool(sol1.diagnostics["converged"] and sol2.diagnostics["converged"]),
    )


def majorant_inputs(problem: ProblemSpec, forward: ForwardEnsemble,
                    noise: NoiseEnsemble, c: float) -> tuple[float, float]:
    """Assemble (M, M1) for the gap majorant from empirical norms.

    mu1 = c e^{cT} (1 + E|xi|^2 + E sup|S|^2 + E int |f(s,0,0)|^2 +
    |g(s,0,0)|^2 ds) measured along the forward paths; M is the moment-bound
    constant and M1 = 2 mu1.  The constant c is caller-supplied: the theory
    guarantees its existence as a function of (alpha, T, C) without naming
    it.
    """
    gen = problem.generators
    grid = noise.grid
    xs = forward.paths.values
    m = xs.shape[0]
    xi2 = float(np.mean(problem.terminal(xs[:, -1]) ** 2))
    obstacle = obstacle_values(problem, forward)
    s2 = float(np.mean(np.max(obstacle ** 2, axis=1))) if obstacle is not None else 0.0
    zeros_y = np.zeros(m)
    zeros_z = np.zeros((m, problem.dim))
    integral = 0.0
    for i in range(grid.num_steps):
        t = float(grid.nodes[i])
        f0 = gen.f(t, xs[:, i], zeros_y, zeros_z)
        g0 = gen.g(t, xs[:, i], zeros_y, zeros_z)
        integral += float(np.mean(f0 ** 2 + np.sum(g0 ** 2, axis=1))) * grid.dt[i]
    mu1 = c * math.exp(c * grid.horizon) * (1.0 + xi2 + s2 + integral)
    big_m = moment_bound_constant(c, gen.z_lipschitz, gen.z_fraction, grid.horizon)
    return big_m, 2.0 * mu1


@dataclass(frozen=True)
class MajorantGapReport:
    """Per-iteration comparison of empirical gaps against the majorant."""

    levels: tuple[int, ...]
    fraction_within: np.ndarray
    tolerance_binding: np.ndarray
    all_within: bool


def picard_gap_vs_majorant(gaps: np.ndarray, majorant: MajorantSequence) -> MajorantGapReport:
    """Check E|Y^n - Y^{n-1}|^2 <= phi_{n-2} + 1e-3 node by node.

    ``gaps`` is the (iterations, N+1) gap array of ``picard_solve``'s
    ``diagnostics["per_iteration"]["gap"]``.  Informative: the discretization
    and regression error sit outside the continuous-time bound, so
    exceedances within 1e-3 are marked as tolerance-binding rather than
    failures.
    """
    profiles = np.asarray(gaps)
    n_nodes = majorant.values.shape[1]
    if profiles.shape[1] != n_nodes:
        raise ValueError("gap profiles and majorant live on different grids")
    levels = []
    fracs = []
    binding = []
    ok = True
    for j in range(2, profiles.shape[0] + 1):
        phi_idx = j - 2
        if phi_idx >= majorant.levels:
            break
        gap = profiles[j - 1]
        bound = majorant.values[phi_idx]
        within = gap <= bound + _GAP_TOL
        levels.append(j)
        fracs.append(float(np.mean(within)))
        binding.append(int(np.sum((gap > bound) & within)))
        ok = ok and bool(np.all(within))
    return MajorantGapReport(levels=tuple(levels), fraction_within=np.array(fracs),
                             tolerance_binding=np.array(binding), all_within=ok)
