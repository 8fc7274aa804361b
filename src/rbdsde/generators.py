"""Generator pairs (f, g) with modulus metadata, the built-in problem
catalog, sampled admissibility witnesses, and the Lipschitz envelope
approximants that sandwich a continuous generator between n-Lipschitz ones.

All coefficient callables are vectorized over paths: with M paths and state
dimension d, ``f(t, x, y, z)`` maps (float, (M, d), (M,), (M, d)) to (M,) and
``g`` to (M, l); ``drift`` maps (M, d) to (M, d), ``diffusion`` to (M, d, d),
``terminal`` to (M,), ``obstacle(t, x)`` to (M,).
"""

from __future__ import annotations

import ast
import dataclasses
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .modulus import ModulusSpec, eval_modulus, lipschitz_modulus, log_modulus

__all__ = [
    "GeneratorSpec",
    "ProblemSpec",
    "builtin_problem",
    "catalog_names",
    "shifted_problem",
    "H4WitnessReport",
    "check_h4_witness",
    "ProblemReport",
    "validate_problem",
    "EnvelopeRangeError",
    "EnvelopeApproximant",
    "lipschitz_envelope",
    "EnvelopePropertyReport",
    "envelope_property_check",
    "compile_expression",
    "expression_generator",
]


# check_h4_witness and validate_problem draw their sampled arguments with this
# spread; every sampled check here allows _CHECK_TOL of rounding
_SAMPLE_SCALE = 3.0
_CHECK_TOL = 1e-9


class EnvelopeRangeError(ValueError):
    """An envelope was evaluated outside the range covered by its u grid."""


@dataclass(frozen=True, eq=False)
class GeneratorSpec:
    """A generator pair with its declared admissibility metadata.

    The pair satisfies |f(t,x,y1,z1) - f(t,x,y2,z2)|^2 <= rho(|y1-y2|^2)
    + C ||z1-z2||^2, and the same for g with alpha in place of C.
    ``modulus`` is rho, ``z_lipschitz`` is C > 0 and ``z_fraction`` is
    alpha in (0, 1).  When f splits as
    f(t, x, y, z) = f_y_profile(y) + f_rest(t, x, z), supplying both parts
    lets the envelope machinery run in closed form over the y variable.
    """

    f: Callable
    g: Callable
    modulus: ModulusSpec
    z_lipschitz: float = 1.0
    z_fraction: float = 0.5
    g_depends_on_z: bool = False
    ell: int = 1
    f_y_profile: Callable | None = None
    f_rest: Callable | None = None
    envelope_min_n: float = 1.0

    def __post_init__(self):
        if not 0 < self.z_fraction < 1:
            raise ValueError(f"z_fraction must lie in (0, 1), got {self.z_fraction}")
        if self.z_lipschitz <= 0:
            raise ValueError("z_lipschitz must be positive")

    @property
    def separable(self) -> bool:
        return self.f_y_profile is not None and self.f_rest is not None


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """A full obstacle problem: forward coefficients, generators, data maps."""

    name: str
    dim: int
    horizon: float
    drift: Callable
    diffusion: Callable
    generators: GeneratorSpec
    terminal: Callable
    obstacle: Callable | None
    spot: np.ndarray
    lipschitz_const: float = 1.0
    growth_const: float = 1.0

    def __post_init__(self):
        spot = np.atleast_1d(np.asarray(self.spot, dtype=float))
        object.__setattr__(self, "spot", spot)
        if spot.shape != (self.dim,):
            raise ValueError("spot must have shape (dim,)")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")


# ---------------------------------------------------------------------------
# built-in catalog


def _brownian_problem(name: str, horizon: float, gen: GeneratorSpec, obstacle_gap: float,
                      with_obstacle: bool) -> ProblemSpec:
    """A problem on a one-dimensional Brownian forward from 0 with terminal
    map x and, unless ``with_obstacle`` is false, obstacle x - obstacle_gap."""

    def drift(x):
        return np.zeros_like(x)

    def diffusion(x):
        return np.ones((len(x), 1, 1))

    obstacle = (lambda t, x: x[:, 0] - obstacle_gap) if with_obstacle else None
    return ProblemSpec(
        name=name, dim=1, horizon=horizon, drift=drift, diffusion=diffusion,
        generators=gen, terminal=lambda x: x[:, 0].copy(), obstacle=obstacle,
        spot=np.zeros(1), lipschitz_const=1.0,
        growth_const=max(1.0, obstacle_gap),
    )


def _zero_g(t, x, y, z):
    return np.zeros((len(y), 1))


def _build_paper_1_4(C=2.0, alpha=0.5, horizon=1.0, obstacle_gap=1.0,
                     with_obstacle=True, g_z_free=False):
    # f = e^{-|y|} / T^{1/4} + sqrt(C/2) z,  g = e^{-|y|} / T^{1/4} + sqrt(alpha/2) z.
    # The y-part is 1-Lipschitz scaled by T^{-1/4}, so (a+b)^2 <= 2a^2 + 2b^2
    # certifies the squared bound with rho(u) = (2/sqrt(T)) u.
    T = float(horizon)
    y_scale = T ** -0.25
    fz = math.sqrt(C / 2.0)
    gz = 0.0 if g_z_free else math.sqrt(alpha / 2.0)

    def profile(y):
        return np.exp(-np.abs(y)) * y_scale

    def f(t, x, y, z):
        return profile(y) + fz * z[:, 0]

    def g(t, x, y, z):
        return (profile(y) + gz * z[:, 0])[:, None]

    gen = GeneratorSpec(
        f=f, g=g,
        modulus=lipschitz_modulus(2.0 / math.sqrt(T)),
        z_lipschitz=C, z_fraction=alpha, g_depends_on_z=not g_z_free, ell=1,
        f_y_profile=profile, f_rest=lambda t, x, z: fz * z[:, 0],
        envelope_min_n=1.0,
    )
    return _brownian_problem("paper-1-4", T, gen, obstacle_gap, with_obstacle)


def _build_lipschitz_linear(a=0.25, b_coef=0.2, horizon=1.0, obstacle_gap=4.0,
                            with_obstacle=True):
    T = float(horizon)

    def f(t, x, y, z):
        return a * y + b_coef * z[:, 0]

    gen = GeneratorSpec(
        f=f, g=_zero_g,
        modulus=lipschitz_modulus(2.0 * a * a + 1e-12),
        z_lipschitz=max(2.0 * b_coef * b_coef, 1e-6), z_fraction=0.5,
        g_depends_on_z=False, ell=1,
        f_y_profile=lambda y: a * y, f_rest=lambda t, x, z: b_coef * z[:, 0],
        envelope_min_n=max(1.0, abs(a)),
    )
    return _brownian_problem("lipschitz-linear", T, gen, obstacle_gap, with_obstacle)


def _build_american_put_like(strike=100.0, rate=0.06, vol=0.2, horizon=0.5, spot=100.0):
    T = float(horizon)

    def drift(x):
        return rate * x

    def diffusion(x):
        return (vol * x)[:, :, None] * np.ones((1, 1, 1))

    def payoff(x):
        return np.maximum(strike - x[:, 0], 0.0)

    def f(t, x, y, z):
        return -rate * y

    gen = GeneratorSpec(
        f=f, g=_zero_g,
        modulus=lipschitz_modulus(rate * rate),
        z_lipschitz=1.0, z_fraction=0.5, g_depends_on_z=False, ell=1,
        f_y_profile=lambda y: -rate * y, f_rest=lambda t, x, z: np.zeros(len(z)),
        envelope_min_n=max(1.0, rate),
    )
    return ProblemSpec(
        name="american-put-like", dim=1, horizon=T, drift=drift, diffusion=diffusion,
        generators=gen, terminal=payoff, obstacle=lambda t, x: payoff(x),
        spot=np.array([float(spot)]), lipschitz_const=max(1.0, rate, vol),
        growth_const=float(strike),
    )


def _build_log_modulus(delta=math.exp(-2), g_scale=0.3, horizon=1.0,
                       obstacle_gap=1.0, with_obstacle=True):
    # f(y) = sqrt(rho1(min(y^2, delta))) realizes |f(y1)-f(y2)|^2 <= rho1(|y1-y2|^2)
    # exactly: r -> sqrt(rho1(r^2)) is concave increasing on [0, sqrt(delta)],
    # hence subadditive, and the clamp keeps arguments in that range.
    T = float(horizon)
    lm = log_modulus(delta)

    def profile(y):
        u = np.minimum(y * y, delta)
        return np.sqrt(eval_modulus(lm, u))

    def f(t, x, y, z):
        return profile(y)

    def g(t, x, y, z):
        return (g_scale * profile(y))[:, None]

    gen = GeneratorSpec(
        f=f, g=g, modulus=lm, z_lipschitz=1.0, z_fraction=0.5,
        g_depends_on_z=False, ell=1,
        f_y_profile=profile, f_rest=lambda t, x, z: np.zeros(len(z)),
        envelope_min_n=1.0,
    )
    return _brownian_problem("log-modulus", T, gen, obstacle_gap, with_obstacle)


_CATALOG = {
    "paper-1-4": _build_paper_1_4,
    "lipschitz-linear": _build_lipschitz_linear,
    "american-put-like": _build_american_put_like,
    "log-modulus": _build_log_modulus,
}


def catalog_names() -> tuple[str, ...]:
    return tuple(_CATALOG)


def builtin_problem(name: str, **overrides) -> ProblemSpec:
    """Instantiate a catalog problem, optionally overriding its parameters.

    Raises a catalog error (KeyError) for unknown names and TypeError for
    parameters the entry does not accept.
    """
    try:
        builder = _CATALOG[name]
    except KeyError:
        raise KeyError(f"unknown catalog problem {name!r}; available: {', '.join(_CATALOG)}") from None
    return builder(**overrides)


def shifted_problem(problem: ProblemSpec, kind: str, amount: float) -> ProblemSpec:
    """Shift one data map upward by a constant; used for ordered comparisons."""
    if kind == "terminal":
        base = problem.terminal
        return dataclasses.replace(problem, terminal=lambda x: base(x) + amount)
    if kind == "obstacle":
        if problem.obstacle is None:
            raise ValueError("problem has no obstacle to shift")
        base = problem.obstacle
        return dataclasses.replace(problem, obstacle=lambda t, x: base(t, x) + amount)
    if kind == "generator":
        gen = problem.generators
        base_f = gen.f
        new_profile = None
        if gen.f_y_profile is not None:
            prof = gen.f_y_profile
            new_profile = lambda y: prof(y) + amount
        new_gen = dataclasses.replace(gen, f=lambda t, x, y, z: base_f(t, x, y, z) + amount,
                                      f_y_profile=new_profile)
        return dataclasses.replace(problem, generators=new_gen)
    raise ValueError(f"unknown shift kind {kind!r}")


# ---------------------------------------------------------------------------
# sampled admissibility witnesses


@dataclass(frozen=True)
class H4WitnessReport:
    f_ok: bool
    g_ok: bool
    max_f_violation: float
    max_g_violation: float

    @property
    def all_pass(self) -> bool:
        return self.f_ok and self.g_ok


def check_h4_witness(gen: GeneratorSpec, horizon: float) -> H4WitnessReport:
    """Sampled check of the squared modulus bounds on the generator pair.

    For random quadruples in one state dimension, |f(t,x,y1,z1) -
    f(t,x,y2,z2)|^2 must not exceed rho(|y1-y2|^2) + C ||z1-z2||^2, and
    likewise for g with alpha in place of C.
    """
    rng = np.random.Generator(np.random.Philox(key=[77001, 0]))
    batches = 32
    per = 10_000 // batches
    worst_f = 0.0
    worst_g = 0.0
    for _ in range(batches):
        t = float(rng.uniform(0.0, horizon))
        x = rng.normal(0.0, _SAMPLE_SCALE, size=(per, 1))
        y1 = rng.normal(0.0, _SAMPLE_SCALE, size=per)
        y2 = rng.normal(0.0, _SAMPLE_SCALE, size=per)
        z1 = rng.normal(0.0, _SAMPLE_SCALE, size=(per, 1))
        z2 = rng.normal(0.0, _SAMPLE_SCALE, size=(per, 1))
        rho = eval_modulus(gen.modulus, (y1 - y2) ** 2)
        dz2 = np.sum((z1 - z2) ** 2, axis=1)
        df2 = (gen.f(t, x, y1, z1) - gen.f(t, x, y2, z2)) ** 2
        worst_f = max(worst_f, float(np.max(df2 - rho - gen.z_lipschitz * dz2)))
        dg2 = np.sum((gen.g(t, x, y1, z1) - gen.g(t, x, y2, z2)) ** 2, axis=1)
        worst_g = max(worst_g, float(np.max(dg2 - rho - gen.z_fraction * dz2)))
    return H4WitnessReport(f_ok=worst_f <= _CHECK_TOL, g_ok=worst_g <= _CHECK_TOL,
                           max_f_violation=worst_f, max_g_violation=worst_g)


@dataclass(frozen=True)
class ProblemReport:
    terminal_dominates_obstacle: bool
    coefficients_lipschitz: bool
    obstacle_growth: bool
    max_violation: float

    @property
    def all_pass(self) -> bool:
        return (self.terminal_dominates_obstacle and self.coefficients_lipschitz
                and self.obstacle_growth)


def validate_problem(problem: ProblemSpec) -> ProblemReport:
    """Sampled check of the obstacle-problem data assumptions."""
    rng = np.random.Generator(np.random.Philox(key=[77002, 0]))
    d = problem.dim
    scale = _SAMPLE_SCALE * max(1.0, float(np.max(np.abs(problem.spot), initial=1.0)))
    xs = problem.spot[None, :] + rng.normal(0.0, scale, size=(1000, d))
    worst = 0.0

    if problem.obstacle is None:
        dom_ok = True
    else:
        gap = problem.obstacle(problem.horizon, xs) - problem.terminal(xs)
        worst = max(worst, float(np.max(gap)))
        dom_ok = float(np.max(gap)) <= _CHECK_TOL

    x2 = problem.spot[None, :] + rng.normal(0.0, scale, size=(1000, d))
    dx = np.sqrt(np.sum((xs - x2) ** 2, axis=1))
    L = problem.lipschitz_const * (1.0 + 1e-12)
    db = np.sqrt(np.sum((problem.drift(xs) - problem.drift(x2)) ** 2, axis=1))
    ds = np.sqrt(np.sum((problem.diffusion(xs) - problem.diffusion(x2)) ** 2, axis=(1, 2)))
    dl = np.abs(problem.terminal(xs) - problem.terminal(x2))
    lip_viol = float(np.max(np.concatenate([db - L * dx, ds - L * dx, dl - L * dx])))
    worst = max(worst, lip_viol)
    lip_ok = lip_viol <= _CHECK_TOL

    if problem.obstacle is None:
        growth_ok = True
    else:
        ts = rng.uniform(0.0, problem.horizon, size=8)
        growth_viol = 0.0
        # linear growth: |h(t, x)| <= growth_const (1 + |x|_1)
        bound = problem.growth_const * (1.0 + np.sum(np.abs(xs), axis=1))
        for t in ts:
            growth_viol = max(growth_viol, float(np.max(np.abs(problem.obstacle(float(t), xs)) - bound)))
        worst = max(worst, growth_viol)
        growth_ok = growth_viol <= _CHECK_TOL

    return ProblemReport(terminal_dominates_obstacle=dom_ok,
                         coefficients_lipschitz=lip_ok,
                         obstacle_growth=growth_ok,
                         max_violation=worst)


# ---------------------------------------------------------------------------
# Lipschitz envelopes


def _running_argmin(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    run = np.minimum.accumulate(vals)
    arg = np.where(vals <= run, np.arange(len(vals)), 0)
    return run, np.maximum.accumulate(arg)


@dataclass(frozen=True, eq=False)
class EnvelopeApproximant:
    """n-Lipschitz approximant of f over a finite u grid.

    ``direction`` "lower" evaluates inf_u { f(t,x,u,z) + n|y-u| }, "upper"
    the sup with -n|y-u|; the inf over the rationals is replaced by the grid,
    which over/undershoots by at most (n + L) * step for a base that is
    L-Lipschitz in y; ``grid_tol`` is this bound at L = 1.  For a separable
    base, phi below is its signed y-profile on the grid.
    """

    base: GeneratorSpec
    n: int
    direction: str
    u_nodes: np.ndarray
    _left_min: np.ndarray | None = None      # running min of phi - n u and its argmin
    _left_arg: np.ndarray | None = None
    _right_min: np.ndarray | None = None     # suffix min of phi + n u and its argmin
    _right_arg: np.ndarray | None = None

    @property
    def step(self) -> float:
        # the nominal spacing; a difference of neighbouring nodes would carry
        # the cancellation error of the node values
        return float((self.u_nodes[-1] - self.u_nodes[0]) / (len(self.u_nodes) - 1))

    @property
    def grid_tol(self) -> float:
        return (self.n + 1.0) * self.step

    @property
    def sign(self) -> float:
        return 1.0 if self.direction == "lower" else -1.0

    def evaluate(self, t, x, y, z, return_boundary: bool = False):
        """Envelope values at the query points; optionally flag queries whose
        optimizer landed on the edge of the u grid (range truncation)."""
        y = np.asarray(y, dtype=float)
        u = self.u_nodes
        if np.any(y < u[0]) or np.any(y > u[-1]):
            raise EnvelopeRangeError(
                f"query y outside the envelope grid [{u[0]}, {u[-1]}]")
        if self._left_min is not None:
            core, arg = self._eval_profile(y)
            vals = self.sign * core + self.base.f_rest(t, x, z)
        else:
            core, arg = self._eval_scan(t, x, y, z)
            vals = self.sign * core
        if not return_boundary:
            return vals
        return vals, (arg == 0) | (arg == len(u) - 1)

    def _eval_profile(self, y):
        u = self.u_nodes
        i_left = np.clip(np.searchsorted(u, y, side="right") - 1, 0, len(u) - 1)
        i_right = np.clip(i_left + 1, 0, len(u) - 1)
        left = self._left_min[i_left] + self.n * y
        right = self._right_min[i_right] - self.n * y
        # i_right == i_left only at the top edge; both candidates stay valid.
        take_left = left <= right
        core = np.where(take_left, left, right)
        arg = np.where(take_left, self._left_arg[i_left], self._right_arg[i_right])
        return core, arg

    def _eval_scan(self, t, x, y, z):
        u = self.u_nodes
        m = len(y)
        sgn = self.sign
        best = np.full(m, np.inf)
        arg = np.zeros(m, dtype=int)
        chunk = max(1, int(2_000_000 // max(m, 1)))
        for j0 in range(0, len(u), chunk):
            uc = u[j0:j0 + chunk]
            c = len(uc)
            xt = np.repeat(x, c, axis=0)
            zt = np.repeat(z, c, axis=0)
            yt = np.tile(uc, m)
            fv = sgn * self.base.f(t, xt, yt, zt)
            cand = fv.reshape(m, c) + self.n * np.abs(y[:, None] - uc[None, :])
            local = np.argmin(cand, axis=1)
            local_best = cand[np.arange(m), local]
            better = local_best < best
            best = np.where(better, local_best, best)
            arg = np.where(better, local + j0, arg)
        return best, arg

    def as_generator(self) -> GeneratorSpec:
        """Wrap this envelope as a generator spec (same g, y-envelope f)."""
        env = self

        def f(t, x, y, z):
            return env.evaluate(t, x, y, z)

        return dataclasses.replace(
            self.base, f=f, f_y_profile=None, f_rest=None,
            modulus=lipschitz_modulus(2.0 * self.n * self.n),
        )


def lipschitz_envelope(base: GeneratorSpec, n: int, direction: str,
                       *, u_range: float = 50.0, u_step: float = 1e-3) -> EnvelopeApproximant:
    """Build the n-Lipschitz lower or upper envelope of the base generator."""
    if direction not in ("lower", "upper"):
        raise ValueError(f"direction must be 'lower' or 'upper', got {direction!r}")
    if n < max(1, math.ceil(base.envelope_min_n)):
        raise ValueError(f"n={n} is below the admissible minimum "
                         f"{max(1, math.ceil(base.envelope_min_n))}")
    count = int(round(2.0 * u_range / u_step)) + 1
    u_nodes = np.linspace(-u_range, u_range, count)
    left_min = left_arg = right_min = right_arg = None
    if base.separable:
        sgn = 1.0 if direction == "lower" else -1.0
        phi = sgn * base.f_y_profile(u_nodes)
        left_min, left_arg = _running_argmin(phi - n * u_nodes)
        rm, ra = _running_argmin((phi + n * u_nodes)[::-1])
        right_min, right_arg = rm[::-1].copy(), (len(u_nodes) - 1 - ra)[::-1].copy()
    return EnvelopeApproximant(base=base, n=int(n), direction=direction,
                               u_nodes=u_nodes, _left_min=left_min, _left_arg=left_arg,
                               _right_min=right_min, _right_arg=right_arg)


@dataclass(frozen=True)
class EnvelopePropertyReport:
    """Outcome of the six envelope property checks on sampled points."""

    sandwich_ok: bool
    monotone_ok: bool
    growth_ok: bool
    xy_lipschitz_ok: bool
    z_lipschitz_ok: bool
    converges_ok: bool
    boundary_flagged: int
    convergence_errors: tuple[float, ...]
    max_violation: float

    @property
    def all_pass(self) -> bool:
        return (self.sandwich_ok and self.monotone_ok and self.growth_ok
                and self.xy_lipschitz_ok and self.z_lipschitz_ok and self.converges_ok)


def envelope_property_check(base: GeneratorSpec, n_values, *, num_points: int = 10_000,
                            u_range: float = 50.0, u_step: float = 1e-3,
                            growth_phi: float = 2.0, growth_c: float = 2.0,
                            seed: int = 77003) -> EnvelopePropertyReport:
    """Check the sandwich, monotonicity, growth, Lipschitz and convergence
    properties of the envelope family on sampled points at one time in
    [0, 1], with y drawn from N(0, 2^2).

    A violation at a point whose envelope optimizer saturates the u-grid edge
    is reported as a range truncation (``boundary_flagged``), not a property
    failure.
    """
    n_values = sorted(int(n) for n in n_values)
    if len(n_values) < 2:
        raise ValueError("need at least two consecutive n values")
    rng = np.random.Generator(np.random.Philox(key=[seed, 0]))
    dim = 1
    t = float(rng.uniform(0.0, 1.0))
    xs = rng.normal(0.0, 1.0, size=(num_points, dim))
    ys = rng.normal(0.0, 2.0, size=num_points)
    zs = rng.normal(0.0, 1.0, size=(num_points, dim))
    perm = rng.permutation(num_points)  # shuffled (x, y) partners
    z2 = rng.normal(0.0, 1.0, size=(num_points, dim))  # second z draws
    f_vals = base.f(t, xs, ys, zs)

    # each envelope is built once and dropped once its values are taken
    lowers, uppers, lo_hits, up_hits, xy_moved, z_moved = {}, {}, {}, {}, {}, {}
    grid_tol = {}
    for n in n_values:
        lo = lipschitz_envelope(base, n, "lower", u_range=u_range, u_step=u_step)
        up = lipschitz_envelope(base, n, "upper", u_range=u_range, u_step=u_step)
        grid_tol[n] = lo.grid_tol
        lowers[n], lo_hits[n] = lo.evaluate(t, xs, ys, zs, return_boundary=True)
        uppers[n], up_hits[n] = up.evaluate(t, xs, ys, zs, return_boundary=True)
        xy_moved[n] = lo.evaluate(t, xs[perm], ys[perm], zs, return_boundary=True)
        z_moved[n] = lo.evaluate(t, xs, ys, z2, return_boundary=True)
    any_hit = np.zeros(num_points, dtype=bool)
    for n in n_values:
        any_hit |= lo_hits[n] | up_hits[n]

    worst = 0.0

    def gated(viol, hits):
        # max violation at clean points; boundary-saturated points are excused
        nonlocal worst
        clean = np.where(hits, -np.inf, viol)
        v = float(np.max(clean, initial=-np.inf))
        worst = max(worst, v)
        return v <= _CHECK_TOL

    sandwich = True
    for n in n_values:
        sandwich &= gated(lowers[n] - f_vals - grid_tol[n], lo_hits[n])
        sandwich &= gated(f_vals - uppers[n] - grid_tol[n], up_hits[n])

    monotone = True
    for a, b in zip(n_values, n_values[1:]):
        pair_tol = grid_tol[a] + grid_tol[b]
        monotone &= gated(lowers[a] - lowers[b] - pair_tol, lo_hits[a] | lo_hits[b])
        monotone &= gated(uppers[b] - uppers[a] - pair_tol, up_hits[a] | up_hits[b])

    lin = growth_phi + growth_c * (np.abs(xs[:, 0]) + np.abs(ys) + np.abs(zs[:, 0]))
    growth = True
    for n in n_values:
        growth &= gated(np.abs(lowers[n]) - lin - grid_tol[n], lo_hits[n])
        growth &= gated(np.abs(uppers[n]) - lin - grid_tol[n], up_hits[n])

    # n-Lipschitz in (x, y): pair each point with a shuffled partner
    xy_ok = True
    for n in n_values:
        v2, h2 = xy_moved[n]
        move = np.abs(xs[:, 0] - xs[perm, 0]) + np.abs(ys - ys[perm])
        xy_ok &= gated(np.abs(lowers[n] - v2) - n * move - 2.0 * grid_tol[n],
                       lo_hits[n] | h2)

    # C-Lipschitz^2 in z, checked in the equivalent square-root form so the
    # grid error enters as an additive slack
    z_ok = True
    for n in n_values:
        v2, h2 = z_moved[n]
        dz = np.sqrt(np.sum((zs - z2) ** 2, axis=1))
        z_ok &= gated(np.abs(lowers[n] - v2) - math.sqrt(base.z_lipschitz) * dz
                      - 2.0 * grid_tol[n], lo_hits[n] | h2)

    errs = []
    for n in n_values:
        clean = ~(lo_hits[n] | up_hits[n])
        err = max(float(np.max(np.abs(lowers[n] - f_vals)[clean], initial=0.0)),
                  float(np.max(np.abs(uppers[n] - f_vals)[clean], initial=0.0)))
        errs.append(err)
    # approach to f is monotone up to the grid resolution (an n-Lipschitz base
    # has zero true error for every n, leaving only grid noise that grows
    # linearly with n)
    pair_tol = [grid_tol[a] + grid_tol[b] for a, b in zip(n_values, n_values[1:])]
    conv = all(b <= a + pt for (a, b), pt in zip(zip(errs, errs[1:]), pair_tol))
    conv &= errs[-1] <= errs[0] + grid_tol[n_values[0]] + grid_tol[n_values[-1]]

    return EnvelopePropertyReport(
        sandwich_ok=bool(sandwich), monotone_ok=bool(monotone), growth_ok=bool(growth),
        xy_lipschitz_ok=bool(xy_ok), z_lipschitz_ok=bool(z_ok), converges_ok=bool(conv),
        boundary_flagged=int(np.sum(any_hit)), convergence_errors=tuple(errs),
        max_violation=worst)


# ---------------------------------------------------------------------------
# expression-defined generators

_BINOPS = {ast.Add: np.add, ast.Sub: np.subtract, ast.Mult: np.multiply,
           ast.Div: np.divide, ast.Pow: np.power}
_CALLS = {"exp": np.exp, "abs": np.abs, "sqrt": np.sqrt}
_REDUCERS = {"max": np.maximum, "min": np.minimum}


def _compile(node, names, used):
    """Check ``node`` against the expression grammar and build its evaluator,
    a function of the variable environment; names read are added to ``used``."""
    if isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)):
            raise ValueError(f"constant {node.value!r} not allowed")
        value = float(node.value)
        return lambda env: value
    if isinstance(node, ast.Name):
        if node.id not in names:
            raise ValueError(f"unknown name {node.id!r}")
        used.add(node.id)
        return lambda env: env[node.id]
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        op = _BINOPS[type(node.op)]
        left = _compile(node.left, names, used)
        right = _compile(node.right, names, used)
        return lambda env: op(left(env), right(env))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        operand = _compile(node.operand, names, used)
        return operand if isinstance(node.op, ast.UAdd) else lambda env: -operand(env)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        fname = node.func.id
        if node.keywords:
            raise ValueError(f"call {fname!r} with keyword arguments not allowed")
        if fname in _CALLS and len(node.args) == 1:
            call, arg = _CALLS[fname], _compile(node.args[0], names, used)
            return lambda env: call(arg(env))
        if fname in _REDUCERS and len(node.args) >= 2:
            reducer = _REDUCERS[fname]
            args = [_compile(a, names, used) for a in node.args]

            def reduce(env):
                vals = [a(env) for a in args]
                out = vals[0]
                for v in vals[1:]:
                    out = reducer(out, v)
                return out

            return reduce
        raise ValueError(f"call {fname!r} with {len(node.args)} args not allowed")
    raise ValueError(f"expression node {type(node).__name__} not allowed")


def compile_expression(src: str):
    """Compile an arithmetic expression over (t, x, y, z) into a vectorized
    callable; supports + - * / and powers plus exp, abs, sqrt, max, min.

    Only one state dimension is supported: x and z are exposed as scalars
    per path.
    """
    used = set()
    evaluate = _compile(ast.parse(src, mode="eval").body, {"t", "x", "y", "z"}, used)

    def fn(t, x, y, z):
        if x.shape[1] != 1:
            raise ValueError("expression generators support dim=1 only")
        env = {"t": float(t), "x": x[:, 0], "y": np.asarray(y, dtype=float), "z": z[:, 0]}
        val = np.asarray(evaluate(env), dtype=float)
        return np.broadcast_to(val, np.shape(y)).astype(float)

    fn.uses_z = "z" in used
    return fn


def expression_generator(f_src: str, g_src: str, modulus: ModulusSpec,
                         *, z_lipschitz: float = 1.0, z_fraction: float = 0.5) -> GeneratorSpec:
    """Build a GeneratorSpec from expression strings for f and g (scalar g)."""
    f_fn = compile_expression(f_src)
    g_fn = compile_expression(g_src)

    def g(t, x, y, z):
        return g_fn(t, x, y, z)[:, None]

    return GeneratorSpec(f=f_fn, g=g, modulus=modulus, z_lipschitz=z_lipschitz,
                         z_fraction=z_fraction, g_depends_on_z=g_fn.uses_z, ell=1)
