"""Concave modulus calculus.

A modulus rho(t, u) replaces the Lipschitz constant of the generators in the
y variable: it is continuous, concave, non-decreasing with rho(t, 0) = 0, and
the zero function must be the unique solution of u' = -M rho(t, u), u(T) = 0.
This module evaluates the built-in moduli, checks the axioms numerically,
runs the uniqueness (Osgood-type) test, and builds the majorant sequence and
horizon partition that control the Picard iteration.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp

from .paths import TimeGrid

__all__ = [
    "ModulusSpec",
    "lipschitz_modulus",
    "log_modulus",
    "loglog_modulus",
    "tabulated_modulus",
    "tabulated_from_csv",
    "eval_modulus",
    "AxiomReport",
    "verify_modulus_axioms",
    "osgood_integral",
    "UniquenessReport",
    "condition_a_uniqueness_check",
    "MajorantSequence",
    "majorant_sequence",
    "SegmentInfo",
    "constant_budgets",
    "NonTerminationError",
    "horizon_partition",
    "moment_bound_constant",
    "builtin_condition_a_fixtures",
]

_VARIANTS = ("lipschitz", "log", "loglog", "tabulated")

# Default switch points for the two logarithmic profiles.  The log-log shape
# u ln(1/u) ln(ln(1/u)) is increasing only up to u ~ 0.1065, so its switch
# point must sit below that for the monotone axiom to hold; exp(-3) does.
_LOG_DELTA = math.exp(-2)
_LOGLOG_DELTA = math.exp(-3)


class NonTerminationError(RuntimeError):
    """Horizon partition failed to reach 0 within the segment cap.

    ``breakpoints`` holds T = T_0 > T_1 > ... reached before the cap, and
    ``last_breakpoint`` is its final entry at full precision (the message
    rounds it to six significant digits).
    """

    def __init__(self, message: str, *, breakpoints):
        super().__init__(message)
        self.breakpoints = np.array(breakpoints, dtype=float)
        self.last_breakpoint = float(self.breakpoints[-1])

    def __reduce__(self):
        # pickle rebuilds through __init__, which needs the breakpoints too
        return functools.partial(type(self), breakpoints=self.breakpoints), self.args


@dataclass(frozen=True)
class ModulusSpec:
    """A concave modulus plus the z-coupling constants of the generator bound.

    variant "lipschitz" evaluates c_rho * u; "log" and "loglog" evaluate the
    u ln(1/u) and u ln(1/u) ln(ln(1/u)) profiles below ``delta`` and continue
    with the C^1 linear extension above it; "tabulated" interpolates a
    user-supplied (u, rho(u)) table linearly, extrapolating with the last
    segment slope.  ``z_lipschitz`` is the constant multiplying ||z1 - z2||^2
    in the f bound and ``alpha`` its counterpart in the g bound.

    Every built-in variant ignores the time argument: rho(t, u) = rho(u).

    The linear extension above the switch point (``delta``, or the last table
    abscissa) is fixed at construction, and so is the tabulated variant's
    table as read-only arrays.  These cached values take no part in equality
    or hashing, which compare the declared fields.
    """

    variant: str
    c_rho: float = 1.0
    delta: float = 0.0
    table: tuple[tuple[float, float], ...] | None = None
    z_lipschitz: float = 1.0
    alpha: float = 0.5
    # above _switch, rho(u) = _head + _kappa * (u - _switch); unused for lipschitz
    _switch: float = field(default=math.inf, init=False, repr=False, compare=False)
    _head: float = field(default=0.0, init=False, repr=False, compare=False)
    _kappa: float = field(default=0.0, init=False, repr=False, compare=False)
    _xs: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _ys: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ValueError(f"unknown modulus variant {self.variant!r}")
        if not 0 < self.alpha < 1:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.z_lipschitz <= 0:
            raise ValueError("z_lipschitz must be positive")
        if self.variant == "lipschitz":
            if self.c_rho < 0:
                raise ValueError("c_rho must be non-negative")
            return
        delta = self.delta
        if self.variant == "log":
            # at delta = 1/e the extension slope is exactly 0 (flat), still
            # monotone and concave, so the switch point may sit there
            if not 0 < delta <= math.exp(-1):
                raise ValueError("delta must lie in (0, 1/e]")
            extension = (delta, delta * math.log(1.0 / delta), _kappa_log(delta))
        elif self.variant == "loglog":
            if not 0 < delta < math.exp(-1):
                raise ValueError("delta must lie in (0, 1/e)")
            extension = (delta, delta * math.log(1.0 / delta) * math.log(math.log(1.0 / delta)),
                         _kappa_loglog(delta))
        else:
            if self.table is None or len(self.table) < 2:
                raise ValueError("tabulated modulus needs at least two (u, rho) points")
            us = [p[0] for p in self.table]
            if us[0] < 0 or any(b <= a for a, b in zip(us, us[1:])):
                raise ValueError("table abscissae must be non-negative and strictly increasing")
            xs = np.array(us, dtype=float)
            ys = np.array([p[1] for p in self.table], dtype=float)
            xs.flags.writeable = False
            ys.flags.writeable = False
            object.__setattr__(self, "_xs", xs)
            object.__setattr__(self, "_ys", ys)
            extension = (float(xs[-1]), float(ys[-1]),
                         float((ys[-1] - ys[-2]) / (xs[-1] - xs[-2])))
        for name, value in zip(("_switch", "_head", "_kappa"), extension):
            object.__setattr__(self, name, value)


def lipschitz_modulus(c_rho: float = 1.0, *, z_lipschitz: float = 1.0, alpha: float = 0.5) -> ModulusSpec:
    return ModulusSpec(variant="lipschitz", c_rho=c_rho, z_lipschitz=z_lipschitz, alpha=alpha)


def log_modulus(delta: float = _LOG_DELTA, *, z_lipschitz: float = 1.0, alpha: float = 0.5) -> ModulusSpec:
    return ModulusSpec(variant="log", delta=delta, z_lipschitz=z_lipschitz, alpha=alpha)


def loglog_modulus(delta: float = _LOGLOG_DELTA, *, z_lipschitz: float = 1.0, alpha: float = 0.5) -> ModulusSpec:
    return ModulusSpec(variant="loglog", delta=delta, z_lipschitz=z_lipschitz, alpha=alpha)


def tabulated_modulus(points, *, z_lipschitz: float = 1.0, alpha: float = 0.5) -> ModulusSpec:
    """Tabulated modulus; a (0, 0) anchor is prepended if missing."""
    pts = [(float(u), float(v)) for u, v in points]
    if not pts or pts[0][0] > 0.0:
        pts.insert(0, (0.0, 0.0))
    return ModulusSpec(variant="tabulated", table=tuple(pts), z_lipschitz=z_lipschitz, alpha=alpha)


def tabulated_from_csv(path, **kwargs) -> ModulusSpec:
    """Load a two-column (u, rho) CSV; a leading header row is skipped."""
    pts = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row:
                continue
            try:
                pts.append((float(row[0]), float(row[1])))
            except ValueError:
                if pts:
                    raise
                continue  # header
    return tabulated_modulus(pts, **kwargs)


def _kappa_log(delta: float) -> float:
    # left derivative of u ln(1/u) at delta
    return math.log(1.0 / delta) - 1.0


def _kappa_loglog(delta: float) -> float:
    # left derivative of u ln(1/u) ln(ln(1/u)) at delta
    big_l = math.log(1.0 / delta)
    return math.log(big_l) * (big_l - 1.0) - 1.0


def eval_modulus(spec: ModulusSpec, t: float, u):
    """Evaluate rho(t, u); ``u`` may be a scalar or an array, all entries >= 0.

    Every built-in variant ignores t (the argument is accepted for interface
    uniformity and for tabulated time-dependent extensions).  A float ``u``
    (``np.float64`` included) takes a scalar path that skips the array
    set-up and returns the same float as the array path, bit for bit: it
    uses the same ``np.log`` and ``np.interp`` calls, not ``math.log``.
    """
    if isinstance(u, float):
        if u < 0:
            raise ValueError("modulus argument u must be non-negative")
        if spec.variant == "lipschitz":
            return float(spec.c_rho * u)
        if u > spec._switch:
            return float(spec._head + spec._kappa * (u - spec._switch))
        if spec.variant == "tabulated":
            return float(np.interp(u, spec._xs, spec._ys))
        if u == 0.0:
            return 0.0
        uc = max(u, 1e-300)
        if spec.variant == "log":
            return float(uc * np.log(1.0 / uc))
        big_l = np.log(1.0 / uc)
        return float(uc * big_l * np.log(big_l))

    u_arr = np.asarray(u, dtype=float)
    if np.any(u_arr < 0):
        raise ValueError("modulus argument u must be non-negative")
    scalar = u_arr.ndim == 0
    u_arr = np.atleast_1d(u_arr)

    if spec.variant == "lipschitz":
        out = spec.c_rho * u_arr
    else:
        if spec.variant == "tabulated":
            out = np.interp(u_arr, spec._xs, spec._ys)
        else:
            uc = np.clip(u_arr, 1e-300, spec.delta)
            big_l = np.log(1.0 / uc)
            out = uc * big_l if spec.variant == "log" else uc * big_l * np.log(big_l)
            out = np.where(u_arr == 0.0, 0.0, out)
        out = np.where(u_arr > spec._switch, spec._head + spec._kappa * (u_arr - spec._switch), out)

    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of the sampled axiom checks for one modulus."""

    zero_at_zero: bool
    monotone: bool
    concave: bool
    time_integrable: bool
    max_monotone_violation: float
    max_concavity_violation: float

    @property
    def all_pass(self) -> bool:
        return self.zero_at_zero and self.monotone and self.concave and self.time_integrable


def verify_modulus_axioms(spec: ModulusSpec, samples: int = 1000, tol: float = 1e-9,
                          *, u_max: float = 4.0, horizon: float = 1.0,
                          seed: int = 20240901) -> AxiomReport:
    """Check the modulus axioms on sampled points.

    Zero at zero, monotonicity on a log/linear sample mix, concavity by the
    secant test (for u1 < u2 < u3: slope(u1, u2) >= slope(u2, u3) - tol), and
    finiteness of the time integral at fixed u.
    """
    if samples < 3:
        raise ValueError("need at least 3 samples")
    rng = np.random.Generator(np.random.Philox(key=[seed, 0]))

    zero_ok = abs(eval_modulus(spec, 0.0, 0.0)) <= tol

    grid = np.unique(np.concatenate([
        np.geomspace(1e-12, u_max, samples // 2),
        np.linspace(u_max / samples, u_max, samples - samples // 2),
    ]))
    vals = eval_modulus(spec, 0.0, grid)
    mono_viol = float(np.max(np.maximum(-np.diff(vals), 0.0), initial=0.0))
    mono_ok = mono_viol <= tol

    idx = np.sort(rng.choice(len(grid), size=(samples, 3), replace=True), axis=1)
    idx = idx[(idx[:, 0] < idx[:, 1]) & (idx[:, 1] < idx[:, 2])]
    u1, u2, u3 = grid[idx[:, 0]], grid[idx[:, 1]], grid[idx[:, 2]]
    s12 = (vals[idx[:, 1]] - vals[idx[:, 0]]) / (u2 - u1)
    s23 = (vals[idx[:, 2]] - vals[idx[:, 1]]) / (u3 - u2)
    conc_viol = float(np.max(np.maximum(s23 - s12, 0.0), initial=0.0))
    conc_ok = conc_viol <= tol

    ts = np.linspace(0.0, horizon, 65)
    integ_ok = True
    for u_fix in (1.0, u_max):
        ys = np.array([eval_modulus(spec, t, u_fix) for t in ts])
        if not np.all(np.isfinite(ys)) or not np.isfinite(np.trapezoid(ys, ts)):
            integ_ok = False

    return AxiomReport(zero_at_zero=zero_ok, monotone=mono_ok, concave=conc_ok,
                       time_integrable=integ_ok, max_monotone_violation=mono_viol,
                       max_concavity_violation=conc_viol)


def osgood_integral(spec: ModulusSpec, eps: float, u0: float = 1.0,
                    *, points_per_decade: int = 256) -> float:
    """Quadrature of I(eps) = integral_eps^u0 du / rho(0, u).

    Evaluated after the substitution u = e^s, which flattens the integrand
    for every built-in profile.
    """
    if not 0 < eps < u0:
        raise ValueError("need 0 < eps < u0")
    decades = math.log10(u0 / eps)
    n = max(33, int(points_per_decade * decades) + 1)
    s = np.linspace(math.log(eps), math.log(u0), n)
    us = np.exp(s)
    rho = eval_modulus(spec, 0.0, us)
    if np.any(rho <= 0):
        raise ValueError("modulus vanishes inside the integration range")
    return float(np.trapezoid(us / rho, s))


@dataclass(frozen=True)
class UniquenessReport:
    """Joint verdict of the Osgood-divergence and backward-shooting tests."""

    verdict: str  # "passes" | "fails" | "inconclusive"
    osgood_diverges: bool
    shooting_vanishes: bool
    integral_values: np.ndarray
    tail_rates: np.ndarray
    tail_ratios: np.ndarray
    shoot_values: np.ndarray
    reason: str = ""


def condition_a_uniqueness_check(spec: ModulusSpec, M: float, T: float, eps_ladder,
                                 *, u0: float = 1.0, abs_rate: float = 1.0,
                                 ratio_threshold: float = 0.6,
                                 decay_factor: float = 0.5) -> UniquenessReport:
    """Numerical test of the uniqueness property of u' = -M rho(t, u), u(T)=0.

    Two independent probes, both of which must agree for a definite verdict:

    (a) Osgood divergence: I(eps) = integral_eps^u0 du/rho(u) must keep
        growing as eps drops.  Divergence is declared when the tail increment
        rate stays at or above ``abs_rate`` per decade, or when the ratio of
        successive tail increments stays at or above ``ratio_threshold`` (the
        ratio form is what separates logarithmic divergence from convergence
        at double precision).
    (b) Shooting: integrating u' = -M rho(t, u) backward from u(T) = eps, the
        value u(0) must decrease along the ladder and shrink overall by at
        least ``decay_factor``.

    Both pass -> "passes"; both fail -> "fails"; disagreement or a modulus
    that vanishes away from 0 -> "inconclusive".
    """
    eps = np.asarray(eps_ladder, dtype=float)
    if eps.ndim != 1 or len(eps) < 4:
        raise ValueError("eps_ladder must be a 1-D ladder with at least 4 rungs")
    if np.any(np.diff(eps) >= 0) or eps[-1] <= 0 or eps[0] >= u0:
        raise ValueError("eps_ladder must decrease strictly inside (0, u0)")

    probe = np.geomspace(eps[-1], u0, 257)
    if np.any(eval_modulus(spec, 0.0, probe) <= 0):
        return UniquenessReport(verdict="inconclusive", osgood_diverges=False,
                                shooting_vanishes=False, integral_values=np.array([]),
                                tail_rates=np.array([]), tail_ratios=np.array([]),
                                shoot_values=np.array([]),
                                reason="modulus vanishes on part of (0, u0]")

    integrals = np.array([osgood_integral(spec, e, u0) for e in eps])
    increments = np.diff(integrals)
    decades = np.log10(eps[:-1] / eps[1:])
    rates = increments / decades
    ratios = increments[1:] / np.where(increments[:-1] > 0, increments[:-1], np.inf)
    tail = min(3, len(rates))
    tail_rates = rates[-tail:]
    tail_ratios = ratios[-min(3, len(ratios)):] if len(ratios) else np.array([])
    positive = bool(np.all(increments > 0))
    osgood = positive and (float(np.mean(tail_rates)) >= abs_rate
                           or (len(tail_ratios) > 0 and float(np.mean(tail_ratios)) >= ratio_threshold))

    def rhs(t, u):
        return [-M * eval_modulus(spec, t, max(u[0], 0.0))]

    shoots = []
    for e in eps:
        sol = solve_ivp(rhs, (T, 0.0), [e], method="RK45", rtol=1e-9, atol=1e-30)
        if not sol.success:
            return UniquenessReport(verdict="inconclusive", osgood_diverges=osgood,
                                    shooting_vanishes=False, integral_values=integrals,
                                    tail_rates=tail_rates, tail_ratios=tail_ratios,
                                    shoot_values=np.array(shoots),
                                    reason=f"shooting integration failed at eps={e}")
        shoots.append(float(sol.y[0, -1]))
    shoots = np.array(shoots)
    decreasing = bool(np.all(shoots[1:] <= shoots[:-1] * (1.0 + 1e-9)))
    shooting = decreasing and shoots[0] > 0 and shoots[-1] <= decay_factor * shoots[0]

    if osgood and shooting:
        verdict = "passes"
    elif not osgood and not shooting:
        verdict = "fails"
    else:
        verdict = "inconclusive"
    return UniquenessReport(verdict=verdict, osgood_diverges=osgood,
                            shooting_vanishes=shooting, integral_values=integrals,
                            tail_rates=tail_rates, tail_ratios=tail_ratios,
                            shoot_values=shoots)


@dataclass(frozen=True, eq=False)
class MajorantSequence:
    """Deterministic majorants of the squared Picard gaps.

    Row n of ``values`` holds phi_n on the grid nodes, where phi_0(t) is the
    M-weighted tail integral of rho(s, M1) and each phi_{n+1} re-applies the
    rho integral to phi_n.  Rows are non-increasing in n and vanish at T.
    """

    grid: TimeGrid
    m_const: float
    m1: float
    values: np.ndarray

    @property
    def levels(self) -> int:
        return self.values.shape[0]


def _backward_trapezoid(integrand: np.ndarray, dt: np.ndarray) -> np.ndarray:
    seg = 0.5 * (integrand[:-1] + integrand[1:]) * dt
    out = np.zeros(len(integrand))
    out[:-1] = np.cumsum(seg[::-1])[::-1]
    return out


def majorant_sequence(spec: ModulusSpec, M: float, M1: float, grid: TimeGrid,
                      n_max: int, stop_tol: float = 0.0) -> MajorantSequence:
    """Build phi_0 .. phi_n by backward trapezoidal quadrature on the grid.

    Stops after ``n_max`` refinements, or earlier once sup_t phi_n drops
    below ``stop_tol`` (if positive).
    """
    if M <= 0 or M1 <= 0:
        raise ValueError("M and M1 must be positive")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    dt = grid.dt
    rows = [M * _backward_trapezoid(np.full(grid.num_steps + 1, eval_modulus(spec, 0.0, M1)), dt)]
    for _ in range(n_max):
        if stop_tol > 0 and float(np.max(rows[-1])) < stop_tol:
            break
        integrand = eval_modulus(spec, 0.0, np.maximum(rows[-1], 0.0))
        rows.append(M * _backward_trapezoid(integrand, dt))
    return MajorantSequence(grid=grid, m_const=float(M), m1=float(M1), values=np.array(rows))


@dataclass(frozen=True)
class SegmentInfo:
    """One finished segment of the horizon partition."""

    index: int
    upper: float
    lower: float
    budget: float
    m_p: float


def constant_budgets(mu: float) -> Callable[[int, SegmentInfo | None], float]:
    """Budget procedure returning the same mu_0^p for every segment."""
    return lambda p, prev: mu


def _time_integral(spec: ModulusSpec, u_const: float, a: float, b: float) -> float:
    """Trapezoidal rho(., u_const) mass over [a, b] on 129 nodes.

    Every built-in rho ignores t, so one evaluation fills all 129 nodes and
    the trapezoid sum equals the one from evaluating at each node, bit for
    bit.  A time-dependent variant must evaluate at each node again.
    """
    if b <= a:
        return 0.0
    ts = np.linspace(a, b, 129)
    ys = np.full(129, eval_modulus(spec, a, u_const))
    return float(np.trapezoid(ys, ts))


def horizon_partition(spec: ModulusSpec, M: float, budgets, T: float,
                      *, p_max: int = 10_000, tol: float = 1e-10) -> np.ndarray:
    """Backward partition T = T_0 > T_1 > ... > T_p = 0 by prescribed rho-mass.

    Segment p receives budget mu_0^p from the ``budgets`` procedure, sets
    M_p = 2 mu_0^p, and places T_p so that the rho(., M_p) mass over
    [T_p, T_{p-1}] equals mu_0^p / M (found by bisection at tolerance
    ``tol``).  When the remaining mass down to 0 is at most the target, the
    segment closes at T_p = 0 and the partition terminates.  After ``p_max``
    segments without closing, raises ``NonTerminationError`` carrying the
    breakpoints reached.
    """
    if M <= 0 or T <= 0:
        raise ValueError("M and T must be positive")
    breakpoints = [float(T)]
    prev: SegmentInfo | None = None
    for p in range(1, p_max + 1):
        mu = float(budgets(p, prev))
        if mu <= 0:
            raise ValueError(f"budget for segment {p} must be positive, got {mu}")
        m_p = 2.0 * mu
        top = breakpoints[-1]
        target = mu / M
        total = _time_integral(spec, m_p, 0.0, top)
        if total <= target * (1.0 + 1e-12):
            breakpoints.append(0.0)
            return np.array(breakpoints)
        lo, hi = 0.0, top  # mass(lo) >= target, mass(hi) = 0
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if _time_integral(spec, m_p, mid, top) >= target:
                lo = mid
            else:
                hi = mid
        t_p = 0.5 * (lo + hi)
        breakpoints.append(t_p)
        prev = SegmentInfo(index=p, upper=top, lower=t_p, budget=mu, m_p=m_p)
    raise NonTerminationError(
        f"horizon partition did not reach 0 within {p_max} segments; "
        f"last breakpoint {breakpoints[-1]:.6g} of horizon {T:.6g}",
        breakpoints=breakpoints)


def moment_bound_constant(c: float, C: float, alpha: float, T: float) -> float:
    """The uniform moment-bound constant max{c e^{cT}, ((1-a)/C + 1) e^{CT/(1-a)}}."""
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if C <= 0 or c <= 0:
        raise ValueError("C and c must be positive")
    if T < 0:
        raise ValueError("T must be non-negative")
    first = c * math.exp(c * T)
    try:
        second = ((1.0 - alpha) / C + 1.0) * math.exp(C * T / (1.0 - alpha))
    except OverflowError:
        # finite for every alpha < 1 but can exceed the float range near 1
        second = math.inf
    return max(first, second)


def builtin_condition_a_fixtures() -> dict[str, tuple[ModulusSpec, str]]:
    """The four fixed uniqueness-check fixtures and their expected verdicts.

    The sqrt profile is tabulated on a geometric grid reaching far below the
    default epsilon ladder, so quadrature never sees the sub-table linear
    stub that would fake divergence.
    """
    us = np.geomspace(1e-16, 16.0, 257)
    sqrt_spec = tabulated_modulus(list(zip(us, np.sqrt(us))))
    return {
        "lipschitz": (lipschitz_modulus(1.0), "passes"),
        "log": (log_modulus(), "passes"),
        "loglog": (loglog_modulus(), "passes"),
        "sqrt": (sqrt_spec, "fails"),
    }
