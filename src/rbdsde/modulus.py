"""Concave modulus calculus.

A modulus rho(u) replaces the Lipschitz constant of the generators in the
y variable: it is continuous, concave, non-decreasing with rho(0) = 0, and
the zero function must be the unique solution of u' = -M rho(u), u(T) = 0.
The paper allows a time-dependent rho(t, u); every modulus here is
independent of t, and the closed-form horizon partition relies on it.
This module evaluates the built-in moduli, checks the axioms numerically,
runs the uniqueness (Osgood-type) test, and builds the majorant sequence and
horizon partition that control the Picard iteration.
"""

from __future__ import annotations

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
    "eval_modulus",
    "AxiomReport",
    "verify_modulus_axioms",
    "osgood_integral",
    "UniquenessReport",
    "condition_a_uniqueness_check",
    "MajorantSequence",
    "majorant_sequence",
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

# verify_modulus_axioms samples _AXIOM_SAMPLES points of (0, _AXIOM_U_MAX] and
# allows _AXIOM_TOL of rounding in each sampled check
_AXIOM_SAMPLES = 1000
_AXIOM_U_MAX = 4.0
_AXIOM_TOL = 1e-9


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
    """A concave modulus rho(u) bounding the squared y-increments of the
    generators; the z-coupling constants of the bound live on GeneratorSpec.

    variant "lipschitz" evaluates c_rho * u; "log" and "loglog" evaluate the
    u ln(1/u) and u ln(1/u) ln(ln(1/u)) profiles below ``delta`` and continue
    with the C^1 linear extension above it; "tabulated" interpolates a
    user-supplied (u, rho(u)) table linearly, extrapolating with the last
    segment slope.

    The linear extension above the switch point (``delta``, or the last table
    abscissa) is fixed at construction, and so is the tabulated variant's
    table as read-only arrays.  These cached values take no part in equality
    or hashing, which compare the declared fields.
    """

    variant: str
    c_rho: float = 1.0
    delta: float = 0.0
    table: tuple[tuple[float, float], ...] | None = None
    # above _switch, rho(u) = _head + _kappa * (u - _switch); unused for lipschitz
    _switch: float = field(default=math.inf, init=False, repr=False, compare=False)
    _head: float = field(default=0.0, init=False, repr=False, compare=False)
    _kappa: float = field(default=0.0, init=False, repr=False, compare=False)
    _xs: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _ys: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ValueError(f"unknown modulus variant {self.variant!r}")
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


def lipschitz_modulus(c_rho: float = 1.0) -> ModulusSpec:
    return ModulusSpec(variant="lipschitz", c_rho=c_rho)


def log_modulus(delta: float = _LOG_DELTA) -> ModulusSpec:
    return ModulusSpec(variant="log", delta=delta)


def loglog_modulus() -> ModulusSpec:
    return ModulusSpec(variant="loglog", delta=_LOGLOG_DELTA)


def tabulated_modulus(points) -> ModulusSpec:
    """Tabulated modulus; a (0, 0) anchor is prepended if missing."""
    pts = [(float(u), float(v)) for u, v in points]
    if not pts or pts[0][0] > 0.0:
        pts.insert(0, (0.0, 0.0))
    return ModulusSpec(variant="tabulated", table=tuple(pts))


def _kappa_log(delta: float) -> float:
    # left derivative of u ln(1/u) at delta
    return math.log(1.0 / delta) - 1.0


def _kappa_loglog(delta: float) -> float:
    # left derivative of u ln(1/u) ln(ln(1/u)) at delta
    big_l = math.log(1.0 / delta)
    return math.log(big_l) * (big_l - 1.0) - 1.0


def eval_modulus(spec: ModulusSpec, u):
    """Evaluate rho(u) for ``u`` >= 0: a float for a scalar ``u``, else an array."""
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


def verify_modulus_axioms(spec: ModulusSpec) -> AxiomReport:
    """Check the modulus axioms on sampled points of (0, 4].

    Zero at zero, monotonicity on a log/linear sample mix, concavity by the
    secant test (for u1 < u2 < u3: slope(u1, u2) >= slope(u2, u3) - 1e-9), and
    finiteness of the time integral over [0, 1] at fixed u, which for a
    modulus independent of t is finiteness of rho(1) and rho(4).
    """
    samples = _AXIOM_SAMPLES
    rng = np.random.Generator(np.random.Philox(key=[20240901, 0]))

    zero_ok = abs(eval_modulus(spec, 0.0)) <= _AXIOM_TOL

    grid = np.unique(np.concatenate([
        np.geomspace(1e-12, _AXIOM_U_MAX, samples // 2),
        np.linspace(_AXIOM_U_MAX / samples, _AXIOM_U_MAX, samples - samples // 2),
    ]))
    vals = eval_modulus(spec, grid)
    mono_viol = float(np.max(np.maximum(-np.diff(vals), 0.0), initial=0.0))
    mono_ok = mono_viol <= _AXIOM_TOL

    idx = np.sort(rng.choice(len(grid), size=(samples, 3), replace=True), axis=1)
    idx = idx[(idx[:, 0] < idx[:, 1]) & (idx[:, 1] < idx[:, 2])]
    u1, u2, u3 = grid[idx[:, 0]], grid[idx[:, 1]], grid[idx[:, 2]]
    s12 = (vals[idx[:, 1]] - vals[idx[:, 0]]) / (u2 - u1)
    s23 = (vals[idx[:, 2]] - vals[idx[:, 1]]) / (u3 - u2)
    conc_viol = float(np.max(np.maximum(s23 - s12, 0.0), initial=0.0))
    conc_ok = conc_viol <= _AXIOM_TOL

    integ_ok = all(math.isfinite(eval_modulus(spec, u)) for u in (1.0, _AXIOM_U_MAX))

    return AxiomReport(zero_at_zero=zero_ok, monotone=mono_ok, concave=conc_ok,
                       time_integrable=integ_ok, max_monotone_violation=mono_viol,
                       max_concavity_violation=conc_viol)


def osgood_integral(spec: ModulusSpec, eps: float) -> float:
    """Quadrature of I(eps) = integral_eps^1 du / rho(u).

    Evaluated after the substitution u = e^s, which flattens the integrand
    for every built-in profile, on 256 trapezoid nodes per decade.
    """
    if not 0 < eps < 1.0:
        raise ValueError("need 0 < eps < 1")
    decades = math.log10(1.0 / eps)
    n = max(33, int(256 * decades) + 1)
    s = np.linspace(math.log(eps), 0.0, n)
    us = np.exp(s)
    rho = eval_modulus(spec, us)
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


def condition_a_uniqueness_check(spec: ModulusSpec, M: float, T: float,
                                 eps_ladder) -> UniquenessReport:
    """Numerical test of the uniqueness property of u' = -M rho(u), u(T)=0.

    Two independent probes, both of which must agree for a definite verdict:

    (a) Osgood divergence: I(eps) = integral_eps^1 du/rho(u) must keep
        growing as eps drops.  Divergence is declared when the tail increment
        rate stays at or above 1 per decade, or when the ratio of successive
        tail increments stays at or above 0.6 (the ratio form is what
        separates logarithmic divergence from convergence at double
        precision).
    (b) Shooting: integrating u' = -M rho(u) backward from u(T) = eps, all
        rungs as one vector ODE, the value u(0) must decrease along the
        ladder and shrink overall to at most half its value at the first
        rung.

    Both pass -> "passes"; both fail -> "fails"; disagreement or a modulus
    that vanishes away from 0 -> "inconclusive".
    """
    eps = np.asarray(eps_ladder, dtype=float)
    if eps.ndim != 1 or len(eps) < 4:
        raise ValueError("eps_ladder must be a 1-D ladder with at least 4 rungs")
    if np.any(np.diff(eps) >= 0) or eps[-1] <= 0 or eps[0] >= 1.0:
        raise ValueError("eps_ladder must decrease strictly inside (0, 1)")

    probe = np.geomspace(eps[-1], 1.0, 257)
    if np.any(eval_modulus(spec, probe) <= 0):
        return UniquenessReport(verdict="inconclusive", osgood_diverges=False,
                                shooting_vanishes=False, integral_values=np.array([]),
                                tail_rates=np.array([]), tail_ratios=np.array([]),
                                shoot_values=np.array([]),
                                reason="modulus vanishes on part of (0, 1]")

    integrals = np.array([osgood_integral(spec, e) for e in eps])
    increments = np.diff(integrals)
    decades = np.log10(eps[:-1] / eps[1:])
    rates = increments / decades
    ratios = increments[1:] / np.where(increments[:-1] > 0, increments[:-1], np.inf)
    tail = min(3, len(rates))
    tail_rates = rates[-tail:]
    tail_ratios = ratios[-min(3, len(ratios)):] if len(ratios) else np.array([])
    positive = bool(np.all(increments > 0))
    osgood = positive and (float(np.mean(tail_rates)) >= 1.0
                           or (len(tail_ratios) > 0 and float(np.mean(tail_ratios)) >= 0.6))

    def rhs(t, u):
        return -M * eval_modulus(spec, np.maximum(u, 0.0))

    sol = solve_ivp(rhs, (T, 0.0), eps, method="RK45", rtol=1e-9, atol=1e-30)
    if not sol.success:
        return UniquenessReport(verdict="inconclusive", osgood_diverges=osgood,
                                shooting_vanishes=False, integral_values=integrals,
                                tail_rates=tail_rates, tail_ratios=tail_ratios,
                                shoot_values=np.array([]),
                                reason=f"shooting integration failed: {sol.message}")
    shoots = sol.y[:, -1]
    decreasing = bool(np.all(shoots[1:] <= shoots[:-1] * (1.0 + 1e-9)))
    shooting = decreasing and shoots[0] > 0 and shoots[-1] <= 0.5 * shoots[0]

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
    M-weighted tail integral of rho(M1) and each phi_{n+1} re-applies the
    rho integral to phi_n.  Rows are non-increasing in n and vanish at T.
    """

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
                      n_max: int) -> MajorantSequence:
    """Build phi_0 .. phi_{n_max} by backward trapezoidal quadrature of rho(u)
    on the grid."""
    if not (M > 0 and M1 > 0):
        raise ValueError("M and M1 must be positive")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    dt = grid.dt
    rows = [M * _backward_trapezoid(np.full(grid.num_steps + 1, eval_modulus(spec, M1)), dt)]
    for _ in range(n_max):
        integrand = eval_modulus(spec, np.maximum(rows[-1], 0.0))
        rows.append(M * _backward_trapezoid(integrand, dt))
    return MajorantSequence(np.array(rows))


def constant_budgets(mu: float) -> Callable[[int, float | None], float]:
    """Budget procedure returning the same mu_0^p for every segment."""
    return lambda p, prev: mu


def horizon_partition(spec: ModulusSpec, M: float, budgets, T: float,
                      *, p_max: int = 10_000) -> np.ndarray:
    """Backward partition T = T_0 > T_1 > ... > T_p = 0 by prescribed rho-mass.

    Segment p receives budget mu_0^p = ``budgets(p, prev)``, where ``prev`` is
    the previous segment's budget (None for the first), and sets
    M_p = 2 mu_0^p.  The rho(M_p) mass over [T_p, T_{p-1}] is
    rho(M_p) (T_{p-1} - T_p), and setting it to mu_0^p / M places
    T_p = T_{p-1} - (mu_0^p / M) / rho(M_p) in closed form.  When the
    remaining mass down to 0 is at most the target, the segment closes at
    T_p = 0 and the partition terminates.  After ``p_max`` segments without
    closing, raises ``NonTerminationError`` carrying the breakpoints reached.
    """
    if not (M > 0 and T > 0):
        raise ValueError("M and T must be positive")
    breakpoints = [float(T)]
    prev = None
    for p in range(1, p_max + 1):
        mu = float(budgets(p, prev))
        if not mu > 0:
            raise ValueError(f"budget for segment {p} must be positive, got {mu}")
        top = breakpoints[-1]
        target = mu / M
        rho = eval_modulus(spec, 2.0 * mu)
        if rho * top <= target * (1.0 + 1e-12):
            breakpoints.append(0.0)
            return np.array(breakpoints)
        breakpoints.append(top - target / rho)
        prev = mu
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
