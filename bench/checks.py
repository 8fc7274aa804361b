"""Independent references and output checks for the benchmark workloads.

Nothing here imports the package under test or its test suite.  Each
reference takes its own numerical route: a Cox-Ross-Rubinstein lattice for
the American put, closed forms for the Lipschitz cases, a geometric series
for the sqrt partition, and a point-by-point grid scan for the envelopes.
Every check raises ``CheckFailed`` with the offending value, so a workload
fails loudly instead of reporting a wrong answer quickly.
"""

from __future__ import annotations

import math

import numpy as np

# Tolerance multiplier on a reported standard error: |Z| > 4 has probability
# 6e-5 under a normal law, so a check holds on any seed.
STDERR_MULT = 4.0

# The catalog's obstacles S = h(t, x), written out from the problem
# definitions so dominance and flatness are measured apart from the solver.
CATALOG_OBSTACLES = {
    "paper-1-4": lambda x: x - 1.0,
    "lipschitz-linear": lambda x: x - 4.0,
    "american-put-like": lambda x: np.maximum(100.0 - x, 0.0),
    "log-modulus": lambda x: x - 1.0,
}

# Osgood's criterion: uniqueness holds exactly when int_0 du / rho(u)
# diverges.  int du/u = ln(1/u), int du/(u ln 1/u) = ln ln(1/u) and the
# log-log profile gives ln ln ln(1/u), all unbounded; int du/sqrt(u) =
# 2 sqrt(u) stays bounded.
OSGOOD_VERDICTS = {"lipschitz": "passes", "log": "passes", "loglog": "passes",
                   "sqrt": "fails"}


class CheckFailed(AssertionError):
    """A program output disagrees with its independent reference."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


# ---------------------------------------------------------------------------
# references


def crr_american_put(spot: float, strike: float, rate: float, vol: float,
                     maturity: float, steps: int = 2000) -> float:
    """American put on a Cox-Ross-Rubinstein lattice, early exercise at every
    lattice date; maturity 0 returns the payoff."""
    if maturity <= 0.0:
        return max(strike - spot, 0.0)
    dt = maturity / steps
    up = math.exp(vol * math.sqrt(dt))
    p_up = (math.exp(rate * dt) - 1.0 / up) / (up - 1.0 / up)
    disc = math.exp(-rate * dt)
    # node j at level i has spot * up^(i - 2j)
    level = np.arange(steps + 1)
    value = np.maximum(strike - spot * up ** (steps - 2.0 * level), 0.0)
    for i in range(steps - 1, -1, -1):
        cont = disc * (p_up * value[:i + 1] + (1.0 - p_up) * value[1:i + 2])
        exercise = strike - spot * up ** (i - 2.0 * level[:i + 1])
        value = np.maximum(cont, exercise)
    return float(value[0])


def linear_bsde_y0(a: float, b: float, horizon: float) -> float:
    """Y0 of Y_t = W_T + int_t^T (a Y + b Z) ds - int_t^T Z dW from W_0 = 0.

    Y0 = e^{aT} E[E(bW)_T W_T] = e^{aT} b T by Girsanov.
    """
    return math.exp(a * horizon) * b * horizon


def lipschitz_shooting(eps: np.ndarray, c: float, m: float, horizon: float) -> np.ndarray:
    """u(0) of u' = -M c u, u(T) = eps."""
    return np.asarray(eps, dtype=float) * math.exp(c * m * horizon)


def lipschitz_partition(c: float, m: float, horizon: float) -> np.ndarray:
    """Breakpoints T > T - L > ... > 0 with segment length L = 1/(2 c M).

    A budget mu gives M_p = 2 mu and rho-mass c M_p L = mu / M on each
    segment, so L does not depend on the budget; the last segment is the
    remainder.
    """
    seg = 1.0 / (2.0 * c * m)
    full = max(int(math.ceil(horizon / seg - 1e-9)) - 1, 0)
    return np.array([horizon - k * seg for k in range(full + 1)] + [0.0])


def lipschitz_majorant(c: float, m: float, m1: float, horizon: float,
                       t: np.ndarray, levels: int) -> np.ndarray:
    """phi_n(t) = M1 (cM)^{n+1} (T - t)^{n+1} / (n+1)!, rows n = 0 .. levels-1."""
    tau = horizon - np.asarray(t, dtype=float)
    return np.array([m1 * (c * m * tau) ** (n + 1) / math.factorial(n + 1)
                     for n in range(levels)])


def sqrt_cap_limit(horizon: float, p_max: int) -> float:
    """Last breakpoint of the sqrt partition with budgets 4^-p.

    rho(M_p) = sqrt(2 * 4^-p) over a segment of length L_p must carry mass
    4^-p, so L_p = 2^-p / sqrt(2) and the breakpoints converge geometrically.
    """
    return horizon - sum(2.0 ** -p for p in range(1, p_max + 1)) / math.sqrt(2.0)


def sqrt_table_allowance(u_lo: float, u_hi: float, nodes: int, p_max: int,
                         bisect_tol: float) -> float:
    """Bound on how far a linear interpolation of sqrt on a geometric table
    moves the sqrt partition's last breakpoint.

    Between nodes a and r a the chord sits at least a factor
    2 / (r^{1/4} + r^{-1/4}) below sqrt, so every segment grows by at most the
    inverse factor; below the table the linear stub u * sqrt(u_lo) / u_lo adds
    segments of length 4^-p / (2 * 4^-p / sqrt(u_lo)) each.
    """
    r = (u_hi / u_lo) ** (1.0 / (nodes - 1))
    deficit = 1.0 - 2.0 / (r ** 0.25 + r ** -0.25)
    chord = (1.0 / math.sqrt(2.0)) * deficit / (1.0 - deficit)
    stub = p_max * math.sqrt(u_lo) / 2.0
    return chord + stub + p_max * bisect_tol


def paper_f(y, z, c_const: float = 2.0, horizon: float = 1.0):
    """f of the paper-1-4 problem: e^{-|y|} T^{-1/4} + sqrt(C/2) z."""
    return np.exp(-np.abs(y)) * horizon ** -0.25 + math.sqrt(c_const / 2.0) * z


def log_modulus_f(y, delta: float = math.exp(-2)):
    """f of the log-modulus problem: sqrt(rho(min(y^2, delta))), rho(u) = u ln(1/u)."""
    u = np.minimum(np.asarray(y, dtype=float) ** 2, delta)
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = np.where(u > 0.0, -u * np.log(u), 0.0)
    return np.sqrt(rho)


def envelope_scan(f_of_u, y: np.ndarray, u_nodes: np.ndarray, n: int,
                  direction: str) -> np.ndarray:
    """inf_u f(u) + n|y - u| ("lower") or sup_u f(u) - n|y - u| ("upper") over
    the grid, one query point at a time.  ``f_of_u(i, u)`` evaluates f at the
    nodes with the other arguments of query ``i``."""
    out = np.empty(len(y))
    for i, yi in enumerate(y):
        vals = f_of_u(i, u_nodes)
        if direction == "lower":
            out[i] = np.min(vals + n * np.abs(yi - u_nodes))
        else:
            out[i] = np.max(vals - n * np.abs(yi - u_nodes))
    return out


# ---------------------------------------------------------------------------
# checks


def check_close(what: str, value: float, ref: float, tol: float) -> None:
    value, ref = float(value), float(ref)
    err = abs(value - ref)
    require(err <= tol, f"{what}: {value!r} vs reference {ref!r} (|err|={err:.3g} > tol {tol:.3g})")


def check_mc_value(what: str, value: float, stderr: float, ref: float,
                   allowance: float) -> None:
    """A Monte Carlo estimate within STDERR_MULT reported standard errors
    plus a stated discretisation allowance of its reference."""
    require(stderr >= 0.0 and math.isfinite(stderr), f"{what}: bad standard error {stderr!r}")
    check_close(what, value, ref, STDERR_MULT * stderr + allowance)


def check_reflection(what: str, y: np.ndarray, k: np.ndarray, s: np.ndarray) -> None:
    """Y >= S everywhere, K grows only on contact, and the Skorokhod residual
    mean_paths sum_i (Y_i - S_i) dK_i stays within 1e-2 * S2(Y) * E[K_T].

    ``y``, ``k``, ``s`` have shape (paths, nodes).
    """
    gap = y - s
    worst = float(np.min(gap))
    require(worst >= -1e-12, f"{what}: Y below the obstacle by {-worst:.3g}")
    dk = np.diff(k, axis=1)
    require(float(np.min(dk)) >= -1e-12, f"{what}: K decreases")
    off = int(np.sum((gap[:, :-1] > 1e-12) & (dk > 0.0)))
    require(off == 0, f"{what}: {off} pushes off contact")
    residual = float(np.mean(np.sum(np.where(dk > 0.0, gap[:, :-1] * dk, 0.0), axis=1)))
    bound = 1e-2 * float(np.mean(np.max(y ** 2, axis=1))) * float(np.mean(k[:, -1]))
    require(residual <= bound, f"{what}: Skorokhod residual {residual:.3g} > bound {bound:.3g}")


def check_field(what: str, xs: np.ndarray, u: np.ndarray, payoff: np.ndarray,
                refs: np.ndarray, tol: np.ndarray) -> None:
    """One time row of a put field: u >= payoff, u non-increasing in x, and
    u within ``tol`` of the lattice reference at every spot."""
    for x, val, pay, ref, t in zip(xs, u, payoff, refs, tol):
        require(val >= pay - 1e-12, f"{what}: u({x})={float(val)!r} below the payoff {float(pay)!r}")
        check_close(f"{what} u({x})", val, ref, t)
    require(bool(np.all(np.diff(u) <= 0.0)), f"{what}: u increases in x: {u.tolist()}")


def check_partition(what: str, got: np.ndarray, ref: np.ndarray, tol: float) -> None:
    got = np.asarray(got, dtype=float)
    require(got.shape == ref.shape,
            f"{what}: {len(got) - 1} segments, closed form has {len(ref) - 1}")
    err = float(np.max(np.abs(got - ref)))
    require(err <= tol, f"{what}: breakpoints off the closed form by {err:.3g} > {tol:.3g}")


def check_envelope(what: str, got: np.ndarray, scan: np.ndarray, grid_tol: float) -> None:
    err = float(np.max(np.abs(np.asarray(got) - scan)))
    require(err <= grid_tol, f"{what}: envelope off the grid scan by {err:.3g} > grid_tol {grid_tol:.3g}")
