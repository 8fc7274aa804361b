"""Each benchmark check accepts the right answer and rejects a wrong one.

Run with ``PYTHONPATH=src python -m pytest bench/test_checks.py``.
"""

import math

import numpy as np
import pytest

import checks
from checks import CheckFailed
from workloads import PUT, CatalogSolve, FieldPut


def _european_put(spot, strike, rate, vol, maturity):
    """Black-Scholes put: no early exercise."""
    sd = vol * math.sqrt(maturity)
    d1 = (math.log(spot / strike) + (rate + 0.5 * vol * vol) * maturity) / sd
    cdf = lambda v: 0.5 * (1.0 + math.erf(v / math.sqrt(2.0)))
    return strike * math.exp(-rate * maturity) * cdf(sd - d1) - spot * cdf(-d1)


def test_crr_tree_prices_early_exercise():
    american = checks.crr_american_put(100.0, maturity=0.5, **PUT)
    european = _european_put(100.0, maturity=0.5, **PUT)
    assert american > european + 0.2
    assert abs(american - checks.crr_american_put(100.0, maturity=0.5, steps=4000, **PUT)) < 1e-3
    assert checks.crr_american_put(70.0, maturity=0.5, **PUT) == 30.0
    assert checks.crr_american_put(90.0, maturity=0.0, **PUT) == 10.0


def test_put_y0_check_rejects_european_price():
    ref = checks.crr_american_put(100.0, maturity=0.5, **PUT)
    stderr = 0.051  # the solver's reported standard error at 2e4 paths
    allowance = CatalogSolve.put_allowance * ref
    checks.check_mc_value("put", ref + 3.0 * stderr, stderr, ref, allowance)
    with pytest.raises(CheckFailed):
        checks.check_mc_value("put", _european_put(100.0, maturity=0.5, **PUT),
                              stderr, ref, allowance)


def test_field_check_rejects_european_prices():
    spots = FieldPut.spots
    refs = np.array([checks.crr_american_put(x, maturity=0.5, **PUT) for x in spots])
    payoff = np.maximum(100.0 - spots, 0.0)
    tol = np.full(len(spots), checks.STDERR_MULT * FieldPut.stderr_bound + FieldPut.allowance)
    checks.check_field("put", spots, refs, payoff, refs, tol)
    european = np.array([_european_put(x, maturity=0.5, **PUT) for x in spots])
    with pytest.raises(CheckFailed):
        checks.check_field("put", spots, european, payoff, refs, tol)


def test_linear_y0_closed_form():
    assert checks.linear_bsde_y0(0.25, 0.2, 1.0) == pytest.approx(0.2568050833375483)
    checks.check_mc_value("linear", 0.27, 0.008, 0.2568, CatalogSolve.linear_allowance)
    with pytest.raises(CheckFailed):  # the driver-free value E[W_T] = 0
        checks.check_mc_value("linear", 0.0, 0.008, 0.2568, CatalogSolve.linear_allowance)


def _reflected(rng, paths=40, nodes=11):
    s = rng.normal(size=(paths, nodes))
    y = np.empty_like(s)
    k = np.zeros_like(s)
    y[:, -1] = s[:, -1] + 0.5
    for i in range(nodes - 2, -1, -1):
        yhat = y[:, i + 1] + rng.normal(scale=0.5, size=paths)
        y[:, i] = np.maximum(yhat, s[:, i])
        k[:, i + 1] = y[:, i] - yhat  # increments first, cumulated below
    return y, np.cumsum(k, axis=1), s


def test_reflection_check_rejects_a_dip_below_the_obstacle():
    rng = np.random.default_rng(5)
    y, k, s = _reflected(rng)
    checks.check_reflection("ok", y, k, s)
    dipped = y.copy()
    dipped[7, 4] = s[7, 4] - 1e-6
    with pytest.raises(CheckFailed, match="below the obstacle"):
        checks.check_reflection("dip", dipped, k, s)


def test_reflection_check_rejects_push_off_contact():
    rng = np.random.default_rng(6)
    y, k, s = _reflected(rng)
    lifted = y.copy()
    pushed = np.argwhere(np.diff(k, axis=1) > 0)[0]
    lifted[pushed[0], pushed[1]] += 0.1
    with pytest.raises(CheckFailed, match="off contact"):
        checks.check_reflection("off", lifted, k, s)


@pytest.mark.parametrize("c, horizon", [(1.0, 3.0), (50.0, 0.5), (0.5, 1.3)])
def test_partition_check_rejects_a_shift_by_one_segment(c, horizon):
    ref = checks.lipschitz_partition(c, 1.0, horizon)
    seg = 1.0 / (2.0 * c)
    assert np.all(np.diff(ref)[:-1] == pytest.approx(-seg))
    assert ref[0] == horizon and ref[-1] == 0.0
    tol = len(ref) * 1e-10
    checks.check_partition("ok", ref + 1e-11, ref, tol)
    with pytest.raises(CheckFailed):
        checks.check_partition("shifted", np.append(np.maximum(ref[:-1] - seg, 0.0), 0.0), ref, tol)
    with pytest.raises(CheckFailed, match="segments"):
        checks.check_partition("dropped", np.delete(ref, 1), ref, tol)


def test_envelope_check_rejects_the_base_in_place_of_the_envelope():
    rng = np.random.default_rng(7)
    ys = rng.uniform(-1.0, 1.0, 60)
    step = 1e-3
    u_nodes = np.linspace(-2.0, 2.0, 4001)
    lower = checks.envelope_scan(lambda i, u: checks.log_modulus_f(u), ys, u_nodes, 1, "lower")
    checks.check_envelope("ok", lower + step, lower, 2.0 * step)
    with pytest.raises(CheckFailed):
        checks.check_envelope("swapped", checks.log_modulus_f(ys), lower, 2.0 * step)


def test_sqrt_cap_limit_and_allowance():
    limit = checks.sqrt_cap_limit(2.0, 60)
    assert limit == pytest.approx(2.0 - (1.0 - 2.0 ** -60) / math.sqrt(2.0), abs=1e-15)
    tol = checks.sqrt_table_allowance(1e-16, 16.0, 257, 60, 1e-10)
    assert 4e-4 < tol < 1e-3
    # a partition stopped one segment early misses the limit by 2^-60/sqrt(2);
    # one that dropped its first segment misses it by 1/(2 sqrt(2))
    with pytest.raises(CheckFailed):
        checks.check_close("first segment lost", limit + 0.5 / math.sqrt(2.0), limit, tol)


def test_lipschitz_majorant_rows_solve_the_recursion():
    c, m, m1 = 1.5, 1.0, 0.8
    t = np.linspace(0.0, 1.0, 20001)
    rows = checks.lipschitz_majorant(c, m, m1, 1.0, t, 4)
    assert np.allclose(rows[0], m * c * m1 * (1.0 - t))
    for n in range(1, 4):
        # phi_n(t) = M int_t^T c phi_{n-1}(s) ds
        seg = 0.5 * (rows[n - 1][:-1] + rows[n - 1][1:]) * np.diff(t)
        tail = np.append(np.cumsum(seg[::-1])[::-1], 0.0)
        assert np.max(np.abs(rows[n] - m * c * tail)) < 1e-8
