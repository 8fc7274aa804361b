import dataclasses
import math
import pickle

import numpy as np
import pytest

from rbdsde.modulus import (ModulusSpec, NonTerminationError, builtin_condition_a_fixtures,
                            condition_a_uniqueness_check, constant_budgets,
                            eval_modulus, horizon_partition, lipschitz_modulus,
                            log_modulus, majorant_sequence,
                            moment_bound_constant, osgood_integral,
                            tabulated_modulus, verify_modulus_axioms)
from rbdsde.paths import build_grid

LADDER = [10.0 ** (-k) for k in range(2, 13)]

SPECS = {**{name: spec for name, (spec, _) in builtin_condition_a_fixtures().items()},
         "log-0.1": log_modulus(0.1),
         "small-table": tabulated_modulus([(0.0, 0.0), (1.0, 1.0), (2.0, 1.5)])}


class TestEval:
    def test_lipschitz_linear(self):
        spec = lipschitz_modulus(2.0)
        assert eval_modulus(spec, 3.0) == 6.0

    def test_zero_at_zero_all_variants(self):
        for spec, _ in builtin_condition_a_fixtures().values():
            assert eval_modulus(spec, 0.0) == 0.0

    def test_log_value(self):
        spec = log_modulus(0.1)
        assert eval_modulus(spec, 0.01) == pytest.approx(0.01 * math.log(100.0), rel=1e-12)

    def test_log_extension_is_c1(self):
        spec = log_modulus(0.1)
        h = 1e-8
        left = (eval_modulus(spec, 0.1) - eval_modulus(spec, 0.1 - h)) / h
        right = (eval_modulus(spec, 0.1 + h) - eval_modulus(spec, 0.1)) / h
        assert left == pytest.approx(right, abs=1e-6)

    def test_negative_argument(self):
        with pytest.raises(ValueError):
            eval_modulus(lipschitz_modulus(), -1.0)

    @pytest.mark.parametrize("name", sorted(SPECS))
    @pytest.mark.parametrize("u", [-1.0, np.float64(-1e-300)])
    def test_negative_scalar_every_variant(self, name, u):
        with pytest.raises(ValueError):
            eval_modulus(SPECS[name], u)

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_scalar_path_matches_array_path_bitwise(self, name):
        spec = SPECS[name]
        if spec.table is not None:
            nodes = [u for u, _ in spec.table]  # exactly on the table nodes
            last = nodes[-1]
        else:
            nodes = [spec.delta, np.nextafter(spec.delta, 1.0)]  # the switch point
            last = 16.0
        us = np.concatenate([
            [0.0, 5e-324, 1e-310, 1e-300, 0.3, 1.0],
            nodes,
            np.geomspace(1e-18, last, 300),  # interior
            last * np.array([1.0 + 1e-15, 1.5, 4.0, 1e3]),  # beyond the table
        ])
        want = eval_modulus(spec, us)
        for kind in (float, np.float64):
            got = [eval_modulus(spec, kind(u)) for u in us]
            assert all(type(v) is float for v in got)
            assert np.array_equal(np.array(got).view(np.int64), want.view(np.int64)), kind

    def test_tabulated_equality_and_hash(self):
        pts = [(0.0, 0.0), (1.0, 1.0), (2.0, 1.5)]
        a, b = tabulated_modulus(pts), tabulated_modulus(list(pts))
        assert a == b and hash(a) == hash(b)
        assert a != tabulated_modulus([(0.0, 0.0), (1.0, 1.0), (2.0, 1.6)])

    def test_cached_table_is_read_only(self):
        spec = tabulated_modulus([(0.0, 0.0), (1.0, 1.0)])
        with pytest.raises(ValueError):
            spec._xs[1] = 2.0

    def test_replace_rebuilds_cached_table(self):
        spec = tabulated_modulus([(0.0, 0.0), (1.0, 1.0), (2.0, 1.5)])
        new = dataclasses.replace(spec, table=((0.0, 0.0), (1.0, 2.0)))
        assert np.array_equal(new._xs, [0.0, 1.0]) and np.array_equal(new._ys, [0.0, 2.0])
        assert eval_modulus(new, 0.5) == 1.0
        assert eval_modulus(new, 3.0) == 6.0  # last slope 2
        assert np.array_equal(eval_modulus(new, np.array([0.5, 3.0])), [1.0, 6.0])
        assert eval_modulus(spec, 3.0) == 2.0  # the original keeps its own table

    def test_replace_moves_log_switch_point(self):
        spec = dataclasses.replace(log_modulus(0.1), delta=0.01)
        assert eval_modulus(spec, 0.05) == eval_modulus(log_modulus(0.01), 0.05)
        assert eval_modulus(spec, 0.05) != eval_modulus(log_modulus(0.1), 0.05)

    def test_loglog_needs_small_delta(self):
        with pytest.raises(ValueError):
            ModulusSpec(variant="loglog", delta=0.5)

    def test_tabulated_interpolation_and_extrapolation(self):
        spec = tabulated_modulus([(0.0, 0.0), (1.0, 1.0), (2.0, 1.5)])
        assert eval_modulus(spec, 0.5) == pytest.approx(0.5)
        assert eval_modulus(spec, 3.0) == pytest.approx(2.0)  # last slope 0.5


class TestAxioms:
    def test_builtins_pass(self):
        for name, (spec, _) in builtin_condition_a_fixtures().items():
            rep = verify_modulus_axioms(spec)
            assert rep.all_pass, f"{name}: {rep}"

    def test_convex_counterexample_fails_concavity(self):
        us = np.linspace(0.0, 4.0, 101)
        spec = tabulated_modulus(list(zip(us, us ** 2)))
        rep = verify_modulus_axioms(spec)
        assert not rep.concave
        assert rep.zero_at_zero

    def test_log_with_delta_inverse_e(self):
        rep = verify_modulus_axioms(log_modulus(math.exp(-1)))
        assert rep.all_pass


class TestConditionA:
    def test_fixed_verdicts(self):
        for name, (spec, expected) in builtin_condition_a_fixtures().items():
            rep = condition_a_uniqueness_check(spec, M=1.0, T=1.0, eps_ladder=LADDER)
            assert rep.verdict == expected, f"{name}: got {rep.verdict}"

    def test_lipschitz_integral_closed_form(self):
        spec = lipschitz_modulus(2.0)
        for eps in (1e-4, 1e-8):
            assert osgood_integral(spec, eps) == pytest.approx(
                math.log(1.0 / eps) / 2.0, rel=1e-6)

    def test_sqrt_integral_bounded(self):
        us = np.geomspace(1e-16, 16.0, 257)
        spec = tabulated_modulus(list(zip(us, np.sqrt(us))))
        # closed form 2(1 - sqrt(eps)) stays below 2
        assert osgood_integral(spec, 1e-10) == pytest.approx(2.0, rel=5e-3)

    def test_vanishing_modulus_inconclusive(self):
        spec = tabulated_modulus([(0.0, 0.0), (1.0, 0.0), (2.0, 1.0)])
        rep = condition_a_uniqueness_check(spec, M=1.0, T=1.0, eps_ladder=LADDER)
        assert rep.verdict == "inconclusive"
        assert "vanishes" in rep.reason

    def test_ladder_validation(self):
        with pytest.raises(ValueError):
            condition_a_uniqueness_check(lipschitz_modulus(), 1.0, 1.0,
                                         eps_ladder=[1e-2, 1e-1, 1e-3, 1e-4])


class TestMajorant:
    def test_zero_modulus_gives_zero(self, small_grid):
        seq = majorant_sequence(lipschitz_modulus(0.0), M=1.0, M1=1.0,
                                grid=small_grid, n_max=4)
        assert np.all(seq.values == 0.0)

    def test_lipschitz_factorial_bound(self):
        # phi_n = M1 (M C)^{n+1} (T-t)^{n+1} / (n+1)! exactly for rho = C u
        grid = build_grid(1.0, 4000)
        seq = majorant_sequence(lipschitz_modulus(1.0), M=1.0, M1=1.0,
                                grid=grid, n_max=5)
        t = grid.nodes
        for n in range(seq.levels):
            exact = (1.0 - t) ** (n + 1) / math.factorial(n + 1)
            assert np.max(np.abs(seq.values[n] - exact)) < 1e-7

    def test_monotone_and_terminal_zero(self, small_grid):
        for spec, _ in builtin_condition_a_fixtures().values():
            seq = majorant_sequence(spec, M=1.0, M1=1.0, grid=small_grid, n_max=6)
            assert np.all(np.diff(seq.values, axis=0) <= 1e-14)
            assert np.all(seq.values[:, -1] == 0.0)

    def test_argument_guards(self, small_grid):
        for m, m1 in ((0.0, 1.0), (math.nan, 1.0), (1.0, math.nan)):
            with pytest.raises(ValueError, match="M and M1 must be positive"):
                majorant_sequence(lipschitz_modulus(), M=m, M1=m1, grid=small_grid, n_max=1)


class TestHorizonPartition:
    def test_unit_budget_linear_modulus(self):
        # rho = u, M_p = 2 mu = 2; each segment carries mass mu/M = 1, so
        # segments have length 1/2 and [0, 3] splits into six of them
        bp = horizon_partition(lipschitz_modulus(1.0), M=1.0,
                               budgets=constant_budgets(1.0), T=3.0)
        assert np.allclose(bp, [3.0, 2.5, 2.0, 1.5, 1.0, 0.5, 0.0], atol=1e-9)

    def test_single_segment(self):
        bp = horizon_partition(lipschitz_modulus(1.0), M=1.0,
                               budgets=constant_budgets(10.0), T=0.4)
        assert np.array_equal(bp, [0.4, 0.0])

    def test_large_constant_many_segments(self):
        bp = horizon_partition(lipschitz_modulus(50.0), M=1.0,
                               budgets=constant_budgets(1.0), T=0.5)
        assert len(bp) > 10
        assert bp[1] > 0.45  # first breakpoint close to T

    def test_tiling_exact(self):
        for c in (0.5, 3.0, 20.0):
            bp = horizon_partition(lipschitz_modulus(c), M=2.0,
                                   budgets=constant_budgets(0.7), T=1.3)
            assert abs(np.sum(-np.diff(bp)) - 1.3) < 1e-12
            assert bp[-1] == 0.0

    @pytest.mark.parametrize("c, budget, horizon", [(1.0, 1.0, 3.0), (50.0, 1.0, 0.5),
                                                    (0.5, 0.7, 1.3)])  # criterion 7
    def test_lipschitz_breakpoints_in_closed_form(self, c, budget, horizon):
        # rho(M_p) = 2 c mu, so each segment has length (mu / M) / (2 c mu) = 1 / (2 c M)
        m = 1.0
        bp = horizon_partition(lipschitz_modulus(c), M=m,
                               budgets=constant_budgets(budget), T=horizon)
        k = np.arange(len(bp) - 1)
        assert np.max(np.abs(bp[:-1] - (horizon - k / (2.0 * c * m)))) <= 1e-13
        assert bp[-1] == 0.0

    def test_budgets_receive_the_previous_budget(self):
        calls = []

        def budgets(p, prev):
            calls.append((p, prev))
            return 0.5 + p

        bp = horizon_partition(lipschitz_modulus(1.0), M=1.0, budgets=budgets, T=2.0)
        assert calls == [(1, None)] + [(p, 0.5 + p - 1) for p in range(2, len(bp))]

    def test_nan_arguments_rejected(self):
        lip = lipschitz_modulus(1.0)
        with pytest.raises(ValueError, match="budget for segment 1 must be positive, got nan"):
            horizon_partition(lip, M=1.0, budgets=constant_budgets(math.nan), T=1.0)
        for m, horizon in ((math.nan, 1.0), (1.0, math.nan)):
            with pytest.raises(ValueError, match="M and T must be positive"):
                horizon_partition(lip, M=m, budgets=constant_budgets(1.0), T=horizon)

    def test_cap_exceeded(self):
        # shrinking budgets against a sqrt profile make the segment lengths
        # summable below the horizon, so the partition cannot close
        with pytest.raises(NonTerminationError) as info:
            _sqrt_cap_partition()
        err = info.value
        assert len(err.breakpoints) == 61 and err.breakpoints[0] == 2.0
        assert np.all(np.diff(err.breakpoints) < 0)
        assert type(err.last_breakpoint) is float
        assert err.last_breakpoint == err.breakpoints[-1]
        # segment p has length 2^-p / sqrt(2) for the exact sqrt, so the
        # breakpoints approach 2 - 1/sqrt(2); the geometric table's linear
        # interpolation moves the limit by less than 5.3e-4
        assert abs(err.last_breakpoint - (2.0 - 1.0 / math.sqrt(2.0))) < 5.3e-4
        assert (f"last breakpoint {err.last_breakpoint:.6g} of horizon 2"
                in str(err))
        copy = pickle.loads(pickle.dumps(err))
        assert str(copy) == str(err) and copy.last_breakpoint == err.last_breakpoint
        assert np.array_equal(copy.breakpoints, err.breakpoints)


def _sqrt_cap_partition():
    us = np.geomspace(1e-16, 16.0, 257)
    spec = tabulated_modulus(list(zip(us, np.sqrt(us))))
    return horizon_partition(spec, M=1.0, budgets=lambda p, prev: 4.0 ** (-p),
                             T=2.0, p_max=60)


class TestMomentBound:
    def test_collapsed_horizon(self):
        assert moment_bound_constant(1.0, 1.0, 0.5, 0.0) == pytest.approx(1.5)

    def test_unit_horizon(self):
        assert moment_bound_constant(1.0, 1.0, 0.5, 1.0) == pytest.approx(
            1.5 * math.e ** 2, rel=1e-12)

    def test_alpha_near_one_blows_up_without_raising(self):
        assert math.isfinite(moment_bound_constant(1.0, 1.0, 0.9, 1.0))
        # mathematically finite for any alpha < 1, but the float range caps it
        assert moment_bound_constant(1.0, 1.0, 0.9999, 1.0) == math.inf

    def test_alpha_range(self):
        with pytest.raises(ValueError):
            moment_bound_constant(1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            moment_bound_constant(1.0, 1.0, 0.0, 1.0)
