import dataclasses
import tracemalloc

import numpy as np
import pytest

from oracles import coarsen_noise
import rbdsde.field as field_module
from rbdsde.field import (StepSizeError, UnsupportedProblemError, evaluate_u_field,
                          monotone_field_sequence, solve_doss_eta)
from rbdsde.forward import simulate_forward
from rbdsde.generators import builtin_problem
from rbdsde.paths import build_grid, sample_noise
from rbdsde.solver import (GeneratorEvaluationError, RegressionBasis, SingularRegressionError,
                           SolverConfig, picard_solve)

BASIS = RegressionBasis(bins=8)
CFG = SolverConfig()


class TestField:
    def test_martingale_field(self):
        # f = g = 0, no obstacle, terminal x: u(t, x) = x up to MC noise
        p = builtin_problem("lipschitz-linear", a=0.0, b_coef=0.0, with_obstacle=False)
        grid = build_grid(1.0, 40)
        noise = sample_noise(grid, 5000, seed=9)
        fs = evaluate_u_field(p, [-1.0, 0.0, 1.0], [0.0, 0.5, 1.0], noise, BASIS, CFG)
        for a in range(2):
            for j, x in enumerate([-1.0, 0.0, 1.0]):
                assert abs(fs.values[a, j] - x) <= 4.0 * fs.stderr[a, j] + 1e-12

    def test_terminal_row_exact(self):
        p = builtin_problem("american-put-like")
        grid = build_grid(p.horizon, 20)
        noise = sample_noise(grid, 500, seed=9)
        xs = np.array([80.0, 100.0, 120.0])
        fs = evaluate_u_field(p, xs, [p.horizon], noise, BASIS, CFG)
        assert np.array_equal(fs.values[0], np.maximum(100.0 - xs, 0.0))
        assert np.all(fs.stderr[0] == 0.0)

    def test_obstacle_domination(self):
        p = builtin_problem("american-put-like")
        grid = build_grid(p.horizon, 25)
        noise = sample_noise(grid, 2000, seed=12)
        xs = np.array([85.0, 100.0, 115.0])
        times = [0.0, grid.nodes[12]]
        fs = evaluate_u_field(p, xs, times, noise, BASIS, CFG)
        for a, t in enumerate(fs.time_nodes):
            h = p.obstacle(float(t), xs[:, None])
            assert np.all(fs.values[a] >= h - 1e-12)

    def test_z_dependent_g_rejected(self, small_noise):
        p = builtin_problem("paper-1-4")
        with pytest.raises(UnsupportedProblemError):
            evaluate_u_field(p, [0.0], [0.0], small_noise, BASIS, CFG)

    def test_point_is_the_solve_from_its_node(self, small_noise):
        # u(t, x) is the start value of the solve on the grid from t to T
        p = builtin_problem("american-put-like")
        fs = evaluate_u_field(p, [95.0], [small_noise.grid.nodes[30]], small_noise, BASIS, CFG)
        rest = small_noise.from_node(30)
        fwd = simulate_forward(p, float(rest.grid.nodes[0]), [95.0], rest)
        sol, _, _ = picard_solve(p, fwd, rest, BASIS, CFG)
        assert fs.values[0, 0] == float(np.mean(sol.y.values[:, 0, 0]))
        assert fs.stderr[0, 0] == sol.diagnostics["value_stderr"]

    def test_singular_regression_names_the_field_point(self, small_noise):
        # every path starts at x, so the start node's design is singular; the
        # node counts from t, and the message adds t and x
        p = builtin_problem("lipschitz-linear")
        t = float(small_noise.grid.nodes[7])
        with pytest.raises(SingularRegressionError,
                           match=rf"node 0, bin \d+ at field point t={t}, x0=0.5$"):
            evaluate_u_field(p, [0.5], [t], small_noise, BASIS, SolverConfig(ridge=0.0))

    def test_non_finite_generator_names_the_field_point(self, small_noise):
        p = builtin_problem("lipschitz-linear")
        bad = dataclasses.replace(p.generators, f=lambda t, x, y, z: np.full(len(y), np.nan))
        p = dataclasses.replace(p, generators=bad)
        t = float(small_noise.grid.nodes[20])
        with pytest.raises(GeneratorEvaluationError,
                           match=rf"node 19 at field point t={t}, x0=0.0$"):
            evaluate_u_field(p, [0.0], [t], small_noise, BASIS, CFG)

    def test_zero_g_is_b_independent(self):
        # g = 0 removes every B term, so two B realizations agree bitwise
        p = builtin_problem("american-put-like")
        grid = build_grid(p.horizon, 20)
        a = sample_noise(grid, 1500, seed=33, b_stream=0)
        b = sample_noise(grid, 1500, seed=33, b_stream=1)
        fa = evaluate_u_field(p, [95.0, 105.0], [0.0], a, BASIS, CFG)
        fb = evaluate_u_field(p, [95.0, 105.0], [0.0], b, BASIS, CFG)
        assert np.max(np.abs(fa.values - fb.values)) <= 1e-12

    def test_live_g_feels_the_b_path(self):
        p = builtin_problem("log-modulus")
        grid = build_grid(1.0, 20)
        a = sample_noise(grid, 1500, seed=33, b_stream=0)
        b = sample_noise(grid, 1500, seed=33, b_stream=1)
        fa = evaluate_u_field(p, [0.0], [0.0], a, BASIS, CFG)
        fb = evaluate_u_field(p, [0.0], [0.0], b, BASIS, CFG)
        assert np.max(np.abs(fa.values - fb.values)) > 1e-6


class TestDoss:
    def test_zero_g_identity(self, small_noise):
        gen = builtin_problem("lipschitz-linear").generators
        ys = np.linspace(-2.0, 2.0, 41)
        d = solve_doss_eta(gen, small_noise.grid, [0.0], ys, small_noise.b_increments)
        assert np.max(np.abs(d.eta - ys[None, None, :])) == 0.0

    def test_constant_g_closed_form(self, small_noise):
        gen = dataclasses.replace(builtin_problem("lipschitz-linear").generators,
                                  g=lambda t, x, y, z: np.full((len(y), 1), 0.7))
        ys = np.linspace(-2.0, 2.0, 41)
        d = solve_doss_eta(gen, small_noise.grid, [0.0], ys, small_noise.b_increments)
        b_path = np.concatenate([[0.0], np.cumsum(small_noise.b_increments[:, 0])])
        expect = ys[None, None, :] + 0.7 * (b_path[-1] - b_path)[:, None, None]
        assert np.max(np.abs(d.eta - expect)) < 1e-12
        assert d.inverse_identity_error() < 1e-12

    def test_linear_g_inverse_identity_halves(self):
        # coarse eta composed with the fine-reference inverse shrinks at
        # first order in the time step
        beta = 0.4
        gen = dataclasses.replace(builtin_problem("lipschitz-linear").generators,
                                  g=lambda t, x, y, z: (beta * y)[:, None])
        fine = sample_noise(build_grid(1.0, 1600), 1, seed=7)
        ref = solve_doss_eta(gen, fine.grid, [0.0], np.linspace(0.3, 2.6, 461),
                             fine.b_increments)
        ys = np.linspace(0.5, 2.0, 61)
        errs = {}
        for fac in (32, 16):
            coarse = coarsen_noise(fine, fac)
            d = solve_doss_eta(gen, coarse.grid, [0.0], ys, coarse.b_increments)
            worst = 0.0
            for ci, fi in enumerate(range(0, 1601, fac)):
                back = ref.epsilon(fi, 0, d.eta[ci, 0])
                worst = max(worst, float(np.max(np.abs(back - ys))))
            errs[1600 // fac] = worst
        assert 1.6 <= errs[50] / errs[100] <= 2.4

    def test_monotone_in_y(self, small_noise):
        gen = dataclasses.replace(builtin_problem("lipschitz-linear").generators,
                                  g=lambda t, x, y, z: (0.3 * y)[:, None])
        ys = np.linspace(0.5, 2.0, 31)
        d = solve_doss_eta(gen, small_noise.grid, [0.0], ys, small_noise.b_increments)
        assert np.all(np.diff(d.eta, axis=2) > 0)

    def test_coarse_step_detected(self):
        # violently oscillating g on a very coarse grid folds eta over in y
        gen = dataclasses.replace(builtin_problem("lipschitz-linear").generators,
                                  g=lambda t, x, y, z: (3.0 * np.sin(3.0 * y))[:, None])
        grid = build_grid(1.0, 2)
        noise = sample_noise(grid, 1, seed=4)
        with pytest.raises(StepSizeError):
            solve_doss_eta(gen, grid, [0.0], np.linspace(-2.0, 2.0, 61),
                           noise.b_increments)

    def test_z_dependent_g_rejected(self, small_noise):
        gen = builtin_problem("paper-1-4").generators
        with pytest.raises(UnsupportedProblemError):
            solve_doss_eta(gen, small_noise.grid, [0.0], np.linspace(0, 1, 11),
                           small_noise.b_increments)


class TestMonotoneFields:
    def test_empty_n_values_gives_base_field(self):
        p = builtin_problem("lipschitz-linear")
        grid = build_grid(1.0, 10)
        noise = sample_noise(grid, 500, seed=43)
        rep = monotone_field_sequence(p, [], [0.0, 0.5], [0.0], noise, BASIS, CFG)
        base = evaluate_u_field(p, [0.0, 0.5], [0.0], noise, BASIS, CFG)
        assert np.array_equal(rep.base.values, base.values)
        assert np.array_equal(rep.base.stderr, base.stderr)
        assert rep.n_values == () and rep.lower == {} and rep.upper == {}
        assert rep.base_within_bracket and rep.widths_non_increasing

    def test_lipschitz_base_fields_coincide(self):
        # f already Lipschitz below min(n): envelopes equal f, fields agree
        p = builtin_problem("lipschitz-linear", b_coef=0.0)
        grid = build_grid(1.0, 20)
        noise = sample_noise(grid, 2000, seed=41)
        rep = monotone_field_sequence(p, [4, 8], [0.0, 0.5], [0.0], noise, BASIS, CFG)
        assert rep.lower_monotone_violations == 0
        assert rep.upper_monotone_violations == 0
        assert rep.base_within_bracket
        spread = abs(rep.lower[8].values - rep.base.values)
        assert np.max(spread) <= 3.0 * np.max(rep.base.stderr) + rep.grid_tols[1] + 1e-6

    def test_brackets_on_nonlipschitz_instance(self):
        p = builtin_problem("paper-1-4", g_z_free=True)
        grid = build_grid(1.0, 25)
        noise = sample_noise(grid, 4000, seed=31)
        rep = monotone_field_sequence(p, [4, 8, 16], [-0.5, 0.0, 0.5], [0.0, grid.nodes[12]],
                                      noise, BASIS, CFG)
        assert rep.lower_monotone_violations == 0
        assert rep.upper_monotone_violations == 0
        assert rep.widths_non_increasing
        assert rep.base_within_bracket

    def test_inadmissible_n_rejected_before_any_field(self, monkeypatch):
        # envelopes draw no noise, so each is built before the first solve
        calls = []
        solve = field_module.evaluate_u_field
        monkeypatch.setattr(field_module, "evaluate_u_field",
                            lambda *a, **k: calls.append(1) or solve(*a, **k))
        p = builtin_problem("lipschitz-linear", a=2.5)  # admissible from n = 3
        noise = sample_noise(build_grid(1.0, 4), 50, seed=43)
        with pytest.raises(ValueError, match="n=2 is below the admissible minimum 3"):
            monotone_field_sequence(p, [4, 2], [0.0], [0.0], noise, BASIS, CFG)
        assert calls == []


class TestMemory:
    def test_interior_point_peak_in_full_arrays(self):
        # a point at T/2 solves on the last half of the grid; its peak
        # (forward paths, obstacle and the Picard solve on that half) stays
        # under 4.5 arrays of the whole grid's size
        p = builtin_problem("american-put-like")
        m, n = 20_000, 20
        noise = sample_noise(build_grid(p.horizon, n), m, seed=3)
        tracemalloc.start()
        try:
            evaluate_u_field(p, p.spot, [noise.grid.nodes[n // 2]], noise,
                             RegressionBasis(bins=8), SolverConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (m * (n + 1) * 8) <= 4.5
