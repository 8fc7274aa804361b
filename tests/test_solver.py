import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from oracles import (coarsen_noise, design_matrix, implicit_linear_reference,
                     linear_doubly_reference, plain_bsde_reference)
from rbdsde.forward import ForwardEnsemble, simulate_forward
from rbdsde.generators import (GeneratorSpec, ProblemSpec, builtin_problem,
                               expression_generator, shifted_problem)
from rbdsde.modulus import lipschitz_modulus, majorant_sequence
from rbdsde.paths import ProcessSample, build_grid, sample_noise
import rbdsde.solver
from rbdsde.solver import (GeneratorEvaluationError, MajorantGapReport, RegressionBasis,
                           RegressionPlan, SingularRegressionError, SolutionTriple,
                           SolverConfig, comparison_experiment, obstacle_values,
                           picard_gap_vs_majorant, picard_solve, skorokhod_residual,
                           solve_frozen_rbdsde)

BASIS = RegressionBasis(bins=8)
# a global polynomial is one bin, a piecewise constant degree 0
ALL_BASES = (RegressionBasis(bins=1, degree=2), RegressionBasis(degree=0, bins=8), BASIS)
FAMILIES = ("polynomial", "piecewise-constant", "local-polynomial")


def brownian_problem(**kwargs):
    return builtin_problem("lipschitz-linear", **kwargs)


def one_node_fit(values, state, basis, ridge):
    """Fitted values of ``values`` regressed on a single node's ``state``."""
    return RegressionPlan(basis, state[:, None], ridge).fit(0, values)


def sweep_plan(fwd, basis=BASIS):
    """The plan picard_solve builds, at the default ridge."""
    return RegressionPlan(basis, fwd.paths.values, SolverConfig().ridge)


class TestRegression:
    def test_constant_values(self, rng):
        state = rng.normal(size=(400, 1))
        for basis in (RegressionBasis(bins=1, degree=2), RegressionBasis(degree=0, bins=8),
                      RegressionBasis(bins=4)):
            fitted = one_node_fit(np.full(400, 2.5), state, basis, 0.0)
            assert np.max(np.abs(fitted - 2.5)) < 1e-10

    def test_linear_map_exact(self, rng):
        state = rng.normal(size=(500, 1))
        values = 3.0 * state[:, 0] - 1.0
        fitted = one_node_fit(values, state, RegressionBasis(bins=1, degree=1), 0.0)
        assert np.max(np.abs(fitted - values)) < 1e-10

    def test_against_dense_normal_equations(self, rng):
        state = rng.normal(size=(2000, 1))
        values = state[:, 0] ** 2 + 0.1 * rng.normal(size=2000)
        for basis in (RegressionBasis(bins=1, degree=2), RegressionBasis(degree=0, bins=16),
                      RegressionBasis(bins=8, degree=2)):
            fitted = one_node_fit(values, state, basis, 1e-8)
            phi = design_matrix(basis, state)
            k = phi.shape[1]
            gram = phi.T @ phi / len(state) + 1e-8 * np.eye(k)
            dense = phi @ np.linalg.solve(gram, phi.T @ values / len(state))
            assert np.max(np.abs(fitted - dense)) < 1e-8

    def test_singular_without_ridge(self):
        state = np.zeros((50, 1))  # constant state duplicates the columns
        with pytest.raises(SingularRegressionError):
            one_node_fit(np.ones(50), state, RegressionBasis(bins=1, degree=1), 0.0)

    def test_needs_enough_paths(self, rng):
        state = rng.normal(size=(3, 1))
        with pytest.raises(ValueError):
            one_node_fit(np.ones(3), state, RegressionBasis(bins=1, degree=5), 1e-8)

    def test_multi_output_shares_design(self, rng):
        state = rng.normal(size=(300, 1))
        values = rng.normal(size=(300, 2))
        both = one_node_fit(values, state, BASIS, 1e-8)
        for j in range(2):
            one = one_node_fit(values[:, j], state, BASIS, 1e-8)
            assert np.max(np.abs(both[:, j] - one)) < 1e-13


class TestRegressionPlan:
    @pytest.mark.parametrize("start", [0, 7])
    def test_designs_built_once_per_node(self, small_noise, monkeypatch, start):
        calls = []
        bin_ids = rbdsde.solver._bin_ids
        monkeypatch.setattr(rbdsde.solver, "_bin_ids",
                            lambda *a: calls.append(1) or bin_ids(*a))
        p = brownian_problem()
        rest = small_noise.from_node(start)
        fwd = simulate_forward(p, float(rest.grid.nodes[0]), [0.0], rest)
        _, iterations, _ = picard_solve(p, fwd, rest, BASIS, SolverConfig())
        assert iterations >= 2
        assert len(calls) == small_noise.grid.num_steps - start

    @pytest.mark.parametrize("basis", ALL_BASES, ids=FAMILIES)
    def test_fit_matches_one_node_regression(self, small_noise, rng, basis):
        # repeated fits must not disturb the cached Gram matrices
        fwd = simulate_forward(brownian_problem(), 0.0, [0.0], small_noise)
        xs = fwd.paths.values
        plan = sweep_plan(fwd, basis)
        values = rng.normal(size=(small_noise.num_paths, 2))
        for i in range(small_noise.grid.num_steps - 1, -1, -1):
            v = values + xs[:, i + 1]
            ref = one_node_fit(v, xs[:, i], basis, SolverConfig().ridge)
            assert np.array_equal(plan.fit(i, v), ref)
            assert np.array_equal(plan.fit(i, v), ref)

    def test_polynomial_is_the_one_bin_local_polynomial(self, small_noise, rng):
        # a global polynomial is spelled bins=1; the family has no other name
        for alias in ("polynomial", "piecewise-constant"):
            with pytest.raises(ValueError, match="unknown basis kind"):
                RegressionBasis(kind=alias)
        xs = simulate_forward(brownian_problem(), 0.0, [0.0], small_noise).paths.values
        plan = RegressionPlan(RegressionBasis(bins=1, degree=2), xs, 0.0)
        values = rng.normal(size=small_noise.num_paths)
        for i in range(1, small_noise.grid.num_steps):
            raw = np.column_stack([xs[:, i, 0] ** k for k in range(3)])
            coef, *_ = np.linalg.lstsq(raw, values, rcond=None)
            assert np.max(np.abs(plan.fit(i, values) - raw @ coef)) < 1e-10

    def test_fresh_plan_equals_partly_fitted_plan(self, small_noise):
        # a plan that has already fitted the later nodes builds the rest on demand
        p = brownian_problem()
        fwd = simulate_forward(p, 0.0, [0.0], small_noise)
        frozen = np.zeros((small_noise.num_paths, small_noise.grid.num_steps + 1))
        cfg = SolverConfig()
        used = sweep_plan(fwd)
        obstacle = obstacle_values(p, fwd)
        xs = fwd.paths.values[:, :, 0]
        for i in range(small_noise.grid.num_steps - 1, 6, -1):
            used.fit(i, xs[:, i + 1])
        ref = solve_frozen_rbdsde(p, frozen, fwd, small_noise, sweep_plan(fwd), cfg,
                                  obstacle=obstacle)
        sol = solve_frozen_rbdsde(p, frozen, fwd, small_noise, used, cfg, obstacle=obstacle)
        for a, b in ((sol.y, ref.y), (sol.z, ref.z), (sol.k, ref.k)):
            assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("basis", [RegressionBasis(bins=1), BASIS],
                             ids=["polynomial", "local-polynomial"])
    def test_singular_start_node_named(self, small_noise, basis):
        # every path starts at one state, so the start node's design is singular;
        # nodes count from the first node of the solve's grid
        p = brownian_problem()
        rest = small_noise.from_node(7)
        fwd = simulate_forward(p, float(rest.grid.nodes[0]), [0.0], rest)
        with pytest.raises(SingularRegressionError, match=r"node 0\b"):
            picard_solve(p, fwd, rest, basis, SolverConfig(ridge=0.0))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(picard_tol=0.0)
        with pytest.raises(ValueError):
            SolverConfig(picard_max_iter=0)
        with pytest.raises(ValueError):
            SolverConfig(z_scheme="implicit")


class TestBackwardScheme:
    def test_martingale_representation(self):
        # f = g = 0, no obstacle, terminal x: Y recovers X, Z recovers 1, K = 0
        p = brownian_problem(a=0.0, b_coef=0.0, with_obstacle=False)
        grid = build_grid(1.0, 50)
        noise = sample_noise(grid, 20_000, seed=3)
        fwd = simulate_forward(p, 0.0, [0.0], noise)
        sol, iterations, history = picard_solve(p, fwd, noise, BASIS, SolverConfig())
        assert iterations == 2
        assert history[-1] == 0.0
        y = sol.y.values[:, :, 0]
        x = fwd.paths.values[:, :, 0]
        assert np.max(np.abs(np.mean(y - x, axis=0))) < 0.05
        assert abs(float(np.mean(sol.z.values[:, :-1])) - 1.0) < 0.05
        assert np.all(sol.k.values == 0.0)

    def test_constant_on_obstacle_exact(self, small_grid, small_noise):
        p = brownian_problem(a=0.0, b_coef=0.0)
        p = dataclasses.replace(p, terminal=lambda x: np.full(len(x), 2.5),
                                obstacle=lambda t, x: np.full(len(x), 2.5))
        # bin means reproduce constants exactly, even at the degenerate start
        basis = RegressionBasis(degree=0, bins=8)
        sol, _, _ = picard_solve(p, simulate_forward(p, 0.0, [0.0], small_noise),
                                 small_noise, basis, SolverConfig(ridge=0.0))
        assert np.max(np.abs(sol.y.values - 2.5)) < 1e-12
        assert np.all(sol.k.values == 0.0)

    def test_y_free_generator_two_iterations(self, small_grid, small_noise):
        p = brownian_problem(a=0.0, b_coef=0.2)
        fwd = simulate_forward(p, 0.0, [0.0], small_noise)
        sol, iterations, history = picard_solve(p, fwd, noise=small_noise,
                                                basis=BASIS, cfg=SolverConfig())
        assert iterations == 2
        assert history[1] == 0.0

    def test_implicit_scheme_oracle(self):
        p = brownian_problem(a=0.25, b_coef=0.2)
        grid = build_grid(1.0, 32)
        noise = sample_noise(grid, 8000, seed=22)
        fwd = simulate_forward(p, 0.0, [0.0], noise)
        sol, _, _ = picard_solve(p, fwd, noise, RegressionBasis(bins=1, degree=3),
                                 SolverConfig(picard_tol=1e-8))
        ref = implicit_linear_reference(p, fwd, noise, degree=3, a=0.25, b_coef=0.2)
        gap = abs(float(np.mean(sol.y.values[:, 0, 0])) - float(np.mean(ref[:, 0])))
        assert gap <= 2.0 * sol.diagnostics["value_stderr"]

    def test_picard_fixed_point(self, small_noise):
        p = brownian_problem()
        fwd = simulate_forward(p, 0.0, [0.0], small_noise)
        cfg = SolverConfig(picard_tol=1e-6)
        sol, _, _ = picard_solve(p, fwd, small_noise, BASIS, cfg)
        again = solve_frozen_rbdsde(p, sol.y.values[:, :, 0], fwd, small_noise,
                                    sweep_plan(fwd), cfg, obstacle=obstacle_values(p, fwd))
        gap = float(np.max(np.mean((again.y.values - sol.y.values) ** 2, axis=0)))
        assert gap < cfg.picard_tol

    def test_per_iteration_record(self, solved_put):
        p, fwd, sol = solved_put
        table = sol.diagnostics["per_iteration"]
        assert list(table) == ["mean_Y", "mean_Z_norm", "mean_K", "gap", "skorokhod_partial"]
        iterations = table["gap"].shape[0]
        for col in table.values():
            assert col.shape == (iterations, fwd.paths.grid.num_steps + 1)
        # the record sums the paths in path order, as np.mean does on a
        # path-major copy; on the node-major public view np.mean sums pairwise
        assert np.array_equal(table["mean_Y"][-1],
                              np.mean(np.ascontiguousarray(sol.y.values[:, :, 0]), axis=0))
        assert sol.diagnostics["skorokhod_residual"] == table["skorokhod_partial"][-1, -1]

    def test_gap_history_is_the_row_maxima(self, small_noise):
        p = brownian_problem()
        fwd = simulate_forward(p, 0.0, [0.0], small_noise)
        sol, iterations, history = picard_solve(p, fwd, small_noise, BASIS, SolverConfig())
        gaps = sol.diagnostics["per_iteration"]["gap"]
        assert gaps.shape[0] == iterations == len(history)
        assert history == [float(np.max(row)) for row in gaps]

    def test_bsde_reduction_bit_equivalent(self):
        # with g = 0 and no obstacle the solver must match the plain
        # regression scheme given identical noise (inert branches)
        base = brownian_problem(with_obstacle=False)
        gen = GeneratorSpec(f=lambda t, x, y, z: 0.1 + 0.3 * z[:, 0],
                            g=lambda t, x, y, z: np.zeros((len(y), 1)),
                            modulus=lipschitz_modulus(1e-9), z_lipschitz=0.2)
        p = dataclasses.replace(base, generators=gen, terminal=lambda x: x[:, 0] ** 2)
        grid = build_grid(1.0, 32)
        noise = sample_noise(grid, 4000, seed=21)
        fwd = simulate_forward(p, 0.0, [0.0], noise)
        # from node 1 on, where the paths have spread and ridge 0 is regular
        rest = noise.from_node(1)
        tail = ForwardEnsemble(ProcessSample(rest.grid, fwd.paths.values[:, 1:]))
        sol, _, _ = picard_solve(p, tail, rest, RegressionBasis(bins=1, degree=3),
                                 SolverConfig(ridge=0.0))
        ref = plain_bsde_reference(p, fwd, noise, degree=3)
        assert np.max(np.abs(sol.y.values[:, :, 0] - ref[:, 1:])) < 1e-10

    def test_nan_generator_reports_node(self, small_noise):
        p = brownian_problem()
        bad = dataclasses.replace(
            p.generators, f=lambda t, x, y, z: np.full(len(y), np.nan))
        p = dataclasses.replace(p, generators=bad)
        fwd = simulate_forward(p, 0.0, [0.0], small_noise)
        with pytest.raises(GeneratorEvaluationError, match="node 39"):
            solve_frozen_rbdsde(p, np.zeros((small_noise.num_paths,
                                             small_noise.grid.num_steps + 1)),
                                fwd, small_noise, sweep_plan(fwd), SolverConfig(),
                                obstacle=obstacle_values(p, fwd))

    def test_linear_doubly_reference_refines_to_closed_form(self):
        # f = a y + b z, g = c y: the scheme's limit tends to
        # b T e^{aT} exp(c B_T - c^2 T / 2) as the grid is refined
        a, b, c = 0.25, 0.2, 0.5
        fine = build_grid(1.0, 4096)
        errors = {4096: [], 64: []}
        for stream in range(8):
            noise = sample_noise(fine, 1, b_stream=stream)
            exact = b * math.exp(a) * math.exp(c * float(np.sum(noise.b_increments))
                                               - c * c / 2)
            for ens in (noise, coarsen_noise(noise, 64)):
                beta0 = linear_doubly_reference(a, b, c, ens.grid, ens.b_increments)
                errors[ens.grid.num_steps].append(abs(beta0 / exact - 1.0))
        assert np.mean(errors[4096]) <= 0.5 * np.mean(errors[64])

    @pytest.mark.parametrize("seed", range(1, 9))
    def test_y_dependent_g_matches_linear_doubly_reference(self, seed):
        gen = expression_generator("0.25*y + 0.2*z", "0.5*y", lipschitz_modulus(0.125))
        p = dataclasses.replace(brownian_problem(with_obstacle=False), generators=gen)
        noise = sample_noise(build_grid(p.horizon, 25), 5000, seed=seed)
        fwd = simulate_forward(p, 0.0, p.spot, noise)
        sol, _, _ = picard_solve(p, fwd, noise, RegressionBasis(),
                                 SolverConfig(picard_tol=1e-10, picard_max_iter=40))
        assert sol.diagnostics["converged"]
        ref = linear_doubly_reference(0.25, 0.2, 0.5, noise.grid, noise.b_increments)
        y0 = float(np.mean(sol.y.values[:, 0, 0]))
        assert abs(y0 - ref) <= 4.0 * sol.diagnostics["value_stderr"]

    @pytest.mark.parametrize("seed", range(1, 4))
    def test_two_dimensional_brownian_matches_closed_form(self, seed):
        # f = a y + b (z1 + z2), g = 0, terminal X1 + X2 of a 2-d Brownian
        # motion from 0, no obstacle: Y_0 = 2 b T e^{aT}
        a, b = 0.25, 0.2
        gen = GeneratorSpec(f=lambda t, x, y, z: a * y + b * np.sum(z, axis=1),
                            g=lambda t, x, y, z: np.zeros((len(y), 1)),
                            modulus=lipschitz_modulus(2.0 * a * a), z_lipschitz=4.0 * b * b)
        p = ProblemSpec(name="brownian-2d", dim=2, horizon=1.0, drift=np.zeros_like,
                        diffusion=lambda x: np.tile(np.eye(2), (len(x), 1, 1)),
                        generators=gen, terminal=lambda x: np.sum(x, axis=1), obstacle=None,
                        spot=np.zeros(2))
        noise = sample_noise(build_grid(p.horizon, 25), 5000, d=2, seed=seed)
        fwd = simulate_forward(p, 0.0, p.spot, noise)
        sol, _, _ = picard_solve(p, fwd, noise, RegressionBasis(bins=4), SolverConfig())
        assert sol.diagnostics["converged"]
        y0 = float(np.mean(sol.y.values[:, 0, 0]))
        assert abs(y0 - 2.0 * b * math.exp(a)) <= 4.0 * sol.diagnostics["value_stderr"]

    def test_finite_increment_scheme_close(self, small_noise):
        p = brownian_problem(a=0.2, b_coef=0.3)
        fwd = simulate_forward(p, 0.0, [0.0], small_noise)
        sol_a, _, _ = picard_solve(p, fwd, small_noise, BASIS, SolverConfig())
        sol_b, _, _ = picard_solve(p, fwd, small_noise, BASIS,
                                   SolverConfig(z_scheme="finite-increment"))
        d0 = abs(float(np.mean(sol_a.y.values[:, 0, 0]))
                 - float(np.mean(sol_b.y.values[:, 0, 0])))
        assert d0 < 0.02

    def test_frozen_y_shape_guard(self, small_noise):
        p = brownian_problem()
        fwd = simulate_forward(p, 0.0, [0.0], small_noise)
        with pytest.raises(ValueError):
            solve_frozen_rbdsde(p, np.zeros((3, 3)), fwd, small_noise, sweep_plan(fwd),
                                SolverConfig(), obstacle=obstacle_values(p, fwd))


@pytest.fixture(scope="module")
def solved_put():
    p = builtin_problem("american-put-like")
    grid = build_grid(p.horizon, 50)
    noise = sample_noise(grid, 8000, seed=2024)
    fwd = simulate_forward(p, 0.0, p.spot, noise)
    sol, _, _ = picard_solve(p, fwd, noise, RegressionBasis(), SolverConfig())
    return p, fwd, sol


@pytest.fixture(scope="module")
def comparison_setup():
    p = brownian_problem()
    grid = build_grid(p.horizon, 32)
    noise = sample_noise(grid, 4000, seed=17)
    fwd = simulate_forward(p, 0.0, p.spot, noise)
    return p, fwd, noise


class TestSolutionTriple:
    @staticmethod
    def triple(grid, k):
        y = ProcessSample(grid=grid, values=np.zeros_like(k))
        return SolutionTriple(y=y, z=y, k=ProcessSample(grid=grid, values=k))

    def test_k_must_start_at_zero(self, small_grid):
        vals = np.ones((3, small_grid.num_steps + 1, 1))
        with pytest.raises(ValueError, match="K must start at 0"):
            self.triple(small_grid, vals)

    def test_k_must_be_nondecreasing(self, small_grid):
        vals = np.zeros((3, small_grid.num_steps + 1, 1))
        vals[:, 5:] = -1.0
        with pytest.raises(ValueError, match="K must be non-decreasing"):
            self.triple(small_grid, vals)

    def test_k_accepts_valid(self, small_grid):
        vals = np.cumsum(np.abs(np.random.default_rng(0).normal(
            size=(3, small_grid.num_steps + 1, 1))), axis=1)
        vals -= vals[:, :1]
        self.triple(small_grid, vals)


class TestReflection:
    def test_dominance(self, solved_put):
        p, fwd, sol = solved_put
        obstacle = obstacle_values(p, fwd)
        assert float(np.min(sol.y.values[:, :, 0] - obstacle)) >= -1e-12

    def test_minimal_push(self, solved_put):
        p, fwd, sol = solved_put
        obstacle = obstacle_values(p, fwd)
        dk = np.diff(sol.k.values[:, :, 0], axis=1)
        off_contact = (sol.y.values[:, :-1, 0] > obstacle[:, :-1] + 1e-12) & (dk > 0)
        assert int(np.sum(off_contact)) == 0

    def test_residual_zero_when_k_zero(self, small_grid):
        n_nodes = small_grid.num_steps + 1
        sol = SolutionTriple(
            y=ProcessSample(grid=small_grid, values=np.ones((4, n_nodes, 1))),
            z=ProcessSample(grid=small_grid, values=np.zeros((4, n_nodes, 1))),
            k=ProcessSample(grid=small_grid, values=np.zeros((4, n_nodes, 1))))
        obstacle = np.zeros((4, n_nodes))
        assert skorokhod_residual(sol, obstacle) == 0.0

    def test_residual_zero_on_contact(self, small_grid):
        # Y = S everywhere: residual vanishes no matter how K grows
        n_nodes = small_grid.num_steps + 1
        k = np.cumsum(np.ones((4, n_nodes, 1)), axis=1) - 1.0
        sol = SolutionTriple(
            y=ProcessSample(grid=small_grid, values=np.ones((4, n_nodes, 1))),
            z=ProcessSample(grid=small_grid, values=np.zeros((4, n_nodes, 1))),
            k=ProcessSample(grid=small_grid, values=k))
        obstacle = np.ones((4, n_nodes))
        assert skorokhod_residual(sol, obstacle) == 0.0

    def test_residual_bound_on_solved_instance(self, solved_put):
        from rbdsde.paths import empirical_norm
        p, fwd, sol = solved_put
        obstacle = obstacle_values(p, fwd)
        residual = skorokhod_residual(sol, obstacle)
        bound = 1e-2 * empirical_norm(sol.y) * float(np.mean(sol.k.values[:, -1, 0]))
        assert residual <= bound

    def test_no_obstacle_residual(self, small_noise):
        p = brownian_problem(with_obstacle=False)
        fwd = simulate_forward(p, 0.0, [0.0], small_noise)
        sol, _, _ = picard_solve(p, fwd, small_noise, BASIS, SolverConfig())
        assert skorokhod_residual(sol, obstacle_values(p, fwd)) == 0.0

    def test_obstacle_evaluated_once_per_solve(self, small_noise):
        calls = []
        p = brownian_problem()
        h = p.obstacle
        p = dataclasses.replace(p, obstacle=lambda t, x: calls.append(t) or h(t, x))
        fwd = simulate_forward(p, 0.0, [0.0], small_noise)
        _, iterations, _ = picard_solve(p, fwd, small_noise, BASIS, SolverConfig())
        assert iterations >= 2
        assert calls == list(small_noise.grid.nodes)

    def test_nan_obstacle_reports_node(self, small_noise):
        p = brownian_problem()
        h = p.obstacle
        p = dataclasses.replace(p, obstacle=lambda t, x: h(t, x) + (np.nan if t > 0.5 else 0.0))
        fwd = simulate_forward(p, 0.0, [0.0], small_noise)
        with pytest.raises(GeneratorEvaluationError,
                           match=r"^non-finite obstacle value at node 21$"):
            picard_solve(p, fwd, small_noise, BASIS, SolverConfig())

    def test_obstacle_shape_guard(self, small_noise):
        p = brownian_problem()
        fwd = simulate_forward(p, 0.0, [0.0], small_noise)
        frozen = np.zeros((small_noise.num_paths, small_noise.grid.num_steps + 1))
        with pytest.raises(ValueError, match="obstacle must have shape"):
            solve_frozen_rbdsde(p, frozen, fwd, small_noise, sweep_plan(fwd), SolverConfig(),
                                obstacle=obstacle_values(p, fwd)[:, 1:])


class TestComparison:
    @pytest.mark.parametrize("kind,amount", [("terminal", 1.0), ("obstacle", 0.5),
                                             ("generator", 0.5)])
    def test_ordered_fixtures(self, comparison_setup, kind, amount):
        p, fwd, noise = comparison_setup
        rep = comparison_experiment(p, kind, amount, fwd, noise, BASIS, SolverConfig())
        assert rep.within()
        assert rep.both_converged

    def test_identical_problems(self, comparison_setup):
        # a shift by 0 solves the problem twice on the same noise
        p, fwd, noise = comparison_setup
        rep = comparison_experiment(p, "terminal", 0.0, fwd, noise, BASIS, SolverConfig())
        assert rep.max_mean_positive_part == 0.0

    def test_precondition_violation(self, comparison_setup):
        # a negative shift would order the pair the wrong way
        p, fwd, noise = comparison_setup
        for amount in (-1.0, float("nan")):
            with pytest.raises(ValueError, match="shift amount must be >= 0"):
                comparison_experiment(p, "terminal", amount, fwd, noise, BASIS, SolverConfig())

    def test_node_statistics_sum_in_path_order(self):
        # np.mean and np.std of path-major copies, on a case whose positive
        # part is nonzero at some nodes
        p = builtin_problem("american-put-like")
        noise = sample_noise(build_grid(p.horizon, 20), 3000, seed=5)
        fwd = simulate_forward(p, 0.0, p.spot, noise)
        upper = shifted_problem(p, "terminal", 0.01)
        rep = comparison_experiment(p, "terminal", 0.01, fwd, noise, BASIS, SolverConfig())
        ys = [np.ascontiguousarray(picard_solve(q, fwd, noise, BASIS, SolverConfig())[0]
                                   .y.values[:, :, 0]) for q in (p, upper)]
        diff = ys[0] - ys[1]
        assert rep.max_mean_positive_part > 0.0
        assert np.array_equal(rep.node_means, np.mean(np.maximum(diff, 0.0), axis=0))
        assert np.array_equal(rep.node_stderr,
                              np.std(diff, axis=0) / math.sqrt(noise.num_paths))


class TestPathMean:
    @pytest.mark.parametrize("m", [1, 4095, 4096, 4097, 10_000])
    def test_equals_mean_of_a_path_major_array(self, rng, m):
        a = rng.normal(size=(m, 7))
        expect = np.mean(a, axis=0)
        assert np.array_equal(rbdsde.solver._path_mean(np.asarray, a), expect)
        node_major = np.ascontiguousarray(a.T).T
        assert np.array_equal(rbdsde.solver._path_mean(np.asarray, node_major), expect)


class TestMemory:
    @pytest.mark.parametrize("name", ["paper-1-4", "lipschitz-linear", "american-put-like",
                                      "log-modulus"])
    def test_picard_solve_peak_in_full_arrays(self, name):
        # noise and paths exist before tracing; the solve's own peak (obstacle,
        # previous and current Y, Z, K, and the check of K) stays under 7
        p = builtin_problem(name)
        m, n = 20_000, 20
        noise = sample_noise(build_grid(p.horizon, n), m, seed=3)
        fwd = simulate_forward(p, 0.0, p.spot, noise)
        tracemalloc.start()
        try:
            picard_solve(p, fwd, noise, RegressionBasis(bins=8), SolverConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (m * (n + 1) * 8) <= 7.0


class TestMajorantGap:
    def test_zero_modulus_y_free(self, small_noise):
        p = brownian_problem(a=0.0, b_coef=0.2)
        fwd = simulate_forward(p, 0.0, [0.0], small_noise)
        sol, _, _ = picard_solve(p, fwd, small_noise, BASIS, SolverConfig())
        maj = majorant_sequence(lipschitz_modulus(0.0), M=1.0, M1=1.0,
                                grid=small_noise.grid, n_max=6)
        gaps = sol.diagnostics["per_iteration"]["gap"]
        assert np.all(gaps[1:] <= 1e-10)  # f is y-free: iterate 2 on repeats iterate 1
        assert picard_gap_vs_majorant(gaps, maj).all_within

    def test_binding_bookkeeping(self, small_grid):
        profiles = np.full((3, small_grid.num_steps + 1), 5e-4)
        maj = majorant_sequence(lipschitz_modulus(0.0), M=1.0, M1=1.0,
                                grid=small_grid, n_max=4)
        rep = picard_gap_vs_majorant(profiles, maj)
        assert rep.all_within
        assert np.all(rep.tolerance_binding > 0)  # gaps exceed the zero majorant

    def test_gap_beyond_tolerance_fails(self, small_grid):
        profiles = np.full((3, small_grid.num_steps + 1), 2e-3)
        maj = majorant_sequence(lipschitz_modulus(0.0), M=1.0, M1=1.0,
                                grid=small_grid, n_max=4)
        rep = picard_gap_vs_majorant(profiles, maj)
        assert not rep.all_within
        assert rep.levels == (2, 3)
        assert np.array_equal(rep.fraction_within, [0.0, 0.0])
        assert np.array_equal(rep.tolerance_binding, [0, 0])

    def test_grid_mismatch(self, small_grid):
        maj = majorant_sequence(lipschitz_modulus(0.0), M=1.0, M1=1.0,
                                grid=small_grid, n_max=2)
        with pytest.raises(ValueError):
            picard_gap_vs_majorant(np.zeros((3, 7)), maj)
