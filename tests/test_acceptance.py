"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Desk-scale instances with committed seeds; tolerances are pinned here and
nowhere else.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import dataclasses
import json
import math
import time

import numpy as np
import pytest

from oracles import (binomial_american_put, brute_force_envelope, coarsen_noise,
                     plain_bsde_reference)
from rbdsde.cli import main as cli_main
from rbdsde.field import evaluate_u_field, monotone_field_sequence, solve_doss_eta
from rbdsde.forward import ForwardEnsemble, simulate_forward
from rbdsde.generators import (GeneratorSpec, builtin_problem, catalog_names,
                               envelope_property_check, lipschitz_envelope)
from rbdsde.modulus import (builtin_condition_a_fixtures, condition_a_uniqueness_check,
                            constant_budgets, horizon_partition, lipschitz_modulus,
                            majorant_sequence)
from rbdsde.paths import ProcessSample, build_grid, empirical_norm, sample_noise
from rbdsde.solver import (RegressionBasis, SolverConfig, comparison_experiment,
                           obstacle_values, picard_solve, skorokhod_residual)

SEED = 2024
PUT_BASIS = RegressionBasis(bins=32)
DESK_BASIS = RegressionBasis(bins=16)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def catalog_solutions():
    """Every catalog problem solved at N=100, 2e4 paths, committed seed."""
    out = {}
    for name in catalog_names():
        problem = builtin_problem(name)
        grid = build_grid(problem.horizon, 100)
        start = time.perf_counter()
        noise = sample_noise(grid, 20_000, d=problem.dim,
                             ell=problem.generators.ell, seed=SEED)
        fwd = simulate_forward(problem, 0.0, problem.spot, noise)
        basis = PUT_BASIS if name == "american-put-like" else DESK_BASIS
        sol, _, _ = picard_solve(problem, fwd, noise, basis, SolverConfig())
        elapsed = time.perf_counter() - start
        out[name] = (problem, fwd, sol, elapsed)
    return out


def test_criterion_1_skorokhod_flatness(catalog_solutions):
    details = []
    ok = True
    for name, (problem, fwd, sol, elapsed) in catalog_solutions.items():
        obstacle = obstacle_values(problem, fwd)
        residual = skorokhod_residual(sol, obstacle)
        bound = 1e-2 * empirical_norm(sol.y) * float(np.mean(sol.k.values[:, -1, 0]))
        good = residual <= bound and elapsed < 60.0
        ok = ok and good
        details.append(f"{name}: residual={residual:.2e} bound={bound:.2e} {elapsed:.1f}s")
    report("criterion-1 skorokhod-flatness", ok, "; ".join(details))


def test_criterion_2_dominance_and_minimal_push(catalog_solutions):
    violations = 0
    pushes_off = 0
    for name, (problem, fwd, sol, _) in catalog_solutions.items():
        obstacle = obstacle_values(problem, fwd)
        yv = sol.y.values[:, :, 0]
        violations += int(np.sum(yv < obstacle - 1e-12))
        dk = np.diff(sol.k.values[:, :, 0], axis=1)
        pushes_off += int(np.sum((yv[:, :-1] > obstacle[:, :-1] + 1e-12) & (dk > 0)))
    report("criterion-2 reflection-dominance-minimal-push",
           violations == 0 and pushes_off == 0,
           f"dominance_violations={violations} pushes_off_contact={pushes_off}")


def test_criterion_3_optimal_stopping_oracle(catalog_solutions):
    start = time.perf_counter()
    problem, _, sol, _ = catalog_solutions["american-put-like"]
    y0 = float(np.mean(sol.y.values[:, 0, 0]))
    ref0 = binomial_american_put(100.0, 100.0, 0.06, 0.2, problem.horizon)
    rels = [abs(y0 - ref0) / ref0]

    spots = [70.0, 85.0, 95.0, 100.0, 105.0]
    grid = build_grid(problem.horizon, 50)
    noise = sample_noise(grid, 30_000, seed=SEED)
    basis = RegressionBasis(bins=24)
    fs = evaluate_u_field(problem, spots, [0.0], noise, basis, SolverConfig())
    for j, s in enumerate(spots):
        ref = binomial_american_put(s, 100.0, 0.06, 0.2, problem.horizon)
        rels.append(abs(fs.values[0, j] - ref) / ref)
    elapsed = time.perf_counter() - start
    ok = max(rels) <= 0.015 and elapsed < 120.0
    report("criterion-3 optimal-stopping-oracle", ok,
           f"max_rel_err={max(rels):.3%} over Y0 and 5 spots, {elapsed:.0f}s")


def test_criterion_4_bsde_reduction():
    base = builtin_problem("lipschitz-linear", with_obstacle=False)
    gen = GeneratorSpec(f=lambda t, x, y, z: 0.1 + 0.3 * z[:, 0],
                        g=lambda t, x, y, z: np.zeros((len(y), 1)),
                        modulus=lipschitz_modulus(1e-9), z_lipschitz=0.2)
    problem = dataclasses.replace(base, generators=gen, terminal=lambda x: x[:, 0] ** 2)
    grid = build_grid(1.0, 32)
    noise = sample_noise(grid, 4000, seed=21)
    fwd = simulate_forward(problem, 0.0, [0.0], noise)
    # from node 1 on, where the paths have spread and ridge 0 is regular
    rest = noise.from_node(1)
    tail = ForwardEnsemble(ProcessSample(rest.grid, fwd.paths.values[:, 1:]))
    sol, _, _ = picard_solve(problem, tail, rest,
                             RegressionBasis(bins=1, degree=3),
                             SolverConfig(ridge=0.0))
    ref = plain_bsde_reference(problem, fwd, noise, degree=3)
    gap = float(np.max(np.abs(sol.y.values[:, :, 0] - ref[:, 1:])))
    report("criterion-4 bsde-reduction", gap <= 1e-10, f"max|Y - reference|={gap:.2e}")


def test_criterion_5_comparison_principle():
    problem = builtin_problem("lipschitz-linear")
    grid = build_grid(problem.horizon, 50)
    noise = sample_noise(grid, 10_000, seed=17)
    fwd = simulate_forward(problem, 0.0, problem.spot, noise)
    details = []
    ok = True
    for kind, amount in (("terminal", 1.0), ("obstacle", 0.5), ("generator", 0.5)):
        rep = comparison_experiment(problem, kind, amount, fwd, noise, DESK_BASIS,
                                    SolverConfig())
        ok = ok and rep.within()
        details.append(f"{kind}: max_mean_pos={rep.max_mean_positive_part:.2e}")
    report("criterion-5 comparison-principle", ok, "; ".join(details))


def test_criterion_6_condition_a_verdicts():
    start = time.perf_counter()
    ladder = [10.0 ** (-k) for k in range(2, 13)]
    results = {}
    for name, (spec, expected) in builtin_condition_a_fixtures().items():
        rep = condition_a_uniqueness_check(spec, M=1.0, T=1.0, eps_ladder=ladder)
        results[name] = (rep.verdict, expected)
    elapsed = time.perf_counter() - start
    ok = all(got == want for got, want in results.values()) and elapsed < 5.0
    report("criterion-6 condition-a-verdicts", ok,
           f"{ {k: v[0] for k, v in results.items()} } in {elapsed:.2f}s")


def test_criterion_7_majorant_structure():
    grid = build_grid(1.0, 200)
    mono_ok = True
    for name, (spec, _) in builtin_condition_a_fixtures().items():
        seq = majorant_sequence(spec, M=1.0, M1=1.0, grid=grid, n_max=6)
        mono_ok &= bool(np.all(np.diff(seq.values, axis=0) <= 1e-14))
        mono_ok &= bool(np.all(seq.values[:, -1] == 0.0))

    fine = build_grid(1.0, 10_000)
    seq = majorant_sequence(lipschitz_modulus(1.0), M=1.0, M1=1.0, grid=fine, n_max=5)
    t = fine.nodes
    factorial_err = max(
        float(np.max(seq.values[n] - (1.0 - t) ** (n + 1) / math.factorial(n + 1)))
        for n in range(seq.levels))

    tiling_ok = True
    finite_ok = True
    for c_rho, budget, horizon in ((1.0, 1.0, 3.0), (50.0, 1.0, 0.5), (0.5, 0.7, 1.3)):
        bp = horizon_partition(lipschitz_modulus(c_rho), M=1.0,
                               budgets=constant_budgets(budget), T=horizon)
        tiling_ok &= abs(float(np.sum(-np.diff(bp))) - horizon) <= 1e-12
        finite_ok &= bp[-1] == 0.0
    ok = mono_ok and factorial_err <= 1e-8 and tiling_ok and finite_ok
    report("criterion-7 majorant-structure", ok,
           f"monotone+terminal={mono_ok} factorial_excess={factorial_err:.2e} "
           f"tiling={tiling_ok} finite_p={finite_ok}")


def test_criterion_8_picard_behavior():
    problem = builtin_problem("paper-1-4")
    grid = build_grid(problem.horizon, 50)
    noise = sample_noise(grid, 20_000, seed=7)
    fwd = simulate_forward(problem, 0.0, problem.spot, noise)
    cfg = SolverConfig(picard_tol=1e-4, picard_max_iter=12)
    sol, iterations, history = picard_solve(problem, fwd, noise, DESK_BASIS, cfg)
    monotone = all(b < a for a, b in zip(history[1:], history[2:]))
    ok = (sol.diagnostics["converged"] and monotone
          and history[-1] < 1e-4 and iterations <= 12)
    report("criterion-8 picard-behavior", ok,
           f"iterations={iterations} gaps={['%.2e' % g for g in history]}")


def test_criterion_9_envelope_properties():
    problem = builtin_problem("paper-1-4")
    rep = envelope_property_check(problem.generators, [4, 8, 16, 32],
                                  num_points=10_000, u_range=20.0, u_step=1e-3)

    rng = np.random.Generator(np.random.Philox(key=[SEED, 0]))
    ys = rng.uniform(-3.0, 3.0, 200)
    xs = rng.normal(size=(200, 1))
    zs = rng.normal(size=(200, 1))
    oracle_gap = 0.0
    for direction in ("lower", "upper"):
        env = lipschitz_envelope(problem.generators, 4, direction,
                                 u_range=20.0, u_step=1e-3)
        mine = env.evaluate(0.2, xs, ys, zs)
        ref = brute_force_envelope(problem.generators.f, 0.2, xs, ys, zs,
                                   env.u_nodes, 4, direction)
        oracle_gap = max(oracle_gap, float(np.max(np.abs(mine - ref))))
    ok = rep.all_pass and oracle_gap <= env.grid_tol
    report("criterion-9 envelope-properties", ok,
           f"six_checks={rep.all_pass} brute_force_gap={oracle_gap:.2e} "
           f"(grid_tol={env.grid_tol:.2e})")


def test_criterion_10_doss_transform():
    gen0 = builtin_problem("lipschitz-linear").generators
    grid = build_grid(1.0, 40)
    noise = sample_noise(grid, 1, seed=7)
    ys = np.linspace(-2.0, 2.0, 41)
    ident = solve_doss_eta(gen0, grid, [0.0], ys, noise.b_increments)
    identity_err = float(np.max(np.abs(ident.eta - ys[None, None, :])))

    gen_c = dataclasses.replace(gen0, g=lambda t, x, y, z: np.full((len(y), 1), 0.7))
    dc = solve_doss_eta(gen_c, grid, [0.0], ys, noise.b_increments)
    b_path = np.concatenate([[0.0], np.cumsum(noise.b_increments[:, 0])])
    const_err = float(np.max(np.abs(
        dc.eta - (ys[None, None, :] + 0.7 * (b_path[-1] - b_path)[:, None, None]))))

    beta = 0.4
    gen_l = dataclasses.replace(gen0, g=lambda t, x, y, z: (beta * y)[:, None])
    fine = sample_noise(build_grid(1.0, 1600), 1, seed=7)
    ref = solve_doss_eta(gen_l, fine.grid, [0.0], np.linspace(0.3, 2.6, 461),
                         fine.b_increments)
    ys2 = np.linspace(0.5, 2.0, 61)
    errs = {}
    for fac in (32, 16):
        coarse = coarsen_noise(fine, fac)
        d = solve_doss_eta(gen_l, coarse.grid, [0.0], ys2, coarse.b_increments)
        worst = 0.0
        for ci, fi in enumerate(range(0, 1601, fac)):
            back = ref.epsilon(fi, 0, d.eta[ci, 0])
            worst = max(worst, float(np.max(np.abs(back - ys2))))
        errs[1600 // fac] = worst
    ratio = errs[50] / errs[100]
    ok = identity_err == 0.0 and const_err <= 1e-12 and 1.6 <= ratio <= 2.4
    report("criterion-10 doss-transform", ok,
           f"identity={identity_err:.1e} constant={const_err:.1e} "
           f"halving_ratio={ratio:.2f}")


def test_criterion_11_field_consistency():
    problem = builtin_problem("american-put-like")
    grid = build_grid(problem.horizon, 25)
    xs = np.array([85.0, 100.0, 115.0])
    times = [0.0, grid.nodes[12], problem.horizon]
    noise = sample_noise(grid, 3000, seed=12)
    basis = RegressionBasis(bins=8)
    fs = evaluate_u_field(problem, xs, times, noise, basis, SolverConfig())
    terminal_exact = np.array_equal(fs.values[-1], np.maximum(100.0 - xs, 0.0))
    dominated = all(
        bool(np.all(fs.values[a] >= problem.obstacle(float(t), xs[:, None]) - 1e-12))
        for a, t in enumerate(fs.time_nodes))

    other = sample_noise(grid, 3000, seed=12, b_stream=1)
    fs2 = evaluate_u_field(problem, xs, times, noise, basis, SolverConfig())
    fs_b = evaluate_u_field(problem, xs, times, other, basis, SolverConfig())
    b_free = float(np.max(np.abs(fs.values - fs_b.values))) <= 1e-12
    rerun_same = np.array_equal(fs.values, fs2.values)

    free = builtin_problem("paper-1-4", g_z_free=True)
    grid2 = build_grid(1.0, 25)
    noise2 = sample_noise(grid2, 4000, seed=31)
    rep = monotone_field_sequence(free, [4, 8, 16], [-0.5, 0.0, 0.5],
                                  [0.0, grid2.nodes[12]], noise2, basis,
                                  SolverConfig())
    bracket_ok = (rep.lower_monotone_violations == 0
                  and rep.upper_monotone_violations == 0
                  and rep.base_within_bracket)
    ok = terminal_exact and dominated and b_free and rerun_same and bracket_ok
    report("criterion-11 field-consistency", ok,
           f"terminal_exact={terminal_exact} dominated={dominated} "
           f"b_invariant={b_free} bracket={bracket_ok}")


def test_criterion_12_determinism(tmp_path):
    solve_args = ["solve", "--problem", "lipschitz-linear", "--N", "20",
                  "--paths", "2000", "--seed", "11"]
    field_args = ["field", "--problem", "american-put-like", "--T", "0.5",
                  "--N", "10", "--paths", "500", "--seed", "3",
                  "--x-min", "90", "--x-max", "110", "--x-points", "3",
                  "--times", "0.0"]
    # the third run reads the same experiment from a config file
    solve_cfg = tmp_path / "solve.json"
    solve_cfg.write_text(json.dumps({"problem": {"name": "lipschitz-linear"},
                                     "grid": {"N": 20},
                                     "monte_carlo": {"paths": 2000, "seed": 11}}))
    field_cfg = tmp_path / "field.json"
    field_cfg.write_text(json.dumps({
        "problem": {"name": "american-put-like"}, "grid": {"T": 0.5, "N": 10},
        "monte_carlo": {"paths": 500, "seed": 3},
        "field_eval": {"x_min": 90, "x_max": 110, "x_points": 3, "times": [0.0]}}))
    runs = ((solve_args, field_args), (solve_args, field_args),
            (["solve", "--config", str(solve_cfg)], ["field", "--config", str(field_cfg)]))
    for i, (solve, fld) in enumerate(runs):
        assert cli_main(solve + ["--out", str(tmp_path / f"s{i}")]) == 0
        assert cli_main(fld + ["--out", str(tmp_path / f"f{i}")]) == 0
    run_bytes = [(tmp_path / f"s{i}" / "run.csv").read_bytes() for i in range(3)]
    field_bytes = [(tmp_path / f"f{i}" / "field.csv").read_bytes() for i in range(3)]
    ok = (run_bytes[0] == run_bytes[1] == run_bytes[2]
          and field_bytes[0] == field_bytes[1] == field_bytes[2])
    report("criterion-12 determinism", ok,
           "byte-identical CSVs across reruns and the config-file route")
