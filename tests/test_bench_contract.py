"""The benchmark's traced mode, run on a tiny field.

In traced mode ``bench/run.py`` requires that ``Tracer.install`` finds every
``(module, attribute)`` in ``tracing.TRACED``, and that every traced
``solve_frozen_rbdsde`` call is counted in the iterations ``picard_solve``
returns.  Renaming a traced function, or running a sweep outside
``picard_solve``'s count, fails the benchmark; these tests fail first.  The
tracer counts path steps from a sweep's fourth positional argument (the
noise), whose grid starts at the solve's start node; with the sweep's six
positional parameters that is all it reads.  It still takes a seventh
positional argument, if one is passed, as a start index to subtract, so a
seventh positional parameter on ``solve_frozen_rbdsde`` would corrupt the
path-step count.  Rounds
repeat the same inputs, so every traced count and every output byte must
repeat: no cache may outlive a ``cli.main`` call.
The ``analytic`` workload reads its shooting metrics from the traced
``modulus.solve_ivp``, which the uniqueness check calls once.
"""

import sys
from pathlib import Path

import rbdsde.cli as cli
import rbdsde.modulus as modulus
import rbdsde.solver as solver
from rbdsde.forward import simulate_forward
from rbdsde.generators import builtin_problem
from rbdsde.paths import build_grid, sample_noise

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import tracing  # noqa: E402


def test_traced_field_keeps_the_benchmark_contract(tmp_path, monkeypatch):
    monkeypatch.delenv("RBDSDE_OUT", raising=False)
    tracer = tracing.Tracer()
    tracer.install()
    rounds = []
    try:
        for r in range(2):
            begin = tracer.mark()
            out = tmp_path / f"field{r}"
            code = cli.main(["field", "--problem", "american-put-like", "--T", "0.5",
                             "--N", "8", "--paths", "400", "--seed", "1",
                             "--x-min", "70", "--x-max", "105", "--x-points", "2",
                             "--times", "0.0", "0.25", "--out", str(out)])
            rounds.append((code, tracer.layer_metrics(begin, tracer.mark()),
                           (out / "field.csv").read_bytes()))
    finally:
        tracer.uninstall()
    for code, layers, _ in rounds:
        assert code == 0
        assert layers["solver.sweeps"] > 0
        assert layers["solver.sweeps"] == layers["_iterations_returned"]
        assert layers["field.points"] == 4
    (_, first, csv), (_, second, again) = rounds
    counts = {key for key, val in first.items() if isinstance(val, int)}
    assert {"solver.sweeps", "trace.spans", "generators.f_calls"} <= counts
    assert {key: second[key] for key in counts} == {key: first[key] for key in counts}
    assert again == csv


def test_traced_shooting_is_one_integration():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        begin = tracer.mark()
        spec, expected = modulus.builtin_condition_a_fixtures()["lipschitz"]
        rep = modulus.condition_a_uniqueness_check(spec, M=1.0, T=1.0,
                                                   eps_ladder=[1e-2, 1e-3, 1e-4, 1e-5])
        end = tracer.mark()
        layers = tracer.layer_metrics(begin, end)
    finally:
        tracer.uninstall()
    assert rep.verdict == expected
    assert tracer.names[begin[0]:end[0]].count("modulus.solve_ivp") == 1
    assert layers["modulus.shooting_rhs_evals"] > 0


def test_traced_sweeps_count_path_steps_from_the_start_node():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        s = 3
        problem = builtin_problem("lipschitz-linear")
        noise = sample_noise(build_grid(problem.horizon, 8), 400, seed=1)
        rest = noise.from_node(s)
        fwd = simulate_forward(problem, float(rest.grid.nodes[0]), problem.spot, rest)
        _, iterations, _ = solver.picard_solve(problem, fwd, rest, solver.RegressionBasis(bins=4),
                                               solver.SolverConfig())
    finally:
        tracer.uninstall()
    steps = tracer.counts["solver.path_steps"]
    assert iterations >= 2
    assert isinstance(steps, int)
    assert steps == iterations * noise.num_paths * (noise.grid.num_steps - s)
