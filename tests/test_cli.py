import dataclasses
import json
import shlex
from pathlib import Path

import numpy as np
import pytest

import rbdsde.cli as cli
from rbdsde.cli import (ExperimentConfig, GridConfig, MonteCarloConfig, ProblemConfig,
                        _build_parser, main)
from rbdsde.field import evaluate_u_field
from rbdsde.forward import simulate_forward
from rbdsde.generators import builtin_problem, catalog_names, lipschitz_envelope
from rbdsde.paths import build_grid, sample_noise
from rbdsde.solver import RegressionBasis, SolverConfig, picard_solve


SECTIONS = tuple(f.name for f in dataclasses.fields(ExperimentConfig))


def run(args, monkeypatch, tmp_path, out="out"):
    monkeypatch.chdir(tmp_path)
    return main(args + ["--out", str(tmp_path / out)])


def write_config(tmp_path, data, name="cfg.json"):
    f = tmp_path / name
    f.write_text(json.dumps(data))
    return str(f)


class TestConfig:
    def test_round_trip_defaults(self):
        cfg = ExperimentConfig()
        assert ExperimentConfig.parse(cfg.render(SECTIONS)) == cfg

    def test_round_trip_customized(self):
        cfg = ExperimentConfig(
            problem=ProblemConfig(name="paper-1-4", overrides=(("C", 2.0), ("alpha", 0.5))),
            grid=GridConfig(T=0.75, N=40),
            monte_carlo=MonteCarloConfig(paths=1234, seed=99, b_stream=2),
            basis=RegressionBasis(kind="polynomial", degree=4, bins=0),
            solver=SolverConfig(picard_tol=1e-6, z_scheme="finite-increment"),
        )
        again = ExperimentConfig.parse(cfg.render(SECTIONS))
        assert again == cfg
        assert again.config_hash(SECTIONS) == cfg.config_hash(SECTIONS)

    def test_unknown_field_rejected(self):
        with pytest.raises(Exception):
            ExperimentConfig.parse(json.dumps({"grid": {"T": 1.0, "steps": 3}}))

    def test_unknown_top_level_rejected(self):
        with pytest.raises(Exception):
            ExperimentConfig.parse(json.dumps({"grids": {}}))

    @pytest.mark.parametrize("cfg, name", [({"threads": 4}, "threads"),
                                           ({"outputs": {"reports": ["solution"]}}, "reports")])
    def test_removed_settings_rejected(self, cfg, name, tmp_path, monkeypatch, capsys):
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps(cfg))
        assert run(["solve", "--config", str(f)], monkeypatch, tmp_path) == 2
        assert repr(name) in capsys.readouterr().err

    def test_bad_solver_value_rejected_at_load(self, tmp_path, monkeypatch):
        # solver settings are checked when the config loads, for every subcommand
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps({"solver": {"picard_tol": 0}}))
        assert run(["verify", "doss", "--config", str(f)], monkeypatch, tmp_path) == 2

    def test_bad_value_names_its_section(self, tmp_path, monkeypatch, capsys):
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps({"solver": {"picard_tol": 0}}))
        assert run(["solve", "--config", str(f)], monkeypatch, tmp_path) == 2
        err = capsys.readouterr().err
        assert "config error: section 'solver': picard_tol must be positive" in err

    def test_bad_basis_value_names_its_section(self, tmp_path, monkeypatch, capsys):
        # the basis section is checked when the config loads, for every subcommand
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps({"basis": {"kind": "nope"}}))
        assert run(["verify", "doss", "--config", str(f)], monkeypatch, tmp_path) == 2
        err = capsys.readouterr().err
        assert "config error: section 'basis': unknown basis kind 'nope'" in err

    def test_basis_section_checked_before_flags(self, tmp_path, monkeypatch, capsys):
        # the config's own basis must be valid; a flag does not rescue it
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps({"basis": {"bins": 0}}))
        code = run(["solve", "--config", str(f), "--bins", "4"], monkeypatch, tmp_path)
        assert code == 2
        err = capsys.readouterr().err
        assert "config error: section 'basis': bins must be >= 1" in err

    def test_bad_flag_value_names_its_section(self, tmp_path, monkeypatch, capsys):
        # flags are merged into the config by the same route as the file
        assert run(["solve", "--bins", "0"], monkeypatch, tmp_path) == 2
        err = capsys.readouterr().err
        assert "config error: section 'basis': bins must be >= 1" in err

    def test_partial_section_keeps_defaults(self):
        cfg = ExperimentConfig.parse(json.dumps({"basis": {"kind": "polynomial"},
                                                 "grid": {"N": 8}}))
        assert cfg.basis == RegressionBasis(kind="polynomial", degree=1, bins=16)
        assert cfg.grid == GridConfig(T=1.0, N=8)
        assert cfg.solver == SolverConfig()

    def test_int_for_float_renders_and_hashes_as_float(self):
        a = ExperimentConfig.parse(json.dumps({"grid": {"T": 1}, "field_eval": {"times": [0]}}))
        b = ExperimentConfig.parse(json.dumps({"grid": {"T": 1.0},
                                               "field_eval": {"times": [0.0]}}))
        assert a == b and type(a.grid.T) is float and type(a.field_eval.times[0]) is float
        assert a.render(SECTIONS) == b.render(SECTIONS)
        assert a.config_hash(SECTIONS) == b.config_hash(SECTIONS)

    def test_lists_stand_for_tuples(self):
        cfg = ExperimentConfig.parse(json.dumps({"problem": {"overrides": [["C", 2]]},
                                                 "field_eval": {"envelope_n": [4, 8]}}))
        assert cfg.problem.overrides == (("C", 2.0),)
        assert cfg.field_eval.envelope_n == (4, 8)

    @pytest.mark.parametrize("argv, data, message", [
        (["solve"], {"grid": {"N": "8"}}, "section 'grid': N must be int"),
        (["solve"], {"grid": {"N": True}}, "section 'grid': N must be int"),
        (["solve"], {"problem": {"f_expr": 5}}, "section 'problem': f_expr must be str | None"),
        (["field"], {"field_eval": {"times": 0.0}},
         "section 'field_eval': times must be tuple[float, ...]"),
        (["field"], {"field_eval": {"envelope_n": [1.5]}},
         "section 'field_eval': envelope_n must be tuple[int, ...]"),
        (["field"], {"field_eval": {"times": []}}, "section 'field_eval': times must not be empty"),
        (["field"], {"field_eval": {"envelope_n": [4, 0]}},
         "section 'field_eval': every envelope_n must be >= 1"),
        (["field", "--x-points", "0"], None, "section 'field_eval': x_points must be >= 1"),
        (["field", "--x-min", "1", "--x-max", "-1"], None,
         "section 'field_eval': x_min must be <= x_max"),
        (["verify", "doss"], {"grid": {"N": 0}}, "section 'grid': need at least one step"),
        (["solve", "--T", "-1"], None, "section 'grid': horizon must be positive"),
        (["solve", "--T", "nan"], None, "section 'grid': horizon must be positive"),
        (["solve", "--paths", "0"], None, "section 'monte_carlo': paths must be >= 1"),
        (["compare"], {"comparison": {"amount": -1}},
         "section 'comparison': amount must be >= 0"),
        (["compare", "--amount", "-1"], None, "section 'comparison': amount must be >= 0"),
        (["compare", "--amount", "nan"], None, "section 'comparison': amount must be >= 0"),
        (["field", "--x-min", "nan"], None, "section 'field_eval': x_min must be <= x_max"),
        (["compare", "--shift", "nope"], None, "section 'comparison': unknown shift kind 'nope'"),
    ])
    def test_bad_value_rejected_at_load(self, argv, data, message, tmp_path, monkeypatch,
                                        capsys):
        if data is not None:
            argv = argv + ["--config", write_config(tmp_path, data)]
        assert run(argv, monkeypatch, tmp_path) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_field_times_checked_before_sampling(self, tmp_path, monkeypatch, capsys):
        def no_sampling(*args, **kwargs):
            raise AssertionError("noise sampled")

        monkeypatch.setattr(cli, "sample_noise", no_sampling)
        assert run(["field", "--times", "0.3", "--N", "4"], monkeypatch, tmp_path) == 2
        err = capsys.readouterr().err
        assert "config error: section 'field_eval': t=0.3 is not a grid node" in err

    def test_threads_flag_removed(self):
        with pytest.raises(SystemExit) as exc:
            _build_parser().parse_args(["solve", "--threads", "4"])
        assert exc.value.code == 2

    def test_basis_flag_removed(self):
        # --bins 1 and --degree 0 say what the kind names polynomial and
        # piecewise-constant say; the config file keeps basis.kind
        with pytest.raises(SystemExit) as exc:
            _build_parser().parse_args(["solve", "--basis", "polynomial"])
        assert exc.value.code == 2


class TestFailureTable:
    # one case per row of cli._FAILURES, in its order
    CASES = [
        (["solve", "--problem", "nope"], None, 2, "config error: unknown catalog problem"),
        (["field", "--problem", "paper-1-4", "--N", "8", "--paths", "200"], None, 4,
         "unsupported problem: the u(t, x) field requires g independent of z"),
        (["solve", "--N", "2", "--paths", "50"], {"problem": {"f_expr": "1/y"}}, 5,
         "numerical failure: non-finite generator value at node 1"),
        (["solve", "--N", "4", "--paths", "2000"], {"solver": {"ridge": 0}}, 5,
         "numerical failure: rank-deficient normal equations with ridge = 0 at node 0, bin "),
        (["field", "--problem", "american-put-like", "--T", "0.5", "--N", "4",
          "--paths", "400", "--x-min", "10", "--x-max", "20", "--x-points", "1",
          "--envelope-n", "4"], None, 6,
         "envelope range exceeded: query y outside the envelope grid"),
        (["solve"], {"problem": {"f_expr": "exp(y, k=z)"}}, 2,
         "invalid arguments: call 'exp' with keyword arguments not allowed"),
    ]

    # further sources of a row's error, each named in its message
    MORE_CASES = [
        (["solve", "--N", "4", "--paths", "200"],
         {"problem": {"overrides": [["obstacle_gap", float("nan")]]}}, 5,
         "numerical failure: non-finite obstacle value at node 0"),
    ]

    def test_one_case_per_row(self):
        assert len(self.CASES) == len(cli._FAILURES)

    @pytest.mark.parametrize("argv,data,code,message", CASES + MORE_CASES)
    @pytest.mark.filterwarnings("error::RuntimeWarning")  # the message is the only report
    def test_exit_code_and_message(self, argv, data, code, message, tmp_path, monkeypatch,
                                   capsys):
        if data is not None:
            argv = argv + ["--config", write_config(tmp_path, data)]
        assert run(argv, monkeypatch, tmp_path) == code
        assert capsys.readouterr().err.startswith(message)

    def test_envelope_range_names_queries_and_point(self, tmp_path, monkeypatch, capsys):
        argv = ["field", "--problem", "american-put-like", "--T", "0.5", "--N", "4",
                "--paths", "400", "--x-min", "10", "--x-max", "20", "--x-points", "1",
                "--envelope-n", "4"]
        assert run(argv, monkeypatch, tmp_path) == 6
        err = capsys.readouterr().err
        assert "grid [-50.0, 50.0]: smallest y " in err and ", largest y " in err
        assert err.rstrip().endswith("at field point t=0.0, x0=10.0")


class TestSolveCommand:
    def test_happy_path(self, tmp_path, monkeypatch):
        code = run(["solve", "--problem", "lipschitz-linear", "--T", "1", "--N", "20",
                    "--paths", "2000", "--seed", "7"], monkeypatch, tmp_path)
        assert code == 0
        out = tmp_path / "out"
        assert (out / "run.csv").exists()
        assert (out / "diagnostics.txt").exists()
        assert (out / "provenance.json").exists()
        header = (out / "run.csv").read_text().splitlines()[0]
        assert header == "iteration,node,t,mean_Y,mean_Z_norm,mean_K,gap,skorokhod_partial"

    def test_rows_are_the_per_iteration_record(self, tmp_path, monkeypatch):
        assert run(["solve", "--problem", "lipschitz-linear", "--N", "8", "--paths", "600",
                    "--seed", "4"], monkeypatch, tmp_path) == 0
        p = builtin_problem("lipschitz-linear")
        noise = sample_noise(build_grid(1.0, 8), 600, seed=4)
        fwd = simulate_forward(p, 0.0, p.spot, noise)
        sol, iterations, _ = picard_solve(p, fwd, noise, ExperimentConfig().basis,
                                          SolverConfig())
        table = sol.diagnostics["per_iteration"]
        lines = (tmp_path / "out" / "run.csv").read_text().splitlines()
        assert lines[0].split(",")[3:] == list(table)
        assert len(lines) == 1 + iterations * 9
        for line in lines[1:]:
            it, node, t, *cells = line.split(",")
            assert t == repr(float(noise.grid.nodes[int(node)]))
            assert cells == [repr(float(col[int(it) - 1, int(node)])) for col in table.values()]

    def test_unknown_problem(self, tmp_path, monkeypatch, capsys):
        assert run(["solve", "--problem", "nope"], monkeypatch, tmp_path) == 2
        assert capsys.readouterr().err == (
            f"config error: unknown catalog problem 'nope'; available: "
            f"{', '.join(catalog_names())}\n")

    def test_unread_section_leaves_the_record(self, tmp_path, monkeypatch):
        # solve reads no field_eval section, so one in its file changes nothing it writes
        base = {"problem": {"name": "lipschitz-linear"}, "grid": {"N": 8},
                "monte_carlo": {"paths": 300, "seed": 2}}
        plain = write_config(tmp_path, base, "plain.json")
        extra = write_config(tmp_path, {**base, "field_eval": {"x_points": 9}}, "extra.json")
        assert run(["solve", "--config", plain], monkeypatch, tmp_path, out="a") == 0
        assert run(["solve", "--config", extra], monkeypatch, tmp_path, out="b") == 0
        for name in ("run.csv", "diagnostics.txt", "provenance.json"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes()), name
        recorded = json.loads((tmp_path / "a" / "config.json").read_text())
        assert sorted(recorded) == sorted(("outputs", "problem", "grid", "monte_carlo",
                                           "basis", "solver"))

    def test_non_convergence_still_writes(self, tmp_path, monkeypatch):
        cfg = {"problem": {"name": "paper-1-4"}, "grid": {"T": 1.0, "N": 10},
               "monte_carlo": {"paths": 500, "seed": 3},
               "solver": {"picard_max_iter": 1}}
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps(cfg))
        code = run(["solve", "--config", str(f)], monkeypatch, tmp_path)
        assert code == 3
        assert (tmp_path / "out" / "run.csv").exists()

    def test_bad_json_reports_location(self, tmp_path, monkeypatch, capsys):
        f = tmp_path / "bad.json"
        f.write_text('{"grid": {bad}')
        assert run(["solve", "--config", str(f)], monkeypatch, tmp_path) == 2
        assert "line 1" in capsys.readouterr().err

    def test_expression_generators_from_config(self, tmp_path, monkeypatch):
        cfg = {"problem": {"name": "lipschitz-linear",
                           "f_expr": "0.2*y + exp(-abs(y))", "g_expr": "0"},
               "grid": {"T": 1.0, "N": 12},
               "monte_carlo": {"paths": 800, "seed": 9}}
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps(cfg))
        assert run(["solve", "--config", str(f)], monkeypatch, tmp_path) == 0

    def test_expression_with_keyword_arguments_rejected(self, tmp_path, monkeypatch, capsys):
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps({"problem": {"f_expr": "exp(y, k=z)"}}))
        assert run(["solve", "--config", str(f)], monkeypatch, tmp_path) == 2
        assert "keyword arguments" in capsys.readouterr().err

    def test_flags_override_config(self, tmp_path, monkeypatch):
        cfg = {"monte_carlo": {"paths": 500, "seed": 1}, "grid": {"T": 1.0, "N": 10}}
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps(cfg))
        code = run(["solve", "--config", str(f), "--problem", "lipschitz-linear",
                    "--seed", "5"], monkeypatch, tmp_path)
        assert code == 0
        prov = json.loads((tmp_path / "out" / "provenance.json").read_text())
        assert prov["seed"] == 5

    def test_byte_identical_reruns_and_config_route(self, tmp_path, monkeypatch):
        args = ["solve", "--problem", "lipschitz-linear", "--N", "16",
                "--paths", "1000", "--seed", "11"]
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps({"problem": {"name": "lipschitz-linear"}, "grid": {"N": 16},
                                 "monte_carlo": {"paths": 1000, "seed": 11}}))
        assert run(args, monkeypatch, tmp_path, out="a") == 0
        assert run(args, monkeypatch, tmp_path, out="b") == 0
        assert run(["solve", "--config", str(f)], monkeypatch, tmp_path, out="c") == 0
        # one experiment, one config hash, wherever its outputs go
        for name in ("run.csv", "diagnostics.txt", "provenance.json"):
            a = (tmp_path / "a" / name).read_bytes()
            assert a == (tmp_path / "b" / name).read_bytes(), name
            assert a == (tmp_path / "c" / name).read_bytes(), name


class TestFieldCommand:
    def test_martingale_field_terminal(self, tmp_path, monkeypatch):
        code = run(["field", "--problem", "lipschitz-linear", "--N", "10",
                    "--paths", "400", "--seed", "2", "--x-min", "-1", "--x-max", "1",
                    "--x-points", "3", "--times", "1.0"], monkeypatch, tmp_path)
        assert code == 0
        lines = (tmp_path / "out" / "field.csv").read_text().splitlines()
        assert lines[0] == "t,x0,u"
        rows = [line.split(",") for line in lines[1:]]
        # terminal row equals the terminal map exactly
        assert [float(r[2]) for r in rows] == [-1.0, 0.0, 1.0]

    def test_z_dependent_g_status(self, tmp_path, monkeypatch):
        code = run(["field", "--problem", "paper-1-4", "--N", "8", "--paths", "200"],
                   monkeypatch, tmp_path)
        assert code == 4

    def test_envelope_columns_in_requested_order(self, tmp_path, monkeypatch):
        code = run(["field", "--problem", "lipschitz-linear", "--N", "8", "--paths", "400",
                    "--seed", "5", "--x-points", "3", "--envelope-n", "8", "4"],
                   monkeypatch, tmp_path)
        assert code == 0
        lines = (tmp_path / "out" / "field.csv").read_text().splitlines()
        assert lines[0] == "t,x0,u,u_lower_8,u_upper_8,u_lower_4,u_upper_4"
        problem = builtin_problem("lipschitz-linear", horizon=1.0)
        noise = sample_noise(build_grid(1.0, 8), 400, d=problem.dim,
                             ell=problem.generators.ell, seed=5)
        basis = RegressionBasis(kind="local-polynomial", degree=1, bins=16)
        expected = []
        for n in (8, 4):
            for direction in ("lower", "upper"):
                env = lipschitz_envelope(problem.generators, n, direction)
                sample = evaluate_u_field(
                    dataclasses.replace(problem, generators=env.as_generator()),
                    np.linspace(-1.0, 1.0, 3), [0.0], noise, basis, SolverConfig())
                expected.append([repr(float(v)) for v in sample.values[0]])
        columns = [list(c) for c in zip(*(line.split(",")[3:] for line in lines[1:]))]
        assert columns == expected

    def test_envelope_brackets_reported(self, tmp_path, monkeypatch, capsys):
        args = ["field", "--problem", "lipschitz-linear", "--N", "10", "--paths", "500"]
        assert run(args + ["--envelope-n", "4", "8"], monkeypatch, tmp_path) == 0
        assert capsys.readouterr().out.splitlines()[0] == (
            "brackets: lower_monotone_violations=0 upper_monotone_violations=0 "
            "widths_non_increasing=True base_within_bracket=True")
        assert run(args, monkeypatch, tmp_path, out="plain") == 0
        assert "brackets:" not in capsys.readouterr().out

    def test_non_convergence_exit_and_list(self, tmp_path, monkeypatch, capsys):
        cfg = {"problem": {"name": "lipschitz-linear"}, "grid": {"N": 8},
               "monte_carlo": {"paths": 300, "seed": 3}, "solver": {"picard_max_iter": 1},
               "field_eval": {"x_points": 2, "times": [0.0, 1.0]}}
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps(cfg))
        assert run(["field", "--config", str(f)], monkeypatch, tmp_path) == 3
        out = tmp_path / "out"
        assert len((out / "field.csv").read_text().splitlines()) == 5
        assert len((out / "field_stderr.csv").read_text().splitlines()) == 5
        # terminal points are exact and never iterate
        assert (out / "field_nonconverged.csv").read_text().splitlines() == [
            "field,t,x0", "u,0.0,-1.0", "u,0.0,1.0"]
        err = capsys.readouterr().err
        assert "t=0.0, x0=-1.0" in err and "t=0.0, x0=1.0" in err

    def test_stderr_file_matches_field_sample(self, tmp_path, monkeypatch):
        code = run(["field", "--problem", "lipschitz-linear", "--N", "8", "--paths", "400",
                    "--seed", "5", "--x-points", "3", "--times", "0.0", "1.0"],
                   monkeypatch, tmp_path)
        assert code == 0
        out = tmp_path / "out"
        values = (out / "field.csv").read_text().splitlines()
        errors = (out / "field_stderr.csv").read_text().splitlines()
        assert errors[0] == values[0] == "t,x0,u"
        assert [r.split(",")[:2] for r in errors] == [r.split(",")[:2] for r in values]
        problem = builtin_problem("lipschitz-linear", horizon=1.0)
        noise = sample_noise(build_grid(1.0, 8), 400, d=problem.dim,
                             ell=problem.generators.ell, seed=5)
        sample = evaluate_u_field(problem, np.linspace(-1.0, 1.0, 3), [0.0, 1.0], noise,
                                  RegressionBasis(kind="local-polynomial", degree=1, bins=16),
                                  SolverConfig())
        assert [r.split(",")[2] for r in errors[1:]] == [
            repr(float(v)) for v in sample.stderr.ravel()]
        assert sample.stderr[1].tolist() == [0.0, 0.0, 0.0]

    def test_determinism(self, tmp_path, monkeypatch):
        args = ["field", "--problem", "american-put-like", "--T", "0.5", "--N", "10",
                "--paths", "500", "--seed", "3", "--x-min", "90", "--x-max", "110",
                "--x-points", "3", "--times", "0.0"]
        assert run(args, monkeypatch, tmp_path, out="fa") == 0
        assert run(args, monkeypatch, tmp_path, out="fb") == 0
        assert ((tmp_path / "fa" / "field.csv").read_bytes()
                == (tmp_path / "fb" / "field.csv").read_bytes())


class TestVerifyCommand:
    def test_unknown_suite(self, tmp_path, monkeypatch):
        assert run(["verify", "nope"], monkeypatch, tmp_path) == 2

    def test_doss_suite(self, tmp_path, monkeypatch):
        assert run(["verify", "doss"], monkeypatch, tmp_path) == 0
        text = (tmp_path / "out" / "verify_doss.txt").read_text()
        assert "FAIL" not in text

    @pytest.mark.parametrize("argv", [["verify", "doss", "--paths", "10"],
                                      ["verify", "condition-a", "--problem", "paper-1-4"]])
    def test_suites_take_no_experiment_flags(self, argv):
        # the suites fix their own problems and sizes, so these flags would do nothing
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_condition_a_is_only_a_suite(self, tmp_path, monkeypatch):
        with pytest.raises(SystemExit) as exc:
            main(["condition-a"])
        assert exc.value.code == 2
        assert run(["verify", "condition-a"], monkeypatch, tmp_path) == 0
        text = (tmp_path / "out" / "verify_condition-a.txt").read_text()
        assert text.count("PASS") == 4

    @pytest.mark.parametrize("suite, rows", [
        ("hypotheses", [f"hypotheses.{name}.{part}" for name in catalog_names()
                        for part in ("data", "h4")]
         + [f"hypotheses.modulus-{name}" for name in ("lipschitz", "log", "loglog", "sqrt")]),
        ("majorant", ["majorant.converged", "majorant.gaps-within"]),
    ])
    def test_paper_checks_run_as_suites(self, suite, rows, tmp_path, monkeypatch):
        assert run(["verify", suite], monkeypatch, tmp_path) == 0
        lines = (tmp_path / "out" / f"verify_{suite}.txt").read_text().splitlines()
        assert [line.split()[:2] for line in lines] == [["PASS", row] for row in rows]

    def test_report_never_passes_with_failures(self, tmp_path, monkeypatch):
        # exit status 0 must coincide with a FAIL-free report
        for suite in ("doss", "condition-a"):
            code = run(["verify", suite], monkeypatch, tmp_path, out=f"v_{suite}")
            text = (tmp_path / f"v_{suite}" / f"verify_{suite}.txt").read_text()
            assert (code == 0) == ("FAIL" not in text)


class TestCompareCommand:
    def test_terminal_shift(self, tmp_path, monkeypatch):
        code = run(["compare", "--problem", "lipschitz-linear", "--N", "16",
                    "--paths", "1500", "--seed", "13", "--shift", "terminal",
                    "--amount", "1.0"], monkeypatch, tmp_path)
        assert code == 0
        assert "within_3_stderr: True" in (tmp_path / "out" / "compare.txt").read_text()

    SMALL = ["--problem", "lipschitz-linear", "--N", "8", "--paths", "300", "--seed", "3"]

    def test_shift_enters_the_hash(self, tmp_path, monkeypatch):
        assert run(["compare", *self.SMALL, "--shift", "terminal", "--amount", "1.0"],
                   monkeypatch, tmp_path, out="a") == 0
        assert run(["compare", *self.SMALL, "--shift", "obstacle", "--amount", "0.5"],
                   monkeypatch, tmp_path, out="b") == 0
        hashes = [json.loads((tmp_path / d / "provenance.json").read_text())["config_hash"]
                  for d in ("a", "b")]
        assert hashes[0] != hashes[1]
        config = json.loads((tmp_path / "b" / "config.json").read_text())
        assert config["comparison"] == {"shift": "obstacle", "amount": 0.5}
        assert "field_eval" not in config
        report = (tmp_path / "b" / "compare.txt").read_text()
        assert report.startswith("shift: obstacle by 0.5\n")

    def test_comparison_section_matches_flags(self, tmp_path, monkeypatch):
        f = write_config(tmp_path, {"comparison": {"shift": "obstacle", "amount": 1}})
        assert run(["compare", *self.SMALL, "--config", f], monkeypatch, tmp_path,
                   out="a") == 0
        assert run(["compare", *self.SMALL, "--shift", "obstacle", "--amount", "1"],
                   monkeypatch, tmp_path, out="b") == 0
        for name in ("compare.txt", "provenance.json"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes()), name


class TestEnvOverride:
    def test_rbdsde_out_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RBDSDE_OUT", str(tmp_path / "env_dir"))
        code = run(["solve", "--problem", "lipschitz-linear", "--N", "8",
                    "--paths", "300", "--seed", "1"], monkeypatch, tmp_path, out="flag_dir")
        assert code == 0
        assert (tmp_path / "env_dir" / "run.csv").exists()
        assert not (tmp_path / "flag_dir").exists()

    def test_config_names_the_directory_written(self, tmp_path, monkeypatch):
        env_dir = str(tmp_path / "env_dir")
        monkeypatch.setenv("RBDSDE_OUT", env_dir)
        assert run(["solve", "--problem", "lipschitz-linear", "--N", "8", "--paths", "300",
                    "--seed", "1"], monkeypatch, tmp_path, out="flag_dir") == 0
        config = json.loads((tmp_path / "env_dir" / "config.json").read_text())
        assert config["outputs"]["directory"] == env_dir


def test_readme_example_config_loads():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("Example config:", 1)[1].split("```json", 1)[1].split("```", 1)[0]
    cfg = ExperimentConfig.parse(block)
    assert cfg.problem.overrides == (("C", 2.0), ("alpha", 0.5))
    assert cfg.outputs.directory == "runs/exp1"


def test_readme_command_lines_parse():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    commands = [line.split("#", 1)[0] for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("rbdsde ")]
    assert len(commands) >= 4
    for line in commands:
        _build_parser().parse_args(shlex.split(line)[1:])
