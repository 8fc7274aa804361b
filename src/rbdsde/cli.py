"""Experiment driver.

Subcommands: ``solve`` (backward solve with gap history and flatness
report), ``field`` (u(t, x) evaluation, optionally with envelope brackets),
``verify`` (the per-module verification suites) and ``compare`` (a
problem against its own upward shift).

One flat JSON config file describes an experiment; command-line flags win
over the file, and the RBDSDE_OUT environment variable finally overrides the
output directory, each laid over the config by ``ExperimentConfig.merged``.
``_COMMANDS`` names the sections each subcommand reads: it takes their flags,
and its ``config.json`` and config hash (all but ``outputs``) cover just them.
``_FAILURES`` maps each error a command may raise to its exit code.
All outputs are byte-reproducible from (config, seed).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import typing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .field import UnsupportedProblemError, monotone_field_sequence, solve_doss_eta
from .forward import flow_continuity_test, simulate_forward
from .generators import (EnvelopeRangeError, builtin_problem, catalog_names,
                         check_h4_witness, envelope_property_check, expression_generator,
                         validate_problem)
from .modulus import (builtin_condition_a_fixtures, condition_a_uniqueness_check,
                      majorant_sequence, verify_modulus_axioms)
from .paths import build_grid, empirical_norm, sample_noise
from .solver import (GeneratorEvaluationError, RegressionBasis, SingularRegressionError,
                     SolverConfig, comparison_experiment, majorant_inputs, obstacle_values,
                     picard_gap_vs_majorant, picard_solve, skorokhod_residual)

__all__ = ["ExperimentConfig", "main"]

_EXIT_OK = 0
_EXIT_CONFIG = 2
_EXIT_NOCONV = 3
_EXIT_UNSUPPORTED = 4
_EXIT_NUMERIC = 5
_EXIT_ENVELOPE = 6


class ConfigError(ValueError):
    """Malformed experiment configuration."""


@dataclass(frozen=True)
class ProblemConfig:
    name: str = "lipschitz-linear"
    overrides: tuple[tuple[str, float], ...] = ()
    f_expr: str | None = None
    g_expr: str | None = None


@dataclass(frozen=True)
class GridConfig:
    T: float = 1.0
    N: int = 50

    def __post_init__(self):
        build_grid(self.T, self.N)  # raises on a bad horizon or step count


@dataclass(frozen=True)
class MonteCarloConfig:
    paths: int = 20_000
    seed: int = 7
    b_stream: int = 0

    def __post_init__(self):
        if self.paths < 1:
            raise ValueError("paths must be >= 1")
        if not 0 <= self.b_stream < 1 << 62:  # sample_noise's range of B streams
            raise ValueError(f"b_stream must be in [0, 2**62), got {self.b_stream}")


@dataclass(frozen=True)
class FieldConfig:
    x_min: float = -1.0
    x_max: float = 1.0
    x_points: int = 5
    times: tuple[float, ...] = (0.0,)
    envelope_n: tuple[int, ...] = ()

    def __post_init__(self):
        if self.x_points < 1:
            raise ValueError("x_points must be >= 1")
        if not self.x_min <= self.x_max:  # NaN fails too
            raise ValueError("x_min must be <= x_max")
        if not self.times:
            raise ValueError("times must not be empty")
        if any(n < 1 for n in self.envelope_n):
            raise ValueError("every envelope_n must be >= 1")
        if len(set(self.envelope_n)) < len(self.envelope_n):
            raise ValueError(f"envelope_n must not repeat a value, got {list(self.envelope_n)}")


@dataclass(frozen=True)
class ComparisonConfig:
    shift: str = "terminal"
    amount: float = 1.0

    def __post_init__(self):
        if self.shift not in ("terminal", "obstacle", "generator"):
            raise ValueError(f"unknown shift kind {self.shift!r}")
        if not self.amount >= 0:  # NaN fails too
            raise ValueError("amount must be >= 0")


@dataclass(frozen=True)
class OutputConfig:
    directory: str = "out"


@dataclass(frozen=True)
class ExperimentConfig:
    problem: ProblemConfig = field(default_factory=ProblemConfig)
    grid: GridConfig = field(default_factory=GridConfig)
    monte_carlo: MonteCarloConfig = field(default_factory=MonteCarloConfig)
    basis: RegressionBasis = field(default_factory=RegressionBasis)
    solver: SolverConfig = field(default_factory=SolverConfig)
    field_eval: FieldConfig = field(default_factory=FieldConfig)
    comparison: ComparisonConfig = field(default_factory=ComparisonConfig)
    outputs: OutputConfig = field(default_factory=OutputConfig)

    def render(self, sections: tuple[str, ...]) -> str:
        data = {name: dataclasses.asdict(getattr(self, name)) for name in sections}
        return json.dumps(data, sort_keys=True, indent=2) + "\n"

    def config_hash(self, sections: tuple[str, ...]) -> str:
        """sha256 of the experiment in these sections: all but ``outputs``,
        which says only where the results go."""
        data = {name: dataclasses.asdict(getattr(self, name))
                for name in sections if name != "outputs"}
        return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()

    def merged(self, data: dict) -> "ExperimentConfig":
        """This config with each section given laid over it: a section
        replaces only the fields it names, each checked against its type,
        then by the section, then a float or float tuple for being finite."""
        names = [f.name for f in dataclasses.fields(self)]
        bad = set(data) - set(names)
        if bad:
            raise ConfigError(f"unknown top-level field {sorted(bad)[0]!r}")
        sections = {}
        for name in (n for n in names if n in data):
            section, current = data[name], getattr(self, name)
            if not isinstance(section, dict):
                raise ConfigError(f"section {name!r} must be an object")
            bad = set(section) - {f.name for f in dataclasses.fields(current)}
            if bad:
                raise ConfigError(f"unknown field {sorted(bad)[0]!r} in section {name!r}")
            hints = typing.get_type_hints(type(current))
            fixed = {}
            for key, val in section.items():
                try:
                    fixed[key] = _typed(val, hints[key])
                except TypeError:
                    kind = hints[key].__name__ if isinstance(hints[key], type) else hints[key]
                    raise ConfigError(f"section {name!r}: {key} must be {kind}") from None
            try:
                sections[name] = dataclasses.replace(current, **fixed)
            except ValueError as e:
                raise ConfigError(f"section {name!r}: {e}") from None
            # after the section's own checks, which name a NaN their own way
            for key, val in fixed.items():
                if hints[key] in (float, tuple[float, ...]) and not np.all(np.isfinite(val)):
                    raise ConfigError(f"section {name!r}: {key} must be finite, got {val}")
        return dataclasses.replace(self, **sections)

    @staticmethod
    def parse(text: str) -> "ExperimentConfig":
        return ExperimentConfig().merged(json.loads(text))


def _typed(val, hint):
    """``val`` as a value of type ``hint``, an int standing for a float and a
    list for a tuple; TypeError if it is no such value."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is tuple and isinstance(val, (list, tuple)):
        items = args[:1] * len(val) if args[-1] is ... else args
        if len(items) == len(val):
            return tuple(map(_typed, val, items))
    elif hint is float and type(val) in (int, float):
        return float(val)
    elif origin is not tuple and isinstance(val, hint) and type(val) is not bool:
        return val
    raise TypeError(val)


# ---------------------------------------------------------------------------
# assembly


def _assemble(cfg: ExperimentConfig):
    # grid.T is the experiment horizon; catalog entries are built to match it
    overrides = dict(cfg.problem.overrides)
    if "horizon" in overrides and abs(overrides["horizon"] - cfg.grid.T) > 1e-12:
        raise ConfigError("problem horizon override conflicts with grid.T")
    overrides["horizon"] = cfg.grid.T
    try:
        problem = builtin_problem(cfg.problem.name, **overrides)
    except KeyError as e:
        raise ConfigError(e.args[0]) from None
    except TypeError as e:
        raise ConfigError(f"bad problem override: {e}") from None
    if cfg.problem.f_expr or cfg.problem.g_expr:
        gen = problem.generators
        f_src = cfg.problem.f_expr or "0"
        g_src = cfg.problem.g_expr or "0"
        expr_gen = expression_generator(f_src, g_src, gen.modulus,
                                        z_lipschitz=gen.z_lipschitz,
                                        z_fraction=gen.z_fraction)
        problem = dataclasses.replace(problem, generators=expr_gen)
    noise = sample_noise(build_grid(cfg.grid.T, cfg.grid.N), cfg.monte_carlo.paths,
                         d=problem.dim, ell=problem.generators.ell,
                         seed=cfg.monte_carlo.seed, b_stream=cfg.monte_carlo.b_stream)
    return problem, noise


def _out_dir(cfg: ExperimentConfig) -> Path:
    path = Path(cfg.outputs.directory)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_provenance(cfg: ExperimentConfig, command: str, out: Path) -> str:
    """config.json and provenance.json of the sections ``command`` reads."""
    sections = _COMMANDS[command][1]
    block = {"config_hash": cfg.config_hash(sections), "seed": cfg.monte_carlo.seed,
             "package_version": __version__}
    (out / "provenance.json").write_text(json.dumps(block, sort_keys=True, indent=2) + "\n")
    (out / "config.json").write_text(cfg.render(sections))
    return block["config_hash"]


def _fmt(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# subcommands


def cmd_solve(cfg: ExperimentConfig) -> int:
    problem, noise = _assemble(cfg)
    fwd = simulate_forward(problem, 0.0, problem.spot, noise)
    sol, iterations, history = picard_solve(problem, fwd, noise, cfg.basis, cfg.solver)
    out = _out_dir(cfg)
    digest = _write_provenance(cfg, "solve", out)

    per_iteration = sol.diagnostics["per_iteration"]
    lines = [",".join(["iteration", "node", "t", *per_iteration])]
    for it, rows in enumerate(zip(*per_iteration.values()), start=1):
        for i, t in enumerate(noise.grid.nodes):
            lines.append(",".join([str(it), str(i), _fmt(t)] + [_fmt(row[i]) for row in rows]))
    (out / "run.csv").write_text("\n".join(lines) + "\n")

    diag = sol.diagnostics
    text = [
        f"problem: {problem.name}",
        f"converged: {diag['converged']}",
        f"iterations: {iterations}",
        f"final_gap: {_fmt(history[-1])}",
        f"skorokhod_residual: {_fmt(diag['skorokhod_residual'])}",
        f"y0_mean: {_fmt(float(np.mean(sol.y.values[:, 0, 0])))}",
        f"k_terminal_mean: {_fmt(float(np.mean(sol.k.values[:, -1, 0])))}",
        f"seed: {cfg.monte_carlo.seed}",
        f"config_hash: {digest}",
    ]
    (out / "diagnostics.txt").write_text("\n".join(text) + "\n")
    if not diag["converged"]:
        print(f"solver did not converge in {iterations} iterations "
              f"(final gap {history[-1]:.3e}); outputs written to {out}", file=sys.stderr)
        return _EXIT_NOCONV
    print(f"solved {problem.name}: {iterations} iterations, outputs in {out}")
    return _EXIT_OK


def cmd_field(cfg: ExperimentConfig) -> int:
    fc = cfg.field_eval
    grid = build_grid(cfg.grid.T, cfg.grid.N)
    try:  # before any noise is sampled
        times = [grid.nodes[grid.index_of(t)] for t in fc.times]
    except ValueError as e:
        raise ConfigError(f"section 'field_eval': {e}") from None
    problem, noise = _assemble(cfg)
    xs = np.linspace(fc.x_min, fc.x_max, fc.x_points)
    rep = monotone_field_sequence(problem, fc.envelope_n, xs, times, noise, cfg.basis,
                                  cfg.solver)
    out = _out_dir(cfg)
    _write_provenance(cfg, "field", out)

    columns = [("u", rep.base)]
    for n in fc.envelope_n:
        columns += [(f"u_lower_{n}", rep.lower[n]), (f"u_upper_{n}", rep.upper[n])]
    header = ["t"] + [f"x{j}" for j in range(problem.dim)] + [name for name, _ in columns]

    def table(attr: str) -> str:
        # one row per (t, x) point, one column per field; attr picks values or stderr
        lines = [",".join(header)]
        for a, t in enumerate(rep.base.time_nodes):
            for j, x in enumerate(rep.base.space_points):
                row = [_fmt(t)] + [_fmt(v) for v in x]
                row += [_fmt(getattr(sample, attr)[a, j]) for _, sample in columns]
                lines.append(",".join(row))
        return "\n".join(lines) + "\n"

    (out / "field.csv").write_text(table("values"))
    (out / "field_stderr.csv").write_text(table("stderr"))
    if fc.envelope_n:
        print(f"brackets: lower_monotone_violations={rep.lower_monotone_violations} "
              f"upper_monotone_violations={rep.upper_monotone_violations} "
              f"widths_non_increasing={rep.widths_non_increasing} "
              f"base_within_bracket={rep.base_within_bracket}")

    stuck = [(name, t, x) for name, sample in dict(columns).items()
             for t, x in sample.non_converged]
    stuck_csv = out / "field_nonconverged.csv"
    stuck_csv.unlink(missing_ok=True)
    if stuck:
        for name, t, x in stuck:
            print(f"{name} did not converge at t={_fmt(t)}, x0={_fmt(x)}", file=sys.stderr)
        stuck_csv.write_text("\n".join(["field,t,x0"] + [f"{name},{_fmt(t)},{_fmt(x)}"
                                                       for name, t, x in stuck]) + "\n")
        print(f"{len(stuck)} field points did not converge; field written to "
              f"{out / 'field.csv'}, points listed in {stuck_csv}", file=sys.stderr)
        return _EXIT_NOCONV
    print(f"field written to {out / 'field.csv'}")
    return _EXIT_OK


def _suite_condition_a():
    ladder = [10.0 ** (-k) for k in range(2, 13)]
    checks = []
    for name, (spec, expected) in builtin_condition_a_fixtures().items():
        rep = condition_a_uniqueness_check(spec, M=1.0, T=1.0, eps_ladder=ladder)
        checks.append((f"condition-a.{name}", rep.verdict == expected,
                       f"verdict={rep.verdict} expected={expected}"))
    return checks


def _suite_envelopes():
    problem = builtin_problem("paper-1-4")
    rep = envelope_property_check(problem.generators, [4, 8], num_points=2000, u_range=20.0)
    names = ["sandwich", "monotone", "growth", "xy_lipschitz", "z_lipschitz", "converges"]
    flags = [rep.sandwich_ok, rep.monotone_ok, rep.growth_ok,
             rep.xy_lipschitz_ok, rep.z_lipschitz_ok, rep.converges_ok]
    return [(f"envelopes.{n}", bool(ok), f"max_violation={rep.max_violation:.3e}")
            for n, ok in zip(names, flags)]


def _suite_comparison():
    problem = builtin_problem("lipschitz-linear")
    grid = build_grid(problem.horizon, 32)
    noise = sample_noise(grid, 4000, seed=1801)
    fwd = simulate_forward(problem, 0.0, problem.spot, noise)
    basis = RegressionBasis(bins=8)
    solver_cfg = SolverConfig()
    checks = []
    for kind, amount in (("terminal", 1.0), ("obstacle", 0.5), ("generator", 0.5)):
        rep = comparison_experiment(problem, kind, amount, fwd, noise, basis, solver_cfg)
        checks.append((f"comparison.{kind}-shift", rep.within(),
                       f"max_mean_pos={rep.max_mean_positive_part:.3e}"))
    return checks


def _suite_skorokhod():
    problem = builtin_problem("american-put-like")
    grid = build_grid(problem.horizon, 50)
    noise = sample_noise(grid, 5000, seed=1802)
    fwd = simulate_forward(problem, 0.0, problem.spot, noise)
    sol, _, _ = picard_solve(problem, fwd, noise, RegressionBasis(), SolverConfig())
    obstacle = obstacle_values(problem, fwd)
    residual = skorokhod_residual(sol, obstacle)
    yv = sol.y.values[:, :, 0]
    bound = 1e-2 * empirical_norm(sol.y) * float(np.mean(sol.k.values[:, -1, 0]))
    dominance = float(np.min(yv - obstacle))
    dk = np.diff(sol.k.values[:, :, 0], axis=1)
    off_contact = int(np.sum((yv[:, :-1] > obstacle[:, :-1] + 1e-12) & (dk > 0)))
    return [
        ("skorokhod.residual", residual <= bound, f"residual={residual:.3e} bound={bound:.3e}"),
        ("skorokhod.dominance", dominance >= -1e-12, f"min(Y-S)={dominance:.3e}"),
        ("skorokhod.minimal-push", off_contact == 0, f"pushes_off_contact={off_contact}"),
    ]


def _suite_doss():
    problem = builtin_problem("lipschitz-linear")
    grid = build_grid(1.0, 40)
    noise = sample_noise(grid, 1, seed=1803)
    ys = np.linspace(-2.0, 2.0, 41)
    ident = solve_doss_eta(problem.generators, grid, [0.0], ys, noise.b_increments)
    err_id = float(np.max(np.abs(ident.eta - ys[None, None, :])))
    gen_c = dataclasses.replace(problem.generators,
                                g=lambda t, x, y, z: np.full((len(y), 1), 0.7))
    dc = solve_doss_eta(gen_c, grid, [0.0], ys, noise.b_increments)
    bpath = noise.b_path()[:, 0]
    expect = ys[None, None, :] + 0.7 * (bpath[-1] - bpath)[:, None, None]
    err_c = float(np.max(np.abs(dc.eta - expect)))
    return [
        ("doss.zero-g-identity", err_id == 0.0, f"max_err={err_id:.3e}"),
        ("doss.constant-g-closed-form", err_c <= 1e-12, f"max_err={err_c:.3e}"),
        ("doss.inverse-at-knots", dc.inverse_identity_error() <= 1e-12, "interpolated inverse"),
    ]


def _suite_flow():
    problem = builtin_problem("lipschitz-linear")
    grid = build_grid(1.0, 256)
    noise = sample_noise(grid, 4000, seed=1804)
    spatial = flow_continuity_test(problem, (0.0, [0.0]), (0.0, [1.0]), noise)
    temporal = flow_continuity_test(problem, (0.0, [0.0]), (0.5, [0.0]), noise)
    slope_err = abs(temporal.slope - 1.0)
    return [
        ("flow.spatial-ratio-stable", spatial.stable,
         f"ratios={np.round(spatial.ratios, 4).tolist()}"),
        ("flow.temporal-slope", slope_err <= 0.15,
         f"slope={temporal.slope:.3f} target=1.0"),
    ]


def _suite_hypotheses():
    checks = []
    for name in catalog_names():
        problem = builtin_problem(name)
        data = validate_problem(problem)
        h4 = check_h4_witness(problem.generators, problem.horizon)
        checks += [
            (f"hypotheses.{name}.data", data.all_pass, f"max_violation={data.max_violation:.3e}"),
            (f"hypotheses.{name}.h4", h4.all_pass,
             f"max_f_violation={h4.max_f_violation:.3e} max_g_violation={h4.max_g_violation:.3e}"),
        ]
    for name, (spec, _) in builtin_condition_a_fixtures().items():
        rep = verify_modulus_axioms(spec)
        checks.append((f"hypotheses.modulus-{name}", rep.all_pass,
                       f"max_monotone_violation={rep.max_monotone_violation:.3e} "
                       f"max_concavity_violation={rep.max_concavity_violation:.3e}"))
    return checks


def _suite_majorant():
    problem = builtin_problem("lipschitz-linear")
    grid = build_grid(problem.horizon, 100)
    noise = sample_noise(grid, 8000, seed=23)
    fwd = simulate_forward(problem, 0.0, problem.spot, noise)
    sol, iterations, _ = picard_solve(problem, fwd, noise, RegressionBasis(bins=8),
                                      SolverConfig(picard_tol=1e-8))
    big_m, m1 = majorant_inputs(problem, fwd, noise)
    majorant = majorant_sequence(problem.generators.modulus, big_m, m1, grid, n_max=16)
    rep = picard_gap_vs_majorant(sol.diagnostics["per_iteration"]["gap"], majorant)
    return [
        ("majorant.converged", sol.diagnostics["converged"], f"iterations={iterations}"),
        ("majorant.gaps-within", rep.all_within,
         f"levels={list(rep.levels)} fraction_within={rep.fraction_within.tolist()} "
         f"tolerance_binding={rep.tolerance_binding.tolist()}"),
    ]


_SUITES = {
    "condition-a": _suite_condition_a,
    "envelopes": _suite_envelopes,
    "comparison": _suite_comparison,
    "skorokhod": _suite_skorokhod,
    "doss": _suite_doss,
    "flow": _suite_flow,
    "hypotheses": _suite_hypotheses,
    "majorant": _suite_majorant,
}


def cmd_verify(cfg: ExperimentConfig, suite: str) -> int:
    if suite not in _SUITES:
        print(f"unknown suite {suite!r}; available: {', '.join(sorted(_SUITES))}",
              file=sys.stderr)
        return _EXIT_CONFIG
    checks = _SUITES[suite]()
    out = _out_dir(cfg)
    lines = []
    for name, ok, detail in checks:
        lines.append(f"{'PASS' if ok else 'FAIL'} {name} {detail}")
        print(lines[-1])
    (out / f"verify_{suite}.txt").write_text("\n".join(lines) + "\n")
    return _EXIT_OK if all(ok for _, ok, _ in checks) else 1


def cmd_compare(cfg: ExperimentConfig) -> int:
    problem, noise = _assemble(cfg)
    fwd = simulate_forward(problem, 0.0, problem.spot, noise)
    shift = cfg.comparison
    rep = comparison_experiment(problem, shift.shift, shift.amount, fwd, noise, cfg.basis,
                                cfg.solver)
    out = _out_dir(cfg)
    _write_provenance(cfg, "compare", out)
    lines = [
        f"shift: {shift.shift} by {shift.amount}",
        f"max_mean_positive_part: {_fmt(rep.max_mean_positive_part)}",
        f"violation_fraction: {_fmt(rep.violation_fraction)}",
        f"within_3_stderr: {rep.within()}",
    ]
    (out / "compare.txt").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    if not rep.both_converged:
        print(f"a solve of the pair did not converge in {cfg.solver.picard_max_iter} "
              f"iterations; comparison written to {out / 'compare.txt'}", file=sys.stderr)
        return _EXIT_NOCONV
    return _EXIT_OK if rep.within() else 1


# ---------------------------------------------------------------------------
# argument parsing


# one row per experiment flag: (flag, config section, field, argparse options)
_FLAGS = (
    ("--out", "outputs", "directory", dict(type=str, help="output directory")),
    ("--problem", "problem", "name",
     dict(type=str, help=f"catalog problem ({', '.join(catalog_names())})")),
    ("--T", "grid", "T", dict(type=float, help="horizon")),
    ("--N", "grid", "N", dict(type=int, help="time steps")),
    ("--paths", "monte_carlo", "paths", dict(type=int, help="Monte Carlo paths")),
    ("--seed", "monte_carlo", "seed", dict(type=int, help="master seed")),
    ("--degree", "basis", "degree", dict(type=int, help="basis degree")),
    ("--bins", "basis", "bins", dict(type=int, help="basis bins")),
    ("--x-min", "field_eval", "x_min", dict(type=float)),
    ("--x-max", "field_eval", "x_max", dict(type=float)),
    ("--x-points", "field_eval", "x_points", dict(type=int)),
    ("--times", "field_eval", "times", dict(type=float, nargs="+")),
    ("--envelope-n", "field_eval", "envelope_n", dict(type=int, nargs="+")),
    ("--shift", "comparison", "shift",
     dict(type=str, help="data map to shift: terminal, obstacle or generator")),
    ("--amount", "comparison", "amount", dict(type=float, help="shift amount")),
)

# subcommand -> (help, the config sections it reads, handler): it takes the
# flags of those sections, and its config.json and config hash cover just them;
# the suites fix their own problems and sizes, so verify reads only outputs
_EXPERIMENT = ("outputs", "problem", "grid", "monte_carlo", "basis", "solver")
_COMMANDS = {
    "solve": ("run the backward solver", _EXPERIMENT, cmd_solve),
    "field": ("evaluate the u(t, x) field", _EXPERIMENT + ("field_eval",), cmd_field),
    "verify": ("run a verification suite", ("outputs",), cmd_verify),
    "compare": ("compare a problem with its upward shift", _EXPERIMENT + ("comparison",),
                cmd_compare),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rbdsde",
                                     description="reflected backward doubly stochastic "
                                                 "solver and verification lab")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for command, (text, sections, _) in _COMMANDS.items():
        p = commands[command] = sub.add_parser(command, help=text)
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        for flag, section, _, options in _FLAGS:
            if section in sections:
                p.add_argument(flag, default=None, **options)
    commands["verify"].add_argument("suite", type=str,
                                    help=f"one of: {', '.join(sorted(_SUITES))}")
    return parser


def _load_config(args) -> ExperimentConfig:
    """The file's config, the flags laid over it, then RBDSDE_OUT over both."""
    cfg = ExperimentConfig()
    if args.config is not None:
        try:
            text = Path(args.config).read_text()
        except OSError as e:
            raise ConfigError(f"cannot read config file: {e}") from None
        try:
            cfg = ExperimentConfig.parse(text)
        except json.JSONDecodeError as e:
            raise ConfigError(
                f"config parse error at line {e.lineno}, column {e.colno}: {e.msg}") from None

    flags: dict[str, dict] = {}
    for flag, section, name, _ in _FLAGS:
        val = getattr(args, flag[2:].replace("-", "_"), None)  # argparse's dest
        if val is not None:
            flags.setdefault(section, {})[name] = val
    cfg = cfg.merged(flags)
    if "RBDSDE_OUT" in os.environ:
        cfg = cfg.merged({"outputs": {"directory": os.environ["RBDSDE_OUT"]}})
    return cfg


# exception -> (exit code, message prefix); the first row that matches wins,
# so each ValueError subclass comes before ValueError
_FAILURES = {
    ConfigError: (_EXIT_CONFIG, "config error"),
    UnsupportedProblemError: (_EXIT_UNSUPPORTED, "unsupported problem"),
    GeneratorEvaluationError: (_EXIT_NUMERIC, "numerical failure"),
    SingularRegressionError: (_EXIT_NUMERIC, "numerical failure"),
    EnvelopeRangeError: (_EXIT_ENVELOPE, "envelope range exceeded"),
    ValueError: (_EXIT_CONFIG, "invalid arguments"),
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args)
        handler = _COMMANDS[args.command][2]
        return handler(cfg, args.suite) if args.command == "verify" else handler(cfg)
    except tuple(_FAILURES) as e:
        code, prefix = next(row for cls, row in _FAILURES.items() if isinstance(e, cls))
        print(f"{prefix}: {e}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
