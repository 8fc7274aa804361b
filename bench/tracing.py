"""Span tracer for the benchmark's traced mode.

``Tracer.install`` rebinds the public functions of the package's layers in
every ``rbdsde`` module that imported them (``picard_solve`` in ``solver``,
``field`` and ``cli``, for instance), so calls between modules are timed as
well as the benchmark's own calls.  ``Tracer.problem`` wraps the generator
and data-map callables of a ``ProblemSpec``.  Spans (name, start, end,
parent) and counts stay in memory; ``layer_metrics`` reduces one round of
them to the per-layer metrics and ``dump`` writes them out.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
from collections import Counter

import numpy as np

# (module, attribute) pairs timed as spans named "<module>.<attribute>".
# modulus.solve_ivp is the shooting integrator that condition_a imports.
TRACED = [
    ("paths", "build_grid"), ("paths", "sample_noise"),
    ("forward", "simulate_forward"),
    ("generators", "builtin_problem"), ("generators", "lipschitz_envelope"),
    ("generators", "envelope_property_check"),
    ("solver", "solve_frozen_rbdsde"), ("solver", "picard_solve"),
    ("solver", "obstacle_values"), ("solver", "skorokhod_residual"),
    ("modulus", "eval_modulus"), ("modulus", "osgood_integral"),
    ("modulus", "condition_a_uniqueness_check"), ("modulus", "majorant_sequence"),
    ("modulus", "horizon_partition"), ("modulus", "solve_ivp"),
    ("field", "evaluate_u_field"),
    ("cli", "main"),
]

GENERATOR_CALLS = ("f", "g")
DATA_MAPS = ("terminal", "obstacle", "drift", "diffusion")

PER_LAYER = [
    ("paths.sample_noise_s", "s"),
    ("forward.simulate_s", "s"), ("forward.simulate_calls", "count"),
    ("solver.picard_calls", "count"), ("solver.sweeps", "count"),
    ("solver.sweep_self_s", "s"), ("solver.path_steps_per_s", "1/s"),
    ("solver.picard_self_s", "s"),
    ("generators.f_calls", "count"), ("generators.f_s", "s"), ("generators.g_s", "s"),
    ("generators.data_map_s", "s"), ("generators.envelope_s", "s"),
    ("modulus.eval_calls", "count"), ("modulus.eval_s", "s"),
    ("modulus.shooting_s", "s"), ("modulus.shooting_rhs_evals", "count"),
    ("modulus.osgood_s", "s"), ("modulus.partition_s", "s"), ("modulus.majorant_s", "s"),
    ("field.points", "count"), ("field.self_s", "s"),
    ("cli.self_s", "s"), ("cli.bytes_written", "bytes"),
    ("trace.round_s", "s"), ("trace.spans", "count"),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, on_result=None):
        """``fn`` wrapped to record one span per call; ``on_result(args,
        kwargs, result)`` may add counts."""
        names, parents, starts, ends, stack = (self.names, self.parents, self.starts,
                                               self.ends, self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(float("nan"))
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return traced

    def _rebind(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Rebind every traced function wherever the package imported it."""
        package = {name: mod for name, mod in sys.modules.items()
                   if name == "rbdsde" or name.startswith("rbdsde.")}
        hooks = {
            "solve_frozen_rbdsde": self._count_path_steps,
            "picard_solve": self._count_iterations,
            "solve_ivp": self._count_rhs_evals,
            "evaluate_u_field": self._count_points,
        }
        for mod_name, attr in TRACED:
            original = getattr(package["rbdsde." + mod_name], attr)
            wrapped = self.span(f"{mod_name}.{attr}", original, hooks.get(attr))
            for mod in package.values():
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._rebind(mod, key, wrapped)
        approximant = package["rbdsde.generators"].EnvelopeApproximant
        self._rebind(approximant, "evaluate",
                     self.span("generators.EnvelopeApproximant.evaluate",
                               approximant.evaluate))
        # problems built through the catalog come back with traced callables
        build = package["rbdsde.generators"].builtin_problem
        traced_build = functools.wraps(build)(lambda *a, **k: self.problem(build(*a, **k)))
        for mod in package.values():
            for key, val in list(vars(mod).items()):
                if val is build:
                    self._rebind(mod, key, traced_build)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def problem(self, problem):
        """The problem with its generator and data-map callables traced."""
        gen = problem.generators
        gen = dataclasses.replace(gen, **{
            name: self.span(f"generators.{name}", getattr(gen, name))
            for name in GENERATOR_CALLS})
        maps = {name: self.span(f"generators.{name}", getattr(problem, name))
                for name in DATA_MAPS if getattr(problem, name) is not None}
        return dataclasses.replace(problem, generators=gen, **maps)

    def _count_path_steps(self, args, kwargs, result) -> None:
        noise = args[3] if len(args) > 3 else kwargs["noise"]
        start = args[6] if len(args) > 6 else kwargs.get("start_index", 0)
        self.counts["solver.path_steps"] += noise.num_paths * (noise.grid.num_steps - start)

    def _count_iterations(self, args, kwargs, result) -> None:
        self.counts["solver.iterations_returned"] += int(result[1])

    def _count_rhs_evals(self, args, kwargs, result) -> None:
        self.counts["modulus.shooting_rhs_evals"] += int(result.nfev)

    def _count_points(self, args, kwargs, result) -> None:
        self.counts["field.points"] += int(result.values.size)

    def mark(self) -> tuple[int, Counter]:
        """A round boundary: the span index and a copy of the counts."""
        return len(self.names), Counter(self.counts)

    def layer_metrics(self, begin: tuple[int, Counter], end: tuple[int, Counter]) -> dict:
        """Per-layer totals of the spans and counts between two marks."""
        lo, hi = begin[0], end[0]
        counts = end[1] - begin[1]
        names = np.array(self.names[lo:hi], dtype=object)
        dur = np.array(self.ends[lo:hi]) - np.array(self.starts[lo:hi])
        parents = np.array(self.parents[lo:hi]) - lo
        inner = parents >= 0
        child_time = np.bincount(parents[inner], weights=dur[inner], minlength=len(dur))
        self_time = dur - child_time

        def total(*span_names, self_only=False):
            mask = np.isin(names, span_names)
            return float(np.sum((self_time if self_only else dur)[mask]))

        def calls(name):
            return int(np.sum(names == name))

        sweep_self = total("solver.solve_frozen_rbdsde", self_only=True)
        path_steps = counts["solver.path_steps"]
        return {
            "paths.sample_noise_s": total("paths.sample_noise"),
            "forward.simulate_s": total("forward.simulate_forward"),
            "forward.simulate_calls": calls("forward.simulate_forward"),
            "solver.picard_calls": calls("solver.picard_solve"),
            "solver.sweeps": calls("solver.solve_frozen_rbdsde"),
            "solver.sweep_self_s": sweep_self,
            "solver.path_steps_per_s": path_steps / sweep_self if sweep_self > 0 else 0.0,
            "solver.picard_self_s": total("solver.picard_solve", self_only=True),
            "generators.f_calls": calls("generators.f"),
            "generators.f_s": total("generators.f"),
            "generators.g_s": total("generators.g"),
            "generators.data_map_s": total(*[f"generators.{m}" for m in DATA_MAPS]),
            "generators.envelope_s": total("generators.lipschitz_envelope",
                                           "generators.EnvelopeApproximant.evaluate"),
            "modulus.eval_calls": calls("modulus.eval_modulus"),
            "modulus.eval_s": total("modulus.eval_modulus"),
            "modulus.shooting_s": total("modulus.solve_ivp"),
            "modulus.shooting_rhs_evals": counts["modulus.shooting_rhs_evals"],
            "modulus.osgood_s": total("modulus.osgood_integral"),
            "modulus.partition_s": total("modulus.horizon_partition"),
            "modulus.majorant_s": total("modulus.majorant_sequence"),
            "field.points": counts["field.points"],
            "field.self_s": total("field.evaluate_u_field", self_only=True),
            "cli.self_s": total("cli.main", self_only=True),
            "cli.bytes_written": counts["cli.bytes_written"],
            "trace.spans": hi - lo,
            # checked against solver.sweeps, never reported
            "_iterations_returned": counts["solver.iterations_returned"],
        }

    def dump(self, path) -> None:
        """Write every span and count as numpy arrays: ``name`` indexes
        ``names``, ``parent`` is a span index or -1."""
        index = {name: i for i, name in enumerate(dict.fromkeys(self.names))}
        np.savez(path, names=np.array(list(index)),
                 name=np.array([index[n] for n in self.names], dtype=np.int32),
                 parent=np.array(self.parents, dtype=np.int64),
                 start=np.array(self.starts), end=np.array(self.ends),
                 count_names=np.array(list(self.counts)),
                 count_values=np.array(list(self.counts.values()), dtype=np.int64))
