#!/usr/bin/env python3
"""Benchmark command: run one workload in this process, check its outputs
against independent references, and print its metrics.

    python3 bench/run.py --workload catalog-solve --seed 1 --seconds 20 --trace 0

The command runs from the root of a source checkout and imports the package
from ``src/``.  It repeats whole rounds of the workload for as long as the
next round should still end within ``--seconds`` (at least one round).  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
runs the same rounds under the span tracer and reports the per-layer
metrics.  The last line of standard output is one JSON object; a failed
check prints its reason to standard error and exits 1.  See bench/README.md.
"""

import os
import sys
import time

_START = time.perf_counter()
# One BLAS/OpenMP thread, set before numpy loads, so the figures measure the
# work rather than the host's thread scheduling.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("RBDSDE_OUT", None)  # it would redirect the CLI's outputs

import argparse
import json
import resource
import statistics
from pathlib import Path

import checks
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("catalog-solve", "field-put", "analytic")


def _process_age() -> float:
    """Seconds since the kernel started this process, or 0 if unknown."""
    try:
        with open("/proc/self/stat") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError):
        return 0.0
    return age if 0.0 <= age < 60.0 else 0.0


_AGE_AT_START = _process_age()


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_package():
    src = ROOT / "src"
    if not (src / "rbdsde" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source under {src}; run from a checkout")
    sys.path.insert(0, str(src))
    import rbdsde
    if Path(rbdsde.__file__).resolve().parent != src / "rbdsde":
        raise SystemExit(f"error: imported rbdsde from {rbdsde.__file__}, not {src}")


def main(argv=None) -> int:
    args = _parse(argv)
    _import_package()
    import workloads  # needs the package on the path

    workload = workloads.WORKLOADS[args.workload](args.seed, OUT)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        workload.instrument(tracer)
    setup_s = _AGE_AT_START + time.perf_counter() - _START

    rounds = []
    try:
        begin = time.perf_counter()
        while True:
            mark = tracer.mark() if tracer else None
            wall, cpu = time.perf_counter(), time.process_time()
            result = workload.run_round()
            wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
            layers = tracer.layer_metrics(mark, tracer.mark()) if tracer else None
            rounds.append((result, layers, wall, cpu))
            # start another round only if, at the mean round time so far, it
            # ends within --seconds
            elapsed = time.perf_counter() - begin
            if elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
                break
        _check_rounds(workload, rounds)
    except checks.CheckFailed as e:
        print(f"CHECK FAILED ({args.workload}, seed {args.seed}): {e}", file=sys.stderr)
        return 1
    finally:
        if tracer:
            tracer.uninstall()

    if tracer:
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.npz")
        values = _layer_values(rounds)
        values["trace.round_s"] = statistics.median(r[2] for r in rounds)
        units = dict(tracing.PER_LAYER)
    else:
        values = {
            "setup_s": setup_s,
            "run_s": statistics.median(r[2] for r in rounds),
            "cpu_s": statistics.median(r[3] for r in rounds),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"setup_s": "s", "run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
    print(f"{args.workload} seed={args.seed} rounds={len(rounds)} "
          f"outputs_sha256={rounds[0][0].digest} "
          f"run_s={[round(r[2], 3) for r in rounds]} cpu_s={[round(r[3], 3) for r in rounds]}")
    print(json.dumps({
        "correct": True,
        "attempted": sum(r[0].attempted for r in rounds),
        "failed": sum(r[0].failed for r in rounds),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def _check_rounds(workload, rounds) -> None:
    """Rounds repeat the same inputs, so outputs must repeat bit for bit and
    traced counts exactly; traced totals must agree with the solver's own."""
    digests = {r[0].digest for r in rounds if r[0].failed == 0}
    checks.require(len(digests) <= 1, f"outputs differ between rounds: {sorted(digests)}")
    layers = [r[1] for r in rounds if r[1] is not None]
    for lay in layers:
        checks.require(lay["solver.sweeps"] == lay["_iterations_returned"],
                       f"{lay['solver.sweeps']} traced sweeps, but picard_solve returned "
                       f"{lay['_iterations_returned']} iterations")
        if hasattr(workload, "check_trace"):
            workload.check_trace(lay)
    for lay in layers[1:]:
        for key, val in lay.items():
            if isinstance(val, int):
                checks.require(val == layers[0][key],
                               f"count {key} differs between rounds: {val} vs {layers[0][key]}")


def _layer_values(rounds) -> dict:
    """Counts from the first round (they repeat exactly), times as medians."""
    layers = [r[1] for r in rounds]
    out = {}
    for name, unit in tracing.PER_LAYER:
        if name == "trace.round_s":
            continue
        vals = [lay[name] for lay in layers]
        out[name] = vals[0] if isinstance(vals[0], int) else statistics.median(vals)
    return out


if __name__ == "__main__":
    sys.exit(main())
