"""The benchmark's traced mode, run on a tiny field.

In traced mode ``bench/run.py`` requires that ``Tracer.install`` finds every
``(module, attribute)`` in ``tracing.TRACED``, and that every traced
``solve_frozen_rbdsde`` call is counted in the iterations ``picard_solve``
returns.  Renaming a traced function, or running a sweep outside
``picard_solve``'s count, fails the benchmark; this test fails first.
"""

import sys
from pathlib import Path

import rbdsde.cli as cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import tracing  # noqa: E402


def test_traced_field_keeps_the_benchmark_contract(tmp_path, monkeypatch):
    monkeypatch.delenv("RBDSDE_OUT", raising=False)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        begin = tracer.mark()
        code = cli.main(["field", "--problem", "american-put-like", "--T", "0.5",
                         "--N", "8", "--paths", "400", "--seed", "1",
                         "--x-min", "70", "--x-max", "105", "--x-points", "2",
                         "--times", "0.0", "0.25", "--out", str(tmp_path / "field")])
        layers = tracer.layer_metrics(begin, tracer.mark())
    finally:
        tracer.uninstall()
    assert code == 0
    assert layers["solver.sweeps"] > 0
    assert layers["solver.sweeps"] == layers["_iterations_returned"]
    assert layers["field.points"] == 4
