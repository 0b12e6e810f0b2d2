"""The traced benchmark run's hooks, checked without running the benchmark.

`bench/tracer.py`'s `install` wraps curvelab names that it reaches by
`getattr`, and some of its hooks read attributes of what they wrap
(`len(store.table)` of a memo store, `len(result.coeffs)` of a series).
So a rename or a signature change in `src/` would otherwise break
`bench/run.py --trace 1` only when the benchmark runs.  A child process
(the tracer's patches must not reach later tests) installs a `Tracer`,
runs one command per instrumented layer through `cli.entry`, and reports
which span names and counters `install` registered and which the run
recorded.
"""

import json
import os
import subprocess
import sys

import curvelab

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

COMMANDS = [
    ["germ", "catalog", "--json"],
    ["germ", "analyze", "y^2-x^3", "--json"],
    ["severi", "p2", "-d", "4", "--nodes", "2", "--cache", "c.memo"],
    ["fit", "scan", "-r", "2", "--cache", "c.memo"],
    ["fit", "nodes", "--max-r", "2", "--a-table-out", "table.json"],
    ["series", "assemble", "--a-table", "table.json"],
    ["severi", "oracle", "--method", "floor", "-d", "3", "--nodes", "1"],
    ["severi", "oracle", "--method", "pencil", "-d", "3"],
]

# the counters that install's span hooks add, which bench/run.py reads
HOOK_COUNTERS = {"severi.states_computed", "severi.memo_hits", "severi.cache_bytes",
                 "severi.cache_lines", "series.coeffs"}

CHILD = """
import json, sys
import tracer
from curvelab import cli, severi

registered = {"spans": [], "counters": []}
span, count = tracer._span, tracer._count

def named_span(tr, owner, attr, name, *rest, **options):
    registered["spans"].append(name)
    span(tr, owner, attr, name, *rest, **options)

def named_count(tr, owner, attr, counter, *rest):
    registered["counters"].append(counter)
    count(tr, owner, attr, counter, *rest)

tracer._span, tracer._count = named_span, named_count
tr = tracer.Tracer("tier1", prefix="t")
tracer.install(tr)
codes = [cli.entry(argv) for argv in json.loads(sys.argv[1])]
# the CLI counts a quadric by SeveriEngine.count; bench/probe.py calls
# severi_quadric, as here
severi.SeveriEngine().severi_quadric(3, 3, 2)
with open("report.json", "w") as fh:
    json.dump({"codes": codes, **registered, "recorded": [s["name"] for s in tr.spans],
               "counted": tr.counters}, fh)
"""


def test_every_tracer_hook_records(tmp_path):
    src = os.path.dirname(os.path.dirname(curvelab.__file__))
    path = os.pathsep.join(filter(None, [os.path.join(ROOT, "bench"), src,
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(COMMANDS)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["codes"] == [0] * len(COMMANDS)
    assert len(report["spans"]) >= 13 and len(report["counters"]) >= 4
    assert set(report["spans"]) <= set(report["recorded"])
    counted = {name for name, n in report["counted"].items() if n > 0}
    assert set(report["counters"]) | HOOK_COUNTERS <= counted
