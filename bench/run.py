"""curvelab benchmark: runs the `curvelab` CLI the way a user does and
reports end-to-end metrics, or (with --trace 1) per-layer metrics.

usage, from the repository root:

    python3 bench/run.py --workload cli_session --seed 1 --seconds 20 --trace 0

Load model: one client in a closed loop. The runner starts one command,
waits for it to exit, checks its exit code and stdout, then starts the
next; at most one child process runs at a time. A pass runs the
workload's whole command list once; a run makes --seconds divided by the
workload's nominal pass time passes (at least one), so it measures for
about --seconds on the machine the nominal times were taken on.

--trace 0 prints the end-to-end metrics (set-up time, pass wall time,
per-command latency median and tail, child CPU, peak child RSS).
--trace 1 instead runs an untraced and a traced pass, interleaved command
by command, the in-process layer probe (probe.py) with tracing and again
with tracemalloc, the tier-1 test suite once and the untimed known-defect
probe, and prints the per-layer metrics.

Everything the runner writes goes under .bench_build/ in the repository
root; the last line of stdout is the JSON result.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import workloads as W

clock = time.perf_counter
BENCH = Path(__file__).resolve().parent
DEADLINE_S = 175


@dataclass
class Result:
    code: int
    out: str
    err: str
    start: float
    end: float
    cpu: float
    rss_mb: float

    @property
    def latency(self):
        return self.end - self.start


@dataclass
class Pass:
    results: list
    wall: float

    @property
    def cpu(self):
        return sum(r.cpu for r in self.results)


class BenchError(Exception):
    pass


class Runner:
    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.seed = seed
        self.build = root / ".bench_build"
        # per-workload directories, so runs of different workloads in one
        # checkout never share scratch files
        self.work = self.build / f"work-{workload}"
        self.tmp = self.build / f"tmp-{workload}"
        self.pycache = self.build / f"pycache-{workload}"
        self.py = sys.executable
        self.env = dict(os.environ)
        self.env.update(
            PYTHONPATH=str(root / "src"),
            PYTHONPYCACHEPREFIX=str(self.pycache),
            PYTHONDONTWRITEBYTECODE="1",
            TMPDIR=str(self.tmp),
        )
        self.compile_env = {k: v for k, v in self.env.items()
                            if k != "PYTHONDONTWRITEBYTECODE"}
        self.child = None
        self.code_sha = tree_digest(root, ("src", "bench"))
        self.problems = []  # correctness failures outside per-command checks
        self.record = {}  # extra detail for the per-run record file

    # -- processes -------------------------------------------------------

    def run(self, argv, cwd=None, env=None) -> Result:
        """Run one child to completion; CPU and RSS come from its own
        wait4 rusage, never from other processes."""
        with open(self.tmp / "stderr.txt", "w+b") as err:
            start = clock()
            proc = subprocess.Popen(argv, cwd=cwd or self.work, env=env or self.env,
                                    stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                    stderr=err)
            self.child = proc
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            end = clock()
            self.child = None
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            err_text = err.read().decode(errors="replace")
        return Result(proc.returncode, out.decode(errors="replace"), err_text, start, end,
                      usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)

    def cli(self, args):
        return [self.py, "-m", "curvelab", *args]

    def must(self, result: Result, what: str):
        if result.code != 0:
            raise BenchError(f"{what} failed with exit {result.code}: {result.err[-500:]}")
        return result

    def kill_child(self):
        if self.child is not None and self.child.returncode is None:
            self.child.kill()

    # -- set-up and passes -----------------------------------------------

    def setup(self, wl, traced=False) -> tuple:
        """Fresh byte-code cache and work directory, plus the workload's
        own set-up (cache_replay: the cold fill of its cache). Returns the
        elapsed time and a digest of the filled cache."""
        start = clock()
        shutil.rmtree(self.pycache, ignore_errors=True)
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.tmp.mkdir(exist_ok=True)
        self.must(self.run([self.py, "-m", "compileall", "-q", "src", "bench"],
                           cwd=self.root, env=self.compile_env), "compileall")
        # one command with byte-code writing on also caches the standard
        # library modules a command imports, so no timed run compiles
        warm = ["germ", "catalog", "A1", "--json"]
        self.must(self.run(self.cli(warm), env=self.compile_env), "warm-up")
        if traced:
            self.must(self.run(self.shim_argv(warm, self.tmp / "warm.json",
                                              "warm", "w", clock()),
                               env=self.compile_env), "traced warm-up")
        for name, text in wl.files.items():
            (self.work / name).write_text(text)
        for args in wl.fill:
            self.must(self.run(self.cli(args)), f"cache fill {' '.join(args)}")
        digest = None
        if wl.cache:
            os.replace(self.work / wl.cache, self.work / "filled.cache")
            digest = hashlib.sha256((self.work / "filled.cache").read_bytes()).hexdigest()
        return clock() - start, digest

    def reset(self, wl, work=None):
        """Each pass starts from the set-up state (cache_replay: a fresh
        copy of the filled cache)."""
        work = work or self.work
        keep = set(wl.files) | {"filled.cache"}
        for path in work.iterdir():
            if path.name not in keep:
                path.unlink()
        if wl.cache:
            shutil.copyfile(work / "filled.cache", work / wl.cache)

    def shim_argv(self, args, span_file, run_id, parent, spawned):
        return [self.py, str(BENCH / "shim.py"), str(span_file), run_id, parent,
                repr(spawned), "--", *args]

    def run_pass(self, wl) -> Pass:
        start = clock()
        results = [self.run(self.cli(cmd.args)) for cmd in wl.commands]
        return Pass(results, clock() - start)

    def run_paired(self, wl, tr, twin) -> tuple:
        """Runs each command untraced and then traced, the traced one in a
        twin work directory with its own state, so that both passes see the
        same host speed. Each pass's wall time is the sum of its latencies."""
        plain, traced = [], []
        span_file = self.tmp / "spans.json"
        for i, cmd in enumerate(wl.commands):
            plain.append(self.run(self.cli(cmd.args)))
            cmd_id = tr.reserve()
            spawned = clock()
            res = self.run(self.shim_argv(cmd.args, span_file, tr.run_id, cmd_id, spawned),
                           cwd=twin)
            tr.record("cmd", spawned, res.end, span_id=cmd_id, index=i, args=cmd.args)
            with open(span_file) as fh:
                tr.spans.extend(json.load(fh)["spans"])
            traced.append(res)
        return tuple(Pass(rs, sum(r.latency for r in rs)) for rs in (plain, traced))

    def check(self, wl, passes) -> tuple:
        """Per-command checks plus byte-identical stdout across passes
        (and between the traced and untraced pass)."""
        attempted = failed = 0
        first = {}
        for p in passes:
            for cmd, res in zip(wl.commands, p.results):
                attempted += 1
                error = cmd.check(res.code, res.out, res.err)
                key = tuple(cmd.args)
                if error is None and first.setdefault(key, res.out) != res.out:
                    error = "stdout differs between passes"
                if error is not None:
                    failed += 1
                    print(f"FAIL {' '.join(cmd.args)}: {error}")
        return attempted, failed, first

    def check_persistent(self, name, values: dict):
        """Values that must repeat exactly on every run of the same code in
        this checkout: --json lines of commands whose arguments do not
        depend on the seed, and deterministic counters. The store is keyed
        by a digest of src/ and bench/, so a run is compared only with
        earlier runs of identical code, never with another commit's."""
        path = self.build / "determinism.json"
        store = json.loads(path.read_text()) if path.exists() else {}
        seen = store.setdefault(self.code_sha, {}).setdefault(name, {})
        for key, value in values.items():
            if key in seen and seen[key] != value:
                self.problems.append(f"{name}: {key} changed from {seen[key]} to {value}")
            seen[key] = value
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(store, sort_keys=True, indent=1))
        os.replace(tmp, path)

    # -- untimed probes --------------------------------------------------

    def defect_probe(self) -> dict:
        """Known defects: the three of the ROADMAP and two in the pencil
        oracle. Each is 'open' while it reproduces and 'closed' once the
        documented behaviour holds; anything else fails the run."""
        out = {}
        r = self.run(self.cli(["fit", "nodes", "--max-r", "5"]))
        out["fit_max_r5_exit2"] = (
            "open" if r.code == 2 and "spans only 3 of the 4" in r.err
            else "closed" if r.code == 0 and r.out.endswith("consistent: true\n")
            else "unexpected")
        r = self.run(self.cli(["severi", "p2", "-d", "45", "--nodes", "1", "--ceiling", "60"]))
        out["severi_recursion_error_d45"] = (
            "open" if r.code == 1 and "RecursionError" in r.err
            else "closed" if r.code == 0 and r.out == f"{3 * 44 ** 2}\n"
            else "unexpected")
        cache = self.work / "tamper.cache"
        cache.unlink(missing_ok=True)
        query = ["severi", "p2", "-d", "3", "--nodes", "1", "--cache", cache.name]
        self.must(self.run(self.cli(query)), "tamper probe fill")
        lines = cache.read_text().splitlines(keepends=True)
        target = [i for i, line in enumerate(lines) if line.split() == "P2 3 1 - 3 12".split()]
        outcome = "unexpected"
        if target:
            lines[target[0]] = "P2 3 1 - 3 13\n"
            cache.write_text("".join(lines))
            r = self.run(self.cli(query))
            if r.code == 0 and r.out == "13\n":
                outcome = "open"
            elif (r.code == 0 and r.out == "12\n") or (
                    r.code in (2, 4) and r.err.startswith("error: ")):
                outcome = "closed"
        out["cache_trusts_tampered_value"] = outcome
        # found while building this benchmark: degenerate pencil samples
        # that the oracle neither rejects nor redraws
        for name, (a, b), seed, code, symptom in (
            ("pencil_p1xp1_1_1_seed21_exit2", (1, 1), 21, 2, "positive y-degree"),
            ("pencil_p1xp1_1_2_seed15_exit4", (1, 2), 15, 4, "samples disagree"),
        ):
            r = self.run(self.cli(["severi", "oracle", "--method", "pencil", "--surface",
                                   "p1xp1", "-a", str(a), "-b", str(b), "--seed", str(seed)]))
            out[name] = (
                "open" if r.code == code and symptom in r.err
                else "closed" if r.code == 0 and r.out == f"{W.QUADRIC[(a, b, 1)]}\n"
                else "unexpected")
        for name, state in out.items():
            print(f"defect {name}: {state}")
            if state == "unexpected":
                self.problems.append(f"defect probe {name}: unexpected behaviour")
        return out

    def probe(self, tracemalloc=False) -> dict:
        out = self.tmp / "probe.json"
        args = [self.py, str(BENCH / "probe.py"), "--seed", str(self.seed), "--out", str(out),
                "--cache-file", str(self.work / "probe.cache")]
        self.must(self.run(args + (["--tracemalloc"] if tracemalloc else [])), "layer probe")
        doc = json.loads(out.read_text())
        for error in doc["errors"]:
            self.problems.append(f"layer probe: {error}")
        return doc

    def suite(self) -> Result:
        res = self.run([self.py, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                        "--basetemp", str(self.tmp / "pytest"),
                        "--continue-on-collection-errors"], cwd=self.root)
        lines = [line.strip() for line in res.out.replace("\r", "\n").splitlines() if line.strip()]
        summary = lines[-1] if lines else res.err[-200:]
        print(f"tier-1 suite: exit {res.code}, {summary}, {res.latency:.2f} s")
        return res


# ---------------------------------------------------------------------------
# metrics


def hd_quantile(values, q):
    """Harrell-Davis estimate of the q-quantile: the order statistics
    weighted by a Beta((n+1)q, (n+1)(1-q)) density. A workload's commands
    differ in cost, so neighbouring order statistics often come from
    different commands; a single order statistic then jumps between them
    from run to run, while this weighted mean moves smoothly."""
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_norm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)  # keeps exp in range
    steps = 64  # midpoint rule inside each interval [i/n, (i+1)/n]
    weights = [
        sum(math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_norm)
            for x in ((i + (k + 0.5) / steps) / n for k in range(steps)))
        for i in range(n)
    ]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def tail_quantile(n):
    """The highest percentile with at least ten samples beyond it."""
    if n < 11:
        raise BenchError(f"{n} latency samples; the tail needs at least 11")
    return (n - 10) / n


def tree_digest(root, dirs) -> str:
    """sha256 over the paths and bytes of the files under `dirs`."""
    digest = hashlib.sha256()
    for top in dirs:
        for path in sorted((root / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def metadata(root, args, load_start):
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown (not a git checkout)"
    return {
        "git_sha": sha, "src_sha256": tree_digest(root, ("src",)),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
    }


def end_to_end(runner, wl, args):
    setups = [runner.setup(wl) for _ in range(wl.setup_repeats)]
    if len({digest for _, digest in setups}) != 1:
        runner.problems.append("set-up produced different cache bytes")
    if setups[0][1]:
        runner.check_persistent("cache", {"filled": setups[0][1]})
    # The pass count comes from --seconds and the workload's nominal pass
    # time, not from the clock, so every run pools the same commands; host
    # speed drifts over seconds, so per-pass figures are window averages.
    passes = []
    for _ in range(max(1, int(args.seconds // wl.nominal_pass_s))):
        runner.reset(wl)
        passes.append(runner.run_pass(wl))
    attempted, failed, first = runner.check(wl, passes)
    latencies = [r.latency for p in passes for r in p.results]
    tail_q = tail_quantile(len(latencies))
    runner.record["setups_s"] = [round(t, 4) for t, _ in setups]
    runner.record["latencies_ms"] = {
        " ".join(cmd.args): [round(1000 * p.results[i].latency, 3) for p in passes]
        for i, cmd in enumerate(wl.commands)
    }
    metrics = {
        "setup_s": (statistics.median(s for s, _ in setups), "s"),
        "wall_s": (statistics.fmean(p.wall for p in passes), "s"),
        "cmd_p50_ms": (1000 * hd_quantile(latencies, 0.5), "ms"),
        "cmd_tail_ms": (1000 * hd_quantile(latencies, tail_q), "ms"),
        "cpu_s": (statistics.fmean(p.cpu for p in passes), "s"),
        "peak_rss_mb": (max(r.rss_mb for p in passes for r in p.results), "MB"),
    }
    print(f"{wl.name}: {len(passes)} passes of {len(wl.commands)} commands; "
          f"cmd_tail_ms is p{100 * tail_q:.0f} of {len(latencies)} samples")
    return attempted, failed, first, metrics


def self_time_table(spans):
    import tracer
    selfs = tracer.self_times(spans)
    by_name = {}
    for s in spans:
        by_name[s["name"]] = by_name.get(s["name"], 0.0) + selfs[s["id"]]
    return by_name


def per_layer(runner, wl, args):
    import tracer
    runner.setup(wl, traced=True)
    twin = runner.work.with_name(runner.work.name + "-traced")
    shutil.rmtree(twin, ignore_errors=True)
    shutil.copytree(runner.work, twin)
    runner.reset(wl)
    runner.reset(wl, twin)
    tr = tracer.Tracer(f"{wl.name}-{args.seed}-{os.getpid()}", prefix="r")
    untraced, traced = runner.run_paired(wl, tr, twin)
    attempted, failed, first = runner.check(wl, [untraced, traced])

    table = self_time_table(tr.spans)
    print(f"traced pass {traced.wall:.3f} s, untraced {untraced.wall:.3f} s; "
          f"self times along the traced pass sum to {sum(table.values()):.3f} s:")
    for name, value in sorted(table.items(), key=lambda kv: -kv[1]):
        print(f"  {name:<40} {value:9.3f} s  {100 * value / traced.wall:5.1f}%")
    workload_counters = {}
    for s in tr.spans:
        if s["name"] == "cli.entry":
            for k, v in s["counters"].items():
                workload_counters[k] = workload_counters.get(k, 0) + v
    print(f"workload counters: {json.dumps(workload_counters, sort_keys=True)}")

    started = clock()
    probe = runner.probe()
    print(f"layer probe {clock() - started:.2f} s")
    started = clock()
    memory = runner.probe(tracemalloc=True)
    print(f"tracemalloc probe {clock() - started:.2f} s")
    steps = {s["name"]: s["counters"] for s in probe["spans"] if s["name"].startswith("probe.")}
    for s in memory["spans"]:
        if s["name"] in steps and s["counters"] != steps[s["name"]]:
            runner.problems.append(f"{s['name']} counters differ between the probe passes: "
                                   f"{steps[s['name']]} vs {s['counters']}")
    runner.check_persistent("probe-counters", probe["counters"])
    suite = runner.suite()

    spans = probe["spans"]
    groups = {s["name"][len("probe."):]: s for s in spans if s["name"].startswith("probe.")}

    def within(group, name):
        root = groups[group]["id"]
        return [s for s in tracer.descendants(spans, root) if s["name"] == name]

    def ms(span_list):
        return 1000 * sum(s["end"] - s["start"] for s in span_list)

    severi_spans = within("severi_cold", "severi.severi_p2") + \
        within("severi_cold", "severi.severi_quadric")
    cold_s = ms(severi_spans) / 1000
    states = groups["severi_cold"]["counters"].get("severi.states_computed", 0)
    warm_fit = within("fitter", "fitter.fit_nodes")[-1]
    save = within("cache", "severi.cache_save")[0]
    counters = probe["counters"]
    pencils = within("oracles", "oracles.pencil_discriminant_oracle")

    def median_ms(name):
        return 1000 * statistics.median(s["end"] - s["start"] for s in tr.spans
                                        if s["name"] == name)

    metrics = {
        "cli.python_start_ms": (median_ms("cli.python_start"), "ms"),
        "cli.import_ms": (median_ms("cli.import"), "ms"),
        "catalog.load_ms": (ms(within("catalog", "catalog.load_catalog")[:1]), "ms"),
        "catalog.entries_validated": (counters.get("catalog.entries_validated", 0), "count"),
        "jets.isolated_ms": (ms(within("jets_isolated", "jets.germ_report")), "ms"),
        "jets.nonisolated_ms": (ms(within("jets_nonisolated", "jets.germ_report")), "ms"),
        "jets.ideal_builds": (counters.get("jets.ideal_builds", 0), "count"),
        "jets.rows_inserted": (counters.get("jets.rows_inserted", 0), "count"),
        "severi.cold_s": (cold_s, "s"),
        "severi.states_computed": (states, "count"),
        "severi.memo_hits": (groups["severi_cold"]["counters"].get("severi.memo_hits", 0),
                             "count"),
        "severi.us_per_state": (1e6 * cold_s / max(states, 1), "us"),
        "severi.cache_load_ms": (ms(within("cache", "severi.cache_load")), "ms"),
        "severi.cache_save_ms": (ms([save]), "ms"),
        "severi.cache_lines": (save["counters"].get("severi.cache_lines", 0), "count"),
        "severi.cache_bytes": (save["counters"].get("severi.cache_bytes", 0), "bytes"),
        "oracles.pencil_p2_ms": (ms(pencils[:1]), "ms"),
        "oracles.pencil_quadric_ms": (ms(pencils[1:]), "ms"),
        "oracles.floor_ms": (ms(within("oracles", "oracles.floor_diagram_oracle")), "ms"),
        "fitter.fit_warm_ms": (ms([warm_fit]), "ms"),
        "fitter.equations": (warm_fit["counters"].get("fitter.equations", 0), "count"),
        "series.exp_ms": (ms(within("series", "series.assemble_series")), "ms"),
        "series.log_ms": (ms(within("series", "series.log_series")), "ms"),
        "series.coeffs": (counters.get("series.coeffs", 0), "count"),
        "trace.overhead_pct": (100 * (traced.wall - untraced.wall) / untraced.wall, "%"),
        "suite.tier1_s": (suite.latency, "s"),
    }
    for group, kb in sorted(memory["peaks_kb"].items()):
        metrics[f"mem.{group}_peak_kb"] = (kb, "kB")

    trace_file = runner.build / f"trace-{wl.name}-{args.seed}.json"
    trace_file.write_text(json.dumps({"run": tr.run_id, "spans": tr.spans + spans}))
    print(f"spans written to {trace_file.relative_to(runner.root)}")
    return attempted, failed, first, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "curvelab" / "cli.py").is_file():
        print("error: run from the curvelab repository root (src/curvelab is missing)",
              file=sys.stderr)
        return 2
    runner = Runner(root, args.workload, args.seed)
    runner.tmp.mkdir(parents=True, exist_ok=True)

    def stop(signum, frame):
        runner.kill_child()
        raise BenchError(f"stopped by signal {signum} (the deadline is {DEADLINE_S} s)")

    signal.signal(signal.SIGALRM, stop)
    signal.signal(signal.SIGTERM, stop)
    signal.alarm(DEADLINE_S)
    load_start = os.getloadavg()
    wl = W.WORKLOADS[args.workload](args.seed)
    try:
        measure = per_layer if args.trace else end_to_end
        attempted, failed, first, metrics = measure(runner, wl, args)
        runner.check_persistent(f"json-{wl.name}", {
            (f"seed {args.seed}: " if cmd.seeded else "") + " ".join(cmd.args):
            hashlib.sha256(first[tuple(cmd.args)].encode()).hexdigest()
            for cmd in wl.commands if "--json" in cmd.args and tuple(cmd.args) in first
        })
        defects = runner.defect_probe() if args.trace else {}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        runner.kill_child()

    meta = metadata(root, args, load_start)
    if args.trace:
        meta["open_defects"] = sorted(k for k, v in defects.items() if v == "open")
        metrics["defects.open"] = (len(meta["open_defects"]), "count")
    for problem in runner.problems:
        print(f"FAIL {problem}")
    print(f"error_rate: {failed}/{attempted} = {failed / attempted:.4f}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<28} {value:>14.4f} {unit}")
    print("run: " + json.dumps(meta, sort_keys=True))
    result = {
        "correct": failed == 0 and not runner.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = runner.build / "results" / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    record.parent.mkdir(exist_ok=True)
    record.write_text(json.dumps({"run": meta, **result, "problems": runner.problems,
                                  **runner.record}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
