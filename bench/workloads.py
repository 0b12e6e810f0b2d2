"""The benchmark's workloads: CLI command lists with their expected outputs.

Every workload is a fixed list of `curvelab` invocations. The workload
seed only changes input values (germ coefficients, a-table coefficients,
Chern points and pencil `--seed` values), never job sizes, so every seed
does the same amount of work. Each command carries the check that decides
whether its exit code and stdout are correct; those checks feed
`attempted`/`failed` in the result line.

Expected values are held here, not read from the program:

* README examples (225, 12, 2370, 437517 and the quoted text blocks);
* Milnor and Tjurina numbers of the catalog's A/D/E and ordinary points
  in closed form (A_k, D_k, E_k: mu = tau = k; ordinary n-fold point:
  (n-1)^2), and of Brieskorn-Pham germs c1*x^a + c2*y^b, mu = tau = (a-1)(b-1);
* Severi counts: one-node counts 3(d-1)^2 on the plane, small counts
  confirmed by the floor-diagram and pencil oracles, and the larger
  recursion values below;
* series coefficients, recomputed here by an independent exp evaluation.
"""

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial

# Severi counts. Plane values up to d = 6 and quadric one-node values are
# confirmed by the floor-diagram and pencil oracles in the workloads that
# use them; the rest were computed by the recursion and pin it down.
P2 = {
    (2, 1): 3, (3, 1): 12, (3, 2): 21,
    (4, 0): 1, (4, 1): 27, (4, 2): 225, (4, 3): 675, (4, 4): 666,
    (5, 0): 1, (5, 1): 48, (5, 2): 882, (5, 3): 7915, (5, 4): 36975,
    (6, 0): 1, (6, 1): 75, (6, 2): 2370, (6, 3): 41310, (6, 4): 437517,
    (9, 3): 959115, (12, 4): 579308220, (13, 3): 12245355,
    (11, 14): 6109881487479049410675,
    (12, 20): 208504416960177484610837663682,
    (16, 10): 2147039681426816474646,
}
QUADRIC = {
    (1, 1, 1): 2, (1, 2, 1): 4, (2, 2, 1): 12, (2, 3, 1): 20, (3, 3, 1): 34,
    (4, 5, 2): 3345, (6, 7, 4): 48563553,
    (10, 10, 8): 67386129212143572,
}

# codimensions (series weights) of the labels used by the series workloads
WEIGHTS = {"A1": 1, "A2": 2, "A3": 3, "D4": 4}

# The pencil oracle fails on a few percent of its own --seed values at low
# degree (see the known-defect probe in run.py), so the workloads use the
# README's seed, on which it works; that also keeps the oracle's cost, which
# depends on the drawn coefficients, the same for every workload seed.
PENCIL_SEED = "5"


def catalog_mu(label: str) -> int:
    """Closed-form Milnor number (= Tjurina number) of a catalog label."""
    if label.startswith("ord"):
        n = int(label[3:].split("-")[0])
        return (n - 1) ** 2
    return int(label[1:])


CATALOG_LABELS = (
    [f"A{k}" for k in range(1, 9)] + [f"D{k}" for k in range(4, 9)]
    + ["E6", "E7", "E8"]
    + [f"ord{n}-{f}" for n in range(3, 7) for f in ("analytic", "topological")]
)


def fmt(q) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def chern_p2(d):
    return (d * d, -3 * d, 9, 3)


def poly_eval(poly_json, point) -> Fraction:
    """Evaluate a curvelab JSON polynomial [[exponents, "p/q"], ...]."""
    total = Fraction(0)
    for exps, coeff in poly_json:
        term = Fraction(coeff)
        for v, e in zip(point, exps):
            term *= Fraction(v) ** e
        total += term
    return total


# ---------------------------------------------------------------------------
# independent reference for the series layer


def multisets(weights: dict, cap: int) -> list:
    """All nonempty sorted label multisets of total weight <= cap."""
    labels = sorted(weights)
    out = []

    def rec(prefix, start, used):
        for i in range(start, len(labels)):
            w = used + weights[labels[i]]
            if w <= cap:
                key = prefix + (labels[i],)
                out.append(key)
                rec(key, i, w)

    rec((), 0, 0)
    return out


def reference_exp(log_values: dict, weights: dict, cap: int) -> dict:
    """Coefficients of exp(sum_K v_K x^K) for numeric v_K, by the graded
    recurrence n*E_n = sum_k k*B_k*E_(n-k) over total weight, which is a
    different algorithm from the library's sum of powers."""
    labels = sorted(weights)

    def weight(m):
        return sum(c * weights[l] for c, l in zip(m, labels))

    def mono(key):
        return tuple(key.count(l) for l in labels)

    by_weight = {}
    for key, v in log_values.items():
        m = mono(key)
        by_weight.setdefault(weight(m), {})[m] = Fraction(v)
    E = {0: {(0,) * len(labels): Fraction(1)}}
    for n in range(1, cap + 1):
        acc = {}
        for k in range(1, n + 1):
            for mb, b in by_weight.get(k, {}).items():
                for me, e in E[n - k].items():
                    m = tuple(x + y for x, y in zip(mb, me))
                    acc[m] = acc.get(m, Fraction(0)) + k * b * e
        E[n] = {m: c / n for m, c in acc.items() if c}
    out = {}
    for level in E.values():
        for m, c in level.items():
            key = tuple(l for l, cnt in zip(labels, m) for _ in range(cnt))
            out[key] = c
    return out


def aut(key) -> int:
    out = 1
    for label in set(key):
        out *= factorial(key.count(label))
    return out


# ---------------------------------------------------------------------------
# commands and checks


@dataclass
class Command:
    args: list
    check: object  # (code, stdout, stderr) -> error text or None
    # stdout depends on the workload seed through a file the set-up wrote
    seeded: bool = False


@dataclass
class Workload:
    name: str
    commands: list
    # about the seconds one pass takes on a 2-CPU x86 VM with Python 3.11;
    # --seconds // nominal_pass_s is the pass count
    nominal_pass_s: float
    # set-ups per --trace 0 run; setup_s is their median
    setup_repeats: int = 5
    # files written into the work directory at set-up
    files: dict = field(default_factory=dict)
    # commands run at set-up whose --cache file each pass starts from
    fill: list = field(default_factory=list)
    cache: str = None


def expect_text(text, code=0):
    def check(rc, out, err):
        if rc != code:
            return f"exit {rc}, expected {code}: {err.strip()[-200:]}"
        if out != text:
            return f"stdout {out[:120]!r}, expected {text[:120]!r}"
        return None
    return check


def expect_value(value):
    return expect_text(f"{value}\n")


def expect_error(code):
    """A documented error exit: the code matches, stdout is empty and
    stderr is one `error: ...` line."""
    def check(rc, out, err):
        lines = err.splitlines()
        if rc != code:
            return f"exit {rc}, expected {code}"
        if out or len(lines) != 1 or not lines[0].startswith("error: "):
            return f"not a one-line error: {err[-200:]!r}"
        return None
    return check


def expect_json(result_check):
    """`--json` output: one envelope line; result_check(result, stats)."""
    def check(rc, out, err):
        if rc != 0:
            return f"exit {rc}: {err.strip()[-200:]}"
        if out.count("\n") != 1 or not out.endswith("\n"):
            return "json output is not exactly one line"
        try:
            doc = json.loads(out)
            if doc.get("schema") != "curvelab/v1":
                return f"schema {doc.get('schema')!r}"
            return result_check(doc["result"], doc.get("stats", {}))
        except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
            return f"malformed output ({exc!r})"
    return check


def stats_error(stats, cold=False, cached=None):
    """`cold`: work done without a cache. `cached` True: nothing computed
    on top of a loaded cache (the proof that a replay skips the
    recursion); False: new work on top of a loaded cache."""
    computed, loaded = stats.get("computed", 0), stats.get("loaded", 0)
    if cold and (loaded != 0 or computed <= 0):
        return f"expected a cold computation, stats {stats}"
    if cached is True and (computed != 0 or loaded <= 0):
        return f"expected a pure cache replay, stats {stats}"
    if cached is False and (computed <= 0 or loaded <= 0):
        return f"expected the cache to grow, stats {stats}"
    return None


def severi_json(value, cold=False, cached=None):
    def check(result, stats):
        if result != value:
            return f"result {result}, expected {value}"
        return stats_error(stats, cold, cached)
    return expect_json(check)


def germ_json(mu, multiplicity):
    def check(result, stats):
        got = (result["milnor"], result["tjurina"], result["multiplicity"])
        if got != (mu, mu, multiplicity):
            return f"(mu, tau, mult) = {got}, expected {(mu, mu, multiplicity)}"
        return None
    return expect_json(check)


def catalog_json(result, stats):
    labels = [e["label"] for e in result]
    if labels != CATALOG_LABELS:
        return f"catalog labels {labels}"
    for e in result:
        mu = catalog_mu(e["label"])
        if (e["mu"], e["tau"]) != (mu, mu):
            return f"{e['label']}: mu, tau = {e['mu']}, {e['tau']}, expected {mu}"
    return None


def fit_json(cold=False, cached=None):
    """fit nodes --max-r 4: consistent, a_1 = 3x + 2y + t, and T_r at the
    plane of degree 6 gives the floor-diagram counts."""
    def check(result, stats):
        if result.get("residual_consistent") is not True:
            return "fit not consistent"
        a1 = {tuple(k): Fraction(c) for k, c in result["a"]["1"]}
        if a1 != {(1, 0, 0, 0): 3, (0, 1, 0, 0): 2, (0, 0, 0, 1): 1}:
            return f"a_1 = {result['a']['1']}"
        for r in range(5):
            got = poly_eval(result["T"][str(r)], chern_p2(6))
            if got != P2[(6, r)]:
                return f"T_{r}(P2, d=6) = {got}, expected {P2[(6, r)]}"
        return stats_error(stats, cold, cached)
    return expect_json(check)


def series_json(reference, point):
    """series assemble --json: every coefficient, evaluated at `point`,
    matches the independent reference."""
    def check(result, stats):
        got = {tuple(k): poly_eval(p, point) for k, p in result["coeffs"]}
        wrong = sorted(k for k in set(got) | set(reference)
                       if got.get(k, 0) != reference.get(k, 0))
        if wrong:
            return f"{len(wrong)} series coefficients differ, e.g. {wrong[:3]}"
        return None
    return expect_json(check)


def rational(rng, span=9):
    return Fraction(rng.choice([i for i in range(-span, span + 1) if i]), rng.randint(1, 4))


def germ_text(rng, a, b) -> str:
    """c1*x^a + c2*y^b with seeded nonzero rational coefficients; c1 > 0
    so that the argument never starts with '-'."""
    c1, c2 = abs(rational(rng)), rational(rng)
    return f"{fmt(c1)}*x^{a} {'+' if c2 > 0 else '-'} {fmt(abs(c2))}*y^{b}"


# ---------------------------------------------------------------------------
# the workloads

README_CUSP = (
    "germ: y^2 - x^3\nmultiplicity: 2\nmilnor: 2\ntjurina: 2\n"
    "determinacy window: (2, 3)\nscheme length N at k=3: 7\n"
    "orbit tangent dim at k=3: 6\nequisingular stratum dim: 5\n"
)
README_A2 = (
    "label: A2\nflavor: analytic\nnormal_form: y^2 - x^3\nk_used: 3\n"
    "dim_es: 0\nmu: 2\ntau: 2\nN: 7\ncodim: 2\n"
)
README_PARTS = "members: 3\nN total: 17\ncodim total: 4\nsymmetry order: 2\n"

# Brieskorn-Pham exponent pairs (fixed sizes; the seed picks coefficients)
BP_PAIRS = ((3, 4), (2, 9), (4, 5), (3, 7))
# catalog entries analysed by normal form: label -> (normal form, multiplicity)
NORMAL_FORMS = {"A3": ("y^2 - x^4", 2), "D5": ("x^2*y - y^4", 3),
                "E7": ("x^3 + x*y^3", 3), "ord4-analytic": ("x^4 - y^4", 4)}


def cli_session(seed: int) -> Workload:
    rng = random.Random(seed)
    cmds = [Command(["germ", "analyze", "y^2 - x^3"], expect_text(README_CUSP))]
    for label, (form, mult) in NORMAL_FORMS.items():
        cmds.append(Command(["germ", "analyze", form, "--json"],
                            germ_json(catalog_mu(label), mult)))
    for a, b in BP_PAIRS:
        cmds.append(Command(["germ", "analyze", germ_text(rng, a, b), "--json"],
                            germ_json((a - 1) * (b - 1), min(a, b))))
    cmds += [
        Command(["germ", "analyze", "x^2*y^2"], expect_error(3)),
        Command(["germ", "catalog", "--json"], expect_json(catalog_json)),
        Command(["germ", "catalog", "A2"], expect_text(README_A2)),
        Command(["germ", "catalog", "--parts", "A1,A1,A2"], expect_text(README_PARTS)),
        Command(["germ", "catalog", "Q99"], expect_error(2)),
        Command(["severi", "p2", "-d", "4", "--nodes", "2"], expect_value(225)),
        Command(["severi", "p2", "-d", "6", "--nodes", "2"], expect_value(2370)),
        Command(["severi", "p1xp1", "-a", "2", "-b", "2", "--nodes", "1"], expect_value(12)),
        Command(["severi", "p2", "-d", "3", "--nodes", "4"], expect_error(3)),
        Command(["severi", "oracle", "--method", "floor", "-d", "4", "--nodes", "2"],
                expect_value(225)),
        Command(["severi", "oracle", "--method", "pencil", "--surface", "p1xp1",
                 "-a", "2", "-b", "2", "--seed", PENCIL_SEED], expect_value(12)),
        Command(["fit", "nodes", "--max-r", "4", "--a-table-out", "table.json", "--json"],
                fit_json()),
        Command(["fit", "scan", "-r", "2"], expect_text("threshold: d = 3\n")),
        Command(["series", "assemble", "--a-table", "table.json", "--json"],
                series_json({("A1",) * r: P2[(6, r)] for r in range(5)}, chern_p2(6))),
        Command(["series", "eval", "--a-table", "table.json", "--parts", "A1,A1",
                 "--chern", "36,-18,9,3"], expect_value(2370)),
        Command(["series", "eval", "--a-table", "table.json", "--parts", "A1,A1,A1,A1",
                 "--chern", "36,-18,9,3"], expect_value(437517)),
    ]
    return Workload("cli_session", cmds, nominal_pass_s=7.0)


def _severi_args(key, surface="p2"):
    if surface == "p2":
        d, nodes = key
        args = ["severi", "p2", "-d", str(d), "--nodes", str(nodes)]
        if d > 12:
            args += ["--ceiling", str(d)]
        return args
    a, b, nodes = key
    args = ["severi", "p1xp1", "-a", str(a), "-b", str(b), "--nodes", str(nodes)]
    if max(a, b) >= 10:
        args += ["--ceiling", str(max(a, b))]
    return args


# the counts computed cold by compute_cold and filled into cache_replay's cache
COLD_P2 = ((12, 20), (16, 10))
COLD_QUADRIC = ((10, 10, 8),)


def compute_cold(seed: int) -> Workload:
    """Seed-independent: every input is fixed (see PENCIL_SEED)."""
    cmds = [Command(_severi_args(k) + ["--json"], severi_json(P2[k], cold=True))
            for k in COLD_P2]
    cmds += [Command(_severi_args(k, "p1xp1") + ["--json"], severi_json(QUADRIC[k], cold=True))
             for k in COLD_QUADRIC]
    cmds += [
        Command(["fit", "nodes", "--max-r", "4", "--json"], fit_json(cold=True)),
        Command(["fit", "scan", "-r", "4", "--json"], severi_json(4, cold=True)),
    ]
    # each oracle must reproduce the Severi count
    for d in range(2, 6):
        cmds.append(Command(["severi", "oracle", "--method", "pencil", "-d", str(d),
                             "--seed", PENCIL_SEED], expect_value(P2[(d, 1)])))
    for a, b in ((1, 1), (1, 2), (2, 2), (2, 3), (3, 3)):
        cmds.append(Command(["severi", "oracle", "--method", "pencil", "--surface", "p1xp1",
                             "-a", str(a), "-b", str(b), "--seed", PENCIL_SEED],
                            expect_value(QUADRIC[(a, b, 1)])))
    # the floor oracle's whole range at d = 4..6 and the small plane cubics;
    # these short commands also give the latency tail at least 30 samples
    for d, nodes in [(6, n) for n in range(5)] + [(5, n) for n in range(5)] + \
            [(4, n) for n in range(5)] + [(3, 1), (3, 2)]:
        cmds.append(Command(["severi", "oracle", "--method", "floor", "-d", str(d),
                             "--nodes", str(nodes)], expect_value(P2[(d, nodes)])))
    return Workload("compute_cold", cmds, nominal_pass_s=22.0)


# cache_replay: queries answered from the filled cache, and ones outside it
REPLAY_P2 = COLD_P2 + ((12, 4), (9, 3), (11, 14), (13, 3))
REPLAY_QUADRIC = COLD_QUADRIC + ((4, 5, 2),)
GROW_QUADRIC = ((6, 7, 4),)
# series eval targets: label multisets of weight 10, 8 and 6
EVAL_PARTS = (("A1", "A2", "A3", "D4"), ("A2", "A2", "D4"), ("A1", "A1", "A1", "A3"))


def a_table(rng) -> dict:
    """Seeded linear log-coefficients for every multiset of weight <= 10."""
    return {key: [rational(rng) for _ in range(4)] for key in multisets(WEIGHTS, 10)}


def a_table_json(table) -> str:
    unit = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    entries = [
        [list(key), sorted([list(e), fmt(c)] for e, c in zip(unit, coeffs) if c)]
        for key, coeffs in sorted(table.items())
    ]
    return json.dumps({"entries": entries}, sort_keys=True, separators=(",", ":")) + "\n"


def series_reference(table, point, weights=WEIGHTS, cap=10) -> dict:
    values = {key: sum(c * v for c, v in zip(coeffs, point)) / aut(key)
              for key, coeffs in table.items()}
    return reference_exp(values, weights, cap)


def cache_replay(seed: int) -> Workload:
    rng = random.Random(seed)
    table = a_table(rng)
    point = tuple(rng.randint(-40, 40) for _ in range(4))
    reference = series_reference(table, point)
    chern = ",".join(str(v) for v in point)
    cache = ["--cache", "replay.cache", "--json"]
    # smallest first, so each fill command loads and rewrites a smaller file;
    # the saved bytes do not depend on the order
    fill = [["fit", "nodes", "--max-r", "4"] + cache, ["fit", "scan", "-r", "4"] + cache]
    fill += [_severi_args(k) + cache for k in COLD_P2]
    fill += [_severi_args(k, "p1xp1") + cache for k in COLD_QUADRIC]
    cmds = [Command(_severi_args(k) + cache, severi_json(P2[k], cached=True))
            for k in REPLAY_P2]
    cmds += [Command(_severi_args(k, "p1xp1") + cache, severi_json(QUADRIC[k], cached=True))
             for k in REPLAY_QUADRIC]
    cmds += [
        Command(["fit", "nodes", "--max-r", "4"] + cache, fit_json(cached=True)),
        Command(["fit", "scan", "-r", "4"] + cache, severi_json(4, cached=True)),
    ]
    cmds += [Command(_severi_args(k, "p1xp1") + cache, severi_json(QUADRIC[k], cached=False))
             for k in GROW_QUADRIC]
    cmds.append(Command(["series", "assemble", "--a-table", "atable.json", "--cap", "10",
                         "--json"], series_json(reference, point), seeded=True))
    for parts in EVAL_PARTS:
        cmds.append(Command(["series", "eval", "--a-table", "atable.json",
                             "--parts", ",".join(parts), f"--chern={chern}"],
                            expect_value(fmt(reference[tuple(sorted(parts))])), seeded=True))
    return Workload("cache_replay", cmds, files={"atable.json": a_table_json(table)},
                    fill=fill, cache="replay.cache", nominal_pass_s=10.0, setup_repeats=3)


WORKLOADS = {"cli_session": cli_session, "compute_cold": compute_cold,
             "cache_replay": cache_replay}
