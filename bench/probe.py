"""Per-layer probe: calls each curvelab layer's public functions in one
process, with fixed job sizes and seeded values, under the tracer.

usage: python probe.py --seed N --out FILE [--tracemalloc]

Every step runs inside a `probe.<layer>` span, so the runner can read each
layer's time and counters from the spans. With --tracemalloc the same
steps run again with tracemalloc on and the peak of each step is recorded
as well; the runner never takes timings from that pass.
"""

import argparse
import json
import random
import sys
import tracemalloc
from contextlib import contextmanager
from fractions import Fraction

import tracer
import workloads as W

def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--cache-file", required=True)
    parser.add_argument("--tracemalloc", action="store_true")
    opts = parser.parse_args()
    rng = random.Random(opts.seed)

    import curvelab as cl
    from curvelab.series import ChernPolynomial, TruncatedSeries

    tr = tracer.Tracer("probe", prefix="p")
    tracer.install(tr)
    errors = []
    peaks = {}

    def expect(what, got, want):
        if got != want:
            errors.append(f"{what}: got {got}, expected {want}")

    @contextmanager
    def layer(name):
        if opts.tracemalloc:
            tracemalloc.start()
        try:
            with tr.span(f"probe.{name}"):
                yield
        finally:
            if opts.tracemalloc:
                peaks[name] = tracemalloc.get_traced_memory()[1] / 1024
                tracemalloc.stop()

    with layer("catalog"):
        table = cl.load_catalog()
    expect("catalog labels", list(table), W.CATALOG_LABELS)

    with layer("jets_isolated"):
        for label, (form, mult) in W.NORMAL_FORMS.items():
            r = cl.germ_report(cl.parse_germ(form))
            expect(f"mu, tau of {label}", (r.milnor, r.tjurina), (W.catalog_mu(label),) * 2)
        for a, b in W.BP_PAIRS:
            r = cl.germ_report(cl.parse_germ(W.germ_text(rng, a, b)))
            expect(f"mu, tau of BP({a},{b})", (r.milnor, r.tjurina), ((a - 1) * (b - 1),) * 2)

    # Under tracemalloc this scan alone would take about a third of the
    # pass, so the memory pass leaves it out.
    if not opts.tracemalloc:
        with layer("jets_nonisolated"):
            try:
                cl.germ_report(cl.parse_germ("x^2*y^2"))
                errors.append("x^2*y^2 was reported isolated")
            except cl.CeilingError:
                pass

    engine = cl.SeveriEngine(cl.MemoStore())
    with layer("severi_cold"):
        plane = [engine.severi_p2(10, nodes) for nodes in range(13)]
        quadric = [engine.severi_quadric(6, 6, nodes) for nodes in range(9)]
    expect("severi_p2(10, 1)", plane[1], 3 * 9 ** 2)
    expect("severi_quadric(6, 6, 0)", quadric[0], 1)

    with layer("cache"):
        engine.store.save(opts.cache_file)
        loaded = cl.MemoStore()
        loaded.load(opts.cache_file)
    expect("cache round trip", loaded.table, engine.store.table)

    with layer("fitter"):
        cl.fit_nodes(4, engine=engine)  # fills the engine; the next fit is warm
        fit = cl.fit_nodes(4, engine=engine)
        threshold = cl.threshold_scan(fit, 4, engine=engine)
    expect("fit consistent", fit.residual_consistent, True)
    expect("threshold r=4", threshold, 4)

    with layer("oracles"):
        seed = int(W.PENCIL_SEED)
        pencil_p2 = cl.pencil_discriminant_oracle("p2", 4, seed=seed)
        pencil_quadric = cl.pencil_discriminant_oracle("p1xp1", (2, 3), seed=seed)
        floor = [cl.floor_diagram_oracle(6, nodes) for nodes in range(5)]
    expect("pencil p2 d=4", pencil_p2, W.P2[(4, 1)])
    expect("pencil p1xp1 (2,3)", pencil_quadric, W.QUADRIC[(2, 3, 1)])
    expect("floor d=6", floor, [W.P2[(6, r)] for r in range(5)])

    # the seeded table restricted to A1 and A2: 35 entries
    weights = {k: W.WEIGHTS[k] for k in ("A1", "A2")}
    a_table = {k: c for k, c in W.a_table(rng).items() if set(k) <= set(weights)}
    polys = {k: ChernPolynomial.linear(*c) for k, c in a_table.items()}
    def nodal(key):  # the log step works on the cap-8 part in A1 alone
        return set(key) <= {"A1"} and len(key) <= 8

    with layer("series"):
        assembled = cl.assemble_series(polys, weights, 10)
        truncated = TruncatedSeries(
            {"A1": 1}, 8, {k: p for k, p in assembled.coeffs.items() if nodal(k)})
        logarithm = cl.log_series(truncated)
    point = tuple(rng.randint(-40, 40) for _ in range(4))
    reference = W.series_reference(a_table, point, weights)
    got = {k: p.evaluate(point) for k, p in assembled.coeffs.items()}
    expect("exp coefficients", {k: v for k, v in got.items() if v},
           {k: v for k, v in reference.items() if v})
    want_log = {k: p.scale(Fraction(1, W.aut(k))) for k, p in polys.items() if nodal(k)}
    expect("log(exp) round trip", logarithm.coeffs, want_log)

    with open(opts.out, "w") as fh:
        json.dump({"spans": tr.spans, "counters": tr.counters, "errors": errors,
                   "peaks_kb": peaks}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
