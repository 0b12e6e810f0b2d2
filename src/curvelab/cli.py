"""Command-line front end.

Every subcommand supports --json, which wraps the result in a stable,
versioned envelope: {"schema": "curvelab/v1", "result": ..., "stats": ...}.
Exit codes: 0 success, 1 stdout closed by its reader (nothing is
printed), 2 bad input, 3 ceiling or admissibility limit, 4 internal
inconsistency.

Each handler imports the layer it runs when it runs, so a process pays
start-up only for that layer. The counting commands (`severi` on each
surface of `surfaces.SURFACES`, `fit nodes`, `fit scan`) reach the Severi
engine and its memo store through `_count`; no other command loads either.
"""

import argparse
import json
import os
import re
import sys

from .errors import CurvelabError, InputError
from .surfaces import PLANE, SURFACES

SCHEMA = "curvelab/v1"
_CLASS_FLAGS = tuple(dict.fromkeys(flag for row in SURFACES.values() for flag in row.flags))


def _emit(args, result, stats=None, text="") -> int:
    if args.json:
        payload = {"schema": SCHEMA, "result": result, "stats": stats or {}}
        sys.stdout.write(
            json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
        )
    else:
        print(text)
    return 0


def _count(args, compute, ceiling=None):
    """(compute(engine), store stats) for a Severi engine at `ceiling`
    whose memo store is loaded from --cache before and saved there after."""
    from .memo import MemoStore
    from .severi import DEFAULT_DEGREE_CEILING, SeveriEngine

    store = MemoStore()
    ceiling = DEFAULT_DEGREE_CEILING if ceiling is None else ceiling
    engine = SeveriEngine(store, degree_ceiling=ceiling)
    path = args.cache
    if path == "":
        raise InputError("cannot read cache file '': the path is empty")
    if path is not None and not os.path.exists(path):
        _check_writable(path, "cache")
    elif path is not None:
        try:
            store.load(path)
        except OSError as exc:
            raise InputError(f"cannot read cache file {path!r}: {exc}") from exc
    result = compute(engine)
    if path is not None:
        try:
            store.save(path)
        except OSError as exc:
            raise InputError(f"cannot write cache file {path!r}: {exc}") from exc
    return result, store.stats()


def _parse_parts(text: str) -> tuple:
    if not text.strip():
        raise InputError("empty singularity multiset")
    parts = tuple(p.strip() for p in text.split(","))
    if "" in parts:
        raise InputError(f"empty label in singularity multiset {text!r}")
    return parts


def _load_a_table(path: str) -> dict:
    from .series import ChernPolynomial, normalize_table

    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read a-table file {path!r}: {exc}") from exc
    except ValueError as exc:  # bad JSON syntax or bytes that are not UTF-8
        raise InputError(f"a-table file {path!r} is not valid JSON") from exc
    except RecursionError as exc:
        raise InputError(f"a-table file {path!r} nests too deep to read") from exc
    pairs = []
    try:
        if not isinstance(obj["entries"], list):  # "" or {} would read as no entries
            raise TypeError("the entries are a list")
        for key, poly in obj["entries"]:
            if not isinstance(key, list):  # a string would read as one label
                raise TypeError("a multiset is a list of labels")
            pairs.append((key, ChernPolynomial.from_json_obj(poly)))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed a-table file {path!r}") from exc
    try:
        return normalize_table(pairs)
    except InputError as exc:
        raise InputError(f"a-table file {path!r}: {exc}") from exc


def _check_writable(path: str, kind: str):
    """Refuse a path for a `kind` file that no write could create, before
    any work is done; other failures surface when it is written."""
    if path == "":
        problem = "the path is empty"
    elif os.path.isdir(path):
        problem = "it is a directory"
    elif not os.path.isdir(os.path.dirname(path) or "."):
        problem = "its directory does not exist"
    else:
        return
    raise InputError(f"cannot write {kind} file {path!r}: {problem}")


def _dump_a_table(table: dict) -> str:
    entries = [
        [list(key), poly.to_json_obj()] for key, poly in sorted(table.items())
    ]
    return json.dumps({"entries": entries}, sort_keys=True, separators=(",", ":")) + "\n"


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_germ_analyze(args) -> int:
    from .germs import parse_germ
    from .jets import germ_report

    f = parse_germ(args.expr)
    stats = {}
    report = germ_report(f, k=args.k, stats=stats)
    k = report.k_used
    lines = [
        f"germ: {report.expression}",
        f"multiplicity: {report.multiplicity}",
        f"milnor: {report.milnor}",
        f"tjurina: {report.tjurina}",
        "determinacy window: "
        f"({report.determinacy_window[0]}, {report.determinacy_window[1]})",
        f"scheme length N at k={k}: {report.scheme_length_at[k]}",
        f"orbit tangent dim at k={k}: {report.orbit_tangent_dim}",
        f"equisingular stratum dim: {report.dim_s0}",
    ]
    return _emit(args, report.to_dict(), stats, "\n".join(lines))


def _cmd_germ_catalog(args) -> int:
    from .catalog import collection_stats, load_catalog, lookup

    if args.parts is not None and args.label is not None:
        raise InputError("germ catalog takes a label or --parts, not both")
    if args.parts is not None:
        stats = collection_stats(_parse_parts(args.parts))
        text = (
            f"members: {stats.l}\nN total: {stats.N}\n"
            f"codim total: {stats.codim}\nsymmetry order: {stats.aut}"
        )
        return _emit(args, stats._asdict(), None, text)
    if args.label is not None:
        entry_obj = lookup(args.label)
        d = entry_obj.to_dict()
        text = "\n".join(f"{k}: {d[k]}" for k in d)
        return _emit(args, d, None, text)
    entries = list(load_catalog().values())
    w = max(len(e.label) for e in entries) + 2
    header = f"{'label':<{w}}{'flavor':<13}{'k':>3}{'mu':>5}{'tau':>5}{'N':>5}{'codim':>7}{'dim_es':>8}  normal form"
    rows = [header]
    for e in entries:
        rows.append(
            f"{e.label:<{w}}{e.flavor:<13}{e.k_used:>3}{e.mu:>5}{e.tau:>5}"
            f"{e.N:>5}{e.codim:>7}{e.dim_es:>8}  {e.normal_form_text}"
        )
    return _emit(args, [e.to_dict() for e in entries], None, "\n".join(rows))


def _cmd_severi(args) -> int:
    surface = args.surface
    klass = surface.klass(*(getattr(args, flag) for flag in surface.flags))
    value, stats = _count(args, lambda e: e.count(surface, klass, args.nodes), args.ceiling)
    return _emit(args, value, stats, str(value))


def _cmd_severi_oracle(args) -> int:
    from .oracles import floor_diagram_oracle, pencil_discriminant_oracle

    surface = SURFACES[args.surface.upper()]
    if args.method == "floor" and not surface.floor:
        covered = " and ".join(f"the {other.word}" for other in SURFACES.values() if other.floor)
        raise InputError(f"the floor-diagram oracle only covers {covered}")
    flags = " and ".join(f"-{flag}" for flag in surface.flags)
    # a flag the chosen count does not read is refused, not ignored
    given = [f"-{flag}" for flag in _CLASS_FLAGS
             if flag not in surface.flags and getattr(args, flag) is not None]
    if given:
        raise InputError(f"the {surface.word} takes {flags}, not {' and '.join(given)}")
    values = [getattr(args, flag) for flag in surface.flags]
    stats = {}
    if args.method == "floor":
        if args.seed is not None:
            raise InputError("--seed picks the pencil oracle's draws; the floor oracle has none")
        if None in values or args.nodes is None:
            raise InputError(f"floor oracle needs {flags} and --nodes")
        value = floor_diagram_oracle(surface.klass(*values), args.nodes, stats)
    else:
        if args.nodes not in (None, 1):
            raise InputError("the pencil oracle counts one-node curves only; --nodes must be 1")
        if None in values:
            raise InputError(f"{surface.word} pencil oracle needs {flags}")
        seed = 0 if args.seed is None else args.seed
        value = pencil_discriminant_oracle(args.surface, surface.klass(*values), seed=seed,
                                           stats=stats)
    return _emit(args, value, stats, str(value))


def _cmd_fit_nodes(args) -> int:
    from .fitter import fit_nodes

    if args.a_table_out is not None:
        _check_writable(args.a_table_out, "a-table")
    result, stats = _count(args, lambda engine: fit_nodes(args.max_r, engine=engine))
    if args.a_table_out is not None:
        try:
            with open(args.a_table_out, "w") as fh:
                fh.write(_dump_a_table(result.to_a_table()))
        except OSError as exc:
            raise InputError(f"cannot write a-table file {args.a_table_out!r}: {exc}") from exc
    lines = [f"a_{r} = {p.to_string()}" for r, p in sorted(result.a.items())]
    lines += [
        f"T_{r} = {p.to_string()}" for r, p in sorted(result.T.items()) if r > 0
    ]
    lines.append(f"consistent: {'true' if result.residual_consistent else 'false'}")
    return _emit(args, result.to_json_obj(), stats, "\n".join(lines))


def _cmd_fit_scan(args) -> int:
    from .fitter import fit_nodes, threshold_scan

    def scan(engine):
        return threshold_scan(fit_nodes(args.r, engine=engine), args.r, engine=engine)

    threshold, stats = _count(args, scan)
    return _emit(args, threshold, stats, f"threshold: d = {threshold}")


def _cmd_series_eval(args) -> int:
    from .series import assemble_from_table, format_rational

    table = _load_a_table(args.a_table)
    parts = _parse_parts(args.parts)
    stats = {}
    value = assemble_from_table(table, [f.strip() for f in args.chern.split(",")], parts, stats)
    text = format_rational(value)
    return _emit(args, value if isinstance(value, int) else text, stats, text)


def _cmd_series_assemble(args) -> int:
    from .catalog import codim_weights
    from .series import assemble_series

    table = _load_a_table(args.a_table)
    stats = {}
    series = assemble_series(table, codim_weights(table), args.cap, stats)
    if args.json:
        return _emit(args, series.to_json_obj(), stats)
    keys = sorted((k for k in series.coeffs if k), key=lambda k: (len(k), k))
    text = "\n".join(f"{','.join(k)}: {series.coeffs[k].to_string()}" for k in keys)
    return _emit(args, None, stats, text)


# ---------------------------------------------------------------------------
# parser wiring


def _add_json(p):
    p.add_argument("--json", action="store_true", help="machine-readable output")


def _add_cache(p):
    p.add_argument("--cache", default=None, metavar="PATH",
                   help="load/save the memo table at PATH")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvelab",
        description="Plane-curve singularity invariants, nodal curve counts, "
        "and universal count polynomials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    germ = sub.add_parser("germ", help="local singularity analysis")
    gsub = germ.add_subparsers(dest="subcommand", required=True)
    ga = gsub.add_parser("analyze", help="invariants of one germ")
    # read a germ such as "-y^2+x^3" as a positional, as argparse reads "-3"
    ga._negative_number_matcher = re.compile(r"-[^-]")
    ga.add_argument("expr", help='germ expression, e.g. "y^2-x^3"')
    ga.add_argument("--k", type=int, default=None,
                    help="jet order for the length/orbit block (default: upper determinacy bound)")
    _add_json(ga)
    ga.set_defaults(func=_cmd_germ_analyze)

    gc = gsub.add_parser("catalog", help="built-in singularity type table")
    gc.add_argument("label", nargs="?", default=None,
                    help="show one entry (label or alias)")
    gc.add_argument("--parts", default=None,
                    help="comma-separated labels; print collection totals")
    _add_json(gc)
    gc.set_defaults(func=_cmd_germ_catalog)

    severi = sub.add_parser("severi", help="nodal curve counts")
    ssub = severi.add_subparsers(dest="subcommand", required=True)
    for surface in SURFACES.values():
        sp = ssub.add_parser(surface.name.lower(),
                             help=f"{surface.word} count by {surface.kind} and node number")
        for flag in surface.flags:
            sp.add_argument(f"-{flag}", type=int, required=True)
        sp.add_argument("--nodes", type=int, required=True)
        _add_cache(sp)
        # the default is severi.DEFAULT_DEGREE_CEILING, which _count applies
        sp.add_argument("--ceiling", type=int, default=None, help="degree ceiling (default 12)")
        _add_json(sp)
        sp.set_defaults(func=_cmd_severi, surface=surface)

    so = ssub.add_parser("oracle", help="independent cross-checks of the counts")
    so.add_argument("--method", choices=["floor", "pencil"], required=True)
    so.add_argument("--surface", choices=[name.lower() for name in SURFACES],
                    default=PLANE.name.lower())
    for flag in _CLASS_FLAGS:
        so.add_argument(f"-{flag}", type=int, default=None)
    so.add_argument("--nodes", type=int, default=None)
    so.add_argument("--seed", type=int, default=None)
    _add_json(so)
    so.set_defaults(func=_cmd_severi_oracle)

    fit = sub.add_parser("fit", help="universal count polynomials from the data")
    fsub = fit.add_subparsers(dest="subcommand", required=True)
    fn = fsub.add_parser("nodes", help="fit per-order linear log-coefficients")
    fn.add_argument("--max-r", type=int, default=4, dest="max_r")
    fn.add_argument("--a-table-out", default=None, metavar="PATH",
                    dest="a_table_out",
                    help="write the fitted log-coefficient table as JSON")
    _add_cache(fn)
    _add_json(fn)
    fn.set_defaults(func=_cmd_fit_nodes)

    fs = fsub.add_parser("scan", help="first degree where the polynomial counts")
    fs.add_argument("-r", type=int, required=True)
    _add_cache(fs)
    _add_json(fs)
    fs.set_defaults(func=_cmd_fit_scan)

    series = sub.add_parser("series", help="generating-series assembly and evaluation")
    esub = series.add_subparsers(dest="subcommand", required=True)
    ev = esub.add_parser("eval", help="predicted count for a singularity multiset")
    ev._negative_number_matcher = re.compile(r"-\d")
    ev.add_argument("--a-table", required=True, dest="a_table", metavar="PATH")
    ev.add_argument("--parts", required=True, help="e.g. A1,A1")
    ev.add_argument("--chern", required=True, help="e.g. 16,-12,9,3")
    _add_json(ev)
    ev.set_defaults(func=_cmd_series_eval)

    asm = esub.add_parser("assemble", help="expand the generating series of a table")
    asm.add_argument("--a-table", required=True, dest="a_table", metavar="PATH")
    asm.add_argument("--cap", type=int, default=None,
                     help="truncation weight (default: heaviest table key)")
    _add_json(asm)
    asm.set_defaults(func=_cmd_series_assemble)

    return parser


def entry(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except CurvelabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except BrokenPipeError:
        # the reader of stdout has gone: point stdout at os.devnull, so
        # that the flush at exit cannot fail again, and exit quietly
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
