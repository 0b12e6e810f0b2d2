"""A seeded fuzz of the Python entry points that take a surface class,
of the germ lab's entry points that take a jet order, on a fixed
isolated germ, and of the series layer's entry points and polynomial
constructors.

Every draw must return its result (an int, a `FitResult` from `fit_nodes`,
an `InvariantReport` from `germ_report`, a `JetSubspace` from
`ideal_in_jets`, a Chern vector, a series, a polynomial and so on, as
RESULT_TYPES and SERIES_ENTRY_POINTS say) or raise a `CurvelabError`;
anything else is a defect.
The arguments come from a small hostile vocabulary, and its ints are
small, so that a draw the entry point accepts stays cheap: plane degrees
up to 3, bidegrees up to (2,2), and fits up to order 2 on the fit's own
rows, counted by one shared engine.  A germ draw sets only the order
(`k`, or the truncation order of `ideal_in_jets`); the huge one, 10**30,
is answered at once as a k, since no build's order depends on k, and
refused before any build as a truncation order.

The series draws take their a-tables, weights, caps, Chern vectors,
label multisets and polynomial terms from a vocabulary of their own
(bare labels, multisets listed twice, strings, bools, floats that are
not finite, zero denominators), or now and then from the one above; the
series they read are built here, not drawn.  Every public callable of
the package is an entry point of one of these fuzzes or is exempt, with
its reason, in EXEMPT.
"""

import random
from fractions import Fraction

import pytest

import curvelab
from curvelab import (
    ChernPolynomial,
    CollectionStats,
    CurvelabError,
    FitResult,
    GermPoly,
    InvariantReport,
    JetSubspace,
    SeveriEngine,
    SingularityType,
    TruncatedSeries,
    assemble_from_table,
    assemble_series,
    chern_p2,
    chern_quadric,
    collection_stats,
    dim_s0,
    exp_series,
    extract_universal,
    fit_nodes,
    floor_diagram_oracle,
    germ_report,
    ideal_in_jets,
    log_series,
    lookup,
    orbit_tangent_dim,
    parse_germ,
    pencil_discriminant_oracle,
    plane_node_cap,
    quadric_node_cap,
    scheme_length,
    severi_p2,
    severi_quadric,
)
from curvelab.series import MAX_CAP

# ints are drawn most often, so that some draws are valid; inside a list
# or tuple they stop at 2, so that a bidegree is at most (2,2)
OTHERS = (True, False, 0.5, 2.0, "", "2", "p2", None)
SURFACE_NAMES = ("p2", "P2", "p1xp1", "P1XP1", "P3")
CUSP = parse_germ("y^2 - x^3")

ENTRY_POINTS = {
    "severi_p2": lambda engine, *args, **kwargs: severi_p2(*args, engine=engine, **kwargs),
    "severi_quadric": lambda engine, *args, **kwargs: severi_quadric(
        *args, engine=engine, **kwargs),
    "SeveriEngine": lambda engine, *args, **kwargs: SeveriEngine(None, *args, **kwargs),
    "chern_p2": lambda engine, *args, **kwargs: chern_p2(*args, **kwargs),
    "chern_quadric": lambda engine, *args, **kwargs: chern_quadric(*args, **kwargs),
    "plane_node_cap": lambda engine, *args, **kwargs: plane_node_cap(*args, **kwargs),
    "quadric_node_cap": lambda engine, *args, **kwargs: quadric_node_cap(*args, **kwargs),
    "fit_nodes": lambda engine, *args, **kwargs: fit_nodes(*args, engine=engine, **kwargs),
    "pencil_discriminant_oracle": lambda engine, *args, **kwargs: pencil_discriminant_oracle(
        *args, **kwargs),
    "floor_diagram_oracle": lambda engine, *args, **kwargs: floor_diagram_oracle(*args, **kwargs),
    "germ_report": lambda engine, *args, **kwargs: germ_report(CUSP, *args, **kwargs),
    "ideal_in_jets": lambda engine, *args, **kwargs: ideal_in_jets([CUSP], *args, **kwargs),
    "scheme_length": lambda engine, *args, **kwargs: scheme_length(CUSP, *args, **kwargs),
    "orbit_tangent_dim": lambda engine, *args, **kwargs: orbit_tangent_dim(CUSP, *args, **kwargs),
    "dim_s0": lambda engine, *args, **kwargs: dim_s0(CUSP, *args, **kwargs),
}
RESULT_TYPES = {"fit_nodes": FitResult, "germ_report": InvariantReport,
                "ideal_in_jets": JetSubspace, "SeveriEngine": SeveriEngine,
                "chern_p2": tuple, "chern_quadric": tuple}


def _value(rng, top=3, depth=0):
    """An int in -1..top or 10**30, another scalar, or a list or tuple of
    0 to 3 values, nested at most twice."""
    r = rng.random()
    if depth < 2 and r < 0.3:
        container = rng.choice((list, tuple))
        return container(_value(rng, 2, depth + 1) for _ in range(rng.choice((0, 1, 2, 2, 3))))
    if r < 0.8:
        return rng.randint(-1, top) if rng.random() < 0.9 else 10**30
    return rng.choice(OTHERS)


def draws(seed: int, rounds: int = 150) -> list:
    """(entry point, args, kwargs) of `rounds` draws of each entry point."""
    rng = random.Random(seed)
    out = []
    for _ in range(rounds):
        out.append(("severi_p2", (_value(rng), _value(rng)), {}))
        out.append(("severi_quadric", (_value(rng), _value(rng), _value(rng)), {}))
        out.append(("fit_nodes", (_value(rng, 2),), {}))
        surface = rng.choice(SURFACE_NAMES) if rng.random() < 0.8 else _value(rng)
        out.append(("pencil_discriminant_oracle", (surface, _value(rng)), {"seed": _value(rng)}))
        out.append(("floor_diagram_oracle", (_value(rng), _value(rng)), {}))
        out.append(("germ_report", (), {"k": _value(rng)}))
        for name in ("ideal_in_jets", "scheme_length", "orbit_tangent_dim", "dim_s0"):
            out.append((name, (_value(rng),), {}))
        out.append(("SeveriEngine", (_value(rng),), {}))
        out.append(("chern_p2", (_value(rng),), {}))
        out.append(("chern_quadric", (_value(rng), _value(rng)), {}))
        out.append(("plane_node_cap", (_value(rng),), {}))
        out.append(("quadric_node_cap", (_value(rng), _value(rng)), {}))
    return out


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_surface_entry_points_return_a_count_or_raise_a_curvelab_error(seed):
    engine = SeveriEngine()
    for name, args, kwargs in draws(seed):
        try:
            result = ENTRY_POINTS[name](engine, *args, **kwargs)
        except CurvelabError:
            continue
        except Exception as exc:
            pytest.fail(f"{name}{args!r} {kwargs!r} raised {exc!r}")
        want = RESULT_TYPES.get(name, int)
        assert isinstance(result, want) and not isinstance(result, bool), (name, args, kwargs)


A1 = ChernPolynomial.linear(3, 2, 0, 1)
A2 = ChernPolynomial.linear(0, 1, 5, -2)
WEIGHTS = {"A1": 1, "A2": 2}
SERIES_VOCABULARY = {
    "key": (("A1",), ("A2",), ("A1", "A2"), ("A2", "A1"), "A1", (), ("Z9",), 5, None,
            (1, "A"), ("A1", 1), (("A1",),)),
    "value": (A1, A2, A1 * A1, ChernPolynomial.constant(1), ChernPolynomial.zero(),
              {(1, 0, 0, 0): 1}, "x", 5, None),
    "weights": (WEIGHTS, {"A1": 1}, {"A1": True}, {"A1": 0}, {}, "A1", None, 5,
                [("A1", 1)]),
    "cap": (None, 0, 1, 2, 3, -1, True, "2", MAX_CAP + 1),
    "chern": ((16, -12, 9, 3), (1, 1, 1, 1), ["1/2", " 3 ", 0.5, Fraction(1, 3)], "1234",
              "16,-12,9,3", b"1234", (True, 2, 3, 4), (1, 2, "x", 4), ("1/0", 0, 0, 0),
              (float("nan"), 0, 0, 0), (float("inf"), 0, 0, 0), (1, 2, 3), (1, 2, 3, 4, 5),
              None, 5),
    "label": ("A1", "node", "Z9", "", "A1,A1", ("A1",), 5, None),
    "parts": (("A1",), ["A1", "A2"], ("A1", "A1"), ("A2", "A1"), (), "A1", "", ("Z9",),
              ("A1", 1), [["A1"]], 5, None),
    "terms": ({(1, 0, 0, 0): 1}, {(1, 0): 2}, {(0, 0, 0, 1): 0.5}, {(1, 0, 0, 0): "x"},
              {(1, 0): "1/0"}, {(1, 0, 0, 0): None}, {(1, 0): float("inf")}, {(1, 0, 0): 1},
              {"ab": 1}, {5: 1}, [((0, 0, 0, 1), 2)], 5, "x", "ab", None, 0),
    "json": (A1.to_json_obj(), [[[1, 0, 0, 0], "x"]], [[[1, 0, 0, 0], None]], [["x", "1"]],
             [[[1, 0, 0, 0], "1"], [[1, 0, 0, 0], "2"]], [[1]], "ab", [], 5, None),
}


# values that each pass their own check, drawn about half of the time, so
# that some draws are answered
SERIES_VALID = {
    "table": ({("A1",): A1, ("A1", "A1"): A1, ("A2",): A2}, {"A1": A1, ("A2", "A1"): A2}),
    "weights": (WEIGHTS,),
    "cap": (None, 2, 3),
    "chern": ((16, -12, 9, 3), ["1/2", " 3 ", 0.5, Fraction(1, 3)]),
    "parts": (("A1",), ("A1", "A1"), ["A2"]),
}


def _series(rng, kind):
    """A value for an argument of `kind`, now and then from _value's vocabulary."""
    r = rng.random()
    if r < 0.1:
        return _value(rng)
    if r < 0.55 and kind in SERIES_VALID:
        return rng.choice(SERIES_VALID[kind])
    if kind == "table":
        return {rng.choice(SERIES_VOCABULARY["key"]): rng.choice(SERIES_VOCABULARY["value"])
                for _ in range(rng.randint(0, 3))}
    return rng.choice(SERIES_VOCABULARY[kind])


def built_series() -> tuple:
    """Series that the series draws read: an exp, one with constant term
    1, one with a nonzero constant term other than 1, and an empty one."""
    one = ChernPolynomial.constant(1)
    return (assemble_series({("A1",): A1, ("A2",): A2}, WEIGHTS, 3),
            TruncatedSeries(WEIGHTS, 2, {(): one, ("A1",): A1}),
            TruncatedSeries(WEIGHTS, 2, {(): one.scale(2), ("A2",): A2}),
            TruncatedSeries(WEIGHTS, 2))


SERIES_ENTRY_POINTS = {
    "assemble_series": (assemble_series, ("table", "weights", "cap"), TruncatedSeries),
    "assemble_from_table": (assemble_from_table, ("table", "chern", "parts"), (int, Fraction)),
    "extract_universal": (extract_universal, ("series", "parts"), ChernPolynomial),
    "exp_series": (exp_series, ("series",), TruncatedSeries),
    "log_series": (log_series, ("series",), TruncatedSeries),
    "collection_stats": (collection_stats, ("parts",), CollectionStats),
    "lookup": (lookup, ("label",), SingularityType),
    "TruncatedSeries": (TruncatedSeries, ("weights", "cap", "table"), TruncatedSeries),
    "ChernPolynomial": (ChernPolynomial, ("terms",), ChernPolynomial),
    "ChernPolynomial.evaluate": (A1.evaluate, ("chern",), Fraction),
    "ChernPolynomial.from_json_obj": (ChernPolynomial.from_json_obj, ("json",),
                                      ChernPolynomial),
    "GermPoly": (GermPoly, ("terms",), GermPoly),
}


@pytest.mark.parametrize("seed", [0, 1])
def test_series_entry_points_return_a_result_or_raise_a_curvelab_error(seed):
    rng = random.Random(seed)
    series = built_series()
    for _ in range(60):
        for name, (call, kinds, want) in SERIES_ENTRY_POINTS.items():
            args = tuple(rng.choice(series) if kind == "series" else _series(rng, kind)
                         for kind in kinds)
            try:
                result = call(*args)
            except CurvelabError:
                continue
            except Exception as exc:
                pytest.fail(f"{name}{args!r} raised {exc!r}")
            assert isinstance(result, want) and not isinstance(result, bool), (name, args)


# (name, why no fuzz draws it) for each public callable outside the fuzzes
EXEMPT = (
    ("AdmissibilityError", "an exception class"),
    ("CeilingError", "an exception class"),
    ("CurvelabError", "an exception class"),
    ("InconsistencyError", "an exception class"),
    ("InputError", "an exception class"),
    ("CollectionStats", "a result record, which collection_stats builds"),
    ("FitResult", "a result record, which fit_nodes builds"),
    ("InvariantReport", "a result record, which germ_report builds"),
    ("SingularityType", "a catalog record, which lookup returns"),
    ("JetSubspace", "takes no argument; ideal_in_jets fills one"),
    ("MemoStore", "takes no argument; its cache files are fuzzed through the CLI's --cache"),
    ("load_catalog", "takes no argument"),
    ("parse_germ", "fuzzed through the CLI's germ expressions"),
    ("determinacy_window", "takes only a germ, fuzzed through the CLI's germ analyze"),
    ("milnor_number", "takes only a germ, fuzzed through the CLI's germ analyze"),
    ("tjurina_number", "takes only a germ, fuzzed through the CLI's germ analyze"),
    ("threshold_scan", "takes a FitResult, which only fit_nodes builds"),
)


def test_every_public_callable_is_fuzzed_or_exempt():
    public = {name for name in curvelab.__all__ if callable(getattr(curvelab, name))}
    exempt = dict(EXEMPT)
    fuzzed = set(ENTRY_POINTS) | {name.split(".")[0] for name in SERIES_ENTRY_POINTS}
    assert len(exempt) == len(EXEMPT) and all(exempt.values())
    assert fuzzed <= public and not fuzzed & set(exempt)
    assert public - fuzzed == set(exempt)
