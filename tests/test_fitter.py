import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations
from math import factorial

import pytest

from curvelab.errors import CeilingError, InconsistencyError, InputError
from curvelab.fitter import (
    MAX_ORDER,
    FitResult,
    _solve_linear4,
    chern_p2,
    chern_quadric,
    fit_nodes,
    fit_rows,
    threshold_scan,
)
from curvelab.series import ChernPolynomial, assemble_from_table, assemble_series
from curvelab.severi import DEFAULT_DEGREE_CEILING, MemoStore, SeveriEngine
from curvelab.surfaces import PLANE, QUADRIC

A1_LINE = ChernPolynomial.linear(3, 2, 0, 1)


@pytest.fixture(scope="module")
def engine():
    return SeveriEngine()


@pytest.fixture(scope="module")
def fit4(engine):
    return fit_nodes(4, engine=engine)


def test_chern_vectors():
    assert chern_p2(4) == (16, -12, 9, 3)
    assert chern_quadric(2, 2) == (8, -8, 8, 4)


def test_default_fit_is_exactly_consistent(fit4):
    assert fit4.residual_consistent
    assert fit4.a[1] == A1_LINE
    for r in range(1, 5):
        assert fit4.a[r].is_linear()


def test_universal_polynomial_degrees(fit4):
    assert fit4.T[0] == ChernPolynomial.constant(1)
    for r in range(5):
        assert fit4.T[r].total_degree() == r
        assert fit4.T[r].coefficient((r, 0, 0, 0)) == Fraction(3**r, factorial(r))


def test_json_object_keys(fit4):
    obj = fit4.to_json_obj()
    assert list(obj) == ["r_max", "residual_consistent", "a", "T"]
    assert list(obj["a"]) == ["1", "2", "3", "4"]
    assert list(obj["T"]) == ["0", "1", "2", "3", "4"]


def test_order_zero_fit():
    result = fit_nodes(0)
    assert result.a == {}
    assert result.T == {0: ChernPolynomial.constant(1)}
    assert result.residual_consistent


def test_evaluate_counts(fit4):
    assert fit4.T[1].evaluate(chern_p2(4)) == 27
    assert fit4.T[1].evaluate(chern_quadric(2, 2)) == 12
    for r in range(1, 5):
        assert fit4.T[r].evaluate((0, 0, 0, 0)) == 0
    assert 5 not in fit4.T


def test_threshold_scan(fit4, engine):
    # degree 1 admits no node, so the scan can start at 2 at the earliest
    assert threshold_scan(fit4, 1, engine=engine) == 2
    assert threshold_scan(fit4, 2, engine=engine) == 3
    assert threshold_scan(fit4, 3, engine=engine) <= 4
    assert threshold_scan(fit4, 4, engine=engine) <= 5
    with pytest.raises(InputError):
        threshold_scan(fit4, 5, engine=engine)


def test_closed_loop_against_recursion(fit4, engine):
    for r in range(1, 5):
        start = threshold_scan(fit4, r, engine=engine)
        for d in range(start, 13):
            assert fit4.T[r].evaluate(chern_p2(d)) == engine.severi_p2(d, r)
        for a in range(r + 1, 6):
            for b in range(a, 6):
                assert fit4.T[r].evaluate(chern_quadric(a, b)) == engine.severi_quadric(a, b, r)


def _rank(vectors) -> int:
    """The rank over Fraction of Chern vectors, by Gaussian elimination."""
    rows = [[Fraction(v) for v in vec] for vec in vectors]
    rank = 0
    for col in range(4):
        nonzero = [i for i in range(rank, len(rows)) if rows[i][col] != 0]
        if not nonzero:
            continue
        rows[rank], rows[nonzero[0]] = rows[nonzero[0]], rows[rank]
        pivot = rows[rank]
        for row in rows[rank + 1:]:
            factor = row[col] / pivot[col]
            row[:] = [v - factor * w for v, w in zip(row, pivot)]
        rank += 1
    return rank


def test_every_order_of_every_fit_has_rank_4_among_its_voting_rows():
    # the rows are fixed, so no caller can make the fit underdetermined
    for r_max in range(MAX_ORDER + 1):
        for r in range(1, r_max + 1):
            voting = [(surface, klass) for surface, klass in fit_rows(r_max)
                      if r <= surface.vote_order(klass)]
            assert any(surface is QUADRIC for surface, _ in voting), (r_max, r)
            assert _rank(surface.chern(klass) for surface, klass in voting) == 4, (r_max, r)


def test_a_rank_deficient_system_is_an_inconsistency():
    # plane rows alone cannot separate the two constant Chern directions
    equations = [(PLANE.chern(d), d) for d in range(3, 10)]
    assert _rank(vec for vec, _ in equations) == 3
    with pytest.raises(InconsistencyError, match="span only 3 of the 4 Chern directions"):
        _solve_linear4(equations)


# sha256 of each fit_nodes(r).to_json_obj() as sorted compact JSON, r = 0..8
FIT_DIGESTS = [
    "21d9dbc2566d76ec6e9ad69196a986c51292312466c958eb70851e7e2ab6ee75",
    "ea08616a2ef5e274fabd73df421ba1708175efa008b457e814907ae0cc4e927c",
    "31d3f197cf10d76d54ed989b1fb3237f02ca59fddc3f1b875b4327a70a8353cb",
    "357533d261e603eaf5d95cb10e630e21a778f88ef7ac7398bd6a2453dee11888",
    "6b4714a326c8e59b4d531a0392150c58147dfd0d0e4204be479e143235bafe1b",
    "054a2276a4d0a117997a32915e6b5f01dabf83fd8f96baceacb217d4765e7a57",
    "1a70b20d59f82ea4b5819c1da9337d7c68d4d6c29f12b2c513868cc7f8e5c80c",
    "31ae3d1aecfec1e2253ac7c7a6d2bb1169e0db325b8d35c1cf0d67edee26c6d7",
    "ff103b9872d8eec87d821a4f1378477e615fa96092f27b16c4517f500091429c",
]


def test_fit_outputs_are_pinned():
    # every a_r and T_r up to MAX_ORDER, and the states the rows cost; a
    # change of rows for r_max > 8 must leave these as they are
    engine = SeveriEngine()
    for r, want in enumerate(FIT_DIGESTS):
        obj = fit_nodes(r, engine=engine).to_json_obj()
        text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == want, r
    assert engine.store.stats()["computed"] == 55923
    engine = SeveriEngine()
    fit_nodes(4, engine=engine)
    assert engine.store.stats()["computed"] == 3224


def test_parameter_validation():
    with pytest.raises(InputError):
        fit_nodes(-1)
    with pytest.raises(InputError):
        fit_nodes("2")
    with pytest.raises(InputError, match="fit order must be a nonnegative integer, got True"):
        fit_nodes(True)
    with pytest.raises(CeilingError):
        fit_nodes(9)


def test_threshold_scan_validation(fit4, engine):
    for bad in [True, 0, 9, "2"]:
        with pytest.raises(InputError, match="threshold scan needs an order r in 1..8"):
            threshold_scan(fit4, bad, engine=engine)


def test_every_default_row_and_scanned_degree_lies_under_the_engine_ceiling():
    # the fit commands count at DEFAULT_DEGREE_CEILING and take no
    # --ceiling, so a MAX_ORDER whose rows or scan reach past it must
    # derive the ceiling from r
    for r in range(MAX_ORDER + 1):
        size = max(surface.size(klass) for surface, klass in fit_rows(r))
        assert size <= DEFAULT_DEGREE_CEILING, r
    # an engine that echoes the fitted value makes the scan visit every
    # degree it admits, down to the least
    poly = ChernPolynomial.linear(1, 2, 3, 4)

    class Echo:
        def severi_p2(self, d, r):
            scanned.append(d)
            return poly.evaluate(chern_p2(d))

    for r in range(1, MAX_ORDER + 1):
        scanned = []
        threshold = threshold_scan(FitResult(r, {}, {r: poly}, True), r, engine=Echo())
        assert scanned and threshold == min(scanned), r
        assert max(PLANE.size(d) for d in scanned) <= DEFAULT_DEGREE_CEILING, r


def test_corrupted_counts_break_consistency(tmp_path, write_cache):
    # corrupt a middle degree in a cache file whose digest matches the
    # edit: the true counts below it and the shifted ones above it cannot
    # lie on one line
    path = tmp_path / "poisoned.memo"
    write_cache(path, ["P2 8 1 - 8 999"])
    store = MemoStore()
    store.load(path)
    poisoned = SeveriEngine(store)
    result = fit_nodes(1, engine=poisoned)
    assert not result.residual_consistent


# sha256 of fit_nodes(r).to_json_obj() as sorted compact JSON on a cache
# poisoned with one line, for the fits it makes inconsistent: which
# full-rank subsystem the solve reads then shows in a
POISONED_FIT_DIGESTS = [
    ("P2 8 1 - 8 999", 1, "9ac1e47d608040465101c63df231a5ceaaa5bd6feb9dc1f87dfb4d5bb9b2e7bf"),
    ("P2 8 1 - 8 999", 4, "e9b9b5b77fde524ab959b4264c4ca5fd0ada4587a3b1971775cfadde046c1213"),
    ("P2 9 2 - 9 2000", 4, "c92d5b816b78d45bc4a415d69d7ddea4c6c5ba5448b0f5fa41575c1a6d9dbeb3"),
    ("P1XP1 4,4 2 - 4 100", 4,
     "c129c866526c9abb11347b9a1b622ea432bc7fcbad60848c139b248bfe74938a"),
    ("P2 10 3 - 10 5", 8, "fdd720096ce1f8155f34e0cf6f1a7178ba9b468f4be17a918642d8c4976a1be3"),
]


def test_inconsistent_fits_are_pinned(tmp_path, write_cache):
    path = tmp_path / "poisoned.memo"
    for line, r, want in POISONED_FIT_DIGESTS:
        write_cache(path, [line])
        store = MemoStore()
        store.load(path)
        obj = fit_nodes(r, engine=SeveriEngine(store)).to_json_obj()
        assert obj["residual_consistent"] is False, (line, r)
        text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == want, (line, r)


def _det(matrix) -> Fraction:
    """Leibniz determinant of a square matrix of rationals."""
    n = len(matrix)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i, j in combinations(range(n), 2))
        term = Fraction((-1) ** inversions)
        for i, p in enumerate(perm):
            term *= matrix[i][p]
        total += term
    return total


def _minor_rank(vectors) -> int:
    """The largest k with a nonzero k x k minor."""
    for k in range(min(len(vectors), 4), 0, -1):
        for rows in combinations(vectors, k):
            for cols in combinations(range(4), k):
                if _det([[row[c] for c in cols] for row in rows]):
                    return k
    return 0


def _cramer(equations) -> tuple:
    """The solution of the first 4 equations with a nonzero determinant,
    by Cramer's rule."""
    for chosen in combinations(equations, 4):
        matrix = [list(vec) for vec, _ in chosen]
        det = _det(matrix)
        if det:
            return tuple(
                _det([row[:j] + [rhs] + row[j + 1:] for row, (_, rhs) in zip(matrix, chosen)])
                / det for j in range(4))
    raise AssertionError("no full-rank 4-row subsystem")


def test_solve_linear4_agrees_with_cramers_rule_on_random_systems():
    rng = random.Random(40)

    def entry():
        return rng.choice([0, 0, *range(-4, 5)])

    seen = {"square": 0, "overdetermined": 0, 0: 0, 1: 0, 2: 0, 3: 0}
    for draw in range(600):
        kind = draw % 3
        if kind < 2:
            # a full-rank draw, unless its rows happen to be dependent
            x = [Fraction(entry(), rng.randint(1, 5)) for _ in range(4)]
            vecs = [tuple(entry() for _ in range(4)) for _ in range(4 + kind * rng.randint(1, 3))]
            equations = [(vec, sum(v * xi for v, xi in zip(vec, x))) for vec in vecs]
        else:
            # rows in the span of 1 to 3 vectors, with any right-hand side:
            # never of rank 4
            basis = [[entry() for _ in range(4)] for _ in range(rng.randint(1, 3))]
            weights = [[rng.randint(-3, 3) for _ in basis] for _ in range(rng.randint(1, 6))]
            vecs = [tuple(sum(w * b[c] for w, b in zip(ws, basis)) for c in range(4))
                    for ws in weights]
            equations = [(vec, Fraction(entry(), rng.randint(1, 5))) for vec in vecs]
        rank = _minor_rank(vecs)
        if rank < 4:
            with pytest.raises(InconsistencyError,
                               match=f"^fit rows span only {rank} of the 4 Chern directions$"):
                _solve_linear4(equations)
            seen[rank] += 1
        else:
            solution = _solve_linear4(equations)
            assert solution == _cramer(equations) == tuple(x), equations
            assert all(type(v) is Fraction for v in solution)
            seen["square" if len(vecs) == 4 else "overdetermined"] += 1
    assert min(seen[key] for key in ("square", "overdetermined", 1, 2, 3)) >= 30, seen


def test_a_table_scaling(fit4):
    table = fit4.to_a_table()
    assert sorted(table) == [("A1",) * r for r in range(1, 5)]
    assert table[("A1",)] == fit4.a[1]
    assert table[("A1", "A1")] == fit4.a[2].scale(2)
    assert table[("A1",) * 4] == fit4.a[4].scale(24)


def test_assemble_from_table_round_trip(fit4, engine):
    table = fit4.to_a_table()
    for r in range(1, 5):
        want = engine.severi_p2(8, r)
        assert assemble_from_table(table, chern_p2(8), ("A1",) * r) == want
    assert assemble_from_table(
        table, chern_quadric(4, 4), ("A1", "A1")
    ) == engine.severi_quadric(4, 4, 2)


def test_assemble_from_table_singleton():
    poly = ChernPolynomial.linear(1, 2, 3, 4)
    assert assemble_from_table({("A2",): poly}, (1, 1, 1, 1), ("A2",)) == 10
    assert assemble_from_table({"A2": poly}, (1, 1, 1, 1), ["A2"]) == 10


def test_assemble_from_table_missing_entries(fit4):
    with pytest.raises(InputError) as err:
        assemble_from_table({("A1",): fit4.a[1]}, chern_p2(4), ("A1", "A1"))
    assert str(err.value) == "missing entry A1,A1"
    with pytest.raises(InputError) as err:
        assemble_from_table({("A1", "A1"): fit4.a[2]}, chern_p2(4), ("A1", "A1"))
    assert str(err.value) == "missing entry A1"
    with pytest.raises(InputError) as err:
        assemble_from_table(
            {("A1",): fit4.a[1], ("A2",): fit4.a[1]}, chern_p2(4), ("A1", "A2")
        )
    assert str(err.value) == "missing entry A1,A2"


def test_assemble_from_table_unknown_label():
    poly = ChernPolynomial.linear(1, 0, 0, 0)
    with pytest.raises(InputError):
        assemble_from_table({("Z9",): poly}, (1, 1, 1, 1), ("Z9",))


def test_assemble_from_table_rejects_nonlinear(fit4):
    bad = fit4.a[1] * fit4.a[1]
    with pytest.raises(InputError):
        assemble_from_table({("A1",): bad}, chern_p2(4), ("A1",))


def test_assemble_from_table_checks_in_order(fit4):
    node, cusp = fit4.a[1], ChernPolynomial.linear(0, 1, 0, 0)
    bad = node * node
    cases = [
        # missing sub-multiset, then unknown label, then non-linear entry,
        # each checked over the whole table, not only the sub-multisets
        ({("A1",): bad, ("Z9",): node}, ("A1", "A2"), "missing entry A2"),
        ({("A1",): node, ("A2",): bad, ("Z9",): node}, ("A1",), "unknown singularity label 'Z9'"),
        ({("A1",): node, ("A2",): bad}, ("A1",), "table entry for A2 must be linear"),
        ({("A1",): node, (): cusp}, ("A1",), "exp needs a series with zero constant term"),
    ]
    for table, parts, message in cases:
        with pytest.raises(InputError) as err:
            assemble_from_table(table, chern_p2(4), parts)
        assert str(err.value).startswith(message)


def test_assemble_from_table_rejects_a_repeated_multiset():
    # (A1,A2) and (A2,A1) name one multiset; keeping either value silently
    # would answer for a table the caller did not write
    x, y = ChernPolynomial.linear(1, 0, 0, 0), ChernPolynomial.linear(0, 1, 0, 0)
    table = {("A1",): x, ("A2",): y, ("A1", "A2"): x.scale(5), ("A2", "A1"): x.scale(7)}
    with pytest.raises(InputError) as err:
        assemble_from_table(table, (1, 1, 1, 1), ("A1", "A2"))
    assert "multiset A1,A2 twice" in str(err.value)


def test_assemble_from_table_equals_full_assembly():
    # evaluating before exponentiating gives the full series' coefficient
    # at the Chern vector, for every multiset of weight <= 8
    rng = random.Random(8)
    weights = {"A1": 1, "A2": 2, "A3": 3, "D4": 4}
    keys = [
        key
        for size in range(1, 9)
        for key in combinations_with_replacement(sorted(weights), size)
        if sum(weights[label] for label in key) <= 8
    ]
    table = {
        key: ChernPolynomial.linear(
            *(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4))
        )
        for key in keys
    }
    full = assemble_series(table, weights, 8)
    chern = tuple(rng.randint(-40, 40) for _ in range(4))
    stats = {}
    for key in keys:
        got = assemble_from_table(table, chern, key, stats)
        assert got == full.coefficient(key).evaluate(chern)
    assert len(keys) == 52
    # the last key is A1 x 8: its sub-multisets A1 x k for k = 1..8, the keys
    # A1 x 0..8, and n pairs at weight n = 1..8
    assert keys[-1] == ("A1",) * 8
    assert stats == {"entries": 8, "keys": 9, "products": 36}
