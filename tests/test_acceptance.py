"""Acceptance suite.

One test per acceptance criterion; each prints a single
"ACCEPTANCE n: PASS/FAIL" line directly to the terminal and enforces
the criterion's time bound.
"""

import random
import time
from fractions import Fraction
from math import factorial

from curvelab.catalog import load_catalog, lookup
from curvelab.errors import CeilingError
from curvelab.fitter import (
    chern_p2,
    chern_quadric,
    fit_nodes,
    fit_rows,
    threshold_scan,
)
from curvelab.germs import GermPoly, parse_germ
from curvelab.jets import (
    determinacy_window,
    dim_s0,
    milnor_number,
    scheme_length,
    tjurina_number,
)
from curvelab.oracles import floor_diagram_oracle, pencil_discriminant_oracle
from curvelab.series import ChernPolynomial, TruncatedSeries, exp_series, log_series
from curvelab.severi import MemoStore, SeveriEngine
from curvelab.surfaces import QUADRIC

from reference import linear_substitute, one_plus

_ENGINE = SeveriEngine()
_FIT_CACHE = {}


def _shared_fit():
    if "fit4" not in _FIT_CACHE:
        _FIT_CACHE["fit4"] = fit_nodes(4, engine=_ENGINE)
    return _FIT_CACHE["fit4"]


def _run(capsys, number, bound, description, body):
    start = time.monotonic()
    try:
        body()
        elapsed = time.monotonic() - start
        assert elapsed < bound, f"took {elapsed:.2f}s, bound {bound}s"
    except BaseException:
        with capsys.disabled():
            print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    with capsys.disabled():
        print(f"ACCEPTANCE {number}: PASS - {description} [{elapsed:.2f}s]")


def test_acceptance_1_example_table(capsys):
    def body():
        node = lookup("node")
        assert node.tau == 1 and node.N == 5 and node.codim == 1
        lo, hi = determinacy_window(node.normal_form)
        assert lo <= 2 <= hi
        cusp = lookup("cusp")
        assert cusp.tau == 2 and cusp.N == 7 and cusp.codim == 2
        lo, hi = determinacy_window(cusp.normal_form)
        assert lo <= 3 <= hi
        for n in range(3, 7):
            entry = lookup(f"ord{n}-topological")
            assert entry.tau == (n - 1) ** 2
            assert entry.codim == n * (n + 1) // 2 - 2
            f = parse_germ(f"x^{n}-y^{n}")
            # the scheme sees the full jet slab below order n, namely
            # n(n+1)/2 monomials; the germ itself removes one dimension
            # as soon as order n is included
            assert scheme_length(f, n - 1) == n * (n + 1) // 2
            assert scheme_length(f, n) == n * (n + 3) // 2

    _run(capsys, 1, 1.0, "catalog reproduces the worked examples", body)


def test_acceptance_2_stratum_identity(capsys):
    def body():
        for entry in load_catalog().values():
            if entry.flavor != "analytic":
                continue
            start = time.monotonic()
            value = dim_s0(entry.normal_form, entry.k_used)
            assert value == entry.N - entry.tau, entry.label
            if entry.label == "A2":
                assert value == 5
            assert time.monotonic() - start < 1.0, entry.label

    _run(capsys, 2, 30.0, "smooth-stratum dimension equals N - tau", body)


def test_acceptance_3_severi_anchors(capsys):
    def body():
        anchors = {(2, 1): 3, (3, 1): 12, (4, 1): 27, (4, 2): 225, (4, 3): 675}
        for (d, delta), want in anchors.items():
            assert _ENGINE.severi_p2(d, delta) == want
        for d in range(1, 6):
            for delta in range(0, 4):
                if delta > d * (d - 1) // 2:
                    continue
                assert floor_diagram_oracle(d, delta) == _ENGINE.severi_p2(d, delta)
        for d in (2, 3, 4):
            assert pencil_discriminant_oracle("p2", d) == _ENGINE.severi_p2(d, 1)
        assert _ENGINE.severi_quadric(1, 1, 1) == 2
        assert _ENGINE.severi_quadric(2, 2, 1) == 12
        assert pencil_discriminant_oracle("p1xp1", (1, 1)) == 2
        assert pencil_discriminant_oracle("p1xp1", (2, 2)) == 12

    _run(capsys, 3, 10.0, "recursion, floor diagrams, and pencils agree", body)


def test_acceptance_4_multiplicative_fit(capsys):
    def body():
        result = _shared_fit()
        assert result.residual_consistent
        for r_max in range(1, 9):
            # overdetermined at every order: the rows of the fit that vote
            # at order r, at least one of them a quadric, against 4 unknowns
            for r in range(1, r_max + 1):
                voting = [surface for surface, klass in fit_rows(r_max)
                          if r <= surface.vote_order(klass)]
                quadric_rows = sum(1 for surface in voting if surface is QUADRIC)
                assert quadric_rows >= 1 and len(voting) > 4, (r_max, r)
        for r in range(1, 5):
            assert result.a[r].is_linear()
        for r in range(5):
            assert result.T[r].total_degree() == r
            assert result.T[r].coefficient((r, 0, 0, 0)) == Fraction(
                3**r, factorial(r)
            )

    _run(capsys, 4, 60.0, "fit is overdetermined, exact, linear, degree r", body)


def test_acceptance_5_closed_loop(capsys):
    def body():
        result = _shared_fit()
        for r in range(1, 5):
            threshold = threshold_scan(result, r, engine=_ENGINE)
            for d in range(threshold, 13):
                want = _ENGINE.severi_p2(d, r)
                assert result.T[r].evaluate(chern_p2(d)) == want, (d, r)
            for a in range(r + 1, 6):
                for b in range(a, 6):
                    want = _ENGINE.severi_quadric(a, b, r)
                    assert result.T[r].evaluate(chern_quadric(a, b)) == want, (a, b, r)

    _run(capsys, 5, 60.0, "fitted polynomials reproduce both surfaces", body)


def _random_unimodular(rng):
    while True:
        a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
        if abs(a * d - b * c) == 1:
            return a, b, c, d


def _random_series(rng, weights, cap):
    labels = sorted(weights)
    coeffs = {}
    for _ in range(6):
        key = tuple(sorted(rng.choice(labels) for _ in range(rng.randint(1, 3))))
        terms = {}
        for _ in range(rng.randint(1, 3)):
            exps = [0, 0, 0, 0]
            for _ in range(rng.randint(0, 2)):
                exps[rng.randrange(4)] += 1
            terms[tuple(exps)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        coeffs[key] = ChernPolynomial(terms)
    return TruncatedSeries(weights, cap, coeffs)


def test_acceptance_6_property_suites(capsys, tmp_path):
    def body():
        rng = random.Random(20260816)

        # mu and tau are blind to invertible linear coordinate changes
        germs = [
            parse_germ("x*y"),
            parse_germ("y^2 - x^3"),
            parse_germ("x^3 + y^4"),
            parse_germ("x^3 - y^3"),
        ]
        for i in range(20):
            f = germs[i % len(germs)]
            a, b, c, d = _random_unimodular(rng)
            g = linear_substitute(f, a, b, c, d)
            assert milnor_number(g) == milnor_number(f)
            assert tjurina_number(g) == tjurina_number(f)

        # exp and log invert each other through weight 6
        weights = {"u": 1, "v": 2, "w": 3}
        for _ in range(5):
            s = _random_series(rng, weights, 6)
            assert log_series(exp_series(s)) == s
            assert exp_series(log_series(one_plus(s))) == one_plus(s)

        # tau never exceeds mu on random isolated germs
        checked = 0
        attempts = 0
        while checked < 10:
            attempts += 1
            assert attempts < 500, "random germ sampling stalled"
            terms = {}
            for _ in range(rng.randint(2, 5)):
                i, j = rng.randint(0, 4), rng.randint(0, 4)
                if i + j < 1:
                    continue
                terms[(i, j)] = Fraction(rng.randint(-3, 3))
            f = GermPoly(terms)
            if f.is_zero() or f.multiplicity() < 2:
                continue
            try:
                mu = milnor_number(f)
            except CeilingError:
                continue
            assert tjurina_number(f) <= mu
            checked += 1

        # cache files are byte-identical regardless of computation order
        first = SeveriEngine(MemoStore())
        first.severi_p2(6, 2)
        first.severi_quadric(3, 2, 2)
        second = SeveriEngine(MemoStore())
        second.severi_quadric(3, 2, 2)
        second.severi_p2(6, 2)
        path_a, path_b = tmp_path / "a.cache", tmp_path / "b.cache"
        first.store.save(path_a)
        second.store.save(path_b)
        assert path_a.read_bytes() == path_b.read_bytes()

    _run(capsys, 6, 30.0, "seeded property suites hold", body)


def test_acceptance_7_k3_and_abelian_closed_forms(capsys):
    def body():
        # K = 0 rows that no fit reads: on a K3 surface T_g is the q^g
        # coefficient of prod (1 - q^n)^-24, and on an abelian surface
        # T_(n-1) is n^2 sigma_1(n), computed here with no curvelab code
        yau_zaslow = [1] + [0] * 8
        for n in range(1, 9):
            for _ in range(24):
                for k in range(n, 9):
                    yau_zaslow[k] += yau_zaslow[k - n]
        assert yau_zaslow == [1, 24, 324, 3200, 25650, 176256, 1073720, 5930496, 30178575]
        result = fit_nodes(8)
        for g in range(9):
            assert result.T[g].evaluate((2 * g - 2, 0, 0, 24)) == yau_zaslow[g], g
        for n in range(1, 10):
            sigma = sum(d for d in range(1, n + 1) if n % d == 0)
            assert result.T[n - 1].evaluate((2 * n, 0, 0, 0)) == n * n * sigma, n

    _run(capsys, 7, 5.0, "K3 and abelian closed forms hold at every fitted order", body)
