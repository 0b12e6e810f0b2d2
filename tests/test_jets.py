import hashlib
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest

import curvelab
from curvelab import jets
from curvelab.catalog import load_catalog
from curvelab.cli import entry
from curvelab.errors import CeilingError, InputError
from curvelab.germs import GermPoly, parse_germ
from curvelab.jets import (
    MAX_JET_ORDER,
    _gradient_frame,
    determinacy_window,
    dim_s0,
    germ_report,
    ideal_in_jets,
    jet_dimension,
    milnor_number,
    orbit_tangent_dim,
    scheme_length,
    tjurina_number,
)

from reference import (
    ideal_by_generator,
    kouchnirenko_mu,
    linear_substitute,
    milnor_orlik_mu,
    resultant_mu,
)

NODE = parse_germ("x*y")
CUSP = parse_germ("y^2 - x^3")


def test_ideal_in_jets_node_slab():
    space = ideal_in_jets([NODE], 3)
    assert space.dimension == 1
    assert jet_dimension(3) - space.dimension == 5


def test_ideal_in_jets_cusp():
    space = ideal_in_jets([CUSP], 4)
    assert space.dimension == 3
    assert jet_dimension(4) - space.dimension == 7


def test_ideal_in_jets_refuses_generators_that_are_not_iterable():
    # a scalar or a bare germ used to raise a bare TypeError, "... object
    # is not iterable"; an empty value still needs generators
    for bad in (5, True, 2.0, CUSP):
        with pytest.raises(InputError, match="generators must be an iterable of germs"):
            ideal_in_jets(bad, 3)
    for empty in (None, 0, []):
        with pytest.raises(InputError, match="need generators"):
            ideal_in_jets(empty, 3)


def test_ideal_in_jets_requires_something():
    with pytest.raises(InputError):
        ideal_in_jets([], 3)
    with pytest.raises(InputError, match="truncation order must be a positive integer"):
        ideal_in_jets([NODE], "3")
    with pytest.raises(InputError):
        ideal_in_jets([NODE], 0)
    with pytest.raises(InputError):
        ideal_in_jets([NODE], True)
    for k in (0, True):
        with pytest.raises(InputError, match="jet order must be a positive integer"):
            scheme_length(NODE, k)
        with pytest.raises(InputError, match="jet order must be a positive integer"):
            orbit_tangent_dim(NODE, k)


def test_milnor_numbers():
    assert milnor_number(NODE) == 1
    assert milnor_number(CUSP) == 2
    assert milnor_number(parse_germ("x^4 - y^4")) == 9


def test_milnor_smooth_germ_is_zero():
    assert milnor_number(parse_germ("x + y^2")) == 0


def test_every_entry_refuses_a_non_germ_before_any_build():
    # a value that is not a GermPoly, or one that does not vanish at the
    # origin, is refused by one rule, before a partial is taken
    calls = [
        lambda f, stats: milnor_number(f, stats),
        lambda f, stats: tjurina_number(f, stats),
        lambda f, stats: determinacy_window(f, stats),
        lambda f, stats: orbit_tangent_dim(f, 2, stats),
        lambda f, stats: dim_s0(f, 2, stats),
        lambda f, stats: germ_report(f, None, stats),
        lambda f, stats: germ_report(f, 2, stats),
        lambda f, stats: scheme_length(f, 2),
    ]
    unit = GermPoly({(0, 0): 1, (1, 1): 1})
    for f, message in [(None, "a germ must be a GermPoly, got None"),
                       ("y^2-x^3", "a germ must be a GermPoly, got 'y^2-x^3'"),
                       (curvelab.ChernPolynomial.constant(1), "a germ must be a GermPoly"),
                       (unit, "constant term nonzero: a germ must vanish at the origin")]:
        for call in calls:
            stats = {}
            with pytest.raises(InputError, match=f"^{re.escape(message)}"):
                call(f, stats)
            assert stats == {}
        if f is not unit:
            with pytest.raises(InputError, match=f"^{re.escape(message)}"):
                ideal_in_jets([NODE, f], 3)
    # the parser refuses a constant term by the same rule, but a generator
    # of an ideal may be a unit: its ideal is the whole ring
    with pytest.raises(InputError, match="^constant term nonzero: a germ must vanish"):
        parse_germ("1 + x*y")
    assert ideal_in_jets([unit], 3).dimension == jet_dimension(3)


def test_tjurina_numbers():
    assert tjurina_number(NODE) == 1
    assert tjurina_number(CUSP) == 2
    assert tjurina_number(parse_germ("x^5 - y^5")) == 16


def test_non_isolated_hits_ceiling():
    f = parse_germ("x^2*y^2")
    fx, fy = f.partial_x(), f.partial_y()
    assert ideal_in_jets([fx, fy], 11).saturated_at is None
    assert ideal_in_jets(_gradient_frame(f), 11).saturated_at is None
    # its Bezout bound is 3 * 3, so a scan to order 10 is a proof
    with pytest.raises(CeilingError, match="^singularity not isolated$"):
        milnor_number(f)
    with pytest.raises(CeilingError, match="^singularity not isolated$"):
        determinacy_window(f)


def test_ceiling_must_be_an_integer():
    # MAX_JET_ORDER is the one ceiling of the germ lab: it bounds the scans,
    # not k, so a k above it reaches the scans, which refuse x^2*y^2 as
    # they do at any k
    for bad in [True, "64", 64.0]:
        with pytest.raises(InputError, match="jet order must be a positive integer"):
            germ_report(CUSP, k=bad)
    stats = {}
    with pytest.raises(CeilingError, match="^singularity not isolated$"):
        germ_report(parse_germ("x^2*y^2"), k=MAX_JET_ORDER + 1, stats=stats)
    assert stats == {"ideal_builds": 1, "rows_inserted": 72, "max_order": 11}
    # a scan whose Bezout bound lies past the maximum stops there, undecided
    stats = {}
    with pytest.raises(CeilingError, match=(
            f"^singularity undecided up to order {MAX_JET_ORDER} "
            r"\(its Bézout bound 1521 exceeds it\)$")):
        germ_report(parse_germ("x^20*y^20"), stats=stats)
    assert stats["max_order"] == MAX_JET_ORDER + 1
    # a germ with that bound that saturates below the maximum is analysed
    report = germ_report(parse_germ("y^2 - x^3 + x^20*y^20"))
    assert (report.milnor, report.tjurina, report.determinacy_window) == (2, 2, (2, 3))


def test_determinacy_windows():
    assert determinacy_window(NODE) == (1, 2)
    assert determinacy_window(CUSP) == (2, 3)
    assert determinacy_window(parse_germ("x^4 - y^4")) == (4, 5)
    assert determinacy_window(parse_germ("x + y^2")) == (0, 1)


def test_scheme_lengths():
    assert scheme_length(NODE, 2) == 5
    assert scheme_length(CUSP, 3) == 7
    # homogeneous triple point: only f itself survives truncation at order 4,
    # so the length is 10 - 1
    assert scheme_length(parse_germ("x^3 - y^3"), 3) == 9


def test_orbit_tangent_dims():
    assert orbit_tangent_dim(NODE, 2) == 3
    assert orbit_tangent_dim(CUSP, 3) == 6
    # smooth germ: the orbit closure is the whole positive-degree slab
    assert orbit_tangent_dim(parse_germ("x"), 2) == jet_dimension(3) - 1


def test_dim_s0_values_and_contract():
    cases = [(NODE, 2), (CUSP, 3), (parse_germ("x^3 - y^3"), 3)]
    expected = [4, 5, 5]
    for (f, k), want in zip(cases, expected):
        got = dim_s0(f, k)
        assert got == want
        assert got == scheme_length(f, k) - tjurina_number(f)


def test_dim_s0_degenerate_input():
    with pytest.raises(InputError):
        dim_s0(parse_germ("x^3 - y^3"), 1)


def test_stabilization_of_quotient_dimension():
    gens = [CUSP.partial_x(), CUSP.partial_y()]
    for K in range(3, 8):
        assert jet_dimension(K) - ideal_in_jets(gens, K).dimension == 2


def test_unit_scaling_invariance():
    for f in [NODE, CUSP, parse_germ("x^3 + y^5")]:
        g = f.scale(Fraction(-7, 3))
        assert milnor_number(g) == milnor_number(f)
        assert tjurina_number(g) == tjurina_number(f)


def _random_invertible(rng):
    while True:
        a, b, c, d = (Fraction(rng.randint(-3, 3)) for _ in range(4))
        if a * d - b * c != 0:
            return a, b, c, d


def test_linear_coordinate_invariance():
    rng = random.Random(7)
    for f in [NODE, CUSP, parse_germ("x^3 + y^4"), parse_germ("x^2*y - y^4")]:
        mu, tau = milnor_number(f), tjurina_number(f)
        window = determinacy_window(f)
        mult = f.multiplicity()
        for _ in range(4):
            g = linear_substitute(f, *_random_invertible(rng))
            assert milnor_number(g) == mu
            assert tjurina_number(g) == tau
            assert determinacy_window(g) == window
            assert g.multiplicity() == mult


def test_tau_at_most_mu_on_random_germs():
    rng = random.Random(11)
    checked = 0
    while checked < 12:
        terms = {}
        for _ in range(rng.randint(2, 5)):
            i, j = rng.randint(0, 4), rng.randint(0, 4)
            if 1 <= i + j <= 4:
                terms[(i, j)] = Fraction(rng.randint(-4, 4))
        f = GermPoly(terms)
        if f.is_zero() or f.multiplicity() < 2:
            continue
        try:
            mu = milnor_number(f)
        except CeilingError:
            continue
        assert tjurina_number(f) <= mu
        checked += 1


def _convenient_draw(rng) -> dict:
    """Integer terms with pure powers x^a and y^b, 2 <= a, b <= 4, and up
    to four mixed monomials of degree at most 5."""
    terms = {(rng.randint(2, 4), 0): rng.choice((-1, 1)),
             (0, rng.randint(2, 4)): rng.choice((-1, 1))}
    for _ in range(rng.randint(0, 4)):
        i, j = rng.randint(1, 4), rng.randint(1, 4)
        if i + j <= 5:
            terms[(i, j)] = rng.randint(-2, 2)
    return {key: c for key, c in terms.items() if c}


def _weighted_draw(rng) -> tuple:
    """(terms, w1, w2): integer terms on one weighted-degree line D, for
    coprime weights up to 4 and D up to 12."""
    w1, w2 = rng.choice([(1, 1), (1, 2), (2, 1), (2, 3), (3, 2), (1, 3), (3, 4), (4, 3)])
    D = rng.randint(2 * max(w1, w2), 12)
    line = [(i, (D - w1 * i) // w2) for i in range(D // w1 + 1) if (D - w1 * i) % w2 == 0]
    terms = {key: rng.choice((-3, -2, -1, 1, 2, 3)) for key in line if rng.random() < 0.7}
    return terms, w1, w2


def test_mu_and_tau_match_kouchnirenko_and_milnor_orlik(capsys):
    # Kouchnirenko's formula on convenient Newton non-degenerate germs, and
    # Milnor-Orlik's with tau = mu on reduced weighted homogeneous ones, each
    # precondition certified exactly by the reference; a draw that fails it
    # is redrawn, and the redraws are counted
    rng = random.Random(19)
    accepted, redraws = 0, 0
    while accepted < 12:
        terms = _convenient_draw(rng)
        mu = kouchnirenko_mu(terms)
        if mu is None:
            redraws += 1
            continue
        assert milnor_number(GermPoly(terms)) == mu, terms
        accepted += 1
    assert redraws < accepted
    accepted, redraws = 0, 0
    while accepted < 12:
        terms, w1, w2 = _weighted_draw(rng)
        mu = milnor_orlik_mu(terms, w1, w2)
        if mu is None:
            redraws += 1
            continue
        f = GermPoly(terms)
        assert milnor_number(f) == tjurina_number(f) == mu, (terms, w1, w2)
        assert kouchnirenko_mu(terms) in (None, mu)
        accepted += 1
    assert redraws < 2 * accepted
    # (x - y)^2 + x^3 is a cusp, mu = 2, but its edge polynomial (t - 1)^2
    # is a square: the formula, which would give 1, does not apply
    assert kouchnirenko_mu({(2, 0): 1, (1, 1): -2, (0, 2): 1, (3, 0): 1}) is None
    assert milnor_number(parse_germ("x^2 - 2*x*y + y^2 + x^3")) == 2
    # every monomial of y^2 * (x^a + y^b) has y-degree >= 2: not isolated
    a, b = rng.randint(2, 4), rng.randint(2, 4)
    assert entry(["germ", "analyze", f"x^{a}*y^2 + y^{b + 2}"]) == 3
    assert capsys.readouterr().err == "error: singularity not isolated\n"


def test_quasi_homogeneous_mu_equals_tau():
    for text in ["x^3 - y^3", "x^4 - y^4", "y^2 - x^5", "x^3 + y^4", "x^3 + y^5"]:
        f = parse_germ(text)
        assert milnor_number(f) == tjurina_number(f)


def test_germ_report_takes_any_k():
    assert germ_report(CUSP, k=65).scheme_length_at == {65: 131}
    # no build's order depends on k: the three scans stop where their
    # ideals saturate, the frame's at order 4, the orbit is read off the
    # frame's scan and N is a closed form, so k = 512 and k = 10**30 cost
    # the same as the default
    for k in (512, 10**30):
        stats = {}
        report = germ_report(CUSP, k=k, stats=stats)
        assert report.scheme_length_at == {k: 2 * k + 1}
        assert (report.orbit_tangent_dim, report.dim_s0) == (jet_dimension(k + 1) - 4, 2 * k - 1)
        assert stats == {"ideal_builds": 3, "rows_inserted": 20, "max_order": 4}
        if k == 512:
            assert (report.orbit_tangent_dim, report.dim_s0) == (131837, 1023)
    for bad in (0, -1, True, 2.0, "3"):
        with pytest.raises(InputError, match="jet order must be a positive integer"):
            germ_report(CUSP, k=bad)


def test_orders_above_the_maximum_are_refused_at_once():
    # ideal_in_jets refuses a truncation order K above MAX_JET_ORDER + 1,
    # and the functions of a jet order k answer any k from scans that stop
    # where their ideals saturate.  Each of these once built toward order
    # 10**30, for ever: run in a child, so that such a build fails by the
    # timeout, not a hang
    src = os.path.dirname(os.path.dirname(curvelab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "from curvelab import *\n"
        "f = parse_germ('y^2 - x^3')\n"
        "for k in map(int, sys.argv[1:]):\n"
        "    print(scheme_length(f, k), orbit_tangent_dim(f, k), dim_s0(f, k))\n"
        "    try:\n"
        "        ideal_in_jets([f], k)\n"
        "    except CeilingError as exc:\n"
        "        print(exc)\n"
    )
    orders = (MAX_JET_ORDER + 2, 10**30)
    proc = subprocess.run(
        [sys.executable, "-c", code, *map(str, orders)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=20,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == [
        line
        for k in orders
        for line in (f"{2 * k + 1} {jet_dimension(k + 1) - 4} {2 * k - 1}",
                     f"truncation order K = {k} exceeds its maximum {MAX_JET_ORDER + 1}")
    ]


def test_orbit_and_dim_s0_refuse_a_germ_that_is_not_isolated():
    # the orbit is read off the frame's scan, which refuses such a germ at
    # any k from its multiplicity 4 on, as germ_report does: x^2*y^2 after
    # one build to its Bezout bound 9 plus 2, and the zero germ, whose
    # bound is 0, at order 2
    for f, counters in [(parse_germ("x^2*y^2"), (1, 140, 11)), (GermPoly({}), (1, 0, 2))]:
        for fn in (orbit_tangent_dim, dim_s0):
            for k in (4, 10**30):
                stats = {}
                with pytest.raises(CeilingError, match="^singularity not isolated$"):
                    fn(f, k, stats)
                assert stats == dict(zip(("ideal_builds", "rows_inserted", "max_order"),
                                         counters)), (f.to_string(), fn.__name__, k)


def test_germ_report_defaults_to_upper_window_bound():
    rep = germ_report(CUSP)
    assert rep.milnor == 2
    assert rep.tjurina == 2
    assert rep.multiplicity == 2
    assert rep.determinacy_window == (2, 3)
    assert rep.k_used == 3
    assert rep.scheme_length_at == {3: 7}
    assert rep.orbit_tangent_dim == 6
    assert rep.dim_s0 == 5
    d = rep.to_dict()
    assert list(d) == ["expression", "milnor", "tjurina", "multiplicity",
                       "determinacy_window", "k_used", "scheme_length_at",
                       "orbit_tangent_dim", "dim_s0"]
    assert d["determinacy_window"] == [2, 3]
    assert d["scheme_length_at"] == {"3": 7}


# ---------------------------------------------------------------------------
# the one saturating build against the per-order scan it replaced


def _reference_saturation(gens, limit, first=1):
    """The per-order scan as it was before the build ladder: one build at
    every order K from `first` to limit + 1, until the degree K - 1
    monomials lie in the truncated ideal.  Returns (K, colength at K - 1),
    or None when no order up to the limit saturates.

    Truncating the order-K span to order K - 1 maps it onto the order-(K-1)
    span with kernel its degree K - 1 part, so the K monomials of degree
    K - 1 all lie in it exactly when the dimension grows by K; only the
    public `dimension` is read, never the pivots that the ladder reads."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return None
    below = ideal_in_jets(gens, first - 1).dimension if first > 1 else 0
    for K in range(first, limit + 2):
        dim = ideal_in_jets(gens, K).dimension
        if dim - below == K:
            return K, jet_dimension(K - 1) - below
        below = dim
    return None


def _reference_invariants(f, limit):
    """(mu, tau, window) by the reference scan; None where it hits the
    limit."""
    fx, fy = f.partial_x(), f.partial_y()
    mu = _reference_saturation([fx, fy], limit)
    tau = _reference_saturation([f, fx, fy], limit)
    window = _reference_saturation(_gradient_frame(f), limit, first=2)
    return (
        mu and mu[1],
        tau and tau[1],
        window and (window[0] - 2, window[0] - 1),
    )


def _scan_invariants(f, limit):
    """(mu, tau, window) by the saturation record of `ideal_in_jets` at
    order `limit` + 1, as the public functions read them; None where it
    does not saturate."""
    fx, fy = f.partial_x(), f.partial_y()
    mu, tau, window = (ideal_in_jets(gens, limit + 1) for gens in (
        [fx, fy], [f, fx, fy], _gradient_frame(f)))
    return (
        mu.saturated_at and len(mu.standard_monomials(mu.saturated_at - 1)),
        tau.saturated_at and len(tau.standard_monomials(tau.saturated_at - 1)),
        window.saturated_at and (window.saturated_at - 2, window.saturated_at - 1),
    )


def _random_germ(rng):
    while True:
        terms = {}
        for _ in range(rng.randint(2, 5)):
            i, j = rng.randint(0, 6), rng.randint(0, 6)
            if 2 <= i + j <= 6:
                terms[(i, j)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        f = GermPoly(terms)
        if not f.is_zero():
            return f


def test_saturation_matches_reference_on_catalog_forms():
    for entry in load_catalog().values():
        f = entry.normal_form
        assert _scan_invariants(f, 64) == _reference_invariants(f, 64), entry.label


def _seeded_germs():
    """(germ, mu): eight Brieskorn-Pham germs with their Milnor numbers,
    then twenty random germs (mu None), every other one with pure powers
    added."""
    rng = random.Random(29)
    for _ in range(8):
        a, b = rng.randint(2, 9), rng.randint(2, 9)
        c1, c2 = (Fraction(rng.choice([-5, -2, -1, 1, 3, 7]), rng.randint(1, 4)) for _ in "ab")
        yield GermPoly({(a, 0): c1, (0, b): c2}), (a - 1) * (b - 1)
    for i in range(20):
        f = _random_germ(rng)
        if i % 2:
            # pure powers make most of these isolated, at varied orders
            f = f + GermPoly({(rng.randint(2, 9), 0): 1, (0, rng.randint(2, 9)): -1})
        yield f, None


def test_saturation_matches_reference_on_seeded_germs():
    outcomes = []
    for f, mu in _seeded_germs():
        if mu is not None:
            assert _scan_invariants(f, 64) == _reference_invariants(f, 64) == (
                mu, mu, determinacy_window(f))
            continue
        # one build per ideal, at order 21 unless it saturates lower
        got = _scan_invariants(f, 20)
        assert got == _reference_invariants(f, 20), f.to_string()
        outcomes.append(got[0] is not None)
    # both isolated and non-isolated germs are compared
    assert 6 <= sum(outcomes) <= 17


@pytest.mark.parametrize("text", ["x^2*y^2", "x^2*y"])
def test_saturation_matches_reference_at_every_ceiling(text):
    f = parse_germ(text)
    # A limit only cuts the scan short, so one reference scan to 33
    # gives the reference outcome at each lower limit.
    fx, fy = f.partial_x(), f.partial_y()
    scans = [
        _reference_saturation([fx, fy], 33),
        _reference_saturation([f, fx, fy], 33),
        _reference_saturation(_gradient_frame(f), 33, first=2),
    ]
    assert scans == [None, None, None]  # neither germ is isolated
    for limit in (1, 2, 7, 8, 9, 16, 17, 33, 64):
        assert _scan_invariants(f, limit) == (None, None, None), limit
    if text == "x^2*y^2":
        # the benchmark germ, scanned by the reference up to 64
        assert _reference_saturation([fx, fy], 64) is None


def test_low_ceiling_outcomes_match_reference():
    # isolated germs at limits below, at and above their saturation order
    for text in ["x^2 + y^3", "x^7 - y^7", "y^2 - x^9", "x^3 + x*y^5", "x^9 + y^9"]:
        f = parse_germ(text)
        for limit in (1, 2, 7, 8, 9, 16, 17):
            assert _scan_invariants(f, limit) == _reference_invariants(f, limit), (
                text, limit)


def test_nonisolated_refusal_makes_one_build():
    stats = {}
    with pytest.raises(CeilingError, match="^singularity not isolated$"):
        germ_report(parse_germ("x^2*y^2"), stats=stats)
    # the Milnor scan builds once at order 11, its Bezout bound 9 plus 2,
    # and refuses: every row of x * y^2 and x^2 * y of degree <= 10, 36 each
    assert stats == {"ideal_builds": 1, "rows_inserted": 72, "max_order": 11}
    stats = {}
    assert milnor_number(CUSP, stats=stats) == 2
    # the build stops at order 3: y (degree 1), then x*y, y^2 and x^2
    assert stats == {"ideal_builds": 1, "rows_inserted": 4, "max_order": 3}


def test_germ_report_stats_count_every_build():
    stats = {}
    germ_report(parse_germ("x^6 - y^6"), stats=stats)
    # mu, tau and the frame saturate at order 10, one build each; the
    # determinacy window, the orbit tangent dimension and dim S_0 are read
    # off the frame's build, and the scheme length is a closed form
    assert stats["ideal_builds"] == 3
    assert stats["max_order"] == 10
    assert stats["rows_inserted"] == 120
    stats = {}
    with pytest.raises(CeilingError):
        germ_report(parse_germ("x^2*y^2"), stats=stats)
    assert stats == {"ideal_builds": 1, "rows_inserted": 72, "max_order": 11}


@pytest.mark.parametrize("text", ["y^2 - x^3", "x^6 - y^6", "x^2*y^2"])
def test_every_build_of_a_report_is_an_ideal_in_jets_call(text, monkeypatch):
    # bench/tracer.py counts the builds by wrapping jets.ideal_in_jets
    calls = []
    build = jets.ideal_in_jets
    monkeypatch.setattr(jets, "ideal_in_jets", lambda *args: calls.append(args) or build(*args))
    stats = {}
    try:
        germ_report(parse_germ(text), stats=stats)
    except CeilingError:
        assert text == "x^2*y^2"
    # three scans per isolated germ: Jacobian, Tjurina and frame
    assert len(calls) == stats["ideal_builds"] == (1 if text == "x^2*y^2" else 3)


def test_a_k_below_the_multiplicity_is_refused_before_any_build():
    # dim S_0 needs k >= m, and m is known without a scan: the isolated
    # y^2 - x^9 used to make three builds (212 rows) first, and the
    # non-isolated ones to scan until the scan refused them
    for text, k, m in [("y^2 - x^9", 1, 2), ("x^2*y^2", 1, 4), ("x^2*y^2", 3, 4),
                       ("x^10*y^10", 1, 20), ("x^10*y^10", 19, 20)]:
        for call in (lambda f, stats: germ_report(f, k, stats),
                     lambda f, stats: dim_s0(f, k, stats)):
            stats = {}
            with pytest.raises(InputError, match=f"^jet order {k} too small "
                                                 f"for multiplicity {m}$"):
                call(parse_germ(text), stats)
            assert stats == {}, (text, k)
    # at k = m the germ is scanned, and refused only if it is not isolated
    assert dim_s0(parse_germ("y^2 - x^9"), 2) == germ_report(parse_germ("y^2 - x^9"), 2).dim_s0


def test_germ_reports_are_pinned():
    # the sha256 of every report (its sorted compact JSON) or refusal on the
    # catalog forms and the seeded germs at nine jet orders, as computed
    # when the orbit came from a separate order-(k + 1) build of the frame:
    # reading it off the frame's scan changed no byte.  Refusing a k below
    # the multiplicity before any scan changed only the 22 refusals of
    # non-isolated germs at such a k, from "singularity not isolated" to
    # "jet order k too small for multiplicity m"
    germs = [entry.normal_form for entry in load_catalog().values()]
    germs += [f for f, _ in _seeded_germs()]
    lines = []
    for f in germs:
        for k in (None, 1, 2, 3, 5, 8, 13, 65, 512):
            try:
                out = json.dumps(germ_report(f, k).to_dict(), sort_keys=True,
                                 separators=(",", ":"))
            except (CeilingError, InputError) as exc:
                out = str(exc)
            lines.append(f"{f.to_string()} {k} {out}")
    assert len(lines) == 468
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "a761b4921aa621935c0561cf18a00bd24959d6a5251e09467cc47c2b4dbb5d54")


def test_scheme_length_closed_form_matches_the_build_of_f():
    # N = dim C{x,y}/((f) + m^(k+1)), read off the generator-by-generator
    # build of (f) at order k + 1
    germs = [entry.normal_form for entry in load_catalog().values()]
    germs += [f for f, _ in _seeded_germs()] + [parse_germ("x"), GermPoly({})]
    for f in germs:
        for k in range(1, 31):
            want = jet_dimension(k + 1) - ideal_by_generator([f], k + 1).dimension
            assert scheme_length(f, k) == want, (f.to_string(), k)


# ---------------------------------------------------------------------------
# fixed-order builds against the generator-by-generator build


def _families(f):
    return {
        "jacobian": [f.partial_x(), f.partial_y()],
        "tjurina": [f, f.partial_x(), f.partial_y()],
        "frame": _gradient_frame(f),
    }


def _assert_same_image(f, orders):
    for name, gens in _families(f).items():
        for K in orders:
            ours, ref = ideal_in_jets(gens, K), ideal_by_generator(gens, K)
            assert ours.dimension == ref.dimension, (f.to_string(), name, K)
            assert ours.standard_monomials(K) == ref.standard_monomials(K), (
                f.to_string(), name, K)


def test_milnor_number_is_the_order_of_the_resultant_of_the_partials():
    # mu = i0(f_x, f_y) for an isolated germ (ROADMAP direction 24); a
    # zero resultant (None) comes with the jet scan's refusal here
    for entry in load_catalog().values():
        assert resultant_mu(entry.normal_form) == milnor_number(entry.normal_form), entry.label
    for f, _ in _seeded_germs():
        try:
            mu = milnor_number(f)
        except CeilingError:
            mu = None
        assert resultant_mu(f) == mu, f.to_string()
    # the partials 2xy^2 and 2x^2y share the factor xy through the origin
    assert resultant_mu(parse_germ("x^2*y^2")) is None


def _bezout_bound(f):
    return f.partial_x().total_degree() * f.partial_y().total_degree()


def _bound_family():
    """(germ, k): the catalog forms, the seeded germs, thirty seeded random
    germs, and y^2 - x^(k+1) for k = 1..12 (k None elsewhere)."""
    for entry in load_catalog().values():
        yield entry.normal_form, None
    for f, _ in _seeded_germs():
        yield f, None
    rng = random.Random(37)
    for _ in range(30):
        yield _random_germ(rng), None
    for k in range(1, 13):
        yield parse_germ(f"y^2 - x^{k + 1}"), k


def test_isolation_is_decided_within_the_bezout_bound():
    # An isolated germ has mu <= B = deg f_x * deg f_y, so its Jacobian and
    # Tjurina ideals saturate by order B + 1 and its determinacy frame by
    # B + 2.  Each ideal is scanned twelve orders past that, to see where
    # it saturates: an isolated germ must saturate within the bound, and
    # a germ none of whose scans saturates must be refused as not isolated.
    # Where the resultant of the partials certifies mu, the germ is isolated.
    isolated = 0
    refused = []
    for f, k in _bound_family():
        B = _bezout_bound(f)
        fx, fy = f.partial_x(), f.partial_y()
        scans = [ideal_in_jets(gens, B + 13).saturated_at
                 for gens in ([fx, fy], [f, fx, fy], _gradient_frame(f))]
        try:
            certified = resultant_mu(f)
        except AssertionError:  # no shear certifies the resultant
            certified = None
        if scans[0] is None:
            assert scans == [None, None, None] and certified is None, f.to_string()
            refused.append(f)
            continue
        K_mu, K_tau, K_frame = scans
        assert K_mu <= B + 1 and K_tau <= B + 1 and K_frame <= B + 2, f.to_string()
        assert certified in (None, milnor_number(f)), f.to_string()
        if k is not None:
            # the A_k: mu = B = k, and the frame needs the whole bound
            assert (milnor_number(f), K_frame) == (k, B + 2)
        isolated += 1
    refused += [parse_germ("x^2*y^2"), parse_germ("x^2"), GermPoly({})]
    for f in refused:
        for fn in (milnor_number, tjurina_number, determinacy_window, germ_report):
            with pytest.raises(CeilingError, match="^singularity not isolated$"):
                fn(f)
    assert isolated >= 60 and len(refused) >= 12


def test_ideal_in_jets_matches_generator_order_on_catalog_forms():
    for entry in load_catalog().values():
        _assert_same_image(entry.normal_form, (1, 2, 3, 5, 8, 13, 21))


def test_ideal_in_jets_matches_generator_order_on_seeded_germs():
    for f, _ in _seeded_germs():
        _assert_same_image(f, (1, 2, 4, 7, 12))


def test_ideal_in_jets_matches_generator_order_at_order_40():
    f = parse_germ("x^3*y + x*y^4 + x^9")
    _assert_same_image(f, (41,))
    assert orbit_tangent_dim(f, 40) == 847
    assert scheme_length(f, 40) == 158
