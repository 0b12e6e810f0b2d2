import hashlib
import json
import random
from itertools import permutations
from math import prod
from types import SimpleNamespace

import pytest

from curvelab import oracles
from curvelab.errors import InputError
from curvelab.oracles import (
    _P,
    _coprime_mod_p,
    _is_squarefree,
    _meets_at_infinity,
    _pencil_pair,
    _sample_poly,
    floor_diagram_oracle,
    pencil_discriminant_oracle,
)
from curvelab.poly import partial_rows, poly_derivative, subresultant
from curvelab.severi import SeveriEngine
from curvelab.surfaces import PLANE, QUADRIC
from reference import (
    floor_markings,
    interpolated_resultant,
    poly_gcd,
    sylvester_det,
    sylvester_matrix,
)


@pytest.fixture(scope="module")
def engine():
    return SeveriEngine()


def test_floor_diagram_anchors():
    assert floor_diagram_oracle(2, 1) == 3
    assert floor_diagram_oracle(3, 0) == 1
    assert floor_diagram_oracle(4, 2) == 225


def test_floor_diagram_matches_recursion_everywhere(engine):
    # full supported range of the combinatorial oracle
    for d in range(1, 7):
        for delta in range(0, 5):
            if delta > d * (d - 1) // 2:
                continue
            assert floor_diagram_oracle(d, delta) == engine.severi_p2(d, delta), (
                d,
                delta,
            )


# (value, diagrams, frames) of every supported (d, delta): the frames count
# the walk's steps, so this pins the pruning bound as well as the counts
_FLOOR_PINS = {
    (1, 0): (1, 1, 0), (1, 1): (0, 0, 0), (1, 2): (0, 0, 0),
    (1, 3): (0, 0, 0), (1, 4): (0, 0, 0),
    (2, 0): (1, 1, 3), (2, 1): (3, 1, 3), (2, 2): (0, 0, 0),
    (2, 3): (0, 0, 0), (2, 4): (0, 0, 0),
    (3, 0): (1, 1, 14), (3, 1): (12, 3, 14), (3, 2): (21, 3, 17),
    (3, 3): (15, 1, 9), (3, 4): (0, 0, 0),
    (4, 0): (1, 1, 62), (4, 1): (27, 5, 91), (4, 2): (225, 13, 91),
    (4, 3): (675, 20, 116), (4, 4): (666, 15, 100),
    (5, 0): (1, 1, 626), (5, 1): (48, 7, 840), (5, 2): (882, 28, 957),
    (5, 3): (7915, 78, 1216), (5, 4): (36975, 153, 1252),
    (6, 0): (1, 1, 13122), (6, 1): (75, 9, 15848), (6, 2): (2370, 47, 19232),
    (6, 3): (41310, 179, 21681), (6, 4): (437517, 530, 25200),
}


def test_floor_diagram_values_and_stats_are_pinned():
    for (d, delta), pinned in _FLOOR_PINS.items():
        stats = {}
        value = floor_diagram_oracle(d, delta, stats)
        assert (value, stats["diagrams"], stats["frames"]) == pinned, (d, delta)


def test_marking_count_matches_a_linear_extension_count(monkeypatch):
    reached = []

    def record(d, edges):
        reached.append((d, delta, list(edges)))
        return marking_count(d, edges)

    marking_count = oracles._marking_count
    monkeypatch.setattr(oracles, "_marking_count", record)
    for d in range(1, 5):
        for delta in range(0, 5):
            floor_diagram_oracle(d, delta)
    assert len(reached) == sum(
        _FLOOR_PINS[d, delta][1] for d in range(1, 5) for delta in range(0, 5)
    )
    for d, delta, edges in reached:
        assert marking_count(d, edges) == floor_markings(d, edges), (d, edges)
        # the walk reaches only diagrams with every ground 1 - in(v) + out(v)
        # >= 0 and exactly the target number of edges, so the count need
        # not refuse any
        ground = [1] * (d + 1)
        for i, j, w in edges:
            ground[i] += w
            ground[j] -= w
        assert min(ground) >= 0 and len(edges) == d * (d - 1) // 2 - delta, (d, delta, edges)


def test_floor_diagram_range_errors():
    for d, delta in [(0, 0), (7, 1), (3, 5), (3, -1)]:
        with pytest.raises(InputError):
            floor_diagram_oracle(d, delta)
    for d, delta in [(True, 0), (3, False), (3.0, 1)]:
        with pytest.raises(InputError, match="degree and node count must be integers"):
            floor_diagram_oracle(d, delta)


def test_pencil_plane_matches_recursion(engine):
    for d in range(2, 8):
        assert pencil_discriminant_oracle("p2", d) == engine.severi_p2(d, 1)


def test_pencil_quadric_matches_recursion(engine):
    for a in range(1, 5):
        for b in range(1, 5):
            assert pencil_discriminant_oracle("p1xp1", (a, b)) == engine.severi_quadric(
                a, b, 1
            )


def test_pencil_seed_determinism():
    first = pencil_discriminant_oracle("p2", 3, seed=7)
    again = pencil_discriminant_oracle("p2", 3, seed=7)
    assert first == again == 12
    # the count is an invariant of the linear system, not of the sample
    for d in range(2, 6):
        counts = {pencil_discriminant_oracle("p2", d, seed=s) for s in range(5)}
        assert counts == {3 * (d - 1) ** 2}, d
    assert pencil_discriminant_oracle("p1xp1", (2, 2), seed=11) == 12


def test_pencil_quadric_redraws_samples_degenerate_at_y_infinity():
    # each of the first four seeds draws a sample whose E1 or E2 drops its
    # top y-degree; each of the next four draws one whose E1 and E2 share a
    # root on the fibre x = infinity, which used to undercount that draw;
    # the last draws one whose E1 and E2 have top y-coefficients that the
    # certificate does not prove coprime.
    # The whole stats dict is pinned: every rejection branch must redraw
    # exactly as often, and run the same resultants.
    for bidegree, seed, count, samples in [
        ((1, 1), 21, 2, 4), ((1, 2), 15, 4, 4), ((2, 1), 15, 4, 4),
        ((1, 3), 25, 6, 4), ((1, 2), 62, 4, 4), ((2, 1), 62, 4, 4),
        ((2, 2), 99, 12, 4), ((2, 3), 119, 20, 4), ((2, 2), 8, 12, 4),
    ]:
        stats = {}
        assert pencil_discriminant_oracle("p1xp1", bidegree, seed=seed, stats=stats) == count
        assert stats == {
            "samples": samples, "retries": samples - 3, "exact_squarefree_fallbacks": 0,
        }, bidegree


def test_pencil_draws_are_pinned():
    # the value and the whole stats dict of a small seeded set of calls,
    # with the two draws that the bench probes for their degenerate
    # samples: a change to the sampler's draw order, a rejection branch
    # or the arithmetic that shifts any draw changes the digest
    calls = [("p2", d, seed) for seed in range(5) for d in range(2, 5)]
    calls += [("p1xp1", ab, seed) for seed in range(5) for ab in ((1, 1), (1, 2), (2, 2), (2, 3))]
    calls += [("p1xp1", (1, 1), 21), ("p1xp1", (1, 2), 15)]
    rows = []
    for surface, klass, seed in calls:
        stats = {}
        value = pencil_discriminant_oracle(surface, klass, seed=seed, stats=stats)
        rows.append({"call": [surface, klass, seed], "value": value, **stats})
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "a147fde9ffc0bc786cf024a2d5b43147c01ee806efa1df751fd2c774b8e2150a")


def test_pencil_plane_redraws_samples_with_a_node_at_infinity():
    # each seed draws a plane pencil with a member singular on the line at
    # infinity, which the affine elimination cannot see: that draw used to
    # undercount by one, so the three samples disagreed
    for d, seed, count, samples in [
        (2, 185, 3, 6), (3, 197, 12, 5), (4, 197, 27, 4),
    ]:
        stats = {}
        assert pencil_discriminant_oracle("p2", d, seed=seed, stats=stats) == count
        assert stats == {
            "samples": samples, "retries": samples - 3, "exact_squarefree_fallbacks": 0,
        }, d


def _random_poly(rng, degree, size=9):
    lead = rng.choice([-1, 1]) * rng.randint(1, size)
    return [rng.randint(-size, size) for _ in range(degree)] + [lead]


def _mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _exactly_squarefree(p):
    return len(poly_gcd(p, poly_derivative(list(p)))) == 1


def test_is_squarefree_agrees_with_exact_gcd():
    rng = random.Random(3)
    stats = {"exact_squarefree_fallbacks": 0}
    not_squarefree = 0
    for _ in range(40):
        p = _random_poly(rng, rng.randint(1, 12))
        exact = _exactly_squarefree(p)
        assert _is_squarefree(p, stats) == exact
        not_squarefree += not exact
    # the modular certificate settles every squarefree input
    assert stats["exact_squarefree_fallbacks"] == not_squarefree
    for _ in range(20):
        p, q = _random_poly(rng, rng.randint(0, 5)), _random_poly(rng, rng.randint(1, 4))
        assert not _is_squarefree(_mul(p, _mul(q, q)))


def test_is_squarefree_rejects_and_counts_what_it_cannot_certify():
    # P x^2 - 1 (P divides the leading coefficient) and x^2 - P (a square
    # mod P) are squarefree over Q, but no certificate mod P proves it
    for p in ([-1, 0, _P], [-_P, 0, 1]):
        assert _exactly_squarefree(p)
        stats = {"exact_squarefree_fallbacks": 0}
        assert _is_squarefree(p, stats) is False
        assert stats["exact_squarefree_fallbacks"] == 1
    stats = {"exact_squarefree_fallbacks": 0}
    assert _is_squarefree([-1, 0, 1], stats)
    assert stats["exact_squarefree_fallbacks"] == 0


def test_coprime_certificate():
    x1, x2, x3 = [-1, 1], [2, 1], [3, 1]
    assert _coprime_mod_p(x1, x2)
    assert _coprime_mod_p([5], x1) and _coprime_mod_p(x1, [5])
    assert not _coprime_mod_p(_mul(x1, x2), _mul(x1, x3))
    # coprime over Q, but x - 1 and x - 1 - P agree mod P
    assert not _coprime_mod_p(x1, [-1 - _P, 1])
    # u and v share P x + 1, which vanishes mod P; the certificate refuses
    # u because P divides its leading coefficient
    px1 = [1, _P]
    assert not _coprime_mod_p(_mul(px1, x2), _mul(px1, x3))
    assert len(poly_gcd(_mul(px1, x2), _mul(px1, x3))) == 2
    rng = random.Random(8)
    for _ in range(30):
        u, v = _random_poly(rng, rng.randint(0, 6)), _random_poly(rng, rng.randint(0, 6))
        assert _coprime_mod_p(u, v) == (len(poly_gcd(u, v)) == 1)


def _at(p, t):
    return sum(c * t**k for k, c in enumerate(p))


def _leibniz_det(rows):
    """A determinant by its definition: the signed sum over permutations."""
    n = len(rows)
    return sum((-1) ** sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n))
               * prod(rows[i][p[i]] for i in range(n)) for p in permutations(range(n)))


def test_bareiss_reference_matches_the_leibniz_formula():
    # the reference Sylvester determinant by Bareiss elimination equals the
    # determinant's definition, also on the fifth of the pairs whose top
    # coefficient is zeroed, where rows must swap
    rng = random.Random(31)
    for k in range(300):
        a, b = ([rng.randint(-9, 9) for _ in range(rng.randint(1, 4))] for _ in "ab")
        if k % 5 == 0:
            rng.choice((a, b))[-1] = 0
        assert sylvester_det(a, b) == _leibniz_det(sylvester_matrix(a, b)), (a, b)


def test_bezout_node_count_recovers_the_whole_resultant():
    # the subresultant PRS must give the polynomial that reference
    # Sylvester determinants interpolate at the node count of the lesser
    # bound, Bezout's on the plane, on pairs drawn as the sampler draws them
    rng = random.Random(28)
    classes = [(PLANE, d) for d in range(2, 7)]
    classes += [(QUADRIC, (a, b)) for b in range(1, 5) for a in range(1, b + 1)]
    for surface, klass in classes:
        pencil = surface.pencil(klass)
        F, G = _sample_poly(rng, *pencil.draw), _sample_poly(rng, *pencil.draw)
        for A, B in (_pencil_pair(F, G, pencil.var),
                     (partial_rows(F, pencil.var), partial_rows(G, pencil.var))):
            assert subresultant(A, B) == interpolated_resultant(A, B), (surface.name, klass)


def test_pencil_rows_state_the_y_degrees_of_fv_and_gv():
    # no field of a pencil row is None: the quadric's rows state the y-degrees
    # of (Fv, Gv) as the plane's do, and a draw with every coefficient 1 has them
    ones = SimpleNamespace(randint=lambda lo, hi: 1)
    classes = [(PLANE, d) for d in range(2, 8)]
    classes += [(QUADRIC, (a, b)) for a in range(1, 5) for b in range(1, 5)]
    for surface, klass in classes:
        pencil = surface.pencil(klass)
        assert None not in pencil, (surface.name, klass)
        Fv = partial_rows(_sample_poly(ones, *pencil.draw), pencil.var)
        assert (len(Fv) - 1,) * 2 == pencil.fake_ydegs, (surface.name, klass)


def _top_trimmed(p):
    while p and not p[-1]:
        p = p[:-1]
    return p


def _in_chart(rows, surface, klass):
    """rows moved to the chart u = 1/x with u = 0 at infinity, term by
    term: x^i y^j goes to u^(d-i-j) y^j on the plane and to u^(a-i) y^j on
    the quadric, a the lesser of its bidegree."""
    width = (lambda i, j: klass - i - j) if surface is PLANE else (lambda i, j: min(klass) - i)
    out = [[0] * (width(0, j) + 1) for j in range(len(rows))]
    for j, row in enumerate(rows):
        for i, c in enumerate(row):
            out[j][width(i, j)] = c
    return _top_trimmed([_top_trimmed(row) for row in out])


def test_meets_at_infinity_matches_the_determinant_at_u_0():
    # the pair meets on u = 0 exactly when its Sylvester determinant there,
    # at the formal y-degrees, vanishes.  The seed draws both cases in
    # which that differs from the resultant of the pair without its zero
    # tops: one top vanishes (the determinant and that resultant differ by
    # a nonzero factor), and both vanish where that resultant does not
    rng = random.Random(18)
    classes = [(PLANE, d, 3) for d in range(2, 8)]
    classes += [(QUADRIC, (a, b), 12) for b in range(1, 5) for a in range(1, b + 1)]
    one_top = both_tops = 0
    for surface, klass, draws in classes:
        pencil = surface.pencil(klass)
        for _ in range(draws):
            F, G = _sample_poly(rng, *pencil.draw), _sample_poly(rng, *pencil.draw)
            Fc, Gc = (_in_chart(P, surface, klass) for P in (F, G))
            ca, cb = _pencil_pair(Fc, Gc, pencil.var)
            if len(ca) < 2 or len(cb) < 2:
                expected = True
            else:
                a0, b0 = [_at(p, 0) for p in ca], [_at(p, 0) for p in cb]
                expected = sylvester_det(a0, b0) == 0
                one_top += (a0[-1] == 0) != (b0[-1] == 0)
                trimmed = _top_trimmed(a0), _top_trimmed(b0)
                both_tops += a0[-1] == b0[-1] == 0 and all(trimmed) and sylvester_det(*trimmed) != 0
            assert _meets_at_infinity(F, G, pencil.var, pencil.chart) == expected, (
                surface.name, klass)
    assert one_top > 0 and both_tops > 0


def test_pencil_input_validation():
    with pytest.raises(InputError):
        pencil_discriminant_oracle("p3", 3)
    for bad in [1, 8, (2, 2), "3", True]:
        with pytest.raises(InputError):
            pencil_discriminant_oracle("p2", bad)
    for bad in [3, (0, 1), (5, 1), (1,), (1, 2, 3), (1.0, 2), (True, 2), (2, True)]:
        with pytest.raises(InputError):
            pencil_discriminant_oracle("p1xp1", bad)
    for bad in [True, 1.5, "1", None]:
        with pytest.raises(InputError, match="seed must be an integer"):
            pencil_discriminant_oracle("p2", 3, seed=bad)
        with pytest.raises(InputError, match="seed must be an integer"):
            pencil_discriminant_oracle("p1xp1", (1, 1), seed=bad)
