"""Reference algebra for the suites: the power-sum exp and log of a
TruncatedSeries, series sums and products, linear coordinate changes of a
germ, the exact integer gcd of univariate polynomials, Lagrange
interpolation of an integer polynomial, the marking count of a floor
diagram and the generator-by-generator jet build.  Apart from
that build, all of it is written on the public coefficient dicts, the
polynomial arithmetic and plain coefficient lists, so it shares no code
with exp_series, log_series, the jet layer, the floor oracle's slot walk
or the pencil oracle's modular certificates and Newton interpolation
that the tests compare it against.  The jet build shares only the echelon
form (JetSubspace) and the column order: what it checks is the row order.
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm, prod

from curvelab.germs import GermPoly
from curvelab.jets import JetSubspace, monomial_index
from curvelab.series import ChernPolynomial, TruncatedSeries

ONE = ChernPolynomial.constant(1)


def one_plus(s: TruncatedSeries) -> TruncatedSeries:
    """1 + s for a series s with zero constant term."""
    assert () not in s.coeffs
    return TruncatedSeries(s.weights, s.cap, {**s.coeffs, (): ONE})


def series_sum(a: TruncatedSeries, b: TruncatedSeries, c=1) -> TruncatedSeries:
    """a + c*b."""
    assert (a.weights, a.cap) == (b.weights, b.cap)
    out = dict(a.coeffs)
    for key, p in b.coeffs.items():
        out[key] = out.get(key, ChernPolynomial.zero()) + p.scale(c)
    return TruncatedSeries(a.weights, a.cap, out)


def series_product(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """a * b, dropping every product of weight beyond the cap."""
    assert (a.weights, a.cap) == (b.weights, b.cap)
    out = {}
    for ka, pa in a.coeffs.items():
        for kb, pb in b.coeffs.items():
            if a.key_weight(ka) + a.key_weight(kb) <= a.cap:
                key = tuple(sorted(ka + kb))
                out[key] = out.get(key, ChernPolynomial.zero()) + pa * pb
    return TruncatedSeries(a.weights, a.cap, out)


def power_sum_exp(s: TruncatedSeries) -> TruncatedSeries:
    """Reference exp: the sum of s^m/m! over m <= cap, by full products."""
    result = power = TruncatedSeries(s.weights, s.cap, {(): ONE})
    for m in range(1, s.cap + 1):
        power = series_product(power, s)
        result = series_sum(result, power, Fraction(1, factorial(m)))
    return result


def power_sum_log(t: TruncatedSeries) -> TruncatedSeries:
    """Reference log: the sum of (-1)^(m+1) u^m/m over m <= cap, u = t - 1."""
    power = TruncatedSeries(t.weights, t.cap, {(): ONE})
    u = series_sum(t, power, -1)
    result = TruncatedSeries(t.weights, t.cap)
    for m in range(1, t.cap + 1):
        power = series_product(power, u)
        result = series_sum(result, power, Fraction((-1) ** (m + 1), m))
    return result


def linear_substitute(f: GermPoly, a, b, c, d) -> GermPoly:
    """f with x -> a*x + b*y and y -> c*x + d*y substituted."""
    u = GermPoly({(1, 0): a, (0, 1): b})
    v = GermPoly({(1, 0): c, (0, 1): d})
    out = GermPoly.zero()
    for (i, j), coef in f.terms.items():
        term = GermPoly({(0, 0): coef})
        for factor in [u] * i + [v] * j:
            term = term * factor
        out = out + term
    return out


def ideal_by_generator(generators, K: int) -> JetSubspace:
    """The image in C{x,y}/m^K of the ideal generated by `generators`, built
    as the jet layer built it before it inserted rows in ascending degree:
    every multiple x^a y^b g of one generator, truncated at order K, before
    the next generator's."""
    space = JetSubspace()
    for g in generators:
        if g.is_zero():
            continue
        bound = K - 1 - g.multiplicity()
        for a in range(bound + 1):
            for b in range(bound + 1 - a):
                space.insert({
                    monomial_index(i + a, j + b): c
                    for (i, j), c in g.terms.items()
                    if i + j + a + b < K
                })
    return space


def _primitive(p: list) -> list:
    c = gcd(*p) or 1
    return [x // c for x in p]


def _pseudo_rem(u: list, v: list) -> list:
    u = list(u)
    while len(u) >= len(v):
        lead, shift = u[-1], len(u) - len(v)
        u = [c * v[-1] for c in u]
        for k, c in enumerate(v):
            u[k + shift] -= lead * c
        while u and u[-1] == 0:
            u.pop()
    return u


def poly_gcd(u: list, v: list) -> list:
    """Primitive gcd over Z of two integer coefficient lists (index =
    power, no trailing zeros), by the primitive pseudo-remainder sequence;
    [] when both are zero."""
    if not u or not v:
        return _primitive(u or v)
    u, v = _primitive(u), _primitive(v)
    while v:
        u, v = v, _primitive(_pseudo_rem(u, v))
    return u


def lagrange_interpolate(nodes: list, values: list) -> list:
    """Integer coefficient list (index = power, no trailing zeros) of the
    polynomial of degree < len(nodes) through (nodes, values), by
    Lagrange's formula over the common denominator of its weights; asserts
    that the interpolant has integer coefficients."""
    master = [1]  # the product of x - t over the nodes
    for t in nodes:
        master = [a - t * b for a, b in zip([0] + master, master + [0])]
    weights = [prod(t - s for s in nodes if s != t) for t in nodes]
    denom = lcm(*weights)
    total = [0] * len(nodes)
    for t, v, w in zip(nodes, values, weights):
        # master / (x - t) by synthetic division, from the top down
        carry, scale = 0, v * (denom // w)
        for k in range(len(nodes) - 1, -1, -1):
            carry = master[k + 1] + t * carry
            total[k] += scale * carry
    assert all(c % denom == 0 for c in total)
    total = [c // denom for c in total]
    while total and total[-1] == 0:
        total.pop()
    return total


def floor_markings(d: int, edges: list) -> int:
    """Reference marking count of a floor diagram on vertices 1..d with
    weighted edges (i, j, w), i < j.  Each edge carries one labeled mark,
    and each vertex v carries 1 - in(v) + out(v) of them (the diagram
    counts 0 if that is negative).  It counts the linear orders of
    the vertices and the marks that keep the vertices in order 1..d, put
    an edge's mark after its source and before its target and a vertex's
    marks before it, by a memoised count over (next vertex, set of placed
    marks).  That count, times the product of squared weights, is divided
    by the orders that permute a vertex's marks or identical edges."""
    ground = [1] * (d + 1)
    weight = 1
    for i, j, w in edges:
        ground[i] += w
        ground[j] -= w
        weight *= w * w
    if min(ground[1:]) < 0:
        return 0
    # a mark is (after, before): it follows vertex `after` (0: none)
    # and precedes vertex `before`
    marks = [(i, j) for i, j, _ in edges]
    marks += [(0, v) for v in range(1, d + 1) for _ in range(ground[v])]

    @lru_cache(maxsize=None)
    def orders(v: int, placed: frozenset) -> int:
        if v > d:
            return 1
        total = sum(
            orders(v, placed | {k})
            for k, (after, _) in enumerate(marks)
            if k not in placed and after < v
        )
        if all(k in placed for k, (_, before) in enumerate(marks) if before == v):
            total += orders(v + 1, placed)
        return total

    symmetries = 1
    for n in ground[1:] + list(Counter(edges).values()):
        symmetries *= factorial(n)
    labeled = orders(1, frozenset())
    assert labeled % symmetries == 0
    return weight * labeled // symmetries
