"""Reference algebra for the suites: the power-sum exp and log of a
TruncatedSeries, series sums and products, linear coordinate changes of a
germ, the exact integer gcd of univariate polynomials, the Sylvester
matrix of two integer polynomials and its determinant, Lagrange
interpolation of an integer polynomial, the resultant in y of two integer
polynomials in x and y interpolated from those determinants, the Milnor
numbers of Kouchnirenko and of Milnor and Orlik, the marking count of a
floor diagram and the generator-by-generator jet build.  Apart from that
build, all of it is written on the public coefficient dicts, the
polynomial arithmetic and plain coefficient lists, so it shares no code
with exp_series, log_series, the jet layer, the floor oracle's slot walk
or the pencil oracle's modular certificates and subresultant PRS that
the tests compare it against.  The jet build shares only the echelon
form (JetSubspace) and the column order: what it checks is the row order.
The Milnor number as the intersection number of the partials takes its
resultant from the subresultant PRS of curvelab.poly, which the kernel
and pencil tests check against the interpolated resultant, and shares no
code with the jet layer it is compared with.
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm, prod

from curvelab.germs import GermPoly
from curvelab.jets import JetSubspace, monomial_index
from curvelab.poly import subresultant
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


def sylvester_matrix(a: list, b: list) -> list:
    """The Sylvester matrix of two integer coefficient lists (index =
    power), of formal degrees len(a) - 1 and len(b) - 1 even when their top
    coefficients vanish: the n = len(b) - 1 shifted rows of a, then the
    m = len(a) - 1 of b, highest power first."""
    m, n = len(a) - 1, len(b) - 1
    rows = [[0] * s + a[::-1] + [0] * (n - 1 - s) for s in range(n)]
    return rows + [[0] * s + b[::-1] + [0] * (m - 1 - s) for s in range(m)]


def sylvester_det(a: list, b: list) -> int:
    """Determinant of sylvester_matrix(a, b) by fraction-free Bareiss
    elimination over Z, with row swaps: each step's division by the
    previous pivot is exact."""
    rows = sylvester_matrix(a, b)
    size, sign, previous = len(rows), 1, 1
    for k in range(size):
        pivot = next((r for r in range(k, size) if rows[r][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            sign = -sign
        for r in range(k + 1, size):
            for c in range(k + 1, size):
                rows[r][c] = (rows[r][c] * rows[k][k] - rows[r][k] * rows[k][c]) // previous
        previous = rows[k][k]
    return sign * previous


def _edge_is_squarefree(terms: dict, start: tuple, end: tuple) -> bool:
    """Whether the edge polynomial p(t) = sum_k c_k t^k of a germ's integer
    terms ((i, j) -> c) along the segment from start to end, i rising and j
    falling, c_k at its k-th lattice point, has no zero root and
    gcd(p, p') = 1 over Q: no root of p is zero or repeated."""
    n = gcd(end[0] - start[0], start[1] - end[1])
    di, dj = (end[0] - start[0]) // n, (start[1] - end[1]) // n
    p = [terms.get((start[0] + k * di, start[1] - k * dj), 0) for k in range(n + 1)]
    return p[0] != 0 and len(poly_gcd(p, [k * c for k, c in enumerate(p)][1:])) == 1


def kouchnirenko_mu(terms: dict):
    """Kouchnirenko's Milnor number 2V - a - b + 1 of a convenient germ
    with integer terms ((i, j) -> c): x^a and y^b are its least pure powers
    and V is the area under its Newton polygon.  None unless the germ is
    convenient and Newton non-degenerate, which is certified exactly, edge
    by edge (_edge_is_squarefree): the formula holds only then."""
    support = [key for key, c in terms.items() if c]
    xs = [i for i, j in support if j == 0]
    ys = [j for i, j in support if i == 0]
    if not xs or not ys:
        return None
    a, b = min(xs), min(ys)
    (i0, j0), twice_area = (0, b), 0
    while j0 > 0:
        # the next vertex: the steepest step down, the farthest on a tie
        i1, j1 = min(((i, j) for i, j in support if i > i0),
                     key=lambda p: (Fraction(p[1] - j0, p[0] - i0), -p[0]))
        if not _edge_is_squarefree(terms, (i0, j0), (i1, j1)):
            return None
        twice_area += (i1 - i0) * (j0 + j1)
        i0, j0 = i1, j1
    return twice_area - a - b + 1


def milnor_orlik_mu(terms: dict, w1: int, w2: int):
    """Milnor and Orlik's Milnor number (D/w1 - 1)(D/w2 - 1) of a germ with
    integer terms ((i, j) -> c), all of weighted degree D = w1*i + w2*j.
    None unless the germ is weighted homogeneous and reduced, so that its
    singularity is isolated: it is x^i0 * y^j1 times a product of the
    factors (x^s - r*y^t) over the roots r of its one edge polynomial, so
    it is reduced when i0, j1 <= 1 and that polynomial is squarefree."""
    support = sorted(key for key, c in terms.items() if c)
    degrees = {w1 * i + w2 * j for i, j in support}
    if len(degrees) != 1:
        return None
    (D,) = degrees
    (i0, j0), (i1, j1) = support[0], support[-1]
    if i0 > 1 or j1 > 1 or (i1 > i0 and not _edge_is_squarefree(terms, (i0, j0), (i1, j1))):
        return None
    mu = (Fraction(D, w1) - 1) * (Fraction(D, w2) - 1)
    assert mu.denominator == 1
    return mu.numerator


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


def _at(p: list, t: int) -> int:
    return sum(c * t**k for k, c in enumerate(p))


def interpolated_resultant(a: list, b: list) -> list:
    """Res_y(a, b) of two polynomials given as y-rows (a list over the
    powers of y of integer coefficient lists over the powers of x, all
    trimmed), interpolated from Sylvester determinants at one more integer
    node than a bound on its x-degree: the lesser of the bidegree bound
    and Bezout's, the product of the total degrees."""
    m, n = len(a) - 1, len(b) - 1

    def total_degree(rows):
        return max(j + len(row) - 1 for j, row in enumerate(rows) if row)

    nodes = range(min(n * max(map(len, a)) + m * max(map(len, b)) - m - n,
                      total_degree(a) * total_degree(b)) + 1)
    return lagrange_interpolate(
        nodes, [sylvester_det([_at(p, t) for p in a], [_at(p, t) for p in b]) for t in nodes])


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


def _trimmed(p: list) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p


def _integer_y_rows(p: GermPoly) -> list:
    """p times the lcm of its denominators, as a list over the powers of y
    of integer coefficient lists over the powers of x, all trimmed."""
    if p.is_zero():
        return []
    scale = lcm(*(Fraction(c).denominator for c in p.terms.values()))
    rows = [[] for _ in range(max(j for _, j in p.terms) + 1)]
    for (i, j), c in p.terms.items():
        rows[j] += [0] * (i + 1 - len(rows[j]))
        rows[j][i] = int(c * scale)
    return rows


def resultant_mu(f: GermPoly):
    """The Milnor number i0(f_x, f_y) of f as the order at x = 0 of
    Res_y(f_x, f_y) (Fulton, Algebraic Curves, on resultants and
    intersection numbers), or None when that resultant is zero, as it is
    when the partials share a factor.  The order counts every common point
    of the partials on the line x = 0, and a point at infinity on it when
    both top y-coefficients vanish at x = 0.  So f is sheared first, by
    x -> x + c*y for c = 0, 1, ..., until the gcd over Q of f_x(0, y) and
    f_y(0, y) is a power of y and a top y-coefficient is nonzero at x = 0.
    """
    for c in range(8):
        g = linear_substitute(f, 1, c, 0, 1)
        a, b = _integer_y_rows(g.partial_x()), _integer_y_rows(g.partial_y())
        if not a or not b:
            return None
        on_line = poly_gcd(*(_trimmed([row[0] if row else 0 for row in p]) for p in (a, b)))
        if on_line and not any(on_line[:-1]) and (a[-1][0] or b[-1][0]):
            resultant = subresultant(a, b)
            return next((i for i, coef in enumerate(resultant) if coef), None)
    raise AssertionError(f"no shear x -> x + c*y, c < 8, certifies {f.to_string()}")
