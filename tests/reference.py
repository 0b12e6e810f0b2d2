"""Reference algebra for the suites: the power-sum exp and log of a
TruncatedSeries, series sums and products, linear coordinate changes of a
germ, and the exact integer gcd of univariate polynomials.  All of it is
written on the public coefficient dicts, the polynomial arithmetic and
plain coefficient lists, so it shares no code with exp_series,
log_series, the jet layer or the pencil oracle's modular certificates that
the tests compare it against.
"""

from fractions import Fraction
from math import factorial, gcd

from curvelab.germs import GermPoly
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
