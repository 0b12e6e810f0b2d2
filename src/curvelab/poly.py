"""Polynomials as sparse dicts from exponent tuples to nonzero coefficients,
whose term functions never coerce a coefficient, so integer terms stay
integers (SparsePoly wraps a term dict of nonzero Fractions); the exact
row echelon of sparse rational rows (RowEchelon); and the dense integer
kernel on Z[x] lists and Z[x][y] rows at the end.
"""

from __future__ import annotations

from functools import reduce
from itertools import zip_longest
from operator import add

from .errors import InconsistencyError, InputError


def add_terms(a: dict, b: dict, sign: int = 1) -> dict:
    """Terms of a + sign * b, without the ones that cancel."""
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) + sign * c
    return {k: c for k, c in out.items() if c}


def mul_terms(a: dict, b: dict) -> dict:
    """Terms of a * b, without the ones that cancel."""
    out = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            k = tuple(map(add, k1, k2))
            out[k] = out.get(k, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def partial_terms(a: dict, var: int) -> dict:
    """Terms of the derivative of a by its variable number `var`."""
    out = {}
    for k, c in a.items():
        e = k[var]
        if e > 0:
            out[k[:var] + (e - 1,) + k[var + 1:]] = c * e
    return out


def format_rational(q) -> str:
    """'n' or 'n/d' for a value with .numerator and .denominator."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


class SparsePoly:
    """Polynomial over exact rationals; a subclass names its variables in
    VARS and says in KEY_RULE what an exponent tuple must be."""

    __slots__ = ("terms",)
    VARS: tuple = ()
    KEY_RULE = ""

    @classmethod
    def _key(cls, key) -> tuple:
        """The caller's key as an exponent tuple: one nonnegative int per
        variable, or InputError."""
        try:
            key = tuple(key)
        except TypeError:
            raise InputError(f"{cls.KEY_RULE}, got {key!r}") from None
        if len(key) != len(cls.VARS) or not all(type(e) is int and e >= 0 for e in key):
            raise InputError(f"{cls.KEY_RULE}, got {list(key)!r}")
        return key

    def __init__(self, terms=None):
        # imported here: the oracles use only the integer kernel, and
        # fractions (with decimal) would cost every oracle command a few
        # milliseconds of start-up
        from fractions import Fraction

        table = {}
        if terms:
            try:
                for key, c in dict(terms).items():
                    c = Fraction(c)
                    if c != 0:
                        table[self._key(key)] = c
            except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
                raise InputError(
                    f"polynomial terms map exponent tuples to rationals, got {terms!r}"
                ) from exc
        self.terms = table

    @classmethod
    def _of(cls, terms: dict):
        """Wrap nonzero Fractions keyed by exponent tuples, unchecked."""
        poly = cls.__new__(cls)
        poly.terms = terms
        return poly

    @classmethod
    def zero(cls):
        return cls()

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        return max((sum(k) for k in self.terms), default=0)

    def __eq__(self, other):
        return type(other) is type(self) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def _terms_of(self, other) -> dict:
        if type(other) is not type(self):
            raise TypeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        return other.terms

    def __add__(self, other):
        return self._of(add_terms(self.terms, self._terms_of(other)))

    def __sub__(self, other):
        return self._of(add_terms(self.terms, self._terms_of(other), -1))

    def __mul__(self, other):
        return self._of(mul_terms(self.terms, self._terms_of(other)))

    def scale(self, c):
        from fractions import Fraction

        c = Fraction(c)
        return self._of({k: c * v for k, v in self.terms.items()} if c else {})

    def partial(self, var: int):
        """Derivative by the variable VARS[var]."""
        return self._of(partial_terms(self.terms, var))

    def to_string(self) -> str:
        """Terms by total degree, then by descending exponents."""
        if not self.terms:
            return "0"
        parts = []
        for key in sorted(self.terms, key=lambda k: (sum(k), tuple(-e for e in k))):
            text = format_rational(self.terms[key])
            negative = text[0] == "-"
            mag = text[1:] if negative else text
            body = "*".join(
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(self.VARS, key)
                if e
            )
            if body:
                text = body if mag == "1" else f"{mag}*{body}"
            else:
                text = mag
            if not parts:
                parts.append(f"-{text}" if negative else text)
            else:
                parts.append(f"- {text}" if negative else f"+ {text}")
        return " ".join(parts)

    def __repr__(self):
        return f"{type(self).__name__}({self.to_string()})"


class RowEchelon:
    """Span of sparse rational rows (dicts column -> nonzero Fraction),
    kept in row echelon form: the one exact elimination of the jet lab's
    quotients and of the fit's linear solves."""

    def __init__(self):
        # pivot column -> row whose lowest column it is, scaled to 1 there
        self.pivots = {}

    def insert(self, row: dict) -> bool:
        """Add one vector; returns True if it enlarged the span.

        The row is reduced by the pivot rows, each step clearing its lowest
        column and touching only higher ones.  Where it meets a pivot row
        longer than itself, the two swap: the row becomes the pivot row of
        that column and the old pivot row is reduced on in its place.  That
        keeps pivot rows short and their coefficients small; the span and
        its pivots are the same whichever row holds a column.  The basis
        stays in echelon form only: reducing earlier rows by a new pivot
        would change no pivot, and back-substitution needs no more.
        """
        row = dict(row)
        pivots = self.pivots
        while row:
            col = min(row)
            factor = row[col]
            pivot_row = pivots.get(col)
            if pivot_row is None or len(row) < len(pivot_row):
                if factor != 1:
                    inv = 1 / factor
                    row = {c: inv * v for c, v in row.items()}
                pivots[col] = row
                if pivot_row is None:
                    return True
                row, pivot_row, factor = pivot_row, row, 1
            for c, v in pivot_row.items():
                nv = row.get(c)
                nv = -factor * v if nv is None else nv - factor * v
                if nv:
                    row[c] = nv
                else:
                    del row[c]
        return False


# ---------------------------------------------------------------------------
# the integer kernel: Z[x] as int lists (index = power of x) and Z[x][y] as
# y-rows, lists over the powers of y of Z[x] lists; every list is trimmed


def trim_poly(p: list) -> list:
    """p without its zero top entries: ints, or x-polynomials in a y-list."""
    while p and not p[-1]:
        p.pop()
    return p


def poly_derivative(p: list) -> list:
    return trim_poly([k * c for k, c in enumerate(p)][1:])


def poly_mul(p: list, q: list) -> list:
    out = [0] * (len(p) + len(q) - 1)
    for i, c in enumerate(p):
        for j, d in enumerate(q):
            out[i + j] += c * d
    return trim_poly(out)


def poly_pow(p: list, e: int) -> list:
    return reduce(poly_mul, [p] * e, [1])


def poly_sub(p: list, q: list) -> list:
    return trim_poly([c - d for c, d in zip_longest(p, q, fillvalue=0)])


def exact_quotient(p: list, q: list) -> list:
    """p / q in Z[x] for q nonzero; InconsistencyError unless q divides p
    (a step that does not divide leaves its remainder above later steps)."""
    p = list(p)
    quotient = [0] * max(len(p) - len(q) + 1, 0)
    for k in range(len(quotient) - 1, -1, -1):
        quotient[k] = p[k + len(q) - 1] // q[-1]
        for i, d in enumerate(q):
            p[k + i] -= quotient[k] * d
    if any(p):
        raise InconsistencyError("subresultant division left a remainder")
    return quotient


def mul_rows(a: list, b: list) -> list:
    """a * b of two y-row polynomials."""
    out = [[] for _ in range(len(a) + len(b) - 1)]
    for j, p in enumerate(a):
        for k, q in enumerate(b):
            out[j + k] = [c + d for c, d in zip_longest(out[j + k], poly_mul(p, q), fillvalue=0)]
    return trim_poly([trim_poly(row) for row in out])


def sub_rows(a: list, b: list) -> list:
    """a - b of two y-row polynomials."""
    return trim_poly([poly_sub(p, q) for p, q in zip_longest(a, b, fillvalue=[])])


def partial_rows(a: list, var: int) -> list:
    """The derivative of a y-row polynomial by x (var 0) or by y (var 1)."""
    if var == 0:
        return trim_poly([poly_derivative(row) for row in a])
    return [[j * c for c in row] for j, row in enumerate(a)][1:]


def subresultant(a: list, b: list) -> list:
    """Res_y(a, b) in Z[x] of two y-row polynomials, with the Sylvester
    determinant's sign; [] when it is zero.  Collins's subresultant PRS
    (Cohen, Alg. 3.3.7, without the content step): every division is
    exact in Z[x], and exact_quotient raises if one is not.
    """
    if not a or not b:
        return []
    sign = 1
    if len(a) < len(b):
        a, b = b, a
        sign = (-1) ** ((len(a) - 1) * (len(b) - 1))
    g = h = [1]
    # deg a > deg b after the first step, so only a first step, where
    # h = [1], may have delta = 0, and h**-1 is read as h**0 there
    while len(b) > 1:
        delta = len(a) - len(b)
        sign *= (-1) ** ((len(a) - 1) * (len(b) - 1))
        r = pseudo_remainder(a, b)
        if not r:
            return []
        divisor = poly_mul(g, poly_pow(h, delta))
        a, b = b, [exact_quotient(c, divisor) for c in r]
        g = a[-1]
        h = exact_quotient(poly_pow(g, delta), poly_pow(h, max(delta - 1, 0)))
    # deg b = 0: the resultant is b**deg a / h**(deg a - 1)
    res = exact_quotient(poly_pow(b[0], len(a) - 1), poly_pow(h, max(len(a) - 2, 0)))
    return [sign * c for c in res]


def pseudo_remainder(a: list, b: list) -> list:
    """lc(b)**(deg a - deg b + 1) * a mod b in y, over Z[x]."""
    lead_b, n = b[-1], len(b) - 1
    r = list(a)
    for k in range(len(a) - 1, n - 1, -1):
        lead = r.pop()
        r = [poly_mul(lead_b, c) for c in r]
        for i in range(n):
            r[k - n + i] = poly_sub(r[k - n + i], poly_mul(lead, b[i]))
    return trim_poly(r)
