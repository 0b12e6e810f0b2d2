"""Sparse two-variable polynomials over exact rationals, used as curve germs.

A germ is represented by its terms only: a dict mapping exponent pairs
(i, j) for x^i y^j to nonzero Fraction coefficients.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import InputError
from .poly import SparsePoly

_TERM_RE = re.compile(
    r"""^
    (?:(?P<coeff>[0-9]+(?:/[0-9]+)?)(?P<star1>\*)?)?
    (?:x(?:\^(?P<xe>[0-9]+))?)?
    (?P<star2>\*)?
    (?:y(?:\^(?P<ye>[0-9]+))?)?
    $""",
    re.VERBOSE,
)


class GermPoly(SparsePoly):
    """Polynomial f(x, y) with rational coefficients, sparse term table."""

    __slots__ = ()
    VARS = ("x", "y")
    KEY_RULE = "a germ monomial needs two nonnegative integer exponents"

    def constant_term(self) -> Fraction:
        return self.terms.get((0, 0), Fraction(0))

    def multiplicity(self) -> int:
        """Lowest total degree of a term; the multiplicity m(f)."""
        if not self.terms:
            raise InputError("zero polynomial has no multiplicity")
        return min(i + j for (i, j) in self.terms)

    def mul_monomial(self, a: int, b: int) -> "GermPoly":
        return GermPoly({(i + a, j + b): c for (i, j), c in self.terms.items()})

    def partial_x(self) -> "GermPoly":
        return self.partial(0)

    def partial_y(self) -> "GermPoly":
        return self.partial(1)


def _parse_term(text: str) -> tuple[Fraction, int, int]:
    t = text.replace(" ", "")
    m = _TERM_RE.match(t)
    if not m or not t:
        raise InputError(f"cannot parse term {text!r}")
    coeff, xe, ye = m.group("coeff"), m.group("xe"), m.group("ye")
    has_x = "x" in t
    has_y = "y" in t
    if coeff is None and not has_x and not has_y:
        raise InputError(f"cannot parse term {text!r}")
    if m.group("star1") and not (has_x or has_y):
        raise InputError(f"dangling '*' in term {text!r}")
    if m.group("star2") and not (has_x and has_y):
        raise InputError(f"misplaced '*' in term {text!r}")
    try:
        c = Fraction(coeff) if coeff is not None else Fraction(1)
        i = int(xe) if xe is not None else (1 if has_x else 0)
        j = int(ye) if ye is not None else (1 if has_y else 0)
    except ZeroDivisionError:
        raise InputError(f"zero denominator in term {text!r}") from None
    except ValueError:  # more digits than int() converts
        raise InputError(f"number too long in term {text!r}") from None
    return c, i, j


def parse_germ(text: str) -> GermPoly:
    """Parse an expression like "y^2 - x^3" or "1/2*x*y + x^4".

    Terms are joined by + or -; each term is [coeff][*]x[^i][*][y[^j]] with
    an integer or p/q rational coefficient. The constant term must vanish
    (germs live in the maximal ideal).
    """
    s = text.strip()
    if not s:
        raise InputError("empty germ expression")
    pieces = re.split(r"([+-])", s)
    signed = []
    if pieces[0].strip():
        signed.append((1, pieces[0]))
    i = 1
    while i < len(pieces):
        sign = 1 if pieces[i] == "+" else -1
        if i + 1 >= len(pieces) or not pieces[i + 1].strip():
            raise InputError(f"dangling sign in {text!r}")
        signed.append((sign, pieces[i + 1]))
        i += 2
    if not signed:
        raise InputError(f"cannot parse {text!r}")
    terms = {}
    for sign, chunk in signed:
        c, xi, yj = _parse_term(chunk.strip())
        key = (xi, yj)
        terms[key] = terms.get(key, Fraction(0)) + sign * c
    f = GermPoly(terms)
    if f.constant_term() != 0:
        raise InputError("constant term nonzero: a germ must vanish at the origin")
    return f
