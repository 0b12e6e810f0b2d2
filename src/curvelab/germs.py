"""Sparse two-variable polynomials over exact rationals, used as curve germs.

A germ is represented by its terms only: a dict mapping exponent pairs
(i, j) for x^i y^j to nonzero Fraction coefficients.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import InputError
from .poly import SparsePoly

# a term, read by fullmatch with its ASCII spaces removed: [n or n/m][x[^i]][y[^j]],
# not empty, with a '*' only after the coefficient or the x part, before a variable
_TERM_RE = re.compile(r"""(?=[0-9xy]) (?P<coeff>[0-9]+(?:/[0-9]+)?)?
    (?P<x>(?:(?<=[0-9])\*)?x(?:\^(?P<xe>[0-9]+))?)?
    (?P<y>(?:(?<=[0-9x])\*)?y(?:\^(?P<ye>[0-9]+))?)?""", re.VERBOSE)


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


def require_germ(f, at_origin: bool = True) -> GermPoly:
    """f, if it is a GermPoly that vanishes at the origin or `at_origin` is
    false (an ideal's generator may be a unit); else InputError."""
    if not isinstance(f, GermPoly):
        raise InputError(f"a germ must be a GermPoly, got {f!r}")
    if at_origin and f.constant_term() != 0:
        raise InputError("constant term nonzero: a germ must vanish at the origin")
    return f


def _parse_term(term: str) -> tuple[Fraction, int, int]:
    m = _TERM_RE.fullmatch(term.replace(" ", ""))
    if not m:
        raise InputError(f"cannot parse term {term!r}")
    coeff, x, xe, y, ye = m.group("coeff", "x", "xe", "y", "ye")
    try:
        return Fraction(coeff or 1), int(xe or x is not None), int(ye or y is not None)
    except ZeroDivisionError:
        raise InputError(f"zero denominator in term {term!r}") from None
    except ValueError:  # more digits than int() converts
        raise InputError(f"number too long in term {term!r}") from None


def parse_germ(text: str) -> GermPoly:
    """Parse an expression like "y^2 - x^3", "1/2*x*y + x^4" or "2xy^3".

    Terms, the first of which may carry a sign, are joined by + or -; each
    is [coeff][x[^i]][y[^j]] as `_TERM_RE` reads it.  The constant term must
    vanish (germs live in the maximal ideal).
    """
    if not isinstance(text, str):
        raise InputError(f"a germ expression must be a string, got {text!r}")
    s = text.strip()
    if not s:
        raise InputError("empty germ expression")
    pieces = re.split(r"([+-])", s if s[0] in "+-" else "+" + s)
    if not all(chunk.strip() for chunk in pieces[2::2]):
        raise InputError(f"dangling sign in {text!r}")
    terms = {}
    for sign, chunk in zip(pieces[1::2], pieces[2::2]):
        c, i, j = _parse_term(chunk.strip())
        terms[i, j] = terms.get((i, j), 0) + (c if sign == "+" else -c)
    return require_germ(GermPoly(terms))
