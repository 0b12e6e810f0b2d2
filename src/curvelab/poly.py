"""Sparse polynomials as dicts from exponent tuples to nonzero coefficients.

The term functions never coerce a coefficient, so integer terms stay
integers.  SparsePoly wraps a term dict of nonzero Fractions.
"""

from __future__ import annotations

from operator import add

from .errors import InputError


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
        # imported here: the oracles use only the term functions, and
        # fractions (with decimal) would cost every oracle command a few
        # milliseconds of start-up
        from fractions import Fraction

        table = {}
        if terms:
            for key, c in dict(terms).items():
                c = Fraction(c)
                if c != 0:
                    table[self._key(key)] = c
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
