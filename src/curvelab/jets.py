"""Jet-space linear algebra for curve germs and the invariants built on it.

Everything is reduced inside the finite quotient C{x,y}/m^K, where the
monomials x^i y^j with i + j < K form a basis.  Rows are kept sparse
(dict column -> Fraction) because generator families are often monomial
and the default non-isolation ceiling makes dense rows infeasible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import CeilingError, InputError
from .germs import GermPoly

DEFAULT_CEILING = 64


def _tri(d: int) -> int:
    return d * (d + 1) // 2


def monomial_index(i: int, j: int) -> int:
    """Graded position of x^i y^j: blocks by total degree, x-power first."""
    return _tri(i + j) + j


def jet_dimension(order: int) -> int:
    """Number of monomials of total degree < order."""
    return _tri(order)


class JetSubspace:
    """Linear span of truncated polynomials, kept in reduced echelon form."""

    def __init__(self, truncation_order: int):
        if not isinstance(truncation_order, int) or truncation_order < 1:
            raise InputError("truncation order must be a positive integer")
        self.truncation_order = truncation_order
        self._pivots = {}  # pivot column -> reduced row (dict col -> Fraction)

    @property
    def dimension(self) -> int:
        return len(self._pivots)

    def _reduce(self, row: dict) -> dict:
        row = dict(row)
        while row:
            col = min(row)
            pivot_row = self._pivots.get(col)
            if pivot_row is None:
                return row
            factor = row[col]
            for c, v in pivot_row.items():
                nv = row.get(c, Fraction(0)) - factor * v
                if nv:
                    row[c] = nv
                else:
                    row.pop(c, None)
        return row

    def insert(self, row: dict) -> bool:
        """Add one vector; returns True if it enlarged the span."""
        red = self._reduce(row)
        if not red:
            return False
        col = min(red)
        inv = Fraction(1) / red[col]
        red = {c: inv * v for c, v in red.items()}
        # keep the basis fully reduced so membership tests are one pass
        for prow in self._pivots.values():
            f = prow.get(col)
            if f is None:
                continue
            for c, v in red.items():
                nv = prow.get(c, Fraction(0)) - f * v
                if nv:
                    prow[c] = nv
                else:
                    prow.pop(c, None)
        self._pivots[col] = red
        return True

    def insert_poly(self, f: GermPoly) -> bool:
        K = self.truncation_order
        row = {
            monomial_index(i, j): c
            for (i, j), c in f.terms.items()
            if i + j < K
        }
        return self.insert(row)

    def contains(self, row: dict) -> bool:
        return not self._reduce(row)

    def contains_monomial(self, i: int, j: int) -> bool:
        if i + j >= self.truncation_order:
            return True
        return self.contains({monomial_index(i, j): Fraction(1)})

    def contains_all_of_degree(self, k: int) -> bool:
        return all(self.contains_monomial(k - j, j) for j in range(k + 1))


def ideal_in_jets(generators, include_power=None, truncation_order: int = None) -> JetSubspace:
    """Image in C{x,y}/m^K of the ideal generated by `generators`,
    together with m^p when include_power = p is given.

    Multipliers of degree up to K - 1 - ord(g) against each generator g
    are enough: higher multipliers land every product inside m^K.
    """
    K = truncation_order
    if K is None:
        raise InputError("truncation order is required")
    if not isinstance(K, int) or K < 1:
        raise InputError("truncation order must be a positive integer")
    if (generators is None or len(generators) == 0) and include_power is None:
        raise InputError("need generators or a power of the maximal ideal")
    gens = [g for g in (generators or []) if not g.is_zero()]
    space = JetSubspace(K)
    for g in gens:
        bound = K - 1 - g.multiplicity()
        for a in range(bound + 1):
            for b in range(bound + 1 - a):
                space.insert_poly(g.mul_monomial(a, b))
    if include_power is not None:
        p = include_power
        if not isinstance(p, int) or p < 0:
            raise InputError("power of the maximal ideal must be a nonnegative integer")
        for d in range(p, K):
            for j in range(d + 1):
                space.insert({monomial_index(d - j, j): Fraction(1)})
    return space


def _require_germ(f: GermPoly):
    if f.constant_term() != 0:
        raise InputError("constant term nonzero: not a germ at the origin")


def _require_ceiling(ceiling: int):
    # below 1 no order is scanned, and "not isolated up to ceiling 0"
    # would report a limit that nothing reached
    if ceiling < 1:
        raise InputError(f"ceiling must be at least 1, got {ceiling}")


def _quotient_colength(gens, ceiling: int, what: str) -> int:
    """dim C{x,y}/I for the ideal spanned by gens, via jet saturation.

    Scans truncation orders until all top-degree monomials lie in the
    truncated ideal; by the Nakayama jet criterion the quotient then
    equals its image at that order.
    """
    _require_ceiling(ceiling)
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise CeilingError(f"{what} not isolated up to ceiling {ceiling}")
    for K in range(1, ceiling + 2):
        space = ideal_in_jets(gens, None, K)
        if space.contains_all_of_degree(K - 1):
            if K == 1:
                return 0
            return jet_dimension(K - 1) - ideal_in_jets(gens, None, K - 1).dimension
    raise CeilingError(f"{what} not isolated up to ceiling {ceiling}")


def milnor_number(f: GermPoly, ceiling: int = DEFAULT_CEILING) -> int:
    """dim C{x,y}/(f_x, f_y); raises CeilingError on non-isolated germs."""
    _require_germ(f)
    return _quotient_colength([f.partial_x(), f.partial_y()], ceiling, "singularity")


def tjurina_number(f: GermPoly, ceiling: int = DEFAULT_CEILING) -> int:
    """dim C{x,y}/(f, f_x, f_y)."""
    _require_germ(f)
    return _quotient_colength([f, f.partial_x(), f.partial_y()], ceiling, "singularity")


def _gradient_frame(f: GermPoly) -> list:
    fx, fy = f.partial_x(), f.partial_y()
    return [
        fx.mul_monomial(1, 0),
        fx.mul_monomial(0, 1),
        fy.mul_monomial(1, 0),
        fy.mul_monomial(0, 1),
        f,
    ]


def determinacy_window(f: GermPoly, ceiling: int = DEFAULT_CEILING) -> tuple[int, int]:
    """(k_low, k_high): jets of order >= k_high determine the germ up to
    coordinate change, and k_low is the matching lower bound.
    """
    _require_germ(f)
    _require_ceiling(ceiling)
    gens = [g for g in _gradient_frame(f) if not g.is_zero()]
    if not gens:
        raise CeilingError(f"determinacy exceeds ceiling {ceiling}")
    for k in range(1, ceiling + 1):
        space = ideal_in_jets(gens, None, k + 1)
        if space.contains_all_of_degree(k):
            return (k - 1, k)
    raise CeilingError(f"determinacy exceeds ceiling {ceiling}")


def scheme_length(f: GermPoly, k: int) -> int:
    """Length of the order-k neighborhood scheme: dim C{x,y}/(f + m^{k+1})."""
    _require_germ(f)
    if not isinstance(k, int) or k < 1:
        raise InputError("jet order must be a positive integer")
    return jet_dimension(k + 1) - ideal_in_jets([f], None, k + 1).dimension


def orbit_tangent_dim(f: GermPoly, k: int) -> int:
    """Tangent dimension of the equivalence-class orbit inside order-k jets."""
    _require_germ(f)
    if not isinstance(k, int) or k < 1:
        raise InputError("jet order must be a positive integer")
    return ideal_in_jets(_gradient_frame(f), k + 1, k + 1).dimension


def dim_equisingular_stratum_analytic(f: GermPoly, k: int) -> int:
    """dim of the locally closed set of order-k jets equivalent to f,
    counted inside the versal slice; written dim S_0 below.
    """
    _require_germ(f)
    if not isinstance(k, int) or k < 1:
        raise InputError("jet order must be a positive integer")
    m = f.multiplicity()
    cut = k + 1 - m
    if cut < 1:
        raise InputError(f"jet order {k} too small for multiplicity {m}")
    return 2 + orbit_tangent_dim(f, k) - jet_dimension(cut)


# keep the operation name short in the public API
dim_s0 = dim_equisingular_stratum_analytic


@dataclass
class InvariantReport:
    expression: str
    milnor: int
    tjurina: int
    multiplicity: int
    determinacy_window: tuple[int, int]
    k_used: int
    scheme_length_at: dict = field(default_factory=dict)
    orbit_tangent_dim: int = 0
    dim_s0: int = 0

    def to_dict(self) -> dict:
        return {
            "expression": self.expression,
            "milnor": self.milnor,
            "tjurina": self.tjurina,
            "multiplicity": self.multiplicity,
            "determinacy_window": list(self.determinacy_window),
            "k_used": self.k_used,
            "scheme_length_at": {str(k): v for k, v in self.scheme_length_at.items()},
            "orbit_tangent_dim": self.orbit_tangent_dim,
            "dim_s0": self.dim_s0,
        }


def germ_report(f: GermPoly, k: int = None, ceiling: int = DEFAULT_CEILING) -> InvariantReport:
    """Full invariant report at jet order k (default: upper determinacy bound)."""
    _require_germ(f)
    mu = milnor_number(f, ceiling)
    tau = tjurina_number(f, ceiling)
    window = determinacy_window(f, ceiling)
    if k is None:
        k = window[1]
    return InvariantReport(
        expression=f.to_string(),
        milnor=mu,
        tjurina=tau,
        multiplicity=f.multiplicity(),
        determinacy_window=window,
        k_used=k,
        scheme_length_at={k: scheme_length(f, k)},
        orbit_tangent_dim=orbit_tangent_dim(f, k),
        dim_s0=dim_s0(f, k),
    )
