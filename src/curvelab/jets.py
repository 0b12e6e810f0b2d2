"""Jet-space linear algebra for curve germs and the invariants built on it.

Everything is reduced inside the finite quotient C{x,y}/m^K, where the
monomials x^i y^j with i + j < K form a basis.  Rows are kept sparse
(dict column -> Fraction) because generator families are often monomial
and the default non-isolation ceiling makes dense rows infeasible.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .errors import CeilingError, InputError, check_ceiling, is_int
from .germs import GermPoly

DEFAULT_CEILING = 64
# the scans of a non-isolated germ cost about 4.5 times more per doubling
# of the ceiling: `x^2*y^2` is refused in about 2 s of CPU at 512 (CPython 3.11)
MAX_CEILING = 512

_ZERO = Fraction(0)


def _tri(d: int) -> int:
    return d * (d + 1) // 2


def monomial_index(i: int, j: int) -> int:
    """Graded position of x^i y^j: blocks by total degree, x-power first."""
    return _tri(i + j) + j


def jet_dimension(order: int) -> int:
    """Number of monomials of total degree < order."""
    return _tri(order)


class JetSubspace:
    """Linear span of truncated polynomials, kept in echelon form."""

    def __init__(self):
        # pivot column -> row whose lowest column it is, scaled to 1 there
        self._pivots = {}

    @property
    def dimension(self) -> int:
        return len(self._pivots)

    def insert(self, row: dict) -> bool:
        """Add one vector; returns True if it enlarged the span.

        The row is reduced by the pivot rows, each step clearing its lowest
        column and touching only higher ones.  Where it meets a pivot row
        longer than itself, the two swap: the row becomes the pivot row of
        that column and the old pivot row is reduced on in its place.  That
        keeps pivot rows short and their coefficients small; the span and
        its pivots are the same whichever row holds a column.  The basis
        stays in echelon form only: reducing earlier rows by a new pivot
        would change no pivot, and the pivots are all that the invariants
        read.
        """
        row = dict(row)
        pivots = self._pivots
        while row:
            col = min(row)
            factor = row[col]
            pivot_row = pivots.get(col)
            if pivot_row is None or len(row) < len(pivot_row):
                if factor != 1:
                    inv = Fraction(1) / factor
                    row = {c: inv * v for c, v in row.items()}
                pivots[col] = row
                if pivot_row is None:
                    return True
                row, pivot_row, factor = pivot_row, row, 1
            for c, v in pivot_row.items():
                nv = row.get(c, _ZERO) - factor * v
                if nv:
                    row[c] = nv
                else:
                    del row[c]
        return False

    # Each pivot is the lowest column of its row and the columns are graded
    # by degree, so the pivots below jet_dimension(K) are exactly the pivots
    # of the same span truncated at any order K up to the one it was built at.

    def pivots_cover_degree(self, k: int) -> bool:
        """Whether the span truncated at order k + 1 holds every monomial
        of degree k, read off this (possibly higher-order) build."""
        return all(c in self._pivots for c in range(jet_dimension(k), jet_dimension(k + 1)))

    def standard_monomials(self, order: int) -> list:
        """Exponents (i, j) of the non-pivot monomials of degree < order: a
        basis of the quotient of C{x,y}/m^order by the truncated span."""
        return [
            (d - j, j)
            for d in range(order)
            for j in range(d + 1)
            if monomial_index(d - j, j) not in self._pivots
        ]


def _build(generators, K: int, stats: dict = None):
    """Build the image in C{x,y}/m^K of the ideal generated by `generators`,
    yielding (D, space) once every row of degree D is in, for D = 0..K - 1.

    The rows are x^a y^b g, truncated at order K, for the nonzero
    generators g, in ascending degree D = a + b + ord(g); multipliers of
    higher degree land every product inside m^K.  A row of degree D has
    its pivot at degree D or above, so at each yield the pivots below
    degree D + 1 are final: they are those of the order-(D + 1) image.
    If `stats` is a dict, it counts the builds (ideal_builds), the rows
    offered to the echelon form (rows_inserted) and the highest order a
    build reached (max_order).
    """
    gens = [(g.multiplicity(), g.terms.items()) for g in generators if not g.is_zero()]
    space = JetSubspace()
    if stats is not None:
        stats["ideal_builds"] = stats.get("ideal_builds", 0) + 1
    for D in range(K):
        rows = 0
        for m, terms in gens:
            for a in range(D - m + 1):
                b = D - m - a
                space.insert({
                    monomial_index(i + a, j + b): c
                    for (i, j), c in terms
                    if i + j + a + b < K
                })
                rows += 1
        if stats is not None:
            stats["rows_inserted"] = stats.get("rows_inserted", 0) + rows
            stats["max_order"] = max(stats.get("max_order", 0), D + 1)
        yield D, space


def ideal_in_jets(generators, truncation_order: int, stats: dict = None) -> JetSubspace:
    """Image in C{x,y}/m^K of the ideal generated by `generators`: the
    build of `_build` run to the end (see there for `stats`)."""
    K = truncation_order
    if not is_int(K) or K < 1:
        raise InputError("truncation order must be a positive integer")
    if not generators:
        raise InputError("need generators")
    for _, space in _build(generators, K, stats):
        pass
    return space


def _require_germ(f: GermPoly):
    if f.constant_term() != 0:
        raise InputError("constant term nonzero: not a germ at the origin")


def _saturation(gens, ceiling: int, stats: dict = None):
    """(K, space) for the least K <= ceiling + 1 at which the ideal spanned
    by gens holds every monomial of degree K - 1 modulo m^K, or None.

    By the Nakayama jet criterion the ideal then contains m^(K-1), and the
    quotient C{x,y}/I equals its image at order K - 1.  One build at order
    ceiling + 1 answers every K: it stops at the first degree D = K - 1
    whose monomials are all pivots, which are final by then.
    """
    for D, space in _build(gens, ceiling + 1, stats):
        if space.pivots_cover_degree(D):
            return D + 1, space
    return None


def _quotient_basis(gens, ceiling: int, stats: dict = None) -> list:
    """Standard monomials (i, j) spanning C{x,y}/I for the ideal I spanned
    by gens, so their number is the colength dim C{x,y}/I.

    I is read at the least order K <= ceiling + 1 at which it saturates;
    the basis is then the non-pivot monomials of degree < K - 1.  With no
    saturation up to the ceiling the scan cannot tell a non-isolated
    singularity from one that needs a higher ceiling.
    """
    check_ceiling(ceiling, "ceiling", MAX_CEILING)
    if all(g.is_zero() for g in gens):
        raise CeilingError("singularity not isolated: every generator vanishes")
    found = _saturation(gens, ceiling, stats)
    if found is None:
        raise CeilingError(
            f"singularity undecided up to ceiling {ceiling} (not isolated, or raise the ceiling)"
        )
    K, space = found
    return space.standard_monomials(K - 1)


def milnor_number(f: GermPoly, ceiling: int = DEFAULT_CEILING, stats: dict = None) -> int:
    """dim C{x,y}/(f_x, f_y); raises CeilingError on non-isolated germs."""
    _require_germ(f)
    return len(_quotient_basis([f.partial_x(), f.partial_y()], ceiling, stats))


def tjurina_basis(f: GermPoly, ceiling: int = DEFAULT_CEILING, stats: dict = None) -> list:
    """Standard monomials (i, j) spanning C{x,y}/(f, f_x, f_y)."""
    _require_germ(f)
    return _quotient_basis([f, f.partial_x(), f.partial_y()], ceiling, stats)


def tjurina_number(f: GermPoly, ceiling: int = DEFAULT_CEILING, stats: dict = None) -> int:
    """dim C{x,y}/(f, f_x, f_y)."""
    return len(tjurina_basis(f, ceiling, stats))


def _gradient_frame(f: GermPoly) -> list:
    fx, fy = f.partial_x(), f.partial_y()
    return [
        fx.mul_monomial(1, 0),
        fx.mul_monomial(0, 1),
        fy.mul_monomial(1, 0),
        fy.mul_monomial(0, 1),
        f,
    ]


def determinacy_window(
    f: GermPoly, ceiling: int = DEFAULT_CEILING, stats: dict = None
) -> tuple[int, int]:
    """(k_low, k_high): jets of order >= k_high determine the germ up to
    coordinate change, and k_low is the matching lower bound.
    """
    _require_germ(f)
    check_ceiling(ceiling, "ceiling", MAX_CEILING)
    found = _saturation(_gradient_frame(f), ceiling, stats)
    if found is None:
        raise CeilingError(f"determinacy exceeds ceiling {ceiling}")
    K = found[0]
    return (K - 2, K - 1)


def scheme_length(f: GermPoly, k: int, stats: dict = None) -> int:
    """Length of the order-k neighborhood scheme: dim C{x,y}/(f + m^{k+1})."""
    _require_germ(f)
    if not is_int(k) or k < 1:
        raise InputError("jet order must be a positive integer")
    return jet_dimension(k + 1) - ideal_in_jets([f], k + 1, stats).dimension


def orbit_tangent_dim(f: GermPoly, k: int, stats: dict = None) -> int:
    """Tangent dimension of the equivalence-class orbit inside order-k jets."""
    _require_germ(f)
    if not is_int(k) or k < 1:
        raise InputError("jet order must be a positive integer")
    return ideal_in_jets(_gradient_frame(f), k + 1, stats).dimension


def dim_s0(f: GermPoly, k: int, stats: dict = None) -> int:
    """dim S_0: the dimension of the locally closed set of order-k jets
    equivalent to f, counted inside the versal slice.
    """
    return _dim_s0_from_orbit(f, k, orbit_tangent_dim(f, k, stats))


def _dim_s0_from_orbit(f: GermPoly, k: int, orbit: int) -> int:
    """dim S_0 from orbit = orbit_tangent_dim(f, k)."""
    m = f.multiplicity()
    cut = k + 1 - m
    if cut < 1:
        raise InputError(f"jet order {k} too small for multiplicity {m}")
    return 2 + orbit - jet_dimension(cut)


class InvariantReport(namedtuple(
    "InvariantReport",
    "expression milnor tjurina multiplicity determinacy_window k_used scheme_length_at "
    "orbit_tangent_dim dim_s0",
)):
    """The invariants `germ_report` computes for one germ; `scheme_length_at`
    maps a jet order k to the scheme length N there."""

    __slots__ = ()

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


def germ_report(
    f: GermPoly, k: int = None, ceiling: int = DEFAULT_CEILING, stats: dict = None
) -> InvariantReport:
    """Full invariant report at jet order k (default: upper determinacy bound).

    The ceiling bounds k as it bounds the scans: a k above it raises
    CeilingError before any build, since the order-(k+1) builds grow with k.
    If `stats` is a dict, it receives the jet counters of `_build`
    summed over every build the report makes, one per ideal.
    """
    _require_germ(f)
    check_ceiling(ceiling, "ceiling", MAX_CEILING)
    if k is not None:
        if not is_int(k) or k < 1:
            raise InputError("jet order must be a positive integer")
        if k > ceiling:
            raise CeilingError(f"jet order k = {k} exceeds ceiling {ceiling} (raise the ceiling)")
    mu = milnor_number(f, ceiling, stats)
    tau = tjurina_number(f, ceiling, stats)
    window = determinacy_window(f, ceiling, stats)
    if k is None:
        k = window[1]
    orbit = orbit_tangent_dim(f, k, stats)
    return InvariantReport(
        expression=f.to_string(),
        milnor=mu,
        tjurina=tau,
        multiplicity=f.multiplicity(),
        determinacy_window=window,
        k_used=k,
        scheme_length_at={k: scheme_length(f, k, stats)},
        orbit_tangent_dim=orbit,
        dim_s0=_dim_s0_from_orbit(f, k, orbit),
    )
