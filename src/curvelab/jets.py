"""Jet-space linear algebra for curve germs and the invariants built on it.

Everything is reduced inside the finite quotient C{x,y}/m^K, where the
monomials x^i y^j with i + j < K form a basis.  Rows are kept sparse
(dict column -> Fraction) because generator families are often monomial
and a non-isolated germ is scanned up to its Bézout bound, where dense
rows are infeasible.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import CeilingError, InputError, is_int
from .germs import GermPoly, require_germ
from .poly import RowEchelon

# every jet build stops by order MAX_JET_ORDER + 1, where `ideal_in_jets`
# refuses a higher K: a scan that reaches it costs about 1.3 s of CPU
# (`x^20*y^20`, CPython 3.11).  No build's order depends on a jet order k.
MAX_JET_ORDER = 512


def monomial_index(i: int, j: int) -> int:
    """Graded position of x^i y^j: blocks by total degree, x-power first."""
    return jet_dimension(i + j) + j


def jet_dimension(order: int) -> int:
    """Number of monomials of total degree < order."""
    return order * (order + 1) // 2


class JetSubspace(RowEchelon):
    """Linear span of truncated polynomials, kept in echelon form."""

    # set by `_saturate`: the pivot columns kept without rows, and the
    # order at which the span saturated (None if it has not)
    _filled = range(0)
    saturated_at = None

    @property
    def dimension(self) -> int:
        return len(self.pivots) + len(self._filled)

    def _is_pivot(self, col: int) -> bool:
        return col in self.pivots or col in self._filled

    def _saturate(self, D: int, K: int):
        """Make every column of degree D to K - 1 a pivot (see `_build`)."""
        low = jet_dimension(D)
        self.pivots = {c: row for c, row in self.pivots.items() if c < low}
        self._filled = range(low, jet_dimension(K))
        self.saturated_at = D + 1

    # Each pivot is the lowest column of its row and the columns are graded
    # by degree, so the pivots below jet_dimension(K) are exactly the pivots
    # of the same span truncated at any order K up to the one it was built at.

    def pivots_cover_degree(self, k: int) -> bool:
        """Whether the span truncated at order k + 1 holds every monomial
        of degree k, read off this (possibly higher-order) build."""
        return all(self._is_pivot(c) for c in range(jet_dimension(k), jet_dimension(k + 1)))

    def standard_monomials(self, order: int) -> list:
        """Exponents (i, j) of the non-pivot monomials of degree < order: a
        basis of the quotient of C{x,y}/m^order by the truncated span."""
        return [
            (d - j, j)
            for d in range(order)
            for j in range(d + 1)
            if not self._is_pivot(monomial_index(d - j, j))
        ]


def _build(generators, K: int, stats: dict = None) -> JetSubspace:
    """The image in C{x,y}/m^K of the ideal generated by `generators`.

    The rows are x^a y^b g, truncated at order K, for the nonzero
    generators g, in ascending degree D = a + b + ord(g); multipliers of
    higher degree land every product inside m^K.  A row of degree D has
    its pivot at degree D or above, so once every row of degree D is in,
    the pivots below degree D + 1 are final: they are those of the
    order-(D + 1) image.  The build stops at the first D whose monomials
    are all pivots: by the Nakayama jet criterion the ideal then contains
    m^D, so every column of degree D to K - 1 is a pivot of the order-K
    image, which `_saturate` records without rows.
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
        if space.pivots_cover_degree(D):
            space._saturate(D, K)
            break
    return space


def _check_order(value, name="jet order"):
    """Refuse an order `value` that is not an int of at least 1."""
    if not is_int(value) or value < 1:
        raise InputError(f"{name} must be a positive integer")


def ideal_in_jets(generators, truncation_order: int, stats: dict = None) -> JetSubspace:
    """Image in C{x,y}/m^K of the ideal generated by `generators`, for K
    up to MAX_JET_ORDER + 1, the order of jets up to MAX_JET_ORDER: the
    build of `_build` (see there for `stats` and `saturated_at`)."""
    K = truncation_order
    _check_order(K, "truncation order")
    if K > MAX_JET_ORDER + 1:
        raise CeilingError(f"truncation order K = {K} exceeds its maximum {MAX_JET_ORDER + 1}")
    if not generators:
        raise InputError("need generators")
    if not hasattr(generators, "__iter__"):
        raise InputError(f"generators must be an iterable of germs, got {generators!r}")
    return _build([require_germ(g, at_origin=False) for g in generators], K, stats)


def _scan(f: GermPoly, gens, stats: dict = None) -> JetSubspace:
    """The build of gens, one of f's Jacobian ideal, Tjurina ideal or
    determinacy frame, to f's own limit, saturated at some order K.

    With B = deg f_x * deg f_y (a zero partial has degree 0), an isolated
    germ has mu <= B by Bézout's theorem, once the common factors of the
    partials that miss the origin are cancelled, and its Jacobian ideal,
    of colength mu, contains m^mu.  So the Jacobian and Tjurina ideals
    saturate by K = B + 1, and the frame m*J + (f), which contains
    m^(mu+1), by K = B + 2: a scan to jet order B + 1 that does not
    saturate proves the germ non-isolated.  The scan stops by jet order
    MAX_JET_ORDER, so a germ with B + 1 above it that does not saturate
    there is undecided.
    """
    bound = f.partial_x().total_degree() * f.partial_y().total_degree()
    space = ideal_in_jets(gens, min(bound + 1, MAX_JET_ORDER) + 1, stats)
    if space.saturated_at is not None:
        return space
    if bound + 1 > MAX_JET_ORDER:
        raise CeilingError(f"singularity undecided up to order {MAX_JET_ORDER} "
                           f"(its Bézout bound {bound} exceeds it)")
    raise CeilingError("singularity not isolated")


def milnor_number(f: GermPoly, stats: dict = None) -> int:
    """dim C{x,y}/(f_x, f_y); raises CeilingError on non-isolated germs."""
    require_germ(f)
    space = _scan(f, [f.partial_x(), f.partial_y()], stats)
    return len(space.standard_monomials(space.saturated_at))


def tjurina_basis(f: GermPoly, stats: dict = None) -> list:
    """Standard monomials (i, j) spanning C{x,y}/(f, f_x, f_y)."""
    require_germ(f)
    space = _scan(f, [f, f.partial_x(), f.partial_y()], stats)
    return space.standard_monomials(space.saturated_at)


def tjurina_number(f: GermPoly, stats: dict = None) -> int:
    """dim C{x,y}/(f, f_x, f_y)."""
    return len(tjurina_basis(f, stats))


def _gradient_frame(f: GermPoly) -> list:
    fx, fy = f.partial_x(), f.partial_y()
    return [
        fx.mul_monomial(1, 0),
        fx.mul_monomial(0, 1),
        fy.mul_monomial(1, 0),
        fy.mul_monomial(0, 1),
        f,
    ]


def determinacy_window(f: GermPoly, stats: dict = None) -> tuple[int, int]:
    """(k_low, k_high): jets of order >= k_high determine the germ up to
    coordinate change, and k_low is the matching lower bound.
    """
    require_germ(f)
    K = _scan(f, _gradient_frame(f), stats).saturated_at
    return (K - 2, K - 1)


def scheme_length(f: GermPoly, k: int) -> int:
    """Length of the order-k neighborhood scheme: dim C{x,y}/(f + m^{k+1}),
    in closed form.  Multiplication by f embeds C{x,y}/m^(k+1-m) into
    C{x,y}/m^(k+1), m the multiplicity, because the lowest form of f*g is
    f_m times the lowest form of g; so (f) has that dimension there."""
    require_germ(f)
    _check_order(k)
    cut = 0 if f.is_zero() else max(k + 1 - f.multiplicity(), 0)
    return jet_dimension(k + 1) - jet_dimension(cut)


def _dimension_in_jets(space: JetSubspace, k: int) -> int:
    """Dimension in order-k jets, at any k, of an ideal whose scan saturated
    at order S: it contains m^(S-1), so its standard monomials lie below."""
    return jet_dimension(k + 1) - len(space.standard_monomials(min(k + 1, space.saturated_at)))


def orbit_tangent_dim(f: GermPoly, k: int, stats: dict = None) -> int:
    """Tangent dimension of the equivalence-class orbit inside order-k jets."""
    require_germ(f)
    _check_order(k)
    return _dimension_in_jets(_scan(f, _gradient_frame(f), stats), k)


def _check_s0_order(f: GermPoly, k: int):
    """Refuse, before any build, a jet order k that is not a positive int
    or, for a nonzero germ, is below its multiplicity: dim S_0 needs k >= m."""
    _check_order(k)
    if not f.is_zero() and k < f.multiplicity():
        raise InputError(f"jet order {k} too small for multiplicity {f.multiplicity()}")


def dim_s0(f: GermPoly, k: int, stats: dict = None) -> int:
    """dim S_0: the dimension of the locally closed set of order-k jets
    equivalent to f, counted inside the versal slice."""
    require_germ(f)
    _check_s0_order(f, k)
    return _dim_s0_from_orbit(f, k, orbit_tangent_dim(f, k, stats))


def _dim_s0_from_orbit(f: GermPoly, k: int, orbit: int) -> int:
    """dim S_0 from orbit = orbit_tangent_dim(f, k), for k >= m(f)."""
    return 2 + orbit - jet_dimension(k + 1 - f.multiplicity())


class InvariantReport(namedtuple(
    "InvariantReport",
    "expression milnor tjurina multiplicity determinacy_window k_used scheme_length_at "
    "orbit_tangent_dim dim_s0",
)):
    """The invariants `germ_report` computes for one germ; `scheme_length_at`
    maps a jet order k to the scheme length N there."""

    __slots__ = ()

    def to_dict(self) -> dict:
        d = self._asdict()
        d["determinacy_window"] = list(self.determinacy_window)
        d["scheme_length_at"] = {str(k): v for k, v in self.scheme_length_at.items()}
        return d


def germ_report(f: GermPoly, k: int = None, stats: dict = None) -> InvariantReport:
    """Full invariant report at jet order k (default: upper determinacy bound).

    It makes three scans, of the Jacobian and Tjurina ideals and of the
    frame, whose one scan gives both the determinacy window and the
    orbit.  If `stats` is a dict, it receives the jet counters of
    `_build` summed over the three.
    """
    require_germ(f)
    if k is not None:
        _check_s0_order(f, k)
    mu = milnor_number(f, stats)
    tau = tjurina_number(f, stats)
    frame = _scan(f, _gradient_frame(f), stats)
    window = (frame.saturated_at - 2, frame.saturated_at - 1)
    k = window[1] if k is None else k
    orbit = _dimension_in_jets(frame, k)
    return InvariantReport(
        expression=f.to_string(),
        milnor=mu,
        tjurina=tau,
        multiplicity=f.multiplicity(),
        determinacy_window=window,
        k_used=k,
        scheme_length_at={k: scheme_length(f, k)},
        orbit_tangent_dim=orbit,
        dim_s0=_dim_s0_from_orbit(f, k, orbit),
    )
