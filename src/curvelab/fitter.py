"""Exact determination of universal node-count polynomials.

Node counts on the plane and on the smooth quadric, taken together,
pin down one linear polynomial in the four Chern numbers per order.
The per-order coefficients are read off the logarithm of the count
series; exponentiating the fitted line bundle of coefficients gives
closed-form predictions for either surface.
"""

from collections import namedtuple
from fractions import Fraction
from math import factorial

from .errors import CeilingError, InconsistencyError, InputError, is_int
from .poly import RowEchelon
from .series import ChernPolynomial, TruncatedSeries, exp_series, log_series
from .severi import DEFAULT_DEGREE_CEILING, SeveriEngine
from .surfaces import PLANE, QUADRIC

NODE_LABEL = "A1"
MAX_ORDER = 8


def fit_rows(r_max: int) -> tuple:
    """The (surface, class) rows a fit up to order r_max counts on: plane
    degrees 6..12, then quadric bidegrees 3 <= a <= b <= top.

    The plane rows alone span only 3 of the 4 Chern directions, and a
    quadric row votes only up to order min(a, b) - 1, so top grows with
    r_max: 5 up to order 4, r_max + 2 beyond.
    """
    top = 5 if r_max <= 4 else r_max + 2
    return tuple([(PLANE, d) for d in range(6, 13)] + [
        (QUADRIC, (a, b)) for a in range(3, top + 1) for b in range(a, top + 1)])


def chern_p2(d: int) -> tuple:
    """Chern vector (L^2, L.K, c1^2, c2) of (P^2, O(d))."""
    return PLANE.chern(PLANE.checked(d))


def chern_quadric(a: int, b: int) -> tuple:
    """Chern vector of (P^1 x P^1, O(a,b))."""
    return QUADRIC.chern(QUADRIC.checked((a, b)))


class FitResult(namedtuple("FitResult", "r_max a T residual_consistent")):
    """A fit up to order r_max: a[r] the order-r log-coefficient and T[r]
    the order-r count polynomial in the Chern numbers; residual_consistent
    says whether every data row satisfies its order's a[r]."""

    __slots__ = ()

    def to_a_table(self) -> dict:
        """Log-coefficients keyed by node multisets, symmetry factors undone."""
        return {(NODE_LABEL,) * r: poly.scale(factorial(r)) for r, poly in self.a.items()}

    def to_json_obj(self) -> dict:
        return {
            "r_max": self.r_max,
            "residual_consistent": self.residual_consistent,
            "a": {str(r): p.to_json_obj() for r, p in sorted(self.a.items())},
            "T": {str(r): p.to_json_obj() for r, p in sorted(self.T.items())},
        }


def _log_coefficients(counts) -> list:
    """Order-by-order log of a count sequence starting at 1."""
    cap = len(counts) - 1
    series = TruncatedSeries({NODE_LABEL: 1}, cap, {
        (NODE_LABEL,) * r: ChernPolynomial.constant(n) for r, n in enumerate(counts)})
    logarithm = log_series(series)
    return [logarithm.coefficient((NODE_LABEL,) * r).constant_part() for r in range(cap + 1)]


def _solve_linear4(equations) -> tuple:
    """Solve a (possibly overdetermined) 4-unknown rational system by back-
    substitution over the Chern pivot rows of its echelon, right-hand side
    in column 4: a full-rank subsystem, so callers verify the rest."""
    echelon = RowEchelon()
    for vec, rhs in equations:
        echelon.insert({c: Fraction(v) for c, v in enumerate((*vec, rhs)) if v})
    rank = sum(col < 4 for col in echelon.pivots)
    if rank < 4:
        raise InconsistencyError(f"fit rows span only {rank} of the 4 Chern directions")
    solution = [Fraction(0)] * 4
    for col in reversed(range(4)):
        row = echelon.pivots[col]
        solution[col] = Fraction(row.get(4, 0)) - sum(
            v * solution[c] for c, v in row.items() if col < c < 4)
    return tuple(solution)


def fit_nodes(r_max: int, engine: SeveriEngine = None) -> FitResult:
    """Fit the node-count polynomials up to order r_max on the rows of
    fit_rows(r_max), counted by `engine` (a fresh SeveriEngine if None)."""
    if not is_int(r_max) or r_max < 0:
        raise InputError(f"fit order must be a nonnegative integer, got {r_max!r}")
    if r_max > MAX_ORDER:
        raise CeilingError(f"fit order {r_max} exceeds the order ceiling {MAX_ORDER}")

    engine = engine if engine is not None else SeveriEngine()

    # one row per surface polarization, planes first: its Chern vector, the
    # log of its count series, and the largest order the row may vote on
    rows = []
    for surface, klass in fit_rows(r_max):
        cap = surface.node_cap(klass)
        counts = [engine.count(surface, klass, r) for r in range(min(r_max, cap) + 1)]
        for r, n in enumerate(counts):
            if n <= 0:
                raise InconsistencyError(
                    f"nonpositive count {n} at {surface.word} {surface.label(klass)} r={r}")
        rows.append((surface.chern(klass), _log_coefficients(counts), surface.vote_order(klass)))

    a_polys = {}
    consistent = True
    for r in range(1, r_max + 1):
        equations = [(vec, logs[r]) for vec, logs, max_order in rows
                     if r <= max_order and r < len(logs)]
        solution = _solve_linear4(equations)
        poly = ChernPolynomial.linear(*solution)
        for vec, rhs in equations:
            if poly.evaluate(vec) != rhs:
                consistent = False
        a_polys[r] = poly

    log_part = TruncatedSeries(
        {NODE_LABEL: 1}, r_max, {(NODE_LABEL,) * r: p for r, p in a_polys.items()})
    exp_part = exp_series(log_part)
    t_polys = {r: exp_part.coefficient((NODE_LABEL,) * r) for r in range(r_max + 1)}

    return FitResult(r_max, a_polys, t_polys, consistent)


def threshold_scan(result: FitResult, r: int, engine: SeveriEngine = None) -> int:
    """Smallest plane degree from which the fitted polynomial counts exactly.

    Scans down from DEFAULT_DEGREE_CEILING through the degrees that admit
    r nodes (the node cap grows with d and exceeds MAX_ORDER at the ceiling)
    and returns the last d down to which severi_p2 agrees with T[r].
    """
    if not is_int(r) or not 1 <= r <= MAX_ORDER:
        raise InputError(f"threshold scan needs an order r in 1..{MAX_ORDER}, got {r!r}")
    if r not in result.T:
        raise InputError(f"threshold scan of order {r} needs a fit up to order {r}, "
                         f"not {result.r_max}")
    engine = engine if engine is not None else SeveriEngine()
    threshold = None
    for d in range(DEFAULT_DEGREE_CEILING, 0, -1):
        fitted = result.T[r].evaluate(PLANE.chern(d))
        if PLANE.node_cap(d) < r or engine.severi_p2(d, r) != fitted:
            break
        threshold = d
    if threshold is None:
        raise InconsistencyError(
            f"order-{r} polynomial never matches the counts in the scanned range"
        )
    return threshold
