"""Two independent oracles for nodal curve counts.

floor_diagram_oracle: exhaustive enumeration of weighted labeled floor
diagrams with marking counts; exponential, desk scale only.

pencil_discriminant_oracle: counts singular members of a random pencil
by eliminating the pencil parameter, taking a resultant in y, and
counting its roots, less the spurious ones, once it is proved squarefree;
repeated with independent samples that must agree.  One sampler serves
every surface whose row in `surfaces.SURFACES` has a pencil row, which is
all that the surfaces differ in here.
Every answer is exact:

- the resultant in y is computed over Z[x] by the subresultant PRS, in
  which every division is exact, so one that leaves a remainder raises
  instead of returning a wrong polynomial;
- squarefreeness, and the coprimality of two leading coefficients, are
  certified modulo the one prime P = 2**61 - 1: when P does not divide
  lc(u), a constant gcd(u mod P, v mod P) proves u and v coprime over Q.
  A draw whose certificate fails is redrawn like any other degenerate
  draw, so every accepted draw is proved.
"""

from __future__ import annotations

import random
from collections import Counter, defaultdict
from functools import cache, partial
from itertools import product
from math import comb, factorial, prod

from .errors import InconsistencyError, InputError, is_int
from .poly import mul_rows, partial_rows, poly_derivative, sub_rows, subresultant, trim_poly
from .surfaces import SURFACES, Pencil

# ---------------------------------------------------------------------------
# floor diagrams


@cache
def _weight_multisets(budget: int) -> tuple:
    """Non-increasing positive weight tuples with sum <= budget."""
    out = [()]

    def rec(prefix, remaining, max_part):
        for w in range(min(remaining, max_part), 0, -1):
            ext = prefix + (w,)
            out.append(ext)
            rec(ext, remaining - w, w)

    rec((), budget, budget)
    return tuple(out)


def _marking_count(d: int, edges: list) -> int:
    """Number of markings of one diagram, times the weight multiplicity.

    The marks are data: a Counter mapping spans (lo, hi) of slots to a
    number of marks, slot s lying just before vertex s + 1.  An edge i -> j
    gives one mark with span (i, j - 1), and vertex v gives ground(v) =
    1 - in(v) + out(v) marks with span (0, v - 1).  One pass over the slots
    tracks how many ways leave each tuple of marks left per span: a span
    with lo <= s < hi places any number of its marks at s, one with hi = s
    all it has left, and the marks placed at one slot go in any order.
    """
    in_w = [0] * (d + 1)
    out_w = [0] * (d + 1)
    mu = 1
    for (i, j, w) in edges:
        out_w[i] += w
        in_w[j] += w
        mu *= w * w
    ground = [1 - in_w[v] + out_w[v] for v in range(1, d + 1)]
    if min(ground) < 0:
        return 0
    marks = Counter((i, j - 1) for (i, j, _) in edges)
    marks += Counter({(0, v - 1): g for v, g in enumerate(ground, 1)})
    spans = sorted(marks)
    ways = {tuple(marks[span] for span in spans): 1}
    for s in range(d):
        after = defaultdict(int)
        for left, n in ways.items():
            choices = [
                range(m + 1) if lo <= s < hi else (m,) if hi == s else (0,)
                for (lo, hi), m in zip(spans, left)
            ]
            for placed in product(*choices):
                rest = tuple(m - p for m, p in zip(left, placed))
                after[rest] += n * prod(map(comb, left, placed)) * factorial(sum(placed))
        ways = after
    (labeled,) = ways.values()

    denom = prod(map(factorial, ground)) * prod(map(factorial, Counter(edges).values()))
    if labeled % denom:
        raise InconsistencyError("marking count is not divisible by its symmetry order")
    return mu * (labeled // denom)


def floor_diagram_oracle(d: int, delta: int, stats: dict = None) -> int:
    """Nodal count by summing multiplicity x markings over all diagrams.

    Diagrams: vertices 1..d, directed weighted multi-edges i -> j (i < j),
    with 1 - in(v) + out(v) >= 0 at every vertex and exactly
    d(d-1)/2 - delta edges.

    If `stats` is a dict, it receives deterministic counters: diagrams,
    the diagrams counted, and frames, the calls of the step that picks
    the sources of a vertex's incoming edges.
    """
    if stats is None:
        stats = {}
    for key in ("diagrams", "frames"):
        stats.setdefault(key, 0)
    if not (is_int(d) and is_int(delta)):
        raise InputError("degree and node count must be integers")
    if not (1 <= d <= 6) or not (0 <= delta <= 4):
        raise InputError("out of supported range: need 1 <= d <= 6 and 0 <= delta <= 4")
    edge_target = d * (d - 1) // 2 - delta
    if edge_target < 0:
        return 0

    total = 0
    in_w = [0] * (d + 1)
    out_w = [0] * (d + 1)
    edges = []

    def fill_target(j: int):
        nonlocal total
        if j == 1:
            if len(edges) == edge_target:
                stats["diagrams"] += 1
                total += _marking_count(d, edges)
            return
        if len(edges) > edge_target:
            return
        # Targets t = j, .., 2 take at most ub_t more edges each, with
        # ub_t = S + ub_(t+1) + .. + ub_j and S = 1 + (in-weight above j):
        # so ub_t = 2^(j-t) S, and all of them S (2^(j-1) - 1).
        if len(edges) + (1 + sum(in_w[j + 1:])) * (2 ** (j - 1) - 1) < edge_target:
            return
        budget = 1 + out_w[j]

        def pick_source(i: int, left: int):
            stats["frames"] += 1
            if i == 0:
                fill_target(j - 1)
                return
            for weights in _weight_multisets(left):
                used = sum(weights)
                for w in weights:
                    edges.append((i, j, w))
                    out_w[i] += w
                in_w[j] += used
                pick_source(i - 1, left - used)
                in_w[j] -= used
                for w in weights:
                    edges.pop()
                    out_w[i] -= w

        pick_source(j - 1, budget)

    fill_target(d)
    return total


# ---------------------------------------------------------------------------
# the pencil-discriminant oracle, on integer y-rows from the draw to the certificate

_P = 2**61 - 1


def _coprime_mod_p(u: list, v: list) -> bool:
    """True only when u and v are proved coprime over Q: P does not divide
    lc(u) and gcd(u mod P, v mod P) is constant.  A common factor h of
    positive degree, primitive in Z[x], has lc(h) | lc(u), so h mod P would
    keep its degree and divide that gcd.  False proves nothing."""
    if not u or u[-1] % _P == 0:
        return False
    u = [c % _P for c in u]
    v = trim_poly([c % _P for c in v])
    while v:  # Euclid over GF(P); u stays nonzero
        inv = pow(v[-1], -1, _P)
        v = [c * inv % _P for c in v]
        dv = len(v) - 1
        while len(u) > dv:
            lead, shift = u.pop(), len(u) - dv
            for k in range(dv):
                u[k + shift] = (u[k + shift] - lead * v[k]) % _P
            trim_poly(u)
        u, v = v, u
    return len(u) == 1


def _is_squarefree(p: list, stats: dict = None) -> bool:
    """True only when p is proved squarefree over Q, by certifying p and p'
    coprime (a square factor of p divides both).  A test the certificate
    does not settle returns False and counts in exact_squarefree_fallbacks.
    """
    if _coprime_mod_p(p, poly_derivative(p)):
        return True
    if stats is not None:
        stats["exact_squarefree_fallbacks"] += 1
    return False


def _sample_poly(rng, xdeg: int, ydeg: int, total: int) -> list:
    """y-rows with random coefficients in -9..9 of x^i y^j, i <= xdeg,
    j <= ydeg, i + j <= total, drawn with i outermost."""
    rows = [[0] * (xdeg + 1) for _ in range(ydeg + 1)]
    for i in range(xdeg + 1):
        for j in range(min(ydeg, total - i) + 1):
            rows[j][i] = rng.randint(-9, 9)
    return trim_poly([trim_poly(row) for row in rows])


def _leads_coprime(A: list, B: list, ydegs) -> bool:
    """Whether A and B have the positive y-degrees `ydegs` and tops proved coprime."""
    return ydegs == (len(A) - 1, len(B) - 1) and _coprime_mod_p(A[-1], B[-1])


def _resultant_degree(A: list, B: list, stats: dict, degree: int = None):
    """x-degree of Res_y(A, B), or None unless the resultant is nonzero,
    of the given x-degree when one is given, and certified squarefree.  The
    degree is checked first: it is free, and a wrong degree rejects the draw
    before the certificate runs or counts."""
    R = subresultant(A, B)
    if not R or (degree is not None and len(R) - 1 != degree):
        return None
    return len(R) - 1 if _is_squarefree(R, stats) else None


def _pencil_pair(F: list, G: list, var: int) -> tuple:
    """The pair (E1, E2) whose common roots locate the singular members
    of the pencil spanned by F and G: E1 = Fx*Gy - Fy*Gx and
    E2 = F*Gv - Fv*G, v the variable number `var` (0 = x, 1 = y).  The
    common roots of (Fv, Gv) are common roots of the pair too, and spurious."""
    (Fx, Fy), (Gx, Gy) = ((partial_rows(P, 0), partial_rows(P, 1)) for P in (F, G))
    E1 = sub_rows(mul_rows(Fx, Gy), mul_rows(Fy, Gx))
    Fv, Gv = (Fx, Gx) if var == 0 else (Fy, Gy)
    return E1, sub_rows(mul_rows(F, Gv), mul_rows(Fv, G))


def _meets_at_infinity(F: list, G: list, var: int, chart) -> bool:
    """Whether the pencil pair of F and G, moved to coordinates (u, y) with
    u = 0 at infinity by reversing each row j in x to width chart[j], may
    share a root on u = 0, where the affine elimination cannot see it."""
    ca, cb = _pencil_pair(*([trim_poly([0] * (w + 1 - len(row)) + row[::-1])
                             for row, w in zip(P, chart)] for P in (F, G)), var)
    if len(ca) < 2 or len(cb) < 2:
        return True
    # At u = 0 the pair's Sylvester determinant vanishes when both top
    # y-coefficients do, and otherwise exactly when its trimmed resultant does.
    a0, b0 = ([trim_poly(p[:1]) for p in c] for c in (ca, cb))
    return not (a0[-1] or b0[-1]) or not subresultant(trim_poly(a0), trim_poly(b0))


def _pencil_sample(pencil: Pencil, rng, stats: dict):
    """One-node count from one random pencil, or None if degenerate."""
    F = _sample_poly(rng, *pencil.draw)
    G = _sample_poly(rng, *pencil.draw)
    E1, E2 = _pencil_pair(F, G, pencil.var)
    # A sample whose E1 or E2 drops below its generic y-degree has lost
    # roots at y = infinity; a common root of their top y-coefficients
    # would be a spurious root of R.
    if not _leads_coprime(E1, E2, pencil.e_ydegs):
        return None
    # Likewise the pair in the chart must share no root on u = 0, or R loses x-degree.
    if _meets_at_infinity(F, G, pencil.var, pencil.chart):
        return None
    if pencil.fake:
        Fv, Gv = partial_rows(F, pencil.var), partial_rows(G, pencil.var)
        if not _leads_coprime(Fv, Gv, pencil.fake_ydegs) or (
                _resultant_degree(Fv, Gv, stats, pencil.fake) is None):
            return None
    n = _resultant_degree(E1, E2, stats)
    return n - pencil.fake if n is not None and n >= pencil.fake else None


def _draw_count(sample, rng, stats: dict, surface: str) -> int:
    for _attempt in range(12):
        stats["samples"] += 1
        count = sample(rng, stats)
        if count is not None:
            return count
        stats["retries"] += 1
    raise InconsistencyError(
        f"pencil oracle could not draw a non-degenerate {surface} sample after retries"
    )


def pencil_discriminant_oracle(surface: str, degree, seed: int = 0, stats: dict = None) -> int:
    """Count singular members of a random pencil; three independent
    samples must agree or the call fails loudly.

    If `stats` is a dict, it receives deterministic counters summed over
    the three draws: samples, retries and exact_squarefree_fallbacks.
    """
    if not is_int(seed):
        raise InputError(f"pencil oracle seed must be an integer, got {seed!r}")
    if stats is None:
        stats = {}
    for key in ("samples", "retries", "exact_squarefree_fallbacks"):
        stats.setdefault(key, 0)
    row = SURFACES.get(str(surface).upper())
    if row is None or row.pencil is None:
        names = " or ".join(name for name, other in SURFACES.items() if other.pencil)
        raise InputError(f"unknown surface {surface!r}; use {names}")
    sample = partial(_pencil_sample, row.pencil(degree))
    values = [_draw_count(sample, random.Random(1000003 * seed + i), stats, row.word)
              for i in range(3)]
    if len(set(values)) != 1:
        raise InconsistencyError(
            f"pencil oracle samples disagree: {values}; inputs {surface} {degree}"
        )
    return values[0]
