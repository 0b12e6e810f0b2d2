"""Exact truncated multivariate series with polynomial coefficients.

The series variables are formal markers x_alpha, one per singularity
label, graded by a positive integer weight per label and truncated at a
total-weight cap.  Coefficients are polynomials in the four Chern
variables (x, y, z, t) with rational coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm

from .errors import CeilingError, InputError, is_int, label_tuple
from .poly import SparsePoly, format_rational

# The highest truncation cap, above every catalog codim (at most 25).  On a
# one-label table (Python 3.11.7, 2 CPUs) cap 30 takes 0.84 s, and 40 4.2 s.
MAX_CAP = 32


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"cannot parse rational {text!r}") from exc


class ChernPolynomial(SparsePoly):
    """Polynomial in (x, y, z, t) = (L^2, L.K, c1^2, c2), exact rationals."""

    __slots__ = ()
    VARS = ("x", "y", "z", "t")
    KEY_RULE = "a Chern monomial needs four nonnegative integer exponents"

    @classmethod
    def constant(cls, c) -> "ChernPolynomial":
        return cls({(0, 0, 0, 0): Fraction(c)})

    @classmethod
    def linear(cls, cx=0, cy=0, cz=0, ct=0) -> "ChernPolynomial":
        return cls({
            (1, 0, 0, 0): Fraction(cx),
            (0, 1, 0, 0): Fraction(cy),
            (0, 0, 1, 0): Fraction(cz),
            (0, 0, 0, 1): Fraction(ct),
        })

    def coefficient(self, key) -> Fraction:
        return self.terms.get(tuple(key), Fraction(0))

    def constant_part(self) -> Fraction:
        return self.terms.get((0, 0, 0, 0), Fraction(0))

    def is_linear(self) -> bool:
        """Homogeneous of degree <= 1 with no constant term."""
        return all(sum(k) == 1 for k in self.terms)

    def evaluate(self, point) -> Fraction:
        vals = [Fraction(v) for v in point]
        if len(vals) != 4:
            raise InputError("a Chern vector has exactly four entries")
        total = Fraction(0)
        for key, c in self.terms.items():
            term = c
            for v, e in zip(vals, key):
                term *= v ** e
            total += term
        return total

    def to_json_obj(self) -> list:
        return [
            [list(k), format_rational(c)]
            for k, c in sorted(self.terms.items())
        ]

    @classmethod
    def from_json_obj(cls, obj) -> "ChernPolynomial":
        try:
            terms = {tuple(k): parse_rational(c) for k, c in obj}
            if len(terms) != len(obj):
                raise InputError(f"polynomial data repeats a monomial: {obj!r}")
            return cls(terms)
        except (TypeError, ValueError) as exc:
            raise InputError(f"malformed polynomial data: {obj!r}") from exc


def aut_count(key) -> int:
    """Permutation symmetry order of a label multiset: product of mult!."""
    counts = {}
    for p in key:
        counts[p] = counts.get(p, 0) + 1
    out = 1
    for c in counts.values():
        out *= factorial(c)
    return out


class TruncatedSeries:
    """The keyed container that exp_series and log_series read and write:
    ChernPolynomial coefficients keyed by sorted label multisets.

    weights: label -> positive integer weight; the empty multiset is the
    constant term; keys of total weight beyond `cap` are dropped.
    """

    __slots__ = ("weights", "cap", "coeffs")

    def __init__(self, weights: dict, cap: int = 10, coeffs=None):
        if not is_int(cap) or cap < 0:
            raise InputError("truncation cap must be a nonnegative integer")
        if cap > MAX_CAP:
            raise CeilingError(f"truncation cap {cap} exceeds the cap ceiling {MAX_CAP}")
        for label, w in dict(weights).items():
            if not is_int(w) or w < 1:
                raise InputError(f"weight of {label!r} must be a positive integer")
        self.weights = dict(weights)
        self.cap = cap
        table = {}
        if coeffs:
            for key, poly in dict(coeffs).items():
                key = tuple(sorted(key))
                if not isinstance(poly, ChernPolynomial):
                    poly = ChernPolynomial(poly)
                if poly.is_zero():
                    continue
                if self.key_weight(key) <= cap:
                    table[key] = poly
        self.coeffs = table

    def key_weight(self, key) -> int:
        total = 0
        for label in key:
            if label not in self.weights:
                raise InputError(f"label {label!r} has no assigned weight")
            total += self.weights[label]
        return total

    def coefficient(self, key) -> ChernPolynomial:
        return self.coeffs.get(tuple(sorted(key)), ChernPolynomial.zero())

    def constant_coefficient(self) -> ChernPolynomial:
        return self.coeffs.get((), ChernPolynomial.zero())

    def __eq__(self, other):
        return (
            isinstance(other, TruncatedSeries)
            and self.weights == other.weights
            and self.cap == other.cap
            and self.coeffs == other.coeffs
        )

    def to_json_obj(self) -> dict:
        return {
            "cap": self.cap,
            "weights": dict(sorted(self.weights.items())),
            "coeffs": [
                [list(k), p.to_json_obj()]
                for k, p in sorted(self.coeffs.items())
            ],
        }


def _numerators(s: TruncatedSeries) -> tuple:
    """(bits, D, levels) for the non-constant terms of s.

    D is the lcm of the denominators in s, and levels[n] maps each key of
    weight n to its coefficient times D**n as {packed monomial: int}. A
    monomial packs its four exponents into fields of `bits` bits, wide
    enough for any product of at most cap coefficients (every key weighs
    at least 1), so the code of a product is the sum of the codes.
    """
    degree = max((p.total_degree() for p in s.coeffs.values()), default=0)
    bits = max(degree * s.cap, 1).bit_length()
    d = 1
    for poly in s.coeffs.values():
        for c in poly.terms.values():
            d = lcm(d, c.denominator)
    levels = {}
    for key, poly in s.coeffs.items():
        if key:
            n = s.key_weight(key)
            levels.setdefault(n, {})[key] = {
                e[0] | e[1] << bits | e[2] << 2 * bits | e[3] << 3 * bits:
                    c.numerator * (d ** n // c.denominator)
                for e, c in poly.terms.items()
            }
    return bits, d, levels


def _from_numerators(s: TruncatedSeries, bits: int, d: int, levels: dict, coeffs: dict):
    """A series like s with `coeffs` plus the numerators in `levels`, each
    divided by D**n * n! at weight n."""
    mask = (1 << bits) - 1
    for n, level in levels.items():
        denom = d ** n * factorial(n)
        for key, poly in level.items():
            coeffs[key] = ChernPolynomial._of({
                (m & mask, m >> bits & mask, m >> 2 * bits & mask, m >> 3 * bits):
                    Fraction(c, denom)
                for m, c in poly.items()
            })
    return TruncatedSeries(s.weights, s.cap, coeffs)


def _euler_step(acc: dict, left: dict, right: dict, n: int, factor) -> int:
    """Add factor(a) * L_A * R_B to acc[A + B] for every A in left[a] and
    B in right[n - a]; drop what cancels and return the number of pairs."""
    pairs = 0
    for a in range(1, n + 1):
        lefts, rights = left.get(a), right.get(n - a)
        if not lefts or not rights:
            continue
        f = factor(a)
        for ka, pa in lefts.items():
            pa = [(m, f * c) for m, c in pa.items()]
            for kb, pb in rights.items():
                target = acc.setdefault(tuple(sorted(ka + kb)), {})
                get = target.get
                for ma, ca in pa:
                    for mb, cb in pb.items():
                        m = ma + mb
                        target[m] = get(m, 0) + ca * cb
        pairs += len(lefts) * len(rights)
    for key in list(acc):
        poly = {m: c for m, c in acc[key].items() if c}
        if poly:
            acc[key] = poly
        else:
            del acc[key]
    return pairs


def exp_series(s: TruncatedSeries, stats: dict = None) -> TruncatedSeries:
    """exp of a series with zero constant term.

    Solves w(K)*E_K = sum over non-empty A <= K of w(A)*S_A*E_(K-A) in
    order of weight, on the integer numerators G_K = D^w(K)*w(K)!*E_K
    (D the lcm of the denominators in s), so each step is an integer
    multiply-add: G_K = sum w(A)*(D^w(A)*S_A)*G_(K-A)*(w(K)-1)!/(w(K)-w(A))!.
    `stats`, if given, receives the counts of entries, keys and products.
    """
    if not s.constant_coefficient().is_zero():
        raise InputError("exp needs a series with zero constant term")
    bits, d, terms = _numerators(s)
    g = {0: {(): {0: 1}}}
    products = 0
    for n in range(1, s.cap + 1):
        g[n] = {}
        products += _euler_step(
            g[n], terms, g, n, lambda a: a * factorial(n - 1) // factorial(n - a)
        )
    del g[0]
    result = _from_numerators(s, bits, d, g, {(): ChernPolynomial.constant(1)})
    if stats is not None:
        stats.update(entries=len(s.coeffs), keys=len(result.coeffs), products=products)
    return result


def log_series(t: TruncatedSeries) -> TruncatedSeries:
    """log of a series with constant term 1.

    Solves w(K)*U_K = w(K)*T_K - sum over A < K of w(A)*U_A*T_(K-A) in
    order of weight, on the integer numerators H_K = D^w(K)*w(K)!*U_K:
    H_K = w(K)!*D^w(K)*T_K - sum H_A*(D^w(K-A)*T_(K-A))*(w(K)-1)!/(w(A)-1)!.
    """
    if t.constant_coefficient() != ChernPolynomial.constant(1):
        raise InputError("log needs a series with constant term 1")
    bits, d, terms = _numerators(t)
    h = {}
    for n in range(1, t.cap + 1):
        top = factorial(n)
        h[n] = {
            key: {m: top * c for m, c in poly.items()}
            for key, poly in terms.get(n, {}).items()
        }
        _euler_step(h[n], h, terms, n, lambda a: -factorial(n - 1) // factorial(a - 1))
    return _from_numerators(t, bits, d, h, {})


def normalize_table(a_table: dict) -> dict:
    """The a-table keyed by sorted label multisets with ChernPolynomial
    values; a bare label is a one-label multiset, and two keys that sort
    to one multiset are refused."""
    out = {}
    for key, poly in a_table.items():
        if isinstance(key, str):
            key = (key,)
        key = tuple(sorted(key))
        if key in out:
            raise InputError(f"a-table lists the multiset {','.join(key)} twice")
        if not isinstance(poly, ChernPolynomial):
            poly = ChernPolynomial(poly)
        out[key] = poly
    return out


def scaled_entries(table: dict) -> dict:
    """Table entries a_key/#Aut(key), keyed by sorted label multiset.

    `table` is an a-table as normalize_table returns it: the #Aut-scaled
    logarithmic coefficients attached to each label multiset; each must
    be a linear Chern polynomial.
    """
    coeffs = {}
    for key, poly in table.items():
        if not poly.is_linear():
            raise InputError(
                f"table entry for {','.join(key)} must be linear in the Chern variables"
            )
        coeffs[key] = poly.scale(Fraction(1, aut_count(key)))
    return coeffs


def assemble_series(
    a_table: dict, weights: dict, cap: int = 10, stats: dict = None
) -> TruncatedSeries:
    """Build the generating series exp(sum a_key/#Aut(key) * x_key)."""
    entries = scaled_entries(normalize_table(a_table))
    return exp_series(TruncatedSeries(weights, cap, entries), stats)


def extract_universal(series: TruncatedSeries, parts) -> ChernPolynomial:
    """Coefficient of the given label multiset; error outside the cap."""
    key = tuple(sorted(label_tuple(parts)))
    if series.key_weight(key) > series.cap:
        raise InputError(
            f"multiset {','.join(key)} lies outside the truncation cap {series.cap}"
        )
    return series.coefficient(key)


def _sub_multisets(parts: tuple):
    """Every nonempty sub-multiset of the sorted tuple `parts`, lazily,
    by size and then in order: a caller that stops at the first one it
    lacks lists no more of them than it has.  A sub-multiset is held as
    the count it takes of each label; within a size, the next one takes
    one fewer of the last label it can and then as many as it can of
    each later label."""
    labels = sorted(set(parts))
    counts = [parts.count(lab) for lab in labels]
    # room[i]: how many labels the positions from i on can take
    room = [0] * (len(labels) + 1)
    for i in range(len(labels) - 1, -1, -1):
        room[i] = room[i + 1] + counts[i]

    def fill(picks, first, size):
        for i in range(first, len(labels)):
            picks[i] = take = min(counts[i], size)
            size -= take

    for size in range(1, len(parts) + 1):
        picks = [0] * len(labels)
        fill(picks, 0, size)
        while True:
            yield tuple(lab for lab, take in zip(labels, picks) for _ in range(take))
            tail = 0
            for i in range(len(labels) - 1, -1, -1):
                if picks[i] and room[i + 1] > tail:
                    break
                tail += picks[i]
            else:
                break
            picks[i] -= 1
            fill(picks, i + 1, tail + 1)


def assemble_from_table(a_table: dict, chern, parts, stats: dict = None):
    """Predicted count for a singularity multiset from user-supplied
    log-coefficients; every sub-multiset of `parts` must be tabulated.

    Evaluation at `chern` is a ring homomorphism, so only the entries of
    the sub-multisets of `parts` are evaluated and that numeric series is
    exponentiated; `stats` receives the counters of exp_series.
    """
    table = normalize_table(a_table)
    parts = tuple(sorted(label_tuple(parts)))
    subs = []
    for needed in _sub_multisets(parts):
        if needed not in table:
            raise InputError(f"missing entry {','.join(needed)}")
        subs.append(needed)

    from .catalog import codim_weights

    weights = codim_weights([*table, parts])
    cap = sum(weights[label] for label in parts)
    entries = scaled_entries(table)
    values = {key: ChernPolynomial.constant(entries[key].evaluate(chern)) for key in subs}
    # an entry for the empty multiset stays a polynomial, so exp_series
    # refuses a nonzero one as it does in assemble_series
    values[()] = entries.get((), ChernPolynomial.zero())
    series = exp_series(TruncatedSeries(weights, cap, values), stats)
    value = extract_universal(series, parts).constant_part()
    return int(value) if value.denominator == 1 else value
