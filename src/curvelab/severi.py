"""Severi degrees on the plane and the quadric surface.

Both counts run on one tangency-profile recursion relative to a fixed
line (a ruling line on the quadric): either one unassigned contact is
promoted to an assigned one, or the fixed line splits off and leaves a
residual curve with adjusted profiles and node count.  One step function
maps a memo key to its weighted child keys, and one evaluator walks
those edges depth-first on an explicit stack, so the depth of the
recursion is bounded by memory, not by the Python call stack.  The
surfaces differ only in a small per-surface table: the base case, the
residual class, its intersection with the fixed line and its node cap.
Every value is an exact arbitrary-precision integer, memoized in a
store that can persist to a line-oriented cache file.
"""

from __future__ import annotations

from collections import namedtuple
from math import comb

from .errors import (
    AdmissibilityError,
    CeilingError,
    InconsistencyError,
    InputError,
)

DEFAULT_DEGREE_CEILING = 12


# ---------------------------------------------------------------------------
# tangency profiles: entry i counts contacts of order i+1


def trim(profile) -> tuple:
    t = tuple(profile)
    while t and t[-1] == 0:
        t = t[:-1]
    return t


def profile_size(profile) -> int:
    return sum(profile)


def profile_moment(profile) -> int:
    return sum((i + 1) * c for i, c in enumerate(profile))


def _bump(profile, index: int, amount: int = 1) -> tuple:
    t = list(profile)
    while len(t) <= index:
        t.append(0)
    t[index] += amount
    return trim(t)


def _add_profiles(p, q) -> tuple:
    n = max(len(p), len(q))
    return trim(
        tuple(
            (p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
            for i in range(n)
        )
    )


def _subprofiles(profile):
    """All componentwise-dominated profiles, untrimmed length."""
    if not profile:
        yield ()
        return
    head = profile[0]
    for rest in _subprofiles(profile[1:]):
        for c in range(head + 1):
            yield (c,) + rest


_PARTITIONS_CACHE: dict = {}


def _partition_profiles(n: int) -> list:
    """All profiles gamma with sum of (i+1)*gamma[i] = n."""
    if n in _PARTITIONS_CACHE:
        return _PARTITIONS_CACHE[n]

    def rec(remaining, max_part):
        if remaining == 0:
            yield ()
            return
        for part in range(min(remaining, max_part), 0, -1):
            for tail in rec(remaining - part, part):
                yield (part,) + tail

    out = []
    for parts in rec(n, n):
        gamma = [0] * (parts[0] if parts else 0)
        for p in parts:
            gamma[p - 1] += 1
        out.append(trim(tuple(gamma)))
    _PARTITIONS_CACHE[n] = out
    return out


# ---------------------------------------------------------------------------
# memo store with persistence


def _format_profile(profile) -> str:
    return ",".join(str(c) for c in profile) if profile else "-"


def _parse_profile(text: str) -> tuple:
    if text == "-":
        return ()
    try:
        return trim(tuple(int(c) for c in text.split(",")))
    except ValueError as exc:
        raise InputError(f"bad profile field {text!r} in cache file") from exc


class MemoStore:
    """Key -> value table with provenance counters.

    A key never remaps to a different value; a conflicting put (e.g. a
    corrupted cache colliding with a fresh computation) fails loudly.
    """

    def __init__(self):
        self.table = {}
        self.computed = 0
        self.hits = 0
        self.loaded = 0

    def __len__(self):
        return len(self.table)

    def get(self, key):
        value = self.table.get(key)
        if value is not None:
            self.hits += 1
        return value

    def put(self, key, value: int, origin: str = "computed"):
        old = self.table.get(key)
        if old is not None:
            if old != value:
                raise InconsistencyError(
                    f"memo key {key} already holds {old}, refusing to store {value}"
                )
            return
        if value < 0:
            raise InconsistencyError(f"negative count {value} for key {key}")
        self.table[key] = value
        if origin == "computed":
            self.computed += 1
        else:
            self.loaded += 1

    def stats(self) -> dict:
        return {
            "computed": self.computed,
            "hits": self.hits,
            "loaded": self.loaded,
            "size": len(self.table),
        }

    @staticmethod
    def _key_to_line(key, value) -> str:
        surface, degree, delta, alpha, beta = key
        deg = ",".join(map(str, degree)) if isinstance(degree, tuple) else degree
        return (
            f"{surface} {deg} {delta} "
            f"{_format_profile(alpha)} {_format_profile(beta)} {value}"
        )

    @staticmethod
    def _line_to_key(line: str):
        fields = line.split()
        if len(fields) != 6:
            raise InputError(f"bad cache line {line!r}")
        surface, deg, delta, alpha, beta, value = fields
        if surface == "P2":
            degree = int(deg)
        elif surface == "P1XP1":
            a, _, b = deg.partition(",")
            if not b:
                raise InputError(f"bad bidegree field {deg!r} in cache file")
            degree = (int(a), int(b))
        else:
            raise InputError(f"unknown surface {surface!r} in cache file")
        key = (surface, degree, int(delta), _parse_profile(alpha), _parse_profile(beta))
        return key, int(value)

    def save(self, path):
        lines = sorted(self._key_to_line(k, v) for k, v in self.table.items())
        with open(path, "w") as fh:
            for line in lines:
                fh.write(line + "\n")

    def load(self, path):
        with open(path) as fh:
            for raw in fh:
                line = raw.strip()
                if not line:
                    continue
                key, value = self._line_to_key(line)
                self.put(key, value, origin="loaded")


# ---------------------------------------------------------------------------
# the engine


def plane_node_cap(d: int) -> int:
    """Most nodes a reduced degree-d curve carries (d generic lines)."""
    return d * (d - 1) // 2


def quadric_node_cap(a: int, b: int) -> int:
    """Most nodes on a reduced (a,b) curve (union of rulings)."""
    return a * b


# The only data in which the surfaces differ: the value of a base key
# (None for any other key), the residual class left when the fixed line
# splits off, the number of points in which a class meets the fixed line,
# and the most nodes a reduced curve of a class carries.
_Surface = namedtuple("_Surface", "base residual meet node_cap")

_SURFACES = {
    "P2": _Surface(
        base=lambda d, delta, alpha, beta: int(delta == 0) if d == 1 else None,
        residual=lambda d: d - 1,
        meet=lambda d: d,
        node_cap=plane_node_cap,
    ),
    # class (0,b): b ruling lines, transversal to the fixed line, no
    # nodes; profiles may only hold order-1 contacts
    "P1XP1": _Surface(
        base=lambda ab, delta, alpha, beta: (
            int(delta == 0 and len(alpha) <= 1 and len(beta) <= 1) if ab[0] == 0 else None
        ),
        residual=lambda ab: (ab[0] - 1, ab[1]),
        meet=lambda ab: ab[1],
        node_cap=lambda ab: quadric_node_cap(*ab),
    ),
}


def _step(key):
    """(base value, iterator of (factor, child key) edges) of a memo key:
    its count is the base value plus the sum of factor * child count."""
    rule = _SURFACES[key[0]]
    base = rule.base(*key[1:])
    return (base, ()) if base is not None else (0, _edges(key, rule))


def _edges(key, rule):
    surface, degree, delta, alpha, beta = key
    # promote one unassigned contact of order i+1 to an assigned one
    for i, count in enumerate(beta):
        if count > 0:
            yield i + 1, (surface, degree, delta, _bump(alpha, i), _bump(beta, i, -1))
    # split off the fixed line; the residual meets it in `meet` points
    residual = rule.residual(degree)
    meet = rule.meet(residual)
    cap = rule.node_cap(residual)
    moment_beta = profile_moment(beta)
    for alpha_p in _subprofiles(alpha):
        rem = meet - profile_moment(alpha_p) - moment_beta
        if rem < 0:
            continue
        alpha_p = trim(alpha_p)
        comb_alpha = 1
        for i, c in enumerate(alpha_p):
            comb_alpha *= comb(alpha[i], c)
        for gamma in _partition_profiles(rem):
            delta_p = delta - meet + profile_size(gamma)
            if delta_p < 0 or delta_p > cap:
                continue
            beta_p = _add_profiles(beta, gamma)
            factor = comb_alpha
            for i, c in enumerate(gamma):
                if c:
                    factor *= (i + 1) ** c * comb(beta_p[i], beta[i] if i < len(beta) else 0)
            yield factor, (surface, residual, delta_p, alpha_p, beta_p)


class SeveriEngine:
    def __init__(self, store: MemoStore = None, degree_ceiling: int = DEFAULT_DEGREE_CEILING):
        self.store = store if store is not None else MemoStore()
        self.degree_ceiling = degree_ceiling

    def severi_p2(self, d: int, delta: int) -> int:
        if not isinstance(d, int) or not isinstance(delta, int) or d < 1 or delta < 0:
            raise InputError("need degree d >= 1 and node count delta >= 0")
        return self._count("P2", d, delta, d, f"degree {d}")

    def severi_quadric(self, a: int, b: int, delta: int) -> int:
        if not all(isinstance(v, int) for v in (a, b, delta)) or min(a, b) < 1 or delta < 0:
            raise InputError("need bidegree a, b >= 1 and node count delta >= 0")
        return self._count("P1XP1", (a, b), delta, max(a, b), f"bidegree ({a},{b})")

    def _count(self, surface: str, degree, delta: int, size: int, label: str) -> int:
        if size > self.degree_ceiling:
            raise CeilingError(f"{label} exceeds ceiling {self.degree_ceiling}")
        rule = _SURFACES[surface]
        cap = rule.node_cap(degree)
        if delta > cap:
            raise AdmissibilityError(f"delta={delta} exceeds the nodal cap {cap} for {label}")
        # every contact with the fixed line starts unassigned and of order 1
        return self._evaluate((surface, degree, delta, (), (rule.meet(degree),)))

    def _evaluate(self, key) -> int:
        """Depth-first walk of the edges below `key` on an explicit stack.

        Each edge costs one store lookup, and a finished child hands its
        value straight to its parent, so every computed key is missed
        exactly once and the store's counters do not depend on the order
        of the walk.
        """
        store = self.store
        value = store.get(key)
        if value is not None:
            return value
        # frame: [key, running total, edge iterator, factor in the parent]
        stack = [[key, *_step(key), 1]]
        while True:
            frame = stack[-1]
            for factor, child in frame[2]:
                value = store.get(child)
                if value is None:
                    stack.append([child, *_step(child), factor])
                    break
                frame[1] += factor * value
            else:
                key, value, _, factor = stack.pop()
                store.put(key, value)
                if not stack:
                    return value
                stack[-1][1] += factor * value


def severi_p2(d: int, delta: int, engine: SeveriEngine = None) -> int:
    return (engine or SeveriEngine()).severi_p2(d, delta)


def severi_quadric(a: int, b: int, delta: int, engine: SeveriEngine = None) -> int:
    return (engine or SeveriEngine()).severi_quadric(a, b, delta)
