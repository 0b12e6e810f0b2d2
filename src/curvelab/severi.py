"""Severi degrees on the plane and the quadric surface.

Both counts run on one tangency-profile recursion relative to a fixed
line (a ruling line on the quadric): either one unassigned contact is
promoted to an assigned one, or the fixed line splits off and leaves a
residual curve with adjusted profiles and node count.  One step function
maps a memo key to its weighted child keys, read from tables built once
per distinct tangency profile, and one evaluator walks those edges
depth-first on an explicit stack, so the depth of the recursion is
bounded by memory, not by the Python call stack.  The part of a key's
sum left when the fixed line splits off is shared by every key that
splits the same way, so the walk sums it once, as a split node, and
reuses it.  The surfaces differ
only in their rows of `surfaces.SURFACES`: the base case, the residual
class, its intersection with the fixed line and its node cap.  Every
value is an exact arbitrary-precision integer, memoized in a
`memo.MemoStore`, which can persist to a cache file.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cache
from math import comb
from operator import itemgetter, or_

from .errors import AdmissibilityError, CeilingError, InputError, is_int
from .memo import HEADS, ID_BITS, PROFILES, MemoStore, head_id, join, profile_id, trim
from .surfaces import PLANE, QUADRIC, SURFACES

DEFAULT_DEGREE_CEILING = 12


# ---------------------------------------------------------------------------
# tangency profiles: entry i counts contacts of order i+1
#
# A query's tens of thousands of memo keys hold only a few hundred
# distinct profiles, interned to ids by `memo.profile_id`.  So the profile
# arithmetic of an edge is read from tables built once per profile id
# (`_moment`, `_promotions`, `_raised`, `_alpha_splits`), or once per
# beta id and shape of gamma (`_gamma_moves` for one number of parts,
# `_split_moves` for a range of them).
# A table that gives a part of a child key gives it in the bits of its
# field: a beta id, alpha bits `join(0, a, 0)` or head bits
# `join(h, 0, 0)`, so a child key is the OR of three table entries and no
# edge calls `join`.
# `_alpha_splits` is ordered by moment, so the splits that leave room for
# new contacts are a prefix of it, cut by one bisection.


def profile_moment(profile) -> int:
    return sum((i + 1) * c for i, c in enumerate(profile))


def _bump(profile: tuple, index: int, amount: int = 1) -> tuple:
    """The profile with `amount` more contacts of order index+1."""
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


def _subprofiles(profile) -> list:
    """All componentwise-dominated profiles, untrimmed length, the first
    entry varying fastest."""
    subs = [()]
    for total in profile:
        subs = [sub + (kept,) for kept in range(total + 1) for sub in subs]
    return subs


@cache
def _partitions_with_parts(n: int, k: int) -> tuple:
    """All profiles gamma with sum of (i+1)*gamma[i] = n and k parts."""

    def rec(remaining, parts, max_part):
        if parts == 0:
            if remaining == 0:
                yield ()
            return
        # the largest part is at least remaining / parts and leaves at
        # least 1 for each of the other parts
        smallest = max(-(-remaining // parts), 1)
        for part in range(min(max_part, remaining - parts + 1), smallest - 1, -1):
            for tail in rec(remaining - part, parts - 1, part):
                yield (part,) + tail

    out = []
    for parts in rec(n, k, n):
        gamma = [0] * (parts[0] if parts else 0)
        for p in parts:
            gamma[p - 1] += 1
        out.append(tuple(gamma))
    return tuple(out)


@cache
def _moment(profile: int) -> int:
    return profile_moment(PROFILES[profile])


@cache
def _promotions(beta: int) -> tuple:
    """(i, id of beta less one contact of order i+1) for every order of
    contact that profile `beta` holds."""
    profile = PROFILES[beta]
    return tuple(
        (i, profile_id(_bump(profile, i, -1))) for i, count in enumerate(profile) if count > 0
    )


@cache
def _alpha_bits(alpha: int) -> int:
    """The alpha bits of profile id `alpha`, one int shared by every
    table that holds them."""
    return join(0, alpha, 0)


@cache
def _raised(alpha: int, index: int) -> int:
    """The alpha bits of profile `alpha` with one more contact of order
    index+1."""
    return _alpha_bits(profile_id(_bump(PROFILES[alpha], index)))


@cache
def _alpha_splits(alpha: int) -> tuple:
    """(moments, bits, combs): parallel tuples over every profile alpha'
    that profile `alpha` dominates componentwise, in order of moment, of
    the moment of alpha', its alpha bits and the product of
    comb(alpha[i], alpha'[i])."""
    profile = PROFILES[alpha]
    out = []
    for sub in _subprofiles(profile):
        moment, comb_alpha = 0, 1
        for order, (total, kept) in enumerate(zip(profile, sub), 1):
            moment += order * kept
            comb_alpha *= comb(total, kept)
        out.append((moment, _alpha_bits(profile_id(trim(sub))), comb_alpha))
    # a stable sort: the splits of one moment keep the order of `_subprofiles`
    out.sort(key=itemgetter(0))
    return tuple(zip(*out))


@cache
def _gamma_moves(beta: int, rem: int, k: int) -> tuple:
    """(factor, id of beta + gamma) for every gamma of moment rem with k
    parts: the new unassigned contacts of a residual, and their weight."""
    profile = PROFILES[beta]
    out = []
    for gamma in _partitions_with_parts(rem, k):
        beta_p = _add_profiles(profile, gamma)
        factor = 1
        for i, c in enumerate(gamma):
            if c:
                factor *= (i + 1) ** c * comb(beta_p[i], profile[i] if i < len(profile) else 0)
        out.append((factor, profile_id(beta_p)))
    return tuple(out)


@cache
def _split_moves(beta: int, rem: int, least: int, most: int) -> tuple:
    """(factors, ks, betas): parallel tuples over the gamma moves of every
    k from least to most, of the factor, of k - least and of the beta id."""
    moves = [(factor, k - least, beta_p) for k in range(least, most + 1)
             for factor, beta_p in _gamma_moves(beta, rem, k)]
    return tuple(zip(*moves)) or ((), (), ())


# ---------------------------------------------------------------------------
# the engine


def plane_node_cap(d: int) -> int:
    """Most nodes a reduced degree-d curve carries (d generic lines)."""
    return PLANE.node_cap(PLANE.checked(d))


def quadric_node_cap(a: int, b: int) -> int:
    """Most nodes on a reduced (a,b) curve (union of rulings)."""
    return QUADRIC.node_cap(QUADRIC.checked((a, b)))


# A split node stands for the split-off part of a key's sum for one
# alpha': the sum over k and gamma of factor * N(child), which depends on
# (head, alpha', beta) and not on alpha, so parents that share it share
# one node.  Its int is the key bits of (head, alpha', beta) with its
# number of terms in the bits above them, which no memo key sets.  A part
# of fewer than SPLIT_TERMS terms is summed inline by its parent: most
# parts have one term, and a node for each costs more time and memory than
# it saves (measured in CHANGES.md).
SPLIT_SHIFT = 3 * ID_BITS
SPLIT_TERMS = 4
_ID_MASK = (1 << ID_BITS) - 1
_ALPHA_MASK = join(0, _ID_MASK, 0)


@cache
def _head_rule(head: int) -> tuple:
    """(head bits, base, meet, least, tops, heads, terms) of a head id.
    `base` is None unless the head's keys are base keys, and then maps
    their alpha and beta ids to their value.  The residual left when the
    fixed line splits off meets it in `meet` points and keeps
    delta - meet + k nodes, k the parts of gamma, least <= k <= most:
    heads[k - least] is the residual's head bits.  A split-off part whose
    gamma has moment rem takes k up to tops[rem] = min(rem, most), and
    has terms[rem] edges whatever its beta."""
    surface, degree, delta = HEADS[head]
    rule = SURFACES[surface]
    head_bits = join(head, 0, 0)
    # whether a key is a base key depends on its head alone
    if rule.base(degree, delta, (), ()) is not None:
        def base(alpha, beta):
            return rule.base(degree, delta, PROFILES[alpha], PROFILES[beta])

        return head_bits, base, 0, 0, (), (), ()
    residual = rule.residual(degree)
    meet = rule.meet(residual)
    # the residual's node count must lie in 0..cap, and k is at most
    # `meet`, the most contacts left free for new ones
    least, most = max(meet - delta, 0), min(meet - delta + rule.node_cap(residual), meet)
    heads = tuple(
        join(head_id((surface, residual, delta - meet + k)), 0, 0) for k in range(least, most + 1)
    )
    tops = tuple(min(rem, most) for rem in range(meet + 1))
    terms = tuple(sum(len(_partitions_with_parts(rem, k)) for k in range(least, top + 1))
                  for rem, top in enumerate(tops))
    return head_bits, None, meet, least, tops, heads, terms


def _step(key: int):
    """(base value, iterator of (factor, child) edges) of an int memo key
    or split node: its value is the base value plus the sum of factor *
    child value."""
    if key >> SPLIT_SHIFT:
        alpha_bits, beta = key & _ALPHA_MASK, key & _ID_MASK
        _, _, meet, least, tops, heads, _ = _head_rule(key >> 2 * ID_BITS & _ID_MASK)
        rem = meet - _moment(beta) - _moment(alpha_bits >> ID_BITS)
        factors, ks, betas = _split_moves(beta, rem, least, tops[rem])
        return 0, zip(factors, map(or_, map(heads.__getitem__, ks), map(alpha_bits.__or__, betas)))
    rule = _head_rule(key >> 2 * ID_BITS)
    if rule[1] is not None:
        return rule[1](key >> ID_BITS & _ID_MASK, key & _ID_MASK), ()
    return 0, _edges(rule, key >> ID_BITS & _ID_MASK, key & _ID_MASK)


def _edges(rule, alpha: int, beta: int):
    head_bits, _, meet, least, tops, heads, terms = rule
    # promote one unassigned contact of order i+1 to an assigned one
    for i, beta_p in _promotions(beta):
        yield i + 1, head_bits | _raised(alpha, i) | beta_p
    # split off the fixed line; the residual meets it in `meet` points,
    # of which `free` are not taken by the contacts in beta, and k >= least
    # is the number of parts of gamma, whose moment rem is at least k: so
    # only the alpha' of moment at most free - least leave room for gamma
    free = meet - _moment(beta)
    moments, bits, combs = _alpha_splits(alpha)
    for j in range(bisect_right(moments, free - least)):
        rem = free - moments[j]
        n, comb_alpha, alpha_p = terms[rem], combs[j], bits[j]
        if n >= SPLIT_TERMS:
            yield comb_alpha, n << SPLIT_SHIFT | head_bits | alpha_p | beta
        elif n:
            factors, ks, betas = _split_moves(beta, rem, least, tops[rem])
            for factor, k, beta_p in zip(factors, ks, betas):
                yield comb_alpha * factor, heads[k] | alpha_p | beta_p


class SeveriEngine:
    def __init__(self, store: MemoStore = None, degree_ceiling: int = DEFAULT_DEGREE_CEILING):
        # below 1 nothing is counted, so no ceiling can have been reached
        if not is_int(degree_ceiling):
            raise InputError(f"degree ceiling must be an integer, got {degree_ceiling!r}")
        if degree_ceiling < 1:
            raise InputError(f"degree ceiling must be at least 1, got {degree_ceiling}")
        self.store = store if store is not None else MemoStore()
        self.degree_ceiling = degree_ceiling

    def severi_p2(self, d: int, delta: int) -> int:
        return self.count(PLANE, d, delta)

    def severi_quadric(self, a: int, b: int, delta: int) -> int:
        return self.count(QUADRIC, (a, b), delta)

    def count(self, surface, klass, delta: int) -> int:
        """The number of `delta`-nodal curves of a class on a surface row."""
        if not (surface.valid(klass) and is_int(delta)) or delta < 0:
            raise InputError(f"need {surface.kind} {', '.join(surface.flags)} >= 1 "
                             "and node count delta >= 0")
        label = surface.label(klass)
        if surface.size(klass) > self.degree_ceiling:
            raise CeilingError(f"{label} exceeds ceiling {self.degree_ceiling}")
        cap = surface.node_cap(klass)
        if delta > cap:
            raise AdmissibilityError(f"delta={delta} exceeds the nodal cap {cap} for {label}")
        # every contact with the fixed line starts unassigned and of order 1
        head = head_id((surface.name, klass, delta))
        return self._evaluate(join(head, profile_id(()), profile_id((surface.meet(klass),))))

    def _evaluate(self, key: int) -> int:
        """Depth-first walk of the edges below `key` on an explicit stack.

        Each edge costs one store lookup, and a finished child hands its
        value straight to its parent, so every computed key is missed
        exactly once and the store's counters do not depend on the order
        of the walk.  A split node is summed once per walk and then read
        from `sums`; each read adds its number of terms to the hits, the
        lookups that summing it again would have found, so the counters
        are those of a walk without split nodes.  The walk counts its hits
        locally and adds them to the store's once, when it ends.
        """
        store = self.store
        lookup = store.lookup
        value = lookup(key)
        if value is not None:
            store.hits += 1
            return value
        hits = 0
        sums = {}
        # frame: [key, running total, edge iterator, factor in the parent]
        stack = [[key, *_step(key), 1]]
        try:
            while True:
                frame = stack[-1]
                total = frame[1]
                for factor, child in frame[2]:
                    value = lookup(child)
                    if value is None:
                        value = sums.get(child)
                        if value is None:
                            frame[1] = total
                            stack.append([child, *_step(child), factor])
                            break
                        hits += child >> SPLIT_SHIFT
                    else:
                        hits += 1
                    total += factor * value
                else:
                    key, _, _, factor = stack.pop()
                    if key >> SPLIT_SHIFT:
                        sums[key] = total
                    else:
                        store.put_packed(key, total)
                    if not stack:
                        return total
                    stack[-1][1] += factor * total
        finally:
            store.hits += hits


def severi_p2(d: int, delta: int, engine: SeveriEngine = None) -> int:
    return (engine or SeveriEngine()).severi_p2(d, delta)


def severi_quadric(a: int, b: int, delta: int, engine: SeveriEngine = None) -> int:
    return (engine or SeveriEngine()).severi_quadric(a, b, delta)
