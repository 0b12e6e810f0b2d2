"""Severi degrees on the plane and the quadric surface.

Both counts run on one tangency-profile recursion relative to a fixed
line (a ruling line on the quadric): either one unassigned contact is
promoted to an assigned one, or the fixed line splits off and leaves a
residual curve with adjusted profiles and node count.  One step function
maps a memo key to its weighted child keys, read from tables built once
per distinct tangency profile, and one evaluator walks those edges
depth-first on an explicit stack, so the depth of the recursion is
bounded by memory, not by the Python call stack.  The surfaces differ
only in a small per-surface table: the base case, the residual class,
its intersection with the fixed line and its node cap.  Every value is
an exact arbitrary-precision integer, memoized in a store that can
persist to a cache file: a header line with the SHA-256 digest of the
body, then one sorted, canonical line per memo key.  Loading reads the
file's lines, checks the digest before it parses a line, then checks the
order and the canonical form of every line and that no key has two
values, and keeps the lines without building a table: a value is parsed
from its line, found by bisection, only when it is read.  Saving formats
only the keys added since, spelling each distinct field once, and merges
their lines into the loaded ones as it writes; a store that holds
exactly what it loaded is not written back.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from collections import namedtuple
from collections.abc import Mapping
from functools import cache
from math import comb

from .errors import (
    AdmissibilityError,
    CeilingError,
    CurvelabError,
    InconsistencyError,
    InputError,
    is_int,
)

DEFAULT_DEGREE_CEILING = 12


# ---------------------------------------------------------------------------
# tangency profiles: entry i counts contacts of order i+1
#
# A query's tens of thousands of memo keys hold only a few hundred
# distinct profiles.  So the profile arithmetic of an edge is read from
# tables built once per profile (`_bump`, `_alpha_splits`, `_gamma_moves`),
# and every profile that enters a memo key is interned: the keys share one
# tuple per profile instead of holding a copy each.

_PROFILES = {}


def _intern(profile: tuple) -> tuple:
    """The one tuple that stands for this profile in every memo key."""
    return _PROFILES.setdefault(profile, profile)


def trim(profile) -> tuple:
    t = tuple(profile)
    while t and t[-1] == 0:
        t = t[:-1]
    return t


def profile_moment(profile) -> int:
    return sum((i + 1) * c for i, c in enumerate(profile))


@cache
def _bump(profile: tuple, index: int, amount: int = 1) -> tuple:
    """The profile with `amount` more contacts of order index+1."""
    t = list(profile)
    while len(t) <= index:
        t.append(0)
    t[index] += amount
    return _intern(trim(t))


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
def _alpha_splits(alpha: tuple) -> tuple:
    """(alpha', moment of alpha', product of comb(alpha[i], alpha'[i])) for
    every profile alpha' that alpha dominates componentwise."""
    out = []
    for sub in _subprofiles(alpha):
        comb_alpha = 1
        for total, kept in zip(alpha, sub):
            comb_alpha *= comb(total, kept)
        out.append((_intern(trim(sub)), profile_moment(sub), comb_alpha))
    return tuple(out)


@cache
def _gamma_moves(beta: tuple, rem: int, k: int) -> tuple:
    """(factor, beta + gamma) for every gamma of moment rem with k parts:
    the new unassigned contacts of a residual, and their weight."""
    out = []
    for gamma in _partitions_with_parts(rem, k):
        beta_p = _add_profiles(beta, gamma)
        factor = 1
        for i, c in enumerate(gamma):
            if c:
                factor *= (i + 1) ** c * comb(beta_p[i], beta[i] if i < len(beta) else 0)
        out.append((factor, _intern(beta_p)))
    return tuple(out)


# ---------------------------------------------------------------------------
# memo store with persistence
#
# A cache file is a header line `curvelab-memo/v1 <sha256 hex of the body>`
# and a body of one canonical line per memo key, sorted, each ending in a
# newline.  The lines are printable ASCII, so their byte order with the
# newline included is their sort order.

_MAGIC = b"curvelab-memo/v1 "
_HEADER_LEN = len(_MAGIC) + 64 + 1
# a save writes about this many bytes of loaded body, or this many new
# lines, at a time; a load hashes this many lines at a time
_CHUNK_BYTES = 1 << 15
_CHUNK_LINES = 4096


def _sha256(data=b""):
    # imported here: hashlib loads OpenSSL, which would cost every
    # command a few milliseconds, and only cache files need it
    import hashlib

    return hashlib.sha256(data)


def _format_profile(profile) -> str:
    return ",".join(str(c) for c in profile) if profile else "-"


def _format_head(surface, degree, delta) -> str:
    deg = ",".join(map(str, degree)) if isinstance(degree, tuple) else degree
    return f"{surface} {deg} {delta}"


def _natural(text) -> int:
    if not text.isdigit():
        raise ValueError(text)
    return int(text)


def _parse_head(text: str) -> tuple:
    surface, deg, delta = text.split(" ")
    if surface == "P2":
        degree = _natural(deg)
    elif surface == "P1XP1":
        a, b = deg.split(",")
        degree = (_natural(a), _natural(b))
    else:
        raise ValueError(surface)
    return surface, degree, _natural(delta)


def _parse_profile(text: str) -> tuple:
    return () if text == "-" else _intern(trim(_natural(c) for c in text.split(",")))


class _FieldMemo(dict):
    """Parsed cache fields by their bytes.  A field is parsed once, and
    only a field that its formatter writes back byte for byte is
    accepted, so every value has exactly one spelling in a file."""

    def __init__(self, parse, fmt):
        super().__init__()
        self.parse, self.fmt = parse, fmt

    def __missing__(self, field: bytes):
        try:
            text = field.decode("ascii")
            value = self.parse(text)
            canonical = self.fmt(value) == text
        except ValueError:
            canonical = False
        if not canonical:
            raise InputError(f"bad field {field.decode('ascii', 'replace')!r}")
        self[field] = value
        return value


class MemoStore:
    """Key -> value table with provenance counters.

    A key never remaps to a different value; a conflicting put (e.g. a
    corrupted cache colliding with a fresh computation) fails loudly.
    The keys of the file last loaded into an empty store stay in its
    verified lines, and a value is parsed from its line only when it is
    read; the values put since are held in a dict.
    """

    def __init__(self):
        self.computed = 0
        self.hits = 0
        self.loaded = 0
        # The sorted, verified lines of the file last loaded into an empty
        # store, its path, and the spelling in those lines of each head
        # (surface, degree, node count) and profile they hold.  Keys are
        # never removed or remapped, so no loaded key is ever added.
        self._lines = []
        self._body_path = None
        self._head_fields = {}
        self._profile_fields = {}
        # the value of every key put since and, once lines are loaded, of
        # every key looked for in them (None if they do not hold it); so
        # with lines loaded, the keys put since are also listed, in order
        self._values = {}
        self._added = []

    def __len__(self):
        return len(self._lines) + len(self._new_keys())

    def _new_keys(self):
        """The keys put since the load, in the order they were put."""
        return self._added if self._lines else self._values

    @property
    def table(self):
        """Every key and its value: the loaded keys in file order, then
        the added ones in the order they were put."""
        return _Table(self)

    def _loaded_value(self, key):
        """The value of `key` parsed from its loaded line, or None, kept
        in `_values` either way: a loaded key is parsed once however
        often it is read, and a computed key, missed by `get` and then
        put, is looked for once.  A key's line starts with the spelling
        of its head and profiles, so it is found by bisection; a key with
        a field that no loaded line spells is not looked for."""
        value = None
        head = self._head_fields.get(key[:3])
        if head is not None:
            alpha = self._profile_fields.get(key[3])
            beta = self._profile_fields.get(key[4])
            if alpha is not None and beta is not None:
                prefix = b"%s %s %s " % (head, alpha, beta)
                lines = self._lines
                i = bisect_left(lines, prefix)
                if i < len(lines) and lines[i].startswith(prefix):
                    value = int(lines[i][len(prefix):])
        self._values[key] = value
        return value

    def _value(self, key):
        value = self._values.get(key)
        if value is None and self._lines and key not in self._values:
            value = self._loaded_value(key)
        return value

    def get(self, key):
        # `_value` inlined: this is the recursion's most frequent call
        value = self._values.get(key)
        if value is None and self._lines and key not in self._values:
            value = self._loaded_value(key)
        if value is not None:
            self.hits += 1
        return value

    def put(self, key, value: int, origin: str = "computed"):
        # `_value` inlined: every computed key is put
        old = self._values.get(key)
        if old is None and self._lines and key not in self._values:
            old = self._loaded_value(key)
        if old is not None:
            if old != value:
                raise InconsistencyError(
                    f"memo key {key} already holds {old}, refusing to store {value}"
                )
            return
        if value < 0:
            raise InconsistencyError(f"negative count {value} for key {key}")
        self._values[key] = value
        if self._lines:
            self._added.append(key)
        if origin == "computed":
            self.computed += 1
        else:
            self.loaded += 1

    def stats(self) -> dict:
        return {
            "computed": self.computed,
            "hits": self.hits,
            "loaded": self.loaded,
            "size": len(self),
        }

    def save(self, path):
        """Write the table, unless the file already holds it.  Only the
        added keys are formatted and sorted; their lines are merged into
        the loaded ones as they are written.  The new file replaces the
        old one whole, so an interrupted save leaves the old file in
        place."""
        path = os.fspath(path)
        if path == self._body_path and not self._new_keys():
            return
        # a few hundred distinct heads and profiles spell every line, so
        # each is formatted once, as load parses each once
        head, profile, values = cache(_format_head), cache(_format_profile), self._values
        lines = sorted(
            f"{head(*key[:3])} {profile(key[3])} {profile(key[4])} {values[key]}\n".encode("ascii")
            for key in self._new_keys()
        )
        digest = _sha256()
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "wb") as fh:
                # the header has a fixed length: it is written once the
                # body's digest is known
                fh.seek(_HEADER_LEN)
                for chunk in _merge_lines(self._lines, lines):
                    digest.update(chunk)
                    fh.write(chunk)
                fh.seek(0)
                fh.write(_MAGIC + digest.hexdigest().encode() + b"\n")
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def load(self, path):
        """Read a cache file.  Every line is checked before anything is
        stored: the body must match the digest in its header, be strictly
        sorted, spell every head, profile and value canonically, hold one
        value per key and agree with the table.  A load into an empty
        store keeps the verified lines and parses no value; a load into a
        store that holds keys puts every loaded key."""
        path = os.fspath(path)
        with open(path, "rb") as fh:
            header = fh.read(_HEADER_LEN)
            if not header.startswith(_MAGIC) or header.find(b"\n") != _HEADER_LEN - 1:
                raise InconsistencyError(
                    f"cache file {path!r} has no curvelab-memo/v1 header; "
                    "delete it to regenerate"
                )
            lines = fh.readlines()
        # a body that fails its digest is reported as corrupt, whatever
        # else is wrong with it
        digest = _sha256()
        for i in range(0, len(lines), _CHUNK_LINES):
            digest.update(b"".join(lines[i:i + _CHUNK_LINES]))
        if digest.hexdigest().encode() != header[len(_MAGIC):-1]:
            raise InconsistencyError(
                f"cache file {path!r} does not match the digest in its header "
                "(corrupt or edited); delete it to regenerate"
            )
        heads = _FieldMemo(_parse_head, lambda head: _format_head(*head))
        profiles = _FieldMemo(_parse_profile, _format_profile)
        number, previous = 1, b""
        last_head = last_alpha = last_beta = None
        try:
            for number, raw in enumerate(lines, 2):
                if raw <= previous:
                    raise InputError("line out of order or repeated")
                head, alpha, beta, text = raw[:-1].rsplit(b" ", 3)
                if not text.isdigit() or (text[0] == 48 and len(text) > 1):
                    raise InputError(f"bad value {text.decode('ascii', 'replace')!r}")
                # each spelling of a field is parsed and checked once, and
                # a head or profile equal to the previous line's was checked
                if head != last_head:
                    heads[head]
                if alpha != last_alpha:
                    profiles[alpha]
                profiles[beta]
                # canonical fields spell each key one way, so the lines of
                # one key differ only in their values and sort together
                if beta == last_beta and alpha == last_alpha and head == last_head:
                    key, old = _parse_line(previous, heads, profiles)
                    raise InconsistencyError(f"memo key {key} holds both {old} and {int(text)}")
                previous, last_head, last_alpha, last_beta = raw, head, alpha, beta
            if previous and not previous.endswith(b"\n"):
                raise InputError("last line lacks its newline")
        except ValueError:
            raise InputError(
                f"cache file {path!r} line {number}: expected 6 space-separated fields"
            ) from None
        except CurvelabError as exc:
            raise type(exc)(f"cache file {path!r} line {number}: {exc}") from None
        if len(self):
            for raw in lines:
                self.put(*_parse_line(raw, heads, profiles), origin="loaded")
        else:
            self._lines, self._body_path = lines, path
            self._head_fields = {head: field for field, head in heads.items()}
            self._profile_fields = {profile: field for field, profile in profiles.items()}
            self.loaded += len(lines)


def _parse_line(raw: bytes, heads, profiles) -> tuple:
    """The key and value of a verified line, its fields parsed by the
    field maps `heads` and `profiles`."""
    head, alpha, beta, text = raw[:-1].rsplit(b" ", 3)
    return heads[head] + (profiles[alpha], profiles[beta]), int(text)


class _Table(Mapping):
    """A read-only mapping view of a store's keys and values."""

    def __init__(self, store):
        self._store = store

    def __len__(self):
        return len(self._store)

    def __getitem__(self, key):
        value = self._store._value(key)
        if value is None:
            raise KeyError(key)
        return value

    def __iter__(self):
        store = self._store
        heads = {field: head for head, field in store._head_fields.items()}
        profiles = {field: profile for profile, field in store._profile_fields.items()}
        for raw in store._lines:
            yield _parse_line(raw, heads, profiles)[0]
        yield from store._new_keys()


def _merge_lines(body: list, lines: list):
    """Chunks of the sorted `body` lines with the sorted `lines`, none of
    which it holds, merged in at their places.  The body is cut into runs
    of as many lines as make `_CHUNK_BYTES` at its mean line length.  A
    run that takes no line is joined as it is; one that does is merged by
    one sort, whose two sorted runs the sort merges in linear time."""
    step = max(1, _CHUNK_BYTES * len(body) // max(1, sum(map(len, body))))
    i = 0
    for start in range(0, len(body), step):
        chunk = body[start:start + step]
        j = bisect_left(lines, chunk[-1], i)
        if j > i:
            chunk += lines[i:j]
            chunk.sort()
        yield b"".join(chunk)
        i = j
    for i in range(i, len(lines), _CHUNK_LINES):
        yield b"".join(lines[i:i + _CHUNK_LINES])


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
    # split off the fixed line; the residual meets it in `meet` points,
    # of which `free` are not taken by the contacts in beta
    residual = rule.residual(degree)
    meet = rule.meet(residual)
    cap = rule.node_cap(residual)
    free = meet - profile_moment(beta)
    # the residual keeps delta - meet + k nodes, k the parts of gamma,
    # and that must lie in 0..cap
    least, most = max(meet - delta, 0), meet - delta + cap
    for alpha_p, moment_alpha, comb_alpha in _alpha_splits(alpha):
        rem = free - moment_alpha
        if rem < 0:
            continue
        for k in range(least, min(most, rem) + 1):
            delta_p = delta - meet + k
            for factor, beta_p in _gamma_moves(beta, rem, k):
                yield comb_alpha * factor, (surface, residual, delta_p, alpha_p, beta_p)


class SeveriEngine:
    def __init__(self, store: MemoStore = None, degree_ceiling: int = DEFAULT_DEGREE_CEILING):
        if not is_int(degree_ceiling):
            raise InputError(f"degree ceiling must be an integer, got {degree_ceiling!r}")
        if degree_ceiling < 1:
            raise InputError(f"degree ceiling must be at least 1, got {degree_ceiling}")
        self.store = store if store is not None else MemoStore()
        self.degree_ceiling = degree_ceiling

    def severi_p2(self, d: int, delta: int) -> int:
        if not (is_int(d) and is_int(delta)) or d < 1 or delta < 0:
            raise InputError("need degree d >= 1 and node count delta >= 0")
        return self._count("P2", d, delta, d, f"degree {d}")

    def severi_quadric(self, a: int, b: int, delta: int) -> int:
        if not all(map(is_int, (a, b, delta))) or min(a, b) < 1 or delta < 0:
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
        return self._evaluate((surface, degree, delta, (), _intern((rule.meet(degree),))))

    def _evaluate(self, key) -> int:
        """Depth-first walk of the edges below `key` on an explicit stack.

        Each edge costs one store lookup, and a finished child hands its
        value straight to its parent, so every computed key is missed
        exactly once and the store's counters do not depend on the order
        of the walk.
        """
        store = self.store
        get = store.get
        value = get(key)
        if value is not None:
            return value
        # frame: [key, running total, edge iterator, factor in the parent]
        stack = [[key, *_step(key), 1]]
        while True:
            frame = stack[-1]
            total = frame[1]
            for factor, child in frame[2]:
                value = get(child)
                if value is None:
                    frame[1] = total
                    stack.append([child, *_step(child), factor])
                    break
                total += factor * value
            else:
                key, _, _, factor = stack.pop()
                store.put(key, total)
                if not stack:
                    return total
                stack[-1][1] += factor * total


def severi_p2(d: int, delta: int, engine: SeveriEngine = None) -> int:
    return (engine or SeveriEngine()).severi_p2(d, delta)


def severi_quadric(a: int, b: int, delta: int, engine: SeveriEngine = None) -> int:
    return (engine or SeveriEngine()).severi_quadric(a, b, delta)
