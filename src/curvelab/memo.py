"""The memo store of the Severi recursion and its cache file.

A memo key is `(surface, degree, delta, alpha, beta)`, alpha and beta
the assigned and unassigned tangency profiles; its value is an exact
count that never changes.  The surface's row in `surfaces.SURFACES`
spells and parses its degree (its class) in cache lines.  Inside the
engine and the store a key is one int, `head << 2B | alpha << B | beta`:
the head `(surface, degree, delta)` and the two profiles are interned to
ids below 2^B (B = `ID_BITS` = 20), each id naming one shared tuple, so
a key is below 2^60 and costs 32 bytes where the 5-tuple cost 80.
`join` and `split` spell the layout at the store's boundary.  It is
spelled again inline where a call per key would cost: the Severi walk's
`_step` and `_edges` (with `SPLIT_SHIFT`, `ID_MASK` and `_ALPHA_MASK`;
a split node sets the bits above a key's), so that the walk makes no
call per edge, and `MemoStore._lookup_loaded`, which shifts out a key's
head.  A change to the layout changes all three.  A new head or
profile whose id would reach 2^B is refused, so two keys never share an
int.  Only the store's boundary sees tuples or text: `table` and error
messages unpack a key, and each head and profile is spelled for
cache lines once, when it gets its id, by `%d`, which spells an int
subclass by its value; a cache field is read back through a map from
spelling to id, so a process parses each distinct spelling once.

A cache file is a header line
`curvelab-memo/v1 <sha256 hex of the body>` and a body of one canonical
line per key, e.g. `P2 3 1 - 3 12` (`-` is the empty profile), sorted as
bytes: being printable ASCII, lines sort alike with or without newlines.
Loading checks the digest before it parses a line, then the order and
the canonical form of every line and that no key has two values, and
keeps the lines without building a table, with the span of lines of
each head.  A file loads only into an empty store, so a store is at most
one file's verified lines plus one dict of the values the engine put
since, and each value is held in one place: a loaded value is parsed
from its line, found by bisection within its head's span, each time it
is read, and is never copied into the dict.  A key whose head has no
span is missed without formatting or bisecting anything, and a new key
is looked for in the lines once, when it is missed: the engine puts
only a key it has just missed.  A replay reads few loaded values, so a
value is parsed when read, not at load; and most new keys of a count
computed on top of a cache have a head the file lacks, so a miss checks
its head's span before it formats a line prefix (measured in CHANGES.md,
under the memo store that keeps each value in one place and the faster
Severi recursion).  The engine reads a value by `MemoStore.lookup`,
which counts no hit: it is the dict's own `get` while no file is loaded,
so a cold count makes no Python call per read, and once a file is, a
read that falls back to the loaded lines.  The engine counts its hits
itself and adds them to the store's.  Saving joins the
stored spellings of only the keys put since, formatting no field, and
merges their lines into the loaded ones as it writes; a store that holds
exactly what it loaded is not written back.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from collections.abc import Mapping

from .errors import CeilingError, CurvelabError, InconsistencyError, InputError
from .surfaces import SURFACES

ID_BITS = 20
ID_MASK = (1 << ID_BITS) - 1


class _Parts(list):
    """The heads or the profiles of memo keys, interned: a query's tens of
    thousands of keys hold only a few hundred of each.  The list maps an
    id to the one shared tuple and `ids` maps it back.  A part is spelled
    for cache lines once, when it gets its id: `spellings` maps an id to
    its bytes and `by_spelling` maps them back."""

    def __init__(self, spell, parse):
        super().__init__()
        self.ids, self.spellings, self.by_spelling = {}, [], {}
        self.spell, self.parse = spell, parse

    def id(self, value: tuple) -> int:
        """The id of `value`, assigned if new."""
        i = self.ids.get(value)
        if i is None:
            i = len(self)
            if i >> ID_BITS:
                raise CeilingError(f"more than {1 << ID_BITS} distinct memo key parts")
            spelling = self.spell(value).encode("ascii")
            self.append(value)
            self.spellings.append(spelling)
            self.ids[value] = self.by_spelling[spelling] = i
        return i

    def check(self, field: bytes):
        """Intern the part that a cache-line field spells; refuse the field
        unless it is that part's spelling, so that every part has exactly
        one spelling in a file."""
        try:
            if self.spellings[self.id(self.parse(field.decode("ascii")))] == field:
                return
        except (LookupError, ValueError):
            pass
        raise InputError(f"bad field {field.decode('ascii', 'replace')!r}")


# the bit layout of a key, which the hot paths also spell inline (see the
# module docstring)
def join(head: int, alpha: int, beta: int) -> int:
    """The int key of a head id and two profile ids.  Each id fills its
    own bits, so a key is the OR of its three fields: `join(h, a, b) ==
    join(h, 0, 0) | join(0, a, 0) | b`."""
    return (head << ID_BITS | alpha) << ID_BITS | beta


def split(key: int) -> tuple:
    """(head id, alpha id, beta id) of an int key."""
    return key >> 2 * ID_BITS, key >> ID_BITS & ID_MASK, key & ID_MASK


def _packed(key: tuple):
    """The int of a tuple key, or None if it is no 5-tuple or a part of
    it has no id, unhashable parts included; a lookup assigns no id."""
    if type(key) is not tuple or len(key) != 5:
        return None
    try:
        ids = HEADS.ids.get(key[:3]), PROFILES.ids.get(key[3]), PROFILES.ids.get(key[4])
    except TypeError:
        return None
    return None if None in ids else join(*ids)


def unpack(key: int) -> tuple:
    """The tuple key of an int key, its profiles the shared tuples."""
    head, alpha, beta = split(key)
    return HEADS[head] + (PROFILES[alpha], PROFILES[beta])


def trim(profile) -> tuple:
    t = tuple(profile)
    while t and t[-1] == 0:
        t = t[:-1]
    return t


_MAGIC = b"curvelab-memo/v1 "
_HEADER_LEN = len(_MAGIC) + 64 + 1
# a load hashes, and a save writes, this many lines at a time
_CHUNK_LINES = 4096


def _sha256():
    # imported here: hashlib loads OpenSSL, which would cost every
    # command a few milliseconds, and only cache files need it
    import hashlib

    return hashlib.sha256()


def _format_profile(profile) -> str:
    return ",".join("%d" % c for c in profile) if profile else "-"


def _format_head(head) -> str:
    surface, degree, delta = head
    return "%s %s %d" % (surface, SURFACES[surface].spell(degree), delta)


def _natural(text) -> int:
    if not text.isdigit():
        raise ValueError(text)
    return int(text)


def _parse_head(text: str) -> tuple:
    surface, degree, delta = text.split(" ")
    return surface, SURFACES[surface].parse(degree), _natural(delta)


def _parse_profile(text: str) -> tuple:
    return () if text == "-" else trim(_natural(c) for c in text.split(","))


HEADS = _Parts(_format_head, _parse_head)
PROFILES = _Parts(_format_profile, _parse_profile)
# the empty profile, which every count's first key holds, has id 0 from
# the start, so a store that only loads a file finds such keys too
PROFILES.id(())
head_id, profile_id = HEADS.id, PROFILES.id


def _prefix(head: int, alpha: int, beta: int) -> bytes:
    """The start of the line of the key of a head id and two profile ids,
    up to its value."""
    return b"%s %s %s " % (HEADS.spellings[head], PROFILES.spellings[alpha],
                           PROFILES.spellings[beta])


def _parse_line(raw: bytes) -> tuple:
    """The int key and the value of a verified line."""
    head, alpha, beta, text = raw[:-1].rsplit(b" ", 3)
    profiles = PROFILES.by_spelling
    return join(HEADS.by_spelling[head], profiles[alpha], profiles[beta]), int(text)


class MemoStore:
    """Key -> value table with provenance counters.

    The store is the verified lines of at most one file, loaded into an
    empty store, with the span of lines of each head, plus one dict,
    `_values`, of the values put since: a loaded value is parsed from its
    line, bisected for within its head's span, each time it is read, and
    the dict holds neither a parsed value nor a miss.  The engine reads and
    writes int keys (`lookup`, `put_packed`) and counts the hits; `table`
    reads tuple keys, for code that uses a store without the engine.
    """

    def __init__(self):
        self.computed = 0
        self.hits = 0
        self.loaded = 0
        # The sorted, verified lines of the file loaded, and its path.  Keys
        # are never removed or remapped, so no loaded key is ever put again.
        self._lines = []
        self._body_path = None
        # by head id, the (first, end) indices of the lines of that head;
        # a key whose head has no span is not in the lines
        self._spans = {}
        # by int key, the value of every key put since, in the order put
        self._values = {}
        # the value of an int key, or None, counting no hit: the dict's own
        # `get` until a load binds the read that falls back to the lines
        self.lookup = self._values.get

    def __len__(self):
        return len(self._lines) + len(self._values)

    @property
    def table(self):
        """Every key and its value: the loaded keys in file order, then
        the added ones in the order they were put."""
        return _Table(self)

    def _lookup_loaded(self, key: int):
        """`lookup` once a file is loaded: the value of int `key` put since
        the load, else in the loaded lines, else None.  The line of a
        loaded key starts with the spelling of its head and profiles, so
        it is found by bisection in its head's span and its value parsed
        each time it is read; a key whose head has no span formats nothing
        and bisects nothing."""
        value = self._values.get(key)
        if value is not None:
            return value
        span = self._spans.get(key >> 2 * ID_BITS)
        if span is None:
            return None
        prefix = _prefix(*split(key))
        lines = self._lines
        first, end = span
        i = bisect_left(lines, prefix, first, end)
        if i < end and lines[i].startswith(prefix):
            return int(lines[i][len(prefix):])
        return None

    def put_packed(self, key: int, value: int):
        """Store the count `value` of an int key that a read has just
        missed, without looking for it again: the store's only write."""
        if value < 0:
            raise InconsistencyError(f"negative count {value} for key {unpack(key)}")
        self._values[key] = value
        self.computed += 1

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
        if path == self._body_path and not self._values:
            return
        lines = sorted(_prefix(*split(key)) + b"%d\n" % value for key, value in self._values.items())
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
        """Read a cache file into an empty store: a store that holds keys,
        loaded or computed, refuses before it reads the file.  Every line
        is checked before anything is kept: the body must match the digest
        in its header, be strictly sorted, spell every head, profile and
        value canonically and hold one value per key.  No value is parsed."""
        path = os.fspath(path)
        if len(self):
            raise InputError(f"cache file {path!r} can only be loaded into an empty store")
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
        for chunk in _joined(lines):
            digest.update(chunk)
        if digest.hexdigest().encode() != header[len(_MAGIC):-1]:
            raise InconsistencyError(
                f"cache file {path!r} does not match the digest in its header "
                "(corrupt or edited); delete it to regenerate"
            )
        heads, profiles = HEADS.by_spelling, PROFILES.by_spelling
        number, previous = 1, b""
        last_head = last_alpha = last_beta = None
        # (head id, index of its first line) in line order: sorted lines
        # keep the lines of a head together
        firsts = []
        try:
            for number, raw in enumerate(lines, 2):
                if raw <= previous:
                    raise InputError("line out of order or repeated")
                head, alpha, beta, text = raw[:-1].rsplit(b" ", 3)
                if not text.isdigit() or (text[0] == 48 and len(text) > 1):
                    raise InputError(f"bad value {text.decode('ascii', 'replace')!r}")
                # a spelling in a map was checked when it got its id, and a
                # head or profile equal to the previous line's was checked
                if head != last_head:
                    if head not in heads:
                        HEADS.check(head)
                    firsts.append((heads[head], number - 2))
                if alpha != last_alpha and alpha not in profiles:
                    PROFILES.check(alpha)
                if beta not in profiles:
                    PROFILES.check(beta)
                # canonical fields spell each key one way, so the lines of
                # one key differ only in their values and sort together
                if beta == last_beta and alpha == last_alpha and head == last_head:
                    key, old = _parse_line(previous)
                    raise InconsistencyError(
                        f"memo key {unpack(key)} holds both {old} and {int(text)}"
                    )
                previous, last_head, last_alpha, last_beta = raw, head, alpha, beta
            if previous and not previous.endswith(b"\n"):
                raise InputError("last line lacks its newline")
        except ValueError:
            raise InputError(
                f"cache file {path!r} line {number}: expected 6 space-separated fields"
            ) from None
        except CurvelabError as exc:
            raise type(exc)(f"cache file {path!r} line {number}: {exc}") from None
        ends = [first for _, first in firsts[1:]] + [len(lines)]
        self._spans = {head: (first, end) for (head, first), end in zip(firsts, ends)}
        self._lines, self._body_path = lines, path
        self.loaded += len(lines)
        self.lookup = self._lookup_loaded


class _Table(Mapping):
    """A read-only mapping view of a store's keys and values."""

    def __init__(self, store):
        self._store = store

    def __len__(self):
        return len(self._store)

    def __getitem__(self, key):
        # a load gives every head and profile of its lines an id (the
        # empty profile has one from the start), so a key with no id is
        # neither loaded nor put
        packed = _packed(key)
        value = None if packed is None else self._store.lookup(packed)
        if value is None:
            raise KeyError(key)
        return value

    def __iter__(self):
        store = self._store
        for raw in store._lines:
            yield unpack(_parse_line(raw)[0])
        yield from map(unpack, store._values)


def _joined(lines: list, start: int = 0):
    """`lines` from index `start` on, joined `_CHUNK_LINES` at a time."""
    for i in range(start, len(lines), _CHUNK_LINES):
        yield b"".join(lines[i:i + _CHUNK_LINES])


def _merge_lines(body: list, lines: list):
    """Chunks of the sorted `body` lines with the sorted `lines`, none of
    which it holds, merged in at their places.  The body is cut into runs
    of `_CHUNK_LINES` lines.  A run that takes no line is joined as it is;
    one that does is merged by one sort, whose two sorted runs the sort
    merges in linear time."""
    i = 0
    for start in range(0, len(body), _CHUNK_LINES):
        chunk = body[start:start + _CHUNK_LINES]
        j = bisect_left(lines, chunk[-1], i)
        if j > i:
            chunk += lines[i:j]
            chunk.sort()
        yield b"".join(chunk)
        i = j
    yield from _joined(lines, i)
