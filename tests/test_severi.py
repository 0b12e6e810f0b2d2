import ast
import hashlib
import itertools
import math
import os
import random
import re
import subprocess
import sys
from collections import Counter

import pytest

import curvelab
from curvelab import memo, severi
from curvelab.cli import entry
from curvelab.errors import (
    AdmissibilityError,
    CeilingError,
    InconsistencyError,
    InputError,
)
from curvelab.fitter import fit_nodes
from curvelab.severi import (
    MemoStore,
    SeveriEngine,
    plane_node_cap,
    quadric_node_cap,
    severi_p2,
    severi_quadric,
)
from curvelab.surfaces import SURFACES

PLANE_ANCHORS = {
    (1, 0): 1,
    (2, 0): 1,
    (2, 1): 3,
    (3, 1): 12,
    (4, 1): 27,
    (4, 2): 225,
    (4, 3): 675,
}


@pytest.fixture(scope="module")
def engine():
    return SeveriEngine()


def test_plane_anchors(engine):
    for (d, delta), want in PLANE_ANCHORS.items():
        assert engine.severi_p2(d, delta) == want


def test_quadric_anchors(engine):
    assert engine.severi_quadric(1, 1, 1) == 2
    assert engine.severi_quadric(2, 2, 1) == 12


def test_one_node_closed_form(engine):
    for d in range(2, 9):
        assert engine.severi_p2(d, 1) == 3 * (d - 1) ** 2


def test_zero_nodes_is_one(engine):
    for d in range(1, 9):
        assert engine.severi_p2(d, 0) == 1
    for a in range(1, 5):
        for b in range(1, 5):
            assert engine.severi_quadric(a, b, 0) == 1


def test_quadric_symmetry(engine):
    for a in range(1, 5):
        for b in range(a, 5):
            for delta in range(0, min(a * b, 4) + 1):
                assert engine.severi_quadric(a, b, delta) == engine.severi_quadric(
                    b, a, delta
                )


def test_positive_below_genus_bound(engine):
    # counts of irreducible-range node numbers never vanish
    for d in range(1, 7):
        for delta in range((d - 1) * (d - 2) // 2 + 1):
            assert engine.severi_p2(d, delta) > 0


def test_maximal_nodes_counts_line_arrangements(engine):
    # delta at the cap forces a union of d lines; the count is the number
    # of ways to pair off 2d general points, which is elementary
    for d in range(2, 5):
        pairings = 1
        for k in range(d):
            pairings *= math.comb(2 * d - 2 * k, 2)
        assert engine.severi_p2(d, plane_node_cap(d)) == pairings // math.factorial(d)
    # on the quadric the cap forces a+b rulings through a+b points
    for a in range(1, 4):
        for b in range(1, 4):
            assert engine.severi_quadric(a, b, quadric_node_cap(a, b)) == math.comb(
                a + b, a
            )


def test_long_ruling_chain_needs_no_call_stack():
    # 600 nested residual classes (a, 1) -> (a-1, 1): far deeper than the
    # Python call stack allows
    eng = SeveriEngine(degree_ceiling=600)
    assert eng.severi_quadric(600, 1, 1) == 1200


def test_one_evaluator_for_both_surfaces(monkeypatch):
    stepped = []
    step = severi._step
    monkeypatch.setattr(severi, "_step", lambda key: stepped.append(key) or step(key))
    eng = SeveriEngine()
    lookups = []
    lookup = eng.store.lookup
    monkeypatch.setattr(eng.store, "lookup",
                        lambda key: lookups.append((key, lookup(key))) or lookups[-1][1])
    eng.severi_p2(6, 5)
    eng.severi_quadric(4, 3, 4)
    # every memo key of either surface went through the one step function
    # exactly once, and each computed key was missed exactly once
    keys = [key for key in stepped if not key >> severi.SPLIT_SHIFT]
    assert {memo.unpack(key)[0] for key in keys} == {"P2", "P1XP1"}
    assert len(keys) == len(set(keys)) == eng.store.computed
    assert {memo.unpack(key) for key in keys} == set(eng.store.table)
    plain = [(key, value) for key, value in lookups if not key >> severi.SPLIT_SHIFT]
    assert [key for key, value in plain if value is None] == keys
    # a split node misses the store, is summed once per walk and credits
    # its terms to the hits each time it is read again
    sums = [key for key in stepped if key >> severi.SPLIT_SHIFT]
    assert sums and len(sums) == len(set(sums))
    assert all(value is None for key, value in lookups if key >> severi.SPLIT_SHIFT)
    credited = sum(key >> severi.SPLIT_SHIFT for key, _ in lookups) - sum(
        key >> severi.SPLIT_SHIFT for key in sums)
    assert credited > 0
    assert eng.store.hits == len(plain) - eng.store.computed + credited


def test_admissibility_cap():
    eng = SeveriEngine()
    with pytest.raises(AdmissibilityError):
        eng.severi_p2(3, 4)
    with pytest.raises(AdmissibilityError):
        eng.severi_quadric(2, 2, 5)
    assert eng.severi_p2(3, 3) == 15


def test_degree_ceiling():
    eng = SeveriEngine()
    with pytest.raises(CeilingError):
        eng.severi_p2(13, 1)
    small = SeveriEngine(degree_ceiling=5)
    with pytest.raises(CeilingError):
        small.severi_p2(6, 1)
    with pytest.raises(CeilingError):
        small.severi_quadric(6, 1, 0)
    assert small.severi_p2(5, 1) == 48


def test_input_validation():
    eng = SeveriEngine()
    for bad in [(0, 0), (2, -1), ("3", 1), (3, 1.0), (True, 0), (2, True)]:
        with pytest.raises(InputError, match="need degree d >= 1"):
            eng.severi_p2(*bad)
    for bad in [(0, 1, 0), (1, 0, 0), (1, 1, -2), (1.5, 1, 0), (True, 1, 0), (1, 1, False)]:
        with pytest.raises(InputError, match="need bidegree a, b >= 1"):
            eng.severi_quadric(*bad)


def test_bool_arguments_never_reach_the_cache(tmp_path):
    eng = SeveriEngine()
    for call in (lambda: eng.severi_p2(2, True), lambda: severi_p2(True, 0, engine=eng),
                 lambda: eng.severi_quadric(1, True, 0)):
        with pytest.raises(InputError):
            call()
    assert len(eng.store) == 0
    eng.severi_p2(2, 1)
    path = tmp_path / "memo.cache"
    eng.store.save(path)
    assert b"True" not in path.read_bytes()
    reloaded = MemoStore()
    reloaded.load(path)
    assert reloaded.stats()["loaded"] == len(eng.store)


def test_degree_ceiling_must_be_an_integer():
    for bad in [True, "12", 12.0]:
        with pytest.raises(InputError, match="degree ceiling must be an integer"):
            SeveriEngine(degree_ceiling=bad)
    with pytest.raises(InputError, match="degree ceiling must be at least 1, got 0"):
        SeveriEngine(degree_ceiling=0)


def test_module_level_helpers():
    assert severi_p2(3, 1) == 12
    assert severi_quadric(2, 2, 1) == 12
    shared = SeveriEngine()
    assert severi_p2(4, 2, engine=shared) == 225
    # the stats the README shows for `severi p2 -d 4 --nodes 2 --json`
    assert shared.store.stats() == {"computed": 39, "hits": 21, "loaded": 0, "size": 39}


def test_memo_hits_grow(engine):
    engine.severi_p2(4, 2)
    before = engine.store.stats()["hits"]
    engine.severi_p2(4, 2)
    after = engine.store.stats()["hits"]
    assert after == before + 1


def test_cache_round_trip(tmp_path):
    cold = SeveriEngine()
    value = cold.severi_p2(5, 2)
    path = tmp_path / "memo.txt"
    cold.store.save(path)

    warm_store = MemoStore()
    warm_store.load(path)
    assert warm_store.loaded == len(warm_store) > 0
    warm = SeveriEngine(warm_store)
    assert warm.severi_p2(5, 2) == value
    # warm run answers straight from the table
    assert warm_store.computed == 0

    MemoStore().save(path)
    empty = MemoStore()
    empty.load(path)
    assert empty.stats() == {"computed": 0, "hits": 0, "loaded": 0, "size": 0}


def test_cache_bytes_are_deterministic(tmp_path):
    first = SeveriEngine()
    first.severi_quadric(3, 2, 2)
    first.severi_p2(4, 1)
    p1 = tmp_path / "a.txt"
    p2 = tmp_path / "b.txt"
    first.store.save(p1)

    second = SeveriEngine()
    second.severi_p2(4, 1)
    second.severi_quadric(3, 2, 2)
    second.store.save(p2)
    assert p1.read_bytes() == p2.read_bytes()

    # a store that was loaded and then grew is saved like a cold one
    p3 = tmp_path / "c.txt"
    SeveriEngine().store.save(p3)
    partial = SeveriEngine()
    partial.severi_p2(4, 1)
    partial.store.save(p3)
    grown = MemoStore()
    grown.load(p3)
    SeveriEngine(grown).severi_quadric(3, 2, 2)
    grown.save(p3)
    assert p3.read_bytes() == p1.read_bytes()


def test_cache_line_format(tmp_path):
    store = _run(SeveriEngine(), ("p2", 4, 2), ("quadric", 2, 3, 1))
    path = tmp_path / "memo.txt"
    store.save(path)
    header, body = path.read_bytes().split(b"\n", 1)
    assert header == b"curvelab-memo/v1 " + hashlib.sha256(body).hexdigest().encode()
    lines = body.decode().splitlines()
    assert lines == sorted(lines) and len(lines) == len(store) == 58
    assert lines[6] == "P1XP1 1,3 0 1 0,1 2" and lines[-5] == "P2 4 2 - 4 225"

    back = MemoStore()
    back.load(path)
    assert back.table == store.table


# heads and profiles that no count builds, new on every run
_FRESH = itertools.count(10 ** 6)


def test_cache_rejects_malformed_lines(tmp_path, write_cache):
    for lines in [
        ["P2 4 2 - 4"],
        ["P3 4 2 - 4 225"],
        ["P1XP1 4 2 - 4 225"],
        ["P2 4 2 x 4 225"],
        # out of order, repeated, or not in canonical form
        ["P2 3 1 - 3 12", "P2 2 1 - 2 3"],
        ["P2 3 1 - 3 12", "P2 3 1 - 3 12"],
        ["P2 3 1 - 3,0 12"],
        ["P2 03 1 - 3 12"],
        ["P2 3 1 - 3 012"],
        ["P2 3 1 - 0 12"],
        ["P2 3 1 - 3 +12"],
        ["P1XP1 2,03 1 - 3 12"],
        ["P2 3 1 - 3 12", ""],
    ]:
        path = tmp_path / "bad.txt"
        write_cache(path, lines)
        with pytest.raises(InputError):
            MemoStore().load(path)
    # a new profile and a new head spelled otherwise than their one
    # spelling are refused when the field gives them their ids, and again
    # once they have them
    n, m = next(_FRESH), next(_FRESH)
    path = tmp_path / "bad.txt"
    for line in (f"P2 {n} 0 - {n},0 1", f"P2 0{m} 0 - 1 1"):
        write_cache(path, [line])
        for _ in range(2):
            with pytest.raises(InputError, match="bad field"):
                MemoStore().load(path)
    assert (n,) in memo.PROFILES.ids and ("P2", m, 0) in memo.HEADS.ids
    # a refused spelling is not kept, and the canonical one is read
    assert f"{n},0".encode() not in memo.PROFILES.by_spelling
    assert f"P2 0{m} 0".encode() not in memo.HEADS.by_spelling
    write_cache(path, [f"P2 {n} 0 - {n} 1", f"P2 {m} 0 - 1 1"])
    store = MemoStore()
    store.load(path)
    assert dict(store.table.items()) == {("P2", n, 0, (), (n,)): 1, ("P2", m, 0, (), (1,)): 1}


def test_cache_load_conflict(tmp_path, write_cache):
    good = tmp_path / "good.txt"
    bad = tmp_path / "bad.txt"
    # one key with two values within one file
    write_cache(bad, ["P2 3 1 - 3 12", "P2 3 1 - 3 13"])
    with pytest.raises(InconsistencyError):
        MemoStore().load(bad)
    # a second file, which here disagrees with the first, is refused whole
    write_cache(good, ["P2 3 1 - 3 12"])
    write_cache(bad, ["P2 3 1 - 3 999"])
    store = MemoStore()
    store.load(good)
    with pytest.raises(InputError, match=re.escape(repr(str(bad)))):
        store.load(bad)
    assert dict(store.table) == {("P2", 3, 1, (), (3,)): 12}


# A 291-line cache in which `severi p2 -d 3 --nodes 1` reads one key, on
# line 80.  Each case spoils one line far from it, before or after, and
# names the error a load raises: every line is checked, not just the one
# that is read.
FAR_QUERIES = (("p2", 6, 4), ("quadric", 3, 3, 2))


def _swap(lines, i):
    lines[i], lines[i + 1] = lines[i + 1], lines[i]


def _repeat_with_another_value(lines, i):
    lines.insert(i + 1, lines[i] + "0")


def _respell(i, old, new):
    def edit(lines):
        assert lines[i].endswith(old)
        lines[i] = lines[i][: -len(old)] + new
    return edit


FAR_DEFECTS = [
    pytest.param(lambda lines: _swap(lines, 250), InputError, 253,
                 "line out of order or repeated", id="out-of-order"),
    pytest.param(lambda lines: _repeat_with_another_value(lines, 229), InconsistencyError, 232,
                 "memo key ('P2', 5, 1, (2,), (1, 1)) holds both 176 and 1760",
                 id="two-values-after"),
    pytest.param(lambda lines: _repeat_with_another_value(lines, 40), InconsistencyError, 43,
                 "memo key ('P1XP1', (2, 3), 1, (0, 1), (1,)) holds both 18 and 180",
                 id="two-values-before"),
    pytest.param(_respell(260, " 2 882", " 2,0 882"), InputError, 262, "bad field '2,0'",
                 id="field-after"),
    pytest.param(_respell(5, " 2 1 1", " 2,0 1 1"), InputError, 7, "bad field '2,0'",
                 id="field-before"),
    pytest.param(_respell(270, " 22848", " 22848x"), InputError, 272, "bad value '22848x'",
                 id="value"),
]


@pytest.mark.parametrize("spoil, error, number, message", FAR_DEFECTS)
def test_cache_load_checks_lines_far_from_the_key_read(
        spoil, error, number, message, tmp_path, capsys, write_cache):
    path = tmp_path / "memo.txt"
    _run(SeveriEngine(), *FAR_QUERIES).save(path)
    lines = path.read_text().splitlines()[1:]
    assert len(lines) == 291 and lines[78] == "P2 3 1 - 3 12"
    spoil(lines)
    write_cache(path, lines)
    expected = f"cache file {str(path)!r} line {number}: {message}"
    with pytest.raises(error) as info:
        MemoStore().load(path)
    assert str(info.value) == expected
    code = entry(["severi", "p2", "-d", "3", "--nodes", "1", "--cache", str(path)])
    assert (code, capsys.readouterr()) == (error.exit_code, ("", f"error: {expected}\n"))


def _file_table(path):
    """Key -> value of a cache file, read without the store."""
    def profile(text):
        return () if text == "-" else tuple(int(c) for c in text.split(","))

    table = {}
    for line in path.read_text().splitlines()[1:]:
        surface, degree, delta, alpha, beta, value = line.split(" ")
        degree = tuple(map(int, degree.split(","))) if "," in degree else int(degree)
        table[(surface, degree, int(delta), profile(alpha), profile(beta))] = int(value)
    return table


def test_table_after_a_load_is_the_whole_table(tmp_path):
    a, full = tmp_path / "a.txt", tmp_path / "full.txt"
    _run(SeveriEngine(), LOADED_QUERY).save(a)
    _run(SeveriEngine(), LOADED_QUERY, *GROWN_QUERIES).save(full)
    loaded, everything = _file_table(a), _file_table(full)
    store = MemoStore()
    store.load(a)
    assert store.table == loaded
    assert len(store.table) == len(store) == store.loaded == len(loaded)
    assert list(store.table) == list(loaded)
    _run(SeveriEngine(store), *GROWN_QUERIES)
    assert store.table == everything and dict(store.table) == everything
    assert len(store.table) == len(everything)
    # the loaded keys in file order, then exactly the new ones
    keys = list(store.table)
    assert keys[:store.loaded] == list(loaded)
    new_keys = keys[store.loaded:]
    assert len(new_keys) == store.computed == len(set(new_keys))
    assert set(new_keys) == everything.keys() - loaded.keys()
    assert ("P2", 99, 0, (), (99,)) not in store.table


def test_cache_refuses_a_body_that_fails_its_digest(tmp_path):
    eng = SeveriEngine()
    eng.severi_p2(4, 2)
    path = tmp_path / "memo.txt"
    eng.store.save(path)
    data = path.read_bytes()
    header, body = data.split(b"\n", 1)
    for bad in [
        body,  # no header, as written before the header existed
        data.replace(b"P2 3 1 - 3 12\n", b"P2 3 1 - 3 13\n"),
        data[: len(data) // 2],
        data[: data.rindex(b"\n", 0, -1) + 1],
        b"curvelab-memo/v2" + data[16:],
        b"",
    ]:
        path.write_bytes(bad)
        store = MemoStore()
        with pytest.raises(InconsistencyError):
            store.load(path)
        assert len(store) == 0


def test_interrupted_save_keeps_the_old_cache(tmp_path, monkeypatch):
    path = tmp_path / "memo.txt"
    eng = SeveriEngine()
    eng.severi_p2(3, 1)
    eng.store.save(path)
    before = path.read_bytes()
    eng.severi_p2(4, 2)

    def interrupt(src, dst):
        raise KeyboardInterrupt

    monkeypatch.setattr(memo.os, "replace", interrupt)
    with pytest.raises(KeyboardInterrupt):
        eng.store.save(path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["memo.txt"]
    back = MemoStore()
    back.load(path)
    assert back.loaded == before.count(b"\n") - 1 > 0

    # a store that loaded the file and grew
    SeveriEngine(back).severi_p2(4, 2)
    with pytest.raises(KeyboardInterrupt):
        back.save(path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["memo.txt"]


# the keys of the first query are loaded; those of the others sort before,
# between and after them
LOADED_QUERY = ("p2", 4, 1)
GROWN_QUERIES = (("quadric", 3, 2, 2), ("p2", 6, 2))


def _run(engine, *queries):
    for surface, *args in queries:
        getattr(engine, f"severi_{surface}")(*args)
    return engine.store


def _cold_bytes(tmp_path):
    path = tmp_path / "cold.txt"
    _run(SeveriEngine(), LOADED_QUERY, *GROWN_QUERIES).save(path)
    return path.read_bytes()


@pytest.mark.parametrize("chunk_lines", [memo._CHUNK_LINES, 1, 3])
def test_grown_save_merges_new_lines_into_the_loaded_body(chunk_lines, tmp_path, monkeypatch):
    monkeypatch.setattr(memo, "_CHUNK_LINES", chunk_lines)
    cold = _cold_bytes(tmp_path)
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    _run(SeveriEngine(), LOADED_QUERY).save(a)
    before = a.read_bytes()
    grown = MemoStore()
    grown.load(a)
    _run(SeveriEngine(grown), *GROWN_QUERIES).save(b)
    assert b.read_bytes() == cold
    assert a.read_bytes() == before
    # a store loaded from one file and saved, unchanged, to another
    same = MemoStore()
    same.load(a)
    same.save(b)
    assert b.read_bytes() == before


def test_a_load_into_a_store_that_holds_keys_is_refused(tmp_path, write_cache):
    a, b, fresh = (tmp_path / name for name in ("a.txt", "b.txt", "fresh.txt"))
    _run(SeveriEngine(), LOADED_QUERY).save(a)
    _run(SeveriEngine(), *GROWN_QUERIES).save(b)
    # a head no count builds: a load that read the file would give it an id
    n = next(_FRESH)
    write_cache(fresh, [f"P2 {n} 0 - {n} 1"])
    computed = _run(SeveriEngine(), GROWN_QUERIES[0])
    loaded = MemoStore()
    loaded.load(a)
    grown = MemoStore()
    grown.load(a)
    _run(SeveriEngine(grown), GROWN_QUERIES[0])
    for name, store in (("computed", computed), ("loaded", loaded), ("grown", grown)):
        before, after = tmp_path / f"{name}.before", tmp_path / f"{name}.after"
        stats, table = store.stats(), dict(store.table)
        store.save(before)
        for path in (a, b, fresh):
            message = f"cache file {str(path)!r} can only be loaded into an empty store"
            with pytest.raises(InputError, match=re.escape(message)):
                store.load(path)
        assert store.stats() == stats and dict(store.table) == table
        store.save(after)
        assert after.read_bytes() == before.read_bytes()
    assert ("P2", n, 0) not in memo.HEADS.ids


def test_values_hold_only_the_keys_put_since_the_load(tmp_path):
    path = tmp_path / "a.txt"
    _run(SeveriEngine(), LOADED_QUERY).save(path)
    # a replay reads loaded values and keeps none of them, nor its misses
    replay = MemoStore()
    replay.load(path)
    assert replay.table.get(("P2", 99, 0, (), (99,))) is None
    _run(SeveriEngine(replay), LOADED_QUERY)
    assert replay.stats() == {"computed": 0, "hits": 1, "loaded": 27, "size": 27}
    assert replay._values == {}
    # a grown run puts the keys a cold run puts after the loaded ones,
    # in the same order, and the dict holds exactly those
    grown = MemoStore()
    grown.load(path)
    _run(SeveriEngine(grown), *GROWN_QUERIES)
    assert grown.hits > 0
    cold = _run(SeveriEngine(), LOADED_QUERY, *GROWN_QUERIES)
    new_keys = list(cold._values)[grown.loaded:]
    assert list(grown._values) == new_keys and len(grown._values) == grown.computed
    assert grown._values == {key: cold._values[key] for key in new_keys}


def test_one_store_class_under_every_name():
    # bench/tracer.py patches load and save on severi.MemoStore
    assert severi.MemoStore is memo.MemoStore is curvelab.MemoStore
    assert severi.trim is memo.trim


def test_header_only_cache_grows(tmp_path):
    path = tmp_path / "memo.txt"
    MemoStore().save(path)
    assert len(path.read_bytes()) == memo._HEADER_LEN
    store = MemoStore()
    store.load(path)
    _run(SeveriEngine(store), LOADED_QUERY, *GROWN_QUERIES).save(path)
    assert path.read_bytes() == _cold_bytes(tmp_path)


def test_grown_save_formats_no_loaded_key(tmp_path, monkeypatch):
    # a part is spelled when it gets its id, so no save spells one,
    # whether its store grew from a load or was filled cold
    path, cold_path = tmp_path / "memo.txt", tmp_path / "cold_put.txt"
    _run(SeveriEngine(), LOADED_QUERY).save(path)
    store = MemoStore()
    store.load(path)
    _run(SeveriEngine(store), *GROWN_QUERIES)
    assert store.loaded > 0 and store.computed > 0
    cold = _run(SeveriEngine(), LOADED_QUERY, *GROWN_QUERIES)
    spelled = Counter()

    def counted(parts):
        spell = parts.spell

        def wrapper(value):
            spelled[value] += 1
            return spell(value)
        return wrapper

    for parts in (memo.HEADS, memo.PROFILES):
        monkeypatch.setattr(parts, "spell", counted(parts))
    store.save(path)
    cold.save(cold_path)
    assert spelled == Counter()
    assert path.read_bytes() == cold_path.read_bytes() == _cold_bytes(tmp_path)


def _all_partition_profiles(n, largest):
    """Every profile gamma with sum of (i+1)*gamma[i] = n and no part
    above `largest`, listed by the count of the largest part."""
    if largest == 0:
        return [()] if n == 0 else []
    return [
        severi._bump(rest, largest - 1, c)
        for c in range(n // largest + 1)
        for rest in _all_partition_profiles(n - c * largest, largest - 1)
    ]


def test_partitions_by_part_count():
    for n in range(21):
        every = _all_partition_profiles(n, n)
        assert len(set(every)) == len(every)
        for k in range(n + 2):
            want = sorted(g for g in every if sum(g) == k)
            got = severi._partitions_with_parts(n, k)
            assert sorted(got) == want
            assert len(set(got)) == len(got)
    assert len(_all_partition_profiles(20, 20)) == 627


def _reference_bump(profile, index, amount=1):
    t = list(profile) + [0] * (index + 1 - len(profile))
    t[index] += amount
    return severi.trim(t)


def _reference_edges(key, rule):
    """The edges of a memo key, building every profile afresh: the step
    function as it was before the edge tables."""
    surface, degree, delta, alpha, beta = key
    for i, count in enumerate(beta):
        if count > 0:
            yield i + 1, (surface, degree, delta, _reference_bump(alpha, i),
                          _reference_bump(beta, i, -1))
    residual = rule.residual(degree)
    meet = rule.meet(residual)
    cap = rule.node_cap(residual)
    moment_beta = severi.profile_moment(beta)
    for alpha_p in severi._subprofiles(alpha):
        rem = meet - severi.profile_moment(alpha_p) - moment_beta
        if rem < 0:
            continue
        alpha_p = severi.trim(alpha_p)
        comb_alpha = 1
        for i, c in enumerate(alpha_p):
            comb_alpha *= math.comb(alpha[i], c)
        for k in range(max(meet - delta, 0), min(meet - delta + cap, rem) + 1):
            delta_p = delta - meet + k
            for gamma in severi._partitions_with_parts(rem, k):
                beta_p = severi._add_profiles(beta, gamma)
                factor = comb_alpha
                for i, c in enumerate(gamma):
                    if c:
                        factor *= (i + 1) ** c * math.comb(
                            beta_p[i], beta[i] if i < len(beta) else 0
                        )
                yield factor, (surface, residual, delta_p, alpha_p, beta_p)


def _reference_walk(queries):
    """(values, computed keys in the order computed, hits) of `queries`,
    tuple keys, walked by recursion over `_reference_edges` with a plain
    dict memo.  A hit is every lookup, of a query or of an edge's child,
    that found a value."""
    values, hits = {}, 0

    def lookup(key):
        nonlocal hits
        if key in values:
            hits += 1
            return values[key]
        rule = SURFACES[key[0]]
        value = rule.base(*key[1:])
        if value is None:
            value = sum(factor * lookup(child) for factor, child in _reference_edges(key, rule))
        values[key] = value
        return value

    return [lookup(query) for query in queries], list(values), hits


@pytest.fixture(scope="module")
def both_surfaces():
    eng = SeveriEngine()
    for nodes in range(13):
        eng.severi_p2(8, nodes)
    for nodes in range(11):
        eng.severi_quadric(5, 6, nodes)
    return eng.store


def _key_int(key):
    """The int of a canonical tuple key, assigning ids to its new parts."""
    return memo.join(memo.head_id(key[:3]), memo.profile_id(key[3]), memo.profile_id(key[4]))


def _assert_profiles_interned(table):
    profiles = [p for key in table for p in key[3:]]
    assert len({id(p) for p in profiles}) == len(set(profiles))


def _expanded_edges(key):
    """The edges of an int memo key, each edge to a split node replaced by
    the node's edges, their factors multiplied by the edge's."""
    for factor, child in severi._step(key)[1]:
        terms = child >> severi.SPLIT_SHIFT
        if not terms:
            yield factor, child
            continue
        edges = list(severi._step(child)[1])
        assert len(edges) == terms >= severi.SPLIT_TERMS
        for inner, grandchild in edges:
            yield factor * inner, grandchild


def test_edge_tables_give_the_reference_edges(both_surfaces):
    assert {key[0] for key in both_surfaces.table} == {"P2", "P1XP1"}
    stepped = split_nodes = 0
    for key in both_surfaces.table:
        rule = SURFACES[key[0]]
        if rule.base(*key[1:]) is not None:
            continue
        want = Counter(_reference_edges(key, rule))
        got = Counter((factor, memo.unpack(child))
                      for factor, child in _expanded_edges(_key_int(key)))
        assert got == want, key
        stepped += 1
        split_nodes += sum(1 for _, child in severi._step(_key_int(key))[1]
                           if child >> severi.SPLIT_SHIFT)
    assert stepped > 1000 and split_nodes > 100


def test_the_walk_matches_a_recursion_over_the_reference_edges():
    # the classes of `both_surfaces`: values, the keys computed and their
    # order, and the hits of the engine's walk with its split nodes equal
    # those of a plain recursion over the reference edges
    queries = [("P2", 8, nodes, (), (8,)) for nodes in range(13)]
    queries += [("P1XP1", (5, 6), nodes, (), (6,)) for nodes in range(11)]
    values, computed, hits = _reference_walk(queries)
    eng = SeveriEngine()
    assert [eng.count(SURFACES[surface], klass, nodes)
            for surface, klass, nodes, _, _ in queries] == values
    assert list(eng.store.table) == computed
    assert eng.store.stats() == {
        "computed": len(computed), "hits": hits, "loaded": 0, "size": len(computed),
    }


def test_memo_keys_share_one_tuple_per_profile(both_surfaces, tmp_path):
    _assert_profiles_interned(both_surfaces.table)
    # profiles read from a cache file are the ones the recursion builds
    path = tmp_path / "memo.txt"
    both_surfaces.save(path)
    store = MemoStore()
    store.load(path)
    engine = SeveriEngine(store)
    engine.severi_p2(9, 6)
    engine.severi_quadric(6, 5, 4)
    assert store.computed > 0
    _assert_profiles_interned(store.table)


def test_packing_round_trips_every_key(both_surfaces):
    keys = list(both_surfaces.table)
    packed = [_key_int(key) for key in keys]
    assert len(set(packed)) == len(keys)
    assert [memo.unpack(key) for key in packed] == keys
    assert [memo._packed(key) for key in keys] == packed


def test_every_part_reads_back_from_its_spelling(both_surfaces):
    for key in both_surfaces.table:
        for parts, i in zip((memo.HEADS, memo.PROFILES, memo.PROFILES),
                            memo.split(_key_int(key))):
            spelling = parts.spellings[i]
            assert parts.by_spelling[spelling] == i
            assert spelling == parts.spell(parts[i]).encode("ascii")


def test_cold_store_keys_are_small_ints():
    store = SeveriEngine().store
    SeveriEngine(store).severi_p2(12, 20)
    keys = list(store._values)
    assert len(keys) == store.computed == 22379
    assert all(type(key) is int and sys.getsizeof(key) <= 32 for key in keys)


def test_a_store_that_only_loads_finds_every_key(tmp_path):
    # a fresh interpreter that loads a file and runs no count has given
    # ids only to what the load read
    eng = SeveriEngine()
    eng.severi_p2(5, 3)
    eng.severi_quadric(3, 3, 2)
    path = tmp_path / "memo.txt"
    eng.store.save(path)
    code = (
        "import sys\n"
        "from curvelab.memo import MemoStore\n"
        "store = MemoStore()\n"
        "store.load(sys.argv[1])\n"
        "table = dict(store.table.items())\n"
        "key = min(key for key in table if key[3] == ())\n"
        "assert key in store.table and store.table.get(key) == table[key]\n"
        "assert store.stats()['hits'] == 0\n"
        "print(repr(table))\n"
    )
    src = os.path.dirname(os.path.dirname(curvelab.__file__))
    path_env = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, str(path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path_env},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert ast.literal_eval(proc.stdout) == dict(eng.store.table.items())


def test_a_miss_on_a_head_the_file_lacks_formats_nothing(tmp_path, monkeypatch):
    path = tmp_path / "memo.txt"
    _run(SeveriEngine(), ("p2", 6, 4)).save(path)
    store = MemoStore()
    store.load(path)
    formatted = []
    prefix = memo._prefix
    monkeypatch.setattr(memo, "_prefix", lambda *args: formatted.append(args) or prefix(*args))
    eng = SeveriEngine(store)
    # the file holds only P2 lines, so no quadric key is looked for in them
    assert eng.severi_quadric(3, 3, 2) == severi_quadric(3, 3, 2)
    assert formatted == []
    # while a P2 count still reads the loaded keys below it
    cold = SeveriEngine()
    computed, hits = store.computed, store.hits
    assert eng.severi_p2(7, 4) == cold.severi_p2(7, 4)
    assert formatted and store.hits > hits
    assert store.computed - computed < cold.store.computed


def test_lookup_assigns_no_id():
    n = next(_FRESH)
    head, profile = ("P2", n, 0), (0, 0, n, 0, 1)
    key = head + ((), profile)
    store = MemoStore()
    assert store.table.get(key) is None and key not in store.table
    assert profile not in memo.PROFILES.ids and head not in memo.HEADS.ids
    assert store.table.get("P2") is None and 5 not in store.table
    packed = _key_int(key)
    assert store.lookup(packed) is None
    store.put_packed(packed, 5)
    assert store.table.get(key) == 5 and store.table[key] == 5
    assert memo.PROFILES[memo.PROFILES.ids[profile]] is profile


def test_table_reads_every_loaded_and_computed_value(tmp_path):
    # the one read of tuple keys, on a store that loaded a file and then
    # grew by a count: it gives every value, loaded or computed, misses
    # every other key and counts no hit
    path = tmp_path / "a.txt"
    _run(SeveriEngine(), LOADED_QUERY).save(path)
    store = MemoStore()
    store.load(path)
    _run(SeveriEngine(store), *GROWN_QUERIES)
    cold = _run(SeveriEngine(), LOADED_QUERY, *GROWN_QUERIES)
    expected = {memo.unpack(key): value for key, value in cold._values.items()}
    loaded = _file_table(path)
    assert loaded.items() <= expected.items() and 0 < store.loaded < len(expected) == len(store)
    stats, heads, profiles = store.stats(), len(memo.HEADS), len(memo.PROFILES)
    table = store.table
    for key, value in expected.items():
        assert table[key] == table.get(key) == value and key in table, key
    assert dict(table) == expected
    # keys whose parts all have ids, but that no count put: one with a
    # loaded head, which is bisected for, and one with a computed head
    key = next(iter(loaded))
    loaded_heads, betas = {k[:3] for k in loaded}, {k[4] for k in expected}
    grown_head = next(k[:3] for k in expected if k[:3] not in loaded_heads)
    absent = [next(head + ((), beta) for beta in betas if head + ((), beta) not in expected)
              for head in (key[:3], grown_head)]
    n = next(_FRESH)
    misses = [
        *absent, ("P2", n, 0, (), (n,)), key[:4], key + ((),), list(key),
        _TupleSubclass(key), " ".join(map(str, key)), None, 5,
        key[:3] + ([], key[4]), ({},) + key[1:], key[:4] + ({1: 1},),
    ]
    for key in misses:
        assert table.get(key) is None and key not in table, key
        with pytest.raises(KeyError):
            table[key]
    assert store.stats() == stats and (len(memo.HEADS), len(memo.PROFILES)) == (heads, profiles)


class _TupleSubclass(tuple):
    pass


def _hostile_key(rng, key):
    """A canonical memo key spoiled in one seeded way, so that it is no
    5-tuple of canonical parts."""
    surface, degree, delta, alpha, beta = key
    n = rng.choice([delta, degree if type(degree) is int else degree[0]])
    number = rng.choice([str(n), float(n), True, False, -1 - n, None])
    profile = rng.choice([alpha, beta])
    profile = rng.choice([
        list(profile), dict.fromkeys(profile, 1), (profile,), profile + (0,),
        tuple(map(str, profile)) + ("1",), tuple(map(float, profile)) + (1.0,),
        (True,) + profile, frozenset(profile + (1,)), None, "-", n,
    ])
    if type(degree) is tuple:
        a, b = degree
        degree = rng.choice([[a, b], (a,), (a, b, 0), (str(a), b), (a, float(b)), number])
    else:
        degree = rng.choice([(degree,), [degree], number])
    spoilers = [
        lambda: rng.choice([list(key), " ".join(map(str, key)), None, 7, {key: 1}]),
        lambda: _TupleSubclass(key),
        lambda: key[:rng.randrange(5)],
        lambda: key + key[:rng.randint(1, 5)],
        lambda: (rng.choice(["Q", "p2", "P1xP1", "", 2, None]),) + key[1:],
        lambda: ({"P2": "P1XP1", "P1XP1": "P2"}[surface],) + key[1:],
        lambda: (surface, degree) + key[2:],
        lambda: key[:2] + (number,) + key[3:],
        lambda: key[:3] + (profile, beta),
        lambda: key[:4] + (profile,),
    ]
    return rng.choice(spoilers)()


def test_store_tuple_boundary_fuzz(tmp_path):
    # hostile tuple keys through every lookup, on an empty, a computed and
    # a loaded store: a lookup gives a value, None or False, or raises
    # KeyError, and changes no store
    assert MemoStore().table.get(("P2", 3, 1, [], (3,))) is None
    computed = _run(SeveriEngine(), LOADED_QUERY, *GROWN_QUERIES)
    path = tmp_path / "memo.txt"
    _run(SeveriEngine(), LOADED_QUERY).save(path)
    loaded = MemoStore()
    loaded.load(path)
    stores = [MemoStore(), computed, loaded]
    tables = [dict(store.table) for store in stores]
    stats = [store.stats() for store in stores]
    canonical = list(computed.table)
    for seed in range(3):
        rng = random.Random(seed)
        for _ in range(150):
            key = _hostile_key(rng, rng.choice(canonical))
            for store in stores:
                try:
                    value = store.table[key]
                except KeyError:
                    value = None
                assert value is None or type(value) is int, key
                assert (key in store.table) is (value is not None), key
                assert store.table.get(key) == value, key
    assert [dict(store.table) for store in stores] == tables
    assert [store.stats() for store in stores] == stats
    assert loaded._values == {}


def test_put_refuses_a_key_not_in_canonical_form(tmp_path, write_cache):
    n = next(_FRESH)
    path = tmp_path / "untrimmed.memo"
    write_cache(path, [f"P2 {n} 1 - {n},0 12"])
    with pytest.raises(InputError, match="bad field"):
        MemoStore().load(path)
    # the untrimmed profile got no id and no spelling, so the file is
    # still refused, and the one spelling its key canonically loads
    assert (n, 0) not in memo.PROFILES.ids and b"%d,0" % n not in memo.PROFILES.by_spelling
    with pytest.raises(InputError, match="bad field"):
        MemoStore().load(path)
    write_cache(path, [f"P2 {n} 1 - {n} 12"])
    loaded = MemoStore()
    loaded.load(path)
    assert dict(loaded.table) == {("P2", n, 1, (), (n,)): 12}


class _Liar(int):
    """An int that spells itself as the next number."""

    def __str__(self):
        return str(int(self) + 1)


def test_an_int_subclass_is_spelled_by_its_value(tmp_path):
    # the engine's first key is built from the caller's class and node
    # count: they are spelled by their values, so the file names the
    # counts that were computed and loads
    assert memo.HEADS.spell(("P2", _Liar(3), _Liar(1))) == "P2 3 1"
    assert memo.HEADS.spell(("P1XP1", (_Liar(2), 3), 1)) == "P1XP1 2,3 1"
    assert memo.PROFILES.spell((_Liar(0), _Liar(3))) == "0,3"
    eng = SeveriEngine()
    assert eng.severi_p2(_Liar(3), _Liar(1)) == 12
    assert eng.severi_quadric(_Liar(2), 3, _Liar(1)) == 20
    path = tmp_path / "memo.txt"
    eng.store.save(path)
    lines = path.read_text().splitlines()
    assert "P2 3 1 - 3 12" in lines and "P1XP1 2,3 1 - 3 20" in lines
    loaded = MemoStore()
    loaded.load(path)
    assert dict(loaded.table) == dict(eng.store.table) == _file_table(path)


def test_put_refuses_a_value_that_is_not_an_int(tmp_path, write_cache):
    n = next(_FRESH)
    key = ("P2", n, 1, (), (n,))
    path = tmp_path / "memo.txt"
    for bad in ["12.5", "12.0", "True", "-12", "1e3", "0x12"]:
        write_cache(path, [f"P2 {n} 1 - {n} {bad}"])
        with pytest.raises(InputError, match="bad value"):
            MemoStore().load(path)
    # the engine's write refuses a negative count before it stores it
    store = MemoStore()
    packed = _key_int(key)
    assert store.lookup(packed) is None
    with pytest.raises(InconsistencyError, match="negative"):
        store.put_packed(packed, -12)
    assert len(store) == 0 and store.computed == 0
    store.put_packed(packed, 12)
    store.save(path)
    assert path.read_bytes().split(b"\n", 1)[1] == b"P2 %d 1 - %d 12\n" % (n, n)
    assert store.table[key] == 12 and type(store.table[key]) is int


def test_a_key_is_the_or_of_its_fields():
    # the edge tables hand out head and alpha bits that an edge ORs together
    ids = (0, 1, (1 << memo.ID_BITS) - 1)
    for head, alpha, beta in itertools.product(ids, repeat=3):
        key = memo.join(head, alpha, beta)
        assert key == memo.join(head, 0, 0) | memo.join(0, alpha, 0) | beta
        assert memo.split(key) == (head, alpha, beta)


def test_an_id_past_the_width_is_refused(monkeypatch):
    # fresh part tables, each one id short of the width
    full = 1 << memo.ID_BITS
    for name, first in (("HEADS", ()), ("PROFILES", ((),))):
        parts = getattr(memo, name)
        fresh = memo._Parts(parts.spell, parts.parse)
        for value in first:
            fresh.id(value)
        fresh.extend([None] * (full - 1 - len(fresh)))
        fresh.spellings.extend([None] * (full - 1 - len(fresh.spellings)))
        monkeypatch.setattr(memo, name, fresh)
    key = ("P2", 3, 1, (), (3,))
    packed = memo.join(memo.HEADS.id(key[:3]), memo.PROFILES.id(()), memo.PROFILES.id((3,)))
    store = MemoStore()
    store.put_packed(packed, 12)
    # the last ids of the width make a key of their own
    assert packed == memo.join(full - 1, 0, full - 1)
    assert packed.bit_length() == 3 * memo.ID_BITS
    assert memo.unpack(packed) == key and store.table[key] == 12
    # a new profile or head past the width is refused
    with pytest.raises(CeilingError):
        memo.PROFILES.id((1, 1))
    with pytest.raises(CeilingError):
        memo.HEADS.id(("P2", 3, 0))
    # nothing was assigned or stored, so no two keys share an int
    for parts in (memo.HEADS, memo.PROFILES):
        assert len(parts) == len(parts.spellings) == full
    assert (1, 1) not in memo.PROFILES.ids and ("P2", 3, 0) not in memo.HEADS.ids
    assert b"1,1" not in memo.PROFILES.by_spelling and b"P2 3 0" not in memo.HEADS.by_spelling
    assert len(store) == 1


# stats and body SHA-256 of cold stores, as computed by the recursion
# before its edge tables existed
PINNED_STORES = [
    ("severi_p2(12, 0..20)", 12, [("p2", 12, n) for n in range(21)],
     31933, 465081, "0ee0733897fd385dbefdd18b174cca44bc27c10ca3ee2dc38e1889a90d7b5289"),
    ("severi_p2(12, 20)", 12, [("p2", 12, 20)],
     22379, 340916, "ca186043563d9155147db072c48f4cb0a5910260403dd3eca2e47cb4c40311b7"),
    ("severi_p2(16, 10)", 16, [("p2", 16, 10)],
     49611, 168349, "cad04914013087ca2ea2481cb1d3b2aea1f8312c550ea8b8237db0b433a19e25"),
    ("severi_quadric(10, 10, 8)", 12, [("quadric", 10, 10, 8)],
     18787, 50783, "a261ea0106ab19943dd7ca7ecc340ad4f36513633ab3237dc73dcb57d71c6f37"),
    ("severi_p2(4, 2)", 12, [("p2", 4, 2)],
     39, 21, "fb042667cc0b4c58b6b745a633dbb3ac69a390d44c5ca85612d553c27b6c069d"),
    ("severi_p2(7, 5) and severi_quadric(4, 5, 6)", 12, [("p2", 7, 5), ("quadric", 4, 5, 6)],
     1030, 2168, "53a428c6837e4204e7a456537b3cb0cdcd943aa31bdabbbc2b914fcfab78171b"),
]


@pytest.mark.parametrize("name, ceiling, queries, computed, hits, sha", PINNED_STORES,
                         ids=[store[0] for store in PINNED_STORES])
def test_pinned_store_bytes(name, ceiling, queries, computed, hits, sha, tmp_path):
    eng = SeveriEngine(degree_ceiling=ceiling)
    for surface, *args in queries:
        getattr(eng, f"severi_{surface}")(*args)
    assert eng.store.stats() == {
        "computed": computed, "hits": hits, "loaded": 0, "size": computed,
    }
    path = tmp_path / "memo.txt"
    eng.store.save(path)
    header, body = path.read_bytes().split(b"\n", 1)
    assert hashlib.sha256(body).hexdigest() == sha
    assert header == b"curvelab-memo/v1 " + sha.encode()


def test_pinned_store_bytes_on_a_loaded_store(tmp_path):
    # the fill of a cache: each count loads the file the last one saved,
    # starting from the cache of fit_nodes(4); stats and body SHA-256 as
    # computed before the split nodes existed
    path = tmp_path / "memo.txt"
    eng = SeveriEngine()
    fit_nodes(4, engine=eng)
    eng.store.save(path)
    for d, nodes, stats, sha in [
        (12, 20, (20773, 339240, 3224, 23997),
         "f358cd4e8d9a0df284ee1ebe30b36367ef580d79a44477174e0237f41ef29068"),
        (16, 10, (40972, 125824, 23997, 64969),
         "06376b6ff67db7b5e20b84699c091cdca2d564cd4bee81d65987e168ad956214"),
    ]:
        store = MemoStore()
        store.load(path)
        SeveriEngine(store, degree_ceiling=16).severi_p2(d, nodes)
        assert store.stats() == dict(zip(("computed", "hits", "loaded", "size"), stats))
        store.save(path)
        assert hashlib.sha256(path.read_bytes().split(b"\n", 1)[1]).hexdigest() == sha


def test_a_cold_count_stays_within_its_memory():
    # the split nodes of one walk are held until it ends.  The traced peak
    # of this count was 8.1 MB before they existed, and 12.6 MB with a node
    # for every split-off part and a cache of promotions per (alpha, beta).
    # Run in a child, so that no table another test built is missing from
    # the trace
    code = (
        "import tracemalloc\n"
        "from curvelab.severi import SeveriEngine\n"
        "tracemalloc.start()\n"
        "SeveriEngine(degree_ceiling=16).severi_p2(16, 10)\n"
        "print(tracemalloc.get_traced_memory()[1])\n"
    )
    src = os.path.dirname(os.path.dirname(curvelab.__file__))
    path_env = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path_env}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) <= 9.5e6
