import hashlib
import math

import pytest

from curvelab import severi
from curvelab.errors import (
    AdmissibilityError,
    CeilingError,
    InconsistencyError,
    InputError,
)
from curvelab.severi import (
    MemoStore,
    SeveriEngine,
    plane_node_cap,
    quadric_node_cap,
    severi_p2,
    severi_quadric,
)

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
    get = eng.store.get
    monkeypatch.setattr(eng.store, "get", lambda key: lookups.append(key) or get(key))
    eng.severi_p2(4, 2)
    eng.severi_quadric(3, 2, 2)
    # every memo key of either surface went through the one step function
    # exactly once, and each computed key was missed exactly once
    assert {key[0] for key in stepped} == {"P2", "P1XP1"}
    assert len(stepped) == len(set(stepped)) == eng.store.computed
    assert set(stepped) == set(eng.store.table)
    assert eng.store.hits == len(lookups) - eng.store.computed


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
    for bad in [(0, 0), (2, -1), ("3", 1), (3, 1.0)]:
        with pytest.raises(InputError):
            eng.severi_p2(*bad)
    for bad in [(0, 1, 0), (1, 0, 0), (1, 1, -2), (1.5, 1, 0)]:
        with pytest.raises(InputError):
            eng.severi_quadric(*bad)


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


def test_store_refuses_conflicting_value():
    store = MemoStore()
    key = ("P2", 3, 1, (), (3,))
    store.put(key, 12)
    store.put(key, 12)
    with pytest.raises(InconsistencyError):
        store.put(key, 13)
    with pytest.raises(InconsistencyError):
        store.put(("P2", 2, 1, (), (2,)), -1)


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
    store = MemoStore()
    store.put(("P2", 4, 2, (), (4,)), 225)
    store.put(("P1XP1", (2, 3), 1, (1,), (0, 1)), 7)
    path = tmp_path / "memo.txt"
    store.save(path)
    header, body = path.read_bytes().split(b"\n", 1)
    assert header == b"curvelab-memo/v1 " + hashlib.sha256(body).hexdigest().encode()
    lines = body.decode().splitlines()
    assert lines == ["P1XP1 2,3 1 1 0,1 7", "P2 4 2 - 4 225"]

    back = MemoStore()
    back.load(path)
    assert back.table == store.table


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


def test_cache_load_conflict(tmp_path, write_cache):
    good = tmp_path / "good.txt"
    bad = tmp_path / "bad.txt"
    write_cache(good, ["P2 3 1 - 3 12"])
    write_cache(bad, ["P2 3 1 - 3 999"])
    store = MemoStore()
    store.load(good)
    with pytest.raises(InconsistencyError):
        store.load(bad)
    # one key with two values within one file
    write_cache(bad, ["P2 3 1 - 3 12", "P2 3 1 - 3 13"])
    with pytest.raises(InconsistencyError):
        MemoStore().load(bad)


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

    monkeypatch.setattr(severi.os, "replace", interrupt)
    with pytest.raises(KeyboardInterrupt):
        eng.store.save(path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["memo.txt"]
    back = MemoStore()
    back.load(path)
    assert back.loaded == before.count(b"\n") - 1 > 0


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
