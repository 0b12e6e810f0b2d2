import json
from types import SimpleNamespace

import pytest

from curvelab import catalog
from curvelab.errors import InconsistencyError, InputError
from curvelab.germs import parse_germ
from curvelab.jets import determinacy_window, dim_s0, scheme_length, tjurina_number


def test_catalog_loads_and_validates():
    table = catalog.load_catalog()
    assert len(table) == 24


@pytest.fixture
def fresh_caches():
    """Empty the catalog's caches before the test and again after it, so
    that no entry the test reads, nor a patched table, stays cached."""
    catalog._raw_entries.cache_clear()
    catalog._validated.cache_clear()
    yield
    catalog._raw_entries.cache_clear()
    catalog._validated.cache_clear()


def test_lookup_validates_only_the_entry_it_returns(monkeypatch, fresh_caches):
    validated = []
    original = catalog._validate

    def counting(raw):
        validated.append(raw["label"])
        return original(raw)

    monkeypatch.setattr(catalog, "_validate", counting)
    assert catalog.lookup("node").label == "A1"
    assert catalog.lookup("A1").tau == 1
    assert catalog.collection_stats(["A1", "A2", "A1"]).codim == 4
    assert validated == ["A1", "A2"]
    assert len(catalog.load_catalog()) == 24
    assert len(catalog.load_catalog()) == 24
    assert sorted(validated) == sorted(catalog.load_catalog())


def test_duplicate_label_is_rejected_when_the_file_is_read(monkeypatch, fresh_caches):
    entries = [
        {"label": "A1", "flavor": "analytic", "normal_form": "x*y", "k_used": 2,
         "dim_es": 0, "mu": 1, "tau": 1, "N": 5, "codim": 1},
    ] * 2
    text = json.dumps({"entries": entries})
    files = SimpleNamespace(joinpath=lambda name: SimpleNamespace(read_text=lambda: text))
    monkeypatch.setattr(catalog, "resources", SimpleNamespace(files=lambda pkg: files))
    with pytest.raises(InconsistencyError) as err:
        catalog.lookup("A2")
    assert str(err.value) == "duplicate catalog label A1"


def test_node_entry():
    e = catalog.lookup("A1")
    assert e.normal_form == parse_germ("x*y")
    assert (e.tau, e.k_used, e.N, e.codim, e.dim_es) == (1, 2, 5, 1, 0)


def test_entries_and_totals_are_immutable_values():
    e = catalog.lookup("A1")
    with pytest.raises(AttributeError):
        e.mu = 2
    assert e == catalog.lookup("node")
    assert list(e.to_dict()) == ["label", "flavor", "normal_form", "k_used", "dim_es",
                                 "mu", "tau", "N", "codim"]
    stats = catalog.collection_stats(("A1", "A1"))
    with pytest.raises(AttributeError):
        stats.N = 0
    assert stats == catalog.CollectionStats(N=10, codim=2, l=2, aut=2)


def test_cusp_entry():
    e = catalog.lookup("A2")
    assert e.normal_form == parse_germ("y^2 - x^3")
    assert (e.tau, e.k_used, e.N, e.codim) == (2, 3, 7, 2)


def test_aliases():
    assert catalog.lookup("node").label == "A1"
    assert catalog.lookup("cusp").label == "A2"


def test_unknown_label():
    with pytest.raises(InputError):
        catalog.lookup("Z9")
    # a list used to raise a bare TypeError, "unhashable type: 'list'"
    for bad in [["A1"], ("A1",), 5, None]:
        with pytest.raises(InputError, match="label must be a string"):
            catalog.lookup(bad)


def test_ade_series_values():
    for k in range(1, 9):
        e = catalog.lookup(f"A{k}")
        assert e.mu == e.tau == k
        assert e.N == 2 * k + 3
    for k in range(4, 9):
        e = catalog.lookup(f"D{k}")
        assert e.mu == e.tau == k
        assert e.N == 3 * (k - 1)
    assert catalog.lookup("E6").tau == 6
    assert catalog.lookup("E7").tau == 7
    assert catalog.lookup("E8").tau == 8


def test_ordinary_point_entries():
    for n in range(3, 7):
        a = catalog.lookup(f"ord{n}-analytic")
        t = catalog.lookup(f"ord{n}-topological")
        assert a.tau == t.tau == (n - 1) ** 2
        assert a.codim == (n - 1) ** 2
        # Tjurina basis monomials x^i y^j (i, j <= n - 2) with i + j >= n
        assert t.dim_es == (n - 2) * (n - 3) // 2
        assert t.codim == t.tau - t.dim_es == n * (n + 1) // 2 - 2
        assert a.N == t.N == scheme_length(a.normal_form, a.k_used)


def test_topological_dim_es_is_recomputed():
    stored = {"label": "ord5-topological", "flavor": "topological",
              "normal_form": "x^5 - y^5", "k_used": 6, "dim_es": 3,
              "mu": 16, "tau": 16, "N": 25, "codim": 13}
    assert catalog._validate(stored).dim_es == 3
    # the cross-ratio count alone, with the codimension it implied
    with pytest.raises(InconsistencyError, match="dim_es=2"):
        catalog._validate({**stored, "dim_es": 2, "codim": 14})
    # consistent with tau - dim_es but not with m(m+1)/2 - 2
    with pytest.raises(InconsistencyError, match="codim=14"):
        catalog._validate({**stored, "codim": 14})
    with pytest.raises(InconsistencyError, match="homogeneous"):
        catalog._validate({**stored, "normal_form": "x^5 - y^6", "mu": 20, "tau": 20})


def test_k_used_within_window():
    for e in catalog.load_catalog().values():
        lo, _ = determinacy_window(e.normal_form)
        assert e.k_used >= lo


def test_stratum_identity_on_analytic_entries():
    for e in catalog.load_catalog().values():
        if e.flavor != "analytic":
            continue
        assert dim_s0(e.normal_form, e.k_used) == e.N - tjurina_number(e.normal_form)


def test_collection_stats_triple_node():
    s = catalog.collection_stats(["A1", "A1", "A1"])
    assert (s.N, s.codim, s.l, s.aut) == (15, 3, 3, 6)


def test_collection_stats_mixed():
    s = catalog.collection_stats(["A2", "E8", "ord5-analytic"])
    assert s.N == 7 + 15 + 25
    assert s.codim == 2 + 8 + 16
    assert (s.l, s.aut) == (3, 1)


def test_collection_stats_empty():
    s = catalog.collection_stats([])
    assert (s.N, s.codim, s.l, s.aut) == (0, 0, 0, 1)


def test_collection_stats_resolves_aliases():
    s = catalog.collection_stats(["node", "A1"])
    assert (s.N, s.codim, s.l, s.aut) == (10, 2, 2, 2)


def test_collection_stats_refuses_a_scalar():
    # a list label used to raise a bare TypeError
    for bad in ["A1", "", 5, None, [["A1"]], ["A1", 5]]:
        with pytest.raises(InputError, match="parts must be a sequence"):
            catalog.collection_stats(bad)
    assert catalog.collection_stats(("A1",)).l == 1


def test_collection_stats_unknown_label():
    with pytest.raises(InputError):
        catalog.collection_stats(["A1", "Q3"])
