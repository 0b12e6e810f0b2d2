import json
from types import SimpleNamespace

import pytest

from curvelab import catalog
from curvelab.errors import InconsistencyError, InputError
from curvelab.germs import parse_germ
from curvelab.jets import determinacy_window, dim_s0, scheme_length, tjurina_number
from reference import milnor_orlik_mu


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
    with pytest.raises(InconsistencyError, match="codim=14"):
        catalog._validate({**stored, "codim": 14})
    # quasi-homogeneous of weights (6, 5), with dim_es 3 and codim 20 - 3
    with pytest.raises(InconsistencyError, match="codim=13"):
        catalog._validate({**stored, "normal_form": "x^5 - y^6", "mu": 20, "tau": 20})
    # x^2*y^3 lies below the segment from y^6 to x^5; x*y has one term
    for form, mu, tau, n_len in [("x^5 + x^2*y^3 - y^6", 17, 15, 25), ("x*y", 1, 1, 13)]:
        with pytest.raises(InconsistencyError, match="quasi-homogeneous"):
            catalog._validate({**stored, "normal_form": form, "mu": mu, "tau": tau,
                               "N": n_len})


# Arnold's unimodal exceptional families, each quasi-homogeneous of the
# weights given, with its modality 1 as dim_es: (label, form, weights,
# mu = tau, k_used, N)
UNIMODAL = [
    ("E12", "x^3 + y^7", (7, 3), 12, 7, 21),
    ("W12", "x^4 + y^5", (5, 4), 12, 6, 22),
    ("E13", "x^3 + x*y^5", (5, 2), 13, 9, 27),
    ("E14", "x^3 + y^8", (8, 3), 14, 8, 24),
]


def test_quasi_homogeneous_topological_entries_pass_with_their_modality():
    for label, form, (w1, w2), mu, k_used, n_len in UNIMODAL:
        terms = {key: int(c) for key, c in parse_germ(form).terms.items()}
        assert milnor_orlik_mu(terms, w1, w2) == mu, label
        raw = {"label": label, "flavor": "topological", "normal_form": form,
               "k_used": k_used, "dim_es": 1, "mu": mu, "tau": mu, "N": n_len,
               "codim": mu - 1}
        e = catalog._validate(raw)
        assert (e.dim_es, e.codim, e.tau) == (1, mu - 1, mu), label
        for dim_es in (0, 2):
            with pytest.raises(InconsistencyError, match=f"stored dim_es={dim_es} "):
                catalog._validate({**raw, "dim_es": dim_es, "codim": mu - dim_es})


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
