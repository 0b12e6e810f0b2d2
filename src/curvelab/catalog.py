"""Fixed library of named singularity types.

Entries live in data/catalog.json (label, flavor, normal form, jet order,
equisingular-stratum dimension, and the cached numeric invariants).  The
cache is never trusted: every number of an entry is recomputed the first
time the entry is used, and a mismatch aborts loudly.
"""

from __future__ import annotations

import json
from collections import namedtuple
from functools import cache
from importlib import resources

from .errors import InconsistencyError, InputError, label_tuple
from .germs import GermPoly, parse_germ

ALIASES = {"node": "A1", "cusp": "A2"}


class SingularityType(namedtuple(
    "SingularityType",
    "label flavor normal_form normal_form_text k_used dim_es mu tau N codim",
)):
    """One validated catalog entry; flavor is "analytic" or "topological",
    normal_form the parsed GermPoly of normal_form_text."""

    __slots__ = ()

    def to_dict(self) -> dict:
        """The fields with normal_form spelled as its text, in place."""
        d = self._asdict()
        d["normal_form"] = d.pop("normal_form_text")
        return d


CollectionStats = namedtuple("CollectionStats", "N codim l aut")


def _ordinary_point_moduli(label: str, f: GermPoly, basis: list) -> int:
    """dim_es of an ordinary m-fold point: the Tjurina basis monomials on
    or above the Newton boundary i + j = m, whose deformations of f keep mu
    and the topological type (0, 1, 3, 6 for m = 3..6).

    A homogeneous f of finite mu has m distinct tangents, so the check
    below is what makes the entry an ordinary m-fold point.
    """
    m = f.multiplicity()
    if any(i + j != m for i, j in f.terms):
        raise InconsistencyError(
            f"catalog entry {label}: topological normal form must be homogeneous"
        )
    return sum(1 for i, j in basis if i + j >= m)


def _validate(raw: dict) -> SingularityType:
    from .jets import determinacy_window, milnor_number, scheme_length, tjurina_basis

    label = raw["label"]
    f = parse_germ(raw["normal_form"])
    mu = milnor_number(f)
    basis = tjurina_basis(f)
    tau = len(basis)
    window = determinacy_window(f)
    k_used = raw["k_used"]
    n_len = scheme_length(f, k_used)
    flavor = raw["flavor"]

    def check(name, stored, computed):
        if stored != computed:
            raise InconsistencyError(
                f"catalog entry {label}: stored {name}={stored} "
                f"but germ computation gives {computed}"
            )

    check("mu", raw["mu"], mu)
    check("tau", raw["tau"], tau)
    check("N", raw["N"], n_len)
    if flavor == "analytic":
        dim_es = 0
        check("dim_es", raw["dim_es"], dim_es)
        check("codim", raw["codim"], tau)
    elif flavor == "topological":
        dim_es = _ordinary_point_moduli(label, f, basis)
        check("dim_es", raw["dim_es"], dim_es)
        check("codim", raw["codim"], tau - dim_es)
        # m(m+1)/2 conditions on the (m-1)-jet at a point moving in 2 dimensions
        m = f.multiplicity()
        check("codim", raw["codim"], m * (m + 1) // 2 - 2)
    else:
        raise InconsistencyError(f"catalog entry {label}: unknown flavor {flavor!r}")
    if k_used < window[0]:
        raise InconsistencyError(
            f"catalog entry {label}: k_used={k_used} below determinacy window {window}"
        )
    return SingularityType(
        label=label,
        flavor=flavor,
        normal_form=f,
        normal_form_text=raw["normal_form"],
        k_used=k_used,
        dim_es=dim_es,
        mu=mu,
        tau=tau,
        N=n_len,
        codim=raw["codim"],
    )


@cache
def _raw_entries() -> dict:
    """Label -> raw catalog entry, read once per process; labels are unique."""
    text = resources.files("curvelab").joinpath("data/catalog.json").read_text()
    table = {}
    for raw in json.loads(text)["entries"]:
        if raw["label"] in table:
            raise InconsistencyError(f"duplicate catalog label {raw['label']}")
        table[raw["label"]] = raw
    return table


@cache
def _validated(label: str) -> SingularityType:
    return _validate(_raw_entries()[label])


def load_catalog() -> dict:
    """Label -> SingularityType, every entry validated once per process."""
    return {label: _validated(label) for label in _raw_entries()}


def lookup(label: str) -> SingularityType:
    """One entry by label or alias, validated on first lookup."""
    if not isinstance(label, str):
        raise InputError(f"label must be a string, got {label!r}")
    key = ALIASES.get(label, label)
    if key not in _raw_entries():
        raise InputError(f"unknown singularity label {label!r}")
    return _validated(key)


def codim_weights(keys) -> dict:
    """Series weights: each label named in the label multisets `keys`
    mapped to its catalog codim, looked up in order of appearance.  An
    alias is refused: it would be a second series variable for its label."""
    weights = {}
    for key in keys:
        for label in key:
            if label in ALIASES:
                raise InputError(f"series labels are catalog labels: "
                                 f"write {ALIASES[label]}, not its alias {label!r}")
            if label not in weights:
                weights[label] = lookup(label).codim
    return weights


def collection_stats(parts) -> CollectionStats:
    from .series import aut_count

    resolved = [lookup(p) for p in label_tuple(parts)]
    canonical = [e.label for e in resolved]
    return CollectionStats(
        N=sum(e.N for e in resolved),
        codim=sum(e.codim for e in resolved),
        l=len(resolved),
        aut=aut_count(canonical),
    )
