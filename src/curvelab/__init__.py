"""curvelab: exact-arithmetic invariants of plane curve singularities,
Severi-style nodal counts with independent oracles, and the universal
polynomial fit that ties the two together.

Public names resolve on first access (PEP 562): importing the package
loads no layer, and `curvelab.X` imports the one module that defines X.
"""

from importlib import import_module

_LAYERS = {
    "catalog": ("CollectionStats", "SingularityType", "collection_stats", "load_catalog",
                "lookup"),
    "errors": ("AdmissibilityError", "CeilingError", "CurvelabError", "InconsistencyError",
               "InputError"),
    "fitter": ("FitResult", "chern_p2", "chern_quadric", "fit_nodes", "threshold_scan"),
    "germs": ("GermPoly", "parse_germ"),
    "jets": ("InvariantReport", "JetSubspace", "determinacy_window", "dim_s0", "germ_report",
             "ideal_in_jets", "milnor_number", "orbit_tangent_dim", "scheme_length",
             "tjurina_number"),
    "memo": ("MemoStore",),
    "oracles": ("floor_diagram_oracle", "pencil_discriminant_oracle"),
    "series": ("ChernPolynomial", "TruncatedSeries", "assemble_from_table", "assemble_series",
               "exp_series", "extract_universal", "log_series"),
    "severi": ("DEFAULT_DEGREE_CEILING", "SeveriEngine", "plane_node_cap", "quadric_node_cap",
               "severi_p2", "severi_quadric"),
}
_MODULE_OF = {name: module for module, names in _LAYERS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF) + ["__version__"]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return list(__all__)
