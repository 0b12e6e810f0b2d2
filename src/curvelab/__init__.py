"""curvelab: exact-arithmetic invariants of plane curve singularities,
Severi-style nodal counts with independent oracles, and the universal
polynomial fit that ties the two together.
"""

from .catalog import (
    CollectionStats,
    SingularityType,
    collection_stats,
    load_catalog,
    lookup,
)
from .errors import (
    AdmissibilityError,
    CeilingError,
    CurvelabError,
    InconsistencyError,
    InputError,
)
from .fitter import (
    FitResult,
    assemble_from_table,
    chern_p2,
    chern_quadric,
    fit_nodes,
    threshold_scan,
)
from .germs import GermPoly, parse_germ
from .jets import (
    DEFAULT_CEILING,
    InvariantReport,
    JetSubspace,
    determinacy_window,
    dim_s0,
    germ_report,
    ideal_in_jets,
    milnor_number,
    orbit_tangent_dim,
    scheme_length,
    tjurina_number,
)
from .oracles import floor_diagram_oracle, pencil_discriminant_oracle
from .series import (
    ChernPolynomial,
    TruncatedSeries,
    assemble_series,
    exp_series,
    extract_universal,
    log_series,
)
from .severi import (
    DEFAULT_DEGREE_CEILING,
    MemoStore,
    SeveriEngine,
    plane_node_cap,
    quadric_node_cap,
    severi_p2,
    severi_quadric,
)

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityError",
    "CeilingError",
    "ChernPolynomial",
    "CollectionStats",
    "CurvelabError",
    "DEFAULT_CEILING",
    "DEFAULT_DEGREE_CEILING",
    "FitResult",
    "GermPoly",
    "InconsistencyError",
    "InputError",
    "InvariantReport",
    "JetSubspace",
    "MemoStore",
    "SeveriEngine",
    "SingularityType",
    "TruncatedSeries",
    "assemble_from_table",
    "assemble_series",
    "chern_p2",
    "chern_quadric",
    "collection_stats",
    "determinacy_window",
    "dim_s0",
    "exp_series",
    "extract_universal",
    "fit_nodes",
    "floor_diagram_oracle",
    "germ_report",
    "ideal_in_jets",
    "load_catalog",
    "log_series",
    "lookup",
    "milnor_number",
    "orbit_tangent_dim",
    "parse_germ",
    "pencil_discriminant_oracle",
    "plane_node_cap",
    "quadric_node_cap",
    "scheme_length",
    "severi_p2",
    "severi_quadric",
    "threshold_scan",
    "tjurina_number",
    "__version__",
]
