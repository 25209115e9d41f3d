"""Finite spaces of homogeneous type: dyadic grids, maximal
commutators, sparse domination, and two-weight verification."""

from .space import (
    Ball,
    QuasiMetricSpace,
    build_space,
    load_space,
    save_space,
    space_from_dict,
    space_to_dict,
)
from .dyadic import (
    AdjacentSystems,
    DyadicCube,
    DyadicSystem,
    build_adjacent_systems,
    build_dyadic_system,
    geometric_doubling,
    load_system,
    save_system,
    system_from_dict,
    system_from_level_sets,
    system_to_dict,
    verify_system,
)
from .weights import (
    BallValue,
    ap_characteristic,
    bloom_weight,
    bmo_norm,
    dual_weight,
    reverse_holder_constant,
)
from .operators import (
    CommutatorKernel,
    OperatorResult,
    build_probes,
    commutator_bM,
    estimate_from_values,
    maximal_function,
    probe_images,
    region_grand_maximal,
    sparse_commutator,
    sparse_commutator_adjoint,
    sparse_operator,
    weak_type_11_constant,
    weighted_lp_norm,
)
from .sparse import (
    CertificateError,
    DominationCertificate,
    SparseFamily,
    build_domination,
    certificate_to_dict,
    cz_select,
    evaluate_bound_from_dict,
    oscillation_domination,
    packing_constant,
    save_certificate,
)
from .verify import (
    fit_weight_exponent,
    verify_bloom_jn,
    verify_duality_chain,
    verify_lower_bound,
    verify_upper_bound_bm,
    verify_upper_bound_cb,
)
from .config import (
    ConfigError,
    ScenarioConfig,
    default_suite,
    load_config,
    make_function,
    make_space,
    make_symbol,
    make_weight,
    parse_config,
    save_config,
)
from .report import (
    ReportRow,
    json_bytes_without_runtime,
    merge_rows,
    row_from_entry,
    rows_from_json,
    rows_to_csv,
    rows_to_json,
    write_report,
)
__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
