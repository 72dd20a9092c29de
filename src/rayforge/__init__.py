"""Numerical engine for the escaping dynamics of maps f = p(exp z).

Trace dynamic rays from addresses and escape speeds, solve for the map in
the family whose singular values escape with prescribed combinatorics via
a truncated marked-orbit pullback iteration, and probe the supporting
structural bounds at desk scale.
"""

from . import presets, serialize
from .errors import (
    AmbiguousTractError,
    BranchSelectionError,
    DegenerateCurveError,
    DomainError,
    FitError,
    InvariantViolationError,
    NotConvergedError,
    NotEscapingError,
    OverflowSignal,
    RayforgeError,
    RootSolveError,
    SpecRejectionError,
    TractConfigError,
    UnsupportedHomotopyError,
)
from .homotopy import (
    HomotopyWord,
    MarkedSet,
    PolylineCurve,
    growth_bound,
    leg_words,
    straight_leg,
    word_budget,
    word_of_curve,
)
from .polyexp import (
    PolyExpMap,
    SingularData,
    appendix_report,
    check_coefficient_bound,
    check_critical_point_bound,
    check_disk_containment,
    critical_points,
    sup_derivative_bound,
)
from .potentials import (
    ClusterReport,
    ExternalAddress,
    PotentialLadder,
    build_ladder,
    detect_clusters,
    inverse_step,
    log_step,
    step,
)
from .rays import (
    RayPoint,
    RaySegment,
    check_monotone,
    extract_potential_address,
    trace_ray,
    trace_segment,
)
from .thurston import (
    Certificate,
    ClassifyResult,
    TargetSpec,
    ThurstonState,
    classify,
    fit_map,
    init_state,
    invariant_set_diagnostics,
    pullback_step,
    validate_spec,
    verify,
)
from .tracts import (
    LogPolar,
    TractConfig,
    inverse_branch,
    inverse_branches,
    make_tract_config,
    tract_index,
)

__version__ = "0.1.0"
