"""Numerical laboratory for weighted composition operators on H^2.

Builds analytic self-maps of the disk and outer-function weights, pulls
boundary measure back through them, measures Carleson windows and dyadic
boxes, and estimates singular-value decay of the resulting operators.
"""

from .grid import (
    BoundaryGrid,
    BoundarySamples,
    GridError,
    IntegralResult,
    hardy_norm,
    log_integral,
    make_grid,
    quadrature,
    refined_mean,
    taylor_coefficients,
)
from .outer import (
    HerglotzFunction,
    NotLogIntegrableError,
    OuterFunction,
    herglotz_map,
    hilbert_transform,
    outer_from_modulus,
)
from .symbols import (
    LevelSets,
    Symbol,
    beta_exp,
    co_modulus,
    constant,
    custom_outer,
    extreme_not_exposed,
    half,
    hs_extremal,
    lens,
    level_sets,
    parse_symbol,
)
from .weights import (
    BoxSelection,
    CompactifySchedule,
    StaircaseSeries,
    Weight,
    WeightError,
    box_decompact_weight,
    compactify_weight,
    default_gauge,
    eps_staircase_delta,
    hs_weight,
    lens_decompact_weight,
    parse_weight,
    power_weight,
    staircase_weight,
    stretched_staircase_delta,
    unit_weight,
)
from .carleson import (
    CarlesonReport,
    LueckingReport,
    PullbackMeasure,
    annulus_mass,
    carleson_profile,
    dyadic_boxes,
    graded_boundary,
    luecking_sum,
    pullback,
    pullback_graded,
    series_verdict,
    simp_bound,
    window_mass,
)
from .operators import (
    ColumnNorms,
    DecayFit,
    OperatorMatrix,
    SingularSpectrum,
    TruncationStudy,
    column_pnorms,
    decay_fit,
    embedding_spectrum,
    hs_norm_boundary,
    moment_integral,
    operator_matrix,
    schatten_estimate,
    singular_values,
    truncation_study,
)

__version__ = "0.1.0"
