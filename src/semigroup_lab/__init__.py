"""Finite-truncation numerics for quantum dynamical semigroups with
unbounded generators: the GKLS standard form, the minimal-solution resolvent
series, the quantum birth process, diffusion along diagonals with an
absorbing boundary, and trace-resetting non-standard generators."""

__version__ = "0.1.0"

from .birth import (
    ArrivalBracket,
    BandDecayTable,
    BirthBandGenerator,
    GrowthReport,
    LeadingColumnReport,
    am_gm_gap,
    arrival_laplace,
    arrival_partial_product,
    band_domain_element,
    band_functional,
    birth_generator,
    birth_resolvent,
    conservativity_defect,
    domain_band,
    geometric_band_decay,
    leading_column_report,
    moderate_growth_report,
    no_event_resolvent,
)
from .diffusion import (
    KernelGrid,
    QuadratureError,
    apply_resolvent,
    apply_semigroup,
    diagonal_slope,
    kernel_trace,
    support_extent,
    trace_loss,
)
from .generators import (
    StandardGeneratorSpec,
    apply_jump,
    apply_no_event,
    apply_standard,
    dissipativity_check,
    forward_form_residual,
    gauge_transform,
)
from .nonstandard import (
    FalsifierReport,
    TraceResetGenerator,
    conservativity_residual,
    falsifier_report,
)
from .operators import (
    MatrixExponentialError,
    NonFiniteError,
    choi_matrix,
    is_positive_semidefinite,
    is_selfadjoint,
    matrix_exponential_apply,
    matrix_unit,
    rank_one,
    superop_matrix,
    trace_norm,
)
from .rates import (
    ConstantRates,
    ExplicitRates,
    GeometricRates,
    PolynomialRates,
    RateRangeError,
    RateSequence,
    RateSpecError,
    parse_rate_spec,
)
from .resolvent import (
    ResolventSeriesResult,
    SeriesDivergenceError,
    euler_semigroup,
    resolvent_direct,
    resolvent_series,
)
from .trajectories import (
    BiasCheckError,
    ShiftArrivalTable,
    TrajectorySample,
    TrajectoryStreams,
    empirical_laplace,
    event_count_estimator,
    iter_trajectories,
    n_event_laplace_term,
    sample_trajectories,
    sample_trajectory,
    shift_arrival_density,
)
