"""Pseudo-spectral electro-hydrodynamics on the periodic box, with blow-up
criterion monitors, dyadic-decomposition norms, and energy-identity audits."""

from .audit import (
    AuditLedger,
    AuditRecord,
    gn_ratios,
    interpolation_ratios,
    log_sobolev_ratio,
    positivity_term,
    y_growth,
)
from .checkpoint import (
    CheckpointError,
    read_checkpoint,
    state_checksum,
    write_checkpoint,
)
from .config import ConfigError, CriterionSpec, InitialConditionSpec, RunConfig, parse_config
from .criteria import (
    CriterionAccumulator,
    CriterionKind,
    CriteriaReport,
    horizontal_block_magnitude,
    instantaneous_quantity,
    make_accumulator,
    observe,
    report,
    scaling_defect,
)
from .initial_conditions import (
    charged_shear,
    random_smooth,
    taylor_green,
    taylor_green_velocity,
)
from .littlewood_paley import (
    BernsteinReport,
    BesovParams,
    DyadicBand,
    band_range,
    band_weight,
    bernstein_check,
    besov_norm,
    decompose,
    random_band_field,
)
from .solver import (
    BlowUpSuspected,
    InvariantViolation,
    RunReport,
    RunStatus,
    State,
    StepControl,
    cfl_limit,
    derive,
    nonlinear_rhs,
    run,
    step,
    validate_initial_state,
)
from .spectral import (
    ChargeNeutralityError,
    Grid,
    GridMismatchError,
    HermitianSymmetryError,
    NonFiniteFieldError,
    RealField,
    SpectralField,
    VectorField,
    backward_transform,
    curl,
    divergence,
    forward_transform,
    gradient,
    hermitian_defect,
    l2_norm_sq,
    laplacian,
    leray_project,
    lp_norm,
    power_sum,
    sobolev_norm,
    solve_poisson,
    spectral_power,
    spectral_tail_fraction,
    vector_backward,
    vector_forward,
    vector_magnitude,
)

__version__ = "0.1.0"
