"""Blow-up analysis toolkit for 1D Lagrangian gas dynamics with
time-dependent damping: pointwise transforms, Riccati characteristic
ODEs with blow-up detection, sufficient blow-up criteria, a-priori
bounds, and a cross-validating finite-difference simulator."""

from .bounds import (
    DensityFloor,
    InitialBound,
    RiccatiCeilings,
    certified_initial_bound,
    density_floor,
    density_floor_constant,
    density_floor_onset,
    invariant_region_bound,
    make_density_floor,
    riccati_ceilings,
    threshold_N,
    threshold_N1,
)
from .core import (
    Branch,
    DampingLaw,
    GammaSide,
    GasModel,
    LambdaSide,
    PointState,
    Regime,
    Theorem,
    classify_regime,
    phi_of_tau,
    pressure,
    q_variable,
    riccati_coefficients,
    riemann_invariants,
    riemann_slopes,
    sound_speed,
    tau_of_phi,
    y_variable,
)
from .criteria import (
    Verdict,
    evaluate,
)
from .errors import (
    CoefficientError,
    ConfigError,
    DomainError,
    HypothesisError,
    NoBoundError,
    RangeError,
    RegimeError,
    ShocklineError,
    ToleranceError,
    TraceError,
    VacuumError,
)
from .fields import FieldState, Grid, init_field
from .riccati import (
    BLOWN_UP,
    OutcomeKind,
    RiccatiOutcome,
    RiccatiProblem,
    blowup_time_upper_bound_case1,
    blowup_time_upper_bound_case2,
    closed_form_oracle,
    integrate,
    oracle_pole_time,
)
from .solver import (
    BreakdownReport,
    CharTrace,
    CrossValidationReport,
    Direction,
    Monitors,
    RunResult,
    SnapshotStore,
    cross_validate_riccati,
    read_snapshots,
    run,
    step,
    trace_characteristic,
    write_snapshots,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
