"""Clock synchronization protocols, closed-form analysis, and a deterministic simulator."""

from .analysis import McEstimate, SystemParams, estimate_variance_mc, variance
from .clocks import ConstantDrift, PiecewiseDrift, RandomConstantDrift, WhiteDrift
from .errors import ContractViolation, InvalidRegimeError
from .protocols import (
    GRADES,
    PISYNC,
    PROTOCOLS,
    adapt_step,
    error_scale,
    step_size_limit,
)
from .sim import (
    SimConfig,
    SkewTrace,
    SyncEvent,
    Topology,
    convergence_time,
    fit_power_exponent,
    run,
    write_skew_csv,
    write_trace_csv,
)

__version__ = "0.1.0"
