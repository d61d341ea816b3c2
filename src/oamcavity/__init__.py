"""Double Laguerre-Gaussian rotational-cavity simulator and OAM meter.

Computes the weak-probe transmission spectrum of a two-cavity system
sharing a rotational mirror, locates the spectrum's resonance valley, and
inverts valley positions into signed topological-charge estimates.
"""

__version__ = "0.5.0"

from .errors import (
    CalibrationError,
    ConfigError,
    DipTooShallow,
    FingerprintMismatch,
    ModelNotInvertible,
    Multistable,
    NoConvergence,
    NoInteriorMinimum,
    OamCavityError,
    OutOfRange,
    PointFailure,
    PoorFit,
    SingularSystem,
    StepSizeUnderflow,
    WindowTooShort,
)
from .oam import (
    CalibrationCurve,
    CalibrationEntry,
    OamEstimate,
    build_calibration,
    detuning_curve,
    estimate_oam,
    load_calibration,
    save_calibration,
)
from .oracle import (
    DemodulationResult,
    Trajectory,
    demodulate,
    integrate_mean_field,
    sideband_oracle,
    transmission_oracle,
)
from .params import (
    HBAR,
    SPEED_OF_LIGHT,
    Detuning2Spec,
    SystemConfig,
    SystemParams,
    Violation,
    config_from_dict,
    default_config,
    derive_params,
    fingerprint,
    load_config,
    validate,
)
from .response import (
    ProbeResponse,
    closed_form_c1p,
    sideband_response,
    transmission,
    transmission_at,
)
from .spectrum import (
    Spectrum,
    ValleyReport,
    find_valley,
    linewidth,
    sample_spectrum,
    shift_distance,
)
from .steady import (
    SteadySolveReport,
    SteadyState,
    bare_detunings,
    effective_detunings,
    operating_point,
    operating_points,
    solve_steady,
    steady_residual,
)

__all__ = [name for name in dir() if not name.startswith("_")]
