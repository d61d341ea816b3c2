"""Exception types shared across the package."""


class OamCavityError(Exception):
    """Base class for all package errors.

    ``exit_code`` is the CLI exit status the error maps to; 4 (numeric
    failure) unless a subclass says otherwise.
    """

    exit_code = 4


class ConfigError(OamCavityError, ValueError):
    """Configuration rejected; carries the list of violations."""

    exit_code = 2

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(str(v) for v in self.violations))


class PointFailure(OamCavityError):
    """One operating point or spectrum has no usable result.

    Sweeps record it as an invalid row and calibrations as a failed
    charge, under its ``reason``: the class name unless a subclass says
    otherwise.  A run that needs that single point fails with it.
    """

    @property
    def reason(self) -> str:
        return type(self).__name__


class NoConvergence(PointFailure):
    """Steady-state root search found no usable root.

    Attributes
    ----------
    window : (float, float) or None
        Smallest and largest angle in radians among the polished real roots
        of the fixed-point polynomial, none of which met the residual
        tolerance; None when it has no real root.
    """

    def __init__(self, message, window=None):
        super().__init__(message)
        self.window = window


class Multistable(PointFailure):
    """Several steady states coexist; the operating point is ambiguous.

    Attributes
    ----------
    report : SteadySolveReport
        The full solve, all coexisting roots included.
    """

    exit_code = 3
    reason = "multistable"

    def __init__(self, report):
        super().__init__(f"{len(report.all_roots)} coexisting steady states")
        self.report = report


class SingularSystem(PointFailure):
    """Sideband linear system is numerically singular (parametric-instability point)."""


class NoInteriorMinimum(PointFailure):
    """No interior transmission minimum found after maximal window expansion."""

    reason = "no-interior-minimum"


class DipTooShallow(PointFailure):
    """Transmission dip depth is below the measurable floor."""


class ModelNotInvertible(OamCavityError):
    """Calibration curve is not strictly monotone; cannot invert a measurement."""


class OutOfRange(OamCavityError):
    """Measured valley position lies outside the calibration range."""

    exit_code = 5


class FingerprintMismatch(OamCavityError):
    """Calibration file was built from different physical parameters."""

    exit_code = 6


class StepSizeUnderflow(OamCavityError):
    """Time-domain integration blew up (stiff divergence) or used up its step attempts.

    Attributes
    ----------
    t_divergence : float
        Time at which the integrator gave up.
    """

    def __init__(self, message, t_divergence=None):
        super().__init__(message)
        self.t_divergence = t_divergence


class WindowTooShort(OamCavityError):
    """Demodulation window does not cover enough beat periods."""


class PoorFit(OamCavityError):
    """Demodulation residual too large; higher harmonics present (probe too strong)."""


class CalibrationError(OamCavityError):
    """Too many per-charge failures while building a calibration curve."""
