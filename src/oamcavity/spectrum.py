"""Transmission spectra, resonance-valley location, linewidths and parameter sweeps.

The valley is the interior minimum of T(x), x = (Omega - omega_phi)/omega_phi,
whose discrete curvature clears a rounding floor.  Location uses a coarse grid
followed by derivative-free bracketed grid rounds; the Fano-like shoulders
make curvature-based methods ill-conditioned, so no derivatives are trusted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DipTooShallow, NoInteriorMinimum, PointFailure
from .params import Detuning2Spec, SystemConfig, SystemParams, Violation, fingerprint
from .response import dressed_mode, transmission_at, transmission_many
from .steady import SteadyState, operating_point, operating_points, point_or_raise

DEFAULT_WINDOW = (-0.2, 0.2)
MAX_ABS_X = 2.0
COARSE_POINTS = 1024
REFINE_POINTS = 65  # per refinement round; each round shrinks the bracket 32-fold
X_TOL = 1e-9
FWHM_POINTS = 2048  # samples per linewidth window
DEPTH_FLOOR = 1e-3
#: curvature floor in eps*T_min, 4x the +-14 eps*T that rounding alone reaches
#: on flat stretches of the shipped configs; real dips clear it by nine orders
CURVATURE_FLOOR_EPS = 64.0


@dataclass(frozen=True, eq=False)
class Spectrum:
    """A sampled transmission spectrum held as equal-length, read-only float arrays (copied in)."""

    omegas: np.ndarray  # probe-drive detunings Omega [rad/s]
    xs: np.ndarray
    transmissions: np.ndarray
    params_fingerprint: str
    branch_tag: str

    def __post_init__(self):
        for name in ("omegas", "xs", "transmissions"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class ValleyReport:
    x_star: float
    t_min: float
    curvature_sign_ok: bool
    fwhm: float | None  # None when the dip is too shallow to measure
    window: tuple[float, float]


def sample_spectrum(
    params: SystemParams,
    steady: SteadyState,
    x_lo: float,
    x_hi: float,
    n: int,
) -> Spectrum:
    """n uniform transmission samples of T(Omega = omega_phi*(1+x)) on [x_lo, x_hi].

    The spectrum holds the sample grid, its probe detunings and the
    kernel's transmissions as arrays.
    """
    if not x_lo < x_hi:
        raise ValueError(f"need x_lo < x_hi, got [{x_lo}, {x_hi}]")
    if n < 3:
        raise ValueError(f"need at least 3 samples, got {n}")
    xs = np.linspace(x_lo, x_hi, n)
    omegas = params.omega_phi * (1.0 + xs)
    return Spectrum(
        omegas=omegas,
        xs=xs,
        transmissions=transmission_many(params, steady, omegas),
        params_fingerprint=fingerprint(params.config),
        branch_tag=steady.branch_tag,
    )


def find_valley(params: SystemParams, steady: SteadyState) -> ValleyReport:
    """Locate the resonance valley: dT/dx = 0 with d2T/dx2 > 0.

    Coarse grid (COARSE_POINTS over DEFAULT_WINDOW), then grid rounds of one
    kernel call each that shrink the bracket to the argmin's neighbours until
    it is 1e-9 wide in x.  If the coarse minimum lands on a window boundary
    the window is doubled, up to |x| <= 2, before giving up.  The second
    difference at +-1e-8 must clear CURVATURE_FLOOR_EPS*eps*T_min.

    Raises
    ------
    NoInteriorMinimum
        flat or boundary-running spectra after maximal expansion, or a
        minimum whose curvature is at rounding level.
    """
    x_lo, x_hi = DEFAULT_WINDOW
    while True:
        xs = np.linspace(x_lo, x_hi, COARSE_POINTS)
        ts = transmission_many(params, steady, params.omega_phi * (1.0 + xs))
        i = int(np.argmin(ts))
        flat = float(ts.max() - ts.min()) <= 1e-13 * max(1.0, float(np.abs(ts).max()))
        if not flat and 0 < i < COARSE_POINTS - 1:
            break
        if x_lo <= -MAX_ABS_X and x_hi >= MAX_ABS_X:
            raise NoInteriorMinimum(
                f"no interior transmission minimum on [{x_lo}, {x_hi}] "
                f"(T range [{ts.min():.6e}, {ts.max():.6e}])"
            )
        half = x_hi - x_lo  # doubling the window width
        x_lo = max(x_lo - half / 2.0, -MAX_ABS_X)
        x_hi = min(x_hi + half / 2.0, MAX_ABS_X)

    a, b = float(xs[i - 1]), float(xs[i + 1])
    while True:
        grid = np.linspace(a, b, REFINE_POINTS)
        tg = transmission_many(params, steady, params.omega_phi * (1.0 + grid))
        j = int(np.argmin(tg))
        a, b = float(grid[max(j - 1, 0)]), float(grid[min(j + 1, REFINE_POINTS - 1)])
        if b - a <= X_TOL:
            break
    x_star, t_min = float(grid[j]), float(tg[j])

    # discrete second difference at the converged minimum
    h = max(10.0 * X_TOL, 1e-8)
    pair = np.array([x_star - h, x_star + h])
    t_lo, t_hi = transmission_many(params, steady, params.omega_phi * (1.0 + pair))
    curvature = float(t_lo + t_hi) - 2.0 * t_min
    floor = CURVATURE_FLOOR_EPS * np.finfo(float).eps * t_min
    if not curvature > floor:
        raise NoInteriorMinimum(
            f"refined point x = {x_star:.6e} has discrete curvature {curvature:.3e}, "
            f"not above the rounding floor {floor:.3e}"
        )

    report = ValleyReport(x_star=x_star, t_min=t_min, curvature_sign_ok=True, fwhm=None, window=(x_lo, x_hi))
    # a dip shallower than the floor relative to the coarse-window median
    # can never yield a linewidth; skip the measurement entirely
    if t_min > float(np.median(ts)) - DEPTH_FLOOR:
        return report
    try:
        fwhm = _measure_fwhm(params, steady, report)
    except DipTooShallow:
        return report
    return replace(report, fwhm=fwhm)


def linewidth(spectrum: Spectrum, valley: ValleyReport) -> float:
    """Full width at half depth of the valley within a sampled spectrum.

    The baseline is the median transmission of the outer 10% of samples
    (robust to Fano asymmetry); the two crossings of
    T = (baseline + T_min)/2 are located by linear interpolation.

    Raises
    ------
    DipTooShallow
        when T_min is within DEPTH_FLOOR of the baseline.
    """
    return _half_depth_width(spectrum.xs, spectrum.transmissions, valley.x_star, valley.t_min)


def _half_depth_width(xs: np.ndarray, ts: np.ndarray, x_star: float, t_min: float) -> float:
    """`linewidth` on bare sample arrays (same baseline, crossings and errors)."""
    n = len(xs)
    k = max(1, int(round(0.05 * n)))
    baseline = float(np.median(np.concatenate([ts[:k], ts[-k:]])))
    if not t_min < baseline - DEPTH_FLOOR:
        raise DipTooShallow(
            f"dip depth {baseline - t_min:.3e} below floor {DEPTH_FLOOR:g} "
            f"(baseline {baseline:.6f}, T_min {t_min:.6f})"
        )
    half = 0.5 * (baseline + t_min)

    i0 = int(np.argmin(np.abs(xs - x_star)))
    # pair k = (k, k+1) holds a crossing when it straddles half and is not flat
    straddles = ((ts[:-1] - half) * (ts[1:] - half) <= 0.0) & (ts[:-1] != ts[1:])
    right = np.flatnonzero(straddles[i0:])
    left = np.flatnonzero(straddles[:i0])
    if not (len(right) and len(left)):
        raise ValueError(
            "half-depth crossing not inside the sampled window; widen the spectrum"
        )

    def cross(i: int, j: int) -> float:
        # interpolate from the sample nearer the valley, i, towards j
        frac = (half - ts[i]) / (ts[j] - ts[i])
        return float(xs[i] + frac * (xs[j] - xs[i]))

    hi = i0 + int(right[0])
    lo = int(left[-1])
    return cross(hi, hi + 1) - cross(lo + 1, lo)


def _measure_fwhm(params: SystemParams, steady: SteadyState, valley: ValleyReport) -> float:
    """Half-depth width over x* +- 8 widths of the dressed mechanical pole, in one kernel call.

    Raises DipTooShallow for a shallow dip, a pole that does not settle, or
    half-depth crossings outside that window.
    """
    reach = 8.0 * dressed_mode(params, steady)[1]
    xs = np.linspace(valley.x_star - reach, valley.x_star + reach, FWHM_POINTS)
    ts = transmission_many(params, steady, params.omega_phi * (1.0 + xs))
    try:
        return _half_depth_width(xs, ts, valley.x_star, valley.t_min)
    except ValueError as err:
        raise DipTooShallow(f"{err} (x* +- {reach:.3e})") from err


def _step_shift(params: SystemParams, steady: SteadyState) -> float:
    """|x*(l1+1) - x*(l1)| from the operating point at l1, at its own detuning-2 spec.

    Raises what operating_point and find_valley raise for either charge.
    """
    x_star = find_valley(params, steady).x_star
    above = replace(params.config, charge_l1=params.config.charge_l1 + 1)
    return abs(find_valley(*operating_point(above)).x_star - x_star)


def shift_distance(params_template: SystemParams, l1: int, delta2_scan):
    """Spectral shift distance d = |x*(l1+1) - x*(l1)| per scanned effective Delta_2.

    The shift-distance `sweep` over detuning2 at charge l1: rows
    (delta2_over_omega, d, valid), nan and False where a valley is missing.
    """
    return sweep(replace(params_template.config, charge_l1=l1), "detuning2", "shift-distance", delta2_scan)[1]


#: sweep axis -> the config at one value of it
SWEEP_AXES = {
    "drive2-power": lambda config, v: replace(config, drive2_power=float(v)),
    "detuning2": lambda config, v: replace(config, detuning2=Detuning2Spec("effective", float(v))),
    "charge-l1": lambda config, v: replace(config, charge_l1=int(v)),
}
#: sweep observable -> (CSV column, its value at one operating point (params, steady))
SWEEP_OBSERVABLES = {
    "x-star": ("x_star", lambda p, st: find_valley(p, st).x_star),
    "resonance-transmission": ("T", lambda p, st: transmission_at(p, st, p.omega_phi)),
    "detuning": ("delta1_normalized", lambda p, st: (st.delta1 - p.omega_phi) / p.omega_phi),
    "shift-distance": ("d", _step_shift),
}


def sweep_values(axis: str, start: float, stop: float, n: int) -> list:
    """n values evenly spaced from start to stop, rounded on charge-l1; ConfigError for a bad range."""
    if not (math.isfinite(start) and math.isfinite(stop)) or n < 1 or (n > 1 and not start < stop):
        raise ConfigError([Violation("sweep range", f"need n >= 1 and finite start < stop (start = stop "
                                     f"if n = 1), got start {start!r}, stop {stop!r}, n {n}")])
    m, d = max(n - 1, 1), stop - start
    xs = [start + (k * (d / m) if axis == "charge-l1" else k * d / m) for k in range(n)]
    # where d overflows, the ends' weighted mean
    xs = [x if math.isfinite(x) else start * (1 - k / m) + stop * (k / m) for k, x in enumerate(xs)]
    return [int(round(x)) for x in xs] if axis == "charge-l1" else xs


def sweep(config: SystemConfig, axis: str, observable: str, values) -> tuple[list[str], list[tuple]]:
    """The CSV header and a (value, observable, valid) row per value of `axis`.

    All values' configs are solved together (`operating_points`), then the
    observable is read at each operating point.  A PointFailure gives the
    row (value, nan, False) and the scan goes on.  A shift-distance scan
    over detuning2 carries Delta_2/omega_phi instead of Delta_2.
    """
    at, (column, measure) = SWEEP_AXES[axis], SWEEP_OBSERVABLES[observable]
    rows = []
    for value, point in zip(values, operating_points([at(config, value) for value in values])):
        try:
            rows.append((value, measure(*point_or_raise(point)), True))
        except PointFailure:
            rows.append((value, math.nan, False))
    if (axis, observable) == ("detuning2", "shift-distance"):
        omega = config.rotation_frequency
        return ["d2_over_omega", column, "valid"], [(v / omega, d, ok) for v, d, ok in rows]
    return [axis.replace("-", "_"), column, "valid"], rows
