"""Transmission spectra, resonance-valley location and linewidths.

The valley is the interior minimum of T(x) with positive discrete
curvature, x = (Omega - omega_phi)/omega_phi.  Location uses a coarse
grid followed by derivative-free golden-section refinement; the Fano-like
shoulders make curvature-based methods ill-conditioned, so no derivatives
are trusted anywhere here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DipTooShallow, Multistable, NoConvergence, NoInteriorMinimum, SingularSystem
from .params import Detuning2Spec, SystemConfig, SystemParams, fingerprint
from .response import TransmissionPoint, transmission_at, transmission_many
from .steady import SteadyState, operating_point

DEFAULT_WINDOW = (-0.2, 0.2)
MAX_ABS_X = 2.0
COARSE_POINTS = 1024
X_TOL = 1e-9
DEPTH_FLOOR = 1e-3
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True, eq=False, init=False)
class Spectrum:
    """A sampled transmission spectrum held as equal-length, read-only float arrays.

    Built from arrays (copied) or, with ``points=``, from a sequence of
    `TransmissionPoint`; `points` gives that per-sample view back.
    """

    omegas: np.ndarray  # probe-drive detunings Omega [rad/s]
    xs: np.ndarray
    transmissions: np.ndarray
    params_fingerprint: str
    branch_tag: str

    def __init__(self, points=None, *, params_fingerprint: str, branch_tag: str,
                 omegas=None, xs=None, transmissions=None):
        if points is not None:
            rows = [(p.omega, p.x, p.transmission) for p in points]
            omegas, xs, transmissions = np.array(rows).reshape(-1, 3).T
        for name, values in (("omegas", omegas), ("xs", xs), ("transmissions", transmissions)):
            arr = np.array(values, dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "params_fingerprint", params_fingerprint)
        object.__setattr__(self, "branch_tag", branch_tag)

    @property
    def points(self) -> tuple[TransmissionPoint, ...]:
        return tuple(
            map(TransmissionPoint, self.omegas.tolist(), self.xs.tolist(), self.transmissions.tolist())
        )


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


def _golden_min(f, a: float, b: float, tol: float) -> float:
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def find_valley(
    params: SystemParams,
    steady: SteadyState,
    window: tuple[float, float] = DEFAULT_WINDOW,
    n_coarse: int = COARSE_POINTS,
) -> ValleyReport:
    """Locate the resonance valley: dT/dx = 0 with d2T/dx2 > 0.

    Coarse grid (1024 points) plus golden-section refinement to 1e-9
    absolute in x.  If the coarse minimum lands on a window boundary the
    window is doubled, up to |x| <= 2, before giving up.

    Raises
    ------
    NoInteriorMinimum
        flat or boundary-running spectra after maximal expansion.
    """
    x_lo, x_hi = window
    if not x_lo < x_hi:
        raise ValueError(f"invalid window [{x_lo}, {x_hi}]")

    while True:
        xs = np.linspace(x_lo, x_hi, n_coarse)
        ts = transmission_many(params, steady, params.omega_phi * (1.0 + xs))
        i = int(np.argmin(ts))
        flat = float(ts.max() - ts.min()) <= 1e-13 * max(1.0, float(np.abs(ts).max()))
        if not flat and 0 < i < n_coarse - 1:
            break
        if x_lo <= -MAX_ABS_X and x_hi >= MAX_ABS_X:
            raise NoInteriorMinimum(
                f"no interior transmission minimum on [{x_lo}, {x_hi}] "
                f"(T range [{ts.min():.6e}, {ts.max():.6e}])"
            )
        half = x_hi - x_lo  # doubling the window width
        x_lo = max(x_lo - half / 2.0, -MAX_ABS_X)
        x_hi = min(x_hi + half / 2.0, MAX_ABS_X)

    f = lambda x: transmission_at(params, steady, params.omega_phi * (1.0 + x))
    x_star = _golden_min(f, float(xs[i - 1]), float(xs[i + 1]), X_TOL)
    t_min = f(x_star)

    # discrete second difference at the converged minimum
    h = max(10.0 * X_TOL, 1e-8)
    curvature = f(x_star - h) + f(x_star + h) - 2.0 * t_min
    if not curvature > 0.0:
        raise NoInteriorMinimum(
            f"refined point x = {x_star:.6e} has non-positive discrete curvature"
        )

    report = ValleyReport(
        x_star=x_star,
        t_min=t_min,
        curvature_sign_ok=True,
        fwhm=None,
        window=(x_lo, x_hi),
    )
    # a dip shallower than the floor relative to the coarse-window median
    # can never yield a linewidth; skip the adaptive measurement entirely
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


def _measure_fwhm(
    params: SystemParams,
    steady: SteadyState,
    valley: ValleyReport,
    n: int = 2048,
) -> float:
    """Adaptive local linewidth: grow a sampling window around the dip.

    Starting narrow guarantees the dip is always well resolved; the window
    is widened until both half-depth crossings fall inside it.  Shallow
    dips are only classified as such once the window is wide enough that
    the outer-sample baseline is trustworthy.
    """
    def attempt(width: float) -> float:
        xs = np.linspace(valley.x_star - width, valley.x_star + width, n)
        ts = transmission_many(params, steady, params.omega_phi * (1.0 + xs))
        return _half_depth_width(xs, ts, valley.x_star, valley.t_min)

    width = max(64.0 * X_TOL, 1e-8)
    last_err: Exception | None = None
    w = None
    while width <= 2.0 * MAX_ABS_X:
        try:
            w = attempt(width)
        except (DipTooShallow, ValueError) as err:
            # too small a window sees the dip's own floor as baseline, or
            # the crossings escape it; either way keep widening
            last_err = err
            width *= 4.0
            continue
        break
    if w is None:
        if isinstance(last_err, DipTooShallow):
            raise last_err
        raise DipTooShallow(f"could not bracket half-depth crossings: {last_err}")

    # iterate the window to ~8x the measured width so the baseline samples
    # sit clear of the dip's own tails; converges in a couple of passes
    for _ in range(6):
        target = min(8.0 * w, 2.0 * MAX_ABS_X)
        try:
            w_new = attempt(target)
        except (DipTooShallow, ValueError):
            break
        done = abs(w_new - w) <= 5e-3 * w
        w = w_new
        if done:
            break
    return w


def charge_step_shift(config: SystemConfig, window: tuple[float, float] = DEFAULT_WINDOW) -> float:
    """|x*(l1+1) - x*(l1)| at the config's own charge l1 and detuning-2 spec.

    Raises what operating_point and find_valley raise for either charge.
    """
    xs = []
    for charge in (config.charge_l1, config.charge_l1 + 1):
        params, steady = operating_point(replace(config, charge_l1=charge))
        xs.append(find_valley(params, steady, window).x_star)
    return abs(xs[1] - xs[0])


def shift_distance(
    params_template: SystemParams,
    l1: int,
    delta2_scan,
    window: tuple[float, float] = DEFAULT_WINDOW,
):
    """Spectral shift distance d = |x*(l1+1) - x*(l1)| per scanned effective Delta_2.

    Returns a list of rows (delta2_over_omega, d, valid); rows where a
    valley cannot be located are marked invalid and the scan continues.
    """
    rows = []
    for d2 in delta2_scan:
        cfg = replace(params_template.config, charge_l1=l1, detuning2=Detuning2Spec("effective", float(d2)))
        try:
            rows.append((d2 / params_template.omega_phi, charge_step_shift(cfg, window), True))
        except (Multistable, NoInteriorMinimum, DipTooShallow, NoConvergence, SingularSystem):
            rows.append((d2 / params_template.omega_phi, float("nan"), False))
    return rows
