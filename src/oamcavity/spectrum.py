"""Transmission spectra, resonance-valley location, linewidths and parameter sweeps.

The valley is the interior minimum of T(x), x = (Omega - omega_phi)/omega_phi,
whose discrete curvature clears a rounding floor.  Location uses a coarse grid
followed by derivative-free bracketed grid rounds; the Fano-like shoulders
make curvature-based methods ill-conditioned, so no derivatives are trusted.
`find_valleys` locates the valleys of a batch of operating points together,
each stage of the search one stacked kernel call over the rows still in it,
and `find_valley` is its one-row case.  Sweeps and calibrations measure all
their operating points as one batch (`scan`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DipTooShallow, NoInteriorMinimum, PointFailure
from .params import Detuning2Spec, SystemConfig, SystemParams, Violation
from .response import ProbeStack, dressed_mode, probe_stack, transmission_many, transmission_rows
from .steady import SteadyState, operating_points, point_or_raise

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
) -> tuple[np.ndarray, np.ndarray]:
    """(xs, ts): n uniform samples x on [x_lo, x_hi] and the kernel's T(Omega = omega_phi*(1+x))."""
    if not x_lo < x_hi:
        raise ValueError(f"need x_lo < x_hi, got [{x_lo}, {x_hi}]")
    if n < 3:
        raise ValueError(f"need at least 3 samples, got {n}")
    xs = np.linspace(x_lo, x_hi, n)
    return xs, transmission_many(params, steady, params.omega_phi * (1.0 + xs))


def find_valley(params: SystemParams, steady: SteadyState) -> ValleyReport:
    """Locate the resonance valley: dT/dx = 0 with d2T/dx2 > 0.

    The one-row case of `find_valleys`.  Coarse grid (COARSE_POINTS over
    DEFAULT_WINDOW), then grid rounds of one kernel call each that shrink
    the bracket to the argmin's neighbours until it is 1e-9 wide in x.  If
    the coarse minimum lands on a window boundary the window is doubled,
    up to |x| <= 2, before giving up.  The second difference at +-1e-8
    must clear CURVATURE_FLOOR_EPS*eps*T_min.

    Raises
    ------
    NoInteriorMinimum
        flat or boundary-running spectra after maximal expansion, or a
        minimum whose curvature is at rounding level.
    """
    return point_or_raise(find_valleys([(params, steady)])[0])


def _measure(stack: ProbeStack, rows: np.ndarray, xs: np.ndarray):
    """(rows, xs, ts, failures): T at x = xs[k] for the stack's point rows[k] in one kernel call,
    the rows whose call fails dropped and mapped in failures to their SingularSystem."""
    ts, failures = transmission_rows(stack, rows, np.multiply(stack.omega_phi[rows, None], 1.0 + xs, order="C"))
    if not failures:
        return rows, xs, ts, failures
    keep = np.array([r not in failures for r in rows.tolist()], dtype=bool)
    return rows[keep], xs[keep], ts[keep], failures


def find_valleys(points) -> list:
    """`find_valley` at each operating point (params, steady): its ValleyReport or the PointFailure it raises.

    All rows are searched together, each stage one kernel call over the
    rows still in it: the coarse grid, a re-grid of only the rows whose
    window doubles, refinement rounds over only the brackets still wider
    than X_TOL, the curvature pair, and the linewidth windows.  Row for row
    the arithmetic is that of a search on its own.  A point without a
    probe raises ConfigError.
    """
    stack = probe_stack(points)
    n = len(stack.points)
    results: dict = {}
    lo, hi = np.full(n, float(DEFAULT_WINDOW[0])), np.full(n, float(DEFAULT_WINDOW[1]))
    a, b, median, x_star, t_min = (np.empty(n) for _ in range(5))

    rows, bracketed = np.arange(n), []
    while rows.size:  # coarse grids, a row's window doubled while its minimum is flat or on an edge
        rows, xs, ts, failures = _measure(stack, rows, np.linspace(lo[rows], hi[rows], COARSE_POINTS, axis=1))
        results.update(failures)
        i = np.argmin(ts, axis=1)
        flat = ts.max(axis=1) - ts.min(axis=1) <= 1e-13 * np.maximum(1.0, np.abs(ts).max(axis=1))
        inner = ~flat & (0 < i) & (i < COARSE_POINTS - 1)
        k = np.flatnonzero(inner)
        a[rows[k]], b[rows[k]], median[rows[k]] = xs[k, i[k] - 1], xs[k, i[k] + 1], np.median(ts[k], axis=1)
        bracketed += rows[k].tolist()
        widest = ~inner & (lo[rows] <= -MAX_ABS_X) & (hi[rows] >= MAX_ABS_X)
        for k in np.flatnonzero(widest).tolist():
            results[int(rows[k])] = NoInteriorMinimum(
                f"no interior transmission minimum on [{float(lo[rows[k]])}, {float(hi[rows[k]])}] "
                f"(T range [{ts[k].min():.6e}, {ts[k].max():.6e}])"
            )
        rows = rows[~inner & ~widest]
        half = hi[rows] - lo[rows]  # doubling the window width
        lo[rows] = np.maximum(lo[rows] - half / 2.0, -MAX_ABS_X)
        hi[rows] = np.minimum(hi[rows] + half / 2.0, MAX_ABS_X)

    rows, refined = np.array(bracketed, dtype=int), []
    while rows.size:  # refinement rounds, each bracket shrunk to its argmin's neighbours
        rows, grid, tg, failures = _measure(stack, rows, np.linspace(a[rows], b[rows], REFINE_POINTS, axis=1))
        results.update(failures)
        j, k = np.argmin(tg, axis=1), np.arange(len(rows))
        a[rows], b[rows] = grid[k, np.maximum(j - 1, 0)], grid[k, np.minimum(j + 1, REFINE_POINTS - 1)]
        x_star[rows], t_min[rows] = grid[k, j], tg[k, j]
        done = b[rows] - a[rows] <= X_TOL
        refined += rows[done].tolist()
        rows = rows[~done]

    # discrete second difference at each converged minimum
    h = max(10.0 * X_TOL, 1e-8)
    rows = np.array(refined, dtype=int)
    rows, _, pair, failures = _measure(stack, rows, np.stack([x_star[rows] - h, x_star[rows] + h], axis=1))
    results.update(failures)
    curvature = (pair[:, 0] + pair[:, 1]) - 2.0 * t_min[rows]
    floor = CURVATURE_FLOOR_EPS * np.finfo(float).eps * t_min[rows]
    for r, c, f in zip(rows.tolist(), curvature.tolist(), floor.tolist()):
        results[r] = ValleyReport(x_star=float(x_star[r]), t_min=float(t_min[r]), curvature_sign_ok=True,
                                  fwhm=None, window=(float(lo[r]), float(hi[r]))) if c > f else NoInteriorMinimum(
            f"refined point x = {x_star[r]:.6e} has discrete curvature {c:.3e}, not above the rounding floor {f:.3e}")

    # a dip shallower than the floor relative to the coarse-window median
    # can never yield a linewidth; the measurement is skipped for it
    deep = {r: results[r] for r in rows.tolist()
            if isinstance(results[r], ValleyReport) and not t_min[r] > median[r] - DEPTH_FLOOR}
    for r, fwhm in _measure_fwhms(stack, deep).items():
        results[r] = fwhm if isinstance(fwhm, PointFailure) else replace(results[r], fwhm=fwhm)
    return [results[r] for r in range(n)]


def linewidth(xs: np.ndarray, ts: np.ndarray, x_star: float, t_min: float) -> float:
    """Full width at half depth of the valley (x_star, t_min) within the samples (xs, ts).

    The baseline is the median transmission of the outer 10% of samples
    (robust to Fano asymmetry); the two crossings of
    T = (baseline + T_min)/2 are located by linear interpolation.

    Raises
    ------
    DipTooShallow
        when T_min is within DEPTH_FLOOR of the baseline.
    ValueError
        when a crossing lies outside the samples.
    """
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


def _measure_fwhms(stack: ProbeStack, valleys: dict) -> dict:
    """{row: fwhm} for each stack row's ValleyReport: the half-depth width over x* +- 8 widths of the
    dressed mechanical pole, every window in one kernel call.

    None for a pole that does not settle, a shallow dip or half-depth
    crossings outside the window; the SingularSystem of a row whose kernel
    call fails.
    """
    fwhms, reach = {}, {}
    for r in valleys:
        try:
            reach[r] = 8.0 * dressed_mode(*stack.points[r])[1]
        except DipTooShallow:
            fwhms[r] = None
    x, d = np.array([valleys[r].x_star for r in reach]), np.array(list(reach.values()))
    rows, xs, ts, failures = _measure(stack, np.array(list(reach), dtype=int),
                                      np.linspace(x - d, x + d, FWHM_POINTS, axis=1))
    fwhms.update(failures)
    for r, xs_r, ts_r in zip(rows.tolist(), xs, ts):
        try:
            fwhms[r] = linewidth(xs_r, ts_r, valleys[r].x_star, valleys[r].t_min)
        except (DipTooShallow, ValueError):
            fwhms[r] = None
    return fwhms


def _step_shifts(points) -> list:
    """|x*(l1+1) - x*(l1)| at each operating point, at its own detuning-2 spec, or the PointFailure of either
    charge: the l1+1 points solved in one `operating_points` call, all valleys located in one `find_valleys` call."""
    above = operating_points([replace(p.config, charge_l1=p.config.charge_l1 + 1) for p, _ in points])
    solved = [i for i, point in enumerate(above) if not isinstance(point, PointFailure)]
    valleys = find_valleys([*points, *(above[i] for i in solved)])
    for i, valley in zip(solved, valleys[len(points):]):
        above[i] = valley
    return [own if isinstance(own, PointFailure) else up if isinstance(up, PointFailure)
            else abs(up.x_star - own.x_star) for own, up in zip(valleys, above)]


def _resonance_transmissions(points) -> list:
    """T at Omega = omega_phi at each operating point, one (rows, 1) kernel call, or the row's SingularSystem."""
    stack = probe_stack(points)
    ts, failures = transmission_rows(stack, np.arange(len(stack.points)), stack.omega_phi[:, None])
    return [failures.get(r, t) for r, t in enumerate(ts[:, 0].tolist())]


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
#: sweep observable -> (CSV column, its value or PointFailure at each of a list of operating points (params, steady))
SWEEP_OBSERVABLES = {
    "x-star": ("x_star", lambda points: [v if isinstance(v, PointFailure) else v.x_star for v in find_valleys(points)]),
    "resonance-transmission": ("T", _resonance_transmissions),
    "detuning": ("delta1_normalized", lambda points: [(st.delta1 - p.omega_phi) / p.omega_phi for p, st in points]),
    "shift-distance": ("d", _step_shifts),
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


def scan(configs, measure) -> list:
    """The result at each config's operating point, or the PointFailure in its place.

    All configs are solved together (`operating_points`), and the points
    that have a steady state are measured as one batch: measure(points)
    returns a result or a PointFailure per (params, steady).
    """
    results = operating_points(configs)
    solved = [i for i, point in enumerate(results) if not isinstance(point, PointFailure)]
    for i, result in zip(solved, measure([results[i] for i in solved])):
        results[i] = result
    return results


def sweep(config: SystemConfig, axis: str, observable: str, values) -> tuple[list[str], list[tuple]]:
    """The CSV header and a (value, observable, valid) row per value of `axis`.

    The observable is read at each value's operating point through `scan`;
    a PointFailure gives the row (value, nan, False).  A shift-distance scan
    over detuning2 carries Delta_2/omega_phi instead of Delta_2.
    """
    at, (column, measure) = SWEEP_AXES[axis], SWEEP_OBSERVABLES[observable]
    results = scan([at(config, value) for value in values], measure)
    rows = [(value, math.nan, False) if isinstance(result, PointFailure) else (value, result, True)
            for value, result in zip(values, results)]
    if (axis, observable) == ("detuning2", "shift-distance"):
        omega = config.rotation_frequency
        return ["d2_over_omega", column, "valid"], [(v / omega, d, ok) for v, d, ok in rows]
    return [axis.replace("-", "_"), column, "valid"], rows
