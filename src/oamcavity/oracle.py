"""Brute-force validation path: full nonlinear time-domain integration.

Integrates the mean-value equations exactly as written, with the probe
term and every nonlinear product retained, from bare detunings (the
effective ones must come out, not go in).  A lock-in style projection of
the settled tail onto {1, e^{-i*Omega*t}, e^{+i*Omega*t}} then extracts
the dc amplitude and the two probe sidebands independently of any
linearization.

The integrator is an in-package Dormand-Prince 5(4) stepper over six
plain floats that keeps the step control of scipy's RK45 method (same
tableau, initial step, error norm and step factors), so it takes the same
steps at a fraction of the per-step cost.  scipy is loaded only by
`demodulate`, for its cubic spline; nothing else in the package needs it.

This path is expensive: the mechanical damping time 1/gamma_phi is the
slow scale (tens of ms at the default quality factor), so structural
checks run with a lowered Q_phi.
"""

from __future__ import annotations

import math
import warnings
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import PoorFit, StepSizeUnderflow, WindowTooShort
from .params import SystemParams

DEFAULT_TOL = 1e-10
POOR_FIT_THRESHOLD = 1e-2
MIN_PERIODS = 10
_SAMPLES_PER_PERIOD = 32
_MAX_SAMPLES = 65536

# Dormand-Prince 5(4) tableau (J. Comput. Appl. Math. 6, 19 (1980)): nodes,
# stage weights, the 5th-order solution weights and the error weights
# (5th- minus 4th-order, last entry on the FSAL stage f(t + h, y_new)).
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E = (-71 / 57600, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40)  # k1, k3..k7
# Step control of Hairer, Norsett & Wanner, Solving ODEs I, Sec. II.4
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1 / 5  # -1 / (error-estimator order + 1)
_MIN_RTOL = 100 * np.finfo(float).eps


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    phi: np.ndarray
    phi_dot: np.ndarray
    stats: dict

    def __post_init__(self):
        n = len(self.times)
        if not (len(self.c1) == len(self.c2) == len(self.phi) == len(self.phi_dot) == n):
            raise ValueError("trajectory series lengths differ")
        if n > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")


@dataclass(frozen=True)
class DemodulationResult:
    c1s_est: complex
    c1_plus_est: complex
    c1_minus_est: complex
    fit_residual_rms: float


def default_t_end(params: SystemParams) -> float:
    """20 mechanical damping times, capped at 1e7 mechanical periods."""
    return min(20.0 / params.gamma_phi, 1e7 * 2.0 * math.pi / params.omega_phi)


def _rms(values, scale) -> float:
    """RMS norm of values / scale over the six components."""
    return math.sqrt(sum((v / s) * (v / s) for v, s in zip(values, scale)) / 6.0)


def _initial_step(rhs, y0, f0, t_end, rtol, atol) -> float:
    """First step size from the local Taylor estimate, Hairer-Norsett-Wanner Sec. II.4."""
    scale = [a + abs(y) * rtol for y, a in zip(y0, atol)]
    d0 = _rms(y0, scale)
    d1 = _rms(f0, scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_end)
    f1 = rhs(h0, *[y + h0 * f for y, f in zip(y0, f0)])
    d2 = _rms([b - a for a, b in zip(f0, f1)], scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** -_ERROR_EXPONENT
    return min(100 * h0, h1, t_end)


def _dopri54(rhs, y_start, t_end, rtol, atol):
    """Integrate dy/dt = rhs(t, *y) over [0, t_end] with the Dormand-Prince 5(4) pair.

    Takes the same steps as scipy's RK45 method: FSAL stages, local
    extrapolation, the RMS error norm against
    atol + max(|y|, |y_new|) * rtol, step factors 0.9 * err^(-1/5) clipped
    to [0.2, 10], no growth in the step that follows a rejection, a minimum
    step of 10 ulp(t), and the last step clipped to `t_end`.  The state is
    six Python floats and every stage is written out per component: numpy
    arrays, a loop over the tableau and per-stage comprehensions over the
    components all measured slower on a 6-vector.

    Returns (times, states, rejected): `array('d')` of the accepted times
    from 0, the matching states as consecutive rows of six, and the number
    of rejected steps.  Raises StepSizeUnderflow when the step falls below
    the minimum.
    """
    t = 0.0
    y0, y1, y2, y3, y4, y5 = y_start
    a0, a1, a2, a3, a4, a5 = atol
    e1, e3, e4, e5, e6, e7 = _E
    f = rhs(t, *y_start)
    h_abs = _initial_step(rhs, y_start, f, t_end, rtol, atol)
    k10, k11, k12, k13, k14, k15 = f
    times = array("d", (t,))
    states = array("d", y_start)
    rejected = 0
    while t < t_end:
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        step_rejected = False
        while True:
            if h_abs < min_step:
                raise StepSizeUnderflow(
                    f"integration failed at t = {t:.6e} s: required step size is less "
                    "than spacing between numbers",
                    t_divergence=t,
                )
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            k20, k21, k22, k23, k24, k25 = rhs(
                t + _C2 * h,
                y0 + h * (_A21 * k10),
                y1 + h * (_A21 * k11),
                y2 + h * (_A21 * k12),
                y3 + h * (_A21 * k13),
                y4 + h * (_A21 * k14),
                y5 + h * (_A21 * k15),
            )
            k30, k31, k32, k33, k34, k35 = rhs(
                t + _C3 * h,
                y0 + h * (_A31 * k10 + _A32 * k20),
                y1 + h * (_A31 * k11 + _A32 * k21),
                y2 + h * (_A31 * k12 + _A32 * k22),
                y3 + h * (_A31 * k13 + _A32 * k23),
                y4 + h * (_A31 * k14 + _A32 * k24),
                y5 + h * (_A31 * k15 + _A32 * k25),
            )
            k40, k41, k42, k43, k44, k45 = rhs(
                t + _C4 * h,
                y0 + h * (_A41 * k10 + _A42 * k20 + _A43 * k30),
                y1 + h * (_A41 * k11 + _A42 * k21 + _A43 * k31),
                y2 + h * (_A41 * k12 + _A42 * k22 + _A43 * k32),
                y3 + h * (_A41 * k13 + _A42 * k23 + _A43 * k33),
                y4 + h * (_A41 * k14 + _A42 * k24 + _A43 * k34),
                y5 + h * (_A41 * k15 + _A42 * k25 + _A43 * k35),
            )
            k50, k51, k52, k53, k54, k55 = rhs(
                t + _C5 * h,
                y0 + h * (_A51 * k10 + _A52 * k20 + _A53 * k30 + _A54 * k40),
                y1 + h * (_A51 * k11 + _A52 * k21 + _A53 * k31 + _A54 * k41),
                y2 + h * (_A51 * k12 + _A52 * k22 + _A53 * k32 + _A54 * k42),
                y3 + h * (_A51 * k13 + _A52 * k23 + _A53 * k33 + _A54 * k43),
                y4 + h * (_A51 * k14 + _A52 * k24 + _A53 * k34 + _A54 * k44),
                y5 + h * (_A51 * k15 + _A52 * k25 + _A53 * k35 + _A54 * k45),
            )
            k60, k61, k62, k63, k64, k65 = rhs(
                t + h,
                y0 + h * (_A61 * k10 + _A62 * k20 + _A63 * k30 + _A64 * k40 + _A65 * k50),
                y1 + h * (_A61 * k11 + _A62 * k21 + _A63 * k31 + _A64 * k41 + _A65 * k51),
                y2 + h * (_A61 * k12 + _A62 * k22 + _A63 * k32 + _A64 * k42 + _A65 * k52),
                y3 + h * (_A61 * k13 + _A62 * k23 + _A63 * k33 + _A64 * k43 + _A65 * k53),
                y4 + h * (_A61 * k14 + _A62 * k24 + _A63 * k34 + _A64 * k44 + _A65 * k54),
                y5 + h * (_A61 * k15 + _A62 * k25 + _A63 * k35 + _A64 * k45 + _A65 * k55),
            )
            z0 = y0 + h * (_B1 * k10 + _B3 * k30 + _B4 * k40 + _B5 * k50 + _B6 * k60)
            z1 = y1 + h * (_B1 * k11 + _B3 * k31 + _B4 * k41 + _B5 * k51 + _B6 * k61)
            z2 = y2 + h * (_B1 * k12 + _B3 * k32 + _B4 * k42 + _B5 * k52 + _B6 * k62)
            z3 = y3 + h * (_B1 * k13 + _B3 * k33 + _B4 * k43 + _B5 * k53 + _B6 * k63)
            z4 = y4 + h * (_B1 * k14 + _B3 * k34 + _B4 * k44 + _B5 * k54 + _B6 * k64)
            z5 = y5 + h * (_B1 * k15 + _B3 * k35 + _B4 * k45 + _B5 * k55 + _B6 * k65)
            k70, k71, k72, k73, k74, k75 = rhs(t + h, z0, z1, z2, z3, z4, z5)
            # error estimate over its scale per component; x * x, not x**2, so
            # a blowup gives inf instead of OverflowError
            r0 = h * (e1 * k10 + e3 * k30 + e4 * k40 + e5 * k50 + e6 * k60 + e7 * k70) / (
                a0 + max(abs(y0), abs(z0)) * rtol)
            r1 = h * (e1 * k11 + e3 * k31 + e4 * k41 + e5 * k51 + e6 * k61 + e7 * k71) / (
                a1 + max(abs(y1), abs(z1)) * rtol)
            r2 = h * (e1 * k12 + e3 * k32 + e4 * k42 + e5 * k52 + e6 * k62 + e7 * k72) / (
                a2 + max(abs(y2), abs(z2)) * rtol)
            r3 = h * (e1 * k13 + e3 * k33 + e4 * k43 + e5 * k53 + e6 * k63 + e7 * k73) / (
                a3 + max(abs(y3), abs(z3)) * rtol)
            r4 = h * (e1 * k14 + e3 * k34 + e4 * k44 + e5 * k54 + e6 * k64 + e7 * k74) / (
                a4 + max(abs(y4), abs(z4)) * rtol)
            r5 = h * (e1 * k15 + e3 * k35 + e4 * k45 + e5 * k55 + e6 * k65 + e7 * k75) / (
                a5 + max(abs(y5), abs(z5)) * rtol)
            err = math.sqrt((r0 * r0 + r1 * r1 + r2 * r2 + r3 * r3 + r4 * r4 + r5 * r5) / 6.0)
            if err < 1.0:
                factor = _MAX_FACTOR if err == 0.0 else min(_MAX_FACTOR, _SAFETY * err**_ERROR_EXPONENT)
                if step_rejected:
                    factor = min(1.0, factor)
                h_abs = h * factor
                break
            # a NaN or inf norm makes the candidate NaN or 0; max keeps the 0.2 floor
            h_abs = h * max(_MIN_FACTOR, _SAFETY * err**_ERROR_EXPONENT)
            step_rejected = True
            rejected += 1
        t = t_new
        y0, y1, y2, y3, y4, y5 = z0, z1, z2, z3, z4, z5
        k10, k11, k12, k13, k14, k15 = k70, k71, k72, k73, k74, k75
        times.append(t)
        states.extend((y0, y1, y2, y3, y4, y5))
    return times, states, rejected


def integrate_mean_field(
    params: SystemParams,
    bare_detunings: tuple[float, float],
    initial_state,
    t_end: float,
    omega_probe: float,
    tol: float = DEFAULT_TOL,
    eps_p_scale: float = 1.0,
) -> Trajectory:
    """Adaptive Dormand-Prince 5(4) integration of the coupled mean-value equations.

    The state is six real floats (Re/Im c1, Re/Im c2, phi, dphi/dt), stepped
    by `_dopri54` from t = 0 to `t_end` with rtol = `tol` and a per-component
    atol of `tol` times the component's drive-set scale.

    Parameters
    ----------
    bare_detunings : (Delta_c1, Delta_c2)
        Bare cavity-drive detunings; the oracle never consumes effective ones.
    initial_state : (c1, c2, phi, phi_dot) or None for the undriven vacuum.
    t_end : float
        End time in s; must be positive and finite.
    omega_probe : float
        Probe-drive detuning Omega of the e^{-i*Omega*t} probe term.
    tol : float
        Relative tolerance; below 100 * machine epsilon it is raised to that
        with a `UserWarning`.
    eps_p_scale : float
        Multiplies the configured probe amplitude (0 turns the probe off).

    Raises
    ------
    ValueError
        a non-finite initial state, or `t_end` not positive and finite.
    StepSizeUnderflow
        stiff blowup; carries the divergence time.
    """
    if not 0.0 < t_end < math.inf:
        raise ValueError(f"t_end must be positive and finite, got {t_end!r}")
    dc1, dc2 = bare_detunings
    k1, k2 = params.kappa1, params.kappa2
    g1, g2 = params.g1, params.g2
    e1, e2 = params.eps1, params.eps2
    ep = eps_p_scale * params.eps_p
    gam, om2 = params.gamma_phi, params.omega_phi**2
    hbar_i = params.hbar / params.inertia
    omp = omega_probe
    nfev = 0

    def rhs(t, c1r, c1i, c2r, c2i, phi, phid):
        nonlocal nfev
        nfev += 1
        d1 = dc1 + g1 * phi
        d2 = dc2 - g2 * phi
        drive_r = e1 + ep * math.cos(omp * t)
        drive_i = -ep * math.sin(omp * t)
        dc1r = -k1 * c1r + d1 * c1i + drive_r
        dc1i = -k1 * c1i - d1 * c1r + drive_i
        dc2r = -k2 * c2r + d2 * c2i + e2
        dc2i = -k2 * c2i - d2 * c2r
        torque = hbar_i * (g1 * (c1r * c1r + c1i * c1i) - g2 * (c2r * c2r + c2i * c2i))
        dphid = -gam * phid - om2 * phi - torque
        return (dc1r, dc1i, dc2r, dc2i, phid, dphid)

    if initial_state is None:
        y0 = (0.0,) * 6
    else:
        c1_0, c2_0, phi_0, phid_0 = initial_state
        y0 = tuple(float(v) for v in (c1_0.real, c1_0.imag, c2_0.real, c2_0.imag, phi_0, phid_0))
    if not all(math.isfinite(v) for v in y0):
        raise ValueError("every component of the initial state must be finite")

    amp1 = (e1 + ep) / k1
    amp2 = e2 / k2
    phi_scale = params.hbar * (abs(g1) * amp1**2 + abs(g2) * amp2**2) / (params.inertia * om2)
    atol = tuple(
        tol * s
        for s in (
            max(amp1, 1e-6),
            max(amp1, 1e-6),
            max(amp2, 1e-6),
            max(amp2, 1e-6),
            max(phi_scale, 1e-15),
            max(phi_scale * math.sqrt(om2), 1e-9),
        )
    )
    rtol = tol
    if rtol < _MIN_RTOL:
        warnings.warn(f"tol {tol:g} is below 100 * machine epsilon; using rtol = {_MIN_RTOL:g}",
                      stacklevel=2)
        rtol = _MIN_RTOL
    times, states, rejected = _dopri54(rhs, y0, t_end, rtol, atol)
    steps = len(times) - 1
    ys = np.frombuffer(states).reshape(-1, 6)
    return Trajectory(
        times=np.frombuffer(times),
        c1=ys[:, 0] + 1j * ys[:, 1],
        c2=ys[:, 2] + 1j * ys[:, 3],
        phi=ys[:, 4].copy(),
        phi_dot=ys[:, 5].copy(),
        stats={
            "steps": steps,
            "rejected_steps": rejected,
            "nfev": nfev,
            "rtol": rtol,
            "atol": list(atol),
        },
    )


def demodulate(trajectory: Trajectory, omega: float, window: tuple[float, float]) -> DemodulationResult:
    """Project c1(t) onto {1, e^{-i*omega*t}, e^{+i*omega*t}} over a window.

    The window is snapped to a whole number of beat periods (ending at its
    right edge) and must cover at least 10 of them; the trajectory is
    resampled onto a uniform grid with cubic interpolation first, so the
    projection is independent of the adaptive step placement.

    Raises
    ------
    WindowTooShort
        fewer than 10 whole beat periods in the window.
    PoorFit
        relative residual above 1e-2: higher harmonics present, probe too strong.
    """
    t0, t1 = window
    if omega <= 0:
        raise ValueError("demodulation frequency must be positive")
    period = 2.0 * math.pi / omega
    n_per = int(math.floor((t1 - t0) / period))
    if n_per < MIN_PERIODS:
        raise WindowTooShort(
            f"window holds {n_per} whole beat periods, need at least {MIN_PERIODS}"
        )
    t_start = t1 - n_per * period
    if t_start < trajectory.times[0] or t1 > trajectory.times[-1] * (1 + 1e-12):
        raise ValueError("window extends beyond the trajectory")

    from scipy.interpolate import CubicSpline  # the package's only scipy use

    n_samples = min(_SAMPLES_PER_PERIOD * n_per, _MAX_SAMPLES)
    ts = np.linspace(t_start, min(t1, trajectory.times[-1]), n_samples)
    spline_r = CubicSpline(trajectory.times, trajectory.c1.real)
    spline_i = CubicSpline(trajectory.times, trajectory.c1.imag)
    c1 = spline_r(ts) + 1j * spline_i(ts)

    basis = np.column_stack(
        [np.ones_like(ts), np.exp(-1j * omega * ts), np.exp(1j * omega * ts)]
    )
    coef, *_ = np.linalg.lstsq(basis, c1, rcond=None)
    resid = c1 - basis @ coef
    rms = float(np.sqrt(np.mean(np.abs(resid) ** 2)))
    c1s_est, c1_plus, c1_minus = (complex(z) for z in coef)
    denom = abs(c1_plus)
    rel = rms / denom if denom > 0 else math.inf if rms > 0 else 0.0
    if rel > POOR_FIT_THRESHOLD:
        raise PoorFit(
            f"relative fit residual {rel:.3e} above {POOR_FIT_THRESHOLD:g}; "
            "higher harmonics present (probe too strong)"
        )
    return DemodulationResult(
        c1s_est=c1s_est,
        c1_plus_est=c1_plus,
        c1_minus_est=c1_minus,
        fit_residual_rms=rel,
    )


def transmission_oracle(
    params: SystemParams,
    bare_detunings: tuple[float, float],
    omega: float,
    t_end: float | None = None,
    tol: float = DEFAULT_TOL,
    n_periods: int = 20,
    initial_state=None,
) -> float:
    """End-to-end oracle transmission: integrate, demodulate, apply the output relation.

    With both drives on, fixed bare detunings can admit a dark root that a
    vacuum start relaxes to; pass the intended operating point as
    `initial_state` to probe a specific branch.
    """
    if t_end is None:
        t_end = default_t_end(params)
    traj = integrate_mean_field(params, bare_detunings, initial_state, t_end, omega, tol=tol)
    window = (t_end - (n_periods + 1) * 2.0 * math.pi / omega, t_end)
    demod = demodulate(traj, omega, window)
    return abs(1.0 - 2.0 * params.kappa1 * demod.c1_plus_est / params.eps_p) ** 2


def dump_trajectory_csv(trajectory: Trajectory, path) -> None:
    """Debug dump: t, Re c1, Im c1, Re c2, Im c2, phi, dphi/dt."""
    header = "t,re_c1,im_c1,re_c2,im_c2,phi,phi_dot"
    data = np.column_stack(
        [
            trajectory.times,
            trajectory.c1.real,
            trajectory.c1.imag,
            trajectory.c2.real,
            trajectory.c2.imag,
            trajectory.phi,
            trajectory.phi_dot,
        ]
    )
    np.savetxt(path, data, delimiter=",", header=header, comments="", fmt="%.16e")
