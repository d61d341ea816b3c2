"""Brute-force validation path: full nonlinear time-domain integration.

Integrates the mean-value equations exactly as written, with the probe
term and every nonlinear product retained, from bare detunings (the
effective ones must come out, not go in).  A lock-in style projection of
the settled tail onto {1, e^{-i*Omega*t}, e^{+i*Omega*t}} then extracts
the dc amplitude and the two probe sidebands independently of any
linearization; `sideband_oracle` is that measurement, integration and
window rule in one place.

The integrator is an in-package Dormand-Prince 5(4) stepper over six
plain floats that keeps the step control of scipy's RK45 method (same
tableau, initial step, error norm and step factors), so it takes the same
steps at a fraction of the per-step cost.  The mean-value equations are
written into its stages, so a step makes no function call per stage.
scipy is loaded only by `demodulate`, for a cubic spline fitted around
the demodulation window; nothing else in the package needs it.
`sideband_oracle` records only that window and the spline's margin before
it, so its memory does not grow with `t_end`.

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
from .response import transmission

DEFAULT_TOL = 1e-10
POOR_FIT_THRESHOLD = 1e-2
MIN_PERIODS = 10
_SAMPLES_PER_PERIOD = 32
_MAX_SAMPLES = 65536
_SPLINE_MARGIN = 16  # trajectory samples fitted beyond each end of the demodulation window
_KEPT_BEFORE_RECORD = _SPLINE_MARGIN + 2  # samples kept before a trajectory's recording start
_ATTEMPTS_PER_RATE = 1000.0  # step attempts allowed per unit of 1 + rate * t_end, see `_dopri54_mean_field`
WINDOW_PERIODS = 21  # beat periods before t_end that `sideband_oracle` demodulates

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
    """Accepted samples of an integration; `stats` counts every step taken, recorded or not.

    `t_record` is the recording start: every accepted sample from it on is
    held, and before it only the last `_KEPT_BEFORE_RECORD` (the spline
    margin of a window that starts there).  -inf holds the whole trajectory.
    """

    times: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    phi: np.ndarray
    phi_dot: np.ndarray
    stats: dict
    t_record: float = -math.inf

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


def _dopri54_mean_field(equations, y_start, t_end, rtol, atol, t_record=-math.inf):
    """Integrate the mean-value equations over [0, t_end] with the Dormand-Prince 5(4) pair.

    `equations` holds the constants of the right-hand side: (Delta_c1,
    Delta_c2, kappa1, kappa2, g1, g2, eps1, eps2, eps_p, gamma_phi,
    omega_phi^2, hbar/I, Omega).  The equations are written out once in
    `rhs`, which only the two start-up evaluations call, and again inline
    in stages 2-7 over local floats, in the same order of floating-point
    operations; stages 6 and 7 share the time t + h and so their drive.

    Takes the same steps as scipy's RK45 method: FSAL stages, local
    extrapolation, the RMS error norm against
    atol + max(|y|, |y_new|) * rtol, step factors 0.9 * err^(-1/5) clipped
    to [0.2, 10], no growth in the step that follows a rejection, a minimum
    step of 10 ulp(t), and the last step clipped to `t_end`.  The state is
    six Python floats and every stage is written out per component: numpy
    arrays, a loop over the tableau, per-stage comprehensions over the
    components and a per-stage call of `rhs` all measured slower, and so
    did the builtins `min` and `max` in the step loop, which are written as
    comparisons that pick the same operand (NaN included).

    Every accepted sample from `t_record` on is kept; before it the buffers
    are cut back to their last `_KEPT_BEFORE_RECORD` samples whenever they
    reach twice that, and once more at the end.

    Returns (times, states, rejected, nfev): `array('d')` of the kept
    times, the matching states as consecutive rows of six, the number of
    rejected steps and the number of right-hand-side evaluations (2 at
    start-up, then 6 per attempted step), all steps counted, kept or not.

    Raises StepSizeUnderflow when the step falls below the minimum or is
    NaN (a non-finite RHS), and when the step attempts reach

        1000 * (1 + rate * t_end),
        rate = max(kappa1 + |Delta_c1|, kappa2 + |Delta_c2|,
                   gamma_phi + omega_phi, |Omega|),

    the fastest rate of the uncoupled equations and the probe.  Every
    shipped run and test takes at most 39 attempts per unit of
    1 + rate * t_end (42 attempts at the rtol floor over 1e-9 s; 2.3 for
    `validate`, 163,869 attempts; 10.2 for the longest relaxation,
    720,478), so the bound leaves 25x headroom or more.  A step that
    collapses toward the minimum ends here instead of crawling on.
    """
    dc1, dc2, k1, k2, g1, g2, eps1, eps2, ep, gam, om2, hbar_i, omp = equations
    cos, sin, nextafter, inf = math.cos, math.sin, math.nextafter, math.inf
    rate = max(k1 + abs(dc1), k2 + abs(dc2), gam + math.sqrt(om2), abs(omp))
    max_nfev = 2 + 6 * _ATTEMPTS_PER_RATE * (1.0 + rate * t_end)  # a float: rate * t_end may be huge
    kept = _KEPT_BEFORE_RECORD

    def rhs(t, c1r, c1i, c2r, c2i, phi, phid):
        d1 = dc1 + g1 * phi
        d2 = dc2 - g2 * phi
        drive_r = eps1 + ep * cos(omp * t)
        drive_i = -ep * sin(omp * t)
        dc1r = -k1 * c1r + d1 * c1i + drive_r
        dc1i = -k1 * c1i - d1 * c1r + drive_i
        dc2r = -k2 * c2r + d2 * c2i + eps2
        dc2i = -k2 * c2i - d2 * c2r
        torque = hbar_i * (g1 * (c1r * c1r + c1i * c1i) - g2 * (c2r * c2r + c2i * c2i))
        dphid = -gam * phid - om2 * phi - torque
        return (dc1r, dc1i, dc2r, dc2i, phid, dphid)

    t = 0.0
    y0, y1, y2, y3, y4, y5 = y_start
    a0, a1, a2, a3, a4, a5 = atol
    e1, e3, e4, e5, e6, e7 = _E
    f = rhs(t, *y_start)
    h_abs = _initial_step(rhs, y_start, f, t_end, rtol, atol)
    nfev = 2
    k10, k11, k12, k13, k14, k15 = f
    times = array("d", (t,))
    states = array("d", y_start)
    rejected = 0
    while t < t_end:
        min_step = 10.0 * (nextafter(t, inf) - t)
        if min_step > h_abs:
            h_abs = min_step
        step_rejected = False
        while True:
            if not h_abs >= min_step:  # a NaN step raises too
                raise StepSizeUnderflow(
                    f"integration failed at t = {t:.6e} s: required step size is less "
                    "than spacing between numbers",
                    t_divergence=t,
                )
            if nfev >= max_nfev:
                raise StepSizeUnderflow(
                    f"integration stopped at t = {t:.6e} s of {t_end:.6e} s: "
                    f"{(nfev - 2) // 6} step attempts, the bound {_ATTEMPTS_PER_RATE:g} * (1 + rate * t_end)",
                    t_divergence=t,
                )
            t_new = t + h_abs
            if t_end < t_new:
                t_new = t_end
            h = t_new - t
            nfev += 6
            # stage k_i at (t + c_i * h, u): u0..u3 the amplitudes, u4 = phi,
            # and k_i4 = dphi/dt is the stage's own angular velocity
            u0 = y0 + h * (_A21 * k10)
            u1 = y1 + h * (_A21 * k11)
            u2 = y2 + h * (_A21 * k12)
            u3 = y3 + h * (_A21 * k13)
            u4 = y4 + h * (_A21 * k14)
            k24 = y5 + h * (_A21 * k15)
            wt = omp * (t + _C2 * h)
            d1 = dc1 + g1 * u4
            d2 = dc2 - g2 * u4
            k20 = -k1 * u0 + d1 * u1 + (eps1 + ep * cos(wt))
            k21 = -k1 * u1 - d1 * u0 + -ep * sin(wt)
            k22 = -k2 * u2 + d2 * u3 + eps2
            k23 = -k2 * u3 - d2 * u2
            k25 = -gam * k24 - om2 * u4 - hbar_i * (g1 * (u0 * u0 + u1 * u1) - g2 * (u2 * u2 + u3 * u3))

            u0 = y0 + h * (_A31 * k10 + _A32 * k20)
            u1 = y1 + h * (_A31 * k11 + _A32 * k21)
            u2 = y2 + h * (_A31 * k12 + _A32 * k22)
            u3 = y3 + h * (_A31 * k13 + _A32 * k23)
            u4 = y4 + h * (_A31 * k14 + _A32 * k24)
            k34 = y5 + h * (_A31 * k15 + _A32 * k25)
            wt = omp * (t + _C3 * h)
            d1 = dc1 + g1 * u4
            d2 = dc2 - g2 * u4
            k30 = -k1 * u0 + d1 * u1 + (eps1 + ep * cos(wt))
            k31 = -k1 * u1 - d1 * u0 + -ep * sin(wt)
            k32 = -k2 * u2 + d2 * u3 + eps2
            k33 = -k2 * u3 - d2 * u2
            k35 = -gam * k34 - om2 * u4 - hbar_i * (g1 * (u0 * u0 + u1 * u1) - g2 * (u2 * u2 + u3 * u3))

            u0 = y0 + h * (_A41 * k10 + _A42 * k20 + _A43 * k30)
            u1 = y1 + h * (_A41 * k11 + _A42 * k21 + _A43 * k31)
            u2 = y2 + h * (_A41 * k12 + _A42 * k22 + _A43 * k32)
            u3 = y3 + h * (_A41 * k13 + _A42 * k23 + _A43 * k33)
            u4 = y4 + h * (_A41 * k14 + _A42 * k24 + _A43 * k34)
            k44 = y5 + h * (_A41 * k15 + _A42 * k25 + _A43 * k35)
            wt = omp * (t + _C4 * h)
            d1 = dc1 + g1 * u4
            d2 = dc2 - g2 * u4
            k40 = -k1 * u0 + d1 * u1 + (eps1 + ep * cos(wt))
            k41 = -k1 * u1 - d1 * u0 + -ep * sin(wt)
            k42 = -k2 * u2 + d2 * u3 + eps2
            k43 = -k2 * u3 - d2 * u2
            k45 = -gam * k44 - om2 * u4 - hbar_i * (g1 * (u0 * u0 + u1 * u1) - g2 * (u2 * u2 + u3 * u3))

            u0 = y0 + h * (_A51 * k10 + _A52 * k20 + _A53 * k30 + _A54 * k40)
            u1 = y1 + h * (_A51 * k11 + _A52 * k21 + _A53 * k31 + _A54 * k41)
            u2 = y2 + h * (_A51 * k12 + _A52 * k22 + _A53 * k32 + _A54 * k42)
            u3 = y3 + h * (_A51 * k13 + _A52 * k23 + _A53 * k33 + _A54 * k43)
            u4 = y4 + h * (_A51 * k14 + _A52 * k24 + _A53 * k34 + _A54 * k44)
            k54 = y5 + h * (_A51 * k15 + _A52 * k25 + _A53 * k35 + _A54 * k45)
            wt = omp * (t + _C5 * h)
            d1 = dc1 + g1 * u4
            d2 = dc2 - g2 * u4
            k50 = -k1 * u0 + d1 * u1 + (eps1 + ep * cos(wt))
            k51 = -k1 * u1 - d1 * u0 + -ep * sin(wt)
            k52 = -k2 * u2 + d2 * u3 + eps2
            k53 = -k2 * u3 - d2 * u2
            k55 = -gam * k54 - om2 * u4 - hbar_i * (g1 * (u0 * u0 + u1 * u1) - g2 * (u2 * u2 + u3 * u3))

            u0 = y0 + h * (_A61 * k10 + _A62 * k20 + _A63 * k30 + _A64 * k40 + _A65 * k50)
            u1 = y1 + h * (_A61 * k11 + _A62 * k21 + _A63 * k31 + _A64 * k41 + _A65 * k51)
            u2 = y2 + h * (_A61 * k12 + _A62 * k22 + _A63 * k32 + _A64 * k42 + _A65 * k52)
            u3 = y3 + h * (_A61 * k13 + _A62 * k23 + _A63 * k33 + _A64 * k43 + _A65 * k53)
            u4 = y4 + h * (_A61 * k14 + _A62 * k24 + _A63 * k34 + _A64 * k44 + _A65 * k54)
            k64 = y5 + h * (_A61 * k15 + _A62 * k25 + _A63 * k35 + _A64 * k45 + _A65 * k55)
            wt = omp * (t + h)
            drive_r = eps1 + ep * cos(wt)
            drive_i = -ep * sin(wt)
            d1 = dc1 + g1 * u4
            d2 = dc2 - g2 * u4
            k60 = -k1 * u0 + d1 * u1 + drive_r
            k61 = -k1 * u1 - d1 * u0 + drive_i
            k62 = -k2 * u2 + d2 * u3 + eps2
            k63 = -k2 * u3 - d2 * u2
            k65 = -gam * k64 - om2 * u4 - hbar_i * (g1 * (u0 * u0 + u1 * u1) - g2 * (u2 * u2 + u3 * u3))

            z0 = y0 + h * (_B1 * k10 + _B3 * k30 + _B4 * k40 + _B5 * k50 + _B6 * k60)
            z1 = y1 + h * (_B1 * k11 + _B3 * k31 + _B4 * k41 + _B5 * k51 + _B6 * k61)
            z2 = y2 + h * (_B1 * k12 + _B3 * k32 + _B4 * k42 + _B5 * k52 + _B6 * k62)
            z3 = y3 + h * (_B1 * k13 + _B3 * k33 + _B4 * k43 + _B5 * k53 + _B6 * k63)
            z4 = y4 + h * (_B1 * k14 + _B3 * k34 + _B4 * k44 + _B5 * k54 + _B6 * k64)
            z5 = y5 + h * (_B1 * k15 + _B3 * k35 + _B4 * k45 + _B5 * k55 + _B6 * k65)
            # FSAL stage f(t + h, z), the next step's k1
            d1 = dc1 + g1 * z4
            d2 = dc2 - g2 * z4
            k70 = -k1 * z0 + d1 * z1 + drive_r
            k71 = -k1 * z1 - d1 * z0 + drive_i
            k72 = -k2 * z2 + d2 * z3 + eps2
            k73 = -k2 * z3 - d2 * z2
            k75 = -gam * z5 - om2 * z4 - hbar_i * (g1 * (z0 * z0 + z1 * z1) - g2 * (z2 * z2 + z3 * z3))
            # error estimate over its scale a + max(|y|, |z|) * rtol per
            # component; x * x, not x**2, so a blowup gives inf instead of
            # OverflowError
            r0 = h * (e1 * k10 + e3 * k30 + e4 * k40 + e5 * k50 + e6 * k60 + e7 * k70) / (
                a0 + (az if (az := abs(z0)) > (ay := abs(y0)) else ay) * rtol)
            r1 = h * (e1 * k11 + e3 * k31 + e4 * k41 + e5 * k51 + e6 * k61 + e7 * k71) / (
                a1 + (az if (az := abs(z1)) > (ay := abs(y1)) else ay) * rtol)
            r2 = h * (e1 * k12 + e3 * k32 + e4 * k42 + e5 * k52 + e6 * k62 + e7 * k72) / (
                a2 + (az if (az := abs(z2)) > (ay := abs(y2)) else ay) * rtol)
            r3 = h * (e1 * k13 + e3 * k33 + e4 * k43 + e5 * k53 + e6 * k63 + e7 * k73) / (
                a3 + (az if (az := abs(z3)) > (ay := abs(y3)) else ay) * rtol)
            r4 = h * (e1 * k14 + e3 * k34 + e4 * k44 + e5 * k54 + e6 * k64 + e7 * z5) / (
                a4 + (az if (az := abs(z4)) > (ay := abs(y4)) else ay) * rtol)
            r5 = h * (e1 * k15 + e3 * k35 + e4 * k45 + e5 * k55 + e6 * k65 + e7 * k75) / (
                a5 + (az if (az := abs(z5)) > (ay := abs(y5)) else ay) * rtol)
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
        k10, k11, k12, k13, k14, k15 = k70, k71, k72, k73, z5, k75
        times.append(t)
        states.extend((y0, y1, y2, y3, y4, y5))
        if t < t_record and len(times) >= 2 * kept:
            del times[:-kept]
            del states[: -6 * kept]
    drop = sum(s < t_record for s in times[: 2 * kept]) - kept  # fewer than 2 * kept precede t_record
    if drop > 0:
        del times[:drop]
        del states[: 6 * drop]
    return times, states, rejected, nfev


def integrate_mean_field(
    params: SystemParams,
    bare_detunings: tuple[float, float],
    initial_state,
    t_end: float,
    omega_probe: float,
    tol: float = DEFAULT_TOL,
    eps_p_scale: float = 1.0,
    t_record: float = -math.inf,
) -> Trajectory:
    """Adaptive Dormand-Prince 5(4) integration of the coupled mean-value equations.

    The state is six real floats (Re/Im c1, Re/Im c2, phi, dphi/dt), stepped
    by `_dopri54_mean_field` from t = 0 to `t_end` with rtol = `tol` and a
    per-component atol of `tol` times the component's drive-set scale.
    The whole trajectory is returned unless `t_record` is given.

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
    t_record : float
        Recording start, see `Trajectory`; `stats` still counts every step.

    Raises
    ------
    ValueError
        a non-finite initial state, `omega_probe` or `eps_p_scale`, or
        `t_end` not positive and finite.
    StepSizeUnderflow
        stiff blowup, or the step-attempt bound of `_dopri54_mean_field`;
        carries the time reached.
    """
    if not 0.0 < t_end < math.inf:
        raise ValueError(f"t_end must be positive and finite, got {t_end!r}")
    dc1, dc2 = bare_detunings
    k1, k2 = params.kappa1, params.kappa2
    g1, g2 = params.g1, params.g2
    e1, e2 = params.eps1, params.eps2
    ep = eps_p_scale * params.eps_p
    om2 = params.omega_phi**2
    equations = (dc1, dc2, k1, k2, g1, g2, e1, e2, ep, params.gamma_phi, om2,
                 params.hbar / params.inertia, omega_probe)

    if initial_state is None:
        y0 = (0.0,) * 6
    else:
        c1_0, c2_0, phi_0, phid_0 = initial_state
        y0 = tuple(float(v) for v in (c1_0.real, c1_0.imag, c2_0.real, c2_0.imag, phi_0, phid_0))
    if not all(math.isfinite(v) for v in (*y0, omega_probe, eps_p_scale)):
        raise ValueError("the initial state, omega_probe and eps_p_scale must be finite")

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
    times, states, rejected, nfev = _dopri54_mean_field(equations, y0, t_end, rtol, atol, t_record)
    steps = (nfev - 2) // 6 - rejected  # attempts less rejections, kept or not
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
        t_record=t_record,
    )


def demodulate(trajectory: Trajectory, omega: float, window: tuple[float, float]) -> DemodulationResult:
    """Project c1(t) onto {1, e^{-i*omega*t}, e^{+i*omega*t}} over a window.

    The window is snapped to a whole number of beat periods (ending at its
    right edge) and must cover at least 10 of them; the trajectory is
    resampled onto a uniform grid with cubic interpolation first, so the
    projection is independent of the adaptive step placement.  The spline
    is fitted on the window's samples and 16 more on either side, not on
    the whole trajectory, so a trajectory recorded from the window's start
    on gives the same result as the whole one.

    Raises
    ------
    ValueError
        a window beyond the trajectory's ends, or one that starts before
        its recording start by more than the samples kept there.
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
    times = trajectory.times
    t_stop = min(t1, times[-1])
    # the spline's dependence on a knot decays geometrically with distance,
    # so fitting the knots of the window plus a margin either side matches
    # the whole-trajectory fit to rounding
    lo = int(np.searchsorted(times, t_start, side="right")) - 1 - _SPLINE_MARGIN
    hi = int(np.searchsorted(times, t_stop, side="left")) + 1 + _SPLINE_MARGIN
    if (t_start < times[0] or t1 > times[-1] * (1 + 1e-12)
            or (lo < 0 and t_start < trajectory.t_record)):  # margin samples dropped
        raise ValueError("window extends beyond the recorded trajectory")
    lo = max(lo, 0)

    from scipy.interpolate import CubicSpline  # the package's only scipy use

    n_samples = min(_SAMPLES_PER_PERIOD * n_per, _MAX_SAMPLES)
    ts = np.linspace(t_start, t_stop, n_samples)
    knots, c1_knots = times[lo:hi], trajectory.c1[lo:hi]
    spline_r = CubicSpline(knots, c1_knots.real)
    spline_i = CubicSpline(knots, c1_knots.imag)
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


def sideband_oracle(
    params: SystemParams,
    bare_detunings: tuple[float, float],
    omega: float,
    initial_state=None,
    t_end: float | None = None,
    eps_p_scale: float = 1.0,
) -> DemodulationResult:
    """The oracle's sideband measurement: integrate to `t_end`, demodulate its last beat periods.

    `t_end` defaults to `default_t_end`; the window is the last
    WINDOW_PERIODS beat periods 2*pi/omega before it, and the integration
    records from the window's start, so only the window and its spline
    margins are held.  The other arguments are those of
    `integrate_mean_field`.
    """
    if t_end is None:
        t_end = default_t_end(params)
    window = (t_end - WINDOW_PERIODS * 2.0 * math.pi / omega, t_end)
    traj = integrate_mean_field(params, bare_detunings, initial_state, t_end, omega,
                                eps_p_scale=eps_p_scale, t_record=window[0])
    return demodulate(traj, omega, window)


def transmission_oracle(
    params: SystemParams,
    bare_detunings: tuple[float, float],
    omega: float,
    t_end: float | None = None,
    initial_state=None,
) -> float:
    """End-to-end oracle transmission: `sideband_oracle`'s c1+ through the output relation.

    With both drives on, fixed bare detunings can admit a dark root that a
    vacuum start relaxes to; pass the intended operating point as
    `initial_state` to probe a specific branch.
    """
    demod = sideband_oracle(params, bare_detunings, omega, initial_state, t_end)
    return transmission(params, demod.c1_plus_est)
