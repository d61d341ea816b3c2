"""Brute-force validation path: full nonlinear time-domain integration.

Integrates the mean-value equations exactly as written, with the probe
term and every nonlinear product retained, from bare detunings (the
effective ones must come out, not go in).  A lock-in style projection of
the settled tail onto {1, e^{-i*Omega*t}, e^{+i*Omega*t}} then extracts
the dc amplitude and the two probe sidebands independently of any
linearization; `sideband_oracle` is that measurement, integration and
window rule in one place.

The equations are written once, in `_mean_field_rhs`, and integrated by
scipy's `odeint`: LSODA (Hindmarsh, ODEPACK (1983); Petzold, SIAM J. Sci.
Stat. Comput. 4, 136 (1983)), compiled code that switches between Adams
and BDF methods, so Python runs only the right-hand side.  LSODA returns
the state at the requested times by interpolating within its own steps,
so `sideband_oracle` asks for t = 0 and the demodulation grid only: the
last `WINDOW_PERIODS` beat periods before `t_end`, `SAMPLES_PER_PERIOD`
uniform samples per period.  Nothing is resampled, the memory does not
grow with `t_end`, and scipy is imported inside `_lsoda` alone,
so no other command loads it.

The result is held to tolerances, not bits: LSODA is not promised to be
bit-identical across scipy versions, and the earlier in-package
Dormand-Prince 5(4) stepper, which took scipy RK45's steps bit for bit,
is gone.  On `oracle_check.json` at Q = 2e3 the demodulated c1+ at the
default tolerance lies within 5.5e-7 (relative) of an rtol = 1e-13 run,
and `validate -n 1` (x = -fwhm) deviates from the linearized response by
4.7e-7; the 9.1e-6 that the stepper printed there at rtol = 1e-10 was
almost all integration error.

This path is expensive: the mechanical damping time 1/gamma_phi is the
slow scale (tens of ms at the default quality factor), so structural
checks run with a lowered Q_phi.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import PoorFit, StepSizeUnderflow, WindowTooShort
from .params import SystemParams
from .response import transmission

# LSODA's error is not monotone in the tolerance: the `validate -n 1`
# deviation reads 3.3e-5 at 1e-10 and 2.5e-5 at 3e-11, but 5.1e-7 at 1e-11
# and 4.7e-7 at 1e-12, for 1.4 % more right-hand-side calls than at 1e-11
DEFAULT_TOL = 1e-12
POOR_FIT_THRESHOLD = 1e-2
MIN_PERIODS = 10
SAMPLES_PER_PERIOD = 32
WINDOW_PERIODS = 21  # beat periods before t_end that `sideband_oracle` demodulates
_STEPS_PER_RATE = 1000.0  # LSODA steps allowed per unit of 1 + rate * t_end, see `_lsoda`
_MIN_RTOL = 100 * np.finfo(float).eps  # LSODA refuses the oracle's tolerances at rtol = 1e-14
_SUCCESS = "Integration successful."


@dataclass(frozen=True)
class Trajectory:
    """The state at the requested times; `stats` holds LSODA's counters for the whole run."""

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


def window_times(omega: float, t_end: float, periods: int = WINDOW_PERIODS) -> np.ndarray:
    """The demodulation grid: `periods` beat periods 2*pi/omega up to `t_end`.

    `SAMPLES_PER_PERIOD` uniform samples per period, the last at `t_end`,
    so the grid covers whole periods and a longer grid ending at the same
    `t_end` contains it sample for sample.
    """
    k = np.arange(periods * SAMPLES_PER_PERIOD - 1, -1, -1)
    return t_end - k * (2.0 * math.pi / omega / SAMPLES_PER_PERIOD)


def _mean_field_rhs(equations):
    """The mean-value equations as `odeint`'s right-hand side f(y, t).

    `equations` holds (Delta_c1, Delta_c2, kappa1, kappa2, g1, g2, eps1,
    eps2, eps_p, gamma_phi, omega_phi^2, hbar/I, Omega), and the state y is
    (Re c1, Im c1, Re c2, Im c2, phi, dphi/dt):

        dc1/dt = -(kappa1 + i(Delta_c1 + g1*phi)) c1 + eps1 + eps_p e^{-i Omega t}
        dc2/dt = -(kappa2 + i(Delta_c2 - g2*phi)) c2 + eps2
        d2phi/dt2 = -gamma_phi dphi/dt - omega_phi^2 phi - (hbar/I)(g1|c1|^2 - g2|c2|^2)

    The state is unpacked into Python floats, which is faster than numpy
    scalar arithmetic for six components, and squared as x * x, not x**2,
    so a blowup gives inf instead of OverflowError.
    """
    dc1, dc2, k1, k2, g1, g2, eps1, eps2, ep, gam, om2, hbar_i, omp = equations
    cos, sin = math.cos, math.sin

    def rhs(y, t):
        c1r, c1i, c2r, c2i, phi, phid = y.tolist()
        d1 = dc1 + g1 * phi
        d2 = dc2 - g2 * phi
        wt = omp * t
        torque = hbar_i * (g1 * (c1r * c1r + c1i * c1i) - g2 * (c2r * c2r + c2i * c2i))
        return (-k1 * c1r + d1 * c1i + eps1 + ep * cos(wt),
                -k1 * c1i - d1 * c1r - ep * sin(wt),
                -k2 * c2r + d2 * c2i + eps2,
                -k2 * c2i - d2 * c2r,
                phid,
                -gam * phid - om2 * phi - torque)

    return rhs


def _lsoda(equations, y_start, times, rtol, atol):
    """Integrate `_mean_field_rhs(equations)` from y_start at times[0] = 0 with LSODA.

    Returns (states, info): the states at `times` as rows of six, and
    `odeint`'s info dict (cumulative counters per output time).

    LSODA takes at most

        mxstep = 1000 * (1 + rate * t_end),
        rate = max(kappa1 + |Delta_c1|, kappa2 + |Delta_c2|,
                   gamma_phi + omega_phi, |Omega|),

    steps per output interval, with `rate` the fastest rate of the
    uncoupled equations and the probe; the first interval, from 0 to the
    demodulation window, holds nearly all steps.  `validate` takes about
    5 steps per unit of 1 + rate * t_end, so the bound leaves 200x headroom.

    Raises StepSizeUnderflow, with `t_divergence` LSODA's last time, on
    every failure LSODA reports (the step bound among them) and on a
    non-finite state, which a NaN right-hand side yields under a
    successful return.  No `ODEintWarning` escapes.
    """
    from scipy.integrate import ODEintWarning, odeint  # the package's only scipy use

    dc1, dc2, k1, k2, *_, gam, om2, _, omp = equations
    rate = max(k1 + abs(dc1), k2 + abs(dc2), gam + math.sqrt(om2), abs(omp))
    t_end = times[-1]
    # min keeps the C int's range and picks the cap for a NaN rate
    mxstep = int(min(2**31 - 1, _STEPS_PER_RATE * (1.0 + rate * t_end)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ODEintWarning)  # every failure is raised below
        states, info = odeint(_mean_field_rhs(equations), np.asarray(y_start, dtype=float), times,
                              rtol=rtol, atol=atol, mxstep=mxstep, full_output=True)
    # odeint stops at the first failing interval and leaves the entries after it
    # unset; up to it every interval reached its output time with a finite state
    good = np.isfinite(states[1:]).all(axis=1) & (info["tcur"] >= times[1:])
    if info["message"] != _SUCCESS or not good.all():
        k = int(np.argmin(good))
        t_stop = float(info["tcur"][k])
        reason = info["message"] if info["message"] != _SUCCESS else "the state is not finite"
        raise StepSizeUnderflow(
            f"integration stopped at t = {t_stop:.6e} s of {t_end:.6e} s: {reason} "
            f"(LSODA, at most {mxstep} steps per output interval)",
            t_divergence=t_stop,
        )
    return states, info


def integrate_mean_field(
    params: SystemParams,
    bare_detunings: tuple[float, float],
    initial_state,
    times,
    omega_probe: float,
    tol: float = DEFAULT_TOL,
    eps_p_scale: float = 1.0,
) -> Trajectory:
    """LSODA integration of the coupled mean-value equations, sampled at `times`.

    The state is six real floats (Re/Im c1, Re/Im c2, phi, dphi/dt),
    integrated from `initial_state` at t = 0 with rtol = `tol` and a
    per-component atol of `tol` times the component's drive-set scale.

    Parameters
    ----------
    bare_detunings : (Delta_c1, Delta_c2)
        Bare cavity-drive detunings; the oracle never consumes effective ones.
    initial_state : (c1, c2, phi, phi_dot) or None for the undriven vacuum.
    times : array of float
        Sample times in s, finite and strictly increasing, the first at
        least 0 and the last above 0; t = 0 is the start either way.
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
        a non-finite initial state, `omega_probe` or `eps_p_scale`, or
        `times` not as described.
    StepSizeUnderflow
        stiff blowup, or LSODA's step bound (see `_lsoda`); carries the
        time reached.
    """
    times = np.asarray(times, dtype=float)
    if not (times.ndim == 1 and times.size and np.all(np.isfinite(times)) and times[0] >= 0.0
            and times[-1] > 0.0 and np.all(np.diff(times) > 0)):
        raise ValueError("times must be finite and strictly increasing, from 0 on, with the last "
                         f"(t_end) positive; got {times!r}")
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
    scales = (amp1, amp1, amp2, amp2, phi_scale, phi_scale * math.sqrt(om2))
    floors = (1e-6, 1e-6, 1e-6, 1e-6, 1e-15, 1e-9)
    atol = tuple(tol * max(s, f) for s, f in zip(scales, floors))
    rtol = tol
    if rtol < _MIN_RTOL:
        warnings.warn(f"tol {tol:g} is below 100 * machine epsilon; using rtol = {_MIN_RTOL:g}",
                      stacklevel=2)
        rtol = _MIN_RTOL
    from_zero = times if times[0] == 0.0 else np.concatenate(([0.0], times))
    states, info = _lsoda(equations, y0, from_zero, rtol, atol)
    ys = states[len(from_zero) - len(times):]
    return Trajectory(
        times=times,
        c1=ys[:, 0] + 1j * ys[:, 1],
        c2=ys[:, 2] + 1j * ys[:, 3],
        phi=ys[:, 4].copy(),
        phi_dot=ys[:, 5].copy(),
        stats={
            "steps": int(info["nst"][-1]),
            "nfev": int(info["nfe"][-1]),
            "methods": sorted({1: "adams", 2: "bdf"}[int(m)] for m in set(info["mused"])),
            "rtol": rtol,
            "atol": list(atol),
        },
    )


def demodulate(times, c1, omega: float) -> DemodulationResult:
    """Project the samples c1(times) onto {1, e^{-i*omega*t}, e^{+i*omega*t}} by least squares.

    The samples are used as given, with no resampling; uniform samples over
    whole beat periods (`window_times`) make the three basis functions
    orthogonal.  Each sample counts for one sample spacing, and together
    they must cover at least 10 beat periods.

    Raises
    ------
    ValueError
        a demodulation frequency that is not positive.
    WindowTooShort
        samples covering fewer than 10 beat periods.
    PoorFit
        relative residual above 1e-2: higher harmonics present, probe too strong.
    """
    if not omega > 0:
        raise ValueError("demodulation frequency must be positive")
    ts = np.asarray(times, dtype=float)
    c1 = np.asarray(c1, dtype=complex)
    n = len(ts)
    covered = (ts[-1] - ts[0]) * n / (n - 1) * omega / (2.0 * math.pi) if n > 1 else 0.0
    if not covered >= MIN_PERIODS * (1.0 - 1e-9):  # rounding of a whole-period grid
        raise WindowTooShort(
            f"samples cover {covered:.4g} beat periods, need at least {MIN_PERIODS}"
        )
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

    `t_end` defaults to `default_t_end`; the state is sampled only on
    `window_times(omega, t_end)`, the last WINDOW_PERIODS beat periods
    2*pi/omega, and demodulated there.  The other arguments are those of
    `integrate_mean_field`.
    """
    if t_end is None:
        t_end = default_t_end(params)
    traj = integrate_mean_field(params, bare_detunings, initial_state, window_times(omega, t_end),
                                omega, eps_p_scale=eps_p_scale)
    return demodulate(traj.times, traj.c1, omega)


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
