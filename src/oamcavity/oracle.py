"""Brute-force validation path: full nonlinear time-domain integration.

Integrates the mean-value equations exactly as written, with the probe
term and every nonlinear product retained, from bare detunings (the
effective ones must come out, not go in).  A lock-in style projection of
the probe-periodic orbit onto {1, e^{-i*Omega*t}, e^{+i*Omega*t}} then
extracts the dc amplitude and the two probe sidebands independently of
any linearization; `sideband_oracle` is that measurement, orbit, window
and lock-in in one place.

The orbit is found by shooting, not by waiting for the start-up
transient to die away.  The probe makes the equations T-periodic,
T = 2*pi/Omega, and `periodic_orbit` solves y(T) = y by Newton's method
on the period map (Seydel, Practical Bifurcation and Stability Analysis,
Springer 2010, ch. 7).  One LSODA run over one period integrates the
state together with its sensitivity to the start, which gives y(T) and
the monodromy matrix M; `_mean_field_jacobian` states the Jacobian the
sensitivity needs.  The eigenvalues of M are the orbit's Floquet
multipliers: an orbit with max |mu| >= 1 repels nearby states, no
time-domain run would settle on it, and the oracle refuses it with
NoConvergence.  The window is then `WINDOW_PERIODS` periods integrated
from the orbit state, `SAMPLES_PER_PERIOD` uniform samples per period,
as LSODA interpolates them within its own steps.

The equations are written once, in `_mean_field_rhs`, and integrated by
scipy's `odeint`: LSODA (Hindmarsh, ODEPACK (1983); Petzold, SIAM J. Sci.
Stat. Comput. 4, 136 (1983)), compiled code that switches between Adams
and BDF methods, so Python runs only the right-hand side.  scipy is
imported inside `_lsoda` alone, so no other command loads it.

The result is held to tolerances, not bits: LSODA is not promised to be
bit-identical across scipy versions.  On `oracle_check.json` at Q = 2e3
each of the five criterion-7 probes takes 3 Newton steps (at x = 0,
three one-period runs of 215 LSODA steps each, then a 21-period window
of 1150 steps), against 6366 periods and about 610 000 right-hand-side
calls for the 20 damping times that the previous rule integrated.  The
shooting c1+ lies within 5.9e-7 (relative) of that rule and within
1.2e-7 of an rtol = 1e-13 shooting run; `validate -n 1` (x = -fwhm)
deviates from the linearized response by 1.07e-7 (4.7e-7 under the
previous rule), and max |mu| = 0.99842892 agrees with the dressed
mechanical pole's exp(-pi*width*omega_phi/Omega) to 7e-9.  At high Q a resonant probe
drives the mechanics far into the nonlinear regime, and Newton need not
converge: at Q = 2e5 a probe of 1e-3 * eps1 at x = 0 ends in
NoConvergence after NEWTON_STEPS steps, while 1e-4 * eps1 converges.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import NoConvergence, PoorFit, StepSizeUnderflow, WindowTooShort
from .params import SystemParams
from .response import transmission

# LSODA's error is not monotone in the tolerance: the `validate -n 1`
# deviation reads 3.3e-5 at 1e-10 and 2.5e-5 at 3e-11, but 5.1e-7 at 1e-11
# and 4.7e-7 at 1e-12, for 1.4 % more right-hand-side calls than at 1e-11
DEFAULT_TOL = 1e-12
POOR_FIT_THRESHOLD = 1e-2
MIN_PERIODS = 10
SAMPLES_PER_PERIOD = 32
WINDOW_PERIODS = 21  # beat periods of the periodic orbit that `sideband_oracle` demodulates
NEWTON_STEPS = 20  # cap on `periodic_orbit`'s Newton steps
NEWTON_TOL = 1e3  # `periodic_orbit` stops at a scaled step of NEWTON_TOL * rtol
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
    orbit_state: tuple | None = None  # set by `sideband_oracle`: the periodic orbit at t = 0
    max_multiplier: float | None = None  # set by `sideband_oracle`: its largest |Floquet multiplier|


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


def _mean_field_jacobian(equations):
    """The 6x6 Jacobian d f / d y of `_mean_field_rhs(equations)`, as J(y, t).

    Only the detunings Delta_c1 + g1*phi and Delta_c2 - g2*phi and the
    torque are nonlinear, so J depends on y through the two fields and phi
    alone, and not on t: the probe term is additive.
    """
    dc1, dc2, k1, k2, g1, g2, *_, gam, om2, hbar_i, _ = equations
    t1, t2 = 2.0 * hbar_i * g1, 2.0 * hbar_i * g2

    def jac(y, t):
        c1r, c1i, c2r, c2i, phi, _ = y.tolist()
        d1 = dc1 + g1 * phi
        d2 = dc2 - g2 * phi
        return np.array(((-k1, d1, 0.0, 0.0, g1 * c1i, 0.0),
                         (-d1, -k1, 0.0, 0.0, -g1 * c1r, 0.0),
                         (0.0, 0.0, -k2, d2, -g2 * c2i, 0.0),
                         (0.0, 0.0, -d2, -k2, g2 * c2r, 0.0),
                         (0.0, 0.0, 0.0, 0.0, 0.0, 1.0),
                         (-t1 * c1r, -t1 * c1i, t2 * c2r, t2 * c2i, -om2, -gam)))

    return jac


def _sensitivity_rhs(equations, scales):
    """The state and its scaled sensitivity P = S^-1 (dy/dy0) S, S = diag(scales), as 42 states.

    dP/dt = S^-1 J S P, so P starts at the identity and is dimensionless.
    """
    rhs, jac = _mean_field_rhs(equations), _mean_field_jacobian(equations)
    s = np.asarray(scales, dtype=float)
    similar = s[None, :] / s[:, None]  # S^-1 J S, elementwise

    def rhs42(w, t):
        y = w[:6]
        return np.concatenate((rhs(y, t), ((jac(y, t) * similar) @ w[6:].reshape(6, 6)).ravel()))

    return rhs42


def _lsoda(equations, y_start, times, rtol, atol, scales=None):
    """Integrate `_mean_field_rhs(equations)` from y_start at times[0] = 0 with LSODA.

    Returns (states, info): the states at `times` as rows of six, and
    `odeint`'s info dict (cumulative counters per output time).  With
    `scales`, the right-hand side is `_sensitivity_rhs(equations, scales)`
    and y_start, atol and the rows hold 42 components.

    LSODA takes at most

        mxstep = 1000 * (1 + rate * t_end),
        rate = max(kappa1 + |Delta_c1|, kappa2 + |Delta_c2|,
                   gamma_phi + omega_phi, |Omega|),

    steps per output interval, with `rate` the fastest rate of the
    uncoupled equations and the probe.  `validate` takes about 18 steps per
    unit of 1 + rate * t_end on a one-period sensitivity run and 5 on its
    21-period window, so the bound leaves 50x headroom or more.

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
        rhs = _mean_field_rhs(equations) if scales is None else _sensitivity_rhs(equations, scales)
        states, info = odeint(rhs, np.asarray(y_start, dtype=float), times,
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


def _equations(params: SystemParams, bare_detunings, omega_probe: float, eps_p_scale: float):
    """(equations, scales): `_mean_field_rhs`'s constants and the drive-set scale of each component.

    atol is tol times the scale; the scales also make the monodromy matrix
    dimensionless (see `_period_map`).
    """
    dc1, dc2 = bare_detunings
    k1, k2 = params.kappa1, params.kappa2
    g1, g2 = params.g1, params.g2
    e1, e2 = params.eps1, params.eps2
    ep = eps_p_scale * params.eps_p
    om2 = params.omega_phi**2
    equations = (dc1, dc2, k1, k2, g1, g2, e1, e2, ep, params.gamma_phi, om2,
                 params.hbar / params.inertia, omega_probe)
    amp1 = (e1 + ep) / k1
    amp2 = e2 / k2
    phi_scale = params.hbar * (abs(g1) * amp1**2 + abs(g2) * amp2**2) / (params.inertia * om2)
    scales = (amp1, amp1, amp2, amp2, phi_scale, phi_scale * math.sqrt(om2))
    floors = (1e-6, 1e-6, 1e-6, 1e-6, 1e-15, 1e-9)
    return equations, tuple(max(s, f) for s, f in zip(scales, floors))


def _rtol(tol: float) -> float:
    """`tol`, raised to 100 * machine epsilon with a `UserWarning` (LSODA refuses less)."""
    if tol < _MIN_RTOL:
        warnings.warn(f"tol {tol:g} is below 100 * machine epsilon; using rtol = {_MIN_RTOL:g}",
                      stacklevel=3)
        return _MIN_RTOL
    return tol


def _state_vector(initial_state, omega_probe: float, eps_p_scale: float) -> tuple:
    """(c1, c2, phi, phi_dot), or None for the vacuum, as the six real components of y."""
    if initial_state is None:
        y0 = (0.0,) * 6
    else:
        c1_0, c2_0, phi_0, phid_0 = initial_state
        y0 = tuple(float(v) for v in (c1_0.real, c1_0.imag, c2_0.real, c2_0.imag, phi_0, phid_0))
    if not all(math.isfinite(v) for v in (*y0, omega_probe, eps_p_scale)):
        raise ValueError("the initial state, omega_probe and eps_p_scale must be finite")
    return y0


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
    equations, scales = _equations(params, bare_detunings, omega_probe, eps_p_scale)
    y0 = _state_vector(initial_state, omega_probe, eps_p_scale)
    atol = tuple(tol * s for s in scales)
    rtol = _rtol(tol)
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


def _period_map(equations, y, period: float, rtol: float, scales):
    """(y(T), M): one LSODA run over the period T from y, with the scaled monodromy matrix M.

    M = S^-1 (dy(T)/dy) S, S = diag(scales): the state keeps atol = rtol *
    scales and each entry of M has atol = rtol.
    """
    start = np.concatenate((y, np.eye(6).ravel()))
    atol = (*(rtol * s for s in scales), *(rtol,) * 36)
    states, _ = _lsoda(equations, start, np.array([0.0, period]), rtol, atol, scales)
    return states[-1, :6], states[-1, 6:].reshape(6, 6)


def periodic_orbit(
    params: SystemParams,
    bare_detunings: tuple[float, float],
    omega: float,
    initial_state=None,
    eps_p_scale: float = 1.0,
    tol: float = DEFAULT_TOL,
):
    """(orbit_state, max_multiplier): the 2*pi/omega-periodic orbit of the probe-driven equations.

    Newton shooting on the period map y -> y(T), T = 2*pi/omega (Seydel,
    Practical Bifurcation and Stability Analysis, Springer 2010, ch. 7),
    from `initial_state` (None: the vacuum).  In units of the atol scales
    each step solves (M - I) dz = -(y(T) - y) with the monodromy M of
    `_period_map`, and the orbit is reached when max |dz| <= NEWTON_TOL *
    rtol.  `orbit_state` is (c1, c2, phi, phi_dot) at t = 0 (probe phase
    0) and `max_multiplier` the largest |eigenvalue| of M there, the
    Floquet multiplier that decides whether the orbit attracts.

    Raises
    ------
    ValueError
        a non-finite or non-positive `omega`, or the arguments that
        `integrate_mean_field` refuses.
    NoConvergence
        M or y(T) not finite, M - I singular, no orbit after NEWTON_STEPS
        steps, or an unstable orbit (max |multiplier| >= 1): a time-domain
        run would not settle on it.
    StepSizeUnderflow
        as in `integrate_mean_field`, for one period.
    """
    if not 0.0 < omega < math.inf:
        raise ValueError(f"the probe detuning omega must be finite and positive, got {omega!r}")
    period = 2.0 * math.pi / omega
    equations, scales = _equations(params, bare_detunings, omega, eps_p_scale)
    y = np.array(_state_vector(initial_state, omega, eps_p_scale))
    s = np.array(scales)
    if not np.isfinite(s).all():
        raise NoConvergence(f"periodic orbit: the state scales {scales} are not all finite")
    rtol = _rtol(tol)
    for step in range(1, NEWTON_STEPS + 1):
        y_end, monodromy = _period_map(equations, y, period, rtol, scales)
        if not (np.isfinite(monodromy).all() and np.isfinite(y_end).all()):
            raise NoConvergence(f"periodic orbit: the period map is not finite at Newton step {step}")
        try:
            multiplier = float(np.max(np.abs(np.linalg.eigvals(monodromy))))
            with np.errstate(over="ignore", invalid="ignore"):  # checked below
                dz = np.linalg.solve(monodromy - np.eye(6), (y - y_end) / s)
                y = y + dz * s
        except np.linalg.LinAlgError as err:
            raise NoConvergence(f"periodic orbit: monodromy matrix at Newton step {step}: {err}") from None
        if not np.isfinite(y).all():
            raise NoConvergence(f"periodic orbit: Newton step {step} is not finite (M - I near singular)")
        size = float(np.max(np.abs(dz)))
        if size <= NEWTON_TOL * rtol:
            break
    else:
        raise NoConvergence(f"periodic orbit: scaled Newton step still {size:.3e} after {NEWTON_STEPS} steps")
    if not multiplier < 1.0:
        raise NoConvergence(f"periodic orbit unstable: Floquet multiplier |mu| = {multiplier:.8f} >= 1")
    c1r, c1i, c2r, c2i, phi, phi_dot = y.tolist()
    return (complex(c1r, c1i), complex(c2r, c2i), phi, phi_dot), multiplier


def sideband_oracle(
    params: SystemParams,
    bare_detunings: tuple[float, float],
    omega: float,
    initial_state=None,
    eps_p_scale: float = 1.0,
) -> DemodulationResult:
    """The oracle's sideband measurement: find the probe-periodic orbit, demodulate 21 periods of it.

    `periodic_orbit` from `initial_state`, then `integrate_mean_field` from
    the orbit state over `window_times(omega, WINDOW_PERIODS * T)` and
    `demodulate` there.  The result carries `orbit_state` and
    `max_multiplier`.  The other arguments are those of
    `integrate_mean_field`.
    """
    orbit, multiplier = periodic_orbit(params, bare_detunings, omega, initial_state, eps_p_scale)
    window = window_times(omega, WINDOW_PERIODS * (2.0 * math.pi / omega))
    traj = integrate_mean_field(params, bare_detunings, orbit, window, omega, eps_p_scale=eps_p_scale)
    return replace(demodulate(traj.times, traj.c1, omega), orbit_state=orbit, max_multiplier=multiplier)


def transmission_oracle(
    params: SystemParams,
    bare_detunings: tuple[float, float],
    omega: float,
    initial_state=None,
) -> float:
    """End-to-end oracle transmission: `sideband_oracle`'s c1+ through the output relation.

    With both drives on, fixed bare detunings can admit a dark root that a
    vacuum start relaxes to; pass the intended operating point as
    `initial_state` to probe a specific branch.
    """
    demod = sideband_oracle(params, bare_detunings, omega, initial_state)
    return transmission(params, demod.c1_plus_est)
