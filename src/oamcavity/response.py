"""First-order sideband response of the system to the weak probe.

Substituting delta_O = O_+ e^{-i*Omega*t} + O_- e^{+i*Omega*t} into the
linearized fluctuation equations (quadratic fluctuation products dropped)
and collecting both harmonics closes a complex linear system in

    (c1+, c1-*, c2+, c2-*, phi+, phi-*)

with the probe drive entering only the c1+ row.  The two mechanical rows
are conjugate images of one another, so phi_- = conj(phi_+) must emerge
from the solve; it is returned and checked rather than assumed.

The hot path, `c1_plus_many`, eliminates the system exactly onto phi+
(O(1) arithmetic per detuning); every T evaluation goes through it, via
`transmission_many` or `transmission_at`.  The six-amplitude LU
`sideband_response` is the reference: `validate` compares the oracle's
c1+ with it, and the tests compare the kernel with it and check its phi_-.
The closed-form single-amplitude expression (D1..D4 form) is a third,
independent cross-check of c1+ only.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DipTooShallow, SingularSystem
from .params import SystemParams, Violation
from .steady import SteadyState

_log = logging.getLogger(__name__)

#: relative singularity test: |det| against the row-norm product in the
#: reference solve, |den| against |mech| + |s1| + |s2| in the kernel
DET_THRESHOLD = 1e-30
#: T above this is flagged (not raised) as probe gain
GAIN_FLOOR = 1.0 + 1e-6
#: fixed-point steps allowed for the dressed pole; the shipped configs need 3 or 4 (40 without a valley)
POLE_STEPS = 64


@dataclass(frozen=True)
class ProbeResponse:
    """Sideband amplitudes at one probe-drive detuning Omega."""

    omega: float
    c1_plus: complex
    c1_minus_conj: complex
    c2_plus: complex
    c2_minus_conj: complex
    phi_plus: complex
    phi_minus_conj: complex
    condition_estimate: float


def _system_matrix(params: SystemParams, steady: SteadyState, omega: float):
    k1, k2 = params.kappa1, params.kappa2
    g1, g2 = params.g1, params.g2
    d1, d2 = steady.delta1, steady.delta2
    c1s, c2s = steady.c1, steady.c2
    hg1 = params.hbar * g1 / params.inertia
    hg2 = params.hbar * g2 / params.inertia
    mech = params.omega_phi**2 - omega**2 - 1j * params.gamma_phi * omega

    a = np.zeros((6, 6), dtype=complex)
    b = np.zeros(6, dtype=complex)
    # c1+ row (probe drive lives here)
    a[0, 0] = k1 + 1j * (d1 - omega)
    a[0, 4] = 1j * g1 * c1s
    b[0] = params.eps_p
    # conj of the c1- row
    a[1, 1] = k1 - 1j * (d1 + omega)
    a[1, 5] = -1j * g1 * np.conj(c1s)
    # c2+ row
    a[2, 2] = k2 + 1j * (d2 - omega)
    a[2, 4] = -1j * g2 * c2s
    # conj of the c2- row
    a[3, 3] = k2 - 1j * (d2 + omega)
    a[3, 5] = 1j * g2 * np.conj(c2s)
    # mechanical rows: e^{-i Omega t} harmonic, then the conjugated e^{+i Omega t} one
    for row, phicol in ((4, 4), (5, 5)):
        a[row, 0] = hg1 * np.conj(c1s)
        a[row, 1] = hg1 * c1s
        a[row, 2] = -hg2 * np.conj(c2s)
        a[row, 3] = -hg2 * c2s
        a[row, phicol] = mech
    return a, b


def sideband_response(params: SystemParams, steady: SteadyState, omega: float) -> ProbeResponse:
    """Solve the sideband system at probe-drive detuning Omega.

    Partial-pivot LU on the row/column-equilibrated matrix, one step of
    iterative refinement.  A conditioning estimate of the equilibrated
    system is returned for diagnostics.

    Raises
    ------
    SingularSystem
        when the equilibrated determinant falls below 1e-30 of the
        row-norm product (a parametric-instability point).
    """
    if not math.isfinite(omega):
        raise ValueError(f"probe detuning must be finite, got {omega!r}")
    a, b = _system_matrix(params, steady, omega)

    # equilibrate with powers of two (exact in binary floating point)
    row_norm = np.max(np.abs(a), axis=1)
    row_scale = np.exp2(-np.round(np.log2(np.where(row_norm > 0, row_norm, 1.0))))
    a_s = a * row_scale[:, None]
    col_norm = np.max(np.abs(a_s), axis=0)
    col_scale = np.exp2(-np.round(np.log2(np.where(col_norm > 0, col_norm, 1.0))))
    a_s = a_s * col_scale[None, :]
    b_s = b * row_scale

    sign, logdet = np.linalg.slogdet(a_s)
    rownorms = np.max(np.abs(a_s), axis=1)
    log_thresh = math.log(DET_THRESHOLD) + float(np.sum(np.log(np.where(rownorms > 0, rownorms, 1.0))))
    if sign == 0 or logdet < log_thresh:
        raise SingularSystem(
            f"sideband system singular at Omega = {omega:.6e} rad/s "
            f"(log|det| = {logdet:.2f} below threshold {log_thresh:.2f})"
        )

    y = np.linalg.solve(a_s, b_s)
    y += np.linalg.solve(a_s, b_s - a_s @ y)  # one refinement step
    u = y * col_scale

    cond = float(np.linalg.cond(a_s))
    return ProbeResponse(
        omega=omega,
        c1_plus=complex(u[0]),
        c1_minus_conj=complex(u[1]),
        c2_plus=complex(u[2]),
        c2_minus_conj=complex(u[3]),
        phi_plus=complex(u[4]),
        phi_minus_conj=complex(u[5]),
        condition_estimate=cond,
    )


def closed_form_c1p(params: SystemParams, steady: SteadyState, omega: float) -> complex:
    """Closed-form c1+ (cross-check only; the linear solve is authoritative).

    Intracavity photon numbers are read as N1 = |c1s|^2, N2 = |c2s|^2 and
    the inertia factor as the mirror's moment of inertia; this reading is
    validated against `sideband_response` by the test suite.
    """
    k1, k2 = params.kappa1, params.kappa2
    d1, d2 = steady.delta1, steady.delta2
    n1, n2 = steady.n1, steady.n2
    g1s = params.g1**2
    g2s = params.g2**2
    hbar = params.hbar
    inertia = params.inertia

    p1 = d1**2 + (k1 - 1j * omega) ** 2
    p2 = d2**2 + (k2 - 1j * omega) ** 2
    mech = omega**2 - params.omega_phi**2 + 1j * params.gamma_phi * omega
    d1f = (d1 + omega + 1j * k1) / p2
    d2f = (d1 + omega + 1j * k1) * mech
    d3f = p1 / p2
    d4f = p1 * mech

    num = n1 * g1s * hbar + 2.0 * n2 * d2 * g2s * hbar * d1f + inertia * d2f
    den = 2.0 * n1 * d1 * g1s * hbar + 2.0 * n2 * d2 * g2s * hbar * d3f + inertia * d4f
    scale = abs(2.0 * n1 * d1 * g1s * hbar) + abs(2.0 * n2 * d2 * g2s * hbar * d3f) + abs(inertia * d4f)
    if abs(den) <= DET_THRESHOLD * max(scale, 1.0):
        raise SingularSystem(f"closed-form denominator vanished at Omega = {omega:.6e} rad/s")
    return -1j * params.eps_p * num / den


def probe_amplitude(params: SystemParams) -> float:
    """eps_p; raises ConfigError naming probe_power unless it is positive (no probe, no T)."""
    if not params.eps_p > 0:
        raise ConfigError([Violation(
            "probe_power", f"must be positive to measure the transmission, got {params.config.probe_power!r}"
        )])
    return params.eps_p


def transmission(params: SystemParams, c1_plus):
    """Probe transmission T = |1 - 2*kappa1*c1+/eps_p|^2 for one c1+ or an array.

    The package's only output relation.  Independent of the absolute probe
    scale because c1+ is proportional to eps_p in the linearized regime.
    """
    ts = np.abs(1.0 - 2.0 * params.kappa1 * c1_plus / probe_amplitude(params)) ** 2
    n_gain = int(np.count_nonzero(ts > GAIN_FLOOR))
    if n_gain:
        _log.info("probe gain regime at %d of %d detunings (max T = %.6e)",
                  n_gain, np.size(ts), float(np.max(ts)))
    return ts if isinstance(ts, np.ndarray) else float(ts)


def transmission_at(params: SystemParams, steady: SteadyState, omega: float) -> float:
    """T at one Omega, through the same kernel as `transmission_many`."""
    if not math.isfinite(omega):
        raise ValueError(f"probe detuning must be finite, got {omega!r}")
    return float(transmission_many(params, steady, np.array([omega]))[0])


def _optical_terms(params: SystemParams, steady: SteadyState, iw):
    """(a1, s1, s2) of `c1_plus_many` at i*Omega = iw, a scalar or an array."""
    g1, g2 = params.g1, params.g2
    d1, d2 = steady.delta1, steady.delta2
    hg1 = params.hbar * g1 / params.inertia
    hg2 = params.hbar * g2 / params.inertia
    # scalar coefficients first, so each array term costs one or two ufuncs
    a1 = params.kappa1 + 1j * d1 - iw
    b1 = params.kappa1 - 1j * d1 - iw
    a2 = params.kappa2 + 1j * d2 - iw
    b2 = params.kappa2 - 1j * d2 - iw
    s1 = -2.0 * hg1 * g1 * abs(steady.c1) ** 2 * d1 / (a1 * b1)
    s2 = -2.0 * hg2 * g2 * abs(steady.c2) ** 2 * d2 / (a2 * b2)
    return a1, s1, s2


def c1_plus_many(params: SystemParams, steady: SteadyState, omegas) -> np.ndarray:
    """c1+ over many probe detunings: the sideband system eliminated onto phi+.

    Each cavity row couples only to its own amplitude and to phi, and the
    two mechanical rows differ only in their phi column, so with
    a_i = kappa_i + i(Delta_i - Omega), b_i = kappa_i - i(Delta_i + Omega)
    the mechanical row closes on phi+ alone:

        phi+ = -hg1*conj(c1s)*eps_p / (a1*den),  den = mech + s1 + s2,
        s_i  = i*hg_i*g_i*N_i*(1/b_i - 1/a_i) = -2*hg_i*g_i*N_i*Delta_i/(a_i*b_i),

    and c1+ = (eps_p - i*g1*c1s*phi+)/a1.  O(1) arithmetic per detuning.

    Raises SingularSystem when Delta_i^2 or g_i*N_i*Delta_i overflows, or
    naming the first detuning where |den| > DET_THRESHOLD*(|mech| + |s1| +
    |s2|) fails (an overflowing or NaN den included).
    """
    omegas = np.asarray(omegas, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        for i, g, n, d in ((1, params.g1, steady.n1, steady.delta1), (2, params.g2, steady.n2, steady.delta2)):
            if not (math.isfinite(d * d) and math.isfinite(g * n * d)):
                raise SingularSystem(f"optical spring of cavity {i} overflows: Delta_{i}^2 = {d * d:.6e}, "
                                     f"g_{i}*N_{i}*Delta_{i} = {g * n * d:.6e}")
        iw = 1j * omegas
        mech = params.omega_phi**2 + iw * (iw - params.gamma_phi)
        a1, s1, s2 = _optical_terms(params, steady, iw)
        den = mech + s1 + s2
        ok = np.abs(den) > DET_THRESHOLD * (np.abs(mech) + np.abs(s1) + np.abs(s2))
    if not ok.all():
        i = int(np.argmin(ok))
        raise SingularSystem(
            f"sideband system singular at Omega = {omegas[i]:.6e} rad/s"
        )

    g1, c1s = params.g1, steady.c1
    hg1 = params.hbar * g1 / params.inertia
    phi_p = -hg1 * c1s.conjugate() * params.eps_p / (a1 * den)
    return (params.eps_p - 1j * g1 * c1s * phi_p) / a1


def dressed_mode(params: SystemParams, steady: SteadyState) -> tuple[float, float]:
    """(x_m, width): the dressed mechanical pole Omega_m, the root of den(Omega) = 0 near omega_phi.

    den = omega_phi^2 - Omega^2 - i*gamma_phi*Omega + s1 + s2 is the kernel's
    denominator, the mechanics with the optical spring and optical damping
    of both cavities (Aspelmeyer, Kippenberg & Marquardt, RMP 86, 1391
    (2014)).  Iterates Omega <- sqrt(omega_phi^2 - i*gamma_phi*Omega + s1 + s2)
    from omega_phi until a step changes Omega by rounding only.  Returns
    x_m = Re(Omega_m)/omega_phi - 1 and width = 2|Im Omega_m|/omega_phi.

    Raises DipTooShallow when an iterate is not finite or the iteration
    has not settled after POLE_STEPS steps.
    """
    omega_phi = params.omega_phi
    omega = complex(omega_phi)
    for step in range(1, POLE_STEPS + 1):
        _, s1, s2 = _optical_terms(params, steady, 1j * omega)
        new = complex(np.sqrt(omega_phi**2 - 1j * params.gamma_phi * omega + s1 + s2))
        if not math.isfinite(abs(new)):
            break
        if abs(new - omega) <= 4e-16 * abs(new):  # two ulps
            return new.real / omega_phi - 1.0, 2.0 * abs(new.imag) / omega_phi
        omega = new
    raise DipTooShallow(f"dressed mechanical pole not settled after {step} of {POLE_STEPS} steps "
                        f"(iterate {new:.6e})")


def transmission_many(params: SystemParams, steady: SteadyState, omegas) -> np.ndarray:
    """Vectorized T(Omega): the eliminated kernel's c1+ through `transmission`."""
    return transmission(params, c1_plus_many(params, steady, omegas))
