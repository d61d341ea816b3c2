"""Self-consistent mean-value steady state of the driven system.

The mirror's static angle obeys the fixed-point relation

    phi_s = hbar*(-g1*N1(phi_s) + g2*N2(phi_s)) / (I*omega_phi^2)

with N_i the intracavity photon numbers at the effective detunings
Delta_1 = Delta_c1 + g1*phi_s and Delta_2 = Delta_c2 - g2*phi_s.  The
Kerr-type feedback through N1 can make this multivalued.  Cleared of its
denominators the relation is a polynomial; all its real roots are reported
and the physical branch is chosen by continuation in drive power.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import Multistable, NoConvergence
from .params import SystemConfig, SystemParams, derive_params

#: residual tolerance: |residual| <= TOL_REL * max(|phi_s|, PHI_FLOOR)
TOL_REL = 1e-6
PHI_FLOOR = 1e-18
#: a polynomial root z counts as real when |Im z| <= _IMAG_TOL*|z|
_IMAG_TOL = 1e-6
_POWER_STEPS = 16


@dataclass(frozen=True)
class SteadyState:
    """One self-consistent operating point.

    phi in rad (the mirror is at rest, so its angular momentum is 0);
    c1/c2 are complex amplitudes in sqrt(photons); delta1/delta2 the
    effective detunings in rad/s; n1/n2 intracavity photon numbers.
    """

    phi: float
    c1: complex
    c2: complex
    delta1: float
    delta2: float
    n1: float
    n2: float
    residual: float
    branch_tag: str  # "selected" | "alternative"


@dataclass(frozen=True)
class SteadySolveReport:
    selected: SteadyState
    all_roots: tuple[SteadyState, ...]
    multistable: bool


def _detuning2_slope(params: SystemParams) -> float:
    """dDelta_2/dphi: -g2 for a bare detuning-2 spec, 0 for an effective one (Delta_2 held)."""
    return -params.g2 if params.detuning2.mode == "bare" else 0.0


def _photon_numbers(params: SystemParams, phi: float, scale: float = 1.0) -> tuple[float, float, float, float]:
    """(N1, N2, Delta1, Delta2) at angle phi with drive powers scaled by `scale`."""
    d1, d2 = effective_detunings(phi, params)
    n1 = scale * params.eps1**2 / (params.kappa1**2 + d1 * d1)
    n2 = scale * params.eps2**2 / (params.kappa2**2 + d2 * d2)
    return n1, n2, d1, d2


def steady_residual(phi: float, params: SystemParams, _scale: float = 1.0) -> float:
    """Fixed-point defect phi - hbar*(-g1*N1(phi) + g2*N2(phi))/(I*omega_phi^2).

    Exposed for testing (phi may be an array); zero at any self-consistent
    root.
    """
    n1, n2, _, _ = _photon_numbers(params, phi, _scale)
    rhs = params.hbar * (-params.g1 * n1 + params.g2 * n2) / (params.inertia * params.omega_phi**2)
    return phi - rhs


def _residual_derivative(phi: float, params: SystemParams, scale: float) -> float:
    n1, n2, d1, d2 = _photon_numbers(params, phi, scale)
    pref = params.hbar / (params.inertia * params.omega_phi**2)
    dn1 = -2.0 * params.g1 * d1 * n1 / (params.kappa1**2 + d1 * d1)
    dn2 = -2.0 * _detuning2_slope(params) * d2 * n2 / (params.kappa2**2 + d2 * d2)
    return 1.0 - pref * (-params.g1 * dn1 + params.g2 * dn2)


def effective_detunings(phi_s: float, params: SystemParams) -> tuple[float, float]:
    """(Delta_c1 + g1*phi_s, Delta_c2 - g2*phi_s): Delta_2 moves with phi_s at `_detuning2_slope`."""
    return params.detuning1 + params.g1 * phi_s, params.detuning2.value + _detuning2_slope(params) * phi_s


def _state_at(params: SystemParams, phi: float, branch_tag: str) -> SteadyState:
    d1, d2 = effective_detunings(phi, params)
    c1 = params.eps1 / complex(params.kappa1, d1)
    c2 = params.eps2 / complex(params.kappa2, d2)
    return SteadyState(
        phi=phi,
        c1=c1,
        c2=c2,
        delta1=d1,
        delta2=d2,
        n1=abs(c1) ** 2,
        n2=abs(c2) ** 2,
        residual=steady_residual(phi, params),
        branch_tag=branch_tag,
    )


def _padded_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Coefficient-wise a + b, the shorter one padded with zeros.

    The polynomials here hold 1-6 coefficients, where numpy.polynomial's
    argument handling costs more than the arithmetic.
    """
    if len(a) < len(b):
        a, b = b, a
    out = a.copy()
    out[: len(b)] += b
    return out


def _polynomial_roots(params: SystemParams, scale: float) -> list[float]:
    """phi at each real root of the fixed point cleared of its denominators.

    With K = I*omega_phi^2, L_i = kappa_i^2 + Delta_i^2 and p_i the drive
    term hbar*g_i*eps_i^2/K, the fixed point is phi*L1*L2 + p1*L2 - p2*L1 = 0,
    solved in z = g*phi/omega_phi with g = g1 (g2 when g1 = 0).  L2 is
    constant for an effective detuning-2 spec, which leaves a cubic whose
    coefficients hold g1 only as g1^2 and g1*g2, so l1 -> -l1 flips phi
    exactly when drive 2 is dark; a bare spec gives at most a quintic.  A
    vanishing p_i takes its L_i (never zero) along.
    """
    w = params.omega_phi
    pull1 = params.hbar * scale * params.g1 * params.eps1**2 / (params.inertia * w**2)
    pull2 = params.hbar * scale * params.g2 * params.eps2**2 / (params.inertia * w**2)
    if pull1 == 0.0 and pull2 == 0.0:
        return [0.0]
    g = params.g1 or params.g2
    sigma = w / g  # phi = sigma*z
    slope2 = _detuning2_slope(params) / g

    def lorentzian(kappa, detuning, slope, pull):  # L/omega_phi^2 as a polynomial in z
        if pull == 0.0:
            return np.ones(1)
        return np.array([(kappa / w) ** 2 + (detuning / w) ** 2, 2.0 * (detuning / w) * slope, slope**2])

    l1 = lorentzian(params.kappa1, params.detuning1, params.g1 / g, pull1)
    l2 = lorentzian(params.kappa2, params.detuning2.value, slope2, pull2)
    drive = _padded_sum(pull1 * l2, -pull2 * l1) / (sigma * w**2)
    # z*l1*l2 + drive; polyroots trims the trailing zero coefficients
    roots = P.polyroots(_padded_sum(np.concatenate(([0.0], np.convolve(l1, l2))), drive))
    return [sigma * float(z.real) for z in roots if abs(z.imag) <= _IMAG_TOL * abs(z)]


def _find_roots(params: SystemParams, scale: float) -> list[float]:
    """All fixed points at drive power fraction `scale`, ascending.

    Each real polynomial root gets one Newton polish on steady_residual and
    counts when its residual then meets TOL_REL; near-identical roots merge.

    Raises
    ------
    NoConvergence
        if no polished root meets the residual tolerance.
    """
    polished = []
    for root in _polynomial_roots(params, scale):
        deriv = _residual_derivative(root, params, scale)
        polished.append(root - steady_residual(root, params, scale) / deriv if deriv != 0.0 else root)
    roots: list[float] = []
    for r in sorted(polished):
        meets = abs(steady_residual(r, params, scale)) <= TOL_REL * max(abs(r), PHI_FLOOR)
        if meets and (not roots or abs(r - roots[-1]) > 1e-9 * max(abs(r), PHI_FLOOR)):
            roots.append(r)
    if not roots:
        raise NoConvergence(
            f"no polynomial root met the residual tolerance at power fraction {scale:g}"
            + ("" if polished else " (the polynomial has no real root)"),
            window=(min(polished), max(polished)) if polished else None,
        )
    return roots


def solve_steady(params: SystemParams) -> SteadySolveReport:
    """Solve the steady state, report all coexisting roots, flag multistability.

    The selected root is the one continuously connected to phi_s = 0 at zero
    drive power: a lone root, or else the root tracked nearest-first while
    the drive powers ramp from ~0 to full in geometric steps.

    Raises
    ------
    NoConvergence
        if no root meets the residual tolerance at some drive power fraction.
    """
    roots = _find_roots(params, 1.0)
    tracked = roots[0]
    if len(roots) > 1:  # continuation in total drive power, geometric steps ending at 1
        tracked = 0.0
        for k in range(1 - _POWER_STEPS, 0):
            tracked = min(_find_roots(params, 2.0**k), key=lambda r: abs(r - tracked))
        tracked = min(roots, key=lambda r: abs(r - tracked))

    states = tuple(_state_at(params, r, "selected" if r == tracked else "alternative") for r in roots)
    selected = next(st for st in states if st.branch_tag == "selected")
    return SteadySolveReport(
        selected=selected,
        all_roots=states,
        multistable=len(states) > 1,
    )


def operating_point(config: SystemConfig) -> tuple[SystemParams, SteadyState]:
    """Derived parameters and the steady state of a monostable configuration.

    Raises
    ------
    Multistable
        when several steady states coexist; carries the full report.
    NoConvergence
        as solve_steady.
    """
    params = derive_params(config)
    report = solve_steady(params)
    if report.multistable:
        raise Multistable(report)
    return params, report.selected


def bare_detunings(params: SystemParams, steady: SteadyState) -> tuple[float, float]:
    """(Delta_c1, Delta_c2) consistent with a solved steady state.

    The time-domain oracle integrates the bare equations and must reproduce
    the effective detunings on its own, so it needs the bare values.
    """
    return params.detuning1, params.detuning2.value + (_detuning2_slope(params) + params.g2) * steady.phi
