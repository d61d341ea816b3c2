"""Self-consistent mean-value steady state of the driven system.

The mirror's static angle obeys the fixed-point relation

    phi_s = hbar*(-g1*N1(phi_s) + g2*N2(phi_s)) / (I*omega_phi^2)

with N_i the intracavity photon numbers at the effective detunings
Delta_1 = Delta_c1 + g1*phi_s and Delta_2 = Delta_c2 - g2*phi_s.  The
Kerr-type feedback through N1 can make this multivalued; all roots are
reported and the physical branch is chosen by continuation in drive power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import Multistable, NoConvergence
from .params import SystemConfig, SystemParams, derive_params

#: residual tolerance: |residual| <= TOL_REL * max(|phi_s|, PHI_FLOOR)
TOL_REL = 1e-6
PHI_FLOOR = 1e-18
_SCAN_POINTS = 4097
_POWER_STEPS = 16


@dataclass(frozen=True)
class SteadyState:
    """One self-consistent operating point.

    phi/L_z in rad and kg*m^2*rad/s (L_z is always 0 in steady state);
    c1/c2 are complex amplitudes in sqrt(photons); delta1/delta2 the
    effective detunings in rad/s; n1/n2 intracavity photon numbers.
    """

    phi: float
    L_z: float
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


def _bare_detuning2(params: SystemParams, phi: float) -> float:
    """Bare Delta_c2 implied by the detuning-2 specification at angle phi."""
    spec = params.detuning2
    if spec.mode == "bare":
        return spec.value
    # effective Delta_2 held fixed: Delta_c2 tracks g2*phi
    return spec.value + params.g2 * phi


def _photon_numbers(params: SystemParams, phi: float, scale: float = 1.0) -> tuple[float, float, float, float]:
    """(N1, N2, Delta1, Delta2) at angle phi with drive powers scaled by `scale`."""
    d1 = params.detuning1 + params.g1 * phi
    if params.detuning2.mode == "bare":
        d2 = params.detuning2.value - params.g2 * phi
    else:
        d2 = params.detuning2.value
    n1 = scale * params.eps1**2 / (params.kappa1**2 + d1 * d1)
    n2 = scale * params.eps2**2 / (params.kappa2**2 + d2 * d2)
    return n1, n2, d1, d2


def steady_residual(phi: float, params: SystemParams, _scale: float = 1.0) -> float:
    """Fixed-point defect phi - hbar*(-g1*N1(phi) + g2*N2(phi))/(I*omega_phi^2).

    Exposed for testing and root bracketing (phi may be the scan grid array);
    zero at any self-consistent root.
    """
    n1, n2, _, _ = _photon_numbers(params, phi, _scale)
    rhs = params.hbar * (-params.g1 * n1 + params.g2 * n2) / (params.inertia * params.omega_phi**2)
    return phi - rhs


def _residual_derivative(phi: float, params: SystemParams, scale: float) -> float:
    n1, n2, d1, d2 = _photon_numbers(params, phi, scale)
    pref = params.hbar / (params.inertia * params.omega_phi**2)
    dn1 = -2.0 * params.g1 * d1 * n1 / (params.kappa1**2 + d1 * d1)
    if params.detuning2.mode == "bare":
        dn2 = 2.0 * params.g2 * d2 * n2 / (params.kappa2**2 + d2 * d2)
    else:
        dn2 = 0.0
    return 1.0 - pref * (-params.g1 * dn1 + params.g2 * dn2)


def effective_detunings(phi_s: float, params: SystemParams) -> tuple[float, float]:
    """(Delta_1, Delta_2) = (Delta_c1 + g1*phi_s, Delta_c2 - g2*phi_s), exact arithmetic."""
    d1 = params.detuning1 + params.g1 * phi_s
    d2 = _bare_detuning2(params, phi_s) - params.g2 * phi_s
    return d1, d2


def _state_at(params: SystemParams, phi: float, branch_tag: str) -> SteadyState:
    n1, n2, d1, d2 = _photon_numbers(params, phi)
    c1 = params.eps1 / complex(params.kappa1, d1)
    c2 = params.eps2 / complex(params.kappa2, d2)
    return SteadyState(
        phi=phi,
        L_z=0.0,
        c1=c1,
        c2=c2,
        delta1=d1,
        delta2=d2,
        n1=abs(c1) ** 2,
        n2=abs(c2) ** 2,
        residual=steady_residual(phi, params),
        branch_tag=branch_tag,
    )


def _find_roots(params: SystemParams, scale: float) -> list[float]:
    """All fixed points at drive power fraction `scale`: bracket scan + bisection + Newton."""
    amp = 4.0 * params.hbar * (
        abs(params.g1) * scale * params.eps1**2 / params.kappa1**2
        + abs(params.g2) * scale * params.eps2**2 / params.kappa2**2
    ) / (params.inertia * params.omega_phi**2)
    if amp == 0.0:
        return [0.0]

    # mirror-symmetric grid: grid[i] == -grid[n-1-i] bitwise, so the whole
    # solve commutes exactly with the l1 -> -l1 sign flip
    half = (_SCAN_POINTS - 1) // 2
    step = amp / half
    pos = np.arange(1, half + 1) * step
    grid = np.concatenate([-pos[::-1], [0.0], pos])
    vals = steady_residual(grid, params, scale)

    roots: list[float] = []
    sign_change = np.where(vals[:-1] * vals[1:] < 0.0)[0]
    roots.extend(float(g) for g in grid[vals == 0.0])
    for i in sign_change:
        a, b = float(grid[i]), float(grid[i + 1])
        fa = float(vals[i])
        # bisection to 1e-14 relative
        while (b - a) > 1e-14 * max(abs(a), abs(b), PHI_FLOOR):
            m = 0.5 * (a + b)
            fm = steady_residual(m, params, scale)
            if fm == 0.0:
                a = b = m
                break
            if fa * fm < 0.0:
                b = m
            else:
                a, fa = m, fm
        root = 0.5 * (a + b)
        # one Newton polish
        deriv = _residual_derivative(root, params, scale)
        if deriv != 0.0:
            root -= steady_residual(root, params, scale) / deriv
        roots.append(root)
    # deduplicate near-identical roots
    roots.sort()
    dedup: list[float] = []
    for r in roots:
        if not dedup or abs(r - dedup[-1]) > 1e-9 * max(abs(r), PHI_FLOOR):
            dedup.append(r)
    return dedup


def solve_steady(params: SystemParams) -> SteadySolveReport:
    """Solve the steady state, report all coexisting roots, flag multistability.

    The selected root is the one continuously connected to phi_s = 0 at zero
    drive power: the drive powers are ramped from ~0 to full in geometric
    steps and the nearest root is tracked at each step.

    Raises
    ------
    NoConvergence
        if no root satisfies the residual tolerance (reports scan window).
    """
    # continuation in total drive power, 16 geometric steps ending at 1
    scales = [2.0 ** (k - (_POWER_STEPS - 1)) for k in range(_POWER_STEPS)]
    tracked = 0.0
    roots: list[float] = [0.0]
    for s in scales:
        roots = _find_roots(params, s)
        if not roots:
            raise NoConvergence(
                f"bracket scan found no sign change at power fraction {s:g}",
                window=(-1.0, 1.0),
            )
        tracked = min(roots, key=lambda r: abs(r - tracked))

    states = []
    for r in roots:
        tag = "selected" if r == tracked else "alternative"
        states.append(_state_at(params, r, tag))
    states.sort(key=lambda st: st.phi)

    bad = [st for st in states if abs(st.residual) > TOL_REL * max(abs(st.phi), PHI_FLOOR)]
    if bad:
        raise NoConvergence(
            f"{len(bad)} root(s) exceeded the residual tolerance "
            f"(worst |residual| = {max(abs(st.residual) for st in bad):.3e})",
            window=(min(st.phi for st in states), max(st.phi for st in states)),
        )

    selected = next(st for st in states if st.branch_tag == "selected")
    return SteadySolveReport(
        selected=selected,
        all_roots=tuple(states),
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
    return params.detuning1, _bare_detuning2(params, steady.phi)
