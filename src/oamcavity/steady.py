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

import math
from dataclasses import dataclass

import numpy as np

from .errors import Multistable, NoConvergence, PointFailure
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


def _fields(params: SystemParams, scale: float = 1.0) -> tuple[float, ...]:
    """The per-row numbers that _residual unpacks.  The squares are Python `**`, whose last bit can
    differ from numpy's x*x, so a column of stacked rows carries the bits of each single row."""
    slope2, stiffness = _detuning2_slope(params), params.inertia * params.omega_phi**2
    return (params.detuning1, params.g1, params.detuning2.value, slope2, scale * params.eps1**2,
            scale * params.eps2**2, params.kappa1**2, params.kappa2**2, -params.g1, params.g2, params.hbar,
            stiffness, -2.0 * params.g1, -2.0 * slope2, params.hbar / stiffness)


def _residual(phi, fields, slope: bool = False):
    """The fixed-point defect at phi, or (defect, d defect/d phi); fields from _fields, or columns of them."""
    det1, g1, det2, slope2, pump1, pump2, kappa1_sq, kappa2_sq, neg_g1, g2, hbar, stiffness, *rest = fields
    d1, d2 = det1 + g1 * phi, det2 + slope2 * phi
    l1, l2 = kappa1_sq + d1 * d1, kappa2_sq + d2 * d2
    n1, n2 = pump1 / l1, pump2 / l2  # photon numbers
    residual = phi - hbar * (neg_g1 * n1 + g2 * n2) / stiffness
    if not slope:
        return residual
    minus_2g1, minus_2slope2, pref = rest
    return residual, 1.0 - pref * (neg_g1 * (minus_2g1 * d1 * n1 / l1) + g2 * (minus_2slope2 * d2 * n2 / l2))


def steady_residual(phi: float, params: SystemParams, _scale: float = 1.0) -> float:
    """Fixed-point defect phi - hbar*(-g1*N1(phi) + g2*N2(phi))/(I*omega_phi^2).

    Exposed for testing (phi may be an array); zero at any self-consistent
    root.
    """
    return _residual(phi, _fields(params, _scale))


def effective_detunings(phi_s: float, params: SystemParams) -> tuple[float, float]:
    """(Delta_c1 + g1*phi_s, Delta_c2 - g2*phi_s): Delta_2 moves with phi_s at `_detuning2_slope`."""
    return params.detuning1 + params.g1 * phi_s, params.detuning2.value + _detuning2_slope(params) * phi_s


def _state_at(params: SystemParams, phi: float, branch_tag: str) -> SteadyState:
    d1, d2 = effective_detunings(phi, params)
    c1, c2 = params.eps1 / complex(params.kappa1, d1), params.eps2 / complex(params.kappa2, d2)
    return SteadyState(phi=phi, c1=c1, c2=c2, delta1=d1, delta2=d2, n1=abs(c1) ** 2, n2=abs(c2) ** 2,
                       residual=steady_residual(phi, params), branch_tag=branch_tag)


def _padded_sum(a: list[float], b: list[float]) -> list[float]:
    """Coefficient-wise a + b, the shorter one padded with zeros (which are not added)."""
    if len(a) < len(b):
        a, b = b, a
    return [x + y for x, y in zip(a, b)] + a[len(b):]


def _polynomial(params: SystemParams, scale: float) -> tuple[float, list[float]]:
    """(sigma, coefficients) of the fixed point cleared of its denominators, in z = phi/sigma.

    With K = I*omega_phi^2, L_i = kappa_i^2 + Delta_i^2 and p_i the drive
    term hbar*g_i*eps_i^2/K, the fixed point is phi*L1*L2 + p1*L2 - p2*L1 = 0,
    solved in z = g*phi/omega_phi with g = g1 (g2 when g1 = 0).  L2 is
    constant for an effective detuning-2 spec, which leaves a cubic whose
    coefficients hold g1 only as g1^2 and g1*g2, so l1 -> -l1 flips phi
    exactly when drive 2 is dark; a bare spec gives at most a quintic.  A
    vanishing p_i takes its L_i (never zero) along; when both vanish the
    polynomial is z - 0.0, whose one root is phi = +0.0.  A float `**` that
    overflows makes the coefficients NaN.
    """
    w = params.omega_phi
    pull1 = params.hbar * scale * params.g1 * params.eps1**2 / (params.inertia * w**2)
    pull2 = params.hbar * scale * params.g2 * params.eps2**2 / (params.inertia * w**2)
    if pull1 == 0.0 and pull2 == 0.0:
        return 1.0, [-0.0, 1.0]
    g = params.g1 or params.g2
    sigma = w / g  # phi = sigma*z
    slope2 = _detuning2_slope(params) / g

    def lorentzian(kappa, detuning, slope, pull):  # L/omega_phi^2 as a polynomial in z
        if pull == 0.0:
            return [1.0]
        return [(kappa / w) ** 2 + (detuning / w) ** 2, 2.0 * (detuning / w) * slope, slope**2]

    try:
        l1 = lorentzian(params.kappa1, params.detuning1, params.g1 / g, pull1)
        l2 = lorentzian(params.kappa2, params.detuning2.value, slope2, pull2)
    except OverflowError:  # a float ** raises where * gives inf; NaN carries it to the check
        l1 = l2 = [math.nan]
    divisor = sigma * w**2
    drive = [c / divisor for c in _padded_sum([pull1 * c for c in l2], [-pull2 * c for c in l1])]
    # z*l1*l2 + drive; numpy's convolve, whose sums may be fused multiply-adds
    return sigma, _padded_sum([0.0, *np.convolve(l1, l2).tolist()], drive)


def _stacked_roots(c: np.ndarray) -> np.ndarray:
    """numpy.polynomial.polyroots of each row (lowest coefficient first, last nonzero), in one eigvals
    call: the sorted eigenvalues of companion matrices laid out as numpy.polynomial.polycompanion does."""
    if c.shape[1] == 2:
        return -c[:, :1] / c[:, 1:]
    n = c.shape[1] - 1
    companion = np.zeros((len(c), n, n))
    companion.reshape(len(c), -1)[:, n :: n + 1] = 1.0  # the subdiagonal
    companion[:, :, -1] -= c[:, :-1] / c[:, -1:]
    return np.sort(np.linalg.eigvals(companion), axis=-1)


def _find_roots(batch: list[SystemParams], scale: float) -> list[list[float] | NoConvergence]:
    """All fixed points of each row at drive power fraction `scale`, ascending, or the row's NoConvergence.

    Polynomials of one trimmed length share a _stacked_roots call.  Each real root gets one Newton
    polish and counts when its residual then meets TOL_REL; near-identical roots merge.  A row fails
    if a coefficient is not finite (a detuning far beyond omega_phi, say) or no root meets TOL_REL.
    """
    if not batch:
        return []
    out: list = [None] * len(batch)
    groups: dict[int, list] = {}
    for i, params in enumerate(batch):
        poly = _polynomial(params, scale)
        if not all(map(math.isfinite, poly[1])):
            out[i] = NoConvergence(f"the fixed-point polynomial at power fraction {scale:g} has non-finite "
                                   f"coefficients {poly[1]}")
        else:
            while len(poly[1]) > 1 and poly[1][-1] == 0.0:
                poly[1].pop()
            groups.setdefault(len(poly[1]), []).append((i, *poly))
    # phis[i]: row i's real roots in eigenvalue order, NaN for a complex or absent one
    phis = np.full((len(batch), max([2, *groups]) - 1), np.nan)
    for size, members in groups.items():
        if size < 2:  # a nonzero constant
            continue
        index, sigma, c = map(np.array, zip(*members))
        z = _stacked_roots(c)
        real = np.abs(z.imag) <= _IMAG_TOL * np.abs(z)
        phis[index, : size - 1] = np.where(real, sigma[:, None] * z.real, np.nan)
    # each field a contiguous array shaped as phis, a row's value repeated along it
    fields = tuple(np.repeat(np.array([_fields(params, scale) for params in batch]).T, phis.shape[1], axis=1)
                   .reshape(-1, *phis.shape))
    with np.errstate(all="ignore"):
        residual, slope = _residual(phis, fields, slope=True)
        stepped = np.where(slope != 0.0, phis - residual / slope, phis)
        polished = np.sort(stepped, axis=1)
        kept = np.abs(_residual(polished, fields)) <= TOL_REL * np.maximum(np.abs(polished), PHI_FLOOR)
    if kept[:, 1:].any():  # a root merges into the last one kept when within 1e-9 of it
        last = np.where(kept[:, 0], polished[:, 0], np.nan)
        for j, r in enumerate(polished.T[1:], 1):
            kept[:, j] &= ~(np.abs(r - last) <= 1e-9 * np.maximum(np.abs(r), PHI_FLOOR))
            last = np.where(kept[:, j], r, last)
    for i, (row, keep) in enumerate(zip(polished.tolist(), kept.tolist())):
        if out[i] is None:
            out[i] = [r for r, k in zip(row, keep) if k]
        if not out[i]:
            candidates = stepped[i][~np.isnan(phis[i])].tolist()
            out[i] = NoConvergence(f"no polynomial root met the residual tolerance at power fraction {scale:g}"
                                   + ("" if candidates else " (the polynomial has no real root)"),
                                   window=(min(candidates), max(candidates)) if candidates else None)
    return out


def _solve(batch: list[SystemParams]) -> list[SteadySolveReport | NoConvergence]:
    """solve_steady of each row, the rows' power continuations stepped together."""
    found = _find_roots(batch, 1.0)
    tracked = {i: 0.0 for i, roots in enumerate(found) if isinstance(roots, list) and len(roots) > 1}
    for k in range(1 - _POWER_STEPS, 0) if tracked else ():  # power continuation, geometric steps to 1
        for i, roots in zip(list(tracked), _find_roots([batch[i] for i in tracked], 2.0**k)):
            if isinstance(roots, NoConvergence):
                found[i] = roots
                del tracked[i]
            else:
                tracked[i] = min(roots, key=lambda r: abs(r - tracked[i]))
    for i, (params, roots) in enumerate(zip(batch, found)):
        if isinstance(roots, list):
            selected = min(roots, key=lambda r: abs(r - tracked[i])) if i in tracked else roots[0]
            states = tuple(_state_at(params, r, "selected" if r == selected else "alternative") for r in roots)
            found[i] = SteadySolveReport(selected=next(st for st in states if st.branch_tag == "selected"),
                                         all_roots=states, multistable=len(states) > 1)
    return found


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
    return point_or_raise(_solve([params])[0])


def operating_points(configs) -> list[tuple[SystemParams, SteadyState] | PointFailure]:
    """operating_point of each configuration, solved together: (params, steady) or the point's failure.

    Raises ConfigError, from derive_params, at the first configuration it refuses.
    """
    batch = [derive_params(config) for config in configs]
    return [report if isinstance(report, PointFailure) else Multistable(report) if report.multistable
            else (params, report.selected) for params, report in zip(batch, _solve(batch))]


def operating_point(config: SystemConfig) -> tuple[SystemParams, SteadyState]:
    """Derived parameters and the steady state of a monostable configuration.

    Raises
    ------
    Multistable
        when several steady states coexist; carries the full report.
    NoConvergence
        as solve_steady.
    """
    return point_or_raise(operating_points([config])[0])


def point_or_raise(point):
    """A result of the batched solve, or the PointFailure held in its place raised."""
    if isinstance(point, PointFailure):
        raise point
    return point


def bare_detunings(params: SystemParams, steady: SteadyState) -> tuple[float, float]:
    """(Delta_c1, Delta_c2) consistent with a solved steady state.

    The time-domain oracle integrates the bare equations and must reproduce
    the effective detunings on its own, so it needs the bare values.
    """
    return params.detuning1, params.detuning2.value + (_detuning2_slope(params) + params.g2) * steady.phi
