import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from oamcavity import (
    Multistable,
    bare_detunings,
    default_config,
    derive_params,
    effective_detunings,
    operating_point,
    solve_steady,
    steady_residual,
)
from oamcavity.errors import NoConvergence
from oamcavity.params import Detuning2Spec
from oamcavity.steady import TOL_REL, PHI_FLOOR


def test_undriven_cavity_trivial_root():
    p = derive_params(default_config(drive1_power=0.0, drive2_power=0.0))
    rep = solve_steady(p)
    assert not rep.multistable
    st = rep.selected
    assert st.phi == 0.0
    assert st.c1 == 0 and st.c2 == 0
    assert st.delta1 == p.detuning1
    assert steady_residual(0.0, p) == 0.0


def test_zero_charge_decouples_cavity1():
    p = derive_params(default_config(charge_l1=0, drive1_power=0.1e-6, drive2_power=0.1))
    st = solve_steady(p).selected
    # closed form: N2 at the fixed effective detuning, no feedback through cavity 1
    n2 = p.eps2**2 / p.kappa2**2
    phi_expected = p.hbar * p.g2 * n2 / (p.inertia * p.omega_phi**2)
    assert st.phi == pytest.approx(phi_expected, rel=1e-12)
    assert st.delta1 == p.detuning1  # g1 = 0 decouples cavity 1 from phi


def test_roots_satisfy_residual_tolerance(weak_bright):
    p, st = weak_bright
    assert abs(st.residual) <= TOL_REL * max(abs(st.phi), PHI_FLOOR)
    assert abs(steady_residual(st.phi, p)) <= TOL_REL * max(abs(st.phi), PHI_FLOOR)


def test_steady_amplitudes_consistent(weak_bright):
    p, st = weak_bright
    assert st.c1 == p.eps1 / complex(p.kappa1, st.delta1)
    assert st.c2 == p.eps2 / complex(p.kappa2, st.delta2)
    assert st.n1 == pytest.approx(abs(st.c1) ** 2, rel=1e-15)


def test_effective_detunings_arithmetic(weak_bright):
    p, st = weak_bright
    d1, d2 = effective_detunings(st.phi, p)
    assert d1 == st.delta1 == p.detuning1 + p.g1 * st.phi
    assert d2 == pytest.approx(st.delta2, abs=1e-9)
    assert effective_detunings(0.0, p)[0] == p.detuning1


def test_detuning_decomposition_kerr_plus_cross(weak_bright):
    p, st = weak_bright
    pref = p.hbar / (p.inertia * p.omega_phi**2)
    kerr = p.g1**2 * pref * st.n1
    cross = p.g1 * p.g2 * pref * st.n2
    assert st.delta1 == pytest.approx(p.detuning1 - kerr + cross, rel=1e-12)


def test_charge_sign_flips_cross_term_exactly():
    states = {}
    for l1 in (50, -50):
        p = derive_params(default_config(drive1_power=0.1e-6, drive2_power=0.1, charge_l1=l1))
        states[l1] = (p, solve_steady(p).selected)
    pref = {l1: st.delta1 - (p.detuning1 - p.g1**2 * p.hbar * st.n1 / (p.inertia * p.omega_phi**2))
            for l1, (p, st) in states.items()}
    assert pref[50] == pytest.approx(-pref[-50], rel=1e-12)
    # drive-2 photon number unaffected by the sign of l1
    assert states[50][1].n2 == states[-50][1].n2


def test_cross_shift_sign_follows_charge_product():
    base = {}
    for l1 in (50, -50):
        for p2 in (0.0, 0.1):
            p = derive_params(default_config(drive1_power=0.1e-6, drive2_power=p2, charge_l1=l1))
            base[(l1, p2)] = solve_steady(p).selected.delta1
    assert math.copysign(1, base[(50, 0.1)] - base[(50, 0.0)]) == 1.0  # sign(l1*l2) = +
    assert math.copysign(1, base[(-50, 0.1)] - base[(-50, 0.0)]) == -1.0


def test_single_cavity_detuning_blind_to_charge_sign():
    d1 = {}
    for l1 in (37, -37):
        p = derive_params(default_config(drive1_power=0.1e-6, drive2_power=0.0, charge_l1=l1))
        st = solve_steady(p).selected
        d1[l1] = st.delta1
        kerr = p.detuning1 - p.g1**2 * p.hbar * st.n1 / (p.inertia * p.omega_phi**2)
        assert st.delta1 == pytest.approx(kerr, rel=1e-12)
    assert d1[37] == d1[-37]  # bitwise: the solve commutes with the sign flip


def test_residual_monotone_on_measurement_regime(weak_bright):
    # weak drive 1: the scan window stays far from the cavity resonance, so
    # the Kerr gain never reaches 1 and the residual rises strictly
    p, _ = weak_bright
    amp = 4 * p.hbar * (
        p.g1 * p.eps1**2 / p.kappa1**2 + p.g2 * p.eps2**2 / p.kappa2**2
    ) / (p.inertia * p.omega_phi**2)
    phis = np.linspace(-amp, amp, 2001)
    res = np.array([steady_residual(ph, p) for ph in phis])
    assert np.all(np.diff(res) > 0)


def test_mean_value_vector_field_vanishes_at_root(weak_bright):
    """Cross-module check: the steady state nulls the time-domain equations."""
    p, st = weak_bright
    dc1_bare, dc2_bare = bare_detunings(p, st)
    d1 = dc1_bare + p.g1 * st.phi
    d2 = dc2_bare - p.g2 * st.phi
    f_c1 = -complex(p.kappa1, d1) * st.c1 + p.eps1
    f_c2 = -complex(p.kappa2, d2) * st.c2 + p.eps2
    f_phi = -p.omega_phi**2 * st.phi - (p.hbar / p.inertia) * (
        p.g1 * abs(st.c1) ** 2 - p.g2 * abs(st.c2) ** 2
    )
    scale = max(p.kappa1 * abs(st.c1), p.kappa2 * abs(st.c2), p.omega_phi**2 * abs(st.phi))
    norm = math.sqrt(abs(f_c1) ** 2 + abs(f_c2) ** 2 + f_phi**2)
    assert norm <= 1e-8 * scale


def test_bistable_reporting():
    p = derive_params(default_config(drive1_power=0.4, drive2_power=0.0, charge_l1=50))
    rep = solve_steady(p)
    assert rep.multistable
    assert len(rep.all_roots) == 3
    phis = [st.phi for st in rep.all_roots]
    assert phis == sorted(phis)
    # the selected branch is the one continuously connected to zero drive
    assert rep.selected.phi == max(phis)
    assert rep.selected.branch_tag == "selected"
    assert sum(st.branch_tag == "alternative" for st in rep.all_roots) == 2
    for st in rep.all_roots:
        assert abs(st.residual) <= TOL_REL * max(abs(st.phi), PHI_FLOOR)


def test_operating_point_raises_multistable_with_report():
    with pytest.raises(Multistable) as exc:
        operating_point(default_config(drive1_power=0.4, drive2_power=0.0))
    assert exc.value.exit_code == 3
    assert len(exc.value.report.all_roots) == 3
    assert exc.value.report.multistable


def test_no_real_root_raises_no_convergence_without_window():
    """finesse2 = 1e300 leaves the fixed-point polynomial no real root: the error still says so."""
    with pytest.raises(NoConvergence, match="no real root") as exc:
        solve_steady(derive_params(default_config(finesse2=1e300)))
    assert exc.value.window is None
    assert exc.value.exit_code == 4


def test_operating_point_is_derive_plus_selected_root():
    config = default_config(drive1_power=0.1e-6, drive2_power=0.1)
    params, steady = operating_point(config)
    assert params == derive_params(config)
    assert steady == solve_steady(params).selected


def test_bare_detuning_tracks_effective_spec(weak_bright):
    p, st = weak_bright
    _, dc2 = bare_detunings(p, st)
    assert dc2 == pytest.approx(p.g2 * st.phi, rel=1e-12)  # effective Delta_2 = 0


def test_close_root_pair_beside_selected_root_is_reported():
    # the two extra roots lie 2.8e-8 rad apart, closer than a 4097-point
    # scan over the photon-number bound resolves
    p = derive_params(default_config(
        drive1_power=0.03291933208475069, drive2_power=0.0, charge_l1=55, finesse1=294901.6183194356,
    ))
    rep = solve_steady(p)
    assert rep.multistable
    phis = [st.phi for st in rep.all_roots]
    assert len(phis) == 3
    assert phis[0] == pytest.approx(-1.906694e-5, rel=1e-6)
    assert phis[1] == pytest.approx(-1.903883e-5, rel=1e-6)
    assert rep.selected.phi == phis[2] == pytest.approx(-5.026331e-10, rel=1e-6)
    for st in rep.all_roots:
        assert abs(st.residual) <= TOL_REL * max(abs(st.phi), PHI_FLOOR)


OMEGA_PHI = default_config().rotation_frequency


@given(
    bare=hst.booleans(),
    log_p1=hst.floats(min_value=-8.0, max_value=0.0),
    p2=hst.one_of(hst.just(0.0), hst.floats(min_value=0.0, max_value=0.3)),
    l1=hst.one_of(hst.just(0), hst.integers(min_value=-60, max_value=60)),
    l2=hst.one_of(hst.just(0), hst.integers(min_value=-100, max_value=100)),
    finesse1=hst.floats(min_value=1e4, max_value=3e5),
    d1=hst.floats(min_value=-2.0, max_value=2.0),
    d2=hst.floats(min_value=-2.0, max_value=2.0),
)
@example(bare=False, log_p1=-1.0, p2=0.1, l1=0, l2=100, finesse1=5e4, d1=1.0, d2=0.0)
@example(bare=True, log_p1=-1.0, p2=0.1, l1=0, l2=100, finesse1=5e4, d1=1.0, d2=0.5)
@example(bare=True, log_p1=-1.0, p2=0.1, l1=50, l2=0, finesse1=5e4, d1=1.0, d2=0.5)
@example(bare=True, log_p1=-0.4, p2=0.0, l1=50, l2=100, finesse1=5e4, d1=1.0, d2=0.5)
@example(bare=False, log_p1=-0.4, p2=0.0, l1=50, l2=100, finesse1=5e4, d1=1.0, d2=0.0)
@settings(deadline=None, max_examples=150)
def test_reported_roots_are_complete(bare, log_p1, p2, l1, l2, finesse1, d1, d2):
    p = derive_params(default_config(
        drive1_power=10.0**log_p1, drive2_power=p2, charge_l1=l1, charge_l2=l2, finesse1=finesse1,
        detuning1=d1 * OMEGA_PHI, detuning2=Detuning2Spec("bare" if bare else "effective", d2 * OMEGA_PHI),
    ))
    roots = [st.phi for st in solve_steady(p).all_roots]
    for phi in roots:
        assert abs(steady_residual(phi, p)) <= TOL_REL * max(abs(phi), PHI_FLOOR)
    # every root lies within a quarter of this window: |phi| <= hbar*sum|g_i|*N_i,max/K
    amp = 4 * p.hbar * (
        abs(p.g1) * p.eps1**2 / p.kappa1**2 + abs(p.g2) * p.eps2**2 / p.kappa2**2
    ) / (p.inertia * p.omega_phi**2)
    if amp == 0.0:
        assert roots == [0.0]
        return
    grid = np.linspace(-amp, amp, 2**16 + 1)
    res = steady_residual(grid, p)
    slack = 1e-12 * amp
    for i in np.flatnonzero(res[:-1] * res[1:] < 0.0):
        lo, hi = grid[i] - slack, grid[i + 1] + slack
        assert any(lo <= phi <= hi for phi in roots), f"unreported sign change in [{grid[i]:.6e}, {grid[i + 1]:.6e}]"
