import math

import numpy as np
import pytest

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
from oamcavity.steady import TOL_REL, PHI_FLOOR


def test_undriven_cavity_trivial_root():
    p = derive_params(default_config(drive1_power=0.0, drive2_power=0.0))
    rep = solve_steady(p)
    assert not rep.multistable
    st = rep.selected
    assert st.phi == 0.0
    assert st.L_z == 0.0
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


def test_operating_point_is_derive_plus_selected_root():
    config = default_config(drive1_power=0.1e-6, drive2_power=0.1)
    params, steady = operating_point(config)
    assert params == derive_params(config)
    assert steady == solve_steady(params).selected


def test_bare_detuning_tracks_effective_spec(weak_bright):
    p, st = weak_bright
    _, dc2 = bare_detunings(p, st)
    assert dc2 == pytest.approx(p.g2 * st.phi, rel=1e-12)  # effective Delta_2 = 0
