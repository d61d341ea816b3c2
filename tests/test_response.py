import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from oamcavity import (
    SingularSystem,
    closed_form_c1p,
    default_config,
    derive_params,
    load_config,
    operating_point,
    sideband_response,
    solve_steady,
    transmission,
    transmission_at,
)
from oamcavity.response import (
    _optical_terms,
    _row_constants,
    dressed_mode,
    probe_stack,
    transmission_many,
    transmission_rows,
)
from oamcavity.steady import SteadyState


def bare_lorentzian(p, st, omega):
    return p.eps_p / complex(p.kappa1, st.delta1 - omega)


def test_decoupled_probe_is_bare_cavity(decoupled):
    p, st = decoupled
    for x in (-0.3, 0.0, 0.4):
        om = p.omega_phi * (1 + x)
        r = sideband_response(p, st, om)
        assert r.c1_plus == pytest.approx(bare_lorentzian(p, st, om), rel=1e-12)
        assert r.c2_plus == 0 and r.c2_minus_conj == 0
        assert r.c1_minus_conj == 0
        assert r.phi_plus == 0 and r.phi_minus_conj == 0


def test_zero_probe_zero_response(weak_dark):
    p, st = weak_dark
    p0 = dataclasses.replace(p, eps_p=0.0)
    r = sideband_response(p0, st, p.omega_phi)
    assert r.c1_plus == 0 and r.c2_plus == 0 and r.phi_plus == 0


def test_omit_contrast_between_weak_and_strong_drive(weak_dark, strong_omit):
    # weak drive: the mechanical channel absorbs the resonant probe;
    # strong drive: destructive interference restores near-unit output
    p_w, st_w = weak_dark
    p_s, st_s = strong_omit
    t_weak = transmission_at(p_w, st_w, p_w.omega_phi)
    t_strong = transmission_at(p_s, st_s, p_s.omega_phi)
    assert t_weak < 0.91
    assert t_strong > 0.99


def test_closed_form_matches_linear_solve():
    cases = [
        dict(drive1_power=0.1, drive2_power=0.0),
        dict(drive1_power=0.1, drive2_power=0.1),
        dict(drive1_power=0.1e-6, drive2_power=0.1),
        dict(drive1_power=0.1e-6, drive2_power=0.1, charge_l1=-50),
    ]
    for over in cases:
        p = derive_params(default_config(**over))
        st = solve_steady(p).selected
        for x in np.linspace(-0.5, 0.5, 41):
            om = p.omega_phi * (1 + x)
            a = sideband_response(p, st, om).c1_plus
            b = closed_form_c1p(p, st, om)
            assert abs(a - b) <= 1e-9 * abs(a), f"{over} at x={x}"


def test_closed_form_decoupled_limit(decoupled):
    p, st = decoupled
    om = p.omega_phi * 1.37
    assert closed_form_c1p(p, st, om) == pytest.approx(bare_lorentzian(p, st, om), rel=1e-12)


def test_far_detuned_rolloff(weak_dark):
    p, st = weak_dark
    near = abs(sideband_response(p, st, p.omega_phi).c1_plus)
    far = abs(sideband_response(p, st, 1e3 * p.omega_phi).c1_plus)
    assert far < 1e-4 * near


def test_reality_constraint(weak_bright):
    p, st = weak_bright
    for x in np.linspace(-0.4, 0.6, 21):
        r = sideband_response(p, st, p.omega_phi * (1 + x))
        assert abs(r.phi_minus_conj - r.phi_plus) <= 1e-10 * abs(r.phi_plus)


def test_probe_scale_invariance(weak_bright):
    p, st = weak_bright
    cfg2 = dataclasses.replace(p.config, probe_power=p.config.probe_power * 1.7e3)
    p2 = derive_params(cfg2)
    st2 = solve_steady(p2).selected
    for x in (-0.1, 0.0, 3e-7):
        om = p.omega_phi * (1 + x)
        t1 = transmission(p, sideband_response(p, st, om).c1_plus)
        t2 = transmission(p2, sideband_response(p2, st2, om).c1_plus)
        assert t1 == pytest.approx(t2, rel=1e-12)


def test_transmission_formula_anchors(weak_dark):
    p, st = weak_dark
    # bare cavity reflects unit power at any detuning
    p_dec = derive_params(default_config(charge_l1=0, charge_l2=0, drive1_power=0.1e-6))
    st_dec = solve_steady(p_dec).selected
    for x in (-0.2, 0.0, 0.35):
        assert transmission_at(p_dec, st_dec, p.omega_phi * (1 + x)) == pytest.approx(1.0, rel=1e-12)
    # perfect absorption point
    assert transmission(p, p.eps_p / (2 * p.kappa1)) < 1e-28
    with pytest.raises(ValueError):
        transmission(dataclasses.replace(p, eps_p=0.0), 0.1 + 0j)


def test_passivity_in_default_regime(weak_bright):
    p, st = weak_bright
    xs = np.linspace(-0.5, 0.5, 501)
    ts = transmission_many(p, st, p.omega_phi * (1 + xs))
    assert np.all(ts >= 0.0)
    assert np.all(ts <= 1.0 + 1e-6)


def test_batch_matches_scalar(weak_bright):
    p, st = weak_bright
    omegas = p.omega_phi * (1 + np.array([-0.2, -1e-5, 0.0, 1e-5, 0.3]))
    batch = transmission_many(p, st, omegas)
    for om, t in zip(omegas, batch):
        assert t == pytest.approx(transmission(p, sideband_response(p, st, om).c1_plus), rel=1e-12)


def singular_point(p):
    """No mechanical damping and no coupling: a probe at the bare mechanical
    resonance zeroes both mechanical rows."""
    st = SteadyState(
        phi=0.0, c1=0j, c2=0j,
        delta1=p.detuning1, delta2=0.0, n1=0.0, n2=0.0,
        residual=0.0, branch_tag="selected",
    )
    return dataclasses.replace(p, g1=0.0, g2=0.0, gamma_phi=0.0), st


def test_singular_system_guard(weak_dark):
    p0, st = singular_point(weak_dark[0])
    with pytest.raises(SingularSystem):
        sideband_response(p0, st, p0.omega_phi)
    with pytest.raises(SingularSystem) as exc:
        transmission_many(p0, st, np.array([p0.omega_phi]))
    assert exc.value.reason == "SingularSystem"


def test_closed_form_singular_guard(weak_dark):
    p0, st = singular_point(weak_dark[0])
    with pytest.raises(SingularSystem, match="closed-form denominator vanished at Omega = 6.283185e"):
        closed_form_c1p(p0, st, p0.omega_phi)


def test_row_failing_in_a_later_block_is_nan_throughout(weak_dark):
    # the singular row's first bad detuning is its last, in the kernel's second block
    p, st = weak_dark
    omegas = np.linspace(0.5 * p.omega_phi, p.omega_phi, 5001)
    stack = probe_stack([(p, st), singular_point(p)])
    ts, failures = transmission_rows(stack, [0, 1], np.stack([omegas, omegas]))
    assert list(failures) == [1]
    assert "Omega = 6.283185e+07" in str(failures[1])
    assert np.isnan(ts[1]).all()
    assert np.array_equal(ts[0], transmission_many(p, st, omegas))


def test_rejects_non_finite_detuning(weak_dark):
    p, st = weak_dark
    with pytest.raises(ValueError):
        sideband_response(p, st, math.nan)
    with pytest.raises(ValueError):
        transmission_at(p, st, math.nan)


def test_batch_matches_closed_form_through_deep_dip():
    # the oracle config's dip is 0.78 deep; T there must keep the closed
    # form's digits, not lose them to the conditioning of the 6x6 system
    cfg = Path(__file__).resolve().parents[1] / "configs" / "oracle_check.json"
    p, st = operating_point(load_config(str(cfg)))
    omegas = p.omega_phi * (1 + np.linspace(-1e-5, 1e-5, 2001))
    ts = transmission_many(p, st, omegas)
    ref = np.array([transmission(p, closed_form_c1p(p, st, om)) for om in omegas])
    assert np.max(np.abs(ts - ref) / ref) <= 1e-12


@pytest.mark.parametrize("name", ["oracle_check.json", "strong_drive_fano.json"])
def test_dressed_pole_is_a_root_of_the_kernel_denominator(name):
    """den(Omega_m) = 0 to rounding, near the first-order optical spring and damping.

    First order (RMP 86, 1391): x_m = Re s(w)/(2w^2), width = gamma/w - Im s(w)/w^2
    with w = omega_phi.  Measured: x_m 3.3e-12 and width 4e-6 relative from
    first order on oracle_check, 2.1e-9 and 1.9e-4 on the Fano config.
    """
    p, st = operating_point(load_config(str(Path(__file__).resolve().parents[1] / "configs" / name)))
    w = p.omega_phi
    x_m, width = dressed_mode(p, st)
    omega = complex(w * (1.0 + x_m), -0.5 * width * w)
    _, s1, s2 = _optical_terms(_row_constants(p, st), 1j * omega)
    assert abs(w**2 - omega**2 - 1j * p.gamma_phi * omega + s1 + s2) <= 1e-15 * w**2
    _, s1, s2 = _optical_terms(_row_constants(p, st), 1j * w)
    assert x_m == pytest.approx((s1 + s2).real / (2.0 * w**2), abs=3e-9)
    assert width == pytest.approx(p.gamma_phi / w - (s1 + s2).imag / w**2, rel=3e-4)
