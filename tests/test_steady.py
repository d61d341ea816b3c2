import math
from pathlib import Path

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
    operating_points,
    solve_steady,
    steady_residual,
)
from oamcavity.errors import NoConvergence, PointFailure
from oamcavity.params import Detuning2Spec, load_config
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


@pytest.mark.parametrize("p1", [0.4, 10.0])  # at 10 W the last five continuation steps are multistable too
def test_bistable_roots_flip_with_the_charge_and_the_selection_follows(p1):
    """With drive 2 dark, l1 -> -l1 flips every root exactly; continuation then picks the smallest."""
    phis, selected = {}, {}
    for l1 in (50, -50):
        rep = solve_steady(derive_params(default_config(drive1_power=p1, drive2_power=0.0, charge_l1=l1)))
        phis[l1], selected[l1] = [st.phi for st in rep.all_roots], rep.selected.phi
    assert phis[-50] == [-phi for phi in reversed(phis[50])]
    assert selected[-50] == -selected[50] == min(phis[-50])


def test_roots_within_1e9_of_each_other_count_once():
    """Just below the fold of the l1 = 50 bistability the two coalescing roots are a conjugate pair
    counted real; both polish to within 1e-9 of each other and are reported once."""
    p = derive_params(default_config(drive1_power=0.23003826666239494, drive2_power=0.0))
    phis = [st.phi for st in solve_steady(p).all_roots]
    assert len(phis) == 2
    assert phis[0] == pytest.approx(-2.0949026e-5, rel=1e-6)
    assert phis[1] == pytest.approx(-1.884923e-8, rel=1e-6)


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


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _outcome(point):
    """A point's result in a form whose equality is bitwise: reprs of states and reports."""
    if isinstance(point, Multistable):
        return "Multistable", repr(point.report)
    if isinstance(point, PointFailure):
        return type(point).__name__, str(point), repr(point.window)
    params, steady = point
    return params, repr(steady)


def _one_at_a_time(config):
    try:
        return operating_point(config)
    except PointFailure as err:
        return err


#: batch name -> (configs, kind of each row's result); each batch mixes polynomial degrees or outcomes
BATCHES = {
    # bare Delta_c2: quintic while drive 2 is on, cubic at P2 = 0; multistable at 0.1 W
    "drive2-power": ([default_config(drive1_power=1e-3, drive2_power=p2,
                                     detuning2=Detuning2Spec("bare", 0.5 * OMEGA_PHI)) for p2 in (0.0, 0.01, 0.1)],
                     ["tuple", "tuple", "Multistable"]),
    # l1 = 0 solves in z = g2*phi/omega_phi and leaves a linear polynomial
    "charge-l1": ([default_config(drive1_power=0.1e-6, charge_l1=l1) for l1 in (-3, -1, 0, 1, 3)], ["tuple"] * 5),
    "bare-detuning2": ([default_config(detuning2=Detuning2Spec("bare", x * OMEGA_PHI)) for x in (-0.5, 0.0, 0.25, 0.5)],
                       ["tuple", "tuple", "Multistable", "Multistable"]),
    "bistable-among-monostable": ([load_config(str(CONFIGS / f"{name}.json"))
                                   for name in ("oracle_check", "bistable_demo", "calibration_highres")],
                                  ["tuple", "Multistable", "tuple"]),
    # Delta_c1 = 1e300 overflows the coefficients of the middle row only
    "non-finite-coefficients": ([default_config(), default_config(detuning1=1e300), default_config(drive2_power=0.05)],
                                ["tuple", "NoConvergence", "tuple"]),
}


@pytest.mark.parametrize("name", list(BATCHES))
def test_operating_points_match_one_at_a_time(name):
    """One batched solve gives each row the bits (or the failure) of solving that row alone."""
    configs, kinds = BATCHES[name]
    batch = operating_points(configs)
    assert [type(point).__name__ for point in batch] == kinds
    assert [_outcome(point) for point in batch] == [_outcome(_one_at_a_time(c)) for c in configs]
    # and the order of the rows does not matter
    assert [_outcome(point) for point in operating_points(configs[::-1])] == [_outcome(p) for p in batch[::-1]]


@pytest.mark.skipif(int(np.__version__.split(".")[0]) < 2, reason="numpy 1.x polyroots rotates the companion matrix")
def test_stacked_roots_are_polyroots_bit_for_bit():
    """The stacked companion eigenvalues are numpy.polynomial.polyroots of each row, to the bit."""
    from numpy.polynomial import polynomial as P

    from oamcavity.steady import _stacked_roots

    rng = np.random.default_rng(7)
    for size in range(2, 7):
        c = rng.standard_normal((40, size)) * 10.0 ** rng.integers(-8, 8, (40, size))
        c[::5, :-1] = 0.0  # zeros below the leading coefficient, as a dark drive or a held Delta_2 leaves
        c[1::5, 0] = 0.0
        stacked = _stacked_roots(c)
        for row, roots in zip(c, stacked):
            expected = P.polyroots(row)
            assert np.array_equal(roots.real, expected.real) and np.array_equal(roots.imag, expected.imag)


def _one_root_list(params, scale):
    """The per-point root finder the batched one replaced, kept as the reference: polyroots of the
    same polynomial, then a Python loop that polishes, sorts, checks and merges the real roots."""
    from numpy.polynomial import polynomial as P

    from oamcavity.steady import _IMAG_TOL, _detuning2_slope, _polynomial

    sigma, coefficients = _polynomial(params, scale)
    if not all(map(math.isfinite, coefficients)):
        return "NoConvergence"

    def defect_and_slope(phi):
        d1, d2 = effective_detunings(phi, params)
        l1, l2 = params.kappa1**2 + d1 * d1, params.kappa2**2 + d2 * d2
        n1, n2 = scale * params.eps1**2 / l1, scale * params.eps2**2 / l2
        dn1 = -2.0 * params.g1 * d1 * n1 / l1
        dn2 = -2.0 * _detuning2_slope(params) * d2 * n2 / l2
        pref = params.hbar / (params.inertia * params.omega_phi**2)
        return steady_residual(phi, params, scale), 1.0 - pref * (-params.g1 * dn1 + params.g2 * dn2)

    polished = []
    for z in P.polyroots(coefficients):
        if abs(z.imag) <= _IMAG_TOL * abs(z):
            phi = sigma * float(z.real)
            defect, slope = defect_and_slope(phi)
            polished.append(phi - defect / slope if slope != 0.0 else phi)
    roots = []
    for r in sorted(polished):
        meets = abs(steady_residual(r, params, scale)) <= TOL_REL * max(abs(r), PHI_FLOOR)
        if meets and (not roots or abs(r - roots[-1]) > 1e-9 * max(abs(r), PHI_FLOOR)):
            roots.append(r)
    return [float(r).hex() for r in roots] or "NoConvergence"


_point = hst.builds(
    lambda bare, log_p1, p2, l1, l2, d1, d2: default_config(
        drive1_power=10.0**log_p1, drive2_power=p2, charge_l1=l1, charge_l2=l2, detuning1=d1 * OMEGA_PHI,
        detuning2=Detuning2Spec("bare" if bare else "effective", d2 * OMEGA_PHI)),
    hst.booleans(), hst.floats(min_value=-8.0, max_value=0.5), hst.sampled_from([0.0, 0.01, 0.1, 0.3]),
    hst.integers(min_value=-60, max_value=60), hst.sampled_from([0, 100, -100]),
    hst.one_of(hst.floats(min_value=-2.0, max_value=2.0), hst.just(1e300)), hst.floats(min_value=-2.0, max_value=2.0),
)


@given(configs=hst.lists(_point, min_size=1, max_size=6), k=hst.integers(min_value=-15, max_value=0))
@settings(deadline=None, max_examples=80)
def test_batched_roots_equal_the_per_point_loop(configs, k):
    """Every row of one batched root search holds the bits of the per-point loop on that row."""
    from oamcavity.steady import _find_roots

    batch = [derive_params(c) for c in configs]
    got = [r if isinstance(r, NoConvergence) else [phi.hex() for phi in r] for r in _find_roots(batch, 2.0**k)]
    assert [r if isinstance(r, list) else "NoConvergence" for r in got] == [_one_root_list(p, 2.0**k) for p in batch]
