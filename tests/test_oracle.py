import contextlib
import dataclasses
import math
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oamcavity import (
    PoorFit,
    StepSizeUnderflow,
    Trajectory,
    WindowTooShort,
    bare_detunings,
    default_config,
    demodulate,
    derive_params,
    integrate_mean_field,
    load_config,
    operating_point,
    solve_steady,
    transmission,
    transmission_at,
    transmission_oracle,
)
from oamcavity import oracle
from oamcavity.oracle import default_t_end


@pytest.mark.slow
def test_zero_drive_zero_trajectory():
    p = derive_params(default_config(drive1_power=0.0, drive2_power=0.0, probe_power=0.0))
    traj = integrate_mean_field(p, (p.detuning1, 0.0), None, 1e-6, p.omega_phi)
    assert np.all(traj.c1 == 0) and np.all(traj.c2 == 0)
    assert np.all(traj.phi == 0) and np.all(traj.phi_dot == 0)
    assert traj.stats["steps"] >= 1


@pytest.mark.slow
def test_decoupled_cavity_matches_analytic_solution():
    """g = 0 makes the c1 equation exactly solvable; frozen closed form below."""
    cfg = default_config(charge_l1=0, charge_l2=0, drive1_power=1e-6,
                         drive2_power=0.0, probe_power=1e-13)
    p = derive_params(cfg)
    om = p.omega_phi
    traj = integrate_mean_field(p, (p.detuning1, 0.0), None, 2e-6, om, tol=1e-12)
    a = p.kappa1 + 1j * p.detuning1
    worst = 0.0
    for i in range(0, len(traj.times), 7):
        t = traj.times[i]
        exact = p.eps1 / a * (1 - np.exp(-a * t)) + p.eps_p / (a - 1j * om) * (
            np.exp(-1j * om * t) - np.exp(-a * t)
        )
        if abs(exact) > 0:
            worst = max(worst, abs(traj.c1[i] - exact) / abs(exact))
    assert worst <= 1e-8


def test_trajectory_validation():
    t = np.array([0.0, 1.0, 2.0])
    z = np.zeros(3, dtype=complex)
    r = np.zeros(3)
    with pytest.raises(ValueError):
        Trajectory(times=t, c1=z[:2], c2=z, phi=r, phi_dot=r, stats={})
    with pytest.raises(ValueError):
        Trajectory(times=np.array([0.0, 2.0, 1.0]), c1=z, c2=z, phi=r, phi_dot=r, stats={})


def test_demodulate_recovers_exact_basis():
    om = 2 * math.pi * 1e7
    ts = np.linspace(0.0, 40 * 2 * math.pi / om, 20001)
    a, b, c = 2.0 - 1.0j, 3e-4 + 5e-5j, -2e-5 + 7e-5j
    c1 = a + b * np.exp(-1j * om * ts) + c * np.exp(1j * om * ts)
    traj = Trajectory(times=ts, c1=c1, c2=np.zeros_like(c1),
                      phi=np.zeros_like(ts), phi_dot=np.zeros_like(ts), stats={})
    dem = demodulate(traj, om, (ts[0], ts[-1]))
    assert dem.c1s_est == pytest.approx(a, rel=1e-10)
    assert dem.c1_plus_est == pytest.approx(b, rel=1e-10)
    assert dem.c1_minus_est == pytest.approx(c, rel=1e-10)
    assert dem.fit_residual_rms < 1e-10


def test_demodulate_window_too_short():
    om = 2 * math.pi * 1e7
    ts = np.linspace(0.0, 9 * 2 * math.pi / om, 2001)
    z = np.ones_like(ts) * (1 + 0j)
    traj = Trajectory(times=ts, c1=z, c2=z, phi=np.zeros_like(ts),
                      phi_dot=np.zeros_like(ts), stats={})
    with pytest.raises(WindowTooShort):
        demodulate(traj, om, (ts[0], ts[-1]))


def test_demodulate_flags_higher_harmonics():
    om = 2 * math.pi * 1e7
    ts = np.linspace(0.0, 40 * 2 * math.pi / om, 40001)
    c1 = 1e-4 * np.exp(-1j * om * ts) + 5e-5 * np.exp(-2j * om * ts)
    traj = Trajectory(times=ts, c1=c1, c2=np.zeros_like(c1),
                      phi=np.zeros_like(ts), phi_dot=np.zeros_like(ts), stats={})
    with pytest.raises(PoorFit):
        demodulate(traj, om, (ts[0], ts[-1]))


def test_default_t_end_capped():
    p = derive_params(default_config())
    assert default_t_end(p) == pytest.approx(
        min(20 / p.gamma_phi, 1e7 * 2 * math.pi / p.omega_phi)
    )


@pytest.mark.slow
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_step_size_underflow_on_blowup():
    # absurd drive amplitude overflows the torque term; the guard must
    # convert the integrator failure into a typed error
    p = derive_params(default_config(drive1_power=1e-6, drive2_power=0.0, probe_power=0.0))
    p = dataclasses.replace(p, eps1=1e160)
    with pytest.raises(StepSizeUnderflow):
        integrate_mean_field(p, (p.detuning1, 0.0), None, 1e-5, p.omega_phi)


@pytest.mark.slow
def test_sideband_equivalence(oracle_equivalence):
    for row in oracle_equivalence["sideband"]:
        assert row["rel_dev"] <= 1e-3, f"x = {row['x']}: rel dev {row['rel_dev']:.3e}"


@pytest.mark.slow
def test_demodulated_dc_matches_steady(oracle_equivalence):
    st = oracle_equivalence["steady"]
    for row in oracle_equivalence["sideband"]:
        assert abs(row["c1s_est"] - st.c1) / abs(st.c1) < 1e-4


@pytest.mark.slow
def test_relaxed_fixed_point_matches_solver(oracle_equivalence):
    dev = oracle_equivalence["relax_dev"]
    assert dev["c1"] <= 1e-6 and dev["c2"] <= 1e-6 and dev["phi"] <= 1e-6


@pytest.mark.slow
def test_vacuum_relaxation_single_cavity():
    p, = [derive_params(default_config(drive1_power=0.1, drive2_power=0.0,
                                       quality_factor=2e3, probe_power=1e-13))]
    st = solve_steady(p).selected
    traj = integrate_mean_field(p, bare_detunings(p, st), None, 40.0 / p.gamma_phi,
                                p.omega_phi, eps_p_scale=0.0)
    assert abs(traj.c1[-1] - st.c1) / abs(st.c1) <= 1e-6
    assert abs(traj.phi[-1] - st.phi) / abs(st.phi) <= 1e-6


@pytest.mark.slow
def test_demodulated_sideband_linear_in_probe(oracle_equivalence):
    p = oracle_equivalence["params"]
    st = oracle_equivalence["steady"]
    bare = oracle_equivalence["bare"]
    t_end = oracle_equivalence["t_end"]
    omega = p.omega_phi
    ref = next(r for r in oracle_equivalence["sideband"] if r["x"] == 0.0)
    half_scale = 0.5 * oracle_equivalence["probe_scale"]
    traj = integrate_mean_field(p, bare, (st.c1, st.c2, st.phi, 0.0), t_end, omega,
                                eps_p_scale=half_scale)
    dem = demodulate(traj, omega, (t_end - 21 * 2 * math.pi / omega, t_end))
    ratio = ref["demodulated"] / dem.c1_plus_est
    assert abs(ratio - 2.0) <= 1e-4 * 2.0


@pytest.mark.slow
def test_window_shift_invariance(oracle_equivalence):
    traj = oracle_equivalence["last_traj"]
    omega = oracle_equivalence["last_omega"]
    t_end = traj.times[-1]
    period = 2 * math.pi / omega
    d1 = demodulate(traj, omega, (t_end - 21 * period, t_end))
    d2 = demodulate(traj, omega, (t_end - 22 * period, t_end - period))
    assert abs(d1.c1_plus_est - d2.c1_plus_est) <= 1e-8 * abs(d1.c1_plus_est)


@pytest.mark.slow
def test_strong_probe_breaks_linearization(oracle_equivalence):
    p = oracle_equivalence["params"]
    st = oracle_equivalence["steady"]
    bare = oracle_equivalence["bare"]
    omega = p.omega_phi
    t_end = oracle_equivalence["t_end"]
    strong = 0.3 * p.eps1 / p.eps_p
    traj = integrate_mean_field(p, bare, (st.c1, st.c2, st.phi, 0.0), t_end, omega,
                                eps_p_scale=strong)
    window = (t_end - 21 * 2 * math.pi / omega, t_end)
    try:
        dem = demodulate(traj, omega, window)
    except PoorFit:
        return  # documented breakdown
    from oamcavity import sideband_response

    analytic = sideband_response(p, st, omega).c1_plus * strong
    assert abs(dem.c1_plus_est - analytic) / abs(analytic) >= 1e-2


@pytest.mark.slow
def test_transmission_oracle_decoupled_is_unity():
    # with g = 0 the model is exactly linear, so a healthy probe amplitude
    # keeps the demodulated sideband clear of the integrator's noise floor
    p = derive_params(default_config(charge_l1=0, charge_l2=0, drive1_power=1e-6,
                                     drive2_power=0.0, probe_power=1e-8))
    t = transmission_oracle(p, (p.detuning1, 0.0), p.omega_phi * 1.001, t_end=4e-5)
    assert t == pytest.approx(1.0, abs=1e-6)


@pytest.mark.slow
def test_sideband_oracle_window_rule(monkeypatch):
    """`sideband_oracle` demodulates the last 21 beat periods before t_end, bit for bit,
    and `transmission_oracle` is the output relation applied to its c1+."""
    p = derive_params(default_config(charge_l1=0, charge_l2=0, drive1_power=1e-6,
                                     drive2_power=0.0, probe_power=1e-8))
    bare, omega, t_end = (p.detuning1, 0.0), p.omega_phi * 1.001, 4e-5
    traj = integrate_mean_field(p, bare, None, t_end, omega)
    want = demodulate(traj, omega, (t_end - 21 * 2 * math.pi / omega, t_end))
    got = []
    measure = oracle.sideband_oracle

    def recorded(*args, **kwargs):  # one integration serves both checks
        got.append(measure(*args, **kwargs))
        return got[-1]

    monkeypatch.setattr(oracle, "sideband_oracle", recorded)
    t = transmission_oracle(p, bare, omega, t_end=t_end)
    assert got == [want]
    assert t == transmission(p, want.c1_plus_est)


@pytest.mark.slow
def test_transmission_oracle_matches_analytic_strong_drive():
    p = derive_params(default_config(drive1_power=0.1, drive2_power=0.0,
                                     quality_factor=2e3, probe_power=4e-10))
    st = solve_steady(p).selected
    t_o = transmission_oracle(p, bare_detunings(p, st), p.omega_phi,
                              t_end=20.0 / p.gamma_phi)
    t_a = transmission_at(p, st, p.omega_phi)
    assert abs(t_o - t_a) <= 1e-3


@pytest.mark.slow
def test_transmission_oracle_distinguishes_charge_sign():
    """End to end: opposite charges give measurably different outputs."""
    results = {}
    for l1 in (50, -50):
        p = derive_params(default_config(drive1_power=4e-3, drive2_power=0.1,
                                         charge_l1=l1, quality_factor=2e3,
                                         probe_power=4e-10))
        st = solve_steady(p).selected
        t_o = transmission_oracle(p, bare_detunings(p, st), p.omega_phi,
                                  t_end=20.0 / p.gamma_phi,
                                  initial_state=(st.c1, st.c2, st.phi, 0.0))
        t_a = transmission_at(p, st, p.omega_phi)
        assert abs(t_o - t_a) <= 1e-3
        results[l1] = t_o
    assert abs(results[50] - results[-50]) > 0.05


def _oracle_check_setting():
    """`oracle_check.json` at Q = 2e3 with the criterion-7 start and probe scale."""
    cfg = load_config(str(Path(__file__).resolve().parents[1] / "configs" / "oracle_check.json"))
    p, st = operating_point(dataclasses.replace(cfg, quality_factor=2e3))
    start = (st.c1, st.c2, st.phi, 0.0)
    return p, bare_detunings(p, st), start, 1e-3 * p.eps1 / p.eps_p


@pytest.mark.slow
def test_stepper_takes_the_steps_of_scipy_rk45():
    """Same step sequence as scipy's RK45 on the same equations and tolerances.

    The reference right-hand side is written out here from the model
    equations.  Step counts and RHS calls must match exactly; times and
    states differ only by rounding that the step control carries along, so
    they are held to 1e-9 (times relative, states against each amplitude's
    natural scale: |c1|, |c2|, |phi| and omega_phi * |phi|).
    """
    from scipy.integrate import solve_ivp

    p, bare, start, probe_scale = _oracle_check_setting()
    t_end = 0.25 / p.gamma_phi  # about 2000 steps
    omega = p.omega_phi
    traj = integrate_mean_field(p, bare, start, t_end, omega, eps_p_scale=probe_scale)

    dc1, dc2 = bare
    ep = probe_scale * p.eps_p

    def rhs(t, y):
        c1 = y[0] + 1j * y[1]
        c2 = y[2] + 1j * y[3]
        phi, phid = y[4], y[5]
        dc1_dt = -(p.kappa1 + 1j * (dc1 + p.g1 * phi)) * c1 + p.eps1 + ep * np.exp(-1j * omega * t)
        dc2_dt = -(p.kappa2 + 1j * (dc2 - p.g2 * phi)) * c2 + p.eps2
        torque = p.hbar / p.inertia * (p.g1 * abs(c1) ** 2 - p.g2 * abs(c2) ** 2)
        ddphi = -p.gamma_phi * phid - p.omega_phi**2 * phi - torque
        return [dc1_dt.real, dc1_dt.imag, dc2_dt.real, dc2_dt.imag, phid, ddphi]

    y0 = [start[0].real, start[0].imag, start[1].real, start[1].imag, start[2], start[3]]
    ref = solve_ivp(rhs, (0.0, t_end), y0, method="RK45",
                    rtol=traj.stats["rtol"], atol=traj.stats["atol"])
    assert ref.success
    assert 1500 <= traj.stats["steps"] <= 2500
    assert traj.stats["steps"] == len(ref.t) - 1
    assert traj.stats["nfev"] == ref.nfev
    np.testing.assert_allclose(traj.times, ref.t, rtol=1e-9, atol=0.0)

    c1_ref = ref.y[0] + 1j * ref.y[1]
    c2_ref = ref.y[2] + 1j * ref.y[3]
    phi_scale = np.max(np.abs(ref.y[4]))
    for got, want, scale in (
        (traj.c1, c1_ref, np.max(np.abs(c1_ref))),
        (traj.c2, c2_ref, np.max(np.abs(c2_ref))),
        (traj.phi, ref.y[4], phi_scale),
        (traj.phi_dot, ref.y[5], p.omega_phi * phi_scale),
    ):
        assert np.max(np.abs(got - want)) <= 1e-9 * scale


@contextlib.contextmanager
def _time_limit(seconds):
    """Raise TimeoutError in the block after `seconds` of wall time (where SIGALRM exists)."""
    if not hasattr(signal, "setitimer"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_stepper_matches_scipy_rk45_over_200_steps():
    """Fast guard on every Dormand-Prince stage: a mistyped stage changes the steps.

    About 200 steps of `_oracle_check_setting()` against scipy's RK45 on the
    model equations written out here; step count and RHS calls match
    exactly, times and states to 1e-9 (states against each amplitude's
    scale: |c1|, |c2|, |phi| and omega_phi * |phi|).  A wrong stage can also
    make the step size collapse, so the integration gets a time limit (it
    takes about 0.01 s) and fails instead of crawling.
    """
    from scipy.integrate import solve_ivp

    p, (dc1, dc2), start, probe_scale = _oracle_check_setting()
    t_end = 0.025 / p.gamma_phi
    omega = p.omega_phi
    ep = probe_scale * p.eps_p
    with _time_limit(30.0):
        traj = integrate_mean_field(p, (dc1, dc2), start, t_end, omega, eps_p_scale=probe_scale)

    def rhs(t, y):
        c1, c2, phi, phid = y[0] + 1j * y[1], y[2] + 1j * y[3], y[4], y[5]
        dc1_dt = -(p.kappa1 + 1j * (dc1 + p.g1 * phi)) * c1 + p.eps1 + ep * np.exp(-1j * omega * t)
        dc2_dt = -(p.kappa2 + 1j * (dc2 - p.g2 * phi)) * c2 + p.eps2
        torque = p.hbar / p.inertia * (p.g1 * abs(c1) ** 2 - p.g2 * abs(c2) ** 2)
        return [dc1_dt.real, dc1_dt.imag, dc2_dt.real, dc2_dt.imag, phid,
                -p.gamma_phi * phid - p.omega_phi**2 * phi - torque]

    y0 = [start[0].real, start[0].imag, start[1].real, start[1].imag, start[2], start[3]]
    ref = solve_ivp(rhs, (0.0, t_end), y0, method="RK45",
                    rtol=traj.stats["rtol"], atol=traj.stats["atol"])
    assert ref.success
    assert 150 <= traj.stats["steps"] <= 250
    assert traj.stats["steps"] == len(ref.t) - 1
    assert traj.stats["nfev"] == ref.nfev
    np.testing.assert_allclose(traj.times, ref.t, rtol=1e-9, atol=0.0)
    phi_scale = np.max(np.abs(ref.y[4]))
    for got, want, scale in (
        (traj.c1, ref.y[0] + 1j * ref.y[1], np.max(np.abs(ref.y[0] + 1j * ref.y[1]))),
        (traj.c2, ref.y[2] + 1j * ref.y[3], np.max(np.abs(ref.y[2] + 1j * ref.y[3]))),
        (traj.phi, ref.y[4], phi_scale),
        (traj.phi_dot, ref.y[5], p.omega_phi * phi_scale),
    ):
        assert np.max(np.abs(got - want)) <= 1e-9 * scale


def test_nan_right_hand_side_raises_step_size_underflow():
    """A NaN constant makes the first step NaN from a non-vacuum start; the guard raises on it."""
    equations = (0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0, math.nan)
    with _time_limit(30.0), pytest.raises(StepSizeUnderflow):
        oracle._dopri54_mean_field(equations, (1.0, 0.0, 0.0, 0.0, 0.0, 0.0), 1.0, 1e-6, (1e-6,) * 6)


@pytest.mark.parametrize("omega_probe, eps_p_scale", [(math.nan, 1.0), (math.inf, 1.0),
                                                      (1.0, math.nan), (1.0, -math.inf)])
def test_non_finite_probe_raises(omega_probe, eps_p_scale):
    p = derive_params(default_config(drive1_power=1e-6, drive2_power=0.0, probe_power=0.0))
    with _time_limit(30.0), pytest.raises(ValueError, match="finite"):
        integrate_mean_field(p, (p.detuning1, 0.0), None, 1e-7, omega_probe, eps_p_scale=eps_p_scale)


def _demodulate_on_whole_trajectory(traj, omega, window):
    """`demodulate`'s projection with splines fitted on every trajectory sample."""
    from scipy.interpolate import CubicSpline

    t0, t1 = window
    period = 2.0 * math.pi / omega
    n_per = int(math.floor((t1 - t0) / period))
    ts = np.linspace(t1 - n_per * period, min(t1, traj.times[-1]), min(32 * n_per, 65536))
    c1 = CubicSpline(traj.times, traj.c1.real)(ts) + 1j * CubicSpline(traj.times, traj.c1.imag)(ts)
    basis = np.column_stack([np.ones_like(ts), np.exp(-1j * omega * ts), np.exp(1j * omega * ts)])
    coef, *_ = np.linalg.lstsq(basis, c1, rcond=None)
    return coef


def test_window_spline_matches_whole_trajectory_spline():
    """`demodulate` fits its splines near the window only; the projection must not move.

    `oracle_check.json` at Q = 2e3 with finesse1 = 500, so cavity 1 settles
    (1/kappa1 = 5 ns) well inside the 20 beat periods (2e-6 s) integrated;
    one window ends at the trajectory's end, one inside it.
    """
    cfg = load_config(str(Path(__file__).resolve().parents[1] / "configs" / "oracle_check.json"))
    p, st = operating_point(dataclasses.replace(cfg, quality_factor=2e3, finesse1=500.0))
    omega = p.omega_phi
    period = 2.0 * math.pi / omega
    t_end = 20 * period
    with _time_limit(30.0):
        traj = integrate_mean_field(p, bare_detunings(p, st), (st.c1, st.c2, st.phi, 0.0), t_end,
                                    omega, eps_p_scale=1e-3 * p.eps1 / p.eps_p)
    assert len(traj.times) > 1000
    for window in ((t_end - 12 * period, t_end), (3.2 * period, 17.5 * period)):
        dem = demodulate(traj, omega, window)
        ref = _demodulate_on_whole_trajectory(traj, omega, window)
        for got, want in zip((dem.c1s_est, dem.c1_plus_est, dem.c1_minus_est), ref):
            assert abs(got - want) <= 1e-12 * abs(want)


def _recorded_and_whole(n_periods):
    """`_oracle_check_setting()` over `n_periods` beat periods at omega_phi: the
    `sideband_oracle` window, the whole trajectory and one recorded from the window's start."""
    p, bare, start, probe_scale = _oracle_check_setting()
    omega = p.omega_phi
    t_end = n_periods * 2.0 * math.pi / omega
    window = (t_end - oracle.WINDOW_PERIODS * 2.0 * math.pi / omega, t_end)
    with _time_limit(30.0):
        whole = integrate_mean_field(p, bare, start, t_end, omega, eps_p_scale=probe_scale)
        recorded = integrate_mean_field(p, bare, start, t_end, omega, eps_p_scale=probe_scale,
                                        t_record=window[0])
        measured = oracle.sideband_oracle(p, bare, omega, start, t_end, probe_scale)
    return omega, window, whole, recorded, measured


def test_recording_from_the_window_changes_no_result_and_no_count():
    """80 beat periods, about 2100 steps: the recorded tail demodulates bit for bit like the
    whole trajectory, `sideband_oracle` is that measurement, and `stats` counts every step."""
    omega, window, whole, recorded, measured = _recorded_and_whole(80)
    assert demodulate(recorded, omega, window) == demodulate(whole, omega, window) == measured
    for key in ("steps", "rejected_steps", "nfev"):
        assert recorded.stats[key] == whole.stats[key]
    assert whole.stats["steps"] == len(whole.times) - 1
    n_window = int(np.count_nonzero(whole.times >= window[0]))
    assert len(recorded.times) <= n_window + oracle._SPLINE_MARGIN + 2
    assert len(recorded.times) < len(whole.times) // 3
    np.testing.assert_array_equal(recorded.times, whole.times[-len(recorded.times):])
    np.testing.assert_array_equal(recorded.c1, whole.c1[-len(recorded.times):])


def test_window_before_the_recording_start_raises():
    """A window snaps to whole periods back from its right edge (21 here); one that starts
    a period early, or among the kept samples with less than the spline margin before it,
    is refused on the recorded trajectory and demodulated on the whole one."""
    omega, window, whole, recorded, _ = _recorded_and_whole(80)
    period = 2.0 * math.pi / omega
    inside_margin = recorded.times[5] + 0.25 * period  # 21.25 periods before t1, so 21 fitted
    for t1 in (window[1] - 1.5 * period, inside_margin + 21 * period):
        early = (t1 - 21.5 * period, t1)
        demodulate(whole, omega, early)
        with pytest.raises(ValueError, match="beyond the recorded trajectory"):
            demodulate(recorded, omega, early)


def test_step_attempts_are_bounded():
    """g1 = 1e6 lies outside the bound's rate (about 2 here): the optical spring drives the
    detuning far past it, the step collapses, and the 3000th attempt raises instead of crawling."""
    equations = (0.0, 0.0, 1.0, 1.0, 1e6, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1e6, 0.0)
    with _time_limit(30.0), pytest.raises(StepSizeUnderflow, match="3000 step attempts") as info:
        oracle._dopri54_mean_field(equations, (0.0,) * 6, 1.0, 1e-6, (1e-6,) * 6)
    assert 0.0 < info.value.t_divergence < 1.0


@pytest.mark.slow
def test_stats_count_every_rhs_call():
    p, bare, start, probe_scale = _oracle_check_setting()
    traj = integrate_mean_field(p, bare, start, 0.25 / p.gamma_phi, p.omega_phi,
                                eps_p_scale=probe_scale)
    stats = traj.stats
    assert stats["rejected_steps"] > 0
    assert stats["steps"] == len(traj.times) - 1
    # two calls pick the first step, then six per attempted step (FSAL)
    assert stats["nfev"] == 2 + 6 * (stats["steps"] + stats["rejected_steps"])


@pytest.mark.slow
@pytest.mark.parametrize("index, value", [(0, complex(math.nan, 0.0)), (2, math.inf)])
def test_non_finite_initial_state_raises(index, value):
    p = derive_params(default_config(drive1_power=1e-6, drive2_power=0.0, probe_power=0.0))
    start = [0j, 0j, 0.0, 0.0]
    start[index] = value
    with pytest.raises(ValueError, match="finite"):
        integrate_mean_field(p, (p.detuning1, 0.0), tuple(start), 1e-7, p.omega_phi)


@pytest.mark.slow
@pytest.mark.parametrize("t_end", [0.0, -1e-6])
def test_non_positive_t_end_raises(t_end):
    p = derive_params(default_config(drive1_power=1e-6, drive2_power=0.0, probe_power=0.0))
    with pytest.raises(ValueError, match="t_end"):
        integrate_mean_field(p, (p.detuning1, 0.0), None, t_end, p.omega_phi)


@pytest.mark.slow
def test_tol_below_100_eps_is_clipped_with_warning():
    p = derive_params(default_config(drive1_power=1e-6, drive2_power=0.0, probe_power=0.0))
    with pytest.warns(UserWarning, match="machine epsilon"):
        traj = integrate_mean_field(p, (p.detuning1, 0.0), None, 1e-9, p.omega_phi, tol=1e-20)
    assert traj.stats["rtol"] == 100 * np.finfo(float).eps


def test_import_loads_no_scipy():
    """Only `demodulate` needs scipy; importing the package and its CLI must not load it."""
    import oamcavity

    env = dict(os.environ)
    package_root = str(Path(oamcavity.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    code = (
        "import sys, oamcavity, oamcavity.cli\n"
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "assert 'scipy' not in sys.modules, loaded\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
