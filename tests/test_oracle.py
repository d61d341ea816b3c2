import contextlib
import dataclasses
import math
import os
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from oamcavity import (
    NoConvergence,
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
from oamcavity.oracle import window_times
from oamcavity.response import dressed_mode


@pytest.mark.slow
def test_zero_drive_zero_trajectory():
    p = derive_params(default_config(drive1_power=0.0, drive2_power=0.0, probe_power=0.0))
    traj = integrate_mean_field(p, (p.detuning1, 0.0), None, np.linspace(0.0, 1e-6, 11), p.omega_phi)
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
    traj = integrate_mean_field(p, (p.detuning1, 0.0), None, np.linspace(0.0, 2e-6, 301), om,
                                tol=1e-12)
    a = p.kappa1 + 1j * p.detuning1
    worst = 0.0
    for i, t in enumerate(traj.times):
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
    dem = demodulate(traj.times, traj.c1, om)
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
        demodulate(traj.times, traj.c1, om)


def test_demodulate_flags_higher_harmonics():
    om = 2 * math.pi * 1e7
    ts = np.linspace(0.0, 40 * 2 * math.pi / om, 40001)
    c1 = 1e-4 * np.exp(-1j * om * ts) + 5e-5 * np.exp(-2j * om * ts)
    traj = Trajectory(times=ts, c1=c1, c2=np.zeros_like(c1),
                      phi=np.zeros_like(ts), phi_dot=np.zeros_like(ts), stats={})
    with pytest.raises(PoorFit):
        demodulate(traj.times, traj.c1, om)


@pytest.mark.slow
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_step_size_underflow_on_blowup():
    # absurd drive amplitude overflows the torque term; the guard must
    # convert the integrator failure into a typed error
    p = derive_params(default_config(drive1_power=1e-6, drive2_power=0.0, probe_power=0.0))
    p = dataclasses.replace(p, eps1=1e160)
    with pytest.raises(StepSizeUnderflow):
        integrate_mean_field(p, (p.detuning1, 0.0), None, (1e-5,), p.omega_phi)


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
    traj = integrate_mean_field(p, bare_detunings(p, st), None, (40.0 / p.gamma_phi,),
                                p.omega_phi, eps_p_scale=0.0)
    assert abs(traj.c1[-1] - st.c1) / abs(st.c1) <= 1e-6
    assert abs(traj.phi[-1] - st.phi) / abs(st.phi) <= 1e-6


@pytest.mark.slow
def test_demodulated_sideband_linear_in_probe(oracle_equivalence):
    p = oracle_equivalence["params"]
    st = oracle_equivalence["steady"]
    bare = oracle_equivalence["bare"]
    omega = p.omega_phi
    ref = next(r for r in oracle_equivalence["sideband"] if r["x"] == 0.0)
    half_scale = 0.5 * oracle_equivalence["probe_scale"]
    dem = oracle.sideband_oracle(p, bare, omega, (st.c1, st.c2, st.phi, 0.0), half_scale)
    ratio = ref["demodulated"] / dem.c1_plus_est
    assert abs(ratio - 2.0) <= 1e-4 * 2.0


@pytest.mark.slow
def test_window_shift_invariance(oracle_equivalence):
    traj = oracle_equivalence["last_traj"]  # 22 beat periods up to t_end
    omega = oracle_equivalence["last_omega"]
    n = oracle.WINDOW_PERIODS * oracle.SAMPLES_PER_PERIOD
    d1 = demodulate(traj.times[-n:], traj.c1[-n:], omega)
    d2 = demodulate(traj.times[:n], traj.c1[:n], omega)  # one period earlier
    assert abs(d1.c1_plus_est - d2.c1_plus_est) <= 1e-8 * abs(d1.c1_plus_est)


@pytest.mark.slow
def test_strong_probe_breaks_linearization(oracle_equivalence):
    p = oracle_equivalence["params"]
    st = oracle_equivalence["steady"]
    bare = oracle_equivalence["bare"]
    omega = p.omega_phi
    strong = 0.3 * p.eps1 / p.eps_p
    try:
        dem = oracle.sideband_oracle(p, bare, omega, (st.c1, st.c2, st.phi, 0.0), strong)
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
    t = transmission_oracle(p, (p.detuning1, 0.0), p.omega_phi * 1.001)
    assert t == pytest.approx(1.0, abs=1e-6)


@pytest.mark.slow
def test_sideband_oracle_window_rule(monkeypatch):
    """`sideband_oracle` demodulates 21 beat periods T = 2*pi/omega of the periodic orbit, sampled
    32 times a period from its `orbit_state` at t = 0, bit for bit, and `transmission_oracle` is
    the output relation applied to its c1+."""
    p = derive_params(default_config(charge_l1=0, charge_l2=0, drive1_power=1e-6,
                                     drive2_power=0.0, probe_power=1e-8))
    bare, omega = (p.detuning1, 0.0), p.omega_phi * 1.001
    period = 2 * math.pi / omega
    got = []
    measure = oracle.sideband_oracle

    def recorded(*args, **kwargs):  # one measurement serves both checks
        got.append(measure(*args, **kwargs))
        return got[-1]

    monkeypatch.setattr(oracle, "sideband_oracle", recorded)
    t = transmission_oracle(p, bare, omega)
    assert len(got) == 1
    times = window_times(omega, 21 * period)
    assert len(times) == 21 * 32 and times[-1] == 21 * period
    np.testing.assert_allclose(np.diff(times), period / 32, rtol=1e-6)
    traj = integrate_mean_field(p, bare, got[0].orbit_state, times, omega)
    want = demodulate(traj.times, traj.c1, omega)
    assert got == [dataclasses.replace(want, orbit_state=got[0].orbit_state,
                                       max_multiplier=got[0].max_multiplier)]
    assert t == transmission(p, want.c1_plus_est)


@pytest.mark.slow
def test_transmission_oracle_matches_analytic_strong_drive():
    p = derive_params(default_config(drive1_power=0.1, drive2_power=0.0,
                                     quality_factor=2e3, probe_power=4e-10))
    st = solve_steady(p).selected
    t_o = transmission_oracle(p, bare_detunings(p, st), p.omega_phi)
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


def _complex_form_rhs(p, bare, omega, ep):
    """The model equations in complex form, written out independently of `oracle`."""
    dc1, dc2 = bare

    def rhs(y, t):
        c1, c2, phi, phid = y[0] + 1j * y[1], y[2] + 1j * y[3], y[4], y[5]
        dc1_dt = -(p.kappa1 + 1j * (dc1 + p.g1 * phi)) * c1 + p.eps1 + ep * np.exp(-1j * omega * t)
        dc2_dt = -(p.kappa2 + 1j * (dc2 - p.g2 * phi)) * c2 + p.eps2
        torque = p.hbar / p.inertia * (p.g1 * abs(c1) ** 2 - p.g2 * abs(c2) ** 2)
        return np.array([dc1_dt.real, dc1_dt.imag, dc2_dt.real, dc2_dt.imag, phid,
                         -p.gamma_phi * phid - p.omega_phi**2 * phi - torque])

    return rhs


def _built_rhs(monkeypatch):
    """Record every right-hand side `integrate_mean_field` builds, each wrapped to count its calls."""
    built = []
    make = oracle._mean_field_rhs

    def counting(equations):
        rhs = make(equations)

        def wrapped(y, t):
            wrapped.calls += 1
            return rhs(y, t)

        wrapped.calls = 0
        wrapped.inner = rhs
        built.append(wrapped)
        return wrapped

    monkeypatch.setattr(oracle, "_mean_field_rhs", counting)
    return built


def test_rhs_matches_complex_form_equations(monkeypatch):
    """The one right-hand side, as `integrate_mean_field` builds it from the parameters, equals
    the complex-form equations to 1e-14 at 300 random states and times: a mistyped term or
    constant shows here.  Each component is held against the sum of its terms' magnitudes."""
    p, bare, start, probe_scale = _oracle_check_setting()
    omega = p.omega_phi * (1.0 + 3e-4)
    built = _built_rhs(monkeypatch)
    integrate_mean_field(p, bare, start, (1e-9,), omega, eps_p_scale=probe_scale)
    rhs = built[0].inner
    want_rhs = _complex_form_rhs(p, bare, omega, probe_scale * p.eps_p)
    rng = np.random.default_rng(7)
    scale = np.array([abs(start[0])] * 2 + [abs(start[1])] * 2
                     + [abs(start[2]), p.omega_phi * abs(start[2])])
    for _ in range(300):
        y = scale * rng.uniform(-2.0, 2.0, 6)
        t = rng.uniform(0.0, 20.0 / p.gamma_phi)
        got, want = np.array(rhs(y, t)), want_rhs(y, t)
        c1, c2, phi = abs(complex(y[0], y[1])), abs(complex(y[2], y[3])), abs(y[4])
        terms = np.array([
            p.kappa1 * c1 + abs(bare[0] + p.g1 * y[4]) * c1 + p.eps1 + probe_scale * p.eps_p,
            p.kappa2 * c2 + abs(bare[1] - p.g2 * y[4]) * c2 + p.eps2,
        ])
        bound = np.array([terms[0], terms[0], terms[1], terms[1], abs(y[5]),
                          p.gamma_phi * abs(y[5]) + p.omega_phi**2 * phi
                          + p.hbar / p.inertia * (abs(p.g1) * c1**2 + abs(p.g2) * c2**2)])
        assert np.all(np.abs(got - want) <= 1e-14 * bound), (y, t, got, want)


def _criterion_7_orbits(oracle_equivalence):
    """(row, omega, shooting result) at each of the five criterion-7 probe detunings."""
    p = oracle_equivalence["params"]
    st = oracle_equivalence["steady"]
    for row in oracle_equivalence["sideband"]:
        omega = p.omega_phi * (1.0 + row["x"])
        yield row, omega, oracle.sideband_oracle(p, oracle_equivalence["bare"], omega,
                                                 (st.c1, st.c2, st.phi, 0.0),
                                                 oracle_equivalence["probe_scale"])


@pytest.mark.slow
def test_shooting_matches_twenty_damping_times(oracle_equivalence):
    """The periodic-orbit c1+ lies within 1e-6 (relative) of the demodulated tail of a run over 20
    mechanical damping times from the same start, the brute-force rule it replaces."""
    for row, _, got in _criterion_7_orbits(oracle_equivalence):
        want = row["demodulated"]
        assert abs(got.c1_plus_est - want) <= 1e-6 * abs(want), row["x"]


@pytest.mark.slow
def test_shooting_matches_tight_tolerance_shooting(oracle_equivalence):
    """At the default tol, c1+ lies within 1e-6 (relative) of an rtol = 1e-13 shooting run."""
    p, bare, scale = (oracle_equivalence[k] for k in ("params", "bare", "probe_scale"))
    st = oracle_equivalence["steady"]
    for row, omega, got in _criterion_7_orbits(oracle_equivalence):
        orbit, _ = oracle.periodic_orbit(p, bare, omega, (st.c1, st.c2, st.phi, 0.0), scale, tol=1e-13)
        times = window_times(omega, oracle.WINDOW_PERIODS * 2 * math.pi / omega)
        traj = integrate_mean_field(p, bare, orbit, times, omega, tol=1e-13, eps_p_scale=scale)
        want = demodulate(traj.times, traj.c1, omega).c1_plus_est
        assert abs(got.c1_plus_est - want) <= 1e-6 * abs(want), row["x"]


@pytest.mark.slow
def test_max_multiplier_is_the_dressed_mechanical_mode(oracle_equivalence):
    """The largest Floquet multiplier is the dressed mechanical pole's decay over one beat period,
    exp(-pi*width*omega_phi/omega), with width = 2|Im Omega_m|/omega_phi from `dressed_mode`."""
    p = oracle_equivalence["params"]
    _, width = dressed_mode(p, oracle_equivalence["steady"])
    for row, omega, got in _criterion_7_orbits(oracle_equivalence):
        assert got.max_multiplier == pytest.approx(math.exp(-math.pi * width * p.omega_phi / omega),
                                                   abs=1e-6), row["x"]


@pytest.mark.slow
def test_unstable_orbit_refused():
    """Root 0 of `bistable_demo.json` is not an attractor: its orbit's largest Floquet multiplier is
    1.0115, and the oracle refuses it instead of demodulating a state no run settles on."""
    p = derive_params(load_config(str(Path(__file__).resolve().parents[1] / "configs" / "bistable_demo.json")))
    st = solve_steady(p).all_roots[0]
    with pytest.raises(NoConvergence, match=r"periodic orbit unstable: Floquet multiplier \|mu\| = 1\.0115"):
        oracle.sideband_oracle(p, bare_detunings(p, st), p.omega_phi, (st.c1, st.c2, st.phi, 0.0),
                               1e-3 * p.eps1 / p.eps_p)


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


def _lsoda_failure(equations, y_start, rtol=1e-6):
    """Run `oracle._lsoda` over [0, 1] s, expecting StepSizeUnderflow and no warning of any kind."""
    with _time_limit(30.0), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(StepSizeUnderflow) as info:
            oracle._lsoda(equations, y_start, np.array([0.0, 1.0]), rtol, (1e-6,) * 6)
    assert caught == []
    return info.value


def test_nan_right_hand_side_raises_step_size_underflow():
    """A NaN constant makes the state NaN from a non-vacuum start; LSODA reports success on it,
    and the finite-state check raises."""
    equations = (0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0, math.nan)
    err = _lsoda_failure(equations, (1.0, 0.0, 0.0, 0.0, 0.0, 0.0))
    assert "not finite" in str(err)


def test_step_attempts_are_bounded():
    """g1 = 1e6 lies outside the bound's rate (about 2 here): the optical spring drives the
    detuning far past it, the step collapses, and the 3000th step raises instead of crawling."""
    equations = (0.0, 0.0, 1.0, 1.0, 1e6, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1e6, 0.0)
    err = _lsoda_failure(equations, (0.0,) * 6)
    assert "at most 3000 steps" in str(err) and "Excess work done" in str(err)
    assert 0.0 < err.t_divergence < 1.0


def test_illegal_rtol_raises_step_size_underflow():
    """LSODA refuses a negative rtol as illegal input; that becomes StepSizeUnderflow at t = 0."""
    equations = (0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0, 1.0)
    err = _lsoda_failure(equations, (0.0,) * 6, rtol=-1e-6)
    assert "Illegal input" in str(err)
    assert err.t_divergence == 0.0


@pytest.mark.parametrize("omega_probe, eps_p_scale", [(math.nan, 1.0), (math.inf, 1.0),
                                                      (1.0, math.nan), (1.0, -math.inf)])
def test_non_finite_probe_raises(omega_probe, eps_p_scale):
    p = derive_params(default_config(drive1_power=1e-6, drive2_power=0.0, probe_power=0.0))
    with _time_limit(30.0), pytest.raises(ValueError, match="finite"):
        integrate_mean_field(p, (p.detuning1, 0.0), None, (1e-7,), omega_probe, eps_p_scale=eps_p_scale)


def test_stats_count_every_rhs_call(monkeypatch):
    """`stats["nfev"]` is every call of the right-hand side, counted here by a wrapper."""
    p, bare, start, probe_scale = _oracle_check_setting()
    built = _built_rhs(monkeypatch)
    traj = integrate_mean_field(p, bare, start, np.linspace(0.0, 0.025 / p.gamma_phi, 50),
                                p.omega_phi, eps_p_scale=probe_scale)
    assert len(built) == 1 and built[0].calls > 1000
    assert traj.stats["nfev"] == built[0].calls
    assert 0 < traj.stats["steps"] < traj.stats["nfev"]


@pytest.mark.slow
@pytest.mark.parametrize("index, value", [(0, complex(math.nan, 0.0)), (2, math.inf)])
def test_non_finite_initial_state_raises(index, value):
    p = derive_params(default_config(drive1_power=1e-6, drive2_power=0.0, probe_power=0.0))
    start = [0j, 0j, 0.0, 0.0]
    start[index] = value
    with pytest.raises(ValueError, match="finite"):
        integrate_mean_field(p, (p.detuning1, 0.0), tuple(start), (1e-7,), p.omega_phi)


@pytest.mark.slow
@pytest.mark.parametrize("t_end", [0.0, -1e-6])
def test_non_positive_t_end_raises(t_end):
    p = derive_params(default_config(drive1_power=1e-6, drive2_power=0.0, probe_power=0.0))
    with pytest.raises(ValueError, match="t_end"):
        integrate_mean_field(p, (p.detuning1, 0.0), None, (t_end,), p.omega_phi)


@pytest.mark.slow
def test_tol_below_100_eps_is_clipped_with_warning():
    p = derive_params(default_config(drive1_power=1e-6, drive2_power=0.0, probe_power=0.0))
    with pytest.warns(UserWarning, match="machine epsilon"):
        traj = integrate_mean_field(p, (p.detuning1, 0.0), None, (1e-9,), p.omega_phi, tol=1e-20)
    assert traj.stats["rtol"] == 100 * np.finfo(float).eps


def test_import_loads_no_scipy():
    """Only `integrate_mean_field` needs scipy; importing the package and its CLI must not load it."""
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
