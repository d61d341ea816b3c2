import time

import pytest

from oamcavity import (
    bare_detunings,
    default_config,
    demodulate,
    derive_params,
    integrate_mean_field,
    sideband_response,
    solve_steady,
)
from oamcavity.oracle import SAMPLES_PER_PERIOD, WINDOW_PERIODS, window_times


def steady_for(**overrides):
    params = derive_params(default_config(**overrides))
    report = solve_steady(params)
    assert not report.multistable
    return params, report.selected


ACCEPTANCE_LINES = []


def record_acceptance(line):
    ACCEPTANCE_LINES.append(line)
    print(line, flush=True)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def weak_dark():
    """Weak drive-1, drive-2 off: the measurable 10%-deep dip near x = 0."""
    return steady_for(drive1_power=0.1e-6, drive2_power=0.0)


@pytest.fixture(scope="session")
def weak_bright():
    """Weak drive-1, drive-2 at 100 mW: large static detuning shift."""
    return steady_for(drive1_power=0.1e-6, drive2_power=0.1)


@pytest.fixture(scope="session")
def strong_omit():
    """Strong drive-1 (100 mW), drive-2 off."""
    return steady_for(drive1_power=0.1, drive2_power=0.0)


@pytest.fixture(scope="session")
def decoupled():
    """Both charges zero: probe sees a bare one-sided cavity."""
    return steady_for(charge_l1=0, charge_l2=0, drive1_power=0.1e-6, drive2_power=0.1)


@pytest.fixture(scope="session")
def oracle_equivalence():
    """Shared fast-relaxation oracle runs: probed sidebands plus fixed-point relax.

    Quality factor lowered to 2e3 (the equivalence being checked is
    structural, not parameter-specific) and the probe set to 1e-3 of the
    drive amplitude.  Expensive; computed once per session.
    """
    t_start = time.time()
    p, st = steady_for(
        drive1_power=4e-3, drive2_power=0.1, quality_factor=2e3, probe_power=1e-13
    )
    bare = bare_detunings(p, st)
    probe_scale = 1e-3 * p.eps1 / p.eps_p
    t_end = 20.0 / p.gamma_phi

    coop = p.hbar * p.g1**2 * st.n1 / (p.inertia * p.omega_phi * p.kappa1 * p.gamma_phi)
    fwhm_x = p.gamma_phi * (1.0 + coop) / p.omega_phi
    xs = [-fwhm_x, -0.5 * fwhm_x, 0.0, 0.5 * fwhm_x, fwhm_x]

    sideband = []
    last_traj = None
    last_omega = None
    n_window = WINDOW_PERIODS * SAMPLES_PER_PERIOD
    for x in xs:
        omega = p.omega_phi * (1.0 + x)
        # one period more than `sideband_oracle` samples, for the window-shift test
        traj = integrate_mean_field(
            p, bare, (st.c1, st.c2, st.phi, 0.0), window_times(omega, t_end, WINDOW_PERIODS + 1),
            omega, eps_p_scale=probe_scale
        )
        demod = demodulate(traj.times[-n_window:], traj.c1[-n_window:], omega)
        analytic = sideband_response(p, st, omega).c1_plus * probe_scale
        sideband.append(
            {
                "x": x,
                "analytic": analytic,
                "demodulated": demod.c1_plus_est,
                "rel_dev": abs(demod.c1_plus_est - analytic) / abs(analytic),
                "c1s_est": demod.c1s_est,
            }
        )
        last_traj, last_omega = traj, omega

    relax_t_end = 40.0 / p.gamma_phi
    start = (0.9999 * st.c1, 0.9999 * st.c2, 0.9999 * st.phi, 0.0)
    relax = integrate_mean_field(p, bare, start, (relax_t_end,), p.omega_phi, eps_p_scale=0.0)
    relax_dev = {
        "c1": abs(relax.c1[-1] - st.c1) / abs(st.c1),
        "c2": abs(relax.c2[-1] - st.c2) / abs(st.c2),
        "phi": abs(relax.phi[-1] - st.phi) / abs(st.phi),
    }
    return {
        "params": p,
        "steady": st,
        "bare": bare,
        "probe_scale": probe_scale,
        "t_end": t_end,
        "sideband": sideband,
        "relax_dev": relax_dev,
        "last_traj": last_traj,
        "last_omega": last_omega,
        "elapsed": time.time() - t_start,
    }
