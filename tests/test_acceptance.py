"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Several criteria assert figure-level behavior (the transmission valley
tracking the effective detuning) that the lossless one-sided output
relation T = |1 - 2*kappa1*c1+/eps_p|^2 cannot produce at the default
power scales: the probe's absorption dip stays locked to the mechanical
resonance (width ~gamma_phi/omega_phi ~ 5e-7 in x) and its depth
collapses once the detuning shift exceeds the cavity linewidth, while the
drive-2-induced shifts reach ~0.87*omega_phi.  Those criteria are
implemented exactly as stated and fail; the assertion messages carry the
measured numbers.  See README "Model findings and test status".
"""

import dataclasses
import math
import os
import time

import numpy as np
import pytest

from oamcavity import (
    NoInteriorMinimum,
    build_calibration,
    closed_form_c1p,
    default_config,
    derive_params,
    detuning_curve,
    estimate_oam,
    find_valley,
    sideband_response,
    solve_steady,
    transmission,
    transmission_at,
)
from oamcavity.response import transmission_many
from oamcavity.spectrum import shift_distance

from conftest import record_acceptance

JOBS = os.cpu_count() or 1


def report(criterion, ok, detail):
    # recorded for the terminal summary, which runs after pytest's capture
    record_acceptance(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def steady_for(**overrides):
    p = derive_params(default_config(**overrides))
    rep = solve_steady(p)
    assert not rep.multistable
    return p, rep.selected


@pytest.fixture(scope="module")
def weak_shift_grid():
    """Valleys and detunings for P1 = 0.1 uW, l2 = 100, P2 in {0, 50, 100} mW."""
    t0 = time.time()
    grid = {}
    for l1 in (50, -50):
        for p2 in (0.0, 0.05, 0.1):
            p, st = steady_for(drive1_power=0.1e-6, drive2_power=p2, charge_l1=l1)
            valley = find_valley(p, st)
            grid[(l1, p2)] = {
                "x_star": valley.x_star,
                "fwhm": valley.fwhm,
                "detuning_x": (st.delta1 - p.omega_phi) / p.omega_phi,
            }
    return grid, time.time() - t0


@pytest.fixture(scope="module")
def high_res_calibration():
    """Measurement-optimized template: P2 = 250 mW, F1 = 5*F2, l2 = 100."""
    tmpl = derive_params(default_config(
        drive1_power=0.1e-6, drive2_power=0.25, finesse1=2.5e5, charge_l1=0))
    t0 = time.time()
    curve = build_calibration(tmpl, -45, 45, jobs=JOBS)
    return tmpl, curve, time.time() - t0


def test_criterion_1_sign_opposite_shift(weak_shift_grid):
    grid, elapsed = weak_shift_grid
    pos = [grid[(50, p2)]["x_star"] for p2 in (0.0, 0.05, 0.1)]
    neg = [grid[(-50, p2)]["x_star"] for p2 in (0.0, 0.05, 0.1)]
    coincide = abs(pos[0] - neg[0])
    increasing = pos[0] < pos[1] < pos[2]
    decreasing = neg[0] > neg[1] > neg[2]
    ok = increasing and decreasing and coincide <= 1e-10 and elapsed < 10.0
    report(1, ok,
           f"x*(+50)={pos}, x*(-50)={neg}, |coincide|={coincide:.2e}, {elapsed:.1f}s")
    assert coincide <= 1e-10
    assert elapsed < 10.0
    assert increasing, (
        f"x*(P2) not strictly increasing for l1=+50: {pos} "
        "(valley is locked to the mechanical resonance; the detuning shift "
        "moves the dip depth, not its position)")
    assert decreasing, f"x*(P2) not strictly decreasing for l1=-50: {neg}"


def test_criterion_2_valley_tracks_detuning(weak_shift_grid):
    grid, _ = weak_shift_grid
    rows = []
    worst = None
    for (l1, p2), row in sorted(grid.items()):
        fwhm = row["fwhm"]
        defect = abs(row["x_star"] - row["detuning_x"])
        ok = fwhm is not None and defect <= fwhm / 10.0
        rows.append(ok)
        detail = (l1, p2, defect, fwhm)
        if not ok and worst is None:
            worst = detail
    report(2, all(rows), f"per-row ok={rows}, first failure={worst}")
    assert all(rows), (
        f"valley/detuning mismatch, e.g. l1={worst[0]}, P2={worst[1]} W: "
        f"|x* - detuning_x| = {worst[2]:.3e} vs fwhm/10 = "
        f"{(worst[3] / 10.0) if worst[3] else float('nan'):.3e} "
        "(the dip does not follow the effective detuning)")


def _symmetry_defect(p, st, valley):
    depth_ref = 1.0 - valley.t_min
    fwhm = valley.fwhm
    if fwhm is None:
        return math.inf
    deltas = np.linspace(fwhm / 20.0, fwhm / 2.0, 10)
    lo = transmission_many(p, st, p.omega_phi * (1 + valley.x_star - deltas))
    hi = transmission_many(p, st, p.omega_phi * (1 + valley.x_star + deltas))
    return float(np.max(np.abs(lo - hi))) / depth_ref


def test_criterion_3_window_symmetry_breaking():
    results = {}
    for p2 in (0.0, 0.1):
        p, st = steady_for(drive1_power=0.1, drive2_power=p2)
        try:
            valley = find_valley(p, st)
            results[p2] = _symmetry_defect(p, st, valley)
        except NoInteriorMinimum as err:
            results[p2] = f"no valley ({err})"
    sym_ok = isinstance(results[0.0], float) and results[0.0] <= 0.02
    asym_ok = isinstance(results[0.1], float) and results[0.1] > 0.10
    report(3, sym_ok and asym_ok,
           f"defect(P2=0)={results[0.0]}, defect(P2=100mW)={results[0.1]}")
    assert sym_ok, (
        f"symmetric-window check failed at P2=0: {results[0.0]} "
        "(strong drive with drive 2 off leaves no interior dip, only a "
        "shallow gain bump)")
    assert asym_ok, (
        f"asymmetry defect at P2=100mW is {results[0.1]}, needs > 0.10 "
        "(the surviving mechanical dip stays symmetric)")


def test_criterion_4_shift_distance_peaks_at_resonance():
    scan = [k * 0.05 for k in range(-20, 21)]
    best = {}
    for p2 in (0.1, 0.25):
        tmpl = derive_params(default_config(drive1_power=0.1e-6, drive2_power=p2, charge_l1=5))
        omega = tmpl.omega_phi
        rows = shift_distance(tmpl, 5, [s * omega for s in scan])
        valid = [(r[0], r[1]) for r in rows if r[2]]
        best[p2] = max(valid, key=lambda r: r[1]) if valid else None
    ok_peak = best[0.1] is not None and abs(best[0.1][0]) < 0.025
    ok_power = (
        best[0.25] is not None and best[0.1] is not None
        and best[0.25][1] > best[0.1][1]
    )
    report(4, ok_peak and ok_power, f"argmax(d): P2=100mW at {best[0.1]}, P2=250mW at {best[0.25]}")
    assert ok_peak, (
        f"d(Delta2) maximal at {best[0.1]}, not at Delta2 = 0 "
        "(d is valley-position jitter, not a physical shift)")
    assert ok_power, f"max d at 250 mW ({best[0.25]}) not above max d at 100 mW ({best[0.1]})"


def test_criterion_5_calibration_range(high_res_calibration):
    tmpl, curve, elapsed = high_res_calibration
    all_present = len(curve.entries) == 91 and not curve.failures
    r2 = curve.lin_fit[2] if curve.lin_fit else float("nan")
    roundtrip = 0
    invert_error = None
    try:
        for entry in curve.entries:
            if estimate_oam(curve, entry.x_star).l_hat == entry.charge:
                roundtrip += 1
    except Exception as err:  # noqa: BLE001 - reported below
        invert_error = f"{type(err).__name__}: {err}"
    fwhms = [e.fwhm for e in curve.entries if e.fwhm is not None]
    seps = [abs(b.x_star - a.x_star) for a, b in zip(curve.entries, curve.entries[1:])]
    sep_ok = bool(fwhms) and bool(seps) and min(seps) > min(fwhms) / 2.0
    ok = all_present and r2 > 0.99 and roundtrip == 91 and sep_ok and elapsed < 120.0
    report(5, ok,
           f"entries={len(curve.entries)}, failures={len(curve.failures)}, r2={r2:.4g}, "
           f"roundtrip={roundtrip}/91, invert_error={invert_error}, "
           f"min_sep={min(seps) if seps else None}, measurable_fwhm={len(fwhms)}, {elapsed:.0f}s")
    assert elapsed < 120.0
    assert all_present, (
        f"{len(curve.failures)} charges failed: {curve.failures[:4]} "
        "(the flat l1=0 spectrum has no valley)")
    assert r2 > 0.99, f"r^2 = {r2:.4g}: valley positions are resonance-locked jitter, not a line"
    assert invert_error is None and roundtrip == 91, (
        f"round trip {roundtrip}/91, inversion error: {invert_error}")
    assert sep_ok, "adjacent-charge separation does not exceed fwhm/2"


def test_criterion_6_single_cavity_sign_blindness():
    tmpl = derive_params(default_config(
        drive1_power=0.1e-6, drive2_power=0.0, finesse1=2.5e5, charge_l1=0))
    curve = build_calibration(tmpl, -45, 45, jobs=JOBS)
    xs = {e.charge: e.x_star for e in curve.entries}
    worst = 0.0
    for l in range(1, 46):
        if l in xs and -l in xs:
            denom = max(abs(xs[l]), abs(xs[-l]), 1e-30)
            worst = max(worst, abs(xs[l] - xs[-l]) / denom)
    ok = worst <= 1e-10
    report(6, ok, f"max relative parity defect = {worst:.3e} over {len(xs)} charges")
    assert ok, f"calibration with drive 2 dark is not even in l1: defect {worst:.3e}"


@pytest.mark.slow
def test_criterion_7_oracle_equivalence(oracle_equivalence):
    devs = [row["rel_dev"] for row in oracle_equivalence["sideband"]]
    relax = oracle_equivalence["relax_dev"]
    elapsed = oracle_equivalence["elapsed"]
    ok = max(devs) <= 1e-3 and max(relax.values()) <= 1e-6 and elapsed < 300.0
    report(7, ok,
           f"sideband rel devs={[f'{d:.1e}' for d in devs]}, relax devs="
           f"{{{', '.join(f'{k}:{v:.1e}' for k, v in relax.items())}}}, {elapsed:.0f}s")
    assert max(devs) <= 1e-3
    assert max(relax.values()) <= 1e-6
    assert elapsed < 300.0


def test_criterion_8_closed_form_cross_check():
    worst = 0.0
    for over in (
        dict(drive1_power=0.1, drive2_power=0.0),
        dict(drive1_power=0.1, drive2_power=0.1),
        dict(drive1_power=0.1e-6, drive2_power=0.1),
        dict(drive1_power=0.1e-6, drive2_power=0.25, charge_l1=-35),
    ):
        p, st = steady_for(**over)
        for x in np.linspace(-0.5, 0.5, 101):
            om = p.omega_phi * (1 + x)
            a = sideband_response(p, st, om).c1_plus
            b = closed_form_c1p(p, st, om)
            worst = max(worst, abs(a - b) / abs(a))
    ok = worst <= 1e-9
    report(8, ok, f"max |closed form - linear solve| / |c1+| = {worst:.3e} "
                  "(N1=|c1s|^2, N2=|c2s|^2 reading confirmed; linear solve authoritative)")
    assert ok


def test_criterion_9_property_suite(tmp_path):
    failures = []

    # probe-scale invariance to 1e-12
    p, st = steady_for(drive1_power=0.1e-6, drive2_power=0.1)
    p_big = derive_params(dataclasses.replace(p.config, probe_power=p.config.probe_power * 41.0))
    st_big = solve_steady(p_big).selected
    for x in (-0.2, 0.0, 1e-6):
        om = p.omega_phi * (1 + x)
        t1 = transmission(p, sideband_response(p, st, om).c1_plus)
        t2 = transmission(p_big, sideband_response(p_big, st_big, om).c1_plus)
        if abs(t1 - t2) > 1e-12 * max(t1, 1.0):
            failures.append(f"scale invariance broke at x={x}")

    # T == 1 when both couplings vanish
    p0, st0 = steady_for(charge_l1=0, charge_l2=0, drive1_power=0.1e-6, drive2_power=0.1)
    ts = transmission_many(p0, st0, p0.omega_phi * (1 + np.linspace(-0.5, 0.5, 64)))
    if not np.allclose(ts, 1.0, rtol=1e-12, atol=0):
        failures.append("T != 1 for g1 = g2 = 0")

    # passivity in the default regime
    ts = transmission_many(p, st, p.omega_phi * (1 + np.linspace(-0.5, 0.5, 512)))
    if not (np.all(ts >= 0.0) and np.all(ts <= 1.0 + 1e-6)):
        failures.append(f"passivity violated: T in [{ts.min()}, {ts.max()}]")

    # reality constraint on the mechanical sidebands
    for x in np.linspace(-0.4, 0.4, 9):
        r = sideband_response(p, st, p.omega_phi * (1 + x))
        if abs(r.phi_minus_conj - r.phi_plus) > 1e-10 * abs(r.phi_plus):
            failures.append(f"phi_- != conj(phi_+) at x={x}")

    # byte-identical reruns
    from oamcavity.cli import main
    import json

    cfg = tmp_path / "c.json"
    doc = {
        "drive1_power_w": 1e-7, "drive2_power_w": 0.1, "probe_power_w": 1e-13,
        "charge_l1": 50, "charge_l2": 100,
    }
    cfg.write_text(json.dumps(doc))
    outs = []
    for name in ("r1.csv", "r2.csv"):
        out = tmp_path / name
        assert main(["spectrum", "--config", str(cfg), "--x-lo=-1e-6", "--x-hi=1e-6", "-n", "64", "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    if outs[0] != outs[1]:
        failures.append("reruns are not byte-identical")

    report(9, not failures, f"failures={failures or 'none'}")
    assert not failures, failures


# Figure-level trend checks from the module contracts; same root cause as
# criteria 1-5, kept here so every red assertion lives in one file.


def test_figure_trend_linewidth_narrows_with_finesse():
    widths = {}
    for f1 in (5e4, 1e5):
        p, st = steady_for(drive1_power=0.1e-6, drive2_power=0.0, finesse1=f1)
        widths[f1] = find_valley(p, st).fwhm
    ratio = widths[1e5] / widths[5e4]
    ok = abs(ratio - 0.5) <= 0.05
    report("extra-linewidth", ok, f"fwhm ratio after doubling finesse = {ratio:.3f} (want 0.5)")
    assert ok, (
        f"fwhm ratio {ratio:.3f}: the dip width is the dressed mechanical "
        "linewidth, which does not scale with the cavity decay rate")


def test_figure_trend_detuning_curve_matches_calibration(high_res_calibration):
    tmpl, curve, _ = high_res_calibration
    det = dict(detuning_curve(tmpl, -45, 45))
    xs = {e.charge: e.x_star for e in curve.entries}
    mismatches = []
    for a, b in ((-30, 30), (-10, 10), (5, 25)):
        if a in xs and b in xs and det.get(a) is not None and det.get(b) is not None:
            cal_trend = math.copysign(1.0, xs[b] - xs[a])
            det_trend = math.copysign(1.0, det[b] - det[a])
            if cal_trend != det_trend:
                mismatches.append((a, b, cal_trend, det_trend))
    ok = not mismatches
    report("extra-detuning-trend", ok, f"mismatched charge pairs: {mismatches or 'none'}")
    assert ok, (
        f"calibration and detuning trends disagree: {mismatches} "
        "(the detuning responds to charge, the valley position does not)")
