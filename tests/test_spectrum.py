import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from oamcavity import (
    ConfigError,
    DipTooShallow,
    Multistable,
    NoInteriorMinimum,
    derive_params,
    default_config,
    detuning_curve,
    find_valley,
    linewidth,
    response,
    sample_spectrum,
    shift_distance,
    solve_steady,
    spectrum,
)
from oamcavity.params import Detuning2Spec, load_config
from oamcavity.response import (
    closed_form_c1p,
    transmission,
    transmission_at,
    transmission_many,
)
from oamcavity.spectrum import sweep, sweep_values
from oamcavity.steady import operating_point


def synthetic_lorentzian_spectrum(kappa_t, x0, depth, x_lo, x_hi, n):
    xs = np.linspace(x_lo, x_hi, n)
    return xs, 1.0 - depth * kappa_t**2 / (kappa_t**2 + (xs - x0) ** 2)


def test_sample_spectrum_validation(weak_dark):
    p, st = weak_dark
    with pytest.raises(ValueError):
        sample_spectrum(p, st, 0.1, -0.1, 10)
    with pytest.raises(ValueError):
        sample_spectrum(p, st, -0.1, 0.1, 2)


def test_sample_spectrum_points_match_per_sample_build(weak_dark):
    """The arrays equal the grid and the kernel output at its detunings, bit for bit."""
    p, st = weak_dark
    xs = np.linspace(-0.01, 0.01, 257)
    ts = transmission_many(p, st, p.omega_phi * (1.0 + xs))
    got = sample_spectrum(p, st, -0.01, 0.01, 257)
    for name, have, want in (("xs", got[0], xs), ("ts", got[1], ts)):
        assert [v.hex() for v in have.tolist()] == [v.hex() for v in want.tolist()], name


def test_flat_spectrum_when_decoupled(decoupled):
    p, st = decoupled
    _, ts = sample_spectrum(p, st, -0.2, 0.2, 3)
    assert len(ts) == 3
    for t in ts:
        assert t == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(NoInteriorMinimum):
        find_valley(p, st)


def test_spectrum_x_strictly_increasing(weak_dark):
    p, st = weak_dark
    xs, _ = sample_spectrum(p, st, -0.01, 0.01, 64)
    assert np.all(np.diff(xs) > 0)


def test_synthetic_lorentzian_linewidth():
    kappa_t = 1.3e-3
    x0 = 0.004
    xs, ts = synthetic_lorentzian_spectrum(kappa_t, x0, 0.8, x0 - 16 * kappa_t, x0 + 16 * kappa_t, 4096)
    w = linewidth(xs, ts, x0, 0.2)
    assert w == pytest.approx(2 * kappa_t, rel=1e-2)


def test_linewidth_rejects_shallow_dip():
    xs, ts = synthetic_lorentzian_spectrum(1e-3, 0.0, 5e-4, -0.02, 0.02, 2048)
    with pytest.raises(DipTooShallow):
        linewidth(xs, ts, 0.0, 1.0 - 5e-4)


def _walked_linewidth(xs, ts, x_star, t_min):
    """Reference: walk outward from the valley sample to the first crossing."""
    k = max(1, int(round(0.05 * len(xs))))
    half = 0.5 * (float(np.median(np.concatenate([ts[:k], ts[-k:]]))) + t_min)
    i0 = int(np.argmin(np.abs(xs - x_star)))

    def cross(direction):
        i = i0
        while 0 <= i + direction < len(xs):
            j = i + direction
            if (ts[i] - half) * (ts[j] - half) <= 0.0 and ts[i] != ts[j]:
                return float(xs[i] + (half - ts[i]) / (ts[j] - ts[i]) * (xs[j] - xs[i]))
            i = j
        raise ValueError("no crossing")

    return cross(+1) - cross(-1)


def test_linewidth_crossings_match_walked_reference():
    rng = np.random.default_rng(7)
    xs = np.linspace(-1.0, 1.0, 401)
    fano = 1.0 - 0.9 / (1.0 + ((xs - 0.1) / 0.05) ** 2) + 0.2 * xs / (1.0 + (xs / 0.3) ** 2)
    side_dips = sum(0.8 / (1.0 + ((xs - c) / 0.05) ** 2) for c in (-0.6, 0.6))
    noisy = fano - side_dips + 0.02 * rng.standard_normal(len(xs))  # several crossings per side
    plateau = np.where(np.abs(xs) < 0.3, 0.5, 1.0)  # flat exactly on half depth
    one_sided = np.where(xs < 0.5, 0.0, 1.0)
    cases = [(fano, 0.1, fano.min()), (noisy, 0.1, noisy.min()), (plateau, 0.0, 0.0),
             (one_sided, 0.0, 0.0)]
    cases += [(r, 0.0, r.min()) for r in 1.0 - np.abs(rng.standard_normal((20, len(xs))))]
    for ts, x_star, t_min in cases:
        try:
            want = _walked_linewidth(xs, ts, x_star, float(t_min))
        except ValueError:
            with pytest.raises(ValueError):
                linewidth(xs, ts, x_star, float(t_min))
            continue
        assert linewidth(xs, ts, x_star, float(t_min)) == want


def test_weak_drive_valley_placement_and_depth(weak_dark):
    p, st = weak_dark
    v = find_valley(p, st)
    assert v.curvature_sign_ok
    assert v.window[0] < v.x_star < v.window[1]
    assert abs(v.x_star) < 1e-6  # locked to the mechanical resonance
    # independent closed-form depth: T_min = 1 - 4C/(1+C)^2
    coop = (2 * p.hbar * p.g1**2 * st.n1
            / (2 * p.inertia * p.omega_phi * p.kappa1 * p.gamma_phi))
    t_min_expected = 1 - 4 * coop / (1 + coop) ** 2
    assert v.t_min == pytest.approx(t_min_expected, abs=2e-3)
    # independent half-depth width: 2*(G + kappa*gamma/2)/kappa in Omega
    g_eff = p.hbar * p.g1**2 * st.n1 / (2 * p.inertia * p.omega_phi)
    fwhm_expected = 2 * (g_eff + p.kappa1 * p.gamma_phi / 2) / p.kappa1 / p.omega_phi
    assert v.fwhm == pytest.approx(fwhm_expected, rel=0.05)


def test_refinement_consistency(weak_dark, monkeypatch):
    p, st = weak_dark
    monkeypatch.setattr(spectrum, "COARSE_POINTS", 1024)
    v1 = find_valley(p, st)
    monkeypatch.setattr(spectrum, "COARSE_POINTS", 2048)
    v2 = find_valley(p, st)
    assert abs(v1.x_star - v2.x_star) < 1e-9


def test_valley_invariant_under_probe_power(weak_dark):
    p, st = weak_dark
    cfg = dataclasses.replace(p.config, probe_power=p.config.probe_power * 1e4)
    p2 = derive_params(cfg)
    st2 = solve_steady(p2).selected
    v1 = find_valley(p, st)
    v2 = find_valley(p2, st2)
    assert abs(v1.x_star - v2.x_star) <= 1e-12


def test_shallow_valley_has_no_fwhm(weak_bright):
    # at 100 mW drive-2 the dip depth collapses below the measurement floor
    p, st = weak_bright
    v = find_valley(p, st)
    assert v.fwhm is None
    assert v.t_min > 0.999


def test_shift_distance_rows_and_mirror_pair():
    tmpl = derive_params(default_config(drive1_power=0.1e-6, drive2_power=0.0, charge_l1=5))
    rows = shift_distance(tmpl, 5, [0.0])
    assert len(rows) == 1
    d2_over_omega, d5, valid = rows[0]
    assert valid and d2_over_omega == 0.0 and math.isfinite(d5)
    # drive 2 dark: the {5,6} and {-6,-5} pairs are exact mirrors
    rows_m = shift_distance(tmpl, -6, [0.0])
    assert rows_m[0][1] == pytest.approx(d5, abs=1e-12)


def test_shift_distance_marks_invalid_rows():
    tmpl = derive_params(default_config(drive1_power=0.1e-6, drive2_power=0.1, charge_l1=5))
    omega = tmpl.omega_phi
    rows = shift_distance(tmpl, 5, [-0.5 * omega, 0.0, 0.5 * omega])
    assert len(rows) == 3
    assert [r[0] for r in rows] == [-0.5, 0.0, 0.5]
    d0 = [r for r in rows if r[0] == 0.0][0]
    assert d0[2] and math.isfinite(d0[1])


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def test_sweep_values_grid_and_range_checks():
    assert sweep_values("drive2-power", 0.0, 0.25, 3) == [0.0, 0.125, 0.25]
    assert sweep_values("charge-l1", -1.0, 1.0, 5) == [-1, 0, 0, 0, 1]  # round half to even
    assert sweep_values("charge-l1", 2.6, 2.6, 1) == [3]
    # a point whose formula overflows is the weighted mean of the (finite) ends
    assert sweep_values("detuning2", 0.0, 1e308, 3) == [0.0, 5e307, 1e308]
    assert sweep_values("charge-l1", -1e308, 1e308, 3) == [int(-1e308), 0, int(1e308)]
    for start, stop, n in [(0.0, 0.0, 0), (1.0, 0.0, 2), (math.nan, 1.0, 1), (0.0, math.inf, 2)]:
        with pytest.raises(ConfigError, match="sweep range"):
            sweep_values("detuning2", start, stop, n)


def test_sweep_point_failure_gives_invalid_row():
    """bistable_demo.json is multistable with drive 2 dark and monostable at 0.25 W."""
    cfg = load_config(str(CONFIGS / "bistable_demo.json"))
    header, rows = sweep(cfg, "drive2-power", "detuning", [0.0, 0.25])
    assert header == ["drive2_power", "delta1_normalized", "valid"]
    assert rows[0][0] == 0.0 and math.isnan(rows[0][1]) and rows[0][2] is False
    assert rows[1][0] == 0.25 and math.isfinite(rows[1][1]) and rows[1][2] is True


def test_detuning_curve_and_shift_distance_are_sweep_rows():
    tmpl = derive_params(default_config(drive1_power=0.1e-6, drive2_power=0.1, charge_l1=5))
    _, rows = sweep(tmpl.config, "charge-l1", "detuning", [-1, 0, 1])
    assert detuning_curve(tmpl, -1, 1) == [(c, v) for c, v, _ in rows]
    omega = tmpl.omega_phi
    header, rows = sweep(tmpl.config, "detuning2", "shift-distance", [0.0, 0.5 * omega])
    assert header == ["d2_over_omega", "d", "valid"]
    assert [r[0] for r in rows] == [0.0, 0.5]
    assert repr(shift_distance(tmpl, 5, [0.0, 0.5 * omega])) == repr(rows)


def test_rounding_level_minimum_is_not_a_valley(monkeypatch):
    """T - 1 spans about 9e-16 on (-0.8, 0.8): no minimum there clears the rounding floor."""
    cfg = load_config(str(CONFIGS / "shift_distance_base.json"))
    cfg = dataclasses.replace(cfg, charge_l1=51,
                              detuning2=Detuning2Spec("effective", -cfg.rotation_frequency))
    p, st = operating_point(cfg)
    monkeypatch.setattr(spectrum, "DEFAULT_WINDOW", (-0.8, 0.8))
    with pytest.raises(NoInteriorMinimum):
        find_valley(p, st)


def test_refinement_makes_few_kernel_calls(monkeypatch):
    """Coarse grid, a few vectorized refinement rounds and one curvature pair."""
    p, st = operating_point(load_config(str(CONFIGS / "oracle_check.json")))
    sizes = []
    kernel = response.transmission_many

    def counted(params, steady, omegas):
        sizes.append(len(omegas))
        return kernel(params, steady, omegas)

    # both names, so one-point calls routed through response count as well
    monkeypatch.setattr(response, "transmission_many", counted)
    monkeypatch.setattr(spectrum, "transmission_many", counted)
    monkeypatch.setattr(spectrum, "_measure_fwhm", lambda *args, **kwargs: 1.0)
    v = find_valley(p, st)
    assert v.fwhm == 1.0
    assert sizes[0] == spectrum.COARSE_POINTS
    assert len(sizes) <= 7, sizes


def _closed_form_t(p, st, x):
    return transmission(p, closed_form_c1p(p, st, p.omega_phi * (1.0 + x)))


def test_valley_is_closed_form_local_minimum_on_shipped_configs():
    checked = []
    for path in sorted(CONFIGS.glob("*.json")):
        try:
            p, st = operating_point(load_config(str(path)))
            v = find_valley(p, st)
        except (Multistable, NoInteriorMinimum):
            continue
        if v.fwhm is None:
            continue
        t_star = _closed_form_t(p, st, v.x_star)
        for dx in (-1e-8, 1e-8):
            assert _closed_form_t(p, st, v.x_star + dx) > t_star, (path.name, dx)
        assert v.t_min == transmission_at(p, st, p.omega_phi * (1.0 + v.x_star)), path.name
        checked.append(path.name)
    assert len(checked) >= 4, checked


def test_valley_sits_on_the_dressed_pole_on_shipped_configs():
    """x* is the dressed mechanical pole and the FWHM its width, narrowed by the +-8-width baseline.

    Measured on the four configs with a width: |x_m - x*| <= 1.1e-10 (x* is a
    refinement grid point within X_TOL of the minimum), width/fwhm = 1.0042936
    (the outer samples still hold 0.43 % of a Lorentzian's depth), and the
    closed-form T over x* +- 8*fwhm gives the reported fwhm to -2.6e-5.
    """
    checked = []
    for path in sorted(CONFIGS.glob("*.json")):
        try:
            p, st = operating_point(load_config(str(path)))
            v = find_valley(p, st)
        except (Multistable, NoInteriorMinimum):
            continue
        if v.fwhm is None:
            continue
        x_m, width = response.dressed_mode(p, st)
        assert abs(x_m - v.x_star) <= 2e-10, path.name
        assert width / v.fwhm == pytest.approx(1.0043, abs=1e-4), path.name
        xs = np.linspace(v.x_star - 8.0 * v.fwhm, v.x_star + 8.0 * v.fwhm, spectrum.FWHM_POINTS)
        ts = np.array([_closed_form_t(p, st, x) for x in xs])
        assert linewidth(xs, ts, v.x_star, v.t_min) == pytest.approx(v.fwhm, rel=5e-5), path.name
        checked.append(path.name)
    assert len(checked) >= 4, checked


def test_linewidth_is_one_kernel_call_after_the_curvature_pair(monkeypatch):
    """The width window comes from the dressed pole, so the linewidth needs no search."""
    p, st = operating_point(load_config(str(CONFIGS / "oracle_check.json")))
    sizes = []
    kernel = response.transmission_many

    def counted(params, steady, omegas):
        sizes.append(len(omegas))
        return kernel(params, steady, omegas)

    monkeypatch.setattr(spectrum, "transmission_many", counted)
    v = find_valley(p, st)
    assert v.fwhm is not None
    assert sizes[sizes.index(2) + 1:] == [spectrum.FWHM_POINTS], sizes


def test_unsettled_pole_leaves_no_width(monkeypatch):
    p, st = operating_point(load_config(str(CONFIGS / "oracle_check.json")))
    with pytest.raises(DipTooShallow, match="not settled after 1 of 64 steps") as exc:
        response.dressed_mode(p, dataclasses.replace(st, delta1=math.nan))
    assert exc.value.reason == "DipTooShallow"
    monkeypatch.setattr(response, "POLE_STEPS", 1)
    with pytest.raises(DipTooShallow, match="not settled after 1 of 1 steps"):
        response.dressed_mode(p, st)
    assert find_valley(p, st).fwhm is None
