import dataclasses
import math

import numpy as np
import pytest

from oamcavity import (
    DipTooShallow,
    NoInteriorMinimum,
    derive_params,
    default_config,
    find_valley,
    linewidth,
    sample_spectrum,
    shift_distance,
    solve_steady,
)
from oamcavity.response import TransmissionPoint, transmission_many
from oamcavity.spectrum import Spectrum, ValleyReport


def synthetic_lorentzian_spectrum(kappa_t, x0, depth, x_lo, x_hi, n):
    xs = np.linspace(x_lo, x_hi, n)
    ts = 1.0 - depth * kappa_t**2 / (kappa_t**2 + (xs - x0) ** 2)
    pts = tuple(TransmissionPoint(omega=float(x), x=float(x), transmission=float(t))
                for x, t in zip(xs, ts))
    return Spectrum(points=pts, params_fingerprint="synthetic", branch_tag="selected")


def test_sample_spectrum_validation(weak_dark):
    p, st = weak_dark
    with pytest.raises(ValueError):
        sample_spectrum(p, st, 0.1, -0.1, 10)
    with pytest.raises(ValueError):
        sample_spectrum(p, st, -0.1, 0.1, 2)


def test_sample_spectrum_points_match_per_sample_build(weak_dark):
    """`points` equals the per-sample tuple built from the same kernel output, bit for bit."""
    p, st = weak_dark
    xs = np.linspace(-0.01, 0.01, 257)
    omegas = p.omega_phi * (1.0 + xs)
    want = tuple(TransmissionPoint(omega=float(om), x=float(x), transmission=float(t))
                 for om, x, t in zip(omegas, xs, transmission_many(p, st, omegas)))
    got = sample_spectrum(p, st, -0.01, 0.01, 257).points

    def bits(points):
        return [(pt.omega.hex(), pt.x.hex(), pt.transmission.hex()) for pt in points]

    assert bits(got) == bits(want)


def test_spectrum_from_points_matches_array_form():
    xs = np.linspace(-0.02, 0.02, 101)
    ts = 1.0 - 0.5 / (1.0 + (xs / 1e-3) ** 2)
    omegas = 6.0e7 * (1.0 + xs)
    pts = tuple(TransmissionPoint(omega=float(om), x=float(x), transmission=float(t))
                for om, x, t in zip(omegas, xs, ts))
    from_points = Spectrum(points=pts, params_fingerprint="synthetic", branch_tag="selected")
    from_arrays = Spectrum(omegas=omegas, xs=xs, transmissions=ts,
                           params_fingerprint="synthetic", branch_tag="selected")
    for name in ("omegas", "xs", "transmissions"):
        assert np.array_equal(getattr(from_points, name), getattr(from_arrays, name)), name
    assert from_arrays.points == pts
    xs[0] = 1.0  # the spectrum holds its own read-only copy
    assert from_arrays.xs[0] == -0.02
    with pytest.raises(ValueError):
        from_arrays.transmissions[0] = 0.0


def test_flat_spectrum_when_decoupled(decoupled):
    p, st = decoupled
    spec = sample_spectrum(p, st, -0.2, 0.2, 3)
    assert len(spec.points) == 3
    for pt in spec.points:
        assert pt.transmission == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(NoInteriorMinimum):
        find_valley(p, st)


def test_spectrum_x_strictly_increasing(weak_dark):
    p, st = weak_dark
    spec = sample_spectrum(p, st, -0.01, 0.01, 64)
    xs = spec.xs
    assert np.all(np.diff(xs) > 0)
    assert spec.branch_tag == "selected"
    assert len(spec.params_fingerprint) == 64


def test_synthetic_lorentzian_linewidth():
    kappa_t = 1.3e-3
    x0 = 0.004
    spec = synthetic_lorentzian_spectrum(kappa_t, x0, 0.8, x0 - 16 * kappa_t, x0 + 16 * kappa_t, 4096)
    valley = ValleyReport(x_star=x0, t_min=0.2, curvature_sign_ok=True, fwhm=None,
                          window=(x0 - 16 * kappa_t, x0 + 16 * kappa_t))
    w = linewidth(spec, valley)
    assert w == pytest.approx(2 * kappa_t, rel=1e-2)


def test_linewidth_rejects_shallow_dip():
    spec = synthetic_lorentzian_spectrum(1e-3, 0.0, 5e-4, -0.02, 0.02, 2048)
    valley = ValleyReport(x_star=0.0, t_min=1.0 - 5e-4, curvature_sign_ok=True, fwhm=None,
                          window=(-0.02, 0.02))
    with pytest.raises(DipTooShallow):
        linewidth(spec, valley)


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
        spec = Spectrum(points=tuple(TransmissionPoint(omega=float(x), x=float(x), transmission=float(t))
                                     for x, t in zip(xs, ts)),
                        params_fingerprint="synthetic", branch_tag="selected")
        valley = ValleyReport(x_star=x_star, t_min=float(t_min), curvature_sign_ok=True, fwhm=None,
                              window=(-1.0, 1.0))
        try:
            want = _walked_linewidth(xs, ts, x_star, float(t_min))
        except ValueError:
            with pytest.raises(ValueError):
                linewidth(spec, valley)
            continue
        assert linewidth(spec, valley) == want


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


def test_refinement_consistency(weak_dark):
    p, st = weak_dark
    v1 = find_valley(p, st, n_coarse=1024)
    v2 = find_valley(p, st, n_coarse=2048)
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
