import math
from pathlib import Path

import pytest

from oamcavity import (
    ConfigError,
    ModelNotInvertible,
    OutOfRange,
    build_calibration,
    default_config,
    derive_params,
    detuning_curve,
    estimate_oam,
    load_calibration,
    load_config,
    save_calibration,
)
from oamcavity.oam import CalibrationCurve, CalibrationEntry, check_fingerprint

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def synthetic_curve(slope=0.01, fwhm=0.002, l_lo=-5, l_hi=5, fingerprint="synthetic"):
    entries = tuple(
        CalibrationEntry(charge=l, x_star=slope * l, fwhm=fwhm) for l in range(l_lo, l_hi + 1)
    )
    return CalibrationCurve(
        entries=entries,
        params_fingerprint=fingerprint,
        monotone=True,
        lin_fit=(slope, 0.0, 1.0),
    )


def test_estimate_round_trip_on_entries():
    curve = synthetic_curve(fwhm=0.002)
    for entry in curve.entries:
        est = estimate_oam(curve, entry.x_star)
        assert est.l_hat == entry.charge
        assert est.x_residual == 0.0
        assert est.ambiguous_with == ()


def test_estimate_midpoint_is_ambiguous():
    # linewidth comparable to the spacing: the midpoint cannot decide
    curve = synthetic_curve(slope=0.01, fwhm=0.012)
    x_mid = 0.005  # halfway between l=0 and l=1
    est = estimate_oam(curve, x_mid)
    assert est.l_hat in (0, 1)
    other = 1 - est.l_hat
    assert other in est.ambiguous_with


def test_estimate_out_of_range():
    curve = synthetic_curve(slope=0.01)
    with pytest.raises(OutOfRange):
        estimate_oam(curve, 0.05 + 2.5 * 0.01)
    # within one inter-entry step beyond the extreme is allowed
    est = estimate_oam(curve, 0.05 + 0.009)
    assert est.l_hat == 5


def test_estimate_requires_monotone():
    entries = (
        CalibrationEntry(charge=0, x_star=0.0, fwhm=1e-3),
        CalibrationEntry(charge=1, x_star=0.01, fwhm=1e-3),
        CalibrationEntry(charge=2, x_star=0.005, fwhm=1e-3),
    )
    curve = CalibrationCurve(entries=entries, params_fingerprint="x", monotone=False, lin_fit=None)
    with pytest.raises(ModelNotInvertible):
        estimate_oam(curve, 0.004)


def test_calibration_persistence_round_trip(tmp_path):
    curve = synthetic_curve()
    path = tmp_path / "cal.json"
    save_calibration(curve, path)
    loaded = load_calibration(path)
    assert loaded == curve


def test_load_rejects_foreign_json(tmp_path):
    path = tmp_path / "not_cal.json"
    path.write_text('{"something": 1}')
    with pytest.raises(ConfigError, match="not_cal.json"):
        load_calibration(path)


@pytest.mark.parametrize("text", ["{not json", '{"format": ' + "9" * 5000 + "}", b"\xff"],
                         ids=["malformed", "5000-digit-integer", "not-utf-8"])
def test_load_rejects_unreadable_json(tmp_path, text):
    path = tmp_path / "broken_cal.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    with pytest.raises(ConfigError, match="broken_cal.json"):
        load_calibration(path)


def test_fingerprint_check():
    p = derive_params(default_config())
    from oamcavity import fingerprint

    good = synthetic_curve(fingerprint=fingerprint(p.config, mask_charge_l1=True))
    assert check_fingerprint(good, p)
    assert not check_fingerprint(synthetic_curve(fingerprint="deadbeef"), p)


def test_build_single_point_flags_undefined_fit():
    tmpl = derive_params(default_config(drive1_power=0.1e-6, drive2_power=0.0, charge_l1=30))
    curve = build_calibration(tmpl, 30, 30)
    assert len(curve.entries) == 1
    assert curve.lin_fit is None
    assert not curve.monotone


def test_build_validates_bounds():
    tmpl = derive_params(default_config())
    with pytest.raises(ValueError):
        build_calibration(tmpl, 5, 4)
    with pytest.raises(ValueError):
        build_calibration(tmpl, 0.5, 4)


def test_calibration_records_the_flat_charge_by_its_reason():
    """On calibration_highres.json only l1 = 0 fails: its spectrum is flat, so it has no valley."""
    tmpl = derive_params(load_config(str(CONFIGS / "calibration_highres.json")))
    curve = build_calibration(tmpl, -10, 10)
    assert len(curve.entries) == 20
    assert curve.failures == ((0, "no-interior-minimum"),)


def test_dark_drive2_calibration_is_even_in_charge():
    """Single-cavity physics cannot tell the charge sign: exact parity."""
    tmpl = derive_params(default_config(drive1_power=0.1e-6, drive2_power=0.0, charge_l1=0))
    curve = build_calibration(tmpl, -12, 12)
    # l1 = 0 gives a flat spectrum and is recorded as a failure, not an entry
    assert any(charge == 0 for charge, _ in curve.failures)
    xs = {e.charge: e.x_star for e in curve.entries}
    for l in range(1, 13):
        assert xs[l] == pytest.approx(xs[-l], rel=1e-10, abs=1e-30)


def test_detuning_curve_zero_charge_row():
    tmpl = derive_params(default_config(drive1_power=0.1e-6, drive2_power=0.1, charge_l1=0))
    rows = dict(detuning_curve(tmpl, 0, 0))
    assert rows[0] == 0.0  # g1 = 0 leaves Delta_1 at the bare red detuning


def test_detuning_curve_sign_law():
    tmpl = derive_params(default_config(drive1_power=0.1e-6, drive2_power=0.1))
    rows = dict(detuning_curve(tmpl, -50, 50))
    for l in (10, 25, 50):
        assert math.copysign(1, rows[l]) == 1.0
        assert math.copysign(1, rows[-l]) == -1.0


def test_detuning_curve_slope_flips_with_drive2_charge():
    up = dict(detuning_curve(
        derive_params(default_config(drive1_power=0.1e-6, drive2_power=0.1, charge_l2=100)),
        -30, 30))
    dn = dict(detuning_curve(
        derive_params(default_config(drive1_power=0.1e-6, drive2_power=0.1, charge_l2=-100)),
        -30, 30))
    assert up[30] > up[-30]
    assert dn[30] < dn[-30]
    # antisymmetry holds up to the (sign-blind) Kerr self-term, ~1e-9 here
    assert up[30] == pytest.approx(-dn[30], rel=1e-8)


def test_detuning_curve_even_when_drive2_dark():
    rows = dict(detuning_curve(
        derive_params(default_config(drive1_power=0.1e-6, drive2_power=0.0)), -20, 20))
    for l in range(1, 21):
        assert rows[l] == pytest.approx(rows[-l], rel=1e-10, abs=1e-30)
