import dataclasses
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oamcavity import (
    HBAR,
    SPEED_OF_LIGHT,
    ConfigError,
    Detuning2Spec,
    SystemConfig,
    config_from_dict,
    default_config,
    derive_params,
    fingerprint,
    load_config,
    validate,
)
from oamcavity.params import DETUNING2_KEYS, FIELDS

C = 299792458.0


def test_default_config_is_valid():
    assert validate(default_config()) == []


def test_lab_scale_derived_values():
    p = derive_params(default_config())
    # independent direct arithmetic for each derived quantity
    assert p.kappa1 == pytest.approx(math.pi * C / (2 * 0.005 * 5e4), rel=1e-15)
    assert p.kappa1 == pytest.approx(1.8837e6, rel=1e-4)
    assert p.inertia == pytest.approx(1e-10 * (1e-5) ** 2 / 2, rel=1e-15)
    assert p.inertia == pytest.approx(5e-21, rel=1e-12)
    assert p.gamma_phi == pytest.approx(2 * math.pi * 1e7 / 2e6, rel=1e-15)
    assert p.gamma_phi == pytest.approx(31.416, rel=1e-4)
    assert p.g1 == pytest.approx(C * 50 / 0.005, rel=1e-15)
    assert p.g1 == pytest.approx(2.998e12, rel=1e-3)
    assert p.g2 == pytest.approx(C * 100 / 0.005, rel=1e-15)


def test_zero_charge_zero_coupling():
    p = derive_params(default_config(charge_l1=0))
    assert p.g1 == 0.0
    assert p.g2 != 0.0


def test_probe_amplitude_uses_drive1_frequency():
    p = derive_params(default_config())
    omega1 = 2 * math.pi * C / 1064e-9
    assert p.eps_p == pytest.approx(
        math.sqrt(2 * p.kappa1 * p.config.probe_power / (HBAR * omega1)), rel=1e-15
    )


def test_wavelength2_defaults_to_wavelength1():
    cfg = default_config()
    assert cfg.drive2_wavelength is None
    p = derive_params(cfg)
    assert p.omega2 == p.omega1
    p2 = derive_params(default_config(drive2_wavelength=1550e-9))
    assert p2.omega2 != p2.omega1


def test_validate_names_offending_fields():
    bad = default_config(mirror_mass=0.0)
    v = validate(bad)
    assert len(v) == 1 and v[0].field == "mirror_mass"

    bad = dataclasses.replace(default_config(), finesse1=-1.0, drive1_power=-2.0)
    fields = {viol.field for viol in validate(bad)}
    assert fields == {"finesse1", "drive1_power"}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_validate_rejects_non_finite_detuning2(value):
    cfg = dataclasses.replace(default_config(), detuning2=Detuning2Spec("bare", value))
    assert [v.field for v in validate(cfg)] == ["detuning2"]


def test_validate_rejects_non_integer_charge():
    cfg = dataclasses.replace(default_config(), charge_l1=2.5)
    fields = {v.field for v in validate(cfg)}
    assert "charge_l1" in fields
    with pytest.raises(ConfigError):
        derive_params(cfg)


def test_config_from_dict_rejects_fractional_charge():
    with pytest.raises(ConfigError) as exc:
        config_from_dict({"charge_l1": 2.5})
    assert "charge_l1" in str(exc.value)


def test_config_from_dict_accepts_integral_float_charge():
    cfg = config_from_dict({"charge_l1": -3.0})
    assert cfg.charge_l1 == -3 and isinstance(cfg.charge_l1, int)


def test_unknown_key_is_hard_error():
    with pytest.raises(ConfigError) as exc:
        config_from_dict({"cavity_detuning": 1.0})
    assert "cavity_detuning" in str(exc.value)


def test_detuning2_specs_are_exclusive():
    with pytest.raises(ConfigError):
        config_from_dict({"detuning2_effective_rad_s": 0.0, "detuning2_bare_rad_s": 1.0})
    cfg = config_from_dict({"detuning2_bare_rad_s": 5.0})
    assert cfg.detuning2 == Detuning2Spec("bare", 5.0)


@pytest.mark.parametrize("key", [key for key, _, _ in FIELDS] + list(DETUNING2_KEYS))
def test_integer_beyond_float_range_is_config_error(key):
    with pytest.raises(ConfigError) as exc:
        derive_params(config_from_dict({key: -(10**400)}))
    assert "must be a finite number" in str(exc.value)


def test_detuning2_mode_checked():
    with pytest.raises(ValueError):
        Detuning2Spec("resonant", 0.0)


def test_derive_params_deterministic():
    a = derive_params(default_config())
    b = derive_params(default_config())
    assert a == b


@given(st.floats(min_value=1e2, max_value=1e7))
@settings(deadline=None, max_examples=50)
def test_doubling_finesse_halves_kappa_exactly(f1):
    k = derive_params(default_config(finesse1=f1)).kappa1
    k2 = derive_params(default_config(finesse1=2 * f1)).kappa1
    assert k2 == k / 2  # exact: scaling by 2 commutes with one rounding


@given(st.integers(min_value=-500, max_value=500), st.integers(min_value=1, max_value=16))
@settings(deadline=None, max_examples=50)
def test_coupling_scales_with_charge(l1, k):
    if abs(l1 * k) > 1000:
        return
    g = derive_params(default_config(charge_l1=l1)).g1
    gk = derive_params(default_config(charge_l1=l1 * k)).g1
    assert gk == pytest.approx(k * g, rel=1e-15, abs=0.0)


@given(
    st.floats(min_value=1e-9, max_value=1.0),
    st.floats(min_value=1e3, max_value=1e6),
)
@settings(deadline=None, max_examples=50)
def test_amplitude_power_round_trip(p1, f1):
    p = derive_params(default_config(drive1_power=p1, finesse1=f1))
    back = p.eps1**2 * HBAR * p.omega1 / (2 * p.kappa1)
    assert back == pytest.approx(p1, rel=5e-16)


def test_fingerprint_stability_and_sensitivity():
    cfg = default_config()
    fp = fingerprint(cfg)
    assert fp == fingerprint(default_config())
    assert fp != fingerprint(default_config(drive2_power=0.2))
    assert fp != fingerprint(default_config(charge_l1=-50))
    # charge mask makes the calibration fingerprint charge-independent
    assert fingerprint(default_config(charge_l1=3), mask_charge_l1=True) == fingerprint(
        default_config(charge_l1=-9), mask_charge_l1=True
    )


def test_fingerprints_pinned():
    # saved calibration files carry these; a change here orphans every one of them
    assert fingerprint(default_config()) == "7cc7af2e0237091e9ae203e70798d2ac7834923cb5b3e0d13edccc08a5354568"
    assert fingerprint(default_config(), mask_charge_l1=True) == (
        "26796c251363d9d80302656ad484fd3f82e19aa2eabc03b5eea9477ad508d75d"
    )
    highres = Path(__file__).resolve().parents[1] / "configs" / "calibration_highres.json"
    assert fingerprint(load_config(highres)) == "2cfd34fd0d4f6dc7639c6837cf98ce2cfbe96c94a7415d92495ac85251d1f467"


def test_field_table_covers_every_config_attribute():
    attrs = [attr for _, attr, _ in FIELDS]
    assert sorted(attrs) == sorted(f.name for f in dataclasses.fields(SystemConfig) if f.name != "detuning2")


def test_constants_recorded():
    p = derive_params(default_config())
    assert p.light_speed == SPEED_OF_LIGHT == 299792458.0
    assert p.hbar == HBAR == 1.054571817e-34
