import contextlib
import dataclasses
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oamcavity
from oamcavity import (
    NoInteriorMinimum,
    derive_params,
    find_valley,
    load_config,
    sample_spectrum,
    solve_steady,
)
from oamcavity import cli
from oamcavity.cli import _write_csv, main
from oamcavity.spectrum import DEFAULT_WINDOW, SWEEP_OBSERVABLES

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
BISTABLE_DEMO = str(CONFIGS / "bistable_demo.json")

BASE = {
    "mirror_radius_m": 1e-5,
    "mirror_mass_kg": 1e-10,
    "rotation_frequency_rad_s": 2 * math.pi * 1e7,
    "quality_factor": 2e6,
    "cavity_length_m": 5e-3,
    "finesse_1": 5e4,
    "finesse_2": 5e4,
    "drive1_wavelength_m": 1.064e-6,
    "detuning1_rad_s": 2 * math.pi * 1e7,
    "detuning2_effective_rad_s": 0.0,
    "probe_power_w": 1e-13,
    "charge_l1": 50,
    "charge_l2": 100,
    "drive1_power_w": 1e-7,
    "drive2_power_w": 0.0,
}


def write_config(path, **over):
    doc = dict(BASE)
    doc.update(over)
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture()
def config_path(tmp_path):
    return write_config(tmp_path / "config.json")


def test_spectrum_minimal_rows(tmp_path, config_path, capsys):
    out = tmp_path / "spec.csv"
    code = main(["spectrum", "--config", config_path, "--x-lo", "-0.1", "--x-hi", "0.1",
                 "-n", "3", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,T"
    assert len(lines) == 4
    manifest = json.loads((tmp_path / "spec.csv.manifest.json").read_text())
    assert manifest["subcommand"] == "spectrum"
    assert manifest["params_fingerprint"]
    assert manifest["config"]["charge_l1"] == 50
    assert manifest["flags"] == {"x_lo": -0.1, "x_hi": 0.1, "n": 3, "branch": None}


def test_spectrum_rejects_bad_range(tmp_path, config_path):
    out = tmp_path / "spec.csv"
    assert main(["spectrum", "--config", config_path, "--x-lo", "0.1", "--x-hi", "-0.1",
                 "-n", "3", "--out", str(out)]) == 2


def test_spectrum_range_checked_before_solving(tmp_path, capsys):
    out = tmp_path / "spec.csv"
    assert main(["spectrum", "--config", BISTABLE_DEMO, "--x-lo=0.1", "--x-hi=-0.1",
                 "-n", "2", "--out", str(out)]) == 2
    assert "roots" not in capsys.readouterr().err
    assert not out.exists()


def test_spectrum_csv_round_trips_sample_spectrum(tmp_path):
    cfg = str(CONFIGS / "oracle_check.json")
    out = tmp_path / "spec.csv"
    assert main(["spectrum", "--config", cfg, "-n", "4001", "--out", str(out)]) == 0
    params = derive_params(load_config(cfg))
    xs, ts = sample_spectrum(params, solve_steady(params).selected, *DEFAULT_WINDOW, 4001)
    lines = out.read_text().splitlines()
    assert lines[0] == "x,T"
    rows = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
    assert rows == list(zip(xs.tolist(), ts.tolist()))


def _row_by_row_csv(header, rows) -> str:
    """The per-value writer that the column writer replaced, kept as the reference."""
    def fmt(value):
        if isinstance(value, bool):
            return "1" if value else "0"
        if isinstance(value, int):
            return str(value)
        if isinstance(value, float):
            if math.isnan(value):
                return "nan"
            return "%.16e" % value
        return str(value)

    return "".join(",".join(fmt(v) for v in row) + "\n" for row in [header, *rows])


def test_write_csv_matches_row_by_row_reference(tmp_path):
    floats = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308,
              0.1, -2.5e-7, 1.0]
    ints = [-45, -1, 0, 1, 7, 45, -(2**40), 2**40, 3]
    bools = [True, False, True, True, False, False, True, False, True]
    header = ["a", "b", "c", "d"]
    python = [floats, ints, bools, floats[::-1]]
    tables = {
        "lists": python,
        "arrays": [np.array(c) for c in python],
        "mixed": [np.array(floats), tuple(ints), np.array(bools), floats[::-1]],
        "one-row": [np.array(floats[:1]), ints[:1], np.array(bools[:1]), [floats[-1]]],
    }
    for name, columns in tables.items():
        out = tmp_path / f"{name}.csv"
        _write_csv(out, header, columns)
        n = len(columns[0])
        want = _row_by_row_csv(header, list(zip(*(c[:n] for c in python))))
        assert out.read_bytes() == want.encode(), name


def _percent_csv(columns) -> bytes:
    """The bytes `_write_csv` must give for float columns: one ``%.16e`` per value."""
    header = [f"c{i}" for i in range(len(columns))]
    return _row_by_row_csv(header, list(zip(*(np.asarray(c).tolist() for c in columns)))).encode()


def _adversarial_floats() -> np.ndarray:
    """Values next to every decision `_float_slots` makes, and random bit patterns."""
    rng = np.random.default_rng(14)
    powers = np.array([10.0**k for k in range(-30, 41)])
    ulps = (powers.view(np.int64)[:, None] + np.arange(-50, 51)).ravel().view(np.float64)
    # exact 18-digit ties, x*10**(16-e) = n + 1/2: x = q*2**(e-17) with q odd and below 2**53
    ties = [5.0 * (10**17 + 2 * j) for j in range(-20, 21)]
    for e in range(-5, 15):
        lo, hi = -(-2 * 10**16 // 5 ** (16 - e)), 2 * 10**17 // 5 ** (16 - e)
        ties += [q * 2.0 ** (e - 17) for q in range(lo | 1, hi, max(2, (hi - lo) // 8 * 2))]
    subnormals = rng.integers(1, 2**52, 200).view(np.float64)
    specials = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1e-07,
                math.nan, math.inf, -math.inf]
    bits = rng.integers(0, 2**64, 10**5, dtype=np.uint64).view(np.float64)
    return np.concatenate([ulps, -ulps, ties, subnormals, -subnormals, specials, bits])


@settings(derandomize=True, database=None, deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.floats(width=64), max_size=40))
def test_write_csv_floats_match_percent(tmp_path, values):
    out = tmp_path / "p.csv"
    _write_csv(out, ["c0", "c1"], [np.array(values, dtype=np.float64), values])
    assert out.read_bytes() == _percent_csv([values, values])


def test_write_csv_adversarial_floats_match_percent(tmp_path):
    values = _adversarial_floats()
    out = tmp_path / "a.csv"
    _write_csv(out, ["c0"], [values])
    assert out.read_bytes() == _percent_csv([values])
    assert b"\n9.9999999999999995e-08\n" in out.read_bytes()


def test_write_csv_at_float64_precision_formats_every_value_with_percent(tmp_path, monkeypatch):
    # digits that no correct row holds: any value the kernel formatted would show them
    monkeypatch.setattr(cli, "_LD_EPS", float(np.finfo(np.float64).eps))
    monkeypatch.setattr(cli, "_DIGITS4", np.full_like(cli._DIGITS4, int.from_bytes(b"????", "little")))
    values = np.concatenate([_adversarial_floats()[::7], np.linspace(-0.2, 0.2, 4001)])
    out = tmp_path / "f.csv"
    _write_csv(out, ["c0", "c1"], [values, values[::-1]])
    assert out.read_bytes() == _percent_csv([values, values[::-1]])


def test_write_csv_header_only(tmp_path):
    for columns in ([np.array([]), np.array([], dtype=bool)], [[], ()], list(zip(*[]))):
        out = tmp_path / "h.csv"
        _write_csv(out, ["x", "T"], columns)
        assert out.read_bytes() == b"x,T\n"


def test_write_csv_array_kind_from_dtype(tmp_path):
    out = tmp_path / "k.csv"
    _write_csv(out, ["f", "i", "b"], [np.array([1.0, -2.0]), np.array([3, -4], dtype=np.int32),
                                     np.array([True, False])])
    assert out.read_text() == "f,i,b\n1.0000000000000000e+00,3,1\n-2.0000000000000000e+00,-4,0\n"


def test_invalid_key_names_the_key(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    doc = dict(BASE)
    doc["cavity_finesse"] = 1.0
    cfg.write_text(json.dumps(doc))
    code = main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "o.csv")])
    assert code == 2
    assert "cavity_finesse" in capsys.readouterr().err


def test_invalid_value_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path / "bad.json", mirror_mass_kg=0.0)
    code = main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o.csv")])
    assert code == 2
    assert "mirror_mass" in capsys.readouterr().err


def test_multistable_aborts_without_branch(tmp_path, capsys):
    cfg = write_config(tmp_path / "bi.json", drive1_power_w=0.4)
    out = tmp_path / "spec.csv"
    assert main(["spectrum", "--config", cfg, "-n", "11", "--out", str(out)]) == 3
    roots = json.loads(capsys.readouterr().err)
    assert roots["error"] == "multistable"
    assert len(roots["roots"]) == 3


def test_multistable_with_branch_runs(tmp_path, capsys):
    cfg = write_config(tmp_path / "bi.json", drive1_power_w=0.4)
    out = tmp_path / "spec.csv"
    code = main(["spectrum", "--config", cfg, "-n", "11", "--x-lo", "-0.1",
                 "--x-hi", "0.1", "--out", str(out), "--branch", "2"])
    assert code == 0
    assert len(out.read_text().splitlines()) == 12
    # a branch beyond the coexisting roots is a command-line error
    out.unlink()
    assert main(["spectrum", "--config", BISTABLE_DEMO, "-n", "11", "--out", str(out), "--branch", "9"]) == 2
    assert capsys.readouterr().err.startswith("ConfigError: --branch")
    assert not out.exists()


def test_spectrum_outputs_deterministic(tmp_path, config_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        assert main(["spectrum", "--config", config_path, "--x-lo=-1e-6", "--x-hi=1e-6", "-n", "101", "--out", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    m1 = json.loads((tmp_path / "a.csv.manifest.json").read_text())
    m2 = json.loads((tmp_path / "b.csv.manifest.json").read_text())
    m1.pop("timestamp_utc"), m2.pop("timestamp_utc")
    assert m1 == m2


def test_spectrum_valley_json(tmp_path, config_path):
    out = tmp_path / "spec.csv"
    vout = tmp_path / "valley.json"
    code = main(["spectrum", "--config", config_path, "--x-lo", "-0.01", "--x-hi", "0.01",
                 "-n", "11", "--out", str(out), "--valley-out", str(vout)])
    assert code == 0
    doc = json.loads(vout.read_text())
    assert doc["curvature_sign_ok"] is True
    assert abs(doc["x_star"]) < 1e-6


def test_calibrate_bounds_exit_2(tmp_path, config_path, capsys):
    assert main(["calibrate", "--config", config_path, "--l-min", "5", "--l-max", "4",
                 "--out", str(tmp_path / "c.json")]) == 2
    assert capsys.readouterr().err.startswith("ConfigError:")


def test_calibrate_multistable_exit_4(tmp_path, capsys):
    """Each failed charge is reported under its reason."""
    for l_min, l_max, failures in [
        (50, 50, "1/1 charges failed (first failures: [(50, 'multistable')])"),
        (37, 38, "2/2 charges failed (first failures: [(37, 'no-interior-minimum'), (38, 'multistable')])"),
    ]:
        code = main(["calibrate", "--config", BISTABLE_DEMO, "--l-min", str(l_min), "--l-max", str(l_max),
                     "--out", str(tmp_path / "c.json"), "--jobs", "1"])
        assert code == 4
        assert capsys.readouterr().err == f"CalibrationError: {failures}\n"


def test_calibrate_single_entry_warns(tmp_path, config_path, capsys):
    out = tmp_path / "cal.json"
    code = main(["calibrate", "--config", config_path, "--l-min", "30", "--l-max", "30",
                 "--out", str(out), "--jobs", "1"])
    assert code == 0
    assert "single-entry" in capsys.readouterr().err
    doc = json.loads(out.read_text())
    assert len(doc["entries"]) == 1
    csv_lines = (tmp_path / "cal.json.csv").read_text().splitlines()
    assert csv_lines[0] == "l1,x_star,fwhm"
    for manifest in ("cal.json.manifest.json", "cal.json.csv.manifest.json"):
        flags = json.loads((tmp_path / manifest).read_text())["flags"]
        assert flags == {"l_min": 30, "l_max": 30, "jobs": 1}


def synthetic_calibration(path, fingerprint="synthetic", slope=0.01, fwhm=0.012):
    doc = {
        "format": "oamcavity-calibration-v1",
        "params_fingerprint": fingerprint,
        "monotone": True,
        "lin_fit": {"slope": slope, "intercept": 0.0, "r_squared": 1.0},
        "entries": [{"charge": l, "x_star": slope * l, "fwhm": fwhm} for l in range(-5, 6)],
        "failures": [],
    }
    path.write_text(json.dumps(doc))
    return str(path)


def test_estimate_round_trip(tmp_path, capsys):
    cal = synthetic_calibration(tmp_path / "cal.json")
    code = main(["estimate", "--calibration", cal, "--x-measured", "0.03"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["l_hat"] == 3
    assert doc["x_residual"] == 0.0
    assert doc["ambiguous_with"] == []


def test_estimate_midpoint_ambiguity(tmp_path, capsys):
    cal = synthetic_calibration(tmp_path / "cal.json")
    code = main(["estimate", "--calibration", cal, "--x-measured", "0.025"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["l_hat"] in (2, 3)
    assert doc["ambiguous_with"]


def test_estimate_out_of_range_exit_5(tmp_path):
    cal = synthetic_calibration(tmp_path / "cal.json")
    assert main(["estimate", "--calibration", cal, "--x-measured", "0.08"]) == 5


def test_estimate_fingerprint_mismatch_exit_6(tmp_path, config_path):
    cal = synthetic_calibration(tmp_path / "cal.json", fingerprint="deadbeef")
    code = main(["estimate", "--calibration", cal, "--x-measured", "0.01",
                 "--config", config_path])
    assert code == 6
    assert main(["estimate", "--calibration", cal, "--x-measured", "0.01",
                 "--config", config_path, "--force"]) == 0


def test_estimate_non_monotone_exit_4(tmp_path, capsys):
    cal = tmp_path / "cal.json"
    doc = json.loads(Path(synthetic_calibration(cal)).read_text())
    doc["monotone"] = False
    cal.write_text(json.dumps(doc))
    assert main(["estimate", "--calibration", str(cal), "--x-measured", "0.01"]) == 4
    assert capsys.readouterr().err.startswith("ModelNotInvertible: ")


@pytest.mark.parametrize(
    "edit, drop, code, err_start",
    [
        ({"format": "oamcavity-calibration-v0"}, (), 2, "ConfigError: calibration "),
        ({}, ("entries",), 2, "ConfigError: calibration "),
        ({"entries": [{"charge": 0, "x_star": 0.0, "fwhm": "x"}] * 2}, (), 2, "ConfigError: calibration "),
        ({"entries": [{"charge": 0, "x_star": 0.0, "fwhm": None}]}, (), 4, "ModelNotInvertible: "),
    ],
    ids=["wrong-format", "missing-entries", "non-numeric-fwhm", "one-entry-monotone"],
)
def test_estimate_malformed_calibration(tmp_path, capsys, edit, drop, code, err_start):
    cal = tmp_path / "cal.json"
    doc = json.loads(Path(synthetic_calibration(cal)).read_text())
    doc.update(edit)
    for key in drop:
        del doc[key]
    cal.write_text(json.dumps(doc))
    assert main(["estimate", "--calibration", str(cal), "--x-measured", "0.01"]) == code
    assert capsys.readouterr().err.startswith(err_start)


@pytest.mark.parametrize("value", ["x", None, [1], "1e3", True])
def test_bad_detuning2_value_exit_2(tmp_path, capsys, value):
    doc = {k: v for k, v in BASE.items() if k != "detuning2_effective_rad_s"}
    doc["detuning2_bare_rad_s"] = value
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc))
    code = main(["sweep", "--config", str(cfg), "--axis", "drive2-power", "--start", "0",
                 "--stop", "0.1", "-n", "3", "--observable", "detuning",
                 "--out", str(tmp_path / "s.csv")])
    assert code == 2
    assert capsys.readouterr().err.startswith("ConfigError: detuning2_bare_rad_s: ")


@pytest.mark.parametrize("key, field", [("mirror_mass_kg", "mirror_mass"),
                                        ("detuning2_effective_rad_s", "detuning2_effective_rad_s")])
def test_integer_beyond_float_range_exit_2(tmp_path, capsys, key, field):
    cfg = write_config(tmp_path / "huge.json", **{key: 10**400})
    code = main(["sweep", "--config", cfg, "--axis", "drive2-power", "--start", "0",
                 "--stop", "0.1", "-n", "3", "--observable", "detuning",
                 "--out", str(tmp_path / "s.csv")])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"ConfigError: {field}: must be a finite number")


def test_sweep_negative_drive2_power_exit_2(tmp_path, config_path, capsys):
    code = main(["sweep", "--config", config_path, "--axis", "drive2-power",
                 "--start", "-0.1", "--stop", "0.1", "-n", "3", "--observable", "detuning",
                 "--out", str(tmp_path / "s.csv"), "--jobs", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("ConfigError: ")
    assert "drive2_power" in err


def test_sweep_empty_range_exit_2(tmp_path, config_path):
    assert main(["sweep", "--config", config_path, "--axis", "drive2-power",
                 "--start", "0", "--stop", "0", "-n", "0",
                 "--out", str(tmp_path / "s.csv")]) == 2


def test_sweep_detuning_observable(tmp_path, config_path):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--config", config_path, "--axis", "drive2-power",
                 "--start", "0", "--stop", "0.1", "-n", "3",
                 "--observable", "detuning", "--out", str(out), "--jobs", "1"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "drive2_power,delta1_normalized,valid"
    assert len(lines) == 4
    rows = [line.split(",") for line in lines[1:]]
    values = [float(r[1]) for r in rows]
    assert values[0] == pytest.approx(0.0, abs=1e-8)
    assert values[2] > 0.5  # strong drive-2 pushes the detuning up for l1 > 0
    assert all(r[2] == "1" for r in rows)
    flags = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())["flags"]
    assert flags == {"axis": "drive2-power", "start": 0.0, "stop": 0.1, "n": 3, "observable": "detuning",
                     "jobs": 1}


def test_sweep_transmission_switch(tmp_path, config_path):
    out = tmp_path / "switch.csv"
    code = main(["sweep", "--config", config_path, "--axis", "drive2-power",
                 "--start", "0", "--stop", "0.1", "-n", "3",
                 "--observable", "resonance-transmission", "--out", str(out),
                 "--jobs", "1"])
    assert code == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    t0, t2 = float(rows[0][1]), float(rows[2][1])
    assert t0 < 0.91  # resonant probe absorbed with drive 2 off
    assert t2 > 0.999  # shifted detuning releases it


def test_sweep_shift_distance_observable(tmp_path):
    cfg = write_config(tmp_path / "c.json", drive2_power_w=0.1, charge_l1=5)
    out = tmp_path / "d.csv"
    code = main(["sweep", "--config", cfg, "--axis", "detuning2",
                 "--start", "0", "--stop", "3e7", "-n", "2",
                 "--observable", "shift-distance", "--out", str(out), "--jobs", "1"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "d2_over_omega,d,valid"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert float(first[0]) == 0.0


@pytest.mark.parametrize("drive2_power_w, d2_over_omega, failure", [
    (0.1, 0.0, "no-valley"),
    (0.1, 1.0, "multistable"),
    (0.01, 0.5, None),
])
def test_sweep_shift_distance_at_bare_detuning(tmp_path, drive2_power_w, d2_over_omega, failure):
    """Both valleys are read at the config's own bare Delta_c2, not at effective Delta_2 = 0."""
    doc = dict(BASE, drive2_power_w=drive2_power_w, charge_l1=5)
    del doc["detuning2_effective_rad_s"]
    doc["detuning2_bare_rad_s"] = d2_over_omega * BASE["rotation_frequency_rad_s"]
    cfg = tmp_path / "bare.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "d.csv"
    code = main(["sweep", "--config", str(cfg), "--axis", "charge-l1", "--start", "5", "--stop", "5",
                 "-n", "1", "--observable", "shift-distance", "--out", str(out), "--jobs", "1"])
    assert code == 0
    row = out.read_text().splitlines()[1].split(",")
    params = [derive_params(dataclasses.replace(load_config(str(cfg)), charge_l1=c)) for c in (5, 6)]
    reports = [solve_steady(p) for p in params]
    if failure is None:
        assert not any(r.multistable for r in reports)
        xs = [find_valley(p, r.selected).x_star for p, r in zip(params, reports)]
        assert row == ["5", f"{abs(xs[1] - xs[0]):.16e}", "1"]
        return
    if failure == "multistable":
        assert reports[0].multistable
    else:
        assert not reports[0].multistable
        with pytest.raises(NoInteriorMinimum):
            find_valley(params[0], reports[0].selected)
    assert row == ["5", "nan", "0"]


def test_missing_config_exit_2(tmp_path, capsys):
    assert main(["spectrum", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o.csv")]) == 2


def test_malformed_json_exit_2(tmp_path):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2


def _huge_int_json(doc, key_path) -> str:
    """`doc` as JSON text with the value at `key_path` replaced by a 5000-digit integer literal."""
    target = doc
    for key in key_path[:-1]:
        target = target[key]
    target[key_path[-1]] = "HUGE-INTEGER"
    return json.dumps(doc).replace('"HUGE-INTEGER"', "1" * 5000)


def test_integer_beyond_conversion_limit_in_config_exit_2(tmp_path, capsys):
    cfg = tmp_path / "huge.json"
    cfg.write_text(_huge_int_json(dict(BASE), ["mirror_mass_kg"]))
    assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2
    assert capsys.readouterr().err.startswith(f"ConfigError: config {cfg}: ")


def test_integer_beyond_conversion_limit_in_calibration_exit_2(tmp_path, capsys):
    cal = tmp_path / "cal.json"
    doc = json.loads(Path(synthetic_calibration(cal)).read_text())
    cal.write_text(_huge_int_json(doc, ["entries", 0, "charge"]))
    assert main(["estimate", "--calibration", str(cal), "--x-measured", "0.01"]) == 2
    assert capsys.readouterr().err.startswith(f"ConfigError: calibration {cal}: ")


@pytest.mark.parametrize("argv", [["-n", "0"], ["-n", "-3"], ["--probe-scale", "nan"],
                                  ["--probe-scale", "inf"], ["--probe-scale", "0"],
                                  ["--probe-scale=-1e-3"]])
def test_validate_bad_point_count_or_probe_scale_exit_2(tmp_path, capsys, argv):
    """Refused before the config is read (this one does not exist): nothing compared, no oracle run."""
    assert main(["validate", "--config", str(tmp_path / "absent.json"), *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--probe-scale" in captured.err


@pytest.mark.parametrize("axis", ["charge-l1", "drive2-power"])
@pytest.mark.parametrize("start, stop, n", [("nan", "3", "1"), ("inf", "inf", "1"), ("-inf", "3", "3"),
                                            ("0", "nan", "3"), ("1", "inf", "2")])
def test_sweep_non_finite_range_exit_2(tmp_path, config_path, capsys, axis, start, stop, n):
    out = tmp_path / "s.csv"
    assert main(["sweep", "--config", config_path, "--axis", axis, f"--start={start}", f"--stop={stop}",
                 "-n", n, "--observable", "detuning", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("ConfigError: sweep range: ")
    assert not out.exists()


@pytest.mark.parametrize("case", ["config-dir", "out-dir", "valley-out-dir", "out-under-file",
                                  "calibration-dir"])
def test_unusable_path_exit_2(tmp_path, config_path, capsys, case):
    """A path that cannot be opened (a directory, or a file's child) is an input error."""
    blocker = tmp_path / "plain.txt"
    blocker.write_text("")
    out = str(tmp_path / "o.csv")
    argv = {
        "config-dir": ["spectrum", "--config", str(tmp_path), "--out", out],
        "out-dir": ["spectrum", "--config", config_path, "-n", "11", "--out", str(tmp_path)],
        "valley-out-dir": ["spectrum", "--config", config_path, "-n", "11", "--out", out,
                           "--valley-out", str(tmp_path)],
        "out-under-file": ["sweep", "--config", config_path, "--axis", "charge-l1", "--start", "1",
                           "--stop", "2", "-n", "2", "--observable", "detuning",
                           "--out", str(blocker / "s.csv")],
        "calibration-dir": ["estimate", "--calibration", str(tmp_path), "--x-measured", "0.01"],
    }[case]
    assert main(argv) == 2
    assert re.match(r"(IsADirectoryError|NotADirectoryError): ", capsys.readouterr().err)
    if case == "valley-out-dir":  # refused before the CSV or its manifest is written
        assert not Path(out).exists() and not Path(out + ".manifest.json").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_estimate_non_finite_measurement_exit_2(tmp_path, capsys, value):
    cal = synthetic_calibration(tmp_path / "cal.json")
    assert main(["estimate", "--calibration", cal, f"--x-measured={value}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("ConfigError: x_measured: ")


@pytest.mark.parametrize("x_lo, x_hi", [("-inf", "0"), ("0", "inf"), ("nan", "0.1"), ("-0.1", "nan")])
def test_spectrum_non_finite_window_exit_2(tmp_path, config_path, capsys, x_lo, x_hi):
    out = tmp_path / "spec.csv"
    assert main(["spectrum", "--config", config_path, f"--x-lo={x_lo}", f"--x-hi={x_hi}",
                 "-n", "5", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("ConfigError: --x-lo, --x-hi, -n: ")
    assert not out.exists()


def test_spectrum_without_real_steady_root_exit_4(tmp_path, capsys):
    """A valid config whose fixed-point polynomial has no real root (finesse_2 = 1e300)."""
    doc = json.loads((CONFIGS / "oracle_check.json").read_text())
    doc["finesse_2"] = 1e300
    cfg = tmp_path / "f2.json"
    cfg.write_text(json.dumps(doc))
    assert main(["spectrum", "--config", str(cfg), "-n", "5", "--out", str(tmp_path / "o.csv")]) == 4
    assert capsys.readouterr().err.startswith("NoConvergence: ")


@pytest.mark.parametrize("key, value, code, err", [
    ("drive1_power_w", 1e300, 2, "ConfigError: drive1_power_w, cavity_length_m, finesse_1, drive1_wavelength_m: "
                                 "gives eps1^2 = inf"),
    ("finesse_1", 1e-300, 2, "ConfigError: cavity_length_m, finesse_1: gives kappa1^2 = inf"),
    ("cavity_length_m", 1e300, 2, "ConfigError: cavity_length_m, charge_l1: gives g1^2 = 0.0"),
    ("detuning1_rad_s", 1e300, 4, "NoConvergence: the fixed-point polynomial at power fraction 1 has "
                                  "non-finite coefficients"),
    ("mirror_radius_m", 1e300, 2, "ConfigError: mirror_mass_kg, mirror_radius_m, rotation_frequency_rad_s: "
                                  "gives I*omega_phi^2 = inf"),
    ("rotation_frequency_rad_s", 1e160, 2, "ConfigError: rotation_frequency_rad_s: gives omega_phi^2 = inf"),
    ("drive2_power_w", 1e160, 4, "SingularSystem: optical spring of cavity 1 overflows: Delta_1^2 = inf"),
    ("drive1_wavelength_m", 1e160, 4, "SingularSystem: optical spring of cavity 1 overflows: Delta_1^2 = inf"),
    ("drive2_wavelength_m", 1e160, 4, "SingularSystem: optical spring of cavity 1 overflows: Delta_1^2 = inf"),
    ("finesse_2", 1e160, 4, "SingularSystem: optical spring of cavity 1 overflows: Delta_1^2 = inf"),
    ("mirror_mass_kg", 1e-160, 4, "SingularSystem: optical spring of cavity 1 overflows: Delta_1^2 = inf"),
    ("quality_factor", 1e-300, 4, "SingularSystem: sideband system singular at Omega = "),
])
def test_extreme_config_value_exits_with_documented_code(tmp_path, capsys, key, value, code, err):
    """Valid single-key extremes of `oracle_check.json` used to end in a traceback and exit 1
    (LinAlgError, ZeroDivisionError, OverflowError) or in a bare-cavity spectrum behind a
    RuntimeWarning; a derived quantity out of range exits 2 naming its keys, and an overflowing
    steady-state polynomial or optical-spring term exits 4."""
    doc = json.loads((CONFIGS / "oracle_check.json").read_text())
    doc[key] = value
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "o.csv"
    assert main(["spectrum", "--config", str(cfg), "-n", "5", "--out", str(out)]) == code
    assert capsys.readouterr().err.startswith(err)
    assert not out.exists()


ORACLE_CHECK = json.loads((CONFIGS / "oracle_check.json").read_text())
#: the failure-contract test sets one of these keys at a time (or drops it), to one of these values
CONTRACT_KEYS = sorted(ORACLE_CHECK) + ["drive2_wavelength_m", "detuning2_bare_rad_s"]
CONTRACT_VALUES = [0, 1e-300, -1e-300, 1e300, -1e300, -1, "x", True, None, 10**400, 1e160, 1e-160]
#: the estimate test's calibration matches the unedited config
CONTRACT_FINGERPRINT = oamcavity.fingerprint(oamcavity.config_from_dict(ORACLE_CHECK), mask_charge_l1=True)
#: argv per command; {config} is the config path, {out} the directory of every other file
CONTRACT_ARGV = {
    "spectrum": ["spectrum", "--config", "{config}", "-n", "5", "--out", "{out}/o.csv",
                 "--valley-out", "{out}/v.json"],
    "sweep": ["sweep", "--config", "{config}", "-n", "3", "--out", "{out}/s.csv"],
    "calibrate": ["calibrate", "--config", "{config}", "--l-min", "1", "--l-max", "3",
                  "--out", "{out}/c.json"],
    "estimate": ["estimate", "--config", "{config}", "--calibration", "{out}/cal.json"],
}
CONTRACT_EDITS = st.one_of(
    st.tuples(st.just("set"), st.sampled_from(CONTRACT_KEYS), st.sampled_from(CONTRACT_VALUES)),
    st.tuples(st.just("drop"), st.sampled_from(CONTRACT_KEYS), st.none()),
    st.tuples(st.just("path"), st.sampled_from(["config-missing", "config-dir", "out-under-file"]),
              st.none()),
)


def _unmarked_non_finite(path: Path) -> list[float]:
    """The values of an output file that are not finite, apart from the documented nan markers."""
    if path.suffix != ".csv":
        def numbers(doc):
            if isinstance(doc, dict):
                doc = list(doc.values())
            if isinstance(doc, list):
                return [v for item in doc for v in numbers(item)]
            return [doc] if isinstance(doc, float) else []
        values = numbers(json.loads(path.read_text()))
    else:
        header, *rows = [line.split(",") for line in path.read_text().splitlines()]
        values = []
        for row in rows:
            if header[-1] == "valid" and row[1:] == ["nan", "0"]:  # an invalid sweep row
                row = row[:1]
            elif header[-1] == "fwhm" and row[-1] == "nan":  # a calibrated charge without a linewidth
                row = row[:-1]
            values += map(float, row)
    return [v for v in values if not math.isfinite(v)]


@settings(derandomize=True, database=None, deadline=None, max_examples=1000)
@given(command=st.sampled_from(list(CONTRACT_ARGV)), edit=CONTRACT_EDITS,
       sweep=st.tuples(st.sampled_from([("drive2-power", "0", "0.2"), ("detuning2", "-3e7", "3e7"),
                                        ("charge-l1", "1", "3")]), st.sampled_from(list(SWEEP_OBSERVABLES))),
       x_measured=st.sampled_from(["0.03", "0.08", "nan"]))
def test_cli_failure_contract(command, edit, sweep, x_measured):
    """Any one-key edit of `oracle_check.json`, or an unusable path, makes `main` return a documented
    exit code, never raise; exit 0 leaves only finite values or the documented nan markers."""
    kind, key, value = edit
    with tempfile.TemporaryDirectory(prefix="oamcavity-contract-") as tmp:
        doc, config, out = dict(ORACLE_CHECK), Path(tmp) / "c.json", Path(tmp) / "out"
        out.mkdir()
        if kind == "set":
            doc[key] = value
        elif kind == "drop":
            doc.pop(key, None)
        config.write_text(json.dumps(doc))
        synthetic_calibration(out / "cal.json", fingerprint=CONTRACT_FINGERPRINT)
        if key == "config-missing":
            config = Path(tmp) / "absent.json"
        elif key == "config-dir":
            config = out
        elif key == "out-under-file":
            out = config
        argv = [a.format(config=config, out=out) for a in CONTRACT_ARGV[command]]
        if command == "sweep":
            (axis, start, stop), observable = sweep
            argv += ["--axis", axis, f"--start={start}", f"--stop={stop}", "--observable", observable]
        elif command == "estimate":
            argv += [f"--x-measured={x_measured}"]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:
                pytest.fail(f"{argv} raised SystemExit({exc.code!r}) instead of returning")
        assert code in {0, 2, 3, 4, 5, 6}, argv
        if code == 0:
            written = [p for p in Path(tmp, "out").iterdir() if p.name != "cal.json"]
            assert written or command == "estimate"
            for path in written:
                assert _unmarked_non_finite(path) == [], (argv, path.name)
            if command == "estimate":
                assert all(math.isfinite(v) for v in json.loads(stdout.getvalue()).values()
                           if isinstance(v, float)), argv


@pytest.mark.parametrize("axis, err", [
    ("drive2-power", "ConfigError: drive2_power_w, cavity_length_m, finesse_2, drive2_wavelength_m: "
                     "gives eps2^2 = inf"),
    ("charge-l1", "ConfigError: cavity_length_m, charge_l1: gives g1^2 = inf"),
])
def test_sweep_to_1e308_exit_2(tmp_path, capsys, axis, err):
    """`--stop 1e308` used to end every axis with a LinAlgError traceback; the derived-quantity
    guard refuses the first point that overflows."""
    out = tmp_path / "s.csv"
    assert main(["sweep", "--config", str(CONFIGS / "resonance_switch_base.json"), "--axis", axis,
                 "--start", "0", "--stop", "1e308", "-n", "3", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(err)
    assert not out.exists()


@pytest.mark.parametrize("config, rows", [
    ("resonance_switch_base", [True, True, True]),
    ("shift_distance_base", [True, False, False]),
])
def test_sweep_to_1e308_on_detuning2_keeps_a_finite_grid(tmp_path, config, rows):
    """`start + k*(stop - start)/(n - 1)` overflows at k = 2 although both ends are finite; that
    point is the weighted mean of the ends instead, so the sweep runs (it used to exit 2, "got inf")."""
    out = tmp_path / "s.csv"
    assert main(["sweep", "--config", str(CONFIGS / f"{config}.json"), "--axis", "detuning2", "--start", "0",
                 "--stop", "1e308", "-n", "3", "--observable", "detuning", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()[1:]
    assert [float(line.split(",")[0]) for line in lines] == [0.0, 5e307, 1e308]
    assert [line.endswith(",1") for line in lines] == rows
    assert all(line.endswith("nan,0") for line, ok in zip(lines, rows) if not ok)


def test_sweep_choices_are_the_engine_tables():
    from oamcavity.spectrum import SWEEP_AXES, SWEEP_OBSERVABLES

    sweep_parser = cli.build_parser()._subparsers._group_actions[0].choices["sweep"]
    choices = {a.dest: a.choices for a in sweep_parser._actions if a.choices}
    assert choices == {"axis": list(SWEEP_AXES), "observable": list(SWEEP_OBSERVABLES)}
    args = cli.build_parser().parse_args(["sweep", "--config", "c.json", "--axis", "charge-l1",
                                          "--start", "0", "--stop", "1", "-n", "2", "--out", "o.csv"])
    assert args.observable == "x-star"


@pytest.mark.slow
def test_validate_passes_and_reports(tmp_path, capsys):
    cfg = write_config(tmp_path / "v.json", drive1_power_w=4e-3, drive2_power_w=0.1)
    code = main(["validate", "--config", cfg, "-n", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "max relative deviation" in out


@pytest.mark.slow
def test_validate_strong_probe_breakdown(tmp_path, capsys):
    cfg = write_config(tmp_path / "v.json", drive1_power_w=4e-3, drive2_power_w=0.1)
    code = main(["validate", "--config", cfg, "-n", "1", "--probe-scale", "0.3"])
    assert code == 4
    assert "PoorFit" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, code",
    [
        (["spectrum", "-n", "11"], 2),
        (["calibrate", "--l-min", "1", "--l-max", "2"], 2),
        (["sweep", "--axis", "drive2-power", "--start", "0", "--stop", "0.1", "-n", "3",
          "--observable", "resonance-transmission"], 2),
        (["sweep", "--axis", "charge-l1", "--start", "1", "--stop", "3", "-n", "3",
          "--observable", "x-star"], 2),
        (["validate", "-n", "1"], 2),
        (["sweep", "--axis", "charge-l1", "--start", "1", "--stop", "3", "-n", "3",
          "--observable", "detuning"], 0),
    ],
)
def test_zero_probe_power_refused_where_t_is_measured(tmp_path, capsys, argv, code):
    cfg = write_config(tmp_path / "config.json", probe_power_w=0.0)
    out = tmp_path / "out.csv"
    outputs = [] if argv[0] == "validate" else ["--out", str(out)]
    assert main([argv[0], "--config", cfg, *argv[1:], *outputs]) == code
    if code == 0:
        assert out.exists()
    else:
        assert capsys.readouterr().err.startswith("ConfigError: probe_power: ")
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def test_validate_multistable_exit_3(capsys):
    assert main(["validate", "--config", BISTABLE_DEMO, "-n", "1"]) == 3
    doc = json.loads(capsys.readouterr().err)
    assert doc["error"] == "multistable"
    assert len(doc["roots"]) == 3


def _documented_exit_codes() -> dict[str, int]:
    """Error class name -> exit code, read from the table in the cli module docstring."""
    table, code = {}, None
    for line in oamcavity.cli.__doc__.splitlines():
        m = re.match(r" {4}(\d)  ", line)
        if m:
            code = int(m.group(1))
        elif not line.startswith(" " * 7):
            code = None
        if code is not None:
            for word in re.findall(r"\w+", line):
                if isinstance(getattr(oamcavity, word, None), type):
                    table[word] = code
    return table


def test_error_exit_codes_match_documented_table():
    classes = {
        name: obj for name, obj in vars(oamcavity).items()
        if isinstance(obj, type) and issubclass(obj, oamcavity.OamCavityError)
    }
    assert _documented_exit_codes() == {name: cls.exit_code for name, cls in classes.items()}
    special = {"ConfigError": 2, "Multistable": 3, "OutOfRange": 5, "FingerprintMismatch": 6}
    for name, cls in classes.items():
        assert cls.exit_code == special.get(name, 4), name


def _readme_exit_codes() -> dict[str, int]:
    """Error class name -> exit code, read from the exit-code table in README.md."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = {}
    for m in re.finditer(r"^\| (\d) \|(.*)$", readme, re.MULTILINE):
        for word in re.findall(r"`(\w+)`", m.group(2)):
            if isinstance(getattr(oamcavity, word, None), type):
                table[word] = int(m.group(1))
    return table


def test_readme_exit_codes_match_docstring_table():
    assert _readme_exit_codes() == _documented_exit_codes()


def test_console_script_installed():
    """The declared `[project.scripts]` entry point runs `--version`.

    Loads the entry the way the installed wrapper script does, in a fresh
    interpreter that imports the same `oamcavity` package as this test, so
    it needs no prior `pip install`.
    """
    tomllib = pytest.importorskip("tomllib")
    import oamcavity

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["oamcavity"]
    wrapper = (
        "import sys\n"
        "from importlib.metadata import EntryPoint\n"
        f"main = EntryPoint(name='oamcavity', value={target!r},"
        " group='console_scripts').load()\n"
        "sys.argv[0] = 'oamcavity'\n"
        "sys.exit(main())\n"
    )
    package_root = str(Path(oamcavity.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, "--version"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == f"oamcavity {oamcavity.__version__}"


def test_package_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    import oamcavity

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    assert tomllib.loads(pyproject.read_text())["project"]["version"] == oamcavity.__version__


@pytest.mark.skipif(shutil.which("oamcavity") is None, reason="oamcavity console script not on PATH")
def test_console_script_on_path():
    proc = subprocess.run(["oamcavity", "--version"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "oamcavity" in proc.stdout


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
