import dataclasses
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oamcavity
from oamcavity import (
    NoInteriorMinimum,
    derive_params,
    find_valley,
    load_config,
    sample_spectrum,
    solve_steady,
)
from oamcavity.cli import _write_csv, main
from oamcavity.spectrum import DEFAULT_WINDOW

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
    spec = sample_spectrum(params, solve_steady(params).selected, *DEFAULT_WINDOW, 4001)
    lines = out.read_text().splitlines()
    assert lines[0] == "x,T"
    rows = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
    assert rows == list(zip(spec.xs.tolist(), spec.transmissions.tolist()))


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
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--config", cfg, "-n", "11", "--out", str(out)])
    assert exc.value.code == 3
    roots = json.loads(capsys.readouterr().err)
    assert roots["error"] == "multistable"
    assert len(roots["roots"]) == 3


def test_multistable_with_branch_runs(tmp_path):
    cfg = write_config(tmp_path / "bi.json", drive1_power_w=0.4)
    out = tmp_path / "spec.csv"
    code = main(["spectrum", "--config", cfg, "-n", "11", "--x-lo", "-0.1",
                 "--x-hi", "0.1", "--out", str(out), "--branch", "2"])
    assert code == 0
    assert len(out.read_text().splitlines()) == 12


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


def test_calibrate_bounds_exit_2(tmp_path, config_path):
    assert main(["calibrate", "--config", config_path, "--l-min", "5", "--l-max", "4",
                 "--out", str(tmp_path / "c.json")]) == 2


def test_calibrate_multistable_exit_4(tmp_path, capsys):
    code = main(["calibrate", "--config", BISTABLE_DEMO, "--l-min", "50", "--l-max", "50",
                 "--out", str(tmp_path / "c.json"), "--jobs", "1"])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("CalibrationError: ")
    assert "(50, 'multistable')" in err


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


def test_validate_multistable_exit_3(capsys):
    assert main(["validate", "--config", BISTABLE_DEMO, "-n", "1"]) == 3
    assert capsys.readouterr().err.startswith("Multistable: 3 coexisting steady states")


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
