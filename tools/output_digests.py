#!/usr/bin/env python3
"""Print the sha256 of every output the benchmark workloads make checkable.

Usage:

    python3 tools/output_digests.py <repo-root> [--seed N]

Builds each workload of ``<repo-root>/bench/workloads.py`` (spectrum,
calibrate, sweep, validate) for the seed, adds the sweeps the benchmark
skips (`EXTRA_SWEEPS`: x-star over charge-l1, drive2-power and detuning2,
shift-distance over detuning2 and over charge-l1 on a bare detuning-2
config, drive-2 sweeps with invalid rows, and a detuning-2 sweep whose
steady-state polynomial overflows on every row but the first, so that one
batched solve holds valid and failed rows), the calibrations it skips
(`EXTRA_CALIBRATIONS`: one whose l1 = 0 charge fails) and the invocations
that must fail (`FAILURE_RUNS`), runs every invocation once through
``oamcavity.cli.main`` from ``<repo-root>/src`` in this process, and prints
one line per data file (``<invocation> <file> <sha256>``), one per
invocation with its exit code (``exit <code>``, or ``exception <Type>``
for an exception that escapes ``main``) and the sha256 of its stderr, and
one for the `validate` stdout.  The bench is imported, never modified;
inputs and outputs go to a temporary directory.  The extra sweeps,
calibrations and failure runs take the shipped configs (or one-key edits of
`oracle_check.json`, `EDITED_CONFIGS`) and do not depend on the seed.  A
failure run's output path is digested too, so a run that used to succeed
shows its file turning ``missing``.

Two checkouts produce byte-identical outputs exactly when

    diff <(python3 tools/output_digests.py A) <(python3 tools/output_digests.py B)

prints nothing.
"""

from __future__ import annotations

import os

# one BLAS thread, as in the benchmark, set before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

OMEGA_PHI = 62831853.071795866  # rotation_frequency_rad_s of every shipped config
#: (name, config, axis, start, stop, n, observable); config is a stem under configs/
#: or "bare": shift_distance_base.json at drive-2 power 0.01 W, l1 = 5 and a bare
#: Delta_c2 of omega_phi/2, whose drive-2 sweep has invalid rows from 0.05 W on
EXTRA_SWEEPS = (
    ("x-star/charge-l1", "calibration_highres", "charge-l1", -6, 6, 7, "x-star"),
    ("x-star/drive2-power", "weak_drive_shift_l1_pos", "drive2-power", 0, 0.2, 9, "x-star"),
    ("x-star/detuning2-fano", "strong_drive_fano", "detuning2", -0.2 * OMEGA_PHI, 0.2 * OMEGA_PHI, 5,
     "x-star"),
    ("shift-distance/detuning2", "shift_distance_base", "detuning2", -0.5 * OMEGA_PHI,
     0.5 * OMEGA_PHI, 9, "shift-distance"),
    ("shift-distance/charge-l1-bare", "bare", "charge-l1", 3, 7, 5, "shift-distance"),
    ("detuning/drive2-power-bare", "bare", "drive2-power", 0, 0.2, 9, "detuning"),
    ("resonance-transmission/drive2-power-bistable", "bistable_demo", "drive2-power", 0, 0.25, 11,
     "resonance-transmission"),
    ("detuning/detuning2-overflow", "shift_distance_base", "detuning2", 0, 4e162, 5, "detuning"),
)
#: (name, config, l_min, l_max): calibrate runs; config is a stem under configs/
EXTRA_CALIBRATIONS = (
    ("calibrate/highres-10..10", "calibration_highres", -10, 10),
)
#: config stem -> (key, value): `oracle_check.json` with that key set
EDITED_CONFIGS = {
    "rotation_overflow": ("rotation_frequency_rad_s", 1e160),  # omega_phi^2 overflows
    "drive2_overflow": ("drive2_power_w", 1e160),  # the optical-spring term overflows
}
#: (name, config, argv); config is a stem under configs/ or of `EDITED_CONFIGS`.
#: "{out}" is an output path.
FAILURE_RUNS = (
    ("spectrum/multistable", "bistable_demo", ["spectrum", "-n", "11", "--out", "{out}"]),
    ("spectrum/branch-out-of-range", "bistable_demo",
     ["spectrum", "-n", "11", "--branch", "9", "--out", "{out}"]),
    ("calibrate/empty-range", "oracle_check",
     ["calibrate", "--l-min", "5", "--l-max", "4", "--out", "{out}"]),
    ("calibrate/bistable-37..38", "bistable_demo",
     ["calibrate", "--l-min", "37", "--l-max", "38", "--out", "{out}"]),
    ("validate/multistable", "bistable_demo", ["validate", "-n", "1"]),
    ("spectrum/rotation-overflow", "rotation_overflow", ["spectrum", "-n", "5", "--out", "{out}"]),
    ("spectrum/drive2-overflow", "drive2_overflow", ["spectrum", "-n", "5", "--out", "{out}"]),
)


def extra_runs(workloads, root: Path, workdir: Path) -> list:
    """One `workloads.Op` per `EXTRA_SWEEPS` and `EXTRA_CALIBRATIONS` row, configs written under `workdir`."""
    bare = json.loads((root / "configs" / "shift_distance_base.json").read_text(encoding="utf-8"))
    del bare["detuning2_effective_rad_s"]
    bare.update(detuning2_bare_rad_s=0.5 * OMEGA_PHI, drive2_power_w=0.01, charge_l1=5)
    workdir.mkdir(parents=True)
    (workdir / "bare.json").write_text(json.dumps(bare, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    ops = []
    for name, stem, axis, start, stop, n, observable in EXTRA_SWEEPS:
        config = workdir / "bare.json" if stem == "bare" else root / "configs" / f"{stem}.json"
        out = workdir / (name.replace("/", "_") + ".csv")
        argv = ["sweep", "--config", str(config), "--axis", axis, f"--start={start!r}",
                f"--stop={stop!r}", "-n", str(n), "--observable", observable, "--out", str(out)]
        ops.append(workloads.Op(f"sweep/{name}", argv, [str(out)]))
    for name, stem, l_min, l_max in EXTRA_CALIBRATIONS:
        out = workdir / (name.replace("/", "_") + ".json")
        argv = ["calibrate", "--config", str(root / "configs" / f"{stem}.json"), f"--l-min={l_min}",
                f"--l-max={l_max}", "--out", str(out)]
        ops.append(workloads.Op(name, argv, [str(out), f"{out}.csv"]))
    return ops


def failure_runs(workloads, root: Path, workdir: Path) -> list:
    """One `workloads.Op` per `FAILURE_RUNS` row; its output path, if any, is its data file."""
    workdir.mkdir(parents=True)
    for stem, (key, value) in EDITED_CONFIGS.items():
        doc = json.loads((root / "configs" / "oracle_check.json").read_text(encoding="utf-8"))
        doc[key] = value
        (workdir / f"{stem}.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    ops = []
    for name, stem, (command, *args) in FAILURE_RUNS:
        config = (workdir if stem in EDITED_CONFIGS else root / "configs") / f"{stem}.json"
        out = str(workdir / (name.replace("/", "_") + ".out"))
        argv = [command, "--config", str(config), *(out if a == "{out}" else a for a in args)]
        ops.append(workloads.Op(f"fail/{name}", argv, [out] if "{out}" in args else []))
    return ops


def digests(root: Path, seed: int) -> list[str]:
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import workloads

    import oamcavity.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to((root / "src").resolve()):
        raise SystemExit(f"imported {cli.__file__}, not the source tree under {root / 'src'}")
    lines = []
    with tempfile.TemporaryDirectory(prefix="oamcavity-digests-") as tmp:
        runs = []
        for name in workloads.BUILDERS:
            wl = workloads.build(name, root, seed, Path(tmp) / name)
            wl.write_inputs()
            runs += [(name, op) for op in wl.ops]
        runs += [("extra", op) for op in extra_runs(workloads, root, Path(tmp) / "extra")]
        runs += [("fail", op) for op in failure_runs(workloads, root, Path(tmp) / "fail")]
        for name, op in runs:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    status = f"exit {cli.main(op.argv)}"
                except SystemExit as exc:  # the status a shell would see
                    status = f"exit {exc.code}"
                except Exception as exc:
                    status = f"exception {type(exc).__name__}"
            err_digest = hashlib.sha256(stderr.getvalue().encode()).hexdigest()
            lines.append(f"{op.name} {status} stderr {err_digest}")
            for path in map(Path, op.data):
                digest = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "missing"
                lines.append(f"{op.name} {path.name} {digest}")
            if name == "validate":
                digest = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
                lines.append(f"{op.name} stdout {digest}")
    return lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("root", type=Path, help="repository root holding src/, bench/ and configs/")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    print("\n".join(digests(args.root.resolve(), args.seed)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
