#!/usr/bin/env python3
"""Run the output checks alone, then show that each one rejects a corrupted output.

Usage, from the root of the repository:

    python3 bench/selftest.py [--workload NAME ...] [--seed N]

For each workload: one untimed round (two for spectrum) through the CLI,
all checks on the real outputs (they must pass), then one corruption per
check, each of which that check must reject.  Exits 1 if any check
fails a real output or accepts a corrupted one.
"""

from __future__ import annotations

import argparse
import copy
import json
import re
import shutil
import sys

import run as bench  # pins BLAS threads before numpy loads

sys.path.insert(0, str(bench.SRC))

import checks  # noqa: E402
import workloads  # noqa: E402


def _edit_csv(out, path, row, col, fn):
    """Rewrite one CSV field (data row `row`, 0-based) through fn(text) -> text."""
    lines = out.files[path].decode("utf-8").split("\n")
    fields = lines[row + 1].split(",")
    fields[col] = fn(fields[col])
    lines[row + 1] = ",".join(fields)
    out.files[path] = "\n".join(lines).encode("utf-8")


def _scale(factor):
    return lambda text: "%.16e" % (float(text) * factor)


def _edit_json(out, path, fn):
    doc = json.loads(out.files[path])
    fn(doc)
    out.files[path] = json.dumps(doc).encode("utf-8")


def _valley(wl, stem):
    return checks.find_op(wl, f"spectrum/{stem}").meta["valley"]


def _entry(charge, fn):
    def edit(doc):
        e = next(e for e in doc["entries"] if e["charge"] == charge)
        fn(e)
    return edit


def corruptions(wl):
    """(check, description, mutate(outputs)) for every check of the workload."""
    C = checks
    if wl.name == "spectrum":
        csv = checks.find_op(wl, "spectrum/weak_drive_shift_l1_neg").meta["csv"]
        dip = _valley(wl, "weak_drive_shift_l1_neg")
        return [
            (C.spectrum_rows, "one T value off by 1e-6",
             lambda o: _edit_csv(o, csv, 20000, 1, lambda t: "%.16e" % (float(t) + 1e-6))),
            (C.spectrum_valleys, "x_star moved by 1e-7",
             lambda o: _edit_json(o, dip, lambda d: d.update(x_star=d["x_star"] + 1e-7))),
            (C.spectrum_widths, "fwhm 2 % too wide",
             lambda o: _edit_json(o, dip, lambda d: d.update(fwhm=d["fwhm"] * 1.02))),
            (C.spectrum_no_minimum, "a real dip reported as no interior minimum",
             lambda o: _edit_json(o, dip, lambda d: (d.clear(), d.update(error="no-interior-minimum")))),
            (C.spectrum_byte_identical, "round 2 wrote a different CSV",
             lambda o: o.hashes[1].update({csv: "0" * 64})),
        ]
    if wl.name == "calibrate":
        double = checks.find_op(wl, "calibrate/double+1..+45").meta["json"]
        single = checks.find_op(wl, "calibrate/single+1..+45").meta["json"]
        return [
            (C.calibrate_complete, "a failure row",
             lambda o: _edit_json(o, double, lambda d: d["failures"].append({"charge": 7, "reason": "x"}))),
            (C.calibrate_valleys, "one x_star moved by 1e-7",
             lambda o: _edit_json(o, double, _entry(10, lambda e: e.update(x_star=e["x_star"] + 1e-7)))),
            (C.calibrate_widths, "one fwhm 2 % too wide",
             lambda o: _edit_json(o, single, _first_fwhm(lambda e: e.update(fwhm=e["fwhm"] * 1.02)))),
            (C.calibrate_single_even, "one single-cavity entry made odd in charge",
             lambda o: _edit_json(o, single, _entry(20, lambda e: e.update(x_star=-e["x_star"])))),
        ]
    if wl.name == "sweep":
        switch = checks.find_op(wl, "sweep/drive2-power").meta["csv"]
        charges = checks.find_op(wl, "sweep/charge-l1").meta["csv"]
        return [
            (C.sweep_switch, "one T value off by 1e-6",
             lambda o: _edit_csv(o, switch, 100, 1, lambda t: "%.16e" % (float(t) + 1e-6))),
            (C.sweep_detuning, "one detuning scaled by (1 + 1e-8)",
             lambda o: _edit_csv(o, charges, 46, 1, _scale(1.0 + 1e-8))),
            (C.sweep_sign_law, "one detuning with its sign flipped",
             lambda o: _edit_csv(o, charges, 55, 1, _scale(-1.0))),
        ]
    op = wl.ops[0].name
    return [
        (C.validate_exit, "exit code 4", lambda o: o.rc.update({op: 4})),
        (C.validate_gate, "a relative deviation of 2e-3",
         lambda o: o.stdout.update({op: re.sub(r"rel dev \S+", "rel dev 2.000e-03", o.stdout[op], count=1)})),
        (C.validate_analytic, "|c1+| off by 1e-5 relative",
         lambda o: o.stdout.update({op: _scale_analytic(o.stdout[op], 1.0 + 1e-5)})),
    ]


def _first_fwhm(fn):
    def edit(doc):
        fn(next(e for e in doc["entries"] if e["fwhm"] is not None))
    return edit


def _scale_analytic(text, factor):
    head, rest = text.split("|c1+| analytic ", 1)
    value, tail = rest.split(",", 1)
    return f"{head}|c1+| analytic {float(value) * factor:.6e},{tail}"


def selftest(name: str, seed: int) -> list[str]:
    workdir = bench.OUT / f"selftest-{name}-seed{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    problems = []
    try:
        wl = workloads.build(name, bench.ROOT, seed, workdir)
        wl.write_inputs()
        import oamcavity.cli as cli

        outputs = checks.Outputs()
        for _ in range(wl.min_rounds):
            bench.run_round(cli, wl, outputs)
        problems += [f"{name}: real output rejected: {msg}" for msg in checks.run_checks(wl, outputs)]
        for check, what, mutate in corruptions(wl):
            bad = copy.deepcopy(outputs)
            mutate(bad)
            verdict = checks.run_checks(wl, bad, only=check)
            status = "rejected" if verdict else "ACCEPTED"
            print(f"{name}: {check.__name__}: {what}: {status}" + (f" ({verdict[0]})" if verdict else ""))
            if not verdict:
                problems.append(f"{name}: {check.__name__} accepted: {what}")
        covered = {c for c, _, _ in corruptions(wl)}
        problems += [f"{name}: {c.__name__} has no corruption" for c in checks.CHECKS[name] if c not in covered]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=list(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    problems = []
    for name in args.workload or list(workloads.BUILDERS):
        problems += selftest(name, args.seed)
    for p in problems:
        print(f"SELFTEST FAILED: {p}", file=sys.stderr)
    print("selftest: " + ("FAILED" if problems else "every check passes real output and rejects its corruption"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
