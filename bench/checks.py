"""Output checks, run after the timed interval.

Every check compares an output of the CLI with a number computed apart
from the code path under test (the reference model in model.py), or
tests a property the method must have (a minimum is a minimum, the
single-cavity curve is even in charge, reruns are byte-identical).  None
of them compares with a stored copy of an earlier output.

A check raises CheckFailed naming the first offending item.  The
self-test (selftest.py) corrupts outputs in memory and asserts that each
check rejects them.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass, field

import numpy as np

from model import HBAR, Model

T_RTOL = 1e-9  # closed-form agreement of T and delta1
X_STEP = 1e-8  # a reported minimum must be lower than T at x* +- X_STEP
FWHM_RTOL = 0.01
EVEN_RTOL = 1e-10
ORACLE_GATE = 1e-3
ANALYTIC_RTOL = 1e-6  # |c1+| is printed with 7 significant digits
MAX_ABS_X = 2.0  # find_valley widens its window up to |x| <= 2


class CheckFailed(Exception):
    pass


@dataclass
class Outputs:
    """What one benchmark run produced, as the checks see it."""

    rc: dict[str, int] = field(default_factory=dict)
    stdout: dict[str, str] = field(default_factory=dict)
    files: dict[str, bytes] = field(default_factory=dict)
    hashes: list[dict[str, str]] = field(default_factory=list)  # one per round


class _Models:
    """Reference models per (config stem, overrides), built once per check run."""

    def __init__(self, wl):
        self._wl = wl
        self._cache = {}

    def get(self, stem: str, **overrides) -> Model:
        key = (stem, tuple(sorted(overrides.items())))
        if key not in self._cache:
            self._cache[key] = Model(dict(self._wl.configs[stem], **overrides))
        return self._cache[key]


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _csv_rows(out: Outputs, path: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(out.files[path].decode("utf-8"))))
    return rows[0], rows[1:]


def _is_local_min(model: Model, x_star: float) -> tuple[bool, float]:
    t = model.transmission([x_star - X_STEP, x_star, x_star + X_STEP])
    return bool(t[0] > t[1] and t[2] > t[1]), float(t[1])


def half_depth_width(model: Model, x_star: float, fwhm: float, n: int = 8001) -> float:
    """Full width at half depth on a closed-form grid of x* +- 8*fwhm.

    Baseline: median of the outer 5 % of the grid on each side.  Crossings
    of (baseline + T(x*))/2 are found walking out from x* and placed by
    linear interpolation.
    """
    xs = np.linspace(x_star - 8.0 * fwhm, x_star + 8.0 * fwhm, n)
    ts = model.transmission(xs)
    k = max(1, round(0.05 * n))
    baseline = float(np.median(np.concatenate([ts[:k], ts[-k:]])))
    half = 0.5 * (baseline + float(model.transmission(x_star)))
    centre = n // 2

    def crossing(step: int) -> float:
        i = centre
        while 0 <= i + step < n:
            j = i + step
            if (ts[i] - half) * (ts[j] - half) <= 0.0 and ts[i] != ts[j]:
                return float(xs[i] + (half - ts[i]) / (ts[j] - ts[i]) * (xs[j] - xs[i]))
            i = j
        raise CheckFailed(f"half-depth crossing of the dip at x* = {x_star!r} not within +-8 fwhm")

    return crossing(+1) - crossing(-1)


def _check_width(model: Model, x_star: float, fwhm: float, where: str) -> None:
    width = half_depth_width(model, x_star, fwhm)
    _require(abs(width - fwhm) <= FWHM_RTOL * fwhm,
             f"{where}: fwhm {fwhm!r} but the closed-form half-depth width is {width!r}")


# ---------------------------------------------------------------- spectrum


def _valley_doc(out: Outputs, op) -> dict:
    return json.loads(out.files[op.meta["valley"]])


def spectrum_rows(wl, out: Outputs, models: _Models) -> None:
    for op in wl.ops:
        m = op.meta
        header, rows = _csv_rows(out, m["csv"])
        _require(header == ["x", "T"], f"{op.name}: header {header}")
        _require(len(rows) == m["n"], f"{op.name}: {len(rows)} rows, asked for {m['n']}")
        xs = np.array([float(r[0]) for r in rows])
        ts = np.array([float(r[1]) for r in rows])
        grid = np.linspace(m["x_lo"], m["x_hi"], m["n"])
        _require(bool(np.all(np.abs(xs - grid) <= 1e-15)), f"{op.name}: x column is not the uniform grid")
        ref = models.get(m["config"]).transmission(xs)
        rel = np.abs(ts - ref) / np.abs(ref)
        i = int(np.argmax(rel))
        _require(rel[i] <= T_RTOL, f"{op.name}: T[{i}] = {float(ts[i])!r}, closed form {float(ref[i])!r} "
                                   f"(relative {rel[i]:.2e})")


def spectrum_valleys(wl, out: Outputs, models: _Models) -> None:
    for op in wl.ops:
        doc = _valley_doc(out, op)
        if "x_star" not in doc:
            continue
        ok, t_ref = _is_local_min(models.get(op.meta["config"]), doc["x_star"])
        _require(ok, f"{op.name}: x* = {doc['x_star']!r} is not a closed-form local minimum")
        _require(abs(doc["t_min"] - t_ref) <= T_RTOL * t_ref,
                 f"{op.name}: t_min {doc['t_min']!r}, closed form {t_ref!r}")


def spectrum_widths(wl, out: Outputs, models: _Models) -> None:
    for op in wl.ops:
        doc = _valley_doc(out, op)
        if doc.get("fwhm") is not None:
            _check_width(models.get(op.meta["config"]), doc["x_star"], doc["fwhm"], op.name)


def spectrum_no_minimum(wl, out: Outputs, models: _Models) -> None:
    """A "no interior minimum" report must hold on a dense closed-form sample of |x| <= 2.

    The sample is uniform (spacing 1e-5) plus a 1e-8 grid around the
    mechanical resonance, where the dips are ~5e-7 wide.  A dip counts when
    it falls below the lower window-edge value by more than 1e-9 of T: the
    level to which the program's T is checked, so anything shallower is not
    a valley the program could resolve.
    """
    for op in wl.ops:
        doc = _valley_doc(out, op)
        if "x_star" in doc:
            continue
        _require(doc.get("error") == "no-interior-minimum", f"{op.name}: unexpected valley report {doc}")
        xs = np.concatenate([np.linspace(-MAX_ABS_X, MAX_ABS_X, 400001), np.linspace(-1e-4, 1e-4, 20001)])
        ts = models.get(op.meta["config"]).transmission(xs)
        edge = float(min(ts[0], ts[400000]))
        i = int(np.argmin(ts))
        _require(ts[i] >= edge - T_RTOL * edge,
                 f"{op.name}: reported no interior minimum, but T({float(xs[i])!r}) = {float(ts[i])!r} "
                 f"is below the window edge {edge!r}")


def spectrum_byte_identical(wl, out: Outputs, models: _Models) -> None:
    _require(len(out.hashes) >= 2, "need two rounds to compare data files")
    for k, hashes in enumerate(out.hashes[1:], start=2):
        for path, digest in out.hashes[0].items():
            _require(hashes.get(path) == digest, f"{path} differs between round 1 and round {k}")


# --------------------------------------------------------------- calibrate


def _entries(out: Outputs, op) -> list[dict]:
    return json.loads(out.files[op.meta["json"]])["entries"]


def calibrate_complete(wl, out: Outputs, models: _Models) -> None:
    for op in wl.ops:
        m = op.meta
        doc = json.loads(out.files[m["json"]])
        _require(doc["failures"] == [], f"{op.name}: failure rows {doc['failures'][:3]}")
        charges = [e["charge"] for e in doc["entries"]]
        _require(charges == list(range(m["l_min"], m["l_max"] + 1)), f"{op.name}: charges {charges}")
        header, rows = _csv_rows(out, m["csv"])
        _require(header == ["l1", "x_star", "fwhm"], f"{op.name}: CSV header {header}")
        for e, row in zip(doc["entries"], rows, strict=True):
            fwhm = float("nan") if e["fwhm"] is None else e["fwhm"]
            same = (int(row[0]) == e["charge"] and float(row[1]) == e["x_star"]
                    and (float(row[2]) == fwhm or (math.isnan(fwhm) and math.isnan(float(row[2])))))
            _require(same, f"{op.name}: CSV row {row} disagrees with the JSON entry {e}")


def calibrate_valleys(wl, out: Outputs, models: _Models) -> None:
    for op in wl.ops:
        for e in _entries(out, op):
            ok, _ = _is_local_min(models.get(op.meta["config"], charge_l1=e["charge"]), e["x_star"])
            _require(ok, f"{op.name}: l1 = {e['charge']}: x* = {e['x_star']!r} is not a closed-form local minimum")


def calibrate_widths(wl, out: Outputs, models: _Models) -> None:
    for op in wl.ops:
        for e in _entries(out, op):
            if e["fwhm"] is not None:
                _check_width(models.get(op.meta["config"], charge_l1=e["charge"]), e["x_star"], e["fwhm"],
                             f"{op.name}: l1 = {e['charge']}")


def calibrate_single_even(wl, out: Outputs, models: _Models) -> None:
    """Criterion 6: with drive 2 dark the curve cannot tell l1 from -l1."""
    x = {}
    for op in wl.ops:
        if op.meta["config"] == "single":
            x.update((e["charge"], e["x_star"]) for e in _entries(out, op))
    pairs = [(l, x[l], x[-l]) for l in x if l > 0 and -l in x]
    _require(pairs, "no +-l1 pairs in the single-cavity calibration")
    for l, a, b in pairs:
        _require(abs(a - b) <= EVEN_RTOL * max(abs(a), abs(b)), f"single cavity: x*({l}) = {a!r}, x*({-l}) = {b!r}")


# ------------------------------------------------------------------- sweep


def find_op(wl, name: str):
    return next(op for op in wl.ops if op.name == name)


def sweep_switch(wl, out: Outputs, models: _Models) -> None:
    op = find_op(wl, "sweep/drive2-power")
    m = op.meta
    header, rows = _csv_rows(out, m["csv"])
    _require(header == ["drive2_power", "T", "valid"], f"{op.name}: header {header}")
    _require(len(rows) == m["n"], f"{op.name}: {len(rows)} rows, asked for {m['n']}")
    for k, (power, t, valid) in enumerate(rows):
        p = float(power)
        want = m["start"] + k * (m["stop"] - m["start"]) / (m["n"] - 1)
        _require(abs(p - want) <= 1e-15 * max(abs(want), 1.0), f"{op.name}: row {k} power {p!r}, expected {want!r}")
        _require(valid == "1", f"{op.name}: row {k} marked invalid")
        ref = float(models.get(m["config"], drive2_power_w=p).transmission(0.0))
        _require(abs(float(t) - ref) <= T_RTOL * ref, f"{op.name}: P2 = {p!r}: T = {t}, closed form {ref!r}")


def _detuning_rows(wl, out: Outputs):
    op = find_op(wl, "sweep/charge-l1")
    header, rows = _csv_rows(out, op.meta["csv"])
    _require(header == ["charge_l1", "delta1_normalized", "valid"], f"{op.name}: header {header}")
    charges = [int(r[0]) for r in rows]
    _require(charges == list(range(op.meta["l_min"], op.meta["l_max"] + 1)), f"{op.name}: charges {charges}")
    _require(all(r[2] == "1" for r in rows), f"{op.name}: invalid rows")
    return op, charges, [float(r[1]) for r in rows]


def sweep_detuning(wl, out: Outputs, models: _Models) -> None:
    """delta1 and the shift delta1 - omega_phi against the reference fixed point."""
    op, charges, cols = _detuning_rows(wl, out)
    for l1, col in zip(charges, cols):
        m = models.get(op.meta["config"], charge_l1=l1)
        delta1 = m.omega_phi * (1.0 + col)
        ref_col = (m.delta1 - m.omega_phi) / m.omega_phi
        _require(abs(delta1 - m.delta1) <= T_RTOL * abs(m.delta1)
                 and abs(col - ref_col) <= T_RTOL * abs(ref_col) + 1e-15,
                 f"{op.name}: l1 = {l1}: delta1_normalized {col!r}, reference {ref_col!r}")


def sweep_sign_law(wl, out: Outputs, models: _Models) -> None:
    """sign(delta1 - Delta_c1) = sign(l1*l2), and delta1 strictly monotone in l1."""
    op, charges, cols = _detuning_rows(wl, out)
    cfg = wl.configs[op.meta["config"]]
    omega_phi, dc1, l2 = cfg["rotation_frequency_rad_s"], cfg["detuning1_rad_s"], cfg["charge_l2"]
    for l1, col in zip(charges, cols):
        shift = omega_phi * (1.0 + col) - dc1
        _require(np.sign(shift) == np.sign(l1 * l2), f"{op.name}: l1 = {l1}: delta1 - Delta_c1 = {shift!r}")
    steps = np.diff(cols)
    _require(bool(np.all(steps > 0) or np.all(steps < 0)), f"{op.name}: detuning not strictly monotone in l1")


# ---------------------------------------------------------------- validate

_LINE = re.compile(r"x = (\S+): \|c1\+\| analytic (\S+), demodulated (\S+), rel dev (\S+)")


def _validate_lines(wl, out: Outputs):
    op = wl.ops[0]
    lines = [tuple(float(v) for v in g.groups()) for g in _LINE.finditer(out.stdout[op.name])]
    _require(len(lines) == op.meta["n"], f"{op.name}: {len(lines)} probe lines, expected {op.meta['n']}")
    return op, lines


def validate_exit(wl, out: Outputs, models: _Models) -> None:
    for op in wl.ops:
        _require(out.rc[op.name] == 0, f"{op.name}: exit code {out.rc[op.name]}")


def validate_gate(wl, out: Outputs, models: _Models) -> None:
    op, lines = _validate_lines(wl, out)
    for x, _, _, rel in lines:
        _require(rel <= ORACLE_GATE, f"{op.name}: x = {x!r}: relative deviation {rel!r}")
    worst = re.search(r"max relative deviation: (\S+)", out.stdout[op.name])
    _require(worst is not None and float(worst.group(1)) <= ORACLE_GATE, f"{op.name}: max deviation line")


def validate_analytic(wl, out: Outputs, models: _Models) -> None:
    """The printed |c1+| against the closed form at the CLI's probe detunings.

    The detunings are placed by the CLI's documented rule (+-1 dressed
    linewidth, gamma_phi*(1 + cooperativity)), recomputed here from the
    reference steady state.
    """
    op, lines = _validate_lines(wl, out)
    m = models.get(op.meta["config"], quality_factor=op.meta["q"])
    coop = HBAR * m.g1**2 * m.n1 / (m.inertia * m.omega_phi * m.k1 * m.gamma)
    fwhm = m.gamma * (1.0 + coop)
    n = op.meta["n"]
    for k, (x_printed, analytic, _, _) in enumerate(lines):
        x = (k / max(n - 1, 1) - 0.5) * 2.0 * fwhm / m.omega_phi
        _require(abs(x_printed - x) <= 1e-4 * abs(x), f"{op.name}: probe x {x_printed!r}, expected {x!r}")
        ref = abs(complex(m.c1_plus(m.omega_phi * (1.0 + x)))) * op.meta["probe_scale"] * m.eps1 / m.eps_p
        _require(abs(analytic - ref) <= ANALYTIC_RTOL * ref,
                 f"{op.name}: x = {x!r}: analytic |c1+| {analytic!r}, closed form {ref!r}")


CHECKS = {
    "spectrum": [spectrum_rows, spectrum_valleys, spectrum_widths, spectrum_no_minimum, spectrum_byte_identical],
    "calibrate": [calibrate_complete, calibrate_valleys, calibrate_widths, calibrate_single_even],
    "sweep": [sweep_switch, sweep_detuning, sweep_sign_law],
    "validate": [validate_exit, validate_gate, validate_analytic],
}


def run_checks(wl, out: Outputs, only=None) -> list[str]:
    """Run every check of the workload; returns one message per failed check."""
    models = _Models(wl)
    failures = []
    for check in CHECKS[wl.name]:
        if only is not None and check is not only:
            continue
        try:
            check(wl, out, models)
        except CheckFailed as err:
            failures.append(f"{check.__name__}: {err}")
        except (KeyError, ValueError, IndexError) as err:
            failures.append(f"{check.__name__}: malformed output ({type(err).__name__}: {err})")
    return failures
