"""Calibration of valley position against signed topological charge, and inversion.

A calibration curve maps each integer charge l1 to its resonance-valley
position x*(l1); a measured valley position is inverted to the nearest
calibrated charge, with any other charges within half a linewidth
reported as ambiguous.  Curves persist to JSON together with a
fingerprint of every physical input except l1 itself.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

from .errors import CalibrationError, ConfigError, ModelNotInvertible, OutOfRange, PointFailure
from .params import SystemParams, Violation, fingerprint
from .spectrum import find_valley, scan, sweep

CALIBRATION_FORMAT = "oamcavity-calibration-v1"
MAX_FAILURE_FRACTION = 0.10
AMBIGUITY_RADIUS = 0.5  # in linewidths of the other charge's valley


@dataclass(frozen=True)
class CalibrationEntry:
    charge: int
    x_star: float
    fwhm: float | None


@dataclass(frozen=True)
class CalibrationCurve:
    entries: tuple[CalibrationEntry, ...]
    params_fingerprint: str  # charge l1 masked
    monotone: bool
    lin_fit: tuple[float, float, float] | None  # (slope, intercept, r_squared)
    failures: tuple[tuple[int, str], ...] = ()


@dataclass(frozen=True)
class OamEstimate:
    l_hat: int
    x_residual: float
    ambiguous_with: tuple[int, ...]


def _charges(l_min: int, l_max: int) -> range:
    """The charges l_min..l_max; ConfigError when l_min > l_max."""
    if l_min > l_max:
        raise ConfigError([Violation("l_min, l_max", f"need l_min <= l_max, got [{l_min}, {l_max}]")])
    return range(l_min, l_max + 1)


def build_calibration(
    params_template: SystemParams,
    l_min: int,
    l_max: int,
    jobs: int = 1,
) -> CalibrationCurve:
    """Valley position per integer charge in [l_min, l_max], plus a linear fit.

    The valleys come from one `scan`; a charge whose point fails is
    recorded under the failure's reason and excluded.  More than 10%
    failures aborts with CalibrationError, and l_min > l_max is a
    ConfigError.  `jobs` is accepted and ignored.
    """
    if not (isinstance(l_min, int) and isinstance(l_max, int)):
        raise ValueError("charge bounds must be integers")
    charges = _charges(l_min, l_max)
    entries = []
    failures = []
    valleys = scan([replace(params_template.config, charge_l1=charge) for charge in charges], find_valley)
    for charge, valley in zip(charges, valleys):
        if isinstance(valley, PointFailure):
            failures.append((charge, valley.reason))
        else:
            entries.append(CalibrationEntry(charge=charge, x_star=valley.x_star, fwhm=valley.fwhm))
    if len(failures) > MAX_FAILURE_FRACTION * len(charges):
        raise CalibrationError(
            f"{len(failures)}/{len(charges)} charges failed "
            f"(first failures: {failures[:5]})"
        )

    xs = [e.x_star for e in entries]
    ls = [e.charge for e in entries]
    monotone = len(entries) >= 2 and (
        all(b > a for a, b in zip(xs, xs[1:])) or all(b < a for a, b in zip(xs, xs[1:]))
    )
    lin_fit = _least_squares(ls, xs) if len(entries) >= 2 else None
    return CalibrationCurve(
        entries=tuple(entries),
        params_fingerprint=fingerprint(params_template.config, mask_charge_l1=True),
        monotone=monotone,
        lin_fit=lin_fit,
        failures=tuple(failures),
    )


def _least_squares(ls, xs) -> tuple[float, float, float]:
    n = len(ls)
    ml = sum(ls) / n
    mx = sum(xs) / n
    sll = sum((l - ml) ** 2 for l in ls)
    slx = sum((l - ml) * (x - mx) for l, x in zip(ls, xs))
    slope = slx / sll if sll > 0 else 0.0
    intercept = mx - slope * ml
    ss_tot = sum((x - mx) ** 2 for x in xs)
    ss_res = sum((x - (slope * l + intercept)) ** 2 for l, x in zip(ls, xs))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return slope, intercept, r2


def detuning_curve(params_template: SystemParams, l_min: int, l_max: int):
    """Normalized effective detuning (Delta_1 - omega_phi)/omega_phi per charge.

    The steady-state half of the calibration, no spectra involved: the
    `sweep` of the detuning over charge-l1, with None for an invalid row;
    ConfigError for l_min > l_max.
    """
    _, rows = sweep(params_template.config, "charge-l1", "detuning", _charges(l_min, l_max))
    return [(charge, value if valid else None) for charge, value, valid in rows]


def estimate_oam(curve: CalibrationCurve, x_measured: float) -> OamEstimate:
    """Invert a measured valley position to the nearest calibrated charge.

    Nearest-entry lookup (exact on calibration points, robust to curvature
    at large |l1|).  Charges whose calibrated position lies within
    AMBIGUITY_RADIUS * fwhm of the measurement are listed as ambiguous.

    Raises
    ------
    ConfigError
        when x_measured is not finite.
    ModelNotInvertible
        when the curve has fewer than two entries or is not strictly monotone.
    OutOfRange
        when x_measured lies beyond the curve's extremes by more than one
        inter-entry step.
    """
    if not abs(x_measured) < float("inf"):  # nan or +-inf
        raise ConfigError([Violation("x_measured", f"must be finite, got {x_measured!r}")])
    if len(curve.entries) < 2:
        raise ModelNotInvertible(f"calibration curve has {len(curve.entries)} entries, need at least 2")
    if not curve.monotone:
        raise ModelNotInvertible("calibration curve is not strictly monotone in charge")
    entries = sorted(curve.entries, key=lambda e: e.x_star)
    x_lo, x_hi = entries[0].x_star, entries[-1].x_star
    step_lo = entries[1].x_star - entries[0].x_star
    step_hi = entries[-1].x_star - entries[-2].x_star
    if x_measured < x_lo - step_lo or x_measured > x_hi + step_hi:
        raise OutOfRange(
            f"x = {x_measured:.6e} outside calibrated range [{x_lo:.6e}, {x_hi:.6e}] "
            "by more than one inter-entry step"
        )
    best = min(curve.entries, key=lambda e: abs(e.x_star - x_measured))
    ambiguous = []
    for e in curve.entries:
        if e.charge == best.charge:
            continue
        radius = AMBIGUITY_RADIUS * (e.fwhm if e.fwhm is not None else 0.0)
        if abs(e.x_star - x_measured) <= radius:
            ambiguous.append(e.charge)
    return OamEstimate(
        l_hat=best.charge,
        x_residual=x_measured - best.x_star,
        ambiguous_with=tuple(sorted(ambiguous)),
    )


def save_calibration(curve: CalibrationCurve, path) -> None:
    doc = {
        "format": CALIBRATION_FORMAT,
        "params_fingerprint": curve.params_fingerprint,
        "monotone": curve.monotone,
        "lin_fit": None
        if curve.lin_fit is None
        else {"slope": curve.lin_fit[0], "intercept": curve.lin_fit[1], "r_squared": curve.lin_fit[2]},
        "entries": [
            {"charge": e.charge, "x_star": e.x_star, "fwhm": e.fwhm} for e in curve.entries
        ],
        "failures": [{"charge": c, "reason": r} for c, r in curve.failures],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_calibration(path) -> CalibrationCurve:
    """Read a `save_calibration` file; any other document or unreadable JSON raises ConfigError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc.get("format") != CALIBRATION_FORMAT:
            raise ValueError(f"not a calibration file: format={doc.get('format')!r}")
        entries = tuple(
            CalibrationEntry(charge=int(e["charge"]), x_star=float(e["x_star"]),
                             fwhm=None if e["fwhm"] is None else float(e["fwhm"]))
            for e in doc["entries"]
        )
        lf = doc.get("lin_fit")
        lin_fit = None if lf is None else (lf["slope"], lf["intercept"], lf["r_squared"])
        return CalibrationCurve(
            entries=entries,
            params_fingerprint=doc["params_fingerprint"],
            monotone=bool(doc["monotone"]),
            lin_fit=lin_fit,
            failures=tuple((f["charge"], f["reason"]) for f in doc.get("failures", [])),
        )
    except (AttributeError, KeyError, TypeError, ValueError) as err:
        reason = f"missing key {err}" if isinstance(err, KeyError) else str(err)
        raise ConfigError([Violation(f"calibration {path}", reason)]) from None


def check_fingerprint(curve: CalibrationCurve, params: SystemParams) -> bool:
    """True iff the curve was built from the same physical inputs (l1 aside)."""
    return curve.params_fingerprint == fingerprint(params.config, mask_charge_l1=True)
