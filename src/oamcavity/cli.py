"""Command-line front end.

Subcommands: spectrum, calibrate, estimate, sweep, validate.  Every data
file is paired with a manifest JSON carrying the resolved configuration,
flags, tool version and parameter fingerprint, so any run can be exactly
re-executed.  Data files contain no wall-clock information and are
byte-identical across reruns of the same (config, flags, version).

Exit codes (frozen for scripting).  Each error class carries its own as
``exit_code``; ``main`` maps any OamCavityError to it:
    0  success
    2  configuration invalid: ConfigError, a missing or malformed config
       file, an invalid range or --branch on the command line
    3  multistable steady state and no --branch given: Multistable
    4  numeric failure: every other OamCavityError (NoConvergence,
       SingularSystem, NoInteriorMinimum, DipTooShallow, ModelNotInvertible,
       CalibrationError, StepSizeUnderflow, WindowTooShort, PoorFit), and a
       `validate` deviation above 1e-3
    5  measurement out of calibration range: OutOfRange
    6  calibration fingerprint mismatch (no --force): FingerprintMismatch

Errors are reported on stderr as ``<ErrorClass>: <message>``; a ConfigError
message names every offending config field.  `spectrum` without --branch
on a multistable config instead prints the coexisting roots as JSON.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .errors import (
    ConfigError,
    DipTooShallow,
    FingerprintMismatch,
    Multistable,
    NoConvergence,
    NoInteriorMinimum,
    OamCavityError,
    SingularSystem,
)
from .oam import (
    build_calibration,
    check_fingerprint,
    estimate_oam,
    load_calibration,
    save_calibration,
)
from .oracle import default_t_end, demodulate, integrate_mean_field
from .params import Detuning2Spec, canonical_dict, derive_params, fingerprint, load_config
from .response import sideband_response, transmission_at
from .spectrum import DEFAULT_WINDOW, charge_step_shift, find_valley, sample_spectrum
from .steady import bare_detunings, operating_point, solve_steady

EXIT_OK = 0
EXIT_CONFIG = ConfigError.exit_code
EXIT_MULTISTABLE = Multistable.exit_code
EXIT_NUMERIC = OamCavityError.exit_code

def _write_csv(path, header: list[str], columns) -> None:
    """Write equal-length columns (numpy arrays or sequences) under `header`.

    A column whose values (after ``tolist()`` for an array) are all ints or
    bools is written as ``%d``, bools as 0/1; any other as ``%.16e``, 17
    significant digits, round-trippable.  The body is one ``%`` pass.
    """
    columns = [c.tolist() if isinstance(c, np.ndarray) else list(c) for c in columns]
    row = ",".join("%d" if all(isinstance(v, int) for v in c) else "%.16e" for c in columns) + "\n"
    values = [None] * sum(len(c) for c in columns)
    for i, c in enumerate(columns):
        values[i :: len(columns)] = c
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n" + row * len(columns[0]) % tuple(values))


def _write_manifest(out_path, subcommand: str, flags: dict, config) -> None:
    doc = {
        "tool": "oamcavity",
        "version": __version__,
        "timestamp_utc": datetime.now(timezone.utc).isoformat(),
        "subcommand": subcommand,
        "flags": flags,
        "config": canonical_dict(config),
        "params_fingerprint": fingerprint(config),
    }
    with open(str(out_path) + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _steady_or_exit(params, branch: int | None):
    """Solve the steady state, honoring the multistability contract."""
    report = solve_steady(params)
    if report.multistable and branch is None:
        roots = [
            {"phi": st.phi, "delta1": st.delta1, "n1": st.n1, "n2": st.n2, "branch_tag": st.branch_tag}
            for st in report.all_roots
        ]
        print(
            json.dumps({"error": "multistable", "roots": roots}, indent=2),
            file=sys.stderr,
        )
        raise SystemExit(EXIT_MULTISTABLE)
    if branch is not None:
        if not 0 <= branch < len(report.all_roots):
            print(
                f"--branch {branch} out of range (have {len(report.all_roots)} roots)",
                file=sys.stderr,
            )
            raise SystemExit(EXIT_CONFIG)
        return report.all_roots[branch]
    return report.selected


def cmd_spectrum(args) -> int:
    if args.n < 3 or not args.x_lo < args.x_hi:
        print("need x_lo < x_hi and n >= 3", file=sys.stderr)
        return EXIT_CONFIG
    config = load_config(args.config)
    params = derive_params(config)
    steady = _steady_or_exit(params, args.branch)
    spec = sample_spectrum(params, steady, args.x_lo, args.x_hi, args.n)
    _write_csv(args.out, ["x", "T"], [spec.xs, spec.transmissions])
    flags = {"x_lo": args.x_lo, "x_hi": args.x_hi, "n": args.n, "branch": args.branch}
    _write_manifest(args.out, "spectrum", flags, config)
    if args.valley_out:
        try:
            valley = find_valley(params, steady)
            doc = {
                "x_star": valley.x_star,
                "t_min": valley.t_min,
                "curvature_sign_ok": valley.curvature_sign_ok,
                "fwhm": valley.fwhm,
                "window": list(valley.window),
            }
        except NoInteriorMinimum as err:
            doc = {"error": "no-interior-minimum", "detail": str(err)}
        with open(args.valley_out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        _write_manifest(args.valley_out, "spectrum/valley", flags, config)
    print(f"wrote {args.out} ({args.n} rows)")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    if args.l_min > args.l_max:
        print(f"need l_min <= l_max, got [{args.l_min}, {args.l_max}]", file=sys.stderr)
        return EXIT_CONFIG
    config = load_config(args.config)
    params = derive_params(config)
    curve = build_calibration(params, args.l_min, args.l_max, jobs=args.jobs)
    save_calibration(curve, args.out)
    _write_csv(
        str(args.out) + ".csv",
        ["l1", "x_star", "fwhm"],
        zip(*[(e.charge, e.x_star, e.fwhm if e.fwhm is not None else float("nan")) for e in curve.entries]),
    )
    flags = {"l_min": args.l_min, "l_max": args.l_max, "jobs": args.jobs}
    _write_manifest(args.out, "calibrate", flags, config)
    _write_manifest(str(args.out) + ".csv", "calibrate", flags, config)
    if len(curve.entries) == 1:
        print("warning: single-entry calibration, linear fit undefined", file=sys.stderr)
    if curve.lin_fit is not None:
        slope, intercept, r2 = curve.lin_fit
        print(
            f"calibration: {len(curve.entries)} entries, {len(curve.failures)} failures, "
            f"fit x* = {slope:.6e}*l1 + {intercept:.6e}, r^2 = {r2:.6f}, "
            f"monotone = {curve.monotone}"
        )
    else:
        print(f"calibration: {len(curve.entries)} entries, linear fit undefined")
    return EXIT_OK


def cmd_estimate(args) -> int:
    curve = load_calibration(args.calibration)
    if args.config is not None:
        config = load_config(args.config)
        params = derive_params(config)
        if not check_fingerprint(curve, params) and not args.force:
            raise FingerprintMismatch(
                "calibration fingerprint does not match the supplied config (use --force to override)"
            )
    est = estimate_oam(curve, args.x_measured)
    print(
        json.dumps(
            {
                "l_hat": est.l_hat,
                "x_residual": est.x_residual,
                "ambiguous_with": list(est.ambiguous_with),
            },
            indent=2,
            sort_keys=True,
        )
    )
    return EXIT_OK


def _sweep_point(config, axis, value, observable):
    """One sweep evaluation; returns (axis_value, observable_value, valid)."""
    if axis == "drive2-power":
        cfg = dataclasses.replace(config, drive2_power=float(value))
    elif axis == "detuning2":
        cfg = dataclasses.replace(config, detuning2=Detuning2Spec("effective", float(value)))
    elif axis == "charge-l1":
        cfg = dataclasses.replace(config, charge_l1=int(value))
    else:
        raise ValueError(f"unknown axis {axis!r}")
    try:
        if observable == "shift-distance":
            return value, charge_step_shift(cfg), True
        params, steady = operating_point(cfg)
        if observable == "x-star":
            return value, find_valley(params, steady).x_star, True
        if observable == "resonance-transmission":
            return value, transmission_at(params, steady, params.omega_phi), True
        if observable == "detuning":
            return value, (steady.delta1 - params.omega_phi) / params.omega_phi, True
        raise ValueError(f"unknown observable {observable!r}")
    except (Multistable, NoConvergence, NoInteriorMinimum, DipTooShallow, SingularSystem):
        return value, float("nan"), False


def cmd_sweep(args) -> int:
    config = load_config(args.config)
    derive_params(config)  # validate early
    if args.n < 1 or (args.n > 1 and not args.start < args.stop):
        print("empty or inverted sweep range", file=sys.stderr)
        return EXIT_CONFIG
    if args.axis == "charge-l1":
        if args.n == 1:
            values = [int(round(args.start))]
        else:
            step = (args.stop - args.start) / (args.n - 1)
            values = [int(round(args.start + k * step)) for k in range(args.n)]
    else:
        values = [
            args.start + k * (args.stop - args.start) / max(args.n - 1, 1) for k in range(args.n)
        ]
    rows = [_sweep_point(config, args.axis, v, args.observable) for v in values]
    header = {"x-star": "x_star", "resonance-transmission": "T", "detuning": "delta1_normalized",
              "shift-distance": "d"}[args.observable]
    axis_col = args.axis.replace("-", "_")
    if args.observable == "shift-distance" and args.axis == "detuning2":
        # scan tables carry the normalized detuning
        omega_phi = config.rotation_frequency
        rows = [(v / omega_phi, d, ok) for v, d, ok in rows]
        axis_col = "d2_over_omega"
    _write_csv(args.out, [axis_col, header, "valid"], zip(*rows))
    flags = {
        "axis": args.axis,
        "start": args.start,
        "stop": args.stop,
        "n": args.n,
        "observable": args.observable,
        "jobs": args.jobs,
    }
    _write_manifest(args.out, "sweep", flags, config)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return EXIT_OK


def cmd_validate(args) -> int:
    config = load_config(args.config)
    # fast-relaxation override: structural equivalence is what is being tested
    config = dataclasses.replace(config, quality_factor=float(args.quality_override))
    params, steady = operating_point(config)
    bare = bare_detunings(params, steady)

    probe_scale = args.probe_scale * params.eps1 / params.eps_p if params.eps_p > 0 else 0.0
    t_end = default_t_end(params)
    start = (steady.c1, steady.c2, steady.phi, 0.0)

    # dressed-dip width estimate to place the probe detunings
    coop = (
        params.hbar * params.g1**2 * steady.n1
        / (params.inertia * params.omega_phi * params.kappa1 * params.gamma_phi)
    )
    fwhm_omega = params.gamma_phi * (1.0 + coop)
    xs = [
        (k / max(args.n_points - 1, 1) - 0.5) * 2.0 * fwhm_omega / params.omega_phi
        for k in range(args.n_points)
    ]

    worst = 0.0
    print(f"probe amplitude scale: eps_p_eff = {args.probe_scale:g} * eps1, t_end = {t_end:.3e} s")
    for x in xs:
        omega = params.omega_phi * (1.0 + x)
        traj = integrate_mean_field(params, bare, start, t_end, omega, eps_p_scale=probe_scale)
        window = (t_end - 21.0 * 2.0 * math.pi / omega, t_end)
        demod = demodulate(traj, omega, window)
        analytic = sideband_response(params, steady, omega).c1_plus * probe_scale
        rel = abs(demod.c1_plus_est - analytic) / abs(analytic)
        worst = max(worst, rel)
        print(f"  x = {x:+.4e}: |c1+| analytic {abs(analytic):.6e}, "
              f"demodulated {abs(demod.c1_plus_est):.6e}, rel dev {rel:.3e}")
    print(f"max relative deviation: {worst:.6e}")
    if worst <= 1e-3:
        return EXIT_OK
    print("linearized response and time-domain oracle disagree beyond 1e-3", file=sys.stderr)
    return EXIT_NUMERIC


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="oamcavity",
        description="Double rotational-cavity transmission simulator and OAM meter",
    )
    ap.add_argument("--version", action="version", version=f"oamcavity {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="sample a transmission spectrum to CSV")
    sp.add_argument("--config", required=True)
    sp.add_argument("--x-lo", type=float, default=DEFAULT_WINDOW[0])
    sp.add_argument("--x-hi", type=float, default=DEFAULT_WINDOW[1])
    sp.add_argument("-n", "--n", type=int, default=2001)
    sp.add_argument("--out", required=True)
    sp.add_argument("--valley-out", default=None, help="also locate the valley, write JSON here")
    sp.add_argument("--branch", type=int, default=None, help="root index when multistable")
    sp.set_defaults(func=cmd_spectrum)

    cp = sub.add_parser("calibrate", help="build a charge calibration curve")
    cp.add_argument("--config", required=True)
    cp.add_argument("--l-min", type=int, required=True)
    cp.add_argument("--l-max", type=int, required=True)
    cp.add_argument("--out", required=True)
    cp.add_argument("--jobs", type=int, default=1, help="accepted; work runs serially")
    cp.set_defaults(func=cmd_calibrate)

    ep = sub.add_parser("estimate", help="invert a measured valley position")
    ep.add_argument("--calibration", required=True)
    ep.add_argument("--x-measured", type=float, required=True)
    ep.add_argument("--config", default=None, help="verify the calibration fingerprint against this config")
    ep.add_argument("--force", action="store_true")
    ep.set_defaults(func=cmd_estimate)

    wp = sub.add_parser("sweep", help="1-D parameter sweep to CSV")
    wp.add_argument("--config", required=True)
    wp.add_argument("--axis", required=True, choices=["drive2-power", "detuning2", "charge-l1"])
    wp.add_argument("--start", type=float, required=True)
    wp.add_argument("--stop", type=float, required=True)
    wp.add_argument("-n", "--n", type=int, required=True)
    wp.add_argument(
        "--observable",
        default="x-star",
        choices=["x-star", "resonance-transmission", "detuning", "shift-distance"],
    )
    wp.add_argument("--out", required=True)
    wp.add_argument("--jobs", type=int, default=1, help="accepted; work runs serially")
    wp.set_defaults(func=cmd_sweep)

    vp = sub.add_parser("validate", help="oracle vs linearized-response comparison")
    vp.add_argument("--config", required=True)
    vp.add_argument("-n", "--n-points", type=int, default=5)
    vp.add_argument("--probe-scale", type=float, default=1e-3, help="probe amplitude as a fraction of eps1")
    vp.add_argument("--quality-override", type=float, default=2e3, help="fast-relaxation Q_phi override")
    vp.set_defaults(func=cmd_validate)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (FileNotFoundError, json.JSONDecodeError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except OamCavityError as err:
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        return err.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
