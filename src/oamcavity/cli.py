"""Command-line front end.

Subcommands: spectrum, calibrate, estimate, sweep, validate.  Every data
file is paired with a manifest JSON carrying the resolved configuration,
flags (every parsed option except the paths), tool version and parameter
fingerprint, so any run can be exactly re-executed.  Data files contain no
wall-clock information and are byte-identical across reruns of the same
(config, flags, version).

Exit codes (frozen for scripting).  Each error class carries its own as
``exit_code``; ``main`` maps any OamCavityError to it:
    0  success
    2  configuration invalid: ConfigError, a malformed config or
       calibration file, an invalid range or --branch on the command line
       (a spectrum or sweep end that is not finite, a validate -n below 1,
       a --probe-scale that is not finite and positive, a validate probe
       that is zero (drive 1 off) or a probe detuning that is not
       positive, an estimate --x-measured that is not finite)
    2  a config, calibration or output path that cannot be read or
       written (any OSError: missing, a directory, no permission)
    2  a valid config whose extreme values overflow a derived quantity
       (kappa_i^2, g_i^2, omega_phi^2, I*omega_phi^2, gamma_phi, eps^2) or
       make a coupling vanish: ConfigError naming the config keys it comes
       from
    3  multistable steady state and no --branch given: Multistable
    4  numeric failure: every other OamCavityError (NoConvergence,
       SingularSystem, NoInteriorMinimum, DipTooShallow, their base class
       PointFailure, ModelNotInvertible, CalibrationError,
       StepSizeUnderflow, WindowTooShort, PoorFit), and a `validate`
       deviation above 1e-3
    4  a validate periodic orbit that is unstable (a Floquet multiplier
       of modulus 1 or more) or that Newton shooting does not reach:
       NoConvergence
    4  a steady-state polynomial whose coefficients overflow (a detuning
       far beyond omega_phi): NoConvergence
    4  an optical-spring term that overflows (Delta_i^2 or g_i*N_i*Delta_i
       not finite) or a kernel denominator that is not finite: SingularSystem
    5  measurement out of calibration range: OutOfRange
    6  calibration fingerprint mismatch (no --force): FingerprintMismatch

Errors are reported on stderr as ``<ErrorClass>: <message>``; a ConfigError
message names every offending config field.  Every command prints a
Multistable as the coexisting roots, ``{"error": "multistable", "roots":
[...]}`` JSON.
A sweep row or calibration charge that raises a PointFailure is recorded
as invalid and the run goes on (`spectrum.scan` solves and measures the
points as one batch, and a failing point leaves the others untouched); a
calibration records the error's ``reason``, the word the ``--valley-out``
and multistable JSON carry under "error".  `spectrum` writes `sample_spectrum`'s (xs, ts) as
x,T; a valley's FWHM is `spectrum.linewidth(xs, ts, x_star, t_min)`.

Config keys and their checks (``params.FIELDS``): strictly positive
mirror_radius_m, mirror_mass_kg, rotation_frequency_rad_s, quality_factor,
cavity_length_m, finesse_1, finesse_2, drive1_wavelength_m and
drive2_wavelength_m (optional, defaults to drive 1); non-negative
drive1_power_w, drive2_power_w and probe_power_w; integer charge_l1 and
charge_l2; finite detuning1_rad_s and at most one of
detuning2_effective_rad_s or detuning2_bare_rad_s.  A zero probe power is
a valid config, but every command that measures T (spectrum, calibrate,
a sweep of x-star, resonance-transmission or shift-distance, and
validate) refuses it with ``ConfigError: probe_power: ...`` and exit 2.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .errors import (
    ConfigError,
    FingerprintMismatch,
    Multistable,
    NoInteriorMinimum,
    OamCavityError,
)
from .oam import (
    build_calibration,
    check_fingerprint,
    estimate_oam,
    load_calibration,
    save_calibration,
)
from .oracle import sideband_oracle
from .params import Violation, canonical_dict, derive_params, fingerprint, load_config
from .response import probe_amplitude, sideband_response
from .spectrum import (
    DEFAULT_WINDOW,
    SWEEP_AXES,
    SWEEP_OBSERVABLES,
    find_valley,
    sample_spectrum,
    sweep,
    sweep_values,
)
from .steady import bare_detunings, operating_point, point_or_raise, solve_steady

#: parsed options that name files or dispatch rather than set a flag
_NOT_FLAGS = ("command", "func", "config", "out", "valley_out")

#: Rows formatted at a time, so no data file is held as one byte matrix.
_BLOCK_ROWS = 4096
#: Width of a formatted float, NUL-padded: len("-4.9406564584124654e-324").
_SLOT = 24
#: 10**0 .. 10**22, each exact in float64, and their Veltkamp halves (split 2**27 + 1)
_POW10 = np.array([float(10**k) for k in range(23)])
_POW10_HI = _POW10 * 134217729.0 - (_POW10 * 134217729.0 - _POW10)
_POW10_LO = _POW10 - _POW10_HI
#: entry k holds the four ASCII digits of k in its low bytes (from uint8 grids: no int64 temporaries)
_DIGIT = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
_DIGITS4 = np.stack(np.meshgrid(*[_DIGIT] * 4, indexing="ij"), axis=-1).view("<u4").ravel().astype(np.uint64)
#: entry k holds slot bytes 16..23 for the exponent 16 - k, the digits at 16..18 left zero
_EXP_WORD = np.array([int.from_bytes(b"\0\0\0e%+03d\0" % (16 - k), "little") for k in range(23)], np.uint64)


def _float_slots(v: np.ndarray) -> np.ndarray:
    """``'%.16e' % x`` for each float64 x of `v`, as uint8 rows.

    For decimal exponent E in -6..16, 10**(16 - E) is exact, and Dekker's
    TwoProduct gives s + err = |x|*10**(16 - E) exactly in float64.  Where
    that lies in [1e16, 1e17), s + rint(err) is the correctly rounded
    17-digit mantissa on any platform: s is even there, so rint's half to
    even on an exact tie picks the digits ``%`` picks.  Every other value
    (0, -0, nan, inf, E out of range, a log10 one off next to a power of
    ten) is formatted by ``%``.  Rows are `_SLOT` wide and NUL-padded, or
    cut to their one width, with no NUL, when `v` has one sign and was all proven.
    """
    a = np.abs(v)
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(a))
    ok = (e >= -6) & (e <= 16)  # False for 0, nan and inf
    k = np.where(ok, 16 - e, 0).astype(np.intp)
    a = np.where(ok, a, 1e16)
    s = a * _POW10.take(k)
    ah = a * 134217729.0 - (a * 134217729.0 - a)
    al = a - ah
    ph, pl = _POW10_HI.take(k), _POW10_LO.take(k)
    err = ((ah * ph - s) + ah * pl + al * ph) + al * pl
    r = np.rint(err)
    m = s.astype(np.int64) + r.astype(np.int64)
    # s + err < 1e16 or s >= 1e17 means log10 was one off, next to a power of ten
    ok &= ((s > 1e16) | (s == 1e16) & (err >= 0)) & (s < 1e17)
    # numpy floor-divides by a constant fast and takes % slowly, so remainders are multiply-subtract
    m8, lead = m // 10**8, m // 10**16
    hi, lo = m8 - lead * 10**8, m - m8 * 10**8
    h4, l4 = hi // 10**4, lo // 10**4
    d1, d3 = _DIGITS4.take(hi - h4 * 10**4), _DIGITS4.take(lo - l4 * 10**4)
    # three little-endian words: sign, lead, '.', digits 1-5 | digits 6-13 | digits 14-16, 'e', exponent
    head = (lead << 8) + (np.signbit(v) * ord("-") + (ord("0") << 8 | ord(".") << 16))
    words = np.empty((len(v), 3), "<u8")
    words[:, 0] = head.view(np.uint64) | _DIGITS4.take(h4) << 24 | d1 << 56
    words[:, 1] = d1 >> 8 | _DIGITS4.take(l4) << 24 | d3 << 56
    words[:, 2] = d3 >> 8 | _EXP_WORD.take(k)
    out = words.view(np.uint8).reshape(len(v), _SLOT)
    bad = np.flatnonzero(~ok)
    if bad.size:
        text = np.array([b"%.16e" % x for x in v[bad].tolist()], dtype=f"S{_SLOT}")
        out[bad] = text.view(np.uint8).reshape(-1, _SLOT)
    n_negative = np.count_nonzero(np.signbit(v))
    if bad.size or 0 < n_negative < len(v):
        return out
    return out[:, int(n_negative == 0) : 23]


def _column(c) -> np.ndarray:
    """A float64 array for a float column, or a bytes array of its ``%d`` texts.

    An ndarray is an int column when its dtype is integer or bool; any
    other sequence when all its values are ints or bools.
    """
    if isinstance(c, np.ndarray):
        is_int = c.dtype.kind in "biu"
        c = c.tolist() if is_int else c
    else:
        c = list(c)
        is_int = all(isinstance(v, int) for v in c)
    if is_int:
        return np.array([b"%d" % v for v in c], dtype=bytes)
    return np.asarray(c, dtype=np.float64)


def _write_csv(path, header: list[str], columns) -> None:
    """Write equal-length columns (numpy arrays or sequences) under `header`.

    Int and bool columns (see `_column`) are written as ``%d``, bools as
    0/1; any other as ``%.16e``, 17 significant digits, round-trippable.
    The bytes are those of ``'%.16e' % x``: `_float_slots` takes the digits
    from an exact float64 product where it can prove them, and formats every
    other value with ``%`` itself.  Rows are laid out in blocks of
    `_BLOCK_ROWS` as NUL-padded slots, and the NULs are dropped.
    """
    columns = [_column(c) for c in columns]
    n = len(columns[0]) if columns else 0
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, n, _BLOCK_ROWS):
            parts = []
            for c in columns:
                block = c[start : start + _BLOCK_ROWS]
                slots = _float_slots(block) if c.dtype == np.float64 else block.view(np.uint8)
                parts += [slots.reshape(len(block), -1), np.full((len(block), 1), ord(","), np.uint8)]
            parts[-1][:] = ord("\n")
            fh.write(np.concatenate(parts, axis=1).tobytes().replace(b"\0", b""))


def _write_manifest(out_path, subcommand: str, args, config) -> None:
    doc = {
        "tool": "oamcavity",
        "version": __version__,
        "timestamp_utc": datetime.now(timezone.utc).isoformat(),
        "subcommand": subcommand,
        "flags": {key: value for key, value in vars(args).items() if key not in _NOT_FLAGS},
        "config": canonical_dict(config),
        "params_fingerprint": fingerprint(config),
    }
    with open(str(out_path) + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_spectrum(args) -> int:
    if args.n < 3 or not -np.inf < args.x_lo < args.x_hi < np.inf:
        raise ConfigError([Violation("--x-lo, --x-hi, -n", "need finite x_lo < x_hi and n >= 3")])
    config = load_config(args.config)
    params = derive_params(config)
    report = solve_steady(params)
    if args.branch is None:
        steady = point_or_raise(Multistable(report) if report.multistable else report.selected)
    elif 0 <= args.branch < len(report.all_roots):
        steady = report.all_roots[args.branch]
    else:
        n_roots = len(report.all_roots)
        raise ConfigError([Violation("--branch", f"{args.branch} out of range (have {n_roots} roots)")])
    xs, ts = sample_spectrum(params, steady, args.x_lo, args.x_hi, args.n)
    # an unusable --valley-out is refused before the CSV or its manifest is written
    with open(args.valley_out, "w", encoding="utf-8") if args.valley_out else contextlib.nullcontext() as fh:
        _write_csv(args.out, ["x", "T"], [xs, ts])
        _write_manifest(args.out, "spectrum", args, config)
        if fh is not None:
            try:
                doc = dataclasses.asdict(find_valley(params, steady))
            except NoInteriorMinimum as err:
                doc = {"error": err.reason, "detail": str(err)}
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
            _write_manifest(args.valley_out, "spectrum/valley", args, config)
    print(f"wrote {args.out} ({args.n} rows)")
    return 0


def cmd_calibrate(args) -> int:
    config = load_config(args.config)
    params = derive_params(config)
    curve = build_calibration(params, args.l_min, args.l_max, jobs=args.jobs)
    save_calibration(curve, args.out)
    _write_csv(
        str(args.out) + ".csv",
        ["l1", "x_star", "fwhm"],
        zip(*[(e.charge, e.x_star, e.fwhm if e.fwhm is not None else float("nan")) for e in curve.entries]),
    )
    _write_manifest(args.out, "calibrate", args, config)
    _write_manifest(str(args.out) + ".csv", "calibrate", args, config)
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
    return 0


def cmd_estimate(args) -> int:
    curve = load_calibration(args.calibration)
    if args.config is not None:
        config = load_config(args.config)
        params = derive_params(config)
        if not check_fingerprint(curve, params) and not args.force:
            raise FingerprintMismatch(
                "calibration fingerprint does not match the supplied config (use --force to override)"
            )
    print(json.dumps(dataclasses.asdict(estimate_oam(curve, args.x_measured)), indent=2, sort_keys=True))
    return 0


def cmd_sweep(args) -> int:
    config = load_config(args.config)
    derive_params(config)  # validate early
    values = sweep_values(args.axis, args.start, args.stop, args.n)
    header, rows = sweep(config, args.axis, args.observable, values)
    _write_csv(args.out, header, zip(*rows))
    _write_manifest(args.out, "sweep", args, config)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


def cmd_validate(args) -> int:
    if args.n_points < 1 or not 0.0 < args.probe_scale < np.inf:
        raise ConfigError([Violation("-n, --probe-scale", "need n >= 1 and a finite scale > 0")])
    config = load_config(args.config)
    # fast-relaxation override: structural equivalence is what is being tested
    config = dataclasses.replace(config, quality_factor=float(args.quality_override))
    params, steady = operating_point(config)
    bare = bare_detunings(params, steady)

    probe_scale = args.probe_scale * params.eps1 / probe_amplitude(params)
    if not 0.0 < probe_scale * params.eps_p < np.inf:
        raise ConfigError([Violation("drive1_power_w, --probe-scale", f"the probe, {args.probe_scale:g} * eps1 = "
                                     f"{args.probe_scale * params.eps1!r}, must be positive and finite")])
    start = (steady.c1, steady.c2, steady.phi, 0.0)

    # dressed-dip width estimate to place the probe detunings
    coop = (
        params.hbar * params.g1**2 * steady.n1
        / (params.inertia * params.omega_phi * params.kappa1 * params.gamma_phi)
    )
    fwhm_omega = params.gamma_phi * (1.0 + coop)
    if not fwhm_omega < params.omega_phi:  # the lowest probe sits at omega_phi - fwhm_omega
        raise ConfigError([Violation("validate probes", f"the dressed-linewidth estimate gamma_phi*(1 + C) = "
                                     f"{fwhm_omega:.6e} rad/s must lie below omega_phi = {params.omega_phi:.6e} "
                                     "rad/s, or a probe detuning is not positive")])
    xs = [
        (k / max(args.n_points - 1, 1) - 0.5) * 2.0 * fwhm_omega / params.omega_phi
        for k in range(args.n_points)
    ]

    worst = multiplier = 0.0
    print(f"probe amplitude scale: eps_p_eff = {args.probe_scale:g} * eps1")
    for x in xs:
        omega = params.omega_phi * (1.0 + x)
        demod = sideband_oracle(params, bare, omega, start, probe_scale)
        multiplier = max(multiplier, demod.max_multiplier)
        analytic = sideband_response(params, steady, omega).c1_plus * probe_scale
        rel = abs(demod.c1_plus_est - analytic) / abs(analytic)
        worst = max(worst, rel)
        print(f"  x = {x:+.4e}: |c1+| analytic {abs(analytic):.6e}, "
              f"demodulated {abs(demod.c1_plus_est):.6e}, rel dev {rel:.3e}")
    print(f"max relative deviation: {worst:.6e}")
    print(f"max Floquet multiplier: {multiplier:.8f}")
    if worst <= 1e-3:
        return 0
    print("linearized response and time-domain oracle disagree beyond 1e-3", file=sys.stderr)
    return OamCavityError.exit_code


@functools.cache  # one parser per process: building it costs about 1 ms
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
    wp.add_argument("--axis", required=True, choices=list(SWEEP_AXES))
    wp.add_argument("--start", type=float, required=True)
    wp.add_argument("--stop", type=float, required=True)
    wp.add_argument("-n", "--n", type=int, required=True)
    wp.add_argument("--observable", default=next(iter(SWEEP_OBSERVABLES)), choices=list(SWEEP_OBSERVABLES))
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
    """Run one command; the only place where a raised error becomes an exit status and a stderr report."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as err:  # only input and output files are opened
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        return ConfigError.exit_code
    except Multistable as err:
        roots = [{"phi": st.phi, "delta1": st.delta1, "n1": st.n1, "n2": st.n2, "branch_tag": st.branch_tag}
                 for st in err.report.all_roots]
        print(json.dumps({"error": err.reason, "roots": roots}, indent=2), file=sys.stderr)
        return err.exit_code
    except OamCavityError as err:
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        return err.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
