"""Per-layer tracing from outside the package.

The public functions of each layer are wrapped and the wrapper is bound
into every loaded ``oamcavity`` module namespace that holds the original
(for example ``solve_steady`` in ``steady``, ``oam``, ``spectrum`` and
``cli``), so calls between modules pass through it.  Each wrapper records
a span (name, start, end, parent) plus counts in memory; the spans are
turned into per-layer metrics after the round and written out at the end.

A traced name that the package no longer defines is listed as absent and
its metrics read 0; it never stops the run.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

import numpy as np

#: (module, function, kind): "span" records a span, "count" only counts calls
TRACED = (
    ("cli", "main", "span"),
    ("params", "derive_params", "span"),
    ("steady", "solve_steady", "span"),
    ("steady", "steady_residual", "count"),
    ("response", "sideband_response", "span"),
    ("response", "transmission_many", "span"),
    ("spectrum", "find_valley", "span"),
    ("spectrum", "sample_spectrum", "span"),
    ("spectrum", "linewidth", "span"),
    ("oam", "build_calibration", "span"),
    ("oracle", "integrate_mean_field", "span"),
    ("oracle", "solve_ivp", "span"),  # the integrator boundary as the oracle sees it
    ("oracle", "demodulate", "span"),
)

# RK45 spends 2 right-hand-side calls on start-up and 6 per attempted step
_RK45_START_CALLS = 2
_RK45_CALLS_PER_STEP = 6
_MIB = 1024.0 * 1024.0


def _extra(name, args, kwargs, result):
    """The count a call carries, or None; a changed signature yields None, not an error."""
    try:
        return _count_of(name, args, kwargs, result)
    except (AttributeError, IndexError, KeyError, TypeError):
        return None


def _count_of(name, args, kwargs, result):
    if name == "transmission_many":
        return len(args[2]) if len(args) > 2 else len(kwargs["omegas"])
    if name == "sideband_response":
        return 1
    if name == "sample_spectrum":
        return args[4] if len(args) > 4 else kwargs["n"]
    if name == "build_calibration":
        return len(result.entries) + len(result.failures)
    if name == "solve_ivp":
        return (result.nfev, len(result.t) - 1)
    if name == "integrate_mean_field":
        return _array_bytes(result)
    return None


def _array_bytes(obj) -> int:
    return sum(v.nbytes for v in vars(obj).values() if isinstance(v, np.ndarray))


class Tracer:
    """Spans and counters of one traced round."""

    def __init__(self):
        self.spans = []  # [name, parent index, start, end, ok, extra]
        self.counts = {}
        self._stack = []
        self._bound = []  # (module, attribute, original)
        self.absent = []

    def install(self) -> None:
        mods = {n: m for n, m in sys.modules.items() if n == "oamcavity" or n.startswith("oamcavity.")}
        for modname, fname, kind in TRACED:
            home = mods.get(f"oamcavity.{modname}")
            orig = getattr(home, fname, None) if home is not None else None
            if orig is None:
                self.absent.append(f"{modname}.{fname}")
                continue
            wrapper = self._counter(fname, orig) if kind == "count" else self._span(fname, orig)
            for mod in mods.values():
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)
                        self._bound.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._bound):
            setattr(mod, attr, orig)
        self._bound.clear()

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, time.perf_counter(), 0.0, False, None]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
                span[4] = True
                span[5] = _extra(name, args, kwargs, result)
                return result
            finally:
                span[3] = time.perf_counter()
                stack.pop()

        return wrapper

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the round (see README for each definition)."""
        spans = self.spans
        child = [0.0] * len(spans)
        by_name = {}
        for i, (name, parent, t0, t1, _, _) in enumerate(spans):
            by_name.setdefault(name, []).append((i, spans[i]))
            if parent >= 0:
                child[parent] += t1 - t0

        def pick(name):
            return by_name.get(name, [])

        def total(name):
            return sum(s[3] - s[2] for _, s in pick(name))

        def self_time(name):
            return sum(s[3] - s[2] - child[i] for i, s in pick(name))

        def extra_sum(name):
            return sum(s[5] for _, s in pick(name) if s[5] is not None)

        def p50(name, scale):
            d = [s[3] - s[2] for _, s in pick(name)]
            return statistics.median(d) * scale if d else 0.0

        def ratio(a, b):
            return a / b if b else 0.0

        # T evaluations made under each valley search, over valleys located
        valley_points = 0
        for name, parent, _, _, _, extra in spans:
            if name in ("transmission_many", "sideband_response") and extra is not None:
                p = parent
                while p >= 0 and spans[p][0] != "find_valley":
                    p = spans[p][1]
                if p >= 0:
                    valley_points += extra
        valleys = pick("find_valley")
        located = sum(1 for _, s in valleys if s[4])
        lines = pick("linewidth")
        ivp = [s[5] for _, s in pick("solve_ivp") if s[5] is not None]
        nfev = sum(n for n, _ in ivp)
        steps = sum(k for _, k in ivp)
        attempts = sum((n - _RK45_START_CALLS) // _RK45_CALLS_PER_STEP for n, _ in ivp)
        batch_points = extra_sum("transmission_many")

        return {
            "params.derive_calls": len(pick("derive_params")),
            "params.derive_s": total("derive_params"),
            "steady.solve_calls": len(pick("solve_steady")),
            "steady.solve_s": total("solve_steady"),
            "steady.solve_ms_p50": p50("solve_steady", 1e3),
            "steady.residual_calls": self.counts.get("steady_residual", 0),
            "response.sideband_calls": len(pick("sideband_response")),
            "response.sideband_s": total("sideband_response"),
            "response.sideband_us_p50": p50("sideband_response", 1e6),
            "response.batch_calls": len(pick("transmission_many")),
            "response.batch_points": batch_points,
            "response.batch_s": total("transmission_many"),
            "response.batch_us_per_point": ratio(total("transmission_many"), batch_points) * 1e6,
            "spectrum.valley_calls": len(valleys),
            "spectrum.valley_self_s": self_time("find_valley"),
            "spectrum.points_per_valley": ratio(valley_points, located),
            "spectrum.sample_calls": len(pick("sample_spectrum")),
            "spectrum.sample_points": extra_sum("sample_spectrum"),
            "spectrum.sample_self_s": self_time("sample_spectrum"),
            "spectrum.linewidth_calls": len(lines),
            "spectrum.linewidth_ok_ratio": ratio(sum(1 for _, s in lines if s[4]), len(lines)),
            "oam.calibrate_calls": len(pick("build_calibration")),
            "oam.charges": extra_sum("build_calibration"),
            "oam.calibrate_self_s": self_time("build_calibration"),
            "oracle.integrate_calls": len(pick("integrate_mean_field")),
            "oracle.integrate_s": total("integrate_mean_field"),
            "oracle.rhs_calls": nfev,
            "oracle.steps": steps,
            "oracle.rejected_steps": max(0, attempts - steps),
            "oracle.us_per_rhs": ratio(total("solve_ivp"), nfev) * 1e6,
            "oracle.trajectory_mb": extra_sum("integrate_mean_field") / _MIB,
            "oracle.demodulate_s": total("demodulate"),
            "cli.main_calls": len(pick("main")),
            "cli.self_s": self_time("main"),
        }

    def dump(self) -> dict:
        return {
            "absent": self.absent,
            "counts": self.counts,
            "spans": [
                {"name": n, "parent": p, "start": t0, "end": t1, "ok": ok, "extra": e}
                for n, p, t0, t1, ok, e in self.spans
            ],
        }
