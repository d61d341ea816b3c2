#!/usr/bin/env python3
"""Benchmark of the oamcavity CLI workflows (spectrum, calibrate, sweep, validate).

Usage, from the root of the repository:

    python3 bench/run.py --workload spectrum --seed 0 --seconds 30 --trace 0

Each run generates the workload's inputs from the seed, measures set-up
in fresh interpreters, then calls ``oamcavity.cli.main`` in-process for
whole rounds of the workload's invocations for about ``--seconds``
seconds, checks the outputs, and prints one JSON object as the last line
of standard output.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics and the tracing overhead.  See README.md.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy loads: the numbers measure the program, not the scheduler
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 60

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "params.derive_calls": "count", "params.derive_s": "s",
    "steady.solve_calls": "count", "steady.solve_s": "s", "steady.solve_ms_p50": "ms",
    "steady.residual_calls": "count",
    "response.sideband_calls": "count", "response.sideband_s": "s", "response.sideband_us_p50": "us",
    "response.batch_calls": "count", "response.batch_points": "count", "response.batch_s": "s",
    "response.batch_us_per_point": "us",
    "spectrum.valley_calls": "count", "spectrum.valley_self_s": "s", "spectrum.points_per_valley": "count",
    "spectrum.sample_calls": "count", "spectrum.sample_points": "count", "spectrum.sample_self_s": "s",
    "spectrum.linewidth_calls": "count", "spectrum.linewidth_ok_ratio": "ratio",
    "oam.calibrate_calls": "count", "oam.charges": "count", "oam.calibrate_self_s": "s",
    "oracle.integrate_calls": "count", "oracle.integrate_s": "s", "oracle.rhs_calls": "count",
    "oracle.steps": "count", "oracle.rejected_steps": "count", "oracle.us_per_rhs": "us",
    "oracle.trajectory_mb": "MB", "oracle.demodulate_s": "s",
    "cli.main_calls": "count", "cli.self_s": "s", "cli.bytes_written": "bytes",
    "setup.import_s": "s", "setup.config_s": "s",
    "trace.overhead_s": "s", "trace.overhead_ratio": "ratio",
}

# Set-up as every CLI invocation pays it: a fresh interpreter imports the CLI,
# then loads and derives the workload's configs.
_SETUP_SNIPPET = """
import json, sys, time
t0 = time.perf_counter()
import oamcavity.cli
t1 = time.perf_counter()
from oamcavity.params import derive_params, load_config
for path in sys.argv[1:]:
    derive_params(load_config(path))
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "config_s": t2 - t1}))
"""


class BenchError(Exception):
    pass


@dataclass
class Round:
    walls: list[float]  # per invocation, in the workload's order
    cpus: list[float]
    failed: int  # invocations that exited non-zero
    bytes_written: int
    traced: dict | None  # per-layer metrics of a traced round

    @property
    def wall(self) -> float:
        return sum(self.walls)


def typical_round(rounds: list[Round], field: str) -> float:
    """Sum over the round's invocations of each invocation's median across `rounds`.

    Other tenants of a shared machine take it away in bursts of a fraction
    of a second to a few seconds.  A burst lands in one invocation of one
    round; the per-invocation median drops it unless it hits that
    invocation in half the rounds, where the median of whole rounds keeps
    every burst that falls in the middle round.
    """
    return sum(statistics.median(op) for op in zip(*(getattr(r, field) for r in rounds)))


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def measure_setup(config_paths: list[Path]) -> dict[str, float]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    walls, imports, configs = [], [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", _SETUP_SNIPPET, *map(str, config_paths)],
                              env=env, cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError(f"set-up interpreter failed:\n{proc.stderr}")
        split = json.loads(proc.stdout.strip().splitlines()[-1])
        imports.append(split["import_s"])
        configs.append(split["config_s"])
    return {"setup_s": statistics.median(walls), "setup.import_s": statistics.median(imports),
            "setup.config_s": statistics.median(configs)}


def run_round(cli, wl, outputs, tracer=None) -> Round:
    """One pass over the workload's invocations; data files are read back after the clock stops."""
    if tracer is not None:
        tracer.install()
    failed = 0
    walls, cpus = [], []
    try:
        for op in wl.ops:
            cpu0 = _cpu_seconds()
            t0 = time.perf_counter()
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    rc = cli.main(op.argv)  # looked up per call, so a traced round sees the wrapper
                except SystemExit as err:
                    rc = err.code if isinstance(err.code, int) else 1
                except Exception:  # a crash is a failed operation, not a crashed benchmark
                    traceback.print_exc()
                    rc = -1
            walls.append(time.perf_counter() - t0)
            cpus.append(_cpu_seconds() - cpu0)
            outputs.rc[op.name] = rc
            outputs.stdout[op.name] = stdout.getvalue()
            if rc != 0:
                failed += 1
                print(f"{op.name}: exit {rc}\n{stderr.getvalue()}", file=sys.stderr)
    finally:
        if tracer is not None:
            tracer.uninstall()
    hashes = {}
    for op in wl.ops:
        for path in op.data:
            with contextlib.suppress(FileNotFoundError):
                outputs.files[path] = Path(path).read_bytes()
                hashes[path] = hashlib.sha256(outputs.files[path]).hexdigest()
    outputs.hashes.append(hashes)
    written = sum(p.stat().st_size for p in (wl.workdir / "out").iterdir())
    return Round(walls, cpus, failed, written, tracer.metrics() if tracer is not None else None)


def run(args) -> dict:
    if not (SRC / "oamcavity" / "cli.py").is_file() or not (ROOT / "configs").is_dir():
        raise BenchError(f"no oamcavity source tree under {ROOT} (need src/oamcavity and configs/)")
    sys.path.insert(0, str(SRC))
    import checks
    import tracing

    workdir = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        wl = workloads.build(args.workload, ROOT, args.seed, workdir)
        config_paths = wl.write_inputs()
        setup = measure_setup(config_paths)

        import oamcavity.cli as cli

        if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"imported {cli.__file__}, not the source tree under {SRC}")

        outputs = checks.Outputs()
        rounds: list[Round] = []
        tracers = []
        start = time.perf_counter()
        min_rounds = max(wl.min_rounds, 2 if args.trace else 1)
        while True:
            tracer = None
            if args.trace and len(rounds) % 2 == 1:  # untraced, traced, untraced, ...
                tracer = tracing.Tracer()
                tracers.append(tracer)
            rounds.append(run_round(cli, wl, outputs, tracer))
            elapsed = time.perf_counter() - start
            # whole rounds only: stop when the next one would end past --seconds
            if len(rounds) >= min_rounds and elapsed + rounds[-1].wall > args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        failures = checks.run_checks(wl, outputs)
        for msg in failures:
            print(f"CHECK FAILED: {msg}", file=sys.stderr)
        attempted = len(rounds) * len(wl.ops)
        failed = sum(r.failed for r in rounds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [r for r in rounds if r.traced is None]
    if not args.trace:
        values = {
            "setup_s": setup["setup_s"],
            "wall_s": typical_round(plain, "walls"),
            "cpu_s": typical_round(plain, "cpus"),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
    else:
        traced = [r for r in rounds if r.traced is not None]
        values = {k: statistics.median(r.traced[k] for r in traced) for k in traced[0].traced}
        values["cli.bytes_written"] = statistics.median(r.bytes_written for r in traced)
        values["setup.import_s"] = setup["setup.import_s"]
        values["setup.config_s"] = setup["setup.config_s"]
        base = typical_round(plain, "walls")
        values["trace.overhead_s"] = typical_round(traced, "walls") - base
        values["trace.overhead_ratio"] = values["trace.overhead_s"] / base
        units = PER_LAYER
        absent = sorted({name for t in tracers for name in t.absent})
        if absent:
            print(f"absent traced names (their metrics read 0): {', '.join(absent)}", file=sys.stderr)
        OUT.mkdir(exist_ok=True)
        trace_doc = dict(tracers[-1].dump(), workload=args.workload, seed=args.seed,
                         rounds=[{"wall_s": r.wall, "traced": r.traced is not None} for r in rounds])
        (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(trace_doc) + "\n")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    try:
        result = run(args)
    except BenchError as err:
        print(f"bench: {err}", file=sys.stderr)
        return 2
    line = json.dumps(result)
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
