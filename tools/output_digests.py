#!/usr/bin/env python3
"""Print the sha256 of every output the benchmark workloads make checkable.

Usage:

    python3 tools/output_digests.py <repo-root> [--seed N]

Builds each workload of ``<repo-root>/bench/workloads.py`` (spectrum,
calibrate, sweep, validate) for the seed, runs its invocations once through
``oamcavity.cli.main`` from ``<repo-root>/src`` in this process, and prints
one line per data file (``<invocation> <file> <sha256>``) plus one for each
invocation's exit code and one for the `validate` stdout.  The bench is
imported, never modified; inputs and outputs go to a temporary directory.

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
import sys
import tempfile
from pathlib import Path


def digests(root: Path, seed: int) -> list[str]:
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import workloads

    import oamcavity.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to((root / "src").resolve()):
        raise SystemExit(f"imported {cli.__file__}, not the source tree under {root / 'src'}")
    lines = []
    with tempfile.TemporaryDirectory(prefix="oamcavity-digests-") as tmp:
        for name in workloads.BUILDERS:
            wl = workloads.build(name, root, seed, Path(tmp) / name)
            wl.write_inputs()
            for op in wl.ops:
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                    rc = cli.main(op.argv)
                lines.append(f"{op.name} exit {rc}")
                for path in op.data:
                    digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
                    lines.append(f"{op.name} {Path(path).name} {digest}")
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
