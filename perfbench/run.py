"""Benchmark of the lsmnet pipeline.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload reconstruct-kite --seed 1 \\
        --seconds 20 --trace 0

Workloads:
  reconstruct-kite  one `lsmnet reconstruct` at the shipped defaults per
                    operation (truth mask, file writers, every strategy)
  sampling-sweep    Morozov against learned regularization at 50^2 and
                    200^2 sampling points on one shared measurement
  train-deeponet    operator-corpus generation and training epochs

With `--trace 0` the run reports the end-to-end metrics; with `--trace 1`
it wraps the public lsmnet functions in timing spans and reports the
per-layer metrics instead, writing every span to `.perfbench/`.  The last
line of standard output is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`.  The lines before it
name every figure with its unit, and a JSON report line carries the
machine facts.  `--toy` swaps in a reduced geometry for the self-test.

The package is imported from `src/` of the same checkout, never from an
installed copy, so two checkouts compare two versions of the code.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOAD_NAMES = ("reconstruct-kite", "sampling-sweep", "train-deeponet")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="reduced geometry, for the self-test")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _commit() -> str | None:
    """HEAD of the checkout's git metadata, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "lsmnet").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _facts(args, threads: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "toy": args.toy,
            "nproc": threads, "blas_threads": threads,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "python": sys.version.split()[0],
            "commit": _commit(), "src_sha256": _source_digest()}


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "lsmnet" / "__init__.py").is_file():
        print(f"perfbench: no lsmnet sources under {SRC}", file=sys.stderr)
        return 2

    # The pool size must be fixed before NumPy loads; use every usable core.
    threads = len(os.sched_getaffinity(0))
    for name in THREAD_VARS:
        os.environ[name] = str(threads)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    import lsmnet
    if Path(lsmnet.__file__).resolve().parent != SRC / "lsmnet":
        print(f"perfbench: imported lsmnet from {lsmnet.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import suite

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        outcome = suite.run(args.workload, args.seed, args.seconds,
                            bool(args.trace), args.toy, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics = suite.per_layer(outcome)
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = suite.end_to_end(outcome, peak_mb)
    report = suite.report(args.workload, outcome)
    report["facts"] = _facts(args, threads)
    if args.trace:
        report["layers"] = suite.layer_seconds(outcome)
    for name, (value, unit) in {**report["metrics"], **metrics}.items():
        print(f"{name} = {json.dumps(value)} {unit}")
    print(json.dumps({"report": report}))

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {"correct": outcome.failed == 0,
              "attempted": outcome.attempted, "failed": outcome.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    record = {"report": report, "result": result}
    if args.trace:
        record["spans"] = outcome.tracer.spans
    (OUT / f"{stem}.json").write_text(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
