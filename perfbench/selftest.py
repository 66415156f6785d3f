"""Self-test of the benchmark on a toy geometry.

Runs every workload for a couple of operations, untraced and traced, and
asserts that each metric named in BENCHMARK.json appears, finite, with
its unit, and that no operation failed.  Then copies only BENCHMARK.json
and this directory into an empty place and asserts that the benchmark
refuses to run there.  Usage, from the root of a checkout:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(cwd: Path, workload: str, trace: int):
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", "7", "--seconds", "0.5", "--trace", str(trace),
               "--toy"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            done = _run(ROOT, workload, trace)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                raise AssertionError(f"{workload} trace {trace} exited "
                                     f"with {done.returncode}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0, result
            assert result["attempted"] >= 1
            metrics = result["metrics"]
            assert set(metrics) == set(expected[trace]), \
                set(metrics) ^ set(expected[trace])
            for name, unit in expected[trace].items():
                value = metrics[name]["value"]
                assert metrics[name]["unit"] == unit, (name, metrics[name])
                assert isinstance(value, (int, float)) and math.isfinite(
                    value), (name, value)
                if trace == 0:
                    assert value > 0.0, (name, value)
            print(f"ok {workload} trace {trace}: "
                  f"{result['attempted']} operations")

    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = _run(bare, spec["workloads"][0]["name"], 0)
        assert done.returncode != 0, "benchmark ran without the sources"
        assert '"metrics"' not in done.stdout, done.stdout
        print("ok refuses to run without the sources")
    finally:
        shutil.rmtree(bare)
    return 0


if __name__ == "__main__":
    sys.exit(main())
