"""The benchmark must keep running against the package it measures.

`perfbench/run.py --trace 1` looks up every `suite.LAYERS` target with
`getattr`, so a renamed or deleted function would only surface there;
the self-test runs every workload, so a changed signature surfaces too.
"""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def suite():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("suite")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_traced_layer_is_a_package_callable(suite):
    assert suite.LAYERS
    for layer in suite.LAYERS:
        module_name, _, name = layer.target.rpartition(".")
        module = importlib.import_module(f"lsmnet.{module_name}")
        assert callable(getattr(module, name, None)), layer.target


def test_selftest_passes():
    """Every workload runs on a toy geometry against this checkout's
    package, traced and untraced, so an API change that breaks the
    benchmark's calls fails here rather than only in a benchmark run."""
    done = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")],
                          cwd=PERFBENCH.parent, capture_output=True, text=True,
                          timeout=900)
    assert done.returncode == 0, done.stdout + done.stderr
