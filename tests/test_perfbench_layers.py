"""The benchmark's traced layers must name callables the package still has.

`perfbench/run.py --trace 1` looks up every `suite.LAYERS` target with
`getattr`, so a renamed or deleted function would only surface there.
"""

import importlib
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
