"""Names that code outside the package reaches into: the benchmark's
tracer wraps callables by module and attribute name, its repetition
script reads two more, and `sparseuq.__all__` lists the public API.
A rename or deletion that breaks them fails here, not in a traced run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import sparseuq

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    if not TRACER.is_file():
        pytest.skip("perfbench/ is not part of this checkout")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve(tracer):
    # resolved exactly as Tracer.install resolves them
    for name, modname, attr in tracer.TARGETS:
        owner = importlib.import_module("sparseuq." + modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert callable(vars(getattr(owner, cls_name))[meth]), name
        else:
            assert callable(getattr(owner, attr)), name


def test_benchmark_names_exist(tracer):
    from sparseuq import cli, kernels

    # perfbench/rep.py reads both
    assert hasattr(kernels, "USE_NUMBA")
    assert callable(cli.run_strategy)


def test_public_names_exist():
    missing = [name for name in sparseuq.__all__ if not hasattr(sparseuq, name)]
    assert missing == []
