"""The library surface that the benchmark under bench/ calls.

bench/tracing.py wraps the functions it names by module attribute, and
bench/workloads.py and bench/oracle.py call a few library names directly.
A rename or a removal there would break the benchmark, not the tests, so
these names are pinned here.
"""

import importlib.util
from pathlib import Path

import numpy as np

import revtherm
from revtherm import cli, errors, qlinalg

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_benchmark_surface_exists():
    named = load_tracing().NAMED
    modules = {name: getattr(revtherm, name) for name in named if name != "cli"}
    modules["cli"] = cli
    missing = [
        f"{module}.{name}"
        for module, names in named.items()
        for name in names
        if not callable(getattr(modules[module], name, None))
    ]
    assert missing == []
    assert issubclass(errors.NonDiagonalizable, Exception)
    assert callable(qlinalg.tensor)
    m = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert np.array_equal(qlinalg.matrix_exp(m, method="series"), qlinalg.matrix_exp(m))
