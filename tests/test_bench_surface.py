"""The library surface that the benchmark under bench/ calls.

bench/tracing.py wraps the functions it names by module attribute, and
bench/workloads.py and bench/oracle.py call a few library names directly.
A rename or a removal there would break the benchmark, not the tests, so
these names are pinned here, and the benchmark reads no private name of
the library, which may move without notice.
"""

import ast
import importlib.util
import pkgutil
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


def private_reads(tree, modules):
    """The private names, _x but not __x__, that tree imports from revtherm
    or names as attributes of a name in modules, by dot or by getattr,
    setattr or hasattr."""

    def private(name):
        return name.startswith("_") and not name.endswith("__")

    def is_module(node):
        return (isinstance(node, ast.Name) and node.id in modules) or (
            isinstance(node, ast.Attribute) and node.attr in modules
        )

    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("revtherm"):
            yield from (alias.name for alias in node.names if private(alias.name))
        elif isinstance(node, ast.Attribute) and private(node.attr) and is_module(node.value):
            yield ast.unparse(node)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("getattr", "setattr", "hasattr")
            and len(node.args) >= 2
            and is_module(node.args[0])
            and isinstance(node.args[1], ast.Constant)
            and private(str(node.args[1].value))
        ):
            yield ast.unparse(node)


def test_the_benchmark_reads_no_private_name():
    # tracing.py's Tracer.install takes the revtherm package as `package`
    modules = {"revtherm", "package"} | {m.name for m in pkgutil.iter_modules(revtherm.__path__)}
    found = {
        path.name: sorted(private_reads(ast.parse(path.read_text()), modules))
        for path in sorted(BENCH.glob("*.py"))
    }
    assert len(found) >= 4
    assert {name: reads for name, reads in found.items() if reads} == {}
    # the scan sees a private read in each of its three forms
    probe = "from revtherm.gksl import _group\nqlinalg._eig_blocks\ngetattr(gksl, '_components')"
    assert len(list(private_reads(ast.parse(probe), modules))) == 3
