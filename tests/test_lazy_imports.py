"""The package loads its modules on first use, and a CLI task loads only
the modules it runs.

What a task loads is checked in fresh interpreters: this test process has
imported every module already.
"""

import json
import subprocess
import sys
import textwrap
from importlib import resources
from pathlib import Path

import pytest

import revtherm

SCENARIOS = resources.files("revtherm") / "scenarios"
TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"

MODULES = ("qlinalg", "qstate", "compmodel", "compops", "resource", "channels", "gksl", "adiabatic")

# What a fresh interpreter has loaded of revtherm after `import revtherm.cli`
BASE = {"revtherm", "revtherm.cli", "revtherm.errors"}

PRELUDE = """
import json, sys
from revtherm import cli

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "revtherm")

def run(*args):
    try:
        cli.main.main(args=list(args), prog_name="revtherm")
    except SystemExit as exc:
        return exc.code
"""


def fresh(script: str, *args) -> dict:
    """Run PRELUDE plus script in a new interpreter; its last stdout line
    is a JSON object."""
    code = PRELUDE + textwrap.dedent(script)
    r = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    return json.loads(r.stdout.splitlines()[-1])


def test_cli_and_landauer_load_only_their_modules(tmp_path):
    seen = fresh(
        """
        import importlib.util
        import revtherm
        after_import = loaded()
        code = run("landauer", "--scenario", sys.argv[1], "--out", sys.argv[2])
        after_task = loaded()
        gksl = revtherm.gksl
        first_access = gksl is sys.modules["revtherm.gksl"]
        # the benchmark's tracer reads every module off the package by name
        spec = importlib.util.spec_from_file_location("tracing", sys.argv[3])
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        tracer = tracing.Tracer()
        tracer.install(revtherm)
        wrapped = hasattr(revtherm.adiabatic.sweep, "__wrapped__")
        tracer.remove()
        print(json.dumps({
            "after_import": after_import, "code": code, "after_task": after_task,
            "first_access": first_access, "wrapped": wrapped,
            "unwrapped": not hasattr(revtherm.adiabatic.sweep, "__wrapped__"),
        }))
        """,
        str(SCENARIOS / "erasure_bit.json"),
        str(tmp_path / "report.json"),
        str(TRACING),
    )
    assert set(seen["after_import"]) == BASE
    assert seen["code"] == 0
    # no gksl, adiabatic, compops, resource or compmodel
    assert set(seen["after_task"]) == BASE | {
        "revtherm.qlinalg",
        "revtherm.qstate",
        "revtherm.channels",
    }
    assert seen["first_access"] and seen["wrapped"] and seen["unwrapped"]


def test_gksl_tasks_load_only_their_modules(tmp_path):
    asymptotic = tmp_path / "asymptotic.json"
    asymptotic.write_text(
        json.dumps(
            {
                "task": "gksl-asymptotic",
                "payload": {
                    "hamiltonian": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
                    "jumps": [
                        {"operator": [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]], "rate": 0.5}
                    ],
                },
            }
        )
    )
    seen = fresh(
        """
        evolve = run("gksl-evolve", "--scenario", sys.argv[1], "--out", sys.argv[3],
                     "--csv-dir", sys.argv[4])
        asymptotic = run("gksl-asymptotic", "--scenario", sys.argv[2], "--out", sys.argv[3])
        print(json.dumps({"codes": [evolve, asymptotic], "loaded": loaded()}))
        """,
        str(SCENARIOS / "dephasing.json"),
        str(asymptotic),
        str(tmp_path / "report.json"),
        str(tmp_path),
    )
    assert seen["codes"] == [0, 0]
    # no channels, adiabatic, compops or resource
    assert set(seen["loaded"]) == BASE | {
        "revtherm.qlinalg",
        "revtherm.qstate",
        "revtherm.compmodel",
        "revtherm.gksl",
    }


def test_submodule_names_are_the_modules():
    for name in MODULES:
        assert getattr(revtherm, name) is sys.modules[f"revtherm.{name}"]


def test_dir_covers_all():
    assert set(revtherm.__all__) <= set(dir(revtherm))


def test_star_import_binds_every_name():
    namespace = {}
    exec("from revtherm import *", namespace)
    for name in revtherm.__all__:
        assert namespace[name] is getattr(revtherm, name)


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'revtherm' has no attribute 'nope'$"):
        revtherm.nope
    assert not hasattr(revtherm, "nope")
