"""The package loads its modules on first use, and a CLI task loads only
the modules it runs.

What a task loads is checked in fresh interpreters: this test process has
imported every module already.
"""

import json
import re
import subprocess
import sys
import textwrap
from importlib import resources
from pathlib import Path

import pytest

import revtherm
from revtherm import cli

from helpers import MINIMAL

SCENARIOS = resources.files("revtherm") / "scenarios"
ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "bench" / "tracing.py"

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


def startup_table() -> dict[str, set[str]]:
    """Task -> the library modules it loads, read from README.md's
    start-up table."""
    rows: dict[str, set[str]] = {}
    for line in (ROOT / "README.md").read_text().split("### Start-up", 1)[1].splitlines():
        if line.startswith("| `"):
            tasks, modules = line.strip("|").split("|")
            for task in re.findall(r"`([^`]+)`", tasks):
                rows[task] = set(re.findall(r"`([^`]+)`", modules))
        elif rows:
            break
    return rows


STARTUP = startup_table()

# The bundled scenario of each task that has one; the others run MINIMAL.
BUNDLED = {"landauer": "erasure_bit", "gksl-evolve": "dephasing", "adiabatic-sweep": "adiabatic"}


def test_startup_table_covers_every_task():
    assert set(STARTUP) == set(cli.main.commands) - {"batch"}
    assert set(STARTUP) == set(BUNDLED) | set(MINIMAL)


@pytest.mark.parametrize("task", sorted(STARTUP))
def test_task_loads_only_its_modules(tmp_path, task):
    scenario = SCENARIOS / f"{BUNDLED[task]}.json" if task in BUNDLED else tmp_path / "scenario.json"
    if task not in BUNDLED:
        scenario.write_text(json.dumps({"task": task, "payload": MINIMAL[task]}))
    seen = fresh(
        """
        code = run(sys.argv[1], "--scenario", sys.argv[2], "--out", sys.argv[3],
                   "--csv-dir", sys.argv[4])
        print(json.dumps({"code": code, "loaded": loaded()}))
        """,
        task,
        str(scenario),
        str(tmp_path / "report.json"),
        str(tmp_path),
    )
    assert seen["code"] == 0
    assert set(seen["loaded"]) == BASE | {f"revtherm.{m}" for m in STARTUP[task]}


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
