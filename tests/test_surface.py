"""The library surface is written once: each module's __all__, named in the
README's "Library layout".

A public function or class that a module defines must be listed in its
__all__, and every function and class listed there must be named under
the module's entry in the README. Adding a public name therefore means
deciding that it belongs to the surface, or making it private.
"""

import importlib
import inspect
import re
from pathlib import Path

import pytest

MODULES = ("qlinalg", "qstate", "compmodel", "compops", "resource", "channels", "gksl", "adiabatic")

README = Path(__file__).resolve().parent.parent / "README.md"


def module(name):
    return importlib.import_module(f"revtherm.{name}")


def defined(mod):
    """The public functions and classes defined in mod itself."""
    return {
        name
        for name, obj in vars(mod).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == mod.__name__
    }


def layout_entries():
    """The README's "Library layout", split into its per-module entries."""
    text = README.read_text()
    section = text.split("## Library layout", 1)[1].split("\n## ", 1)[0]
    parts = re.split(r"^- `revtherm\.(\w+)`", section, flags=re.M)
    return dict(zip(parts[1::2], parts[2::2]))


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_exist(name):
    mod = module(name)
    missing = [entry for entry in mod.__all__ if not hasattr(mod, entry)]
    assert missing == []
    assert len(set(mod.__all__)) == len(mod.__all__)


@pytest.mark.parametrize("name", MODULES)
def test_every_public_definition_is_listed(name):
    mod = module(name)
    assert sorted(defined(mod) - set(mod.__all__)) == []


@pytest.mark.parametrize("name", MODULES)
def test_readme_names_every_function_and_class(name):
    mod = module(name)
    entries = layout_entries()
    assert sorted(entries) == sorted(MODULES)
    surface = [
        entry for entry in mod.__all__
        if inspect.isfunction(getattr(mod, entry)) or inspect.isclass(getattr(mod, entry))
    ]
    unnamed = [entry for entry in surface if f"`{entry}`" not in entries[name]]
    assert unnamed == []
