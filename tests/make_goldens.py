"""Regenerate the golden CLI outputs under tests/golden/.

Run after an intentional output change, from anywhere, with revtherm
importable (installed, or src/ on PYTHONPATH):

    python3 tests/make_goldens.py

One directory per bundled scenario, holding the JSON report plus any CSV
side files; each scenario runs under the task its own file declares.
test_cli.py compares fresh runs against these byte for byte.
"""

import json
import shutil
import subprocess
import sys
from importlib import resources
from pathlib import Path

SCENARIOS = resources.files("revtherm") / "scenarios"
GOLDEN = Path(__file__).resolve().parent / "golden"


def bundled() -> list[tuple[str, str]]:
    """(stem, task) of every bundled scenario, sorted by stem."""
    return sorted(
        (p.name.removesuffix(".json"), json.loads(p.read_text())["task"])
        for p in SCENARIOS.iterdir()
        if p.name.endswith(".json")
    )


def main():
    for stem, task in bundled():
        out_dir = GOLDEN / stem
        if out_dir.exists():
            shutil.rmtree(out_dir)
        out_dir.mkdir(parents=True)
        cmd = [
            sys.executable,
            "-m",
            "revtherm",
            task,
            "--scenario",
            str(SCENARIOS / f"{stem}.json"),
            "--out",
            str(out_dir / "report.json"),
        ]
        code = subprocess.run(cmd).returncode
        if code != 0:
            raise SystemExit(f"{stem}: exit {code}")
        names = sorted(p.name for p in out_dir.iterdir())
        print(f"{stem}: {', '.join(names)}")


if __name__ == "__main__":
    main()
