import ast
import copy
import json
import math
import re
import string
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path
from types import ModuleType, SimpleNamespace

import numpy as np
import pytest
from click.testing import CliRunner

import revtherm
from revtherm import channels, cli, gksl, qlinalg, resource

from helpers import (
    MINIMAL,
    count_work,
    diag_matrix,
    leaking,
    random_density,
    random_hermitian,
    rng,
)
from make_goldens import bundled

SCENARIOS = resources.files("revtherm") / "scenarios"
GOLDEN = Path(__file__).resolve().parent / "golden"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "revtherm", *args], capture_output=True, text=True
    )


def scenario(name: str) -> str:
    return str(SCENARIOS / name)


def write_scenario(tmp_path, task, payload, name="scenario.json"):
    p = tmp_path / name
    p.write_text(json.dumps({"task": task, "payload": payload}))
    return str(p)


def load_report(path):
    return json.loads(Path(path).read_text())


def load_scenario(name: str) -> dict:
    return json.loads((SCENARIOS / name).read_text())


# Stand-in for the JSON literal 1e309, which Python reads as inf; json.dumps
# would write inf as Infinity instead.
OVERFLOW = "<1e309>"


def mutated(doc, path, value) -> str:
    """Scenario text with the payload field at path replaced by value."""
    doc = copy.deepcopy(doc)
    node = doc["payload"]
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return json.dumps(doc).replace(json.dumps(OVERFLOW), "1e309")


REFUSED = "error: invalid scenario: "
LIBRARY = [m for m in (getattr(revtherm, n) for n in revtherm.__all__) if isinstance(m, ModuleType)]


class Poisoned(Exception):
    """Raised by every library callable in a poisoned run."""


def poison(*args, **kwargs):
    raise Poisoned


def refused_alike(args, code, stderr) -> bool:
    """False when a run of args refused as an invalid scenario (exit 3) reads
    otherwise with every callable of each library module's __all__ raising
    Poisoned. A task reads its whole payload before its first library call,
    so no schema refusal can depend on the library."""
    if code != 3 or not stderr.startswith(REFUSED):
        return True
    with pytest.MonkeyPatch.context() as mp:
        for module in LIBRARY:
            for name in module.__all__:
                if callable(getattr(module, name)):
                    mp.setattr(module, name, poison)
        again = CliRunner().invoke(cli.main, args)
    return (again.exit_code, again.stderr) == (code, stderr)


def invoke(args):
    """The CliRunner result of args, whose schema refusal holds poisoned."""
    r = CliRunner().invoke(cli.main, args)
    assert refused_alike(args, r.exit_code, r.stderr)
    return r


class TestBundledScenarios:
    def test_erasure(self, tmp_path):
        out = tmp_path / "report.json"
        r = run_cli("landauer", "--scenario", scenario("erasure_bit.json"), "--out", str(out))
        assert r.returncode == 0, r.stderr
        report = load_report(out)
        assert report["pass"] is True
        assert report["units"] == "nats"
        assert report["outputs"]["bound"] == pytest.approx(math.log(2))
        assert report["outputs"]["average_delta_e"] == pytest.approx(0.7615941559557649)
        assert report["outputs"]["heat"]["mgf"] == pytest.approx(1.0)

    def test_erasure_conditional(self, tmp_path):
        out = tmp_path / "report.json"
        r = run_cli(
            "landauer",
            "--scenario",
            scenario("erasure_bit_conditional.json"),
            "--out",
            str(out),
        )
        assert r.returncode == 0, r.stderr
        report = load_report(out)
        assert report["outputs"]["bound"] == 0.0
        assert report["outputs"]["delta_e_per_state"] == [0.0, 0.0]

    def test_dephasing(self, tmp_path):
        out = tmp_path / "report.json"
        r = run_cli("gksl-evolve", "--scenario", scenario("dephasing.json"), "--out", str(out))
        assert r.returncode == 0, r.stderr
        report = load_report(out)
        assert report["outputs"]["dephasing"]["classical"] is True
        assert report["csv_files"] == ["trajectory.csv"]
        header = (tmp_path / "trajectory.csv").read_text().splitlines()[0]
        assert header == "t,re_00,im_00,re_01,im_01,re_10,im_10,re_11,im_11"

    def test_adiabatic(self, tmp_path):
        out = tmp_path / "report.json"
        r = run_cli(
            "adiabatic-sweep", "--scenario", scenario("adiabatic.json"), "--out", str(out)
        )
        assert r.returncode == 0, r.stderr
        report = load_report(out)
        assert report["outputs"]["optimal_ttr"] == pytest.approx(10.0)
        assert report["outputs"]["min_e_diss"] == pytest.approx(0.002)
        header = (tmp_path / "sweep.csv").read_text().splitlines()[0]
        assert header == "t_tr,e_sw,e_lk,e_diss"

    def test_stdout_when_no_out_file(self):
        r = run_cli("landauer", "--scenario", scenario("erasure_bit.json"))
        assert r.returncode == 0
        report = json.loads(r.stdout)
        assert report["task"] == "landauer"


class TestGoldens:
    # byte-identical to the committed outputs; regenerate deliberately with
    # tests/make_goldens.py when the change is intended. Each bundled
    # scenario runs under the task its own file declares.
    CASES = bundled()

    def test_every_bundled_scenario_has_a_golden(self):
        assert [stem for stem, _ in self.CASES] == sorted(p.name for p in GOLDEN.iterdir())

    @pytest.mark.parametrize("stem,task", CASES, ids=[c[0] for c in CASES])
    def test_matches_golden(self, tmp_path, stem, task):
        r = run_cli(
            task,
            "--scenario",
            scenario(f"{stem}.json"),
            "--out",
            str(tmp_path / "report.json"),
        )
        assert r.returncode == 0, r.stderr
        assert r.stderr == ""
        golden_dir = GOLDEN / stem
        fresh = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        committed = {p.name: p.read_bytes() for p in golden_dir.iterdir()}
        assert fresh == committed

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        for d in ("a", "b"):
            r = run_cli(
                "gksl-evolve",
                "--scenario",
                scenario("dephasing.json"),
                "--out",
                str(tmp_path / d / "report.json"),
            )
            assert r.returncode == 0
        for name in ("report.json", "trajectory.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestExitCodes:
    def test_missing_file_is_1(self, tmp_path):
        r = run_cli("classify", "--scenario", str(tmp_path / "nope.json"))
        assert r.returncode == 1
        assert "cannot read scenario" in r.stderr

    def test_malformed_json_is_2(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        r = run_cli("classify", "--scenario", str(p))
        assert r.returncode == 2
        assert "malformed JSON" in r.stderr

    @pytest.mark.parametrize(
        "text",
        [
            "[" * 100_000,
            '{"task": "classify", "payload": {"state": ' + "[" * 5_000 + "]" * 5_000 + "}}",
        ],
        ids=["top-level", "inside-payload"],
    )
    def test_deeply_nested_json_is_2(self, tmp_path, text):
        # the decoder gives up past its recursion limit: still malformed input
        p = tmp_path / "deep.json"
        p.write_text(text)
        r = run_cli("classify", "--scenario", str(p))
        assert r.returncode == 2
        lines = r.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: malformed JSON: ")

    @pytest.mark.parametrize(
        "text",
        [
            "7" * 5_000,
            '{"task": "classify", "payload": {"n_states": ' + "7" * 5_000 + ', "rows": {}}}',
        ],
        ids=["top-level", "inside-payload"],
    )
    def test_overlong_integer_literal_is_2(self, tmp_path, text):
        # past int()'s digit limit (4,300 by default) the decoder refuses the literal
        p = tmp_path / "long.json"
        p.write_text(text)
        r = run_cli("classify", "--scenario", str(p))
        assert r.returncode == 2
        lines = r.stderr.splitlines()
        assert lines == ["error: malformed JSON: integer literal too long"]
        assert len(lines[0]) < 200

    def test_schema_violation_is_3_with_field_path(self, tmp_path):
        p = write_scenario(
            tmp_path,
            "entropy-decompose",
            {"state": [[[1.0, 0.0], [0.5]], [[0.0, 0.0], [0.0, 0.0]]], "blocks": [[0], [1]]},
        )
        r = run_cli("entropy-decompose", "--scenario", p)
        assert r.returncode == 3
        assert "payload.state[0][1]" in r.stderr
        assert refused_alike(["entropy-decompose", "--scenario", p], r.returncode, r.stderr)

    def test_unknown_units_is_3(self):
        r = run_cli(
            "landauer", "--scenario", scenario("erasure_bit.json"), "--units", "furlongs"
        )
        assert r.returncode == 3
        assert "furlongs" in r.stderr

    def test_task_mismatch_is_3(self):
        r = run_cli("classify", "--scenario", scenario("adiabatic.json"))
        assert r.returncode == 3
        assert "$.task" in r.stderr

    @pytest.mark.parametrize(
        "args, error",
        [
            (["gksl-evolve"], "Error: Missing option '--scenario'."),
            (
                ["gksl-evolve", "--scenario", scenario("dephasing.json"), "--tol", "abc"],
                "Error: Invalid value for '--tol': 'abc' is not a valid float.",
            ),
            (["frobnicate"], "Error: No such command 'frobnicate'."),
        ],
    )
    def test_usage_error_is_2(self, args, error):
        # click's own usage text: the usage line, the help hint and the error
        r = CliRunner().invoke(cli.main, args, prog_name="revtherm")
        assert r.exit_code == 2
        assert type(r.exception) is SystemExit
        lines = [line for line in r.stderr.splitlines() if line]
        assert len(lines) == 3
        assert lines[0].startswith("Usage: revtherm")
        assert lines[1].startswith("Try 'revtherm")
        assert lines[2] == error
        assert r.stdout == ""

    def test_infeasible_is_4_and_report_still_written(self, tmp_path):
        p = write_scenario(
            tmp_path,
            "thermo-check",
            {
                "p_in": [0.9525741268224334, 0.04742587317756679],
                "p_out": [0.9, 0.1],
                "energies": [0.0, 3.0],
                "beta": 1.0,
                "convention": "standard",
            },
        )
        out = tmp_path / "report.json"
        r = run_cli("thermo-check", "--scenario", p, "--out", str(out))
        assert r.returncode == 4
        report = load_report(out)
        assert report["pass"] is False
        assert report["outputs"]["feasible"] is False

    @pytest.mark.parametrize(
        "doc,path,value,message",
        [
            (load_scenario("erasure_bit.json"), ("states",), [], "payload.states:"),
            (
                {"task": "classify", "payload": MINIMAL["classify"]},
                ("over",),
                [0.7],
                "payload.over[0]: expected an integer",
            ),
            (
                {"task": "gksl-asymptotic", "payload": MINIMAL["gksl-asymptotic"]},
                ("tol",),
                None,
                "payload.tol: null is not a value",
            ),
            (
                load_scenario("dephasing.json"),
                ("blocks",),
                None,
                "payload.blocks: null is not a value",
            ),
            (
                load_scenario("dephasing.json"),
                ("times", "t_max"),
                OVERFLOW,
                "payload.times.t_max: expected a finite number",
            ),
            (
                {"task": "gksl-asymptotic", "payload": MINIMAL["gksl-asymptotic"]},
                ("cesaro", "samples"),
                0,
                "sample count must be positive",
            ),
            (
                {"task": "gksl-asymptotic", "payload": MINIMAL["gksl-asymptotic"]},
                ("tol",),
                -1,
                "asymptotic tolerance must be finite and > 0, got -1.0",
            ),
            (
                {"task": "thermo-check", "payload": MINIMAL["thermo-check"]},
                ("beta",),
                10**400,
                "payload.beta: expected a finite number",
            ),
            (
                {"task": "entropy-decompose", "payload": MINIMAL["entropy-decompose"]},
                ("state", 0, 0),
                [10**400, 0],
                "payload.state[0][0]: expected an [re, im] pair",
            ),
            (
                {"task": "classify", "payload": MINIMAL["classify"]},
                ("rows",),
                {"0": [0.0, 1.0], "\u00b2": [1.0, 0.0]},
                "row keys must be state indices",
            ),
            (
                {"task": "classify", "payload": MINIMAL["classify"]},
                ("over",),
                [0, 0],
                "repeats an index",
            ),
            (
                {"task": "classify", "payload": MINIMAL["classify"]},
                ("rows",),
                {"0": [0.0, 1.0], "1" * 5_000: [1.0, 0.0]},
                "row keys must be state indices",
            ),
        ],
        ids=[
            "empty-states",
            "fractional-over",
            "null-tol",
            "null-blocks",
            "overflowing-t_max",
            "zero-cesaro-samples",
            "nonpositive-asymptotic-tol",
            "oversized-int-number",
            "oversized-int-matrix-cell",
            "superscript-digit-row-key",
            "duplicate-over",
            "overlong-row-key",
        ],
    )
    def test_bad_field_is_3(self, tmp_path, doc, path, value, message):
        p = tmp_path / "scenario.json"
        p.write_text(mutated(doc, path, value))
        r = run_cli(doc["task"], "--scenario", str(p))
        assert r.returncode == 3, r.stderr
        assert message in r.stderr
        assert "Traceback" not in r.stderr
        assert len(r.stderr.splitlines()) == 1 and len(r.stderr) < 200
        assert refused_alike([doc["task"], "--scenario", str(p)], r.returncode, r.stderr)

    @pytest.mark.parametrize("extra", [{}, {"input_dist": [1.0]}], ids=["bare", "input_dist"])
    def test_negative_n_states_is_3(self, tmp_path, extra):
        p = write_scenario(tmp_path, "classify", {"n_states": -1, "rows": {}, **extra})
        r = run_cli("classify", "--scenario", p)
        assert r.returncode == 3, r.stderr
        assert "n_states must be nonnegative" in r.stderr
        assert "Traceback" not in r.stderr

    # (task, payload that fails a library check, field, bad value, the field's line)
    BOTH = [
        ("classify", {"n_states": -1, "rows": {}}, "input_dist", [],
         "payload.input_dist: expected a nonempty array of numbers"),
        ("implements-check", {**MINIMAL["implements-check"], "p_in_blocks": [[0], [2]]},
         "op", {"n_states": "x", "rows": {}}, "payload.op.n_states: expected an integer"),
        ("landauer", {**load_scenario("erasure_bit.json")["payload"], "beta": -1.0},
         "heat", "x", "payload.heat: expected a boolean"),
        ("thermo-check", {**MINIMAL["thermo-check"], "beta": -1.0},
         "convention", 5, "payload.convention: expected a string"),
        ("cto-check", {**MINIMAL["cto-check"], "beta": -1.0},
         "alphas", "x", "payload.alphas: expected a nonempty array of numbers"),
        ("gksl-evolve", {**load_scenario("dephasing.json")["payload"], "blocks": [[0], [5]]},
         "t_resolve", "x", "payload.t_resolve: expected a finite number"),
        ("gksl-asymptotic", {**MINIMAL["gksl-asymptotic"], "tol": -1},
         "state", "oops", "payload.state: expected a nonempty array of rows"),
        ("adiabatic-sweep", {**load_scenario("adiabatic.json")["payload"], "tau_r": -1.0},
         "efficiency_c", "x", "payload.efficiency_c: expected a finite number"),
    ]

    @pytest.mark.parametrize("task,payload,field,value,line", BOTH, ids=[c[0] for c in BOTH])
    def test_schema_error_wins(self, tmp_path, task, payload, field, value, line):
        # as given, the payload fails inside the library
        r = invoke([task, "--scenario", write_scenario(tmp_path, task, payload)])
        assert r.exit_code == 3 and r.stderr.startswith("error: contract violation: ")
        bad = write_scenario(tmp_path, task, {**payload, field: value})
        r = invoke([task, "--scenario", bad])
        assert r.exit_code == 3
        assert r.stderr == f"{REFUSED}{line}\n"

    def test_negative_beta_reads_alike_in_every_task(self, tmp_path):
        # one rule, qstate.require_nonnegative, refuses beta < 0 in each task
        # that takes a beta
        payloads = {
            "thermo-check": MINIMAL["thermo-check"],
            "cto-check": MINIMAL["cto-check"],
            "landauer": load_scenario("erasure_bit.json")["payload"],
        }
        for task, payload in payloads.items():
            p = write_scenario(tmp_path, task, {**payload, "beta": -1.0})
            r = invoke([task, "--scenario", p])
            assert (r.exit_code, r.stderr) == (
                3, "error: contract violation: beta must be finite and >= 0, got -1.0\n"
            ), task

    @pytest.mark.parametrize("key,shown", [
        ("1" * 5_000, "1" * 20 + "...(5000 characters)"),
        ("1" * 21, "1" * 20 + "...(21 characters)"),
        ("x" * 20, "x" * 20),
    ], ids=["past-the-digit-limit", "21-digits", "20-letters"])
    def test_refused_row_key_is_cut_in_the_path(self, tmp_path, key, shown):
        payload = {"n_states": 2, "rows": {"0": [0.0, 1.0], key: [1.0, 0.0]}}
        r = invoke(["classify", "--scenario", write_scenario(tmp_path, "classify", payload)])
        assert r.exit_code == 3
        assert r.stderr == f"{REFUSED}payload.rows.{shown}: row keys must be state indices\n"

    def test_overflowing_boltzmann_weight_is_5(self, tmp_path):
        out_dir = tmp_path / "out"
        p = write_scenario(
            tmp_path, "thermo-check", {**MINIMAL["thermo-check"], "energies": [-1000.0, 0.0]}
        )
        r = invoke(["thermo-check", "--scenario", p, "--out", str(out_dir / "report.json")])
        assert r.exit_code == 5
        assert r.stderr == (
            "error: numeric health: cumulative Boltzmann weight overflows at beta = 1.0, "
            "level 0 (energy -1000.0)\n"
        )
        assert not out_dir.exists()

    def test_huge_alpha_gives_a_finite_margin(self, tmp_path):
        # the sandwiched sum overflows at alpha = 1e300 and is taken in log
        # space; the margin tends to the D_max one
        p = write_scenario(tmp_path, "cto-check", {**MINIMAL["cto-check"], "alphas": [1e300]})
        r = invoke(["cto-check", "--scenario", p])
        assert r.exit_code in (0, 4), r.stderr
        margin = json.loads(r.stdout)["outputs"]["second_laws"]["margins"]["1e+300"]
        assert math.isfinite(margin)

    def test_gibbs_level_below_the_support_floor_gives_finite_margins(self, tmp_path):
        # tau's upper level, e^-30 / Z ~ 1e-13, comes from H and is no kernel:
        # every margin is finite, and the transition fails the laws (exit 4)
        payload = {
            **MINIMAL["cto-check"],
            "rho_in": diag_matrix(0.9, 0.1),
            "rho_out": diag_matrix(0.7, 0.3),
            "hamiltonian": diag_matrix(0.0, 30.0),
        }
        del payload["alphas"]
        p = write_scenario(tmp_path, "cto-check", payload)
        r = invoke(["cto-check", "--scenario", p])
        assert r.exit_code == 4, r.stderr
        second_laws = json.loads(r.stdout)["outputs"]["second_laws"]
        assert second_laws["pass"] is False
        assert len(second_laws["margins"]) == len(resource.DEFAULT_ALPHA_GRID)
        assert all(math.isfinite(m) for m in second_laws["margins"].values())

    @pytest.mark.parametrize("beta,code", [(1.0, 0), (1e308, 5)])
    def test_gibbs_level_past_the_underflow(self, tmp_path, beta, code):
        # tau's upper weight e^-800 underflows to 0, yet ln tau keeps the level:
        # every margin is finite and the alpha = 1 one is the Helmholtz margin.
        # At beta = 1e308, beta * 800 itself overflows and the level is tau's
        # kernel, where both states have mass: D_1 is +inf twice, refused
        payload = {
            **MINIMAL["cto-check"],
            "rho_in": diag_matrix(0.9, 0.1),
            "rho_out": diag_matrix(0.95, 0.05),
            "hamiltonian": diag_matrix(0.0, 800.0),
            "beta": beta,
        }
        del payload["alphas"]
        r = invoke(["cto-check", "--scenario", write_scenario(tmp_path, "cto-check", payload)])
        assert r.exit_code == code, r.stderr
        if code == 5:
            assert r.stderr == (
                "error: numeric health: second-laws margin at alpha = 1.0 is not finite (nan)\n"
            )
            return
        outputs = json.loads(r.stdout)["outputs"]
        margins = outputs["second_laws"]["margins"]
        assert outputs["second_laws"]["pass"] is True
        assert len(margins) == len(resource.DEFAULT_ALPHA_GRID)
        assert all(math.isfinite(m) for m in margins.values())
        assert abs(margins["1.0"] - outputs["margin"]) <= 1e-12 * abs(outputs["margin"])

    def test_tiny_gibbs_level_at_alpha_minus_2_is_0(self, tmp_path):
        # tau's upper level is e^-699 ~ 2.7e-304: at alpha = -2 the margin
        # comes from the log-space sum, where a sandwiched core would overflow
        payload = {
            **MINIMAL["cto-check"],
            "rho_in": diag_matrix(0.6, 0.4),
            "rho_out": diag_matrix(0.6, 0.4),
            "hamiltonian": diag_matrix(0.0, 699.0),
            "alphas": [-2, 0.5, 2],
        }
        r = invoke(["cto-check", "--scenario", write_scenario(tmp_path, "cto-check", payload)])
        assert r.exit_code == 0, r.stderr
        second_laws = json.loads(r.stdout)["outputs"]["second_laws"]
        assert second_laws["pass"] is True
        assert list(second_laws["margins"].values()) == [0.0, 0.0, 0.0]

    def test_alpha_next_to_1_gives_the_alpha_1_margin(self, tmp_path):
        # at 1 + 1e-15, 1/(alpha - 1) would multiply the log-sum's rounding
        # by 1e15; next to 1 the margin is D + (alpha - 1) V / 2 instead
        payload = {
            **MINIMAL["cto-check"],
            "rho_in": diag_matrix(0.1, 0.3, 0.6),
            "rho_out": diag_matrix(0.7, 0.2, 0.1),
            "hamiltonian": diag_matrix(0.0, 1.0, 2.5),
            "alphas": [1.000000000000001, 1],
        }
        r = invoke(["cto-check", "--scenario", write_scenario(tmp_path, "cto-check", payload)])
        assert r.exit_code == 0, r.stderr
        margins = json.loads(r.stdout)["outputs"]["second_laws"]["margins"]
        assert margins["1.0"] == 1.2538728276865576
        assert abs(margins["1.000000000000001"] - margins["1.0"]) <= 1e-9

    def test_cycle_budget_past_half_the_float_range_is_3(self, tmp_path):
        # the cycle charges the budget twice; 2e308 is past the float range
        payload = {**MINIMAL["cto-check"], "cycle": True, "qmi_budget": 1e308}
        r = invoke(["cto-check", "--scenario", write_scenario(tmp_path, "cto-check", payload)])
        assert r.exit_code == 3
        assert r.stderr == (
            "error: contract violation: qmi budget must be <= 8.988465674311579e+307 for a "
            "cycle, which charges it twice, got 1e+308\n"
        )

    def test_huge_state_count_without_rows_is_0(self, tmp_path):
        p = write_scenario(tmp_path, "classify", {"n_states": 10**30, "rows": {}})
        r = invoke(["classify", "--scenario", p])
        assert r.exit_code == 0, r.stderr
        assert json.loads(r.stdout)["outputs"]["reversible"] is True

    def test_numeric_overflow_is_5(self, tmp_path):
        p = write_scenario(
            tmp_path,
            "adiabatic-sweep",
            {
                "e_sig": 1e308,
                "tau_r": 1.0,
                "tau_e": 1e12,
                "t_min": 1e-9,
                "t_max": 1e11,
                "n_points": 5,
            },
        )
        r = run_cli("adiabatic-sweep", "--scenario", p)
        assert r.returncode == 5
        assert "numeric health" in r.stderr
        # numpy's overflow warnings are not printed: stderr is the error line
        assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1

    def test_overflowing_cesaro_step_is_5(self, tmp_path):
        # horizon / samples times the generator has finite entries but a
        # 1-norm past the float range
        p = write_scenario(
            tmp_path,
            "gksl-asymptotic",
            {
                "hamiltonian": diag_matrix(1.0, -1.0),
                "jumps": [{"operator": diag_matrix(1.0, -1.0), "rate": 0.5}],
                "cesaro": {"horizon": 8e307, "samples": 1},
            },
        )
        r = run_cli("gksl-asymptotic", "--scenario", p)
        assert r.returncode == 5
        assert r.stderr == "error: numeric health: matrix 1-norm overflows the float range\n"

    @pytest.mark.parametrize("tau_r, tau_e", [(1e200, 1e300), (1e-200, 1e-190)])
    def test_optimum_out_of_float_range_is_5(self, tmp_path, tau_r, tau_e):
        # tau_r * tau_e overflows to inf or underflows to 0, so the optimum
        # sqrt(tau_r tau_e) is inf or 0: a numeric failure, not bad input
        p = write_scenario(
            tmp_path,
            "adiabatic-sweep",
            {
                "e_sig": 1.0,
                "tau_r": tau_r,
                "tau_e": tau_e,
                "t_min": tau_r * 10.0,
                "t_max": tau_e / 10.0,
                "n_points": 5,
            },
        )
        r = run_cli("adiabatic-sweep", "--scenario", p)
        assert r.returncode == 5, r.stderr
        assert r.stderr.startswith("error: numeric health: optimal transition time")
        assert r.stderr.count("\n") == 1

    def test_success_prints_no_warning(self, tmp_path):
        # tau_e / tau_r = 5 is below the efficiency bound's regime ratio,
        # which the library flags with a RuntimeWarning
        p = write_scenario(
            tmp_path,
            "adiabatic-sweep",
            {
                "e_sig": 1.0,
                "tau_r": 1.0,
                "tau_e": 5.0,
                "t_min": 0.5,
                "t_max": 10.0,
                "n_points": 5,
                "efficiency_c": 1.0,
            },
        )
        r = run_cli("adiabatic-sweep", "--scenario", p, "--out", str(tmp_path / "r.json"))
        assert r.returncode == 0
        assert r.stderr == ""


def test_help_lists_every_task_and_batch():
    r = CliRunner().invoke(cli.main, ["--help"])
    assert r.exit_code == 0
    commands = r.output.split("Commands:\n", 1)[1].splitlines()
    assert [line.split()[0] for line in commands if line.strip()] == [
        "adiabatic-sweep",
        "batch",
        "classify",
        "cto-check",
        "entropy-decompose",
        "gksl-asymptotic",
        "gksl-evolve",
        "implements-check",
        "landauer",
        "thermo-check",
    ]


class TestUnits:
    def test_bits_rescale_entropies(self, tmp_path):
        out = tmp_path / "report.json"
        r = run_cli(
            "landauer",
            "--scenario",
            scenario("erasure_bit.json"),
            "--units",
            "bits",
            "--out",
            str(out),
        )
        assert r.returncode == 0
        report = load_report(out)
        assert report["units"] == "bits"
        assert report["outputs"]["bound"] == pytest.approx(1.0)
        # energies are never rescaled
        assert report["outputs"]["average_delta_e"] == pytest.approx(0.7615941559557649)

    def test_bits_entropy_decompose(self, tmp_path):
        p = write_scenario(
            tmp_path,
            "entropy-decompose",
            {
                "state": [
                    [[0.5, 0.0], [0.0, 0.0]],
                    [[0.0, 0.0], [0.5, 0.0]],
                ],
                "blocks": [[0], [1]],
            },
        )
        r = run_cli("entropy-decompose", "--scenario", p, "--units", "bits")
        report = json.loads(r.stdout)
        assert r.returncode == 0
        assert report["outputs"]["s_total"] == pytest.approx(1.0)
        assert report["outputs"]["h_c"] == pytest.approx(1.0)
        assert report["outputs"]["s_nc"] == pytest.approx(0.0)


class TestRemainingTasks:
    def test_classify_not_gate(self, tmp_path):
        p = write_scenario(
            tmp_path,
            "classify",
            {
                "n_states": 2,
                "rows": {"0": [0.0, 1.0], "1": [1.0, 0.0]},
                "input_dist": [0.25, 0.75],
                "over": [0, 1],
            },
        )
        r = run_cli("classify", "--scenario", p)
        assert r.returncode == 0, r.stderr
        out = json.loads(r.stdout)["outputs"]
        assert out["deterministic"] and out["reversible"] and out["reversible_over"]
        assert not out["entropy_ejecting"]
        assert out["traditional_theorem"] and out["generalized_theorem"]
        assert out["delta_h_c"] == pytest.approx(0.0)

    def test_implements_block_swap(self, tmp_path):
        x_kron_i = [
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
        ]
        diag = [0.3, 0.2, 0.25, 0.25]
        p = write_scenario(
            tmp_path,
            "implements-check",
            {
                "unitary": [[[v, 0.0] for v in row] for row in x_kron_i],
                "state": [
                    [[diag[i] if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)
                ],
                "p_in_blocks": [[0, 1], [2, 3]],
                "op": {"n_states": 2, "rows": {"0": [0.0, 1.0], "1": [1.0, 0.0]}},
            },
        )
        r = run_cli("implements-check", "--scenario", p)
        assert r.returncode == 0, r.stderr
        assert json.loads(r.stdout)["outputs"]["implements"] is True

    def test_thermo_check_everything_reaches_gibbs(self, tmp_path):
        p = write_scenario(
            tmp_path,
            "thermo-check",
            {
                "p_in": [0.5, 0.5],
                "p_out": [0.9525741268224334, 0.04742587317756679],
                "energies": [0.0, 3.0],
                "beta": 1.0,
                "convention": "standard",
            },
        )
        out = tmp_path / "report.json"
        r = run_cli("thermo-check", "--scenario", p, "--out", str(out))
        assert r.returncode == 0, r.stderr
        report = load_report(out)
        assert report["outputs"]["feasible"] is True
        assert report["csv_files"] == ["curve_in.csv", "curve_out.csv"]
        for name in report["csv_files"]:
            assert (tmp_path / name).read_text().splitlines()[0] == "x,y"

    def test_thermo_check_builds_each_curve_once(self, tmp_path, monkeypatch):
        built = []
        original = resource.thermomaj_curve

        def counted(*args):
            built.append(args[0])
            return original(*args)

        monkeypatch.setattr(resource, "thermomaj_curve", counted)
        doc = MINIMAL["thermo-check"]
        p = write_scenario(tmp_path, "thermo-check", doc)
        args = ["thermo-check", "--scenario", p, "--csv-dir", str(tmp_path)]
        r = CliRunner().invoke(cli.main, args)
        assert r.exit_code == 0, r.stderr
        # the payload's vectors reach the library as float arrays
        assert [b.tolist() for b in built] == [doc["p_in"], doc["p_out"]]

    def test_thermo_check_256_levels_writes_the_bytes_of_point_lists(self, tmp_path):
        # the curves reach the emitter as (n, 2) arrays; the report keeps the
        # bytes of json.dumps on the [x, y] lists of the curves' points
        gen = rng(15)
        p_in, p_out = (w / w.sum() for w in gen.uniform(0.1, 1.0, size=(2, 256)))
        doc = {
            "p_in": p_in.tolist(),
            "p_out": p_out.tolist(),
            "energies": np.sort(gen.uniform(0.0, 3.0, 256)).tolist(),
            "beta": 0.7,
        }
        p = write_scenario(tmp_path, "thermo-check", doc)
        out = tmp_path / "report.json"
        r = CliRunner().invoke(cli.main, ["thermo-check", "--scenario", p, "--out", str(out)])
        assert r.exit_code in (0, 4), r.stderr
        expect = load_report(out)
        for key, dist in (("curve_in", doc["p_in"]), ("curve_out", doc["p_out"])):
            curve = resource.thermomaj_curve(dist, doc["energies"], doc["beta"], "paper")
            assert len(curve.points) == 257
            expect["outputs"][key] = [[float(x), float(y)] for x, y in curve.points]
        text = json.dumps(expect, sort_keys=True, indent=2) + "\n"
        assert out.read_bytes() == text.encode()

    def test_cto_check_with_second_laws(self, tmp_path):
        p = write_scenario(
            tmp_path,
            "cto-check",
            {
                "rho_in": [[[0.2, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.8, 0.0]]],
                "rho_out": [
                    [[0.6779527207670044, 0.0], [0.0, 0.0]],
                    [[0.0, 0.0], [0.3220472792329956, 0.0]],
                ],
                "hamiltonian": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
                "beta": 1.0,
                "qmi_budget": 0.0,
                "second_laws": True,
            },
        )
        r = run_cli("cto-check", "--scenario", p)
        assert r.returncode == 0, r.stderr
        report = json.loads(r.stdout)
        assert report["pass"] is True
        assert report["outputs"]["margin"] == pytest.approx(0.6059533161183164)
        sl = report["outputs"]["second_laws"]
        assert sl["pass"] is True
        assert len(sl["margins"]) == 9

    def test_gksl_asymptotic_with_cesaro(self, tmp_path):
        p = write_scenario(
            tmp_path,
            "gksl-asymptotic",
            {
                "hamiltonian": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
                "jumps": [
                    {
                        "operator": [
                            [[1.0, 0.0], [0.0, 0.0]],
                            [[0.0, 0.0], [-1.0, 0.0]],
                        ],
                        "rate": 0.25,
                    }
                ],
                "cesaro": {"horizon": 1e5, "samples": 100000},
                "state": [[[0.7, 0.0], [0.1, 0.0]], [[0.1, 0.0], [0.3, 0.0]]],
            },
        )
        r = run_cli("gksl-asymptotic", "--scenario", p)
        assert r.returncode == 0, r.stderr
        out = json.loads(r.stdout)["outputs"]
        assert out["n_asymptotic"] == 2
        assert out["p_a_rank"] == 2
        assert out["spectral_fallback"] is False
        assert out["cesaro_distance"] < 1e-4
        assert out["asymptotic_frequencies"] == [0.0]
        # dephased state: diagonal survives, coherence is gone
        final = out["asymptotic_state"]
        assert final[0][0] == pytest.approx([0.7, 0.0])
        assert final[0][1] == pytest.approx([0.0, 0.0])
        assert final[1][1] == pytest.approx([0.3, 0.0])


def complex_matrix(m):
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def exceptional_payload(d):
    """Driven damped qubit at its exceptional point (kappa = 1, Omega =
    kappa/4), embedded as H x 1, F x 1: a defective generator."""
    eye = np.eye(d // 2)
    h = 0.5 * 0.25 * np.kron([[0.0, 1.0], [1.0, 0.0]], eye)
    f = np.kron([[0.0, 1.0], [0.0, 0.0]], eye)
    return {
        "hamiltonian": complex_matrix(h),
        "jumps": [{"operator": complex_matrix(f), "rate": 1.0}],
    }


CESARO_STATE = {
    "cesaro": {"horizon": 1e6, "samples": 10**6},
    "state": complex_matrix(np.eye(8) / 8),
}


class TestGkslAsymptotic:
    @pytest.mark.parametrize("defective", [False, True], ids=["eigenbasis", "nullspace"])
    def test_one_spectrum_per_call(self, tmp_path, monkeypatch, defective):
        owners = {
            "_eig_blocks": qlinalg,
            "eigvals": np.linalg,
            "build_superoperator": gksl,
        }
        calls = dict.fromkeys(owners, 0)
        for name, owner in owners.items():
            original = getattr(owner, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        eig_inputs = []
        eig = np.linalg.eig

        def stacked_eig(a):
            eig_inputs.append(np.shape(a))
            return eig(a)

        monkeypatch.setattr(np.linalg, "eig", stacked_eig)
        # d = 3 and 4 take one eig of the whole generator; at d = 8 its real
        # form splits into components, one stacked eig per component size
        for d in (4 if defective else 3, 8):
            if defective:
                payload = exceptional_payload(d)
            else:
                h = np.diag([0.0, 0.7, 1.9] if d == 3 else 0.7 * np.arange(d) ** 1.5)
                payload = {
                    "hamiltonian": complex_matrix(h),
                    "jumps": [{"operator": complex_matrix(np.diag(np.arange(d))), "rate": 0.3}],
                }
            payload["cesaro"] = {"horizon": 1e6, "samples": 10**6}
            p = write_scenario(tmp_path, "gksl-asymptotic", payload)
            calls.update(dict.fromkeys(calls, 0))
            eig_inputs.clear()
            r = CliRunner().invoke(cli.main, ["gksl-asymptotic", "--scenario", p])
            assert r.exit_code == 0, r.stderr
            assert json.loads(r.stdout)["outputs"]["spectral_fallback"] is defective
            assert calls == {"_eig_blocks": 1, "eigvals": 0, "build_superoperator": 1}
            # one stacked eig per component size, covering the d^2 rows once
            sizes = [s for _, s, _ in eig_inputs]
            assert len(set(sizes)) == len(sizes)
            assert sum(k * s for k, s, _ in eig_inputs) == d * d
            assert (eig_inputs == [(1, d * d, d * d)]) == (d < 8)

    def test_cesaro_and_state_stay_in_the_hermitian_basis(self, tmp_path, monkeypatch):
        # the projector and the Cesaro average are compared, and the state
        # projected, without mapping either back to column-stacked form
        calls = {"_column_stacked": 0, "_cesaro_average": 0}
        for name in calls:
            original = getattr(gksl, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(gksl, name, counted)
        for payload in (MINIMAL["gksl-asymptotic"], {**exceptional_payload(8), **CESARO_STATE}):
            calls.update(dict.fromkeys(calls, 0))
            p = write_scenario(tmp_path, "gksl-asymptotic", payload)
            r = CliRunner().invoke(cli.main, ["gksl-asymptotic", "--scenario", p])
            assert r.exit_code == 0, r.stderr
            outputs = json.loads(r.stdout)["outputs"]
            assert {"cesaro_distance", "asymptotic_state"} <= set(outputs)
            assert calls == {"_column_stacked": 0, "_cesaro_average": 1}

    def test_jordan_block_at_asymptotic_eigenvalue_is_5(self, tmp_path, monkeypatch):
        # no GKSL generator has one, so the generator matrix is substituted:
        # U J U+ for a real Jordan block J and U the Hermitian-basis unitary,
        # so it preserves Hermiticity and reaches the Jordan-chain guard
        jordan = np.diag([0.0, 0.0, -1.0, -2.0])
        jordan[0, 1] = 1.0
        u = gksl._from_hermitian_basis(np.eye(4), 0)
        m = u @ jordan @ u.conj().T
        monkeypatch.setattr(gksl, "build_superoperator", lambda l: SimpleNamespace(matrix=m))
        payload = {"hamiltonian": complex_matrix(np.zeros((2, 2))), "jumps": []}
        p = write_scenario(tmp_path, "gksl-asymptotic", payload)
        r = CliRunner().invoke(cli.main, ["gksl-asymptotic", "--scenario", p])
        assert r.exit_code == 5
        assert isinstance(r.exception, SystemExit)
        lines = r.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: numeric health: ")
        assert "Jordan chain" in lines[0]

    def test_spectrum_in_the_right_half_plane_is_5(self, tmp_path, monkeypatch):
        monkeypatch.setattr(qlinalg, "_eig_blocks", leaking(qlinalg._eig_blocks))
        f = [[0.0, 1.0], [0.0, 0.0]]
        payload = {
            "hamiltonian": complex_matrix(np.zeros((2, 2))),
            "jumps": [{"operator": complex_matrix(f), "rate": 0.8}],
        }
        p = write_scenario(tmp_path, "gksl-asymptotic", payload)
        r = CliRunner().invoke(cli.main, ["gksl-asymptotic", "--scenario", p])
        assert r.exit_code == 5
        assert isinstance(r.exception, SystemExit)
        lines = r.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "leaks into the right half plane" in lines[0]

    def test_dimension_over_cap_is_3(self, tmp_path, monkeypatch):
        def build(l):
            raise AssertionError(f"built the d = {l.dim} generator")

        monkeypatch.setattr(gksl, "build_superoperator", build)
        cap = cli.MAX_ASYMPTOTIC_DIM
        runs = {}
        for d in (cap + 1, cap):
            payload = {"hamiltonian": complex_matrix(np.zeros((d, d))), "jumps": []}
            p = write_scenario(tmp_path, "gksl-asymptotic", payload, name=f"d{d}.json")
            runs[d] = invoke(["gksl-asymptotic", "--scenario", p])
        assert runs[cap + 1].exit_code == 3
        assert runs[cap + 1].stderr == (
            f"error: invalid scenario: payload.hamiltonian: dimension {cap + 1} "
            f"exceeds the cap of {cap}\n"
        )
        # the cap itself goes on to the build
        assert str(runs[cap].exception) == f"built the d = {cap} generator"


class TestGkslEvolve:
    def test_explicit_times_give_rows_in_input_order(self, tmp_path):
        doc = load_scenario("dephasing.json")
        times = [3.0, 0.0, 1.5, 3.0, 0.25]
        doc["payload"]["times"] = times
        p = write_scenario(tmp_path, "gksl-evolve", doc["payload"])
        r = run_cli("gksl-evolve", "--scenario", p, "--out", str(tmp_path / "report.json"))
        assert r.returncode == 0, r.stderr
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()[1:]
        rows = [[float(v) for v in line.split(",")] for line in lines]
        assert [row[0] for row in rows] == times
        assert rows[0] == rows[3]
        for row, t in zip(rows, times):
            # dephasing at rate 0.25: the coherence decays as 0.3 exp(-t/2)
            assert row[3] == pytest.approx(0.3 * math.exp(-0.5 * t), abs=1e-12)

    def test_exceptional_point_is_0(self, tmp_path):
        # the generator whose 15th grid point (t = 140/19) tripped a health
        # gate on an eig-based expm
        kappa = 1.88599068317103
        sx = [[0.0, 1.0], [1.0, 0.0]]
        eye = [[1.0, 0.0], [0.0, 1.0]]
        h = 0.5 * (kappa / 4.0) * np.kron(sx, eye)
        f = np.kron([[0.0, 1.0], [0.0, 0.0]], eye)
        payload = {
            "hamiltonian": complex_matrix(h),
            "jumps": [{"operator": complex_matrix(f), "rate": kappa}],
            "state": complex_matrix(random_density(rng(0), 4)),
            "times": {"t_max": 10.0, "n": 20},
        }
        p = write_scenario(tmp_path, "gksl-evolve", payload)
        r = run_cli("gksl-evolve", "--scenario", p, "--out", str(tmp_path / "report.json"))
        assert r.returncode == 0, r.stderr
        assert r.stderr == ""

    @pytest.mark.parametrize(
        "path,value",
        [(("times", "t_max"), 1e300), (("t_resolve",), 1e300), (("times",), [0, 1e300])],
        ids=["t_max", "t_resolve", "times-list"],
    )
    def test_march_over_work_cap_is_3(self, tmp_path, path, value):
        p = tmp_path / "scenario.json"
        p.write_text(mutated(load_scenario("dephasing.json"), path, value))
        start = time.perf_counter()
        r = CliRunner().invoke(cli.main, ["gksl-evolve", "--scenario", str(p)])
        assert time.perf_counter() - start < 1.0
        assert r.exit_code == 3
        lines = r.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "cap" in lines[0]


    @pytest.mark.parametrize("times", [{"t_max": 1e7, "n": 20}, [0.5, 2e6]], ids=["grid", "list"])
    def test_dense_route_over_work_cap_is_3(self, tmp_path, monkeypatch, times):
        # a d = 4 generator that is not diagonal, with one or two distinct
        # steps, would take the dense route: the cap must refuse it first
        def no_route(*args):
            raise AssertionError("a propagation route started")

        monkeypatch.setattr(gksl, "_dense", no_route)
        monkeypatch.setattr(gksl, "_march", no_route)
        eye = np.eye(2)
        h = 0.125 * np.kron([[0.0, 1.0], [1.0, 0.0]], eye)
        f = np.kron([[0.0, 1.0], [0.0, 0.0]], eye)
        payload = {
            "hamiltonian": complex_matrix(h),
            "jumps": [{"operator": complex_matrix(f), "rate": 1.0}],
            "state": complex_matrix(random_density(rng(1), 4)),
            "times": times,
        }
        p = write_scenario(tmp_path, "gksl-evolve", payload)
        r = CliRunner().invoke(cli.main, ["gksl-evolve", "--scenario", p])
        assert r.exit_code == 3
        lines = r.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "cap" in lines[0]



class Reached(Exception):
    """Raised where a grid would be built or a trajectory computed."""


def reached(*args, **kwargs):
    raise Reached(args)


class TestLandauer:
    @staticmethod
    def swap_payload(d, seed=0):
        """A heat call shaped like the bench's landauer-swap-36 at d = 6: two
        pure inputs reset into a d-level bath by the swap."""
        gen = rng(seed)
        basis = np.eye(d)
        return {
            "mode": "unconditional",
            "states": [{"p": 0.3, "state": complex_matrix(np.diag(basis[1]))},
                       {"p": 0.7, "state": complex_matrix(np.diag(basis[d - 1]))}],
            "target": complex_matrix(np.diag(basis[0])),
            "env_hamiltonian": complex_matrix(random_hermitian(gen, d) / math.sqrt(d)),
            "beta": 1.2,
            "unitaries": [{"swap": True}],
            "heat": True,
        }

    def test_heat_takes_the_reset_joint_states(self, tmp_path, monkeypatch):
        # one eigh of H_E serves the reset, its bound and the split; the heat
        # adds one entropy each for rho_S, rho'_S and rho'_E and no joint
        # build (the separate heat functions took 25 eigendecompositions and
        # 4 joint builds on this input)
        counts = count_work(monkeypatch)
        p = write_scenario(tmp_path, "landauer", self.swap_payload(6))
        r = CliRunner().invoke(cli.main, ["landauer", "--scenario", p])
        assert r.exit_code == 0, r.stderr
        assert counts["eigh"] + counts["eigvalsh"] + counts["eig"] <= 12
        assert counts["_evolve_joint"] == 2

    @pytest.mark.parametrize("beta", [1.0, 10.0, 30.0, 100.0, 400.0])
    def test_bundled_erasure_at_large_beta(self, tmp_path, beta):
        payload = {**load_scenario("erasure_bit.json")["payload"], "beta": beta}
        out = tmp_path / "report.json"
        p = write_scenario(tmp_path, "landauer", payload)
        r = CliRunner().invoke(cli.main, ["landauer", "--scenario", p, "--out", str(out)])
        assert r.exit_code == 0, r.stderr
        heat = load_report(out)["outputs"]["heat"]
        numbers = [heat["mgf"], heat["jensen_bound"], *heat["decomposition"].values()]
        assert all(math.isfinite(v) for v in numbers)
        assert heat["identity_residual"] <= 1e-9
        assert heat["partovi"] is True

    def test_joint_dimension_cap(self, tmp_path, monkeypatch):
        # refused from the shapes alone, before the unitary is built; the
        # cap itself goes on to build it
        monkeypatch.setattr(channels, "basis_transposition", reached)
        cap = cli.MAX_JOINT_DIM
        runs = {}
        for d in (33, 32):
            payload = {
                "mode": "unconditional",
                "states": [{"p": 1.0, "state": diag_matrix(*[1.0 / d] * d)}],
                "target": diag_matrix(1.0, *[0.0] * (d - 1)),
                "env_hamiltonian": diag_matrix(*range(d)),
                "beta": 1.0,
                "unitaries": [{"transpositions": []}],
                "heat": True,
            }
            p = write_scenario(tmp_path, "landauer", payload, name=f"d{d}.json")
            runs[d] = invoke(["landauer", "--scenario", p])
        assert 32 * 32 == cap
        assert runs[33].exit_code == 3
        assert runs[33].stderr == (
            "error: invalid scenario: payload.env_hamiltonian: "
            f"joint dimension 33 x 33 = 1089 exceeds the cap of {cap}\n"
        )
        assert isinstance(runs[32].exception, Reached)


class TestOneTextPerCell:
    """A float that reaches both a CSV file and the report is formatted once."""

    @pytest.fixture
    def formatted(self, monkeypatch):
        sizes = []
        original = cli._float_text

        def counted(cells, *args):
            sizes.append(np.size(cells))
            return original(cells, *args)

        monkeypatch.setattr(cli, "_float_text", counted)
        return sizes

    def test_thermo_check_curves(self, tmp_path, formatted):
        n = 40
        gen = rng(16)
        doc = {
            "p_in": (lambda w: (w / w.sum()).tolist())(gen.uniform(0.1, 1.0, n)),
            "p_out": [1.0 / n] * n,
            "energies": gen.uniform(0.0, 3.0, n).tolist(),
            "beta": 0.7,
        }
        p = write_scenario(tmp_path, "thermo-check", doc)
        r = CliRunner().invoke(cli.main, ["thermo-check", "--scenario", p, "--csv-dir", str(tmp_path)])
        assert r.exit_code in (0, 4), r.stderr
        # each curve's (n + 1) x 2 points once, then partition_weight and the tolerance
        assert formatted == [2 * (n + 1), 2 * (n + 1), 1, 1]
        report = json.loads(r.stdout)
        for key in ("curve_in", "curve_out"):
            rows = (tmp_path / f"{key}.csv").read_text().splitlines()[1:]
            assert [[float(v) for v in row.split(",")] for row in rows] == report["outputs"][key]

    def test_gksl_evolve_final_state(self, tmp_path, formatted):
        doc = load_scenario("dephasing.json")
        out = tmp_path / "report.json"
        p = write_scenario(tmp_path, "gksl-evolve", doc["payload"])
        r = CliRunner().invoke(cli.main, ["gksl-evolve", "--scenario", p, "--out", str(out)])
        assert r.exit_code == 0, r.stderr
        # the trajectory's cells in one call; every later call formats one
        # report number, none the final state's 2 d^2 cells
        assert set(formatted[1:]) == {1}
        last = (tmp_path / "trajectory.csv").read_text().splitlines()[-1].split(",")[1:]
        final = load_report(out)["outputs"]["final_state"]
        assert [float(v) for v in last] == list(np.ravel(final))

    @staticmethod
    def report_cells(text: str, key: str) -> list:
        """The cell strings of the report's outputs[key], read as written."""
        return list(np.ravel(json.loads(text, parse_float=str)["outputs"][key]))

    def test_report_cells_are_csv_cells(self, tmp_path):
        # byte for byte, signed zeros included: a report cell is its CSV
        # cell's text, not a second formatting of the same float
        n = 30
        gen = rng(17)
        doc = {
            "p_in": (lambda w: (w / w.sum()).tolist())(gen.uniform(0.1, 1.0, n)),
            "p_out": [1.0 / n] * n,
            "energies": gen.uniform(0.0, 3.0, n).tolist(),
            "beta": 0.7,
        }
        p = write_scenario(tmp_path, "thermo-check", doc)
        r = CliRunner().invoke(cli.main, ["thermo-check", "--scenario", p, "--csv-dir", str(tmp_path)])
        assert r.exit_code in (0, 4), r.stderr
        for key in ("curve_in", "curve_out"):
            rows = (tmp_path / f"{key}.csv").read_text().splitlines()[1:]
            cells = [cell for row in rows for cell in row.split(",")]
            assert self.report_cells(r.stdout, key) == cells
            assert len(cells) == 2 * (n + 1)
        # at t = 0 the state's signed zeros reach the final state as they are
        signed = {
            "hamiltonian": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
            "state": [[[0.5, 0.0], [-0.0, 0.0]], [[-0.0, -0.0], [0.5, 0.0]]],
            "times": [0.0],
        }
        finals = []
        for payload in (load_scenario("dephasing.json")["payload"], signed):
            p = write_scenario(tmp_path, "gksl-evolve", payload)
            args = ["gksl-evolve", "--scenario", p, "--csv-dir", str(tmp_path)]
            r = CliRunner().invoke(cli.main, args)
            assert r.exit_code == 0, r.stderr
            last = (tmp_path / "trajectory.csv").read_text().splitlines()[-1].split(",")[1:]
            assert self.report_cells(r.stdout, "final_state") == last
            finals.append(last)
        assert "-0.0" in finals[1] and "0.0" in finals[1]


class TestGridCaps:
    """A grid's point count is refused above MAX_CSV_CELLS cells of its CSV
    side file, before the grid is built, and passes at the cap. No test
    builds a grid at the cap: np.linspace and np.geomspace raise Reached."""

    @pytest.fixture
    def built(self, monkeypatch):
        counts = []

        def grid(start, stop, num):
            counts.append(num)
            raise Reached

        monkeypatch.setattr(np, "linspace", grid)
        monkeypatch.setattr(np, "geomspace", grid)
        return counts

    @staticmethod
    def invoke(tmp_path, task, payload):
        return invoke([task, "--scenario", write_scenario(tmp_path, task, payload)])

    @staticmethod
    def refusal(path, n, columns):
        cap = cli.MAX_CSV_CELLS // columns
        return (
            f"error: invalid scenario: {path}: {n} points exceed the cap of {cap} "
            f"({cli.MAX_CSV_CELLS} CSV cells at {columns} per point)\n"
        )

    @pytest.mark.parametrize("d", [2, 16])
    def test_even_time_grid(self, tmp_path, built, d):
        columns = 1 + 2 * d * d
        cap = cli.MAX_CSV_CELLS // columns
        payload = {
            "hamiltonian": diag_matrix(*range(d)),
            "state": diag_matrix(*[1.0 / d] * d),
        }
        r = self.invoke(tmp_path, "gksl-evolve", {**payload, "times": {"t_max": 1.0, "n": cap + 1}})
        assert r.exit_code == 3
        assert r.stderr == self.refusal("payload.times.n", cap + 1, columns)
        assert built == []
        r = self.invoke(tmp_path, "gksl-evolve", {**payload, "times": {"t_max": 1.0, "n": cap}})
        assert isinstance(r.exception, Reached)
        assert built == [cap]

    def test_explicit_time_list(self, tmp_path, monkeypatch):
        monkeypatch.setattr(gksl, "trajectory", reached)
        cap = cli.MAX_CSV_CELLS // 9
        payload = load_scenario("dephasing.json")["payload"]
        del payload["blocks"], payload["t_resolve"]
        r = self.invoke(tmp_path, "gksl-evolve", {**payload, "times": [0.0] * (cap + 1)})
        assert r.exit_code == 3
        assert r.stderr == self.refusal("payload.times", cap + 1, 9)
        r = self.invoke(tmp_path, "gksl-evolve", {**payload, "times": [0.0] * cap})
        assert isinstance(r.exception, Reached)

    def test_sweep_points(self, tmp_path, built):
        cap = cli.MAX_CSV_CELLS // 4
        payload = load_scenario("adiabatic.json")["payload"]
        r = self.invoke(tmp_path, "adiabatic-sweep", {**payload, "n_points": cap + 1})
        assert r.exit_code == 3
        assert r.stderr == self.refusal("payload.n_points", cap + 1, 4)
        assert built == []
        r = self.invoke(tmp_path, "adiabatic-sweep", {**payload, "n_points": cap})
        assert isinstance(r.exception, Reached)
        assert built == [cap]

class TestCsvPlacement:
    def test_csv_dir_override(self, tmp_path):
        csv_dir = tmp_path / "tables"
        out = tmp_path / "reports" / "report.json"
        r = run_cli(
            "gksl-evolve",
            "--scenario",
            scenario("dephasing.json"),
            "--out",
            str(out),
            "--csv-dir",
            str(csv_dir),
        )
        assert r.returncode == 0
        assert (csv_dir / "trajectory.csv").exists()
        assert not (tmp_path / "reports" / "trajectory.csv").exists()


class TestWriteFailures:
    """An output that cannot be written exits 1 with one error line."""

    def check_one_error_line(self, r):
        assert r.exit_code == 1
        # a traceback would leave the exception itself, not SystemExit
        assert type(r.exception) is SystemExit
        assert r.stderr.startswith("error: cannot write output: ")
        assert r.stderr.count("\n") == 1

    def test_csv_dir_naming_a_file_is_1(self, tmp_path):
        blocker = tmp_path / "tables"
        blocker.write_text("kept")
        out = tmp_path / "report.json"
        args = ["gksl-evolve", "--scenario", scenario("dephasing.json"), "--out", str(out)]
        r = CliRunner().invoke(cli.main, args + ["--csv-dir", str(blocker)])
        self.check_one_error_line(r)
        assert blocker.read_text() == "kept"
        assert not out.exists()

    def test_out_under_a_file_is_1(self, tmp_path):
        blocker = tmp_path / "reports"
        blocker.write_text("kept")
        args = ["landauer", "--scenario", scenario("erasure_bit.json")]
        r = CliRunner().invoke(cli.main, args + ["--out", str(blocker / "report.json")])
        self.check_one_error_line(r)
        assert blocker.read_text() == "kept"

    def test_out_at_the_trajectory_csv_is_1(self, tmp_path, monkeypatch):
        # a relative --out beside the CSV, as the default --csv-dir puts it
        monkeypatch.chdir(tmp_path)
        args = ["gksl-evolve", "--scenario", scenario("dephasing.json")]
        r = CliRunner().invoke(cli.main, args + ["--out", "trajectory.csv"])
        self.check_one_error_line(r)
        assert r.stderr == (
            "error: cannot write output: the report trajectory.csv and the CSV file "
            "trajectory.csv are one path\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_out_at_the_sweep_csv_in_csv_dir_is_1(self, tmp_path):
        out = tmp_path / "sweep.csv"
        args = ["adiabatic-sweep", "--scenario", scenario("adiabatic.json"), "--out", str(out)]
        r = CliRunner().invoke(cli.main, args + ["--csv-dir", str(tmp_path)])
        self.check_one_error_line(r)
        assert r.stderr == (
            f"error: cannot write output: the report {out} and the CSV file sweep.csv "
            "are one path\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_out_at_the_csv_through_a_linked_directory_is_1(self, tmp_path):
        (tmp_path / "link").symlink_to(tmp_path)
        out = tmp_path / "link" / "trajectory.csv"
        args = ["gksl-evolve", "--scenario", scenario("dephasing.json"), "--out", str(out)]
        r = CliRunner().invoke(cli.main, args + ["--csv-dir", str(tmp_path)])
        self.check_one_error_line(r)
        assert r.stderr.endswith("and the CSV file trajectory.csv are one path\n")
        assert [p.name for p in tmp_path.iterdir()] == ["link"]

    def test_out_through_a_symlink_loop_is_1(self, tmp_path):
        (tmp_path / "a").symlink_to(tmp_path / "b")
        (tmp_path / "b").symlink_to(tmp_path / "a")
        args = ["gksl-evolve", "--scenario", scenario("dephasing.json"), "--csv-dir", str(tmp_path)]
        r = CliRunner().invoke(cli.main, args + ["--out", str(tmp_path / "a" / "trajectory.csv")])
        self.check_one_error_line(r)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a", "b"]

    def test_batch_goes_on_after_a_write_failure(self, tmp_path):
        out_dir = tmp_path / "batch"
        (out_dir / "erasure_bit.report.json").mkdir(parents=True)
        first, second = scenario("erasure_bit.json"), scenario("adiabatic.json")
        args = ["batch", "--scenario", first, "--scenario", second, "--out-dir", str(out_dir)]
        r = CliRunner().invoke(cli.main, args)
        self.check_one_error_line(r)
        assert r.stdout == f"{first}: exit 1\n{second}: exit 0\n"
        assert list((out_dir / "erasure_bit.report.json").iterdir()) == []
        # the refused report leaves no temporary file behind
        assert not (out_dir / "erasure_bit.report.json.tmp").exists()
        assert (out_dir / "adiabatic.report.json").exists()

    def test_refused_report_leaves_no_csv(self, tmp_path):
        # every output is staged before any is renamed into place: the
        # trajectory CSV renamed before the refused report is removed again
        out_dir = tmp_path / "out"
        (out_dir / "dephasing.report.json").mkdir(parents=True)
        args = ["batch", "--scenario", scenario("dephasing.json"), "--out-dir", str(out_dir)]
        r = CliRunner().invoke(cli.main, args)
        self.check_one_error_line(r)
        assert r.stdout == f"{scenario('dephasing.json')}: exit 1\n"
        assert sorted(p.name for p in out_dir.iterdir()) == ["dephasing.report.json"]
        assert list((out_dir / "dephasing.report.json").iterdir()) == []


class TestBatch:
    @pytest.mark.parametrize("twice", [False, True], ids=["two-directories", "one-path-twice"])
    def test_shared_stem_is_a_usage_error(self, tmp_path, twice):
        payload = load_scenario("dephasing.json")["payload"]
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
        first = write_scenario(tmp_path / "a", "gksl-evolve", payload, name="x.json")
        second = first if twice else write_scenario(tmp_path / "b", "landauer", {}, name="x.json")
        out_dir = tmp_path / "out"
        args = ["batch", "--scenario", first, "--scenario", second, "--out-dir", str(out_dir)]
        r = CliRunner().invoke(cli.main, args)
        assert r.exit_code == 2
        assert type(r.exception) is SystemExit
        assert r.stdout == ""
        assert "Invalid value for '--scenario'" in r.stderr
        assert "share the stem 'x'" in r.stderr
        # refused before any scenario runs
        assert not out_dir.exists()

    def test_aggregates_worst_exit_code(self, tmp_path):
        bad = write_scenario(
            tmp_path,
            "thermo-check",
            {
                "p_in": [0.9525741268224334, 0.04742587317756679],
                "p_out": [0.9, 0.1],
                "energies": [0.0, 3.0],
                "beta": 1.0,
                "convention": "standard",
            },
            name="infeasible.json",
        )
        out_dir = tmp_path / "batch"
        r = run_cli(
            "batch",
            "--scenario",
            scenario("erasure_bit.json"),
            "--scenario",
            bad,
            "--out-dir",
            str(out_dir),
        )
        assert r.returncode == 4
        assert "erasure_bit.json: exit 0" in r.stdout
        assert "infeasible.json: exit 4" in r.stdout
        assert (out_dir / "erasure_bit.report.json").exists()
        assert (out_dir / "infeasible.report.json").exists()
        # batch prefixes CSVs with the scenario stem
        assert (out_dir / "infeasible_curve_in.csv").exists()

    def test_unknown_task_is_3(self, tmp_path):
        p = write_scenario(tmp_path, "frobnicate", {}, name="odd.json")
        r = run_cli("batch", "--scenario", p, "--out-dir", str(tmp_path))
        assert r.returncode == 3
        assert "unknown task" in r.stderr

    def test_malformed_member_is_2(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("[[[")
        r = run_cli("batch", "--scenario", str(p), "--out-dir", str(tmp_path))
        assert r.returncode == 2
        assert "broken.json: exit 2" in r.stdout


class TestFieldMutation:
    """Every payload field, replaced by each hostile value, keeps the exit-code
    contract: no traceback, an exit code of 0, 3, 4 or 5, at most one error
    line, and null always refused; a schema refusal reads the same with the
    library poisoned."""

    VALUES = (None, [], {}, 0, -1, 0.7, True, "x", [[]], [0.7], OVERFLOW)

    @staticmethod
    def documents():
        for path in sorted(SCENARIOS.iterdir()):
            if path.name.endswith(".json"):
                yield json.loads(path.read_text())
        for task, payload in MINIMAL.items():
            yield {"task": task, "payload": payload}

    @classmethod
    def field_paths(cls, node, path=()):
        # descend into objects and arrays, but not into complex matrices
        if isinstance(node, dict):
            items = node.items()
        elif isinstance(node, list) and not cls.is_matrix(node):
            items = enumerate(node)
        else:
            return
        for key, child in items:
            yield path + (key,)
            yield from cls.field_paths(child, path + (key,))

    @staticmethod
    def is_matrix(node):
        return bool(node) and all(
            isinstance(row, list)
            and row
            and all(isinstance(cell, list) and len(cell) == 2 for cell in row)
            for row in node
        )

    @staticmethod
    def keeps_contract(result, value) -> bool:
        lines = result.stderr.splitlines()
        return (
            (result.exception is None or isinstance(result.exception, SystemExit))
            and result.exit_code in (0, 3, 4, 5)
            and (value is not None or result.exit_code == 3)
            and (lines == [] or (len(lines) == 1 and lines[0].startswith("error: ")))
        )

    def test_contract_holds_for_every_field(self, tmp_path):
        runner = CliRunner()
        scenario_file = tmp_path / "scenario.json"
        out = str(tmp_path / "report.json")
        failures = []
        n_cases = 0
        for doc in self.documents():
            for path in self.field_paths(doc["payload"]):
                for value in self.VALUES:
                    n_cases += 1
                    scenario_file.write_text(mutated(doc, path, value))
                    args = [doc["task"], "--scenario", str(scenario_file), "--out", out]
                    r = runner.invoke(cli.main, args)
                    kept = self.keeps_contract(r, value)
                    if not (kept and refused_alike(args, r.exit_code, r.stderr)):
                        failures.append((doc["task"], path, value, r.exit_code, r.stderr))
        assert n_cases > 1000
        assert failures == []


class TestMatrixCells:
    """Each malformed matrix cell or row exits 3 and names it; the
    field-mutation test replaces whole fields and never reaches a cell."""

    # (literal JSON for cell [0][1] or, for a path ending in a row, row [1];
    # the error line that names it)
    CELL = "error: invalid scenario: payload.hamiltonian[0][1]: expected an [re, im] pair"
    ROW = "error: invalid scenario: payload.hamiltonian[1]: "
    CASES = {
        "bool": ("[0][1]", "[true, 0.0]", CELL),
        "bool-pair": ("[0][1]", "[true, false]", CELL),
        "string": ("[0][1]", '["x", 0.0]', CELL),
        "numeric-strings": ("[0][1]", '["1", "2"]', CELL),
        "null": ("[0][1]", "[null, 0.0]", CELL),
        "NaN": ("[0][1]", "[NaN, 0.0]", CELL),
        "Infinity": ("[0][1]", "[0.0, -Infinity]", CELL),
        "1e400": ("[0][1]", "[1e400, 0.0]", CELL),
        "10**400": ("[0][1]", f"[{10**400}, 0.0]", CELL),
        "one-element": ("[0][1]", "[0.0]", CELL),
        "three-element": ("[0][1]", "[0.0, 0.0, 0.0]", CELL),
        "nested": ("[0][1]", "[[0.0, 0.0], [0.0, 0.0]]", CELL),
        "bare-number": ("[0][1]", "0.0", CELL),
        "non-list-row": ("[1]", "5", ROW + "expected an array of [re, im] pairs"),
        "string-row": ("[1]", '"[[0, 0], [0, 0]]"', ROW + "expected an array of [re, im] pairs"),
        "ragged-row": ("[1]", "[[0.0, 0.0]]", ROW + "ragged row (expected 2 entries)"),
        "empty-row": ("[1]", "[]", ROW + "ragged row (expected 2 entries)"),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_bad_cell_is_3_and_named(self, tmp_path, name):
        where, literal, message = self.CASES[name]
        doc = {"task": "gksl-asymptotic", "payload": copy.deepcopy(MINIMAL["gksl-asymptotic"])}
        h = doc["payload"]["hamiltonian"]
        if where == "[1]":
            h[1] = "<here>"
        else:
            h[0][1] = "<here>"
        p = tmp_path / "scenario.json"
        p.write_text(json.dumps(doc).replace('"<here>"', literal))
        out = tmp_path / "report.json"
        r = invoke(["gksl-asymptotic", "--scenario", str(p), "--out", str(out)])
        assert r.exit_code == 3 and isinstance(r.exception, SystemExit)
        assert r.stderr == message + "\n"
        assert not out.exists()

    def test_well_formed_cells_decode_exactly(self):
        cells = [[[1, -0.0], [2**60 + 1, 5e-324]], [[-1.5, 10**20], [0, 1e308]]]
        m = cli._matrix(cells, "m")
        ref = np.array([[complex(*cell) for cell in row] for row in cells])
        assert m.dtype == complex and m.shape == (2, 2)
        assert np.array_equal(m.view(float), ref.view(float))
        assert math.copysign(1.0, m[0, 0].imag) == -1.0


# The smallest int that rounds onto the largest float but lies past it
PAST_MAX_FLOAT = 2**1024 - 2**970 - 1


class TestVectorCells:
    """Each malformed number array exits 3 with the walk's error line."""

    CELL = "error: invalid scenario: payload.p_in[1]: expected a finite number"
    WHOLE = "error: invalid scenario: payload.p_in: expected a nonempty array of numbers"
    CASES = {
        "bool": ("[0.5, true]", CELL),
        "numeric-string": ('[0.5, "0.5"]', CELL),
        "null": ("[0.5, null]", CELL),
        "NaN": ("[0.5, NaN]", CELL),
        "Infinity": ("[0.5, -Infinity]", CELL),
        "10**400": (f"[0.5, {10**400}]", CELL),
        "past-max-float": (f"[0.5, {PAST_MAX_FLOAT}]", CELL),
        "nested": ("[0.5, [0.5]]", CELL),
        "nested-all": ("[[0.5], [0.5]]", "error: invalid scenario: payload.p_in[0]: expected a finite number"),
        "empty": ("[]", WHOLE),
        "object": ('{"0": 0.5}', WHOLE),
        "string": ('"[0.5, 0.5]"', WHOLE),
        "bare-number": ("0.5", WHOLE),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_bad_vector_is_3_and_named(self, tmp_path, name):
        literal, message = self.CASES[name]
        doc = {"task": "thermo-check", "payload": dict(MINIMAL["thermo-check"], p_in="<here>")}
        p = tmp_path / "scenario.json"
        p.write_text(json.dumps(doc).replace('"<here>"', literal))
        out = tmp_path / "report.json"
        r = invoke(["thermo-check", "--scenario", str(p), "--out", str(out)])
        assert r.exit_code == 3 and isinstance(r.exception, SystemExit)
        assert r.stderr == message + "\n"
        assert not out.exists()

    def test_well_formed_vector_decodes_as_the_walk(self):
        node = [1, -0.0, 2**53 + 1, 2**60 + 3, -(2**64) - 1, 10**300, 5e-324, 1.7976931348623157e308]
        v = cli._vector(node, "v")
        assert v.dtype == float and v.shape == (len(node),)
        assert v.tobytes() == np.array([float(x) for x in node]).tobytes()

    def test_int_past_the_largest_float_is_refused_in_a_matrix(self):
        with pytest.raises(cli.SchemaViolation, match=r"m\[0\]\[0\]: expected an \[re, im\] pair"):
            cli._matrix([[[PAST_MAX_FLOAT, 0]]], "m")
        m = cli._matrix([[[1.7976931348623157e308, -1.7976931348623157e308]]], "m")
        assert m[0, 0] == complex(1.7976931348623157e308, -1.7976931348623157e308)


def test_complex_matrix_encoding_matches_the_per_entry_loop():
    gen = rng(11)
    m = gen.normal(size=(5, 5)) + 1j * gen.normal(size=(5, 5))
    m[0, :4] = [-0.0, complex(0.0, -0.0), 5e-324 - 1e308j, 1e16]
    ref = [[[float(x.real), float(x.imag)] for x in row] for row in m]
    encoded = cli._encode_complex_matrix(m)
    assert encoded.dtype == np.float64 and encoded.shape == (5, 5, 2)
    assert encoded.tolist() == ref
    # the signs of zeros show in the text alone
    assert cli._report_text(encoded) == json.dumps(ref, indent=2) + "\n"


def random_tree(gen, depth=0):
    """A seeded JSON-like tree: every scalar kind json.dumps writes,
    nested lists, tuples and string-keyed objects, empty ones included."""
    text = ["", "a", "é", "☃", "\U0001f600", '"', "\\", "\n\t\x00\x1f", " ", "k\x7f"]
    scalars = [
        lambda: str(gen.choice(text)) + str(gen.choice(text)),
        lambda: int(gen.integers(-(2**62), 2**62)) * 10 ** int(gen.integers(0, 30)),
        lambda: bool(gen.integers(2)),
        lambda: None,
        lambda: float(gen.choice([-0.0, 0.0, 5e-324, 2.2e-308, 1e16, 1e-7, 0.1, 1e308])),
        lambda: float(gen.normal() * 10.0 ** gen.integers(-20, 20)),
    ]
    kind = int(gen.integers(0, 9 if depth < 4 else 6))
    if kind < 6:
        return scalars[kind]()
    n = int(gen.integers(0, 5))
    if kind == 6:
        return {
            str(gen.choice(text)) + str(i): random_tree(gen, depth + 1) for i in range(n)
        }
    items = [random_tree(gen, depth + 1) for _ in range(n)]
    if gen.integers(2):
        items = [float(x) for x in gen.normal(size=n)]
    return tuple(items) if kind == 7 else items


class TestReportText:
    """The one-pass emitter writes exactly json.dumps(sort_keys=True, indent=2),
    a float array as its nested list."""

    @staticmethod
    def reference(report) -> str:
        # a text array reads back through float, whose repr is its text
        def cells(a):
            return (a.astype(float) if a.dtype == object else a).tolist()

        return json.dumps(report, sort_keys=True, indent=2, default=cells) + "\n"

    def test_matches_json_dumps_on_every_scenario_report(self, tmp_path, monkeypatch):
        reports = []
        emit = cli._report_text

        def recorded(report):
            text = emit(report)
            reports.append((report, text))
            return text

        monkeypatch.setattr(cli, "_report_text", recorded)
        runner = CliRunner()
        docs = list(TestFieldMutation.documents())
        for i, doc in enumerate(docs):
            p = tmp_path / f"s{i}.json"
            p.write_text(json.dumps(doc))
            for units in ("nats", "bits"):
                args = [doc["task"], "--scenario", str(p), "--units", units]
                r = runner.invoke(cli.main, args + ["--out", str(tmp_path / f"r{i}.json")])
                assert r.exit_code in (0, 4), r.stderr
        assert len(reports) == 2 * len(docs)
        assert {r["task"] for r, _ in reports} >= set(MINIMAL)
        for report, text in reports:
            assert text == self.reference(report)

    def test_matches_json_dumps_on_random_trees(self):
        gen = rng(12)
        for _ in range(400):
            tree = {"root": random_tree(gen), "more": [random_tree(gen) for _ in range(3)]}
            assert cli._report_text(tree) == self.reference(tree)
        for tree in ({}, [], (), "", 0, -0.0, {"": {}}, [[], {}, ()], 10**400):
            assert cli._report_text(tree) == self.reference(tree)

    @pytest.mark.parametrize(
        "shape", [(7,), (9, 2), (4, 4, 2), (1, 1, 2), (0,), (0, 2), (3, 0), (2, 0, 2)]
    )
    def test_float_arrays_match_json_dumps_of_their_lists(self, shape):
        gen = rng(13)
        special = [-0.0, 0.0, 5e-324, -5e-324, 2.2e-308, 1e16, -1e-7, 1e308, 0.1]
        a = gen.normal(size=shape) * 10.0 ** gen.integers(-20, 20, size=shape)
        a.reshape(-1)[: len(special)] = special[: a.size]
        for report in (a, {"x": a, "y": [a, {"z": a}]}):
            assert cli._report_text(report) == self.reference(report)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["scalar", "float list", "mixed list"])
    def test_non_finite_float_raises(self, value, where):
        node = {"scalar": value, "float list": [1.0, value], "mixed list": [1, value]}[where]
        with pytest.raises(cli.NumericHealthError):
            cli._report_text({"outputs": {"x": node}})

    @pytest.mark.parametrize(
        "node, message",
        [
            (math.nan, "outputs.x is not finite (nan)"),
            ([1.0, math.inf], "outputs.x[1] is not finite (inf)"),
            ([1, -math.inf], "outputs.x[1] is not finite (-inf)"),
            ([[1.0], {"y": math.nan}], "outputs.x[1].y is not finite (nan)"),
            (
                np.array([[0.0, 1.0], [2.0, 3.0], [4.0, -math.inf]]),
                "outputs.x[2][1] is not finite (-inf)",
            ),
        ],
    )
    def test_non_finite_float_is_named_by_its_path(self, node, message):
        with pytest.raises(cli.NumericHealthError) as info:
            cli._report_text({"a": 1.0, "outputs": {"w": [], "x": node}})
        assert str(info.value) == message

    def test_unknown_type_raises_like_json(self):
        for value in (np.int64(1), object()):
            with pytest.raises(TypeError):
                cli._report_text({"x": value})


class TestTrajectoryCsv:
    """The trajectory writer gives the bytes of repr on every cell."""

    @staticmethod
    def csv(times, states) -> str:
        return cli._csv_text(*cli._trajectory_cells(times, states))

    @staticmethod
    def reference(times, states) -> str:
        n, d = states.shape[:2]
        names = [str(i).zfill(len(str(d - 1))) for i in range(d)]
        header = "t," + ",".join(f"re_{a}{b},im_{a}{b}" for a in names for b in names)
        rows = np.column_stack((times, states.reshape(n, -1).view(float))).tolist()
        return "\n".join([header] + [",".join(map(repr, row)) for row in rows]) + "\n"

    SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e16, -1e-5, 3.0, -7.0, 1e-16]

    @classmethod
    def hermitian_stack(cls, gen, n, d):
        """Seeded Hermitian stacks with about half of the cells drawn from
        SPECIAL, and a pair whose im parts are +0.0 and +0.0, as the health
        gate's symmetrization leaves a cancelled pair."""
        cells = gen.normal(size=(n, d, d)) + 1j * gen.normal(size=(n, d, d))
        for part in (cells.real, cells.imag):
            mask = gen.uniform(size=part.shape) < 0.5
            part[mask] = gen.choice(cls.SPECIAL, size=mask.sum())
        i, j = np.triu_indices(d, 1)
        cells[:, j, i] = cells[:, i, j].conj()
        cells[:, range(d), range(d)] = cells.diagonal(axis1=1, axis2=2).real
        cells[:, d - 1, 0] = cells[:, 0, d - 1] = cells[:, 0, d - 1].real
        return cells

    @pytest.mark.parametrize("n,d", [(1, 1), (1, 4), (5, 1), (20, 2), (20, 5), (7, 16)])
    def test_hermitian_stacks(self, n, d):
        gen = rng(100 * n + d)
        for _ in range(5):
            states = self.hermitian_stack(gen, n, d)
            times = np.sort(gen.choice([0.0, 1e-300, 0.5, 3.0, 1e16], size=n))
            assert self.csv(times, states) == self.reference(times, states)

    def test_signed_zero_pairs(self):
        # every pairing of +0.0 and -0.0 across the diagonal, in re and im
        zeros = [0.0, -0.0]
        cells = [complex(a, b) for a in zeros for b in zeros]
        states = np.array(
            [[[0.5, u], [v, 0.5]] for u in cells for v in cells], dtype=complex
        )
        times = np.arange(len(states), dtype=float)
        assert self.csv(times, states) == self.reference(times, states)

    def test_non_hermitian_stack_formats_every_cell(self):
        # no cell below the diagonal matches its mirror, so each one takes
        # the fallback
        gen = rng(31)
        states = gen.normal(size=(6, 5, 5)) + 1j * gen.normal(size=(6, 5, 5))
        times = np.linspace(0.0, 2.0, 6)
        assert self.csv(times, states) == self.reference(times, states)

    @pytest.mark.parametrize(
        "cells, message",
        [
            # a NaN im pair with flipped sign bits: the upper cell is named
            ([((0, 1, 0), complex(math.nan, math.nan)), ((0, 0, 1), complex(math.nan, -math.nan))],
             "data row 1, column re_01 is not finite (nan)"),
            ([(1, math.inf)], "data row 2, column re_00 is not finite (inf)"),
            # below the diagonal, with a finite mirror: formatted on its own
            ([((2, 3, 1), complex(0.5, -math.inf))],
             "data row 3, column im_31 is not finite (-inf)"),
        ],
        ids=["nan pair", "inf state", "lower cell"],
    )
    def test_non_finite_cell_is_refused(self, cells, message):
        states = self.hermitian_stack(rng(33), 6, 5)
        for at, value in cells:
            states[at] = value
        with pytest.raises(cli.NumericHealthError) as info:
            self.csv(np.linspace(0.0, 2.0, 6), states)
        assert str(info.value) == "trajectory.csv " + message

    def test_list_of_integer_times(self):
        states = self.hermitian_stack(rng(32), 3, 3)
        assert self.csv([0, 2, 5], states) == self.reference([0.0, 2.0, 5.0], states)

    def test_header_names_are_distinct(self):
        # both indices are padded to the width of d - 1, so (1, 11) and
        # (11, 1) no longer both read re_111
        state = np.eye(12, dtype=complex)[None] / 12
        header = self.csv([0.0], state).splitlines()[0].split(",")
        assert len(header) == 1 + 2 * 144 == len(set(header))
        assert header[:3] == ["t", "re_0000", "im_0000"]
        assert {"re_0111", "re_1101"} <= set(header)
        # up to d = 10 each index keeps one digit
        header = self.csv([0.0], np.eye(10, dtype=complex)[None] / 10).splitlines()[0]
        assert header.endswith(",re_98,im_98,re_99,im_99")


class TestFloatTableCsv:
    """A float table's CSV (_table_rows laid out by _csv_text) gives the bytes
    of repr on every cell."""

    @staticmethod
    def reference(header, rows) -> str:
        return "\n".join([header, *(",".join(map(repr, row)) for row in rows)]) + "\n"

    @pytest.mark.parametrize(
        "header",
        ["x", "x,y", "t_tr,e_sw,e_lk,e_diss", "a,b,c,d,e,f,g"],
    )
    @pytest.mark.parametrize("n", [1, 2, 7, 500])
    def test_seeded_tables(self, header, n):
        gen = rng(10 * n + header.count(","))
        k = header.count(",") + 1
        for _ in range(5):
            cells = gen.normal(size=(n, k)) * 10.0 ** gen.integers(-300, 300, size=(n, k))
            mask = gen.uniform(size=cells.shape) < 0.5
            cells[mask] = gen.choice(TestTrajectoryCsv.SPECIAL, size=mask.sum())
            text = cli._csv_text(header, cli._table_rows("table.csv", header, cells))
            assert text == self.reference(header, cells.tolist())

    def test_every_special_value_in_one_row(self):
        header = ",".join(f"c{i}" for i in range(len(TestTrajectoryCsv.SPECIAL)))
        cells = np.array([TestTrajectoryCsv.SPECIAL])
        text = cli._csv_text(header, cli._table_rows("table.csv", header, cells))
        assert text == self.reference(header, cells.tolist())
        assert text.splitlines()[1].split(",")[1:3] == ["-0.0", "5e-324"]


class TestNonFiniteOutput:
    """A non-finite output exits 5, names its field, and writes no file."""

    MESSAGE = "error: numeric health: outputs.partition_weight is not finite (nan)\n"

    @pytest.fixture
    def poisoned(self, monkeypatch, tmp_path):
        handler = cli._HANDLERS["thermo-check"]

        def poisoned_handler(payload, units, tol):
            outputs, passed, tolerances, csvs = handler(payload, units, tol)
            outputs["partition_weight"] = math.nan
            return outputs, passed, tolerances, csvs

        monkeypatch.setitem(cli._HANDLERS, "thermo-check", poisoned_handler)
        return write_scenario(tmp_path, "thermo-check", MINIMAL["thermo-check"])

    def test_with_out(self, tmp_path, poisoned):
        out_dir = tmp_path / "out"
        args = ["thermo-check", "--scenario", poisoned, "--out", str(out_dir / "report.json")]
        r = CliRunner().invoke(cli.main, args)
        assert r.exit_code == 5
        assert r.stderr == self.MESSAGE
        assert not out_dir.exists()

    def test_with_csv_dir(self, tmp_path, poisoned):
        args = ["thermo-check", "--scenario", poisoned, "--csv-dir", str(tmp_path / "tables")]
        r = CliRunner().invoke(cli.main, args)
        assert r.exit_code == 5
        assert r.stdout == ""
        assert r.stderr == self.MESSAGE
        assert not (tmp_path / "tables").exists()

    def test_as_batch_member(self, tmp_path, poisoned):
        good = write_scenario(tmp_path, "classify", MINIMAL["classify"], name="good.json")
        out_dir = tmp_path / "batch"
        args = ["batch", "--scenario", good, "--scenario", poisoned, "--out-dir", str(out_dir)]
        r = CliRunner().invoke(cli.main, args)
        assert r.exit_code == 5
        assert r.stdout == f"{good}: exit 0\n{poisoned}: exit 5\n"
        assert r.stderr == self.MESSAGE
        assert sorted(p.name for p in out_dir.iterdir()) == ["good.report.json"]

    def test_array_cell_is_named(self, tmp_path, monkeypatch):
        handler = cli._HANDLERS["gksl-asymptotic"]

        def poisoned_handler(payload, units, tol):
            outputs, passed, tolerances, csvs = handler(payload, units, tol)
            outputs["asymptotic_state"][1, 0, 1] = math.nan
            return outputs, passed, tolerances, csvs

        monkeypatch.setitem(cli._HANDLERS, "gksl-asymptotic", poisoned_handler)
        p = write_scenario(tmp_path, "gksl-asymptotic", MINIMAL["gksl-asymptotic"])
        out = tmp_path / "report.json"
        r = CliRunner().invoke(cli.main, ["gksl-asymptotic", "--scenario", p, "--out", str(out)])
        assert r.exit_code == 5
        assert r.stderr == (
            "error: numeric health: outputs.asymptotic_state[1][0][1] is not finite (nan)\n"
        )
        assert not out.exists()

    def test_non_finite_tolerance_is_named(self, tmp_path, monkeypatch):
        handler = cli._HANDLERS["classify"]

        def poisoned_handler(payload, units, tol):
            outputs, passed, tolerances, csvs = handler(payload, units, tol)
            return outputs, passed, {**tolerances, "support": math.inf}, csvs

        monkeypatch.setitem(cli._HANDLERS, "classify", poisoned_handler)
        p = write_scenario(tmp_path, "classify", MINIMAL["classify"])
        r = CliRunner().invoke(cli.main, ["classify", "--scenario", p])
        assert r.exit_code == 5
        assert r.stderr == "error: numeric health: tolerances.support is not finite (inf)\n"


class TestNonFiniteCsvCell:
    """A non-finite CSV cell exits 5 like a non-finite report number: one
    error line names the data row and column, and no file is written. The
    sweep's line is adiabatic.sweep's own, which refuses the table before
    the writer sees it."""

    # e_sw = e_sig tau_r / t_tr overflows at t_tr = 1e-10, while every
    # report number stays finite
    SWEEP = {
        "e_sig": 1e300, "tau_r": 1, "tau_e": 1e10, "t_min": 1e-10, "t_max": 1e12, "n_points": 5
    }
    MESSAGE = "error: numeric health: sweep row 1, column e_sw is not finite (inf)\n"

    def test_with_out(self, tmp_path):
        p = write_scenario(tmp_path, "adiabatic-sweep", self.SWEEP)
        out_dir = tmp_path / "out"
        args = ["adiabatic-sweep", "--scenario", p, "--out", str(out_dir / "report.json")]
        r = CliRunner().invoke(cli.main, args)
        assert r.exit_code == 5
        assert r.stderr == self.MESSAGE
        assert not out_dir.exists()

    def test_with_csv_dir(self, tmp_path):
        p = write_scenario(tmp_path, "adiabatic-sweep", self.SWEEP)
        args = ["adiabatic-sweep", "--scenario", p, "--csv-dir", str(tmp_path / "tables")]
        r = CliRunner().invoke(cli.main, args)
        assert r.exit_code == 5
        assert r.stdout == ""
        assert r.stderr == self.MESSAGE
        assert not (tmp_path / "tables").exists()

    def test_as_batch_member(self, tmp_path):
        good = write_scenario(tmp_path, "classify", MINIMAL["classify"], name="good.json")
        sweep = write_scenario(tmp_path, "adiabatic-sweep", self.SWEEP, name="sweep.json")
        out_dir = tmp_path / "batch"
        args = ["batch", "--scenario", good, "--scenario", sweep, "--out-dir", str(out_dir)]
        r = CliRunner().invoke(cli.main, args)
        assert r.exit_code == 5
        assert r.stdout == f"{good}: exit 0\n{sweep}: exit 5\n"
        assert r.stderr == self.MESSAGE
        assert sorted(p.name for p in out_dir.iterdir()) == ["good.report.json"]

    def test_cell_is_named_by_row_and_column(self):
        rows = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, math.nan]])
        with pytest.raises(cli.NumericHealthError) as info:
            cli._csv_text("x,y", cli._table_rows("curve_in.csv", "x,y", rows))
        assert str(info.value) == "curve_in.csv data row 3, column y is not finite (nan)"


# a printf conversion of "%" formatting with the r type; "%%" is a literal %
PERCENT_R = re.compile(r"%(\([^)]*\))?[-#0 +]*(\*|\d+)?(\.(\*|\d+)?)?[hlL]?r")


def template_repr(template: str) -> bool:
    """Whether str.format of template converts a field with !r, in a
    nested format spec too."""
    try:
        fields = list(string.Formatter().parse(template))
    except ValueError:  # no valid template formats anything
        return False
    return any(
        conversion == "r" or (spec and template_repr(spec))
        for _, name, spec, conversion in fields
        if name is not None
    )


def float_formatters(source: str) -> set:
    """The top-level functions of source, and the methods of its classes as
    Class.method, that name float.__repr__ or the builtin repr, to call it
    or to pass it on, or that format through repr by a template: f"{x!r}",
    "%r" % x or "{!r}".format(x);
    "<module>" for any other top-level statement that does. A str is
    quoted with str.__repr__, which takes no float."""

    def is_text(n):
        return isinstance(n, ast.Constant) and isinstance(n.value, str)

    def formats(node):
        return any(
            (isinstance(n, ast.Attribute) and n.attr == "__repr__"
             and isinstance(n.value, ast.Name) and n.value.id == "float")
            or (isinstance(n, ast.Name) and n.id == "repr")
            or (isinstance(n, ast.FormattedValue) and n.conversion == ord("r"))
            or (isinstance(n, ast.BinOp) and isinstance(n.op, ast.Mod) and is_text(n.left)
                and PERCENT_R.search(n.left.value.replace("%%", "")) is not None)
            or (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                and n.func.attr in ("format", "format_map") and is_text(n.func.value)
                and template_repr(n.func.value.value))
            for n in ast.walk(node)
        )

    found = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef):
            found |= {
                f"{node.name}.{getattr(m, 'name', '<body>')}" for m in node.body if formats(m)
            }
        elif formats(node):
            found.add(getattr(node, "name", "<module>"))
    return found


def test_one_function_formats_floats():
    assert float_formatters(Path(cli.__file__).read_text()) == {"_float_text"}
    # the scan sees a second formatter in each form
    probes = [
        "def _float_text(v):\n    return float.__repr__(v)\n",
        "def table(rows):\n    return ','.join(map(repr, rows))\n",
        "class C:\n    def __str__(self):\n        return f'({repr(self.value)})'\n",
        "KEYS = {repr(a): a for a in (0.5, 2.0)}\n",
        "def text(v):\n    return (lambda x: float.__repr__(x))(v)\n",
        "def percent(v):\n    return 'v=%r' % v\n",
        "def keyed(v):\n    return '%(v)-8r' % {'v': v}\n",
        "def fstring(v):\n    return f'{v!r}'\n",
        "def nested(v, w):\n    return f'{v:>{w!r}}'\n",
        "def template(v):\n    return '{!r}'.format(v)\n",
        "def spec(v, w):\n    return '{0:{1!r}}'.format(v, w)\n",
        "def mapped(v):\n    return '{v!r}'.format_map({'v': v})\n",
    ]
    assert float_formatters("".join(probes)) == {
        "_float_text", "table", "C.__str__", "<module>", "text", "percent", "keyed",
        "fstring", "nested", "template", "spec", "mapped",
    }
    # and none in a template that converts by str or quotes a str
    quiet = [
        "def literal(v):\n    return '100%%r' % ()\n",
        "def plain(v):\n    return f'{v}, {v!s}, %s' % v + '{!s}'.format(v)\n",
        "def quoted(s):\n    return f'unknown {str.__repr__(s)}'\n",
        "def broken(v):\n    return '{!r'.format(v)\n",
    ]
    assert float_formatters("".join(quiet)) == set()
