import copy
import json
import math
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest
from click.testing import CliRunner

from revtherm import cli

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


def diag_matrix(*diag):
    n = len(diag)
    return [[[diag[i] if i == j else 0.0, 0.0] for j in range(n)] for i in range(n)]


# One small passing scenario for each task without a bundled file. Every
# optional field is present so that the field-mutation test reaches it.
MINIMAL = {
    "classify": {
        "n_states": 2,
        "rows": {"0": [0.0, 1.0], "1": [1.0, 0.0]},
        "input_dist": [0.25, 0.75],
        "over": [0, 1],
    },
    "entropy-decompose": {"state": diag_matrix(0.5, 0.5), "blocks": [[0], [1]]},
    "implements-check": {
        "unitary": diag_matrix(1.0, 1.0),
        "state": diag_matrix(0.3, 0.7),
        "p_in_blocks": [[0], [1]],
        "p_out_blocks": [[0], [1]],
        "op": {"n_states": 2, "rows": {"0": [1.0, 0.0], "1": [0.0, 1.0]}},
    },
    "thermo-check": {
        "p_in": [0.5, 0.5],
        "p_out": [0.5, 0.5],
        "energies": [0.0, 1.0],
        "beta": 1.0,
        "convention": "standard",
    },
    "cto-check": {
        "rho_in": diag_matrix(0.2, 0.8),
        "rho_out": diag_matrix(0.2, 0.8),
        "hamiltonian": diag_matrix(0.0, 1.0),
        "beta": 1.0,
        "qmi_budget": 0.0,
        "cycle": False,
        "second_laws": True,
        "alphas": [0.5, 2.0],
    },
    "gksl-asymptotic": {
        "hamiltonian": diag_matrix(0.0, 0.0),
        "jumps": [{"operator": diag_matrix(1.0, -1.0), "rate": 0.25}],
        "tol": 1e-8,
        "cesaro": {"horizon": 1e5, "samples": 100000},
        "state": diag_matrix(0.5, 0.5),
        "h_inf": diag_matrix(0.0, 0.0),
        "s": 1.0,
    },
}

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
    # tests/make_goldens.py when the change is intended
    CASES = (
        ("erasure_bit", "landauer"),
        ("erasure_bit_conditional", "landauer"),
        ("dephasing", "gksl-evolve"),
        ("adiabatic", "adiabatic-sweep"),
    )

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

    def test_schema_violation_is_3_with_field_path(self, tmp_path):
        p = write_scenario(
            tmp_path,
            "entropy-decompose",
            {"state": [[[1.0, 0.0], [0.5]], [[0.0, 0.0], [0.0, 0.0]]], "blocks": [[0], [1]]},
        )
        r = run_cli("entropy-decompose", "--scenario", p)
        assert r.returncode == 3
        assert "payload.state[0][1]" in r.stderr

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
        ],
        ids=[
            "empty-states",
            "fractional-over",
            "null-tol",
            "null-blocks",
            "overflowing-t_max",
            "zero-cesaro-samples",
            "oversized-int-number",
            "oversized-int-matrix-cell",
            "superscript-digit-row-key",
            "duplicate-over",
        ],
    )
    def test_bad_field_is_3(self, tmp_path, doc, path, value, message):
        p = tmp_path / "scenario.json"
        p.write_text(mutated(doc, path, value))
        r = run_cli(doc["task"], "--scenario", str(p))
        assert r.returncode == 3, r.stderr
        assert message in r.stderr
        assert "Traceback" not in r.stderr

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


class TestBatch:
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
    line, and null always refused."""

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
                    if not self.keeps_contract(r, value):
                        failures.append((doc["task"], path, value, r.exit_code, r.stderr))
        assert n_cases > 1000
        assert failures == []
