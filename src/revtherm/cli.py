"""Scenario runner: JSON in, deterministic JSON report (plus CSV) out.

Each subcommand handles one task; a scenario file declares its task,
payload, and optional metadata. Reports are byte-stable for identical
inputs: keys are sorted, floats use their shortest round-trip form, no
timestamps or absolute paths are embedded, and the input file is echoed
only as a content hash.

Exit codes: 0 success; 1 scenario file unreadable; 2 malformed JSON;
3 schema or contract violation (field path in the message); 4 a
feasibility or bound check failed, report still emitted; 5 numeric health
failure.

Complex matrices are encoded as nested [re, im] pairs, row-major. CSV side
files use '.' decimals, '\\n' line endings, and a mandatory header row.
With --units bits, entropic output fields (entropies and beta-weighted
heat terms) are divided by ln 2; plain energies and free energies are
never rescaled, and all internal computation stays in nats.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
import warnings
from pathlib import Path

import click
import numpy as np

from . import adiabatic, channels, compmodel, compops, gksl, qlinalg, qstate, resource
from .errors import ContractError, NonDiagonalizable, NumericHealthError, ShapeError

LN2 = math.log(2.0)

_UNITS = ("nats", "bits")


class SchemaViolation(Exception):
    """Payload field missing or of the wrong shape; message names the path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")


# -- schema access -----------------------------------------------------------
# Every payload field is read by _get through a kind: a function
# (value, field_path) -> decoded value that raises SchemaViolation.


def _get(obj, key, path, kind, default=...):
    """Read obj[key] through kind; a missing key gives default.

    With no default (the Ellipsis) the field is required. null is never a
    value: an optional field is left out instead.
    """
    if not isinstance(obj, dict):
        raise SchemaViolation(path, "expected an object")
    field = f"{path}.{key}"
    if key not in obj:
        if default is ...:
            raise SchemaViolation(field, "missing required field")
        return default
    if obj[key] is None:
        raise SchemaViolation(field, "null is not a value (omit the field)")
    return kind(obj[key], field)


def _is_number(v) -> bool:
    """A finite JSON number that fits a float; booleans are not numbers."""
    return (
        isinstance(v, (int, float))
        and not isinstance(v, bool)
        and abs(v) <= sys.float_info.max
    )


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _number(v, path) -> float:
    if not _is_number(v):
        raise SchemaViolation(path, "expected a finite number")
    return float(v)


def _int(v, path) -> int:
    if not _is_int(v):
        raise SchemaViolation(path, "expected an integer")
    return v


def _instance(cls, expected):
    """Kind that passes instances of cls through unchanged."""

    def kind(v, path):
        if not isinstance(v, cls):
            raise SchemaViolation(path, f"expected {expected}")
        return v

    return kind


_string = _instance(str, "a string")
_bool = _instance(bool, "a boolean")
_array = _instance(list, "an array")
_object = _instance(dict, "an object")


def _array_of(kind, what):
    """Kind for a nonempty array whose elements are read through kind."""

    def read(node, path):
        if not isinstance(node, list) or not node:
            raise SchemaViolation(path, f"expected a nonempty array of {what}")
        return [kind(v, f"{path}[{i}]") for i, v in enumerate(node)]

    return read


_vector = _array_of(_number, "numbers")
_indices = _array_of(_int, "indices")
_blocks = _array_of(_indices, "index blocks")


def _matrix(node, path) -> np.ndarray:
    if not isinstance(node, list) or not node:
        raise SchemaViolation(path, "expected a nonempty array of rows")
    for i, row in enumerate(node):
        if not isinstance(row, list):
            raise SchemaViolation(f"{path}[{i}]", "expected an array of [re, im] pairs")
        if len(row) != len(node[0]):
            raise SchemaViolation(
                f"{path}[{i}]", f"ragged row (expected {len(node[0])} entries)"
            )
        for j, cell in enumerate(row):
            if not (isinstance(cell, list) and len(cell) == 2 and all(map(_is_number, cell))):
                raise SchemaViolation(f"{path}[{i}][{j}]", "expected an [re, im] pair")
    return np.array([[complex(*cell) for cell in row] for row in node], dtype=complex)


def _op(node, path) -> compops.StochasticOp:
    n = _get(node, "n_states", path, _int)
    rows_node = _get(node, "rows", path, _object)
    rows = {}
    for key in rows_node:
        if not key.isdecimal():
            raise SchemaViolation(f"{path}.rows.{key}", "row keys must be state indices")
        rows[int(key)] = _get(rows_node, key, f"{path}.rows", _vector)
    return compops.StochasticOp(n, rows)


def _encode_complex_matrix(m: np.ndarray) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(m)]


# -- report plumbing ---------------------------------------------------------


def _scan_finite(node, path="outputs"):
    if isinstance(node, dict):
        for k, v in node.items():
            _scan_finite(v, f"{path}.{k}")
    elif isinstance(node, (list, tuple)):
        for i, v in enumerate(node):
            _scan_finite(v, f"{path}[{i}]")
    elif isinstance(node, float) and not math.isfinite(node):
        raise NumericHealthError(f"{path} is not finite ({node!r})")


def _csv_table(header: str, rows) -> str:
    lines = [header]
    for row in rows:
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def _atomic_write(path: Path, text: str):
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _entropy_divisor(units: str) -> float:
    return 1.0 if units == "nats" else LN2


# -- task handlers -----------------------------------------------------------
# Each returns (outputs, passed, tolerances, csv side files name -> text).


def _handle_classify(payload, units, tol):
    div = _entropy_divisor(units)
    op = _op(payload, "payload")
    over = _get(payload, "over", "payload", _indices, None)
    outputs = {
        "domain": list(op.domain),
        "deterministic": compops.is_deterministic(op),
        "reversible": compops.is_reversible(op),
    }
    if over is not None:
        outputs["reversible_over"] = compops.is_reversible(op, over)
    checks = []
    if outputs["deterministic"]:
        outputs["entropy_ejecting"] = compops.is_entropy_ejecting(op)
        outputs["traditional_theorem"] = compops.check_traditional_theorem(op)
        checks.append(outputs["traditional_theorem"])
    dist = _get(payload, "input_dist", "payload", _vector, None)
    if dist is not None:
        c = compops.ContextualizedComputation(op, dist)
        delta_h, min_delta_s = compops.computational_entropy_delta(c)
        outputs["delta_h_c"] = delta_h / div
        outputs["min_delta_s_nc"] = min_delta_s / div
        outputs["support"] = list(c.support)
        if outputs["deterministic"]:
            outputs["generalized_theorem"] = compops.check_generalized_theorem(c)
            checks.append(outputs["generalized_theorem"])
    tolerances = {
        "row_sum": compops.ROW_SUM_TOL,
        "support": compops.SUPPORT_TOL,
        "delta_h": compops.DELTA_H_TOL,
    }
    return outputs, all(checks), tolerances, {}


def _handle_entropy_decompose(payload, units, tol):
    div = _entropy_divisor(units)
    state = _get(payload, "state", "payload", _matrix)
    blocks = _get(payload, "blocks", "payload", _blocks)
    partition = compmodel.BasisPartition(state.shape[0], blocks)
    ctx = compmodel.QuantumContext(state, partition)
    s_total, h_c, s_nc = compmodel.entropy_decompose(ctx)
    residual = abs(s_total - h_c - s_nc)
    outputs = {
        "s_total": s_total / div,
        "h_c": h_c / div,
        "s_nc": s_nc / div,
        "residual": residual / div,
        "distribution": [float(p) for p in compmodel.computational_distribution(ctx)],
    }
    tolerances = {"identity_residual": 1e-9}
    return outputs, bool(residual <= 1e-9), tolerances, {}


def _handle_implements_check(payload, units, tol):
    u = _get(payload, "unitary", "payload", _matrix)
    state = _get(payload, "state", "payload", _matrix)
    d = state.shape[0]
    p_in = compmodel.BasisPartition(d, _get(payload, "p_in_blocks", "payload", _blocks))
    out_blocks = _get(payload, "p_out_blocks", "payload", _blocks, None)
    p_out = compmodel.BasisPartition(d, out_blocks) if out_blocks is not None else p_in
    op = _get(payload, "op", "payload", _op)
    ctx = compmodel.QuantumContext(state, p_in)
    tv_tol = tol if tol is not None else 1e-9
    ok = compops.implements(u, p_in, p_out, op, ctx, tol=tv_tol)
    return {"implements": ok}, ok, {"total_variation": tv_tol}, {}


def _reset_unitary(node, path, d_s, d_e):
    matrix = _get(node, "matrix", path, _matrix, None)
    if matrix is not None:
        return matrix
    swap = _get(node, "swap", path, _bool, None)
    if swap is not None:
        if not swap:
            raise SchemaViolation(f"{path}.swap", "must be true when present")
        if d_s != d_e:
            raise SchemaViolation(
                f"{path}.swap", f"swap needs equal dimensions, got {d_s} and {d_e}"
            )
        return channels.swap_unitary(d_s)
    pairs = _get(node, "transpositions", path, _array, None)
    if pairs is None:
        raise SchemaViolation(path, "expected one of: matrix, swap, transpositions")
    for i, pair in enumerate(pairs):
        if not (isinstance(pair, list) and len(pair) == 2 and all(map(_is_int, pair))):
            raise SchemaViolation(
                f"{path}.transpositions[{i}]", "expected an [i, j] index pair"
            )
    return channels.basis_transposition(d_s * d_e, pairs)


def _weighted_state(node, path) -> tuple:
    return _get(node, "p", path, _number), _get(node, "state", path, _matrix)


def _handle_landauer(payload, units, tol):
    div = _entropy_divisor(units)
    mode = _get(payload, "mode", "payload", _string)
    if mode not in ("conditional", "unconditional"):
        raise SchemaViolation("payload.mode", f"unknown mode {mode!r}")
    states = _get(payload, "states", "payload", _array_of(_weighted_state, "states"))
    target = _get(payload, "target", "payload", _matrix)
    h_e = _get(payload, "env_hamiltonian", "payload", _matrix)
    beta = _get(payload, "beta", "payload", _number)
    env_ctx = qstate.ThermoContext(qstate.Hamiltonian(h_e), beta)
    d_s, d_e = states[0][1].shape[0], h_e.shape[0]
    unitaries = tuple(
        _reset_unitary(node, f"payload.unitaries[{i}]", d_s, d_e)
        for i, node in enumerate(_get(payload, "unitaries", "payload", _array))
    )
    scenario = channels.ResetScenario(
        states=tuple(states),
        target=target,
        env_ctx=env_ctx,
        mode=mode,
        unitaries=unitaries,
    )
    sim = channels.simulate_reset(scenario)
    outputs = {
        "mode": mode,
        "temperature": float(env_ctx.temperature),
        "bound": sim["bound"] / div,
        "average_delta_e": float(sim["average_delta_e"]),
        "delta_e_per_state": [float(x) for x in sim["delta_e_per_state"]],
        "satisfied": sim["satisfied"],
    }
    passed = sim["satisfied"]
    tolerances = {"bound_slack": channels.BOUND_TOL}
    if _get(payload, "heat", "payload", _bool, False):
        if len(unitaries) != 1:
            raise SchemaViolation(
                "payload.heat", "heat analysis needs a single shared unitary"
            )
        tau_e = qstate.gibbs_state(env_ctx)
        mixture = sum(p * rho for p, rho in scenario.states)
        spec = channels.DilationSpec(d_s, d_e, unitaries[0], tau_e)
        env_kraus = channels.extract_env_kraus(unitaries[0], mixture, (d_s, d_e))
        mgf = channels.heat_mgf(env_kraus, tau_e)
        jensen = channels.jensen_heat_bound(mgf, env_ctx.temperature)
        decomp = channels.heat_decomposition(spec, mixture, beta)
        identity_residual = abs(sum(decomp.values()))
        partovi = channels.partovi_check(spec, mixture)
        outputs["heat"] = {
            "mgf": float(mgf),
            "jensen_bound": jensen / div,
            "decomposition": {k: v / div for k, v in decomp.items()},
            "identity_residual": identity_residual / div,
            "partovi": partovi,
        }
        tolerances["heat_identity"] = 1e-9
        passed = bool(
            passed
            and partovi
            and identity_residual <= 1e-9
            and jensen <= sim["average_delta_e"] + 1e-9
        )
    return outputs, passed, tolerances, {}


def _handle_thermo_check(payload, units, tol):
    p_in = _get(payload, "p_in", "payload", _vector)
    p_out = _get(payload, "p_out", "payload", _vector)
    energies = _get(payload, "energies", "payload", _vector)
    beta = _get(payload, "beta", "payload", _number)
    convention = _get(payload, "convention", "payload", _string, "paper")
    if convention not in ("paper", "standard"):
        raise SchemaViolation("payload.convention", f"unknown convention {convention!r}")
    feasible = resource.thermomaj_feasible(p_in, p_out, energies, beta, convention)
    curve_in = resource.thermomaj_curve(p_in, energies, beta, convention)
    curve_out = resource.thermomaj_curve(p_out, energies, beta, convention)
    outputs = {
        "feasible": feasible,
        "convention": convention,
        "partition_weight": float(curve_in.partition_weight),
        "curve_in": [[float(x), float(y)] for x, y in curve_in.points],
        "curve_out": [[float(x), float(y)] for x, y in curve_out.points],
    }
    csvs = {
        "curve_in.csv": _csv_table("x,y", curve_in.points),
        "curve_out.csv": _csv_table("x,y", curve_out.points),
    }
    return outputs, feasible, {"feasibility": resource.FEASIBILITY_TOL}, csvs


def _handle_cto_check(payload, units, tol):
    rho_in = _get(payload, "rho_in", "payload", _matrix)
    rho_out = _get(payload, "rho_out", "payload", _matrix)
    h = _get(payload, "hamiltonian", "payload", _matrix)
    beta = _get(payload, "beta", "payload", _number)
    qmi = _get(payload, "qmi_budget", "payload", _number)
    ctx = qstate.ThermoContext(qstate.Hamiltonian(h), beta)
    if _get(payload, "cycle", "payload", _bool, False):
        verdict = resource.compute_reset_cycle_verdict(rho_in, rho_out, ctx, qmi)
    else:
        verdict = resource.cto_feasible_general(rho_in, rho_out, ctx, qmi)
    outputs = {
        "feasible": verdict.feasible,
        "free_energy_in": verdict.free_energy_in,
        "free_energy_out": verdict.free_energy_out,
        "margin": verdict.margin,
        "qmi": verdict.qmi,
    }
    passed = verdict.feasible
    tolerances = {"feasibility": resource.FEASIBILITY_TOL}
    if _get(payload, "second_laws", "payload", _bool, False):
        alphas = _get(payload, "alphas", "payload", _vector, resource.DEFAULT_ALPHA_GRID)
        ok, margins = resource.second_laws_check(rho_in, rho_out, ctx, alphas)
        outputs["second_laws"] = {
            "pass": ok,
            "margins": {repr(float(a)): float(m) for a, m in margins.items()},
        }
        passed = bool(passed and ok)
    return outputs, passed, tolerances, {}


def _jump(node, path) -> tuple:
    return _get(node, "operator", path, _matrix), _get(node, "rate", path, _number)


def _lindbladian(payload) -> gksl.Lindbladian:
    h = _get(payload, "hamiltonian", "payload", _matrix)
    jumps = _get(payload, "jumps", "payload", _array, [])
    return gksl.Lindbladian(
        qstate.Hamiltonian(h),
        tuple(_jump(node, f"payload.jumps[{i}]") for i, node in enumerate(jumps)),
    )


def _times(node, path):
    """{"t_max": T, "n": N} for an even grid on [0, T], or an explicit list."""
    if not isinstance(node, dict):
        return _vector(node, path)
    t_max = _get(node, "t_max", path, _number)
    n = _get(node, "n", path, _int)
    if n < 1:
        raise SchemaViolation(f"{path}.n", "need at least one point")
    return np.linspace(0.0, t_max, n)


def _handle_gksl_evolve(payload, units, tol):
    l = _lindbladian(payload)
    state = _get(payload, "state", "payload", _matrix)
    times = _get(payload, "times", "payload", _times)
    trajectory = np.array([gksl.propagate(l, state, t) for t in times])
    max_drift = max(abs(float(np.real(np.trace(r))) - 1.0) for r in trajectory)
    d = l.dim
    header = "t," + ",".join(
        f"re_{i}{j},im_{i}{j}" for i in range(d) for j in range(d)
    )
    # each row: t, then re, im of every entry in row-major order
    rows = np.column_stack((times, trajectory.reshape(len(times), -1).view(float)))
    outputs = {
        "n_points": int(len(times)),
        "max_trace_drift": float(max_drift),
        "final_state": _encode_complex_matrix(trajectory[-1]),
    }
    passed = True
    tolerances = {"trace": gksl.TRAJECTORY_TRACE_TOL}
    blocks = _get(payload, "blocks", "payload", _blocks, None)
    if blocks is not None:
        partition = compmodel.BasisPartition(d, blocks)
        t_resolve = _get(payload, "t_resolve", "payload", _number)
        check = gksl.dephasing_check(l, partition, state, t_resolve)
        outputs["dephasing"] = {
            "residual_coherence": check["residual_coherence"],
            "classical": check["classical"],
        }
        tolerances["dephased_fraction"] = gksl.DEPHASED_FRACTION
        passed = check["classical"]
    return outputs, passed, tolerances, {"trajectory.csv": _csv_table(header, rows)}


def _handle_gksl_asymptotic(payload, units, tol):
    l = _lindbladian(payload)
    dec = gksl.decompose(l, _get(payload, "tol", "payload", _number, None))
    evals = sorted(
        (complex(z) for z in dec.eigenvalues), key=lambda z: (z.real, z.imag)
    )
    outputs = {
        "eigenvalues": [[float(z.real), float(z.imag)] for z in evals],
        "n_asymptotic": len(dec.asymptotic_indices),
        "p_a_rank": int(round(float(np.real(np.trace(dec.p_a))))),
        "asymptotic_frequencies": [float(f) for f in dec.asymptotic_frequencies],
        "spectral_fallback": dec.p_inf.kind == "approximation",
    }
    passed = True
    tolerances = {"asymptotic_re": dec.tol}
    cesaro = _get(payload, "cesaro", "payload", _object, None)
    if cesaro is not None:
        ces = gksl.cesaro_projector(
            l,
            _get(cesaro, "horizon", "payload.cesaro", _number),
            _get(cesaro, "samples", "payload.cesaro", _int),
        )
        dist = qlinalg.hs_norm(ces.matrix - dec.p_inf.matrix)
        gate = tol if tol is not None else 1e-4
        outputs["cesaro_distance"] = float(dist)
        tolerances["cesaro_agreement"] = gate
        passed = bool(dist <= gate)
    state = _get(payload, "state", "payload", _matrix, None)
    if state is not None:
        h_inf = _get(
            payload, "h_inf", "payload", _matrix, np.zeros((l.dim, l.dim), dtype=complex)
        )
        s = _get(payload, "s", "payload", _number, 0.0)
        final = gksl.asymptotic_evolution(dec, state, qstate.Hamiltonian(h_inf), s)
        outputs["asymptotic_state"] = _encode_complex_matrix(final)
    return outputs, passed, tolerances, {}


def _handle_adiabatic_sweep(payload, units, tol):
    params = adiabatic.AdiabaticParams(
        e_sig=_get(payload, "e_sig", "payload", _number),
        tau_r=_get(payload, "tau_r", "payload", _number),
        tau_e=_get(payload, "tau_e", "payload", _number),
        c_sw=_get(payload, "c_sw", "payload", _number, 1.0),
        c_lk=_get(payload, "c_lk", "payload", _number, 1.0),
    )
    t_min = _get(payload, "t_min", "payload", _number)
    t_max = _get(payload, "t_max", "payload", _number)
    n_points = _get(payload, "n_points", "payload", _int)
    table = adiabatic.sweep(params, t_min, t_max, n_points)
    opt = adiabatic.optimal_ttr(params)
    floor = adiabatic.min_e_diss(params)
    at_opt = params.e_sig * params.tau_r_adj / opt + params.e_sig * opt / params.tau_e_adj
    grid_min = float(table[:, 3].min())
    outputs = {
        "optimal_ttr": float(opt),
        "min_e_diss": float(floor),
        "e_diss_at_optimum": float(at_opt),
        "grid_min": grid_min,
        "n_points": int(n_points),
    }
    c = _get(payload, "efficiency_c", "payload", _number, None)
    if c is not None:
        outputs["efficiency_bound"] = float(adiabatic.efficiency_bound(params, c))
    closed_form_ok = abs(at_opt - floor) <= 1e-12 * max(1.0, floor)
    passed = bool(closed_form_ok and grid_min >= floor - 1e-9)
    tolerances = {"optimum_identity": 1e-12, "grid_floor": 1e-9}
    return outputs, passed, tolerances, {"sweep.csv": _csv_table("t_tr,e_sw,e_lk,e_diss", table)}


_HANDLERS = {
    "classify": _handle_classify,
    "entropy-decompose": _handle_entropy_decompose,
    "implements-check": _handle_implements_check,
    "landauer": _handle_landauer,
    "thermo-check": _handle_thermo_check,
    "cto-check": _handle_cto_check,
    "gksl-evolve": _handle_gksl_evolve,
    "gksl-asymptotic": _handle_gksl_asymptotic,
    "adiabatic-sweep": _handle_adiabatic_sweep,
}


# -- driver ------------------------------------------------------------------


def _invoke(task, scenario_path, out, units, tol, csv_dir, csv_prefix="") -> int:
    """Run one scenario file and return its exit code.

    task None runs whatever task the file declares (batch); otherwise the
    declared task must match.
    """
    try:
        raw = Path(scenario_path).read_bytes()
    except OSError as exc:
        click.echo(f"error: cannot read scenario: {exc}", err=True)
        return 1
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        click.echo(f"error: malformed JSON: {exc}", err=True)
        return 2
    try:
        if units not in _UNITS:
            raise SchemaViolation("--units", f"unknown unit {units!r}")
        if tol is not None and (not math.isfinite(tol) or tol <= 0.0):
            raise SchemaViolation("--tol", "tolerance must be a positive number")
        declared = _get(doc, "task", "$", _string)
        if task is None:
            task = declared
        elif declared != task:
            raise SchemaViolation(
                "$.task", f"scenario declares {declared!r}, command runs {task!r}"
            )
        if task not in _HANDLERS:
            raise SchemaViolation("$.task", f"unknown task {task!r}")
        payload = _get(doc, "payload", "$", _object)
        outputs, passed, tolerances, csvs = _HANDLERS[task](payload, units, tol)
        _scan_finite(outputs)
    except SchemaViolation as exc:
        click.echo(f"error: invalid scenario: {exc}", err=True)
        return 3
    except (ContractError, ShapeError) as exc:
        click.echo(f"error: contract violation: {exc}", err=True)
        return 3
    except (NumericHealthError, NonDiagonalizable) as exc:
        click.echo(f"error: numeric health: {exc}", err=True)
        return 5

    csv_names = []
    target_dir = Path(csv_dir) if csv_dir else (Path(out).parent if out else Path("."))
    for name in sorted(csvs):
        target_dir.mkdir(parents=True, exist_ok=True)
        _atomic_write(target_dir / (csv_prefix + name), csvs[name])
        csv_names.append(csv_prefix + name)

    report = {
        "task": task,
        "input_sha256": hashlib.sha256(raw).hexdigest(),
        "units": units,
        "outputs": outputs,
        "tolerances": {k: float(v) for k, v in tolerances.items()},
        "pass": bool(passed),
        "csv_files": csv_names,
    }
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out:
        out_path = Path(out)
        if out_path.parent != Path(""):
            out_path.parent.mkdir(parents=True, exist_ok=True)
        _atomic_write(out_path, text)
    else:
        click.echo(text, nl=False)
    return 0 if passed else 4


@click.group()
def main():
    """Scenario-driven checks for reversible-computing thermodynamics."""
    # stderr carries at most the error line: no warnings while a command runs
    click.get_current_context().with_resource(warnings.catch_warnings())
    warnings.simplefilter("ignore")


def _register(task_name: str):
    @click.option("--csv-dir", default=None, help="Directory for CSV side files.")
    @click.option("--tol", default=None, type=float, help="Task-specific tolerance override.")
    @click.option("--units", default="nats", help="Entropy units: nats or bits.")
    @click.option("--out", default=None, help="Write the JSON report here instead of stdout.")
    @click.option("--scenario", required=True, help="Scenario JSON file.")
    def cmd(scenario, out, units, tol, csv_dir):
        sys.exit(_invoke(task_name, scenario, out, units, tol, csv_dir))

    cmd.__name__ = task_name.replace("-", "_")
    cmd.__doc__ = f"Run a {task_name} scenario file."
    main.command(name=task_name)(cmd)


for _task in _HANDLERS:
    _register(_task)


@main.command(name="batch")
@click.option("--scenario", "scenarios", multiple=True, required=True, help="Scenario JSON file (repeatable).")
@click.option("--out-dir", default=".", help="Directory for per-scenario reports and CSVs.")
@click.option("--units", default="nats", help="Entropy units: nats or bits.")
@click.option("--tol", default=None, type=float, help="Task-specific tolerance override.")
def batch(scenarios, out_dir, units, tol):
    """Run several scenario files; exit with the worst individual code."""
    worst = 0
    for path in scenarios:
        stem = Path(path).stem
        code = _invoke(
            None,
            path,
            str(Path(out_dir) / f"{stem}.report.json"),
            units,
            tol,
            out_dir,
            csv_prefix=f"{stem}_",
        )
        click.echo(f"{path}: exit {code}")
        worst = max(worst, code)
    sys.exit(worst)


if __name__ == "__main__":
    main()
