"""Scenario runner: JSON in, deterministic JSON report (plus CSV) out.

Each subcommand handles one task; a scenario file declares its task,
payload, and optional metadata. Reports are byte-stable for identical
inputs: keys are sorted, floats use their shortest round-trip form, no
timestamps or absolute paths are embedded, and the input file is echoed
only as a content hash.

Exit codes: 0 success; 1 scenario file unreadable; 2 malformed JSON;
3 schema or contract violation (field path in the message); 4 a
feasibility or bound check failed, report still emitted; 5 numeric health
failure, a non-finite report number or CSV cell included (no report or CSV
written).

The report text is that of json.dumps(report, sort_keys=True, indent=2),
written in one pass by _report_text. A float array in a report is written
as the nested list of its cells; an object array is text already formatted,
its cells written as they are: a table that is both a CSV file and a report
field is one such array, so each of its floats is formatted once.

Complex matrices are encoded as nested [re, im] pairs, row-major. CSV side
files use '.' decimals, '\\n' line endings, and a mandatory header row.
With --units bits, entropic output fields (entropies and beta-weighted
heat terms) are divided by ln 2; plain energies and free energies are
never rescaled, and all internal computation stays in nats.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import math
import os
import sys
import warnings
from itertools import chain, islice
from json.encoder import encode_basestring_ascii
from pathlib import Path

import click
import numpy as np

from .errors import ContractError, NumericHealthError, ShapeError

LN2 = math.log(2.0)

_UNITS = {"nats": 1.0, "bits": LN2}  # --units: the divisor of entropic outputs

# Cap on the cells of a CSV side file whose rows are a grid's points, the
# trajectory's (1 + 2 d^2 columns) and the sweep's (4): the point count is
# refused above it before the grid is built. At the cap a call took
# 0.6-1.5 s and 100-160 MB of peak memory from decode to write:
# gksl-evolve at d = 2 (111,111 points), 8 and 16 (march route), and
# adiabatic-sweep (250,000 points); x86-64, one BLAS thread.
MAX_CSV_CELLS = 1_000_000

# Cap on gksl-asymptotic's dimension d, refused before the d^2 x d^2
# generator is built. At the cap one decompose call of a generic generator
# (one component) took 1.4-1.7 s and 121 MB of peak memory; time grows as
# d^6 and memory as d^4 (3.8 s and 237 MB at d = 40, 1.49 GiB for the
# generator alone at d = 100); x86-64, one BLAS thread.
MAX_ASYMPTOTIC_DIM = 32

# Cap on landauer's joint dimension d_s * d_e, refused before any unitary or
# joint state is built. At the cap a heat call (d_s = d_e = 32, swap, two
# input states) took 1.0 s and 154 MB of peak memory; time grows as
# (d_s d_e)^3 and memory as (d_s d_e)^2 (6.6 s and 488 MB at 2,025); x86-64,
# one BLAS thread.
MAX_JOINT_DIM = 1024


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


_numbers = _array_of(_number, "numbers")
_indices = _array_of(_int, "indices")
_blocks = _array_of(_indices, "index blocks")


def _decoded(node, shape_ok, leaves) -> np.ndarray | None:
    """node as a float array from one np.array call, or None for the walk.

    The array is taken when shape_ok(array) holds, every leaf in
    leaves(node) is exactly an int or a float (numpy would also take
    booleans and numeric strings) and every value lies strictly inside the
    float range. An int just past the largest float rounds onto it, so a
    value on the bound is left to the walk, which refuses that int.
    """
    try:
        a = np.array(node, dtype=float)
    except (TypeError, ValueError, OverflowError):
        return None
    if (
        shape_ok(a)
        and (np.abs(a) < sys.float_info.max).all()
        and set(map(type, leaves(node))) <= {int, float}
    ):
        return a
    return None


def _vector(node, path) -> np.ndarray:
    """A nonempty array of finite numbers as a float vector: one np.array
    call (_decoded) when that reads it, else the walk of _numbers, which
    names the first bad element."""
    a = _decoded(node, lambda a: a.ndim == 1 and a.size > 0, lambda v: v)
    return a if a is not None else np.array(_numbers(node, path))


def _matrix(node, path) -> np.ndarray:
    """A nonempty row-major array of [re, im] pairs as a complex matrix.

    One np.array call (_decoded) reads it when the result is an (n, m, 2)
    array. Any other input takes the walk below, which names the first bad
    row or cell.
    """
    a = _decoded(
        node,
        lambda a: a.ndim == 3 and a.shape[2] == 2,
        lambda v: chain.from_iterable(chain.from_iterable(v)),
    )
    if a is not None:
        return a.view(complex)[..., 0]
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


def _op(node, path) -> tuple:
    """(n_states, rows by state index): the arguments of compops.StochasticOp."""
    n = _get(node, "n_states", path, _int)
    rows_node = _get(node, "rows", path, _object)
    rows = {}
    for key in rows_node:
        # a state index is below n_states, the length of its row: under 20 digits
        index = int(key) if key.isdecimal() and len(key) <= 20 else None
        if index is None:
            shown = key if len(key) <= 20 else f"{key[:20]}...({len(key)} characters)"
            raise SchemaViolation(f"{path}.rows.{shown}", "row keys must be state indices")
        rows[index] = _get(rows_node, key, f"{path}.rows", _vector)
    return n, rows


def _encode_complex_matrix(m: np.ndarray) -> np.ndarray:
    """The float array of m's [re, im] pairs, one more axis than m."""
    m = np.asarray(m)
    return np.stack((m.real, m.imag), axis=-1)


# -- report plumbing ---------------------------------------------------------


class _NonFinite(NumericHealthError):
    """A non-finite output number: its text, and its report path, which
    gathers its field, innermost part first, as the error passes up through
    _emit, or its CSV file, data row and column."""

    def __init__(self, text: str, path: str):
        super().__init__(text, path)
        self.text, self.path = text, path

    def __str__(self):
        return f"{self.path.removeprefix('.')} is not finite ({self.text})"


def _float_text(cells: np.ndarray, where=lambda i: ""):
    """float.__repr__ of each cell of a float array in C order, as an
    iterator: the one place a float becomes output text. A non-finite cell
    raises _NonFinite at where(i), i its flat index, before any text is made."""
    finite = np.isfinite(cells)
    if not finite.all():
        i = int(np.flatnonzero(~finite)[0])
        raise _NonFinite(float.__repr__(cells.flat[i]), where(i))
    return map(float.__repr__, cells.ravel().tolist())


def _emit_array(a: np.ndarray, newline: str, out: list):
    """_emit of an array as a nested list: the cells of an object array as
    the text they are, those of a float array through one _float_text pass,
    then each axis joined from the innermost out."""
    if not a.size:
        _emit(a.tolist(), newline, out)
        return
    if a.dtype == object:
        text = a.ravel().tolist()
    else:
        text = list(_float_text(
            a, lambda i: "".join(f"[{k}]" for k in np.unravel_index(i, a.shape))
        ))
    for axis in range(a.ndim - 1, -1, -1):
        inner, n = newline + "  " * (axis + 1), a.shape[axis]
        close = inner[:-2] + "]"
        sep = "," + inner
        text = ["[" + inner + sep.join(text[i : i + n]) + close for i in range(0, len(text), n)]
    out.append(text[0])


def _emit(node, newline: str, out: list):
    """Append node's text in the layout of json.dumps(sort_keys=True,
    indent=2) to out; newline is a line break plus the indent of node's
    level, and its items go two spaces deeper. An array is written as the
    nested list of its cells (_emit_array). A non-finite float raises
    _NonFinite, which names its path."""
    if isinstance(node, str):
        out.append(encode_basestring_ascii(node))
    elif node is None:
        out.append("null")
    elif node is True:
        out.append("true")
    elif node is False:
        out.append("false")
    elif isinstance(node, int):
        out.append(int.__repr__(node))
    elif isinstance(node, float):
        out.extend(_float_text(np.array([node])))
    elif isinstance(node, (list, tuple)):
        if not node:
            out.append("[]")
            return
        inner = newline + "  "
        separator = "[" + inner
        try:
            for i, value in enumerate(node):
                out.append(separator)
                _emit(value, inner, out)
                separator = "," + inner
        except _NonFinite as exc:
            exc.path = f"[{i}]{exc.path}"
            raise
        out.append(newline + "]")
    elif isinstance(node, dict):
        if not node:
            out.append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        try:
            for key, value in sorted(node.items()):
                out.append(separator + encode_basestring_ascii(key) + ": ")
                _emit(value, inner, out)
                separator = "," + inner
        except _NonFinite as exc:
            exc.path = f".{key}{exc.path}"
            raise
        out.append(newline + "}")
    elif isinstance(node, np.ndarray):
        _emit_array(node, newline, out)
    else:
        raise TypeError(f"Object of type {type(node).__name__} is not JSON serializable")


def _report_text(report: dict) -> str:
    """json.dumps(report, sort_keys=True, indent=2) + "\n", written in one
    pass, arrays as nested lists; a non-finite float raises a
    NumericHealthError that names its path."""
    out = []
    _emit(report, "\n", out)
    out.append("\n")
    return "".join(out)


def _csv_cell(name: str, header: str, row: int, column: int) -> str:
    return f"{name} data row {row + 1}, column {header.split(',')[column]}"


def _csv_text(header: str, rows) -> str:
    """The text of a CSV file: the header, then each row's cell texts."""
    return "\n".join([header, *map(",".join, rows)]) + "\n"


def _table_text(name: str, header: str, cells: np.ndarray):
    """_float_text of a float table's cells, a non-finite one named by its
    data row and column of CSV file name."""
    k = header.count(",") + 1
    return _float_text(cells, lambda i: _csv_cell(name, header, *divmod(i, k)))


def _csv_table(name: str, header: str, rows) -> str:
    """The text of CSV file name: header, then the float table rows; a
    non-finite cell raises _NonFinite naming its data row and column. Each
    cell's text lives only until its row is joined."""
    k = header.count(",") + 1
    cells = np.asarray(rows, dtype=float)
    text = _table_text(name, header, cells)
    return _csv_text(header, (islice(text, k) for _ in range(cells.size // k)))


@functools.lru_cache(maxsize=8)
def _trajectory_layout(d: int):
    """The trajectory CSV header for d x d states, then the columns of the
    re cells of the entries below the diagonal and of their mirrors above
    it. Both indices of a column name are padded to the width of d - 1, so
    each name is distinct: re_0011 and re_1101 at d = 12."""
    w = len(str(d - 1))
    header = "t," + ",".join(f"re_{i:0{w}}{j:0{w}},im_{i:0{w}}{j:0{w}}"
                             for i in range(d) for j in range(d))
    i, j = np.tril_indices(d, -1)
    columns = 1 + 2 * (i * d + j), 1 + 2 * (j * d + i)
    for a in columns:
        a.flags.writeable = False  # shared between calls
    return header, *columns


def _trajectory_cells(times: np.ndarray, states: np.ndarray) -> tuple[str, np.ndarray]:
    """The header of trajectory.csv and the text of its cells, an object
    array: rows t, then re, im of every entry of each state in row-major order.

    States are Hermitian, and formatting is the floor of the table, so a
    cell below the diagonal reuses the text of its mirror when that gives
    the same bytes: the re cell when both hold one value with one sign bit,
    the im cell, sign flipped, when it holds the mirror's negation with the
    other sign bit (a NaN never does either). Only the times, the entries on
    and above the diagonal and the lower cells that match neither way, such
    as an im pair of +0.0 and +0.0, reach _float_text.
    """
    n, d = states.shape[:2]
    header, lower, mirror = _trajectory_layout(d)
    table = np.column_stack((times, states.reshape(n, d * d).view(float)))
    re, re_mirror = table[:, lower], table[:, mirror]
    im, im_mirror = table[:, lower + 1], table[:, mirror + 1]
    same = (re == re_mirror) & (np.signbit(re) == np.signbit(re_mirror))
    flipped = (im == -im_mirror) & (np.signbit(im) != np.signbit(im_mirror))
    fresh = np.ones(table.shape, dtype=bool)
    fresh[:, lower], fresh[:, lower + 1] = ~same, ~flipped
    text = np.empty(table.shape, dtype=object)
    text[fresh] = list(_float_text(
        table[fresh], lambda i: _csv_cell("trajectory.csv", header, *np.argwhere(fresh)[i])
    ))
    text[:, lower] = np.where(same, text[:, mirror], text[:, lower])
    r, k = np.nonzero(flipped)
    text[r, lower[k] + 1] = [c[1:] if c[0] == "-" else "-" + c for c in text[r, mirror[k] + 1]]
    return header, text


def _write_all(files: list):
    """Write each (path, text) of one call: every text to a temporary file
    beside its path first, then each renamed into place. When a write or a
    rename fails, the temporary files and the outputs already renamed are
    removed before the error is raised, so a call leaves all its outputs or
    none."""
    staged, placed = [], []
    try:
        for path, text in files:
            path.parent.mkdir(parents=True, exist_ok=True)
            staged.append(path.with_name(path.name + ".tmp"))
            staged[-1].write_text(text)
        for tmp, (path, _) in zip(staged, files):
            os.replace(tmp, path)
            placed.append(path)
    except OSError:
        for leftover in staged + placed:
            with contextlib.suppress(OSError):
                leftover.unlink()
        raise


# -- task handlers -----------------------------------------------------------
# Each takes (payload, entropy divisor of --units, --tol) and returns
# (outputs, passed, tolerances, csv side files name -> text). It reads every
# field, caps and conventions included, as plain data before its first library
# call, so a schema error wins and costs no compute; and it imports only the
# library modules it calls, so a process loads only those of its task.


def _handle_classify(payload, div, tol):
    from . import compops
    n, rows = _op(payload, "payload")
    over = _get(payload, "over", "payload", _indices, None)
    dist = _get(payload, "input_dist", "payload", _vector, None)
    op = compops.StochasticOp(n, rows)
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


def _handle_entropy_decompose(payload, div, tol):
    from . import compmodel
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
        "distribution": compmodel.computational_distribution(ctx),
    }
    tolerances = {"identity_residual": 1e-9}
    return outputs, bool(residual <= tolerances["identity_residual"]), tolerances, {}


def _handle_implements_check(payload, div, tol):
    from . import compmodel, compops
    u = _get(payload, "unitary", "payload", _matrix)
    state = _get(payload, "state", "payload", _matrix)
    in_blocks = _get(payload, "p_in_blocks", "payload", _blocks)
    out_blocks = _get(payload, "p_out_blocks", "payload", _blocks, None)
    n, rows = _get(payload, "op", "payload", _op)
    d = state.shape[0]
    p_in = compmodel.BasisPartition(d, in_blocks)
    p_out = compmodel.BasisPartition(d, out_blocks) if out_blocks is not None else p_in
    op = compops.StochasticOp(n, rows)
    ctx = compmodel.QuantumContext(state, p_in)
    tv_tol = tol if tol is not None else compops.IMPLEMENTS_TOL
    ok = compops.implements(u, p_in, p_out, op, ctx, tol=tv_tol)
    return {"implements": ok}, ok, {"total_variation": tv_tol}, {}


def _reset_unitary(node, path, d_s, d_e):
    """The unitary's matrix, or the channels call that builds it, deferred."""
    from . import channels
    matrix = _get(node, "matrix", path, _matrix, None)
    if matrix is not None:
        return matrix
    swap = _get(node, "swap", path, _bool, None)
    if swap is not None:
        if not swap:
            raise SchemaViolation(f"{path}.swap", "must be true when present")
        if d_s != d_e:
            raise SchemaViolation(f"{path}.swap",
                                  f"swap needs equal dimensions, got {d_s} and {d_e}")
        return functools.partial(channels.swap_unitary, d_s)
    pairs = _get(node, "transpositions", path, _array, None)
    if pairs is None:
        raise SchemaViolation(path, "expected one of: matrix, swap, transpositions")
    for i, pair in enumerate(pairs):
        if not (isinstance(pair, list) and len(pair) == 2 and all(map(_is_int, pair))):
            raise SchemaViolation(f"{path}.transpositions[{i}]", "expected an [i, j] index pair")
    return functools.partial(channels.basis_transposition, d_s * d_e, pairs)


def _weighted_state(node, path) -> tuple:
    return _get(node, "p", path, _number), _get(node, "state", path, _matrix)


def _handle_landauer(payload, div, tol):
    from . import channels, qstate
    mode = _get(payload, "mode", "payload", _string)
    if mode not in ("conditional", "unconditional"):
        raise SchemaViolation("payload.mode", f"unknown mode {mode!r}")
    states = _get(payload, "states", "payload", _array_of(_weighted_state, "states"))
    target = _get(payload, "target", "payload", _matrix)
    h_e = _get(payload, "env_hamiltonian", "payload", _matrix)
    beta = _get(payload, "beta", "payload", _number)
    d_s, d_e = states[0][1].shape[0], h_e.shape[0]
    if d_s * d_e > MAX_JOINT_DIM:
        raise SchemaViolation(
            "payload.env_hamiltonian",
            f"joint dimension {d_s} x {d_e} = {d_s * d_e} exceeds the cap of {MAX_JOINT_DIM}",
        )
    unitaries = [
        _reset_unitary(node, f"payload.unitaries[{i}]", d_s, d_e)
        for i, node in enumerate(_get(payload, "unitaries", "payload", _array))
    ]
    heat = _get(payload, "heat", "payload", _bool, False)
    if heat and len(unitaries) != 1:
        raise SchemaViolation("payload.heat", "heat analysis needs a single shared unitary")
    env_ctx = qstate.ThermoContext(qstate.Hamiltonian(h_e), beta)
    unitaries = tuple(u() if callable(u) else u for u in unitaries)
    scenario = channels.ResetScenario(
        states=tuple(states), target=target, env_ctx=env_ctx, mode=mode, unitaries=unitaries
    )
    if heat:
        sim, split = channels.reset_heat(scenario)
    else:
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
    if heat:
        jensen = channels.jensen_heat_bound(split["mgf"], env_ctx.temperature)
        decomp = split["decomposition"]
        identity_residual = abs(sum(decomp.values()))
        outputs["heat"] = {
            "mgf": split["mgf"],
            "jensen_bound": jensen / div,
            "decomposition": {k: v / div for k, v in decomp.items()},
            "identity_residual": identity_residual / div,
            "partovi": split["partovi"],
        }
        tolerances["heat_identity"] = 1e-9
        passed = bool(
            passed
            and split["partovi"]
            and identity_residual <= tolerances["heat_identity"]
            and jensen <= sim["average_delta_e"] + channels.BOUND_TOL
        )
    return outputs, passed, tolerances, {}


def _handle_thermo_check(payload, div, tol):
    from . import resource
    p_in = _get(payload, "p_in", "payload", _vector)
    p_out = _get(payload, "p_out", "payload", _vector)
    energies = _get(payload, "energies", "payload", _vector)
    beta = _get(payload, "beta", "payload", _number)
    convention = _get(payload, "convention", "payload", _string, "paper")
    if convention not in ("paper", "standard"):
        raise SchemaViolation("payload.convention", f"unknown convention {convention!r}")
    curve_in = resource.thermomaj_curve(p_in, energies, beta, convention)
    curve_out = resource.thermomaj_curve(p_out, energies, beta, convention)
    feasible = curve_in.majorizes(curve_out)
    outputs = {
        "feasible": feasible,
        "convention": convention,
        "partition_weight": curve_in.partition_weight,
    }
    csvs = {}
    # each curve's (n, 2) points are formatted once: the CSV's rows are the report's
    for key, curve in (("curve_in", curve_in), ("curve_out", curve_out)):
        name = f"{key}.csv"
        text = np.array(list(_table_text(name, "x,y", curve.points)), dtype=object).reshape(-1, 2)
        outputs[key], csvs[name] = text, _csv_text("x,y", text.tolist())
    return outputs, feasible, {"feasibility": resource.FEASIBILITY_TOL}, csvs


def _handle_cto_check(payload, div, tol):
    from . import qstate, resource
    rho_in = _get(payload, "rho_in", "payload", _matrix)
    rho_out = _get(payload, "rho_out", "payload", _matrix)
    h = _get(payload, "hamiltonian", "payload", _matrix)
    beta = _get(payload, "beta", "payload", _number)
    qmi = _get(payload, "qmi_budget", "payload", _number)
    cycle = _get(payload, "cycle", "payload", _bool, False)
    alphas = None
    if _get(payload, "second_laws", "payload", _bool, False):
        alphas = _get(payload, "alphas", "payload", _vector, resource.DEFAULT_ALPHA_GRID)
    ctx = qstate.ThermoContext(qstate.Hamiltonian(h), beta)
    if cycle:
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
    if alphas is not None:
        ok, margins = resource.second_laws_check(rho_in, rho_out, ctx, alphas)
        outputs["second_laws"] = {
            "pass": ok,
            "margins": dict(zip(_float_text(np.array(list(margins))), margins.values())),
        }
        passed = bool(passed and ok)
    return outputs, passed, tolerances, {}


def _jump(node, path) -> tuple:
    return _get(node, "operator", path, _matrix), _get(node, "rate", path, _number)


def _lindbladian(payload) -> tuple:
    """The hamiltonian and the (operator, rate) jumps of a gksl.Lindbladian."""
    h = _get(payload, "hamiltonian", "payload", _matrix)
    jumps = _get(payload, "jumps", "payload", _array, [])
    return h, tuple(_jump(node, f"payload.jumps[{i}]") for i, node in enumerate(jumps))


def _cesaro(node, path) -> tuple:
    return _get(node, "horizon", path, _number), _get(node, "samples", path, _int)


def _grid_cap(path, n, columns):
    """Refuse n points of a CSV table with columns cells per row above MAX_CSV_CELLS."""
    if n * columns > MAX_CSV_CELLS:
        raise SchemaViolation(
            path,
            f"{n} points exceed the cap of {MAX_CSV_CELLS // columns} "
            f"({MAX_CSV_CELLS} CSV cells at {columns} per point)",
        )


def _times(d):
    """Kind for the times of d x d states: {"t_max": T, "n": N} for an even
    grid on [0, T], or an explicit list, within the trajectory CSV's cap."""
    columns = 1 + 2 * d * d

    def read(node, path):
        if not isinstance(node, dict):
            if isinstance(node, list):
                _grid_cap(path, len(node), columns)
            return _vector(node, path)
        t_max = _get(node, "t_max", path, _number)
        n = _get(node, "n", path, _int)
        if n < 1:
            raise SchemaViolation(f"{path}.n", "need at least one point")
        _grid_cap(f"{path}.n", n, columns)
        return np.linspace(0.0, t_max, n)

    return read


def _handle_gksl_evolve(payload, div, tol):
    from . import compmodel, gksl, qstate
    h, jumps = _lindbladian(payload)
    state = _get(payload, "state", "payload", _matrix)
    times = _get(payload, "times", "payload", _times(h.shape[0]))
    blocks = _get(payload, "blocks", "payload", _blocks, None)
    n = len(times)
    if blocks is not None:
        # one pass along the sorted times serves the trajectory and the resolving time
        times = np.append(times, _get(payload, "t_resolve", "payload", _number))
    l = gksl.Lindbladian(qstate.Hamiltonian(h), jumps)
    partition = compmodel.BasisPartition(l.dim, blocks) if blocks is not None else None
    states = gksl.trajectory(l, state, times)
    trajectory = states[:n]
    max_drift = np.abs(np.trace(trajectory, axis1=1, axis2=2).real - 1.0).max()
    outputs = {"n_points": n, "max_trace_drift": float(max_drift)}
    passed = True
    tolerances = {"trace": gksl.TRAJECTORY_TRACE_TOL}
    if blocks is not None:
        check = gksl.dephasing_check(partition, state, states[-1])
        outputs["dephasing"] = {
            "residual_coherence": check["residual_coherence"],
            "classical": check["classical"],
        }
        tolerances["dephased_fraction"] = gksl.DEPHASED_FRACTION
        passed = check["classical"]
    header, text = _trajectory_cells(times[:n], trajectory)
    # the final state is the trajectory's last row: its text is the CSV's
    d = trajectory.shape[1]
    outputs["final_state"] = text[-1, 1:].reshape(d, d, 2)
    return outputs, passed, tolerances, {"trajectory.csv": _csv_text(header, text.tolist())}


def _handle_gksl_asymptotic(payload, div, tol):
    from . import gksl, qstate
    h, jumps = _lindbladian(payload)
    d = h.shape[0]
    if d > MAX_ASYMPTOTIC_DIM:
        raise SchemaViolation(
            "payload.hamiltonian", f"dimension {d} exceeds the cap of {MAX_ASYMPTOTIC_DIM}"
        )
    dec_tol = _get(payload, "tol", "payload", _number, None)
    cesaro = _get(payload, "cesaro", "payload", _cesaro, None)
    state = _get(payload, "state", "payload", _matrix, None)
    if state is not None:
        h_inf = _get(payload, "h_inf", "payload", _matrix, np.zeros((d, d), dtype=complex))
        s = _get(payload, "s", "payload", _number, 0.0)
    l = gksl.Lindbladian(qstate.Hamiltonian(h), jumps)
    dec = gksl.decompose(l, dec_tol)
    evals = dec.eigenvalues
    outputs = {
        # [re, im] rows ascending by re, then im: a stable sort, as sorted's
        "eigenvalues": _encode_complex_matrix(evals[np.lexsort((evals.imag, evals.real))]),
        "n_asymptotic": len(dec.asymptotic_indices),
        "p_a_rank": int(round(float(np.real(np.trace(dec.p_a))))),
        "asymptotic_frequencies": dec.asymptotic_frequencies,
        "spectral_fallback": dec.route == "nullspace",
    }
    passed = True
    tolerances = {"asymptotic_re": dec.tol}
    if cesaro is not None:
        dist = gksl.cesaro_distance(l, *cesaro, dec)
        gate = tol if tol is not None else 1e-4
        outputs["cesaro_distance"] = dist
        tolerances["cesaro_agreement"] = gate
        passed = bool(dist <= gate)
    if state is not None:
        final = gksl.asymptotic_evolution(dec, state, qstate.Hamiltonian(h_inf), s)
        outputs["asymptotic_state"] = _encode_complex_matrix(final)
    return outputs, passed, tolerances, {}


def _handle_adiabatic_sweep(payload, div, tol):
    from . import adiabatic
    fields = {k: _get(payload, k, "payload", _number) for k in ("e_sig", "tau_r", "tau_e")}
    fields.update({k: _get(payload, k, "payload", _number, 1.0) for k in ("c_sw", "c_lk")})
    t_min = _get(payload, "t_min", "payload", _number)
    t_max = _get(payload, "t_max", "payload", _number)
    n_points = _get(payload, "n_points", "payload", _int)
    _grid_cap("payload.n_points", n_points, 4)
    c = _get(payload, "efficiency_c", "payload", _number, None)
    params = adiabatic.AdiabaticParams(**fields)
    table = adiabatic.sweep(params, t_min, t_max, n_points)
    opt = adiabatic.optimal_ttr(params)
    floor = adiabatic.min_e_diss(params)
    at_opt = adiabatic.e_diss(params, opt)
    grid_min = float(table[:, 3].min())
    outputs = {
        "optimal_ttr": float(opt),
        "min_e_diss": float(floor),
        "e_diss_at_optimum": float(at_opt),
        "grid_min": grid_min,
        "n_points": int(n_points),
    }
    if c is not None:
        outputs["efficiency_bound"] = float(adiabatic.efficiency_bound(params, c))
    tolerances = {"optimum_identity": 1e-12, "grid_floor": 1e-9}
    closed_form_ok = abs(at_opt - floor) <= tolerances["optimum_identity"] * max(1.0, floor)
    passed = bool(closed_form_ok and grid_min >= floor - tolerances["grid_floor"])
    csvs = {"sweep.csv": _csv_table("sweep.csv", "t_tr,e_sw,e_lk,e_diss", table)}
    return outputs, passed, tolerances, csvs


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
    # malformed input: bad syntax or UTF-8, nesting past the recursion limit, or
    # an integer literal over int()'s digit limit, the one bare ValueError,
    # whose own message is a how-to for raising the limit
    except (ValueError, RecursionError) as exc:
        reason = "integer literal too long" if type(exc) is ValueError else exc
        click.echo(f"error: malformed JSON: {reason}", err=True)
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
        outputs, passed, tolerances, csvs = _HANDLERS[task](payload, _UNITS[units], tol)
        report = {
            "task": task,
            "input_sha256": hashlib.sha256(raw).hexdigest(),
            "units": units,
            "outputs": outputs,
            "tolerances": {k: float(v) for k, v in tolerances.items()},
            "pass": bool(passed),
            "csv_files": [csv_prefix + name for name in sorted(csvs)],
        }
        text = _report_text(report)
    except SchemaViolation as exc:
        click.echo(f"error: invalid scenario: {exc}", err=True)
        return 3
    except (ContractError, ShapeError) as exc:
        click.echo(f"error: contract violation: {exc}", err=True)
        return 3
    except NumericHealthError as exc:
        click.echo(f"error: numeric health: {exc}", err=True)
        return 5

    target_dir = Path(csv_dir) if csv_dir else (Path(out).parent if out else Path("."))
    files = [(target_dir / (csv_prefix + name), csvs[name]) for name in sorted(csvs)]
    if out:
        files.append((Path(out), text))
    try:
        _write_all(files)
    except OSError as exc:
        click.echo(f"error: cannot write output: {exc}", err=True)
        return 1
    if not out:
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
    # each scenario's outputs are named by its stem, so two files with one
    # stem would overwrite each other's report and CSVs
    first = {}
    for path in scenarios:
        stem = Path(path).stem
        if stem in first:
            raise click.BadParameter(
                f"{first[stem]} and {path} share the stem {stem!r}; "
                "their outputs would overwrite each other",
                param_hint="'--scenario'",
            )
        first[stem] = path
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
