"""Classical computational operations and their reversibility structure.

An operation is a row-stochastic matrix over computational states, with a
possibly partial domain. Determinism, (conditional) reversibility, and
entropy ejection are predicates on that matrix; the two theorem checkers
tie non-ejection to injectivity, unconditionally and relative to the
support of an input distribution. implements() decides whether a unitary,
acting on a statistical operating context, realizes a given operation at
the level of block-mass distributions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import compmodel, qstate
from .errors import ContractError, ShapeError

ROW_SUM_TOL = 1e-12
POINT_MASS_TOL = 1e-12

# Probabilities above this count as "can actually occur".
SUPPORT_TOL = 1e-12

DELTA_H_TOL = 1e-12


@dataclass(frozen=True)
class StochasticOp:
    """Row-stochastic map over n_states, defined on a subset of rows."""

    n_states: int
    rows: dict[int, np.ndarray]

    def __post_init__(self):
        clean: dict[int, np.ndarray] = {}
        for i, row in self.rows.items():
            i = int(i)
            if not 0 <= i < self.n_states:
                raise ContractError(f"row index {i} outside 0..{self.n_states - 1}")
            r = np.asarray(row, dtype=float).reshape(-1)
            if r.size != self.n_states:
                raise ShapeError(f"row {i} has length {r.size}, expected {self.n_states}")
            # written so that NaN fails both tests
            if not r.min() >= -ROW_SUM_TOL:
                raise ContractError(f"row {i} has negative entry {r.min():.3e}")
            if not abs(r.sum() - 1.0) <= ROW_SUM_TOL:
                raise ContractError(f"row {i} sums to {r.sum()!r}")
            clean[i] = np.clip(r, 0.0, None)
        object.__setattr__(self, "rows", clean)

    @property
    def domain(self) -> tuple[int, ...]:
        return tuple(sorted(self.rows))


def deterministic_op(n_states: int, mapping) -> StochasticOp:
    """Build the point-mass operation i -> mapping[i].

    mapping is a dict (partial domains allowed) or a full-length sequence.
    """
    if not isinstance(mapping, dict):
        mapping = dict(enumerate(mapping))
    rows = {}
    for i, j in mapping.items():
        row = np.zeros(n_states)
        row[int(j)] = 1.0
        rows[int(i)] = row
    return StochasticOp(n_states, rows)


def identity_op(n_states: int) -> StochasticOp:
    return deterministic_op(n_states, range(n_states))


@dataclass(frozen=True)
class ContextualizedComputation:
    """An operation together with a distribution over its initial states."""

    op: StochasticOp
    input_dist: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.input_dist, dtype=float).reshape(-1)
        if p.size != self.op.n_states:
            raise ShapeError(f"distribution length {p.size} vs {self.op.n_states} states")
        p = qstate.require_distribution(p, "input_dist")
        missing = [i for i in range(p.size) if p[i] > SUPPORT_TOL and i not in self.op.rows]
        if missing:
            raise ContractError(f"input support {missing} outside the operation domain")
        object.__setattr__(self, "input_dist", p)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, pi in enumerate(self.input_dist) if pi > SUPPORT_TOL)


def _resolve_subset(op: StochasticOp, over) -> tuple[int, ...]:
    if over is None:
        return op.domain
    subset = tuple(sorted(int(i) for i in over))
    if len(set(subset)) != len(subset):
        raise ContractError(f"subset {list(subset)} repeats an index")
    outside = [i for i in subset if i not in op.rows]
    if outside:
        raise ContractError(f"subset {outside} outside the operation domain")
    return subset


def is_deterministic(op: StochasticOp, over=None) -> bool:
    """True iff every considered row is a point distribution."""
    subset = _resolve_subset(op, over)
    return all(op.rows[i].max() >= 1.0 - POINT_MASS_TOL for i in subset)


def is_reversible(op: StochasticOp, over=None) -> bool:
    """Merge-free test: no final state is reachable from two initial states.

    With `over`, reachability is restricted to the given initial subset
    (conditional reversibility). Stochastic operations can pass: splitting
    one state across several final states merges nothing.
    """
    subset = _resolve_subset(op, over)
    reached = np.zeros(op.n_states, dtype=int)
    for i in subset:
        reached += op.rows[i] > SUPPORT_TOL
    return bool(np.all(reached <= 1))


def is_entropy_ejecting(op: StochasticOp) -> bool:
    """True iff some input distribution forces entropy out of the
    computational state.

    Defined for deterministic operations, where it is exactly the existence
    of a merge: two domain states with the same image.
    """
    if not is_deterministic(op):
        raise ContractError("entropy-ejection predicate requires a deterministic op")
    images = [int(np.argmax(op.rows[i])) for i in op.domain]
    return len(set(images)) < len(images)


def computational_entropy_delta(c: ContextualizedComputation) -> tuple[float, float]:
    """(Delta H_C, minimal non-computational entropy increase), in nats.

    The pushforward distribution is P_out = P_in . rows; any drop in
    computational entropy must reappear non-computationally, so the floor
    is max(0, -Delta H_C).
    """
    p_in = c.input_dist
    p_out = np.zeros(c.op.n_states)
    for i, pi in enumerate(p_in):
        if pi > 0.0 and i in c.op.rows:
            p_out += pi * c.op.rows[i]
    delta_h = qstate.shannon_entropy(p_out) - qstate.shannon_entropy(p_in)
    return float(delta_h), max(0.0, -float(delta_h))


def check_traditional_theorem(op: StochasticOp) -> bool:
    """Non-ejecting <=> unconditionally reversible, for deterministic ops."""
    return (not is_entropy_ejecting(op)) == is_reversible(op)


def check_generalized_theorem(c: ContextualizedComputation) -> bool:
    """Entropy conservation <=> reversibility over the occupied states."""
    if not is_deterministic(c.op):
        raise ContractError("theorem predicate requires a deterministic op")
    delta_h, _ = computational_entropy_delta(c)
    return (delta_h >= -DELTA_H_TOL) == is_reversible(c.op, over=c.support)


def landauer_cost_oblivious_erasure(joint) -> float:
    """Mutual information I(X;Y) of a joint distribution, in nats.

    Obliviously erasing Y while X stays behind, then letting the ejected
    entropy thermalize, raises total entropy by exactly the correlation
    information I(X;Y) = H(X) + H(Y) - H(X,Y).
    """
    j = np.asarray(joint, dtype=float)
    if j.ndim != 2:
        raise ShapeError("joint distribution must be a matrix")
    j = qstate.require_distribution(j, "joint")
    h_x = qstate.shannon_entropy(j.sum(axis=1))
    h_y = qstate.shannon_entropy(j.sum(axis=0))
    h_xy = qstate.shannon_entropy(j.reshape(-1))
    return h_x + h_y - h_xy


def total_variation(p, q) -> float:
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return 0.5 * float(np.abs(p - q).sum())


def implements(
    u,
    p_in: compmodel.BasisPartition,
    p_out: compmodel.BasisPartition,
    op: StochasticOp,
    ctx: compmodel.QuantumContext,
    tol: float = 1e-9,
) -> bool:
    """Does the unitary realize the operation in the given context?

    For every initial block that actually occurs, the context is
    conditioned on that block, evolved, and the resulting block-mass
    distribution over the output partition is compared row-by-row against
    the operation (total-variation distance <= tol). Output coherences are
    deliberately ignored: only block masses are compared.
    """
    if ctx.partition != p_in:
        raise ContractError("context partition differs from the input partition")
    if op.n_states != p_in.n_outcomes or op.n_states != p_out.n_outcomes:
        raise ShapeError(
            f"operation over {op.n_states} states vs partitions with "
            f"{p_in.n_outcomes}/{p_out.n_outcomes} outcomes"
        )
    masses = compmodel.block_masses(ctx.state, p_in)
    for i, mass in enumerate(masses):
        if mass <= SUPPORT_TOL:
            continue
        if i not in op.rows:
            raise ContractError(f"occupied block {i} outside the operation domain")
        restricted = compmodel.restrict_context(ctx, i)
        evolved = qstate.evolve_unitary(restricted.state, u)
        out_masses = compmodel.block_masses(evolved, p_out)
        if total_variation(out_masses, op.rows[i]) > tol:
            return False
    return True
