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

__all__ = [
    "StochasticOp", "deterministic_op", "ContextualizedComputation", "is_deterministic",
    "is_reversible", "is_entropy_ejecting", "computational_entropy_delta",
    "check_traditional_theorem", "check_generalized_theorem", "landauer_cost_oblivious_erasure",
    "total_variation", "implements", "ROW_SUM_TOL", "SUPPORT_TOL", "DELTA_H_TOL", "IMPLEMENTS_TOL",
]

ROW_SUM_TOL = 1e-12
POINT_MASS_TOL = 1e-12

# Probabilities above this count as "can actually occur".
SUPPORT_TOL = 1e-12

DELTA_H_TOL = 1e-12
IMPLEMENTS_TOL = 1e-9  # implements(): largest total-variation distance of a block-mass row


@dataclass(frozen=True)
class StochasticOp:
    """Row-stochastic map over n_states, defined on a subset of rows."""

    n_states: int
    rows: dict[int, np.ndarray]

    def __post_init__(self):
        """Each row, in dict order, is checked for its index, its length, a
        negative entry and its sum; the first row to fail a check is refused.
        Index and length are walked row by row up to the first failure; the
        entries of the rows before it are checked in one stack."""
        if self.n_states < 0:
            raise ContractError(f"n_states must be nonnegative, got {self.n_states}")
        keys, arrays, misfit = [], [], None
        for i, row in self.rows.items():
            i = int(i)
            if not 0 <= i < self.n_states:
                misfit = ContractError(f"row index {i} outside 0..{self.n_states - 1}")
                break
            r = np.asarray(row, dtype=float).reshape(-1)
            if r.size != self.n_states:
                misfit = ShapeError(f"row {i} has length {r.size}, expected {self.n_states}")
                break
            keys.append(i)
            arrays.append(r)
        stack = np.array(arrays) if arrays else np.empty((0, 0))
        # written so that NaN fails both tests; initial lets no row mean no minimum
        negative = ~(stack.min(axis=1, initial=np.inf) >= -ROW_SUM_TOL)
        off_sum = ~(np.abs(stack.sum(axis=1) - 1.0) <= ROW_SUM_TOL)
        failed = np.flatnonzero(negative | off_sum)
        if failed.size:
            k = int(failed[0])
            r = arrays[k]
            if negative[k]:
                raise ContractError(f"row {keys[k]} has negative entry {r.min():.3e}")
            raise ContractError(f"row {keys[k]} sums to {r.sum()!r}")
        if misfit is not None:
            raise misfit
        object.__setattr__(self, "rows", dict(zip(keys, np.clip(stack, 0.0, None))))

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
    # the subset's own rows summed: with no row, no n_states-sized array is made
    reached = sum((op.rows[i] > SUPPORT_TOL for i in subset), 0)
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
    tol: float = IMPLEMENTS_TOL,
) -> bool:
    """Does the unitary realize the operation in the given context?

    For every initial block that actually occurs, the context is
    conditioned on that block, evolved, and the resulting block-mass
    distribution over the output partition is compared row-by-row against
    the operation (total-variation distance <= tol). Output coherences are
    deliberately ignored: only block masses are compared.

    Every block's output masses come from one product,
    1_out^T Re((U pinch(rho)) o conj(U)) 1_in, its columns divided by the
    input masses, and the renormalized occupied blocks are screened for
    qstate.check_density_matrix in one stack per block size. The occupied
    blocks are then walked in block order: the first that lies outside the
    operation's domain, fails the density-matrix check, meets a U that is
    not unitary (checked once, at the first occupied block) or misses its
    row decides.
    """
    if ctx.partition != p_in:
        raise ContractError("context partition differs from the input partition")
    if op.n_states != p_in.n_outcomes or op.n_states != p_out.n_outcomes:
        raise ShapeError(
            f"operation over {op.n_states} states vs partitions with "
            f"{p_in.n_outcomes}/{p_out.n_outcomes} outcomes"
        )
    masses = compmodel.block_masses(ctx.state, p_in)
    blocks = {}
    for cs, stack in compmodel._occupied_stacks(ctx.state, p_in, masses, SUPPORT_TOL):
        blocks.update(zip(cs, zip(stack, qstate._refused_states(stack))))
    flows = None
    for i in sorted(blocks):
        if i not in op.rows:
            raise ContractError(f"occupied block {i} outside the operation domain")
        block, refused = blocks[i]
        if refused:
            qstate.check_density_matrix(block)
        if flows is None:
            d = p_in.dim
            u = qstate.require_unitary(u, d, "operator")
            if p_out.dim != d:
                raise ShapeError(f"state is {(d, d)}, expected {(p_out.dim, p_out.dim)}")
            moved = (u @ compmodel.pinch(ctx.state, p_in) * u.conj()).real
            flows = p_out._indicator.T @ moved @ p_in._indicator
        if total_variation(flows[:, i] / masses[i], op.rows[i]) > tol:
            return False
    return True
