"""Computational state spaces as basis partitions.

A computer's Hilbert space carries a distinguished orthonormal basis whose
elements each belong to exactly one computational state. A BasisPartition
records that assignment as disjoint index sets, with every unassigned index
collected into an implicit catch-all block. States that are block-diagonal
with respect to the partition are the statistical operating contexts; their
total entropy splits exactly into a classical part (over block masses) and
a non-computational part (within blocks).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qlinalg, qstate
from .errors import ContractError

BLOCK_DIAG_RTOL = 1e-10

# Block probabilities below this are treated as unoccupied.
MASS_TOL = 1e-12


@dataclass(frozen=True)
class BasisPartition:
    """Disjoint index blocks over a basis of size dim.

    blocks lists the per-computational-state index sets; the catch-all
    block (all unassigned indices) is exposed as b_perp and participates
    as a regular outcome whenever it is nonempty.
    """

    dim: int
    blocks: tuple[tuple[int, ...], ...]

    def __init__(self, dim: int, blocks):
        object.__setattr__(self, "dim", int(dim))
        object.__setattr__(
            self, "blocks", tuple(tuple(int(i) for i in b) for b in blocks)
        )
        seen: set[int] = set()
        for b in self.blocks:
            if len(b) == 0:
                raise ContractError("empty block; omit it instead")
            for i in b:
                if not 0 <= i < self.dim:
                    raise ContractError(f"index {i} outside basis of size {self.dim}")
                if i in seen:
                    raise ContractError(f"index {i} appears in two blocks")
                seen.add(i)

    @property
    def b_perp(self) -> tuple[int, ...]:
        assigned = {i for b in self.blocks for i in b}
        return tuple(i for i in range(self.dim) if i not in assigned)

    @property
    def outcome_blocks(self) -> tuple[tuple[int, ...], ...]:
        """blocks plus the catch-all, when the catch-all is nonempty."""
        perp = self.b_perp
        return self.blocks + ((perp,) if perp else ())

    @property
    def n_outcomes(self) -> int:
        return len(self.outcome_blocks)


def offblock_norm(a, partition: BasisPartition) -> float:
    """Hilbert-Schmidt mass of all entries outside the diagonal blocks."""
    a = qlinalg.as_square(a, partition.dim, "operator")
    return qlinalg.hs_norm(a - pinch(a, partition))


def pinch(a, partition: BasisPartition) -> np.ndarray:
    """Zero every cross-block entry (the fully decohered operator)."""
    a = qlinalg.as_square(a, partition.dim, "operator")
    out = np.zeros_like(a)
    for b in partition.outcome_blocks:
        idx = np.asarray(b)
        out[np.ix_(idx, idx)] = a[np.ix_(idx, idx)]
    return out


def validate_block_diagonal(rho, partition: BasisPartition) -> bool:
    """True iff every cross-block entry is negligible relative to ||rho||."""
    rho = qlinalg.as_square(rho, partition.dim, "state")
    gate = BLOCK_DIAG_RTOL * max(1.0, qlinalg.hs_norm(rho))
    off = rho - pinch(rho, partition)
    return bool(np.all(np.abs(off) <= gate))


@dataclass(frozen=True)
class QuantumContext:
    """A state together with the partition it is block-diagonal against."""

    state: np.ndarray
    partition: BasisPartition

    def __post_init__(self):
        rho = qstate.require_state(self.state, self.partition.dim)
        object.__setattr__(self, "state", rho)
        if not validate_block_diagonal(rho, self.partition):
            raise ContractError(
                "state carries cross-block coherence; pinch() it explicitly "
                "if decoherence is intended"
            )


def block_masses(rho, partition: BasisPartition) -> np.ndarray:
    """Diagonal mass in each outcome block (no block-diagonality required)."""
    rho = qlinalg.as_square(rho, partition.dim, "state")
    diag = np.real(np.diag(rho))
    return np.array([diag[list(b)].sum() for b in partition.outcome_blocks])


def computational_distribution(ctx: QuantumContext) -> np.ndarray:
    """P(c_j) = sum of diagonal entries over block j (catch-all included)."""
    # The masses sum to Tr rho, which QuantumContext holds within 1e-10 of 1.
    return np.clip(block_masses(ctx.state, ctx.partition), 0.0, None)


def entropy_decompose(ctx: QuantumContext) -> tuple[float, float, float]:
    """Split S(rho) into (S_total, H_C, S_nc), all in nats.

    H_C is the Shannon entropy of the block-mass distribution; S_nc is the
    mass-weighted entropy of the normalized blocks, the conditional entropy
    of the fine-grained state given the computational outcome. On
    block-diagonal states the identity S_total = H_C + S_nc is exact; for
    diagonal states S_nc reduces to the classical conditional entropy.
    """
    p = computational_distribution(ctx)
    s_total = qstate.von_neumann_entropy(ctx.state)
    h_c = qstate.shannon_entropy(p)
    s_nc = 0.0
    for mass, b in zip(p, ctx.partition.outcome_blocks):
        if mass <= MASS_TOL:
            continue
        idx = np.asarray(b)
        block = ctx.state[np.ix_(idx, idx)] / mass
        s_nc += mass * qstate.von_neumann_entropy(block)
    return s_total, h_c, float(s_nc)


def restrict_context(ctx: QuantumContext, c: int) -> QuantumContext:
    """Condition on computational outcome c: zero elsewhere, renormalize."""
    blocks = ctx.partition.outcome_blocks
    if not 0 <= c < len(blocks):
        raise ContractError(f"block index {c} out of range ({len(blocks)} outcomes)")
    mass = block_masses(ctx.state, ctx.partition)[c]
    if mass <= MASS_TOL:
        raise ContractError(f"block {c} has probability {mass:.3e}; cannot condition")
    idx = np.asarray(blocks[c])
    restricted = np.zeros_like(ctx.state)
    restricted[np.ix_(idx, idx)] = ctx.state[np.ix_(idx, idx)] / mass
    return QuantumContext(restricted, ctx.partition)
