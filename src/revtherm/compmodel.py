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

__all__ = [
    "BasisPartition", "offblock_norm", "pinch", "validate_block_diagonal", "QuantumContext",
    "block_masses", "computational_distribution", "entropy_decompose", "restrict_context",
]

BLOCK_DIAG_RTOL = 1e-10

# Block probabilities below this are treated as unoccupied.
MASS_TOL = 1e-12


@dataclass(frozen=True)
class BasisPartition:
    """Disjoint index blocks over a basis of size dim.

    blocks lists the per-computational-state index sets; the catch-all
    block (all unassigned indices) is exposed as b_perp and participates
    as a regular outcome whenever it is nonempty. The outcome blocks, each
    also as an index array, the same-block mask (entry (i, j) is True iff
    i and j lie in one outcome block) and the index-by-block indicator are
    built once, at construction.
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
        perp = tuple(i for i in range(self.dim) if i not in seen)
        outcomes = self.blocks + ((perp,) if perp else ())
        labels = [0] * self.dim  # the outcome block of each basis index
        for c, b in enumerate(outcomes):
            for i in b:
                labels[i] = c
        labels = np.array(labels, dtype=np.intp)
        object.__setattr__(self, "_perp", perp)
        object.__setattr__(self, "_outcomes", outcomes)
        object.__setattr__(self, "_indices", tuple(np.array(b, dtype=np.intp) for b in outcomes))
        object.__setattr__(self, "_same_block", labels[:, None] == labels)
        # _indicator[i, c] = 1.0 iff basis index i lies in outcome block c
        object.__setattr__(self, "_indicator", (labels[:, None] == np.arange(len(outcomes))).astype(float))

    @property
    def b_perp(self) -> tuple[int, ...]:
        return self._perp

    @property
    def outcome_blocks(self) -> tuple[tuple[int, ...], ...]:
        """blocks plus the catch-all, when the catch-all is nonempty."""
        return self._outcomes

    @property
    def n_outcomes(self) -> int:
        return len(self._outcomes)


def offblock_norm(a, partition: BasisPartition) -> float:
    """Hilbert-Schmidt mass of all entries outside the diagonal blocks."""
    a = qlinalg.as_square(a, partition.dim, "operator")
    return qlinalg.hs_norm(a - pinch(a, partition))


def pinch(a, partition: BasisPartition) -> np.ndarray:
    """Zero every cross-block entry (the fully decohered operator): one
    select through the partition's same-block mask."""
    a = qlinalg.as_square(a, partition.dim, "operator")
    return np.where(partition._same_block, a, 0.0)


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
    """Diagonal mass in each outcome block (no block-diagonality required),
    each summed over the block's stored index array, in the block's order."""
    rho = qlinalg.as_square(rho, partition.dim, "state")
    diag = np.real(np.diag(rho))
    return np.array([diag[idx].sum() for idx in partition._indices])


def _occupied_stacks(rho: np.ndarray, partition: BasisPartition, masses: np.ndarray, tol: float):
    """For each size of the outcome blocks whose mass exceeds tol: the
    numbers of those blocks, in block order, and the stack of their
    diagonal blocks of rho, each divided by its mass."""
    by_size: dict[int, list[int]] = {}
    for c, idx in enumerate(partition._indices):
        if masses[c] > tol:
            by_size.setdefault(idx.size, []).append(c)
    for cs in by_size.values():
        idx = np.stack([partition._indices[c] for c in cs])
        yield cs, rho[idx[:, :, None], idx[:, None, :]] / masses[cs][:, None, None]


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

    The spectra of the occupied blocks (mass above MASS_TOL) come from one
    stacked eigh per block size; each block's entropy is qstate._entropy of
    its spectrum, summed in block order.
    """
    p = computational_distribution(ctx)
    s_total = qstate.von_neumann_entropy(ctx.state)
    h_c = qstate.shannon_entropy(p)
    spectra = {}
    for cs, stack in _occupied_stacks(ctx.state, ctx.partition, p, MASS_TOL):
        spectra.update(zip(cs, np.linalg.eigh(stack)[0]))
    s_nc = 0.0
    for c in sorted(spectra):
        s_nc += p[c] * qstate._entropy(spectra[c])
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
