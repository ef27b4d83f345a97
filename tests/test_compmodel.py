import math

import numpy as np
import pytest

from revtherm import compmodel, gksl, qlinalg, qstate
from revtherm.errors import ContractError, ShapeError

from helpers import (
    block_masses_loop,
    entropy_decompose_loop,
    pinch_loop,
    random_block_state,
    random_complex,
    random_density,
    random_distribution,
    random_partition,
    rng,
)


def block_diag_state(gen, partition):
    """Random density matrix supported only on the partition's blocks."""
    rho = np.zeros((partition.dim, partition.dim), dtype=complex)
    masses = random_distribution(gen, partition.n_outcomes)
    for mass, b in zip(masses, partition.outcome_blocks):
        idx = np.asarray(b)
        rho[np.ix_(idx, idx)] = mass * random_density(gen, len(b))
    return rho


class TestBasisPartition:
    def test_catch_all(self):
        p = compmodel.BasisPartition(5, [(0, 1), (3,)])
        assert p.b_perp == (2, 4)
        assert p.outcome_blocks == ((0, 1), (3,), (2, 4))
        assert p.n_outcomes == 3

    def test_full_cover_has_no_catch_all(self):
        p = compmodel.BasisPartition(3, [(0,), (1, 2)])
        assert p.b_perp == ()
        assert p.n_outcomes == 2

    def test_overlap_rejected(self):
        with pytest.raises(ContractError):
            compmodel.BasisPartition(3, [(0, 1), (1, 2)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ContractError):
            compmodel.BasisPartition(2, [(0, 5)])

    def test_empty_block_rejected(self):
        with pytest.raises(ContractError):
            compmodel.BasisPartition(2, [()])


class TestPinch:
    PART = compmodel.BasisPartition(3, [(0, 1), (2,)])

    def test_kills_cross_block_only(self):
        a = np.arange(9, dtype=complex).reshape(3, 3)
        pinched = compmodel.pinch(a, self.PART)
        assert pinched[0, 1] == a[0, 1] and pinched[1, 0] == a[1, 0]
        assert pinched[0, 2] == 0.0 and pinched[2, 1] == 0.0
        assert np.allclose(np.diag(pinched), np.diag(a))

    def test_idempotent_and_trace_preserving(self):
        gen = rng(31)
        a = random_density(gen, 3)
        once = compmodel.pinch(a, self.PART)
        assert np.allclose(compmodel.pinch(once, self.PART), once)
        assert np.isclose(np.trace(once), np.trace(a))

    def test_offblock_norm(self):
        c = 0.21
        a = np.array([[0.5, 0, c], [0, 0.2, 0], [c, 0, 0.3]], dtype=complex)
        # two symmetric cross-block entries of size c
        assert np.isclose(compmodel.offblock_norm(a, self.PART), c * math.sqrt(2.0))
        assert compmodel.offblock_norm(compmodel.pinch(a, self.PART), self.PART) == 0.0

    def test_norm_split(self):
        gen = rng(32)
        a = random_density(gen, 3)
        on = np.linalg.norm(compmodel.pinch(a, self.PART))
        off = compmodel.offblock_norm(a, self.PART)
        assert np.isclose(on**2 + off**2, np.linalg.norm(a) ** 2)

    def test_shape_gate(self):
        with pytest.raises(ShapeError):
            compmodel.pinch(np.eye(4), self.PART)


class TestQuantumContext:
    PART = compmodel.BasisPartition(3, [(0, 1), (2,)])

    def test_accepts_block_diagonal(self):
        gen = rng(33)
        rho = block_diag_state(gen, self.PART)
        ctx = compmodel.QuantumContext(rho, self.PART)
        assert ctx.partition is self.PART

    def test_rejects_coherence(self):
        rho = np.full((3, 3), 1.0 / 3.0, dtype=complex)
        assert not compmodel.validate_block_diagonal(rho, self.PART)
        with pytest.raises(ContractError):
            compmodel.QuantumContext(rho, self.PART)

    def test_rejects_non_state(self):
        with pytest.raises(ContractError):
            compmodel.QuantumContext(np.eye(3, dtype=complex), self.PART)


class TestEntropyDecompose:
    def test_frozen_example(self):
        # 0.6 on a two-level block with eigenvalues (0.75, 0.25), 0.4 on a point
        part = compmodel.BasisPartition(3, [(0, 1), (2,)])
        rho = np.zeros((3, 3), dtype=complex)
        rho[:2, :2] = 0.6 * np.array([[0.5, 0.25], [0.25, 0.5]])
        rho[2, 2] = 0.4
        ctx = compmodel.QuantumContext(rho, part)
        s, h, snc = compmodel.entropy_decompose(ctx)
        assert np.isclose(s, 1.0104127537805414)
        assert np.isclose(h, 0.6730116670092565)
        assert np.isclose(snc, 0.33740108677128494)

    def test_identity_on_random_block_states(self):
        gen = rng(34)
        part = compmodel.BasisPartition(6, [(0, 1, 2), (3,), (4, 5)])
        for _ in range(8):
            ctx = compmodel.QuantumContext(block_diag_state(gen, part), part)
            s, h, snc = compmodel.entropy_decompose(ctx)
            assert abs(s - h - snc) < 1e-10
            assert h >= -1e-12 and snc >= -1e-12

    def test_diagonal_state_is_classical(self):
        # every block a single index: S_nc = 0 and H_C = S
        part = compmodel.BasisPartition(4, [(0,), (1,), (2,), (3,)])
        p = np.array([0.4, 0.3, 0.2, 0.1])
        ctx = compmodel.QuantumContext(np.diag(p).astype(complex), part)
        s, h, snc = compmodel.entropy_decompose(ctx)
        assert np.isclose(h, qstate.shannon_entropy(p))
        assert abs(snc) < 1e-12
        assert np.isclose(s, h)

    def test_unoccupied_block_skipped(self):
        part = compmodel.BasisPartition(3, [(0,), (1,), (2,)])
        rho = np.diag([0.5, 0.5, 0.0]).astype(complex)
        ctx = compmodel.QuantumContext(rho, part)
        s, h, snc = compmodel.entropy_decompose(ctx)
        assert np.isclose(h, math.log(2)) and snc == 0.0


class TestRestriction:
    PART = compmodel.BasisPartition(4, [(0, 1), (2, 3)])

    def test_conditions_and_renormalizes(self):
        rho = np.diag([0.3, 0.3, 0.2, 0.2]).astype(complex)
        ctx = compmodel.QuantumContext(rho, self.PART)
        r0 = compmodel.restrict_context(ctx, 0)
        assert np.allclose(r0.state, np.diag([0.5, 0.5, 0.0, 0.0]))
        masses = compmodel.block_masses(r0.state, self.PART)
        assert np.allclose(masses, [1.0, 0.0])

    def test_empty_block_rejected(self):
        rho = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        ctx = compmodel.QuantumContext(rho, self.PART)
        with pytest.raises(ContractError):
            compmodel.restrict_context(ctx, 1)

    def test_index_gate(self):
        rho = np.eye(4, dtype=complex) / 4.0
        ctx = compmodel.QuantumContext(rho, self.PART)
        with pytest.raises(ContractError):
            compmodel.restrict_context(ctx, 2)


def test_block_masses_tolerates_coherence():
    # masses read the diagonal only, so a coherent state still has them
    part = compmodel.BasisPartition(2, [(0,), (1,)])
    rho = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    assert np.allclose(compmodel.block_masses(rho, part), [0.5, 0.5])


def test_computational_distribution_sums_to_one():
    gen = rng(35)
    part = compmodel.BasisPartition(5, [(0, 2), (1,), (3, 4)])
    ctx = compmodel.QuantumContext(block_diag_state(gen, part), part)
    p = compmodel.computational_distribution(ctx)
    assert np.isclose(p.sum(), 1.0)
    assert p.shape == (3,)


# Seeded partitions of 1-9 indices, with and without a catch-all block, and
# a block-diagonal state on each with its last one or two outcome blocks
# unoccupied where there is room.
def partition_cases(seed: int, n: int = 40):
    gen = rng(seed)
    for k in range(n):
        d = int(gen.integers(1, 10))
        part = random_partition(gen, d, catch_all=d > 1 and k % 2 == 0)
        empty = range(part.n_outcomes)[-(k % 3):] if k % 3 and part.n_outcomes > k % 3 else ()
        yield gen, part, random_block_state(gen, part, empty)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestAgainstBlockLoops:
    """The one-pass kernels against the per-block loops in helpers."""

    def test_pinch_and_masses_match_bit_for_bit(self):
        for gen, part, rho in partition_cases(41):
            a = random_complex(gen, (part.dim, part.dim))
            for m in (a, rho):
                assert same_bits(compmodel.pinch(m, part), pinch_loop(m, part))
                assert same_bits(compmodel.block_masses(m, part), block_masses_loop(m, part))
            assert compmodel.offblock_norm(a, part) == qlinalg.hs_norm(a - pinch_loop(a, part))

    def test_entropy_decompose_matches_bit_for_bit(self):
        seen_empty = False
        for _, part, rho in partition_cases(42):
            ctx = compmodel.QuantumContext(rho, part)
            seen_empty |= bool((compmodel.computational_distribution(ctx) == 0.0).any())
            assert compmodel.entropy_decompose(ctx) == entropy_decompose_loop(ctx)
        assert seen_empty

    def test_gksl_partition_checks_match_the_loop_pinch(self):
        for gen, part, rho in partition_cases(43):
            # cross-block entries of a few sizes about the 1e-10 gate
            leak = random_complex(gen, (part.dim, part.dim)) * 10.0 ** -gen.integers(6, 14)
            op = pinch_loop(random_complex(gen, (part.dim, part.dim)), part) + leak
            noncomp, comp = gksl.split_comp_noncomp(op, part)
            assert same_bits(noncomp, pinch_loop(op, part))
            assert same_bits(comp, op - pinch_loop(op, part))
            gate = compmodel.BLOCK_DIAG_RTOL * max(1.0, qlinalg.hs_norm(op))
            assert gksl.dfs_commutes(op, part) == bool(np.all(np.abs(op - pinch_loop(op, part)) <= gate))
            initial = qlinalg.hs_norm(op - pinch_loop(op, part))
            residual = qlinalg.hs_norm(rho + leak - pinch_loop(rho + leak, part))
            assert gksl.dephasing_check(part, op, rho + leak) == {
                "residual_coherence": residual,
                "classical": residual <= max(gksl.DEPHASED_FRACTION * initial, 1e-12),
            }

    def test_light_block_below_the_floor_is_refused_alike(self):
        # the state is within the -1e-10 floor; its light block renormalized is not
        part = compmodel.BasisPartition(3, [(0,), (1, 2)])
        rho = np.diag([1.0 - 1e-9, 5e-10, 5e-10]).astype(complex)
        rho[1, 2] = rho[2, 1] = 5.5e-10
        ctx = compmodel.QuantumContext(rho, part)
        with pytest.raises(ContractError, match=r"^state has eigenvalue -5\.000e-02 below -1e-10$"):
            compmodel.entropy_decompose(ctx)
        with pytest.raises(ContractError, match=r"^state has eigenvalue -5\.000e-02 below -1e-10$"):
            entropy_decompose_loop(ctx)


class TestWorkCounts:
    def test_outcome_blocks_is_built_once(self):
        part = compmodel.BasisPartition(5, [(3, 0), (2,)])
        assert part.outcome_blocks is part.outcome_blocks
        assert part.b_perp is part.b_perp
        assert part.outcome_blocks == ((3, 0), (2,), (1, 4))

    def test_entropy_decompose_takes_one_eigh_per_block_size(self, monkeypatch):
        # occupied sizes 1, 2 and 3, one of them twice; the size-4 block is empty
        part = compmodel.BasisPartition(12, [(0,), (1, 2), (3, 4, 5), (6, 7), (8, 9, 10, 11)])
        ctx = compmodel.QuantumContext(random_block_state(rng(44), part, empty=(4,)), part)
        calls = []
        eigh = np.linalg.eigh

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        compmodel.entropy_decompose(ctx)
        assert sorted(calls) == [(1, 1, 1), (1, 3, 3), (2, 2, 2), (12, 12)]

    def test_partitions_compare_by_dim_and_blocks(self):
        a = compmodel.BasisPartition(4, [(1, 0), (2,)])
        assert a == compmodel.BasisPartition(4, [[1, 0], [2]])
        assert hash(a) == hash(compmodel.BasisPartition(4, [(1, 0), (2,)]))
        assert a != compmodel.BasisPartition(4, [(0, 1), (2,)])
