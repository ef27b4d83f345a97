import itertools
import math

import numpy as np
import pytest

from revtherm import compmodel, compops
from revtherm.errors import ContractError, ShapeError

from helpers import rng


class TestStochasticOp:
    def test_partial_domain(self):
        op = compops.StochasticOp(3, {0: [0, 1, 0], 2: [0.5, 0.25, 0.25]})
        assert op.domain == (0, 2)

    def test_row_validation(self):
        with pytest.raises(ContractError):
            compops.StochasticOp(2, {0: [0.7, 0.2]})  # does not sum to 1
        with pytest.raises(ContractError):
            compops.StochasticOp(2, {0: [1.5, -0.5]})
        with pytest.raises(ShapeError):
            compops.StochasticOp(2, {0: [1.0, 0.0, 0.0]})
        with pytest.raises(ContractError):
            compops.StochasticOp(2, {5: [1.0, 0.0]})

    @pytest.mark.parametrize("row", [[math.nan, 1.0], [0.0, math.nan], [math.nan, math.nan]])
    def test_nan_row_rejected(self, row):
        with pytest.raises(ContractError):
            compops.StochasticOp(2, {0: row, 1: [1.0, 0.0]})

    def test_deterministic_builder(self):
        op = compops.deterministic_op(3, [1, 2, 0])
        assert np.array_equal(op.rows[0], [0, 1, 0])
        assert compops.is_deterministic(op)
        ident = compops.identity_op(4)
        assert all(np.argmax(ident.rows[i]) == i for i in range(4))


class TestPredicates:
    def test_not_gate(self):
        op = compops.deterministic_op(2, [1, 0])
        assert compops.is_deterministic(op)
        assert compops.is_reversible(op)
        assert not compops.is_entropy_ejecting(op)

    def test_constant_map(self):
        op = compops.deterministic_op(2, [0, 0])
        assert compops.is_deterministic(op)
        assert not compops.is_reversible(op)
        assert compops.is_entropy_ejecting(op)

    def test_mixing_is_not_deterministic(self):
        op = compops.StochasticOp(2, {0: [0.5, 0.5], 1: [0.5, 0.5]})
        assert not compops.is_deterministic(op)
        with pytest.raises(ContractError):
            compops.is_entropy_ejecting(op)

    def test_splitting_counts_as_reversible(self):
        # fan-out without merging: no two inputs share an output
        op = compops.StochasticOp(3, {0: [0.0, 0.5, 0.5]})
        assert compops.is_reversible(op)

    def test_conditional_reversibility(self):
        op = compops.deterministic_op(3, {0: 0, 1: 0, 2: 1})
        assert not compops.is_reversible(op)
        assert compops.is_reversible(op, over=(0, 2))
        assert compops.is_reversible(op, over=(1, 2))
        assert not compops.is_reversible(op, over=(0, 1))
        with pytest.raises(ContractError):
            compops.is_reversible(op, over=(0, 7))

    def test_repeated_subset_index_rejected(self):
        # the NOT gate is reversible; a repeated index must not count its image twice
        op = compops.deterministic_op(2, [1, 0])
        with pytest.raises(ContractError):
            compops.is_reversible(op, over=(0, 0))


class TestTheorems:
    def test_traditional_exhaustive_n3(self):
        # every total deterministic map on three states satisfies the theorem
        for images in itertools.product(range(3), repeat=3):
            op = compops.deterministic_op(3, list(images))
            assert compops.check_traditional_theorem(op)

    def test_generalized_exhaustive_n3(self):
        dists = [
            np.array([1.0, 0.0, 0.0]),
            np.array([0.5, 0.5, 0.0]),
            np.array([0.5, 0.0, 0.5]),
            np.array([1 / 3, 1 / 3, 1 / 3]),
            np.array([0.7, 0.2, 0.1]),
        ]
        for images in itertools.product(range(3), repeat=3):
            op = compops.deterministic_op(3, list(images))
            for p in dists:
                c = compops.ContextualizedComputation(op, p)
                assert compops.check_generalized_theorem(c)

    def test_merge_outside_support_conserves_entropy(self):
        # the map merges 1 and 2, but only 0 and 1 are occupied
        op = compops.deterministic_op(3, [0, 1, 1])
        c = compops.ContextualizedComputation(op, [0.5, 0.5, 0.0])
        delta_h, floor = compops.computational_entropy_delta(c)
        assert abs(delta_h) < 1e-12 and floor == 0.0
        assert compops.check_generalized_theorem(c)


class TestEntropyDelta:
    def test_constant_on_uniform(self):
        op = compops.deterministic_op(2, [0, 0])
        c = compops.ContextualizedComputation(op, [0.5, 0.5])
        delta_h, floor = compops.computational_entropy_delta(c)
        assert np.isclose(delta_h, -math.log(2))
        assert np.isclose(floor, math.log(2))

    def test_permutation_conserves(self):
        op = compops.deterministic_op(4, [2, 3, 0, 1])
        c = compops.ContextualizedComputation(op, [0.4, 0.3, 0.2, 0.1])
        delta_h, floor = compops.computational_entropy_delta(c)
        assert abs(delta_h) < 1e-12 and floor == 0.0

    def test_mixing_raises_entropy(self):
        op = compops.StochasticOp(2, {0: [0.5, 0.5], 1: [0.5, 0.5]})
        c = compops.ContextualizedComputation(op, [1.0, 0.0])
        delta_h, floor = compops.computational_entropy_delta(c)
        assert np.isclose(delta_h, math.log(2)) and floor == 0.0

    def test_support_outside_domain(self):
        op = compops.deterministic_op(3, {0: 1})
        with pytest.raises(ContractError):
            compops.ContextualizedComputation(op, [0.5, 0.5, 0.0])
        # zero mass on the missing rows is fine
        compops.ContextualizedComputation(op, [1.0, 0.0, 0.0])


class TestObliviousErasure:
    def test_independent_pair_costs_nothing(self):
        joint = np.outer([0.3, 0.7], [0.5, 0.5])
        assert abs(compops.landauer_cost_oblivious_erasure(joint)) < 1e-12

    def test_perfectly_correlated_bits(self):
        joint = np.diag([0.5, 0.5])
        assert np.isclose(compops.landauer_cost_oblivious_erasure(joint), math.log(2))

    def test_nonnegative(self):
        gen = rng(41)
        for _ in range(10):
            j = gen.random((3, 4))
            j /= j.sum()
            assert compops.landauer_cost_oblivious_erasure(j) >= -1e-12

    def test_bad_joint(self):
        with pytest.raises(ContractError):
            compops.landauer_cost_oblivious_erasure(np.ones((2, 2)))


HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)


class TestImplements:
    # two qubits, computational state = first qubit
    PART = compmodel.BasisPartition(4, [(0, 1), (2, 3)])
    X1 = np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2))
    STATE = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)

    def ctx(self):
        return compmodel.QuantumContext(self.STATE, self.PART)

    def test_block_swap_is_not(self):
        op = compops.deterministic_op(2, [1, 0])
        assert compops.implements(self.X1, self.PART, self.PART, op, self.ctx())

    def test_within_block_action_is_identity(self):
        u = np.kron(np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert compops.implements(u, self.PART, self.PART, compops.identity_op(2), self.ctx())

    def test_coherent_split_fails_deterministic(self):
        u = np.kron(HADAMARD, np.eye(2))
        op = compops.deterministic_op(2, [1, 0])
        assert not compops.implements(u, self.PART, self.PART, op, self.ctx())

    def test_coherent_split_is_stochastic_mixing(self):
        u = np.kron(HADAMARD, np.eye(2))
        op = compops.StochasticOp(2, {0: [0.5, 0.5], 1: [0.5, 0.5]})
        assert compops.implements(u, self.PART, self.PART, op, self.ctx())

    def test_fine_partition_permutation(self):
        part = compmodel.BasisPartition(4, [(0,), (1,), (2,), (3,)])
        ctx = compmodel.QuantumContext(self.STATE, part)
        op = compops.deterministic_op(4, [2, 3, 0, 1])
        assert compops.implements(self.X1, part, part, op, ctx)

    def test_occupied_block_outside_domain(self):
        op = compops.deterministic_op(2, {0: 1})
        with pytest.raises(ContractError):
            compops.implements(self.X1, self.PART, self.PART, op, self.ctx())

    def test_shape_gate(self):
        op = compops.deterministic_op(3, [0, 1, 2])
        with pytest.raises(ShapeError):
            compops.implements(self.X1, self.PART, self.PART, op, self.ctx())

    def test_partition_mismatch(self):
        other = compmodel.BasisPartition(4, [(0, 2), (1, 3)])
        op = compops.deterministic_op(2, [1, 0])
        with pytest.raises(ContractError):
            compops.implements(self.X1, other, other, op, self.ctx())

    def test_unoccupied_domain_rows_ignored(self):
        # only block 0 occupied; the op's row for block 1 never runs
        state = np.diag([0.6, 0.4, 0.0, 0.0]).astype(complex)
        ctx = compmodel.QuantumContext(state, self.PART)
        op = compops.deterministic_op(2, {0: 1})
        assert compops.implements(self.X1, self.PART, self.PART, op, ctx)


def test_total_variation():
    assert compops.total_variation([1.0, 0.0], [0.0, 1.0]) == 1.0
    assert compops.total_variation([0.5, 0.5], [0.5, 0.5]) == 0.0
