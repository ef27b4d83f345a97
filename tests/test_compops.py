import inspect
import itertools
import math

import numpy as np
import pytest

from revtherm import compmodel, compops, qstate
from revtherm.errors import ContractError, ShapeError

from helpers import (
    block_masses_loop,
    implements_walk,
    outcome,
    random_block_state,
    random_partition,
    random_rows,
    random_unitary,
    rng,
    stochastic_rows_loop,
)


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

    def test_negative_state_count_rejected(self):
        with pytest.raises(ContractError, match="n_states must be nonnegative"):
            compops.StochasticOp(-1, {})
        # no states at all is a valid, empty operation
        empty = compops.StochasticOp(0, {})
        assert empty.domain == () and compops.is_reversible(empty)

    KINDS = ("outside", "length", "negative", "sums")

    def test_rows_match_the_per_row_loop(self):
        # one stacked pass over the entries: the same rows bit for bit, or the
        # same refusal of the same row, as checking one row at a time
        gen = rng(40)
        refused = set()
        for _ in range(300):
            n = int(gen.integers(1, 14))
            rows = random_rows(gen, n)
            expect = outcome(stochastic_rows_loop, n, rows)
            got = outcome(compops.StochasticOp, n, rows)
            if isinstance(expect, tuple):
                assert got == expect
                refused.add(next(w for w in self.KINDS if w in expect[1]))
            else:
                assert list(got.rows) == list(expect)
                for i, row in expect.items():
                    assert got.rows[i].tobytes() == row.tobytes()
        # every refusal occurs (a NaN is refused as a negative entry)
        assert refused == set(self.KINDS)

    def test_first_failing_row_decides(self):
        # a later row's bad index loses to an earlier row's bad sum, and an
        # earlier row's bad index to a later row's negative entry
        with pytest.raises(ContractError, match=r"^row 0 sums to (np\.float64\()?0\.9\)?$"):
            compops.StochasticOp(2, {0: [0.5, 0.4], 7: [1.0, 0.0]})
        with pytest.raises(ContractError, match=r"^row index 7 outside 0\.\.1$"):
            compops.StochasticOp(2, {7: [1.0, 0.0], 0: [1.5, -0.5]})
        with pytest.raises(ShapeError, match=r"^row 1 has length 3, expected 2$"):
            compops.StochasticOp(2, {0: [1.0, 0.0], 1: [1.0, 0.0, 0.0], 5: [0.5, 0.4]})
        with pytest.raises(ContractError, match=r"^row 1 has negative entry -5\.000e-01$"):
            compops.StochasticOp(2, {0: [1.0, 0.0], 1: [1.5, -0.5], 2: [1.0]})

    def test_deterministic_builder(self):
        op = compops.deterministic_op(3, [1, 2, 0])
        assert np.array_equal(op.rows[0], [0, 1, 0])
        assert compops.is_deterministic(op)
        ident = compops.deterministic_op(4, range(4))
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

    def test_empty_domain_allocates_nothing_of_n_states(self):
        # an n_states-sized count array could not even be allocated here
        op = compops.StochasticOp(10**30, {})
        assert compops.is_reversible(op) and compops.is_deterministic(op)
        assert not compops.is_entropy_ejecting(op)


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
        assert compops.implements(u, self.PART, self.PART, compops.deterministic_op(2, range(2)), self.ctx())

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

    def test_default_tolerance_is_named_once(self):
        default = inspect.signature(compops.implements).parameters["tol"].default
        assert default is compops.IMPLEMENTS_TOL and compops.IMPLEMENTS_TOL == 1e-9



def implements_cases(seed: int, n: int = 60):
    """Seeded (u, p_in, p_out, op, ctx) for implements and its block walk.

    Each occupied block's row is its exact output masses under a unitary,
    or those moved by 1e-6, or missing from the domain; the unitary is
    sometimes scaled off unitarity or of the wrong size, and the output
    partition is the input one or its blocks moved by a permutation.
    """
    gen = rng(seed)
    for k in range(n):
        d = int(gen.integers(1, 9))
        p_in = random_partition(gen, d, catch_all=d > 1 and k % 2 == 0)
        empty = (p_in.n_outcomes - 1,) if p_in.n_outcomes > 1 and k % 3 == 0 else ()
        ctx = compmodel.QuantumContext(random_block_state(gen, p_in, empty), p_in)
        perm = gen.permutation(d)
        p_out = p_in if k % 4 else compmodel.BasisPartition(d, [perm[list(b)] for b in p_in.outcome_blocks])
        u = random_unitary(gen, d)
        masses = block_masses_loop(ctx.state, p_in)
        rows = {}
        for i in range(p_in.n_outcomes):
            row = np.eye(p_in.n_outcomes)[0]
            if masses[i] > compops.SUPPORT_TOL:
                evolved = qstate.evolve_unitary(compmodel.restrict_context(ctx, i).state, u)
                row = block_masses_loop(evolved, p_out)
            kind = gen.choice(["exact", "exact", "exact", "moved", "missing"])
            if kind == "moved":
                row = (1.0 - 1e-6) * row + 1e-6 * np.eye(row.size)[np.argmin(row)]
            if kind != "missing":
                rows[i] = row
        op = compops.StochasticOp(p_in.n_outcomes, rows)
        if k % 7 == 3:
            u = u * (1.0 + 1e-6)
        elif k % 11 == 5:
            u = random_unitary(gen, d + 1)
        yield u, p_in, p_out, op, ctx


class TestImplementsAgainstBlockWalk:
    """implements against restrict_context plus evolve_unitary per block."""

    def test_same_verdict_and_same_error(self):
        seen = set()
        for case in implements_cases(51):
            got = outcome(compops.implements, *case)
            assert got == outcome(implements_walk, *case)
            seen.add(got if isinstance(got, bool) else got[1].split()[0])
        assert {True, False, "occupied", "operator"} <= seen

    def test_block_0_misses_its_row_before_block_1_is_outside(self):
        ctx = TestImplements().ctx()
        op = compops.StochasticOp(2, {0: [1.0, 0.0]})  # X1 sends block 0 to 1
        args = (TestImplements.X1, ctx.partition, ctx.partition, op, ctx)
        assert compops.implements(*args) is False
        assert implements_walk(*args) is False

    def test_domain_wins_over_a_non_unitary_u(self):
        ctx = TestImplements().ctx()
        op = compops.deterministic_op(2, {1: 0})
        args = (2.0 * TestImplements.X1, ctx.partition, ctx.partition, op, ctx)
        message = r"^occupied block 0 outside the operation domain$"
        with pytest.raises(ContractError, match=message):
            compops.implements(*args)
        with pytest.raises(ContractError, match=message):
            implements_walk(*args)

    def test_light_block_below_the_floor_is_refused(self):
        # rho passes the -1e-10 floor; its light block renormalized dips to -0.05
        part = compmodel.BasisPartition(3, [(0,), (1, 2)])
        rho = np.diag([1.0 - 1e-9, 5e-10, 5e-10]).astype(complex)
        rho[1, 2] = rho[2, 1] = 5.5e-10
        ctx = compmodel.QuantumContext(rho, part)
        args = (np.eye(3), part, part, compops.deterministic_op(2, [0, 1]), ctx)
        message = r"^negative eigenvalue -5\.000e-02 below -1e-10$"
        with pytest.raises(ContractError, match=message):
            compops.implements(*args)
        with pytest.raises(ContractError, match=message):
            implements_walk(*args)

    def test_non_unitary_u_alone(self):
        ctx = TestImplements().ctx()
        op = compops.deterministic_op(2, [1, 0])
        args = (TestImplements.X1 * (1.0 + 1e-9), ctx.partition, ctx.partition, op, ctx)
        message = r"^operator is not unitary within tolerance$"
        with pytest.raises(ContractError, match=message):
            compops.implements(*args)
        with pytest.raises(ContractError, match=message):
            implements_walk(*args)

    def test_output_partition_of_another_size(self):
        p_in = compmodel.BasisPartition(3, [(0,)])
        p_out = compmodel.BasisPartition(4, [(0,)])
        ctx = compmodel.QuantumContext(np.eye(3, dtype=complex) / 3.0, p_in)
        args = (np.eye(3), p_in, p_out, compops.deterministic_op(2, [0, 1]), ctx)
        assert outcome(compops.implements, *args) == (ShapeError, "state is (3, 3), expected (4, 4)")
        assert outcome(implements_walk, *args) == outcome(compops.implements, *args)


class TestImplementsWorkCounts:
    def test_one_unitarity_check_and_no_context_per_block(self, monkeypatch):
        part = compmodel.BasisPartition(6, [(0,), (1, 2), (3,), (4, 5)])
        ctx = compmodel.QuantumContext(random_block_state(rng(52), part), part)
        op = compops.deterministic_op(4, range(4))
        checks, contexts = [], []
        require_unitary = qstate.require_unitary

        def counted(*args, **kwargs):
            checks.append(args)
            return require_unitary(*args, **kwargs)

        monkeypatch.setattr(qstate, "require_unitary", counted)
        monkeypatch.setattr(compmodel.QuantumContext, "__post_init__", lambda self: contexts.append(self))
        assert compops.implements(np.eye(6), part, part, op, ctx)
        assert len(checks) == 1 and contexts == []


def test_total_variation():
    assert compops.total_variation([1.0, 0.0], [0.0, 1.0]) == 1.0
    assert compops.total_variation([0.5, 0.5], [0.5, 0.5]) == 0.0
