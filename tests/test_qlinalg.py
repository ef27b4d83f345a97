import math
import tracemalloc
import warnings

import numpy as np
import pytest

from revtherm import qlinalg
from revtherm.errors import ContractError, NumericHealthError, ShapeError
from revtherm.gksl import EIGENBASIS_COND_GATE

from helpers import random_complex, random_density, random_hermitian, random_unitary, rng


def test_vectorize_stacks_columns():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(qlinalg.vectorize(a), np.array([1, 3, 2, 4], dtype=complex))


def test_vec_product_map_reproduces_sandwich():
    # |B A C>> = (C^T kron B)|A>> is the identity the whole package leans on
    gen = rng(11)
    for d in (2, 3, 4):
        for _ in range(5):
            a = random_complex(gen, (d, d))
            b = random_complex(gen, (d, d))
            c = random_complex(gen, (d, d))
            lhs = qlinalg.vectorize(b @ a @ c)
            rhs = qlinalg.vec_product_map(b, c) @ qlinalg.vectorize(a)
            assert np.allclose(lhs, rhs)


def test_vec_product_map_shape_mismatch():
    with pytest.raises(ShapeError):
        qlinalg.vec_product_map(np.zeros((2, 3)), np.zeros((2, 2)))


@pytest.mark.parametrize("p, q, s", [(2, 2, 2), (3, 3, 3), (2, 3, 4), (4, 1, 3)])
@pytest.mark.parametrize("m", [1, 2, 5])
def test_stacked_vec_product_map_sums_single_products(p, q, s, m):
    # A -> sum_t B_t A C_t with B_t p x q, A q x q, C_t q x s
    gen = rng(13 + m)
    b = random_complex(gen, (m, p, q))
    c = random_complex(gen, (m, q, s))
    ref = sum(np.kron(ct.T, bt) for bt, ct in zip(b, c))
    out = qlinalg.vec_product_map(b, c)
    assert out.shape == ref.shape == (s * p, q * q)
    assert np.abs(out - ref).max() <= 1e-14 * np.linalg.norm(ref)
    a = random_complex(gen, (q, q))
    sandwich = sum(bt @ a @ ct for bt, ct in zip(b, c))
    assert np.allclose(out @ a.reshape(-1, order="F"), sandwich.reshape(-1, order="F"))
    # a plain pair is the one-term stack
    assert np.array_equal(qlinalg.vec_product_map(b[0], c[0]), qlinalg.vec_product_map(b[:1], c[:1]))


@pytest.mark.parametrize(
    "b, c",
    [
        (np.zeros((2, 2, 3)), np.zeros((2, 2, 2))),  # B_t cols != C_t rows
        (np.zeros((2, 2, 2)), np.zeros((3, 2, 2))),  # stacks of two lengths
        (np.zeros((2, 2, 2)), np.zeros((2, 2))),  # a stack and a matrix
        (np.zeros(2), np.zeros(2)),
    ],
)
def test_stacked_vec_product_map_shape_errors(b, c):
    with pytest.raises(ShapeError):
        qlinalg.vec_product_map(b, c)


def test_vec_product_map_rejects_non_finite():
    with pytest.raises(ContractError):
        qlinalg.vec_product_map(np.full((1, 2, 2), np.nan), np.zeros((1, 2, 2)))


def test_hs_norm_matches_inner():
    gen = rng(4)
    a = random_complex(gen, (4, 4))
    assert np.isclose(qlinalg.hs_norm(a) ** 2, np.trace(a.conj().T @ a).real)


def test_hermiticity_checks():
    h = np.array([[1.0, 1j], [-1j, 0.5]])
    assert qlinalg.is_hermitian(h)
    assert not qlinalg.is_hermitian(h + np.array([[0, 1e-3], [0, 0]]))
    with pytest.raises(ContractError):
        qlinalg.require_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ShapeError):
        qlinalg.require_hermitian(np.zeros((2, 3)))


def test_as_square_gates():
    assert qlinalg.as_square(np.eye(3), 3).dtype == complex
    assert qlinalg.as_square(np.eye(3)).shape == (3, 3)
    with pytest.raises(ShapeError):
        qlinalg.as_square(np.eye(3), 2)
    with pytest.raises(ShapeError):
        qlinalg.as_square(np.zeros((2, 3)))
    with pytest.raises(ContractError):
        qlinalg.as_square([[np.nan]], 1)


def test_as_complex_matrix_rejects_nonfinite():
    with pytest.raises(ContractError):
        qlinalg.as_complex_matrix(np.array([[np.nan, 0.0], [0.0, 0.0]]))


class TestPartialTrace:
    def test_product_operator(self):
        gen = rng(5)
        a = random_density(gen, 2)
        b = random_density(gen, 3)
        joint = qlinalg.tensor(a, b)
        assert np.allclose(qlinalg.partial_trace(joint, (2, 3), keep=0), a)
        assert np.allclose(qlinalg.partial_trace(joint, (2, 3), keep=1), b)

    def test_trace_is_preserved(self):
        gen = rng(6)
        joint = random_density(gen, 6)
        for keep in (0, 1):
            red = qlinalg.partial_trace(joint, (2, 3), keep=keep)
            assert np.isclose(np.trace(red), 1.0)

    def test_shape_gate(self):
        with pytest.raises(ShapeError):
            qlinalg.partial_trace(np.eye(5), (2, 3), keep=0)
        with pytest.raises(ShapeError):
            qlinalg.partial_trace(np.eye(6), (2, 3), keep=2)


def no_svd(*args, **kwargs):
    raise AssertionError("SVD taken")


class TestEig:
    def test_hermitian_ascending_and_unitary(self):
        gen = rng(8)
        h = random_hermitian(gen, 5)
        w, v = qlinalg.eig_hermitian(h)
        assert np.all(np.diff(w) >= 0)
        assert np.allclose(v.conj().T @ v, np.eye(5))
        assert np.allclose(v @ np.diag(w) @ v.conj().T, h)

    def test_general_biorthogonal(self):
        gen = rng(9)
        m = random_complex(gen, (4, 4))
        evals, right, left = qlinalg.eig_general(m)
        assert np.allclose(left.conj().T @ right, np.eye(4), atol=1e-10)
        assert np.allclose(m @ right, right * evals)

    def test_jordan_block_is_defective(self):
        # the decomposition comes back; its basis is one that gksl's
        # EIGENBASIS_COND_GATE refuses
        evals, right, left = qlinalg.eig_general(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert np.array_equal(evals, [0.0, 0.0])
        assert abs(np.linalg.det(right)) < 1e-12
        if left is not None:
            with np.errstate(over="ignore", invalid="ignore"):
                kappa = np.linalg.norm(right) * np.linalg.norm(left)
            assert not kappa < EIGENBASIS_COND_GATE

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_gate_raises_no_warning(self, n):
        # an exactly defective input gives eigenvectors whose inverse has
        # entries near the overflow threshold, or no inverse at all; the
        # spectrum comes back as LAPACK gave it
        jordan = np.eye(n, k=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for m in (jordan, 3.0 * np.eye(n) + jordan, 1e-300 * jordan):
                evals, right, left = qlinalg.eig_general(m)
                expect_evals, expect_right = np.linalg.eig(m)
                assert np.array_equal(evals, expect_evals)
                assert np.array_equal(right, expect_right)
                assert left is None or left.shape == (n, n)

    def test_clearly_defective_basis_needs_no_svd(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "cond", no_svd)
        monkeypatch.setattr(np.linalg, "svd", no_svd)
        gen = rng(15)
        for n in (4, 8):
            for m in (np.eye(n, k=1), np.eye(n, k=1).astype(complex)):
                qlinalg.eig_general(m)
        blocks = [real_block(gen, s) for s in SIZES]
        blocks.insert(4, 2.0 * np.eye(5) + np.eye(5, k=1))
        qlinalg.eig_general(block_diagonal(gen, blocks)[0])

    def test_well_conditioned_basis_needs_no_svd(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "cond", no_svd)
        monkeypatch.setattr(np.linalg, "svd", no_svd)
        gen = rng(15)
        for n in (2, 5, 16):
            evals, right, left = qlinalg.eig_general(random_complex(gen, (n, n)))
            assert np.allclose(left.conj().T @ right, np.eye(n), atol=1e-10)

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_singular_basis_returns_no_left_vectors(self, monkeypatch, kind):
        def singular(a):
            raise np.linalg.LinAlgError("Singular matrix")

        make = real_block if kind == "real" else complex_block
        gen = rng(17)
        small = make(gen, 6)
        split = block_diagonal(gen, [make(gen, s) for s in SIZES])[0]
        expected = [np.linalg.eig(m) for m in (small, split)]
        monkeypatch.setattr(np.linalg, "inv", singular)
        for m, (expect_evals, expect_right) in zip((small, split), expected):
            evals, right, left = qlinalg.eig_general(m)
            assert left is None
            assert np.array_equal(evals, expect_evals)
            assert np.array_equal(right, expect_right)


def assert_stack_of_one_agrees(m):
    """matrix_exp(m[None])[0] agrees with matrix_exp(m) to rounding: both
    take one Taylor degree and s squarings, their polynomials may differ by
    a few ulps and each squaring may double that, so within 4 * 2^s ulps of
    the result's largest entry."""
    single, out = qlinalg.matrix_exp(m), qlinalg.matrix_exp(m[None])
    assert out.shape == (1, *m.shape) and out.dtype == single.dtype
    s = int(qlinalg._expm_plan(np.linalg.norm(m, 1))[0])
    assert np.abs(out[0] - single).max() <= 4 * 2.0**s * np.finfo(float).eps * np.abs(single).max()


class TestMatrixExp:
    def test_diagonal_exact(self):
        m = np.diag([0.0, -1.0, 2.0j])
        assert np.allclose(qlinalg.matrix_exp(m), np.diag(np.exp(np.diag(m))))

    def test_matches_hermitian_eigendecomposition(self):
        # exp(a h) = V exp(a w) V+ for Hermitian h = V w V+, with a real
        # (a damping or growth) or imaginary (a unitary)
        gen = rng(10)
        for _ in range(8):
            h = random_hermitian(gen, 4)
            w, v = qlinalg.eig_hermitian(h)
            for a in (-0.7, 0.3, -1.3j, 2.0j):
                expect = (v * np.exp(a * w)) @ v.conj().T
                got = qlinalg.matrix_exp(a * h, method="series")
                assert np.allclose(got, expect, atol=1e-12 * max(1.0, qlinalg.hs_norm(expect)))

    def test_rotation_closed_form(self):
        # exp(-i theta sigma_x) = cos(theta) 1 - i sin(theta) sigma_x
        sx = np.array([[0.0, 1.0], [1.0, 0.0]])
        for theta in (0.1, 1.0, 7.5):
            expect = np.cos(theta) * np.eye(2) - 1j * np.sin(theta) * sx
            assert np.allclose(qlinalg.matrix_exp(-1j * theta * sx), expect, atol=1e-13)

    def test_nilpotent_closed_form(self):
        n = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert np.allclose(qlinalg.matrix_exp(n), np.eye(2) + n)
        # a 3 x 3 Jordan block at lambda: e^lambda (1 + N + N^2 / 2)
        n3 = np.eye(3, k=1)
        expect = np.exp(-0.5) * (np.eye(3) + n3 + n3 @ n3 / 2.0)
        assert np.allclose(qlinalg.matrix_exp(-0.5 * np.eye(3) + n3), expect, atol=1e-14)

    def test_group_property(self):
        gen = rng(12)
        m = random_complex(gen, (3, 3))
        e1 = qlinalg.matrix_exp(m) @ qlinalg.matrix_exp(-m)
        assert np.allclose(e1, np.eye(3), atol=1e-9)

    def test_unknown_method(self):
        with pytest.raises(ContractError):
            qlinalg.matrix_exp(np.eye(2), method="pade")
        with pytest.raises(ContractError):
            qlinalg.matrix_exp(np.eye(2), method="eig")
        with pytest.raises(ContractError):
            qlinalg.matrix_exp(np.eye(2), method="auto")

    @pytest.mark.parametrize("order", range(2, 31))
    def test_nilpotent_shift_is_the_exact_polynomial(self, order):
        # ||N||_1 = 1 gives s = 0 and degree 20; every power of the shift N
        # holds zeros and ones, and the terms sit on distinct diagonals, so
        # each coefficient lands in its place exactly, across every block
        n = np.eye(order, k=1)
        powers = [np.linalg.matrix_power(n, j) for j in range(order)]
        expect = sum(p / math.factorial(j) for j, p in enumerate(powers[:21]))
        got = qlinalg.matrix_exp(n)
        assert qlinalg._expm_plan(1.0)[:2] == (0, 20)
        assert np.array_equal(got, expect)
        full = sum(p / math.factorial(j) for j, p in enumerate(powers))
        assert np.abs(got - full).max() <= 1.0 / math.factorial(21)

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("norm", [0.6, 7.88, 1430.0])
    def test_zero_first_row_gives_e0(self, dtype, norm):
        # gksl._dense zeroes the trace row of its generator and relies on
        # every propagator keeping the trace exactly
        assert (qlinalg._expm_plan(norm)[0] > 0) == (norm > 1.0)
        gen = rng(31)
        for n in (2, 7, 16, 50):
            a = gen.standard_normal((n, n)).astype(dtype)
            if dtype is complex:
                a += 1j * gen.standard_normal((n, n))
            a[0] = 0.0
            a *= norm / np.linalg.norm(a, 1)
            row = qlinalg.matrix_exp(a)[0]
            assert np.array_equal(row, np.eye(n)[0])

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("norm", [0.6, 7.88, 1430.0])
    def test_zero_rows_give_unit_rows(self, dtype, norm):
        # any zero row i gives row i of exactly e_i^T, for one matrix and for
        # each matrix of a stack: gksl._dense zeroes one trace row in each
        # sector of its generator and relies on every propagator keeping it
        gen = rng(34)
        for n in (2, 7, 16, 50):
            a = gen.standard_normal((3, n, n)).astype(dtype)
            if dtype is complex:
                a += 1j * gen.standard_normal((3, n, n))
            zero = [gen.choice(n, size=size, replace=False) for size in (1, 1 + n // 3, n - 1)]
            for m, rows in zip(a, zero):
                m[rows] = 0.0
                # a negative diagonal dominates every other row, so no
                # eigenvalue lies right of the axis and nothing overflows
                live = np.setdiff1d(np.arange(n), rows)
                m[live, live] = -np.abs(m[live]).sum(axis=1)
            # norms 1, 1/2 and 1/20 of the given one: the stack mixes squarings
            scale = norm * np.array([1.0, 0.5, 0.05]) / np.linalg.norm(a, 1, axis=(1, 2))
            a *= scale[:, None, None]
            stacked = qlinalg.matrix_exp(a)
            for m, rows, out in zip(a, zero, stacked):
                assert np.array_equal(qlinalg.matrix_exp(m)[rows], np.eye(n)[rows])
                assert np.array_equal(out[rows], np.eye(n)[rows])

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_stack_agrees_with_each_matrix(self, dtype):
        # a stack shares one degree, the largest its matrices need, and
        # squares each matrix as often as its own norm asks
        gen = rng(35)
        for n in (1, 2, 7, 16):
            a = gen.standard_normal((6, n, n)).astype(dtype)
            if dtype is complex:
                a += 1j * gen.standard_normal((6, n, n))
            a *= (np.geomspace(1e-3, 30.0, 6) / np.linalg.norm(a, 1, axis=(1, 2)))[:, None, None]
            stacked = qlinalg.matrix_exp(a)
            assert stacked.shape == a.shape and stacked.dtype == a.dtype
            for m, out in zip(a, stacked):
                single = qlinalg.matrix_exp(m)
                assert np.abs(out - single).max() <= 1e-14 * max(1.0, np.abs(single).max())
            for m in a:
                assert_stack_of_one_agrees(m)
        if dtype is complex:
            assert_stack_of_one_agrees(self.HALF_SWEEP_ROUNDS_APART)

    # one matrix sweeps its rows in halves and a stack of one takes one
    # sweep, so BLAS may round their products apart: this one differs by 73
    # ulps of its largest entry with OpenBLAS 0.3 on x86-64, where 2^s = 256
    HALF_SWEEP_ROUNDS_APART = np.array([
        [92.57569044896867 - 58.000317077449985j, 127.57787054935069 - 115.40975348783638j],
        [-2.5369270850675623 + 44.82362429996451j, 27.512926629972572 + 26.91044088379973j],
    ])

    def test_stack_gates(self):
        for shape in ((2, 3, 4), (2, 2, 3, 3), (3,)):
            with pytest.raises(ShapeError):
                qlinalg.matrix_exp(np.zeros(shape))
        with pytest.raises(ContractError):
            qlinalg.matrix_exp(np.full((2, 2, 2), np.nan))

    def test_overflowing_norm_is_a_health_error(self):
        # finite entries whose 1-norm overflows: no scaling can bring it to 1
        m = np.full((2, 2), 1e308)
        for x in (m, m[None], np.stack([np.eye(2), m])):
            with pytest.raises(NumericHealthError, match="1-norm overflows"):
                qlinalg.matrix_exp(x)

    def test_plan(self):
        # degree: the smallest k with nu^k / k! <= 1e-18; q <= 3 minimizes
        # the products, the smallest on a tie
        counts = {}
        for norm in (0.0, 1e-3, 0.15, 0.5, 0.75, 1.0, 1.5, 7.88, 1430.0, 1e5):
            s, k, q = qlinalg._expm_plan(norm)
            nu = norm / 2.0**s
            assert nu <= 1.0 and (s == 0 or nu > 0.5)
            assert nu**k / math.factorial(k) <= 1e-18 < nu ** (k - 1) / math.factorial(k - 1)
            cost = [p - 1 + -(-(k + 1) // p) - 1 for p in range(1, 4)]
            assert q == 1 + cost.index(min(cost))
            counts[norm] = cost[q - 1] + s
        assert (counts[7.88], counts[1430.0], counts[0.15]) == (11, 19, 6)

    def test_degree_reaches_the_term_loop(self):
        # the term-by-term loop stops once a term's norm is below 1e-18
        # (relative, at least 1); the fixed degree is never below it
        gen = rng(32)
        for n in (2, 7, 16):
            for norm in (0.15, 0.9, 7.88, 1430.0):
                m = random_complex(gen, (n, n))
                m *= norm / np.linalg.norm(m, 1)
                s, k, _ = qlinalg._expm_plan(norm)
                a = m / 2.0**s
                term, total = np.eye(n), np.eye(n, dtype=complex)
                for j in range(1, 60):
                    term = term @ a / j
                    total += term
                    if np.linalg.norm(term, 1) <= 1e-18 * max(1.0, np.linalg.norm(total, 1)):
                        break
                assert j <= k

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_peak_memory_within_the_term_loop(self, dtype):
        gen = rng(33)
        for norm in (0.15, 7.88, 1430.0):
            m = gen.standard_normal((256, 256)).astype(dtype)
            if dtype is complex:
                m += 1j * gen.standard_normal((256, 256))
            m *= norm / np.linalg.norm(m, 1)
            peaks = []
            for expm in (qlinalg.matrix_exp, lambda m: parent_matrix_exp(m, dtype)):
                tracemalloc.start()
                try:
                    expm(m)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            assert peaks[0] <= peaks[1]


def parent_matrix_exp(m, dtype=complex):
    """The scaled Taylor loop, one product per term, as it stood before
    Paterson-Stockmeyer evaluation; complex, as before real inputs stayed
    real, unless dtype says otherwise."""
    m = np.asarray(m, dtype=dtype)
    norm = np.linalg.norm(m, 1)
    squarings = max(0, int(np.ceil(np.log2(norm)))) if norm > 1.0 else 0
    a = m / (2.0**squarings)
    term = np.eye(m.shape[0], dtype=dtype)
    total = term.copy()
    for k in range(1, 60):
        term = term @ a / k
        total += term
        if np.linalg.norm(term, 1) <= 1e-18 * max(1.0, np.linalg.norm(total, 1)):
            break
    for _ in range(squarings):
        total = total @ total
    return total


class TestDtypeRule:
    """eig_general and matrix_exp compute in float64 when given float64."""

    @pytest.mark.parametrize("n", [1, 2, 5, 16])
    def test_real_input_stays_real(self, n):
        gen = rng(20 + n)
        m = gen.standard_normal((n, n))
        expm = qlinalg.matrix_exp(m)
        assert expm.dtype == np.float64
        assert np.abs(expm - parent_matrix_exp(m)).max() <= 1e-13 * np.abs(expm).max()
        evals, right, left = qlinalg.eig_general(m)
        assert np.array_equal(evals, np.linalg.eig(m)[0])
        assert np.allclose(left.conj().T @ right, np.eye(n), atol=1e-10)
        assert np.allclose(m @ right, right * evals, atol=1e-12 * max(1.0, np.abs(m).max()))
        sym = m + m.T
        for out in qlinalg.eig_general(sym):
            assert out.dtype == np.float64

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_matrix_exp_agrees_with_the_term_loop(self, dtype):
        # the Paterson-Stockmeyer evaluation rounds differently from the
        # one-product-per-term loop, so agreement is to rounding, not bits
        gen = rng(28)
        for n in (2, 7, 16):
            m = gen.standard_normal((n, n)).astype(dtype)
            if dtype is complex:
                m += 1j * gen.standard_normal((n, n))
            expm = qlinalg.matrix_exp(m)
            assert expm.dtype == m.dtype
            assert np.abs(expm - parent_matrix_exp(m)).max() <= 1e-13 * np.abs(expm).max()

    def test_complex_input_is_bit_identical(self):
        # eig_general on a complex input is numpy's eig, bit for bit
        gen = rng(28)
        for n in (2, 7, 16):
            m = random_complex(gen, (n, n))
            evals, right, left = qlinalg.eig_general(m)
            expect_evals, expect_right = np.linalg.eig(m)
            assert np.array_equal(evals, expect_evals)
            assert np.array_equal(right, expect_right)
            assert np.array_equal(left, np.linalg.inv(expect_right).conj().T)

    def test_integer_input_is_real(self):
        assert qlinalg.matrix_exp([[0, 1], [0, 0]]).dtype == np.float64
        assert qlinalg.as_square([[0, 1], [0, 0]]).dtype == np.complex128


def block_diagonal(gen, blocks):
    """(m, components): the square blocks on the diagonal, rows and columns
    then permuted at random; components[b] lists block b's positions in m,
    ascending."""
    starts = np.cumsum([0, *map(len, blocks)])
    m = np.zeros((starts[-1],) * 2, np.result_type(*blocks))
    for block, a, b in zip(blocks, starts, starts[1:]):
        m[a:b, a:b] = block
    perm = gen.permutation(len(m))
    components = [np.flatnonzero((perm >= a) & (perm < b)) for a, b in zip(starts, starts[1:])]
    return m[np.ix_(perm, perm)], components


def real_block(gen, s):
    return gen.standard_normal((s, s))


def complex_block(gen, s):
    return random_complex(gen, (s, s))


def count_eig_rows(monkeypatch):
    """Record the (stack size, order) of every np.linalg.eig input."""
    shapes = []
    eig = np.linalg.eig

    def counted(a):
        shapes.append(np.shape(a)[:-1])
        return eig(a)

    monkeypatch.setattr(np.linalg, "eig", counted)
    return shapes


# mixed sizes, 1 x 1 blocks, blocks with conjugate pairs; 55 rows in all
SIZES = [1, 4, 2, 1, 8, 3, 1, 12, 2, 5, 3, 1, 12]


class TestReducible:
    """A matrix splitting into components of its nonzero pattern takes one
    eig of the whole matrix, as any other does."""

    @pytest.mark.parametrize("make", [real_block, complex_block], ids=["real", "complex"])
    def test_blocks_are_decomposed_exactly(self, monkeypatch, make):
        gen = rng(40)
        m = block_diagonal(gen, [make(gen, s) for s in SIZES])[0]
        n = len(m)
        shapes = count_eig_rows(monkeypatch)
        evals, right, left = qlinalg.eig_general(m)
        assert shapes == [(1, n)]
        monkeypatch.undo()
        expect_evals, expect_right = np.linalg.eig(m)
        assert np.array_equal(evals, expect_evals)
        assert np.array_equal(right, expect_right)
        if make is real_block:
            # each conjugate pair is adjacent, the one with positive imaginary
            # part first, as the real inverse of the eigenvectors assumes
            first = np.flatnonzero(evals.imag > 0)
            assert first.size >= 5
            assert np.array_equal(evals[first + 1], evals[first].conj())
        else:
            assert np.array_equal(left, np.linalg.inv(expect_right).conj().T)
        scale = np.linalg.norm(m) * np.linalg.norm(right)
        assert np.linalg.norm(m @ right - right * evals) <= 1e-13 * scale
        assert np.abs(left.conj().T @ right - np.eye(n)).max() <= 1e-10

    @pytest.mark.parametrize("make", [real_block, complex_block], ids=["real", "complex"])
    def test_irreducible_input_is_bit_identical(self, monkeypatch, make):
        gen = rng(42)
        n = 49
        dense = make(gen, n)
        # a chain links each index to the next alone, in one direction only
        chain = np.diag(make(gen, n).diagonal()) + np.diag(make(gen, n - 1).diagonal(), 1)
        for m in (dense, chain):
            shapes = count_eig_rows(monkeypatch)
            evals, right, left = qlinalg.eig_general(m)
            assert shapes == [(1, n)]
            monkeypatch.undo()
            expect_evals, expect_right = np.linalg.eig(m)
            assert np.array_equal(evals, expect_evals)
            assert np.array_equal(right, expect_right)
            if make is complex_block:
                assert np.array_equal(left, np.linalg.inv(expect_right).conj().T)
            assert np.abs(left.conj().T @ right - np.eye(n)).max() <= 1e-10


def test_unitary_helper_is_unitary():
    gen = rng(13)
    u = random_unitary(gen, 4)
    assert np.allclose(u @ u.conj().T, np.eye(4))
