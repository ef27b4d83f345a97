import numpy as np
import pytest

from revtherm import qlinalg
from revtherm.errors import ContractError, NonDiagonalizable, ShapeError

from helpers import random_complex, random_density, random_hermitian, random_unitary, rng


def test_vectorize_stacks_columns():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(qlinalg.vectorize(a), np.array([1, 3, 2, 4], dtype=complex))


def test_devectorize_inverts_vectorize():
    gen = rng(7)
    for d in (2, 3, 5):
        a = random_complex(gen, (d, d))
        assert np.allclose(qlinalg.devectorize(qlinalg.vectorize(a)), a)


def test_devectorize_rejects_non_square_length():
    with pytest.raises(ShapeError):
        qlinalg.devectorize(np.zeros(5))


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


def test_hs_inner_is_trace_pairing():
    gen = rng(3)
    a = random_complex(gen, (3, 3))
    b = random_complex(gen, (3, 3))
    assert np.isclose(qlinalg.hs_inner(a, b), np.trace(a.conj().T @ b))
    # <<1|A>> = Tr A
    assert np.isclose(qlinalg.hs_inner(np.eye(3), a), np.trace(a))


def test_hs_norm_matches_inner():
    gen = rng(4)
    a = random_complex(gen, (4, 4))
    assert np.isclose(qlinalg.hs_norm(a) ** 2, qlinalg.hs_inner(a, a).real)


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
        with pytest.raises(NonDiagonalizable):
            qlinalg.eig_general(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestMatrixExp:
    def test_diagonal_exact(self):
        m = np.diag([0.0, -1.0, 2.0j])
        assert np.allclose(qlinalg.matrix_exp(m), np.diag(np.exp(np.diag(m))))

    def test_routes_agree(self):
        # auto takes the eig route on these; the series route is independent
        gen = rng(10)
        for _ in range(8):
            m = random_complex(gen, (4, 4))
            e1 = qlinalg.matrix_exp(m)
            e2 = qlinalg.matrix_exp(m, method="series")
            assert np.allclose(e1, e2, atol=1e-9 * max(1.0, qlinalg.hs_norm(e1)))

    def test_nilpotent_falls_back(self):
        n = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert np.allclose(qlinalg.matrix_exp(n), np.eye(2) + n)

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


def test_unitary_helper_is_unitary():
    gen = rng(13)
    u = random_unitary(gen, 4)
    assert np.allclose(u @ u.conj().T, np.eye(4))
