"""Dense complex-matrix kernel.

Tensor products, partial traces, Hermitian and general eigendecomposition,
the matrix exponential, Hilbert-Schmidt norms, and the column-stacking
vectorization calculus used by every superoperator in the package.
Inputs are coerced to complex, except that eig_general and matrix_exp
keep a real input in float64, so real data is decomposed and exponentiated
in real arithmetic.

Conventions fixed here and relied on everywhere else:

* vectorize() stacks columns: [[a, b], [c, d]] -> (a, c, b, d).
* |B A C>> = (C^T kron B) |A>>, exposed as vec_product_map(b, c). All
  superoperator construction goes through vec_product_map so the stacking
  convention lives in exactly one place.
* <<A|B>> = Tr[A† B]; in particular <<1|A>> = Tr A.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, NonDiagonalizable, ShapeError

# Relative gate used by every module that checks hermiticity.
HERMITICITY_RTOL = 1e-10

# Eigenvector-matrix condition number above which a matrix is reported
# defective rather than silently decomposed.
DIAG_COND_GATE = 1e8


def _finite_matrix(a, dtype) -> np.ndarray:
    m = np.asarray(a, dtype=dtype)
    if m.ndim != 2:
        raise ShapeError(f"expected a matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ContractError("matrix entries must be finite")
    return m


def as_complex_matrix(a) -> np.ndarray:
    """Coerce to a 2-D complex ndarray, rejecting NaN/Inf entries."""
    return _finite_matrix(a, complex)


def as_square(
    a, d: int | None = None, what: str = "matrix", keep_real: bool = False
) -> np.ndarray:
    """as_complex_matrix, additionally d x d (any square size when d is None).

    keep_real leaves a real input real, as float64, instead of upcasting it.
    """
    m = _finite_matrix(a, float if keep_real and not np.iscomplexobj(a) else complex)
    n = m.shape[0] if d is None else int(d)
    if m.shape != (n, n):
        raise ShapeError(f"{what} is {m.shape}, expected {'square' if d is None else (n, n)}")
    return m


def hs_norm(a) -> float:
    """Hilbert-Schmidt (Frobenius) norm sqrt(sum |a_ij|^2)."""
    return float(np.linalg.norm(np.asarray(a)))


def hs_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product Tr[a† b]."""
    return complex(np.sum(np.conj(a) * b))


def is_hermitian(h: np.ndarray, rtol: float = HERMITICITY_RTOL) -> bool:
    h = np.asarray(h)
    return hs_norm(h - h.conj().T) <= rtol * max(1.0, hs_norm(h))


def require_hermitian(h: np.ndarray, what: str = "matrix") -> np.ndarray:
    h = as_square(h, None, what)
    if not is_hermitian(h):
        raise ContractError(f"{what} is not Hermitian within tolerance")
    return h


def tensor(a, b) -> np.ndarray:
    """Kronecker product; entry (i*p + k, j*q + l) = a[i, j] * b[k, l]."""
    return np.kron(as_complex_matrix(a), as_complex_matrix(b))


def partial_trace(rho, dims: tuple[int, int], keep: int) -> np.ndarray:
    """Trace out one factor of a bipartite operator.

    dims is (d_A, d_B) with subsystem A occupying the leading index slot;
    keep selects the surviving factor (0 for A, 1 for B).
    """
    d_a, d_b = int(dims[0]), int(dims[1])
    r = as_square(rho, d_a * d_b, "operator").reshape(d_a, d_b, d_a, d_b)
    if keep == 0:
        return np.einsum("ijkj->ik", r)
    if keep == 1:
        return np.einsum("ijil->jl", r)
    raise ShapeError(f"keep must be 0 or 1, got {keep!r}")


def eig_hermitian(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending, real) and a unitary eigenvector matrix."""
    h = require_hermitian(h)
    w, v = np.linalg.eigh(h)
    return w, v


def _eigenvector_inverse(real_input: bool, evals: np.ndarray, right: np.ndarray) -> np.ndarray:
    """right^-1, through the real W of eig_general when right came from a real input."""
    if not real_input or np.isrealobj(right):
        return np.linalg.inv(right)
    first = np.flatnonzero(evals.imag > 0)
    w = right.real.copy()
    w[:, first + 1] = right[:, first].imag
    w_inv = np.linalg.inv(w)
    inverse = w_inv.astype(complex)
    # rows a, a + 1 of T^-1 W^-1 are (w_a -+ i w_{a+1}) / 2 for the rows w of W^-1
    re, im = w_inv[first] / 2.0, w_inv[first + 1] / 2.0
    inverse[first] = re - 1j * im
    inverse[first + 1] = re + 1j * im
    return inverse


def eig_general(m) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigendecomposition with biorthogonally normalized left vectors.

    Returns (evals, right, left) where right[:, a] = p_a, left[:, a] = q_a,
    and <<q_a|p_b>> = q_a† p_b = delta_ab. A matrix whose eigenvector basis
    has condition number >= 1e8 is reported defective via NonDiagonalizable,
    which carries evals and right so callers can fall back to methods that
    need no full eigenbasis. The gate reads kappa_F = ||V||_F ||V^-1||_F
    first and takes the SVD-based kappa_2 only when 1e8 <= kappa_F < 1e8 n;
    since kappa_2 <= kappa_F <= n kappa_2 for n x n V, the verdict is that
    of kappa_2 alone.

    A real input is decomposed and inverted in real arithmetic. Its
    eigenvalues come in exact conjugate pairs, the one with positive
    imaginary part first, and each pair's vectors are v and conj(v)
    (LAPACK dgeev). So V = W T with the real W holding Re v, Im v in the
    pair's two columns and T block diagonal with blocks [[1, 1], [i, -i]],
    and V^-1 = T^-1 W^-1 needs only the real inverse. evals and right come
    back real when every eigenvalue is real.
    """
    m = as_square(m, keep_real=True)
    evals, right = np.linalg.eig(m)
    try:
        inverse = _eigenvector_inverse(np.isrealobj(m), evals, right)
    except np.linalg.LinAlgError:
        inverse, cond = None, np.inf
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            cond = np.linalg.norm(right) * np.linalg.norm(inverse)
    if not (cond < DIAG_COND_GATE or cond >= DIAG_COND_GATE * right.shape[0]):
        cond = np.linalg.cond(right)
    if inverse is None or not cond < DIAG_COND_GATE:
        raise NonDiagonalizable(
            f"eigenvector matrix condition {cond:.3e} exceeds gate {DIAG_COND_GATE:.0e}",
            evals=evals,
            right=right,
        )
    # Rows of right^-1 are the dual basis; conjugating turns row a into the
    # column vector q_a with q_a† p_b = delta_ab.
    return evals, right, inverse.conj().T


def matrix_exp(m, method: str = "series") -> np.ndarray:
    """Matrix exponential by scaling and squaring with a truncated Taylor series.

    Needs no eigenvectors, so it serves defective inputs alike and stays an
    independent cross-check of every spectral route. "series" is the only
    method. A real input is exponentiated in float64.
    """
    m = as_square(m, keep_real=True)
    if method != "series":
        raise ContractError(f"unknown method {method!r}")
    norm = np.linalg.norm(m, 1)
    squarings = max(0, int(np.ceil(np.log2(norm)))) if norm > 1.0 else 0
    a = m / (2.0**squarings)
    term = np.eye(m.shape[0], dtype=m.dtype)
    total = term.copy()
    for k in range(1, 60):
        term = term @ a / k
        total += term
        if np.linalg.norm(term, 1) <= 1e-18 * max(1.0, np.linalg.norm(total, 1)):
            break
    for _ in range(squarings):
        total = total @ total
    return total


def vectorize(a) -> np.ndarray:
    """Column-stack a square matrix: [[a, b], [c, d]] -> (a, c, b, d)."""
    return as_square(a).reshape(-1, order="F")


def devectorize(v) -> np.ndarray:
    """Inverse of vectorize; the length must be a perfect square."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    d = int(round(np.sqrt(v.size)))
    if d * d != v.size:
        raise ShapeError(f"length {v.size} is not a perfect square")
    return v.reshape(d, d, order="F")


def vec_product_map(b, c) -> np.ndarray:
    """Superoperator matrix of A -> B A C, i.e. (C^T kron B)."""
    b = as_complex_matrix(b)
    c = as_complex_matrix(c)
    if b.shape[1] != c.shape[0]:
        # Result must act on square A with b.cols = a.rows, a.cols = c.rows.
        raise ShapeError(f"incompatible dims {b.shape} x A x {c.shape}")
    return np.kron(c.T, b)
