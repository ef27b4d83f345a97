"""Dense complex-matrix kernel.

Tensor products, partial traces, Hermitian and general eigendecomposition,
the matrix exponential, Hilbert-Schmidt norms, and the column-stacking
vectorization calculus used by every superoperator in the package.

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


def as_complex_matrix(a) -> np.ndarray:
    """Coerce to a 2-D complex ndarray, rejecting NaN/Inf entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ShapeError(f"expected a matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ContractError("matrix entries must be finite")
    return m


def as_square(a, d: int | None = None, what: str = "matrix") -> np.ndarray:
    """as_complex_matrix, additionally d x d (any square size when d is None)."""
    m = as_complex_matrix(a)
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


def eig_general(m) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigendecomposition with biorthogonally normalized left vectors.

    Returns (evals, right, left) where right[:, a] = p_a, left[:, a] = q_a,
    and <<q_a|p_b>> = q_a† p_b = delta_ab. A matrix whose eigenvector basis
    has condition number >= 1e8 is reported defective via NonDiagonalizable,
    which carries evals and right so callers can fall back to methods that
    need no full eigenbasis. The gate reads kappa_F = ||V||_F ||V^-1||_F
    first and takes the SVD-based kappa_2 only when kappa_F >= 1e8; since
    kappa_2 <= kappa_F, the verdict is that of kappa_2 alone.
    """
    m = as_square(m)
    evals, right = np.linalg.eig(m)
    try:
        inverse = np.linalg.inv(right)
    except np.linalg.LinAlgError:
        inverse, cond = None, np.inf
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            cond = np.linalg.norm(right) * np.linalg.norm(inverse)
    if not cond < DIAG_COND_GATE:
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
    method.
    """
    m = as_square(m)
    if method != "series":
        raise ContractError(f"unknown method {method!r}")
    norm = np.linalg.norm(m, 1)
    squarings = max(0, int(np.ceil(np.log2(norm)))) if norm > 1.0 else 0
    a = m / (2.0**squarings)
    term = np.eye(m.shape[0], dtype=complex)
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
