"""Dense complex-matrix kernel.

Tensor products, partial traces, Hermitian and general eigendecomposition,
the matrix exponential, Hilbert-Schmidt norms, and the column-stacking
vectorization calculus used by every superoperator in the package.
Inputs are coerced to complex, except that eig_general and matrix_exp
keep a real input in float64, so real data is decomposed and exponentiated
in real arithmetic. Every kernel here takes a whole matrix or a stack of
them; a block structure that a caller finds in its matrices, such as the
components of a generator's real form, lives with that caller (gksl),
which hands the blocks here as stacks.

Conventions fixed here and relied on everywhere else:

* vectorize() stacks columns: [[a, b], [c, d]] -> (a, c, b, d).
* |B A C>> = (C^T kron B) |A>>, exposed as vec_product_map(b, c), which
  also takes stacks of B and C and returns the sum over the stack in one
  matrix product. All superoperator construction goes through
  vec_product_map so the stacking convention lives in exactly one place.
* <<A|B>> = Tr[A† B]; in particular <<1|A>> = Tr A.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractError, NumericHealthError, ShapeError

__all__ = [
    "as_complex_matrix", "as_square", "hs_norm", "is_hermitian", "require_hermitian", "tensor",
    "partial_trace", "eig_hermitian", "eig_general", "matrix_exp", "vectorize", "vec_product_map",
]

# Relative gate used by every module that checks hermiticity.
HERMITICITY_RTOL = 1e-10

def _finite_matrix(a, dtype, stack: bool = False) -> np.ndarray:
    m = np.asarray(a, dtype=dtype)
    if m.ndim != 2 + stack:
        what = "stack of matrices" if stack else "matrix"
        raise ShapeError(f"expected a {what}, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ContractError("matrix entries must be finite")
    return m


def as_complex_matrix(a) -> np.ndarray:
    """Coerce to a 2-D complex ndarray, rejecting NaN/Inf entries."""
    return _finite_matrix(a, complex)


def as_square(
    a, d: int | None = None, what: str = "matrix", keep_real: bool = False, stack: bool = False
) -> np.ndarray:
    """as_complex_matrix, additionally d x d (any square size when d is None).

    keep_real leaves a real input real, as float64, instead of upcasting it;
    stack takes a stack (k, d, d) of such matrices instead of one.
    """
    m = _finite_matrix(a, float if keep_real and not np.iscomplexobj(a) else complex, stack)
    n = m.shape[-1] if d is None else int(d)
    if m.shape[-2:] != (n, n):
        raise ShapeError(f"{what} is {m.shape}, expected {'square' if d is None else (n, n)}")
    return m


def hs_norm(a) -> float:
    """Hilbert-Schmidt (Frobenius) norm sqrt(sum |a_ij|^2)."""
    return float(np.linalg.norm(np.asarray(a)))


def is_hermitian(h: np.ndarray) -> bool:
    h = np.asarray(h)
    return hs_norm(h - h.conj().T) <= HERMITICITY_RTOL * max(1.0, hs_norm(h))


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
    """right^-1 for a stack of eigenvector matrices, through the real W of
    eig_general when right came from a real input."""
    if not real_input or np.isrealobj(right):
        return np.linalg.inv(right)
    block, first = np.nonzero(evals.imag > 0)
    w = right.real.copy()
    w[block, :, first + 1] = right[block, :, first].imag
    w_inv = np.linalg.inv(w)
    inverse = w_inv.astype(complex)
    # rows a, a + 1 of T^-1 W^-1 are (w_a -+ i w_{a+1}) / 2 for the rows w of W^-1
    re, im = w_inv[block, first] / 2.0, w_inv[block, first + 1] / 2.0
    inverse[block, first] = re - 1j * im
    inverse[block, first + 1] = re + 1j * im
    return inverse


def _eig_blocks(stacks: list) -> tuple[list, list, list | None]:
    """(evals, right, inverses) of a block-diagonal matrix held as (k, s, s)
    stacks of its blocks: per stack, the (k, s) eigenvalues, the (k, s, s)
    right eigenvectors and their inverses; inverses is None when any is
    singular to working precision. A caller that works block by block
    (gksl.decompose) takes them as they are, never forming the eigenbasis.
    """
    spectra = [np.linalg.eig(stack) for stack in stacks]
    evals, right = [w for w, _ in spectra], [v for _, v in spectra]
    try:
        inverses = [_eigenvector_inverse(np.isrealobj(s), w, v) for s, (w, v) in zip(stacks, spectra)]
    except np.linalg.LinAlgError:
        inverses = None
    return evals, right, inverses


def eig_general(m) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Eigendecomposition with biorthogonally normalized left vectors.

    Returns (evals, right, left) where right[:, a] = p_a, left[:, a] = q_a,
    and <<q_a|p_b>> = q_a† p_b = delta_ab. left is None when right is
    singular to working precision, so that its inverse raises. No verdict
    on the conditioning of right is made here: a caller that needs a
    well-conditioned eigenbasis measures it from right and left. evals and
    right are those of np.linalg.eig of m, bit for bit: one eig of the
    whole matrix, as the stack of one of _eig_blocks.

    A real input is decomposed and inverted in real arithmetic. Its
    eigenvalues come in exact conjugate pairs, the one with positive
    imaginary part first, and each pair's vectors are v and conj(v)
    (LAPACK dgeev). So V = W T with the real W holding Re v, Im v in the
    pair's two columns and T block diagonal with blocks [[1, 1], [i, -i]],
    and V^-1 = T^-1 W^-1 needs only the real inverse. evals and right come
    back real when every eigenvalue is real.
    """
    m = as_square(m, keep_real=True)
    (evals,), (right,), inverses = _eig_blocks([m[None]])
    # Rows of right^-1 are the dual basis; conjugating turns row a into the
    # column vector q_a with q_a† p_b = delta_ab.
    return evals[0], right[0], None if inverses is None else inverses[0][0].conj().T


def _expm_plan(norms) -> tuple[np.ndarray, int, int]:
    """(s, k, q) for matrix_exp of a stack whose matrices have the 1-norms
    norms: each matrix's squarings, the Taylor degree of the largest scaled
    norm nu and the Paterson-Stockmeyer block length."""
    squarings = np.ceil(np.log2(np.maximum(norms, 1.0))).astype(int)
    nu = float(np.ldexp(norms, -squarings).max(initial=0.0))
    degree, bound = 0, 1.0
    while bound > 1e-18:
        degree += 1
        bound *= nu / degree
    q = min(range(1, min(degree + 2, 4)), key=lambda q: q + -(-(degree + 1) // q))
    return squarings, degree, q


def _taylor(m: np.ndarray, squarings: np.ndarray, degree: int, q: int, halves: bool) -> np.ndarray:
    """T_degree(A) for each matrix of a stack m (k, n, n), A = m[i] /
    2^squarings[i], by Horner in A^q over blocks of q.

    Row r of sum_i B_i (A^q)^i needs only row r of each B_i, so with halves
    each half of the rows takes its own Horner sweep in place, with one
    half-size buffer beside A^2 ... A^q; otherwise one sweep takes a
    full-size buffer. A^1 is read from m with 2^-squarings folded into its
    coefficients, so A itself is dropped once the powers are formed;
    scaling by a power of two is exact while the folded coefficient stays a
    normal number, ||m||_1 <= 2^960.
    """
    # in the dtype of m, so that no operand is cast through a buffer
    scale = np.ldexp(1.0, -squarings).astype(m.dtype)[:, None, None]
    a = m * scale if np.any(squarings) else m
    powers, top = [m], a
    for _ in range(q - 1):
        top = top @ a
        powers.append(top)
    del a
    n = m.shape[-1]
    bounds = (0, -(-n // 2), n) if halves else (0, n)
    total, work = np.zeros(m.shape, m.dtype), np.empty((len(m), bounds[1], n), m.dtype)
    # the diagonal entries (r, r) of every matrix, as a view
    diagonal = total.reshape(len(m), n * n)[:, :: n + 1]
    blocks = -(-(degree + 1) // q)
    for start, stop in zip(bounds, bounds[1:]):
        rows, buf, diag = total[:, start:stop], work[:, : stop - start], diagonal[:, start:stop]
        low = [power[:, start:stop] for power in powers]
        for i in range(blocks - 1, -1, -1):
            if i < blocks - 1:
                np.matmul(rows, top, out=buf)
                rows[...] = buf
            for j in range(1, min(q, degree + 1 - i * q)):
                c = 1.0 / math.factorial(i * q + j)
                np.multiply(low[j - 1], c * scale if j == 1 else c, out=buf)
                rows += buf
            diag += 1.0 / math.factorial(i * q)
    return total


def matrix_exp(m, method: str = "series") -> np.ndarray:
    """Matrix exponential by scaling and squaring with a truncated Taylor series.

    Needs no eigenvectors, so it serves defective inputs alike and stays an
    independent cross-check of every spectral route. "series" is the only
    method. A real input is exponentiated in float64. m is one n x n
    matrix or a stack (k, n, n) of them, and either is exponentiated as a
    stack, in one pass, each matrix with its own scaling; one matrix is
    a stack of one whose rows are swept in halves (_taylor). Each result
    agrees with that of the matrix alone to rounding.

    * Scaling: A = m / 2^s with s = ceil(log2 ||m||_1) when ||m||_1 > 1,
      else s = 0, so nu = ||A||_1 <= 1; the result is T_k(A)^(2^s).
    * Degree: the smallest k with nu^k / k! <= 1e-18, a bound on the
      1-norm of the first omitted term; k = 20 at nu = 1, 12 at nu = 0.15.
      A stack takes the largest degree of its matrices.
    * Evaluation (Paterson and Stockmeyer, SIAM J. Comput. 2:60, 1973;
      Higham, Functions of Matrices, 2008, sec. 4.2): the k + 1
      coefficients c_j = 1/j! are cut into blocks of q, and
      T_k(A) = sum_i B_i (A^q)^i, B_i = sum_{j<q} c_{iq+j} A^j, is taken by
      Horner in A^q. Each block's constant term is added on the diagonal,
      so any zero row i of m gives row i of exactly e_i^T, in every matrix
      of a stack (gksl._dense zeroes one trace row in each component of its
      generator and relies on it to keep the trace).
    * Products: q - 1 for A^2 ... A^q, one per block after the first, and s
      squarings. q <= 3 minimizes the first two, the smallest q on a tie:
      11 products at ||m||_1 = 7.88 (k = 20, q = 3, s = 3), 19 at 1430 and
      6 at 0.15, where one product per term takes k + s = 23, 29 and 12.
      q = 4 would save one product at k = 15, 18 and 19 but hold a fifth
      n x n array. With q <= 3 the work holds A^2, A^3, the sum and one
      buffer per matrix, as many arrays as a term-by-term sum; the half
      sweep of one matrix halves the buffer, so it holds less.
      A matrix of a stack is squared only as often as its own s asks.
    """
    m = as_square(m, keep_real=True, stack=np.ndim(m) == 3)
    if method != "series":
        raise ContractError(f"unknown method {method!r}")
    stack = m.reshape((-1,) + m.shape[-2:])
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(stack, 1, axis=(1, 2))
    if not np.isfinite(norms).all():
        raise NumericHealthError("matrix 1-norm overflows the float range")
    squarings, degree, q = _expm_plan(norms)
    # one matrix, a caller's and possibly large, sweeps its rows in halves;
    # a stack, of small matrices in practice, takes one sweep
    total = _taylor(stack, squarings, degree, q, halves=m.ndim == 2)
    # all matrices together while each needs another squaring, then only
    # those that still do
    shared, most = min(squarings.tolist(), default=0), max(squarings.tolist(), default=0)
    scratch = np.empty_like(total) if shared else None
    for j in range(most):
        if j < shared:
            np.matmul(total, total, out=scratch)
            total, scratch = scratch, total
        else:
            live = squarings > j
            total[live] = total[live] @ total[live]
    return total.reshape(m.shape)


def vectorize(a) -> np.ndarray:
    """Column-stack a square matrix: [[a, b], [c, d]] -> (a, c, b, d)."""
    return as_square(a).reshape(-1, order="F")


def vec_product_map(b, c) -> np.ndarray:
    """Superoperator matrix of A -> B A C, i.e. (C^T kron B); for equal-length
    stacks b (m, p, q) and c (m, r, s), that of A -> sum_t B_t A C_t. A is
    square, so q = r.

    Entry (j p + i, l q + k) of sum_t C_t^T kron B_t is
    sum_t B_t[i, k] C_t[l, j]. With rows regrouped by (i, k) and columns by
    (l, j) each term is rank one, so the sum is one (pq x m)(m x rs)
    product of the row-major vec(B_t) and vec(C_t), followed by one
    transpose copy.
    """
    b = np.asarray(b, dtype=complex)
    c = np.asarray(c, dtype=complex)
    if b.ndim == c.ndim == 2:
        b, c = b[None], c[None]
    if b.ndim != 3 or c.ndim != 3 or len(b) != len(c):
        raise ShapeError(
            f"expected two matrices or two stacks of one length, not {b.shape}, {c.shape}"
        )
    if not (np.isfinite(b).all() and np.isfinite(c).all()):
        raise ContractError("matrix entries must be finite")
    (m, p, q), (_, r, s) = b.shape, c.shape
    if q != r:
        # Result must act on square A with b.cols = a.rows, a.cols = c.rows.
        raise ShapeError(f"incompatible dims {b.shape[1:]} x A x {c.shape[1:]}")
    x = (b.reshape(m, p * q).T @ c.reshape(m, r * s)).reshape(p, q, r, s)
    return x.transpose(3, 0, 2, 1).reshape(s * p, r * q)
