"""Dense complex-matrix kernel.

Tensor products, partial traces, Hermitian and general eigendecomposition,
the matrix exponential, Hilbert-Schmidt norms, and the column-stacking
vectorization calculus used by every superoperator in the package.
Inputs are coerced to complex, except that eig_general and matrix_exp
keep a real input in float64, so real data is decomposed and exponentiated
in real arithmetic.

Conventions fixed here and relied on everywhere else:

* vectorize() stacks columns: [[a, b], [c, d]] -> (a, c, b, d).
* |B A C>> = (C^T kron B) |A>>, exposed as vec_product_map(b, c), which
  also takes stacks of B and C and returns the sum over the stack in one
  matrix product. All superoperator construction goes through
  vec_product_map so the stacking convention lives in exactly one place.
* <<A|B>> = Tr[A† B]; in particular <<1|A>> = Tr A.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, ShapeError

# Relative gate used by every module that checks hermiticity.
HERMITICITY_RTOL = 1e-10

# eig_general splits only matrices of at least this order. Below it the
# search, the grouping and the assembly cost more than the smaller eigs
# save. Measured on a 2-core Xeon VM with one BLAS thread (best of 9
# repeats, two runs), for the real Hermitian-basis generators of
# decoherence-free-block, dephasing and exceptional-point GKSL generators,
# the split took 1.4-3.3x the time of one whole eig at n = 9 to 25 and
# 1.0-1.5x at n = 36, but 0.6-0.8x at n = 49, 0.45-0.8x at n = 64 and
# 0.1-0.25x at n = 100.
SPLIT_MIN_ORDER = 40


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


def _component_labels(m: np.ndarray) -> np.ndarray:
    """Each index's component in the nonzero pattern of |m| + |m^T|, labelled
    by the component's smallest index.

    Min-label propagation with pointer jumping: every index takes the
    smallest label among itself and its neighbours, then each label is
    replaced by its own label until none changes; this repeats until a
    round changes nothing. The first round reads the rows alone; when it
    already links every index to index 0 there is one component.
    """
    n = m.shape[0]
    linked = m != 0
    np.fill_diagonal(linked, True)
    labels = linked.argmax(axis=1)
    if not labels.any():
        return labels
    linked |= linked.T
    while True:
        while not np.array_equal(jumped := labels[labels], labels):
            labels = jumped
        spread = np.where(linked, labels, n).min(axis=1)
        if np.array_equal(spread, labels):
            return labels
        labels = spread


def _components_by_size(m: np.ndarray) -> list[np.ndarray]:
    """The components of m, one (k, s) index array per component size s:
    each row lists one component's indices in ascending order."""
    n = m.shape[0]
    if n < SPLIT_MIN_ORDER:
        return [np.arange(n)[None]]
    labels = _component_labels(m)
    size = np.bincount(labels, minlength=n)[labels]
    order = np.argsort(size * n + labels, kind="stable")
    groups, start = [], 0
    for s, count in enumerate(np.bincount(size)):
        if count:
            groups.append(order[start : start + count].reshape(-1, s))
            start += count
    return groups


def _assemble(components: list[np.ndarray], parts: list[np.ndarray], n: int) -> np.ndarray:
    """Scatter per-component results, one (k, s) or (k, s, s) stack per size
    group, into one length-n vector or n x n matrix, zero off the blocks."""
    if components[0].shape == (1, n):
        return parts[0][0]
    out = np.zeros((n,) * (parts[0].ndim - 1), np.result_type(*parts))
    for idx, part in zip(components, parts):
        out[idx if part.ndim == 2 else (idx[:, :, None], idx[:, None, :])] = part
    return out


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


def eig_general(m) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Eigendecomposition with biorthogonally normalized left vectors.

    Returns (evals, right, left) where right[:, a] = p_a, left[:, a] = q_a,
    and <<q_a|p_b>> = q_a† p_b = delta_ab. left is None when right is
    singular to working precision, so that its inverse raises. No verdict
    on the conditioning of right is made here: a caller that needs a
    well-conditioned eigenbasis measures it from right and left.

    A reducible m is decomposed block by block, and exactly so: the
    components of the nonzero pattern of |m| + |m^T| share no entry, so
    each spans an invariant subspace. The components are grouped by size
    and each group takes one stacked eig. A component with indices
    i_1 < ... < i_s is the block m[i, i]; its eigenvalues land at positions
    i_1, ..., i_s in LAPACK's order and its eigenvectors are supported on
    those rows, so right is block diagonal up to that one permutation of
    rows and columns, and each conjugate pair takes two consecutive indices
    of its component. An irreducible m, or one of order below
    SPLIT_MIN_ORDER, takes one eig of the whole matrix.

    A real input is decomposed and inverted in real arithmetic. Its
    eigenvalues come in exact conjugate pairs, the one with positive
    imaginary part first, and each pair's vectors are v and conj(v)
    (LAPACK dgeev). So a block V = W T with the real W holding Re v, Im v
    in the pair's two columns and T block diagonal with blocks
    [[1, 1], [i, -i]], and V^-1 = T^-1 W^-1 needs only the real inverse.
    evals and right come back real when every eigenvalue is real.
    """
    m = as_square(m, keep_real=True)
    n = m.shape[0]
    components = _components_by_size(m)
    if components[0].shape == (1, n):
        stacks = [m[None]]
    else:
        stacks = [m[idx[:, :, None], idx[:, None, :]] for idx in components]
    spectra = [np.linalg.eig(stack) for stack in stacks]
    evals = _assemble(components, [w for w, _ in spectra], n)
    right = _assemble(components, [v for _, v in spectra], n)
    try:
        inverses = [_eigenvector_inverse(np.isrealobj(m), w, v) for w, v in spectra]
    except np.linalg.LinAlgError:
        return evals, right, None
    # Rows of right^-1 are the dual basis; conjugating turns row a into the
    # column vector q_a with q_a† p_b = delta_ab.
    return evals, right, _assemble(components, inverses, n).conj().T


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
