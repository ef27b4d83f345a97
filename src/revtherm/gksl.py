"""Markovian generators, their asymptotic structure, and the classical split.

Generators act on column-stacked operators as d^2 x d^2 matrices, built
exclusively from vec_product_map so the operator-ordering conventions live
in one place. A spectral decomposition classifies eigenvalues into decaying
(Re < 0) and asymptotic (Re ~ 0) sectors, yields the asymptotic projection
superoperator and the support projectors P_A / Q, and a Cesaro time average
provides the same projection without diagonalizability. The split of an
operator into a block-respecting ("noncomputational") and a cross-block
("pure computational") part connects the open-system picture to the
computational one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import compmodel, qlinalg, qstate
from .errors import ContractError, NonDiagonalizable, NumericHealthError, ShapeError

TRACE_FUNCTIONAL_RTOL = 1e-9
ASYMPTOTIC_RTOL = 1e-8
PINF_IDEMPOTENT_TOL = 1e-8
PA_SUPPORT_TOL = 1e-10
TRAJECTORY_TRACE_TOL = 1e-9
TRAJECTORY_EIG_FLOOR = -1e-8
CROSS_BLOCK_RTOL = 1e-10
DEPHASED_FRACTION = 1e-6

# Cesaro fallback horizon/sample count when the generator is defective.
_FALLBACK_HORIZON_SCALE = 1e9
_FALLBACK_SAMPLES = 2**30

_KINDS = ("generator", "adjoint_generator", "trace_preserving", "approximation")


@dataclass(frozen=True)
class Lindbladian:
    """Hamiltonian plus weighted jump operators, all on one d-dim space."""

    hamiltonian: qstate.Hamiltonian
    jumps: tuple

    def __post_init__(self):
        d = self.hamiltonian.dim
        clean = []
        for f, kappa in self.jumps:
            f = qlinalg.as_square(f, d, "jump operator")
            kappa = float(kappa)
            if kappa < 0.0 or not np.isfinite(kappa):
                raise ContractError(f"jump rate {kappa!r} must be nonnegative")
            clean.append((f, kappa))
        object.__setattr__(self, "jumps", tuple(clean))

    @property
    def dim(self) -> int:
        return self.hamiltonian.dim


@dataclass(frozen=True)
class SuperoperatorMatrix:
    """d^2 x d^2 matrix on vectorized operators, tagged by its trace contract.

    kind "generator": the trace functional annihilates it from the left.
    kind "adjoint_generator": it annihilates the vectorized identity.
    kind "trace_preserving": it fixes the trace functional (propagators,
    exact projectors). kind "approximation": no check (finite-horizon
    averages carry O(1/T) trace error by construction).
    """

    matrix: np.ndarray
    kind: str

    def __post_init__(self):
        m = qlinalg.as_square(self.matrix, None, "superoperator")
        d = int(round(np.sqrt(m.shape[0])))
        if d * d != m.shape[0]:
            raise ShapeError(f"superoperator shape {m.shape} is not a square of a square")
        if self.kind not in _KINDS:
            raise ContractError(f"unknown superoperator kind {self.kind!r}")
        tol = TRACE_FUNCTIONAL_RTOL * max(1.0, qlinalg.hs_norm(m))
        trace_functional = qlinalg.vectorize(np.eye(d)).conj()
        if self.kind == "generator":
            residual = np.linalg.norm(trace_functional @ m)
        elif self.kind == "adjoint_generator":
            residual = np.linalg.norm(m @ qlinalg.vectorize(np.eye(d)))
        elif self.kind == "trace_preserving":
            residual = np.linalg.norm(trace_functional @ m - trace_functional)
        else:
            residual = 0.0
        if residual > tol:
            raise ContractError(
                f"superoperator violates its {self.kind} trace contract "
                f"(residual {residual:.3e})"
            )
        object.__setattr__(self, "matrix", m)


def build_superoperator(l: Lindbladian) -> SuperoperatorMatrix:
    """Vectorized generator: commutator part plus jump dissipators.

    -i(vpm(H, I) - vpm(I, H))
      + sum_k kappa/2 (2 vpm(F, F+) - vpm(F+F, I) - vpm(I, F+F)).
    """
    d = l.dim
    h = l.hamiltonian.matrix
    eye = np.eye(d, dtype=complex)
    m = -1j * (qlinalg.vec_product_map(h, eye) - qlinalg.vec_product_map(eye, h))
    for f, kappa in l.jumps:
        ff = f.conj().T @ f
        m += (kappa / 2.0) * (
            2.0 * qlinalg.vec_product_map(f, f.conj().T)
            - qlinalg.vec_product_map(ff, eye)
            - qlinalg.vec_product_map(eye, ff)
        )
    return SuperoperatorMatrix(m, kind="generator")


def build_adjoint_superoperator(l: Lindbladian) -> SuperoperatorMatrix:
    """Heisenberg-picture generator, adjoint in the Hilbert-Schmidt pairing.

    +i(vpm(H, I) - vpm(I, H))
      + sum_k kappa/2 (2 vpm(F+, F) - vpm(F+F, I) - vpm(I, F+F)).

    Built from its own formula rather than by conjugate-transposing
    build_superoperator, so the duality <<A|L rho>> = <<L+A|rho>> is an
    actual cross-check between two constructions.
    """
    d = l.dim
    h = l.hamiltonian.matrix
    eye = np.eye(d, dtype=complex)
    m = 1j * (qlinalg.vec_product_map(h, eye) - qlinalg.vec_product_map(eye, h))
    for f, kappa in l.jumps:
        ff = f.conj().T @ f
        m += (kappa / 2.0) * (
            2.0 * qlinalg.vec_product_map(f.conj().T, f)
            - qlinalg.vec_product_map(ff, eye)
            - qlinalg.vec_product_map(eye, ff)
        )
    return SuperoperatorMatrix(m, kind="adjoint_generator")


def propagate(l: Lindbladian, rho0, t: float) -> np.ndarray:
    """State at time t: devectorize(exp(t L) |rho0>>), with health gates."""
    t = float(t)
    if t < 0.0 or not np.isfinite(t):
        raise ContractError(f"time {t!r} must be nonnegative and finite")
    rho0 = qstate.require_state(rho0, l.dim)
    sup = build_superoperator(l)
    out = qlinalg.devectorize(qlinalg.matrix_exp(t * sup.matrix) @ qlinalg.vectorize(rho0))
    drift = qlinalg.hs_norm(out - out.conj().T)
    if drift > 1e-9 * max(1.0, qlinalg.hs_norm(out)):
        raise NumericHealthError(f"propagated state lost Hermiticity ({drift:.3e})")
    out = (out + out.conj().T) / 2.0
    tr = float(np.real(np.trace(out)))
    if abs(tr - 1.0) > TRAJECTORY_TRACE_TOL:
        raise NumericHealthError(f"propagated state has trace {tr!r}")
    w = np.linalg.eigvalsh(out)
    if w.min() < TRAJECTORY_EIG_FLOOR:
        raise NumericHealthError(f"propagated state has eigenvalue {w.min():.3e}")
    return out


@dataclass(frozen=True)
class AsymptoticDecomposition:
    """Spectral split of a generator into decaying and surviving sectors.

    p_inf projects onto the asymptotic sector: kind "trace_preserving" from
    the eigenvectors, or "approximation" from the Cesaro fallback for
    defective generators. p_a is the Hilbert-space support projector of the
    projected maximally mixed state, q its complement.
    """

    eigenvalues: np.ndarray
    asymptotic_indices: tuple
    p_inf: SuperoperatorMatrix
    p_a: np.ndarray
    q: np.ndarray
    tol: float

    def __post_init__(self):
        evals = np.asarray(self.eigenvalues, dtype=complex)
        for a in self.asymptotic_indices:
            if abs(evals[a].real) > self.tol:
                raise ContractError(
                    f"asymptotic eigenvalue {evals[a]!r} has |Re| above {self.tol!r}"
                )
        m = self.p_inf.matrix
        if self.p_inf.kind == "trace_preserving":
            gap = qlinalg.hs_norm(m @ m - m)
            if gap > PINF_IDEMPOTENT_TOL * max(1.0, qlinalg.hs_norm(m)):
                raise ContractError(f"asymptotic projection is not idempotent ({gap:.3e})")
        for name, p in (("p_a", self.p_a), ("q", self.q)):
            if qlinalg.hs_norm(p @ p - p) > 1e-10 * max(1.0, qlinalg.hs_norm(p)):
                raise ContractError(f"{name} is not idempotent")
        if qlinalg.hs_norm(self.p_a + self.q - np.eye(self.p_a.shape[0])) > 1e-12:
            raise ContractError("p_a and q do not sum to the identity")

    @property
    def dim(self) -> int:
        return self.p_a.shape[0]

    @property
    def asymptotic_frequencies(self) -> np.ndarray:
        """Distinct imaginary parts of the asymptotic eigenvalues."""
        freqs = np.imag(np.asarray(self.eigenvalues)[list(self.asymptotic_indices)])
        return _cluster_values(freqs, self.tol)


def _cluster_values(values: np.ndarray, atol: float) -> np.ndarray:
    """Collapse near-duplicates (within atol) to single representatives."""
    if values.size == 0:
        return values
    out: list[float] = []
    for v in np.sort(values):
        if not out or abs(v - out[-1]) > atol:
            out.append(float(v))
    return np.array(out)


def _asymptotic_tol(evals: np.ndarray, tol) -> float:
    if tol is not None:
        return float(tol)
    radius = float(np.abs(evals).max()) if evals.size else 0.0
    return ASYMPTOTIC_RTOL * max(1.0, radius)


def _support_projectors(p_inf_matrix: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """P_A = support of the asymptotically projected maximally mixed state."""
    image = qlinalg.devectorize(p_inf_matrix @ qlinalg.vectorize(np.eye(d, dtype=complex) / d))
    image = (image + image.conj().T) / 2.0
    w, v = np.linalg.eigh(image)
    keep = w > PA_SUPPORT_TOL
    p_a = (v[:, keep] @ v[:, keep].conj().T) if keep.any() else np.zeros((d, d), complex)
    return p_a, np.eye(d, dtype=complex) - p_a


def _check_spectrum_stability(evals: np.ndarray, tol: float):
    worst = float(evals.real.max()) if evals.size else 0.0
    if worst > tol:
        raise NumericHealthError(
            f"generator spectrum leaks into the right half plane (max Re {worst:.3e})"
        )


def _geometric_mean(e: np.ndarray, n: int) -> np.ndarray:
    """(1/n) sum_{k<n} E^k for n >= 1 by divide and conquer; O(log n) products."""
    d2 = e.shape[0]

    def rec(m: int) -> tuple[np.ndarray, np.ndarray]:
        # returns (sum_{k<m} E^k, E^m)
        if m == 1:
            return np.eye(d2, dtype=complex), e
        s, p = rec(m // 2)
        s = s + p @ s
        p = p @ p
        if m % 2:
            s = s + p
            p = p @ e
        return s, p

    total, _ = rec(n)
    return total / n


def _cesaro_average(
    m: np.ndarray, evals: np.ndarray, gate: float, horizon: float, samples: int
) -> SuperoperatorMatrix:
    """Per-frequency means of exp(t(L - i w)) over the horizon, summed.

    m is the generator matrix and evals its eigenvalues; the frequencies w
    are the clustered imaginary parts of the eigenvalues with |Re| <= gate.
    """
    dt = horizon / samples
    step = qlinalg.matrix_exp(dt * m)
    acc = np.zeros_like(m)
    for lam in _cluster_values(evals.imag[np.abs(evals.real) <= gate], gate):
        acc += _geometric_mean(step * np.exp(-1j * float(lam) * dt), samples)
    return SuperoperatorMatrix(acc, kind="approximation")


def cesaro_projector(l: Lindbladian, horizon: float, samples: int) -> SuperoperatorMatrix:
    """Finite-time average approximating the asymptotic projection.

    For each asymptotic frequency L_, averages exp(t(L - i L_)) over the
    horizon at the given sampling resolution; the per-frequency means are
    summed. Frequencies are the imaginary parts of the near-zero-real-part
    eigenvalues (eigenvalues need no diagonalizability), so this path also
    serves defective generators. Error is O(1/horizon) for a gapped
    decaying sector, and vanishes to rounding when every spectral gap times
    the horizon is a multiple of 2 pi.
    """
    samples = int(samples)
    if samples < 1:
        raise ContractError("sample count must be positive")
    horizon = float(horizon)
    if horizon <= 0.0 or not np.isfinite(horizon):
        raise ContractError("horizon must be positive and finite")
    m = build_superoperator(l).matrix
    evals = np.linalg.eigvals(m)
    gate = _asymptotic_tol(evals, None)
    _check_spectrum_stability(evals, gate)
    return _cesaro_average(m, evals, gate, horizon, samples)


def decompose(l: Lindbladian, tol=None) -> AsymptoticDecomposition:
    """Spectral analysis of the generator with asymptotic projectors.

    Eigenvalues with |Re| <= tol (default 1e-8 * max(1, spectral radius))
    form the asymptotic sector; p_inf is the spectral projector onto it.
    If the generator is defective, eigenvectors are unavailable and p_inf
    falls back to a long-horizon Cesaro average; in that case the
    asymptotic eigenvalues are verified to carry no Jordan chains.
    """
    m = build_superoperator(l).matrix
    try:
        evals, right, left = qlinalg.eig_general(m)
    except NonDiagonalizable:
        evals, right = np.linalg.eigvals(m), None
    gate = _asymptotic_tol(evals, tol)
    _check_spectrum_stability(evals, gate)
    asym = np.abs(evals.real) <= gate
    asym_indices = tuple(np.flatnonzero(asym).tolist())
    if right is not None:
        p_inf = SuperoperatorMatrix(
            right[:, asym] @ left[:, asym].conj().T, kind="trace_preserving"
        )
    else:
        _assert_diagonal_asymptotic_blocks(m, evals, asym_indices, gate)
        gap = float(np.abs(evals.real[~asym]).min()) if not asym.all() else 1.0
        p_inf = _cesaro_average(
            m, evals, gate, _FALLBACK_HORIZON_SCALE / gap, _FALLBACK_SAMPLES
        )
    p_a, q = _support_projectors(p_inf.matrix, l.dim)
    return AsymptoticDecomposition(
        eigenvalues=evals,
        asymptotic_indices=asym_indices,
        p_inf=p_inf,
        p_a=p_a,
        q=q,
        tol=gate,
    )


def _assert_diagonal_asymptotic_blocks(m, evals, asym_indices, gate):
    """Defective path guard: asymptotic eigenvalues must have full
    eigenspaces (no generalized-eigenvector chain reaches the surviving
    sector, or the long-time limit would not exist)."""
    seen: list[complex] = []
    for a in asym_indices:
        lam = evals[a]
        if any(abs(lam - s) <= 10 * gate for s in seen):
            continue
        seen.append(lam)
        algebraic = int(np.sum(np.abs(evals - lam) <= 10 * gate))
        rank = np.linalg.matrix_rank(m - lam * np.eye(m.shape[0]), tol=gate * 1e2)
        geometric = m.shape[0] - rank
        if geometric < algebraic:
            raise NonDiagonalizable(
                f"asymptotic eigenvalue {lam!r} carries a Jordan chain "
                f"(geometric {geometric} < algebraic {algebraic})"
            )


def asymptotic_evolution(
    dec: AsymptoticDecomposition, rho_in, h_inf: qstate.Hamiltonian, s: float
) -> np.ndarray:
    """Slow-time dynamics on the surviving sector.

    Projects the state asymptotically, then rotates it for slow time s
    under h_inf, which must be supported on range(p_a). The fast/slow
    timescale separation justifying this picture is a modeling assumption,
    not something checkable here.
    """
    rho_in = qstate.require_state(rho_in, dec.dim)
    h = qlinalg.as_square(h_inf.matrix, dec.dim, "asymptotic Hamiltonian")
    leak = qlinalg.hs_norm(h - dec.p_a @ h @ dec.p_a)
    if leak > 1e-10 * max(1.0, qlinalg.hs_norm(h)):
        raise ContractError(
            f"asymptotic Hamiltonian leaks outside the surviving support ({leak:.3e})"
        )
    projected = qlinalg.devectorize(dec.p_inf.matrix @ qlinalg.vectorize(rho_in))
    u = qlinalg.matrix_exp(-1j * float(s) * h)
    return u @ projected @ u.conj().T


def four_corners(a, dec: AsymptoticDecomposition):
    """(P_A a P_A, P_A a Q, Q a P_A, Q a Q); the parts sum back to a."""
    a = qlinalg.as_square(a, dec.dim, "operator")
    p, q = dec.p_a, dec.q
    return p @ a @ p, p @ a @ q, q @ a @ p, q @ a @ q


def dfs_commutes(op, partition: compmodel.BasisPartition) -> bool:
    """Does the operator respect the block structure entrywise?

    True iff every cross-block entry has modulus at most
    1e-10 * max(1, ||op||); such operators act within the decoherence-free
    blocks and cannot change the computational state.
    """
    op = qlinalg.as_square(op, partition.dim, "operator")
    off = op - compmodel.pinch(op, partition)
    bound = CROSS_BLOCK_RTOL * max(1.0, qlinalg.hs_norm(op))
    return bool(np.abs(off).max() <= bound)


def split_comp_noncomp(op, partition: compmodel.BasisPartition):
    """(noncomputational, pure computational) parts of an operator.

    The noncomputational part is the blockwise mask (it commutes with the
    block structure); the pure computational part is everything cross-block.
    They sum to the original exactly.
    """
    op = qlinalg.as_complex_matrix(op)
    noncomp = compmodel.pinch(op, partition)
    return noncomp, op - noncomp


def dephasing_check(
    l: Lindbladian,
    partition: compmodel.BasisPartition,
    rho_with_coherence,
    t_resolve: float,
) -> dict:
    """Has cross-block coherence died out by the resolving time?

    Propagates the state to t_resolve and measures the remaining cross-
    block Hilbert-Schmidt mass. classical = residual <= max(1e-6 * initial
    mass, 1e-12); the absolute floor keeps already-diagonal inputs from
    failing on rounding noise.
    """
    rho_with_coherence = qlinalg.as_complex_matrix(rho_with_coherence)
    initial = compmodel.offblock_norm(rho_with_coherence, partition)
    final_state = propagate(l, rho_with_coherence, t_resolve)
    residual = compmodel.offblock_norm(final_state, partition)
    return {
        "residual_coherence": float(residual),
        "classical": bool(residual <= max(DEPHASED_FRACTION * initial, 1e-12)),
    }
