"""Markovian generators, their asymptotic structure, and the classical split.

build_superoperator gives the d^2 x d^2 generator M on column-stacked
operators, one stacked vec_product_map over its n + 2 terms (K and K+
sandwiching, one term per jump), so the operator-ordering conventions live
in one place. A generator preserves Hermiticity, so in the orthonormal
Hermitian basis {E_ii, (E_ij + E_ji)/sqrt2, i(E_ij - E_ji)/sqrt2} it is a
real matrix R (Alicki & Lendi, Quantum Dynamical Semigroups and
Applications, LNP 286, 1987); a fixed sparse unitary takes M there by index
gathers, and _real_form alone does it. R's components, the connected
components of its nonzero pattern, are the one block structure of every
dense path (_components). They are found, grouped by size and scattered
back here alone; qlinalg takes their blocks as stacks, one eig or one
matrix_exp per group of a size, and knows nothing of them. A block-diagonal operating context splits R
into coherence sectors between pairs of blocks (Baumgartner & Narnhofer,
J. Phys. A 41:395303, 2008), and a weak symmetry, such as a jump that
shifts a conserved charge, splits it by coherence order (Buca & Prosen,
New J. Phys. 14:073007, 2012; Albert & Jiang, PRA 89:022118, 2014). A
generator that splits is found from the d x d patterns of K and the jumps
(_coarse_labels), so its R is never formed whole; each coarse block is
gathered from M alone and split further by its own entries.

Propagation takes one of three routes, chosen per trajectory after one
shared cap on its work. A generator whose Hamiltonian and jumps are all
diagonal (pure dephasing) acts on each matrix entry alone, L E_ij =
lambda_ij E_ij, so its states are exact entrywise exponentials. When the
time grid needs few distinct steps for the work of one propagator, the sum
of s^3 over the blocks that hold R's components, the dense route
exponentiates R component by component and applies it to each state. Otherwise trajectory applies
L rho = K rho + rho K+ + sum G rho G+ through d x d products only,
marching once along the sorted time grid with a scaled Taylor series
(Al-Mohy & Higham, SIAM J. Sci. Comput. 33:488, 2011). Each route gets
the positive times alone and returns exactly Hermitian states.

decompose alone builds and checks the asymptotic structure: one real eig
per component of R classifies eigenvalues into decaying (Re < 0) and
asymptotic (Re ~ 0) sectors and yields the exact asymptotic projection,
from the eigenbasis or, for a defective generator, from the null spaces
of L - lambda over the asymptotic eigenvalues, kept per component and in
the Hermitian basis, plus the support projectors P_A / Q; each gate sums
its measure in quadrature over the components. A Cesaro time average of
the same components at the frequencies decompose found, stepped on the
series route without eigenvectors, is the independent cross-check of that
projection (cesaro_distance). The split of an operator into a
block-respecting ("noncomputational") and a cross-block ("pure
computational") part connects the open-system picture to the
computational one.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import compmodel, qlinalg, qstate
from .errors import ContractError, NonDiagonalizable, NumericHealthError, ShapeError
from .errors import require_nonnegative, require_positive

__all__ = [
    "Lindbladian", "SuperoperatorMatrix", "build_superoperator", "trajectory", "propagate",
    "AsymptoticDecomposition", "decompose", "cesaro_projector", "cesaro_distance",
    "asymptotic_evolution", "four_corners", "dfs_commutes", "split_comp_noncomp",
    "dephasing_check", "TRAJECTORY_TRACE_TOL", "DEPHASED_FRACTION",
]

TRACE_FUNCTIONAL_RTOL = 1e-9
ASYMPTOTIC_RTOL = 1e-8
PINF_IDEMPOTENT_TOL = 1e-8
# decompose builds its projector from the eigenbasis only when its condition
# kappa_F = ||V||_F ||V^-1||_F is below this; else from null spaces. The
# eigenbasis projector's error is up to eps kappa_F, here 2e-10, fifty times
# under PINF_IDEMPOTENT_TOL. A 2 x 2 Jordan block split by rounding lands at
# kappa ~ eps^-1/2 ~ 7e7, far above it; every diagonalizable generator of the
# tests and the benchmark is below 1e4.
EIGENBASIS_COND_GATE = 1e6
PA_SUPPORT_TOL = 1e-10
TRAJECTORY_TRACE_TOL = 1e-9
TRAJECTORY_EIG_FLOOR = -1e-8
DEPHASED_FRACTION = 1e-6

# Largest h ||L|| for which the degree-m Taylor polynomial of exp(h L) has
# backward error below 2^-53 (Al-Mohy & Higham 2011, Tables A.3 and 3.1).
_TAYLOR_DEGREE = np.array(list(range(1, 31)) + [35, 40, 45, 50, 55])
_TAYLOR_THETA = np.array([
    2.29e-16, 2.58e-8, 1.39e-5, 3.40e-4, 2.40e-3, 9.07e-3, 2.38e-2, 5.00e-2, 8.96e-2, 1.44e-1,
    2.14e-1, 3.00e-1, 4.00e-1, 5.14e-1, 6.41e-1, 7.81e-1, 9.31e-1, 1.09, 1.26, 1.44,
    1.62, 1.82, 2.01, 2.22, 2.43, 2.64, 2.86, 3.08, 3.31, 3.54,
    4.7, 6.0, 7.2, 8.5, 9.9,
])
_TAYLOR_TOL = 2.0**-53

# Cap on the applications of L that the Taylor plan of one trajectory
# march needs to reach its last time; it bounds the run time (see
# trajectory). It is what that plan needs for work t_max * bound = 1e5
# (55 terms times 10,102 steps), so every march within that work runs.
MAX_MARCH_WORK = 555_610

# trajectory takes the dense route when the grid needs at most
# DENSE_WORK // W distinct propagators, W the sum of s^3 over the coarse
# blocks of order s (_coarse_labels): d^6 for one block, two propagators at
# d = 12 (an even grid plus a resolving time) and none from d = 14; 740 for
# the embedded exceptional point at d = 12 and 402 at d = 16, 50 for the
# thermal damping ladder at d = 16. TIME_ULPS is how far, in ulps of the
# time, a reused step may land from it.
DENSE_WORK = 2 * 12**6
TIME_ULPS = 4

# _dense exponentiates the propagators of as many steps at once as hold at
# most this many entries of the real form's blocks, in a few megabytes of
# working memory; one component takes a step at a time, as a stack shares
# its largest Taylor degree: one of two benchmark steps of R whole at d = 12
# took 1.1-1.2x the time of two exponentials.
SECTOR_CHUNK = 2**16

# decompose splits the real form R by its components (_components) only from
# this order d^2 on; below it R takes one eig whole, as the search, the
# grouping and the assembly cost more than the smaller eigs save. Measured
# on a 2-core Xeon VM with one BLAS thread (best of 9 repeats, two runs),
# for the real Hermitian-basis generators of decoherence-free-block,
# dephasing and exceptional-point GKSL generators, the split took 1.4-3.3x
# the time of one whole eig at n = 9 to 25 and 1.0-1.5x at n = 36, but
# 0.6-0.8x at n = 49, 0.45-0.8x at n = 64 and 0.1-0.25x at n = 100.
SPLIT_MIN_ORDER = 40

# From this order d^2 on, _dense exponentiates a real form by its
# components, and _components gathers a generator that splits block by
# block instead of forming its real form whole. Measured like SPLIT_MIN_ORDER
# (median of 61) on decoherence-free-block, dephasing and exceptional-point
# generators: the components' stacked matrix_exp took 1.4-2.6x the time of
# the whole one at n = 16 to 49, 0.9-1.0x at n = 64 and 81 and 0.45-0.75x at
# n = 100; the dense route on a grid of two propagators, build and matvecs
# included, 1.1-1.35x at n = 64 and 81, 0.65-1.03x at 100, 0.5-0.65x at 121,
# 0.25-0.5x at 144 and 0.07-0.11x at 256; the blockwise gather (best of 200)
# 1.5-1.8x the whole form and its split at n = 64 and 81, 1.2-1.5x at 100
# and 121, 0.9-1.1x at 144, 0.7-0.9x at 256 and 0.5-0.65x at 576.
EXPM_SPLIT_MIN_ORDER = 100

_KINDS = ("generator", "trace_preserving", "approximation")


@dataclass(frozen=True)
class Lindbladian:
    """Hamiltonian plus weighted jump operators, all on one d-dim space.

    The Hamiltonian is kept as its Hermitian part (H + H+)/2, which leaves an
    exactly Hermitian input unchanged bit for bit; so the generator
    preserves Hermiticity up to rounding alone.
    """

    hamiltonian: qstate.Hamiltonian
    jumps: tuple

    def __post_init__(self):
        h = self.hamiltonian.matrix
        object.__setattr__(self, "hamiltonian", qstate.Hamiltonian((h + h.conj().T) / 2.0))
        clean = tuple(
            (qlinalg.as_square(f, self.dim, "jump operator"), require_nonnegative(k, "jump rate"))
            for f, k in self.jumps
        )
        object.__setattr__(self, "jumps", clean)

    @property
    def dim(self) -> int:
        return self.hamiltonian.dim


@dataclass(frozen=True)
class SuperoperatorMatrix:
    """d^2 x d^2 matrix on vectorized operators, tagged by its trace contract.

    kind "generator": the trace functional annihilates it from the left.
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


def _dagger(a: np.ndarray) -> np.ndarray:
    # a.conj() of a real array is a itself, not a copy: for a real r,
    # r @ _dagger(r) then multiplies r by a view of its own transpose, as
    # r @ r.conj().T does, and matmul evaluates both the same way
    return a.conj().swapaxes(-1, -2)


def _generator_terms(l: Lindbladian) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(K, F, kappa F): K = -iH - 1/2 sum_k kappa_k F_k+ F_k and the jumps
    stacked along the first axis, bare and weighted by their rates."""
    d = l.dim
    f = np.array([f for f, _ in l.jumps], dtype=complex).reshape(-1, d, d)
    kf = np.array([kappa for _, kappa in l.jumps]).reshape(-1, 1, 1) * f
    k = -1j * l.hamiltonian.matrix - 0.5 * (_dagger(kf) @ f).sum(axis=0)
    return k, f, kf


def build_superoperator(l: Lindbladian) -> SuperoperatorMatrix:
    """Vectorized generator of L rho = K rho + rho K+ + sum_k kappa_k F_k rho F_k+.

    One stacked vec_product_map over its n + 2 terms:
    1 kron K + conj(K) kron 1 + sum_k kappa_k conj(F_k) kron F_k.
    """
    k, f, kf = _generator_terms(l)
    eye = np.eye(l.dim)[None]
    m = qlinalg.vec_product_map(
        np.concatenate((k[None], eye, kf)), np.concatenate((eye, _dagger(k)[None], _dagger(f)))
    )
    return SuperoperatorMatrix(m, kind="generator")


@functools.lru_cache(maxsize=8)
def _hermitian_basis(d: int) -> np.ndarray:
    """Column-stacked positions in the order of the orthonormal Hermitian basis.

    The basis is E_ii (i < d), then (E_ij + E_ji)/sqrt2, then
    i(E_ij - E_ji)/sqrt2 over the pairs i < j. Returned are the positions
    of the diagonal entries, then of the (i, j) and then of the (j, i)
    entries; read-only, as it is shared between calls.
    """
    i, j = np.triu_indices(d, 1)
    order = np.concatenate([np.arange(d) * (d + 1), i + j * d, j + i * d])
    order.flags.writeable = False
    return order


def _pair_parts(t: np.ndarray, p: int, axis: int, phase: complex) -> np.ndarray:
    """t, changed in place along axis, which holds p diagonal entries, then
    entries (i, j) of pairs i < j and then entries (j, i) of the same
    pairs: (u + l)/sqrt2 replaces each u = (i, j) and phase (u - l)/sqrt2
    each l = (j, i). Phase -i takes B+ t along that axis, +i takes t B."""
    q = (t.shape[axis] - p) // 2
    at = (slice(None),) * axis
    upper, lower = t[at + (slice(p, p + q),)], t[at + (slice(p + q, None),)]
    diff = upper - lower
    upper += lower
    upper *= math.sqrt(0.5)
    np.multiply(diff, phase * math.sqrt(0.5), out=lower)
    return t


def _from_hermitian_basis(a: np.ndarray, axis: int) -> np.ndarray:
    """B a for axis 0, a B+ for axis 1: the inverse of the gather and
    _pair_parts of _real_form and _coordinates.

    Along that axis a holds d populations, then the symmetric and then the
    antisymmetric parts of its q pairs. The populations go back to the
    diagonal entries, the entries (i, j) = (sym + phase anti)/sqrt2 and
    (j, i) = (sym - phase anti)/sqrt2, with phase +i for axis 0 and -i for
    axis 1. It writes straight into its result and copies no input.
    """
    d = math.isqrt(a.shape[axis])
    at = _hermitian_basis(d)
    q = (a.shape[axis] - d) // 2
    before = (slice(None),) * axis
    sym, anti = a[before + (slice(d, d + q),)], a[before + (slice(d + q, None),)]
    phase = (1j if axis == 0 else -1j) * math.sqrt(0.5)
    out = np.empty(a.shape, dtype=complex)
    out[before + (at[:d],)] = a[before + (slice(0, d),)]
    out[before + (at[d : d + q],)] = math.sqrt(0.5) * sym + phase * anti
    out[before + (at[d + q :],)] = math.sqrt(0.5) * sym - phase * anti
    return out


def _real_form(m: np.ndarray, layout: tuple | None = None) -> np.ndarray:
    """B+ M B for a generator M on column-stacked operators: the real form R
    whole, or, given layout (rows, cols, base, loc), its entries (rows[e],
    cols[e]) within pair-closed blocks of the Hermitian basis, flat, entry
    (u, v) at base[u] + loc[v].

    B has at most two nonzeros per row and per column, so either is one
    gather of M at the column-stacked positions (_hermitian_basis) and the
    same pair arithmetic on both axes (_pair_parts; flat, the partner of
    (u, v) is (u + q, v), then (u, v + q)): a block holds R's entries, bit
    for bit. R is real as M preserves Hermiticity; the imaginary residue is
    dropped after a gate at the generator trace contract's allowance.
    """
    d = math.isqrt(m.shape[0])
    at = _hermitian_basis(d)
    if layout is None:
        t = _pair_parts(_pair_parts(m[at[:, None], at], d, 0, -1j), d, 1, 1j)
    else:
        rows, cols, base, loc = layout
        t = m[at[rows], at[cols]]
        q = (at.size - d) // 2
        for ends, shift, phase in ((rows, base, -1j), (cols, loc, 1j)):
            e = np.flatnonzero((ends >= d) & (ends < d + q))
            f = e + shift[ends[e] + q] - shift[ends[e]]
            upper, lower = t[e], t[f]
            t[e] = (upper + lower) * math.sqrt(0.5)
            t[f] = (upper - lower) * (phase * math.sqrt(0.5))
    residue = np.linalg.norm(t.imag)
    if residue > TRACE_FUNCTIONAL_RTOL * max(1.0, np.linalg.norm(t)):
        raise NumericHealthError(
            f"generator does not preserve Hermiticity (imaginary residue {residue:.3e})"
        )
    return t.real.copy()


def _column_stacked(p: np.ndarray) -> np.ndarray:
    """B P B+: a superoperator in the Hermitian basis back on column-stacked operators."""
    return _from_hermitian_basis(_from_hermitian_basis(p, 0), 1)


def _coordinates(rho: np.ndarray) -> np.ndarray:
    """The d^2 real coordinates of a complex d x d operator's Hermitian part
    in the Hermitian basis: B+ vec(rho), real part, by _real_form's gather
    and _pair_parts."""
    d = rho.shape[0]
    return _pair_parts(rho.reshape(-1, order="F")[_hermitian_basis(d)], d, 0, -1j).real


def _operators(coords: np.ndarray) -> np.ndarray:
    """The stack (n, d, d) of operators whose real coordinates are the
    columns of coords (d^2, n); each is exactly Hermitian."""
    d = math.isqrt(coords.shape[0])
    return _from_hermitian_basis(coords, 0).T.reshape(-1, d, d).transpose(0, 2, 1)


def _matrix_free_form(l: Lindbladian):
    """(K, G, mu, bound) with L rho = K rho + rho K+ + sum_k G_k rho G_k+ + mu rho.

    Jumps are made traceless, G = sqrt(kappa) (F - tr F / d), and the
    difference moves into the Hamiltonian as i kappa/2 (c* F - c F+) with
    c = tr F / d: the GKSL gauge freedom, so L itself is unchanged. K =
    -iH' - 1/2 sum G+G is shifted by its trace mean; mu = tr L / d^2 is the
    real scalar that shift leaves behind (Al-Mohy & Higham 2011, sec. 3.1).
    bound = 2 ||K||_2 + sum ||G||_2^2 bounds the norm of the shifted L on
    Hilbert-Schmidt space.
    """
    d = l.dim
    eye = np.eye(d)
    h = l.hamiltonian.matrix
    gs = np.empty((len(l.jumps), d, d), dtype=complex)
    for i, (f, kappa) in enumerate(l.jumps):
        c = np.trace(f) / d
        gs[i] = np.sqrt(kappa) * (f - c * eye)
        h = h + 0.5j * kappa * (np.conj(c) * f - c * f.conj().T)
    k = -1j * h - 0.5 * np.einsum("kji,kjl->il", gs.conj(), gs)
    shift = np.trace(k) / d
    k = k - shift * eye
    bound = 2.0 * np.linalg.norm(k, 2) + sum(np.linalg.norm(g, 2) ** 2 for g in gs)
    return k, gs, 2.0 * shift.real, float(bound)


def _taylor_plan(a: float) -> tuple[float, float]:
    """(degree m, steps s) covering h ||L|| = a: min m * s with a / s <= theta_m.

    Past a / theta_55 = 2^53 the rounding up no longer counts and the
    highest degree is the cheapest per unit of a; s stays a float there, so
    that the plan of a march to t = 1e300 is finite or inf, never an error.
    """
    if a > _TAYLOR_THETA[-1] * 2.0**53:
        return float(_TAYLOR_DEGREE[-1]), a / float(_TAYLOR_THETA[-1])
    steps = np.ceil(a / _TAYLOR_THETA)
    best = int(np.argmin(_TAYLOR_DEGREE * steps))
    return float(_TAYLOR_DEGREE[best]), float(steps[best])


def _march(rho: np.ndarray, dt: float, k, gs, mu: float, bound: float) -> np.ndarray:
    """exp(dt L) rho for Hermitian rho by the scaled Taylor series.

    Every term is built as Y + Y+, so each term and the state stay exactly
    Hermitian. A step's series stops once two successive term norms sum to
    at most 2^-53 |tr F| / sqrt(d), a lower bound on 2^-53 ||F|| for the
    step's result F; tr F is known in advance, exp(-mu h) tr rho.
    """
    a = dt * bound
    if a == 0.0:
        return rho
    m, s = _taylor_plan(a)
    h = dt / s
    m, s = int(m), int(s)
    d, n = k.shape[0], gs.shape[0]
    # rows [h K; sqrt(h) G_1; ...]: one product gives h K x and every sqrt(h) G_k x
    left = np.concatenate([h * k, np.sqrt(h) * gs.reshape(n * d, d)])
    # [sqrt(h) G_1 x, ...] @ right = h/2 sum G_k x G_k+; Y + Y+ doubles it
    right = (0.5 * np.sqrt(h)) * gs.conj().transpose(0, 2, 1).reshape(n * d, d)
    decay = float(np.exp(mu * h))
    floor = _TAYLOR_TOL * float(np.trace(rho).real) / (decay * np.sqrt(d))
    for _ in range(s):
        total = rho.copy()
        term = rho
        previous = np.inf
        for j in range(1, m + 1):
            prod = left @ term
            y = prod[:d]
            if n:
                y = y + prod[d:].reshape(n, d, d).transpose(1, 0, 2).reshape(d, n * d) @ right
            term = y + y.conj().T
            term *= 1.0 / j
            total += term
            size = np.sqrt(np.vdot(term, term).real)
            if previous + size <= floor:
                break
            previous = size
        total *= decay
        rho = total
    return rho


def _diagonal_form(k: np.ndarray, gs: np.ndarray):
    """(diag K, diag G) when K and every G are diagonal, else None.

    Then L E_ij = lambda_ij E_ij: each matrix entry evolves alone, with
    lambda_ij = -1/2 sum_n |g_ni - g_nj|^2 + i (Im k_i - Im k_j + sum_n Im
    g_ni g_nj*), so lambda_ii = 0 keeps every population. Neither part
    depends on the trace-mean shift of K.
    """
    d = k.shape[0]
    kd = np.diagonal(k)
    gd = np.diagonal(gs, axis1=1, axis2=2)
    if np.count_nonzero(k - np.diag(kd)) or np.count_nonzero(gs - gd[:, :, None] * np.eye(d)):
        return None
    return kd, gd


def _dephased(rho: np.ndarray, times: np.ndarray, kd: np.ndarray, gd: np.ndarray):
    """exp(t L) rho for each t when L E_ij = lambda_ij E_ij (see _diagonal_form).

    times are positive, ascending and distinct. Entry ij, i < j, is
    multiplied by exp(t lambda_ij) and entry ji by its conjugate; the
    populations stay. So every state is exactly Hermitian. Each exponent
    t lambda_ij is summed from terms already multiplied by t, so a term
    overflows only where t lambda_ij itself would.
    """
    i, j = np.triu_indices(rho.shape[0], 1)
    phase = np.multiply.outer(times, kd.imag)
    sg = np.sqrt(times)[:, None, None] * gd
    gi, gj = sg[:, :, i], sg[:, :, j]
    decay = -0.5 * (np.abs(gi - gj) ** 2).sum(axis=1)
    rotation = phase[:, i] - phase[:, j] + (gi * gj.conj()).imag.sum(axis=1)
    factors = np.exp(decay + 1j * rotation)
    states = np.repeat(rho[None], times.size, axis=0)
    states[:, i, j] *= factors
    states[:, j, i] *= factors.conj()
    return states


def _healthy(states: np.ndarray) -> np.ndarray:
    """Health gates on a stack (n, d, d) of propagated states; returns the
    stack as it is.

    Every route returns exactly Hermitian states, so none is symmetrized
    here: a second symmetrization could only flip the sign of a zero. Each
    state must keep Hermiticity, trace 1 and eigenvalues above
    TRAJECTORY_EIG_FLOOR; the first state that fails, in stack order, names
    its first failing gate. A non-finite state fails the Hermiticity gate.
    One stacked Hermitian eigenvalue solve serves the states before the
    first that fails another gate.
    """
    # states after the first failing one may be non-finite
    with np.errstate(over="ignore", invalid="ignore"):
        drift = np.linalg.norm(states - states.conj().transpose(0, 2, 1), axis=(1, 2))
        lost = ~(drift <= 1e-9 * np.maximum(1.0, np.linalg.norm(states, axis=(1, 2))))
        tr = np.trace(states, axis1=1, axis2=2).real
    bad = np.flatnonzero(lost | ~(np.abs(tr - 1.0) <= TRAJECTORY_TRACE_TOL))
    first = int(bad[0]) if bad.size else len(states)
    low = np.linalg.eigvalsh(states[:first]).min(axis=1, initial=np.inf)
    below = np.flatnonzero(low < TRAJECTORY_EIG_FLOOR)
    if below.size:
        raise NumericHealthError(f"propagated state has eigenvalue {low[below[0]]:.3e}")
    if first < len(states):
        if lost[first]:
            raise NumericHealthError(f"propagated state lost Hermiticity ({drift[first]:.3e})")
        raise NumericHealthError(f"propagated state has trace {float(tr[first])!r}")
    return states


def _two_sum(a: float, b: float) -> tuple[float, float]:
    """(s, e) with s = fl(a + b) and a + b = s + e exactly (Knuth)."""
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _reaches(hi: float, lo: float, step: float, target: float) -> bool:
    """Whether hi + lo + step lies within TIME_ULPS ulps of target."""
    s, e = _two_sum(hi, step)
    return abs((s - target) + (lo + e)) <= TIME_ULPS * math.ulp(target)


def _propagator_steps(positive: list, limit: int):
    """(steps, which) for the ascending positive grid: the distinct steps,
    and for each time the index of the step that reaches it from the time
    before; None when more than limit distinct steps are needed.

    The last step, and then the first, is reused when the time it reaches
    lies within TIME_ULPS ulps of the next time; otherwise a new step spans
    the gap. Trying the first step brings an even grid back to its own
    step after a time inside it. The time reached is kept as an
    unevaluated sum hi + lo, exact to far below an ulp, and the test is
    made against it rather than against the previous grid time, so offsets
    cannot build up over many reuses.
    """
    steps, which, hi, lo = [], [], 0.0, 0.0
    for target in positive:
        k = next((k for k in which[-1:] + which[:1] if _reaches(hi, lo, steps[k], target)), None)
        if k is None:
            if len(steps) == limit:
                return None
            k = len(steps)
            steps.append((target - hi) - lo)
        s, e = _two_sum(hi, steps[k])
        hi, lo = s, lo + e
        which.append(k)
    return steps, which


@functools.lru_cache(maxsize=8)
def _trace_reflection(d: int) -> np.ndarray:
    """Householder reflection of R^d taking (1, ..., 1)/sqrt(d) to e_1.

    Symmetric and orthogonal, so its own inverse; read-only, as it is shared
    between calls.
    """
    u = np.full(d, 1.0 / math.sqrt(d))
    u[0] -= 1.0
    norm = np.linalg.norm(u)
    h = np.eye(d) if norm == 0.0 else np.eye(d) - 2.0 * np.outer(u / norm, u / norm)
    h.flags.writeable = False
    return h


def _edge_labels(n: int, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Each of n nodes' component in the undirected graph with edges
    (i[e], j[e]), labelled by the component's smallest node.

    Min-label propagation with pointer jumping: every node takes the
    smallest label among itself and its neighbours, then each label is
    replaced by its own label until none changes; this repeats until a
    round changes nothing. Each round costs O(n + edges).
    """
    labels = np.arange(n)
    while True:
        spread = labels.copy()
        np.minimum.at(spread, i, labels[j])
        np.minimum.at(spread, j, labels[i])
        while not np.array_equal(jumped := spread[spread], spread):
            spread = jumped
        if np.array_equal(spread, labels):
            return labels
        labels = spread


def _component_labels(m: np.ndarray) -> np.ndarray:
    """Each index's component in the nonzero pattern of |m| + |m^T|, labelled
    by the component's smallest index (_edge_labels). When every row links
    to index 0 there is one component, found from the rows alone."""
    linked = m != 0
    np.fill_diagonal(linked, True)
    labels = linked.argmax(axis=1)
    if not labels.any():
        return labels
    return _edge_labels(len(m), *np.nonzero(linked))


def _group(labels: np.ndarray) -> list[np.ndarray]:
    """The components of labels (_component_labels), one (k, s) index array
    per component size s, ascending: its rows are the components, by label,
    each listing its indices in ascending order."""
    n = labels.size
    size = np.bincount(labels, minlength=n)[labels]
    order = np.argsort(size * n + labels, kind="stable")
    runs = np.split(order, np.flatnonzero(np.diff(size[order])) + 1)
    return [run.reshape(-1, size[run[0]]) for run in runs]


def _assemble(components: list[np.ndarray], parts: list[np.ndarray], n: int) -> np.ndarray:
    """Scatter per-component results, one (k, s) or (k, s, s) stack per size
    group, into one length-n vector or n x n matrix, zero off the blocks."""
    if components[0].shape == (1, n):
        return parts[0][0]
    out = np.zeros((n,) * (parts[0].ndim - 1), np.result_type(*parts))
    for idx, part in zip(components, parts):
        out[idx if part.ndim == 2 else (idx[:, :, None], idx[:, None, :])] = part
    return out


def _coarse_labels(l: Lindbladian) -> np.ndarray | None:
    """Blocks of the Hermitian basis that no entry of the real form links,
    read off the d x d patterns, each position labelled by its block's first
    position; None for one block, or below EXPM_SPLIT_MIN_ORDER in d^2,
    where R is formed whole.

    For components A, B of K's pattern, 1 kron K + conj(K) kron 1 links all
    positions of (A, B), which shares its pairs with (B, A), and a jump links
    (A, B) to (C, E) where it is nonzero in A x C and B x E. With (B, E)
    fixed, that links positions as the jump's bipartite graph links its
    nodes, so a star per bipartite component links them alike: at most
    (2 nb)^2 links for nb blocks. Each block is a union of R's components,
    which an exact cancellation in M splits further (_components).
    """
    d = l.dim
    if d * d < EXPM_SPLIT_MIN_ORDER:
        return None
    k, _, kf = _generator_terms(l)
    roots = _component_labels(np.abs(k))
    if not roots.any():
        return None
    # each index's block, numbered in the order of the blocks' first indices
    first = roots == np.arange(d)
    blocks, nb = (np.cumsum(first) - 1)[roots], int(first.sum())
    one_hot = np.eye(nb)[blocks]
    pair = np.arange(nb * nb)
    # links from positions A nb + B to C nb + E
    links = [(pair, pair % nb * nb + pair // nb)]
    for jump in one_hot.T @ np.abs(kf) @ one_hot:
        a, c = np.nonzero(jump)
        # the star joins each row to one column of its component, and that
        # component's label, its smallest node and so a row, to each column
        part, cols = _edge_labels(2 * nb, a, c + nb), np.zeros(2 * nb, dtype=int)
        a, c = np.unique(a), np.unique(c)
        cols[part[c + nb]] = c
        a, c = np.concatenate([a, part[c + nb]]), np.concatenate([cols[part[a]], c])
        links.append((np.add.outer(a * nb, a).ravel(), np.add.outer(c * nb, c).ravel()))
    linked = _edge_labels(nb * nb, *map(np.concatenate, zip(*links)))
    # the block pair of each position, whose column-stacked index is i + j d
    at = _hermitian_basis(d)
    _, first, inverse = np.unique(linked[blocks[at % d] * nb + blocks[at // d]],
                                  return_index=True, return_inverse=True)
    return first[inverse.ravel()]


def _components(l: Lindbladian, min_order: int, coarse: np.ndarray | None) -> tuple:
    """(components, forms): the components of the real form R, the one
    block structure of every dense path, as one (k, s) array of positions
    per order s of its k components (_group: rows ascending, so
    populations first), and R's (k, s, s) stack of blocks for each. With
    coarse (l's _coarse_labels) None, R is formed whole and split by its
    pattern from min_order in d^2 on; otherwise only the coarse blocks'
    entries are (_real_form), each block split by its own pattern.
    """
    n = l.dim**2
    m = build_superoperator(l).matrix
    if coarse is None:
        r = _real_form(m)
        labels = _component_labels(r) if n >= min_order else np.zeros(n, dtype=int)
        if not labels.any():
            return [np.arange(n)[None]], [r[None]]
        flat, base, loc = r.ravel(), np.arange(n) * n, np.arange(n)
    else:
        # the blocks' entries row by row, rows and columns ascending
        order = np.argsort(coarse * n + np.arange(n))
        rank = np.argsort(order)
        size = np.bincount(coarse, minlength=n)[coarse[order]]
        start = np.cumsum(size) - size
        loc, base = rank - rank[coarse], start[rank]
        rows = np.repeat(order, size)
        cols = order[np.repeat(rank[coarse[order]] - start, size) + np.arange(rows.size)]
        flat = _real_form(m, (rows, cols, base, loc))
        linked = flat != 0
        labels = _edge_labels(n, rows[linked], cols[linked])
    components = _group(labels)
    return components, [flat[base[idx][:, :, None] + loc[idx][:, None, :]] for idx in components]


def _dense(rho: np.ndarray, plan: tuple, components: list, blocks: list) -> np.ndarray:
    """exp(t L) rho along the steps of _propagator_steps, on rho's real
    coordinates, by the components of the real form R (_components).

    The components of one order are grouped further by their count p of
    populations. Each group takes one stacked matrix_exp (np.exp for order
    1) for the steps of a chunk (SECTOR_CHUNK), and per state one stacked
    matvec. tau R = 0 for the trace functional tau, so a component keeps
    the partial trace of its p populations: they are reflected
    (_trace_reflection) to make it the first coordinate times sqrt(p), and
    the first row, rounding within the trace contract, is set to zero. Each
    propagator then keeps the trace exactly, and its squarings cannot grow
    an error along the steady state. Mapped back, each state is exactly
    Hermitian.
    """
    d = rho.shape[0]
    x = _coordinates(rho)
    groups, forms, previous = [], [], []
    for block_idx, block in zip(components, blocks):
        pops = (block_idx < d).sum(axis=1)
        for p in np.unique(pops).tolist():
            rows = pops == p
            idx, r = block_idx[rows], block if rows.all() else block[rows]
            xs = x[idx][..., None]
            if p:
                h = _trace_reflection(p)
                r[:, :p] = h @ r[:, :p]
                r[:, :, :p] = r[:, :, :p] @ h
                r[:, 0] = 0.0
                xs[:, :p] = h @ xs[:, :p]
            groups.append((p, idx))
            forms.append(r)
            previous.append(xs)
    steps, which = plan
    # the propagators of up to `count` steps at once, as one stack per group
    size = sum(r.size for r in forms)
    count = 1 if len(forms) == len(forms[0]) == 1 else max(1, SECTOR_CHUNK // size)

    def chunk(start):
        t = np.asarray(steps[start : start + count])[:, None, None, None]
        stacks = [(t * r).reshape(-1, *r.shape[1:]) for r in forms]
        return [(np.exp(m) if m.shape[-1] == 1 else qlinalg.matrix_exp(m)).reshape(-1, *r.shape)
                for m, r in zip(stacks, forms)]

    table, start = chunk(0), 0
    first = [u[0] for u in table]
    # states[g][i] holds the coordinates of group g's components at time i
    states = [np.empty((len(which),) + xs.shape) for xs in previous]
    for i, k in enumerate(which):
        # a new step is the next one: the chunk after the current one starts there
        if k >= start + count:
            table, start = chunk(k), k
        propagators = first if k == 0 else [u[k - start] for u in table]
        previous = [np.matmul(u, y, out=out[i]) for u, y, out in zip(propagators, previous, states)]
    coords = np.empty((d * d, len(which)))
    for (p, idx), out in zip(groups, states):
        coords[idx] = out[..., 0].transpose(1, 2, 0)
        if p:
            coords[idx[:, :p]] = _trace_reflection(p) @ coords[idx[:, :p]]
    return _operators(coords)


def trajectory(l: Lindbladian, rho0, times) -> np.ndarray:
    """States exp(t L) rho0 for each t in times, in input order, with health gates.

    Duplicate times share one state. A t = 0 state is written here, rho0
    Hermitian-symmetrized, bit for bit; a route gets only the positive
    times, and with none no generator is built. Before any route runs, the
    time grid is held to a cap: a grid whose Taylor march would need more
    than MAX_MARCH_WORK applications of L to reach its last time is
    refused, so which times are accepted does not depend on the route. The
    route is then chosen from the generator and the sorted distinct
    positive times alone:

    * A generator with diagonal Hamiltonian and jumps acts on each matrix
      entry alone; its states are exact entrywise exponentials (_dephased).
    * Otherwise, when the grid needs at most DENSE_WORK // W distinct
      propagators, the dense route exponentiates each component of the
      real form (_components) per distinct step and applies it to each
      state (_dense). W is the sum of s^3 over the blocks of order s that
      hold the components (_coarse_labels), d^6 for one block: read off
      the d x d patterns, so that the march builds nothing of order d^4,
      it bounds the components' own sum, and equals it unless an exact
      cancellation splits a block. The last step, or the first, is reused
      where it lands within TIME_ULPS ulps of the next time, measured from
      the time actually reached, so each state is taken at a time t' with
      |t' - t| <= 4 ulp(t) <= 4 eps t (eps = 2^-52), which moves it by at
      most 4 eps t ||L|| in trace norm.
      An even grid needs one propagator, a time after its end one more,
      and a time inside it two more.
    * Otherwise one matrix-free march visits the distinct times in
      ascending order, applying L through d x d products only (_march); a
      stop adds at most one step of at most 55 applications to the plan
      the cap is measured on.

    Every route returns exactly Hermitian states. All states are checked in
    one stacked _healthy call, after the last is computed, and returned as
    they are. The march therefore steps on from a state that may fail a
    gate, and the report names the first failing state in time order.
    """
    times = np.asarray(times, dtype=float).reshape(-1)
    if times.size == 0:
        raise ContractError("need at least one time")
    bad = times[~((times >= 0.0) & np.isfinite(times))]
    if bad.size:
        raise ContractError(f"time {float(bad[0])!r} must be nonnegative and finite")
    rho = qstate.require_state(rho0, l.dim)
    # the march relies on (K x)+ = x K+, exact only for Hermitian x
    rho = (rho + rho.conj().T) / 2.0
    grid, where = np.unique(times, return_inverse=True)
    zeros = int(grid[0] == 0.0)
    positive = grid[zeros:]
    states = np.empty((grid.size, l.dim, l.dim), dtype=complex)
    states[:zeros] = rho
    # with no positive time nothing is propagated, so no generator is built
    if positive.size:
        k, gs, mu, bound = _matrix_free_form(l)
        m, s = _taylor_plan(float(positive[-1]) * bound)
        if not m * s <= MAX_MARCH_WORK:
            raise ContractError(
                f"march to t = {float(positive[-1])!r} needs {m * s:.3e} applications of L, "
                f"above the cap {MAX_MARCH_WORK}"
            )
        entries = _diagonal_form(k, gs)
        if entries is not None:
            states[zeros:] = _dephased(rho, positive, *entries)
            return _healthy(states)[where]
        # priced on the coarse blocks, before any d^4 work
        coarse = _coarse_labels(l)
        work = l.dim**6 if coarse is None else int((np.bincount(coarse) ** 3).sum())
        if plan := _propagator_steps(positive.tolist(), DENSE_WORK // work):
            states[zeros:] = _dense(rho, plan, *_components(l, EXPM_SPLIT_MIN_ORDER, coarse))
        else:
            # every march state is exactly Hermitian, so the march needs no
            # symmetrization between stops; past a failing state it may overflow
            t = 0.0
            with np.errstate(over="ignore", invalid="ignore"):
                for i, target in enumerate(positive.tolist(), start=zeros):
                    rho = _march(rho, target - t, k, gs, mu, bound)
                    states[i] = rho
                    t = target
    return _healthy(states)[where]


def propagate(l: Lindbladian, rho0, t: float) -> np.ndarray:
    """State at time t: the one-point trajectory."""
    return trajectory(l, rho0, [t])[0]


@dataclass(frozen=True)
class AsymptoticDecomposition:
    """Spectral split of a generator into decaying and surviving sectors, as
    decompose builds and checks it.

    eigenvalues are those of the generator's real form R in the orthonormal
    Hermitian basis, held by its components (_components): components lists
    their positions, one (k, s) array per group, and real_blocks R's
    (k, s, s) stack of blocks for each. asymptotic_indices are the
    eigenvalues with |Re| <= tol. real_projector is the exact spectral
    projector onto the asymptotic sector in that basis, and route says how
    it was built: "eigenbasis" or "nullspace" (see decompose). p_inf, the
    projector on column-stacked operators, is mapped back on first access.
    p_a is the support projector of the projected maximally mixed state,
    q = 1 - p_a its complement.
    """

    eigenvalues: np.ndarray
    asymptotic_indices: tuple
    tol: float
    route: str
    components: list
    real_blocks: list
    real_projector: np.ndarray
    p_a: np.ndarray
    q: np.ndarray

    @property
    def dim(self) -> int:
        return self.p_a.shape[0]

    @functools.cached_property
    def p_inf(self) -> SuperoperatorMatrix:
        """B P B+ for real_projector P: the projector on column-stacked operators."""
        return SuperoperatorMatrix(_column_stacked(self.real_projector), kind="trace_preserving")

    @property
    def asymptotic_frequencies(self) -> np.ndarray:
        """Distinct imaginary parts of the asymptotic eigenvalues."""
        freqs = np.imag(np.asarray(self.eigenvalues)[list(self.asymptotic_indices)])
        return _cluster_values(freqs, self.tol)


def _clusters(values: np.ndarray, atol: float) -> list[list[int]]:
    """Index groups of real values, mirror-symmetric about zero.

    The values within atol of 0 form the first group. The others are
    grouped on each side outward from 0, a group taking every next value
    within atol of its first (innermost) member: the positive side's groups
    first, then the negative side's. A multiset symmetric about 0 gets
    groups that mirror each other exactly.
    """
    zero = np.flatnonzero(np.abs(values) <= atol)
    groups = [zero.tolist()] if zero.size else []
    for side in (values, -values):
        outer: list[list[int]] = []
        for i in np.argsort(side, kind="stable"):
            if side[i] <= atol:
                continue
            if outer and side[i] - side[outer[-1][0]] <= atol:
                outer[-1].append(int(i))
            else:
                outer.append([int(i)])
        groups += outer
    return groups


def _cluster_values(values: np.ndarray, atol: float) -> np.ndarray:
    """Collapse near-duplicates (within atol) to single representatives,
    ascending: 0 for the group at zero, the innermost member otherwise."""
    reps = [float(values[g[0]]) for g in _clusters(values, atol)]
    return np.sort([v if abs(v) > atol else 0.0 for v in reps])


def _support_projectors(p: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """P_A = support of the asymptotically projected maximally mixed state,
    for the projector p in the Hermitian basis, where 1/d has the
    coordinate 1/d on each population and 0 elsewhere."""
    image = _operators(p[:, :d] @ np.full((d, 1), 1.0 / d))[0]
    w, v = np.linalg.eigh(image)
    keep = w > PA_SUPPORT_TOL
    p_a = (v[:, keep] @ v[:, keep].conj().T) if keep.any() else np.zeros((d, d), complex)
    return p_a, np.eye(d, dtype=complex) - p_a


def _geometric_mean(e: np.ndarray, n: int) -> np.ndarray:
    """(1/n) sum_{k<n} E^k for n >= 1 and each matrix E of the stack e
    (k, s, s), by divide and conquer; O(log n) products."""

    def rec(m: int, power: bool):
        # (sum_{k<m} E^k, E^m); E^m is formed only when power is asked for
        if m == 1:
            return np.broadcast_to(np.eye(e.shape[-1], dtype=e.dtype), e.shape), e
        s, p = rec(m // 2, True)
        s = s + p @ s
        if m % 2 == 0:
            return s, (p @ p if power else None)
        p = p @ p
        return s + p, (p @ e if power else None)

    return rec(n, False)[0] / n


def _cesaro_average(
    l: Lindbladian, horizon: float, samples: int, dec: AsymptoticDecomposition | None
) -> tuple[np.ndarray, AsymptoticDecomposition]:
    """(A, dec): the Cesaro average of cesaro_projector in the Hermitian
    basis, real and block diagonal as R is, and the decomposition whose
    blocks and frequencies it used. The sample count and the horizon are
    checked before any work."""
    samples = int(samples)
    if samples < 1:
        raise ContractError("sample count must be positive")
    horizon = require_positive(horizon, "horizon")
    if dec is None:
        dec = decompose(l)
    elif dec.dim != l.dim:
        raise ContractError(f"decomposition of dimension {dec.dim} given for dimension {l.dim}")
    frequencies, dt, acc = dec.asymptotic_frequencies, horizon / samples, []
    for r in dec.real_blocks:
        step = qlinalg.matrix_exp(dt * r, method="series")
        total = np.zeros_like(r)
        for w in frequencies[frequencies >= 0.0]:
            if w == 0.0:
                total += _geometric_mean(step, samples)
            else:
                total += 2.0 * _geometric_mean(step * np.exp(-1j * float(w) * dt), samples).real
        acc.append(total)
    return _assemble(dec.components, acc, dec.dim**2), dec


def cesaro_projector(
    l: Lindbladian, horizon: float, samples: int, dec: AsymptoticDecomposition | None = None
) -> SuperoperatorMatrix:
    """Finite-time average approximating the asymptotic projection.

    For each asymptotic frequency w, averages exp(t(L - i w)) over the
    horizon at the given sampling resolution; the per-frequency means are
    summed. dec must be a decomposition of l, decompose(l, tol); without
    one, decompose(l) is taken here. Its real form's blocks and asymptotic
    frequencies are used, so a caller that has dec computes neither the
    generator nor its spectrum again. The average runs on the real form's
    components, one stacked step and mean per group, so the step and the
    w = 0 mean are real.
    The frequencies are symmetric about 0, so the mean at -w is the
    conjugate of the mean at w: only w >= 0 is averaged, each w > 0 adding
    twice its mean's real part, and the sum stays real. The step exp(dt L)
    is taken on the series route, which needs no eigenvectors, so the
    average stays independent of the spectral projector it cross-checks.
    Error is O(1/horizon) for a gapped decaying sector, and vanishes to
    rounding when every spectral gap times the horizon is a multiple of
    2 pi. The average is kept in the Hermitian basis, as decompose keeps
    P_inf, and mapped back to column-stacked operators here;
    cesaro_distance compares it with P_inf without mapping either back.
    """
    acc, _ = _cesaro_average(l, horizon, samples, dec)
    return SuperoperatorMatrix(_column_stacked(acc), kind="approximation")


def cesaro_distance(
    l: Lindbladian, horizon: float, samples: int, dec: AsymptoticDecomposition | None = None
) -> float:
    """||A - P||_F for the Cesaro average A of cesaro_projector (same
    arguments) and the exact projector P of dec, both in the orthonormal
    Hermitian basis. B is unitary, so this is the Hilbert-Schmidt distance
    of cesaro_projector(l, horizon, samples, dec) from dec.p_inf, to
    rounding."""
    acc, dec = _cesaro_average(l, horizon, samples, dec)
    return float(np.linalg.norm(acc - dec.real_projector))


def _frobenius(stacks: list) -> float:
    """The Frobenius norm of a block-diagonal matrix held as stacks of its
    blocks: the blocks' norms summed in quadrature."""
    return math.sqrt(sum(np.vdot(x, x).real for x in stacks))


def _by_component(components: list, members: np.ndarray):
    """members, positions of the real form in a given order, split by the
    component that holds each: (g, rows, cols) per size group g of
    components (_components) and per member count c, with rows the
    components of group g that hold c members, ascending, and cols
    (len(rows), c) the positions of their members within them, in the
    given order."""
    n = sum(idx.size for idx in components)
    if components[0].shape == (1, n):
        # one component holds every position, in place
        if members.size:
            yield 0, np.zeros(1, dtype=np.intp), members[None]
        return
    rank = np.full(n, n)
    rank[members] = np.arange(members.size)
    for g, idx in enumerate(components):
        ranks = rank[idx]
        counts = (ranks < n).sum(axis=1)
        for c in sorted(set(counts.tolist()) - {0}):
            rows = np.flatnonzero(counts == c)
            yield g, rows, np.argsort(ranks[rows], axis=1, kind="stable")[:, :c]


def _columns(v: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The columns cols[i] of the matrix v[rows[i]], for a stack v (k, s, s)."""
    return v[rows[:, None, None], np.arange(v.shape[1])[:, None], cols[:, None, :]]


def _eigenbasis_projector(
    components: list, right: list, inverses: list, asym: np.ndarray
) -> list:
    """The spectral projector onto the asymptotic sector from the eigenbasis,
    component by component: per size group of qlinalg._eig_blocks, the real
    stack of V_A U_A for each component, V_A its right eigenvectors of
    asymptotic eigenvalues and U_A the matching rows of its eigenvector
    inverse. Only the asymptotic columns are multiplied, and a component
    without any keeps a zero block."""
    p = [np.zeros(v.shape) for v in right]
    for g, rows, cols in _by_component(components, np.flatnonzero(asym)):
        w = inverses[g][rows[:, None, None], cols[:, :, None], np.arange(right[g].shape[1])]
        p[g][rows] = (_columns(right[g], rows, cols) @ w).real
    return p


def _nullspace_projector(
    blocks: list, components: list, evals: np.ndarray, right: list, asym: np.ndarray, gate: float
) -> list:
    """Spectral projector onto the asymptotic sector without a full eigenbasis.

    blocks are the real generator M's stacks of blocks over its components,
    right their stacked right eigenvectors (qlinalg._eig_blocks) and evals
    M's assembled eigenvalues. Each asymptotic eigenvalue must be semisimple,
    which holds for every GKSL generator: its semigroup is bounded, so
    eigenvalues on the imaginary axis carry no Jordan chain (M. M. Wolf,
    Quantum Channels & Operations, 2012, ch. 6). For each cluster of
    asymptotic eigenvalues (imaginary parts within gate) with k members and
    mean lambda, taken over the whole spectrum, let A = M - lambda and R an
    orthonormal basis of ker A. Then B = A + R R+ is invertible and
    Y = R+ B^-1 satisfies Y A = 0 and Y R = 1, so P_lambda = R Y. R starts
    from the cluster's eigenvectors and takes one inverse-iteration step.

    M is block diagonal over its components, and so are A, R and P_lambda:
    the solves run block by block, one stacked solve per component size and
    number of the cluster's members in the component, and each component
    adds its own block. ||A R||_F, summed in quadrature over the cluster's
    components, <= 1e2 gate certifies, by Courant-Fischer, a geometric
    multiplicity >= k; a residual above it, or a singular solve, raises
    NonDiagonalizable.

    The cluster at frequency 0 holds every conjugate pair whole, so
    replacing each pair's vectors v, conj(v) by Re v, Im v gives a real R,
    and that cluster is solved in real arithmetic. A cluster at w > 0 is
    solved in complex arithmetic and counted twice in real part: its mirror
    at -w has the conjugate projector, as m is real. Returns the projector
    as _eigenbasis_projector does, one real stack per size group.
    """
    p = [np.zeros(v.shape) for v in right]
    indices = np.flatnonzero(asym)
    for group in _clusters(evals.imag[indices], gate):
        members = indices[group]
        imag = evals.imag[members]
        if imag[0] < -gate:
            continue
        at_zero = not imag[0] > gate
        if at_zero:
            lam, weight = float(evals.real[members].mean()), 1.0
        else:
            lam, weight = complex(evals[members].mean()), 2.0
        residual, pieces = 0.0, []
        for g, rows, cols in _by_component(components, members):
            idx = components[g][rows]
            a = blocks[g][rows] - lam * np.eye(idx.shape[1])
            basis = _columns(right[g], rows, cols)
            if at_zero:
                below = evals.imag[idx[np.arange(len(rows))[:, None], cols]] < 0
                basis = np.where(below[:, None, :], basis.imag, basis.real)
            r = np.linalg.qr(basis)[0]
            try:
                r = np.linalg.qr(np.linalg.solve(a + r @ _dagger(r), r))[0]
                y = _dagger(np.linalg.solve(_dagger(a + r @ _dagger(r)), r))
            except np.linalg.LinAlgError as exc:
                raise NonDiagonalizable(
                    f"asymptotic eigenvalue {lam!r}: null-space solve failed ({exc})"
                ) from exc
            residual = math.hypot(residual, np.linalg.norm(a @ r))
            pieces.append((g, rows, weight * (r @ y).real))
        if not residual <= 1e2 * gate:
            raise NonDiagonalizable(
                f"asymptotic eigenvalue {lam!r} carries a Jordan chain "
                f"(||(L - lambda) R||_F = {residual:.3e} for {len(members)} eigenvectors)"
            )
        for g, rows, piece in pieces:
            p[g][rows] += piece
    return p


def decompose(l: Lindbladian, tol=None) -> AsymptoticDecomposition:
    """Spectral analysis of the generator with asymptotic projectors: the one
    place that builds and checks the asymptotic structure.

    Eigenvalues with |Re| <= tol (default 1e-8 * max(1, spectral radius))
    form the asymptotic sector; tol, when given, must be positive. The
    generator's real form R in the orthonormal Hermitian basis is taken by
    its components (_components), and one real eig per component
    (qlinalg._eig_blocks) gives the spectrum, exactly conjugate-symmetric;
    an eigenvalue with Re > tol is a NumericHealthError. The eigenvectors,
    their inverses and the blocks of the projector stay per component, so
    the d^2 x d^2 eigenbasis is never formed. P, the exact spectral
    projector onto the asymptotic sector, comes from that basis when it is
    invertible with kappa_F = ||V||_F ||V^-1||_F below EIGENBASIS_COND_GATE
    (route "eigenbasis"); each Frobenius norm is summed in quadrature over
    the components, and this gate is the only one on the eigenbasis. A
    defective generator fails it; P then comes from the null spaces of
    L - lambda over the asymptotic eigenvalues, starting from the
    eigenvectors the same eig returned (route "nullspace"). Either way P is
    real in the Hermitian basis and stays there: it is checked idempotent
    there, its gap and its norm summed in quadrature over the components
    (the Frobenius gap is that of B P B+, as B is unitary), and trace
    preserving, the populations' rows of P summing to the trace functional.
    It is kept as real_projector, and P_A / Q are read off it; p_inf, the
    projector on column-stacked operators, is mapped back only when a
    caller reads it.
    """
    if tol is not None:
        tol = require_positive(tol, "asymptotic tolerance")
    components, blocks = _components(l, SPLIT_MIN_ORDER, _coarse_labels(l))
    n = l.dim**2
    evals, right, inverses = qlinalg._eig_blocks(blocks)
    evals = np.asarray(_assemble(components, evals, n), dtype=complex)
    tol = ASYMPTOTIC_RTOL * max(1.0, float(np.abs(evals).max())) if tol is None else tol
    worst = float(evals.real.max())
    if worst > tol:
        raise NumericHealthError(
            f"generator spectrum leaks into the right half plane (max Re {worst:.3e})"
        )
    asym = np.abs(evals.real) <= tol
    # the norms of a defective basis may overflow
    with np.errstate(over="ignore", invalid="ignore"):
        eigenbasis = inverses is not None and (
            _frobenius(right) * _frobenius(inverses) < EIGENBASIS_COND_GATE
        )
    if eigenbasis:
        p = _eigenbasis_projector(components, right, inverses, asym)
    else:
        inverses = None  # free the refused basis's inverse before the solves
        p = _nullspace_projector(blocks, components, evals, right, asym, tol)
    del inverses, right  # the eigenvectors die before p is checked
    gap, scale = _frobenius([q @ q - q for q in p]), max(1.0, _frobenius(p))
    if gap > PINF_IDEMPOTENT_TOL * scale:
        raise ContractError(f"asymptotic projection is not idempotent ({gap:.3e})")
    p = _assemble(components, p, n)
    # tau P = tau for the trace functional tau, the sum of the populations:
    # the contract that SuperoperatorMatrix checks for "trace_preserving"
    d = l.dim
    drift = p[:d].sum(axis=0)
    drift[:d] -= 1.0
    residual = float(np.linalg.norm(drift))
    if residual > TRACE_FUNCTIONAL_RTOL * scale:
        raise ContractError(
            f"superoperator violates its trace_preserving trace contract (residual {residual:.3e})"
        )
    p_a, q = _support_projectors(p, d)
    return AsymptoticDecomposition(
        eigenvalues=evals,
        asymptotic_indices=tuple(np.flatnonzero(asym).tolist()),
        tol=tol,
        route="eigenbasis" if eigenbasis else "nullspace",
        components=components,
        real_blocks=blocks,
        real_projector=p,
        p_a=p_a,
        q=q,
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
    projected = _operators((dec.real_projector @ _coordinates(rho_in))[:, None])[0]
    w, v = qlinalg.eig_hermitian(h)
    u = (v * np.exp(-1j * float(s) * w)) @ v.conj().T
    return u @ projected @ u.conj().T


def four_corners(a, dec: AsymptoticDecomposition):
    """(P_A a P_A, P_A a Q, Q a P_A, Q a Q); the parts sum back to a."""
    a = qlinalg.as_square(a, dec.dim, "operator")
    p, q = dec.p_a, dec.q
    return p @ a @ p, p @ a @ q, q @ a @ p, q @ a @ q


def dfs_commutes(op, partition: compmodel.BasisPartition) -> bool:
    """Does the operator respect the block structure entrywise?

    True iff compmodel.validate_block_diagonal: every cross-block entry is at
    most 1e-10 * max(1, ||op||). Such an operator acts within the
    decoherence-free blocks and cannot change the computational state.
    """
    op = qlinalg.as_square(op, partition.dim, "operator")
    return compmodel.validate_block_diagonal(op, partition)


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
    partition: compmodel.BasisPartition, rho_initial, rho_resolved
) -> dict:
    """Has cross-block coherence died out by the resolving time?

    rho_resolved is rho_initial propagated to the resolving time; the check
    measures its remaining cross-block Hilbert-Schmidt mass. classical =
    residual <= max(1e-6 * initial mass, 1e-12); the absolute floor keeps
    already-diagonal inputs from failing on rounding noise.
    """
    initial = compmodel.offblock_norm(qlinalg.as_complex_matrix(rho_initial), partition)
    residual = compmodel.offblock_norm(qlinalg.as_complex_matrix(rho_resolved), partition)
    return {
        "residual_coherence": float(residual),
        "classical": bool(residual <= max(DEPHASED_FRACTION * initial, 1e-12)),
    }
