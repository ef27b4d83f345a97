"""Markovian generators, their asymptotic structure, and the classical split.

Propagation takes one of three routes, chosen per trajectory after one
shared cap on its work. A generator whose Hamiltonian and jumps are all
diagonal (pure dephasing) acts on each matrix entry alone, L E_ij =
lambda_ij E_ij, so its states are exact entrywise exponentials. At small d,
when the time grid needs few distinct steps, the dense route takes one
exponential of the real d^2 x d^2 generator below per step and one
matrix-vector product per state. Otherwise propagation is matrix-free:
trajectory applies L rho = K rho + rho K+ + sum G rho G+ through d x d
products only, marching once along the sorted time grid with a scaled
Taylor series (Al-Mohy & Higham, SIAM J. Sci. Comput. 33:488, 2011).
Spectra use the dense form too: build_superoperator gives the d^2 x d^2
matrix on column-stacked operators, built by one stacked vec_product_map
over the generator's n + 2 terms (K and K+ sandwiching, one term per jump),
so the operator-ordering conventions live in one place. A generator
preserves Hermiticity, so in the orthonormal Hermitian basis
{E_ii, (E_ij + E_ji)/sqrt2, i(E_ij - E_ji)/sqrt2} it is a real matrix
(Alicki & Lendi, Quantum Dynamical Semigroups and Applications, LNP 286,
1987); a fixed sparse unitary takes one form to the other by index
gathers. One real eig of that form classifies eigenvalues into decaying
(Re < 0) and asymptotic (Re ~ 0) sectors and yields the exact asymptotic
projection superoperator, from the full eigenbasis or, for a defective
generator, from the null spaces of L - lambda over the asymptotic
eigenvalues, mapped back to column-stacked operators, plus the support
projectors P_A / Q. Under block-diagonal operating contexts the real form
is reducible: it splits exactly into coherence sectors between pairs of
blocks (Baumgartner & Narnhofer, J. Phys. A 41:395303, 2008; Buca &
Prosen, New J. Phys. 14:073007, 2012), and that eig runs block by block
over them (qlinalg.eig_general). A Cesaro time average of the same real
form, stepped on the series route, is the independent cross-check of that
projection.
The split of an operator into a block-respecting ("noncomputational") and
a cross-block ("pure computational") part connects the open-system
picture to the computational one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from . import compmodel, qlinalg, qstate
from .errors import ContractError, NonDiagonalizable, NumericHealthError, ShapeError

TRACE_FUNCTIONAL_RTOL = 1e-9
ASYMPTOTIC_RTOL = 1e-8
PINF_IDEMPOTENT_TOL = 1e-8
# decompose builds p_inf from the eigenbasis only when its condition
# kappa_F = ||V||_F ||V^-1||_F is below this; else from null spaces. The
# eigenbasis projector's error is up to eps kappa_F, here 2e-10, fifty times
# under PINF_IDEMPOTENT_TOL. A 2 x 2 Jordan block split by rounding lands at
# kappa ~ eps^-1/2 ~ 7e7, far above it; every diagonalizable generator of the
# tests and the benchmark is below 1e4.
EIGENBASIS_COND_GATE = 1e6
PA_SUPPORT_TOL = 1e-10
TRAJECTORY_TRACE_TOL = 1e-9
TRAJECTORY_EIG_FLOOR = -1e-8
CROSS_BLOCK_RTOL = 1e-10
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
# DENSE_WORK // d^6 distinct propagators, each a matrix_exp of a d^2 x d^2
# real matrix: two at d = 12 (an even grid plus a resolving time), none from
# d = 14. TIME_ULPS is how far, in ulps of the time, a reused step may land
# from it.
DENSE_WORK = 2 * 12**6
TIME_ULPS = 4

_KINDS = ("generator", "adjoint_generator", "trace_preserving", "approximation")
_ROUTES = ("eigenbasis", "nullspace")


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


def _dagger(a: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(a, -1, -2))


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


def build_adjoint_superoperator(l: Lindbladian) -> SuperoperatorMatrix:
    """Heisenberg-picture generator, adjoint in the Hilbert-Schmidt pairing:
    L+ A = K+ A + A K + sum_k kappa_k F_k+ A F_k, one stacked
    vec_product_map over its n + 2 terms.

    Built from its own formula rather than by conjugate-transposing
    build_superoperator, so the duality <<A|L rho>> = <<L+A|rho>> is an
    actual cross-check between two constructions.
    """
    k, f, kf = _generator_terms(l)
    eye = np.eye(l.dim)[None]
    m = qlinalg.vec_product_map(
        np.concatenate((_dagger(k)[None], eye, _dagger(kf))), np.concatenate((eye, k[None], f))
    )
    return SuperoperatorMatrix(m, kind="adjoint_generator")


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


def _to_hermitian_basis(a: np.ndarray, axis: int) -> np.ndarray:
    """B+ a for axis 0, a B for axis 1: the column-stacked operators along
    that axis of a, in the Hermitian basis.

    B is the unitary whose columns are the vectorized basis operators; it
    has at most two nonzeros per row and per column, so this is a gather.
    """
    d = math.isqrt(a.shape[axis])
    mid = (d * d + d) // 2
    t = np.take(np.asarray(a, dtype=complex), _hermitian_basis(d), axis=axis)
    upper, lower = (t[d:mid], t[mid:]) if axis == 0 else (t[:, d:mid], t[:, mid:])
    diff = upper - lower
    upper += lower
    upper *= math.sqrt(0.5)
    np.multiply(diff, (-1j if axis == 0 else 1j) * math.sqrt(0.5), out=lower)
    return t


def _from_hermitian_basis(a: np.ndarray, axis: int) -> np.ndarray:
    """B a for axis 0, a B+ for axis 1: the inverse of _to_hermitian_basis.

    It writes straight into its result and copies no input, since every
    p_inf and every Cesaro average is mapped back through it.
    """
    d = math.isqrt(a.shape[axis])
    mid = (d * d + d) // 2
    order = _hermitian_basis(d)
    at = (slice(None),) * axis
    sym, anti = a[at + (slice(d, mid),)], a[at + (slice(mid, None),)]
    phase = (1j if axis == 0 else -1j) * math.sqrt(0.5)
    out = np.empty(a.shape, dtype=complex)
    out[at + (order[:d],)] = a[at + (slice(0, d),)]
    out[at + (order[d:mid],)] = math.sqrt(0.5) * sym + phase * anti
    out[at + (order[mid:],)] = math.sqrt(0.5) * sym - phase * anti
    return out


def _real_form(m: np.ndarray) -> np.ndarray:
    """B+ M B for a generator M: real, because M preserves Hermiticity.

    The imaginary residue is rounding and is dropped after a gate with the
    allowance of the generator trace contract, TRACE_FUNCTIONAL_RTOL.
    """
    r = _to_hermitian_basis(_to_hermitian_basis(m, 0), 1)
    residue = np.linalg.norm(r.imag)
    if residue > TRACE_FUNCTIONAL_RTOL * max(1.0, np.linalg.norm(r)):
        raise NumericHealthError(
            f"generator does not preserve Hermiticity (imaginary residue {residue:.3e})"
        )
    return r.real.copy()


def _column_stacked(p: np.ndarray) -> np.ndarray:
    """B P B+: a superoperator in the Hermitian basis back on column-stacked operators."""
    return _from_hermitian_basis(_from_hermitian_basis(p, 0), 1)


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

    times are ascending and distinct. Entry ij, i < j, is multiplied by
    exp(t lambda_ij) and entry ji by its conjugate; the populations stay.
    So every state is exactly Hermitian. A leading t = 0 state is rho
    itself, bit for bit: a product with exp(0) could turn -0.0 into +0.0.
    Each exponent t lambda_ij is summed from terms already multiplied by t,
    so a term overflows only where t lambda_ij itself would.
    """
    i, j = np.triu_indices(rho.shape[0], 1)
    zeros = int(times[0] == 0.0)
    moved = times[zeros:]
    phase = np.multiply.outer(moved, kd.imag)
    sg = np.sqrt(moved)[:, None, None] * gd
    gi, gj = sg[:, :, i], sg[:, :, j]
    decay = -0.5 * (np.abs(gi - gj) ** 2).sum(axis=1)
    rotation = phase[:, i] - phase[:, j] + (gi * gj.conj()).imag.sum(axis=1)
    factors = np.exp(decay + 1j * rotation)
    states = np.repeat(rho[None], times.size, axis=0)
    states[zeros:, i, j] *= factors
    states[zeros:, j, i] *= factors.conj()
    return states


def _healthy(states: np.ndarray) -> np.ndarray:
    """Health gates on a stack (n, d, d) of propagated states; returns them
    Hermitian-symmetrized.

    Each state must keep Hermiticity, trace 1 and eigenvalues above
    TRAJECTORY_EIG_FLOOR; the first state that fails, in stack order, names
    its first failing gate. A non-finite state fails the Hermiticity gate.
    One stacked eigvalsh serves the states before the first that fails
    another gate.
    """
    adjoint = states.conj().transpose(0, 2, 1)
    # states after the first failing one may be non-finite
    with np.errstate(over="ignore", invalid="ignore"):
        drift = np.linalg.norm(states - adjoint, axis=(1, 2))
        lost = ~(drift <= 1e-9 * np.maximum(1.0, np.linalg.norm(states, axis=(1, 2))))
        out = (states + adjoint) / 2.0
        tr = np.trace(out, axis1=1, axis2=2).real
    bad = np.flatnonzero(lost | ~(np.abs(tr - 1.0) <= TRAJECTORY_TRACE_TOL))
    first = int(bad[0]) if bad.size else len(out)
    low = np.linalg.eigvalsh(out[:first]).min(axis=1, initial=np.inf)
    below = np.flatnonzero(low < TRAJECTORY_EIG_FLOOR)
    if below.size:
        raise NumericHealthError(f"propagated state has eigenvalue {low[below[0]]:.3e}")
    if first < len(out):
        if lost[first]:
            raise NumericHealthError(f"propagated state lost Hermiticity ({drift[first]:.3e})")
        raise NumericHealthError(f"propagated state has trace {float(tr[first])!r}")
    return out


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


def _dense(l: Lindbladian, rho: np.ndarray, plan: tuple) -> np.ndarray:
    """exp(t L) rho along the steps of _propagator_steps, on the real form.

    One matrix_exp of step R per new step, then one matvec per state, on
    rho's real coordinates in the Hermitian basis. The diagonal block of
    that basis is first reflected (_trace_reflection) so that the trace is
    the first coordinate times sqrt(d). L maps every operator to a
    traceless one, so the first row of R is rounding, bounded by the
    generator's trace contract, and is set to zero: each propagator then
    keeps the trace exactly, and its squarings cannot grow an error along
    the steady state. Mapped back, every state is exactly Hermitian.
    """
    d = rho.shape[0]
    h = _trace_reflection(d)
    r = _real_form(build_superoperator(l).matrix)
    r[:d] = h @ r[:d]
    r[:, :d] = r[:, :d] @ h
    r[0] = 0.0
    x = _to_hermitian_basis(rho.reshape(-1, order="F"), 0).real
    x[:d] = h @ x[:d]
    steps, which = plan
    # a step comes back after another only when it is the first, so the
    # first step's propagator is kept beside the current one
    first = qlinalg.matrix_exp(steps[0] * r) if steps else None
    coords = np.empty((d * d, len(which)))
    for i, k in enumerate(which):
        if k == 0:
            propagator = first
        elif k != which[i - 1]:
            propagator = qlinalg.matrix_exp(steps[k] * r)
        x = propagator @ x
        coords[:, i] = x
    coords[:d] = h @ coords[:d]
    return _from_hermitian_basis(coords, 0).T.reshape(-1, d, d).transpose(0, 2, 1)


def trajectory(l: Lindbladian, rho0, times) -> np.ndarray:
    """States exp(t L) rho0 for each t in times, in input order, with health gates.

    Duplicate times share one state, and a t = 0 state is rho0
    Hermitian-symmetrized, bit for bit. Before any route runs, the time
    grid is held to a cap: a grid whose Taylor march would need more than
    MAX_MARCH_WORK applications of L to reach its last time is refused, so
    which times are accepted does not depend on the route. The route is
    then chosen from the generator and the sorted distinct times alone:

    * A generator with diagonal Hamiltonian and jumps acts on each matrix
      entry alone; its states are exact entrywise exponentials (_dephased).
    * Otherwise, when the grid needs at most DENSE_WORK // d^6 distinct
      propagators, the dense route takes one matrix_exp of the d^2 x d^2
      real Hermitian-basis generator per distinct step and one matvec per
      state (_dense). The last step, or the first, is reused where it
      lands within TIME_ULPS ulps of the next time, measured from the time
      actually reached, so each state is taken at a time t' with
      |t' - t| <= 4 ulp(t) <= 4 eps t (eps = 2^-52), which moves it by at
      most 4 eps t ||L|| in trace norm.
      An even grid needs one propagator, a time after its end one more,
      and a time inside it two more.
    * Otherwise one matrix-free march visits the distinct times in
      ascending order, applying L through d x d products only (_march); a
      stop adds at most one step of at most 55 applications to the plan
      the cap is measured on.

    Every route checks its states in one stacked _healthy call, after the
    last is computed. The march therefore steps on from a state that may
    fail a gate, and the report names the first failing state in time
    order.
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
    if grid[-1] == 0.0:
        # nothing to propagate, so no generator is built
        return _healthy(rho[None])[where]
    k, gs, mu, bound = _matrix_free_form(l)
    m, s = _taylor_plan(float(grid[-1]) * bound)
    if not m * s <= MAX_MARCH_WORK:
        raise ContractError(
            f"march to t = {float(grid[-1])!r} needs {m * s:.3e} applications of L, "
            f"above the cap {MAX_MARCH_WORK}"
        )
    entries = _diagonal_form(k, gs)
    if entries is not None:
        return _healthy(_dephased(rho, grid, *entries))[where]
    zeros = int(grid[0] == 0.0)
    plan = _propagator_steps(grid[zeros:].tolist(), DENSE_WORK // l.dim**6)
    states = np.empty((grid.size, l.dim, l.dim), dtype=complex)
    if plan is not None:
        states[:zeros] = rho
        states[zeros:] = _dense(l, rho, plan)
        return _healthy(states)[where]
    # every march state is exactly Hermitian, so the march needs no
    # symmetrization between stops; past a failing state it may overflow
    t = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for i, target in enumerate(grid):
            rho = _march(rho, float(target) - t, k, gs, mu, bound)
            states[i] = rho
            t = float(target)
    return _healthy(states)[where]


def propagate(l: Lindbladian, rho0, t: float) -> np.ndarray:
    """State at time t: the one-point trajectory."""
    return trajectory(l, rho0, [t])[0]


@dataclass(frozen=True)
class AsymptoticDecomposition:
    """Spectral split of a generator into decaying and surviving sectors.

    p_inf is the exact spectral projector onto the asymptotic sector. It is
    given as real_projector, the same projector in the orthonormal
    Hermitian basis: a real matrix, which must be idempotent, and from
    which p_inf on column-stacked operators is derived. route says how it
    was built: "eigenbasis" from the full biorthogonal eigenbasis, or
    "nullspace" from the null spaces of L - lambda over the asymptotic
    eigenvalues when that eigenbasis is singular or has condition kappa_F
    >= EIGENBASIS_COND_GATE (a defective generator, or nearly one). p_a is
    the Hilbert-space support projector of the projected maximally mixed
    state, q its complement; both are derived too. real_generator is the
    generator in the orthonormal Hermitian basis, the real d^2 x d^2
    matrix whose eigenvalues these are.
    """

    eigenvalues: np.ndarray
    asymptotic_indices: tuple
    real_projector: InitVar[np.ndarray]
    tol: float
    route: str
    real_generator: np.ndarray
    p_inf: SuperoperatorMatrix = field(init=False)
    p_a: np.ndarray = field(init=False)
    q: np.ndarray = field(init=False)

    def __post_init__(self, real_projector: np.ndarray):
        if self.route not in _ROUTES:
            raise ContractError(f"unknown spectral route {self.route!r}")
        evals = np.asarray(self.eigenvalues, dtype=complex)
        for a in self.asymptotic_indices:
            if abs(evals[a].real) > self.tol:
                raise ContractError(
                    f"asymptotic eigenvalue {evals[a]!r} has |Re| above {self.tol!r}"
                )
        # the Frobenius gap of p_inf = B P B+ is that of P, as B is unitary
        p = real_projector
        gap = qlinalg.hs_norm(p @ p - p)
        if gap > PINF_IDEMPOTENT_TOL * max(1.0, qlinalg.hs_norm(p)):
            raise ContractError(f"asymptotic projection is not idempotent ({gap:.3e})")
        p_inf = SuperoperatorMatrix(_column_stacked(p), kind="trace_preserving")
        p_a, q = _support_projectors(p_inf.matrix, math.isqrt(p.shape[0]))
        for name, proj in (("p_a", p_a), ("q", q)):
            if qlinalg.hs_norm(proj @ proj - proj) > 1e-10 * max(1.0, qlinalg.hs_norm(proj)):
                raise ContractError(f"{name} is not idempotent")
        if qlinalg.hs_norm(p_a + q - np.eye(p_a.shape[0])) > 1e-12:
            raise ContractError("p_a and q do not sum to the identity")
        for name, value in (("p_inf", p_inf), ("p_a", p_a), ("q", q)):
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return self.p_a.shape[0]

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

    def rec(m: int, power: bool):
        # (sum_{k<m} E^k, E^m); E^m is formed only when power is asked for
        if m == 1:
            return np.eye(d2, dtype=e.dtype), e
        s, p = rec(m // 2, True)
        s = s + p @ s
        if m % 2 == 0:
            return s, (p @ p if power else None)
        p = p @ p
        return s + p, (p @ e if power else None)

    return rec(n, False)[0] / n


def cesaro_projector(
    l: Lindbladian, horizon: float, samples: int, dec: AsymptoticDecomposition | None = None
) -> SuperoperatorMatrix:
    """Finite-time average approximating the asymptotic projection.

    For each asymptotic frequency w, averages exp(t(L - i w)) over the
    horizon at the given sampling resolution; the per-frequency means are
    summed. dec, when given, must be decompose(l): its real generator and
    asymptotic frequencies are reused, so neither the generator nor its
    spectrum is computed again. Otherwise the frequencies are the clustered
    imaginary parts of the eigenvalues with |Re| <= the default asymptotic
    tolerance (eigenvalues need no diagonalizability). The average runs on
    the real Hermitian-basis generator, so the step and the w = 0 mean are
    real. The frequencies are symmetric about 0, so the mean at -w is the
    conjugate of the mean at w: only w >= 0 is averaged, each w > 0 adding
    twice its mean's real part, and the sum stays real. The step exp(dt L)
    is taken on the series route, which needs no eigenvectors, so the
    average stays independent of the spectral projector it cross-checks.
    Error is O(1/horizon) for a gapped decaying sector, and vanishes to
    rounding when every spectral gap times the horizon is a multiple of
    2 pi.
    """
    samples = int(samples)
    if samples < 1:
        raise ContractError("sample count must be positive")
    horizon = float(horizon)
    if horizon <= 0.0 or not np.isfinite(horizon):
        raise ContractError("horizon must be positive and finite")
    if dec is None:
        r = _real_form(build_superoperator(l).matrix)
        evals = np.linalg.eigvals(r)
        gate = _asymptotic_tol(evals, None)
        _check_spectrum_stability(evals, gate)
        frequencies = _cluster_values(evals.imag[np.abs(evals.real) <= gate], gate)
    elif dec.dim != l.dim:
        raise ContractError(f"decomposition of dimension {dec.dim} given for dimension {l.dim}")
    else:
        r, frequencies = dec.real_generator, dec.asymptotic_frequencies
    dt = horizon / samples
    step = qlinalg.matrix_exp(dt * r, method="series")
    acc = np.zeros_like(r)
    for w in frequencies[frequencies >= 0.0]:
        if w == 0.0:
            acc += _geometric_mean(step, samples)
        else:
            acc += 2.0 * _geometric_mean(step * np.exp(-1j * float(w) * dt), samples).real
    return SuperoperatorMatrix(_column_stacked(acc), kind="approximation")


def _nullspace_projector(
    m: np.ndarray, evals: np.ndarray, right: np.ndarray, asym: np.ndarray, gate: float
) -> np.ndarray:
    """Spectral projector onto the asymptotic sector without a full eigenbasis.

    m is the real generator and evals, right its eigenvalues and vectors
    from eig_general. Each asymptotic eigenvalue must be semisimple, which
    holds for every GKSL generator: its semigroup is bounded, so eigenvalues
    on the imaginary axis carry no Jordan chain (M. M. Wolf, Quantum
    Channels & Operations, 2012, ch. 6). For each cluster of asymptotic
    eigenvalues (imaginary parts within gate) with k members and mean
    lambda, let A = M - lambda and R an orthonormal basis of ker A. Then
    B = A + R R+ is invertible and Y = R+ B^-1 satisfies Y A = 0 and
    Y R = 1, so P_lambda = R Y. R starts from the cluster's eigenvectors
    and takes one inverse-iteration step. ||A R||_F <= 1e2 gate certifies,
    by Courant-Fischer, a geometric multiplicity >= k; a residual above it,
    or a singular solve, raises NonDiagonalizable.

    The cluster at frequency 0 holds every conjugate pair whole, so
    replacing each pair's vectors v, conj(v) by Re v, Im v gives a real R,
    and that cluster is solved in real arithmetic. A cluster at w > 0 is
    solved in complex arithmetic and counted twice in real part: its mirror
    at -w has the conjugate projector, as m is real.
    """
    eye = np.eye(m.shape[0])
    p = np.zeros(m.shape)
    indices = np.flatnonzero(asym)
    for group in _clusters(evals.imag[indices], gate):
        members = indices[group]
        imag = evals.imag[members]
        if imag[0] < -gate:
            continue
        if imag[0] > gate:
            lam, weight, basis = complex(evals[members].mean()), 2.0, right[:, members]
        else:
            lam, weight = float(evals.real[members].mean()), 1.0
            basis = np.where(imag < 0, right[:, members].imag, right[:, members].real)
        a = m - lam * eye
        r = np.linalg.qr(basis)[0]
        try:
            r = np.linalg.qr(np.linalg.solve(a + r @ r.conj().T, r))[0]
            y = np.linalg.solve((a + r @ r.conj().T).conj().T, r).conj().T
        except np.linalg.LinAlgError as exc:
            raise NonDiagonalizable(
                f"asymptotic eigenvalue {lam!r}: null-space solve failed ({exc})"
            ) from exc
        residual = np.linalg.norm(a @ r)
        if not residual <= 1e2 * gate:
            raise NonDiagonalizable(
                f"asymptotic eigenvalue {lam!r} carries a Jordan chain "
                f"(||(L - lambda) R||_F = {residual:.3e} for {len(members)} eigenvectors)"
            )
        p += weight * (r @ y).real
    return p


def _spectral_projector(r: np.ndarray, tol):
    """(evals, asym, gate, route, p) for the real generator r: its one eig,
    the asymptotic mask and gate, and the real spectral projector p onto
    the asymptotic sector with the route that built it. The eigenvectors
    die with this call, before p is mapped back.

    This is the one place that chooses the route: the eigenbasis when its
    inverse exists and kappa_F = ||V||_F ||V^-1||_F is below
    EIGENBASIS_COND_GATE, else the null spaces."""
    evals, right, left = qlinalg.eig_general(r)
    evals = np.asarray(evals, dtype=complex)
    gate = _asymptotic_tol(evals, tol)
    _check_spectrum_stability(evals, gate)
    asym = np.abs(evals.real) <= gate
    if left is not None:
        # the norms of a defective basis may overflow
        with np.errstate(over="ignore", invalid="ignore"):
            kappa = np.linalg.norm(right) * np.linalg.norm(left)
        if kappa < EIGENBASIS_COND_GATE:
            return evals, asym, gate, "eigenbasis", (right[:, asym] @ left[:, asym].conj().T).real
    del left  # free the refused basis's inverse before the solves
    return evals, asym, gate, "nullspace", _nullspace_projector(r, evals, right, asym, gate)


def decompose(l: Lindbladian, tol=None) -> AsymptoticDecomposition:
    """Spectral analysis of the generator with asymptotic projectors.

    Eigenvalues with |Re| <= tol (default 1e-8 * max(1, spectral radius))
    form the asymptotic sector; tol, when given, must be positive. p_inf is
    the exact spectral projector onto that sector, from one real d^2 x d^2
    eig of the generator in the orthonormal Hermitian basis, where it is a
    real matrix since it preserves Hermiticity (Alicki & Lendi, Quantum
    Dynamical Semigroups and Applications, LNP 286, 1987). Its spectrum is
    therefore exactly conjugate-symmetric. When that real form is
    reducible, as for decoherence-free blocks or dephasing, the eig runs
    on each component of its nonzero pattern and returns the assembled
    block-diagonal eigenbasis. When that basis is invertible with condition
    kappa_F below EIGENBASIS_COND_GATE, p_inf comes from it (route
    "eigenbasis"); this gate is the only one on the eigenbasis. A defective
    generator fails it; p_inf then comes from the null spaces of L - lambda
    over the asymptotic eigenvalues, starting from the eigenvectors the
    same eig returned (route "nullspace"). Either way p_inf is real in the
    Hermitian basis, is checked idempotent there and is mapped back to
    column-stacked operators.
    """
    if tol is not None and not tol > 0.0:
        raise ContractError(f"asymptotic tolerance {tol!r} must be positive")
    r = _real_form(build_superoperator(l).matrix)
    evals, asym, gate, route, p = _spectral_projector(r, tol)
    return AsymptoticDecomposition(
        eigenvalues=evals,
        asymptotic_indices=tuple(np.flatnonzero(asym).tolist()),
        real_projector=p,
        tol=gate,
        route=route,
        real_generator=r,
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
