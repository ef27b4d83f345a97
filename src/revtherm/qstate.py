"""Density matrices, Gibbs states, and the entropy family.

All entropies are returned in nats and k_B = 1 throughout: temperatures
carry energy units and every bound appears as a plain multiple of T.
Conversion to bits happens only in the reporting layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import qlinalg
from .errors import ContractError, require_finite, require_nonnegative

__all__ = [
    "Hamiltonian", "ThermoContext", "check_density_matrix", "require_state", "require_distribution",
    "require_unitary", "require_nonnegative", "gibbs_state", "log_partition_function",
    "evolve_unitary", "shannon_entropy", "von_neumann_entropy", "relative_entropy", "alpha_rre",
    "helmholtz_free_energy", "alpha_free_energy", "quantum_mutual_information",
]

# Eigenvalues in [-EIG_CLIP, 0) are treated as numerical zeros of a PSD
# matrix; anything below -EIG_CLIP fails validation.
EIG_CLIP = 1e-10

UNITARITY_ATOL = 1e-10

# A density matrix's trace must lie within TRACE_ATOL of 1.
TRACE_ATOL = 1e-10


@dataclass(frozen=True)
class Hamiltonian:
    """Hermitian energy operator (dimensionless units, k_B = 1)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = qlinalg.require_hermitian(self.matrix, "hamiltonian")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class ThermoContext:
    """A Hamiltonian together with an inverse temperature beta = 1/T.

    beta = 0 is admitted as the infinite-temperature limit (Gibbs state
    I/d); free energies require beta > 0.
    """

    hamiltonian: Hamiltonian
    beta: float

    def __post_init__(self):
        object.__setattr__(self, "beta", require_nonnegative(self.beta, "beta"))

    @property
    def temperature(self) -> float:
        if self.beta == 0.0:
            raise ContractError("temperature undefined at beta = 0")
        return require_finite(1.0 / self.beta, f"temperature at beta = {self.beta!r}")


def check_density_matrix(rho) -> np.ndarray:
    """Validate hermiticity, positivity (>= -EIG_CLIP), and unit trace (within TRACE_ATOL)."""
    rho = qlinalg.require_hermitian(rho, "density matrix")
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > TRACE_ATOL:
        raise ContractError(f"trace {tr} differs from 1 beyond {TRACE_ATOL}")
    w = np.linalg.eigvalsh(rho)
    if w.min() < -EIG_CLIP:
        raise ContractError(f"negative eigenvalue {w.min():.3e} below -{EIG_CLIP}")
    return rho


def _refused_states(stack: np.ndarray) -> np.ndarray:
    """For each matrix of the stack, in one pass: would check_density_matrix
    refuse it (Hermiticity, unit trace, the -EIG_CLIP eigenvalue floor)?"""
    scale = np.maximum(1.0, np.linalg.norm(stack, axis=(1, 2)))
    skew = np.linalg.norm(stack - stack.conj().transpose(0, 2, 1), axis=(1, 2))
    off_trace = np.abs(np.trace(stack, axis1=1, axis2=2).real - 1.0)
    lowest = np.linalg.eigvalsh(stack).min(axis=1)
    return (~(skew <= qlinalg.HERMITICITY_RTOL * scale) | (off_trace > TRACE_ATOL)
            | (lowest < -EIG_CLIP))


def require_state(rho, d: int, what: str = "state") -> np.ndarray:
    """A d x d density matrix (ShapeError on the shape, else check_density_matrix)."""
    return check_density_matrix(qlinalg.as_square(rho, d, what))


def require_distribution(p, what: str = "distribution") -> np.ndarray:
    """Entries >= -1e-12 summing to 1 within 1e-9, returned clipped at 0.

    Written so that NaN fails: a NaN entry is not >= -1e-12.
    """
    p = np.asarray(p, dtype=float)
    if not np.all(p >= -1e-12):
        raise ContractError(f"{what}: an entry is below -1e-12 or NaN")
    total = float(p.sum())
    if not abs(total - 1.0) <= 1e-9:
        raise ContractError(f"{what}: entries sum to {total!r}, not 1")
    return np.clip(p, 0.0, None)


def require_unitary(u, d: int, what: str = "operator") -> np.ndarray:
    """A d x d matrix with ||U+ U - 1||_HS <= UNITARITY_ATOL."""
    u = qlinalg.as_square(u, d, what)
    if qlinalg.hs_norm(u.conj().T @ u - np.eye(u.shape[0])) > UNITARITY_ATOL:
        raise ContractError(f"{what} is not unitary within tolerance")
    return u


def _clip(w: np.ndarray) -> np.ndarray:
    """A measured spectrum with the PSD noise floor clipped to zero."""
    if w.min() < -EIG_CLIP:
        raise ContractError(f"state has eigenvalue {w.min():.3e} below -{EIG_CLIP}")
    return np.clip(w, 0.0, None)


def _clipped_spectrum(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition with the PSD noise floor clipped to zero."""
    w, v = np.linalg.eigh(rho)
    return _clip(w), v


class _Gibbs(NamedTuple):
    """A Gibbs state: energies w (ascending), the weights p and eigenvectors v
    of those levels, ln Z and ln p, which is -beta (E - E_0) - ln(Z e^(beta E_0))
    where p underflowed to 0 (tau's kernel), so finite wherever beta (E - E_0) is."""

    w: np.ndarray
    p: np.ndarray
    v: np.ndarray
    log_z: float
    log_p: np.ndarray

    @property
    def tau(self) -> np.ndarray:
        return (self.v * self.p) @ self.v.conj().T


def _gibbs_spectrum(ctx: ThermoContext) -> _Gibbs:
    """The _Gibbs of ctx from one eig_hermitian(H), the ground energy factored
    out: the one place a Gibbs weight or its logarithm is made. A weight below
    the smallest normal float keeps only a few significant bits, so it is 0."""
    w, v = qlinalg.eig_hermitian(ctx.hamiltonian.matrix)
    # beta (E - E_0) past the float range gives ln p = -inf; log 0 is not selected
    with np.errstate(over="ignore", divide="ignore"):
        shifted = -ctx.beta * (w - w.min())
        weights = np.exp(shifted)
        weights[weights < np.finfo(float).tiny] = 0.0
        log_zs, p = np.log(weights.sum()), weights / weights.sum()
        log_p = np.where(p > 0.0, np.log(p), shifted - log_zs)
    return _Gibbs(w, p, v, float(log_zs - ctx.beta * w.min()), log_p)


def gibbs_state(ctx: ThermoContext) -> np.ndarray:
    """Thermal state e^{-beta H} / Tr e^{-beta H}; beta = 0 gives I/d."""
    return _gibbs_spectrum(ctx).tau


def log_partition_function(ctx: ThermoContext) -> float:
    """ln Tr e^{-beta H}, evaluated with the ground energy factored out."""
    return require_finite(_gibbs_spectrum(ctx).log_z, "ln Z")


def evolve_unitary(rho, u) -> np.ndarray:
    """U rho U†; u must be unitary within 1e-10 (Hilbert-Schmidt)."""
    rho = qlinalg.as_square(rho, None, "state")
    u = require_unitary(u, rho.shape[0], "operator")
    return u @ rho @ u.conj().T


def _entropy(w: np.ndarray) -> float:
    """-sum w ln w in nats of a spectrum clipped by _clip, with 0 ln 0 = 0."""
    nz = w[_clip(w) > 0.0]
    return float(-np.sum(nz * np.log(nz)))


def shannon_entropy(p) -> float:
    """-sum p ln p in nats, with 0 ln 0 = 0."""
    return _entropy(require_distribution(np.ravel(p), "probabilities"))


def von_neumann_entropy(rho) -> float:
    """Shannon entropy of the eigenvalue spectrum, in nats."""
    return _entropy(np.linalg.eigh(qlinalg.as_square(rho, None, "state"))[0])


# Support floor of a spectrum measured by eigh: eigenvalues at or below
# this are its kernel. A Gibbs spectrum taken from H needs no floor.
_SUPPORT_TOL = 1e-12
# Overlap mass of rho on ker(sigma) above which the divergence is +inf.
_SUPPORT_VIOLATION = 1e-10
# rho commutes with H when ||[rho, H]||_HS <= COMMUTATOR_RTOL max(1, ||rho|| ||H||).
COMMUTATOR_RTOL = 1e-10
# Within this distance of 1 every alpha-divergence is D + (alpha - 1) V / 2, where
# 1/(alpha - 1) would amplify the log-sum's rounding past the expansion's error.
_NEAR_ONE = 3e-6


def _support(w: np.ndarray) -> np.ndarray:
    """A measured spectrum with every eigenvalue at or below _SUPPORT_TOL set to 0."""
    return np.where(w > _SUPPORT_TOL, w, 0.0)


def _commutes(rho: np.ndarray, h: np.ndarray) -> bool:
    """Does rho commute with h within COMMUTATOR_RTOL?"""
    scale = max(1.0, qlinalg.hs_norm(rho) * qlinalg.hs_norm(h))
    return qlinalg.hs_norm(rho @ h - h @ rho) <= COMMUTATOR_RTOL * scale


def _spectra(rho, sigma) -> tuple[np.ndarray, tuple, tuple]:
    """rho, its clipped spectrum and sigma's floored by _support, of one size."""
    rho = qlinalg.as_square(rho, None, "state")
    sigma = qlinalg.as_square(sigma, rho.shape[0], "reference state")
    r, (ws, vs) = _clipped_spectrum(rho), _clipped_spectrum(sigma)
    return rho, r, (_support(ws), vs)


def relative_entropy(rho, sigma) -> float:
    """Tr[rho (ln rho - ln sigma)]; +inf when supp(rho) escapes supp(sigma)."""
    return _relative_entropy(*_spectra(rho, sigma)[1:])


def _relative_entropy(r: tuple, s: tuple) -> float:
    """relative_entropy on the clipped spectrum r = (wr, vr) of rho and the
    spectrum s = (ws, vs) of sigma, whose kernel is exactly 0."""
    (wr, vr), (ws, vs) = r, s
    overlap = np.abs(vr.conj().T @ vs) ** 2  # overlap[i, j] = |<r_i|s_j>|^2
    kernel = ws == 0.0
    if np.sum(wr[:, None] * overlap[:, kernel]) > _SUPPORT_VIOLATION:
        return math.inf
    nz = wr > 0.0
    s_term = float(np.sum(wr[nz] * np.log(wr[nz])))
    cross = float(np.sum(wr[nz, None] * overlap[np.ix_(nz, ~kernel)] * np.log(ws[~kernel])[None, :]))
    return s_term - cross


def _pairs(wr: np.ndarray, vr: np.ndarray, ws: np.ndarray, vs: np.ndarray) -> tuple:
    """The Nussbaum-Szkola pairs of rho = (wr, vr) and sigma = (ws, vs) for
    _renyi_sum, flattened: x_ij = ln r_i - ln s_j, y_ij = ln s_j + ln |<r_i|s_j>|^2."""
    with np.errstate(divide="ignore", invalid="ignore"):
        log_r, log_s = np.log(wr)[:, None], np.log(ws)[None, :]
        return (log_r - log_s).ravel(), (log_s + 2.0 * np.log(np.abs(vr.conj().T @ vs))).ravel()


def _renyi_sum(alpha, x: np.ndarray, y, tr, d_one=None) -> np.ndarray:
    """sgn(alpha)/(alpha - 1) * [ln sum exp(alpha x + y) - ln tr], the one
    log-space sum behind every alpha != 1 divergence, over the last axis of
    x and y (alpha broadcasts against the others). Pairs where x or y is not
    finite are left out; +inf where none is left. Each term is taken divided
    by max(|alpha|, 1), so none leaves the float range whatever alpha is.
    Within _NEAR_ONE of 1 the value is D + (alpha - 1) V / 2 about the alpha = 1
    value d_one = D, with V = sum P (x - D)^2 over the pairs P = e^(x + y).
    """
    alpha = np.asarray(alpha, dtype=float)
    scale = np.maximum(np.abs(alpha), 1.0)
    near = (np.abs(alpha - 1.0) < _NEAR_ONE) & (alpha != 1.0)
    # inf - inf, alpha = 1 and terms far below the largest are masked or vanish
    with np.errstate(all="ignore"):
        a, s = (alpha / scale)[..., None], scale[..., None]
        terms = np.where(np.isfinite(x) & np.isfinite(y), a * x + y / s, -np.inf)
        top = terms.max(axis=-1)
        empty = np.isneginf(top)
        shift = np.where(empty, 0.0, top)
        rest = np.log(np.exp(s * (terms - shift[..., None])).sum(axis=-1))
        coeff = np.sign(alpha) / (alpha - 1.0)
        d = np.where(empty, math.inf, coeff * scale * shift + coeff * (rest - np.log(tr)))
        if near.any():  # V = 0 where D = +inf, which the expansion keeps
            one = np.asarray(d_one, dtype=float)
            dev = (x - one[..., None]) ** 2
            v = np.where(np.isfinite(dev) & np.isfinite(y), np.exp(x + y) * dev, 0.0).sum(axis=-1)
            d = np.where(near, one + (alpha - 1.0) * v / 2.0, d)
    return d


def alpha_rre(rho, sigma, alpha: float) -> float:
    """Renyi relative divergence of order alpha, in nats.

    The Petz form Tr[rho^alpha sigma^(1 - alpha)] on 0 < |alpha| < 1 and the
    sandwiched form on |alpha| > 1, summed in log space; the limit
    Tr[rho(ln rho - ln sigma)] at alpha = 1, and within _NEAR_ONE of it
    D + (alpha - 1) V / 2, V the relative-entropy variance. alpha in {0, -1}
    is outside every branch. Support incompatibilities return +inf.
    """
    return _alpha_rre(*_spectra(rho, sigma), alpha)


def _require_alpha(alpha: float) -> float:
    """alpha, refused unless finite and outside {0, -1}, where no branch is defined."""
    if not math.isfinite(alpha):
        raise ContractError(f"alpha must be finite, got {alpha!r}")
    if alpha == 0.0 or alpha == -1.0:
        raise ContractError(f"alpha = {alpha} is outside the defined branches")
    return alpha


def _alpha_rre(rho: np.ndarray, r: tuple, s: tuple, alpha: float) -> float:
    """alpha_rre given rho, its clipped spectrum r = (wr, vr) and sigma's s =
    (ws, vs), whose kernel is exactly 0: the general route, for states that
    need not commute. _renyi_sum takes the pairs of the floored rho on
    0 < |alpha| < 1 and within _NEAR_ONE of 1, and the spectrum of the core
    sigma^e rho sigma^e, e = (1/alpha - 1)/2, on the rest of |alpha| > 1."""
    if _require_alpha(alpha) == 1.0:
        return _relative_entropy(r, s)
    (wr, vr), (ws, vs) = r, s
    floored = _support(wr)
    # e < 0 for every |alpha| > 1, and rho^alpha is a negative power for alpha < 0
    if (abs(alpha) > 1.0 and not ws.all()) or (-1.0 < alpha < 0.0 and not floored.all()):
        return math.inf
    near = abs(alpha - 1.0) < _NEAR_ONE
    if abs(alpha) < 1.0 or near:
        d_one = _relative_entropy(r, s) if near else None
        return float(_renyi_sum(alpha, *_pairs(floored, vr, ws, vs), wr.sum(), d_one))
    with np.errstate(over="ignore", invalid="ignore"):  # a core past the float range is refused
        sig_e = (vs * ws ** ((1.0 / alpha - 1.0) / 2.0)) @ vs.conj().T
        core = sig_e @ rho @ sig_e
        core = (core + core.conj().T) / 2.0
        require_finite(float(np.abs(core).max()), f"sandwiched core at alpha = {alpha!r}")
    wc = np.clip(np.linalg.eigh(core)[0], 0.0, None)
    if alpha < 0.0 and not _support(wc).all():
        return math.inf
    return float(_renyi_sum(alpha, np.log(wc[wc > 0.0]), 0.0, wr.sum()))


def _gibbs_rre_grid(states, ctx: ThermoContext, alphas) -> tuple[float, np.ndarray]:
    """ln Z and alpha_rre(rho, tau) for each state rho commuting with H (rows)
    at every alpha of the grid (columns): one eigvals per state, none per alpha.

    rho and H share an eigenbasis, so N = rho + i(H - c)/s, with H centred on
    c and its spread scaled to at most [-1, 1] by s (never scaled up, as the
    commutation gate is absolute below ||H|| ~ 1), is normal with eigenvalues
    p_k + i(E_k - c)/s. Sorted by imaginary part they pair each eigenvalue of
    rho with the Gibbs weight of its level, degenerate levels included, and
    no eigenvector is taken. The weights enter as ln p of _gibbs_spectrum,
    -inf only where beta (E - E_0) itself overflows.
    """
    w = (gibbs := _gibbs_spectrum(ctx)).w
    centre, spread = (w[-1] + w[0]) / 2.0, max((w[-1] - w[0]) / 2.0, 1.0)
    levels = 1j * (ctx.hamiltonian.matrix - centre * np.eye(w.size)) / spread
    lam = np.linalg.eigvals(np.stack(states) + levels)
    paired = np.take_along_axis(lam.real, np.argsort(lam.imag, axis=1, kind="stable"), axis=1)
    p = np.array([_clip(row) for row in paired])
    alphas = np.array([_require_alpha(a) for a in alphas], dtype=float)
    return gibbs.log_z, _classical_rre_grid(p, gibbs.log_p, alphas)


def _classical_rre_grid(p: np.ndarray, log_q: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """D_alpha(p || q) for each row of clipped spectra p at every alpha, where
    log_q = ln q on the same levels (-inf on the kernel of q): _renyi_sum of
    alpha ln p_k + (1 - alpha) ln q_k against ln sum_k p_k, sum_k p_k (ln p_k -
    ln q_k) at alpha = 1, and within _NEAR_ONE of 1 D + (alpha - 1) V / 2.

    +inf where _alpha_rre gives it: at alpha = 1 for kernel mass above
    _SUPPORT_VIOLATION, at |alpha| > 1 for any kernel of q, at -1 < alpha < 0
    for a zero of the floored p, at alpha < -1 for a level of the core
    p_k q_k^((1 - alpha)/alpha) on the floor, at 0 < alpha < 1 for disjoint
    supports. As there, p is floored by _support on 0 < |alpha| < 1.
    """
    kernel = np.isneginf(log_q)
    a = alphas[:, None]
    nz = p > 0.0
    # log 0 and the masked -inf - -inf are expected; _renyi_sum leaves them out
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_p, log_floored = np.log(p), np.log(_support(p))
        x = np.where(np.abs(a) < 1.0, log_floored[:, None], log_p[:, None]) - log_q
        core = np.exp(log_p[:, None] + (1.0 - a) / a * log_q)
        d_one = np.where(nz, p * log_p, 0.0).sum(axis=1)
        d_one -= np.where(nz & ~kernel, p * log_q, 0.0).sum(axis=1)
    d_one[p[:, kernel].sum(axis=1) > _SUPPORT_VIOLATION] = math.inf
    d = _renyi_sum(alphas, x, log_q, p.sum(axis=1)[:, None], d_one[:, None])
    inf = (alphas > -1.0) & (alphas < 0.0) & np.isneginf(log_floored).any(axis=1)[:, None]
    inf |= (np.abs(alphas) > 1.0) & kernel.any()
    inf |= (alphas < -1.0) & ~_support(core).all(axis=2)
    d[inf] = math.inf
    d[:, alphas == 1.0] = d_one[:, None]
    return d


def helmholtz_free_energy(rho, ctx: ThermoContext) -> float:
    """F(rho) = Tr[H rho] - T S(rho); minimized uniquely by the Gibbs state."""
    h = ctx.hamiltonian.matrix
    rho = qlinalg.as_square(rho, h.shape[0], "state")
    t = ctx.temperature
    energy = float(np.trace(h @ rho).real)
    return require_finite(energy - t * von_neumann_entropy(rho), "free energy")


def alpha_free_energy(rho, ctx: ThermoContext, alpha: float) -> float:
    """F_alpha(rho) = -T ln Z + T * S_alpha(rho || tau): for rho commuting with
    H on the route of resource.second_laws_check, else on that of alpha_rre."""
    t = ctx.temperature
    rho = qlinalg.as_square(rho, ctx.hamiltonian.dim, "state")
    if _commutes(rho, ctx.hamiltonian.matrix):
        log_z, d = _gibbs_rre_grid((rho,), ctx, (alpha,))
        d = float(d[0, 0])
    else:
        gibbs = _gibbs_spectrum(ctx)
        log_z, d = gibbs.log_z, _alpha_rre(rho, _clipped_spectrum(rho), (gibbs.p, gibbs.v), alpha)
    return require_finite(-t * log_z + t * d, f"alpha free energy at alpha = {alpha!r}")


def quantum_mutual_information(rho_ab, dims: tuple[int, int]) -> float:
    """I(A:B) = S(A) + S(B) - S(AB) in nats; zero iff the state factorizes."""
    rho_a = qlinalg.partial_trace(rho_ab, dims, keep=0)
    rho_b = qlinalg.partial_trace(rho_ab, dims, keep=1)
    return (
        von_neumann_entropy(rho_a)
        + von_neumann_entropy(rho_b)
        - von_neumann_entropy(rho_ab)
    )
