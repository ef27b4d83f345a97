"""Density matrices, Gibbs states, and the entropy family.

All entropies are returned in nats and k_B = 1 throughout: temperatures
carry energy units and every bound appears as a plain multiple of T.
Conversion to bits happens only in the reporting layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qlinalg
from .errors import ContractError

# Eigenvalues in [-EIG_CLIP, 0) are treated as numerical zeros of a PSD
# matrix; anything below -EIG_CLIP fails validation.
EIG_CLIP = 1e-10

UNITARITY_ATOL = 1e-10


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
        if not (self.beta >= 0.0) or not math.isfinite(self.beta):
            raise ContractError(f"beta must be finite and >= 0, got {self.beta}")

    @property
    def temperature(self) -> float:
        if self.beta == 0.0:
            raise ContractError("temperature undefined at beta = 0")
        return 1.0 / self.beta


def check_density_matrix(rho) -> np.ndarray:
    """Validate hermiticity, positivity (>= -1e-10), and unit trace (within 1e-10)."""
    rho = qlinalg.require_hermitian(rho, "density matrix")
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > 1e-10:
        raise ContractError(f"trace {tr} differs from 1 beyond 1e-10")
    w = np.linalg.eigvalsh(rho)
    if w.min() < -EIG_CLIP:
        raise ContractError(f"negative eigenvalue {w.min():.3e} below -{EIG_CLIP}")
    return rho


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


def _clipped_spectrum(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition with the PSD noise floor clipped to zero."""
    w, v = np.linalg.eigh(rho)
    if w.min() < -EIG_CLIP:
        raise ContractError(f"state has eigenvalue {w.min():.3e} below -{EIG_CLIP}")
    return np.clip(w, 0.0, None), v


def gibbs_state(ctx: ThermoContext) -> np.ndarray:
    """Thermal state e^{-beta H} / Tr e^{-beta H}.

    The ground energy is subtracted before exponentiating, so large beta
    does not overflow; beta = 0 gives the maximally mixed state.
    """
    w, v = qlinalg.eig_hermitian(ctx.hamiltonian.matrix)
    weights = np.exp(-ctx.beta * (w - w.min()))
    p = weights / weights.sum()
    return (v * p) @ v.conj().T


def log_partition_function(ctx: ThermoContext) -> float:
    """ln Tr e^{-beta H}, evaluated with the ground energy factored out."""
    w = np.linalg.eigvalsh(ctx.hamiltonian.matrix)
    shifted = -ctx.beta * (w - w.min())
    return float(np.log(np.exp(shifted).sum()) - ctx.beta * w.min())


def evolve_unitary(rho, u) -> np.ndarray:
    """U rho U†; u must be unitary within 1e-10 (Hilbert-Schmidt)."""
    rho = qlinalg.as_square(rho, None, "state")
    u = require_unitary(u, rho.shape[0], "operator")
    return u @ rho @ u.conj().T


def shannon_entropy(p) -> float:
    """-sum p ln p in nats, with 0 ln 0 = 0."""
    p = require_distribution(np.ravel(p), "probabilities")
    nz = p[p > 0.0]
    return float(-np.sum(nz * np.log(nz)))


def von_neumann_entropy(rho) -> float:
    """Shannon entropy of the eigenvalue spectrum, in nats."""
    w, _ = _clipped_spectrum(qlinalg.as_square(rho, None, "state"))
    nz = w[w > 0.0]
    return float(-np.sum(nz * np.log(nz)))


# Support threshold for relative-entropy kernels: eigenvalues at or below
# this are the kernel of the reference state.
_SUPPORT_TOL = 1e-12
# Overlap mass of rho on ker(sigma) above which the divergence is +inf.
_SUPPORT_VIOLATION = 1e-10


def _state_pair(rho, sigma) -> tuple[np.ndarray, np.ndarray]:
    """The two arguments of a divergence, square, finite and of one size."""
    rho = qlinalg.as_square(rho, None, "state")
    return rho, qlinalg.as_square(sigma, rho.shape[0], "reference state")


def relative_entropy(rho, sigma) -> float:
    """Tr[rho (ln rho - ln sigma)]; +inf when supp(rho) escapes supp(sigma)."""
    rho, sigma = _state_pair(rho, sigma)
    wr, vr = _clipped_spectrum(rho)
    ws, vs = _clipped_spectrum(sigma)
    overlap = np.abs(vr.conj().T @ vs) ** 2  # overlap[i, j] = |<r_i|s_j>|^2
    kernel = ws <= _SUPPORT_TOL
    if np.sum(wr[:, None] * overlap[:, kernel]) > _SUPPORT_VIOLATION:
        return math.inf
    nz = wr > 0.0
    s_term = float(np.sum(wr[nz] * np.log(wr[nz])))
    cross = float(np.sum(wr[nz, None] * overlap[np.ix_(nz, ~kernel)] * np.log(ws[~kernel])[None, :]))
    return s_term - cross


def _pseudo_power(w: np.ndarray, v: np.ndarray, exponent: float) -> np.ndarray | None:
    """Matrix power on the support; None when a negative power is singular."""
    out = np.zeros_like(w)
    pos = w > _SUPPORT_TOL
    if exponent < 0.0 and not pos.all():
        return None
    out[pos] = w[pos] ** exponent
    return (v * out) @ v.conj().T


def alpha_rre(rho, sigma, alpha: float) -> float:
    """Renyi relative divergence of order alpha, in nats.

    Three branches: the direct trace form on 0 < |alpha| < 1, the sandwiched
    form on |alpha| > 1, and the alpha = 1 limit Tr[rho(ln rho - ln sigma)].
    alpha in {0, -1} is outside every branch. Support incompatibilities
    return +inf.
    """
    if alpha == 1.0:
        return relative_entropy(rho, sigma)
    if alpha == 0.0 or alpha == -1.0:
        raise ContractError(f"alpha = {alpha} is outside the defined branches")
    rho, sigma = _state_pair(rho, sigma)
    wr, vr = _clipped_spectrum(rho)
    ws, vs = _clipped_spectrum(sigma)
    tr_rho = float(wr.sum())
    coeff = math.copysign(1.0, alpha) / (alpha - 1.0)

    if abs(alpha) < 1.0:
        rho_a = _pseudo_power(wr, vr, alpha)
        sig_b = _pseudo_power(ws, vs, 1.0 - alpha)
        if rho_a is None or sig_b is None:
            return math.inf
        val = float(np.trace(rho_a @ sig_b).real)
        if val <= 0.0:
            # Orthogonal supports: the trace functional vanishes.
            return math.inf
        return coeff * math.log(val / tr_rho)

    # Sandwiched branch. The reference state is raised to (1-alpha)/(2 alpha),
    # a negative exponent for alpha > 1, so rho must live inside supp(sigma).
    support_sigma = ws > _SUPPORT_TOL
    if not support_sigma.all():
        proj = (vs[:, support_sigma]) @ (vs[:, support_sigma].conj().T)
        if abs(float(np.trace(proj @ rho).real) - tr_rho) > _SUPPORT_VIOLATION:
            return math.inf
    exponent = (1.0 - alpha) / (2.0 * alpha)
    sig_half = _pseudo_power(ws, vs, exponent)
    if sig_half is None:
        return math.inf
    core = sig_half @ rho @ sig_half
    wc, _ = np.linalg.eigh((core + core.conj().T) / 2.0)
    wc = np.clip(wc, 0.0, None)
    if alpha < 0.0 and np.any(wc <= _SUPPORT_TOL):
        return math.inf
    val = float(np.sum(wc[wc > 0.0] ** alpha))
    if val <= 0.0:
        return math.inf
    return coeff * math.log(val / tr_rho)


def helmholtz_free_energy(rho, ctx: ThermoContext) -> float:
    """F(rho) = Tr[H rho] - T S(rho); minimized uniquely by the Gibbs state."""
    h = ctx.hamiltonian.matrix
    rho = qlinalg.as_square(rho, h.shape[0], "state")
    t = ctx.temperature
    energy = float(np.trace(h @ rho).real)
    return energy - t * von_neumann_entropy(rho)


def alpha_free_energy(rho, ctx: ThermoContext, alpha: float) -> float:
    """F_alpha(rho) = -T ln Z + T * S_alpha(rho || tau)."""
    t = ctx.temperature
    tau = gibbs_state(ctx)
    return -t * log_partition_function(ctx) + t * alpha_rre(rho, tau, alpha)


def quantum_mutual_information(rho_ab, dims: tuple[int, int]) -> float:
    """I(A:B) = S(A) + S(B) - S(AB) in nats; zero iff the state factorizes."""
    rho_a = qlinalg.partial_trace(rho_ab, dims, keep=0)
    rho_b = qlinalg.partial_trace(rho_ab, dims, keep=1)
    return (
        von_neumann_entropy(rho_a)
        + von_neumann_entropy(rho_b)
        - von_neumann_entropy(rho_ab)
    )
