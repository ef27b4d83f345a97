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


def _gibbs_spectrum(ctx: ThermoContext) -> tuple[np.ndarray, np.ndarray, float]:
    """Gibbs eigenvalues p, eigenvectors v and ln Z from one eig_hermitian(H),
    the ground energy factored out. A weight below the smallest normal float
    keeps only a few significant bits, so it becomes 0, the kernel."""
    w, v = qlinalg.eig_hermitian(ctx.hamiltonian.matrix)
    weights = np.exp(-ctx.beta * (w - w.min()))
    weights[weights < np.finfo(float).tiny] = 0.0
    return weights / weights.sum(), v, float(np.log(weights.sum()) - ctx.beta * w.min())


def gibbs_state(ctx: ThermoContext) -> np.ndarray:
    """Thermal state e^{-beta H} / Tr e^{-beta H}; beta = 0 gives I/d."""
    p, v, _ = _gibbs_spectrum(ctx)
    return (v * p) @ v.conj().T


def log_partition_function(ctx: ThermoContext) -> float:
    """ln Tr e^{-beta H}, evaluated with the ground energy factored out."""
    return require_finite(_gibbs_spectrum(ctx)[2], "ln Z")


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


# Support floor of a spectrum measured by eigh: eigenvalues at or below
# this are its kernel. A Gibbs spectrum taken from H needs no floor.
_SUPPORT_TOL = 1e-12
# Overlap mass of rho on ker(sigma) above which the divergence is +inf.
_SUPPORT_VIOLATION = 1e-10


def _support(w: np.ndarray) -> np.ndarray:
    """A measured spectrum with every eigenvalue at or below _SUPPORT_TOL set to 0."""
    return np.where(w > _SUPPORT_TOL, w, 0.0)


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


def _pseudo_power(w: np.ndarray, v: np.ndarray, exponent: float) -> np.ndarray | None:
    """Matrix power on the support; None when a negative power is singular."""
    out = np.zeros_like(w)
    pos = w > 0.0
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
    return _alpha_rre(*_spectra(rho, sigma), alpha)


def _alpha_rre(rho: np.ndarray, r: tuple, s: tuple, alpha: float) -> float:
    """alpha_rre given rho, its clipped spectrum r = (wr, vr) and sigma's s =
    (ws, vs), whose kernel is exactly 0: the one formula, which
    alpha_free_energy and resource.second_laws_check share."""
    if not math.isfinite(alpha):
        raise ContractError(f"alpha must be finite, got {alpha!r}")
    if alpha == 1.0:
        return _relative_entropy(r, s)
    if alpha == 0.0 or alpha == -1.0:
        raise ContractError(f"alpha = {alpha} is outside the defined branches")
    (wr, vr), (ws, vs) = r, s
    tr_rho = float(wr.sum())
    coeff = math.copysign(1.0, alpha) / (alpha - 1.0)

    if abs(alpha) < 1.0:
        rho_a = _pseudo_power(_support(wr), vr, alpha)
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
    support_sigma = ws > 0.0
    if not support_sigma.all():
        proj = (vs[:, support_sigma]) @ (vs[:, support_sigma].conj().T)
        if abs(float(np.trace(proj @ rho).real) - tr_rho) > _SUPPORT_VIOLATION:
            return math.inf
    exponent = (1.0 - alpha) / (2.0 * alpha)
    sig_half = _pseudo_power(ws, vs, exponent)
    if sig_half is None:
        return math.inf
    with np.errstate(over="ignore", invalid="ignore"):  # a core past the float range is refused
        core = sig_half @ rho @ sig_half
        core = (core + core.conj().T) / 2.0
        require_finite(float(np.abs(core).max()), f"sandwiched core at alpha = {alpha!r}")
    wc = np.clip(np.linalg.eigh(core)[0], 0.0, None)
    if alpha < 0.0 and not _support(wc).all():
        return math.inf
    wc = wc[wc > 0.0]
    if not wc.size:
        return math.inf
    with np.errstate(over="ignore", under="ignore"):
        val = float(np.sum(wc ** alpha))
    if 0.0 < val < math.inf:
        return coeff * math.log(val / tr_rho)
    # over- or underflow: the same sum in log space, shifted by its largest term
    logs = np.log(wc)
    top = logs.max() if alpha > 0.0 else logs.min()
    log_val = math.log(float(np.sum(np.exp(alpha * (logs - top)))))
    return coeff * alpha * float(top) + coeff * (log_val - math.log(tr_rho))


def helmholtz_free_energy(rho, ctx: ThermoContext) -> float:
    """F(rho) = Tr[H rho] - T S(rho); minimized uniquely by the Gibbs state."""
    h = ctx.hamiltonian.matrix
    rho = qlinalg.as_square(rho, h.shape[0], "state")
    t = ctx.temperature
    energy = float(np.trace(h @ rho).real)
    return require_finite(energy - t * von_neumann_entropy(rho), "free energy")


def alpha_free_energy(rho, ctx: ThermoContext, alpha: float) -> float:
    """F_alpha(rho) = -T ln Z + T * S_alpha(rho || tau)."""
    t = ctx.temperature
    p, v, log_z = _gibbs_spectrum(ctx)
    rho = qlinalg.as_square(rho, p.size, "state")
    f = -t * log_z + t * _alpha_rre(rho, _clipped_spectrum(rho), (p, v), alpha)
    return require_finite(f, f"alpha free energy at alpha = {alpha!r}")


def quantum_mutual_information(rho_ab, dims: tuple[int, int]) -> float:
    """I(A:B) = S(A) + S(B) - S(AB) in nats; zero iff the state factorizes."""
    rho_a = qlinalg.partial_trace(rho_ab, dims, keep=0)
    rho_b = qlinalg.partial_trace(rho_ab, dims, keep=1)
    return (
        von_neumann_entropy(rho_a)
        + von_neumann_entropy(rho_b)
        - von_neumann_entropy(rho_ab)
    )
