"""Independent reference computations for the benchmark's correctness gate.

Everything here is plain numpy written from the textbook formulas, so that
a generated scenario's expected exit code, and the numbers a report must
contain, do not come from the code under test. The one library routine
used is qlinalg.matrix_exp(..., method="series"), the scaled Taylor route,
as the independent reference for propagations the CLI takes by the
eigendecomposition route.
"""

from __future__ import annotations

import numpy as np

# Bands around each pass/fail threshold inside which a generated case is
# redrawn, so that rounding can never decide an expected exit code.
MARGIN = 10.0


def entropy(w) -> float:
    w = np.clip(np.asarray(w, dtype=float), 0.0, None)
    w = w[w > 0.0]
    return float(-np.sum(w * np.log(w)))


def vn_entropy(rho) -> float:
    return entropy(np.linalg.eigvalsh((rho + rho.conj().T) / 2.0))


def gibbs(h, beta):
    w, v = np.linalg.eigh(h)
    p = np.exp(-beta * (w - w.min()))
    p /= p.sum()
    return (v * p) @ v.conj().T


def free_energy(rho, h, beta) -> float:
    """Helmholtz F = Tr[H rho] - S(rho) / beta."""
    return float(np.real(np.trace(h @ rho))) - vn_entropy(rho) / beta


def renyi(p, g, a) -> float:
    """Classical Renyi divergence D_a(p || g), in nats; a = 1 is Kullback-Leibler."""
    if a == 1.0:
        return float(np.sum(p * np.log(p / g)))
    return float(np.sign(a) / (a - 1.0) * np.log(np.sum(p**a * g ** (1.0 - a))))


def ptrace_env(joint, d_s, d_e):
    """Reduced state of the environment (second factor)."""
    return np.einsum("ijil->jl", joint.reshape(d_s, d_e, d_s, d_e))


# -- landauer ------------------------------------------------------------------


def landauer_margin(states, target, h_e, beta, unitaries, mode):
    """Average environment energy gain minus the mode's bound."""
    tau = gibbs(h_e, beta)
    d_e = h_e.shape[0]
    d_s = target.shape[0]
    e_in = float(np.real(np.trace(tau @ h_e)))
    t = 1.0 / beta
    avg = 0.0
    for idx, (p, rho) in enumerate(states):
        u = unitaries[0 if mode == "unconditional" else idx]
        joint = u @ np.kron(rho, tau) @ u.conj().T
        avg += p * (float(np.real(np.trace(ptrace_env(joint, d_s, d_e) @ h_e))) - e_in)
    s_target = vn_entropy(target)
    if mode == "conditional":
        bound = sum(-t * p * (s_target - vn_entropy(rho)) for p, rho in states)
    else:
        probs = np.array([p for p, _ in states])
        avg_ds = sum(p * (s_target - vn_entropy(rho)) for p, rho in states)
        bound = -t * (avg_ds - entropy(probs))
    return avg - bound


# -- thermomajorization --------------------------------------------------------


def _curve(p, e, beta, convention):
    sign = -1.0 if convention == "paper" else 1.0
    key = p * np.exp(sign * beta * e)
    order = np.lexsort((np.arange(p.size), e, -key))
    xs = np.concatenate(([0.0], np.cumsum(np.exp(-beta * e[order]))))
    ys = np.concatenate(([0.0], np.cumsum(p[order])))
    return xs, ys


def thermo_margin(p_in, p_out, e, beta, convention):
    """min over interior x of (input curve - output curve); feasible iff >= 0.

    Both curves are piecewise linear, so comparing them on the union of
    their breakpoints is exact. They share both endpoints, (0, 0) and
    (Z, 1), where the difference is zero up to rounding; the interior
    decides the verdict.
    """
    xi, yi = _curve(p_in, e, beta, convention)
    xo, yo = _curve(p_out, e, beta, convention)
    grid = np.union1d(xi, xo)
    grid = grid[(grid > 0.0) & (grid < min(xi[-1], xo[-1]) * (1.0 - 1e-12))]
    return float(np.min(np.interp(grid, xi, yi) - np.interp(grid, xo, yo)))


# -- GKSL ----------------------------------------------------------------------


def superoperator(h, jumps):
    """Column-stacking generator: vec(A X B) = (B^T kron A) vec(X)."""
    d = h.shape[0]
    eye = np.eye(d)
    m = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for f, kappa in jumps:
        ff = f.conj().T @ f
        m += kappa * (np.kron(f.conj(), f) - 0.5 * np.kron(eye, ff) - 0.5 * np.kron(ff.T, eye))
    return m


def vec(a):
    return a.reshape(-1, order="F")


def unvec(v, d):
    return v.reshape(d, d, order="F")


def series_propagate(m, rho, t):
    from revtherm import qlinalg

    d = rho.shape[0]
    return unvec(qlinalg.matrix_exp(t * m, method="series") @ vec(rho), d)


def offblock(a, blocks):
    mask = np.ones(a.shape, dtype=bool)
    assigned = [i for b in blocks for i in b]
    rest = [i for i in range(a.shape[0]) if i not in assigned]
    for b in list(blocks) + ([rest] if rest else []):
        mask[np.ix_(b, b)] = False
    return float(np.linalg.norm(a[mask]))


def _cluster(values, atol):
    out = []
    for v in np.sort(values):
        if not out or abs(v - out[-1]) > atol:
            out.append(float(v))
    return out


def spectral(m, d):
    """Asymptotic sector from an eigendecomposition of the generator.

    Returns (eigenvalues, right eigenvectors, dual rows, asymptotic mask,
    P_inf, rank of the support of P_inf(1/d), asymptotic gate).
    """
    evals, right = np.linalg.eig(m)
    dual = np.linalg.inv(right)
    tol = 1e-8 * max(1.0, float(np.abs(evals).max()))
    asym = np.abs(evals.real) <= tol
    p_inf = right[:, asym] @ dual[asym, :]
    image = unvec(p_inf @ vec(np.eye(d, dtype=complex) / d), d)
    w = np.linalg.eigvalsh((image + image.conj().T) / 2.0)
    rank = int(np.sum(w > 1e-10))
    return evals, right, dual, asym, p_inf, rank, tol


def cesaro_distance(evals, right, dual, asym, p_inf, tol, horizon, samples):
    """||Cesaro average - P_inf||_HS in closed form on the eigenbasis.

    The library's average over n samples of exp(k dt (L - i w)) acts on
    eigenvalue lam as the geometric mean (1/n) sum_k z^k, z = exp(dt(lam -
    i w)), summed over the asymptotic frequencies w.
    """
    freqs = _cluster(evals.imag[asym], tol)
    dt = horizon / samples
    coeff = np.zeros(evals.size, dtype=complex)
    for w in freqs:
        z = np.exp(dt * (evals - 1j * w))
        near = np.abs(1.0 - z) < 1e-12
        safe = np.where(near, 0.5, z)
        mean = (1.0 - safe**samples) / (samples * (1.0 - safe))
        coeff += np.where(near, 1.0, mean)
    ces = (right * coeff) @ dual
    return float(np.linalg.norm(ces - p_inf))


def classical_ratio(residual, initial):
    """residual over the dephasing gate max(1e-6 * initial, 1e-12)."""
    return residual / max(1e-6 * initial, 1e-12)


def clear_ratio(ratio) -> bool:
    """A ratio to a gate that is at least MARGIN away from 1."""
    return ratio >= MARGIN or ratio <= 1.0 / MARGIN
