"""Shared generators for the test suite. All randomness is seeded."""

import decimal
import math

import numpy as np


def rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_complex(gen, shape) -> np.ndarray:
    return gen.standard_normal(shape) + 1j * gen.standard_normal(shape)


def random_hermitian(gen, d: int) -> np.ndarray:
    a = random_complex(gen, (d, d))
    return (a + a.conj().T) / 2.0


def random_unitary(gen, d: int) -> np.ndarray:
    # QR of a Ginibre matrix, phases fixed so the distribution is Haar
    q, r = np.linalg.qr(random_complex(gen, (d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(gen, d: int, rank: int | None = None) -> np.ndarray:
    k = d if rank is None else rank
    a = random_complex(gen, (d, k))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def unvec(v) -> np.ndarray:
    """Inverse of qlinalg.vectorize: the d x d matrix whose columns v stacks."""
    v = np.asarray(v)
    d = math.isqrt(v.size)
    return v.reshape(d, d, order="F")


def decimal_renyi(p, log_q, alpha: float) -> float:
    """ln(sum_k p_k^alpha q_k^(1 - alpha) / sum_k p_k) / (alpha - 1) for alpha > 0,
    in 50-digit decimal arithmetic: a reference near alpha = 1, where a float
    log-sum loses its digits to the factor 1/(alpha - 1)."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        a = decimal.Decimal(alpha)
        terms = [
            (a * decimal.Decimal(pk).ln() + (1 - a) * decimal.Decimal(lq)).exp()
            for pk, lq in zip(np.ravel(p).tolist(), np.ravel(log_q).tolist())
        ]
        total = sum(decimal.Decimal(pk) for pk in np.ravel(p).tolist())
        return float((sum(terms) / total).ln() / (a - 1))


def random_distribution(gen, n: int) -> np.ndarray:
    p = gen.random(n) + 1e-3
    return p / p.sum()


def component_search(m) -> np.ndarray:
    """Reference for the components of the nonzero pattern of |m| + |m^T|:
    each index labelled by its component's smallest index, found by a
    plain graph search from each unlabelled index in turn."""
    n = len(m)
    linked = (m != 0) | (m.T != 0)
    labels = np.full(n, -1)
    for root in range(n):
        if labels[root] < 0:
            labels[root] = root
            frontier = [root]
            while frontier:
                i = frontier.pop()
                for j in np.flatnonzero(linked[i]):
                    if labels[j] < 0:
                        labels[j] = root
                        frontier.append(j)
    return labels


def component_rows(m) -> list[list[int]]:
    """The components of component_search(m), each as its ascending list of
    indices, in ascending order of the lists."""
    labels = component_search(m)
    return sorted(np.flatnonzero(labels == root).tolist() for root in np.unique(labels))


def leaking(eig_blocks):
    """qlinalg._eig_blocks with its eigenvalue of largest real part, the
    steady state's 0, moved right by 1e-3."""

    def shifted(stacks):
        evals, right, inverses = eig_blocks(stacks)
        evals = [np.asarray(w, dtype=complex).copy() for w in evals]
        top = max(evals, key=lambda w: w.real.max())
        top.flat[np.argmax(top.real)] += 1e-3
        return evals, right, inverses

    return shifted


def thermal_ladder(d: int, nbar: float = 0.5, omega: float = 1.0, gamma: float = 1.0):
    """A heat sink's detailed-balance damping ladder, truncated to d levels:
    H = omega a+a, jumps a and a+ at rates gamma (nbar + 1) and gamma nbar.
    Its steady state is the Gibbs state of H at beta = ln(1 + 1/nbar) / omega.
    Returns (h, jumps, beta)."""
    a = np.diag(np.sqrt(np.arange(1.0, d)), 1)
    h = omega * np.diag(np.arange(float(d)))
    jumps = ((a, gamma * (nbar + 1.0)), (a.T.copy(), gamma * nbar))
    return h, jumps, float(np.log1p(1.0 / nbar) / omega)
