"""Shared generators for the test suite. All randomness is seeded."""

import collections
import decimal
import math

import numpy as np

from revtherm import channels, compmodel, compops, qstate
from revtherm.errors import ContractError, ShapeError


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
    """sgn(alpha) ln(sum_k p_k^alpha q_k^(1 - alpha) / sum_k p_k) / (alpha - 1)
    in 50-digit decimal arithmetic, the sum taken about its largest term so
    that no exponent leaves the decimal range: a reference near alpha = 1,
    where a float log-sum loses its digits to the factor 1/(alpha - 1), and
    at orders as large as 1e300."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        a = decimal.Decimal(alpha)
        logs = [
            a * decimal.Decimal(pk).ln() + (1 - a) * decimal.Decimal(lq)
            for pk, lq in zip(np.ravel(p).tolist(), np.ravel(log_q).tolist())
        ]
        top = max(logs)
        log_sum = top + sum((t - top).exp() for t in logs).ln()
        total = sum(decimal.Decimal(pk) for pk in np.ravel(p).tolist())
        return float((log_sum - total.ln()) / (a - 1) * (1 if alpha > 0 else -1))


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


def diag_matrix(*diag):
    n = len(diag)
    return [[[diag[i] if i == j else 0.0, 0.0] for j in range(n)] for i in range(n)]


# One small passing scenario for each task without a bundled file. Every
# optional field is present so that the field-mutation test reaches it.
MINIMAL = {
    "classify": {
        "n_states": 2,
        "rows": {"0": [0.0, 1.0], "1": [1.0, 0.0]},
        "input_dist": [0.25, 0.75],
        "over": [0, 1],
    },
    "entropy-decompose": {"state": diag_matrix(0.5, 0.5), "blocks": [[0], [1]]},
    "implements-check": {
        "unitary": diag_matrix(1.0, 1.0),
        "state": diag_matrix(0.3, 0.7),
        "p_in_blocks": [[0], [1]],
        "p_out_blocks": [[0], [1]],
        "op": {"n_states": 2, "rows": {"0": [1.0, 0.0], "1": [0.0, 1.0]}},
    },
    "thermo-check": {
        "p_in": [0.5, 0.5],
        "p_out": [0.5, 0.5],
        "energies": [0.0, 1.0],
        "beta": 1.0,
        "convention": "standard",
    },
    "cto-check": {
        "rho_in": diag_matrix(0.2, 0.8),
        "rho_out": diag_matrix(0.2, 0.8),
        "hamiltonian": diag_matrix(0.0, 1.0),
        "beta": 1.0,
        "qmi_budget": 0.0,
        "cycle": False,
        "second_laws": True,
        "alphas": [0.5, 2.0],
    },
    "gksl-asymptotic": {
        "hamiltonian": diag_matrix(0.0, 0.0),
        "jumps": [{"operator": diag_matrix(1.0, -1.0), "rate": 0.25}],
        "tol": 1e-8,
        "cesaro": {"horizon": 1e5, "samples": 100000},
        "state": diag_matrix(0.5, 0.5),
        "h_inf": diag_matrix(0.0, 0.0),
        "s": 1.0,
    },
}


def random_partition(gen, d: int, catch_all: bool) -> compmodel.BasisPartition:
    """A partition of d indices into blocks of mixed sizes, singletons
    likely, with each block's indices and the blocks themselves in shuffled
    order. With catch_all, one to d // 3 indices are left unassigned."""
    perm = gen.permutation(d).tolist()
    assigned = d - int(gen.integers(1, max(1, d // 3) + 1)) if catch_all else d
    cuts = sorted(gen.choice(np.arange(1, assigned), size=int(gen.integers(0, assigned)), replace=False))
    blocks = [perm[a:b] for a, b in zip([0, *cuts], [*cuts, assigned])]
    return compmodel.BasisPartition(d, [blocks[i] for i in gen.permutation(len(blocks))])


def random_block_state(gen, partition, empty=()) -> np.ndarray:
    """A density matrix supported on the partition's outcome blocks, each
    block of random rank; the outcome blocks numbered in empty get mass 0."""
    masses = random_distribution(gen, partition.n_outcomes)
    masses[list(empty)] = 0.0
    rho = np.zeros((partition.dim, partition.dim), dtype=complex)
    for mass, b in zip(masses / masses.sum(), partition.outcome_blocks):
        idx = np.asarray(b)
        rho[np.ix_(idx, idx)] = mass * random_density(gen, idx.size, int(gen.integers(1, idx.size + 1)))
    return rho


# Per-block loops behind compmodel's one-pass kernels: the references they
# must match.


def pinch_loop(a, partition) -> np.ndarray:
    """compmodel.pinch block by block, each block copied through np.ix_."""
    a = np.asarray(a, dtype=complex)
    out = np.zeros_like(a)
    for b in partition.outcome_blocks:
        idx = np.asarray(b)
        out[np.ix_(idx, idx)] = a[np.ix_(idx, idx)]
    return out


def block_masses_loop(rho, partition) -> np.ndarray:
    """compmodel.block_masses as one list(b) sum per block."""
    diag = np.real(np.diag(np.asarray(rho, dtype=complex)))
    return np.array([diag[list(b)].sum() for b in partition.outcome_blocks])


def entropy_decompose_loop(ctx) -> tuple[float, float, float]:
    """compmodel.entropy_decompose with one von_neumann_entropy per block."""
    p = np.clip(block_masses_loop(ctx.state, ctx.partition), 0.0, None)
    s_total = qstate.von_neumann_entropy(ctx.state)
    h_c = qstate.shannon_entropy(p)
    s_nc = 0.0
    for mass, b in zip(p, ctx.partition.outcome_blocks):
        if mass <= compmodel.MASS_TOL:
            continue
        idx = np.asarray(b)
        s_nc += mass * qstate.von_neumann_entropy(ctx.state[np.ix_(idx, idx)] / mass)
    return s_total, h_c, float(s_nc)


def implements_walk(u, p_in, p_out, op, ctx, tol=compops.IMPLEMENTS_TOL) -> bool:
    """compops.implements block by block: each occupied block conditioned
    on through restrict_context, then evolved through evolve_unitary."""
    if ctx.partition != p_in:
        raise ContractError("context partition differs from the input partition")
    if op.n_states != p_in.n_outcomes or op.n_states != p_out.n_outcomes:
        raise ShapeError(
            f"operation over {op.n_states} states vs partitions with "
            f"{p_in.n_outcomes}/{p_out.n_outcomes} outcomes"
        )
    for i, mass in enumerate(block_masses_loop(ctx.state, p_in)):
        if mass <= compops.SUPPORT_TOL:
            continue
        if i not in op.rows:
            raise ContractError(f"occupied block {i} outside the operation domain")
        restricted = compmodel.restrict_context(ctx, i)
        evolved = qstate.evolve_unitary(restricted.state, u)
        out_masses = compmodel.block_masses(evolved, p_out)
        if compops.total_variation(out_masses, op.rows[i]) > tol:
            return False
    return True


def stochastic_rows_loop(n_states, rows) -> dict:
    """compops.StochasticOp's row checks one row at a time, in dict order:
    index, length, negative entry, sum. The clipped rows by index."""
    clean = {}
    for i, row in rows.items():
        i = int(i)
        if not 0 <= i < n_states:
            raise ContractError(f"row index {i} outside 0..{n_states - 1}")
        r = np.asarray(row, dtype=float).reshape(-1)
        if r.size != n_states:
            raise ShapeError(f"row {i} has length {r.size}, expected {n_states}")
        if not r.min() >= -compops.ROW_SUM_TOL:
            raise ContractError(f"row {i} has negative entry {r.min():.3e}")
        if not abs(r.sum() - 1.0) <= compops.ROW_SUM_TOL:
            raise ContractError(f"row {i} sums to {r.sum()!r}")
        clean[i] = np.clip(r, 0.0, None)
    return clean


def random_rows(gen, n_states: int) -> dict:
    """Rows of a stochastic operation by state index, in shuffled order,
    about one set in three spoiled at a random row: an index out of range,
    a wrong length, a negative entry, a NaN or a sum off by 1e-9."""
    keys = gen.permutation(n_states)[: int(gen.integers(0, n_states + 1))].tolist()
    rows = {k: random_distribution(gen, n_states) for k in keys}
    if keys and gen.random() < 0.35:
        k = keys[int(gen.integers(len(keys)))]
        flaw = int(gen.integers(5))
        if flaw == 0:
            rows[n_states + k] = rows.pop(k)
        elif flaw == 1:
            rows[k] = np.append(rows[k], 0.0)
        elif flaw == 2:
            rows[k][0] -= 1e-3
        elif flaw == 3:
            rows[k][-1] = math.nan
        else:
            rows[k] = rows[k] * (1.0 + 1e-9)
    return rows


def count_work(monkeypatch) -> collections.Counter:
    """Counts, by name, of the eigendecompositions (np.linalg's eigh,
    eigvalsh and eig) and the joint-state builds (channels._evolve_joint)
    made while the monkeypatch holds."""
    counts = collections.Counter()
    for owner, name in ((np.linalg, "eigh"), (np.linalg, "eigvalsh"), (np.linalg, "eig"),
                        (channels, "_evolve_joint")):
        original = getattr(owner, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return counts


def outcome(f, *args, **kwargs):
    """f's return value, or the type and text of the exception it raised."""
    try:
        return f(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)
