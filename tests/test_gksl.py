import math
import time
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from revtherm import compmodel, gksl, qlinalg, qstate
from revtherm.errors import ContractError, NonDiagonalizable, NumericHealthError, ShapeError

from helpers import random_complex, random_density, random_hermitian, rng

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)
SMINUS = np.array([[0, 1], [0, 0]], dtype=complex)


def dephasing(kappa=0.25):
    return gksl.Lindbladian(qstate.Hamiltonian(np.zeros((2, 2))), ((SZ, kappa),))


def damping(kappa=0.8):
    return gksl.Lindbladian(qstate.Hamiltonian(np.zeros((2, 2))), ((SMINUS, kappa),))


def closed(h):
    return gksl.Lindbladian(qstate.Hamiltonian(h), ())


def exceptional_point(kappa, d):
    """Driven damped qubit at Omega = kappa/4, embedded as H x 1, F x 1."""
    eye = np.eye(d // 2)
    h = np.kron(0.5 * (kappa / 4.0) * SX, eye)
    return gksl.Lindbladian(qstate.Hamiltonian(h), ((np.kron(SMINUS, eye), kappa),))


def dense_series(l, rho0, t):
    """Independent route: series expm of the d^2 x d^2 generator."""
    propagator = qlinalg.matrix_exp(t * gksl.build_superoperator(l).matrix, method="series")
    return qlinalg.devectorize(propagator @ qlinalg.vectorize(rho0))


def hermitian_basis(d):
    """The unitary B whose columns are the vectorized Hermitian basis operators."""
    return gksl._from_hermitian_basis(np.eye(d * d), 0)


def random_lindbladian(gen, d, n_jumps=2):
    jumps = tuple(
        (gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d)), float(gen.uniform(0.1, 1.0)))
        for _ in range(n_jumps)
    )
    return gksl.Lindbladian(qstate.Hamiltonian(random_hermitian(gen, d)), jumps)


def traceful_lindbladian(gen, d, n_jumps=2):
    """Random jumps, each with a random identity component."""
    jumps = tuple(
        (
            gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d)) + gen.normal(0, 3) * np.eye(d),
            float(gen.uniform(0.1, 1.0)),
        )
        for _ in range(n_jumps)
    )
    return gksl.Lindbladian(qstate.Hamiltonian(random_hermitian(gen, d)), jumps)


def block_lindbladian(gen, sizes):
    """Unitary block interiors, dephased cross-block coherences: asymptotic
    eigenvalues at the nonzero Bohr frequencies of each block."""
    d = sum(sizes)
    h = np.zeros((d, d), dtype=complex)
    level = np.empty(d)
    start = 0
    for j, size in enumerate(sizes):
        idx = slice(start, start + size)
        h[idx, idx] = random_hermitian(gen, size)
        level[idx] = 2.0 * j
        start += size
    return gksl.Lindbladian(qstate.Hamiltonian(h), ((np.diag(level), 0.7),))


def complex_route(l, tol):
    """Independent reference: one complex eig of the column-stacked generator
    and its biorthogonal projector onto |Re| <= tol."""
    m = gksl.build_superoperator(l).matrix
    evals, right = np.linalg.eig(m)
    asym = np.abs(evals.real) <= tol
    return evals, right[:, asym] @ np.linalg.inv(right)[asym, :]



def dephasing_pairs(gen, d):
    """Diagonal H and one diagonal jump constant on each index pair."""
    pair = np.arange(d) // 2
    level = 2.0 * pair + gen.uniform(0.0, 0.5, (d + 1) // 2)[pair]
    h = np.diag(gen.uniform(-1.0, 1.0, d))
    return gksl.Lindbladian(qstate.Hamiltonian(h), ((np.diag(level), 1.0),))


def dense_eig_projector(l, tol):
    """Independent reference for p_inf: one complex eig of the column-stacked
    generator M gives the asymptotic eigenvalues, clustered by imaginary
    part (gaps above tol split clusters). A cluster of k eigenvalues with
    mean lambda spans the null space of M - lambda, semisimple for a GKSL
    generator: with R and Y its right and left singular vectors of the k
    smallest singular values, it adds R (Y+ R)^-1 Y+. (The eigenvectors of
    a degenerate cluster that eig returns can be nearly dependent, and
    lose digits the SVD keeps.) Returns (asymptotic count, p_inf)."""
    m = gksl.build_superoperator(l).matrix
    evals = np.linalg.eig(m)[0]
    asym = evals[np.abs(evals.real) <= tol]
    asym = asym[np.argsort(asym.imag)]
    p = np.zeros_like(m)
    for cluster in np.split(asym, np.flatnonzero(np.diff(asym.imag) > tol) + 1):
        u, _, vh = np.linalg.svd(m - cluster.mean() * np.eye(len(m)))
        y, r = u[:, -len(cluster) :], vh[-len(cluster) :].conj().T
        p += r @ np.linalg.solve(y.conj().T @ r, y.conj().T)
    return len(asym), p

def kron_superoperators(l):
    """Reference: the generator and its adjoint summed term by term from
    single Kronecker products, C^T kron B for each sandwich B A C."""
    d = l.dim
    eye = np.eye(d)
    h = l.hamiltonian.matrix
    commutator = np.kron(eye, h) - np.kron(h.T, eye)
    m, a = -1j * commutator, 1j * commutator
    for f, kappa in l.jumps:
        ff = f.conj().T @ f
        anticommutator = np.kron(eye, ff) + np.kron(ff.T, eye)
        m = m + kappa * np.kron(f.conj(), f) - kappa / 2.0 * anticommutator
        a = a + kappa * np.kron(f.T, f.conj().T) - kappa / 2.0 * anticommutator
    return m, a


def decaying_dfs_lindbladian(gen, sizes):
    """The benchmark's decoherence-free generator: unitary blocks of the
    given sizes, cross-block coherences dephased, and one extra level that
    decays into the first block."""
    d = sum(sizes) + 1
    h = np.zeros((d, d), dtype=complex)
    level = np.empty(d)
    start = 0
    for j, size in enumerate(sizes):
        idx = slice(start, start + size)
        h[idx, idx] = random_hermitian(gen, size) / np.sqrt(size)
        level[idx] = 2.0 * j + gen.uniform(0.0, 0.5)
        start += size
    h[-1, -1] = gen.uniform(-1.0, 1.0)
    level[-1] = 2.0 * len(sizes) + gen.uniform(0.0, 0.5)
    decay = np.zeros((d, d))
    decay[0, -1] = 1.0
    jumps = ((np.diag(level), 1.0), (decay, float(gen.uniform(0.5, 1.0))))
    return gksl.Lindbladian(qstate.Hamiltonian(h), jumps)


class TestLindbladian:
    def test_jump_shape_gate(self):
        with pytest.raises(ShapeError):
            gksl.Lindbladian(qstate.Hamiltonian(np.zeros((2, 2))), ((np.eye(3), 1.0),))

    def test_negative_rate_rejected(self):
        with pytest.raises(ContractError):
            gksl.Lindbladian(qstate.Hamiltonian(np.zeros((2, 2))), ((SZ, -0.1),))


class TestSuperoperatorMatrix:
    def test_dephasing_generator_is_diagonal(self):
        sup = gksl.build_superoperator(dephasing(0.25))
        assert np.allclose(sup.matrix, np.diag([0.0, -0.5, -0.5, 0.0]))

    def test_generator_annihilated_by_trace_functional(self):
        gen = rng(71)
        for _ in range(4):
            sup = gksl.build_superoperator(random_lindbladian(gen, 3))
            tr = qlinalg.vectorize(np.eye(3)).conj()
            assert np.linalg.norm(tr @ sup.matrix) < 1e-9 * max(1.0, qlinalg.hs_norm(sup.matrix))

    def test_kind_contract_enforced(self):
        m = gksl.build_superoperator(dephasing()).matrix
        with pytest.raises(ContractError):
            gksl.SuperoperatorMatrix(m, kind="trace_preserving")
        with pytest.raises(ContractError):
            gksl.SuperoperatorMatrix(np.eye(4), kind="generator")
        with pytest.raises(ContractError):
            gksl.SuperoperatorMatrix(m, kind="liouvillian")

    def test_propagator_is_trace_preserving_kind(self):
        m = gksl.build_superoperator(damping()).matrix
        gksl.SuperoperatorMatrix(qlinalg.matrix_exp(2.0 * m), kind="trace_preserving")

    def test_adjoint_duality(self):
        # <<A | L rho>> == <<L+ A | rho>>, with both sides built independently
        gen = rng(72)
        for _ in range(5):
            l = random_lindbladian(gen, 2)
            lm = gksl.build_superoperator(l).matrix
            am = gksl.build_adjoint_superoperator(l).matrix
            a = gen.normal(size=(2, 2)) + 1j * gen.normal(size=(2, 2))
            rho = random_density(gen, 2)
            lhs = qlinalg.hs_inner(a, qlinalg.devectorize(lm @ qlinalg.vectorize(rho)))
            rhs = qlinalg.hs_inner(qlinalg.devectorize(am @ qlinalg.vectorize(a)), rho)
            assert abs(lhs - rhs) < 1e-10

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("n_jumps", [0, 1, 2, 3])
    def test_builds_match_the_kronecker_formula(self, d, n_jumps):
        gen = rng(74 + 10 * d + n_jumps)
        for l in (random_lindbladian(gen, d, n_jumps), traceful_lindbladian(gen, d, n_jumps)):
            for built, ref in zip(
                (gksl.build_superoperator(l), gksl.build_adjoint_superoperator(l)),
                kron_superoperators(l),
            ):
                assert np.abs(built.matrix - ref).max() <= 1e-14 * np.linalg.norm(ref)

    @pytest.mark.parametrize("d", [8, 16])
    def test_block_split_matches_the_kronecker_build(self, d):
        # rounding in the one-product build must not fill in an exact zero
        # that links two components: the eig would run on larger blocks
        gen = rng(75 + d)
        sizes = {8: (2, 2, 3), 16: (5, 5, 5)}[d]
        generators = (
            decaying_dfs_lindbladian(gen, sizes),
            dephasing_pairs(gen, d),
            exceptional_point(1.0, d),
        )
        for l in generators:
            splits = [
                [idx.tolist() for idx in qlinalg._components_by_size(gksl._real_form(m))]
                for m in (gksl.build_superoperator(l).matrix, kron_superoperators(l)[0])
            ]
            assert splits[0] == splits[1]
            assert len(splits[0]) > 1

    def test_adjoint_fixes_identity(self):
        am = gksl.build_adjoint_superoperator(random_lindbladian(rng(73), 2)).matrix
        assert np.linalg.norm(am @ qlinalg.vectorize(np.eye(2))) < 1e-9 * max(
            1.0, qlinalg.hs_norm(am)
        )


class TestRealForm:
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_basis_change_is_unitary(self, d):
        b = hermitian_basis(d)
        assert np.abs(b.conj().T @ b - np.eye(d * d)).max() <= 1e-15
        eye = np.eye(d * d)
        assert np.array_equal(gksl._to_hermitian_basis(eye, 0), b.conj().T)
        assert np.array_equal(gksl._to_hermitian_basis(eye, 1), b)
        assert np.array_equal(gksl._from_hermitian_basis(eye, 1), b.conj().T)
        for k in range(d * d):
            op = qlinalg.devectorize(b[:, k])
            assert np.array_equal(op, op.conj().T)

    @pytest.mark.parametrize("d", [1, 2, 3, 8])
    def test_map_back_matches_the_copying_version(self, d):
        # the map back writes straight into its result; the version that
        # copied the input and permuted a second copy is the reference
        def copying(a, axis):
            mid = (d * d + d) // 2
            t = np.array(a, dtype=complex)
            sym, anti = (t[d:mid], t[mid:]) if axis == 0 else (t[:, d:mid], t[:, mid:])
            sym *= math.sqrt(0.5)
            anti *= (1j if axis == 0 else -1j) * math.sqrt(0.5)
            lower = sym - anti
            sym += anti
            anti[...] = lower
            out = np.empty_like(t)
            if axis == 0:
                out[gksl._hermitian_basis(d)] = t
            else:
                out[:, gksl._hermitian_basis(d)] = t
            return out

        gen = rng(2050 + d)
        real = gen.normal(size=(d * d, d * d))
        for a in (real, real + 1j * gen.normal(size=(d * d, d * d))):
            for axis in (0, 1):
                assert np.array_equal(gksl._from_hermitian_basis(a, axis), copying(a, axis))
            assert np.array_equal(gksl._column_stacked(a), copying(copying(a, 0), 1))

    @pytest.mark.parametrize("d", [2, 3, 5, 8])
    def test_imaginary_residue_is_rounding(self, d):
        m = gksl.build_superoperator(traceful_lindbladian(rng(2000 + d), d)).matrix
        b = hermitian_basis(d)
        dense = b.conj().T @ m @ b
        scale = np.linalg.norm(m)
        assert np.linalg.norm(dense.imag) <= 1e-14 * scale
        assert np.abs(gksl._real_form(m) - dense.real).max() <= 1e-14 * scale

    def test_hamiltonian_is_kept_as_its_hermitian_part(self):
        # H = 1e3 + a tiny Hermitian part + an anti-Hermitian part just
        # inside the Hamiltonian's tolerance: as given, its commutator alone
        # would leave an imaginary residue far above rounding
        gen = rng(2600)
        d = 8
        h = 1e3 * np.eye(d) + 1e-3 * random_hermitian(gen, d)
        a = gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d))
        anti = (a - a.conj().T) / 2.0
        anti *= 0.99e-10 * np.linalg.norm(h) / np.linalg.norm(anti - anti.conj().T)
        l = gksl.Lindbladian(qstate.Hamiltonian(h + anti), ((np.diag(np.arange(d)), 0.5),))
        assert np.array_equal(l.hamiltonian.matrix, l.hamiltonian.matrix.conj().T)
        assert gksl.decompose(l).route == "eigenbasis"
        exact = gksl.Lindbladian(qstate.Hamiltonian(h), ())
        assert np.array_equal(exact.hamiltonian.matrix, h)

    def test_generator_not_preserving_hermiticity_is_refused(self, monkeypatch):
        # a complex Jordan block: its real form has an O(1) imaginary part
        jordan = np.diag([0.0, 0.0, -1.0, -2.0]).astype(complex)
        jordan[0, 1] = 1.0
        monkeypatch.setattr(gksl, "build_superoperator", lambda l: SimpleNamespace(matrix=jordan))
        with pytest.raises(NumericHealthError, match="Hermiticity"):
            gksl.decompose(dephasing())

    @pytest.mark.parametrize("d", [2, 3, 5, 8])
    def test_decompose_agrees_with_complex_route(self, d):
        gen = rng(2100 + d)
        for l in (traceful_lindbladian(gen, d), random_lindbladian(gen, d, n_jumps=1)):
            dec = gksl.decompose(l)
            assert dec.route == "eigenbasis"
            evals, p_ref = complex_route(l, dec.tol)
            tol = 1e-12 * max(1.0, float(np.abs(evals).max()))
            gap = np.abs(dec.eigenvalues[:, None] - evals[None, :])
            assert gap.min(axis=1).max() <= tol and gap.min(axis=0).max() <= tol
            assert np.abs(dec.p_inf.matrix - p_ref).max() <= 1e-10

    @pytest.mark.parametrize(
        "make",
        [
            lambda gen: traceful_lindbladian(gen, 5),
            lambda gen: closed(random_hermitian(gen, 4)),
            lambda gen: block_lindbladian(gen, (2, 3)),
            lambda gen: exceptional_point(1.0, 4),
        ],
        ids=["generic", "closed", "blocks", "exceptional"],
    )
    def test_spectrum_and_frequencies_are_conjugate_symmetric(self, make):
        dec = gksl.decompose(make(rng(2200)))
        z = dec.eigenvalues
        assert np.array_equal(np.sort_complex(z), np.sort_complex(z.conj()))
        f = dec.asymptotic_frequencies
        assert np.array_equal(f, -f[::-1])

    def test_block_generator_frequencies_match_complex_route(self):
        l = block_lindbladian(rng(2300), (2, 3, 3))
        dec = gksl.decompose(l)
        evals, p_ref = complex_route(l, dec.tol)
        assert np.abs(dec.p_inf.matrix - p_ref).max() <= 1e-10
        bohr = np.sort(evals.imag[np.abs(evals.real) <= dec.tol])
        assert len(dec.asymptotic_frequencies) > 3
        for w in dec.asymptotic_frequencies:
            assert np.abs(bohr - w).min() <= 1e-10

    def test_nullspace_projector_agrees_with_eigenbasis_at_nonzero_frequencies(self):
        # a diagonalizable generator admits both routes; the null-space one
        # takes its complex branch for each cluster at w > 0
        l = block_lindbladian(rng(2400), (3, 3))
        r = gksl._real_form(gksl.build_superoperator(l).matrix)
        evals, right, left = qlinalg.eig_general(r)
        gate = gksl._asymptotic_tol(evals, None)
        asym = np.abs(evals.real) <= gate
        assert (evals.imag[asym] > gate).any()
        eigenbasis = (right[:, asym] @ left[:, asym].conj().T).real
        nullspace = gksl._nullspace_projector(r, evals, right, asym, gate)
        assert nullspace.dtype == np.float64
        assert np.abs(nullspace - eigenbasis).max() <= 1e-10

    def test_real_generator_is_kept(self):
        l = random_lindbladian(rng(2500), 3)
        dec = gksl.decompose(l)
        assert dec.real_generator.dtype == np.float64
        b = hermitian_basis(3)
        m = gksl.build_superoperator(l).matrix
        assert np.abs(b @ dec.real_generator @ b.conj().T - m).max() <= 1e-13 * np.linalg.norm(m)


class TestPropagate:
    def test_dephasing_closed_form(self):
        rho0 = np.array([[0.5, 0.3], [0.3, 0.5]], dtype=complex)
        for t in (0.0, 0.7, 4.0):
            out = gksl.propagate(dephasing(0.25), rho0, t)
            assert np.isclose(out[0, 1], 0.3 * math.exp(-0.5 * t))
            assert np.isclose(out[0, 0], 0.5)

    def test_damping_closed_form(self):
        rho0 = np.array([[0.2, 0.1j], [-0.1j, 0.8]], dtype=complex)
        kappa = 0.8
        out = gksl.propagate(damping(kappa), rho0, 1.3)
        assert np.isclose(out[1, 1], 0.8 * math.exp(-kappa * 1.3))
        assert np.isclose(out[0, 1], 0.1j * math.exp(-kappa * 1.3 / 2.0))
        assert np.isclose(np.trace(out).real, 1.0)

    def test_closed_system_matches_conjugation(self):
        gen = rng(74)
        h = random_hermitian(gen, 3)
        rho0 = random_density(gen, 3)
        out = gksl.propagate(closed(h), rho0, 0.9)
        u = qlinalg.matrix_exp(-0.9j * h)
        assert np.allclose(out, u @ rho0 @ u.conj().T, atol=1e-10)

    def test_negative_time_rejected(self):
        with pytest.raises(ContractError):
            gksl.propagate(dephasing(), np.eye(2) / 2, -1.0)

    def test_exceptional_point_passes_health_gates(self):
        # kappa where the eigenvector condition of t L sits just under the
        # 1e8 diagonalizability gate at t = 140/19; an eig-based expm there
        # misses the 1e-9 trace or Hermiticity gate for about half the states
        l = exceptional_point(1.88599068317103, d=4)
        gen = rng(140)
        for _ in range(20):
            rho0 = random_density(gen, 4)
            out = gksl.propagate(l, rho0, 140 / 19)
            assert np.abs(out - dense_series(l, rho0, 140 / 19)).max() <= 1e-12


class TestTrajectory:
    TIMES = (2.5, 0.0, 0.7, 2.5, 6.0, 0.0, 0.7)

    @pytest.mark.parametrize("d", [2, 3, 5, 8])
    @pytest.mark.parametrize("n_jumps", [0, 1, 2, 3])
    def test_matches_dense_series(self, d, n_jumps):
        gen = rng(1000 + 10 * d + n_jumps)
        l = traceful_lindbladian(gen, d, n_jumps)
        rho0 = random_density(gen, d)
        states = gksl.trajectory(l, rho0, self.TIMES)
        assert states.shape == (len(self.TIMES), d, d)
        for t, out in zip(self.TIMES, states):
            assert np.abs(out - dense_series(l, rho0, t)).max() <= 1e-12
            assert abs(np.trace(out).real - 1.0) <= gksl.TRAJECTORY_TRACE_TOL
            assert np.linalg.eigvalsh(out).min() >= gksl.TRAJECTORY_EIG_FLOOR
        for i, t in enumerate(self.TIMES):
            for j in range(i):
                if self.TIMES[j] == t:
                    assert np.array_equal(states[i], states[j])

    @pytest.mark.parametrize("times", [[], [0.0, -1.0], [math.nan], [math.inf]])
    def test_bad_times_rejected(self, times):
        with pytest.raises(ContractError):
            gksl.trajectory(dephasing(), np.eye(2) / 2, times)

    @pytest.mark.parametrize("times", [[1e300], [0.0, 1e300], [1e9, 0.5]])
    def test_work_cap_refused_before_any_step(self, monkeypatch, times):
        # one generator for each route: entrywise, dense and the march
        for name in ("_march", "_dense", "_dephased"):
            monkeypatch.setattr(gksl, name, no_step)
        for l in (dephasing(), random_lindbladian(rng(75), 4), random_lindbladian(rng(75), 16)):
            with pytest.raises(ContractError, match="cap"):
                gksl.trajectory(l, np.eye(l.dim) / l.dim, times)

    def test_zero_generator_needs_no_work(self):
        rho0 = random_density(rng(76), 3)
        out = gksl.trajectory(closed(np.eye(3)), rho0, [1e300])[0]
        assert np.allclose(out, rho0, atol=1e-15)

    def test_d32_twenty_points_is_fast(self):
        # scaling guard, not an acceptance budget: the dense route took
        # about 5 s per point at d = 32
        gen = rng(77)
        l = random_lindbladian(gen, 32)
        rho0 = random_density(gen, 32)
        start = time.perf_counter()
        states = gksl.trajectory(l, rho0, np.linspace(0.0, 10.0, 20))
        assert time.perf_counter() - start < 10.0
        assert states.shape == (20, 32, 32)


def dephasing_closed_form(l, rho0, t):
    """exp(t L) rho0 for diagonal H and one real diagonal jump: each entry
    decays at its own rate, rho_ij e^(t lambda_ij)."""
    h = np.diag(l.hamiltonian.matrix).real
    (f, kappa), = l.jumps
    g = np.diag(f).real
    rates = -1j * (h[:, None] - h[None, :]) - 0.5 * kappa * (g[:, None] - g[None, :]) ** 2
    return rho0 * np.exp(t * rates)


def diagonal_lindbladian(gen, d):
    """Diagonal H and two complex diagonal jumps, each with an identity component."""
    jumps = tuple(
        (
            np.diag(random_complex(gen, d)) + gen.normal(0, 3) * np.eye(d),
            float(gen.uniform(0.1, 1.0)),
        )
        for _ in range(2)
    )
    return gksl.Lindbladian(qstate.Hamiltonian(np.diag(gen.normal(size=d))), jumps)


def bench_style_generators(gen, d):
    """Random generators at the benchmark's scale, and the exceptional point."""
    for n_jumps in (1, 2, 3):
        h = random_hermitian(gen, d) / np.sqrt(2.0 * d)
        jumps = tuple(
            (random_complex(gen, (d, d)) / (2.0 * np.sqrt(d)), float(gen.uniform(0.2, 1.0)))
            for _ in range(n_jumps)
        )
        yield gksl.Lindbladian(qstate.Hamiltonian(h), jumps)
    yield exceptional_point(1.0, d)


def no_step(*args):
    raise AssertionError("march started")


class TestEntrywiseRoute:
    TIMES = np.append(np.linspace(0.0, 10.0, 20), 80.0)

    @pytest.mark.parametrize("d", [2, 4, 8, 12, 16])
    def test_dephasing_matches_closed_form_and_dense_series(self, monkeypatch, d):
        monkeypatch.setattr(gksl, "_march", no_step)
        monkeypatch.setattr(gksl, "_dense", no_step)
        gen = rng(3300 + d)
        l = dephasing_pairs(gen, d)
        rho0 = random_density(gen, d)
        states = gksl.trajectory(l, rho0, self.TIMES)
        for t, out in zip(self.TIMES, states):
            assert np.abs(out - dephasing_closed_form(l, rho0, t)).max() <= 1e-14
            assert np.array_equal(out, out.conj().T)
            assert np.array_equal(out.diagonal().real, rho0.diagonal().real)
        for t, out in zip(self.TIMES[[3, 19]], states[[3, 19]]):
            assert np.abs(out - dense_series(l, rho0, t)).max() <= 1e-12

    @pytest.mark.parametrize("d", [2, 3, 5, 8])
    def test_complex_traceful_jumps_match_dense_series(self, d):
        gen = rng(3400 + d)
        l = diagonal_lindbladian(gen, d)
        k, gs, _, _ = gksl._matrix_free_form(l)
        assert gksl._diagonal_form(k, gs) is not None
        rho0 = random_density(gen, d)
        times = (0.3, 2.5, 6.0)
        for t, out in zip(times, gksl.trajectory(l, rho0, times)):
            assert np.abs(out - dense_series(l, rho0, t)).max() <= 1e-12

    @pytest.mark.parametrize("d", [4, 8, 12, 16])
    def test_random_and_exceptional_keep_the_taylor_march(self, d):
        # the benchmark's other generators are not entrywise; at every d
        # the march itself still agrees with the dense series on them
        gen = rng(3600 + d)
        for l in bench_style_generators(gen, d):
            k, gs, mu, bound = gksl._matrix_free_form(l)
            assert gksl._diagonal_form(k, gs) is None
            rho0 = random_density(gen, d)
            out = gksl._march(rho0, 140 / 19, k, gs, mu, bound)
            assert np.abs(out - dense_series(l, rho0, 140 / 19)).max() <= 1e-12

    def test_dense_explicit_times_on_stiff_dephasing(self):
        gen = rng(3500)
        l = dephasing_pairs(gen, 16)
        rho0 = random_density(gen, 16)
        times = gen.uniform(0.0, 80.0, 2000)
        times[::7] = times[0]
        start = time.perf_counter()
        states = gksl.trajectory(l, rho0, times)
        assert time.perf_counter() - start < 5.0
        assert np.array_equal(states[7], states[0])
        for i in range(0, 2000, 97):
            assert np.abs(states[i] - dephasing_closed_form(l, rho0, times[i])).max() <= 1e-14

    def test_d32_stiff_dephasing_is_fast(self):
        # scaling guard, not an acceptance budget: the Taylor march took
        # about 5 s on this generator
        gen = rng(3700)
        l = dephasing_pairs(gen, 32)
        rho0 = random_density(gen, 32)
        start = time.perf_counter()
        states = gksl.trajectory(l, rho0, self.TIMES)
        assert time.perf_counter() - start < 5.0
        assert np.abs(states[-1] - dephasing_closed_form(l, rho0, 80.0)).max() <= 1e-14

    @pytest.mark.parametrize("rate", [1e300, 1.7e308])
    def test_huge_rates_over_short_times_do_not_overflow(self, rate):
        # each term of an exponent is scaled by t before the sum, so a rate
        # whose lambda_ij overflows still gives the finite t lambda_ij
        rho0 = np.array([[0.5, 0.3], [0.3, 0.5]], dtype=complex)
        l = gksl.Lindbladian(qstate.Hamiltonian(np.zeros((2, 2))), ((SZ, rate),))
        states = gksl.trajectory(l, rho0, [0.0, 1e-305])
        assert np.array_equal(states[0], rho0)
        # the coherence decays at 2 kappa: e^-2e-5 and e^-3400
        assert np.array_equal(states[1].diagonal(), rho0.diagonal())
        assert states[1][0, 1] == pytest.approx(0.3 * math.exp(-2.0 * (rate * 1e-305)), rel=1e-14)


def marched(l, rho0, times, march=gksl._march):
    """Reference: the Taylor march state by state over ascending times (the
    march is bound at import, so a test may stub gksl._march around it)."""
    k, gs, mu, bound = gksl._matrix_free_form(l)
    rho, t, out = (rho0 + rho0.conj().T) / 2.0, 0.0, []
    for target in times:
        rho = march(rho, target - t, k, gs, mu, bound)
        out.append(rho)
        t = target
    return out


def damping_ladder(gen, d, rate):
    """A strong damping ladder under a weak random H: stiff and non-normal."""
    a = np.diag(np.sqrt(np.arange(1.0, d)), 1)
    h = 1e-2 * random_hermitian(gen, d)
    return gksl.Lindbladian(qstate.Hamiltonian(h), ((a, rate),))


def counted(monkeypatch, owner, name):
    """Wrap owner.name so that each call appends its first argument."""
    calls = []
    inner = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args[0])
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


class TestDenseRoute:
    TIMES = np.append(np.linspace(0.0, 10.0, 20), 80.0)

    @pytest.mark.parametrize("d", [2, 3, 4, 8, 12])
    def test_matches_march_and_dense_series(self, monkeypatch, d):
        monkeypatch.setattr(gksl, "_march", no_step)
        gen = rng(4000 + d)
        generators = [random_lindbladian(gen, d), traceful_lindbladian(gen, d)]
        if d % 2 == 0:
            generators += [exceptional_point(1.0, d), exceptional_point(1.88599068317103, d)]
        for l in generators:
            rho0 = random_density(gen, d)
            states = gksl.trajectory(l, rho0, self.TIMES)
            for out, ref in zip(states, marched(l, rho0, self.TIMES)):
                assert np.abs(out - ref).max() <= 1e-12
            for i in (3, 14, 19, 20):
                assert np.abs(states[i] - dense_series(l, rho0, self.TIMES[i])).max() <= 1e-12

    @pytest.mark.parametrize("d", [4, 8])
    @pytest.mark.parametrize("work", [1e2, 1e4])
    def test_stiff_damping_ladder_matches_march_and_dense_series(self, monkeypatch, d, work):
        monkeypatch.setattr(gksl, "_march", no_step)
        gen = rng(4100 + d)
        l = damping_ladder(gen, d, 50.0)
        rho0 = random_density(gen, d)
        bound = gksl._matrix_free_form(l)[3]
        times = work / bound * np.array([1e-4, 1e-3, 1e-2, 0.1, 1.0])
        states = gksl.trajectory(l, rho0, times)
        # the series reference squares its complex propagator about
        # log2(work) times and loses about eps per unit of work to it (3.7e-12
        # at d = 8 and 1e4, where the march and the dense route agree to 1e-14)
        series_tol = max(1e-12, 1e-15 * work)
        for t, out, ref in zip(times, states, marched(l, rho0, times)):
            assert np.abs(out - ref).max() <= 1e-12
            assert np.abs(out - dense_series(l, rho0, t)).max() <= series_tol

    def test_states_are_hermitian_and_t0_is_the_input(self, monkeypatch):
        monkeypatch.setattr(gksl, "_march", no_step)
        gen = rng(4200)
        l = random_lindbladian(gen, 4)
        rho0 = random_density(gen, 4)
        states = gksl.trajectory(l, rho0, [0.0, 0.3, 2.0, 0.0, 7.5])
        sym = (rho0 + rho0.conj().T) / 2.0
        assert np.array_equal(states[0], sym) and np.array_equal(states[3], sym)
        for out in states:
            assert np.array_equal(out, out.conj().T)

    @pytest.mark.parametrize("t_max", [10.0, 7.3, 79.9])
    def test_even_grid_and_resolving_time_take_two_propagators(self, monkeypatch, t_max):
        calls = counted(monkeypatch, qlinalg, "matrix_exp")
        gen = rng(4300)
        l = random_lindbladian(gen, 4)
        times = np.append(np.linspace(0.0, t_max, 20), 80.0)
        states = gksl.trajectory(l, random_density(gen, 4), times)
        assert len(calls) == 2
        assert states.shape == (21, 4, 4)

    @pytest.mark.parametrize(
        "times, count, checked",
        [
            # the grid's step, a step to 80 and a step back onto the grid
            (np.append(np.linspace(0.0, 123.4, 20), 80.0), 3, (7, 13, 19, 20)),
            # a second spacing keeps its propagator while it lasts
            (np.append(np.linspace(0.0, 1.0, 11), np.arange(2.0, 10.0)), 2, (10, 11, 18)),
        ],
    )
    def test_propagators_per_step(self, monkeypatch, times, count, checked):
        calls = counted(monkeypatch, qlinalg, "matrix_exp")
        gen = rng(4300)
        l = random_lindbladian(gen, 4)
        rho0 = random_density(gen, 4)
        states = gksl.trajectory(l, rho0, times)
        assert len(calls) == count
        for i in checked:
            assert np.abs(states[i] - dense_series(l, rho0, times[i])).max() <= 1e-12

    def test_reused_steps_land_within_four_ulps(self):
        # the exact time reached, summed in rationals, against the grid
        gen = rng(4400)
        for t_max in gen.uniform(0.01, 1e3, 20):
            even = np.linspace(0.0, t_max, 1000)[1:]
            for grid, count in ((even, 1), (np.union1d(even, t_max * gen.uniform(0.0, 1.0)), 3)):
                steps, which = gksl._propagator_steps(grid.tolist(), 3)
                assert len(steps) == count
                reached = Fraction(0)
                for target, k in zip(grid.tolist(), which):
                    reached += Fraction(steps[k])
                    assert abs(reached - Fraction(target)) <= gksl.TIME_ULPS * math.ulp(target)

    def test_step_plan(self):
        assert gksl._propagator_steps([1.0, 2.0, 4.0, 6.0], 2) == ([1.0, 2.0], [0, 0, 1, 1])
        grid = [1.0, 3.0, 4.0, 5.0]
        assert gksl._propagator_steps(grid, 2) == ([1.0, 2.0], [0, 1, 0, 0])
        assert gksl._propagator_steps(grid + [5.5], 2) is None
        # only the last and the first step are tried: a step from the middle
        # of the plan is taken anew
        assert gksl._propagator_steps(grid + [7.0], 3) == ([1.0, 2.0, 2.0], [0, 1, 0, 0, 2])
        assert gksl._propagator_steps([], 0) == ([], [])

    @pytest.mark.parametrize("d", [2, 4, 8, 12])
    def test_benchmark_grids_take_the_dense_route(self, monkeypatch, d):
        monkeypatch.setattr(gksl, "_march", no_step)
        gen = rng(4500 + d)
        for l in bench_style_generators(gen, d):
            rho0 = random_density(gen, d)
            for times in (self.TIMES[:-1], self.TIMES):
                assert gksl.trajectory(l, rho0, times).shape == (len(times), d, d)

    def test_d16_takes_the_march(self, monkeypatch):
        monkeypatch.setattr(gksl, "_dense", no_step)
        steps = counted(monkeypatch, gksl, "_march")
        checks = counted(monkeypatch, gksl, "_healthy")
        gen = rng(4600)
        for l in bench_style_generators(gen, 16):
            steps.clear()
            checks.clear()
            gksl.trajectory(l, random_density(gen, 16), self.TIMES)
            assert len(steps) == len(self.TIMES)
            # every state is checked in one stack, after the march
            assert [len(states) for states in checks] == [len(self.TIMES)]

    def test_irregular_times_at_d12_take_the_march(self, monkeypatch):
        # 2,000 distinct steps would be 2,000 expms of a 144 x 144 matrix
        monkeypatch.setattr(gksl, "_dense", no_step)
        steps = []
        monkeypatch.setattr(gksl, "_march", lambda rho, dt, *args: steps.append(dt) or rho)
        gen = rng(4700)
        l = random_lindbladian(gen, 12)
        gksl.trajectory(l, np.eye(12) / 12, gen.uniform(0.0, 80.0, 2000))
        assert len(steps) == 2000

    @pytest.mark.parametrize("route", ["dense", "march"])
    def test_health_gate_names_the_first_failing_state(self, monkeypatch, route):
        # states 1 and 2 fail different gates and state 3 is not finite;
        # state 1's gate is reported, and no warning is raised on state 3
        bad = np.repeat(np.eye(2, dtype=complex)[None] / 2, 4, axis=0)
        bad[1] = np.diag([1.2, -0.2])
        bad[2, 0, 1] = 1.0
        bad[3] = np.inf
        if route == "dense":
            monkeypatch.setattr(gksl, "_dense", lambda l, rho, steps: bad[1:])
        else:
            monkeypatch.setattr(gksl, "_dense", no_step)
            monkeypatch.setattr(gksl, "DENSE_WORK", 0)

        def run():
            # the march is asked for the states in time order, t = 0 first
            states = iter(bad)
            monkeypatch.setattr(gksl, "_march", lambda *args: next(states))
            gksl.trajectory(random_lindbladian(rng(4800), 2), np.eye(2) / 2, [0.0, 1.0, 2.0, 3.0])

        with pytest.raises(NumericHealthError, match="eigenvalue -2.000e-01"):
            run()
        bad[1] = np.nan
        with pytest.raises(NumericHealthError, match="lost Hermiticity"):
            run()

    @pytest.mark.parametrize("d", [4, 24])
    def test_time_zero_alone_builds_no_generator(self, monkeypatch, d):
        builds = counted(monkeypatch, gksl, "build_superoperator")
        monkeypatch.setattr(gksl, "_march", no_step)
        gen = rng(4900 + d)
        l = random_lindbladian(gen, d)
        # off by rounding from Hermitian, so the symmetrization shows
        rho0 = random_density(gen, d) + 1e-17 * random_complex(gen, (d, d))
        sym = (rho0 + rho0.conj().T) / 2.0
        assert not np.array_equal(rho0, sym)
        for times in ([0.0], [0.0, 0.0]):
            states = gksl.trajectory(l, rho0, times)
            for state in states:
                assert np.array_equal(state.view(np.uint64), sym.view(np.uint64))
        assert np.array_equal(gksl.propagate(l, rho0, 0.0), sym)
        assert builds == []

    @pytest.mark.parametrize("route", ["entrywise", "dense", "march"])
    def test_time_zero_state_keeps_the_input_bits(self, monkeypatch, route):
        # -0.0 in the imaginary part of an off-diagonal entry survives the
        # symmetrization; a product with exp(0) = 1 + 0j would make it +0.0
        rho0 = np.array([[0.5, complex(0.1, -0.0)], [complex(0.1, 0.0), 0.5]])
        sym = (rho0 + rho0.conj().T) / 2.0
        assert np.signbit(sym.imag).any()
        if route == "entrywise":
            l = dephasing()
            monkeypatch.setattr(gksl, "_dense", no_step)
        else:
            l = random_lindbladian(rng(4950), 2)
            if route == "march":
                monkeypatch.setattr(gksl, "_dense", no_step)
                monkeypatch.setattr(gksl, "DENSE_WORK", 0)
        if route != "march":
            monkeypatch.setattr(gksl, "_march", no_step)
        state = gksl.trajectory(l, rho0, [0.0, 1.0])[0]
        assert np.array_equal(state.view(np.uint64), sym.view(np.uint64))


class TestMarchCap:
    def test_cap_is_the_taylor_plan_at_work_1e5(self):
        m, s = gksl._taylor_plan(1e5)
        assert m * s == gksl.MAX_MARCH_WORK

    def test_no_march_within_work_1e5_is_refused(self, monkeypatch):
        for a in np.linspace(0.0, 1e5, 2001):
            m, s = gksl._taylor_plan(a)
            assert m * s <= gksl.MAX_MARCH_WORK
        monkeypatch.setattr(gksl, "_march", lambda rho, *args: rho)
        monkeypatch.setattr(gksl, "_dense", no_step)
        # d = 16 is above the dense route's crossover, so the march runs
        for l in (random_lindbladian(rng(3900), 16), dephasing_pairs(rng(3901), 8)):
            bound = gksl._matrix_free_form(l)[3]
            gksl.trajectory(l, np.eye(l.dim) / l.dim, [0.5 / bound, 1e5 / bound])

    def test_stops_add_at_most_one_step_each(self):
        # sum over intervals of the plans <= plan of the whole + 55 per stop,
        # since 55 / theta_55 is the least cost per unit of work
        gen = rng(3904)
        for grid in (np.linspace(0.0, 5e4, 3001), np.sort(gen.uniform(0.0, 5e4, 3000))):
            m, s = gksl._taylor_plan(float(grid[-1]))
            total = sum(np.prod(gksl._taylor_plan(float(a))) for a in np.diff(grid))
            assert m * s <= total <= m * s + 55 * (grid.size - 1)

    @pytest.mark.parametrize("rate", [5e-324, 1e-300, 1e150, 1e300, 1.7e308])
    def test_extreme_rates_run_or_are_refused(self, rate):
        # the plan must neither divide by an underflowed step nor take the
        # log of an overflowed one: the march runs, or the cap refuses it
        # (the diagonal generators take the entrywise route, the last the
        # dense one; the march is run directly on what the cap lets through)
        rho0 = np.array([[0.5, 0.3], [0.3, 0.5]], dtype=complex)
        for h in (np.zeros((2, 2)), np.diag([0.3, -0.3]), 0.3 * SX):
            l = gksl.Lindbladian(qstate.Hamiltonian(h), ((SZ, rate),))
            try:
                states = gksl.trajectory(l, rho0, [0.5, 80.0])
            except ContractError as exc:
                assert "cap" in str(exc)
            else:
                out = gksl._march(rho0, 0.5, *gksl._matrix_free_form(l))
                ref = dense_series(l, rho0, 0.5) if h[0, 1] else dephasing_closed_form(l, rho0, 0.5)
                assert np.abs(states[0] - ref).max() <= 1e-14
                assert np.abs(out - ref).max() <= 1e-14

    @pytest.mark.parametrize("t", [1e300, 1.7e308])
    def test_far_horizons_are_refused_by_the_plan_alone(self, monkeypatch, t):
        # no loop over steps: the plan is float math, finite or inf
        for name in ("_march", "_dense", "_dephased"):
            monkeypatch.setattr(gksl, name, no_step)
        for l in (
            random_lindbladian(rng(3902), 4),
            random_lindbladian(rng(3902), 16),
            dephasing_pairs(rng(3903), 8),
            dephasing(),
        ):
            m, s = gksl._taylor_plan(t * gksl._matrix_free_form(l)[3])
            assert m * s > gksl.MAX_MARCH_WORK
            with pytest.raises(ContractError, match="cap"):
                gksl.trajectory(l, np.eye(l.dim) / l.dim, [0.0, t])


class TestDecompose:
    def test_closed_system_everything_survives(self):
        dec = gksl.decompose(closed(np.diag([0.0, 1.0])))
        assert len(dec.asymptotic_indices) == 4
        assert np.allclose(dec.p_inf.matrix, np.eye(4), atol=1e-10)
        assert np.allclose(dec.p_a, np.eye(2))
        assert np.allclose(dec.asymptotic_frequencies, [-1.0, 0.0, 1.0], atol=1e-9)

    def test_dephasing_projects_onto_diagonal(self):
        dec = gksl.decompose(dephasing(0.25))
        assert len(dec.asymptotic_indices) == 2
        assert np.allclose(dec.p_inf.matrix, np.diag([1.0, 0, 0, 1.0]), atol=1e-10)
        # both computational states survive, so the support is everything
        assert np.allclose(dec.p_a, np.eye(2))
        assert np.allclose(dec.q, np.zeros((2, 2)))

    def test_damping_projects_onto_ground(self):
        dec = gksl.decompose(damping(0.8))
        ground = np.diag([1.0, 0.0]).astype(complex)
        expect = np.outer(
            qlinalg.vectorize(ground), qlinalg.vectorize(np.eye(2)).conj()
        )
        assert np.allclose(dec.p_inf.matrix, expect, atol=1e-10)
        assert np.allclose(dec.p_a, ground)
        rho = random_density(rng(75), 2)
        proj = qlinalg.devectorize(dec.p_inf.matrix @ qlinalg.vectorize(rho))
        assert np.allclose(proj, ground, atol=1e-10)

    def test_defective_generator_takes_fallback(self):
        # driven damped qubit at its exceptional point Omega = kappa/4: the
        # decaying pair at -3 kappa/4 carries a Jordan chain, so the full
        # eigenbasis fails its gate and p_inf comes from the null space of L
        kappa, omega = 1.0, 0.25
        l = gksl.Lindbladian(qstate.Hamiltonian(0.5 * omega * SX), ((SMINUS, kappa),))
        dec = gksl.decompose(l)
        assert dec.route == "nullspace"
        assert dec.p_inf.kind == "trace_preserving"
        assert len(dec.asymptotic_indices) == 1
        # resonance-fluorescence steady state for comparison
        denom = omega**2 / 2.0 + kappa**2 / 4.0
        p_e = (omega**2 / 4.0) / denom
        coh = 1j * (omega * kappa / 4.0) / denom
        steady = np.array([[1.0 - p_e, coh], [np.conj(coh), p_e]])
        proj = qlinalg.devectorize(
            dec.p_inf.matrix @ qlinalg.vectorize(np.diag([1.0, 0.0]).astype(complex))
        )
        assert qlinalg.hs_norm(proj - steady) < 1e-12
        assert np.abs(dec.p_a - np.eye(2)).max() < 1e-12

    def test_diagonalizable_generator_takes_eigenbasis(self):
        assert gksl.decompose(damping(0.8)).route == "eigenbasis"

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
    def test_nonpositive_tol_rejected(self, tol):
        with pytest.raises(ContractError, match="must be positive"):
            gksl.decompose(damping(0.8), tol)

    def test_d24_generic_is_fast(self):
        # scaling guard, not an acceptance budget: one real eig of a
        # 576 x 576 generator
        l = random_lindbladian(rng(78), 24)
        start = time.perf_counter()
        dec = gksl.decompose(l)
        assert time.perf_counter() - start < 10.0
        assert dec.route == "eigenbasis"
        assert len(dec.asymptotic_indices) == 1

    def test_d32_decoherence_free_blocks_are_fast(self):
        # scaling guard, not an acceptance budget: the 1024 x 1024 real
        # generator splits into blocks of at most 128 rows
        l = block_lindbladian(rng(79), (8, 8, 8, 8))
        start = time.perf_counter()
        dec = gksl.decompose(l)
        assert time.perf_counter() - start < 10.0
        assert dec.route == "eigenbasis"
        assert len(dec.asymptotic_indices) == 4 * 8**2

    @pytest.mark.parametrize(
        "make, route",
        [
            (lambda gen: block_lindbladian(gen, (2, 3, 3)), "eigenbasis"),
            (lambda gen: block_lindbladian(gen, (3, 4)), "eigenbasis"),
            (lambda gen: dephasing_pairs(gen, 8), "eigenbasis"),
            (lambda gen: dephasing_pairs(gen, 7), "eigenbasis"),
            (lambda gen: exceptional_point(1.0, 8), "nullspace"),
            (lambda gen: exceptional_point(1.0, 10), "nullspace"),
        ],
        ids=["dfs-8", "dfs-7", "dephasing-8", "dephasing-7", "exceptional-8", "exceptional-10"],
    )
    def test_reducible_generator_matches_dense_complex_eig(self, make, route):
        l = make(rng(2700))
        r = gksl._real_form(gksl.build_superoperator(l).matrix)
        components = qlinalg._components_by_size(r)
        assert sum(len(c) for c in components) > 1
        dec = gksl.decompose(l)
        assert dec.route == route
        n_asymptotic, p_ref = dense_eig_projector(l, dec.tol)
        assert len(dec.asymptotic_indices) == n_asymptotic
        assert np.abs(dec.p_inf.matrix - p_ref).max() <= 1e-10

    def test_non_idempotent_projector_rejected(self):
        dec = gksl.decompose(damping(0.8))
        p = gksl._spectral_projector(dec.real_generator, None)[4]
        fields = dict(
            eigenvalues=dec.eigenvalues,
            asymptotic_indices=dec.asymptotic_indices,
            tol=dec.tol,
            route=dec.route,
            real_generator=dec.real_generator,
        )
        kept = gksl.AsymptoticDecomposition(real_projector=p, **fields)
        assert np.array_equal(kept.p_inf.matrix, dec.p_inf.matrix)
        with pytest.raises(ContractError, match="not idempotent"):
            gksl.AsymptoticDecomposition(real_projector=1.5 * p, **fields)

    @pytest.mark.parametrize("d", [2, 4, 8, 16])
    def test_nullspace_route_matches_series_propagator(self, d):
        # exp(T L) at T = 240 equals p_inf to rounding: the slowest decaying
        # mode is at Re = -kappa / 2, so its remainder is e^-120
        l = exceptional_point(1.0, d)
        dec = gksl.decompose(l)
        assert dec.route == "nullspace"
        assert len(dec.asymptotic_indices) == (d // 2) ** 2
        m = gksl.build_superoperator(l).matrix
        reference = qlinalg.matrix_exp(240.0 * m, method="series")
        assert np.abs(dec.p_inf.matrix - reference).max() <= 1e-10

    def test_jordan_block_at_asymptotic_eigenvalue_is_nondiagonalizable(self, monkeypatch):
        # no GKSL generator has one (its semigroup is bounded), so the
        # generator matrix is substituted: B J B+ for a real J with a Jordan
        # block at 0 plus two decaying modes, which preserves Hermiticity
        jordan = np.diag([0.0, 0.0, -1.0, -2.0])
        jordan[0, 1] = 1.0
        b = hermitian_basis(2)
        m = b @ jordan @ b.conj().T
        monkeypatch.setattr(gksl, "build_superoperator", lambda l: SimpleNamespace(matrix=m))
        with pytest.raises(NonDiagonalizable, match="Jordan chain"):
            gksl.decompose(dephasing())

    def test_singular_nullspace_solve_is_nondiagonalizable(self):
        # only one of the Jordan pair is taken as asymptotic: A + R R+ is
        # then exactly singular, and the solve's LinAlgError is mapped
        m = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
        evals = np.array([0.0, 0.0, -1.0], dtype=complex)
        right = np.eye(3)
        asym = np.array([True, False, False])
        with pytest.raises(NonDiagonalizable, match="solve failed"):
            gksl._nullspace_projector(m, evals, right, asym, 1e-8)

    @pytest.mark.parametrize(
        "make",
        [lambda gen: exceptional_point(1.0, 8), lambda gen: block_lindbladian(gen, (2, 3, 3))],
        ids=["exceptional-8", "dfs-8"],
    )
    def test_singular_eigenbasis_takes_the_nullspace(self, monkeypatch, make):
        # eig_general returns no left vectors when the eigenvector inverse
        # raises; decompose then builds p_inf from the null spaces, even for
        # a generator whose eigenbasis would otherwise pass the gate
        def singular(a):
            raise np.linalg.LinAlgError("Singular matrix")

        l = make(rng(2800))
        monkeypatch.setattr(np.linalg, "inv", singular)
        dec = gksl.decompose(l)
        monkeypatch.undo()
        assert dec.route == "nullspace"
        n_asymptotic, p_ref = dense_eig_projector(l, dec.tol)
        assert len(dec.asymptotic_indices) == n_asymptotic
        assert np.abs(dec.p_inf.matrix - p_ref).max() <= 1e-10


def geometric_mean_with_top_power(e, n):
    """_geometric_mean as first written, forming E^n at the top as well."""
    d2 = e.shape[0]

    def rec(m):
        if m == 1:
            return np.eye(d2, dtype=e.dtype), e
        s, p = rec(m // 2)
        s = s + p @ s
        p = p @ p
        if m % 2:
            s = s + p
            p = p @ e
        return s, p

    return rec(n)[0] / n


class TestCesaro:
    def test_commensurate_closed_horizon_is_exact(self):
        # every Bohr gap times the horizon is a multiple of 2 pi
        l = closed(np.diag([0.0, 1.0]))
        c = gksl.cesaro_projector(l, horizon=16.0 * math.pi, samples=4096)
        assert qlinalg.hs_norm(c.matrix - np.eye(4)) < 1e-10

    def test_dephasing_error_law(self):
        l = dephasing(0.25)
        p_exact = np.diag([1.0, 0, 0, 1.0]).astype(complex)
        err1 = qlinalg.hs_norm(gksl.cesaro_projector(l, 2000.0, 4000).matrix - p_exact)
        err2 = qlinalg.hs_norm(gksl.cesaro_projector(l, 4000.0, 8000).matrix - p_exact)
        assert err1 < 2e-3
        # O(1/horizon): doubling the horizon halves the residual
        assert err2 < 0.55 * err1

    def test_decomposition_frequencies_skip_the_spectrum(self, monkeypatch):
        l = closed(np.diag([0.0, 1.0, 2.5]))
        dec = gksl.decompose(l)
        own = gksl.cesaro_projector(l, horizon=300.0, samples=2**12)

        def no_eigvals(m):
            raise AssertionError("spectrum recomputed")

        def no_build(l):
            raise AssertionError("generator rebuilt")

        monkeypatch.setattr(np.linalg, "eigvals", no_eigvals)
        monkeypatch.setattr(gksl, "build_superoperator", no_build)
        given = gksl.cesaro_projector(l, 300.0, 2**12, dec)
        assert qlinalg.hs_norm(given.matrix - own.matrix) <= 1e-12

    def test_conjugate_frequencies_share_one_mean(self):
        # reference: every asymptotic frequency averaged on its own in
        # complex arithmetic, as the sum was taken before the mean at -w
        # was read off the mean at w
        l = block_lindbladian(rng(2900), (3, 4))
        dec = gksl.decompose(l)
        freqs = dec.asymptotic_frequencies
        assert (freqs > 0).sum() >= 3
        horizon, samples = 60.0, 2**10
        dt = horizon / samples
        step = qlinalg.matrix_exp(dt * dec.real_generator, method="series")
        expect = sum(gksl._geometric_mean(step * np.exp(-1j * w * dt), samples) for w in freqs)
        got = gksl.cesaro_projector(l, horizon, samples, dec).matrix
        assert np.abs(got - gksl._column_stacked(expect)).max() <= 1e-12

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_geometric_mean_is_bit_identical_without_the_top_power(self, dtype):
        gen = rng(5100)
        a = random_complex(gen, (9, 9)) if dtype is complex else gen.normal(size=(9, 9))
        e = qlinalg.matrix_exp(0.1 * a, method="series")
        for n in range(1, 41):
            assert np.array_equal(gksl._geometric_mean(e, n), geometric_mean_with_top_power(e, n))

    def test_decomposition_of_another_dimension_rejected(self):
        with pytest.raises(ContractError, match="dimension"):
            gksl.cesaro_projector(dephasing(), 10.0, 100, gksl.decompose(closed(np.eye(3))))

    def test_horizon_validation(self):
        with pytest.raises(ContractError):
            gksl.cesaro_projector(dephasing(), horizon=-1.0, samples=100)
        with pytest.raises(ContractError):
            gksl.cesaro_projector(dephasing(), horizon=float("inf"), samples=100)

    @pytest.mark.parametrize("samples", [0, -1])
    def test_sample_count_checked_before_any_work(self, monkeypatch, samples):
        def no_build(l):
            raise AssertionError("generator built before the sample count was checked")

        monkeypatch.setattr(gksl, "build_superoperator", no_build)
        with pytest.raises(ContractError, match="sample count must be positive"):
            gksl.cesaro_projector(dephasing(), horizon=10.0, samples=samples)


class TestAsymptoticEvolution:
    def test_dephasing_then_slow_rotation(self):
        dec = gksl.decompose(dephasing(0.25))
        rho = np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex)
        s = 0.4
        out = gksl.asymptotic_evolution(dec, rho, qstate.Hamiltonian(SX), s)
        # dephase to diag(0.7, 0.3), then rotate about x by hand
        c, sn = math.cos(s), math.sin(s)
        u = np.array([[c, -1j * sn], [-1j * sn, c]])
        expect = u @ np.diag([0.7, 0.3]).astype(complex) @ u.conj().T
        assert np.allclose(out, expect, atol=1e-10)

    def test_hamiltonian_outside_support_rejected(self):
        dec = gksl.decompose(damping(0.8))
        with pytest.raises(ContractError):
            gksl.asymptotic_evolution(dec, np.eye(2) / 2, qstate.Hamiltonian(SX), 0.1)

    def test_damping_ground_is_inert(self):
        dec = gksl.decompose(damping(0.8))
        h_inf = qstate.Hamiltonian(np.diag([0.3, 0.0]))
        out = gksl.asymptotic_evolution(dec, np.eye(2) / 2, h_inf, 2.0)
        assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-10)


class TestOperatorSplits:
    def test_four_corners_sum_back(self):
        gen = rng(76)
        dec = gksl.decompose(damping(0.8))
        a = gen.normal(size=(2, 2)) + 1j * gen.normal(size=(2, 2))
        parts = gksl.four_corners(a, dec)
        assert np.allclose(sum(parts), a)
        # with p_a = |0><0| the corner blocks are the matrix entries
        assert np.isclose(parts[0][0, 0], a[0, 0])
        assert np.isclose(parts[3][1, 1], a[1, 1])

    def test_dfs_commutes(self):
        p = compmodel.BasisPartition(3, ((0, 1), (2,)))
        block_u = np.zeros((3, 3), dtype=complex)
        block_u[:2, :2] = np.array([[0, 1], [1, 0]])
        block_u[2, 2] = 1.0
        assert gksl.dfs_commutes(block_u, p)
        cross = np.zeros((3, 3), dtype=complex)
        cross[0, 2] = 1.0
        assert not gksl.dfs_commutes(cross, p)

    def test_split_comp_noncomp(self):
        gen = rng(77)
        p = compmodel.BasisPartition(4, ((0, 1), (2, 3)))
        op = gen.normal(size=(4, 4)) + 1j * gen.normal(size=(4, 4))
        noncomp, comp = gksl.split_comp_noncomp(op, p)
        assert np.allclose(noncomp + comp, op)
        assert np.allclose(noncomp, compmodel.pinch(op, p))
        assert gksl.dfs_commutes(noncomp, p)
        assert compmodel.offblock_norm(comp, p) == pytest.approx(qlinalg.hs_norm(comp))


class TestDephasingCheck:
    def test_resolved_after_long_time(self):
        p = compmodel.BasisPartition(2, ((0,), (1,)))
        rho = np.array([[0.5, 0.3], [0.3, 0.5]], dtype=complex)
        report = gksl.dephasing_check(p, rho, gksl.propagate(dephasing(0.25), rho, 80.0))
        assert report["classical"]
        assert report["residual_coherence"] < 1e-15

    def test_unresolved_at_short_time(self):
        p = compmodel.BasisPartition(2, ((0,), (1,)))
        rho = np.array([[0.5, 0.3], [0.3, 0.5]], dtype=complex)
        report = gksl.dephasing_check(p, rho, gksl.propagate(dephasing(0.25), rho, 1.0))
        assert not report["classical"]
        assert np.isclose(
            report["residual_coherence"], 0.3 * math.sqrt(2.0) * math.exp(-0.5)
        )

    def test_already_diagonal_input_counts_as_classical(self):
        p = compmodel.BasisPartition(2, ((0,), (1,)))
        rho = np.diag([0.6, 0.4])
        report = gksl.dephasing_check(p, rho, gksl.propagate(dephasing(0.25), rho, 1.0))
        assert report["classical"]
