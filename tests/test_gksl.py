import math
import time
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from revtherm import compmodel, gksl, qlinalg, qstate, resource
from revtherm.errors import ContractError, NonDiagonalizable, NumericHealthError, ShapeError

from helpers import (
    component_rows,
    component_search,
    leaking,
    random_complex,
    random_density,
    random_hermitian,
    rng,
    thermal_ladder,
    unvec,
)

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
    return unvec(propagator @ qlinalg.vectorize(rho0))


def hermitian_basis(d):
    """The unitary B whose columns are the vectorized Hermitian basis operators."""
    return gksl._from_hermitian_basis(np.eye(d * d), 0)


def whole_form(dec):
    """The real form R that dec holds by its components, zero between them."""
    return gksl._assemble(dec.components, dec.real_blocks, dec.dim**2)


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

def kron_superoperator(l):
    """Reference: the generator summed term by term from single Kronecker
    products, C^T kron B for each sandwich B A C."""
    d = l.dim
    eye = np.eye(d)
    h = l.hamiltonian.matrix
    m = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for f, kappa in l.jumps:
        ff = f.conj().T @ f
        anticommutator = np.kron(eye, ff) + np.kron(ff.T, eye)
        m = m + kappa * np.kron(f.conj(), f) - kappa / 2.0 * anticommutator
    return m


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

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("n_jumps", [0, 1, 2, 3])
    def test_builds_match_the_kronecker_formula(self, d, n_jumps):
        gen = rng(74 + 10 * d + n_jumps)
        for l in (random_lindbladian(gen, d, n_jumps), traceful_lindbladian(gen, d, n_jumps)):
            ref = kron_superoperator(l)
            built = gksl.build_superoperator(l).matrix
            assert np.abs(built - ref).max() <= 1e-14 * np.linalg.norm(ref)

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
                component_search(gksl._real_form(m))
                for m in (gksl.build_superoperator(l).matrix, kron_superoperator(l))
            ]
            assert np.array_equal(splits[0], splits[1])
            assert splits[0].any()


class TestRealForm:
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_basis_change_is_unitary(self, d):
        b = hermitian_basis(d)
        assert np.abs(b.conj().T @ b - np.eye(d * d)).max() <= 1e-15
        eye = np.eye(d * d)
        assert np.array_equal(gksl._from_hermitian_basis(eye, 1), b.conj().T)
        for k in range(d * d):
            op = unvec(b[:, k])
            assert np.array_equal(op, op.conj().T)
            # the gather and _pair_parts of _coordinates undo B
            assert np.abs(gksl._coordinates(op) - eye[k]).max() <= 1e-15

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
        gate = gksl.decompose(l).tol
        asym = np.abs(evals.real) <= gate
        assert (evals.imag[asym] > gate).any()
        eigenbasis = (right[:, asym] @ left[:, asym].conj().T).real
        components, blocks = gksl._components(l, gksl.SPLIT_MIN_ORDER, gksl._coarse_labels(l))
        evals, vectors, _ = qlinalg._eig_blocks(blocks)
        evals = np.asarray(gksl._assemble(components, evals, len(r)), dtype=complex)
        asym = np.abs(evals.real) <= gate
        stacks = gksl._nullspace_projector(blocks, components, evals, vectors, asym, gate)
        nullspace = gksl._assemble(components, stacks, len(r))
        assert nullspace.dtype == np.float64
        assert np.abs(nullspace - eigenbasis).max() <= 1e-10

    def test_real_generator_is_kept(self):
        l = random_lindbladian(rng(2500), 3)
        dec = gksl.decompose(l)
        r = whole_form(dec)
        assert r.dtype == np.float64
        b = hermitian_basis(3)
        m = gksl.build_superoperator(l).matrix
        assert np.abs(b @ r @ b.conj().T - m).max() <= 1e-13 * np.linalg.norm(m)


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


def bench_random_generators(gen, d):
    """Random generators at the benchmark's scale, with 1, 2 and 3 jumps."""
    for n_jumps in (1, 2, 3):
        h = random_hermitian(gen, d) / np.sqrt(2.0 * d)
        jumps = tuple(
            (random_complex(gen, (d, d)) / (2.0 * np.sqrt(d)), float(gen.uniform(0.2, 1.0)))
            for _ in range(n_jumps)
        )
        yield gksl.Lindbladian(qstate.Hamiltonian(h), jumps)


def bench_style_generators(gen, d):
    """Random generators at the benchmark's scale, and the exceptional point."""
    yield from bench_random_generators(gen, d)
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
        # a random generator is one block: d^6 work per propagator
        monkeypatch.setattr(gksl, "_dense", no_step)
        steps = counted(monkeypatch, gksl, "_march")
        checks = counted(monkeypatch, gksl, "_healthy")
        gen = rng(4600)
        for l in bench_random_generators(gen, 16):
            steps.clear()
            checks.clear()
            gksl.trajectory(l, random_density(gen, 16), self.TIMES)
            # one step per positive time: the t = 0 state is not marched to
            assert len(steps) == len(self.TIMES) - 1
            # every state is checked in one stack, after the march
            assert [len(states) for states in checks] == [len(self.TIMES)]

    def test_reducible_d16_takes_the_dense_route(self, monkeypatch):
        # the exceptional point (H x 1, F x 1) and decoherence-free blocks
        # split into components, gathered from one d^2 x d^2 build
        monkeypatch.setattr(gksl, "_march", no_step)
        builds = counted(monkeypatch, gksl, "build_superoperator")
        gen = rng(4650)
        for l in (exceptional_point(1.0, 16), decaying_dfs_lindbladian(gen, (5, 5, 5))):
            assert l.dim == 16 and gksl._coarse_labels(l) is not None
            rho0 = random_density(gen, 16)
            states = gksl.trajectory(l, rho0, self.TIMES)
            assert len(builds) == 1
            for out, ref in zip(states, marched(l, rho0, self.TIMES)):
                assert np.abs(out - ref).max() <= 1e-12
            for i in (3, 19, 20):
                assert np.abs(states[i] - dense_series(l, rho0, self.TIMES[i])).max() <= 1e-12
            builds.clear()

    def test_sector_steps_share_stacked_exponentials(self, monkeypatch):
        # the distinct steps are exponentiated a chunk at a time, one stacked
        # matrix_exp per group of sectors, and the first step serves again
        # after later chunks
        monkeypatch.setattr(gksl, "_march", no_step)
        calls = counted(monkeypatch, qlinalg, "matrix_exp")
        gen = rng(4680)
        l = exceptional_point(1.0, 12)
        even = np.linspace(0.0, 10.0, 21)
        irregular = np.sort(gen.uniform(10.5, 70.0, 260))
        times = np.concatenate([even, irregular, irregular[-1] + even[1] * np.arange(1, 6)])
        rho0 = random_density(gen, 12)
        states = gksl.trajectory(l, rho0, times)
        steps, which = gksl._propagator_steps(times[1:].tolist(), gksl.DENSE_WORK)
        assert which[:20] == [0] * 20 and which[-5:] == [0] * 5
        # six components of order 1, six of order 3 and thirty of order 4:
        # 540 entries a step, in three size groups; order 1 takes np.exp
        count = gksl.SECTOR_CHUNK // 540
        assert len(steps) > 2 * count
        assert len(calls) == 2 * -(-len(steps) // count)
        for out, ref in zip(states, marched(l, rho0, times)):
            assert np.abs(out - ref).max() <= 1e-12

    @pytest.mark.parametrize(
        "make",
        [
            lambda gen: exceptional_point(1.0, 10),
            lambda gen: exceptional_point(1.88599068317103, 12),
            lambda gen: decaying_dfs_lindbladian(gen, (3, 4, 4)),
            lambda gen: block_lindbladian(gen, (1, 2, 3, 5)),
            lambda gen: dephasing_pairs(gen, 10),
        ],
    )
    def test_sector_forms_match_the_real_form(self, make):
        gen = rng(4660)
        l = make(gen)
        d = l.dim
        coarse = gksl._coarse_labels(l)
        assert coarse is not None
        r = gksl._real_form(gksl.build_superoperator(l).matrix)
        # each coarse block holds both halves of each of its pairs, and the
        # real form is zero between the blocks, exactly
        q = (d * d - d) // 2
        assert np.array_equal(coarse[d : d + q], coarse[d + q :])
        assert not r[coarse[:, None] != coarse[None, :]].any()
        # the blocks split into R's own components, each block R's, bit for bit
        components, forms = gksl._components(l, gksl.EXPM_SPLIT_MIN_ORDER, coarse)
        assert sorted(row for idx in components for row in idx.tolist()) == component_rows(r)
        for idx, form in zip(components, forms):
            assert np.array_equal(form, r[idx[:, :, None], idx[:, None, :]])
            # the populations come first
            for row in idx:
                p = int((row < d).sum())
                assert (row[:p] < d).all() and (row[p:] >= d).all()

    @pytest.mark.parametrize(
        "change, error, match",
        [
            # K + 0.1: L no longer maps to traceless operators
            (lambda k, f, kf: (k + 0.1 * np.eye(len(k)), f, kf), ContractError, "trace contract"),
            # i F+ rho F+ is not Hermitian for Hermitian rho, but its trace
            # is zero (F+ F+ = 0 for the embedded sigma-), so the trace gate
            # passes and the imaginary-residue gate sees it; i kappa F rho F+
            # would trip the trace gate first
            (lambda k, f, kf: (k, f, kf + 1j * f.conj().swapaxes(1, 2)), NumericHealthError,
             "Hermiticity"),
        ],
    )
    def test_sector_build_keeps_the_generator_gates(self, monkeypatch, change, error, match):
        # the sector route gathers its forms from build_superoperator's
        # matrix, so the gates of SuperoperatorMatrix and _real_form hold
        terms = gksl._generator_terms
        monkeypatch.setattr(gksl, "_generator_terms", lambda l: change(*terms(l)))
        monkeypatch.setattr(gksl, "_march", no_step)
        with pytest.raises(error, match=match):
            gksl.trajectory(exceptional_point(1.0, 12), np.eye(12) / 12, self.TIMES)

    def test_dense_work(self, monkeypatch):
        def prices(l):
            # the route's price, on the coarse blocks, and the components' own
            labels = gksl._coarse_labels(l)
            components = gksl._components(l, gksl.EXPM_SPLIT_MIN_ORDER, labels)[0]
            coarse = [np.arange(l.dim**2)[None]] if labels is None else gksl._group(labels)
            return [sum(len(idx) * idx.shape[1] ** 3 for idx in blocks)
                    for blocks in (coarse, components)]

        gen = rng(4670)
        # one block, or below the split order: d^6
        assert prices(random_lindbladian(gen, 12)) == [12**6] * 2
        assert prices(exceptional_point(1.0, 8)) == [8**6] * 2
        # six blocks of 2: coarse blocks of orders 4 and 8; within them each
        # of order 4 splits into components of orders 1 and 3, and each of
        # order 8 into two of order 4
        assert prices(exceptional_point(1.0, 12)) == [
            6 * 4**3 + 15 * 8**3, 6 * 1 + 6 * 3**3 + 30 * 4**3]
        monkeypatch.setattr(gksl, "EXPM_SPLIT_MIN_ORDER", 0)
        assert prices(exceptional_point(1.0, 8)) == [
            4 * 4**3 + 6 * 8**3, 4 * 1 + 4 * 3**3 + 12 * 4**3]

    @pytest.mark.parametrize("extra, route", [(0, "_dense"), (1, "_march")])
    def test_sector_work_sets_the_propagator_limit(self, monkeypatch, extra, route):
        # 740 distinct steps at 8,064 per propagator, the price of the coarse
        # blocks, fit in DENSE_WORK
        l = exceptional_point(1.0, 12)
        limit = gksl.DENSE_WORK // (6 * 4**3 + 15 * 8**3)
        assert limit == 740
        calls = []
        monkeypatch.setattr(gksl, "_dense", lambda rho, plan, *split: calls.append("_dense")
                            or np.repeat(rho[None], len(plan[1]), axis=0))
        monkeypatch.setattr(gksl, "_march", lambda rho, *args: calls.append("_march") or rho)
        times = np.cumsum(1e-3 * (1.0 + np.arange(limit + extra)))
        gksl.trajectory(l, np.eye(12) / 12, times)
        assert set(calls) == {route}

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
            monkeypatch.setattr(gksl, "_dense", lambda rho, plan, *split: bad[1:])
        else:
            monkeypatch.setattr(gksl, "_dense", no_step)
            monkeypatch.setattr(gksl, "DENSE_WORK", 0)

        def run():
            # the march is asked for the positive times' states in time
            # order; trajectory writes the t = 0 state, bad[0], itself
            states = iter(bad[1:])
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

    @pytest.mark.parametrize("route", ["entrywise", "dense", "march", "sectors"])
    def test_time_zero_state_keeps_the_input_bits(self, monkeypatch, route):
        inputs = [
            # -0.0 in the imaginary part of an off-diagonal entry survives
            # the symmetrization; a product with exp(0) = 1 + 0j would make
            # it +0.0
            np.array([[0.5, complex(0.1, -0.0)], [complex(0.1, 0.0), 0.5]]),
            # -0.0 in the real part of (1, 0) survives one symmetrization
            # but not a second, which adds the +0.0 the first left at (0, 1)
            np.array([[0.5, complex(-0.0, 0.3)], [complex(-0.0, -0.3), 0.5]]),
        ]
        if route == "entrywise":
            l = dephasing()
            monkeypatch.setattr(gksl, "_dense", no_step)
        elif route == "sectors":
            # the dense route on the components of the exceptional point,
            # with each input spread over its six blocks
            l = exceptional_point(1.0, 12)
            spread = []
            for rho0 in inputs:
                # real and imaginary parts apart: complex arithmetic would
                # turn -0.0 into +0.0
                big = np.zeros((12, 12), dtype=complex)
                big.real = np.kron(rho0.real, np.eye(6)) / 6.0
                big.imag = np.kron(rho0.imag, np.eye(6)) / 6.0
                spread.append(big)
            inputs = spread
            builds = counted(monkeypatch, gksl, "build_superoperator")
            sectors = counted(monkeypatch, gksl, "_dense")
        else:
            l = random_lindbladian(rng(4950), 2)
            if route == "march":
                monkeypatch.setattr(gksl, "_dense", no_step)
                monkeypatch.setattr(gksl, "DENSE_WORK", 0)
        if route != "march":
            monkeypatch.setattr(gksl, "_march", no_step)
        for rho0, part in zip(inputs, ("imag", "real")):
            sym = (rho0 + rho0.conj().T) / 2.0
            assert np.signbit(getattr(sym, part)).any()
            state = gksl.trajectory(l, rho0, [0.0, 1.0])[0]
            assert np.array_equal(state.view(np.uint64), sym.view(np.uint64))
        if route == "sectors":
            assert len(builds) == len(sectors) == 2

    @pytest.mark.parametrize(
        "route, d",
        [(route, d) for route in ("entrywise", "dense", "march") for d in (2, 3, 4, 8, 12)]
        + [("march", 16), ("dense", 16)],
    )
    def test_every_route_is_exactly_hermitian(self, monkeypatch, route, d):
        # _healthy returns the states as they are, so each route must
        # return every state equal to its adjoint, element by element
        others = {"entrywise": "_dephased", "dense": "_dense", "march": "_march"}
        for name in set(others.values()) - {others[route]}:
            monkeypatch.setattr(gksl, name, no_step)
        if route == "march":
            monkeypatch.setattr(gksl, "DENSE_WORK", 0)
        gen = rng(5000 + d)
        if route == "entrywise":
            generators = [dephasing_pairs(gen, d), diagonal_lindbladian(gen, d)]
        elif route == "dense" and d == 16:
            # only a generator that splits into sectors is dense at d = 16
            generators = [exceptional_point(1.0, d), decaying_dfs_lindbladian(gen, (5, 5, 5))]
        else:
            generators = [random_lindbladian(gen, d), traceful_lindbladian(gen, d)]
            if d % 2 == 0:
                generators.append(exceptional_point(1.0, d))
            if route == "dense" and d == 12:
                # blocks of 4, 4 and 4: the decaying level joins the first
                generators.append(decaying_dfs_lindbladian(gen, (3, 4, 4)))
        for l in generators:
            states = gksl.trajectory(l, random_density(gen, d), self.TIMES)
            assert np.array_equal(states, states.conj().transpose(0, 2, 1))


def ladder(d, **kwargs):
    """The thermal damping ladder of helpers.thermal_ladder and its Gibbs state."""
    h, jumps, beta = thermal_ladder(d, **kwargs)
    gibbs = qstate.gibbs_state(qstate.ThermoContext(qstate.Hamiltonian(h), beta))
    return gksl.Lindbladian(qstate.Hamiltonian(h), jumps), gibbs


def coherence_orders(components, d):
    """|i - j| for the positions of each component, as one set per component."""
    at = gksl._hermitian_basis(d)
    order = np.abs(at % d - at // d)
    return [set(order[row].tolist()) for idx in components for row in idx]


class TestThermalLadder:
    """A heat sink's generator: checks that owe nothing to eig or matrix_exp."""

    TIMES = np.append(np.linspace(0.0, 10.0, 20), 80.0)

    @pytest.mark.parametrize("d", [4, 8, 12, 16])
    def test_asymptotic_state_is_the_gibbs_state(self, d):
        l, gibbs = ladder(d)
        dec = gksl.decompose(l)
        assert len(dec.asymptotic_indices) == 1
        rho = random_density(rng(5600 + d), d)
        zero = qstate.Hamiltonian(np.zeros((d, d)))
        assert np.abs(gksl.asymptotic_evolution(dec, rho, zero, 0.0) - gibbs).max() <= 1e-13

    @pytest.mark.parametrize("d", [4, 8, 12, 16])
    def test_dense_route_matches_the_march(self, monkeypatch, d):
        # the bench grid needs two propagators; from d = 10 they are taken
        # per coherence order
        l, _ = ladder(d)
        rho0 = random_density(rng(5700 + d), d)
        reference = marched(l, rho0, self.TIMES)
        monkeypatch.setattr(gksl, "_march", no_step)
        states = gksl.trajectory(l, rho0, self.TIMES)
        for out, ref in zip(states, reference):
            assert np.abs(out - ref).max() <= 1e-10

    @pytest.mark.parametrize("route", ["dense", "march"])
    @pytest.mark.parametrize("d", [4, 8, 12, 16])
    def test_relative_entropy_to_gibbs_never_increases(self, monkeypatch, route, d):
        # Spohn (J. Math. Phys. 19:1227, 1978): D(rho_t || gamma_beta) is
        # nonincreasing under a semigroup that fixes gamma_beta
        l, gibbs = ladder(d, gamma=0.1)
        if route == "dense":
            monkeypatch.setattr(gksl, "_march", no_step)
        else:
            monkeypatch.setattr(gksl, "_dense", no_step)
            monkeypatch.setattr(gksl, "DENSE_WORK", 0)
        states = gksl.trajectory(l, random_density(rng(5800 + d), d), np.linspace(0.0, 80.0, 42))
        divergence = np.array([qstate.relative_entropy(rho, gibbs) for rho in states])
        assert divergence[-1] > 0.0
        assert (np.diff(divergence) < 0.0).all()

    @pytest.mark.parametrize("d", [4, 8])
    def test_thermomajorization_verdicts_along_the_trajectory(self, d):
        # rho -> rho_t fixes the Gibbs state and keeps a diagonal rho
        # diagonal, so each p_t is reached from p0 by a Gibbs-preserving
        # map. The standard ordering accepts every p_t and the Gibbs state;
        # the paper's, thermo-check's default, refuses them all, the Gibbs
        # state included.
        l, gibbs = ladder(d)
        h, _, beta = thermal_ladder(d)
        energies = np.diagonal(h)
        p0 = np.arange(1.0, d + 1.0) / (d * (d + 1) / 2.0)
        states = gksl.trajectory(l, np.diag(p0), self.TIMES)[1:]
        assert len(states) == 20
        assert all(np.array_equal(rho, np.diag(np.diagonal(rho))) for rho in states)
        targets = [np.diagonal(rho).real for rho in states] + [np.diagonal(gibbs).real]
        for p in targets:
            assert resource.thermomaj_feasible(p0, p, energies, beta, "standard")
            assert not resource.thermomaj_feasible(p0, p, energies, beta, "paper")


class TestOneBlockStructure:
    """The components of the real form, found without forming it whole for a
    generator that splits, drive decompose, the dense route and the Cesaro
    average."""

    def test_ladder_splits_into_its_coherence_orders(self):
        d = 16
        l, _ = ladder(d)
        components, forms = gksl._components(l, gksl.EXPM_SPLIT_MIN_ORDER, gksl._coarse_labels(l))
        orders = coherence_orders(components, d)
        assert sorted(min(o) for o in orders) == list(range(d))
        assert all(len(o) == 1 for o in orders)
        assert sum(len(idx) * idx.shape[1] ** 3 for idx in components) == 119_296
        r = gksl._real_form(gksl.build_superoperator(l).matrix)
        for idx, form in zip(components, forms):
            assert np.array_equal(form, r[idx[:, :, None], idx[:, None, :]])

    @pytest.mark.parametrize("d", [8, 12, 16])
    @pytest.mark.parametrize("kind", ["dfs", "exceptional"])
    def test_benchmark_generators_keep_their_components(self, kind, d):
        # the components, found block by block, are those of the whole form
        l = REAL_BASIS[kind](rng(5900 + d), d)
        dec = gksl.decompose(l)
        r = gksl._real_form(gksl.build_superoperator(l).matrix)
        assert sorted(row for idx in dec.components for row in idx.tolist()) == component_rows(r)
        assert np.array_equal(whole_form(dec), r)
        if (kind, d) == ("exceptional", 16):
            sizes = sorted((idx.shape[1], len(idx)) for idx in dec.components)
            assert sizes == [(1, 8), (3, 8), (4, 56)]

    def test_dense_k_marches_without_the_d2_form(self, monkeypatch):
        # K without a zero off its diagonal is one block: d^6 work, so d = 16
        # marches, and neither the d^2 x d^2 matrix nor its real form is made
        calls = {name: counted(monkeypatch, gksl, name)
                 for name in ("build_superoperator", "_real_form", "_components")}
        gen = rng(6000)
        for l in bench_random_generators(gen, 16):
            assert gksl._coarse_labels(l) is None
            gksl.trajectory(l, random_density(gen, 16), TestDenseRoute.TIMES)
        assert {name: len(c) for name, c in calls.items()} == dict.fromkeys(calls, 0)

    def test_coarse_blocks_are_the_components_of_the_term_pattern(self):
        # reference: the components of |1 x K| + |conj K x 1| + sum |conj F x F|
        # on column-stacked positions, with (i, j) merged with (j, i)
        gen = rng(6200)
        split = 0
        for _ in range(60):
            d = int(gen.integers(10, 15))
            h = np.diag(gen.normal(size=d)).astype(complex)
            i, j = np.nonzero(np.triu(gen.random((d, d)) < gen.choice([0.0, 0.05, 0.2]), 1))
            h[i, j] = gen.normal(size=i.size) + 1j * gen.normal(size=i.size)
            h[j, i] = h[i, j].conj()
            jumps = []
            for _ in range(int(gen.integers(1, 4))):
                f = random_complex(gen, (d, d)) * (gen.random((d, d)) < gen.choice([0.02, 0.05, 0.2]))
                jumps.append((f, float(gen.uniform(0.1, 1.0))))
            l = gksl.Lindbladian(qstate.Hamiltonian(h), tuple(jumps))
            k, _, kf = gksl._generator_terms(l)
            eye = np.eye(d)
            pattern = np.kron(eye, np.abs(k)) + np.kron(np.abs(k), eye)
            pattern = (pattern + sum(np.kron(np.abs(g), np.abs(g)) for g in kf)) != 0
            pattern[np.arange(d * d), np.arange(d * d).reshape(d, d).T.ravel()] = True
            reference = component_search(pattern)[gksl._hermitian_basis(d)]
            coarse = gksl._coarse_labels(l)
            if coarse is None:
                assert not reference.any()
                continue
            split += 1
            pairs = set(zip(coarse.tolist(), reference.tolist()))
            assert len(pairs) == len(set(coarse.tolist())) == len(set(reference.tolist()))
        assert split >= 20

    def test_components_match_a_search(self):
        gen = rng(45)
        for n in (40, 57, 90, 128):
            for density in (0.005, 0.02, 0.05):
                m = np.where(gen.random((n, n)) < density, gen.standard_normal((n, n)), 0.0)
                labels = gksl._component_labels(m)
                assert np.array_equal(labels, component_search(m))
                groups = gksl._group(labels)
                rows = np.concatenate([g.ravel() for g in groups])
                assert np.array_equal(np.sort(rows), np.arange(n))
                for g in groups:
                    assert (np.diff(g, axis=1) > 0).all()
                    for row in g:
                        assert (labels[row] == labels[row[0]]).all()
                        assert (labels == labels[row[0]]).sum() == len(row)

    def test_split_ladder_marches_without_the_d2_form(self, monkeypatch):
        # the ladder's coherence orders price at about 1e7 at d = 48, far
        # above DENSE_WORK: it marches, and the blocks are never gathered
        calls = {name: counted(monkeypatch, gksl, name)
                 for name in ("build_superoperator", "_real_form", "_components")}
        steps = counted(monkeypatch, gksl, "_march")
        l, _ = ladder(48)
        assert len(set(gksl._coarse_labels(l).tolist())) == 48
        gksl.trajectory(l, random_density(rng(6050), 48), [0.0, 0.01, 0.02])
        assert len(steps) == 2
        assert {name: len(c) for name, c in calls.items()} == dict.fromkeys(calls, 0)

    def test_a_cancelled_entry_still_gets_the_components_of_the_form(self, monkeypatch):
        # qubit blocks H x 1, F x 1 with K_01 + F_01 conj(F_bb) = 0 exactly
        # for b = 0, 1: the entries that link the coarse blocks' populations
        # to their coherences cancel (F - 1 and a diagonal H give the same
        # L), so each block splits further
        f = np.array([[1.0, 1.0], [0.0, 1.0]])
        h = np.array([[0.25, -0.5j], [0.5j, -0.25]])
        eye = np.eye(5)
        l = gksl.Lindbladian(qstate.Hamiltonian(np.kron(h, eye)), ((np.kron(f, eye), 1.0),))
        k = gksl._generator_terms(l)[0]
        m = gksl.build_superoperator(l).matrix
        d = l.dim
        assert k[0, 5] != 0.0 and m[0, 5] == 0.0  # (0, 0) <- (5, 0), column-stacked
        coarse = gksl._coarse_labels(l)
        components, forms = gksl._components(l, gksl.EXPM_SPLIT_MIN_ORDER, coarse)
        assert len(set(coarse.tolist())) < sum(len(idx) for idx in components)
        r = gksl._real_form(m)
        assert sorted(row for idx in components for row in idx.tolist()) == component_rows(r)
        for idx, form in zip(components, forms):
            assert np.array_equal(form, r[idx[:, :, None], idx[:, None, :]])
            # each component lies within one coarse block
            assert (coarse[idx] == coarse[idx[:, :1]]).all()
        monkeypatch.setattr(gksl, "_march", no_step)
        rho0 = random_density(rng(6100), d)
        states = gksl.trajectory(l, rho0, TestDenseRoute.TIMES)
        for i in (3, 19, 20):
            assert np.abs(states[i] - dense_series(l, rho0, TestDenseRoute.TIMES[i])).max() <= 1e-12


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
        proj = unvec(dec.p_inf.matrix @ qlinalg.vectorize(rho))
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
        proj = unvec(
            dec.p_inf.matrix @ qlinalg.vectorize(np.diag([1.0, 0.0]).astype(complex))
        )
        assert qlinalg.hs_norm(proj - steady) < 1e-12
        assert np.abs(dec.p_a - np.eye(2)).max() < 1e-12

    def test_diagonalizable_generator_takes_eigenbasis(self):
        assert gksl.decompose(damping(0.8)).route == "eigenbasis"

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
    def test_nonpositive_tol_rejected(self, tol):
        with pytest.raises(ContractError, match="must be finite and > 0"):
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
        assert component_search(r).any()
        dec = gksl.decompose(l)
        assert dec.route == route
        n_asymptotic, p_ref = dense_eig_projector(l, dec.tol)
        assert len(dec.asymptotic_indices) == n_asymptotic
        assert np.abs(dec.p_inf.matrix - p_ref).max() <= 1e-10

    def test_non_idempotent_projector_rejected(self, monkeypatch):
        # the gate is reached through decompose: the null-space projector of
        # a defective generator, scaled, is no longer idempotent
        l = exceptional_point(1.0, 4)
        dec = gksl.decompose(l)
        inner = gksl._nullspace_projector

        def scaled(factor):
            return lambda *args: [factor * p for p in inner(*args)]

        monkeypatch.setattr(gksl, "_nullspace_projector", scaled(1.0))
        kept = gksl.decompose(l)
        assert kept.route == "nullspace"
        assert np.array_equal(kept.p_inf.matrix, dec.p_inf.matrix)
        monkeypatch.setattr(gksl, "_nullspace_projector", scaled(1.5))
        with pytest.raises(ContractError, match="not idempotent"):
            gksl.decompose(l)

    def test_spectrum_in_the_right_half_plane_rejected(self, monkeypatch):
        monkeypatch.setattr(qlinalg, "_eig_blocks", leaking(qlinalg._eig_blocks))
        with pytest.raises(NumericHealthError, match="leaks into the right half plane"):
            gksl.decompose(damping(0.8))

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
            gksl._nullspace_projector(m, [np.arange(3)[None]], evals, [right[None]], asym, 1e-8)

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


def random_block_lindbladian(gen, sizes, n_jumps=2):
    """Random Hamiltonian and jumps, all block diagonal over blocks of the
    given sizes: one steady state per block, every other mode decaying."""
    d = sum(sizes)

    def block_diagonal(make):
        m = np.zeros((d, d), dtype=complex)
        start = 0
        for size in sizes:
            m[start : start + size, start : start + size] = make(size)
            start += size
        return m

    h = block_diagonal(lambda size: random_hermitian(gen, size))
    jumps = tuple(
        (block_diagonal(lambda size: random_complex(gen, (size, size))), gen.uniform(0.1, 1.0))
        for _ in range(n_jumps)
    )
    return gksl.Lindbladian(qstate.Hamiltonian(h), jumps)


def assembled_nullspace_projector(m, evals, right, asym, gate):
    """The null-space projector on the whole real generator: one n x n
    bordered solve per cluster, from the assembled eigenvectors."""
    eye = np.eye(len(m))
    p = np.zeros(m.shape)
    indices = np.flatnonzero(asym)
    for group in gksl._clusters(evals.imag[indices], gate):
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
        r = np.linalg.qr(np.linalg.solve(a + r @ r.conj().T, r))[0]
        y = np.linalg.solve((a + r @ r.conj().T).conj().T, r).conj().T
        assert np.linalg.norm(a @ r) <= 1e2 * gate
        p += weight * (r @ y).real
    return p


def assembled_decomposition(l, tol):
    """Reference for decompose: its formulas on the d^2 x d^2 eigenbasis of
    one eig of the whole real form (eig_general) and the whole-matrix map
    back. Returns (route, asymptotic indices, p_inf); the indices are
    positions in that eig's order, not in decompose's."""
    r = gksl._real_form(gksl.build_superoperator(l).matrix)
    evals, right, left = qlinalg.eig_general(r)
    evals = np.asarray(evals, dtype=complex)
    asym = np.abs(evals.real) <= tol
    kappa = np.linalg.norm(right) * np.linalg.norm(left) if left is not None else np.inf
    if kappa < gksl.EIGENBASIS_COND_GATE:
        route, p = "eigenbasis", (right[:, asym] @ left[:, asym].conj().T).real
    else:
        route, p = "nullspace", assembled_nullspace_projector(r, evals, right, asym, tol)
    return route, tuple(np.flatnonzero(asym).tolist()), gksl._column_stacked(p)


BLOCKWISE = {
    "dfs": lambda gen, d: decaying_dfs_lindbladian(
        gen, {8: (2, 2, 3), 10: (3, 3, 3), 12: (3, 4, 4), 16: (5, 5, 5)}[d]
    ),
    "exceptional": lambda gen, d: exceptional_point(1.0, d),
    "dephasing": dephasing_pairs,
    "random-blocks": lambda gen, d: random_block_lindbladian(
        gen, {8: (3, 5), 10: (2, 3, 5), 12: (4, 4, 4), 16: (3, 5, 8)}[d]
    ),
}


class TestBlockwiseDecompose:
    """decompose keeps a reducible generator's eigenvectors, their inverses
    and the blocks of its projector per component."""

    @pytest.mark.parametrize("d", [8, 10, 12, 16])
    @pytest.mark.parametrize("kind", sorted(BLOCKWISE))
    def test_matches_the_assembled_formulas(self, kind, d):
        l = BLOCKWISE[kind](rng(5200 + d), d)
        dec = gksl.decompose(l)
        r = gksl._real_form(gksl.build_superoperator(l).matrix)
        assert component_search(r).any()
        assert sorted(row for idx in dec.components for row in idx.tolist()) == component_rows(r)
        assert dec.route == ("nullspace" if kind == "exceptional" else "eigenbasis")
        # each component's eigenvalues are those of its own block of the
        # whole form, bit for bit, at its positions
        for idx in dec.components:
            for row in idx:
                assert np.array_equal(dec.eigenvalues[row], np.linalg.eig(r[np.ix_(row, row)])[0])
        route, indices, p_ref = assembled_decomposition(l, dec.tol)
        assert (dec.route, len(dec.asymptotic_indices)) == (route, len(indices))
        assert np.abs(dec.p_inf.matrix - p_ref).max() <= 1e-13
        if d <= 12:
            n_asymptotic, p_dense = dense_eig_projector(l, dec.tol)
            assert len(indices) == n_asymptotic
            assert np.abs(dec.p_inf.matrix - p_dense).max() <= 1e-10

    def test_cluster_residual_is_summed_over_its_components(self):
        # two 2 x 2 components, each with an eigenvalue mu given as 0: each
        # alone leaves ||A R||_F = mu, under 1e2 gate, but the cluster that
        # spans both leaves sqrt(2) mu, above it
        gate = 1e-8
        mu = 0.8e2 * gate
        block = np.diag([mu, -1.0])
        evals = np.array([0.0, -1.0], dtype=complex)
        alone = gksl._nullspace_projector(
            [block[None]], [np.arange(2)[None]], evals, [np.eye(2)[None]], evals.real == 0.0, gate
        )
        assert np.abs(alone[0][0] - np.diag([1.0, 0.0])).max() <= 2.0 * mu
        blocks = [np.stack([block] * 2)]
        evals = np.tile(evals, 2)
        components = [np.array([[0, 1], [2, 3]])]
        right = [np.stack([np.eye(2)] * 2)]
        with pytest.raises(NonDiagonalizable, match="Jordan chain .* for 2 eigenvectors"):
            gksl._nullspace_projector(blocks, components, evals, right, evals.real == 0.0, gate)

    def test_non_idempotent_split_projector_rejected(self, monkeypatch):
        # the idempotence gap is summed over the components' blocks
        l = exceptional_point(1.0, 8)
        assert len(gksl.decompose(l).components) > 1
        inner = gksl._nullspace_projector

        def scaled(*args):
            return [1.5 * p for p in inner(*args)]

        monkeypatch.setattr(gksl, "_nullspace_projector", scaled)
        with pytest.raises(ContractError, match="not idempotent"):
            gksl.decompose(l)


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
        # without dec, cesaro_projector takes the same decompose(l)
        own = gksl.cesaro_projector(l, horizon=300.0, samples=2**12)

        def no_eig(m):
            raise AssertionError("spectrum recomputed")

        def no_build(l):
            raise AssertionError("generator rebuilt")

        monkeypatch.setattr(qlinalg, "_eig_blocks", no_eig)
        monkeypatch.setattr(gksl, "build_superoperator", no_build)
        given = gksl.cesaro_projector(l, 300.0, 2**12, dec)
        assert np.array_equal(given.matrix, own.matrix)

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
        step = qlinalg.matrix_exp(dt * whole_form(dec), method="series")
        expect = sum(gksl._geometric_mean(step * np.exp(-1j * w * dt), samples) for w in freqs)
        got = gksl.cesaro_projector(l, horizon, samples, dec).matrix
        assert np.abs(got - gksl._column_stacked(expect)).max() <= 1e-12

    @staticmethod
    def whole_form_average(dec, horizon, samples):
        """The Cesaro average stepped on the whole real form, as it was
        before it ran per component."""
        r, frequencies = whole_form(dec), dec.asymptotic_frequencies
        dt = horizon / samples
        step = qlinalg.matrix_exp(dt * r, method="series")
        acc = np.zeros_like(r)
        for w in frequencies[frequencies >= 0.0]:
            if w == 0.0:
                acc += gksl._geometric_mean(step, samples)
            else:
                acc += 2.0 * gksl._geometric_mean(step * np.exp(-1j * w * dt), samples).real
        return acc

    def test_split_generator_averages_per_component(self):
        l = decaying_dfs_lindbladian(rng(6200), (3, 4, 4))
        dec = gksl.decompose(l)
        assert len(dec.components) > 1
        horizon, samples = 60.0, 2**10
        expect = self.whole_form_average(dec, horizon, samples)
        got = gksl.cesaro_projector(l, horizon, samples, dec).matrix
        assert np.abs(got - gksl._column_stacked(expect)).max() <= 1e-12
        distance = gksl.cesaro_distance(l, horizon, samples, dec)
        assert distance == pytest.approx(np.linalg.norm(expect - dec.real_projector), rel=1e-7)

    @pytest.mark.parametrize("d", [5, 8])
    def test_one_component_keeps_its_bits(self, d):
        l = random_lindbladian(rng(6300 + d), d)
        dec = gksl.decompose(l)
        assert [idx.shape for idx in dec.components] == [(1, d * d)]
        expect = self.whole_form_average(dec, 40.0, 2**8)
        got = gksl.cesaro_projector(l, 40.0, 2**8, dec).matrix
        assert np.array_equal(got, gksl._column_stacked(expect))
        distance = np.linalg.norm(expect - dec.real_projector)
        assert gksl.cesaro_distance(l, 40.0, 2**8, dec) == distance

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


REAL_BASIS = {
    "generic": lambda gen, d: random_lindbladian(gen, d),
    "dfs": lambda gen, d: decaying_dfs_lindbladian(
        gen, {4: (1, 2), 8: (2, 2, 3), 12: (3, 4, 4), 16: (5, 5, 5)}[d]
    ),
    "exceptional": lambda gen, d: exceptional_point(1.0, d),
}


class TestRealBasisProjector:
    """decompose keeps P_inf in the Hermitian basis: a state projected
    through its real coordinates, and the Cesaro distance taken there,
    agree with the column-stacked p_inf."""

    @pytest.mark.parametrize("d", [4, 8, 12, 16])
    @pytest.mark.parametrize("kind", sorted(REAL_BASIS))
    def test_agrees_with_the_column_stacked_projector(self, kind, d):
        gen = rng(5400 + d)
        l = REAL_BASIS[kind](gen, d)
        dec = gksl.decompose(l)
        assert "p_inf" not in vars(dec)  # mapped back only when read
        rho = random_density(gen, d)
        expect = unvec(dec.p_inf.matrix @ qlinalg.vectorize(rho))
        zero = qstate.Hamiltonian(np.zeros((d, d)))
        got = gksl.asymptotic_evolution(dec, rho, zero, 0.0)
        assert np.array_equal(got, got.conj().T)
        assert np.abs(got - expect).max() <= 1e-13
        # two samples: one product per frequency keeps the d = 16 case cheap
        ces = gksl.cesaro_projector(l, 3.0, 2, dec)
        reference = qlinalg.hs_norm(ces.matrix - dec.p_inf.matrix)
        # two Frobenius norms over d^4 entries, rounded along two routes: on
        # these generators they differ by up to 9 ulps, with one BLAS thread
        # or two
        assert abs(gksl.cesaro_distance(l, 3.0, 2, dec) - reference) <= 32 * math.ulp(reference)

    def test_trace_contract_is_checked_in_the_basis(self, monkeypatch):
        # e_0 e_0^T is idempotent, but tau P = e_0^T is not the trace
        # functional tau, the sum of the populations
        l = random_lindbladian(rng(5500), 2)
        assert [idx.shape for idx in gksl.decompose(l).components] == [(1, 4)]

        def leaky(*args):
            return [np.diag([1.0, 0.0, 0.0, 0.0])[None]]

        monkeypatch.setattr(gksl, "_eigenbasis_projector", leaky)
        with pytest.raises(ContractError, match="trace_preserving trace contract"):
            gksl.decompose(l)


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
