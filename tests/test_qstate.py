import math

import numpy as np
import pytest

from revtherm import channels, compops, qlinalg, qstate, resource
from revtherm.errors import ContractError, ShapeError

from helpers import random_density, random_distribution, random_unitary, rng

KET0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
KET1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
QUBIT = qstate.Hamiltonian(np.diag([0.0, 1.0]))


class TestContext:
    def test_hamiltonian_must_be_hermitian(self):
        with pytest.raises(ContractError):
            qstate.Hamiltonian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_beta_gate(self):
        with pytest.raises(ContractError):
            qstate.ThermoContext(QUBIT, -1.0)
        with pytest.raises(ContractError):
            qstate.ThermoContext(QUBIT, math.inf)

    def test_infinite_temperature_limit(self):
        ctx = qstate.ThermoContext(QUBIT, 0.0)
        assert np.allclose(qstate.gibbs_state(ctx), np.eye(2) / 2)
        with pytest.raises(ContractError):
            ctx.temperature


class TestGibbs:
    def test_qubit_populations(self):
        ctx = qstate.ThermoContext(QUBIT, 1.0)
        tau = qstate.gibbs_state(ctx)
        p0 = 1.0 / (1.0 + math.exp(-1.0))
        assert np.allclose(tau, np.diag([p0, 1.0 - p0]))

    def test_ground_energy_shift_invariance(self):
        # adding a constant to H must not move the state, even at large beta
        h1 = qstate.Hamiltonian(np.diag([0.0, 1.0]))
        h2 = qstate.Hamiltonian(np.diag([1000.0, 1001.0]))
        beta = 700.0
        t1 = qstate.gibbs_state(qstate.ThermoContext(h1, beta))
        t2 = qstate.gibbs_state(qstate.ThermoContext(h2, beta))
        assert np.allclose(t1, t2)
        assert np.all(np.isfinite(t1))

    def test_log_partition_function(self):
        ctx = qstate.ThermoContext(QUBIT, 1.0)
        assert np.isclose(qstate.log_partition_function(ctx), 0.31326168751822286)
        shifted = qstate.ThermoContext(qstate.Hamiltonian(np.diag([5.0, 6.0])), 1.0)
        assert np.isclose(
            qstate.log_partition_function(shifted), 0.31326168751822286 - 5.0
        )

    def test_gibbs_minimizes_free_energy(self):
        gen = rng(21)
        for d in (2, 4):
            h = qstate.Hamiltonian(np.diag(np.sort(gen.random(d) * 3.0)))
            ctx = qstate.ThermoContext(h, 1.3)
            f_tau = qstate.helmholtz_free_energy(qstate.gibbs_state(ctx), ctx)
            assert np.isclose(f_tau, -ctx.temperature * qstate.log_partition_function(ctx))
            for _ in range(6):
                rho = random_density(gen, d)
                assert qstate.helmholtz_free_energy(rho, ctx) >= f_tau - 1e-12


class TestEntropies:
    def test_shannon_uniform(self):
        for n in (2, 3, 8):
            assert np.isclose(qstate.shannon_entropy(np.ones(n) / n), math.log(n))

    def test_shannon_gates(self):
        with pytest.raises(ContractError):
            qstate.shannon_entropy([0.5, 0.6])
        with pytest.raises(ContractError):
            qstate.shannon_entropy([1.5, -0.5])

    def test_binary_entropy_curve(self):
        for a in np.linspace(0.0, 1.0, 11):
            rho = a * KET0 + (1 - a) * KET1
            expect = 0.0
            if 0.0 < a < 1.0:
                expect = -a * math.log(a) - (1 - a) * math.log(1 - a)
            assert np.isclose(qstate.von_neumann_entropy(rho), expect)

    def test_unitary_invariance(self):
        gen = rng(22)
        rho = random_density(gen, 4)
        u = random_unitary(gen, 4)
        assert np.isclose(
            qstate.von_neumann_entropy(rho),
            qstate.von_neumann_entropy(qstate.evolve_unitary(rho, u)),
        )

    def test_check_density_matrix(self):
        qstate.check_density_matrix(np.eye(3) / 3)
        with pytest.raises(ContractError):
            qstate.check_density_matrix(np.eye(2))  # trace 2
        with pytest.raises(ContractError):
            qstate.check_density_matrix(np.diag([1.5, -0.5]))


class TestRelativeEntropy:
    def test_self_is_zero(self):
        gen = rng(23)
        rho = random_density(gen, 3)
        assert abs(qstate.relative_entropy(rho, rho)) < 1e-10

    def test_pure_vs_maximally_mixed(self):
        assert np.isclose(qstate.relative_entropy(KET0, np.eye(2) / 2), math.log(2))

    def test_support_violation_is_inf(self):
        assert qstate.relative_entropy(KET1, KET0) == math.inf

    def test_klein_inequality(self):
        gen = rng(24)
        for _ in range(10):
            rho = random_density(gen, 3)
            sigma = random_density(gen, 3)
            assert qstate.relative_entropy(rho, sigma) >= -1e-12


class TestAlphaRRE:
    # frozen diagonal oracle: p=(0.7,0.3) against the beta=1 qubit Gibbs state
    P = np.diag([0.7, 0.3])
    TAU = np.diag([1.0 / (1.0 + math.exp(-1.0)), math.exp(-1.0) / (1.0 + math.exp(-1.0))])

    @pytest.mark.parametrize(
        "alpha,expect",
        [
            (0.5, 0.0011858049860004778),
            (2.0, 0.004894294114203639),
            (3.0, 0.007482251704362108),
            (50.0, 0.08474479690848678),
            (-0.5, 0.0011592992739839119),
            (1.0, 0.0023973854633293074),
        ],
    )
    def test_commuting_oracle(self, alpha, expect):
        assert np.isclose(qstate.alpha_rre(self.P, self.TAU, alpha), expect, atol=1e-12)

    def test_alpha_one_is_continuous(self):
        d1 = qstate.alpha_rre(self.P, self.TAU, 1.0)
        lo = qstate.alpha_rre(self.P, self.TAU, 1.0 - 1e-5)
        hi = qstate.alpha_rre(self.P, self.TAU, 1.0 + 1e-5)
        assert lo <= d1 + 1e-9 <= hi + 2e-9
        assert abs(lo - d1) < 1e-4 and abs(hi - d1) < 1e-4

    def test_excluded_orders(self):
        with pytest.raises(ContractError):
            qstate.alpha_rre(self.P, self.TAU, 0.0)
        with pytest.raises(ContractError):
            qstate.alpha_rre(self.P, self.TAU, -1.0)

    def test_support_violation(self):
        assert qstate.alpha_rre(KET1, KET0, 2.0) == math.inf
        assert qstate.alpha_rre(KET1, KET0, 0.5) == math.inf

    def test_monotone_in_alpha(self):
        gen = rng(25)
        rho = random_density(gen, 3)
        sigma = random_density(gen, 3)
        alphas = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 4.0)
        vals = [qstate.alpha_rre(rho, sigma, a) for a in alphas]
        for lo, hi in zip(vals, vals[1:]):
            assert lo <= hi + 1e-9

    def test_nonnegative_on_states(self):
        gen = rng(26)
        for a in (0.5, 2.0, 3.0):
            for _ in range(5):
                rho = random_density(gen, 3)
                sigma = random_density(gen, 3)
                assert qstate.alpha_rre(rho, sigma, a) >= -1e-12


class TestFreeEnergies:
    CTX = qstate.ThermoContext(QUBIT, 1.0)

    def test_gibbs_reference(self):
        tau = qstate.gibbs_state(self.CTX)
        for a in (0.5, 1.0, 2.0, 50.0):
            assert np.isclose(
                qstate.alpha_free_energy(tau, self.CTX, a), -0.31326168751822286
            )

    def test_alpha_one_matches_helmholtz(self):
        gen = rng(27)
        for _ in range(5):
            rho = random_density(gen, 2)
            f1 = qstate.alpha_free_energy(rho, self.CTX, 1.0)
            f = qstate.helmholtz_free_energy(rho, self.CTX)
            assert np.isclose(f1, f, atol=1e-10)

    def test_excited_state_value(self):
        assert np.isclose(qstate.helmholtz_free_energy(KET1, self.CTX), 1.0)

    def test_beta_zero_rejected(self):
        ctx0 = qstate.ThermoContext(QUBIT, 0.0)
        with pytest.raises(ContractError):
            qstate.helmholtz_free_energy(KET0, ctx0)


class TestMutualInformation:
    def test_product_state(self):
        gen = rng(28)
        rho = qlinalg.tensor(random_density(gen, 2), random_density(gen, 3))
        assert abs(qstate.quantum_mutual_information(rho, (2, 3))) < 1e-10

    def test_classical_correlation(self):
        rho = (qlinalg.tensor(KET0, KET0) + qlinalg.tensor(KET1, KET1)) / 2.0
        assert np.isclose(qstate.quantum_mutual_information(rho, (2, 2)), math.log(2))

    def test_bell_state(self):
        psi = np.zeros(4, dtype=complex)
        psi[0] = psi[3] = 1.0 / math.sqrt(2.0)
        rho = np.outer(psi, psi.conj())
        assert np.isclose(qstate.quantum_mutual_information(rho, (2, 2)), 2 * math.log(2))


def test_evolve_unitary_gates():
    with pytest.raises(ContractError):
        qstate.evolve_unitary(KET0, np.array([[1.0, 0.0], [0.0, 2.0]]))
    with pytest.raises(ShapeError):
        qstate.evolve_unitary(KET0, np.eye(3))


def test_distribution_helper_normalized():
    gen = rng(29)
    p = random_distribution(gen, 5)
    assert np.isclose(p.sum(), 1.0) and p.min() > 0.0


def test_require_distribution_clips_and_rejects():
    p = qstate.require_distribution([1.0 + 1e-10, -1e-13])
    assert np.array_equal(p, [1.0 + 1e-10, 0.0])
    for bad in ([], [0.5, 0.4], [1.1, -0.1], [math.inf, 1.0]):
        with pytest.raises(ContractError):
            qstate.require_distribution(bad)


def test_require_state_and_unitary_gates():
    assert qstate.require_state(KET0, 2) is not None
    with pytest.raises(ShapeError):
        qstate.require_state(KET0, 3)
    with pytest.raises(ContractError):
        qstate.require_state(2.0 * KET0, 2)
    with pytest.raises(ShapeError):
        qstate.require_unitary(np.eye(2), 3)
    with pytest.raises(ContractError):
        qstate.require_unitary(2.0 * np.eye(2), 2)


NAN_DIST = [math.nan, 1.0]
QUBIT_ENV = qstate.ThermoContext(QUBIT, 1.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: qstate.shannon_entropy(NAN_DIST),
        lambda: resource.thermomaj_curve(NAN_DIST, [0.0, 1.0], 1.0),
        lambda: resource.thermomaj_feasible(NAN_DIST, [0.5, 0.5], [0.0, 1.0], 1.0),
        lambda: compops.ContextualizedComputation(compops.identity_op(2), NAN_DIST),
        lambda: compops.landauer_cost_oblivious_erasure([[math.nan, 0.5], [0.25, 0.25]]),
        lambda: channels.ResetScenario(
            ((math.nan, KET0), (1.0, KET1)),
            KET0,
            QUBIT_ENV,
            "unconditional",
            (channels.swap_unitary(2),),
        ),
    ],
    ids=[
        "shannon_entropy",
        "thermomaj_curve",
        "thermomaj_feasible",
        "ContextualizedComputation",
        "landauer_cost_oblivious_erasure",
        "ResetScenario",
    ],
)
def test_nan_distribution_is_rejected(call):
    with pytest.raises(ContractError):
        call()


NAN_STATE = np.array([[math.nan, 0.0], [0.0, 0.5]], dtype=complex)
HALF_STATE = np.eye(2, dtype=complex) / 2


@pytest.mark.parametrize(
    "call",
    [
        lambda: qstate.von_neumann_entropy(NAN_STATE),
        lambda: qstate.relative_entropy(NAN_STATE, HALF_STATE),
        lambda: qstate.relative_entropy(HALF_STATE, NAN_STATE),
        lambda: qstate.alpha_rre(NAN_STATE, HALF_STATE, 2.0),
        lambda: qstate.helmholtz_free_energy(NAN_STATE, QUBIT_ENV),
        lambda: resource.cto_feasible_general(NAN_STATE, HALF_STATE, QUBIT_ENV, 0.0),
        lambda: resource.second_laws_check(NAN_STATE, HALF_STATE, QUBIT_ENV),
    ],
    ids=[
        "von_neumann_entropy",
        "relative_entropy-rho",
        "relative_entropy-sigma",
        "alpha_rre",
        "helmholtz_free_energy",
        "cto_feasible_general",
        "second_laws_check",
    ],
)
def test_nan_state_is_rejected(call):
    with pytest.raises(ContractError):
        call()


def test_divergence_accepts_finite_non_density_input():
    # trace 2: refused by require_state, but the divergence formula applies
    rho = np.diag([1.5, 0.5]).astype(complex)
    sigma = np.diag([0.25, 0.75]).astype(complex)
    expected = 1.5 * math.log(1.5 / 0.25) + 0.5 * math.log(0.5 / 0.75)
    assert math.isclose(qstate.relative_entropy(rho, sigma), expected, rel_tol=1e-14)
