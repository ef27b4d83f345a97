import math

import numpy as np
import pytest

from revtherm import channels, compops, qlinalg, qstate, resource
from revtherm.errors import ContractError, NumericHealthError, ShapeError

from helpers import decimal_renyi, random_density, random_distribution, random_unitary, rng

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

    def test_temperature_past_the_float_range_is_refused(self):
        with pytest.raises(NumericHealthError) as info:
            qstate.ThermoContext(QUBIT, 1e-310).temperature
        assert str(info.value) == "temperature at beta = 1e-310 is not finite (inf)"
        assert qstate.ThermoContext(QUBIT, 1e-300).temperature == pytest.approx(1e300)


class TestRequireNonnegative:
    @pytest.mark.parametrize("value", [0.0, -0.0, 5e-324, 1.0, 1e308, 3])
    def test_accepted_as_float(self, value):
        v = qstate.require_nonnegative(value, "beta")
        assert type(v) is float and v == value

    @pytest.mark.parametrize(
        "value,text",
        [(-1.0, "-1.0"), (-5e-324, "-5e-324"), (-1e300, "-1e+300"), (math.inf, "inf"),
         (-math.inf, "-inf"), (math.nan, "nan"), (np.float64(-2.0), "-2.0")],
    )
    def test_refused_with_one_line(self, value, text):
        with pytest.raises(ContractError) as info:
            qstate.require_nonnegative(value, "temperature")
        assert str(info.value) == f"temperature must be finite and >= 0, got {text}"


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

    def test_trace_gate_is_shared(self):
        # check_density_matrix and its stacked screen refuse at one gate
        over, under = 1.0 + 3 * qstate.TRACE_ATOL, 1.0 + qstate.TRACE_ATOL / 3
        stack = np.array([np.diag([over, 0.0]), np.diag([under, 0.0])], dtype=complex)
        assert qstate._refused_states(stack).tolist() == [True, False]
        qstate.check_density_matrix(stack[1])
        with pytest.raises(ContractError, match=r"differs from 1 beyond 1e-10$"):
            qstate.check_density_matrix(stack[0])


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

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_non_finite_alpha_is_refused(self, alpha):
        # an input error (exit 3), not a numeric failure of the sandwiched core
        with pytest.raises(ContractError, match=f"alpha must be finite, got {alpha!r}"):
            qstate.alpha_rre(self.P, self.TAU, alpha)

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

    def test_overflowing_sum_is_taken_in_log_space(self):
        # the sandwiched sum of wc^alpha overflows past alpha = 1,208 and
        # below alpha = -440 here
        rho, sigma = np.diag([0.9, 0.1]), np.eye(2) / 2
        assert qstate.alpha_rre(rho, sigma, 1300.0) == pytest.approx(0.587706, abs=1e-6)
        assert qstate.alpha_rre(rho, sigma, -1000.0) == pytest.approx(1.60714, abs=1e-5)
        # alpha -> inf: D_max = ln max(rho / sigma) = ln 1.8
        assert qstate.alpha_rre(rho, sigma, 1e300) == pytest.approx(math.log(1.8), rel=4e-16)

    @pytest.mark.parametrize(
        "alpha,direct",
        [(1.5, 0.4498009219282165), (50.0, 0.5856364502968572), (1208.0, 0.5876993736712508),
         (-2.0, 0.8459995789666899), (-440.0, 1.604216631044091)],
    )
    def test_finite_sum_agrees_with_the_direct_form(self, alpha, direct):
        # frozen values of the direct form, up to the edge of overflow: the
        # log-space sum meets them to an ulp or two
        rho, sigma = np.diag([0.9, 0.1]), np.eye(2) / 2
        assert abs(qstate.alpha_rre(rho, sigma, alpha) - direct) <= 1e-15 * abs(direct)

    @pytest.mark.parametrize("alpha", [1.0 + s * t for t in (1e-15, 1e-12, 1e-9) for s in (-1, 1)])
    def test_next_to_1_is_the_decimal_value(self, alpha):
        # sigma = R diag(s) R^T with the rational rotation R = ((0.6, -0.8), (0.8, 0.6))
        # does not commute with rho = diag(r). Reference: the Petz sum over the
        # pairs P_ij = r_i R_ij^2, Q_ij = s_j R_ij^2 at 50 digits; the sandwiched
        # form (alpha > 1) differs from it by O((alpha - 1)^2), below 1e-17 here
        r, s = np.array([0.7, 0.3]), np.array([0.2, 0.8])
        rot = np.array([[0.6, -0.8], [0.8, 0.6]])
        overlap = rot**2
        expect = decimal_renyi(r[:, None] * overlap, np.log(s[None, :] * overlap), alpha)
        got = qstate.alpha_rre(np.diag(r), (rot * s) @ rot.T, alpha)
        assert abs(got - expect) <= 1e-13 * max(1.0, abs(expect))

    @pytest.mark.parametrize(
        "alpha", [1e308, -1e308, 1000.0, -1000.0, -2.0, -0.5, 0.25, 0.5, 1.0 - 1e-12, 1.0 + 1e-12,
                  1.5, 50.0],
    )
    def test_general_route_agrees_with_the_classical_grid(self, alpha):
        # the Petz pairs and the sandwiched core against the grid's pairs, on
        # diagonal full-rank pairs; the sum's own cancellation error next to
        # _NEAR_ONE is above this bound, so no alpha sits there
        gen = rng(31)
        for _ in range(50):
            p, q = gen.dirichlet(np.ones(4)), gen.dirichlet(np.ones(4))
            grid = qstate._classical_rre_grid(p[None, :], np.log(q), np.array([alpha]))[0, 0]
            got = qstate.alpha_rre(np.diag(p), np.diag(q), alpha)
            assert abs(got - grid) <= 1e-13 * max(1.0, abs(grid)), (p, q)

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

    def test_gibbs_level_below_the_support_tolerance_is_no_kernel(self):
        # tau's upper level, e^-30 / Z ~ 1e-13, lies below the support floor
        # of a measured spectrum, but tau's spectrum comes from H: each alpha
        # free energy is the classical Renyi one, -T ln Z + T D_alpha(p || q)
        energies = np.array([0.0, 30.0])
        ctx = qstate.ThermoContext(qstate.Hamiltonian(np.diag(energies)), 1.0)
        p = np.array([0.5, 0.5])
        log_z = np.logaddexp.reduce(-energies)
        log_q = -energies - log_z
        for a in (0.5, 2.0, 50.0):
            renyi = np.logaddexp.reduce(a * np.log(p) + (1.0 - a) * log_q) / (a - 1.0)
            got = qstate.alpha_free_energy(np.diag(p), ctx, a)
            assert abs(got - (-log_z + renyi)) <= 1e-9

    def test_alpha_at_the_float_range_gives_the_limits(self):
        # alpha * ln(p / q) is past the float range at |alpha| = 1e308: the
        # differences sit at their D_max and D_min limits
        ctx = qstate.ThermoContext(qstate.Hamiltonian(np.diag([0.0, 1.0, 2.5])), 1.0)
        rho_in, rho_out = np.diag([0.7, 0.2, 0.1]), np.diag([0.1, 0.3, 0.6])
        for alpha, limit in ((1e308, -1.79175946922805), (-1e308, -1.69314718055995)):
            diff = qstate.alpha_free_energy(rho_in, ctx, alpha) - qstate.alpha_free_energy(
                rho_out, ctx, alpha
            )
            assert abs(diff - limit) <= 1e-12, alpha

    def test_rotated_commuting_state_at_alpha_minus_2(self):
        # rho = U diag(p) U+ and H = U diag(E) U+ commute, so F_alpha is
        # -T ln Z + T D_alpha(p || q) with q the Gibbs weights of E; the
        # sandwiched core of such a rho was refused or wrong at alpha = -2
        gen = rng(4)
        for _ in range(40):
            d, beta = int(gen.integers(2, 7)), float(gen.uniform(0.0, 40.0))
            energies, p = gen.uniform(0.0, 3.0, d), gen.dirichlet(np.ones(d))
            u = random_unitary(gen, d)
            ctx = qstate.ThermoContext(qstate.Hamiltonian((u * energies) @ u.conj().T), beta)
            log_z = np.logaddexp.reduce(-beta * energies)
            renyi = np.logaddexp.reduce(-2.0 * np.log(p) + 3.0 * (-beta * energies - log_z)) / 3.0
            got = qstate.alpha_free_energy((u * p) @ u.conj().T, ctx, -2.0)
            expect = (-log_z + renyi) / beta
            assert abs(got - expect) <= 1e-9 * max(1.0, abs(renyi)), (d, beta)

    def test_beta_zero_rejected(self):
        ctx0 = qstate.ThermoContext(QUBIT, 0.0)
        with pytest.raises(ContractError):
            qstate.helmholtz_free_energy(KET0, ctx0)


# Gibbs levels e^-30 ~ 1e-13, e^-699 ~ 1e-304 and e^-720, below the
# smallest normal float, where the weight becomes 0, the kernel
SMALL_LEVEL_GAPS = {"1e-13": 30.0, "1e-304": 699.0, "subnormal": 720.0}
SKEW = np.array([[0.6, 0.3 - 0.1j], [0.3 + 0.1j, 0.4]])


@pytest.mark.parametrize("level", SMALL_LEVEL_GAPS)
@pytest.mark.parametrize("alpha", [0.5, 2.0, 50.0, -2.0, 1e300])
@pytest.mark.parametrize("rho", [np.diag([0.6, 0.4]), SKEW], ids=["diagonal", "non-diagonal"])
def test_small_gibbs_level_is_finite_or_refused(level, alpha, rho):
    # finite wherever rho's weight on the level can be taken, and no
    # LinAlgError escapes. The diagonal rho commutes with H and takes the
    # log-space pairs, where the subnormal level keeps ln q = -720 - ln Z'.
    # Off the diagonal that level is tau's kernel (refused at alpha > 1 or
    # < 0), and a sandwiched core past the float range (alpha = -2 against
    # 1e-304) is refused.
    ctx = qstate.ThermoContext(qstate.Hamiltonian(np.diag([0.0, SMALL_LEVEL_GAPS[level]])), 1.0)
    tiny_at_minus_2 = level == "1e-304" and alpha == -2.0
    if rho is SKEW and ((level == "subnormal" and alpha != 0.5) or tiny_at_minus_2):
        with pytest.raises(NumericHealthError):
            qstate.alpha_free_energy(rho, ctx, alpha)
    elif level == "subnormal" and rho is not SKEW:
        # ln Z = ln(1 + e^-720) is 0 in floats, so F_alpha = D_alpha(rho || tau)
        expect = decimal_renyi([0.6, 0.4], [0.0, -720.0], alpha)
        assert abs(qstate.alpha_free_energy(rho, ctx, alpha) - expect) <= 1e-12 * abs(expect)
    elif tiny_at_minus_2:
        # ln(0.6^-2 + 0.4^-2 q_1^3) / 3, as the second-laws margin against tau
        assert abs(qstate.alpha_free_energy(rho, ctx, alpha) - 0.3405504158439938) <= 1e-12
    else:
        assert math.isfinite(qstate.alpha_free_energy(rho, ctx, alpha))


@pytest.mark.parametrize(
    "call",
    [qstate.gibbs_state, qstate.log_partition_function,
     lambda ctx: qstate.alpha_free_energy(np.diag([0.3, 0.3, 0.4]), ctx, 2.0)],
    ids=["gibbs_state", "log_partition_function", "alpha_free_energy"],
)
def test_one_eigendecomposition_of_h_and_none_of_tau(monkeypatch, call):
    h = np.array([[0.0, 0.2, 0.0], [0.2, 1.0, 0.1], [0.0, 0.1, 2.5]])
    ctx = qstate.ThermoContext(qstate.Hamiltonian(h), 0.8)
    tau = qstate.gibbs_state(ctx)
    seen = []
    for name in ("eigh", "eigvalsh"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(
            np.linalg, name, lambda a, *args, real=real: seen.append(a) or real(a, *args)
        )
    call(ctx)
    assert sum(np.array_equal(a, h) for a in seen) == 1
    assert not any(np.allclose(a, tau) for a in seen)


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
        lambda: compops.ContextualizedComputation(compops.deterministic_op(2, range(2)), NAN_DIST),
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
