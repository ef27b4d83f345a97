import math

import numpy as np
import pytest

from revtherm import qstate, resource
from revtherm.errors import ContractError, ShapeError

from helpers import random_distribution, rng

E2 = np.array([0.0, 3.0])
HALF = np.array([0.5, 0.5])


def gibbs_dist(energies, beta):
    w = np.exp(-beta * np.asarray(energies, dtype=float))
    return w / w.sum()


@pytest.mark.parametrize(
    "call",
    [
        lambda beta: resource.beta_order(HALF, E2, beta),
        lambda beta: resource.thermomaj_curve(HALF, E2, beta),
        lambda beta: resource.thermomaj_feasible(HALF, HALF, E2, beta, "standard"),
    ],
    ids=["beta_order", "thermomaj_curve", "thermomaj_feasible"],
)
@pytest.mark.parametrize("beta", [math.nan, math.inf])
def test_non_finite_beta_is_rejected(call, beta):
    with pytest.raises(ContractError):
        call(beta)


class TestBetaOrder:
    def test_conventions_disagree(self):
        # paper key p e^{-bE} favors low energies, standard key the reverse
        assert list(resource.beta_order(HALF, E2, 1.0, "paper")) == [0, 1]
        assert list(resource.beta_order(HALF, E2, 1.0, "standard")) == [1, 0]

    def test_tie_broken_by_energy_then_index(self):
        p = np.array([0.3, 0.3, 0.4])
        e = np.array([2.0, 1.0, 5.0])
        # beta = 0 makes every key p_i; the 0.3-tie is resolved by energy
        assert list(resource.beta_order(p, e, 0.0)) == [2, 1, 0]
        assert list(resource.beta_order(HALF, np.array([1.0, 1.0]), 1.0)) == [0, 1]

    def test_unknown_convention(self):
        with pytest.raises(ContractError):
            resource.beta_order(HALF, E2, 1.0, "sideways")

    def test_bad_input(self):
        with pytest.raises(ShapeError):
            resource.beta_order(HALF, np.array([0.0]), 1.0)
        with pytest.raises(ContractError):
            resource.beta_order(np.array([0.9, 0.9]), E2, 1.0)


class TestCurve:
    def test_paper_breakpoints_frozen(self):
        c = resource.thermomaj_curve(HALF, E2, 1.0, "paper")
        xs, ys = c.xs, c.ys
        assert np.allclose(xs, [0.0, 1.0, 1.0497870683678638])
        assert np.allclose(ys, [0.0, 0.5, 1.0])
        assert not c.is_concave()

    def test_standard_breakpoints_frozen(self):
        c = resource.thermomaj_curve(HALF, E2, 1.0, "standard")
        assert np.allclose(c.xs, [0.0, 0.049787068367863944, 1.0497870683678638])
        assert np.allclose(c.ys, [0.0, 0.5, 1.0])
        assert c.is_concave()

    def test_partition_weight(self):
        c = resource.thermomaj_curve(HALF, E2, 1.0)
        assert np.isclose(c.partition_weight, 1.0 + math.exp(-3.0))

    def test_gibbs_curve_is_the_chord(self):
        gen = rng(51)
        e = np.array([0.0, 0.7, 1.9, 2.4])
        beta = 1.3
        g = gibbs_dist(e, beta)
        for conv in ("paper", "standard"):
            c = resource.thermomaj_curve(g, e, beta, conv)
            z = c.partition_weight
            x = gen.random(20) * z
            assert np.allclose(c.evaluate(x), x / z, atol=1e-12)

    def test_standard_concave_random(self):
        gen = rng(52)
        e = np.array([0.0, 0.5, 1.1, 2.0, 3.3])
        for _ in range(10):
            p = random_distribution(gen, 5)
            assert resource.thermomaj_curve(p, e, 0.8, "standard").is_concave(tol=1e-10)

    def test_evaluate_clamps(self):
        c = resource.thermomaj_curve(HALF, E2, 1.0)
        assert c.evaluate(-1.0) == 0.0
        assert c.evaluate(c.partition_weight + 5.0) == 1.0

    def test_validation(self):
        with pytest.raises(ContractError):
            resource.ThermomajorizationCurve(((0.5, 0.0), (1.0, 1.0)))
        with pytest.raises(ContractError):
            resource.ThermomajorizationCurve(((0.0, 0.0), (1.0, 0.8)))
        with pytest.raises(ContractError):
            resource.ThermomajorizationCurve(((0.0, 0.0), (1.0, 0.9), (0.5, 1.0)))


class TestFeasibility:
    def test_reflexive(self):
        gen = rng(53)
        e = np.array([0.0, 1.0, 2.5])
        for conv in ("paper", "standard"):
            for _ in range(5):
                p = random_distribution(gen, 3)
                assert resource.thermomaj_feasible(p, p, e, 1.0, conv)

    def test_everything_reaches_gibbs_standard(self):
        gen = rng(54)
        e = np.array([0.0, 1.0, 2.5])
        g = gibbs_dist(e, 0.9)
        for _ in range(8):
            p = random_distribution(gen, 3)
            assert resource.thermomaj_feasible(p, g, e, 0.9, "standard")
            # and Gibbs reaches nothing but itself
            if not np.allclose(p, g, atol=1e-6):
                assert not resource.thermomaj_feasible(g, p, e, 0.9, "standard")

    def test_paper_ordering_breaks_gibbs_reachability(self):
        # under the paper key the 50/50 state's curve dips below the chord,
        # so the Gibbs target is reported unreachable
        g = gibbs_dist(E2, 1.0)
        assert not resource.thermomaj_feasible(HALF, g, E2, 1.0, "paper")
        assert resource.thermomaj_feasible(HALF, g, E2, 1.0, "standard")

    def test_beta_zero_is_classical_majorization(self):
        e = np.zeros(3)
        uni = np.ones(3) / 3.0
        spread = np.array([0.7, 0.2, 0.1])
        assert resource.thermomaj_feasible(spread, uni, e, 0.0, "standard")
        assert not resource.thermomaj_feasible(uni, spread, e, 0.0, "standard")

    def test_transitive_sample(self):
        e = np.array([0.0, 1.0])
        beta = 1.0
        a = np.array([0.95, 0.05])
        b = np.array([0.85, 0.15])
        g = gibbs_dist(e, beta)
        assert resource.thermomaj_feasible(a, b, e, beta, "standard")
        assert resource.thermomaj_feasible(b, g, e, beta, "standard")
        assert resource.thermomaj_feasible(a, g, e, beta, "standard")

    def test_breakpoint_check_matches_dense_grid(self):
        # Reference: the curves compared on their breakpoints plus a dense
        # uniform grid over [0, Z]. Repeated energies give degenerate levels;
        # small integer weights give probability ties.
        def dense_feasible(p_in, p_out, e, beta, conv):
            cin = resource.thermomaj_curve(p_in, e, beta, conv)
            cout = resource.thermomaj_curve(p_out, e, beta, conv)
            grid = np.concatenate(
                (cin.xs, cout.xs, np.linspace(0.0, cin.partition_weight, 4001))
            )
            return bool(
                np.all(cout.evaluate(grid) <= cin.evaluate(grid) + resource.FEASIBILITY_TOL)
            )

        gen = rng(61)
        for conv in ("paper", "standard"):
            verdicts = []
            for _ in range(500):
                n = int(gen.integers(2, 6))
                e = gen.choice([0.0, 0.5, 1.0, 2.0], size=n)
                beta = float(gen.choice([0.0, 0.7, 2.0]))
                w = gen.integers(1, 4, size=n).astype(float)
                p_in = w / w.sum()
                lam = gen.random()
                p_out = (1.0 - lam) * p_in + lam * random_distribution(gen, n)
                got = resource.thermomaj_feasible(p_in, p_out, e, beta, conv)
                assert got == dense_feasible(p_in, p_out, e, beta, conv)
                verdicts.append(got)
            assert any(verdicts) and not all(verdicts)


QUBIT_CTX = qstate.ThermoContext(qstate.Hamiltonian(np.diag([0.0, 1.0])), 1.0)
KET1 = np.diag([0.0, 1.0]).astype(complex)


class TestCtoVerdict:
    def test_flag_and_margin_follow_free_energies(self):
        v = resource.CtoVerdict(free_energy_in=0.0, free_energy_out=1.0, qmi=0.0)
        assert not v.feasible and v.margin == -1.0
        v = resource.CtoVerdict(free_energy_in=1.0, free_energy_out=1.0 + 5e-10, qmi=0.0)
        assert v.feasible and v.margin == 1.0 - (1.0 + 5e-10)

    def test_excited_to_gibbs(self):
        tau = qstate.gibbs_state(QUBIT_CTX)
        v = resource.cto_feasible_general(KET1, tau, QUBIT_CTX, 1e-6)
        assert v.feasible
        assert np.isclose(v.free_energy_in, 1.0)
        assert np.isclose(v.free_energy_out, -0.31326168751822286)
        assert np.isclose(v.margin, 1.3132616875182228)
        assert v.qmi == 1e-6

    def test_reverse_is_infeasible(self):
        tau = qstate.gibbs_state(QUBIT_CTX)
        v = resource.cto_feasible_general(tau, KET1, QUBIT_CTX, 0.0)
        assert not v.feasible and v.margin < 0.0

    def test_negative_budget(self):
        with pytest.raises(ContractError):
            resource.cto_feasible_general(KET1, KET1, QUBIT_CTX, -0.1)


class TestSecondLaws:
    CTX = qstate.ThermoContext(qstate.Hamiltonian(np.diag([0.0, 1.5])), 1.0)

    def test_gibbs_fixed_point(self):
        tau = qstate.gibbs_state(self.CTX)
        ok, margins = resource.second_laws_check(tau, tau, self.CTX)
        assert ok
        assert all(abs(m) < 1e-9 for m in margins.values())
        assert set(margins) == set(resource.DEFAULT_ALPHA_GRID)

    def test_relaxation_passes_every_order(self):
        rho = np.diag([0.99, 0.01]).astype(complex)
        tau = qstate.gibbs_state(self.CTX)
        ok, margins = resource.second_laws_check(rho, tau, self.CTX)
        assert ok and all(m >= -1e-9 for m in margins.values())

    def test_helmholtz_passes_but_alpha3_fails(self):
        # frozen pair: the order-1 comparison alone would wave this through
        rho_in = np.diag([0.99, 0.01]).astype(complex)
        rho_out = np.diag([0.65, 0.35]).astype(complex)
        v = resource.cto_feasible_general(rho_in, rho_out, self.CTX, 0.0)
        assert v.feasible
        ok, margins = resource.second_laws_check(rho_in, rho_out, self.CTX)
        assert not ok
        assert np.isclose(margins[1.0], 0.08144510467978514)
        assert np.isclose(margins[2.0], 0.00926338865727691)
        assert np.isclose(margins[3.0], -0.07873043032315952)
        assert np.isclose(margins[50.0], -0.4390083789334936)

    def test_noncommuting_state_rejected(self):
        rho = np.array([[0.5, 0.4], [0.4, 0.5]], dtype=complex)
        tau = qstate.gibbs_state(self.CTX)
        with pytest.raises(ContractError):
            resource.second_laws_check(rho, tau, self.CTX)

    def test_custom_grid(self):
        tau = qstate.gibbs_state(self.CTX)
        ok, margins = resource.second_laws_check(tau, tau, self.CTX, alphas=(0.5, 2.0))
        assert ok and set(margins) == {0.5, 2.0}


class TestResetCycle:
    def test_balanced_cycle(self):
        tau = qstate.gibbs_state(QUBIT_CTX)
        v = resource.compute_reset_cycle_verdict(tau, tau, QUBIT_CTX, 1e-4)
        assert v.feasible
        assert np.isclose(v.qmi, 2e-4)
        assert abs(v.margin) < 1e-12

    def test_unbalanced_cycle_blocked_by_return_leg(self):
        tau = qstate.gibbs_state(QUBIT_CTX)
        v = resource.compute_reset_cycle_verdict(KET1, tau, QUBIT_CTX, 1e-4)
        assert not v.feasible
        # binding leg is the infeasible return: margin is its (negative) value
        assert np.isclose(v.margin, -1.3132616875182228)
        assert np.isclose(v.free_energy_in, -0.31326168751822286)
        assert np.isclose(v.free_energy_out, 1.0)
