import math
import sys

import numpy as np
import pytest

from revtherm import qstate, resource
from revtherm.errors import ContractError, NumericHealthError, ShapeError

from helpers import decimal_renyi, random_distribution, random_hermitian, random_unitary, rng

E2 = np.array([0.0, 3.0])
HALF = np.array([0.5, 0.5])


def concave(curve, tol=1e-12):
    """Whether the curve's slopes never rise by more than tol."""
    slopes = np.diff(curve.ys) / np.maximum(np.diff(curve.xs), 1e-300)
    return bool(np.all(np.diff(slopes) <= tol))


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


@pytest.mark.parametrize("beta", [-1.0, -1e300, -5e-324])
def test_negative_beta_is_rejected(beta):
    with pytest.raises(ContractError) as info:
        resource.thermomaj_curve(HALF, E2, beta)
    assert str(info.value) == f"beta must be finite and >= 0, got {beta}"


def test_overflowing_boltzmann_weight_is_refused():
    # exp(1000) overflows; the curve would end at x = inf
    with np.errstate(over="ignore"), pytest.raises(NumericHealthError) as info:
        resource.thermomaj_curve([0.2, 0.3, 0.5], [5.0, -1000.0, 0.0], 1.0)
    assert str(info.value) == (
        "cumulative Boltzmann weight overflows at beta = 1.0, level 1 (energy -1000.0)"
    )


def test_each_curve_validates_its_input_once(monkeypatch):
    calls = []
    check = resource._check_classical_input

    def counting(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(resource, "_check_classical_input", counting)
    resource.thermomaj_curve(HALF, E2, 1.0)
    assert len(calls) == 1
    resource.thermomaj_feasible(HALF, gibbs_dist(E2, 1.0), E2, 1.0, "standard")
    assert len(calls) == 3
    resource.beta_order(HALF, E2, 1.0)
    assert len(calls) == 4


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
        assert not concave(c)

    def test_standard_breakpoints_frozen(self):
        c = resource.thermomaj_curve(HALF, E2, 1.0, "standard")
        assert np.allclose(c.xs, [0.0, 0.049787068367863944, 1.0497870683678638])
        assert np.allclose(c.ys, [0.0, 0.5, 1.0])
        assert concave(c)

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
            assert concave(resource.thermomaj_curve(p, e, 0.8, "standard"), tol=1e-10)

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

    @pytest.mark.parametrize(
        "points",
        [((0, 0), (math.nan, 0.5), (math.inf, 1.0)), ((0, 0), (1.0, math.nan), (2.0, 1.0)),
         ((math.nan, 0), (1.0, 1.0)), ((0, 0), (1.0, 1.0), (math.inf, 1.0))],
        ids=["nan-and-inf-x", "nan-y", "nan-start", "inf-end"],
    )
    def test_non_finite_point_is_refused(self, points):
        with pytest.raises(ContractError, match="curve points must be finite"):
            resource.ThermomajorizationCurve(points)

    @pytest.mark.parametrize("points", [((0, 0), (1, 1, 2)), ((0, 0), ("x", 1.0))],
                             ids=["ragged", "not-a-number"])
    def test_points_not_a_float_array_are_refused(self, points):
        with pytest.raises(ContractError, match="not an \\(n, 2\\) array of numbers"):
            resource.ThermomajorizationCurve(points)

    def test_points_are_one_float_array(self):
        c = resource.thermomaj_curve(HALF, E2, 1.0)
        assert c.points.dtype == np.float64 and c.points.shape == (3, 2)
        assert c.xs.tolist() == c.points[:, 0].tolist()
        assert c.ys.tolist() == c.points[:, 1].tolist()
        assert c.partition_weight == c.points[-1, 0] and type(c.partition_weight) is float


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

    def test_non_finite_margin_is_refused(self):
        # rho's own kernel makes D_alpha(rho || tau) +inf at -1 < alpha < 0, so
        # both free energies read +inf, and inf - inf is nan
        ctx = qstate.ThermoContext(qstate.Hamiltonian(np.diag([0.0, 800.0])), 1.0)
        rho = np.diag([1.0, 0.0])
        with pytest.raises(NumericHealthError) as info:
            resource.second_laws_check(rho, rho, ctx, (2.0, -0.5))
        assert str(info.value) == "second-laws margin at alpha = -0.5 is not finite (nan)"

    def test_overflowing_gibbs_exponent_is_the_kernel(self):
        # beta (E - E_0) = 8e310 overflows, so ln tau is -inf on the upper
        # level: both states have mass there, and both D_1 are +inf
        ctx = qstate.ThermoContext(qstate.Hamiltonian(np.diag([0.0, 800.0])), 1e308)
        with pytest.raises(NumericHealthError) as info:
            resource.second_laws_check(np.diag([0.9, 0.1]), np.diag([0.95, 0.05]), ctx)
        assert str(info.value) == "second-laws margin at alpha = 1.0 is not finite (nan)"

    def test_underflowed_gibbs_weight_gives_finite_margins(self):
        # e^-800 underflows to 0 in tau, but ln tau keeps -800 - ln Z' there:
        # every margin is the decimal one, and at alpha = 1 the Helmholtz one
        ctx = qstate.ThermoContext(qstate.Hamiltonian(np.diag([0.0, 800.0])), 1.0)
        p_in, p_out, log_q = [0.9, 0.1], [0.95, 0.05], [0.0, -800.0]
        ok, margins = resource.second_laws_check(np.diag(p_in), np.diag(p_out), ctx)
        assert ok
        helmholtz = resource.cto_feasible_general(np.diag(p_in), np.diag(p_out), ctx, 0.0).margin
        assert abs(margins[1.0] - helmholtz) <= 1e-12 * abs(helmholtz)
        for a, m in margins.items():
            rre = _classical_rre if a == 1.0 else decimal_renyi
            expect = rre(p_in, log_q, a) - rre(p_out, log_q, a)
            assert abs(m - expect) <= 1e-12 * abs(expect), a

    def test_custom_grid(self):
        tau = qstate.gibbs_state(self.CTX)
        ok, margins = resource.second_laws_check(tau, tau, self.CTX, alphas=(0.5, 2.0))
        assert ok and set(margins) == {0.5, 2.0}

    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_one_gibbs_state_and_margins_agree_with_alpha_free_energy(self, monkeypatch, d):
        # the check takes one eigendecomposition of H, none of the Gibbs
        # state, and each margin is the difference of two alpha_free_energy
        # calls, which take the same route for commuting states
        gen = rng(800 + d)
        ctx = qstate.ThermoContext(qstate.Hamiltonian(np.diag(gen.uniform(0, 2, d))), 0.7)
        rho_in, rho_out = (np.diag(random_distribution(gen, d)).astype(complex) for _ in "ab")
        grid = resource.DEFAULT_ALPHA_GRID + (-0.5, 0.9, 7.0)
        expect = {
            a: qstate.alpha_free_energy(rho_in, ctx, a) - qstate.alpha_free_energy(rho_out, ctx, a)
            for a in grid
        }
        h, tau = ctx.hamiltonian.matrix, qstate.gibbs_state(ctx)
        seen, calls = [], []
        for name in ("eig", "eigh", "eigvals", "eigvalsh"):
            real = getattr(np.linalg, name)

            def counted(a, *args, real=real, name=name):
                calls.append(name)
                if name in ("eigh", "eigvalsh"):
                    seen.append(a)
                return real(a, *args)

            monkeypatch.setattr(np.linalg, name, counted)
        _, margins = resource.second_laws_check(rho_in, rho_out, ctx, grid)
        assert sum(np.array_equal(a, h) for a in seen) == 1
        assert not any(np.allclose(a, tau) for a in seen)
        assert list(margins) == list(grid)
        assert margins == expect
        # as many eigendecompositions for one alpha as for twelve
        per_grid = len(calls)
        calls.clear()
        resource.second_laws_check(rho_in, rho_out, ctx, (2.0,))
        assert len(grid) == 12 and len(calls) == per_grid

    def test_tiny_gibbs_level_at_alpha_minus_2_gives_the_finite_margin(self):
        # tau's upper level is e^-699 ~ 2.7e-304; the sandwiched core
        # sigma^-0.75 rho sigma^-0.75 would overflow, the log-space sum does not:
        # the margin is ln(0.6^-2 q_0^3 + 0.4^-2 q_1^3) / 3 - 0 with q_0 = 1
        ctx = qstate.ThermoContext(qstate.Hamiltonian(np.diag([0.0, 699.0])), 1.0)
        tau = qstate.gibbs_state(ctx)
        ok, margins = resource.second_laws_check(np.diag([0.6, 0.4]), tau, ctx, (-2.0,))
        assert ok
        assert abs(margins[-2.0] - 0.3405504158439938) <= 1e-12

    def test_alpha_at_the_float_range_gives_the_limit_margin(self):
        # alpha * ln(p/q) would pass the float range at |alpha| = 1e308; the
        # margins sit at their D_max and D_min limits, as at |alpha| = 1e300
        ctx = qstate.ThermoContext(qstate.Hamiltonian(np.diag([0.0, 1.0, 2.5])), 1.0)
        grid = (1e300, 1e308, -1e300, -1e308)
        rho_in, rho_out = np.diag([0.7, 0.2, 0.1]), np.diag([0.1, 0.3, 0.6])
        _, m = resource.second_laws_check(rho_in, rho_out, ctx, grid)
        assert m[1e308] == pytest.approx(m[1e300], abs=1e-12)
        assert m[-1e308] == pytest.approx(m[-1e300], abs=1e-12)

    @pytest.mark.parametrize(
        "rho_in,rho_out,ctx",
        [
            # a zero of rho: +inf at -1 < alpha < 0 and, through the core, at alpha < -1
            (np.diag([1.0, 0.0]), np.diag([0.5, 0.5]), CTX),
            # 1e-13 sits on the 1e-12 floor; the core 1e-13 q_1^((1 - alpha)/alpha)
            # is 9.7e-13 at alpha = -3, on it, and 1.3e-12 at alpha = -2, off it
            (np.diag([1.0 - 1e-13, 1e-13]), np.diag([0.5, 0.5]), CTX),
            # q_1 ~ 9e-14 lifts the core far off the floor at every alpha < -1
            (np.diag([1.0 - 1e-13, 1e-13]), np.diag([0.5, 0.5]),
             qstate.ThermoContext(qstate.Hamiltonian(np.diag([0.0, 30.0])), 1.0)),
            # tau has a kernel: +inf at |alpha| > 1, and at alpha = 1 for weight there
            (np.diag([0.5, 0.5]), np.diag([1.0, 0.0]),
             qstate.ThermoContext(qstate.Hamiltonian(np.diag([0.0, 800.0])), 1.0)),
            # 1e-11 on the kernel is below _SUPPORT_VIOLATION: finite at alpha = 1
            (np.diag([1.0 - 1e-11, 1e-11]), np.diag([1.0, 0.0]),
             qstate.ThermoContext(qstate.Hamiltonian(np.diag([0.0, 800.0])), 1.0)),
            # disjoint supports at 0 < alpha < 1
            (np.diag([0.0, 1.0]), np.diag([1.0, 0.0]),
             qstate.ThermoContext(qstate.Hamiltonian(np.diag([0.0, 800.0])), 1.0)),
        ],
        ids=["zero", "on-the-floor", "core-off-the-floor", "kernel", "kernel-below-violation",
             "disjoint"],
    )
    def test_inf_pattern_is_that_of_alpha_free_energy(self, rho_in, rho_out, ctx):
        for a in (-3.0, -2.0, -0.5, 0.25, 0.5, 1.0, 2.0, 50.0):
            free = []
            for rho in (rho_in, rho_out):
                try:
                    free.append(qstate.alpha_free_energy(rho, ctx, a))
                except NumericHealthError:
                    free.append(math.inf)
            try:
                m = resource.second_laws_check(rho_in, rho_out, ctx, (a,))[1][a]
            except NumericHealthError:
                m = math.inf
            assert math.isfinite(m) == all(math.isfinite(f) for f in free), a
            if math.isfinite(m):
                assert abs(m - (free[0] - free[1])) <= 1e-12 * max(1.0, abs(m)), a

    def test_alpha_refusals_keep_their_messages(self):
        tau = qstate.gibbs_state(self.CTX)
        for a, line in ((0.0, "alpha = 0.0 is outside"), (-1.0, "alpha = -1.0 is outside"),
                        (math.nan, "alpha must be finite, got nan")):
            with pytest.raises(ContractError, match=line):
                resource.second_laws_check(tau, tau, self.CTX, (2.0, a))
        with pytest.raises(ContractError, match="state has eigenvalue -1.000e-09 below -1e-10"):
            resource.second_laws_check(np.diag([1.0 + 1e-9, -1e-9]), tau, self.CTX)


def _log_gibbs(energies, beta):
    x = -beta * np.asarray(energies, dtype=float)
    top = x.max()
    return x - (top + math.log(math.fsum(np.exp(x - top))))


def _classical_rre(p, log_q, alpha):
    """The classical Renyi divergence of paired spectra, summed in log space."""
    p = np.asarray(p, dtype=float)
    if alpha == 1.0:
        return math.fsum(p * (np.log(p) - log_q))
    x = alpha * np.log(p) + (1.0 - alpha) * log_q
    top = x.max()
    log_sum = top + math.log(math.fsum(np.exp(x - top)))
    return math.copysign(1.0, alpha) / (alpha - 1.0) * (log_sum - math.log(math.fsum(p)))


def _second_laws_case(kind):
    """(rho_in, rho_out, ctx, p_in, p_out, energies, tolerance) for one analytic
    pair: rho = U diag(p) U+ and H = U diag(E) U+."""
    gen = rng(3030)
    d, beta = 6, 0.8
    energies = np.sort(gen.uniform(0.0, 2.0, d))
    p_in, p_out = random_distribution(gen, d), random_distribution(gen, d)
    u = random_unitary(gen, d)
    tol = 1e-12
    blocks = np.eye(d, dtype=complex), np.eye(d, dtype=complex)
    if kind == "diagonal":
        u = np.eye(d)
    elif kind == "degenerate":
        # a threefold level, and each state rotated inside it
        energies = np.array([0.0, 0.7, 0.7, 0.7, 1.3, 2.0])
        for v in blocks:
            v[1:4, 1:4] = random_unitary(gen, 3)
    elif kind == "gibbs":
        p_in = np.exp(_log_gibbs(energies, beta))
    rho_in, rho_out = (
        u @ v @ np.diag(p) @ v.conj().T @ u.conj().T for v, p in zip(blocks, (p_in, p_out))
    )
    if kind == "perturbed":
        rho_in = rho_in + 1e-12 * random_hermitian(gen, d)
        tol = resource.FEASIBILITY_TOL
    h = qstate.Hamiltonian((u * energies) @ u.conj().T)
    return rho_in, rho_out, qstate.ThermoContext(h, beta), p_in, p_out, energies, tol


class TestSecondLawsReference:
    GRID = resource.DEFAULT_ALPHA_GRID + (-0.5, -2.0, 7.0)
    # next to 1, where the float reference loses its digits: a 50-digit one
    NEXT_TO_1 = tuple(1.0 + s * t for t in (1e-15, 1e-12, 1e-9) for s in (-1.0, 1.0))

    @pytest.mark.parametrize("kind", ["diagonal", "haar", "degenerate", "gibbs", "perturbed"])
    def test_margins_are_the_classical_renyi_ones(self, kind):
        rho_in, rho_out, ctx, p_in, p_out, energies, tol = _second_laws_case(kind)
        grid = self.GRID + self.NEXT_TO_1
        grid += (1000.0, -1000.0, 1e300) if kind == "diagonal" else ()
        log_q = _log_gibbs(energies, ctx.beta)
        _, margins = resource.second_laws_check(rho_in, rho_out, ctx, grid)
        assert list(margins) == list(grid)
        for a in grid:
            rre = decimal_renyi if a in self.NEXT_TO_1 else _classical_rre
            expect = ctx.temperature * (rre(p_in, log_q, a) - rre(p_out, log_q, a))
            assert abs(margins[a] - expect) <= tol * max(1.0, abs(expect)), a
        # alpha_free_energy, within the same tolerance
        for a in self.GRID:
            expect = qstate.alpha_free_energy(rho_in, ctx, a) - qstate.alpha_free_energy(
                rho_out, ctx, a
            )
            assert abs(margins[a] - expect) <= tol * max(1.0, abs(expect)), a


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

    def test_budget_past_half_the_float_range_is_refused(self):
        # the cycle charges twice the budget: half the float range is the most it takes
        tau = qstate.gibbs_state(QUBIT_CTX)
        half = sys.float_info.max / 2.0
        assert resource.compute_reset_cycle_verdict(tau, tau, QUBIT_CTX, half).qmi == 2.0 * half
        with pytest.raises(ContractError, match="^qmi budget must be <= .* for a cycle"):
            resource.compute_reset_cycle_verdict(tau, tau, QUBIT_CTX, 1e308)

    @pytest.mark.parametrize("swap", [False, True], ids=["forward-binds", "return-binds"])
    def test_one_free_energy_per_state(self, monkeypatch, swap):
        # the return leg swaps the forward leg's free energies: two Helmholtz
        # evaluations per cycle, and the verdict of two full legs bit for bit
        tau = qstate.gibbs_state(QUBIT_CTX)
        states = (KET1, tau)[::-1] if swap else (KET1, tau)
        legs = [
            resource.cto_feasible_general(a, b, QUBIT_CTX, 1e-4) for a, b in (states, states[::-1])
        ]
        binding = min(legs, key=lambda leg: leg.margin)
        calls = []
        helmholtz = qstate.helmholtz_free_energy
        monkeypatch.setattr(
            qstate, "helmholtz_free_energy", lambda *a: calls.append(a) or helmholtz(*a)
        )
        v = resource.compute_reset_cycle_verdict(*states, QUBIT_CTX, 1e-4)
        assert len(calls) == 2
        assert v.free_energy_in == binding.free_energy_in
        assert v.free_energy_out == binding.free_energy_out
        assert v.qmi == 2e-4
