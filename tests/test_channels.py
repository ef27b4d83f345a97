import math

import numpy as np
import pytest

from revtherm import channels, qlinalg, qstate
from revtherm.errors import ContractError, NumericHealthError, ShapeError

from helpers import random_density, random_hermitian, random_unitary, rng

KET0 = np.diag([1.0, 0.0]).astype(complex)
KET1 = np.diag([0.0, 1.0]).astype(complex)


def damping_unitary(gamma):
    """Rotation in the one-excitation sector, basis order (00, 01, 10, 11)."""
    c, s = math.sqrt(1.0 - gamma), math.sqrt(gamma)
    return np.array(
        [
            [1, 0, 0, 0],
            [0, c, s, 0],
            [0, -s, c, 0],
            [0, 0, 0, 1],
        ],
        dtype=complex,
    )


def thermal_spec(gen, d_s, d_e, beta=1.0):
    """Random dilation whose environment is thermal for a random H_E."""
    h_e = qstate.Hamiltonian(random_hermitian(gen, d_e))
    ctx = qstate.ThermoContext(h_e, beta)
    u = random_unitary(gen, d_s * d_e)
    return channels.DilationSpec(d_s, d_e, u, qstate.gibbs_state(ctx))


class TestDilation:
    def test_validation(self):
        with pytest.raises(ContractError):
            channels.DilationSpec(2, 2, np.eye(4) * 2.0, np.eye(2) / 2)
        with pytest.raises(ShapeError):
            channels.DilationSpec(2, 3, np.eye(4), np.eye(3) / 3)
        with pytest.raises(ContractError):
            channels.DilationSpec(2, 2, np.eye(4), np.eye(2))  # env trace 2

    def test_product_unitary_acts_locally(self):
        gen = rng(61)
        u_s = random_unitary(gen, 2)
        spec = channels.DilationSpec(
            2, 3, qlinalg.tensor(u_s, random_unitary(gen, 3)), random_density(gen, 3)
        )
        rho = random_density(gen, 2)
        assert np.allclose(channels.apply_dilation(spec, rho), u_s @ rho @ u_s.conj().T)

    def test_trace_preserved(self):
        gen = rng(62)
        spec = thermal_spec(gen, 2, 3)
        out = channels.apply_dilation(spec, random_density(gen, 2))
        assert np.isclose(np.trace(out).real, 1.0)


class TestKrausExtraction:
    def test_amplitude_damping_canonical_pair(self):
        # gamma = 0.36 so the matrix entries are exactly 0.8 and 0.6
        spec = channels.DilationSpec(2, 2, damping_unitary(0.36), KET0)
        ks = channels.extract_system_kraus(spec)
        assert len(ks.operators) == 2
        assert np.allclose(ks.operators[0], np.diag([1.0, 0.8]))
        assert np.allclose(ks.operators[1], [[0.0, 0.6], [0.0, 0.0]])
        assert ks.completeness_residual <= 1e-12

    def test_non_unitality_scales_with_gamma(self):
        for gamma in (0.0, 0.36, 0.75):
            spec = channels.DilationSpec(2, 2, damping_unitary(gamma), KET0)
            ks = channels.extract_system_kraus(spec)
            assert np.isclose(channels.non_unitality(ks), gamma * math.sqrt(2.0))

    def test_system_route_matches_dilation(self):
        gen = rng(63)
        for _ in range(5):
            spec = thermal_spec(gen, 2, 3)
            ks = channels.extract_system_kraus(spec)
            rho = random_density(gen, 2)
            assert np.allclose(
                channels.apply_kraus(ks, rho), channels.apply_dilation(spec, rho), atol=1e-10
            )

    def test_env_route_matches_partial_trace(self):
        gen = rng(64)
        for _ in range(5):
            spec = thermal_spec(gen, 3, 2)
            rho_s = random_density(gen, 3)
            ke = channels.extract_env_kraus(spec.u, rho_s, (3, 2))
            joint = spec.u @ qlinalg.tensor(rho_s, spec.env_state) @ spec.u.conj().T
            rho_e = qlinalg.partial_trace(joint, (3, 2), keep=1)
            assert np.allclose(
                channels.apply_kraus(ke, spec.env_state), rho_e, atol=1e-10
            )
            # env operators resolve the identity on the environment
            acc = sum(n.conj().T @ n for n in ke.operators)
            assert np.allclose(acc, np.eye(2), atol=1e-10)

    def test_output_basis_rotation_same_channel(self):
        gen = rng(65)
        spec = thermal_spec(gen, 2, 2)
        w = random_unitary(gen, 2)
        k1 = channels.extract_system_kraus(spec)
        k2 = channels.extract_system_kraus(spec, out_basis=w)
        rho = random_density(gen, 2)
        assert np.allclose(
            channels.apply_kraus(k1, rho), channels.apply_kraus(k2, rho), atol=1e-10
        )

    def test_output_basis_must_be_unitary(self):
        spec = channels.DilationSpec(2, 2, damping_unitary(0.2), KET0)
        with pytest.raises(ContractError):
            channels.extract_system_kraus(spec, out_basis=np.ones((2, 2)))

    def test_kraus_set_completeness_enforced(self):
        with pytest.raises(ContractError):
            channels.KrausSet((np.eye(2) * 0.5,))


class TestPermutationUnitaries:
    def test_swap_exchanges_factors(self):
        gen = rng(66)
        a, b = random_density(gen, 3), random_density(gen, 3)
        s = channels.swap_unitary(3)
        swapped = s @ qlinalg.tensor(a, b) @ s.conj().T
        assert np.allclose(swapped, qlinalg.tensor(b, a))

    def test_transposition_involution(self):
        u = channels.basis_transposition(4, [(0, 2), (1, 3)])
        assert np.allclose(u @ u, np.eye(4))
        assert np.allclose(u @ u.conj().T, np.eye(4))

    def test_transposition_disjointness(self):
        with pytest.raises(ContractError):
            channels.basis_transposition(4, [(0, 1), (1, 2)])
        with pytest.raises(ContractError):
            channels.basis_transposition(4, [(0, 0)])
        with pytest.raises(ContractError):
            channels.basis_transposition(4, [(0, 9)])


def two_level_env_ctx(gap=2.0, beta=1.0):
    return qstate.ThermoContext(qstate.Hamiltonian(np.diag([0.0, gap])), beta)


def swap_scenario():
    return channels.ResetScenario(
        states=((0.5, KET0), (0.5, KET1)),
        target=KET0,
        env_ctx=two_level_env_ctx(),
        mode="unconditional",
        unitaries=(channels.swap_unitary(2),),
    )


class TestBounds:
    def test_conditional_entropy_preserving_is_free(self):
        assert channels.conditional_landauer_bound(KET0, KET1, 1.7) == 0.0

    def test_conditional_erasure_costs_ln2(self):
        assert np.isclose(
            channels.conditional_landauer_bound(np.eye(2) / 2, KET0, 1.0), math.log(2)
        )

    def test_unconditional_pure_inputs(self):
        # pure inputs, pure target: only the mixture entropy is charged
        # at the scenario's own bath temperature, T = 1
        sc = swap_scenario()
        assert np.isclose(channels.unconditional_landauer_bound(sc), math.log(2))

    def test_temperature_gate(self):
        line = "temperature must be finite and >= 0, got -1.0"
        with pytest.raises(ContractError, match=line):
            channels.conditional_landauer_bound(KET0, KET0, -1.0)
        with pytest.raises(ContractError, match=line):
            channels.jensen_heat_bound(1.5, -1.0)


class TestResetScenario:
    def test_probability_validation(self):
        with pytest.raises(ContractError):
            channels.ResetScenario(
                states=((0.7, KET0), (0.7, KET1)),
                target=KET0,
                env_ctx=two_level_env_ctx(),
                mode="unconditional",
                unitaries=(channels.swap_unitary(2),),
            )

    def test_unitary_count(self):
        with pytest.raises(ContractError):
            channels.ResetScenario(
                states=((0.5, KET0), (0.5, KET1)),
                target=KET0,
                env_ctx=two_level_env_ctx(),
                mode="conditional",
                unitaries=(channels.swap_unitary(2),),  # needs two
            )

    def test_mode_gate(self):
        with pytest.raises(ContractError):
            channels.ResetScenario(
                states=((1.0, KET0),),
                target=KET0,
                env_ctx=two_level_env_ctx(),
                mode="adaptive",
                unitaries=(np.eye(4),),
            )


class TestSimulateReset:
    def test_swap_erasure_frozen(self):
        report = channels.simulate_reset(swap_scenario())
        assert np.isclose(report["bound"], math.log(2))
        assert np.isclose(report["average_delta_e"], 0.7615941559557649)
        # per-state: the already-cold branch extracts energy, the hot one pays
        assert np.isclose(report["delta_e_per_state"][0], -0.2384058440442351)
        assert np.isclose(report["delta_e_per_state"][1], 1.7615941559557649)
        assert report["satisfied"]

    def test_conditional_permutations_cost_nothing(self):
        env = qstate.ThermoContext(qstate.Hamiltonian(np.zeros((2, 2))), 1.0)
        sc = channels.ResetScenario(
            states=((0.5, KET0), (0.5, KET1)),
            target=KET0,
            env_ctx=env,
            mode="conditional",
            unitaries=(np.eye(4), channels.basis_transposition(4, [(0, 2), (1, 3)])),
        )
        report = channels.simulate_reset(sc)
        assert report["bound"] == 0.0
        assert np.allclose(report["delta_e_per_state"], [0.0, 0.0])
        assert report["satisfied"]

    def test_conditional_leaky_protocol_rejected(self):
        # both branches keep their identity: the joint finals differ, so the
        # protocol leaks which state was erased and the accounting is invalid
        env = qstate.ThermoContext(qstate.Hamiltonian(np.zeros((2, 2))), 1.0)
        sc = channels.ResetScenario(
            states=((0.5, KET0), (0.5, KET1)),
            target=KET0,
            env_ctx=env,
            mode="conditional",
            unitaries=(np.eye(4), np.eye(4)),
        )
        with pytest.raises(ContractError):
            channels.simulate_reset(sc)


class TestHeat:
    def test_swap_mgf_is_exactly_one(self):
        # swap with a maximally mixed system makes the env channel unital
        env_ctx = two_level_env_ctx()
        tau = qstate.gibbs_state(env_ctx)
        ke = channels.extract_env_kraus(channels.swap_unitary(2), np.eye(2) / 2, (2, 2))
        mgf = channels.heat_mgf(ke, tau)
        assert np.isclose(mgf, 1.0, atol=1e-12)
        assert channels.jensen_heat_bound(mgf, env_ctx.temperature) == 0.0

    def test_jensen_bound_below_average(self):
        gen = rng(67)
        for beta in (0.3, 1.0, 2.5):
            env_ctx = two_level_env_ctx(beta=beta)
            tau = qstate.gibbs_state(env_ctx)
            h_e = env_ctx.hamiltonian.matrix
            for _ in range(3):
                rho_s = random_density(gen, 2)
                u = random_unitary(gen, 4)
                ke = channels.extract_env_kraus(u, rho_s, (2, 2))
                jensen = channels.jensen_heat_bound(
                    channels.heat_mgf(ke, tau), env_ctx.temperature
                )
                joint = u @ qlinalg.tensor(rho_s, tau) @ u.conj().T
                rho_e = qlinalg.partial_trace(joint, (2, 2), keep=1)
                avg = float(np.real(np.trace((rho_e - tau) @ h_e)))
                assert jensen <= avg + 1e-9

    def test_jensen_bound_past_the_float_range_is_refused(self):
        # T |ln m| ~ 6.9e310 for finite inputs: refused, not inf
        with pytest.raises(NumericHealthError, match="Jensen heat bound is not finite"):
            channels.jensen_heat_bound(1e-300, 1e308)
        bound = channels.jensen_heat_bound(1e-300, 1e305)
        assert bound == pytest.approx(1e305 * 300 * math.log(10))

    def test_decomposition_frozen_erasure(self):
        env_ctx = two_level_env_ctx()
        spec = channels.DilationSpec(
            2, 2, channels.swap_unitary(2), qstate.gibbs_state(env_ctx)
        )
        dec = channels.heat_decomposition(spec, np.eye(2) / 2, beta=1.0)
        assert np.isclose(dec["delta_s_system"], 0.32781332547273756)
        assert np.isclose(dec["mutual_info"], 0.0)
        assert np.isclose(dec["rel_entropy_env"], 0.4337808304830272)
        assert np.isclose(dec["beta_q"], -0.7615941559557649)

    def test_decomposition_identity(self):
        gen = rng(68)
        for _ in range(6):
            spec = thermal_spec(gen, 2, 3, beta=0.8)
            dec = channels.heat_decomposition(spec, random_density(gen, 2), beta=0.8)
            assert abs(sum(dec.values())) < 1e-9
            assert dec["mutual_info"] >= -1e-12
            assert dec["rel_entropy_env"] >= -1e-12

    def test_decomposition_at_beta_zero(self):
        # the maximally mixed bath is the beta = 0 Gibbs state: no heat term
        gen = rng(70)
        spec = channels.DilationSpec(2, 2, random_unitary(gen, 4), np.eye(2) / 2)
        dec = channels.heat_decomposition(spec, random_density(gen, 2), beta=0.0)
        assert abs(sum(dec.values())) < 1e-9
        assert dec["beta_q"] == pytest.approx(0.0, abs=1e-15)

    def test_negative_beta_is_refused(self):
        spec = thermal_spec(rng(71), 2, 2)
        with pytest.raises(ContractError, match="beta must be finite and >= 0, got -1.0"):
            channels.heat_decomposition(spec, np.eye(2) / 2, beta=-1.0)

    def test_decomposition_needs_full_rank_env(self):
        spec = channels.DilationSpec(2, 2, channels.swap_unitary(2), KET0)
        with pytest.raises(ContractError):
            channels.heat_decomposition(spec, np.eye(2) / 2, beta=1.0)

    def test_partovi_holds_on_random_dilations(self):
        gen = rng(69)
        for _ in range(8):
            spec = thermal_spec(gen, 2, 2, beta=1.4)
            assert channels.partovi_check(spec, random_density(gen, 2))


class TestResetHeat:
    """reset_heat against its reference, the per-dilation functions run on
    the average input state: heat_decomposition, partovi_check and the
    Jensen bound of heat_mgf over extract_env_kraus."""

    @staticmethod
    def random_reset(gen):
        """A reset with one shared unitary: 1-3 unconditional inputs, or one
        conditional. The reference reads ln tau_E from the measured spectrum
        of tau_E, whose error on a level of weight q is about 1e-16 / q, so
        H_E is scaled to keep every weight above 1e-4."""
        d_s, d_e = int(gen.integers(2, 6)), int(gen.integers(2, 6))
        n = int(gen.integers(1, 4))
        mode = "conditional" if n == 1 and gen.random() < 0.5 else "unconditional"
        h_e = random_hermitian(gen, d_e) / math.sqrt(d_e)
        env_ctx = qstate.ThermoContext(qstate.Hamiltonian(h_e), float(gen.uniform(0.2, 1.5)))
        p = gen.random(n) + 0.1
        return channels.ResetScenario(
            states=tuple((float(pl), random_density(gen, d_s)) for pl in p / p.sum()),
            target=random_density(gen, d_s),
            env_ctx=env_ctx,
            mode=mode,
            unitaries=(random_unitary(gen, d_s * d_e),),
        )

    def test_matches_the_reference_on_seeded_dilations(self):
        gen = rng(72)
        modes = set()
        for _ in range(60):
            sc = self.random_reset(gen)
            modes.add(sc.mode)
            env_ctx, u = sc.env_ctx, sc.unitaries[0]
            dims = (sc.d_s, env_ctx.hamiltonian.dim)
            assert qstate._gibbs_spectrum(env_ctx)[1].min() > 1e-4
            report, heat = channels.reset_heat(sc)
            assert report == channels.simulate_reset(sc)

            tau = qstate.gibbs_state(env_ctx)
            mixture = sum(pl * rho for pl, rho in sc.states)
            spec = channels.DilationSpec(*dims, u, tau)
            expect = channels.heat_decomposition(spec, mixture, env_ctx.beta)
            assert list(heat["decomposition"]) == list(expect)
            for key, value in expect.items():
                assert heat["decomposition"][key] == pytest.approx(value, abs=1e-12), key
            assert heat["partovi"] == channels.partovi_check(spec, mixture)
            t = env_ctx.temperature
            mgf = channels.heat_mgf(channels.extract_env_kraus(u, mixture, dims), tau)
            assert heat["mgf"] == pytest.approx(mgf, abs=1e-12)
            assert channels.jensen_heat_bound(heat["mgf"], t) == pytest.approx(
                channels.jensen_heat_bound(mgf, t), abs=1e-12
            )
        assert modes == {"conditional", "unconditional"}

    @pytest.mark.parametrize("beta", [1.0, 10.0, 30.0, 100.0, 400.0])
    def test_erasure_at_large_beta_is_exact(self, beta):
        # swap erasure of a fair bit into a two-level bath of gap 2: rho'_E is
        # I/2, so every term has a closed form in x = exp(-2 beta), whose
        # level's weight underflows to 0 at beta = 400
        sc = swap_scenario()
        sc = channels.ResetScenario(
            sc.states, sc.target, two_level_env_ctx(beta=beta), sc.mode, sc.unitaries
        )
        _, heat = channels.reset_heat(sc)
        x = math.exp(-2.0 * beta)
        log_q = np.array([-math.log1p(x), -2.0 * beta - math.log1p(x)])
        q = np.array([1.0, x]) / (1.0 + x)
        entropy = float(-np.dot(q, log_q))
        expect = {
            "delta_s_system": math.log(2.0) - entropy,
            "mutual_info": 0.0,
            "rel_entropy_env": -math.log(2.0) - log_q.sum() / 2.0,
            "beta_q": log_q.sum() / 2.0 + entropy,
        }
        for key, value in expect.items():
            assert heat["decomposition"][key] == pytest.approx(value, rel=1e-12, abs=1e-15), key
        assert abs(sum(heat["decomposition"].values())) <= 1e-12 * beta
        assert heat["mgf"] == 1.0 and heat["partovi"]

    def test_needs_one_shared_unitary(self):
        sc = channels.ResetScenario(
            states=((0.5, KET0), (0.5, KET1)),
            target=KET0,
            env_ctx=two_level_env_ctx(),
            mode="conditional",
            unitaries=(np.eye(4), channels.basis_transposition(4, [(0, 2), (1, 3)])),
        )
        with pytest.raises(ContractError, match="heat analysis needs a single shared unitary"):
            channels.reset_heat(sc)
