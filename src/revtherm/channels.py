"""Open-system channels: dilations, Kraus sets, erasure bounds, heat.

A channel is represented by a unitary on system x environment plus an
environment state (dilation). Kraus sets are extracted in either direction
(system operators indexed by environment transitions, or environment
operators indexed by system transitions). On top of that: unitality
diagnostics, the conditional and unconditional erasure bounds, reset
simulations against a thermal environment, and the exact decomposition of
dissipated heat into entropy change, correlation, and irreversibility
terms. Entropies in nats, k_B = 1, so bounds carry units of temperature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qlinalg, qstate
from .errors import ContractError

COMPLETENESS_TOL = 1e-9
EIG_DROP = 1e-14
OP_DROP = 1e-14
JOINT_FINAL_TOL = 1e-8
BOUND_TOL = 1e-9
ENV_RANK_TOL = 1e-12

_MODES = ("conditional", "unconditional")


@dataclass(frozen=True)
class DilationSpec:
    """Unitary on system x environment plus the environment input state."""

    d_s: int
    d_e: int
    u: np.ndarray
    env_state: np.ndarray

    def __post_init__(self):
        d_s, d_e = int(self.d_s), int(self.d_e)
        if d_s < 1 or d_e < 1:
            raise ContractError("dimensions must be positive")
        u = qstate.require_unitary(self.u, d_s * d_e, "dilation matrix")
        env = qstate.require_state(self.env_state, d_e, "environment state")
        object.__setattr__(self, "d_s", d_s)
        object.__setattr__(self, "d_e", d_e)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "env_state", env)


def _evolve_joint(u: np.ndarray, rho_s: np.ndarray, env: np.ndarray) -> np.ndarray:
    """The joint state U (rho_s x env) U+."""
    return u @ qlinalg.tensor(rho_s, env) @ u.conj().T


def apply_dilation(spec: DilationSpec, rho_s) -> np.ndarray:
    """Evolve the joint product state and trace out the environment."""
    rho_s = qstate.require_state(rho_s, spec.d_s, "system state")
    joint = _evolve_joint(spec.u, rho_s, spec.env_state)
    return qlinalg.partial_trace(joint, (spec.d_s, spec.d_e), keep=0)


@dataclass(frozen=True)
class KrausSet:
    """Operator-sum representation; completeness enforced at construction."""

    operators: tuple

    def __post_init__(self):
        ops = tuple(self.operators)
        if not ops:
            raise ContractError("empty Kraus set")
        d = qlinalg.as_complex_matrix(ops[0]).shape[0]
        ops = tuple(qlinalg.as_square(m, d, "Kraus operator") for m in ops)
        object.__setattr__(self, "operators", ops)
        if self.completeness_residual > COMPLETENESS_TOL:
            raise ContractError("Kraus set violates the completeness relation")

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]

    @property
    def completeness_residual(self) -> float:
        acc = sum(m.conj().T @ m for m in self.operators)
        return qlinalg.hs_norm(acc - np.eye(self.dim))


def _output_basis(d: int, out_basis) -> np.ndarray:
    """Columns of the returned matrix are the output-basis kets."""
    if out_basis is None:
        return np.eye(d, dtype=complex)
    return qstate.require_unitary(out_basis, d, "output basis matrix")


def _stinespring_kraus(u4: np.ndarray, rho_in, out_basis) -> KrausSet:
    """K_ab = sqrt(w_a) <b| U |v_a> with U viewed as u4[out_kept, out_c, in_kept, in_c].

    The contracted factor c starts in rho_in = sum_a w_a |v_a><v_a|.
    """
    w, v = qstate._clipped_spectrum(rho_in)
    d = u4.shape[1]
    basis = _output_basis(d, out_basis)
    ops = []
    for a in range(d):
        if w[a] < EIG_DROP:
            continue
        sandwiched = np.einsum("pqsr,r->pqs", u4, v[:, a])
        for b in range(d):
            m = np.sqrt(w[a]) * np.einsum("q,pqs->ps", basis[:, b].conj(), sandwiched)
            if qlinalg.hs_norm(m) >= OP_DROP:
                ops.append(m)
    return KrausSet(tuple(ops))


def extract_system_kraus(spec: DilationSpec, out_basis=None) -> KrausSet:
    """System Kraus operators, indexed by (env eigenvector, env output ket).

    M_ab = sqrt(e_a) <v_b| U |e_a>, the environment slots contracted.
    Zero-weight environment eigenvectors and numerically null operators are
    dropped; any unitary rotation of the output kets gives an equivalent set.
    """
    u4 = spec.u.reshape(spec.d_s, spec.d_e, spec.d_s, spec.d_e)
    return _stinespring_kraus(u4, spec.env_state, out_basis)


def extract_env_kraus(u, rho_s, dims, out_basis=None) -> KrausSet:
    """Environment Kraus operators N_cd = sqrt(s_c) <w_d| U |s_c>.

    Mirror of extract_system_kraus with the roles of system and environment
    swapped: the system slots are contracted, the operators act on the
    environment. dims = (d_s, d_e).
    """
    d_s, d_e = int(dims[0]), int(dims[1])
    u = qlinalg.as_square(u, d_s * d_e, "unitary")
    rho_s = qstate.require_state(rho_s, d_s, "system state")
    u4 = u.reshape(d_s, d_e, d_s, d_e).transpose(1, 0, 3, 2)
    return _stinespring_kraus(u4, rho_s, out_basis)


def apply_kraus(k: KrausSet, rho) -> np.ndarray:
    rho = qlinalg.as_square(rho, k.dim, "state")
    out = np.zeros_like(rho)
    for m in k.operators:
        out += m @ rho @ m.conj().T
    return out


def non_unitality(k: KrausSet) -> float:
    """Hilbert-Schmidt distance of sum(M M+) from the identity.

    Zero exactly for unital channels (unitaries included); invariant under
    isometric recombination of the set.
    """
    acc = sum(m @ m.conj().T for m in k.operators)
    return qlinalg.hs_norm(acc - np.eye(k.dim))


def conditional_landauer_bound(rho_in, rho_out, temperature: float) -> float:
    """Least environment energy increase when the reset state is known.

    Equals -T * (S(rho_out) - S(rho_in)); zero for entropy-preserving
    resets, T*ln2 for erasing a maximally mixed bit to a pure one.
    """
    t = float(temperature)
    if t < 0.0 or not np.isfinite(t):
        raise ContractError("temperature must be nonnegative and finite")
    return -t * (qstate.von_neumann_entropy(rho_out) - qstate.von_neumann_entropy(rho_in))


@dataclass(frozen=True)
class ResetScenario:
    """A mixture of input states reset toward a declared target state.

    mode "conditional" supplies one unitary per input state (the agent knows
    which state it holds); "unconditional" supplies a single shared unitary.
    The environment starts in the Gibbs state of env_ctx.
    """

    states: tuple
    target: np.ndarray
    env_ctx: qstate.ThermoContext
    mode: str
    unitaries: tuple

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ContractError(f"mode must be one of {_MODES}, got {self.mode!r}")
        pairs = tuple(self.states)
        if not pairs:
            raise ContractError("scenario needs at least one input state")
        probs = qstate.require_distribution([p for p, _ in pairs], "state probabilities")
        d_s = qlinalg.as_complex_matrix(pairs[0][1]).shape[0]
        states = tuple(
            (float(p), qstate.require_state(rho, d_s, "input state"))
            for p, (_, rho) in zip(probs, pairs)
        )
        target = qstate.require_state(self.target, d_s, "target state")
        d_e = self.env_ctx.hamiltonian.dim
        n_unitaries = 1 if self.mode == "unconditional" else len(states)
        unitaries = tuple(self.unitaries)
        if len(unitaries) != n_unitaries:
            raise ContractError(
                f"{self.mode} mode needs {n_unitaries} unitaries, got {len(unitaries)}"
            )
        unitaries = tuple(qstate.require_unitary(u, d_s * d_e, "reset unitary") for u in unitaries)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "unitaries", unitaries)

    @property
    def d_s(self) -> int:
        return self.states[0][1].shape[0]

    @property
    def probabilities(self) -> np.ndarray:
        return np.array([p for p, _ in self.states])


def swap_unitary(d: int) -> np.ndarray:
    """Exchange unitary on C^d x C^d: |i,j> -> |j,i>."""
    d = int(d)
    u = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            u[j * d + i, i * d + j] = 1.0
    return u


def basis_transposition(dim: int, pairs) -> np.ndarray:
    """Permutation unitary exchanging the given disjoint basis-index pairs."""
    dim = int(dim)
    u = np.eye(dim, dtype=complex)
    seen: set[int] = set()
    for i, j in pairs:
        i, j = int(i), int(j)
        if not (0 <= i < dim and 0 <= j < dim):
            raise ContractError(f"transposition ({i}, {j}) outside 0..{dim - 1}")
        if i == j or i in seen or j in seen:
            raise ContractError("transposition pairs must be disjoint")
        seen.update((i, j))
        u[[i, j]] = u[[j, i]]
    return u


def unconditional_landauer_bound(scenario: ResetScenario, temperature: float) -> float:
    """Erasure bound when the reset protocol may not depend on the state.

    -T * (sum_l p_l * (S(target) - S(rho_l)) - H({p_l})): relative to the
    conditional bound, the agent additionally pays T times the Shannon
    entropy of the mixture it cannot observe. For entropy-preserving resets
    the bound is exactly T * H({p_l}).
    """
    t = float(temperature)
    if t < 0.0 or not np.isfinite(t):
        raise ContractError("temperature must be nonnegative and finite")
    s_target = qstate.von_neumann_entropy(scenario.target)
    p = scenario.probabilities
    avg_delta_s = sum(
        pi * (s_target - qstate.von_neumann_entropy(rho))
        for pi, (_, rho) in zip(p, scenario.states)
    )
    return -t * (avg_delta_s - qstate.shannon_entropy(p))


def simulate_reset(scenario: ResetScenario) -> dict:
    """Run the reset unitaries against the thermal environment.

    Returns per-state and average environment energy increases, the bound
    matching the scenario mode, and whether the average satisfies it. In
    conditional mode all joint final states must coincide: a conditional
    protocol must leave no record of which state it erased.
    """
    env_ctx = scenario.env_ctx
    tau_e = qstate.gibbs_state(env_ctx)
    h_e = env_ctx.hamiltonian.matrix
    d_s, d_e = scenario.d_s, env_ctx.hamiltonian.dim
    e_env_in = float(np.real(np.trace(tau_e @ h_e)))

    delta_e = []
    joint_finals = []
    for idx, (p, rho) in enumerate(scenario.states):
        u = scenario.unitaries[0 if scenario.mode == "unconditional" else idx]
        joint = _evolve_joint(u, rho, tau_e)
        rho_fe = qlinalg.partial_trace(joint, (d_s, d_e), keep=1)
        delta_e.append(float(np.real(np.trace(rho_fe @ h_e))) - e_env_in)
        joint_finals.append(joint)

    if scenario.mode == "conditional":
        for idx in range(1, len(joint_finals)):
            gap = qlinalg.hs_norm(joint_finals[idx] - joint_finals[0])
            if gap > JOINT_FINAL_TOL:
                raise ContractError(
                    f"conditional resets reach different joint finals (gap {gap:.3e})"
                )

    t = env_ctx.temperature
    if scenario.mode == "conditional":
        bound = sum(
            p * conditional_landauer_bound(rho, scenario.target, t)
            for p, rho in scenario.states
        )
    else:
        bound = unconditional_landauer_bound(scenario, t)
    average = float(np.dot(scenario.probabilities, delta_e))
    return {
        "delta_e_per_state": [float(x) for x in delta_e],
        "average_delta_e": average,
        "bound": float(bound),
        "satisfied": bool(average >= bound - BOUND_TOL),
    }


def _log_state(rho) -> np.ndarray:
    """Matrix logarithm of a full-rank density matrix."""
    w, v = qstate._clipped_spectrum(rho)
    if w.min() <= ENV_RANK_TOL:
        raise ContractError("state must be full rank to take its logarithm")
    return (v * np.log(w)) @ v.conj().T


def heat_mgf(env_kraus: KrausSet, tau_e) -> float:
    """Moment-generating function of dissipated heat, sum Tr[N N+ tau_E].

    Equals 1 (bound 0) exactly when the environment channel is unital.
    """
    tau_e = qstate.require_state(tau_e, env_kraus.dim, "environment state")
    acc = sum(n @ n.conj().T for n in env_kraus.operators)
    val = complex(np.trace(acc @ tau_e))
    if abs(val.imag) > 1e-10 or val.real <= 0.0:
        raise ContractError(f"moment-generating function came out as {val!r}")
    return float(val.real)


def jensen_heat_bound(mgf_value: float, temperature: float) -> float:
    """-T ln<exp(-beta Q)>, a lower bound on the average dissipated heat."""
    m = float(mgf_value)
    if m <= 0.0:
        raise ContractError("moment-generating function must be positive")
    # + 0.0 keeps the m == 1 case from reporting -0.0
    return -float(temperature) * float(np.log(m)) + 0.0


def _env_heat(spec: DilationSpec, rho_s) -> tuple:
    """Validated rho_S, the joint state, rho'_E and beta*Q = Tr[(rho'_E - tau_E) ln tau_E]."""
    rho_s = qstate.require_state(rho_s, spec.d_s, "system state")
    tau_e = spec.env_state
    joint = _evolve_joint(spec.u, rho_s, tau_e)
    log_tau = _log_state(tau_e)
    rho_e_out = qlinalg.partial_trace(joint, (spec.d_s, spec.d_e), keep=1)
    return rho_s, joint, rho_e_out, float(np.real(np.trace((rho_e_out - tau_e) @ log_tau)))


def heat_decomposition(spec: DilationSpec, rho_s, beta: float) -> dict:
    """Exact split of the dissipated heat for a thermal environment.

    Returns {delta_s_system, mutual_info, rel_entropy_env, beta_q}, the four
    addends of the identity

        delta_s_system + mutual_info + rel_entropy_env + beta_q = 0

    with delta_s_system = S_S - S'_S (system entropy decrease) and
    beta_q = -beta*(E'_E - E_E) (beta times the heat released by the
    environment). mutual_info and rel_entropy_env are nonnegative, so the
    heat dumped into the environment always covers the system entropy drop.
    env_state is interpreted as thermal at the given beta; it must be full
    rank so its logarithm exists.
    """
    if float(beta) <= 0.0 or not np.isfinite(beta):
        raise ContractError("beta must be positive and finite")
    rho_s, joint, rho_e_out, beta_q = _env_heat(spec, rho_s)
    rho_s_out = qlinalg.partial_trace(joint, (spec.d_s, spec.d_e), keep=0)
    delta_s_system = qstate.von_neumann_entropy(rho_s) - qstate.von_neumann_entropy(rho_s_out)
    mutual_info = qstate.quantum_mutual_information(joint, (spec.d_s, spec.d_e))
    rel_entropy_env = qstate.relative_entropy(rho_e_out, spec.env_state)
    return {
        "delta_s_system": float(delta_s_system),
        "mutual_info": float(mutual_info),
        "rel_entropy_env": float(rel_entropy_env),
        "beta_q": beta_q,
    }


def partovi_check(spec: DilationSpec, rho_s) -> bool:
    """Entropy-energy inequality for an initially thermal environment.

    Delta S_E - beta * Delta U_E <= 0 (it equals -D(rho'_E || tau_E));
    beta * Delta U_E = -beta*Q is recovered from ln tau_E, so no Hamiltonian
    or beta argument is needed.
    """
    _, _, rho_e_out, beta_q = _env_heat(spec, rho_s)
    delta_s_env = qstate.von_neumann_entropy(rho_e_out) - qstate.von_neumann_entropy(spec.env_state)
    return bool(delta_s_env + beta_q <= BOUND_TOL)
