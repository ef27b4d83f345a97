"""Seeded scenario generators for the three benchmark workloads.

A workload is one fixed pass of scenarios; the benchmark repeats the pass.
The seed draws only matrix and vector entries (states, Hamiltonians, jump
operators, distributions, rates): the task mix, the dimensions, the point
counts and the order never depend on it. A draw whose expected verdict
lies within oracle.MARGIN of a pass/fail gate is redrawn, so every
expected exit code is decided with room to spare.

Each Scenario carries its expected exit code and, where the output can be
checked against an independent route, a check run after the timed loop.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import oracle

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SMINUS = np.array([[0, 1], [0, 0]], dtype=complex)

BUNDLED = {
    "erasure_bit": "landauer",
    "erasure_bit_conditional": "landauer",
    "dephasing": "gksl-evolve",
    "adiabatic": "adiabatic-sweep",
}


@dataclass
class Scenario:
    id: str
    task: str
    expect: int
    d: int | None = None
    doc: dict | None = None
    path: Path | None = None
    golden: str | None = None
    members: list = field(default_factory=list)
    # calls per pass: a short scenario is repeated so that it is sampled
    # through the whole pass, not once per long pass
    reps: int = 1
    # check(report, out_dir) -> error message or None
    check: Callable | None = None

    def argv(self, out_dir: Path) -> list[str]:
        if self.task == "batch":
            args = ["batch"]
            for m in self.members:
                args += ["--scenario", str(m.path)]
            return args + ["--out-dir", str(out_dir)]
        return [self.task, "--scenario", str(self.path), "--out", str(out_dir / "report.json")]


# -- random entries --------------------------------------------------------------


def cmat(m) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


def ginibre(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def herm(rng, d, scale=1.0):
    a = ginibre(rng, (d, d))
    return (a + a.conj().T) / 2.0 * scale


def unitary(rng, d):
    q, r = np.linalg.qr(ginibre(rng, (d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def density(rng, d):
    a = ginibre(rng, (d, d))
    rho = a @ a.conj().T
    rho = (rho + rho.conj().T) / 2.0
    return rho / np.trace(rho).real


def dist(rng, n):
    p = rng.random(n) + 1e-3
    return p / p.sum()


def pairs(d):
    """Consecutive index pairs (a trailing single joins the last pair)."""
    blocks = [list(range(i, i + 2)) for i in range(0, d - d % 2, 2)]
    if d % 2:
        blocks[-1].append(d - 1)
    return blocks


def redraw(make, ok, attempts=50):
    """Draw until ok(draw) holds; deterministic for a given generator."""
    for _ in range(attempts):
        draw = make()
        if ok(draw):
            return draw
    raise RuntimeError("no draw cleared the verdict margin")


# -- thermodynamic tasks ------------------------------------------------------------


def classify(rng, kind):
    if kind == "merge":
        n = 12
        rows = {str(i): np.eye(n)[rng.integers(0, n)].tolist() for i in range(n)}
        payload = {"n_states": n, "rows": rows, "input_dist": dist(rng, n).tolist(),
                   "over": [0, 3, 5, 7]}
    elif kind == "stochastic":
        n = 10
        rows = {str(i): dist(rng, n).tolist() for i in range(8)}
        p = np.concatenate((dist(rng, 8), np.zeros(2)))
        payload = {"n_states": n, "rows": rows, "input_dist": p.tolist(), "over": [1, 2, 6]}
    else:
        n = 16
        perm = [int(j) for j in rng.permutation(n)]
        rows = {str(i): np.eye(n)[perm[i]].tolist() for i in range(n)}
        payload = {"n_states": n, "rows": rows, "input_dist": dist(rng, n).tolist()}
    return {"task": "classify", "payload": payload}, 0, None, None


def _block_state(rng, d, blocks):
    masses = dist(rng, len(blocks))
    rho = np.zeros((d, d), dtype=complex)
    for m, b in zip(masses, blocks):
        rho[np.ix_(b, b)] = m * density(rng, len(b))
    return rho


def entropy_decompose(rng, d):
    blocks = pairs(d - 1)  # the last index is the catch-all block
    rho = _block_state(rng, d, blocks + [[d - 1]])
    s_ref = oracle.vn_entropy(rho)

    def check(report, out_dir):
        got = report["outputs"]["s_total"]
        return None if abs(got - s_ref) <= 1e-9 else f"s_total {got!r} vs reference {s_ref!r}"

    doc = {"task": "entropy-decompose", "payload": {"state": cmat(rho), "blocks": blocks}}
    return doc, 0, d, check


def implements_check(rng, d, faithful):
    blocks = pairs(d)
    k = len(blocks)
    perm = [int(j) for j in rng.permutation(k)]
    rho = _block_state(rng, d, blocks)

    def worst_tv(u):
        """Largest total variation between a block's image and its claimed row."""
        worst = 0.0
        for i, b in enumerate(blocks):
            restricted = np.zeros_like(rho)
            restricted[np.ix_(b, b)] = rho[np.ix_(b, b)]
            evolved = u @ restricted @ u.conj().T / np.trace(restricted).real
            masses = np.array([np.real(np.trace(evolved[np.ix_(c, c)])) for c in blocks])
            worst = max(worst, 0.5 * float(np.abs(masses - np.eye(k)[perm[i]]).sum()))
        return worst

    if faithful:
        # block i goes to block perm[i] through a random unitary
        u = np.zeros((d, d), dtype=complex)
        for i, b in enumerate(blocks):
            u[np.ix_(blocks[perm[i]], b)] = unitary(rng, len(b))
    else:
        u = redraw(lambda: unitary(rng, d), lambda v: worst_tv(v) >= 1e-6)
    op = {"n_states": k, "rows": {str(i): np.eye(k)[perm[i]].tolist() for i in range(k)}}
    doc = {"task": "implements-check",
           "payload": {"unitary": cmat(u), "state": cmat(rho), "p_in_blocks": blocks, "op": op}}
    return doc, 0 if worst_tv(u) <= 1e-9 else 4, d, None


def landauer(rng, kind, d_s, d_e, heat):
    beta = float(rng.uniform(0.5, 2.0))

    def make():
        h_e = herm(rng, d_e, 1.0 / np.sqrt(d_e))
        if kind == "swap":
            i, j = (int(v) for v in rng.choice(d_s, 2, replace=False))
            p = float(rng.uniform(0.2, 0.8))
            states = [(p, np.diag(np.eye(d_s)[i]).astype(complex)),
                      (1.0 - p, np.diag(np.eye(d_s)[j]).astype(complex))]
            target = np.diag(np.eye(d_s)[0]).astype(complex)
            unitaries = [np.eye(d_s * d_e)[[(k % d_e) * d_s + k // d_e for k in range(d_s * d_e)]]]
            encoded = [{"swap": True}]
            mode = "unconditional"
        elif kind == "matrix":
            p = float(rng.uniform(0.2, 0.8))
            states = [(p, density(rng, d_s)), (1.0 - p, density(rng, d_s))]
            target = density(rng, d_s)
            unitaries = [unitary(rng, d_s * d_e)]
            encoded = [{"matrix": cmat(unitaries[0])}]
            mode = "unconditional"
        else:
            # conditional: rho_l = V_l sigma V_l^dag, reset by V_l^dag (x) 1, so
            # every branch reaches the same joint state sigma (x) tau
            sigma = density(rng, d_s)
            n = 1 if heat else 2
            vs = [unitary(rng, d_s) for _ in range(n)]
            probs = [1.0] if n == 1 else [float(rng.uniform(0.2, 0.8))]
            probs = probs + ([1.0 - probs[0]] if n == 2 else [])
            states = [(p, v @ sigma @ v.conj().T) for p, v in zip(probs, vs)]
            target = sigma if rng.random() < 0.5 else np.diag(np.eye(d_s)[0]).astype(complex)
            unitaries = [np.kron(v.conj().T, np.eye(d_e)) for v in vs]
            encoded = [{"matrix": cmat(u)} for u in unitaries]
            mode = "conditional"
        margin = oracle.landauer_margin(states, target, h_e, beta, unitaries, mode)
        return h_e, states, target, encoded, mode, margin

    # conditional resets with target sigma sit exactly on the bound: the
    # verdict there is the library's documented slack, not a rounding race
    h_e, states, target, encoded, mode, margin = redraw(
        make, lambda r: abs(r[5]) >= 1e-6 or (r[4] == "conditional" and abs(r[5]) <= 1e-12)
    )
    payload = {
        "mode": mode,
        "states": [{"p": p, "state": cmat(rho)} for p, rho in states],
        "target": cmat(target),
        "env_hamiltonian": cmat(h_e),
        "beta": beta,
        "unitaries": encoded,
    }
    if heat:
        payload["heat"] = True
    return {"task": "landauer", "payload": payload}, 0 if margin >= -1e-9 else 4, d_s * d_e, None


def thermo_check(rng, n, convention, forward):
    beta = float(rng.uniform(0.5, 2.0))

    def make():
        e = rng.uniform(0.0, 3.0, n)
        p = dist(rng, n)
        gamma = np.exp(-beta * e) / np.exp(-beta * e).sum()
        lam = float(rng.uniform(0.3, 0.7))
        q = (1.0 - lam) * p + lam * gamma
        p_in, p_out = (p, q) if forward else (q, p)
        return e, p_in, p_out, oracle.thermo_margin(p_in, p_out, e, beta, convention)

    e, p_in, p_out, margin = redraw(make, lambda r: abs(r[3]) >= 1e-6)
    payload = {"p_in": p_in.tolist(), "p_out": p_out.tolist(), "energies": e.tolist(),
               "beta": beta, "convention": convention}
    return {"task": "thermo-check", "payload": payload}, 0 if margin >= 0 else 4, None, None


def cto_check(rng, d, forward, second_laws=False, cycle=False, alphas=None):
    """rho_out is a partial thermalization of rho_in (swapped when not forward)."""
    beta = float(rng.uniform(0.5, 2.0))
    grid = alphas or (0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0, 50.0)

    def make():
        if second_laws:
            e = rng.uniform(0.0, 2.0, d)
            h = np.diag(e).astype(complex)
            rho = np.diag(dist(rng, d)).astype(complex)
        else:
            h = herm(rng, d, 1.0 / np.sqrt(d))
            rho = density(rng, d)
        tau = oracle.gibbs(h, beta)
        lam = float(rng.uniform(0.3, 0.7))
        thermal = (1.0 - lam) * rho + lam * tau
        r_in, r_out = (rho, thermal) if forward else (thermal, rho)
        margins = [oracle.free_energy(r_in, h, beta) - oracle.free_energy(r_out, h, beta)]
        if second_laws:
            g = np.real(np.diag(tau))
            pi, po = np.real(np.diag(r_in)), np.real(np.diag(r_out))
            margins += [(oracle.renyi(pi, g, a) - oracle.renyi(po, g, a)) / beta for a in grid]
        return h, r_in, r_out, margins

    h, r_in, r_out, margins = redraw(make, lambda r: min(abs(m) for m in r[3]) >= 1e-6)
    passed = all(m >= 0 for m in margins)
    if cycle:
        passed = False  # the two legs have margins m and -m, and |m| >= 1e-6
    f_in_ref = oracle.free_energy(r_in, h, beta)
    payload = {"rho_in": cmat(r_in), "rho_out": cmat(r_out), "hamiltonian": cmat(h),
               "beta": beta, "qmi_budget": float(rng.uniform(0.0, 1e-3))}
    if second_laws:
        payload["second_laws"] = True
        if alphas:
            payload["alphas"] = list(alphas)
    if cycle:
        payload["cycle"] = True

    def check(report, out_dir):
        if cycle:
            return None
        got = report["outputs"]["free_energy_in"]
        ok = abs(got - f_in_ref) <= 1e-9 * max(1.0, abs(f_in_ref))
        return None if ok else f"free_energy_in {got!r} vs reference {f_in_ref!r}"

    return {"task": "cto-check", "payload": payload}, 0 if passed else 4, d, check


def adiabatic_sweep(rng, n_points):
    tau_r = float(10 ** rng.uniform(-3, -1))
    tau_e = tau_r * float(10 ** rng.uniform(2, 6))
    payload = {
        "e_sig": float(rng.uniform(0.5, 2.0)),
        "tau_r": tau_r,
        "tau_e": tau_e,
        "c_sw": float(rng.uniform(0.5, 2.0)),
        "c_lk": float(rng.uniform(0.5, 2.0)),
        "t_min": tau_r / 10.0,
        "t_max": tau_e * 10.0,
        "n_points": n_points,
        "efficiency_c": float(rng.uniform(0.5, 2.0)),
    }
    return {"task": "adiabatic-sweep", "payload": payload}, 0, None, None


# -- GKSL generators --------------------------------------------------------------


def random_generator(rng, d, n_jumps):
    h = herm(rng, d, 1.0 / np.sqrt(d))
    jumps = [(ginibre(rng, (d, d)) / np.sqrt(2 * d), float(rng.uniform(0.2, 1.0)))
             for _ in range(n_jumps)]
    return h, jumps


def dephasing_generator(rng, d):
    """Diagonal H, one diagonal jump constant on each pair block: every
    cross-block coherence decays at rate >= 1.1, the rest never do."""
    blocks = pairs(d)
    level = np.empty(d)
    for j, b in enumerate(blocks):
        level[b] = 2.0 * j + rng.uniform(0.0, 0.5)
    h = np.diag(rng.uniform(-1.0, 1.0, d)).astype(complex)
    return h, [(np.diag(level).astype(complex), 1.0)]


def exceptional_generator(d):
    """The test suite's driven damped qubit at its exceptional point
    (kappa = 1, Omega = kappa/4), embedded as H (x) 1, F (x) 1: a Jordan
    chain at every d, so every propagation to t > 0 on the 20-point grid
    and at t_resolve takes the series expm route."""
    kappa = 1.0
    eye = np.eye(d // 2)
    return np.kron(0.5 * (kappa / 4.0) * SX, eye), [(np.kron(SMINUS, eye), kappa)]


def dfs_generator(rng, sizes):
    """Decoherence-free blocks of the given sizes plus one decaying level.

    Block interiors evolve unitarily forever; cross-block coherence is
    dephased away and the extra level decays into the first block.
    """
    d = sum(sizes) + 1
    h = np.zeros((d, d), dtype=complex)
    level = np.empty(d)
    start = 0
    for j, s in enumerate(sizes):
        idx = list(range(start, start + s))
        h[np.ix_(idx, idx)] = herm(rng, s, 1.0 / np.sqrt(s))
        level[idx] = 2.0 * j + rng.uniform(0.0, 0.5)
        start += s
    h[d - 1, d - 1] = rng.uniform(-1.0, 1.0)
    level[d - 1] = 2.0 * len(sizes) + rng.uniform(0.0, 0.5)
    decay = np.zeros((d, d), dtype=complex)
    decay[0, d - 1] = 1.0
    jumps = [(np.diag(level).astype(complex), 1.0), (decay, float(rng.uniform(0.5, 1.0)))]
    return h, jumps, d - 1


def _lindblad_payload(h, jumps):
    return {"hamiltonian": cmat(h),
            "jumps": [{"operator": cmat(f), "rate": k} for f, k in jumps]}


T_MAX, N_POINTS, T_RESOLVE = 10.0, 20, 80.0


def gksl_evolve(rng, d, kind, blocks, n_jumps=1):
    def make():
        if kind == "random":
            h, jumps = random_generator(rng, d, n_jumps)
        elif kind == "dephasing":
            h, jumps = dephasing_generator(rng, d)
        else:
            h, jumps = exceptional_generator(d)
        rho = density(rng, d)
        m = oracle.superoperator(h, jumps)
        ratio = 0.0
        if blocks:
            final = oracle.series_propagate(m, rho, T_RESOLVE)
            ratio = oracle.classical_ratio(oracle.offblock(final, pairs(d)),
                                           oracle.offblock(rho, pairs(d)))
        return h, jumps, rho, m, ratio

    h, jumps, rho, m, ratio = redraw(make, lambda r: not blocks or oracle.clear_ratio(r[4]))
    ref = oracle.series_propagate(m, rho, T_MAX)
    payload = _lindblad_payload(h, jumps)
    payload.update(state=cmat(rho), times={"t_max": T_MAX, "n": N_POINTS})
    if blocks:
        payload.update(blocks=pairs(d), t_resolve=T_RESOLVE)

    def check(report, out_dir):
        out = report["outputs"]
        got = np.array([[complex(*z) for z in row] for row in out["final_state"]])
        dev = float(np.abs(got - ref).max())
        if dev > 1e-10:
            return f"final state deviates from the series route by {dev:.3e}"
        if out["max_trace_drift"] > 1e-9:
            return f"trace drift {out['max_trace_drift']:.3e}"
        lines = (out_dir / "trajectory.csv").read_text().count("\n")
        return None if lines == N_POINTS + 1 else f"trajectory.csv has {lines} lines"

    return {"task": "gksl-evolve", "payload": payload}, 0 if ratio <= 1.0 else 4, d, check


CESARO_SAMPLES = {4: 2**10, 8: 2**12, 12: 2**13, 16: 2**14}


def gksl_asymptotic(rng, d, kind, cesaro=False, state=False):
    if kind == "exceptional":
        h, jumps = exceptional_generator(d)
        payload = _lindblad_payload(h, jumps)
        n_asym = (d // 2) ** 2

        def check(report, out_dir):
            out = report["outputs"]
            if out["spectral_fallback"] is not True or out["n_asymptotic"] != n_asym:
                return f"fallback {out['spectral_fallback']} with {out['n_asymptotic']} asymptotic"
            return None

        return {"task": "gksl-asymptotic", "payload": payload}, 0, d, check

    samples = CESARO_SAMPLES[d]

    def make():
        if kind == "generic":
            h, jumps = random_generator(rng, d, 2)
            support = np.eye(d)
        else:
            sizes = {4: (1, 2), 8: (2, 2, 3), 12: (3, 4, 4), 16: (5, 5, 5)}[d]
            h, jumps, keep = dfs_generator(rng, sizes)
            support = np.diag([1.0] * keep + [0.0] * (d - keep))
        m = oracle.superoperator(h, jumps)
        evals, right, dual, asym, p_inf, rank, tol = oracle.spectral(m, d)
        re = np.abs(evals.real)
        clear = (re[asym].max() <= 1e-3 * tol) and (re[~asym].min() >= 1e3 * tol)
        horizon = float(rng.uniform(50.0, 100.0))
        dist_ = (oracle.cesaro_distance(evals, right, dual, asym, p_inf, tol, horizon, samples)
                 if cesaro else 0.0)
        if cesaro:
            clear = clear and oracle.clear_ratio(dist_ / 1e-4)
        return h, jumps, support, asym, p_inf, rank, horizon, dist_, clear

    h, jumps, support, asym, p_inf, rank, horizon, dist_, _ = redraw(make, lambda r: r[8])
    payload = _lindblad_payload(h, jumps)
    expect = 0
    if cesaro:
        payload["cesaro"] = {"horizon": horizon, "samples": samples}
        expect = 0 if dist_ <= 1e-4 else 4
    final = None
    if state:
        rho = density(rng, d)
        h_inf = support @ herm(rng, d, 1.0 / np.sqrt(d)) @ support
        s = float(rng.uniform(0.5, 5.0))
        payload.update(state=cmat(rho), h_inf=cmat(h_inf), s=s)
        w, v = np.linalg.eigh(h_inf)
        u = (v * np.exp(-1j * s * w)) @ v.conj().T
        final = u @ oracle.unvec(p_inf @ oracle.vec(rho), d) @ u.conj().T
    n_asym = int(asym.sum())

    def check(report, out_dir):
        out = report["outputs"]
        if out["n_asymptotic"] != n_asym or out["p_a_rank"] != rank:
            return f"{out['n_asymptotic']} asymptotic, rank {out['p_a_rank']}; want {n_asym}, {rank}"
        if out["spectral_fallback"]:
            return "diagonalizable generator took the Cesaro fallback"
        if final is not None:
            got = np.array([[complex(*z) for z in row] for row in out["asymptotic_state"]])
            dev = float(np.abs(got - final).max())
            if dev > 1e-8:
                return f"asymptotic state deviates by {dev:.3e}"
        return None

    return {"task": "gksl-asymptotic", "payload": payload}, expect, d, check


# -- workloads ---------------------------------------------------------------------


def _thermo_mix(rng):
    plan = [
        ("classify-merge", lambda: classify(rng, "merge")),
        ("entropy-4", lambda: entropy_decompose(rng, 4)),
        ("landauer-swap-2", lambda: landauer(rng, "swap", 2, 2, heat=True)),
        ("thermo-16-paper", lambda: thermo_check(rng, 16, "paper", True)),
        ("cto-4", lambda: cto_check(rng, 4, True)),
        ("implements-4", lambda: implements_check(rng, 4, True)),
        ("sweep-1000", lambda: adiabatic_sweep(rng, 1000)),
        ("classify-stochastic", lambda: classify(rng, "stochastic")),
        ("entropy-8", lambda: entropy_decompose(rng, 8)),
        ("landauer-matrix-8", lambda: landauer(rng, "matrix", 2, 4, heat=True)),
        ("thermo-16-standard", lambda: thermo_check(rng, 16, "standard", False)),
        ("cto-8-laws", lambda: cto_check(rng, 8, True, second_laws=True)),
        ("implements-8", lambda: implements_check(rng, 8, False)),
        ("classify-perm", lambda: classify(rng, "perm")),
        ("entropy-12", lambda: entropy_decompose(rng, 12)),
        ("landauer-cond-12", lambda: landauer(rng, "conditional", 3, 4, heat=False)),
        ("thermo-64-paper", lambda: thermo_check(rng, 64, "paper", False)),
        ("cto-12", lambda: cto_check(rng, 12, False)),
        ("implements-12", lambda: implements_check(rng, 12, True)),
        ("sweep-5000", lambda: adiabatic_sweep(rng, 5000)),
        ("entropy-16", lambda: entropy_decompose(rng, 16)),
        ("landauer-swap-16", lambda: landauer(rng, "swap", 4, 4, heat=False)),
        ("thermo-64-standard", lambda: thermo_check(rng, 64, "standard", True)),
        ("cto-16-laws", lambda: cto_check(rng, 16, False, second_laws=True,
                                          alphas=(0.5, 1.0, 2.0, 10.0))),
        ("implements-16", lambda: implements_check(rng, 16, False)),
        ("landauer-cond-heat-4", lambda: landauer(rng, "conditional", 2, 2, heat=True)),
        ("thermo-256-paper", lambda: thermo_check(rng, 256, "paper", True)),
        ("cto-8-cycle", lambda: cto_check(rng, 8, True, cycle=True)),
        ("landauer-swap-36", lambda: landauer(rng, "swap", 6, 6, heat=True)),
        ("thermo-256-standard", lambda: thermo_check(rng, 256, "standard", False)),
        ("landauer-matrix-12", lambda: landauer(rng, "matrix", 3, 4, heat=True)),
        ("cto-16-laws-default", lambda: cto_check(rng, 16, True, second_laws=True)),
        ("cto-12-cycle-laws", lambda: cto_check(rng, 12, False, second_laws=True, cycle=True)),
    ]
    scenarios = []
    for sid, make in plan:
        doc, expect, d, check = make()
        scenarios.append(Scenario(sid, doc["task"], expect, d, doc=doc, check=check))
    for stem in ("erasure_bit", "erasure_bit_conditional", "adiabatic"):
        scenarios.append(Scenario(f"bundled-{stem}", BUNDLED[stem], 0, golden=stem))
    by_id = {s.id: s for s in scenarios}
    for sid, members in (
        ("batch-2", ["thermo-16-standard", "classify-merge"]),
        ("batch-4", ["landauer-swap-2", "entropy-8", "cto-12", "sweep-1000"]),
    ):
        ms = [by_id[m] for m in members]
        scenarios.append(Scenario(sid, "batch", max(m.expect for m in ms), members=ms))
    return scenarios, "bundled-erasure_bit"


def _round_robin(groups):
    """Interleave the groups one item at a time, so that a slow phase of
    the machine does not land on the scenarios of one dimension."""
    out = []
    while any(groups):
        for g in groups:
            if g:
                out.append(g.pop(0))
    return out


# Calls per pass by d. A gksl-trajectory pass lasts 15-19 s, nearly all of
# it the d = 12 and d = 16 calls, and a gksl-spectrum pass about 2.5 s; the
# short calls repeat so that each is sampled often and through the pass.
# The 1 s calls at d = 12 vary by a fifth within a run, so they repeat too.
TRAJECTORY_REPS = {None: 4, 4: 4, 8: 2, 12: 2}
SPECTRUM_REPS = {4: 4, 8: 2}

# Fewest whole passes in a run. Two trajectory passes outlast the 25 s run
# of BENCHMARK.json, so a run holds two; the floor keeps a slow phase of the
# machine from ending a run after one, on half the calls.
MIN_PASSES = {"gksl-trajectory": 2}


def _gksl_trajectory(rng):
    by_d = {
        4: [("random", True), ("random", False), ("dephasing", True), ("dephasing", False),
            ("exceptional", True), ("exceptional", False), ("random", True)],
        8: [("random", True), ("random", False), ("dephasing", True), ("dephasing", False),
            ("exceptional", True), ("exceptional", False)],
        12: [("random", True), ("dephasing", False), ("exceptional", True)],
        16: [("random", False), ("dephasing", True), ("exceptional", False)],
    }
    plan = _round_robin([[(d, kind, blocks) for kind, blocks in v] for d, v in by_d.items()])
    scenarios = [Scenario("bundled-dephasing", BUNDLED["dephasing"], 0, golden="dephasing")]
    for i, (d, kind, blocks) in enumerate(plan):
        doc, expect, dd, check = gksl_evolve(rng, d, kind, blocks, n_jumps=1 + i % 3)
        sid = f"evolve-{i:02d}-{kind}-{d}" + ("-blocks" if blocks else "")
        scenarios.append(Scenario(sid, "gksl-evolve", expect, dd, doc=doc, check=check))
    for s in scenarios:
        s.reps = TRAJECTORY_REPS.get(s.d, 1)
    return scenarios, "bundled-dephasing"


def _gksl_spectrum(rng):
    kinds = [
        ("generic-state", dict(kind="generic", state=True)),
        ("generic-cesaro", dict(kind="generic", cesaro=True)),
        ("dfs-state", dict(kind="dfs", state=True)),
        ("dfs", dict(kind="dfs")),
        ("exceptional", dict(kind="exceptional")),
    ]
    plan = _round_robin([[(d, name, kw) for name, kw in kinds] for d in (4, 8, 12, 16)])
    scenarios = []
    for d, name, kw in plan:
        if name == "dfs" and d == 4:
            name, kw = "dfs-cesaro", dict(kind="dfs", cesaro=True)
        doc, expect, dd, check = gksl_asymptotic(rng, d, **kw)
        scenarios.append(Scenario(f"asymptotic-{name}-{d}", "gksl-asymptotic", expect, dd,
                                  doc=doc, check=check, reps=SPECTRUM_REPS.get(d, 1)))
    return scenarios, "asymptotic-generic-state-4"


WORKLOADS = {
    "thermo-mix": _thermo_mix,
    "gksl-trajectory": _gksl_trajectory,
    "gksl-spectrum": _gksl_spectrum,
}


def build(name: str, seed: int, scenario_dir: Path, bundled_dir: Path):
    """Generate a workload's pass and write its scenario files.

    Returns (scenarios in pass order, id of the scenario timed for setup).
    """
    scenarios, setup_id = WORKLOADS[name](np.random.default_rng(seed))
    scenario_dir.mkdir(parents=True, exist_ok=True)
    for s in scenarios:
        if s.golden:
            s.path = bundled_dir / f"{s.golden}.json"
        elif s.doc is not None:
            s.path = scenario_dir / f"{s.id}.json"
            s.path.write_text(json.dumps(s.doc))
    return scenarios, setup_id
