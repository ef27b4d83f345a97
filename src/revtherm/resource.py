"""Thermal-operation feasibility: thermomajorization and free-energy laws.

Classical (energy-diagonal) transitions are decided by thermomajorization
curves; general quantum transitions under catalytic thermal operations by
the Helmholtz free-energy comparison, with a caller-supplied correlation
budget; commuting transitions additionally satisfy a family of alpha
free-energy inequalities, checked on a finite grid.

Curve ordering convention: the default key is p_i * exp(-beta E_i)
("paper"); convention="standard" uses p_i * exp(+beta E_i), the slope
ordering under which curves are concave, tie-insensitive, and minimized
by the Gibbs chord. The two differ whenever beta > 0 and the energies are
not degenerate; pick explicitly when it matters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qlinalg, qstate
from .errors import ContractError, ShapeError

FEASIBILITY_TOL = 1e-9
COMMUTATOR_RTOL = 1e-10

# Finite stand-in for the "for all alpha" family; 50 caps the alpha -> inf end.
DEFAULT_ALPHA_GRID = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0, 50.0)

_CONVENTIONS = ("paper", "standard")


def _check_classical_input(p, energies, beta: float) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(p, dtype=float).reshape(-1)
    e = np.asarray(energies, dtype=float).reshape(-1)
    if p.size != e.size:
        raise ShapeError(f"{p.size} probabilities vs {e.size} energies")
    if not np.all(np.isfinite(e)):
        raise ContractError("energies must be finite")
    if not np.isfinite(beta):
        raise ContractError(f"beta must be finite, got {beta!r}")
    return qstate.require_distribution(p, "p"), e


def beta_order(p, energies, beta: float, convention: str = "paper") -> np.ndarray:
    """Permutation sorting the ordering key nonincreasing.

    Key is p_i*exp(-beta*E_i) ("paper") or p_i*exp(+beta*E_i) ("standard").
    Ties broken by ascending energy, then ascending index.
    """
    p, e = _check_classical_input(p, energies, beta)
    if convention not in _CONVENTIONS:
        raise ContractError(f"unknown ordering convention {convention!r}")
    sign = -1.0 if convention == "paper" else 1.0
    key = p * np.exp(sign * beta * e)
    # lexsort: last key is primary; negate for descending.
    return np.lexsort((np.arange(p.size), e, -key))


@dataclass(frozen=True)
class ThermomajorizationCurve:
    """Cumulative Boltzmann weight vs cumulative probability, piecewise linear.

    Starts at (0, 0), ends at (Z, 1); both coordinates nondecreasing.
    Under the "standard" ordering convention the interpolant is additionally
    concave and lies on or above the Gibbs chord y = x/Z; under "paper"
    ordering neither is guaranteed.
    """

    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        pts = tuple((float(x), float(y)) for x, y in self.points)
        if len(pts) < 2:
            raise ContractError("curve needs at least two points")
        xs = np.array([x for x, _ in pts])
        ys = np.array([y for _, y in pts])
        if abs(xs[0]) > 1e-12 or abs(ys[0]) > 1e-12:
            raise ContractError("curve must start at (0, 0)")
        if np.any(np.diff(xs) < -1e-12) or np.any(np.diff(ys) < -1e-12):
            raise ContractError("curve coordinates must be nondecreasing")
        if abs(ys[-1] - 1.0) > 1e-9:
            raise ContractError(f"curve must end at height 1, got {ys[-1]!r}")
        object.__setattr__(self, "points", pts)

    @property
    def xs(self) -> np.ndarray:
        return np.array([x for x, _ in self.points])

    @property
    def ys(self) -> np.ndarray:
        return np.array([y for _, y in self.points])

    @property
    def partition_weight(self) -> float:
        """Total Boltzmann weight Z (the final x coordinate)."""
        return self.points[-1][0]

    def evaluate(self, x) -> np.ndarray:
        """Piecewise-linear interpolation, clamped to the endpoints."""
        return np.interp(np.asarray(x, dtype=float), self.xs, self.ys)

    def is_concave(self, tol: float = 1e-12) -> bool:
        slopes = np.diff(self.ys) / np.maximum(np.diff(self.xs), 1e-300)
        return bool(np.all(np.diff(slopes) <= tol))


def thermomaj_curve(
    p, energies, beta: float, convention: str = "paper"
) -> ThermomajorizationCurve:
    """Curve through the cumulative (Boltzmann weight, probability) pairs."""
    p, e = _check_classical_input(p, energies, beta)
    order = beta_order(p, e, beta, convention)
    xs = np.concatenate(([0.0], np.cumsum(np.exp(-beta * e[order]))))
    ys = np.concatenate(([0.0], np.cumsum(p[order])))
    # Cumulative rounding can leave the last y an ulp off 1.
    if abs(ys[-1] - 1.0) < 1e-12:
        ys[-1] = 1.0
    return ThermomajorizationCurve(tuple(zip(xs.tolist(), ys.tolist())))


def thermomaj_feasible(
    p_in, p_out, energies, beta: float, convention: str = "paper"
) -> bool:
    """Can p_in reach p_out by a thermal operation (commuting case)?

    Feasible iff the output curve lies at or below the input curve
    everywhere. Both curves are piecewise linear and clamped past their
    ends, so their difference is piecewise linear with kinks only at the
    union of the two breakpoint sets; comparing there is exact.
    """
    cin = thermomaj_curve(p_in, energies, beta, convention)
    cout = thermomaj_curve(p_out, energies, beta, convention)
    grid = np.concatenate((cin.xs, cout.xs))
    return bool(np.all(cout.evaluate(grid) <= cin.evaluate(grid) + FEASIBILITY_TOL))


@dataclass(frozen=True)
class CtoVerdict:
    """Feasibility verdict for a catalytic-thermal-operation transition.

    margin = free_energy_in - free_energy_out; feasible iff the output free
    energy does not exceed the input one by more than the tolerance. qmi is
    the correlation budget charged to the catalyst, echoed from the caller.
    """

    free_energy_in: float
    free_energy_out: float
    qmi: float

    @property
    def feasible(self) -> bool:
        return bool(self.free_energy_out <= self.free_energy_in + FEASIBILITY_TOL)

    @property
    def margin(self) -> float:
        return float(self.free_energy_in - self.free_energy_out)


def cto_feasible_general(
    rho_in, rho_out, ctx: qstate.ThermoContext, qmi_budget: float
) -> CtoVerdict:
    """Helmholtz comparison F(out) <= F(in), with the correlation budget echoed.

    The budget is a free engineering parameter of the catalyst construction
    (arbitrarily small but nonzero); it is reported, not derived.
    """
    if float(qmi_budget) < 0.0:
        raise ContractError("qmi budget must be nonnegative")
    f_in = qstate.helmholtz_free_energy(rho_in, ctx)
    f_out = qstate.helmholtz_free_energy(rho_out, ctx)
    return CtoVerdict(float(f_in), float(f_out), float(qmi_budget))


def _require_commuting(rho, ctx: qstate.ThermoContext, what: str):
    h = ctx.hamiltonian.matrix
    rho = qlinalg.as_square(rho, h.shape[0], what)
    comm = rho @ h - h @ rho
    scale = max(1.0, float(np.linalg.norm(rho)) * float(np.linalg.norm(h)))
    if np.linalg.norm(comm) > COMMUTATOR_RTOL * scale:
        raise ContractError(f"{what} does not commute with the Hamiltonian")


def second_laws_check(
    rho_in,
    rho_out,
    ctx: qstate.ThermoContext,
    alphas=DEFAULT_ALPHA_GRID,
) -> tuple[bool, dict[float, float]]:
    """Alpha free-energy inequalities F_a(out) <= F_a(in) on a finite grid.

    Valid for states commuting with the Hamiltonian (enforced). Returns the
    overall verdict and the per-alpha margins F_a(in) - F_a(out); a grid pass
    is a necessary-condition sample of the full family, not a proof.
    """
    _require_commuting(rho_in, ctx, "input state")
    _require_commuting(rho_out, ctx, "output state")
    margins: dict[float, float] = {}
    for alpha in alphas:
        a = float(alpha)
        f_in = qstate.alpha_free_energy(rho_in, ctx, a)
        f_out = qstate.alpha_free_energy(rho_out, ctx, a)
        margins[a] = float(f_in - f_out)
    ok = all(m >= -FEASIBILITY_TOL for m in margins.values())
    return ok, margins


def compute_reset_cycle_verdict(
    rho_reset,
    rho_computed,
    ctx: qstate.ThermoContext,
    qmi_per_step: float,
) -> CtoVerdict:
    """Round trip reset -> computed -> reset as two chained transitions.

    The reported free energies are those of the binding (smaller-margin)
    leg, so the verdict is feasible iff both legs are (the two margins are
    negatives of each other); the total correlation charge is twice the
    per-step budget.
    """
    forward = cto_feasible_general(rho_reset, rho_computed, ctx, qmi_per_step)
    backward = cto_feasible_general(rho_computed, rho_reset, ctx, qmi_per_step)
    binding = forward if forward.margin <= backward.margin else backward
    return CtoVerdict(binding.free_energy_in, binding.free_energy_out, 2.0 * float(qmi_per_step))
