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

import sys
from dataclasses import dataclass

import numpy as np

from . import qlinalg, qstate
from .errors import ContractError, NumericHealthError, ShapeError, require_finite
from .errors import require_nonnegative

__all__ = [
    "beta_order", "ThermomajorizationCurve", "thermomaj_curve", "thermomaj_feasible",
    "CtoVerdict", "cto_feasible_general", "second_laws_check", "compute_reset_cycle_verdict",
    "FEASIBILITY_TOL", "DEFAULT_ALPHA_GRID",
]

FEASIBILITY_TOL = 1e-9

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
    require_nonnegative(beta, "beta")
    return qstate.require_distribution(p, "p"), e


def beta_order(p, energies, beta: float, convention: str = "paper") -> np.ndarray:
    """Permutation sorting the ordering key nonincreasing.

    Key is p_i*exp(-beta*E_i) ("paper") or p_i*exp(+beta*E_i) ("standard").
    Ties broken by ascending energy, then ascending index.
    """
    p, e = _check_classical_input(p, energies, beta)
    return _beta_order(p, e, beta, convention)


def _beta_order(p: np.ndarray, e: np.ndarray, beta: float, convention: str) -> np.ndarray:
    """beta_order on inputs already through _check_classical_input."""
    if convention not in _CONVENTIONS:
        raise ContractError(f"unknown ordering convention {convention!r}")
    sign = -1.0 if convention == "paper" else 1.0
    key = p * np.exp(sign * beta * e)
    # lexsort: last key is primary; negate for descending.
    return np.lexsort((np.arange(p.size), e, -key))


@dataclass(frozen=True, eq=False)
class ThermomajorizationCurve:
    """Cumulative Boltzmann weight vs cumulative probability, piecewise linear.

    points is one (n, 2) float64 array of finite rows from (0, 0) to (Z, 1),
    both coordinates nondecreasing.
    Under the "standard" ordering convention the interpolant is additionally
    concave and lies on or above the Gibbs chord y = x/Z; under "paper"
    ordering neither is guaranteed.
    """

    points: np.ndarray

    def __post_init__(self):
        try:
            pts = np.array(self.points, dtype=float)
        except ValueError:  # ragged rows or a cell that is not a number
            raise ContractError("curve points are not an (n, 2) array of numbers") from None
        if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 2:
            raise ContractError(f"curve needs at least two (x, y) points, got shape {pts.shape}")
        if not np.isfinite(pts).all():
            raise ContractError("curve points must be finite")
        if not np.all(np.abs(pts[0]) <= 1e-12):
            raise ContractError("curve must start at (0, 0)")
        if not np.all(np.diff(pts, axis=0) >= -1e-12):
            raise ContractError("curve coordinates must be nondecreasing")
        if not abs(pts[-1, 1] - 1.0) <= 1e-9:
            raise ContractError(f"curve must end at height 1, got {pts[-1, 1]!r}")
        object.__setattr__(self, "points", pts)

    @property
    def xs(self) -> np.ndarray:
        return self.points[:, 0]

    @property
    def ys(self) -> np.ndarray:
        return self.points[:, 1]

    @property
    def partition_weight(self) -> float:
        """Total Boltzmann weight Z (the final x coordinate)."""
        return float(self.points[-1, 0])

    def evaluate(self, x) -> np.ndarray:
        """Piecewise-linear interpolation, clamped to the endpoints."""
        return np.interp(np.asarray(x, dtype=float), self.xs, self.ys)

    def majorizes(self, other: "ThermomajorizationCurve") -> bool:
        """Does other lie at or below this curve everywhere, within
        FEASIBILITY_TOL?

        Both curves are piecewise linear and clamped past their ends, so
        their difference is piecewise linear with kinks only at the union
        of the two breakpoint sets; comparing there is exact.
        """
        grid = np.concatenate((self.xs, other.xs))
        return bool(np.all(other.evaluate(grid) <= self.evaluate(grid) + FEASIBILITY_TOL))


def thermomaj_curve(
    p, energies, beta: float, convention: str = "paper"
) -> ThermomajorizationCurve:
    """Curve through the cumulative (Boltzmann weight, probability) pairs."""
    p, e = _check_classical_input(p, energies, beta)
    order = _beta_order(p, e, beta, convention)
    xs = np.concatenate(([0.0], np.cumsum(np.exp(-beta * e[order]))))
    if not np.isfinite(xs[-1]):  # the weights are >= 0, so the last sum is the largest
        k = order[np.argmax(~np.isfinite(xs)) - 1]
        raise NumericHealthError(
            f"cumulative Boltzmann weight overflows at beta = {float(beta)!r}, "
            f"level {k} (energy {float(e[k])!r})"
        )
    ys = np.concatenate(([0.0], np.cumsum(p[order])))
    # Cumulative rounding can leave the last y an ulp off 1.
    if abs(ys[-1] - 1.0) < 1e-12:
        ys[-1] = 1.0
    return ThermomajorizationCurve(np.column_stack((xs, ys)))


def thermomaj_feasible(
    p_in, p_out, energies, beta: float, convention: str = "paper"
) -> bool:
    """Can p_in reach p_out by a thermal operation (commuting case)?

    Feasible iff the output curve lies at or below the input curve
    everywhere (ThermomajorizationCurve.majorizes).
    """
    cin = thermomaj_curve(p_in, energies, beta, convention)
    return cin.majorizes(thermomaj_curve(p_out, energies, beta, convention))


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
        return require_finite(float(self.free_energy_in - self.free_energy_out), "margin")


def cto_feasible_general(
    rho_in, rho_out, ctx: qstate.ThermoContext, qmi_budget: float
) -> CtoVerdict:
    """Helmholtz comparison F(out) <= F(in), with the correlation budget echoed.

    The budget is a free engineering parameter of the catalyst construction
    (arbitrarily small but nonzero); it is reported, not derived.
    """
    qmi = require_nonnegative(qmi_budget, "qmi budget")
    f_in = qstate.helmholtz_free_energy(rho_in, ctx)
    f_out = qstate.helmholtz_free_energy(rho_out, ctx)
    return CtoVerdict(float(f_in), float(f_out), qmi)


def _require_commuting(rho, ctx: qstate.ThermoContext, what: str):
    rho = qlinalg.as_square(rho, ctx.hamiltonian.dim, what)
    if not qstate._commutes(rho, ctx.hamiltonian.matrix):
        raise ContractError(f"{what} does not commute with the Hamiltonian")
    return rho


def second_laws_check(
    rho_in,
    rho_out,
    ctx: qstate.ThermoContext,
    alphas=DEFAULT_ALPHA_GRID,
) -> tuple[bool, dict[float, float]]:
    """Alpha free-energy inequalities F_a(out) <= F_a(in) on a finite grid.

    Valid for states commuting with the Hamiltonian (enforced). Returns the
    overall verdict and the per-alpha margins F_a(in) - F_a(out); a grid pass
    is a necessary-condition sample of the full family, not a proof. Each
    state's spectrum is paired with the Gibbs spectrum once, and every alpha
    is taken from the pairs in one log-space pass (qstate._gibbs_rre_grid),
    so the number of eigendecompositions does not depend on the grid. Each
    margin is the difference of two qstate.alpha_free_energy calls, which
    take the same route for states that commute with H.
    """
    rho_in = _require_commuting(rho_in, ctx, "input state")
    rho_out = _require_commuting(rho_out, ctx, "output state")
    t = ctx.temperature
    grid = [float(a) for a in alphas]
    log_z, divergences = qstate._gibbs_rre_grid((rho_in, rho_out), ctx, grid)
    free = -t * log_z
    margins: dict[float, float] = {}
    for a, d_in, d_out in zip(grid, *divergences.tolist()):
        margins[a] = require_finite(
            (free + t * d_in) - (free + t * d_out), f"second-laws margin at alpha = {a!r}"
        )
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
    leg, so the verdict is feasible iff both legs are; the return leg swaps
    the forward one's free energies, and the total correlation charge is
    twice the per-step budget, so a budget past half the float range is refused.
    """
    if require_nonnegative(qmi_per_step, "qmi budget") > sys.float_info.max / 2.0:
        raise ContractError(
            f"qmi budget must be <= {sys.float_info.max / 2.0!r} for a cycle, which charges "
            f"it twice, got {float(qmi_per_step)!r}"
        )
    forward = cto_feasible_general(rho_reset, rho_computed, ctx, qmi_per_step)
    backward = CtoVerdict(forward.free_energy_out, forward.free_energy_in, forward.qmi)
    binding = forward if forward.margin <= backward.margin else backward
    return CtoVerdict(binding.free_energy_in, binding.free_energy_out, 2.0 * forward.qmi)
