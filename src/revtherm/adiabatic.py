"""Closed-form dissipation model for adiabatic logic transitions.

A transition of duration t_tr pays switching losses ~ 1/t_tr and leakage
losses ~ t_tr. Device constants are absorbed into adjusted timescales
tau_r' = c_sw * tau_r and tau_e' = tau_e / c_lk; the model is treated as
exact everywhere, with only a warning when t_tr leaves the physically
motivated window (tau_r, tau_e). Units are whatever the caller uses,
consistently.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, NumericHealthError, require_finite, require_positive

__all__ = ["AdiabaticParams", "e_diss", "optimal_ttr", "min_e_diss", "efficiency_bound", "sweep"]

REGIME_RATIO = 10.0


@dataclass(frozen=True)
class AdiabaticParams:
    """Signal energy, relaxation/equilibration times, device constants."""

    e_sig: float
    tau_r: float
    tau_e: float
    c_sw: float = 1.0
    c_lk: float = 1.0

    def __post_init__(self):
        for name in ("e_sig", "tau_r", "tau_e", "c_sw", "c_lk"):
            object.__setattr__(self, name, require_positive(getattr(self, name), name))
        if self.tau_r_adj >= self.tau_e_adj:
            raise ContractError(
                "adjusted relaxation time must stay below the adjusted "
                f"equilibration time ({self.tau_r_adj!r} >= {self.tau_e_adj!r})"
            )

    @property
    def tau_r_adj(self) -> float:
        return require_finite(self.c_sw * self.tau_r, "adjusted relaxation time")

    @property
    def tau_e_adj(self) -> float:
        return require_finite(self.tau_e / self.c_lk, "adjusted equilibration time")


def _switching(p: AdiabaticParams, t):
    """e_sig * tau_r'/t, for one time or an array of them: the one switching formula."""
    return p.e_sig * p.tau_r_adj / t


def _leakage(p: AdiabaticParams, t):
    """e_sig * t/tau_e', for one time or an array of them: the one leakage formula."""
    return p.e_sig * t / p.tau_e_adj


def e_diss(p: AdiabaticParams, t_tr: float) -> float:
    """Total dissipation per transition: switching plus leakage."""
    t = require_positive(t_tr, "transition time")
    if not p.tau_r < t < p.tau_e:
        warnings.warn(
            f"transition time {t!r} outside the model window "
            f"({p.tau_r!r}, {p.tau_e!r}); the formulas are extrapolating",
            RuntimeWarning,
            stacklevel=2,
        )
    return require_finite(_switching(p, t) + _leakage(p, t), f"e_diss at t_tr = {t!r}")


def optimal_ttr(p: AdiabaticParams) -> float:
    """Dissipation-minimizing transition time, the geometric mean of the
    adjusted timescales (where switching and leakage losses balance).

    Raises NumericHealthError when the product tau_r' tau_e' under- or
    overflows, so that the optimum comes out 0 or inf.
    """
    t = float(np.sqrt(p.tau_r_adj * p.tau_e_adj))
    if not 0.0 < t < np.inf:
        raise NumericHealthError(
            f"optimal transition time is {t!r}: tau_r' * tau_e' leaves the float range"
        )
    return t


def min_e_diss(p: AdiabaticParams) -> float:
    """Dissipation at the optimal transition time, 2 e_sig sqrt(tau_r'/tau_e').

    Halving this floor requires quadrupling tau_e'/tau_r': an N-fold
    efficiency gain costs an N^2-fold timescale ratio.
    """
    return require_finite(p.e_sig * (2.0 * float(np.sqrt(p.tau_r_adj / p.tau_e_adj))), "min_e_diss")


def efficiency_bound(p: AdiabaticParams, c: float) -> float:
    """Upper bound 1 - c*sqrt(tau_r/tau_e) on energy-recovery efficiency.

    Uses the raw (unadjusted) timescales. Meaningful in the slow-
    equilibration regime; a warning flags tau_e / tau_r < 10.
    """
    c = float(c)
    if not np.isfinite(c):
        raise ContractError("efficiency constant must be finite")
    if p.tau_e / p.tau_r < REGIME_RATIO:
        warnings.warn(
            f"timescale ratio {p.tau_e / p.tau_r!r} is too small for the "
            "efficiency bound's asymptotic regime",
            RuntimeWarning,
            stacklevel=2,
        )
    return require_finite(1.0 - c * float(np.sqrt(p.tau_r / p.tau_e)), "efficiency bound")


def sweep(p: AdiabaticParams, t_min: float, t_max: float, n_points: int) -> np.ndarray:
    """Log-spaced dissipation table, one row per grid point.

    Columns: t_tr, switching loss, leakage loss, total. The total is the
    bitwise sum of the two loss columns. No validity-window warnings here;
    sweeps are exploratory by design. An overflowing cell raises NumericHealthError.
    """
    t_min, t_max = require_positive(t_min, "t_min"), require_positive(t_max, "t_max")
    if not t_min < t_max:
        raise ContractError(f"need 0 < t_min < t_max, got ({t_min!r}, {t_max!r})")
    n = int(n_points)
    if n < 1:
        raise ContractError("n_points must be at least 1")
    grid = np.geomspace(t_min, t_max, n)
    e_sw, e_lk = _switching(p, grid), _leakage(p, grid)
    table = np.column_stack((grid, e_sw, e_lk, e_sw + e_lk))
    bad = np.argwhere(~np.isfinite(table))
    if bad.size:
        row, col = bad[0]
        name = ("t_tr", "e_sw", "e_lk", "e_diss")[col]
        raise NumericHealthError(
            f"sweep row {row + 1}, column {name} is not finite ({float(table[row, col])!r})"
        )
    return table
