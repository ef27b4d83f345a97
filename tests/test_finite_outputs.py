"""Every public callable of qstate, resource and adiabatic returns only finite
numbers or refuses with ContractError or NumericHealthError, at the edges of
its valid inputs: inverse temperatures from 5e-324 to 1e3 against energies
spread over 2e3, alpha from -1,000 to 1e300, states a hair from pure, and
inputs near the float range.

The rows are keyed by each module's __all__, as tests/test_surface.py reads
the surface, so a public callable added without a row fails
test_every_callable_has_a_row. A row also states which outcome it has, so
that a refusal cannot stand in for a finite answer unnoticed.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from revtherm import adiabatic, qstate, resource
from revtherm.errors import ContractError, NumericHealthError

from helpers import random_density, random_distribution, random_hermitian, random_unitary, rng

MODULES = (qstate, resource, adiabatic)

GEN = rng(2718)
D = 4
ENERGIES = np.sort(GEN.uniform(-1e3, 1e3, D))
WIDE = qstate.Hamiltonian(np.diag(ENERGIES))
# beta * (E_max - E_min) ~ 1e6: every Gibbs weight but the ground one underflows
COLD = qstate.ThermoContext(WIDE, 1e3)
# T = 1e300 on a dense Hamiltonian
HOT = qstate.ThermoContext(qstate.Hamiltonian(random_hermitian(GEN, D) * 1e3), 1e-300)
# a pure state plus 1e-13 of the maximally mixed one
NEAR_PURE = (1.0 - 1e-13) * random_density(GEN, D, rank=1) + 1e-13 * np.eye(D) / D
# full rank, its least eigenvalue 1e-11: just above the support tolerance
SKEWED = np.diag([1.0 - 3e-11, 1e-11, 1e-11, 1e-11])
MIXED, MIXED_2 = random_density(GEN, D), random_density(GEN, D)
P, Q = random_distribution(GEN, D), random_distribution(GEN, D)
DIAG, DIAG_2 = np.diag(P), np.diag(Q)
# a pure state commuting with WIDE: its kernel is a pole of every order alpha < 0
KERNEL = np.diag([1.0, 0.0, 0.0, 0.0])
HUGE = random_hermitian(GEN, D) * 1e300
U = random_unitary(GEN, D)

FINITE = "finite"
ROWS = {
    "qstate.Hamiltonian": (FINITE, lambda: qstate.Hamiltonian(HUGE)),
    "qstate.ThermoContext": (FINITE, lambda: qstate.ThermoContext(WIDE, 5e-324)),
    "qstate.check_density_matrix": (FINITE, lambda: qstate.check_density_matrix(NEAR_PURE)),
    "qstate.require_state": (FINITE, lambda: qstate.require_state(NEAR_PURE, D)),
    "qstate.require_distribution": (
        FINITE, lambda: qstate.require_distribution([0.5 + 1e-13, 0.5, 1e-300, -1e-13])
    ),
    "qstate.require_unitary": (FINITE, lambda: qstate.require_unitary(U, D)),
    "qstate.require_nonnegative": (FINITE, lambda: qstate.require_nonnegative(5e-324, "beta")),
    "qstate.gibbs_state": (FINITE, lambda: qstate.gibbs_state(COLD)),
    "qstate.log_partition_function": (FINITE, lambda: qstate.log_partition_function(COLD)),
    "qstate.evolve_unitary": (FINITE, lambda: qstate.evolve_unitary(NEAR_PURE, U)),
    "qstate.shannon_entropy": (
        FINITE, lambda: qstate.shannon_entropy([1.0 - 2e-300, 1e-300, 1e-300])
    ),
    "qstate.von_neumann_entropy": (FINITE, lambda: qstate.von_neumann_entropy(NEAR_PURE)),
    "qstate.relative_entropy": (FINITE, lambda: qstate.relative_entropy(NEAR_PURE, SKEWED)),
    "qstate.alpha_rre": (FINITE, lambda: qstate.alpha_rre(NEAR_PURE, SKEWED, 1e300)),
    "qstate.helmholtz_free_energy": (FINITE, lambda: qstate.helmholtz_free_energy(MIXED, HOT)),
    # D_alpha(rho || tau) = +inf on rho's own kernel at alpha < 0
    "qstate.alpha_free_energy": (
        NumericHealthError, lambda: qstate.alpha_free_energy(KERNEL, COLD, -1000.0)
    ),
    "qstate.quantum_mutual_information": (
        FINITE, lambda: qstate.quantum_mutual_information(NEAR_PURE, (2, 2))
    ),
    "resource.beta_order": (FINITE, lambda: resource.beta_order(P, ENERGIES, 1e3)),
    "resource.ThermomajorizationCurve": (
        FINITE, lambda: resource.ThermomajorizationCurve(((0, 0), (1e308, 0.5), (1.7e308, 1.0)))
    ),
    "resource.thermomaj_curve": (
        NumericHealthError, lambda: resource.thermomaj_curve(P, ENERGIES, 1e3, "standard")
    ),
    # weights up to e^700 ~ 1e304, whose sum stays in range
    "resource.thermomaj_feasible": (
        FINITE, lambda: resource.thermomaj_feasible(P, Q, ENERGIES, 0.7)
    ),
    # the margin, 2e308, is refused on its own
    "resource.CtoVerdict": (FINITE, lambda: resource.CtoVerdict(1e308, -1e308, 0.0)),
    "resource.cto_feasible_general": (
        FINITE, lambda: resource.cto_feasible_general(MIXED, MIXED_2, HOT, 1e-3)
    ),
    # both free energies +inf at alpha = -1000, whose margin inf - inf is nan
    "resource.second_laws_check": (
        NumericHealthError,
        lambda: resource.second_laws_check(KERNEL, KERNEL, COLD, (0.5, 2.0, 1e300, -1000.0)),
    ),
    "resource.compute_reset_cycle_verdict": (
        FINITE, lambda: resource.compute_reset_cycle_verdict(MIXED, MIXED_2, HOT, 1e-3)
    ),
    "adiabatic.AdiabaticParams": (FINITE, lambda: adiabatic.AdiabaticParams(1e300, 1e-300, 1e300)),
    "adiabatic.e_diss": (
        NumericHealthError,
        lambda: adiabatic.e_diss(adiabatic.AdiabaticParams(1e300, 1, 1e10), 1e-10),
    ),
    "adiabatic.optimal_ttr": (
        NumericHealthError,
        lambda: adiabatic.optimal_ttr(adiabatic.AdiabaticParams(1, 1e200, 1e300)),
    ),
    # 2 e_sig alone would overflow; the floor itself is 1.41e308
    "adiabatic.min_e_diss": (
        FINITE, lambda: adiabatic.min_e_diss(adiabatic.AdiabaticParams(1e308, 0.5, 1.0))
    ),
    "adiabatic.efficiency_bound": (
        FINITE,
        lambda: adiabatic.efficiency_bound(adiabatic.AdiabaticParams(1, 1e-300, 1e300), 1e308),
    ),
    "adiabatic.sweep": (
        NumericHealthError,
        lambda: adiabatic.sweep(adiabatic.AdiabaticParams(1e300, 1, 1e10), 1e-10, 1e12, 5),
    ),
}


def numbers(value):
    """Every float in a result: scalars, array cells (complex ones as two),
    and the fields and properties of a dataclass. A property that refuses
    is a refused output, and gives none."""
    if isinstance(value, (bool, int, str)):
        return []
    if isinstance(value, (float, np.floating)):
        return [float(value)]
    if isinstance(value, np.ndarray):
        return np.asarray(value, dtype=complex).view(float).ravel().tolist()
    if isinstance(value, dict):
        return [x for k, v in value.items() for x in numbers(k) + numbers(v)]
    if isinstance(value, (list, tuple)):
        return [x for v in value for x in numbers(v)]
    assert dataclasses.is_dataclass(value), type(value)
    found = [x for f in dataclasses.fields(value) for x in numbers(getattr(value, f.name))]
    for name, attr in vars(type(value)).items():
        if isinstance(attr, property):
            try:
                found += numbers(getattr(value, name))
            except (ContractError, NumericHealthError):
                pass
    return found


@pytest.mark.parametrize("alpha,limit", [(1e308, 24.738720540757246), (-1e308, 11.631738221077114)])
def test_alpha_rre_at_the_float_range_is_its_limit(alpha, limit):
    # the general route reads at |alpha| = 1e308 as at 1e300, the limit given:
    # no term of the sum, and no core exponent, leaves the float range
    at_1e300 = qstate.alpha_rre(NEAR_PURE, SKEWED, math.copysign(1e300, alpha))
    assert at_1e300 == pytest.approx(limit, rel=1e-15)
    assert qstate.alpha_rre(NEAR_PURE, SKEWED, alpha) == pytest.approx(limit, rel=1e-12)


def test_every_callable_has_a_row():
    surface = {
        f"{mod.__name__.split('.')[-1]}.{name}"
        for mod in MODULES
        for name in mod.__all__
        if callable(getattr(mod, name))
    }
    assert sorted(surface - set(ROWS)) == []
    assert sorted(set(ROWS) - surface) == []


@pytest.mark.parametrize("name", sorted(ROWS))
def test_output_is_finite_or_refused(name):
    expect, call = ROWS[name]
    with warnings.catch_warnings():
        # numpy's overflow and the model-window warnings are not the contract
        warnings.simplefilter("ignore")
        if expect is FINITE:
            values = numbers(call())
            assert all(math.isfinite(x) for x in values), values
        else:
            with pytest.raises(expect):
                call()
