"""Every real scalar input of the library passes one of two rules in errors:
require_nonnegative (finite and >= 0) or require_positive (finite and > 0).

One row per (callable, scalar parameter). Each row is refused with
ContractError at nan, +inf and its first value out of range (-1 for a
nonnegative rule, 0 for a positive one), at -inf in the rule's own words,
and it accepts its valid edge values, the smallest float 5e-324 among them
where the other arguments let it through.
"""

import math
import warnings

import numpy as np
import pytest

from revtherm import adiabatic, channels, errors, gksl, qstate, resource
from revtherm.errors import ContractError

QUBIT = qstate.Hamiltonian(np.diag([0.0, 1.0]))
CTX = qstate.ThermoContext(QUBIT, 1.0)
RHO, RHO_2 = np.diag([0.7, 0.3]), np.diag([0.4, 0.6])
SMINUS = np.array([[0, 1], [0, 0]], dtype=complex)
# dephasing of a diagonal Hamiltonian: the populations' eigenvalues are exactly 0
DEPHASING = gksl.Lindbladian(QUBIT, ((np.diag([1.0, -1.0]), 0.25),))
DAMPING = gksl.Lindbladian(qstate.Hamiltonian(np.zeros((2, 2))), ((SMINUS, 0.8),))
# tiny enough that a transition time of 5e-324 gives finite losses
TINY = adiabatic.AdiabaticParams(1e-300, 1e-300, 1.0)


def params(**fields):
    return adiabatic.AdiabaticParams(**{"e_sig": 1.0, "tau_r": 1e-310, "tau_e": 1e-300, **fields})


NONNEGATIVE, POSITIVE = ">= 0", "> 0"
# name: (rule, call taking the scalar, valid edge values)
ROWS = {
    "errors.require_nonnegative": (
        NONNEGATIVE, lambda x: errors.require_nonnegative(x, "value"), (0.0, 5e-324)
    ),
    "errors.require_positive": (POSITIVE, lambda x: errors.require_positive(x, "value"), (5e-324,)),
    "gksl.Lindbladian.rate": (
        NONNEGATIVE, lambda x: gksl.Lindbladian(QUBIT, ((SMINUS, x),)), (0.0, 5e-324)
    ),
    "gksl.cesaro_projector.horizon": (
        POSITIVE, lambda x: gksl.cesaro_projector(DAMPING, x, 4), (5e-324,)
    ),
    "gksl.cesaro_distance.horizon": (
        POSITIVE, lambda x: gksl.cesaro_distance(DAMPING, x, 4), (5e-324,)
    ),
    "gksl.decompose.tol": (POSITIVE, lambda x: gksl.decompose(DEPHASING, x), (5e-324,)),
    "adiabatic.AdiabaticParams.e_sig": (POSITIVE, lambda x: params(e_sig=x), (5e-324,)),
    "adiabatic.AdiabaticParams.tau_r": (POSITIVE, lambda x: params(tau_r=x), (5e-324,)),
    # tau_e must stay above tau_r, here the smallest float
    "adiabatic.AdiabaticParams.tau_e": (
        POSITIVE, lambda x: params(tau_r=5e-324, tau_e=x), (1e-323,)
    ),
    "adiabatic.AdiabaticParams.c_sw": (POSITIVE, lambda x: params(c_sw=x), (5e-324,)),
    # tau_e / c_lk stays in range
    "adiabatic.AdiabaticParams.c_lk": (POSITIVE, lambda x: params(c_lk=x), (5e-324,)),
    "adiabatic.e_diss.t_tr": (POSITIVE, lambda x: adiabatic.e_diss(TINY, x), (5e-324,)),
    "adiabatic.sweep.t_min": (POSITIVE, lambda x: adiabatic.sweep(TINY, x, 1.0, 3), (5e-324,)),
    # t_max must stay above t_min, here the smallest float
    "adiabatic.sweep.t_max": (
        POSITIVE, lambda x: adiabatic.sweep(TINY, 5e-324, x, 3), (1e-323,)
    ),
    "channels.jensen_heat_bound.mgf_value": (
        POSITIVE, lambda x: channels.jensen_heat_bound(x, 1.0), (5e-324,)
    ),
    "resource.cto_feasible_general.qmi_budget": (
        NONNEGATIVE, lambda x: resource.cto_feasible_general(RHO, RHO_2, CTX, x), (0.0, 5e-324)
    ),
    "resource.compute_reset_cycle_verdict.qmi_per_step": (
        NONNEGATIVE,
        lambda x: resource.compute_reset_cycle_verdict(RHO, RHO_2, CTX, x),
        (0.0, 5e-324),
    ),
}

BAD = [(name, label) for name in ROWS for label in ("nan", "inf", "out-of-range")]


def bad_value(rule, label):
    return {"nan": math.nan, "inf": math.inf}.get(label, -1.0 if rule == NONNEGATIVE else 0.0)


@pytest.mark.parametrize("name,label", BAD, ids=[f"{n}-{v}" for n, v in BAD])
def test_bad_value_is_refused(name, label):
    rule, call, _ = ROWS[name]
    with pytest.raises(ContractError):
        call(bad_value(rule, label))


@pytest.mark.parametrize("name", sorted(ROWS))
def test_refusal_is_worded_by_the_rule(name):
    rule, call, _ = ROWS[name]
    with pytest.raises(ContractError, match=f"must be finite and {rule}, got -inf$"):
        call(-math.inf)


@pytest.mark.parametrize("name", sorted(ROWS))
def test_valid_edge_passes(name):
    _, call, edges = ROWS[name]
    with warnings.catch_warnings():
        # the adiabatic model-window warning is not the contract
        warnings.simplefilter("ignore", RuntimeWarning)
        for x in edges:
            call(x)
