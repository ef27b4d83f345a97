import math
import warnings

import numpy as np
import pytest

from revtherm import adiabatic
from revtherm.errors import ContractError, NumericHealthError


def params(**kw):
    base = dict(e_sig=1.0, tau_r=0.01, tau_e=10000.0)
    base.update(kw)
    return adiabatic.AdiabaticParams(**base)


def losses(p, t):
    """(switching, leakage) at t: the loss columns of sweep's one-point grid."""
    return tuple(adiabatic.sweep(p, t, 2.0 * t, 1)[0, 1:3])


class TestParams:
    def test_positivity(self):
        for field in ("e_sig", "tau_r", "tau_e", "c_sw", "c_lk"):
            with pytest.raises(ContractError):
                params(**{field: 0.0})
            with pytest.raises(ContractError):
                params(**{field: -1.0})

    def test_adjusted_ordering_enforced(self):
        # raw ordering fine, but c_sw * tau_r crosses tau_e / c_lk
        with pytest.raises(ContractError):
            adiabatic.AdiabaticParams(e_sig=1.0, tau_r=1.0, tau_e=10.0, c_sw=20.0)
        with pytest.raises(ContractError):
            adiabatic.AdiabaticParams(e_sig=1.0, tau_r=1.0, tau_e=10.0, c_lk=20.0)

    def test_adjusted_timescales(self):
        p = params(c_sw=3.0, c_lk=2.0)
        assert p.tau_r_adj == pytest.approx(0.03)
        assert p.tau_e_adj == pytest.approx(5000.0)


class TestLosses:
    def test_frozen_values(self):
        p = params()
        assert losses(p, 1.0) == pytest.approx((0.01, 1e-4))
        assert adiabatic.e_diss(p, 1.0) == pytest.approx(0.0101)

    def test_scaling_in_t(self):
        p = params()
        (sw1, lk1), (sw2, lk2) = losses(p, 1.0), losses(p, 2.0)
        assert sw2 == pytest.approx(sw1 / 2.0)
        assert lk2 == pytest.approx(2.0 * lk1)

    def test_device_constants_enter_through_adjusted_times(self):
        p = params(c_sw=4.0, c_lk=5.0)
        assert losses(p, 1.0) == pytest.approx((0.04, 5e-4))

    def test_window_warning(self):
        p = params()
        with pytest.warns(RuntimeWarning):
            adiabatic.e_diss(p, 0.001)  # below tau_r
        with pytest.warns(RuntimeWarning):
            adiabatic.e_diss(p, 1e6)  # above tau_e
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            adiabatic.e_diss(p, 1.0)  # inside: silent

    def test_nonpositive_time_rejected(self):
        with pytest.raises(ContractError):
            adiabatic.e_diss(params(), 0.0)
        with pytest.raises(ContractError):
            adiabatic.e_diss(params(), float("nan"))


class TestOptimum:
    def test_geometric_mean(self):
        p = params()
        assert adiabatic.optimal_ttr(p) == pytest.approx(10.0)
        assert adiabatic.min_e_diss(p) == pytest.approx(0.002)

    def test_optimum_out_of_float_range_raises(self):
        for tau_r, tau_e in ((1e200, 1e300), (1e-200, 1e-190)):
            with pytest.raises(NumericHealthError):
                adiabatic.optimal_ttr(params(tau_r=tau_r, tau_e=tau_e))

    def test_optimum_balances_the_losses(self):
        p = params(e_sig=2.5, tau_r=0.3, tau_e=700.0, c_sw=1.2, c_lk=0.8)
        t = adiabatic.optimal_ttr(p)
        switching, leakage = losses(p, t)
        assert switching == pytest.approx(leakage)
        assert adiabatic.e_diss(p, t) == pytest.approx(adiabatic.min_e_diss(p))

    def test_optimum_is_a_minimum(self):
        p = params()
        t = adiabatic.optimal_ttr(p)
        for factor in (0.5, 0.9, 1.1, 2.0):
            assert adiabatic.e_diss(p, t * factor) > adiabatic.min_e_diss(p)

    def test_quadratic_cost_of_efficiency(self):
        # halving the floor needs a 4x larger timescale ratio
        p1 = params(tau_e=10000.0)
        p2 = params(tau_e=40000.0)
        assert adiabatic.min_e_diss(p1) == pytest.approx(2.0 * adiabatic.min_e_diss(p2))


class TestEfficiencyBound:
    def test_frozen_value(self):
        assert adiabatic.efficiency_bound(params(), 1.0) == pytest.approx(0.999)

    def test_uses_raw_timescales(self):
        # device constants must not move the bound
        assert adiabatic.efficiency_bound(
            params(c_sw=7.0, c_lk=3.0), 1.0
        ) == pytest.approx(0.999)

    def test_regime_warning(self):
        with pytest.warns(RuntimeWarning):
            adiabatic.efficiency_bound(
                adiabatic.AdiabaticParams(e_sig=1.0, tau_r=1.0, tau_e=5.0), 1.0
            )

    def test_constant_scales_the_deficit(self):
        p = params()
        d1 = 1.0 - adiabatic.efficiency_bound(p, 1.0)
        d3 = 1.0 - adiabatic.efficiency_bound(p, 3.0)
        assert d3 == pytest.approx(3.0 * d1)


class TestSweep:
    def test_shape_and_columns(self):
        p = params()
        table = adiabatic.sweep(p, 0.001, 100000.0, 50)
        assert table.shape == (50, 4)
        assert table[0, 0] == pytest.approx(0.001)
        assert table[-1, 0] == pytest.approx(100000.0)
        np.testing.assert_allclose(table[:, 3], table[:, 1] + table[:, 2])
        # grid is log-spaced: constant ratio between consecutive points
        ratios = table[1:, 0] / table[:-1, 0]
        np.testing.assert_allclose(ratios, ratios[0])

    def test_rows_match_pointwise_model(self):
        p = params(e_sig=3.0, c_sw=2.0)
        table = adiabatic.sweep(p, 0.1, 10.0, 7)
        for t, sw, lk, tot in table:
            assert sw == pytest.approx(p.e_sig * p.tau_r_adj / t)
            assert lk == pytest.approx(p.e_sig * t / p.tau_e_adj)
            assert tot == pytest.approx(adiabatic.e_diss(p, t))

    def test_sweep_never_warns(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            adiabatic.sweep(params(), 1e-6, 1e9, 40)  # far outside the window

    def test_grid_validation(self):
        with pytest.raises(ContractError):
            adiabatic.sweep(params(), 1.0, 1.0, 5)
        with pytest.raises(ContractError):
            adiabatic.sweep(params(), -1.0, 1.0, 5)
        with pytest.raises(ContractError):
            adiabatic.sweep(params(), 0.1, 1.0, 0)

    def test_overflowing_cell_is_refused(self):
        # e_lk = e_sig t / tau_e' passes the float range at the last point;
        # e_sw is finite there, so the first bad cell is e_lk, not e_diss
        p = params(e_sig=1e300)
        with np.errstate(over="ignore"), pytest.raises(NumericHealthError) as info:
            adiabatic.sweep(p, 1.0, 1e12, 3)
        assert str(info.value) == "sweep row 3, column e_lk is not finite (inf)"

    def test_single_point_grid(self):
        table = adiabatic.sweep(params(), 1.0, 2.0, 1)
        assert table.shape == (1, 4)
        assert table[0, 0] == pytest.approx(1.0)
