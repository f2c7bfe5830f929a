"""Modulus families, smoothing, and scale selection."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nondini.modulus import (
    DiniClass,
    ModulusSpec,
    SmoothedModulus,
    classify_dini,
    select_x0,
)

from oracles import SMOOTHING_TOL, derivative_by_quadrature, value_by_quadrature

LN2 = math.log(2.0)
EPS_Q = 10 * SMOOTHING_TOL

LOG_INV = ModulusSpec("log_inverse")
POWER1 = ModulusSpec("power", gamma=1.0)
CONST01 = ModulusSpec("constant", c=0.1)


def log_inverse_grid(r_lo, n):
    return tuple((float(r), float(LN2 / -np.log(r))) for r in np.geomspace(r_lo, 0.9, n))


def builtin_cases():
    return [
        SmoothedModulus(LOG_INV),
        SmoothedModulus(POWER1),
        SmoothedModulus(ModulusSpec("power", gamma=0.5)),
        SmoothedModulus(CONST01),
    ]


def all_cases():
    # the tabulated grid starts at 1e-6, so the invariants also hold below it
    return builtin_cases() + [
        SmoothedModulus(ModulusSpec("tabulated", grid=log_inverse_grid(1e-6, 120)))]


# -- theta -----------------------------------------------------------


def test_eval_theta_log_inverse_values():
    assert LOG_INV.theta(0.5) == pytest.approx(1.0, abs=1e-15)
    assert LOG_INV.theta(1.0 / math.e) == pytest.approx(LN2, abs=1e-15)
    assert LOG_INV.theta(2.0 ** -10) == pytest.approx(0.1, abs=1e-15)


def test_eval_theta_power_identity():
    assert POWER1.theta(0.25) == 0.25


def test_eval_theta_domain_errors():
    with pytest.raises(ValueError):
        LOG_INV.theta(1.0)
    with pytest.raises(ValueError):
        LOG_INV.theta(-0.1)
    with pytest.raises(ValueError):
        POWER1.theta(3.0)
    tab = ModulusSpec("tabulated", grid=((0.01, 0.1), (0.5, 0.4)))
    with pytest.raises(ValueError):
        tab.theta(0.001)  # below the grid hull: no extrapolation
    assert tab.theta(0.02) == pytest.approx(np.interp(0.02, [0.01, 0.5], [0.1, 0.4]))


def test_tabulated_validation():
    with pytest.raises(ValueError):
        ModulusSpec("tabulated", grid=((0.1, 0.2),))
    with pytest.raises(ValueError):
        ModulusSpec("tabulated", grid=((0.1, 0.3), (0.2, 0.2)))  # not monotone
    with pytest.raises(ValueError):
        ModulusSpec("tabulated", grid=((0.2, 0.1), (0.1, 0.2)))  # abscissae decrease
    with pytest.raises(ValueError):
        ModulusSpec("nope")


# -- classify_dini --------------------------------------------------------


def test_classify_builtins():
    assert classify_dini(LOG_INV) is DiniClass.NON_DINI
    assert classify_dini(POWER1) is DiniClass.DINI
    assert classify_dini(CONST01) is DiniClass.NON_DINI


def test_classify_tabulated():
    # fast-decaying tabulated modulus: dyadic increments drop below tol
    grid = tuple((float(r), float(r)) for r in np.geomspace(1e-12, 0.99, 200))
    assert classify_dini(ModulusSpec("tabulated", grid=grid)) is DiniClass.DINI
    # constant-sampled modulus: partial sums blow through the threshold
    grid = tuple((float(r), 0.5) for r in np.geomspace(1e-40, 0.99, 200))
    assert classify_dini(ModulusSpec("tabulated", grid=grid)) is DiniClass.NON_DINI
    # slowly growing sums over a short grid: cannot decide either way
    grid = tuple((float(r), float(LN2 / -np.log(r))) for r in np.geomspace(1e-9, 0.9, 100))
    assert classify_dini(ModulusSpec("tabulated", grid=grid)) is DiniClass.INCONCLUSIVE


# -- smoothed modulus closed forms vs the nested-quadrature oracle ----------


def test_constant_smoothing_is_identity():
    sm = SmoothedModulus(CONST01)
    for r in (1e-6, 1e-3, 0.2):
        assert sm.value(r) == pytest.approx(0.1, abs=1e-15)
        assert sm.derivative(r) == 0.0


def test_power_closed_form():
    sm = SmoothedModulus(POWER1)
    assert sm.value(0.01) == pytest.approx(0.01 / LN2 ** 2, rel=1e-14)
    assert sm.value(0.01) == pytest.approx(0.020813689810056078, rel=1e-13)
    assert sm.derivative(0.03) == pytest.approx(1.0 / LN2 ** 2, rel=1e-14)


@pytest.mark.parametrize("r", [2.0 ** -20, 2.0 ** -10, 0.01, 0.1])
def test_closed_forms_match_nested_quadrature(r):
    for sm in builtin_cases():
        if r > sm.domain_hi / 2:
            continue
        assert sm.value(r) == pytest.approx(value_by_quadrature(sm, r), abs=EPS_Q)
        assert sm.derivative(r) == pytest.approx(derivative_by_quadrature(sm, r),
                                                 rel=1e-7, abs=EPS_Q)


def test_log_inverse_against_mpmath():
    # independent high-precision oracle for the log-inverse closed form
    mpmath.mp.dps = 30
    r = mpmath.mpf(2) ** -10

    def inner(t):
        return mpmath.quad(lambda s: mpmath.ln(2) / (-mpmath.ln(s) * s), [t, 2 * t])

    outer = mpmath.quad(lambda t: inner(t) / t, [r, 2 * r]) / mpmath.ln(2) ** 2
    sm = SmoothedModulus(LOG_INV)
    assert sm.value(2.0 ** -10) == pytest.approx(float(outer), rel=1e-12)


@pytest.mark.parametrize("sm", all_cases(), ids=lambda s: s.base.kind + str(s.base.gamma))
def test_scaled_forms_are_exact_rescalings(sm):
    # scaling by a power of two changes no bit while s t is a normal double
    t = np.geomspace(1e-6, sm.domain_hi * 0.999, 50)
    for e in (0, -1, -40, -900):
        s = 2.0 ** e
        assert np.array_equal(sm.scaled_value_vec(t, s), sm.value_vec(s * t))
        assert np.array_equal(sm.scaled_derivative_vec(t, s),
                              s * sm.derivative_vec(s * t))


def test_log_inverse_scaled_forms_at_the_floor():
    # at s t = 2^-1074 the log form still matches the double average
    # theta_tilde = (1/ln^2 2) int int ln2 / (a - al - be) dal dbe, a = ln(1/r),
    # and r theta_tilde'(r) is the same average of ln2 / (a - al - be)^2
    mpmath.mp.dps = 30
    ln2 = mpmath.ln(2)
    a = 1074 * ln2
    val = mpmath.quad(lambda al, be: ln2 / (a - al - be), [0, ln2], [0, ln2]) / ln2 ** 2
    slope = mpmath.quad(lambda al, be: ln2 / (a - al - be) ** 2,
                        [0, ln2], [0, ln2]) / ln2 ** 2
    sm = SmoothedModulus(LOG_INV)
    t, s = np.array([2.0 ** -54]), 2.0 ** -1020
    assert sm.scaled_value_vec(t, s)[0] == pytest.approx(float(val), rel=1e-13)
    assert sm.scaled_derivative_vec(t, s)[0] * t[0] == pytest.approx(float(slope), rel=1e-12)


def test_tabulated_smoothing_tracks_closed_form():
    tab = SmoothedModulus(ModulusSpec("tabulated", grid=log_inverse_grid(1e-9, 400)))
    ref = SmoothedModulus(LOG_INV)
    for r in (2.0 ** -10, 2.0 ** -6):
        assert tab.value(r) == pytest.approx(ref.value(r), rel=1e-4)
        assert tab.derivative(r) == pytest.approx(ref.derivative(r), rel=1e-3)
    # any input shape comes back in that shape, as for the builtin kinds
    rs = np.array([[2.0 ** -10, 2.0 ** -8], [2.0 ** -7, 2.0 ** -6]])
    for vec, scalar in ((tab.value_vec, tab.value),
                        (tab.derivative_vec, tab.derivative)):
        out = vec(rs)
        assert out.shape == (2, 2)
        assert out[1, 0] == scalar(2.0 ** -7)
        assert vec(np.array(2.0 ** -6)).shape == ()
        assert vec(np.array(2.0 ** -6)) == out[1, 1]


def tabulated_by_mpmath(grid, r):
    """(theta_tilde(r), theta_tilde'(r)) of np.interp's interpolant, by mpmath
    quadrature split at the grid points and at r, 2r and 4r."""
    mpmath.mp.dps = 30
    rs = [mpmath.mpf(p[0]) for p in grid]
    vs = [mpmath.mpf(p[1]) for p in grid]

    def theta(x):
        if x <= rs[0]:
            return vs[0]
        if x >= rs[-1]:
            return vs[-1]
        i = max(k for k in range(len(rs)) if rs[k] <= x)
        return vs[i] + (vs[i + 1] - vs[i]) * (x - rs[i]) / (rs[i + 1] - rs[i])

    def quad(fn, a, b):
        return mpmath.quad(fn, [a] + [x for x in rs if a < x < b] + [b])

    r = mpmath.mpf(r)
    ln2 = mpmath.ln(2)
    value = (quad(lambda s: theta(s) * mpmath.ln(s / r) / s, r, 2 * r)
             + quad(lambda s: theta(s) * mpmath.ln(4 * r / s) / s, 2 * r, 4 * r))
    slope = (quad(lambda s: theta(s) / s, 2 * r, 4 * r)
             - quad(lambda s: theta(s) / s, r, 2 * r))
    return float(value / ln2 ** 2), float(slope / (r * ln2 ** 2))


@pytest.mark.parametrize("grid, r", [
    (log_inverse_grid(1e-9, 400), 1.167e-2),
    # breakpoints exactly at r, 2r and 4r, and one inside each half
    (((0.01, 0.1), (0.0125, 0.12), (0.02, 0.15), (0.03, 0.2), (0.04, 0.3),
      (0.5, 0.4)), 0.01),
])
def test_tabulated_against_mpmath(grid, r):
    sm = SmoothedModulus(ModulusSpec("tabulated", grid=grid))
    value, slope = tabulated_by_mpmath(grid, r)
    assert sm.value(r) == pytest.approx(value, rel=1e-14)
    assert sm.derivative(r) == pytest.approx(slope, rel=1e-14)


def test_tabulated_holds_theta_beyond_the_grid():
    # theta_vec holds theta at 0.1 below r = 0.01, so theta_tilde = 0.1 and
    # theta_tilde' = 0 wherever [r, 4r] lies below the grid
    sm = SmoothedModulus(ModulusSpec("tabulated", grid=((0.01, 0.1), (0.5, 0.4))))
    rs = np.append(np.geomspace(1e-300, 0.0025, 200), [1e-3, 1e-6])
    assert np.all(sm.value_vec(rs) == 0.1)
    assert np.all(sm.derivative_vec(rs) == 0.0)
    # also where s t underflows to 0
    t, s = np.array([2.0 ** -60, 0.1]), 2.0 ** -1070
    assert np.all(sm.scaled_value_vec(t, s) == 0.1)
    assert np.all(sm.scaled_derivative_vec(t, s) == 0.0)
    # the sandwich theta(r) <= theta_tilde(r) <= theta(4r) across the grid's end
    rs = np.geomspace(1e-4, 0.1, 300)
    tt = sm.value_vec(rs)
    assert np.all(sm.base.theta_vec(rs) <= tt)
    assert np.all(tt <= sm.base.theta_vec(4.0 * rs) + 1e-15)
    assert 0.1 < sm.value(0.003) < sm.base.theta_vec(0.012)


def test_tabulated_selected_is_fast():
    import time

    sm = SmoothedModulus(ModulusSpec("tabulated", grid=log_inverse_grid(1e-9, 400)))
    start = time.perf_counter()
    sel = sm.selected(0.5)
    assert time.perf_counter() - start < 2.0
    assert sel.x0 == 2.0 ** -6


# -- sandwich / monotonicity / derivative-bound invariants -----------------


@pytest.mark.parametrize("sm", all_cases(), ids=lambda s: s.base.kind + str(s.base.gamma))
def test_sandwich_and_monotonicity(sm):
    x_star = select_x0(sm, 0.5)[1]
    rs = np.geomspace(1e-8, min(x_star / 4.0, sm.domain_hi * 0.999), 200)
    tt = sm.value_vec(rs)
    th = sm.base.theta_vec(rs)
    th4 = sm.base.theta_vec(4.0 * rs)
    assert np.all(th - EPS_Q <= tt)
    assert np.all(tt <= th4 + EPS_Q)
    assert np.all(np.diff(tt) >= -EPS_Q)


@pytest.mark.parametrize("sm", all_cases(), ids=lambda s: s.base.kind + str(s.base.gamma))
def test_derivative_bound(sm):
    x_star = select_x0(sm, 0.5)[1]
    rs = np.geomspace(1e-8, x_star / 4.0, 120)
    d = sm.derivative_vec(rs)
    assert np.all(d >= -EPS_Q)
    assert np.all(d <= 1.0 / (rs * LN2) + EPS_Q)


@pytest.mark.parametrize("r", [1e-6, 1e-3, 0.01])
def test_derivative_finite_difference(r):
    for sm in builtin_cases():
        h = 1e-5 * r
        fd = (sm.value(r + h) - sm.value(r - h)) / (2.0 * h)
        # C h + eps_q / h with a generous curvature constant
        tol = 1e3 * h / r + EPS_Q / h
        assert abs(sm.derivative(r) - fd) <= max(tol, 1e-9 * abs(fd))


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=1e-10, max_value=0.05), st.floats(min_value=1.01, max_value=4.0))
def test_sandwich_property_log_inverse(r, mult):
    sm = SmoothedModulus(LOG_INV)
    r2 = min(r * mult, 0.05)
    v1, v2 = sm.value(r), sm.value(r2)
    assert sm.base.theta(r) - EPS_Q <= v1 <= sm.base.theta(4 * r) + EPS_Q
    assert v1 <= v2 + EPS_Q


# -- select_x0 -------------------------------------------------------------


def test_select_x0_constant():
    sm = SmoothedModulus(CONST01)
    x0, x_star = select_x0(sm, 0.5)
    assert x_star == 0.5
    assert x0 == 2.0 ** -4  # largest dyadic strictly below 1/8


def test_select_x0_log_inverse():
    sm = SmoothedModulus(LOG_INV)
    x0, x_star = select_x0(sm, 0.5)
    assert x0 == 2.0 ** -6
    assert 0.125 < x_star < 0.25
    # returned x_star is the theta_tilde = 1 crossing
    assert sm.value(x_star * (1 - 1e-9)) < 1.0 <= sm.value(min(x_star * (1 + 1e-9), x_star + 1e-9))


def test_select_x0_power_crossing():
    sm = SmoothedModulus(POWER1)
    x0, x_star = select_x0(sm, 0.5)
    assert x_star == pytest.approx(LN2 ** 2, rel=1e-10)  # r / ln^2 2 = 1
    assert x0 == 2.0 ** -5  # theta(8 * 2^-4) = 1/2 fails the beta bound


def test_select_x0_zero_modulus_cap():
    sm = SmoothedModulus(ModulusSpec("tabulated", grid=((1e-8, 0.0), (0.5, 0.0))))
    x0, x_star = select_x0(sm, 0.5)
    assert (x0, x_star) == (2.0 ** -4, 0.5)


def test_select_x0_constraints_hold():
    for sm in builtin_cases():
        x0, x_star = select_x0(sm, 0.5)
        assert 0.0 < x0 < x_star / 4.0
        assert sm.value(x0) < 0.5
        assert sm.base.theta(8.0 * x0) <= 0.5 * LN2


def test_select_x0_failure():
    sm = SmoothedModulus(ModulusSpec("constant", c=0.5))
    with pytest.raises(ValueError):
        select_x0(sm, 0.9)


def test_selected_copies():
    sm = SmoothedModulus(LOG_INV).selected(0.5)
    assert sm.x0 == 2.0 ** -6 and sm.x_star is not None
