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

LN2 = math.log(2.0)
EPS_Q = 10 * 1e-10  # 10 * default quad_tol

LOG_INV = ModulusSpec("log_inverse")
POWER1 = ModulusSpec("power", gamma=1.0)
CONST01 = ModulusSpec("constant", c=0.1)


def builtin_cases():
    return [
        SmoothedModulus(LOG_INV),
        SmoothedModulus(POWER1),
        SmoothedModulus(ModulusSpec("power", gamma=0.5)),
        SmoothedModulus(CONST01),
    ]


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
        assert sm.value(r) == pytest.approx(sm.value_by_quadrature(r), abs=EPS_Q)
        assert sm.derivative(r) == pytest.approx(sm.derivative_by_quadrature(r),
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


def test_tabulated_smoothing_tracks_closed_form():
    grid = tuple((float(r), float(LN2 / -np.log(r))) for r in np.geomspace(1e-9, 0.9, 400))
    tab = SmoothedModulus(ModulusSpec("tabulated", grid=grid))
    ref = SmoothedModulus(LOG_INV)
    for r in (2.0 ** -10, 2.0 ** -6):
        assert tab.value(r) == pytest.approx(ref.value(r), rel=1e-4)
        assert tab.derivative(r) == pytest.approx(ref.derivative(r), rel=1e-3)


# -- sandwich / monotonicity / derivative-bound invariants -----------------


@pytest.mark.parametrize("sm", builtin_cases(), ids=lambda s: s.base.kind + str(s.base.gamma))
def test_sandwich_and_monotonicity(sm):
    x_star = select_x0(sm, 0.5)[1]
    rs = np.geomspace(1e-8, min(x_star / 4.0, sm.domain_hi * 0.999), 200)
    tt = sm.value_vec(rs)
    th = sm.base.theta_vec(rs)
    th4 = sm.base.theta_vec(4.0 * rs)
    assert np.all(th - EPS_Q <= tt)
    assert np.all(tt <= th4 + EPS_Q)
    assert np.all(np.diff(tt) >= -EPS_Q)


@pytest.mark.parametrize("sm", builtin_cases(), ids=lambda s: s.base.kind + str(s.base.gamma))
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
