"""Bridge spline, Htilde, and tangent-angle profiles."""

import math

import numpy as np
import pytest

from nondini.modulus import ModulusSpec, SmoothedModulus
from nondini.profile import (
    BridgeSpline,
    build_bridge,
    build_profile,
    htilde_vec,
    modulus_at_origin,
)

from oracles import f_per_jump

LN2 = math.log(2.0)


@pytest.fixture(scope="module")
def sm_log():
    return SmoothedModulus(ModulusSpec("log_inverse")).selected(0.5)


@pytest.fixture(scope="module")
def bridge_log(sm_log):
    return build_bridge(sm_log)


@pytest.fixture(scope="module")
def profile_c1(sm_log, bridge_log):
    return build_profile("c1", sm=sm_log, bridge=bridge_log)


@pytest.fixture(scope="module")
def profile_lip():
    return build_profile("lipschitz")


# -- bridge ----------------------------------------------------------------


def test_bridge_plain_interpolation():
    b = BridgeSpline.from_endpoints(0.1, 0.5, 0.3, 0.0)
    assert 0.3 < b.value(0.3) < 1.0
    assert b.value(0.1) == pytest.approx(0.3, rel=1e-12)
    assert b.value(0.5) == pytest.approx(1.0, rel=1e-12)


def test_bridge_endpoint_conditions(bridge_log, sm_log):
    b = bridge_log
    assert b.value(b.x0) == pytest.approx(sm_log.value(sm_log.x0), rel=1e-12)
    assert b.value(b.x_star) == pytest.approx(1.0, rel=1e-12)
    assert b.slope(b.x0) == pytest.approx(sm_log.derivative(sm_log.x0), rel=1e-12)
    assert abs(b.slope(b.x_star * (1 - 1e-13))) <= 1e-9


def test_bridge_monotone_on_grid(bridge_log):
    xs = np.linspace(bridge_log.x0, bridge_log.x_star, 1001)
    assert np.all(bridge_log.slope_vec(xs) >= -1e-13)
    assert bridge_log.g_lip > 0.0
    assert bridge_log.g_lip >= bridge_log.slope_vec(xs).max() - 1e-13


def test_bridge_steep_start_case():
    # v0 = ln 2, d0 = e ln 2 at x0 = 1/e, x_star = 1/2: single monotone cubic
    x0 = 1.0 / math.e
    d0 = math.e * LN2
    assert d0 == pytest.approx(2.0 ** (1.0 / LN2) * LN2, rel=1e-12)
    b = BridgeSpline.from_endpoints(x0, 0.5, LN2, d0)
    assert b.value(x0) == pytest.approx(LN2, rel=1e-12)
    assert b.slope(x0) == pytest.approx(d0, rel=1e-12)
    xs = np.linspace(x0, 0.5, 1001)
    assert np.all(b.slope_vec(xs) >= -1e-12)


def test_bridge_midpoint_insertion():
    # d0 between 3*Delta and 6*Delta: needs the midpoint knot, stays monotone
    b = BridgeSpline.from_endpoints(0.0, 1.0, 0.0, 4.0)
    assert len(b.knots) == 3
    xs = np.linspace(0.0, 1.0, 2001)
    assert np.all(b.slope_vec(xs) >= -1e-12)
    assert b.value(0.0) == pytest.approx(0.0, abs=1e-15)
    assert b.slope(0.0) == pytest.approx(4.0, rel=1e-12)
    assert b.value(1.0) == pytest.approx(1.0, rel=1e-12)


def test_bridge_infeasible():
    with pytest.raises(ValueError):
        BridgeSpline.from_endpoints(0.0, 1.0, 0.0, 6.5)  # d0 h >= 6 (1 - v0)
    with pytest.raises(ValueError):
        BridgeSpline.from_endpoints(0.1, 0.100001, 0.9999999, 5.0)


# -- Htilde ----------------------------------------------------------------


def test_htilde_regions(sm_log, bridge_log):
    left, right, v = htilde_vec(sm_log, bridge_log,
                                [-1.0, bridge_log.x_star + 1.0, sm_log.x0])
    assert left == 0.0
    assert right == 1.0
    assert v == pytest.approx(sm_log.value(sm_log.x0), rel=1e-12)


def test_htilde_continuity_and_monotonicity(sm_log, bridge_log):
    x0, xs_ = sm_log.x0, sm_log.x_star
    # at 0 the rise is only modulus-continuous; at the interior knots it is C1
    h = 1e-12
    assert abs(htilde_vec(sm_log, bridge_log, [h])[0] - 0.0) <= sm_log.value(h)
    for knot in (x0, xs_):
        lo, hi = htilde_vec(sm_log, bridge_log, [knot - h, knot + h])
        assert abs(hi - lo) < 1e-9
    grid = np.concatenate([np.linspace(-0.5, 0.6, 801),
                           np.geomspace(1e-10, x0, 100)])
    vals = htilde_vec(sm_log, bridge_log, np.sort(grid))
    assert np.all(np.diff(vals) >= -1e-12)
    assert np.all((vals >= 0.0) & (vals <= 1.0))


def test_modulus_at_origin(sm_log, bridge_log):
    r = 2.0 ** -9
    v = modulus_at_origin(sm_log, bridge_log, r)
    assert sm_log.base.theta(r) <= v <= sm_log.base.theta(4 * r)
    pw = SmoothedModulus(ModulusSpec("power", gamma=1.0)).selected(0.5)
    bpw = build_bridge(pw)
    assert modulus_at_origin(pw, bpw, 0.01) == pytest.approx(0.020813689810056078, rel=1e-12)
    ct = SmoothedModulus(ModulusSpec("constant", c=0.1)).selected(0.5)
    bct = build_bridge(ct)
    assert modulus_at_origin(ct, bct, 0.001) == pytest.approx(0.1, abs=1e-15)


# -- profile ---------------------------------------------------------------


def test_profile_lipschitz_single_step():
    p = build_profile("lipschitz", jumps=[0.0], amps=[1.0], c_prime_target=1.0)
    assert p.f(1.0) == pytest.approx(1.0, abs=1e-15)
    assert p.f(-1e-12) == 0.0
    assert p.f(0.0) == pytest.approx(1.0)  # right-continuous step


def test_profile_c1_values(profile_c1):
    p = profile_c1
    assert p.c_prime == pytest.approx(math.pi / 4.0, rel=1e-15)
    assert p.f(-0.5) == 0.0
    assert p.f(3.0) == pytest.approx(math.pi / 4.0, rel=1e-14)
    assert p.f(2.0) == pytest.approx(math.pi / 4.0, rel=1e-14)


def test_profile_monotone_and_bounded(profile_c1):
    xs = np.sort(np.concatenate([np.linspace(-1.5, 2.5, 1501),
                                 np.geomspace(1e-8, 1.0, 300)]))
    vals = profile_c1.f_vec(xs)
    assert np.all(np.diff(vals) >= -1e-13)
    assert np.all((vals >= 0.0) & (vals <= profile_c1.c_prime + 1e-15))


def test_profile_flat_outside(profile_c1):
    # exactly constant left of 0 and right of 2
    assert profile_c1.f(-1e-9) == 0.0
    assert profile_c1.f(-5.0) == 0.0
    assert profile_c1.f(2.0) == profile_c1.f(3.0) == profile_c1.f(10.0)


def test_profile_continuity_at_jumps(profile_c1, sm_log):
    p = profile_c1
    lip = sum(ak for ak in p.a) * p.c * max(p.sm.derivative(p.sm.x0), p.bridge.g_lip)
    for k in (0, 3, 7):
        xk, ak = p.x[k], p.a[k]
        for h in (1e-7, 1e-5, 1e-3):
            if h > p.delta(k) / 2:
                continue
            jump = abs(p.f(xk + h) - p.f(xk))
            assert jump <= p.c * ak * sm_log.value(h) + lip * h + 1e-14


def test_profile_fprime_matches_fd(profile_c1):
    rng = np.random.default_rng(7)
    xs = rng.uniform(0.002, 0.4, 40)
    # keep clear of the jump set so the analytic derivative is smooth
    xs = np.array([x for x in xs if min(abs(x - xk) for xk in profile_c1.x) > 1e-3])
    h = 1e-7
    fd = (profile_c1.f_vec(xs + h) - profile_c1.f_vec(xs - h)) / (2 * h)
    an = profile_c1.fprime_vec(xs)
    assert np.max(np.abs(fd - an)) < 1e-5


def test_f_vec_is_the_per_jump_sum(profile_c1, profile_lip):
    # one kernel pass over the (jumps x points) matrix, summed in ascending
    # k, is bit for bit one pass per jump (htilde in c1 mode, the step
    # xs >= x_k in Lipschitz mode); 70,000 points take the path that splits
    # the points into blocks, the rest the one that groups the jumps
    for p in (profile_c1, profile_lip):
        rng = np.random.default_rng(13)
        jumps = np.array(p.x)
        rises = p.bridge.knots if p.mode == "c1" else (0.0,)
        knots = (jumps[:, None] + np.array(rises)[None, :]).ravel()
        xs = np.concatenate([rng.uniform(-1.0, 1.5, 1500), jumps, jumps + 1e-20,
                             jumps - 1e-20, jumps * (1.0 + 2.0 ** -52), knots])
        for pts in (xs, xs.reshape(2, -1), np.array(0.3), rng.uniform(-1.0, 1.5, 70000)):
            assert np.array_equal(p.f_vec(pts), f_per_jump(p, pts))
            if p.mode == "c1":
                assert np.array_equal(p.fprime_vec(pts), f_per_jump(p, pts, slope=True))
        assert p.f_vec(np.array(0.3)).shape == ()


def test_profile_validation():
    with pytest.raises(ValueError):
        build_profile("lipschitz", jumps=[0.5, 0.5], amps=[1, 1], c_prime_target=1.0)
    with pytest.raises(ValueError):
        build_profile("lipschitz", jumps=[1.5], amps=[1.0], c_prime_target=1.0)
    with pytest.raises(ValueError):
        build_profile("lipschitz", c_prime_target=math.pi / 2.0)  # c' at the cap
    with pytest.raises(ValueError):
        build_profile("c1")  # missing sm/bridge


def test_profile_delta():
    p = build_profile("lipschitz", K=5)
    assert p.delta(0) == pytest.approx(2.0 ** -2)
    assert p.delta(4) == pytest.approx(2.0 ** -5)
    w = build_profile("lipschitz", jumps=[0.0], amps=[1.0], c_prime_target=1.0)
    assert w.delta(0) == math.inf
