import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nondini.modulus import ModulusSpec, SmoothedModulus
from nondini.profile import build_bridge, build_profile, MODE_C1, MODE_LIPSCHITZ
from nondini.hilbert import (
    HilbertEvaluator,
    K_heaviside,
    decay_bounds,
    pv_log_integral,
    pv_quadrature_oracle,
    region_bracket,
)
from nondini.quadrature import quad_scalar

PI = math.pi


@pytest.fixture(scope="module")
def ev_c1():
    sm = SmoothedModulus(ModulusSpec(kind="log_inverse", c=0.1)).selected(beta=0.5)
    prof = build_profile(MODE_C1, sm=sm, bridge=build_bridge(sm))
    return HilbertEvaluator(prof)


@pytest.fixture(scope="module")
def ev_wedge():
    # single unit step at 0 with c * a = 1: K f = (1/pi) log|x| exactly
    return HilbertEvaluator(build_profile(MODE_LIPSCHITZ, jumps=[0.0], amps=[1.0],
                                          c_prime_target=1.0))


@pytest.fixture(scope="module")
def ev_lip():
    return HilbertEvaluator(build_profile(MODE_LIPSCHITZ))


# -- log kernel primitives ----------------------------------------------------

def test_pv_log_integral_matches_quadrature():
    for a, b, x in [(0.0, 1.0, 2.5), (0.0, 1.0, -0.3), (-2.0, -1.0, 4.0)]:
        ref = quad_scalar(lambda y: 1.0 / (x - y), a, b, tol=1e-12)
        assert abs(pv_log_integral(a, b, x) - ref) < 1e-10


def test_pv_log_integral_rejects_interior_x():
    for x in (0.0, 0.5, 1.0):
        with pytest.raises(ValueError):
            pv_log_integral(0.0, 1.0, x)


def test_pv_log_integral_diverges_approaching_endpoint():
    vals = [pv_log_integral(0.0, 1.0, 1.0 + 10.0 ** -m) for m in range(1, 8)]
    assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))
    assert vals[-1] > 15.0


def test_k_heaviside():
    assert K_heaviside(0.0) == -math.inf
    assert K_heaviside(2.0) == pytest.approx(math.log(2.0) / PI, rel=1e-15)
    assert K_heaviside(-0.5) == pytest.approx(-math.log(2.0) / PI, rel=1e-15)


# -- oracle first: validate it on closed forms before trusting it -------------

def test_oracle_reproduces_heaviside_closed_form(ev_wedge):
    for x in (2.0, -0.5, 0.25, 10.0):
        orc = pv_quadrature_oracle(ev_wedge.profile, x)
        assert abs(orc - math.log(abs(x)) / PI) < 1e-8


def test_oracle_two_step_profile():
    prof = build_profile(MODE_LIPSCHITZ, jumps=[-0.25, 0.5], amps=[1.0, 2.0],
                         c_prime_target=0.9)
    ev = HilbertEvaluator(prof)
    for x in (-1.0, 0.1, 0.9, 3.0):
        exact = prof.c * math.fsum(
            a * math.log(abs(x - j)) / PI for a, j in zip(prof.a, prof.x))
        assert abs(pv_quadrature_oracle(prof, x) - exact) < 1e-8
        val, _ = ev.k_profile(x)
        assert val == pytest.approx(exact, abs=1e-14)


def test_oracle_input_contracts(ev_wedge):
    with pytest.raises(ValueError):
        pv_quadrature_oracle(ev_wedge.profile, 0.5, eps_sequence=[1e-3, 1e-3])
    with pytest.raises(ValueError):
        pv_quadrature_oracle(ev_wedge.profile, 1e-6, eps_sequence=[1e-4, 5e-5])


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=-3.0, max_value=3.0).filter(lambda x: abs(x) > 1e-3))
def test_wedge_transform_exact(ev_wedge, x):
    val, _ = ev_wedge.k_profile(x)
    assert val == pytest.approx(math.log(abs(x)) / PI, abs=1e-15)


# -- region formulas against the oracle ----------------------------------------

def test_k_profile_matches_oracle_c1(ev_c1):
    rng = np.random.default_rng(0)
    jumps = np.array(ev_c1.profile.x)
    n = 0
    while n < 15:
        x = float(rng.uniform(-2.0, 3.0))
        if np.min(np.abs(x - jumps)) < 1e-3:
            continue
        val, _ = ev_c1.k_profile(x)
        assert abs(val - pv_quadrature_oracle(ev_c1.profile, x)) < 1e-6
        n += 1


# -- K Htilde: sentinel, side limits, brackets ----------------------------------

def test_k_htilde_sentinel_and_regions(ev_c1):
    assert ev_c1.k_htilde(0.0) == -math.inf
    # spec'd sample brackets (x_star <= 1/2 makes the 1/2 forms valid)
    sm = ev_c1.sm
    f0 = sm.value(sm.x0)
    x = -0.01
    k = ev_c1.k_htilde(x)
    lo = ((1.0 - f0) * math.log(sm.x0 - x) + f0 * math.log(-x)) / PI
    assert lo <= k <= math.log(0.5 - x) / PI
    x = 10.0
    assert math.log(x - 0.5) / PI <= ev_c1.k_htilde(x) <= math.log(x) / PI


def test_k_htilde_side_limits(ev_c1):
    x0, xs = ev_c1.bridge.x0, ev_c1.bridge.x_star
    tol = 10.0 * ev_c1.quad_tol
    for knot in (x0, xs):
        mid = ev_c1.k_htilde(knot)
        h = 1e-12 * knot
        assert abs(ev_c1.k_htilde(knot - h) - mid) < tol
        assert abs(ev_c1.k_htilde(knot + h) - mid) < tol
    # coarser probe used by the acceptance gate
    assert abs(ev_c1.k_htilde(x0 - 1e-6) - ev_c1.k_htilde(x0 + 1e-6)) < 1e-3


def test_region_brackets_500_samples(ev_c1):
    rng = np.random.default_rng(3)
    x0 = ev_c1.bridge.x0
    xs = np.concatenate([
        rng.uniform(-2.0, 3.0, 300),
        np.geomspace(1e-9, x0 * 0.999, 100),
        -np.geomspace(1e-9, 1.9, 100),
    ])
    for x in xs:
        x = float(x)
        if abs(x) < 1e-12:
            continue
        pik = PI * ev_c1.k_htilde(x)
        lo, hi = region_bracket(ev_c1, x)
        slack = 1e-9 * (1.0 + abs(pik))
        assert lo - slack <= pik <= hi + slack, f"x={x}: {lo} .. {pik} .. {hi}"


def test_divergence_rate_is_logarithmic(ev_c1):
    # |K(x)| / (log(1/|x|)/pi) stays bounded along +-2^-m
    for sgn in (1.0, -1.0):
        ratios = [abs(ev_c1.k_htilde(sgn * 2.0 ** -m)) / (m * math.log(2.0) / PI)
                  for m in range(5, 31)]
        assert max(ratios) < 1.0
    # ... while the value itself diverges
    assert ev_c1.k_htilde(2.0 ** -30) < ev_c1.k_htilde(2.0 ** -8) - 0.1


# -- decay bounds ---------------------------------------------------------------

def test_decay_bounds_contain_value(ev_c1):
    for x in np.geomspace(1e-8, ev_c1.bridge.x0 * 0.98, 25):
        lo, hi = decay_bounds(ev_c1, float(x))
        pik = PI * ev_c1.k_htilde(float(x))
        assert lo - 1e-9 <= pik <= hi + 1e-9


def test_decay_bounds_lower_diverges(ev_c1):
    los = [decay_bounds(ev_c1, 2.0 ** -m)[0] for m in (8, 12, 16, 20, 24)]
    assert all(b < a for a, b in zip(los, los[1:]))
    assert los[-1] < -100.0


def test_decay_bounds_constant_kind_upper_diverges():
    # for a constant modulus both ends reduce to pure log terms and the upper
    # bound itself witnesses K -> -inf
    sm = SmoothedModulus(ModulusSpec(kind="constant", c=0.1)).selected(beta=0.5)
    ev = HilbertEvaluator(build_profile(MODE_C1, sm=sm, bridge=build_bridge(sm)))
    ups = [decay_bounds(ev, 2.0 ** -m)[1] for m in (6, 10, 14, 18, 22)]
    assert all(b < a for a, b in zip(ups, ups[1:]))
    assert ups[-1] < -1.0
    for m in (6, 10, 14, 18, 22):
        lo, hi = decay_bounds(ev, 2.0 ** -m)
        pik = PI * ev.k_htilde(2.0 ** -m)
        assert lo - 1e-9 <= pik <= hi + 1e-9


def test_decay_bounds_domain(ev_c1):
    with pytest.raises(ValueError):
        decay_bounds(ev_c1, ev_c1.bridge.x0 * 1.5)
    with pytest.raises(ValueError):
        decay_bounds(ev_c1, 0.0)


# -- profile transform: sentinels and the regular part ---------------------------

def test_k_profile_sentinel_at_jumps(ev_lip, ev_c1):
    for ev in (ev_lip, ev_c1):
        p = ev.profile
        for k in (0, 3, p.K - 1):
            val, reg = ev.k_profile(p.x[k])
            assert val == -math.inf
            if p.mode == MODE_LIPSCHITZ:
                expect = p.c * math.fsum(
                    p.a[j] * math.log(abs(p.x[k] - p.x[j])) / PI
                    for j in range(p.K) if j != k)
            else:
                expect = p.c * math.fsum(
                    p.a[j] * ev.k_htilde(p.x[k] - p.x[j])
                    for j in range(p.K) if j != k)
            assert reg == pytest.approx(expect, rel=1e-12, abs=1e-12)


def test_one_neg_inf_convention(ev_c1):
    # scalar, vector and bracket paths all write Kf = -infinity as IEEE -inf
    xk = ev_c1.profile.x[0]
    assert ev_c1.k_profile(xk)[0] == -math.inf
    assert ev_c1.kf_vec([xk])[0] == -math.inf
    assert K_heaviside(0.0) == -math.inf
    assert region_bracket(ev_c1, ev_c1.bridge.x0)[0] == -math.inf


def test_regular_part_bound_lipschitz(ev_lip):
    p = ev_lip.profile
    for k in range(p.K):
        _, reg = ev_lip.k_profile(p.x[k])
        bound = (p.c_prime / PI) * (math.log(2.0 / p.delta(k))
                                    + math.log(abs(p.x[k]) + 1.0))
        assert abs(reg) <= bound


# -- fast table -------------------------------------------------------------------

def test_table_accuracy_and_zeros(ev_c1):
    tab = ev_c1.table()
    assert tab.max_err < 1e-8
    us = np.array([0.0, 1e-3, -1e-3, 0.37, ev_c1.bridge.x_star * 1.000001, 2.0 ** -40])
    vals = ev_c1.k_htilde_vec(us)
    assert vals[0] == -np.inf
    for u, v in zip(us[1:], vals[1:]):
        assert abs(v - ev_c1.k_htilde(float(u))) < 1e-9
    # out-of-range arguments fall back to the direct formulas
    far = np.array([2.0 ** 20, -(2.0 ** 20), 2.0 ** -55])
    direct = np.array([ev_c1.k_htilde(float(u)) for u in far])
    assert np.allclose(ev_c1.k_htilde_vec(far), direct, atol=1e-12)


def test_kf_vec_consistent_with_k_profile(ev_c1):
    xs = np.array([-0.7, 0.005, 0.33, 1.7])
    kv = ev_c1.kf_vec(xs)
    for x, v in zip(xs, kv):
        val, _ = ev_c1.k_profile(float(x))
        assert abs(v - val) < 1e-9
