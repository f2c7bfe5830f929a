import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nondini.modulus import ModulusSpec, SmoothedModulus
from nondini.profile import build_bridge, build_profile, MODE_C1, MODE_LIPSCHITZ
from nondini.conformal import _boundary_g
from nondini.hilbert import HilbertEvaluator
from nondini.halfplane import (
    HERGLOTZ_TOL, HarmonicEvaluator, _log_sum, _poisson_of_step, poisson_kernel)
from nondini.quadrature import QuadratureError

from oracles import herglotz_transform, herglotz_transform_direct, poisson_of_kf_oracle

PI = math.pi


@pytest.fixture(scope="module")
def harm_c1():
    sm = SmoothedModulus(ModulusSpec(kind="log_inverse", c=0.1)).selected(beta=0.5)
    prof = build_profile(MODE_C1, sm=sm, bridge=build_bridge(sm))
    return HarmonicEvaluator(HilbertEvaluator(prof))


@pytest.fixture(scope="module")
def harm_wedge():
    # single unit step at 0 with c * a = 1: Kf = (1/pi) log|x|, G = e^{ic} z^{-c/pi}
    prof = build_profile(MODE_LIPSCHITZ, jumps=[0.0], amps=[1.0], c_prime_target=1.0)
    return HarmonicEvaluator(HilbertEvaluator(prof))


@pytest.fixture(scope="module")
def harm_lip():
    return HarmonicEvaluator(HilbertEvaluator(build_profile(MODE_LIPSCHITZ)))


# -- Poisson kernel ------------------------------------------------------------

def test_poisson_kernel_values():
    assert poisson_kernel(0.0, 1.0) == pytest.approx(1.0 / PI, abs=1e-15)
    assert poisson_kernel(1.0, 1.0) == pytest.approx(1.0 / (2.0 * PI), abs=1e-15)
    with pytest.raises(ValueError):
        poisson_kernel(0.0, 0.0)


def test_poisson_kernel_mass():
    from scipy.integrate import quad
    for t in (0.05, 1.0, 7.0):
        mass, _ = quad(lambda y: poisson_kernel(y, t), -np.inf, np.inf)
        assert abs(mass - 1.0) < 1e-8


def test_poisson_kernel_vectorized():
    xi = np.array([-1.0, 0.0, 2.0])
    out = poisson_kernel(xi, 2.0)
    assert out.shape == xi.shape
    assert np.allclose(out, [2.0 / 5.0 / PI, 1.0 / 2.0 / PI, 2.0 / 8.0 / PI])


def test_upper_half_point_validation(harm_lip):
    # interior points are complex numbers with Im z > 0
    for z in (complex(0.0, 0.0), complex(0.3, -1.0)):
        for fn in (harm_lip.V, harm_lip.W):
            with pytest.raises(ValueError):
                fn(z)
    # G as well: its boundary values are conformal._boundary_g
    for z in (complex(0.3, -1.0), complex(0.3, 0.0), 0.3, np.array([0.3 + 0.5j, 0.3])):
        with pytest.raises(ValueError):
            harm_lip.G(z)


# -- V: Poisson extension of f ---------------------------------------------------

def test_extend_V_of_constant_is_constant():
    from scipy.integrate import quad
    # Poisson integral reproduces constants: quadrature of P_t against 1
    for x, t in [(0.0, 1.0), (2.0, 0.3)]:
        val, _ = quad(lambda y: poisson_kernel(y - x, t), -np.inf, np.inf)
        assert abs(val - 1.0) < 1e-8


def test_step_V_at_center_is_half(harm_wedge):
    p = harm_wedge.profile
    assert harm_wedge.V(complex(0.0, 1.0)) == pytest.approx(p.c / 2.0, abs=1e-14)
    # independent quadrature of P_t * (c H)
    from scipy.integrate import quad
    x, t = 0.7, 0.4
    direct = p.c * quad(lambda y: poisson_kernel(y - x, t), 0.0, np.inf)[0]
    assert harm_wedge.V(complex(x, t)) == pytest.approx(direct, abs=1e-8)


def test_V_boundary_limit_c1(harm_c1):
    p = harm_c1.profile
    for x in (-0.5, 0.01, 0.3, 1.7):
        v = harm_c1.V(complex(x, 1e-6))
        assert abs(v - p.f(x)) < 1e-4


def test_V_maximum_principle(harm_c1):
    p = harm_c1.profile
    rng = np.random.default_rng(11)
    xs = rng.uniform(-4.0, 4.0, 60)
    ts = 10.0 ** rng.uniform(-3.0, 1.0, 60)
    for x, t in zip(xs, ts):
        v = harm_c1.V(complex(x, t))
        assert 0.0 <= v <= p.c_prime


# -- W: Poisson extension of Kf --------------------------------------------------

def test_wedge_W_unit_distance_is_zero(harm_wedge):
    assert harm_wedge.W(complex(0.0, 1.0)) == pytest.approx(0.0, abs=1e-15)


def test_wedge_W_3_4_is_log5_over_pi(harm_wedge):
    w = harm_wedge.W(complex(3.0, 4.0))
    assert w == pytest.approx(math.log(5.0) / PI, rel=1e-14)
    # the log|z| identity checked against direct quadrature of P_t * Kf
    direct = poisson_of_kf_oracle(harm_wedge.ev, 3.0, 4.0)
    assert abs(w - direct) < 1e-8


def test_lipschitz_W_closed_form_matches_quadrature(harm_lip):
    for x, t in [(0.3, 0.5), (-1.0, 0.25), (0.5, 0.01)]:
        closed = harm_lip.W(complex(x, t))
        direct = poisson_of_kf_oracle(harm_lip.ev, x, t)
        assert abs(closed - direct) < 1e-8


def test_c1_W_matches_direct_poisson(harm_c1):
    for x, t in [(0.3, 0.5), (-1.0, 0.25), (0.25, 1e-3)]:
        w = harm_c1.W(complex(x, t))
        direct = poisson_of_kf_oracle(harm_c1.ev, x, t)
        assert abs(w - direct) < 1e-8


def test_c1_W_diverges_at_jump_like_log(harm_c1):
    x1 = float(harm_c1.profile.x[0])
    ts = [1e-2, 1e-4, 1e-6]
    ws = [harm_c1.W(complex(x1, t)) for t in ts]
    assert ws[0] > ws[1] > ws[2]
    ratios = [w / math.log(t) for w, t in zip(ws, ts)]
    assert all(0.0 < r < 1.0 for r in ratios)


def test_extend_functions_match_evaluator(harm_c1):
    z = complex(0.3, 0.5)
    a = herglotz_transform_direct(harm_c1.profile, z.real, z.imag)
    assert abs(harm_c1.V(z) - a.imag) <= 1e-14 * abs(a.imag)
    assert abs(harm_c1.W(z) + a.real) <= 1e-14 * abs(a.real)
    assert harm_c1.V(z) == harm_c1.g_exponent_vec(z).imag
    with pytest.raises(ValueError):
        harm_c1.W(complex(0.3, -0.5))


# -- G = exp(-W + iV) ------------------------------------------------------------

def test_wedge_G_power_law(harm_wedge):
    c = harm_wedge.profile.c
    for z in (1 + 1j, -2 + 0.5j, 0.01 + 0.03j, 5 + 0.001j):
        ref = cmath.exp(1j * c) * z ** (-c / PI)
        assert abs(harm_wedge.G(z) - ref) < 1e-12


@settings(max_examples=25, deadline=None)
@given(x=st.floats(-10.0, 10.0), t=st.floats(1e-3, 10.0))
def test_wedge_G_power_law_everywhere(x, t):
    prof = build_profile(MODE_LIPSCHITZ, jumps=[0.0], amps=[1.0],
                         c_prime_target=0.9)
    h = HarmonicEvaluator(HilbertEvaluator(prof))
    z = complex(x, t)
    ref = cmath.exp(1j * prof.c) * z ** (-prof.c / PI)
    assert abs(h.G(z) - ref) <= 1e-10 * (1.0 + abs(ref))


def test_arg_G_within_angle_bound(harm_c1):
    cp = harm_c1.profile.c_prime
    rng = np.random.default_rng(23)
    xs = rng.uniform(-3.0, 3.0, 1000)
    ts = 10.0 ** rng.uniform(-3.0, 1.0, 1000)
    for x, t in zip(xs, ts):
        assert abs(cmath.phase(harm_c1.G(complex(x, t)))) < cp


def test_G_on_numpy_points(harm_c1, harm_lip):
    # a 0-d array is the interior point it holds, not the boundary point
    # at its real part, and an array of points keeps its shape
    z = 0.3 + 0.5j
    assert harm_c1.G(np.array(z)) == harm_c1.G(z)
    assert abs(harm_c1.G(z) - (1.0974 + 0.3899j)) < 1e-4
    zs = np.array([[z, 2.5 + 1.5j], [-0.2 + 0.1j, 0.6 + 0.3j]])
    out = harm_c1.G(zs)
    assert out.shape == (2, 2)
    assert np.array_equal(out, np.exp(harm_c1.g_exponent_vec(zs)))
    assert out[0, 0] == harm_c1.G(z)
    for h in (harm_c1, harm_lip):
        for bad in (np.array(0.3 + 0.0j), np.array([z, 0.3 - 0.5j]), np.array(0.3)):
            with pytest.raises(ValueError):
                h.G(bad)


# -- boundary G = exp(-Kf + i f): conformal._boundary_g --------------------------

def test_boundary_G_lipschitz_power(harm_wedge):
    # unit step with c = 1: G(x) = 2^(-c/pi) e^{ic} at x = 2
    p = harm_wedge.profile
    g = complex(_boundary_g(harm_wedge.ev)(np.array([2.0]))[0])
    assert abs(g) == pytest.approx(2.0 ** (-p.c / PI), rel=1e-12)
    assert cmath.phase(g) == pytest.approx(p.c, abs=1e-12)
    assert cmath.phase(g) == pytest.approx(p.f(2.0), abs=1e-12)


def test_boundary_G_c1_matches_kf(harm_c1):
    # the table behind _boundary_g against the direct formulas behind k_profile
    ev = harm_c1.ev
    xs = np.array([-0.7, 0.1, 0.785, 3.0])
    for x, g in zip(xs.tolist(), _boundary_g(ev)(xs).tolist()):
        val, _ = ev.k_profile(x)
        assert abs(g) == pytest.approx(math.exp(-val), rel=1e-10)
        assert cmath.phase(g) == pytest.approx(ev.profile.f(x), abs=1e-12)


def test_boundary_G_singular_sentinel(harm_c1):
    x1 = float(harm_c1.profile.x[0])
    g = complex(_boundary_g(harm_c1.ev)(np.array([x1]))[0])
    assert abs(g) == math.inf
    # the components still point along the tangent angle f(x1)
    theta = harm_c1.profile.f(x1)
    assert (math.copysign(1.0, g.real), math.copysign(1.0, g.imag)) == (
        math.copysign(1.0, math.cos(theta)), math.copysign(1.0, math.sin(theta)))


def test_cauchy_riemann_finite_difference(harm_c1):
    h = 1e-4
    for x, t in [(0.3, 0.7), (-0.9, 0.35)]:
        dwdx = -(harm_c1.W(complex(x + h, t)) - harm_c1.W(complex(x - h, t))) / (2 * h)
        dvdt = (harm_c1.V(complex(x, t + h)) - harm_c1.V(complex(x, t - h))) / (2 * h)
        dwdt = -(harm_c1.W(complex(x, t + h)) - harm_c1.W(complex(x, t - h))) / (2 * h)
        dvdx = (harm_c1.V(complex(x + h, t)) - harm_c1.V(complex(x - h, t))) / (2 * h)
        assert abs(dwdx - dvdt) < 1e-6
        assert abs(dwdt + dvdx) < 1e-6


# -- harmonicity and growth ------------------------------------------------------

def _five_point_laplacian(fn, x, t, h):
    return (fn(complex(x + h, t)) + fn(complex(x - h, t))
            + fn(complex(x, t + h)) + fn(complex(x, t - h))
            - 4.0 * fn(complex(x, t))) / (h * h)


def test_V_and_W_harmonic(harm_c1):
    for fn in (harm_c1.V, harm_c1.W):
        for x, t in [(0.3, 0.8), (-1.2, 0.5)]:
            lap_h = _five_point_laplacian(fn, x, t, 0.02)
            lap_half = _five_point_laplacian(fn, x, t, 0.01)
            assert abs(lap_h) < 5e-3
            assert abs(lap_half) < 0.3 * abs(lap_h) + 1e-6


def test_G_growth_along_rays(harm_c1):
    cp = harm_c1.profile.c_prime
    for theta in (PI / 6.0, PI / 2.0, 5.0 * PI / 6.0):
        ms = []
        for r in np.geomspace(0.5, 80.0, 7):
            z = r * cmath.exp(1j * theta)
            ms.append(abs(harm_c1.G(z)) * (abs(z) + 1.0) ** (cp / PI))
        ms = np.asarray(ms)
        assert ms.min() > 0.1 * ms.max()


def test_cache_does_not_change_values(harm_c1):
    fresh = HarmonicEvaluator(harm_c1.ev)
    z = complex(0.3, 0.5)
    assert harm_c1.W(z) == fresh.W(z)
    assert HarmonicEvaluator(harm_c1.ev).G(z) == pytest.approx(harm_c1.G(z), abs=1e-14)
    # t = 1e-4 grades the jumps more finely than t = 0.5, so the node memo is
    # replaced twice; every value is the one a fresh evaluator gives
    h = HarmonicEvaluator(harm_c1.ev)
    zs = [complex(0.7, 0.5), complex(0.7, 1e-4), complex(-0.2, 0.5)]
    assert [h.g_exponent_vec(z) for z in zs] == [
        HarmonicEvaluator(harm_c1.ev).g_exponent_vec(z) for z in zs]
    p = harm_c1.profile
    span = max(p.saturation, 1.0) - min(p.x)
    assert list(h._memo) == [span * 1e-9]


# -- A(z) from the node memo equals the per-node rule bit for bit -------------

def _assert_matches_direct(p, points):
    h = HarmonicEvaluator(HilbertEvaluator(p))
    for x, t in points:
        assert herglotz_transform(h, x, t) == herglotz_transform_direct(p, x, t), (x, t)


def test_herglotz_memo_bitwise_random(harm_c1):
    rng = np.random.default_rng(5)
    xs = rng.uniform(-2.0, 3.0, 200)
    ts = rng.uniform(0.05, 2.0, 200)
    _assert_matches_direct(harm_c1.profile, zip(xs, ts))


def test_herglotz_memo_bitwise_near_boundary(harm_c1):
    p = harm_c1.profile
    x1, x2 = p.x[0], p.x[1]
    assert (x1, x2) == (0.5, 0.25)
    _assert_matches_direct(p, [(x, 1e-4) for x in (-0.7, 0.3, 1.3)]
                           + [(x, t) for x in (x1, x2) for t in (1e-5, 1e-7)])


def test_herglotz_memo_bitwise_lipschitz(harm_lip):
    _assert_matches_direct(harm_lip.profile,
                           [(0.3, 0.5), (-1.0, 0.25), (0.5, 1e-3), (2.0, 3.0)])


@settings(max_examples=20, deadline=None)
@given(x=st.floats(-3.0, 3.0), t=st.floats(1e-3, 10.0))
def test_herglotz_memo_bitwise_everywhere(harm_c1, x, t):
    assert herglotz_transform(harm_c1, x, t) == herglotz_transform_direct(
        harm_c1.profile, x, t)


def test_herglotz_stall_is_unchanged(harm_c1):
    # at t = 1e-14 over x_1 the graded rule cannot certify 3e-12; the memo
    # path raises with the same measured error as the per-node rule
    h = HarmonicEvaluator(harm_c1.ev)
    msg = "graded rule stalled at 8.101e-06"
    with pytest.raises(QuadratureError, match=msg):
        herglotz_transform(h, 0.5, 1e-14)
    with pytest.raises(QuadratureError, match=msg):
        herglotz_transform_direct(harm_c1.profile, 0.5, 1e-14)


# -- the batched A(z): far-field series, near-field cells, certificate -----------

def _assert_batch_matches_oracle(harm, zs):
    zs = np.asarray(zs, dtype=complex)
    a = harm.g_exponent_vec(zs)
    h = HarmonicEvaluator(harm.ev)
    ref = np.array([herglotz_transform(h, z.real, z.imag) for z in zs.tolist()])
    rel = np.abs(a - ref) / np.abs(ref)
    assert rel.max() <= 1e-14, (zs[rel.argmax()], rel.max())


def test_g_exponent_vec_matches_oracle_in_criterion_5_box(harm_c1):
    rng = np.random.default_rng(1)
    pts = rng.uniform([-2.0, 0.05], [3.0, 2.0], size=(200, 2))
    _assert_batch_matches_oracle(harm_c1, pts[:, 0] + 1j * pts[:, 1])


def test_g_exponent_vec_matches_oracle_at_small_t(harm_c1):
    x1, x2 = harm_c1.profile.x[:2]
    _assert_batch_matches_oracle(
        harm_c1, [complex(x, t) for x in (x1, x2, -0.7, 0.3, 1.3)
                  for t in (1e-4, 1e-5, 1e-6, 1e-7)])


def test_g_exponent_vec_matches_oracle_on_far_field_circle(harm_c1):
    # the far field starts at |z - c| = 2R, c and R the centre and radius of
    # [y_min, Y]; points on the circle and just inside it
    p = harm_c1.profile
    y_min, Y = min(p.x), max(p.saturation, 1.0)
    c, R = 0.5 * (y_min + Y), 0.5 * (Y - y_min)
    phis = np.linspace(0.02, PI - 0.02, 25)
    zs = [c + 2.0 * R * s * cmath.exp(1j * phi)
          for s in (1.0, 1.0 - 2.0 ** -40, 1.0 - 1e-3) for phi in phis]
    _assert_batch_matches_oracle(harm_c1, zs)


def test_g_exponent_vec_matches_oracle_across_jump_scales(harm_c1):
    # t below 1e-3 grades the jumps by t, so one batch needs several memos
    zs = [complex(0.3, 0.5), complex(0.5, 1e-5), complex(-1.0, 2.0),
          complex(0.25, 1e-4), complex(0.7, 1e-5), complex(0.5, 1e-7),
          complex(2.0, 0.05)]
    _assert_batch_matches_oracle(harm_c1, zs)


@settings(max_examples=20, deadline=None)
@given(x=st.floats(-3.0, 3.0), t=st.floats(1e-3, 10.0))
def test_g_exponent_vec_matches_oracle_everywhere(harm_c1, x, t):
    _assert_batch_matches_oracle(harm_c1, [complex(x, t)])


def test_scalar_calls_are_one_point_batches(harm_c1):
    zs = [complex(0.3, 0.5), complex(2.5, 1.5), complex(0.5, 1e-5),
          complex(-0.7, 1e-4)]
    batch = harm_c1.g_exponent_vec(zs)
    for z, b in zip(zs, batch):
        a = harm_c1.g_exponent_vec(np.array([z]))[0]
        assert a == b
        assert harm_c1.V(z) == a.imag
        assert harm_c1.W(z) == -a.real
        assert harm_c1.G(z) == np.exp(a)


def test_g_exponent_vec_keeps_shape(harm_c1):
    zs = np.array([[0.3 + 0.5j, 2.5 + 1.5j, -0.2 + 0.1j],
                   [0.6 + 0.3j, 0.3 + 2.0j, 1.2 + 0.7j]])
    out = harm_c1.g_exponent_vec(zs)
    assert out.shape == (2, 3)
    assert np.array_equal(out.ravel(), harm_c1.g_exponent_vec(zs.ravel()))
    zero_d = harm_c1.g_exponent_vec(np.complex128(0.3 + 0.5j))
    assert zero_d.shape == ()
    assert zero_d == out[0, 0]
    for empty in (np.zeros(0, dtype=complex), np.zeros((0, 3), dtype=complex)):
        assert harm_c1.g_exponent_vec(empty).shape == empty.shape


def test_V_and_W_keep_shape(harm_c1, harm_lip):
    zs = np.array([[0.3 + 0.5j, 1.0 + 1.0j, -0.2 + 0.1j],
                   [0.6 + 0.3j, 0.3 + 2.0j, 1.2 + 0.7j]])
    for h in (harm_c1, harm_lip):
        for fn in (h.V, h.W):
            scalar = fn(zs[0, 0])
            assert type(scalar) is float
            out = fn(zs)
            assert out.shape == zs.shape
            assert np.array_equal(out.ravel(), [fn(z) for z in zs.ravel().tolist()])
            assert np.array_equal(fn(zs[0, :2]), out[0, :2])


def test_g_exponent_vec_rejects_lower_half_plane(harm_c1, harm_lip):
    for h in (harm_c1, harm_lip):
        for zs in ([0.3 + 0.5j, 0.3 + 0.0j], [0.3 - 1.0j], [complex(0.3, math.nan)],
                   np.array([0.2, 0.4])):
            with pytest.raises(ValueError):
                h.g_exponent_vec(zs)


def test_g_exponent_vec_lipschitz_is_closed_form(harm_lip):
    p = harm_lip.profile
    rng = np.random.default_rng(7)
    xs = rng.uniform(-3.0, 3.0, 50)
    ts = 10.0 ** rng.uniform(-6.0, 1.0, 50)
    out = harm_lip.g_exponent_vec(xs + 1j * ts)
    for x, t, a in zip(xs.tolist(), ts.tolist(), out.tolist()):
        closed = complex(-_log_sum(p, x, t), _poisson_of_step(p, x, t))
        assert a == closed
        assert harm_lip.G(complex(x, t)) == cmath.exp(closed)


def test_g_exponent_vec_stall_raises_with_measured_error(harm_c1):
    # at t = 1e-12 or less over a jump no grading certifies 3e-12, alone or
    # inside a batch of points that are fine
    h = HarmonicEvaluator(harm_c1.ev)
    x1, x2 = h.profile.x[:2]
    for z in (complex(0.5, 1e-14), complex(x1, 1e-12), complex(x2, 1e-12)):
        measured = []
        for batch in ([z], [0.3 + 0.5j, z, 2.0 + 1.0j]):
            with pytest.raises(QuadratureError, match="stalled at") as info:
                h.g_exponent_vec(batch)
            measured.append(float(re.search(r"stalled at (\S+)",
                                            str(info.value)).group(1)))
        assert measured[0] == measured[1] > HERGLOTZ_TOL
