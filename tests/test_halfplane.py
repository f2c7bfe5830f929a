import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nondini.modulus import ModulusSpec, SmoothedModulus
from nondini.profile import build_bridge, build_profile, MODE_C1, MODE_LIPSCHITZ
from nondini.hilbert import HilbertEvaluator
from nondini.halfplane import (
    HarmonicEvaluator,
    UpperHalfPoint,
    herglotz_transform,
    poisson_kernel,
    poisson_of_kf_oracle,
)
from nondini.quadrature import quad_scalar

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


def test_upper_half_point_validation():
    with pytest.raises(ValueError):
        UpperHalfPoint(0.0, 0.0)
    with pytest.raises(ValueError):
        UpperHalfPoint(0.0, -1.0)
    z = UpperHalfPoint(3.0, 4.0)
    assert z.as_complex() == 3.0 + 4.0j


def test_delta0_distance_to_jump_set(harm_lip):
    p = harm_lip.profile
    z = UpperHalfPoint(0.5, 0.25)
    expect = min(math.hypot(0.5 - xk, 0.25) for xk in p.x)
    assert z.delta0(p) == pytest.approx(expect, rel=1e-15)


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
    z = UpperHalfPoint(0.3, 0.5)
    a = herglotz_transform(harm_c1.profile, z.x, z.t)
    assert harm_c1.V(z) == pytest.approx(a.imag, abs=1e-12)
    assert harm_c1.W(z) == pytest.approx(-a.real, abs=1e-12)
    assert harm_c1.V(z.as_complex()) == harm_c1.V(z)
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


def test_boundary_G_lipschitz_power(harm_wedge):
    p = harm_wedge.profile
    g = harm_wedge.G(2.0 + 0.0j)
    assert abs(g) == pytest.approx(2.0 ** (-p.c / PI), rel=1e-12)
    assert cmath.phase(g) == pytest.approx(p.f(2.0), abs=1e-12)


def test_boundary_G_c1_matches_kf(harm_c1):
    ev = harm_c1.ev
    for x in (-0.7, 0.1, 0.785, 3.0):
        g = harm_c1.boundary_G(x)
        val, _ = ev.k_profile(x)
        assert abs(g) == pytest.approx(math.exp(-val), rel=1e-10)
        assert cmath.phase(g) == pytest.approx(ev.profile.f(x), abs=1e-12)


def test_boundary_G_singular_sentinel(harm_c1):
    x1 = float(harm_c1.profile.x[0])
    g = harm_c1.boundary_G(x1)
    assert abs(g) == math.inf
    assert harm_c1.boundary_arg(x1) == pytest.approx(harm_c1.profile.f(x1))


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
