import cmath
import math

import mpmath
import numpy as np
import pytest

from nondini.modulus import ModulusSpec, SmoothedModulus
from nondini.profile import build_bridge, build_profile, MODE_C1, MODE_LIPSCHITZ
from nondini import conformal
from nondini.hilbert import HilbertEvaluator
from nondini.quadrature import gauss_graded, graded_edges, split_integrals
from nondini.conformal import (
    BASE_POINT,
    BoundaryTrace,
    PathSpec,
    average_derivative,
    check_injectivity,
    growth_check,
    integrate_phi,
    secant_tangent,
    segment_margin,
    trace_boundary,
)

from oracles import (
    integrate_power_endpoint,
    integrate_split_total,
    quad_scalar,
    split_plan,
    trace_per_cell,
)

PI = math.pi


@pytest.fixture(scope="module")
def ev_c1():
    sm = SmoothedModulus(ModulusSpec(kind="log_inverse", c=0.1)).selected(beta=0.5)
    return HilbertEvaluator(build_profile(MODE_C1, sm=sm, bridge=build_bridge(sm)))


@pytest.fixture(scope="module")
def ev_wedge():
    # single unit step at 0, c = 0.9: G = e^{ic} z^{-c/pi}, Phi integrable in closed form
    return HilbertEvaluator(
        build_profile(MODE_LIPSCHITZ, jumps=[0.0], amps=[1.0], c_prime_target=0.9))


@pytest.fixture(scope="module")
def ev_qwedge():
    # c = pi/4 wedge: |Phi'(x)| = |x|^{-1/4}
    return HilbertEvaluator(
        build_profile(MODE_LIPSCHITZ, jumps=[0.0], amps=[1.0],
                      c_prime_target=PI / 4))


@pytest.fixture(scope="module")
def ev_lip():
    return HilbertEvaluator(build_profile(MODE_LIPSCHITZ))


@pytest.fixture(scope="module")
def trace_c1(ev_c1):
    return trace_boundary(ev_c1, -1.0, 1.2, base_n=160)


def wedge_phi(c: float, z: complex) -> complex:
    # antiderivative of e^{ic} z^{-c/pi} vanishing at i (principal branch)
    q = 1.0 - c / PI
    return cmath.exp(1j * c) / q * (complex(z) ** q - 1j ** q)


# -- path specification --------------------------------------------------------

def test_path_spec_validation():
    with pytest.raises(ValueError):
        PathSpec((1j,))
    with pytest.raises(ValueError):
        PathSpec((1j, 1j))
    with pytest.raises(ValueError):
        PathSpec((1j, 1.0 - 0.5j))
    spec = PathSpec((1j, 0.5 + 1j, 0.5))
    assert spec.waypoints == (1j, 0.5 + 1j, 0.5 + 0j)
    assert all(isinstance(w, complex) for w in spec.waypoints)


def test_phi_vanishes_at_base_point(ev_wedge, ev_c1):
    assert integrate_phi(ev_wedge, BASE_POINT) == 0j
    assert integrate_phi(ev_c1, BASE_POINT) == 0j
    with pytest.raises(ValueError):
        integrate_phi(ev_wedge, 1.0 - 1j)


def test_path_independence_wedge(ev_wedge):
    rng = np.random.default_rng(7)
    for _ in range(20):
        z = complex(rng.uniform(-2.0, 2.0), rng.uniform(0.2, 2.0))
        direct = integrate_phi(ev_wedge, z)
        dogleg = integrate_phi(ev_wedge, z, path=PathSpec((BASE_POINT, 2j, z)))
        assert abs(direct - dogleg) < 1e-8
        assert abs(direct - wedge_phi(0.9, z)) < 1e-8


def test_path_independence_c1(ev_c1):
    rng = np.random.default_rng(19)
    for _ in range(3):
        z = complex(rng.uniform(-1.5, 1.5), rng.uniform(0.3, 1.5))
        direct = integrate_phi(ev_c1, z)
        dogleg = integrate_phi(ev_c1, z, path=PathSpec((BASE_POINT, 1.5j, z)))
        assert abs(direct - dogleg) < 1e-8


def test_wedge_boundary_closed_form(ev_wedge):
    for x in (0.25, 1.0, 2.5, -0.5, -1.7):
        got = integrate_phi(ev_wedge, complex(x))
        assert abs(got - wedge_phi(0.9, x)) < 1e-9


def test_wedge_phi_at_vertex(ev_wedge):
    # z = 0 is reached along the boundary from 1, where the split planner
    # flattens the |x|^(-c/pi) singularity at the vertex
    got = integrate_phi(ev_wedge, 0j)
    assert abs(got - wedge_phi(0.9, 0.0)) < 1e-9


def test_wedge_boundary_run_to_vertex(ev_wedge):
    # a given path that ends with a boundary run is flattened at the jump too
    got = integrate_phi(ev_wedge, 0j, path=PathSpec((BASE_POINT, 1 + 0j, 0j)))
    assert abs(got - wedge_phi(0.9, 0.0)) < 1e-9
    # a run that goes leftwards across the vertex carries the minus sign
    back = integrate_phi(ev_wedge, -1 + 0j,
                         path=PathSpec((BASE_POINT, 1 + 0j, -1 + 0j)))
    assert abs(back - wedge_phi(0.9, -1.0)) < 1e-9


@pytest.mark.parametrize("k", [0, 3])
def test_phi_at_jump_matches_trace(ev_c1, trace_c1, k):
    # the auto path reaches x_k along the boundary from x_k + delta_k / 2
    xk = ev_c1.profile.x[k]
    j = int(np.flatnonzero(trace_c1.x == xk)[0])
    assert abs(integrate_phi(ev_c1, complex(xk)) - trace_c1.phi[j]) < 1e-8


def _segment_cases():
    ray = cmath.exp(1j * PI / 12.0)
    c1 = [(1j, 0.6 + 0.8j), (2j, 0.6 + 0.8j), (256.0 * ray, 1024.0 * ray), (1j, -1 + 0j)]
    lip = [(1j, -1 + 0j), ("x1", 1e-3), ("x1", 1e-6j)]
    return [("ev_c1", z1, z2) for z1, z2 in c1] + [("ev_lip", z1, z2) for z1, z2 in lip]


@pytest.mark.parametrize("name, z1, z2", _segment_cases())
def test_segment_integral_matches_quadpack(request, name, z1, z2):
    # interior segments through gauss_graded at PHI_TOL against scipy's
    # QUADPACK at 1e-13, node by node; "x1" stands for i -> x_1 + offset
    harm = conformal._as_harmonic(request.getfixturevalue(name))
    if z1 == "x1":
        z1, z2 = 1j, harm.profile.x[0] + z2
    dz = z2 - z1
    ref = quad_scalar(lambda s: complex(harm.G(z1 + s * dz)) * dz, 0.0, 1.0,
                      tol=1e-13, complex_func=True)
    got = conformal._segment_integral(harm, complex(z1), complex(z2))
    assert abs(got - ref) <= 1e-9 * abs(ref)


def test_phi_at_origin_matches_trace(ev_c1, trace_c1):
    # 0, where the jumps accumulate, is reached along the boundary as well
    j = int(np.flatnonzero(trace_c1.x == 0.0)[0])
    assert abs(integrate_phi(ev_c1, 0j) - trace_c1.phi[j]) < 1e-8


def test_derivative_consistency(ev_wedge):
    x, h = 0.7, 1e-4
    c = 0.9
    diff = (integrate_phi(ev_wedge, complex(x + h))
            - integrate_phi(ev_wedge, complex(x - h))) / (2.0 * h)
    g = cmath.exp(1j * c) * x ** (-c / PI)
    assert abs(diff - g) < 1e-6


# -- boundary trace ------------------------------------------------------------

def test_wedge_trace_rays(ev_wedge):
    tr = trace_boundary(ev_wedge, -1.0, 1.0, base_n=100)
    assert tr.is_simple()
    ang = tr.secant_angles()
    mids = 0.5 * (tr.x[:-1] + tr.x[1:])
    left = ang[mids < 0.0]
    right = ang[mids > 0.0]
    # two straight rays meeting at the image of the jump with interior turn c
    assert np.max(np.abs(left)) < 1e-9
    assert np.max(np.abs(right - 0.9)) < 1e-9
    turn = right[0] - left[-1]
    assert abs(turn - 0.9) < 1e-6


def test_wedge_phi_prime_power(ev_qwedge):
    tr = trace_boundary(ev_qwedge, -0.5, 1.0, base_n=80)
    sel = (tr.x >= 2.0 ** -10) & (tr.x <= 1.0) & ~tr.is_singular
    assert sel.sum() > 50
    rel = np.abs(tr.abs_dphi[sel] * tr.x[sel] ** 0.25 - 1.0)
    assert np.max(rel) < 1e-6


def test_trace_structure(trace_c1, ev_c1):
    p = ev_c1.profile
    assert np.all(np.diff(trace_c1.x) > 0.0)
    assert trace_c1.quad_error < 1e-6
    # every jump inside the window is a sample flagged singular with inf |Phi'|
    n_jumps = sum(1 for xk in p.x if -1.0 < xk < 1.2)
    assert int(trace_c1.is_singular.sum()) == n_jumps
    assert np.all(np.isinf(trace_c1.abs_dphi[trace_c1.is_singular]))
    assert np.all(np.isfinite(trace_c1.abs_dphi[~trace_c1.is_singular]))
    assert trace_c1.is_simple()


def test_trace_tangent_field(trace_c1, ev_c1):
    # secant direction of the polyline matches f away from singular samples
    ang = trace_c1.secant_angles()
    mids = 0.5 * (trace_c1.x[:-1] + trace_c1.x[1:])
    fmid = ev_c1.profile.f_vec(mids)
    touch = trace_c1.is_singular[:-1] | trace_c1.is_singular[1:]
    err = np.abs(ang - fmid)[~touch]
    assert np.max(err) < 1e-3
    assert np.median(err) < 1e-6


def test_trace_left_tail_horizontal(trace_c1):
    # f = 0 left of the smallest jump, so the trace leaves 0 along a straight
    # horizontal line
    ang = trace_c1.secant_angles()
    mids = 0.5 * (trace_c1.x[:-1] + trace_c1.x[1:])
    assert np.max(np.abs(ang[mids < 0.0])) < 1e-12


def test_trace_csv_round_trip(tmp_path, trace_c1):
    out = tmp_path / "boundary.csv"
    trace_c1.to_csv(out)
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "x,re_phi,im_phi,abs_dphi,is_singular"
    assert len(lines) == len(trace_c1.x) + 1
    k = int(np.argmax(trace_c1.is_singular))
    row = lines[1 + k].split(",")
    assert row[3] == "inf"
    assert row[4] == "1"
    xs = np.array([float(r.split(",")[0]) for r in lines[1:]])
    re = np.array([float(r.split(",")[1]) for r in lines[1:]])
    assert np.max(np.abs(xs - trace_c1.x)) == 0.0
    assert np.max(np.abs(re - trace_c1.phi.real)) == 0.0


def test_trace_validation(ev_c1):
    with pytest.raises(ValueError):
        trace_boundary(ev_c1, 0.1, 1.0)
    with pytest.raises(ValueError):
        trace_boundary(ev_c1, -1.0, 1.0, base_n=1)
    with pytest.raises(ValueError):
        BoundaryTrace(x=np.array([0.0, 0.0]), phi=np.zeros(2, complex),
                      abs_dphi=np.ones(2), is_singular=np.zeros(2, bool),
                      c_prime=0.5)


def test_trace_from_sequences():
    # a trace built from tuples stores ndarrays, so the polyline checks work
    tr = BoundaryTrace(x=(-1.0, 0.0, 1.0, 2.0), phi=(-1 + 0j, 0j, 1 + 1j, 2 + 0j),
                       abs_dphi=(1.0,) * 4, is_singular=(False, True, False, False),
                       c_prime=0.5)
    assert isinstance(tr.phi, np.ndarray) and tr.phi.dtype == complex
    assert tr.is_singular.dtype == bool
    assert tr.is_simple()
    assert tr.secant_angles() == pytest.approx([0.0, math.pi / 4, -math.pi / 4])
    flat = BoundaryTrace.flat(-8.0, 8.0, 33)
    assert flat.is_simple()
    assert np.array_equal(flat.phi, flat.x.astype(complex))


@pytest.mark.parametrize("name, window, base_n", [
    ("c1", (-1.0, 1.2), 200), ("c1", (-1.0, 1.2), 160),
    ("lip", (-1.0, 1.2), 200), ("wedge", (-1.0, 1.0), 100)])
def test_trace_is_the_per_cell_dispatch(request, name, window, base_n):
    # no grid cell has a jump at both ends here, so the shared planner and
    # rule give the old per-cell dispatch bit for bit
    ev = request.getfixturevalue("ev_" + name)
    tr = trace_boundary(ev, *window, base_n=base_n)
    ref = trace_per_cell(ev, *window, base_n=base_n)
    for field in ("x", "phi", "abs_dphi", "is_singular"):
        assert np.array_equal(getattr(tr, field), getattr(ref, field)), field
    assert tr.quad_error == ref.quad_error


def _lipschitz_integral_mp(p, a: float, b: float) -> complex:
    """int_a^b G over a cell of the jump grid, G = prod |x - x_k|^(-c a_k/pi)
    e^{i f}, by mpmath at 30 digits."""
    with mpmath.workdps(30):
        q = [mpmath.mpf(p.c) * mpmath.mpf(ak) / mpmath.pi for ak in p.a]
        mod = mpmath.quad(lambda x: mpmath.fprod(abs(x - mpmath.mpf(xk)) ** -qk
                                                 for xk, qk in zip(p.x, q)),
                          [a, 0.5 * (a + b), b])
    return complex(mod) * cmath.exp(1j * p.f(0.5 * (a + b)))


@pytest.mark.parametrize("rule, old_err", [("uniform", 1e-5), ("geometric", 3e-13)])
def test_trace_flattens_both_ends_of_a_cell(rule, old_err):
    # K = 30 puts the jumps 2^-30, 2^-29, 2^-28 closer than the 2^-28 grid
    # floor, so the grid cells between them have a jump at each end; the
    # planner splits such a cell at its midpoint and flattens both halves
    p = build_profile(MODE_LIPSCHITZ, K=30, amplitude_rule=rule)
    ev = HilbertEvaluator(p)
    tr = trace_boundary(ev, -1.0, 1.2)
    gfn = conformal._boundary_g(ev)
    for m in (30, 29):
        a, b = 2.0 ** -m, 2.0 ** (1 - m)
        j = int(np.searchsorted(tr.x, a))
        assert (tr.x[j], tr.x[j + 1]) == (a, b) and tr.is_singular[j:j + 2].all()
        ref = _lipschitz_integral_mp(p, a, b)
        plan = split_plan(a, b, p.x, [p.c * ak / PI for ak in p.a])
        assert [piece[3] for piece in plan] == ["a", "b"]
        split_val = conformal._jump_integrals(ev, gfn, [a], [b], cells=1)[0]
        assert abs(split_val - ref) <= 1e-15 * abs(ref)
        # flattening the left end only, as the trace once did
        left_only = integrate_power_endpoint(gfn, a, b, plan[0][2], side="a")
        assert abs(left_only - ref) > old_err * abs(ref)
        # the Phi samples cancel to 1e-8 - 1e-7 relative in their difference,
        # which still separates the two rules in the uniform case
        assert abs(tr.phi[j + 1] - tr.phi[j] - ref) <= 1e-6 * abs(ref)


def test_integrate_split_sums_like_the_per_piece_rule():
    # the appendix windows with dyadic placement: 8 and more pieces, summed
    # left to right, equal the one-piece-at-a-time total bit for bit, alone
    # and in one batch of all the windows
    bs = [0.05] * 8
    locs = [2.0 ** -(k + 1) for k in range(len(bs))]

    def g(ys):
        val = np.ones_like(ys)
        for s, v in zip(locs, bs):
            val = val * np.abs(ys - s) ** (-v)
        return val

    counts, totals = [], []
    windows = [(a, c) for e in (1.0, 0.5, 0.3, 2.0 ** -4) for a, c in ((-e, e), (-e, 0.0))]
    for a, c in windows:
        plan = split_plan(a, c, locs, bs)
        counts.append(len(plan))
        totals.append(integrate_split_total(g, plan, cells=8, locs=locs))
        assert split_integrals(g, [a], [c], locs, bs, cells=8)[0] == totals[-1]
    assert max(counts) >= 8
    lo, hi = zip(*windows)
    assert split_integrals(g, lo, hi, locs, bs, cells=8).tolist() == totals


@pytest.mark.parametrize("mode", ["lip", "c1"])
@pytest.mark.parametrize("side", [1.0, -1.0])
def test_boundary_integral_next_to_a_jump(request, mode, side):
    # a regular piece 1e-9 from x_1 and 1e-3 long is graded toward x_1; with
    # equal cells alone it was off by 1.0e-4 (lip) and 1.6e-6 (c1) relative
    ev = request.getfixturevalue("ev_" + mode)
    p = ev.profile
    x1 = p.x[0]
    a, b = sorted((x1 + side * 1e-9, x1 + side * 1e-3))
    val = conformal._boundary_integral(ev, a, b)
    if mode == "lip":
        ref = _lipschitz_integral_mp(p, a, b)
    else:
        ref = gauss_graded(conformal._boundary_g(ev), graded_edges(a, b, x1, 1e-10),
                           tol=1e-15, max_rounds=20)
    assert abs(val - ref) <= 1e-12 * abs(ref)


# -- injectivity ---------------------------------------------------------------

def test_injectivity_wedge(ev_wedge):
    rep = check_injectivity(ev_wedge, n_segments=30, seed=1)
    assert rep.passed
    assert rep.min_margin > 0.0
    assert abs(rep.cos_cprime - math.cos(0.9)) < 1e-12


def test_injectivity_c1(ev_c1):
    rep = check_injectivity(ev_c1, n_segments=8, seed=3)
    assert rep.passed
    assert rep.min_margin > 0.05
    assert abs(rep.cos_cprime - math.cos(ev_c1.profile.c_prime)) < 1e-12


def test_injectivity_default_cos(ev_lip):
    # default profile saturates at c' = pi/4, so the margin constant is sqrt2/2
    rep = check_injectivity(ev_lip, n_segments=4, seed=5)
    assert abs(rep.cos_cprime - math.sqrt(2.0) / 2.0) < 1e-12


def test_injectivity_passes_on_positive_margin_only(ev_wedge, ev_lip, monkeypatch):
    # the same rule as the CLI row and criterion 5: min_margin > 0
    for rep in (check_injectivity(ev_wedge, n_segments=5, seed=2),
                check_injectivity(ev_lip, n_segments=4, seed=5)):
        assert rep.passed == (rep.min_margin > 0.0)
    for margin in (-1e-12, 0.0, 1e-12):
        monkeypatch.setattr(conformal, "segment_margin", lambda *a, m=margin, **k: m)
        rep = check_injectivity(ev_wedge, n_segments=3, seed=2)
        assert (rep.min_margin, rep.passed) == (margin, margin > 0.0)


def test_segment_margin_degenerate(ev_wedge):
    with pytest.raises(ValueError):
        segment_margin(ev_wedge, 1j, 1j)


# -- growth --------------------------------------------------------------------

def test_growth_wedge_fit(ev_wedge):
    rep = growth_check(ev_wedge, [64.0, 128.0, 256.0, 512.0, 1024.0],
                       n_angles=5)
    assert abs(rep.fitted_exponent - rep.target_exponent) < 0.02
    assert rep.target_exponent == pytest.approx(1.0 - 0.9 / PI, abs=1e-15)
    assert min(rep.min_products) > 0.5


def test_growth_c1(ev_c1):
    rep = growth_check(ev_c1, [16.0, 64.0, 256.0, 1024.0], n_angles=3)
    assert rep.fitted_exponent >= rep.target_exponent - 0.05
    assert min(rep.min_products) > 0.5


def test_growth_validation(ev_wedge):
    with pytest.raises(ValueError):
        growth_check(ev_wedge, [16.0, 8.0])
    with pytest.raises(ValueError):
        growth_check(ev_wedge, [16.0, 2048.0])
    with pytest.raises(ValueError):
        growth_check(ev_wedge, [1.0, 16.0])


# -- boundary secants ----------------------------------------------------------

def test_secant_regular_point(ev_c1):
    res = secant_tangent(ev_c1, -1.0, [2.0 ** -8, 2.0 ** -12, 2.0 ** -16])
    kf = float(ev_c1.kf_vec(np.array([-1.0]))[0])
    mods = [m for m, _ in res]
    angs = [a for _, a in res]
    assert abs(mods[-1] - math.exp(-kf)) < 1e-5
    assert max(abs(a) for a in angs) < 1e-10


def test_secant_accumulation_point(ev_c1):
    # x = 0: infinitely many jumps on the right, f(0) = 0; the secant angle
    # still converges to 0 and the modulus settles
    eps = [2.0 ** -m for m in range(10, 26, 2)]
    res = secant_tangent(ev_c1, 0.0, eps)
    angs = [abs(a) for _, a in res]
    mods = [m for m, _ in res]
    assert all(a < 1e-2 for a in angs)
    assert angs[-1] < 1e-7
    assert abs(mods[-1] - mods[-2]) < 1e-6


def test_secant_jump_point(ev_c1):
    # x = x_1: modulus grows without bound, angle approaches f(x_1) slowly
    # (the smoothed rise decays like 1/log near the jump)
    p = ev_c1.profile
    x1 = p.x[0]
    f1 = float(p.f_vec(np.array([x1]))[0])
    eps = [2.0 ** -m for m in range(10, 26, 2)]
    res = secant_tangent(ev_c1, x1, eps)
    mods = [m for m, _ in res]
    errs = [abs(a - f1) for _, a in res]
    assert all(b > a for a, b in zip(mods, mods[1:]))
    assert all(b < a for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 0.02


def test_secant_validation(ev_c1):
    with pytest.raises(ValueError):
        secant_tangent(ev_c1, 0.0, [])
    with pytest.raises(ValueError):
        secant_tangent(ev_c1, 0.0, [2.0 ** -12, 2.0 ** -10])
    with pytest.raises(ValueError):
        secant_tangent(ev_c1, ev_c1.profile.x[1], [0.2])


def test_wedge_vertex_secant(ev_wedge):
    # |Phi(eps)/eps| = eps^{-c/pi}/(1 - c/pi) and the angle equals c exactly
    c = 0.9
    q = 1.0 - c / PI
    eps = [2.0 ** -6, 2.0 ** -10, 2.0 ** -14]
    res = secant_tangent(ev_wedge, 0.0, eps)
    for e, (mod, ang) in zip(eps, res):
        assert abs(mod * e ** (c / PI) - 1.0 / q) < 1e-8
        assert abs(ang - c) < 1e-10


def test_average_derivative_blowup(ev_c1):
    x1 = ev_c1.profile.x[0]
    vals = [average_derivative(ev_c1, x1, 2.0 ** -m, 2.0 ** -m)
            for m in range(4, 26, 4)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        average_derivative(ev_c1, x1, 0.0, 0.1)
