import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nondini.modulus import ModulusSpec, SmoothedModulus
from nondini.profile import build_bridge, build_profile, htilde_vec, MODE_C1, MODE_LIPSCHITZ
from nondini import hilbert
from nondini.hilbert import (
    MID,
    REGION_TOL,
    HilbertEvaluator,
    KHtildeTable,
    K_heaviside,
    decay_bounds,
    pv_quadrature_oracle,
    region_bracket,
)
from nondini.quadrature import QuadratureError

from oracles import (
    build_table_sequential,
    k_htilde_per_piece,
    pi_k_htilde,
    pv_log_integral,
    pv_richardson_oracle,
    quad_scalar,
)

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


def test_k_heaviside_is_log_abs_over_pi_bitwise():
    rng = np.random.default_rng(11)
    u = np.concatenate([[0.0, -0.0, np.inf, -np.inf, 5e-324, -1.0],
                        rng.normal(size=494),
                        rng.normal(size=500) * 10.0 ** rng.integers(-300, 300, 500)])
    rng.shuffle(u)
    for v in (u, u.reshape(20, -1), u[::3], 0.0, -0.0, 2.0):
        got = np.asarray(K_heaviside(v))
        with np.errstate(divide="ignore"):
            want = np.asarray(np.log(np.abs(v)) / PI)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert K_heaviside(0.0) == -math.inf and K_heaviside(-0.0) == -math.inf


# -- oracle first: validate it on closed forms before trusting it -------------

def test_oracle_reproduces_heaviside_closed_form(ev_wedge):
    for x in (2.0, -0.5, 0.25, 10.0):
        orc = pv_quadrature_oracle(ev_wedge.profile, x)
        assert abs(orc - math.log(abs(x)) / PI) < 1e-14


def test_oracle_two_step_profile():
    prof = build_profile(MODE_LIPSCHITZ, jumps=[-0.25, 0.5], amps=[1.0, 2.0],
                         c_prime_target=0.9)
    ev = HilbertEvaluator(prof)
    for x in (-1.0, 0.1, 0.9, 3.0):
        exact = prof.c * math.fsum(
            a * math.log(abs(x - j)) / PI for a, j in zip(prof.a, prof.x))
        assert abs(pv_quadrature_oracle(prof, x) - exact) < 1e-14
        val, _ = ev.k_profile(x)
        assert val == pytest.approx(exact, abs=1e-14)


def test_oracle_input_contracts(ev_wedge):
    with pytest.raises(ValueError, match="away from the jump set"):
        pv_quadrature_oracle(ev_wedge.profile, 0.0)
    with pytest.raises(ValueError):
        pv_richardson_oracle(ev_wedge.profile, 0.5, eps_sequence=[1e-3, 1e-3])
    with pytest.raises(ValueError):
        pv_richardson_oracle(ev_wedge.profile, 1e-6, eps_sequence=[1e-4, 5e-5])


def criterion_2_points(ev_lip, ev_c1):
    """(profile, x) of the acceptance test's 50 points per mode, in its order."""
    rng = np.random.default_rng(0)
    for ev in (ev_lip, ev_c1):
        p = ev.profile
        tested = 0
        while tested < 50:
            x = float(rng.uniform(-2.0, 3.0))
            if abs(x) < 1e-2 or min(abs(x - xk) for xk in p.x) < 1e-2:
                continue
            yield p, x
            tested += 1


def test_oracle_matches_richardson_form(ev_lip, ev_c1):
    worst = max(abs(pv_quadrature_oracle(p, x) - pv_richardson_oracle(p, x))
                for p, x in criterion_2_points(ev_lip, ev_c1))
    assert worst < 1e-9


@pytest.mark.parametrize("x", [0.720645182655705, 0.720739806372411, 0.720548148410984])
def test_oracle_near_a_bridge_knot(ev_c1, x):
    # drawn by verify at seeds 2277, 2567 and 4918, within 1e-4 of the bridge
    # knot x_1 + x_star; the excision window straddled the knot and its
    # Richardson extrapolation stalled
    with pytest.raises(QuadratureError, match="stalled"):
        pv_richardson_oracle(ev_c1.profile, x)
    assert abs(pv_quadrature_oracle(ev_c1.profile, x) - ev_c1.k_profile(x)[0]) < 1e-12


@pytest.mark.parametrize("x", [1.0 - 1e-9, 1.0 + 1e-9, 1.0 - 1e-11, 1.0 + 1e-11,
                               math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0)])
def test_oracle_next_to_the_compensator_jump(ev_c1, x):
    # the outer pieces are graded toward the pole from the window's edge e,
    # however close to 1 the window's edge brings it
    assert abs(pv_quadrature_oracle(ev_c1.profile, x) - ev_c1.k_profile(x)[0]) < 1e-12


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
    zero, k, k_far = ev_c1.k_htilde_direct(np.array([0.0, -0.01, 10.0]))
    assert zero == -math.inf
    # spec'd sample brackets (x_star <= 1/2 makes the 1/2 forms valid)
    sm = ev_c1.sm
    f0 = sm.value(sm.x0)
    x = -0.01
    lo = ((1.0 - f0) * math.log(sm.x0 - x) + f0 * math.log(-x)) / PI
    assert lo <= k <= math.log(0.5 - x) / PI
    x = 10.0
    assert math.log(x - 0.5) / PI <= k_far <= math.log(x) / PI


def test_k_htilde_side_limits(ev_c1):
    x0, xs = ev_c1.bridge.x0, ev_c1.bridge.x_star
    tol = 10.0 * REGION_TOL
    for knot in (x0, xs):
        h = 1e-12 * knot
        left, mid, right = ev_c1.k_htilde_direct(np.array([knot - h, knot, knot + h]))
        assert abs(left - mid) < tol
        assert abs(right - mid) < tol
    # coarser probe used by the acceptance gate
    left, right = ev_c1.k_htilde_direct(np.array([x0 - 1e-6, x0 + 1e-6]))
    assert abs(left - right) < 1e-3


def test_region_brackets_500_samples(ev_c1):
    rng = np.random.default_rng(3)
    x0 = ev_c1.bridge.x0
    xs = np.concatenate([
        rng.uniform(-2.0, 3.0, 300),
        np.geomspace(1e-9, x0 * 0.999, 100),
        -np.geomspace(1e-9, 1.9, 100),
    ])
    xs = xs[np.abs(xs) >= 1e-12]
    for x, k in zip(xs.tolist(), ev_c1.k_htilde_direct(xs).tolist()):
        pik = PI * k
        lo, hi = region_bracket(ev_c1, x)
        slack = 1e-9 * (1.0 + abs(pik))
        assert lo - slack <= pik <= hi + slack, f"x={x}: {lo} .. {pik} .. {hi}"


def test_divergence_rate_is_logarithmic(ev_c1):
    # |K(x)| / (log(1/|x|)/pi) stays bounded along +-2^-m
    ms = np.arange(5, 31)
    for sgn in (1.0, -1.0):
        ratios = np.abs(ev_c1.k_htilde_direct(sgn * 2.0 ** -ms)) / (ms * math.log(2.0) / PI)
        assert ratios.max() < 1.0
    # ... while the value itself diverges
    deep, shallow = ev_c1.k_htilde_direct(np.array([2.0 ** -30, 2.0 ** -8]))
    assert deep < shallow - 0.1


# -- decay bounds ---------------------------------------------------------------

def test_decay_bounds_contain_value(ev_c1):
    xs = np.geomspace(1e-8, ev_c1.bridge.x0 * 0.98, 25)
    for x, k in zip(xs.tolist(), ev_c1.k_htilde_direct(xs).tolist()):
        lo, hi = decay_bounds(ev_c1, x)
        assert lo - 1e-9 <= PI * k <= hi + 1e-9


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
    xs = 2.0 ** -np.array([6, 10, 14, 18, 22])
    for x, k in zip(xs.tolist(), ev.k_htilde_direct(xs).tolist()):
        lo, hi = decay_bounds(ev, x)
        assert lo - 1e-9 <= PI * k <= hi + 1e-9


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
                others = [j for j in range(p.K) if j != k]
                kh = ev.k_htilde_direct(np.array([p.x[k] - p.x[j] for j in others]))
                expect = p.c * math.fsum(p.a[j] * v for j, v in zip(others, kh.tolist()))
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
    vals = ev_c1.table().eval_vec(us)
    assert vals[0] == -np.inf
    assert np.all(np.abs(vals[1:] - ev_c1.k_htilde_direct(us[1:])) < 1e-9)
    # deep and far arguments come from their own pieces, not a fallback
    far = np.array([2.0 ** 20, -(2.0 ** 20), 2.0 ** -55])
    direct = ev_c1.k_htilde_direct(far)
    assert np.allclose(ev_c1.table().eval_vec(far), direct, atol=1e-12)


def test_kf_vec_consistent_with_k_profile(ev_c1):
    xs = np.array([-0.7, 0.005, 0.33, 1.7])
    kv = ev_c1.kf_vec(xs)
    for x, v in zip(xs, kv):
        val, _ = ev_c1.k_profile(float(x))
        assert abs(v - val) < 1e-9


def _mid_points(tab):
    """Random |u| in [2^LO_EXP, 2^HI_EXP] on both signs, and every mid-piece
    edge with its neighbours one ulp either side, kept inside that range."""
    rng = np.random.default_rng(11)
    mags = [2.0 ** rng.uniform(tab.LO_EXP, tab.HI_EXP, 2000)]
    for negative in (False, True):
        e = 2.0 ** tab.edges[3 * negative + MID]
        mags += [e, np.nextafter(e, 0.0), np.nextafter(e, np.inf)]
    mags = np.concatenate(mags)
    mags = mags[(mags >= 2.0 ** tab.LO_EXP) & (mags <= 2.0 ** tab.HI_EXP)]
    return np.concatenate([mags, -mags])


def test_mid_layout_accuracy(ev_c1):
    # the dense sample knot +- span 2^-j / 2, j < 40, on both sides of every
    # bridge knot, where the mid pieces are narrowest, and random mid-zone
    # points on both signs, against the direct region formulas
    tab = ev_c1.table()
    b = ev_c1.bridge
    d = (b.x_star - b.x0) * 2.0 ** -np.arange(40) / 2.0
    near = np.concatenate([np.concatenate([k - d, k + d]) for k in b.knots])
    rng = np.random.default_rng(21)
    mags = 2.0 ** rng.uniform(tab.LO_EXP, tab.HI_EXP, 300)
    us = np.concatenate([near, mags, -mags])
    direct = ev_c1.k_htilde_direct(us)
    assert np.max(np.abs(tab.eval_vec(us) - direct)) <= 5e-15
    # every kept mid piece passed the tail test, and the self-check held
    rows = np.concatenate([tab.coef[tab.first[g]:tab.first[g] + len(tab.edges[g]) - 1]
                           for g in (MID, 3 + MID)])
    assert np.max(np.abs(rows[:, -3:])) <= tab.TAIL_TOL
    assert tab.max_err <= 1e-14


def test_mid_pieces_refine_the_a_priori_layout(ev_c1):
    tab = ev_c1.table()
    for negative, ends in enumerate(KHtildeTable._mid_layout(ev_c1)):
        kept = tab.edges[3 * negative + MID]
        assert set(ends.tolist()) <= set(kept.tolist())
        assert np.all(np.diff(kept) > 0.0)


def test_mid_tail_failure_raises_with_the_tail(ev_c1):
    # a tail no piece can meet is halved down to the innermost width, then
    # reported, never accepted
    class Strict(KHtildeTable):
        TAIL_TOL = 1e-30

    with pytest.raises(QuadratureError, match=r"Chebyshev tail \d\.\d{3}e-\d+ > 1\.0e-30"):
        Strict.build(ev_c1)


def test_table_lookup_matches_per_piece_oracle(ev_c1):
    tab = ev_c1.table()
    us = _mid_points(tab)
    assert np.array_equal(tab.eval_vec(us), k_htilde_per_piece(tab, us))


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=2.0 ** -48, max_value=2.0 ** 16), st.booleans())
def test_table_lookup_matches_per_piece_oracle_hypothesis(ev_c1, mag, negative):
    u = np.array([-mag if negative else mag])
    tab = ev_c1.table()
    assert np.array_equal(tab.eval_vec(u), k_htilde_per_piece(tab, u))


def test_kf_vec_is_the_per_jump_sum(ev_c1, ev_lip):
    # batched over jumps and chunked over points, bit for bit the ascending
    # sum of one kernel call per jump: the table's lookup in c1 mode,
    # K_heaviside in Lipschitz mode
    for ev, kernel in ((ev_c1, ev_c1.table().eval_vec), (ev_lip, K_heaviside)):
        p = ev.profile
        rng = np.random.default_rng(12)
        xs = np.concatenate([rng.uniform(-1.0, 1.5, 1500), np.array(p.x),
                             np.array(p.x) + 1e-20, np.array(p.x) * (1.0 + 2.0 ** -52)])
        ref = np.zeros_like(xs)
        for ak, xk in zip(p.a, p.x):
            ref += ak * kernel(xs - xk)
        assert np.array_equal(ev.kf_vec(xs), p.c * ref)
        assert np.array_equal(ev.kf_vec(xs.reshape(2, -1)), (p.c * ref).reshape(2, -1))


@pytest.mark.parametrize("e", [-1074, -1030, -1000, -60, 20, 1000])
def test_deep_and_far_pieces_match_direct(ev_c1, e):
    us = np.array([2.0 ** e, -(2.0 ** e)])
    vals = ev_c1.table().eval_vec(us)
    assert np.all(np.abs(vals - ev_c1.k_htilde_direct(us)) < 1e-12)


def test_k_htilde_finite_at_the_floor(ev_c1):
    assert np.all(np.isfinite(ev_c1.k_htilde_direct(np.array([2.0 ** -1074,
                                                             -(2.0 ** -1074)]))))


def test_non_finite_inputs(ev_c1):
    assert np.array_equal(ev_c1.table().eval_vec(np.array([np.inf, -np.inf])),
                          np.array([np.inf, np.inf]))
    assert np.array_equal(ev_c1.kf_vec(np.array([np.inf, -np.inf])),
                          np.array([np.inf, np.inf]))
    with pytest.raises(ValueError, match="NaN"):
        ev_c1.table().eval_vec(np.array([0.5, np.nan]))
    with pytest.raises(ValueError, match="NaN"):
        ev_c1.kf_vec(np.array([0.5, np.nan]))


def test_nan_raises_in_both_modes(ev_lip, ev_c1):
    # f, f', Kf and the pointwise Kf reject NaN alike in both modes; the
    # Lipschitz paths used to give 0, NaN and (nan, nan) silently
    for ev in (ev_lip, ev_c1):
        p = ev.profile
        slope = [p.fprime_vec] if p.mode == MODE_C1 else []
        for fn in [p.f_vec, ev.kf_vec, *slope]:
            with pytest.raises(ValueError, match="NaN"):
                fn(np.array([0.3, np.nan]))
        with pytest.raises(ValueError, match="NaN"):
            ev.k_profile(math.nan)
    with pytest.raises(ValueError, match="NaN"):
        K_heaviside(np.array([0.5, np.nan]))
    # Htilde itself is NaN at NaN, not whatever the output buffer held
    out = htilde_vec(ev_c1.sm, ev_c1.bridge, np.array([np.nan] * 64 + [0.3, -0.3]))
    assert np.isnan(out[:64]).all() and np.isfinite(out[64:]).all()


def test_oracle_window_stays_clear_of_the_compensator_jump(ev_c1):
    # the excision window around this x used to cross y = 1, where the
    # compensator jumps, and the extrapolation stalled at 5.1e-5
    x = 1.0009128914508851
    assert abs(pv_quadrature_oracle(ev_c1.profile, x) - ev_c1.k_profile(x)[0]) < 1e-12


# -- the batched direct path and the breadth-first build, bit for bit -------------


@pytest.mark.parametrize("spec, distinct, pieces", [
    (ModulusSpec(kind="log_inverse", c=0.1), 1752, 60),
    (ModulusSpec(kind="power", gamma=1.0), 1801, 61),
])
def test_table_build_is_the_sequential_build(spec, distinct, pieces):
    sm = SmoothedModulus(spec).selected(beta=0.5)
    prof = build_profile(MODE_C1, sm=sm, bridge=build_bridge(sm))
    ev = HilbertEvaluator(prof)
    tab = ev.table()
    ref = build_table_sequential(HilbertEvaluator(prof))
    assert np.array_equal(tab.coef, ref.coef)
    assert len(tab.edges) == len(ref.edges)
    assert all(np.array_equal(a, b) for a, b in zip(tab.edges, ref.edges))
    assert np.array_equal(tab.lo, ref.lo) and np.array_equal(tab.hi, ref.hi)
    assert tab.first == ref.first
    assert tab.max_err == ref.max_err
    # the work of a fresh build is pinned: growth fails here, not in timings
    assert len(ev._memo) == distinct
    assert len(tab.coef) == pieces


def _edge_points(ev):
    """x0 and x_star, every bridge knot and its neighbours one ulp either side,
    +-2^-1074, +-2^-1022 and its neighbours, and +-2^20."""
    pts = [ev.bridge.x0, ev.bridge.x_star]
    for k in ev.bridge.knots:
        pts += [np.nextafter(k, -np.inf), k, np.nextafter(k, np.inf)]
    normal = 2.0 ** -1022
    mags = [2.0 ** -1074, normal, np.nextafter(normal, 0.0), np.nextafter(normal, 1.0),
            2.0 ** 20]
    return np.array(pts + mags + [-m for m in mags])


def test_direct_batch_is_the_per_point_oracle_at_the_edges(ev_c1):
    us = _edge_points(ev_c1)
    batch = HilbertEvaluator(ev_c1.profile).k_htilde_direct(us)
    assert np.array_equal(batch, [pi_k_htilde(ev_c1, float(u)) / PI for u in us])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.floats(min_value=-1074.0, max_value=20.0), st.booleans()),
                min_size=1, max_size=4))
def test_direct_batch_is_the_per_point_oracle_hypothesis(ev_c1, draws):
    us = np.array([-(2.0 ** e) if negative else 2.0 ** e for e, negative in draws])
    batch = HilbertEvaluator(ev_c1.profile).k_htilde_direct(us)
    assert np.array_equal(batch, [pi_k_htilde(ev_c1, float(u)) / PI for u in us])


def test_direct_batch_stall_raises_the_oracle_error(ev_c1, monkeypatch):
    # at a region tolerance of 1e-18 these points still certify and 0.2 does
    # not (its error stalls at the rounding floor): the batch raises with the
    # measured error the oracle gives for that point
    monkeypatch.setattr(hilbert, "REGION_TOL", 1e-18)
    strict = HilbertEvaluator(ev_c1.profile)
    good = [-3.0, -0.5, 0.3, 2.0]
    assert all(math.isfinite(pi_k_htilde(strict, x)) for x in good)
    with pytest.raises(QuadratureError, match="stalled at") as oracle:
        pi_k_htilde(strict, 0.2)
    with pytest.raises(QuadratureError) as batch:
        HilbertEvaluator(ev_c1.profile).k_htilde_direct(
            np.array(good[:2] + [0.2] + good[2:]))
    assert str(batch.value) == str(oracle.value)


def test_k_htilde_direct_shapes_zeros_and_nan(ev_c1):
    us = np.array([[0.0, -0.0], [0.37, -2.5]])
    out = ev_c1.k_htilde_direct(us)
    assert out.shape == (2, 2)
    assert out[0, 0] == out[0, 1] == -np.inf
    assert out[1, 0] == ev_c1.k_htilde_direct(np.array([0.37]))[0]
    assert out[1, 1] == ev_c1.k_htilde_direct(np.array([-2.5]))[0]
    with pytest.raises(ValueError, match="NaN"):
        ev_c1.k_htilde_direct(np.array([0.5, np.nan]))
