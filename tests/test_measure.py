"""Tests for the harmonic-measure density machinery and its MC oracles.

Closed forms used as oracles:
  - straight boundary, pole at i: omega([a,b]) = (atan b - atan a)/pi
    (Poisson kernel of the upper half plane integrated over the arc);
  - single corner of angle pi - c at the origin (profile = one unit jump):
    Phi(x) - Phi(0) = e^{ic} sign-rotated |x|^q / q with q = 1 - c/pi, so
    the surface ball of radius r has preimage [-(qr)^{1/q}, (qr)^{1/q}]
    and ratio omega/length = q^{1/q} r^{(1-q)/q};
  - power products: int_{-e}^{e} |x|^{-b} dx = 2 e^{1-b} / (1-b).
"""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nondini import conformal, measure
from nondini.conformal import BoundaryTrace, trace_boundary
from nondini.hilbert import HilbertEvaluator
from nondini.measure import (
    _B,
    MCConfig,
    _block_circles,
    _extended_segments,
    _nearest_in_blocks,
    appendix_product_integral,
    density_at,
    is_interior,
    measure_ratio,
    pole_comparison,
    singular_set_scan,
    wos_harmonic_measure,
)
from nondini.modulus import ModulusSpec, SmoothedModulus
from nondini.profile import MODE_C1, MODE_LIPSCHITZ, build_bridge, build_profile
from nondini.quadrature import QuadratureError
from oracles import (
    bisect_crossing,
    nearest_on_segments_bruteforce,
    polyline_segments,
    wos_polyline_counts,
)

WEDGE_C = 0.9
WEDGE_Q = 1.0 - WEDGE_C / math.pi


@pytest.fixture(scope="module")
def ev_c1():
    sm = SmoothedModulus(ModulusSpec(kind="log_inverse", c=0.1)).selected(beta=0.5)
    return HilbertEvaluator(build_profile(MODE_C1, sm=sm, bridge=build_bridge(sm)))


@pytest.fixture(scope="module")
def ev_lip():
    return HilbertEvaluator(build_profile(MODE_LIPSCHITZ))


@pytest.fixture(scope="module")
def trace_lip(ev_lip):
    return trace_boundary(ev_lip, -1.0, 1.2, base_n=200)


@pytest.fixture(scope="module")
def trace_c1(ev_c1):
    return trace_boundary(ev_c1, -1.0, 1.2, base_n=40)


@pytest.fixture(scope="module")
def ev_wedge():
    return HilbertEvaluator(build_profile(
        MODE_LIPSCHITZ, jumps=[0.0], amps=[1.0], c_prime_target=WEDGE_C))


@pytest.fixture(scope="module")
def trace_wedge(ev_wedge):
    return trace_boundary(ev_wedge, -2.0, 2.0, base_n=200)


# -- pointwise density -----------------------------------------------------------


def test_density_times_map_derivative_is_one(ev_c1):
    # |Phi'| = exp(-Kf) pointwise, so density * |Phi'| must telescope to 1.
    for x in [-1.0, -0.3, 0.7, 1.7, 3.0]:
        d = density_at(ev_c1, x)
        assert not d.singular
        kf = float(ev_c1.kf_vec(np.array([x]))[0])
        assert d.value * math.exp(-kf) == pytest.approx(1.0, abs=1e-10)


def test_density_identity_boundary():
    d = density_at(None, 1.23)
    assert (d.x, d.value, d.singular) == (1.23, 1.0, False)


def test_density_singular_sentinels(ev_lip):
    for xk in ev_lip.profile.x:
        d = density_at(ev_lip, xk)
        assert d.singular and d.value == 0.0
    d0 = density_at(ev_lip, 0.0)
    assert d0.singular and d0.value == 0.0


# -- surface-ball ratios ---------------------------------------------------------


def test_flat_ratio_is_one():
    b = measure_ratio(None, 0.3, 0.5)
    assert b.ratio == pytest.approx(1.0, abs=1e-12)
    assert b.x_lo == pytest.approx(-0.2, abs=1e-12)
    assert b.x_hi == pytest.approx(0.8, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(center=st.floats(-2.0, 2.0), r=st.floats(0.1, 1.5))
def test_flat_ratio_is_one_everywhere(center, r):
    b = measure_ratio(None, center, r)
    assert b.ratio == pytest.approx(1.0, abs=1e-12)
    assert b.x_hi - b.x_lo == pytest.approx(2.0 * r, abs=1e-12)


def test_wedge_vertex_ratio_closed_form(ev_wedge):
    q = WEDGE_Q
    for r in [2.0 ** -6, 2.0 ** -8, 2.0 ** -10]:
        b = measure_ratio(ev_wedge, 0.0, r)
        closed = q ** (1.0 / q) * r ** ((1.0 - q) / q)
        assert b.ratio == pytest.approx(closed, rel=1e-8)
        half = (q * r) ** (1.0 / q)
        assert b.x_lo == pytest.approx(-half, rel=1e-8)
        assert b.x_hi == pytest.approx(half, rel=1e-8)


def test_wedge_vertex_scan_slope(ev_wedge):
    rs = [2.0 ** -k for k in range(4, 15, 2)]
    rep = singular_set_scan(ev_wedge, [0.0], rs, threshold=1e-2)
    c = rep.centers[0]
    assert c.density_singular
    # pure power law r^{(1-q)/q}: the log-log fit recovers it exactly
    assert c.fitted_slope == pytest.approx((1.0 - WEDGE_Q) / WEDGE_Q, abs=1e-6)
    assert not c.flagged


def test_ratio_converges_monotonically_at_regular_points(ev_lip):
    # quadratic convergence of omega/length to the pointwise density, and
    # Ahlfors regularity: the ball of radius r carries arc length close to 2r
    for xc in [-0.5, 1.1, 0.8]:
        d = density_at(ev_lip, xc).value
        errs = []
        for r in [2.0 ** -k for k in range(4, 13)]:
            b = measure_ratio(ev_lip, xc, r)
            errs.append(abs(b.ratio - d))
            assert 1.0 <= b.length / r <= 4.0
        assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))
        assert errs[-1] < 1e-8


def test_ball_preimage_errors(ev_lip, monkeypatch):
    with pytest.raises(ValueError, match="radius must be positive"):
        measure_ratio(None, 0.0, -0.1)
    # Phi is defined on the whole line, so a ball is out of reach only when
    # its ladder has not climbed to r within _LADDER_DOUBLINGS doublings
    increment = measure._increment
    monkeypatch.setattr(measure, "_increment",
                        lambda *args: 1e-9 * increment(*args))
    monkeypatch.setattr(measure, "_LADDER_DOUBLINGS", 2)
    with pytest.raises(ValueError, match=r"out of reach: \|Phi\(c \+ u\) - Phi\(c\)\| "
                       r"= \d\.\d{3}e-\d\d at u = -2\.500e-01 after 2 doublings"):
        measure_ratio(ev_lip, 0.7, 2.0 ** -5)


@settings(max_examples=20, deadline=None)
@given(jumps=st.lists(st.integers(-16, 16), min_size=1, max_size=6, unique=True),
       amps=st.lists(st.floats(0.05, 1.0), min_size=6, max_size=6),
       c_prime=st.floats(0.05, 1.55), center=st.floats(-1.5, 1.5),
       offsets=st.lists(st.integers(0, 80), min_size=2, max_size=12, unique=True))
def test_distance_from_center_increases_on_both_sides(jumps, amps, c_prime,
                                                       center, offsets):
    # f in [0, c'] with c' < pi/2 puts D(u) = Phi(c + u) - Phi(c) and G(c + u)
    # in one cone of half-angle below pi/2, so |D| increases in |u| on either
    # side: every surface ball's preimage is one interval. Jumps sit on a
    # 1/16 grid and the offsets 2^(-k/4) run from 1 down to 1e-6.
    ev = HilbertEvaluator(build_profile(MODE_LIPSCHITZ, jumps=[j / 16.0 for j in jumps],
                                        amps=amps[:len(jumps)],
                                        c_prime_target=c_prime))
    u = np.r_[0.0, 2.0 ** (-np.array(sorted(offsets, reverse=True)) / 4.0)]
    for side in (-1.0, 1.0):
        xs = center + side * u
        d = np.cumsum(conformal._boundary_integral(ev, xs[:-1], xs[1:]))
        assert np.all(np.diff(np.abs(d)) > 0.0)


# -- crossing solve against the bisection oracle ----------------------------------

JUMP_RADII = [2.0 ** -k for k in range(6, 15)]


def _recorded_crossings(monkeypatch, solve):
    """Run solve() with every crossing recorded as (ev, center, x_in, x_out,
    r, x): the bracket each Newton solve started from, and its result."""
    rows = []
    sides = []
    preimages, newton = measure._ball_preimages, measure._newton_crossings

    def recording_preimages(ev, centres, rs):
        sides[:] = [c for c in centres for _ in (-1, 1)]
        return preimages(ev, centres, rs)

    def recording_newton(ev, a, d_a, b, r):
        x = newton(ev, a, d_a, b, r)
        per_side = len(a) // len(sides)
        rows.extend((ev, sides[k // per_side], *v)
                    for k, v in enumerate(zip(a, b, r, x)))
        return x

    monkeypatch.setattr(measure, "_ball_preimages", recording_preimages)
    monkeypatch.setattr(measure, "_newton_crossings", recording_newton)
    solve()
    return rows


def _assert_match_oracle(rows):
    assert rows
    for ev, center, x_in, x_out, r, x in rows:
        ref = bisect_crossing(ev, center, x_in, x_out, r)
        assert abs(x - ref) <= 2e-15 * max(1.0, abs(x))


@pytest.mark.parametrize("case", ["c1", "lipschitz", "wedge", "identity"])
def test_crossings_match_bisection_oracle(case, request, monkeypatch):
    if case == "identity":
        ev = None
        balls = [(x, r) for x in (0.3, 0.0, 1.7) for r in (0.5, 1.0 / 3.0, 0.1)]
    elif case == "wedge":
        ev = request.getfixturevalue("ev_wedge")
        balls = [(0.0, r) for r in JUMP_RADII]
    else:
        ev = request.getfixturevalue("ev_c1" if case == "c1" else "ev_lip")
        balls = [(x, r) for x in (0.5, 0.25, 0.75) for r in JUMP_RADII]
    rows = _recorded_crossings(monkeypatch, lambda: [
        measure_ratio(ev, x, r) for x, r in balls])
    assert len(rows) == 2 * len(balls)
    _assert_match_oracle(rows)


@pytest.mark.parametrize("mode", ["c1", "lip"])
def test_ratio_boundary_integral_count(mode, request, monkeypatch):
    # a whole default scan: every Newton round evaluates G once (nothing else
    # in a scan does) and makes one boundary-integral call; the ladders, the
    # centre images and the arc lengths take one call each
    ev = request.getfixturevalue("ev_" + mode)
    calls = {"split": 0, "g": 0}
    split, g = conformal.split_integrals, measure._boundary_g

    def counted(key, fn):
        def wrapper(*args, **kw):
            calls[key] += 1
            return fn(*args, **kw)
        return wrapper

    monkeypatch.setattr(conformal, "split_integrals", counted("split", split))
    monkeypatch.setattr(measure, "_boundary_g", counted("g", g))
    measure.singular_set_scan(ev, [0.5, 0.25, 0.7], JUMP_RADII, control_tol=1.0)
    rounds = calls["g"]
    assert 1 <= rounds <= 6
    assert calls["split"] <= rounds + 3


def test_wrong_derivative_still_reaches_oracle(ev_lip, ev_c1, monkeypatch):
    # G scaled by 10 makes every Newton step 10x too short; the bracket,
    # with its midpoint fallback, still closes on the crossing
    def scaled_g(ev):
        g = conformal._boundary_g(ev)
        return lambda ys: 10.0 * g(ys)

    monkeypatch.setattr(measure, "_boundary_g", scaled_g)
    rows = _recorded_crossings(monkeypatch, lambda: [
        measure_ratio(ev, x, r) for ev in (ev_lip, ev_c1)
        for x in (0.5, 0.75) for r in (2.0 ** -6, 2.0 ** -14)])
    _assert_match_oracle(rows)


def test_crossing_step_cap_raises(ev_lip, monkeypatch):
    monkeypatch.setattr(measure, "_CROSSING_STEPS", 1)
    with pytest.raises(QuadratureError,
                       match=r"after 1 Newton steps: bracket width \d\.\d{3}e-\d\d"):
        measure_ratio(ev_lip, 0.5, 2.0 ** -8)


# -- singular set scan -----------------------------------------------------------


def test_lipschitz_jump_slopes(ev_lip):
    # at jump x_k the map behaves like |x - x_k|^{p_k} with p_k = c a_k / pi,
    # so omega/length ~ r^{p_k/(1-p_k)}
    p = ev_lip.profile
    rs = [2.0 ** -k for k in range(8, 21)]
    rep = singular_set_scan(ev_lip, [p.x[k] for k in range(4)], rs,
                            threshold=1e-2)
    for k, c in enumerate(rep.centers):
        pk = (p.c_prime / math.pi) * 2.0 ** -(k + 1)
        assert c.fitted_slope == pytest.approx(pk / (1.0 - pk), abs=1e-3)
        assert all(b < a for a, b in zip(c.ratios, c.ratios[1:]))
        assert not c.flagged  # decay is too slow to cross 1e-2 by r = 2^-20


def test_scan_flags_dominant_jump(ev_lip):
    p = ev_lip.profile
    centers = [p.x[k] for k in range(8)] + [-0.5, 1.1]
    rs = [2.0 ** -k for k in range(8, 21)]
    rep = singular_set_scan(ev_lip, centers, rs, threshold=0.2)
    assert rep.flagged_set() == (0.5,)
    by_x = {c.x: c for c in rep.centers}
    for x in (-0.5, 1.1):
        ctl = by_x[x]
        assert not ctl.flagged and not ctl.density_singular
        assert ctl.ratios[-1] == pytest.approx(ctl.density, abs=1e-3)
        assert abs(ctl.fitted_slope) < 1e-3


def test_scan_control_violation_raises(ev_lip):
    with pytest.raises(ValueError, match="control at x=-0.5"):
        singular_set_scan(ev_lip, [-0.5], [2.0 ** -4, 2.0 ** -5],
                          control_tol=1e-9)


def test_scan_needs_two_distinct_radii(ev_lip):
    with pytest.raises(ValueError, match="two distinct radii"):
        singular_set_scan(ev_lip, [0.5], [0.25])
    with pytest.raises(ValueError, match="two distinct radii"):
        singular_set_scan(ev_lip, [0.5], [0.25, 0.25])


def test_scan_identity_boundary():
    rep = singular_set_scan(None, [0.0, 1.0], [0.5, 0.25, 0.125])
    assert rep.flagged_set() == ()
    for c in rep.centers:
        assert c.ratios == (1.0, 1.0, 1.0)
        assert c.density == 1.0


def test_report_csv_and_json(ev_lip):
    rs = [2.0 ** -8, 2.0 ** -9, 2.0 ** -10]
    rep = singular_set_scan(ev_lip, [0.5, -0.5], rs, threshold=0.2,
                            control_tol=1e-2)
    buf = io.StringIO()
    rep.to_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "center_x,r,omega,length,ratio,flagged"
    assert len(lines) == 1 + 2 * 3
    first = lines[1].split(",")
    assert float(first[0]) == 0.5
    assert float(first[1]) == 2.0 ** -8
    # 17 significant digits round-trip exactly
    assert float(first[4]) == rep.centers[0].ratios[0]
    js = rep.to_json_summary()
    assert js["flagged"] == []
    assert {c["x"] for c in js["centers"]} == {0.5, -0.5}
    entry = next(c for c in js["centers"] if c["x"] == 0.5)
    assert entry["density_singular"] is True
    assert entry["final_ratio"] == rep.centers[0].ratios[-1]


# -- walk-on-spheres -------------------------------------------------------------


def test_interior_parity():
    tr = BoundaryTrace.flat(-8.0, 8.0, 33)
    assert is_interior(tr, 1j)
    assert not is_interior(tr, -1j)


def _curve_trace(n):
    """A wavy polyline with n points (not a traced Phi, only a geometry)."""
    xs = np.linspace(-2.0, 2.0, n)
    return BoundaryTrace(x=xs, phi=xs + 0.3j * np.sin(3.0 * xs),
                         abs_dphi=np.ones(n), is_singular=np.zeros(n, bool),
                         c_prime=0.0)


def _search_queries(trace, far_radius, rng):
    """Points on the boundary, at its vertices, beside and on the tail rays,
    near the far-field circle, and scattered around the traced curve."""
    P = np.asarray(trace.phi)
    seg_s, seg_e, _, _ = polyline_segments(trace, far_radius)
    t = rng.random(P.size - 1)
    on_boundary = [P, 0.5 * (P[:-1] + P[1:]), P[:-1] + t * (P[1:] - P[:-1])]
    beside = [P + h * 1j * np.exp(1j * rng.uniform(0, 2 * np.pi, P.size))
              for h in (1e-12, 1e-6, 1e-2)]
    rays = []
    for j in (0, -1):
        u = (seg_e[j] - seg_s[j]) / abs(seg_e[j] - seg_s[j])
        foot = seg_e[0] if j == 0 else seg_s[-1]
        sign = -1.0 if j == 0 else 1.0
        s = np.concatenate([[0.0],
                            np.logspace(-12, np.log10(4 * far_radius), 40)])
        for off in (0.0, 1e-12, -1e-9, 1e-3, -0.5, 2.0):
            rays.append(foot + sign * s * u + off * 1j * u)
    ang = rng.uniform(0, 2 * np.pi, 400)
    far = [far_radius * (1.0 - 1e-9) * np.exp(1j * ang),
           0.9 * far_radius * np.exp(1j * ang)]
    lo, hi = P.real.min() - 1.0, P.real.max() + 1.0
    blo, bhi = P.imag.min() - 1.0, P.imag.max() + 1.0
    box = [rng.uniform(lo, hi, 4000) + 1j * rng.uniform(blo, bhi, 4000)]
    return np.concatenate(on_boundary + beside + rays + far + box)


def _search_trace(name, request):
    return {
        "lip": lambda: request.getfixturevalue("trace_lip"),
        "c1": lambda: request.getfixturevalue("trace_c1"),
        # fewer segments than two blocks, collinear: a tie at every vertex
        "flat": lambda: BoundaryTrace.flat(-8.0, 8.0, 33),
        # a segment count that is not a multiple of the block size
        "curve": lambda: _curve_trace(3 * _B + 6),
        "wedge": lambda: request.getfixturevalue("trace_wedge"),
    }[name]()


SEARCH_TRACES = ["lip", "c1", "flat", "curve", "wedge"]


@pytest.mark.parametrize("name", SEARCH_TRACES)
def test_block_circles_bound_every_computed_distance(name, request):
    # |z - c| - R stays below the computed distance to every segment of the
    # block, also for points a few ulps outside the farthest endpoint, where
    # a radius without its 1e-12 inflation fails by rounding
    seg_s, seg_e, _, _ = polyline_segments(_search_trace(name, request),
                                           4096.0)
    centres, radii = _block_circles(seg_s, seg_e)
    m = seg_s.size - 2
    assert centres.size == -(-m // _B)
    rng = np.random.default_rng(2)
    for b in range(centres.size):
        j = np.arange(1 + _B * b, min(_B * (b + 1), m) + 1)
        pts = np.concatenate([seg_s[j], seg_e[j]])
        out = np.exp(1j * np.angle(pts - centres[b]))
        z = np.concatenate(
            [pts + h * out for h in (0.0, 1e-17, 1e-16, 3e-16, 1e-15, 1e-14)]
            + [pts + 1e-16 * np.exp(2j * np.pi * rng.random(pts.size))
               for _ in range(5)])
        dist = nearest_on_segments_bruteforce(z, seg_s[j], seg_e[j])[0]
        assert np.all(np.abs(z - centres[b]) - radii[b] <= dist)


@pytest.mark.parametrize("name", SEARCH_TRACES)
def test_nearest_segment_search_matches_bruteforce(name, request):
    # the block-pruned search returns the brute force's (distance, index, t)
    # bit for bit, ties at shared vertices included
    trace = _search_trace(name, request)
    assert name != "curve" or (trace.x.size - 1) % _B != 0
    rng = np.random.default_rng(5)
    for far_radius in (8.0, 4096.0):
        seg_s, seg_e, _, _ = polyline_segments(trace, far_radius)
        z = _search_queries(trace, far_radius, rng)
        fast = _nearest_in_blocks(z, seg_s, seg_e, *_block_circles(seg_s, seg_e))
        slow = nearest_on_segments_bruteforce(z, seg_s, seg_e)
        for a, b in zip(fast, slow):
            assert np.array_equal(a, b)
    # the queries include exact hits on vertices shared by two segments
    assert np.any(slow[0] == 0.0)


@pytest.mark.parametrize("m", [1, 2, _B - 1, _B, _B + 1])
def test_nearest_segment_search_short_polylines(m):
    # the segment counts that merged traces hand the search: a single block,
    # a full one, and a full one followed by a short last block
    trace = _curve_trace(m + 1)
    rng = np.random.default_rng(m)
    for far_radius in (8.0, 4096.0):
        seg_s, seg_e, _, _ = polyline_segments(trace, far_radius)
        assert seg_s.size == m + 2
        z = _search_queries(trace, far_radius, rng)
        fast = _nearest_in_blocks(z, seg_s, seg_e, *_block_circles(seg_s, seg_e))
        slow = nearest_on_segments_bruteforce(z, seg_s, seg_e)
        for a, b in zip(fast, slow):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("name", SEARCH_TRACES)
def test_merged_segments_drop_only_vertices_on_their_chord(name, request):
    trace = _search_trace(name, request)
    P, X = np.asarray(trace.phi), np.asarray(trace.x)
    tau = measure._merge_tolerance(P)
    assert 0.0 < tau <= 3e-12 * np.abs(P - P[0]).max()
    seg_s, seg_e, keys, xs = _extended_segments(trace, 4096.0)
    poly_s, poly_e, _, _ = polyline_segments(trace, 4096.0)
    # the rays are the polyline's, and the merged segments join end to end
    # from the first trace vertex to the last
    assert seg_s[0] == poly_s[0] and seg_e[-1] == poly_e[-1]
    assert np.array_equal(seg_e[:-1], seg_s[1:])
    kept = [int(np.flatnonzero(P == v)[0]) for v in seg_s[1:]]
    assert kept[0] == 0 and kept[-1] == P.size - 1
    assert np.all(np.diff(kept) > 0)
    for a, b in zip(kept, kept[1:]):
        dist = nearest_on_segments_bruteforce(P[a + 1:b], P[a:a + 1], P[b:b + 1])[0]
        assert np.all(dist <= tau)
    # one knot per trace vertex with its own x, a kept vertex at the start
    # of its segment, between the rays' far ends
    assert np.array_equal(xs[1:-1], X)
    assert np.array_equal(keys[1:-1][kept], 1.0 + np.arange(len(kept)))
    assert np.all(np.diff(keys) > 0.0)
    assert keys[0] == 0.0 and keys[-1] == len(kept) + 1.0


def test_merged_segments_of_straight_traces(trace_lip):
    # the default Lipschitz trace: one segment per interval between its
    # K = 20 jumps, at most; a straight trace: one segment at any density
    assert _extended_segments(trace_lip, 4096.0)[0].size - 1 <= 20 + 2
    for n in (33, 161):
        assert _extended_segments(BoundaryTrace.flat(-8.0, 8.0, n), 4096.0)[0].size == 3


def test_merged_segments_reject_keys_that_do_not_increase():
    # a vertex 1e-13 behind the one before it, well within tau of the merged
    # straight segment, projects behind it
    xs = np.array([0.0, 1.0, 2.0, 3.0])
    phi = np.array([0.0, 1.0, 1.0 - 1e-13, 3.0], dtype=complex)
    trace = BoundaryTrace(x=xs, phi=phi, abs_dphi=np.ones(4),
                          is_singular=np.zeros(4, bool), c_prime=0.0)
    with pytest.raises(ValueError, match="increase strictly: key .* at x = 2"):
        _extended_segments(trace, 16.0)


@pytest.mark.parametrize("name, arcs, seed", [
    # the default Lipschitz trace with mc-oracle's arcs, rounded
    ("lip", list(zip(np.linspace(-0.89, 1.09, 5)[:-1],
                     np.linspace(-0.89, 1.09, 5)[1:])), 0),
    # criterion 9's wedge
    ("wedge", [(-2.0, -1.0), (-1.0, 0.0), (0.0, 1.0), (1.0, 2.0)], 7),
    ("c1", [(-0.5, 0.0), (0.0, 0.25), (0.25, 0.5), (0.5, 1.0)], 0),
])
def test_merged_walk_counts_equal_the_polyline_walk(name, arcs, seed, request):
    trace = _search_trace(name, request)
    mc = MCConfig(n_walkers=4000, seed=seed, wos_epsilon=1e-4)
    rep = wos_harmonic_measure(trace, 0j, arcs, mc)
    assert rep.counts == wos_polyline_counts(trace, 0j, arcs, mc)


_CURVE = _curve_trace(3 * _B + 6)
_CURVE_SEGS = polyline_segments(_CURVE, 16.0)


@settings(max_examples=200, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, _CURVE.x.size - 1),
              st.sampled_from([0.0, 1e-15, 1e-9, 1e-4, 0.1, 3.0, 15.0]),
              st.floats(0.0, 2.0 * math.pi)),
    min_size=1, max_size=40))
def test_nearest_segment_search_property(points):
    # vertices pushed off by any of a ladder of distances in any direction
    P = np.asarray(_CURVE.phi)
    z = np.array([P[j] + h * complex(math.cos(a), math.sin(a))
                  for j, h, a in points])
    fast = _nearest_in_blocks(z, *_CURVE_SEGS[:2], *_block_circles(*_CURVE_SEGS[:2]))
    slow = nearest_on_segments_bruteforce(z, *_CURVE_SEGS[:2])
    for a, b in zip(fast, slow):
        assert np.array_equal(a, b)


def test_wos_halfplane_matches_poisson_kernel():
    tr = BoundaryTrace.flat(-8.0, 8.0, 33)
    mc = MCConfig(n_walkers=20_000, seed=42, wos_epsilon=1e-4)
    rep = wos_harmonic_measure(tr, 1j, [(-1.0, 0.0), (0.0, 1.0)], mc)
    assert rep.n_lost == 0
    assert rep.n_absorbed + rep.n_far == rep.n_walkers
    for f, s in zip(rep.frequencies, rep.sigmas):
        assert abs(f - 0.25) < 3.0 * s
    joint = rep.frequencies[0] + rep.frequencies[1]
    s_joint = math.sqrt(0.5 * 0.5 / rep.n_walkers)
    assert abs(joint - 0.5) < 3.0 * s_joint


def test_wos_deterministic_and_resolution_independent():
    # the angle stream depends only on (seed, step, walker), and the polyline
    # is the same straight line at any sampling density
    mc = MCConfig(n_walkers=20_000, seed=42, wos_epsilon=1e-4)
    arcs = [(-1.0, 0.0), (0.0, 1.0)]
    r1 = wos_harmonic_measure(BoundaryTrace.flat(-8.0, 8.0, 33), 1j, arcs, mc)
    r2 = wos_harmonic_measure(BoundaryTrace.flat(-8.0, 8.0, 33), 1j, arcs, mc)
    r3 = wos_harmonic_measure(BoundaryTrace.flat(-8.0, 8.0, 161), 1j, arcs, mc)
    assert r1.counts == r2.counts == r3.counts == (4978, 4906)


def test_wos_wedge_matches_halfplane_pullback(ev_wedge, trace_wedge):
    # conformal invariance: omega_wedge(Phi(i), Phi([a,b])) = omega_H(i, [a,b])
    arcs = [(-2.0, -1.0), (-1.0, 0.0), (0.0, 1.0), (1.0, 2.0)]
    mc = MCConfig(n_walkers=20_000, seed=7, wos_epsilon=1e-4)
    rep = wos_harmonic_measure(trace_wedge, 0j, arcs, mc)
    assert rep.n_lost == 0
    for (a, b), f, s in zip(rep.arcs, rep.frequencies, rep.sigmas):
        exact = (math.atan(b) - math.atan(a)) / math.pi
        assert abs(f - exact) < 3.0 * s


def test_wos_validations():
    tr = BoundaryTrace.flat(-8.0, 8.0, 33)
    mc = MCConfig(n_walkers=2000, seed=1)
    with pytest.raises(ValueError, match="at least one arc"):
        wos_harmonic_measure(tr, 1j, [], mc)
    with pytest.raises(ValueError, match="endpoints must increase"):
        wos_harmonic_measure(tr, 1j, [(1.0, 1.0)], mc)
    with pytest.raises(ValueError, match="must not overlap"):
        wos_harmonic_measure(tr, 1j, [(0.0, 1.0), (0.5, 2.0)], mc)
    with pytest.raises(ValueError, match="inside the traced window"):
        wos_harmonic_measure(tr, 1j, [(-9.0, 0.0)], mc)
    with pytest.raises(ValueError, match="below arc width"):
        wos_harmonic_measure(tr, 1j, [(0.0, 1e-4)], mc)
    with pytest.raises(ValueError, match="interior"):
        wos_harmonic_measure(tr, -1j, [(0.0, 1.0)], mc)
    # a pole outside the far-field disk would lose most walkers at once
    for pole in (10j, 8j):
        with pytest.raises(ValueError, match="far_radius"):
            wos_harmonic_measure(tr, pole, [(-1.0, 1.0)],
                                 MCConfig(n_walkers=2000, far_radius=8.0))
    with pytest.raises(RuntimeError, match="exceeded max_steps"):
        wos_harmonic_measure(tr, 1j, [(0.0, 1.0)],
                             MCConfig(n_walkers=2000, seed=1, max_steps=3))


def test_mc_config_validation():
    with pytest.raises(ValueError):
        MCConfig(n_walkers=0)
    with pytest.raises(ValueError):
        MCConfig(wos_epsilon=0.0)
    with pytest.raises(ValueError):
        MCConfig(max_steps=0)
    with pytest.raises(ValueError):
        MCConfig(far_radius=0.5)


# -- finite pole vs pole at infinity ---------------------------------------------


def test_pole_comparison_flat_arctan():
    tr = BoundaryTrace.flat(-8.0, 8.0, 33)
    rs = [2.0 ** -k for k in range(2, 7)]
    mc = MCConfig(n_walkers=40_000, seed=11, wos_epsilon=1e-5)
    rep = pole_comparison(tr, None, 1j, 0.0, rs, mc)
    assert rep.dropped == ()
    assert rep.r_kept == tuple(sorted(rs))
    for r, f, s, w in zip(rep.r_kept, rep.omega_pole, rep.sigmas,
                          rep.omega_infinity):
        assert w == pytest.approx(2.0 * r, abs=1e-12)
        exact = 2.0 * math.atan(r) / math.pi
        assert abs(f - exact) < 3.0 * s
    # ratio tends to the Poisson kernel value 1/pi at the pole's foot
    assert rep.ratios[0] == pytest.approx(1.0 / math.pi, rel=0.1)


def test_pole_comparison_wedge_bounded(ev_wedge, trace_wedge):
    rs = [2.0 ** -k for k in range(4, 11, 2)]
    mc = MCConfig(n_walkers=60_000, seed=3, wos_epsilon=1e-5)
    rep = pole_comparison(trace_wedge, ev_wedge, 0j, 0.0, rs, mc)
    reasons = dict(rep.dropped)
    assert "absorption shell" in reasons[2.0 ** -10]
    assert "statistical error" in reasons[2.0 ** -8]
    assert rep.r_kept == (2.0 ** -6, 2.0 ** -4)
    assert rep.max_ratio / rep.min_ratio < 10.0
    q = WEDGE_Q
    for r, f, s, w in zip(rep.r_kept, rep.omega_pole, rep.sigmas,
                          rep.omega_infinity):
        half = (q * r) ** (1.0 / q)
        assert w == pytest.approx(2.0 * half, rel=1e-8)
        exact = 2.0 * math.atan(half) / math.pi
        assert abs(f - exact) < 3.0 * s


def test_pole_comparison_errors():
    tr = BoundaryTrace.flat(-8.0, 8.0, 33)
    mc = MCConfig(n_walkers=2000, seed=1)
    with pytest.raises(ValueError, match="twice the largest ball"):
        pole_comparison(tr, None, 0.1j, 0.0, [0.25], mc)
    with pytest.raises(ValueError, match="below the sampler resolution"):
        pole_comparison(tr, None, 1j, 0.0, [0.25],
                        MCConfig(n_walkers=2000, seed=1, wos_epsilon=0.06))
    with pytest.raises(ValueError, match="positive and distinct"):
        pole_comparison(tr, None, 1j, 0.0, [0.25, 0.25], mc)
    with pytest.raises(ValueError, match="far_radius"):
        pole_comparison(tr, None, 10j, 0.0, [0.25],
                        MCConfig(n_walkers=2000, seed=1, far_radius=8.0))


# -- product integrability -------------------------------------------------------


def test_appendix_single_factor_closed_form():
    rep = appendix_product_integral([0.25], [0.01], jumps=[0.0])
    closed = 2.0 * 0.01 ** 0.75 / 0.75
    assert rep.integrals[0] == pytest.approx(closed, rel=1e-10)
    assert rep.left_integrals[0] == pytest.approx(0.5 * closed, rel=1e-10)
    assert math.isnan(rep.fitted_slope)
    assert rep.bound_ok and rep.left_bound_ok


def test_appendix_pair_at_origin_scaling():
    eps = [2.0 ** -k for k in range(4, 15)]
    rep = appendix_product_integral([0.125, 0.125], eps, jumps=[0.0, 0.0])
    assert rep.sum_b == 0.25
    assert rep.fitted_slope == pytest.approx(0.75, abs=1e-4)
    assert rep.bound_ok and rep.left_bound_ok


def test_appendix_slope_window():
    # any placement lands between full singularity concentration (1 - sum b)
    # and a bounded integrand (slope 1)
    eps = [2.0 ** -k for k in range(4, 15)]
    for jumps in ([0.0, 0.0], [0.5, 0.25], [0.0, 0.25], [0.01, 0.02]):
        rep = appendix_product_integral([0.125, 0.125], eps, jumps=jumps)
        assert 1.0 - rep.sum_b - 0.05 <= rep.fitted_slope <= 1.0 + 5e-3


def test_appendix_pair_at_dyadic_points():
    # with factors at 2^-1 and 2^-2 the windows below 2^-4 contain no
    # singular point, so the integral scales like the window itself
    eps = [2.0 ** -k for k in range(4, 15)]
    rep = appendix_product_integral([0.125, 0.125], eps)
    assert rep.integrals[0] == pytest.approx(0.162434, rel=1e-5)
    assert rep.fitted_slope == pytest.approx(1.0, abs=5e-3)
    assert abs(rep.fitted_slope - 0.75) > 0.2
    assert rep.bound_ok and rep.left_bound_ok


def test_appendix_geometric_exponents():
    eps = [2.0 ** -k for k in range(4, 15)]
    b = [2.0 ** -k / 16.0 for k in range(1, 7)]
    rep = appendix_product_integral(b, eps, jumps=[0.0] * 6)
    assert rep.sum_b == pytest.approx(63.0 / 1024.0, abs=1e-15)
    assert rep.fitted_slope == pytest.approx(1.0 - rep.sum_b, abs=1e-3)
    assert rep.bound_ok and rep.left_bound_ok


def test_appendix_left_bound_holds_at_dyadic_placement():
    # the one-sided estimate only uses |x - s_k| >= |x| for x < 0 <= s_k,
    # so it holds for the dyadic placement as well
    eps = [2.0 ** -k for k in range(2, 9)]
    rep = appendix_product_integral([0.1, 0.2], eps)
    sb = 0.3
    for e, left in zip(rep.eps, rep.left_integrals):
        assert left <= e ** (1.0 - sb) / (1.0 - sb) * (1.0 + 1e-9)
    assert rep.left_bound_ok


def test_appendix_validations():
    eps = [0.1, 0.05]
    with pytest.raises(ValueError, match="below 1/2"):
        appendix_product_integral([0.3, 0.3], eps)
    with pytest.raises(ValueError, match="positive"):
        appendix_product_integral([], eps)
    with pytest.raises(ValueError, match="positive"):
        appendix_product_integral([-0.1], eps)
    with pytest.raises(ValueError, match="positive"):
        appendix_product_integral([0.25], [])
    with pytest.raises(ValueError, match="strictly decreasing"):
        appendix_product_integral([0.25], [0.05, 0.1])
    with pytest.raises(ValueError, match="one location per exponent"):
        appendix_product_integral([0.25], eps, jumps=[0.1, 0.2])
    with pytest.raises(ValueError, match="non-negative"):
        appendix_product_integral([0.25], eps, jumps=[-1.0])
