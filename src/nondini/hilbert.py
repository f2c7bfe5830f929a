"""Hilbert transform of the tangent-angle profiles.

The transform is normalized with the far-field compensator,

    Kh(x) = lim_{eps->0} (1/pi) int h(y) [ chi_{|x-y|>=eps}/(x-y) + chi_{|y|>1}/y ] dy,

so that K of a Heaviside step at 0 is (1/pi) log|x|. For the C1 unit profile
Htilde (0 | theta_tilde | bridge g | 1) the compensated transform collapses to

    pi * K(x) = PV int_0^{x_star} Htilde(y)/(x-y) dy + log|x - x_star|,

because Htilde == 1 for y >= x_star and the y > 1 compensator exactly cancels
the tail (x_star <= 1/2). Each region then gets its own cancellation-free
arrangement: the PV log terms are pulled out in closed form and the remaining
integrands are difference quotients, bounded by local slope data.

These direct formulas run for a batch of points at once: every point's rise
integral and every point's bridge integral, each over its own edge list, go
through one certified `gauss_graded` call each, so the integrand runs on
chunks of nodes from many points. The bridge integrals away from [x0, x_star]
all run over the same two cached grids, whose nodes do not depend on x; g
there is read from a per-evaluator node memo. Each value has the bits of
integrating that point alone.

An independent principal-value quadrature oracle (the window around x folded
onto s = |y - x| into one regular integral, plus two outer pieces and a closed
tail) is provided for cross-checks; it only ever touches profile values, never
the region formulas.

Conventions: `kf_vec` is one jump sum (`TangentProfile._jump_sum`) of
K_heaviside in Lipschitz mode and of the table in c1 mode, for the boundary
integrals' thousands of nodes; `k_profile`, for single points, takes its
terms from one K_heaviside or direct-formula call, so it never builds the
table. Kf = -infinity on the singular set is IEEE -inf (`-math.inf` from the
scalar paths, `-np.inf` in arrays), NaN raises ValueError, boundary points
are floats, and every function that needs only Kf takes the
HilbertEvaluator itself.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .modulus import SmoothedModulus
from .profile import BridgeSpline, TangentProfile, MODE_C1, MODE_LIPSCHITZ
from .quadrature import (
    QuadratureError,
    gauss_cell_values,
    gauss_graded,
    graded_edges,
    merge_edges,
)

__all__ = [
    "HilbertEvaluator",
    "K_heaviside",
    "pv_quadrature_oracle",
    "decay_bounds",
    "region_bracket",
]

PI = math.pi
# tolerance of the direct K Htilde region formulas
REGION_TOL = 1e-10
# elements of the (jumps x points) matrix of shifted arguments that kf_vec
# hands to one call of its kernel (K_heaviside or the table's eval_vec)
_KF_CHUNK = 8192


def _rise_scale(x: float) -> float:
    """Power of two s ~ |x|, clamped to [2^-1020, 1], for the rise integrals.

    They run in t = y/s. Scaling by a power of two is exact, so wherever the
    y form stays in the normal doubles the t form gives the same bits; near
    the bottom of the doubles it keeps the nodes around x normal and the
    integrand finite, and the clamp keeps x0/s finite (x0 <= 1/8).
    """
    return math.ldexp(1.0, max(min(math.frexp(x)[1], 0), -1020))


def K_heaviside(u):
    """K of the unit step at 0, elementwise: (1/pi) log|u|, IEEE -inf at 0;
    NaN raises ValueError."""
    u = np.asarray(u, dtype=float)
    if np.isnan(u).any():
        raise ValueError("K of NaN: the argument must be a number")
    k = np.abs(u, out=np.empty_like(u))
    with np.errstate(divide="ignore"):
        np.log(k, out=k)
    k /= PI
    # a number for a 0-d u, as np.log(np.abs(u)) / PI gives
    return k[()]


@dataclass
class HilbertEvaluator:
    """Piecewise-analytic evaluator of K Htilde and K f.

    Pure after construction. The direct formulas evaluate a batch of points
    at once (`k_htilde_direct`) and memoize each point; `k_profile` reads
    them. The vector path `kf_vec` uses a Chebyshev table of K Htilde over
    every nonzero double (built on its first call, with its observed sup
    error against the direct formulas recorded; see KHtildeTable).
    """

    profile: TangentProfile

    _memo: dict = field(default_factory=dict, repr=False)
    _g_memo: dict = field(default_factory=dict, repr=False)
    _table: "KHtildeTable | None" = field(default=None, repr=False)

    # -- region formulas for pi * K Htilde -----------------------------------

    @property
    def sm(self) -> SmoothedModulus:
        return self.profile.sm

    @property
    def bridge(self) -> BridgeSpline:
        return self.profile.bridge

    def _bridge_edges(self, lo: float, hi: float, focus: float, min_scale: float):
        knots = [k for k in self.bridge.knots if lo < k < hi]
        return merge_edges(graded_edges(lo, hi, focus, min_scale), knots, [lo, hi])

    @functools.cached_property
    def _bridge_grids(self) -> dict:
        """The bridge integrals' cell edges, graded toward x0 and toward x_star."""
        x0, xs = self.bridge.x0, self.bridge.x_star
        return {f: self._bridge_edges(x0, xs, f, (xs - x0) * 1e-10) for f in (x0, xs)}

    def _rise_integrals(self, pts: list, ht0: float, hx: dict) -> np.ndarray:
        """The rise integral of every point, in t = y/s (see _rise_scale):

          int_0^{x0} (theta_tilde(y) - shift) / (x - y) dy,  x outside (0, x0],

        with shift = theta_tilde(x0) on (x0, x_star) and 0 elsewhere, and the
        principal value int_0^{x0} (theta_tilde(y) - theta_tilde(x)) / (x - y) dy
        on 0 < x <= x0, with theta_tilde(x) = hx[x].

        Each is graded toward 0, where theta_tilde varies on every scale; the
        first cell [0, min_scale] carries integrand magnitude ~ ht/|x|, so the
        grading floor shrinks with |x|. On (x0, x_star) the quotient also turns
        over on scale x - x0 near y = x0. In the principal value the integrand
        extends continuously by -theta_tilde'(x) at y = x; on a window
        |y - x| < eta = 1e-6 x it is replaced by that limit (error
        O(eta^2 * curvature), far below REGION_TOL), which in t is
        -s theta_tilde'(x), finite down to the smallest double.
        """
        x0, tol = self.bridge.x0, REGION_TOL
        s, xt, x0t, shift, eta, slope, floor = (np.zeros(len(pts)) for _ in range(7))
        near = {}  # point -> (focus, min_scale, extra edges) of a second grading
        for i, x in enumerate(pts):
            si = _rise_scale(x)
            t, t0 = x / si, x0 / si
            s[i], xt[i], x0t[i] = si, t, t0
            if 0.0 < x <= x0:
                shift[i] = hx[x]
                eta[i] = 1e-6 * t
                slope[i] = float(self.sm.scaled_derivative_vec(np.array([t]), si)[0])
                floor[i] = t * tol
                near[i] = (t, eta[i], [t] if 0 < t < t0 else [])
            else:
                shift[i] = ht0 if x0 < x < self.bridge.x_star else 0.0
                floor[i] = min(abs(t), t0) * tol
                if shift[i] != 0.0 and t > t0:
                    near[i] = (t0, max(t - t0, t0 * 1e-12), [])
        edges = graded_edges(0.0, x0t, 0.0, floor)
        if near:
            two = list(near)
            second = graded_edges(0.0, x0t[two], np.array([near[i][0] for i in two]),
                                  np.array([near[i][1] for i in two]))
            for i, e in zip(two, second):
                edges[i] = merge_edges(edges[i], e, near[i][2])

        def fn(t, owner):
            # a chunk within one integral (the deep points' integrals span
            # many) takes that point's scalars, any other one node arrays
            one = owner[0] if owner[0] == owner[-1] else owner
            xo = xt[one]
            # a node that rounds onto x lies in its window: the 0/0 there is
            # replaced by the limit
            with np.errstate(invalid="ignore", divide="ignore"):
                q = (self.sm.scaled_value_vec(t, s[one]) - shift[one]) / (xo - t)
            if not eta[owner[0]:owner[-1] + 1].any():
                return q
            return np.where(np.abs(t - xo) < eta[one], -slope[one], q)

        return gauss_graded(fn, edges, tol=tol * 0.25)

    def _bridge_integrals(self, pts: list, ht0: float) -> np.ndarray:
        """The bridge integral of every point:

          int_{x0}^{x_star} (g(y) - shift) / (x - y) dy,  x outside [x0, x_star],

        with shift = theta_tilde(x0) on (0, x0), 1 beyond x_star and 0 below 0,
        over the cached _bridge_grids; and on [x0, x_star] the principal value
        int_{x0}^{x_star} (g(y) - g(x)) / (x - y) dy, taking -g'(x) on a window
        |y - x| < 1e-8 (x_star - x0), over cells graded toward x.
        """
        x0, xs = self.bridge.x0, self.bridge.x_star
        at = np.array(pts)
        pv = (at >= x0) & (at <= xs)
        shift = np.where(at < 0.0, 0.0, np.where(at > xs, 1.0, ht0))
        width = np.where(pv, 1e-8 * (xs - x0), 0.0)
        slope = np.zeros_like(at)
        edges = [self._bridge_grids[xs if x > xs else x0] for x in pts]
        if pv.any():
            shift[pv] = self.bridge.value_vec(at[pv])
            slope[pv] = self.bridge.slope_vec(at[pv])
            knots = [k for k in self.bridge.knots if x0 < k < xs]
            for i, e in zip(np.flatnonzero(pv), graded_edges(x0, xs, at[pv], width[pv])):
                edges[i] = merge_edges(e, knots, [x0, xs])

        def fn(y, owner):
            xo = at[owner]
            with np.errstate(invalid="ignore", divide="ignore"):
                q = (self._g_at(y, owner, pv) - shift[owner]) / (xo - y)
            if not pv[owner[0]:owner[-1] + 1].any():
                return q
            return np.where(np.abs(y - xo) < width[owner], -slope[owner], q)

        return gauss_graded(fn, edges, tol=REGION_TOL * 0.25)

    def _g_at(self, y: np.ndarray, owner: np.ndarray, pv: np.ndarray) -> np.ndarray:
        """g at the nodes y of the bridge integrals owner (pv: principal values).

        The other integrals run over the _bridge_grids, whose nodes do not
        depend on x: each of their runs of nodes is read from the node memo,
        keyed by the run's bytes, or added to it.
        """
        off = pv[owner]
        if off.all():
            return self.bridge.value_vec(y)
        g = np.empty_like(y)
        if off.any():
            g[off] = self.bridge.value_vec(y[off])
        cut = (np.flatnonzero(owner[1:] != owner[:-1]) + 1).tolist()
        for lo, hi in zip([0] + cut, cut + [y.size]):
            if not off[lo]:
                key = y[lo:hi].tobytes()
                vals = self._g_memo.get(key)
                if vals is None:
                    vals = self._g_memo[key] = self.bridge.value_vec(y[lo:hi])
                g[lo:hi] = vals
        return g

    def _pi_k_htilde_vec(self, pts: list) -> list:
        """pi * K Htilde at nonzero points by the region-matched
        cancellation-free formulas, all integrals of the batch at once."""
        x0, xs = self.bridge.x0, self.bridge.x_star
        ht0 = float(self.sm.value_vec(np.array([x0]))[0])
        hx = {x: self.sm.value(x) for x in pts if 0.0 < x <= x0}
        rise = self._rise_integrals(pts, ht0, hx)
        bridge = self._bridge_integrals(pts, ht0)
        gs = self.bridge.value_vec(np.array(pts))
        out = []
        for x, gx, r, b in zip(pts, gs, rise, bridge):
            if x < 0.0:
                out.append(r + b + math.log(xs - x))
            elif x <= x0:
                v = hx[x] * math.log(x) + (1.0 - ht0) * math.log(xs - x)
                if x != x0:
                    v += (ht0 - hx[x]) * math.log(x0 - x)
                v += r
                v += b
                out.append(v)
            elif x < xs:
                out.append(ht0 * math.log(x) + (gx - ht0) * math.log(x - x0)
                           + (1.0 - gx) * math.log(xs - x) + r + b)
            else:
                v = r + math.log(x - x0)
                v += b
                out.append(v)
        return out

    # -- public evaluation ----------------------------------------------------

    def k_htilde_direct(self, u) -> np.ndarray:
        """K Htilde at every point of u by the direct region formulas, with one
        batch for the points not yet memoized: IEEE -inf at exact zeros; NaN
        raises ValueError."""
        if self.profile.mode != MODE_C1:
            raise ValueError("K Htilde needs a c1 profile (Lipschitz mode has no Htilde)")
        u = np.asarray(u, dtype=float)
        if np.isnan(u).any():
            raise ValueError("K Htilde of NaN: the argument must be a number")
        keys = u.ravel().tolist()
        new = sorted({x for x in keys if x != 0.0 and x not in self._memo})
        for x, v in zip(new, self._pi_k_htilde_vec(new) if new else []):
            self._memo[x] = v / PI
        return np.array([self._memo[x] if x != 0.0 else -np.inf for x in keys],
                        dtype=float).reshape(u.shape)

    def table(self) -> "KHtildeTable":
        if self._table is None:
            self._table = KHtildeTable.build(self)
        return self._table

    def kf_vec(self, xs) -> np.ndarray:
        """K f on an array from the table in c1 mode (built on first use): IEEE
        -inf exactly at the jump set; NaN raises ValueError."""
        p = self.profile
        kernel = K_heaviside if p.mode == MODE_LIPSCHITZ else self.table().eval_vec
        return p._jump_sum(kernel, xs, _KF_CHUNK)

    def k_profile(self, x: float):
        """(K f(x), -inf at a jump; regular part without the nearest jump's term),
        from the direct formulas in c1 mode: it never builds the table."""
        p = self.profile
        us = x - np.asarray(p.x)
        kernel = K_heaviside if p.mode == MODE_LIPSCHITZ else self.k_htilde_direct
        ks = kernel(us).tolist()
        k_near = int(np.argmin(np.abs(us)))
        regular = p.c * math.fsum(ak * t for k, (ak, t) in enumerate(zip(p.a, ks))
                                  if k != k_near)
        if ks[k_near] == -math.inf:
            return -math.inf, regular
        return regular + p.c * p.a[k_near] * ks[k_near], regular


def decay_bounds(ev: HilbertEvaluator, x: float) -> tuple[float, float]:
    """Two-sided bracket for pi * K Htilde(x) on 0 < x < x0.

    lower = f(x) log x + (1 - f(x)) log(x0 - x)
            - sup_{[x,x0]} f' * (x0 - x) - sup_{[x/2,x]} f' * (x/2) - f(x0) log 2
    upper = f(x) log x + (f(x0) - f(x)) log(x0 - x) + (1 - f(x0)) log(x_star - x)

    with f = Htilde (= theta_tilde on this range). The lower bound diverges to
    -infinity as x -> 0+ through the sup term; the upper bound diverges only
    when f(x) log x does (e.g. constant-kind moduli).
    """
    x0, xs = ev.bridge.x0, ev.bridge.x_star
    if not 0.0 < x < x0:
        raise ValueError("decay bounds hold on (0, x0)")
    sm = ev.sm
    fx = sm.value(x)
    f0 = sm.value(x0)
    sup_right = sm.derivative_sup(x, x0)
    sup_left = sm.derivative_sup(x / 2.0, x)
    lower = (fx * math.log(x) + (1.0 - fx) * math.log(x0 - x)
             - sup_right * (x0 - x) - sup_left * (x / 2.0) - f0 * math.log(2.0))
    upper = (fx * math.log(x) + (f0 - fx) * math.log(x0 - x)
             + (1.0 - f0) * math.log(xs - x))
    return lower, upper


def region_bracket(ev: HilbertEvaluator, x: float) -> tuple[float, float]:
    """Region-matched two-sided bounds for pi * K Htilde(x), x != 0.

    x < 0:            [(1-f(x0)) log(x0-x) + f(x0) log(-x),  log(x_star-x)]
    0 < x < x0:       decay_bounds
    x = x0:           [-inf, f(x0) log x0 + (1-f(x0)) log(x_star-x0)]
    x0 < x < x_star:  [f(x) log(x-x0) + (1-f(x)) log(x_star-x) - g_lip (x_star-x0),
                       f(x0) log x + (f(x)-f(x0)) log(x-x0) + (1-f(x)) log(x_star-x)]
    x = x_star:       [log(x_star-x0) - g_lip (x_star-x0),
                       log(x_star-x0) + f(x0) log(x_star/(x_star-x0))]
    x > x_star:       [log(x-x_star), log x]
    """
    x0, xs = ev.bridge.x0, ev.bridge.x_star
    f0 = ev.sm.value(x0)
    glip = ev.bridge.g_lip
    if x == 0.0:
        raise ValueError("no bracket at the singular point 0")
    if x < 0.0:
        return ((1.0 - f0) * math.log(x0 - x) + f0 * math.log(-x),
                math.log(xs - x))
    if x < x0:
        return decay_bounds(ev, x)
    if x == x0:
        # bridge-side lower limit is -inf (f(x) log(x-x0) -> -inf as x -> x0+)
        return -math.inf, f0 * math.log(x0) + (1.0 - f0) * math.log(xs - x0)
    if x < xs:
        fx = ev.bridge.value(x)
        lo = fx * math.log(x - x0) + (1.0 - fx) * math.log(xs - x) - glip * (xs - x0)
        hi = (f0 * math.log(x) + (fx - f0) * math.log(x - x0)
              + (1.0 - fx) * math.log(xs - x))
        return lo, hi
    if x == xs:
        return (math.log(xs - x0) - glip * (xs - x0),
                math.log(xs - x0) + f0 * math.log(xs / (xs - x0)))
    return math.log(x - xs), math.log(x)


def pv_quadrature_oracle(p: TangentProfile, x: float) -> float:
    """Brute-force K f(x): a folded window around x, two outer pieces and a
    closed tail, all in t = y - x.

    With e half the distance from x to the nearest jump or, when that is
    closer, to the compensator's jump at y = 1,

      pi Kf(x) = int_0^e ([f(x-s) - f(x+s)]/s + f(x-s) chi(x-s) + f(x+s) chi(x+s)) ds
                 + [int_{y_min-x}^{-e} + int_e^{Y-x}] f(x+t) (chi(x+t) - 1/t) dt
                 + c' (log(Y-x) - log Y),      chi(y) = chi_{y>1}/y,

    where y_min is the support edge, Y covers the saturated range, and the
    closed tail uses f == c' beyond Y. The window is the principal value
    folded onto s = |y - x|: its integrand tends to -2 f'(x) as s -> 0, so it
    needs no excision. Its cells are graded toward s = 0 and toward every
    kink of f in the window, each of which is an edge. The outer pieces take
    the pole as the exact -1/t, graded toward t = 0 from the window's edge
    and toward every jump, with every kink an edge. Each of the three
    integrals must agree between Gauss orders 21 and 29 (QuadratureError
    otherwise). Only profile values are used: this path is independent of
    the region formulas by construction.
    """
    jumps = np.asarray(p.x, dtype=float)
    dist = float(np.min(np.abs(x - jumps)))
    if dist <= 0.0:
        raise ValueError("oracle needs x away from the jump set")
    # the window must not reach the compensator's jump at y = 1 either
    e = 0.5 * (dist if x == 1.0 else min(dist, 2.0 * abs(x - 1.0)))
    Y = max(2.0, p.saturation + 1.0, x + 1.0 + 2.0 * e)
    kinks = [1.0, *jumps.tolist()]
    if p.mode == MODE_C1:
        kinks += [xk + k for xk in jumps.tolist() for k in p.bridge.knots]
    kinks = [k - x for k in kinks]

    def chi(y):
        return np.where(y > 1.0, 1.0 / y, 0.0)

    def certified(fn, edges):
        v1, v2 = (gauss_cell_values(fn, edges[:-1], edges[1:], n).sum() for n in (21, 29))
        if abs(v1 - v2) > max(1e-8, 1e-8 * abs(v2)):
            raise QuadratureError(f"oracle cell quadrature disagrees: {abs(v1 - v2):.3e}")
        return v2

    def folded(s):
        fl, fr = p.f_vec(np.stack([x - s, x + s]))
        return (fl - fr) / s + fl * chi(x - s) + fr * chi(x + s)

    near = [0.0, *(abs(k) for k in kinks if 0.0 < abs(k) < e)]
    window = certified(folded, merge_edges(*(graded_edges(0.0, e, s, e * 1e-9)
                                             for s in near)))

    def q(t):
        y = x + t
        return p.f_vec(y) * (chi(y) - 1.0 / t)

    def piece(a, b):
        if b <= a:
            return 0.0
        # the profile rise is log-compounded just above each jump, so every
        # in-range jump gets its own geometric refinement, not just the pole
        sets = [graded_edges(a, b, 0.0, e),
                [k for k in kinks if a < k < b], [a, b]]
        for t in jumps - x:
            if a < t < b:
                sets.append(graded_edges(a, b, t, (b - a) * 1e-9))
        return certified(q, merge_edges(*sets))

    y_min = float(jumps.min())
    outer = piece(y_min - x, -e) + piece(max(e, y_min - x), Y - x)
    tail = p.c_prime * (math.log(Y - x) - math.log(Y))
    return (window + outer + tail) / PI


DEEP, MID, FAR = 0, 1, 2


def _clenshaw(w: np.ndarray, c: np.ndarray) -> np.ndarray:
    """chebval(w[i], c[i]) for every row i, in chebval's order of operations."""
    w2 = 2 * w
    c0, c1 = c[:, -2], c[:, -1]
    for i in range(3, c.shape[1] + 1):
        c0, c1 = c[:, -i] - c1, c0 + c1 * w2
    return c0 + c1 * w


class KHtildeTable:
    """Piecewise Chebyshev fit of K Htilde over every nonzero double.

    Each sign branch has three zones of degree-DEG pieces, each zone in its
    own variable:

      deep, 2^MIN_EXP <= |u| < 2^LO_EXP:  one piece in s = log2(-log2|u|),
          where K Htilde ~ -(ln 2/pi) ln ln(1/|u|) + const is smooth;
      mid, 2^LO_EXP <= |u| <= 2^HI_EXP:   pieces in v = log2|u| whose widths
          follow the function (below);
      far, |u| > 2^HI_EXP:                one piece in t = 2^HI_EXP/|u| of
          pi K Htilde(u) - log|u|, which vanishes like 1/u.

    Mid layout: away from the Htilde knots K Htilde is analytic in v (on the
    negative branch its nearest singularities sit pi/ln 2 off the real
    axis), so the a-priori pieces are wide, with ends at v = LO_EXP,
    MID_EXPS and HI_EXP. The positive branch adds every bridge knot and the
    points knot +- span * KNOT_RATIO^-j, j = 0..KNOT_LEVELS (span =
    x_star - x0), pieces geometric in the distance to a knot, where K has
    weak (u-knot)^2 log|u-knot| endpoint behavior. A piece is kept when the
    largest of its last three Chebyshev coefficients is at most TAIL_TOL;
    otherwise it is halved in v and both halves are refit. A piece that
    fails while no wider than the narrowest a-priori piece raises
    QuadratureError with its tail.

    Every coefficient row sits in one (pieces x (DEG+1)) array, so a lookup
    gathers rows by piece index and runs one Clenshaw recurrence over all
    points. Exact zeros map to IEEE -inf and +-inf to +inf; NaN raises
    ValueError. There is no fallback: the direct region formulas are only
    the fitting data. Construction samples N_CHECK random points over the
    three zones of both branches, one point in every mid piece of each
    branch, and +-2^MIN_EXP, and records the observed sup error against the
    direct evaluator, which must stay below CHECK_TOL.

    The build runs breadth first: one batch of direct evaluations for the
    fit points of every a-priori piece of the six groups, then one batch per
    generation of halved mid pieces, then one for the check points; the kept
    pieces are put back in order of v. The table is the one a depth-first
    build, one point at a time, gives, bit for bit.
    """

    DEG = 23
    MIN_EXP = -1074
    LO_EXP = -48
    HI_EXP = 16
    MID_EXPS = (-32, -24, -16, -8, 0, 4, 8, 12)
    KNOT_RATIO = 4.0
    KNOT_LEVELS = 8
    TAIL_TOL = 2e-15
    N_CHECK = 160
    CHECK_TOL = 1e-8

    def __init__(self, edges, coef, max_err):
        # edges[3 * negative + zone]: increasing piece ends in the zone
        # variable, for u > 0 (negative = 0) and u < 0; coef stacks the pieces
        # of the six groups in that order
        self.edges = edges
        self.coef = coef
        self.first = []
        lo, hi = [], []
        for e in edges:
            self.first.append(len(lo))
            lo.extend(e[:-1])
            hi.extend(e[1:])
        self.lo = np.array(lo)
        self.hi = np.array(hi)
        self.max_err = max_err
        # covered range of log2|u|: every nonzero double
        self.v_lo = float(self.MIN_EXP)
        self.v_hi = math.inf

    @classmethod
    def _variable(cls, zone: int, au: np.ndarray, v: np.ndarray) -> np.ndarray:
        """The zone's piece variable at |u| = au, v = log2(au)."""
        if zone == DEEP:
            return np.log2(-v)
        if zone == FAR:
            return 2.0 ** cls.HI_EXP / au
        return v

    @classmethod
    def _mid_layout(cls, ev: HilbertEvaluator) -> tuple[np.ndarray, np.ndarray]:
        """A-priori mid piece ends in v, for u > 0 and for u < 0."""
        wide = {float(e) for e in (cls.LO_EXP, *cls.MID_EXPS, cls.HI_EXP)}
        u_lo, u_hi = 2.0 ** cls.LO_EXP, 2.0 ** cls.HI_EXP
        span = ev.bridge.x_star - ev.bridge.x0
        near = set()
        for knot in ev.bridge.knots:
            for j in range(cls.KNOT_LEVELS + 1):
                d = span * cls.KNOT_RATIO ** -j
                near.update(s for s in (knot - d, knot, knot + d) if u_lo < s < u_hi)
        positive = wide | {float(v) for v in np.log2(sorted(near))}
        return np.array(sorted(positive)), np.array(sorted(wide))

    @classmethod
    def build(cls, ev: HilbertEvaluator) -> "KHtildeTable":
        nodes = np.cos(np.pi * (np.arange(cls.DEG + 1) + 0.5) / (cls.DEG + 1))

        def sample(group, lo, hi):
            """(u, w, |u|): a piece's fit arguments and their Chebyshev variable."""
            sign, zone = (-1.0 if group >= 3 else 1.0), group % 3
            x = lo + 0.5 * (nodes + 1.0) * (hi - lo)
            if zone == MID:
                return np.array([float(sign * 2.0 ** xi) for xi in x]), nodes, None
            # deep magnitudes round to subnormals and far ones in the division,
            # so the fit takes the variable of the rounded u
            au = 2.0 ** -(2.0 ** x) if zone == DEEP else 2.0 ** cls.HI_EXP / x
            w = 2.0 * (cls._variable(zone, au, np.log2(au)) - lo) / (hi - lo) - 1.0
            return np.array([float(sign * a) for a in au]), w, au

        layout = cls._mid_layout(ev)
        floor = min(float(np.min(np.diff(e))) for e in layout)
        deep = np.log2([-cls.LO_EXP, -cls.MIN_EXP])
        far = np.array([0.0, 1.0])
        ends = [deep, layout[0], far, deep, layout[1], far]

        # breadth first: one direct batch for the a-priori pieces of all six
        # groups, then one per generation of halves of the mid pieces whose
        # Chebyshev tail exceeds TAIL_TOL
        pieces = [(g, lo, hi) for g, e in enumerate(ends) for lo, hi in zip(e[:-1], e[1:])]
        kept = []
        while pieces:
            samples = [sample(*piece) for piece in pieces]
            direct = ev.k_htilde_direct(np.concatenate([u for u, _, _ in samples]))
            halves = []
            for (group, lo, hi), (_, w, au), vals in zip(
                    pieces, samples, direct.reshape(len(pieces), -1)):
                if group % 3 == FAR:
                    vals = PI * vals - np.log(au)
                c = np.polynomial.chebyshev.chebfit(w, vals, cls.DEG)
                tail = float(np.max(np.abs(c[-3:])))
                if group % 3 != MID or tail <= cls.TAIL_TOL:
                    kept.append((group, lo, hi, c))
                elif hi - lo <= floor:
                    raise QuadratureError(
                        f"K Htilde table: Chebyshev tail {tail:.3e} > {cls.TAIL_TOL:.1e} "
                        f"on the innermost piece [{lo!r}, {hi!r}] of log2|u| (u "
                        f"{'< 0' if group >= 3 else '> 0'})")
                else:
                    mid = 0.5 * (lo + hi)
                    halves += [(group, lo, mid), (group, mid, hi)]
            pieces = halves
        kept.sort(key=lambda k: (k[0], k[1]))
        edges = [e if g % 3 != MID else np.array([e[0]] + [hi for k, _, hi, _ in kept if k == g])
                 for g, e in enumerate(ends)]
        table = cls(edges, np.array([c for *_, c in kept]), 0.0)

        # per branch: random points in each zone's variable, and 2^MIN_EXP;
        # then one random point in every mid piece of each branch
        rng = np.random.default_rng(123456789)
        q = cls.N_CHECK // 16
        mags = np.concatenate([
            2.0 ** rng.uniform(cls.LO_EXP, cls.HI_EXP, 6 * q - 1),
            2.0 ** -(2.0 ** rng.uniform(deep[0], deep[1], q)),
            2.0 ** cls.HI_EXP / rng.uniform(0.0, 1.0, q),
            [2.0 ** cls.MIN_EXP],
        ])
        pieces = [sign * 2.0 ** rng.uniform(e[:-1], e[1:])
                  for sign, e in ((1.0, edges[MID]), (-1.0, edges[3 + MID]))]
        us = np.concatenate([mags, -mags, *pieces])
        direct = ev.k_htilde_direct(us)
        err = float(np.max(np.abs(table.eval_vec(us) - direct)))
        if not err <= cls.CHECK_TOL:
            raise QuadratureError(f"K Htilde table check failed: sup err {err:.3e}")
        table.max_err = err
        return table

    def eval_vec(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if np.isnan(u).any():
            raise ValueError("K Htilde of NaN: the argument must be a number")
        flat = u.ravel()
        out = np.full(flat.shape, -np.inf)
        nz = np.flatnonzero(flat)
        au = np.abs(flat[nz])
        v = np.log2(au)
        zone = np.where(v < self.LO_EXP, DEEP, np.where(v > self.HI_EXP, FAR, MID))
        group = zone + 3 * (flat[nz] < 0.0)
        x = np.empty_like(v)
        idx = np.empty(v.shape, dtype=np.intp)
        for g, edges in enumerate(self.edges):
            sel = np.flatnonzero(group == g)
            if sel.size:
                x[sel] = self._variable(g % 3, au[sel], v[sel])
                idx[sel] = self.first[g] + np.clip(
                    np.searchsorted(edges, x[sel], side="right") - 1, 0, len(edges) - 2)
        lo, hi = self.lo[idx], self.hi[idx]
        vals = _clenshaw(2.0 * (x - lo) / (hi - lo) - 1.0, self.coef[idx])
        far = zone == FAR
        vals[far] = (vals[far] + np.log(au[far])) / PI
        out[nz] = vals
        return out.reshape(u.shape)
