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

An independent principal-value quadrature oracle (symmetric excision with
Richardson extrapolation in the excision radius) is provided for cross-checks;
it only ever touches profile values, never the region formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .modulus import SmoothedModulus
from .profile import BridgeSpline, TangentProfile, MODE_C1, MODE_LIPSCHITZ
from .quadrature import (
    QuadratureError,
    gauss_cells,
    gauss_graded,
    graded_edges,
    merge_edges,
)

__all__ = [
    "NEG_INF",
    "is_neg_inf",
    "HilbertEvaluator",
    "pv_log_integral",
    "K_heaviside",
    "pv_quadrature_oracle",
    "decay_bounds",
    "region_bracket",
]

PI = math.pi


class _NegInfinity:
    """Typed minus-infinity sentinel for the logarithmic singularities."""

    __slots__ = ()

    def __repr__(self):
        return "NEG_INF"


NEG_INF = _NegInfinity()


def is_neg_inf(v) -> bool:
    return v is NEG_INF


def pv_log_integral(a: float, b: float, x: float) -> float:
    """int_a^b dy/(x-y) = log|x-a| - log|x-b| for x outside [a, b]."""
    if not a < b:
        raise ValueError("need a < b")
    if a <= x <= b:
        raise ValueError("x inside [a, b]: integral is only principal-valued there")
    return math.log(abs(x - a)) - math.log(abs(x - b))


def K_heaviside(x: float):
    """K of the unit step at 0: (1/pi) log|x|, minus-infinity sentinel at 0."""
    if x == 0.0:
        return NEG_INF
    return math.log(abs(x)) / PI


@dataclass
class HilbertEvaluator:
    """Piecewise-analytic evaluator of K Htilde and K f.

    Pure after construction; point evaluations are memoized, and the vector
    path uses a per-octave Chebyshev table of K Htilde (built lazily, with
    its observed sup error against the direct formulas recorded).
    """

    profile: TangentProfile
    quad_tol: float = 1e-10

    _memo: dict = field(default_factory=dict, repr=False)
    _table: "KHtildeTable | None" = field(default=None, repr=False)

    def __post_init__(self):
        if self.profile.mode == MODE_C1:
            if self.profile.sm is None or self.profile.bridge is None:
                raise ValueError("c1 profile must carry sm and bridge")
        self._x0 = None if self.profile.bridge is None else self.profile.bridge.x0
        self._xs = None if self.profile.bridge is None else self.profile.bridge.x_star

    # -- region formulas for pi * K Htilde -----------------------------------

    @property
    def sm(self) -> SmoothedModulus:
        return self.profile.sm

    @property
    def bridge(self) -> BridgeSpline:
        return self.profile.bridge

    def _ht(self, u):
        return self.sm.value_vec(np.asarray(u, dtype=float))

    def _bridge_edges(self, lo: float, hi: float, focus: float, min_scale: float):
        knots = [k for k in self.bridge.knots if lo < k < hi]
        return merge_edges(graded_edges(lo, hi, focus, min_scale), knots, [lo, hi])

    def _int_rise(self, x: float, shift: float) -> float:
        """int_0^{x0} (theta_tilde(y) - shift) / (x - y) dy, x outside (0, x0).

        Graded toward 0 where theta_tilde varies on every scale; the tail cell
        at 0 contributes O(cell * theta_tilde / |x|), controlled by min_scale.
        """
        x0 = self._x0
        # the first cell [0, min_scale] carries integrand magnitude ~ ht/|x|,
        # so the grading floor must shrink with |x|
        scale = min(abs(x), x0)
        edges = graded_edges(0.0, x0, 0.0, min_scale=max(scale * self.quad_tol, 1e-280))
        if shift != 0.0 and x > x0:
            # region (x0, x_star): the quotient turns over on scale x - x0 near y = x0
            near = graded_edges(0.0, x0, x0, min_scale=max(x - x0, x0 * 1e-12))
            edges = merge_edges(edges, near)
        fn = lambda y: (self._ht(y) - shift) / (x - y)
        return gauss_graded(fn, edges, tol=self.quad_tol * 0.25)

    def _int_rise_pv(self, x: float) -> float:
        """int_0^{x0} (theta_tilde(y) - theta_tilde(x)) / (x - y) dy, 0 < x <= x0.

        The integrand extends continuously by -theta_tilde'(x) at y = x; on a
        window |y - x| < eta it is replaced by that difference-quotient limit
        (error O(eta^2 * curvature), far below quad_tol for eta = 1e-6 x).
        """
        x0 = self._x0
        hx = self.sm.value(x)
        dx = self.sm.derivative(x)
        eta = 1e-6 * x

        def fn(y):
            out = np.empty_like(y)
            near = np.abs(y - x) < eta
            out[near] = -dx
            yy = y[~near]
            out[~near] = (self._ht(yy) - hx) / (x - yy)
            return out

        e1 = graded_edges(0.0, x0, 0.0, min_scale=max(x * self.quad_tol, 1e-280))
        e2 = graded_edges(0.0, x0, x, min_scale=eta)
        return gauss_graded(fn, merge_edges(e1, e2, [x] if 0 < x < x0 else []),
                            tol=self.quad_tol * 0.25)

    def _int_bridge(self, x: float, shift: float, focus: float) -> float:
        """int_{x0}^{x_star} (g(y) - shift) / (x - y) dy, x outside (x0, x_star)."""
        x0, xs = self._x0, self._xs
        fn = lambda y: (self.bridge.value_vec(y) - shift) / (x - y)
        edges = self._bridge_edges(x0, xs, focus, (xs - x0) * 1e-10)
        return gauss_graded(fn, edges, tol=self.quad_tol * 0.25)

    def _int_bridge_pv(self, x: float) -> float:
        """int_{x0}^{x_star} (g(y) - g(x)) / (x - y) dy, x0 <= x <= x_star."""
        x0, xs = self._x0, self._xs
        gx = self.bridge.value(x)
        dgx = self.bridge.slope(x)
        eta = 1e-8 * (xs - x0)

        def fn(y):
            out = np.empty_like(y)
            near = np.abs(y - x) < eta
            out[near] = -dgx
            yy = y[~near]
            out[~near] = (self.bridge.value_vec(yy) - gx) / (x - yy)
            return out

        edges = self._bridge_edges(x0, xs, x, eta)
        return gauss_graded(fn, edges, tol=self.quad_tol * 0.25)

    def _pi_k_htilde(self, x: float) -> float:
        """pi * K Htilde(x) by the region-matched cancellation-free formulas."""
        x0, xs = self._x0, self._xs
        ht0 = float(self.sm.value_vec(np.array([x0]))[0])
        if x < 0.0:
            return (self._int_rise(x, 0.0) + self._int_bridge(x, 0.0, x0)
                    + math.log(xs - x))
        if x <= x0:
            hx = float(self.sm.value_vec(np.array([x]))[0])
            out = hx * math.log(x) + (1.0 - ht0) * math.log(xs - x)
            if x != x0:
                out += (ht0 - hx) * math.log(x0 - x)
            out += self._int_rise_pv(x)
            out += (self._int_bridge_pv(x0) if x == x0
                    else self._int_bridge(x, ht0, x0))
            return out
        if x < xs:
            gx = self.bridge.value(x)
            return (ht0 * math.log(x) + (gx - ht0) * math.log(x - x0)
                    + (1.0 - gx) * math.log(xs - x)
                    + self._int_rise(x, ht0) + self._int_bridge_pv(x))
        out = self._int_rise(x, 0.0) + math.log(x - x0)
        out += (self._int_bridge_pv(xs) if x == xs
                else self._int_bridge(x, 1.0, xs))
        return out

    # -- public evaluation ----------------------------------------------------

    def k_htilde(self, x: float):
        """K Htilde(x); typed minus-infinity sentinel at x = 0."""
        if self.profile.mode != MODE_C1:
            raise ValueError("K Htilde needs a c1 profile (Lipschitz mode has no Htilde)")
        if x == 0.0:
            return NEG_INF
        key = float(x)
        if key not in self._memo:
            self._memo[key] = self._pi_k_htilde(key) / PI
        return self._memo[key]

    def table(self) -> "KHtildeTable":
        if self._table is None:
            self._table = KHtildeTable.build(self)
        return self._table

    def k_htilde_vec(self, u) -> np.ndarray:
        """Vectorized K Htilde with IEEE -inf at exact zeros (internal hot path)."""
        u = np.asarray(u, dtype=float)
        if self.profile.mode != MODE_C1:
            raise ValueError("K Htilde needs a c1 profile")
        return self.table().eval_vec(u)

    def kf_vec(self, xs) -> np.ndarray:
        """K f on an array; -inf exactly at the jump set."""
        xs = np.asarray(xs, dtype=float)
        p = self.profile
        out = np.zeros_like(xs)
        if p.mode == MODE_LIPSCHITZ:
            for ak, xk in zip(p.a, p.x):
                with np.errstate(divide="ignore"):
                    out += ak * np.log(np.abs(xs - xk))
            return p.c * out / PI
        for ak, xk in zip(p.a, p.x):
            out += ak * self.k_htilde_vec(xs - xk)
        return p.c * out

    def k_profile(self, x: float):
        """(K f(x) or sentinel, regular part with the nearest jump's term removed)."""
        p = self.profile
        k_near = min(range(p.K), key=lambda k: abs(x - p.x[k]))
        terms = []
        for ak, xk in zip(p.a, p.x):
            u = x - xk
            if p.mode == MODE_LIPSCHITZ:
                t = K_heaviside(u)
            else:
                t = self.k_htilde(u)
            terms.append((ak, t))
        regular = p.c * math.fsum(ak * t for i, (ak, t) in enumerate(terms)
                                  if i != k_near and not is_neg_inf(t))
        if any(is_neg_inf(t) for i, (ak, t) in enumerate(terms) if i != k_near):
            raise AssertionError("distinct jumps cannot share a singularity")
        if is_neg_inf(terms[k_near][1]):
            return NEG_INF, regular
        value = regular + p.c * terms[k_near][0] * terms[k_near][1]
        return value, regular


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


def pv_quadrature_oracle(p: TangentProfile, x: float, eps_sequence=None) -> float:
    """Brute-force K f(x): symmetric excision + exact compensator + Richardson.

    At each excision radius eps,

      pi Kf(x; eps) = [int_{y_min}^{x-eps} + int_{x+eps}^{Y}] f(y) q(y) dy
                      + c' (log(Y-x) - log Y),
      q(y) = 1/(x-y) + chi_{y>1}/y,

    where y_min is the support edge, Y covers the saturated range, and the
    closed tail uses f == c' beyond Y. The excised window contributes
    -2 eps f'(x) + O(eps^3), so the two-point Richardson step 2 I(eps/2) - I(eps)
    converges at cubic rate; the last two extrapolants must agree to 1e-7.
    Only profile values are used: this path is independent of the region
    formulas by construction.
    """
    jumps = np.asarray(p.x, dtype=float)
    dist = float(np.min(np.abs(x - jumps)))
    if eps_sequence is None:
        if dist <= 0.0:
            raise ValueError("oracle needs x away from the jump set")
        eps_sequence = [dist * 0.5 * 2.0 ** -j for j in range(11)]
    eps_sequence = list(eps_sequence)
    if any(e2 >= e1 for e1, e2 in zip(eps_sequence, eps_sequence[1:])):
        raise ValueError("eps sequence must decrease")
    if dist < eps_sequence[-1]:
        raise ValueError("oracle needs dist(x, jumps) >= min eps")

    y_min = float(jumps.min())
    sat = float(jumps.max()) + (p.bridge.x_star if p.mode == MODE_C1 else 0.0)
    Y = max(2.0, sat + 1.0, x + 1.0 + 2.0 * eps_sequence[0])
    kinks = [1.0]
    for xk in jumps:
        kinks.append(xk)
        if p.mode == MODE_C1:
            kinks.extend([xk + p.bridge.x0, xk + p.bridge.x_star])

    def q(y):
        comp = np.where(y > 1.0, 1.0 / y, 0.0)
        return p.f_vec(y) * (1.0 / (x - y) + comp)

    def piece(a, b, eps):
        if b <= a:
            return 0.0
        # the profile rise is log-compounded just above each jump, so every
        # in-range jump gets its own geometric refinement, not just x
        sets = [graded_edges(a, b, x, max(eps, (b - a) * 1e-9)),
                [k for k in kinks if a < k < b], [a, b]]
        for xk in jumps:
            if a < xk < b:
                sets.append(graded_edges(a, b, xk, (b - a) * 1e-9))
        edges = merge_edges(*sets)
        v1 = gauss_cells(q, edges, 21)
        v2 = gauss_cells(q, edges, 29)
        if abs(v1 - v2) > max(1e-8, 1e-8 * abs(v2)):
            raise QuadratureError(f"oracle cell quadrature disagrees: {abs(v1 - v2):.3e}")
        return v2

    tail = p.c_prime * (math.log(Y - x) - math.log(Y))
    vals = []
    for eps in eps_sequence:
        left = piece(y_min, x - eps, eps) if x - eps > y_min else 0.0
        right = piece(max(x + eps, y_min), Y, eps)
        vals.append(left + right + tail)
    rich = [2.0 * b - a for a, b in zip(vals, vals[1:])]
    if len(rich) >= 2:
        err = abs(rich[-1] - rich[-2])
        if err > 1e-7 * max(1.0, abs(rich[-1])):
            raise QuadratureError(
                f"oracle extrapolation stalled: last diff {err:.3e}; I(eps) = {vals}")
    return rich[-1] / PI if rich else vals[-1] / PI


class KHtildeTable:
    """Per-piece Chebyshev fit of K Htilde in log2|u|, one sign branch each.

    Pieces are octaves of |u| on [2^lo_exp, 2^hi_exp], split at the Htilde
    knots and geometrically refined toward x_star (and x0, and any interior
    bridge knot) where K has weak (u-knot)^2 log|u-knot| endpoint behavior.
    Exact zeros map to IEEE -inf; arguments outside the table range fall back
    to the direct region formulas. Construction samples random points on both
    branches and records the observed sup error against the direct evaluator.
    """

    def __init__(self, pos_edges, pos_coef, neg_edges, neg_coef, ev, max_err):
        self.pos_edges = pos_edges    # increasing, in v = log2(u), u > 0
        self.pos_coef = pos_coef
        self.neg_edges = neg_edges    # increasing, in v = log2(-u), u < 0
        self.neg_coef = neg_coef
        self.ev = ev
        self.max_err = max_err
        self.v_lo = pos_edges[0]
        self.v_hi = pos_edges[-1]

    DEG = 23

    @classmethod
    def build(cls, ev: HilbertEvaluator, lo_exp: int = -48, hi_exp: int = 16,
              n_check: int = 160, tol: float = 1e-8) -> "KHtildeTable":
        x0, xs = ev.bridge.x0, ev.bridge.x_star
        base = [2.0 ** e for e in range(lo_exp, hi_exp + 1)]
        splits = set(base)
        span = xs - x0
        for knot in ev.bridge.knots:
            for j in range(0, 17):
                for s in (knot - span * 2.0 ** -j, knot + span * 2.0 ** -j):
                    if 2.0 ** lo_exp < s < 2.0 ** hi_exp:
                        splits.add(s)
            if 2.0 ** lo_exp < knot < 2.0 ** hi_exp:
                splits.add(knot)
        pos_u = np.array(sorted(splits))
        pos_edges = np.log2(pos_u)
        neg_edges = np.array([float(e) for e in range(lo_exp, hi_exp + 1)])

        nodes = np.cos(np.pi * (np.arange(cls.DEG + 1) + 0.5) / (cls.DEG + 1))

        def fit(v_lo, v_hi, sign):
            v = v_lo + 0.5 * (nodes + 1.0) * (v_hi - v_lo)
            vals = np.array([ev.k_htilde(float(sign * 2.0 ** vi)) for vi in v])
            return np.polynomial.chebyshev.chebfit(nodes, vals, cls.DEG)

        pos_coef = [fit(a, b, +1.0) for a, b in zip(pos_edges[:-1], pos_edges[1:])]
        neg_coef = [fit(a, b, -1.0) for a, b in zip(neg_edges[:-1], neg_edges[1:])]
        table = cls(pos_edges, pos_coef, neg_edges, neg_coef, ev, 0.0)

        rng = np.random.default_rng(123456789)
        v = rng.uniform(lo_exp, hi_exp, n_check)
        us = np.concatenate([2.0 ** v[: n_check // 2], -(2.0 ** v[n_check // 2:])])
        direct = np.array([ev.k_htilde(float(u)) for u in us])
        err = float(np.max(np.abs(table.eval_vec(us) - direct)))
        if err > tol:
            raise QuadratureError(f"K Htilde table check failed: sup err {err:.3e}")
        table.max_err = err
        return table

    def _eval_branch(self, v, edges, coefs, out, mask):
        idx = np.clip(np.searchsorted(edges, v[mask], side="right") - 1,
                      0, len(coefs) - 1)
        sub = np.empty(mask.sum())
        for piece in np.unique(idx):
            sel = idx == piece
            a, b = edges[piece], edges[piece + 1]
            w = 2.0 * (v[mask][sel] - a) / (b - a) - 1.0
            sub[sel] = np.polynomial.chebyshev.chebval(w, coefs[piece])
        out[mask] = sub

    def eval_vec(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        shape = u.shape
        u = u.ravel()
        out = np.empty_like(u)
        zero = u == 0.0
        out[zero] = -np.inf
        au = np.abs(u)
        inside = (~zero) & (au >= 2.0 ** self.v_lo) & (au <= 2.0 ** self.v_hi)
        v = np.zeros_like(u)
        v[~zero] = np.log2(au[~zero])
        self._eval_branch(v, self.pos_edges, self.pos_coef, out, inside & (u > 0))
        self._eval_branch(v, self.neg_edges, self.neg_coef, out, inside & (u < 0))
        far = (~zero) & ~inside
        for i in np.nonzero(far)[0]:
            val = self.ev.k_htilde(float(u[i]))
            out[i] = -np.inf if is_neg_inf(val) else val
        return out.reshape(shape)
