"""Reference implementations that the tests compare the library against.

Most are the straightforward form of a computation the library now does
faster (the fast path must match them); the others are independent checks
of a closed form or an identity (the Poisson integral of Kf, the
nested-quadrature smoothed modulus, the elementary log integral). `quad_scalar`
is scipy's adaptive quadrature; the library itself needs no scipy.
"""

import cmath
import math

import numpy as np

from nondini.halfplane import HarmonicEvaluator, _y_range, poisson_kernel
from nondini.measure import _phi_from
from nondini.profile import MODE_C1, htilde_slope_vec, htilde_vec
from nondini.quadrature import (
    QuadratureError,
    gauss_graded,
    graded_edges,
    merge_edges,
)

PI = math.pi
LN2 = math.log(2.0)
# truncation half-width of the direct Poisson quadrature of Kf
_ORACLE_HALF_WIDTH = 4000.0
# tolerance of the nested-quadrature smoothed modulus
SMOOTHING_TOL = 1e-10


def quad_scalar(fn, a, b, tol: float = 1e-10) -> float:
    """scipy.integrate.quad (at most 300 subintervals) with the error estimate
    promoted to an exception."""
    from scipy.integrate import quad

    y, err = quad(fn, a, b, epsabs=tol, epsrel=tol, limit=300)
    if err > 100.0 * max(tol, tol * abs(y)) + 1e-15:
        raise QuadratureError(f"quad error estimate {err:.3e} exceeds tol {tol:.3e}")
    return y


def nearest_on_segments_bruteforce(z, seg_s, seg_e):
    """(distance, segment index, parameter t) of the closest point on any
    segment seg_s + t (seg_e - seg_s), t in [0, 1], testing every segment.

    Ties go to the lowest segment index (np.argmin).
    """
    n = z.size
    dist = np.empty(n)
    idx = np.empty(n, dtype=np.int64)
    ts = np.empty(n)
    d = seg_e - seg_s
    L2 = d.real * d.real + d.imag * d.imag
    chunk = 8192
    for i0 in range(0, n, chunk):
        zz = z[i0:i0 + chunk, None]
        w = zz - seg_s[None, :]
        t = (w.real * d.real[None, :] + w.imag * d.imag[None, :]) / L2[None, :]
        np.clip(t, 0.0, 1.0, out=t)
        dd = np.abs(zz - (seg_s[None, :] + t * d[None, :]))
        j = np.argmin(dd, axis=1)
        rows = np.arange(j.size)
        dist[i0:i0 + chunk] = dd[rows, j]
        idx[i0:i0 + chunk] = j
        ts[i0:i0 + chunk] = t[rows, j]
    return dist, idx, ts


def bisect_crossing(ev, x_in: float, phi_in: complex, x_out: float,
                    p_img: complex, r: float) -> float:
    """x between x_in (inside the ball) and x_out with |Phi(x) - p_img| = r."""

    def h(x: float) -> float:
        return abs(_phi_from(ev, x_in, phi_in, x) - p_img) - r

    a, b = x_in, x_out
    for _ in range(120):
        if abs(b - a) <= 1e-15 * max(1.0, abs(a), abs(b)):
            break
        mid = 0.5 * (a + b)
        if h(mid) < 0.0:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def f_per_jump(p, xs, slope=False):
    """c1 f (or f' with slope=True) as one htilde pass per jump, summed in
    ascending k: the library's single pass over all jumps must equal it bit
    for bit."""
    fn = htilde_slope_vec if slope else htilde_vec
    xs = np.asarray(xs, dtype=float)
    out = np.zeros_like(xs)
    for ak, xk in zip(p.a, p.x):
        out += ak * fn(p.sm, p.bridge, xs - xk)
    return p.c * out


def k_htilde_per_piece(table, u):
    """K Htilde on 2^LO_EXP <= |u| <= 2^HI_EXP from the table's mid pieces,
    one `chebval` call per piece and sign branch."""
    from nondini.hilbert import MID

    u = np.asarray(u, dtype=float)
    out = np.empty_like(u)
    v = np.log2(np.abs(u))
    for negative in (False, True):
        mask = (u < 0.0) == negative
        edges = table.edges[3 * negative + MID]
        first = table.first[3 * negative + MID]
        idx = np.clip(np.searchsorted(edges, v[mask], side="right") - 1,
                      0, len(edges) - 2)
        sub = np.empty(mask.sum())
        for piece in np.unique(idx):
            sel = idx == piece
            a, b = edges[piece], edges[piece + 1]
            w = 2.0 * (v[mask][sel] - a) / (b - a) - 1.0
            sub[sel] = np.polynomial.chebyshev.chebval(w, table.coef[first + piece])
        out[mask] = sub
    return out


def herglotz_transform(harm: HarmonicEvaluator, x: float, t: float) -> complex:
    """A(z) = (1/pi) int f(y) [1/(y-z) - chi_{|y|>1}/y] dy for z = x + it.

    Certified to harm.quad_tol; f is read from harm's node memo wherever a
    Gauss node is one of the memo's, and evaluated at the other nodes.
    """
    p = harm.profile
    z = complex(x, t)
    y_min, Y = _y_range(p)
    span = Y - y_min
    # Tip cells [x_k, x_k + w] contribute ~ theta-rise(w) * w / t when z sits
    # over the jump, so the grading depth at each jump must scale with t.
    memo = harm._node_memo(max(span * 1e-16, min(span * 1e-9, t * 1e-6)))
    ys, fys = memo.ys, memo.fys

    def fn(y):
        i = np.minimum(np.searchsorted(ys, y), ys.size - 1)
        fy = fys[i]
        miss = ys[i] != y
        fy[miss] = p.f_vec(y[miss])
        comp = np.where(y > 1.0, 1.0 / y, 0.0)
        return fy * (1.0 / (y - z) - comp)

    edges = merge_edges(
        graded_edges(y_min, Y, x, max(t * 1e-2, span * 1e-14)), memo.edges)
    integral = gauss_graded(fn, edges, tol=harm.quad_tol)
    tail = -p.c_prime * cmath.log(1.0 - z / Y)
    return (integral + tail) / PI


def herglotz_transform_direct(p, x, t, tol=3e-12):
    """A(z) of `herglotz_transform` with f evaluated at every node.

    Same edges, same certified rule and same kernel, but no node memo:
    `herglotz_transform`'s value must equal this one bit for bit.
    """
    z = complex(x, t)
    jumps = np.asarray(p.x, dtype=float)
    y_min = float(jumps.min())
    Y = max(p.saturation, 1.0)
    span = Y - y_min

    def fn(y):
        comp = np.where(y > 1.0, 1.0 / y, 0.0)
        return p.f_vec(y) * (1.0 / (y - z) - comp)

    sets = [graded_edges(y_min, Y, x, max(t * 1e-2, span * 1e-14)),
            [1.0] if y_min < 1.0 < Y else []]
    jump_scale = max(span * 1e-16, min(span * 1e-9, t * 1e-6))
    for xk in jumps:
        sets.append(graded_edges(y_min, Y, float(xk), jump_scale))
        if p.mode == MODE_C1:
            sets.append([float(xk) + kn for kn in p.bridge.knots
                         if y_min < xk + kn < Y])
    edges = merge_edges(*sets)
    integral = gauss_graded(fn, edges, tol=tol)
    tail = -p.c_prime * cmath.log(1.0 - z / Y)
    return (integral + tail) / PI


def poisson_of_kf_oracle(ev, x, t):
    """Direct quadrature of P_t * Kf: the independent check that -Re A = W.

    Kf itself grows like (c'/pi) log|y|, whose Poisson integral is known
    exactly ((c'/pi) log|z|), so only the remainder Kf - (c'/pi) log|y| is
    integrated numerically over |y - x| <= L, L = 4000; it decays like 1/y,
    making the truncation tail O(t/L^2). Kf values come from the region
    formulas; the integrable log spikes (jump set, and the origin from the
    subtracted log) get geometric refinement. The tail bound is checked and
    reported if too large.
    """
    L = _ORACLE_HALF_WIDTH
    if L < 8.0 * (abs(x) + t + 1.0):
        raise ValueError(f"|x| + t too large for the 1/y tail estimate at "
                         f"truncation half-width {L:g}")
    p = ev.profile
    cp = p.c_prime
    lo, hi = x - L, x + L

    def rem(y):
        with np.errstate(divide="ignore"):
            return ev.kf_vec(y) - (cp / PI) * np.log(np.abs(y))

    def fn(y):
        return rem(y) * poisson_kernel(y - x, t)

    sets = [graded_edges(lo, hi, x, max(t * 1e-2, L * 1e-13))]
    for s in [*p.x, 0.0]:
        if lo < s < hi:
            sets.append(graded_edges(lo, hi, float(s), L * 1e-13))
    edges = merge_edges(*sets)
    val = gauss_graded(fn, edges, tol=1e-10, max_rounds=4)
    val += (cp / PI) * 0.5 * math.log(x * x + t * t)
    rem_far = max(abs(float(rem(np.array([lo]))[0])),
                  abs(float(rem(np.array([hi]))[0])))
    # |rem(y)| <~ C/|y| with C = rem_far * L, so the two-sided tail is about
    # C t / (pi L^2); keep a margin factor of 4.
    tail_bound = 4.0 * rem_far * t / (PI * L)
    if tail_bound > 1e-8:
        raise ValueError(f"truncation tail bound {tail_bound:.2e} too large at "
                         f"truncation half-width {L:g}")
    return val


def pv_log_integral(a, b, x):
    """int_a^b dy/(x-y) = log|x-a| - log|x-b| for x outside [a, b]."""
    if not a < b:
        raise ValueError("need a < b")
    if a <= x <= b:
        raise ValueError("x inside [a, b]: integral is only principal-valued there")
    return math.log(abs(x - a)) - math.log(abs(x - b))


def _theta_average(sm, t):
    """int_0^ln2 theta(t e^u) du, by adaptive quadrature."""
    th = sm.base.theta
    return quad_scalar(lambda u: th(t * math.exp(u)), 0.0, LN2, tol=SMOOTHING_TOL)


def value_by_quadrature(sm, r):
    """theta_tilde(r) as nested adaptive quadrature of the double average,
    any modulus kind."""
    sm._check_domain(r)
    outer = quad_scalar(lambda v: _theta_average(sm, r * math.exp(v)), 0.0, LN2,
                        tol=SMOOTHING_TOL)
    return outer / (LN2 * LN2)


def derivative_by_quadrature(sm, r):
    """theta_tilde'(r) as a difference of two adaptive inner averages."""
    sm._check_domain(r)
    return (_theta_average(sm, 2.0 * r) - _theta_average(sm, r)) / (r * LN2 * LN2)
