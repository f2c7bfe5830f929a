"""Reference implementations that the tests compare the library against.

Most are the straightforward form of a computation the library now does
faster (the fast path must match them); the others are independent checks
of a closed form or an identity (the Poisson integral of Kf, the
nested-quadrature smoothed modulus, the elementary log integral). `quad_scalar`
is scipy's adaptive quadrature; the library itself needs no scipy.

The per-point region formulas of K Htilde (`pi_k_htilde` and its four
integrals) and the depth-first table build on top of them
(`build_table_sequential`) are the form the batched direct path and the
breadth-first `KHtildeTable.build` must match bit for bit. Likewise the
boundary rule one piece at a time (`integrate_split_total`) and the trace's
own per-cell dispatch (`trace_per_cell`) are what `quadrature.split_integrals`,
and the trace built on it, must match. The rule one piece at a time is the
one the library ran before it batched: `split_plan`, the singular-split
planner, cuts an interval into pieces with at most one singular end; a
regular piece is `gauss_cells`, Gauss cells summed over an edge list; a
singular piece is `integrate_power_endpoint`, the flattened rule.
The principal value by excision and Richardson extrapolation
(`pv_richardson_oracle`) checks the library's folded PV oracle. The
walk-on-spheres over every segment of the trace's polyline
(`polyline_segments`, `wos_polyline_counts`) is what the walk over the
merged straight runs must match. A surface ball's crossing is checked by
bisection (`bisect_crossing`) on Phi increments of the rule one piece at a
time (`phi_increment`).
"""

import cmath
import math

import numpy as np

from nondini.conformal import (
    BoundaryTrace,
    _as_harmonic,
    _boundary_g,
    _trace_grid,
    integrate_phi,
)
from nondini import halfplane, hilbert
from nondini.halfplane import HarmonicEvaluator, _y_range, poisson_kernel
from nondini.hilbert import DEEP, FAR, MID, KHtildeTable, _rise_scale
from nondini.measure import _block_circles, _nearest_in_blocks
from nondini.profile import MODE_C1, htilde_slope_vec, htilde_vec
from nondini.quadrature import (
    QuadratureError,
    gauss_cell_values,
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


def quad_scalar(fn, a, b, tol: float = 1e-10, complex_func: bool = False):
    """scipy.integrate.quad (at most 300 subintervals) with the error estimate
    promoted to an exception; a complex fn needs complex_func=True, and its
    real and imaginary parts are integrated apart."""
    from scipy.integrate import quad

    y, err = quad(fn, a, b, epsabs=tol, epsrel=tol, limit=300, complex_func=complex_func)
    if abs(err) > 100.0 * max(tol, tol * abs(y)) + 1e-15:
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


def polyline_segments(trace: BoundaryTrace, far_radius: float):
    """The trace's polyline segments, every one of them, plus the straight
    tail rays of measure._extended_segments, with the boundary parameters of
    their ends: (seg_s, seg_e, par_s, par_e). Segment 0 is the left ray, the
    last segment the right ray; ray points carry synthetic parameters offset
    by Euclidean length."""
    P = np.asarray(trace.phi)
    X = np.asarray(trace.x)
    d0 = P[1] - P[0]
    d0 /= abs(d0)
    d1 = P[-1] - P[-2]
    d1 /= abs(d1)
    L = 4.0 * far_radius
    seg_s = np.concatenate([[P[0] - L * d0], P[:-1], [P[-1]]])
    seg_e = np.concatenate([[P[0]], P[1:], [P[-1] + L * d1]])
    par_s = np.concatenate([[X[0] - L], X[:-1], [X[-1]]])
    par_e = np.concatenate([[X[0]], X[1:], [X[-1] + L]])
    return seg_s, seg_e, par_s, par_e


def wos_polyline_counts(trace: BoundaryTrace, X: complex, arcs, mc) -> tuple:
    """Arc hit counts of measure.wos_harmonic_measure's walk run over every
    segment of the polyline (polyline_segments), a hit assigned the linear
    parameter of its segment. The same angle stream, search and absorption
    rule; no input checks."""
    seg_s, seg_e, par_s, par_e = polyline_segments(trace, mc.far_radius)
    centres, radii = _block_circles(seg_s, seg_e)
    n = mc.n_walkers
    rng = np.random.Generator(np.random.Philox(mc.seed))
    z = np.full(n, complex(X))
    absorbed = np.zeros(n, dtype=bool)
    walking = np.ones(n, dtype=bool)
    param = np.full(n, np.nan)
    for _ in range(mc.max_steps):
        act = np.flatnonzero(walking)
        if act.size == 0:
            break
        u = rng.random(n)
        dist, idx, ts = _nearest_in_blocks(z[act], seg_s, seg_e, centres, radii)
        hit = dist < mc.wos_epsilon
        habs = act[hit]
        absorbed[habs] = True
        walking[habs] = False
        ph = idx[hit]
        param[habs] = par_s[ph] + ts[hit] * (par_e[ph] - par_s[ph])
        rest = act[~hit]
        z[rest] += dist[~hit] * np.exp(2j * PI * u[rest])
        walking[rest[np.abs(z[rest]) > mc.far_radius]] = False
    return tuple(int(np.sum(absorbed & (param >= a) & (param < b)))
                 for a, b in arcs)


def phi_increment(ev, x1: float, x2: float) -> complex:
    """Phi(x2) - Phi(x1) along the boundary by the rule one piece at a time
    (split_plan and integrate_split_total); x2 - x1 for the identity
    boundary (ev None)."""
    if ev is None:
        return complex(x2 - x1)
    if x1 == x2:
        return 0j
    p = ev.profile
    lo, hi = min(x1, x2), max(x1, x2)
    exps = [p.c * ak / PI for ak in p.a]
    val = integrate_split_total(_boundary_g(ev), split_plan(lo, hi, p.x, exps),
                                locs=p.x)
    return val if x2 > x1 else -val


def bisect_crossing(ev, center: float, x_in: float, x_out: float,
                    r: float) -> float:
    """x between x_in (inside the ball) and x_out with |Phi(x) - Phi(center)|
    = r, by bisection on this module's own Phi increments: one from the
    center to x_in, then one from x_in to each midpoint."""
    d_in = phi_increment(ev, center, x_in)

    def h(x: float) -> float:
        return abs(d_in + phi_increment(ev, x_in, x)) - r

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


def gauss_cells(fn, edges, n: int = 15):
    """The n-point Gauss values of the cells of an increasing edge list, summed."""
    edges = np.asarray(edges, dtype=float)
    if edges.size < 2:
        return 0.0
    return gauss_cell_values(fn, edges[:-1], edges[1:], n).sum()


def integrate_power_endpoint(fn, a, b, p, side: str):
    """Integrate fn over [a, b] with an |x-endpoint|^(-p) singularity, p < 1.

    Substituting x = endpoint +/- sigma^(1/(1-p)) turns the integrand into a
    bounded one:  dx = (1/(1-p)) sigma^(p/(1-p)) d sigma, and the product
    fn * dx/dsigma stays O(1) near sigma = 0. The sigma integral is then done
    on 15-point Gauss cells graded toward 0.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError("power exponent must lie in [0, 1)")
    if side not in ("a", "b"):
        raise ValueError("side must be 'a' or 'b'")
    q = 1.0 / (1.0 - p)
    smax = (b - a) ** (1.0 - p)
    end, sign = (a, 1.0) if side == "a" else (b, -1.0)

    # nodes whose image rounds onto an endpoint are zeroed (fn is never
    # called there)
    def g(sig):
        x = np.asarray(end + sign * sig ** q)
        col = ~((x > a) & (x < b))
        vals = np.asarray(fn(np.where(col, 0.5 * (a + b), x)))
        return np.where(col, 0.0, vals * (q * sig ** (q - 1.0)))

    return gauss_cells(g, graded_edges(0.0, smax, 0.0, smax * 1e-12), 15)


def split_plan(a: float, b: float, locs, exps):
    """Partition [a, b] into pieces with at most one singular end each.

    exps[k] is the exponent p of an |y - locs[k]|^(-p) singularity; exponents
    at coincident locations add. The cuts are the locations inside (a, b), and
    a piece singular at both ends splits at its midpoint. Returns
    (lo, hi, exponent, side) tuples: exponent is None on pieces with no
    singular end, otherwise the singular end is lo (side "a") or hi (side "b").
    """
    sing: dict = {}
    for s, p in zip(locs, exps):
        s = float(s)
        if a <= s <= b:
            sing[s] = sing.get(s, 0.0) + p
    cuts = [a] + sorted(s for s in sing if a < s < b) + [b]
    plan = []
    for lo, hi in zip(cuts, cuts[1:]):
        p_lo, p_hi = sing.get(lo), sing.get(hi)
        if p_lo is not None and p_hi is not None:
            mid = 0.5 * (lo + hi)
            plan += [(lo, mid, p_lo, "a"), (mid, hi, p_hi, "b")]
        elif p_lo is not None:
            plan.append((lo, hi, p_lo, "a"))
        elif p_hi is not None:
            plan.append((lo, hi, p_hi, "b"))
        else:
            plan.append((lo, hi, None, ""))
    return plan


def integrate_split_total(fn, plan, cells: int = 4, locs=()) -> complex:
    """The boundary rule over a split_plan, one piece at a time: `cells`
    23-point Gauss cells per regular piece, merged with cells graded toward
    the nearest of `locs` when that is closer to the piece than the piece is
    long, the flattened rule per singular piece, accumulated left to right."""
    total = 0.0 + 0.0j
    for lo, hi, pexp, side in plan:
        if pexp is None:
            edges = np.linspace(lo, hi, cells + 1)
            near = min(((max(lo - s, s - hi), s) for s in locs), default=None)
            if near is not None and near[0] < hi - lo:
                edges = merge_edges(edges, graded_edges(lo, hi, near[1], near[0]))
            total += complex(gauss_cells(fn, edges, 23))
        else:
            total += complex(integrate_power_endpoint(fn, lo, hi, pexp, side=side))
    return total


def trace_per_cell(ev, x_lo: float, x_hi: float, base_n: int = 200) -> BoundaryTrace:
    """trace_boundary with its own per-cell dispatch: a cell whose left end is
    a jump is flattened there, else one whose right end is, else it is one
    23-point Gauss cell. A cell with a jump at both ends is flattened at its
    left end only, so that cell is off by up to 1e-5 relative; on every other
    grid the trace must equal this one bit for bit."""
    harm = _as_harmonic(ev)
    ev = harm.ev
    p = harm.profile
    xs = _trace_grid(p, x_lo, x_hi, base_n)
    with np.errstate(divide="ignore"):
        abs_dphi = np.exp(-ev.kf_vec(xs))
    sing = np.isin(xs, np.asarray(p.x, dtype=float))
    gfn = _boundary_g(ev)
    exponent = {xk: p.c * ak / PI for ak, xk in zip(p.a, p.x)}

    anchor = integrate_phi(harm, complex(xs[0], 0.0))
    increments = np.empty(xs.size - 1, dtype=complex)
    quad_err = 0.0
    regular = []
    for j in range(xs.size - 1):
        a, b = xs[j], xs[j + 1]
        if sing[j]:
            increments[j] = integrate_power_endpoint(gfn, a, b, exponent[a], side="a")
        elif sing[j + 1]:
            increments[j] = integrate_power_endpoint(gfn, a, b, exponent[b], side="b")
        else:
            regular.append(j)
    if regular:
        idx = np.array(regular, dtype=int)
        e15 = gauss_cell_values(gfn, xs[idx], xs[idx + 1], 15)
        e23 = gauss_cell_values(gfn, xs[idx], xs[idx + 1], 23)
        increments[idx] = e23
        quad_err = float(np.abs(e23 - e15).sum())
    phi = anchor + np.concatenate([[0.0 + 0.0j], np.cumsum(increments)])
    return BoundaryTrace(x=xs, phi=phi, abs_dphi=abs_dphi, is_singular=sing,
                         c_prime=p.c_prime, quad_error=quad_err)


def f_per_jump(p, xs, slope=False):
    """f (or c1 f' with slope=True) as one pass per jump, summed in ascending
    k: the Lipschitz step (xs >= x_k) or htilde. The library's single pass
    over all jumps must equal it bit for bit."""
    fn = htilde_slope_vec if slope else htilde_vec
    xs = np.asarray(xs, dtype=float)
    out = np.zeros_like(xs)
    for ak, xk in zip(p.a, p.x):
        if p.mode == "lipschitz":
            out += ak * (xs >= xk)
        else:
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

    Certified to HERGLOTZ_TOL; f is read from harm's node memo wherever a
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
    integral = gauss_graded(fn, edges, tol=halfplane.HERGLOTZ_TOL)
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


def pv_richardson_oracle(p, x: float, eps_sequence=None) -> float:
    """K f(x) by symmetric excision, exact compensator and Richardson
    extrapolation in the excision radius: the form that
    `hilbert.pv_quadrature_oracle` folded into one regular window integral.

    At each excision radius eps,

      pi Kf(x; eps) = [int_{y_min}^{x-eps} + int_{x+eps}^{Y}] f(y) q(y) dy
                      + c' (log(Y-x) - log Y),
      q(y) = 1/(x-y) + chi_{y>1}/y,

    where y_min is the support edge, Y covers the saturated range, and the
    closed tail uses f == c' beyond Y. The excised window contributes
    -2 eps f'(x) + O(eps^3), so the two-point Richardson step 2 I(eps/2) - I(eps)
    converges at cubic rate; the last two extrapolants must agree to 1e-7.
    The default radii start at half the distance from x to the nearest jump
    or, when that is closer, to the compensator's jump at y = 1.
    """
    jumps = np.asarray(p.x, dtype=float)
    dist = float(np.min(np.abs(x - jumps)))
    if eps_sequence is None:
        if dist <= 0.0:
            raise ValueError("oracle needs x away from the jump set")
        # the window must not reach the compensator's jump at y = 1 either:
        # I(eps) has a kink where it crosses, which stalls the extrapolation
        base = dist if x == 1.0 else min(dist, 2.0 * abs(x - 1.0))
        eps_sequence = [base * 0.5 * 2.0 ** -j for j in range(11)]
    eps_sequence = list(eps_sequence)
    if any(e2 >= e1 for e1, e2 in zip(eps_sequence, eps_sequence[1:])):
        raise ValueError("eps sequence must decrease")
    if dist < eps_sequence[-1]:
        raise ValueError("oracle needs dist(x, jumps) >= min eps")

    y_min = float(jumps.min())
    Y = max(2.0, p.saturation + 1.0, x + 1.0 + 2.0 * eps_sequence[0])
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


# -- K Htilde by the per-point region formulas ----------------------------------


def int_rise(ev, x: float, shift: float) -> float:
    """int_0^{x0} (theta_tilde(y) - shift) / (x - y) dy, x outside (0, x0).

    Graded toward 0 where theta_tilde varies on every scale; the tail cell
    at 0 contributes O(cell * theta_tilde / |x|), controlled by min_scale.
    Integrated in t = y/s (see _rise_scale).
    """
    s = _rise_scale(x)
    xt, x0t = x / s, ev.bridge.x0 / s
    # the first cell [0, min_scale] carries integrand magnitude ~ ht/|x|,
    # so the grading floor must shrink with |x|
    edges = graded_edges(0.0, x0t, 0.0, min_scale=min(abs(xt), x0t) * hilbert.REGION_TOL)
    if shift != 0.0 and xt > x0t:
        # region (x0, x_star): the quotient turns over on scale x - x0 near y = x0
        near = graded_edges(0.0, x0t, x0t, min_scale=max(xt - x0t, x0t * 1e-12))
        edges = merge_edges(edges, near)
    fn = lambda t: (ev.sm.scaled_value_vec(t, s) - shift) / (xt - t)
    return gauss_graded(fn, edges, tol=hilbert.REGION_TOL * 0.25)


def int_rise_pv(ev, x: float) -> float:
    """int_0^{x0} (theta_tilde(y) - theta_tilde(x)) / (x - y) dy, 0 < x <= x0.

    The integrand extends continuously by -theta_tilde'(x) at y = x; on a
    window |y - x| < eta it is replaced by that difference-quotient limit
    (error O(eta^2 * curvature), far below REGION_TOL for eta = 1e-6 x).
    Integrated in t = y/s (see _rise_scale), where the limit is
    -s theta_tilde'(x), finite down to the smallest double.
    """
    s = _rise_scale(x)
    xt, x0t = x / s, ev.bridge.x0 / s
    hx = ev.sm.value(x)
    slope = float(ev.sm.scaled_derivative_vec(np.array([xt]), s)[0])
    eta = 1e-6 * xt

    def fn(t):
        out = np.empty_like(t)
        near = np.abs(t - xt) < eta
        out[near] = -slope
        tt = t[~near]
        out[~near] = (ev.sm.scaled_value_vec(tt, s) - hx) / (xt - tt)
        return out

    e1 = graded_edges(0.0, x0t, 0.0, min_scale=xt * hilbert.REGION_TOL)
    e2 = graded_edges(0.0, x0t, xt, min_scale=eta)
    return gauss_graded(fn, merge_edges(e1, e2, [xt] if 0 < xt < x0t else []),
                        tol=hilbert.REGION_TOL * 0.25)


def int_bridge(ev, x: float, shift: float, focus: float) -> float:
    """int_{x0}^{x_star} (g(y) - shift) / (x - y) dy, x outside (x0, x_star)."""
    fn = lambda y: (ev.bridge.value_vec(y) - shift) / (x - y)
    return gauss_graded(fn, ev._bridge_grids[focus], tol=hilbert.REGION_TOL * 0.25)


def int_bridge_pv(ev, x: float) -> float:
    """int_{x0}^{x_star} (g(y) - g(x)) / (x - y) dy, x0 <= x <= x_star."""
    x0, xs = ev.bridge.x0, ev.bridge.x_star
    gx = ev.bridge.value(x)
    dgx = ev.bridge.slope(x)
    eta = 1e-8 * (xs - x0)

    def fn(y):
        out = np.empty_like(y)
        near = np.abs(y - x) < eta
        out[near] = -dgx
        yy = y[~near]
        out[~near] = (ev.bridge.value_vec(yy) - gx) / (x - yy)
        return out

    edges = ev._bridge_edges(x0, xs, x, eta)
    return gauss_graded(fn, edges, tol=hilbert.REGION_TOL * 0.25)


def pi_k_htilde(ev, x: float) -> float:
    """pi * K Htilde(x) by the region-matched formulas, one point at a time."""
    x0, xs = ev.bridge.x0, ev.bridge.x_star
    ht0 = float(ev.sm.value_vec(np.array([x0]))[0])
    if x < 0.0:
        return (int_rise(ev, x, 0.0) + int_bridge(ev, x, 0.0, x0)
                + math.log(xs - x))
    if x <= x0:
        hx = float(ev.sm.value_vec(np.array([x]))[0])
        out = hx * math.log(x) + (1.0 - ht0) * math.log(xs - x)
        if x != x0:
            out += (ht0 - hx) * math.log(x0 - x)
        out += int_rise_pv(ev, x)
        out += (int_bridge_pv(ev, x0) if x == x0
                else int_bridge(ev, x, ht0, x0))
        return out
    if x < xs:
        gx = ev.bridge.value(x)
        return (ht0 * math.log(x) + (gx - ht0) * math.log(x - x0)
                + (1.0 - gx) * math.log(xs - x)
                + int_rise(ev, x, ht0) + int_bridge_pv(ev, x))
    out = int_rise(ev, x, 0.0) + math.log(x - x0)
    out += (int_bridge_pv(ev, xs) if x == xs
            else int_bridge(ev, x, 1.0, xs))
    return out


def build_table_sequential(ev, cls=KHtildeTable):
    """cls.build as one depth-first pass over the pieces, each fit from
    per-point K Htilde (`pi_k_htilde`, memoized here and not in ev)."""
    memo = {}

    def k_htilde(u: float):
        if u == 0.0:
            return -math.inf
        if u not in memo:
            memo[u] = pi_k_htilde(ev, u) / PI
        return memo[u]

    nodes = np.cos(np.pi * (np.arange(cls.DEG + 1) + 0.5) / (cls.DEG + 1))

    def fit(group, lo, hi):
        sign, zone = (-1.0 if group >= 3 else 1.0), group % 3
        x = lo + 0.5 * (nodes + 1.0) * (hi - lo)
        if zone == MID:
            vals = np.array([k_htilde(float(sign * 2.0 ** xi)) for xi in x])
            return np.polynomial.chebyshev.chebfit(nodes, vals, cls.DEG)
        au = 2.0 ** -(2.0 ** x) if zone == DEEP else 2.0 ** cls.HI_EXP / x
        w = 2.0 * (cls._variable(zone, au, np.log2(au)) - lo) / (hi - lo) - 1.0
        vals = np.array([k_htilde(float(sign * a)) for a in au])
        if zone == FAR:
            vals = PI * vals - np.log(au)
        return np.polynomial.chebyshev.chebfit(w, vals, cls.DEG)

    layout = cls._mid_layout(ev)
    floor = min(float(np.min(np.diff(e))) for e in layout)

    def fit_mid(group, ends):
        kept, rows = [ends[0]], []
        todo = list(zip(ends[:-1], ends[1:]))[::-1]
        while todo:
            lo, hi = todo.pop()
            c = fit(group, lo, hi)
            tail = float(np.max(np.abs(c[-3:])))
            if tail <= cls.TAIL_TOL:
                kept.append(hi)
                rows.append(c)
            elif hi - lo <= floor:
                raise QuadratureError(
                    f"K Htilde table: Chebyshev tail {tail:.3e} > {cls.TAIL_TOL:.1e} "
                    f"on the innermost piece [{lo!r}, {hi!r}] of log2|u| (u "
                    f"{'< 0' if group >= 3 else '> 0'})")
            else:
                mid = 0.5 * (lo + hi)
                todo += [(mid, hi), (lo, mid)]
        return np.array(kept), rows

    deep = np.log2([-cls.LO_EXP, -cls.MIN_EXP])
    far = np.array([0.0, 1.0])
    edges, coef = [], []
    for group, e in enumerate([deep, layout[0], far, deep, layout[1], far]):
        if group % 3 == MID:
            e, rows = fit_mid(group, e)
        else:
            rows = [fit(group, e[0], e[1])]
        edges.append(e)
        coef.extend(rows)
    table = cls(edges, np.array(coef), 0.0)

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
    direct = np.array([k_htilde(float(u)) for u in us])
    err = float(np.max(np.abs(table.eval_vec(us) - direct)))
    if not err <= cls.CHECK_TOL:
        raise QuadratureError(f"K Htilde table check failed: sup err {err:.3e}")
    table.max_err = err
    return table
