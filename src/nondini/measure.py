"""Boundary density of harmonic measure with Monte Carlo cross-checks.

With the pole at infinity the harmonic measure of the mapped domain pulls
back to Lebesgue measure dx on the boundary line, while arc length pulls
back to |Phi'(x)| dx. The density of measure against arc length at the
image of a regular point x is therefore

    lim_{r->0} omega(ball) / arclength(ball) = 1/|Phi'(x)| = exp(Kf(x)),

and it degenerates to 0 where Kf diverges to -infinity: at every jump of
the profile (|Phi'| blows up like a power there) and, for the idealized
construction the finite truncation approximates, at the accumulation
point 0 of the jump sequence. measure_ratio resolves a surface ball
(connected boundary piece within distance r of a center) by bisection
along the traced boundary, and singular_set_scan turns the ratio curves
into a flagged report.

wos_harmonic_measure estimates the same hitting probabilities with a
walk-on-spheres sampler against the traced polyline (extended by its two
straight tails), giving an oracle that is independent of the conformal
machinery. appendix_product_integral verifies the integrability estimate
int_{-eps}^{eps} prod_k |x - s_k|^{-b_k} dx <= C eps^{1 - sum b_k} that
controls the boundary parametrization near the accumulation point.

Conventions: every function here needs only Kf and the profile, so it takes
the HilbertEvaluator itself, or None for the identity boundary (f = 0);
boundary points are floats and Kf = -infinity is IEEE -inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conformal import (
    BoundaryTrace,
    _boundary_abs_dphi,
    _boundary_integral,
    _integrate_split,
    _split_singular,
    _text_sink,
)
from .quadrature import split_plan

PI = math.pi
# walkers per distance evaluation in _nearest_on_segments (bounds the
# walkers x segments work array)
_WALKER_CHUNK = 8192


# -- pointwise density -----------------------------------------------------------


@dataclass(frozen=True)
class DensitySample:
    x: float
    value: float
    singular: bool


def density_at(ev, x: float) -> DensitySample:
    """Density of harmonic measure against arc length at the image of x.

    exp(Kf(x)) at regular points; 0 with the singular flag at the jump
    points and at 0 (the accumulation point of the modeled jump sequence,
    where the idealized density degenerates even though any finite
    truncation keeps Kf(0) finite).
    """
    xs = float(x)
    if ev is None:
        return DensitySample(xs, 1.0, False)
    p = ev.profile
    if xs == 0.0 or any(xs == xk for xk in p.x):
        return DensitySample(xs, 0.0, True)
    kf = float(ev.kf_vec(np.array([xs]))[0])
    return DensitySample(xs, math.exp(kf), False)


# -- surface balls ---------------------------------------------------------------


@dataclass(frozen=True)
class BallRatio:
    omega: float
    length: float
    ratio: float
    x_lo: float
    x_hi: float


def _phi_from(ev, ax: float, aphi: complex, x: float) -> complex:
    """Phi(x) from the anchor value aphi = Phi(ax), along the boundary."""
    if ev is None:
        return aphi + (x - ax)
    return aphi + _boundary_integral(ev, ax, x)


def _phi_on_boundary(trace: BoundaryTrace, ev, x: float) -> complex:
    """Phi(x) anchored at the nearest trace sample (exact at samples)."""
    xs = np.asarray(trace.x)
    j = int(np.clip(np.searchsorted(xs, x), 1, xs.size - 1))
    if abs(xs[j - 1] - x) <= abs(xs[j] - x):
        j -= 1
    ax, aphi = float(xs[j]), complex(trace.phi[j])
    if x == ax:
        return aphi
    return _phi_from(ev, ax, aphi, x)


def _bisect_crossing(ev, x_in: float, phi_in: complex, x_out: float,
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


def _ball_preimage(trace: BoundaryTrace, ev, x_center: float,
                   r: float) -> tuple[float, float]:
    """Preimage [x_lo, x_hi] of the surface ball of radius r at Phi(x_center).

    The ball must be a single connected run of the trace: an inside sample
    beyond the first outside sample on either flank means the resolution
    cannot separate components, and a run touching the trace ends means r
    exceeds the covered radius. Both raise.
    """
    if not r > 0.0:
        raise ValueError("ball radius must be positive")
    xs = np.asarray(trace.x)
    if not xs[0] < x_center < xs[-1]:
        raise ValueError("center outside the traced window")
    p_img = _phi_on_boundary(trace, ev, x_center)
    hs = np.abs(np.asarray(trace.phi) - p_img) - r
    iR = int(np.searchsorted(xs, x_center, side="right"))
    iL = iR - 1

    out_left = np.flatnonzero(hs[:iL + 1] >= 0.0)
    if out_left.size == 0:
        raise ValueError("r too large: ball reaches the left end of the trace")
    jL = int(out_left[-1])
    if np.any(hs[:jL] < 0.0):
        raise ValueError("preimage disconnected at this trace resolution")
    if jL == iL:
        in_x, in_phi = x_center, p_img
    else:
        in_x, in_phi = float(xs[jL + 1]), complex(trace.phi[jL + 1])
    x_lo = _bisect_crossing(ev, in_x, in_phi, float(xs[jL]), p_img, r)

    out_right = np.flatnonzero(hs[iR:] >= 0.0)
    if out_right.size == 0:
        raise ValueError("r too large: ball reaches the right end of the trace")
    jR = iR + int(out_right[0])
    if np.any(hs[jR + 1:] < 0.0):
        raise ValueError("preimage disconnected at this trace resolution")
    if jR == iR:
        in_x, in_phi = x_center, p_img
    else:
        in_x, in_phi = float(xs[jR - 1]), complex(trace.phi[jR - 1])
    x_hi = _bisect_crossing(ev, in_x, in_phi, float(xs[jR]), p_img, r)
    return x_lo, x_hi


def measure_ratio(trace: BoundaryTrace, ev, x_center: float,
                  r: float) -> BallRatio:
    """omega / arclength for the surface ball of radius r at Phi(x_center).

    omega is the Lebesgue length of the preimage interval (pole-at-infinity
    pullback), arclength integrates |Phi'| = exp(-Kf) over the same interval
    with flattened rules at interior jumps.
    """
    x_lo, x_hi = _ball_preimage(trace, ev, x_center, r)
    omega = x_hi - x_lo
    if ev is None:
        length = omega
    else:
        length = _integrate_split(_boundary_abs_dphi(ev),
                                  _split_singular(ev.profile, x_lo, x_hi)).real
    return BallRatio(float(omega), float(length), float(omega / length),
                     float(x_lo), float(x_hi))


# -- singular set scan -----------------------------------------------------------


@dataclass(frozen=True)
class CenterReport:
    x: float
    p: complex
    density: float
    density_singular: bool
    flagged: bool
    fitted_slope: float
    rs: tuple[float, ...]
    omegas: tuple[float, ...]
    lengths: tuple[float, ...]
    ratios: tuple[float, ...]


@dataclass(frozen=True)
class DensityReport:
    centers: tuple[CenterReport, ...]
    threshold: float
    control_tol: float

    def flagged_set(self) -> tuple[float, ...]:
        return tuple(c.x for c in self.centers if c.flagged)

    def to_csv(self, path_or_buf) -> None:
        with _text_sink(path_or_buf) as fh:
            fh.write("center_x,r,omega,length,ratio,flagged\n")
            for c in self.centers:
                for r, om, ln, ra in zip(c.rs, c.omegas, c.lengths, c.ratios):
                    fh.write("%.17g,%.17g,%.17g,%.17g,%.17g,%d\n"
                             % (c.x, r, om, ln, ra, int(c.flagged)))

    def to_json_summary(self) -> dict:
        return {
            "threshold": self.threshold,
            "control_tol": self.control_tol,
            "flagged": list(self.flagged_set()),
            "centers": [
                {
                    "x": c.x,
                    "p": [c.p.real, c.p.imag],
                    "density": c.density,
                    "density_singular": c.density_singular,
                    "flagged": c.flagged,
                    "fitted_slope": c.fitted_slope,
                    "final_ratio": c.ratios[-1],
                }
                for c in self.centers
            ],
        }


def singular_set_scan(trace: BoundaryTrace, ev, centers, r_list,
                      threshold: float = 1e-2,
                      control_tol: float = 1e-3) -> DensityReport:
    """Ratio curves per center with vanishing-density flags.

    A center is flagged when its ratio at the finest r falls below the
    threshold and the curve decreases monotonically over the last five
    dyadic radii. Regular controls (centers where density_at is positive)
    must reproduce their pointwise density at the finest r within
    control_tol, otherwise the trace is under-resolved and the scan raises.
    """
    rs = sorted((float(r) for r in r_list), reverse=True)
    if len(rs) < 2 or len(set(rs)) != len(rs):
        raise ValueError("need at least two distinct radii")
    out = []
    for x_c in centers:
        x_c = float(x_c)
        dens = density_at(ev, x_c)
        curves = [measure_ratio(trace, ev, x_c, r) for r in rs]
        ratios = [b.ratio for b in curves]
        tail = ratios[-min(5, len(ratios)):]
        flagged = (ratios[-1] < threshold
                   and all(b < a for a, b in zip(tail, tail[1:])))
        slope = float(np.polyfit(np.log(rs), np.log(ratios), 1)[0])
        p_img = _phi_on_boundary(trace, ev, x_c)
        if not dens.singular and abs(ratios[-1] - dens.value) > control_tol:
            raise ValueError(
                "control at x=%g: ratio %.6g vs density %.6g exceeds %g"
                % (x_c, ratios[-1], dens.value, control_tol))
        out.append(CenterReport(
            x=x_c, p=p_img, density=dens.value,
            density_singular=dens.singular, flagged=flagged,
            fitted_slope=slope, rs=tuple(rs),
            omegas=tuple(b.omega for b in curves),
            lengths=tuple(b.length for b in curves),
            ratios=tuple(ratios)))
    return DensityReport(tuple(out), threshold, control_tol)


# -- walk-on-spheres oracle ------------------------------------------------------


@dataclass(frozen=True)
class MCConfig:
    n_walkers: int = 20_000
    seed: int = 0
    wos_epsilon: float = 1e-4
    max_steps: int = 10_000
    far_radius: float = 4096.0

    def __post_init__(self):
        if self.n_walkers < 1:
            raise ValueError("need at least one walker")
        if not self.wos_epsilon > 0.0:
            raise ValueError("absorption shell must be positive")
        if self.max_steps < 1:
            raise ValueError("need at least one step")
        if not self.far_radius > 1.0:
            raise ValueError("far-field radius must exceed 1")


@dataclass(frozen=True)
class WosReport:
    arcs: tuple[tuple[float, float], ...]
    counts: tuple[int, ...]
    frequencies: tuple[float, ...]
    sigmas: tuple[float, ...]
    n_walkers: int
    n_absorbed: int
    n_far: int
    n_lost: int
    seed: int


def _extended_segments(trace: BoundaryTrace, far_radius: float):
    """Polyline segments plus straight tail rays, with boundary parameters.

    The tails continue the first and last trace segments for 4x the
    far-field radius, so every walker inside the far-field disk sees the
    full boundary. Ray points carry synthetic parameters offset by
    Euclidean length, which keeps them outside every traced arc.
    """
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


def _nearest_on_segments(z: np.ndarray, seg_s: np.ndarray, seg_e: np.ndarray):
    """(distance, segment index, parameter t) of the closest boundary point."""
    n = z.size
    dist = np.empty(n)
    idx = np.empty(n, dtype=np.int64)
    ts = np.empty(n)
    d = seg_e - seg_s
    L2 = d.real * d.real + d.imag * d.imag
    chunk = _WALKER_CHUNK
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


def is_interior(trace: BoundaryTrace, z: complex,
                far_radius: float = 4096.0) -> bool:
    """Parity of crossings of a long downward ray with the extended boundary."""
    seg_s, seg_e, _, _ = _extended_segments(trace, far_radius)
    x0, y0 = z.real, z.imag
    lo = np.minimum(seg_s.real, seg_e.real)
    hi = np.maximum(seg_s.real, seg_e.real)
    cand = (lo <= x0) & (x0 < hi)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (x0 - seg_s.real) / (seg_e.real - seg_s.real)
        ycross = seg_s.imag + t * (seg_e.imag - seg_s.imag)
    hits = cand & (ycross < y0)
    return bool(np.sum(hits) % 2 == 1)


def wos_harmonic_measure(trace: BoundaryTrace, X: complex, arcs,
                         mc: MCConfig) -> WosReport:
    """Hitting frequency of each boundary arc for Brownian motion from X.

    Walk on spheres against the extended polyline: each walker jumps to a
    uniform point of the largest boundary-free circle, is absorbed once
    within wos_epsilon of the boundary (hit assigned to the nearest
    parameter), and is abandoned as 'far' beyond far_radius, where its
    arc-hitting probability is O(arc size / far_radius) and ignored. The
    angle used by walker w at step s depends only on (seed, s, w), so
    results are independent of chunking.
    """
    arcs = [(float(a), float(b)) for a, b in arcs]
    if not arcs:
        raise ValueError("need at least one arc")
    for a, b in arcs:
        if not a < b:
            raise ValueError("arc endpoints must increase")
    for (_, b0), (a1, _) in zip(arcs, arcs[1:]):
        if a1 < b0:
            raise ValueError("arcs must not overlap")
    if arcs[0][0] < trace.x[0] or arcs[-1][1] > trace.x[-1]:
        raise ValueError("arcs must lie inside the traced window")
    min_width = min(b - a for a, b in arcs)
    if not mc.wos_epsilon < 0.1 * min_width:
        raise ValueError("absorption shell must be below arc width / 10")
    X = complex(X)
    if not is_interior(trace, X, mc.far_radius):
        raise ValueError("pole must be interior to the traced domain")

    seg_s, seg_e, par_s, par_e = _extended_segments(trace, mc.far_radius)
    n = mc.n_walkers
    rng = np.random.Generator(np.random.Philox(mc.seed))
    z = np.full(n, X, dtype=complex)
    # 0 walking, 1 absorbed, 2 far, 3 lost
    state = np.zeros(n, dtype=np.int8)
    param = np.full(n, np.nan)
    for _ in range(mc.max_steps):
        act = np.flatnonzero(state == 0)
        if act.size == 0:
            break
        u = rng.random(n)
        dist, idx, ts = _nearest_on_segments(z[act], seg_s, seg_e)
        hit = dist < mc.wos_epsilon
        habs = act[hit]
        state[habs] = 1
        ph = idx[hit]
        param[habs] = par_s[ph] + ts[hit] * (par_e[ph] - par_s[ph])
        rest = act[~hit]
        z[rest] += dist[~hit] * np.exp(2j * PI * u[rest])
        gone = rest[np.abs(z[rest]) > mc.far_radius]
        state[gone] = 2
    state[state == 0] = 3

    n_lost = int(np.sum(state == 3))
    if n_lost >= 1e-3 * n:
        raise RuntimeError("%d of %d walkers exceeded max_steps" % (n_lost, n))
    counts = []
    for a, b in arcs:
        counts.append(int(np.sum((state == 1) & (param >= a) & (param < b))))
    freqs = [c / n for c in counts]
    sigmas = [math.sqrt(f * (1.0 - f) / n) for f in freqs]
    return WosReport(tuple(arcs), tuple(counts), tuple(freqs), tuple(sigmas),
                     n, int(np.sum(state == 1)), int(np.sum(state == 2)),
                     n_lost, mc.seed)


def resolution_term(trace: BoundaryTrace, arcs, mc: MCConfig) -> float:
    """Frequency slack from the polyline discretization of the boundary.

    An absorbed walker sits within wos_epsilon of the polyline, which itself
    sags below the true curve by at most h^2 kappa / 8 ~ h * turn / 8 per
    segment, so its assigned parameter can wander about (eps + sag)/|Phi'|
    in x near an arc endpoint. Each endpoint converts that wander into
    frequency error at most the half-plane Poisson density 1/pi per unit x.
    """
    phis = np.asarray(trace.phi)
    d = np.diff(phis)
    h = float(np.max(np.abs(d)))
    ang = np.angle(d[1:] / d[:-1])
    turn = float(np.max(np.abs(ang))) if ang.size else 0.0
    sag = h * turn / 8.0
    finite = np.asarray(trace.abs_dphi)[np.isfinite(trace.abs_dphi)]
    g_min = float(np.min(finite)) if finite.size else 1.0
    slack_x = (mc.wos_epsilon + sag) / max(g_min, 1e-6)
    n_ends = len({e for arc in arcs for e in arc})
    return n_ends * slack_x / PI


# -- finite-pole comparison ------------------------------------------------------


@dataclass(frozen=True)
class PoleReport:
    r_kept: tuple[float, ...]
    ratios: tuple[float, ...]
    omega_pole: tuple[float, ...]
    omega_infinity: tuple[float, ...]
    sigmas: tuple[float, ...]
    dropped: tuple[tuple[float, str], ...]
    max_ratio: float
    min_ratio: float


def pole_comparison(trace: BoundaryTrace, ev, X: complex, p_center: float,
                    r_list, mc: MCConfig) -> PoleReport:
    """omega^X(ball_r) / omega^infinity(ball_r) over nested surface balls.

    The finite-pole measure is estimated by one walk-on-spheres run over
    the ring partition of the largest ball; the pole-at-infinity measure is
    the exact preimage length. Radii below the sampler resolution
    (preimage narrower than 10x the absorption shell) and radii whose
    cumulative frequency carries more than 20 percent relative statistical
    error are dropped with a note instead of reported.
    """
    rs_all = sorted(float(r) for r in r_list)
    if len(rs_all) < 1 or len(set(rs_all)) != len(rs_all) or rs_all[0] <= 0.0:
        raise ValueError("radii must be positive and distinct")
    p_img = _phi_on_boundary(trace, ev, float(p_center))
    X = complex(X)
    if abs(X - p_img) <= 2.0 * rs_all[-1]:
        raise ValueError("pole must stay outside twice the largest ball")
    spans_all = [_ball_preimage(trace, ev, float(p_center), r)
                 for r in rs_all]
    for (u1, v1), (u2, v2) in zip(spans_all, spans_all[1:]):
        if not (u2 <= u1 and v1 <= v2):
            raise ValueError("ball preimages failed to nest")
    pre_dropped = []
    rs, spans = [], []
    for r, (u, v) in zip(rs_all, spans_all):
        if v - u < 10.0 * mc.wos_epsilon:
            pre_dropped.append((r, "preimage below 10x the absorption shell"))
        else:
            rs.append(r)
            spans.append((u, v))
    if not rs:
        raise ValueError("every ball is below the sampler resolution")
    n = len(rs)
    edges = [spans[j][0] for j in range(n - 1, -1, -1)]
    edges += [spans[j][1] for j in range(n)]
    pieces = list(zip(edges, edges[1:]))
    rep = wos_harmonic_measure(trace, X, pieces, mc)
    kept_r, ratios, om_pole, om_inf, sigmas = [], [], [], [], []
    dropped = list(pre_dropped)
    for j, r in enumerate(rs):
        # ball j covers ring pieces n-1-j .. n-1+j
        c = sum(rep.counts[n - 1 - j:n + j])
        f = c / rep.n_walkers
        s = math.sqrt(f * (1.0 - f) / rep.n_walkers)
        if c == 0:
            dropped.append((r, "no hits"))
            continue
        if s > 0.2 * f:
            dropped.append((r, "relative statistical error above 20%"))
            continue
        w = spans[j][1] - spans[j][0]
        kept_r.append(r)
        ratios.append(f / w)
        om_pole.append(f)
        om_inf.append(w)
        sigmas.append(s)
    if not ratios:
        raise RuntimeError("every radius was dropped; increase n_walkers")
    return PoleReport(tuple(kept_r), tuple(ratios), tuple(om_pole),
                      tuple(om_inf), tuple(sigmas), tuple(dropped),
                      max(ratios), min(ratios))


# -- product integrability -------------------------------------------------------


@dataclass(frozen=True)
class AppendixReport:
    eps: tuple[float, ...]
    integrals: tuple[float, ...]
    left_integrals: tuple[float, ...]
    fitted_slope: float
    sum_b: float
    bound_constant: float
    bound_ok: bool
    left_bound_ok: bool


def appendix_product_integral(b, eps_list, jumps=None) -> AppendixReport:
    """Windowed integrals of prod_k |x - s_k|^{-b_k} and their scaling law.

    Defaults place the k-th factor at 2^-k. The fitted slope of log integral
    against log eps is compared against 1 - sum(b) by the caller; bound_ok
    checks I(eps) <= C eps^(1 - sum b) with C calibrated on the largest
    window, and left_bound_ok checks the sharper one-sided bound
    int_{-eps}^0 <= eps^(1 - sum b)/(1 - sum b), which holds because every
    factor satisfies |x - s_k| >= |x| for x < 0 <= s_k.
    """
    bs = [float(v) for v in b]
    if not bs or any(v <= 0.0 for v in bs):
        raise ValueError("exponents must be positive")
    sb = sum(bs)
    if not sb < 0.5:
        raise ValueError("exponent sum must stay below 1/2")
    eps = [float(e) for e in eps_list]
    if not eps or any(e <= 0.0 for e in eps):
        raise ValueError("window sizes must be positive")
    if any(e2 >= e1 for e1, e2 in zip(eps, eps[1:])):
        raise ValueError("window sizes must be strictly decreasing")
    if jumps is None:
        locs = [2.0 ** -(k + 1) for k in range(len(bs))]
    else:
        locs = [float(s) for s in jumps]
    if len(locs) != len(bs):
        raise ValueError("one location per exponent")
    if any(s < 0.0 for s in locs):
        raise ValueError("locations must be non-negative")

    def g(ys):
        ys = np.asarray(ys, dtype=float)
        with np.errstate(divide="ignore"):
            val = np.ones_like(ys)
            for s, v in zip(locs, bs):
                val = val * np.abs(ys - s) ** (-v)
        return val

    def window(a: float, c: float) -> float:
        return _integrate_split(g, split_plan(a, c, locs, bs), cells=8).real

    ints = [window(-e, e) for e in eps]
    lefts = [window(-e, 0.0) for e in eps]
    if len(eps) >= 2:
        slope = float(np.polyfit(np.log(eps), np.log(ints), 1)[0])
    else:
        slope = float("nan")
    c0 = ints[0] / eps[0] ** (1.0 - sb)
    bound_ok = all(i <= c0 * e ** (1.0 - sb) * (1.0 + 1e-9)
                   for e, i in zip(eps, ints))
    left_ok = all(l <= e ** (1.0 - sb) / (1.0 - sb) * (1.0 + 1e-9)
                  for e, l in zip(eps, lefts))
    return AppendixReport(tuple(eps), tuple(ints), tuple(lefts), slope, sb,
                          float(c0), bound_ok, left_ok)
