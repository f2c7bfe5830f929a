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
(connected boundary piece within distance r of a center) from its center
alone: |Phi(c + u) - Phi(c)| increases in |u| on either side, so each end
is one crossing, bracketed on a ladder of dyadic offsets and solved by
safeguarded Newton with G = Phi' in closed form. singular_set_scan solves
all its balls in one batch and turns the ratio curves into a flagged report.

wos_harmonic_measure estimates the same hitting probabilities with a
walk-on-spheres sampler, giving an oracle that is independent of the
conformal machinery. It walks against the traced polyline cut into straight
runs (every dropped vertex within a rounding-level tau of its run's chord;
a Lipschitz trace keeps one segment per interval between jumps) and
extended by its two straight tails, and maps a hit back to x by linear
interpolation between the trace vertices projected onto their runs. Its
nearest-boundary query tests the two tails against every walker and the
segments only in the blocks of 16 whose bounding circle can hold the
nearest point; the result is bitwise equal to testing every segment, with
ties toward the lowest segment index, so the sampler's hits do not depend
on the search.

appendix_product_integral verifies the integrability estimate
int_{-eps}^{eps} prod_k |x - s_k|^{-b_k} dx <= C eps^{1 - sum b_k} that
controls the boundary parametrization near the accumulation point.

Conventions: every function here takes the HilbertEvaluator itself, or None
for the identity boundary (f = 0); boundary points are floats and
Kf = -infinity is IEEE -inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conformal import (
    BoundaryTrace,
    _boundary_abs_dphi,
    _boundary_g,
    _boundary_integral,
    _jump_integrals,
    _text_sink,
    integrate_phi,
)
from .quadrature import QuadratureError, split_integrals

PI = math.pi
# walkers per pass of the nearest-segment search (bounds the walkers x
# candidate-segments work arrays)
_WALKER_CHUNK = 1024
# consecutive polyline segments per bounding circle of that search
_B = 16
# a trace vertex within this fraction of the trace's diameter of the chord of
# its straight run is dropped from the walk's segments
_MERGE_TOL = 1e-12
# most steps of one surface-ball crossing solve; a solve takes about four,
# and about 70 when a derivative 10x too large leaves it to the midpoints
_CROSSING_STEPS = 100
# most doublings a surface ball's ladder climbs past its first top rung
_LADDER_DOUBLINGS = 64
# where the centre images Phi(c) are anchored: right of every jump (they lie
# in [-1, 1]), so reaching the default centres crosses no other jump
_ANCHOR_X = 2.0


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
    return DensitySample(xs, math.exp(ev.k_profile(xs)[0]), False)


# -- surface balls ---------------------------------------------------------------


@dataclass(frozen=True)
class BallRatio:
    omega: float
    length: float
    ratio: float
    x_lo: float
    x_hi: float


def _increment(ev, x1, x2) -> np.ndarray:
    """Phi(x2) - Phi(x1) along the boundary, for arrays of ends in one call."""
    return np.asarray(x2, dtype=float) - x1 + 0j if ev is None else _boundary_integral(ev, x1, x2)


def _boundary_image(ev, xs) -> np.ndarray:
    """Phi at the boundary points xs: one integrate_phi at _ANCHOR_X plus the
    cumsum of one boundary-integral call over cells cut at the points, the
    jumps and their bridge knots (kinks of f'), at most 1/4 long and refined
    toward each jump down to 2^-8. On the default c1 profile one integral
    from the anchor straight to a point is off by up to 2.5e-8, these cells
    by about 2e-14."""
    pts = np.asarray(xs, dtype=float)
    if ev is None:
        return pts + 0j
    p = ev.profile
    lo, hi = min(pts.min(), _ANCHOR_X), max(pts.max(), _ANCHOR_X)
    dyadic = np.ldexp(1.0, -np.arange(1, 9))
    near = np.r_[0.0, p.bridge.knots if p.bridge else (), dyadic, -dyadic]
    edges = np.unique(np.r_[np.linspace(lo, hi, math.ceil(4.0 * (hi - lo)) + 1), pts,
                            _ANCHOR_X, np.clip(np.add.outer(p.x, near).ravel(), lo, hi)])
    cum = np.cumsum(np.r_[0j, _boundary_integral(ev, edges[:-1], edges[1:])])
    return (integrate_phi(ev, complex(_ANCHOR_X)) + cum[np.searchsorted(edges, pts)]
            - cum[np.searchsorted(edges, _ANCHOR_X)])


def _newton_crossings(ev, a, d_a, b, r) -> np.ndarray:
    """x between a (inside the ball) and b with |D(x)| = r for a batch of
    crossings, D(a) = d_a and D(x) = Phi(x) - Phi(centre).

    Safeguarded Newton on h(x) = |D(x)| - r, with h' = Re(conj(D) G) / |D|.
    The latest iterate with h < 0 is the anchor, so [anchor, outside] always
    holds the crossing, and each D is one boundary integral from it. A
    Newton point outside the open bracket, or a step longer than half the one
    before, becomes the midpoint; a step under half the tolerance
    1e-15 max(1, |x|) is lengthened by that half to land across the crossing.
    A solve stops at h == 0 or at the midpoint of a bracket at most the
    tolerance wide. Each round makes one G call and one boundary-integral
    call; past _CROSSING_STEPS rounds QuadratureError gives the widest
    bracket left.
    """
    x, d, step_old = a, d_a, 2.0 * np.abs(b - a)
    out, idx = np.empty(a.size), np.arange(a.size)
    for _ in range(_CROSSING_STEPS):
        if not idx.size:
            return out
        dist = np.abs(d)
        g = 1.0 + 0j if ev is None else _boundary_g(ev)(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            # at the centre itself h' is the one-sided |G|; an infinite h' (a
            # jump) gives a zero step, and a zero or undefined one a nan
            # step, both of which bisect
            slope = np.where(dist > 0.0, (d.conj() * g).real / dist,
                             np.copysign(np.abs(g), b - a))
            step = -(dist - r) / np.where(slope != 0.0, slope, np.nan)
        half_tol = 0.5e-15 * np.maximum(1.0, np.abs(x))
        small = (0.0 < np.abs(step)) & (np.abs(step) < half_tol)
        step = np.where(small, step + np.copysign(half_tol, step),
                        np.where(np.abs(step) > 0.5 * step_old, np.nan, step))
        xn = x + step
        xn = np.where((np.minimum(a, b) < xn) & (xn < np.maximum(a, b)), xn, 0.5 * (a + b))
        x, d, step_old = xn, d_a + _increment(ev, a, xn), np.abs(xn - x)
        h = np.abs(d) - r
        a, d_a, b = np.where(h < 0.0, x, a), np.where(h < 0.0, d, d_a), np.where(h <= 0.0, b, x)
        out[idx] = np.where(h == 0.0, x, 0.5 * (a + b))
        tol = 1e-15 * np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
        go = ~((h == 0.0) | (np.abs(b - a) <= tol))
        idx, x, d, step_old, a, d_a, b, r = (v[go] for v in (idx, x, d, step_old, a, d_a, b, r))
    if not idx.size:
        return out
    raise QuadratureError(
        "surface-ball crossing unresolved after %d Newton steps: bracket "
        "width %.3e" % (_CROSSING_STEPS, np.abs(b - a).max()))


def _ball_preimages(ev, centres, rs):
    """Preimages [x_lo, x_hi] of the balls of radius rs[j] at Phi(centres[i]),
    as two (centres, radii) arrays.

    f in [0, c'] with c' < pi/2 puts D(x) = Phi(x) - Phi(c) and G(x) in the
    cone [0, c'] for x > c (its negative for x < c), so |D| increases away
    from c. Each side of each centre gets a ladder row of rungs x = c -/+ 2^e,
    e from floor(log2 min rs) - 3 up, with D the cumsum of one
    boundary-integral call (no far anchor, no O(1) cancellation); all rows
    climb one doubling more while some top |D| is below max rs, and after
    _LADDER_DOUBLINGS ValueError reports the last u and |D|. searchsorted on
    each row's |D| brackets every radius (inside end: the last rung inside,
    or c), and _newton_crossings solves every crossing in one batch.
    """
    rs = np.asarray(rs, dtype=float)
    if not np.all(rs > 0.0):
        raise ValueError("ball radius must be positive")
    c = np.repeat(np.asarray(centres, dtype=float), 2)[:, None]
    sign = np.tile([-1.0, 1.0], len(c) // 2)[:, None]
    xs, ds = c, np.zeros(c.shape, dtype=complex)
    e = np.arange(math.floor(math.log2(rs.min())) - 3, math.ceil(math.log2(rs.max())) + 2)
    for _ in range(_LADDER_DOUBLINGS + 1):
        rungs = c + sign * np.ldexp(1.0, e)
        inc = _increment(ev, np.c_[xs[:, -1:], rungs[:, :-1]], rungs)
        xs, ds = np.c_[xs, rungs], np.c_[ds, ds[:, -1:] + np.cumsum(inc, axis=1)]
        short = np.flatnonzero(~(np.abs(ds[:, -1]) >= rs.max()))
        if not short.size:
            break
        e = e[-1:] + 1
    else:
        i = short[0]
        raise ValueError(
            "surface ball of radius %g at x = %g out of reach: |Phi(c + u) - Phi(c)| "
            "= %.3e at u = %.3e after %d doublings"
            % (rs.max(), c[i, 0], abs(ds[i, -1]), xs[i, -1] - c[i, 0], _LADDER_DOUBLINGS))
    k = np.array([np.searchsorted(row, rs) for row in np.abs(ds)])
    a, d_a, b = (np.take_along_axis(v, j, 1).ravel()
                 for v, j in ((xs, k - 1), (ds, k - 1), (xs, k)))
    ends = _newton_crossings(ev, a, d_a, b, np.tile(rs, len(xs))).reshape(-1, 2, rs.size)
    return ends[:, 0], ends[:, 1]


def _arc_lengths(ev, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """int |Phi'| = exp(-Kf) over each [lo, hi], in one call."""
    if ev is None:
        return hi - lo
    return _jump_integrals(ev, _boundary_abs_dphi(ev), lo.ravel(), hi.ravel()).reshape(lo.shape)


def measure_ratio(ev, x_center: float, r: float) -> BallRatio:
    """omega / arclength for the surface ball of radius r at Phi(x_center):
    omega is the Lebesgue length of the preimage (_ball_preimages, the
    pole-at-infinity pullback), arclength integrates |Phi'| = exp(-Kf) over
    it with flattened rules at interior jumps."""
    lo, hi = _ball_preimages(ev, [x_center], [r])
    omega, length = (hi - lo).item(), _arc_lengths(ev, lo, hi).item()
    return BallRatio(omega, length, omega / length, lo.item(), hi.item())


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


def singular_set_scan(ev, centers, r_list, threshold: float = 1e-2,
                      control_tol: float = 1e-3) -> DensityReport:
    """Ratio curves per center with vanishing-density flags.

    All balls are one batch of _ball_preimages and one arc-length call, and
    p is _boundary_image's. A center is flagged when its ratio at the finest r
    falls below the threshold and the curve decreases monotonically over the
    last five dyadic radii. Regular controls (centers where density_at is
    positive) must reproduce their pointwise density at the finest r within
    control_tol, otherwise the balls are under-resolved and the scan raises.
    """
    rs = sorted((float(r) for r in r_list), reverse=True)
    if len(rs) < 2 or len(set(rs)) != len(rs):
        raise ValueError("need at least two distinct radii")
    xs = [float(x) for x in centers]
    if not xs:
        return DensityReport((), threshold, control_tol)
    x_lo, x_hi = _ball_preimages(ev, xs, rs)
    omegas, lengths = x_hi - x_lo, _arc_lengths(ev, x_lo, x_hi)
    out = []
    for x_c, p_img, om, ln, ratios in zip(xs, _boundary_image(ev, xs).tolist(), omegas.tolist(),
                                          lengths.tolist(), (omegas / lengths).tolist()):
        dens = density_at(ev, x_c)
        tail = ratios[-min(5, len(ratios)):]
        flagged = (ratios[-1] < threshold
                   and all(b < a for a, b in zip(tail, tail[1:])))
        slope = float(np.polyfit(np.log(rs), np.log(ratios), 1)[0])
        if not dens.singular and abs(ratios[-1] - dens.value) > control_tol:
            raise ValueError(
                "control at x=%g: ratio %.6g vs density %.6g exceeds %g"
                % (x_c, ratios[-1], dens.value, control_tol))
        out.append(CenterReport(
            x=x_c, p=p_img, density=dens.value,
            density_singular=dens.singular, flagged=flagged,
            fitted_slope=slope, rs=tuple(rs), omegas=tuple(om),
            lengths=tuple(ln), ratios=tuple(ratios)))
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


def _merge_tolerance(P: np.ndarray) -> float:
    """tau: _MERGE_TOL times the diagonal of the bounding box of the points P
    (between one and sqrt(2) times their diameter)."""
    return _MERGE_TOL * float(np.hypot(np.ptp(P.real), np.ptp(P.imag)))


def _within_chord(P: np.ndarray, a: int, b: int, tau: float) -> bool:
    """Whether every vertex strictly between P[a] and P[b] lies within tau of
    the segment from P[a] to P[b]."""
    d = P[b] - P[a]
    L2 = d.real * d.real + d.imag * d.imag
    return bool(np.all(_segment_distance(P[a + 1:b], P[a], d, L2)[0] <= tau))


def _straight_runs(P: np.ndarray, tau: float) -> np.ndarray:
    """Increasing indices of the vertices of P kept, first and last included,
    such that every dropped vertex lies within tau of the segment joining the
    two kept vertices around it.

    Greedy: from each kept vertex the run's end gallops forward, doubling its
    step while the run stays within tau, then bisects between the last end
    that passed and the first that failed. Only ends that passed the check
    are kept, so the invariant holds whether or not the check is monotone in
    the end.
    """
    n = P.size
    keep = [0]
    a = 0
    while a < n - 1:
        lo, step = a + 1, 1
        while lo + step < n and _within_chord(P, a, lo + step, tau):
            lo += step
            step *= 2
        hi = min(lo + step, n)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if _within_chord(P, a, mid, tau):
                lo = mid
            else:
                hi = mid
        keep.append(lo)
        a = lo
    return np.array(keep)


def _extended_segments(trace: BoundaryTrace, far_radius: float):
    """Merged boundary segments plus straight tail rays, and the knots that
    map a point on them back to the boundary parameter x.

    The trace's polyline is cut into straight runs (_straight_runs with
    tau = _merge_tolerance of the trace): every dropped vertex lies within
    tau of its run's chord, so the merged segments are the traced geometry to
    rounding level. A Lipschitz trace, whose tangent angle is piecewise
    constant, keeps one segment per interval between jumps. The tails
    continue the first and last trace segments (not the merged ones) for 4x
    the far-field radius, so every walker inside the far-field disk sees the
    full boundary. Segment 0 is the left ray, the last segment the right ray.

    A point at parameter t in [0, 1] of segment j has the key j + t, and its
    x is np.interp(j + t, keys, xs). The knots are every trace vertex,
    projected onto its merged segment, with its own x, plus the rays' far
    ends, which carry synthetic parameters offset by Euclidean length and so
    lie outside every traced arc. Keys that fail to increase strictly raise
    ValueError with the offending values.
    """
    P = np.asarray(trace.phi)
    X = np.asarray(trace.x)
    d0 = P[1] - P[0]
    d0 /= abs(d0)
    d1 = P[-1] - P[-2]
    d1 /= abs(d1)
    L = 4.0 * far_radius
    keep = _straight_runs(P, _merge_tolerance(P))
    seg_s = np.concatenate([[P[0] - L * d0], P[keep[:-1]], [P[-1]]])
    seg_e = np.concatenate([[P[0]], P[keep[1:]], [P[-1] + L * d1]])
    # merged segment of each vertex but the last, which ends the last one
    j = np.searchsorted(keep, np.arange(P.size - 1), side="right")
    d = seg_e[j] - seg_s[j]
    t = _segment_distance(P[:-1], seg_s[j], d, d.real * d.real + d.imag * d.imag)[1]
    keys = np.concatenate([[0.0], j + t, [keep.size, keep.size + 1.0]])
    xs = np.concatenate([[X[0] - L], X, [X[-1] + L]])
    bad = np.flatnonzero(np.diff(keys) <= 0.0)
    if bad.size:
        i = int(bad[0])
        raise ValueError(
            "merged-segment keys must increase strictly: key %.17g at x = %.17g "
            "is followed by key %.17g at x = %.17g"
            % (keys[i], xs[i], keys[i + 1], xs[i + 1]))
    return seg_s, seg_e, keys, xs


def _block_circles(seg_s: np.ndarray, seg_e: np.ndarray):
    """(centres, radii) of circles around blocks of _B consecutive segments.

    The blocks cover the segments between the first and the last, which are
    the tail rays; block b holds segments 1 + _B b .. _B (b + 1), the last
    block fewer. A centre is the middle of its block's bounding box, and a
    radius reaches the farthest endpoint, inflated by 1e-12 (|c| + R). That
    inflation exceeds the rounding of the distance formula by orders of
    magnitude, so |z - c| - R is a lower bound on every computed distance
    to the block.
    """
    m = seg_s.size - 2
    nb = -(-m // _B)
    j = np.minimum(1 + np.arange(nb * _B), m).reshape(nb, _B)
    pts = np.concatenate([seg_s[j], seg_e[j]], axis=1)
    c = (0.5 * (pts.real.min(axis=1) + pts.real.max(axis=1))
         + 0.5j * (pts.imag.min(axis=1) + pts.imag.max(axis=1)))
    r = np.abs(pts - c[:, None]).max(axis=1)
    return c, r + 1e-12 * (np.abs(c) + r)


def _segment_distance(zz, s, d, L2):
    """(distance, clamped parameter t) from points zz to segments s + t d."""
    w = zz - s
    t = (w.real * d.real + w.imag * d.imag) / L2
    np.clip(t, 0.0, 1.0, out=t)
    return np.abs(zz - (s + t * d)), t


def _nearest_in_blocks(z, seg_s, seg_e, centres, radii):
    """(distance, segment index, parameter t) of the closest boundary point.

    Exact two-level search over _extended_segments, given the block circles
    (centres, radii) of _block_circles: the tail rays are tested against
    every point, and the polyline segments only in the blocks whose lower
    bound |z - c| - R is within 1e-12 relative of the upper bound
    u = min(ray distances, min_b |z - c| + R). The result is bitwise equal to
    the brute force over all segments (the same floating-point expression per
    segment, ties toward the lowest index as np.argmin), which
    tests/oracles.py keeps as the reference.
    """
    n = z.size
    m = seg_s.size - 2
    dist = np.empty(n)
    idx = np.empty(n, dtype=np.int64)
    ts = np.empty(n)
    d = seg_e - seg_s
    L2 = d.real * d.real + d.imag * d.imag
    rays = np.array([0, m + 1])
    lane = np.arange(_B)
    for i0 in range(0, n, _WALKER_CHUNK):
        zz = z[i0:i0 + _WALKER_CHUNK, None]
        nc = zz.shape[0]
        ray_d, ray_t = _segment_distance(zz, seg_s[rays], d[rays], L2[rays])
        # u bounds the nearest distance from above, |z - c| - R every
        # distance into a block from below
        gap = np.abs(zz - centres)
        u = np.minimum(ray_d.min(axis=1), (gap + radii).min(axis=1))
        rows, blk = np.nonzero(gap - radii <= u[:, None] * (1.0 + 1e-12))
        # candidate segments, row by row in ascending index; the short last
        # block repeats segment m, which leaves the first minimum in place
        seg = np.minimum(1 + _B * blk[:, None] + lane, m)
        dd, t = _segment_distance(zz[rows], seg_s[seg], d[seg], L2[seg])
        dd, t, seg = dd.ravel(), t.ravel(), seg.ravel()
        row = np.repeat(rows, _B)
        per_row = np.bincount(rows, minlength=nc)
        has = per_row > 0
        best = np.full(nc, np.inf)
        start = _B * (np.cumsum(per_row) - per_row)
        best[has] = np.minimum.reduceat(dd, start[has])
        # first position of each walker's minimum: its lowest segment index
        at = np.flatnonzero(dd == best[row])
        at = at[np.diff(row[at], prepend=-1) != 0]
        best_j = np.zeros(nc, dtype=np.int64)
        best_t = np.zeros(nc)
        best_j[row[at]] = seg[at]
        best_t[row[at]] = t[at]
        # left ray, nearest block segment, right ray: ascending index, so
        # argmin's first minimum keeps the tie toward the lowest index
        cand_d = np.stack([ray_d[:, 0], best, ray_d[:, 1]])
        cand_j = np.stack([np.zeros_like(best_j), best_j,
                           np.full_like(best_j, m + 1)])
        cand_t = np.stack([ray_t[:, 0], best_t, ray_t[:, 1]])
        pick = np.argmin(cand_d, axis=0), np.arange(nc)
        dist[i0:i0 + nc] = cand_d[pick]
        idx[i0:i0 + nc] = cand_j[pick]
        ts[i0:i0 + nc] = cand_t[pick]
    return dist, idx, ts


def _odd_crossings(seg_s: np.ndarray, seg_e: np.ndarray, z: complex) -> bool:
    """Parity of crossings of a long downward ray from z with the segments."""
    x0, y0 = z.real, z.imag
    lo = np.minimum(seg_s.real, seg_e.real)
    hi = np.maximum(seg_s.real, seg_e.real)
    cand = (lo <= x0) & (x0 < hi)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (x0 - seg_s.real) / (seg_e.real - seg_s.real)
        ycross = seg_s.imag + t * (seg_e.imag - seg_s.imag)
    hits = cand & (ycross < y0)
    return bool(np.sum(hits) % 2 == 1)


def is_interior(trace: BoundaryTrace, z: complex,
                far_radius: float = 4096.0) -> bool:
    """Parity of crossings of a long downward ray with the extended boundary."""
    seg_s, seg_e, _, _ = _extended_segments(trace, far_radius)
    return _odd_crossings(seg_s, seg_e, z)


def wos_harmonic_measure(trace: BoundaryTrace, X: complex, arcs,
                         mc: MCConfig) -> WosReport:
    """Hitting frequency of each boundary arc for Brownian motion from X.

    Walk on spheres against the merged segments of _extended_segments (the
    trace's straight runs, within tau of its polyline, and the two tail
    rays): each walker jumps to a uniform point of the largest boundary-free
    circle, is absorbed once within wos_epsilon of the boundary (the x of
    its hit is one np.interp of the nearest point's segment index j plus
    parameter t over the trace vertices' keys), and is abandoned as 'far'
    beyond far_radius, where its arc-hitting probability is
    O(arc size / far_radius) and ignored; the pole must lie inside that
    disk. The angle used by walker w at step s
    depends only on (seed, s, w), so results are independent of chunking.
    The nearest boundary point comes from the exact block-pruned search of
    _nearest_in_blocks: the tail rays are always tested, the distance,
    segment and parameter are bitwise those of testing every segment, and
    ties go to the lowest segment index. The walk over the unmerged polyline
    is the oracle in tests/oracles.py.
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
    if not abs(X) < mc.far_radius:
        raise ValueError("pole must lie inside the far-field disk: |X| = %g "
                         "is not below far_radius = %g"
                         % (abs(X), mc.far_radius))
    seg_s, seg_e, keys, xs = _extended_segments(trace, mc.far_radius)
    if not _odd_crossings(seg_s, seg_e, X):
        raise ValueError("pole must be interior to the traced domain")
    centres, radii = _block_circles(seg_s, seg_e)
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
        dist, idx, ts = _nearest_in_blocks(z[act], seg_s, seg_e, centres,
                                           radii)
        hit = dist < mc.wos_epsilon
        habs = act[hit]
        state[habs] = 1
        param[habs] = np.interp(idx[hit] + ts[hit], keys, xs)
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

    An absorbed walker sits within wos_epsilon of the merged segments of
    _extended_segments. The trace's polyline sags below the true curve by at
    most h^2 kappa / 8 ~ h * turn / 8 per segment, and the merged segments
    stray from the polyline by at most the merge tolerance tau, so the sag
    is taken as h * turn / 8 + tau. The assigned parameter can then wander
    about (eps + sag)/|Phi'| in x near an arc endpoint. Each endpoint
    converts that wander into frequency error at most the half-plane Poisson
    density 1/pi per unit x.
    """
    phis = np.asarray(trace.phi)
    d = np.diff(phis)
    h = float(np.max(np.abs(d)))
    ang = np.angle(d[1:] / d[:-1])
    turn = float(np.max(np.abs(ang))) if ang.size else 0.0
    sag = h * turn / 8.0 + _merge_tolerance(phis)
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
    X = complex(X)
    if abs(X - _boundary_image(ev, [p_center])[0]) <= 2.0 * rs_all[-1]:
        raise ValueError("pole must stay outside twice the largest ball")
    lo, hi = (v[0] for v in _ball_preimages(ev, [p_center], rs_all))
    if np.any(np.diff(lo) > 0.0) or np.any(np.diff(hi) < 0.0):
        raise ValueError("ball preimages failed to nest")
    wide = hi - lo >= 10.0 * mc.wos_epsilon
    pre_dropped = [(r, "preimage below 10x the absorption shell")
                   for r, w in zip(rs_all, wide) if not w]
    rs = [r for r, w in zip(rs_all, wide) if w]
    spans = list(zip(lo[wide].tolist(), hi[wide].tolist()))
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

    ints = split_integrals(g, [-e for e in eps], eps, locs, bs, cells=8).tolist()
    lefts = split_integrals(g, [-e for e in eps], [0.0] * len(eps), locs, bs, cells=8).tolist()
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
