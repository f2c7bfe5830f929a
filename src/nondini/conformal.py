"""Conformal map Phi built as the antiderivative of G = exp(-W + iV).

Phi(z) = integral of G along any rectifiable path from the base point i to z.
G is analytic and zero-free in the open upper half plane with |arg G| <= c'
< pi/2, so the integral is path independent and Phi(i) = 0 by construction.
On the real axis G has continuous boundary values exp(-Kf(x) + i f(x)) away
from the jump set; at a jump x_k the modulus blows up like |x - x_k|^(-p) with
p = c a_k / pi < 1/2, an integrable power, so Phi extends continuously to the
closed half plane. Boundary cells that touch a jump are integrated after the
flattening substitution sigma = s^(1/(1-p)); everything else uses fixed-order
Gauss cells (boundary) or adaptive Gauss-Kronrod (interior paths).
"""

from __future__ import annotations

import cmath
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .halfplane import HarmonicEvaluator
from .hilbert import HilbertEvaluator
from .profile import MODE_LIPSCHITZ, TangentProfile
from .quadrature import (
    gauss_cell_values,
    gauss_cells,
    gauss_rule,
    graded_edges,
    integrate_power_endpoint,
    merge_edges,
    quad_complex,
    split_plan,
)

PI = math.pi
BASE_POINT = 1j

# deepest dyadic refinement scale toward a boundary singularity
REFINE_FLOOR_LOG2 = 28


def _as_harmonic(ev) -> HarmonicEvaluator:
    if isinstance(ev, HarmonicEvaluator):
        return ev
    if isinstance(ev, HilbertEvaluator):
        return HarmonicEvaluator(ev)
    raise TypeError("expected a HilbertEvaluator or HarmonicEvaluator")


@dataclass(frozen=True)
class PathSpec:
    """Polyline from waypoints[0] to waypoints[-1] in the closed half plane.

    rules[i] describes segment i: None for a regular segment, or the exponent
    p in [0, 1) of an |z - end|^(-p) singularity sitting at that segment's end
    point (which must be the only boundary contact of the segment).
    """

    waypoints: tuple[complex, ...]
    rules: tuple[float | None, ...] = ()

    def __post_init__(self):
        wps = tuple(complex(w) for w in self.waypoints)
        object.__setattr__(self, "waypoints", wps)
        if len(wps) < 2:
            raise ValueError("path needs at least two waypoints")
        if any(w1 == w2 for w1, w2 in zip(wps, wps[1:])):
            raise ValueError("consecutive waypoints must be distinct")
        if any(w.imag < 0.0 for w in wps):
            raise ValueError("path must stay in the closed upper half plane")
        rules = tuple(self.rules) if self.rules else (None,) * (len(wps) - 1)
        object.__setattr__(self, "rules", rules)
        if len(rules) != len(wps) - 1:
            raise ValueError("need one rule per segment")
        for (w1, w2), p in zip(zip(wps, wps[1:]), rules):
            if p is None:
                continue
            if not 0.0 <= p < 1.0:
                raise ValueError("singular exponent must lie in [0, 1)")
            if w2.imag != 0.0 or w1.imag <= 0.0:
                raise ValueError("an endpoint-singular segment must touch the "
                                 "boundary at its end point only")

    def segments(self):
        return list(zip(self.waypoints, self.waypoints[1:], self.rules))


def _singular_exponent(p: TangentProfile, x: float) -> float | None:
    """c a_k / pi when x is a jump point, else None."""
    for ak, xk in zip(p.a, p.x):
        if x == xk:
            return p.c * ak / PI
    return None


def _boundary_g(ev: HilbertEvaluator):
    p = ev.profile

    def fn(ys):
        with np.errstate(divide="ignore"):
            return np.exp(-ev.kf_vec(ys) + 1j * p.f_vec(ys))

    return fn


def _auto_path(p: TangentProfile, z: complex) -> PathSpec:
    if z.imag == 0.0:
        pexp = _singular_exponent(p, z.real)
        if pexp is not None:
            k = p.x.index(z.real)
            height = min(1.0, 0.5 * p.delta(k))
            mid = complex(z.real, height)
            if mid == BASE_POINT:
                return PathSpec((BASE_POINT, z), (pexp,))
            return PathSpec((BASE_POINT, mid, z), (None, pexp))
        if z.real == 0.0 and p.mode != MODE_LIPSCHITZ:
            # continuous here, but approach vertically as for the jumps
            height = min(1.0, 0.5 * min(abs(xk) for xk in p.x))
            return PathSpec((BASE_POINT, complex(0.0, height), z), (None, 0.0))
    return PathSpec((BASE_POINT, z))


def _segment_integral(harm: HarmonicEvaluator, z1: complex, z2: complex,
                      rule: float | None, tol: float) -> complex:
    ev = harm.ev
    if z1.imag == 0.0 and z2.imag == 0.0:
        # boundary run: vectorized boundary values of G
        fn = _boundary_g(ev)
        a, b = sorted((z1.real, z2.real))
        sign = 1.0 if z2.real > z1.real else -1.0
        inner = [xk for xk in ev.profile.x if a < xk < b]
        if inner:
            edges = merge_edges(*[graded_edges(a, b, xk, (b - a) * 1e-13)
                                  for xk in inner])
            return sign * gauss_cells(fn, edges, 23)
        return sign * gauss_cells(fn, np.linspace(a, b, 9), 23)

    dz = z2 - z1
    if rule is not None:
        def gseg(ss):
            ss = np.atleast_1d(np.asarray(ss, dtype=float))
            return np.array([harm.G(z1 + s * dz) for s in ss])

        return integrate_power_endpoint(gseg, 0.0, 1.0, rule, side="b") * dz

    val, _ = quad_complex(lambda s: harm.G(z1 + s * dz), 0.0, 1.0, tol=tol)
    return val * dz


def integrate_phi(ev, z: complex, path: PathSpec | None = None,
                  tol: float = 1e-9) -> complex:
    """Phi(z) = int_{path} G with Phi(i) = 0; auto path if none is given.

    The auto path is the straight segment from i (singular boundary targets
    get a vertical final approach with the flattened power rule, exponent
    c a_k / pi < 1/2, so the integral converges).
    """
    harm = _as_harmonic(ev)
    z = complex(z)
    if z.imag < 0.0:
        raise ValueError("z must lie in the closed upper half plane")
    if path is None:
        if z == BASE_POINT:
            return 0.0 + 0.0j
        path = _auto_path(harm.profile, z)
    if path.waypoints[0] != BASE_POINT:
        raise ValueError("paths must start at the base point i")
    if path.waypoints[-1] != z:
        raise ValueError("path does not end at z")
    total = 0.0 + 0.0j
    for z1, z2, rule in path.segments():
        total += _segment_integral(harm, z1, z2, rule, tol)
    return total


# -- boundary trace --------------------------------------------------------------


@dataclass(frozen=True)
class BoundaryTrace:
    """Ordered boundary samples (x_j, Phi_j, |Phi'|_j) with singular markers.

    The sample fields accept any sequence and are stored as ndarrays.
    """

    x: np.ndarray
    phi: np.ndarray
    abs_dphi: np.ndarray
    is_singular: np.ndarray
    c_prime: float
    quad_error: float = 0.0

    def __post_init__(self):
        for name, dtype in (("x", float), ("phi", complex), ("abs_dphi", float),
                            ("is_singular", bool)):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        if not np.all(np.diff(self.x) > 0.0):
            raise ValueError("trace abscissae must be strictly increasing")

    @classmethod
    def flat(cls, x_lo: float, x_hi: float, n: int) -> "BoundaryTrace":
        """The straight boundary of the f == 0 case, Phi(x) = x, at n points."""
        xs = np.linspace(x_lo, x_hi, n)
        return cls(x=xs, phi=xs.astype(complex), abs_dphi=np.ones(n),
                   is_singular=np.zeros(n, dtype=bool), c_prime=0.0)

    def to_csv(self, path_or_buf) -> None:
        close = False
        if isinstance(path_or_buf, (str, bytes, os.PathLike)):
            fh = open(path_or_buf, "w")
            close = True
        else:
            fh = path_or_buf
        try:
            fh.write("x,re_phi,im_phi,abs_dphi,is_singular\n")
            for xj, pj, dj, sj in zip(self.x, self.phi, self.abs_dphi,
                                      self.is_singular):
                dtxt = "inf" if math.isinf(dj) else f"{dj:.17g}"
                fh.write(f"{xj:.17g},{pj.real:.17g},{pj.imag:.17g},"
                         f"{dtxt},{int(sj)}\n")
        finally:
            if close:
                fh.close()

    def is_simple(self) -> bool:
        """No proper self-intersection among non-adjacent polyline segments."""
        pts = self.phi
        ax, ay = pts[:-1].real, pts[:-1].imag
        bx, by = pts[1:].real, pts[1:].imag
        n = ax.size

        def cross(ox, oy, px, py, qx, qy):
            return (px - ox) * (qy - oy) - (py - oy) * (qx - ox)

        for i in range(n - 2):
            j = np.arange(i + 2, n)
            d1 = cross(ax[i], ay[i], bx[i], by[i], ax[j], ay[j])
            d2 = cross(ax[i], ay[i], bx[i], by[i], bx[j], by[j])
            d3 = cross(ax[j], ay[j], bx[j], by[j], ax[i], ay[i])
            d4 = cross(ax[j], ay[j], bx[j], by[j], bx[i], by[i])
            if np.any((d1 * d2 < 0.0) & (d3 * d4 < 0.0)):
                return False
        return True

    def secant_angles(self) -> np.ndarray:
        """Direction of each polyline segment (tangent field estimate)."""
        return np.angle(np.diff(self.phi))


def _trace_grid(p: TangentProfile, x_lo: float, x_hi: float, base_n: int):
    xs = {float(v) for v in np.linspace(x_lo, x_hi, base_n)}
    targets = sorted(set([0.0, *map(float, p.x)]))
    for s in targets:
        if x_lo <= s <= x_hi:
            xs.add(s)
        for m in range(2, REFINE_FLOOR_LOG2 + 1):
            for v in (s - 2.0 ** -m, s + 2.0 ** -m):
                if x_lo < v < x_hi:
                    xs.add(v)
    return np.array(sorted(xs))


def trace_boundary(ev, x_lo: float, x_hi: float, base_n: int = 200,
                   tol: float = 1e-9) -> BoundaryTrace:
    """Sample Phi along [x_lo, x_hi] by telescoping boundary integration.

    The grid refines dyadically (ratio 1/2 down to 2^-28) toward 0 and every
    jump point; each increment integrates the boundary values of G, switching
    to the flattened power rule on cells that end at a jump.
    """
    harm = _as_harmonic(ev)
    ev = harm.ev
    p = harm.profile
    if not x_lo < 0.0 < x_hi:
        raise ValueError("trace window must contain 0 in its interior")
    if base_n < 2:
        raise ValueError("base_n must be at least 2")
    xs = _trace_grid(p, x_lo, x_hi, base_n)
    with np.errstate(divide="ignore"):
        kf = ev.kf_vec(xs)
    abs_dphi = np.exp(-kf)
    sing = np.isin(xs, np.asarray(p.x, dtype=float))
    gfn = _boundary_g(ev)

    anchor = integrate_phi(harm, complex(xs[0], 0.0), tol=tol)
    increments = np.empty(xs.size - 1, dtype=complex)
    quad_err = 0.0
    regular = []
    for j in range(xs.size - 1):
        a, b = xs[j], xs[j + 1]
        if sing[j]:
            pexp = _singular_exponent(p, a)
            increments[j] = integrate_power_endpoint(gfn, a, b, pexp, side="a")
        elif sing[j + 1]:
            pexp = _singular_exponent(p, b)
            increments[j] = integrate_power_endpoint(gfn, a, b, pexp, side="b")
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


# -- verification reports ---------------------------------------------------------


@dataclass(frozen=True)
class InjectivityReport:
    margins: tuple[float, ...]
    min_margin: float
    cos_cprime: float
    passed: bool


def check_injectivity(ev, n_segments: int = 12, seed: int = 0,
                      cells: int = 6) -> InjectivityReport:
    """Re int_0^1 G(gamma(t)) dt >= cos(c') * min|G| > 0 on random segments.

    A zero of Phi(z2) - Phi(z1) would force that real part to vanish; the
    angle bound |arg G| <= c' < pi/2 makes it strictly positive, which is the
    injectivity argument run numerically. The floor uses the sampled minimum
    of |G| along the segment.
    """
    if n_segments < 1:
        raise ValueError("need at least one segment")
    harm = _as_harmonic(ev)
    cp = harm.profile.c_prime
    rng = np.random.default_rng(seed)
    margins = []
    for _ in range(n_segments):
        z1 = complex(rng.uniform(-2.0, 2.0), rng.uniform(0.0, 2.0))
        z2 = complex(rng.uniform(-2.0, 2.0), rng.uniform(0.0, 2.0))
        if z1 == z2:
            continue
        margins.append(segment_margin(harm, z1, z2, cells=cells))
    min_margin = min(margins)
    return InjectivityReport(margins=tuple(margins), min_margin=min_margin,
                             cos_cprime=math.cos(cp),
                             passed=min_margin > -1e-9)


def segment_margin(ev, z1: complex, z2: complex, cells: int = 6) -> float:
    """Re int_0^1 G dt minus cos(c') times the sampled min of |G|."""
    if z1 == z2:
        raise ValueError("degenerate segment")
    harm = _as_harmonic(ev)
    cp = harm.profile.c_prime
    t, w = gauss_rule(15)
    edges = np.linspace(0.0, 1.0, cells + 1)
    re_int = 0.0
    floor = math.inf
    for a, b in zip(edges[:-1], edges[1:]):
        h = 0.5 * (b - a)
        ss = a + (t + 1.0) * h
        vals = np.array([harm.G(z1 + s * (z2 - z1)) for s in ss])
        re_int += float(np.sum(w * vals.real) * h)
        floor = min(floor, float(np.abs(vals).min()))
    return re_int - math.cos(cp) * floor


@dataclass(frozen=True)
class GrowthReport:
    radii: tuple[float, ...]
    min_products: tuple[float, ...]
    fitted_exponent: float
    target_exponent: float


def growth_check(ev, radii, n_angles: int = 5, tol: float = 1e-8) -> GrowthReport:
    """|Phi| >~ |z|^(1 - c'/pi) sampled on arcs, checked via ray telescoping.

    For each sampled angle, Phi is integrated once to the smallest radius and
    then extended incrementally outward along the ray, so the total cost is a
    single long path per angle. Reports min_k |Phi| * R^(c'/pi - 1) per radius
    and the exponent fitted to mean log |Phi| against log R.
    """
    harm = _as_harmonic(ev)
    cp = harm.profile.c_prime
    radii = [float(r) for r in radii]
    if any(b <= a for a, b in zip(radii, radii[1:])) or len(radii) < 2:
        raise ValueError("radii must be strictly increasing, at least two")
    if radii[-1] > 1024.0:
        raise ValueError("largest radius capped at 1024")
    # Phi vanishes at the base point i, so arcs must stay clear of |z| = 1
    # or log |Phi| degenerates.
    if radii[0] < 2.0:
        raise ValueError("smallest radius must be at least 2")
    angles = np.linspace(PI / 12.0, 11.0 * PI / 12.0, n_angles)
    log_phi = np.empty((len(radii), n_angles))
    for i_a, ang in enumerate(angles):
        u = cmath.exp(1j * ang)
        z_prev = radii[0] * u
        phi = integrate_phi(harm, z_prev, tol=tol)
        log_phi[0, i_a] = math.log(abs(phi))
        for i_r, r in enumerate(radii[1:], start=1):
            z_next = r * u
            phi += _segment_integral(harm, z_prev, z_next, None, tol)
            log_phi[i_r, i_a] = math.log(abs(phi))
            z_prev = z_next
    prods = np.exp(log_phi) * (np.asarray(radii)[:, None] ** (cp / PI - 1.0))
    slope = float(np.polyfit(np.log(radii), log_phi.mean(axis=1), 1)[0])
    return GrowthReport(radii=tuple(radii),
                        min_products=tuple(prods.min(axis=1)),
                        fitted_exponent=slope,
                        target_exponent=1.0 - cp / PI)


def _split_singular(p: TangentProfile, a: float, b: float):
    """split_plan of [a, b] with the |y - x_k|^(-c a_k / pi) jump singularities."""
    return split_plan(a, b, p.x, [p.c * ak / PI for ak in p.a])


def _integrate_split(fn, plan, cells: int = 4):
    """Sum fn over a split_plan, flattening singular edges.

    Pieces with no singular end get `cells` equal 23-point Gauss cells.
    """
    total = 0.0 + 0.0j
    for lo, hi, pexp, side in plan:
        if pexp is None:
            total += complex(gauss_cells(fn, np.linspace(lo, hi, cells + 1), 23))
        else:
            total += complex(integrate_power_endpoint(fn, lo, hi, pexp,
                                                      side=side))
    return total


def secant_tangent(ev, x: float, eps_list) -> list[tuple[float, float]]:
    """Polar form of (Phi(x + eps) - Phi(x)) / eps for each eps.

    At a jump point the modulus grows without bound while the angle tends to
    f(x); at regular points both converge, to exp(-Kf(x)) and f(x). Increments
    telescope along the boundary; every piece splits at interior jumps and
    runs the flattened rule on singular edges (for x near the accumulation
    point the pieces have jumps on both ends).
    """
    harm = _as_harmonic(ev)
    ev = harm.ev
    p = harm.profile
    eps = [float(e) for e in eps_list]
    if not eps or any(e <= 0.0 for e in eps):
        raise ValueError("eps_list must contain positive values")
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise ValueError("eps_list must be strictly decreasing")
    pexp = _singular_exponent(p, x)
    if pexp is not None:
        k = p.x.index(x)
        if max(eps) > 0.5 * p.delta(k):
            raise ValueError("eps_list must stay within half the local gap")
    gfn = _boundary_g(ev)
    asc = sorted(eps)
    diffs = {}
    acc = _integrate_split(gfn, _split_singular(p, x, x + asc[0]))
    diffs[asc[0]] = acc
    for e_prev, e_next in zip(asc, asc[1:]):
        acc += _integrate_split(gfn, _split_singular(p, x + e_prev,
                                                     x + e_next))
        diffs[e_next] = acc
    return [(abs(diffs[e] / e), cmath.phase(diffs[e] / e)) for e in eps]


def average_derivative(ev, x: float, a: float, b: float) -> float:
    """A(a, b) = (1/(a+b)) int_{x-a}^{x+b} |Phi'|; blows up at jump points."""
    harm = _as_harmonic(ev)
    ev = harm.ev
    if not (a > 0.0 and b > 0.0):
        raise ValueError("need positive window sides")

    def fn(ys):
        with np.errstate(divide="ignore"):
            return np.exp(-ev.kf_vec(ys))

    total = _integrate_split(fn, _split_singular(harm.profile, x - a, x + b))
    return float(total.real) / (a + b)
