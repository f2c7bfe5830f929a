"""Conformal map Phi built as the antiderivative of G = exp(-W + iV).

Phi(z) = integral of G along any rectifiable path from the base point i to z.
G is analytic and zero-free in the open upper half plane with |arg G| <= c'
< pi/2, so the integral is path independent and Phi(i) = 0 by construction.
On the real axis G has continuous boundary values exp(-Kf(x) + i f(x)) away
from the jump set; at a jump x_k the modulus blows up like |x - x_k|^(-p) with
p = c a_k / pi < 1/2, an integrable power, so Phi extends continuously to the
closed half plane.

Interior path segments use the certified graded rule on G, refined from one
cell toward wherever G varies, at PHI_TOL. Along the real line there is one
rule, quadrature.split_integrals with the jump exponents c a_k / pi: it cuts
each interval at the jumps, integrates the pieces that end at a jump after
the flattening substitution sigma = s^(1/(1-p)) and the others on
fixed-order Gauss cells, and gives no error estimate. A path that ends at a
jump should therefore end with a boundary run; an interior segment that ends
at a jump gets no flattening. trace_boundary hands the rule every cell of a
dyadically refined grid in one call and telescopes the cell values.
"""

from __future__ import annotations

import cmath
import contextlib
import math
import os
from dataclasses import dataclass

import numpy as np

from .halfplane import HarmonicEvaluator
from .hilbert import HilbertEvaluator
from .profile import MODE_LIPSCHITZ, TangentProfile
from .quadrature import gauss_cell_values, gauss_graded, split_integrals

PI = math.pi
BASE_POINT = 1j

# deepest dyadic refinement scale toward a boundary singularity
REFINE_FLOOR_LOG2 = 28
# tolerance of every interior path segment of Phi
PHI_TOL = 1e-9


def _as_harmonic(ev) -> HarmonicEvaluator:
    if isinstance(ev, HarmonicEvaluator):
        return ev
    if isinstance(ev, HilbertEvaluator):
        return HarmonicEvaluator(ev)
    raise TypeError("expected a HilbertEvaluator or HarmonicEvaluator")


@contextlib.contextmanager
def _text_sink(path_or_buf):
    """A path is opened for writing and closed afterwards; a buffer is used as is."""
    if isinstance(path_or_buf, (str, bytes, os.PathLike)):
        with open(path_or_buf, "w") as fh:
            yield fh
    else:
        yield path_or_buf


@dataclass(frozen=True)
class PathSpec:
    """Polyline from waypoints[0] to waypoints[-1] in the closed half plane.

    A segment with both ends on the real line is a boundary run: it is cut at
    the jumps, and the pieces that end at a jump are flattened. Every other
    segment is integrated with the certified graded rule and gets no flattening,
    so a path to a jump x_k should reach it along the boundary, as in
    (i, x_k + h, x_k).
    """

    waypoints: tuple[complex, ...]

    def __post_init__(self):
        wps = tuple(complex(w) for w in self.waypoints)
        object.__setattr__(self, "waypoints", wps)
        if len(wps) < 2:
            raise ValueError("path needs at least two waypoints")
        if any(w1 == w2 for w1, w2 in zip(wps, wps[1:])):
            raise ValueError("consecutive waypoints must be distinct")
        if any(w.imag < 0.0 for w in wps):
            raise ValueError("path must stay in the closed upper half plane")


def _boundary_g(ev: HilbertEvaluator):
    """Boundary values G(x) = exp(-Kf(x) + i f(x)), vectorized."""
    p = ev.profile

    def fn(ys):
        with np.errstate(divide="ignore"):
            return np.exp(-ev.kf_vec(ys) + 1j * p.f_vec(ys))

    return fn


def _boundary_abs_dphi(ev: HilbertEvaluator):
    """Boundary values |Phi'(x)| = |G(x)| = exp(-Kf(x)), vectorized."""

    def fn(ys):
        with np.errstate(divide="ignore"):
            return np.exp(-ev.kf_vec(ys))

    return fn


def _jump_integrals(ev: HilbertEvaluator, fn, lo, hi, cells: int = 4) -> np.ndarray:
    """split_integrals of fn over [lo_i, hi_i] with the |y - x_k|^(-c a_k / pi)
    singularities of |G| at the jumps."""
    p = ev.profile
    return split_integrals(fn, lo, hi, p.x, [p.c * ak / PI for ak in p.a], cells)


def _boundary_integral(ev: HilbertEvaluator, x1, x2) -> np.ndarray:
    """int_{x1}^{x2} G along the real line, split at the jumps and flattened:
    an array of the ends' broadcast shape, ends in either order (0 where
    they agree), from one split_integrals call."""
    x1, x2 = np.broadcast_arrays(np.asarray(x1, dtype=float), np.asarray(x2, dtype=float))
    val = np.zeros(x1.shape, dtype=complex)
    part = x1 != x2
    val[part] = _jump_integrals(ev, _boundary_g(ev), np.minimum(x1, x2)[part],
                                np.maximum(x1, x2)[part])
    return np.where(x2 < x1, -val, val)


def _auto_path(p: TangentProfile, z: complex) -> PathSpec:
    """Straight from i; a jump, or 0 in c1 mode, is reached along the boundary.

    The boundary run starts at x + h, with h half the distance to the nearest
    other jump (or to 0) for a jump, and half the distance to the nearest jump
    for 0, both capped at 1; x + h is a regular point.
    """
    x = z.real
    if z.imag == 0.0 and x in p.x:
        h = min(1.0, 0.5 * p.delta(p.x.index(x)))
    elif z.imag == 0.0 and x == 0.0 and p.mode != MODE_LIPSCHITZ:
        h = min(1.0, 0.5 * min(abs(xk) for xk in p.x))
    else:
        return PathSpec((BASE_POINT, z))
    return PathSpec((BASE_POINT, complex(x + h), z))


def _segment_integral(harm: HarmonicEvaluator, z1: complex, z2: complex) -> complex:
    """int G from z1 to z2 along the segment: a boundary run if both ends are
    real, else gauss_graded over s in [0, 1] at PHI_TOL."""
    if z1.imag == 0.0 and z2.imag == 0.0:
        return complex(_boundary_integral(harm.ev, z1.real, z2.real))
    dz = z2 - z1
    # 40 rounds reach cells of 2^-39 of the segment; an interior segment that
    # ends at a jump certifies with cells of about 2^-22 there
    val = gauss_graded(lambda s: np.exp(harm.g_exponent_vec(z1 + s * dz)),
                       [0.0, 1.0], tol=PHI_TOL, max_rounds=40)
    return val * dz


def integrate_phi(ev, z: complex, path: PathSpec | None = None) -> complex:
    """Phi(z) = int_{path} G with Phi(i) = 0; auto path if none is given.

    The auto path is the straight segment from i. A jump x_k, or 0 in c1 mode,
    is reached along the boundary instead: straight to the regular point
    x + h, then a boundary run to x on which the boundary rule flattens the
    |x - x_k|^(-c a_k / pi) singularity. A given path that ends at a jump
    should end with such a boundary run; an interior segment that ends at a
    jump gets no flattening.
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
    wps = path.waypoints
    for z1, z2 in zip(wps, wps[1:]):
        total += _segment_integral(harm, z1, z2)
    return total


# -- boundary trace --------------------------------------------------------------


@dataclass(frozen=True)
class BoundaryTrace:
    """Ordered boundary samples (x_j, Phi_j, |Phi'|_j) with singular markers.

    The sample fields accept any sequence and are stored as ndarrays.
    quad_error sums the 15/23 differences of the grid cells with no jump at
    either end. It leaves out the anchor Phi(x_0) and the flattened cells at
    the jumps, which carry no error estimate: their zeroed sliver alone is
    about 4.8e-5 relative on the 2^-28 cells at each jump (see
    quadrature.split_integrals).
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
        with _text_sink(path_or_buf) as fh:
            fh.write("x,re_phi,im_phi,abs_dphi,is_singular\n")
            for xj, pj, dj, sj in zip(self.x, self.phi, self.abs_dphi,
                                      self.is_singular):
                dtxt = "inf" if math.isinf(dj) else f"{dj:.17g}"
                fh.write(f"{xj:.17g},{pj.real:.17g},{pj.imag:.17g},"
                         f"{dtxt},{int(sj)}\n")

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


def trace_boundary(ev, x_lo: float, x_hi: float, base_n: int = 200) -> BoundaryTrace:
    """Sample Phi along [x_lo, x_hi] by telescoping boundary integration.

    The grid refines dyadically (ratio 1/2 down to 2^-28) toward 0 and every
    jump point. Each increment is the boundary rule on one grid cell, all
    cells in one split_integrals call: a cell's singular ends are flattened,
    so a cell with a jump at both ends (jumps closer than 2^-28) splits at its
    midpoint, and a regular cell is one 23-point Gauss cell. quad_error sums
    the regular cells' differences from their 15-point values.
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

    anchor = integrate_phi(harm, complex(xs[0], 0.0))
    increments = _jump_integrals(ev, gfn, xs[:-1], xs[1:], cells=1)
    # every jump in the window is a grid point, so a cell with no jump at
    # either end is one regular piece
    regular = ~(sing[:-1] | sing[1:])
    e15 = gauss_cell_values(gfn, xs[:-1][regular], xs[1:][regular], 15)
    quad_err = float(np.abs(increments[regular] - e15).sum())
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
                             passed=min_margin > 0.0)


def segment_margin(ev, z1: complex, z2: complex, cells: int = 6) -> float:
    """Re int_0^1 G dt minus cos(c') times the sampled min of |G|."""
    if z1 == z2:
        raise ValueError("degenerate segment")
    harm = _as_harmonic(ev)
    cp = harm.profile.c_prime
    abs_g = []

    def g(s):
        vals = np.exp(harm.g_exponent_vec(z1 + s * (z2 - z1)))
        abs_g.append(np.abs(vals).min())
        return vals

    edges = np.linspace(0.0, 1.0, cells + 1)
    re_int = float(gauss_cell_values(g, edges[:-1], edges[1:]).real.sum())
    return re_int - math.cos(cp) * float(min(abs_g))


@dataclass(frozen=True)
class GrowthReport:
    radii: tuple[float, ...]
    min_products: tuple[float, ...]
    fitted_exponent: float
    target_exponent: float


def growth_check(ev, radii, n_angles: int = 5) -> GrowthReport:
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
        phi = integrate_phi(harm, z_prev)
        log_phi[0, i_a] = math.log(abs(phi))
        for i_r, r in enumerate(radii[1:], start=1):
            z_next = r * u
            phi += _segment_integral(harm, z_prev, z_next)
            log_phi[i_r, i_a] = math.log(abs(phi))
            z_prev = z_next
    prods = np.exp(log_phi) * (np.asarray(radii)[:, None] ** (cp / PI - 1.0))
    slope = float(np.polyfit(np.log(radii), log_phi.mean(axis=1), 1)[0])
    return GrowthReport(radii=tuple(radii),
                        min_products=tuple(prods.min(axis=1)),
                        fitted_exponent=slope,
                        target_exponent=1.0 - cp / PI)


def secant_tangent(ev: HilbertEvaluator, x: float,
                   eps_list) -> list[tuple[float, float]]:
    """Polar form of (Phi(x + eps) - Phi(x)) / eps for each eps.

    At a jump point the modulus grows without bound while the angle tends to
    f(x); at regular points both converge, to exp(-Kf(x)) and f(x). Increments
    telescope along the boundary; every piece splits at interior jumps and
    runs the flattened rule on singular edges (for x near the accumulation
    point the pieces have jumps on both ends).
    """
    p = ev.profile
    eps = [float(e) for e in eps_list]
    if not eps or any(e <= 0.0 for e in eps):
        raise ValueError("eps_list must contain positive values")
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise ValueError("eps_list must be strictly decreasing")
    if x in p.x and max(eps) > 0.5 * p.delta(p.x.index(x)):
        raise ValueError("eps_list must stay within half the local gap")
    # eps is decreasing: the increments run from x outward and telescope
    ends = x + np.array(eps[::-1])
    diffs = np.cumsum(_boundary_integral(ev, np.r_[x, ends[:-1]], ends))[::-1]
    return [(abs(d / e), cmath.phase(d / e)) for d, e in zip(diffs.tolist(), eps)]


def average_derivative(ev: HilbertEvaluator, x: float, a: float,
                       b: float) -> float:
    """A(a, b) = (1/(a+b)) int_{x-a}^{x+b} |Phi'|; blows up at jump points."""
    if not (a > 0.0 and b > 0.0):
        raise ValueError("need positive window sides")
    total = _jump_integrals(ev, _boundary_abs_dphi(ev), [x - a], [x + b])[0]
    return float(total) / (a + b)
