"""Harmonic extensions of f and Kf to the upper half-plane, and G = exp(-W + iV).

Both Poisson integrals come from one analytic function. With

    A(z) = (1/pi) int f(y) [ 1/(y - z) - chi_{|y|>1}/y ] dy,      Im z > 0,

the imaginary part of the kernel is pi P_t(x - y), so Im A = P_t * f = V, and
the real part has boundary values -Kf (same compensator as the transform), so
-Re A and P_t * Kf are harmonic with identical boundary data and sub-log
growth, hence equal. G is then exp(A) in C1 mode; in Lipschitz mode both parts
collapse to closed forms (the Poisson integral of log|y - x_k| is log|z - x_k|,
the Poisson integral of a step is an angle).

The integral itself is over the bounded continuous profile f: no principal
value, no singular integrand. f is 0 left of the jump set and c' right of its
saturation point, so the range truncates to [y_min, Y] with the exact tail

    int_Y^inf c' [1/(y-z) - 1/y] dy = -c' log(1 - z/Y),   Y >= max(sat, 1),

where the principal branch applies because Im(1 - z/y) < 0 throughout.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .hilbert import HilbertEvaluator, is_neg_inf
from .profile import TangentProfile, MODE_C1, MODE_LIPSCHITZ
from .quadrature import gauss_graded, graded_edges, merge_edges

__all__ = [
    "UpperHalfPoint",
    "HarmonicEvaluator",
    "poisson_kernel",
]

PI = math.pi


@dataclass(frozen=True)
class UpperHalfPoint:
    """Interior point z = x + it, t > 0. Boundary points travel as plain reals."""

    x: float
    t: float

    def __post_init__(self):
        if not self.t > 0.0:
            raise ValueError("interior point needs t > 0")

    def as_complex(self) -> complex:
        return complex(self.x, self.t)

    def delta0(self, p: TangentProfile) -> float:
        """Distance to the (boundary) jump set."""
        return min(math.hypot(self.x - xk, self.t) for xk in p.x)


def poisson_kernel(xi, t):
    """P_t(xi) = (1/pi) t / (xi^2 + t^2)."""
    if not t > 0.0:
        raise ValueError("Poisson kernel needs t > 0")
    xi = np.asarray(xi, dtype=float)
    out = t / (xi * xi + t * t) / PI
    return float(out) if out.ndim == 0 else out


def _as_xt(z) -> tuple[float, float]:
    if isinstance(z, UpperHalfPoint):
        return z.x, z.t
    zc = complex(z)
    if zc.imag <= 0.0:
        raise ValueError("interior evaluation needs Im z > 0")
    return zc.real, zc.imag


def herglotz_transform(p: TangentProfile, x: float, t: float,
                       tol: float = 3e-12) -> complex:
    """A(z) = (1/pi) int f(y) [1/(y-z) - chi_{|y|>1}/y] dy for z = x + it."""
    z = complex(x, t)
    jumps = np.asarray(p.x, dtype=float)
    y_min = float(jumps.min())
    sat = float(jumps.max()) + (p.bridge.x_star if p.mode == MODE_C1 else 0.0)
    Y = max(sat, 1.0)
    span = Y - y_min

    def fn(y):
        comp = np.where(y > 1.0, 1.0 / y, 0.0)
        return p.f_vec(y) * (1.0 / (y - z) - comp)

    sets = [graded_edges(y_min, Y, x, max(t * 1e-2, span * 1e-14)),
            [1.0] if y_min < 1.0 < Y else []]
    # Tip cells [x_k, x_k + w] contribute ~ theta-rise(w) * w / t when z sits
    # over the jump, so the grading depth at each jump must scale with t.
    jump_scale = max(span * 1e-16, min(span * 1e-9, t * 1e-6))
    for xk in jumps:
        sets.append(graded_edges(y_min, Y, float(xk), jump_scale))
        if p.mode == MODE_C1:
            # f has curvature breaks at every shifted bridge knot; keeping them
            # on cell edges preserves per-cell analyticity.
            sets.append([float(xk) + kn for kn in p.bridge.knots
                         if y_min < xk + kn < Y])
    edges = merge_edges(*sets)
    integral = gauss_graded(fn, edges, tol=tol)
    tail = -p.c_prime * cmath.log(1.0 - z / Y)
    return (integral + tail) / PI


def _poisson_of_step(p: TangentProfile, x: float, t: float) -> float:
    """Closed-form V for a Lipschitz profile: Poisson of a step is an angle."""
    return p.c * math.fsum(
        a * (0.5 + math.atan((x - xk) / t) / PI) for a, xk in zip(p.a, p.x))


def _log_sum(p: TangentProfile, x: float, t: float) -> float:
    """(c/pi) sum a_k log|z - x_k| (exact W in Lipschitz mode)."""
    return (p.c / PI) * math.fsum(
        a * 0.5 * math.log((x - xk) ** 2 + t * t) for a, xk in zip(p.a, p.x))


@dataclass
class HarmonicEvaluator:
    """V, W and G with a shared (x, t) -> A cache.

    Values never depend on cache state: herglotz_transform is pure, the cache
    only skips repeated quadrature for path integration revisiting points.
    """

    ev: HilbertEvaluator
    quad_tol: float = 3e-12
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def profile(self) -> TangentProfile:
        return self.ev.profile

    def herglotz(self, x: float, t: float) -> complex:
        key = (float(x), float(t))
        if key not in self._cache:
            self._cache[key] = herglotz_transform(self.profile, x, t,
                                                  tol=self.quad_tol)
        return self._cache[key]

    def V(self, z) -> float:
        x, t = _as_xt(z)
        if self.profile.mode == MODE_LIPSCHITZ:
            return _poisson_of_step(self.profile, x, t)
        return self.herglotz(x, t).imag

    def W(self, z) -> float:
        x, t = _as_xt(z)
        if self.profile.mode == MODE_LIPSCHITZ:
            return _log_sum(self.profile, x, t)
        return -self.herglotz(x, t).real

    def g_exponent(self, z) -> complex:
        """-W + iV as one number (= A(z) in C1 mode)."""
        x, t = _as_xt(z)
        if self.profile.mode == MODE_LIPSCHITZ:
            return complex(-_log_sum(self.profile, x, t),
                           _poisson_of_step(self.profile, x, t))
        return self.herglotz(x, t)

    def G(self, z) -> complex:
        """exp(-W + iV) interior; boundary reals use |G| = exp(-Kf), arg = f."""
        if isinstance(z, UpperHalfPoint) or (isinstance(z, complex) and z.imag != 0.0):
            return cmath.exp(self.g_exponent(z))
        return self.boundary_G(float(np.real(z)))

    def boundary_G(self, x: float) -> complex:
        """G(x) on the real line; +inf magnitude at the singular set {x_k}.

        At singular points the returned complex has infinite modulus but its
        components carry the direction cos/sin(f(x)); use boundary_arg for the
        argument, which stays well defined there.
        """
        val, _ = self.ev.k_profile(x)
        theta = self.boundary_arg(x)
        if is_neg_inf(val):
            return complex(math.inf * math.cos(theta), math.inf * math.sin(theta))
        r = math.exp(-val)
        return complex(r * math.cos(theta), r * math.sin(theta))

    def boundary_arg(self, x: float) -> float:
        return self.ev.profile.f(x)


def poisson_of_kf_oracle(ev: HilbertEvaluator, x: float, t: float,
                         half_width: float = 4000.0) -> float:
    """Direct quadrature of P_t * Kf: the independent check that -Re A = W.

    Kf itself grows like (c'/pi) log|y|, whose Poisson integral is known
    exactly ((c'/pi) log|z|), so only the remainder Kf - (c'/pi) log|y| is
    integrated numerically; it decays like 1/y, making the truncation tail
    O(t/L^2). Kf values come from the region formulas; the integrable log
    spikes (jump set, and the origin from the subtracted log) get geometric
    refinement. The tail bound is checked and reported if too large.
    """
    p = ev.profile
    cp = p.c_prime
    L = half_width
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
    if L < 8.0 * (abs(x) + t + 1.0):
        raise ValueError("half_width too small for the 1/y tail estimate")
    rem_far = max(abs(float(rem(np.array([lo]))[0])),
                  abs(float(rem(np.array([hi]))[0])))
    # |rem(y)| <~ C/|y| with C = rem_far * L, so the two-sided tail is about
    # C t / (pi L^2); keep a margin factor of 4.
    tail_bound = 4.0 * rem_far * t / (PI * L)
    if tail_bound > 1e-8:
        raise ValueError(f"truncation tail bound {tail_bound:.2e} too large; "
                         f"increase half_width")
    return val
