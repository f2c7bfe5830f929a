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

The quadrature grades its cells toward x and toward every jump (depth
jump_scale, which depends on z only through t and is the constant span * 1e-9
for every t >= 1e-3 span). The cells away from x are therefore the same for
almost every z, and the evaluator memoizes f at their Gauss nodes; a node
whose coordinate matches one of the memo's takes its value, the others are
evaluated. f_vec is elementwise, so A(z) is bit for bit the value of
evaluating f at every node (tests/oracles.py keeps that rule as the oracle).

Conventions: interior points are `complex` with Im z > 0 (V, W and
g_exponent reject any other; G takes a real point as a boundary point),
boundary points are floats, and Kf = -infinity on the singular set is IEEE
-inf, where the boundary G has infinite modulus.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .hilbert import HilbertEvaluator
from .profile import TangentProfile, MODE_C1, MODE_LIPSCHITZ
from .quadrature import gauss_graded, gauss_nodes, graded_edges, merge_edges

__all__ = [
    "HarmonicEvaluator",
    "poisson_kernel",
]

PI = math.pi


def poisson_kernel(xi, t):
    """P_t(xi) = (1/pi) t / (xi^2 + t^2)."""
    if not t > 0.0:
        raise ValueError("Poisson kernel needs t > 0")
    xi = np.asarray(xi, dtype=float)
    out = t / (xi * xi + t * t) / PI
    return float(out) if out.ndim == 0 else out


def _as_xt(z) -> tuple[float, float]:
    zc = complex(z)
    if zc.imag <= 0.0:
        raise ValueError("interior evaluation needs Im z > 0")
    return zc.real, zc.imag


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


def _y_range(p: TangentProfile) -> tuple[float, float]:
    """[y_min, Y]: f is 0 left of the first jump and c' from Y = max(sat, 1)."""
    return float(min(p.x)), max(p.saturation, 1.0)


class _NodeMemo(NamedTuple):
    """The z-independent cells of A(z) at one jump_scale, and f at their nodes.

    edges: the union of the jump gradings at jump_scale, the shifted bridge
    knots, 1 and the ends of [y_min, Y]; ys: the sorted order-15 and order-23
    Gauss nodes of those cells; fys: f_vec(ys).
    """

    edges: np.ndarray
    ys: np.ndarray
    fys: np.ndarray

    @classmethod
    def build(cls, p: TangentProfile, jump_scale: float) -> "_NodeMemo":
        y_min, Y = _y_range(p)
        sets = [[1.0] if y_min < 1.0 < Y else []]
        for xk in p.x:
            sets.append(graded_edges(y_min, Y, float(xk), jump_scale))
            if p.mode == MODE_C1:
                # f has curvature breaks at every shifted bridge knot; keeping
                # them on cell edges preserves per-cell analyticity.
                sets.append([float(xk) + kn for kn in p.bridge.knots
                             if y_min < xk + kn < Y])
        edges = merge_edges(*sets)
        ys = np.unique(np.concatenate(
            [gauss_nodes(edges[:-1], edges[1:], n).ravel() for n in (15, 23)]))
        return cls(edges, ys, p.f_vec(ys))


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
    """V, W and G with a shared (x, t) -> A cache and a node memo of f.

    Values never depend on cache or memo state. The cache skips repeated
    quadrature for path integration revisiting points. The memo holds f at
    the Gauss nodes of A(z)'s z-independent cells (_NodeMemo) for one
    jump_scale at a time, about 0.6 MB on the default c1 profile: it is built
    on first use and replaced when a call needs another jump_scale (t below
    1e-3 span), at about the cost of one A(z) without it.
    """

    ev: HilbertEvaluator
    quad_tol: float = 3e-12
    _cache: dict = field(default_factory=dict, repr=False)
    _memo: dict = field(default_factory=dict, repr=False)

    @property
    def profile(self) -> TangentProfile:
        return self.ev.profile

    def herglotz(self, x: float, t: float) -> complex:
        key = (float(x), float(t))
        if key not in self._cache:
            self._cache[key] = herglotz_transform(self, x, t)
        return self._cache[key]

    def _node_memo(self, jump_scale: float) -> _NodeMemo:
        """The memo entry for jump_scale, replacing the one held for another."""
        if jump_scale not in self._memo:
            self._memo.clear()
            self._memo[jump_scale] = _NodeMemo.build(self.profile, jump_scale)
        return self._memo[jump_scale]

    def V(self, z) -> float:
        return self.g_exponent(z).imag

    def W(self, z) -> float:
        return -self.g_exponent(z).real

    def g_exponent(self, z) -> complex:
        """-W + iV as one number (= A(z) in C1 mode)."""
        x, t = _as_xt(z)
        if self.profile.mode == MODE_LIPSCHITZ:
            return complex(-_log_sum(self.profile, x, t),
                           _poisson_of_step(self.profile, x, t))
        return self.herglotz(x, t)

    def G(self, z) -> complex:
        """exp(-W + iV) interior; boundary reals use |G| = exp(-Kf), arg = f."""
        if isinstance(z, complex) and z.imag != 0.0:
            return cmath.exp(self.g_exponent(z))
        return self.boundary_G(float(np.real(z)))

    def boundary_G(self, x: float) -> complex:
        """G(x) on the real line; +inf magnitude at the singular set {x_k}.

        At singular points the returned complex has infinite modulus but its
        components carry the direction cos/sin(f(x)); the argument f(x) stays
        well defined there.
        """
        val, _ = self.ev.k_profile(x)
        theta = self.profile.f(x)
        if val == -math.inf:
            return complex(math.inf * math.cos(theta), math.inf * math.sin(theta))
        r = math.exp(-val)
        return complex(r * math.cos(theta), r * math.sin(theta))
