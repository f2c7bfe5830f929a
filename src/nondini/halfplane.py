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

`HarmonicEvaluator.g_exponent_vec` evaluates A at a batch of points; every
other interior value is a one-point call of it. The cells of the integral are
graded toward every jump to a depth jump_scale, which depends on z only
through t and is the constant span * 1e-9 for every t >= 1e-3 span. For each
jump_scale the evaluator memoizes (_NodeMemo) the order-15 and order-23 Gauss
nodes of those cells with f times the Gauss weight at each, the compensator
of each cell, and the Laurent moments of both orders about the centre c of
[y_min, Y] (radius R). Then

* far field, |z - c| >= 2R: both orders' sums are their Laurent series in
  R/(z - c), 60 terms. A point is accepted when the 15/23 difference plus
  both truncation bounds sum|f w| rho^60 / ((1 - rho)|z - c|), rho <= 1/2,
  is within the tolerance; any other point goes to the near field.
* near field, one point at a time: both orders' value of every memo cell.
  The fewest cells with the largest 15/23 differences are taken that leave
  the others' differences summing to at most 1e-3 of the tolerance. The run
  of cells from the first to the last of them is regraded toward Re z (the
  grading of the oracle below) and integrated by the certified graded rule,
  with f from f_vec, to the rest of the tolerance.

So every value carries a 15/23 certificate at HERGLOTZ_TOL: per cell outside the
run, the graded rule's inside it, plus the series bound in the far field. A
run the graded rule cannot certify raises QuadratureError with its measured
error. The run is one rule rather than one per cell because cells a few t
wide next to Re z each have a rounding floor of about 1e-13 at t = 1e-7 (the
rounding of their nodes), which per-cell shares of the tolerance cannot
meet; the small rest keeps every value within 1e-14 relative of the oracle.
No points x nodes matrix is formed: the near field works on one point's
(cells, n) block. tests/oracles.py keeps the per-point graded rule over all
cells as the oracle.

Conventions: interior points are `complex` with Im z > 0 (V, W, G and
g_exponent_vec reject any other, real points included), boundary points are
floats, and Kf = -infinity on the singular set is IEEE -inf. G takes interior
points only: its boundary values exp(-Kf + i f), infinite in modulus on the
singular set, are conformal._boundary_g.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .hilbert import HilbertEvaluator
from .profile import TangentProfile, MODE_C1, MODE_LIPSCHITZ
from .quadrature import gauss_graded, gauss_nodes, gauss_rule, graded_edges, merge_edges

__all__ = [
    "HarmonicEvaluator",
    "poisson_kernel",
]

PI = math.pi
# tolerance of every A(z) value
HERGLOTZ_TOL = 3e-12
# the certified pair of Gauss orders, and the Laurent terms of the far field:
# at rho <= 1/2 the truncation bound is under 2^-60 sum|f w| / |z - c|
_ORDERS = (15, 23)
_TERMS = 60
# far-field points per (points, _TERMS) block of powers
_FAR_BLOCK = 2048
# share of the tolerance left to the near-field cells that are not regraded
_REST_FRAC = 1e-3


def poisson_kernel(xi, t):
    """P_t(xi) = (1/pi) t / (xi^2 + t^2)."""
    if not t > 0.0:
        raise ValueError("Poisson kernel needs t > 0")
    xi = np.asarray(xi, dtype=float)
    out = t / (xi * xi + t * t) / PI
    return float(out) if out.ndim == 0 else out


def _y_range(p: TangentProfile) -> tuple[float, float]:
    """[y_min, Y]: f is 0 left of the first jump and c' from Y = max(sat, 1)."""
    return float(min(p.x)), max(p.saturation, 1.0)


class _NodeMemo(NamedTuple):
    """The z-independent cells of A(z) at one jump_scale, and f at their nodes.

    edges: the union of the jump gradings at jump_scale, the shifted bridge
    knots, 1 and the ends of [y_min, Y]; ys: the sorted order-15 and order-23
    Gauss nodes of those cells; fys: f_vec(ys). Per order (rows 15, 23):
    nodes and fw, the (cells, n) Gauss nodes and f times the Gauss weight
    there; comp, each cell's compensator int f/y over y > 1; moments, the
    Laurent moments sum fw ((y - center) / radius)^m, m < _TERMS. fw_abs:
    sum |fw| over both orders, the factor of the two truncation bounds.
    """

    edges: np.ndarray
    ys: np.ndarray
    fys: np.ndarray
    nodes: tuple[np.ndarray, np.ndarray]
    fw: tuple[np.ndarray, np.ndarray]
    comp: np.ndarray
    moments: np.ndarray
    fw_abs: float
    center: float
    radius: float

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
        a, b = edges[:-1], edges[1:]
        nodes = tuple(gauss_nodes(a, b, n) for n in _ORDERS)
        ys = np.unique(np.concatenate([nd.ravel() for nd in nodes]))
        fys = p.f_vec(ys)
        fw = tuple(fys[np.searchsorted(ys, nd)] * gauss_rule(n)[1]
                   * (0.5 * (b - a))[:, None] for nd, n in zip(nodes, _ORDERS))
        comp = np.array([(w * np.where(nd > 1.0, 1.0 / nd, 0.0)).sum(axis=1)
                         for nd, w in zip(nodes, fw)])
        center, radius = 0.5 * (y_min + Y), 0.5 * (Y - y_min)
        moments = np.empty((len(_ORDERS), _TERMS))
        for row, nd, w in zip(moments, nodes, fw):
            s = ((nd - center) / radius).ravel()
            power = w.ravel().copy()
            for m in range(_TERMS):
                row[m] = power.sum()
                power *= s
        fw_abs = float(sum(np.abs(w).sum() for w in fw))
        return cls(edges, ys, fys, nodes, fw, comp, moments, fw_abs, center, radius)

    def integral(self, p: TangentProfile, zs: np.ndarray, tol: float) -> np.ndarray:
        """int_{y_min}^{Y} f(y) [1/(y - z) - chi_{y>1}/y] dy at each of zs."""
        out, ok = self._far_field(zs, tol)
        for i in np.flatnonzero(~ok):
            out[i] = self._near_field(p, complex(zs[i]), tol)
        return out

    def _far_field(self, zs: np.ndarray, tol: float):
        """(order-23 Laurent sums, accepted) at zs; rejected entries are 0."""
        w = zs - self.center
        aw = np.abs(w)
        out = np.zeros(zs.shape, dtype=complex)
        ok = aw >= 2.0 * self.radius
        comp = self.comp.sum(axis=1)
        idx = np.flatnonzero(ok)
        for i0 in range(0, idx.size, _FAR_BLOCK):
            sel = idx[i0:i0 + _FAR_BLOCK]
            u = self.radius / w[sel]
            power = np.empty((sel.size, _TERMS), dtype=complex)
            power[:, 0] = 1.0
            power[:, 1:] = u[:, None]
            np.cumprod(power, axis=1, out=power)
            s15, s23 = (-(power * row).sum(axis=1) * (u / self.radius) - cp
                        for row, cp in zip(self.moments, comp))
            rho = self.radius / aw[sel]
            bound = self.fw_abs * rho ** _TERMS / ((1.0 - rho) * aw[sel])
            err = np.abs(s15 - s23) + bound
            ok[sel] = err <= np.maximum(tol, tol * np.abs(s23))
            out[sel] = s23
        return out, ok

    @staticmethod
    def _cell_sums(nodes, fw, comp, x: float, t: float) -> np.ndarray:
        """Per cell, sum fw / (y - z) - comp, in real arithmetic:
        1 / (y - z) = (y - x + it) / ((y - x)^2 + t^2)."""
        d = nodes - x
        q = d * d
        q += t * t
        np.divide(fw, q, out=q)
        im = q.sum(axis=1) * t
        np.multiply(q, d, out=d)
        return (d.sum(axis=1) - comp) + 1j * im

    def _near_field(self, p: TangentProfile, z: complex, tol: float) -> complex:
        """Per-cell sums at z, with the run of cells that holds the largest
        15/23 differences regraded toward Re z (see the module docstring)."""
        x, t = z.real, z.imag
        c15, c23 = (self._cell_sums(nd, w, cp, x, t)
                    for nd, w, cp in zip(self.nodes, self.fw, self.comp))
        budget = max(tol, tol * abs(c23.sum()))
        diff = np.abs(c15 - c23)
        order = np.argsort(diff)[::-1]
        rest = np.append(np.cumsum(diff[order][::-1])[::-1], 0.0)
        k = int(np.argmax(rest <= _REST_FRAC * budget))
        if k:
            lo, hi = int(order[:k].min()), int(order[:k].max()) + 1

            def fn(y):
                comp = np.where(y > 1.0, 1.0 / y, 0.0)
                return p.f_vec(y) * (1.0 / (y - z) - comp)

            edges = merge_edges(
                graded_edges(self.edges[lo], self.edges[hi], x,
                             max(t * 1e-2, 2.0 * self.radius * 1e-14)),
                self.edges[lo:hi + 1])
            # gauss_graded's tolerance is relative above 1: scale it by the
            # run's size so that it stays absolute
            run = gauss_graded(fn, edges, tol=(budget - rest[k])
                               / max(1.0, abs(c23[lo:hi].sum())))
            return complex(c23[:lo].sum() + run + c23[hi:].sum())
        return complex(c23.sum())


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
    """V, W and G from A(z), with a node memo of f for the C1 quadrature.

    Values never depend on memo state. The memo (_NodeMemo) serves one
    jump_scale at a time, about 1.3 MB on the default c1 profile: it is built
    on first use and replaced when a point needs another jump_scale (t below
    1e-3 span).
    """

    ev: HilbertEvaluator
    _memo: dict = field(default_factory=dict, repr=False)

    @property
    def profile(self) -> TangentProfile:
        return self.ev.profile

    def _node_memo(self, jump_scale: float) -> _NodeMemo:
        """The memo entry for jump_scale, replacing the one held for another."""
        if jump_scale not in self._memo:
            self._memo.clear()
            self._memo[jump_scale] = _NodeMemo.build(self.profile, jump_scale)
        return self._memo[jump_scale]

    def g_exponent_vec(self, zs) -> np.ndarray:
        """-W + iV (= A(z) in C1 mode) at an array of points, shape kept.

        Every point needs Im z > 0 (ValueError otherwise). In C1 mode the
        points are grouped by jump_scale, the held memo's group first.
        """
        zs = np.asarray(zs, dtype=complex)
        flat = zs.ravel()
        if not np.all(flat.imag > 0.0):
            raise ValueError("interior evaluation needs Im z > 0")
        p = self.profile
        if p.mode == MODE_LIPSCHITZ:
            out = np.array([complex(-_log_sum(p, z.real, z.imag),
                                    _poisson_of_step(p, z.real, z.imag))
                            for z in flat.tolist()], dtype=complex)
            return out.reshape(zs.shape)
        y_min, Y = _y_range(p)
        span = Y - y_min
        # Tip cells [x_k, x_k + w] contribute ~ theta-rise(w) * w / t when z
        # sits over the jump, so the grading depth at each jump scales with t.
        scales = np.maximum(span * 1e-16, np.minimum(span * 1e-9, flat.imag * 1e-6))
        integral = np.empty(flat.shape, dtype=complex)
        for js in sorted(set(scales.tolist()), key=lambda s: s not in self._memo):
            sel = np.flatnonzero(scales == js)
            integral[sel] = self._node_memo(js).integral(p, flat[sel], HERGLOTZ_TOL)
        tail = -p.c_prime * np.log(1.0 - flat / Y)
        return ((integral + tail) / PI).reshape(zs.shape)

    def V(self, z):
        """Im A(z) at a point (a float) or an array of points (an array, shape
        kept), every one with Im z > 0 (ValueError otherwise)."""
        v = self.g_exponent_vec(z).imag
        return float(v) if v.ndim == 0 else v

    def W(self, z):
        """-Re A(z), taking and giving the shapes V does."""
        w = -self.g_exponent_vec(z).real
        return float(w) if w.ndim == 0 else w

    def G(self, z):
        """exp(-W + iV) at a point or an array of points with Im z > 0, shape
        kept (ValueError otherwise)."""
        return np.exp(self.g_exponent_vec(z))
