"""Tangent-angle profiles.

The C1 profile is f(x) = c * sum_k a_k * Htilde(x - x_k), where Htilde rises
from 0 like the smoothed modulus theta_tilde on (0, x0], continues with a
monotone C1 cubic bridge g on (x0, x_star), and saturates at 1. The Lipschitz
profile replaces Htilde by the plain Heaviside step. Amplitudes are normalized
so that c' = c * sum a_k hits its target exactly (finite families, zero tail).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .modulus import SmoothedModulus

__all__ = [
    "BridgeSpline",
    "TangentProfile",
    "build_bridge",
    "jump_amplitudes",
    "modulus_at_origin",
    "build_profile",
]

MODE_LIPSCHITZ = "lipschitz"
MODE_C1 = "c1"


@dataclass(frozen=True)
class BridgeSpline:
    """Monotone C1 cubic Hermite bridge g on [x0, x_star].

    Meets g(x0) = v0, g'(x0) = d0, g(x_star) = 1, g'(x_star) = 0. A single
    cubic piece with end slopes (d0, 0) is monotone exactly when
    d0 <= 3 * (1 - v0) / (x_star - x0); above that a midpoint knot is inserted
    with value (v_min + 1) / 2, v_min = v0 + d0 h / 6 being the smallest
    midpoint value that keeps the left piece monotone. No monotone cubic pair
    exists once v_min >= 1, which is the failure condition.
    """

    knots: tuple[float, ...]
    values: tuple[float, ...]
    slopes: tuple[float, ...]
    g_lip: float = field(init=False, default=0.0)

    def __post_init__(self):
        if len(self.knots) != len(self.values) or len(self.knots) != len(self.slopes):
            raise ValueError("knots/values/slopes length mismatch")
        if any(b <= a for a, b in zip(self.knots, self.knots[1:])):
            raise ValueError("bridge knots must increase")
        object.__setattr__(self, "g_lip", self._sup_slope())

    @property
    def x0(self) -> float:
        return self.knots[0]

    @property
    def x_star(self) -> float:
        return self.knots[-1]

    @classmethod
    def from_endpoints(cls, x0: float, x_star: float, v0: float, d0: float) -> "BridgeSpline":
        if not x0 < x_star:
            raise ValueError("need x0 < x_star")
        if not 0.0 <= v0 < 1.0:
            raise ValueError("bridge needs v0 in [0, 1) (no room for the rise otherwise)")
        if d0 < 0.0:
            raise ValueError("bridge needs d0 >= 0")
        h = x_star - x0
        delta = (1.0 - v0) / h
        if d0 <= 3.0 * delta:
            return cls((x0, x_star), (v0, 1.0), (d0, 0.0))
        v_min = v0 + d0 * h / 6.0
        if v_min >= 1.0:
            raise ValueError(
                f"no monotone C1 cubic bridge: d0 * (x_star - x0) = {d0 * h:.6g} "
                f">= 6 * (1 - v0) = {6.0 * (1.0 - v0):.6g}")
        vm = 0.5 * (v_min + 1.0)
        dl = (vm - v0) / (0.5 * h)
        dr = (1.0 - vm) / (0.5 * h)
        return cls((x0, 0.5 * (x0 + x_star), x_star), (v0, vm, 1.0),
                   (d0, min(dl, dr), 0.0))

    # -- evaluation ----------------------------------------------------------

    def _piece(self, x: np.ndarray):
        xs = np.asarray(self.knots)
        i = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, len(xs) - 2)
        a = xs[i]
        h = xs[i + 1] - a
        t = np.clip((x - a) / h, 0.0, 1.0)
        va = np.asarray(self.values)[i]
        vb = np.asarray(self.values)[i + 1]
        da = np.asarray(self.slopes)[i]
        db = np.asarray(self.slopes)[i + 1]
        return t, h, va, vb, da, db

    def value_vec(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        t, h, va, vb, da, db = self._piece(x)
        t2, t3 = t * t, t * t * t
        return (va * (2 * t3 - 3 * t2 + 1) + h * da * (t3 - 2 * t2 + t)
                + vb * (-2 * t3 + 3 * t2) + h * db * (t3 - t2))

    def slope_vec(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        t, h, va, vb, da, db = self._piece(x)
        t2 = t * t
        return (va * (6 * t2 - 6 * t) / h + da * (3 * t2 - 4 * t + 1)
                + vb * (6 * t - 6 * t2) / h + db * (3 * t2 - 2 * t))

    def value(self, x: float) -> float:
        return float(self.value_vec(np.array([x]))[0])

    def slope(self, x: float) -> float:
        return float(self.slope_vec(np.array([x]))[0])

    def _sup_slope(self) -> float:
        """Exact sup of g' (piecewise quadratic in the local parameter)."""
        sup = 0.0
        for i in range(len(self.knots) - 1):
            h = self.knots[i + 1] - self.knots[i]
            va, vb = self.values[i], self.values[i + 1]
            da, db = self.slopes[i], self.slopes[i + 1]
            # g'(t) = A t^2 + B t + C in the unit parameter
            a2 = 6 * (va - vb) / h + 3 * (da + db)
            b1 = -6 * (va - vb) / h - 4 * da - 2 * db
            c0 = da
            cand = [c0, a2 + b1 + c0]
            if a2 != 0.0:
                tv = -b1 / (2 * a2)
                if 0.0 < tv < 1.0:
                    cand.append(a2 * tv * tv + b1 * tv + c0)
            sup = max(sup, max(cand))
        return sup


def build_bridge(sm: SmoothedModulus) -> BridgeSpline:
    """Bridge for a scale-selected smoothed modulus: v0, d0 read off theta_tilde."""
    if sm.x0 is None or sm.x_star is None:
        raise ValueError("smoothed modulus needs x0/x_star (run select_x0 first)")
    v0 = sm.value(sm.x0)
    if not v0 < 0.5:
        raise ValueError("theta_tilde(x0) must be below 1/2")
    return BridgeSpline.from_endpoints(sm.x0, sm.x_star, v0, sm.derivative(sm.x0))


def htilde_vec(sm: SmoothedModulus, bridge: BridgeSpline, x) -> np.ndarray:
    """Vectorized Htilde: 0 | theta_tilde | bridge | 1 by region."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    x0, x_star = bridge.x0, bridge.x_star
    left = x <= 0.0
    rise = (x > 0.0) & (x <= x0)
    mid = (x > x0) & (x < x_star)
    out[left] = 0.0
    if rise.any():
        out[rise] = sm.value_vec(x[rise])
    if mid.any():
        out[mid] = bridge.value_vec(x[mid])
    out[x >= x_star] = 1.0
    return out


def htilde_slope_vec(sm: SmoothedModulus, bridge: BridgeSpline, x) -> np.ndarray:
    """dHtilde/dx away from 0 (0 at the flats, theta_tilde' / g' in between)."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    x0, x_star = bridge.x0, bridge.x_star
    rise = (x > 0.0) & (x <= x0)
    mid = (x > x0) & (x < x_star)
    if rise.any():
        out[rise] = sm.derivative_vec(x[rise])
    if mid.any():
        out[mid] = bridge.slope_vec(x[mid])
    return out


def modulus_at_origin(sm: SmoothedModulus, bridge: BridgeSpline, r: float) -> float:
    """sup over |x| <= r of |Htilde(x) - Htilde(0)|.

    Htilde vanishes left of 0 and is nondecreasing, so the sup is Htilde(r);
    for r <= x0 this is theta_tilde(r) exactly.
    """
    if not 0.0 < r <= bridge.x0:
        raise ValueError("modulus_at_origin expects 0 < r <= x0")
    return float(htilde_vec(sm, bridge, np.array([r]))[0])


@dataclass(frozen=True)
class TangentProfile:
    """Finite family of rotation events with a common profile shape.

    mode "lipschitz": f(x) = c sum a_k H(x - x_k)   (H(0) = 1, right continuous)
    mode "c1":        f(x) = c sum a_k Htilde(x - x_k)
    """

    mode: str
    c: float
    a: tuple[float, ...]
    x: tuple[float, ...]
    sm: SmoothedModulus | None = None
    bridge: BridgeSpline | None = None

    def __post_init__(self):
        if self.mode not in (MODE_LIPSCHITZ, MODE_C1):
            raise ValueError(f"unknown profile mode {self.mode!r}")
        if len(self.a) != len(self.x) or not self.a:
            raise ValueError("amplitude/jump lists must be nonempty and equal length")
        if any(ak <= 0.0 for ak in self.a):
            raise ValueError("amplitudes must be positive")
        if len(set(self.x)) != len(self.x):
            raise ValueError("jump locations must be distinct")
        if any(abs(xk) > 1.0 for xk in self.x):
            raise ValueError("jump locations must lie in [-1, 1]")
        if self.c <= 0.0:
            raise ValueError("c must be positive")
        if not self.c_prime < math.pi / 2.0:
            raise ValueError(f"c' = {self.c_prime:.6g} must stay below pi/2")
        if self.mode == MODE_C1 and (self.sm is None or self.bridge is None):
            raise ValueError("c1 mode needs the smoothed modulus and bridge")

    @property
    def K(self) -> int:
        return len(self.x)

    @property
    def c_prime(self) -> float:
        return self.c * math.fsum(self.a)

    @property
    def saturation(self) -> float:
        """Point from which f == c': the last jump, plus x_star in c1 mode."""
        rise = self.bridge.x_star if self.mode == MODE_C1 else 0.0
        return float(max(self.x)) + rise

    def delta(self, k: int) -> float:
        """Distance from x_k to the other jump points and to 0."""
        xk = self.x[k]
        others = [abs(xj - xk) for j, xj in enumerate(self.x) if j != k]
        others.append(abs(xk))
        positive = [d for d in others if d > 0.0]
        return min(positive) if positive else math.inf

    # -- evaluation ----------------------------------------------------------

    def f_vec(self, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        out = np.zeros_like(xs)
        if self.mode == MODE_LIPSCHITZ:
            for ak, xk in zip(self.a, self.x):
                out += ak * (xs >= xk)
        else:
            for ak, xk in zip(self.a, self.x):
                out += ak * htilde_vec(self.sm, self.bridge, xs - xk)
        return self.c * out

    def f(self, x: float) -> float:
        return float(self.f_vec(np.array([x]))[0])

    def fprime_vec(self, xs) -> np.ndarray:
        """Analytic df/dx away from the jump set (c1 mode only)."""
        if self.mode != MODE_C1:
            raise ValueError("fprime is only defined for the c1 profile")
        xs = np.asarray(xs, dtype=float)
        out = np.zeros_like(xs)
        for ak, xk in zip(self.a, self.x):
            out += ak * htilde_slope_vec(self.sm, self.bridge, xs - xk)
        return self.c * out


def jump_amplitudes(rule: str, n: int) -> tuple[float, ...]:
    """a_1..a_n under a named rule: "geometric" (a_k = 2^-k) or "uniform" (1)."""
    if rule == "geometric":
        return tuple(2.0 ** -k for k in range(1, n + 1))
    if rule == "uniform":
        return (1.0,) * n
    raise ValueError(f"unknown amplitude rule {rule!r}")


def build_profile(mode: str,
                  sm: SmoothedModulus | None = None,
                  bridge: BridgeSpline | None = None,
                  K: int = 20,
                  c_prime_target: float = math.pi / 4.0,
                  amplitude_rule: str = "geometric",
                  jumps=None,
                  amps=None) -> TangentProfile:
    """Assemble a profile with x_k = 2^-k defaults and exact c' normalization."""
    if jumps is None:
        jumps = tuple(2.0 ** -k for k in range(1, K + 1))
    else:
        jumps = tuple(float(v) for v in jumps)
    if amps is None:
        amps = jump_amplitudes(amplitude_rule, len(jumps))
    else:
        amps = tuple(float(v) for v in amps)
    c = c_prime_target / math.fsum(amps)
    return TangentProfile(mode=mode, c=c, a=amps, x=jumps, sm=sm, bridge=bridge)
