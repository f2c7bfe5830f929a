"""Moduli of continuity for the boundary tangent angle and their smoothing.

A modulus is a nondecreasing theta on (0, r_max] with theta(0+) >= 0. The
smoothed modulus is the two-level logarithmic average

    theta_tilde(r) = (1/ln^2 2) int_r^{2r} dt/t  int_t^{2t} theta(s)/s ds,

which is sandwiched, theta(r) <= theta_tilde(r) <= theta(4r), and differentiable
with

    theta_tilde'(r) = (1/(r ln^2 2)) ( int_{2r}^{4r} theta(s)/s ds
                                     - int_r^{2r}  theta(s)/s ds )  in [0, 1/(r ln 2)].

Every kind has a closed form. The three builtin kinds have hand-derived ones;
the tabulated kind integrates its piecewise-linear interpolant exactly, piece by
piece, holding theta constant beyond the grid as theta_vec does. The
nested-quadrature oracle that checks them all lives in tests/oracles.py.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "DiniClass",
    "ModulusSpec",
    "SmoothedModulus",
    "classify_dini",
    "select_x0",
]

LN2 = math.log(2.0)

KIND_CONSTANT = "constant"
KIND_POWER = "power"
KIND_LOG_INVERSE = "log_inverse"
KIND_TABULATED = "tabulated"
_KINDS = (KIND_CONSTANT, KIND_POWER, KIND_LOG_INVERSE, KIND_TABULATED)

_DEFAULT_RMAX = {KIND_CONSTANT: 2.0, KIND_POWER: 2.0, KIND_LOG_INVERSE: 1.0}

# classify_dini on a tabulated modulus: the dyadic series has converged once
# its last term is below the first, and diverged once its sum passes the second
_DINI_CONVERGED_INCREMENT = 1e-8
_DINI_DIVERGED_SUM = 40.0


_TINY = np.finfo(float).tiny


def _neg_log(t: np.ndarray, s) -> np.ndarray:
    """-ln(s t) for a power of two s, or an array of them (one per t), from
    ln t + ln s where s t is subnormal; ln s is math.log(s) either way."""
    r = s * t
    if r.size == 0 or r.min() >= _TINY:
        return -np.log(r)
    if np.ndim(s):
        low = r < _TINY
        scales, which = np.unique(s[low], return_inverse=True)
        ln_s = np.zeros_like(r)
        ln_s[low] = np.array([math.log(v) for v in scales])[which]
    else:
        ln_s = math.log(s)
    with np.errstate(divide="ignore"):
        return np.where(r < _TINY, -(np.log(t) + ln_s), -np.log(r))


class DiniClass(enum.Enum):
    DINI = "dini"
    NON_DINI = "non_dini"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class ModulusSpec:
    """Parametrized modulus family.

    kind: one of
      constant:     theta(r) = c                  (c > 0, or 0 for the trivial modulus)
      power:        theta(r) = r**gamma           (gamma > 0)
      log_inverse:  theta(r) = 1 / log2(1/r)      (valid only for r < 1)
      tabulated:    monotone piecewise-linear interpolation of (r, theta) pairs
    r_max: upper end of the validity range (defaults per kind; grid hull for tabulated).
    """

    kind: str
    c: float = 0.1
    gamma: float = 1.0
    grid: tuple[tuple[float, float], ...] = ()
    r_max: float = 0.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown modulus kind {self.kind!r}")
        if self.kind == KIND_CONSTANT and self.c < 0.0:
            raise ValueError("constant modulus needs c >= 0")
        if self.kind == KIND_POWER and self.gamma <= 0.0:
            raise ValueError("power modulus needs gamma > 0")
        if self.kind == KIND_TABULATED:
            if len(self.grid) < 2:
                raise ValueError("tabulated modulus needs at least two grid points")
            rs = [p[0] for p in self.grid]
            vs = [p[1] for p in self.grid]
            if any(r2 <= r1 for r1, r2 in zip(rs, rs[1:])):
                raise ValueError("tabulated grid abscissae must increase")
            if any(v2 < v1 for v1, v2 in zip(vs, vs[1:])) or vs[0] < 0.0:
                raise ValueError("tabulated grid values must be nonnegative and nondecreasing")
        if self.r_max == 0.0:
            rm = self.grid[-1][0] if self.kind == KIND_TABULATED else _DEFAULT_RMAX[self.kind]
            object.__setattr__(self, "r_max", rm)
        if self.r_max <= 0.0:
            raise ValueError("r_max must be positive")
        if self.kind == KIND_LOG_INVERSE and self.r_max > 1.0:
            raise ValueError("log_inverse modulus is only valid for r < 1")

    # -- evaluation ---------------------------------------------------------

    def theta(self, r: float) -> float:
        """theta(r) with domain checks."""
        if not r > 0.0:
            raise ValueError("modulus argument must be positive")
        if r > self.r_max:
            raise ValueError(f"r = {r} outside validity range (0, {self.r_max}]")
        if self.kind == KIND_LOG_INVERSE and r >= 1.0:
            raise ValueError("log_inverse modulus needs r < 1")
        if self.kind == KIND_TABULATED and r < self.grid[0][0]:
            raise ValueError("tabulated modulus: r below grid hull (no extrapolation)")
        return float(self.theta_vec(np.array([r]))[0])

    def theta_vec(self, r: np.ndarray) -> np.ndarray:
        """Vectorized theta without domain checks (callers stay in range)."""
        r = np.asarray(r, dtype=float)
        if self.kind == KIND_CONSTANT:
            return np.full_like(r, self.c)
        if self.kind == KIND_POWER:
            return r ** self.gamma
        if self.kind == KIND_LOG_INVERSE:
            return LN2 / (-np.log(r))
        rs = np.array([p[0] for p in self.grid])
        vs = np.array([p[1] for p in self.grid])
        return np.interp(r, rs, vs)


def classify_dini(spec: ModulusSpec) -> DiniClass:
    """Decide whether int_0 theta(r)/r dr converges.

    Builtins are decided analytically. The tabulated kind sums the dyadic
    series ln2 * sum theta(2^-i) over the grid hull: converged when the last
    increment drops below 1e-8, divergent when the partial sum passes 40,
    Inconclusive otherwise (the grid may simply end too early).
    """
    if spec.kind == KIND_CONSTANT:
        return DiniClass.DINI if spec.c == 0.0 else DiniClass.NON_DINI
    if spec.kind == KIND_POWER:
        return DiniClass.DINI
    if spec.kind == KIND_LOG_INVERSE:
        return DiniClass.NON_DINI
    r_lo = spec.grid[0][0]
    r_hi = min(spec.r_max, spec.grid[-1][0])
    i = max(0, math.ceil(-math.log2(r_hi)))
    total = 0.0
    increment = math.inf
    while 2.0 ** (-i) >= r_lo:
        increment = LN2 * spec.theta(2.0 ** (-i))
        total += increment
        if total > _DINI_DIVERGED_SUM:
            return DiniClass.NON_DINI
        i += 1
    if increment < _DINI_CONVERGED_INCREMENT:
        return DiniClass.DINI
    return DiniClass.INCONCLUSIVE


@dataclass(frozen=True)
class SmoothedModulus:
    """theta_tilde evaluator bound to a base modulus.

    x0 / x_star are empty until a scale selection is attached (select_x0 or
    the selected() convenience); the evaluator itself never needs them.
    """

    base: ModulusSpec
    beta: float = 0.5
    x0: float | None = None
    x_star: float | None = None

    @property
    def domain_hi(self) -> float:
        """Largest r with theta available on [r, 4r] (open for log_inverse)."""
        return self.base.r_max / 4.0

    def _check_domain(self, r: float):
        if not r > 0.0:
            raise ValueError("smoothing argument must be positive")
        hi = self.domain_hi
        if r > hi or (self.base.kind == KIND_LOG_INVERSE and 4.0 * r >= 1.0):
            raise ValueError(f"r = {r} outside smoothing domain (0, {hi}]")

    # -- theta_tilde --------------------------------------------------------

    def value(self, r: float) -> float:
        self._check_domain(r)
        return float(self.value_vec(np.array([r]))[0])

    def value_vec(self, r: np.ndarray) -> np.ndarray:
        """Vectorized theta_tilde, closed-form for builtins, no domain checks."""
        return self.scaled_value_vec(r, 1.0)

    def scaled_value_vec(self, t: np.ndarray, s) -> np.ndarray:
        """theta_tilde(s t) for a power of two s, no domain checks.

        s may also be an array of powers of two, one per t. Wherever s t is a
        normal double this is exactly value_vec(s t); below that the
        log_inverse form takes ln(s t) = ln t + ln s, so it stays accurate
        down to the smallest double and beyond.
        """
        t = np.asarray(t, dtype=float)
        kind = self.base.kind
        if kind == KIND_CONSTANT:
            return np.full_like(t, self.base.c)
        if kind == KIND_POWER:
            g = self.base.gamma
            coef = (2.0 ** g - 1.0) ** 2 / (g * g * LN2 * LN2)
            return coef * (s * t) ** g
        if kind == KIND_LOG_INVERSE:
            # theta(s)/s integrates to -ln2 * ln ln(1/s); one more level gives
            # the second difference of phi(w) = w ln w - w at lag ln 2:
            #   d2 phi(a) = B log1p(-ln^2 2/B^2)
            #             + ln2 [log1p(ln2/B) - log1p(-ln2/B)],  B = a - ln2,
            # which evaluates without the cancellation the raw second
            # difference suffers for large a (it is ~ ln^2 2/B while the phi
            # terms are ~ a log a).
            b = _neg_log(t, s) - LN2
            d2 = (b * np.log1p(-LN2 * LN2 / (b * b))
                  + LN2 * (np.log1p(LN2 / b) - np.log1p(-LN2 / b)))
            return d2 / LN2
        # ln^2 2 (theta_tilde(r) - c) = M(r) + ln2 J(2r) - M(2r) for any constant
        # c (see _tab_moments); c = theta(2r) leaves only theta's variation
        r = np.maximum(s * t, math.ulp(0.0))  # theta is constant where s t underflows
        c = self.base.theta_vec(2.0 * r)
        (_, m1), (j2, m2) = self._tab_moments(r, c), self._tab_moments(2.0 * r, c)
        return c + (m1 + LN2 * j2 - m2) / (LN2 * LN2)

    def derivative(self, r: float) -> float:
        self._check_domain(r)
        return float(self.derivative_vec(np.array([r]))[0])

    def derivative_vec(self, r: np.ndarray) -> np.ndarray:
        return self.scaled_derivative_vec(r, 1.0)

    def scaled_derivative_vec(self, t: np.ndarray, s: float) -> np.ndarray:
        """d/dt theta_tilde(s t) = s theta_tilde'(s t) for a power of two s.

        Exactly s * derivative_vec(s t) wherever both are normal doubles; for
        log_inverse it stays finite down to the smallest double, where
        theta_tilde' itself (about 1e-6 / r) overflows.
        """
        t = np.asarray(t, dtype=float)
        kind = self.base.kind
        if kind == KIND_CONSTANT:
            return np.zeros_like(t)
        if kind == KIND_POWER:
            g = self.base.gamma
            coef = (2.0 ** g - 1.0) ** 2 / (g * LN2 * LN2)
            return coef * (s * t) ** (g - 1.0) * s
        if kind == KIND_LOG_INVERSE:
            # (J(2r) - J(r)) / (r ln^2 2) with J(t) = int_t^{2t} theta/s ds
            #                             = ln2 * ln(ln(1/t) / (ln(1/t) - ln2));
            # the quotient collapses to B^2/(B^2 - ln^2 2), B = ln(1/r) - ln2.
            b = _neg_log(t, s) - LN2
            return -np.log1p(-LN2 * LN2 / (b * b)) / (t * LN2)
        r = np.maximum(s * t, math.ulp(0.0))
        c = self.base.theta_vec(2.0 * r)
        (j1, _), (j2, _) = self._tab_moments(r, c), self._tab_moments(2.0 * r, c)
        return (j2 - j1) / (t * LN2 * LN2)

    def derivative_sup(self, a: float, b: float) -> float:
        """max of theta_tilde' over [a, b] via a 65-point geometric sample grid.

        Builtin derivatives are monotone in r, so the endpoint values are
        already exact; the grid guards the tabulated kind.
        """
        rs = np.geomspace(a, b, 65)
        return float(self.derivative_vec(rs).max())

    # -- tabulated kind: exact integrals of the interpolant -----------------

    def _tab_moments(self, a: np.ndarray, c: np.ndarray):
        """J = int_a^{2a} (theta - c) ds/s and M = int_a^{2a} (theta - c) ln(s/a) ds/s.

        Exact for theta_vec's interpolant: each piece alpha + beta s integrates
        in logs of local ratios. The pieces are the grid intervals, theta held
        constant beyond either end, and an empty one for points past the end of
        their run; the loop runs over the offset in each point's run of pieces.
        """
        grid = np.array(self.base.grid, dtype=float)
        rs, vs = grid[:, 0], grid[:, 1]
        slope = np.diff(vs) / np.diff(rs)
        edges = np.concatenate(([-np.inf], rs, [np.inf, np.inf]))
        alpha = np.concatenate(([vs[0]], vs[:-1] - slope * rs[:-1], [vs[-1], 0.0]))
        beta = np.concatenate(([0.0], slope, [0.0, 0.0]))
        first = np.searchsorted(edges, a, side="right") - 1
        count = np.searchsorted(edges, 2.0 * a, side="left") - first
        j = m = 0.0
        for k in range(int(np.max(count, initial=0))):
            i = np.minimum(first + k, beta.size - 1)
            lo, hi = np.clip(edges[i], a, 2.0 * a), np.clip(edges[i + 1], a, 2.0 * a)
            h, l, d = np.log(hi / a), np.log(lo / a), np.log(hi / lo)
            j = j + (alpha[i] - c) * d + beta[i] * (hi - lo)
            m = m + ((alpha[i] - c) * 0.5 * d * (h + l)
                     + beta[i] * (hi * h - lo * l - (hi - lo)))
        return j, m

    # -- scale selection ----------------------------------------------------

    def selected(self, beta: float | None = None) -> "SmoothedModulus":
        """Copy with x0/x_star filled in by select_x0."""
        b = self.beta if beta is None else beta
        x0, x_star = select_x0(self, b)
        return replace(self, beta=b, x0=x0, x_star=x_star)


def _find_x_star(sm: SmoothedModulus) -> float:
    """Largest r with theta_tilde(r) < 1, capped at 1/2.

    Bisection over the computable domain; when theta_tilde stays below 1 up to
    the domain edge the cap is returned (slowly growing moduli).
    """
    hi = min(0.5, sm.domain_hi)
    if sm.base.kind == KIND_LOG_INVERSE:
        hi = np.nextafter(hi, 0.0)
    if sm.value(hi) < 1.0:
        return 0.5
    lo = min(1e-12, hi * 1e-6)
    if sm.value(lo) >= 1.0:
        return 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if sm.value(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    return lo


def select_x0(sm: SmoothedModulus, beta: float) -> tuple[float, float]:
    """Pick the inner construction scale.

    x_star = largest r with theta_tilde < 1 (cap 1/2); x0 = the largest dyadic
    2^-m strictly below x_star/4 with theta_tilde(x0) < 1/2 and
    theta(8 x0) <= (1 - beta) ln 2 (the stronger of the two admissibility
    conditions). Fails below the dyadic floor 2^-40.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")
    x_star = _find_x_star(sm)
    bound = (1.0 - beta) * LN2
    m = 1
    while 2.0 ** (-m) >= x_star / 4.0:
        m += 1
        if m > 40:
            raise ValueError("no admissible dyadic x0 above 2^-40")
    while m <= 40:
        x0 = 2.0 ** (-m)
        try:
            ok = sm.value(x0) < 0.5 and sm.base.theta(8.0 * x0) <= bound
        except ValueError:  # 8 x0 or x0 outside the validity range: inadmissible
            ok = False
        if ok:
            return x0, x_star
        m += 1
    raise ValueError("no admissible dyadic x0 above 2^-40 "
                     "(theta decays too slowly at this beta)")
