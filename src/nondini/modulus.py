"""Moduli of continuity for the boundary tangent angle and their smoothing.

A modulus is a nondecreasing theta on (0, r_max] with theta(0+) >= 0. The
smoothed modulus is the two-level logarithmic average

    theta_tilde(r) = (1/ln^2 2) int_r^{2r} dt/t  int_t^{2t} theta(s)/s ds,

which is sandwiched, theta(r) <= theta_tilde(r) <= theta(4r), and differentiable
with

    theta_tilde'(r) = (1/(r ln^2 2)) ( int_{2r}^{4r} theta(s)/s ds
                                     - int_r^{2r}  theta(s)/s ds )  in [0, 1/(r ln 2)].

Closed forms are hand-derived for the three builtin kinds; the tabulated kind
integrates its piecewise-linear interpolant exactly on the inner level and
numerically on the outer one. A fully numeric nested-quadrature path is kept for
all kinds as a cross-check oracle.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .quadrature import quad_scalar

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
    quad_tol: float = 1e-10
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
        r = np.asarray(r, dtype=float)
        kind = self.base.kind
        if kind == KIND_CONSTANT:
            return np.full_like(r, self.base.c)
        if kind == KIND_POWER:
            g = self.base.gamma
            coef = (2.0 ** g - 1.0) ** 2 / (g * g * LN2 * LN2)
            return coef * r ** g
        if kind == KIND_LOG_INVERSE:
            # theta(s)/s integrates to -ln2 * ln ln(1/s); one more level gives
            # the second difference of phi(w) = w ln w - w at lag ln 2:
            #   d2 phi(a) = B log1p(-ln^2 2/B^2)
            #             + ln2 [log1p(ln2/B) - log1p(-ln2/B)],  B = a - ln2,
            # which evaluates without the cancellation the raw second
            # difference suffers for large a (it is ~ ln^2 2/B while the phi
            # terms are ~ a log a).
            b = -np.log(r) - LN2
            d2 = (b * np.log1p(-LN2 * LN2 / (b * b))
                  + LN2 * (np.log1p(LN2 / b) - np.log1p(-LN2 / b)))
            return d2 / LN2
        return np.array([self._tab_value(x) for x in np.atleast_1d(r)])

    def derivative(self, r: float) -> float:
        self._check_domain(r)
        return float(self.derivative_vec(np.array([r]))[0])

    def derivative_vec(self, r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        kind = self.base.kind
        if kind == KIND_CONSTANT:
            return np.zeros_like(r)
        if kind == KIND_POWER:
            g = self.base.gamma
            coef = (2.0 ** g - 1.0) ** 2 / (g * LN2 * LN2)
            return coef * r ** (g - 1.0)
        if kind == KIND_LOG_INVERSE:
            # (J(2r) - J(r)) / (r ln^2 2) with J(t) = int_t^{2t} theta/s ds
            #                             = ln2 * ln(ln(1/t) / (ln(1/t) - ln2));
            # the quotient collapses to B^2/(B^2 - ln^2 2), B = ln(1/r) - ln2.
            b = -np.log(r) - LN2
            return -np.log1p(-LN2 * LN2 / (b * b)) / (r * LN2)
        out = []
        for x in np.atleast_1d(r):
            j1 = self._tab_int_over_s(x, 2.0 * x)
            j2 = self._tab_int_over_s(2.0 * x, 4.0 * x)
            out.append((j2 - j1) / (x * LN2 * LN2))
        return np.array(out)

    def derivative_sup(self, a: float, b: float) -> float:
        """max of theta_tilde' over [a, b] via a 65-point geometric sample grid.

        Builtin derivatives are monotone in r, so the endpoint values are
        already exact; the grid guards the tabulated kind.
        """
        rs = np.geomspace(a, b, 65)
        return float(self.derivative_vec(rs).max())

    # -- tabulated kind: exact inner integral, adaptive outer ----------------

    def _tab_int_over_s(self, a: float, b: float) -> float:
        """Exact int_a^b theta(s)/s ds for the piecewise-linear interpolant."""
        rs = [p[0] for p in self.base.grid]
        vs = [p[1] for p in self.base.grid]
        cuts = sorted({a, b, *[r for r in rs if a < r < b]})
        total = 0.0
        for lo, hi in zip(cuts, cuts[1:]):
            mid = 0.5 * (lo + hi)
            i = np.searchsorted(rs, mid) - 1
            i = min(max(i, 0), len(rs) - 2)
            slope = (vs[i + 1] - vs[i]) / (rs[i + 1] - rs[i])
            alpha = vs[i] - slope * rs[i]
            total += alpha * math.log(hi / lo) + slope * (hi - lo)
        return total

    def _tab_value(self, r: float) -> float:
        inner = self._tab_int_over_s
        return quad_scalar(lambda t: inner(t, 2.0 * t) / t, r, 2.0 * r,
                           tol=self.quad_tol) / (LN2 * LN2)

    # -- fully numeric cross-check path (oracle for the closed forms) --------

    def value_by_quadrature(self, r: float) -> float:
        """Nested adaptive quadrature of the double average, any kind."""
        self._check_domain(r)
        th = self.base.theta

        def inner(t):
            return quad_scalar(lambda u: th(t * math.exp(u)), 0.0, LN2,
                               tol=self.quad_tol)

        outer = quad_scalar(lambda v: inner(r * math.exp(v)), 0.0, LN2,
                            tol=self.quad_tol)
        return outer / (LN2 * LN2)

    def derivative_by_quadrature(self, r: float) -> float:
        self._check_domain(r)
        th = self.base.theta

        def j(t):
            return quad_scalar(lambda u: th(t * math.exp(u)), 0.0, LN2,
                               tol=self.quad_tol)

        return (j(2.0 * r) - j(r)) / (r * LN2 * LN2)

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
