"""Quadrature for the construction's integrals f -> Kf -> Phi -> exp(Kf).

The integrands have power or log singularities (at the jumps x_k and the
origin) or kinks (at the profile knots) in known places, so one rule and one
planner serve all of them:

* the Gauss-cell rule: `gauss_cell_values` gives one fixed-order
  Gauss-Legendre value per cell and `gauss_cells` their sum over an edge list;
  `graded_edges` refines cells geometrically toward a known singularity and
  `merge_edges` unions edge sets;
* `gauss_graded`, the certified form of that rule: orders 15 and 23 must
  agree within the tolerance, every cell is halved between rounds, and the
  measured error is raised as QuadratureError when the rounds run out;
* `integrate_power_endpoint`, the rule after the flattening substitution that
  removes an |x - endpoint|^(-p) singularity;
* `split_plan`, the singular-split planner: it cuts an interval at the
  singular locations so that every piece has at most one singular end.

`quad_complex` (adaptive Gauss-Kronrod) covers complex line integrals in the
interior, and `quad_scalar` is scipy's quad with its error estimate checked.
"""

from __future__ import annotations

import heapq
import math

import numpy as np
from scipy.integrate import quad

__all__ = [
    "QuadratureError",
    "gauss_rule",
    "gauss_cell_values",
    "gauss_cells",
    "graded_edges",
    "merge_edges",
    "gauss_graded",
    "integrate_power_endpoint",
    "split_plan",
    "quad_complex",
    "quad_scalar",
]


class QuadratureError(RuntimeError):
    """Raised when an integration routine cannot certify its tolerance."""


_RULE_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def gauss_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], cached per order."""
    if n not in _RULE_CACHE:
        _RULE_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _RULE_CACHE[n]


def gauss_cell_values(fn, a: np.ndarray, b: np.ndarray, n: int = 15) -> np.ndarray:
    """One n-point Gauss value per cell [a_i, b_i], from a single call of fn.

    fn is vectorized. Gauss nodes are strictly interior, so an integrable
    singularity sitting exactly on a cell edge is never evaluated.
    """
    t, w = gauss_rule(n)
    h = 0.5 * (b - a)
    nodes = a[:, None] + (t[None, :] + 1.0) * h[:, None]
    vals = np.asarray(fn(nodes.ravel())).reshape(nodes.shape)
    return (vals @ w) * h


def gauss_cells(fn, edges, n: int = 15):
    """Integrate a vectorized integrand over the cells defined by `edges`.

    `edges` is an increasing 1-d array; cell i is [edges[i], edges[i+1]].
    """
    edges = np.asarray(edges, dtype=float)
    if edges.size < 2:
        return 0.0
    return gauss_cell_values(fn, edges[:-1], edges[1:], n).sum()


def graded_edges(a: float, b: float, focus: float, min_scale: float) -> np.ndarray:
    """Cell edges on [a, b], geometrically refined toward `focus`.

    Edge distances from `focus` double starting at `min_scale`; edges outside
    (a, b) are dropped, so a focus outside the interval just grades the near
    endpoint. `focus` itself becomes an edge when interior.
    """
    if not (b > a):
        raise ValueError("need a < b")
    if min_scale <= 0.0:
        raise ValueError("min_scale must be positive")
    out = {a, b}
    if a < focus < b:
        out.add(focus)
    d = min_scale
    dmax = max(abs(a - focus), abs(b - focus))
    while d < dmax:
        for s in (focus - d, focus + d):
            if a < s < b:
                out.add(s)
        d *= 2.0
    return np.array(sorted(out))


def merge_edges(*edge_sets) -> np.ndarray:
    """Sorted union of edge lists, duplicates dropped."""
    return np.unique(np.concatenate([np.asarray(e, dtype=float) for e in edge_sets]))


def gauss_graded(fn, edges, tol: float, max_rounds: int = 3):
    """Certified Gauss-cell integration over a prescribed edge list.

    Orders 15 and 23 must agree within tol (absolute or relative, whichever
    is looser); otherwise every cell is halved and the comparison repeated.
    Returns the order-23 value; after max_rounds failed rounds raises
    QuadratureError carrying the last measured error.
    """
    edges = np.asarray(edges, dtype=float)
    err = math.inf
    for _ in range(max_rounds):
        v1 = gauss_cells(fn, edges, 15)
        v2 = gauss_cells(fn, edges, 23)
        err = abs(v1 - v2)
        if err <= max(tol, tol * abs(v2)):
            return v2
        mids = 0.5 * (edges[:-1] + edges[1:])
        edges = np.sort(np.concatenate([edges, mids]))
    raise QuadratureError(f"graded rule stalled at {err:.3e} (tol {tol:.3e})")


def integrate_power_endpoint(fn, a, b, p, side: str):
    """Integrate fn over [a, b] with an |x-endpoint|^(-p) singularity, p < 1.

    Substituting x = endpoint +/- sigma^(1/(1-p)) turns the integrand into a
    bounded one:  dx = (1/(1-p)) sigma^(p/(1-p)) d sigma, and the product
    fn * dx/dsigma stays O(1) near sigma = 0. The sigma integral is then done
    on 15-point Gauss cells graded toward 0 (residual log-type variation is
    harmless there).
    """
    if not 0.0 <= p < 1.0:
        raise ValueError("power exponent must lie in [0, 1)")
    if side not in ("a", "b"):
        raise ValueError("side must be 'a' or 'b'")
    q = 1.0 / (1.0 - p)
    length = b - a
    smax = length ** (1.0 - p)
    end, sign = (a, 1.0) if side == "a" else (b, -1.0)

    # Nodes whose image rounds onto an endpoint would evaluate fn at the
    # singularity; their flattened contribution is O(sig_min) of the total,
    # so they are zeroed instead (fn is never called there).
    def g(sig):
        x = np.asarray(end + sign * sig ** q)
        col = ~((x > a) & (x < b))
        vals = np.asarray(fn(np.where(col, 0.5 * (a + b), x)))
        return np.where(col, 0.0, vals * (q * sig ** (q - 1.0)))

    return gauss_cells(g, graded_edges(0.0, smax, 0.0, smax * 1e-12), 15)


def split_plan(a: float, b: float, locs, exps):
    """Partition [a, b] into pieces with at most one singular end each.

    exps[k] is the exponent p of an |y - locs[k]|^(-p) singularity; exponents
    at coincident locations add. The cuts are the locations inside (a, b), and
    a piece singular at both ends splits at its midpoint. Returns
    (lo, hi, exponent, side) tuples: exponent is None on pieces with no
    singular end, otherwise the singular end is lo (side "a") or hi (side "b").
    """
    sing: dict = {}
    for s, p in zip(locs, exps):
        sing[float(s)] = sing.get(float(s), 0.0) + p
    cuts = [a] + sorted(s for s in sing if a < s < b) + [b]
    plan = []
    for lo, hi in zip(cuts, cuts[1:]):
        p_lo = sing.get(lo)
        p_hi = sing.get(hi)
        if p_lo is not None and p_hi is not None:
            mid = 0.5 * (lo + hi)
            plan.append((lo, mid, p_lo, "a"))
            plan.append((mid, hi, p_hi, "b"))
        elif p_lo is not None:
            plan.append((lo, hi, p_lo, "a"))
        elif p_hi is not None:
            plan.append((lo, hi, p_hi, "b"))
        else:
            plan.append((lo, hi, None, ""))
    return plan


# 15-point Kronrod rule with embedded 7-point Gauss (standard constants).
_XK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])
_G_IDX = np.array([1, 3, 5, 7, 9, 11, 13])
_GK_MAX_SPLITS = 400


def _gk15(fn, a: float, b: float):
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    vals = np.array([fn(mid + half * t) for t in _XK])
    ik = half * np.sum(_WK * vals)
    ig = half * np.sum(_WG * vals[_G_IDX])
    return ik, abs(ik - ig)


def quad_complex(fn, a: float, b: float, tol: float = 1e-12):
    """Adaptive Gauss-Kronrod integration of a scalar (possibly complex) fn.

    Returns (value, error_estimate); raises QuadratureError past 400
    subdivisions. Interval endpoints are never evaluated exactly unless they
    coincide with a Kronrod node image, so mild endpoint singularities that are
    merely large (not NaN) integrate cleanly.
    """
    if a == b:
        return 0.0 + 0.0j, 0.0
    val, err = _gk15(fn, a, b)
    heap = [(-err, a, b, val, err)]
    total = val
    total_err = err
    splits = 0
    while total_err > max(tol, tol * abs(total)) and splits < _GK_MAX_SPLITS:
        neg, lo, hi, v, e = heapq.heappop(heap)
        m = 0.5 * (lo + hi)
        v1, e1 = _gk15(fn, lo, m)
        v2, e2 = _gk15(fn, m, hi)
        total += (v1 + v2) - v
        total_err += (e1 + e2) - e
        heapq.heappush(heap, (-e1, lo, m, v1, e1))
        heapq.heappush(heap, (-e2, m, hi, v2, e2))
        splits += 1
    if total_err > max(tol, tol * abs(total)):
        raise QuadratureError(
            f"complex GK15 stalled at error {total_err:.3e} (tol {tol:.3e})")
    return total, total_err


def quad_scalar(fn, a, b, tol: float = 1e-10) -> float:
    """scipy.integrate.quad (at most 300 subintervals) with the error estimate
    promoted to an exception."""
    y, err = quad(fn, a, b, epsabs=tol, epsrel=tol, limit=300)
    if err > 100.0 * max(tol, tol * abs(y)) + 1e-15:
        raise QuadratureError(f"quad error estimate {err:.3e} exceeds tol {tol:.3e}")
    return y
