"""Quadrature for the construction's integrals f -> Kf -> Phi -> exp(Kf).

The integrands have power or log singularities (at the jumps x_k and the
origin) or kinks (at the profile knots) in known places, so one rule and one
planner serve all of them:

* the Gauss-cell rule: `gauss_cell_values` gives one fixed-order
  Gauss-Legendre value per cell and `gauss_cells` their sum over an edge list;
  `graded_edges` refines cells geometrically toward a known singularity (for
  one interval, or one vectorized pass over many) and `merge_edges` unions
  edge sets;
* `gauss_graded`, the certified form of that rule, for a batch of integrals
  each over its own edge list (a single edge list is a batch of one): per
  integral, orders 15 and 23 must agree within the tolerance, the cells of an
  integral that fails are halved between rounds, and the measured error is
  raised as QuadratureError when the rounds run out;
* `integrate_power_endpoint`, the rule after the flattening substitution that
  removes an |x - endpoint|^(-p) singularity;
* `split_plan`, the singular-split planner: it cuts an interval at the
  singular locations so that every piece has at most one singular end.

`quad_complex` (adaptive Gauss-Kronrod, one call of a vectorized integrand
per cell) covers complex line integrals in the interior.

The Gauss-cell rules call their integrand on at most _CHUNK nodes at a time,
whole cells of one or many integrals, and reduce every integral alone in the
shapes of a single call, so for an integrand that acts node by node,
chunking and batching never change a bit.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

__all__ = [
    "QuadratureError",
    "gauss_rule",
    "gauss_nodes",
    "gauss_cell_values",
    "gauss_cells",
    "graded_edges",
    "merge_edges",
    "gauss_graded",
    "integrate_power_endpoint",
    "split_plan",
    "quad_complex",
]


class QuadratureError(RuntimeError):
    """Raised when an integration routine cannot certify its tolerance."""


_RULE_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}
# nodes per integrand call: 64 KiB of doubles, so that an integrand's
# temporaries stay below glibc's 128 KiB mmap and trim thresholds and reuse
# heap pages instead of faulting in fresh ones
_CHUNK = 8192


def gauss_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], cached per order."""
    if n not in _RULE_CACHE:
        _RULE_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _RULE_CACHE[n]


def gauss_nodes(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """The (cells, n) array of n-point Gauss nodes of the cells [a_i, b_i].

    Each node depends only on its own cell's ends, so a cell gives the same
    nodes, bit for bit, in any edge list that holds it.
    """
    t, _ = gauss_rule(n)
    return a[:, None] + (t[None, :] + 1.0) * (0.5 * (b - a))[:, None]


def _node_values(fn, a: np.ndarray, b: np.ndarray, n: int, owner=None) -> np.ndarray:
    """fn at the n-point Gauss nodes of the cells [a_i, b_i], as a (cells, n) array.

    fn is called on whole cells, at most _CHUNK nodes at a time; with `owner`
    (one entry per cell) it is called as fn(y, owner of each node).
    """
    rows = max(1, _CHUNK // n)
    vals = None
    for i in range(0, a.size, rows):
        y = gauss_nodes(a[i:i + rows], b[i:i + rows], n).ravel()
        v = np.asarray(fn(y) if owner is None else fn(y, np.repeat(owner[i:i + rows], n)))
        if a.size <= rows:
            return v.reshape(a.size, n)
        if vals is None:
            vals = np.empty(a.size * n, dtype=v.dtype)
        vals[i * n:i * n + y.size] = v
    return np.empty((0, n)) if vals is None else vals.reshape(a.size, n)


def gauss_cell_values(fn, a: np.ndarray, b: np.ndarray, n: int = 15) -> np.ndarray:
    """One n-point Gauss value per cell [a_i, b_i].

    fn is vectorized and called on at most _CHUNK nodes at a time, so its
    temporaries stay small; the values are those of one call on every node.
    Gauss nodes are strictly interior, so an integrable singularity sitting
    exactly on a cell edge is never evaluated.
    """
    return (_node_values(fn, a, b, n) @ gauss_rule(n)[1]) * (0.5 * (b - a))


def gauss_cells(fn, edges, n: int = 15):
    """Integrate a vectorized integrand over the cells defined by `edges`.

    `edges` is an increasing 1-d array; cell i is [edges[i], edges[i+1]].
    """
    edges = np.asarray(edges, dtype=float)
    if edges.size < 2:
        return 0.0
    return gauss_cell_values(fn, edges[:-1], edges[1:], n).sum()


def graded_edges(a, b, focus, min_scale):
    """Cell edges on [a, b], geometrically refined toward `focus`.

    Edge distances from `focus` double starting at `min_scale`; edges outside
    (a, b) are dropped, so a focus outside the interval just grades the near
    endpoint. `focus` itself becomes an edge when interior.

    Scalars give one increasing edge array. Arrays broadcast and give a list
    of edge arrays, one per element, from one vectorized pass: the distances
    min_scale * 2^j are exact, so each element gets the edges of a scalar
    call with its own arguments.
    """
    if any(isinstance(v, np.ndarray) and v.ndim for v in (a, b, focus, min_scale)):
        return _graded_edges_vec(a, b, focus, min_scale)
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


def _graded_edges_vec(a, b, focus, min_scale) -> list:
    """graded_edges for arrays, in blocks of elements of about _CHUNK edges."""
    a, b, focus, scale = (v.ravel() for v in np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (a, b, focus, min_scale))))
    if not np.all(b > a):
        raise ValueError("need a < b")
    if np.any(scale <= 0.0):
        raise ValueError("min_scale must be positive")
    dmax = np.maximum(np.abs(a - focus), np.abs(b - focus))
    # the number of j >= 0 with scale * 2^j < dmax, from the binary exponents
    m1, e1 = np.frexp(scale)
    m2, e2 = np.frexp(dmax)
    count = np.where(scale < dmax, e2 - e1 + (m1 < m2), 0)
    # at most 2 count + 3 edges per element
    ends = np.cumsum(2 * count + 3)
    out = []
    start = 0
    while start < a.size:
        base = ends[start - 1] if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, base + _CHUNK, side="right")))
        block = slice(start, stop)
        out += _graded_block(a[block], b[block], focus[block], scale[block], count[block])
        start = stop
    return out


def _graded_block(a, b, focus, scale, count) -> list:
    """The edge arrays of a block of elements with `count` doublings each."""
    row = np.repeat(np.arange(a.size), count)
    d = np.ldexp(scale[row], np.arange(row.size) - np.repeat(np.cumsum(count) - count, count))
    every = np.arange(a.size)
    cand = (a, b, focus, focus[row] - d, focus[row] + d)
    owner = (every, every, every, row, row)
    keep = [np.ones(a.size, bool), np.ones(a.size, bool)] + [
        (a[r] < s) & (s < b[r]) for s, r in zip(cand[2:], owner[2:])]
    vals = np.concatenate([s[k] for s, k in zip(cand, keep)])
    rows = np.concatenate([r[k] for r, k in zip(owner, keep)])
    order = np.lexsort((vals, rows))
    vals, rows = vals[order], rows[order]
    new = np.ones(vals.size, bool)
    new[1:] = (vals[1:] != vals[:-1]) | (rows[1:] != rows[:-1])
    vals, rows = vals[new], rows[new]
    return np.split(vals, np.cumsum(np.bincount(rows, minlength=a.size))[:-1])


def merge_edges(*edge_sets) -> np.ndarray:
    """Sorted union of edge lists, duplicates dropped."""
    return np.unique(np.concatenate([np.asarray(e, dtype=float) for e in edge_sets]))


def _cell_sums(fn, edges: list, todo: list, n: int) -> list:
    """gauss_cells of each integral in `todo` at order n, fn(y, owner).

    Whole integrals share one integrand call up to _CHUNK nodes (a larger one
    gets its own, chunked by _node_values); each sum is reduced alone, in
    gauss_cells' shapes, so it has gauss_cells' bits.
    """
    w = gauss_rule(n)[1]
    sums = []
    start = 0
    while start < len(todo):
        stop, size = start + 1, (edges[todo[start]].size - 1) * n
        while stop < len(todo) and size + (edges[todo[stop]].size - 1) * n <= _CHUNK:
            size += (edges[todo[stop]].size - 1) * n
            stop += 1
        group = todo[start:stop]
        a = np.concatenate([edges[i][:-1] for i in group])
        b = np.concatenate([edges[i][1:] for i in group])
        cells = [edges[i].size - 1 for i in group]
        vals = _node_values(fn, a, b, n, np.repeat(group, cells))
        cell = np.empty(a.size, dtype=vals.dtype)
        bounds = np.cumsum([0] + cells).tolist()
        for lo, hi in zip(bounds, bounds[1:]):
            np.matmul(vals[lo:hi], w, out=cell[lo:hi])
        cell *= 0.5 * (b - a)
        sums += [cell[lo:hi].sum() for lo, hi in zip(bounds, bounds[1:])]
        start = stop
    return sums


def gauss_graded(fn, edges, tol: float, max_rounds: int = 3):
    """Certified Gauss-cell integration of a batch of integrals, each over its
    own prescribed edge list.

    `edges` is a list of increasing edge arrays, and fn(y, owner) evaluates
    at each node y[i] the integrand of integral owner[i]; owner is
    non-decreasing, since a call holds whole cells of consecutive integrals.
    The batch returns an array of values. A single edge array is a batch of
    one with fn(y), and returns its value.

    For each integral, orders 15 and 23 must agree within tol (absolute or
    relative, whichever is looser); otherwise that integral's cells are
    halved and the comparison repeated, while the integrals already certified
    are left alone. Returns the order-23 values; after max_rounds failed
    rounds raises QuadratureError carrying the measured error of the first
    integral that failed. Every value has the bits of integrating its
    integral alone.
    """
    if not len(edges) or np.ndim(edges[0]) == 0:
        return gauss_graded(lambda y, owner: fn(y), [edges], tol, max_rounds)[0]
    edges = [np.asarray(e, dtype=float) for e in edges]
    out = [0.0] * len(edges)
    err = [math.inf] * len(edges)
    todo = list(range(len(edges)))
    for _ in range(max_rounds):
        v1 = _cell_sums(fn, edges, todo, 15)
        v2 = _cell_sums(fn, edges, todo, 23)
        failed = []
        for i, lo, hi in zip(todo, v1, v2):
            err[i] = abs(lo - hi)
            out[i] = hi
            if not err[i] <= max(tol, tol * abs(hi)):
                e = edges[i]
                edges[i] = np.sort(np.concatenate([e, 0.5 * (e[:-1] + e[1:])]))
                failed.append(i)
        todo = failed
        if not todo:
            return np.array(out)
    raise QuadratureError(f"graded rule stalled at {err[todo[0]]:.3e} (tol {tol:.3e})")


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
    # only the locations in [a, b] can be a cut or the singular end of a piece
    sing: dict = {}
    for s, p in zip(locs, exps):
        s = float(s)
        if a <= s <= b:
            sing[s] = sing.get(s, 0.0) + p
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
    vals = np.asarray(fn(mid + half * _XK))
    ik = half * np.sum(_WK * vals)
    ig = half * np.sum(_WG * vals[_G_IDX])
    return ik, abs(ik - ig)


def quad_complex(fn, a: float, b: float, tol: float = 1e-12):
    """Adaptive Gauss-Kronrod integration of a vectorized (possibly complex) fn.

    fn is called once per cell with the array of that cell's 15 Kronrod
    nodes and returns their 15 values; the nodes and the sums are those of
    evaluating fn node by node. Returns (value, error_estimate); raises
    QuadratureError past 400 subdivisions. Interval endpoints are never
    evaluated exactly unless they coincide with a Kronrod node image, so mild
    endpoint singularities that are merely large (not NaN) integrate cleanly.
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

