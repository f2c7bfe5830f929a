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
  each over its own edge list (a single edge list is a batch of one), real or
  complex: per integral, orders 15 and 23 must agree within the tolerance,
  an integral that fails halves only the cells that hold most of its error,
  and the measured error is raised as QuadratureError when the rounds run
  out;
* `integrate_power_endpoint`, the rule after the flattening substitution that
  removes an |x - endpoint|^(-p) singularity;
* `split_plan`, the singular-split planner: it cuts an interval at the
  singular locations so that every piece has at most one singular end.

The Gauss-cell rules call their integrand on at most _CHUNK nodes at a time,
whole cells of one or many integrals, and reduce every integral alone in the
shapes of a single call, so for an integrand that acts node by node,
chunking and batching never change a bit.
"""

from __future__ import annotations

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


def _cell_values(fn, cells: list, todo: list, n: int) -> list:
    """Order-n Gauss values of the cells of each integral in `todo`, fn(y, owner).

    cells[i] is the pair (a, b) of cell ends of integral i. Whole integrals
    share one integrand call up to _CHUNK nodes (a larger one gets its own,
    chunked by _node_values); each integral's values are reduced alone, in
    gauss_cell_values' shapes, so they have its bits.
    """
    w = gauss_rule(n)[1]
    out = []
    start = 0
    while start < len(todo):
        stop, size = start + 1, cells[todo[start]][0].size * n
        while stop < len(todo) and size + cells[todo[stop]][0].size * n <= _CHUNK:
            size += cells[todo[stop]][0].size * n
            stop += 1
        group = todo[start:stop]
        a = np.concatenate([cells[i][0] for i in group])
        b = np.concatenate([cells[i][1] for i in group])
        counts = [cells[i][0].size for i in group]
        vals = _node_values(fn, a, b, n, np.repeat(group, counts))
        cell = np.empty(a.size, dtype=vals.dtype)
        bounds = np.cumsum([0] + counts).tolist()
        for lo, hi in zip(bounds, bounds[1:]):
            np.matmul(vals[lo:hi], w, out=cell[lo:hi])
        cell *= 0.5 * (b - a)
        out += [cell[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        start = stop
    return out


def gauss_graded(fn, edges, tol: float, max_rounds: int = 3):
    """Certified Gauss-cell integration of a batch of integrals, each over its
    own prescribed edge list, refined locally.

    `edges` is a list of increasing edge arrays, and fn(y, owner) evaluates
    at each node y[i] the integrand of integral owner[i]; owner is
    non-decreasing, since a call holds whole cells of consecutive integrals.
    The batch returns an array of values. A single edge array is a batch of
    one with fn(y), and returns its value. The integrand may be complex.

    An integral passes when its order-15 and order-23 sums agree within
    budget = max(tol, tol * |order-23 sum|). An integral that fails halves
    only its cells whose own 15/23 difference exceeds budget / (2 * cells);
    its other cells keep their values and are not evaluated again, and the
    integrals already certified are left alone. Returns the order-23 sums;
    after max_rounds failed rounds raises QuadratureError carrying the
    measured error of the first integral that failed. Every value has the
    bits of integrating its integral alone, and an integral that passes the
    first round has the bits of gauss_cells at order 23.
    """
    if not len(edges) or np.ndim(edges[0]) == 0:
        return gauss_graded(lambda y, owner: fn(y), [edges], tol, max_rounds)[0]
    new = [(e[:-1], e[1:]) for e in (np.asarray(e, dtype=float) for e in edges)]
    # per integral, the (a, b, order-15, order-23) cells kept from earlier rounds
    kept = [None] * len(new)
    out = [0.0] * len(new)
    err = [math.inf] * len(new)
    todo = list(range(len(new)))
    for _ in range(max_rounds):
        v15 = _cell_values(fn, new, todo, 15)
        v23 = _cell_values(fn, new, todo, 23)
        failed = []
        for i, c15, c23 in zip(todo, v15, v23):
            a, b = new[i]
            if kept[i] is not None:
                order = np.argsort(np.concatenate([kept[i][0], a]), kind="stable")
                a, b, c15, c23 = (np.concatenate([k, v])[order]
                                  for k, v in zip(kept[i], (a, b, c15, c23)))
            out[i] = c23.sum()
            err[i] = abs(c15.sum() - out[i])
            budget = max(tol, tol * abs(out[i]))
            if not err[i] <= budget:
                # a NaN difference counts as over the share
                split = ~(np.abs(c15 - c23) <= 0.5 * budget / a.size)
                kept[i] = tuple(v[~split] for v in (a, b, c15, c23))
                lo, hi = a[split], b[split]
                mid = 0.5 * (lo + hi)
                new[i] = (np.stack([lo, mid], 1).ravel(), np.stack([mid, hi], 1).ravel())
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
