"""Quadrature for the construction's integrals f -> Kf -> Phi -> exp(Kf).

The integrands have power or log singularities (at the jumps x_k and the
origin) or kinks (at the profile knots) in known places, so a few rules
serve all of them:

* the Gauss-cell rule: `gauss_cell_values` gives one fixed-order
  Gauss-Legendre value per cell; `graded_edges` refines cells geometrically
  toward a known singularity (for one interval, or one vectorized pass over
  many) and `merge_edges` unions edge sets;
* `gauss_graded`, the certified form of that rule, for a batch of integrals
  each over its own edge list (a single edge list is a batch of one), real or
  complex: per integral, orders 15 and 23 must agree within the tolerance,
  an integral that fails halves only the cells that hold most of its error,
  and the measured error is raised as QuadratureError when the rounds run
  out;
* `split_integrals`, the one rule for real-line integrals across power
  singularities at known locations: it takes a batch of intervals, cuts them
  so that every piece has at most one singular end, integrates the pieces
  with a singular end after the flattening substitution that removes the
  |x - end|^(-p) singularity and the others on Gauss cells, and returns one
  value per interval, with no error estimate.

The Gauss-cell rules call their integrand on at most _CHUNK nodes at a time,
whole cells of one or many integrals, and reduce every integral alone in the
shapes of a single call, so for an integrand that acts node by node,
chunking and batching never change a bit.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

__all__ = [
    "QuadratureError",
    "gauss_rule",
    "gauss_nodes",
    "gauss_cell_values",
    "graded_edges",
    "merge_edges",
    "gauss_graded",
    "split_integrals",
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
    first round has the bits of gauss_cell_values at order 23, summed.
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


def split_integrals(fn, lo, hi, locs, exps, cells: int = 4) -> np.ndarray:
    """The integrals of fn over the intervals [lo_i, hi_i], one value each,
    with an |y - locs[k]|^(-exps[k]) singularity at every location.

    Planning: each interval is cut at the locations strictly inside it, and a
    piece singular at both ends splits at its midpoint; exponents at one
    location add, and lo < hi and the exponent of every flattened piece must
    lie in [0, 1) (ValueError otherwise). A piece with a singular end is
    flattened: y = end +/- sigma^q with q = 1/(1-p) makes fn dy/dsigma
    bounded, and sigma in [0, length^(1-p)] gets 15-point Gauss cells graded
    toward 0 from 1e-12 of that range. Every other piece gets `cells` equal
    23-point Gauss cells, merged with cells graded toward the nearest
    location when that lies closer to the piece than the piece is long. All
    regular cells go into one gauss_cell_values call; the flattened
    pieces share integrand calls of at most _CHUNK nodes, each piece reduced
    alone, so that it has the bits of a call of its own. An interval's value
    is its pieces' values added left to right.

    Uncertified: no value carries an error estimate, the flattened pieces'
    included. A flattened node whose image rounds onto the singular end is
    zeroed (fn is never called at a location), which drops the sliver of
    sigma below the rounding of the end: 1.2e-9 relative on a unit piece at
    p = 0.45, and 4.8e-5 on a 2^-28 piece at a jump near 0.5.
    """
    lo = np.asarray(lo, dtype=float).ravel().tolist()
    hi = np.asarray(hi, dtype=float).ravel().tolist()
    if len(lo) != len(hi):
        raise ValueError("need one hi per lo")
    sing: dict = {}
    for s, p in zip(locs, exps):
        s = float(s)
        sing[s] = sing.get(s, 0.0) + p
    where = sorted(sing)
    out = [0.0] * len(lo)
    # an interval with a location in [lo, hi] has only flattened pieces, and
    # one without is one regular piece
    regular, graded, pieces = [], [], []
    for i, (a, b) in enumerate(zip(lo, hi)):
        if not a < b:
            raise ValueError("need lo < hi")
        k = bisect.bisect_right(where, a)
        cuts = [a, *where[k:bisect.bisect_left(where, b)], b]
        if len(cuts) == 2 and a not in sing and b not in sing:
            near = min([(a - s, s) for s in where[k - 1:k]] + [(s - b, s) for s in where[k:k + 1]],
                       default=(math.inf, 0.0))
            if near[0] < b - a:
                graded.append((len(regular), *near))
            regular.append(i)
            continue
        for u, v in zip(cuts, cuts[1:]):
            pu, pv = sing.get(u), sing.get(v)
            if pu is not None and pv is not None:
                mid = 0.5 * (u + v)
                pieces += [(i, u, mid, pu, 1), (i, mid, v, pv, -1)]
            else:
                pieces.append((i, u, v, pv if pu is None else pu, -1 if pu is None else 1))

    if regular:
        ends = np.array([(lo[i], hi[i]) for i in regular])
        # the edges of np.linspace(lo, hi, cells + 1), without its overhead
        edges = ends[:, :1] + np.arange(cells + 1) * ((ends[:, 1:] - ends[:, :1]) / cells)
        edges[:, -1] = ends[:, 1]
        edges = list(edges)
        for k, dist, focus in graded:
            edges[k] = merge_edges(edges[k], graded_edges(*ends[k].tolist(), focus, dist))
        cell = gauss_cell_values(fn, np.concatenate([e[:-1] for e in edges]),
                                 np.concatenate([e[1:] for e in edges]), 23)
        stop = 0
        for i, e in zip(regular, edges):
            start, stop = stop, stop + e.size - 1
            out[i] = out[i] + cell[start:stop].sum()

    if pieces:
        sigma = []
        for _, u, v, p, _ in pieces:
            if not 0.0 <= p < 1.0:
                raise ValueError("power exponent must lie in [0, 1)")
            smax = (v - u) ** (1.0 - p)
            e = graded_edges(0.0, smax, 0.0, smax * 1e-12)
            sigma.append((e[:-1], e[1:]))

        def flattened(sig, owner):
            # each piece's run of nodes from its own scalars, as in a call
            # of that piece alone
            starts = np.flatnonzero(np.diff(owner)) + 1
            ys, jac, off = [], [], []
            for s, k in zip(np.split(sig, starts), owner[np.r_[0, starts]].tolist()):
                _, u, v, p, side = pieces[k]
                q = 1.0 / (1.0 - p)
                y = (u if side > 0 else v) + side * s ** q
                off.append(~((y > u) & (y < v)))
                ys.append(np.where(off[-1], 0.5 * (u + v), y))
                jac.append(q * s ** (q - 1.0))
            f = np.asarray(fn(np.concatenate(ys)))
            return np.where(np.concatenate(off), 0.0, f * np.concatenate(jac))

        for (i, *_), c in zip(pieces, _cell_values(flattened, sigma, list(range(len(pieces))), 15)):
            out[i] = out[i] + c.sum()
    return np.array(out)
