"""Slow reference implementations that the library's fast paths replace.

Each one is the straightforward form of a computation the library now does
faster; the tests compare the fast path against it.
"""

import numpy as np


def nearest_on_segments_bruteforce(z, seg_s, seg_e):
    """(distance, segment index, parameter t) of the closest point on any
    segment seg_s + t (seg_e - seg_s), t in [0, 1], testing every segment.

    Ties go to the lowest segment index (np.argmin).
    """
    n = z.size
    dist = np.empty(n)
    idx = np.empty(n, dtype=np.int64)
    ts = np.empty(n)
    d = seg_e - seg_s
    L2 = d.real * d.real + d.imag * d.imag
    chunk = 8192
    for i0 in range(0, n, chunk):
        zz = z[i0:i0 + chunk, None]
        w = zz - seg_s[None, :]
        t = (w.real * d.real[None, :] + w.imag * d.imag[None, :]) / L2[None, :]
        np.clip(t, 0.0, 1.0, out=t)
        dd = np.abs(zz - (seg_s[None, :] + t * d[None, :]))
        j = np.argmin(dd, axis=1)
        rows = np.arange(j.size)
        dist[i0:i0 + chunk] = dd[rows, j]
        idx[i0:i0 + chunk] = j
        ts[i0:i0 + chunk] = t[rows, j]
    return dist, idx, ts


def k_htilde_per_piece(table, u):
    """K Htilde on 2^LO_EXP <= |u| <= 2^HI_EXP from the table's octave
    pieces, one `chebval` call per piece and sign branch."""
    from nondini.hilbert import MID

    u = np.asarray(u, dtype=float)
    out = np.empty_like(u)
    v = np.log2(np.abs(u))
    for negative in (False, True):
        mask = (u < 0.0) == negative
        edges = table.edges[3 * negative + MID]
        first = table.first[3 * negative + MID]
        idx = np.clip(np.searchsorted(edges, v[mask], side="right") - 1,
                      0, len(edges) - 2)
        sub = np.empty(mask.sum())
        for piece in np.unique(idx):
            sel = idx == piece
            a, b = edges[piece], edges[piece + 1]
            w = 2.0 * (v[mask][sel] - a) / (b - a) - 1.0
            sub[sel] = np.polynomial.chebyshev.chebval(w, table.coef[first + piece])
        out[mask] = sub
    return out
