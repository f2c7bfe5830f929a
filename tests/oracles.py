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
