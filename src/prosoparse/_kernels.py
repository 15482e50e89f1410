"""Chart-filling kernels for CKY decoding.

The fill is cubic in sentence length.  When numba (an optional extra) is
installed, the reference loops are JIT-compiled; without it the slice-based
numpy fallback runs, one vectorized step per span length.  It adds the same
pairs of scalars and breaks ties the same way as the loops, so its tables
are bit-identical to theirs.
``python3 perfbench/run.py --workload parse-long --trace 1`` checks that
against ``_cky_fill_loops`` and times the active kernel at T = 10..160; on
a 2-vCPU VM with one BLAS thread the fallback took 0.88, 2.3 and 6.4 ms at
T = 40, 80 and 160 (``kernels.cky_fill_ms.T40/T80/T160``).
"""

from __future__ import annotations

import numpy as np


def _cky_fill_loops(label_best):
    """Fill best-score and best-split tables over all spans.

    best[a, b] = label_best[a, b] for length-1 spans, else
    label_best[a, b] + max_k(best[a, k] + best[k, b]); ties prefer the
    smallest split k.  label_best must already incorporate per-span label
    maximization.
    """
    n = label_best.shape[0]  # fenceposts: T + 1
    best = np.zeros((n, n), dtype=np.float64)
    split = np.zeros((n, n), dtype=np.int32)
    for a in range(n - 1):
        best[a, a + 1] = label_best[a, a + 1]
    for length in range(2, n):
        for a in range(0, n - length):
            b = a + length
            best_sub = best[a, a + 1] + best[a + 1, b]
            best_k = a + 1
            for k in range(a + 2, b):
                cand = best[a, k] + best[k, b]
                if cand > best_sub:
                    best_sub = cand
                    best_k = k
            best[a, b] = label_best[a, b] + best_sub
            split[a, b] = best_k
    return best, split


def cky_fill_numpy(label_best):
    """Vectorized fallback: same cell order and additions as the loop kernel.

    ``left[a, l]`` mirrors ``best[a, a + l]`` and ``right[b, l]`` mirrors
    ``best[b - l, b]``, so the split candidates of every span of one length
    are two contiguous slices added elementwise.
    """
    n = label_best.shape[0]
    best = np.zeros((n, n), dtype=np.float64)
    split = np.zeros((n, n), dtype=np.int32)
    left = np.zeros((n, n), dtype=np.float64)
    right = np.zeros((n, n), dtype=np.float64)
    for length in range(1, n):
        m = n - length
        a = np.arange(m)
        vals = np.diagonal(label_best, length)
        if length > 1:
            # row a, column j: best[a, a+1+j] + best[a+1+j, a+length]
            cand = left[:m, 1:length] + right[length:, length - 1 : 0 : -1]
            best_j = cand.argmax(axis=1)  # first max: smallest split wins ties
            vals = vals + cand[a, best_j]
            split[a, a + length] = a + 1 + best_j
        best[a, a + length] = vals
        left[:m, length] = vals
        right[length:, length] = vals
    return best, split


try:
    from numba import njit

    cky_fill_numba = njit(cache=True)(_cky_fill_loops)
except ImportError:
    cky_fill_numba = None

cky_fill = cky_fill_numba if cky_fill_numba is not None else cky_fill_numpy
USING_NUMBA = cky_fill_numba is not None
