"""Chart-filling kernels for CKY decoding.

The fill is cubic in sentence length.  ``cky_fill`` takes one chart
[n, n] or a stack of zero-padded charts [..., n, n], a decoding bucket's.
When numba (an optional extra) is installed, the reference loops are
JIT-compiled and fill a stack chart by chart (``per_chart``); without it
the slice-based numpy fallback runs, one vectorized step per span length
over the whole stack.  It adds the same pairs of scalars and breaks ties
the same way as the loops, so its tables are bit-identical to theirs.
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
    smallest split k, and a NaN candidate wins, the first of them, as in
    numpy's max and argmax.  label_best must already incorporate per-span
    label maximization.
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
                if cand > best_sub or (cand != cand and best_sub == best_sub):
                    best_sub = cand
                    best_k = k
            best[a, b] = label_best[a, b] + best_sub
            split[a, b] = best_k
    return best, split


def cky_fill_numpy(label_best):
    """Vectorized fallback: same cell order and additions as the loop kernel.

    label_best: one chart [n, n] or a stack of them [..., n, n]; the tables
    come back in its shape.  A chart shorter than n - 1 words may sit
    zero-padded in the stack: a cell (a, b) reads only cells inside [a, b],
    so padding leaves its real cells unchanged.  ``left[a, l]`` mirrors
    ``best[a, a + l]`` and ``right[b, l]`` mirrors ``best[b - l, b]``, so the
    split candidates of every span of one length are two contiguous slices
    added elementwise; each length's cells are one strided slice of the
    flattened table.
    """
    shape = label_best.shape
    n = shape[-1]
    flat_in = np.asarray(label_best, dtype=np.float64).reshape(-1, n * n)
    charts = len(flat_in)
    best = np.zeros((charts, n * n), dtype=np.float64)
    split = np.zeros((charts, n * n), dtype=np.int32)
    left = np.zeros((charts, n, n), dtype=np.float64)
    right = np.zeros((charts, n, n), dtype=np.float64)
    for length in range(1, n):
        m = n - length
        cells = slice(length, length + m * (n + 1), n + 1)  # (a, a + length)
        vals = flat_in[:, cells]
        if length > 1:
            # row a, column j: best[a, a+1+j] + best[a+1+j, a+length]
            cand = left[:, :m, 1:length] + right[:, length:, length - 1 : 0 : -1]
            best_j = cand.argmax(axis=2)  # first max: smallest split wins ties
            picked = np.arange(0, cand.size, length - 1).reshape(charts, m) + best_j
            vals = vals + cand.reshape(-1)[picked]
            split[:, cells] = best_j + np.arange(1, m + 1)
        best[:, cells] = vals
        left[:, :m, length] = vals
        right[:, length:, length] = vals
    return best.reshape(shape), split.reshape(shape)


def per_chart(kernel):
    """A fill over one chart or a stack of charts [..., n, n] from a kernel
    that fills one [n, n] chart, calling it chart by chart."""

    def fill(label_best):
        n = label_best.shape[-1]
        best, split = zip(*(kernel(chart) for chart in label_best.reshape(-1, n, n)))
        return np.array(best).reshape(label_best.shape), np.array(split).reshape(label_best.shape)

    return fill


try:
    from numba import njit

    cky_fill_numba = njit(cache=True)(_cky_fill_loops)
except ImportError:
    cky_fill_numba = None

cky_fill = per_chart(cky_fill_numba) if cky_fill_numba is not None else cky_fill_numpy
USING_NUMBA = cky_fill_numba is not None
