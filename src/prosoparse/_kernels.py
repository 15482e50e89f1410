"""Chart-filling kernels for CKY decoding.

The inner loop is cubic in sentence length and dominates decode time, so it
is JIT-compiled with numba by default.  Setting the environment variable
``PROSOPARSE_NUMBA=0`` (or lacking numba entirely) selects a pure-numpy
fallback.  Both paths traverse cells in the same order and perform the same
scalar additions, so their outputs are bit-identical.
``python3 perfbench/run.py --workload parse-long --trace 1`` checks that
against ``_cky_fill_loops`` and times the active kernel at T = 10..160.
"""

from __future__ import annotations

import os

import numpy as np

NUMBA_ENV_VAR = "PROSOPARSE_NUMBA"


def _env_wants_numba():
    return os.environ.get(NUMBA_ENV_VAR, "1").strip().lower() not in (
        "0",
        "false",
        "no",
        "off",
    )


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
    """Vectorized fallback: same cell order and additions as the loop kernel."""
    n = label_best.shape[0]
    best = np.zeros((n, n), dtype=np.float64)
    split = np.zeros((n, n), dtype=np.int32)
    idx = np.arange(n)
    best[idx[:-1], idx[1:]] = label_best[idx[:-1], idx[1:]]
    for length in range(2, n):
        a = np.arange(0, n - length)
        b = a + length
        # candidates over splits k = a+1 .. b-1, one row per span
        cand = np.empty((len(a), length - 1), dtype=np.float64)
        for j in range(length - 1):
            k = a + 1 + j
            cand[:, j] = best[a, k] + best[k, b]
        best_j = cand.argmax(axis=1)  # first max: smallest split wins ties
        best[a, b] = label_best[a, b] + cand[np.arange(len(a)), best_j]
        split[a, b] = a + 1 + best_j
    return best, split


cky_fill_numba = None
if _env_wants_numba():
    try:
        from numba import njit

        cky_fill_numba = njit(cache=True)(_cky_fill_loops)
    except ImportError:
        cky_fill_numba = None

cky_fill = cky_fill_numba if cky_fill_numba is not None else cky_fill_numpy
USING_NUMBA = cky_fill_numba is not None
