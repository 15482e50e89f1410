"""Rescale measured times to a fixed reference CPU speed.

On a shared virtual machine, other tenants switch our CPU between a fast
and a slow state. The slow state is about 1.5 times slower and lasts for
tens of seconds. A whole 35-second run can land in either state, so raw
times of identical runs differ by up to 50%.

A fixed reference job of interpreter work and small matmuls, close to the
parser's own mix, slows down by about the same factor. A :class:`SpeedProbe`
times that job at unit boundaries (a sentence, an optimizer step), never
inside a unit and at most once every ``INTERVAL`` seconds.  Times summed
over a stretch of work are then multiplied by :meth:`SpeedProbe.scale`,
``REF_SECONDS`` ÷ the mean reference time over that stretch.  The result
is the time the work would take on a machine where the reference job takes
``REF_SECONDS``.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# the scale of every reported time: about the reference job's median time
# on the shared 2-vCPU virtual machine the benchmark was tuned on
REF_SECONDS = 0.008
INTERVAL = 0.25
_REF_ROUNDS = 1000
_REF_MATRIX = np.random.default_rng(0).standard_normal((48, 48)).astype(np.float32)


def reference_job():
    """Seconds taken by a fixed mix of interpreter work and 48x48 matmuls."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(_REF_ROUNDS):
        acc += float((_REF_MATRIX @ _REF_MATRIX)[i % 48, i % 7])
        acc += len([j for j in range(40) if j % 3])
    return time.perf_counter() - t0


class SpeedProbe:
    def __init__(self, enabled=True):
        self.enabled = enabled
        self.times = []  # perf_counter at the end of each probe
        self.refs = []  # the reference job's seconds at that probe

    def tick(self, force=False):
        """Time the reference job if INTERVAL has passed (or ``force``)."""
        if not self.enabled:
            return
        if not force and self.times and time.perf_counter() - self.times[-1] < INTERVAL:
            return
        ref = reference_job()
        self.times.append(time.perf_counter())
        self.refs.append(ref)

    def scale(self, start, end):
        """REF_SECONDS ÷ the mean probe reading in [start, end].

        Probes fall at unit boundaries every INTERVAL seconds, so their mean
        weighs the fast and the slow state as the units' total time does.
        A median would jump from one state to the other as their shares
        pass one half.
        """
        if not self.enabled:
            return 1.0
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        return REF_SECONDS / statistics.fmean(self.refs[lo:hi])
