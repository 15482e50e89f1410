"""The benchmark harness still runs against the library.

The traced mode exercises every hook that ``perfbench/run.py`` patches
(``Tape._ops``, ``Tape.backward``, ``Adam.step``, ``Encoder.prosody_stream``,
``model.score_spans`` and the others) and its correctness checks, so a
library change that breaks the benchmark fails here.  Output goes to the
git-ignored ``.bench_out/``.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", ["parse-long", "train-long", "train-short"])
def test_traced_run_is_correct(child_env, workload):
    r = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, env=child_env, capture_output=True, text=True, timeout=600,
    )
    assert r.returncode == 0, r.stderr
    result = json.loads(r.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
