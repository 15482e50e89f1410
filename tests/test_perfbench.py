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


def run_bench(env, workload, seed, trace):
    r = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    assert r.returncode == 0, r.stderr
    result = json.loads(r.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    return result


@pytest.mark.parametrize("workload", ["parse-long", "train-long", "train-short"])
def test_traced_run_is_correct(child_env, workload):
    metrics = run_bench(child_env, workload, 0, 1)["metrics"]
    # the model.score_spans hook still sees the scoring work, on training
    # buckets as on parses
    assert metrics["chart.spans_scored"]["value"] > 0
    assert metrics["chart.score_spans_ms"]["value"] > 0


def test_untraced_run_prints_a_parse_deeper_than_the_recursion_limit(child_env):
    # seed 42's model nests a 156-word parse 366 levels deep, and the run
    # digests every parse through linearize
    run_bench(child_env, "parse-long", 42, 0)
