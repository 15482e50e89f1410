"""One benchmark for training and parsing (see perfbench/README.md).

    python3 perfbench/run.py --workload train-short --seed 1 --seconds 35 --trace 0

Each workload is one process running a closed loop with one client: the
next training run or sentence starts when the previous one has finished.
Inputs are generated from --seed and written as files before any timer
starts.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
--trace 0, the per-layer metrics of a traced run with --trace 1.
"""

import os

# Pinned before numpy loads: one BLAS thread leaves the second core of a
# two-core machine for noise, and unpinned first calls are erratic.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

try:
    import prosoparse
except ImportError as exc:
    sys.exit(f"perfbench: cannot import prosoparse from {SRC}: {exc}")
if not os.path.abspath(prosoparse.__file__).startswith(SRC + os.sep):
    sys.exit(f"perfbench: prosoparse imported from {prosoparse.__file__}, not {SRC}")

from prosoparse import _kernels, chart, embeddings, encoder, model, training  # noqa: E402
from prosoparse import autograd as ag  # noqa: E402
from prosoparse.corpus import featurize, sentences_from_trees  # noqa: E402
from prosoparse.encoder import CnnConfig, EncoderConfig  # noqa: E402
from prosoparse.evaluation import parseval  # noqa: E402
from prosoparse.model import ModelConfig, ParserModel, clone_model  # noqa: E402
from prosoparse.prosody import read_alignment_file, read_frame_track_file  # noqa: E402
from prosoparse.training import EmbeddingSpec, TrainConfig, build_provider  # noqa: E402
from prosoparse.treebank import LabelVocab, read_tree_file  # noqa: E402

import inputs  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_REPEATS = 5
PARSE_SENTENCES = 100  # p90 then has at least ten sentences beyond it
MIN_PASSES = 3
CHART_CHECKS = 3  # sampled charts per run checked against the loop kernel
CHART_CHECK_MAX_WORDS = 100
F64_CHECK_MAX_WORDS = 30
CKY_SWEEP = (10, 20, 40, 80, 160)
CKY_SWEEP_LABELS = 64
LENGTH_BUCKETS = ((1, 20), (21, 40), (41, 80), (81, 160))
# spans around whole training runs and parse passes; their self time is the
# glue that no layer span covers
PHASE_SPANS = ("training.train", "bench.parse_pass")
OP_KINDS = (
    "add", "add_bias", "concat", "conv1d", "dropout", "layer_norm", "matmul",
    "max_pool_time", "mul", "relu", "slice_cols", "smul", "softmax", "sub",
    "take_rows", "transpose",
)


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: object  # seed -> (SynthData, {split: count}); "parse" is parsed
    model: ModelConfig
    embedding: EmbeddingSpec
    train: TrainConfig = None  # None: parse a seeded, untrained checkpoint
    train_share: float = 0.0  # share of --seconds spent in training.train
    n_labels: int = 0  # label inventory of the seeded checkpoint


SMALL_MODEL = ModelConfig(  # the acceptance suite's OVERFIT_MODEL
    encoder=EncoderConfig(
        layers=2, heads=2, d_content=64, d_position=32, d_prosody=32,
        d_ff=128, dropout=0.1, max_len=40,
    ),
    cnn=CnnConfig(widths=(3, 5), filters_per_width=8),
    span_hidden=64,
)
MID_MODEL = ModelConfig(
    encoder=EncoderConfig(
        layers=2, heads=2, d_content=64, d_position=32, d_prosody=32,
        d_ff=128, dropout=0.0, max_len=64,
    ),
    cnn=CnnConfig(widths=(3, 5), filters_per_width=8),
    span_hidden=128,
)
EMB32 = EmbeddingSpec(mode="learned", dim=32, min_count=1)
# 6 base labels give 39-48 labels with unary composites; padded to 64
PARSE_LABELS = tuple(f"C{i}" for i in range(6))
# log-spaced, so each doubling of length has as many sentences
PARSE_LENGTHS = [int(n) for n in np.geomspace(10, 160, PARSE_SENTENCES).round()]

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train-short",
            corpus=lambda seed: inputs.short_corpus(
                seed, n_train=200, n_dev=50, n_parse=PARSE_SENTENCES
            ),
            model=SMALL_MODEL,
            embedding=EMB32,
            train=TrainConfig(
                seeds=(1,), batch_size=32, learning_rate=8e-3, warmup_steps=8,
                max_epochs=4, patience=4,
            ),
            train_share=0.75,
        ),
        Workload(
            name="train-long",
            corpus=lambda seed: inputs.long_corpus(
                seed, n_train=32, n_dev=16, n_parse=PARSE_SENTENCES
            ),
            model=MID_MODEL,
            embedding=EMB32,
            train=TrainConfig(
                seeds=(1,), batch_size=2, learning_rate=1e-2, warmup_steps=4,
                max_epochs=6, patience=6,
            ),
            train_share=0.65,
        ),
        Workload(
            name="parse-long",
            corpus=lambda seed: inputs.mixed_length_corpus(
                seed, lengths=PARSE_LENGTHS, labels=PARSE_LABELS,
            ),
            model=ModelConfig(encoder=EncoderConfig(), cnn=CnnConfig(), span_hidden=256),
            embedding=EmbeddingSpec(),
            n_labels=64,
        ),
    )
}


class BenchmarkError(Exception):
    """A correctness check failed; the run prints no result."""


def environment(seed):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "kernel_path": "numba" if _kernels.USING_NUMBA else "numpy",
        "blas": blas,
        "threads": {
            v: os.environ.get(v)
            for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


# ----------------------------------------------------------------------
# the three phases: setup, training, parsing


def setup(wl, paths, span):
    """Read trees, alignments and tracks, featurize, build or load the model."""
    with span("treebank.read_trees"):
        trees = {name: read_tree_file(p) for name, p in paths["trees"].items()}
    with span("prosody.read"):
        alignments = read_alignment_file(paths["alignments"])
        tracks = {
            os.path.splitext(os.path.basename(p))[0]: read_frame_track_file(p)
            for p in sorted(glob.glob(os.path.join(paths["tracks"], "*.csv")))
        }
    ids = list(alignments)
    splits, offset = {}, 0
    for name, split_trees in trees.items():
        splits[name] = sentences_from_trees(
            split_trees, ids=ids[offset : offset + len(split_trees)]
        )
        offset += len(split_trees)
    with span("corpus.featurize"):
        featurize([s for sents in splits.values() for s in sents], alignments, tracks)
    if wl.train is None:
        with span("model.load"):
            parser, _ = ParserModel.load(paths["checkpoint"])
    else:  # what training.run_seed builds before its first epoch
        with span("model.build"):
            seed = wl.train.seeds[0]
            train = splits["train"]
            parser = ParserModel(
                wl.model,
                build_provider(wl.embedding, train, seed=seed),
                LabelVocab.from_trees([s.tree for s in train]),
                seed=seed,
            )
    return splits, parser


def train_once(wl, splits, run_dir, span, probe):
    """One training.train call: ((start, end) of each unit, RunRecord, failures).

    The units split the call at the end of each optimizer step, so that
    the speed probe can run between them.
    """
    bounds = [time.perf_counter()]  # unit starts and ends, alternating
    step = training.Adam.step

    def timed_step(opt):
        step(opt)
        bounds.append(time.perf_counter())
        probe.tick()
        bounds.append(time.perf_counter())

    training.Adam.step = timed_step
    try:
        with span("training.train"):
            rec = training.train(
                wl.train, wl.model, wl.embedding, [splits["train"]], splits["dev"], run_dir
            )[0]
    finally:
        training.Adam.step = step
    bounds.append(time.perf_counter())
    failed = 0
    if rec.error:
        failed = len(splits["train"]) * wl.train.max_epochs
    else:
        log = os.path.join(run_dir, f"seed{rec.seed}", "metrics.log")
        with open(log, encoding="utf-8") as fh:
            losses = [float(line.split("\t")[1]) for line in fh if line.strip()]
        if len(losses) != wl.train.max_epochs or not all(np.isfinite(losses)):
            failed = len(splits["train"]) * wl.train.max_epochs
    return list(zip(bounds[::2], bounds[1::2])), rec, failed


def parse_pass(parser, sentences, span, probe):
    """Parse every sentence once: ((start, end) per sentence, trees, failures)."""
    bounds, trees, failed = [], [], 0
    with span("bench.parse_pass"):
        for sent in sentences:
            probe.tick()
            t0 = time.perf_counter()
            try:
                tree = parser.parse_sentence(sent).tree
            except Exception as exc:  # a failed sentence is counted, not fatal
                print(f"parse failed on {sent.sentence_id}: {exc!r}", file=sys.stderr)
                tree = None
            bounds.append((t0, time.perf_counter()))
            leaves = [(leaf.word, leaf.pos_tag) for leaf in tree.leaves()] if tree else None
            if leaves != list(sent.tokens):
                failed += 1
                tree = None
            trees.append(tree)
    return bounds, trees, failed


def tree_digest(trees):
    h = hashlib.sha256()
    for tree in trees:
        h.update((tree.linearize() if tree is not None else "<failed>").encode())
        h.update(b"\n")
    return h.hexdigest()


def check_charts(parser, sentences, seed):
    """The numpy kernel (and numba, if present) equals the loop reference."""
    pool = [s for s in sentences if len(s) <= CHART_CHECK_MAX_WORDS]
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(pool), size=min(CHART_CHECKS, len(pool)), replace=False)
    for i in sorted(picks):
        dense = parser.score_sentence(ag.Tape(train=False, dtype=parser.dtype), pool[i]).dense
        check_kernels(dense.max(axis=2), pool[i].sentence_id)


def check_kernels(label_best, where):
    ref_best, ref_split = _kernels._cky_fill_loops(label_best)
    kernels = [_kernels.cky_fill_numpy]
    if _kernels.cky_fill_numba is not None:
        kernels.append(_kernels.cky_fill_numba)
    for kernel in kernels:
        best, split = kernel(label_best)
        if not (np.array_equal(best, ref_best) and np.array_equal(split, ref_split)):
            raise BenchmarkError(f"{kernel.__name__} differs from the loop kernel on {where}")


def f64_reference_f1(parser, sentences, trees):
    """F1 of the parses against the float64 twin's parses of the same sentences."""
    twin = clone_model(parser, dtype=np.float64)
    pairs = [
        (s, t) for s, t in zip(sentences, trees)
        if t is not None and len(s) <= F64_CHECK_MAX_WORDS
    ]
    golds = [twin.parse_sentence(s).tree for s, _ in pairs]
    return parseval(golds, [t for _, t in pairs]).f1


# ----------------------------------------------------------------------
# tracing


class LayerCounts:
    """Counts taken inside traced calls, where the work happens."""

    def __init__(self):
        self.scored = 0
        self.ops = {}
        self.losses = 0
        self.zero_losses = 0
        self.span_calls = 0
        self.spans = 0
        self.mflop = 0.0
        self.dense_mb = 0.0
        self.cky_calls = 0
        self.split_candidates = 0

    def on_score_sentence(self, args, _result):
        self.scored += 1
        for fn in args[1]._ops:
            kind = fn.__qualname__.split(".", 1)[0]
            kind = kind if kind in OP_KINDS else "other"
            self.ops[kind] = self.ops.get(kind, 0) + 1

    def on_sentence_loss(self, _args, result):
        self.losses += 1
        self.zero_losses += result[1].loss == 0.0

    def on_score_spans(self, args, scores):
        d_in, hidden = args[2].w1.value.shape
        n = scores.n_words * (scores.n_words + 1) // 2
        self.span_calls += 1
        self.spans += n
        self.mflop += 2.0 * n * (d_in * hidden + hidden * scores.n_labels) / 1e6
        self.dense_mb = max(self.dense_mb, scores.dense.nbytes / 2**20)

    def on_cky_fill(self, args, _result):
        T = args[0].shape[0] - 1
        self.cky_calls += 1
        self.split_candidates += (T**3 - T) // 6


def install_tracer(tracer, counts):
    p = tracer.patch
    p(embeddings.EmbeddingProvider, "embed", "embeddings.embed")
    p(encoder.Encoder, "encode", "encoder.encode")
    p(encoder.Encoder, "prosody_stream", "encoder.prosody_stream")
    p(model.ParserModel, "parse_sentence", "model.parse", sentence_arg=1)
    p(model.ParserModel, "sentence_loss", "model.sentence_loss", sentence_arg=2,
      after=counts.on_sentence_loss)
    p(model.ParserModel, "score_sentence", "model.score_sentence",
      after=counts.on_score_sentence)
    p(model.ParserModel, "save", "model.save")
    # from-imports: patched in the module that looks the name up
    p(model, "score_spans", "chart.score_spans", after=counts.on_score_spans)
    p(model, "cky_decode", "chart.cky_decode")
    p(model, "margin_loss", "chart.margin_loss")
    p(chart, "cky_fill", "kernels.cky_fill", after=counts.on_cky_fill)
    p(chart, "spans_to_tree", "treebank.spans_to_tree")
    p(training, "evaluate_f1", "training.evaluate_f1")
    p(ag.Tape, "backward", "autograd.backward")
    p(training.Adam, "step", "training.adam_step")


def cky_sweep(seed, repeats=5):
    """Active cky_fill kernel at fixed sentence lengths, ms (median of repeats)."""
    rng = np.random.default_rng(seed)
    out = {}
    for T in CKY_SWEEP:
        dense = rng.standard_normal((T + 1, T + 1, CKY_SWEEP_LABELS))
        dense[:, :, 0] = 0.0
        label_best = dense.max(axis=2)
        check_kernels(label_best, f"a random T={T} chart")
        _kernels.cky_fill(label_best)  # numba compiles on its first call
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            _kernels.cky_fill(label_best)
            times.append(time.perf_counter() - t0)
        out[f"kernels.cky_fill_ms.T{T}"] = statistics.median(times) * 1e3
    return out


def layer_metrics(tracer, counts):
    summary = tracer.summary()

    def mean(name, scale=1e3, self_time=False):
        calls, total, own = summary.get(name, (0, 0.0, 0.0))
        return (own if self_time else total) / calls * scale if calls else 0.0

    m = {
        "encoder.encode_self_ms": mean("encoder.encode", self_time=True),
        "encoder.prosody_stream_ms": mean("encoder.prosody_stream"),
        "embeddings.embed_ms": mean("embeddings.embed"),
        "autograd.backward_ms": mean("autograd.backward"),
        "autograd.ops_per_sentence": sum(counts.ops.values()) / max(counts.scored, 1),
    }
    for kind in (*OP_KINDS, "other"):
        m[f"autograd.ops.{kind}"] = counts.ops.get(kind, 0) / max(counts.scored, 1)
    m.update({
        "training.adam_step_ms": mean("training.adam_step"),
        "chart.score_spans_ms": mean("chart.score_spans"),
        "kernels.cky_fill_ms": mean("kernels.cky_fill"),
        "chart.cky_decode_self_ms": mean("chart.cky_decode", self_time=True),
        "treebank.spans_to_tree_ms": mean("treebank.spans_to_tree"),
        "chart.margin_loss_self_ms": mean("chart.margin_loss", self_time=True),
    })
    by_bucket = {b: [] for b in LENGTH_BUCKETS}
    for name, start, end, _parent, _sid, n_words in tracer.spans:
        if name == "model.parse":
            for lo, hi in LENGTH_BUCKETS:
                if lo <= n_words <= hi:
                    by_bucket[(lo, hi)].append(end - start)
    for (lo, hi), times in by_bucket.items():
        m[f"model.parse_ms.len_{lo}_{hi}"] = statistics.fmean(times) * 1e3 if times else 0.0
    m.update({
        "training.zero_loss_frac": counts.zero_losses / max(counts.losses, 1),
        "training.evaluate_f1_s": mean("training.evaluate_f1", scale=1.0),
        "model.save_s": mean("model.save", scale=1.0),
        "corpus.featurize_s": mean("corpus.featurize", scale=1.0),
        "prosody.read_s": mean("prosody.read", scale=1.0),
        "treebank.read_trees_s": mean("treebank.read_trees", scale=1.0),
        "model.load_s": mean("model.load", scale=1.0),
        "chart.spans_scored": counts.spans / max(counts.span_calls, 1),
        "chart.score_spans_mflop": counts.mflop / max(counts.span_calls, 1),
        "chart.dense_mb": counts.dense_mb,
        "kernels.cky_split_candidates": counts.split_candidates / max(counts.cky_calls, 1),
    })
    phases = [summary[name] for name in PHASE_SPANS if name in summary]
    m["trace.unattributed_frac"] = sum(p[2] for p in phases) / sum(p[1] for p in phases)
    return m, summary


# ----------------------------------------------------------------------


def make_inputs(wl, seed, work):
    data, splits = wl.corpus(seed)
    paths = inputs.write_inputs(data, splits, os.path.join(work, "inputs"))
    if wl.train is None:
        paths["checkpoint"] = os.path.join(work, "seeded.ckpt")
        inputs.seeded_checkpoint(
            paths["checkpoint"], data, wl.model, wl.embedding, wl.n_labels, seed
        )
    return paths


def run(wl, seed, seconds, traced, work):
    """Set up, train (train-* only) and parse; returns (result, report).

    Untraced, training and parsing repeat until their share of ``seconds``
    is used.  Traced, only the second repeat of each phase is traced, and
    training and parsing stop after a third; the overhead compares the
    traced repeat with the third.
    """
    paths = make_inputs(wl, seed, work)
    report = {"env": environment(seed)}
    tracer, counts = Tracer(), LayerCounts()
    # seconds of the traced call and of the untraced call after it; the
    # first call of each phase warms caches and allocator and is left out
    walls = {False: 0.0, True: 0.0}

    def call(i, fn):
        """fn(span); in a traced run the second of three calls is traced."""
        if not (traced and i == 1):
            return fn(lambda _name: nullcontext())
        install_tracer(tracer, counts)
        try:
            return fn(tracer.span)
        finally:
            tracer.restore()

    def enough(i, spent, step, budget, minimum_met=True):
        """Traced: after the untraced call that follows the traced one.

        Else: when the next call would overrun the budget.
        """
        if traced:
            return i == 2
        return i >= 1 and minimum_met and spent + step > budget

    probe = SpeedProbe(enabled=not traced)

    def timed(i, fn):
        """(result, wall seconds, window) of call(i, fn) between two probes.

        The window spans both probes, for SpeedProbe.scale.
        """
        w0 = time.perf_counter()
        probe.tick(force=True)
        t0 = time.perf_counter()
        result = call(i, fn)
        t1 = time.perf_counter()
        probe.tick(force=True)
        return result, t1 - t0, (w0, time.perf_counter())

    setup_times = []
    for i in range(SETUP_REPEATS):
        (splits, parser), raw, window = timed(i, lambda span: setup(wl, paths, span))
        setup_times.append(raw * probe.scale(*window))
    attempted = failed = 0
    t_start = time.perf_counter()

    if wl.train is not None:
        n_steps = len(splits["train"]) * wl.train.max_epochs
        rates, records = [], []
        for i in range(10**6):
            run_dir = os.path.join(work, f"train{i}")
            (units, rec, n_failed), raw, window = timed(
                i, lambda span: train_once(wl, splits, run_dir, span, probe)
            )
            if traced and i:
                walls[i == 1] += raw
            if not (traced and i == 1):
                work_s = sum(b - a for a, b in units) * probe.scale(*window)
                rates.append(n_steps / work_s)
            records.append(rec)
            attempted += n_steps
            failed += n_failed
            spent = time.perf_counter() - t_start
            if enough(i, spent, spent / len(records), seconds * wl.train_share):
                break
        if len({tuple(r.dev_f1) for r in records}) != 1:
            raise BenchmarkError("repeated training runs disagree on dev F1")
        sents_per_s = statistics.median(rates)
        dev_f1 = records[-1].dev_f1[-1]

        def load(span):
            with span("model.load"):
                return ParserModel.load(records[-1].checkpoint_path)[0]

        parser = call(1, load)

    sentences = splits["parse"]
    parser.parse_sentence(sentences[0])  # warm-up, untimed
    t_parse = time.perf_counter()
    parse_budget = seconds - (t_parse - t_start)
    passes, windows, digests = [], [], set()
    for i in range(10**6):
        (bounds, trees, n_failed), raw, window = timed(
            i, lambda span: parse_pass(parser, sentences, span, probe)
        )
        if traced and i:
            walls[i == 1] += raw
        attempted += len(sentences)
        failed += n_failed
        if not (traced and i == 1):
            passes.append([b - a for a, b in bounds])
            windows.append(window)
        digests.add(tree_digest(trees))
        spent = time.perf_counter() - t_parse
        if enough(i, spent, raw, parse_budget, len(passes) >= MIN_PASSES):
            break
    if len(digests) != 1:
        raise BenchmarkError("repeated parses of the same sentences differ")
    check_charts(parser, sentences, seed)
    # a mean over passes, not a median: the machine state can switch from
    # pass to pass, and a mean weighs the states as the mean probe reading does
    scale = probe.scale(windows[0][0], windows[-1][1])
    per_sentence = [statistics.fmean(ts) * scale for ts in zip(*passes)]
    if wl.train is None:
        dev_f1 = f64_reference_f1(parser, sentences, trees)
        rates = [len(sentences) / (sum(p) * scale) for p in passes]
        sents_per_s = statistics.median(rates)

    report.update(
        tree_digest=digests.pop(),
        parse_passes=len(passes),
        setup_s=setup_times,
        sents_per_s=rates,
        speed_probe_s=probe.refs,
    )
    if traced:
        metrics, summary = layer_metrics(tracer, counts)
        metrics.update(cky_sweep(seed))
        metrics["trace.overhead_frac"] = walls[True] / walls[False] - 1.0
        report["self_time_s"] = {name: row[2] for name, row in summary.items()}
        tracer.write(os.path.join(OUT_DIR, f"{wl.name}-seed{seed}-spans.json"))
    else:
        ms = [t * 1e3 for t in per_sentence]
        metrics = {
            "sents_per_s": sents_per_s,
            "dev_f1": dev_f1,
            "parse_ms_p50": statistics.median(ms),
            "parse_ms_p90": statistics.quantiles(ms, n=10)[8],
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_frac": 1.0 - failed / attempted,
        }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    report["result"] = result
    return result, report


def unit_of(name):
    if name in ("sents_per_s", "dev_f1"):
        return {"sents_per_s": "sentences/s", "dev_f1": "F1"}[name]
    if "_ms" in name:
        return "ms"
    for suffix, unit in (("_s", "s"), ("_mb", "MB"), ("_mflop", "MFLOP"), ("_frac", "fraction")):
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    work = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    try:
        result, report = run(wl, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(f"env {json.dumps(report['env'])}")
    print(
        f"parsed {PARSE_SENTENCES} sentences x {report['parse_passes']} passes, "
        f"tree digest {report['tree_digest']}"
    )
    for name, m in result["metrics"].items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))


if __name__ == "__main__":
    try:
        main()
    except BenchmarkError as exc:
        sys.exit(f"perfbench: check failed: {exc}")
