"""Optimization loop: multi-seed training, early stopping, fine-tuning.

Every run is reproducible from (seed, config, data): batch order, dropout
masks and parameter init all derive from seeded generators.  Each batch of
similar-length sentences is one packed forward pass on one tape; its loss,
the sum of its sentences' margins, is one signed gather plus one add, with
one backward.  Each sentence still draws its dropout masks from its own
generator.  Seeds are independent; with --jobs they run as separate
processes.  Metric logs hold one line per epoch (epoch, train_loss, dev_F1)
and contain nothing non-deterministic, so re-running a config reproduces
them byte for byte.
"""

from __future__ import annotations

import os
import shutil
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import autograd as ag
from .embeddings import (
    DEFAULT_LEARNED_DIM,
    DEFAULT_MIN_COUNT,
    EmbeddingProvider,
    load_vector_store,
)
from .encoder import check_sizes
from .errors import ConfigError, DataError, TrainingDivergedError, VocabularyError
from .evaluation import parseval
from .model import ParserModel
from .treebank import LabelVocab


@dataclass(frozen=True)
class EmbeddingSpec:
    """How to build the word-embedding provider for a run."""

    mode: str = "learned"
    dim: int = DEFAULT_LEARNED_DIM
    min_count: int = DEFAULT_MIN_COUNT
    store_path: str = ""
    vectors_path: str = ""


def build_provider(spec, train_sentences, seed=0, store=None):
    """The embedding provider of ``spec``; frozen mode uses ``store`` when
    given, else reads the vector store at ``spec.store_path``."""
    if spec.mode == "learned":
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0xE)))
        return EmbeddingProvider.learned(
            [s.words for s in train_sentences],
            dim=spec.dim,
            min_count=spec.min_count,
            rng=rng,
        )
    if spec.mode == "frozen":
        if not spec.store_path:
            raise ConfigError("frozen embedding mode needs store_path")
        return EmbeddingProvider.frozen(
            store if store is not None else load_vector_store(spec.store_path)
        )
    if spec.mode == "finetuned":
        if not spec.vectors_path:
            raise ConfigError("finetuned embedding mode needs vectors_path")
        return EmbeddingProvider.finetuned(spec.vectors_path)
    raise ConfigError(f"unknown embedding mode {spec.mode!r}")


# fine-tuning continues a checkpoint at this fraction of the learning rate
FINE_TUNE_LR_SCALE = 0.1


@dataclass(frozen=True)
class TrainConfig:
    seeds: tuple = (1, 2, 3, 4, 5)
    batch_size: int = 32
    learning_rate: float = 8e-4
    warmup_steps: int = 160
    max_epochs: int = 50
    patience: int = 5
    corpus_weights: tuple = (1.0,)

    def __post_init__(self):
        object.__setattr__(self, "seeds", tuple(self.seeds))
        object.__setattr__(self, "corpus_weights", tuple(self.corpus_weights))
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        check_sizes(1, batch_size=self.batch_size, patience=self.patience,
                    warmup_steps=self.warmup_steps)
        check_sizes(0, max_epochs=self.max_epochs,
                    **{f"seeds[{i}]": s for i, s in enumerate(self.seeds)})
        lr = self.learning_rate
        number = isinstance(lr, (int, float, np.integer, np.floating)) and not isinstance(lr, bool)
        if not (number and 0 < lr < np.inf):
            raise ConfigError(f"learning_rate must be a finite number > 0, got {lr!r}")
        if any(w < 0 for w in self.corpus_weights) or not any(
            w > 0 for w in self.corpus_weights
        ):
            raise ConfigError("corpus weights must be non-negative and not all zero")


@dataclass
class RunRecord:
    seed: int
    dev_f1: list = field(default_factory=list)
    best_f1: float = float("-inf")
    best_epoch: int = 0
    checkpoint_path: str = ""
    error: str = ""


class Adam:
    """Adam with linear warmup then inverse-sqrt learning-rate decay.

    The parameters' values and gradients move into one flat buffer each,
    ``value`` and ``grad``, and every ``Parameter.value`` and ``.grad``
    becomes a view of it.  A step, zeroing the gradients and checking them
    are then a few whole-array ops.  The update is elementwise, so it gives
    the bits of a step taken parameter by parameter.  The parameters must
    share one dtype.
    """

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params, learning_rate, warmup_steps):
        self.params = list(params)
        self.base_lr = learning_rate
        self.warmup = warmup_steps
        self.t = 0
        dtypes = {p.value.dtype for p in self.params}
        if len(dtypes) > 1:
            raise ValueError(f"Adam needs parameters of one dtype, got {sorted(map(str, dtypes))}")
        dtype = dtypes.pop() if dtypes else np.float32
        self.value = np.empty(sum(p.value.size for p in self.params), dtype=dtype)
        self.grad = np.empty_like(self.value)
        at = 0
        for p in self.params:
            rows = slice(at, at + p.value.size)
            value, grad = self.value[rows].reshape(p.shape), self.grad[rows].reshape(p.shape)
            value[...], grad[...] = p.value, p.grad
            p.value, p.grad = value, grad
            at = rows.stop
        self._m = np.zeros_like(self.value)
        self._v = np.zeros_like(self.value)

    def lr(self, t):
        frac = t / self.warmup
        return self.base_lr * min(frac, 1.0 / np.sqrt(max(frac, 1e-12)))

    def zero_grad(self):
        self.grad[...] = 0

    def grad_is_finite(self):
        return bool(np.isfinite(self.grad).all())

    def step(self):
        self.t += 1
        lr = self.lr(self.t)
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        g, m, v = self.grad, self._m, self._v
        m *= self.beta1
        m += (1.0 - self.beta1) * g
        v *= self.beta2
        v += (1.0 - self.beta2) * g * g
        self.value -= (lr * (m / c1) / (np.sqrt(v / c2) + self.eps)).astype(self.value.dtype)


def length_bucketed_batches(sentences, batch_size, rng):
    """Batches of similar-length sentences; batch order shuffled per epoch."""
    order = sorted(range(len(sentences)), key=lambda i: (len(sentences[i]), i))
    batches = [
        [sentences[j] for j in order[i : i + batch_size]]
        for i in range(0, len(order), batch_size)
    ]
    rng.shuffle(batches)
    return batches


def epoch_batches(corpora, weights, batch_size, rng):
    """Weighted interleave of per-corpus batches, each corpus seen once.

    Zero-weight corpora are excluded before any randomness is consumed, so
    weights (1, 0) produce exactly the batches of corpus 1 alone.
    """
    active = [(c, w) for c, w in zip(corpora, weights) if w > 0]
    pools = [length_bucketed_batches(c, batch_size, rng) for c, _ in active]
    out = []
    remaining = [list(reversed(p)) for p in pools]
    w = np.array([wt for _, wt in active], dtype=np.float64)
    while any(remaining):
        alive = [i for i, pool in enumerate(remaining) if pool]
        probs = w[alive] / w[alive].sum()
        pick = alive[int(rng.choice(len(alive), p=probs))]
        out.append(remaining[pick].pop())
    return out


def evaluate_f1(model, sentences):
    preds = [d.tree for d in model.parse_sentences(sentences)]
    golds = [s.tree for s in sentences]
    return parseval(golds, preds).f1


def _optimize(model, corpora, config, dev_sentences, seed, seed_dir, lr):
    """Shared epoch loop; returns a RunRecord (checkpoint = best dev epoch)."""
    os.makedirs(seed_dir, exist_ok=True)
    opt = Adam(model.parameters(), lr, config.warmup_steps)
    record = RunRecord(seed=seed)
    record.checkpoint_path = os.path.join(seed_dir, "best.ckpt")
    stale = 0
    log_path = os.path.join(seed_dir, "metrics.log")
    with open(log_path, "w", encoding="utf-8") as log:
        for epoch in range(1, config.max_epochs + 1):
            rng_epoch = np.random.default_rng(np.random.SeedSequence((seed, epoch)))
            batches = epoch_batches(
                corpora, config.corpus_weights, config.batch_size, rng_epoch
            )
            epoch_loss = 0.0
            n_sentences = 0
            for bi, batch in enumerate(batches):
                opt.zero_grad()
                tape = ag.Tape(
                    rngs=[
                        np.random.default_rng(np.random.SeedSequence((seed, epoch, bi, si)))
                        for si in range(len(batch))
                    ],
                    train=True,
                    dtype=model.dtype,
                )
                loss, infos = model.batch_loss(tape, batch)
                if not np.isfinite([loss.value] + [info.loss for info in infos]).all():
                    raise TrainingDivergedError(seed, opt.t)
                for info in infos:
                    epoch_loss += info.loss
                tape.backward(loss, seed=1.0 / len(batch))
                # a NaN weight can leave the loss finite and poison every
                # gradient; stepping on them would poison every weight
                if not opt.grad_is_finite():
                    raise TrainingDivergedError(seed, opt.t)
                n_sentences += len(batch)
                opt.step()
            train_loss = epoch_loss / max(n_sentences, 1)
            dev_f1 = evaluate_f1(model, dev_sentences)
            record.dev_f1.append(dev_f1)
            log.write(f"{epoch}\t{train_loss:.6f}\t{dev_f1:.2f}\n")
            log.flush()
            if dev_f1 > record.best_f1:
                record.best_f1 = dev_f1
                record.best_epoch = epoch
                stale = 0
                model.save(
                    record.checkpoint_path,
                    extra_meta={"seed": seed, "epoch": epoch, "dev_f1": dev_f1},
                )
            else:
                stale += 1
                if stale >= config.patience:
                    break
    return record


def run_seed(seed, train_config, model_config, embedding_spec, corpora,
             dev_sentences, run_dir, store=None):
    all_train = [s for corpus in corpora for s in corpus]
    provider = build_provider(embedding_spec, all_train, seed=seed, store=store)
    label_vocab = LabelVocab.from_trees([s.tree for s in all_train])
    model = ParserModel(model_config, provider, label_vocab, seed=seed)
    seed_dir = os.path.join(run_dir, f"seed{seed}")
    return _optimize(
        model,
        corpora,
        train_config,
        dev_sentences,
        seed,
        seed_dir,
        train_config.learning_rate,
    )


def _seed_worker(packed):
    seed, *args = packed
    try:
        return run_seed(seed, *args)
    except TrainingDivergedError as exc:
        return RunRecord(seed=seed, error=str(exc))


def train(train_config, model_config, embedding_spec, corpora, dev_sentences,
          run_dir, jobs=1, store=None):
    """Train one model per seed; diverged seeds are recorded, not fatal.

    In frozen embedding mode every seed shares ``store`` when it is given
    (a worker process gets a pickled copy); otherwise each seed reads the
    vector store itself.
    """
    if train_config.max_epochs < 1:
        # 0 only means something to fine_tune: a copy of its checkpoint
        raise ConfigError("train needs train.max_epochs >= 1")
    if not corpora or all(len(c) == 0 for c in corpora):
        raise DataError("no training sentences")
    if len(corpora) != len(train_config.corpus_weights):
        raise ConfigError(
            f"{len(corpora)} corpora but {len(train_config.corpus_weights)} weights"
        )
    os.makedirs(run_dir, exist_ok=True)
    jobs_args = [
        (seed, train_config, model_config, embedding_spec, corpora, dev_sentences, run_dir,
         store)
        for seed in train_config.seeds
    ]
    if jobs > 1 and len(jobs_args) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(_seed_worker, jobs_args))
    else:
        records = [_seed_worker(a) for a in jobs_args]
    return records


@dataclass
class MedianSummary:
    chosen_seed: int
    chosen_record: RunRecord
    test_f1: float = None
    predictions: list = None


def median_report(records, test_sentences=None, store=None):
    """Pick the median seed by best dev F1 (lower median on even counts)."""
    ok = [r for r in records if not r.error]
    if not ok:
        raise DataError("no successful seeds to report")
    ordered = sorted(ok, key=lambda r: (r.best_f1, r.seed))
    chosen = ordered[(len(ordered) - 1) // 2]
    summary = MedianSummary(chosen_seed=chosen.seed, chosen_record=chosen)
    if test_sentences:
        model, _ = ParserModel.load(chosen.checkpoint_path, store=store)
        preds = [d.tree for d in model.parse_sentences(test_sentences)]
        summary.test_f1 = parseval([s.tree for s in test_sentences], preds).f1
        summary.predictions = preds
    return summary


def fine_tune(checkpoint_path, new_corpus, train_config, run_dir, dev_sentences,
              store=None, seed=None):
    """Continue training a checkpoint on a new corpus at a reduced rate.

    The new corpus may not introduce constituent labels unknown to the
    checkpoint.  With max_epochs == 0 the output checkpoint is a byte copy
    of the input.
    """
    model, meta = ParserModel.load(checkpoint_path, store=store)
    unseen = set()
    for sent in new_corpus:
        for span in sent.gold_spans:
            if span.label not in model.label_vocab:
                unseen.add(span.label)
    if unseen:
        raise VocabularyError(
            f"new corpus has labels outside the checkpoint vocabulary: {sorted(unseen)}"
        )
    if seed is None:
        seed = int(meta.get("seed", 0))
    seed_dir = os.path.join(run_dir, f"seed{seed}")
    if train_config.max_epochs == 0:
        os.makedirs(seed_dir, exist_ok=True)
        out_path = os.path.join(seed_dir, "best.ckpt")
        shutil.copyfile(checkpoint_path, out_path)
        return RunRecord(
            seed=seed,
            best_f1=float(meta.get("dev_f1", 0.0)),
            checkpoint_path=out_path,
        )
    config = replace(train_config, corpus_weights=(1.0,))
    return _optimize(
        model,
        [new_corpus],
        config,
        dev_sentences,
        seed,
        seed_dir,
        train_config.learning_rate * FINE_TUNE_LR_SCALE,
    )
