"""Full parser model: embedding provider + encoder + span scorer.

An ``autograd.Init`` makes each encoder and span-scorer parameter with one
call.  A fresh model's draws its values from the model's seed; the one that
``ParserModel.load`` and ``clone_model`` pass copies the tensor of each
name, from a checkpoint or from another model, so a loaded or cloned model
draws nothing.  Checkpoints hold the named tensors and metadata: the model
config, the label and word vocabularies and the embedding mode.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import autograd as ag
from .chart import SpanScorer, cky_decode, margin_loss, score_spans
from .embeddings import MODES, EmbeddingProvider, WordVocab
from .encoder import CnnConfig, Encoder, EncoderConfig, check_sizes
from .errors import AlignmentError, CheckpointError, ConfigError, DataError
from .tensorfile import read_tensors, write_tensors
from .treebank import LabelVocab

CHECKPOINT_KIND = "prosoparse-checkpoint"
CHECKPOINT_VERSION = 1
# words per parse bucket: enough rows that per-op overhead stops dominating
PARSE_BUCKET_WORDS = 512


def length_buckets(lengths, max_words):
    """Index lists of consecutive runs of the sentences sorted by (length,
    position), each holding at most ``max_words`` words, or one sentence."""
    buckets, words = [], max_words
    for i in sorted(range(len(lengths)), key=lambda i: (lengths[i], i)):
        if words + lengths[i] > max_words:
            buckets.append([])
            words = 0
        buckets[-1].append(i)
        words += lengths[i]
    return buckets


@dataclass(frozen=True)
class ModelConfig:
    encoder: EncoderConfig
    cnn: CnnConfig
    span_hidden: int = 256

    def __post_init__(self):
        check_sizes(1, span_hidden=self.span_hidden)
        if self.span_hidden < 2:
            raise ConfigError(
                "span_hidden must be >= 2, got 1: a layer norm over one hidden unit "
                "maps every span to 0, so every span would score the same"
            )
        if self.encoder.use_prosody and not self.cnn.widths:
            raise ConfigError("cnn widths must not be empty when d_prosody > 0")

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        return cls(
            encoder=EncoderConfig(**d["encoder"]),
            cnn=CnnConfig(**d["cnn"]),
            span_hidden=d["span_hidden"],
        )


class ParserModel:
    """Embedding provider, encoder and span scorer.  ``init`` (an
    ``autograd.Init``) makes the encoder's and span scorer's parameters; by
    default, one that draws them from ``seed`` at ``dtype``."""

    def __init__(self, config, provider, label_vocab, seed=0, dtype=np.float32, init=None):
        if init is None:
            init = ag.Init(dtype, rng=np.random.default_rng(seed))
        first = len(init.made)  # load makes a trainable provider's table first
        self.config = config
        self.provider = provider
        self.label_vocab = label_vocab
        self.dtype = init.dtype
        self.encoder = Encoder(config.encoder, config.cnn, provider.dim, init)
        self.scorer = SpanScorer(
            config.encoder.d_total, len(label_vocab), config.span_hidden, init
        )
        self._made = init.made[first:]

    @property
    def uses_prosody(self):
        return self.config.encoder.use_prosody

    def parameters(self):
        yield from self.provider.parameters()
        yield from self._made

    # ------------------------------------------------------------------

    def score_sentences(self, tape, sents):
        """SpanScores of a bucket of sentences, encoded and scored together
        in the given order."""
        prosodies = None
        if self.uses_prosody:
            prosodies = [s.prosody for s in sents]
            for sent, prosody in zip(sents, prosodies):
                if prosody is None:
                    raise DataError(
                        f"sentence {sent.sentence_id!r} has no prosodic features but "
                        "the model expects them"
                    )
                if len(prosody.patch_lens) != len(sent.tokens):
                    raise AlignmentError(
                        f"sentence {sent.sentence_id!r}: prosodic features cover "
                        f"{len(prosody.patch_lens)} words for {len(sent.tokens)} tokens"
                    )
        e = self.provider.embed(tape, [s.sentence_id for s in sents], [s.words for s in sents])
        lengths = [len(s.tokens) for s in sents]
        fenceposts = self.encoder.encode(tape, e, lengths, prosodies)
        return score_spans(tape, fenceposts, self.scorer, self.label_vocab, lengths)

    def score_sentence(self, tape, sent):
        return self.score_sentences(tape, [sent])

    def parse_sentences(self, sents):
        """Best tree of each sentence, in input order.

        Sentences are sorted by length (ties by input position) and parsed
        in buckets of at most PARSE_BUCKET_WORDS words (a longer sentence
        alone), one non-recording tape per bucket.
        """
        decoded = [None] * len(sents)
        for bucket in length_buckets([len(s.tokens) for s in sents], PARSE_BUCKET_WORDS):
            tape = ag.Tape(train=False, record=False, dtype=self.dtype)
            scores = self.score_sentences(tape, [sents[i] for i in bucket])
            for i, tree in zip(bucket, cky_decode(scores, [sents[i].tokens for i in bucket])):
                decoded[i] = tree
        return decoded

    def parse_sentence(self, sent):
        return self.parse_sentences([sent])[0]

    def batch_loss(self, tape, sents):
        """(loss Var, [MarginInfo]) of a bucket of sentences, encoded and
        scored as one bucket: the Var is the sum of their margin losses."""
        scores = self.score_sentences(tape, sents)
        return margin_loss(scores, [s.gold_spans for s in sents])

    def sentence_loss(self, tape, sent):
        loss, [info] = self.batch_loss(tape, [sent])
        return loss, info

    # ------------------------------------------------------------------

    def save(self, path, extra_meta=None):
        meta = {
            "kind": CHECKPOINT_KIND,
            "version": CHECKPOINT_VERSION,
            "model": self.config.to_dict(),
            "labels": self.label_vocab.symbols,
            "embedding": {
                "mode": self.provider.mode,
                "dim": self.provider.dim,
                "words": self.provider.vocab.words if self.provider.vocab else None,
            },
        }
        if extra_meta:
            meta.update(extra_meta)
        write_tensors(path, {p.name: p.value for p in self.parameters()}, meta)

    @classmethod
    def load(cls, path, store=None, dtype=np.float32):
        """(model, meta) of a checkpoint.  Each parameter is a copy of the
        checkpoint tensor of its name, cast to ``dtype``; nothing is drawn.
        Bad metadata, or a missing, extra or reshaped tensor, raises
        CheckpointError."""
        meta, tensors = read_tensors(path)
        if meta.get("kind") != CHECKPOINT_KIND:
            raise CheckpointError(f"{path}: not a parser checkpoint")
        if meta.get("version") != CHECKPOINT_VERSION:
            raise CheckpointError(f"{path}: unsupported checkpoint version")
        try:
            config = ModelConfig.from_dict(meta["model"])
            emb = meta["embedding"]
            mode, dim, words = emb["mode"], emb["dim"], emb["words"]
            if mode not in MODES:
                raise ConfigError(f"unknown embedding mode {mode!r}")
            check_sizes(1, **{"embedding.dim": dim})
            _check_strings("labels", meta["labels"])
            if mode != "frozen":
                _check_strings("embedding.words", words)
        except (KeyError, TypeError, ConfigError) as exc:
            raise CheckpointError(f"{path}: bad checkpoint metadata ({exc!r})") from None
        init = ag.Init(dtype, tensors=tensors)
        if mode == "frozen":
            if store is None:
                raise CheckpointError(
                    f"{path}: frozen-embedding checkpoint needs a vector store"
                )
            if store.dim != dim:
                raise CheckpointError(
                    f"{path}: store dim {store.dim} != checkpoint dim {dim}"
                )
            provider = EmbeddingProvider.frozen(store)
        else:
            vocab = WordVocab(words[1:])  # index 0 is UNK already
            table = init("embeddings.table", (len(vocab), dim))
            provider = EmbeddingProvider(mode, dim, vocab=vocab, table=table)
        model = cls(config, provider, LabelVocab(meta["labels"][1:]), init=init)
        init.check(str(path))
        return model, meta


def _check_strings(name, value):
    if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
        raise ConfigError(f"{name} is not a list of strings")


def clone_model(model, dtype=None):
    """Copy of a model, optionally at another precision: each parameter is a
    copy of the model's, cast to ``dtype``; nothing is drawn."""
    init = ag.Init(dtype or model.dtype, tensors={p.name: p.value for p in model.parameters()})
    provider = model.provider
    if provider.trainable:
        table = init(provider.table.name, provider.table.shape)
        provider = EmbeddingProvider(provider.mode, provider.dim, vocab=provider.vocab, table=table)
    return ParserModel(model.config, provider, model.label_vocab, init=init)
