"""Full parser model: embedding provider + encoder + span scorer.

Also owns checkpoint I/O (named parameters against an architecture
signature) and ``clone_model``, a structural copy at another precision.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import autograd as ag
from .chart import SpanScorer, cky_decode, margin_loss, score_spans
from .embeddings import EmbeddingProvider, WordVocab
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
    def __init__(self, config, provider, label_vocab, seed=0, dtype=np.float32):
        self.config = config
        self.provider = provider
        self.label_vocab = label_vocab
        self.dtype = np.dtype(dtype)
        rng = np.random.default_rng(seed)
        self.encoder = Encoder(
            config.encoder, config.cnn, provider.dim, rng=rng, dtype=dtype
        )
        self.scorer = SpanScorer(
            config.encoder.d_total,
            len(label_vocab),
            hidden=config.span_hidden,
            rng=rng,
            dtype=dtype,
        )

    @property
    def uses_prosody(self):
        return self.config.encoder.use_prosody

    def parameters(self):
        yield from self.provider.parameters()
        yield from self.encoder.parameters()
        yield from self.scorer.parameters()

    def param_dict(self):
        return {p.name: p for p in self.parameters()}

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
        meta, tensors = read_tensors(path)
        if meta.get("kind") != CHECKPOINT_KIND:
            raise CheckpointError(f"{path}: not a parser checkpoint")
        if meta.get("version") != CHECKPOINT_VERSION:
            raise CheckpointError(f"{path}: unsupported checkpoint version")
        try:
            config = ModelConfig.from_dict(meta["model"])
            emb = meta["embedding"]
            mode, dim, words = emb["mode"], emb["dim"], emb["words"]
            labels = meta["labels"][1:]
        except (KeyError, TypeError, ConfigError) as exc:
            raise CheckpointError(f"{path}: bad checkpoint metadata ({exc!r})") from None
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
            table = ag.Parameter(
                "embeddings.table", np.zeros((len(vocab), dim), dtype=dtype)
            )
            provider = EmbeddingProvider(mode, dim, vocab=vocab, table=table)
        label_vocab = LabelVocab(labels)
        model = cls(config, provider, label_vocab, seed=0, dtype=dtype)
        load_parameters(model, tensors, source=str(path))
        return model, meta


def load_parameters(model, tensors, source="checkpoint"):
    """Overwrite model parameters from named tensors; shapes must agree."""
    params = model.param_dict()
    mismatches = []
    missing = [name for name in params if name not in tensors]
    extra = [name for name in tensors if name not in params]
    for name, param in params.items():
        if name in tensors and tensors[name].shape != param.value.shape:
            mismatches.append(
                f"{name}: checkpoint {tensors[name].shape} vs model {param.value.shape}"
            )
    if missing or extra or mismatches:
        raise CheckpointError(
            f"{source}: architecture mismatch; "
            f"missing={missing} extra={extra} shape_diffs={mismatches}"
        )
    for name, param in params.items():
        param.value[...] = tensors[name].astype(param.value.dtype)


def clone_model(model, dtype=None):
    """Structural copy of a model, optionally at a different precision."""
    dtype = np.dtype(dtype or model.dtype)
    provider = model.provider
    if provider.trainable:
        new_provider = EmbeddingProvider(
            provider.mode,
            provider.dim,
            vocab=provider.vocab,
            table=ag.Parameter(provider.table.name, provider.table.value.astype(dtype)),
        )
    else:
        new_provider = provider
    twin = ParserModel(model.config, new_provider, model.label_vocab, dtype=dtype)
    src = {p.name: p for p in model.parameters()}
    for p in twin.parameters():
        p.value[...] = src[p.name].value.astype(dtype)
    return twin
