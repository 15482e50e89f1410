"""Word vector providers: learned, pretrained-frozen, pretrained-finetuned.

Pretrained vectors arrive as files.  Contextual (frozen) vectors are keyed
by sentence id and used as constants; word-type vectors initialize a
trainable table for the finetuned mode.  Swapping providers changes only
the word-embedding stream; prosodic features are untouched.
"""

from __future__ import annotations

import warnings as _warnings
from dataclasses import dataclass, field

import numpy as np

from . import autograd as ag
from .errors import AlignmentError, DataError, FormatError, utf8_text

UNK = "<unk>"
MODES = ("learned", "frozen", "finetuned")
DEFAULT_LEARNED_DIM = 128
DEFAULT_MIN_COUNT = 2
UNK_DROPOUT_P = 0.01


class WordVocab:
    """word -> index map with a reserved UNK entry at index 0."""

    def __init__(self, words=()):
        self.words = [UNK]
        self._index = {UNK: 0}
        for w in words:
            if w not in self._index:
                self._index[w] = len(self.words)
                self.words.append(w)

    @classmethod
    def from_tokens(cls, sentences, min_count=DEFAULT_MIN_COUNT):
        counts = {}
        for tokens in sentences:
            for w in tokens:
                counts[w] = counts.get(w, 0) + 1
        kept = [w for w in sorted(counts) if counts[w] >= min_count]
        return cls(kept)

    def index_or_unk(self, word):
        return self._index.get(word, 0)

    def __len__(self):
        return len(self.words)

    def __contains__(self, word):
        return word in self._index


@dataclass
class VectorStore:
    """Per-sentence matrices of precomputed contextual vectors."""

    dim: int
    producer: str = ""
    sentences: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.sentences)


def _count(path, lineno, what, text):
    try:
        n = int(text)
    except ValueError:
        n = -1
    if n < 0:
        raise FormatError(
            f"{path}:{lineno}: {what} must be a non-negative integer, got {text!r}"
        )
    return n


def _vector(path, lineno, fields):
    try:
        with np.errstate(over="ignore"):  # an overflow shows as inf below
            vec = np.array(fields, dtype=np.float32)
    except ValueError:
        raise FormatError(f"{path}:{lineno}: non-numeric vector value") from None
    if not np.isfinite(vec).all():
        raise FormatError(f"{path}:{lineno}: vector value is not a finite float32")
    return vec


def load_vector_store(path):
    """Read the sentence-keyed vector store format.

    Header line "dim=<d> producer=<name>", then blocks of
    "sentence <id> <T>" followed by T lines of d floats.
    """
    with utf8_text(path) as fh:
        lines = [(n, ln.rstrip("\n")) for n, ln in enumerate(fh, start=1) if ln.strip()]
    if not lines:
        _warnings.warn(f"{path}: empty vector store")
        return VectorStore(dim=0)
    head_no, head_line = lines[0]
    head = dict(part.split("=", 1) for part in head_line.split() if "=" in part)
    if "dim" not in head:
        raise FormatError(f"{path}: header must declare dim=<d>, got {head_line!r}")
    dim = _count(path, head_no, "dim", head["dim"])
    store = VectorStore(dim=dim, producer=head.get("producer", ""))
    i = 1
    while i < len(lines):
        lineno, line = lines[i]
        parts = line.split()
        if len(parts) != 3 or parts[0] != "sentence":
            raise FormatError(f"{path}:{lineno}: expected 'sentence <id> <T>', got {line!r}")
        sid, t = parts[1], _count(path, lineno, "row count", parts[2])
        if i + 1 + t > len(lines):
            raise FormatError(f"{path}: sentence {sid} truncated ({t} rows declared)")
        rows = []
        for j, (row_no, row_line) in enumerate(lines[i + 1 : i + 1 + t]):
            row = _vector(path, row_no, row_line.split())
            if row.shape[0] != dim:
                raise FormatError(
                    f"{path}:{row_no}: sentence {sid} row {j} has {row.shape[0]} "
                    f"dims, header says {dim}"
                )
            rows.append(row)
        store.sentences[sid] = np.stack(rows) if rows else np.zeros((0, dim), np.float32)
        i += 1 + t
    return store


def load_word_vectors(path):
    """GloVe-style word vectors: one "word v1 .. vd" line per type."""
    words = []
    vecs = []
    dim = None
    with utf8_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.rstrip("\n").split()
            if not parts:
                continue
            vec = _vector(path, lineno, parts[1:])
            if dim is None:
                dim = vec.shape[0]
            elif vec.shape[0] != dim:
                raise FormatError(
                    f"{path}:{lineno}: vector has {vec.shape[0]} dims, expected {dim}"
                )
            words.append(parts[0])
            vecs.append(vec)
    if not words:
        raise FormatError(f"{path}: no word vectors found")
    return words, np.stack(vecs)


class EmbeddingProvider:
    """Produces e_i rows for a sentence; gradient flow depends on mode."""

    def __init__(self, mode, dim, vocab=None, table=None, store=None):
        if mode not in MODES:
            raise DataError(f"unknown embedding mode {mode!r}")
        self.mode = mode
        self.dim = dim
        self.vocab = vocab
        self.table = table
        self.store = store

    @classmethod
    def learned(cls, sentences, dim=DEFAULT_LEARNED_DIM, min_count=DEFAULT_MIN_COUNT, rng=None, dtype=np.float32):
        vocab = WordVocab.from_tokens(sentences, min_count=min_count)
        rng = rng or np.random.default_rng(0)
        table = ag.Parameter(
            "embeddings.table",
            (rng.standard_normal((len(vocab), dim)) / np.sqrt(dim)).astype(dtype),
        )
        return cls("learned", dim, vocab=vocab, table=table)

    @classmethod
    def frozen(cls, store):
        return cls("frozen", store.dim, store=store)

    @classmethod
    def finetuned(cls, path, dtype=np.float32):
        words, vecs = load_word_vectors(path)
        vocab = WordVocab(words)
        table = np.empty((len(vocab), vecs.shape[1]), dtype=dtype)
        table[0] = vecs.mean(axis=0)
        table[1:] = vecs
        return cls(
            "finetuned",
            vecs.shape[1],
            vocab=vocab,
            table=ag.Parameter("embeddings.table", table),
        )

    @property
    def trainable(self):
        return self.mode in ("learned", "finetuned")

    def parameters(self):
        if self.trainable:
            yield self.table

    def embed(self, tape, sentence_ids, token_lists):
        """e_i matrix [N x dim] of sentences' word tokens, packed end to end.

        In learned mode on a training tape, sentence i's UNK word dropout is
        drawn from ``tape.rngs[i]``.
        """
        if self.mode == "frozen":
            mats = []
            for sid, tokens in zip(sentence_ids, token_lists):
                mat = self.store.sentences.get(sid)
                if mat is None:
                    raise DataError(f"sentence {sid!r} missing from vector store")
                if mat.shape[0] != len(tokens):
                    raise AlignmentError(
                        f"sentence {sid!r}: store has {mat.shape[0]} vectors "
                        f"for {len(tokens)} tokens"
                    )
                mats.append(mat)
            return tape.constant(np.concatenate(mats))
        ids = [
            np.array([self.vocab.index_or_unk(w) for w in tokens], dtype=np.int64)
            for tokens in token_lists
        ]
        if self.mode == "learned" and tape.train and tape.rngs is not None:
            for rng, sent_ids in zip(tape.rngs, ids, strict=True):
                sent_ids[rng.random(len(sent_ids)) < UNK_DROPOUT_P] = 0
        return ag.take_rows(tape.watch(self.table), np.concatenate(ids))
