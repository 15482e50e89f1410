import gc
import os
import weakref

import numpy as np
import pytest

import prosoparse
from prosoparse import autograd as ag
from prosoparse.corpus import featurize
from prosoparse.embeddings import EmbeddingProvider
from prosoparse.encoder import CnnConfig, EncoderConfig
from prosoparse.model import ModelConfig, ParserModel
from prosoparse.synthdata import overfit_corpus
from prosoparse.treebank import LabelVocab


def tiny_model_config(prosody=True, dropout=0.0):
    return ModelConfig(
        encoder=EncoderConfig(
            layers=2,
            heads=2,
            d_content=16,
            d_position=8,
            d_prosody=8 if prosody else 0,
            d_ff=32,
            dropout=dropout,
            max_len=40,
        ),
        cnn=CnnConfig(widths=(3, 5), filters_per_width=4),
        span_hidden=24,
    )


def build_tiny_model(sentences, prosody=True, seed=3, dtype=np.float32, dropout=0.0,
                     emb_dim=12):
    provider = EmbeddingProvider.learned(
        [s.words for s in sentences],
        dim=emb_dim,
        min_count=1,
        rng=np.random.default_rng(seed + 100),
        dtype=dtype,
    )
    vocab = LabelVocab.from_trees([s.tree for s in sentences])
    return ParserModel(
        tiny_model_config(prosody=prosody, dropout=dropout),
        provider,
        vocab,
        seed=seed,
        dtype=dtype,
    )


# The factored attention as the per-head chain of tape ops that
# ``ag.attention`` replaced: its oracle.  The three ops it needs that the
# library no longer has are kept here.


def _transpose(x):
    out = ag.Var(np.ascontiguousarray(x.value.T), x.tape)

    def bwd():
        if out.grad is not None:
            ag._accum(x, out.grad.T)

    x.tape._record(bwd)
    return out


def _smul(x, c):
    c = float(c)
    out = ag.Var(x.value * np.asarray(c, dtype=x.value.dtype), x.tape)

    def bwd():
        if out.grad is not None:
            ag._accum(x, out.grad * c)

    x.tape._record(bwd)
    return out


def _softmax(x):
    """Row softmax over the last axis (float64 internally)."""
    v = x.value.astype(np.float64)
    v = v - v.max(axis=-1, keepdims=True)
    e = np.exp(v)
    y64 = e / e.sum(axis=-1, keepdims=True)
    out = ag.Var(y64.astype(x.value.dtype), x.tape)

    def bwd():
        if out.grad is not None:
            g = out.grad.astype(np.float64)
            dot = (g * y64).sum(axis=-1, keepdims=True)
            ag._accum(x, ((g - dot) * y64).astype(x.value.dtype))

    x.tape._record(bwd)
    return out


def chain_logit_parts(qs, ks, heads, h):
    """Head h's scaled q_h k_h^T for each stream, as tape ops."""
    parts = []
    for q, k in zip(qs, ks):
        dh = q.value.shape[1] // heads
        qh = ag.slice_cols(q, h * dh, (h + 1) * dh)
        kh = ag.slice_cols(k, h * dh, (h + 1) * dh)
        parts.append(_smul(ag.matmul(qh, _transpose(kh)), 1.0 / np.sqrt(dh)))
    return parts


def chain_attention(qs, ks, vs, heads):
    """The oracle for ``ag.attention``: per head, the stream-ordered sum of
    the logit parts, a softmax, and one value product per stream."""
    per_stream = [[] for _ in qs]
    for h in range(heads):
        parts = chain_logit_parts(qs, ks, heads, h)
        logits = parts[0]
        for part in parts[1:]:
            logits = ag.add(logits, part)
        weights = _softmax(logits)
        for heads_out, v in zip(per_stream, vs):
            dh = v.value.shape[1] // heads
            heads_out.append(ag.matmul(weights, ag.slice_cols(v, h * dh, (h + 1) * dh)))
    return [ag.concat(heads_out, axis=1) for heads_out in per_stream]


@pytest.fixture(scope="session")
def featurized_corpus():
    data = overfit_corpus(n_sentences=24, seed=5)
    featurize(data.sentences, data.alignments, data.tracks)
    return data


@pytest.fixture
def child_env():
    """Environment for a child Python that imports the same prosoparse.

    The directory holding the imported package goes first on PYTHONPATH, and
    PROSOPARSE_NUMBA is dropped so a child sees the flag unset unless the
    test sets it.
    """
    env = dict(os.environ)
    env.pop("PROSOPARSE_NUMBA", None)
    root = os.path.dirname(os.path.dirname(prosoparse.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    return env


@pytest.fixture
def tape_refs(monkeypatch):
    """Weak references to every Tape created in the test, with the cyclic
    garbage collector off, so a tape is dead only once refcounting frees it."""
    refs = []
    init = ag.Tape.__init__

    def tracked(self, *args, **kwargs):
        init(self, *args, **kwargs)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(ag.Tape, "__init__", tracked)
    gc.disable()
    try:
        yield refs
    finally:
        gc.enable()
