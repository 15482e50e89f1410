import gc
import os
import weakref
import zlib
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import settings

import prosoparse
from prosoparse import autograd as ag
from prosoparse import chart, prosody
from prosoparse._kernels import _cky_fill_loops
from prosoparse.chart import (
    HAMMING_COST,
    MarginInfo,
    SpanScores,
    _check_gold_spans,
    span_row,
)
from prosoparse.corpus import featurize
from prosoparse.embeddings import EmbeddingProvider, VectorStore
from prosoparse.encoder import (
    CNN_IN_CHANNELS,
    N_PAUSE_BUCKETS,
    PAUSE_EMB_DIM,
    PHI_DIM,
    CnnConfig,
    EncoderConfig,
)
from prosoparse.errors import AlignmentError, CrossingSpanError, DataError, ShapeError
from prosoparse.model import ModelConfig, ParserModel
from prosoparse.synthdata import overfit_corpus
from prosoparse.training import Adam
from prosoparse.treebank import (
    CHAIN_JOIN,
    EMPTY_LABEL,
    LabelVocab,
    LeafNode,
    _expand_chain,
    bracket_multiset,
    classify_fluency,
    sentence_of,
    strip_punctuation,
)

# Tier-1 draws the same examples on every run; ``--hypothesis-profile=fuzz``
# draws fresh ones, at the same example counts.
settings.register_profile("tier1", derandomize=True)
settings.register_profile("fuzz", derandomize=False)
settings.load_profile("tier1")


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


# Test-local ops: the library has no caller for them, but losses and
# oracles built in tests do.


def mul(a, b):
    """Elementwise product; ``b`` may be a vector broadcast over rows of a matrix."""
    tape = ag._same_tape("mul", a, b)
    if a.value.shape == b.value.shape:
        b_rows = b.value
    elif a.value.ndim == 2 and b.value.ndim == 1 and a.value.shape[1] == b.value.shape[0]:
        b_rows = b.value[None, :]
    else:
        raise ShapeError("mul", a.value.shape, b.value.shape)
    out = ag.Var(a.value * b_rows, tape)

    def bwd():
        ag._accum(a, out.grad * b_rows)
        gb = out.grad * a.value
        ag._accum(b, gb if b.value.shape == a.value.shape else gb.sum(axis=0))

    tape._record(bwd, out)
    return out


def add_bias(x, b):
    """A [T, d] Var plus a [d] bias on every row."""
    tape = ag._same_tape("add_bias", x, b)
    if x.value.ndim != 2 or b.value.shape != x.value.shape[1:]:
        raise ShapeError("add_bias", x.value.shape, b.value.shape)
    out = ag.Var(x.value + b.value[None, :], tape)

    def bwd():
        ag._accum(x, out.grad)
        ag._accum(b, out.grad.sum(axis=0))

    tape._record(bwd, out)
    return out


def sub(a, b):
    """Elementwise difference of two Vars of one shape."""
    tape = ag._same_tape("sub", a, b)
    if a.value.shape != b.value.shape:
        raise ShapeError("sub", a.value.shape, b.value.shape)
    out = ag.Var(a.value - b.value, tape)

    def bwd():
        ag._accum(a, out.grad)
        ag._accum(b, -out.grad)

    tape._record(bwd, out)
    return out


def sum_all(x):
    out = ag.Var(np.asarray(x.value.sum(dtype=np.float64), dtype=x.value.dtype), x.tape)

    def bwd():
        ag._accum(x, np.full_like(x.value, out.grad))

    x.tape._record(bwd, out)
    return out


# The finite-difference gradient check every op's backward is held to.


def grad_check(f, params, n_samples=50, h=1e-3, seed=0):
    """Max relative error between reverse-mode and central finite differences.

    ``f()`` must rebuild the forward pass deterministically (dropout off) and
    return a scalar Var.  For each parameter at least ``n_samples`` random
    coordinates are perturbed by ±h; use float64 parameters for tight
    tolerances.  Coordinates where both gradients are ~0 are skipped, as are
    ReLU-style kinks the caller avoids by construction.
    """
    rng = np.random.default_rng(seed)
    params = list(params)
    for p in params:
        p.grad[...] = 0
    loss = f()
    loss.tape.backward(loss)
    analytic = {p.name: p.grad.copy() for p in params}

    worst = 0.0
    for p in params:
        flat = p.value.reshape(-1)
        size = flat.shape[0]
        if size <= n_samples:
            coords = np.arange(size)
        else:
            coords = rng.choice(size, size=n_samples, replace=False)
        ga = analytic[p.name].reshape(-1)
        for c in coords:
            orig = flat[c]
            flat[c] = orig + h
            lp = float(f().value)
            flat[c] = orig - h
            lm = float(f().value)
            flat[c] = orig
            gf = (lp - lm) / (2.0 * h)
            scale = max(abs(ga[c]), abs(gf))
            if scale < 1e-10:
                continue
            worst = max(worst, abs(ga[c] - gf) / scale)
    return worst


# The affine layer norm as the chain of three tape ops that ``ag.layer_norm``
# replaced: a plain layer norm, a gain product and a bias: its oracle.


def _plain_layer_norm(x):
    y64 = x.value.astype(np.float64)
    y64 -= y64.mean(axis=-1, keepdims=True)
    var = np.square(y64).sum(axis=-1, keepdims=True) / y64.shape[-1]
    std = np.sqrt(var + 1e-5)
    y64 /= std
    out = ag.Var(y64.astype(x.value.dtype), x.tape)

    def bwd():
        g = out.grad.astype(np.float64)
        gm = g.mean(axis=-1, keepdims=True)
        gym = (g * y64).mean(axis=-1, keepdims=True)
        g -= gm
        g -= y64 * gym
        g /= std
        ag._accum(x, g.astype(x.value.dtype, copy=False))

    x.tape._record(bwd, out)
    return out


def chain_layer_norm(x, gain, bias):
    """The oracle for ``ag.layer_norm``."""
    return add_bias(mul(_plain_layer_norm(x), gain), bias)


# The factored attention as the per-head chain of tape ops that
# ``ag.attention`` replaced: its oracle.  The three ops it needs that the
# library no longer has are kept here.


def _transpose(x):
    out = ag.Var(np.ascontiguousarray(x.value.T), x.tape)

    def bwd():
        ag._accum(x, out.grad.T)

    x.tape._record(bwd, out)
    return out


def _smul(x, c):
    c = float(c)
    out = ag.Var(x.value * np.asarray(c, dtype=x.value.dtype), x.tape)

    def bwd():
        ag._accum(x, out.grad * c)

    x.tape._record(bwd, out)
    return out


def _softmax(x):
    """Row softmax over the last axis (float64 internally)."""
    v = x.value.astype(np.float64)
    v = v - v.max(axis=-1, keepdims=True)
    e = np.exp(v)
    y64 = e / e.sum(axis=-1, keepdims=True)
    out = ag.Var(y64.astype(x.value.dtype), x.tape)

    def bwd():
        g = out.grad.astype(np.float64)
        dot = (g * y64).sum(axis=-1, keepdims=True)
        ag._accum(x, ((g - dot) * y64).astype(x.value.dtype))

    x.tape._record(bwd, out)
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


# The span scorer's hidden layer as the op ``ag.span_scores`` replaced,
# followed by the second layer's matmul and add_bias: its oracle.


def span_hidden(proj, b1, gain, beta):
    """``relu(layer_norm(proj[b] - proj[a] + b1) * gain + beta)`` for every
    fencepost pair a < b, from float64 statistics of the fenceposts."""
    tape = ag._same_tape("span_hidden", proj, b1, gain, beta)
    n, h = proj.value.shape
    starts, ends = np.triu_indices(n, 1)
    p64 = proj.value.astype(np.float64)
    q64 = p64 + b1.value
    p_mean = p64.mean(axis=-1)
    q_mean = q64.mean(axis=-1)
    p64 -= p_mean[:, None]
    q64 -= q_mean[:, None]
    gram = p64 @ q64.T
    var = (
        np.square(q64).sum(axis=-1)[ends]
        + np.square(p64).sum(axis=-1)[starts]
        - 2.0 * gram[starts, ends]
    ) / h
    std = np.sqrt(np.maximum(var, 0.0) + 1e-5)
    dt = proj.value.dtype
    y = proj.value[ends]
    y -= proj.value[starts]
    y += b1.value
    y -= (q_mean[ends] - p_mean[starts]).astype(dt)[:, None]
    y *= (1.0 / std).astype(dt)[:, None]
    out = ag.Var(y * gain.value, tape)
    out.value += beta.value
    np.maximum(out.value, 0, out=out.value)

    def bwd():
        g = out.grad * (out.value > 0)
        ag._accum(beta, g.sum(axis=0))
        ag._accum(gain, (g * y).sum(axis=0))
        g *= gain.value
        g64 = g.astype(np.float64)
        gm = g64.mean(axis=-1, keepdims=True)
        gym = (g64 * y).mean(axis=-1, keepdims=True)
        g64 -= gm
        g64 -= y * gym
        g64 /= std[:, None]
        dx = g64.astype(dt, copy=False)
        ag._accum(b1, dx.sum(axis=0))
        dproj = np.zeros_like(proj.value)
        lo = 0
        for a in range(n - 1):
            block = dx[lo : lo + n - 1 - a]
            dproj[a] -= block.sum(axis=0)
            dproj[a + 1 :] += block
            lo += n - 1 - a
        ag._accum(proj, dproj)

    tape._record(bwd, out)
    return out


def chain_span_scores(proj, b1, gain, beta, w2, b2):
    """The oracle for ``ag.span_scores``."""
    return add_bias(ag.matmul(span_hidden(proj, b1, gain, beta), w2), b2)


# The prosody CNN as the chain it was, convolution, then rectify, then
# pool, with the pooling op that found each item's winning frame on the way
# forward: ``relu_then_pool(conv1d(x, w, b), lengths)`` is the oracle for
# ``ag.conv_pool(x, lengths, w, b)``.


def conv1d(x, w, b):
    """Same-padded 1-D convolution over time of [items, time, in_ch] data
    with [width, in_ch, out_ch] filters and an [out_ch] bias."""
    tape = w.tape
    n, t, cin = x.shape
    width, _, cout = w.value.shape
    rows = n * t
    product = ag._conv_windows(x, width) @ w.value.reshape(width * cin, cout)
    out = ag.Var((product[:rows] + b.value[None, :]).reshape(n, t, cout), tape)

    def bwd():
        g = out.grad.reshape(rows, cout)
        ag._accum(b, g.sum(axis=0))
        ag._accum(w, (ag._conv_windows(x, width)[:rows].T @ g).reshape(width, cin, cout))

    tape._record(bwd, out)
    return out


def _argmax_pool_time(x, lengths):
    lengths = np.asarray(lengths, dtype=np.int64)
    n, t, c = x.value.shape
    padded = np.arange(t)[None, :, None] >= lengths[:, None, None]
    idx = np.where(padded, -np.inf, x.value).argmax(axis=1)
    items = np.arange(n)[:, None]
    chans = np.arange(c)[None, :]
    out = ag.Var(x.value[items, idx, chans], x.tape)

    def bwd():
        g = np.zeros_like(x.value)
        g[items, idx, chans] = out.grad
        ag._accum(x, g)

    x.tape._record(bwd, out)
    return out


def relu_then_pool(conv, lengths):
    return _argmax_pool_time(ag.relu(conv), lengths)


# Span scores for a dense [T+1, T+1, labels] tensor, the layout the decoder
# read before it decoded from the score matrix.


def attached_scores(dense, vocab):
    """SpanScores whose matrix (on a float64 tape) holds ``dense[a, b]`` as
    the row of span a < b."""
    T = dense.shape[0] - 1
    matrix = ag.Tape(dtype=np.float64).constant(dense[np.triu_indices(T + 1, 1)])
    return SpanScores(vocab=vocab, matrix=matrix, lengths=[T])


# The total score of a tree's spans, summed cell by cell: the oracle of
# a decode's ``total_score``.


def tree_score(scores, spans):
    """Sum of the scores of the given non-empty labeled spans."""
    total = 0.0
    for s in spans:
        row = span_row(scores.n_words, s.a, s.b)
        total += float(scores.matrix.value[row, scores.vocab.index(s.label)])
    return float(total)


# The bucket decoder as it was when each sentence's chart was filled alone,
# and the margin loss as it was when it summed each sentence's scores in a
# Python loop: the oracles of ``chart._decode``'s one fill over a
# zero-padded stack and of ``chart.margin_loss``'s sums over the bucket.


def sentence_bounds(lengths):
    """(T, first row, end row) of each sentence's score rows."""
    ends = np.cumsum([T * (T + 1) // 2 for T in lengths]).tolist()
    return zip(lengths, [0] + ends, ends)


def per_sentence_trees(rows, empty, lengths):
    """Yields each sentence's (spans, rows, labels, total)."""
    best = rows[:, 1:].max(axis=1)
    empty_wins = empty >= best
    cell_best = np.where(empty_wins, empty, best)
    for T, lo, hi in sentence_bounds(lengths):
        fence = np.arange(T + 1)
        label_best = np.zeros((T + 1, T + 1), dtype=np.float64)
        label_best[fence[:, None] < fence] = cell_best[lo:hi]
        chart_best, split = _cky_fill_loops(label_best)
        spans = []
        stack = [(0, T)]
        while stack:
            a, b = stack.pop()
            spans.append((a, b))
            if b - a > 1:
                k = int(split[a, b])
                stack += [(k, b), (a, k)]
        spans.sort()
        at = lo + span_row(T, *np.array(spans).T)
        root = lo + T - 1
        labels = rows[at, 1:].argmax(axis=1) + 1
        labels[empty_wins[at] & (at != root)] = 0
        total = float(best[root]) + (chart_best[0, T] - label_best[0, T])
        yield spans, at, labels, float(total)


def per_sentence_decode(rows, empty, lengths):
    """``chart._decode``'s (spans, at, labels, totals), sentence by sentence."""
    spans, at, labels, totals = zip(*per_sentence_trees(rows, empty, lengths))
    return list(spans), np.concatenate(at), np.concatenate(labels), np.array(totals)


def per_sentence_margin_loss(scores, golds):
    lengths = scores.lengths
    if len(golds) != len(lengths):
        raise DataError(f"{len(golds)} gold trees for {len(lengths)} sentences")
    rows = scores.matrix.value.astype(np.float64)
    bounds = list(sentence_bounds(lengths))
    gold_label = np.zeros(len(rows), dtype=np.int64)
    gold_rows = []
    for (T, lo, _), gold_spans in zip(bounds, golds):
        gold = _check_gold_spans(gold_spans, T)
        a, b = np.array([(s.a, s.b) for s in gold], dtype=np.int64).reshape(-1, 2).T
        at = lo + span_row(T, a, b)
        gold_label[at] = [scores.vocab.index(s.label) for s in gold]
        gold_rows.append(at)
    cost = np.full(rows.shape, HAMMING_COST)
    cost[np.arange(len(rows)), gold_label] = 0.0

    # looked up on the module, so that a test can swap in the oracle decoder
    _, bucket_at, bucket_labels, _ = chart._decode(rows + cost, cost[:, 0], lengths)
    pred_label = np.zeros_like(gold_label)
    infos, live, deltas, first = [], np.zeros(len(rows), dtype=bool), 0.0, 0
    for (T, lo, hi), gold_at in zip(bounds, gold_rows):
        tree = slice(first, first + 2 * T - 1)
        first = tree.stop
        at, labels = bucket_at[tree], bucket_labels[tree]
        pred_label[at] = labels
        pred_raw = sum(rows[at[labels != 0], labels[labels != 0]])
        delta = float(cost[at, labels].sum())
        loss_value = pred_raw + delta - sum(rows[gold_at, gold_label[gold_at]])
        correct = np.array_equal(pred_label[lo:hi], gold_label[lo:hi])
        hinge = 0.0 if loss_value <= 0.0 else float(loss_value)
        infos.append(MarginInfo(loss=hinge, delta=delta, correct=correct))
        if correct or loss_value <= 0.0:
            continue
        live[lo:hi] = True
        deltas += delta
    tape = scores.matrix.tape
    if not live.any():
        return tape.constant(0.0), infos
    wrong = live & (pred_label != gold_label)
    pred_only = np.flatnonzero(wrong & (pred_label != 0))
    gold_only = np.flatnonzero(wrong & (gold_label != 0))
    scored = ag.gather_sum(
        scores.matrix,
        np.concatenate([pred_only, gold_only]),
        np.concatenate([pred_label[pred_only], gold_label[gold_only]]),
        np.repeat([1.0, -1.0], [len(pred_only), len(gold_only)]),
    )
    return ag.add(scored, tape.constant(deltas)), infos


# Adam as it was when it stepped each parameter's own arrays: the oracle of
# the step over one flat buffer.


class ParamByParamAdam:
    beta1, beta2, eps = Adam.beta1, Adam.beta2, Adam.eps
    lr = Adam.lr

    def __init__(self, params, learning_rate, warmup_steps):
        self.params = list(params)
        self.base_lr = learning_rate
        self.warmup = warmup_steps
        self.t = 0
        self._m = [np.zeros_like(p.value) for p in self.params]
        self._v = [np.zeros_like(p.value) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.grad[...] = 0

    def grad_is_finite(self):
        return all(np.isfinite(p.grad).all() for p in self.params)

    def step(self):
        self.t += 1
        lr = self.lr(self.t)
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        for p, m, v in zip(self.params, self._m, self._v):
            g = p.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.value -= (lr * (m / c1) / (np.sqrt(v / c2) + self.eps)).astype(
                p.value.dtype
            )


# ``spans_to_tree`` as it was when each node copied the spans inside it and
# recursed per level: the oracle of the one-pass stack build.


def recursive_spans_to_tree(spans, leaves):
    T = len(leaves)
    if T < 1:
        raise DataError("cannot build a tree over zero leaves")
    if isinstance(spans, (set, frozenset)):
        spans = sorted(spans, key=lambda s: (s.a, -s.b, s.label))
    merged = {}
    order = []
    for span in spans:
        a, b, label = span
        if not (0 <= a < b <= T):
            raise DataError(f"span {span} out of range for {T} leaves")
        if label == EMPTY_LABEL:
            continue
        key = (a, b)
        if key in merged:
            merged[key] = merged[key] + CHAIN_JOIN + label
        else:
            merged[key] = label
            order.append(key)
    order.sort(key=lambda ab: (ab[0], -ab[1]))
    for (a1, b1), (a2, b2) in zip(order, order[1:]):
        if a1 < a2 < b1 < b2:
            raise CrossingSpanError((a1, b1), (a2, b2))
    root_key = (0, T)
    if root_key not in merged:
        raise DataError(f"no labeled span covers the whole sentence (0, {T})")
    leaf_nodes = [LeafNode(w, t) for w, t in leaves]
    inner = [key for key in order if key != root_key]
    return _expand_chain(merged[root_key], _children(0, T, inner, leaf_nodes, merged))


def _children(a, b, inner, leaf_nodes, merged):
    children = []
    pos = a
    i = 0
    while pos < b:
        if i < len(inner) and inner[i][0] == pos:
            ca, cb = inner[i]
            sub = []
            i += 1
            while i < len(inner) and inner[i][0] < cb:
                if inner[i][1] > cb:
                    raise CrossingSpanError((ca, cb), inner[i])
                sub.append(inner[i])
                i += 1
            grandchildren = _children(ca, cb, sub, leaf_nodes, merged)
            children.append(_expand_chain(merged[(ca, cb)], grandchildren))
            pos = cb
        else:
            children.append(leaf_nodes[pos])
            pos += 1
    return children


# ``treebank._tokenize`` as it was when it walked the text one character at
# a time: the oracle of the one-regex tokenizer.


def char_walk_tokenize(text):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c in "()":
            tokens.append((c, i))
            i += 1
        elif c.isspace():
            i += 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in "()":
                j += 1
            tokens.append((text[i:j], i))
            i = j
    return tokens


# Prosody-pathway surgery: zeroing the pathway of a text+prosody model makes
# its span scores those of the text-only twin that carries its other weights.


def _text_width(config):
    return config.encoder.d_content + config.encoder.d_position


def prosody_pathway(model):
    """(parameter, column/row slice) pairs that inject or carry prosody.

    Zeroing every listed slice makes the model's span scores equal those of
    the text-only twin sharing its remaining weights.
    """
    if not model.uses_prosody:
        return
    d_text = _text_width(model.config)
    enc = model.encoder
    yield enc.w_prosody, np.s_[:]
    yield enc.b_prosody, np.s_[:]
    for layer in enc.layers:
        pros_attn = layer.attn[-1]
        for p in (pros_attn.wq, pros_attn.wk, pros_attn.wv, pros_attn.wo):
            yield p, np.s_[:]
        for norm in (layer.norm1[-1], layer.norm2[-1]):
            yield norm.gain, np.s_[:]
            yield norm.bias, np.s_[:]
        yield layer.ff_w1, np.s_[d_text:, :]
        yield layer.ff_w2, np.s_[:, d_text:]
        yield layer.ff_b2, np.s_[d_text:]
    start, stop = enc.sentinels[-1]
    yield start, np.s_[:]
    yield stop, np.s_[:]
    yield model.scorer.w1, np.s_[d_text:, :]


def zero_prosody_pathway(model):
    for param, sl in prosody_pathway(model):
        param.value[sl] = 0


def build_text_twin(model, seed=0):
    """Text-only model carrying the text-stream weights of a prosody model."""
    cfg = model.config
    text_cfg = replace(cfg, encoder=replace(cfg.encoder, d_prosody=0))
    twin = ParserModel(
        text_cfg, model.provider, model.label_vocab, seed=seed, dtype=model.dtype
    )
    d_text = _text_width(cfg)
    src = {p.name: p.value for p in model.parameters()}
    for p in twin.parameters():
        if p.name not in src:
            continue
        s = src[p.name]
        if s.shape == p.value.shape:
            p.value[...] = s
        elif p.name.endswith("ff.w1") or p.name == "span.w1":
            p.value[...] = s[:d_text, :]
        elif p.name.endswith("ff.w2"):
            p.value[...] = s[:, :d_text]
        elif p.name.endswith("ff.b2"):
            p.value[...] = s[:d_text]
        else:
            raise DataError(f"cannot transplant parameter {p.name}: {s.shape} -> {p.value.shape}")
    return twin


# A sentence's prosodic features as they were computed one word at a time,
# a pause loop and a frame patch per word: the oracle of
# ``prosody.word_features``.  CONTEXT_S and MAX_FRAMES are read at call
# time, as the library reads them.


def pause_bucket(gap_s):
    """Monotone bucketization of a pause length in seconds into 0..5."""
    for bucket, edge in enumerate(prosody.PAUSE_BUCKET_EDGES):
        if gap_s <= edge:
            return bucket
    return prosody.N_PAUSE_BUCKETS - 1


def extract_frame_patch(track, alignment):
    """(frames [n, 2], mask [n]) for a word plus CONTEXT_S seconds each side."""
    if alignment.end <= track.start_time or alignment.start >= track.end_time:
        raise AlignmentError(
            f"word {alignment.word!r} [{alignment.start}, {alignment.end}] "
            f"lies outside track [{track.start_time}, {track.end_time}]"
        )
    fp = track.frame_period
    lo = alignment.start - prosody.CONTEXT_S
    n = int(round((alignment.duration + 2.0 * prosody.CONTEXT_S) / fp))
    n = max(1, n)
    first = int(round((lo - track.start_time) / fp))
    if n > prosody.MAX_FRAMES:
        drop = n - prosody.MAX_FRAMES
        first += drop // 2
        n = prosody.MAX_FRAMES
    frames = np.zeros((n, 2), dtype=np.float32)
    src_lo = max(first, 0)
    src_hi = min(first + n, track.n_frames)
    if src_lo < src_hi:
        dst_lo = src_lo - first
        frames[dst_lo : dst_lo + (src_hi - src_lo), 0] = track.energy[src_lo:src_hi]
        frames[dst_lo : dst_lo + (src_hi - src_lo), 1] = track.f0[src_lo:src_hi]
    times = track.start_time + (first + np.arange(n)) * fp
    return frames, (times >= alignment.start) & (times < alignment.end)


def per_word_features(alignments, track, stats):
    """The oracle for ``prosody.word_features``."""
    alignments = list(alignments)
    prosody._check_sorted(alignments)
    before, after, durations = [], [], []
    for i, ali in enumerate(alignments):
        gap_before = 0.0 if i == 0 else ali.start - alignments[i - 1].end
        last = i == len(alignments) - 1
        gap_after = 0.0 if last else alignments[i + 1].start - ali.end
        before.append(pause_bucket(gap_before))
        after.append(pause_bucket(gap_after))
        mean = stats.mean_for(ali.word)
        durations.append([ali.duration / mean, np.log1p(ali.duration)])
    frames, masks = zip(*(extract_frame_patch(track, ali) for ali in alignments))
    return {
        "pause_before": np.array(before, np.int64),
        "pause_after": np.array(after, np.int64),
        "duration_scalars": np.array(durations, dtype=np.float32),
        "frames": np.concatenate(frames),
        "mask": np.concatenate(masks),
        "patch_lens": np.array([len(m) for m in masks], np.int64),
    }


# Frozen-mode vector stores: deterministic per-sentence vectors, and the
# text format ``embeddings.load_vector_store`` reads.


def synthetic_vector_store(sentences, dim=16, seed=7):
    """Deterministic per-sentence random vectors (frozen-mode stand-in)."""
    store = VectorStore(dim=dim, producer="synthetic")
    for sent in sentences:
        rng = np.random.default_rng((seed, zlib.crc32(sent.sentence_id.encode())))
        store.sentences[sent.sentence_id] = rng.standard_normal(
            (len(sent), dim)
        ).astype(np.float32)
    return store


def write_vector_store(path, store):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"dim={store.dim} producer={store.producer or 'unknown'}\n")
        for sid, mat in store.sentences.items():
            fh.write(f"sentence {sid} {mat.shape[0]}\n")
            for row in mat:
                fh.write(" ".join(f"{x:.6f}" for x in row))
                fh.write("\n")


@pytest.fixture(scope="session")
def featurized_corpus():
    data = overfit_corpus(n_sentences=24, seed=5)
    featurize(data.sentences, data.alignments, data.tracks)
    return data


@pytest.fixture
def child_env():
    """Environment for a child Python that imports the same prosoparse.

    The directory holding the imported package goes first on PYTHONPATH.
    """
    env = dict(os.environ)
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


# The encoder's and span scorer's parameters as they were made when each
# class drew its own with a private Xavier helper and listed them in a
# hand-kept ``parameters()`` method (in the order it drew them): the oracle
# of the models that ``autograd.Init`` makes.


def _oracle_xavier(rng, fan_in, fan_out, dtype):
    scale = np.sqrt(2.0 / (fan_in + fan_out))
    return (rng.standard_normal((fan_in, fan_out)) * scale).astype(dtype)


def oracle_parameters(config, embed_dim, n_labels, seed, dtype):
    """[(name, value)] of a fresh model's encoder and span scorer."""
    rng = np.random.default_rng(seed)
    enc, dt = config.encoder, np.dtype(dtype)
    out = []

    def add(name, value):
        out.append((name, value))

    add("encoder.input.content.w", _oracle_xavier(rng, embed_dim, enc.d_content, dt))
    add("encoder.input.content.b", np.zeros(enc.d_content, dtype=dt))
    add("encoder.positions", (rng.standard_normal((enc.max_len, enc.d_position))
                              / np.sqrt(enc.d_position)).astype(dt))
    if enc.use_prosody:
        for side in ("before", "after"):
            add(f"encoder.pause_{side}",
                (rng.standard_normal((N_PAUSE_BUCKETS, PAUSE_EMB_DIM)) * 0.1).astype(dt))
        n = config.cnn.filters_per_width
        for w in config.cnn.widths:
            add(f"encoder.cnn.w{w}.filters",
                (rng.standard_normal((w, CNN_IN_CHANNELS, n))
                 * np.sqrt(2.0 / (w * CNN_IN_CHANNELS))).astype(dt))
            add(f"encoder.cnn.w{w}.bias", np.zeros(n, dtype=dt))
        pros_in = PHI_DIM + config.cnn.output_dim
        add("encoder.input.prosody.w", _oracle_xavier(rng, pros_in, enc.d_prosody, dt))
        add("encoder.input.prosody.b", np.zeros(enc.d_prosody, dtype=dt))
    streams = list(zip(("content", "position", "prosody"), enc.stream_dims))
    for i in range(enc.layers):
        name = f"encoder.layer{i}"
        for s, d in streams:
            for w in ("wq", "wk", "wv", "wo"):
                add(f"{name}.attn.{s}.{w}", _oracle_xavier(rng, d, d, dt))
        for norm in ("norm1", "norm2"):
            for s, d in streams:
                add(f"{name}.{norm}.{s}.gain", np.ones(d, dtype=dt))
                add(f"{name}.{norm}.{s}.bias", np.zeros(d, dtype=dt))
        add(f"{name}.ff.w1", _oracle_xavier(rng, enc.d_total, enc.d_ff, dt))
        add(f"{name}.ff.b1", np.zeros(enc.d_ff, dtype=dt))
        add(f"{name}.ff.w2", _oracle_xavier(rng, enc.d_ff, enc.d_total, dt))
        add(f"{name}.ff.b2", np.zeros(enc.d_total, dtype=dt))
    for s, d in streams:
        for end in ("start", "stop"):
            add(f"encoder.sentinel.{s}.{end}",
                (rng.standard_normal((1, d // 2)) * 0.1).astype(dt))
    hidden = config.span_hidden
    scale1 = np.sqrt(2.0 / (enc.d_total + hidden))
    scale2 = np.sqrt(2.0 / (hidden + n_labels))
    add("span.w1", (rng.standard_normal((enc.d_total, hidden)) * scale1).astype(dt))
    add("span.b1", np.zeros(hidden, dtype=dt))
    add("span.ln_gain", np.ones(hidden, dtype=dt))
    add("span.ln_bias", np.zeros(hidden, dtype=dt))
    add("span.w2", (rng.standard_normal((hidden, n_labels)) * scale2).astype(dt))
    add("span.b2", np.zeros(n_labels, dtype=dt))
    return out


# Parseval and the paired bootstrap as they were when each sentence's
# brackets were counted once per system, summed into report objects one
# sentence at a time, and the bootstrap scored F1 with its own formula: the
# oracles of the evaluation over one count table.

ORACLE_LENGTH_BUCKETS = (("[0,5]", 0, 5), ("[6,10]", 6, 10), ("[11,-]", 11, None))


@dataclass
class OracleBucket:
    matched: int = 0
    gold: int = 0
    predicted: int = 0
    n_sentences: int = 0
    exact_match: int = 0

    @property
    def precision(self):
        return 100.0 * self.matched / self.predicted if self.predicted else 0.0

    @property
    def recall(self):
        return 100.0 * self.matched / self.gold if self.gold else 0.0

    @property
    def f1(self):
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r > 0 else 0.0

    def add(self, matched, gold, predicted, exact):
        self.matched += matched
        self.gold += gold
        self.predicted += predicted
        self.n_sentences += 1
        self.exact_match += int(exact)


def oracle_sentence_counts(gold_tree, pred_tree, index, delete_punctuation):
    gold_words = [w.lower() for w, _ in sentence_of(gold_tree)]
    pred_words = [w.lower() for w, _ in sentence_of(pred_tree)]
    if gold_words != pred_words:
        raise AlignmentError(
            f"sentence {index}: predicted words do not match gold "
            f"({pred_words} vs {gold_words})"
        )
    if delete_punctuation:
        gold_tree, pred_tree = strip_punctuation(gold_tree), strip_punctuation(pred_tree)
    gold_brackets = bracket_multiset(gold_tree)
    pred_brackets = bracket_multiset(pred_tree)
    matched = sum(
        min(count, pred_brackets.get(key, 0)) for key, count in gold_brackets.items()
    )
    return matched, sum(gold_brackets.values()), sum(pred_brackets.values())


def oracle_parseval(gold_trees, pred_trees, delete_punctuation=False):
    """(overall, fluency, length) OracleBuckets of the pairs."""
    overall = OracleBucket()
    fluency = {name: OracleBucket() for name in ("fluent", "disfluent")}
    length = {name: OracleBucket() for name, _, _ in ORACLE_LENGTH_BUCKETS}
    for i, (gold, pred) in enumerate(zip(gold_trees, pred_trees)):
        matched, n_gold, n_pred = oracle_sentence_counts(gold, pred, i, delete_punctuation)
        exact = matched == n_gold == n_pred
        scored = strip_punctuation(gold) if delete_punctuation else gold
        n_words = sum(1 for _ in scored.leaves())
        overall.add(matched, n_gold, n_pred, exact)
        fluency[classify_fluency(gold)].add(matched, n_gold, n_pred, exact)
        bucket = next(
            name for name, lo, hi in ORACLE_LENGTH_BUCKETS
            if n_words >= lo and (hi is None or n_words <= hi)
        )
        length[bucket].add(matched, n_gold, n_pred, exact)
    return overall, fluency, length


def oracle_paired_bootstrap(gold_trees, pred_a, pred_b, n_resamples=10000, seed=0,
                            delete_punctuation=False):
    """(observed delta, p-value, [n_resamples] resampled deltas)."""
    n = len(gold_trees)
    counts = np.zeros((n, 5), dtype=np.int64)  # mA, pA, mB, pB, gold
    for i, (g, a, b) in enumerate(zip(gold_trees, pred_a, pred_b)):
        ma, ng, na = oracle_sentence_counts(g, a, i, delete_punctuation)
        mb, ng2, nb = oracle_sentence_counts(g, b, i, delete_punctuation)
        assert ng == ng2
        counts[i] = (ma, na, mb, nb, ng)

    def micro_f1(m, p, g):
        prec = np.where(p > 0, m / np.maximum(p, 1), 0.0)
        rec = np.where(g > 0, m / np.maximum(g, 1), 0.0)
        denom = prec + rec
        return np.where(denom > 0, 200.0 * prec * rec / np.maximum(denom, 1e-12), 0.0)

    t = counts.sum(axis=0).astype(np.float64)
    delta = float(
        micro_f1(t[0:1], t[1:2], t[4:5])[0] - micro_f1(t[2:3], t[3:4], t[4:5])[0]
    )
    rng = np.random.default_rng(seed)
    chunk = max(1, min(n_resamples, 2_000_000 // max(n, 1)))
    resampled, done = [], 0
    while done < n_resamples:
        m = min(chunk, n_resamples - done)
        idx = rng.integers(0, n, size=(m, n))
        sums = counts[idx].sum(axis=1).astype(np.float64)  # [m, 5]
        resampled.append(
            micro_f1(sums[:, 0], sums[:, 1], sums[:, 4])
            - micro_f1(sums[:, 2], sums[:, 3], sums[:, 4])
        )
        done += m
    resampled = np.concatenate(resampled)
    return delta, int(np.sum(resampled > 2.0 * delta)) / n_resamples, resampled
