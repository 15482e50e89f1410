"""Span scoring, exact CKY decoding, and the structured margin loss.

A sentence's spans are scored in one batch: the fencepost difference
r(a, b) = fencepost(b) - fencepost(a) feeds a two-layer network producing
one score per constituent label.  The first layer is linear in r(a, b), so it
is applied to the T + 1 fenceposts before the difference is taken: a matmul
over T + 1 rows instead of one over all T(T + 1)/2 spans.  Its layer norm
takes each span's mean and variance from statistics of those T + 1 rows
(``autograd.span_hidden``), so the only per-span work is forming, normalizing
and rectifying the span rows in the tape dtype.  The empty label
(index 0) is pinned to score 0; it marks chart cells that vanish when the
binarized tree is reassembled into an n-ary one.  Decoding maximizes the additive span score
exactly; training minimizes a hinge against the cost-augmented argmax.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from ._kernels import cky_fill
from .errors import CrossingSpanError, DataError
from .treebank import EMPTY_LABEL, LabeledSpan, spans_to_tree

HAMMING_COST = 1.0


@dataclass
class SpanScores:
    """Dense label scores over fencepost pairs plus the differentiable rows.

    ``dense[a, b, l]`` is meaningful for a < b; the empty-label column is
    identically 0.  ``matrix`` holds the same scores as a tape Var of shape
    [n_spans, n_labels] for gradient flow (None for detached score tensors),
    with ``row_of[a, b]`` its row for a < b (an int array of shape [T+1, T+1]).
    """

    dense: np.ndarray
    vocab: object
    n_words: int
    matrix: ag.Var | None = None
    row_of: np.ndarray | None = None

    @property
    def n_labels(self):
        return self.dense.shape[2]


def span_index(n_words):
    """(starts, ends) of all spans 0 <= a < b <= T in lexicographic order,
    plus ``row_of`` with ``row_of[starts, ends] = arange(len(starts))``."""
    starts, ends = np.triu_indices(n_words + 1, 1)
    row_of = np.full((n_words + 1, n_words + 1), -1, dtype=np.int64)
    row_of[starts, ends] = np.arange(len(starts))
    return starts, ends, row_of


class SpanScorer:
    """Two-layer feed-forward from span representations to label scores."""

    def __init__(self, d_in, n_labels, hidden=256, rng=None, dtype=np.float32):
        rng = rng or np.random.default_rng(0)
        dt = np.dtype(dtype)
        scale1 = np.sqrt(2.0 / (d_in + hidden))
        scale2 = np.sqrt(2.0 / (hidden + n_labels))
        self.w1 = ag.Parameter(
            "span.w1", (rng.standard_normal((d_in, hidden)) * scale1).astype(dt)
        )
        self.b1 = ag.Parameter("span.b1", np.zeros(hidden, dtype=dt))
        self.ln_gain = ag.Parameter("span.ln_gain", np.ones(hidden, dtype=dt))
        self.ln_bias = ag.Parameter("span.ln_bias", np.zeros(hidden, dtype=dt))
        self.w2 = ag.Parameter(
            "span.w2", (rng.standard_normal((hidden, n_labels)) * scale2).astype(dt)
        )
        self.b2 = ag.Parameter("span.b2", np.zeros(n_labels, dtype=dt))
        self.n_labels = n_labels

    def parameters(self):
        yield from (self.w1, self.b1, self.ln_gain, self.ln_bias, self.w2, self.b2)


def score_spans(tape, encoded, scorer, vocab):
    """Score every span of an encoded sentence: returns SpanScores."""
    T = encoded.n_words
    starts, ends, row_of = span_index(T)
    proj = ag.matmul(encoded.fenceposts, tape.watch(scorer.w1))
    h = ag.span_hidden(
        proj,
        tape.watch(scorer.b1),
        tape.watch(scorer.ln_gain),
        tape.watch(scorer.ln_bias),
    )
    matrix = ag.add_bias(ag.matmul(h, tape.watch(scorer.w2)), tape.watch(scorer.b2))

    n_labels = scorer.n_labels
    dense = np.zeros((T + 1, T + 1, n_labels), dtype=np.float64)
    vals = matrix.value.astype(np.float64)
    dense[starts, ends] = vals
    dense[:, :, 0] = 0.0
    return SpanScores(
        dense=dense,
        vocab=vocab,
        n_words=T,
        matrix=matrix,
        row_of=row_of,
    )


@dataclass
class DecodedTree:
    tree: object
    total_score: float


def _decode_cells(dense):
    """Argmax tree cells for a dense score tensor; root label forced non-empty."""
    n = dense.shape[0]
    T = n - 1
    label_best = dense.max(axis=2)
    label_arg = dense.argmax(axis=2)
    best, split = cky_fill(label_best)

    root_arg = int(dense[0, T, 1:].argmax()) + 1
    root_score = dense[0, T, root_arg]
    total = root_score + (best[0, T] - label_best[0, T])

    cells = []
    stack = [(0, T)]
    while stack:
        a, b = stack.pop()
        if (a, b) == (0, T):
            li = root_arg
        else:
            li = int(label_arg[a, b])
        cells.append((a, b, li))
        if b - a > 1:
            k = int(split[a, b])
            stack.append((k, b))
            stack.append((a, k))
    cells.sort()
    return cells, float(total)


def cky_decode(scores, leaves):
    """Exact best tree under additive span scores.

    Ties break toward the lowest label index, then the smallest split point.
    Cells assigned the empty label vanish on reconstruction; unary chains
    collapsed in composite labels are expanded back.
    """
    T = scores.dense.shape[0] - 1
    if T < 1 or len(leaves) != T:
        raise DataError(f"scores cover {T} words but {len(leaves)} leaves given")
    cells, total = _decode_cells(scores.dense)
    spans = []
    for a, b, li in cells:
        label = scores.vocab.value(li)
        if li != 0 and label != EMPTY_LABEL:
            spans.append(LabeledSpan(a, b, label))
    return DecodedTree(tree=spans_to_tree(spans, leaves), total_score=total)


def _check_gold_spans(gold_spans, T):
    spans = sorted(gold_spans, key=lambda s: (s.a, -s.b))
    for s in spans:
        if not (0 <= s.a < s.b <= T):
            raise DataError(f"gold span {s} out of range for T={T}")
        if s.label == EMPTY_LABEL:
            raise DataError(f"gold span {s} carries the empty label")
    for i, s in enumerate(spans):
        for t in spans[i + 1 :]:
            if t.a >= s.b:
                break
            if s.a < t.a < s.b < t.b:
                raise CrossingSpanError((s.a, s.b), (t.a, t.b))
    return spans


@dataclass
class MarginInfo:
    loss: float
    delta: float
    correct: bool


def margin_loss(scores, gold_spans):
    """Structured hinge against the cost-augmented argmax tree.

    Every (span, label) chart entry pays cost 1 unless it matches the gold
    assignment, where a span absent from the gold tree counts the empty
    label as gold.  The loss is scored-margin violation of the augmented
    argmax; it is 0 exactly when the gold tree wins by the margin.
    Returns (loss Var on the scoring tape, MarginInfo).
    """
    if scores.matrix is None:
        raise DataError("margin_loss needs span scores attached to a tape")
    T = scores.n_words
    vocab = scores.vocab
    gold = _check_gold_spans(gold_spans, T)
    gold_idx = {(s.a, s.b): vocab.index(s.label) for s in gold}

    n_labels = scores.n_labels
    augment = np.full((T + 1, T + 1, n_labels), HAMMING_COST, dtype=np.float64)
    augment[:, :, 0] = 0.0
    for (a, b), li in gold_idx.items():
        augment[a, b, 0] = HAMMING_COST
        augment[a, b, li] = 0.0

    cells, _ = _decode_cells(scores.dense + augment)
    pred_raw = sum(scores.dense[a, b, li] for a, b, li in cells if li != 0)
    delta = sum(augment[a, b, li] for a, b, li in cells)
    gold_raw = sum(scores.dense[a, b, li] for (a, b), li in gold_idx.items())
    loss_value = pred_raw + delta - gold_raw

    gold_cells = {(a, b, li) for (a, b), li in gold_idx.items()}
    pred_nonempty = {(a, b, li) for a, b, li in cells if li != 0}
    correct = pred_nonempty == gold_cells
    info = MarginInfo(
        loss=max(0.0, float(loss_value)),
        delta=float(delta),
        correct=correct,
    )
    tape = scores.matrix.tape
    if correct or loss_value <= 0.0:
        return tape.constant(0.0), info

    rows, cols = [], []
    for a, b, li in sorted(pred_nonempty - gold_cells):
        rows.append(scores.row_of[(a, b)])
        cols.append(li)
    pos = ag.gather_sum(scores.matrix, rows, cols) if rows else tape.constant(0.0)
    rows, cols = [], []
    for a, b, li in sorted(gold_cells - pred_nonempty):
        rows.append(scores.row_of[(a, b)])
        cols.append(li)
    neg = ag.gather_sum(scores.matrix, rows, cols) if rows else tape.constant(0.0)
    loss_var = ag.add(ag.sub(pos, neg), tape.constant(float(delta)))
    return loss_var, info


def tree_score(scores, spans):
    """Sum of dense scores over the given non-empty labeled spans."""
    total = 0.0
    for s in spans:
        total += scores.dense[s.a, s.b, scores.vocab.index(s.label)]
    return float(total)
