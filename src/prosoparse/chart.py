"""Span scoring, exact CKY decoding, and the structured margin loss.

A length bucket's spans are scored in one batch: the fencepost difference
r(a, b) = fencepost(b) - fencepost(a) of each sentence feeds a two-layer
network producing one score per constituent label.  The first layer is
linear in r(a, b), so it is applied to the bucket's packed fenceposts
(T + 1 rows per sentence) before the difference is taken: one matmul over
those rows instead of one over all the spans.  One op,
``autograd.span_scores``, does the rest: it takes each span's layer-norm
mean and variance from statistics of its sentence's fenceposts, and forms,
normalizes and rectifies the span rows and multiplies them by the second
layer a block of rows at a time, giving one [spans, labels] score matrix
holding each sentence's spans in turn.  One decoder serves parsing and
the margin loss: it takes the label max over all of a bucket's rows at
once, fills the bucket's charts in one call over a zero-padded stack,
backtracks each sentence's tree and labels all the trees' cells at once.
A cell reads only cells inside its own span, so padding leaves a chart's
bits as they are when it is filled alone.  The margin loss decodes the
bucket with its Hamming costs added, from one gold-label vector and one
cost matrix; each sentence's hinge, Hamming cost and correctness come
from array ops over the whole bucket, and only the backtrack and the
gold-span check run sentence by sentence.  The bucket's losses are one
signed gather over the matrix.  The empty label (index 0) scores 0
whatever its matrix column holds; it marks chart cells that vanish when
the binarized tree is reassembled into an n-ary one.  Decoding maximizes
the additive span score exactly; training minimizes a hinge against the
cost-augmented argmax.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from ._kernels import cky_fill
from .errors import CrossingSpanError, DataError, NumericError
from .treebank import EMPTY_LABEL, LabeledSpan, spans_to_tree

HAMMING_COST = 1.0


@dataclass
class SpanScores:
    """Label scores of every span of one or more sentences, as rows of a tape
    Var.

    The sentences have ``lengths`` words.  Their spans are the rows of
    ``matrix`` ([rows, n_labels]), one sentence after another, each
    sentence's T(T+1)/2 spans in span order (by start, then end; see
    ``span_row``).  Column 0, the empty label's, is never read: the empty
    label scores 0, plus its Hamming cost in the margin loss.
    """

    vocab: object
    matrix: ag.Var
    lengths: list

    @property
    def n_words(self):
        """The fencepost rows of the sentences, packed, minus one: a lone
        sentence's word count."""
        return sum(self.lengths) + len(self.lengths) - 1

    @property
    def n_labels(self):
        return self.matrix.value.shape[1]

    @property
    def dense(self):
        """The scores as a read-only float64 [n_words+1, n_words+1, n_labels]
        tensor over the packed fencepost rows, built on each read: block
        diagonal, one [T+1, T+1] block per sentence, whose cell [a, b] is
        meaningful for a < b.  The empty-label column is 0.
        ``perfbench/run.py`` reads it; nothing in the package does."""
        R = self.n_words + 1
        dense = np.zeros((R, R, self.n_labels), dtype=np.float64)
        dense[ag.span_pairs([T + 1 for T in self.lengths])] = self.matrix.value
        dense[:, :, 0] = 0.0
        dense.flags.writeable = False
        return dense


def span_row(T, a, b):
    """The row of span a < b among the spans of a T-word sentence in span
    order: a*T - a*(a-1)/2 + b - a - 1, since the T - a' spans of each start
    a' < a come first."""
    return a * (2 * T - 1 - a) // 2 + b - 1


class SpanScorer:
    """Two-layer feed-forward from span representations to label scores;
    ``init`` (an ``autograd.Init``) makes its parameters."""

    def __init__(self, d_in, n_labels, hidden, init):
        self.w1 = init.xavier("span.w1", d_in, hidden)
        self.b1 = init("span.b1", (hidden,), 0.0)
        self.ln_gain = init("span.ln_gain", (hidden,), 1.0)
        self.ln_bias = init("span.ln_bias", (hidden,), 0.0)
        self.w2 = init.xavier("span.w2", hidden, n_labels)
        self.b2 = init("span.b2", (n_labels,), 0.0)
        self.n_labels = n_labels


def score_spans(tape, fenceposts, scorer, vocab, lengths):
    """Score every span of a bucket's sentences: returns SpanScores.

    fenceposts: the packed fencepost Var of sentences of ``lengths`` words,
    T + 1 rows per sentence.  One scorer matmul and one ``span_scores`` op
    cover the bucket.
    """
    proj = ag.matmul(fenceposts, tape.watch(scorer.w1))
    layer = (scorer.b1, scorer.ln_gain, scorer.ln_bias, scorer.w2, scorer.b2)
    matrix = ag.span_scores(
        proj, *(tape.watch(p) for p in layer), [T + 1 for T in lengths]
    )
    return SpanScores(vocab=vocab, matrix=matrix, lengths=list(lengths))


@dataclass
class DecodedTree:
    tree: object
    total_score: float


def _decode(rows, empty, lengths):
    """Argmax tree of each sentence of a bucket; root label forced non-empty.

    rows: [spans, n_labels] score rows of sentences of ``lengths`` words,
    column 0 unread; empty: the empty label's score, one per row or one for
    all.  The empty label wins a tie with the best other label.  Returns
    (spans, at, labels, totals): each sentence's tree spans [(a, b)] in span
    order; the bucket rows of the trees' cells, one tree after another (a
    tree over T words has 2T - 1 cells), and their labels; and the trees'
    total scores.  The bucket's charts are filled as one zero-padded stack,
    and only the trees' cells look for their best label.
    """
    if 0 in lengths:
        raise DataError(f"sentences of {list(lengths)} words: a sentence has no words")
    best = rows[:, 1:].max(axis=1)
    empty_wins = empty >= best
    fence = np.arange(max(lengths) + 1)
    label_best = np.zeros((len(lengths), len(fence), len(fence)), dtype=np.float64)
    # a chart's cells a < b <= T in row-major order are its spans in row order
    cells = (fence[:, None] < fence) & (fence <= np.array(lengths)[:, None, None])
    label_best[cells] = np.where(empty_wins, empty, best)
    chart_best, split = cky_fill(label_best)

    spans, at, roots, lo = [], [], [], 0
    for i, T in enumerate(lengths):
        tree = []
        stack = [(0, T)]
        while stack:
            a, b = stack.pop()
            tree.append((a, b))
            if b - a > 1:
                k = int(split[i, a, b])
                stack += [(k, b), (a, k)]
        tree.sort()
        spans.append(tree)
        at += [lo + span_row(T, a, b) for a, b in tree]
        roots.append(lo + T - 1)
        lo += T * (T + 1) // 2
    sent = np.arange(len(lengths))
    # an infinite root gives inf - inf = NaN, which cky_decode reports
    with np.errstate(invalid="ignore"):
        totals = best[roots] + (chart_best[sent, 0, lengths] - label_best[sent, 0, lengths])
    at = np.array(at)
    labels = rows[at, 1:].argmax(axis=1) + 1
    empty_wins[roots] = False
    labels[empty_wins[at]] = 0
    return spans, at, labels, totals


def cky_decode(scores, leaves):
    """Exact best tree of each sentence of a bucket: [DecodedTree].

    leaves: each sentence's (word, tag) leaves.  Ties break toward the empty
    label, then the lowest label index, then the smallest split point.  Cells
    assigned the empty label vanish on reconstruction; unary chains collapsed
    in composite labels are expanded back.  A tree whose total score is not
    finite raises NumericError.
    """
    if [len(x) for x in leaves] != list(scores.lengths):
        raise DataError(
            f"scores cover sentences of {scores.lengths} words but "
            f"{[len(x) for x in leaves]} leaves given"
        )
    vocab = scores.vocab
    spans, _, labels, totals = _decode(scores.matrix.value, 0.0, scores.lengths)
    bad = np.flatnonzero(~np.isfinite(totals))
    if len(bad):
        raise NumericError(f"sentence {bad[0]} of the bucket: best tree scores {totals[bad[0]]}")
    labels = iter(labels.tolist())
    decoded = []
    for tree, total, sent_leaves in zip(spans, totals.tolist(), leaves):
        # zip draws from ``tree`` first, so it takes only this tree's labels
        cells = [
            LabeledSpan(a, b, vocab.value(li)) for (a, b), li in zip(tree, labels) if li != 0
        ]
        decoded.append(DecodedTree(tree=spans_to_tree(cells, sent_leaves), total_score=total))
    return decoded


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


def margin_loss(scores, golds):
    """Structured hinge against the cost-augmented argmax tree, summed over
    a bucket's sentences.

    Every (span, label) chart entry pays cost 1 unless it matches the gold
    assignment, where a span absent from the gold tree counts the empty
    label as gold.  A sentence's loss is the scored-margin violation of its
    augmented argmax; it is 0 exactly when the gold tree wins by the margin.
    golds: each sentence's gold spans.  Returns (loss Var on the scoring
    tape, [MarginInfo]): one signed gather of the predicted-only (+1) and
    gold-only (-1) cells of each sentence with a positive loss, plus their
    Hamming costs; a constant 0 when there is none.
    """
    lengths = scores.lengths
    if len(golds) != len(lengths):
        raise DataError(f"{len(golds)} gold trees for {len(lengths)} sentences")
    rows = scores.matrix.value.astype(np.float64)
    gold_at, gold_labels, lo = [], [], 0
    for T, gold_spans in zip(lengths, golds):
        gold = _check_gold_spans(gold_spans, T)
        gold_at += [lo + span_row(T, s.a, s.b) for s in gold]
        gold_labels += [scores.vocab.index(s.label) for s in gold]
        lo += T * (T + 1) // 2
    gold_at = np.array(gold_at, dtype=np.int64)
    gold_label = np.zeros(len(rows), dtype=np.int64)
    gold_label[gold_at] = gold_labels
    cost = np.full(rows.shape, HAMMING_COST)
    cost[np.arange(len(rows)), gold_label] = 0.0
    _, at, labels, _ = _decode(rows + cost, cost[:, 0], lengths)
    pred_label = np.zeros_like(gold_label)
    pred_label[at] = labels

    # each row's sentence; bincount adds in index order, so each sentence's
    # scores are summed left to right
    n = len(lengths)
    owner = np.repeat(np.arange(n), [T * (T + 1) // 2 for T in lengths])
    pred_at = at[labels != 0]
    pred_raw = np.bincount(owner[pred_at], rows[pred_at, pred_label[pred_at]], n)
    delta = np.bincount(owner[at], cost[at, labels], n)
    loss = pred_raw + delta - np.bincount(owner[gold_at], rows[gold_at, gold_label[gold_at]], n)
    wrong = pred_label != gold_label
    correct = np.bincount(owner, wrong, n) == 0
    # a NaN loss stays NaN and live, so that training sees it diverge
    hinge = np.where(loss <= 0.0, 0.0, loss)
    live = ~(correct | (loss <= 0.0))
    infos = list(map(MarginInfo, hinge.tolist(), delta.tolist(), correct.tolist()))
    # sentences' cells are disjoint, and so are each one's two trees', so
    # each cell's gradient is +-seed
    tape = scores.matrix.tape
    if not live.any():
        return tape.constant(0.0), infos
    wrong &= live[owner]
    pred_only = np.flatnonzero(wrong & (pred_label != 0))
    gold_only = np.flatnonzero(wrong & (gold_label != 0))
    scored = ag.gather_sum(
        scores.matrix,
        np.concatenate([pred_only, gold_only]),
        np.concatenate([pred_label[pred_only], gold_label[gold_only]]),
        np.repeat([1.0, -1.0], [len(pred_only), len(gold_only)]),
    )
    # the costs are whole numbers, so their sum is exact in any order
    return ag.add(scored, tape.constant(float(delta[live].sum()))), infos
