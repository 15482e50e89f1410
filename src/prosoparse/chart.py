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
holding each sentence's spans in turn.  Decoding reads one sentence's rows
of that matrix through its row offset; the margin loss decodes each
sentence that way and sums the bucket's losses in one signed gather over
the matrix.  The empty label
(index 0) scores 0 whatever its matrix column holds; it marks chart cells
that vanish when the binarized tree is reassembled into an n-ary one.
Decoding maximizes the additive span score exactly; training minimizes a
hinge against the cost-augmented argmax.
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
    """Label scores of every span of one or more sentences, as rows of a tape
    Var.

    The sentences have ``lengths`` words.  Their spans are the rows of
    ``matrix`` ([rows, n_labels]) from row ``offset`` on, one sentence after
    another, each sentence's T(T+1)/2 spans in span order (by start, then end;
    see ``span_rows``).  ``sentences()`` gives each sentence's SpanScores, a
    view of the same matrix at that sentence's offset.  Column 0, the empty
    label's, is never read: the empty label scores 0, plus its Hamming cost
    in the margin loss.
    """

    vocab: object
    matrix: ag.Var
    lengths: list
    offset: int = 0

    @property
    def n_words(self):
        """The fencepost rows of the sentences, packed, minus one: a lone
        sentence's word count."""
        return sum(self.lengths) + len(self.lengths) - 1

    @property
    def n_labels(self):
        return self.matrix.value.shape[1]

    @property
    def rows(self):
        """The sentences' score rows, a view of the matrix."""
        n = sum(T * (T + 1) // 2 for T in self.lengths)
        return self.matrix.value[self.offset : self.offset + n]

    def sentences(self):
        """Each sentence's SpanScores, in order."""
        offset = self.offset
        for T in self.lengths:
            yield SpanScores(self.vocab, self.matrix, [T], offset)
            offset += T * (T + 1) // 2

    @property
    def dense(self):
        """The scores as a read-only float64 [n_words+1, n_words+1, n_labels]
        tensor over the packed fencepost rows, built on each read: block
        diagonal, one [T+1, T+1] block per sentence, whose cell [a, b] is
        meaningful for a < b.  The empty-label column is 0.
        ``perfbench/run.py`` reads it; nothing in the package does."""
        R = self.n_words + 1
        dense = np.zeros((R, R, self.n_labels), dtype=np.float64)
        dense[ag.span_pairs([T + 1 for T in self.lengths])] = self.rows
        dense[:, :, 0] = 0.0
        dense.flags.writeable = False
        return dense


def span_rows(n_words):
    """``row_of`` of a sentence of T = n_words words: the [T+1, T+1] int array
    whose cell [a, b] is the row of span a < b in span order (by start, then
    end) and -1 where a >= b."""
    row_of = np.full((n_words + 1, n_words + 1), -1)
    starts, ends = ag.span_pairs([n_words + 1])
    row_of[starts, ends] = np.arange(len(starts))
    return row_of


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


def _decode_cells(rows, empty, row_of):
    """Argmax tree cells for per-span label scores; root label forced non-empty.

    rows: [n_spans, n_labels] in ``row_of`` order, column 0 unread; empty:
    the empty label's score, one per span or one for all.  The empty label
    wins a tie with the best other label.  Only the tree's cells look for
    their best label.
    """
    T = row_of.shape[0] - 1
    best = rows[:, 1:].max(axis=1)
    empty_wins = empty >= best
    label_best = np.zeros((T + 1, T + 1), dtype=np.float64)
    # row_of marks the cells a < b, and row-major order is row order
    label_best[row_of >= 0] = np.where(empty_wins, empty, best)
    chart_best, split = cky_fill(label_best)

    spans = []
    stack = [(0, T)]
    while stack:
        a, b = stack.pop()
        spans.append((a, b))
        if b - a > 1:
            k = int(split[a, b])
            stack.append((k, b))
            stack.append((a, k))
    spans.sort()
    root = row_of[0, T]
    at = row_of[tuple(zip(*spans))]
    labels = rows[at, 1:].argmax(axis=1) + 1
    labels[empty_wins[at] & (at != root)] = 0
    cells = [(a, b, li) for (a, b), li in zip(spans, labels.tolist())]
    total = float(best[root]) + (chart_best[0, T] - label_best[0, T])
    return cells, float(total)


def cky_decode(scores, leaves):
    """Exact best tree under additive span scores.

    Ties break toward the empty label, then the lowest label index, then the
    smallest split point.  Cells assigned the empty label vanish on
    reconstruction; unary chains collapsed in composite labels are expanded
    back.
    """
    if len(scores.lengths) != 1:
        raise DataError(f"decoding takes one sentence's scores, got {len(scores.lengths)}")
    T = scores.lengths[0]
    if T < 1 or len(leaves) != T:
        raise DataError(f"scores cover {T} words but {len(leaves)} leaves given")
    cells, total = _decode_cells(scores.rows, 0.0, span_rows(T))
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
    if len(golds) != len(scores.lengths):
        raise DataError(f"{len(golds)} gold trees for {len(scores.lengths)} sentences")
    vocab = scores.vocab
    infos, signed, deltas = [], [], 0.0
    for view, gold_spans in zip(scores.sentences(), golds):
        T = view.lengths[0]
        gold = _check_gold_spans(gold_spans, T)
        gold_idx = {(s.a, s.b): vocab.index(s.label) for s in gold}

        row_of = span_rows(T)
        rows = view.rows.astype(np.float64)
        augmented = rows + HAMMING_COST
        empty = np.zeros(len(rows))
        for (a, b), li in gold_idx.items():
            r = row_of[a, b]
            augmented[r, li] = rows[r, li]
            empty[r] = HAMMING_COST

        cells, _ = _decode_cells(augmented, empty, row_of)
        pred_raw = sum(rows[row_of[a, b], li] for a, b, li in cells if li != 0)
        delta = sum(
            0.0 if li == gold_idx.get((a, b), 0) else HAMMING_COST for a, b, li in cells
        )
        gold_raw = sum(rows[row_of[a, b], li] for (a, b), li in gold_idx.items())
        loss_value = pred_raw + delta - gold_raw

        gold_cells = {(a, b, li) for (a, b), li in gold_idx.items()}
        pred_nonempty = {(a, b, li) for a, b, li in cells if li != 0}
        correct = pred_nonempty == gold_cells
        info = MarginInfo(
            loss=max(0.0, float(loss_value)),
            delta=float(delta),
            correct=correct,
        )
        infos.append(info)
        if correct or loss_value <= 0.0:
            continue
        # sentences' cells are disjoint, and so are each one's two trees',
        # so each cell's gradient is +-seed
        signed += [(view.offset + row_of[a, b], li, 1.0)
                   for a, b, li in sorted(pred_nonempty - gold_cells)]
        signed += [(view.offset + row_of[a, b], li, -1.0)
                   for a, b, li in sorted(gold_cells - pred_nonempty)]
        deltas += delta
    tape = scores.matrix.tape
    if not signed:
        return tape.constant(0.0), infos
    scored = ag.gather_sum(scores.matrix, *zip(*signed))
    return ag.add(scored, tape.constant(deltas)), infos
