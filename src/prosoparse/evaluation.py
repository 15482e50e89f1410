"""Parseval bracket scoring, paired-bootstrap significance, and breakdowns.

Bracket counting follows EVALB conventions: every internal node is one
labeled bracket (unary chain members count separately), preterminal tags
are excluded, and scores are micro-averaged over the corpus.  Punctuation
deletion is off by default (speech-style input has none left) and
available behind a flag for written-text evaluation.  Breakdowns cover
fluent/disfluent sentences (from the gold trees) and length buckets
[0,5], [6,10], [11,inf).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AlignmentError, DataError
from .treebank import bracket_multiset, classify_fluency, sentence_of, strip_punctuation

LENGTH_BUCKETS = (("[0,5]", 0, 5), ("[6,10]", 6, 10), ("[11,-]", 11, None))


@dataclass
class BucketReport:
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


@dataclass
class EvalReport:
    overall: BucketReport = field(default_factory=BucketReport)
    fluency: dict = field(default_factory=dict)
    length: dict = field(default_factory=dict)

    @property
    def f1(self):
        return self.overall.f1


@dataclass
class SignificanceResult:
    observed_delta: float
    p_value: float
    n_resamples: int


def length_bucket(n_words):
    for name, lo, hi in LENGTH_BUCKETS:
        if n_words >= lo and (hi is None or n_words <= hi):
            return name
    raise AssertionError("length buckets must partition the integers")


def _sentence_counts(gold_tree, pred_tree, index, delete_punctuation):
    gold_words = [w.lower() for w, _ in sentence_of(gold_tree)]
    pred_words = [w.lower() for w, _ in sentence_of(pred_tree)]
    if gold_words != pred_words:
        raise AlignmentError(
            f"sentence {index}: predicted words do not match gold "
            f"({pred_words} vs {gold_words})"
        )
    gold_brackets = bracket_multiset(gold_tree, ignore_punctuation=delete_punctuation)
    pred_brackets = bracket_multiset(pred_tree, ignore_punctuation=delete_punctuation)
    matched = sum(
        min(count, pred_brackets.get(key, 0)) for key, count in gold_brackets.items()
    )
    return matched, sum(gold_brackets.values()), sum(pred_brackets.values())


def parseval(gold_trees, pred_trees, delete_punctuation=False):
    """Micro-averaged labeled P/R/F1 with fluency and length breakdowns."""
    gold_trees = list(gold_trees)
    pred_trees = list(pred_trees)
    if len(gold_trees) != len(pred_trees):
        raise DataError(
            f"{len(gold_trees)} gold trees but {len(pred_trees)} predictions"
        )
    report = EvalReport()
    for name, _, _ in LENGTH_BUCKETS:
        report.length[name] = BucketReport()
    for name in ("fluent", "disfluent"):
        report.fluency[name] = BucketReport()

    for i, (gold, pred) in enumerate(zip(gold_trees, pred_trees)):
        matched, n_gold, n_pred = _sentence_counts(gold, pred, i, delete_punctuation)
        exact = matched == n_gold == n_pred
        scored = strip_punctuation(gold) if delete_punctuation else gold
        n_words = sum(1 for _ in scored.leaves())
        report.overall.add(matched, n_gold, n_pred, exact)
        report.fluency[classify_fluency(gold)].add(matched, n_gold, n_pred, exact)
        report.length[length_bucket(n_words)].add(matched, n_gold, n_pred, exact)
    return report


def paired_bootstrap(gold_trees, pred_a, pred_b, n_resamples=10000, seed=0,
                     delete_punctuation=False):
    """Paired bootstrap over sentences for the F1 difference of two systems.

    delta = F1(A) - F1(B) on the full set.  Each resample redraws sentences
    with replacement and recomputes micro-averaged F1 from the resampled
    bracket counts; the p-value is the fraction of resamples whose delta
    exceeds twice the observed one.  System A is the putatively better one.
    """
    if n_resamples < 1:
        raise DataError(f"n_resamples must be >= 1, got {n_resamples}")
    gold_trees = list(gold_trees)
    pred_a = list(pred_a)
    pred_b = list(pred_b)
    if not (len(gold_trees) == len(pred_a) == len(pred_b)):
        raise DataError("gold and both prediction sets must align one-to-one")
    n = len(gold_trees)
    if n == 0:
        raise DataError("cannot bootstrap an empty test set")

    counts = np.zeros((n, 5), dtype=np.int64)  # mA, pA, mB, pB, gold
    for i, (g, a, b) in enumerate(zip(gold_trees, pred_a, pred_b)):
        ma, ng, na = _sentence_counts(g, a, i, delete_punctuation)
        mb, ng2, nb = _sentence_counts(g, b, i, delete_punctuation)
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
    exceed = 0
    chunk = max(1, min(n_resamples, 2_000_000 // max(n, 1)))
    done = 0
    while done < n_resamples:
        m = min(chunk, n_resamples - done)
        idx = rng.integers(0, n, size=(m, n))
        sums = counts[idx].sum(axis=1).astype(np.float64)  # [m, 5]
        f1_a = micro_f1(sums[:, 0], sums[:, 1], sums[:, 4])
        f1_b = micro_f1(sums[:, 2], sums[:, 3], sums[:, 4])
        exceed += int(np.sum((f1_a - f1_b) > 2.0 * delta))
        done += m
    return SignificanceResult(
        observed_delta=delta, p_value=exceed / n_resamples, n_resamples=n_resamples
    )


def significance_marker(p_value):
    """Footnote marker for a p-value: '*' below 0.02, a dagger below 0.05."""
    if p_value < 0.02:
        return "*"
    if p_value < 0.05:
        return "†"
    return ""


# ----------------------------------------------------------------------
# report formatting

_BUCKET_COLS = ("P", "R", "F1", "match", "gold", "pred", "sents", "exact")


def _bucket_row(name, b):
    return [
        name,
        f"{b.precision:.2f}",
        f"{b.recall:.2f}",
        f"{b.f1:.2f}",
        str(b.matched),
        str(b.gold),
        str(b.predicted),
        str(b.n_sentences),
        str(b.exact_match),
    ]


def report_rows(report):
    rows = [["subset", *_BUCKET_COLS]]
    rows.append(_bucket_row("all", report.overall))
    for name in ("disfluent", "fluent"):
        rows.append(_bucket_row(name, report.fluency[name]))
    for name, _, _ in LENGTH_BUCKETS:
        rows.append(_bucket_row(f"len {name}", report.length[name]))
    return rows


def format_delimited(rows):
    return "\n".join("\t".join(row) for row in rows) + "\n"


def format_aligned(rows):
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = []
    for row in rows:
        lines.append(
            "  ".join(cell.ljust(w) if i == 0 else cell.rjust(w)
                      for i, (cell, w) in enumerate(zip(row, widths))).rstrip()
        )
    return "\n".join(lines) + "\n"
