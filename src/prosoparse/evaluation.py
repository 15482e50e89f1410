"""Parseval bracket scoring, paired-bootstrap significance, and breakdowns.

Bracket counting follows EVALB conventions: every internal node is one
labeled bracket (unary chain members count separately), preterminal tags
are excluded, and scores are micro-averaged over the corpus.  Punctuation
deletion is off by default (speech-style input has none left) and
available behind a flag for written-text evaluation.  Breakdowns cover
fluent/disfluent sentences (from the gold trees) and length buckets
[0,5], [6,10], [11,inf).  Each sentence's brackets are counted once, into
one table; reports sum its rows, the bootstrap resamples them, and both
score counts with ``prf``, so the bootstrap's observed delta is exactly
the difference of the two systems' ``parseval`` F1 scores.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field

import numpy as np

from .errors import AlignmentError, DataError
from .treebank import (
    PUNCT_TAGS,
    bracket_multiset,
    classify_fluency,
    sentence_of,
    strip_punctuation,
)

LENGTH_BUCKETS = (("[0,5]", 0, 5), ("[6,10]", 6, 10), ("[11,-]", 11, None))


def prf(matched, gold, predicted):
    """Precision, recall and F1 in percent from bracket counts, for scalars
    or elementwise over arrays; a zero denominator scores 0."""
    m, g, p = (np.asarray(x, dtype=np.float64) for x in (matched, gold, predicted))
    with np.errstate(divide="ignore", invalid="ignore"):
        precision = np.where(p > 0, 100.0 * m / p, 0.0)
        recall = np.where(g > 0, 100.0 * m / g, 0.0)
        total = precision + recall
        return precision, recall, np.where(total > 0, 2 * precision * recall / total, 0.0)


@dataclass
class BucketReport:
    matched: int = 0
    gold: int = 0
    predicted: int = 0
    n_sentences: int = 0
    exact_match: int = 0

    @classmethod
    def of(cls, counts):
        """The report of sentences' (matched, gold, predicted) count rows."""
        exact = (counts[:, 0] == counts[:, 1]) & (counts[:, 1] == counts[:, 2])
        return cls(*counts.sum(axis=0).tolist(), len(counts), int(exact.sum()))

    precision = property(lambda self: float(prf(self.matched, self.gold, self.predicted)[0]))
    recall = property(lambda self: float(prf(self.matched, self.gold, self.predicted)[1]))
    f1 = property(lambda self: float(prf(self.matched, self.gold, self.predicted)[2]))


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
    return next(name for name, lo, _ in reversed(LENGTH_BUCKETS) if n_words >= lo)


def _count_table(gold_trees, systems, delete_punctuation):
    """Each sentence's bracket counts against its gold tree.

    systems: lists of predicted trees, each aligned with ``gold_trees``.
    Returns the [sentences, systems, 3] int32 table of (matched, gold,
    predicted) counts (int32 halves what a bootstrap resample gathers), and
    each sentence's fluency class and length bucket (of its gold tree).
    """
    gold_trees, systems = list(gold_trees), [list(preds) for preds in systems]
    for preds in systems:
        if len(preds) != len(gold_trees):
            raise DataError(f"{len(gold_trees)} gold trees but {len(preds)} predictions")
    rows, groups = [], []
    for i, (gold, *preds) in enumerate(zip(gold_trees, *systems)):
        leaves = sentence_of(gold)
        words = [w.lower() for w, _ in leaves]
        for pred in preds:
            pred_words = [w.lower() for w, _ in sentence_of(pred)]
            if pred_words != words:
                raise AlignmentError(
                    f"sentence {i}: predicted words do not match gold "
                    f"({pred_words} vs {words})"
                )
        fluency = classify_fluency(gold)
        if delete_punctuation:
            gold, preds = strip_punctuation(gold), [strip_punctuation(p) for p in preds]
            leaves = [(w, tag) for w, tag in leaves if tag not in PUNCT_TAGS]
        groups.append((fluency, length_bucket(len(leaves))))
        gold_brackets = bracket_multiset(gold)
        for pred in preds:
            pred_brackets = bracket_multiset(pred)
            matched = sum(
                min(count, pred_brackets.get(key, 0)) for key, count in gold_brackets.items()
            )
            rows.append((matched, sum(gold_brackets.values()), sum(pred_brackets.values())))
    counts = np.array(rows, dtype=np.int32).reshape(len(gold_trees), len(systems), 3)
    return counts, np.array(groups, dtype=object).reshape(-1, 2)


def parseval(gold_trees, pred_trees, delete_punctuation=False):
    """Micro-averaged labeled P/R/F1 with fluency and length breakdowns."""
    counts, groups = _count_table(gold_trees, [pred_trees], delete_punctuation)
    counts = counts[:, 0]
    return EvalReport(
        overall=BucketReport.of(counts),
        fluency={name: BucketReport.of(counts[groups[:, 0] == name])
                 for name in ("fluent", "disfluent")},
        length={name: BucketReport.of(counts[groups[:, 1] == name])
                for name, _, _ in LENGTH_BUCKETS},
    )


def paired_bootstrap(gold_trees, pred_a, pred_b, n_resamples=10000, seed=0,
                     delete_punctuation=False):
    """Paired bootstrap over sentences for the F1 difference of two systems.

    delta = F1(A) - F1(B) on the full set, each as ``parseval`` scores it.
    Each resample redraws sentences with replacement and recomputes
    micro-averaged F1 from the resampled bracket counts; the p-value is the
    fraction of resamples whose delta exceeds twice the observed one.
    System A is the putatively better one.
    """
    if n_resamples < 1:
        raise DataError(f"n_resamples must be >= 1, got {n_resamples}")
    counts = _count_table(gold_trees, [pred_a, pred_b], delete_punctuation)[0]
    n = len(counts)
    if n == 0:
        raise DataError("cannot bootstrap an empty test set")

    def delta(sums):  # [..., 2 systems, 3 counts] -> F1(A) - F1(B)
        f1 = prf(sums[..., 0], sums[..., 1], sums[..., 2])[2]
        return f1[..., 0] - f1[..., 1]

    observed = float(delta(counts.sum(axis=0)))
    rng = np.random.default_rng(seed)
    exceed = 0
    chunk = max(1, min(n_resamples, 2_000_000 // n))
    for done in range(0, n_resamples, chunk):
        idx = rng.integers(0, n, size=(min(chunk, n_resamples - done), n))
        exceed += int(np.sum(delta(counts[idx].sum(axis=1)) > 2.0 * observed))
    return SignificanceResult(observed, exceed / n_resamples, n_resamples)


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
    # the report's fields, in order, are the count columns
    return [name, *(f"{x:.2f}" for x in (b.precision, b.recall, b.f1)), *map(str, astuple(b))]


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
