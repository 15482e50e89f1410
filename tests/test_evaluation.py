import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import attached_scores, oracle_paired_bootstrap, oracle_parseval
from prosoparse.chart import cky_decode
from prosoparse.errors import AlignmentError, DataError
from prosoparse.evaluation import (
    length_bucket,
    paired_bootstrap,
    parseval,
    report_rows,
    significance_marker,
)
from prosoparse.synthdata import random_tree
from prosoparse.treebank import (
    InternalNode,
    LabeledSpan,
    LabelVocab,
    LeafNode,
    parse_ptb,
    sentence_of,
    spans_to_tree,
    tree_to_spans,
)


def one(text):
    return parse_ptb(text)[0]


GOLD2 = one("(S (NP (PRP i)) (VP (VBP agree)))")


class TestParseval:
    def test_identity_is_hundred(self):
        r = parseval([GOLD2], [GOLD2])
        assert r.f1 == 100.0
        assert r.overall.exact_match == 1

    def test_hand_case_one_bracket_moved(self):
        pred = one("(S (VP (PRP i) (VP (VBP agree))))")
        r = parseval([GOLD2], [pred])
        # gold {S(0,2), NP(0,1), VP(1,2)}; pred {S(0,2), VP(0,2), VP(1,2)}
        assert (r.overall.matched, r.overall.gold, r.overall.predicted) == (2, 3, 3)
        assert r.f1 == pytest.approx(66.67, abs=0.01)

    def test_hand_case_unary_chain_counts_twice(self):
        gold = one("(S (NP (NN dog)))")
        pred = one("(S (NN dog))")
        r = parseval([gold], [pred])
        assert (r.overall.matched, r.overall.gold, r.overall.predicted) == (1, 2, 1)
        assert r.overall.precision == 100.0
        assert r.overall.recall == 50.0
        assert r.f1 == pytest.approx(66.67, abs=0.01)

    def test_hand_case_top_wrapper_excluded(self):
        gold = one("(TOP (S (NP (DT a) (NN dog)) (VP (VBZ runs))))")
        pred = one("(S (NP (DT a) (NN dog)) (VP (VBZ runs)))")
        r = parseval([gold], [pred])
        assert r.f1 == 100.0
        assert r.overall.gold == 3  # S, NP, VP; no TOP bracket

    def test_hand_case_micro_average(self):
        gold = [
            one("(S (NP (DT a) (NN dog)) (VP (VBZ runs)))"),
            one("(S (NP (NN cat)) (VP (VBZ sleeps)))"),
        ]
        pred = [
            gold[0],
            one("(S (NP (NN cat)) (VBZ sleeps))"),  # VP bracket missing
        ]
        r = parseval(gold, pred)
        assert (r.overall.matched, r.overall.gold, r.overall.predicted) == (5, 6, 5)
        # P = 5/5, R = 5/6 -> F1 = 2*1*(5/6)/(1+5/6)
        assert r.f1 == pytest.approx(90.91, abs=0.01)

    def test_hand_case_punctuation_flag(self):
        gold = one("(S (NP (NN dog)) (, ,) (VP (VBZ runs)))")
        pred = one("(S (NP (NN dog) (, ,)) (VP (VBZ runs)))")
        with_punct = parseval([gold], [pred])
        without = parseval([gold], [pred], delete_punctuation=True)
        assert without.f1 == 100.0
        assert with_punct.f1 < 100.0

    def test_word_mismatch_named(self):
        pred = one("(S (NP (PRP you)) (VP (VBP agree)))")
        with pytest.raises(AlignmentError, match="sentence 0"):
            parseval([GOLD2], [pred])

    def test_count_mismatch(self):
        with pytest.raises(DataError):
            parseval([GOLD2], [GOLD2, GOLD2])

    def test_case_insensitive_words(self):
        pred = one("(S (NP (PRP I)) (VP (VBP AGREE)))")
        assert parseval([GOLD2], [pred]).f1 == 100.0

    def test_random_identity(self):
        rng = np.random.default_rng(2)
        trees = [random_tree(rng, max_words=10) for _ in range(1000)]
        assert parseval(trees, trees).f1 == 100.0

    def test_symmetry_precision_recall(self):
        rng = np.random.default_rng(4)
        vocab = LabelVocab(["S", "NP", "VP"])
        golds, preds = [], []
        for _ in range(50):
            g = random_tree(rng, max_words=8)
            leaves = sentence_of(g)
            T = len(leaves)
            dense = rng.standard_normal((T + 1, T + 1, len(vocab)))
            dense[:, :, 0] = 0
            preds.append(cky_decode(attached_scores(dense, vocab), [leaves])[0].tree)
            golds.append(g)
        fwd = parseval(golds, preds)
        rev = parseval(preds, golds)
        assert fwd.overall.precision == pytest.approx(rev.overall.recall)
        assert fwd.overall.recall == pytest.approx(rev.overall.precision)

    def test_breakdown_partitions(self):
        gold = [
            one("(S (INTJ (UH uh)) (NP (NN cat)))"),  # disfluent, 2 words
            one("(S (NP (DT a) (NN dog)) (VP (VBZ runs)))"),  # fluent, 3 words
            one("(S (NP (NN a1) (NN a2) (NN a3) (NN a4) (NN a5) (NN a6)))"),  # 6 words
        ]
        r = parseval(gold, gold)
        assert r.fluency["disfluent"].n_sentences == 1
        assert r.fluency["fluent"].n_sentences == 2
        assert r.length["[0,5]"].n_sentences == 2
        assert r.length["[6,10]"].n_sentences == 1
        total = sum(b.n_sentences for b in r.fluency.values())
        assert total == r.overall.n_sentences == 3

    def test_length_bucket_scheme(self):
        assert length_bucket(5) == "[0,5]"
        assert length_bucket(6) == "[6,10]"
        assert length_bucket(10) == "[6,10]"
        assert length_bucket(11) == "[11,-]"


# random gold/prediction pairs over the same words: punctuation leaves,
# unary chains and disfluency nodes, and predictions that may tag a word
# differently or change its case

LABELS = st.sampled_from(["S", "NP", "VP", "INTJ", "EDITED"])
WORD_TAGS = st.sampled_from(
    [("a", "NN"), ("B", "VB"), ("uh", "UH"), (",", ","), (".", "."), ("--", ":")]
)


def rebracket(draw, leaves, depth=0):
    """A random tree over ``leaves`` in order: its children are runs of
    leaves, a run of one sometimes a bare leaf; a node may sit in a unary
    chain."""
    label = draw(LABELS)
    if depth >= 3:
        return InternalNode(label, list(leaves))
    cuts = sorted(draw(st.sets(st.integers(1, len(leaves) - 1), max_size=3))) if len(leaves) > 1 else []
    runs = [leaves[a:b] for a, b in zip([0, *cuts], [*cuts, len(leaves)])]
    children = [
        run[0] if len(run) == 1 and draw(st.booleans()) else rebracket(draw, run, depth + 1)
        for run in runs
    ]
    node = InternalNode(label, children)
    return InternalNode(draw(LABELS), [node]) if draw(st.integers(0, 4)) == 0 else node


@st.composite
def tree_pairs(draw):
    golds, preds = [], []
    for _ in range(draw(st.integers(1, 6))):
        words = draw(st.lists(WORD_TAGS, min_size=1, max_size=12))
        golds.append(rebracket(draw, [LeafNode(w, t) for w, t in words]))
        retagged = [
            LeafNode(w.upper() if draw(st.booleans()) else w, draw(WORD_TAGS)[1]
                     if draw(st.integers(0, 5)) == 0 else t)
            for w, t in words
        ]
        preds.append(rebracket(draw, retagged))
    return golds, preds


BUCKET_FIELDS = ("matched", "gold", "predicted", "n_sentences", "exact_match")


def assert_same_bucket(report, oracle):
    for name in BUCKET_FIELDS:
        assert getattr(report, name) == getattr(oracle, name), name
    for name in ("precision", "recall", "f1"):
        assert getattr(report, name).hex() == getattr(oracle, name).hex(), name


class TestAgainstOracle:
    @given(tree_pairs(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_reports_equal_oracle_bit_for_bit(self, pairs, delete_punctuation):
        golds, preds = pairs
        try:
            overall, fluency, length = oracle_parseval(golds, preds, delete_punctuation)
        except DataError as exc:  # a sentence of punctuation alone
            with pytest.raises(type(exc)):
                parseval(golds, preds, delete_punctuation)
            return
        report = parseval(golds, preds, delete_punctuation)
        assert_same_bucket(report.overall, overall)
        assert list(report.fluency) == list(fluency)
        assert list(report.length) == list(length)
        for name in fluency:
            assert_same_bucket(report.fluency[name], fluency[name])
        for name in length:
            assert_same_bucket(report.length[name], length[name])

    @staticmethod
    def seeded_set(seed):
        """Random trees and two predictions of each, from dropping and
        relabeling some of its spans; every third set has punctuation."""
        rng = np.random.default_rng(seed)
        golds, pa, pb = [], [], []
        for _ in range(int(rng.integers(5, 60))):
            gold = random_tree(rng, max_words=14)
            if seed % 3 == 0:
                gold = spans_to_tree(tree_to_spans(gold), [
                    (",", ",") if i and rng.random() < 0.2 else leaf
                    for i, leaf in enumerate(sentence_of(gold))
                ])
            golds.append(gold)
            for preds in (pa, pb):
                T = len(sentence_of(gold))
                spans = {
                    s if rng.random() < 0.8 else LabeledSpan(s.a, s.b, "X")
                    for s in sorted(tree_to_spans(gold))
                    if rng.random() < 0.75 or (s.a, s.b) == (0, T)
                }
                preds.append(spans_to_tree(spans, sentence_of(gold)))
        return golds, pa, pb

    @pytest.mark.parametrize("seed", range(12))
    def test_bootstrap_delta_is_parseval_difference_and_p_is_oracles(self, seed):
        golds, pa, pb = self.seeded_set(seed)
        delete_punctuation = seed % 2 == 1
        res = paired_bootstrap(golds, pa, pb, n_resamples=2000, seed=seed,
                               delete_punctuation=delete_punctuation)
        f1_a = parseval(golds, pa, delete_punctuation).f1
        f1_b = parseval(golds, pb, delete_punctuation).f1
        assert res.observed_delta == f1_a - f1_b
        _, p_value, _ = oracle_paired_bootstrap(golds, pa, pb, n_resamples=2000, seed=seed,
                                                delete_punctuation=delete_punctuation)
        assert res.p_value == p_value


def chain_sentences(n, extra_bracket_for_a=True):
    """n sentences where system A is strictly better than B by one bracket."""
    golds, preds_a, preds_b = [], [], []
    for i in range(n):
        w = [f"w{i}a", f"w{i}b", f"w{i}c"]
        gold = one(f"(S (NP (NN {w[0]}) (NN {w[1]})) (NN {w[2]}))")
        worse = one(f"(S (NN {w[0]}) (NN {w[1]}) (NN {w[2]}))")
        golds.append(gold)
        preds_a.append(gold if extra_bracket_for_a else worse)
        preds_b.append(worse)
    return golds, preds_a, preds_b


class TestPairedBootstrap:
    def test_zero_resamples_rejected(self):
        g, a, b = chain_sentences(5)
        with pytest.raises(DataError):
            paired_bootstrap(g, a, b, n_resamples=0)

    def test_strictly_better_significant(self):
        g, a, b = chain_sentences(60)
        res = paired_bootstrap(g, a, b, n_resamples=2000, seed=1)
        assert res.observed_delta > 0
        assert res.p_value <= 0.01

    def test_equal_quality_symmetric_systems(self):
        # A and B err on disjoint halves: per-sentence deltas are symmetric
        # around zero, so about half the resampled deltas exceed 0
        golds, pa, pb = [], [], []
        for i in range(80):
            w = [f"v{i}a", f"v{i}b", f"v{i}c"]
            gold = one(f"(S (NP (NN {w[0]}) (NN {w[1]})) (NN {w[2]}))")
            flat = one(f"(S (NN {w[0]}) (NN {w[1]}) (NN {w[2]}))")
            golds.append(gold)
            if i % 2 == 0:
                pa.append(gold), pb.append(flat)
            else:
                pa.append(flat), pb.append(gold)
        res = paired_bootstrap(golds, pa, pb, n_resamples=4000, seed=3)
        assert res.observed_delta == pytest.approx(0.0, abs=1e-9)
        assert 0.40 <= res.p_value <= 0.60

    def test_identical_predictions_degenerate(self):
        g, a, _ = chain_sentences(10)
        res = paired_bootstrap(g, a, a, n_resamples=500, seed=0)
        assert res.observed_delta == 0.0
        assert res.p_value == 0.0  # no resampled delta strictly exceeds 0

    def test_monotone_in_advantage(self):
        # growing A's uniform advantage never increases the p-value
        p_values = []
        for n_better in (10, 30, 60):
            golds, pa, pb = [], [], []
            for i in range(60):
                w = [f"m{i}a", f"m{i}b", f"m{i}c"]
                gold = one(f"(S (NP (NN {w[0]}) (NN {w[1]})) (NN {w[2]}))")
                flat = one(f"(S (NN {w[0]}) (NN {w[1]}) (NN {w[2]}))")
                golds.append(gold)
                pa.append(gold if i < n_better else flat)
                pb.append(flat)
            res = paired_bootstrap(golds, pa, pb, n_resamples=2000, seed=5)
            p_values.append(res.p_value)
        assert p_values[0] >= p_values[1] >= p_values[2]


class TestReports:
    def test_report_rows_shape(self):
        r = parseval([GOLD2], [GOLD2])
        rows = report_rows(r)
        assert rows[0][0] == "subset"
        assert len(rows) == 1 + 1 + 2 + 3  # header, all, fluency x2, length x3

    def test_markers(self):
        assert significance_marker(0.01) == "*"
        assert significance_marker(0.03) == "†"
        assert significance_marker(0.2) == ""
