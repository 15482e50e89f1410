import numpy as np
import pytest

from conftest import attached_scores
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
from prosoparse.treebank import LabelVocab, parse_ptb, sentence_of


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
