"""Acceptance suite: one test per shipped guarantee, each printing a
pass/fail line (run with `pytest tests/test_acceptance.py -v -s`).

The training-based checks run deliberately small models on the bundled
synthetic corpora; thresholds and budgets are asserted, not just logged.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import (
    attached_scores,
    build_text_twin,
    build_tiny_model,
    grad_check,
    tiny_model_config,
    zero_prosody_pathway,
)
from prosoparse import autograd as ag
from prosoparse.chart import cky_decode, margin_loss
from prosoparse.corpus import featurize
from prosoparse.encoder import CnnConfig, EncoderConfig
from prosoparse.evaluation import paired_bootstrap, parseval
from prosoparse.model import ModelConfig, ParserModel, clone_model
from prosoparse.synthdata import (
    ambiguity_corpus,
    overfit_corpus,
    random_tree,
)
from prosoparse.training import (
    EmbeddingSpec,
    RunRecord,
    TrainConfig,
    evaluate_f1,
    median_report,
    train,
)
from prosoparse.treebank import LabelVocab, parse_ptb


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"\n[criterion {number}] {name}: FAIL")
        raise
    print(f"\n[criterion {number}] {name}: PASS")


def tree_of(text):
    return parse_ptb(text)[0]


# ----------------------------------------------------------------------
# 1. decoder oracle


def exhaustive_best(dense):
    """All binary shapes by brute recursion; per-span best label; root non-empty."""
    T = dense.shape[0] - 1

    def span_best(a, b):
        return dense[a, b, 1:].max() if (a, b) == (0, T) else dense[a, b].max()

    def rec(a, b):
        here = span_best(a, b)
        if b - a == 1:
            return here
        return here + max(rec(a, k) + rec(k, b) for k in range(a + 1, b))

    return rec(0, T)


def test_criterion_1_decoder_oracle():
    with criterion(1, "CKY equals exhaustive enumeration on 200 random instances"):
        rng = np.random.default_rng(1001)
        t0 = time.perf_counter()
        for trial in range(200):
            T = int(rng.integers(2, 7))
            n_labels = int(rng.integers(2, 6))
            dense = rng.integers(-8192, 8193, size=(T + 1, T + 1, n_labels)) / 1024.0
            dense[:, :, 0] = 0.0
            vocab = LabelVocab([f"L{i}" for i in range(1, n_labels)])
            leaves = [(f"w{i}", "NN") for i in range(T)]
            [decoded] = cky_decode(attached_scores(dense, vocab), [leaves])
            expected = exhaustive_best(dense)
            assert decoded.total_score == expected, (
                f"trial {trial}: CKY {decoded.total_score} != oracle {expected}"
            )
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"oracle comparison took {elapsed:.1f}s"


# ----------------------------------------------------------------------
# 2. gradient fidelity


def test_criterion_2_gradient_fidelity():
    with criterion(2, "full text+prosody loss passes finite-difference check"):
        data = overfit_corpus(n_sentences=24, seed=5)
        featurize(data.sentences, data.alignments, data.tracks)
        sent = next(s for s in data.sentences if len(s) == 3)
        model = clone_model(
            build_tiny_model(data.sentences, prosody=True), dtype=np.float64
        )
        params = list(model.parameters())

        def f():
            tape = ag.Tape(train=False, dtype=np.float64)
            scores = model.score_sentence(tape, sent)
            loss, _ = margin_loss(scores, [sent.gold_spans])
            return loss

        err = grad_check(f, params, n_samples=50, h=1e-5)
        assert err < 1e-3, f"max relative gradient error {err:.2e}"


# ----------------------------------------------------------------------
# 3. scorer fidelity


def test_criterion_3_scorer_fidelity():
    with criterion(3, "Parseval matches hand-computed P/R/F1"):
        gold2 = tree_of("(S (NP (PRP i)) (VP (VBP agree)))")
        cases = [
            # (gold, pred, P, R, F1)
            (gold2, gold2, 100.0, 100.0, 100.0),
            (  # moved bracket
                gold2,
                tree_of("(S (VP (PRP i) (VP (VBP agree))))"),
                66.67, 66.67, 66.67,
            ),
            (  # unary chain counts each node
                tree_of("(S (NP (NN dog)))"),
                tree_of("(S (NN dog))"),
                100.0, 50.0, 66.67,
            ),
            (  # TOP wrapper excluded from brackets
                tree_of("(TOP (S (NP (DT a) (NN dog)) (VP (VBZ runs))))"),
                tree_of("(S (NP (DT a) (NN dog)) (VP (VBZ runs)))"),
                100.0, 100.0, 100.0,
            ),
            (  # extra bracket: precision hit only
                tree_of("(S (NN a) (NN b) (NN c))"),
                tree_of("(S (NP (NN a) (NN b)) (NN c))"),
                50.0, 100.0, 66.67,
            ),
            (  # chain label must match per node
                tree_of("(S (VP (VB go)))"),
                tree_of("(S (NP (VB go)))"),
                50.0, 50.0, 50.0,
            ),
        ]
        for i, (g, p, P, R, F) in enumerate(cases):
            r = parseval([g], [p])
            assert r.overall.precision == pytest.approx(P, abs=0.01), f"case {i} P"
            assert r.overall.recall == pytest.approx(R, abs=0.01), f"case {i} R"
            assert r.f1 == pytest.approx(F, abs=0.01), f"case {i} F1"

        rng = np.random.default_rng(33)
        trees = [random_tree(rng, max_words=10) for _ in range(1000)]
        assert parseval(trees, trees).f1 == 100.0


# ----------------------------------------------------------------------
# 4. overfit sanity


OVERFIT_MODEL = ModelConfig(
    encoder=EncoderConfig(
        layers=2, heads=2, d_content=64, d_position=32, d_prosody=32,
        d_ff=128, dropout=0.1, max_len=40,
    ),
    cnn=CnnConfig(widths=(3, 5), filters_per_width=8),
    span_hidden=64,
)
EMB32 = EmbeddingSpec(mode="learned", dim=32, min_count=1)


def test_criterion_4_overfit_sanity(tmp_path):
    with criterion(4, "200-sentence synthetic corpus overfits to F1 >= 95"):
        data = overfit_corpus(n_sentences=200, seed=13)
        featurize(data.sentences, data.alignments, data.tracks)
        cfg = TrainConfig(
            seeds=(1,), batch_size=32, learning_rate=4e-3, warmup_steps=40,
            max_epochs=50, patience=6,
        )
        t0 = time.perf_counter()
        rec = train(cfg, OVERFIT_MODEL, EMB32, [data.sentences], data.sentences,
                    tmp_path / "overfit")[0]
        elapsed = time.perf_counter() - t0
        assert not rec.error, rec.error
        assert rec.best_f1 >= 95.0, f"train F1 {rec.best_f1:.2f} after {len(rec.dev_f1)} epochs"
        assert len(rec.dev_f1) <= 50
        assert elapsed < 900.0, f"run took {elapsed:.0f}s"


# ----------------------------------------------------------------------
# 5. prosody-pathway effect


def test_criterion_5_prosody_pathway(tmp_path):
    with criterion(5, "pause cue: prosody model >= 90 F1, text-only <= 60"):
        train_data, test_data = ambiguity_corpus(
            n_train_pairs=64, n_test_pairs=16, seed=29
        )
        featurize(train_data.sentences, train_data.alignments, train_data.tracks)
        featurize(test_data.sentences, test_data.alignments, test_data.tracks)
        results = {}
        for prosody, tag in ((True, "prosody"), (False, "text")):
            model_cfg = ModelConfig(
                encoder=EncoderConfig(
                    layers=2, heads=2, d_content=64, d_position=32,
                    d_prosody=32 if prosody else 0, d_ff=128, dropout=0.1,
                    max_len=40,
                ),
                cnn=CnnConfig(widths=(3, 5), filters_per_width=8),
                span_hidden=64,
            )
            cfg = TrainConfig(
                seeds=(1,), batch_size=32, learning_rate=4e-3, warmup_steps=40,
                max_epochs=40, patience=8,
            )
            rec = train(cfg, model_cfg, EMB32, [train_data.sentences],
                        train_data.sentences, tmp_path / tag)[0]
            assert not rec.error, rec.error
            model, _ = ParserModel.load(rec.checkpoint_path)
            results[tag] = evaluate_f1(model, test_data.sentences)
        assert results["prosody"] >= 90.0, f"prosody model F1 {results['prosody']:.2f}"
        assert results["text"] <= 60.0, f"text-only model F1 {results['text']:.2f}"


# ----------------------------------------------------------------------
# 6. bootstrap calibration


def test_criterion_6_bootstrap_calibration():
    with criterion(6, "paired bootstrap: equal systems ~0.5, dominant system <= 0.01"):
        golds, pa, pb = [], [], []
        for i in range(400):
            w = [f"q{i}a", f"q{i}b", f"q{i}c", f"q{i}d"]
            deep = tree_of(
                f"(S (NP (NN {w[0]}) (NN {w[1]})) (VP (NN {w[2]}) (NN {w[3]})))"
            )
            mid = tree_of(f"(S (NP (NN {w[0]}) (NN {w[1]})) (NN {w[2]}) (NN {w[3]}))")
            flat = tree_of(f"(S (NN {w[0]}) (NN {w[1]}) (NN {w[2]}) (NN {w[3]}))")
            golds.append(deep)
            variant = (deep, mid, deep, flat)[i % 4]
            other = (mid, deep, flat, deep)[i % 4]
            pa.append(variant)
            pb.append(other)
        res = paired_bootstrap(golds, pa, pb, n_resamples=10000, seed=6)
        assert abs(res.observed_delta) < 1e-9
        assert 0.45 <= res.p_value <= 0.55, f"p = {res.p_value:.4f}"

        golds2, pa2, pb2 = [], [], []
        for i in range(150):
            w = [f"r{i}a", f"r{i}b", f"r{i}c"]
            gold = tree_of(f"(S (NP (NN {w[0]}) (NN {w[1]})) (NN {w[2]}))")
            flat = tree_of(f"(S (NN {w[0]}) (NN {w[1]}) (NN {w[2]}))")
            golds2.append(gold)
            pa2.append(gold)  # A has every bracket B lacks, on every sentence
            pb2.append(flat)
        res2 = paired_bootstrap(golds2, pa2, pb2, n_resamples=10000, seed=7)
        assert res2.p_value <= 0.01, f"p = {res2.p_value:.4f}"


# ----------------------------------------------------------------------
# 7. multi-seed protocol


def test_criterion_7_five_seed_protocol(tmp_path):
    with criterion(7, "5-seed run: deterministic median choice, reproducible logs"):
        data = overfit_corpus(n_sentences=40, seed=21)
        featurize(data.sentences, data.alignments, data.tracks)
        cfg = TrainConfig(
            seeds=(1, 2, 3, 4, 5), batch_size=16, learning_rate=4e-3,
            warmup_steps=20, max_epochs=2, patience=3,
        )
        model_cfg = tiny_model_config(prosody=True)
        recs1 = train(cfg, model_cfg, EMB32, [data.sentences], data.sentences,
                      tmp_path / "run_a")
        recs2 = train(cfg, model_cfg, EMB32, [data.sentences], data.sentences,
                      tmp_path / "run_b")
        for r1, r2 in zip(recs1, recs2):
            assert r1.dev_f1 == r2.dev_f1
            log1 = (tmp_path / "run_a" / f"seed{r1.seed}" / "metrics.log").read_bytes()
            log2 = (tmp_path / "run_b" / f"seed{r2.seed}" / "metrics.log").read_bytes()
            assert log1 == log2

        summary1 = median_report(recs1)
        summary2 = median_report(recs2)
        ordered = sorted(recs1, key=lambda r: (r.best_f1, r.seed))
        assert summary1.chosen_seed == ordered[2].seed  # true middle of five
        assert summary1.chosen_seed == summary2.chosen_seed

        # lower-median rule on an even number of survivors
        even = [RunRecord(seed=s, dev_f1=[f], best_f1=f)
                for s, f in ((1, 90.0), (2, 92.0), (3, 94.0), (4, 96.0))]
        assert median_report(even).chosen_record.best_f1 == 92.0


# ----------------------------------------------------------------------
# 8. factorization identity


def test_criterion_8_factorization_identity():
    with criterion(8, "zeroed prosody pathway reproduces the text-only model"):
        data = overfit_corpus(n_sentences=24, seed=5)
        featurize(data.sentences, data.alignments, data.tracks)
        model = build_tiny_model(data.sentences, prosody=True, seed=11)
        zero_prosody_pathway(model)
        twin = build_text_twin(model)
        checked = 0
        for sent in data.sentences[:8]:
            tape_a = ag.Tape(train=False, dtype=model.dtype)
            tape_b = ag.Tape(train=False, dtype=twin.dtype)
            a = model.score_sentence(tape_a, sent).matrix.value
            b = twin.score_sentence(tape_b, sent).matrix.value
            np.testing.assert_allclose(a, b, atol=1e-6)
            checked += 1
        assert checked == 8
