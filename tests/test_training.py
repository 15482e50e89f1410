import numpy as np
import pytest

from conftest import (
    ParamByParamAdam,
    conv1d,
    mul,
    per_sentence_decode,
    per_sentence_margin_loss,
    relu_then_pool,
    sum_all,
    synthetic_vector_store,
    tiny_model_config,
    write_vector_store,
)
from prosoparse import autograd as ag
from prosoparse import chart
from prosoparse import model as model_mod
from prosoparse import training
from prosoparse.chart import MarginInfo
from prosoparse.errors import ConfigError, DataError, TrainingDivergedError, VocabularyError
from prosoparse.model import ParserModel
from prosoparse.treebank import LabelVocab
from prosoparse.training import (
    Adam,
    EmbeddingSpec,
    RunRecord,
    TrainConfig,
    epoch_batches,
    evaluate_f1,
    fine_tune,
    median_report,
    run_seed,
    train,
)

SPEC = EmbeddingSpec(mode="learned", dim=12, min_count=1)


def tiny_train_config(**kw):
    defaults = dict(
        seeds=(1,),
        batch_size=8,
        learning_rate=4e-3,
        warmup_steps=10,
        max_epochs=3,
        patience=5,
    )
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestConfigValidation:
    def test_needs_seed(self):
        with pytest.raises(ConfigError):
            TrainConfig(seeds=())

    def test_patience_positive(self):
        with pytest.raises(ConfigError):
            TrainConfig(patience=0)

    def test_weights_not_all_zero(self):
        with pytest.raises(ConfigError):
            TrainConfig(corpus_weights=(0.0, 0.0))

    def test_train_needs_an_epoch(self, featurized_corpus, tmp_path):
        # fine_tune alone reads max_epochs 0, as a copy of its checkpoint
        c = featurized_corpus.sentences
        with pytest.raises(ConfigError, match="max_epochs"):
            train(tiny_train_config(max_epochs=0), tiny_model_config(), SPEC, [c], c[:6],
                  tmp_path / "run")
        assert not (tmp_path / "run").exists()


class TestAdam:
    def test_lr_schedule(self):
        opt = Adam([], learning_rate=1.0, warmup_steps=100)
        assert opt.lr(50) == pytest.approx(0.5)
        assert opt.lr(100) == pytest.approx(1.0)
        assert opt.lr(400) == pytest.approx(0.5)  # sqrt(100/400)

    def test_no_parameters(self):
        opt = Adam([], learning_rate=1.0, warmup_steps=100)
        opt.zero_grad()
        opt.step()
        assert opt.grad_is_finite() and opt.value.size == 0

    def test_parameters_of_mixed_dtypes_rejected(self):
        from prosoparse import autograd as ag

        params = [ag.Parameter("a", np.zeros(2, np.float32)), ag.Parameter("b", np.zeros(2))]
        with pytest.raises(ValueError, match="one dtype"):
            Adam(params, learning_rate=1.0, warmup_steps=1)

    @staticmethod
    def small_model(sentences, dropout=0.1):
        return ParserModel(
            tiny_model_config(dropout=dropout), training.build_provider(SPEC, sentences),
            LabelVocab.from_trees([s.tree for s in sentences]),
        )

    def test_values_and_grads_are_views_of_flat_buffers(self, featurized_corpus):
        model = self.small_model(featurized_corpus.sentences)
        before = {p.name: (p.value.copy(), p.grad.copy()) for p in model.parameters()}
        opt = Adam(model.parameters(), learning_rate=1e-3, warmup_steps=4)
        assert opt.value.size == opt.grad.size == sum(p.value.size for p in opt.params)
        for p in model.parameters():
            assert np.shares_memory(p.value, opt.value) and np.shares_memory(p.grad, opt.grad)
            value, grad = before[p.name]
            assert p.value.tobytes() == value.tobytes() and p.grad.tobytes() == grad.tobytes()
        opt.grad[:] = 1.0
        assert all((p.grad == 1.0).all() for p in model.parameters())
        opt.zero_grad()
        assert all(not p.grad.any() for p in model.parameters())
        next(model.parameters()).grad.flat[0] = np.nan
        assert not opt.grad_is_finite()

    def test_steps_equal_per_parameter_adam(self, featurized_corpus):
        # 20 steps through warm-up (a float learning rate) and decay (a
        # numpy float64 one) give the same bytes as stepping each parameter
        c = featurized_corpus.sentences
        models = [self.small_model(c), self.small_model(c)]
        opts = [
            Adam(models[0].parameters(), learning_rate=8e-3, warmup_steps=5),
            ParamByParamAdam(models[1].parameters(), learning_rate=8e-3, warmup_steps=5),
        ]
        for step in range(20):
            batch = [c[(4 * step + i) % len(c)] for i in range(4)]
            for model, opt in zip(models, opts):
                opt.zero_grad()
                tape = ag.Tape(
                    rngs=[np.random.default_rng((step, i)) for i in range(len(batch))],
                    train=True,
                )
                loss, _ = model.batch_loss(tape, batch)
                tape.backward(loss, seed=1.0 / len(batch))
                opt.step()
            for flat, oracle in zip(models[0].parameters(), models[1].parameters()):
                assert flat.value.tobytes() == oracle.value.tobytes(), (step, flat.name)

    def test_checkpoint_bytes_unchanged(self, featurized_corpus, tmp_path):
        model = self.small_model(featurized_corpus.sentences)
        model.save(tmp_path / "own.ckpt")
        Adam(model.parameters(), learning_rate=1e-3, warmup_steps=4)
        model.save(tmp_path / "views.ckpt")
        loaded, _ = ParserModel.load(tmp_path / "views.ckpt")
        Adam(loaded.parameters(), learning_rate=1e-3, warmup_steps=4)
        loaded.save(tmp_path / "loaded.ckpt")
        own = (tmp_path / "own.ckpt").read_bytes()
        assert (tmp_path / "views.ckpt").read_bytes() == own
        assert (tmp_path / "loaded.ckpt").read_bytes() == own

    def test_step_moves_toward_minimum(self):
        from prosoparse import autograd as ag

        p = ag.Parameter("x", np.array([[4.0]], dtype=np.float32))
        opt = Adam([p], learning_rate=0.2, warmup_steps=5)
        for _ in range(600):
            p.grad[...] = 0
            t = ag.Tape()
            loss = sum_all(mul(t.watch(p), t.watch(p)))
            t.backward(loss)
            opt.step()
        assert abs(float(p.value[0, 0])) < 0.2


class TestBatching:
    def corpus(self, featurized_corpus):
        return featurized_corpus.sentences

    def test_weights_one_zero_identical_to_single(self, featurized_corpus):
        c = self.corpus(featurized_corpus)
        c1, c2 = c[:16], c[16:]
        ids = lambda batches: [[s.sentence_id for s in b] for b in batches]
        mixed = epoch_batches([c1, c2], (1.0, 0.0), 4, np.random.default_rng(7))
        single = epoch_batches([c1], (1.0,), 4, np.random.default_rng(7))
        assert ids(mixed) == ids(single)

    def test_mixing_contains_every_batch_once(self, featurized_corpus):
        c = self.corpus(featurized_corpus)
        c1, c2 = c[:16], c[16:]
        batches = epoch_batches([c1, c2], (0.5, 0.5), 4, np.random.default_rng(7))
        seen = [s.sentence_id for b in batches for s in b]
        assert sorted(seen) == sorted(s.sentence_id for s in c)

    def test_batches_bucketed_by_length(self, featurized_corpus):
        c = self.corpus(featurized_corpus)
        batches = epoch_batches([c], (1.0,), 6, np.random.default_rng(0))
        for b in batches:
            lengths = [len(s) for s in b]
            assert max(lengths) - min(lengths) <= 3  # near-uniform buckets


class TestTrainLoop:
    def test_determinism_same_seed(self, featurized_corpus, tmp_path):
        c = featurized_corpus.sentences
        cfg = tiny_train_config()
        args = (cfg, tiny_model_config(), SPEC, [c], c[:6])
        rec1 = train(*args, run_dir=tmp_path / "r1")[0]
        rec2 = train(*args, run_dir=tmp_path / "r2")[0]
        assert rec1.dev_f1 == rec2.dev_f1
        log1 = (tmp_path / "r1" / "seed1" / "metrics.log").read_bytes()
        log2 = (tmp_path / "r2" / "seed1" / "metrics.log").read_bytes()
        assert log1 == log2

    def test_run_files_match_the_prosody_cnn_chain(self, featurized_corpus, tmp_path,
                                                   monkeypatch):
        # the prosody CNN's one op per filter width, against the chain of
        # convolution, relu and max-pool it replaced
        c = featurized_corpus.sentences
        cfg = tiny_train_config(max_epochs=2)
        train(cfg, tiny_model_config(), SPEC, [c], c[:6], tmp_path / "op")
        monkeypatch.setattr(
            ag, "conv_pool", lambda x, lengths, w, b: relu_then_pool(conv1d(x, w, b), lengths)
        )
        train(cfg, tiny_model_config(), SPEC, [c], c[:6], tmp_path / "chain")
        for name in ("metrics.log", "best.ckpt"):
            op = (tmp_path / "op" / "seed1" / name).read_bytes()
            assert op == (tmp_path / "chain" / "seed1" / name).read_bytes(), name

    def test_run_files_match_per_sentence_decode_and_adam(self, featurized_corpus, tmp_path,
                                                          monkeypatch):
        # one fill per bucket, margin sums over the bucket and Adam over one
        # flat buffer, against filling each sentence's chart alone, summing
        # each sentence's margin alone and stepping each parameter alone
        c = featurized_corpus.sentences
        assert len({len(s) for s in c}) > 3
        cfg = tiny_train_config(max_epochs=2)
        train(cfg, tiny_model_config(), SPEC, [c], c[:6], tmp_path / "bucket")
        decoded = []

        def oracle_decode(rows, empty, lengths):
            decoded.append(lengths)
            return per_sentence_decode(rows, empty, lengths)

        # the oracle margin loss sums each sentence's scores in a Python
        # loop over the oracle decoder's trees
        monkeypatch.setattr(chart, "_decode", oracle_decode)
        monkeypatch.setattr(model_mod, "margin_loss", per_sentence_margin_loss)
        monkeypatch.setattr(training, "Adam", ParamByParamAdam)
        train(cfg, tiny_model_config(), SPEC, [c], c[:6], tmp_path / "oracle")
        assert any(len(set(lengths)) > 1 for lengths in decoded)
        for name in ("metrics.log", "best.ckpt"):
            got = (tmp_path / "bucket" / "seed1" / name).read_bytes()
            assert got == (tmp_path / "oracle" / "seed1" / name).read_bytes(), name

    def test_different_seeds_differ(self, featurized_corpus, tmp_path):
        c = featurized_corpus.sentences
        cfg = tiny_train_config(seeds=(1, 2))
        recs = train(cfg, tiny_model_config(), SPEC, [c], c[:6], tmp_path / "r")
        assert recs[0].seed == 1 and recs[1].seed == 2
        # different init/batching: training losses in the logs differ
        log1 = (tmp_path / "r" / "seed1" / "metrics.log").read_text()
        log2 = (tmp_path / "r" / "seed2" / "metrics.log").read_text()
        assert log1 != log2

    def test_patience_stops_after_stale_evals(self, featurized_corpus, tmp_path, monkeypatch):
        scripted = iter([80.0, 81.0, 80.0, 80.0, 90.0, 90.0])
        monkeypatch.setattr(training, "evaluate_f1", lambda m, s: next(scripted))
        c = featurized_corpus.sentences
        cfg = tiny_train_config(max_epochs=6, patience=2)
        rec = run_seed(1, cfg, tiny_model_config(), SPEC, [c[:8]], c[:4], str(tmp_path))
        assert rec.dev_f1 == [80.0, 81.0, 80.0, 80.0]
        assert rec.best_epoch == 2
        assert rec.best_f1 == 81.0

    def test_best_f1_is_max(self, featurized_corpus, tmp_path):
        c = featurized_corpus.sentences
        cfg = tiny_train_config(max_epochs=2)
        rec = train(cfg, tiny_model_config(), SPEC, [c], c[:6], tmp_path / "r")[0]
        assert rec.best_f1 == max(rec.dev_f1)

    def test_checkpoint_round_trip_same_dev_f1(self, featurized_corpus, tmp_path):
        c = featurized_corpus.sentences
        dev = c[:6]
        cfg = tiny_train_config(max_epochs=2)
        rec = train(cfg, tiny_model_config(), SPEC, [c], dev, tmp_path / "r")[0]
        model, _ = ParserModel.load(rec.checkpoint_path)
        assert evaluate_f1(model, dev) == pytest.approx(rec.best_f1, abs=1e-6)

    def test_diverged_seed_recorded_others_continue(self, featurized_corpus, tmp_path, monkeypatch):
        real = training.run_seed

        def flaky(seed, *args, **kw):
            if seed == 2:
                raise TrainingDivergedError(seed, 5)
            return real(seed, *args, **kw)

        monkeypatch.setattr(training, "run_seed", flaky)
        c = featurized_corpus.sentences
        cfg = tiny_train_config(seeds=(1, 2), max_epochs=1)
        recs = train(cfg, tiny_model_config(), SPEC, [c], c[:4], tmp_path / "r")
        assert not recs[0].error and recs[0].dev_f1
        assert "seed 2" in recs[1].error

    @pytest.mark.parametrize("column", [0, 1])
    def test_nan_weight_is_recorded_as_divergence(self, featurized_corpus, tmp_path,
                                                  monkeypatch, column):
        # a NaN in span.w2 after seed 1's third step: in a labelled column
        # it makes the next margin NaN, and training stops before backward;
        # in the empty label's column the margin stays finite but backward
        # spreads the NaN into every gradient, and training stops before
        # the step.  Either way seed 1 is recorded as diverged and seed 2
        # trains
        step = training.Adam.step
        seen = []

        def poisoning_step(opt):
            step(opt)
            if not seen:
                seen.append(opt)
            if opt is seen[0] and opt.t == 3:
                w2 = next(p for p in opt.params if p.name == "span.w2")
                w2.value[0, column] = np.nan

        monkeypatch.setattr(training.Adam, "step", poisoning_step)
        c = featurized_corpus.sentences
        cfg = tiny_train_config(seeds=(1, 2), batch_size=4, max_epochs=1)
        recs = train(cfg, tiny_model_config(), SPEC, [c], c[:4], tmp_path / "r")
        assert "step 3 for seed 1" in recs[0].error
        assert not recs[1].error and recs[1].dev_f1

    def test_non_finite_dev_tree_is_divergence(self, featurized_corpus, tmp_path, monkeypatch):
        # a NaN weight that appears after the epoch's last step reaches the
        # dev parse before any loss sees it
        real = training.evaluate_f1
        calls = []

        def overflowing(model, sentences):
            if not calls:  # seed 1's
                model.scorer.w2.value[:, 1] = np.nan
            calls.append(model)
            return real(model, sentences)

        monkeypatch.setattr(training, "evaluate_f1", overflowing)
        c = featurized_corpus.sentences
        cfg = tiny_train_config(seeds=(1, 2), max_epochs=1)
        recs = train(cfg, tiny_model_config(), SPEC, [c], c[:4], tmp_path / "r")
        assert "seed 1" in recs[0].error
        assert not recs[1].error and recs[1].dev_f1

    def test_non_finite_loss_var_is_divergence(self, featurized_corpus, tmp_path, monkeypatch):
        # the batch loss Var can overflow while every MarginInfo.loss is finite
        real = model_mod.margin_loss

        def overflowing(scores, golds):
            _, infos = real(scores, golds)
            return scores.matrix.tape.constant(np.inf), infos

        monkeypatch.setattr(model_mod, "margin_loss", overflowing)
        c = featurized_corpus.sentences
        model = ParserModel(
            tiny_model_config(), training.build_provider(SPEC, c[:8]),
            LabelVocab.from_trees([s.tree for s in c]),
        )
        with pytest.raises(TrainingDivergedError, match="step 0 for seed 1"):
            training._optimize(
                model, [c[:8]], tiny_train_config(max_epochs=1), c[:2], 1,
                str(tmp_path / "seed1"), 4e-3,
            )

    def test_zero_loss_sentences_free_their_tapes(
        self, featurized_corpus, tmp_path, monkeypatch, tape_refs
    ):
        real = model_mod.margin_loss

        def zero_loss(scores, golds):
            _, infos = real(scores, golds)
            zero = scores.matrix.tape.constant(0.0)
            return zero, [MarginInfo(loss=0.0, delta=i.delta, correct=True) for i in infos]

        monkeypatch.setattr(model_mod, "margin_loss", zero_loss)
        c = featurized_corpus.sentences
        model = ParserModel(
            tiny_model_config(), training.build_provider(SPEC, c[:8]),
            LabelVocab.from_trees([s.tree for s in c]),
        )
        before = {p.name: p.value.tobytes() for p in model.parameters()}
        training._optimize(
            model, [c[:8]], tiny_train_config(max_epochs=1), c[:2], 1,
            str(tmp_path / "seed1"), 4e-3,
        )
        assert len(tape_refs) == 1 + 1  # one per training batch and per dev bucket
        assert all(ref() is None for ref in tape_refs)
        # backward on the constant loss runs no closure, and Adam moves
        # nothing on all-zero gradients
        assert {p.name: p.value.tobytes() for p in model.parameters()} == before

    def test_batch_tapes_free_after_backward(self, featurized_corpus, tmp_path, tape_refs):
        c = featurized_corpus.sentences
        model = ParserModel(
            tiny_model_config(dropout=0.1), training.build_provider(SPEC, c[:16]),
            LabelVocab.from_trees([s.tree for s in c]),
        )
        training._optimize(
            model, [c[:16]], tiny_train_config(max_epochs=1), c[:2], 1,
            str(tmp_path / "seed1"), 4e-3,
        )
        assert len(tape_refs) == 2 + 1  # two batches of 8, one dev bucket
        assert all(ref() is None for ref in tape_refs)

    def test_empty_corpus_rejected(self, tmp_path):
        with pytest.raises(DataError):
            train(tiny_train_config(), tiny_model_config(), SPEC, [[]], [], tmp_path)


class TestFrozenMode:
    def test_store_bit_identical_after_training(self, featurized_corpus, tmp_path):
        from prosoparse.embeddings import load_vector_store

        c = featurized_corpus.sentences
        store = synthetic_vector_store(c, dim=12)
        store_path = tmp_path / "store.vec"
        write_vector_store(store_path, store)
        before = store_path.read_bytes()

        spec = EmbeddingSpec(mode="frozen", dim=12, store_path=str(store_path))
        cfg = tiny_train_config(max_epochs=2)
        rec = train(cfg, tiny_model_config(), spec, [c], c[:6], tmp_path / "r")[0]
        assert rec.dev_f1  # trained at all
        assert store_path.read_bytes() == before
        # and the loaded store matrices were not mutated in memory either
        reread = load_vector_store(store_path)
        for sid, mat in store.sentences.items():
            np.testing.assert_allclose(reread.sentences[sid], mat, atol=1e-5)


class TestParallelSeeds:
    def test_jobs_parallel_matches_sequential(self, featurized_corpus, tmp_path):
        c = featurized_corpus.sentences
        cfg = tiny_train_config(seeds=(1, 2), max_epochs=1)
        args = (cfg, tiny_model_config(), SPEC, [c], c[:4])
        seq = train(*args, run_dir=tmp_path / "seq", jobs=1)
        par = train(*args, run_dir=tmp_path / "par", jobs=2)
        for a, b in zip(seq, par):
            assert a.seed == b.seed
            assert a.dev_f1 == b.dev_f1
            assert a.best_f1 == b.best_f1


class TestMedian:
    def rec(self, seed, f1):
        return RunRecord(seed=seed, dev_f1=[f1], best_f1=f1)

    def test_odd_count_middle(self):
        recs = [self.rec(s, f) for s, f in zip(range(5), (90, 91, 92, 93, 94))]
        assert median_report(recs).chosen_record.best_f1 == 92

    def test_even_count_lower_median(self):
        recs = [self.rec(1, 90.0), self.rec(2, 92.0)]
        assert median_report(recs).chosen_record.best_f1 == 90.0

    def test_single_seed(self):
        assert median_report([self.rec(7, 88.0)]).chosen_seed == 7

    def test_failed_seeds_excluded(self):
        recs = [self.rec(1, 90.0), RunRecord(seed=2, error="diverged")]
        assert median_report(recs).chosen_seed == 1

    def test_all_failed_raises(self):
        with pytest.raises(DataError):
            median_report([RunRecord(seed=1, error="x")])


class TestFineTune:
    def trained(self, featurized_corpus, tmp_path):
        c = featurized_corpus.sentences
        cfg = tiny_train_config(max_epochs=2)
        return (
            train(cfg, tiny_model_config(), SPEC, [c], c[:6], tmp_path / "base")[0],
            c,
        )

    def test_zero_epochs_copies_checkpoint(self, featurized_corpus, tmp_path):
        rec, c = self.trained(featurized_corpus, tmp_path)
        cfg = tiny_train_config(max_epochs=0)
        out = fine_tune(rec.checkpoint_path, c, cfg, tmp_path / "ft", c[:4])
        with open(rec.checkpoint_path, "rb") as f1, open(out.checkpoint_path, "rb") as f2:
            assert f1.read() == f2.read()

    def test_unseen_label_rejected(self, featurized_corpus, tmp_path):
        rec, c = self.trained(featurized_corpus, tmp_path)
        from prosoparse.corpus import Sentence
        from prosoparse.treebank import LabeledSpan

        alien = Sentence(
            sentence_id="alien",
            tokens=[("krz", "NN")],
            tree=None,
            gold_spans={LabeledSpan(0, 1, "WEIRD")},
        )
        cfg = tiny_train_config(max_epochs=1)
        with pytest.raises(VocabularyError, match="WEIRD"):
            fine_tune(rec.checkpoint_path, [alien], cfg, tmp_path / "ft", c[:4])

    def test_same_corpus_fine_tune_does_not_regress(self, featurized_corpus, tmp_path):
        rec, c = self.trained(featurized_corpus, tmp_path)
        dev = c[:6]
        cfg = tiny_train_config(max_epochs=1)
        out = fine_tune(rec.checkpoint_path, c, cfg, tmp_path / "ft", dev)
        assert out.best_f1 >= rec.best_f1 - 0.5
