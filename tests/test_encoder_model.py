import collections
import gc
import json

import numpy as np
import pytest

from conftest import (
    build_text_twin,
    build_tiny_model,
    chain_logit_parts,
    conv1d,
    grad_check,
    oracle_parameters,
    relu_then_pool,
    zero_prosody_pathway,
)
from prosoparse import autograd as ag
from prosoparse.chart import cky_decode, margin_loss
from prosoparse.embeddings import EmbeddingProvider, VectorStore
from prosoparse.encoder import CnnConfig, Encoder, EncoderConfig, ProsodyInputs
from prosoparse.errors import (
    CheckpointError,
    ConfigError,
    DataError,
    LengthError,
    NumericError,
)
from prosoparse import model as model_mod
from prosoparse.model import ModelConfig, ParserModel, clone_model
from prosoparse.tensorfile import read_tensors, write_tensors
from prosoparse.treebank import LabelVocab, parse_ptb


def sent_scores(model, sent):
    tape = ag.Tape(dtype=model.dtype)
    return model.score_sentence(tape, sent)


class TestEncoderShapes:
    def test_config_validation(self):
        with pytest.raises(ConfigError):
            EncoderConfig(d_content=15, heads=2)  # not divisible
        with pytest.raises(ConfigError):
            EncoderConfig(d_content=6, heads=3)  # odd stream width

    def test_single_word_fenceposts(self, featurized_corpus):
        sents = featurized_corpus.sentences
        model = build_tiny_model(sents)
        one = next(s for s in sents if len(s) == 1)
        tape = ag.Tape(dtype=model.dtype)
        e = model.provider.embed(tape, [one.sentence_id], [one.words])
        fenceposts = model.encoder.encode(tape, e, [1], [one.prosody])
        assert fenceposts.value.shape == (2, model.config.encoder.d_total)

    def test_too_long_sentence(self, featurized_corpus):
        sents = featurized_corpus.sentences
        model = build_tiny_model(sents)
        tape = ag.Tape(dtype=model.dtype)
        e = tape.constant(np.zeros((50, model.provider.dim), dtype=np.float32))
        with pytest.raises(LengthError):
            model.encoder.encode(tape, e, [50], None)

    def test_nan_detection_names_layer(self, featurized_corpus):
        sents = featurized_corpus.sentences
        model = build_tiny_model(sents, prosody=False)
        model.encoder.layers[1].ff_w2.value[:] = np.nan
        sent = sents[0]
        with pytest.raises(NumericError, match="layer 1"):
            sent_scores(model, sent)


def capture_attention(monkeypatch):
    """Spy on ag.attention: (queries, keys, heads) of every call, as arrays."""
    captured = []
    real = ag.attention

    def spy(qs, ks, vs, heads, lengths=None):
        captured.append(([q.value.copy() for q in qs], [k.value.copy() for k in ks], heads))
        return real(qs, ks, vs, heads, lengths)

    monkeypatch.setattr(ag, "attention", spy)
    return captured


def head_logit_parts(captured, dtype):
    """Per layer and head, each stream's logit part, recomputed from the
    captured queries and keys by the per-head chain oracle."""
    for qs, ks, heads in captured:
        tape = ag.Tape(dtype=dtype, record=False)
        qs = [tape.constant(q) for q in qs]
        ks = [tape.constant(k) for k in ks]
        for h in range(heads):
            yield [part.value for part in chain_logit_parts(qs, ks, heads, h)]


def summed(parts):
    logits = parts[0]
    for part in parts[1:]:
        logits = logits + part
    return logits


class TestAttention:
    def test_attention_rows_sum_to_one(self, featurized_corpus, monkeypatch):
        sents = featurized_corpus.sentences
        model = build_tiny_model(sents)
        real = ag.attention
        captured = capture_attention(monkeypatch)
        sent = max(sents, key=len)
        sent_scores(model, sent)
        assert len(captured) == model.config.encoder.layers
        for qs, ks, heads in captured:
            # with every value 1, each output is the sum of a row of weights
            tape = ag.Tape(dtype=model.dtype)
            outs = real(
                [tape.constant(q) for q in qs],
                [tape.constant(k) for k in ks],
                [tape.constant(np.ones_like(q)) for q in qs],
                heads,
            )
            for out in outs:
                np.testing.assert_allclose(out.value, 1.0, atol=1e-6)

    def test_not_permutation_invariant(self, featurized_corpus):
        sents = featurized_corpus.sentences
        model = build_tiny_model(sents, prosody=False)
        sent = max(sents, key=len)
        tape = ag.Tape(dtype=model.dtype)
        e = model.provider.embed(tape, [sent.sentence_id], [sent.words])
        out = model.encoder.encode(tape, e, [len(sent)], None).value

        perm = np.arange(len(sent))[::-1].copy()
        tape2 = ag.Tape(dtype=model.dtype)
        e2 = model.provider.embed(
            tape2, [sent.sentence_id], [[sent.words[i] for i in perm]]
        )
        out2 = model.encoder.encode(tape2, e2, [len(sent)], None).value
        assert not np.allclose(out, out2, atol=1e-4)


class TestProsodyCnn:
    def encoder(self, widths=(3, 5), n=4, seed=0):
        cfg = EncoderConfig(
            layers=1, heads=2, d_content=8, d_position=4, d_prosody=4, d_ff=8,
            dropout=0.0, max_len=20,
        )
        return Encoder(
            cfg, CnnConfig(widths=widths, filters_per_width=n), embed_dim=6,
            init=ag.Init(np.float32, rng=np.random.default_rng(seed)),
        )

    @staticmethod
    def packed(frames, masks):
        """ProsodyInputs holding the given per-word patches, packed."""
        T = len(frames)
        return ProsodyInputs(
            pause_before=np.zeros(T, np.int64),
            pause_after=np.zeros(T, np.int64),
            duration_scalars=np.zeros((T, 2), np.float32),
            frames=np.concatenate(frames),
            mask=np.concatenate(masks),
            patch_lens=np.array([len(m) for m in masks], np.int64),
        )

    def test_output_dim_is_widths_times_filters(self):
        enc = self.encoder(widths=(3, 5, 10), n=32)
        tape = ag.Tape()
        frames = np.random.default_rng(0).standard_normal((12, 2)).astype(np.float32)
        out = enc.prosody_cnn(tape, self.packed([frames], [np.ones(12, dtype=bool)]))
        assert out.value.shape == (1, 96)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_batched_equals_each_patch_alone(self, dtype):
        enc = Encoder(
            EncoderConfig(layers=1, heads=2, d_content=8, d_position=4, d_prosody=4,
                          d_ff=8, dropout=0.0, max_len=20),
            CnnConfig(), embed_dim=6, init=ag.Init(dtype, rng=np.random.default_rng(4)),
        )
        rng = np.random.default_rng(5)
        lens = (23, 1, 100, 7, 54, 2)
        prosody = self.packed(
            [rng.standard_normal((n, 2)) for n in lens], [rng.random(n) < 0.6 for n in lens]
        )
        tape = ag.Tape(dtype=dtype)
        batched = enc.prosody_cnn(tape, prosody).value
        assert batched.shape == (len(lens), CnnConfig().output_dim)
        ends = np.cumsum(lens)
        for row, n, end in zip(batched, lens, ends):
            x = np.concatenate(
                [prosody.frames[end - n : end], prosody.mask[end - n : end, None]], axis=1
            )[None].astype(dtype)
            alone = [
                relu_then_pool(conv1d(x, tape.watch(w), tape.watch(b)), [n]).value[0]
                for w, b in enc.cnn_filters
            ]
            assert row.dtype == dtype
            assert row.tobytes() == np.concatenate(alone).tobytes()

    def test_zero_patch_zero_bias_gives_zeros(self):
        enc = self.encoder()
        prosody = self.packed([np.zeros((8, 2), dtype=np.float32)], [np.zeros(8, dtype=bool)])
        tape = ag.Tape()
        out = enc.prosody_cnn(tape, prosody)
        np.testing.assert_array_equal(out.value, 0.0)

    def test_time_reversal_with_symmetric_filters(self):
        enc = self.encoder(widths=(3, 5), n=4)
        for wmat, _bias in enc.cnn_filters:
            w = wmat.value
            wmat.value[...] = 0.5 * (w + w[::-1])  # symmetric over time
        frames = np.random.default_rng(1).standard_normal((9, 2)).astype(np.float32)
        mask = np.zeros(9, dtype=bool)
        mask[2:7] = True  # symmetric mask so the reversed patch is well-formed
        tape = ag.Tape()
        fwd = enc.prosody_cnn(tape, self.packed([frames], [mask]))
        rev = enc.prosody_cnn(tape, self.packed([frames[::-1]], [mask[::-1]]))
        np.testing.assert_allclose(fwd.value, rev.value, atol=1e-5)


class TestFactorization:
    def test_additivity_zeroed_qk_matches_text_logits(self, featurized_corpus, monkeypatch):
        sents = featurized_corpus.sentences
        model = build_tiny_model(sents, prosody=True)
        zero_prosody_pathway(model)
        twin = build_text_twin(model)
        sent = max(sents, key=len)

        captured = capture_attention(monkeypatch)
        sent_scores(model, sent)
        pros_logits = [summed(p) for p in head_logit_parts(captured, model.dtype)]
        captured.clear()
        sent_scores(twin, sent)
        text_logits = [summed(p) for p in head_logit_parts(captured, twin.dtype)]
        cfg = model.config.encoder
        assert len(pros_logits) == len(text_logits) == cfg.layers * cfg.heads
        heads = cfg.heads
        for i, (a, b) in enumerate(zip(pros_logits, text_logits)):
            if i < heads:  # first layer: identical inputs, exact equality
                np.testing.assert_array_equal(a, b)
            else:  # deeper layers: float32 summation order may differ by ulps
                np.testing.assert_allclose(a, b, atol=1e-6)

    def test_additivity_prosody_term_exactly_zero(self, featurized_corpus, monkeypatch):
        # with prosody q/k zeroed, the summed logits equal the
        # content+position sum exactly: the prosody term is the zero matrix
        sents = featurized_corpus.sentences
        model = build_tiny_model(sents, prosody=True)
        zero_prosody_pathway(model)
        sent = max(sents, key=len)

        captured = capture_attention(monkeypatch)
        sent_scores(model, sent)
        parts = list(head_logit_parts(captured, model.dtype))
        # one all-zero prosody term per head per layer
        cfg = model.config.encoder
        zero_terms = [p for p in parts if np.array_equal(p[2], np.zeros_like(p[2]))]
        assert len(parts) == len(zero_terms) == cfg.layers * cfg.heads
        for content, position, prosody in parts:
            text = content + position
            np.testing.assert_array_equal(text + prosody, text)

    def test_span_scores_identity(self, featurized_corpus):
        sents = featurized_corpus.sentences
        model = build_tiny_model(sents, prosody=True)
        zero_prosody_pathway(model)
        twin = build_text_twin(model)
        for sent in sents[:6]:
            a = sent_scores(model, sent).matrix.value
            b = sent_scores(twin, sent).matrix.value
            np.testing.assert_allclose(a, b, atol=1e-6)

    def test_text_twin_config_drops_only_prosody(self, featurized_corpus):
        model = build_tiny_model(featurized_corpus.sentences, prosody=True)
        twin = build_text_twin(model)
        enc, twin_enc = model.config.encoder, twin.config.encoder
        assert twin_enc.d_prosody == 0
        for name in ("layers", "heads", "d_content", "d_position", "d_ff", "dropout",
                     "max_len"):
            assert getattr(twin_enc, name) == getattr(enc, name)
        assert (twin.config.cnn, twin.config.span_hidden) == (
            model.config.cnn, model.config.span_hidden)

    def test_without_surgery_scores_differ(self, featurized_corpus):
        sents = featurized_corpus.sentences
        model = build_tiny_model(sents, prosody=True)
        twin = build_text_twin(model)
        sent = max(sents, key=len)
        a = sent_scores(model, sent).matrix.value
        b = sent_scores(twin, sent).matrix.value
        assert not np.allclose(a, b, atol=1e-4)


class TestFullModelGradients:
    def test_grad_check_full_loss(self, featurized_corpus):
        sents = featurized_corpus.sentences
        sent = next(s for s in sents if len(s) == 3)
        model64 = clone_model(build_tiny_model(sents, prosody=True), dtype=np.float64)
        params = list(model64.parameters())

        def f():
            tape = ag.Tape(train=False, dtype=np.float64)
            scores = model64.score_sentence(tape, sent)
            # hinge at a fixed (generally wrong) gold: gradient flows through
            # encoder, CNN and scorer
            loss, _ = margin_loss(scores, [sent.gold_spans])
            return loss

        err = grad_check(f, params, n_samples=6, h=1e-5)
        assert err < 1e-3, f"max relative gradient error {err}"


class TestInference:
    def test_parse_equals_decoding_recorded_scores(self, featurized_corpus):
        sents = featurized_corpus.sentences
        model = build_tiny_model(sents)
        for sent in sents[:8]:
            got = model.parse_sentence(sent)
            [want] = cky_decode(sent_scores(model, sent), [sent.tokens])
            assert got.tree.linearize() == want.tree.linearize()
            assert got.total_score == want.total_score

    def test_parse_sentences_in_input_order_and_stable(self, featurized_corpus,
                                                      monkeypatch):
        sents = featurized_corpus.sentences
        model = build_tiny_model(sents)
        monkeypatch.setattr(model_mod, "PARSE_BUCKET_WORDS", 16)
        buckets = model_mod.length_buckets([len(s) for s in sents], 16)
        assert len(buckets) > 4

        def parsed(group):
            return [(d.tree.linearize(), repr(d.total_score))
                    for d in model.parse_sentences(group)]

        got = parsed(sents)
        for (text, _), sent in zip(got, sents):
            assert text == parse_ptb(text)[0].linearize()
            assert [leaf.word for leaf in parse_ptb(text)[0].leaves()] == sent.words
        assert parsed(sents) == got
        # the buckets on their own, last first: the same bytes
        for bucket in reversed(buckets):
            assert parsed([sents[i] for i in bucket]) == [got[i] for i in bucket]

    def test_parse_frees_its_tape_without_the_cycle_collector(
        self, featurized_corpus, tape_refs
    ):
        sents = featurized_corpus.sentences
        model = build_tiny_model(sents)
        model.parse_sentence(max(sents, key=len))
        assert len(tape_refs) == 1 and tape_refs[0]() is None

    def test_parse_leaves_no_reference_cycles(self, featurized_corpus):
        sents = featurized_corpus.sentences
        model = build_tiny_model(sents)
        sent = max(sents, key=len)
        model.parse_sentence(sent)  # first-call set-up is not per-parse garbage
        gc.collect()
        gc.disable()
        try:
            model.parse_sentence(sent)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_recorded_loss_backward_frees_its_tape(self, featurized_corpus, tape_refs):
        sents = featurized_corpus.sentences
        model = build_tiny_model(sents)
        tape = ag.Tape(dtype=model.dtype)
        loss, info = model.sentence_loss(tape, max(sents, key=len))
        assert info.loss > 0.0
        tape.backward(loss)
        del tape, loss
        assert len(tape_refs) == 1 and tape_refs[0]() is None


class TestTrainingTape:
    def test_op_count_and_kinds_pinned(self, featurized_corpus):
        # a bucket of one: two layers of three streams, each stream norm one
        # layer_norm op, each biased dense layer one matmul, the fenceposts
        # one per-column gather from the words and sentinels, the spans one scorer
        # matmul and one span_scores, the margin one signed gather_sum
        model = build_tiny_model(featurized_corpus.sentences, dropout=0.1)
        tape = ag.Tape(rngs=[np.random.default_rng(0)], train=True, dtype=model.dtype)
        model.sentence_loss(tape, featurized_corpus.sentences[0])
        kinds = collections.Counter(fn.__qualname__.split(".")[0] for fn in tape._ops)
        assert kinds == {
            "add": 9, "attention": 2, "concat": 7, "conv_pool": 2, "dropout": 8,
            "gather_sum": 1, "layer_norm": 12, "matmul": 31, "relu": 2,
            "slice_cols": 6, "span_scores": 1, "take_rows": 5,
        }
        assert len(tape._ops) == 86

    def test_packed_tape_adds_only_per_sentence_scoring(self, featurized_corpus):
        # the encoder, the scorer matmul, span_scores and the margin's
        # gather_sum and add run once per bucket: six sentences record the
        # ops of one
        sents = featurized_corpus.sentences[:6]
        model = build_tiny_model(sents, dropout=0.1)
        tape = ag.Tape(rngs=[np.random.default_rng(i) for i in range(6)], train=True,
                       dtype=model.dtype)
        _, infos = model.batch_loss(tape, sents)
        assert all(info.loss > 0 for info in infos)
        kinds = collections.Counter(fn.__qualname__.split(".")[0] for fn in tape._ops)
        assert len(kinds) == 12
        assert kinds["span_scores"] == 1 and kinds["matmul"] == 31
        assert kinds["gather_sum"] == 1
        assert len(tape._ops) == 86


class RecordingRng:
    """A random Generator that keeps every array it draws."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.draws = []

    def random(self, shape):
        out = self._rng.random(shape)
        self.draws.append(out)
        return out


def short_sized_model(sentences):
    """A float64 model of the sizes the train-short benchmark trains."""
    config = ModelConfig(
        encoder=EncoderConfig(layers=2, heads=2, d_content=64, d_position=32,
                              d_prosody=32, d_ff=128, dropout=0.1, max_len=40),
        cnn=CnnConfig(widths=(3, 5), filters_per_width=8),
        span_hidden=64,
    )
    tiny = build_tiny_model(sentences, dtype=np.float64, emb_dim=32)
    return ParserModel(config, tiny.provider, tiny.label_vocab, seed=3, dtype=np.float64)


class TestPackedBucket:
    """One packed bucket against buckets of one, in float64 with dropout on."""

    @pytest.fixture(params=["tiny", "train-short-sized"])
    def model(self, request, featurized_corpus):
        sents = featurized_corpus.sentences
        if request.param == "tiny":
            return build_tiny_model(sents, dtype=np.float64, dropout=0.1)
        return short_sized_model(sents)

    @staticmethod
    def run(model, monkeypatch, sents, seeds):
        """Each sentence's loss, rng draws and dropout keep masks, and the
        parameter gradients of the batch's loss, from one tape."""
        masks = []
        real = ag.dropout

        def spy(x, rate, lengths=None):
            out = real(x, rate, lengths)
            masks.append(out.value != 0)
            return out

        monkeypatch.setattr(ag, "dropout", spy)
        rngs = [RecordingRng(seed) for seed in seeds]
        tape = ag.Tape(rngs=rngs, train=True, dtype=np.float64)
        for p in model.parameters():
            p.grad[...] = 0
        loss, infos = model.batch_loss(tape, sents)
        tape.backward(loss)
        monkeypatch.undo()
        grads = [p.grad.copy() for p in model.parameters()]
        return [info.loss for info in infos], [r.draws for r in rngs], masks, grads

    def test_losses_gradients_and_masks_match_buckets_of_one(
        self, model, featurized_corpus, monkeypatch
    ):
        # lengths 1 to 6, several sentences of each but the shortest
        batch = sorted(featurized_corpus.sentences[:10], key=len)
        seeds = [(7, i) for i in range(len(batch))]
        starts = np.cumsum([0] + [len(s) for s in batch])
        packed = self.run(model, monkeypatch, batch, seeds)
        summed = [np.zeros_like(g) for g in packed[3]]
        for i, sent in enumerate(batch):
            alone = self.run(model, monkeypatch, [sent], seeds[i : i + 1])
            assert packed[0][i] == pytest.approx(alone[0][0], rel=1e-9)
            assert [d.tobytes() for d in packed[1][i]] == [d.tobytes() for d in alone[1][0]]
            assert len(packed[2]) == len(alone[2]) == 8
            for p_mask, a_mask in zip(packed[2], alone[2]):
                assert p_mask[starts[i] : starts[i + 1]].tobytes() == a_mask.tobytes()
            for total, a_grad in zip(summed, alone[3]):
                total += a_grad
        # the batch's gradient is the sum of its sentences' gradients alone
        for p, p_grad, want in zip(model.parameters(), packed[3], summed):
            scale = max(np.abs(want).max(), 1e-12)
            assert np.abs(p_grad - want).max() <= 1e-6 * scale, p.name
        assert sum(loss > 0.0 for loss in packed[0]) >= 8


class TestCheckpoints:
    def test_round_trip_identical_scores(self, featurized_corpus, tmp_path):
        sents = featurized_corpus.sentences
        model = build_tiny_model(sents)
        path = tmp_path / "m.ckpt"
        model.save(path, extra_meta={"seed": 3})
        back, meta = ParserModel.load(path)
        assert meta["seed"] == 3
        sent = sents[0]
        np.testing.assert_array_equal(
            sent_scores(model, sent).matrix.value, sent_scores(back, sent).matrix.value
        )

    def test_config_dict_round_trip(self):
        cfg = ModelConfig(
            encoder=EncoderConfig(layers=3, heads=2, d_content=20, d_position=6,
                                  d_prosody=0, d_ff=40, dropout=0.3, max_len=77),
            cnn=CnnConfig(widths=(2, 7), filters_per_width=5),
            span_hidden=19,
        )
        assert ModelConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

    def test_saved_model_meta_is_pinned(self, featurized_corpus, tmp_path):
        path = tmp_path / "m.ckpt"
        build_tiny_model(featurized_corpus.sentences).save(path)
        _, meta = ParserModel.load(path)
        assert meta["model"] == {
            "encoder": {
                "layers": 2, "heads": 2, "d_content": 16, "d_position": 8,
                "d_prosody": 8, "d_ff": 32, "dropout": 0.0, "max_len": 40,
            },
            "cnn": {"widths": [3, 5], "filters_per_width": 4},
            "span_hidden": 24,
        }

    def test_architecture_mismatch_lists_shapes(self, featurized_corpus, tmp_path):
        sents = featurized_corpus.sentences
        model = build_tiny_model(sents)
        path = tmp_path / "m.ckpt"
        model.save(path)
        meta, tensors = read_tensors(path)
        meta["model"]["span_hidden"] = 48  # widens span.w1/w2
        write_tensors(path, tensors, meta)
        with pytest.raises(CheckpointError, match="span.w1"):
            ParserModel.load(path)

    def test_model_requires_prosody_features(self, featurized_corpus):
        sents = featurized_corpus.sentences
        model = build_tiny_model(sents, prosody=True)
        bare = type(sents[0])(
            sentence_id="bare", tokens=sents[0].tokens, tree=sents[0].tree,
            gold_spans=sents[0].gold_spans, prosody=None,
        )
        with pytest.raises(DataError):
            sent_scores(model, bare)

    def test_missing_extra_and_reshaped_tensors_are_all_named(self, featurized_corpus, tmp_path):
        path = tmp_path / "m.ckpt"
        build_tiny_model(featurized_corpus.sentences).save(path)
        meta, tensors = read_tensors(path)
        del tensors["encoder.layer1.ff.b1"]
        tensors["encoder.layer9.ff.b1"] = np.zeros(3, np.float32)
        tensors["span.b2"] = tensors["span.b2"][:-1]
        write_tensors(path, tensors, meta)
        with pytest.raises(CheckpointError) as err:
            ParserModel.load(path)
        message = str(err.value)
        assert "missing=['encoder.layer1.ff.b1']" in message
        assert "extra=['encoder.layer9.ff.b1']" in message
        assert "span.b2: checkpoint" in message

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_load_and_clone_copy_every_bit(self, featurized_corpus, tmp_path, dtype):
        model = build_tiny_model(featurized_corpus.sentences)
        path = tmp_path / "m.ckpt"
        model.save(path)
        loaded, _ = ParserModel.load(path, dtype=dtype)
        twin = clone_model(model, dtype=dtype)
        want = [(p.name, p.value.astype(dtype).tobytes()) for p in model.parameters()]
        for copy in (loaded, twin):
            assert copy.dtype == dtype
            assert [(p.name, p.value.tobytes()) for p in copy.parameters()] == want
        # a clone owns its arrays, even at the source's dtype
        same = clone_model(model)
        for p, q in zip(same.parameters(), model.parameters()):
            assert not np.shares_memory(p.value, q.value)

    def test_load_and_clone_draw_nothing(self, featurized_corpus, tmp_path, monkeypatch):
        model = build_tiny_model(featurized_corpus.sentences)
        path = tmp_path / "m.ckpt"
        model.save(path)
        inits = []
        made = ag.Init.__init__

        def recording(self, *args, **kwargs):
            made(self, *args, **kwargs)
            inits.append(self)

        def no_generator(*args, **kwargs):
            raise AssertionError("a random generator was made")

        monkeypatch.setattr(ag.Init, "__init__", recording)
        monkeypatch.setattr(np.random, "default_rng", no_generator)
        loaded, _ = ParserModel.load(path)
        clone_model(loaded, dtype=np.float64)
        assert len(inits) == 2 and all(init.rng is None for init in inits)


def _edit(path, value):
    """Checkpoint metadata edit: set the value at ``path`` (keys joined by
    dots), or delete the key when ``value`` is DELETE."""
    def apply(meta):
        *parents, key = path.split(".")
        for k in parents:
            meta = meta[k]
        if value is DELETE:
            del meta[key]
        else:
            meta[key] = value(meta[key]) if callable(value) else value
    return apply


DELETE = object()
METADATA_EDITS = {
    "dim-text": _edit("embedding.dim", "8"),
    "dim-zero": _edit("embedding.dim", 0),
    "dim-float": _edit("embedding.dim", 12.0),
    "dim-bool": _edit("embedding.dim", True),
    "dim-wrong": _edit("embedding.dim", 13),
    "dim-gone": _edit("embedding.dim", DELETE),
    "words-null": _edit("embedding.words", None),
    "words-text": _edit("embedding.words", "abc"),
    "words-ints": _edit("embedding.words", lambda w: [0] + w[1:]),
    "words-empty": _edit("embedding.words", []),
    "words-repeated": _edit("embedding.words", lambda w: w + w[-1:]),
    "words-reversed": _edit("embedding.words", lambda w: w[:1] + w[:0:-1]),
    "mode-unknown": _edit("embedding.mode", "glove"),
    "mode-list": _edit("embedding.mode", ["learned"]),
    "mode-frozen": _edit("embedding.mode", "frozen"),
    "mode-finetuned": _edit("embedding.mode", "finetuned"),
    "embedding-null": _edit("embedding", None),
    "labels-null": _edit("labels", None),
    "labels-text": _edit("labels", "S"),
    "labels-ints": _edit("labels", lambda ls: ls[:1] + [7] + ls[2:]),
    "labels-empty": _edit("labels", []),
    "labels-reversed": _edit("labels", lambda ls: ls[:1] + ls[:0:-1]),
    "labels-gone": _edit("labels", DELETE),
    "model-null": _edit("model", None),
    "layers-text": _edit("model.encoder.layers", "2"),
    "layers-more": _edit("model.encoder.layers", 3),
    "dropout-text": _edit("model.encoder.dropout", "0.1"),
    "text-only": _edit("model.encoder.d_prosody", 0),
    "encoder-extra-key": _edit("model.encoder.depth", 2),
    "widths-empty": _edit("model.cnn.widths", []),
    "widths-int": _edit("model.cnn.widths", 3),
    "span-hidden-text": _edit("model.span_hidden", "24"),
    "kind": _edit("kind", "tree"),
    "version": _edit("version", 2),
}


@pytest.mark.parametrize("edit", METADATA_EDITS.values(), ids=METADATA_EDITS.keys())
def test_edited_checkpoint_metadata_loads_or_is_checkpoint_error(featurized_corpus, tmp_path,
                                                                  edit):
    path = tmp_path / "m.ckpt"
    build_tiny_model(featurized_corpus.sentences).save(path)
    meta, tensors = read_tensors(path)
    edit(meta)
    write_tensors(path, tensors, meta)
    try:
        ParserModel.load(path)
    except CheckpointError:
        pass


class TestParameterInit:
    @pytest.mark.parametrize("prosody", [True, False], ids=["prosody", "text-only"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("seed,widths", [(0, (3, 5, 10)), (7, (1,)), (123, (2, 9, 4))])
    def test_fresh_parameters_equal_oracle(self, prosody, dtype, seed, widths):
        config = ModelConfig(
            encoder=EncoderConfig(layers=2, heads=2, d_content=12, d_position=8,
                                  d_prosody=8 if prosody else 0, d_ff=20, max_len=30),
            cnn=CnnConfig(widths=widths, filters_per_width=3),
            span_hidden=10,
        )
        provider = EmbeddingProvider.frozen(VectorStore(dim=6))
        labels = LabelVocab(["S", "NP", "VP"])
        model = ParserModel(config, provider, labels, seed=seed, dtype=dtype)
        got = [(p.name, p.value.dtype, p.value.tobytes()) for p in model.parameters()]
        want = [
            (name, value.dtype, value.tobytes())
            for name, value in oracle_parameters(config, 6, len(labels), seed, dtype)
        ]
        assert got == want
