import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mul, sum_all, synthetic_vector_store, write_vector_store
from prosoparse import autograd as ag
from prosoparse.embeddings import EmbeddingProvider, load_vector_store, load_word_vectors
from prosoparse.errors import AlignmentError, DataError, FormatError
from prosoparse.synthdata import overfit_corpus
from prosoparse.tensorfile import read_tensors, write_tensors


def store_text(tmp_path, text):
    path = tmp_path / "store.vec"
    path.write_text(text)
    return path


class TestVectorStore:
    def test_load_basic(self, tmp_path):
        path = store_text(
            tmp_path,
            "dim=3 producer=test\n"
            "sentence s1 2\n1 2 3\n4 5 6\n"
            "sentence s2 1\n7 8 9\n",
        )
        store = load_vector_store(path)
        assert store.dim == 3 and len(store) == 2
        np.testing.assert_allclose(store.sentences["s1"][1], [4, 5, 6])

    def test_dim_mismatch_rejected(self, tmp_path):
        path = store_text(
            tmp_path, "dim=3 producer=test\nsentence s1 1\n1 2 3 4\n"
        )
        with pytest.raises(FormatError, match="dims"):
            load_vector_store(path)

    @pytest.mark.parametrize(
        "text, where",
        [
            ("dim=three\nsentence s1 1\n1 2 3\n", ":1: dim"),
            ("dim=3\n\nsentence s1 two\n1 2 3\n", ":3: row count"),
            ("dim=3\nsentence s1 1\n1 2 x\n", ":3: non-numeric"),
            # a negative count used to send the reader back a line, forever
            ("dim=3\nsentence s1 -1\n", ":2: row count"),
        ],
        ids=["dim", "count", "value", "negative-count"],
    )
    def test_non_numeric_fields_are_format_errors(self, tmp_path, text, where):
        path = store_text(tmp_path, text)
        with pytest.raises(FormatError, match=f"store.vec{where}"):
            load_vector_store(path)

    def test_empty_file_warns(self, tmp_path):
        path = store_text(tmp_path, "")
        with pytest.warns(UserWarning):
            store = load_vector_store(path)
        assert len(store) == 0

    def test_round_trip(self, tmp_path):
        corpus = overfit_corpus(n_sentences=5)
        store = synthetic_vector_store(corpus.sentences, dim=8)
        path = tmp_path / "s.vec"
        write_vector_store(path, store)
        back = load_vector_store(path)
        assert back.dim == 8
        for sid, mat in store.sentences.items():
            np.testing.assert_allclose(back.sentences[sid], mat, atol=1e-5)


class TestProviders:
    def sentences(self):
        return [["the", "cat", "runs"], ["the", "dog", "runs"], ["a", "cat", "sleeps"]]

    def test_learned_oov_maps_to_unk(self):
        prov = EmbeddingProvider.learned(self.sentences(), dim=8, min_count=2)
        assert "cat" in prov.vocab and "dog" not in prov.vocab  # count 1 < 2
        tape = ag.Tape()
        out = prov.embed(tape, ["x"], [["cat", "zebra"]])
        np.testing.assert_array_equal(out.value[1], prov.table.value[0])  # UNK row

    def test_frozen_identical_calls_and_no_grad(self):
        corpus = overfit_corpus(n_sentences=4)
        store = synthetic_vector_store(corpus.sentences, dim=6)
        prov = EmbeddingProvider.frozen(store)
        sent = corpus.sentences[0]
        t1, t2 = ag.Tape(), ag.Tape()
        a = prov.embed(t1, [sent.sentence_id], [sent.words])
        b = prov.embed(t2, [sent.sentence_id], [sent.words])
        np.testing.assert_array_equal(a.value, b.value)
        assert list(prov.parameters()) == []

    def test_frozen_missing_sentence(self):
        corpus = overfit_corpus(n_sentences=3)
        store = synthetic_vector_store(corpus.sentences[:2], dim=6)
        prov = EmbeddingProvider.frozen(store)
        missing = corpus.sentences[2]
        with pytest.raises(DataError, match="missing"):
            prov.embed(ag.Tape(), [missing.sentence_id], [missing.words])

    def test_frozen_token_count_mismatch(self):
        corpus = overfit_corpus(n_sentences=2)
        store = synthetic_vector_store(corpus.sentences, dim=6)
        prov = EmbeddingProvider.frozen(store)
        sent = corpus.sentences[0]
        with pytest.raises(AlignmentError, match=sent.sentence_id):
            prov.embed(ag.Tape(), [sent.sentence_id], [sent.words + ["extra"]])

    def test_finetuned_rows_update_only_for_used_words(self, tmp_path):
        path = tmp_path / "glove.txt"
        path.write_text("cat 1 0\ndog 0 1\nbird 1 1\n")
        prov = EmbeddingProvider.finetuned(path)
        before = prov.table.value.copy()
        tape = ag.Tape()
        out = prov.embed(tape, ["x"], [["cat", "cat"]])
        loss = sum_all(mul(out, out))
        tape.backward(loss)
        prov.table.value -= 0.1 * prov.table.grad
        cat_row = prov.vocab.index_or_unk("cat")
        dog_row = prov.vocab.index_or_unk("dog")
        assert not np.allclose(prov.table.value[cat_row], before[cat_row])
        np.testing.assert_array_equal(prov.table.value[dog_row], before[dog_row])

    def test_word_vector_dim_mismatch(self, tmp_path):
        path = tmp_path / "glove.txt"
        path.write_text("cat 1 0\ndog 0 1 2\n")
        with pytest.raises(FormatError):
            load_word_vectors(path)

    def test_word_vector_non_numeric_value(self, tmp_path):
        path = tmp_path / "glove.txt"
        path.write_text("cat 1 0\ndog 0 one\n")
        with pytest.raises(FormatError, match="glove.txt:2: non-numeric"):
            load_word_vectors(path)

    def test_unk_dropout_only_in_training(self):
        prov = EmbeddingProvider.learned(self.sentences(), dim=4, min_count=1)
        words = ["the", "cat", "runs"] * 200
        out_eval = prov.embed(ag.Tape(train=False), ["x"], [words])
        unk_row = prov.table.value[0]
        assert not any(np.array_equal(row, unk_row) for row in out_eval.value)
        # training replaces exactly the tokens whose rng draw falls under p
        out_train = prov.embed(
            ag.Tape(rngs=[np.random.default_rng(0)], train=True), ["x"], [words]
        )
        dropped = np.random.default_rng(0).random(len(words)) < 0.01
        assert dropped.any()
        for i, hit in enumerate(dropped):
            if hit:
                np.testing.assert_array_equal(out_train.value[i], unk_row)
            else:
                np.testing.assert_array_equal(out_train.value[i], out_eval.value[i])


class TestProviderSwap:
    def test_swapping_providers_leaves_prosody_features_untouched(self, featurized_corpus):
        import hashlib

        def feature_hash(sentences):
            h = hashlib.sha256()
            for s in sentences:
                p = s.prosody
                h.update(p.pause_before.tobytes())
                h.update(p.pause_after.tobytes())
                h.update(p.duration_scalars.tobytes())
                h.update(p.frames.tobytes())
                h.update(p.mask.tobytes())
                h.update(p.patch_lens.tobytes())
            return h.hexdigest()

        sents = featurized_corpus.sentences
        before = feature_hash(sents)
        learned = EmbeddingProvider.learned([s.words for s in sents], dim=8, min_count=1)
        frozen = EmbeddingProvider.frozen(synthetic_vector_store(sents, dim=8))
        tape = ag.Tape()
        e1 = learned.embed(tape, [sents[0].sentence_id], [sents[0].words])
        e2 = frozen.embed(tape, [sents[0].sentence_id], [sents[0].words])
        assert not np.array_equal(e1.value, e2.value)  # e_i does change
        assert feature_hash(sents) == before  # phi/s inputs do not


class TestTensorFile:
    def test_round_trip_and_meta(self, tmp_path):
        path = tmp_path / "t.bin"
        arrays = {
            "a": np.arange(6, dtype=np.float32).reshape(2, 3),
            "b": np.array([1, 2, 3], dtype=np.int64),
            "c": np.array([True, False]),
        }
        write_tensors(path, arrays, meta={"k": "v"})
        meta, back = read_tensors(path)
        assert meta == {"k": "v"}
        for name, arr in arrays.items():
            np.testing.assert_array_equal(back[name], arr)

    def test_bit_stable(self, tmp_path):
        arrays = {"x": np.random.default_rng(0).standard_normal((4, 4)).astype(np.float32)}
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        write_tensors(p1, arrays, meta={"n": 1})
        write_tensors(p2, arrays, meta={"n": 1})
        assert p1.read_bytes() == p2.read_bytes()

    def test_bytes_pinned(self, tmp_path):
        path = tmp_path / "t.bin"
        a = np.array([[1.5, -2.0]], dtype=np.float32)
        write_tensors(path, {"b": np.array([True]), "a": a}, meta={"k": 1})
        assert path.read_bytes() == (
            b"prosoparse-tensors 1\n"
            b'{"meta":{"k":1},"tensors":[{"dtype":"<f4","name":"a","shape":[1,2]},'
            b'{"dtype":"|b1","name":"b","shape":[1]}]}\n'
            + a.astype("<f4").tobytes()
            + b"\x01"
        )

    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch):
        from prosoparse import tensorfile

        path = tmp_path / "t.bin"
        write_tensors(path, {"a": np.ones((4, 4), dtype=np.float32)})
        before = path.read_bytes()

        class FailAfterHeader:
            """File whose writes fail once the magic and metadata lines are out."""

            def __init__(self, fh):
                self.fh, self.writes = fh, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.writes += 1
                if self.writes > 3:
                    raise OSError(28, "No space left on device")
                return self.fh.write(data)

        monkeypatch.setattr(
            tensorfile, "open", lambda p, mode: FailAfterHeader(open(p, mode)), raising=False
        )
        with pytest.raises(OSError, match="No space"):
            write_tensors(path, {"a": np.zeros((8, 8), dtype=np.float32)})
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.bin"]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"not a tensor file\n{}\n")
        with pytest.raises(FormatError):
            read_tensors(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "t.bin"
        write_tensors(path, {"a": np.ones((4, 4), dtype=np.float32)})
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(FormatError, match="truncated"):
            read_tensors(path)

    @pytest.mark.parametrize(
        "blob",
        [
            b"prosoparse-tensors x\n{}\n",
            b'prosoparse-tensors 1\n{"meta":{}}\n',
            b"prosoparse-tensors 1\n[1, 2]\n",
            b'prosoparse-tensors 1\n{"meta":[],"tensors":[]}\n',
            b'prosoparse-tensors 1\n{"tensors":[{"dtype":"<f4","shape":[1]}]}\n\0\0\0\0',
            b'prosoparse-tensors 1\n{"tensors":[{"name":"a","dtype":"<f4","shape":["1"]}]}\n',
            b'prosoparse-tensors 1\n{"tensors":[{"name":"a","dtype":"<f2","shape":[]}]}\n',
            b'prosoparse-tensors 1\n{"tensors":[{"name":"a","dtype":"<f4","shape":[1]},'
            b'{"name":"a","dtype":"<f4","shape":[1]}]}\n' + bytes(8),
            b'prosoparse-tensors 1\n{"tensors":[{"name":"a","dtype":"<f4","shape":[1]}]}\n'
            + bytes(5),
        ],
        ids=[
            "version", "no-index", "list-header", "meta-not-object", "entry-no-name",
            "shape-not-int", "dtype", "duplicate-name", "trailing-bytes",
        ],
    )
    def test_malformed_container(self, tmp_path, blob):
        path = tmp_path / "bad.bin"
        path.write_bytes(blob)
        with pytest.raises(FormatError):
            read_tensors(path)

    @given(st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 255)), max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_mutated_file_loads_or_is_format_error(self, tmp_path_factory, edits):
        path = tmp_path_factory.getbasetemp() / "mutated.bin"
        arrays = {
            "a.x": np.arange(6, dtype=np.float32).reshape(2, 3),
            "b": np.array([1, 2], dtype=np.int64),
            "c": np.array(True),
        }
        write_tensors(path, arrays, meta={"sentence_ids": ["s1"]})
        data = bytearray(path.read_bytes())
        for pos, byte in edits:
            data[pos % len(data)] = byte
        path.write_bytes(bytes(data))
        try:
            read_tensors(path)
        except FormatError:
            pass
