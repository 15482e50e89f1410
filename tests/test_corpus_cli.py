import shutil
from dataclasses import replace

import numpy as np
import pytest
import yaml
from conftest import extract_frame_patch, synthetic_vector_store, write_vector_store

from prosoparse import cli
from prosoparse import corpus as corpus_mod
from prosoparse import embeddings, training
from prosoparse.corpus import content_hash, load_feature_cache, save_feature_cache
from prosoparse.errors import FormatError
from prosoparse.model import ParserModel
from prosoparse.prosody import (
    normalize_speaker,
    read_alignment_file,
    read_frame_track_file,
    write_alignment_file,
    write_frame_track_file,
)
from prosoparse.synthdata import overfit_corpus, write_corpus
from prosoparse.tensorfile import read_tensors, write_tensors
from prosoparse.treebank import read_tree_file, write_tree_file


def _first_len(lens, n):
    lens = lens.copy()
    lens[1] += lens[0] - n  # the sum still matches the stored frames
    lens[0] = n
    return lens


# each rewrites the first sentence's tensors in a saved feature cache:
# damage name -> (edit of {suffix: array}, expected error text)
CACHE_DAMAGE = {
    "missing-tensor": (lambda t: t.pop("mask"), "lacks tensors"),
    "negative-length": (
        lambda t: t.update(patch_lens=_first_len(t["patch_lens"], -1)),
        "not positive frame counts",
    ),
    "zero-length": (
        lambda t: t.update(patch_lens=_first_len(t["patch_lens"], 0)),
        "not positive frame counts",
    ),
    "lens-exceed-frames": (
        lambda t: t.update(patch_lens=t["patch_lens"] + 1000), "sum to"
    ),
    "mask-shorter": (lambda t: t.update(mask=t["mask"][:-1]), "sum to"),
    "pause-length": (lambda t: t.update(pause_after=t["pause_after"][:-1]), "pause arrays"),
}


def damage_cache(path, damage, sid):
    """Rewrite a saved cache with one sentence's tensors damaged; returns the
    error text loading it should give."""
    meta, tensors = read_tensors(path)
    mine = {k.split(".", 1)[1]: v for k, v in tensors.items() if k.startswith(f"{sid}.")}
    edit, expected = CACHE_DAMAGE[damage]
    edit(mine)
    tensors = {k: v for k, v in tensors.items() if not k.startswith(f"{sid}.")}
    tensors.update({f"{sid}.{k}": v for k, v in mine.items()})
    write_tensors(path, tensors, meta)
    return expected


class TestFeaturize:
    def test_attaches_prosody_everywhere(self, featurized_corpus):
        for sent in featurized_corpus.sentences:
            p = sent.prosody
            assert p is not None
            assert len(p.patch_lens) == len(sent)
            assert p.frames.shape == (p.patch_lens.sum(), 2)
            assert p.duration_scalars.shape == (len(sent), 2)

    def test_cache_round_trip(self, featurized_corpus, tmp_path):
        sents = featurized_corpus.sentences
        path = tmp_path / "feat.bin"
        save_feature_cache(path, sents, meta={"content_hash": "h"})
        stripped = [type(s)(sentence_id=s.sentence_id, tokens=s.tokens, tree=s.tree,
                            gold_spans=s.gold_spans) for s in sents]
        meta = load_feature_cache(path, stripped)
        assert meta["content_hash"] == "h"
        for a, b in zip(sents, stripped):
            for field in ("pause_before", "frames", "mask", "patch_lens"):
                np.testing.assert_array_equal(
                    getattr(a.prosody, field), getattr(b.prosody, field)
                )

    def test_cache_of_per_word_patches_loads_unchanged(self, featurized_corpus, tmp_path):
        # a cache as written when each word's patch was a separate array: the
        # patches concatenated on save, with one frame count per patch
        data = featurized_corpus
        tracks, _ = normalize_speaker(data.tracks)
        tensors = {}
        for sent in data.sentences:
            sid, p = sent.sentence_id, sent.prosody
            patches = [
                extract_frame_patch(tracks[ali.speaker_id], ali)
                for ali in data.alignments[sid]
            ]
            tensors[f"{sid}.pause_before"] = p.pause_before
            tensors[f"{sid}.pause_after"] = p.pause_after
            tensors[f"{sid}.dur"] = p.duration_scalars
            tensors[f"{sid}.frames"] = np.concatenate([f for f, _ in patches], axis=0)
            tensors[f"{sid}.mask"] = np.concatenate([m for _, m in patches])
            tensors[f"{sid}.patch_lens"] = np.array([len(f) for f, _ in patches], np.int64)
        old, new = tmp_path / "old.bin", tmp_path / "new.bin"
        ids = [s.sentence_id for s in data.sentences]
        write_tensors(old, tensors, {"content_hash": "h", "sentence_ids": ids})
        save_feature_cache(new, data.sentences, meta={"content_hash": "h"})
        assert old.read_bytes() == new.read_bytes()
        stripped = [type(s)(sentence_id=s.sentence_id, tokens=s.tokens) for s in data.sentences]
        load_feature_cache(old, stripped)
        for a, b in zip(data.sentences, stripped):
            for field in ("pause_before", "pause_after", "duration_scalars", "frames",
                          "mask", "patch_lens"):
                want, got = getattr(a.prosody, field), getattr(b.prosody, field)
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)

    def test_cache_bit_stable(self, featurized_corpus, tmp_path):
        sents = featurized_corpus.sentences
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_feature_cache(p1, sents, meta={"content_hash": "h"})
        save_feature_cache(p2, sents, meta={"content_hash": "h"})
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("damage", sorted(CACHE_DAMAGE))
    def test_malformed_cache_is_format_error(self, featurized_corpus, tmp_path, damage):
        sents = featurized_corpus.sentences
        path = tmp_path / "feat.bin"
        save_feature_cache(path, sents, meta={"content_hash": "h"})
        sid = sents[0].sentence_id
        expected = damage_cache(path, damage, sid)
        stripped = [type(s)(sentence_id=s.sentence_id, tokens=s.tokens) for s in sents]
        with pytest.raises(FormatError, match=f"{sid}'.*{expected}"):
            load_feature_cache(path, stripped)

    def test_content_hash_sensitive(self, tmp_path):
        f = tmp_path / "x"
        f.write_text("abc")
        h1 = content_hash([f], extra="p1")
        assert h1 == content_hash([f], extra="p1")
        assert h1 != content_hash([f], extra="p2")
        f.write_text("abd")
        assert h1 != content_hash([f], extra="p1")


@pytest.fixture(scope="module")
def cli_workspace(tmp_path_factory):
    """Synthetic corpus written as train/dev/test files plus a config."""
    root = tmp_path_factory.mktemp("cliws")
    data = overfit_corpus(n_sentences=24, seed=5)
    corpus_dir = root / "corpus"
    write_corpus(data, corpus_dir, splits={"train": 16, "dev": 4, "test": 4})
    write_tree_file(corpus_dir / "all.trees", [s.tree for s in data.sentences])

    cfg = {
        "data": {
            "train_trees": str(corpus_dir / "train.trees"),
            "dev_trees": str(corpus_dir / "dev.trees"),
            "test_trees": str(corpus_dir / "test.trees"),
            "alignments": str(corpus_dir / "alignments.tsv"),
            "frame_tracks": str(corpus_dir / "tracks"),
        },
        "model": {
            "encoder": {
                "layers": 1, "heads": 2, "d_content": 16, "d_position": 8,
                "d_prosody": 8, "d_ff": 16, "dropout": 0.0, "max_len": 30,
            },
            "cnn": {"widths": [3], "filters_per_width": 4},
            "span_hidden": 16,
            "embedding": {"mode": "learned", "dim": 8, "min_count": 1},
        },
        "train": {
            "seeds": [1], "batch_size": 8, "learning_rate": 0.004,
            "warmup_steps": 8, "max_epochs": 2, "patience": 3,
        },
        "eval": {"n_resamples": 500},
        "output_dir": str(root / "run1"),
    }
    cfg_path = root / "exp.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg))
    return {"root": root, "config": cfg_path, "corpus": corpus_dir, "raw": cfg}


@pytest.fixture(scope="module")
def trained_run1(cli_workspace):
    """The workspace config's run directory, trained once, on first use."""
    assert cli.main(["train", "--config", str(cli_workspace["config"])]) == 0
    return cli_workspace["root"] / "run1"


@pytest.fixture(scope="module")
def parsed_all(cli_workspace, trained_run1):
    """run1's seed-1 parses of every workspace tree, written once, on first use."""
    out = cli_workspace["root"] / "pred.trees"
    rc = cli.main([
        "parse", "--config", str(cli_workspace["config"]),
        "--checkpoint", str(trained_run1 / "seed1" / "best.ckpt"),
        "--input", str(cli_workspace["corpus"] / "all.trees"),
        "--output", str(out),
    ])
    assert rc == 0
    return out


def write_cfg(ws, updates, name):
    raw = yaml.safe_load(ws["config"].read_text())

    def deep_update(dst, src):
        for k, v in src.items():
            if isinstance(v, dict) and isinstance(dst.get(k), dict):
                deep_update(dst[k], v)
            else:
                dst[k] = v

    deep_update(raw, updates)
    path = ws["root"] / name
    path.write_text(yaml.safe_dump(raw))
    return path


class TestCliWorkflow:
    def test_features_cacheable_and_bit_stable(self, cli_workspace):
        ws = cli_workspace
        rc = cli.main(["features", "--config", str(ws["config"])])
        assert rc == 0
        cache = ws["root"] / "run1" / "features.bin"
        first = cache.read_bytes()
        assert cli.main(["features", "--config", str(ws["config"])]) == 0
        assert cache.read_bytes() == first

    def test_features_cache_key_is_pinned(self, cli_workspace, tmp_path):
        # renaming or reordering the key's constants would make every
        # existing feature cache stale
        ws = cli_workspace
        cfg = write_cfg(ws, {"output_dir": str(tmp_path / "run")}, "exp_key.yaml")
        assert cli.main(["features", "--config", str(cfg)]) == 0
        meta, _ = read_tensors(tmp_path / "run" / "features.bin")
        corpus = ws["corpus"]
        paths = [corpus / "alignments.tsv"] + sorted((corpus / "tracks").glob("*.csv"))
        assert meta["content_hash"] == content_hash(paths, extra="1:0.12:100")

    def test_sentence_of_two_speakers_is_data_error(self, cli_workspace, tmp_path, capsys):
        ws = cli_workspace
        alignments = read_alignment_file(ws["corpus"] / "alignments.tsv")
        sid, alis = next(iter(alignments.items()))
        speaker = alis[0].speaker_id
        other = next(a.speaker_id for b in alignments.values() for a in b
                     if a.speaker_id != speaker)
        alis[-1] = replace(alis[-1], speaker_id=other)
        path = tmp_path / "alignments.tsv"
        write_alignment_file(path, alignments)
        updates = {"data": {"alignments": str(path)}, "output_dir": str(tmp_path / "run")}
        cfg = write_cfg(ws, updates, "exp_two_speakers.yaml")
        capsys.readouterr()
        assert cli.main(["features", "--config", str(cfg)]) == cli.EXIT_DATA
        assert capsys.readouterr().err == (
            f"data error: sentence {sid!r}: words of speakers {speaker!r} and "
            f"{other!r}; a sentence has one speaker\n"
        )

    def test_fine_tune_reads_the_vector_store_once(self, cli_workspace, tmp_path,
                                                    monkeypatch):
        ws = cli_workspace
        store = tmp_path / "store.vec"
        frozen = {"data": {"vector_store": str(store)},
                  "model": {"embedding": {"mode": "frozen"}}, "train": {"max_epochs": 1}}
        cfg = write_cfg(ws, {**frozen, "output_dir": str(tmp_path / "run")}, "frozen.yaml")
        corpora, dev, test = cli._load_corpora(cli.load_config(str(cfg)))
        write_vector_store(store, synthetic_vector_store(corpora[0] + dev + test, dim=8))
        assert cli.main(["train", "--config", str(cfg)]) == 0
        reads = []
        real = embeddings.load_vector_store
        monkeypatch.setattr(embeddings, "load_vector_store",
                            lambda path: reads.append(path) or real(path))
        cfg = write_cfg(ws, {**frozen, "output_dir": str(tmp_path / "ft")}, "frozen_ft.yaml")
        ckpt = tmp_path / "run" / "seed1" / "best.ckpt"
        assert cli.main(["train", "--config", str(cfg), "--fine-tune-from", str(ckpt)]) == 0
        assert reads == [str(store)]

    def test_multi_seed_frozen_train_reads_the_vector_store_once(self, cli_workspace,
                                                                   tmp_path, monkeypatch):
        ws = cli_workspace
        store = tmp_path / "store.vec"
        cfg = write_cfg(ws, {"data": {"vector_store": str(store)},
                             "model": {"embedding": {"mode": "frozen"}},
                             "train": {"max_epochs": 1, "seeds": [1, 2, 3]},
                             "output_dir": str(tmp_path / "run")}, "frozen3.yaml")
        corpora, dev, test = cli._load_corpora(cli.load_config(str(cfg)))
        write_vector_store(store, synthetic_vector_store(corpora[0] + dev + test, dim=8))
        reads = []
        real = embeddings.load_vector_store

        def counted(path):
            reads.append(path)
            return real(path)

        monkeypatch.setattr(embeddings, "load_vector_store", counted)
        monkeypatch.setattr(training, "load_vector_store", counted)
        assert cli.main(["train", "--config", str(cfg)]) == 0
        assert reads == [str(store)]
        for seed in (1, 2, 3):
            assert (tmp_path / "run" / f"seed{seed}" / "best.ckpt").exists()

    def test_train_writes_run_artifacts(self, cli_workspace, trained_run1):
        ws = cli_workspace
        run = trained_run1
        assert (run / "config.yaml").read_text() == ws["config"].read_text()
        assert (run / "seed1" / "metrics.log").exists()
        assert (run / "seed1" / "best.ckpt").exists()
        assert (run / "summary.tsv").exists()
        assert (run / "median.tsv").exists()
        assert (run / "test_predictions.trees").exists()

    def test_unvoiced_speaker_warns_and_the_run_succeeds(self, cli_workspace, tmp_path,
                                                         capsys):
        ws = cli_workspace
        tracks = tmp_path / "tracks"
        shutil.copytree(ws["corpus"] / "tracks", tracks)
        unvoiced = sorted(tracks.glob("*.csv"))[0]
        track = read_frame_track_file(unvoiced)
        write_frame_track_file(unvoiced, replace(track, f0=np.zeros_like(track.f0)))
        run = tmp_path / "run"
        updates = {"data": {"frame_tracks": str(tracks)}, "output_dir": str(run),
                   "train": {"max_epochs": 1}}
        cfg = write_cfg(ws, updates, "unvoiced.yaml")
        capsys.readouterr()
        assert cli.main(["train", "--config", str(cfg)]) == 0
        warning = (f"warning: speaker {unvoiced.stem!r} has no voiced frames; "
                   "f0 left unscaled")
        assert warning in capsys.readouterr().err.splitlines()
        assert "warning" not in (run / "seed1" / "metrics.log").read_text()

    def test_train_reruns_identical_logs(self, cli_workspace, trained_run1):
        ws = cli_workspace
        run1_log = (trained_run1 / "seed1" / "metrics.log").read_bytes()
        cfg2 = write_cfg(ws, {"output_dir": str(ws["root"] / "run2")}, "exp2.yaml")
        assert cli.main(["train", "--config", str(cfg2)]) == 0
        run2_log = (ws["root"] / "run2" / "seed1" / "metrics.log").read_bytes()
        assert run1_log == run2_log

    def test_parse_preserves_order_and_matches_files(self, cli_workspace, parsed_all):
        ws = cli_workspace
        preds = read_tree_file(parsed_all)
        golds = read_tree_file(ws["corpus"] / "all.trees")
        assert len(preds) == len(golds)
        for p, g in zip(preds, golds):
            assert [l.word for l in p.leaves()] == [l.word for l in g.leaves()]

    def test_parse_subset_matches_alignments_by_words(self, cli_workspace, trained_run1):
        # parsing a split file (not the whole corpus) must still find each
        # sentence's alignment block and prosodic features
        ws = cli_workspace
        ckpt = trained_run1 / "seed1" / "best.ckpt"
        out = ws["root"] / "pred_test_split.trees"
        rc = cli.main([
            "parse", "--config", str(ws["config"]),
            "--checkpoint", str(ckpt),
            "--input", str(ws["corpus"] / "test.trees"),
            "--output", str(out),
        ])
        assert rc == 0
        preds = read_tree_file(out)
        golds = read_tree_file(ws["corpus"] / "test.trees")
        assert len(preds) == len(golds) == 4

    def test_parse_writes_what_fits_and_reports_over_length_sentences(
        self, cli_workspace, trained_run1, tmp_path, capsys
    ):
        ws = cli_workspace
        lines = (ws["corpus"] / "test.trees").read_text().splitlines()
        too_long = " ".join(["uh/UH"] * 31)  # max_len is 30
        src = tmp_path / "mixed.txt"
        src.write_text("\n".join(lines[:2] + [too_long] + lines[2:] + [too_long]) + "\n")
        out = tmp_path / "mixed.trees"
        capsys.readouterr()
        rc = cli.main([
            "parse", "--config", str(ws["config"]),
            "--checkpoint", str(trained_run1 / "seed1" / "best.ckpt"),
            "--input", str(src), "--output", str(out),
        ])
        assert rc == cli.EXIT_DATA
        err = capsys.readouterr().err.splitlines()
        assert err == [
            f"data error: sentence {sid} has 31 words, over max_len 30"
            for sid in ("s00002", "s00005")
        ]
        preds = read_tree_file(out)
        golds = read_tree_file(ws["corpus"] / "test.trees")
        assert [[leaf.word for leaf in t.leaves()] for t in preds] == [
            [leaf.word for leaf in t.leaves()] for t in golds
        ]

    def test_parse_writes_what_matches_and_reports_unaligned_sentences(
        self, cli_workspace, trained_run1, tmp_path, capsys
    ):
        ws = cli_workspace
        lines = (ws["corpus"] / "test.trees").read_text().splitlines()
        unaligned = "zzyzx/NN quux/VBZ"  # words of no alignment block
        src = tmp_path / "unaligned.txt"
        src.write_text("\n".join([unaligned] + lines[:3] + [unaligned] + lines[3:]) + "\n")
        out = tmp_path / "unaligned.trees"
        capsys.readouterr()
        rc = cli.main([
            "parse", "--config", str(ws["config"]),
            "--checkpoint", str(trained_run1 / "seed1" / "best.ckpt"),
            "--input", str(src), "--output", str(out),
        ])
        assert rc == cli.EXIT_DATA
        err = capsys.readouterr().err.splitlines()
        assert err == [
            f"data error: no unused alignment block matches the words of sentence {sid}: "
            "zzyzx quux..."
            for sid in ("s00000", "s00004")
        ]
        preds = read_tree_file(out)
        golds = read_tree_file(ws["corpus"] / "test.trees")
        assert [[leaf.word for leaf in t.leaves()] for t in preds] == [
            [leaf.word for leaf in t.leaves()] for t in golds
        ]

    def test_parse_prosody_checkpoint_without_tracks_is_data_error(self, cli_workspace,
                                                                   trained_run1):
        ws = cli_workspace
        ckpt = trained_run1 / "seed1" / "best.ckpt"
        cfg = write_cfg(
            ws,
            {
                "data": {"alignments": "", "frame_tracks": "", "features_cache": ""},
                "output_dir": str(ws["root"] / "run_noproso"),
            },
            "exp_noproso.yaml",
        )
        rc = cli.main([
            "parse", "--config", str(cfg),
            "--checkpoint", str(ckpt),
            "--input", str(ws["corpus"] / "all.trees"),
        ])
        assert rc == cli.EXIT_DATA

    def test_parse_prosody_checkpoint_without_alignments_is_data_error(
        self, cli_workspace, trained_run1, capsys
    ):
        # the cache alone cannot tell which of its sentences an input line is
        ws = cli_workspace
        cfg = write_cfg(
            ws,
            {
                "data": {"alignments": "", "frame_tracks": "",
                         "features_cache": str(trained_run1 / "features.bin")},
                "output_dir": str(ws["root"] / "run_cache_only"),
            },
            "exp_cache_only.yaml",
        )
        out = ws["root"] / "cache_only.trees"
        capsys.readouterr()
        rc = cli.main([
            "parse", "--config", str(cfg),
            "--checkpoint", str(trained_run1 / "seed1" / "best.ckpt"),
            "--input", str(ws["corpus"] / "all.trees"),
            "--output", str(out),
        ])
        assert rc == cli.EXIT_DATA
        assert "data.alignments" in capsys.readouterr().err
        assert not out.exists()

    def test_parse_text_only_checkpoint_needs_no_prosody(self, cli_workspace, capsys):
        ws = cli_workspace
        cfg = write_cfg(
            ws,
            {
                "data": {"alignments": "", "frame_tracks": ""},
                "model": {"encoder": {"d_prosody": 0}},
                "output_dir": str(ws["root"] / "run_text"),
            },
            "exp_text.yaml",
        )
        assert cli.main(["train", "--config", str(cfg)]) == 0
        ckpt = ws["root"] / "run_text" / "seed1" / "best.ckpt"
        rc = cli.main([
            "parse", "--config", str(cfg),
            "--checkpoint", str(ckpt),
            "--input", str(ws["corpus"] / "all.trees"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("(") > 20  # trees printed to stdout

    def test_evaluate_and_significance_and_report(self, cli_workspace, parsed_all, capsys):
        ws = cli_workspace
        gold = ws["corpus"] / "all.trees"
        pred = parsed_all
        rc = cli.main([
            "evaluate", "--config", str(ws["config"]),
            "--gold", str(gold), "--pred", str(pred),
            "--output", str(ws["root"] / "report"),
        ])
        assert rc == 0
        assert (ws["root"] / "report.tsv").exists()
        assert (ws["root"] / "report.txt").exists()
        capsys.readouterr()

        rc = cli.main([
            "significance", "--config", str(ws["config"]),
            "--gold", str(gold), "--pred-a", str(gold), "--pred-b", str(pred),
            "--resamples", "300",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "p=" in out

        rc = cli.main([
            "report", "--config", str(ws["config"]),
            "--runs", str(ws["root"] / "run1"), str(ws["root"] / "missing_run"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "run1" in out and "—" in out

    def test_config_error_exit_code(self, cli_workspace, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("output_dir: x\nmodel: {encoder: {d_content: 15}}\n")
        assert cli.main(["train", "--config", str(bad)]) == cli.EXIT_CONFIG

    def test_train_without_epochs_is_config_error(self, cli_workspace, capsys):
        ws = cli_workspace
        run = ws["root"] / "run_no_epochs"
        cfg = write_cfg(ws, {"train": {"max_epochs": 0}, "output_dir": str(run)},
                        "exp_no_epochs.yaml")
        assert cli.main(["train", "--config", str(cfg)]) == cli.EXIT_CONFIG
        assert "max_epochs" in capsys.readouterr().err
        assert not (run / "seed1").exists()

    def test_numeric_error_exit_code(self, cli_workspace, monkeypatch):
        from prosoparse.errors import NumericError

        def boom(cfg, args):
            raise NumericError("synthetic failure")

        monkeypatch.setattr(cli, "cmd_evaluate", boom)
        ws = cli_workspace
        rc = cli.main(["evaluate", "--config", str(ws["config"]),
                       "--gold", "x", "--pred", "y"])
        assert rc == cli.EXIT_NUMERIC

    def test_console_script_help(self, child_env):
        import shutil
        import subprocess
        import sys

        commands = [[sys.executable, "-m", "prosoparse", "--help"]]
        script = shutil.which("prosoparse")
        if script is not None:
            commands.append([script, "--help"])
        for cmd in commands:
            out = subprocess.run(cmd, env=child_env, capture_output=True, text=True)
            assert out.returncode == 0, out.stderr
            assert out.stdout.startswith("usage: prosoparse")
            for sub in ("features", "train", "parse", "evaluate", "significance", "report"):
                assert sub in out.stdout

    def test_load_corpora_ids_follow_alignments(self, cli_workspace):
        from prosoparse.config import load_config
        from prosoparse.errors import DataError
        from prosoparse.prosody import read_alignment_file

        ws = cli_workspace
        alignments = read_alignment_file(ws["corpus"] / "alignments.tsv")
        corpora, dev, test = cli._load_corpora(load_config(ws["config"]))
        sentences = corpora[0] + dev + test
        assert [s.sentence_id for s in sentences] == list(alignments.keys())
        only_train = write_cfg(
            ws, {"data": {"dev_trees": "", "test_trees": ""}}, "exp_train_only.yaml"
        )
        with pytest.raises(DataError):  # 16 trees vs 24 alignment blocks
            cli._load_corpora(load_config(only_train))

    def test_report_header_only_median_is_data_error(self, cli_workspace, capsys):
        run = cli_workspace["root"] / "run_header_only"
        run.mkdir()
        (run / "summary.tsv").write_text("seed\tbest_dev_f1\tbest_epoch\tcheckpoint\terror\n")
        (run / "median.tsv").write_text("chosen_seed\tdev_f1\ttest_f1\n")
        rc = cli.main(["report", "--config", str(cli_workspace["config"]), "--runs", str(run)])
        assert rc == cli.EXIT_DATA
        assert "median.tsv" in capsys.readouterr().err

    @pytest.mark.parametrize("damage", ["garbage", "truncated", "trailing", "meta-key"])
    def test_corrupt_checkpoint_is_data_error(self, cli_workspace, trained_run1, tmp_path,
                                              damage):
        ws = cli_workspace
        good = (trained_run1 / "seed1" / "best.ckpt").read_bytes()
        bad = {
            "garbage": b"\x00" * 64,
            "truncated": good[: len(good) // 2],
            "trailing": good + b"\x00",
            "meta-key": good.replace(b'"model":', b'"modxl":', 1),
        }[damage]
        ckpt = tmp_path / "bad.ckpt"
        ckpt.write_bytes(bad)
        rc = cli.main([
            "parse", "--config", str(ws["config"]),
            "--checkpoint", str(ckpt), "--input", str(ws["corpus"] / "test.trees"),
        ])
        assert rc == cli.EXIT_DATA

    def test_non_finite_checkpoint_is_data_error(self, cli_workspace, trained_run1, tmp_path,
                                                 capsys):
        ws = cli_workspace
        meta, tensors = read_tensors(trained_run1 / "seed1" / "best.ckpt")
        name = sorted(k for k, v in tensors.items() if v.dtype.kind == "f")[0]
        tensors[name].flat[0] = np.nan
        ckpt = tmp_path / "nan.ckpt"
        write_tensors(ckpt, tensors, meta)
        with pytest.raises(FormatError, match=f"non-finite value in tensor '{name}'"):
            ParserModel.load(ckpt)
        capsys.readouterr()
        rc = cli.main([
            "parse", "--config", str(ws["config"]),
            "--checkpoint", str(ckpt), "--input", str(ws["corpus"] / "test.trees"),
        ])
        assert rc == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and name in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "text,message",
        [
            (b"(S (NN caf\xe9))\n", "not UTF-8"),
            (b"(S (NN a)) (S (NN b))\n", "holds 2 trees"),
            # tokens whose parse could not be read back as a tree
            (b"the/DT\nuh a/\n", "line 2: token 'a/'"),
            (b"go /\n", "line 1: token '/'"),
            (b"the (/NN\n", "line 1: token '(/NN'"),
            (b"the dog/N)N\n", "line 1: token 'dog/N)N'"),
            (b"x/-NONE- go\n", "line 1: token 'x/-NONE-'"),
        ],
        ids=["not-utf8", "two-trees", "empty-tag", "empty-word", "bracket-word",
             "bracket-tag", "trace-tag"],
    )
    def test_malformed_parse_input_is_data_error(self, cli_workspace, trained_run1, tmp_path,
                                                 capsys, text, message):
        ws = cli_workspace
        bad = tmp_path / "input.trees"
        bad.write_bytes(text)
        rc = cli.main([
            "parse", "--config", str(ws["config"]),
            "--checkpoint", str(trained_run1 / "seed1" / "best.ckpt"),
            "--input", str(bad),
        ])
        assert rc == cli.EXIT_DATA
        assert message in capsys.readouterr().err

    def test_jobs_and_seed_only_where_read(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["features", "--config", "x.yaml", "--jobs", "2"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            cli.main(["train", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--jobs" in out and "--seed" in out

    @pytest.mark.parametrize("damage", ["missing-tensor", "lens-exceed-frames", "zero-length"])
    def test_malformed_feature_cache_is_data_error(self, cli_workspace, capsys, damage):
        ws = cli_workspace
        out_dir = ws["root"] / f"run_badcache_{damage}"
        cfg = write_cfg(ws, {"output_dir": str(out_dir)}, f"exp_badcache_{damage}.yaml")
        assert cli.main(["features", "--config", str(cfg)]) == 0
        cache = out_dir / "features.bin"
        expected = damage_cache(cache, damage, read_tensors(cache)[0]["sentence_ids"][0])
        capsys.readouterr()
        assert cli.main(["train", "--config", str(cfg)]) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and expected in err

    def test_non_finite_feature_cache_is_data_error(self, cli_workspace, capsys):
        ws = cli_workspace
        out_dir = ws["root"] / "run_infcache"
        cfg = write_cfg(ws, {"output_dir": str(out_dir)}, "exp_infcache.yaml")
        assert cli.main(["features", "--config", str(cfg)]) == 0
        cache = out_dir / "features.bin"
        meta, tensors = read_tensors(cache)
        name = f"{meta['sentence_ids'][0]}.frames"
        tensors[name][0, 0] = np.inf
        write_tensors(cache, tensors, meta)
        capsys.readouterr()
        assert cli.main(["train", "--config", str(cfg)]) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and f"non-finite value in tensor {name!r}" in err

    def test_cache_of_another_features_version_is_recomputed(
        self, cli_workspace, monkeypatch
    ):
        ws = cli_workspace
        out_dir = ws["root"] / "run_version"
        cfg_path = write_cfg(ws, {"output_dir": str(out_dir)}, "exp_version.yaml")
        cfg = cli.load_config(str(cfg_path))
        cache = out_dir / "features.bin"

        def fresh_sentences():
            corpora, dev, test = cli._load_corpora(cfg)
            return [s for c in corpora for s in c] + dev + test

        monkeypatch.setattr(corpus_mod, "FEATURES_VERSION", corpus_mod.FEATURES_VERSION + 1)
        assert cli._attach_features(cfg, fresh_sentences()) is True
        old_meta, tensors = read_tensors(cache)
        # a reused cache would now be visible as all-zero durations
        write_tensors(
            cache,
            {k: np.zeros_like(v) if k.endswith(".dur") else v for k, v in tensors.items()},
            old_meta,
        )
        monkeypatch.undo()
        sentences = fresh_sentences()
        assert cli._attach_features(cfg, sentences) is True
        assert all(s.prosody.duration_scalars.any() for s in sentences)
        new_meta, _ = read_tensors(cache)
        assert new_meta["content_hash"] != old_meta["content_hash"]
        assert cli._attach_features(cfg, fresh_sentences()) is False

    @pytest.mark.parametrize(
        "name,argv,mode",
        [
            ("data.vector_store", ["train"], "frozen"),
            ("data.word_vectors", ["train"], "finetuned"),
            ("--fine-tune-from", ["train", "--fine-tune-from", "{missing}"], None),
            ("--checkpoint", ["parse", "--checkpoint", "{missing}", "--input", "{file}"], None),
            ("--input", ["parse", "--checkpoint", "{file}", "--input", "{missing}"], None),
            ("--gold", ["evaluate", "--gold", "{missing}", "--pred", "{file}"], None),
            ("--pred", ["evaluate", "--gold", "{file}", "--pred", "{missing}"], None),
            ("--gold", ["significance", "--gold", "{missing}", "--pred-a", "{file}",
                        "--pred-b", "{file}"], None),
            ("--pred-a", ["significance", "--gold", "{file}", "--pred-a", "{missing}",
                          "--pred-b", "{file}"], None),
            ("--pred-b", ["significance", "--gold", "{file}", "--pred-a", "{file}",
                          "--pred-b", "{missing}"], None),
        ],
        ids=["store-path", "vectors-path", "fine-tune-from", "parse-checkpoint",
             "parse-input", "evaluate-gold", "evaluate-pred", "significance-gold",
             "significance-pred-a", "significance-pred-b"],
    )
    def test_missing_opened_path_is_config_error(self, cli_workspace, tmp_path, capsys,
                                                 name, argv, mode):
        # checked before any compute: exit 2 naming the setting, no traceback
        ws = cli_workspace
        missing = str(tmp_path / "missing")
        fill = {"{missing}": missing, "{file}": str(ws["corpus"] / "all.trees")}
        updates = {"output_dir": str(tmp_path / "run")}
        if mode:  # the mode's vector file
            updates["data"] = {name.split(".", 1)[1]: missing}
            updates["model"] = {"embedding": {"mode": mode}}
        cfg = write_cfg(ws, updates, f"exp_missing_{tmp_path.name}.yaml")
        argv = [argv[0], "--config", str(cfg)] + [fill.get(a, a) for a in argv[1:]]
        capsys.readouterr()
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: {name}: path does not exist: {missing}\n"
        )
        assert not (tmp_path / "run").exists()

    def test_missing_path_exit_code(self, cli_workspace):
        ws = cli_workspace
        cfg = write_cfg(
            ws,
            {"data": {"train_trees": str(ws["root"] / "nope.trees")}},
            "exp_missing.yaml",
        )
        assert cli.main(["train", "--config", str(cfg)]) == cli.EXIT_CONFIG
