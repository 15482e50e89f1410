"""Command-line entry point wiring the modules into experiment workflows.

Subcommands: features | train | parse | evaluate | significance | report.
Exit codes: 0 success, 2 config error, 3 data error, 4 numeric/training
error.
"""

from __future__ import annotations

import argparse
import glob
import os
import sys
from dataclasses import replace

from . import corpus as corpus_mod
from . import evaluation as ev
from .config import load_config, validate_paths, write_snapshot
from .errors import ConfigError, DataError, NumericError, ProsoparseError, utf8_text
from .model import ParserModel
from .prosody import CONTEXT_S, MAX_FRAMES, read_alignment_file, read_frame_track_file
from .training import fine_tune, median_report, train
from .treebank import TRACE_TAG, parse_ptb, read_tree_file, speechify, write_tree_file

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _read_tracks(track_dir):
    tracks = {}
    for path in sorted(glob.glob(os.path.join(track_dir, "*.csv"))):
        speaker = os.path.splitext(os.path.basename(path))[0]
        tracks[speaker] = read_frame_track_file(path)
    if not tracks:
        raise DataError(f"no *.csv frame tracks under {track_dir}")
    return tracks


def _cache_path(cfg):
    return cfg.data.features_cache or os.path.join(cfg.output_dir, "features.bin")


def _attach_features(cfg, sentences, save=True, force=False):
    """Prosodic features from the cache when fresh, else recomputed.

    ``force`` recomputes (and, with ``save``, rewrites the cache) even when
    the cache is fresh.  Recomputing prints each speaker-normalization
    warning to stderr.  Returns True when the features were recomputed.
    """
    cache = _cache_path(cfg)
    if cfg.data.alignments and cfg.data.frame_tracks:
        paths = [cfg.data.alignments] + sorted(
            glob.glob(os.path.join(cfg.data.frame_tracks, "*.csv"))
        )
        want_hash = corpus_mod.content_hash(
            paths,
            extra=f"{corpus_mod.FEATURES_VERSION}:{CONTEXT_S}:{MAX_FRAMES}",
        )
        if not force and os.path.exists(cache):
            meta = corpus_mod.load_feature_cache(cache, sentences)
            if meta.get("content_hash") == want_hash and all(
                s.prosody is not None for s in sentences
            ):
                return False
        warnings = corpus_mod.featurize(
            sentences,
            read_alignment_file(cfg.data.alignments),
            _read_tracks(cfg.data.frame_tracks),
        )
        for warning in warnings:
            print(f"warning: {warning}", file=sys.stderr)
        if save:
            os.makedirs(os.path.dirname(cache) or ".", exist_ok=True)
            corpus_mod.save_feature_cache(
                cache, sentences, meta={"content_hash": want_hash}
            )
        return True
    if not os.path.exists(cache):
        raise DataError(
            "prosody model needs features: no alignments/frame_tracks "
            f"configured and no cache at {cache}"
        )
    corpus_mod.load_feature_cache(cache, sentences)
    missing = [s.sentence_id for s in sentences if s.prosody is None]
    if missing:
        raise DataError(f"feature cache lacks sentences: {missing[:5]}...")
    return False


def _configured_tree_files(cfg):
    paths = list(cfg.data.train_trees)
    for extra in (cfg.data.dev_trees, cfg.data.test_trees):
        if extra:
            paths.append(extra)
    return paths


def _load_corpora(cfg):
    """Sentences for every configured split.

    When an alignment file is configured, its sentence ids must cover the
    configured tree files concatenated in order (train files, dev, test);
    ids are assigned by that correspondence.  Returns
    (train corpora list, dev sentences or None, test sentences or None).
    """
    per_file = []
    for p in _configured_tree_files(cfg):
        trees = read_tree_file(p)
        if cfg.data.speechify:
            trees = [speechify(t) for t in trees]
        per_file.append(trees)
    total = sum(len(t) for t in per_file)
    if cfg.data.alignments:
        ids = list(read_alignment_file(cfg.data.alignments).keys())
        if len(ids) != total:
            raise DataError(
                f"{cfg.data.alignments}: {len(ids)} aligned sentences but the "
                f"configured tree files hold {total}; the alignment file must "
                "cover train, dev and test trees in order"
            )
    else:
        ids = [f"f{k}_s{i:05d}" for k, trees in enumerate(per_file) for i in range(len(trees))]
    splits = []
    offset = 0
    for trees in per_file:
        splits.append(
            corpus_mod.sentences_from_trees(trees, ids=ids[offset : offset + len(trees)])
        )
        offset += len(trees)
    n_train = len(cfg.data.train_trees)
    corpora = splits[:n_train]
    rest = splits[n_train:]
    dev = rest.pop(0) if cfg.data.dev_trees else None
    test = rest.pop(0) if cfg.data.test_trees else None
    return corpora, dev, test


# ----------------------------------------------------------------------
# subcommands

def cmd_features(cfg, args):
    validate_paths(cfg, need=("train", "dev", "test", "prosody"))
    if not (cfg.data.alignments and cfg.data.frame_tracks):
        raise ConfigError("features needs data.alignments and data.frame_tracks")
    corpora, dev, test = _load_corpora(cfg)
    sentences = [s for c in corpora for s in c] + (dev or []) + (test or [])
    _attach_features(cfg, sentences, force=True)
    print(f"wrote {len(sentences)} sentences of features to {_cache_path(cfg)}")
    return 0


def cmd_train(cfg, args):
    validate_paths(
        cfg,
        need=("train", "dev", "test", "prosody", "embedding"),
        flags=[("--fine-tune-from", args.fine_tune_from)],
    )
    if not cfg.data.dev_trees:
        raise ConfigError("train needs data.dev_trees for early stopping")
    if cfg.uses_prosody() and not (
        (cfg.data.alignments and cfg.data.frame_tracks) or cfg.data.features_cache
    ):
        raise ConfigError(
            "model.encoder.d_prosody > 0 needs data.alignments + "
            "data.frame_tracks or data.features_cache"
        )
    corpora, dev, test = _load_corpora(cfg)
    if cfg.uses_prosody():
        every = [s for c in corpora for s in c] + dev + (test or [])
        _attach_features(cfg, every)

    train_cfg = cfg.train
    if args.seed is not None:
        train_cfg = replace(train_cfg, seeds=(args.seed,))
    os.makedirs(cfg.output_dir, exist_ok=True)
    write_snapshot(cfg, cfg.output_dir)

    store = _store_for(cfg)
    if args.fine_tune_from:
        if len(corpora) != 1:
            raise ConfigError("fine-tuning expects exactly one training corpus")
        records = [
            fine_tune(
                args.fine_tune_from,
                corpora[0],
                train_cfg,
                cfg.output_dir,
                dev,
                store=store,
            )
        ]
    else:
        records = train(
            train_cfg,
            cfg.model,
            cfg.embedding,
            corpora,
            dev,
            cfg.output_dir,
            jobs=args.jobs,
            store=store,
        )

    summary_path = os.path.join(cfg.output_dir, "summary.tsv")
    with open(summary_path, "w", encoding="utf-8") as fh:
        fh.write("seed\tbest_dev_f1\tbest_epoch\tcheckpoint\terror\n")
        for r in records:
            fh.write(
                f"{r.seed}\t{r.best_f1:.2f}\t{r.best_epoch}\t"
                f"{r.checkpoint_path}\t{r.error}\n"
            )
    summary = median_report(records, test_sentences=test, store=store)
    with open(os.path.join(cfg.output_dir, "median.tsv"), "w", encoding="utf-8") as fh:
        fh.write("chosen_seed\tdev_f1\ttest_f1\n")
        test_f1 = "" if summary.test_f1 is None else f"{summary.test_f1:.2f}"
        fh.write(f"{summary.chosen_seed}\t{summary.chosen_record.best_f1:.2f}\t{test_f1}\n")
    if summary.predictions is not None:
        write_tree_file(
            os.path.join(cfg.output_dir, "test_predictions.trees"), summary.predictions
        )
    for r in records:
        status = r.error or f"best dev F1 {r.best_f1:.2f} @ epoch {r.best_epoch}"
        print(f"seed {r.seed}: {status}")
    print(f"median seed: {summary.chosen_seed} (dev F1 {summary.chosen_record.best_f1:.2f})")
    return 0


def _store_for(cfg):
    if cfg.embedding.mode == "frozen":
        from .embeddings import load_vector_store

        return load_vector_store(cfg.embedding.store_path)
    return None


def _read_parse_input(path):
    """Bracketed trees or whitespace-separated word/POS tokens, one per line.

    A token's word and tag must be non-empty and free of brackets, and its
    tag must not be the trace tag, which tree readers drop.
    """
    sentences = []
    with utf8_text(path) as fh:
        for i, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            sid = f"s{i:05d}"
            if line.startswith("("):
                trees = parse_ptb(line)
                if len(trees) > 1:
                    raise DataError(f"{path}: line {i + 1} holds {len(trees)} trees, not one")
                tokens = [(leaf.word, leaf.pos_tag) for leaf in trees[0].leaves()]
            else:
                tokens = []
                for tok in line.split():
                    word, sep, tag = tok.rpartition("/")
                    if not sep:
                        word, tag = tok, "XX"
                    # a parse must be writable as a tree that reads back the same
                    if not word or not tag or "(" in tok or ")" in tok or tag == TRACE_TAG:
                        raise DataError(
                            f"{path}: line {i + 1}: token {tok!r} is not a word and tag "
                            f"that a tree file can hold"
                        )
                    tokens.append((word, tag))
            sentences.append(
                corpus_mod.Sentence(sentence_id=sid, tokens=tokens)
            )
    if not sentences:
        raise DataError(f"{path}: no sentences to parse")
    return sentences


def _match_alignment_ids(sentences, alignments):
    """Assign each sentence the first unused alignment block with its words.

    Returns (the sentences that got a block, a fault line for each other one).
    """
    available = {}
    for sid, alis in alignments.items():
        key = tuple(a.word.lower() for a in alis)
        available.setdefault(key, []).append(sid)
    matched, faults = [], []
    for sent in sentences:
        pool = available.get(tuple(w.lower() for w in sent.words))
        if pool:
            sent.sentence_id = pool.pop(0)
            matched.append(sent)
        else:
            faults.append(
                f"no unused alignment block matches the words of sentence "
                f"{sent.sentence_id}: {' '.join(sent.words[:6])}..."
            )
    return matched, faults


def cmd_parse(cfg, args):
    validate_paths(
        cfg,
        need=("prosody", "embedding"),
        flags=[("--checkpoint", args.checkpoint), ("--input", args.input)],
    )
    model, _ = ParserModel.load(args.checkpoint, store=_store_for(cfg))
    if model.uses_prosody and not cfg.data.alignments:
        # an input sentence's id comes from its alignment block; its line id
        # would name another sentence's features in the cache
        raise DataError("a prosody checkpoint needs data.alignments to parse")
    sentences = _read_parse_input(args.input)
    # a sentence too long for the position table or matching no alignment block
    # fails alone: the others are still parsed, and the command exits 3
    max_len = model.config.encoder.max_len
    faults = [
        f"sentence {s.sentence_id} has {len(s)} words, over max_len {max_len}"
        for s in sentences if len(s) > max_len
    ]
    sentences = [s for s in sentences if len(s) <= max_len]
    if model.uses_prosody:
        sentences, unmatched = _match_alignment_ids(
            sentences, read_alignment_file(cfg.data.alignments)
        )
        faults += unmatched
    for fault in faults:
        print(f"data error: {fault}", file=sys.stderr)
    if model.uses_prosody:
        _attach_features(cfg, sentences, save=False)
    trees = [d.tree for d in model.parse_sentences(sentences)]
    out = args.output or "-"
    if out == "-":
        for t in trees:
            print(t.linearize())
    else:
        write_tree_file(out, trees)
        print(f"wrote {len(trees)} parses to {out}")
    return EXIT_DATA if faults else 0


def cmd_evaluate(cfg, args):
    validate_paths(cfg, flags=[("--gold", args.gold), ("--pred", args.pred)])
    gold = read_tree_file(args.gold)
    pred = read_tree_file(args.pred)
    report = ev.parseval(gold, pred, delete_punctuation=cfg.eval.delete_punctuation)
    rows = ev.report_rows(report)
    aligned = ev.format_aligned(rows)
    print(aligned, end="")
    if args.output:
        with open(args.output + ".tsv", "w", encoding="utf-8") as fh:
            fh.write(ev.format_delimited(rows))
        with open(args.output + ".txt", "w", encoding="utf-8") as fh:
            fh.write(aligned)
        print(f"wrote {args.output}.tsv and {args.output}.txt")
    return 0


def cmd_significance(cfg, args):
    validate_paths(
        cfg,
        flags=[("--gold", args.gold), ("--pred-a", args.pred_a), ("--pred-b", args.pred_b)],
    )
    gold = read_tree_file(args.gold)
    pred_a = read_tree_file(args.pred_a)
    pred_b = read_tree_file(args.pred_b)
    result = ev.paired_bootstrap(
        gold,
        pred_a,
        pred_b,
        n_resamples=args.resamples or cfg.eval.n_resamples,
        seed=args.seed,
        delete_punctuation=cfg.eval.delete_punctuation,
    )
    marker = ev.significance_marker(result.p_value)
    print(
        f"delta_f1={result.observed_delta:.4f} p={result.p_value:.4f}{marker} "
        f"(n={result.n_resamples})"
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write("delta_f1\tp_value\tn_resamples\n")
            fh.write(
                f"{result.observed_delta:.6f}\t{result.p_value:.6f}\t{result.n_resamples}\n"
            )
    return 0


def cmd_report(cfg, args):
    rows = [["run", "seeds", "median_dev_F1", "test_F1"]]
    for run_dir in args.runs:
        summary = os.path.join(run_dir, "summary.tsv")
        median = os.path.join(run_dir, "median.tsv")
        if not os.path.exists(summary):
            rows.append([os.path.basename(run_dir.rstrip("/")), "—", "—", "—"])
            continue
        with open(summary, encoding="utf-8") as fh:
            lines = fh.read().strip().splitlines()[1:]
        seeds = [ln.split("\t")[0] for ln in lines if ln]
        med_dev, med_test = "—", "—"
        if os.path.exists(median):
            with open(median, encoding="utf-8") as fh:
                lines = fh.read().strip().splitlines()
            parts = lines[1].split("\t") if len(lines) > 1 else []
            if len(parts) < 2:
                raise DataError(f"{median}: no chosen_seed/dev_f1 row under the header")
            med_dev = parts[1]
            med_test = parts[2] if len(parts) > 2 and parts[2] else "—"
        rows.append(
            [os.path.basename(run_dir.rstrip("/")), ",".join(seeds), med_dev, med_test]
        )
    text = ev.format_aligned(rows)
    print(text, end="")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(ev.format_delimited(rows))
    return 0


# ----------------------------------------------------------------------

def build_parser():
    ap = argparse.ArgumentParser(
        prog="prosoparse",
        description="prosody-augmented constituency parser for speech transcripts",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="YAML experiment config")

    p = sub.add_parser("features", help="precompute prosodic feature cache")
    common(p)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("train", help="multi-seed training run")
    common(p)
    p.add_argument("--seed", type=int, default=None, help="train this seed only")
    p.add_argument("--jobs", type=int, default=1, help="parallel seed workers")
    p.add_argument("--fine-tune-from", default="", help="checkpoint to fine-tune")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("parse", help="parse sentences with a checkpoint")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True, help="trees or word/POS lines")
    p.add_argument("--output", default="", help="output tree file (default stdout)")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("evaluate", help="Parseval report for gold vs predicted")
    common(p)
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--output", default="", help="report path prefix")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("significance", help="paired bootstrap between two systems")
    common(p)
    p.add_argument("--seed", type=int, default=0, help="bootstrap resampling seed")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred-a", required=True)
    p.add_argument("--pred-b", required=True)
    p.add_argument("--resamples", type=int, default=0)
    p.add_argument("--output", default="")
    p.set_defaults(func=cmd_significance)

    p = sub.add_parser("report", help="summarize run directories")
    common(p)
    p.add_argument("--runs", nargs="+", required=True)
    p.add_argument("--output", default="")
    p.set_defaults(func=cmd_report)

    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        return args.func(cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ProsoparseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
