"""Deterministic synthetic corpora: trees, alignments, and frame tracks.

Two corpora matter for sanity checks.  The *overfit* corpus has 200 short
sentences whose structure is recoverable from the words alone, so a small
model must reach near-perfect F1 on its own training set.  The *ambiguity*
corpus pairs every word sequence with two bracketings that only a pause cue
distinguishes: each sentence has four three-word clauses, and within a
clause the two-word constituent either closes before the third word (pause
after the second word) or opens after the first (pause after the first).
A text-only parser is structurally capped at 60 F1 on the paired test set;
a prosody-aware parser can disambiguate every clause.

Everything derives from seeded generators; ``python -m prosoparse.synthdata``
materializes the corpora as files for CLI use.
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass, field

import numpy as np

from .prosody import FrameTrack, WordAlignment, write_alignment_file, write_frame_track_file
from .corpus import sentences_from_trees
from .treebank import InternalNode, LeafNode, parse_ptb, write_tree_file

WORD_DUR = (0.18, 0.32)
CUE_PAUSE = 0.30
SENTENCE_GAP = 0.8
FRAME_PERIOD = 0.010


@dataclass
class SynthData:
    sentences: list = field(default_factory=list)
    alignments: dict = field(default_factory=dict)
    tracks: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# random trees for property tests

POS_POOL = ("NN", "VB", "DT", "JJ", "RB", "IN")
LABEL_POOL = ("S", "NP", "VP", "PP", "ADJP", "X")


def random_tree(rng, max_words=12, labels=LABEL_POOL, unary_p=0.2):
    """Random n-ary tree with occasional unary chains; T in [1, max_words]."""
    n = int(rng.integers(1, max_words + 1))
    leaves = [
        LeafNode(f"w{i}{rng.integers(0, 5)}", POS_POOL[rng.integers(0, len(POS_POOL))])
        for i in range(n)
    ]

    def build(a, b, depth):
        label = labels[rng.integers(0, len(labels))]
        if depth < 3 and rng.random() < unary_p:
            return InternalNode(label, [build(a, b, depth + 1)])
        if b - a == 1:
            return InternalNode(label, [leaves[a]])
        width = b - a
        n_children = int(rng.integers(2, min(4, width) + 1))
        cuts = sorted(rng.choice(np.arange(a + 1, b), size=n_children - 1, replace=False))
        bounds = [a, *cuts, b]
        children = []
        for lo, hi in zip(bounds, bounds[1:]):
            if hi - lo == 1 and rng.random() < 0.5:
                children.append(leaves[lo])
            else:
                children.append(build(lo, hi, depth + 1))
        return InternalNode(label, children)

    return build(0, n, 0)


# ----------------------------------------------------------------------
# overfit corpus: structure is a function of the words

_TEMPLATES = [
    # (weight, pattern); slots in {braces} are filled from _POOLS
    (1, "(S (VP (VB {v0})))"),
    (3, "(S (NP (DT {d}) (NN {n1})) (VP (VBZ {v1})))"),
    (3, "(S (NP (DT {d}) (NN {n1})) (VP (VBZ {v2}) (NP (DT {d2}) (NN {n2}))))"),
    (2, "(S (INTJ (UH {uh})) (NP (DT {d}) (NN {n1})) (VP (VBZ {v1})))"),
    (2, "(S (EDITED (NP (DT {d}) (NN {n3}))) (NP (DT {d2}) (NN {n3})) (VP (VBZ {v1})))"),
    (2, "(S (NP (DT {d}) (NN {n4})) (VP (VBZ {v3}) (PP (IN {p}) (NP (DT {d2}) (NN {n5})))))"),
]

_POOLS = {
    "d": ["the", "a"],
    "d2": ["the", "a"],
    "n1": ["cat", "dog", "bird", "horse", "cow", "fox"],
    "n2": ["ball", "book", "cup", "pen", "box", "hat"],
    "n3": ["car", "truck", "bike", "boat"],
    "n4": ["man", "woman", "kid", "farmer"],
    "n5": ["barn", "field", "house", "yard"],
    "v0": ["go", "stop", "wait", "look"],
    "v1": ["runs", "sleeps", "jumps", "talks"],
    "v2": ["sees", "likes", "chases", "finds"],
    "v3": ["sits", "stands", "rests", "hides"],
    "uh": ["uh", "um", "well"],
    "p": ["in", "on", "near", "under"],
}


def overfit_corpus(n_sentences=200, seed=13, n_speakers=4):
    """Small word-determined treebank with synthetic audio features."""
    rng = np.random.default_rng(seed)
    weights = np.array([w for w, _ in _TEMPLATES], dtype=np.float64)
    weights /= weights.sum()
    seen = set()
    trees = []
    while len(trees) < n_sentences:
        pattern = _TEMPLATES[int(rng.choice(len(_TEMPLATES), p=weights))][1]
        filled = pattern
        for slot, pool in _POOLS.items():
            while "{" + slot + "}" in filled:
                filled = filled.replace(
                    "{" + slot + "}", pool[int(rng.integers(0, len(pool)))], 1
                )
        if filled in seen:
            continue
        seen.add(filled)
        trees.append(parse_ptb(filled)[0])
    data = SynthData(sentences=sentences_from_trees(trees))
    _attach_audio(data, rng, n_speakers=n_speakers, speaker_prefix="spk")
    return data


# ----------------------------------------------------------------------
# pause-cued attachment ambiguity corpus

_CLAUSE_SLOTS = [
    ["boy", "girl", "man", "cook", "guest", "clerk"],
    ["saw", "heard", "met", "helped", "called", "liked"],
    ["today", "early", "twice", "again", "later", "once"],
]
_CLAUSE_TAGS = ["NN", "VBD", "RB"]
N_CLAUSES = 4


def _pair_trees(words):
    """The two bracketings of one word sequence (per-clause L/R variants)."""

    def build(variant_bits):
        children = []
        for ci in range(N_CLAUSES):
            w = words[3 * ci : 3 * ci + 3]
            leaves = [LeafNode(word, tag) for word, tag in zip(w, _CLAUSE_TAGS)]
            if variant_bits[ci] == 0:  # close early: (NP w0 w1) w2
                children.append(InternalNode("NP", leaves[:2]))
                children.append(leaves[2])
            else:  # open late: w0 (NP w1 w2)
                children.append(leaves[0])
                children.append(InternalNode("NP", leaves[1:]))
        return InternalNode("S", children)

    return build


def ambiguity_corpus(n_train_pairs=64, n_test_pairs=16, seed=29, n_speakers=4):
    """(train, test) SynthData; every word sequence appears with BOTH trees.

    The cue pause sits after the clause's second word when the two-word
    constituent closes early, and after its first word when it opens late.
    """
    rng = np.random.default_rng(seed)
    seen = set()
    pairs = []
    while len(pairs) < n_train_pairs + n_test_pairs:
        words = []
        for _ in range(N_CLAUSES):
            for pool in _CLAUSE_SLOTS:
                words.append(pool[int(rng.integers(0, len(pool)))])
        key = tuple(words)
        if key in seen:
            continue
        seen.add(key)
        bits = tuple(int(rng.integers(0, 2)) for _ in range(N_CLAUSES))
        anti = tuple(1 - b for b in bits)
        build = _pair_trees(words)
        pairs.append(((build(bits), bits), (build(anti), anti)))

    def assemble(pair_slice, prefix):
        trees, cue_bits = [], []
        for (t1, b1), (t2, b2) in pair_slice:
            trees.append(t1)
            cue_bits.append(b1)
            trees.append(t2)
            cue_bits.append(b2)
        ids = [f"{prefix}{i:05d}" for i in range(len(trees))]
        data = SynthData(sentences=sentences_from_trees(trees, ids=ids))
        rng_audio = np.random.default_rng((seed, zlib.crc32(prefix.encode())))
        _attach_audio(
            data,
            rng_audio,
            n_speakers=n_speakers,
            speaker_prefix=f"{prefix}spk",
            cue_bits=cue_bits,
        )
        return data

    return (
        assemble(pairs[:n_train_pairs], "amb_tr_"),
        assemble(pairs[n_train_pairs:], "amb_te_"),
    )


def _cue_positions(bits):
    """Word indices followed by the cue pause for one variant-bit vector."""
    out = []
    for ci, bit in enumerate(bits):
        out.append(3 * ci + (1 - bit))
    return out


# ----------------------------------------------------------------------
# synthetic audio: alignments on a per-speaker timeline + frame tracks

def _attach_audio(data, rng, n_speakers, speaker_prefix, cue_bits=None):
    cursors = {}
    for i, sent in enumerate(data.sentences):
        speaker = f"{speaker_prefix}{i % n_speakers}"
        t = cursors.get(speaker, 0.25)
        pauses = set()
        if cue_bits is not None:
            pauses = set(_cue_positions(cue_bits[i]))
        alis = []
        for j, (word, _tag) in enumerate(sent.tokens):
            dur = float(rng.uniform(*WORD_DUR))
            alis.append(WordAlignment(word, round(t, 4), round(t + dur, 4), speaker))
            t += dur
            if j in pauses:
                t += CUE_PAUSE
        cursors[speaker] = t + SENTENCE_GAP
        data.alignments[sent.sentence_id] = alis

    for speaker, end_time in cursors.items():
        n = int(np.ceil((end_time + 0.25) / FRAME_PERIOD))
        energy = 0.02 + 0.02 * np.abs(rng.standard_normal(n))
        f0 = np.zeros(n)
        base_f0 = float(rng.uniform(100.0, 140.0))
        words = [
            a
            for sid, alis in data.alignments.items()
            for a in alis
            if a.speaker_id == speaker
        ]
        times = np.arange(n) * FRAME_PERIOD
        for ali in words:
            sel = (times >= ali.start) & (times < ali.end)
            prog = (times[sel] - ali.start) / max(ali.duration, 1e-6)
            energy[sel] = 0.3 + 0.5 * np.sin(np.pi * prog) + 0.05 * rng.standard_normal(sel.sum())
            f0[sel] = base_f0 + 15.0 * np.sin(2 * np.pi * prog) + 2.0 * rng.standard_normal(sel.sum())
        data.tracks[speaker] = FrameTrack(
            energy=energy.astype(np.float32),
            f0=np.maximum(f0, 0.0).astype(np.float32),
            frame_period=FRAME_PERIOD,
            start_time=0.0,
        )


# ----------------------------------------------------------------------
# file materialization

def write_corpus(data, outdir, splits=None):
    """Materialize a SynthData as CLI-consumable files.

    ``splits`` maps split name -> sentence count, consumed in order (default:
    everything under "train").  One alignments.tsv covers all splits in file
    order, which is exactly the pairing contract the CLI loaders expect.
    """
    os.makedirs(os.path.join(outdir, "tracks"), exist_ok=True)
    splits = splits or {"train": len(data.sentences)}
    if sum(splits.values()) != len(data.sentences):
        raise ValueError("split sizes must cover the corpus exactly")
    offset = 0
    for name, count in splits.items():
        write_tree_file(
            os.path.join(outdir, f"{name}.trees"),
            [s.tree for s in data.sentences[offset : offset + count]],
        )
        offset += count
    write_alignment_file(os.path.join(outdir, "alignments.tsv"), data.alignments)
    for speaker, track in data.tracks.items():
        write_frame_track_file(os.path.join(outdir, "tracks", f"{speaker}.csv"), track)


def main(argv=None):
    import argparse

    ap = argparse.ArgumentParser(description="materialize the synthetic corpora")
    ap.add_argument("outdir")
    ap.add_argument("--overfit-sentences", type=int, default=200)
    ap.add_argument("--seed", type=int, default=13)
    args = ap.parse_args(argv)

    over = overfit_corpus(n_sentences=args.overfit_sentences, seed=args.seed)
    n = len(over.sentences)
    n_dev = n_test = max(1, n // 10)
    write_corpus(
        over,
        os.path.join(args.outdir, "overfit"),
        splits={"train": n - n_dev - n_test, "dev": n_dev, "test": n_test},
    )
    amb_train, amb_test = ambiguity_corpus(seed=args.seed + 16)
    write_corpus(amb_train, os.path.join(args.outdir, "ambiguity_train"))
    write_corpus(amb_test, os.path.join(args.outdir, "ambiguity_test"), splits={"test": len(amb_test.sentences)})
    print(f"wrote synthetic corpora under {args.outdir}")


if __name__ == "__main__":
    main()
