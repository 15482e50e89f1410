"""Seeded benchmark inputs, written as the files the CLI reads.

Everything here runs before any timer starts.  The same seed gives the same
files; only the trees, words and audio change with the seed, while sentence
lengths follow a fixed schedule wherever the workload's cost grows faster
than linearly in length, so that run-to-run spread reflects the code and
the machine rather than a luckier length draw.
"""

from __future__ import annotations

import copy
import os

import numpy as np

from prosoparse import synthdata
from prosoparse.corpus import sentences_from_trees
from prosoparse.model import ParserModel
from prosoparse.synthdata import SynthData
from prosoparse.training import build_provider
from prosoparse.treebank import InternalNode, LabelVocab, LeafNode


def short_corpus(seed, n_train, n_dev, n_parse):
    """The acceptance suite's overfit corpus plus held-out sentences."""
    data = synthdata.overfit_corpus(n_sentences=n_train + n_dev + n_parse, seed=seed)
    return data, {"train": n_train, "dev": n_dev, "parse": n_parse}


def long_corpus(seed, n_train, n_dev, n_parse, clauses=(8, 20)):
    """Pause-cued sentences of 3 * clauses words.

    Each clause is the ambiguity corpus's three-word clause whose two-word
    NP closes early or opens late, with the cue pause after its first or
    second word.  Clause counts cycle through ``clauses`` in order, and
    every N_CLAUSES clauses form one inner S, as one ambiguity-corpus
    sentence does.  Without the inner S, a sentence has one bracket per
    three words: training then often stays for many epochs at the "root
    bracket only" plateau, and when it leaves depends on the seed.
    """
    rng = np.random.default_rng(seed)
    lo, hi = clauses
    trees, cue_bits = [], []
    for i in range(n_train + n_dev + n_parse):
        groups, bits = [], []
        for ci in range(lo + i % (hi - lo + 1)):
            leaves = [
                LeafNode(pool[int(rng.integers(0, len(pool)))], tag)
                for pool, tag in zip(synthdata._CLAUSE_SLOTS, synthdata._CLAUSE_TAGS)
            ]
            bit = int(rng.integers(0, 2))
            bits.append(bit)
            if ci % synthdata.N_CLAUSES == 0:
                groups.append([])
            if bit == 0:
                groups[-1] += [InternalNode("NP", leaves[:2]), leaves[2]]
            else:
                groups[-1] += [leaves[0], InternalNode("NP", leaves[1:])]
        trees.append(InternalNode("S", [InternalNode("S", g) for g in groups]))
        cue_bits.append(tuple(bits))
    data = SynthData(sentences=sentences_from_trees(trees))
    synthdata._attach_audio(data, rng, n_speakers=4, speaker_prefix="spk", cue_bits=cue_bits)
    return data, {"train": n_train, "dev": n_dev, "parse": n_parse}


def tree_of_length(rng, n, labels):
    """A ``synthdata.random_tree`` tree with exactly n words.

    random_tree first draws its length uniformly from [1, max_words].  A
    copy of the generator previews that draw, so that only a tree whose
    draw is n gets built; the length check keeps this correct should
    random_tree ever draw differently.
    """
    while True:
        if int(copy.deepcopy(rng).integers(1, n + 1)) != n:
            rng.integers(1, n + 1)
            continue
        tree = synthdata.random_tree(rng, max_words=n, labels=labels)
        if sum(1 for _ in tree.leaves()) == n:
            return tree


def mixed_length_corpus(seed, lengths, labels):
    """``synthdata.random_tree`` trees with exactly the given word counts."""
    rng = np.random.default_rng(seed)
    trees = [tree_of_length(rng, n, labels) for n in lengths]
    data = SynthData(sentences=sentences_from_trees(trees))
    synthdata._attach_audio(data, rng, n_speakers=8, speaker_prefix="spk")
    return data, {"parse": len(trees)}


def seeded_checkpoint(path, data, model_config, embedding, n_labels, seed):
    """Save an untrained, seeded model whose label vocabulary has n_labels entries.

    Labels seen in the trees come first; unseen filler labels pad the
    inventory so its size, and with it the scorer's cost, does not depend
    on the seed.
    """
    vocab = LabelVocab.from_trees([s.tree for s in data.sentences])
    filler = 0
    while len(vocab) < n_labels:
        vocab.add(f"UNSEEN{filler}")
        filler += 1
    provider = build_provider(embedding, data.sentences, seed=seed)
    ParserModel(model_config, provider, vocab, seed=seed).save(path)


def write_inputs(data, splits, outdir):
    """Tree files per split, one alignments.tsv, tracks/<speaker>.csv."""
    synthdata.write_corpus(data, outdir, splits=splits)
    return {
        "trees": {name: os.path.join(outdir, f"{name}.trees") for name in splits},
        "alignments": os.path.join(outdir, "alignments.tsv"),
        "tracks": os.path.join(outdir, "tracks"),
    }
