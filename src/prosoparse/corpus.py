"""Sentence records: trees, tokens, and per-word prosodic inputs.

Featurization runs corpus-wide in one sequential pass (duration statistics,
per-speaker track normalization), then per sentence: every word of a
sentence must name one speaker, whose track ``prosody.word_features`` reads
for all the words at once.  The feature cache stores the ``ProsodyInputs``
arrays as they are, in a tensor file keyed by a content hash of the inputs,
so repeated training runs across seeds skip recomputation.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from . import prosody as pros
from .encoder import ProsodyInputs
from .errors import AlignmentError, DataError, FormatError
from .prosody import DurationStats
from .tensorfile import read_tensors, write_tensors
from .treebank import sentence_of, tree_to_spans


# Part of every feature-cache key: bump it whenever featurize computes
# different features from the same inputs, so that older caches are stale.
FEATURES_VERSION = 1


@dataclass
class Sentence:
    sentence_id: str
    tokens: list  # (word, pos_tag) pairs
    tree: object = None
    gold_spans: set = None
    prosody: ProsodyInputs = None

    @property
    def words(self):
        return [w for w, _ in self.tokens]

    def __len__(self):
        return len(self.tokens)


def sentences_from_trees(trees, ids=None):
    out = []
    for i, tree in enumerate(trees):
        sid = ids[i] if ids is not None else f"s{i:05d}"
        out.append(
            Sentence(
                sentence_id=sid,
                tokens=sentence_of(tree),
                tree=tree,
                gold_spans=tree_to_spans(tree),
            )
        )
    return out


def featurize(sentences, alignments, tracks):
    """Attach ProsodyInputs to each sentence from alignments and frame tracks.

    ``alignments`` maps sentence_id -> [WordAlignment]; ``tracks`` maps
    speaker_id -> FrameTrack.  Tracks are z-scored per speaker first;
    duration statistics are word-type means over all alignments.  Frame
    patches take ``prosody.CONTEXT_S`` of context and at most
    ``prosody.MAX_FRAMES`` frames.  A sentence whose words name two
    speakers raises AlignmentError.
    Returns the list of warnings from speaker normalization.
    """
    norm_tracks, warnings = pros.normalize_speaker(tracks)
    all_alis = [a for alis in alignments.values() for a in alis]
    stats = DurationStats.from_alignments(all_alis)

    for sent in sentences:
        alis = alignments.get(sent.sentence_id)
        if alis is None:
            raise DataError(f"no alignments for sentence {sent.sentence_id!r}")
        if len(alis) != len(sent):
            raise AlignmentError(
                f"sentence {sent.sentence_id!r}: {len(alis)} aligned words "
                f"for {len(sent)} tokens"
            )
        for (word, _), ali in zip(sent.tokens, alis):
            if word.lower() != ali.word.lower():
                raise AlignmentError(
                    f"sentence {sent.sentence_id!r}: token {word!r} vs "
                    f"aligned word {ali.word!r}"
                )
        speaker = alis[0].speaker_id
        other = next((a.speaker_id for a in alis if a.speaker_id != speaker), None)
        if other is not None:
            raise AlignmentError(
                f"sentence {sent.sentence_id!r}: words of speakers {speaker!r} "
                f"and {other!r}; a sentence has one speaker"
            )
        track = norm_tracks.get(speaker)
        if track is None:
            raise DataError(
                f"sentence {sent.sentence_id!r}: no frame track for speaker {speaker!r}"
            )
        sent.prosody = ProsodyInputs(**pros.word_features(alis, track, stats))
    return warnings


def content_hash(paths, extra=""):
    """sha256 over the raw bytes of the input files plus a parameter string."""
    h = hashlib.sha256()
    for path in sorted(str(p) for p in paths):
        h.update(path.encode("utf-8"))
        with open(path, "rb") as fh:
            h.update(fh.read())
    h.update(extra.encode("utf-8"))
    return h.hexdigest()


# cache tensor suffix -> ProsodyInputs field, in the order the cache stores them
_CACHE_FIELDS = {
    "pause_before": "pause_before",
    "pause_after": "pause_after",
    "dur": "duration_scalars",
    "frames": "frames",
    "mask": "mask",
    "patch_lens": "patch_lens",
}


def save_feature_cache(path, sentences, meta=None):
    tensors = {}
    ids = []
    for sent in sentences:
        if sent.prosody is None:
            raise DataError(f"sentence {sent.sentence_id!r} has no features to cache")
        ids.append(sent.sentence_id)
        for key, field in _CACHE_FIELDS.items():
            tensors[f"{sent.sentence_id}.{key}"] = getattr(sent.prosody, field)
    meta = dict(meta or {})
    meta["sentence_ids"] = ids
    write_tensors(path, tensors, meta)


def load_feature_cache(path, sentences):
    """Attach cached ProsodyInputs to the given sentences (matched by id).

    A cache that lacks a listed sentence's tensors, or whose tensors disagree
    on word or frame counts, raises FormatError.
    """
    meta, tensors = read_tensors(path)
    ids = meta.get("sentence_ids", [])
    if not isinstance(ids, list) or not all(isinstance(sid, str) for sid in ids):
        raise FormatError(f"{path}: sentence_ids is not a list of strings")
    by_id = {s.sentence_id: s for s in sentences}
    for sid in ids:
        sent = by_id.get(sid)
        if sent is None:
            continue
        missing = [k for k in _CACHE_FIELDS if f"{sid}.{k}" not in tensors]
        if missing:
            raise FormatError(f"{path}: sentence {sid!r} lacks tensors {missing}")
        try:
            sent.prosody = ProsodyInputs(
                **{field: tensors[f"{sid}.{key}"] for key, field in _CACHE_FIELDS.items()}
            )
        except DataError as exc:
            raise FormatError(f"{path}: sentence {sid!r}: {exc}") from None
    return meta
