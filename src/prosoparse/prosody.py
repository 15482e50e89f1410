"""Word alignments, energy/f0 frame tracks, and pause/duration features.

Raw audio never enters the package: alignments and 10 ms frame tracks are
ingested from files.  ``word_features`` turns one sentence's alignments and
its speaker's track into the arrays of ``encoder.ProsodyInputs``, with array
ops over all its words at once: bucketed pauses and normalized durations per
word, and each word's energy/f0 frame patch, with a mask of the frames
inside the word, packed end to end for the convolutional feature extractor.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AlignmentError, DataError, FormatError, utf8_text

DEFAULT_FRAME_PERIOD = 0.010
CONTEXT_S = 0.12
MAX_FRAMES = 100
# Upper edges of the pause buckets in seconds; gaps beyond the last edge
# fall into bucket 5.
PAUSE_BUCKET_EDGES = (0.0, 0.05, 0.2, 1.0, 2.0)
N_PAUSE_BUCKETS = len(PAUSE_BUCKET_EDGES) + 1
SIGMA_FLOOR = 1e-6
FLOAT32_MAX = float(np.finfo(np.float32).max)


@dataclass(frozen=True)
class WordAlignment:
    word: str
    start: float
    end: float
    speaker_id: str = ""

    def __post_init__(self):
        if not (math.isfinite(self.end) and self.end > self.start >= 0.0):
            raise DataError(
                f"bad alignment for {self.word!r}: [{self.start}, {self.end}]"
            )

    @property
    def duration(self):
        return self.end - self.start


@dataclass
class FrameTrack:
    energy: np.ndarray
    f0: np.ndarray
    frame_period: float = DEFAULT_FRAME_PERIOD
    start_time: float = 0.0

    def __post_init__(self):
        self.energy = np.asarray(self.energy, dtype=np.float32)
        self.f0 = np.asarray(self.f0, dtype=np.float32)
        if self.energy.shape != self.f0.shape or self.energy.ndim != 1:
            raise FormatError(
                f"energy/f0 length mismatch: {self.energy.shape} vs {self.f0.shape}"
            )
        if self.frame_period <= 0:
            raise FormatError(f"frame_period must be positive, got {self.frame_period}")

    @property
    def n_frames(self):
        return len(self.energy)

    @property
    def end_time(self):
        return self.start_time + self.n_frames * self.frame_period


@dataclass
class DurationStats:
    """Per-word-type mean durations with a global fallback."""

    means: dict = field(default_factory=dict)
    global_mean: float = 0.0

    @classmethod
    def from_alignments(cls, alignments):
        totals = {}
        counts = {}
        grand = 0.0
        n = 0
        for ali in alignments:
            totals[ali.word] = totals.get(ali.word, 0.0) + ali.duration
            counts[ali.word] = counts.get(ali.word, 0) + 1
            grand += ali.duration
            n += 1
        if n == 0:
            raise DataError("cannot compute duration statistics from zero alignments")
        return cls(
            means={w: totals[w] / counts[w] for w in totals},
            global_mean=grand / n,
        )

    def mean_for(self, word):
        return self.means.get(word, self.global_mean)


def _check_sorted(alignments):
    for i in range(1, len(alignments)):
        if alignments[i].start < alignments[i - 1].end:
            raise DataError(
                f"alignments unsorted or overlapping at index {i}: "
                f"{alignments[i - 1]} then {alignments[i]}"
            )


def word_features(alignments, track, stats):
    """A sentence's six ``encoder.ProsodyInputs`` arrays, by field name.

    Pause buckets: word i's pause before is start_i - end_{i-1} (0 for the
    first word) and its pause after mirrors it; each gap falls into the
    bucket of the first edge >= it.  Duration scalars: the duration over its
    word type's mean (``stats``) and log1p of the duration.  Frame patches:
    each word's energy/f0 frames of ``track`` plus CONTEXT_S seconds each
    side, center-cropped to MAX_FRAMES frames, zero outside the track, packed
    end to end; the mask marks the frames inside the word.
    """
    _check_sorted(alignments)
    start = np.array([a.start for a in alignments])
    end = np.array([a.end for a in alignments])
    outside = (end <= track.start_time) | (start >= track.end_time)
    if outside.any():
        ali = alignments[outside.argmax()]
        raise AlignmentError(
            f"word {ali.word!r} [{ali.start}, {ali.end}] "
            f"lies outside track [{track.start_time}, {track.end_time}]"
        )
    duration = end - start
    buckets = np.searchsorted(PAUSE_BUCKET_EDGES, start[1:] - end[:-1])
    mean = np.array([stats.mean_for(a.word) for a in alignments])

    fp = track.frame_period
    lens = np.maximum(1, np.rint((duration + 2.0 * CONTEXT_S) / fp).astype(np.int64))
    first = np.rint((start - CONTEXT_S - track.start_time) / fp).astype(np.int64)
    # crop symmetrically: patch midpoint == word midpoint by construction
    first += np.maximum(lens - MAX_FRAMES, 0) // 2
    lens = np.minimum(lens, MAX_FRAMES)
    offsets = np.cumsum(lens) - lens
    idx = np.repeat(first - offsets, lens) + np.arange(lens.sum())
    inside = (idx >= 0) & (idx < track.n_frames)
    frames = np.zeros((len(idx), 2), dtype=np.float32)
    frames[inside, 0] = track.energy[idx[inside]]
    frames[inside, 1] = track.f0[idx[inside]]
    times = track.start_time + idx * fp
    return {
        "pause_before": np.concatenate([[0], buckets]),
        "pause_after": np.concatenate([buckets, [0]]),
        "duration_scalars": np.stack([duration / mean, np.log1p(duration)], axis=1),
        "frames": frames,
        "mask": (times >= np.repeat(start, lens)) & (times < np.repeat(end, lens)),
        "patch_lens": lens,
    }


def normalize_speaker(tracks):
    """Z-score each speaker's track in place of raw values.

    ``tracks`` maps speaker -> FrameTrack.  Energy is normalized over all
    frames; f0 over voiced frames only (f0 > 0), leaving unvoiced frames at
    0.  Returns (normalized tracks, warnings) where warnings lists speakers
    with no voiced frames.
    """
    normalized = {}
    warnings = []
    for speaker, track in tracks.items():
        if track.n_frames == 0:
            raise DataError(f"speaker {speaker!r} has no frames")
        energy = track.energy.astype(np.float64)
        f0 = track.f0.astype(np.float64)
        # 0 encodes unvoiced; != 0 (not > 0) keeps normalization idempotent,
        # since z-scored voiced frames may be negative
        voiced = f0 != 0
        if voiced.any():
            f = f0[voiced]
            f0[voiced] = (f - f.mean()) / max(f.std(), SIGMA_FLOOR)
        else:
            warnings.append(f"speaker {speaker!r} has no voiced frames; f0 left unscaled")
        normalized[speaker] = FrameTrack(
            energy=(energy - energy.mean()) / max(energy.std(), SIGMA_FLOOR),
            f0=f0,
            frame_period=track.frame_period,
            start_time=track.start_time,
        )
    return normalized, warnings


def read_alignment_file(path):
    """Tab-separated alignments: sentence_id, word, start_s, end_s, speaker_id.

    Returns {sentence_id: [WordAlignment, ...]} preserving file order.
    """
    sentences = {}
    with utf8_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 5:
                raise FormatError(
                    f"{path}:{lineno}: expected 5 tab-separated fields, got {len(parts)}"
                )
            sid, word, start_s, end_s, speaker = parts
            try:
                ali = WordAlignment(word, float(start_s), float(end_s), speaker)
            except (ValueError, DataError) as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from None
            sentences.setdefault(sid, []).append(ali)
    for sid, alis in sentences.items():
        try:
            _check_sorted(alis)
        except DataError as exc:
            raise DataError(f"{path}: sentence {sid}: {exc}") from None
    return sentences


def write_alignment_file(path, sentences):
    with open(path, "w", encoding="utf-8") as fh:
        for sid, alis in sentences.items():
            for ali in alis:
                fh.write(
                    f"{sid}\t{ali.word}\t{ali.start:.4f}\t{ali.end:.4f}\t{ali.speaker_id}\n"
                )


def read_frame_track_file(path):
    """Comma-separated frames with a required header: time_s, energy, f0."""
    with utf8_text(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError(f"{path}: empty frame track file") from None
        expected = ["time_s", "energy", "f0"]
        if [h.strip() for h in header] != expected:
            raise FormatError(f"{path}: expected header {expected}, got {header}")
        times, energy, f0, linenos = [], [], [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise FormatError(f"{path}:{lineno}: expected 3 columns, got {len(row)}")
            try:
                times.append(float(row[0]))
                energy.append(float(row[1]))
                f0.append(float(row[2]))
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from None
            linenos.append(lineno)
    if not times:
        raise FormatError(f"{path}: no frames")
    columns = np.array([times, energy, f0])
    # not (|v| <= max) also holds for nan
    bad = ~(np.abs(columns) <= FLOAT32_MAX).all(axis=0)
    if bad.any():
        raise FormatError(f"{path}:{linenos[bad.argmax()]}: value is not a finite float32")
    times, energy, f0 = columns
    if len(times) == 1:
        period = DEFAULT_FRAME_PERIOD
    else:
        diffs = np.diff(times)
        period = float(np.median(diffs))
        if period <= 0 or not math.isclose(
            float(diffs.max()), float(diffs.min()), rel_tol=0.05, abs_tol=1e-4
        ):
            raise FormatError(f"{path}: frame times are not evenly spaced")
    return FrameTrack(energy=energy, f0=f0, frame_period=period, start_time=float(times[0]))


def write_frame_track_file(path, track):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time_s", "energy", "f0"])
        for i in range(track.n_frames):
            t = track.start_time + i * track.frame_period
            writer.writerow(
                [f"{t:.4f}", f"{track.energy[i]:.6f}", f"{track.f0[i]:.6f}"]
            )
