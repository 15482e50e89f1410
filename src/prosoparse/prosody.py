"""Word alignments, energy/f0 frame tracks, and pause/duration features.

Raw audio never enters the package: alignments and 10 ms frame tracks are
ingested from files.  This module turns them into (a) bucketed pause and
normalized duration features per word and (b) an energy/f0 frame patch
around each word, with a mask of the frames inside the word, for the
convolutional feature extractor.  ``corpus.featurize`` packs a sentence's
patches end to end into ``encoder.ProsodyInputs``.
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


@dataclass(frozen=True)
class PauseDuration:
    pause_before_bucket: int
    pause_after_bucket: int
    duration_norm: float
    duration_raw: float


def pause_bucket(gap_s):
    """Monotone bucketization of a pause length in seconds into 0..5."""
    for bucket, edge in enumerate(PAUSE_BUCKET_EDGES):
        if gap_s <= edge:
            return bucket
    return N_PAUSE_BUCKETS - 1


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


def compute_pause_duration(alignments, stats):
    """Pause buckets and normalized durations for a sentence's alignments.

    pause_before of word i is start_i - end_{i-1} (0 for the first word);
    pause_after mirrors it.  duration_norm divides by the word type's mean
    duration, falling back to the corpus-wide mean.
    """
    alignments = list(alignments)
    _check_sorted(alignments)
    out = []
    for i, ali in enumerate(alignments):
        before = 0.0 if i == 0 else ali.start - alignments[i - 1].end
        after = 0.0 if i == len(alignments) - 1 else alignments[i + 1].start - ali.end
        mean = stats.mean_for(ali.word)
        if mean <= 0:
            raise DataError(f"non-positive mean duration for word {ali.word!r}")
        out.append(
            PauseDuration(
                pause_before_bucket=pause_bucket(before),
                pause_after_bucket=pause_bucket(after),
                duration_norm=ali.duration / mean,
                duration_raw=ali.duration,
            )
        )
    return out


def extract_frame_patch(track, alignment):
    """(frames [n, 2], mask [n]) for a word plus CONTEXT_S seconds each side.

    The energy/f0 frames are zero-padded at track edges and center-cropped
    around the word midpoint when longer than MAX_FRAMES; the mask marks
    the frames inside the word.
    """
    if alignment.end <= track.start_time or alignment.start >= track.end_time:
        raise AlignmentError(
            f"word {alignment.word!r} [{alignment.start}, {alignment.end}] "
            f"lies outside track [{track.start_time}, {track.end_time}]"
        )
    fp = track.frame_period
    lo = alignment.start - CONTEXT_S
    n = int(round((alignment.duration + 2.0 * CONTEXT_S) / fp))
    n = max(1, n)
    first = int(round((lo - track.start_time) / fp))
    if n > MAX_FRAMES:
        # crop symmetrically: patch midpoint == word midpoint by construction
        drop = n - MAX_FRAMES
        first += drop // 2
        n = MAX_FRAMES

    frames = np.zeros((n, 2), dtype=np.float32)
    src_lo = max(first, 0)
    src_hi = min(first + n, track.n_frames)
    if src_lo < src_hi:
        dst_lo = src_lo - first
        frames[dst_lo : dst_lo + (src_hi - src_lo), 0] = track.energy[src_lo:src_hi]
        frames[dst_lo : dst_lo + (src_hi - src_lo), 1] = track.f0[src_lo:src_hi]
    times = track.start_time + (first + np.arange(n)) * fp
    return frames, (times >= alignment.start) & (times < alignment.end)


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
