import numpy as np
import pytest
from conftest import per_word_features
from hypothesis import given, settings
from hypothesis import strategies as st

from prosoparse import prosody
from prosoparse.encoder import ProsodyInputs
from prosoparse.errors import AlignmentError, DataError, FormatError
from prosoparse.prosody import (
    DurationStats,
    FrameTrack,
    WordAlignment,
    normalize_speaker,
    read_alignment_file,
    read_frame_track_file,
    word_features,
    write_alignment_file,
    write_frame_track_file,
)

STATS = DurationStats(means={"cat": 0.3}, global_mean=0.25)
# a first word this short ends where any edge (gap) after it starts exactly:
# TINY + edge is a float, so (TINY + edge) - TINY == edge
TINY = 2.0**-20


def track(n=200, period=0.01, start=0.0, seed=0):
    rng = np.random.default_rng(seed)
    f0 = np.where(rng.random(n) < 0.7, rng.uniform(80, 200, n), 0.0)
    return FrameTrack(
        energy=rng.uniform(0.1, 1.0, n).astype(np.float32),
        f0=f0.astype(np.float32),
        frame_period=period,
        start_time=start,
    )


def patch(t, ali):
    """(frames, mask) of one word's patch."""
    out = word_features([ali], t, STATS)
    return out["frames"], out["mask"]


def bucket_of(gap):
    """The pause bucket of a gap after a TINY first word, as both words'
    pause feature."""
    alis = [WordAlignment("a", 0.0, TINY), WordAlignment("b", TINY + gap, TINY + gap + 0.1)]
    out = word_features(alis, track(n=int(alis[-1].end / 0.01) + 1), STATS)
    assert out["pause_after"][0] == out["pause_before"][1]
    return out["pause_before"][1]


class TestPauseDuration:
    def test_adjacent_words_bucket_zero(self):
        alis = [WordAlignment("a", 0.0, 0.3), WordAlignment("b", 0.3, 0.6)]
        out = word_features(alis, track(), STATS)
        assert out["pause_before"][1] == 0
        assert out["pause_after"][0] == 0

    def test_half_second_gap_bucket_three(self):
        alis = [WordAlignment("a", 0.0, 0.3), WordAlignment("b", 0.8, 1.1)]
        out = word_features(alis, track(), STATS)
        assert out["pause_before"][1] == 3
        assert out["pause_after"][0] == 3

    def test_first_and_last_word_edges(self):
        out = word_features([WordAlignment("a", 0.5, 0.8)], track(), STATS)
        assert out["pause_before"][0] == 0
        assert out["pause_after"][0] == 0

    def test_duration_norm_one_at_type_mean(self):
        out = word_features([WordAlignment("cat", 0.0, 0.3)], track(), STATS)
        assert out["duration_scalars"][0, 0] == pytest.approx(1.0)
        assert np.expm1(out["duration_scalars"][0, 1]) == pytest.approx(0.3)

    def test_global_mean_fallback(self):
        out = word_features([WordAlignment("novel", 0.0, 0.25)], track(), STATS)
        assert out["duration_scalars"][0, 0] == pytest.approx(1.0)

    def test_overlapping_alignments_rejected(self):
        alis = [WordAlignment("a", 0.0, 0.4), WordAlignment("b", 0.3, 0.6)]
        with pytest.raises(DataError, match="index 1"):
            word_features(alis, track(), STATS)

    def test_bucket_edges(self):
        edges = (0.0, 0.05, 0.2, 1.0, 2.0, 2.0001)
        assert all((TINY + g) - TINY == g for g in edges)
        assert [bucket_of(g) for g in edges] == [0, 1, 2, 3, 4, 5]

    @given(st.floats(0, 10), st.floats(0, 10))
    @settings(max_examples=200, deadline=None)
    def test_bucket_monotone(self, g1, g2):
        lo, hi = sorted((g1, g2))
        assert bucket_of(lo) <= bucket_of(hi)


class TestFramePatch:
    def test_patch_needs_a_frame(self):
        with pytest.raises(DataError, match="not positive frame counts"):
            ProsodyInputs(
                pause_before=np.zeros(2, np.int64),
                pause_after=np.zeros(2, np.int64),
                duration_scalars=np.zeros((2, 2), np.float32),
                frames=np.zeros((3, 2), np.float32),
                mask=np.zeros(3, dtype=bool),
                patch_lens=np.array([3, 0]),
            )

    def test_exact_frame_count_no_context(self, monkeypatch):
        monkeypatch.setattr(prosody, "CONTEXT_S", 0.0)
        frames, mask = patch(track(), WordAlignment("w", 0.50, 0.60))
        assert frames.shape == (10, 2)
        assert mask.all()

    def test_word_under_half_a_frame_gets_one_frame(self, monkeypatch):
        monkeypatch.setattr(prosody, "CONTEXT_S", 0.0)
        frames, mask = patch(track(), WordAlignment("w", 0.500, 0.504))
        assert frames.shape == (1, 2)
        assert mask.all()

    def test_zero_padding_at_track_start(self, monkeypatch):
        monkeypatch.setattr(prosody, "CONTEXT_S", 0.05)
        frames, mask = patch(track(), WordAlignment("w", 0.0, 0.10))
        assert len(frames) == len(mask) == 20  # 5 context + 10 word + 5 context
        np.testing.assert_array_equal(frames[:5], 0.0)
        assert not mask[:5].any()
        assert mask[5:15].all()
        assert not mask[15:].any()

    def test_center_crop_long_word(self, monkeypatch):
        monkeypatch.setattr(prosody, "CONTEXT_S", 0.0)
        t = track(n=500)
        frames, _ = patch(t, WordAlignment("w", 0.5, 3.5))
        assert len(frames) == prosody.MAX_FRAMES == 100
        # crop midpoint within half a frame of the word midpoint
        first = int(round((0.5 - t.start_time) / t.frame_period)) + (300 - 100) // 2
        np.testing.assert_array_equal(frames[:, 0], t.energy[first : first + 100])
        mid_time = t.start_time + (first + 50) * t.frame_period
        assert abs(mid_time - 2.0) <= 0.5 * t.frame_period + 1e-9

    def test_interior_mask_total_bounded(self):
        t = track(n=300)
        alis = [
            WordAlignment("a", 0.10, 0.40),
            WordAlignment("b", 0.40, 0.90),
            WordAlignment("c", 1.00, 1.50),
        ]
        assert prosody.CONTEXT_S == 0.12
        out = word_features(alis, t, STATS)
        assert out["patch_lens"].sum() == len(out["mask"])
        assert out["mask"].sum() <= t.n_frames

    def test_word_outside_track_rejected(self):
        t = track(n=50)  # covers 0.5 s
        alis = [
            WordAlignment("in", 0.1, 0.2),
            WordAlignment("late", 2.0, 2.5),
            WordAlignment("later", 3.0, 3.5),
        ]
        with pytest.raises(AlignmentError, match=r"^word 'late' \[2.0, 2.5\] lies outside"):
            word_features(alis, t, STATS)

    def test_patch_values_match_track(self, monkeypatch):
        monkeypatch.setattr(prosody, "CONTEXT_S", 0.0)
        t = track()
        frames, _ = patch(t, WordAlignment("w", 0.20, 0.30))
        np.testing.assert_array_equal(frames[:, 0], t.energy[20:30])
        np.testing.assert_array_equal(frames[:, 1], t.f0[20:30])


PERIODS = (0.01, 0.0125, 2.0**-6)
EDGE_GAPS = prosody.PAUSE_BUCKET_EDGES + tuple(
    np.nextafter(e, np.inf) for e in prosody.PAUSE_BUCKET_EDGES
)


@st.composite
def sentence_on_track(draw):
    """(alignments, track): a few words, each overlapping the track.

    Words may start before the track or run past its end, be longer than
    MAX_FRAMES frames, start or last a whole number of frames plus a half
    (after CONTEXT_S) and follow gaps on or just past a pause-bucket edge.
    """
    fp = draw(st.sampled_from(PERIODS))
    track_start = draw(st.sampled_from((0.0, 0.25, 1.0)))

    def halves(lo, hi):
        return st.integers(lo, hi).map(lambda k: (k + 0.5) * fp)

    first_start = draw(st.one_of(
        halves(0, 40).map(lambda h: track_start + h - prosody.CONTEXT_S),
        st.floats(0.0, track_start + 1.0),
    ))
    gaps = st.one_of(st.sampled_from(EDGE_GAPS), st.floats(0.0, 2.5))
    durations = st.one_of(
        st.floats(0.001, 0.5),
        st.floats(0.9, 3.0),  # longer than MAX_FRAMES frames
        halves(30, 90).map(lambda h: h - 2.0 * prosody.CONTEXT_S),
    )
    # after a TINY first word, the next gap is exactly the edge drawn
    alis = [WordAlignment("w0", 0.0, TINY)] if draw(st.booleans()) else []
    start = max(first_start, 0.0)
    for i in range(len(alis), len(alis) + draw(st.integers(1, 6))):
        if alis:
            start = alis[-1].end + draw(gaps)
        alis.append(WordAlignment(f"w{i % 3}", start, start + draw(durations)))
    if alis[0].end <= track_start:
        track_start = alis[0].start
    # the track ends up to 10 frames after the last word starts; the frame
    # count is checked against ``end_time``'s own sum, since the quotient
    # can round one frame short (0.3 - 0.25 is just under 5 frames of 0.01)
    n = max(int((alis[-1].start - track_start) / fp), 0) + 1
    if track_start + n * fp <= alis[-1].start:
        n += 1
    n += draw(st.integers(0, 10))
    rng = np.random.default_rng(n)
    t = FrameTrack(
        energy=rng.standard_normal(n), f0=rng.standard_normal(n),
        frame_period=fp, start_time=track_start,
    )
    return alis, t


class TestWordFeatures:
    @given(sentence_on_track())
    @settings(max_examples=300, deadline=None)
    def test_equals_per_word_oracle_byte_for_byte(self, sentence):
        alis, t = sentence
        stats = DurationStats(means={"w0": 0.2, "w1": 1.5}, global_mean=0.3)
        got = ProsodyInputs(**word_features(alis, t, stats))
        want = ProsodyInputs(**per_word_features(alis, t, stats))
        for field in ("pause_before", "pause_after", "duration_scalars", "frames",
                      "mask", "patch_lens"):
            a, b = getattr(got, field), getattr(want, field)
            assert a.dtype == b.dtype and a.shape == b.shape, field
            assert a.tobytes() == b.tobytes(), field

    def test_half_frames_round_to_even(self):
        # with 1/64 s frames, this word's context start lies 2.5 frames
        # after the track start and its patch 17.5 frames long: both round
        # to even, to 2 and 18 frames
        fp = 2.0**-6
        start = prosody.CONTEXT_S + 2.5 * fp
        ali = WordAlignment("w", start, start + 17.5 * fp - 2 * prosody.CONTEXT_S)
        t = track(n=100, period=fp)
        assert (ali.start - prosody.CONTEXT_S) / fp == 2.5
        assert (ali.duration + 2 * prosody.CONTEXT_S) / fp == 17.5
        out = word_features([ali], t, STATS)
        assert out["patch_lens"][0] == 18
        np.testing.assert_array_equal(out["frames"][:, 0], t.energy[2:20])


class TestNormalizeSpeaker:
    def test_moments_after_normalization(self):
        tracks = {"sp1": track(seed=1), "sp2": track(seed=2)}
        normed, warnings = normalize_speaker(tracks)
        assert warnings == []
        for spk, t in normed.items():
            e = t.energy.astype(np.float64)
            f = t.f0.astype(np.float64)
            voiced = f != 0
            assert abs(e.mean()) < 1e-6
            assert abs(e.std() - 1.0) < 1e-5
            assert abs(f[voiced].mean()) < 1e-5
            assert abs(f[voiced].std() - 1.0) < 1e-4

    def test_constant_energy_zeroed(self):
        t = FrameTrack(energy=np.full(50, 3.3), f0=np.zeros(50))
        normed, warnings = normalize_speaker({"s": t})
        np.testing.assert_allclose(normed["s"].energy, 0.0, atol=1e-5)
        assert len(warnings) == 1  # no voiced frames

    def test_zscore_definition(self):
        f0 = np.zeros(100, dtype=np.float64)
        f0[:50] = 120.0
        f0[:25] = 100.0
        f0[25:50] = 140.0
        t = FrameTrack(energy=np.ones(100), f0=f0)
        normed, _ = normalize_speaker({"s": t})
        out = normed["s"].f0
        assert out[25] == pytest.approx(1.0)  # 140 with mean 120, sd 20
        assert out[0] == pytest.approx(-1.0)
        np.testing.assert_array_equal(out[50:], 0.0)  # unvoiced untouched

    def test_idempotent(self):
        tracks = {"s": track(seed=5)}
        once, _ = normalize_speaker(tracks)
        twice, _ = normalize_speaker(once)
        np.testing.assert_allclose(twice["s"].energy, once["s"].energy, atol=1e-6)
        np.testing.assert_allclose(twice["s"].f0, once["s"].f0, atol=1e-6)


class TestFiles:
    def test_alignment_round_trip(self, tmp_path):
        path = tmp_path / "ali.tsv"
        sentences = {
            "s1": [WordAlignment("yes", 0.0, 0.25, "spkA"),
                   WordAlignment("sir", 0.3, 0.6, "spkA")],
            "s2": [WordAlignment("no", 1.0, 1.2, "spkB")],
        }
        write_alignment_file(path, sentences)
        back = read_alignment_file(path)
        assert list(back) == ["s1", "s2"]
        assert back["s1"][1].word == "sir"
        assert back["s1"][1].start == pytest.approx(0.3)

    def test_alignment_bad_field_count(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("s1\tword\t0.0\n")
        with pytest.raises(FormatError, match="5 tab-separated"):
            read_alignment_file(path)

    def test_track_round_trip(self, tmp_path):
        path = tmp_path / "track.csv"
        t = track(n=40)
        write_frame_track_file(path, t)
        back = read_frame_track_file(path)
        assert back.frame_period == pytest.approx(0.01)
        np.testing.assert_allclose(back.energy, t.energy, atol=1e-5)
        np.testing.assert_allclose(back.f0, t.f0, atol=1e-4)

    def test_track_requires_header(self, tmp_path):
        path = tmp_path / "nohdr.csv"
        path.write_text("0.0,1.0,120.0\n")
        with pytest.raises(FormatError, match="header"):
            read_frame_track_file(path)
