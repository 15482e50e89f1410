import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prosoparse import prosody
from prosoparse.encoder import ProsodyInputs
from prosoparse.errors import AlignmentError, DataError, FormatError
from prosoparse.prosody import (
    DurationStats,
    FrameTrack,
    WordAlignment,
    compute_pause_duration,
    extract_frame_patch,
    normalize_speaker,
    pause_bucket,
    read_alignment_file,
    read_frame_track_file,
    write_alignment_file,
    write_frame_track_file,
)


def track(n=200, period=0.01, start=0.0, seed=0):
    rng = np.random.default_rng(seed)
    f0 = np.where(rng.random(n) < 0.7, rng.uniform(80, 200, n), 0.0)
    return FrameTrack(
        energy=rng.uniform(0.1, 1.0, n).astype(np.float32),
        f0=f0.astype(np.float32),
        frame_period=period,
        start_time=start,
    )


class TestPauseDuration:
    def stats(self):
        return DurationStats(means={"cat": 0.3}, global_mean=0.25)

    def test_adjacent_words_bucket_zero(self):
        alis = [WordAlignment("a", 0.0, 0.3), WordAlignment("b", 0.3, 0.6)]
        out = compute_pause_duration(alis, self.stats())
        assert out[1].pause_before_bucket == 0
        assert out[0].pause_after_bucket == 0

    def test_half_second_gap_bucket_three(self):
        alis = [WordAlignment("a", 0.0, 0.3), WordAlignment("b", 0.8, 1.1)]
        out = compute_pause_duration(alis, self.stats())
        assert out[1].pause_before_bucket == 3
        assert out[0].pause_after_bucket == 3

    def test_first_and_last_word_edges(self):
        alis = [WordAlignment("a", 0.5, 0.8)]
        out = compute_pause_duration(alis, self.stats())
        assert out[0].pause_before_bucket == 0
        assert out[0].pause_after_bucket == 0

    def test_duration_norm_one_at_type_mean(self):
        alis = [WordAlignment("cat", 0.0, 0.3)]
        out = compute_pause_duration(alis, self.stats())
        assert out[0].duration_norm == pytest.approx(1.0)
        assert out[0].duration_raw == pytest.approx(0.3)

    def test_global_mean_fallback(self):
        alis = [WordAlignment("novel", 0.0, 0.25)]
        out = compute_pause_duration(alis, self.stats())
        assert out[0].duration_norm == pytest.approx(1.0)

    def test_overlapping_alignments_rejected(self):
        alis = [WordAlignment("a", 0.0, 0.4), WordAlignment("b", 0.3, 0.6)]
        with pytest.raises(DataError, match="index 1"):
            compute_pause_duration(alis, self.stats())

    def test_bucket_edges(self):
        assert pause_bucket(0.0) == 0
        assert pause_bucket(0.05) == 1
        assert pause_bucket(0.2) == 2
        assert pause_bucket(1.0) == 3
        assert pause_bucket(2.0) == 4
        assert pause_bucket(2.0001) == 5

    @given(st.floats(0, 10), st.floats(0, 10))
    @settings(max_examples=200, deadline=None)
    def test_bucket_monotone(self, g1, g2):
        lo, hi = sorted((g1, g2))
        assert pause_bucket(lo) <= pause_bucket(hi)


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
        t = track()
        frames, mask = extract_frame_patch(t, WordAlignment("w", 0.50, 0.60))
        assert frames.shape == (10, 2)
        assert mask.all()

    def test_zero_padding_at_track_start(self, monkeypatch):
        monkeypatch.setattr(prosody, "CONTEXT_S", 0.05)
        t = track()
        frames, mask = extract_frame_patch(t, WordAlignment("w", 0.0, 0.10))
        assert len(frames) == len(mask) == 20  # 5 context + 10 word + 5 context
        np.testing.assert_array_equal(frames[:5], 0.0)
        assert not mask[:5].any()
        assert mask[5:15].all()
        assert not mask[15:].any()

    def test_center_crop_long_word(self, monkeypatch):
        monkeypatch.setattr(prosody, "CONTEXT_S", 0.0)
        t = track(n=500)
        ali = WordAlignment("w", 0.5, 3.5)
        frames, _ = extract_frame_patch(t, ali)
        assert len(frames) == prosody.MAX_FRAMES == 100
        # crop midpoint within half a frame of the word midpoint
        first = int(round((0.5 - t.start_time) / t.frame_period)) + (300 - 100) // 2
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
        total = sum(extract_frame_patch(t, a)[1].sum() for a in alis)
        assert total <= t.n_frames

    def test_word_outside_track_rejected(self):
        t = track(n=50)  # covers 0.5 s
        with pytest.raises(AlignmentError):
            extract_frame_patch(t, WordAlignment("w", 2.0, 2.5))

    def test_patch_values_match_track(self, monkeypatch):
        monkeypatch.setattr(prosody, "CONTEXT_S", 0.0)
        t = track()
        ali = WordAlignment("w", 0.20, 0.30)
        frames, _ = extract_frame_patch(t, ali)
        np.testing.assert_array_equal(frames[:, 0], t.energy[20:30])
        np.testing.assert_array_equal(frames[:, 1], t.f0[20:30])


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
