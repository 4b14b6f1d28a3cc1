import logging
import os

import numpy as np
import pytest

from gebd.annotations import VideoMeta
from gebd import windows
from gebd.flow import (FlowConfig, _resize_planes, farneback_flow,
                       flow_stats_rows, to_gray, video_flow)
from gebd.pnm import PNMError, frame_name, read_header, read_pnm, write_pnm
from gebd.classifier import (FEATURE_DIM, STATIC_FLOW_FEATURES, slot_features,
                             window_features, window_inputs)
from gebd.windows import (LABEL_BACKGROUND, LABEL_BOUNDARY, FrameSequence,
                          WindowSpec, candidate_timestamps, extract_window,
                          frame_feature_table, label_windows,
                          window_frame_indices)

from conftest import smooth_texture

META10 = VideoMeta("v", "c", 10.0, 10.0, 100)


def write_video(tmp_path, meta, frames):
    """Each frame as a P5 file, or as a P6 file if it has three channels."""
    d = tmp_path / meta.video_id
    d.mkdir(parents=True, exist_ok=True)
    for i, frame in enumerate(frames):
        suffix = "ppm" if np.ndim(frame) == 3 else "pgm"
        write_pnm(d / f"{frame_name(i)}.{suffix}", frame)
    return d


@pytest.fixture
def tiny_video(tmp_path, rng):
    meta = VideoMeta("tiny", "c", 2.0, 10.0, 20)
    frames = [smooth_texture(rng, 40, 40) for _ in range(20)]
    d = write_video(tmp_path, meta, frames)
    return meta, d, frames


class TestCandidates:
    def test_quarter_second_grid(self):
        out = candidate_timestamps(META10, 0.25)
        assert len(out) == 40
        assert out[0] == pytest.approx(0.125)
        assert out[-1] == pytest.approx(9.875)

    def test_short_video(self):
        meta = VideoMeta("v", "c", 1.0, 10.0, 10)
        assert candidate_timestamps(meta, 0.5) == pytest.approx([0.25, 0.75])

    def test_all_inside_duration(self):
        for stride in (0.1, 0.3, 0.7):
            out = candidate_timestamps(META10, stride)
            assert all(0 < t < 10.0 for t in out)

    def test_stride_too_large(self):
        with pytest.raises(ValueError, match="^v: stride 10.0 must be smaller "
                                             "than duration 10.0$"):
            candidate_timestamps(META10, 10.0)


class TestFrameIndices:
    def test_interior(self):
        meta = VideoMeta("v", "c", 10.0, 30.0, 300)
        idx = window_frame_indices(5.0, meta, 5)
        assert idx == list(range(145, 155))

    def test_start_clamps(self):
        idx = window_frame_indices(0.0, META10, 5)
        assert idx[:5] == [0, 0, 0, 0, 0]
        assert idx[5:] == [0, 1, 2, 3, 4]

    def test_end_clamps(self):
        idx = window_frame_indices(9.99, META10, 5)
        assert idx[-5:] == [99, 99, 99, 99, 99]

    def test_always_2m_nondecreasing_in_range(self, rng):
        for _ in range(50):
            t = float(rng.uniform(0, 10.0 - 1e-9))
            m = int(rng.integers(1, 8))
            idx = window_frame_indices(t, META10, m)
            assert len(idx) == 2 * m
            assert all(0 <= i < 100 for i in idx)
            assert all(a <= b for a, b in zip(idx, idx[1:]))


class TestLabels:
    def test_within_tolerance(self):
        labels = label_windows([4.875, 5.125], [5.0], 0.25)
        assert labels == [LABEL_BOUNDARY, LABEL_BOUNDARY]

    def test_empty_gt_all_background(self):
        labels = label_windows([1.0, 2.0, 3.0], [], 0.25)
        assert labels == [LABEL_BACKGROUND] * 3

    def test_matches_naive_loop(self, rng):
        for _ in range(20):
            cands = sorted(rng.uniform(0, 10, size=30))
            gts = sorted(rng.uniform(0, 10, size=5))
            tol = float(rng.uniform(0.05, 0.5))
            labels = label_windows(cands, gts, tol)
            for i, c in enumerate(cands):
                near = any(abs(c - g) <= tol for g in gts)
                claimed = any(min(range(len(cands)),
                                  key=lambda k: abs(cands[k] - g)) == i
                              for g in gts)
                expect = LABEL_BOUNDARY if (near or claimed) else LABEL_BACKGROUND
                assert labels[i] == expect

    def test_gt_claims_nearest_when_uncovered(self, caplog):
        with caplog.at_level(logging.WARNING, logger="gebd.windows"):
            labels = label_windows([1.0, 2.0], [1.4], 0.1)
        assert labels == [LABEL_BOUNDARY, LABEL_BACKGROUND]
        assert "claiming" in caplog.text

    def test_boundary_plus_background_counts(self, rng):
        cands = sorted(rng.uniform(0, 10, size=40))
        gts = sorted(rng.uniform(0, 10, size=4))
        labels = label_windows(cands, gts, 0.125)
        n_b = sum(1 for v in labels if v == LABEL_BOUNDARY)
        n_g = sum(1 for v in labels if v == LABEL_BACKGROUND)
        assert n_b + n_g == len(cands)

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            label_windows([], [1.0], 0.1)


class TestFrameSequence:
    def test_count_mismatch(self, tmp_path):
        meta = VideoMeta("v", "c", 1.0, 10.0, 10)
        d = write_video(tmp_path, VideoMeta("v", "c", 0.5, 10.0, 5),
                        [np.zeros((8, 8))] * 5)
        with pytest.raises(ValueError, match="5 frames"):
            FrameSequence(meta, d)

    def test_missing_frame_named(self, tiny_video):
        meta, d, _ = tiny_video
        os.remove(os.path.join(d, "frame_000003.pgm"))
        with pytest.raises(ValueError, match="tiny: missing frame index 3 "):
            FrameSequence(VideoMeta("tiny", "c", 1.9, 10.0, 19), d)

    def test_duplicate_hiding_a_gap_names_the_gap(self, tiny_video):
        meta, d, frames = tiny_video
        write_pnm(d / "frame_000003.ppm", np.stack([frames[3]] * 3, axis=2))
        os.remove(d / "frame_000004.pgm")
        with pytest.raises(ValueError, match="tiny: missing frame index 4 "):
            FrameSequence(meta, d)

    # a duplicate of a present index, a wrong name, an index past the end
    @pytest.mark.parametrize("name", ["frame_000003.ppm", "frame_3.pgm",
                                      "frame_000020.pgm", "frame_x.ppm"])
    def test_unexpected_frame_file_named(self, tiny_video, name):
        meta, d, frames = tiny_video
        write_pnm(d / name, frames[0])
        with pytest.raises(ValueError, match=f"tiny: unexpected frame file {name}"):
            FrameSequence(meta, d)

    def test_other_files_ignored(self, tiny_video):
        meta, d, frames = tiny_video
        for name in (".DS_Store", "notes.txt", "frame_000003.png",
                     "frame_000003.pgm.bak", "clip.pgm"):
            (d / name).write_bytes(b"not a frame")
        seq = FrameSequence(meta, d)
        assert seq.files == [os.path.join(str(d), f"{frame_name(i)}.pgm")
                             for i in range(20)]
        assert seq.frame(3) == pytest.approx(frames[3], abs=1 / 255)

    def test_ppm_frames_listed(self, tiny_video):
        meta, d, frames = tiny_video
        os.remove(d / "frame_000005.pgm")
        write_pnm(d / "frame_000005.ppm", np.stack([frames[5]] * 3, axis=2))
        seq = FrameSequence(meta, d)
        assert os.path.basename(seq.files[5]) == "frame_000005.ppm"
        assert seq.frame(5).shape == (40, 40)

    def test_gray_and_colour_frames_read_as_gray(self, tiny_video, rng):
        # a P6 frame of three equal channels may differ from its P5 twin by
        # an ulp, so this one's channels differ and the two are not compared
        meta, d, _ = tiny_video
        os.remove(d / "frame_000005.pgm")
        write_pnm(d / "frame_000005.ppm", rng.random((40, 40, 3)))
        seq = FrameSequence(meta, d)
        gray = seq.frame(4)
        assert gray.dtype == np.float64
        assert np.array_equal(gray, read_pnm(d / "frame_000004.pgm"))
        colour = seq.frame(5)
        assert colour.dtype == np.float64
        assert np.array_equal(colour, to_gray(read_pnm(d / "frame_000005.ppm")))


FLOW_CONFIG = FlowConfig(averaging_window=9)


def flow_tensor(seq, config=FLOW_CONFIG):
    """The video's [N, H, W, 2] flow from one video_flow call over every
    frame; row 0 is zero."""
    grays = np.stack([seq.frame(i) for i in range(seq.meta.num_frames)])
    flow = np.zeros((1,) + grays.shape[1:] + (2,))
    if len(grays) > 1:
        flow = np.concatenate([flow, video_flow(grays, config)])
    return flow


class TestExtractWindow:
    def test_full_resolution_shapes(self, tiny_video):
        meta, d, _ = tiny_video
        seq = FrameSequence(meta, d)
        spec = WindowSpec(m=5, image_side=224)
        gray, flo = extract_window(seq, spec, 1.0, flow_tensor(seq))
        assert gray.shape == (10, 224, 224)
        assert flo.shape == (10, 2, 224, 224)
        assert gray.dtype == np.float64 and flo.dtype == np.float64

    def test_constant_video_zero_flow(self, tmp_path):
        meta = VideoMeta("flat", "c", 1.5, 10.0, 15)
        d = write_video(tmp_path, meta, [np.full((40, 40), 0.5)] * 15)
        seq = FrameSequence(meta, d)
        _, flo = extract_window(seq, WindowSpec(m=3, image_side=32), 0.7,
                                flow_tensor(seq))
        assert np.abs(flo).max() < 1e-3

    def test_first_slot_and_clamped_repeats_zero(self, tiny_video):
        meta, d, _ = tiny_video
        seq = FrameSequence(meta, d)
        _, flo = extract_window(seq, WindowSpec(m=3, image_side=32), 0.0,
                                flow_tensor(seq))
        # indices clamp to [0,0,0, 0,1,2]: slots 0..3 carry no pair flow
        assert np.abs(flo[:4]).max() == 0.0
        assert np.abs(flo[4:]).max() > 0.0

    def test_flow_resize_scales_components(self, tmp_path, rng):
        meta = VideoMeta("scaled", "c", 1.0, 10.0, 10)
        d = write_video(tmp_path, meta,
                        [smooth_texture(rng, 64, 64) for _ in range(10)])
        seq = FrameSequence(meta, d)
        constant = np.zeros((10, 64, 64, 2))
        constant[1:, ..., 0] = 4.0
        _, flo = extract_window(seq, WindowSpec(m=2, image_side=32), 0.5,
                                constant)
        assert flo[1, 0] == pytest.approx(np.full((32, 32), 2.0))
        assert flo[1, 1] == pytest.approx(np.zeros((32, 32)))

    def test_deterministic_bytes(self, tiny_video):
        meta, d, _ = tiny_video
        seq = FrameSequence(meta, d)
        flow = flow_tensor(seq)
        spec = WindowSpec(m=2, image_side=48)
        a = extract_window(seq, spec, 1.1, flow)
        b = extract_window(seq, spec, 1.1, flow)
        assert a[0].tobytes() == b[0].tobytes()
        assert a[1].tobytes() == b[1].tobytes()

    def test_resize_consistency(self, tiny_video):
        meta, d, _ = tiny_video
        seq = FrameSequence(meta, d)
        flow = flow_tensor(seq)
        big, _ = extract_window(seq, WindowSpec(m=2, image_side=64), 1.0, flow)
        small, _ = extract_window(seq, WindowSpec(m=2, image_side=32), 1.0, flow)
        for slot in range(4):
            down = _resize_planes(big[slot], 32, 32)
            assert np.abs(down - small[slot]).mean() < 2 / 255


class TestStaticVideo:
    def test_black_then_constant_rows_are_zero_flow_rows(self, tmp_path):
        # no frame has a gradient, so every flow is zero: every row holds the
        # zero-flow columns and one full intensity bin, and all but the first
        # gray frame a zero difference, bit for bit (-0.0 shows in the bytes)
        meta = VideoMeta("btc", "c", 2.0, 10.0, 20)
        frames = [np.zeros((40, 40))] * 10 + [np.full((40, 40), 0.5)] * 10
        seq = FrameSequence(meta, write_video(tmp_path, meta, frames))
        table = frame_feature_table(seq, WindowSpec(m=3, image_side=40),
                                    FLOW_CONFIG)
        gray = seq.frame(10)[0, 0]
        want = np.zeros((20, FEATURE_DIM))
        want[:, :len(STATIC_FLOW_FEATURES)] = STATIC_FLOW_FEATURES
        want[:10, 10] = 1.0
        want[10:, 10 + int(gray * 16)] = 1.0
        want[10, -1] = gray
        assert table.tobytes() == want.tobytes()


def count_reads(monkeypatch):
    reads = []

    def counting(path):
        reads.append(os.path.basename(path))
        return read_pnm(path)
    monkeypatch.setattr(windows, "read_pnm", counting)
    return reads


class TestFlowChunks:
    """The flow inside :func:`frame_feature_table` is computed in chunks."""

    def test_chunks_read_each_frame_once_and_equal_per_pair(
            self, tiny_video, monkeypatch):
        meta, d, _ = tiny_video
        seq = FrameSequence(meta, d)
        # chunks of 3 pairs, so 19 pairs end in a short chunk
        monkeypatch.setattr(windows, "PAIR_CHUNK_PIXELS", 3 * 40 * 40)
        reads = count_reads(monkeypatch)
        chunks = []

        def recording(frames, config):
            chunks.append(video_flow(frames, config))
            return chunks[-1]
        monkeypatch.setattr(windows, "video_flow", recording)
        frame_feature_table(seq, WindowSpec(m=5, image_side=32), FLOW_CONFIG)
        assert sorted(reads) == [f"{frame_name(i)}.pgm" for i in range(20)]
        assert [len(c) for c in chunks] == [3, 3, 3, 3, 3, 3, 1]
        # each chunk starts at the previous chunk's last frame
        for k, pair in enumerate(np.concatenate(chunks), start=1):
            want = farneback_flow(seq.frame(k - 1), seq.frame(k), FLOW_CONFIG)
            assert pair.tobytes() == want.tobytes()


class TestFeatureBatches:
    """Slots are featurized in batches of at most PAIR_CHUNK_PIXELS // S**2."""

    @pytest.mark.parametrize("side, batches", [
        (224, [1] * 20),  # 64 * 64 * 8 // 224**2 == 0: one slot per batch
        (32, [1, 19]),    # frame 0, then the one chunk of 19 pairs whole
    ])
    def test_batch_bound(self, tiny_video, monkeypatch, side, batches):
        meta, d, _ = tiny_video
        sizes = []

        def recording(gray, flow, prev):
            sizes.append(len(gray))
            return slot_features(gray, flow, prev)
        monkeypatch.setattr(windows, "slot_features", recording)
        table = frame_feature_table(FrameSequence(meta, d),
                                    WindowSpec(m=1, image_side=side), FLOW_CONFIG)
        assert sizes == batches
        assert table.shape == (20, FEATURE_DIM)


class TestFrameFeatureTable:
    @pytest.fixture
    def stored(self, tiny_video):
        meta, d, _ = tiny_video
        seq = FrameSequence(meta, d)
        return seq, flow_tensor(seq)

    @pytest.fixture
    def stored_ppm(self, tmp_path, rng):
        """A 20-frame P6 video whose three channels differ."""
        meta = VideoMeta("colour", "c", 2.0, 10.0, 20)
        textures = [smooth_texture(rng, 40, 40) for _ in range(20)]
        d = write_video(tmp_path, meta, [np.stack([g, 1 - g, g * g], axis=2)
                                         for g in textures])
        seq = FrameSequence(meta, d)
        return seq, flow_tensor(seq)

    # clip start (clamped), middle, and clamped end of the 20-frame clip, of
    # the P5 video and of the P6 one
    @pytest.mark.parametrize("video, m, t", [
        pytest.param(video, m, t, id=f"{m}-{t}{suffix}")
        for video, suffix in (("stored", ""), ("stored_ppm", "-ppm"))
        for m in (1, 2, 5) for t in (0.0, 1.0, 1.95)])
    def test_inputs_equal_window_features(self, request, video, m, t):
        seq, flow = request.getfixturevalue(video)
        spec = WindowSpec(m=m, image_side=32)
        table = frame_feature_table(seq, spec, FLOW_CONFIG)
        assert table.shape == (20, FEATURE_DIM)
        got = window_inputs(table, [window_frame_indices(t, seq.meta, m)])
        want = window_features(*extract_window(seq, spec, t, flow))
        assert got.shape == (1, 2 * FEATURE_DIM)
        assert np.array_equal(got[0], want)

    def test_batched_rows_equal_single_windows(self, stored):
        seq, flow = stored
        spec = WindowSpec(m=3, image_side=32, candidate_stride=0.15)
        table = frame_feature_table(seq, spec, FLOW_CONFIG)
        cands = candidate_timestamps(seq.meta, spec.candidate_stride)
        got = window_inputs(table, [window_frame_indices(t, seq.meta, 3)
                                    for t in cands])
        for row, t in zip(got, cands):
            assert np.array_equal(
                row, window_features(*extract_window(seq, spec, t, flow)))

    def test_static_and_moving_rows(self, stored):
        seq, flow = stored
        spec = WindowSpec(m=1, image_side=32)
        table = frame_feature_table(seq, spec, FLOW_CONFIG)
        # stored rows are moving slots: a window at frame k has frames k-1, k
        for k in range(1, 20):
            gray, flo = extract_window(seq, spec, k / seq.meta.fps, flow)
            assert np.array_equal(
                table[k], slot_features(gray[1][None], flo[1][None], gray[0][None])[0])
        assert np.all(table[1:, 26] > 0.0)  # textures differ frame to frame
        # frame 0 has zero flow and a zero difference
        assert table[0, 0] == table[0, 1] == 0.0
        assert np.all(table[0, 2:10] == 1 / 8) and table[0, 26] == 0.0
        zero = np.zeros((1, 32 * 32))
        assert np.array_equal(STATIC_FLOW_FEATURES,
                              np.column_stack(flow_stats_rows(zero, zero))[0])
        assert np.array_equal(table[0, :10], STATIC_FLOW_FEATURES)

    def test_reads_each_frame_and_pair_once(self, stored, monkeypatch):
        seq, _ = stored
        reads = count_reads(monkeypatch)
        pairs = []

        def recording(frames, config):
            pairs.append(len(frames) - 1)
            return video_flow(frames, config)
        monkeypatch.setattr(windows, "video_flow", recording)
        frame_feature_table(seq, WindowSpec(m=5, image_side=32), FLOW_CONFIG)
        assert sorted(reads) == [f"{frame_name(i)}.pgm" for i in range(20)]
        assert sum(pairs) == 19

    def test_small_chunks_equal_per_pair_flow(self, stored, monkeypatch):
        seq, _ = stored
        spec = WindowSpec(m=1, image_side=32)
        whole = frame_feature_table(seq, spec, FLOW_CONFIG)  # one chunk
        monkeypatch.setattr(windows, "PAIR_CHUNK_PIXELS", 3 * 40 * 40)
        table = frame_feature_table(seq, spec, FLOW_CONFIG)
        assert np.array_equal(table, whole)
        per_pair = np.zeros((20, 40, 40, 2))
        for k in range(1, 20):
            per_pair[k] = farneback_flow(seq.frame(k - 1), seq.frame(k), FLOW_CONFIG)
        # a window at frame k reads frame k-1's static row and frame k's
        # moving row, so these cover every moving row
        for k in range(20):
            t = k / seq.meta.fps
            got = window_inputs(table, [window_frame_indices(t, seq.meta, 1)])
            want = window_features(*extract_window(seq, spec, t, per_pair))
            assert np.array_equal(got[0], want)

    def test_one_frame_video(self, tmp_path, rng):
        meta = VideoMeta("still", "c", 0.1, 10.0, 1)
        d = write_video(tmp_path, meta, [smooth_texture(rng, 32, 32)])
        seq = FrameSequence(meta, d)
        flow = flow_tensor(seq)
        assert flow.shape == (1, 32, 32, 2) and not flow.any()
        spec = WindowSpec(m=2, image_side=32)
        table = frame_feature_table(seq, spec, FLOW_CONFIG)
        assert table.shape == (1, FEATURE_DIM)
        assert np.array_equal(table[0, :10], STATIC_FLOW_FEATURES)
        assert table[0, 26] == 0.0
        got = window_inputs(table, [window_frame_indices(0.05, meta, 2)])
        assert np.array_equal(
            got[0], window_features(*extract_window(seq, spec, 0.05, flow)))

    def test_mismatched_frame_shape_named(self, tmp_path, rng):
        meta = VideoMeta("odd", "c", 0.3, 10.0, 3)
        frames = [smooth_texture(rng, 32, 32) for _ in range(2)]
        d = write_video(tmp_path, meta, frames + [smooth_texture(rng, 24, 24)])
        seq = FrameSequence(meta, d)
        with pytest.raises(ValueError, match="frame 2 has shape"):
            frame_feature_table(seq, WindowSpec(m=1, image_side=32))


def test_pnm_round_trip(tmp_path, rng):
    gray = rng.random((12, 9))
    write_pnm(tmp_path / "g.pgm", gray)
    back = read_pnm(tmp_path / "g.pgm")
    assert back.shape == (12, 9)
    assert np.abs(back - gray).max() <= 0.5 / 255 + 1e-9
    color = rng.random((7, 5, 3))
    write_pnm(tmp_path / "c.ppm", color)
    back = read_pnm(tmp_path / "c.ppm")
    assert back.shape == (7, 5, 3)
    assert np.abs(back - color).max() <= 0.5 / 255 + 1e-9


def test_pnm_header_comments_and_trailing_bytes(tmp_path):
    path = tmp_path / "c.pgm"
    comment = b"# " + b"x" * 300 + b"\n"
    path.write_bytes(b"P5 " + comment + b"3\t" + comment + b"2\n255\n"
                     + bytes(range(6)) + b"trailing")
    with open(path, "rb") as fh:
        assert read_header(fh) == (3, 2, 1)
        assert fh.read(6) == bytes(range(6))
    assert np.array_equal(read_pnm(path) * 255, np.arange(6.0).reshape(2, 3))
    for blob, problem in [(b"P5\n3 2\n255", "truncated PNM header"),
                          (b"P5\n3 -2\n255\n", "height b'-2' is not a number")]:
        path.write_bytes(blob)
        with pytest.raises(PNMError, match=f"{path}: {problem}"):
            read_pnm(path)
