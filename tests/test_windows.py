import json
import logging
import os

import numpy as np
import pytest

from gebd.annotations import VideoMeta
from gebd import windows
from gebd.container import read_tensor_file, write_tensor_file
from gebd.flow import FlowConfig, bilinear_resize
from gebd.pnm import read_pnm, write_pnm
from gebd.classifier import FEATURE_DIM, window_features, window_inputs
from gebd.windows import (LABEL_BACKGROUND, LABEL_BOUNDARY, FlowStore,
                          FrameSequence, WindowSpec, candidate_timestamps,
                          extract_window, frame_feature_table, frame_name,
                          label_windows, window_frame_indices)

from conftest import smooth_texture

META10 = VideoMeta("v", "c", 10.0, 10.0, 100)


def write_video(tmp_path, meta, frames):
    d = tmp_path / meta.video_id
    d.mkdir(parents=True, exist_ok=True)
    for i, frame in enumerate(frames):
        write_pnm(d / f"{frame_name(i)}.pgm", frame)
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
        with pytest.raises(ValueError):
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
        seq = FrameSequence(VideoMeta("tiny", "c", 1.9, 10.0, 19), d)
        with pytest.raises(FileNotFoundError, match="index 3"):
            seq.frame(3)

    def test_grayscale_replicates_channels(self, tiny_video):
        meta, d, frames = tiny_video
        seq = FrameSequence(meta, d)
        frame = seq.frame(0)
        assert frame.shape == (40, 40, 3)
        assert frame[..., 0] == pytest.approx(frame[..., 2])


class TestExtractWindow:
    def test_full_resolution_shapes(self, tiny_video):
        meta, d, _ = tiny_video
        seq = FrameSequence(meta, d)
        store = FlowStore(seq, None, FlowConfig(averaging_window=9))
        spec = WindowSpec(m=5, image_side=224)
        rgb, flo = extract_window(seq, spec, 1.0, store)
        assert rgb.shape == (10, 3, 224, 224)
        assert flo.shape == (10, 2, 224, 224)
        assert rgb.dtype == np.float32 and flo.dtype == np.float32

    def test_constant_video_zero_flow(self, tmp_path):
        meta = VideoMeta("flat", "c", 1.5, 10.0, 15)
        d = write_video(tmp_path, meta, [np.full((40, 40), 0.5)] * 15)
        seq = FrameSequence(meta, d)
        store = FlowStore(seq, None, FlowConfig(averaging_window=9))
        _, flo = extract_window(seq, WindowSpec(m=3, image_side=32), 0.7, store)
        assert np.abs(flo).max() < 1e-3

    def test_first_slot_and_clamped_repeats_zero(self, tiny_video):
        meta, d, _ = tiny_video
        seq = FrameSequence(meta, d)
        store = FlowStore(seq, None, FlowConfig(averaging_window=9))
        _, flo = extract_window(seq, WindowSpec(m=3, image_side=32), 0.0, store)
        # indices clamp to [0,0,0, 0,1,2]: slots 0..3 carry no pair flow
        assert np.abs(flo[:4]).max() == 0.0
        assert np.abs(flo[4:]).max() > 0.0

    def test_flow_resize_scales_components(self, tmp_path, rng):
        meta = VideoMeta("scaled", "c", 1.0, 10.0, 10)
        d = write_video(tmp_path, meta,
                        [smooth_texture(rng, 64, 64) for _ in range(10)])
        seq = FrameSequence(meta, d)
        flow_dir = tmp_path / "flow"
        flow_dir.mkdir()
        constant = np.zeros((64, 64, 2), dtype=np.float32)
        constant[..., 0] = 4.0
        for k in range(1, 10):
            write_tensor_file(flow_dir / f"flow_{k:06d}.gebt",
                              constant.shape, constant)
        store = FlowStore(seq, flow_dir)
        _, flo = extract_window(seq, WindowSpec(m=2, image_side=32), 0.5, store)
        assert flo[1, 0] == pytest.approx(np.full((32, 32), 2.0))
        assert flo[1, 1] == pytest.approx(np.zeros((32, 32)))

    def test_deterministic_bytes(self, tiny_video):
        meta, d, _ = tiny_video
        seq = FrameSequence(meta, d)
        store = FlowStore(seq, None, FlowConfig(averaging_window=9))
        spec = WindowSpec(m=2, image_side=48)
        a = extract_window(seq, spec, 1.1, store)
        b = extract_window(seq, spec, 1.1, store)
        assert a[0].tobytes() == b[0].tobytes()
        assert a[1].tobytes() == b[1].tobytes()

    def test_resize_consistency(self, tiny_video):
        meta, d, _ = tiny_video
        seq = FrameSequence(meta, d)
        store = FlowStore(seq, None, FlowConfig(averaging_window=9))
        big, _ = extract_window(seq, WindowSpec(m=2, image_side=64), 1.0, store)
        small, _ = extract_window(seq, WindowSpec(m=2, image_side=32), 1.0, store)
        for slot in range(4):
            down = np.stack([bilinear_resize(big[slot, ch], 32, 32)
                             for ch in range(3)])
            assert np.abs(down - small[slot]).mean() < 2 / 255


class TestFlowStore:
    def test_cache_round_trip(self, tiny_video, tmp_path):
        meta, d, _ = tiny_video
        seq = FrameSequence(meta, d)
        store = FlowStore(seq, tmp_path / "fl", FlowConfig(averaging_window=9))
        first = store.pair_flow(3)
        assert (tmp_path / "fl" / "flow_000003.gebt").exists()
        again = store.pair_flow(3)
        assert first.astype(np.float32).tobytes() == \
            again.astype(np.float32).tobytes()

    def test_compute_all_writes_sidecar(self, tmp_path, rng):
        meta = VideoMeta("v", "c", 0.5, 10.0, 5)
        d = write_video(tmp_path, meta,
                        [smooth_texture(rng, 32, 32) for _ in range(5)])
        store = FlowStore(FrameSequence(meta, d), tmp_path / "fl",
                          FlowConfig(averaging_window=9))
        store.compute_all()
        names = sorted(os.listdir(tmp_path / "fl"))
        assert names == ["flow_000001.gebt", "flow_000002.gebt",
                         "flow_000003.gebt", "flow_000004.gebt",
                         "flow_config.json"]

    @staticmethod
    def stored_bytes(flow_dir):
        return {name: (flow_dir / name).read_bytes()
                for name in sorted(os.listdir(flow_dir))
                if name.endswith(".gebt")}

    @staticmethod
    def count_reads(monkeypatch):
        reads = []

        def counting(path):
            reads.append(os.path.basename(path))
            return read_pnm(path)
        monkeypatch.setattr(windows, "read_pnm", counting)
        return reads

    def test_compute_all_reads_each_frame_once(self, tiny_video, tmp_path,
                                               monkeypatch):
        meta, d, _ = tiny_video
        config = FlowConfig(averaging_window=9)
        # chunks of 3 pairs, so 19 pairs end in a short chunk
        monkeypatch.setattr(windows, "PAIR_CHUNK_PIXELS", 3 * 40 * 40)
        reads = self.count_reads(monkeypatch)
        store = FlowStore(FrameSequence(meta, d), tmp_path / "fl", config)
        store.compute_all()
        assert sorted(reads) == [f"{frame_name(i)}.pgm" for i in range(20)]
        on_demand = FlowStore(FrameSequence(meta, d), None, config)
        for k in range(1, 20):
            dims, data = read_tensor_file(tmp_path / "fl" / f"flow_{k:06d}.gebt")
            assert dims == [40, 40, 2]
            assert data.tobytes() == \
                on_demand.pair_flow(k).astype(np.float32).tobytes()

    def test_changed_config_recomputes_pairs(self, tiny_video, tmp_path):
        meta, d, _ = tiny_video
        flow_dir = tmp_path / "fl"
        seq = FrameSequence(meta, d)
        FlowStore(seq, flow_dir, FlowConfig(averaging_window=9)).compute_all()
        old = self.stored_bytes(flow_dir)
        other = FlowConfig(averaging_window=11)
        # on-demand reads ignore pairs stored under another config
        fresh = FlowStore(seq, None, other).pair_flow(4)
        assert np.array_equal(FlowStore(seq, flow_dir, other).pair_flow(4), fresh)
        FlowStore(seq, flow_dir, other).compute_all()
        new = self.stored_bytes(flow_dir)
        assert new.keys() == old.keys()
        assert all(new[name] != old[name] for name in old)
        _, data = read_tensor_file(flow_dir / "flow_000004.gebt")
        assert data.tobytes() == fresh.astype(np.float32).tobytes()
        with open(flow_dir / "flow_config.json", encoding="utf-8") as fh:
            assert json.load(fh)["averaging_window"] == 11

    def test_missing_sidecar_recomputes_pairs(self, tmp_path, rng):
        meta = VideoMeta("v", "c", 0.4, 10.0, 4)
        d = write_video(tmp_path, meta,
                        [smooth_texture(rng, 32, 32) for _ in range(4)])
        flow_dir = tmp_path / "fl"
        flow_dir.mkdir()
        constant = np.full((32, 32, 2), 4.0, dtype=np.float32)
        for k in range(1, 4):
            write_tensor_file(flow_dir / f"flow_{k:06d}.gebt",
                              constant.shape, constant)
        seq = FrameSequence(meta, d)
        config = FlowConfig(averaging_window=9)
        FlowStore(seq, flow_dir, config).compute_all()
        on_demand = FlowStore(seq, None, config)
        for k in range(1, 4):
            _, data = read_tensor_file(flow_dir / f"flow_{k:06d}.gebt")
            assert data.tobytes() == \
                on_demand.pair_flow(k).astype(np.float32).tobytes()

    def test_partial_directory_resumed(self, tiny_video, tmp_path,
                                       monkeypatch):
        meta, d, _ = tiny_video
        flow_dir = tmp_path / "fl"
        config = FlowConfig(averaging_window=9)
        FlowStore(FrameSequence(meta, d), flow_dir, config).compute_all()
        complete = self.stored_bytes(flow_dir)
        # a kept pair is reused as stored, not recomputed
        marker = np.zeros((40, 40, 2), dtype=np.float32)
        write_tensor_file(flow_dir / "flow_000001.gebt", marker.shape, marker)
        for k in (3, 7, 8):
            os.remove(flow_dir / f"flow_{k:06d}.gebt")
        reads = self.count_reads(monkeypatch)
        FlowStore(FrameSequence(meta, d), flow_dir, config).compute_all()
        assert sorted(reads) == [f"{frame_name(i)}.pgm"
                                 for i in (2, 3, 6, 7, 8)]
        resumed = self.stored_bytes(flow_dir)
        assert resumed.pop("flow_000001.gebt") != complete.pop("flow_000001.gebt")
        assert resumed == complete

    def test_interrupted_recompute_leaves_no_stale_pair(self, tiny_video,
                                                        tmp_path, monkeypatch):
        meta, d, _ = tiny_video
        flow_dir = tmp_path / "fl"
        seq = FrameSequence(meta, d)
        FlowStore(seq, flow_dir, FlowConfig(averaging_window=9)).compute_all()

        def crash(frames, config):
            raise KeyboardInterrupt
        monkeypatch.setattr(windows, "video_flow", crash)
        with pytest.raises(KeyboardInterrupt):
            FlowStore(seq, flow_dir, FlowConfig(averaging_window=11)).compute_all()
        assert os.listdir(flow_dir) == ["flow_config.json"]


class TestFrameFeatureTable:
    @pytest.fixture
    def stored(self, tiny_video, tmp_path):
        meta, d, _ = tiny_video
        seq = FrameSequence(meta, d)
        store = FlowStore(seq, tmp_path / "fl", FlowConfig(averaging_window=9))
        store.compute_all()
        return seq, store

    # clip start (clamped), middle, and clamped end of the 20-frame clip
    @pytest.mark.parametrize("t", [0.0, 1.0, 1.95])
    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_inputs_equal_window_features(self, stored, m, t):
        seq, store = stored
        spec = WindowSpec(m=m, image_side=32)
        table = frame_feature_table(seq, spec, store)
        assert table.shape == (20, 2, FEATURE_DIM)
        got = window_inputs(table, [window_frame_indices(t, seq.meta, m)])
        want = window_features(*extract_window(seq, spec, t, store))
        assert got.shape == (1, 2 * FEATURE_DIM)
        assert np.array_equal(got[0], want)

    def test_batched_rows_equal_single_windows(self, stored):
        seq, store = stored
        spec = WindowSpec(m=3, image_side=32, candidate_stride=0.15)
        table = frame_feature_table(seq, spec, store)
        cands = candidate_timestamps(seq.meta, spec.candidate_stride)
        got = window_inputs(table, [window_frame_indices(t, seq.meta, 3)
                                    for t in cands])
        for row, t in zip(got, cands):
            assert np.array_equal(
                row, window_features(*extract_window(seq, spec, t, store)))

    def test_static_and_moving_rows(self, stored):
        seq, store = stored
        table = frame_feature_table(seq, WindowSpec(m=2, image_side=32), store)
        assert np.array_equal(table[0, 1], table[0, 0])
        assert np.all(table[:, 0, :2] == 0.0) and np.all(table[:, 0, 26] == 0.0)
        assert np.all(table[1:, 1, 26] > 0.0)  # textures differ frame to frame
        # both rows of a frame share its intensity histogram
        assert np.array_equal(table[:, 0, 10:26], table[:, 1, 10:26])

    def test_reads_each_frame_and_pair_once(self, stored, monkeypatch):
        seq, store = stored
        reads = TestFlowStore.count_reads(monkeypatch)
        pairs = []

        def counting(path):
            pairs.append(os.path.basename(path))
            return read_tensor_file(path)
        monkeypatch.setattr(windows, "read_tensor_file", counting)
        frame_feature_table(seq, WindowSpec(m=5, image_side=32), store)
        assert sorted(reads) == [f"{frame_name(i)}.pgm" for i in range(20)]
        assert sorted(pairs) == [f"flow_{k:06d}.gebt" for k in range(1, 20)]

    def test_mismatched_frame_shape_named(self, tmp_path, rng):
        meta = VideoMeta("odd", "c", 0.3, 10.0, 3)
        frames = [smooth_texture(rng, 32, 32) for _ in range(2)]
        d = write_video(tmp_path, meta, frames + [smooth_texture(rng, 24, 24)])
        seq = FrameSequence(meta, d)
        with pytest.raises(ValueError, match="frame 2 has shape"):
            frame_feature_table(seq, WindowSpec(m=1, image_side=32),
                                FlowStore(seq, None))


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
