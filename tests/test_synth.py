import builtins
import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

from gebd.annotations import load_annotations, normalize_track
from gebd import flow, synth
from gebd.pnm import write_pnm
from gebd.synth import CLASS_NAMES, JITTER_SIGMA, generate_corpus
from gebd.windows import FrameSequence

from conftest import tap_loop_correlate1d

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")

# one 128x128 video of argv[2] seconds; prints the process's peak RSS in KB
MEMORY_PROBE = """
import resource, sys
from gebd.synth import generate_corpus
generate_corpus(sys.argv[1], n_videos=1, seed=1, duration=float(sys.argv[2]),
                fps=10.0, image_size=128)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def corpus_digest(root):
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(root)):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    planted = generate_corpus(root, n_videos=3, seed=11, duration=6.0,
                              fps=10.0, image_size=48)
    return root, planted


class TestDeterminism:
    def test_byte_identical_across_runs(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        pa = generate_corpus(a, n_videos=2, seed=5, duration=5.0, image_size=40)
        pb = generate_corpus(b, n_videos=2, seed=5, duration=5.0, image_size=40)
        assert pa == pb
        assert corpus_digest(a) == corpus_digest(b)

    def test_seed_changes_output(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        generate_corpus(a, n_videos=1, seed=1, duration=5.0, image_size=40)
        generate_corpus(b, n_videos=1, seed=2, duration=5.0, image_size=40)
        assert corpus_digest(a) != corpus_digest(b)

    def test_frames_do_not_depend_on_the_blur_kernel(self, tmp_path, monkeypatch):
        # textures blur through gebd.flow.sep_correlate; its matrix products
        # round differently from the tap loop they replaced, and the frames,
        # quantized to 8 bits, must not show it
        a = tmp_path / "a"
        b = tmp_path / "b"
        pa = generate_corpus(a, n_videos=3, seed=1, duration=3.0, image_size=64)
        calls = []

        def tap_loop(img, kernel, axis):
            calls.append(axis)
            return tap_loop_correlate1d(img, kernel, axis)

        monkeypatch.setattr(flow, "correlate1d", tap_loop)
        pb = generate_corpus(b, n_videos=3, seed=1, duration=3.0, image_size=64)
        assert len(calls) == 3 * 2 * 2  # two textures per video, two axes each
        assert pa == pb
        assert corpus_digest(a) == corpus_digest(b)


class TestAnnotations:
    def test_parses_and_matches_frames(self, small_corpus):
        root, planted = small_corpus
        sets = load_annotations(os.path.join(root, "annotations.json"))
        assert len(sets) == 3
        for aset in sets:
            FrameSequence(aset.meta, os.path.join(root, "frames",
                                                  aset.meta.video_id))
            assert len(aset.tracks) == 5
            assert aset.meta.video_id in planted

    def test_all_tracks_cover_planted_within_3_sigma(self, small_corpus):
        root, planted = small_corpus
        sets = load_annotations(os.path.join(root, "annotations.json"))
        for aset in sets:
            expect = planted[aset.meta.video_id]
            for track in aset.tracks:
                stamps = normalize_track(track, aset.meta)
                assert len(stamps) == len(expect)
                for got, want in zip(stamps, expect):
                    assert abs(got - want) <= 3 * JITTER_SIGMA + 1e-6

    def test_jitter_bound_over_many_boundaries(self):
        # statistical check across >= 100 planted boundaries, frames skipped
        from gebd.annotations import per_video_rng
        from gebd.synth import _plant_boundaries, annotate_video

        checked = 0
        for v in range(30):
            vid = f"jit_{v:03d}"
            rng = per_video_rng(123, vid)
            planted = _plant_boundaries(rng, 10.0, int(rng.integers(3, 6)))
            aset = annotate_video(vid, v, planted, rng, 10.0, 10.0, 100)
            for track in aset.tracks:
                stamps = normalize_track(track, aset.meta)
                for got, want in zip(stamps, planted):
                    assert abs(got - want) <= 3 * JITTER_SIGMA + 1e-6
            checked += len(planted)
        assert checked >= 100

    def test_class_labels_cycle(self, small_corpus):
        root, _ = small_corpus
        sets = load_annotations(os.path.join(root, "annotations.json"))
        labels = [a.meta.class_label for a in sorted(sets,
                                                     key=lambda s: s.meta.video_id)]
        assert labels == list(CLASS_NAMES[:3])

    def test_range_boundaries_present(self, tmp_path):
        generate_corpus(tmp_path / "c", n_videos=4, seed=3, duration=8.0,
                        image_size=40)
        sets = load_annotations(tmp_path / "c" / "annotations.json")
        kinds = {b.kind for a in sets for t in a.tracks for b in t.boundaries}
        assert kinds == {"instant", "range"}


class TestFrames:
    def test_frame_values_and_count(self, small_corpus, rng):
        root, _ = small_corpus
        sets = load_annotations(os.path.join(root, "annotations.json"))
        meta = sets[0].meta
        seq = FrameSequence(meta, os.path.join(root, "frames", meta.video_id))
        assert meta.num_frames == 60
        frame = seq.frame(0)
        assert frame.min() >= 0.0 and frame.max() <= 1.0
        # consecutive frames differ (there is motion)
        assert np.abs(seq.frame(1) - seq.frame(0)).max() > 0.0

    def test_boundary_frames_brighter(self, small_corpus):
        # the transition frame carries the appearance flash
        root, planted = small_corpus
        sets = load_annotations(os.path.join(root, "annotations.json"))
        meta = sets[0].meta
        seq = FrameSequence(meta, os.path.join(root, "frames", meta.video_id))
        for t in planted[meta.video_id]:
            f = int(np.ceil(t * meta.fps))
            before = seq.frame(f - 1).mean()
            at = seq.frame(f).mean()
            assert at > before + 0.05


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_maxrss is in KB on Linux only")
def test_memory_does_not_grow_with_video_length(tmp_path):
    peaks = []
    for seconds in (3, 60):
        proc = subprocess.run([sys.executable, "-c", MEMORY_PROBE,
                               str(tmp_path / f"c{seconds}"), str(seconds)],
                              env=dict(os.environ, PYTHONPATH=SRC),
                              capture_output=True, text=True, check=True)
        peaks.append(int(proc.stdout.split()[-1]) / 1024)
    # keeping 600 float64 frames of 128x128 would add about 75 MB
    assert abs(peaks[1] - peaks[0]) < 16, peaks


def test_too_short_duration_rejected(tmp_path):
    with pytest.raises(ValueError, match="too short"):
        generate_corpus(tmp_path / "c", n_videos=1, seed=0, duration=1.5)


def test_interrupted_frame_write_leaves_no_file(tmp_path, monkeypatch):
    real_open = builtins.open

    class FailingSecondWrite:
        def __init__(self, fh):
            self.fh, self.writes = fh, 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return self.fh.__exit__(*exc)

        def write(self, data):
            self.writes += 1
            if self.writes == 2:  # the pixels, after the header
                raise OSError("disk full")
            return self.fh.write(data)
    monkeypatch.setattr(builtins, "open",
                        lambda *a, **k: FailingSecondWrite(real_open(*a, **k)))
    with pytest.raises(OSError, match="disk full"):
        write_pnm(tmp_path / "frame_000000.pgm", np.zeros((4, 4)))
    monkeypatch.undo()
    assert os.listdir(tmp_path) == []


def test_failed_annotation_write_leaves_no_file(tmp_path, monkeypatch):
    def failing(sets):
        raise RuntimeError("cannot serialize")
    monkeypatch.setattr(synth, "serialize_annotations", failing)
    with pytest.raises(RuntimeError, match="cannot serialize"):
        generate_corpus(tmp_path, n_videos=1, seed=0, duration=3.0,
                        image_size=32)
    assert not (tmp_path / "annotations.json").exists()
    assert os.listdir(tmp_path) == ["frames"]
