"""Temporal windows: candidate timestamps, labels, per-frame feature tables.

A candidate timestamp ``t`` is classified from the ``m`` frames before and
the ``m`` frames after it.  Window frames are consecutive at native fps;
candidates near the clip edges clamp-and-repeat frames so the candidate grid
stays uniform.  Each candidate gets a boundary/background label from a
ground-truth boundary list.

:func:`extract_window` turns a directory of per-frame images
(``frame_%06d.pgm``/``.ppm``) plus a per-video flow store into the two
window tensors

    rgb  : (2m, 3, S, S)   frame intensities in [0,1]
    flow : (2m, 2, S, S)   (dx, dy) in resized-pixel units

Flow slot ``k`` holds the flow between the frames at window positions
``k-1`` and ``k``; position 0 (and any clamped repeat) is zero.  A slot's
classifier features therefore depend only on its frame and on whether it
is such a "static" slot or a "moving" one, so the pipeline does not
materialize windows: :func:`frame_feature_table` computes both feature rows
of every frame once per video, and
:func:`gebd.classifier.window_inputs` gathers them per candidate.
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import asdict, dataclass

import numpy as np

from .annotations import VideoMeta
from .classifier import FEATURE_DIM, frame_features
from .container import atomic_open, read_tensor_file, write_tensor_file
from .flow import (PAIR_CHUNK_PIXELS, FlowConfig, bilinear_resize,
                   farneback_flow, flow_stats, to_gray, video_flow)
from .pnm import read_pnm

logger = logging.getLogger(__name__)

LABEL_BOUNDARY = "boundary"
LABEL_BACKGROUND = "background"
FLOW_SIDECAR = "flow_config.json"


@dataclass(frozen=True)
class WindowSpec:
    m: int = 5
    candidate_stride: float = 0.25
    image_side: int = 224
    label_tolerance: float = 0.125

    def validate(self) -> None:
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.candidate_stride <= 0:
            raise ValueError("candidate_stride must be positive")
        if self.image_side < 32:
            raise ValueError("image_side must be >= 32")
        if self.label_tolerance < 0:
            raise ValueError("label_tolerance must be >= 0")


def frame_name(index: int) -> str:
    return f"frame_{index:06d}"


class FrameSequence:
    """Read-only view of a decoded-frame directory for one video."""

    def __init__(self, meta: VideoMeta, frame_dir):
        self.meta = meta
        self.frame_dir = str(frame_dir)
        self._ext_cache = {}
        count = 0
        for name in os.listdir(self.frame_dir):
            stem, ext = os.path.splitext(name)
            if ext in (".pgm", ".ppm") and stem.startswith("frame_"):
                count += 1
        if count != meta.num_frames:
            raise ValueError(
                f"{meta.video_id}: frame directory holds {count} frames, "
                f"metadata says {meta.num_frames}")

    def _frame_path(self, index: int) -> str:
        if index in self._ext_cache:
            return self._ext_cache[index]
        base = os.path.join(self.frame_dir, frame_name(index))
        for ext in (".pgm", ".ppm"):
            path = base + ext
            if os.path.exists(path):
                self._ext_cache[index] = path
                return path
        raise FileNotFoundError(
            f"{self.meta.video_id}: missing frame index {index} "
            f"({base}.pgm/.ppm)")

    def frame(self, index: int) -> np.ndarray:
        """Frame as (H,W,3) floats in [0,1]; grayscale inputs replicate channels."""
        if not 0 <= index < self.meta.num_frames:
            raise IndexError(f"frame index {index} out of range")
        img = read_pnm(self._frame_path(index))
        if img.ndim == 2:
            img = np.repeat(img[:, :, None], 3, axis=2)
        return img


def candidate_timestamps(meta: VideoMeta, stride: float):
    """Grid t_k = (k + 0.5) * stride for every t_k < duration."""
    if stride <= 0:
        raise ValueError("stride must be positive")
    if stride >= meta.duration:
        raise ValueError(
            f"stride {stride} must be smaller than duration {meta.duration}")
    out = []
    k = 0
    while True:
        t = (k + 0.5) * stride
        if t >= meta.duration:
            break
        out.append(t)
        k += 1
    return out


def window_frame_indices(t: float, meta: VideoMeta, m: int):
    """2m consecutive frame indices around t, clamped at the clip edges."""
    if not 0 <= t < meta.duration:
        raise ValueError(f"t={t} outside [0, duration)")
    last = meta.num_frames - 1
    center = min(max(int(round(t * meta.fps)), 0), last)
    return [min(max(center + off, 0), last) for off in range(-m, m)]


def label_windows(candidates, gt_timestamps, tolerance: float):
    """Label each candidate boundary/background by distance to ground truth.

    A candidate is a boundary when some ground-truth timestamp lies within
    ``tolerance`` seconds.  A ground-truth boundary that no candidate covers
    still claims its nearest candidate (logged, never silently dropped), so
    a too-coarse grid cannot lose boundaries.
    """
    if tolerance < 0:
        raise ValueError("tolerance must be >= 0")
    if len(candidates) == 0:
        raise ValueError("candidate list must be non-empty")
    cand = np.asarray(candidates, dtype=float)
    labels = [LABEL_BACKGROUND] * len(cand)
    for g in gt_timestamps:
        dist = np.abs(cand - g)
        covered = dist <= tolerance
        if covered.any():
            for i in np.flatnonzero(covered):
                labels[i] = LABEL_BOUNDARY
        else:
            i = int(np.argmin(dist))
            labels[i] = LABEL_BOUNDARY
            logger.warning(
                "ground-truth boundary at %.3fs is %.3fs from its nearest "
                "candidate (tolerance %.3fs); claiming that candidate",
                g, float(dist[i]), tolerance)
    return labels


class FlowStore:
    """Per-video flow cache: one GEBT file per consecutive frame pair.

    ``pair_flow(k)`` is the flow between frames ``k-1`` and ``k``; it reads
    ``flow_%06d.gebt`` when present, otherwise computes it on demand (and
    writes it back when the store directory is set).  ``compute_all``
    materializes every pair per video in bounded chunks.

    The ``flow_config.json`` sidecar records the parameters stored pairs
    were computed with.  ``compute_all`` deletes the pairs and writes the
    sidecar before computing any pair unless the sidecar already matches,
    so a pair stored next to a matching sidecar is always current.  When
    the sidecar differs from the store's config, ``pair_flow`` ignores the
    stored pairs; a directory without a sidecar holds flow supplied from
    elsewhere, which ``pair_flow`` reads as is.
    """

    def __init__(self, seq: FrameSequence, flow_dir=None,
                 config: FlowConfig = FlowConfig()):
        self.seq = seq
        self.flow_dir = str(flow_dir) if flow_dir is not None else None
        self.config = config
        self._use_stored = None  # sidecar verdict, checked once per store

    def _path(self, k: int) -> str | None:
        if self.flow_dir is None:
            return None
        return os.path.join(self.flow_dir, f"flow_{k:06d}.gebt")

    def _sidecar_path(self) -> str:
        return os.path.join(self.flow_dir, FLOW_SIDECAR)

    def _stored_config(self):
        """Parsed sidecar, None when it is missing, {} when it is unreadable."""
        try:
            with open(self._sidecar_path(), "r", encoding="utf-8") as fh:
                return json.load(fh)
        except FileNotFoundError:
            return None
        except ValueError:
            return {}

    def _pairs_reusable(self) -> bool:
        if self._use_stored is None:
            stored = self._stored_config()
            self._use_stored = stored is None or stored == asdict(self.config)
            if not self._use_stored:
                logger.warning("%s: %s does not match the flow config; "
                               "ignoring its stored pairs", self.seq.meta.video_id,
                               self._sidecar_path())
        return self._use_stored

    def _gray(self, index: int, shape=None) -> np.ndarray:
        gray = to_gray(self.seq.frame(index))
        if shape is not None and gray.shape != shape:
            raise ValueError(
                f"{self.seq.meta.video_id}: frame {index} has shape "
                f"{gray.shape}, expected {shape}")
        return gray

    def pair_flow(self, k: int) -> np.ndarray:
        if not 1 <= k < self.seq.meta.num_frames:
            raise IndexError(f"pair index {k} out of range")
        path = self._path(k)
        stored = path is not None and self._pairs_reusable()
        if stored and os.path.exists(path):
            dims, data = read_tensor_file(path)
            if len(dims) != 3 or dims[2] != 2:
                raise ValueError(f"{path}: expected dims [H,W,2], got {dims}")
            return data.astype(np.float64).reshape(dims)
        flow = farneback_flow(self._gray(k - 1), self._gray(k), self.config)
        if stored:
            os.makedirs(self.flow_dir, exist_ok=True)
            write_tensor_file(path, flow.shape, flow.astype(np.float32))
        return flow

    def compute_all(self) -> None:
        """Materialize flow for every consecutive pair plus a config sidecar.

        Pairs already stored under a matching sidecar are kept; otherwise
        every pair is recomputed.  Each frame is read once: consecutive
        missing pairs go to :func:`video_flow` in chunks of about
        ``PAIR_CHUNK_PIXELS`` pixels, and each chunk's last frame is the
        next chunk's first.
        """
        if self.flow_dir is None:
            raise ValueError("flow store directory not set")
        os.makedirs(self.flow_dir, exist_ok=True)
        pairs = range(1, self.seq.meta.num_frames)
        if self._stored_config() == asdict(self.config):
            pairs = [k for k in pairs if not os.path.exists(self._path(k))]
        else:
            for k in pairs:
                if os.path.exists(self._path(k)):
                    os.remove(self._path(k))
            self._write_sidecar()
        self._use_stored = True
        if not pairs:
            return
        first = self._gray(pairs[0] - 1)
        chunk = max(1, PAIR_CHUNK_PIXELS // first.size)
        carried = (pairs[0] - 1, first)
        for run in _consecutive_runs(pairs, chunk):
            start = run[0] - 1
            frames = [carried[1] if carried[0] == start
                      else self._gray(start, first.shape)]
            frames += [self._gray(k, first.shape) for k in run]
            for k, flow in zip(run, video_flow(np.stack(frames), self.config)):
                write_tensor_file(self._path(k), flow.shape,
                                  flow.astype(np.float32))
            carried = (run[-1], frames[-1])

    def _write_sidecar(self) -> None:
        with atomic_open(self._sidecar_path()) as fh:
            json.dump(asdict(self.config), fh, indent=1, sort_keys=True)


def _consecutive_runs(ks, size: int):
    """Split increasing ints into runs of consecutive values, at most ``size`` long."""
    run = []
    for k in ks:
        if run and (k != run[-1] + 1 or len(run) == size):
            yield run
            run = []
        run.append(k)
    if run:
        yield run


def _resize_frame(frame: np.ndarray, side: int) -> np.ndarray:
    if frame.shape[0] == side and frame.shape[1] == side:
        return frame.copy()
    return bilinear_resize(frame, side, side)


def _resize_flow(flow: np.ndarray, side: int) -> np.ndarray:
    h, w = flow.shape[:2]
    out = flow if (h == side and w == side) else bilinear_resize(flow, side, side)
    out = out.copy()
    out[..., 0] *= side / w
    out[..., 1] *= side / h
    return out


def _slot_rgb(frame: np.ndarray, side: int) -> np.ndarray:
    return np.ascontiguousarray(
        np.transpose(_resize_frame(frame, side), (2, 0, 1)), dtype=np.float32)


def _slot_flow(pair: np.ndarray, side: int) -> np.ndarray:
    return np.ascontiguousarray(
        np.transpose(_resize_flow(pair, side), (2, 0, 1)), dtype=np.float32)


def extract_window(seq: FrameSequence, spec: WindowSpec, t: float,
                   flow_store: FlowStore):
    """RGB and flow window tensors at candidate ``t``.

    Returns float32 arrays shaped (2m, 3, S, S) and (2m, 2, S, S).  Frames
    resize bilinearly to S x S; flow components scale by the spatial resize
    ratio.
    """
    spec.validate()
    indices = window_frame_indices(t, seq.meta, spec.m)
    side = spec.image_side
    rgb = np.zeros((2 * spec.m, 3, side, side), dtype=np.float32)
    flo = np.zeros((2 * spec.m, 2, side, side), dtype=np.float32)
    shape = None
    for slot, idx in enumerate(indices):
        frame = seq.frame(idx)
        if shape is None:
            shape = frame.shape
        elif frame.shape != shape:
            raise ValueError(
                f"{seq.meta.video_id}: frame {idx} has shape {frame.shape}, "
                f"expected {shape}")
        rgb[slot] = _slot_rgb(frame, side)
        if slot > 0 and indices[slot] != indices[slot - 1]:
            flo[slot] = _slot_flow(flow_store.pair_flow(idx), side)
    return rgb, flo


def frame_feature_table(seq: FrameSequence, spec: WindowSpec,
                        flow_store: FlowStore) -> np.ndarray:
    """Both classifier feature rows of every frame, shaped (N, 2, FEATURE_DIM).

    ``table[i, 0]`` is frame ``i`` as a static window slot (zero flow, zero
    difference); ``table[i, 1]`` is frame ``i`` as a moving slot (flow pair
    ``i`` and the difference from frame ``i-1``), which for frame 0 equals
    the static row.  Frames and flow are resized and rounded to float32 as
    in :func:`extract_window`, so :func:`gebd.classifier.window_inputs` on
    this table equals ``window_features(*extract_window(...))`` bit for bit.
    Each frame and each flow pair is read once, and each frame's features
    are computed once: the static row is the moving row with the flow
    columns of a zero field and a zero difference.
    """
    spec.validate()
    side = spec.image_side
    table = np.empty((seq.meta.num_frames, 2, FEATURE_DIM))
    zero_flow = np.zeros((2, side, side), dtype=np.float32)
    mean_mag, max_mag, angle_hist = flow_stats(np.zeros((side, side, 2)))
    still = np.concatenate([[mean_mag, max_mag], angle_hist])
    shape = prev = None
    for i in range(seq.meta.num_frames):
        frame = seq.frame(i)
        if shape is None:
            shape = frame.shape
        elif frame.shape != shape:
            raise ValueError(
                f"{seq.meta.video_id}: frame {i} has shape {frame.shape}, "
                f"expected {shape}")
        rgb = _slot_rgb(frame, side)
        flow = _slot_flow(flow_store.pair_flow(i), side) if i else zero_flow
        table[i, 1] = frame_features(rgb, flow, prev if i else rgb)
        table[i, 0] = table[i, 1]
        table[i, 0, :len(still)] = still  # flow columns
        table[i, 0, -1] = 0.0  # difference column
        prev = rgb
    return table
