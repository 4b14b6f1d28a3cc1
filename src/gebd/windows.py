"""Temporal windows: candidate timestamps, labels, per-frame feature tables.

A candidate timestamp ``t`` is classified from the ``m`` frames before and
the ``m`` frames after it.  Window frames are consecutive at native fps;
candidates near the clip edges clamp-and-repeat frames so the candidate grid
stays uniform.  Each candidate gets a boundary/background label from a
ground-truth boundary list.

:func:`flow_chunks` yields a video's flow as one ``[N, H, W, 2]`` tensor,
row ``i`` being the flow into frame ``i`` and row 0 zero, in chunks of
bounded size.  :func:`extract_window` turns a directory of per-frame images
(``frame_%06d.pgm``/``.ppm``) plus that tensor into the two window tensors

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

import logging
import os
from dataclasses import dataclass

import numpy as np

from .annotations import VideoMeta
from .classifier import FEATURE_DIM, frame_features
from .flow import (PAIR_CHUNK_PIXELS, FlowConfig, bilinear_resize, flow_stats,
                   to_gray, video_flow)
from .pnm import read_pnm

logger = logging.getLogger(__name__)

LABEL_BOUNDARY = "boundary"
LABEL_BACKGROUND = "background"


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
        self._shape = None  # of the first frame read; every frame must match
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
        base = os.path.join(self.frame_dir, frame_name(index))
        for ext in (".pgm", ".ppm"):
            if os.path.exists(base + ext):
                return base + ext
        raise FileNotFoundError(
            f"{self.meta.video_id}: missing frame index {index} "
            f"({base}.pgm/.ppm)")

    def frame(self, index: int) -> np.ndarray:
        """Frame as (H,W,3) floats in [0,1]; grayscale inputs replicate channels.

        Every frame must have the shape of the first one read.
        """
        if not 0 <= index < self.meta.num_frames:
            raise IndexError(f"frame index {index} out of range")
        img = read_pnm(self._frame_path(index))
        if img.ndim == 2:
            img = np.repeat(img[:, :, None], 3, axis=2)
        if self._shape is None:
            self._shape = img.shape
        elif img.shape != self._shape:
            raise ValueError(
                f"{self.meta.video_id}: frame {index} has shape {img.shape}, "
                f"expected {self._shape}")
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


def flow_chunks(seq: FrameSequence, config: FlowConfig = FlowConfig()):
    """Rows of the video's ``[N, H, W, 2]`` flow tensor, a chunk at a time.

    Row ``i`` is the flow from frame ``i-1`` into frame ``i``, and row 0 is
    zero, so rows index frames as the feature table does.  The first chunk
    is row 0 alone; each later one is a :func:`video_flow` call over about
    ``PAIR_CHUNK_PIXELS`` frame pixels, whose first frame is the previous
    chunk's last, so each frame is read once and memory stays bounded.
    """
    prev = to_gray(seq.frame(0))
    yield np.zeros((1,) + prev.shape + (2,))
    step = max(1, PAIR_CHUNK_PIXELS // prev.size)
    n = seq.meta.num_frames
    for start in range(1, n, step):
        frames = [prev] + [to_gray(seq.frame(i))
                           for i in range(start, min(start + step, n))]
        yield video_flow(np.stack(frames), config)
        prev = frames[-1]


def _slot_rgb(frame: np.ndarray, side: int) -> np.ndarray:
    """An (H, W, 3) frame as a (3, S, S) float32 window slot."""
    if frame.shape[:2] != (side, side):
        frame = bilinear_resize(frame, side, side)
    return np.ascontiguousarray(np.transpose(frame, (2, 0, 1)), dtype=np.float32)


def _slot_flow(flow: np.ndarray, side: int) -> np.ndarray:
    """An (H, W, 2) flow field as a (2, S, S) float32 window slot.

    The components scale by the resize ratio, so they stay in slot pixels.
    """
    h, w = flow.shape[:2]
    if (h, w) != (side, side):
        flow = bilinear_resize(flow, side, side)
    flow = flow * np.array([side / w, side / h])
    return np.ascontiguousarray(np.transpose(flow, (2, 0, 1)), dtype=np.float32)


def extract_window(seq: FrameSequence, spec: WindowSpec, t: float,
                   flow: np.ndarray):
    """RGB and flow window tensors at candidate ``t``.

    ``flow`` is the video's ``[N, H, W, 2]`` flow tensor (see
    :func:`flow_chunks`).  Returns float32 arrays shaped (2m, 3, S, S) and
    (2m, 2, S, S).  Frames resize bilinearly to S x S; flow components scale
    by the spatial resize ratio.
    """
    spec.validate()
    indices = window_frame_indices(t, seq.meta, spec.m)
    side = spec.image_side
    rgb = np.zeros((2 * spec.m, 3, side, side), dtype=np.float32)
    flo = np.zeros((2 * spec.m, 2, side, side), dtype=np.float32)
    for slot, idx in enumerate(indices):
        rgb[slot] = _slot_rgb(seq.frame(idx), side)
        if slot > 0 and idx != indices[slot - 1]:
            flo[slot] = _slot_flow(flow[idx], side)
    return rgb, flo


def frame_feature_table(seq: FrameSequence, spec: WindowSpec,
                        flow: np.ndarray) -> np.ndarray:
    """Both classifier feature rows of every frame, shaped (N, 2, FEATURE_DIM).

    ``flow`` is the video's ``[N, H, W, 2]`` flow tensor.  ``table[i, 0]``
    is frame ``i`` as a static window slot (zero flow, zero difference);
    ``table[i, 1]`` is frame ``i`` as a moving slot (flow row ``i`` and the
    difference from frame ``i-1``), which for frame 0 equals the static
    row.  Frames and flow are resized and rounded to float32 as in
    :func:`extract_window`, so :func:`gebd.classifier.window_inputs` on
    this table equals ``window_features(*extract_window(...))`` bit for bit.
    Each frame is read once, and each frame's features are computed once:
    the static row is the moving row with the flow columns of a zero field
    and a zero difference.
    """
    spec.validate()
    side = spec.image_side
    table = np.empty((seq.meta.num_frames, 2, FEATURE_DIM))
    mean_mag, max_mag, angle_hist = flow_stats(np.zeros((side, side, 2)))
    still = np.concatenate([[mean_mag, max_mag], angle_hist])
    prev = None
    for i in range(seq.meta.num_frames):
        rgb = _slot_rgb(seq.frame(i), side)
        table[i, 1] = frame_features(rgb, _slot_flow(flow[i], side),
                                     rgb if prev is None else prev)
        table[i, 0] = table[i, 1]
        table[i, 0, :len(still)] = still  # flow columns
        table[i, 0, -1] = 0.0  # difference column
        prev = rgb
    return table
