"""Temporal windows: candidate timestamps, labels, per-frame feature tables.

A candidate timestamp ``t`` is classified from the ``m`` frames before and
the ``m`` frames after it.  Window frames are consecutive at native fps;
candidates near the clip edges clamp-and-repeat frames so the candidate grid
stays uniform.  Each candidate gets a boundary/background label from a
ground-truth boundary list.

The pipeline builds no window tensors and keeps no flow:
:func:`frame_feature_table` computes every frame's row as a "moving" slot,
with the flow and difference from the frame before, in one pass over the
video, and :func:`gebd.classifier.window_inputs` gathers the rows per
candidate.  A window's first slot and any clamped repeat are "static": their
rows are the moving ones with the columns of zero flow and no difference.
:func:`extract_window` builds one window's ``(2m, 3, S, S)`` RGB and
``(2m, 2, S, S)`` flow tensors; the tests hold the tables to it.
"""

from __future__ import annotations

import logging

import numpy as np

from .annotations import VideoMeta
from .classifier import FEATURE_DIM, slot_features
from .config import FlowConfig, WindowSpec, check_stride
from .flow import PAIR_CHUNK_PIXELS, _resize_planes, to_gray, video_flow
from .pnm import frame_files, read_pnm

logger = logging.getLogger(__name__)

LABEL_BOUNDARY = "boundary"
LABEL_BACKGROUND = "background"


class FrameSequence:
    """The one reader of a video's frame directory, which it lists once
    with :func:`gebd.pnm.frame_files`."""

    def __init__(self, meta: VideoMeta, frame_dir):
        self.meta = meta
        self._shape = None  # of the first frame read; every frame must match
        self.files = frame_files(meta, frame_dir)

    def frame(self, index: int) -> np.ndarray:
        """Frame as (H,W,3) floats in [0,1]; grayscale inputs replicate channels.

        Every frame must have the shape of the first one read.
        """
        if not 0 <= index < self.meta.num_frames:
            raise IndexError(f"frame index {index} out of range")
        img = read_pnm(self.files[index])
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
    check_stride(meta, stride)
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


def _slot_rgb(frames: np.ndarray, side: int) -> np.ndarray:
    """(..., H, W, 3) frames as (..., 3, S, S) float32 window slots."""
    planes = np.moveaxis(frames, -1, -3)
    if planes.shape[-2:] != (side, side):
        planes = _resize_planes(planes, side, side)
    return np.ascontiguousarray(planes, dtype=np.float32)


def _slot_flow(flow: np.ndarray, side: int) -> np.ndarray:
    """(..., H, W, 2) flow fields as (..., 2, S, S) float32 window slots.

    The components scale by the resize ratio, so they stay in slot pixels.
    """
    h, w = flow.shape[-3:-1]
    planes = np.moveaxis(flow, -1, -3)
    if (h, w) != (side, side):
        planes = _resize_planes(planes, side, side)
    planes = planes * np.array([side / w, side / h])[:, None, None]
    return np.ascontiguousarray(planes, dtype=np.float32)


def extract_window(seq: FrameSequence, spec: WindowSpec, t: float,
                   flow: np.ndarray):
    """RGB and flow window tensors at candidate ``t``.

    ``flow`` is the video's ``[N, H, W, 2]`` flow, row ``i`` being the flow
    from frame ``i-1`` into frame ``i`` and row 0 zero.  Returns float32
    arrays shaped (2m, 3, S, S) and (2m, 2, S, S).  Frames resize bilinearly
    to S x S; flow components scale by the spatial resize ratio.
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
                        flow_config: FlowConfig = FlowConfig()) -> np.ndarray:
    """Every frame's classifier features as a moving slot, shaped (N, FEATURE_DIM).

    ``table[i]`` is frame ``i`` with the flow from frame ``i-1`` into it and
    its difference from frame ``i-1``; frame 0 has zero flow and a zero
    difference.  Each frame is read once.  Flow comes from
    :func:`video_flow` on chunks of about ``PAIR_CHUNK_PIXELS`` frame
    pixels, each starting at the previous chunk's last frame, rounded to
    float32 as :func:`extract_window` expects; a chunk's rows are filled
    before the next is read, so memory does not grow with video length.
    Within a chunk, slots are resized and featurized by
    :func:`gebd.classifier.slot_features` in batches of at most
    ``PAIR_CHUNK_PIXELS // S**2`` slots (at least one), so the batch's
    memory is bounded too.
    :func:`gebd.classifier.window_inputs` on this table equals
    ``window_features(*extract_window(...))`` bit for bit.
    """
    spec.validate()
    side, n = spec.image_side, seq.meta.num_frames
    table = np.empty((n, FEATURE_DIM))
    batch = max(1, PAIR_CHUNK_PIXELS // side**2)

    # gray frames and one batch of RGB slots; a function of its own so that
    # the full-size frames are freed before the chunk's flow is computed
    def read(lo, hi):
        frames = [seq.frame(i) for i in range(lo, hi)]
        return [to_gray(frame) for frame in frames], _slot_rgb(np.stack(frames), side)

    def chunk(start, stop, last, prev):
        """Fill rows start .. stop-1, given the gray frame and the slot before
        them (None for frame 0, which has no flow into it and is its own
        previous slot); returns this chunk's last gray frame and slot."""
        grays, slots = [], []  # no full-size RGB frame is kept
        for lo in range(start, stop, batch):
            batch_grays, rgb = read(lo, min(lo + batch, stop))
            grays += batch_grays
            slots.append(rgb)
        if last is None:
            flow = np.zeros((1,) + grays[0].shape + (2,), dtype=np.float32)
            prev = slots[0]
        else:
            flow = video_flow(np.stack([last] + grays), flow_config).astype(np.float32)
        lo = start
        for rgb in slots:
            hi = lo + len(rgb)
            flow_slots = _slot_flow(flow[lo - start:hi - start], side)
            table[lo:hi] = slot_features(rgb, flow_slots,
                                         np.concatenate([prev, rgb[:-1]]))
            prev, lo = rgb[-1:], hi
        return grays[-1], prev.copy()  # a copy frees the batch it is a view of

    last, prev = chunk(0, 1, None, None)
    step = max(1, PAIR_CHUNK_PIXELS // last.size)
    for start in range(1, n, step):  # frame start-1 gives the flow into start
        last, prev = chunk(start, min(start + step, n), last, prev)
    return table
