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
:func:`extract_window` builds one window's ``(2m, S, S)`` gray and
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
        """Frame as (H,W) gray floats in [0,1]; a P6 frame goes through ``to_gray``.

        Every frame must have the shape of the first one read.
        """
        if not 0 <= index < self.meta.num_frames:
            raise IndexError(f"frame index {index} out of range")
        img = read_pnm(self.files[index])
        if img.ndim == 3:
            img = to_gray(img)
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


def _slot_gray(frames: np.ndarray, side: int) -> np.ndarray:
    """(..., H, W) gray frames as (..., S, S) window slots."""
    if frames.shape[-2:] == (side, side):
        return frames
    return _resize_planes(frames, side, side)


def _slot_flow(flow: np.ndarray, side: int) -> np.ndarray:
    """(..., H, W, 2) flow fields as (..., 2, S, S) window slots.

    The components scale by the resize ratio, so they stay in slot pixels.
    """
    h, w = flow.shape[-3:-1]
    planes = np.moveaxis(flow, -1, -3)
    if (h, w) != (side, side):
        planes = _resize_planes(planes, side, side)
    return planes * np.array([side / w, side / h])[:, None, None]


def extract_window(seq: FrameSequence, spec: WindowSpec, t: float,
                   flow: np.ndarray):
    """Gray and flow window tensors at candidate ``t``.

    ``flow`` is the video's ``[N, H, W, 2]`` flow, row ``i`` being the flow
    from frame ``i-1`` into frame ``i`` and row 0 zero.  Returns float64
    arrays shaped (2m, S, S) and (2m, 2, S, S).  Frames resize bilinearly
    to S x S; flow components scale by the spatial resize ratio.
    """
    spec.validate()
    indices = window_frame_indices(t, seq.meta, spec.m)
    side = spec.image_side
    gray = np.zeros((2 * spec.m, side, side))
    flo = np.zeros((2 * spec.m, 2, side, side))
    for slot, idx in enumerate(indices):
        gray[slot] = _slot_gray(seq.frame(idx), side)
        if slot > 0 and idx != indices[slot - 1]:
            flo[slot] = _slot_flow(flow[idx], side)
    return gray, flo


def frame_feature_table(seq: FrameSequence, spec: WindowSpec,
                        flow_config: FlowConfig = FlowConfig()) -> np.ndarray:
    """Every frame's classifier features as a moving slot, shaped (N, FEATURE_DIM).

    ``table[i]`` is frame ``i`` with the flow from frame ``i-1`` into it and
    its difference from frame ``i-1``; frame 0 has zero flow and a zero
    difference.  Each frame is read once, as gray.  Flow comes from
    :func:`video_flow` on chunks of about ``PAIR_CHUNK_PIXELS`` frame
    pixels, each starting at the previous chunk's last frame; a chunk's rows
    are filled before the next is read, so memory does not grow with video
    length.  Within a chunk, slots are resized from its gray frames and
    featurized by :func:`gebd.classifier.slot_features` in batches of at
    most ``PAIR_CHUNK_PIXELS // S**2`` slots (at least one), so the batch's
    memory is bounded too.
    :func:`gebd.classifier.window_inputs` on this table equals
    ``window_features(*extract_window(...))`` bit for bit.
    """
    spec.validate()
    side, n = spec.image_side, seq.meta.num_frames
    table = np.empty((n, FEATURE_DIM))
    batch = max(1, PAIR_CHUNK_PIXELS // side**2)

    def fill(start, grays, flow, prev):
        """Fill rows from ``start`` on from the gray frames, the flow into
        each and the slot before the first; returns the last frame's slot."""
        for lo in range(0, len(grays), batch):
            slots = _slot_gray(grays[lo:lo + batch], side)
            table[start + lo:start + lo + len(slots)] = slot_features(
                slots, _slot_flow(flow[lo:lo + batch], side),
                np.concatenate([prev, slots[:-1]]))
            prev = slots[-1:]
        return prev.copy()  # a copy frees the frames it may be a view of

    last = seq.frame(0)
    # frame 0 has no flow into it and is its own previous slot
    prev = fill(0, last[None], np.zeros((1,) + last.shape + (2,)),
                _slot_gray(last[None], side))
    step = max(1, PAIR_CHUNK_PIXELS // last.size)
    for start in range(1, n, step):  # frame start-1 gives the flow into start
        grays = np.stack([last] + [seq.frame(i)
                                   for i in range(start, min(start + step, n))])
        prev = fill(start, grays[1:], video_flow(grays, flow_config), prev)
        last = grays[-1].copy()
    return table
