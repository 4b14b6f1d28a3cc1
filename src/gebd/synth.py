"""Synthetic desk-scale corpus: moving-rectangle videos with planted boundaries.

Each video shows a textured rectangle drifting over a static textured
background.  At every planted boundary time the segment changes character:
the rectangle picks a new heading and a new gray level, its speed spikes
then decays back to cruising, and the transition frame carries a brief
brightness pulse, so both motion and appearance cues mark the transition
and the strongest signal sits exactly at the boundary.  Five synthetic
annotators mark every planted boundary with clipped Gaussian timing jitter
(so every mark stays within 3 sigma of the planted time), recording some
boundaries as ranges centered on their jittered timestamp.

Everything derives from per-video RNG streams, so a corpus is byte-identical
across runs and independent of generation order.  Each frame is written as
it is drawn, so memory does not grow with video length.
"""

from __future__ import annotations

import os

import numpy as np

from .annotations import (AnnotationSet, AnnotatorTrack, RawBoundary, VideoMeta,
                          per_video_rng, serialize_annotations)
from .container import atomic_open
from .flow import gaussian_kernel, sep_correlate
from .pnm import frame_name, write_pnm

CLASS_NAMES = (
    "drift_square", "bounce_square", "pulse_square", "slide_square",
    "roam_square", "jitter_square", "glide_square", "swerve_square",
    "creep_square", "dash_square",
)

N_ANNOTATORS = 5
JITTER_SIGMA = 0.1  # seconds; per-annotator timing noise, clipped at 3 sigma
BOUNDARY_MARGIN = 1.0  # planted boundaries stay this far from the clip ends
BOUNDARY_GAP = 1.4  # minimum spacing between planted boundaries
BOUNDARY_COUNTS = (3, 5)  # inclusive range of planted boundaries per video
SPEED_BURST = 4.0  # px/frame added right after a boundary
BURST_DECAY = 0.35  # seconds; burst exponential time constant
BOUNDARY_FLASH = 0.15  # brightness pulse on the transition frame
RANGE_PROB = 0.3  # chance an annotator records a boundary as a range
RECT_HALF = 7.0  # px; one size keeps motion features comparable across classes


def smooth_noise(rng, h, w, sigma):
    """Blurred uniform noise stretched to [0,1]."""
    k = gaussian_kernel(sigma, int(3 * sigma))
    tex = sep_correlate(rng.random((h, w)), k, k)
    tex -= tex.min()
    peak = tex.max()
    return tex / peak if peak > 0 else tex


def _plant_boundaries(rng, duration, count):
    lo = BOUNDARY_MARGIN
    hi = duration - BOUNDARY_MARGIN
    span = hi - lo
    if span <= 0:
        raise ValueError(f"duration {duration} too short to plant boundaries")
    # cap the count so rejection sampling of the gap constraint terminates
    count = max(1, min(count, int(span / BOUNDARY_GAP)))
    while True:
        times = np.sort(rng.uniform(lo, hi, size=count))
        if count == 1 or np.diff(times).min() >= BOUNDARY_GAP:
            return [float(t) for t in times]


def _segment_params(rng, n_segments, base_level):
    """Per-segment heading and rectangle gray level, each clearly changed."""
    headings = []
    levels = []
    prev_h = None
    prev_l = base_level
    for _ in range(n_segments):
        while True:
            h = float(rng.uniform(0, 2 * np.pi))
            if prev_h is None or abs(np.angle(np.exp(1j * (h - prev_h)))) > np.pi / 4:
                break
        while True:
            lvl = float(rng.uniform(0.1, 0.95))
            if abs(lvl - prev_l) >= 0.25:
                break
        headings.append(h)
        levels.append(lvl)
        prev_h, prev_l = h, lvl
    return headings, levels


def _bilinear_wrap(img, ys, xs):
    h, w = img.shape
    xs = np.mod(xs, w)
    ys = np.mod(ys, h)
    x0 = np.floor(xs).astype(np.intp)
    y0 = np.floor(ys).astype(np.intp)
    x1 = (x0 + 1) % w
    y1 = (y0 + 1) % h
    fx = xs - x0
    fy = ys - y0
    return (img[y0, x0] * (1 - fy) * (1 - fx) + img[y0, x1] * (1 - fy) * fx
            + img[y1, x0] * fy * (1 - fx) + img[y1, x1] * fy * fx)


def _coverage(center, half, size):
    """Antialiased 1-D coverage of [center-half, center+half] per pixel cell."""
    edges = np.arange(size + 1, dtype=np.float64)
    lo = np.clip(center - half, edges[:-1], edges[1:])
    hi = np.clip(center + half, edges[:-1], edges[1:])
    return hi - lo


def generate_video(frame_dir, class_idx, rng, duration, fps, image_size):
    """Draw one video into ``frame_dir``; returns ``(n_frames, planted,
    centres)``, ``centres`` being the (n_frames, 2) rectangle centre (x, y)
    of each frame, in pixels from the top-left corner of the image.

    Between frames the rectangle translates by the difference of its
    centres over a static background, so a frame pair's true flow is known.
    """
    n_frames = int(round(duration * fps))
    n_boundaries = int(rng.integers(BOUNDARY_COUNTS[0], BOUNDARY_COUNTS[1] + 1))
    planted = _plant_boundaries(rng, duration, n_boundaries)

    background = 0.30 + 0.40 * smooth_noise(rng, image_size, image_size, sigma=5.0)
    rect_tex = smooth_noise(rng, image_size, image_size, sigma=2.0) - 0.5
    base_speed = 0.4 + 0.1 * (class_idx % 3)

    headings, levels = _segment_params(rng, n_boundaries + 1,
                                       float(background.mean()))
    seg_starts = [0.0] + planted
    # the opening segment cruises without a burst; bursts mark boundaries only
    burst_origins = [-1e9] + planted

    cx = float(rng.uniform(RECT_HALF + 2, image_size - RECT_HALF - 2))
    cy = float(rng.uniform(RECT_HALF + 2, image_size - RECT_HALF - 2))

    grid = np.arange(image_size, dtype=np.float64)
    centres = np.empty((n_frames, 2))
    segment = 0
    for f in range(n_frames):
        t = f / fps
        while segment + 1 < len(seg_starts) and t >= seg_starts[segment + 1]:
            segment += 1
        speed = base_speed + SPEED_BURST * np.exp(
            -(t - burst_origins[segment]) / BURST_DECAY)
        heading = headings[segment]
        vx = speed * np.cos(heading)
        vy = speed * np.sin(heading)
        # bounce off the borders, keeping the rectangle fully inside
        nx, ny = cx + vx, cy + vy
        if not RECT_HALF <= nx <= image_size - RECT_HALF:
            vx = -vx
            headings[segment] = np.pi - headings[segment]
        if not RECT_HALF <= ny <= image_size - RECT_HALF:
            vy = -vy
            headings[segment] = -headings[segment]
        cx += vx
        cy += vy
        centres[f] = cx, cy

        cov = (_coverage(cy, RECT_HALF, image_size)[:, None]
               * _coverage(cx, RECT_HALF, image_size)[None, :])
        tex = _bilinear_wrap(rect_tex, (grid - cy)[:, None], grid - cx)
        patch = np.clip(levels[segment] + 0.2 * tex, 0.0, 1.0)
        frame = background * (1 - cov) + patch * cov
        if segment > 0 and f == int(np.ceil(seg_starts[segment] * fps)):
            # global brightness pulse on the first frame of a new segment
            frame = np.clip(frame + BOUNDARY_FLASH, 0.0, 1.0)
        write_pnm(os.path.join(frame_dir, frame_name(f) + ".pgm"), frame)
    return n_frames, planted, centres


def annotate_video(video_id, class_idx, planted, rng, duration, fps, n_frames):
    """Five jittered annotator tracks over the planted boundaries."""
    meta = VideoMeta(video_id=video_id,
                     class_label=CLASS_NAMES[class_idx % len(CLASS_NAMES)],
                     duration=duration, fps=fps, num_frames=n_frames)
    tracks = []
    for a in range(N_ANNOTATORS):
        boundaries = []
        for t in planted:
            jitter = float(np.clip(rng.normal(0.0, JITTER_SIGMA),
                                   -3 * JITTER_SIGMA, 3 * JITTER_SIGMA))
            tt = float(np.clip(t + jitter, 0.05, duration - 0.05))
            if rng.random() < RANGE_PROB:
                half = float(rng.uniform(0.05, 0.25))
                start = max(0.0, tt - half)
                end = min(duration, tt + half)
                boundaries.append(RawBoundary("range", start, end))
            else:
                boundaries.append(RawBoundary("instant", tt))
        tracks.append(AnnotatorTrack(annotator_id=f"a{a}", boundaries=boundaries))
    return AnnotationSet(meta=meta, tracks=tracks)


def generate_corpus(out_root, n_videos, seed, duration=10.0, fps=10.0,
                    image_size=64):
    """Write frame directories and the annotation file; returns planted times.

    Layout: ``<out_root>/frames/<video_id>/frame_%06d.pgm`` plus
    ``<out_root>/annotations.json``.  Arguments are checked before any write;
    the frame files already in a video's directory are removed before it is drawn.
    """
    if n_videos < 1:
        raise ValueError(f"n_videos must be >= 1, got {n_videos}")
    if not 2 * BOUNDARY_MARGIN < duration < np.inf:
        raise ValueError(f"duration {duration} is not finite or too short to plant "
                         f"boundaries {BOUNDARY_MARGIN:g} s from each end")
    if not 0 < fps < np.inf or duration * fps <= 0.5:
        raise ValueError(f"fps must be positive, finite and give a frame, got {fps}")
    if image_size < 2 * (RECT_HALF + 2):  # the rectangle starts 2 px inside
        raise ValueError(f"image_size must be >= {2 * (RECT_HALF + 2):g}, "
                         f"got {image_size}")
    os.makedirs(os.path.join(out_root, "frames"), exist_ok=True)
    sets = []
    planted_map = {}
    for v in range(n_videos):
        video_id = f"synth_{v:04d}"
        class_idx = v % len(CLASS_NAMES)
        rng = per_video_rng(seed, video_id)
        frame_dir = os.path.join(out_root, "frames", video_id)
        os.makedirs(frame_dir, exist_ok=True)
        for name in os.listdir(frame_dir):  # the files pnm.frame_files counts
            if name.startswith("frame_") and name.endswith((".pgm", ".ppm")):
                os.remove(os.path.join(frame_dir, name))
        n_frames, planted, _ = generate_video(frame_dir, class_idx, rng,
                                              duration, fps, image_size)
        sets.append(annotate_video(video_id, class_idx, planted, rng,
                                   duration, fps, n_frames))
        planted_map[video_id] = planted
    with atomic_open(os.path.join(out_root, "annotations.json")) as fh:
        fh.write(serialize_annotations(sets))
    return planted_map
