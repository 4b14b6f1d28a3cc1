"""Annotation data model: parsing, validation, normalization, ground-truth selection.

A video carries several annotator tracks (typically 5).  Boundaries are
either instants or ranges; ranges normalize to their middle timestamp.  Each
annotator gets an F1-consistency score - the mean F1 of their boundaries
scored against every other annotator's - which drives two ground-truth
selection policies: take the most consistent annotator, or sample one
annotator with probability proportional to consistency.

The file format is a JSON list, one object per video::

    {"video_id": "...", "class_label": "...", "duration": 10.0,
     "fps": 10.0, "num_frames": 100,
     "annotators": [
        {"annotator_id": "a0", "f1_consistency": 0.8,   # optional
         "boundaries": [{"t": 2.5}, {"start": 4.0, "end": 5.0}]},
        ...]}
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .evaluation import check_limit, match_count, prf_from_counts


class AnnotationParseError(ValueError):
    """Malformed annotation file syntax."""


class AnnotationValidationError(ValueError):
    """Schema or invariant violation; message names the video and field."""


@dataclass(frozen=True)
class VideoMeta:
    video_id: str
    class_label: str
    duration: float
    fps: float
    num_frames: int


@dataclass(frozen=True)
class RawBoundary:
    kind: str  # "instant" | "range"
    start: float
    end: float | None = None


@dataclass
class AnnotatorTrack:
    annotator_id: str
    boundaries: list  # of RawBoundary, ascending by start
    f1_consistency: float | None = None


@dataclass
class AnnotationSet:
    meta: VideoMeta
    tracks: list  # of AnnotatorTrack


def _number(obj, key, where) -> float:
    """``obj[key]`` as a float; anything but a finite JSON number (Python's
    json reads ``NaN`` and ``Infinity`` too) is refused naming ``where`` and
    ``key``."""
    value = obj[key]
    if type(value) in (float, int):  # not a bool
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an integer beyond the float range
            pass
    raise AnnotationValidationError(
        f"{where}: {key} must be a finite number, got {value!r}")


def _string(obj, key, where) -> str:
    """``obj[key]`` if it is a string, else refused naming ``where`` and ``key``."""
    value = obj[key]
    if isinstance(value, str):
        return value
    raise AnnotationValidationError(
        f"{where}: {key} must be a string, got {value!r}")


def _boundaries_from_json(entries, where, duration) -> list:
    """The boundary list ``entries`` of annotator ``where``, each within
    [0, duration] and sorted by start."""
    if not isinstance(entries, list):
        raise AnnotationValidationError(f"{where}: boundaries must be a list")
    out = []
    prev = 0.0  # every start is at least 0
    for obj in entries:
        if not isinstance(obj, dict):
            raise AnnotationValidationError(
                f"{where}: boundary entries must be objects")
        if "t" in obj:
            start = _number(obj, "t", where)
            if not 0 <= start <= duration:
                raise AnnotationValidationError(
                    f"{where}: boundary t out of [0,duration]")
            out.append(RawBoundary("instant", start))
        elif "start" in obj and "end" in obj:
            start, end = _number(obj, "start", where), _number(obj, "end", where)
            if not 0 <= start <= end <= duration:
                raise AnnotationValidationError(
                    f"{where}: range start/end out of order "
                    f"or outside [0,duration]")
            out.append(RawBoundary("range", start, end))
        else:
            raise AnnotationValidationError(
                f"{where}: boundary needs either 't' or 'start'+'end'")
        if start < prev:
            raise AnnotationValidationError(
                f"{where}: boundaries not sorted by start")
        prev = start
    return out


def parse_annotations(text: str) -> list:
    """Parse annotation JSON text into validated AnnotationSets.

    Each field is checked where it is read; a missing, wrong-typed,
    non-finite or out-of-range value raises
    :class:`AnnotationValidationError` naming the video, the annotator when
    there is one, and the field.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise AnnotationParseError(
            f"malformed JSON at line {e.lineno} column {e.colno}: {e.msg}") from e
    if not isinstance(raw, list):
        raise AnnotationValidationError("top level must be a list of video objects")
    sets = []
    seen = set()
    for entry in raw:
        if not isinstance(entry, dict):
            raise AnnotationValidationError("each video entry must be an object")
        vid = entry.get("video_id")
        if not isinstance(vid, str) or not vid:
            raise AnnotationValidationError("entry missing field video_id")
        if "/" in vid or "\0" in vid or vid in (".", ".."):  # it names files
            raise AnnotationValidationError(f"video_id {vid!r} is not a file name")
        if vid in seen:
            raise AnnotationValidationError(f"duplicate video_id {vid!r}")
        seen.add(vid)
        for key in ("class_label", "duration", "fps", "num_frames", "annotators"):
            if key not in entry:
                raise AnnotationValidationError(f"{vid}: missing field {key}")
        duration = _number(entry, "duration", vid)
        if duration <= 0:
            raise AnnotationValidationError(f"{vid}: duration must be positive")
        fps = _number(entry, "fps", vid)
        if fps <= 0:
            raise AnnotationValidationError(f"{vid}: fps must be positive")
        num_frames = _number(entry, "num_frames", vid)
        if not num_frames.is_integer():  # refused, not truncated
            raise AnnotationValidationError(
                f"{vid}: num_frames must be an integer, got {entry['num_frames']!r}")
        if num_frames < 1:
            raise AnnotationValidationError(f"{vid}: num_frames must be >= 1")
        if abs(num_frames / fps - duration) > 1.0 / fps:
            raise AnnotationValidationError(
                f"{vid}: num_frames inconsistent with duration and fps")
        meta = VideoMeta(video_id=vid, class_label=_string(entry, "class_label", vid),
                         duration=duration, fps=fps, num_frames=int(num_frames))
        annotators = entry["annotators"]
        if not isinstance(annotators, list):
            raise AnnotationValidationError(f"{vid}: annotators must be a list")
        if not annotators:
            raise AnnotationValidationError(f"{vid}: annotators must be non-empty")
        tracks = []
        for ann in annotators:
            if not isinstance(ann, dict):
                raise AnnotationValidationError(
                    f"{vid}: annotator entries must be objects")
            if "annotator_id" not in ann:
                raise AnnotationValidationError(f"{vid}: missing field annotator_id")
            aid = _string(ann, "annotator_id", vid)
            if any(t.annotator_id == aid for t in tracks):
                raise AnnotationValidationError(
                    f"{vid}: duplicate annotator_id {aid!r}")
            where = f"{vid}/{aid}"
            boundaries = _boundaries_from_json(ann.get("boundaries", []), where,
                                               duration)
            cons = None
            if ann.get("f1_consistency") is not None:
                cons = _number(ann, "f1_consistency", where)
                if not 0 <= cons <= 1:
                    raise AnnotationValidationError(
                        f"{where}: f1_consistency outside [0,1]")
            tracks.append(AnnotatorTrack(annotator_id=aid, boundaries=boundaries,
                                         f1_consistency=cons))
        sets.append(AnnotationSet(meta=meta, tracks=tracks))
    return sets


def serialize_annotations(sets) -> str:
    """Inverse of :func:`parse_annotations` (field-for-field round trip)."""
    out = []
    for aset in sets:
        annotators = []
        for track in aset.tracks:
            bounds = []
            for b in track.boundaries:
                if b.kind == "instant":
                    bounds.append({"t": b.start})
                else:
                    bounds.append({"start": b.start, "end": b.end})
            ann = {"annotator_id": track.annotator_id, "boundaries": bounds}
            if track.f1_consistency is not None:
                ann["f1_consistency"] = track.f1_consistency
            annotators.append(ann)
        out.append({
            "video_id": aset.meta.video_id,
            "class_label": aset.meta.class_label,
            "duration": aset.meta.duration,
            "fps": aset.meta.fps,
            "num_frames": aset.meta.num_frames,
            "annotators": annotators,
        })
    return json.dumps(out, indent=1)


def load_annotations(path) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_annotations(fh.read())


def normalize_track(track: AnnotatorTrack, meta: VideoMeta) -> list:
    """The track's timestamps: instants map to their timestamp, ranges to
    their midpoint.  The list is strictly ascending; timestamps that coincide
    after midpointing collapse to a single boundary.
    """
    stamps = []
    for b in track.boundaries:
        t = b.start if b.kind == "instant" else 0.5 * (b.start + b.end)
        if not 0 <= t <= meta.duration:
            raise AnnotationValidationError(
                f"{meta.video_id}/{track.annotator_id}: normalized timestamp "
                f"{t} outside [0,duration]")
        stamps.append(t)
    stamps.sort()
    dedup = []
    for t in stamps:
        if not dedup or t != dedup[-1]:
            dedup.append(t)
    return dedup


def _pairwise_rows(aset: AnnotationSet, threshold: float) -> list:
    """n lists of n floats: F1 of annotator i's boundaries scored against
    annotator j's, 1 on the diagonal.  Each unordered pair is matched once:
    swapping the lists swaps precision and recall, not F1."""
    n = len(aset.tracks)
    duration = aset.meta.duration
    # normalized timestamps are strictly ascending floats, as match_count needs
    lists = [normalize_track(t, aset.meta) for t in aset.tracks]
    out = [[1.0] * n for _ in range(n)]
    if n > 1:
        check_limit(duration, threshold)
    for i in range(n):
        for j in range(i + 1, n):
            matched = match_count(lists[i], lists[j], duration, threshold)
            out[i][j] = out[j][i] = prf_from_counts(
                matched, len(lists[i]), len(lists[j])).f1
    return out


def _pairwise_sum(values) -> float:
    """The sum of a list of floats in the order of numpy's pairwise summation.

    Fewer than 8 values add one by one; up to 128 add into 8 running sums,
    value i into sum i mod 8 while a whole 8 remain, then the sums add as a
    tree and the rest one by one; more split in two at a multiple of 8.  Not
    ``sum()``, which compensates rounding from Python 3.12 on.
    """
    n = len(values)
    if n < 8:
        total = 0.0
        for v in values:
            total += v
        return total
    if n <= 128:
        sums = values[:8]
        whole = n - n % 8
        for i in range(8, whole, 8):
            for k in range(8):
                sums[k] += values[i + k]
        total = (((sums[0] + sums[1]) + (sums[2] + sums[3]))
                 + ((sums[4] + sums[5]) + (sums[6] + sums[7])))
        for v in values[whole:]:
            total += v
        return total
    half = n // 2 - n // 2 % 8
    return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])


def _mean(values) -> float:
    """``float(numpy.mean(values))`` of a non-empty list of floats, bit for
    bit, without numpy."""
    return _pairwise_sum(values) / len(values)


def compute_f1_consistency(aset: AnnotationSet, threshold: float = 0.05):
    """Mean F1 of each annotator against every other, in track order.

    Returns ``[(annotator_id, consistency), ...]``.  A lone annotator has
    no one to disagree with and scores 1; an annotator with no boundaries
    scores 0 against everyone else (the degenerate F1 convention).
    """
    if not 0 < threshold < 1:
        raise ValueError(f"threshold must be in (0,1), got {threshold}")
    n = len(aset.tracks)
    f1 = _pairwise_rows(aset, threshold)
    out = []
    for i, track in enumerate(aset.tracks):
        others = [f1[i][j] for j in range(n) if j != i]
        out.append((track.annotator_id, _mean(others) if others else 1.0))
    return out


def attach_consistency(aset: AnnotationSet, threshold: float = 0.05) -> None:
    """Compute and store f1_consistency on every track, in place."""
    for track, (_, c) in zip(aset.tracks, compute_f1_consistency(aset, threshold)):
        track.f1_consistency = c


def select_gt_highest(aset: AnnotationSet) -> list:
    """Normalized boundaries of the most consistent annotator.

    Ties break to the lexicographically smallest annotator_id.
    """
    for track in aset.tracks:
        if track.f1_consistency is None:
            raise ValueError(
                f"{aset.meta.video_id}/{track.annotator_id}: f1_consistency "
                "missing; run compute_f1_consistency first")
    best = min(aset.tracks, key=lambda t: (-t.f1_consistency, t.annotator_id))
    return normalize_track(best, aset.meta)


FNV64_OFFSET = 0xCBF29CE484222325
FNV64_PRIME = 0x100000001B3


def fnv1a64(text: str) -> int:
    """FNV-1a 64-bit hash of the UTF-8 encoding of ``text``."""
    h = FNV64_OFFSET
    for byte in text.encode("utf-8"):
        h ^= byte
        h = (h * FNV64_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


def per_video_rng(seed: int, video_id: str):
    """Deterministic per-video RNG stream: sub-seed = seed XOR FNV-1a-64(video_id).

    A ``numpy.random.Generator``, independent of processing order, so
    parallel schedules cannot change any per-video draw.
    """
    import numpy as np
    return np.random.default_rng((int(seed) & 0xFFFFFFFFFFFFFFFF) ^ fnv1a64(video_id))


def select_gt_weighted(aset: AnnotationSet, seed: int) -> list:
    """Sample one annotator with probability proportional to consistency.

    Uses the per-video RNG stream, so the same (seed, video_id) always picks
    the same track no matter how many other videos were processed before.
    """
    weights = []
    for track in aset.tracks:
        if track.f1_consistency is None:
            raise ValueError(
                f"{aset.meta.video_id}/{track.annotator_id}: f1_consistency "
                "missing; run compute_f1_consistency first")
        weights.append(track.f1_consistency)
    total = sum(weights)
    if total <= 0:
        raise ValueError("weighted selection undefined: all consistencies zero")
    rng = per_video_rng(seed, aset.meta.video_id)
    u = rng.random() * total
    acc = 0.0
    pick = len(weights) - 1
    for i, w in enumerate(weights):
        acc += w
        if u < acc:
            pick = i
            break
    return normalize_track(aset.tracks[pick], aset.meta)


def parse_gt_policy(policy: str):
    """``highest``, ``weighted`` or ``weighted:<seed>`` -> (name, seed or None)."""
    if policy == "highest":
        return "highest", None
    name, colon, seed = policy.partition(":")
    if name == "weighted":
        return name, int(seed) if colon else None
    raise ValueError(f"unknown gt policy {policy!r}")


def select_gt(aset: AnnotationSet, policy: str, default_seed: int) -> list:
    """The :func:`normalize_track` list of the track that ``highest`` or
    ``weighted[:<seed>]`` (no seed: ``default_seed``) selects."""
    name, seed = parse_gt_policy(policy)
    if name == "highest":
        return select_gt_highest(aset)
    return select_gt_weighted(aset, default_seed if seed is None else seed)
