#!/usr/bin/env python3
"""Walkthrough: the annotation model, annotator consistency, ground truth.

Builds a small multi-annotator example by hand, shows how ranges normalize
to midpoints, scores each annotator against the others, and demonstrates
both ground-truth selection policies.
"""

from gebd.annotations import (AnnotationSet, AnnotatorTrack, RawBoundary,
                              VideoMeta, attach_consistency,
                              compute_f1_consistency, normalize_track,
                              parse_annotations, select_gt_highest,
                              select_gt_weighted, serialize_annotations)

meta = VideoMeta(video_id="demo_clip", class_label="folding_towels",
                 duration=10.0, fps=10.0, num_frames=100)

# Three annotators watched the same 10 s clip.  The first two broadly agree;
# the third marked one extra dubious moment near the end.
tracks = [
    AnnotatorTrack("alice", [RawBoundary("instant", 2.4),
                             RawBoundary("range", 5.8, 6.4)]),
    AnnotatorTrack("bob", [RawBoundary("instant", 2.55),
                           RawBoundary("instant", 6.05)]),
    AnnotatorTrack("carol", [RawBoundary("instant", 2.9),
                             RawBoundary("instant", 6.1),
                             RawBoundary("instant", 9.4)]),
]
aset = AnnotationSet(meta=meta, tracks=tracks)

print("normalized boundary lists (ranges become midpoints):")
for track in tracks:
    stamps = normalize_track(track, meta)
    print(f"  {track.annotator_id:>6}: {stamps}")

print("\nF1-consistency at a 5% relative-distance threshold:")
for annotator_id, score in compute_f1_consistency(aset, threshold=0.05):
    print(f"  {annotator_id:>6}: {score:.3f}")

attach_consistency(aset, threshold=0.05)
best = select_gt_highest(aset)
print(f"\nhighest-consistency ground truth -> {best}")

print("\nweighted sampling picks proportionally to consistency;")
print("the per-video stream makes the draw a pure function of (seed, video):")
for seed in (1, 2, 3, 4):
    picked = select_gt_weighted(aset, seed)
    print(f"  seed {seed}: {picked}")

# The JSON schema round-trips exactly.
text = serialize_annotations([aset])
assert parse_annotations(text) == [aset]
print("\nserialize -> parse round trip: exact")
