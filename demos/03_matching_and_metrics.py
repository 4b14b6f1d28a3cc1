#!/usr/bin/env python3
"""Walkthrough: boundary matching, the two policies, and the metric surface.

Shows a case where greedy nearest-neighbor matching under-counts while the
optimal matcher does not, then sweeps thresholds and builds a per-class
summary the way the evaluation stage does.
"""

from gebd.evaluation import (evaluate_corpus, f1_from_pr, match_boundaries,
                             prf_from_match)

# Two predictions, two ground-truth boundaries, tight threshold.  Greedy lets
# the first prediction grab the nearest ground truth and strands the second.
preds, gts = [1.25, 1.45], [1.0, 1.3]
for policy in ("greedy_nearest", "optimal"):
    m = match_boundaries(preds, gts, duration=10.0, threshold=0.03,
                         policy=policy)
    print(f"{policy:>15}: {len(m.pairs)} pair(s) {m.pairs}")

print("\nthreshold sweep for a noisier clip:")
preds = [1.1, 3.9, 5.2, 7.7]
gts = [1.0, 4.3, 5.0, 9.0]
for threshold in (0.02, 0.05, 0.1, 0.2):
    prf = prf_from_match(match_boundaries(preds, gts, duration=10.0,
                                          threshold=threshold), threshold)
    print(f"  thr {prf.threshold:>4}: P={prf.precision:.2f} "
          f"R={prf.recall:.2f} F1={prf.f1:.2f}")

# with no duration the threshold is an absolute window in seconds
w = match_boundaries(preds, gts, duration=None, threshold=0.5)
print(f"\nabsolute +/-0.5 s window: {len(w.pairs)} pairs "
      f"(duration plays no role)")

print(f"\nharmonic mean on percentage scales too: "
      f"f1_from_pr(60.0, 45.0) = {f1_from_pr(60.0, 45.0):.2f}")

# corpus-level: micro-aggregated globals plus per-class means
predictions = {"clip_a": [1.05, 4.0], "clip_b": [2.2], "clip_c": []}
ground_truth = {"clip_a": [1.0, 4.2], "clip_b": [2.0, 6.0], "clip_c": [3.0]}
durations = {vid: 10.0 for vid in ground_truth}
classes = {"clip_a": "folding", "clip_b": "juggling", "clip_c": "juggling"}
report = evaluate_corpus(predictions, ground_truth, durations, classes,
                         thresholds=[0.05], primary_threshold=0.05)
g = report.global_prf[0]
print(f"\ncorpus micro PRF@5%: P={g.precision:.2f} R={g.recall:.2f} "
      f"F1={g.f1:.2f}")
print("class means:", report.per_class)
