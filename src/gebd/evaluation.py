"""Boundary matching and precision/recall/F1 metrics.

A predicted timestamp matches a ground-truth timestamp when their relative
distance (absolute error divided by video duration) is at or below a
threshold; the official operating point is a 5% threshold.  Given no
duration (``None``), the same functions admit pairs by the absolute-window
rule ``|p - g| <= window`` seconds instead, the threshold being the window.

Two pairing policies are provided:

* ``optimal`` - maximum-cardinality one-to-one matching; among maximum
  matchings the one with minimum total distance, ties broken by
  lexicographically smallest (prediction index, ground-truth index) pairs.
  Because pair costs are absolute differences of points on a line, some
  optimal matching is always non-crossing, and the lexicographically
  smallest optimal matching is itself non-crossing (uncrossing a crossing
  pair never increases cost and strictly lowers lexicographic order), so the
  matcher runs an O(P*G) suffix dynamic program over non-crossing matchings
  and reconstructs pairs greedily in lexicographic order.
* ``greedy_nearest`` - scan predictions in ascending order, each taking the
  nearest still-unmatched admissible ground truth (earlier one on distance
  ties).  Provided for compatibility comparisons; it can under-match.

Metrics and annotator consistency need only the number of matched pairs.
:func:`match_count` gives it without building pairs: under ``optimal`` one
O(P+G) two-pointer pass over the ascending lists (a pair of heads that is
admissible is part of some maximum matching, and a head too far left of the
other list's head can match nothing later), so the suffix DP runs only when
:func:`match_boundaries` is asked for pairs.
Both paths admit a pair by the same float expression, so counts agree to
the bit.  Distances are plain Python floats in lists of rows, so matching
and scoring under either policy run without numpy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Equal-cost tolerance: total costs are <= len(pairs) with each term in [0,1],
# so 1e-9 absolute separates genuine ties from rounding noise.
_COST_TOL = 1e-9

POLICIES = ("optimal", "greedy_nearest")


@dataclass
class MatchResult:
    pairs: list = field(default_factory=list)  # (prediction index, gt index)
    rel_distances: list = field(default_factory=list)  # aligned with pairs
    num_predictions: int = 0
    num_ground_truth: int = 0


@dataclass
class PRF:
    precision: float
    recall: float
    f1: float
    threshold: float


def check_ascending(values, name):
    for a, b in zip(values, values[1:]):
        if not b > a:  # also refuses NaN, which has no place in an order
            raise ValueError(f"{name} must be strictly ascending")


def _check_duration(duration):
    if not duration > 0:  # so NaN is refused too
        raise ValueError(f"duration must be positive, got {duration}")


def check_threshold(threshold):
    if not 0 < threshold <= 1:
        raise ValueError(f"threshold must be in (0,1], got {threshold}")


def check_policy(policy):
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}, expected one of {POLICIES}")


def check_limit(duration, threshold):
    """The argument checks of :func:`match_boundaries`; with ``duration``
    None, ``threshold`` is a window in seconds and must be positive."""
    if duration is None:
        if not threshold > 0:
            raise ValueError(f"window must be positive, got {threshold}")
    else:
        _check_duration(duration)
        check_threshold(threshold)


def _ascending_floats(values, name):
    out = [float(v) for v in values]
    check_ascending(out, name)
    return out


def _distances(p, g, duration):
    """P rows of G floats ``|p - g| / duration`` (``|p - g|`` if duration is None)."""
    scale = 1.0 if duration is None else float(duration)  # x / 1.0 == x exactly
    return [[abs(a - b) / scale for b in g] for a in p]


def _suffix_table(P, G, dist, limit):
    """Suffix DP over non-crossing matchings.

    card[i][j], cost[i][j]: maximum pair count over predictions i.. and
    ground truths j.., and the minimum total distance achieving it.
    """
    card = [[0] * (G + 1) for _ in range(P + 1)]
    cost = [[0.0] * (G + 1) for _ in range(P + 1)]
    for i in range(P - 1, -1, -1):
        row_d = dist[i]
        for j in range(G - 1, -1, -1):
            best_c, best_w = card[i + 1][j], cost[i + 1][j]
            c, w = card[i][j + 1], cost[i][j + 1]
            if c > best_c or (c == best_c and w < best_w):
                best_c, best_w = c, w
            if row_d[j] <= limit:
                c = card[i + 1][j + 1] + 1
                w = cost[i + 1][j + 1] + row_d[j]
                if c > best_c or (c == best_c and w < best_w - _COST_TOL):
                    best_c, best_w = c, w
            card[i][j] = best_c
            cost[i][j] = best_w
    return card, cost


def _match_optimal(dist, limit):
    P, G = len(dist), len(dist[0])
    card, cost = _suffix_table(P, G, dist, limit)
    target_card = card[0][0]
    target_cost = cost[0][0]
    pairs = []
    spent = 0.0
    i = j = 0
    while len(pairs) < target_card:
        found = False
        for ii in range(i, P):
            for jj in range(j, G):
                if dist[ii][jj] > limit:
                    continue
                c = len(pairs) + 1 + card[ii + 1][jj + 1]
                w = spent + dist[ii][jj] + cost[ii + 1][jj + 1]
                if c == target_card and abs(w - target_cost) <= _COST_TOL:
                    pairs.append((ii, jj))
                    spent += dist[ii][jj]
                    i, j = ii + 1, jj + 1
                    found = True
                    break
            if found:
                break
        if not found:  # numerically unreachable; guards a broken table
            raise RuntimeError("optimal matching reconstruction failed")
    return pairs


def _match_greedy(dist, limit):
    taken = set()
    pairs = []
    for i, row in enumerate(dist):
        best_j = -1
        best_d = None
        for j, d in enumerate(row):
            if d > limit or j in taken:
                continue
            if best_d is None or d < best_d:
                best_d = d
                best_j = j
        if best_j >= 0:
            taken.add(best_j)
            pairs.append((i, best_j))
    return pairs


def match_boundaries(predictions, ground_truth, duration, threshold,
                     policy="optimal") -> MatchResult:
    """Match predicted to ground-truth timestamps at a relative-distance threshold.

    With ``duration`` None, ``threshold`` is a window in seconds: pairs are
    admitted by the duration-independent rule ``|p - g| <= threshold``, and
    ``rel_distances`` in the result hold the pairs' raw second offsets.
    """
    check_limit(duration, threshold)
    check_policy(policy)
    p = _ascending_floats(predictions, "predictions")
    g = _ascending_floats(ground_truth, "ground_truth")
    dist = _distances(p, g, duration)
    if not p or not g:
        pairs = []
    elif policy == "optimal":
        pairs = _match_optimal(dist, threshold)
    else:
        pairs = _match_greedy(dist, threshold)
    return MatchResult(
        pairs=pairs,
        rel_distances=[dist[i][j] for i, j in pairs],
        num_predictions=len(p),
        num_ground_truth=len(g),
    )


def match_count(p, g, duration, threshold, policy="optimal") -> int:
    """``len(match_boundaries(p, g, duration, threshold, policy).pairs)``;
    with ``duration`` None, ``threshold`` is a window in seconds.
    ``optimal`` builds no pairs (one two-pointer pass), ``greedy_nearest``
    counts its pairs over the P x G distances.

    Nothing is checked, so callers check once for many counts: ``p`` and
    ``g`` must be strictly ascending floats and the other arguments pass
    :func:`check_limit` and the policy check.
    """
    if policy == "greedy_nearest":
        return len(_match_greedy(_distances(p, g, duration), threshold))
    # x / 1.0 == x exactly, so the window rule stays |p - g| <= threshold
    scale = 1.0 if duration is None else float(duration)
    limit = float(threshold)
    n_p, n_g = len(p), len(g)
    i = j = matched = 0
    while i < n_p and j < n_g:
        a, b = p[i], g[j]
        if abs(a - b) / scale <= limit:
            matched += 1
            i += 1
            j += 1
        elif a < b:
            i += 1
        else:
            j += 1
    return matched


def prf_from_match(match: MatchResult, threshold: float = 0.0) -> PRF:
    """Precision/recall/F1 from a match; zero predictions or GT give 0 by convention."""
    return prf_from_counts(len(match.pairs), match.num_predictions,
                           match.num_ground_truth, threshold)


def prf_from_counts(matched, num_predictions, num_ground_truth,
                    threshold: float = 0.0) -> PRF:
    """:func:`prf_from_match` from the pair count and the two list lengths."""
    precision = matched / num_predictions if num_predictions else 0.0
    recall = matched / num_ground_truth if num_ground_truth else 0.0
    return PRF(precision, recall, f1_from_pr(precision, recall), threshold)


def f1_from_pr(precision: float, recall: float) -> float:
    """Harmonic mean of precision and recall (0 when both are 0).

    Works on any common scale - fractions or percentages in, same scale out.
    """
    if precision < 0 or recall < 0:
        raise ValueError("precision and recall must be non-negative")
    if precision + recall == 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


@dataclass
class EvalReport:
    global_prf: list  # PRF per threshold, micro-aggregated over videos
    per_video: dict  # video_id -> list of PRF over thresholds
    per_class: list  # (class_label, mean F1 at the primary threshold), descending
    primary_threshold: float


def evaluate_corpus(predictions, ground_truth, durations, classes=None,
                    thresholds=(0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5),
                    primary_threshold=0.05, window=None,
                    policy="optimal") -> EvalReport:
    """Evaluate per-video boundary lists over a corpus.

    ``predictions`` and ``ground_truth`` map video_id -> ascending timestamp
    list; videos missing from ``predictions`` count as empty prediction
    lists.  Global PRF sums matched/predicted/ground-truth counts over
    videos before dividing, so aggregation is independent of video order.
    ``window`` None sweeps the relative ``thresholds``; a window in seconds
    replaces the sweep by that one absolute window, echoed in the threshold
    column.  Per-class means sum per-video F1 at the primary threshold in
    ``video_id`` order, ties ordered by class label; a video ``classes``
    lacks raises ``ValueError``.
    """
    unknown = sorted(set(predictions) - set(ground_truth))
    if unknown:
        raise KeyError(f"predictions reference unknown video_id(s): {unknown}")
    if window is None:
        grid = list(thresholds)
        if not grid:
            raise ValueError("threshold list must be non-empty")
        check_ascending(grid, "thresholds")
        if primary_threshold not in grid:
            grid = sorted(set(grid) | {primary_threshold})
        for t in grid:
            check_threshold(t)
    else:
        check_limit(None, window)
        grid = [window]
        primary_threshold = window
    check_policy(policy)

    # an optimal count is a maximum matching, so it only grows along the
    # ascending grid; once it pairs off the shorter list it stays there.
    # Greedy counts are not proven monotone, so each of them is counted.
    saturates = policy == "optimal"
    per_video = {}
    totals = {t: [0, 0, 0] for t in grid}  # matched, preds, gts
    video_ids = sorted(ground_truth)
    for vid in video_ids:
        duration = None
        if window is None:
            duration = durations[vid]
            _check_duration(duration)
        pred = _ascending_floats(predictions.get(vid, []), "predictions")
        gt = _ascending_floats(ground_truth[vid], "ground_truth")
        most = min(len(pred), len(gt))
        matched = None
        rows = []
        for t in grid:
            if not (saturates and matched == most):
                matched = match_count(pred, gt, duration, t, policy)
            rows.append(prf_from_counts(matched, len(pred), len(gt), t))
            acc = totals[t]
            acc[0] += matched
            acc[1] += len(pred)
            acc[2] += len(gt)
        per_video[vid] = rows

    global_prf = [prf_from_counts(*totals[t], t) for t in grid]

    per_class = []
    if classes is not None:
        idx = grid.index(primary_threshold)
        sums, counts = {}, {}
        for vid in video_ids:
            if vid not in classes:
                raise ValueError(f"video {vid!r} has no class label")
            label = classes[vid]
            sums[label] = sums.get(label, 0.0) + per_video[vid][idx].f1
            counts[label] = counts.get(label, 0) + 1
        per_class = sorted(((label, sums[label] / counts[label]) for label in sums),
                           key=lambda lv: (-lv[1], lv[0]))
    return EvalReport(global_prf, per_video, per_class, primary_threshold)
