"""Independent correctness checks for benchmark operations.

Nothing here imports ``gebd``.  The recount re-derives every row of
``eval_global.csv`` from the plain files around an operation: the boundary
CSVs a pipeline run writes, or the annotation set the benchmark generated.
Each check returns ``None`` when the output is right and a one-line reason
when it is not.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os

import numpy as np

THRESHOLDS = tuple(round(0.05 * k, 2) for k in range(1, 11))
PRIMARY = 0.05
CONSISTENCY_THRESHOLD = 0.05
RESULT_FILES = ("scores.csv", "predictions.csv", "eval_global.csv",
                "eval_per_video.csv", "eval_per_class.csv")


def count_matches(pred, gt, duration, threshold):
    """Maximum-cardinality matching of two ascending lists on a line.

    A pair may match when ``|p - g| / duration <= threshold``.  Matching the
    two leftmost points when they are close enough is part of some maximum
    matching, and a head that lies too far left of the other list's head can
    match nothing later, so one two-pointer pass is exact.
    """
    i = j = n = 0
    while i < len(pred) and j < len(gt):
        if abs(pred[i] - gt[j]) / duration <= threshold:
            n += 1
            i += 1
            j += 1
        elif pred[i] < gt[j]:
            i += 1
        else:
            j += 1
    return n


def prf(matched, n_pred, n_gt):
    precision = matched / n_pred if n_pred else 0.0
    recall = matched / n_gt if n_gt else 0.0
    f1 = 2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def expected_global(preds, gt, durations):
    """``[(threshold, precision, recall, f1)]`` micro-averaged over ``durations``' videos."""
    rows = []
    for t in THRESHOLDS:
        matched = n_pred = n_gt = 0
        for vid, duration in durations.items():
            p, g = preds.get(vid, []), gt.get(vid, [])
            matched += count_matches(p, g, duration, t)
            n_pred += len(p)
            n_gt += len(g)
        rows.append((t,) + prf(matched, n_pred, n_gt))
    return rows


def read_boundaries(path):
    """``video_id,timestamp`` CSV -> ``{video_id: [t, ...]}`` in file order."""
    out = {}
    with open(path, newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        next(rows)
        for vid, t in rows:
            out.setdefault(vid, []).append(float(t))
    return out


def read_eval_global(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        if next(rows) != ["threshold", "precision", "recall", "f1"]:
            raise ValueError(f"{path}: unexpected header")
        return [tuple(float(v) for v in row) for row in rows]


def check_eval_global(path, expected):
    """Compare the CSV with the recount to the six decimals it prints."""
    try:
        got = read_eval_global(path)
    except (OSError, ValueError) as e:
        return f"eval_global.csv unreadable: {e}"
    if len(got) != len(expected):
        return f"eval_global.csv has {len(got)} rows, recount has {len(expected)}"
    for g, e in zip(got, expected):
        if abs(g[0] - e[0]) > 1e-9 or any(abs(a - b) > 1e-6 for a, b in zip(g[1:], e[1:])):
            return f"eval_global.csv row {g} disagrees with recount {e}"
    return None


def primary_f1(path):
    return next(r[3] for r in read_eval_global(path) if abs(r[0] - PRIMARY) < 1e-9)


def annotation_durations(annotations_path):
    with open(annotations_path, encoding="utf-8") as fh:
        return {v["video_id"]: float(v["duration"]) for v in json.load(fh)}


def pipeline_expected(annotations_path, out_dir):
    """Recount for a pipeline run from its ``predictions.csv`` and ``gt.csv``."""
    return expected_global(read_boundaries(os.path.join(out_dir, "predictions.csv")),
                           read_boundaries(os.path.join(out_dir, "gt.csv")),
                           annotation_durations(annotations_path))


def select_gt(video):
    """Most consistent annotator's boundaries for one generated annotation entry.

    Consistency is each annotator's mean F1 against every other annotator at
    the default threshold; ties go to the smallest annotator id.  Generated
    annotators mark instants only.
    """
    ids = [a["annotator_id"] for a in video["annotators"]]
    lists = [sorted(set(b["t"] for b in a["boundaries"])) for a in video["annotators"]]
    duration = float(video["duration"])
    n = len(lists)
    consistency = []
    for i in range(n):
        f1 = [prf(count_matches(lists[i], lists[j], duration, CONSISTENCY_THRESHOLD),
                  len(lists[i]), len(lists[j]))[2]
              for j in range(n) if j != i]
        # np.mean adds in the program's order, so exact ties break the same way
        consistency.append(float(np.mean(f1)))
    best = min(range(n), key=lambda i: (-consistency[i], ids[i]))
    return lists[best]


def eval_expected(annotations_path, predictions_path):
    """Recount for ``gebd eval`` from the generated annotations and predictions."""
    with open(annotations_path, encoding="utf-8") as fh:
        videos = json.load(fh)
    gt = {v["video_id"]: select_gt(v) for v in videos}
    durations = {v["video_id"]: float(v["duration"]) for v in videos}
    return expected_global(read_boundaries(predictions_path), gt, durations)


def digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def digests(out_dir):
    """Digest of every result file a no-op rerun must leave byte-identical."""
    return {name: digest(os.path.join(out_dir, name)) for name in RESULT_FILES}


def check_stages(out_dir, first_run):
    """Stages before ``first_run`` were skipped and it and every later one ran.

    ``first_run=None`` asks for every stage to be skipped (a no-op rerun).
    """
    try:
        with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
            stages = json.load(fh)["stages"]
    except (OSError, ValueError, KeyError) as e:
        return f"manifest.json unreadable: {e}"
    names = [s["name"] for s in stages]
    if first_run is not None and first_run not in names:
        return f"manifest lists no stage {first_run!r}: {names}"
    cut = names.index(first_run) if first_run is not None else len(names)
    ran = [s["name"] for s in stages if not s["skipped"]]
    if not stages or ran != names[cut:]:
        return f"stages run {ran}, expected {names[cut:]}"
    return None
