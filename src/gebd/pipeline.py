"""Staged end-to-end pipeline with freshness-based resumption.

Stages run in a fixed order - validate, consistency, select-gt, flow,
sample, train, score, detect, eval, report - each declaring its input and
output files.  A stage is skipped when every output exists and is at least
as new as every input, so rerunning after a partial failure (or after
deleting one artifact) redoes only the stale suffix of the chain.  Flow
extraction dominates runtime and is computed once, offline, per consecutive
frame pair.

Per-video work inside a stage can fan out over worker processes; every
worker writes its own files and aggregation orders by video_id, so results
are identical for any worker count.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import __version__
from .annotations import (attach_consistency, load_annotations, normalize_track,
                          per_video_rng, select_gt_highest, select_gt_weighted)
from .classifier import (FEATURE_DIM, TrainConfig, load_model, save_model,
                         score_sequence, train_logistic, window_inputs)
from .container import DTYPE_F64, atomic_open, read_tensor_file, write_tensor_file
from .evaluation import (evaluate_corpus, write_global_csv, write_per_class_csv,
                         write_per_video_csv)
from .flow import FlowConfig
from .postprocess import DetectionConfig, ScoreSequence, scores_to_boundaries
from .report import TimelineSpec, render_class_bars, render_timeline
from .windows import (FLOW_SIDECAR, LABEL_BOUNDARY, FlowStore, FrameSequence,
                      WindowSpec, candidate_timestamps, frame_feature_table,
                      label_windows, window_frame_indices)

DEFAULT_THRESHOLDS = tuple(round(0.05 * k, 2) for k in range(1, 11))


@dataclass
class PipelineConfig:
    seed: int = 1
    workers: int = 1
    # ground truth
    consistency_threshold: float = 0.05
    use_file_consistency: bool = False
    gt_policy: str = "highest"  # "highest" | "weighted:<seed>"
    # windows
    m: int = 5
    stride: float = 0.25
    image_side: int = 224
    label_tolerance: float = 0.125
    bg_ratio: float = 3.0  # background windows kept per boundary window
    # flow
    pyramid_levels: int = 3
    pyramid_scale: float = 0.5
    iterations: int = 3
    poly_window: int = 5
    poly_sigma: float = 1.1
    averaging_window: int = 15
    # training
    lr: float = 0.0001
    decay_factor: float = 0.1
    decay_every: int = 10
    epochs: int = 16
    batch_size: int = 16
    # detection
    smooth_sigma: float = 1.0
    score_threshold: float = 0.5
    min_separation: float = 0.5
    # evaluation
    threshold: float = 0.05
    thresholds: tuple = DEFAULT_THRESHOLDS
    mode: str = "relative"  # "relative" | "window:<seconds>"
    match_policy: str = "optimal"

    def flow_config(self) -> FlowConfig:
        return FlowConfig(pyramid_levels=self.pyramid_levels,
                          pyramid_scale=self.pyramid_scale,
                          iterations_per_level=self.iterations,
                          poly_window=self.poly_window,
                          poly_sigma=self.poly_sigma,
                          averaging_window=self.averaging_window)

    def window_spec(self) -> WindowSpec:
        return WindowSpec(m=self.m, candidate_stride=self.stride,
                          image_side=self.image_side,
                          label_tolerance=self.label_tolerance)

    def train_config(self) -> TrainConfig:
        return TrainConfig(learning_rate=self.lr, decay_factor=self.decay_factor,
                           decay_every=self.decay_every, epochs=self.epochs,
                           batch_size=self.batch_size, seed=self.seed)

    def detection_config(self) -> DetectionConfig:
        return DetectionConfig(smooth_sigma=self.smooth_sigma,
                               score_threshold=self.score_threshold,
                               min_separation=self.min_separation)


_BOOL_KEYS = {"use_file_consistency"}
_INT_KEYS = {"seed", "workers", "m", "image_side", "pyramid_levels", "iterations",
             "poly_window", "averaging_window", "decay_every", "epochs",
             "batch_size"}
_STR_KEYS = {"gt_policy", "mode", "match_policy"}


def parse_config_text(text: str) -> dict:
    """Flat key=value lines; '#' starts a comment; values typed per key."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in PipelineConfig.__dataclass_fields__:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        if key == "thresholds":
            out[key] = parse_thresholds(value)
        elif key in _BOOL_KEYS:
            out[key] = value.lower() in ("1", "true", "yes")
        elif key in _INT_KEYS:
            out[key] = int(value)
        elif key in _STR_KEYS:
            out[key] = value
        else:
            out[key] = float(value)
    return out


def parse_thresholds(text: str) -> tuple:
    """Either 'lo:step:hi' or a comma-separated ascending list."""
    if ":" in text:
        lo, step, hi = (float(v) for v in text.split(":"))
        values = []
        t = lo
        while t <= hi + 1e-12:
            values.append(round(t, 10))
            t += step
        return tuple(values)
    return tuple(float(v) for v in text.split(","))


def load_config(path=None, **overrides) -> PipelineConfig:
    values = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            values.update(parse_config_text(fh.read()))
    values.update({k: v for k, v in overrides.items() if v is not None})
    return PipelineConfig(**values)


# ---------------------------------------------------------------------------
# small CSV formats (the only tabular interchange in the toolkit)

def write_boundary_csv(path, boundaries) -> None:
    """``video_id,timestamp`` rows; ``boundaries`` maps video_id -> timestamps."""
    with atomic_open(path) as fh:
        fh.write("video_id,timestamp\n")
        for vid in sorted(boundaries):
            for t in boundaries[vid]:
                fh.write(f"{vid},{t!r}\n")


def read_boundary_csv(path) -> dict:
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or (lineno == 1 and line.lower().startswith("video_id")):
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected video_id,timestamp")
            vid, t = parts
            out.setdefault(vid, []).append(float(t))
    for vid, stamps in out.items():
        for a, b in zip(stamps, stamps[1:]):
            if b <= a:
                raise ValueError(
                    f"{path}: timestamps for {vid} not strictly ascending")
    return out


def write_scores_csv(path, sequences) -> None:
    with atomic_open(path) as fh:
        fh.write("video_id,t,score\n")
        for seq in sequences:
            for t, s in zip(seq.timestamps, seq.scores):
                fh.write(f"{seq.video_id},{t!r},{s!r}\n")


def read_scores_csv(path) -> list:
    rows = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or (lineno == 1 and line.lower().startswith("video_id")):
                continue
            vid, t, s = line.split(",")
            rows.setdefault(vid, []).append((float(t), float(s)))
    out = []
    for vid in sorted(rows):
        pairs = rows[vid]
        out.append(ScoreSequence(video_id=vid,
                                 timestamps=[t for t, _ in pairs],
                                 scores=[s for _, s in pairs]))
    return out


# ---------------------------------------------------------------------------
# stage plumbing

@dataclass
class Paths:
    corpus: str
    out: str

    @property
    def annotations(self):
        return os.path.join(self.corpus, "annotations.json")

    def frames_dir(self, vid):
        return os.path.join(self.corpus, "frames", vid)

    @property
    def validate_ok(self):
        return os.path.join(self.out, "validate.ok")

    @property
    def consistency_csv(self):
        return os.path.join(self.out, "consistency.csv")

    @property
    def gt_csv(self):
        return os.path.join(self.out, "gt.csv")

    def flow_dir(self, vid):
        return os.path.join(self.out, "flow", vid)

    @property
    def features_dir(self):
        return os.path.join(self.out, "features")

    def feature_table(self, vid):
        return os.path.join(self.out, "features", f"{vid}.gebt")

    @property
    def candidates_csv(self):
        return os.path.join(self.out, "features", "candidates.csv")

    @property
    def model_json(self):
        return os.path.join(self.out, "model.json")

    @property
    def loss_csv(self):
        return os.path.join(self.out, "train_loss.csv")

    @property
    def scores_csv(self):
        return os.path.join(self.out, "scores.csv")

    @property
    def predictions_csv(self):
        return os.path.join(self.out, "predictions.csv")

    @property
    def eval_global_csv(self):
        return os.path.join(self.out, "eval_global.csv")

    @property
    def eval_per_video_csv(self):
        return os.path.join(self.out, "eval_per_video.csv")

    @property
    def eval_per_class_csv(self):
        return os.path.join(self.out, "eval_per_class.csv")

    @property
    def report_dir(self):
        return os.path.join(self.out, "report")

    @property
    def manifest_json(self):
        return os.path.join(self.out, "manifest.json")


def _frame_files(paths: Paths, sets):
    files = []
    for aset in sets:
        d = paths.frames_dir(aset.meta.video_id)
        if os.path.isdir(d):
            files.extend(os.path.join(d, n) for n in sorted(os.listdir(d)))
    return files


def _flow_files(paths: Paths, sets):
    files = []
    for aset in sets:
        d = paths.flow_dir(aset.meta.video_id)
        for k in range(1, aset.meta.num_frames):
            files.append(os.path.join(d, f"flow_{k:06d}.gebt"))
        files.append(os.path.join(d, FLOW_SIDECAR))
    return files


def _feature_files(paths: Paths, sets):
    return [paths.candidates_csv] + [paths.feature_table(a.meta.video_id)
                                     for a in sets]


def _is_fresh(inputs, outputs) -> bool:
    if not outputs:
        return False
    out_times = []
    for path in outputs:
        if not os.path.exists(path):
            return False
        out_times.append(os.path.getmtime(path))
    in_times = [os.path.getmtime(p) for p in inputs if os.path.exists(p)]
    if len(in_times) != len(inputs):
        return False
    return not in_times or min(out_times) >= max(in_times)


def _map_videos(fn, items, workers):
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# stage bodies (module level so worker processes can pickle them)

def _flow_job(args):
    meta, frame_dir, flow_dir, flow_cfg = args
    store = FlowStore(FrameSequence(meta, frame_dir), flow_dir, flow_cfg)
    store.compute_all()
    return meta.video_id


def _sample_job(args):
    (meta, frame_dir, flow_dir, flow_cfg, spec, gt, table_path) = args
    seq = FrameSequence(meta, frame_dir)
    table = frame_feature_table(seq, spec, FlowStore(seq, flow_dir, flow_cfg))
    write_tensor_file(table_path, table.shape, table, DTYPE_F64)
    cands = candidate_timestamps(meta, spec.candidate_stride)
    labels = label_windows(cands, gt, spec.label_tolerance)
    return [(meta.video_id, t, label) for t, label in zip(cands, labels)]


class PipelineError(RuntimeError):
    def __init__(self, stage, cause):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage


class Pipeline:
    """Runs the staged pipeline for one corpus into one output directory."""

    def __init__(self, corpus_root, out_dir, config: PipelineConfig):
        self.paths = Paths(str(corpus_root), str(out_dir))
        self.config = config
        self.sets = load_annotations(self.paths.annotations)
        self.sets.sort(key=lambda a: a.meta.video_id)
        self.stage_log = []
        self._outputs = {}

    # --- individual stages -------------------------------------------------

    def stage_validate(self):
        count = 0
        for aset in self.sets:
            FrameSequence(aset.meta, self.paths.frames_dir(aset.meta.video_id))
            count += 1
        with atomic_open(self.paths.validate_ok) as fh:
            fh.write(f"videos={count}\n")

    def stage_consistency(self):
        rows = []
        for aset in self.sets:
            have_all = all(t.f1_consistency is not None for t in aset.tracks)
            if not (self.config.use_file_consistency and have_all):
                attach_consistency(aset, self.config.consistency_threshold)
            for track in aset.tracks:
                rows.append((aset.meta.video_id, track.annotator_id,
                             track.f1_consistency))
        with atomic_open(self.paths.consistency_csv) as fh:
            fh.write("video_id,annotator_id,f1_consistency\n")
            for vid, aid, c in rows:
                fh.write(f"{vid},{aid},{c!r}\n")

    def _load_consistency(self):
        with open(self.paths.consistency_csv, "r", encoding="utf-8") as fh:
            next(fh)
            values = {}
            for line in fh:
                vid, aid, c = line.strip().split(",")
                values[(vid, aid)] = float(c)
        for aset in self.sets:
            for track in aset.tracks:
                track.f1_consistency = values[(aset.meta.video_id,
                                               track.annotator_id)]

    def _select_gt(self, aset):
        policy = self.config.gt_policy
        if policy == "highest":
            return select_gt_highest(aset)
        if policy.startswith("weighted"):
            seed = self.config.seed
            if ":" in policy:
                seed = int(policy.split(":", 1)[1])
            return select_gt_weighted(aset, seed)
        raise ValueError(f"unknown gt policy {policy!r}")

    def stage_select_gt(self):
        self._load_consistency()
        gt = {}
        for aset in self.sets:
            gt[aset.meta.video_id] = self._select_gt(aset).timestamps
        write_boundary_csv(self.paths.gt_csv, gt)

    def stage_flow(self):
        jobs = [(aset.meta, self.paths.frames_dir(aset.meta.video_id),
                 self.paths.flow_dir(aset.meta.video_id),
                 self.config.flow_config())
                for aset in self.sets]
        _map_videos(_flow_job, jobs, self.config.workers)

    def stage_sample(self):
        gt = read_boundary_csv(self.paths.gt_csv)
        spec = self.config.window_spec()
        os.makedirs(self.paths.features_dir, exist_ok=True)
        jobs = []
        for aset in self.sets:
            vid = aset.meta.video_id
            jobs.append((aset.meta, self.paths.frames_dir(vid),
                         self.paths.flow_dir(vid), self.config.flow_config(),
                         spec, gt.get(vid, []), self.paths.feature_table(vid)))
        all_rows = _map_videos(_sample_job, jobs, self.config.workers)
        with atomic_open(self.paths.candidates_csv) as fh:
            fh.write("video_id,t,label\n")
            for rows in all_rows:
                for vid, t, label in rows:
                    fh.write(f"{vid},{t!r},{label}\n")

    def _candidates(self):
        """``(aset, timestamps, labels)`` per video, in video_id order."""
        by_video = {}
        with open(self.paths.candidates_csv, "r", encoding="utf-8") as fh:
            next(fh)
            for line in fh:
                vid, t, label = line.strip().split(",")
                by_video.setdefault(vid, []).append((float(t), label))
        out = []
        for aset in self.sets:
            rows = by_video.get(aset.meta.video_id, [])
            out.append((aset, [t for t, _ in rows], [lab for _, lab in rows]))
        return out

    def _inputs(self, aset, timestamps):
        """Classifier inputs of one video's candidates, from its feature table."""
        meta, m = aset.meta, self.config.m
        path = self.paths.feature_table(meta.video_id)
        dims, data = read_tensor_file(path)
        if dims != [meta.num_frames, 2, FEATURE_DIM]:
            raise ValueError(
                f"{path}: expected dims {[meta.num_frames, 2, FEATURE_DIM]}, "
                f"got {dims}")
        indices = np.array([window_frame_indices(t, meta, m) for t in timestamps],
                           dtype=np.intp).reshape(len(timestamps), 2 * m)
        return window_inputs(data.reshape(dims), indices)

    def stage_train(self):
        X, y = [], []
        for aset, timestamps, labels in self._candidates():
            pos = [i for i, lab in enumerate(labels) if lab == LABEL_BOUNDARY]
            neg = [i for i, lab in enumerate(labels) if lab != LABEL_BOUNDARY]
            keep = min(len(neg), int(round(self.config.bg_ratio * len(pos))))
            rng = per_video_rng(self.config.seed,
                                aset.meta.video_id + "#subsample")
            idx = sorted(rng.choice(len(neg), size=keep, replace=False)) if keep else []
            selected = pos + [neg[i] for i in idx]
            X.append(self._inputs(aset, [timestamps[i] for i in selected]))
            y.extend(1.0 if labels[i] == LABEL_BOUNDARY else 0.0 for i in selected)
        model, losses = train_logistic((np.concatenate(X), np.array(y)),
                                       self.config.train_config())
        save_model(self.paths.model_json, model)
        with atomic_open(self.paths.loss_csv) as fh:
            fh.write("epoch,mean_loss\n")
            for e, loss in enumerate(losses):
                fh.write(f"{e},{loss!r}\n")

    def stage_score(self):
        # one table read and one matrix product per video: too little work
        # to pay for worker processes
        model = load_model(self.paths.model_json)
        sequences = [score_sequence(model, self._inputs(aset, timestamps),
                                    timestamps, aset.meta.video_id)
                     for aset, timestamps, _ in self._candidates()]
        write_scores_csv(self.paths.scores_csv, sequences)

    def stage_detect(self):
        sequences = read_scores_csv(self.paths.scores_csv)
        det = self.config.detection_config()
        preds = {seq.video_id: scores_to_boundaries(seq, det)
                 for seq in sequences}
        write_boundary_csv(self.paths.predictions_csv, preds)

    def _eval_report(self):
        preds = read_boundary_csv(self.paths.predictions_csv)
        gt = read_boundary_csv(self.paths.gt_csv)
        for aset in self.sets:  # videos whose GT is empty still count
            gt.setdefault(aset.meta.video_id, [])
        durations = {a.meta.video_id: a.meta.duration for a in self.sets}
        classes = {a.meta.video_id: a.meta.class_label for a in self.sets}
        mode, window = parse_mode(self.config.mode)
        return evaluate_corpus(
            preds, gt, durations, classes,
            thresholds=self.config.thresholds,
            primary_threshold=self.config.threshold,
            mode=mode, window=window, policy=self.config.match_policy), classes

    def stage_eval(self):
        report, classes = self._eval_report()
        write_global_csv(self.paths.eval_global_csv, report)
        write_per_video_csv(self.paths.eval_per_video_csv, report)
        write_per_class_csv(self.paths.eval_per_class_csv, report, classes)

    def stage_report(self):
        os.makedirs(self.paths.report_dir, exist_ok=True)
        preds = read_boundary_csv(self.paths.predictions_csv)
        for aset in self.sets:
            vid = aset.meta.video_id
            tracks = [("predicted", preds.get(vid, []))]
            for track in aset.tracks:
                tracks.append((track.annotator_id,
                               normalize_track(track, aset.meta).timestamps))
            svg = render_timeline(TimelineSpec(video_id=vid,
                                               duration=aset.meta.duration,
                                               tracks=tracks))
            with atomic_open(os.path.join(self.paths.report_dir,
                                          f"timeline_{vid}.svg")) as fh:
                fh.write(svg)
        per_class = []
        with open(self.paths.eval_per_class_csv, "r", encoding="utf-8") as fh:
            next(fh)
            for line in fh:
                label, mean_f1, _ = line.strip().split(",")
                per_class.append((label, float(mean_f1)))
        k = min(10, len(per_class))
        top = per_class[:k]
        bottom = sorted(per_class, key=lambda lv: (lv[1], lv[0]))[:k]
        for name, rows, title in (("class_top.svg", top, "highest mean F1"),
                                  ("class_bottom.svg", bottom, "lowest mean F1")):
            with atomic_open(os.path.join(self.paths.report_dir, name)) as fh:
                fh.write(render_class_bars(rows, title))

    # --- driver -------------------------------------------------------------

    def stages(self):
        p = self.paths
        frame_files = _frame_files(p, self.sets)
        flow_files = _flow_files(p, self.sets)
        feature_files = _feature_files(p, self.sets)
        eval_csvs = [p.eval_global_csv, p.eval_per_video_csv, p.eval_per_class_csv]
        report_files = [os.path.join(p.report_dir, "class_top.svg"),
                        os.path.join(p.report_dir, "class_bottom.svg")]
        report_files += [os.path.join(p.report_dir,
                                      f"timeline_{a.meta.video_id}.svg")
                         for a in self.sets]
        return [
            ("validate", [p.annotations], [p.validate_ok], self.stage_validate),
            ("consistency", [p.annotations], [p.consistency_csv],
             self.stage_consistency),
            ("select-gt", [p.annotations, p.consistency_csv], [p.gt_csv],
             self.stage_select_gt),
            ("flow", [p.annotations] + frame_files, flow_files, self.stage_flow),
            ("sample", [p.annotations, p.gt_csv] + frame_files + flow_files,
             feature_files, self.stage_sample),
            ("train", [p.gt_csv] + feature_files, [p.model_json, p.loss_csv],
             self.stage_train),
            ("score", [p.model_json] + feature_files, [p.scores_csv],
             self.stage_score),
            ("detect", [p.scores_csv], [p.predictions_csv], self.stage_detect),
            ("eval", [p.predictions_csv, p.gt_csv, p.annotations], eval_csvs,
             self.stage_eval),
            ("report", eval_csvs + [p.predictions_csv, p.annotations],
             report_files, self.stage_report),
        ]

    def run(self) -> dict:
        os.makedirs(self.paths.out, exist_ok=True)
        outputs = {}
        try:
            for name, inputs, outs, body in self.stages():
                start = time.time()
                if _is_fresh(inputs, outs):
                    self.stage_log.append(
                        {"name": name, "seconds": 0.0, "skipped": True})
                else:
                    try:
                        body()
                    except Exception as e:
                        self.stage_log.append(
                            {"name": name, "seconds": round(time.time() - start, 3),
                             "skipped": False, "failed": str(e)})
                        raise PipelineError(name, e) from e
                    missing = [f for f in outs if not os.path.exists(f)]
                    if missing:
                        raise PipelineError(
                            name, f"did not produce {missing[:3]}")
                    self.stage_log.append(
                        {"name": name, "seconds": round(time.time() - start, 3),
                         "skipped": False})
                outputs[name] = outs
        finally:
            self._write_manifest(outputs)
        return self.manifest()

    def manifest(self) -> dict:
        cfg = {k: (list(v) if isinstance(v, tuple) else v)
               for k, v in self.config.__dict__.items()}
        return {
            "tool_version": __version__,
            "config": cfg,
            "corpus_root": self.paths.corpus,
            "out_dir": self.paths.out,
            "inputs": {
                "annotations": self.paths.annotations,
                "frame_dirs": [self.paths.frames_dir(a.meta.video_id)
                               for a in self.sets],
            },
            "stages": self.stage_log,
            "outputs": {name: files for name, files in self._outputs.items()},
        }

    def _write_manifest(self, outputs) -> None:
        self._outputs = outputs
        with atomic_open(self.paths.manifest_json) as fh:
            json.dump(self.manifest(), fh, indent=1, sort_keys=True)


def parse_mode(text: str):
    """'relative' or 'window:<seconds>' -> (mode, window)."""
    if text == "relative":
        return "relative", None
    if text.startswith("window:"):
        return "absolute_window", float(text.split(":", 1)[1])
    raise ValueError(f"unknown evaluation mode {text!r}")


def run_pipeline(corpus_root, out_dir, config: PipelineConfig) -> dict:
    return Pipeline(corpus_root, out_dir, config).run()
