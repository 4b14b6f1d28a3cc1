"""Staged end-to-end pipeline with config-stamped resumption.

Stages run in a fixed order - validate, consistency, select-gt, flow,
sample, train, score, detect, eval, report.  Each declares what it reads:
earlier stages or the external inputs ``annotations`` and ``frames``, and
the :class:`PipelineConfig` keys it uses.  Flow, train and detect take
their keys from :data:`LAYERS`, the key map that builds their layer
configs, so no layer field misses its stage's stamp.  A stamp is a sha256
of the tool version, the stage name, those key values and its
dependencies' stamps; the ``annotations`` stamp digests the file's bytes
and the ``frames`` stamp each frame file's name, size and mtime (only
frame files, so a stray file in a frame directory reruns nothing).  A
stage is skipped only when its stamp equals the one ``manifest.json``
records, its outputs exist and no dependency ran in this invocation, so a
changed key reruns exactly the stages that read it and those downstream.
A stage's recorded stamp is dropped from the manifest on disk before it
starts and written back only after its outputs exist, so an interrupted
stage never looks fresh.  Flow extraction dominates runtime.  The flow
stage reads each frame once, computes the flow into it and writes the
video's per-frame feature table, ``features/<video_id>.gebt``; no flow is
stored.  Its stamp alone says whether those tables are current, so a flow
stage that was interrupted recomputes every video.  The ``frames`` stamp is
its whole input: of a video's annotation, a table reads only the video's
id and ``num_frames``, and the frames stamp lists every video by id with
its frame files, which :func:`gebd.pnm.frame_files` accepts only when they
are exactly ``num_frames``.  So a changed ``num_frames`` changes the frames
stamp (the listing, or its failure to list), and needs no stamp of its
own, while an edit of boundaries, labels, fps or duration reruns no flow.
Sample only lists candidates and their labels.

Per-video work inside a stage can fan out over worker processes; every
worker writes its own files and aggregation orders by video_id, so results
are identical for any worker count.  Flow and report delete the per-video
files of videos no longer listed.

Each command imports only what it runs.  This module loads no numpy: the
stages that compute arrays (flow, sample, train, score, detect) import
numpy and the flow, window, classifier and detection modules in their own
bodies, and the worker-process machinery is imported only when a stage
fans out.  So validation, ``gebd eval`` and a rerun whose stages are all
fresh never load them.  Stage flow imports :mod:`gebd.windows` before it
forks its workers, so that they inherit it: a worker that had to import
numpy itself would spend about 0.15 s of CPU on it.

Before it forks, stage flow also sets two glibc malloc parameters through
``mallopt``: blocks up to 32 MiB (glibc's ceiling) come from the heap
rather than their own ``mmap``, and up to 64 MiB of freed heap stays
mapped instead of being trimmed.  A flow step allocates dozens of
temporaries of a few hundred KB; by default glibc hands each back to the
kernel and faults it in again on the next step: about 300 minor page
faults per frame of a 64x64 video.  With the setting, a second 100-frame
flow job in the same process takes fewer than 20.  The workers inherit
the setting, so each flow process, and a ``workers == 1`` run itself,
keeps up to 64 MiB of freed heap.  On another libc the call does nothing.
"""

from __future__ import annotations

import json
import math
import operator
import os
import time
from collections import Counter
from dataclasses import dataclass

from . import __version__
from .annotations import (attach_consistency, load_annotations, normalize_track,
                          parse_gt_policy, per_video_rng, select_gt)
from .config import (DetectionConfig, FlowConfig, TrainConfig, WindowSpec,
                     check_stride)
from .container import (atomic_open, read_csv, read_csv_lines, read_tensor_file,
                        write_csv, write_tensor_file)
from .evaluation import (check_ascending, check_policy, check_threshold,
                         evaluate_corpus)
from .pnm import check_frames, frame_files
from .report import render_class_bars, render_timeline

DEFAULT_THRESHOLDS = tuple(round(0.05 * k, 2) for k in range(1, 11))
MAX_RANGE_VALUES = 10_000  # per lo:step:hi range; relative steps down to 1e-4


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

    def __post_init__(self):
        # one type per field, so equal settings stamp alike (1 and 1.0 do not)
        for name, field in self.__dataclass_fields__.items():
            setattr(self, name, _named(name, _typed, field.type, getattr(self, name)))
        # the stages' own checks, so a bad value fails before stage 1
        for cls in LAYERS:
            try:
                self.layer(cls).validate()
            except ValueError as e:  # each message starts with its field's name
                word = str(e).split()[0]
                raise ValueError(f"key {_RENAMED.get(word, word)!r}: {e}") from e
        window = _named("mode", parse_mode, self.mode)
        _named("gt_policy", parse_gt_policy, self.gt_policy)
        _named("match_policy", check_policy, self.match_policy)
        if window is None:  # as evaluate_corpus checks them
            _named("threshold", check_threshold, self.threshold)
            for t in self.thresholds:
                _named("thresholds", check_threshold, t)
        if not 0 < self.consistency_threshold < 1:
            raise ValueError(f"key 'consistency_threshold': must be in (0,1), "
                             f"got {self.consistency_threshold}")
        if self.bg_ratio < 0:
            raise ValueError(f"key 'bg_ratio': must be >= 0, got {self.bg_ratio}")
        if self.workers < 1:
            raise ValueError(f"key 'workers': must be >= 1, got {self.workers}")

    def layer(self, cls):
        """Layer config ``cls``, one of :data:`LAYERS`, built from its keys."""
        return cls(**{field: getattr(self, key) for field, key
                      in zip(cls.__dataclass_fields__, layer_keys(cls))})


# the layer configs a PipelineConfig builds, and the layer fields whose
# config key has another name; every other field's key is its own name
LAYERS = (FlowConfig, WindowSpec, TrainConfig, DetectionConfig)
_RENAMED = {"iterations_per_level": "iterations",
            "candidate_stride": "stride", "learning_rate": "lr"}


def layer_keys(cls) -> tuple:
    """The config key that sets each field of layer config ``cls``, in order."""
    return tuple(_RENAMED.get(field, field) for field in cls.__dataclass_fields__)


def _named(key, check, *args):
    """``check(*args)``; a ValueError or TypeError it raises names ``key``."""
    try:
        return check(*args)
    except (TypeError, ValueError) as e:
        raise ValueError(f"key {key!r}: {e}") from e


_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _typed(kind: str, value):
    """``value`` as field type ``kind``; a string parses as in a config file."""
    if kind == "tuple":  # thresholds, the one tuple field
        value = tuple(_typed("float", v) for v in (
            parse_thresholds(value) if isinstance(value, str) else value))
        if not value or any(b <= a for a, b in zip(value, value[1:])):
            raise ValueError(f"expected a strictly ascending list, got {value}")
        return value
    if kind == "bool":
        word = str(value).lower()  # True -> "true", 0 -> "0"
        if word not in _BOOLS:
            raise ValueError(f"expected one of 1/0/true/false/yes/no, got {value!r}")
        return _BOOLS[word]
    if kind == "int":  # a float is refused, not truncated
        return int(value) if isinstance(value, str) else operator.index(value)
    if kind == "float":
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"expected a finite number, got {value}")
        return value
    return str(value)


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
        field = PipelineConfig.__dataclass_fields__.get(key)
        if field is None:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        try:
            out[key] = _typed(field.type, value)
        except ValueError as e:
            raise ValueError(f"config line {lineno}: key {key!r}: {e}") from e
    return out


def parse_thresholds(text: str) -> tuple:
    """Either 'lo:step:hi' or a comma-separated ascending list."""
    if ":" in text:
        fields = text.split(":")
        if len(fields) != 3:
            raise ValueError(f"expected lo:step:hi, got {text!r}")
        # an infinite bound would never end the loop below
        lo, step, hi = (_typed("float", v) for v in fields)
        if not step > 0:
            raise ValueError(f"thresholds step must be positive, got {step}")
        values = []
        t = lo
        # the count bounds the loop too: a step lost in rounding never moves t
        while t <= hi + 1e-12 and len(values) <= MAX_RANGE_VALUES:
            values.append(round(t, 10))
            t += step
        if len(values) > MAX_RANGE_VALUES:
            raise ValueError(f"range {text!r} has more than {MAX_RANGE_VALUES} values")
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
# CSV tables (see container.py for the format)

BOUNDARY_HEADER = ("video_id", "timestamp")
SCORES_HEADER = ("video_id", "t", "score")
CONSISTENCY_HEADER = ("video_id", "annotator_id", "f1_consistency")
CANDIDATES_HEADER = ("video_id", "t", "label")
GLOBAL_HEADER = ("threshold", "precision", "recall", "f1")
PER_VIDEO_HEADER = ("video_id",) + GLOBAL_HEADER
PER_CLASS_HEADER = ("class", "mean_f1", "n_videos")


def write_boundary_csv(path, boundaries) -> None:
    """``video_id,timestamp`` rows; ``boundaries`` maps video_id -> timestamps."""
    write_csv(path, BOUNDARY_HEADER,
              ((vid, t) for vid in sorted(boundaries) for t in boundaries[vid]))


def _read_number_rows(path, header, numeric):
    """Yield the rows of :func:`gebd.container.read_csv_lines`, with the cell
    of each column named in ``numeric`` parsed as a float.

    A cell that is not a finite number is refused as
    ``<path>:<line>: <column> '<cell>' is not a finite number``.
    """
    columns = [(header.index(name), name) for name in numeric]
    for line, row in read_csv_lines(path, header):
        for i, name in columns:
            try:
                value = float(row[i])
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise ValueError(f"{path}:{line}: {name} {row[i]!r} is not "
                                 f"a finite number")
            row[i] = value
        yield row


def read_boundary_csv(path) -> dict:
    """Timestamps per video; a cell that is not a finite number is refused
    with the file and line named."""
    out = {}
    for vid, t in _read_number_rows(path, BOUNDARY_HEADER, ("timestamp",)):
        out.setdefault(vid, []).append(t)
    for vid, stamps in out.items():
        check_ascending(stamps, f"{path}: timestamps for {vid}")
    return out


def write_scores_csv(path, sequences) -> None:
    write_csv(path, SCORES_HEADER,
              ((seq.video_id, t, s) for seq in sequences
               for t, s in zip(seq.timestamps, seq.scores)))


def read_scores_csv(path) -> list:
    """Score sequences per video; a time or score that is not a finite
    number is refused with the file and line named."""
    from .postprocess import ScoreSequence
    rows = {}
    for vid, t, s in _read_number_rows(path, SCORES_HEADER, ("t", "score")):
        rows.setdefault(vid, []).append((t, s))
    return [ScoreSequence(video_id=vid, timestamps=[t for t, _ in rows[vid]],
                          scores=[s for _, s in rows[vid]])
            for vid in sorted(rows)]


def _prf_cells(r) -> list:
    return [f"{r.threshold:.6g}", f"{r.precision:.6f}", f"{r.recall:.6f}",
            f"{r.f1:.6f}"]


# ---------------------------------------------------------------------------
# stage plumbing

def _out_path(*parts):
    return property(lambda self: os.path.join(self.out, *parts))


@dataclass
class Paths:
    corpus: str
    out: str

    consistency_csv = _out_path("consistency.csv")
    gt_csv = _out_path("gt.csv")
    features_dir = _out_path("features")
    candidates_csv = _out_path("features", "candidates.csv")
    model_json = _out_path("model.json")
    loss_csv = _out_path("train_loss.csv")
    scores_csv = _out_path("scores.csv")
    predictions_csv = _out_path("predictions.csv")
    eval_global_csv = _out_path("eval_global.csv")
    eval_per_video_csv = _out_path("eval_per_video.csv")
    eval_per_class_csv = _out_path("eval_per_class.csv")
    report_dir = _out_path("report")
    manifest_json = _out_path("manifest.json")

    @property
    def annotations(self):
        return os.path.join(self.corpus, "annotations.json")

    def frames_dir(self, vid):
        return os.path.join(self.corpus, "frames", vid)

    def feature_table(self, vid):
        return os.path.join(self.out, "features", f"{vid}.gebt")

    def timeline_svg(self, vid):
        return os.path.join(self.out, "report", f"timeline_{vid}.svg")


def _sha256(data: bytes) -> str:
    # imported here: OpenSSL's hash module adds about 3.5 MB to the resident
    # size of every process that imports this module, `gebd eval` included
    import hashlib
    return hashlib.sha256(data).hexdigest()


def _digest(value) -> str:
    return _sha256(json.dumps(value, sort_keys=True).encode("utf-8"))


def _frames_stamp(paths: Paths, sets) -> str:
    """Digest of each video's frame files' (name, size, mtime_ns), as
    :func:`gebd.pnm.frame_files` lists them; other files in the directory
    are not stamped."""
    listing = []
    for aset in sets:
        vid = aset.meta.video_id
        try:
            names = frame_files(aset.meta, paths.frames_dir(vid))
            files = sorted((os.path.basename(f), st.st_size, st.st_mtime_ns)
                           for f, st in zip(names, map(os.stat, names)))
        except (OSError, ValueError):  # stage validate names the problem
            files = None
        listing.append((vid, files))
    return _digest(listing)


def _freshness(deps, outputs, stamp, recorded, ran) -> str:
    """``fresh``, or why a stage must run."""
    if ran.intersection(deps):
        return "upstream-ran"
    if recorded != stamp:
        return "stamp-mismatch"
    if not all(os.path.exists(f) for f in outputs):
        return "missing-output"
    return "fresh"


def _remove_unlisted(directory, prefix, suffix, keep) -> None:
    """Delete each file ``<prefix>*<suffix>`` in ``directory`` whose path is
    not in ``keep``: the per-video files of videos no longer listed."""
    for name in os.listdir(directory):
        path = os.path.join(directory, name)
        if name.startswith(prefix) and name.endswith(suffix) and path not in keep:
            os.remove(path)


def _remove_temp_files(paths) -> None:
    """Delete the ``<path>.tmp.<pid>`` files beside each of ``paths``: those
    an :func:`gebd.container.atomic_open` killed before its ``os.replace``
    left behind.  Each directory is listed once."""
    names = {}
    for path in paths:
        names.setdefault(os.path.dirname(path), set()).add(os.path.basename(path))
    for directory, outputs in names.items():
        if not os.path.isdir(directory):
            continue
        for name in os.listdir(directory):
            output, tmp, _ = name.rpartition(".tmp.")
            if tmp and output in outputs:
                os.remove(os.path.join(directory, name))


def _keep_freed_heap() -> None:
    """Have glibc's malloc keep freed memory in the heap, for this process
    and the workers it forks (module docstring); a no-op on another libc."""
    import ctypes
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD, glibc's ceiling
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def _map_videos(fn, items, workers):
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    # imported here: the pool pulls in multiprocessing, socket and subprocess
    # (about 25 ms of start-up), which only a stage that fans out needs
    from concurrent.futures import ProcessPoolExecutor
    # no more workers than items: under fork the pool starts all of them at
    # the first submit, idle or not
    with ProcessPoolExecutor(max_workers=min(workers, len(items))) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# stage bodies; module level so worker processes can pickle them, and so
# `gebd eval` runs the pipeline's own ground-truth and eval code

def check_videos(sets, path) -> None:
    """Refuse the annotation file ``path`` if it lists no video."""
    if not sets:
        raise ValueError(f"{path}: no videos")


def attach_stage_consistency(sets, config: PipelineConfig) -> None:
    """Each video's ``f1_consistency``, in place: recomputed unless
    ``use_file_consistency`` is set and every track has a value."""
    for aset in sets:
        have_all = all(t.f1_consistency is not None for t in aset.tracks)
        if not (config.use_file_consistency and have_all):
            attach_consistency(aset, config.consistency_threshold)


def ground_truth(sets, config: PipelineConfig) -> dict:
    """video_id -> timestamps of the track ``config.gt_policy`` selects."""
    return {aset.meta.video_id: select_gt(aset, config.gt_policy, config.seed)
            for aset in sets}


def write_eval(paths, sets, config: PipelineConfig, preds, gt) -> None:
    """Score ``preds`` against ``gt`` and write the three eval CSVs."""
    # videos whose GT is empty still count
    gt = {**{aset.meta.video_id: [] for aset in sets}, **gt}
    durations = {a.meta.video_id: a.meta.duration for a in sets}
    classes = {a.meta.video_id: a.meta.class_label for a in sets}
    report = evaluate_corpus(preds, gt, durations, classes,
                             thresholds=config.thresholds,
                             primary_threshold=config.threshold,
                             window=parse_mode(config.mode),
                             policy=config.match_policy)
    os.makedirs(paths.out, exist_ok=True)
    write_csv(paths.eval_global_csv, GLOBAL_HEADER,
              map(_prf_cells, report.global_prf))
    write_csv(paths.eval_per_video_csv, PER_VIDEO_HEADER,
              ([vid] + _prf_cells(r) for vid in sorted(report.per_video)
               for r in report.per_video[vid]))
    counts = Counter(classes[vid] for vid in report.per_video)
    write_csv(paths.eval_per_class_csv, PER_CLASS_HEADER,
              ((label, f"{f1:.6f}", counts[label]) for label, f1 in report.per_class))


def _flow_job(args):
    """Write one video's feature table; an error names the video once."""
    from .windows import FrameSequence, frame_feature_table
    meta, frame_dir, table_path, spec, flow_cfg = args
    try:
        table = frame_feature_table(FrameSequence(meta, frame_dir), spec, flow_cfg)
        write_tensor_file(table_path, table.shape, table)
    except Exception as e:
        if str(e).startswith(f"{meta.video_id}: "):
            raise
        raise RuntimeError(f"{meta.video_id}: {e}") from e
    return meta.video_id


class PipelineError(RuntimeError):
    def __init__(self, stage, cause):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage


class Pipeline:
    """Runs the staged pipeline for one corpus into one output directory."""

    def __init__(self, corpus_root, out_dir, config: PipelineConfig, sets=None):
        """``sets`` defaults to the corpus's ``annotations.json``."""
        self.paths = Paths(str(corpus_root), str(out_dir))
        self.config = config
        self.sets = sorted(load_annotations(self.paths.annotations)
                           if sets is None else sets,
                           key=lambda a: a.meta.video_id)
        self.stage_log = []
        self._outputs = {}
        self._stamps = {}

    # --- individual stages -------------------------------------------------

    def stage_validate(self):
        check_videos(self.sets, self.paths.annotations)
        for aset in self.sets:
            # the rule of windows.candidate_timestamps, before stage flow runs
            check_stride(aset.meta, self.config.stride)
            check_frames(aset.meta, self.paths.frames_dir(aset.meta.video_id))

    def stage_consistency(self):
        attach_stage_consistency(self.sets, self.config)
        write_csv(self.paths.consistency_csv, CONSISTENCY_HEADER,
                  ((aset.meta.video_id, track.annotator_id, track.f1_consistency)
                   for aset in self.sets for track in aset.tracks))

    def _load_consistency(self):
        values = {(vid, aid): c for vid, aid, c in
                  _read_number_rows(self.paths.consistency_csv,
                                    CONSISTENCY_HEADER, ("f1_consistency",))}
        for aset in self.sets:
            for track in aset.tracks:
                track.f1_consistency = values[(aset.meta.video_id,
                                               track.annotator_id)]

    def stage_select_gt(self):
        self._load_consistency()
        write_boundary_csv(self.paths.gt_csv, ground_truth(self.sets, self.config))

    def stage_flow(self):
        # before _map_videos forks, so the workers inherit it (module docstring)
        from . import windows  # noqa: F401
        os.makedirs(self.paths.features_dir, exist_ok=True)
        spec, flow_cfg = self.config.layer(WindowSpec), self.config.layer(FlowConfig)
        jobs = [(aset.meta, self.paths.frames_dir(aset.meta.video_id),
                 self.paths.feature_table(aset.meta.video_id), spec, flow_cfg)
                for aset in self.sets]
        _remove_unlisted(self.paths.features_dir, "", ".gebt",
                         {self.paths.feature_table(a.meta.video_id)
                          for a in self.sets})
        _keep_freed_heap()
        _map_videos(_flow_job, jobs, self.config.workers)

    def stage_sample(self):
        from .windows import candidate_timestamps, label_windows
        gt = read_boundary_csv(self.paths.gt_csv)
        spec = self.config.layer(WindowSpec)
        rows = []
        for aset in self.sets:
            vid = aset.meta.video_id
            cands = candidate_timestamps(aset.meta, spec.candidate_stride)
            labels = label_windows(cands, gt.get(vid, []), spec.label_tolerance)
            rows.extend((vid, t, label) for t, label in zip(cands, labels))
        write_csv(self.paths.candidates_csv, CANDIDATES_HEADER, rows)

    def _candidates(self):
        """``(aset, timestamps, labels)`` per video, in video_id order."""
        by_video = {}
        for vid, t, label in _read_number_rows(self.paths.candidates_csv,
                                               CANDIDATES_HEADER, ("t",)):
            by_video.setdefault(vid, []).append((t, label))
        out = []
        for aset in self.sets:
            rows = by_video.get(aset.meta.video_id, [])
            out.append((aset, [t for t, _ in rows], [lab for _, lab in rows]))
        return out

    def _inputs(self, aset, timestamps):
        """Classifier inputs of one video's candidates, from its feature table."""
        import numpy as np

        from .classifier import FEATURE_DIM, window_inputs
        from .windows import window_frame_indices
        meta, m = aset.meta, self.config.m
        path = self.paths.feature_table(meta.video_id)
        dims, data = read_tensor_file(path)
        if dims != [meta.num_frames, FEATURE_DIM]:
            raise ValueError(
                f"{path}: expected dims {[meta.num_frames, FEATURE_DIM]}, "
                f"got {dims}")
        indices = np.array([window_frame_indices(t, meta, m) for t in timestamps],
                           dtype=np.intp).reshape(len(timestamps), 2 * m)
        return window_inputs(data.reshape(dims), indices)

    def stage_train(self):
        import numpy as np

        from .classifier import save_model, train_logistic
        from .windows import LABEL_BOUNDARY
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
                                       self.config.layer(TrainConfig))
        save_model(self.paths.model_json, model)
        write_csv(self.paths.loss_csv, ("epoch", "mean_loss"), enumerate(losses))

    def stage_score(self):
        # one table read and one matrix product per video: too little work
        # to pay for worker processes
        from .classifier import load_model, score_sequence
        model = load_model(self.paths.model_json)
        sequences = [score_sequence(model, self._inputs(aset, timestamps),
                                    timestamps, aset.meta.video_id)
                     for aset, timestamps, _ in self._candidates()]
        write_scores_csv(self.paths.scores_csv, sequences)

    def stage_detect(self):
        from .postprocess import scores_to_boundaries
        sequences = read_scores_csv(self.paths.scores_csv)
        det = self.config.layer(DetectionConfig)
        preds = {seq.video_id: scores_to_boundaries(seq, det)
                 for seq in sequences}
        write_boundary_csv(self.paths.predictions_csv, preds)

    def stage_eval(self):
        write_eval(self.paths, self.sets, self.config,
                   read_boundary_csv(self.paths.predictions_csv),
                   read_boundary_csv(self.paths.gt_csv))

    def stage_report(self):
        os.makedirs(self.paths.report_dir, exist_ok=True)
        _remove_unlisted(self.paths.report_dir, "timeline_", ".svg",
                         {self.paths.timeline_svg(a.meta.video_id)
                          for a in self.sets})
        preds = read_boundary_csv(self.paths.predictions_csv)
        for aset in self.sets:
            vid = aset.meta.video_id
            tracks = [("predicted", preds.get(vid, []))]
            for track in aset.tracks:
                tracks.append((track.annotator_id,
                               normalize_track(track, aset.meta)))
            svg = render_timeline(vid, aset.meta.duration, tracks)
            with atomic_open(self.paths.timeline_svg(vid)) as fh:
                fh.write(svg)
        per_class = [(label, float(mean_f1)) for label, mean_f1, _ in
                     read_csv(self.paths.eval_per_class_csv, PER_CLASS_HEADER)]
        k = min(10, len(per_class))
        top = per_class[:k]
        bottom = sorted(per_class, key=lambda lv: (lv[1], lv[0]))[:k]
        for name, rows, title in (("class_top.svg", top, "highest mean F1"),
                                  ("class_bottom.svg", bottom, "lowest mean F1")):
            with atomic_open(os.path.join(self.paths.report_dir, name)) as fh:
                fh.write(render_class_bars(rows, title))

    # --- driver -------------------------------------------------------------

    def stages(self):
        """``(name, deps, keys, outputs, body)`` of every stage, in run order.

        ``deps`` are earlier stages or the external inputs ``annotations``
        and ``frames``; ``keys`` are the config fields the stage reads.
        ``workers`` changes no result, so no stage reads it.
        """
        p = self.paths
        vids = [a.meta.video_id for a in self.sets]
        table = [
            ("validate", ("annotations", "frames"), ("stride",), []),
            ("consistency", ("annotations",),
             ("consistency_threshold", "use_file_consistency"),
             [p.consistency_csv]),
            ("select-gt", ("annotations", "consistency"),
             # only a bare "weighted" policy reads seed
             ("gt_policy", "seed") if parse_gt_policy(self.config.gt_policy)
             == ("weighted", None) else ("gt_policy",), [p.gt_csv]),
            ("flow", ("frames",), layer_keys(FlowConfig) + ("image_side",),
             [p.feature_table(v) for v in vids]),
            ("sample", ("annotations", "select-gt"),
             ("stride", "label_tolerance"), [p.candidates_csv]),
            ("train", ("annotations", "flow", "sample"),
             ("m", "bg_ratio") + layer_keys(TrainConfig),
             [p.model_json, p.loss_csv]),
            ("score", ("annotations", "flow", "sample", "train"), ("m",),
             [p.scores_csv]),
            ("detect", ("score",), layer_keys(DetectionConfig),
             [p.predictions_csv]),
            ("eval", ("annotations", "select-gt", "detect"),
             ("threshold", "thresholds", "mode", "match_policy"),
             [p.eval_global_csv, p.eval_per_video_csv, p.eval_per_class_csv]),
            ("report", ("annotations", "detect", "eval"), (),
             [os.path.join(p.report_dir, "class_top.svg"),
              os.path.join(p.report_dir, "class_bottom.svg")]
             + [p.timeline_svg(v) for v in vids]),
        ]
        return [(name, deps, keys, outs,
                 getattr(self, "stage_" + name.replace("-", "_")))
                for name, deps, keys, outs in table]

    def _recorded_stamps(self) -> dict:
        try:
            with open(self.paths.manifest_json, "r", encoding="utf-8") as fh:
                return dict(json.load(fh).get("stamps", {}))
        except (OSError, ValueError):
            return {}

    def run(self) -> dict:
        os.makedirs(self.paths.out, exist_ok=True)
        _remove_temp_files([self.paths.manifest_json])
        self._stamps = self._recorded_stamps()
        with open(self.paths.annotations, "rb") as fh:
            stamps = {"annotations": _sha256(fh.read())}
        stamps["frames"] = _frames_stamp(self.paths, self.sets)
        ran = set()
        try:
            for name, deps, keys, outs, body in self.stages():
                stamps[name] = _digest(
                    [__version__, name,
                     {k: getattr(self.config, k) for k in keys},
                     [stamps[d] for d in deps]])
                reason = _freshness(deps, outs, stamps[name],
                                    self._stamps.get(name), ran)
                entry = {"name": name, "seconds": 0.0,
                         "skipped": reason == "fresh", "reason": reason}
                self.stage_log.append(entry)
                self._outputs[name] = outs
                if reason == "fresh":
                    continue
                ran.add(name)
                self._stamps.pop(name, None)
                self._write_manifest()
                _remove_temp_files(outs)
                start = time.perf_counter()
                try:
                    body()
                    missing = [f for f in outs if not os.path.exists(f)]
                    if missing:
                        raise RuntimeError(f"did not produce {missing[:3]}")
                except Exception as e:
                    entry["failed"] = str(e)
                    raise PipelineError(name, e) from e
                finally:
                    entry["seconds"] = round(time.perf_counter() - start, 3)
                self._stamps[name] = stamps[name]
        finally:
            self._write_manifest()
        return self.manifest()

    def manifest(self) -> dict:
        cfg = {k: (list(v) if isinstance(v, tuple) else v)
               for k, v in self.config.__dict__.items()}
        rel = Paths("", "")  # names relative to corpus_root, out_dir
        return {
            "tool_version": __version__,
            "config": cfg,
            "corpus_root": self.paths.corpus,
            "out_dir": self.paths.out,
            "inputs": {
                "annotations": rel.annotations,
                "frame_dirs": [rel.frames_dir(a.meta.video_id)
                               for a in self.sets],
            },
            "stages": self.stage_log,
            "outputs": {name: [os.path.relpath(f, self.paths.out) for f in outs]
                        for name, outs in self._outputs.items()},
            "stamps": self._stamps,
        }

    def _write_manifest(self) -> None:
        with atomic_open(self.paths.manifest_json) as fh:
            json.dump(self.manifest(), fh, indent=1, sort_keys=True)


def parse_mode(text: str):
    """'relative' -> None; 'window:<seconds>' -> the window in seconds."""
    if text == "relative":
        return None
    if text.startswith("window:"):
        window = _typed("float", text.split(":", 1)[1])
        if not window > 0:
            raise ValueError(f"evaluation window must be positive, got {text!r}")
        return window
    raise ValueError(f"unknown evaluation mode {text!r}")


def run_pipeline(corpus_root, out_dir, config: PipelineConfig) -> dict:
    return Pipeline(corpus_root, out_dir, config).run()
