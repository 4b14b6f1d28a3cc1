import builtins
import csv
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import gebd
from gebd.annotations import load_annotations
from gebd.container import DTYPE_F64, read_tensor_file, write_tensor_file
from gebd.evaluation import evaluate_corpus
from gebd import pipeline
from gebd.pipeline import (PipelineConfig, PipelineError, Pipeline,
                           parse_config_text, parse_mode, parse_thresholds,
                           read_boundary_csv, read_scores_csv, run_pipeline,
                           write_boundary_csv, write_scores_csv)
from gebd.postprocess import ScoreSequence
from gebd.pnm import write_pnm
from gebd.synth import generate_corpus

from conftest import smooth_texture

CFG = dict(seed=11, workers=1, image_side=32, m=3)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    generate_corpus(root, n_videos=3, seed=11, duration=6.0, fps=10.0,
                    image_size=48)
    return root


@pytest.fixture(scope="module")
def finished_run(corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    manifest = run_pipeline(corpus, out, PipelineConfig(**CFG))
    return corpus, out, manifest


class TestConfig:
    def test_parse_key_value(self):
        text = "seed=5\nworkers = 2  # comment\nstride=0.5\nmode=window:0.3\n"
        values = parse_config_text(text)
        assert values == {"seed": 5, "workers": 2, "stride": 0.5,
                          "mode": "window:0.3"}

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_config_text("bogus=1\n")

    @pytest.mark.parametrize("text, key", [
        ("m=abc", "m"), ("seed=1\nstride=fast", "stride"),
        ("thresholds=0.1,abc", "thresholds"),
        ("thresholds=0.1:0.1", "thresholds"),
        ("thresholds=0.1:0:0.5", "thresholds"),
        ("use_file_consistency=ture", "use_file_consistency")])
    def test_bad_value_names_line_and_key(self, text, key):
        line = text.count("\n") + 1
        with pytest.raises(ValueError, match=f"config line {line}: key '{key}': "):
            parse_config_text(text)

    def test_bool_words(self):
        for word, value in [("1", True), ("TRUE", True), ("Yes", True),
                            ("0", False), ("false", False), ("NO", False)]:
            assert parse_config_text(f"use_file_consistency={word}") == \
                {"use_file_consistency": value}

    def test_values_typed_by_field(self):
        config = PipelineConfig(smooth_sigma=1, m="3", thresholds=[0.5, 1],
                                use_file_consistency=1)
        assert type(config.smooth_sigma) is float and config.m == 3
        assert config.thresholds == (0.5, 1.0)
        assert config.use_file_consistency is True
        with pytest.raises(ValueError, match="key 'm': "):
            PipelineConfig(m=2.5)  # refused, not truncated

    def test_thresholds_forms(self):
        assert parse_thresholds("0.05:0.05:0.2") == (0.05, 0.1, 0.15, 0.2)
        assert parse_thresholds("0.1,0.3") == (0.1, 0.3)

    def test_mode_forms(self):
        assert parse_mode("relative") == ("relative", None)
        assert parse_mode("window:0.25") == ("absolute_window", 0.25)
        with pytest.raises(ValueError):
            parse_mode("sideways")


class TestCsvFormats:
    def test_boundary_round_trip(self, tmp_path):
        path = tmp_path / "b.csv"
        data = {"v2": [1.5, 2.25], "v1": [0.125]}
        write_boundary_csv(path, data)
        assert read_boundary_csv(path) == data

    def test_interrupted_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "scores.csv"
        first = ScoreSequence("v1", [0.5, 1.0], [0.25, 0.75])
        write_scores_csv(path, [first])
        before = path.read_bytes()

        def crashing():
            yield ScoreSequence("v1", [0.5], [0.5])
            raise KeyboardInterrupt
        with pytest.raises(KeyboardInterrupt):
            write_scores_csv(path, crashing())
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["scores.csv"]

    def test_boundary_unsorted_rejected(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("video_id,timestamp\nv,2.0\nv,1.0\n")
        with pytest.raises(ValueError, match="ascending"):
            read_boundary_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "1e999", "abc", ""])
    def test_boundary_bad_timestamp_names_file_and_line(self, tmp_path, cell):
        path = tmp_path / "gt.csv"
        path.write_text(f"video_id,timestamp\nv,0.5\n\nw,{cell}\n")
        with pytest.raises(ValueError) as e:
            read_boundary_csv(path)
        assert str(e.value) == (f"{path}:4: timestamp {cell!r} "
                                f"is not a finite number")


class TestRun:
    def test_all_stages_complete(self, finished_run):
        _, out, manifest = finished_run
        names = [s["name"] for s in manifest["stages"]]
        assert names == ["validate", "consistency", "select-gt", "flow",
                         "sample", "train", "score", "detect", "eval", "report"]
        assert not any(s["skipped"] for s in manifest["stages"])
        for files in manifest["outputs"].values():
            for f in files:
                assert os.path.exists(f)

    def test_rerun_skips_everything(self, finished_run):
        corpus, out, _ = finished_run
        manifest = run_pipeline(corpus, out, PipelineConfig(**CFG))
        assert all(s["skipped"] for s in manifest["stages"])

    def test_eval_matches_library_recomputation(self, finished_run):
        corpus, out, _ = finished_run
        preds = read_boundary_csv(os.path.join(out, "predictions.csv"))
        gt = read_boundary_csv(os.path.join(out, "gt.csv"))
        sets = load_annotations(os.path.join(corpus, "annotations.json"))
        durations = {a.meta.video_id: a.meta.duration for a in sets}
        for aset in sets:
            gt.setdefault(aset.meta.video_id, [])
        report = evaluate_corpus(preds, gt, durations,
                                 thresholds=PipelineConfig().thresholds)
        with open(os.path.join(out, "eval_global.csv")) as fh:
            next(fh)
            for line, prf in zip(fh, report.global_prf):
                t, p, r, f1 = line.strip().split(",")
                assert float(p) == pytest.approx(prf.precision, abs=1e-6)
                assert float(r) == pytest.approx(prf.recall, abs=1e-6)
                assert float(f1) == pytest.approx(prf.f1, abs=1e-6)

    def test_scores_sorted_by_video_and_time(self, finished_run):
        _, out, _ = finished_run
        seqs = read_scores_csv(os.path.join(out, "scores.csv"))
        vids = [s.video_id for s in seqs]
        assert vids == sorted(vids)
        for seq in seqs:
            seq.validate()

    def test_consistency_csv_in_unit_interval(self, finished_run):
        _, out, _ = finished_run
        with open(os.path.join(out, "consistency.csv")) as fh:
            next(fh)
            rows = [line.strip().split(",") for line in fh]
        assert len(rows) == 15  # 3 videos x 5 annotators
        assert all(0.0 <= float(c) <= 1.0 for _, _, c in rows)

    def test_report_svgs_exist(self, finished_run):
        _, out, _ = finished_run
        names = sorted(os.listdir(os.path.join(out, "report")))
        assert "class_top.svg" in names and "class_bottom.svg" in names
        assert sum(1 for n in names if n.startswith("timeline_")) == 3


class TestResumption:
    def test_deleting_scores_reruns_only_downstream(self, corpus, tmp_path):
        out = tmp_path / "run"
        run_pipeline(corpus, out, PipelineConfig(**CFG))
        os.remove(out / "scores.csv")
        manifest = run_pipeline(corpus, out, PipelineConfig(**CFG))
        state = {s["name"]: s["skipped"] for s in manifest["stages"]}
        assert state["flow"] and state["sample"] and state["train"]
        assert not state["score"] and not state["detect"] and not state["eval"]

    def test_train_and_score_read_one_table_per_video(self, corpus, tmp_path,
                                                      monkeypatch):
        out = tmp_path / "run"
        run_pipeline(corpus, out, PipelineConfig(**CFG))
        before = (out / "scores.csv").read_bytes()
        os.remove(out / "model.json")
        reads = []

        def counting(path):
            reads.append(os.path.relpath(path, out))
            return read_tensor_file(path)
        monkeypatch.setattr(pipeline, "read_tensor_file", counting)
        manifest = run_pipeline(corpus, out, PipelineConfig(**CFG))
        ran = [s["name"] for s in manifest["stages"] if not s["skipped"]]
        assert ran == ["train", "score", "detect", "eval", "report"]
        tables = sorted(os.path.join("features", n)
                        for n in os.listdir(out / "features")
                        if n.endswith(".gebt"))
        assert len(tables) == 3
        assert sorted(reads) == sorted(tables * 2)
        assert (out / "scores.csv").read_bytes() == before

    def test_table_of_wrong_shape_named(self, corpus, tmp_path):
        out = tmp_path / "run"
        run_pipeline(corpus, out, PipelineConfig(**CFG))
        table = sorted((out / "features").glob("*.gebt"))[0]
        write_tensor_file(table, [2, 2, 27], np.zeros(108), DTYPE_F64)
        os.remove(out / "model.json")
        with pytest.raises(PipelineError, match=f"{table.name}: expected dims"):
            run_pipeline(corpus, out, PipelineConfig(**CFG))

    def test_stage_failure_recorded(self, corpus, tmp_path, monkeypatch):
        out = tmp_path / "run"
        config = PipelineConfig(**CFG)
        pipe = Pipeline(corpus, out, config)
        monkeypatch.setattr(pipe, "stage_flow",
                            lambda: (_ for _ in ()).throw(RuntimeError("boom")))
        with pytest.raises(PipelineError, match="flow"):
            pipe.run()
        manifest = json.load(open(out / "manifest.json"))
        names = [s["name"] for s in manifest["stages"]]
        assert names[-1] == "flow"
        assert manifest["stages"][-1]["failed"] == "boom"
        # completed stages resume cleanly after the failure
        manifest = run_pipeline(corpus, out, config)
        state = {s["name"]: s["skipped"] for s in manifest["stages"]}
        assert state["validate"] and state["consistency"]
        assert not state["flow"]


def video_ids(corpus):
    return sorted(a.meta.video_id
                  for a in load_annotations(corpus / "annotations.json"))


STAGE_NAMES = ["validate", "consistency", "select-gt", "flow", "sample",
               "train", "score", "detect", "eval", "report"]


def ran_stages(manifest):
    return [s["name"] for s in manifest["stages"] if not s["skipped"]]


class TestStageStamps:
    @pytest.fixture
    def copied_run(self, finished_run, tmp_path):
        corpus, out, _ = finished_run
        copy = tmp_path / "run"
        shutil.copytree(out, copy)
        return corpus, copy

    def test_copied_run_stays_fresh(self, copied_run):
        corpus, out = copied_run
        manifest = run_pipeline(corpus, out, PipelineConfig(**CFG))
        assert ran_stages(manifest) == []
        assert {s["reason"] for s in manifest["stages"]} == {"fresh"}

    def test_stray_file_in_frame_dir_reruns_nothing(self, finished_run,
                                                    tmp_path):
        corpus, out, _ = finished_run
        corpus2, out2 = tmp_path / "corpus", tmp_path / "run"
        shutil.copytree(corpus, corpus2)  # keeps every frame's mtime
        shutil.copytree(out, out2)
        for vid in video_ids(corpus2):
            (corpus2 / "frames" / vid / ".DS_Store").write_bytes(b"\0\0\0\1")
        manifest = run_pipeline(corpus2, out2, PipelineConfig(**CFG))
        assert ran_stages(manifest) == []

    def test_frames_stamp_digests_every_entry_of_a_clean_corpus(
            self, finished_run):
        # the formula that listed the directory itself, before frame
        # directories had one reader; a clean corpus must stamp as it did
        corpus, out, manifest = finished_run
        listing = []
        for vid in video_ids(corpus):
            with os.scandir(corpus / "frames" / vid) as it:
                listing.append((vid, sorted(
                    (e.name, e.stat().st_size, e.stat().st_mtime_ns)
                    for e in it)))

        def digest(value):
            text = json.dumps(value, sort_keys=True).encode("utf-8")
            return hashlib.sha256(text).hexdigest()
        frames = digest(listing)
        sets = load_annotations(corpus / "annotations.json")
        assert pipeline._frames_stamp(pipeline.Paths(str(corpus), str(out)),
                                      sets) == frames
        # the manifest records no input stamps; validate's is built on it
        annotations = hashlib.sha256(
            (corpus / "annotations.json").read_bytes()).hexdigest()
        assert manifest["stamps"]["validate"] == digest(
            [gebd.__version__, "validate", {}, [annotations, frames]])

    def test_workers_change_reruns_nothing(self, copied_run):
        corpus, out = copied_run
        manifest = run_pipeline(corpus, out,
                                PipelineConfig(**dict(CFG, workers=2)))
        assert ran_stages(manifest) == []

    def test_detect_key_reruns_detect_eval_report(self, copied_run):
        corpus, out = copied_run
        before = (out / "predictions.csv").read_bytes()
        manifest = run_pipeline(
            corpus, out, PipelineConfig(**dict(CFG, smooth_sigma=4.0,
                                               score_threshold=0.9)))
        assert ran_stages(manifest) == ["detect", "eval", "report"]
        reasons = {s["name"]: s["reason"] for s in manifest["stages"]}
        assert reasons["score"] == "fresh"
        assert reasons["detect"] == "stamp-mismatch"
        assert reasons["eval"] == reasons["report"] == "upstream-ran"
        assert (out / "predictions.csv").read_bytes() != before
        # the new config is now the recorded one
        manifest = run_pipeline(
            corpus, out, PipelineConfig(**dict(CFG, smooth_sigma=4.0,
                                               score_threshold=0.9)))
        assert ran_stages(manifest) == []

    def assert_flow_reran(self, corpus, out, **change):
        tables = sorted((out / "features").glob("*.gebt"))
        before = [t.read_bytes() for t in tables]
        candidates = (out / "features" / "candidates.csv").read_bytes()
        manifest = run_pipeline(corpus, out, PipelineConfig(**dict(CFG, **change)))
        # flow writes the feature tables; sample reads no flow key
        assert ran_stages(manifest) == ["flow"] + STAGE_NAMES[5:]
        assert len(tables) == 3
        assert all(t.read_bytes() != b for t, b in zip(tables, before))
        assert (out / "features" / "candidates.csv").read_bytes() == candidates
        assert not (out / "flow").exists()

    def test_flow_key_reruns_flow_onward(self, copied_run):
        self.assert_flow_reran(*copied_run, poly_sigma=1.5)

    def test_int_for_float_key_reruns_nothing(self, copied_run):
        corpus, out = copied_run
        manifest = run_pipeline(corpus, out,
                                PipelineConfig(**dict(CFG, smooth_sigma=1)))
        assert ran_stages(manifest) == []

    def test_seed_under_highest_reruns_train_onward(self, copied_run):
        corpus, out = copied_run
        manifest = run_pipeline(corpus, out, PipelineConfig(**dict(CFG, seed=12)))
        assert ran_stages(manifest) == STAGE_NAMES[5:]

    def test_seed_under_bare_weighted_reruns_select_gt_onward(self, corpus,
                                                               tmp_path):
        out = tmp_path / "run"
        cfg = dict(CFG, gt_policy="weighted")
        run_pipeline(corpus, out, PipelineConfig(**cfg))
        manifest = run_pipeline(corpus, out, PipelineConfig(**dict(cfg, seed=12)))
        assert ran_stages(manifest) == ["select-gt"] + STAGE_NAMES[4:]
        # a policy with its own seed does not read the config's
        cfg["gt_policy"] = "weighted:3"
        run_pipeline(corpus, out, PipelineConfig(**cfg))
        manifest = run_pipeline(corpus, out, PipelineConfig(**dict(cfg, seed=12)))
        assert ran_stages(manifest) == STAGE_NAMES[5:]

    def test_image_side_reruns_flow_onward(self, copied_run):
        # the flow stage computes the features, so image_side reruns flow
        # onward, but not sample
        self.assert_flow_reran(*copied_run, image_side=48)

    def test_sample_key_reruns_sample_onward(self, copied_run):
        corpus, out = copied_run
        manifest = run_pipeline(corpus, out,
                                PipelineConfig(**dict(CFG, stride=0.5)))
        assert ran_stages(manifest) == STAGE_NAMES[4:]

    def test_interrupted_stage_reruns(self, copied_run, monkeypatch):
        corpus, out = copied_run
        os.remove(out / "predictions.csv")
        pipe = Pipeline(corpus, out, PipelineConfig(**CFG))

        def write_then_crash():
            Pipeline.stage_detect(pipe)
            raise RuntimeError("killed")
        monkeypatch.setattr(pipe, "stage_detect", write_then_crash)
        with pytest.raises(PipelineError, match="killed"):
            pipe.run()
        assert (out / "predictions.csv").exists()
        on_disk = json.load(open(out / "manifest.json"))
        assert "detect" not in on_disk["stamps"]
        assert "score" in on_disk["stamps"]
        manifest = run_pipeline(corpus, out, PipelineConfig(**CFG))
        assert ran_stages(manifest) == ["detect", "eval", "report"]
        assert manifest["stages"][STAGE_NAMES.index("detect")]["reason"] == \
            "stamp-mismatch"

    def test_stamp_dropped_while_stage_runs(self, copied_run, monkeypatch):
        corpus, out = copied_run
        os.remove(out / "scores.csv")
        pipe = Pipeline(corpus, out, PipelineConfig(**CFG))
        seen = []

        def score():
            seen.append(json.load(open(out / "manifest.json"))["stamps"])
            Pipeline.stage_score(pipe)
        monkeypatch.setattr(pipe, "stage_score", score)
        manifest = pipe.run()
        assert "score" not in seen[0] and "train" in seen[0]
        assert manifest["stages"][STAGE_NAMES.index("score")]["reason"] == \
            "missing-output"
        assert set(manifest["stamps"]) == set(STAGE_NAMES)

    def test_every_config_key_declared(self, finished_run):
        corpus, out, _ = finished_run
        stages = Pipeline(corpus, out, PipelineConfig(**CFG)).stages()
        assert [s[0] for s in stages] == STAGE_NAMES
        declared = set()
        for name, deps, keys, _, _ in stages:
            declared.update(keys)
            earlier = STAGE_NAMES[:STAGE_NAMES.index(name)]
            assert set(deps) <= set(earlier) | {"annotations", "frames"}
        fields = set(PipelineConfig.__dataclass_fields__)
        assert declared == fields - {"workers"}

    def test_each_stage_reads_only_its_deps_outputs(self, corpus, tmp_path,
                                                    monkeypatch):
        out = tmp_path / "run"
        pipe = Pipeline(corpus, out, PipelineConfig(**CFG))
        reads = []
        real_open = builtins.open

        def recording(file, mode="r", *args, **kwargs):
            path = os.path.abspath(file) if isinstance(file, (str, os.PathLike)) \
                else ""
            if (path.startswith(str(out) + os.sep) and pipe.stage_log
                    and not set(mode) & set("wax+")):
                reads.append((pipe.stage_log[-1]["name"], path))
            return real_open(file, mode, *args, **kwargs)
        monkeypatch.setattr(builtins, "open", recording)
        pipe.run()
        monkeypatch.undo()
        stages = pipe.stages()
        outputs = {name: {os.path.abspath(f) for f in outs}
                   for name, _, _, outs, _ in stages}
        deps = {name: d for name, d, *_ in stages}
        assert {name for name, _ in reads} == \
            set(STAGE_NAMES) - {"validate", "consistency", "flow"}
        for name, path in reads:
            allowed = set().union(*(outputs.get(d, ()) for d in deps[name]))
            assert path in allowed, \
                f"stage {name!r} reads {path}, the output of no stage it declares"

    def test_stale_windows_tree_removed(self, copied_run):
        corpus, out = copied_run
        # an output directory from before feature tables: window tensors,
        # and a manifest without stamps
        stale = out / "windows" / "v000"
        stale.mkdir(parents=True)
        write_tensor_file(stale / "win_000000_rgb.gebt", [2], np.zeros(2))
        doc = json.load(open(out / "manifest.json"))
        del doc["stamps"]
        (out / "manifest.json").write_text(json.dumps(doc))
        manifest = run_pipeline(corpus, out, PipelineConfig(**CFG))
        assert "sample" in ran_stages(manifest)
        assert not (out / "windows").exists()

    def test_stale_flow_dirs_removed(self, copied_run):
        corpus, out = copied_run
        # flow written by older versions: a tensor per video, or one file per
        # frame pair and a config sidecar per video
        for vid in video_ids(corpus):
            stale = out / "flow" / vid
            stale.mkdir(parents=True)
            write_tensor_file(out / "flow" / f"{vid}.gebt", [2], np.zeros(2))
            write_tensor_file(stale / "flow_000001.gebt", [2], np.zeros(2))
            (stale / "flow_config.json").write_text("{}")
        os.remove(sorted((out / "features").glob("*.gebt"))[0])
        manifest = run_pipeline(corpus, out, PipelineConfig(**CFG))
        reasons = {s["name"]: s["reason"] for s in manifest["stages"]}
        assert reasons["flow"] == "missing-output"
        assert not (out / "flow").exists()

    def test_run_of_older_version_reruns_flow(self, finished_run, tmp_path,
                                              monkeypatch):
        # version 0.1.0 stored two rows per frame, [N, 2, 27]
        corpus, clean, _ = finished_run
        out = tmp_path / "run"
        monkeypatch.setattr(pipeline, "__version__", "0.1.0")
        run_pipeline(corpus, out, PipelineConfig(**CFG))
        monkeypatch.undo()
        for table in (out / "features").glob("*.gebt"):
            dims, data = read_tensor_file(table)
            rows = np.repeat(data.reshape(dims)[:, None], 2, axis=1)
            write_tensor_file(table, rows.shape, rows, DTYPE_F64)
        manifest = run_pipeline(corpus, out, PipelineConfig(**CFG))
        reasons = {s["name"]: s["reason"] for s in manifest["stages"]}
        assert reasons["flow"] == "stamp-mismatch"
        assert ran_stages(manifest) == STAGE_NAMES
        assert (out / "scores.csv").read_bytes() == \
            (clean / "scores.csv").read_bytes()


def test_pyproject_version_is_package_version():
    path = os.path.join(os.path.dirname(__file__), "..", "pyproject.toml")
    with open(path, encoding="utf-8") as fh:
        versions = re.findall(r'^version = "([^"]*)"$', fh.read(), re.M)
    assert versions == [gebd.__version__]


class TestWorkerInvariance:
    def test_two_workers_match_single_worker_bytes(self, corpus, tmp_path):
        outs = []
        for workers in (1, 2):
            out = tmp_path / f"run{workers}"
            cfg = dict(CFG)
            cfg["workers"] = workers
            run_pipeline(corpus, out, PipelineConfig(**cfg))
            outs.append(out)
        for name in ("scores.csv", "predictions.csv", "eval_global.csv",
                     "gt.csv"):
            a = (outs[0] / name).read_bytes()
            b = (outs[1] / name).read_bytes()
            assert a == b, f"{name} differs between worker counts"
        # every per-video feature table, and the candidate/label list; no
        # flow is stored
        names = ["candidates.csv"] + [f"{v}.gebt" for v in video_ids(corpus)]
        for out in outs:
            assert sorted(os.listdir(out / "features")) == names
            assert not (out / "flow").exists()
        for name in names:
            assert (outs[0] / "features" / name).read_bytes() == \
                (outs[1] / "features" / name).read_bytes(), \
                f"features/{name} differs between worker counts"


class TestGtPolicies:
    def test_weighted_policy_runs(self, corpus, tmp_path):
        cfg = dict(CFG)
        cfg["gt_policy"] = "weighted:3"
        out = tmp_path / "run"
        manifest = run_pipeline(corpus, out, PipelineConfig(**cfg))
        assert os.path.exists(out / "gt.csv")
        gt = read_boundary_csv(out / "gt.csv")
        assert len(gt) == 3


def test_class_label_with_comma(corpus, tmp_path):
    corpus2 = tmp_path / "corpus2"
    shutil.copytree(corpus, corpus2)
    doc = json.load(open(corpus2 / "annotations.json"))
    doc[0]["class_label"] = 'tying knot, not on a "tie"'
    (corpus2 / "annotations.json").write_text(json.dumps(doc))
    out = tmp_path / "run"
    run_pipeline(corpus2, out, PipelineConfig(**CFG))
    with open(out / "eval_per_class.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["class", "mean_f1", "n_videos"]
    assert all(len(row) == 3 for row in rows)
    assert 'tying knot, not on a "tie"' in [row[0] for row in rows]
    assert (out / "report" / "class_top.svg").exists()


FLOW_JOB = """
import resource, sys
from gebd.annotations import VideoMeta
from gebd.flow import FlowConfig
from gebd.pipeline import _flow_job
from gebd.windows import WindowSpec
frame_dir, n, table = sys.argv[1], int(sys.argv[2]), sys.argv[3]
_flow_job((VideoMeta("v", "c", n / 10.0, 10.0, n), frame_dir, table,
           WindowSpec(image_side=32), FlowConfig()))
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def test_flow_job_memory_does_not_grow_with_video_length(tmp_path, rng):
    for i in range(600):
        frame = smooth_texture(rng, 32, 32)
        for n in (100, 600):
            if i < n:
                (tmp_path / f"f{n}").mkdir(exist_ok=True)
                write_pnm(tmp_path / f"f{n}" / f"frame_{i:06d}.pgm", frame)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(gebd.__file__))]
        + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    peak_kb = {}
    for n in (100, 600):
        done = subprocess.run(
            [sys.executable, "-c", FLOW_JOB, str(tmp_path / f"f{n}"), str(n),
             str(tmp_path / f"t{n}.gebt")],
            capture_output=True, text=True, env=env, check=True)
        peak_kb[n] = int(done.stdout.split()[-1])
        assert read_tensor_file(tmp_path / f"t{n}.gebt")[0] == [n, 27]
    # the 600-frame table itself is 0.13 MB; a flow tensor would be 4.9 MB
    assert peak_kb[600] - peak_kb[100] < 1024, peak_kb


class TestConsistencySource:
    def test_file_values_used_only_on_request(self, corpus, tmp_path):
        # plant recognizable consistency values in a copy of the corpus
        corpus2 = tmp_path / "corpus2"
        shutil.copytree(corpus, corpus2)
        doc = json.load(open(corpus2 / "annotations.json"))
        for entry in doc:
            for k, ann in enumerate(entry["annotators"]):
                ann["f1_consistency"] = 0.1 * (k + 1)
        (corpus2 / "annotations.json").write_text(json.dumps(doc))

        def consistency_values(out, use_file):
            cfg = PipelineConfig(**CFG, use_file_consistency=use_file)
            pipe = Pipeline(corpus2, out, cfg)
            os.makedirs(out, exist_ok=True)
            pipe.stage_consistency()
            with open(out / "consistency.csv") as fh:
                next(fh)
                return [float(line.strip().split(",")[2]) for line in fh]

        trusted = consistency_values(tmp_path / "a", use_file=True)
        assert trusted == pytest.approx([0.1, 0.2, 0.3, 0.4, 0.5] * 3)
        recomputed = consistency_values(tmp_path / "b", use_file=False)
        assert recomputed != pytest.approx(trusted)
