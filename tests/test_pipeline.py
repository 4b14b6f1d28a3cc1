import builtins
import csv
import dataclasses
import hashlib
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import gebd
from gebd.annotations import load_annotations
from gebd.config import DetectionConfig, FlowConfig, TrainConfig
from gebd.container import read_tensor_file, write_tensor_file
from gebd.evaluation import evaluate_corpus
from gebd import pipeline
from gebd.pipeline import (LAYERS, PipelineConfig, PipelineError, Pipeline,
                           layer_keys, parse_config_text, parse_mode,
                           parse_thresholds, read_boundary_csv, read_scores_csv,
                           run_pipeline, write_boundary_csv, write_scores_csv)
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

    @pytest.mark.parametrize("cls", LAYERS, ids=lambda c: c.__name__)
    def test_layer_defaults_match_config_defaults(self, cls):
        # the pipeline seeds training with 1, the library with 0
        want = dataclasses.replace(cls(), seed=1) if cls is TrainConfig else cls()
        assert PipelineConfig().layer(cls) == want

    def test_thresholds_forms(self):
        assert parse_thresholds("0.05:0.05:0.2") == (0.05, 0.1, 0.15, 0.2)
        assert parse_thresholds("0.1,0.3") == (0.1, 0.3)
        with pytest.raises(ValueError, match="expected lo:step:hi, got '0.05:0.05'"):
            parse_thresholds("0.05:0.05")

    def test_mode_forms(self):
        assert parse_mode("relative") is None
        assert parse_mode("window:0.25") == 0.25
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

    @pytest.mark.parametrize("row, column", [("v,abc,0.5", "t"),
                                             ("v,1.0,nan", "score"),
                                             ("v,1.0,-inf", "score")])
    def test_scores_bad_cell_names_file_and_line(self, tmp_path, row, column):
        path = tmp_path / "scores.csv"
        path.write_text(f"video_id,t,score\nv,0.5,0.25\n{row}\n")
        cell = row.split(",")[("t", "score").index(column) + 1]
        with pytest.raises(ValueError) as e:
            read_scores_csv(path)
        assert str(e.value) == (f"{path}:3: {column} {cell!r} "
                                f"is not a finite number")

    @pytest.mark.parametrize("cell", ["nan", "abc"])
    def test_consistency_bad_cell_names_file_and_line(self, corpus, tmp_path,
                                                      cell):
        run = Pipeline(corpus, tmp_path, PipelineConfig(**CFG))
        path = run.paths.consistency_csv
        with open(path, "w") as fh:
            fh.write(f"video_id,annotator_id,f1_consistency\nv,a,0.5\nv,b,{cell}\n")
        with pytest.raises(ValueError) as e:
            run._load_consistency()
        assert str(e.value) == (f"{path}:3: f1_consistency {cell!r} "
                                f"is not a finite number")

    @pytest.mark.parametrize("cell", ["inf", "abc"])
    def test_candidates_bad_cell_names_file_and_line(self, corpus, tmp_path,
                                                     cell):
        run = Pipeline(corpus, tmp_path, PipelineConfig(**CFG))
        path = run.paths.candidates_csv
        os.makedirs(os.path.dirname(path))
        with open(path, "w") as fh:
            fh.write(f"video_id,t,label\nv,0.125,boundary\nv,{cell},background\n")
        with pytest.raises(ValueError) as e:
            run._candidates()
        assert str(e.value) == (f"{path}:3: t {cell!r} "
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
                assert os.path.exists(os.path.join(out, f))

    def test_manifest_names_the_output_dir_only_as_out_dir(self, finished_run):
        corpus, out, _ = finished_run
        with open(os.path.join(out, "manifest.json")) as fh:
            manifest = json.load(fh)
        assert manifest["out_dir"] == str(out)
        assert manifest["inputs"]["annotations"] == "annotations.json"
        del manifest["out_dir"]
        assert str(out) not in json.dumps(manifest)

    def test_cold_run_keeps_other_directories(self, corpus, tmp_path):
        out = tmp_path / "run"
        for name in ("flow", "windows"):
            (out / name).mkdir(parents=True)
            (out / name / "notes.txt").write_text(name)
        run_pipeline(corpus, out, PipelineConfig(**CFG))
        for name in ("flow", "windows"):
            assert (out / name / "notes.txt").read_text() == name

    def test_cold_run_removes_temp_files_of_killed_writes(self, corpus, tmp_path):
        # atomic_open removes its temp file only when an exception unwinds;
        # a killed writer leaves <output>.tmp.<pid>
        out = tmp_path / "run"
        (out / "features").mkdir(parents=True)
        (out / "report").mkdir()
        vid = video_ids(corpus)[0]
        left = ["manifest.json.tmp.4242", "scores.csv.tmp.7",
                f"features/{vid}.gebt.tmp.4242", "features/candidates.csv.tmp.1",
                f"report/timeline_{vid}.svg.tmp.99", "notes.tmp.txt"]
        for name in left:
            (out / name).write_text("partial")
        run_pipeline(corpus, out, PipelineConfig(**CFG))
        assert sorted(str(p.relative_to(out)) for p in out.rglob("*.tmp.*")) == \
            ["notes.tmp.txt"]

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
        write_tensor_file(table, [2, 2, 27], np.zeros(108))
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


def start_pipeline(corpus, out):
    """``gebd pipeline`` with two flow workers as a process in its own
    session, so one ``killpg`` kills it and its forked workers together."""
    return subprocess.Popen(
        [sys.executable, "-m", "gebd.cli", "pipeline", str(corpus), "--out",
         str(out), "--image-side", "32", "--workers", "2"],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, start_new_session=True)


def flow_running(out):
    """Whether ``out/manifest.json`` lists stage flow without its stamp,
    which the pipeline drops while a stage runs."""
    try:
        with open(out / "manifest.json", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, ValueError):  # not written yet
        return False
    return (any(s["name"] == "flow" for s in manifest["stages"])
            and "flow" not in manifest["stamps"])


def test_killed_anywhere_rerun_matches_clean_run(tmp_path):
    # the corpus of the CI smoke check: two 3 s videos of 32x32 frames
    corpus = tmp_path / "smoke"
    generate_corpus(corpus, n_videos=2, seed=1, duration=3.0, fps=10.0,
                    image_size=32)
    clean = tmp_path / "clean"
    start = time.perf_counter()
    proc = start_pipeline(corpus, clean)
    assert proc.wait() == 0, proc.stderr.read()
    proc.stderr.close()
    elapsed = time.perf_counter() - start
    tables = sorted(p.name for p in (clean / "features").glob("*.gebt"))
    assert len(tables) == 2
    results = ["scores.csv", "predictions.csv", "eval_global.csv",
               "eval_per_video.csv", "eval_per_class.csv"]
    results += [os.path.join("features", name) for name in tables]

    # two kills at seeded points of a clean run's time, then one in stage flow
    delays = list(np.random.default_rng(31).uniform(0.0, 1.0, 2) * elapsed)
    for k, delay in enumerate(delays + [None]):
        out = tmp_path / f"killed{k}"
        proc = start_pipeline(corpus, out)
        try:
            if delay is None:
                while not flow_running(out):
                    assert proc.poll() is None, "the run ended before stage flow"
                    time.sleep(0.002)
            else:
                time.sleep(delay)
        finally:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            proc.stderr.close()
        rerun = start_pipeline(corpus, out)
        _, err = rerun.communicate()
        assert rerun.returncode == 0, err
        for name in results:
            assert (out / name).read_bytes() == (clean / name).read_bytes(), \
                (k, name)
        assert sorted(p.name for p in (out / "features").glob("*.gebt")) == tables
        assert not list(out.rglob("*.tmp.*")), k


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
        stride = PipelineConfig(**CFG).stride  # the one key validate reads
        assert manifest["stamps"]["validate"] == digest(
            [gebd.__version__, "validate", {"stride": stride},
             [annotations, frames]])

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

    @pytest.mark.parametrize("cell", ["nan", "abc"])
    def test_bad_cached_score_fails_detect_naming_file(self, copied_run,
                                                       cell):
        corpus, out = copied_run
        scores = out / "scores.csv"
        lines = scores.read_text().splitlines()
        vid, t, _ = lines[1].split(",")
        lines[1] = f"{vid},{t},{cell}"
        scores.write_text("\n".join(lines) + "\n")
        with pytest.raises(PipelineError) as e:
            run_pipeline(corpus, out, PipelineConfig(**dict(CFG, smooth_sigma=4.0)))
        assert e.value.stage == "detect"
        assert f"{scores}:2: score {cell!r} is not a finite number" in str(e.value)

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
        # validate checks the stride against each duration, and no stage
        # depends on it, so flow stays fresh
        assert ran_stages(manifest) == ["validate"] + STAGE_NAMES[4:]

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

    def test_layer_stages_stamp_their_layer_keys(self):
        keys = {name: set(k) for name, _, k, _, _ in
                Pipeline("", "", PipelineConfig(), sets=[]).stages()}
        assert keys["flow"] >= set(layer_keys(FlowConfig)) | {"image_side"}
        assert keys["train"] >= set(layer_keys(TrainConfig))
        assert keys["detect"] == set(layer_keys(DetectionConfig))

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

    def test_stale_windows_tree_kept(self, copied_run):
        corpus, out = copied_run
        # an output directory from before feature tables: window tensors,
        # which nothing reads or deletes, and a manifest without stamps
        stale = out / "windows" / "v000"
        stale.mkdir(parents=True)
        write_tensor_file(stale / "win_000000_rgb.gebt", [2], np.zeros(2))
        doc = json.load(open(out / "manifest.json"))
        del doc["stamps"]
        (out / "manifest.json").write_text(json.dumps(doc))
        manifest = run_pipeline(corpus, out, PipelineConfig(**CFG))
        assert "sample" in ran_stages(manifest)
        assert (stale / "win_000000_rgb.gebt").exists()

    def test_stale_flow_dirs_kept(self, copied_run):
        corpus, out = copied_run
        # flow written by older versions, which nothing reads or deletes: a
        # tensor per video, or one file per frame pair and a config sidecar
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
        assert (stale / "flow_config.json").exists()

    def test_removed_video_leaves_no_per_video_files(self, copied_run,
                                                     tmp_path):
        corpus, out = copied_run
        smaller = tmp_path / "corpus"
        shutil.copytree(corpus, smaller)
        doc = json.loads((smaller / "annotations.json").read_text())
        gone = doc.pop()["video_id"]
        (smaller / "annotations.json").write_text(json.dumps(doc))
        (out / "features" / "notes.txt").write_text("not a feature table")
        manifest = run_pipeline(smaller, out, PipelineConfig(**CFG))
        assert {"flow", "report"} <= set(ran_stages(manifest))
        kept = video_ids(smaller)
        assert gone not in kept
        assert sorted(p.name for p in (out / "features").glob("*.gebt")) == \
            [f"{vid}.gebt" for vid in kept]
        assert sorted(p.name for p in (out / "report").glob("timeline_*.svg")) == \
            [f"timeline_{vid}.svg" for vid in kept]
        assert (out / "features" / "notes.txt").exists()

    @staticmethod
    def edited_copy(corpus, tmp_path, edit):
        """A copy of ``corpus``, frames and their mtimes kept, whose
        annotation list ``edit`` changed in place."""
        edited = tmp_path / "corpus"
        shutil.copytree(corpus, edited)
        doc = json.loads((edited / "annotations.json").read_text())
        edit(doc)
        (edited / "annotations.json").write_text(json.dumps(doc))
        return edited

    @staticmethod
    def move_boundary(doc):
        doc[0]["annotators"][0]["boundaries"][0]["t"] += 0.1

    @staticmethod
    def relabel(doc):
        doc[0]["class_label"] = "relabelled"

    @pytest.mark.parametrize("edit", ["move_boundary", "relabel"])
    def test_annotation_edit_reruns_no_flow(self, copied_run, tmp_path, edit):
        # a feature table reads no boundary, label, fps or duration
        corpus, out = copied_run
        edited = self.edited_copy(corpus, tmp_path, getattr(self, edit))
        tables = sorted((out / "features").glob("*.gebt"))
        before = [(t.read_bytes(), t.stat().st_mtime_ns) for t in tables]
        manifest = run_pipeline(edited, out, PipelineConfig(**CFG))
        reasons = {s["name"]: s["reason"] for s in manifest["stages"]}
        assert reasons["flow"] == "fresh"
        assert ran_stages(manifest) == [s for s in STAGE_NAMES if s != "flow"]
        assert len(tables) == 3
        assert [(t.read_bytes(), t.stat().st_mtime_ns) for t in tables] == before
        clean = tmp_path / "clean"
        run_pipeline(edited, clean, PipelineConfig(**CFG))
        for name in ("scores.csv", "predictions.csv", "eval_global.csv",
                     "eval_per_video.csv", "eval_per_class.csv", "model.json"):
            assert (out / name).read_bytes() == (clean / name).read_bytes(), name

    def test_fewer_frames_reruns_flow(self, copied_run, tmp_path):
        corpus, out = copied_run

        def drop_last_frame(doc):
            doc[0]["num_frames"] -= 1
        edited = self.edited_copy(corpus, tmp_path, drop_last_frame)
        vid = json.loads((edited / "annotations.json").read_text())[0]["video_id"]
        frames = sorted((edited / "frames" / vid).glob("frame_*"))
        os.remove(frames[-1])
        manifest = run_pipeline(edited, out, PipelineConfig(**CFG))
        reasons = {s["name"]: s["reason"] for s in manifest["stages"]}
        assert reasons["flow"] == "stamp-mismatch"
        assert ran_stages(manifest) == STAGE_NAMES
        dims, _ = read_tensor_file(out / "features" / f"{vid}.gebt")
        assert dims == [len(frames) - 1, 27]

    def test_stage_seconds_ignore_wall_clock_steps(self, copied_run,
                                                   monkeypatch):
        corpus, out = copied_run
        os.remove(out / "model.json")
        clock = iter(range(10 ** 9, 0, -1000))  # each reading 1000 s earlier
        monkeypatch.setattr(time, "time", lambda: float(next(clock)))
        manifest = run_pipeline(corpus, out, PipelineConfig(**CFG))
        monkeypatch.undo()
        assert ran_stages(manifest) == STAGE_NAMES[STAGE_NAMES.index("train"):]
        assert all(s["seconds"] >= 0 for s in manifest["stages"])

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
            write_tensor_file(table, rows.shape, rows)
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

    def test_pool_starts_no_more_workers_than_items(self, monkeypatch):
        # under fork a pool starts all its workers at the first submit, so
        # its size is the number of processes forked
        import concurrent.futures
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        assert pipeline._map_videos(abs, [-1, -2], 4) == [1, 2]
        assert pipeline._map_videos(abs, [-1, -2, -3], 2) == [1, 2, 3]
        assert sizes == [2, 2]


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
