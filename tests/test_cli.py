import argparse
import csv
import json
import os
import resource
import shutil
import signal
import subprocess
import sys

import numpy as np
import pytest

import gebd
from gebd import cli
from gebd.annotations import (attach_consistency, load_annotations,
                              normalize_track, select_gt_highest)
from gebd.cli import build_parser, main
from gebd.evaluation import evaluate_corpus
from gebd.config import FlowConfig, WindowSpec
from gebd.pipeline import (Pipeline, PipelineConfig, _flow_job,
                           read_boundary_csv, write_boundary_csv)
from gebd.synth import generate_corpus


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    values = {}
    for line in captured.out.splitlines():
        if "=" in line:
            key, value = line.split("=", 1)
            values[key] = value
    return code, values, captured.err


def printed_row(out, values):
    """The ``eval_global.csv`` row that ``values`` printed, as CSV cells."""
    with open(out / "eval_global.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    row = [values[k] for k in rows[0]]
    assert row in rows[1:]
    return dict(zip(rows[0], row))


EVAL_CSVS = ("eval_global.csv", "eval_per_video.csv", "eval_per_class.csv")


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    generate_corpus(root, n_videos=3, seed=4, duration=6.0, fps=10.0,
                    image_size=48)
    return root


@pytest.fixture(scope="module")
def gt(corpus):
    sets = load_annotations(os.path.join(corpus, "annotations.json"))
    out = {}
    for aset in sets:
        attach_consistency(aset, 0.05)
        out[aset.meta.video_id] = select_gt_highest(aset)
    return out


class TestSynthValidate:
    def test_synth_then_validate(self, tmp_path, capsys):
        out = tmp_path / "c"
        code, values, _ = run_cli(capsys, "synth", "--out", str(out),
                                  "--n-videos", "2", "--seed", "9",
                                  "--duration", "5", "--image-size", "40")
        assert code == 0
        assert values["videos"] == "2"
        code, values, _ = run_cli(capsys, "validate",
                                  str(out / "annotations.json"))
        assert code == 0
        assert values["ok"] == "1"
        assert values["videos"] == "2"

    @pytest.mark.parametrize("flags, argument", [
        (["--fps", "0"], "fps"),
        (["--fps", "-5"], "fps"),
        (["--fps", "inf"], "fps"),
        (["--fps", "0.01"], "fps"),  # no frame in 10 s
        (["--n-videos", "0"], "n_videos"),
        (["--duration", "1.5"], "duration"),
        (["--duration", "2"], "duration"),
        (["--duration", "nan"], "duration"),
        (["--image-size", "16"], "image_size"),
        (["--image-size", "17"], "image_size")])
    def test_bad_synth_argument_writes_nothing(self, tmp_path, capsys, flags,
                                               argument):
        out = tmp_path / "c"
        code, values, err = run_cli(capsys, "synth", "--out", str(out), *flags)
        assert code == 1 and values == {}
        assert err.startswith(f"error: cannot write corpus: {argument} ")
        assert not out.exists()

    def test_shorter_synth_into_a_corpus_validates(self, tmp_path, capsys):
        out = tmp_path / "c"
        notes = out / "frames" / "synth_0000" / "notes.txt"
        for videos, duration in (("2", "10"), ("1", "5")):
            if notes.parent.exists():
                notes.write_text("kept")
            code, _, _ = run_cli(capsys, "synth", "--out", str(out),
                                 "--n-videos", videos, "--seed", "1",
                                 "--duration", duration, "--image-size", "32")
            assert code == 0
        code, values, err = run_cli(capsys, "validate",
                                    str(out / "annotations.json"))
        assert code == 0 and values["ok"] == "1", err
        # only frame files go; the video no longer made keeps its frames
        assert notes.read_text() == "kept"
        assert len(os.listdir(out / "frames" / "synth_0001")) == 100

    def test_smallest_synth_arguments_validate(self, tmp_path, capsys):
        out = tmp_path / "c"
        code, _, _ = run_cli(capsys, "synth", "--out", str(out), "--n-videos",
                             "1", "--duration", "2.1", "--fps", "1",
                             "--image-size", "18")
        assert code == 0
        code, values, _ = run_cli(capsys, "validate", str(out / "annotations.json"))
        assert code == 0 and values["ok"] == "1"

    def test_validate_rejects_malformed(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("[ nope")
        code, _, err = run_cli(capsys, "validate", str(bad))
        assert code == 1
        assert "error" in err

    def test_validate_rejects_bad_schema(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([{"video_id": "v", "class_label": "c",
                                    "duration": -3, "fps": 10,
                                    "num_frames": 10, "annotators": []}]))
        code, _, err = run_cli(capsys, "validate", str(bad))
        assert code == 1
        assert "duration" in err

    @pytest.mark.parametrize("path, value, message", [
        ((), {"fps": float("nan")}, "v: fps must be a finite number, got nan"),
        ((), {"fps": float("inf")}, "v: fps must be a finite number, got inf"),
        # a NaN duration would never end stage sample's candidate grid
        ((), {"duration": float("nan"), "annotators": [{"annotator_id": "a0"}]},
         "v: duration must be a finite number, got nan"),
        ((), {"duration": "abc"}, "v: duration must be a finite number, got 'abc'"),
        ((), {"num_frames": 100.5}, "v: num_frames must be an integer, got 100.5"),
        ((), {"annotators": 5}, "v: annotators must be a list"),
        ((), {"annotators": [5]}, "v: annotator entries must be objects"),
        (("annotators", 0), {"boundaries": None}, "v/a0: boundaries must be a list"),
        (("annotators", 0), {"f1_consistency": "x"},
         "v/a0: f1_consistency must be a finite number, got 'x'"),
        (("annotators", 0, "boundaries", 0), {"t": None},
         "v/a0: t must be a finite number, got None"),
        (("annotators", 0), {"boundaries": [{"start": 1.0, "end": True}]},
         "v/a0: end must be a finite number, got True"),
        # str() would make these the class "None" and the annotator "7"
        ((), {"class_label": None}, "v: class_label must be a string, got None"),
        ((), {"class_label": ["x"]},
         "v: class_label must be a string, got ['x']"),
        (("annotators", 0), {"annotator_id": 7},
         "v: annotator_id must be a string, got 7"),
        (("annotators", 0), {"annotator_id": None},
         "v: annotator_id must be a string, got None")],
        ids=["fps-nan", "fps-inf", "duration-nan", "duration-text",
             "num_frames-fraction", "annotators-number", "annotator-number",
             "boundaries-null", "consistency-text", "t-null", "end-bool",
             "class-null", "class-list", "annotator-number-id",
             "annotator-null-id"])
    def test_validate_names_wrong_typed_value(self, tmp_path, capsys, path,
                                              value, message):
        doc = {"video_id": "v", "class_label": "c", "duration": 10.0,
               "fps": 10.0, "num_frames": 100,
               "annotators": [{"annotator_id": "a0",
                               "boundaries": [{"t": 1.0}]}]}
        target = doc
        for key in path:
            target = target[key]
        target.update(value)
        bad = tmp_path / "annotations.json"
        bad.write_text(json.dumps([doc]))
        code, values, err = run_cli(capsys, "validate", str(bad))
        assert code == 1 and values == {}
        assert err == f"error: {message}\n"

    def test_validate_refuses_no_videos(self, tmp_path, capsys):
        empty = tmp_path / "annotations.json"
        empty.write_text("[]")
        code, values, err = run_cli(capsys, "validate", str(empty))
        assert code == 1 and values == {}
        assert err == f"error: {empty}: no videos\n"

    def test_duplicate_frame_hiding_a_gap(self, corpus, tmp_path, capsys):
        corpus2 = tmp_path / "corpus"
        shutil.copytree(corpus, corpus2)
        vid = sorted(os.listdir(corpus2 / "frames"))[0]
        frames = corpus2 / "frames" / vid
        shutil.copy(frames / "frame_000003.pgm", frames / "frame_000003.ppm")
        os.remove(frames / "frame_000004.pgm")
        code, values, err = run_cli(capsys, "validate",
                                    str(corpus2 / "annotations.json"))
        assert code == 1 and "ok" not in values
        assert f"{vid}: missing frame index 4 " in err
        run = tmp_path / "run"
        code, _, err = run_cli(capsys, "pipeline", str(corpus2), "--out",
                               str(run), "--image-side", "32")
        assert code == 1
        assert f"stage 'validate' failed: {vid}: missing frame index 4 " in err
        assert not (run / "features").exists()

    @pytest.mark.parametrize("damage, problem", [
        ("truncate", "truncated pixel data: 1987 of 2304 bytes"),
        ("odd_size", "width x height 40x48 differs from frame 0's 48x48"),
        ("maxval", "only maxval 255 supported, got 65535"),
        ("magic", "unsupported PNM magic b'P2'"),
        ("zero_width", "width 0 is below 1"),
    ])
    def test_malformed_frame_named(self, corpus, tmp_path, capsys, damage,
                                   problem):
        corpus2 = tmp_path / "corpus"
        shutil.copytree(corpus, corpus2)
        vid = sorted(os.listdir(corpus2 / "frames"))[1]
        frame = corpus2 / "frames" / vid / "frame_000005.pgm"
        blob = frame.read_bytes()
        assert blob.startswith(b"P5\n48 48\n255\n")
        if damage == "truncate":
            blob = blob[:2000]
        elif damage == "odd_size":
            blob = b"P5\n40 48\n255\n" + blob[13:13 + 40 * 48]
        elif damage == "maxval":
            blob = b"P5\n48 48\n65535\n" + blob[13:] * 2
        elif damage == "zero_width":
            blob = b"P5\n0 48\n255\n"
        else:
            blob = b"P2" + blob[2:]
        frame.write_bytes(blob)
        code, values, err = run_cli(capsys, "validate",
                                    str(corpus2 / "annotations.json"))
        assert code == 1 and "ok" not in values
        assert err == f"error: {vid}: frame 5 (frame_000005.pgm): {problem}\n"
        run = tmp_path / "run"
        code, _, err = run_cli(capsys, "pipeline", str(corpus2), "--out",
                               str(run), "--image-side", "32")
        assert code == 1
        assert (f"stage 'validate' failed: {vid}: frame 5 (frame_000005.pgm): "
                f"{problem}") in err
        assert not (run / "features").exists()

    def test_repeated_video_id_refused(self, corpus, tmp_path, capsys):
        # the first video listed again, with another class and boundaries
        corpus2 = tmp_path / "corpus"
        shutil.copytree(corpus, corpus2)
        doc = json.load(open(corpus2 / "annotations.json"))
        doc.append(dict(doc[0], class_label="other", annotators=[
            {"annotator_id": "b0", "boundaries": [{"t": 1.0}]}]))
        (corpus2 / "annotations.json").write_text(json.dumps(doc))
        vid = doc[0]["video_id"]
        code, values, err = run_cli(capsys, "validate",
                                    str(corpus2 / "annotations.json"))
        assert code == 1 and "ok" not in values
        assert err == f"error: duplicate video_id {vid!r}\n"
        empty = tmp_path / "empty.csv"
        empty.write_text("video_id,timestamp\n")
        code, _, err = run_cli(capsys, "eval", "--predictions", str(empty),
                               "--annotations", str(corpus2 / "annotations.json"),
                               "--out", str(tmp_path / "eval"))
        assert code == 1 and "duplicate video_id" in err
        assert not (tmp_path / "eval").exists()
        code, _, err = run_cli(capsys, "pipeline", str(corpus2), "--out",
                               str(tmp_path / "run"), "--image-side", "32")
        assert code == 1 and "duplicate video_id" in err
        assert not (tmp_path / "run").exists()

    def test_pgm_and_ppm_frames_may_mix(self, corpus, tmp_path, capsys):
        corpus2 = tmp_path / "corpus"
        shutil.copytree(corpus, corpus2)
        frames = corpus2 / "frames" / sorted(os.listdir(corpus2 / "frames"))[0]
        gray = (frames / "frame_000002.pgm").read_bytes()[13:]
        (frames / "frame_000002.ppm").write_bytes(
            b"P6\n48 48\n255\n" + bytes(v for v in gray for _ in range(3)))
        os.remove(frames / "frame_000002.pgm")
        code, values, _ = run_cli(capsys, "validate",
                                  str(corpus2 / "annotations.json"))
        assert code == 0 and values["ok"] == "1"

    def test_unchecked_frames_named(self, corpus, tmp_path, capsys):
        code, full, err = run_cli(capsys, "validate",
                                  str(corpus / "annotations.json"))
        assert code == 0 and full["ok"] == "1" and err == ""
        lone = tmp_path / "lone"
        lone.mkdir()
        shutil.copy(corpus / "annotations.json", lone)
        code, values, err = run_cli(capsys, "validate",
                                    str(lone / "annotations.json"))
        assert code == 0 and values == full
        assert err == (f"warning: frames not checked: no --frames given and "
                       f"no directory {lone / 'frames'}\n")


def single_annotator(corpus, tmp_path):
    """A copy of the corpus's first video, keeping only its first annotator;
    returns the copy's root and that track's normalized timestamps."""
    root = tmp_path / "single"
    doc = json.load(open(corpus / "annotations.json"))[:1]
    doc[0]["annotators"] = doc[0]["annotators"][:1]
    vid = doc[0]["video_id"]
    shutil.copytree(corpus / "frames" / vid, root / "frames" / vid)
    (root / "annotations.json").write_text(json.dumps(doc))
    aset = load_annotations(root / "annotations.json")[0]
    return root, normalize_track(aset.tracks[0], aset.meta)


class TestEval:
    def test_perfect_predictions(self, corpus, gt, tmp_path, capsys):
        pred_csv = tmp_path / "pred.csv"
        write_boundary_csv(pred_csv, gt)
        # a primary threshold off the sweep grid gets a row of its own
        for flags, threshold in (([], "0.05"),
                                 (["--threshold", "0.1234567"], "0.123457")):
            out = tmp_path / f"eval{len(flags)}"
            code, values, _ = run_cli(
                capsys, "eval", "--predictions", str(pred_csv),
                "--annotations", str(corpus / "annotations.json"),
                "--out", str(out), *flags)
            assert code == 0
            assert printed_row(out, values) == {
                "threshold": threshold, "precision": "1.000000",
                "recall": "1.000000", "f1": "1.000000"}
            assert sorted(os.listdir(out)) == sorted(EVAL_CSVS)

    def test_empty_predictions(self, corpus, tmp_path, capsys):
        pred_csv = tmp_path / "pred.csv"
        pred_csv.write_text("video_id,timestamp\n")
        out = tmp_path / "eval"
        code, values, _ = run_cli(
            capsys, "eval", "--predictions", str(pred_csv),
            "--annotations", str(corpus / "annotations.json"),
            "--out", str(out))
        assert code == 0
        assert printed_row(out, values)["f1"] == "0.000000"

    def test_no_videos_exits_1(self, tmp_path, capsys):
        empty = tmp_path / "annotations.json"
        empty.write_text("[]")
        pred_csv = tmp_path / "pred.csv"
        pred_csv.write_text("video_id,timestamp\n")
        out = tmp_path / "eval"
        code, values, err = run_cli(
            capsys, "eval", "--predictions", str(pred_csv),
            "--annotations", str(empty), "--out", str(out))
        assert code == 1 and values == {}
        assert err == f"error: {empty}: no videos\n"
        assert not out.exists()

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "abc"])
    def test_bad_prediction_timestamp_exits_1(self, corpus, gt, tmp_path,
                                              capsys, cell):
        vid = sorted(gt)[0]
        pred_csv = tmp_path / "pred.csv"
        pred_csv.write_text(f"video_id,timestamp\n{vid},1.0\n{vid},{cell}\n")
        out = tmp_path / "eval"
        code, values, err = run_cli(
            capsys, "eval", "--predictions", str(pred_csv),
            "--annotations", str(corpus / "annotations.json"),
            "--out", str(out))
        assert code == 1 and values == {}
        assert err == (f"error: {pred_csv}:3: timestamp {cell!r} "
                       f"is not a finite number\n")
        assert not out.exists()

    def test_unknown_video_exits_2(self, corpus, tmp_path, capsys):
        pred_csv = tmp_path / "pred.csv"
        write_boundary_csv(pred_csv, {"ghost_video": [1.0]})
        code, _, err = run_cli(
            capsys, "eval", "--predictions", str(pred_csv),
            "--annotations", str(corpus / "annotations.json"),
            "--out", str(tmp_path / "eval"))
        assert code == 2
        assert "ghost_video" in err

    def test_csvs_match_direct_api(self, corpus, gt, tmp_path, capsys):
        rng = np.random.default_rng(0)
        preds = {vid: sorted(set(round(t + rng.uniform(-0.4, 0.4), 3)
                                 for t in stamps))
                 for vid, stamps in gt.items()}
        pred_csv = tmp_path / "pred.csv"
        write_boundary_csv(pred_csv, preds)
        out = tmp_path / "eval"
        code, values, _ = run_cli(
            capsys, "eval", "--predictions", str(pred_csv),
            "--annotations", str(corpus / "annotations.json"),
            "--out", str(out))
        assert code == 0
        sets = load_annotations(corpus / "annotations.json")
        durations = {a.meta.video_id: a.meta.duration for a in sets}
        report = evaluate_corpus(preds, gt, durations,
                                 thresholds=[round(0.05 * k, 2)
                                             for k in range(1, 11)])
        with open(out / "eval_global.csv") as fh:
            next(fh)
            for line, prf in zip(fh, report.global_prf):
                _, p, r, f1 = line.strip().split(",")
                assert float(f1) == pytest.approx(prf.f1, abs=1e-6)
        assert float(printed_row(out, values)["f1"]) == \
            pytest.approx(report.global_prf[0].f1, abs=1e-6)

    def test_window_mode(self, corpus, gt, tmp_path, capsys):
        pred_csv = tmp_path / "pred.csv"
        write_boundary_csv(pred_csv, gt)
        out = tmp_path / "eval"
        code, values, _ = run_cli(
            capsys, "eval", "--predictions", str(pred_csv),
            "--annotations", str(corpus / "annotations.json"),
            "--mode", "window:0.25", "--out", str(out))
        assert code == 0
        row = printed_row(out, values)
        assert row["f1"] == "1.000000" and row["threshold"] == "0.25"

    def test_weighted_gt_policy(self, corpus, gt, tmp_path, capsys):
        pred_csv = tmp_path / "pred.csv"
        write_boundary_csv(pred_csv, gt)
        code, values, _ = run_cli(
            capsys, "eval", "--predictions", str(pred_csv),
            "--annotations", str(corpus / "annotations.json"),
            "--gt-policy", "weighted:5", "--out", str(tmp_path / "eval"))
        assert code == 0
        assert 0.0 <= float(values["f1"]) <= 1.0
        # one policy parser: eval and the pipeline reject a policy alike,
        # before writing anything
        message = "key 'gt_policy': unknown gt policy 'bogus'"
        code, _, err = run_cli(
            capsys, "eval", "--predictions", str(pred_csv),
            "--annotations", str(corpus / "annotations.json"),
            "--gt-policy", "bogus", "--out", str(tmp_path / "eval2"))
        assert code == 1 and message in err
        code, _, err = run_cli(capsys, "pipeline", str(corpus), "--gt-policy",
                               "bogus", "--out", str(tmp_path / "run"))
        assert code == 1 and message in err
        assert not (tmp_path / "eval2").exists()
        assert not (tmp_path / "run").exists()

    def test_threshold_out_of_range_names_key(self, corpus, gt, tmp_path,
                                              capsys):
        pred_csv = tmp_path / "pred.csv"
        write_boundary_csv(pred_csv, gt)
        out = tmp_path / "eval"
        code, values, err = run_cli(
            capsys, "eval", "--predictions", str(pred_csv),
            "--annotations", str(corpus / "annotations.json"),
            "--threshold", "1.5", "--out", str(out))
        assert code == 1 and values == {}
        assert "key 'threshold': " in err
        assert not out.exists()

    def test_single_annotator(self, corpus, tmp_path, capsys):
        # a lone annotator scores consistency 1 and is the ground truth
        root, track = single_annotator(corpus, tmp_path)
        assert len(track) >= 2
        aset = load_annotations(root / "annotations.json")[0]
        vid = aset.meta.video_id
        pred_csv = tmp_path / "pred.csv"
        write_boundary_csv(pred_csv, {vid: track[:1]})
        out = tmp_path / "eval"
        code, values, err = run_cli(
            capsys, "eval", "--predictions", str(pred_csv),
            "--annotations", str(root / "annotations.json"), "--out", str(out))
        assert code == 0, err
        f1 = evaluate_corpus({vid: track[:1]}, {vid: track},
                             {vid: aset.meta.duration},
                             thresholds=[0.05]).global_prf[0].f1
        assert 0 < f1 < 1
        assert printed_row(out, values)["f1"] == f"{f1:.6f}"

    def test_flags_are_its_stages_keys(self, corpus, tmp_path):
        # select-gt reads seed only under a bare "weighted" policy
        config = PipelineConfig(gt_policy="weighted")
        keys = {key for name, _, keys, _, _ in
                Pipeline(corpus, tmp_path, config).stages()
                if name in ("consistency", "select-gt", "eval") for key in keys}
        assert "seed" in keys
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)).choices["eval"]
        flags = {s for a in sub._actions for s in a.option_strings}
        assert flags - {"-h", "--help"} == \
            {"--predictions", "--annotations", "--out"} | \
            {"--" + key.replace("_", "-") for key in keys}

    @pytest.mark.parametrize("name", cli.eval_keys())
    def test_every_eval_key_is_a_flag(self, corpus, tmp_path, capsys,
                                      monkeypatch, name):
        flag, value = CONFIG_FLAGS[name]
        seen = []

        def record(sets, config):
            seen.append(config)
            raise OSError("stop before scoring")
        monkeypatch.setattr(cli, "attach_stage_consistency", record)
        pred_csv = tmp_path / "pred.csv"
        pred_csv.write_text("video_id,timestamp\n")
        code, _, err = run_cli(
            capsys, "eval", "--predictions", str(pred_csv),
            "--annotations", str(corpus / "annotations.json"),
            "--out", str(tmp_path / "eval"), *flag)
        assert code == 1 and "stop before scoring" in err
        got = getattr(seen[0], name)
        assert got == value and type(got) is type(value)
        assert got != getattr(PipelineConfig(), name)

    @pytest.mark.parametrize("flags", [[], ["--use-file-consistency"]])
    def test_reproduces_pipeline_eval(self, corpus, tmp_path, capsys, flags):
        # consistency values in the file that recomputing would not give
        corpus2 = tmp_path / "corpus"
        shutil.copytree(corpus, corpus2)
        doc = json.load(open(corpus2 / "annotations.json"))
        for entry in doc:
            for k, ann in enumerate(entry["annotators"]):
                ann["f1_consistency"] = 0.1 * (k + 1)
        (corpus2 / "annotations.json").write_text(json.dumps(doc))
        run, out = tmp_path / "run", tmp_path / "eval"
        code, values, err = run_cli(capsys, "pipeline", str(corpus2), "--out",
                                    str(run), "--image-side", "32", "--m", "3",
                                    *flags)
        assert code == 0, err
        code, evaluated, err = run_cli(
            capsys, "eval", "--predictions", str(run / "predictions.csv"),
            "--annotations", str(corpus2 / "annotations.json"),
            "--out", str(out), *flags)
        assert code == 0, err
        for name in EVAL_CSVS:
            assert (out / name).read_bytes() == (run / name).read_bytes(), name
        assert printed_row(out, evaluated) == printed_row(run, values)


# a flag and the typed, non-default value it sets, for every config key
CONFIG_FLAGS = {
    "seed": (["--seed", "7"], 7),
    "workers": (["--workers", "2"], 2),
    "consistency_threshold": (["--consistency-threshold", "0.1"], 0.1),
    "use_file_consistency": (["--use-file-consistency"], True),
    "gt_policy": (["--gt-policy", "weighted:3"], "weighted:3"),
    "m": (["--m", "3"], 3),
    "stride": (["--stride", "0.5"], 0.5),
    "image_side": (["--image-side", "48"], 48),
    "label_tolerance": (["--label-tolerance", "0.25"], 0.25),
    "bg_ratio": (["--bg-ratio", "2"], 2.0),
    "pyramid_levels": (["--pyramid-levels", "2"], 2),
    "pyramid_scale": (["--pyramid-scale", "0.6"], 0.6),
    "iterations": (["--iterations", "2"], 2),
    "poly_window": (["--poly-window", "7"], 7),
    "poly_sigma": (["--poly-sigma", "1.5"], 1.5),
    "averaging_window": (["--averaging-window", "9"], 9),
    "lr": (["--lr", "0.001"], 0.001),
    "decay_factor": (["--decay-factor", "0.5"], 0.5),
    "decay_every": (["--decay-every", "5"], 5),
    "epochs": (["--epochs", "4"], 4),
    "batch_size": (["--batch-size", "8"], 8),
    "smooth_sigma": (["--smooth-sigma", "2"], 2.0),
    "score_threshold": (["--score-threshold", "0.4"], 0.4),
    "min_separation": (["--min-separation", "1"], 1.0),
    "threshold": (["--threshold", "0.1"], 0.1),
    "thresholds": (["--thresholds", "0.1,0.2"], (0.1, 0.2)),
    "mode": (["--mode", "window:0.5"], "window:0.5"),
    "match_policy": (["--match-policy", "greedy_nearest"], "greedy_nearest"),
}


class TestPipelineCommand:
    def test_end_to_end_with_config_file(self, corpus, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=11\nimage_side=32\nm=3\nworkers=1\n")
        out = tmp_path / "run"
        # a primary threshold off the sweep grid gets a row of its own
        code, values, _ = run_cli(capsys, "pipeline", str(corpus),
                                  "--config", str(cfg), "--out", str(out),
                                  "--threshold", "0.1234567")
        assert code == 0
        assert 0.0 <= float(values["f1"]) <= 1.0
        assert os.path.exists(values["manifest"])
        manifest = json.load(open(values["manifest"]))
        assert manifest["config"]["image_side"] == 32
        assert [s["name"] for s in manifest["stages"]][-1] == "report"
        rows = list(csv.reader(open(out / "eval_global.csv")))
        assert [values[k] for k in rows[0]] in rows[1:]
        assert values["threshold"] == "0.123457"
        # window mode writes the one row, headed by the window
        code, values, _ = run_cli(capsys, "pipeline", str(corpus),
                                  "--config", str(cfg), "--out", str(out),
                                  "--mode", "window:0.5")
        assert code == 0
        rows = list(csv.reader(open(out / "eval_global.csv")))
        assert len(rows) == 2 and [values[k] for k in rows[0]] == rows[1]
        assert values["threshold"] == "0.5"

    def test_ids_with_commas(self, corpus, tmp_path, capsys):
        corpus2 = tmp_path / "corpus"
        shutil.copytree(corpus, corpus2)
        doc = json.load(open(corpus2 / "annotations.json"))
        os.rename(corpus2 / "frames" / doc[0]["video_id"],
                  corpus2 / "frames" / "clip,01")
        doc[0]["video_id"] = "clip,01"
        doc[0]["annotators"][0]["annotator_id"] = "a,0"
        (corpus2 / "annotations.json").write_text(json.dumps(doc))
        out = tmp_path / "run"
        code, values, err = run_cli(capsys, "pipeline", str(corpus2), "--out",
                                    str(out), "--image-side", "32", "--m", "3")
        assert code == 0, err
        assert '"clip,01",' in (out / "gt.csv").read_text()
        assert '"clip,01","a,0",' in (out / "consistency.csv").read_text()
        code, evaluated, err = run_cli(
            capsys, "eval", "--predictions", str(out / "predictions.csv"),
            "--annotations", str(corpus2 / "annotations.json"),
            "--out", str(tmp_path / "eval"))
        assert code == 0, err
        assert evaluated["f1"] == values["f1"]
        with open(tmp_path / "eval" / "eval_per_video.csv", newline="") as fh:
            assert "clip,01" in [row[0] for row in csv.reader(fh)]

    def test_single_annotator(self, corpus, tmp_path, capsys):
        root, track = single_annotator(corpus, tmp_path)
        run = tmp_path / "run"
        code, _, err = run_cli(capsys, "pipeline", str(root), "--out", str(run),
                               "--image-side", "32", "--m", "3")
        assert code == 0, err
        with open(run / "consistency.csv", newline="") as fh:
            assert [row[2] for row in list(csv.reader(fh))[1:]] == ["1.0"]
        gt = read_boundary_csv(run / "gt.csv")
        assert list(gt.values()) == [track]

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_flow_error_names_the_video(self, corpus, tmp_path, capsys,
                                        workers):
        # 4x4 frames pass validate, but are too small for the flow pyramid
        corpus2 = tmp_path / "corpus"
        shutil.copytree(corpus, corpus2)
        vid = sorted(os.listdir(corpus2 / "frames"))[1]
        for frame in (corpus2 / "frames" / vid).iterdir():
            frame.write_bytes(b"P5\n4 4\n255\n" + bytes(16))
        code, _, err = run_cli(capsys, "validate",
                               str(corpus2 / "annotations.json"))
        assert code == 0, err
        code, _, err = run_cli(capsys, "pipeline", str(corpus2), "--out",
                               str(tmp_path / "run"), "--image-side", "32",
                               "--workers", workers)
        assert code == 1
        assert f"stage 'flow' failed: {vid}: " in err
        assert err.count(vid) == 1

    def test_flow_error_that_names_the_video_is_kept(self, corpus, tmp_path):
        meta = load_annotations(corpus / "annotations.json")[0].meta
        frames = tmp_path / "frames"
        shutil.copytree(corpus / "frames" / meta.video_id, frames)
        os.remove(frames / "frame_000002.pgm")
        job = (meta, str(frames), str(tmp_path / "t.gebt"),
               PipelineConfig().layer(WindowSpec), FlowConfig())
        with pytest.raises(ValueError) as info:
            _flow_job(job)
        assert str(info.value).startswith(
            f"{meta.video_id}: missing frame index 2 ")
        assert str(info.value).count(meta.video_id) == 1

    @staticmethod
    def shorter_than_stride(corpus, tmp_path):
        """A copy of ``corpus`` whose second video is cut to 2 frames and
        0.2 s, too short for the 0.25 s candidate grid; returns the copy and
        that video's id."""
        corpus2 = tmp_path / "corpus"
        shutil.copytree(corpus, corpus2)
        doc = json.load(open(corpus2 / "annotations.json"))
        entry = doc[1]
        vid = entry["video_id"]
        entry.update(duration=0.2, num_frames=2)
        for ann in entry["annotators"]:
            ann["boundaries"] = [{"t": 0.1}]
        (corpus2 / "annotations.json").write_text(json.dumps(doc))
        for frame in (corpus2 / "frames" / vid).iterdir():
            if frame.name not in ("frame_000000.pgm", "frame_000001.pgm"):
                frame.unlink()
        return corpus2, vid

    def test_validate_warns_of_video_shorter_than_default_stride(
            self, corpus, tmp_path, capsys):
        corpus2, vid = self.shorter_than_stride(corpus, tmp_path)
        code = main(["validate", str(corpus2 / "annotations.json")])
        out, err = capsys.readouterr()
        assert code == 0, err
        assert all("=" in line for line in out.splitlines())
        assert "ok=1" in out.splitlines()
        warnings = [line for line in err.splitlines() if line.startswith("warning:")]
        assert warnings == [
            f"warning: {vid}: stride 0.25 must be smaller than duration 0.2: "
            f"gebd pipeline refuses it at the default --stride"]

    def test_video_shorter_than_stride_fails_in_validate(self, corpus,
                                                         tmp_path, capsys):
        corpus2, vid = self.shorter_than_stride(corpus, tmp_path)
        code, _, err = run_cli(capsys, "validate",
                               str(corpus2 / "annotations.json"))
        assert code == 0, err
        run = tmp_path / "run"
        code, _, err = run_cli(capsys, "pipeline", str(corpus2), "--out",
                               str(run), "--image-side", "32")
        assert code == 1
        assert (f"stage 'validate' failed: {vid}: stride 0.25 must be "
                f"smaller than duration 0.2") in err
        stages = json.load(open(run / "manifest.json"))["stages"]
        assert [s["name"] for s in stages] == ["validate"]
        assert not (run / "features").exists()

    def test_path_like_video_id_writes_nothing(self, corpus, tmp_path, capsys):
        corpus2 = tmp_path / "corpus"
        shutil.copytree(corpus, corpus2)
        doc = json.load(open(corpus2 / "annotations.json"))
        os.rename(corpus2 / "frames" / doc[0]["video_id"], corpus2 / "escape")
        doc[0]["video_id"] = "../escape"
        (corpus2 / "annotations.json").write_text(json.dumps(doc))
        before = sorted(str(p) for p in tmp_path.rglob("*"))
        code, _, err = run_cli(capsys, "pipeline", str(corpus2),
                               "--image-side", "32")
        assert code == 1 and "video_id '../escape'" in err
        assert sorted(str(p) for p in tmp_path.rglob("*")) == before

    def test_bad_config_value_exits_1(self, corpus, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=11\nuse_file_consistency=ture\n")
        out = tmp_path / "run"
        code, _, err = run_cli(capsys, "pipeline", str(corpus),
                               "--config", str(cfg), "--out", str(out))
        assert code == 1
        assert "config line 2: key 'use_file_consistency'" in err
        assert not out.exists()
        code, _, err = run_cli(capsys, "pipeline", str(corpus),
                               "--thresholds", "0.1:0:0.5", "--out", str(out))
        assert code == 1 and "step must be positive" in err

    @pytest.mark.parametrize("flags, key", [
        (["--thresholds", "0.3,0.1"], "thresholds"),
        (["--mode", "bogus"], "mode"),
        (["--mode", "window:0"], "mode"),
        (["--poly-window", "4"], "poly_window"),
        (["--iterations", "0"], "iterations"),
        (["--stride", "0"], "stride"),
        (["--image-side", "16"], "image_side"),
        (["--lr", "0"], "lr"),
        (["--epochs", "0"], "epochs"),
        (["--smooth-sigma", "-1"], "smooth_sigma"),
        (["--config", "match_policy=bogus"], "match_policy"),
        (["--gt-policy", "bogus"], "gt_policy"),
        # each of these used to pass the config and fail in a later stage,
        # or not at all
        (["--threshold", "1.5"], "threshold"),
        (["--thresholds", "0.05,2.0"], "thresholds"),
        (["--thresholds", "0.05,nan"], "thresholds"),
        (["--consistency-threshold", "1"], "consistency_threshold"),
        (["--consistency-threshold", "nan"], "consistency_threshold"),
        (["--bg-ratio", "-1"], "bg_ratio"),
        (["--bg-ratio", "inf"], "bg_ratio"),
        (["--smooth-sigma", "inf"], "smooth_sigma"),
        (["--lr", "nan"], "lr"),
        (["--smooth-sigma", "nan"], "smooth_sigma"),
        (["--label-tolerance", "nan"], "label_tolerance"),
        (["--score-threshold", "nan"], "score_threshold"),
        # an infinite threshold bound never ended the range loop
        (["--thresholds", "0.05:0.05:inf"], "thresholds"),
        (["--thresholds=-inf:0.05:0.5"], "thresholds"),
        (["--mode", "window:inf"], "mode"),
        # a negative seed failed in stage train, after flow; workers < 1 ran
        (["--seed", "-1"], "seed"),
        (["--workers", "0"], "workers"),
        (["--workers", "-3"], "workers")])
    def test_bad_value_fails_before_any_stage(self, corpus, tmp_path, capsys,
                                              flags, key):
        if flags[0] == "--config":
            (tmp_path / "run.cfg").write_text(flags[1] + "\n")
            flags = ["--config", str(tmp_path / "run.cfg")]
        out = tmp_path / "run"
        code, _, err = run_cli(capsys, "pipeline", str(corpus), "--out",
                               str(out), *flags)
        assert code == 1 and f"key '{key}': " in err
        assert not out.exists()

    @pytest.mark.parametrize("name", PipelineConfig.__dataclass_fields__)
    def test_every_config_key_is_a_flag(self, corpus, tmp_path, capsys,
                                        monkeypatch, name):
        flag, value = CONFIG_FLAGS[name]
        seen = []

        def record(corpus_root, out_dir, config):
            seen.append(config)
            raise OSError("stop before any stage")
        monkeypatch.setattr(cli, "run_pipeline", record)
        code, _, err = run_cli(capsys, "pipeline", str(corpus), *flag)
        assert code == 1 and "stop before any stage" in err
        got = getattr(seen[0], name)
        assert got == value and type(got) is type(value)
        assert got != getattr(PipelineConfig(), name)

    def test_usage_error_exits_1(self, corpus, capsys):
        for flags in (["--match-policy", "bogus"], ["--no-such-flag"]):
            code, _, err = run_cli(capsys, "pipeline", str(corpus), *flags)
            assert code == 1 and "error: " in err
        code, _, _ = run_cli(capsys, "--help")
        assert code == 0

    def test_empty_corpus_fails_in_validate(self, tmp_path, capsys):
        (tmp_path / "annotations.json").write_text("[]")
        out = tmp_path / "run"
        code, values, err = run_cli(capsys, "pipeline", str(tmp_path),
                                    "--out", str(out), "--image-side", "32")
        assert code == 1 and values == {}
        assert ("stage 'validate' failed: "
                f"{tmp_path / 'annotations.json'}: no videos") in err
        assert os.listdir(out) == ["manifest.json"]

    def test_missing_corpus_exits_1(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "pipeline", str(tmp_path / "nope"))
        assert code == 1
        assert "error" in err


LOADED = "import sys\n{}\nprint(' '.join(sys.modules))"
IMPORT_ALL = """
import importlib, pkgutil
import gebd
for info in pkgutil.iter_modules(gebd.__path__):
    importlib.import_module("gebd." + info.name)
"""


def _capped_memory():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("thresholds", ["1e20:1:2e20", "0:1e-12:1",
                                        "0.5:1e-20:0.5"])
def test_unbounded_threshold_range_refused_at_once(corpus, tmp_path, thresholds):
    # a step lost in rounding never ends the loop and a tiny one builds 10**12
    # values: run it capped in memory and time, so a regression fails here
    # instead of hanging or exhausting the host
    empty = tmp_path / "empty.csv"
    empty.write_text("video_id,timestamp\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(gebd.__file__))]
        + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    done = subprocess.run(
        [sys.executable, "-m", "gebd.cli", "eval", "--predictions", str(empty),
         "--annotations", str(corpus / "annotations.json"),
         "--out", str(tmp_path / "out"), "--thresholds", thresholds],
        capture_output=True, text=True, env=env, timeout=60,
        preexec_fn=_capped_memory)
    assert done.returncode == 1
    assert done.stderr == (f"error: key 'thresholds': range {thresholds!r} "
                           f"has more than 10000 values\n")


def test_imports_nothing_but_numpy():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(gebd.__file__))]
        + os.environ.get("PYTHONPATH", "").split(os.pathsep)))

    def top_level(code):
        done = subprocess.run([sys.executable, "-c", LOADED.format(code)],
                              capture_output=True, text=True, env=env,
                              check=True)
        return {name.split(".")[0] for name in done.stdout.split()
                if not name.startswith("__")} - set(sys.stdlib_module_names)
    assert top_level(IMPORT_ALL) - top_level("pass") == {"gebd", "numpy"}


def test_console_script_installed():
    out = subprocess.run([sys.executable, "-m", "gebd.cli", "--help"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert "pipeline" in out.stdout


class TestProcessEntryPoint:
    """``gebd.cli.run``, the ``gebd`` script and ``python -m gebd.cli``: a
    flushed ``os._exit`` with ``main``'s code, skipping interpreter teardown."""

    SRC = os.path.dirname(os.path.dirname(gebd.__file__))
    # block-buffered standard streams, as under a redirection
    ENV = {**{k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"},
           "PYTHONPATH": SRC}

    def gebd(self, *args, **kwargs):
        """``python -m gebd.cli <args>`` in a fresh interpreter."""
        return subprocess.run([sys.executable, "-m", "gebd.cli", *args],
                              env=self.ENV, timeout=120, **kwargs)

    def eval_args(self, corpus, gt, tmp_path, preds=None):
        pred_csv = tmp_path / "pred.csv"
        write_boundary_csv(pred_csv, gt if preds is None else preds)
        return ["eval", "--predictions", str(pred_csv), "--annotations",
                str(corpus / "annotations.json"), "--out", str(tmp_path / "eval")]

    def test_redirected_output_is_flushed(self, corpus, gt, tmp_path):
        out_txt = tmp_path / "eval.txt"
        with open(out_txt, "w") as fh:
            done = self.gebd(*self.eval_args(corpus, gt, tmp_path), stdout=fh)
        assert done.returncode == 0
        lines = out_txt.read_text().splitlines()
        assert [line.split("=", 1)[0] for line in lines] == [
            "threshold", "precision", "recall", "f1", "out"]
        assert lines[3] == "f1=1.000000"

    def test_exit_codes_survive(self, corpus, gt, tmp_path):
        args = self.eval_args(corpus, gt, tmp_path)
        assert self.gebd(*args, capture_output=True).returncode == 0
        done = self.gebd(*args, "--threshold", "abc", capture_output=True,
                         text=True)
        assert done.returncode == 1 and "threshold" in done.stderr
        # with its descriptor closed, sys.stdout is None and is not flushed
        done = self.gebd(*args, stderr=subprocess.PIPE, text=True,
                         preexec_fn=lambda: os.close(1))
        assert done.returncode == 0 and done.stderr == ""
        args = self.eval_args(corpus, gt, tmp_path, {"ghost_video": [1.0]})
        done = self.gebd(*args, capture_output=True, text=True)
        assert done.returncode == 2 and "ghost_video" in done.stderr

    def test_teardown_is_skipped(self, corpus, gt, tmp_path):
        # an atexit handler runs only in the interpreter's teardown
        script = ("import atexit, runpy, sys\n"
                  "atexit.register(print, 'teardown ran')\n"
                  f"sys.argv = ['gebd', *{self.eval_args(corpus, gt, tmp_path)!r}]\n"
                  "runpy.run_module('gebd.cli', run_name='__main__')\n")
        done = subprocess.run([sys.executable, "-c", script], env=self.ENV,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert "f1=1.000000" in done.stdout
        assert "teardown ran" not in done.stdout

    def test_no_process_outlives_a_pooled_run(self, corpus, tmp_path):
        proc = subprocess.Popen(
            [sys.executable, "-m", "gebd.cli", "pipeline", str(corpus),
             "--image-side", "32", "--workers", "2",
             "--out", str(tmp_path / "run")],
            env=self.ENV, start_new_session=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            assert proc.wait(timeout=120) == 0
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        # the pool's workers were in the command's process group
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)

    def test_script_runs_the_entry_point(self):
        # read as text: Python 3.10 has no tomllib
        pyproject = os.path.join(os.path.dirname(self.SRC), "pyproject.toml")
        with open(pyproject) as fh:
            assert 'gebd = "gebd.cli:run"' in fh.read().splitlines()
