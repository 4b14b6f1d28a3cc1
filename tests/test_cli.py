import argparse
import csv
import json
import os
import shutil
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
from gebd.pipeline import (Pipeline, PipelineConfig, read_boundary_csv,
                           write_boundary_csv)
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
        out[aset.meta.video_id] = select_gt_highest(aset).timestamps
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
    return root, normalize_track(aset.tracks[0], aset.meta).timestamps


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
        (["--gt-policy", "bogus"], "gt_policy")])
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
