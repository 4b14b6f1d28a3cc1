import json
import os
import subprocess
import sys

import numpy as np
import pytest

from gebd.annotations import (attach_consistency, load_annotations,
                              select_gt_highest)
from gebd.cli import main
from gebd.evaluation import evaluate_corpus
from gebd.pipeline import write_boundary_csv
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


class TestEval:
    def test_perfect_predictions(self, corpus, gt, tmp_path, capsys):
        pred_csv = tmp_path / "pred.csv"
        write_boundary_csv(pred_csv, gt)
        code, values, _ = run_cli(
            capsys, "eval", "--predictions", str(pred_csv),
            "--annotations", str(corpus / "annotations.json"),
            "--out", str(tmp_path / "eval"))
        assert code == 0
        assert values["f1"] == "1.0000"

    def test_empty_predictions(self, corpus, tmp_path, capsys):
        pred_csv = tmp_path / "pred.csv"
        pred_csv.write_text("video_id,timestamp\n")
        code, values, _ = run_cli(
            capsys, "eval", "--predictions", str(pred_csv),
            "--annotations", str(corpus / "annotations.json"),
            "--out", str(tmp_path / "eval"))
        assert code == 0
        assert values["f1"] == "0.0000"

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
        assert values["f1"] == f"{report.global_prf[0].f1:.4f}"

    def test_window_mode(self, corpus, gt, tmp_path, capsys):
        pred_csv = tmp_path / "pred.csv"
        write_boundary_csv(pred_csv, gt)
        code, values, _ = run_cli(
            capsys, "eval", "--predictions", str(pred_csv),
            "--annotations", str(corpus / "annotations.json"),
            "--mode", "window:0.25", "--out", str(tmp_path / "eval"))
        assert code == 0
        assert values["f1"] == "1.0000"
        assert values["threshold"] == "0.25"

    def test_weighted_gt_policy(self, corpus, gt, tmp_path, capsys):
        pred_csv = tmp_path / "pred.csv"
        write_boundary_csv(pred_csv, gt)
        code, values, _ = run_cli(
            capsys, "eval", "--predictions", str(pred_csv),
            "--annotations", str(corpus / "annotations.json"),
            "--gt-policy", "weighted:5", "--out", str(tmp_path / "eval"))
        assert code == 0
        assert 0.0 <= float(values["f1"]) <= 1.0
        # one policy parser: eval and the pipeline reject a policy alike
        message = "unknown gt policy 'bogus'"
        code, _, err = run_cli(
            capsys, "eval", "--predictions", str(pred_csv),
            "--annotations", str(corpus / "annotations.json"),
            "--gt-policy", "bogus", "--out", str(tmp_path / "eval2"))
        assert code == 1 and message in err
        code, _, err = run_cli(capsys, "pipeline", str(corpus), "--gt-policy",
                               "bogus", "--out", str(tmp_path / "run"))
        assert code == 1 and f"stage 'select-gt' failed: {message}" in err


class TestPipelineCommand:
    def test_end_to_end_with_config_file(self, corpus, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=11\nimage_side=32\nm=3\nworkers=1\n")
        out = tmp_path / "run"
        code, values, _ = run_cli(capsys, "pipeline", str(corpus),
                                  "--config", str(cfg), "--out", str(out))
        assert code == 0
        assert 0.0 <= float(values["f1"]) <= 1.0
        assert os.path.exists(values["manifest"])
        manifest = json.load(open(values["manifest"]))
        assert manifest["config"]["image_side"] == 32
        assert [s["name"] for s in manifest["stages"]][-1] == "report"

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
        (["--config", "match_policy=bogus"], "match_policy")])
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

    def test_usage_error_exits_1(self, corpus, capsys):
        for flags in (["--match-policy", "bogus"], ["--no-such-flag"]):
            code, _, err = run_cli(capsys, "pipeline", str(corpus), *flags)
            assert code == 1 and "error: " in err
        code, _, _ = run_cli(capsys, "--help")
        assert code == 0

    def test_missing_corpus_exits_1(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "pipeline", str(tmp_path / "nope"))
        assert code == 1
        assert "error" in err


def test_console_script_installed():
    out = subprocess.run([sys.executable, "-m", "gebd.cli", "--help"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert "pipeline" in out.stdout
