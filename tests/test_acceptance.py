"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criterion 6 is the
end-to-end desk-scale run and dominates the suite's runtime (a few minutes);
everything else finishes in seconds.
"""

import os
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from gebd.annotations import (AnnotationSet, AnnotatorTrack, RawBoundary,
                              VideoMeta, _pairwise_rows, compute_f1_consistency,
                              select_gt_weighted)
from gebd.classifier import TrainConfig, bce_gradient, train_logistic
from gebd.container import ContainerError, read_tensor, write_tensor
from gebd.evaluation import f1_from_pr, match_boundaries
from gebd.flow import farneback_flow, poly_expansion

from conftest import (max_matching_cardinality, separable_dataset, shifted_pair,
                      smooth_texture)
from test_flow import dense_poly_fit


@contextmanager
def criterion(number, name, budget_seconds):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} {name}: FAIL "
              f"({time.time() - start:.1f}s)")
        raise
    elapsed = time.time() - start
    verdict = "PASS" if elapsed < budget_seconds else "FAIL"
    print(f"\nACCEPTANCE {number} {name}: {verdict} "
          f"({elapsed:.1f}s, budget {budget_seconds}s)")
    assert elapsed < budget_seconds


def test_criterion_1_table_consistency():
    """Published precision/recall columns reproduce their F1 column."""
    table = [
        (60.44, 45.81, 52.11),
        (48.20, 55.04, 51.39),
        (47.96, 55.06, 51.26),
        (42.44, 63.03, 50.72),
        (69.35, 49.89, 58.03),
        (58.89, 75.20, 66.05),
        (58.58, 75.45, 65.95),
    ]
    with criterion(1, "table F1 consistency", 1.0):
        for precision, recall, expected in table:
            got = f1_from_pr(precision, recall)
            assert abs(got - expected) <= 0.02, (precision, recall, got)


def test_criterion_2_matching_oracle_equivalence():
    """Optimal matcher equals exhaustive enumeration on 1,000 instances."""
    with criterion(2, "matching oracle equivalence", 10.0):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            n_p = int(rng.integers(0, 9))
            n_g = int(rng.integers(0, 9))
            preds = np.sort(rng.uniform(0, 10, size=n_p))
            gts = np.sort(rng.uniform(0, 10, size=n_g))
            threshold = float(rng.uniform(0.01, 0.4))
            got = len(match_boundaries(preds, gts, 10.0, threshold).pairs)
            if n_p and n_g:
                dist = np.abs(np.subtract.outer(preds, gts)) / 10.0
                assert got == max_matching_cardinality(dist, threshold)
            else:
                assert got == 0
        greedy = match_boundaries([1.25, 1.45], [1.0, 1.3], 10.0, 0.03,
                                  policy="greedy_nearest")
        optimal = match_boundaries([1.25, 1.45], [1.0, 1.3], 10.0, 0.03)
        assert len(greedy.pairs) == 1 and len(optimal.pairs) == 2


def test_criterion_3_flow_accuracy():
    """Shift recovery under 0.5 px mean endpoint error, 20 seeds each case."""
    with criterion(3, "flow accuracy", 60.0):
        for dx, dy in ((3.0, 0.0), (1.5, -0.5)):
            for seed in range(20):
                f1, f2 = shifted_pair(np.random.default_rng(seed), 64, dx, dy)
                flow = farneback_flow(f1, f2)
                inner = flow[8:56, 8:56]
                epe = np.hypot(inner[..., 0] - dx, inner[..., 1] - dy).mean()
                assert epe < 0.5, (dx, dy, seed, epe)
        still = smooth_texture(np.random.default_rng(99), 64, 64)
        assert np.abs(farneback_flow(still, still)).max() < 1e-3


def test_criterion_4_poly_expansion_oracle():
    """Separable fast path equals the dense weighted least-squares solve."""
    with criterion(4, "polynomial expansion oracle", 30.0):
        rng = np.random.default_rng(4)
        for _ in range(10):
            img = rng.random((24, 24))
            pc = poly_expansion(img, 5, 1.1)
            for _ in range(20):
                y = int(rng.integers(0, 24))
                x = int(rng.integers(0, 24))
                want = dense_poly_fit(img, 5, 1.1, y, x)
                for name, value in want.items():
                    assert abs(getattr(pc, name)[y, x] - value) < 1e-6


def test_criterion_5_trainer_checks():
    """Gradient matches finite differences; the stated schedule separates."""
    with criterion(5, "trainer checks", 60.0):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(60, 4))
        y = (rng.random(60) > 0.5).astype(float)
        h = 1e-5
        worst = 0.0
        for _ in range(10):
            w = rng.normal(scale=0.5, size=4)
            b = float(rng.normal())
            _, gw, gb = bce_gradient(X, y, w, b)
            for k in range(4):
                e = np.zeros(4)
                e[k] = h
                num = (bce_gradient(X, y, w + e, b)[0]
                       - bce_gradient(X, y, w - e, b)[0]) / (2 * h)
                worst = max(worst, abs(num - gw[k])
                            / max(abs(num), abs(gw[k]), 1e-8))
            num_b = (bce_gradient(X, y, w, b + h)[0]
                     - bce_gradient(X, y, w, b - h)[0]) / (2 * h)
            worst = max(worst, abs(num_b - gb) / max(abs(num_b), abs(gb), 1e-8))
        assert worst < 1e-4, worst

        X, y = separable_dataset(np.random.default_rng(50), n=200, margin=0.5)
        config = TrainConfig(learning_rate=0.0001, decay_factor=0.1,
                             decay_every=10, epochs=16, batch_size=16, seed=50)
        model, _ = train_logistic((X, y), config)
        accuracy = ((model.score(X) >= 0.5) == (y > 0.5)).mean()
        assert accuracy >= 0.99, accuracy


def _run_cli(*argv):
    out = subprocess.run([sys.executable, "-m", "gebd.cli", *argv],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return dict(line.split("=", 1) for line in out.stdout.splitlines()
                if "=" in line)


def test_criterion_6_end_to_end_desk_scale(tmp_path):
    """Synthetic corpus through the full tool chain reaches F1@5% >= 0.80.

    The published full-dataset operating point is out of reach by design
    here: it needs the real videos and a trained deep backbone.  This run
    checks the tool chain end to end at desk scale, plus bit-identical
    reproduction after deleting the trained model.
    """
    with criterion(6, "end-to-end desk scale", 900.0):
        corpus = tmp_path / "corpus"
        out = tmp_path / "run"
        _run_cli("synth", "--out", str(corpus), "--n-videos", "30",
                 "--seed", "7", "--duration", "10", "--fps", "10")
        values = _run_cli("pipeline", str(corpus), "--out", str(out),
                          "--seed", "7", "--workers", "4",
                          "--image-side", "32")
        f1_first = values["f1"]
        assert float(f1_first) >= 0.80, f1_first

        os.remove(out / "model.json")
        values = _run_cli("pipeline", str(corpus), "--out", str(out),
                          "--seed", "7", "--workers", "4",
                          "--image-side", "32")
        assert values["f1"] == f1_first, (values["f1"], f1_first)


def test_criterion_7_consistency_properties():
    """Duplicate-pair F1, permutation equivariance, weighted frequencies."""
    with criterion(7, "consistency properties", 30.0):
        meta = VideoMeta("v", "c", 10.0, 10.0, 100)

        def build(lists, video_id="v"):
            m = VideoMeta(video_id, "c", 10.0, 10.0, 100)
            return AnnotationSet(meta=m, tracks=[
                AnnotatorTrack(f"a{i}", [RawBoundary("instant", t)
                                         for t in stamps])
                for i, stamps in enumerate(lists)])

        aset = build([[1.0, 4.0], [2.5, 7.0], [1.0, 4.0]])
        grid = _pairwise_rows(aset, 0.05)
        assert grid[0][2] == 1.0 and grid[2][0] == 1.0

        rng = np.random.default_rng(7)
        for _ in range(100):
            k = int(rng.integers(2, 6))
            lists = [sorted(set(np.round(rng.uniform(0, 10, size=rng.integers(0, 6)), 3)))
                     for _ in range(k)]
            base = dict(compute_f1_consistency(build(lists), 0.05))
            perm = rng.permutation(k)
            out = compute_f1_consistency(build([lists[p] for p in perm]), 0.05)
            for slot, p in enumerate(perm):
                assert abs(out[slot][1] - base[f"a{p}"]) < 1e-12

        hits = 0
        n = 10_000
        for v in range(n):
            aset = build([[1.0], [2.0]], video_id=f"mc{v}")
            aset.tracks[0].f1_consistency = 0.25
            aset.tracks[1].f1_consistency = 0.75
            if select_gt_weighted(aset, 7) == [2.0]:
                hits += 1
        sigma = (0.75 * 0.25 / n) ** 0.5
        assert abs(hits / n - 0.75) <= 3 * sigma, hits / n


def test_criterion_8_container_robustness():
    """Round-trip identity over 500 random tensors plus named error cases."""
    with criterion(8, "container format robustness", 10.0):
        rng = np.random.default_rng(8)
        for _ in range(500):
            ndim = int(rng.integers(1, 6))
            dims = [int(rng.integers(1, 6)) for _ in range(ndim)]
            data = rng.standard_normal(int(np.prod(dims)))
            got_dims, got = read_tensor(write_tensor(dims, data))
            assert got_dims == dims
            assert got.tobytes() == data.tobytes()

        blob = bytearray(write_tensor([2, 2], np.zeros(4)))
        blob[0] = 0x00
        with pytest.raises(ContainerError, match="not a GEBT"):
            read_tensor(bytes(blob))
        good = write_tensor([2, 2], np.zeros(4))
        with pytest.raises(ContainerError, match="payload length mismatch"):
            read_tensor(good[:-2])
        with pytest.raises(ContainerError, match="length mismatch"):
            write_tensor([3, 3], np.zeros(4))
