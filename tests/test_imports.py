"""Import budget: each command loads only the modules it runs.

Every case runs in a fresh interpreter and records the modules that the
call adds.  Most cases import numpy first, so they hold on any supported
numpy: numpy 1.24 loads ``numpy.ma`` and ``numpy.random`` with ``import
numpy``, numpy 2 loads neither until they are used.  The commands that
compute no array (``gebd eval`` under either match policy and mode,
``gebd validate`` and a rerun whose stages are all fresh) run without
that, and must not load numpy.
"""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys

import pytest

from gebd.pipeline import PipelineConfig, run_pipeline
from gebd.synth import generate_corpus

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")

PROBE = """
import json, sys
{setup}
before = set(sys.modules)
{body}
print(json.dumps({{"code": code, "added": sorted(set(sys.modules) - before)}}))
"""

# the worker-process machinery, which only a stage that fans out needs
POOL = ("concurrent.futures", "multiprocessing")


def added_modules(body, setup="import numpy"):
    """(result ``code`` of ``body``, modules it added after ``setup``) in a
    fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c",
                           PROBE.format(setup=setup, body=body)],
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    return result["code"], set(result["added"])


def cli_modules(*argv, setup="import numpy"):
    return added_modules("import gebd.cli\n"
                         f"code = gebd.cli.main({[str(a) for a in argv]!r})",
                         setup)


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("imports")
    corpus, out = root / "corpus", root / "run"
    generate_corpus(corpus, n_videos=1, seed=3, duration=4.0, fps=10.0,
                    image_size=32)
    run_pipeline(corpus, out, PipelineConfig(image_side=32, m=3))
    return corpus, out


def test_eval_loads_no_worker_pool(finished_run, tmp_path):
    corpus, out = finished_run
    code, added = cli_modules("eval", "--predictions", out / "predictions.csv",
                              "--annotations", corpus / "annotations.json",
                              "--out", tmp_path / "eval")
    assert code == 0
    assert "gebd.evaluation" in added
    assert added.isdisjoint(POOL)


def test_noop_pipeline_rerun_loads_no_worker_pool(finished_run):
    corpus, out = finished_run
    code, added = cli_modules("pipeline", corpus, "--out", out, "--image-side", 32,
                              "--m", 3, "--workers", 2)
    assert code == 0
    with open(out / "manifest.json", encoding="utf-8") as fh:
        assert all(s["skipped"] for s in json.load(fh)["stages"])
    assert added.isdisjoint(POOL)


def test_training_loads_no_masked_arrays():
    code, added = added_modules(
        "from gebd.classifier import TrainConfig, train_logistic\n"
        "X = numpy.arange(8.0).reshape(4, 2)\n"
        "model, _ = train_logistic((X, numpy.array([0.0, 1.0, 0.0, 1.0])),\n"
        "                          TrainConfig(epochs=2))\n"
        "code = int(numpy.isfinite(model.weights).all())")
    assert code == 1
    assert not any(m == "numpy.ma" or m.startswith("numpy.ma.") for m in added)


def test_eval_loads_no_numpy(finished_run, tmp_path):
    corpus, out = finished_run
    code, added = cli_modules("eval", "--predictions", out / "predictions.csv",
                              "--annotations", corpus / "annotations.json",
                              "--out", tmp_path / "eval", setup="")
    assert code == 0
    assert "gebd.evaluation" in added
    assert "numpy" not in added


@pytest.mark.parametrize("mode", ["relative", "window:0.5"])
def test_greedy_eval_loads_no_numpy(finished_run, tmp_path, mode):
    corpus, out = finished_run
    code, added = cli_modules("eval", "--predictions", out / "predictions.csv",
                              "--annotations", corpus / "annotations.json",
                              "--out", tmp_path / "eval",
                              "--match-policy", "greedy_nearest", "--mode", mode,
                              setup="")
    assert code == 0
    assert "gebd.evaluation" in added
    assert "numpy" not in added


def test_validate_with_frames_loads_no_numpy(finished_run):
    corpus, _ = finished_run
    code, added = cli_modules("validate", corpus / "annotations.json",
                              "--frames", corpus / "frames", setup="")
    assert code == 0
    assert "gebd.pnm" in added
    assert "numpy" not in added


def test_fresh_pipeline_rerun_loads_no_numpy(finished_run):
    corpus, out = finished_run
    code, added = cli_modules("pipeline", corpus, "--out", out, "--image-side", 32,
                              "--m", 3, "--workers", 2, setup="")
    assert code == 0
    with open(out / "manifest.json", encoding="utf-8") as fh:
        assert all(s["skipped"] for s in json.load(fh)["stages"])
    assert "numpy" not in added


def test_package_surface_resolves():
    """Every name that ``gebd/__init__.py`` imports is its module's object,
    and every lazy flow name is the :mod:`gebd.flow` function of that name."""
    import gebd
    import gebd.flow
    for node in ast.parse(inspect.getsource(gebd)).body:
        if isinstance(node, ast.ImportFrom):
            module = importlib.import_module("." + node.module, "gebd")
            for alias in node.names:
                assert getattr(gebd, alias.name) is getattr(module, alias.name)
    for name in gebd._FLOW_NAMES:
        fn = getattr(gebd.flow, name)
        assert inspect.isfunction(fn) and fn.__module__ == "gebd.flow"
        assert getattr(gebd, name) is fn
