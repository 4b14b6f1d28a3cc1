"""Stage flow keeps freed memory in the heap instead of faulting it back.

The fault probe runs in a fresh interpreter, as ``test_imports.py`` runs
its probes, so neither the malloc setting nor the heap of earlier tests
carries into it.
"""

import ctypes
import json
import os
import platform
import subprocess
import sys

import pytest

from gebd.pipeline import Pipeline, PipelineConfig
from gebd.synth import generate_corpus

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")

PROBE = """
import json, resource, sys
from gebd.pipeline import Pipeline, PipelineConfig
pipe = Pipeline(sys.argv[1], sys.argv[2], PipelineConfig(image_side=32, workers=1))
faults = []
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    pipe.stage_flow()
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the malloc setting applies to glibc only")
def test_repeated_flow_job_faults_in_no_memory(tmp_path):
    corpus = tmp_path / "corpus"
    generate_corpus(corpus, n_videos=1, seed=1, duration=10.0, fps=10.0,
                    image_size=64)
    proc = subprocess.run([sys.executable, "-c", PROBE, str(corpus),
                           str(tmp_path / "run")],
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, check=True)
    first, second = json.loads(proc.stdout.splitlines()[-1])
    # the default allocator faults about 300 pages back in per frame
    assert second < 1000, (first, second)


def test_flow_without_mallopt_writes_the_same_table(tmp_path, monkeypatch):
    corpus = tmp_path / "corpus"
    generate_corpus(corpus, n_videos=1, seed=2, duration=3.0, fps=10.0,
                    image_size=32)
    config = PipelineConfig(image_side=32, workers=1)

    def table(out):
        pipe = Pipeline(corpus, out, config)
        pipe.stage_flow()
        with open(pipe.paths.feature_table("synth_0000"), "rb") as fh:
            return fh.read()

    expected = table(tmp_path / "default")
    opened = []

    def libc_without_mallopt(*args, **kwargs):
        opened.append(args)
        return object()

    monkeypatch.setattr(ctypes, "CDLL", libc_without_mallopt)
    assert table(tmp_path / "no_mallopt") == expected
    assert opened
