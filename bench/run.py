"""Benchmark of the gebd toolkit.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload pipeline-cold --seed 1 --seconds 20 --trace 0

Workloads (BENCHMARK.json says why each exists):

* ``pipeline-cold``   -- ``gebd pipeline`` into an empty output directory.
* ``pipeline-resume`` -- delete ``model.json`` of a finished run and rerun.
* ``eval-corpus``     -- ``gebd eval`` of a large generated annotation set.

With ``--trace 0`` every operation runs the program as a subprocess and each
end-to-end metric is the median over the operations of the run.  With
``--trace 1`` operations run in this process with one worker, alternately
untraced (``baseline.workers1.wall_s``) and under the outside-in tracer; each
per-layer metric is the median over the traced operations, and the spans of
the last traced operation go to ``.bench_out/spans-<workload>.json``.

Every operation passes through the oracle in ``oracle.py``.  The last line
of standard output is JSON with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The program runs from ``src/`` of the checkout;
without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from workloads import BLAS_ENV, NPROC, ROOT, SRC, WORKLOADS, SetupError

os.environ.update(BLAS_ENV)  # before numpy loads, for the in-process runs

SETUP_REPEATS = 3
MIN_FREE_BYTES = 1 << 30

END_TO_END = (
    ("wall_s", "s"), ("cpu_s", "s"), ("f1", "ratio"), ("peak_rss_mb", "MB"),
    ("disk_mb", "MB"), ("noop_s", "s"), ("setup_s", "s"),
)

_UNITS = {"calls": "count", "total_s": "s", "self_s": "s", "bytes": "B",
          "rows": "count", "cells": "count", "calls_per_frame": "1/frame",
          "reads_per_frame": "1/frame"}
_LAYERS = (
    ("flow.farneback_flow", "calls", "total_s"),
    ("flow.correlate1d", "calls", "self_s"),
    ("flow.poly_expansion", "calls", "total_s"),
    ("flow.flow_step", "calls", "total_s"),
    ("flow.gaussian_pyramid", "calls_per_frame"),
    ("pnm.read_pnm", "calls", "reads_per_frame"),
    ("container.write_tensor_file", "calls", "bytes", "total_s"),
    ("container.read_tensor_file", "calls", "bytes", "total_s"),
    ("windows.extract_window", "calls", "self_s"),
    ("classifier.window_features", "calls", "total_s"),
    ("classifier.train_logistic", "rows", "total_s"),
    ("classifier.score_sequence", "total_s"),
    ("postprocess.scores_to_boundaries", "total_s"),
    ("report.render_timeline", "total_s"),
    ("pipeline.stage_validate", "total_s"),
    ("pipeline.stage_consistency", "total_s"),
    ("pipeline.stage_select_gt", "total_s"),
    ("pipeline.stage_flow", "total_s"),
    ("pipeline.stage_sample", "total_s"),
    ("pipeline.stage_train", "total_s"),
    ("pipeline.stage_score", "total_s"),
    ("pipeline.stage_detect", "total_s"),
    ("pipeline.stage_eval", "total_s"),
    ("pipeline.stage_report", "total_s"),
    ("pipeline.Pipeline.run", "self_s"),
    ("annotations.load_annotations", "total_s"),
    ("annotations.attach_consistency", "calls", "self_s"),
    ("evaluation.match_boundaries", "calls", "total_s", "cells"),
    ("evaluation.evaluate_corpus", "self_s"),
)
TRACED = tuple((f"{span}.{q}", _UNITS[q]) for span, *qs in _LAYERS for q in qs)
PER_LAYER = TRACED + (
    ("baseline.workers1.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.stage_share", "%"),
)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def machine_stamp():
    import numpy as np

    def cpu_model():
        try:
            with open("/proc/cpuinfo", encoding="utf-8") as fh:
                return next((line.split(":", 1)[1].strip() for line in fh
                             if line.startswith("model name")), "unknown")
        except OSError:
            return "unknown"

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
        ).stdout.strip() or "unknown (not a git checkout)"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown (git unavailable)"
    return {
        "nproc": NPROC, "workers": NPROC, "cpu_model": cpu_model(),
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "commit": commit, "program_env": BLAS_ENV,
        "file_cache": "warm: the page cache cannot be dropped without privileges",
    }


def loadavg():
    try:
        with open("/proc/loadavg", encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def measure(cls, work, seed, seconds, size):
    """Set up ``SETUP_REPEATS`` times, then run operations for ``seconds``."""
    setup_s = []
    for i in range(SETUP_REPEATS):
        if i:
            shutil.rmtree(wl.work)
        wl = cls(os.path.join(work, f"setup{i}"), seed, size)
        start = time.perf_counter()
        wl.setup()
        setup_s.append(time.perf_counter() - start)
    ops = []
    deadline = time.perf_counter() + seconds
    while not ops or time.perf_counter() < deadline:
        ops.append(wl.op(len(ops)))
    good = [op for op in ops if op.error is None] or ops
    samples = {name: [getattr(op, name) for op in good] for name, _ in END_TO_END[:-1]}
    samples["setup_s"] = setup_s
    return ops, samples, END_TO_END, None


def trace(cls, work, seed, seconds, size):
    """Alternate untraced and traced in-process operations for ``seconds``."""
    sys.path.insert(0, SRC)
    import gebd.cli  # noqa: F401  -- imports every layer before the first timing
    from tracer import STAGES, Tracer

    wl = cls(os.path.join(work, "setup"), seed, size)
    wl.setup()
    tracer = Tracer()
    ops, samples = [], {name: [] for name, _ in PER_LAYER}
    spans = []
    deadline = time.perf_counter() + seconds
    while not samples["trace.overhead_s"] or time.perf_counter() < deadline:
        baseline = wl.op(len(ops), inproc=True)
        tracer.reset()
        tracer.install()
        try:
            traced = wl.op(len(ops) + 1, inproc=True)
        finally:
            tracer.uninstall()
        ops += [baseline, traced]
        for name, _ in TRACED:
            samples[name].append(tracer.value(name, wl.frames))
        stage_s = sum(tracer.stats[f"pipeline.stage_{s}"][1] for s in STAGES)
        samples["baseline.workers1.wall_s"].append(baseline.wall_s)
        samples["trace.overhead_s"].append(traced.wall_s - baseline.wall_s)
        samples["trace.stage_share"].append(100.0 * stage_s / traced.wall_s)
        spans = list(tracer.spans)
    return ops, samples, PER_LAYER, spans


def write_spans(path, workload, seed, stamp, spans):
    """The last traced operation's spans, times relative to its first span."""
    t0 = min((s[3] for s in spans), default=0.0)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "stamp": stamp,
                   "fields": ["id", "parent", "name", "start_s", "end_s"],
                   "spans": [[i, p, n, round(a - t0, 7), round(b - t0, 7)]
                             for i, p, n, a, b in spans]}, fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "min"), default="full",
                        help="input size; 'min' is the harness self-check")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "gebd", "cli.py")):
        print(f"error: no gebd sources under {SRC}", file=sys.stderr)
        return 2
    free = shutil.disk_usage(ROOT).free
    if free < MIN_FREE_BYTES:
        print(f"error: {free} bytes free under {ROOT}, need {MIN_FREE_BYTES}",
              file=sys.stderr)
        return 1

    stamp = machine_stamp()
    stamp["loadavg_before"] = loadavg()
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    try:
        run = trace if args.trace else measure
        ops, samples, metrics, spans = run(WORKLOADS[args.workload], work, args.seed,
                                           args.seconds, args.size)
    except SetupError as e:
        print(f"error: set-up failed: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # kept while another run still uses it
            os.rmdir(os.path.dirname(work))
    stamp["loadavg_after"] = loadavg()
    if args.trace:
        write_spans(os.path.join(ROOT, ".bench_out", f"spans-{args.workload}.json"),
                    args.workload, args.seed, stamp, spans)

    print("stamp " + json.dumps(stamp, sort_keys=True))
    for op in ops:
        if op.error:
            print(f"failed: {op.error}")
    result = {}
    for name, unit in metrics:
        q1, median, q3 = quartiles(samples[name])
        print(f"{args.workload} {name} = {median:.6g} {unit} "
              f"(n={len(samples[name])}, q1={q1:.6g}, q3={q3:.6g})")
        result[name] = {"value": median, "unit": unit}
    failed = sum(op.error is not None for op in ops)
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
