"""The benchmark's workloads.

Each workload builds its inputs from the seed in :meth:`setup`, then runs
operations in a closed loop: one :meth:`op` starts after the previous one
ends.  An operation runs the program as a user does
(``python -m gebd.cli pipeline|eval``), checks the outputs with the
independent oracle and leaves nothing behind.  With ``inproc=True`` it runs
the same work in this process through ``gebd.pipeline.Pipeline`` (or
``gebd.cli.main`` for ``eval``) with one worker, so a tracer installed in
this process sees every call.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

import oracle

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# Workers times BLAS threads must not exceed the cores.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
NPROC = len(os.sched_getaffinity(0))

# Videos per corpus.  Four is the smallest pipeline corpus whose F1@5% stays
# within a tenth of its median across seeds (with two it varied by a third);
# it is also a multiple of the worker count, so no worker idles.  The resume
# set-up is a full cold run, so its corpus stays at four too.  500 eval videos
# give about 15 operations per 30 s run.
SIZES = {
    "full": {"pipeline-cold": 4, "pipeline-resume": 4, "eval-corpus": 500},
    "min": {"pipeline-cold": 1, "pipeline-resume": 1, "eval-corpus": 10},
}


class SetupError(RuntimeError):
    pass


@dataclass
class Op:
    """Measurements of one operation; ``error`` is None when the oracle passed."""
    wall_s: float
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    disk_mb: float = 0.0
    noop_s: float = 0.0
    f1: float = 0.0
    error: str | None = None


@dataclass
class Run:
    code: int
    wall_s: float
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0


def run_program(args, cwd, log):
    """``python -m gebd.cli <args>`` with its output appended to ``log``.

    CPU time is the delta of this process's ``RUSAGE_CHILDREN``, which
    includes the program's worker processes.  Peak RSS comes from ``wait4``
    on the program, which reports the largest resident set of the program
    and every process it waited for.
    """
    env = dict(os.environ, PYTHONPATH=SRC, **BLAS_ENV)
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    with open(log, "ab") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "gebd.cli", *map(str, args)],
                                cwd=cwd, env=env, stdout=fh, stderr=fh)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
    return Run(proc.returncode, wall, cpu, usage.ru_maxrss / 1024)


def run_inproc(fn, log):
    """Call ``fn()`` in this process; an exception becomes exit code 1."""
    start = time.perf_counter()
    try:
        with open(log, "a", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
            code = fn() or 0
    except Exception:  # a failing program is a failed operation, not a crash
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(traceback.format_exc())
        code = 1
    return Run(code, time.perf_counter() - start)


def disk_bytes(path):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def log_tail(log):
    with open(log, encoding="utf-8", errors="replace") as fh:
        lines = fh.read().strip().splitlines()
    return lines[-1] if lines else "no output"


class Workload:
    name = ""

    def __init__(self, work, seed, size="full"):
        self.work = work
        self.seed = seed
        self.videos = SIZES[size][self.name]
        self.log = os.path.join(work, "program.log")
        self.frames = 0  # frames in the corpus, the base of per-frame counts
        self.reference = None  # digest every operation's primary output must repeat
        os.makedirs(work)

    def setup(self):
        raise NotImplementedError

    def op(self, k, inproc=False) -> Op:
        raise NotImplementedError

    def _fail(self, op, run, what):
        """Record a non-zero exit as the operation's error; True if there was one."""
        if run.code == 0:
            return False
        op.error = f"{what} exited {run.code}: {log_tail(self.log)}"
        return True

    def _same_as_reference(self, path):
        found = oracle.digest(path)
        if self.reference is None:
            self.reference = found
        elif found != self.reference:
            return f"{os.path.basename(path)} differs from the first operation's"
        return None


class _PipelineWorkload(Workload):
    """Shared by the pipeline workloads: the run, the oracle and the no-op rerun."""

    def _synth(self):
        self.corpus = os.path.join(self.work, "corpus")
        run = run_program(["synth", "--out", self.corpus, "--n-videos", self.videos,
                           "--seed", self.seed, "--duration", 10, "--fps", 10,
                           "--image-size", 64], self.work, self.log)
        if run.code != 0:
            raise SetupError(f"gebd synth exited {run.code}: {log_tail(self.log)}")
        self.annotations = os.path.join(self.corpus, "annotations.json")
        with open(self.annotations, encoding="utf-8") as fh:
            self.frames = sum(v["num_frames"] for v in json.load(fh))

    def _pipeline(self, out, inproc):
        if not inproc:
            return run_program(["pipeline", self.corpus, "--out", out,
                                "--image-side", 32, "--workers", NPROC],
                               self.work, self.log)
        from gebd.pipeline import Pipeline, load_config

        def pipeline():
            Pipeline(self.corpus, out, load_config(image_side=32, workers=1)).run()
        return run_inproc(pipeline, self.log)

    def _measure(self, out, inproc, first_run):
        """One pipeline run into ``out``, checked by the oracle, then a no-op rerun.

        The run must execute ``first_run`` and every later stage and skip the
        earlier ones.  ``out`` is removed once ``disk_mb`` is recorded.
        """
        run = self._pipeline(out, inproc)
        op = Op(run.wall_s, run.cpu_s, run.peak_rss_mb)
        try:
            if self._fail(op, run, "pipeline"):
                return op
            op.error = (oracle.check_stages(out, first_run)
                        or oracle.check_eval_global(os.path.join(out, "eval_global.csv"),
                                                    oracle.pipeline_expected(self.annotations, out))
                        or self._same_as_reference(os.path.join(out, "scores.csv")))
            if op.error:
                return op
            op.f1 = oracle.primary_f1(os.path.join(out, "eval_global.csv"))
            before = oracle.digests(out)
            rerun = self._pipeline(out, inproc)
            op.noop_s = rerun.wall_s
            if self._fail(op, rerun, "no-op rerun"):
                return op
            op.error = oracle.check_stages(out, None)
            if not op.error and oracle.digests(out) != before:
                op.error = "no-op rerun changed result files"
            op.disk_mb = disk_bytes(out) / 1e6
        except (OSError, ValueError, StopIteration) as e:
            op.error = f"outputs unreadable: {e!r}"
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return op


class PipelineCold(_PipelineWorkload):
    name = "pipeline-cold"

    def setup(self):
        self._synth()

    def op(self, k, inproc=False):
        return self._measure(os.path.join(self.work, f"op{k}"), inproc, "validate")


class PipelineResume(_PipelineWorkload):
    name = "pipeline-resume"

    def setup(self):
        self._synth()
        self.template = os.path.join(self.work, "cold")
        run = self._pipeline(self.template, inproc=False)
        if run.code != 0:
            raise SetupError(f"cold pipeline exited {run.code}: {log_tail(self.log)}")

    def op(self, k, inproc=False):
        out = os.path.join(self.work, f"op{k}")
        shutil.copytree(self.template, out)  # copy2 keeps mtimes, so freshness holds
        os.remove(os.path.join(out, "model.json"))
        return self._measure(out, inproc, "train")


def make_eval_set(directory, n_videos, seed):
    """Annotations and predictions shaped like a Kinetics-GEBD validation split.

    5 to 15 s clips; 5 annotators, each marking 2 to 8 boundaries near the
    clip's events with about 0.15 s jitter; 10 to 60 predictions per clip,
    a third of them near events.  Timestamps have millisecond resolution.
    """
    rng = random.Random(seed)
    videos, lines = [], ["video_id,timestamp"]
    for v in range(n_videos):
        vid = f"v{v:05d}"
        duration = round(rng.uniform(5.0, 15.0), 2)
        events = [rng.uniform(0.3, duration - 0.3) for _ in range(rng.randint(2, 8))]

        def near(t, sigma):
            return round(min(max(rng.gauss(t, sigma), 0.0), duration), 3)

        annotators = []
        for a in range(5):
            count = rng.randint(2, 8)
            marks = [near(t, 0.15) for t in rng.sample(events, min(count, len(events)))]
            marks += [near(rng.uniform(0, duration), 0.0)
                      for _ in range(count - len(marks))]
            annotators.append({"annotator_id": f"a{a}",
                               "boundaries": [{"t": t} for t in sorted(set(marks))]})
        videos.append({"video_id": vid, "class_label": f"class_{rng.randrange(20):02d}",
                       "duration": duration, "fps": 25.0,
                       "num_frames": round(duration * 25), "annotators": annotators})
        n_pred = rng.randint(10, 60)
        preds = {near(rng.choice(events), 0.3) for _ in range(n_pred // 3)}
        preds |= {near(rng.uniform(0, duration), 0.0) for _ in range(n_pred - n_pred // 3)}
        lines += [f"{vid},{t!r}" for t in sorted(preds)]
    os.makedirs(directory)
    annotations = os.path.join(directory, "annotations.json")
    predictions = os.path.join(directory, "predictions.csv")
    with open(annotations, "w", encoding="utf-8") as fh:
        json.dump(videos, fh)
    with open(predictions, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return annotations, predictions


class EvalCorpus(Workload):
    """``gebd eval`` of a large annotation set; ``noop_s`` is a one-video eval."""
    name = "eval-corpus"

    def setup(self):
        self.sets = [make_eval_set(os.path.join(self.work, "evalset"), self.videos, self.seed),
                     make_eval_set(os.path.join(self.work, "tiny"), 1, self.seed)]
        self.expected = None

    def _eval(self, paths, out, inproc):
        args = ["eval", "--predictions", paths[1], "--annotations", paths[0], "--out", out]
        if not inproc:
            return run_program(args, self.work, self.log)
        from gebd import cli
        return run_inproc(lambda: cli.main(args), self.log)

    def op(self, k, inproc=False):
        out = os.path.join(self.work, f"op{k}")
        noop_out = os.path.join(self.work, f"noop{k}")
        if self.expected is None:  # the inputs do not change between operations
            self.expected = [oracle.eval_expected(*paths) for paths in self.sets]
        try:
            run = self._eval(self.sets[0], out, inproc)
            op = Op(run.wall_s, run.cpu_s, run.peak_rss_mb)
            if self._fail(op, run, "eval"):
                return op
            global_csv = os.path.join(out, "eval_global.csv")
            op.error = (oracle.check_eval_global(global_csv, self.expected[0])
                        or self._same_as_reference(global_csv))
            if op.error:
                return op
            op.f1 = oracle.primary_f1(global_csv)
            op.disk_mb = disk_bytes(out) / 1e6
            tiny = self._eval(self.sets[1], noop_out, inproc)
            op.noop_s = tiny.wall_s
            if not self._fail(op, tiny, "one-video eval"):
                op.error = oracle.check_eval_global(
                    os.path.join(noop_out, "eval_global.csv"), self.expected[1])
            return op
        finally:
            shutil.rmtree(out, ignore_errors=True)
            shutil.rmtree(noop_out, ignore_errors=True)


WORKLOADS = {w.name: w for w in (PipelineCold, PipelineResume, EvalCorpus)}
