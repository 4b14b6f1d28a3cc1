"""Outside-in tracer: wraps public ``gebd`` callables and times every call.

The tracer changes nothing in the package's files.  For each target it
replaces the function object at every ``gebd`` module attribute bound to it,
so calls through a by-name import (``gebd.windows.farneback_flow``) are seen
as well as calls inside the defining module.  A target that no longer exists
raises :class:`MissingTarget` naming it, so a refactor that renames or removes
a traced function has to update this table instead of reading as zero work.

Spans are ``(id, parent_id, name, start, end)`` tuples kept in memory.  A
span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time


class MissingTarget(RuntimeError):
    pass


def _rows(args, kwargs):
    dataset = args[0] if args else kwargs["dataset"]
    if isinstance(dataset, tuple) and len(dataset) == 2:
        dataset = dataset[0]
    return {"rows": len(dataset)}


def _cells(args, kwargs):
    pred = args[0] if args else kwargs["predictions"]
    gt = args[1] if len(args) > 1 else kwargs["ground_truth"]
    return {"cells": len(pred) * len(gt)}


def _file_bytes(args, kwargs):
    return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}


STAGES = ("validate", "consistency", "select_gt", "flow", "sample", "train",
          "score", "detect", "eval", "report")

# (span name, module under gebd, attribute path there, per-call counter)
TARGETS = (
    ("pnm.read_pnm", "pnm", "read_pnm", None),
    ("container.write_tensor_file", "container", "write_tensor_file", _file_bytes),
    ("container.read_tensor_file", "container", "read_tensor_file", _file_bytes),
    ("annotations.load_annotations", "annotations", "load_annotations", None),
    ("annotations.attach_consistency", "annotations", "attach_consistency", None),
    ("flow.farneback_flow", "flow", "farneback_flow", None),
    ("flow.gaussian_pyramid", "flow", "gaussian_pyramid", None),
    ("flow.poly_expansion", "flow", "poly_expansion", None),
    ("flow.flow_step", "flow", "flow_step", None),
    ("flow.correlate1d", "flow", "correlate1d", None),
    ("windows.extract_window", "windows", "extract_window", None),
    ("classifier.window_features", "classifier", "window_features", None),
    ("classifier.train_logistic", "classifier", "train_logistic", _rows),
    ("classifier.score_sequence", "classifier", "score_sequence", None),
    ("postprocess.scores_to_boundaries", "postprocess", "scores_to_boundaries", None),
    ("report.render_timeline", "report", "render_timeline", None),
    ("evaluation.match_boundaries", "evaluation", "match_boundaries", _cells),
    ("evaluation.evaluate_corpus", "evaluation", "evaluate_corpus", None),
    ("pipeline.Pipeline.run", "pipeline", "Pipeline.run", None),
) + tuple((f"pipeline.stage_{s}", "pipeline", f"Pipeline.stage_{s}", None)
          for s in STAGES)


class Tracer:
    """Install with :meth:`install`, run the program, then :meth:`uninstall`."""

    def __init__(self):
        self.spans = []
        self.stats = {name: [0, 0.0, 0.0] for name, *_ in TARGETS}  # calls, total, self
        self.counts = {}
        self._stack = []  # [span id, child seconds] per open span
        self._patches = []  # (owner, attribute, original)

    def reset(self):
        self.spans.clear()
        self.counts.clear()
        for st in self.stats.values():
            st[:] = [0, 0.0, 0.0]

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        resolved = [(name, *_resolve(module, path), counter)
                    for name, module, path, counter in TARGETS]
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "gebd" or n.startswith("gebd."))]
        for name, owner, attr, fn, counter in resolved:
            wrapped = self._wrap(name, fn, counter)
            if isinstance(owner, type):
                self._patch(owner, attr, fn, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, key, fn, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, original, wrapped):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def _wrap(self, name, fn, counter):
        spans, stack, stat, counts = self.spans, self._stack, self.stats[name], self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            # every span started so far is either finished or still open
            frame = [len(spans) + len(stack), 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                if parent is not None:
                    parent[1] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[1]
                spans.append((frame[0], parent[0] if parent else None, name, start, end))
            if counter is not None:
                for key, value in counter(args, kwargs).items():
                    counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + value
            return result

        return traced

    def value(self, metric, frames):
        """One per-layer metric, ``<span>.<quantity>``, from the recorded calls."""
        span, _, quantity = metric.rpartition(".")
        if span not in self.stats:
            raise MissingTarget(f"metric {metric!r} names no traced callable")
        calls, total, self_s = self.stats[span]
        if quantity == "calls":
            return calls
        if quantity == "total_s":
            return total
        if quantity == "self_s":
            return self_s
        if quantity.endswith("_per_frame"):
            return calls / frames if frames else 0.0
        return self.counts.get(metric, 0)


def _resolve(module, path):
    """``(owner, attribute, function)`` for ``gebd.<module>.<path>``."""
    try:
        owner = importlib.import_module(f"gebd.{module}")
    except ImportError as e:
        raise MissingTarget(f"gebd.{module}: {e}") from e
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            raise MissingTarget(f"gebd.{module}.{path} no longer exists")
    fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if not callable(fn):
        raise MissingTarget(f"gebd.{module}.{path} no longer exists")
    return owner, attr, fn
