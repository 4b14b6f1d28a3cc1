"""Generic event boundary detection toolkit.

Library surface:

* :mod:`gebd.annotations` - annotation model, parsing, annotator consistency,
  ground-truth selection
* :mod:`gebd.evaluation` - boundary matching and precision/recall/F1 metrics
* :mod:`gebd.flow` - dense optical flow via polynomial expansion
* :mod:`gebd.windows` - candidate timestamps, labels, gray/flow window
  extraction and per-frame feature tables
* :mod:`gebd.classifier` - hand-crafted features and the logistic boundary
  classifier
* :mod:`gebd.postprocess` - score smoothing and peak detection
* :mod:`gebd.container` - "GEBT" binary tensor files and atomic writes
* :mod:`gebd.report` - SVG timelines and per-class bar charts
* :mod:`gebd.synth` - synthetic desk-scale corpus generator
* :mod:`gebd.pipeline` - staged, resumable end-to-end driver (also via the
  ``gebd`` command line tool)
* :mod:`gebd.config` - the flow, window, training and detection settings

Importing the package loads no numpy.  The flow names below
(``farneback_flow``, ``gaussian_pyramid``, ``poly_expansion``,
``to_gray``) import :mod:`gebd.flow`, and with it numpy, on first use.
"""

__version__ = "0.3.0"

from .annotations import (  # noqa: F401
    AnnotationSet,
    AnnotatorTrack,
    RawBoundary,
    VideoMeta,
    compute_f1_consistency,
    load_annotations,
    normalize_track,
    parse_annotations,
    select_gt,
    select_gt_highest,
    select_gt_weighted,
    serialize_annotations,
)
from .evaluation import (  # noqa: F401
    EvalReport,
    MatchResult,
    PRF,
    evaluate_corpus,
    f1_from_pr,
    match_boundaries,
    match_count,
    prf_from_counts,
    prf_from_match,
)
from .config import FlowConfig  # noqa: F401

_FLOW_NAMES = ("farneback_flow", "gaussian_pyramid", "poly_expansion", "to_gray")


def __getattr__(name):
    if name in _FLOW_NAMES:
        from . import flow
        return getattr(flow, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
