"""Command-line entry point.

Subcommands::

    gebd synth     generate a synthetic frame-directory corpus + annotations
    gebd validate  parse and validate an annotation file (and frame counts)
    gebd eval      score a predictions CSV against annotation ground truth
    gebd pipeline  run the staged end-to-end pipeline on a corpus

Standard output carries only machine-parseable ``key=value`` lines;
diagnostics go to standard error.  Exit codes: 0 success, 1 usage, parse or
validation failure, 2 video_id mismatch between files.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from .annotations import (AnnotationParseError, AnnotationValidationError,
                          attach_consistency, load_annotations, select_gt)
from .container import read_csv
from .evaluation import (GLOBAL_HEADER, evaluate_corpus, write_global_csv,
                         write_per_class_csv, write_per_video_csv)
from .pipeline import (PipelineConfig, load_config, parse_mode,
                       parse_thresholds, read_boundary_csv, run_pipeline)
from .synth import generate_corpus
from .windows import FrameSequence

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_MISMATCH = 2


def _emit(**kv):
    for key, value in kv.items():
        print(f"{key}={value}")


def _fail(message, code=EXIT_INVALID):
    print(f"error: {message}", file=sys.stderr)
    return code


def cmd_synth(args) -> int:
    try:
        generate_corpus(args.out, args.n_videos, args.seed,
                        duration=args.duration, fps=args.fps,
                        image_size=args.image_size)
    except OSError as e:
        return _fail(f"cannot write corpus: {e}")
    _emit(videos=args.n_videos, out=args.out, seed=args.seed)
    return EXIT_OK


def cmd_validate(args) -> int:
    try:
        sets = load_annotations(args.annotations)
        frames_root = args.frames
        if frames_root is None:
            guess = os.path.join(os.path.dirname(args.annotations), "frames")
            frames_root = guess if os.path.isdir(guess) else None
        if frames_root is not None:
            for aset in sets:
                FrameSequence(aset.meta,
                              os.path.join(frames_root, aset.meta.video_id))
    except (AnnotationParseError, AnnotationValidationError, ValueError,
            OSError) as e:
        return _fail(str(e))
    n_boundaries = sum(len(t.boundaries) for a in sets for t in a.tracks)
    _emit(videos=len(sets), tracks=sum(len(a.tracks) for a in sets),
          boundaries=n_boundaries, ok=1)
    return EXIT_OK


def _select_gt(sets, policy, consistency_threshold, default_seed):
    gt = {}
    for aset in sets:
        if any(t.f1_consistency is None for t in aset.tracks):
            attach_consistency(aset, consistency_threshold)
        gt[aset.meta.video_id] = select_gt(aset, policy, default_seed).timestamps
    return gt


def cmd_eval(args) -> int:
    try:
        sets = load_annotations(args.annotations)
        preds = read_boundary_csv(args.predictions)
        gt = _select_gt(sets, args.gt_policy, args.consistency_threshold,
                        args.seed)
        durations = {a.meta.video_id: a.meta.duration for a in sets}
        classes = {a.meta.video_id: a.meta.class_label for a in sets}
        mode, window = parse_mode(args.mode)
        thresholds = parse_thresholds(args.thresholds)
        report = evaluate_corpus(preds, gt, durations, classes,
                                 thresholds=thresholds,
                                 primary_threshold=args.threshold,
                                 mode=mode, window=window, policy=args.policy)
    except KeyError as e:
        return _fail(str(e), EXIT_MISMATCH)
    except (AnnotationParseError, AnnotationValidationError, ValueError,
            OSError) as e:
        return _fail(str(e))
    os.makedirs(args.out, exist_ok=True)
    write_global_csv(os.path.join(args.out, "eval_global.csv"), report)
    write_per_video_csv(os.path.join(args.out, "eval_per_video.csv"), report)
    write_per_class_csv(os.path.join(args.out, "eval_per_class.csv"), report,
                        classes)
    primary = next(r for r in report.global_prf
                   if r.threshold == report.primary_threshold)
    _emit(threshold=primary.threshold,
          precision=f"{primary.precision:.4f}",
          recall=f"{primary.recall:.4f}",
          f1=f"{primary.f1:.4f}",
          out=args.out)
    return EXIT_OK


def cmd_pipeline(args) -> int:
    overrides = {name: getattr(args, name)
                 for name in PipelineConfig.__dataclass_fields__}
    try:
        config = load_config(args.config, **overrides)
        out_dir = args.out or os.path.join(args.corpus, "run")
        run_pipeline(args.corpus, out_dir, config)
    except KeyError as e:
        return _fail(str(e), EXIT_MISMATCH)
    except (AnnotationParseError, AnnotationValidationError, ValueError,
            OSError, RuntimeError) as e:
        return _fail(str(e))
    _, window = parse_mode(config.mode)
    cell = f"{config.threshold if window is None else window:.6g}"
    path = os.path.join(out_dir, "eval_global.csv")
    rows = [r for r in read_csv(path, GLOBAL_HEADER) if r[0] == cell]
    if not rows:
        return _fail(f"{path}: no row for threshold {cell}")
    _emit(**dict(zip(GLOBAL_HEADER, rows[0])),
          manifest=os.path.join(out_dir, "manifest.json"), out=out_dir)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gebd",
        description="generic event boundary detection toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--n-videos", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--duration", type=float, default=10.0)
    p.add_argument("--fps", type=float, default=10.0)
    p.add_argument("--image-size", type=int, default=64)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("validate", help="validate an annotation file")
    p.add_argument("annotations")
    p.add_argument("--frames", help="frame-directory root to check counts")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("eval", help="evaluate a predictions CSV")
    p.add_argument("--predictions", required=True)
    p.add_argument("--annotations", required=True)
    p.add_argument("--out", default="eval_out")
    p.add_argument("--gt-policy", default="highest",
                   help="highest | weighted:<seed>")
    p.add_argument("--threshold", type=float, default=0.05,
                   help="primary relative-distance threshold")
    p.add_argument("--thresholds", default="0.05:0.05:0.5",
                   help="sweep grid, lo:step:hi or comma list")
    p.add_argument("--mode", default="relative",
                   help="relative | window:<seconds>")
    p.add_argument("--policy", default="optimal",
                   choices=("optimal", "greedy_nearest"))
    p.add_argument("--consistency-threshold", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("pipeline", help="run the end-to-end pipeline")
    p.add_argument("corpus", help="corpus root (frames/ + annotations.json)")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--out", help="output directory (default <corpus>/run)")
    for name, field in PipelineConfig.__dataclass_fields__.items():
        flag = "--" + name.replace("_", "-")
        if field.type == "bool":
            p.add_argument(flag, action="store_const", const=True)
        else:  # typed by load_config, as a config file value is
            p.add_argument(flag)
    p.set_defaults(func=cmd_pipeline)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:  # argparse exits 2 on a usage error; 2 is a mismatch here
        return EXIT_INVALID if e.code == 2 else e.code
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
