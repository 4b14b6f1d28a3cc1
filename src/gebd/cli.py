"""Command-line entry point.

Subcommands::

    gebd synth     generate a synthetic frame-directory corpus + annotations
    gebd validate  parse and validate an annotation file (schema + frame files)
    gebd eval      score a predictions CSV against annotation ground truth
    gebd pipeline  run the staged end-to-end pipeline on a corpus

Config flags come from :class:`PipelineConfig`: ``gebd pipeline`` has one
per field, ``gebd eval`` one per key of the consistency, select-gt and eval
stages, whose code it runs.  Both print the primary ``eval_global.csv`` row.

Standard output carries only machine-parseable ``key=value`` lines;
diagnostics go to standard error.  Exit codes: 0 success, 1 usage, parse or
validation failure, 2 video_id mismatch between files.

:func:`run` is the process entry point (the ``gebd`` script and ``python -m
gebd.cli``): it calls :func:`main`, flushes standard output and error, and
ends the process with ``os._exit``, skipping the interpreter's teardown.
Every output file is closed before :func:`main` returns.  Tests and other
in-process callers call :func:`main`, which returns the exit code.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from .annotations import (AnnotationParseError, AnnotationValidationError,
                          load_annotations)
from .config import check_stride
from .container import read_csv
from .pipeline import (GLOBAL_HEADER, Paths, Pipeline, PipelineConfig,
                       attach_stage_consistency, check_videos, ground_truth,
                       load_config, parse_mode, read_boundary_csv, run_pipeline,
                       write_eval)
from .pnm import check_frames

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
    from .synth import generate_corpus
    try:
        generate_corpus(args.out, args.n_videos, args.seed,
                        duration=args.duration, fps=args.fps,
                        image_size=args.image_size)
    except (OSError, ValueError) as e:
        return _fail(f"cannot write corpus: {e}")
    _emit(videos=args.n_videos, out=args.out, seed=args.seed)
    return EXIT_OK


def cmd_validate(args) -> int:
    try:
        sets = load_annotations(args.annotations)
        check_videos(sets, args.annotations)
        frames_root = args.frames
        if frames_root is None:
            frames_root = os.path.join(os.path.dirname(args.annotations), "frames")
            if not os.path.isdir(frames_root):
                print(f"warning: frames not checked: no --frames given and no "
                      f"directory {frames_root}", file=sys.stderr)
                frames_root = None
        if frames_root is not None:
            for aset in sets:
                check_frames(aset.meta, os.path.join(frames_root, aset.meta.video_id))
    except (AnnotationParseError, AnnotationValidationError, ValueError,
            OSError) as e:
        return _fail(str(e))
    for aset in sets:  # the rule of stage validate, at the default stride
        try:
            check_stride(aset.meta, PipelineConfig.stride)
        except ValueError as e:
            print(f"warning: {e}: gebd pipeline refuses it at the default "
                  f"--stride", file=sys.stderr)
    n_boundaries = sum(len(t.boundaries) for a in sets for t in a.tracks)
    _emit(videos=len(sets), tracks=sum(len(a.tracks) for a in sets),
          boundaries=n_boundaries, ok=1)
    return EXIT_OK


def _config(args) -> PipelineConfig:
    """The ``--config`` file, if the command has one, under the config flags."""
    return load_config(getattr(args, "config", None),
                       **{key: getattr(args, key) for key in args.config_keys})


def _emit_primary(config, out_dir, **extra) -> int:
    """Print the ``eval_global.csv`` row of ``--threshold`` (of the window in
    ``window:`` mode), cell for cell, then ``extra``."""
    window = parse_mode(config.mode)
    cell = f"{config.threshold if window is None else window:.6g}"
    path = os.path.join(out_dir, "eval_global.csv")
    rows = [r for r in read_csv(path, GLOBAL_HEADER) if r[0] == cell]
    if not rows:
        return _fail(f"{path}: no row for threshold {cell}")
    _emit(**dict(zip(GLOBAL_HEADER, rows[0])), **extra)
    return EXIT_OK


def cmd_eval(args) -> int:
    try:
        config = _config(args)
        sets = load_annotations(args.annotations)
        check_videos(sets, args.annotations)
        preds = read_boundary_csv(args.predictions)
        attach_stage_consistency(sets, config)
        write_eval(Paths(os.path.dirname(args.annotations), args.out), sets,
                   config, preds, ground_truth(sets, config))
    except KeyError as e:
        return _fail(str(e), EXIT_MISMATCH)
    except (AnnotationParseError, AnnotationValidationError, ValueError,
            OSError) as e:
        return _fail(str(e))
    return _emit_primary(config, args.out, out=args.out)


def cmd_pipeline(args) -> int:
    try:
        config = _config(args)
        out_dir = args.out or os.path.join(args.corpus, "run")
        run_pipeline(args.corpus, out_dir, config)
    except KeyError as e:
        return _fail(str(e), EXIT_MISMATCH)
    except (AnnotationParseError, AnnotationValidationError, ValueError,
            OSError, RuntimeError) as e:
        return _fail(str(e))
    return _emit_primary(config, out_dir,
                         manifest=os.path.join(out_dir, "manifest.json"),
                         out=out_dir)


def _add_config_flags(parser, keys) -> None:
    """``--<key-with-dashes>`` per config key; ``_config`` reads them back."""
    for key in keys:
        flag = "--" + key.replace("_", "-")
        if PipelineConfig.__dataclass_fields__[key].type == "bool":
            parser.add_argument(flag, action="store_const", const=True)
        else:  # typed by load_config, as a config file value is
            parser.add_argument(flag)
    parser.set_defaults(config_keys=tuple(keys))


def eval_keys() -> tuple:
    """Config keys of the stages whose code ``gebd eval`` runs, from the stage
    table; under a bare ``weighted`` policy select-gt also reads ``seed``."""
    stages = Pipeline("", "", PipelineConfig(gt_policy="weighted"),
                      sets=[]).stages()
    return tuple(dict.fromkeys(
        key for name, _, keys, _, _ in stages
        if name in ("consistency", "select-gt", "eval") for key in keys))


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
    _add_config_flags(p, eval_keys())
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("pipeline", help="run the end-to-end pipeline")
    p.add_argument("corpus", help="corpus root (frames/ + annotations.json)")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--out", help="output directory (default <corpus>/run)")
    _add_config_flags(p, PipelineConfig.__dataclass_fields__)
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


def run():
    """Run :func:`main` and exit with its code, skipping interpreter teardown.

    A command's files are closed by then: each goes through ``atomic_open``,
    the manifest is written in ``Pipeline.run``'s ``finally`` and the flow
    pool is joined in its ``with`` block.  Only the standard streams can
    still hold buffered text, so they are flushed first; if a flush fails,
    the normal exit reports it.  An exception from :func:`main` propagates
    through the normal exit too, traceback included.
    """
    code = main()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None when the descriptor was closed
                stream.flush()
    except OSError:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
