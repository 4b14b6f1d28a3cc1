#!/usr/bin/env python3
"""Walkthrough: the whole pipeline on a generated corpus.

Generates a few synthetic moving-rectangle videos with planted boundaries,
runs every stage (flow and per-frame features, candidate sampling,
training, scoring, detection, evaluation, reports), and prints the
headline numbers.  Roughly ten seconds of compute;
artifacts land in ./demo_run so you can inspect the CSVs and SVGs.

The same flow is available from the shell:

    gebd synth --out demo_corpus --n-videos 4 --seed 21
    gebd pipeline demo_corpus --out demo_run --image-side 32 --seed 21
"""

import os

from gebd.pipeline import (PipelineConfig, read_boundary_csv, run_pipeline)
from gebd.synth import generate_corpus

corpus = "demo_corpus"
out = "demo_run"

print("generating 4 videos with planted boundaries ...")
planted = generate_corpus(corpus, n_videos=4, seed=21, duration=8.0,
                          fps=10.0, image_size=64)

config = PipelineConfig(seed=21, workers=2, image_side=32)
manifest = run_pipeline(corpus, out, config)

print("\nstage timings:")
for stage in manifest["stages"]:
    flag = "skipped" if stage["skipped"] else f'{stage["seconds"]:.2f}s'
    print(f"  {stage['name']:>12}: {flag}")

predictions = read_boundary_csv(os.path.join(out, "predictions.csv"))
print("\nplanted vs detected:")
for vid in sorted(planted):
    want = " ".join(f"{t:.2f}" for t in planted[vid])
    got = " ".join(f"{t:.2f}" for t in predictions.get(vid, []))
    print(f"  {vid}  planted [{want}]")
    print(f"  {' ' * len(vid)}  detected [{got}]")

with open(os.path.join(out, "eval_global.csv")) as fh:
    header, first = fh.readline().strip(), fh.readline().strip()
print(f"\n{header}\n{first}")
print(f"\ntimelines and class charts: {out}/report/")
