"""Self-check of the benchmark harness at its smallest input size.

Run from the repository root::

    python3 -m pytest bench/test_bench.py -q
"""

import json
import math
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(workloads.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


def bench(capsys, workload, trace=0):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace), "--size", "min"])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1])


def test_workloads_are_the_declared_ones():
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_metric_reported_with_its_unit(capsys, workload, trace):
    code, result = bench(capsys, workload, trace)
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    if trace and workload == "pipeline-cold":
        assert result["metrics"]["trace.stage_share"]["value"] >= 90.0


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_corrupted_eval_global_fails_the_operation(capsys, monkeypatch, workload):
    program = workloads.run_program

    def corrupting(args, cwd, log):
        ran = program(args, cwd, log)
        path = os.path.join(str(args[args.index("--out") + 1]), "eval_global.csv")
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                header, first, *rest = fh.read().splitlines()
            t, p, r, f1 = first.split(",")
            first = f"{t},{p},{r},{(float(f1) + 0.5) % 1.0:.6f}"
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join([header, first, *rest]) + "\n")
        return ran

    monkeypatch.setattr(workloads, "run_program", corrupting)
    code, result = bench(capsys, workload)
    assert code == 0
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_missing_sources_exit_nonzero_without_result(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SRC", str(tmp_path))
    assert run.main(["--workload", "eval-corpus", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
