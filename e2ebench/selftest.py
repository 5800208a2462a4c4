"""Tests of the benchmark itself (not collected by the package's test suite).

Run from the root of a checkout, either way:

    python3 e2ebench/selftest.py
    python3 -m pytest -q e2ebench/selftest.py

- the output checks count one perturbed output item as one failure, for
  every workload;
- two traced runs at one seed give exactly the same solver and call counts
  (``tracer.EXACT_COUNTS``), pass the zero-call check and report every
  per-layer metric that BENCHMARK.json lists;
- BENCHMARK.json names exactly the metrics run.py reports;
- in a directory holding only BENCHMARK.json and the benchmark, run.py
  exits non-zero without printing a result.

Takes a few minutes on two cores (the traced runs dominate).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

WORK = os.path.join(HERE, "_work", "selftest")


def _fresh(sub: str) -> str:
    path = os.path.join(WORK, sub)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _one_pass(name: str, seed: int):
    """Run one pass in-process and return (plan, outputs, exit codes)."""
    from ergoloc import cli

    work = _fresh(name)
    plan = workloads.make_plan(name, seed, work)
    outputs, codes = [], []
    for i, argv in enumerate(plan.invocations):
        out = os.path.join(work, f"out_{i:02d}")
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append(cli.main([a.replace("{out}", out) for a in argv]))
        outputs.append(out)
    return plan, outputs, codes


def _edit_csv_cell(path: str, row: int, col: int, delta: float) -> None:
    with open(path) as fh:
        lines = fh.read().splitlines()
    cells = lines[row].split(",")
    cells[col] = repr(float(cells[col]) + delta)
    lines[row] = ",".join(cells)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _perturbed_counts_once(name: str, perturb) -> None:
    plan, outputs, codes = _one_pass(name, seed=1)
    attempted, failed, notes = workloads.check(plan, outputs, codes)
    assert attempted > 0 and failed == 0, (name, notes)
    perturb(outputs, codes)
    attempted2, failed2, _ = workloads.check(plan, outputs, codes)
    assert attempted2 == attempted and failed2 == 1, (name, failed2)


def test_perturbed_jc_row_fails():
    # delta_off of one row off by 1e-6 (column 3; row 1 is the first data row)
    _perturbed_counts_once("jc_sweep", lambda outs, codes: _edit_csv_cell(outs[0], 7, 3, 1e-6))


def test_perturbed_xxz_row_fails():
    # local_numeric of one k row off by 1e-6
    _perturbed_counts_once("xxz_ring", lambda outs, codes: _edit_csv_cell(outs[0], 2, 5, 1e-6))


def _lower_sdp(path: str) -> None:
    with open(path) as fh:
        payload = json.load(fh)
    payload["values"]["sdp"] = payload["values"]["optimize"] - 1e-3
    with open(path, "w") as fh:
        json.dump(payload, fh)


def test_perturbed_local_small_instance_fails():
    _perturbed_counts_once("local_small", lambda outs, codes: _lower_sdp(outs[3]))


def test_local_large_exit_code_fails():
    # exit 3 (non-convergence) on one instance counts as a failure
    def perturb(outs, codes):
        codes[1] = 3

    _perturbed_counts_once("local_large", perturb)


def _traced(name: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, result
    return result["metrics"]


def test_traced_counts_repeat_exactly():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        per_layer = {m["name"] for m in json.load(fh)["per_layer"]}
    for name in workloads.NAMES:
        first, second = _traced(name, 0), _traced(name, 0)
        assert set(first) == per_layer, (name, set(first) ^ per_layer)
        for count in tracer.EXACT_COUNTS:
            assert first[count]["value"] == second[count]["value"], (name, count)


def test_benchmark_json_names_match():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.metric_units()
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.NAMES)


def test_bare_directory_exits_nonzero():
    bare = _fresh("bare")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    os.makedirs(os.path.join(bare, "e2ebench"))
    for f in os.listdir(HERE):
        if f.endswith((".py", ".md")):
            shutil.copy(os.path.join(HERE, f), os.path.join(bare, "e2ebench"))
    proc = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "jc_sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


if __name__ == "__main__":
    tests = [(k, v) for k, v in sorted(globals().items()) if k.startswith("test_")]
    for key, fn in tests:
        fn()
        print(f"ok  {key}", flush=True)
