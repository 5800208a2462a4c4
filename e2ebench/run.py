"""End-to-end benchmark of the ergoloc CLI.

Usage, from the root of a checkout:

    python3 e2ebench/run.py --workload jc_sweep --seed 0 --seconds 30 --trace 0
    python3 e2ebench/run.py --workload all            # every workload, one table each

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median warm pass),
``setup_s`` (median import time plus the median cold-minus-warm time of the
first invocation, over ``SETUP_SAMPLES`` fresh processes) and ``peak_rss_mb`` (fresh process that
ran only this workload).  ``--trace 1`` reports the per-layer metrics of
``tracer.py`` plus ``trace.overhead_frac``.  Every output is checked
(``workloads.py``); ``fail_frac`` = failed / attempted.  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

The package is imported from ``src/`` of the checkout (it need not be
installed).  Inputs, outputs, spans and a full result record go to
``e2ebench/_work/<workload>/``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_SAMPLES = 3  # fresh processes timed per run for setup_s
MIN_PASSES = 3  # warm passes per run, however long a pass takes
TIME_LIMIT_S = 170.0  # whole run, children included

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return "unknown (not a git checkout)"
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    path = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(path):
        with open(path) as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    return "unknown"


def _blas_threads() -> str:
    """Thread count of the OpenBLAS bundled with numpy, asked at run time."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                return str(fn())
    return "unknown"


def environment(seed: int) -> dict:
    import scipy

    import ergoloc

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "ERGOLOC_THREADS": os.environ.get("ERGOLOC_THREADS"),
        "ERGOLOC_BACKEND": os.environ.get("ERGOLOC_BACKEND"),
        "backend_name": ergoloc.backend_name(),
        "ergoloc_import": "src/ on sys.path (not installed): "
        + os.path.relpath(ergoloc.__file__, ROOT),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def high_percentile(samples) -> str:
    """Highest percentile with at least ten samples beyond it, if any."""
    n = len(samples)
    if n < 20:
        return f"n={n}: too few samples for a percentile above the median"
    q = math.floor(100.0 * (1.0 - 10.0 / n))
    value = statistics.quantiles(samples, n=100)[q - 1]
    return f"p{q}={value:.6g}"


def _child(spec: dict, work: str, deadline: float) -> dict:
    spec_path = os.path.join(work, f"{spec['tag']}_spec.json")
    spec["result_path"] = os.path.join(work, f"{spec['tag']}_result.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), spec_path],
        check=True, timeout=max(1.0, deadline - time.monotonic()),
    )
    with open(spec["result_path"]) as fh:
        return json.load(fh)


def _check_passes(plan, passes) -> tuple[int, int, list]:
    attempted = failed = 0
    notes: list = []
    for p in passes:
        a, f, n = workloads.check(plan, p["outputs"], p["codes"])
        attempted += a
        failed += f
        notes += n[: max(0, 5 - len(notes))]
    return attempted, failed, notes


def run_workload(name: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    work = os.path.join(HERE, "_work", name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "inputs"))
    plan = workloads.make_plan(name, seed, os.path.join(work, "inputs"))
    base = {
        "src": SRC, "invocations": plan.invocations, "out_dir": work,
        "seconds": seconds, "min_passes": MIN_PASSES,
    }
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace}

    if trace:
        res = _child(dict(base, mode="trace", tag="trace",
                          spans_path=os.path.join(work, "spans.json")), work, deadline)
        attempted, failed, notes = _check_passes(plan, res["untraced"] + res["traced"])
        attempted, failed = attempted + 1, failed + (res["cold_first_code"] != 0)
        metrics = tracer.combine(res["summaries"])
        untraced = statistics.median(sum(p["times"]) for p in res["untraced"])
        traced = statistics.median(sum(p["times"]) for p in res["traced"])
        metrics["trace.overhead_frac"] = traced / untraced - 1.0
        calls = res["summaries"][0]["_calls"]
        missing = [f for f in tracer.REQUIRED[name] if calls.get(f, 0) == 0]
        if missing:
            notes.append(f"zero calls recorded for {missing}: traced run fails")
        units = tracer.metric_units()
        record.update(passes={"untraced": len(res["untraced"]), "traced": len(res["traced"])},
                      calls=calls, missing=missing,
                      spans=os.path.relpath(os.path.join(work, "spans.json"), ROOT))
    else:
        res = _child(dict(base, mode="measure", tag="measure"), work, deadline)
        runs = [res] + [
            _child(dict(base, mode="setup", tag=f"setup{i}"), work, deadline)
            for i in range(1, SETUP_SAMPLES)
        ]
        passes = res["passes"]
        walls = [sum(p["times"]) for p in passes]
        warm_first = statistics.median(p["times"][0] for p in passes)
        # clip once, after the median: clipping each sample would turn the
        # timing noise of a seconds-long first invocation into a bias
        imports = [r["import_s"] for r in runs]
        colds = [r["cold_first_s"] for r in runs]
        lazy = max(0.0, statistics.median(colds) - warm_first)
        attempted, failed, notes = _check_passes(plan, passes)
        attempted += len(runs)
        failed += sum(r["cold_first_code"] != 0 for r in runs)
        missing = []
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(imports) + lazy,
            "peak_rss_mb": res["peak_rss_mb"],
        }
        units = END_TO_END
        record.update(
            wall_samples=walls, wall_high=high_percentile(walls),
            import_samples=imports, cold_first=colds, warm_first=warm_first,
        )
    record.update(
        metrics={k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        attempted=attempted, failed=failed, notes=notes,
        correct=failed == 0 and not missing,
    )
    return record


def _print_record(rec: dict) -> None:
    mode = "traced" if rec["trace"] else "untraced"
    print(f"== {rec['workload']}  seed={rec['seed']}  {mode}  seconds={rec['seconds']}")
    for name, m in rec["metrics"].items():
        extra = ""
        if name == "wall_s":
            extra = f"  (median of {len(rec['wall_samples'])} warm passes; {rec['wall_high']})"
        elif name == "setup_s":
            extra = f"  (medians over {len(rec['import_samples'])} fresh processes)"
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}{extra}")
    frac = rec["failed"] / rec["attempted"]
    print(f"  {'fail_frac':<40} {frac:>14.6g} fraction  ({rec['failed']}/{rec['attempted']} items)")
    for note in rec["notes"]:
        print(f"  FAIL {note}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(workloads.NAMES) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ergoloc", "cli.py")):
        sys.stderr.write(f"error: no ergoloc sources under {SRC}\n")
        return 2
    sys.path.insert(0, SRC)
    deadline = time.monotonic() + TIME_LIMIT_S
    names = workloads.NAMES if args.workload == "all" else [args.workload]
    if args.workload == "all":
        deadline += TIME_LIMIT_S * (len(names) - 1)

    env = environment(args.seed)
    records = []
    for name in names:
        rec = run_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
        rec["env"] = env
        with open(os.path.join(HERE, "_work", name, "record.json"), "w") as fh:
            json.dump(rec, fh, indent=1)
        _print_record(rec)
        records.append(rec)
    print("env " + json.dumps(env, sort_keys=True))

    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0 if all(not r.get("missing") for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
