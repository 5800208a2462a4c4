"""Fresh-process worker: times the import, then runs CLI invocations in-process.

Usage (from run.py): python3 e2ebench/child.py SPEC.json

SPEC holds the mode, the invocations of one workload pass, the output
directory, the measuring time and the path of the result file.  Modes:

- ``setup``: time ``import ergoloc.cli`` and one cold run of the first
  invocation, then exit.
- ``measure``: the same, then whole warm passes while one more pass fits
  in the measuring time (at least ``min_passes``).  Reports every
  invocation time and the peak RSS of this process, which ran nothing but
  the workload.
- ``trace``: after the cold first invocation, alternate untraced and
  traced passes while one more pair fits in the measuring time (at least
  one each).  Spans of the last traced pass are written to JSON, and the
  per-layer metrics of every traced pass are reported.

Only the standard library is imported before the timed import, so the
import time includes numpy and scipy as a CLI user pays it.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback


def _run(cli, argv, out_path):
    """One invocation; returns (seconds, exit code).  Exceptions count as exit -1."""
    argv = [a.replace("{out}", out_path) for a in argv]
    t0 = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects arguments this way
        code = exc.code if isinstance(exc.code, int) else -1
    except Exception:
        traceback.print_exc()
        code = -1
    return time.perf_counter() - t0, code


def _room(start: float, last: float, seconds: float) -> bool:
    """Whether one more round, as long as the last one, ends within ``seconds``."""
    now = time.perf_counter()
    return now + (now - last) - start <= seconds


def _pass(cli, invocations, out_dir, tag):
    times, codes, outputs = [], [], []
    for i, argv in enumerate(invocations):
        out = os.path.join(out_dir, f"{tag}_{i:02d}.out")
        if os.path.exists(out):
            os.remove(out)
        dt, code = _run(cli, argv, out)
        times.append(dt)
        codes.append(code)
        outputs.append(out)
    return {"times": times, "codes": codes, "outputs": outputs}


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    invocations, out_dir = spec["invocations"], spec["out_dir"]

    t0 = time.perf_counter()
    import ergoloc.cli as cli

    result = {"import_s": time.perf_counter() - t0, "ergoloc_file": cli.__file__}
    first = os.path.join(out_dir, f"{spec['tag']}_cold.out")
    result["cold_first_s"], result["cold_first_code"] = _run(cli, invocations[0], first)

    if spec["mode"] == "measure":
        passes = []
        start = last = time.perf_counter()
        while len(passes) < spec["min_passes"] or _room(start, last, spec["seconds"]):
            last = time.perf_counter()
            passes.append(_pass(cli, invocations, out_dir, f"{spec['tag']}_p{len(passes)}"))
        result["passes"] = passes
    elif spec["mode"] == "trace":
        import tracer as tr

        untraced, traced, summaries = [], [], []
        start = last = time.perf_counter()
        while not traced or _room(start, last, spec["seconds"]):
            last = time.perf_counter()
            untraced.append(_pass(cli, invocations, out_dir, f"u{len(untraced)}"))
            tracer = tr.Tracer()
            tracer.install()
            try:
                traced.append(_pass(cli, invocations, out_dir, f"t{len(traced)}"))
            finally:
                tracer.uninstall()
            summaries.append(tr.summarize(tracer.spans))
        tracer.write(spec["spans_path"])
        result.update(untraced=untraced, traced=traced, summaries=summaries)

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(spec["result_path"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
