"""Spans around the public functions of each ergoloc layer, from outside.

``Tracer.install()`` replaces each function listed in ``TARGETS`` with a
timing wrapper in every ``ergoloc`` namespace that holds it (``local``
imports ``global_ergotropy`` by name, ``cli`` reaches ``local`` as a
module, and so on), and ``uninstall()`` puts the originals back.  Spans
stay in memory until ``write()``.

A span records name, start, end, parent, thread and the id of the CLI
invocation it belongs to.  The sweep verbs run rows on a thread pool; a
span opened on a thread with no open span of its own attaches to the CLI
invocation that is running, since the benchmark runs one invocation at a
time.

Only the standard library is imported here, so a child process can import
this module before timing the import of ``ergoloc.cli``.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import threading
import time

# (metric name, module, attribute path).  The metric name's first part is
# the layer; a dotted attribute path names a method on a class.
TARGETS = [
    ("cli.main", "ergoloc.cli", "main"),
    ("qmat.build", "ergoloc.qmat", "BipartiteSystem.build"),
    ("qmat.total_hamiltonian", "ergoloc.qmat", "BipartiteSystem.total_hamiltonian"),
    ("qmat.load_matrix", "ergoloc.qmat", "load_matrix"),
    ("models.jc_system", "ergoloc.models", "jc_system"),
    ("models.jc_bipartite", "ergoloc.models", "jc_bipartite"),
    ("models.jc_phase_family_state", "ergoloc.models", "jc_phase_family_state"),
    ("models.xxz_system", "ergoloc.models", "xxz_system"),
    ("models.xxz_bipartite", "ergoloc.models", "xxz_bipartite"),
    ("models.xxz_bethe_state", "ergoloc.models", "xxz_bethe_state"),
    ("gpo.gpo_basis", "ergoloc.gpo", "gpo_basis"),
    ("local.build_m_matrix", "ergoloc.local", "build_m_matrix"),
    ("local.qubit_local_ergotropy", "ergoloc.local", "qubit_local_ergotropy"),
    ("local.optimize_local_unitary", "ergoloc.local", "optimize_local_unitary"),
    ("local.polar_upper_bound", "ergoloc.local", "polar_upper_bound"),
    ("kernels.ascent_kernel", "ergoloc.kernels", "ascent_kernel"),
    ("kernels.admm_kernel", "ergoloc.kernels", "admm_kernel"),
    ("sdp.choi_cost", "ergoloc.sdp", "choi_cost"),
    ("sdp.sdp_upper_bound", "ergoloc.sdp", "sdp_upper_bound"),
    ("ergotropy.delta_off", "ergoloc.ergotropy", "delta_off"),
    ("ergotropy.switch_off_ergotropy", "ergoloc.ergotropy", "switch_off_ergotropy"),
    ("ergotropy.global_ergotropy", "ergoloc.ergotropy", "global_ergotropy"),
]

LAYERS = ("cli", "qmat", "models", "gpo", "local", "kernels", "sdp", "ergotropy")

_COMMON = ["cli.main", "qmat.build", "gpo.gpo_basis", "local.build_m_matrix"]
_SWEEP = _COMMON + [
    "local.qubit_local_ergotropy", "ergotropy.delta_off",
    "ergotropy.switch_off_ergotropy", "ergotropy.global_ergotropy",
]
_LOCAL = _COMMON + [
    "qmat.load_matrix", "qmat.total_hamiltonian", "local.optimize_local_unitary",
    "local.polar_upper_bound", "kernels.ascent_kernel", "kernels.admm_kernel",
    "sdp.choi_cost", "sdp.sdp_upper_bound", "ergotropy.global_ergotropy",
]
# functions each workload must reach; zero calls fails the traced run
REQUIRED = {
    "jc_sweep": _SWEEP + ["models.jc_system", "models.jc_phase_family_state"],
    "xxz_ring": _SWEEP + [
        "models.xxz_system", "models.xxz_bethe_state", "qmat.total_hamiltonian",
    ],
    "local_small": _LOCAL + ["local.qubit_local_ergotropy"],
    "local_large": _LOCAL,
}

# counts that must repeat exactly across traced runs at one seed
EXACT_COUNTS = [
    "kernels.ascent.iterations",
    "kernels.admm.iterations",
    "kernels.ascent_kernel.calls",
    "models.xxz_system.calls",
    "ergotropy.delta_off.calls",
]

# per-function metrics reported (calls and/or self time)
_CALLS = [
    "qmat.build", "qmat.total_hamiltonian", "models.jc_system", "models.xxz_system",
    "gpo.gpo_basis", "local.build_m_matrix", "kernels.ascent_kernel",
    "kernels.admm_kernel", "ergotropy.delta_off", "ergotropy.global_ergotropy",
]
_SELF = [
    "qmat.build", "qmat.total_hamiltonian", "qmat.load_matrix", "models.jc_system",
    "models.jc_phase_family_state", "models.xxz_system", "models.xxz_bethe_state",
    "local.build_m_matrix", "local.qubit_local_ergotropy",
    "local.optimize_local_unitary", "local.polar_upper_bound",
    "kernels.ascent_kernel", "kernels.admm_kernel", "sdp.choi_cost",
    "sdp.sdp_upper_bound", "ergotropy.delta_off", "ergotropy.switch_off_ergotropy",
    "ergotropy.global_ergotropy",
]


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units["cli.pool_utilization"] = "fraction"
    for name in _CALLS:
        units[f"{name}.calls"] = "count"
    for name in _SELF:
        units[f"{name}.self_s"] = "s"
    units.update({
        "kernels.ascent.iterations": "count",
        "kernels.ascent.us_per_iteration": "us",
        "kernels.ascent.useful_frac": "fraction",
        "kernels.ascent.cap_hits": "count",
        "kernels.ascent.stalls": "count",
        "kernels.admm.iterations": "count",
        "kernels.admm.us_per_iteration": "us",
        "sdp.nonconverged": "count",
        "trace.overhead_frac": "fraction",
    })
    return units


def _ascent_info(out):
    _u, value, _gnorm, iters, status = out
    return {"value": float(value), "iterations": int(iters), "status": int(status)}


def _admm_info(out):
    return {"iterations": int(out[4])}


_INFO = {"kernels.ascent_kernel": _ascent_info, "kernels.admm_kernel": _admm_info}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._invocation = None  # span id of the running cli.main
        self._patched: list[tuple[object, str, object]] = []

    def _new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def _wrap(self, name: str, fn):
        tracer = self
        info = _INFO.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            sid = tracer._new_id()
            parent = stack[-1] if stack else tracer._invocation
            if name == "cli.main":
                tracer._invocation = sid
            invocation = tracer._invocation
            span = {
                "id": sid, "name": name, "parent": parent,
                "thread": threading.get_ident(), "invocation": invocation,
            }
            stack.append(sid)
            span["start"] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            else:
                if info is not None:
                    span["info"] = info(out)
                return out
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                if name == "cli.main":
                    tracer._invocation = None
                tracer.spans.append(span)

        return wrapper

    def install(self) -> None:
        """Swap every target for its wrapper in all ergoloc namespaces."""
        modules = [m for k, m in sys.modules.items() if k == "ergoloc" or k.startswith("ergoloc.")]
        for name, module, path in TARGETS:
            owner = importlib.import_module(module)
            if "." in path:  # method on a class: patch the class once
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__))
                else:
                    new = self._wrap(name, raw)
                self._patched.append((cls, attr, raw))
                setattr(cls, attr, new)
                continue
            orig = getattr(owner, path)
            new = self._wrap(name, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patched.append((mod, key, orig))
                        setattr(mod, key, new)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)


def _union_length(intervals) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def summarize(spans: list[dict]) -> dict:
    """Per-layer metrics of one traced pass (trace.overhead_frac excluded).

    Self time is a span's duration minus the union of its children's
    intervals, so parallel worker spans under one CLI invocation are not
    subtracted twice; a layer's self time sums the self times of its spans.
    """
    children: dict = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    own = {}
    for s in spans:
        kids = [(c["start"], c["end"]) for c in children.get(s["id"], [])]
        own[s["id"]] = (s["end"] - s["start"]) - _union_length(kids)

    units = metric_units()
    out = {name: 0.0 if unit != "count" else 0 for name, unit in units.items()}
    calls: dict = {}
    for s in spans:
        calls[s["name"]] = calls.get(s["name"], 0) + 1
        layer = s["name"].split(".")[0]
        out[f"{layer}.self_s"] += own[s["id"]]
        if f"{s['name']}.self_s" in out:
            out[f"{s['name']}.self_s"] += own[s["id"]]
    for name in _CALLS:
        out[f"{name}.calls"] = calls.get(name, 0)

    busy = capacity = 0.0
    for inv in (s for s in spans if s["name"] == "cli.main"):
        by_thread: dict = {}
        for c in children.get(inv["id"], []):
            by_thread.setdefault(c["thread"], []).append((c["start"], c["end"]))
        # pool workers when there are any, else the invocation's own thread
        workers = {t: iv for t, iv in by_thread.items() if t != inv["thread"]} or by_thread
        busy += sum(_union_length(iv) for iv in workers.values())
        capacity += (inv["end"] - inv["start"]) * max(1, len(workers))
    out["cli.pool_utilization"] = busy / capacity if capacity else 0.0

    ascent = [s for s in spans if s["name"] == "kernels.ascent_kernel"]
    iters = sum(s["info"]["iterations"] for s in ascent if "info" in s)
    out["kernels.ascent.iterations"] = iters
    if iters:
        out["kernels.ascent.us_per_iteration"] = 1e6 * out["kernels.ascent_kernel.self_s"] / iters
    best: dict = {}
    for s in ascent:
        if "info" in s:
            best[s["parent"]] = max(best.get(s["parent"], float("-inf")), s["info"]["value"])
    useful = sum(1 for s in ascent if "info" in s and s["info"]["value"] >= best[s["parent"]] - 1e-9)
    out["kernels.ascent.useful_frac"] = useful / len(ascent) if ascent else 0.0
    out["kernels.ascent.cap_hits"] = sum(1 for s in ascent if s.get("info", {}).get("status") == 2)
    out["kernels.ascent.stalls"] = sum(1 for s in ascent if s.get("info", {}).get("status") == 1)

    admm_iters = sum(s["info"]["iterations"] for s in spans if s["name"] == "kernels.admm_kernel" and "info" in s)
    out["kernels.admm.iterations"] = admm_iters
    if admm_iters:
        out["kernels.admm.us_per_iteration"] = 1e6 * out["kernels.admm_kernel.self_s"] / admm_iters
    out["sdp.nonconverged"] = sum(
        1 for s in spans if s["name"] == "sdp.sdp_upper_bound" and s.get("error") == "NonConvergenceError"
    )
    out.pop("trace.overhead_frac")
    out["_calls"] = calls
    return out


def combine(passes: list[dict]) -> dict:
    """Median of each time over traced passes; counts from the first pass."""
    units = metric_units()
    out = {}
    for name in passes[0]:
        if name.startswith("_"):
            continue
        if units[name] == "count":
            out[name] = passes[0][name]
        else:
            out[name] = statistics.median(p[name] for p in passes)
    return out
