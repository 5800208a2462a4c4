"""Seeded inputs and output checks for the four benchmark workloads.

A workload turns a seed into a list of CLI invocations (argv lists for
``ergoloc.cli.main``) plus whatever reference parameters its checks need.
Inputs are generated here with numpy alone, so the program under test only
ever sees the CLI arguments and the JSON matrix files written below.

Each check returns ``(attempted, failed, notes)``: the number of checked
output items, how many of them failed and a few human-readable reasons.
An item fails when its output is missing or non-finite, its exit code is
not 0, or it is off its reference by more than the stated tolerance.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

NAMES = ("jc_sweep", "xxz_ring", "local_small", "local_large")

JC_N = 10  # photon level of the dressed pair (CLI default)
JC_STEPS = 2000  # CLI default sweep 0:20pi:2000
JC_SUBSAMPLE = 16  # rows re-run through the per-point dense pipeline
XXZ_SITES = 9
LOCAL_SMALL = [(2, d_e) for d_e in (2, 3, 4, 5, 6) for _ in range(2)] + [
    (3, d_e) for d_e in (2, 3, 4) for _ in range(2)
]
LOCAL_LARGE = [(3, 16), (4, 8)]

TOL_PIPELINE = 1e-9
TOL_QUBIT_OPT = 1e-6
TOL_QUBIT_SDP = 1e-4
TOL_ORDER = 1e-6


class Plan:
    """Invocations of one workload pass plus the parameters the checks need."""

    def __init__(self, name, seed, invocations, params):
        self.name = name
        self.seed = seed
        self.invocations = invocations  # list of argv lists; "{out}" marks the output file
        self.params = params


def _rng(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([NAMES.index(name), int(seed)])


# ---------------------------------------------------------------------------
# input generation


def _jc_plan(seed: int) -> Plan:
    if seed == 0:
        params = {"omega_s": 1.0, "omega_e": 1.2, "rabi": 0.1, "alpha": 0.4 * np.pi}
        argv = ["jc"]
    else:
        rng = _rng("jc_sweep", seed)
        params = {
            "omega_s": 1.0,
            "omega_e": float(rng.uniform(0.8, 1.4)),
            "rabi": float(rng.uniform(0.05, 0.3)),
            "alpha": float(rng.uniform(0.1, 0.45) * np.pi),
        }
        argv = [
            "jc",
            "--omega-e", repr(params["omega_e"]),
            "--rabi", repr(params["rabi"]),
            "--alpha", repr(params["alpha"]),
        ]
    return Plan("jc_sweep", seed, [argv + ["-o", "{out}"]], params)


def _xxz_plan(seed: int) -> Plan:
    rng = _rng("xxz_ring", seed)
    params = {
        "sites": XXZ_SITES,
        "epsilon": float(rng.uniform(0.5, 1.5)),
        "j": float(rng.uniform(0.02, 0.2)),
        "jz": float(rng.uniform(0.05, 0.4)),
    }
    argv = [
        "xxz", "--sites", str(XXZ_SITES),
        "--epsilon", repr(params["epsilon"]),
        "--j", repr(params["j"]),
        "--jz", repr(params["jz"]),
        "--k-sweep", "-o", "{out}",
    ]
    return Plan("xxz_ring", seed, [argv], params)


def _matrix_json(a: np.ndarray) -> dict:
    flat = np.asarray(a, dtype=np.complex128).reshape(-1)
    return {
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "entries": [[float(z.real), float(z.imag)] for z in flat],
    }


def _traceless_basis(d: int) -> np.ndarray:
    """Orthogonal Hermitian traceless basis (generalized Pauli), d^2-1 elements."""
    mats = []
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=np.complex128)
            m[j, k] = m[k, j] = 1.0
            mats.append(m)
            m = np.zeros((d, d), dtype=np.complex128)
            m[j, k], m[k, j] = -1j, 1j
            mats.append(m)
    for k in range(d - 1):
        m = np.zeros((d, d), dtype=np.complex128)
        m[: k + 1, : k + 1] = np.eye(k + 1)
        m[k + 1, k + 1] = -(k + 1)
        mats.append(m * np.sqrt(2.0 / ((k + 1) * (k + 2))))
    return np.array(mats)


def _local_instance(d_s: int, d_e: int, rng: np.random.Generator):
    """Random full-rank state, Hermitian h_s and a coupling traceless on both sides."""
    n = d_s * d_e
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    g = rng.normal(size=(d_s, d_s)) + 1j * rng.normal(size=(d_s, d_s))
    h_s = (g + g.conj().T) / 2.0
    bs, be = _traceless_basis(d_s), _traceless_basis(d_e)
    coeff = rng.normal(size=(len(bs), len(be))) / np.sqrt(len(bs) * len(be))
    v = np.einsum("ij,iab,jcd->acbd", coeff, bs, be).reshape(n, n)
    return rho, h_s, v


def _haar(d: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _local_plan(name: str, seed: int, shapes, input_dir: str) -> Plan:
    """Fixed base instances in a seeded local frame, with a seeded optimizer.

    The seed draws Haar unitaries A on S and B on E and writes
    (A x B) rho (A x B)^dag, A h_s A^dag and (A x B) v (A x B)^dag.  That
    changes every number the program reads but not the problem: the values
    and the solvers' conditioning are those of the base instance, so the
    work per pass does not depend on the seed, only the random restarts do.
    """
    base_rng = _rng(name, 0)
    rng = _rng(name, seed)
    invocations = []
    for i, (d_s, d_e) in enumerate(shapes):
        rho, h_s, v = _local_instance(d_s, d_e, base_rng)
        a = _haar(d_s, rng)
        w = np.kron(a, _haar(d_e, rng))
        rotated = (w @ rho @ w.conj().T, a @ h_s @ a.conj().T, w @ v @ w.conj().T)
        files = {}
        for label, mat in zip(("state", "hs", "v"), rotated):
            path = os.path.join(input_dir, f"{name}_{i:02d}_{label}.json")
            with open(path, "w") as fh:
                json.dump(_matrix_json(mat), fh)
            files[label] = path
        invocations.append([
            "local", "--state", files["state"], "--hs", files["hs"], "--v", files["v"],
            "--ds", str(d_s), "--de", str(d_e), "--method", "all",
            "--seed", str(seed), "-o", "{out}",
        ])
    return Plan(name, seed, invocations, {"shapes": [list(s) for s in shapes]})


def make_plan(name: str, seed: int, input_dir: str) -> Plan:
    """Generate the inputs of ``name`` for ``seed``; files go into ``input_dir``."""
    if name == "jc_sweep":
        return _jc_plan(seed)
    if name == "xxz_ring":
        return _xxz_plan(seed)
    if name == "local_small":
        return _local_plan(name, seed, LOCAL_SMALL, input_dir)
    if name == "local_large":
        return _local_plan(name, seed, LOCAL_LARGE, input_dir)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# output checks


def _close(a: float, b: float, tol: float) -> bool:
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= tol * max(1.0, abs(b))


def _read_csv(path: str):
    if not os.path.exists(path):
        return None
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def check_jc(plan: Plan, outputs, exit_codes) -> tuple[int, int, list]:
    """Rows on the exact phi grid, finite, delta_off = -<psi|V|psi>, and a
    seeded subsample equal to the per-point dense pipeline."""
    from ergoloc import ergotropy, local, models

    p = plan.params
    grid = np.linspace(0.0, 20.0 * np.pi, JC_STEPS)
    attempted, failed, notes = JC_STEPS, 0, []
    rows = _read_csv(outputs[0])
    if exit_codes[0] != 0 or rows is None or rows[:1] != [
        ["phi", "local_ergotropy", "switch_off", "delta_off"]
    ] or len(rows) != JC_STEPS + 1:
        notes.append(f"jc: exit {exit_codes[0]}, unusable output")
        return attempted, attempted, notes

    params = models.JcParams(p["omega_s"], p["omega_e"], p["rabi"], JC_N + 5)
    plus, _ = models.jc_dressed_state(params, JC_N, +1)
    minus, _ = models.jc_dressed_state(params, JC_N, -1)
    v = models.jc_system(params).v
    sub = set(_rng("jc_sweep", plan.seed).choice(JC_STEPS, JC_SUBSAMPLE, replace=False).tolist())
    for i, row in enumerate(rows[1:]):
        try:
            phi, value, e_off, d_off = (float(x) for x in row)
        except ValueError:
            phi = value = e_off = d_off = float("nan")
        psi = np.cos(p["alpha"]) * plus + np.exp(1j * grid[i]) * np.sin(p["alpha"]) * minus
        ok = (
            phi == grid[i]
            and all(math.isfinite(x) for x in (value, e_off, d_off))
            and _close(d_off, -float(np.vdot(psi, v @ psi).real), TOL_PIPELINE)
        )
        if ok and i in sub:
            system = models.jc_bipartite(
                params, models.jc_phase_family_state(params, JC_N, p["alpha"], grid[i])
            )
            ref = (
                local.qubit_local_ergotropy(local.build_m_matrix(system)).value,
                ergotropy.switch_off_ergotropy(system),
                ergotropy.delta_off(system),
            )
            ok = all(_close(a, b, TOL_PIPELINE) for a, b in zip((value, e_off, d_off), ref))
        if not ok:
            failed += 1
            if len(notes) < 3:
                notes.append(f"jc: row {i} {row}")
    return attempted, failed, notes


XXZ_COLS = [
    "k", "energy", "delta_off", "switch_off", "local_analytic",
    "local_numeric", "bethe_residual", "analytic_numeric_gap",
]


def check_xxz(plan: Plan, outputs, exit_codes) -> tuple[int, int, list]:
    """Every k row against xxz_analytic and xxz_bethe_energy, residual <= 1e-9."""
    from ergoloc import models

    p = plan.params
    n = p["sites"]
    ks = list(range(-(n // 2) + 1, n // 2 + 1))
    attempted, failed, notes = len(ks), 0, []
    rows = _read_csv(outputs[0])
    if exit_codes[0] != 0 or rows is None or rows[:1] != [XXZ_COLS]:
        notes.append(f"xxz: exit {exit_codes[0]}, unusable output")
        return attempted, attempted, notes
    by_k = {}
    for row in rows[1:]:
        try:
            by_k[int(row[0])] = [float(x) for x in row[1:]]
        except ValueError:
            by_k.setdefault(row[0], None)
    params = models.XxzParams(n, p["epsilon"], p["j"], p["jz"])
    for k in ks:
        vals = by_k.get(k)
        ok = vals is not None and len(vals) == 7 and set(by_k) == set(ks)
        if ok:
            energy, d_off, e_off, l_an, l_num, resid, gap = vals
            tri = models.xxz_analytic(params, k)
            ok = (
                _close(energy, models.xxz_bethe_energy(params, k), TOL_PIPELINE)
                and _close(d_off, tri.delta_off, TOL_PIPELINE)
                and _close(e_off, tri.switch_off, TOL_PIPELINE)
                and _close(l_an, tri.local_ergotropy, TOL_PIPELINE)
                and _close(l_num, tri.local_ergotropy, TOL_PIPELINE)
                and math.isfinite(resid) and 0.0 <= resid <= TOL_PIPELINE
                and math.isfinite(gap) and 0.0 <= gap <= TOL_PIPELINE
            )
        if not ok:
            failed += 1
            if len(notes) < 3:
                notes.append(f"xxz: k={k} {vals}")
    return attempted, failed, notes


def check_local(plan: Plan, outputs, exit_codes) -> tuple[int, int, list]:
    """Exit 0, ordering_ok, finite values, qubit agreement and sdp >= optimize."""
    attempted, failed, notes = len(outputs), 0, []
    for i, (path, code) in enumerate(zip(outputs, exit_codes)):
        d_s, d_e = plan.params["shapes"][i]
        ok = code == 0 and os.path.exists(path)
        if ok:
            with open(path) as fh:
                try:
                    payload = json.load(fh)
                except json.JSONDecodeError:
                    payload = {}
            vals = payload.get("values", {})
            want = ["optimize", "polar", "sdp"] + (["closed"] if d_s == 2 else [])
            ok = (
                payload.get("ordering_ok") is True
                and payload.get("d_s") == d_s and payload.get("d_e") == d_e
                and all(isinstance(vals.get(m), float) and math.isfinite(vals[m]) for m in want)
            )
            if ok:
                ok = vals["sdp"] >= vals["optimize"] - TOL_ORDER
                if d_s == 2:
                    ok = ok and abs(vals["closed"] - vals["optimize"]) <= TOL_QUBIT_OPT
                    ok = ok and abs(vals["sdp"] - vals["closed"]) <= TOL_QUBIT_SDP
        if not ok:
            failed += 1
            if len(notes) < 3:
                notes.append(f"{plan.name}: instance {i} ({d_s},{d_e}) exit {code}")
    return attempted, failed, notes


def check(plan: Plan, outputs, exit_codes) -> tuple[int, int, list]:
    if plan.name == "jc_sweep":
        return check_jc(plan, outputs, exit_codes)
    if plan.name == "xxz_ring":
        return check_xxz(plan, outputs, exit_codes)
    return check_local(plan, outputs, exit_codes)
