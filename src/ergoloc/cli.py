"""Command-line front end.

Verbs: global, local, jc, xxz, export-sdp, selftest.  Matrices travel as the
JSON format documented in qmat.  Angles accept a "pi" suffix (0.4pi); sweeps
are start:stop:steps with the same suffix rules.  Exit codes: 0 success,
2 input error, 3 numerical non-convergence.  Every local optimization
rounds the unital relaxation first and runs its restarts only when the
rounded value is not certified; local --method all solves the relaxation
once and hands it, or its failure, to the optimizer.  The jc
sweep evaluates every phase at once from three reductions and checks itself
against the per-point pipeline at one probe phase (exit 3 on a mismatch);
xxz computes its rows one after another on a ring Hamiltonian built once.
Every command is deterministic for a fixed --seed.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import ergotropy, gpo, local, models, qmat, sdp

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3


class InputError(Exception):
    pass


def _parse_angle(text: str) -> float:
    """Float with optional pi suffix: '0.4pi' -> 0.4*pi."""
    t = text.strip().lower()
    try:
        if t.endswith("pi"):
            head = t[:-2].strip()
            factor = 1.0 if head in ("", "+") else (-1.0 if head == "-" else float(head))
            return factor * np.pi
        return float(t)
    except ValueError as exc:
        raise InputError(f"cannot parse angle {text!r}") from exc


def _parse_sweep(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise InputError(f"sweep must be start:stop:steps, got {text!r}")
    start, stop = _parse_angle(parts[0]), _parse_angle(parts[1])
    try:
        steps = int(parts[2])
    except ValueError as exc:
        raise InputError(f"sweep steps must be an integer, got {parts[2]!r}") from exc
    if steps < 2:
        raise InputError("sweep needs at least 2 steps")
    return np.linspace(start, stop, steps)


def _load_matrix(path: str) -> np.ndarray:
    try:
        return qmat.load_matrix(path)
    except FileNotFoundError as exc:
        raise InputError(f"no such file: {path}") from exc
    except (ValueError, json.JSONDecodeError, TypeError) as exc:
        raise InputError(f"cannot parse matrix file {path}: {exc}") from exc


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _fmt(x: float) -> str:
    return f"{x:.17g}"


# ---------------------------------------------------------------------------
# verbs


def cmd_global(args) -> int:
    rho = _load_matrix(args.state)
    h = _load_matrix(args.ham)
    try:
        report = ergotropy.global_ergotropy(rho, h)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    passive_eigs = np.linalg.eigvalsh(report.passive_state)
    payload = {
        "value": report.value,
        "energy": report.diagnostics["energy"],
        "passive_energy": report.diagnostics["passive_energy"],
        "passive_eigenvalues": [float(x) for x in passive_eigs],
    }
    if args.show_unitary:
        payload["optimal_unitary"] = qmat.matrix_to_json(report.optimal_unitary)
    _emit(_json_dumps(payload), args.output)
    return EXIT_OK


def _build_system(args) -> qmat.BipartiteSystem:
    rho = _load_matrix(args.state)
    h_s = _load_matrix(args.hs)
    v = _load_matrix(args.v) if args.v else None
    try:
        return qmat.BipartiteSystem.build(args.ds, args.de, rho, h_s, None, v)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def cmd_local(args) -> int:
    system = _build_system(args)
    method = args.method
    if method == "closed" and args.ds != 2:
        raise InputError("method 'closed' requires --ds 2")
    cfg = local.OptimizerConfig(
        restarts=args.restarts,
        max_iterations=args.max_iterations,
        gradient_tolerance=args.gtol,
        seed=args.seed,
    )
    values: dict[str, float] = {}
    details: dict[str, dict] = {}
    mm = None if method == "optimize" else local.build_m_matrix(system)
    if method in ("closed", "all") and args.ds == 2:
        values["closed"] = local.qubit_local_ergotropy(mm).value
    # the relaxation is solved before the optimizer, which rounds it; a failed
    # solve is handed over as sol = None, so the optimizer goes to its restarts
    relaxation = sdp_error = sol = None
    if method in ("sdp", "all"):
        cost = sdp.choi_cost(mm, system.energy())
        try:
            bound, sol = sdp.sdp_upper_bound(cost, cost.energy, tol=args.sdp_tol)
        except sdp.NonConvergenceError as exc:
            sdp_error = exc
        except ValueError as exc:
            raise InputError(str(exc)) from exc
        relaxation = (cost, sol, args.sdp_tol)
    if method in ("optimize", "all"):
        rep = local.optimize_local_unitary(system, cfg, relaxation)
        values["optimize"] = rep.value
        details["optimize"] = {
            key: rep.diagnostics[key]
            for key in ("converged", "gradient_norm", "restarts", "certified", "bound")
        }
        if not rep.diagnostics["converged"]:
            payload = {"values": values, "details": details, "error": "optimizer did not converge"}
            _emit(_json_dumps(payload), args.output)
            return EXIT_NUMERIC
    if method in ("polar", "all"):
        values["polar"] = local.polar_upper_bound(mm)
    if sdp_error is not None:
        payload = {
            "values": values,
            "error": str(sdp_error),
            "residuals": [sdp_error.solution.primal_residual, sdp_error.solution.dual_residual],
        }
        _emit(_json_dumps(payload), args.output)
        return EXIT_NUMERIC
    if sol is not None:
        values["sdp"] = bound
        details["sdp"] = {
            "iterations": sol.iterations,
            "primal_residual": sol.primal_residual,
            "dual_residual": sol.dual_residual,
        }
    # both bounds are certified, so the slack only absorbs rounding
    tol = 1e-9
    ordering_ok = True
    exact = values.get("closed", values.get("optimize"))
    if exact is not None:
        for bound_name in ("polar", "sdp"):
            if bound_name in values and values[bound_name] < exact - tol:
                ordering_ok = False
    payload = {
        "d_s": args.ds,
        "d_e": args.de,
        "values": values,
        "ordering_ok": ordering_ok,
        "details": details,
        "seed": args.seed,
    }
    _emit(_json_dumps(payload), args.output)
    return EXIT_OK


# phases at which the sweep runs the library pipeline: three anchors that fix
# the affine coefficients, and a probe off the anchors that checks them
_JC_ANCHORS = (0.0, np.pi / 2, np.pi)
_JC_PROBE = 1.0
_JC_PROBE_TOL = 1e-12


class _ProbeMismatch(Exception):
    pass


def _jc_rows(p, phis, alpha, n, dynamical) -> np.ndarray:
    """Rows (phi, local_ergotropy, switch_off, delta_off) of the phase sweep.

    For the real dressed pair, rho(phase) = A + cos(phase) B + sin(phase) D,
    and M, delta_off and rho_S are linear in rho.  Three reductions at the
    anchor phases 0, pi/2 and pi therefore fix all three at every phase:
    X_A = (X_0 + X_pi)/2, X_B = (X_0 - X_pi)/2, X_D = X_{pi/2} - X_A.  The
    local value follows from one stacked branch formula on M, the free
    stage of the switch-off work from one eigvalsh over the stacked rho_S.
    Before returning, the columns are compared with the per-point pipeline
    at the probe phase; a mismatch raises _ProbeMismatch.
    """
    phases = phis
    if dynamical and p.rabi != 0:
        _, e_plus = models.jc_dressed_state(p, n, +1)
        _, e_minus = models.jc_dressed_state(p, n, -1)
        phases = (e_minus - e_plus) * (phis / p.rabi)
    anchors = []
    for phase in _JC_ANCHORS:
        system = models.jc_bipartite(p, models.jc_phase_family_state(p, n, alpha, phase))
        anchors.append(
            (local.build_m_matrix(system).m, ergotropy.delta_off(system), system.rho_s())
        )
    coeffs = []
    for x0, x1, x2 in zip(*anchors):
        x_a = (x0 + x2) / 2
        coeffs.append((x_a, (x0 - x2) / 2, x1 - x_a))
    h_s = system.h_s
    eps = np.linalg.eigvalsh(h_s)  # ascending

    def columns(ph):
        cos, sin = np.cos(ph), np.sin(ph)
        m, d_off, rho_s = (
            a + np.multiply.outer(cos, b) + np.multiply.outer(sin, d) for a, b, d in coeffs
        )
        value = local._branch_value(m)[0]
        # free stage: Tr[rho_S h_s] minus the passive energy, populations descending
        energy = np.einsum("nab,ba->n", rho_s, h_s).real
        free = energy - np.linalg.eigvalsh(rho_s)[:, ::-1] @ eps
        return value, free - d_off, d_off

    probe = models.jc_bipartite(p, models.jc_phase_family_state(p, n, alpha, _JC_PROBE))
    ref = (
        local.qubit_local_ergotropy(local.build_m_matrix(probe)).value,
        ergotropy.switch_off_ergotropy(probe),
        ergotropy.delta_off(probe),
    )
    got = [float(col[0]) for col in columns(np.array([_JC_PROBE]))]
    for name, g, r in zip(("local_ergotropy", "switch_off", "delta_off"), got, ref):
        if abs(g - r) > _JC_PROBE_TOL * max(1.0, abs(r)):
            raise _ProbeMismatch(
                f"batched {name} {g!r} differs from the per-point pipeline {r!r} "
                f"at the probe phase {_JC_PROBE}"
            )
    return np.column_stack((phis, *columns(phases)))


def cmd_jc(args) -> int:
    n_max = args.n_max if args.n_max is not None else args.n + 5
    if n_max < args.n + 2:
        raise InputError("n-max must be at least n + 2 to hold |n,+->")
    try:
        p = models.JcParams(args.omega_s, args.omega_e, args.rabi, n_max)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    alpha = _parse_angle(args.alpha)
    phis = _parse_sweep(args.sweep_phi)
    try:
        rows = _jc_rows(p, phis, alpha, args.n, args.dynamical_phase)
    except _ProbeMismatch as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NUMERIC
    lines = ["phi,local_ergotropy,switch_off,delta_off"]
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def _xxz_rows(p, parts, ks):
    """One table row per momentum k, from the ring parts built once.

    The ring Hamiltonian of the Bethe residuals is the same for every k, so
    it is formed once, from the first row's system.
    """
    rows = []
    h = None
    for k in ks:
        psi = models.xxz_bethe_state(p, k)
        system = qmat.BipartiteSystem.build(
            2, 2 ** (p.n_sites - 1), np.outer(psi, psi.conj()), *parts
        )
        if h is None:
            h = system.total_hamiltonian()
        e_k = models.xxz_bethe_energy(p, k)
        residual = float(np.linalg.norm(h @ psi - e_k * psi))
        d_off = ergotropy.delta_off(system)
        e_off = ergotropy.switch_off_ergotropy(system)
        mm = local.build_m_matrix(system)
        numeric = local.qubit_local_ergotropy(mm).value
        try:
            triple = models.xxz_analytic(p, k)
            analytic = triple.local_ergotropy
            gap = abs(analytic - numeric)
        except models.RegimeError:
            analytic = None
            gap = None
        rows.append({
            "k": k,
            "energy": e_k,
            "delta_off": d_off,
            "switch_off": e_off,
            "local_analytic": analytic,
            "local_numeric": numeric,
            "bethe_residual": residual,
            "analytic_numeric_gap": gap,
        })
    return rows


def cmd_xxz(args) -> int:
    try:
        p = models.XxzParams(args.sites, args.epsilon, args.j, args.jz)
        parts = models.xxz_system(p)  # also the dimension guard
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    if args.k is None and not args.k_sweep:
        raise InputError("choose --k K or --k-sweep")
    if args.k is not None and args.k_sweep:
        raise InputError("--k and --k-sweep are mutually exclusive")
    ks = (
        list(range(-(args.sites // 2) + 1, args.sites // 2 + 1))
        if args.k_sweep
        else [args.k]
    )
    for k in ks:
        if not (-(args.sites // 2) < k <= args.sites // 2):
            raise InputError(f"k={k} out of range for N={args.sites}")
    rows = _xxz_rows(p, parts, ks)
    if args.format == "json":
        _emit(_json_dumps({"n_sites": args.sites, "rows": rows}), args.output)
    else:
        cols = [
            "k", "energy", "delta_off", "switch_off",
            "local_analytic", "local_numeric", "bethe_residual",
            "analytic_numeric_gap",
        ]
        lines = [",".join(cols)]
        for row in rows:
            cells = []
            for c in cols:
                val = row[c]
                cells.append("" if val is None else (_fmt(val) if c != "k" else str(val)))
            lines.append(",".join(cells))
        _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def cmd_export_sdp(args) -> int:
    system = _build_system(args)
    cost = sdp.choi_cost(local.build_m_matrix(system), system.energy())
    sdp.export_instance(args.output, cost, cost.energy)
    if args.solve:
        cost2, e2 = sdp.import_instance(args.output)
        try:
            bound, sol = sdp.sdp_upper_bound(
                cost2, e2, tol=args.tol, max_iterations=args.max_iterations
            )
        except sdp.NonConvergenceError as exc:
            sys.stderr.write(f"solver did not converge: {exc}\n")
            return EXIT_NUMERIC
        except ValueError as exc:
            raise InputError(str(exc)) from exc
        sys.stdout.write(
            _json_dumps({"bound": bound, "iterations": sol.iterations})
        )
    return EXIT_OK


def cmd_selftest(args) -> int:
    rng = np.random.default_rng(args.seed)
    checks: list[tuple[str, bool, str]] = []

    def check(name, ok, note=""):
        checks.append((name, bool(ok), note))

    for d in (2, 3, 4):
        basis = gpo.gpo_basis(d)
        gram = np.einsum("iab,jba->ij", basis.elements, basis.elements).real
        check(f"gpo-orthonormal-d{d}", np.allclose(gram, 2 * np.eye(d * d - 1), atol=1e-12))
    rho = qmat.random_density(6, rng)
    sys_rand = qmat.BipartiteSystem.build(
        2, 3, rho, qmat.random_hermitian(2, rng), qmat.random_hermitian(3, rng),
        gpo.product_operator(rng.normal(size=(3, 8)), gpo.gpo_basis(2), gpo.gpo_basis(3)),
    )
    dec = gpo.decompose(sys_rand)
    check(
        "bloch-roundtrip",
        np.max(np.abs(gpo.reconstruct_state(dec) - sys_rand.rho)) < 1e-10,
    )
    mm = local.build_m_matrix(sys_rand)
    u = qmat.haar_unitary(2, rng)
    o = gpo.orthogonal_image(u, gpo.gpo_basis(2))
    lhs = float(np.trace(o @ mm.m - mm.m))
    check("objective-identity", abs(lhs - local.local_objective(sys_rand, u)) < 1e-9)
    closed = local.qubit_local_ergotropy(mm).value
    cost = sdp.choi_cost(mm, sys_rand.energy())
    try:
        bound, sol = sdp.sdp_upper_bound(cost, cost.energy)
        sdp_note = f"bound={bound:.9f} closed={closed:.9f}"
    except sdp.NonConvergenceError as exc:
        bound, sol, sdp_note = np.nan, None, str(exc)
    rep = local.optimize_local_unitary(
        sys_rand, local.OptimizerConfig(restarts=8, seed=args.seed), (cost, sol, sdp.DEFAULT_TOL)
    )
    check("qubit-closed-vs-optimizer", abs(closed - rep.value) < 1e-6,
          f"closed={closed:.9f} optimize={rep.value:.9f}")
    check("sdp-qubit-tight", abs(bound - closed) < 1e-4, sdp_note)
    cost_rand = rng.normal(size=(5, 5))
    perm, total = ergotropy.solve_assignment(cost_rand)
    import itertools

    brute = min(
        sum(cost_rand[i, pi[i]] for i in range(5))
        for pi in itertools.permutations(range(5))
    )
    check("assignment-exact", abs(total - brute) < 1e-12)

    width = max(len(name) for name, _, _ in checks)
    all_ok = True
    for name, ok, note in checks:
        all_ok &= ok
        line = f"{name:<{width}}  {'PASS' if ok else 'FAIL'}"
        if note and not ok:
            line += f"  ({note})"
        sys.stdout.write(line + "\n")
    return EXIT_OK if all_ok else EXIT_NUMERIC


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ergoloc",
        description="Work extraction from coupled bipartite quantum systems.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("global", help="global ergotropy of a state/Hamiltonian pair")
    g.add_argument("--state", required=True, help="density matrix (JSON)")
    g.add_argument("--ham", required=True, help="Hamiltonian (JSON)")
    g.add_argument("--show-unitary", action="store_true")
    g.add_argument("-o", "--output")
    g.set_defaults(func=cmd_global)

    l = sub.add_parser("local", help="local extraction value and bounds")
    l.add_argument("--state", required=True)
    l.add_argument("--hs", required=True)
    l.add_argument("--v", help="coupling matrix (JSON); omit for V = 0")
    l.add_argument("--ds", type=int, required=True)
    l.add_argument("--de", type=int, required=True)
    l.add_argument("--method", choices=["closed", "optimize", "polar", "sdp", "all"],
                   default="all")
    l.add_argument("--restarts", type=int, default=32)
    l.add_argument("--max-iterations", type=int, default=5000)
    l.add_argument("--gtol", type=float, default=1e-9)
    l.add_argument("--sdp-tol", type=float, default=sdp.DEFAULT_TOL)
    l.add_argument("--seed", type=int, default=0)
    l.add_argument("-o", "--output")
    l.set_defaults(func=cmd_local)

    j = sub.add_parser("jc", help="atom-cavity phase-family sweep (CSV)")
    j.add_argument("--n", type=int, default=10, help="photon level of the dressed pair")
    j.add_argument("--omega-s", type=float, default=1.0)
    j.add_argument("--omega-e", type=float, default=1.2)
    j.add_argument("--rabi", type=float, default=0.1)
    j.add_argument("--alpha", default="0.4pi", help="mixing angle (pi suffix allowed)")
    j.add_argument("--sweep-phi", default="0:20pi:2000", help="start:stop:steps")
    j.add_argument("--dynamical-phase", action="store_true",
                   help="sweep the dynamical phase (E- - E+)t instead of rabi*t")
    j.add_argument("--n-max", type=int, default=None, help="Fock cutoff (default n+5)")
    j.add_argument("--seed", type=int, default=0)
    j.add_argument("-o", "--output")
    j.set_defaults(func=cmd_jc)

    x = sub.add_parser("xxz", help="spin-ring plane-wave table (CSV or JSON)")
    x.add_argument("--sites", type=int, required=True)
    x.add_argument("--epsilon", type=float, default=1.0)
    x.add_argument("--j", type=float, default=0.05)
    x.add_argument("--jz", type=float, default=0.2)
    x.add_argument("--k", type=int, default=None)
    x.add_argument("--k-sweep", action="store_true")
    x.add_argument("--format", choices=["csv", "json"], default="csv")
    x.add_argument("--seed", type=int, default=0)
    x.add_argument("-o", "--output")
    x.set_defaults(func=cmd_xxz)

    e = sub.add_parser("export-sdp", help="write the relaxation instance as JSON")
    e.add_argument("--state", required=True)
    e.add_argument("--hs", required=True)
    e.add_argument("--v")
    e.add_argument("--ds", type=int, required=True)
    e.add_argument("--de", type=int, required=True)
    e.add_argument("--solve", action="store_true", help="round-trip through the solver")
    e.add_argument("--tol", type=float, default=sdp.DEFAULT_TOL)
    e.add_argument("--max-iterations", type=int, default=100)
    e.add_argument("-o", "--output", required=True)
    e.set_defaults(func=cmd_export_sdp)

    s = sub.add_parser("selftest", help="fast internal consistency battery")
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func=cmd_selftest)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except BrokenPipeError:  # pragma: no cover
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
