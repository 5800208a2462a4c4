"""Command-line front end.

Verbs: global, local, jc, xxz, export-sdp, selftest.  Matrices travel as the
JSON format documented in qmat.  Angles accept a "pi" suffix (0.4pi); sweeps
are start:stop:steps with the same suffix rules.  Exit codes: 0 success,
2 input error, 3 numerical non-convergence or a failed run-time check.
Every local optimization rounds the unital relaxation first and runs its
restarts only when the rounded value is not certified; local --method all
solves the relaxation once and hands it, or its failure, to the optimizer.
jc and xxz share one qubit-row path: each stacks its reductions (M, rho_S,
delta_off) and _qubit_columns evaluates them at once, with the branch
formula on M and one eigvalsh over rho_S, whose trace and positivity it
checks.  jc reads its stacks off three anchor phases; xxz reads one
reduction per k from the N amplitudes of the plane wave, with no 2^N
object, up to 62 sites.  Both compare one row with the dense per-point
pipeline before writing (_check_probe): jc at phase 1.0, xxz at its first
k up to models.XXZ_MAX_SITES.  A failed check exits 3.
Every command is deterministic for a fixed --seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import ergotropy, gpo, local, models, qmat, sdp

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3


class InputError(Exception):
    pass


class NumericError(Exception):
    """A run-time check of a result failed; main exits 3."""


def _parse_angle(text: str) -> float:
    """Finite float with optional pi suffix: '0.4pi' -> 0.4*pi."""
    t = text.strip().lower()
    try:
        if t.endswith("pi"):
            head = t[:-2].strip()
            factor = 1.0 if head in ("", "+") else (-1.0 if head == "-" else float(head))
            value = factor * np.pi
        else:
            value = float(t)
    except ValueError as exc:
        raise InputError(f"cannot parse angle {text!r}") from exc
    if not np.isfinite(value):
        raise InputError(f"angle must be finite, got {text!r}")
    return value


def _finite_float(text: str) -> float:
    """argparse type of every float option: nan and inf are refused (exit 2)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse number {text!r}") from None
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


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


def _emit_csv(cols, rows, out_path: str | None) -> None:
    """Header plus one line per row: None is an empty cell, a number goes
    through _fmt, which prints a small int as it is."""
    lines = [",".join(cols)]
    for row in rows:
        lines.append(",".join("" if x is None else _fmt(x) for x in row))
    _emit("\n".join(lines) + "\n", out_path)


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
    try:
        cfg = local.OptimizerConfig(
            restarts=args.restarts,
            max_iterations=args.max_iterations,
            gradient_tolerance=args.gtol,
            seed=args.seed,
        )
    except ValueError as exc:
        raise InputError(str(exc)) from exc
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
_PROBE_TOL = 1e-12


def _qubit_columns(m, rho_s, d_off, h_s):
    """(local value, switch_off, delta_off) of n stacked qubit reductions.

    m is (n, 3, 3), rho_s (n, 2, 2) and d_off (n,).  The local value is the
    stacked branch formula on M; the switch-off work is the ergotropy of
    rho_S under h_s, from one eigvalsh over the stack, less delta_off.  Each
    rho_S must have unit trace and no eigenvalue below -1e-10.
    """
    value = local._branch_value(m)[0]
    pops = np.linalg.eigvalsh(rho_s)  # ascending
    bad = (np.abs(pops.sum(axis=-1) - 1.0) > 1e-10) | (pops[:, 0] < -1e-10)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise NumericError(f"reduced state {i} is not a density matrix: eigenvalues {pops[i]}")
    # free stage: Tr[rho_S h_s] minus the passive energy, populations descending
    energy = np.einsum("nab,ba->n", rho_s, h_s).real
    free = energy - pops[:, ::-1] @ np.linalg.eigvalsh(h_s)
    return value, free - d_off, d_off


def _check_probe(system, got, where, extra=()) -> None:
    """Compare got = (local value, switch_off, delta_off), and each extra
    (name, got, ref), with the dense per-point pipeline on system."""
    ref = (
        local.qubit_local_ergotropy(local.build_m_matrix(system)).value,
        ergotropy.switch_off_ergotropy(system),
        ergotropy.delta_off(system),
    )
    for name, g, r in (*zip(("local value", "switch_off", "delta_off"), got, ref), *extra):
        if abs(g - r) > _PROBE_TOL * max(1.0, abs(r)):
            raise NumericError(
                f"{name} {g!r} differs from the dense per-point pipeline {r!r} "
                f"at the probe {where}"
            )


def _jc_rows(p, phis, alpha, n, dynamical) -> np.ndarray:
    """Rows (phi, local_ergotropy, switch_off, delta_off) of the phase sweep.

    For the real dressed pair, rho(phase) = A + cos(phase) B + sin(phase) D,
    and M, delta_off and rho_S are linear in rho.  Three reductions at the
    anchor phases 0, pi/2 and pi therefore fix all three at every phase:
    X_A = (X_0 + X_pi)/2, X_B = (X_0 - X_pi)/2, X_D = X_{pi/2} - X_A.
    _qubit_columns evaluates the stacks.  Before returning, the columns are
    compared with the per-point pipeline at the probe phase.
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

    def columns(ph):
        cos, sin = np.cos(ph), np.sin(ph)
        m, d_off, rho_s = (
            a + np.multiply.outer(cos, b) + np.multiply.outer(sin, d) for a, b, d in coeffs
        )
        return _qubit_columns(m, rho_s, d_off, system.h_s)

    probe = models.jc_bipartite(p, models.jc_phase_family_state(p, n, alpha, _JC_PROBE))
    got = [float(col[0]) for col in columns(np.array([_JC_PROBE]))]
    _check_probe(probe, got, f"phase {_JC_PROBE}")
    return np.column_stack((phis, *columns(phases)))


def cmd_jc(args) -> int:
    n_max = args.n_max if args.n_max is not None else args.n + 5
    try:
        p = models.JcParams(args.omega_s, args.omega_e, args.rabi, n_max)
        models.jc_dressed_state(p, args.n, +1)  # refuses a level the cutoff cannot hold
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    alpha = _parse_angle(args.alpha)
    phis = _parse_sweep(args.sweep_phi)
    rows = _jc_rows(p, phis, alpha, args.n, args.dynamical_phase)
    _emit_csv(["phi", "local_ergotropy", "switch_off", "delta_off"], rows, args.output)
    return EXIT_OK


_XXZ_COLS = ["k", "energy", "delta_off", "switch_off", "local_analytic", "local_numeric",
             "bethe_residual", "analytic_numeric_gap"]


def _xxz_rows(p, ks):
    """One table row per momentum k, each from the N amplitudes of |phi_k>.

    models.xxz_plane_wave_reduction gives rho_S, M, Tr[rho V] and the Bethe
    residual with no 2^N object; _qubit_columns evaluates the stacked
    reductions under h_s = eps sigma_z, with delta_off = -Tr[rho V].  When
    the ring is small enough for the dense oracle (N <= XXZ_MAX_SITES), the
    first row is compared with the dense per-k pipeline before returning.
    """
    rho_s, m, tr_rho_v, residuals = zip(*(models.xxz_plane_wave_reduction(p, k) for k in ks))
    h_s = p.epsilon * np.diag([1.0, -1.0]).astype(complex)
    columns = _qubit_columns(np.array(m), np.array(rho_s), -np.array(tr_rho_v), h_s)
    rows = []
    for k, residual, numeric, switch_off, d_off in zip(ks, residuals, *columns):
        numeric = float(numeric)
        try:
            analytic = models.xxz_analytic(p, k).local_ergotropy
            gap = abs(analytic - numeric)
        except models.RegimeError:
            analytic = gap = None
        energy = models.xxz_bethe_energy(p, k)
        row = (k, energy, float(d_off), float(switch_off), analytic, numeric, residual, gap)
        rows.append(dict(zip(_XXZ_COLS, row)))
    if p.n_sites <= models.XXZ_MAX_SITES:
        _xxz_probe(p, rows[0])
    return rows


def _xxz_probe(p, row) -> None:
    """Compare one plane-wave row with the dense per-k pipeline at its k."""
    k = row["k"]
    psi = models.xxz_bethe_state(p, k)
    system = models.xxz_bipartite(p, psi)
    # H psi first, so the dense H is freed before the reductions run
    h_psi = system.total_hamiltonian() @ psi
    residual = float(np.linalg.norm(h_psi - models.xxz_bethe_energy(p, k) * psi))
    _check_probe(system, (row["local_numeric"], row["switch_off"], row["delta_off"]),
                 f"momentum k={k}", [("bethe_residual", row["bethe_residual"], residual)])


def cmd_xxz(args) -> int:
    try:
        p = models.XxzParams(args.sites, args.epsilon, args.j, args.jz)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    if args.sites > models.XXZ_PLANE_WAVE_MAX_SITES:
        raise InputError(
            f"plane-wave rows support at most {models.XXZ_PLANE_WAVE_MAX_SITES} "
            f"sites, got {args.sites}"
        )
    if args.k is None and not args.k_sweep:
        raise InputError("choose --k K or --k-sweep")
    if args.k is not None and args.k_sweep:
        raise InputError("--k and --k-sweep are mutually exclusive")
    momenta = models.xxz_momenta(p)
    if not args.k_sweep and args.k not in momenta:
        raise InputError(f"k={args.k} out of range for N={args.sites}")
    rows = _xxz_rows(p, list(momenta) if args.k_sweep else [args.k])
    if args.format == "json":
        _emit(_json_dumps({"n_sites": args.sites, "rows": rows}), args.output)
    else:
        _emit_csv(_XXZ_COLS, [[row[c] for c in _XXZ_COLS] for row in rows], args.output)
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The verb tree, built once per process; each parse returns a new Namespace."""
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
    l.add_argument("--gtol", type=_finite_float, default=1e-9)
    l.add_argument("--sdp-tol", type=_finite_float, default=sdp.DEFAULT_TOL)
    l.add_argument("--seed", type=int, default=0)
    l.add_argument("-o", "--output")
    l.set_defaults(func=cmd_local)

    j = sub.add_parser("jc", help="atom-cavity phase-family sweep (CSV)")
    j.add_argument("--n", type=int, default=10, help="photon level of the dressed pair")
    j.add_argument("--omega-s", type=_finite_float, default=1.0)
    j.add_argument("--omega-e", type=_finite_float, default=1.2)
    j.add_argument("--rabi", type=_finite_float, default=0.1)
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
    x.add_argument("--epsilon", type=_finite_float, default=1.0)
    x.add_argument("--j", type=_finite_float, default=0.05)
    x.add_argument("--jz", type=_finite_float, default=0.2)
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
    e.add_argument("--tol", type=_finite_float, default=sdp.DEFAULT_TOL)
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
    except NumericError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NUMERIC
    except BrokenPipeError:  # pragma: no cover
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
