import json
import os
import subprocess
import sys

import numpy as np
import pytest

from ergoloc import cli, ergotropy, kernels, local, models, qmat, sdp
from ergoloc.cli import main
from helpers import jc_row, non_tight_qutrit_fixtures, random_system


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def qubit_files(tmp_path):
    qmat.save_matrix(tmp_path / "rho.json", np.diag([0.3, 0.7]).astype(complex))
    qmat.save_matrix(tmp_path / "h.json", np.diag([0.0, 1.0]).astype(complex))
    return tmp_path


def test_global_passive_pair(tmp_path, capsys):
    qmat.save_matrix(tmp_path / "rho.json", np.diag([0.7, 0.3]).astype(complex))
    qmat.save_matrix(tmp_path / "h.json", np.diag([0.0, 1.0]).astype(complex))
    code, out, _ = run_cli(
        capsys, "global", "--state", str(tmp_path / "rho.json"), "--ham", str(tmp_path / "h.json")
    )
    assert code == 0
    assert abs(json.loads(out)["value"]) < 1e-12


def test_global_qubit_value(qubit_files, capsys):
    code, out, _ = run_cli(
        capsys, "global",
        "--state", str(qubit_files / "rho.json"),
        "--ham", str(qubit_files / "h.json"),
        "--show-unitary",
    )
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["value"] - 0.4) < 1e-12
    assert payload["optimal_unitary"]["rows"] == 2


def test_global_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    ham = tmp_path / "h.json"
    qmat.save_matrix(ham, np.eye(2))
    code, _, err = run_cli(capsys, "global", "--state", str(bad), "--ham", str(ham))
    assert code == 2
    assert "error" in err.lower() or "cannot parse" in err


def test_global_missing_file(tmp_path, capsys):
    ham = tmp_path / "h.json"
    qmat.save_matrix(ham, np.eye(2))
    code, _, err = run_cli(capsys, "global", "--state", str(tmp_path / "nope.json"), "--ham", str(ham))
    assert code == 2


def _write_system(tmp_path, system):
    qmat.save_matrix(tmp_path / "rho.json", system.rho)
    qmat.save_matrix(tmp_path / "hs.json", system.h_s)
    qmat.save_matrix(tmp_path / "v.json", system.v)
    return (
        str(tmp_path / "rho.json"),
        str(tmp_path / "hs.json"),
        str(tmp_path / "v.json"),
    )


def test_local_all_methods_consistent(tmp_path, capsys):
    rng = np.random.default_rng(0)
    p = models.JcParams(1.0, 1.2, 0.3, 6)
    psi, _ = models.jc_dressed_state(p, 1, +1)
    system = models.jc_bipartite(p, psi)
    state_f, hs_f, v_f = _write_system(tmp_path, system)
    code, out, _ = run_cli(
        capsys, "local", "--state", state_f, "--hs", hs_f, "--v", v_f,
        "--ds", "2", "--de", "7", "--method", "all", "--restarts", "8",
    )
    assert code == 0
    payload = json.loads(out)
    vals = payload["values"]
    assert payload["ordering_ok"]
    assert abs(vals["closed"] - vals["optimize"]) < 1e-6
    assert abs(vals["closed"] - vals["polar"]) < 1e-10
    assert abs(vals["closed"] - vals["sdp"]) < 1e-4


def _counting(monkeypatch, module, name):
    calls = []
    true_fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return true_fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_local_all_solves_the_relaxation_once_and_rounds_it(tmp_path, capsys, monkeypatch):
    system = random_system(3, 2, np.random.default_rng(20))
    state_f, hs_f, v_f = _write_system(tmp_path, system)
    argv = ["local", "--state", state_f, "--hs", hs_f, "--v", v_f, "--ds", "3", "--de", "2"]
    costs = _counting(monkeypatch, sdp, "choi_cost")
    solves = _counting(monkeypatch, sdp, "sdp_upper_bound")
    code, out, _ = run_cli(capsys, *argv, "--method", "all")
    assert code == 0
    assert (len(costs), len(solves)) == (1, 1)
    payload = json.loads(out)
    opt = payload["details"]["optimize"]
    assert opt["certified"] is True
    assert opt["restarts"] == 1
    assert payload["values"]["optimize"] >= opt["bound"] - 1e-6
    assert payload["values"]["sdp"] >= payload["values"]["optimize"] - 1e-6
    assert payload["ordering_ok"]

    del costs[:], solves[:]
    code, out, _ = run_cli(capsys, *argv, "--method", "optimize")
    assert code == 0
    assert (len(costs), len(solves)) == (1, 0)
    opt = json.loads(out)["details"]["optimize"]
    assert opt["certified"] is False
    assert opt["bound"] is None
    assert opt["restarts"] == 32


@pytest.mark.parametrize("method", ["closed", "polar", "optimize", "sdp", "all"])
def test_local_builds_m_once_per_invocation(tmp_path, capsys, monkeypatch, method):
    system = random_system(2, 3, np.random.default_rng(22))
    state_f, hs_f, v_f = _write_system(tmp_path, system)
    builds = _counting(monkeypatch, local, "build_m_matrix")
    code, _, _ = run_cli(
        capsys, "local", "--state", state_f, "--hs", hs_f, "--v", v_f,
        "--ds", "2", "--de", "3", "--method", method, "--restarts", "4",
    )
    assert code == 0
    assert len(builds) == 1


def test_local_all_non_tight_fixture_runs_restarts(tmp_path, capsys):
    _, rho, v, sdp_value, best = non_tight_qutrit_fixtures()[0]
    qmat.save_matrix(tmp_path / "rho.json", rho)
    qmat.save_matrix(tmp_path / "hs.json", np.zeros((3, 3)))
    qmat.save_matrix(tmp_path / "v.json", v)
    code, out, _ = run_cli(
        capsys, "local", "--state", str(tmp_path / "rho.json"),
        "--hs", str(tmp_path / "hs.json"), "--v", str(tmp_path / "v.json"),
        "--ds", "3", "--de", "3", "--method", "all",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ordering_ok"] is True
    assert payload["details"]["optimize"]["certified"] is False
    assert payload["details"]["optimize"]["restarts"] == 33
    assert abs(payload["values"]["sdp"] - sdp_value) < 1e-5
    assert abs(payload["values"]["optimize"] - best) < 1e-9


def test_local_all_sdp_nonconvergence_exits_numeric(tmp_path, capsys, monkeypatch):
    # the optimizer falls back to its restarts, then the verb reports the
    # solver failure as before
    def stuck(c, d, tol, max_iter):
        return np.eye(d * d) / d, 0.0, 1.0, 1.0, max_iter, -1.0

    monkeypatch.setattr(kernels, "admm_kernel", stuck)
    ascents = _counting(monkeypatch, kernels, "ascent_kernel")
    system = random_system(2, 2, np.random.default_rng(21))
    state_f, hs_f, v_f = _write_system(tmp_path, system)
    code, out, _ = run_cli(
        capsys, "local", "--state", state_f, "--hs", hs_f, "--v", v_f,
        "--ds", "2", "--de", "2", "--method", "all", "--restarts", "4",
    )
    assert code == 3
    payload = json.loads(out)
    assert set(payload) == {"values", "error", "residuals"}
    assert set(payload["values"]) == {"closed", "optimize", "polar"}
    assert payload["residuals"] == [1.0, 1.0]
    assert len(ascents) == 4


def test_cli_import_leaves_scipy_unloaded():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    probe = "import sys, ergoloc.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


def test_local_closed_requires_qubit(tmp_path, capsys):
    rng = np.random.default_rng(1)
    system = random_system(3, 2, rng)
    state_f, hs_f, v_f = _write_system(tmp_path, system)
    code, _, err = run_cli(
        capsys, "local", "--state", state_f, "--hs", hs_f, "--v", v_f,
        "--ds", "3", "--de", "2", "--method", "closed",
    )
    assert code == 2


def test_local_no_coupling_equals_free(tmp_path, capsys):
    from ergoloc import ergotropy

    rng = np.random.default_rng(2)
    rho = qmat.random_density(4, rng)
    h_s = qmat.random_hermitian(2, rng)
    system = qmat.BipartiteSystem.build(2, 2, rho, h_s, None, None)
    qmat.save_matrix(tmp_path / "rho.json", rho)
    qmat.save_matrix(tmp_path / "hs.json", h_s)
    code, out, _ = run_cli(
        capsys, "local", "--state", str(tmp_path / "rho.json"),
        "--hs", str(tmp_path / "hs.json"), "--ds", "2", "--de", "2",
        "--method", "closed",
    )
    assert code == 0
    free = ergotropy.global_ergotropy(system.rho_s(), h_s).value
    assert abs(json.loads(out)["values"]["closed"] - free) < 1e-10


def test_jc_sweep_csv_structure(tmp_path, capsys):
    out_file = tmp_path / "sweep.csv"
    code, _, _ = run_cli(
        capsys, "jc", "--n", "1", "--rabi", "0.1", "--omega-e", "1.2",
        "--alpha", "0.3pi", "--sweep-phi", "0:2pi:40", "-o", str(out_file),
    )
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "phi,local_ergotropy,switch_off,delta_off"
    assert len(lines) == 41
    data = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    assert abs(data[0, 0]) < 1e-15 and abs(data[-1, 0] - 2 * np.pi) < 1e-12
    assert np.all(data[:, 1] >= -1e-12)


def test_jc_alpha_zero_constant_column(tmp_path, capsys):
    out_file = tmp_path / "a0.csv"
    code, _, _ = run_cli(
        capsys, "jc", "--n", "2", "--alpha", "0", "--sweep-phi", "0:pi:10",
        "-o", str(out_file),
    )
    assert code == 0
    lines = out_file.read_text().strip().splitlines()[1:]
    vals = [float(ln.split(",")[1]) for ln in lines]
    p = models.JcParams(1.0, 1.2, 0.1, 2 + 5)
    expected = models.jc_analytic(p, 2, +1).local_ergotropy
    assert np.max(np.abs(np.array(vals) - expected)) < 1e-12


def test_jc_dynamical_phase_flag_changes_curve(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["jc", "--n", "1", "--alpha", "0.3pi", "--sweep-phi", "0:2pi:20"]
    assert run_cli(capsys, *args, "-o", str(a))[0] == 0
    assert run_cli(capsys, *args, "--dynamical-phase", "-o", str(b))[0] == 0
    assert a.read_text() != b.read_text()


def test_jc_deterministic_output(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["jc", "--n", "1", "--sweep-phi", "0:4pi:50", "--seed", "7"]
    run_cli(capsys, *args, "-o", str(a))
    run_cli(capsys, *args, "-o", str(b))
    assert a.read_bytes() == b.read_bytes()


# (alpha, omega_e, rabi, n, dynamical phase, n_max override, sweep)
JC_CASES = [
    ("0", 1.2, 0.1, 10, False, None, "0:20pi:37"),
    ("0.13pi", 0.85, 0.27, 4, False, None, "-pi:3pi:41"),
    ("0.4pi", 1.0, 0.1, 1, True, None, "0:2pi:33"),
    ("0.5pi", 1.2, 0.27, 10, True, None, "0.1:7.3:29"),
    ("0.4pi", 0.85, 0.0, 4, True, None, "0:4pi:25"),
    ("0.13pi", 1.0, 0.0, 1, False, None, "0:2pi:21"),
    ("0.4pi", 1.2, 0.1, 4, True, 6, "0:6pi:31"),
    ("0.5pi", 0.85, 0.1, 1, False, None, "-2pi:0:23"),
    ("0", 1.0, 0.27, 4, True, None, "0:pi:17"),
    ("0.4pi", 1.2, 0.1, 10, False, None, "0:20pi:40"),
]


def _jc_csv(capsys, tmp_path, alpha, omega_e, rabi, n, dynamical, n_max, sweep):
    out_file = tmp_path / "jc.csv"
    argv = [
        "jc", "--alpha", alpha, "--omega-e", str(omega_e), "--rabi", str(rabi),
        "--n", str(n), f"--sweep-phi={sweep}", "-o", str(out_file),
    ]
    if dynamical:
        argv.append("--dynamical-phase")
    if n_max is not None:
        argv += ["--n-max", str(n_max)]
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "phi,local_ergotropy,switch_off,delta_off"
    return np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])


@pytest.mark.parametrize("case", JC_CASES)
def test_jc_batched_rows_match_per_point_pipeline(tmp_path, capsys, case):
    alpha, omega_e, rabi, n, dynamical, n_max, sweep = case
    data = _jc_csv(capsys, tmp_path, *case)
    start, stop, steps = sweep.split(":")
    phis = np.linspace(
        cli._parse_angle(start), cli._parse_angle(stop), int(steps)
    )
    assert np.array_equal(data[:, 0], phis)  # the exact grid, bit for bit
    p = models.JcParams(1.0, omega_e, rabi, n + 5 if n_max is None else n_max)
    a = cli._parse_angle(alpha)
    ref = np.array([jc_row(p, float(phi), a, n, dynamical) for phi in phis])
    assert np.max(np.abs(data[:, 1:] - ref[:, 1:])) <= 1e-12


def test_jc_batched_rows_cross_the_branch_switch(tmp_path, capsys):
    # det M changes sign along this sweep, so the stacked branch formula
    # serves both branches within one batch
    case = ("0.4pi", 1.2, 0.27, 1, False, None, "0:2pi:61")
    data = _jc_csv(capsys, tmp_path, *case)
    p = models.JcParams(1.0, 1.2, 0.27, 6)
    dets = []
    for phi, *cols in data:
        system = models.jc_bipartite(p, models.jc_phase_family_state(p, 1, 0.4 * np.pi, phi))
        dets.append(np.linalg.det(local.build_m_matrix(system).m))
        ref = jc_row(p, phi, 0.4 * np.pi, 1, False)[1:]
        assert np.max(np.abs(np.array(cols) - ref)) <= 1e-12
    assert min(dets) < -1e-4 and max(dets) > 1e-4


def test_jc_probe_check_rejects_non_affine_family(tmp_path, capsys, monkeypatch):
    # a family whose phase enters as 2 phi is not affine in (cos phi, sin phi):
    # the three anchors cannot represent it and the probe phase catches that
    true_family = models.jc_phase_family_state

    def doubled(p, n, alpha, phi):
        return true_family(p, n, alpha, 2 * phi)

    monkeypatch.setattr(models, "jc_phase_family_state", doubled)
    out_file = tmp_path / "jc.csv"
    code, _, err = run_cli(capsys, "jc", "--n", "1", "--sweep-phi", "0:2pi:10", "-o", str(out_file))
    assert code == 3
    assert "probe" in err
    assert not out_file.exists()


def test_jc_invalid_sweep(capsys):
    code, _, err = run_cli(capsys, "jc", "--sweep-phi", "0:1")
    assert code == 2


def test_xxz_deterministic_output(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["xxz", "--sites", "6", "--k-sweep", "--seed", "3"]
    run_cli(capsys, *args, "-o", str(a))
    run_cli(capsys, *args, "-o", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_xxz_sweep_consistency(tmp_path, capsys):
    out_file = tmp_path / "ring.csv"
    code, _, _ = run_cli(
        capsys, "xxz", "--sites", "8", "--epsilon", "1", "--j", "0.05",
        "--jz", "0.2", "--k-sweep", "-o", str(out_file),
    )
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert len(lines) == 9  # header + 8 momenta
    header = lines[0].split(",")
    i_res = header.index("bethe_residual")
    i_gap = header.index("analytic_numeric_gap")
    for ln in lines[1:]:
        cells = ln.split(",")
        assert float(cells[i_res]) <= 1e-10
        if cells[i_gap]:
            assert float(cells[i_gap]) <= 1e-9


def test_xxz_sweep_builds_ring_once(tmp_path, capsys, monkeypatch):
    # one dense ring build per invocation; the rows equal those of a system
    # built per k through the library wrapper
    calls = []
    true_system = models.xxz_system

    def counted(p):
        calls.append(p)
        return true_system(p)

    monkeypatch.setattr(models, "xxz_system", counted)
    out_file = tmp_path / "ring.csv"
    argv = ["xxz", "--sites", "6", "--epsilon", "0.7", "--j", "0.13", "--jz", "0.3"]
    code, _, _ = run_cli(capsys, *argv, "--k-sweep", "-o", str(out_file))
    assert code == 0
    assert len(calls) == 1

    p = models.XxzParams(6, 0.7, 0.13, 0.3)
    lines = [out_file.read_text().splitlines()[0]]
    for k in range(-2, 4):
        psi = models.xxz_bethe_state(p, k)
        system = models.xxz_bipartite(p, psi)
        e_k = models.xxz_bethe_energy(p, k)
        residual = float(np.linalg.norm(system.total_hamiltonian() @ psi - e_k * psi))
        numeric = local.qubit_local_ergotropy(local.build_m_matrix(system)).value
        try:
            analytic = models.xxz_analytic(p, k).local_ergotropy
            gap = cli._fmt(abs(analytic - numeric))
            analytic = cli._fmt(analytic)
        except models.RegimeError:
            analytic = gap = ""
        cells = [
            str(k), cli._fmt(e_k), cli._fmt(ergotropy.delta_off(system)),
            cli._fmt(ergotropy.switch_off_ergotropy(system)), analytic,
            cli._fmt(numeric), cli._fmt(residual), gap,
        ]
        lines.append(",".join(cells))
    assert out_file.read_text() == "\n".join(lines) + "\n"


def test_xxz_small_ring_reversal_rows(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "xxz", "--sites", "3", "--epsilon", "1", "--j", "0.02",
        "--jz", "0.3", "--k", "0", "--format", "json",
    )
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["switch_off"] > 0
    assert abs(row["local_numeric"]) <= 1e-10


def test_xxz_refuses_large_dense(capsys):
    code, _, err = run_cli(capsys, "xxz", "--sites", "20", "--k", "0")
    assert code == 2
    assert "14" in err


def test_xxz_k_out_of_range(capsys):
    code, _, _ = run_cli(capsys, "xxz", "--sites", "6", "--k", "5")
    assert code == 2


def test_export_sdp_roundtrip(tmp_path, capsys):
    rng = np.random.default_rng(3)
    system = random_system(2, 2, rng)
    state_f, hs_f, v_f = _write_system(tmp_path, system)
    out_file = tmp_path / "instance.json"
    code, out, _ = run_cli(
        capsys, "export-sdp", "--state", state_f, "--hs", hs_f, "--v", v_f,
        "--ds", "2", "--de", "2", "-o", str(out_file), "--solve",
    )
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["constraints"] == "unital-bimarginal"
    bound_cli = json.loads(out)["bound"]
    cost, energy = sdp.import_instance(out_file)
    bound_direct, _ = sdp.sdp_upper_bound(cost, energy, tol=1e-7)
    assert abs(bound_cli - bound_direct) < 1e-9
    closed = local.qubit_local_ergotropy(local.build_m_matrix(system)).value
    assert abs(bound_cli - closed) < 1e-4


def test_export_sdp_zero_cost(tmp_path, capsys):
    # decoupled system in its reduced-passive configuration: bound equals Tr[rho H]
    rho = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)
    qmat.save_matrix(tmp_path / "rho.json", rho)
    qmat.save_matrix(tmp_path / "hs.json", np.zeros((2, 2)))
    out_file = tmp_path / "inst.json"
    code, out, _ = run_cli(
        capsys, "export-sdp", "--state", str(tmp_path / "rho.json"),
        "--hs", str(tmp_path / "hs.json"), "--ds", "2", "--de", "2",
        "-o", str(out_file), "--solve",
    )
    assert code == 0
    assert abs(json.loads(out)["bound"] - 0.0) < 1e-8


def test_export_sdp_nonconvergence_exit_code(tmp_path, capsys):
    rng = np.random.default_rng(4)
    system = random_system(2, 2, rng)
    state_f, hs_f, v_f = _write_system(tmp_path, system)
    code, _, err = run_cli(
        capsys, "export-sdp", "--state", state_f, "--hs", hs_f, "--v", v_f,
        "--ds", "2", "--de", "2", "-o", str(tmp_path / "i.json"),
        "--solve", "--tol", "1e-12", "--max-iterations", "5",
    )
    assert code == 3
    assert "converge" in err


def test_selftest_passes(capsys):
    code, out, _ = run_cli(capsys, "selftest", "--seed", "0")
    assert code == 0
    assert "FAIL" not in out


def test_optimizer_stall_with_live_gradient_exits_numeric(tmp_path, capsys, monkeypatch):
    # a line-search stall (status 1) far from a critical point is not
    # convergence: the report says so and the verb exits 3
    def stalled(c, e0, u0, max_iter, gtol):
        return u0, 0.0, 1e-3, 10, 1

    monkeypatch.setattr(kernels, "ascent_kernel", stalled)
    system = random_system(2, 2, np.random.default_rng(9))
    rep = local.optimize_local_unitary(system, local.OptimizerConfig(restarts=2))
    assert rep.diagnostics["converged"] is False
    state_f, hs_f, v_f = _write_system(tmp_path, system)
    code, out, _ = run_cli(
        capsys, "local", "--state", state_f, "--hs", hs_f, "--v", v_f,
        "--ds", "2", "--de", "2", "--method", "optimize",
    )
    assert code == 3
    assert json.loads(out)["details"]["optimize"]["converged"] is False
