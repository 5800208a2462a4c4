import json

import numpy as np
import pytest

from ergoloc import kernels, local, models, qmat, sdp
from ergoloc.cli import main
from helpers import random_system


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
        "--solve", "--tol", "1e-12", "--max-iterations", "15",
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
