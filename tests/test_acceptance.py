"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.

Criteria 1, 2 and 5 concern the closed-form values quoted for the
atom-cavity example.  Those values are not what the documented functional
gives everywhere, and the tests record where and by how much with
certificates that do not depend on the branch formula:

- 1: the quoted |n,+-> forms hold only where sin 2theta >= 0 and
  G sin 2theta <= omega_s cos 2theta (G = rabi sqrt(n+1)/2); there they are
  asserted at 1e-9.  Elsewhere they deviate in both directions: a quoted
  value below the optimum is beaten by the reported unitary evaluated
  densely, and a quoted value above it lies above the unital-channel SDP
  bound.  At resonance sigma_z x I maps |n,+> onto |n,-> and extracts
  rabi sqrt(n+1), twice the quoted value.
- 2: the quoted E_off values are the free stage of the switch-off protocol
  alone; dressed states carry interaction energy -+ G sin 2theta, so the
  quench cost -Tr[rho V] never vanishes as quoted.
- 5: the published alpha = 0.4 pi family stays strictly positive; every
  value is attained by its reported unitary and none is an exact zero.

The companion *_info tests pin the corrected closed forms against the
generic pipeline and against independent brute-force optimization (see
README, "Certified checks of the quoted atom-cavity values").
"""

import itertools
import time

import numpy as np
import pytest

from ergoloc import ergotropy, gpo, local, models, qmat, sdp
from helpers import (
    SZ,
    brute_local_max,
    cost_from_m,
    direct_objective,
    m_matrix_from_bloch,
    max_entangled_two_level,
    random_state_vector,
    random_system,
    reconstruct_interaction,
    reconstruct_local,
)

JC_GRID = [
    (n, delta, rabi)
    for n in (0, 1, 5, 10)
    for delta in (-0.5, -0.2, 0.0, 0.2, 0.5)
    for rabi in (0.05, 0.1, 0.5)
]


def _report(num, ok, detail=""):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" — {detail}"
    print(line)


def _jc_pipeline(n, delta, rabi, sign):
    p = models.JcParams(1.0, 1.0 - delta, rabi, n + 5)
    psi, _ = models.jc_dressed_state(p, n, sign)
    system = models.jc_bipartite(p, psi)
    return system, local.qubit_local_ergotropy(local.build_m_matrix(system))


def test_acceptance_01_jc_closed_form_reproduction():
    """Published |n,+-> expressions: 1e-9 per point where they hold, and a
    dense witness or an SDP bound certifying each deviation elsewhere."""
    t0 = time.perf_counter()
    failures = []
    worst = 0.0
    held = 0
    below, above = [], []  # certified margins of understated / overstated values
    worst_res = 0.0
    for n, delta, rabi in JC_GRID:
        p = models.JcParams(1.0, 1.0 - delta, rabi, n + 5)
        th = models.jc_mixing_angle(p, n)
        s2, c2 = np.sin(2 * th), np.cos(2 * th)
        g2 = np.sqrt(n + 1) / 2 * abs(rabi * np.sin(2 * th))
        stated_plus = 1.0 * np.cos(2 * th) + g2
        stated_minus = g2 - min(1.0 * np.cos(2 * th), g2)
        quoted_regime = s2 >= 0 and g2 <= 1.0 * c2
        for sign, stated in ((+1, stated_plus), (-1, stated_minus)):
            system, rep = _jc_pipeline(n, delta, rabi, sign)
            if quoted_regime:
                held += 1
                dev = abs(rep.value - stated)
                worst = max(worst, dev)
                if dev > 1e-9:
                    failures.append((n, delta, rabi, sign, rep.value, stated))
            elif sign * s2 > 0:
                # quoted value too low: the reported unitary beats it densely
                margin = direct_objective(system, rep.optimal_unitary) - stated
                below.append(margin)
                if margin <= 1e-9:
                    failures.append((n, delta, rabi, sign, "below", margin))
            else:
                # quoted value too high: no unital channel reaches it
                energy = float(np.trace(system.rho @ system.total_hamiltonian()).real)
                bound, _ = sdp.sdp_upper_bound(cost_from_m(system), energy, tol=1e-7)
                # the bound is certified: rounding-sized slack only
                margin = stated - (bound + 1e-9)
                above.append(margin)
                if margin <= 0.0:
                    failures.append((n, delta, rabi, sign, "above", margin))
        if delta == 0.0:
            system, rep = _jc_pipeline(n, 0.0, rabi, +1)
            res_stated = np.sqrt(n + 1) / 2 * abs(rabi)
            witness = direct_objective(system, SZ)
            dev = max(abs(rep.value - witness), abs(witness - 2 * res_stated))
            worst_res = max(worst_res, dev)
            if dev > 1e-10:
                failures.append((n, 0.0, rabi, "res", rep.value, witness))
    elapsed = time.perf_counter() - t0
    counts = (held, len(below), len(above))
    ok = not failures and counts == (38, 41, 41) and elapsed < 5.0
    _report(
        1,
        ok,
        f"{held}/{2 * len(JC_GRID)} branch points match the published forms "
        f"(max dev {worst:.2e}); {len(below)} understate the optimum (dense "
        f"witness above them by >= {min(below):.2e}), {len(above)} overstate "
        f"it (SDP bound below them by >= {min(above):.2e}); at resonance "
        f"pipeline = sigma_z witness = twice the quoted value to "
        f"{worst_res:.2e}, {elapsed:.1f}s",
    )
    assert elapsed < 5.0
    assert not failures, (
        f"{len(failures)} closed-form checks or certificates fail, "
        f"e.g. {failures[0]}"
    )
    assert counts == (38, 41, 41)


def test_acceptance_01_info_corrected_jc_closed_forms():
    """Pipeline vs the corrected closed forms (and brute force at 7 points)."""
    worst = 0.0
    for n, delta, rabi in JC_GRID:
        p = models.JcParams(1.0, 1.0 - delta, rabi, n + 5)
        for sign in (+1, -1):
            _, rep = _jc_pipeline(n, delta, rabi, sign)
            expected = models.jc_analytic(p, n, sign).local_ergotropy
            worst = max(worst, abs(rep.value - expected))
    spot = [(0, 0.0, 0.1, +1), (1, -0.2, 0.5, -1), (5, 0.2, 0.5, +1),
            (0, 0.0, 0.05, -1), (1, 0.5, 0.5, +1), (10, -0.5, 0.1, -1),
            (5, -0.2, 0.5, +1)]
    brute_worst = 0.0
    for i, (n, delta, rabi, sign) in enumerate(spot):
        system, rep = _jc_pipeline(n, delta, rabi, sign)
        brute = brute_local_max(system, tries=10, seed=i)
        brute_worst = max(brute_worst, abs(rep.value - brute))
    _report(
        "1-info",
        worst <= 1e-9 and brute_worst <= 1e-6,
        f"corrected forms match pipeline to {worst:.2e} on all 120 branch "
        f"points; brute-force optimization agrees to {brute_worst:.2e}",
    )
    assert worst <= 1e-9
    assert brute_worst <= 1e-6


def test_acceptance_02_switch_off_values():
    """Published switch-off claims E_off(+) = w_s cos2th, E_off(-) = 0 and
    Delta_off(+-) = 0, within 1e-10 over the same grid: the E_off values are
    the free stage alone, Delta_off = -+ G sin2th is nonzero, and the
    switch-off work is their difference."""
    failures = 0
    worst = 0.0
    total = 0
    smallest_quench = np.inf
    for n, delta, rabi in JC_GRID:
        p = models.JcParams(1.0, 1.0 - delta, rabi, n + 5)
        th = models.jc_mixing_angle(p, n)
        quench = rabi / 2 * np.sqrt(n + 1) * np.sin(2 * th)
        for sign, e_off_stated in ((+1, 1.0 * np.cos(2 * th)), (-1, 0.0)):
            psi, _ = models.jc_dressed_state(p, n, sign)
            system = models.jc_bipartite(p, psi)
            free = ergotropy.global_ergotropy(system.rho_s(), system.h_s).value
            d_off = ergotropy.delta_off(system)
            e_off = ergotropy.switch_off_ergotropy(system)
            smallest_quench = min(smallest_quench, abs(d_off))
            for dev in (
                abs(free - e_off_stated),
                abs(d_off + sign * quench),
                abs(e_off - (free - d_off)),
            ):
                total += 1
                worst = max(worst, dev)
                if dev > 1e-10:
                    failures += 1
    _report(
        2,
        failures == 0 and smallest_quench > 1e-10,
        f"{failures}/{total} checks deviate (max {worst:.3e}); the quoted "
        f"E_off is the free stage alone, and the quench cost -+ G sin 2theta "
        f"is never the quoted 0 (smallest |Delta_off| {smallest_quench:.2e})",
    )
    assert failures == 0, f"{failures} switch-off checks deviate, worst {worst:.3e}"
    assert smallest_quench > 1e-10


def test_acceptance_02_info_corrected_switch_off():
    """Delta_off(+-) = -+ G sin2th and E_off per the corrected forms, 1e-10."""
    worst = 0.0
    for n, delta, rabi in JC_GRID:
        p = models.JcParams(1.0, 1.0 - delta, rabi, n + 5)
        for sign in (+1, -1):
            psi, _ = models.jc_dressed_state(p, n, sign)
            system = models.jc_bipartite(p, psi)
            triple = models.jc_analytic(p, n, sign)
            worst = max(worst, abs(ergotropy.delta_off(system) - triple.delta_off))
            worst = max(worst, abs(ergotropy.switch_off_ergotropy(system) - triple.switch_off))
    _report("2-info", worst <= 1e-10, f"corrected forms hold to {worst:.2e}")
    assert worst <= 1e-10


def test_acceptance_03_xxz_reproduction():
    """Residuals <= 1e-10; closed triple matches the pipeline to 1e-9."""
    t0 = time.perf_counter()
    worst_res = 0.0
    worst_dev = 0.0
    count = 0
    for n in (4, 6, 8):
        for j in (0.02, 0.1):
            for j_z in (0.1, 0.4):
                p = models.XxzParams(n, 1.0, j, j_z)
                h = None
                for k in range(-(n // 2) + 1, n // 2 + 1):
                    psi = models.xxz_bethe_state(p, k)
                    system = models.xxz_bipartite(p, psi)
                    if h is None:
                        h = system.total_hamiltonian()
                    res = np.linalg.norm(h @ psi - models.xxz_bethe_energy(p, k) * psi)
                    worst_res = max(worst_res, res)
                    triple = models.xxz_analytic(p, k)  # grid lies inside the regime
                    mm = local.build_m_matrix(system)
                    dev = max(
                        abs(ergotropy.delta_off(system) - triple.delta_off),
                        abs(ergotropy.switch_off_ergotropy(system) - triple.switch_off),
                        abs(local.qubit_local_ergotropy(mm).value - triple.local_ergotropy),
                    )
                    worst_dev = max(worst_dev, dev)
                    count += 1
    elapsed = time.perf_counter() - t0
    ok = worst_res <= 1e-10 and worst_dev <= 1e-9 and elapsed < 30.0
    _report(
        3,
        ok,
        f"{count} (N, params, k) points: residual {worst_res:.2e}, "
        f"closed-vs-pipeline {worst_dev:.2e}, {elapsed:.1f}s",
    )
    assert worst_res <= 1e-10
    assert worst_dev <= 1e-9
    assert elapsed < 30.0


def test_acceptance_04_small_ring_reversal():
    """N = 3 instance with positive switch-off work but zero local value."""
    p = models.XxzParams(3, 1.0, 0.02, 0.3)
    triple = models.xxz_analytic(p, 0)
    system = models.xxz_bipartite(p, models.xxz_bethe_state(p, 0))
    numeric = local.qubit_local_ergotropy(local.build_m_matrix(system)).value
    e_off = ergotropy.switch_off_ergotropy(system)
    ok = e_off > 0 and abs(numeric) <= 1e-10 and abs(e_off - triple.switch_off) < 1e-12
    _report(4, ok, f"switch_off={e_off:.6f} > 0, local={numeric:.2e}")
    assert e_off > 0
    assert abs(numeric) <= 1e-10


def test_acceptance_05_phase_family_structure():
    """Published-figure family: >=5% arcs, oracle agreement, and every value
    attained by its reported unitary and bounded away from zero."""
    p = models.JcParams(1.0, 1.2, 0.1, 15)
    n, alpha = 10, 0.4 * np.pi
    phis = np.linspace(0.0, 20 * np.pi, 2000)
    values = np.empty_like(phis)
    worst_attained = 0.0
    for i, phi in enumerate(phis):
        rho = models.jc_phase_family_state(p, n, alpha, phi)
        system = models.jc_bipartite(p, rho)
        rep = local.qubit_local_ergotropy(local.build_m_matrix(system))
        values[i] = rep.value
        attained = direct_objective(system, rep.optimal_unitary)
        worst_attained = max(worst_attained, abs(attained - rep.value))
    frac_zero = float(np.mean(values <= 1e-12))
    frac_arc = float(np.mean(values >= 1e-3))
    oracle_worst = 0.0
    for i in np.linspace(0, len(phis) - 1, 20).astype(int):
        rho = models.jc_phase_family_state(p, n, alpha, phis[i])
        system = models.jc_bipartite(p, rho)
        rep = local.optimize_local_unitary(
            system, local.OptimizerConfig(restarts=6, seed=int(i))
        )
        oracle_worst = max(oracle_worst, abs(rep.value - values[i]))
    ok = (
        frac_arc >= 0.05
        and oracle_worst <= 1e-6
        and worst_attained <= 1e-9
        and values.min() >= 1e-3
    )
    _report(
        5,
        ok,
        f"arc fraction {frac_arc:.3f}, closed-vs-optimizer "
        f"{oracle_worst:.2e}, reported unitaries attain all {len(phis)} "
        f"values to {worst_attained:.2e}; the published >= 5% exact-zero "
        f"plateau is absent (zero fraction {frac_zero:.3f}, min "
        f"{values.min():.3f})",
    )
    assert frac_arc >= 0.05
    assert oracle_worst <= 1e-6
    assert worst_attained <= 1e-9
    assert values.min() >= 1e-3, (
        f"phase family touches zero at the published parameters: min over "
        f"the sweep is {values.min():.6f}"
    )


def test_acceptance_05_info_zero_plateaus_at_smaller_alpha():
    """At alpha = 0.2 pi the family touches zero only at phi = 0 mod 2 pi,
    as isolated points rather than plateaus."""
    p = models.JcParams(1.0, 1.2, 0.1, 15)

    def value(phi):
        rho = models.jc_phase_family_state(p, 10, 0.2 * np.pi, phi)
        system = models.jc_bipartite(p, rho)
        return local.qubit_local_ergotropy(local.build_m_matrix(system)).value

    phis = np.linspace(0.0, 20 * np.pi, 800)
    values = np.array([value(phi) for phi in phis])
    frac_zero = float(np.mean(values <= 1e-12))
    frac_arc = float(np.mean(values >= 1e-3))
    zero_phis = phis[values <= 1e-12]
    offsets = np.abs(np.remainder(zero_phis + np.pi, 2 * np.pi) - np.pi)
    off_period = float(np.max(offsets, initial=0.0))
    at_period = max(abs(value(2 * np.pi * k)) for k in range(11))
    beside = min(value(-1e-2), value(1e-2))
    ok = (
        frac_zero > 0
        and frac_arc >= 0.05
        and off_period <= 1e-9
        and at_period <= 1e-12
        and beside > 1e-12
    )
    _report(
        "5-info",
        ok,
        f"alpha=0.2pi: zero fraction {frac_zero:.3f} (all at phi = 0 mod "
        f"2pi, max offset {off_period:.1e}), arc fraction {frac_arc:.3f}; "
        f"|value| <= {at_period:.1e} at phi = 2pi k, {beside:.2e} at "
        f"phi = +-1e-2",
    )
    assert frac_zero > 0
    assert frac_arc >= 0.05
    assert off_period <= 1e-9
    assert at_period <= 1e-12
    assert beside > 1e-12


def test_acceptance_06_qubit_oracle_equivalence():
    """200 random qubit x qudit instances: optimizer vs closed formula."""
    rng = np.random.default_rng(2024)
    worst_opt = 0.0
    worst_polar = 0.0
    for i in range(200):
        d_e = int(rng.integers(2, 7))
        system = random_system(2, d_e, rng, v_scale=rng.uniform(0.3, 1.5))
        mm = local.build_m_matrix(system)
        closed = local.qubit_local_ergotropy(mm).value
        rep = local.optimize_local_unitary(system, local.OptimizerConfig(restarts=8, seed=i))
        worst_opt = max(worst_opt, abs(rep.value - closed))
        worst_polar = max(worst_polar, abs(local.polar_upper_bound(mm) - closed))
    ok = worst_opt <= 1e-6 and worst_polar <= 1e-10
    _report(6, ok, f"optimizer gap {worst_opt:.2e} (<=1e-6), polar gap {worst_polar:.2e} (<=1e-10)")
    assert worst_opt <= 1e-6
    assert worst_polar <= 1e-10


def test_acceptance_07_sdp_tightness():
    """200 qubit instances |bound - closed| <= 1e-4 at tol 1e-7; 50 qutrit
    instances bound >= optimizer - 1e-9.  Under 10 minutes."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(777)
    worst_d2 = 0.0
    lowest_d2 = np.inf  # signed: relaxation may not undercut the exact value
    for i in range(200):
        d_e = int(rng.integers(2, 5))
        system = random_system(2, d_e, rng, v_scale=rng.uniform(0.3, 1.5))
        closed = local.qubit_local_ergotropy(local.build_m_matrix(system)).value
        rho_energy = float(np.trace(system.rho @ system.total_hamiltonian()).real)
        bound, _ = sdp.sdp_upper_bound(cost_from_m(system), rho_energy, tol=1e-7)
        worst_d2 = max(worst_d2, abs(bound - closed))
        lowest_d2 = min(lowest_d2, bound - closed)
    worst_d3 = np.inf
    for i in range(50):
        system = random_system(3, 3, rng, v_scale=rng.uniform(0.3, 1.5))
        rho_energy = float(np.trace(system.rho @ system.total_hamiltonian()).real)
        bound, _ = sdp.sdp_upper_bound(cost_from_m(system), rho_energy, tol=1e-7)
        rep = local.optimize_local_unitary(system, local.OptimizerConfig(restarts=8, seed=i))
        worst_d3 = min(worst_d3, bound - rep.value)
    elapsed = time.perf_counter() - t0
    ok = (
        worst_d2 <= 1e-4
        and lowest_d2 >= -1e-9
        and worst_d3 >= -1e-9
        and elapsed < 600.0
    )
    _report(
        7,
        ok,
        f"qubit |bound-closed| {worst_d2:.2e} (signed min {lowest_d2:.2e}), "
        f"qutrit min(bound-optimizer) {worst_d3:.2e}, {elapsed:.0f}s",
    )
    assert worst_d2 <= 1e-4
    assert lowest_d2 >= -1e-9
    assert worst_d3 >= -1e-9
    assert elapsed < 600.0


def test_acceptance_08_assignment_oracle():
    """500 instances d_S <= 7: exact agreement with the brute-force minimum;
    diagonal quantum instances dominate the classical value."""
    rng = np.random.default_rng(99)
    mismatches = 0
    for _ in range(500):
        d = int(rng.integers(2, 8))
        cost = rng.normal(size=(d, d))
        col, _ = ergotropy.solve_assignment(cost)
        hungarian_total = sum(cost[i, col[i]] for i in range(d))
        brute_total = min(
            sum(cost[i, pi[i]] for i in range(d))
            for pi in itertools.permutations(range(d))
        )
        if hungarian_total != brute_total:
            mismatches += 1
    gaps = []
    for seed in range(15):
        inner = np.random.default_rng(seed)
        p = inner.dirichlet(np.ones(9)).reshape(3, 3)
        e = inner.normal(size=(3, 3))
        rho = np.diag(p.reshape(-1)).astype(complex)
        h_joint = np.diag(e.reshape(-1)).astype(complex)
        h_s = qmat.partial_trace(h_joint, 3, 3, "E") / 3
        h_e = qmat.partial_trace(h_joint, 3, 3, "S") / 3
        shift = np.trace(h_joint).real / 9
        h_s -= shift / 2 * np.eye(3)
        h_e -= shift / 2 * np.eye(3)
        v = h_joint - qmat.tensor_product(h_s, np.eye(3)) - qmat.tensor_product(np.eye(3), h_e)
        system = qmat.BipartiteSystem.build(3, 3, rho, h_s, h_e, v)
        classical, _ = ergotropy.classical_local_ergotropy(p, e)
        rep = local.optimize_local_unitary(system, local.OptimizerConfig(restarts=12, seed=seed))
        gaps.append(rep.value - classical)
    gaps = np.array(gaps)
    ok = mismatches == 0 and np.all(gaps >= -1e-6)
    _report(
        8,
        ok,
        f"{mismatches}/500 brute-force mismatches; quantum-classical gap "
        f"min {gaps.min():.2e}, mean {gaps.mean():.3e}, max {gaps.max():.3e}",
    )
    assert mismatches == 0
    assert np.all(gaps >= -1e-6)


def test_acceptance_09_inequality_suites():
    """Hilbert-Schmidt gap bounds, the spectral lower bound and the two-level
    exact formula on 500 + 100 instances."""
    rng = np.random.default_rng(4096)
    worst_slack1 = np.inf
    worst_slack2 = np.inf
    worst_lb = np.inf
    for i in range(500):
        if i % 5 == 0:
            system = random_system(3, 2, rng, v_scale=rng.uniform(0.2, 1.2))
            value = local.optimize_local_unitary(
                system, local.OptimizerConfig(restarts=8, seed=i)
            ).value
        else:
            system = random_system(2, int(rng.integers(2, 5)), rng,
                                    v_scale=rng.uniform(0.2, 1.2))
            value = local.qubit_local_ergotropy(local.build_m_matrix(system)).value
        free = ergotropy.global_ergotropy(system.rho_s(), system.h_s).value
        off = ergotropy.switch_off_ergotropy(system)
        b1, b2 = ergotropy.hs_gap_bounds(system)
        worst_slack1 = min(worst_slack1, b1 - abs(value - free))
        worst_slack2 = min(worst_slack2, b2 - abs(value - off))
        lb = ergotropy.two_level_lower_bound(
            system.rho, system.h_s, system.v, system.d_s, system.d_e
        )
        worst_lb = min(worst_lb, value + 1e-6 - lb)
    worst_exact = 0.0
    for i in range(100):
        _, v, k = max_entangled_two_level(2, rng)
        h_s = qmat.partial_trace(k, 2, 2, "E") / 2
        psi = random_state_vector(4, rng)
        exact = ergotropy.two_level_exact(psi, k, 2, 2)
        system = qmat.BipartiteSystem.build(2, 2, np.outer(psi, psi.conj()), h_s, None, v)
        rep = local.optimize_local_unitary(system, local.OptimizerConfig(restarts=8, seed=i))
        worst_exact = max(worst_exact, abs(exact - rep.value))
    ok = (
        worst_slack1 >= -1e-9
        and worst_slack2 >= -1e-9
        and worst_lb >= 0.0
        and worst_exact <= 1e-6
    )
    _report(
        9,
        ok,
        f"gap-bound slacks >= {min(worst_slack1, worst_slack2):.2e}, lower-"
        f"bound slack >= {worst_lb - 1e-6:.2e}, two-level exact vs optimizer "
        f"{worst_exact:.2e}",
    )
    assert worst_slack1 >= -1e-9
    assert worst_slack2 >= -1e-9
    assert worst_lb >= 0.0
    assert worst_exact <= 1e-6


def test_acceptance_10_structural_invariants():
    """GPO orthonormality, Bloch round-trips, orthogonal images, dual M
    construction and the objective identity, in under two minutes."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(31337)
    for d in (2, 3, 4, 5):
        basis = gpo.gpo_basis(d)
        gram = np.einsum("iab,jba->ij", basis.elements, basis.elements).real
        assert np.max(np.abs(gram - 2 * np.eye(d * d - 1))) < 1e-12
        assert np.max(np.abs(np.einsum("iaa->i", basis.elements))) < 1e-13
    for d_s, d_e in ((2, 2), (2, 3), (3, 2), (3, 3)):
        for _ in range(5):
            system = random_system(d_s, d_e, rng)
            dec = gpo.decompose(system)
            assert np.max(np.abs(gpo.reconstruct_state(dec) - system.rho)) < 1e-10
            assert np.max(np.abs(reconstruct_local(dec) - system.h_s)) < 1e-10
            assert np.max(np.abs(reconstruct_interaction(dec) - system.v)) < 1e-10
            m1 = local.build_m_matrix(system).m
            m2 = m_matrix_from_bloch(dec).m
            assert np.max(np.abs(m1 - m2)) < 1e-10
    for d in (2, 3, 4):
        basis = gpo.gpo_basis(d)
        for _ in range(10):
            u, v = qmat.haar_unitary(d, rng), qmat.haar_unitary(d, rng)
            ou, ov = gpo.orthogonal_image(u, basis), gpo.orthogonal_image(v, basis)
            assert np.max(np.abs(ou.T @ ou - np.eye(d * d - 1))) < 1e-9
            assert np.max(np.abs(gpo.orthogonal_image(u @ v, basis) - ou @ ov)) < 1e-9
    # objective identity on 500 random (system, U) pairs
    basis2 = gpo.gpo_basis(2)
    basis3 = gpo.gpo_basis(3)
    for i in range(500):
        d_s = 2 if i % 2 == 0 else 3
        basis = basis2 if d_s == 2 else basis3
        system = random_system(d_s, 2 if i % 3 else 3, rng)
        mm = local.build_m_matrix(system)
        u = qmat.haar_unitary(d_s, rng)
        o = gpo.orthogonal_image(u, basis)
        bloch_form = float(np.trace(o @ mm.m - mm.m))
        w = qmat.tensor_product(u, np.eye(system.d_e))
        direct = float(
            np.trace(system.total_hamiltonian() @ (system.rho - w @ system.rho @ w.conj().T)).real
        )
        assert abs(bloch_form - direct) < 1e-9
    elapsed = time.perf_counter() - t0
    _report(10, elapsed < 120.0, f"all structural invariants hold, {elapsed:.1f}s")
    assert elapsed < 120.0
