"""Timings of the two solver kernels and the batched jc sweep.

Run:  python benchmarks/bench_kernels.py

Times the Riemannian Newton ascent over local unitaries from a Haar start
and the interior-point solve of the unital-channel SDP at d_S = 2, 3 and 4,
both on the cost operator C that sdp.choi_cost builds from M and
Tr[H rho], the whole local optimizer at (d_S, d_E) = (3, 3) as a default
call (build C, solve the relaxation, round it and Newton-polish it) and as
the restart-only fallback with its 32 Newton restarts (C handed in without
a solution), and the 2000-point atom-cavity phase sweep
of `ergoloc jc` (three anchor reductions, the probe check and the batched
evaluation), best of five warm runs each.
"""

from __future__ import annotations

import time

import numpy as np

from ergoloc import cli, gpo, kernels, local, models, qmat, sdp


def _random_system(d_s, d_e, seed):
    rng = np.random.default_rng(seed)
    bs, be = gpo.gpo_basis(d_s), gpo.gpo_basis(d_e)
    coeff = rng.normal(size=(len(bs), len(be))) / np.sqrt(len(bs) * len(be))
    v = np.einsum("ij,iab,jcd->acbd", coeff, bs.elements, be.elements)
    return qmat.BipartiteSystem.build(
        d_s,
        d_e,
        qmat.random_density(d_s * d_e, rng),
        qmat.random_hermitian(d_s, rng),
        qmat.random_hermitian(d_e, rng),
        v.reshape(d_s * d_e, d_s * d_e),
    )


def _cost(system):
    return sdp.choi_cost(local.build_m_matrix(system), system.energy())


def _time(fn, repeats):
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_ascent(repeats=5):
    system = _random_system(2, 6, seed=7)
    cost = _cost(system)
    c, e0 = cost.c, cost.energy
    u0 = qmat.haar_unitary(2, np.random.default_rng(1))

    def run():
        kernels.ascent_kernel(c, e0, u0, 5000, 1e-9)

    run()
    return _time(run, repeats)


def bench_sdp(d_s, repeats=5):
    system = _random_system(d_s, 3, seed=11)
    cost = _cost(system)

    def run():
        kernels.admm_kernel(cost.c, d_s, sdp.DEFAULT_TOL, 100)

    run()
    return _time(run, repeats)


def bench_optimize(fallback, repeats=5):
    system = _random_system(3, 3, seed=13)
    relaxation = (_cost(system), None, sdp.DEFAULT_TOL) if fallback else None

    def run():
        local.optimize_local_unitary(system, relaxation=relaxation)

    run()
    return _time(run, repeats)


def bench_jc_sweep(repeats=5):
    p = models.JcParams(1.0, 1.2, 0.1, 15)
    phis = np.linspace(0.0, 20.0 * np.pi, 2000)

    def run():
        cli._jc_rows(p, phis, 0.4 * np.pi, 10, False)

    run()
    return _time(run, repeats)


def main():
    rows = [
        ("newton ascent 2x6", bench_ascent()),
        ("sdp solve d_s=2", bench_sdp(2)),
        ("sdp solve d_s=3", bench_sdp(3)),
        ("sdp solve d_s=4", bench_sdp(4)),
        ("optimize 3x3, rounded + newton polish", bench_optimize(False)),
        ("optimize 3x3, 32 newton restarts", bench_optimize(True)),
        ("jc sweep 2000", bench_jc_sweep()),
    ]
    width = max(len(r[0]) for r in rows)
    print(f"{'case':<{width}}  best wall time")
    for name, t in rows:
        print(f"{name:<{width}}  {t * 1e3:9.3f} ms")


if __name__ == "__main__":
    main()
