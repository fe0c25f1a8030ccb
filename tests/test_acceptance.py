"""Acceptance suite: one test per release criterion, at fixed tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion (the -v test status lines double as the machine-readable
verdicts; -s shows the measured values).
"""

import math
import time

import numpy as np
from conftest import dense_correlation_map, multiset_distance, render

import cfsgauge.closed_chain as cc
import cfsgauge.krein as kr
import cfsgauge.manifold as mf
import cfsgauge.perturbation as pt
import cfsgauge.randoms as rnd
import cfsgauge.wave_charts as wc
from cfsgauge.correlation import spin_space
from cfsgauge.dirac_box import (GAMMA, SPINOR_GRAM, DiracBoxConfig,
                                kernel_braket_sum, kernel_mode_sum,
                                momentum_modes, momentum_points,
                                wave_value_matrix)
from cfsgauge.krein import KreinSpace, opnorm


def _verdict(number: int, name: str, ok: bool, detail: str, started: float):
    elapsed = time.perf_counter() - started
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:02d} {name}: {status} ({detail}) "
          f"[{elapsed:.2f}s]")
    assert ok, f"criterion {number:02d} {name}: {detail}"


def test_criterion_01_dimension_formula():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    results = []
    for p, q, f in ((1, 1, 4), (2, 2, 8), (2, 2, 12)):
        split = spin_space(rnd.random_correlation(rng, f, p), p)
        rank = mf.chart_jacobian_rank(split)
        results.append((rank, mf.manifold_dim(p, q, f)))
    ok = all(rank == dim for rank, dim in results)
    _verdict(1, "dimension-formula", ok,
             "jacobian ranks " + ", ".join(f"{r}=={d}" for r, d in results),
             started)


def test_criterion_02_chart_roundtrip():
    started = time.perf_counter()
    rng = np.random.default_rng(102)
    worst = 0.0
    for p, q, f in ((1, 1, 6), (1, 1, 8), (1, 1, 12),
                    (2, 2, 6), (2, 2, 8), (2, 2, 12)):
        split = spin_space(rnd.random_correlation(rng, f, p), p)
        for _ in range(100):
            coords = rnd.random_chart_coords(rng, split, scale=0.05)
            back = mf.chart_inverse(mf.chart_forward(coords), split)
            worst = max(worst, opnorm(back.a - coords.a),
                        opnorm(back.b - coords.b))
    _verdict(2, "chart-roundtrip", worst <= 1e-9,
             f"max residual {worst:.3e} <= 1e-9", started)


def test_criterion_03_gaussian_property():
    started = time.perf_counter()
    rng = np.random.default_rng(103)
    split = spin_space(rnd.random_correlation(rng, 8, 2), 2)
    worst_rel = 0.0
    ratios = []
    for _ in range(20):
        dir1, dir2 = rnd.random_direction_pair(rng, split)
        report = mf.gaussian_check(split, dir1[0], dir1[1], dir2[0], dir2[1])
        scale = max(1.0, report.predicted_coefficient)
        worst_rel = max(worst_rel, abs(report.quadratic_coefficient
                                       - report.predicted_coefficient) / scale)
        ratios.extend(report.residual_ratios)
    ok = worst_rel <= 1e-8 and all(12.0 <= r <= 20.0 for r in ratios)
    _verdict(3, "gaussian-property", ok,
             f"c2 rel err {worst_rel:.3e} <= 1e-8, "
             f"ratios in [{min(ratios):.2f}, {max(ratios):.2f}]", started)


def test_criterion_04_polar_decomposition():
    started = time.perf_counter()
    rng = np.random.default_rng(104)
    worst_res = worst_unit = worst_symm = worst_series = 0.0
    for p, q in ((1, 1), (2, 2)):
        dim = p + q
        for _ in range(200):
            space = KreinSpace(gram=rnd.random_gram(rng, p, q),
                               signature=(p, q))
            delta = rnd.random_complex(rng, dim, dim)
            delta *= 0.2 * rng.uniform(0.2, 1.0) / opnorm(delta)
            a = np.eye(dim) + delta
            u, s = kr.polar_decompose(a, space)
            worst_res = max(worst_res, opnorm(a - u @ s))
            worst_unit = max(worst_unit,
                             opnorm(u.conj().T @ space.gram @ u - space.gram))
            worst_symm = max(worst_symm, opnorm(s - space.adjoint(s)))
            b = space.adjoint(a) @ a
            res = kr.sqrt_near_identity(b, space)
            series = kr.binomial_sqrt_series(b - np.eye(dim), 0.5)
            worst_series = max(worst_series, opnorm(res.sqrt - series))
    ok = (worst_res <= 1e-8 and worst_unit <= 1e-9 and worst_symm <= 1e-9
          and worst_series <= 1e-9)
    _verdict(4, "polar-decomposition", ok,
             f"residual {worst_res:.3e} <= 1e-8, unitary {worst_unit:.3e}, "
             f"symmetric {worst_symm:.3e}, series {worst_series:.3e} <= 1e-9",
             started)


def test_criterion_05_chart_coincidence():
    started = time.perf_counter()
    rng = np.random.default_rng(105)
    worst = 0.0
    for f in (8, 12):
        base = spin_space(rnd.random_correlation(rng, f, 2), 2)
        x = render(base)
        samples = []
        while len(samples) < 25:
            y = mf.chart_forward(rnd.random_chart_coords(rng, base,
                                                         scale=0.04))
            if opnorm(render(y) - x) <= 0.1 * opnorm(x):
                samples.append(y)
        report = wc.charts_coincide_check(base, samples)
        worst = max(worst, report.max_deviation)
    _verdict(5, "chart-coincidence", worst <= 1e-8,
             f"max deviation {worst:.3e} <= 1e-8 over 50 samples", started)


def test_criterion_06_dirac_box_construction():
    started = time.perf_counter()
    cfg = DiracBoxConfig(L=math.pi, eps=1.0 / 2.5, m=1.0)

    # brute-force lattice oracle, written independently of the enumerator
    def oracle_count(box):
        bound = int(math.ceil(box.L / (math.pi * box.eps))) + 2
        total = 0
        for n1 in range(-bound, bound + 1):
            for n2 in range(-bound, bound + 1):
                for n3 in range(-bound, bound + 1):
                    if box.m == 0.0 and n1 == n2 == n3 == 0:
                        continue
                    k_sq = (math.pi / box.L) ** 2 * (n1 * n1 + n2 * n2
                                                     + n3 * n3)
                    if math.sqrt(k_sq + box.m ** 2) < 1.0 / box.eps:
                        total += 1
        return 2 * total

    f_count = len(momentum_modes(cfg))
    count_ok = f_count == 114 and oracle_count(cfg) == 114

    ratios = []
    for ratio_le in (8.0, 12.0):
        box = DiracBoxConfig(L=math.pi, eps=math.pi / ratio_le, m=1.0)
        f = len(momentum_modes(box))
        predicted = 8.0 / (3.0 * math.pi ** 2) * ratio_le ** 3
        ratios.append(abs(f / predicted - 1.0))
    asympt_ok = ratios[0] <= 0.25 and ratios[1] < ratios[0]

    rng = np.random.default_rng(106)
    points = [rnd.random_box_point(rng, cfg) for _ in range(6)]
    rank_ok = True
    for box in (cfg, DiracBoxConfig(L=math.pi, eps=1.0 / 1.5, m=1.0),
                DiracBoxConfig(L=math.pi, eps=1.0 / 2.5, m=0.0)):
        for x in dense_correlation_map(box, points):
            vals = np.abs(np.linalg.eigvalsh(x))
            rank = int(np.sum(vals > 1e-8 * vals.max()))
            rank_ok = rank_ok and rank == 4

    ok = count_ok and asympt_ok and rank_ok
    _verdict(6, "dirac-box-construction", ok,
             f"f = {f_count} (oracle 114), density errors "
             f"{ratios[0]:.3f} -> {ratios[1]:.3f} <= 0.25, rank 4 everywhere",
             started)


def test_criterion_07_kernel_identity():
    started = time.perf_counter()
    rng = np.random.default_rng(107)
    worst = 0.0
    for box in (DiracBoxConfig(L=math.pi, eps=1.0 / 2.5, m=1.0),
                DiracBoxConfig(L=math.pi, eps=1.0 / 2.5, m=0.0)):
        for _ in range(5):
            x = rnd.random_box_point(rng, box)
            y = rnd.random_box_point(rng, box)
            worst = max(worst, opnorm(kernel_mode_sum(box, x, y)
                                      - kernel_braket_sum(box, x, y)))
    box0 = DiracBoxConfig(L=math.pi, eps=1.0 / 2.5, m=0.0)
    x = rnd.random_box_point(rng, box0)
    n_points = len(momentum_points(box0))
    expected = -n_points / (32.0 * math.pi * box0.L ** 3) * GAMMA[0]
    diag_dev = opnorm(kernel_mode_sum(box0, x, x) - expected)
    ok = worst <= 1e-10 and diag_dev <= 1e-10
    _verdict(7, "kernel-identity", ok,
             f"route deviation {worst:.3e} <= 1e-10, "
             f"massless diagonal {diag_dev:.3e} <= 1e-10", started)


def test_criterion_08_closed_chain_spectra():
    started = time.perf_counter()
    rng = np.random.default_rng(108)
    worst_eig = 0.0
    for _ in range(100):
        vk = cc.VectorKernel(rng.standard_normal(4), rng.standard_normal(4))
        lam_plus, lam_minus = cc.chain_eigenvalues(vk)
        predicted = np.array([lam_plus, lam_plus, lam_minus, lam_minus])
        numeric = np.linalg.eigvals(cc.chain_from_vectors(vk))
        worst_eig = max(worst_eig, multiset_distance(predicted, numeric))

    worst_proj = 0.0
    eye = np.eye(4)
    count = 0
    while count < 50:
        u = np.array([rng.uniform(1.5, 2.5), *(0.4 * rng.standard_normal(3))])
        z = 0.4 * rng.standard_normal(4)
        vk = cc.VectorKernel(u, z)
        lam_plus, lam_minus = cc.chain_eigenvalues(vk)
        if abs(lam_plus - lam_minus) <= 1e-3 * (abs(lam_plus)
                                                + abs(lam_minus)):
            continue
        count += 1
        e_plus, e_minus = cc.spectral_projectors(vk)
        a = cc.chain_from_vectors(vk)
        worst_proj = max(worst_proj,
                         opnorm(e_plus + e_minus - eye),
                         opnorm(e_plus @ e_plus - e_plus),
                         opnorm(e_minus @ e_minus - e_minus),
                         opnorm(e_plus @ e_minus),
                         opnorm(a @ e_plus - lam_plus * e_plus),
                         opnorm(a @ e_minus - lam_minus * e_minus))
    ok = worst_eig <= 1e-9 and worst_proj <= 1e-9
    _verdict(8, "closed-chain-spectra", ok,
             f"eigenvalue mismatch {worst_eig:.3e}, projector residual "
             f"{worst_proj:.3e}, both <= 1e-9", started)


def test_criterion_09_first_order_expansion():
    started = time.perf_counter()
    rng = np.random.default_rng(109)
    worst_coeff = 0.0
    ratios = []
    for _ in range(5):
        real_step = np.concatenate([rng.standard_normal(1) * 0.3,
                                    0.5 * rng.standard_normal(3)])
        imag_step = np.concatenate([rng.standard_normal(1),
                                    0.5 * rng.standard_normal(3)])
        report = cc.unitary_expansion(real_step, imag_step)
        worst_coeff = max(worst_coeff, report.coefficient_deviation)
        ratios.extend(report.residual_ratios)
    ok = worst_coeff <= 1e-6 and all(3.0 <= r <= 5.0 for r in ratios)
    _verdict(9, "first-order-expansion", ok,
             f"coefficient deviation {worst_coeff:.3e} <= 1e-6, ratios in "
             f"[{min(ratios):.2f}, {max(ratios):.2f}] within [3, 5]", started)


def test_criterion_10_gauge_phase_cancellation():
    started = time.perf_counter()
    box = DiracBoxConfig(L=math.pi, eps=1.0 / 2.5, m=0.0)
    rng = np.random.default_rng(110)
    x = np.array([0.2, 0.4, -0.8, 1.1])
    y = np.array([0.25, 0.55, -0.7, 1.2])
    waves_x = wave_value_matrix(box, x)
    waves_y = wave_value_matrix(box, y)

    reference = pt.perturbed_symmetric_gauge(waves_x, waves_x)
    worst_cancel = 0.0
    for _ in range(50):
        lam = rnd.random_gauge_function(rng, box.L)
        perturbed = pt.apply_local_phase(waves_x, lam, x)
        value = pt.perturbed_symmetric_gauge(waves_x, perturbed)
        worst_cancel = max(worst_cancel, opnorm(value - reference))

    p_xy = -(waves_x @ waves_y.conj().T @ SPINOR_GRAM)
    p_yx = -(waves_y @ waves_x.conj().T @ SPINOR_GRAM)
    chain = p_xy @ p_yx
    worst_phase = worst_chain = 0.0
    for _ in range(10):
        lam = rnd.random_gauge_function(rng, box.L)
        wx_t = pt.apply_local_phase(waves_x, lam, x)
        wy_t = pt.apply_local_phase(waves_y, lam, y)
        p_xy_t = -(wx_t @ wy_t.conj().T @ SPINOR_GRAM)
        p_yx_t = -(wy_t @ wx_t.conj().T @ SPINOR_GRAM)
        phase = np.exp(1j * (lam(x) - lam(y)))
        worst_phase = max(worst_phase, opnorm(p_xy_t - phase * p_xy))
        worst_chain = max(worst_chain, opnorm(p_xy_t @ p_yx_t - chain))

    ok = worst_cancel <= 1e-9 and worst_phase <= 1e-9 and worst_chain <= 1e-9
    _verdict(10, "gauge-phase-cancellation", ok,
             f"cancellation {worst_cancel:.3e}, kernel phase law "
             f"{worst_phase:.3e}, chain invariance {worst_chain:.3e}, "
             f"all <= 1e-9", started)


def test_criterion_11_dual_route_report():
    started = time.perf_counter()
    rng = np.random.default_rng(111)
    worst_unit = 0.0
    deviations = []
    count = 0
    while count < 30:
        u = np.array([rng.uniform(1.5, 2.5), *(0.4 * rng.standard_normal(3))])
        z = 0.4 * rng.standard_normal(4)
        vk = cc.VectorKernel(u, z)
        lam_plus, lam_minus = cc.chain_eigenvalues(vk)
        if abs(lam_plus - lam_minus) <= 1e-3 * (abs(lam_plus)
                                                + abs(lam_minus)):
            continue
        count += 1
        result = cc.dual_route_inv_sqrt(vk)
        worst_unit = max(worst_unit, result.unitarity_residual)
        deviations.append(result.deviation)
    report_ok = (len(deviations) == 30
                 and all(np.isfinite(d) for d in deviations))
    ok = report_ok and worst_unit <= 1e-9
    _verdict(11, "dual-route-report", ok,
             f"deviation reported (max {max(deviations):.3e}, agreement not "
             f"asserted), spectral unitarity {worst_unit:.3e} <= 1e-9",
             started)
