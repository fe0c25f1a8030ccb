"""Stacked image splits, charts, wave charts and closed chains.

Every routine below takes a stack of inputs in one call; each stack element
must match the lone call on that element, get its own checks, and name its
index when it fails.  The counts of eigen- and singular-value
decompositions must not grow with the stack, so a return to per-element
loops fails here.
"""

import math

import numpy as np
import pytest
from conftest import multiset_distance, random_krein_unitary

from cfsgauge import closed_chain as cc
from cfsgauge.correlation import spin_space, split_by_image
from cfsgauge.dirac_box import DiracBoxConfig, build_correlation_map
from cfsgauge.errors import (NotRegular, OutOfChartDomain, SignatureLost,
                             TooFarFromBase)
from cfsgauge.manifold import (ChartCoordinates, chart_forward, chart_inverse,
                               chart_jacobian_rank)
from cfsgauge.randoms import (random_chart_coords, random_complement_map,
                              random_complex, random_correlation)
from cfsgauge.wave_charts import (WaveChartPoint, build_gauge,
                                  charts_coincide_check, gauge_orbit_witness,
                                  gaussian_wave_map, symmetric_wave_chart)

TOL = 1e-13


def assert_matches_loop(stacked, looped, tol=TOL):
    """Each stacked element equals the lone result to ``tol`` relative."""
    for got, want in zip(stacked, looped, strict=True):
        got, want = np.asarray(got), np.asarray(want)
        scale = max(1.0, float(np.max(np.abs(want), initial=0.0)))
        assert np.max(np.abs(got - want), initial=0.0) <= tol * scale


def projector(split):
    return split.basis @ np.swapaxes(split.basis.conj(), -1, -2)


def stacked_coords(rng, split, count, scale):
    """``count`` random chart coordinates, as one stack and as a list."""
    drawn = [random_chart_coords(rng, split, scale=scale)
             for _ in range(count)]
    return ChartCoordinates(a=np.array([c.a for c in drawn]),
                            b=np.array([c.b for c in drawn]),
                            split=split), drawn


def diag_operator(values, f):
    m = np.zeros((f, f), dtype=complex)
    m[:len(values), :len(values)] = np.diag(values)
    return m


class TestSplitStack:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_operators_match_lone_splits(self, seed):
        rng = np.random.default_rng(seed)
        xs = np.array([random_correlation(rng, 8, 2) for _ in range(6)])
        # one element the certificate cannot decide: it takes the dense route
        xs[3] = diag_operator([1.0, -1.0, -0.5, 1.5e-8, 0.8e-8], 8)
        stacked = split_by_image(xs, 2, 2)
        lone = [split_by_image(x, 2, 2) for x in xs]
        assert stacked.rank == 4
        assert stacked.basis.shape == (6, 8, 4)
        assert_matches_loop(stacked.basis, [s.basis for s in lone])
        assert_matches_loop(stacked.restricted, [s.restricted for s in lone])

    def test_box_operators_match_by_projector(self):
        # box spectra are doubly degenerate: compare projectors, not bases
        cfg = DiracBoxConfig(L=math.pi, eps=0.4, m=0.0)
        points = [cfg.point(0.0, (0.0, 0.0, 0.0)),
                  cfg.point(0.2, (0.4, -0.8, 1.1)),
                  cfg.point(-1.3, (2.9, 0.05, -3.0))]
        xs = np.array(build_correlation_map(cfg, points))
        stacked = split_by_image(xs, 2, 2)
        lone = [split_by_image(x, 2, 2) for x in xs]
        assert_matches_loop(projector(stacked), [projector(s) for s in lone])
        assert_matches_loop(np.linalg.eigvalsh(stacked.restricted),
                            [np.linalg.eigvalsh(s.restricted) for s in lone])

    def test_failing_element_is_named(self):
        rng = np.random.default_rng(5)
        full = random_complex(rng, 6, 6)
        xs = np.array([random_correlation(rng, 6, 2), full + full.conj().T,
                       random_correlation(rng, 6, 2)])
        with pytest.raises(NotRegular,
                           match=r"stack element \[1\]: expected signature"):
            split_by_image(xs, 2, 2)


class TestChartStack:
    @pytest.mark.parametrize("p,f", [(1, 6), (2, 8)])
    def test_forward_and_inverse_match_lone_calls(self, p, f):
        rng = np.random.default_rng(10 + f)
        split = spin_space(random_correlation(rng, f, p), p)
        coords, drawn = stacked_coords(rng, split, 7, scale=0.05)
        ys = chart_forward(coords)
        assert_matches_loop(ys, [chart_forward(c) for c in drawn])
        back = chart_inverse(ys, split)
        lone = [chart_inverse(y, split) for y in ys]
        assert_matches_loop(back.a, [c.a for c in lone])
        assert_matches_loop(back.b, [c.b for c in lone])

    def test_signature_loss_is_named(self):
        rng = np.random.default_rng(20)
        split = spin_space(random_correlation(rng, 6, 1), 1)
        a = np.zeros((3, 2, 2))
        a[2] = -10.0 * np.eye(2)
        with pytest.raises(SignatureLost, match=r"stack element \[2\]"):
            chart_forward(ChartCoordinates(a=a, b=np.zeros((3, 2, 6)),
                                           split=split))

    def test_far_element_is_named(self):
        base = spin_space(diag_operator([1.0, -1.0], 6), 1)
        far = diag_operator([0.0, 0.0, 0.0, 0.0, 1.0, -1.0], 6)
        with pytest.raises(TooFarFromBase, match=r"stack element \[1\]"):
            chart_inverse(np.array([base.operator, far]), base)


class TestWaveChartStack:
    def test_symmetric_and_transported_charts_match_lone_calls(self):
        rng = np.random.default_rng(30)
        base = spin_space(random_correlation(rng, 8, 2), 2)
        coords, drawn = stacked_coords(rng, base, 6, scale=0.04)
        ys = chart_forward(coords)
        stacked = symmetric_wave_chart(ys, base)
        lone = [symmetric_wave_chart(y, base) for y in ys]
        assert_matches_loop(stacked.full_matrix(),
                            [w.full_matrix() for w in lone])
        stacked = gaussian_wave_map(coords, base)
        lone = [gaussian_wave_map(c, base) for c in drawn]
        assert_matches_loop(stacked.on_image, [w.on_image for w in lone])
        assert_matches_loop(stacked.on_complement,
                            [w.on_complement for w in lone])

    def test_gauge_and_orbit_match_lone_calls(self):
        rng = np.random.default_rng(31)
        base = spin_space(random_correlation(rng, 8, 2), 2)
        ys = chart_forward(stacked_coords(rng, base, 5, scale=0.05)[0])
        gauge = build_gauge(base, ys)
        lone = [build_gauge(base, [y]) for y in ys]
        assert_matches_loop(gauge.values, [g.values[0] for g in lone])
        assert_matches_loop(gauge.condition_residuals,
                            [g.condition_residuals[0] for g in lone],
                            tol=1e-12)

        on_image = np.eye(4) + 0.05 * random_complex(rng, 5, 4, 4)
        on_complement = np.array([random_complement_map(rng, base, 4, 0.05)
                                  for _ in range(5)])
        u0 = np.array([random_krein_unitary(rng, base.krein, 0.2)
                       for _ in range(5)])
        psi = WaveChartPoint(on_image, on_complement, base)
        rotated = WaveChartPoint(u0 @ on_image, u0 @ on_complement, base)
        u = gauge_orbit_witness(psi, rotated)
        lone = [gauge_orbit_witness(WaveChartPoint(a, b, base),
                                    WaveChartPoint(v @ a, v @ b, base))
                for a, b, v in zip(on_image, on_complement, u0)]
        assert_matches_loop(u, lone, tol=1e-12)
        # one element off its orbit takes the whole stack off
        off = WaveChartPoint(rotated.on_image, rotated.on_complement.copy(),
                             base)
        off.on_complement[3] += 0.1 * random_complement_map(rng, base, 4)
        assert gauge_orbit_witness(psi, off) is None

    def test_element_outside_the_domain_is_named(self):
        base = spin_space(diag_operator([1.0, -1.0], 6), 1)
        far = diag_operator([0.0, 0.0, 0.0, 0.0, 1.0, -1.0], 6)
        with pytest.raises(OutOfChartDomain, match=r"stack element \[1\]"):
            symmetric_wave_chart(np.array([base.operator, far]), base)
        # same image, but X^{-1} a = 1.5 lies beyond the chart radius 0.8
        with pytest.raises(OutOfChartDomain,
                           match=r"stack element \[2\]: chart coordinate"):
            charts_coincide_check(base, [base.operator, 1.1 * base.operator,
                                         2.5 * base.operator])


class TestClosedChainStack:
    def kernels(self, seed):
        # time-like u dominates: eigenvalues in the right half plane
        rng = np.random.default_rng(seed)
        u = 0.4 * rng.standard_normal((6, 4))
        u[:, 0] = rng.uniform(1.5, 2.5, size=6)
        z = 0.4 * rng.standard_normal((6, 4))
        u[2], z[2] = [1.5, 0.2, -0.1, 0.3], 0.0    # a scalar chain
        return cc.VectorKernel(u, z), [cc.VectorKernel(a, b)
                                       for a, b in zip(u, z)]

    @pytest.mark.parametrize("seed", range(3))
    def test_chain_functions_match_lone_calls(self, seed):
        stacked, lone = self.kernels(seed)
        lam_plus, lam_minus = cc.chain_eigenvalues(stacked)
        assert_matches_loop(np.stack([lam_plus, lam_minus], axis=-1),
                            [cc.chain_eigenvalues(vk) for vk in lone])
        assert_matches_loop(cc.chain_from_vectors(stacked),
                            [cc.chain_from_vectors(vk) for vk in lone])
        assert_matches_loop(cc.spectral_inv_sqrt_kernel(stacked),
                            [cc.spectral_inv_sqrt_kernel(vk) for vk in lone])
        result = cc.dual_route_inv_sqrt(stacked)
        singles = [cc.dual_route_inv_sqrt(vk) for vk in lone]
        assert_matches_loop(result.unitarity_residual,
                            [r.unitarity_residual for r in singles])
        # the formula is undefined only on the scalar chain
        assert np.isnan(result.deviation[2])
        assert math.isnan(singles[2].deviation)
        defined = [0, 1, 3, 4, 5]
        assert_matches_loop(result.deviation[defined],
                            [singles[i].deviation for i in defined])

        nondegenerate = cc.VectorKernel(stacked.real_vec[defined],
                                        stacked.imag_vec[defined])
        e_plus, e_minus = cc.spectral_projectors(nondegenerate)
        singles = [cc.spectral_projectors(lone[i]) for i in defined]
        assert_matches_loop(e_plus, [e for e, _ in singles])
        assert_matches_loop(e_minus, [e for _, e in singles])
        assert_matches_loop(cc.closed_form_inv_sqrt_kernel(nondegenerate),
                            [cc.closed_form_inv_sqrt_kernel(lone[i])
                             for i in defined])

    def test_multiset_distance_matches_lone_calls(self):
        rng = np.random.default_rng(40)
        a = random_complex(rng, 7, 4)
        b = a[:, ::-1] + 1e-3 * random_complex(rng, 7, 4)
        stacked = cc.multiset_distance(a, b)
        assert stacked.shape == (7,)
        assert_matches_loop(stacked, [multiset_distance(x, y)
                                      for x, y in zip(a, b)], tol=0.0)
        assert isinstance(multiset_distance(a[0], b[0]), float)

    def test_degenerate_element_is_named(self):
        stacked, _ = self.kernels(0)
        with pytest.raises(cc.DegenerateChain, match=r"stack element \[2\]"):
            cc.spectral_projectors(stacked)


class TestDecompositionCounts:
    """eigh / eigvalsh / svd calls do not grow with the stack."""

    def test_jacobian_rank_does_not_grow_with_directions(self, decompositions):
        rng = np.random.default_rng(50)
        counts = []
        for p, f in ((1, 4), (2, 12)):   # 12 and 80 directions
            split = spin_space(random_correlation(rng, f, p), p)
            decompositions.clear()
            assert chart_jacobian_rank(split) == 2 * 2 * p * f - (2 * p) ** 2
            counts.append(len(decompositions))
        assert counts[0] == counts[1]

    def test_coincidence_does_not_grow_with_samples(self, decompositions):
        rng = np.random.default_rng(51)
        base = spin_space(random_correlation(rng, 8, 2), 2)
        base.krein   # the spin space is built once, on first use
        counts = []
        for count in (5, 25):
            ys = chart_forward(stacked_coords(rng, base, count, 0.04)[0])
            decompositions.clear()
            assert charts_coincide_check(base, ys).max_deviation <= 1e-8
            counts.append(len(decompositions))
        assert counts[0] == counts[1]
