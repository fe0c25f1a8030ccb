"""Stacked draws, image splits, charts, wave charts, closed chains and
pure-gauge perturbations.

Every routine below takes a stack of inputs in one call; each stack element
must match the lone call on that element, get its own checks, and name its
index when it fails.  The counts of eigen- and singular-value
decompositions must not grow with the stack, so a return to per-element
loops fails here.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from conftest import (diagonal_waves, local_correlation,
                      multiset_distance, random_krein_unitary, render,
                      unstack)

from cfsgauge import closed_chain as cc
from cfsgauge import perturbation as pt
from cfsgauge import wave_charts as wc
from cfsgauge.cli import load_config, run_experiment, task_perturb
from cfsgauge.correlation import spin_space, split_wave_values
from cfsgauge.dirac_box import (SPINOR_GRAM, DiracBoxConfig, mode_count,
                                wave_value_matrix)
from cfsgauge.errors import (NotRegular, OutOfChartDomain, SignatureLost,
                             TooFarFromBase)
from cfsgauge.krein import KreinSpace, sqrt_near_identity
from cfsgauge.manifold import (ChartCoordinates, chart_forward, chart_inverse,
                               chart_jacobian_rank, gaussian_check)
from cfsgauge.randoms import (random_chart_coords, random_complement_map,
                              random_complex, random_correlation,
                              random_direction_pair, random_gauge_function,
                              random_gram)
from cfsgauge.wave_charts import (WaveChartPoint, build_gauge,
                                  charts_coincide_check, gauge_orbit_witness,
                                  gaussian_wave_map, symmetric_wave_chart)

TOL = 1e-13
EXAMPLE = Path(__file__).resolve().parents[1] / "configs" / "example.json"
BOX = DiracBoxConfig(L=math.pi, eps=0.4, m=0.0)
X = BOX.point(0.2, (0.4, -0.8, 1.1))
Y = BOX.point(0.3, (0.55, -0.7, 1.2))


def assert_matches_loop(stacked, looped, tol=TOL):
    """Each stacked element equals the lone result to ``tol`` relative."""
    for got, want in zip(stacked, looped, strict=True):
        got, want = np.asarray(got), np.asarray(want)
        scale = max(1.0, float(np.max(np.abs(want), initial=0.0)))
        assert np.max(np.abs(got - want), initial=0.0) <= tol * scale


def projector(split):
    return split.basis @ np.swapaxes(split.basis.conj(), -1, -2)


def diagonal_stack(values, f, offsets):
    """The stacked split of diag(values) placed at each offset in C^f."""
    waves = [diagonal_waves(values, f, offset) for offset in offsets]
    return split_wave_values(np.array([w for w, _ in waves]), waves[0][1],
                             *(np.sum(np.asarray(values) > 0),
                               np.sum(np.asarray(values) < 0)))


def stacked_coords(rng, split, count, scale):
    """``count`` random chart coordinates, as one stack and as a list."""
    coords = random_chart_coords(rng, split, count, scale=scale)
    return coords, [ChartCoordinates(a=a, b=b, split=split)
                    for a, b in zip(coords.a, coords.b)]


def random_waves(rng, count, f):
    """``count`` random 4 x f wave values, one near the rank threshold."""
    ws = random_complex(rng, count, 4, f)
    # a kept eigenvalue 1.5e-8 just above the threshold 1e-8
    ws[3] = diagonal_waves([1.0, 1.0, 0.5, 1.5e-8], f)[0]
    return ws


#: the Gram of ``random_waves``: signature (2, 2)
GRAM = np.diag([-1.0, -1.0, 1.0, 1.0])


class TestSplitStack:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_operators_match_lone_splits(self, seed):
        rng = np.random.default_rng(seed)
        ws = random_waves(rng, 6, 8)
        stacked = split_wave_values(ws, GRAM, 2, 2)
        lone = [split_wave_values(w, GRAM, 2, 2) for w in ws]
        assert stacked.rank == 4
        assert stacked.basis.shape == (6, 8, 4)
        assert_matches_loop(stacked.basis, [s.basis for s in lone])
        assert_matches_loop(stacked.restricted, [s.restricted for s in lone])

    @pytest.mark.parametrize("seed", range(4))
    def test_discarded_matches_lone_splits(self, seed):
        rng = np.random.default_rng(seed)
        ws = random_waves(rng, 6, 8)
        stacked = split_wave_values(ws, GRAM, 2, 2)
        lone = [split_wave_values(w, GRAM, 2, 2) for w in ws]
        assert stacked.discarded.shape == (6,)
        assert_matches_loop(stacked.discarded, [s.discarded for s in lone])
        # each bound covers the dense residual of the rendered operator
        dense = np.linalg.norm([local_correlation(w, GRAM) for w in ws]
                               - render(stacked), axis=(-2, -1))
        assert np.all(dense <= stacked.discarded)

    def test_box_operators_match_by_projector(self):
        # box spectra are doubly degenerate: compare projectors, not bases
        cfg = DiracBoxConfig(L=math.pi, eps=0.4, m=0.0)
        points = [cfg.point(0.0, (0.0, 0.0, 0.0)),
                  cfg.point(0.2, (0.4, -0.8, 1.1)),
                  cfg.point(-1.3, (2.9, 0.05, -3.0))]
        ws = wave_value_matrix(cfg, points)
        stacked = split_wave_values(ws, SPINOR_GRAM, 2, 2)
        lone = [split_wave_values(w, SPINOR_GRAM, 2, 2) for w in ws]
        assert_matches_loop(projector(stacked), [projector(s) for s in lone])
        assert_matches_loop(np.linalg.eigvalsh(stacked.restricted),
                            [np.linalg.eigvalsh(s.restricted) for s in lone])

    def test_failing_element_is_named(self):
        rng = np.random.default_rng(5)
        ws = random_complex(rng, 3, 4, 6)
        ws[1, 3] = ws[1, 2]   # rank 3
        with pytest.raises(NotRegular,
                           match=r"stack element \[1\]: expected signature"):
            split_wave_values(ws, GRAM, 2, 2)


class TestChartStack:
    @pytest.mark.parametrize("p,f", [(1, 6), (2, 8)])
    def test_forward_and_inverse_match_lone_calls(self, p, f):
        rng = np.random.default_rng(10 + f)
        split = spin_space(random_correlation(rng, f, p), p)
        coords, drawn = stacked_coords(rng, split, 7, scale=0.05)
        ys = chart_forward(coords)
        assert_matches_loop(render(ys), [render(chart_forward(c))
                                         for c in drawn])
        back = chart_inverse(ys, split)
        lone = [chart_inverse(y, split) for y in unstack(ys)]
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
        points = diagonal_stack([1.0, -1.0], 6, offsets=(0, 4))
        with pytest.raises(TooFarFromBase, match=r"stack element \[1\]"):
            chart_inverse(points, unstack(points)[0])


class TestWaveChartStack:
    def test_symmetric_and_transported_charts_match_lone_calls(self):
        rng = np.random.default_rng(30)
        base = spin_space(random_correlation(rng, 8, 2), 2)
        coords, drawn = stacked_coords(rng, base, 6, scale=0.04)
        ys = chart_forward(coords)
        stacked = symmetric_wave_chart(ys, base)
        lone = [symmetric_wave_chart(y, base) for y in unstack(ys)]
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
        lone = [build_gauge(base, [y]) for y in unstack(ys)]
        assert_matches_loop(gauge.values, [g.values[0] for g in lone])
        assert_matches_loop(gauge.condition_residuals,
                            [g.condition_residuals[0] for g in lone],
                            tol=1e-12)

        on_image = np.eye(4) + 0.05 * random_complex(rng, 5, 4, 4)
        on_complement = random_complement_map(rng, base, 5, 4, scale=0.05)
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
        points = diagonal_stack([1.0, -1.0], 6, offsets=(0, 4))
        base = unstack(points)[0]
        with pytest.raises(OutOfChartDomain, match=r"stack element \[1\]"):
            symmetric_wave_chart(points, base)
        # same image, but T T* - 1 = X^{-1} a = 1.5 lies beyond the root's 0.8
        with pytest.raises(OutOfChartDomain,
                           match=r"stack element \[2\]: \|\|B - 1\|\| = 1.5 "
                                 r">= allowed radius"):
            charts_coincide_check(base, [
                split_wave_values(*diagonal_waves([scale, -scale], 6), 1, 1)
                for scale in (1.0, 1.1, 2.5)])


class TestDrawStack:
    """One call draws a whole stack, and each element is a valid draw."""

    @pytest.mark.parametrize("p,f", [(1, 6), (2, 8)])
    def test_coupling_blocks_annihilate_the_image(self, p, f):
        rng = np.random.default_rng(60 + f)
        split = spin_space(random_correlation(rng, f, p), p)
        coords = random_chart_coords(rng, split, 3, 7, scale=0.05)
        on_complement = random_complement_map(rng, split, 9, 2 * p)
        (_, b1), (_, b2) = random_direction_pair(rng, split, 4)
        assert coords.a.shape == (3, 7, 2 * p, 2 * p)
        assert coords.b.shape == (3, 7, 2 * p, f)
        for b in (coords.b, on_complement, b1, b2):
            assert np.max(np.abs(b @ split.basis)) <= TOL
            assert np.min(np.abs(b).max(axis=(-2, -1))) > 0.0

    @pytest.mark.parametrize("p,q", [(1, 1), (2, 2), (3, 1)])
    def test_each_gram_has_the_signature(self, p, q):
        grams = random_gram(np.random.default_rng(70 + p), p, q, 5, 20)
        assert grams.shape == (5, 20, p + q, p + q)
        eigs = np.linalg.eigvalsh(grams)
        assert np.all(np.sum(eigs > 0.0, axis=-1) == p)
        assert np.all(np.sum(eigs < 0.0, axis=-1) == q)
        KreinSpace(gram=grams, signature=(p, q))   # invertible, Hermitian

    def test_gaussian_check_matches_lone_calls(self):
        rng = np.random.default_rng(80)
        split = spin_space(random_correlation(rng, 8, 2), 2)
        (a1, b1), (a2, b2) = random_direction_pair(rng, split, 6)
        stacked = gaussian_check(split, a1, b1, a2, b2)
        lone = [gaussian_check(split, *d)
                for d in zip(a1, b1, a2, b2, strict=True)]
        for field in ("quadratic_coefficient", "predicted_coefficient",
                      "residuals", "residual_ratios"):
            assert_matches_loop(getattr(stacked, field),
                                [getattr(r, field) for r in lone])


class TestPerturbationStack:
    """Stacked gauge functions, phases, kernels and gauge values."""

    def lone(self, lam):
        """The stacked gauge functions, one at a time."""
        return [pt.GaugeFunction(terms=t, L=lam.L)
                for t in lam.terms.reshape(-1, *lam.terms.shape[-2:])]

    def test_gauge_functions_and_phases_match_lone_calls(self):
        lam = random_gauge_function(np.random.default_rng(90), BOX.L, 2, 3)
        assert lam.terms.shape == (2, 3, 3, 6)
        lone = self.lone(lam)
        assert_matches_loop(lam(X).ravel(), [g(X) for g in lone])
        shifted = lam.shifted_to_vanish_at(X)
        assert shifted.terms.shape == (2, 3, 4, 6)
        assert_matches_loop(shifted(Y).ravel(),
                            [g.shifted_to_vanish_at(X)(Y) for g in lone])
        # a stack of points, as wave_value_matrix takes: bit-equal values
        points = [X, Y, BOX.point(-0.4, (3.0, -2.9, 0.1))]
        assert lam(points).shape == (2, 3, 3) and lam([]).shape == (2, 3, 0)
        assert np.array_equal(lam(points),
                              np.stack([lam(p) for p in points], axis=-1))
        for g in lone:
            assert np.array_equal(g(points), [g(p) for p in points])
        waves = wave_value_matrix(BOX, X)
        stacked = pt.apply_local_phase(waves, lam, X)
        assert stacked.shape == (2, 3, *waves.shape)
        assert_matches_loop(stacked.reshape(-1, *waves.shape),
                            [pt.apply_local_phase(waves, g, X) for g in lone])

    def test_gauge_values_match_lone_calls(self):
        lam = random_gauge_function(np.random.default_rng(91), BOX.L, 6)
        lone = self.lone(lam)
        for box in (BOX, DiracBoxConfig(L=math.pi, eps=0.4, m=0.3)):
            wx, wy = wave_value_matrix(box, X), wave_value_matrix(box, Y)
            wx_t = pt.apply_local_phase(wx, lam, X)
            wy_t = pt.apply_local_phase(wy, lam, Y)
            assert_matches_loop(pt.perturbed_symmetric_gauge(wx, wx_t),
                                [pt.perturbed_symmetric_gauge(wx, w)
                                 for w in wx_t], tol=1e-12)
            assert_matches_loop(pt.perturbed_symmetric_gauge(wx_t, wy_t),
                                [pt.perturbed_symmetric_gauge(a, b)
                                 for a, b in zip(wx_t, wy_t)], tol=1e-12)
            coeffs = pt.basis_waves(box, X).coeffs
            via_gauge, via_chain = pt.gauged_basis(wx, wx_t, coeffs)
            singles = [pt.gauged_basis(wx, pt.apply_local_phase(wx, g, X),
                                       coeffs) for g in lone]
            assert_matches_loop(via_gauge, [g for g, _ in singles], tol=1e-12)
            assert_matches_loop(via_chain, [c for _, c in singles], tol=1e-12)


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

    def test_perturbed_gauge_does_not_grow_with_functions(self,
                                                          decompositions):
        rng = np.random.default_rng(52)
        waves = wave_value_matrix(BOX, X)
        counts = []
        for count in (5, 50):
            lam = random_gauge_function(rng, BOX.L, count)
            perturbed = pt.apply_local_phase(waves, lam, X)
            decompositions.clear()
            assert pt.perturbed_symmetric_gauge(waves, perturbed).shape == (
                count, *waves.shape)
            counts.append(len(decompositions))
        assert counts[0] == counts[1]

    def test_perturb_task_has_a_fixed_budget(self, decompositions):
        # 643 eigh / eigvalsh / svd calls when it looped per sample
        config = load_config(EXAMPLE)
        decompositions.clear()
        entries = task_perturb(config)
        assert all(e["passed"] for e in entries)
        assert len(decompositions) <= 40

    def test_example_run_svd_budget(self, decompositions, tmp_path):
        # 129 calls on 4,916 matrices when every norm guard and report
        # maximum took the SVD of its whole stack, 41 on 840 while opnorm
        # was an SVD; now 5 in chart_inverse, 3 in chart_jacobian_rank and
        # 1 in gauge_orbit_witness
        config = load_config(EXAMPLE)
        decompositions.clear()
        assert run_experiment(config, tmp_path) == 0
        svd = [shape for name, shape in decompositions.inputs
               if name == "svd"]
        assert len(svd) <= 9
        assert sum(math.prod(shape[:-2]) for shape in svd) <= 188


class TestWaveValueStack:
    # L = pi makes every lattice momentum an integer; L = 2.9 does not
    @pytest.mark.parametrize("L,m", [(math.pi, 0.0), (math.pi, 0.3),
                                     (2.9, 0.0), (2.9, 0.3)])
    def test_stack_equals_lone_calls(self, L, m):
        box = DiracBoxConfig(L=L, eps=0.4, m=m)
        axis = np.linspace(-box.L, box.L, 5, endpoint=False)
        points = [box.point(t, (a, b, c)) for t in (0.1, -0.35)
                  for a in axis for b in axis for c in axis]
        stacked = wave_value_matrix(box, points)
        assert stacked.shape == (250, 4, mode_count(box))
        assert np.array_equal(stacked, [wave_value_matrix(box, point)
                                        for point in points])


class TestEmptyStack:
    """A stack of no elements passes every check and gives empty results."""

    def test_split_of_no_wave_values(self):
        split = split_wave_values(np.zeros((0, 4, 160)), SPINOR_GRAM, 2, 2)
        assert split.basis.shape == (0, 160, 4)
        assert split.restricted.shape == (0, 4, 4)

    def test_chart_forward_of_no_coordinates(self):
        base = random_correlation(np.random.default_rng(70), 8, 2)
        coords = ChartCoordinates(a=np.zeros((0, 4, 4)),
                                  b=np.zeros((0, 4, 8)), split=base)
        assert chart_forward(coords).basis.shape == (0, 8, 4)

    def test_space_and_roots_of_no_grams(self):
        space = KreinSpace(gram=np.zeros((0, 2, 2)), signature=(1, 1))
        root = sqrt_near_identity(np.zeros((0, 2, 2)), space)
        assert root.sqrt.shape == root.inv_sqrt.shape == (0, 2, 2)

    def test_gauge_over_no_points(self):
        base = split_wave_values(wave_value_matrix(BOX, X), SPINOR_GRAM, 2, 2)
        none = split_wave_values(np.zeros((0, 4, mode_count(BOX))),
                                 SPINOR_GRAM, 2, 2)
        gauge = build_gauge(base, none)
        assert gauge.values == () and gauge.condition_residuals == ()


class TestOrbitCertificate:
    """The orbit tests decide as they did with an SVD per residual."""

    def case(self, scale):
        rng = np.random.default_rng(60)
        base = spin_space(random_correlation(rng, 8, 2), 2)
        on_image = scale * (np.eye(4) + 0.05 * random_complex(rng, 5, 4, 4))
        on_complement = random_complement_map(rng, base, 5, 4,
                                              scale=0.05 * scale)
        u0 = np.array([random_krein_unitary(rng, base.krein, 0.2)
                       for _ in range(5)])
        return (WaveChartPoint(on_image, on_complement, base),
                WaveChartPoint(u0 @ on_image, u0 @ on_complement, base), u0)

    def test_off_orbit_pair_has_no_witness(self):
        psi, rotated, _ = self.case(1.0)
        other, _, _ = self.case(1.1)
        assert gauge_orbit_witness(psi, other) is None
        off = WaveChartPoint(rotated.on_image, 1.5 * rotated.on_complement,
                             psi.base)
        assert gauge_orbit_witness(psi, off) is None

    def test_scaled_tolerance_where_the_certificate_fails(self, monkeypatch):
        # ||realization|| ~ 1e9: its rounding exceeds the unscaled ORBIT_TOL
        psi, rotated, u0 = self.case(3e4)
        scaled = []

        def recorded(a, _original=wc.opnorm):
            scaled.append(np.shape(a))
            return _original(a)

        monkeypatch.setattr(wc, "opnorm", recorded)
        u = gauge_orbit_witness(psi, rotated)
        assert scaled    # the tolerance was scaled with the realization
        assert u is not None
        assert np.max(np.abs(u - u0)) <= 1e-9
