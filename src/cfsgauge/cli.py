"""Reproducible experiment runner.

``cfsgauge run config.json`` builds box ensembles from a JSON config,
executes the requested verification tasks, and writes two machine-readable
outputs into the chosen directory:

* ``report.json`` - one entry per assertion with its measured value,
  threshold and pass/fail flag (stable key order; a fixed seed reproduces
  the file byte for byte),
* ``kernels.csv`` - sampled two-point kernel entries relative to the first
  configured point, RFC-4180-style with header
  ``t,x1,x2,x3,row,col,re,im``.

``cfsgauge dim p q f`` prints the manifold dimension and ``cfsgauge modes
L eps m`` the sea mode count for one box.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import sys
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import closed_chain as cc
from . import krein as kr
from . import manifold as mf
from . import perturbation as pt
from . import randoms as rnd
from . import wave_charts as wc
from .dirac_box import (MIN_MASS, DiracBoxConfig, kernel_braket_sum,
                        kernel_mode_sum, mixed_kernel, mode_count,
                        wave_value_matrix)
from .errors import CfsGaugeError, ConfigError, TaskError, TooManyModes
from .krein import KreinSpace, opnorm

#: cap on the nt * nx^3 points of a grid spec, checked before expanding it
MAX_GRID_POINTS = 1 << 16
#: cap on 2 |t| / eps, which bounds every phase omega (t_x - t_y) since
#: omega < 1 / eps: past 2^52 a float phase keeps no digit below one radian
MAX_PHASE = 2.0 ** 52
#: cap on the bytes of each (block, 4, f) wave stack ``task_perturb`` forms;
#: a block keeps a few such stacks alive at once (waves, their phased copy)
MAX_DENSE_BYTES = 1 << 19
#: largest s = ||A - 1|| of the gauge task's polar draws.  Gram moduli in
#: randoms.SPREAD = (0.5, 2) give the Krein adjoint a norm factor k <= 4,
#: so ||A* A - 1|| <= (1 + k) s + k s^2 = 5s + 4s^2 = 0.778, inside
#: krein.RADIUS_SERIES = 0.8 for every draw
POLAR_SIZE = 0.14

DEFAULT_TOLERANCES = {
    "chart_roundtrip": 1e-9,
    "gaussian_c2_rel": 1e-8,
    "gaussian_ratio_low": 12.0,
    "gaussian_ratio_high": 20.0,
    "polar_residual": 1e-8,
    "polar_unitary": 1e-9,
    "polar_symmetric": 1e-9,
    "sqrt_series_agreement": 1e-9,
    "orbit_recovery": 1e-9,
    "coincidence": 1e-8,
    "gauge_condition": 1e-9,
    "eigenvalue_match": 1e-9,
    "projector_algebra": 1e-9,
    "unitarity": 1e-9,
    "expansion_coefficient": 1e-6,
    "expansion_ratio_low": 3.0,
    "expansion_ratio_high": 5.0,
    "phase_cancellation": 1e-9,
    "kernel_phase_law": 1e-9,
    "chain_invariance": 1e-9,
    "gauge_value_invariance": 1e-9,
    "mixed_kernel_law": 1e-10,
    "kernel_consistency": 1e-10,
}


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    box: DiracBoxConfig
    points: np.ndarray   # read-only (n, 4)
    seed: int
    tasks: tuple


def _finite_number(value) -> bool:
    """Whether a JSON value is a finite int or float; booleans are not."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _require(mapping, key, kind, field):
    if key not in mapping:
        raise ConfigError("missing required value", field=field)
    value = mapping[key]
    if kind is float and _finite_number(value):
        return float(value)
    if kind is int and isinstance(value, int) and not isinstance(value, bool):
        return value
    expected = "finite number" if kind is float else kind.__name__
    raise ConfigError(f"expected {expected}", field=field)


def _known_keys(mapping: dict, known, prefix: str = "") -> None:
    """Reject the first key of ``mapping`` that is not in ``known``."""
    for key in mapping:
        if key not in known:
            raise ConfigError("unknown field", field=f"{prefix}{key}")


def parse_config(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("top-level document must be an object", field="")
    _known_keys(raw, ("box", "points", "seed", "tasks"))

    box_raw = raw.get("box")
    if not isinstance(box_raw, dict):
        raise ConfigError("missing or invalid section", field="box")
    _known_keys(box_raw, ("L", "eps", "m"), "box.")
    L = _require(box_raw, "L", float, "box.L")
    eps = _require(box_raw, "eps", float, "box.eps")
    m = _require(box_raw, "m", float, "box.m")
    if L <= 0.0:
        raise ConfigError("must be positive", field="box.L")
    if eps <= 0.0:
        raise ConfigError("must be positive", field="box.eps")
    if not (m == 0.0 or m >= MIN_MASS):
        raise ConfigError(f"must be 0 or at least MIN_MASS = {MIN_MASS:.4g}",
                          field="box.m")
    try:
        box = DiracBoxConfig(L=L, eps=eps, m=m)
    except TooManyModes as exc:
        raise ConfigError(str(exc), field="box.eps") from exc
    except ValueError as exc:  # eps and m passed the checks above
        raise ConfigError(str(exc), field="box.L") from exc

    points_raw = raw.get("points", {"nt": 1, "nx": 2, "t_range": [0.0, 0.0]})
    points = _parse_points(points_raw, box)
    if len(points) == 0:
        raise ConfigError("grid is empty", field="points")
    points.setflags(write=False)

    seed = _seed(raw.get("seed", 0))

    tasks = raw.get("tasks", list(TASK_RUNNERS))
    if not isinstance(tasks, list) or not tasks:
        raise ConfigError("expected non-empty list", field="tasks")
    for task in tasks:
        if not isinstance(task, str) or task not in TASK_RUNNERS:
            raise ConfigError(f"unknown task {task!r}", field="tasks")

    return ExperimentConfig(box=box, points=points, seed=seed,
                            tasks=tuple(tasks))


def _seed(value) -> int:
    """A seed that numpy's default_rng accepts after every task offset."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ConfigError("expected non-negative integer", field="seed")
    return value


def _phase_bounded(t, box: DiracBoxConfig) -> bool:
    """Whether points with times up to |t| keep every phase in MAX_PHASE."""
    return 2.0 * abs(t) / box.eps <= MAX_PHASE


def _parse_points(raw, box: DiracBoxConfig) -> np.ndarray:
    """The (n, 4) points of a point list or a grid spec."""
    if isinstance(raw, list):
        for i, item in enumerate(raw):
            if (not isinstance(item, list) or len(item) != 4
                    or not all(_finite_number(c) for c in item)):
                raise ConfigError("expected [t, x1, x2, x3]",
                                  field=f"points[{i}]")
            if not _phase_bounded(item[0], box):
                raise ConfigError("2 |t| / eps exceeds MAX_PHASE",
                                  field=f"points[{i}]")
        coords = np.array(raw, dtype=float).reshape(-1, 4)   # [] is (0, 4)
    elif isinstance(raw, dict):
        _known_keys(raw, ("nt", "nx", "t_range"), "points.")
        nt = _require(raw, "nt", int, "points.nt")
        nx = _require(raw, "nx", int, "points.nx")
        t_range = raw.get("t_range", [0.0, 0.0])
        if (not isinstance(t_range, list) or len(t_range) != 2
                or not all(_finite_number(c) for c in t_range)):
            raise ConfigError("expected [t_min, t_max]", field="points.t_range")
        if not all(_phase_bounded(c, box) for c in t_range):
            raise ConfigError("2 |t| / eps exceeds MAX_PHASE",
                              field="points.t_range")
        if nt < 1 or nx < 1:
            raise ConfigError("grid sizes must be >= 1", field="points")
        if nt * nx ** 3 > MAX_GRID_POINTS:
            raise ConfigError("more than MAX_GRID_POINTS points", field="points")
        times = np.linspace(float(t_range[0]), float(t_range[1]), nt)
        axis = np.linspace(-box.L, box.L, nx, endpoint=False)
        coords = np.array(list(itertools.product(times, axis, axis, axis)))
    else:
        raise ConfigError("expected list of points or grid spec",
                          field="points")
    return box.point(coords[:, 0], coords[:, 1:])


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ConfigError(str(exc), field="path") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}", field="path") from exc
    return parse_config(raw)


def _entry(task, name, ref, value, threshold):
    """One report line; informational without threshold, null if not finite."""
    value = float(value)
    finite = math.isfinite(value)
    passed = True if threshold is None else bool(finite and value <= threshold)
    return {"task": task, "name": name, "paper_ref": ref,
            "value": value if finite else None, "threshold": threshold,
            "passed": passed}


def _interval_excess(values, low, high) -> float:
    """Largest distance of ``values`` outside [low, high]; inf if not finite.

    A NaN would pass ``max`` (every comparison with it is false); an
    infinite excess keeps any later ``max`` infinite and fails the gate.
    """
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        return math.inf
    return float(np.max(np.maximum(low - values, values - high), initial=0.0))


# ---------------------------------------------------------------------------
# tasks


def task_dim_count(config: ExperimentConfig):
    box = config.box
    f = mode_count(box)
    predicted = 8.0 / (3.0 * np.pi ** 2) * (box.L / box.eps) ** 3
    entries = [
        _entry("dim-count", "f", "sea-mode-count", f, None),
        _entry("dim-count", "mode-density-ratio", "mode-density-asymptotics",
               abs(f / predicted - 1.0), None),
    ]
    for p, q, f_dim in ((1, 1, 4), (2, 2, 8)):
        entries.append(_entry(
            "dim-count", f"manifold-dim-{p}{q}-{f_dim}",
            "manifold-dimension-formula",
            float(mf.manifold_dim(p, q, f_dim)), None))
    return entries


def task_charts(config: ExperimentConfig):
    tol = DEFAULT_TOLERANCES
    rng = np.random.default_rng(config.seed)
    entries = []

    worst = 0.0
    for p, q, f in ((1, 1, 6), (2, 2, 8)):
        split = rnd.random_correlation(rng, f, p)
        coords = rnd.random_chart_coords(rng, split, 50, scale=0.05)
        back = mf.chart_inverse(mf.chart_forward(coords), split)
        worst = max(worst, np.max(opnorm(back.a - coords.a)),
                    np.max(opnorm(back.b - coords.b)))
    entries.append(_entry("charts", "roundtrip-max-residual",
                          "chart-inverse-roundtrip", worst,
                          tol["chart_roundtrip"]))

    for p, q, f in ((1, 1, 4), (2, 2, 8), (2, 2, 12)):
        split = rnd.random_correlation(rng, f, p)
        rank = mf.chart_jacobian_rank(split)
        entries.append(_entry(
            "charts", f"jacobian-rank-{p}{q}-{f}",
            "manifold-dimension-formula",
            abs(rank - mf.manifold_dim(p, q, f)), 0.0))

    split = rnd.random_correlation(rng, 8, 2)
    dir1, dir2 = rnd.random_direction_pair(rng, split, 5)
    report = mf.gaussian_check(split, *dir1, *dir2)
    worst_rel = np.max(np.abs(report.quadratic_coefficient
                              - report.predicted_coefficient)
                       / np.maximum(1.0, report.predicted_coefficient))
    worst_excess = _interval_excess(report.residual_ratios,
                                    tol["gaussian_ratio_low"],
                                    tol["gaussian_ratio_high"])
    entries.append(_entry("charts", "gaussian-c2-relative-error",
                          "gaussian-chart-quadratic-form", worst_rel,
                          tol["gaussian_c2_rel"]))
    entries.append(_entry("charts", "gaussian-residual-ratio-excess",
                          "gaussian-chart-quartic-residual", worst_excess, 0.0))
    return entries


def task_gauge(config: ExperimentConfig):
    tol = DEFAULT_TOLERANCES
    rng = np.random.default_rng(config.seed + 1)
    entries = []

    worst = np.zeros(4)   # polar, unitary, symmetric and series residuals
    for p, q in ((1, 1), (2, 2)):
        dim = p + q
        space = KreinSpace(gram=rnd.random_gram(rng, p, q, 100),
                           signature=(p, q))
        deltas = rnd.random_complex(rng, 100, dim, dim)
        sizes = POLAR_SIZE * rng.uniform(0.2, 1.0, size=100)
        a = np.eye(dim) + deltas * (sizes / opnorm(deltas))[:, None, None]
        u, s = kr.polar_decompose(a, space)
        series = kr.binomial_sqrt_series(space.adjoint(a) @ a - np.eye(dim),
                                         0.5)
        residuals = (a - u @ s,
                     kr._adjoint(u) @ space.gram @ u - space.gram,
                     s - space.adjoint(s), s - series)
        worst = np.maximum(worst, [np.max(opnorm(r)) for r in residuals])
    for value, (name, ref, key) in zip(worst.tolist(), (
            ("polar-residual", "unique-polar-decomposition", "polar_residual"),
            ("polar-unitary-residual", "indefinite-unitarity", "polar_unitary"),
            ("polar-symmetric-residual", "indefinite-symmetry",
             "polar_symmetric"),
            ("sqrt-series-agreement", "sqrt-series-vs-diagonalization",
             "sqrt_series_agreement"))):
        entries.append(_entry("gauge", name, ref, value, tol[key]))

    base = rnd.random_correlation(rng, 8, 2)
    on_image = np.eye(4) + 0.05 * rnd.random_complex(rng, 25, 4, 4)
    on_complement = rnd.random_complement_map(rng, base, 25, 4, scale=0.05)
    m = 0.2 * rnd.random_complex(rng, 25, 4, 4)
    # Krein unitaries near 1: Cayley transforms of Krein-antisymmetric parts
    half = 0.25 * (m - base.krein.adjoint(m))
    u0 = np.linalg.solve(np.eye(4) - half, np.eye(4) + half)
    psi = on_image @ kr._adjoint(base.basis) + on_complement
    u = wc.gauge_orbit_witness(psi, u0 @ psi, base)
    if u is None:
        raise TaskError("orbit witness unexpectedly missing")
    entries.append(_entry("gauge", "orbit-recovery",
                          "gauge-orbit-injectivity", np.max(opnorm(u - u0)),
                          tol["orbit_recovery"]))

    worst_coincide = 0.0
    for f in (8, 12):
        base_f = rnd.random_correlation(rng, f, 2)
        samples = mf.chart_forward(
            rnd.random_chart_coords(rng, base_f, 25, scale=0.04))
        report = wc.charts_coincide_check(base_f, samples)
        worst_coincide = max(worst_coincide, report.max_deviation)
    entries.append(_entry("gauge", "wave-chart-coincidence",
                          "symmetric-vs-transported-wave-chart",
                          worst_coincide, tol["coincidence"]))

    points = mf.chart_forward(rnd.random_chart_coords(rng, base, 10,
                                                      scale=0.05))
    gauge = wc.build_gauge(base, points)
    entries.append(_entry("gauge", "gauge-condition-residual",
                          "gauge-defining-condition",
                          max(gauge.condition_residuals),
                          tol["gauge_condition"]))
    return entries


def task_spectral(config: ExperimentConfig):
    tol = DEFAULT_TOLERANCES
    rng = np.random.default_rng(config.seed + 2)
    entries = []

    drawn = rng.standard_normal((100, 2, 4))
    vk = cc.VectorKernel(drawn[:, 0], drawn[:, 1])
    lam_plus, lam_minus = cc.chain_eigenvalues(vk)
    predicted = np.stack([lam_plus, lam_plus, lam_minus, lam_minus], axis=-1)
    numeric = np.linalg.eigvals(cc.chain_from_vectors(vk))
    worst_eig = np.max(cc.multiset_distance(predicted, numeric))
    entries.append(_entry("spectral", "eigenvalue-match",
                          "closed-chain-eigenvalues", worst_eig,
                          tol["eigenvalue_match"]))

    vk = _right_half_plane_samples(rng, 50)
    e_plus, e_minus = cc.spectral_projectors(vk)
    lam_plus, lam_minus = (lam[:, None, None]
                           for lam in cc.chain_eigenvalues(vk))
    a = cc.chain_from_vectors(vk)
    worst_proj = np.max(opnorm(np.stack([
        e_plus + e_minus - np.eye(4), e_plus @ e_plus - e_plus, e_plus @ e_minus,
        a @ e_plus - lam_plus * e_plus, a @ e_minus - lam_minus * e_minus])))
    result = cc.dual_route_inv_sqrt(vk)
    worst_unit = np.max(result.unitarity_residual)
    worst_dev = np.max(result.deviation)
    entries.append(_entry("spectral", "projector-algebra",
                          "spectral-projector-algebra", worst_proj,
                          tol["projector_algebra"]))
    entries.append(_entry("spectral", "connecting-unitarity",
                          "gauge-factor-unitarity", worst_unit,
                          tol["unitarity"]))
    entries.append(_entry("spectral", "closed-form-vs-spectral-deviation",
                          "closed-form-vs-spectral-route", worst_dev, None))

    real_step = np.concatenate([[0.0], 0.5 * rng.standard_normal(3)])
    imag_step = np.concatenate([rng.standard_normal(1),
                                0.5 * rng.standard_normal(3)])
    report = cc.unitary_expansion(real_step, imag_step)
    entries.append(_entry("spectral", "expansion-coefficient",
                          "gauge-factor-first-order",
                          report.coefficient_deviation,
                          tol["expansion_coefficient"]))
    worst_excess = _interval_excess(report.residual_ratios,
                                    tol["expansion_ratio_low"],
                                    tol["expansion_ratio_high"])
    entries.append(_entry("spectral", "expansion-residual-ratio-excess",
                          "gauge-factor-quadratic-residual", worst_excess,
                          0.0))
    entries.append(_entry("spectral", "expansion-antisymmetry",
                          "gauge-factor-unitarity",
                          report.antisymmetry_residual,
                          tol["expansion_coefficient"]))
    return entries


def _right_half_plane_samples(rng, count: int):
    """``count`` kernels whose chain eigenvalues are apart and off the cut.

    Rejection sampling in rounds: a round draws as many candidates as are
    still missing, so no draw is made past the last accepted one and the
    samples are those of one candidate at a time.
    """
    kept = []
    while len(kept) < count:
        drawn = [(np.array([rng.uniform(1.5, 2.5),
                            *(0.4 * rng.standard_normal(3))]),
                  0.4 * rng.standard_normal(4))
                 for _ in range(count - len(kept))]
        lam_plus, lam_minus = cc.chain_eigenvalues(
            cc.VectorKernel(*map(np.array, zip(*drawn))))
        lams = np.stack([lam_plus, lam_minus])
        off_cut = np.all((lams.real > 0.1) | (np.abs(lams.imag) > 0.1), axis=0)
        apart = (np.abs(lam_plus - lam_minus)
                 > 1e-3 * (np.abs(lam_plus) + np.abs(lam_minus)))
        kept += [d for d, ok in zip(drawn, off_cut & apart) if ok]
    return cc.VectorKernel(*map(np.array, zip(*kept)))


def task_perturb(config: ExperimentConfig):
    tol = DEFAULT_TOLERANCES
    box = config.box
    rng = np.random.default_rng(config.seed + 3)
    entries = []

    x = config.points[0]
    y = (config.points[1] if len(config.points) > 1
         else box.point(x[0] + 0.1, x[1:] + 0.2))

    pairs = [(x, y), (y, x), (x, box.point(0.0, np.zeros(3)))]
    worst_kernel = np.max(opnorm(np.array([kernel_mode_sum(box, a, b)
                                           - kernel_braket_sum(box, a, b)
                                           for a, b in pairs])))
    entries.append(_entry("perturb", "kernel-sum-consistency",
                          "kernel-mode-sum-vs-braket", worst_kernel,
                          tol["kernel_consistency"]))

    waves = wave_value_matrix(box, x)
    block = max(1, MAX_DENSE_BYTES // waves.nbytes)
    reference = pt.perturbed_symmetric_gauge(waves, waves)
    lam = rnd.random_gauge_function(rng, box.L, 50)
    worst_cancel = 0.0
    for start in range(0, len(lam.terms), block):
        part = pt.GaugeFunction(terms=lam.terms[start:start + block], L=lam.L)
        values = pt.perturbed_symmetric_gauge(
            waves, pt.apply_local_phase(waves, part, x))
        worst_cancel = np.maximum(worst_cancel,
                                  np.max(opnorm(values - reference)))
    entries.append(_entry("perturb", "phase-cancellation",
                          "local-phase-cancellation", worst_cancel,
                          tol["phase_cancellation"]))

    waves_y = wave_value_matrix(box, y)
    p_xy = mixed_kernel(waves, waves_y)
    chain = p_xy @ mixed_kernel(waves_y, waves)
    reference_y = pt.perturbed_symmetric_gauge(waves, waves_y)
    lam = rnd.random_gauge_function(rng, box.L, 10).shifted_to_vanish_at(x)
    worst = np.zeros(3)   # phase law, chain and gauge value residuals
    for start in range(0, len(lam.terms), block):
        part = pt.GaugeFunction(terms=lam.terms[start:start + block], L=lam.L)
        wx_t = pt.apply_local_phase(waves, part, x)
        wy_t = pt.apply_local_phase(waves_y, part, y)
        p_xy_t = mixed_kernel(wx_t, wy_t)
        phase = np.exp(1j * (part(x) - part(y)))[:, None, None]
        residuals = (p_xy_t - phase * p_xy,
                     p_xy_t @ mixed_kernel(wy_t, wx_t) - chain,
                     pt.perturbed_symmetric_gauge(wx_t, wy_t) - reference_y)
        worst = np.maximum(worst, [np.max(opnorm(r)) for r in residuals])
    for value, (name, ref, key) in zip(worst.tolist(), (
            ("kernel-phase-law", "kernel-phase-transformation",
             "kernel_phase_law"),
            ("chain-invariance", "closed-chain-gauge-invariance",
             "chain_invariance"),
            ("gauge-value-invariance", "distinguished-gauge-invariance",
             "gauge_value_invariance"))):
        entries.append(_entry("perturb", name, ref, value, tol[key]))

    lam = rnd.random_gauge_function(rng, box.L)
    axis = np.linspace(-box.L, box.L, 5, endpoint=False)
    grid = box.point(0.1, np.array(list(itertools.product(axis, repeat=3))))
    worst_mixed = 0.0
    for start in range(0, len(grid), block):
        points = grid[start:start + block]
        w = wave_value_matrix(box, points)
        phases = lam(points)[:, None, None]
        expected = np.exp(-1j * phases) * mixed_kernel(w, w)
        worst_mixed = np.maximum(worst_mixed, np.max(opnorm(
            mixed_kernel(w, np.exp(1j * phases) * w) - expected)))
    entries.append(_entry("perturb", "mixed-kernel-phase-law",
                          "mixed-kernel-phase-law", worst_mixed,
                          tol["mixed_kernel_law"]))
    return entries


TASK_RUNNERS = {
    "charts": task_charts,
    "gauge": task_gauge,
    "spectral": task_spectral,
    "perturb": task_perturb,
    "dim-count": task_dim_count,
}


# ---------------------------------------------------------------------------
# outputs


def run_experiment(config: ExperimentConfig, out_dir):
    """Execute the configured tasks; write report.json and kernels.csv.

    Each file is written to a temporary name in ``out_dir`` and renamed into
    place, so it is either complete or absent; the report is strict JSON.
    Any exception from a task or from the kernel rows is recorded, with its
    type, under ``task_errors[task]`` or ``task_errors["kernels"]``; one that
    is not a CfsGaugeError also prints its traceback to stderr.  The kernel
    rows are computed before anything is written, so their failure leaves no
    kernels.csv.  Returns the process exit code: 0 when every
    assertion passed and nothing failed, 1 otherwise.  An unusable
    ``out_dir`` raises ConfigError (field ``out``) before any task runs.
    """
    out_path = Path(out_dir)
    try:
        out_path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(str(exc), field="out") from exc

    entries = []
    task_errors = {}

    def attempt(name, step):
        try:
            return step(config)
        except Exception as exc:
            task_errors[name] = f"{type(exc).__name__}: {exc}"
            if not isinstance(exc, CfsGaugeError):  # a fault, not a verdict
                traceback.print_exc()
            return None

    for task in config.tasks:
        entries.extend(attempt(task, TASK_RUNNERS[task]) or [])
    kernel_blocks = attempt("kernels", _kernel_rows)

    all_passed = (not task_errors) and all(e["passed"] for e in entries)
    report = {
        "config": {
            "box": {"L": config.box.L, "eps": config.box.eps,
                    "m": config.box.m},
            "points": config.points.tolist(),
            "seed": config.seed,
            "tasks": list(config.tasks),
            "tolerances": DEFAULT_TOLERANCES,
        },
        "entries": entries,
        "task_errors": task_errors,
        "all_passed": all_passed,
    }
    with _replacing(out_path / "report.json") as handle:
        handle.write(json.dumps(report, indent=2, sort_keys=True,
                                allow_nan=False) + "\n")

    kernels_file = out_path / "kernels.csv"
    if kernel_blocks is None:
        kernels_file.unlink(missing_ok=True)
    else:
        _write_kernel_csv(kernels_file, kernel_blocks)
    return 0 if all_passed else 1


def _kernel_rows(config: ExperimentConfig):
    """CSV rows of the kernel from the first point to every point."""
    blocks = []
    for point in config.points:
        k = kernel_mode_sum(config.box, config.points[0], point)
        blocks.append([[*point.tolist(), row, col,
                        float(k[row, col].real), float(k[row, col].imag)]
                       for row in range(4) for col in range(4)])
    return blocks


@contextmanager
def _replacing(path: Path):
    """Text handle on a temporary file that replaces ``path`` on success."""
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temp, "w", encoding="utf-8", newline="") as handle:
            yield handle
        os.replace(temp, path)
    finally:
        temp.unlink(missing_ok=True)


def _write_kernel_csv(path, blocks):
    with _replacing(path) as handle:
        writer = csv.writer(handle)
        writer.writerow(["t", "x1", "x2", "x3", "row", "col", "re", "im"])
        for block in blocks:
            writer.writerows(block)


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cfsgauge",
        description="Verification experiments for box Dirac ensembles and "
                    "their distinguished gauges.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the tasks of a JSON config")
    run_p.add_argument("config", help="path to the experiment config")
    run_p.add_argument("--out", default=".", help="output directory")
    run_p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")

    dim_p = sub.add_parser("dim", help="print the operator-manifold dimension")
    dim_p.add_argument("p", type=int)
    dim_p.add_argument("q", type=int)
    dim_p.add_argument("f", type=int)

    modes_p = sub.add_parser("modes", help="print the sea mode count")
    modes_p.add_argument("L", type=float)
    modes_p.add_argument("eps", type=float)
    modes_p.add_argument("m", type=float)

    args = parser.parse_args(argv)

    if args.command == "dim":
        try:
            print(mf.manifold_dim(args.p, args.q, args.f))
        except CfsGaugeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return 0

    if args.command == "modes":
        try:
            box = DiracBoxConfig(L=args.L, eps=args.eps, m=args.m)
            print(mode_count(box))
        except (CfsGaugeError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return 0

    try:
        config = load_config(args.config)
        if args.seed is not None:
            config = replace(config, seed=_seed(args.seed))
        return run_experiment(config, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
