"""The three benchmark workloads.

Each workload builds its inputs from the seed in ``__init__`` (that is the
input generation of set-up), runs one op per call to ``op`` and checks the
op's result in ``check``, which returns the list of checks the op missed.
Ops index into inputs generated up front; input 0 is the warm-up op's.

* ``example``: the end-to-end run of ``configs/example.json`` through
  ``cli.main``.  Many small Krein matrices and f = 160 wave values; it never
  splits a dense box operator.
* ``box-gauge``: the paper's system.  The distinguished gauge over a box
  point near the origin at f = 968, with the closed-chain spectrum computed
  three ways.  Dominated by dense f x f splits and SVDs.
* ``ensemble``: wave values and a mode sum at f = 16432 for one new point
  per op.  A few points over many modes, where ``example`` has many points
  over few modes, so a gain for one shape that costs the other shows.
"""

from __future__ import annotations

import itertools
import json
import math
import shutil
from pathlib import Path

import numpy as np

from cfsgauge import cli
from cfsgauge import closed_chain as cc
from cfsgauge import correlation as co
from cfsgauge import dirac_box as db
from cfsgauge import wave_charts as wc

#: gamma^0, the spinor Gram matrix, kept here so the checks do not rest on it
GAMMA0 = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)


def _multiset_distance(a, b) -> float:
    a = np.asarray(a)
    b = np.asarray(b)
    return min(float(np.max(np.abs(a - b[list(perm)])))
               for perm in itertools.permutations(range(len(b))))


def _miss(label: str, value: float, bound: float) -> list[str]:
    return [] if value <= bound else [f"{label} = {value:.3g} > {bound:.3g}"]


class Example:
    """``cfsgauge run configs/example.json --seed S --out <fresh dir>``."""

    name = "example"
    nominal_op_s = 1.7

    def __init__(self, root: Path, work: Path, seed: int, n_ops: int,
                 scale: str = "full"):
        self.config = root / "configs" / "example.json"
        with open(self.config, encoding="utf-8") as handle:
            self.n_points = len(json.load(handle)["points"])
        self.seed = seed
        self.work = work
        self.reference: bytes | None = None
        self.written_bytes = 0
        self._count = 0

    def op(self, i: int):
        self._count += 1
        out = self.work / f"run-{self._count}"
        code = cli.main(["run", str(self.config), "--seed", str(self.seed),
                         "--out", str(out)])
        return code, out

    def check(self, i: int, result) -> list[str]:
        code, out = result
        try:
            report = (out / "report.json").read_bytes()
            csv_lines = (out / "kernels.csv").read_text(encoding="utf-8").splitlines()
            self.written_bytes += len(report) + (out / "kernels.csv").stat().st_size
        finally:
            shutil.rmtree(out, ignore_errors=True)
        misses = [] if code == 0 else [f"exit code {code}"]
        if json.loads(report).get("all_passed") is not True:
            misses.append("report: all_passed is not true")
        if self.reference is None:
            self.reference = report
        elif report != self.reference:
            misses.append("report.json differs from the first run of this seed")
        expected = 16 * self.n_points + 1
        if len(csv_lines) != expected:
            misses.append(f"kernels.csv has {len(csv_lines)} lines, expected {expected}")
        return misses


class BoxGauge:
    """Gauge, chart coincidence and closed-chain spectra at f = 968."""

    name = "box-gauge"
    nominal_op_s = 8.4
    EPS = {"full": 0.2, "tiny": 0.4}
    #: largest |delta_i| of a point from the base point
    SPREAD = 0.15

    def __init__(self, root: Path, work: Path, seed: int, n_ops: int,
                 scale: str = "full"):
        self.cfg = db.DiracBoxConfig(L=math.pi, eps=self.EPS[scale], m=0.0)
        self.x0 = self.cfg.point(0.0, (0.0, 0.0, 0.0))
        self.base = co.spin_space(db.build_correlation_map(self.cfg, [self.x0])[0], 2)
        rng = np.random.default_rng(seed)
        deltas = rng.uniform(-self.SPREAD, self.SPREAD, size=(n_ops + 1, 4))
        self.points = [self.cfg.point(float(d[0]), tuple(float(c) for c in d[1:]))
                       for d in deltas]
        self.tol = cli.DEFAULT_TOLERANCES
        self.written_bytes = 0

    def op(self, i: int):
        y = self.points[i]
        f_y = db.build_correlation_map(self.cfg, [y])[0]
        gauge = wc.build_gauge(self.base, [f_y])
        coincidence = wc.charts_coincide_check(self.base, [f_y])
        via_spin = np.linalg.eigvals(co.closed_chain(self.base, co.spin_space(f_y, 2)))
        k_xy = db.kernel_mode_sum(self.cfg, self.x0, y)
        k_yx = db.kernel_mode_sum(self.cfg, y, self.x0)
        via_modes = np.linalg.eigvals(k_xy @ k_yx)
        lam_plus, lam_minus = cc.chain_eigenvalues(cc.vector_kernel_from_matrix(k_xy))
        via_closed_form = np.array([lam_plus, lam_plus, lam_minus, lam_minus])
        return (max(gauge.condition_residuals), coincidence.max_deviation,
                via_spin, via_modes, via_closed_form)

    def check(self, i: int, result) -> list[str]:
        residual, coincidence, via_spin, via_modes, via_closed_form = result
        match = self.tol["eigenvalue_match"]
        return (_miss("gauge residual", residual, self.tol["gauge_condition"])
                + _miss("chart coincidence", coincidence, self.tol["coincidence"])
                + _miss("spin vs mode-sum spectrum",
                        _multiset_distance(via_spin, via_modes), match)
                + _miss("spin vs closed-form spectrum",
                        _multiset_distance(via_spin, via_closed_form), match)
                + _miss("mode-sum vs closed-form spectrum",
                        _multiset_distance(via_modes, via_closed_form), match))


class Ensemble:
    """Wave values and the mode-sum kernel at f = 16432, one point per op."""

    name = "ensemble"
    nominal_op_s = 1.0
    EPS = {"full": 0.08, "tiny": 0.4}

    def __init__(self, root: Path, work: Path, seed: int, n_ops: int,
                 scale: str = "full"):
        self.cfg = db.DiracBoxConfig(L=math.pi, eps=self.EPS[scale], m=0.0)
        self.x0 = self.cfg.point(0.0, (0.0, 0.0, 0.0))
        self.w0 = db.wave_value_matrix(self.cfg, self.x0)
        rng = np.random.default_rng(seed)
        coords = rng.uniform(-math.pi, math.pi, size=(n_ops + 1, 4))
        self.points = [self.cfg.point(float(c[0]), tuple(float(v) for v in c[1:]))
                       for c in coords]
        self.tol = cli.DEFAULT_TOLERANCES["kernel_consistency"]
        self.written_bytes = 0

    def op(self, i: int):
        y = self.points[i]
        return (db.wave_value_matrix(self.cfg, y),
                db.kernel_mode_sum(self.cfg, self.x0, y))

    def check(self, i: int, result) -> list[str]:
        w_y, k_xy = result
        braket = -(self.w0 @ w_y.conj().T @ GAMMA0)
        return _miss("kernel consistency",
                     float(np.linalg.norm(k_xy - braket, 2)), self.tol)


WORKLOADS = {cls.name: cls for cls in (Example, BoxGauge, Ensemble)}
