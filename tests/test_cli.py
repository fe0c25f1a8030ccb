"""Experiment runner: config validation, reports, determinism, exit codes."""

import collections
import contextlib
import io
import json
import math
import subprocess
import sys
import tempfile
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfsgauge import cli
from cfsgauge import krein as kr
from cfsgauge import randoms as rnd
from cfsgauge.cli import (KNOWN_TASKS, load_config, main, parse_config,
                          run_experiment)
from cfsgauge.dirac_box import MIN_MASS, mode_count
from cfsgauge.errors import ConfigError

EXAMPLE = Path(__file__).resolve().parents[1] / "configs" / "example.json"
BASE_CONFIG = {
    "box": {"L": math.pi, "eps": 0.4, "m": 0.0},
    "points": [[0.2, 0.4, -0.8, 1.1], [0.3, 0.55, -0.7, 1.2]],
    "seed": 7,
    "tasks": ["dim-count"],
}


def reject_constant(token):
    """``parse_constant`` hook that makes json.loads strict."""
    raise ValueError(f"non-standard JSON token {token}")


def write_config(tmp_path, overrides=None, name="config.json"):
    raw = json.loads(json.dumps(BASE_CONFIG))
    if overrides:
        raw.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


class TestConfigParsing:
    def test_valid(self, tmp_path):
        config = load_config(write_config(tmp_path))
        assert config.seed == 7
        assert config.tasks == ("dim-count",)
        assert len(config.points) == 2

    def test_grid_points(self):
        raw = dict(BASE_CONFIG)
        raw["points"] = {"nt": 2, "nx": 2, "t_range": [0.0, 1.0]}
        config = parse_config(raw)
        assert len(config.points) == 2 * 8

    def test_negative_eps_rejected(self):
        raw = json.loads(json.dumps(BASE_CONFIG))
        raw["box"]["eps"] = -0.1
        with pytest.raises(ConfigError):
            parse_config(raw)

    def test_unknown_task_rejected(self):
        raw = dict(BASE_CONFIG)
        raw["tasks"] = ["charts", "nonsense"]
        with pytest.raises(ConfigError):
            parse_config(raw)

    def test_unknown_tolerance_rejected(self):
        # the thresholds are DEFAULT_TOLERANCES alone; a config cannot loosen
        # one, and its old override section is not silently ignored either
        raw = dict(BASE_CONFIG)
        raw["tolerances"] = {"coincidence": 1e-6}
        with pytest.raises(ConfigError) as info:
            parse_config(raw)
        assert info.value.field == "tolerances"

    def test_nonpositive_tolerance_rejected(self):
        raw = dict(BASE_CONFIG)
        raw["tolerances"] = {"coincidence": 0.0}
        with pytest.raises(ConfigError) as info:
            parse_config(raw)
        assert info.value.field == "tolerances"

    @pytest.mark.parametrize("field, overrides", [
        ("task", {"task": ["charts"]}),
        ("box.mass", {"box": {"L": math.pi, "eps": 0.4, "m": 0.0,
                              "mass": 1.0}}),
        ("points.t_rnage", {"points": {"nt": 2, "nx": 1,
                                       "t_rnage": [0.0, 1.0]}}),
    ])
    def test_unknown_field_rejected(self, field, overrides):
        with pytest.raises(ConfigError) as info:
            parse_config(dict(BASE_CONFIG, **overrides))
        assert info.value.field == field

    @pytest.mark.parametrize("m", [2.5e-185, 1e-170, 1e-160])
    def test_underflowing_mass_rejected(self, m):
        # m^2 is subnormal or zero: the zero mode's omega = sqrt(m^2) loses
        # precision or vanishes, and the mode sum divides by it
        raw = json.loads(json.dumps(BASE_CONFIG))
        raw["box"]["m"] = m
        with pytest.raises(ConfigError) as info:
            parse_config(raw)
        assert info.value.field == "box.m"

    @pytest.mark.parametrize("field, eps, points", [
        # omega (t_x - t_y) reaches 2 |t| / eps, which overflows here
        ("points[0]", 0.4, [[1e308, 0.0, 0.0, 0.0], [-1e308, 0.0, 0.0, 0.0]]),
        ("points[1]", 0.4, [[0.0, 0.0, 0.0, 0.0], [-1e308, 0.0, 0.0, 0.0]]),
        ("points.t_range", 0.4, {"nt": 2, "nx": 1, "t_range": [0.0, 1e308]}),
        # 2 |t| / eps is finite, but the perturb task's gauge phases omega t,
        # omega of order 1, overflow math.cos
        ("points[0]", 0.9, [[8e307, 0.0, 0.0, 0.0]]),
    ])
    def test_time_beyond_phase_bound_rejected(self, field, eps, points):
        box = dict(BASE_CONFIG["box"], eps=eps)
        with pytest.raises(ConfigError) as info:
            parse_config(dict(BASE_CONFIG, box=box, points=points))
        assert info.value.field == field
        inside = 0.25 * cli.MAX_PHASE * eps   # 2 |t| / eps = MAX_PHASE / 2
        parse_config(dict(BASE_CONFIG, box=box, points=[[inside, 0, 0, 0]]))

    @pytest.mark.parametrize("key", ["L", "eps", "m"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_nonfinite_box_value_rejected(self, key, value):
        raw = json.loads(json.dumps(BASE_CONFIG))
        raw["box"][key] = value
        with pytest.raises(ConfigError) as info:
            parse_config(raw)
        assert info.value.field == f"box.{key}"

    def test_boolean_box_value_rejected(self):
        raw = json.loads(json.dumps(BASE_CONFIG))
        raw["box"]["m"] = False
        with pytest.raises(ConfigError) as info:
            parse_config(raw)
        assert info.value.field == "box.m"

    @pytest.mark.parametrize("point", [[True, 0, 0, 0], [0.0, 0.0, False, 0.0],
                                       [0.0, math.nan, 0.0, 0.0],
                                       [math.inf, 0.0, 0.0, 0.0]])
    def test_boolean_or_nonfinite_point_rejected(self, point):
        raw = json.loads(json.dumps(BASE_CONFIG))
        raw["points"] = [[0.0, 0.0, 0.0, 0.0], point]
        with pytest.raises(ConfigError) as info:
            parse_config(raw)
        assert info.value.field == "points[1]"

    @pytest.mark.parametrize("t_range", [[True, 1.0], [0.0, math.nan],
                                         [0.0, math.inf]])
    def test_boolean_or_nonfinite_t_range_rejected(self, t_range):
        raw = json.loads(json.dumps(BASE_CONFIG))
        raw["points"] = {"nt": 2, "nx": 1, "t_range": t_range}
        with pytest.raises(ConfigError) as info:
            parse_config(raw)
        assert info.value.field == "points.t_range"

    def test_box_beyond_mode_bound_rejected(self):
        raw = json.loads(json.dumps(BASE_CONFIG))
        raw["box"] = {"L": 3.14, "eps": 0.002, "m": 0.0}
        with pytest.raises(ConfigError) as exc:
            parse_config(raw)
        assert exc.value.field == "box.eps"

    def test_box_volume_overflow_rejected(self):
        # (2 L)^3 overflows a float, while the cutoff still holds modes
        raw = json.loads(json.dumps(BASE_CONFIG))
        raw["box"] = {"L": 1e103, "eps": 1e102, "m": 0.0}
        with pytest.raises(ConfigError) as exc:
            parse_config(raw)
        assert exc.value.field == "box.L"

    def test_largest_sweep_box_allowed(self):
        raw = json.loads(json.dumps(BASE_CONFIG))
        raw["box"]["eps"] = 0.08
        config = parse_config(raw)
        assert mode_count(config.box) == 16432

    def test_grid_above_point_cap_rejected(self):
        # 1025 * 4^3 = 65600 points, just above the cap of 2^16
        raw = dict(BASE_CONFIG)
        raw["points"] = {"nt": 1025, "nx": 4, "t_range": [0.0, 1.0]}
        with pytest.raises(ConfigError) as info:
            parse_config(raw)
        assert info.value.field == "points"

    @pytest.mark.parametrize("seed", [-3, -1])
    def test_negative_seed_rejected(self, seed):
        with pytest.raises(ConfigError) as info:
            parse_config(dict(BASE_CONFIG, seed=seed))
        assert info.value.field == "seed"


# any JSON value, including the NaN and Infinity tokens json.loads accepts;
# strings come from the config's own keys, so objects can nest as a config
CONFIG_KEYS = st.sampled_from(["box", "L", "eps", "m", "points", "nt", "nx",
                               "t_range", "seed", "tasks", "tolerances", ""])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | CONFIG_KEYS,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(CONFIG_KEYS, inner, max_size=3)),
    max_leaves=8)

# a valid box with every other field fuzzed or left out
BOXED_CONFIGS = st.fixed_dictionaries(
    {"box": st.just({"L": math.pi, "eps": 0.4, "m": 0.0})},
    optional={
        "points": JSON_VALUES | st.lists(
            st.lists(st.integers() | st.floats(), min_size=4, max_size=4),
            max_size=3),
        "seed": st.integers() | JSON_VALUES,
        "tasks": JSON_VALUES | st.lists(
            st.sampled_from(KNOWN_TASKS + ("nonsense",)), max_size=3),
    })


class TestConfigBoundary:
    """parse_config rejects with ConfigError or returns a usable config."""

    @staticmethod
    def check(raw):
        try:
            config = parse_config(raw)
        except ConfigError:
            return
        for offset in range(4):   # the tasks seed seed + 0 ... seed + 3
            np.random.default_rng(config.seed + offset)

    @given(JSON_VALUES)
    def test_arbitrary_documents(self, raw):
        self.check(raw)

    @given(BOXED_CONFIGS)
    def test_fuzzed_fields_around_a_valid_box(self, raw):
        self.check(raw)


# boxes of at most f = 162 modes: L <= pi and eps >= 0.4 only drop modes, and
# a mass adds at most the zero mode; the edge values sit at the input bounds
EDGE_FLOATS = st.sampled_from([0.0, -0.0, 1e-170, 2.5e-185, MIN_MASS, 1e308,
                               -1e308, 1e16, math.inf, math.nan])
MASSES = st.floats(min_value=0.0, max_value=3.0) | EDGE_FLOATS
COORDS = st.floats(min_value=-10.0, max_value=10.0) | st.floats() | EDGE_FLOATS
RUN_CONFIGS = st.fixed_dictionaries(
    {"box": (st.just(BASE_CONFIG["box"])
             | st.builds(lambda m: dict(BASE_CONFIG["box"], m=m), MASSES)
             | st.fixed_dictionaries({
                 "L": st.floats(min_value=1e-3, max_value=math.pi)
                      | EDGE_FLOATS,
                 "eps": st.floats(min_value=0.4, max_value=1e3) | EDGE_FLOATS,
                 "m": MASSES})),
     "tasks": st.lists(st.sampled_from(["dim-count", "perturb"]),
                       min_size=1, max_size=2)},
    optional={
        "points": st.lists(st.lists(COORDS, min_size=4, max_size=4),
                           max_size=2)
                  | st.fixed_dictionaries(
                      {"nt": st.integers(1, 2), "nx": st.integers(1, 2)},
                      optional={"t_range": st.lists(COORDS, min_size=2,
                                                    max_size=2)}),
        "seed": st.integers(0, 2 ** 32),
    })


class TestWholeRun:
    """A whole ``cfsgauge run`` exits 0, 1 or 2 and never crashes."""

    @settings(max_examples=30)
    @given(RUN_CONFIGS)
    def test_fuzzed_run_exits_cleanly(self, raw):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "c.json"
            path.write_text(json.dumps(raw))   # NaN and Infinity as tokens
            out = Path(tmp) / "out"
            err = io.StringIO()
            with (contextlib.redirect_stderr(err),
                  contextlib.redirect_stdout(io.StringIO())):
                code = main(["run", str(path), "--out", str(out)])
            assert code in (0, 1, 2)
            assert "Traceback" not in err.getvalue()
            if code != 2:
                json.loads((out / "report.json").read_text(),
                           parse_constant=reject_constant)
            kernels = out / "kernels.csv"
            if kernels.exists():
                text = kernels.read_text().lower()
                assert "nan" not in text and "inf" not in text
            assert not list(Path(tmp).rglob("*.tmp"))


class TestRunReports:
    def test_dim_count_reports_mode_count(self, tmp_path):
        raw = json.loads(json.dumps(BASE_CONFIG))
        raw["box"] = {"L": math.pi, "eps": 0.4, "m": 1.0}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(raw))
        code = main(["run", str(path), "--out", str(tmp_path / "out")])
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        f_entry = [e for e in report["entries"] if e["name"] == "f"][0]
        assert f_entry["value"] == 114.0
        assert report["all_passed"] is True

    def test_report_entry_schema(self, tmp_path):
        config = load_config(write_config(
            tmp_path, {"tasks": ["dim-count", "spectral"]}))
        run_experiment(config, tmp_path / "out")
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        for entry in report["entries"]:
            assert set(entry) == {"task", "name", "paper_ref", "value",
                                  "threshold", "passed"}

    def test_determinism_byte_identical(self, tmp_path):
        path = write_config(tmp_path, {"tasks": ["charts", "spectral"]})
        main(["run", str(path), "--out", str(tmp_path / "a")])
        main(["run", str(path), "--out", str(tmp_path / "b")])
        for name in ("report.json", "kernels.csv"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())

    def test_parallel_flag_rejected(self, tmp_path):
        path = write_config(tmp_path, {"tasks": ["perturb"]})
        with pytest.raises(SystemExit) as exc:
            main(["run", str(path), "--out", str(tmp_path / "out"),
                  "--parallel"])
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()

    def test_seed_override_changes_report(self, tmp_path):
        path = write_config(tmp_path, {"tasks": ["charts"]})
        main(["run", str(path), "--out", str(tmp_path / "a")])
        main(["run", str(path), "--out", str(tmp_path / "b"), "--seed", "99"])
        report_a = json.loads((tmp_path / "a" / "report.json").read_text())
        report_b = json.loads((tmp_path / "b" / "report.json").read_text())
        assert report_b["config"]["seed"] == 99
        assert report_a["entries"] != report_b["entries"]

    def test_kernel_csv_header_and_size(self, tmp_path):
        path = write_config(tmp_path)
        main(["run", str(path), "--out", str(tmp_path / "out")])
        lines = (tmp_path / "out" / "kernels.csv").read_text().splitlines()
        assert lines[0] == "t,x1,x2,x3,row,col,re,im"
        assert len(lines) == 1 + 16 * len(BASE_CONFIG["points"])

    def test_perturb_passes_on_massive_box(self, tmp_path):
        raw = json.loads(json.dumps(BASE_CONFIG))
        raw["box"] = {"L": math.pi, "eps": 0.4, "m": 1.0}
        raw["tasks"] = ["perturb"]
        path = tmp_path / "c.json"
        path.write_text(json.dumps(raw))
        code = main(["run", str(path), "--out", str(tmp_path / "out")])
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["task_errors"] == {}
        assert report["all_passed"] is True

    @pytest.mark.parametrize("mass", [0.3, MIN_MASS])
    def test_example_passes_in_a_massive_sea(self, tmp_path, mass):
        raw = json.loads(EXAMPLE.read_text())
        raw["box"]["m"] = mass
        path = tmp_path / "c.json"
        path.write_text(json.dumps(raw))
        code = main(["run", str(path), "--out", str(tmp_path / "out")])
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["task_errors"] == {}
        assert report["all_passed"] is True and code == 0

    def test_huge_eps_recorded_as_empty_cutoff(self, tmp_path, capsys):
        raw = json.loads(json.dumps(BASE_CONFIG))
        raw["box"]["eps"] = 1e200
        path = tmp_path / "c.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 1
        report = json.loads((out / "report.json").read_text())
        assert set(report["task_errors"]) == {"dim-count", "kernels"}
        assert "energy cutoff" in report["task_errors"]["dim-count"]
        # a library error is a verdict on the input, not a fault: no traceback
        assert "Traceback" not in capsys.readouterr().err

    def test_foreign_task_exception_recorded(self, tmp_path, capsys,
                                            monkeypatch):
        # the perturb task fails inside numpy, not with a library error
        def failing(config):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setitem(cli.TASK_RUNNERS, "perturb", failing)
        raw = json.loads(json.dumps(BASE_CONFIG))
        raw["tasks"] = ["perturb"]
        path = tmp_path / "c.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        code = main(["run", str(path), "--out", str(out)])
        assert code == 1
        report = json.loads((out / "report.json").read_text())
        assert "perturb" in report["task_errors"]
        assert report["task_errors"]["perturb"].startswith("LinAlgError: ")
        assert report["all_passed"] is False
        err = capsys.readouterr().err
        assert "Traceback" in err and "LinAlgError" in err

    def test_kernel_failure_recorded_without_csv(self, tmp_path):
        # no lattice momentum lies below the cutoff, so every kernel mode sum
        # raises EmptyCutoff; the run still writes a complete report
        raw = json.loads(json.dumps(BASE_CONFIG))
        raw["box"] = {"L": 0.5, "eps": 0.4, "m": 0.0}
        raw["tasks"] = ["spectral"]
        path = tmp_path / "c.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        out.mkdir()
        (out / "kernels.csv").write_text("stale\n")
        assert main(["run", str(path), "--out", str(out)]) == 1
        report = json.loads((out / "report.json").read_text())
        assert set(report["task_errors"]) == {"kernels"}
        assert report["all_passed"] is False
        assert not (out / "kernels.csv").exists()

    def test_non_finite_value_written_as_null(self, tmp_path, monkeypatch):
        def nan_task(config):
            return [cli._entry("dim-count", "gated", "ref", math.nan, 1.0),
                    cli._entry("dim-count", "informational", "ref", math.inf,
                               None)]

        monkeypatch.setitem(cli.TASK_RUNNERS, "dim-count", nan_task)
        out = tmp_path / "out"
        assert main(["run", str(write_config(tmp_path)), "--out", str(out)]) == 1

        report = json.loads((out / "report.json").read_text(),
                            parse_constant=reject_constant)
        gated, informational = report["entries"]
        assert gated["value"] is None and gated["passed"] is False
        assert informational["value"] is None and informational["passed"] is True
        assert report["all_passed"] is False
        assert sorted(p.name for p in out.iterdir()) == ["kernels.csv",
                                                         "report.json"]

    def test_non_finite_ratio_fails_its_interval_gate(self):
        excess = cli._interval_excess(math.nan, 12.0, 20.0)
        assert not math.isfinite(excess)
        # a later max over the samples keeps it
        assert not math.isfinite(max(0.0, excess))
        entry = cli._entry("charts", "ratio-excess", "ref", excess, 0.0)
        assert entry["value"] is None and entry["passed"] is False
        assert cli._interval_excess(16.0, 12.0, 20.0) == 0.0
        assert cli._interval_excess(21.0, 12.0, 20.0) == 1.0
        assert cli._interval_excess([[16.0, 21.0], [10.5, 19.0]],
                                    12.0, 20.0) == 1.5
        assert cli._interval_excess([16.0, math.nan], 12.0, 20.0) == math.inf

    def test_polar_draws_stay_inside_the_series_radius(self):
        # Gram moduli in SPREAD bound the Krein adjoint's norm factor by
        # k = max / min, so ||A - 1|| = s gives ||A* A - 1|| <= (1+k)s + ks^2
        k = rnd.SPREAD[1] / rnd.SPREAD[0]
        s = cli.POLAR_SIZE
        bound = (1.0 + k) * s + k * s * s
        assert bound < kr.RADIUS_SERIES
        # the bound holds on draws at the largest size
        rng = np.random.default_rng(0)
        space = kr.KreinSpace(gram=rnd.random_gram(rng, 2, 2, 500),
                              signature=(2, 2))
        deltas = rnd.random_complex(rng, 500, 4, 4)
        a = np.eye(4) + s * deltas / kr.opnorm(deltas)[:, None, None]
        assert np.max(kr.opnorm(space.adjoint(a) @ a - np.eye(4))) <= bound

    def test_nan_expansion_ratio_fails_the_spectral_task(self, monkeypatch):
        original = cli.cc.unitary_expansion

        def nan_ratios(*args, **kwargs):
            report = original(*args, **kwargs)
            return replace(report, residual_ratios=(math.nan, 4.0))

        monkeypatch.setattr(cli.cc, "unitary_expansion", nan_ratios)
        entries = cli.task_spectral(parse_config(BASE_CONFIG))
        gate, = [e for e in entries
                 if e["name"] == "expansion-residual-ratio-excess"]
        assert gate["value"] is None and gate["passed"] is False

    def test_orbit_unitaries_are_krein_unitary(self, monkeypatch):
        calls = []
        original = cli.wc.gauge_orbit_witness

        def recorded(psi, psi_tilde, base):
            calls.append((psi, psi_tilde, base))
            return original(psi, psi_tilde, base)

        monkeypatch.setattr(cli.wc, "gauge_orbit_witness", recorded)
        cli.task_gauge(parse_config(BASE_CONFIG))
        (psi, rotated, base), = calls
        u0 = rotated @ base.basis @ np.linalg.inv(psi @ base.basis)
        gram = base.krein.gram
        assert u0.shape == (25, 4, 4)
        assert np.max(kr.opnorm(u0.conj().swapaxes(-1, -2) @ gram @ u0
                                - gram)) <= 1e-13
        assert np.min(kr.opnorm(u0 - np.eye(4))) > 0.0

    def test_perturb_grid_blocks_keep_the_phase_law(self, monkeypatch):
        config = parse_config({**BASE_CONFIG, "tasks": ["perturb"]})
        diagonal_stacks, gauge_stacks, pair_stacks = [], [], []
        original = cli.mixed_kernel
        original_gauge = cli.pt.perturbed_symmetric_gauge

        def recorded(waves, perturbed_waves):
            if waves is perturbed_waves and np.ndim(waves) == 3:
                diagonal_stacks.append(len(waves))
            return original(waves, perturbed_waves)

        def recorded_gauge(waves, perturbed_waves):
            if np.ndim(waves) == 2 and np.ndim(perturbed_waves) == 3:
                gauge_stacks.append(len(perturbed_waves))
            if np.ndim(waves) == 3 and np.ndim(perturbed_waves) == 3:
                pair_stacks.append(len(waves))   # the 10 shifted functions
            return original_gauge(waves, perturbed_waves)

        # one recorder on both bindings: the task's own calls and those of
        # perturbed_symmetric_gauge
        for module in (cli, cli.pt):
            monkeypatch.setattr(module, "mixed_kernel", recorded)
        monkeypatch.setattr(cli.pt, "perturbed_symmetric_gauge",
                            recorded_gauge)
        # the default limit splits the 125-point grid; 2^30 holds it whole
        monkeypatch.setattr(cli, "MAX_DENSE_BYTES", 1 << 30)
        whole = cli.task_perturb(config)
        whole_stacks = collections.Counter(diagonal_stacks)
        assert gauge_stacks == [50]
        assert pair_stacks == [10]
        diagonal_stacks.clear()
        gauge_stacks.clear()
        pair_stacks.clear()
        # room for 7 of the 125 grid points, or of the functions, per block
        monkeypatch.setattr(cli, "MAX_DENSE_BYTES",
                            7 * 64 * mode_count(config.box))
        blocked = cli.task_perturb(config)
        blocked_stacks = collections.Counter(diagonal_stacks)
        # the gauge factor of each shifted block takes its diagonal kernel
        assert whole_stacks - blocked_stacks == {125: 1, 10: 1}
        assert blocked_stacks - whole_stacks == {7: 18, 6: 1, 3: 1}
        assert gauge_stacks == [7] * 7 + [1]
        assert pair_stacks == [7, 3]
        assert blocked == whole

    def test_perturb_working_set_stays_in_its_budget(self, monkeypatch):
        # blocks of 8,192 / f points or functions keep each (block, 4, f)
        # stack under 512 KiB, where one block of all 125 grid points grows
        # as 29 kB x f
        for eps, f, budget in ((0.4, 160, 3 << 20), (0.2, 968, 3 << 20),
                               (0.12, 4936, 4 << 20)):
            config = parse_config({**BASE_CONFIG, "tasks": ["perturb"],
                                   "box": {"L": math.pi, "eps": eps,
                                           "m": 0.0}})
            assert mode_count(config.box) == f
            tracemalloc.start()
            try:
                blocked = cli.task_perturb(config)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= budget, f
            with monkeypatch.context() as whole:
                whole.setattr(cli, "MAX_DENSE_BYTES", 1 << 30)
                assert cli.task_perturb(config) == blocked

    def test_failed_report_write_keeps_previous_file(self, tmp_path,
                                                     monkeypatch):
        path = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 0
        previous = (out / "report.json").read_bytes()

        def raw_nan_task(config):
            return [{"task": "dim-count", "name": "raw", "value": math.nan,
                     "threshold": None, "passed": True}]

        monkeypatch.setitem(cli.TASK_RUNNERS, "dim-count", raw_nan_task)
        with pytest.raises(ValueError):
            main(["run", str(path), "--out", str(out)])
        assert (out / "report.json").read_bytes() == previous
        assert sorted(p.name for p in out.iterdir()) == ["kernels.csv",
                                                         "report.json"]


class TestExitCodes:
    def test_invalid_config_exits_2(self, tmp_path):
        raw = json.loads(json.dumps(BASE_CONFIG))
        raw["box"]["eps"] = -1.0
        path = tmp_path / "c.json"
        path.write_text(json.dumps(raw))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2

    def test_infinite_box_length_exits_2(self, tmp_path, capsys):
        raw = json.loads(json.dumps(BASE_CONFIG))
        raw["box"]["L"] = math.inf
        path = tmp_path / "c.json"
        path.write_text(json.dumps(raw))   # written as the token Infinity
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "box.L" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_negative_seed_exits_2_on_both_routes(self, tmp_path, capsys):
        out = tmp_path / "out"
        in_config = write_config(tmp_path, {"seed": -3}, name="negative.json")
        routes = (["run", str(in_config)],
                  ["run", str(write_config(tmp_path)), "--seed", "-3"])
        for argv in routes:
            assert main([*argv, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert "seed" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("under_file", [False, True])
    def test_unusable_out_exits_2_before_any_task(self, tmp_path, capsys,
                                                  monkeypatch, under_file):
        # an existing file as --out, or a path below one
        ran = []
        monkeypatch.setitem(cli.TASK_RUNNERS, "dim-count",
                            lambda config: ran.append(config) or [])
        blocker = tmp_path / "taken"
        blocker.write_text("keep")
        out = blocker / "out" if under_file else blocker
        assert main(["run", str(write_config(tmp_path)),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: out: ")
        assert "Traceback" not in err
        assert not ran
        assert blocker.read_text() == "keep"

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "out")]) == 2

    def test_dim_subcommand(self, capsys):
        assert main(["dim", "2", "2", "8"]) == 0
        assert capsys.readouterr().out.strip() == "48"
        assert main(["dim", "3", "2", "4"]) == 2

    def test_modes_subcommand(self, capsys):
        assert main(["modes", str(math.pi), "0.4", "1.0"]) == 0
        assert capsys.readouterr().out.strip() == "114"
        assert main(["modes", str(math.pi), "2.0", "1.0"]) == 2

    def test_modes_at_vanishing_spin_normalization(self, capsys):
        # m = 1e-16 keeps the zero mode, so it counts two modes more than m = 0
        assert main(["modes", "3.14159", "0.4", "1e-16"]) == 0
        assert capsys.readouterr().out.strip() == "162"

    def test_perturb_passes_at_tiny_mass(self, tmp_path):
        # the zero mode adds 1 / (4 pi (2L)^3) ~ 3.2e-4 times the identity
        # to P(x, x); the gauge factor B = P(x~, x) P(x, x)^{-1} takes it
        path = write_config(tmp_path, {"box": {"L": 3.14159, "eps": 0.4,
                                               "m": 1e-16},
                                       "tasks": ["perturb"]})
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["task_errors"] == {}
        assert report["all_passed"] is True

    def test_underflowing_mass_exits_2_on_both_routes(self, tmp_path, capsys):
        path = write_config(tmp_path, {"box": {"L": 3.14159, "eps": 0.4,
                                               "m": 1e-170}})
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "box.m" in capsys.readouterr().err
        assert main(["modes", "3.14159", "0.4", "1e-170"]) == 2
        err = capsys.readouterr().err
        assert "MIN_MASS" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("args", [("1", "1e200", "0"),
                                      ("1", "0.4", "1e200"),
                                      ("1", "0.4", "3")])
    def test_modes_empty_cutoff_exit_2(self, args, capsys):
        assert main(["modes", *args]) == 2
        assert ("energy cutoff lies below the mass gap"
                in capsys.readouterr().err)

    def test_modes_beyond_bound_exit_2_quickly(self, capsys):
        start = time.perf_counter()
        assert main(["modes", "3.14", "0.002", "0"]) == 2
        assert time.perf_counter() - start < 1.0
        assert "MAX_MODES" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    def test_modes_tiny_box_exit_2(self, capsys):
        # below MIN_LENGTH (pi / L)^2 overflows and the zero mode was lost
        assert main(["modes", "1e-200", "0.4", "0.5"]) == 2
        assert "MIN_LENGTH" in capsys.readouterr().err
        assert main(["modes", "1e-100", "0.4", "0.5"]) == 0
        assert capsys.readouterr().out.strip() == "2"
        raw = json.loads(json.dumps(BASE_CONFIG))
        raw["box"]["L"] = 1e-200
        with pytest.raises(ConfigError) as info:
            parse_config(raw)
        assert info.value.field == "box.L"

    def test_modes_volume_overflow_exit_2(self, capsys):
        assert main(["modes", "1e103", "1e102", "0"]) == 2
        err = capsys.readouterr().err
        assert "MAX_L" in err and "Traceback" not in err

    def test_console_script_installed(self):
        result = subprocess.run([sys.executable, "-m", "cfsgauge.cli",
                                 "dim", "1", "1", "4"],
                                capture_output=True, text=True)
        assert result.returncode == 0
        assert result.stdout.strip() == "12"

    def test_run_path_imports_no_scipy(self):
        # SciPy's wheel bundles a second OpenBLAS whose threads slow numpy
        result = subprocess.run(
            [sys.executable, "-c", "import cfsgauge.cli, sys; print(sorted("
             "m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
            capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"
