"""The paired benchmark script, on scripted runs.

``scripts/bench_pairs.py`` backs every speed claim, so its bookkeeping is
checked here without a subprocess or a ``git archive``: ``git``, ``extract``
and ``run_once`` are replaced by scripted stand-ins, and the summary must
count wins, ties and losses and the median change by each metric's
``better`` in BENCHMARK.json.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
BETTER = {m["name"]: m["better"] for m in SPEC["end_to_end"]}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: per metric, the parent's and the change's value in pairs 1..4
SCRIPT = {
    # lower is better: pairs 1 and 4 win, pair 2 ties, pair 3 loses
    "op_p50_ms": ([10.0, 10.0, 10.0, 10.0], [8.0, 10.0, 12.0, 7.0]),
    # higher is better: only pair 2 loses
    "ok_ratio": ([1.0, 1.0, 1.0, 1.0], [1.0, 0.9, 1.0, 1.0]),
}


@pytest.fixture
def bench_pairs(monkeypatch, tmp_path):
    """The script module with scripted git, extract and run_once."""
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.calls = []
    module.diff = b""

    def git(*args):
        if args[0] == "rev-parse":
            return b"c0ffee\n" if args[1] == "HEAD" else b"bead\n"
        assert args[0] == "diff"
        return module.diff

    def extract(rev, into):
        assert rev == "bead"
        return into

    def run_once(tree, workload, seed, seconds):
        side = "change" if tree == module.ROOT else "parent"
        module.calls.append((side, workload, seed, seconds))
        metrics = {name: 1.0 for name in BETTER}
        for name, values in SCRIPT.items():
            metrics[name] = values[side == "change"][seed - 1]
        return metrics, {"side": side}

    monkeypatch.setattr(module, "git", git)
    monkeypatch.setattr(module, "extract", extract)
    monkeypatch.setattr(module, "run_once", run_once)
    return module


def run(module, tmp_path, pairs=4):
    out = tmp_path / "bench.json"
    assert module.main(["--parent", "HEAD~1", "--pairs", str(pairs),
                        "--out", str(out)]) == 0
    return json.loads(out.read_text(encoding="utf-8"))


def test_wins_ties_and_losses_follow_better(bench_pairs, tmp_path):
    document = run(bench_pairs, tmp_path)
    assert BETTER["op_p50_ms"] == "lower" and BETTER["ok_ratio"] == "higher"
    for workload in WORKLOADS:
        summary = document["workloads"][workload]
        assert set(summary) == set(BETTER)
        op = summary["op_p50_ms"]
        assert (op["change_wins"], op["ties"],
                op["change_losses"]) == (2, 1, 1)
        assert op["parent"]["median"] == 10.0 and op["change"]["median"] == 9.0
        assert op["median_change_rel"] == pytest.approx(-0.1)
        ok = summary["ok_ratio"]
        assert (ok["change_wins"], ok["ties"],
                ok["change_losses"]) == (0, 3, 1)
        assert ok["median_change_rel"] == 0.0
        # an unscripted metric is equal on both sides in every pair
        setup = summary["setup_s"]
        assert (setup["change_wins"], setup["ties"]) == (0, 4)
        assert setup["parent"]["iqr"] == 0.0


def test_pairs_alternate_order_and_share_seeds(bench_pairs, tmp_path):
    document = run(bench_pairs, tmp_path)
    assert document["parent"] == "bead"
    assert document["change"] == {"commit": "c0ffee", "dirty": False,
                                  "diff_sha256": None}
    assert document["seeds"] == [1, 2, 3, 4]
    assert document["environment"] == {"side": "change"}
    calls = bench_pairs.calls
    assert len(calls) == 4 * len(WORKLOADS) * 2
    assert {c[3] for c in calls} == {SPEC["run_seconds"]}
    # per pair, each workload runs on both sides in a row
    per_pair = 2 * len(WORKLOADS)
    for pair in range(4):
        runs = calls[pair * per_pair:(pair + 1) * per_pair]
        first = "parent" if pair % 2 == 0 else "change"
        assert [side for side, *_ in runs[::2]] == [first] * len(WORKLOADS)
        assert {seed for _, _, seed, _ in runs} == {pair + 1}


def test_dirty_tree_records_its_diff(bench_pairs, tmp_path):
    bench_pairs.diff = b"diff --git a/x b/x\n"
    change = run(bench_pairs, tmp_path)["change"]
    assert change["dirty"] is True
    digest = hashlib.sha256(bench_pairs.diff).hexdigest()
    assert change["diff_sha256"] == digest


def test_one_pair_is_refused(bench_pairs, tmp_path):
    with pytest.raises(SystemExit):
        run(bench_pairs, tmp_path, pairs=1)
