"""The paired benchmark and report comparison scripts, without their runs.

``scripts/bench_pairs.py`` backs every speed claim, so its bookkeeping is
checked here without a subprocess or a ``git archive``: ``git``, ``extract``
and ``run_once`` are replaced by scripted stand-ins, and the summary must
count wins, ties and losses, the median change and the ``gain``,
``over_bound`` and ``unresolved`` verdicts by each metric's ``better`` and
``bound`` in BENCHMARK.json.  The comparison of ``scripts/report_diff.py``
runs on reports built in memory.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
BETTER = {m["name"]: m["better"] for m in SPEC["end_to_end"]}
BOUNDS = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: per metric, the parent's and the change's value in pairs 1..4
SCRIPT = {
    # lower is better: pairs 1 and 4 win, pair 2 ties, pair 3 loses
    "op_p50_ms": ([10.0, 10.0, 10.0, 10.0], [8.0, 10.0, 12.0, 7.0]),
    # higher is better: only pair 2 loses
    "ok_ratio": ([1.0, 1.0, 1.0, 1.0], [1.0, 0.9, 1.0, 1.0]),
    # every pair wins, by more than the parent's IQR of 0: a gain
    "peak_rss_mb": ([50.0, 50.0, 50.0, 50.0], [49.0, 49.5, 49.0, 48.0]),
    # the median is 30% worse, past the bound of 25%
    "wall_s": ([1.0, 1.0, 1.0, 1.0], [1.3, 1.2, 1.3, 1.4]),
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


def test_gain_and_over_bound_verdicts(bench_pairs, tmp_path):
    document = run(bench_pairs, tmp_path)
    assert BOUNDS["wall_s"] == 0.25
    for workload in WORKLOADS:
        summary = document["workloads"][workload]
        verdicts = {name: (entry["gain"], entry["over_bound"])
                    for name, entry in summary.items()}
        assert verdicts == {"op_p50_ms": (False, False),   # 2 of 4 won
                            "ok_ratio": (False, False),
                            "peak_rss_mb": (True, False),
                            "wall_s": (False, True),
                            "setup_s": (False, False)}
        assert summary["wall_s"]["median_change_rel"] == pytest.approx(0.3)


@pytest.mark.parametrize("old, new, better, bound, gain, over_bound", [
    # 4 of 4 won, but the median gap 0.5 lies within the parent's IQR of 5
    ([10, 12, 14, 16], [9.5, 11.5, 13.5, 15.5], "lower", 0.25, False, False),
    ([10, 12, 14, 16], [4.5, 6.5, 8.5, 10.5], "lower", 0.25, True, False),
    # 9 of 10 pairs won is a gain, 8 of 10 is not
    ([2.0] * 10, [1.0] * 9 + [3.0], "lower", 0.25, True, False),
    ([2.0] * 10, [1.0] * 8 + [3.0] * 2, "lower", 0.25, False, False),
    ([1.0] * 4, [0.98] * 4, "higher", 0.01, False, True),
    ([1.0] * 4, [0.995] * 4, "higher", 0.01, False, False),
    ([1.0] * 4, [1.02] * 4, "higher", 0.01, True, False),
    # against a parent median of 0, any worse median is past the bound
    ([0.0] * 4, [0.1] * 4, "lower", 0.25, False, True),
])
def test_compare_verdicts(bench_pairs, old, new, better, bound, gain,
                          over_bound):
    entry = bench_pairs.compare(old, new, better, bound)
    assert (entry["gain"], entry["over_bound"]) == (gain, over_bound)


@pytest.mark.parametrize("old, new, better, bound, unresolved", [
    # steady parents: the IQR lies within the bound
    ([2.0] * 10, [1.0] * 8 + [3.0] * 2, "lower", 0.25, False),
    ([0.96, 0.98, 1.0, 1.02], [1.0] * 4, "lower", 0.25, False),
    ([0.0] * 4, [0.1] * 4, "lower", 0.25, False),
    # an IQR of 0.04 on a median of 1.0 lies outside the bound of 0.01
    ([0.96, 0.98, 1.0, 1.02], [1.0] * 4, "lower", 0.01, True),
    # the parent's IQR of 5 is 38% of its median 13, past the 25% bound,
    # for a gain too: its slowest change run is slower than a parent run
    ([10, 12, 14, 16], [10, 12, 14, 16], "lower", 0.25, True),
    ([10, 12, 14, 16], [4.5, 6.5, 8.5, 10.5], "lower", 0.25, True),
    # ... unless every change run beats every parent run, either way round
    ([10, 12, 14, 16], [9.5, 9.0, 8.0, 7.0], "lower", 0.25, False),
    ([10, 12, 14, 16], [16.5, 17, 18, 20], "higher", 0.25, False),
    # a change run level with the best parent run does not beat it
    ([10, 12, 14, 16], [10, 9.0, 8.0, 7.0], "lower", 0.25, True),
    ([10, 12, 14, 16], [16, 17, 18, 20], "higher", 0.25, True),
    # against a parent median of 0, any spread is past the bound
    ([-0.1, 0.0, 0.0, 0.1], [0.0] * 4, "lower", 0.25, True),
])
def test_unresolved_verdict(bench_pairs, old, new, better, bound,
                            unresolved):
    assert bench_pairs.compare(old, new, better, bound)["unresolved"] \
        == unresolved


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


@pytest.fixture
def report_diff(monkeypatch):
    """``scripts/report_diff.py`` as a module, beside ``bench_pairs``."""
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    spec = importlib.util.spec_from_file_location(
        "report_diff", ROOT / "scripts" / "report_diff.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def report(*entries, task_errors=None):
    """A report of (task, name, value, passed) entries."""
    rows = [{"task": t, "name": n, "paper_ref": "ref", "value": v,
             "threshold": 1e-9, "passed": p} for t, n, v, p in entries]
    return {"entries": rows, "task_errors": task_errors or {},
            "all_passed": all(p for *_, p in entries) and not task_errors}


BASE_ENTRIES = (("gauge", "orbit-recovery", 5e-16, True),
                ("perturb", "phase-cancellation", 2e-15, True))


def test_identical_reports_move_nothing(report_diff):
    assert report_diff.compare_reports(report(*BASE_ENTRIES),
                                       report(*BASE_ENTRIES)) == {
        "entries_match": True, "verdicts_match": True, "moved": []}


def test_moved_values_are_listed_with_their_delta(report_diff):
    moved = (("gauge", "orbit-recovery", 7e-16, True),
             ("perturb", "phase-cancellation", None, True))
    result = report_diff.compare_reports(report(*BASE_ENTRIES), report(*moved))
    assert result["entries_match"] and result["verdicts_match"]
    assert result["moved"] == [
        {"task": "gauge", "name": "orbit-recovery", "parent": 5e-16,
         "change": 7e-16, "abs_delta": pytest.approx(2e-16, rel=1e-12)},
        {"task": "perturb", "name": "phase-cancellation", "parent": 2e-15,
         "change": None, "abs_delta": None}]


@pytest.mark.parametrize("change, entries_match, verdicts_match", [
    # a verdict flips
    (report(BASE_ENTRIES[0], ("perturb", "phase-cancellation", 2e-15, False)),
     True, False),
    # a task error appears, the entries unchanged
    (report(*BASE_ENTRIES, task_errors={"kernels": "TaskError: x"}),
     True, False),
    # an entry is missing, or the order changes
    (report(BASE_ENTRIES[0]), False, False),
    (report(*BASE_ENTRIES[::-1]), False, True),
], ids=["verdict", "task-error", "missing", "order"])
def test_entry_list_and_verdicts_are_compared(report_diff, change,
                                              entries_match, verdicts_match):
    result = report_diff.compare_reports(report(*BASE_ENTRIES), change)
    assert result["entries_match"] == entries_match
    assert result["verdicts_match"] == verdicts_match
    assert result["moved"] == []
