"""Self-check of the benchmark, at a tiny size.

    python3 perfbench/check.py

Asserts that BENCHMARK.json lists exactly the metrics the benchmark
prints, with the same units; that each workload, run at a tiny size with
and without tracing, prints every metric and passes its checks; that an op
forced to fail is counted in ``failed`` and ``ok_ratio`` rather than
dropped; that tracing leaves no wrapper behind; and that the benchmark
exits non-zero, printing no result, in a directory without the program.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def check_manifest(workloads, tracing) -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    listed = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert listed == dict(run.END_TO_END), listed
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert listed == dict(tracing.PER_LAYER), set(listed) ^ set(dict(tracing.PER_LAYER))


def check_result(result, catalogue, n_ops, trace) -> None:
    printed = {k: v for k, v in result.items() if k != "extra"}
    assert set(json.loads(json.dumps(printed))) == {"correct", "attempted",
                                                    "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(catalogue)
    reps = 1 if trace else run.SETUP_REPS
    assert result["attempted"] == reps + n_ops * (2 if trace else 1), result
    assert result["failed"] == 0 and result["correct"] is True, result


def check_forced_failure(workloads) -> None:
    """One op raises and one misses its check: both must count."""
    cls = workloads.WORKLOADS["box-gauge"]
    op, check = cls.op, cls.check

    def failing_op(self, i):
        if i == 1:
            raise RuntimeError("forced failure")
        return op(self, i)

    def failing_check(self, i, result):
        return check(self, i, result) + (["forced miss"] if i == 2 else [])

    cls.op, cls.check = failing_op, failing_check
    try:
        result = run.run_workload("box-gauge", 5, 3, False, scale="tiny")
    finally:
        cls.op, cls.check = op, check
    attempted = run.SETUP_REPS + 3
    assert result["attempted"] == attempted and result["failed"] == 2, result
    assert result["correct"] is False
    assert result["metrics"]["ok_ratio"]["value"] == (attempted - 2) / attempted


def check_without_program() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / HERE.name,
                        ignore=shutil.ignore_patterns(".work", "results",
                                                      "__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "example",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0, proc
    assert '"metrics"' not in proc.stdout, proc.stdout


def main() -> int:
    run.import_program()
    import tracing
    import workloads

    check_manifest(workloads, tracing)
    try:
        for name in workloads.WORKLOADS:
            for trace in (False, True):
                result = run.run_workload(name, 3, 2, trace, scale="tiny")
                catalogue = tracing.PER_LAYER if trace else run.END_TO_END
                check_result(result, catalogue, 2, trace)
                print(f"ok  {name} trace={int(trace)}")
        check_forced_failure(workloads)
        print("ok  forced failures counted")
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    check_without_program()
    print("ok  exits non-zero without the program")
    return 0


if __name__ == "__main__":
    sys.exit(main())
