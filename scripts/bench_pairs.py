"""Paired benchmark of a parent revision against this checkout.

    python3 scripts/bench_pairs.py --parent REV --pairs 10 --out BENCH_<n>.json

The parent tree is extracted with ``git archive`` into a temporary
directory, so no worktree is made and ``.git`` is only read; the change is
this checkout's working tree.  For every workload BENCHMARK.json lists,
each pair runs ``python3 perfbench/run.py --workload W --seed K --seconds
S`` once in each tree, S being ``run_seconds`` of BENCHMARK.json and K the
pair's number on both sides; the order within a pair alternates, parent
first in odd-numbered pairs, so a drift of the machine loads both sides
alike.

The output holds the environment line of a run of the change; the parent's
commit; the change's ``HEAD`` commit, and whether the tracked files outside
the documents differ from it, with the SHA-256 of that difference (``git diff
--binary HEAD -- . ':!*.md' ':!BENCH_*.json'``, which the same command
between the parent and the committed change reproduces); the settings; and
per workload and end-to-end metric each side's values, median and
quartiles, how many pairs the change won, tied and lost, "better" read
from BENCHMARK.json, and two verdicts: ``gain`` (at least 9 in 10 pairs
won and a median gap wider than the parent's IQR) and ``over_bound`` (the
change's median worse than the metric's relative ``bound``).  Quartiles are
``statistics.quantiles(n=4)``.
Only the standard library is used.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> bytes:
    """Standard output of a read-only git command in this checkout."""
    return subprocess.run(["git", "-C", str(ROOT), *args],
                          capture_output=True, check=True).stdout


def extract(rev: str, into: Path) -> Path:
    """Write the tree of ``rev`` under ``into`` with ``git archive``."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", rev))) as tar:
        tar.extractall(into, filter="data")
    return into


def run_once(tree: Path, workload: str, seed: int, seconds: float):
    """One benchmark process; returns (metrics by name, environment)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"benchmark failed in {tree} ({workload}, seed "
                         f"{seed}):\n{proc.stdout}{proc.stderr}")
    result = json.loads(lines[-1])
    env = next((json.loads(line.split(": ", 1)[1]) for line in lines
                if line.startswith("environment: ")), None)
    return {k: v["value"] for k, v in result["metrics"].items()}, env


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr": q3 - q1, "values": values}


def compare(old: list[float], new: list[float], better: str,
            bound: float) -> dict:
    """One metric's pairs: each side's summary, wins, ties and losses, and
    the two verdicts.

    ``gain``: the change wins at least 9 in 10 pairs and its median beats
    the parent's by more than the parent's IQR.  ``over_bound``: the
    change's median is worse than the parent's by more than ``bound`` times
    the parent's median, the relative reading of ``median_change_rel``.
    """
    sign = 1.0 if better == "lower" else -1.0
    diffs = [sign * (o - n) for o, n in zip(old, new)]
    entry = {"better": better, "bound": bound,
             "parent": summarize(old), "change": summarize(new),
             "change_wins": sum(d > 0 for d in diffs),
             "ties": sum(d == 0 for d in diffs),
             "change_losses": sum(d < 0 for d in diffs)}
    base = entry["parent"]["median"]
    gap = sign * (base - entry["change"]["median"])   # > 0: the change is better
    entry["median_change_rel"] = ((entry["change"]["median"] - base) / base
                                  if base else None)
    entry["gain"] = (10 * entry["change_wins"] >= 9 * len(diffs)
                     and gap > entry["parent"]["iqr"])
    entry["over_bound"] = -gap > bound * abs(base)
    return entry


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="parent revision")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    workloads = [w["name"] for w in spec["workloads"]]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    parent = git("rev-parse", args.parent + "^{commit}").decode().strip()
    diff = git("diff", "--binary", "HEAD", "--",
               ".", ":!*.md", ":!BENCH_*.json")
    change = {"commit": git("rev-parse", "HEAD").decode().strip(),
              "dirty": bool(diff),
              "diff_sha256": hashlib.sha256(diff).hexdigest() if diff else None}

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {"parent": extract(parent, Path(tmp) / "parent"),
                 "change": ROOT}
        runs = {w: {"parent": [], "change": []} for w in workloads}
        environment = None
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for workload in workloads:
                for side in order:
                    metrics, env = run_once(trees[side], workload, pair + 1,
                                            seconds)
                    if side == "change":
                        environment = environment or env
                    runs[workload][side].append(metrics)
                    print(f"pair {pair + 1} {workload} {side}: op_p50_ms "
                          f"{metrics['op_p50_ms']:.4g}", file=sys.stderr)

    summary = {workload: {name: compare([m[name] for m in sides["parent"]],
                                        [m[name] for m in sides["change"]],
                                        direction, bounds[name])
                          for name, direction in better.items()}
               for workload, sides in runs.items()}
    document = {"environment": environment, "parent": parent,
                "change": change, "pairs": args.pairs, "seconds": seconds,
                "seeds": list(range(1, args.pairs + 1)),
                "workloads": summary}
    args.out.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
