"""The example run's outputs at a parent revision against this checkout.

    python3 scripts/report_diff.py --parent REV

The parent tree is extracted with ``bench_pairs.extract``; the change is
this checkout's working tree.  Both run ``cfsgauge run`` on a temporary copy
of this checkout's ``configs/example.json`` with ``box.m`` set to 0 and to
0.3, at seeds 1, 2, 3 and 1234, each tree from its own ``src``.  The printed
JSON says per run whether ``report.json`` and ``kernels.csv`` are
byte-identical, and lists every report entry whose value moved with both
values and |delta|.  The exit code is 1 when a run's entry list (task and
name, in order) or any verdict (an entry's ``passed``, ``all_passed``, the
keys of ``task_errors`` or the exit code) differs or a report is missing,
else 0.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import ROOT, extract, git

SEEDS = (1, 2, 3, 1234)
MASSES = (0.0, 0.3)
FILES = ("report.json", "kernels.csv")


def compare_reports(old: dict, new: dict) -> dict:
    """Whether two reports list the same entries with the same verdicts,
    and each entry whose value moved."""
    keys = [[(e["task"], e["name"]) for e in r["entries"]] for r in (old, new)]
    verdicts = [([e["passed"] for e in r["entries"]], r["all_passed"],
                 sorted(r["task_errors"])) for r in (old, new)]
    moved = []
    if keys[0] == keys[1]:
        for a, b in zip(old["entries"], new["entries"]):
            if a["value"] != b["value"]:
                delta = (None if None in (a["value"], b["value"])
                         else abs(a["value"] - b["value"]))
                moved.append({"task": a["task"], "name": a["name"],
                              "parent": a["value"], "change": b["value"],
                              "abs_delta": delta})
    return {"entries_match": keys[0] == keys[1],
            "verdicts_match": verdicts[0] == verdicts[1], "moved": moved}


def run_tree(tree: Path, config: Path, seed: int, out: Path):
    """Exit code and output bytes of one run of ``tree``'s source."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    code = subprocess.run(
        [sys.executable, "-m", "cfsgauge.cli", "run", str(config),
         "--seed", str(seed), "--out", str(out)],
        env=env, cwd=tree, capture_output=True).returncode
    return code, {name: (out / name).read_bytes() if (out / name).exists()
                  else None for name in FILES}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="parent revision")
    args = parser.parse_args(argv)
    parent = git("rev-parse", args.parent + "^{commit}").decode().strip()
    example = json.loads((ROOT / "configs" / "example.json")
                         .read_text(encoding="utf-8"))
    runs = []
    with tempfile.TemporaryDirectory(prefix="report-diff-") as tmp:
        tmp = Path(tmp)
        trees = {"parent": extract(parent, tmp / "parent"), "change": ROOT}
        for m in MASSES:
            config = tmp / f"example-m{m}.json"
            box = dict(example["box"], m=m)
            config.write_text(json.dumps(dict(example, box=box)),
                              encoding="utf-8")
            for seed in SEEDS:
                out = {side: run_tree(tree, config, seed,
                                      tmp / f"{side}-m{m}-{seed}")
                       for side, tree in trees.items()}
                (old_code, old), (new_code, new) = out["parent"], out["change"]
                run = {"m": m, "seed": seed, "exit": [old_code, new_code],
                       **{name: old[name] == new[name] for name in FILES}}
                if old["report.json"] is None or new["report.json"] is None:
                    run.update(entries_match=False, verdicts_match=False)
                else:
                    run.update(compare_reports(json.loads(old["report.json"]),
                                               json.loads(new["report.json"])))
                    run["verdicts_match"] &= old_code == new_code
                runs.append(run)
    failed = not all(r["entries_match"] and r["verdicts_match"] for r in runs)
    print(json.dumps({"parent": parent, "runs": runs,
                      "byte_identical": all(r[name] for r in runs
                                            for name in FILES)}, indent=1))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
