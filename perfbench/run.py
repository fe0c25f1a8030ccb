"""Benchmark of cfsgauge: one workload per process, closed loop, one caller.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload example|box-gauge|ensemble \
        --seed N --seconds S --trace 0|1

Set-up imports cfsgauge from ``src/`` of the checkout, builds the inputs
from the seed and runs one untimed warm-up op; it is repeated SETUP_REPS
times and ``setup_s`` is the import time plus the median repetition.  The
timed phase then runs a fixed number of ops, ``max(MIN_OPS, floor(seconds
/ nominal op time))``, and checks every op's result.  A failed op is one that
raised or missed a check.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics.  With ``--trace 1`` the timed phase runs untraced and then again,
on the same inputs, with every public cfsgauge function wrapped in a span;
the last line holds the per-layer metrics of the traced phase, and the
spans are written under ``perfbench/results/``.  Earlier lines give the
metrics by name and unit, ``fail_ratio`` and the run environment.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK = HERE / ".work" / str(os.getpid())
RESULTS = HERE / "results"

SETUP_REPS = 3
MIN_OPS = 3

#: every end-to-end metric, with its unit
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
)


def import_program():
    """Import cfsgauge from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "cfsgauge" / "__init__.py").is_file():
        raise SystemExit(f"error: no cfsgauge sources under {src}")
    sys.path.insert(0, str(src))
    import cfsgauge
    if Path(cfsgauge.__file__).resolve().parent != (src / "cfsgauge").resolve():
        raise SystemExit(f"error: imported cfsgauge from {cfsgauge.__file__}")


def timed_phase(workload, n_ops: int, recorder=None):
    """Run ops 1..n_ops in a closed loop; return latencies, failures, wall."""
    latencies = []
    failed = 0
    start = time.perf_counter()
    for i in range(1, n_ops + 1):
        t = time.perf_counter()
        try:
            if recorder is None:
                result = workload.op(i)
            else:
                with recorder.op_span(i):
                    result = workload.op(i)
            latencies.append(time.perf_counter() - t)
            misses = workload.check(i, result)
        except Exception:  # the loop must go on: record the op as failed
            latencies.append(time.perf_counter() - t)
            misses = [traceback.format_exc()]
        if misses:
            failed += 1
            print(f"op {i} failed: {'; '.join(misses)}", file=sys.stderr)
    return latencies, failed, time.perf_counter() - start


def set_up(cls, seed: int, n_ops: int, scale: str):
    """Build the inputs and run the warm-up op; return (workload, failed)."""
    workload = cls(ROOT, WORK, seed, n_ops, scale)
    try:
        misses = workload.check(0, workload.op(0))
    except Exception:  # a failed warm-up is a failed op, not a crash
        misses = [traceback.format_exc()]
    if misses:
        print(f"warm-up op failed: {'; '.join(misses)}", file=sys.stderr)
    return workload, int(bool(misses))


def run_workload(name: str, seed: int, n_ops: int, trace: bool,
                 scale: str = "full", import_s: float = 0.0) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    import tracing
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    WORK.mkdir(parents=True, exist_ok=True)
    reps = 1 if trace else SETUP_REPS
    rep_s = []
    attempted = failed = 0
    for _ in range(reps):
        t = time.perf_counter()
        workload, warm_failed = set_up(cls, seed, n_ops, scale)
        rep_s.append(time.perf_counter() - t)
        attempted += 1
        failed += warm_failed

    latencies, op_failed, wall_s = timed_phase(workload, n_ops)
    attempted += n_ops
    failed += op_failed

    if not trace:
        metrics = {
            "setup_s": import_s + statistics.median(rep_s),
            "wall_s": wall_s,
            "op_p50_ms": 1e3 * statistics.median(latencies),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_ratio": (attempted - failed) / attempted,
        }
        extra = {"ops": n_ops, "setup_reps": rep_s, "op_latencies_s": latencies}
        return _result(attempted, failed, metrics, dict(END_TO_END), extra)

    recorder = tracing.Recorder()
    written_before = workload.written_bytes
    restore = tracing.install(recorder)
    try:
        _, traced_failed, traced_wall_s = timed_phase(workload, n_ops, recorder)
    finally:
        restore()
    attempted += n_ops
    failed += traced_failed
    values = tracing.layer_metrics(recorder, n_ops,
                                   workload.written_bytes - written_before,
                                   traced_wall_s - wall_s)
    extra = {"ops": n_ops, "untraced_wall_s": wall_s,
             "traced_wall_s": traced_wall_s, "spans": recorder.summary(),
             "recorder": recorder}
    return _result(attempted, failed, values, dict(tracing.PER_LAYER), extra)


def _result(attempted, failed, values, units, extra) -> dict:
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": float(values[name]), "unit": unit}
                        for name, unit in units.items()},
            "extra": extra}


def environment(seed: int) -> dict:
    """Machine, library versions, BLAS threads, commit and seed of a run."""
    import ctypes
    import platform
    import re

    import numpy
    import scipy

    env = {"nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
           "python": platform.python_version(), "numpy": numpy.__version__,
           "scipy": scipy.__version__, "seed": seed,
           "computed_metrics": ["dirac_box.wave_bytes", "correlation.dense_bytes"],
           "cpu_model": None, "caches": {}, "openblas": None,
           "blas_threads": None, "git_commit": None}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
        cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
        for index in sorted(cache_dir.glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            env["caches"][f"L{level}-{kind}"] = (index / "size").read_text().strip()
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", handle.read())))
        for path in libs:
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_{}64_", "openblas_{}64_", "openblas_{}"):
                if hasattr(lib, symbol.format("get_num_threads")):
                    env["blas_threads"] = int(getattr(lib, symbol.format("get_num_threads"))())
                    get_config = getattr(lib, symbol.format("get_config"))
                    get_config.restype = ctypes.c_char_p
                    env["openblas"] = get_config().decode()
                    break
    except OSError:
        pass
    if (ROOT / ".git").exists():
        import subprocess
        try:
            env["git_commit"] = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("example", "box-gauge", "ensemble"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    sys.path.insert(0, str(HERE))
    import workloads  # imported before the clock stops: part of setup_s
    import_s = time.perf_counter() - T0

    n_ops = max(MIN_OPS, int(args.seconds
                             // workloads.WORKLOADS[args.workload].nominal_op_s))
    try:
        result = run_workload(args.workload, args.seed, n_ops, bool(args.trace),
                              import_s=import_s)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    extra = result.pop("extra")
    env = environment(args.seed)
    if args.trace:
        RESULTS.mkdir(parents=True, exist_ok=True)
        stem = RESULTS / f"{args.workload}-seed{args.seed}"
        extra.pop("recorder").save_spans(f"{stem}.spans.npz")
        with open(f"{stem}.trace.json", "w", encoding="utf-8") as handle:
            json.dump({"environment": env, "result": result, **extra}, handle,
                      indent=1, sort_keys=True)
    else:
        print(f"op latencies (s, n={n_ops}): "
              + " ".join(f"{t:.4f}" for t in extra["op_latencies_s"]))
        print(f"setup repetitions (s): "
              + " ".join(f"{t:.4f}" for t in extra["setup_reps"]))
    print("environment: " + json.dumps(env, sort_keys=True))
    print(f"fail_ratio {result['failed'] / result['attempted']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} ops)")
    for name, metric in result["metrics"].items():
        count = f" (median of {n_ops} ops)" if name == "op_p50_ms" else ""
        print(f"{name} {metric['value']:.6g} {metric['unit']}{count}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
