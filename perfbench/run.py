"""rankflow benchmark: one workload through the `rankflow` CLI entry point.

    python3 perfbench/run.py --workload martingale|converge|diagnose
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the program is imported from `src/`.
Untraced (--trace 0), it prints the end-to-end metrics wall_s, setup_s and
peak_rss_mb; traced (--trace 1), the per-layer metrics.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  A record with the machine, the runs and their CSV digests goes
to .perfbench_runs/results/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
RUNS_DIR = ROOT / ".perfbench_runs"
SETUP_WARMUP = 1
SETUP_SAMPLES = 5
DEADLINE_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def machine() -> dict:
    """nproc, CPU model, interpreter and library versions, BLAS threads."""
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "rankflow_threads": 1,
    }


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _remaining(t_start: float) -> float:
    left = DEADLINE_S - (time.perf_counter() - t_start)
    if left <= 1.0:
        raise TimeoutError("benchmark deadline reached")
    return left


def _worker(args: list, t_start: float) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "worker.py"), *args], env=_env(),
                          capture_output=True, text=True, timeout=_remaining(t_start), check=True)


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def measure(workload: str, seed, seconds: float, trace: int, overrides=None) -> dict:
    """Run the set-up probes (untraced only) and the worker; return the record."""
    t_start = time.perf_counter()
    values = workloads.config_values(workload, seed, overrides)
    run_id = f"{workload}-seed{values['seed']}-trace{trace}-{os.getpid()}"
    run_dir = RUNS_DIR / run_id
    run_dir.mkdir(parents=True, exist_ok=True)
    config = run_dir / f"{workload}.cfg"
    config.write_text(workloads.config_text(values))
    (run_dir / "values.json").write_text(json.dumps(values))
    record = {"workload": workload, "seed": values["seed"], "trace": trace, "seconds": seconds,
              "run_id": run_id, "config": config.read_text(), "machine": machine()}
    try:
        if not trace:
            probes = [_worker(["setup", "--config", str(config)], t_start)
                      for _ in range(SETUP_WARMUP + SETUP_SAMPLES)]
            record["setup_s"] = [float(p.stdout.split()[-1]) for p in probes[SETUP_WARMUP:]]
        result = run_dir / "worker.json"
        _worker(["work", "--workload", workload, "--config", str(config),
                 "--values", str(run_dir / "values.json"), "--out", str(run_dir / "out"),
                 "--seconds", repr(float(seconds)), "--trace", str(trace),
                 "--result", str(result)], t_start)
        record.update(json.loads(result.read_text()))
        spans = result.with_suffix(".spans.csv")
        if spans.is_file():
            spans.replace(RUNS_DIR / f"{workload}.spans.csv")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return record


def summarize(record: dict) -> tuple:
    """(metrics, failed, report lines) of one record."""
    runs = record["runs"]
    failed = sum(1 for r in runs if r["problems"])
    untraced = [r["wall_s"] for r in runs if not r["traced"]]
    lines, metrics = [], {}
    if record["trace"]:
        traced = [r for r in runs if r["traced"]]
        for name, unit in layers.METRICS.items():
            if name == "trace.overhead_frac":
                value = (statistics.median(r["wall_s"] for r in traced)
                         / statistics.median(untraced) - 1.0)
            else:
                value = statistics.median(r["layers"]["metrics"][name] for r in traced)
            metrics[name] = {"value": value, "unit": unit}
            lines.append(f"{name:36s} {value:18.6f} {unit:6s} n={len(traced)}")
    else:
        samples = {"wall_s": untraced, "setup_s": record["setup_s"],
                   "peak_rss_mb": [record["peak_rss_mb"]]}
        for name, unit in END_TO_END_UNITS.items():
            q1, med, q3 = quartiles(samples[name])
            metrics[name] = {"value": med, "unit": unit}
            lines.append(f"{name:12s} median {med:12.6f} {unit:3s} q1 {q1:.6f} q3 {q3:.6f} "
                         f"n={len(samples[name])}")
    lines.append(f"failed_frac  {failed / len(runs):.6f} ratio ({failed} of {len(runs)} runs)")
    digests = sorted({d for r in runs for d in r["sha256"].values() if d})
    lines.append(f"csv_sha256   {' '.join(digests)}")
    return metrics, failed, lines


def report(record: dict) -> dict:
    """Print the report and the result line; save the record; return the result."""
    metrics, failed, lines = summarize(record)
    for i, r in enumerate(record["runs"]):
        for p in r["problems"]:
            print(f"run {i} failed: {p}", file=sys.stderr)
        if r["layers"] and r["layers"]["missing_sites"]:
            print(f"warning: sites not traced: {r['layers']['missing_sites']}", file=sys.stderr)
    result = {"correct": failed == 0, "attempted": len(record["runs"]), "failed": failed,
              "metrics": metrics}
    record["result"] = result
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    results = RUNS_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{record['run_id']}-{stamp}.json").write_text(json.dumps(record, indent=1))
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"seconds {record['seconds']:g}")
    print("\n".join(lines))
    print(json.dumps(result))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the sample config's seed)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "rankflow" / "__init__.py").is_file():
        print(f"error: no rankflow package under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    try:
        record = measure(args.workload, args.seed, args.seconds, args.trace)
    except subprocess.CalledProcessError as e:
        print(e.stderr, file=sys.stderr)
        print(f"error: benchmark process exited with code {e.returncode}", file=sys.stderr)
        return 1
    except (subprocess.TimeoutExpired, TimeoutError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    report(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
