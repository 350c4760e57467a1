"""One benchmark process, started by run.py with `src` on PYTHONPATH.

    worker.py setup --config PATH
        Fresh-interpreter set-up: import rankflow, parse the config and build
        the coefficient tables; prints the seconds taken.

    worker.py work --workload NAME --config PATH --values PATH --out DIR
                   --seconds S --trace 0|1 --result PATH
        Repeats the workload through rankflow.cli.run, at least MIN_RUNS
        times and then until S seconds are used, checks each run's CSV, and
        writes a JSON record to --result.  --values holds the config's
        values as JSON, for the output checks.
        With --trace 1 untraced and traced runs alternate, starting untraced.
"""

import argparse
import hashlib
import json
import resource
import shutil
import sys
import time
from pathlib import Path

import workloads

MIN_RUNS = 3


def setup(config_path: str) -> None:
    with open(config_path) as fh:
        text = fh.read()
    t0 = time.perf_counter()
    import rankflow  # noqa: F401  (numpy and scipy come with it)
    from rankflow.coefficients import build_from_sources
    from rankflow.config import parse_config

    cfg = parse_config(text)
    build_from_sources(cfg.text("b"), cfg.text("sigma"), cfg.text("gamma"),
                       cfg.integer("table_resolution"),
                       allow_degenerate=cfg.flag("allow_degenerate", False))
    print(f"{time.perf_counter() - t0!r}")


def assess(name: str, values: dict, allowances, rc: int, data, reference) -> list[str]:
    """Problems with one run: exit code, output check, bytes versus the
    first run of this process."""
    if rc != 0:
        return [f"exit code {rc}"]
    if data is None:
        return ["no CSV written"]
    problems = []
    try:
        problems += workloads.CHECKS[name](data, values, allowances)
    except (ValueError, KeyError, TypeError, UnicodeDecodeError) as e:
        problems.append(f"unreadable CSV: {type(e).__name__}: {e}")
    if reference is not None and hashlib.sha256(data).hexdigest() != reference:
        problems.append("CSV bytes differ from the first run")
    return problems


def work(args) -> None:
    # rankflow, and layers with its numpy, are imported only here: set-up
    # probes must pay for them inside the timed region
    import rankflow.cli

    spec = workloads.WORKLOADS[args.workload]
    with open(args.values) as fh:
        values = json.load(fh)
    allowances = workloads.martingale_allowances(values) if args.workload == "martingale" else None
    out = Path(args.out)
    argv = [spec["command"], "--config", args.config, "--out", str(out)]

    runs = []
    reference = None
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(runs) % 2 == 1
        shutil.rmtree(out, ignore_errors=True)
        layer = None
        if traced:
            import layers
            from tracer import Tracer

            before = layers.bindings()
            tracer = Tracer()
            missing = layers.install(tracer)
        t0 = time.perf_counter()
        rc = rankflow.cli.run(argv)
        wall = time.perf_counter() - t0
        if traced:
            tracer.restore()
            after = layers.bindings()
            layer = {
                "metrics": layers.derive(tracer.summary(), tracer.counts),
                "missing_sites": missing,
                "unrestored": sorted(k for k in before if after.get(k) is not before[k]),
            }
            tracer.write_spans(Path(args.result).with_suffix(".spans.csv"))
        csv_path = out / spec["csv"]
        data = csv_path.read_bytes() if csv_path.is_file() else None
        problems = assess(args.workload, values, allowances, rc, data, reference)
        if traced and layer["unrestored"]:
            problems.append(f"tracer left wrapped: {layer['unrestored']}")
        digest = hashlib.sha256(data).hexdigest() if data is not None else None
        if reference is None and rc == 0:
            reference = digest
        runs.append({"wall_s": wall, "traced": traced, "exit_code": rc,
                     "sha256": {spec["csv"]: digest}, "problems": problems, "layers": layer})
        elapsed = time.perf_counter() - start
        untraced = [r["wall_s"] for r in runs if not r["traced"]]
        # at least MIN_RUNS, so the median drops one outlier; then stop
        # before a run that would end past the time budget
        if len(runs) >= MIN_RUNS and elapsed + sum(untraced) / len(untraced) > args.seconds:
            break

    record = {
        "runs": runs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    with open(args.result, "w") as fh:
        json.dump(record, fh)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--config", required=True)
    p = sub.add_parser("work")
    p.add_argument("--workload", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--values", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        setup(args.config)
    else:
        work(args)


if __name__ == "__main__":
    sys.exit(main())
