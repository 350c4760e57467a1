"""Self-test of the benchmark harness at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Checks that
  - BENCHMARK.json names exactly the metrics and units the harness emits;
  - every workload, untraced and traced, emits every named metric with its
    unit, with all runs passing and traced CSVs identical to untraced ones;
  - a corrupted CSV, an output outside its band and a nonzero exit code each
    count as a failed run and raise failed_frac;
  - the tracer wraps every lookup site, leaves the CLI's CSV bytes unchanged,
    and restores every name it wrapped.
Exits nonzero on the first failed check.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import assess  # noqa: E402

TINY = {
    "martingale": {"n": 64, "steps": 32, "replicas": 3},
    "converge": {"n_list": [8, 256], "replicas": 2, "steps": 8, "cells": 64},
    "diagnose": {"steps": 16, "cells": 64, "eta_list": [0.5], "y_list": [0.0]},
}


def check(cond: bool, what: str):
    if not cond:
        raise SystemExit(f"FAIL: {what}")
    print(f"ok    {what}")


def benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check(e2e == run.END_TO_END_UNITS, "BENCHMARK.json end_to_end matches the harness")
    check(per_layer == layers.METRICS, "BENCHMARK.json per_layer matches the harness")
    check([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
          "BENCHMARK.json workloads match the harness")
    return e2e, per_layer


def tiny_runs(e2e: dict, per_layer: dict):
    for name in workloads.WORKLOADS:
        for trace, expected in ((0, e2e), (1, per_layer)):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                record = run.measure(name, None, 0.0, trace, TINY[name])
                result = run.report(record)
            last = json.loads(out.getvalue().splitlines()[-1])
            check(last == result and set(last) == {"correct", "attempted", "failed", "metrics"},
                  f"{name} trace={trace}: last line is the result object")
            check({k: v["unit"] for k, v in last["metrics"].items()} == expected,
                  f"{name} trace={trace}: every metric emitted with its unit")
            check(last["correct"] and last["failed"] == 0 and last["attempted"] >= 2,
                  f"{name} trace={trace}: {last['attempted']} runs, none failed")
            digests = {d for r in record["runs"] for d in r["sha256"].values()}
            check(len(digests) == 1, f"{name} trace={trace}: all runs wrote identical CSV bytes")
            if trace:
                check(all(not r["layers"]["missing_sites"] for r in record["runs"] if r["traced"]),
                      f"{name}: every lookup site found")
                yield name, record


def cli_csv(name: str, values: dict, tmp: Path) -> bytes:
    import rankflow.cli

    tmp.mkdir(parents=True, exist_ok=True)
    cfg = tmp / f"{name}.cfg"
    cfg.write_text(workloads.config_text(values))
    out = tmp / name
    with contextlib.redirect_stdout(io.StringIO()):
        rc = rankflow.cli.run([workloads.WORKLOADS[name]["command"], "--config", str(cfg),
                               "--out", str(out)])
    check(rc == 0, f"{name}: CLI exits 0")
    return (out / workloads.WORKLOADS[name]["csv"]).read_bytes()


def out_of_band(name: str, data: bytes) -> bytes:
    lines = data.decode().splitlines()
    if name == "converge":
        # reverse the error column: means then grow with n
        head, rows = lines[0], [ln.split(",") for ln in lines[1:]]
        errors = [r[2] for r in rows][::-1]
        lines = [head] + [",".join(r[:2] + [e]) for r, e in zip(rows, errors)]
    elif name == "martingale":
        cells = lines[1].rsplit(",", 5)
        cells[3] = "1e6"
        lines[1] = ",".join(cells)
    else:
        cells = lines[1].split(",")
        cells[5] = "nan"
        lines[1] = ",".join(cells)
    return ("\n".join(lines) + "\n").encode()


def failures(traced_records: dict):
    with tempfile.TemporaryDirectory() as tmp:
        for name in workloads.WORKLOADS:
            values = workloads.config_values(name, None, TINY[name])
            allowances = workloads.martingale_allowances(values) if name == "martingale" else None
            data = cli_csv(name, values, Path(tmp))
            ref = hashlib.sha256(data).hexdigest()
            check(assess(name, values, allowances, 0, data, ref) == [],
                  f"{name}: good output passes its check")
            corrupt = data.replace(b"e", b"x", 1)
            check(bool(assess(name, values, allowances, 0, corrupt, ref)),
                  f"{name}: corrupted CSV fails")
            bad = out_of_band(name, data)
            check(bool(assess(name, values, allowances, 0, bad, None)),
                  f"{name}: output outside its band fails")
            check(bool(assess(name, values, allowances, 1, data, ref)),
                  f"{name}: nonzero exit code fails")

            record = json.loads(json.dumps(traced_records[name]))
            record["runs"][-1]["problems"] = assess(name, values, allowances, 0, corrupt, ref)
            _, failed, lines = run.summarize(record)
            frac = next(ln for ln in lines if ln.startswith("failed_frac"))
            check(failed == 1 and float(frac.split()[1]) > 0.0,
                  f"{name}: a failed run raises failed_frac ({frac.split()[1]})")


def tracer_restores():
    with tempfile.TemporaryDirectory() as tmp:
        before = layers.bindings()
        plain = {n: cli_csv(n, workloads.config_values(n, None, TINY[n]), Path(tmp))
                 for n in workloads.WORKLOADS}
        tracer = Tracer()
        missing = layers.install(tracer)
        check(missing == [], "every lookup site exists")
        wrapped = layers.bindings()
        check(all(wrapped[k] is not before[k] for k in before),
              f"all {len(before)} lookup sites wrapped")
        try:
            traced = {n: cli_csv(n, workloads.config_values(n, None, TINY[n]), Path(tmp) / "t")
                      for n in workloads.WORKLOADS}
        finally:
            tracer.restore()
        after = layers.bindings()
        check(all(after[k] is before[k] for k in before), "tracer restored every wrapped name")
        check(traced == plain, "traced CSVs are byte-identical to untraced ones")
        summary = tracer.summary()
        roots = sum(e - s for _, s, e, p in tracer.spans if p < 0)
        self_sum = sum(row["self_s"] for row in summary.values())
        check(abs(roots - self_sum) <= 1e-9 * max(1.0, len(tracer.spans)),
              "self times add up to the root spans")


def main() -> int:
    e2e, per_layer = benchmark_json()
    traced_records = dict(tiny_runs(e2e, per_layer))
    failures(traced_records)
    tracer_restores()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
