"""The three benchmark workloads: their configs and their output checks.

Each workload is a `rankflow` command on the values of one sample config in
`configs/`, with the seed taken from the benchmark.  The values are copied
here so that the workloads stay fixed when the sample configs change; the
program only ever sees the config the benchmark writes.
"""

from __future__ import annotations

import csv
import io
import math

# Family-wise false-alarm rate of the martingale check over its six triples.
MARTINGALE_ALPHA = 1e-4

COMMON = {
    "b": "a - 0.5",
    "sigma": "1",
    "gamma": "0.5*(1 + a)",
    "init": "gaussian(0, 1)",
}

WORKLOADS = {
    # configs/martingale.cfg with 16 of its 400 replicas: particles and bulk
    # noise dominate and the solver is never called.
    "martingale": {
        "command": "martingale",
        "csv": "martingale.csv",
        "values": {
            **COMMON,
            "table_resolution": 256,
            "seed": 20240601,
            "s": 0.25,
            "t": 0.5,
            "steps": 128,
            "n": 512,
            "replicas": 16,
            "f_center": 0.0,
            "f_radius": 2.5,
        },
    },
    # configs/converge.cfg with n_list [16, 64, 2048] in place of
    # [128, 512, 2048] and 10 of its 20 replicas; per replica the work is
    # unchanged: one common path drives the particles and the mesh, and the
    # solver dominates.  At J=256 the coupled error levels off near 0.16
    # from n ~ 512, so the mean errors at 512 and 2048 are ordered by noise
    # (n=2048 came out worse for seeds 8 and 9 at 20 replicas).  With
    # 16 -> 64 -> 2048 each step decreased by at least 1.9 paired standard
    # errors on seeds 0-29 at 10 replicas.
    "converge": {
        "command": "converge",
        "csv": "convergence.csv",
        "values": {
            **COMMON,
            "table_resolution": 256,
            "seed": 101,
            "T": 0.25,
            "steps": 32,
            "n_list": [16, 64, 2048],
            "replicas": 10,
            "reference": "spde",
            "x_min": -11.0,
            "x_max": 11.0,
            "cells": 256,
            "snapshot_times": [0.125, 0.25],
        },
    },
    # configs/diagnose.cfg as it stands: the only workload with the
    # diagnostics layer; no particles and no bulk noise.
    "diagnose": {
        "command": "diagnose",
        "csv": "diagnostics.csv",
        "values": {
            **COMMON,
            "table_resolution": 128,
            "seed": 5,
            "T": 0.5,
            "steps": 64,
            "x_min": -16.0,
            "x_max": 16.0,
            "cells": 256,
            "s": 0.25,
            "t": 0.5,
            "r_xi": 0.3,
            "r_x": 1.5,
            "eta_list": [0.3, 0.5, 0.7],
            "y_list": [-0.5, 0.0, 0.5],
        },
    },
}


def _render(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return f'"{value}"'
    if isinstance(value, list):
        return "[" + ", ".join(_render(v) for v in value) + "]"
    return repr(value)


def config_values(name: str, seed: int | None = None, overrides: dict | None = None) -> dict:
    values = dict(WORKLOADS[name]["values"])
    values.update(overrides or {})
    if seed is not None:
        values["seed"] = seed
    return values


def config_text(values: dict) -> str:
    return "".join(f"{key} = {_render(v)}\n" for key, v in values.items())


def _rows(data: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(data.decode())))


def check_converge(data: bytes, values: dict, allowances=None) -> list[str]:
    """Mean error strictly decreasing in n, as in acceptance criterion 3."""
    by_n: dict = {}
    for row in _rows(data):
        err = float(row["error"])
        if not math.isfinite(err):
            return [f"non-finite error for n={row['n']}"]
        by_n.setdefault(int(row["n"]), []).append(err)
    n_list = values["n_list"]
    if sorted(by_n) != sorted(n_list) or any(len(v) != values["replicas"] for v in by_n.values()):
        return [f"expected {values['replicas']} replicas for each n in {n_list}"]
    means = [sum(by_n[n]) / len(by_n[n]) for n in n_list]
    if not all(a > b for a, b in zip(means, means[1:])):
        return [f"mean errors {means} do not decrease strictly in n"]
    return []


def martingale_multiplier(replicas: int, triples: int) -> float:
    """The k of |estimate| <= k stderr + C/n: the two-sided Student-t
    quantile with replicas - 1 degrees of freedom at the Bonferroni level
    MARTINGALE_ALPHA / triples.  Criterion 4 uses k = 3 at 400 replicas for
    one fixed seed.  On arbitrary seeds k = 3 fails a correct program on
    about 1 seed in 27 at 8 replicas and 1 in 65 at 32 (resampled from 200
    replicas of one seed; the six triples share their trajectories, so their
    failures coincide).  k = 6.2 at 16 replicas, 4.4 at 400."""
    # scipy.special comes with rankflow; scipy.stats would add ~18 MB to the
    # worker's peak_rss_mb
    from scipy.special import stdtrit

    return float(stdtrit(replicas - 1, 1.0 - MARTINGALE_ALPHA / (2 * triples)))


def check_martingale(data: bytes, values: dict, allowances) -> list[str]:
    """|estimate| <= k stderr + C/n per triple, the band of acceptance
    criterion 4 with k from `martingale_multiplier`; `allowances` holds
    (phi_id, psi_id, C/n) in suite order.  The CLI writes f_id unquoted
    although it contains commas, so each line is split from the right."""
    lines = data.decode().splitlines()
    header = ("f_id", "phi_id", "psi_id", "estimate", "stderr", "z_score")
    if tuple(lines[0].split(",")) != header:
        return [f"unexpected header {lines[0]!r}"]
    rows = [dict(zip(header, line.rsplit(",", 5))) for line in lines[1:]]
    if len(rows) != len(allowances):
        return [f"expected {len(allowances)} rows, got {len(rows)}"]
    k = martingale_multiplier(values["replicas"], len(allowances))
    problems = []
    for row, (phi_id, psi_id, allowance) in zip(rows, allowances):
        if (row["phi_id"], row["psi_id"]) != (phi_id, psi_id):
            problems.append(f"row {row['phi_id']}/{row['psi_id']} out of suite order")
            continue
        est, se = float(row["estimate"]), float(row["stderr"])
        if not abs(est) <= k * se + allowance:
            problems.append(f"{phi_id}/{psi_id}: |{est:.3e}| > {k:.2f}*{se:.3e} + {allowance:.3e}")
    return problems


def check_diagnose(data: bytes, values: dict, allowances=None) -> list[str]:
    """|eta_list| * |y_list| * 4 rows, every residual finite."""
    rows = _rows(data)
    expected = len(values["eta_list"]) * len(values["y_list"]) * 4
    if len(rows) != expected:
        return [f"expected {expected} rows, got {len(rows)}"]
    bad = [r["diagnostic"] for r in rows if not math.isfinite(float(r["residual"]))]
    return [f"non-finite residuals: {bad}"] if bad else []


CHECKS = {
    "martingale": check_martingale,
    "converge": check_converge,
    "diagnose": check_diagnose,
}


def martingale_allowances(values: dict) -> list:
    """(phi_id, psi_id, C/n) per triple of the suite the CLI runs."""
    from rankflow.coefficients import build_from_sources
    from rankflow.experiments import bias_allowance, default_martingale_suite

    cs = build_from_sources(values["b"], values["sigma"], values["gamma"], values["table_resolution"])
    return [
        (phi.phi_id, psi.psi_id,
         bias_allowance(cs, f_list, phi, values["s"], values["t"]) / values["n"])
        for f_list, phi, psi in default_martingale_suite(values["f_center"], values["f_radius"])
    ]
