"""Where each rankflow layer is traced, and the per-layer metrics derived
from the spans and counts.

Each public function is wrapped where its caller looks it up: a name taken
with `from .x import y` is bound in the caller's module, so it is wrapped
there; a name called from its own module is wrapped in that module; methods
are wrapped on their class.  Private helpers are not traced.
"""

from __future__ import annotations

import importlib
import inspect
from pathlib import Path

import numpy as np


def _bound(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


# count functions: count(counts, fn, args, kwargs, result), fn the original

def _count_calls(key):
    def count(counts, fn, args, kwargs, result):
        counts[key] += 1
    return count


def _count_points(prefix, param):
    """Calls, and points in `param`, the last parameter of the function."""
    def count(counts, fn, args, kwargs, result):
        counts[f"{prefix}_calls"] += 1
        counts[f"{prefix}_points"] += np.size(kwargs[param] if param in kwargs else args[-1])
    return count


def _count_noise(counts, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    drawn = a["n"] + (1 if a.get("common") is None else 0)
    counts["randomness.noise_calls"] += 1
    counts["randomness.increments"] += drawn * a["steps"]


def _count_em_step(counts, fn, args, kwargs, result):
    counts["particles.steps"] += 1
    counts["particles.particle_steps"] += result.positions.size


def _count_solve(counts, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    nodes = a["W"].t_grid.size - 1
    substeps = result.path.t_grid.size - 1
    counts["solver.solve_calls"] += 1
    counts["solver.noise_nodes"] += nodes
    counts["solver.substeps"] += substeps
    counts["solver.cell_substeps"] += substeps * a["config"].cells
    counts["randomness.bridge_draws"] += substeps - nodes


def _count_replicas(counts, fn, args, kwargs, result):
    counts["experiments.replicas"] += _bound(fn, args, kwargs).get("replicas", 0)


def _count_bytes(counts, fn, args, kwargs, result):
    counts["csvio.bytes"] += Path(result).stat().st_size


_BUMPS = _count_calls("bumps.eval_calls")
_DISTANCES = _count_calls("measures.distance_calls")

# (module or class path, attribute, span name, count function or None)
SITES = (
    ("rankflow.cli", "run", "cli.run", None),
    ("rankflow.cli", "build_from_sources", "coefficients.build", None),
    ("rankflow.coefficients.CoefficientSet", "eval_transform", "coefficients.eval_transform",
     _count_points("coefficients.eval_transform", "r")),
    ("rankflow.expr.CoefficientExpr", "__call__", "expr.eval", _count_points("expr.eval", "a")),
    ("rankflow.experiments", "make_noise_bundle", "randomness.noise", _count_noise),
    ("rankflow.cli", "make_noise_bundle", "randomness.noise", _count_noise),
    ("rankflow.experiments", "sample_path", "randomness.path", None),
    ("rankflow.cli", "sample_path", "randomness.path", None),
    ("rankflow.solver", "refine_path", "randomness.path", None),
    ("rankflow.experiments", "simulate", "particles.simulate", None),
    ("rankflow.cli", "run_particles", "particles.simulate", None),
    ("rankflow.particles", "em_step", "particles.em_step", _count_em_step),
    ("rankflow.experiments", "solve", "solver.solve", _count_solve),
    ("rankflow.cli", "solve", "solver.solve", _count_solve),
    ("rankflow.bumps.Bump1D", "__call__", "bumps.eval", _BUMPS),
    ("rankflow.bumps.Bump1D", "d1", "bumps.eval", _BUMPS),
    ("rankflow.bumps.Bump1D", "d2", "bumps.eval", _BUMPS),
    ("rankflow.bumps.Bump1D", "tail_integral", "bumps.eval", _BUMPS),
    ("rankflow.diagnostics", "bump", "bumps.eval", _BUMPS),
    ("rankflow.diagnostics", "bump_d1", "bumps.eval", _BUMPS),
    ("rankflow.diagnostics", "bump_d2", "bumps.eval", _BUMPS),
    ("rankflow.cli", "chain_rule_residual", "diagnostics.chain_rule", None),
    ("rankflow.cli", "coarea_check", "diagnostics.coarea", None),
    ("rankflow.cli", "entropy_identity_residual", "diagnostics.entropy", None),
    ("rankflow.cli", "weak_form_residual", "diagnostics.weak_form", None),
    ("rankflow.diagnostics", "eval_rho", "diagnostics.eval_rho",
     _count_calls("diagnostics.eval_rho_calls")),
    ("rankflow.experiments", "l1_cdf_distance", "measures.distance", _DISTANCES),
    ("rankflow.experiments", "w1", "measures.distance", _DISTANCES),
    ("rankflow.cli", "convergence_study", "experiments.study", _count_replicas),
    ("rankflow.cli", "martingale_statistic", "experiments.study", _count_replicas),
    ("rankflow.cli", "stability_experiment", "experiments.study", None),
    ("rankflow.cli", "write_csv", "csvio.write", _count_bytes),
    ("rankflow.cli", "write_path_csv", "csvio.write", _count_bytes),
    ("rankflow.cli", "write_cdf_csv", "csvio.write", _count_bytes),
    ("rankflow.cli", "write_manifest", "csvio.write", _count_bytes),
)

# per-layer metric -> unit; self times are in seconds
METRICS = {
    "randomness.noise_s": "s",
    "randomness.noise_calls": "count",
    "randomness.increments": "count",
    "randomness.path_s": "s",
    "randomness.bridge_draws": "count",
    "particles.simulate_s": "s",
    "particles.em_step_s": "s",
    "particles.steps": "count",
    "particles.particle_steps": "count",
    "particles.ns_per_particle_step": "ns",
    "solver.solve_s": "s",
    "solver.solve_calls": "count",
    "solver.noise_nodes": "count",
    "solver.substeps": "count",
    "solver.substeps_per_node": "ratio",
    "solver.cell_substeps": "count",
    "solver.us_per_substep": "us",
    "coefficients.build_s": "s",
    "coefficients.eval_transform_s": "s",
    "coefficients.eval_transform_calls": "count",
    "coefficients.eval_transform_points": "count",
    "expr.eval_s": "s",
    "expr.eval_calls": "count",
    "expr.eval_points": "count",
    "bumps.eval_s": "s",
    "bumps.eval_calls": "count",
    "diagnostics.entropy_s": "s",
    "diagnostics.chain_rule_s": "s",
    "diagnostics.weak_form_s": "s",
    "diagnostics.coarea_s": "s",
    "diagnostics.eval_rho_s": "s",
    "diagnostics.eval_rho_calls": "count",
    "measures.distance_s": "s",
    "measures.distance_calls": "count",
    "experiments.self_s": "s",
    "experiments.replicas": "count",
    "csvio.write_s": "s",
    "csvio.bytes": "count",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
}

# self-time metric -> span name
_SELF_TIMES = {
    "randomness.noise_s": "randomness.noise",
    "randomness.path_s": "randomness.path",
    "particles.simulate_s": "particles.simulate",
    "particles.em_step_s": "particles.em_step",
    "solver.solve_s": "solver.solve",
    "coefficients.build_s": "coefficients.build",
    "coefficients.eval_transform_s": "coefficients.eval_transform",
    "expr.eval_s": "expr.eval",
    "bumps.eval_s": "bumps.eval",
    "diagnostics.entropy_s": "diagnostics.entropy",
    "diagnostics.chain_rule_s": "diagnostics.chain_rule",
    "diagnostics.weak_form_s": "diagnostics.weak_form",
    "diagnostics.coarea_s": "diagnostics.coarea",
    "diagnostics.eval_rho_s": "diagnostics.eval_rho",
    "measures.distance_s": "measures.distance",
    "experiments.self_s": "experiments.study",
    "csvio.write_s": "csvio.write",
    "cli.self_s": "cli.run",
}


def _resolve(path: str):
    module, _, last = path.rpartition(".")
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        return getattr(importlib.import_module(module), last)


def install(tracer) -> list[str]:
    """Wrap every site that exists; return the sites that do not."""
    missing = []
    for owner_path, attr, name, count in SITES:
        owner = _resolve(owner_path)
        present = attr in owner.__dict__ if isinstance(owner, type) else hasattr(owner, attr)
        if present:
            tracer.wrap(owner, attr, name, count)
        else:
            missing.append(f"{owner_path}.{attr}")
    return missing


def bindings() -> dict:
    """Current object bound at every site that exists, by site name."""
    out = {}
    for owner_path, attr, _, _ in SITES:
        owner = _resolve(owner_path)
        current = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if current is not None:
            out[f"{owner_path}.{attr}"] = current
    return out


def derive(summary: dict, counts: dict) -> dict:
    """Per-layer metrics of one traced run, except trace.overhead_frac."""
    out = {name: 0.0 for name in METRICS if name != "trace.overhead_frac"}
    for metric, span in _SELF_TIMES.items():
        out[metric] = summary.get(span, {}).get("self_s", 0.0)
    for key, value in counts.items():
        out[key] = float(value)
    solve_total = summary.get("solver.solve", {}).get("total_s", 0.0)
    simulate_total = summary.get("particles.simulate", {}).get("total_s", 0.0)
    if out["solver.noise_nodes"]:
        out["solver.substeps_per_node"] = out["solver.substeps"] / out["solver.noise_nodes"]
    if out["solver.substeps"]:
        out["solver.us_per_substep"] = solve_total / out["solver.substeps"] * 1e6
    if out["particles.particle_steps"]:
        out["particles.ns_per_particle_step"] = simulate_total / out["particles.particle_steps"] * 1e9
    return out
