"""Command-line entry point.

    rankflow <simulate|solve|converge|martingale|stability|diagnose>
             --config PATH [--out DIR] [--seed U64]

Configs are flat `key = value` files (see config module).  Every run
writes its CSV artifacts plus a manifest recording the config hash and
seed.  Exit codes: 0 success, 1 runtime error, 2 config error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .bumps import Bump1D
from .coefficients import ValidationError, build_from_sources
from .config import ConfigError, RunConfig, parse_config, parse_init
from .csvio import write_csv, write_cdf_csv, write_manifest, write_path_csv
from .diagnostics import (
    BumpTestFunction,
    chain_rule_residual,
    coarea_check,
    entropy_identity_residual,
    weak_form_residual,
)
from .experiments import (
    _particle_counts,
    convergence_study,
    default_martingale_suite,
    martingale_statistic,
    stability_experiment,
)
from .expr import ExpressionSyntaxError
from .measures import empirical_cdf, grid_cdf
from .particles import simulate as run_particles, snapshot_indices
from .randomness import STREAM_COMMON, grid_indices, make_noise_bundle, sample_path
from .solver import DomainMarginError, SolverConfig, solve

COMMANDS = ("simulate", "solve", "converge", "martingale", "stability", "diagnose")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rankflow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a key = value config file")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
    return parser


def _coefficients(cfg: RunConfig):
    """Build the coefficient set; what validation relaxed goes to stderr."""
    cs = build_from_sources(
        cfg.text("b"),
        cfg.text("sigma"),
        cfg.text("gamma"),
        cfg.count("table_resolution", 256),
        allow_degenerate=cfg.flag("allow_degenerate", False),
    )
    for msg in cs.report.warnings:
        print(f"warning: {msg}", file=sys.stderr)
    return cs


def _solver_config(cfg: RunConfig) -> SolverConfig:
    return SolverConfig(
        x_min=cfg.num("x_min"),
        x_max=cfg.num("x_max"),
        cells=cfg.count("cells"),
    )


def _mesh_inputs(cfg: RunConfig, seed: int):
    """The inputs of a mesh command: the coefficient set, the mesh, the
    horizon T, the common-noise path W on `steps` steps and the initial
    CDF on the mesh."""
    cs = _coefficients(cfg)
    sc = _solver_config(cfg)
    T = cfg.num("T")
    W = sample_path(seed, STREAM_COMMON, T, cfg.count("steps"))
    u0 = grid_cdf(parse_init(cfg.text("init")), sc.x_min, sc.x_max, sc.cells)
    return cs, sc, T, W, u0


def _cmd_solve(cfg: RunConfig, seed: int, out: Path) -> tuple[list, str]:
    cs, sc, T, W, u0 = _mesh_inputs(cfg, seed)
    sol = solve(u0, cs, W, sc, snapshot_times=cfg.num_list("snapshot_times", [T]))
    centers = sc.centers()
    rows = [
        (t, x, u)
        for t, g in zip(sol.times, sol.snapshots)
        for x, u in zip(centers, g.values)
    ]
    outputs = [
        write_csv(out / "snapshots.csv", ("t", "x", "u"), rows),
        write_path_csv(out / "path.csv", sol.path),
    ]
    return outputs, f"solve: {len(sol.snapshots)} snapshots on J={sc.cells}"


def _cmd_simulate(cfg: RunConfig, seed: int, out: Path) -> tuple[list, str]:
    cs = _coefficients(cfg)
    T = cfg.num("T")
    steps = cfg.count("steps")
    n = cfg.count("n")
    init = parse_init(cfg.text("init"))
    snap = cfg.num_list("snapshot_times", [0.0, T])
    _particle_inputs([n], 1, T, steps, snap)
    noise = make_noise_bundle(seed, n, T, steps)
    traj = run_particles(init.sample(n, seed), cs, T, steps, noise, snapshot_times=snap)
    rows = [
        (t, i, x)
        for t, state in zip(traj.times, traj.states)
        for i, x in enumerate(state.positions)
    ]
    final = empirical_cdf(traj.states[-1].positions)
    outputs = [
        write_csv(out / "particles.csv", ("t", "particle_index", "x"), rows),
        write_cdf_csv(out / "cdf.csv", final.points, (np.arange(final.n) + 1) / final.n),
    ]
    return outputs, f"simulate: n={n} over {len(traj.times)} snapshots"


def _cmd_converge(cfg: RunConfig, seed: int, out: Path) -> tuple[list, str]:
    cs = _coefficients(cfg)
    reference = cfg.text("reference", "spde")
    T = cfg.num("T")
    steps = cfg.count("steps")
    n_list = cfg.int_list("n_list")
    replicas = cfg.count("replicas")
    snap = cfg.num_list("snapshot_times", [T])
    _particle_inputs(n_list, replicas, T, steps, snap)
    rep = convergence_study(
        cs,
        parse_init(cfg.text("init")),
        n_list,
        replicas,
        _solver_config(cfg),
        snap,
        seed,
        T,
        steps,
        reference=reference,
    )
    outputs = [write_csv(out / "convergence.csv", rep.columns, rep.rows)]
    means = rep.summary["mean_error"]
    desc = ", ".join(f"n={n}: {e:.4g}" for n, e in means.items())
    return outputs, f"converge[{reference}]: {desc}"


def _martingale_suite(cfg: RunConfig):
    """Six (f, phi, psi) triples over bumps sized to the initial spread."""
    try:
        return default_martingale_suite(cfg.num("f_center", 0.0), cfg.num("f_radius", 2.5))
    except ValueError as e:
        raise ConfigError(str(e)) from None


def _cmd_martingale(cfg: RunConfig, seed: int, out: Path) -> tuple[list, str]:
    cs = _coefficients(cfg)
    init = parse_init(cfg.text("init"))
    s = cfg.num("s")
    t = cfg.num("t")
    n = cfg.count("n")
    replicas = cfg.count("replicas")
    steps = cfg.count("steps")
    _particle_inputs([n], replicas, t, steps, [], s=s)
    rep = martingale_statistic(cs, init, _martingale_suite(cfg), s, t, n, replicas, steps, seed)
    outputs = [write_csv(out / "martingale.csv", rep.columns, rep.rows)]
    return outputs, (f"martingale: {len(rep.rows)} triples, "
                     f"max |estimate|/stderr = {max(rep.summary['z']):.2f}")


def _cmd_stability(cfg: RunConfig, seed: int, out: Path) -> tuple[list, str]:
    cs, sc, T, W, u0 = _mesh_inputs(cfg, seed)
    rep = stability_experiment(cs, u0, W, cfg.num_list("epsilons"), sc,
                               snapshot_times=cfg.num_list("snapshot_times", [T]))
    outputs = [write_csv(out / "stability.csv", rep.columns, rep.rows)]
    return outputs, f"stability: implied-C spread {rep.summary['implied_C_spread']:.3g}"


def _particle_inputs(ns, replicas: int, T: float, steps: int, snapshot_times, **times) -> None:
    """Reject, before any work, the particle-study inputs that would
    otherwise run empty, repeat rows or fail only after a solve: the
    particle-count check of `convergence_study`, the snapshot-time check of
    `simulate`, each named time of `times` off the step grid
    (`grid_indices`) or on its last node T, and fewer than one replica."""
    if not T > 0:
        raise ConfigError(f"the time horizon {T} must be positive")
    grid = np.linspace(0.0, T, steps + 1)
    try:
        _particle_counts(ns)
        snapshot_indices(snapshot_times, grid)
        for name, v in times.items():
            if grid_indices(grid, v, name) == steps:
                raise ValueError(f"{name} = {v!r} is the grid node of the horizon {T}; it must lie before it")
    except ValueError as e:
        raise ConfigError(str(e)) from None
    if replicas < 1:
        raise ConfigError(f"replicas = {replicas} must be at least 1")


def _diagnose_bumps(sc: SolverConfig, grid: np.ndarray, s: float, t: float,
                    r_xi: float, r_x: float, etas, ys):
    """Check the diagnose parameters that would otherwise fail only after
    the solve (bump scales, weak-form supports, the window [s, t] on the
    noise grid) and return the test functions, one per (eta, y), the
    weak-form test functions, one per distinct centre in first-seen order,
    and s and t as grid nodes (`grid_indices`)."""
    try:
        tfs = [BumpTestFunction(eta=eta, y=y, r_xi=r_xi, r_x=r_x) for eta in etas for y in ys]
        fs = {y: Bump1D(y, r_x) for y in ys}
    except ValueError as e:
        raise ConfigError(str(e)) from None
    for f in fs.values():
        lo, hi = f.support()
        if lo <= sc.x_min or hi >= sc.x_max:
            raise ConfigError(f"bump support [{lo}, {hi}] (y = {f.center}, r_x = {r_x}) must lie "
                              f"inside (x_min, x_max) = ({sc.x_min}, {sc.x_max})")
    window = ConfigError(f"need 0 <= s < t <= T, got s = {s}, t = {t}, T = {grid[-1]}")
    try:
        k_s, k_t = (grid_indices(grid, v, name) for name, v in (("s", s), ("t", t)))
    except ValueError as e:
        raise (ConfigError(str(e)) if 0.0 <= s < t <= grid[-1] else window) from None
    if not k_s < k_t:
        raise window
    return tfs, fs, float(grid[k_s]), float(grid[k_t])


def _cmd_diagnose(cfg: RunConfig, seed: int, out: Path) -> tuple[list, str]:
    cs, sc, T, W, u0 = _mesh_inputs(cfg, seed)
    tfs, fs, s, t = _diagnose_bumps(sc, W.t_grid, cfg.num("s", 0.0), cfg.num("t", T),
                                    cfg.num("r_xi", 0.25), cfg.num("r_x", 1.0),
                                    cfg.num_list("eta_list", [0.3, 0.6]), cfg.num_list("y_list", [0.0]))
    sol = solve(u0, cs, W, sc)  # snapshot every noise node
    u_t = sol.snapshot_at(t)
    w_t = sol.path.value_at(t)
    entropy = entropy_identity_residual(sol, cs, tfs, s, t)
    chain = chain_rule_residual(u_t, cs, tfs, t, w_t)
    weak = dict(zip(fs, weak_form_residual(sol, cs, list(fs.values()), s, t)))
    rows = []
    for tf, cr, ent in zip(tfs, chain, entropy):
        eta, y = tf.eta, tf.y
        rows.append(("chain_rule", eta, y, t, t, cr, sc.cells))
        # a test integrand varying in both arguments, centered near (y, eta)
        g_fn = lambda x, v, y0=y, e0=eta: np.cos(x - y0) + (v - e0) ** 2
        rows.append(("coarea", eta, y, t, t, coarea_check(u_t, cs, g_fn), sc.cells))
        rows.append(("entropy_identity", eta, y, s, t, ent, sc.cells))
        rows.append(("weak_form", eta, y, s, t, weak[y], sc.cells))
    outputs = [
        write_csv(out / "diagnostics.csv",
                  ("diagnostic", "eta", "y", "s", "t", "residual", "resolution"), rows)
    ]
    return outputs, f"diagnose: {len(rows)} residuals on J={sc.cells}"


_HANDLERS = {
    "solve": _cmd_solve,
    "simulate": _cmd_simulate,
    "converge": _cmd_converge,
    "martingale": _cmd_martingale,
    "stability": _cmd_stability,
    "diagnose": _cmd_diagnose,
}


def run(argv) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)

    try:
        text = Path(args.config).read_text()
    except OSError as e:
        print(f"config error: cannot read {args.config}: {e}", file=sys.stderr)
        return 2

    try:
        cfg = parse_config(text)
        if args.seed is None:
            seed = cfg.integer("seed")
        else:
            seed = args.seed
            cfg.read.add("seed")  # overridden, not unused
        handler = _HANDLERS[args.command]
        # build/validate everything before any output is created
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        outputs, summary = handler(cfg, seed, out)
        # a key set in the file but read by no command is likely a typo or
        # a retired option; sample configs are shared across commands, so
        # this warns instead of failing
        for key in cfg.unread():
            print(f"warning: unused config key {key!r}", file=sys.stderr)
    except (ConfigError, ExpressionSyntaxError, ValidationError, DomainMarginError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1

    write_manifest(
        out / "manifest.json",
        command=args.command,
        config_sha256=cfg.sha256(),
        seed=seed,
        outputs=[p.name for p in outputs],
    )
    print(f"{summary} -> {out}")
    return 0


def main():  # pragma: no cover - thin wrapper
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":  # pragma: no cover
    main()
