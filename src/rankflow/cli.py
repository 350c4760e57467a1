"""Command-line entry point.

    rankflow <simulate|solve|converge|martingale|stability|diagnose>
             --config PATH [--out DIR] [--seed U64]

Configs are flat `key = value` files (see config module).  Every run
writes its CSV artifacts plus a manifest recording the config hash and
seed.  Exit codes: 0 success, 1 runtime error, 2 config error: an
`InputError`, which input that breaks a rule of the library raises.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .bumps import Bump1D
from .coefficients import build_from_sources
from .config import ConfigError, RunConfig, parse_config, parse_init
from .csvio import write_csv, write_cdf_csv, write_manifest, write_path_csv
from .diagnostics import (
    BumpTestFunction,
    chain_rule_residual,
    check_supports,
    coarea_check,
    entropy_identity_residual,
    weak_form_residual,
    window_nodes,
)
from .experiments import (
    _epsilons,
    _particle_counts,
    convergence_study,
    default_martingale_suite,
    martingale_statistic,
    stability_experiment,
)
from .expr import InputError
from .measures import empirical_cdf, grid_cdf
from .particles import simulate as run_particles, snapshot_indices
from .randomness import STREAM_COMMON, check_horizon, make_noise_bundle, refine_path, sample_path, step_grid
from .solver import SolverConfig, solve

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
    horizon T, the common-noise path W on `steps` steps (`step_grid`, checked
    before the draw) and the initial CDF on the mesh."""
    cs = _coefficients(cfg)
    sc = _solver_config(cfg)
    T = cfg.num("T")
    steps = cfg.count("steps")
    step_grid(T, steps)
    W = sample_path(seed, STREAM_COMMON, T, steps)
    u0 = grid_cdf(parse_init(cfg.text("init")), sc.x_min, sc.x_max, sc.cells)
    return cs, sc, T, W, u0


def _mesh_snapshot_times(cfg: RunConfig, T: float) -> list:
    """The snapshot times of `solve` and `stability`, [T] by default: they
    must lie in [0, T] (`check_horizon`), checked before any refinement."""
    snap = cfg.num_list("snapshot_times", [T])
    check_horizon(snap, T, "snapshot time")
    return snap


def _cmd_solve(cfg: RunConfig, seed: int, out: Path) -> tuple[list, str]:
    cs, sc, T, W, u0 = _mesh_inputs(cfg, seed)
    snap = _mesh_snapshot_times(cfg, T)
    sol = solve(u0, cs, refine_path(W, snap), sc, snap)
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
    # the rules of `run_particles`, before the noise is drawn
    _particle_counts([n])
    snapshot_indices(snap, step_grid(T, steps))
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
    rep = convergence_study(
        cs,
        parse_init(cfg.text("init")),
        cfg.int_list("n_list"),
        cfg.count("replicas"),
        _solver_config(cfg),
        cfg.num_list("snapshot_times", [T]),
        seed,
        T,
        cfg.count("steps"),
        reference=reference,
    )
    outputs = [write_csv(out / "convergence.csv", rep.columns, rep.rows)]
    means = rep.summary["mean_error"]
    desc = ", ".join(f"n={n}: {e:.4g}" for n, e in means.items())
    return outputs, f"converge[{reference}]: {desc}"


def _cmd_martingale(cfg: RunConfig, seed: int, out: Path) -> tuple[list, str]:
    cs = _coefficients(cfg)
    init = parse_init(cfg.text("init"))
    suite = default_martingale_suite(cfg.num("f_center", 0.0), cfg.num("f_radius", 2.5))
    rep = martingale_statistic(cs, init, suite, cfg.num("s"), cfg.num("t"), cfg.count("n"),
                               cfg.count("replicas"), cfg.count("steps"), seed)
    outputs = [write_csv(out / "martingale.csv", rep.columns, rep.rows)]
    return outputs, (f"martingale: {len(rep.rows)} triples, "
                     f"max |estimate|/stderr = {max(rep.summary['z']):.2f}")


def _cmd_stability(cfg: RunConfig, seed: int, out: Path) -> tuple[list, str]:
    epsilons = _epsilons(cfg.num_list("epsilons"))
    cs, sc, T, W, u0 = _mesh_inputs(cfg, seed)
    rep = stability_experiment(cs, u0, W, epsilons, sc, snapshot_times=_mesh_snapshot_times(cfg, T))
    outputs = [write_csv(out / "stability.csv", rep.columns, rep.rows)]
    return outputs, f"stability: implied-C spread {rep.summary['implied_C_spread']:.3g}"


def _diagnose_bumps(sc: SolverConfig, grid: np.ndarray, s: float, t: float,
                    r_xi: float, r_x: float, etas, ys):
    """The test functions, one per (eta, y), the weak-form test functions,
    one per distinct centre in first-seen order, and s and t as grid nodes
    (`window_nodes`).  The rules of the diagnostics on them (bump scales,
    weak-form supports, the window [s, t]) run here, before the solve."""
    tfs = [BumpTestFunction(eta=eta, y=y, r_xi=r_xi, r_x=r_x) for eta in etas for y in ys]
    fs = {y: Bump1D(y, r_x) for y in ys}
    check_supports(fs.values(), sc.x_min, sc.x_max)
    k_s, k_t = window_nodes(grid, s, t)
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
        try:
            text = Path(args.config).read_text()
        except (OSError, UnicodeDecodeError) as e:
            raise ConfigError(f"cannot read {args.config}: {e}") from None
        cfg = parse_config(text)
        if args.seed is None:
            seed = cfg.integer("seed")
        else:
            seed = args.seed
            cfg.read.add("seed")  # overridden, not unused
        if not 0 <= seed < 2**64:  # the Philox key word; numpy would wrap it onto another seed
            raise ConfigError(f"seed {seed} must lie in [0, 2**64 - 1]")
        handler = _HANDLERS[args.command]
        out = Path(args.out)
        outputs, summary = handler(cfg, seed, out)
        # a key set in the file but read by no command is likely a typo or
        # a retired option; sample configs are shared across commands, so
        # this warns instead of failing
        for key in cfg.unread():
            print(f"warning: unused config key {key!r}", file=sys.stderr)
    except InputError as e:
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
