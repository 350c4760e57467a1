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
    convergence_study,
    default_martingale_suite,
    martingale_statistic,
    stability_experiment,
)
from .expr import ExpressionSyntaxError
from .measures import empirical_cdf, grid_cdf
from .particles import simulate as run_particles
from .randomness import STREAM_COMMON, make_noise_bundle, sample_path
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
        cfg.integer("table_resolution", 256),
        allow_degenerate=cfg.flag("allow_degenerate", False),
    )
    for msg in cs.report.warnings:
        print(f"warning: {msg}", file=sys.stderr)
    return cs


def _solver_config(cfg: RunConfig) -> SolverConfig:
    return SolverConfig(
        x_min=cfg.num("x_min"),
        x_max=cfg.num("x_max"),
        cells=cfg.integer("cells"),
        cfl_target=cfg.num("cfl_target", 0.9),
    )


def _cmd_solve(cfg: RunConfig, seed: int, out: Path) -> tuple[list, str]:
    cs = _coefficients(cfg)
    sc = _solver_config(cfg)
    T = cfg.num("T")
    steps = cfg.integer("steps")
    snap = cfg.num_list("snapshot_times", [T])
    W = sample_path(seed, STREAM_COMMON, T, steps)
    u0 = grid_cdf(parse_init(cfg.text("init")), sc.x_min, sc.x_max, sc.cells)
    sol = solve(u0, cs, W, sc, snapshot_times=snap)
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
    steps = cfg.integer("steps")
    n = cfg.integer("n")
    init = parse_init(cfg.text("init"))
    snap = cfg.num_list("snapshot_times", [0.0, T])
    noise = make_noise_bundle(seed, n, T, steps)
    traj = run_particles(init, cs, T, steps, noise, snapshot_times=snap)
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
        cfg.integer("replicas"),
        _solver_config(cfg),
        cfg.num_list("snapshot_times", [T]),
        seed,
        T,
        cfg.integer("steps"),
        reference=reference,
    )
    outputs = [write_csv(out / "convergence.csv", rep.columns, rep.rows)]
    means = rep.summary["mean_error"]
    desc = ", ".join(f"n={n}: {e:.4g}" for n, e in means.items())
    return outputs, f"converge[{reference}]: {desc}"


def _martingale_suite(cfg: RunConfig):
    """Six (f, phi, psi) triples over bumps sized to the initial spread."""
    return default_martingale_suite(cfg.num("f_center", 0.0), cfg.num("f_radius", 2.5))


def _cmd_martingale(cfg: RunConfig, seed: int, out: Path) -> tuple[list, str]:
    cs = _coefficients(cfg)
    init = parse_init(cfg.text("init"))
    s = cfg.num("s")
    t = cfg.num("t")
    n = cfg.integer("n")
    replicas = cfg.integer("replicas")
    steps = cfg.integer("steps")
    rep = martingale_statistic(cs, init, _martingale_suite(cfg), s, t, n, replicas, steps, seed)
    outputs = [write_csv(out / "martingale.csv", rep.columns, rep.rows)]
    return outputs, (f"martingale: {len(rep.rows)} triples, "
                     f"max |estimate|/stderr = {max(rep.summary['z']):.2f}")


def _cmd_stability(cfg: RunConfig, seed: int, out: Path) -> tuple[list, str]:
    cs = _coefficients(cfg)
    sc = _solver_config(cfg)
    T = cfg.num("T")
    W = sample_path(seed, STREAM_COMMON, T, cfg.integer("steps"))
    rep = stability_experiment(
        cs,
        grid_cdf(parse_init(cfg.text("init")), sc.x_min, sc.x_max, sc.cells),
        W,
        cfg.num_list("epsilons"),
        sc,
        snapshot_times=cfg.num_list("snapshot_times", [T]),
    )
    outputs = [write_csv(out / "stability.csv", rep.columns, rep.rows)]
    return outputs, f"stability: implied-C spread {rep.summary['implied_C_spread']:.3g}"


def _cmd_diagnose(cfg: RunConfig, seed: int, out: Path) -> tuple[list, str]:
    cs = _coefficients(cfg)
    sc = _solver_config(cfg)
    T = cfg.num("T")
    steps = cfg.integer("steps")
    s = cfg.num("s", 0.0)
    t = cfg.num("t", T)
    r_xi = cfg.num("r_xi", 0.25)
    r_x = cfg.num("r_x", 1.0)
    etas = cfg.num_list("eta_list", [0.3, 0.6])
    ys = cfg.num_list("y_list", [0.0])
    W = sample_path(seed, STREAM_COMMON, T, steps)
    u0 = grid_cdf(parse_init(cfg.text("init")), sc.x_min, sc.x_max, sc.cells)
    sol = solve(u0, cs, W, sc)  # snapshot every noise node
    u_t = sol.snapshot_at(t)
    w_t = sol.path.value_at(t)
    tfs = [BumpTestFunction(eta=eta, y=y, r_xi=r_xi, r_x=r_x) for eta in etas for y in ys]
    entropy = entropy_identity_residual(sol, cs, sol.path, tfs, s, t)
    rows = []
    for tf, ent in zip(tfs, entropy):
        eta, y = tf.eta, tf.y
        rows.append(("chain_rule", eta, y, t, t,
                     chain_rule_residual(u_t, cs, tf, t, w_t), sc.cells))
        # a test integrand varying in both arguments, centered near (y, eta)
        g_fn = lambda x, v, y0=y, e0=eta: np.cos(x - y0) + (v - e0) ** 2
        rows.append(("coarea", eta, y, t, t, coarea_check(u_t, cs, g_fn), sc.cells))
        rows.append(("entropy_identity", eta, y, s, t, ent, sc.cells))
        rows.append(("weak_form", eta, y, s, t,
                     weak_form_residual(sol, cs, sol.path, Bump1D(y, r_x), s, t), sc.cells))
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
