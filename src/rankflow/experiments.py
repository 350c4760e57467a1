"""Orchestrated studies: coupled hydrodynamic convergence, the martingale
problem statistic, and pathwise stability in the driving signal.

All studies are reproducible from (config, seed): replica r draws its
noise from streams keyed by a seed derived from (seed, r), and results are
aggregated in replica order.  The convergence study and the martingale
statistic split their replicas into one block per usable CPU
(`_fork_rows`, which runs any independent rows: replica seeds here,
snapshot indices in `diagnostics.entropy_identity_residual`); a replica's
row is computed on its own, bit for bit, so their output does not depend
on the number of CPUs.
"""

from __future__ import annotations

import itertools
import os
import pickle
from dataclasses import dataclass, field

import numpy as np

from .bumps import Bump1D
from .coefficients import CoefficientSet
from .measures import (
    GridFunction,
    InitialDistribution,
    empirical_cdf,
    grid_cdf,
    l1_cdf_distance,
    w1,
)
from .particles import ParticleState, march, simulate, snapshot_indices
from .randomness import (
    STREAM_COMMON,
    STREAM_INIT,
    BrownianPath,
    grid_indices,
    make_noise_bundle,
    replica_seed,
    sample_path,
)
from .solver import SolverConfig, analytic_constant_solution, solve_paths
from .solver import solve  # noqa: F401  (the benchmark traces rankflow.experiments.solve)

__all__ = [
    "ExperimentReport",
    "convergence_study",
    "martingale_statistic",
    "stability_experiment",
    "PhiConst",
    "PhiLinear",
    "PhiSquare",
    "PhiProduct",
    "PhiTanh",
    "PsiConst",
    "PsiTanhPairing",
    "PsiCosNoise",
    "PsiMixed",
    "bias_allowance",
    "default_martingale_suite",
]


@dataclass(frozen=True)
class ExperimentReport:
    columns: tuple
    rows: tuple
    summary: dict = field(default_factory=dict)


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _send_block(fn, rows, fd: int):
    """In a forked child: write fn(rows), or the exception it raised,
    pickled, to the pipe end fd, and leave without running any of the
    parent's cleanup.  A reply that does not pickle leaves the pipe empty,
    which the parent reports."""
    try:
        try:
            reply = (True, fn(rows))
        except BaseException as e:  # noqa: BLE001 - the parent re-raises it
            reply = (False, e)
        data = pickle.dumps(reply, pickle.HIGHEST_PROTOCOL)
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
    finally:
        os._exit(0)


def _fork_rows(fn, rows: np.ndarray) -> np.ndarray:
    """fn(rows), for a block function fn that maps a 1-d array of row keys
    (replica seeds, snapshot indices) to an array with one column per row
    (the row axis last) and computes each column on its own, bit for bit.

    The rows are split into k = min(len(rows), usable CPUs) contiguous
    blocks.  This process computes the first block, and each other block
    runs in a forked child, which sends back its result or the exception it
    raised through a pipe; the columns are joined in row order, so the
    result is the same for every k.  The first exception in row order is
    raised here.  Every child is waited for, and killed first if this
    process fails or is interrupted.  fn runs once, here, when k is 1 or
    the platform has no fork."""
    k = min(len(rows), _usable_cpus())
    if k < 2 or not hasattr(os, "fork"):
        return fn(rows)
    cuts = [len(rows) * i // k for i in range(k + 1)]
    forked = list(zip(cuts[1:-1], cuts[2:]))  # the blocks after the first
    children, replies, first = [], [], None
    try:
        for lo, hi in forked:
            r, w = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                os.close(r)
                _send_block(fn, rows[lo:hi], w)
            os.close(w)
            children.append((pid, r))
        first = fn(rows[:cuts[1]])
    finally:
        if first is None:
            from signal import SIGKILL  # loaded only on this path

            for pid, _ in children:
                os.kill(pid, SIGKILL)
        for pid, r in children:
            with os.fdopen(r, "rb") as fh:
                replies.append(fh.read())
            os.waitpid(pid, 0)
    blocks = [first]
    for (lo, hi), data in zip(forked, replies):
        if not data:
            raise RuntimeError(f"the child computing rows {lo}..{hi - 1} ended without a result")
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        blocks.append(value)
    return np.concatenate(blocks, axis=-1)


def _particle_counts(ns) -> list[int]:
    """The particle counts as ints; they must be positive and strictly
    increasing, so that no study runs empty or repeats its rows."""
    ns = [int(n) for n in ns]
    if not ns or ns[0] < 1 or sorted(set(ns)) != ns:
        raise ValueError(f"particle counts {ns} must be positive and strictly increasing")
    return ns


def convergence_study(
    cs: CoefficientSet,
    init: InitialDistribution,
    n_list,
    replicas: int,
    solver_config: SolverConfig,
    snapshot_times,
    seed: int,
    T: float,
    steps: int,
    reference: str = "spde",
) -> ExperimentReport:
    """Coupled convergence of the particle empirical CDF to the limit CDF.

    Per replica one common path W drives both the n-particle system and the
    reference: the mesh solution of the SPDE (reference="spde") or the exact
    constant-coefficient law (reference="analytic").  The error for (n,
    replica) is the max over snapshot times of the L1 distance between the
    empirical CDF and the reference CDF.  The replicas are split into one
    contiguous block per usable CPU (`_fork_rows`).  Within a block both
    sides march in lock-step: the mesh solves as one (block, J) block of
    `solve_paths`, and for each n the particles as one (block, n) block.
    Both are read at the step-grid nodes of the snapshot times
    (`snapshot_indices`).  Every replica's errors are computed on their
    own, so the report is the same bytes at any CPU count.
    """
    n_list = _particle_counts(n_list)
    if replicas < 1:
        raise ValueError(f"replicas = {replicas} must be at least 1")
    steps_grid = np.linspace(0.0, T, steps + 1)
    snap_idx = snapshot_indices(snapshot_times, steps_grid)
    snapshot_times = steps_grid[snap_idx]
    if reference == "analytic":
        for nm, (lo, hi) in cs.enclosures.items():
            if hi.max() - lo.min() > 1e-12:
                raise ValueError(f"analytic reference needs constant coefficients; {nm} varies")
        b0, s0, g0 = (float(e(0.0)) for e in (cs.b, cs.sigma, cs.gamma))
    elif reference == "spde":
        u0 = grid_cdf(init, solver_config.x_min, solver_config.x_max, solver_config.cells)
    else:
        raise ValueError(f"unknown reference {reference!r}")

    def block(seeds):
        """errors[j, r] of (n_list[j], replica r) for the replicas of `seeds`."""
        paths = [sample_path(seed_r, STREAM_COMMON, T, steps) for seed_r in seeds.tolist()]
        # per replica, the reference CDF at each snapshot time
        if reference == "spde":
            refs = [sol.snapshots for sol in solve_paths(u0, cs, paths, solver_config, snapshot_times)]
        else:
            refs = [[analytic_constant_solution(init, b0, s0, g0, t, W.values[k], solver_config)
                     for t, k in zip(snapshot_times, snap_idx)] for W in paths]
        # per n, the replicas march in lock-step, each row on its replica's
        # common path
        errors = np.empty((len(n_list), seeds.size))
        for j, n in enumerate(n_list):
            traj = simulate(init.sample(n, seeds, STREAM_INIT), cs, T, steps,
                            make_noise_bundle(seeds, n, T, steps), snapshot_times=snapshot_times)
            for r in range(seeds.size):
                errors[j, r] = max(
                    l1_cdf_distance(ref, empirical_cdf(state.positions[r]))
                    for ref, state in zip(refs[r], traj.states)
                )
        return errors

    seeds = np.array([replica_seed(seed, r) for r in range(replicas)], dtype=np.uint64)
    errors = _fork_rows(block, seeds)

    rows = [(n, r, float(errors[j, r])) for j, n in enumerate(n_list) for r in range(replicas)]
    means = {n: float(np.mean(errors[j])) for j, n in enumerate(n_list)}
    stderrs = {n: float(np.std(errors[j], ddof=1) / np.sqrt(replicas)) if replicas > 1 else 0.0
               for j, n in enumerate(n_list)}
    ratios = [means[a] / means[b] for a, b in zip(n_list[:-1], n_list[1:])]
    return ExperimentReport(
        columns=("n", "replica", "error"),
        rows=tuple(rows),
        summary={"mean_error": means, "stderr": stderrs, "adjacent_ratios": ratios},
    )


# --- martingale statistic -------------------------------------------------

# phi and psi broadcast over leading axes: for v of shape (..., k), value(v)
# and psi(v, w) have shape (...), grad(v) (..., k) and hess(v) (..., k, k).

class PhiConst:
    """phi(v) = c: the compensated process is identically zero."""

    k = 1
    phi_id = "const"
    grad_bound = 0.0
    hess_bound = 0.0

    def __init__(self, c: float = 1.0):
        self.c = c

    def value(self, v):
        return np.full(v.shape[:-1], self.c)

    def grad(self, v):
        return np.zeros(v.shape)

    def hess(self, v):
        return np.zeros(v.shape + (1,))


class PhiLinear:
    """phi(v) = v_1."""

    k = 1
    phi_id = "linear"
    grad_bound = 1.0
    hess_bound = 0.0

    def value(self, v):
        return v[..., 0]

    def grad(self, v):
        return np.ones(v.shape)

    def hess(self, v):
        return np.zeros(v.shape + (1,))


class PhiSquare:
    """phi(v) = v_1^2 (bounded on the reachable box |v_1| <= sup|f~|)."""

    k = 1
    phi_id = "square"

    def __init__(self, v_bound: float = 1.0):
        self.grad_bound = 2.0 * v_bound
        self.hess_bound = 2.0

    def value(self, v):
        return v[..., 0] * v[..., 0]

    def grad(self, v):
        return 2.0 * v

    def hess(self, v):
        return np.full(v.shape + (1,), 2.0)


class PhiProduct:
    """phi(v) = v_1 v_2."""

    k = 2
    phi_id = "product"

    def __init__(self, v_bound: float = 1.0):
        self.grad_bound = 2.0 * v_bound
        self.hess_bound = 2.0

    def value(self, v):
        return v[..., 0] * v[..., 1]

    def grad(self, v):
        return v[..., ::-1]

    def hess(self, v):
        return np.broadcast_to([[0.0, 1.0], [1.0, 0.0]], v.shape + (2,))


class PhiTanh:
    """phi(v) = tanh(c v_1), smooth and globally bounded."""

    k = 1
    phi_id = "tanh"

    def __init__(self, c: float = 2.0):
        self.c = c
        self.grad_bound = c
        self.hess_bound = c * c * 4.0 / (3.0 * np.sqrt(3.0))  # sup |tanh''|

    def value(self, v):
        return np.tanh(self.c * v[..., 0])

    def grad(self, v):
        return self.c / np.cosh(self.c * v) ** 2

    def hess(self, v):
        return (-2.0 * self.c**2 * np.tanh(self.c * v) / np.cosh(self.c * v) ** 2)[..., None]


class PsiConst:
    psi_id = "const"

    def __call__(self, v_s, w_s):
        return np.ones(np.shape(w_s))


class PsiTanhPairing:
    """Bounded function of the pairing <F_s, f_1>."""

    psi_id = "tanh_pairing"

    def __init__(self, c: float = 3.0):
        self.c = c

    def __call__(self, v_s, w_s):
        return np.tanh(self.c * v_s[..., 0])


class PsiCosNoise:
    """Bounded function of the common noise at time s."""

    psi_id = "cos_noise"

    def __call__(self, v_s, w_s):
        return np.cos(w_s)


class PsiMixed:
    psi_id = "mixed"

    def __call__(self, v_s, w_s):
        return np.tanh(2.0 * v_s[..., 0]) * np.cos(w_s)


def bias_allowance(cs: CoefficientSet, f_list, phi, s: float, t: float) -> float:
    """Finite-n bias budget C for the martingale statistic (the acceptance
    allowance is C/n).  It covers the idiosyncratic Ito term
    (1/2n) sum_ij d_ij phi <nu, f_i f_j sigma^2> plus the rank-sum versus
    antiderivative discrepancies, all bounded through the exact symbolic
    derivatives of the coefficients; a factor 2 of headroom is included.
    The sups are the certified ones of `cs.report` and `cs.lipschitz`: a
    derivative unbounded on a piece of [0, 1] leaves no budget and raises
    ValidationError."""
    sup_sigma, sup_gamma = cs.report.sup_abs_sigma, cs.report.sup_abs_gamma
    lip_b, lip_gamma, lip_sigma = cs.lipschitz
    lip_s2g2 = 2.0 * (sup_sigma * lip_sigma + sup_gamma * lip_gamma)

    # the largest of each sampled norm over f_list (`Bump1D.norms`)
    f_sup, f1_l1, f2_l1 = (max(0.0, *col) for col in zip(*(f.norms for f in f_list)))

    k = phi.k
    dt_window = t - s
    ito_term = 0.5 * dt_window * phi.hess_bound * k * k * f_sup**2 * sup_sigma**2
    rank_drift = dt_window * phi.grad_bound * k * (
        f1_l1 * 0.5 * lip_b + 0.5 * f2_l1 * 0.5 * lip_s2g2
    )
    rank_qv = dt_window * phi.hess_bound * k * k * (
        f_sup * sup_gamma * f1_l1 * 0.5 * lip_gamma
    )
    return 2.0 * (ito_term + rank_drift + rank_qv)


def default_martingale_suite(f_center: float = 0.0, f_radius: float = 2.5):
    """Six (f, phi, psi) triples exercising linear and nonlinear phi with
    each built-in psi family."""
    f1 = Bump1D(f_center, f_radius)
    f2 = Bump1D(f_center + 0.5 * f_radius, f_radius)
    return [
        ([f1], PhiLinear(), PsiConst()),
        ([f1], PhiTanh(2.0), PsiConst()),
        ([f1, f2], PhiProduct(v_bound=1.0), PsiConst()),
        ([f1], PhiLinear(), PsiTanhPairing(3.0)),
        ([f1], PhiSquare(v_bound=1.0), PsiCosNoise()),
        ([f2], PhiTanh(2.0), PsiMixed()),
    ]


def martingale_statistic(
    cs: CoefficientSet,
    init: InitialDistribution,
    suite,
    s: float,
    t: float,
    n: int,
    replicas: int,
    steps: int,
    seed: int,
) -> ExperimentReport:
    """Monte Carlo estimates of E[(M_t - M_s) Psi], one per (f_list, phi,
    psi) triple of `suite`, where M compensates phi(<F_nu, f>) by the limit
    generator:

        M_t = phi(<F_t, f>) - phi(<F_0, f>)
              - sum_i int_0^t d_i phi (<B(F_r), f_i'> + <(Sigma+Gamma)(F_r), f_i''>) dr
              - 1/2 sum_ij int_0^t d_ij phi <G(F_r), f_i'> <G(F_r), f_j'> dr,

    with F_r the empirical CDF, the pairings evaluated exactly through the
    step structure of F_r, and the dr-integrals by trapezoid on the
    simulation grid.  The replicas are split into one contiguous block per
    usable CPU (`_fork_rows`).  The replicas of a block are simulated once,
    in lock-step on the noise of `make_noise_bundle`.  Each kept state is
    reduced per distinct bump to <F, f> and the three pairings over the
    block at once; phi, psi and the integrals then act on (replicas, kept
    states, k) blocks, so a triple's row does not depend on the rest of the
    suite.  Every replica's samples are computed on their own, so the report
    is the same bytes at any CPU count; the estimates are aggregated here.
    Rows and the per-row summary lists are in suite order.
    """
    if not t > 0.0:
        raise ValueError(f"t must be positive, got {t!r}")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps!r}")
    if replicas < 1:
        raise ValueError(f"replicas = {replicas} must be at least 1")
    for f_list, phi, _ in suite:
        if len(f_list) != phi.k:
            raise ValueError(f"phi expects {phi.k} test functions, got {len(f_list)}")
    T = t
    grid = np.linspace(0.0, T, steps + 1)
    # s is its node of the simulation grid from here on
    s_idx = int(grid_indices(grid, s, "s"))
    if s_idx == steps:
        raise ValueError(f"s = {s!r} is t's grid node; the increment M_t - M_s needs s before t")
    s = float(grid[s_idx])
    # the acceptance allowance, before any replica runs: it may reject cs
    allowances = [bias_allowance(cs, f_list, phi, s, t) for f_list, phi, _ in suite]
    # M_t - M_s reads only the states from s on
    kept = grid[s_idx:]
    bumps = {id(f): f for f_list, _, _ in suite for f in f_list}

    # pairing of g(F) against f' for a step CDF F with sorted atoms x_(l):
    # <g(F), f'> = f(x_(.)) @ -(g(l/n) - g((l-1)/n))
    levels = np.arange(n + 1) / n
    dB_lv, dD_lv, dG_lv = (-np.diff(g) for g in (
        cs.eval_transform("B", levels),
        cs.eval_transform("Sigma", levels) + cs.eval_transform("Gamma", levels),
        cs.eval_transform("G", levels)))

    def block(seeds):
        """The samples (M_t - M_s) Psi per (triple, replica) for the replicas
        of `seeds`.  They march in lock-step, one (R, n) block per step; each
        kept state is reduced per bump to <F, f>, <B(F), f'>,
        <(Sigma+Gamma)(F), f''> and <G(F), f'> as soon as it is produced.
        The pairings are row by row (einsum, not a BLAS gemv, which groups
        rows), so a replica's bits do not depend on the block it is in."""
        W, dB = make_noise_bundle(seeds, n, T, steps)
        start = ParticleState(0.0, init.sample(n, seeds, STREAM_INIT))
        states = itertools.chain([start], march(start, cs, grid, dB, np.diff(W).T))
        reduced = {key: np.empty((4, seeds.size, kept.size)) for key in bumps}
        for m, state in enumerate(itertools.islice(states, s_idx, None)):
            # the state's one sort, which the step from it reads again
            srt = state.sorted_positions()
            for key, f in bumps.items():
                fv, f1 = f.value_d1(srt)
                reduced[key][:, :, m] = (f.tail_integral(srt).mean(axis=1),
                                         np.einsum("rn,n->r", fv, dB_lv),
                                         np.einsum("rn,n->r", f1, dD_lv),
                                         np.einsum("rn,n->r", fv, dG_lv))

        integrand = np.empty((len(suite), seeds.size, kept.size))
        phi_diff = np.empty((len(suite), seeds.size))
        weight = np.empty((len(suite), seeds.size))
        for j, (f_list, phi, psi) in enumerate(suite):
            # each (replicas, kept, k)
            v, pair_b, pair_d, pair_g = np.stack([reduced[id(f)] for f in f_list], axis=-1)
            integrand[j] = (np.einsum("...i,...i", phi.grad(v), pair_b + pair_d)
                            + 0.5 * np.einsum("...i,...ij,...j", pair_g, phi.hess(v), pair_g))
            phi_diff[j] = phi.value(v[:, -1]) - phi.value(v[:, 0])
            weight[j] = psi(v[:, 0], W[:, s_idx])
        # the phi(v_0) terms cancel
        return (phi_diff - np.trapezoid(integrand, kept)) * weight

    seeds = np.array([replica_seed(seed, r) for r in range(replicas)], dtype=np.uint64)
    samples = _fork_rows(block, seeds)
    rows = []
    for (f_list, phi, psi), col in zip(suite, samples):
        estimate = float(col.mean())
        stderr = float(col.std(ddof=1) / np.sqrt(replicas)) if replicas > 1 else 0.0
        z = abs(estimate) / stderr if stderr > 0 else 0.0
        f_id = "+".join(f"bump({f.center:g},{f.radius:g})" for f in f_list)
        rows.append((f_id, phi.phi_id, psi.psi_id, estimate, stderr, z))
    return ExperimentReport(
        columns=("f_id", "phi_id", "psi_id", "estimate", "stderr", "z_score"),
        rows=tuple(rows),
        summary={"estimate": [r[3] for r in rows], "stderr": [r[4] for r in rows],
                 "z": [r[5] for r in rows],
                 "allowance_C": allowances},
    )


def stability_experiment(
    cs: CoefficientSet,
    u0: GridFunction,
    base_path: BrownianPath,
    epsilons,
    config: SolverConfig,
    snapshot_times=None,
) -> ExperimentReport:
    """Pathwise stability: solve with the base path and with base + eps t/T
    (a ramp keeps the sup-distance between signals exactly eps), and record
    D(eps) = max over snapshots of the L1 distance between the solutions.
    The base path and every perturbed path are solved in lock-step, one
    block of 1 + len(epsilons) rows of `solve_paths`.  The implied constant
    is D / (sqrt(eps) + eps)."""
    epsilons = [float(e) for e in epsilons]
    if any(e < 0 for e in epsilons) or sorted(epsilons) != epsilons:
        raise ValueError("epsilons must be nonnegative and increasing")
    T = base_path.T
    if snapshot_times is None:
        snapshot_times = [T]
    paths = [base_path] + [base_path.shifted(lambda tt, e=eps: e * tt / T) for eps in epsilons]
    base_sol, *sols = solve_paths(u0, cs, paths, config, snapshot_times)

    rows = []
    for eps, sol in zip(epsilons, sols):
        D = max(
            w1(a, b) for a, b in zip(base_sol.snapshots, sol.snapshots)
        )
        implied = D / (np.sqrt(eps) + eps) if eps > 0 else float("nan")
        rows.append((eps, D, implied))
    implied_cs = [r[2] for r in rows if np.isfinite(r[2])]
    return ExperimentReport(
        columns=("epsilon", "D", "implied_C"),
        rows=tuple(rows),
        summary={"implied_C_spread": (max(implied_cs) / min(implied_cs))
                 if implied_cs and min(implied_cs) > 0 else float("nan")},
    )
