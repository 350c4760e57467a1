"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  Tolerances and bands are
pinned; where a band is implementation-calibrated the calibration source is
the refinement studies recorded in the module tests.
"""

import contextlib
import hashlib
import io
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
import scipy
from scipy.special import ndtr

from conftest import assignment_oracle
from rankflow import experiments
from rankflow.cli import run as cli_run
from rankflow.coefficients import build_from_sources
from rankflow.diagnostics import (
    BumpTestFunction,
    chain_rule_residual,
    coarea_check,
    dissipation_measure,
    entropy_identity_residual,
)
from rankflow.diagnostics import _grid_sx
from rankflow.experiments import (
    bias_allowance,
    convergence_study,
    default_martingale_suite,
    martingale_statistic,
    stability_experiment,
)
from rankflow.measures import (
    GridFunction,
    empirical_cdf,
    gaussian,
    grid_cdf,
    point_mass,
    w1,
)
from rankflow.particles import ParticleState, rank_fractions
from rankflow.randomness import STREAM_COMMON, sample_path
from rankflow.solver import SolverConfig, analytic_constant_solution, solve, spde_step


def _report(num: int, name: str, ok: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {name}: {status} ({detail}; {elapsed:.1f}s of {budget:.0f}s budget)")
    assert ok, f"criterion {num} {name}: {detail}"
    assert elapsed < budget, f"criterion {num} exceeded its {budget:.0f}s budget ({elapsed:.1f}s)"


def test_criterion_1_constant_coefficient_oracle():
    t0 = time.time()
    cs = build_from_sources("1", "1", "0.5", 64)
    init = point_mass(0.0)
    W = sample_path(2024, STREAM_COMMON, 1.0, 384)
    ladder = (128, 256, 512, 1024)
    errs = {}
    for J in ladder:
        cfg = SolverConfig(-11.0, 12.0, J)
        u0 = grid_cdf(init, cfg.x_min, cfg.x_max, J)
        sol = solve(u0, cs, W, cfg, snapshot_times=[1.0])
        exact = analytic_constant_solution(init, 1.0, 1.0, 0.5, 1.0, W.values[-1], cfg)
        errs[J] = w1(sol.snapshots[-1], exact)
    ratio = errs[128] / errs[256]
    elapsed = time.time() - t0
    falling = all(errs[a] > errs[b] for a, b in zip(ladder[:-1], ladder[1:]))
    ok = falling and 1.5 <= ratio <= 2.6
    _report(1, "constant-coefficient oracle", ok,
            f"L1 errors {' -> '.join(f'{errs[J]:.4f}' for J in ladder)} falling at every step, "
            f"128 -> 256 ratio {ratio:.2f} in [1.5, 2.6]",
            elapsed, 10.0)


def test_criterion_2_heat_equation_oracle():
    t0 = time.time()
    cs = build_from_sources("0", "sqrt(2)", "0", 64, allow_degenerate=True)
    init = point_mass(0.0)
    W = sample_path(7, STREAM_COMMON, 1.0, 64)  # gamma = 0: noise is inert
    errs = {}
    for J in (128, 256, 512):
        cfg = SolverConfig(-9.0, 9.0, J)
        u0 = grid_cdf(init, cfg.x_min, cfg.x_max, J)
        sol = solve(u0, cs, W, cfg, snapshot_times=[1.0])
        exact = GridFunction(cfg.x_min, cfg.x_max, ndtr(cfg.centers() / np.sqrt(2.0)))
        errs[J] = w1(sol.snapshots[-1], exact)
    first_order = errs[128] / errs[256] >= 1.5 and errs[256] / errs[512] >= 1.5
    # bound calibrated by the refinement study in this repository
    # (observed 6.2e-5 at J=512; twice that as the frozen bound)
    calibrated_bound = 1.2e-4
    elapsed = time.time() - t0
    ok = first_order and errs[512] <= calibrated_bound
    _report(2, "heat-equation oracle", ok,
            f"errors {errs[128]:.2e}/{errs[256]:.2e}/{errs[512]:.2e}, "
            f"J=512 error <= {calibrated_bound:.1e}",
            elapsed, 10.0)


def test_criterion_3_coupled_hydrodynamic_convergence():
    t0 = time.time()
    # general coefficients: coupled error strictly decreasing in n
    cs = build_from_sources("a - 0.5", "1", "0.5*(1 + a)", 256)
    rep = convergence_study(
        cs, gaussian(0.0, 1.0), [128, 512, 2048], replicas=20,
        solver_config=SolverConfig(-11.0, 11.0, 256), snapshot_times=[0.125, 0.25],
        seed=101, T=0.25, steps=32, reference="spde",
    )
    m = rep.summary["mean_error"]
    decreasing = m[128] > m[512] > m[2048]
    # root-n: each 4x in n shrinks the mean error about twofold
    root_n = [m[128] / m[512], m[512] / m[2048]]
    root_n_ok = all(1.5 <= r <= 2.7 for r in root_n)

    # constant-coefficient variant against the analytic law: the error
    # ratio n = 100 -> 1600 follows Monte Carlo root-n scaling
    cs_const = build_from_sources("1", "1", "0.5", 64)
    rep_const = convergence_study(
        cs_const, point_mass(0.0), [100, 1600], replicas=20,
        solver_config=SolverConfig(-11.0, 12.0, 128), snapshot_times=[0.5, 1.0],
        seed=42, T=1.0, steps=128, reference="analytic",
    )
    mc = rep_const.summary["mean_error"]
    ratio = mc[100] / mc[1600]
    elapsed = time.time() - t0
    ok = decreasing and root_n_ok and 2.5 <= ratio <= 6.5
    _report(3, "coupled hydrodynamic convergence", ok,
            f"means {m[128]:.4f} > {m[512]:.4f} > {m[2048]:.4f}, "
            f"4x-n ratios {root_n[0]:.2f}, {root_n[1]:.2f} in [1.5, 2.7], "
            f"constant-coefficient ratio {ratio:.2f} in [2.5, 6.5]",
            elapsed, 300.0)


def test_criterion_4_martingale_problem_statistic():
    t0 = time.time()
    cs = build_from_sources("a - 0.5", "1", "0.5*(1 + a)", 256)
    init = gaussian(0.0, 1.0)
    n, replicas = 512, 400
    details = []
    ok = True
    suite = default_martingale_suite()
    rep = martingale_statistic(
        cs, init, suite, s=0.25, t=0.5, n=n, replicas=replicas, steps=128, seed=20240601,
    )
    for (f_list, phi, psi), est, se in zip(suite, rep.summary["estimate"], rep.summary["stderr"]):
        allowance = bias_allowance(cs, f_list, phi, 0.25, 0.5) / n
        passed = abs(est) <= 3.0 * se + allowance
        ok = ok and passed
        details.append(f"{phi.phi_id}/{psi.psi_id}: |{est:+.2e}| <= 3*{se:.2e}+{allowance:.1e}")
    elapsed = time.time() - t0
    _report(4, "martingale-problem statistic", ok, "; ".join(details), elapsed, 300.0)


def test_criterion_5_pathwise_stability():
    t0 = time.time()
    cs = build_from_sources("a - 0.5", "1", "0.5*(1 + a)", 64)
    cfg = SolverConfig(-18.0, 18.0, 128)
    u0 = grid_cdf(gaussian(0.0, 1.0), cfg.x_min, cfg.x_max, cfg.cells)
    W = sample_path(11, STREAM_COMMON, 1.0, 96)
    rep = stability_experiment(cs, u0, W, [0.0, 0.04, 0.16, 0.64], cfg,
                               snapshot_times=[0.5, 1.0])
    ds = [r[1] for r in rep.rows]
    spread = rep.summary["implied_C_spread"]
    elapsed = time.time() - t0
    ok = ds[0] == 0.0 and all(a <= b for a, b in zip(ds[:-1], ds[1:])) and spread <= 3.0
    _report(5, "pathwise stability", ok,
            f"D(0) = {ds[0]}, D nondecreasing {['%.3g' % d for d in ds]}, "
            f"implied-C spread {spread:.2f} <= 3",
            elapsed, 120.0)


def test_criterion_6_entropy_structure():
    t0 = time.time()
    tf = BumpTestFunction(eta=0.5, y=0.0, r_xi=0.3, r_x=1.5)
    # chain rule and co-area decay with slope >= 1 on an oracle run
    cs_gen = build_from_sources("a - 0.5", "1", "0.5*(1 + a)", 128)
    W = sample_path(5, STREAM_COMMON, 0.5, 64)
    cr, ca = {}, {}
    g_fn = lambda x, v: np.cos(x) + v**2
    for J in (128, 256):
        cfg = SolverConfig(-16.0, 16.0, J)
        u0 = grid_cdf(gaussian(0, 1), cfg.x_min, cfg.x_max, J)
        sol = solve(u0, cs_gen, W, cfg, snapshot_times=[0.5])
        u = sol.snapshots[-1]
        cr[J] = chain_rule_residual(u, cs_gen, [tf], 0.5, W.values[-1])[0]
        ca[J] = coarea_check(u, cs_gen, g_fn)
    cr_slope = math.log2(cr[128] / cr[256])
    ca_slope = math.log2(ca[128] / ca[256])

    # entropy identity residual decays under refinement (heat oracle)
    cs_heat = build_from_sources("0", "sqrt(2)", "0", 64, allow_degenerate=True)
    ent = {}
    for J, steps in ((128, 64), (256, 128)):
        cfg = SolverConfig(-9.0, 9.0, J)
        u0 = grid_cdf(point_mass(0.0), cfg.x_min, cfg.x_max, J)
        Wh = sample_path(3, STREAM_COMMON, 1.0, steps)
        sol = solve(u0, cs_heat, Wh, cfg)
        ent[J] = abs(entropy_identity_residual(sol, cs_heat, [tf], 0.25, 0.75)[0])
    ent_decays = ent[256] < ent[128]

    # dissipation measure: bookkeeping to 1e-10 and the closed-form heat
    # value sqrt(T / (2 pi)) to 5% at J = 256
    T = 1.0
    mids = (np.arange(128) + 0.5) * T / 128
    cfg = SolverConfig(-9.0, 9.0, 256)
    u0 = grid_cdf(point_mass(0.0), cfg.x_min, cfg.x_max, 256)
    Wh = sample_path(3, STREAM_COMMON, T, 64)
    sol = solve(u0, cs_heat, Wh, cfg, snapshot_times=mids)
    _, masses = dissipation_measure(sol, cs_heat)
    total = float(np.sum(masses))
    dt = float(sol.times[1] - sol.times[0])
    book = sum(
        0.5 * float(np.sum(_grid_sx(s.values, s.dx, cs_heat) ** 2)) * s.dx * dt for s in sol.snapshots
    )
    closed = np.sqrt(T / (2 * np.pi))
    book_ok = abs(total - book) <= 1e-10
    heat_ok = abs(total - closed) / closed <= 0.05
    nonneg = bool(np.all(masses >= 0.0))

    elapsed = time.time() - t0
    ok = cr_slope >= 1.0 and ca_slope >= 1.0 and ent_decays and book_ok and heat_ok and nonneg
    _report(6, "entropy structure", ok,
            f"chain-rule slope {cr_slope:.2f}, co-area slope {ca_slope:.2f}, "
            f"entropy residual {ent[128]:.1e} -> {ent[256]:.1e}, "
            f"dissipation bookkeeping {abs(total - book):.1e}, "
            f"heat total within {abs(total - closed) / closed * 100:.1f}%",
            elapsed, 120.0)


def test_criterion_7_exactness_suite():
    t0 = time.time()
    rng = np.random.default_rng(20240522)

    # w1 equals the assignment-enumeration oracle for all n <= 7
    w1_ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 8))
        xs, ys = rng.normal(size=n), rng.normal(size=n)
        got = w1(empirical_cdf(xs), empirical_cdf(ys))
        oracle = assignment_oracle(xs, ys)
        if abs(got - oracle) > 1e-12:
            w1_ok = False
            break

    # rank fractions equal the O(n^2) counting oracle
    pos = rng.normal(size=500)
    state = ParticleState(0.0, pos)
    rank_ok = np.array_equal(
        rank_fractions(state), np.array([np.sum(pos <= x) for x in pos]) / 500
    )

    # 1e4 fuzzed spde_step calls preserve monotonicity and range; there is
    # no noise CFL, so |dW| goes up to 20 sqrt(dt)
    cs = build_from_sources("a - 0.5", "1", "0.5*(1 + a)", 64)
    cfg = SolverConfig(-3.0, 3.0, 24)
    dx = cfg.dx
    sup_s2 = cs.report.sup_abs_sigma**2
    step_ok = True
    for _ in range(10_000):
        u_vals = np.clip(np.sort(rng.uniform(-0.2, 1.2, cfg.cells)), 0.0, 1.0)
        dt = float(rng.uniform(0.1, 1.0)) * 4.0 * dx**2 / sup_s2
        dw = float(rng.uniform(-20.0, 20.0)) * np.sqrt(dt)
        out = spde_step(GridFunction(cfg.x_min, cfg.x_max, u_vals, validate=False), cs, dt, dw)
        if (np.any(out.values < -1e-12) or np.any(out.values > 1 + 1e-12)
                or np.any(np.diff(out.values) < -1e-12)):
            step_ok = False
            break

    # Cauchy-Schwarz bound G(r)^2 <= 2 r Gamma(r) on 200 fuzzed sets
    cs_ok = True
    sample_r = rng.uniform(0, 1, 50)
    for _ in range(200):
        c1 = rng.uniform(0.05, 2.0, 3)
        c2 = rng.uniform(0.05, 2.0, 3)
        fuzz = build_from_sources(
            "0",
            f"{c1[0]:.6f} + {c1[1]:.6f}*a + {c1[2]:.6f}*a^2",
            f"{c2[0]:.6f} + {c2[1]:.6f}*a + {c2[2]:.6f}*a^2",
            16,
        )
        g = fuzz.eval_transform("G", sample_r)
        gam = fuzz.eval_transform("Gamma", sample_r)
        if not np.all(g**2 <= 2 * sample_r * gam + 1e-12):
            cs_ok = False
            break

    elapsed = time.time() - t0
    ok = w1_ok and rank_ok and step_ok and cs_ok
    _report(7, "exactness suite", ok,
            f"w1 oracle {w1_ok}, ranks {rank_ok}, 1e4 monotone steps {step_ok}, "
            f"Cauchy-Schwarz {cs_ok}",
            elapsed, 60.0)


_DETERMINISM_CONFIGS = {
    "solve": """\
b = "0"
sigma = "sqrt(2)"
gamma = "0"
allow_degenerate = true
table_resolution = 64
seed = 20240510
T = 1.0
steps = 32
x_min = -9.0
x_max = 9.0
cells = 96
init = "point_mass(0)"
snapshot_times = [0.5, 1.0]
""",
    "simulate": """\
b = "a - 0.5"
sigma = "1"
gamma = "0.5"
table_resolution = 32
seed = 11
T = 0.5
steps = 32
n = 16
init = "gaussian(0,1)"
""",
    "converge": """\
b = "1"
sigma = "1"
gamma = "0.5"
table_resolution = 32
seed = 5
T = 0.5
steps = 32
n_list = [16, 64]
replicas = 6
reference = "analytic"
x_min = -9.0
x_max = 9.0
cells = 64
init = "point_mass(0)"
snapshot_times = [0.5]
""",
    "martingale": """\
b = "a - 0.5"
sigma = "1"
gamma = "0.5*(1 + a)"
table_resolution = 64
seed = 3
s = 0.25
t = 0.5
steps = 32
n = 32
replicas = 8
init = "gaussian(0,1)"
""",
    "stability": """\
b = "0"
sigma = "1"
gamma = "0.5"
table_resolution = 32
seed = 8
T = 0.5
steps = 24
x_min = -10.0
x_max = 10.0
cells = 48
init = "point_mass(0)"
epsilons = [0.0, 0.1, 0.4]
""",
    "diagnose": """\
b = "0"
sigma = "sqrt(2)"
gamma = "0"
allow_degenerate = true
table_resolution = 32
seed = 6
T = 0.5
steps = 16
x_min = -7.0
x_max = 7.0
cells = 64
init = "point_mass(0)"
s = 0.25
t = 0.5
eta_list = [0.5]
y_list = [0.0]
""",
    # rank-dependent b and gamma: h = b dt + gamma dW changes sign inside
    # (0, 1) on several noise increments of this seed, so within one step
    # some levels move left and others right, and the initial CDF is smooth
    # on the mesh
    "solve_sign_change": """\
b = "a - 0.5"
sigma = "1"
gamma = "0.5*(1 + a)"
table_resolution = 64
seed = 12
T = 0.25
steps = 16
x_min = -14.0
x_max = 14.0
cells = 64
init = "gaussian(0,1)"
snapshot_times = [0.125, 0.25]
""",
    # gamma != 0 on the non-dyadic grid k/20 with the off-grid snapshot
    # time 0.13: the solver inserts it with refine_path, so the bridge
    # value it draws reaches the CSVs
    "solve_bisect": """\
b = "a - 0.5"
sigma = "1"
gamma = "0.5*(1 + a)"
table_resolution = 32
seed = 8
T = 0.3
steps = 6
x_min = -14.0
x_max = 14.0
cells = 96
init = "gaussian(0,1)"
snapshot_times = [0.13, 0.3]
""",
    # rank-dependent b and gamma with a family of four test functions: the
    # shift b(xi) r + gamma(xi) w_r and every test-function centre reach
    # the entropy, chain-rule and co-area residuals, which the heat config
    # above (b = gamma = 0, one test function) leaves unguarded
    "diagnose_general": """\
b = "a - 0.5"
sigma = "1"
gamma = "0.5*(1 + a)"
table_resolution = 32
seed = 9
T = 0.5
steps = 16
x_min = -16.0
x_max = 16.0
cells = 96
init = "gaussian(0,1)"
s = 0.25
t = 0.5
r_xi = 0.25
r_x = 1.0
eta_list = [0.3, 0.7]
y_list = [-0.5, 0.5]
""",
    # rank-dependent b and gamma against the mesh solution at two snapshot
    # times: the rank ordering of the particles and the max over snapshots
    # reach the errors, which the analytic config above (constant
    # coefficients, one snapshot) leaves unguarded
    "converge_spde": """\
b = "a - 0.5"
sigma = "1"
gamma = "0.5*(1 + a)"
table_resolution = 64
seed = 17
T = 0.25
steps = 16
n_list = [16, 64]
replicas = 3
reference = "spde"
x_min = -11.0
x_max = 11.0
cells = 64
init = "gaussian(0,1)"
snapshot_times = [0.125, 0.25]
""",
}

# determinism configs whose name is not the command they run
_CONFIG_COMMANDS = {"solve_sign_change": "solve", "solve_bisect": "solve",
                    "diagnose_general": "diagnose", "converge_spde": "converge"}


def _run_config(out_root, name: str, cfg_text: str, label: str) -> Path:
    """Run one determinism config through the CLI; return its output directory."""
    command = _CONFIG_COMMANDS.get(name, name)
    cfg_path = out_root / f"{name}.cfg"
    cfg_path.write_text(cfg_text)
    out = out_root / f"{name}_{label}"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_run([command, "--config", str(cfg_path), "--out", str(out)])
    assert code == 0, f"{name} ({command}) exited {code}"
    return out


def test_criterion_8_determinism(tmp_path, monkeypatch):
    """Each config is run twice, on one usable CPU and on two, so the
    second run also splits the forked row blocks (`experiments._fork_rows`)
    on any host, a one-CPU one included."""
    t0 = time.time()
    ok = True
    details = []
    for name, cfg_text in _DETERMINISM_CONFIGS.items():
        digests = []
        for label, cpus in (("a", 1), ("b", 2)):
            monkeypatch.setattr(experiments, "_usable_cpus", lambda cpus=cpus: cpus)
            out = _run_config(tmp_path, name, cfg_text, label)
            blob = b"".join(
                p.read_bytes() for p in sorted(out.glob("*.csv"))
            )
            digests.append(blob)
        same = digests[0] == digests[1]
        ok = ok and same
        details.append(f"{name}: {'byte-identical' if same else 'MISMATCH'}")
    elapsed = time.time() - t0
    _report(8, "determinism across reruns", ok,
            "; ".join(details), elapsed, 180.0)


_GOLDEN = Path(__file__).parent / "golden" / "digests.json"


def _library_versions() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def _csv_digests(out_root) -> dict:
    """SHA-256 of every CSV the determinism configs write, keyed config name/file."""
    digests = {}
    for name, cfg_text in _DETERMINISM_CONFIGS.items():
        out = _run_config(out_root, name, cfg_text, "golden")
        for p in sorted(out.glob("*.csv")):
            digests[f"{name}/{p.name}"] = hashlib.sha256(p.read_bytes()).hexdigest()
    return digests


def test_golden_digests(tmp_path):
    """The determinism configs write the CSV bytes recorded in
    tests/golden/digests.json.  rankflow computes on numpy alone, so the
    check runs only under the numpy version the bytes were recorded with;
    the scipy version recorded beside it pins only the quad check of
    BUMP_L1 in test_bumps.py.  A change that alters output numbers on
    purpose regenerates the file with
    `PYTHONPATH=src python tests/test_acceptance.py` and says why."""
    golden = json.loads(_GOLDEN.read_text())
    if golden["versions"]["numpy"] != np.__version__:
        pytest.skip(f"digests recorded with numpy {golden['versions']['numpy']}, "
                    f"running {np.__version__}")
    assert _csv_digests(tmp_path) == golden["digests"]


if __name__ == "__main__":
    import tempfile

    old = json.loads(_GOLDEN.read_text()) if _GOLDEN.exists() else {"versions": None, "digests": {}}
    with tempfile.TemporaryDirectory() as d:
        payload = {"versions": _library_versions(), "digests": _csv_digests(Path(d))}
    if old["versions"] != payload["versions"]:
        print(f"versions: {old['versions']} -> {payload['versions']}")
    # every key that changed, appeared or disappeared, with its old and new value
    for key in sorted(old["digests"].keys() | payload["digests"].keys()):
        before, after = old["digests"].get(key), payload["digests"].get(key)
        if before != after:
            print(f"changed {key}: {before} -> {after}")
    _GOLDEN.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(payload['digests'])} digests to {_GOLDEN}")
