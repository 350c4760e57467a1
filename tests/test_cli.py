"""CLI behavior: exit codes, error messages, output schemas, determinism."""

import ast
import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rankflow.cli import _coefficients, run
from rankflow.config import MAX_COUNT, ConfigError, parse_config, parse_init
from rankflow.experiments import default_martingale_suite
from rankflow.measures import InitialDistribution

HEAT_CFG = """\
# pure heat equation oracle
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
"""

DIAG_CFG = (
    'b = "0"\nsigma = "sqrt(2)"\ngamma = "0"\nallow_degenerate = true\n'
    'table_resolution = 32\nseed = 6\nT = 0.5\nsteps = 16\n'
    'x_min = -7.0\nx_max = 7.0\ncells = 64\ninit = "point_mass(0)"\n'
    's = 0.25\nt = 0.5\neta_list = [0.5]\ny_list = [0.0]\n'
)

_PARTICLE_COMMON = 'b = "a - 0.5"\nsigma = "1"\ngamma = "0.5*(1 + a)"\ntable_resolution = 32\n'
PARTICLE_CFGS = {
    "converge": _PARTICLE_COMMON + (
        'seed = 4\nT = 0.25\nsteps = 8\nn_list = [8, 16]\nreplicas = 2\nreference = "spde"\n'
        'x_min = -11.0\nx_max = 11.0\ncells = 32\ninit = "gaussian(0,1)"\n'
        'snapshot_times = [0.125, 0.25]\n'),
    "simulate": _PARTICLE_COMMON + 'seed = 4\nT = 0.5\nsteps = 16\nn = 8\ninit = "gaussian(0,1)"\n',
    "martingale": _PARTICLE_COMMON + (
        'seed = 3\ns = 0.25\nt = 0.5\nsteps = 8\nn = 16\nreplicas = 3\ninit = "gaussian(0, 1)"\n'),
}

# constant coefficients, so that either reference applies
CONVERGE_CONST_CFG = (
    'b = "0.3"\nsigma = "1"\ngamma = "0.5"\ntable_resolution = 32\nseed = 4\nT = 0.25\n'
    'steps = 8\nn_list = [8, 16]\nreplicas = 2\nx_min = -11.0\nx_max = 11.0\ncells = 32\n'
    'init = "gaussian(0,1)"\n')

GOLDEN = Path(__file__).parent / "golden" / "digests.json"
SAMPLE_CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.cfg"))


@pytest.fixture()
def heat_cfg(tmp_path):
    path = tmp_path / "heat.cfg"
    path.write_text(HEAT_CFG)
    return path


class TestConfigParsing:
    def test_values(self):
        cfg = parse_config('a = 1\nb = 2.5\nc = "text"\nd = [1, 2]\ne = true\n')
        assert cfg.integer("a") == 1
        assert cfg.num("b") == 2.5
        assert cfg.text("c") == "text"
        assert cfg.int_list("d") == [1, 2]
        assert cfg.flag("e") is True

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# header\n\nx = 3  # trailing\n")
        assert cfg.integer("x") == 3

    def test_error_carries_line_number(self):
        with pytest.raises(ConfigError) as err:
            parse_config("x = 1\ny 2\n")
        assert err.value.line == 2

    def test_duplicate_key(self):
        with pytest.raises(ConfigError) as err:
            parse_config("x = 1\nx = 2\n")
        assert err.value.line == 2

    def test_missing_key_names_it(self):
        cfg = parse_config("x = 1\n")
        with pytest.raises(ConfigError, match="seed"):
            cfg.integer("seed")

    def test_non_finite_numbers_rejected_naming_the_key(self):
        """A literal beyond the float range reads as inf, which no key takes."""
        cfg = parse_config("x = 1e400\nxs = [0.5, -1e999]\nok = [0.5, 2]\n")
        with pytest.raises(ConfigError, match=r"key 'x' must be finite, got inf"):
            cfg.num("x")
        with pytest.raises(ConfigError, match=r"key 'xs' must be finite, got -inf"):
            cfg.num_list("xs")
        assert cfg.num_list("ok") == [0.5, 2.0]


class TestParseInit:
    def test_kinds(self):
        for spec, kind in [
            ("point_mass(0.5)", "point_mass"),
            ("uniform(-1, 2)", "uniform"),
            ("gaussian(0, 1)", "gaussian"),
            ("mixture(0.3 gaussian(0,1), 0.7 uniform(-1,2))", "mixture"),
        ]:
            d = parse_init(spec)
            assert isinstance(d, InitialDistribution)
            assert d.kind == kind

    def test_bad_spec(self):
        with pytest.raises(ConfigError):
            parse_init("lognormal(0,1)")
        with pytest.raises(ConfigError):
            parse_init("gaussian(0 1)")

    @pytest.mark.parametrize("spec", ["gaussian(0, nan)", "gaussian(0, inf)", "uniform(0, infinity)",
                                      "point_mass(1e400)", "mixture(nan gaussian(0,1))",
                                      "mixture(0.5 gaussian(0,1), 0.5 gaussian(NaN, 1))"])
    def test_non_finite_numbers_rejected(self, spec):
        """float() reads nan, inf and infinity; the spec takes only finite
        numeric literals."""
        with pytest.raises(ConfigError, match="expected a finite number"):
            parse_init(spec)


@pytest.mark.parametrize("path", SAMPLE_CONFIGS, ids=lambda p: p.name)
def test_sample_config_parses_validates_and_reads_its_init(path):
    """Each sample config parses, its coefficient set builds through the
    certified validation, as the CLI builds it, and its init parses."""
    cfg = parse_config(path.read_text())
    cs = _coefficients(cfg)
    assert cs.report.sup_abs_sigma > 0.0
    assert isinstance(parse_init(cfg.text("init")), InitialDistribution)


def test_sample_configs_found():
    assert {p.name for p in SAMPLE_CONFIGS} >= {"converge.cfg", "diagnose.cfg", "heat.cfg",
                                                 "martingale.cfg", "stability.cfg"}


class TestRun:
    def test_solve_happy_path(self, heat_cfg, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["solve", "--config", str(heat_cfg), "--out", str(out)]) == 0
        snapshots = (out / "snapshots.csv").read_text().splitlines()
        assert snapshots[0] == "t,x,u"
        assert (out / "path.csv").read_text().splitlines()[0] == "t,w"
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(manifest) == ["command", "config_sha256", "outputs", "seed"]
        assert manifest["command"] == "solve"
        assert manifest["seed"] == 20240510
        assert capsys.readouterr().out.startswith("solve:")

    def test_degenerate_warning_on_stderr(self, heat_cfg, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["solve", "--config", str(heat_cfg), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "warning: gamma is not strictly positive" in captured.err
        assert "not strictly positive" not in captured.out
        # HEAT_CFG runs the solve determinism config, whose CSV digests were
        # recorded before warnings were printed
        golden = json.loads(GOLDEN.read_text())
        if golden["versions"]["numpy"] != np.__version__:
            pytest.skip(f"digests recorded with numpy {golden['versions']['numpy']}")
        for name in ("path.csv", "snapshots.csv"):
            digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
            assert digest == golden["digests"][f"solve/{name}"]

    def test_missing_seed_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(HEAT_CFG.replace("seed = 20240510\n", ""))
        code = run(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "seed" in capsys.readouterr().err

    def test_config_syntax_error_exit_2_with_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("b = \"0\"\nnot a config line\n")
        code = run(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    def test_bad_expression_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(HEAT_CFG.replace('sigma = "sqrt(2)"', 'sigma = "sqrt(2"'))
        assert run(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("old, new, message", [
        ("x_max = 9.0", "x_max = 1e400", "key 'x_max' must be finite, got inf"),
        ("snapshot_times = [0.5, 1.0]", "snapshot_times = [0.5, 1e999]",
         "key 'snapshot_times' must be finite, got inf"),
        ('init = "point_mass(0)"', 'init = "gaussian(0, nan)"', "expected a finite number"),
        ('b = "0"', 'b = "0.1/(a - 0.30078125)"',
         "coefficient b = '0.1/(a - 0.30078125)' is not bounded on piece 307 of 1024"),
        ("x_max = 9.0", "x_max = 1" + "0" * 400, "key 'x_max' must be finite, got an integer beyond"),
        ("x_max = 9.0", "x_max = 1" + "0" * 5000, "line 11: integer literal of 5001 characters is too long"),
    ], ids=["x_max_inf", "snapshot_inf", "init_nan", "b_pole", "x_max_int_overflow", "x_max_int_digits"])
    def test_non_finite_input_exit_2(self, tmp_path, capsys, old, new, message):
        """A non-finite number in the config, or a coefficient unbounded on
        a piece of [0, 1], is a config error: exit 2 and no CSV."""
        cfg = tmp_path / "bad.cfg"
        assert old in HEAT_CFG
        cfg.write_text(HEAT_CFG.replace(old, new))
        out = tmp_path / "o"
        assert run(["solve", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and message in err
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize("command, key", [
        ("solve", "steps"), ("solve", "cells"), ("solve", "table_resolution"),
        ("simulate", "n"), ("converge", "replicas"), ("converge", "n_list"), ("martingale", "n"),
    ])
    def test_count_above_its_bound_exit_2(self, tmp_path, capsys, command, key):
        """An integer key that sizes arrays is at most MAX_COUNT: one above
        it, or 10**30, is a config error naming the key, and MAX_COUNT
        itself passes the config reader."""
        cfg_text = HEAT_CFG if command == "solve" else PARTICLE_CFGS[command]
        old = next(ln for ln in cfg_text.splitlines() if ln.startswith(f"{key} = "))
        for value in (MAX_COUNT + 1, 10**30):
            new = f"{key} = [8, {value}]" if key == "n_list" else f"{key} = {value}"
            cfg = tmp_path / "big.cfg"
            cfg.write_text(cfg_text.replace(old, new))
            out = tmp_path / "o"
            assert run([command, "--config", str(cfg), "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert f"config error: key {key!r} = {value} exceeds the largest count {MAX_COUNT}" in err
            assert not list(out.glob("*.csv"))
        assert parse_config(f"{key} = {MAX_COUNT}").count(key) == MAX_COUNT

    def test_seed_keeps_its_64_bit_range(self, tmp_path):
        cfg = tmp_path / "seed.cfg"
        cfg.write_text(HEAT_CFG.replace("seed = 20240510", f"seed = {2**64 - 1}"))
        assert run(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0

    def test_invalid_init_law_exit_2(self, tmp_path, capsys):
        """A spec that parses but names no law is a config error, not a
        runtime error."""
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(HEAT_CFG.replace('init = "point_mass(0)"', 'init = "uniform(2, 1)"'))
        out = tmp_path / "o"
        assert run(["solve", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "uniform(a, b) needs a < b" in err
        assert not list(out.glob("*.csv"))

    def test_degenerate_without_flag_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(HEAT_CFG.replace("allow_degenerate = true\n", ""))
        assert run(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_no_partial_outputs_on_config_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(HEAT_CFG.replace("T = 1.0\n", ""))  # missing T
        out = tmp_path / "o"
        assert run(["solve", "--config", str(cfg), "--out", str(out)]) == 2
        assert not list(out.glob("*.csv")) if out.exists() else True

    def test_missing_config_file(self, tmp_path, capsys):
        assert run(["solve", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_unknown_command_exit_2(self):
        assert run(["frobnicate", "--config", "x"]) == 2

    def test_threads_flag_rejected(self, heat_cfg, tmp_path, capsys):
        out = tmp_path / "o"
        assert run(["solve", "--config", str(heat_cfg), "--out", str(out), "--threads", "2"]) == 2
        assert "--threads" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_override(self, heat_cfg, tmp_path, capsys):
        out = tmp_path / "o"
        run(["solve", "--config", str(heat_cfg), "--out", str(out), "--seed", "7"])
        assert json.loads((out / "manifest.json").read_text())["seed"] == 7
        # the overridden seed key is not reported as unused
        assert "unused config key" not in capsys.readouterr().err

    def test_unused_keys_warn_on_stderr(self, tmp_path, capsys):
        """A retired key and a misspelt one run with exit 0; each is named in
        a warning on stderr, and the CSVs are those of the config without them."""
        cfg = tmp_path / "heat.cfg"
        cfg.write_text(HEAT_CFG + "max_substeps = 100\ncfl_targte = 0.5\n")
        out = tmp_path / "o"
        assert run(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "warning: unused config key 'max_substeps'" in captured.err
        assert "warning: unused config key 'cfl_targte'" in captured.err
        assert captured.err.count("unused config key") == 2
        assert "config key" not in captured.out
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(manifest) == ["command", "config_sha256", "outputs", "seed"]
        golden = json.loads(GOLDEN.read_text())
        if golden["versions"]["numpy"] != np.__version__:
            pytest.skip(f"digests recorded with numpy {golden['versions']['numpy']}")
        for name in ("path.csv", "snapshots.csv"):
            digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
            assert digest == golden["digests"][f"solve/{name}"]

    def test_simulate_schema(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(
            'b = "0"\nsigma = "1"\ngamma = "0.5"\ntable_resolution = 32\n'
            'seed = 4\nT = 0.5\nsteps = 16\nn = 8\ninit = "gaussian(0,1)"\n'
        )
        out = tmp_path / "o"
        assert run(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "particles.csv").read_text().splitlines()
        assert lines[0] == "t,particle_index,x"
        assert len(lines) == 1 + 2 * 8  # snapshots at 0 and T
        assert (out / "cdf.csv").read_text().splitlines()[0] == "x,F"

    def test_rerun_byte_identical(self, heat_cfg, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run(["solve", "--config", str(heat_cfg), "--out", str(out)]) == 0
            outs.append((out / "snapshots.csv").read_bytes())
        assert outs[0] == outs[1]


class TestDiagnoseAndStability:
    def test_diagnose_schema(self, tmp_path):
        cfg = tmp_path / "diag.cfg"
        cfg.write_text(DIAG_CFG)
        out = tmp_path / "o"
        assert run(["diagnose", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "diagnostics.csv").read_text().splitlines()
        assert lines[0] == "diagnostic,eta,y,s,t,residual,resolution"
        kinds = {ln.split(",")[0] for ln in lines[1:]}
        assert kinds == {"chain_rule", "coarea", "entropy_identity", "weak_form"}

    @pytest.mark.parametrize("values, message", [
        ({"r_xi": "0.01"}, "r_xi"),
        ({"r_xi": "1e999"}, "key 'r_xi' must be finite, got inf"),
        ({"r_x": "0.0"}, "r_x"),
        ({"r_x": "1e999"}, "key 'r_x' must be finite, got inf"),
        ({"r_x": "20.0"}, "support"),
        ({"y_list": "[0.0, 6.5]"}, "support"),
        ({"s": "0.5", "t": "0.25"}, "0 <= s < t <= T"),
        ({"t": "0.75"}, "0 <= s < t <= T"),
        ({"t": "0.37"}, "t = 0.37 is not a grid time"),
        ({"s": "0.1"}, "s = 0.1 is not a grid time"),
        ({"s": "0.250000002"}, "s = 0.250000002 is not a grid time"),
    ], ids=["r_xi", "r_xi_inf", "r_x", "r_x_inf", "r_x_support", "y_support", "s_after_t", "t_after_T",
            "t_off_grid", "s_off_grid", "s_beyond_grid_tolerance"])
    def test_diagnose_bad_parameters_exit_2_before_solve(self, tmp_path, capsys, monkeypatch,
                                                         values, message):
        """Bump scales, weak-form supports and the window [s, t] are checked
        before the solve: exit 2 and no CSV."""
        kept = [ln for ln in DIAG_CFG.splitlines() if ln.split(" = ")[0] not in values]
        cfg = tmp_path / "diag.cfg"
        cfg.write_text("\n".join(kept + [f"{k} = {v}" for k, v in values.items()]) + "\n")

        def no_solve(*args, **kwargs):
            raise AssertionError("solve ran")

        monkeypatch.setattr("rankflow.cli.solve", no_solve)
        out = tmp_path / "o"
        assert run(["diagnose", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and message in err
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize("command, values, message", [
        ("converge", {"replicas": "0"}, "replicas = 0"),
        ("converge", {"n_list": "[0, 16]"}, "particle counts [0, 16]"),
        ("converge", {"n_list": "[16, 16]"}, "particle counts [16, 16]"),
        ("converge", {"snapshot_times": "[0.13, 0.25]"}, "snapshot time = 0.13 is not a grid time"),
        ("converge", {"snapshot_times": "[0.25, 0.125]"}, "snapshot times must be increasing and distinct"),
        ("simulate", {"n": "0"}, "particle counts [0]"),
        ("simulate", {"snapshot_times": "[0.1]"}, "snapshot time = 0.1 is not a grid time"),
        ("martingale", {"n": "0"}, "particle counts [0]"),
        ("martingale", {"replicas": "0"}, "replicas = 0"),
        ("martingale", {"s": "0.3"}, "s = 0.3 is not a grid time"),
        ("martingale", {"s": "0.5"}, "s = 0.5 is the grid node of the horizon 0.5"),
        ("martingale", {"s": "0.4999999995"}, "s = 0.4999999995 is the grid node of the horizon 0.5"),
        ("martingale", {"f_radius": "1e999"}, "key 'f_radius' must be finite, got inf"),
        ("simulate", {"T": "-0.5"}, "the time horizon -0.5 must be positive"),
        ("martingale", {"t": "-0.5"}, "the time horizon -0.5 must be positive"),
        # b is bounded, but its transform B overflows: no CSV of NaN estimates
        ("martingale", {"b": '"1e308"'}, "transform B of b = '1e308'"),
    ], ids=["converge_replicas", "converge_n_zero", "converge_n_repeated", "converge_off_grid",
            "converge_unordered", "simulate_n_zero", "simulate_off_grid", "martingale_n_zero",
            "martingale_replicas", "martingale_s_off_grid", "martingale_s_at_t", "martingale_s_near_t",
            "martingale_radius_inf", "simulate_negative_T",
            "martingale_negative_t", "martingale_transform_overflow"])
    def test_particle_bad_inputs_exit_2_before_work(self, tmp_path, capsys, monkeypatch,
                                                    command, values, message):
        """Particle counts, replica counts, snapshot times and the
        coefficient transforms are checked before any solve or particle
        run: exit 2 and no CSV."""
        kept = [ln for ln in PARTICLE_CFGS[command].splitlines() if ln.split(" = ")[0] not in values]
        cfg = tmp_path / f"{command}.cfg"
        cfg.write_text("\n".join(kept + [f"{k} = {v}" for k, v in values.items()]) + "\n")

        def no_work(*args, **kwargs):
            raise AssertionError("work started")

        for name in ("rankflow.cli.solve", "rankflow.cli.run_particles", "rankflow.experiments.solve",
                     "rankflow.experiments.simulate", "rankflow.experiments.march"):
            monkeypatch.setattr(name, no_work)
        out = tmp_path / "o"
        assert run([command, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and message in err
        assert not list(out.glob("*.csv"))

    def test_diagnose_window_within_grid_tolerance_runs(self, tmp_path):
        # t = 0.4375 + 5e-10 is 14 T/16 within the 1e-9 that the check allows
        cfg = tmp_path / "diag.cfg"
        cfg.write_text(DIAG_CFG.replace("t = 0.5\n", "t = 0.4375000005\n"))
        out = tmp_path / "o"
        assert run(["diagnose", "--config", str(cfg), "--out", str(out)]) == 0
        assert len((out / "diagnostics.csv").read_text().splitlines()) == 5

    @pytest.mark.parametrize("key, node, near", [("s", "0.25", "0.2500000005"),
                                                  ("t", "0.5", "0.4999999995")])
    def test_diagnose_window_near_a_node_is_that_node(self, tmp_path, key, node, near):
        """s or t within the on-grid tolerance of a noise node runs (exit 0)
        with the residuals of the run at the node, bit for bit."""
        residuals = []
        for v in (node, near):
            cfg = tmp_path / f"diag_{v}.cfg"
            cfg.write_text(DIAG_CFG.replace(f"\n{key} = {node}\n", f"\n{key} = {v}\n"))
            out = tmp_path / v
            assert run(["diagnose", "--config", str(cfg), "--out", str(out)]) == 0
            with open(out / "diagnostics.csv", newline="") as fh:
                residuals.append([row["residual"] for row in csv.DictReader(fh)])
        assert len(residuals[0]) == 4 and residuals[1] == residuals[0]

    @pytest.mark.parametrize("reference", ["analytic", "spde"])
    def test_converge_snapshot_near_a_node_is_that_node(self, tmp_path, reference):
        """A snapshot time within the on-grid tolerance of a step node gives
        the bytes of the run at the node, for both references."""
        outs = []
        for first in ("0.125", "0.1250000005"):
            cfg = tmp_path / f"conv_{first}.cfg"
            cfg.write_text(CONVERGE_CONST_CFG + f'reference = "{reference}"\n'
                           f"snapshot_times = [{first}, 0.25]\n")
            out = tmp_path / first
            assert run(["converge", "--config", str(cfg), "--out", str(out)]) == 0
            outs.append((out / "convergence.csv").read_bytes())
        assert outs[1] == outs[0]

    def test_stability_schema(self, tmp_path):
        cfg = tmp_path / "stab.cfg"
        cfg.write_text(
            'b = "0"\nsigma = "1"\ngamma = "0.5"\ntable_resolution = 32\n'
            'seed = 8\nT = 0.5\nsteps = 24\nx_min = -10.0\nx_max = 10.0\ncells = 48\n'
            'init = "point_mass(0)"\nepsilons = [0.0, 0.1, 0.4]\n'
        )
        out = tmp_path / "o"
        assert run(["stability", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "stability.csv").read_text().splitlines()
        assert lines[0] == "epsilon,D,implied_C"
        assert len(lines) == 4

    def test_martingale_csv_reads_with_a_standard_reader(self, tmp_path):
        # f_id contains commas, so it must be quoted
        cfg = tmp_path / "mart.cfg"
        cfg.write_text(
            'b = "a - 0.5"\nsigma = "1"\ngamma = "0.5*(1 + a)"\ntable_resolution = 32\n'
            'seed = 3\ns = 0.25\nt = 0.5\nsteps = 8\nn = 16\nreplicas = 3\n'
            'init = "gaussian(0, 1)"\n'
        )
        out = tmp_path / "o"
        assert run(["martingale", "--config", str(cfg), "--out", str(out)]) == 0
        with open(out / "martingale.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        suite = default_martingale_suite()
        assert len(rows) == len(suite)
        for row, (f_list, phi, psi) in zip(rows, suite):
            assert None not in row and len(row) == 6
            assert row["f_id"] == "+".join(f"bump({f.center:g},{f.radius:g})" for f in f_list)
            assert (row["phi_id"], row["psi_id"]) == (phi.phi_id, psi.psi_id)
            float(row["z_score"])
        assert rows[2]["f_id"] == "bump(0,2.5)+bump(1.25,2.5)"


def _after_cli_import(expression: str):
    """The value of `expression` after `import rankflow.cli` in a fresh
    interpreter, read back from its repr."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = f"import sys, rankflow.cli; print(repr({expression}))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return ast.literal_eval(out.stdout.strip())


def _modules_after_cli_import(package: str) -> list:
    """The modules of `package` that `import rankflow.cli` loads in a fresh
    interpreter."""
    return _after_cli_import(f"[m for m in sys.modules if m == {package!r} or m.startswith({package + '.'!r})]")


def test_cli_import_leaves_heavy_scipy_modules_unloaded():
    # rankflow needs only numpy at run time: importing scipy.special alone
    # costs about 0.2 s and 20 MB at start-up, and scipy.integrate,
    # scipy.sparse, scipy.linalg and scipy.stats more
    assert _modules_after_cli_import("scipy") == []


def test_cli_import_leaves_numpy_random_unloaded():
    # numpy.random is loaded by the first draw, not at import: loading it
    # adds about 2 MB of RSS and about 15 ms, which every command would
    # otherwise pay before its config is read
    assert _modules_after_cli_import("numpy.random") == []


def test_cli_import_leaves_the_xi_rule_uncomputed():
    # leggauss(256), the diagnostics' xi rule, takes 7-17 ms; only diagnose
    # reads it, so it is computed on first use, not at import
    assert _after_cli_import("sys.modules['rankflow.diagnostics']._xi_rule.cache_info().currsize") == 0
