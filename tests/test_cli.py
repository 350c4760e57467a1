"""CLI behavior: exit codes, error messages, output schemas, determinism."""

import csv
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
import scipy

from rankflow.cli import run
from rankflow.config import ConfigError, parse_config, parse_init
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

GOLDEN = Path(__file__).parent / "golden" / "digests.json"


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
        if golden["versions"] != {"numpy": np.__version__, "scipy": scipy.__version__}:
            pytest.skip(f"digests recorded with {golden['versions']}")
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
        if golden["versions"] != {"numpy": np.__version__, "scipy": scipy.__version__}:
            pytest.skip(f"digests recorded with {golden['versions']}")
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
        cfg.write_text(
            'b = "0"\nsigma = "sqrt(2)"\ngamma = "0"\nallow_degenerate = true\n'
            'table_resolution = 32\nseed = 6\nT = 0.5\nsteps = 16\n'
            'x_min = -7.0\nx_max = 7.0\ncells = 64\ninit = "point_mass(0)"\n'
            's = 0.25\nt = 0.5\neta_list = [0.5]\ny_list = [0.0]\n'
        )
        out = tmp_path / "o"
        assert run(["diagnose", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "diagnostics.csv").read_text().splitlines()
        assert lines[0] == "diagnostic,eta,y,s,t,residual,resolution"
        kinds = {ln.split(",")[0] for ln in lines[1:]}
        assert kinds == {"chain_rule", "coarea", "entropy_identity", "weak_form"}

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
