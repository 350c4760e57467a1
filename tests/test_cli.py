"""CLI behavior: exit codes, error messages, output schemas, determinism."""

import csv
import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import fresh_interpreter
from rankflow.cli import _coefficients, run
from rankflow.coefficients import DomainError, ValidationError
from rankflow.config import MAX_COUNT, ConfigError, parse_config, parse_init
from rankflow.experiments import default_martingale_suite
from rankflow.expr import NUMBER, ExpressionSyntaxError, InputError, evaluate, parse_ast
from rankflow.measures import EmptyInputError, InitialDistribution, gaussian, mixture, point_mass, uniform
from rankflow.particles import NonFiniteState
from rankflow.solver import DomainMarginError

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
CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SAMPLE_CONFIGS = sorted(CONFIGS.glob("*.cfg"))


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

    def test_sha256_of_the_source(self):
        digest = "6fd2e91cbec40237585cbfbce854f12dcca7c1ad12208f9caf8965c8b1978dca"
        assert parse_config("seed = 7\n").sha256() == digest

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


# signed numerals of the one numeral grammar, finite as floats
_NUMERALS = st.tuples(st.sampled_from(["", "-", "+"]), st.from_regex(NUMBER, fullmatch=True)).map(
    "".join).filter(lambda text: math.isfinite(float(text)))

_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_LAW_TREES = st.recursive(
    st.one_of(_FINITE.map(point_mass),
              st.tuples(_FINITE, _FINITE).filter(lambda ab: ab[0] < ab[1]).map(lambda ab: uniform(*ab)),
              st.tuples(_FINITE, st.floats(0.0, exclude_min=True, allow_infinity=False)).map(
                  lambda ms: gaussian(*ms))),
    # weights k / sum(k) sum to 1 within the mixture's tolerance
    lambda laws: st.lists(st.tuples(st.integers(1, 5), laws), min_size=1, max_size=3).map(
        lambda parts: mixture([law for _, law in parts], [k / sum(k for k, _ in parts) for k, _ in parts])),
    max_leaves=6)


def _spec(law: InitialDistribution) -> str:
    """The init spec of `law`, its numbers printed with repr."""
    if law.kind == "mixture":
        return f"mixture({', '.join(f'{w!r} {_spec(c)}' for w, c in zip(law.weights, law.components))})"
    return f"{law.kind}({', '.join(map(repr, law.params))})"


class TestParseInit:
    @given(_NUMERALS)
    def test_one_numeral_grammar(self, text):
        """A signed numeral reads as float(text) as an expression constant
        (which takes no unary plus), as a config value and as an init-spec
        parameter: a point mass, a gaussian's scale and a mixture weight."""
        x = float(text)
        assert evaluate(parse_ast(text.removeprefix("+")), 0.0) == x
        assert parse_config(f"x = {text}\n").num("x") == x
        assert parse_init(f"point_mass({text})") == point_mass(x)
        if x > 0:
            assert parse_init(f"gaussian(0, {text})") == gaussian(0.0, x)
        if 0.0 <= x <= 1.0:
            spec = f"mixture({text} point_mass(0), {1.0 - x!r} point_mass(1))"
            assert parse_init(spec).weights == (x, 1.0 - x)

    @given(_LAW_TREES)
    def test_printed_law_parses_back(self, law):
        assert parse_init(_spec(law)) == law

    @given(_LAW_TREES, st.data())
    def test_malformed_spec_rejected(self, law, data):
        """A printed law with one comma or paren dropped, a token appended,
        a numeral replaced by a name or literal float() reads as non-finite,
        or an unknown law name, is a config error."""
        spec = _spec(law)
        cut = data.draw(st.sampled_from([i for i, c in enumerate(spec) if c in ",()"]))
        with pytest.raises(ConfigError):
            parse_init(spec[:cut] + spec[cut + 1:])
        with pytest.raises(ConfigError, match="trailing tokens"):
            parse_init(spec + data.draw(st.sampled_from([")", " 1", ", point_mass(0)", " gaussian(0, 1)"])))
        num = data.draw(st.sampled_from(list(re.finditer(NUMBER, spec))))
        bad = data.draw(st.sampled_from(["nan", "NaN", "inf", "infinity", "1e400"]))
        with pytest.raises(ConfigError, match="expected a finite number"):
            parse_init(spec[:num.start()] + bad + spec[num.end():])
        with pytest.raises(ConfigError, match="unknown initial distribution 'lognormal'"):
            parse_init(spec.replace(law.kind, "lognormal", 1))

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

    def test_exponent_past_the_integer_digit_limit_exit_2(self, tmp_path, capsys):
        """An exponent of more than 4300 digits is a syntax error of the
        coefficient, not a runtime error."""
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(HEAT_CFG.replace('gamma = "0"', 'gamma = "a^' + "1" * 4400 + '"'))
        out = tmp_path / "o"
        assert run(["solve", "--config", str(cfg), "--out", str(out)]) == 2
        assert "config error: exponent of 4400 digits is too long (at offset 2)" in capsys.readouterr().err
        assert not out.exists()

    def test_input_errors_are_config_errors_and_runtime_faults_are_not(self, heat_cfg, tmp_path,
                                                                      capsys, monkeypatch):
        """Every error of the caller's input is an InputError, which the CLI
        reports as a config error (exit 2); a fault of a run, such as a
        transform argument outside [0, 1] in the solve, stays a runtime
        error (exit 1)."""
        for error in (ConfigError, ExpressionSyntaxError, ValidationError, DomainMarginError, EmptyInputError):
            assert issubclass(error, InputError)
        for error in (DomainError, NonFiniteState):
            assert not issubclass(error, InputError)

        def fault(*args, **kwargs):
            raise DomainError("transform argument 1.5 outside [0,1]")

        monkeypatch.setattr("rankflow.cli.solve", fault)
        out = tmp_path / "o"
        assert run(["solve", "--config", str(heat_cfg), "--out", str(out)]) == 1
        assert "runtime error: DomainError: transform argument 1.5 outside [0,1]" in capsys.readouterr().err
        assert not out.exists()

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
        assert not out.exists()

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
            assert not out.exists()
        assert parse_config(f"{key} = {MAX_COUNT}").count(key) == MAX_COUNT

    def test_seed_keeps_its_64_bit_range(self, tmp_path, capsys):
        """A seed is a 64-bit Philox key word: 2**64 - 1 runs, and a seed
        outside [0, 2**64 - 1], as the key or as --seed, is a config error
        before any output, not a run on the seed it wraps onto."""
        cfg = tmp_path / "seed.cfg"
        cfg.write_text(HEAT_CFG.replace("seed = 20240510", f"seed = {2**64 - 1}"))
        assert run(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        good = tmp_path / "heat.cfg"
        good.write_text(HEAT_CFG)
        for seed in (2**64, -1):
            cfg.write_text(HEAT_CFG.replace("seed = 20240510", f"seed = {seed}"))
            for args in (["--config", str(cfg)], ["--config", str(good), "--seed", str(seed)]):
                out = tmp_path / "bad"
                assert run(["solve", *args, "--out", str(out)]) == 2
                assert f"config error: seed {seed} must lie in [0, 2**64 - 1]" in capsys.readouterr().err
                assert not out.exists()

    @pytest.mark.parametrize("command, config, key", [
        ("solve", "heat.cfg", "snapshot_times"), ("stability", "stability.cfg", "epsilons"),
        ("stability", "stability.cfg", "snapshot_times"), ("diagnose", "diagnose.cfg", "eta_list"),
        ("diagnose", "diagnose.cfg", "y_list"), ("converge", "converge.cfg", "snapshot_times"),
        ("converge", "converge.cfg", "n_list"), ("simulate", None, "snapshot_times"),
    ])
    def test_empty_list_exit_2_before_work(self, tmp_path, capsys, monkeypatch, command, config, key):
        """A list key set to [] is a config error naming the key, raised
        before any solve or particle run: exit 2 and no output directory
        (an empty list ran to an empty output, or crashed after the work,
        and the directory was once created before the handler read its
        keys)."""
        text = PARTICLE_CFGS["simulate"] if config is None else (CONFIGS / config).read_text()
        kept = [ln for ln in text.splitlines() if ln.split(" = ")[0] != key]
        cfg = tmp_path / f"{command}.cfg"
        cfg.write_text("\n".join(kept + [f"{key} = []"]) + "\n")

        def no_work(*args, **kwargs):
            raise AssertionError("work started")

        for name in ("solve", "run_particles", "make_noise_bundle", "convergence_study",
                     "stability_experiment"):
            monkeypatch.setattr(f"rankflow.cli.{name}", no_work)
        out = tmp_path / "o"
        assert run([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert f"config error: key {key!r} must be a non-empty list" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_init_law_exit_2(self, tmp_path, capsys):
        """A spec that parses but names no law is a config error, not a
        runtime error."""
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(HEAT_CFG.replace('init = "point_mass(0)"', 'init = "uniform(2, 1)"'))
        out = tmp_path / "o"
        assert run(["solve", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "uniform(a, b) needs a < b" in err
        assert not out.exists()

    def test_degenerate_without_flag_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(HEAT_CFG.replace("allow_degenerate = true\n", ""))
        assert run(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_no_partial_outputs_on_config_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(HEAT_CFG.replace("T = 1.0\n", ""))  # missing T
        out = tmp_path / "o"
        assert run(["solve", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    def test_missing_config_file(self, tmp_path, capsys):
        assert run(["solve", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_undecodable_config_file_exit_2(self, tmp_path, capsys):
        """A config that is not UTF-8 text is a config error, not a traceback."""
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b'seed = 1\nb = "\xff"\n')
        out = tmp_path / "o"
        assert run(["solve", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"config error: cannot read {cfg}: " in err and "can't decode" in err
        assert not out.exists()

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
        assert not out.exists()

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
        ("converge", {"reference": '"bogus"'}, "unknown reference 'bogus'"),
        ("converge", {"reference": '"analytic"'}, "analytic reference needs constant coefficients; b varies"),
        ("stability", {"epsilons": "[0.16, 0.04]"}, "epsilons [0.16, 0.04] must be nonnegative and increasing"),
        ("stability", {"epsilons": "[-0.1, 0.04]"}, "epsilons [-0.1, 0.04] must be nonnegative and increasing"),
    ], ids=["converge_replicas", "converge_n_zero", "converge_n_repeated", "converge_off_grid",
            "converge_unordered", "simulate_n_zero", "simulate_off_grid", "martingale_n_zero",
            "martingale_replicas", "martingale_s_off_grid", "martingale_s_at_t", "martingale_s_near_t",
            "martingale_radius_inf", "simulate_negative_T",
            "martingale_negative_t", "martingale_transform_overflow", "converge_unknown_reference",
            "converge_analytic_varying", "stability_unordered", "stability_negative"])
    def test_particle_bad_inputs_exit_2_before_work(self, tmp_path, capsys, monkeypatch,
                                                    command, values, message):
        """Particle counts, replica counts, snapshot times, the coefficient
        transforms, the converge reference and the stability epsilons are
        checked before any solve or particle run: exit 2 and no CSV.
        Stability runs on its sample config."""
        text = PARTICLE_CFGS[command] if command in PARTICLE_CFGS else (CONFIGS / f"{command}.cfg").read_text()
        kept = [ln for ln in text.splitlines() if ln.split(" = ")[0] not in values]
        cfg = tmp_path / f"{command}.cfg"
        cfg.write_text("\n".join(kept + [f"{k} = {v}" for k, v in values.items()]) + "\n")

        def no_work(*args, **kwargs):
            raise AssertionError("work started")

        for name in ("rankflow.cli.solve", "rankflow.cli.run_particles", "rankflow.cli.stability_experiment",
                     "rankflow.experiments.solve", "rankflow.experiments.simulate", "rankflow.experiments.march"):
            monkeypatch.setattr(name, no_work)
        out = tmp_path / "o"
        assert run([command, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and message in err
        assert not out.exists()

    @pytest.mark.parametrize("command, values, message", [
        *((command, {"steps": str(v)}, f"steps = {v} must be at least 1")
          for command in ("converge", "diagnose", "martingale", "simulate", "solve", "stability")
          for v in (0, -1)),
        *((command, values, message) for command in ("converge", "diagnose", "solve", "stability")
          for values, message in (({"cells": "4"}, "cells = 4 must be at least 8"),
                                  ({"x_min": "3.0", "x_max": "-3.0"}, "x_min = 3.0 must be below x_max = -3.0"))),
    ])
    def test_empty_grid_exit_2_before_work(self, tmp_path, capsys, monkeypatch, command, values, message):
        """A step grid with no step and a mesh with fewer than 8 cells or
        x_max below x_min break a rule of the library (`step_grid`,
        `SolverConfig`): exit 2 naming the key, before any path, solve or
        particle run, and no output directory."""
        config = {"solve": "heat.cfg"}.get(command, f"{command}.cfg")
        text = PARTICLE_CFGS[command] if command in PARTICLE_CFGS else (CONFIGS / config).read_text()
        kept = [ln for ln in text.splitlines() if ln.split(" = ")[0] not in values]
        cfg = tmp_path / f"{command}.cfg"
        cfg.write_text("\n".join(kept + [f"{k} = {v}" for k, v in values.items()]) + "\n")

        def no_work(*args, **kwargs):
            raise AssertionError("work started")

        for name in ("rankflow.cli.sample_path", "rankflow.cli.solve", "rankflow.cli.run_particles",
                     "rankflow.cli.stability_experiment", "rankflow.experiments.sample_path",
                     "rankflow.experiments.solve", "rankflow.experiments.simulate", "rankflow.experiments.march"):
            monkeypatch.setattr(name, no_work)
        out = tmp_path / "o"
        assert run([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, config, times, bad", [
        ("solve", "heat.cfg", "[0.25, 1.5]", "1.5"),
        ("solve", "heat.cfg", "[-0.25, 0.5]", "-0.25"),
        ("stability", "stability.cfg", "[0.5, 1.5]", "1.5"),
    ], ids=["solve_past_T", "solve_negative", "stability_past_T"])
    def test_mesh_snapshot_time_outside_horizon_exit_2_before_work(self, tmp_path, capsys, monkeypatch,
                                                                   command, config, times, bad):
        """A snapshot time outside [0, T] is a config error before any
        refinement or solve, as it is for simulate and converge."""
        kept = [ln for ln in (CONFIGS / config).read_text().splitlines() if not ln.startswith("snapshot_times")]
        cfg = tmp_path / config
        cfg.write_text("\n".join(kept + [f"snapshot_times = {times}"]) + "\n")

        def no_work(*args, **kwargs):
            raise AssertionError("work started")

        for name in ("rankflow.cli.solve", "rankflow.cli.refine_path", "rankflow.cli.stability_experiment"):
            monkeypatch.setattr(name, no_work)
        out = tmp_path / "o"
        assert run([command, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"config error: snapshot time = {bad} must lie in [0, T] = [0, 1.0]" in err
        assert not out.exists()

    @pytest.mark.parametrize("T", ["-0.5", "0"])
    @pytest.mark.parametrize("command, config", [
        ("solve", "heat.cfg"), ("stability", "stability.cfg"), ("diagnose", "diagnose.cfg")])
    def test_mesh_non_positive_horizon_exit_2_before_work(self, tmp_path, capsys, monkeypatch,
                                                          command, config, T):
        """A horizon T <= 0 is a config error before the path is drawn, as
        it is for simulate, converge and martingale."""
        kept = [ln for ln in (CONFIGS / config).read_text().splitlines() if not ln.startswith("T =")]
        cfg = tmp_path / config
        cfg.write_text("\n".join(kept + [f"T = {T}"]) + "\n")

        def no_work(*args, **kwargs):
            raise AssertionError("work started")

        for name in ("rankflow.cli.sample_path", "rankflow.cli.solve", "rankflow.cli.stability_experiment"):
            monkeypatch.setattr(name, no_work)
        out = tmp_path / "o"
        assert run([command, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"config error: the time horizon {float(T)} must be positive" in err
        assert not out.exists()

    @pytest.mark.parametrize("command, config, name", [
        ("solve", "heat.cfg", "snapshots.csv"), ("stability", "stability.cfg", "stability.csv")])
    def test_mesh_snapshot_time_within_tolerance_of_an_end_is_that_end(self, tmp_path, command, config, name):
        """A snapshot time 5e-10 outside [0, T] is read at 0 or T by the
        on-grid rule: the run writes the bytes of the run at the node."""
        kept = [ln for ln in (CONFIGS / config).read_text().splitlines() if not ln.startswith("snapshot_times")]
        written = {}
        for times in ("[0.0, 0.5, 1.0]", "[-5e-10, 0.5, 1.0000000005]"):
            cfg = tmp_path / config
            cfg.write_text("\n".join(kept + [f"snapshot_times = {times}"]) + "\n")
            out = tmp_path / f"o{len(written)}"
            assert run([command, "--config", str(cfg), "--out", str(out)]) == 0
            written[times] = (out / name).read_bytes()
        assert len(set(written.values())) == 1

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


# the benchmark's set-up: parse a config and build its coefficients
SETUP_PATH = """\
from pathlib import Path
from rankflow.coefficients import build_from_sources
from rankflow.config import parse_config
cfg = parse_config(Path({path!r}).read_text())
build_from_sources(cfg.text("b"), cfg.text("sigma"), cfg.text("gamma"), cfg.count("table_resolution", 256),
                   allow_degenerate=cfg.flag("allow_degenerate", False))"""


def test_package_import_loads_no_submodule_and_no_numpy():
    # the namespace is empty by design: each entry point imports the
    # submodules it runs, and a fresh interpreter compiles each one it loads
    loaded = fresh_interpreter("import rankflow",
                               "[m for m in sys.modules if m.startswith(('rankflow.', 'numpy'))]")
    assert loaded == []


def test_setup_path_loads_only_the_coefficient_modules():
    # no sampler, solver or diagnostics, no numpy.polynomial, and no OpenSSL
    # (_hashlib, about 3 MB of RSS), which only the manifest's digest needs
    loaded = fresh_interpreter(SETUP_PATH.format(path=str(CONFIGS / "converge.cfg")),
                               "(sorted(m for m in sys.modules if m.startswith('rankflow')),"
                               " 'numpy.polynomial' in sys.modules, '_hashlib' in sys.modules)")
    assert loaded == (["rankflow", "rankflow.coefficients", "rankflow.config", "rankflow.expr"], False, False)


def test_cli_import_leaves_heavy_scipy_modules_unloaded():
    # rankflow needs only numpy at run time: importing scipy.special alone
    # costs about 0.2 s and 20 MB at start-up, and scipy.integrate,
    # scipy.sparse, scipy.linalg and scipy.stats more
    assert fresh_interpreter("import rankflow.cli", "'scipy' in sys.modules") is False


def test_cli_import_leaves_numpy_random_unloaded():
    # numpy.random is loaded by the first draw, not at import: loading it
    # adds about 2 MB of RSS and about 15 ms, which every command would
    # otherwise pay before its config is read
    assert fresh_interpreter("import rankflow.cli", "'numpy.random' in sys.modules") is False


def test_cli_import_leaves_numpy_polynomial_unloaded():
    # numpy.polynomial (about 0.75 MB) is not loaded by any command; the
    # coefficient transforms' order-8 rule is written out
    assert fresh_interpreter("import rankflow.cli", "'numpy.polynomial' in sys.modules") is False


# each command on its sample config, the replicated ones cut to a few
# replicas; simulate has none, so it runs a small config of its own
_RUN_CONFIGS = {"converge": ("converge.cfg", 2), "diagnose": ("diagnose.cfg", None),
                "martingale": ("martingale.cfg", 4), "simulate": (None, None),
                "solve": ("heat.cfg", None), "stability": ("stability.cfg", None)}


@pytest.mark.parametrize("command", sorted(_RUN_CONFIGS))
def test_run_leaves_numpy_polynomial_and_ma_unloaded(tmp_path, command):
    # no command loads numpy.polynomial: the coefficient transforms and the
    # diagnostics' xi rule share a written-out order-8 rule.  Nor numpy.ma
    # (about 11 ms of import): np.unique's first call imports it, so the
    # distinct sorted values come from randomness._sorted_union instead
    name, replicas = _RUN_CONFIGS[command]
    if name is None:
        text = PARTICLE_CFGS["simulate"]
    else:
        text = (CONFIGS / name).read_text()
        if replicas is not None:
            text, cut = re.subn(r"(?m)^replicas = \d+$", f"replicas = {replicas}", text)
            assert cut == 1
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    statement = ("import contextlib, io\nfrom rankflow.cli import run\n"
                 "with contextlib.redirect_stdout(io.StringIO()):\n"
                 f"    code = run([{command!r}, '--config', {str(cfg)!r}, '--out', {str(tmp_path / 'out')!r}])")
    loaded = fresh_interpreter(statement, "(code, 'numpy.polynomial' in sys.modules, 'numpy.ma' in sys.modules)")
    assert loaded == (0, False, False)
