"""Command-line flows, exit codes, and config parsing."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import widebeam
from widebeam import SolverConfig, SystemConfig, cli
from widebeam.cli import ConfigError, _parse_range, load_config, main
from widebeam.storage import read_codebook

from test_storage import oracle_codebook_json


def stdout_value(out: str, key: str) -> float:
    for line in out.splitlines():
        if line.startswith(f"{key} = "):
            return float(line.split(" = ")[1])
    raise AssertionError(f"{key} not in output:\n{out}")


class TestLoadConfig:
    def test_empty_file_gives_the_reference_setup(self, write_config):
        cfg, solver = load_config(write_config())
        assert (cfg.f_c, cfg.B, cfg.N, cfg.L) == (140e9, 10e9, 16, 32)
        assert (cfg.n_freq, cfg.n_angle) == (257, 1024)
        assert cfg.solver_grid_size == 32
        assert (solver.rho1, solver.n_ite, solver.eps) == (1.0, 50, 0.0)

    def test_defaults_are_the_dataclass_defaults(self, write_config):
        cfg, solver = load_config(write_config())
        assert solver == SolverConfig()
        ref = SystemConfig(f_c=1.0, B=0.0, N=1, L=1)
        assert (cfg.M, cfg.n_freq, cfg.n_angle) == (ref.M, ref.n_freq, ref.n_angle)

    def test_overrides_apply(self, write_config):
        cfg, solver = load_config(write_config(n=8, l=16, m=48, n_ite=7))
        assert (cfg.N, cfg.L, cfg.solver_grid_size, solver.n_ite) == (8, 16, 48, 7)

    def test_unknown_key(self, write_config):
        with pytest.raises(ConfigError, match="unknown config keys: n_antennas"):
            load_config(write_config(n_antennas=16))

    def test_integer_keys_reject_strings_and_bools(self, write_config):
        with pytest.raises(ConfigError, match="'n' must be an integer"):
            load_config(write_config(n="16"))
        with pytest.raises(ConfigError, match="'n_ite' must be an integer"):
            load_config(write_config(n_ite=True))

    @pytest.mark.parametrize("key,value", [("f_c_hz", "140e9"), ("b_hz", True),
                                           ("rho1", None)])
    def test_float_keys_reject_non_numbers(self, write_config, key, value):
        with pytest.raises(ConfigError, match=f"'{key}' must be a number"):
            load_config(write_config(**{key: value}))

    def test_float_keys_take_integers(self, write_config):
        cfg, solver = load_config(write_config(f_c_hz=140_000_000_000, rho2=2))
        assert (cfg.f_c, solver.rho2) == (140e9, 2.0)
        # a JSON integer beyond the double range cannot become a float
        with pytest.raises(ConfigError, match="too large"):
            load_config(write_config(b_hz=10 ** 400))

    def test_invalid_values_are_config_errors(self, write_config):
        with pytest.raises(ConfigError):
            load_config(write_config(b_hz=-1.0))
        with pytest.raises(ConfigError):
            load_config(write_config(rho1=0.0))

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"n": 16', encoding="utf-8")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(str(path))
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ConfigError, match="top level"):
            load_config(str(path))


class TestParseRange:
    def test_colon_form_is_inclusive(self):
        assert _parse_range("8:32:8") == [8.0, 16.0, 24.0, 32.0]

    def test_comma_form_scales(self):
        assert _parse_range("2,10", scale=1e9) == [2e9, 10e9]

    @pytest.mark.parametrize("spec", ["8:32", "1:9:0", "a:b:c", "3,x", ","])
    def test_malformed_specs(self, spec):
        with pytest.raises(ConfigError):
            _parse_range(spec)


@pytest.fixture
def small_config(write_config):
    return write_config(n=8, l=16, n_angle=512, n_freq=65)


class TestDesignFlow:
    def test_design_then_eval_round_trip(self, tmp_path, small_config, capsys):
        out = tmp_path / "cb.json"
        assert main(["design", small_config, "--out", str(out)]) == 0
        design_out = capsys.readouterr().out
        worst = stdout_value(design_out, "worst_case")
        assert stdout_value(design_out, "upper_bound") == pytest.approx(
            2.0 / stdout_value(design_out, "delta_omega"), rel=1e-9)
        assert worst <= stdout_value(design_out, "upper_bound") * 1.02
        assert stdout_value(design_out, "wall_time_s") >= 0.0

        # the stored book carries f_c/B/N/L; grid sizes fall back to the
        # library defaults, so re-evaluation needs the config to agree
        assert main(["eval", str(out), "--config", small_config]) == 0
        eval_out = capsys.readouterr().out
        assert stdout_value(eval_out, "worst_case") == pytest.approx(worst, abs=1e-9)
        assert abs(stdout_value(eval_out, "worst_aod_deg")) <= 90.0

    def test_reference_design_worst_case(self, write_config, tmp_path, capsys):
        out = tmp_path / "cb.json"
        assert main(["design", write_config(), "--out", str(out)]) == 0
        worst = stdout_value(capsys.readouterr().out, "worst_case")
        assert worst == pytest.approx(8.6576449182099, rel=1e-6)

    def test_baseline_matches_the_closed_form(self, write_config, tmp_path, capsys):
        out = tmp_path / "nb.json"
        assert main(["baseline", write_config(), "--out", str(out)]) == 0
        worst = stdout_value(capsys.readouterr().out, "worst_case")
        assert worst == pytest.approx(5.59857312575272, rel=0.02)

    @pytest.mark.parametrize("command, build", [
        ("design", widebeam.build_codebook),
        ("baseline", lambda cfg, _: widebeam.narrowband_codebook(cfg)),
    ])
    def test_file_is_the_library_book(self, small_config, tmp_path, capsys,
                                      command, build):
        out, ref = tmp_path / "cli.json", tmp_path / "lib.json"
        assert main([command, small_config, "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        cfg, solver_cfg = load_config(small_config)
        book = build(cfg, solver_cfg)
        widebeam.write_codebook(str(ref), book)
        assert out.read_bytes() == ref.read_bytes()
        assert printed.splitlines()[:3] == [
            f"delta_omega = {book.partition.delta_omega:.12g}",
            f"upper_bound = {2.0 / book.partition.delta_omega:.12g}",
            f"worst_case = {widebeam.evaluate(cfg, book).worst_case:.12g}",
        ]

    def test_one_element_one_zone(self, write_config, tmp_path, capsys):
        # the lone zone's image is wider than the pattern's period, so the
        # bound is the pattern's mean, 1, which a single element attains
        assert main(["design", write_config(n=1, l=1),
                     "--out", str(tmp_path / "cb.json")]) == 0
        out = capsys.readouterr().out
        assert stdout_value(out, "worst_case") == 1.0
        assert stdout_value(out, "upper_bound") == 1.0

    def test_zero_band_design_is_the_baseline_file(self, write_config, tmp_path,
                                                   capsys):
        cfgp = write_config(b_hz=0.0, n=8, l=16)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["design", cfgp, "--out", str(a)]) == 0
        assert main(["baseline", cfgp, "--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()


class TestEvalFlow:
    def test_csv_row_count_follows_the_grid(self, tmp_path, small_config, capsys):
        out = tmp_path / "cb.json"
        main(["design", small_config, "--out", str(out)])
        csv = tmp_path / "per_angle.csv"
        assert main(["eval", str(out), "--config", small_config,
                     "--csv", str(csv)]) == 0
        capsys.readouterr()
        lines = csv.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "phi_deg,gain,best_beam"
        # 512 grid points plus boundaries and endpoints, minus duplicates
        assert len(lines) > 512

    def test_monte_carlo_is_seed_deterministic(self, tmp_path, small_config, capsys):
        out = tmp_path / "cb.json"
        main(["design", small_config, "--out", str(out)])
        capsys.readouterr()
        runs = []
        for seed in ("3", "3", "4"):
            assert main(["eval", str(out), "--mode", "mc", "--seed", seed]) == 0
            runs.append(capsys.readouterr().out)
        assert runs[0] == runs[1]
        assert runs[0] != runs[2]


class TestSweepFlow:
    def test_table_and_csv(self, tmp_path, small_config, capsys):
        csv = tmp_path / "table.csv"
        assert main(["sweep", small_config, "--n-range", "8,16",
                     "--b-range", "0,10", "--csv", str(csv)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 4
        assert out[0].startswith("N=8 B=0GHz worst=")
        assert "bound=" in out[0]
        rows = csv.read_text(encoding="utf-8").splitlines()
        assert rows[0] == "N,B_GHz,worst_case,bound"
        assert len(rows) == 5
        assert rows[1].split(",")[0] == "8"

    def test_bound_only_prints_dashes(self, small_config, capsys):
        assert main(["sweep", small_config, "--n-range", "16",
                     "--b-range", "10", "--what", "bound"]) == 0
        line = capsys.readouterr().out.splitlines()[0]
        assert "worst=-" in line

    def test_malformed_range_is_a_config_error(self, small_config, capsys):
        assert main(["sweep", small_config, "--n-range", "a:b:c",
                     "--b-range", "10"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("n_range, b_range, message", [
        ("0,8", "10", "N must be >= 1"),
        ("8.7", "10", "N must be an integer"),
        ("8:9:0.5", "10", "N must be an integer"),
        ("8", "300", "B must satisfy"),
        ("8", "-1", "B must satisfy"),
        ("8", "nan", "B must satisfy"),
    ])
    def test_out_of_range_cells_are_config_errors(self, small_config, capsys,
                                                  n_range, b_range, message):
        assert main(["sweep", small_config, "--n-range", n_range,
                     "--b-range", b_range]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and message in captured.err
        assert len(captured.err.splitlines()) == 1


class TestValidateFlow:
    def test_reference_checks_pass(self, small_config, capsys):
        assert main(["validate", small_config]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [l.split(":")[0] for l in lines] == [
            "prop1-grid-consistency", "prop2-argmax", "prop3-bound",
            "shift-translation", "zero-band-zones",
        ]
        assert all(l.endswith(": pass") for l in lines)


class TestFailureModes:
    def test_missing_config_is_an_io_error(self, tmp_path, capsys):
        assert main(["design", str(tmp_path / "nope.json")]) == 2
        assert "i/o error" in capsys.readouterr().err

    def test_unknown_key_exits_one(self, write_config, capsys):
        assert main(["design", write_config(extra=1)]) == 1
        assert "unknown config keys" in capsys.readouterr().err

    def test_malformed_codebook_reports_the_pointer(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"version": 9}', encoding="utf-8")
        assert main(["eval", str(bad)]) == 1
        assert "/version" in capsys.readouterr().err

    def test_huge_integer_weight_is_a_config_error(self, small_config, tmp_path, capsys):
        book = tmp_path / "cb.json"
        assert main(["baseline", small_config, "--out", str(book)]) == 0
        # the same book as a version 1 file, which stores every beam as a row
        doc = json.loads(oracle_codebook_json(read_codebook(book)[0]))
        doc["beams"][2][1][0] = 10 ** 400
        book.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert main(["eval", str(book)]) == 1
        assert "/beams/2/1/0: expected a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["n", "l"])
    def test_bool_size_in_a_codebook_is_a_config_error(self, small_config, tmp_path,
                                                       capsys, key):
        book = tmp_path / "cb.json"
        assert main(["baseline", small_config, "--out", str(book)]) == 0
        doc = json.loads(book.read_text(encoding="utf-8"))
        doc["config"][key] = True
        book.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert main(["eval", str(book)]) == 1
        assert capsys.readouterr().err == (
            f"error: /config/{key}: expected integer >= 1\n")

    @pytest.mark.parametrize("overrides", [{"l": 1024}, {"b_hz": 18e9, "l": 544},
                                           {"b_hz": 270e9, "l": 22}])
    def test_partition_limit_is_a_config_error(self, write_config, tmp_path,
                                               capsys, overrides):
        cfgp = write_config(**overrides)
        b_ghz = f"{overrides.get('b_hz', 10e9) / 1e9:g}"
        for argv in (["design", cfgp, "--out", str(tmp_path / "cb.json")],
                     ["validate", cfgp],
                     ["sweep", cfgp, "--n-range", "8", "--b-range", b_ghz]):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "double precision" in err
            assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("key, literal", [("rho1", "NaN"), ("rho2", "1e400"),
                                              ("beta2", "Infinity"), ("eps", "NaN")])
    def test_non_finite_solver_setting_is_a_config_error(self, tmp_path, capsys, key,
                                                         literal):
        # NaN passes every sign check and 1e400 reads as inf; the solver
        # would iterate on NaN and return the initializer as its design
        cfgp = tmp_path / "config.json"
        cfgp.write_text(f'{{"n": 32, "l": 64, "{key}": {literal}}}', encoding="utf-8")
        out = tmp_path / "cb.json"
        assert main(["design", str(cfgp), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{key} must be finite" in err
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_solver_failure_exits_three(self, small_config, tmp_path, capsys,
                                        monkeypatch):
        def boom(cfg, solver_cfg):
            raise RuntimeError("window matrix is not positive definite")
        monkeypatch.setattr(cli, "build_codebook", boom)
        out = tmp_path / "cb.json"
        assert main(["design", small_config, "--out", str(out)]) == 3
        assert "solver failure" in capsys.readouterr().err
        assert not out.exists()

    def test_initializer_null_exits_three(self, write_config, tmp_path, capsys):
        # one zone at N=16: the sub-array stack's pattern has a null in the
        # window, so no beam is designed
        out = tmp_path / "cb.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["design", write_config(l=1), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert len([line for line in err.splitlines()
                    if line.startswith("solver failure: ")]) == 1
        assert "Traceback" not in err
        assert "UserWarning" not in err
        assert not [w for w in caught if issubclass(w.category, UserWarning)]
        assert not out.exists()

    @pytest.mark.parametrize("module, argv", [
        (cli, ["validate"]),
        (widebeam.narrowband, ["sweep", "--n-range", "8", "--b-range", "10",
                               "--what", "wideband"]),
    ])
    def test_solver_failure_exits_three_in_every_command(
            self, small_config, capsys, monkeypatch, module, argv):
        def boom(cfg, solver_cfg):
            raise RuntimeError("window matrix is not positive definite")
        monkeypatch.setattr(module, "build_codebook", boom)
        assert main([argv[0], small_config, *argv[1:]]) == 3
        err = capsys.readouterr().err
        assert err == "solver failure: window matrix is not positive definite\n"


def test_console_script_help(tmp_path):
    """The `widebeam` script declared in this checkout's pyproject.toml works.

    An installer turns the [project.scripts] entry into a small wrapper
    that imports the callable and passes its return value to sys.exit.
    The test writes that wrapper itself and runs it against the widebeam
    package under test, so it checks the declared entry point rather than
    whichever `widebeam` happens to come first on PATH.
    """
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as f:
        scripts = tomllib.load(f)["project"].get("scripts", {})
    assert "widebeam" in scripts, "no widebeam entry in [project.scripts]"
    module, attr = (part.strip() for part in scripts["widebeam"].split(":"))
    wrapper = tmp_path / "widebeam"
    wrapper.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {attr}\n"
        f"sys.exit({attr}())\n",
        encoding="utf-8",
    )
    wrapper.chmod(0o755)
    env = dict(os.environ)
    package_root = str(Path(widebeam.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run([str(wrapper), "--help"], capture_output=True,
                          text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: widebeam")
    for word in ("design", "baseline", "eval", "sweep", "validate"):
        assert word in proc.stdout


def test_cli_and_design_never_import_scipy(tmp_path):
    """The package is numpy-only: neither the CLI nor a design pulls in scipy.

    Runs in a fresh interpreter, so modules imported by other tests in this
    session cannot hide or fake an import.
    """
    code = (
        "import sys\n"
        "import widebeam.cli\n"
        "from widebeam import SystemConfig, build_codebook\n"
        "build_codebook(SystemConfig(f_c=140e9, B=10e9, N=8, L=16))\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    env = dict(os.environ)
    package_root = str(Path(widebeam.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_package_import_leaves_the_cli_out():
    """`import widebeam` must not load the CLI, so `-m widebeam.cli` runs cleanly.

    Runs in fresh interpreters: runpy warns that `widebeam.cli` is already
    in sys.modules when the package imports it, and -W error turns that
    warning into exit code 1.
    """
    env = dict(os.environ)
    package_root = str(Path(widebeam.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "widebeam.cli", "--help"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: widebeam")
    code = ("import sys, widebeam\n"
            "print('widebeam.cli' in sys.modules, widebeam.sweep.__module__)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "widebeam.narrowband"]
