import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from spheretail import cli, p_tube
from spheretail.geometry import PointConfiguration
from spheretail.radial_laws import ChiSquare

from conftest import SRC


def base_config(**overrides):
    base = {
        "correlation": [
            [1.0, 0.25, 0.25],
            [0.25, 1.0, 0.25],
            [0.25, 0.25, 1.0],
        ],
        "law": {"family": "chi_square", "nu": 3.0},
        "c_grid": {"start": 1.0, "stop": 3.0, "step": 0.5},
        "trials": 2000,
        "seed": 11,
    }
    base.update(overrides)
    return base


def write_config(path, **overrides):
    path.write_text(json.dumps(base_config(**overrides)))
    return path


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        rows = list(reader)
    return header, rows


class TestSubcommands:
    def test_approx(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "approx.csv"
        assert cli.run(["approx", "--config", str(cfg), "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["c", "p_tube", "p_tube_capped"]
        assert len(rows) == 5
        for row in rows:
            raw, capped = float(row[1]), float(row[2])
            assert capped == min(1.0, raw)

    def test_exact_and_error_consistency(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "error.csv"
        assert cli.run(["error", "--config", str(cfg), "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == [
            "c", "p_tube", "p_tube_capped", "p_exact", "p_lower",
            "delta_exact", "delta_pred", "branch", "flags",
        ]
        for row in rows:
            tube, exact = float(row[1]), float(row[3])
            delta = float(row[5])
            assert 0.0 <= exact <= tube
            assert 0.0 <= delta < 1.0
            assert row[7] == "SUBEXP"

    def test_simulate(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "sim.csv"
        assert cli.run(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["c", "p_hat", "se", "trials", "seed"]
        p_hats = [float(r[1]) for r in rows]
        assert all(a >= b for a, b in zip(p_hats, p_hats[1:]))
        assert rows[0][3] == "2000" and rows[0][4] == "11"

    def test_simulate_flags_override_the_config(self, tmp_path):
        flagged, configured = tmp_path / "flags.csv", tmp_path / "config.csv"
        cfg = write_config(tmp_path / "cfg.json")
        assert cli.run(["simulate", "--config", str(cfg), "--out", str(flagged),
                        "--trials", "500", "--seed", "7"]) == 0
        cfg = write_config(tmp_path / "cfg7.json", trials=500, seed=7)
        assert cli.run(["simulate", "--config", str(cfg), "--out", str(configured)]) == 0
        assert flagged.read_bytes() == configured.read_bytes()
        assert read_csv(flagged)[1][0][3:] == ["500", "7"]

    @pytest.mark.parametrize("command", ["approx", "exact", "error"])
    @pytest.mark.parametrize("flag", ["--trials", "--seed"])
    def test_simulation_flags_are_usage_errors_elsewhere(self, tmp_path, command, flag):
        cfg = write_config(tmp_path / "cfg.json")
        with pytest.raises(SystemExit) as exc:
            cli.run([command, "--config", str(cfg), flag, "5"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["simulate", "reproduce"])
    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_nonpositive_trials_flag_is_a_validation_error(self, tmp_path, capsys, command, trials):
        # the flag is read by the library's rule, like a config's "trials": 0
        cfg = write_config(tmp_path / "cfg.json")
        source = ["--config", str(cfg)] if command == "simulate" else ["--case", "gauss"]
        out = tmp_path / "x.csv"
        assert cli.run([command, *source, "--trials", trials, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: trials must be at least 1\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "reproduce"])
    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_the_64_bit_range_is_rejected(self, tmp_path, capsys, command, seed):
        cfg = write_config(tmp_path / "cfg.json")
        source = ["--config", str(cfg)] if command == "simulate" else ["--case", "gauss"]
        out = tmp_path / "x.csv"
        argv = [command, *source, "--seed", seed, "--trials", "100", "--out", str(out)]
        assert cli.run(argv) == 1
        assert f"error: seed must lie in [0, 2**64), got {seed}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("trials, message", [
        (0, "at least 1"), (None, "an integer"), (2000.9, "an integer"), (True, "an integer"),
        ("12", "an integer"), (float("inf"), "an integer"),
    ])
    def test_config_trials_are_checked_by_simulate_only(self, tmp_path, capsys, trials, message):
        cfg = write_config(tmp_path / "cfg.json", trials=trials)
        for argv in (["approx"], ["exact"], ["error"],
                     ["threshold", "--target", "0.05", "--method", "tube"]):
            out = str(tmp_path / f"{argv[0]}.csv")
            assert cli.run([*argv, "--config", str(cfg), "--out", out]) == 0
        capsys.readouterr()
        out = str(tmp_path / "sim.csv")
        assert cli.run(["simulate", "--config", str(cfg), "--out", out]) == 1
        assert f"trials must be {message}" in capsys.readouterr().err

    def test_integral_float_trials_are_accepted(self, tmp_path):
        # JSON readers may write 500 as 500.0 and 7 as 7.0; the draws are the same
        paths = [tmp_path / "float.csv", tmp_path / "int.csv"]
        for (trials, seed), out in zip(((500.0, 7.0), (500, 7)), paths):
            cfg = write_config(tmp_path / "cfg.json", trials=trials, seed=seed)
            assert cli.run(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
        header, rows = read_csv(paths[0])
        assert all(row[3:] == ["500", "7"] for row in rows) and header[3:] == ["trials", "seed"]

    @pytest.mark.parametrize("seed", [None, "eleven", 7.5, True, "12", float("inf")])
    def test_config_seed_is_checked_by_simulate_only(self, tmp_path, capsys, seed):
        cfg = write_config(tmp_path / "cfg.json", seed=seed)
        for argv in (["approx"], ["exact"], ["error"],
                     ["threshold", "--target", "0.05", "--method", "tube"]):
            out = str(tmp_path / f"{argv[0]}.csv")
            assert cli.run([*argv, "--config", str(cfg), "--out", out]) == 0
        capsys.readouterr()
        out = str(tmp_path / "sim.csv")
        assert cli.run(["simulate", "--config", str(cfg), "--out", out]) == 1
        err = capsys.readouterr().err
        assert err == f"error: seed must be an integer, got {seed!r}\n"

    def test_threshold_reads_no_grid(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        assert cli.run(["threshold", "--config", str(cfg), "--target", "0.05"]) == 0
        expected = capsys.readouterr().out
        # a config grid that every grid command refuses is not read
        cfg = write_config(tmp_path / "bad.json", c_grid={"start": 3.0, "stop": 1.0, "step": 0.5})
        assert cli.run(["approx", "--config", str(cfg), "--out", str(tmp_path / "a.csv")]) == 1
        assert "grid start must be below stop" in capsys.readouterr().err
        assert cli.run(["threshold", "--config", str(cfg), "--target", "0.05"]) == 0
        assert capsys.readouterr().out == expected
        # and a grid flag is a usage error, like --trials on approx
        with pytest.raises(SystemExit) as exc:
            cli.run(["threshold", "--config", str(cfg), "--target", "0.05", "--c-grid", "1:2:0.5"])
        assert exc.value.code == 2
        assert "--c-grid" in capsys.readouterr().err

    def test_threshold_roundtrip(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        assert cli.run(
            ["threshold", "--config", str(cfg), "--target", "0.05", "--method", "tube"]
        ) == 0
        printed = capsys.readouterr().out
        c_gamma = float(printed.split("=")[1])
        config = PointConfiguration.from_correlation(
            [[1.0, 0.25, 0.25], [0.25, 1.0, 0.25], [0.25, 0.25, 1.0]]
        )
        assert p_tube(config, ChiSquare(3.0), c_gamma) == pytest.approx(0.05, abs=1e-8)

    def test_grid_override(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "a.csv"
        assert cli.run(
            ["approx", "--config", str(cfg), "--out", str(out), "--c-grid", "1:2:0.25"]
        ) == 0
        _, rows = read_csv(out)
        assert [float(r[0]) for r in rows] == [1.0, 1.25, 1.5, 1.75, 2.0]

    def test_config_defaults(self, tmp_path):
        # no c_grid, trials or seed: the grid 1:8:0.5, 10000 trials, seed 0
        raw = json.loads(write_config(tmp_path / "full.json").read_text())
        for key in ("c_grid", "trials", "seed"):
            del raw[key]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "sim.csv"
        assert cli.run(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 15
        assert [float(r[0]) for r in rows] == [1.0 + 0.5 * i for i in range(15)]
        assert all(r[3] == "10000" and r[4] == "0" for r in rows)

    def test_points_configuration_source(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "points": [[1.0, 0.0], [0.0, 1.0]],
                    "law": {"family": "f", "nu1": 2.0, "nu2": 3.0},
                    "c_grid": {"start": 1.0, "stop": 2.0, "step": 0.5},
                }
            )
        )
        out = tmp_path / "fo.csv"
        assert cli.run(["exact", "--config", str(cfg), "--out", str(out)]) == 0


class TestValidationFailures:
    def test_non_psd_correlation(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "cfg.json",
            correlation=[[1.0, 0.9, 0.0], [0.9, 1.0, 0.9], [0.0, 0.9, 1.0]],
        )
        assert cli.run(["approx", "--config", str(cfg), "--out", "x.csv"]) == 1
        assert "positive semidefinite" in capsys.readouterr().err

    def test_both_sources_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", points=[[1.0, 0.0], [0.0, 1.0]])
        assert cli.run(["approx", "--config", str(cfg), "--out", "x.csv"]) == 1
        assert "exactly one" in capsys.readouterr().err

    def test_unknown_family(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", law={"family": "pareto"})
        assert cli.run(["approx", "--config", str(cfg), "--out", "x.csv"]) == 1
        assert "family" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert cli.run(["approx", "--config", str(tmp_path / "none.json")]) == 1
        assert "error" in capsys.readouterr().err

    def test_malformed_json_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"law": {"family": "chi_square", "nu": 3.0},')
        assert cli.run(["approx", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("raw, message", [
        (5, "config must be a JSON object, got 5"),
        (None, "config must be a JSON object, got None"),
        ({key: value for key, value in base_config().items() if key != "law"},
         "config must contain a 'law' object"),
        ({"points": {"a": 1}, "law": {"family": "chi_square", "nu": 3.0}},
         "'points' must be a rectangular array of numbers"),
        (base_config(c_grid=[1, 2, 3]), "c_grid must be an object with 'start', 'stop' and 'step'"),
        (base_config(c_grid="1:2:1"), "c_grid must be an object with 'start', 'stop' and 'step'"),
        (base_config(c_grid={"start": 1.0, "stop": 3.0}),
         "c_grid must be an object with 'start', 'stop' and 'step'"),
        (base_config(c_grid={"start": None, "stop": 3.0, "step": 0.5}),
         "c_grid start must be a number, got None"),
        (base_config(law={"family": "chi_square", "nu": None}),
         "law parameter 'nu' must be a number, got None"),
        (base_config(law={"family": ["x"]}), "unknown law family ['x']"),
        (base_config(output=1), "output must be a file path, got 1"),
        # a misspelt key was once ignored, and its default taken
        (base_config(trails=500), "config has no key 'trails'; expected ['points', "
         "'correlation', 'law', 'c_grid', 'trials', 'seed', 'output']"),
        (base_config(c_grid={"start": 1.0, "stop": 3.0, "step": 0.5, "stpo": 9}),
         "c_grid has no key 'stpo'; expected ['start', 'stop', 'step']"),
        (base_config(output=5), "output must be a file path, got 5"),
        # numbers are JSON numbers: no bool, no numeric string, and an integer
        # beyond double range reads as infinite
        (base_config(law={"family": "chi_square", "nu": True}),
         "law parameter 'nu' must be a number, got True"),
        (base_config(law={"family": "chi_square", "nu": "3"}),
         "law parameter 'nu' must be a number, got '3'"),
        (base_config(law={"family": "chi_square", "nu": 10**400}), "nu must be finite, got inf"),
        (base_config(law={"family": "chi_square", "nu": 3, "scal": 2.0}),
         "law family 'chi_square' has no parameter 'scal'"),
        (base_config(c_grid={"start": True, "stop": 3.0, "step": 0.5}),
         "c_grid start must be a number, got True"),
        (base_config(c_grid={"start": "1", "stop": 3.0, "step": 0.5}),
         "c_grid start must be a number, got '1'"),
        (base_config(c_grid={"start": 1.0, "stop": 10**400, "step": 0.5}),
         "grid start, stop and step must be finite, got 1.0:inf:0.5"),
        ({"points": [[1.0, 0.0], [0.0, True]], "law": {"family": "chi_square", "nu": 3.0}},
         "points entry must be a number, got True"),
        ({"points": [[1.0, 0.0], ["0", 1.0]], "law": {"family": "chi_square", "nu": 3.0}},
         "points entry must be a number, got '0'"),
        (base_config(correlation=[[1.0, "0.25"], [0.25, 1.0]]),
         "correlation entry must be a number, got '0.25'"),
        ({"points": [[1.0, 0.0], [1.0]], "law": {"family": "chi_square", "nu": 3.0}},
         "'points' must be a rectangular array of numbers"),
    ])
    def test_malformed_config_types(self, tmp_path, monkeypatch, capsys, raw, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        argv = ["approx", "--config", str(cfg)]
        monkeypatch.chdir(tmp_path)
        if isinstance(raw, dict) and "output" in raw:
            # an integer output once went to open() as a file descriptor and
            # closed the running process's stdout, so it runs in its own
            proc = subprocess.run(
                [sys.executable, "-m", "spheretail", *argv],
                env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True,
                timeout=120,
            )
            code, out, err = proc.returncode, proc.stdout, proc.stderr
        else:
            code = cli.run(argv)
            out, err = capsys.readouterr()
        assert code == 1
        assert out == "" and err.startswith(f"error: {message}") and err.count("\n") == 1
        assert [path.name for path in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize("command", ["simulate", "threshold"])
    def test_unknown_keys_are_refused(self, tmp_path, capsys, command):
        # this file once ran 10000 trials at seed 0 and exited 0
        cfg = write_config(tmp_path / "cfg.json", trails=500, sead=7,
                           c_grid={"start": 1.0, "stop": 3.0, "step": 0.5, "stpo": 9})
        out = tmp_path / "x.csv"
        extra = ["--target", "1e-3"] if command == "threshold" else []
        assert cli.run([command, "--config", str(cfg), "--out", str(out), *extra]) == 1
        assert capsys.readouterr().err.startswith("error: config has no key 'trails'; ")
        assert [path.name for path in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize("grid, message", [
        ("3:1:0.5", "grid start must be below stop"),
        ("1:2:0", "grid step must be positive"),
        ("1:2:-0.5", "grid step must be positive"),
        ("0:2:0.5", "threshold must be positive"),
        ("-1:2:0.5", "threshold must be positive"),
        ("1:2", "--c-grid expects START:STOP:STEP"),
        ("1:2:0.5:1", "--c-grid expects START:STOP:STEP"),
        ("1:2:x", "grid start, stop and step must be numbers, got '1':'2':'x'"),
    ])
    def test_bad_grid(self, tmp_path, capsys, grid, message):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "x.csv"
        assert cli.run(["approx", "--config", str(cfg), "--out", str(out), f"--c-grid={grid}"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["1:inf:1", "1:2:nan", "1:2:inf", "nan:2:0.5", "inf:2:0.5"])
    def test_non_finite_grid_flag(self, tmp_path, capsys, grid):
        # once "cannot convert float infinity to integer" at exit 2, a NaN
        # conversion message, or a RuntimeWarning and a tail-domain error
        cfg = write_config(tmp_path / "cfg.json")
        code = cli.run(
            ["approx", "--config", str(cfg), "--out", str(tmp_path / "x.csv"), "--c-grid", grid]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: grid start, stop and step must be finite, got ")
        assert err.count("\n") == 1
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("bad", [{"stop": math.inf}, {"step": math.nan}, {"start": -math.inf}])
    def test_non_finite_grid_in_config(self, tmp_path, capsys, bad):
        grid = {"start": 1.0, "stop": 3.0, "step": 0.5, **bad}
        cfg = write_config(tmp_path / "cfg.json", c_grid=grid)  # JSON Infinity / NaN
        for command in ("approx", "error"):
            out = tmp_path / f"{command}.csv"
            assert cli.run([command, "--config", str(cfg), "--out", str(out)]) == 1
            assert "grid start, stop and step must be finite" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("command", ["approx", "exact", "simulate", "error", "reproduce"])
    def test_grid_below_the_spacing_of_doubles(self, tmp_path, capsys, command):
        # the 23 thresholds 1 + k e-17 round to 1 and 1 + 2**-52, so c = 1 would
        # repeat 12 times; every grid command refuses the grid, as flag or in a file
        grid = {"start": 1.0, "stop": 1.0000000000000002, "step": 1e-17}
        cfg = write_config(tmp_path / "cfg.json", c_grid=grid)
        flag = ["--c-grid", "1:1.0000000000000002:1e-17"]
        sources = [["--case", "gauss", *flag]] if command == "reproduce" else [
            ["--config", str(cfg)], ["--config", str(write_config(tmp_path / "ok.json")), *flag]]
        out = tmp_path / "x.csv"
        for source in sources:
            assert cli.run([command, *source, "--out", str(out)]) == 1
            assert capsys.readouterr().err == "error: c_grid must be strictly increasing\n"
            assert not out.exists()

    @pytest.mark.parametrize("command", ["approx", "exact", "simulate", "error", "reproduce"])
    @pytest.mark.parametrize("step", ["1e-9", "5e-324"])
    def test_grid_above_the_row_ceiling(self, tmp_path, capsys, command, step):
        # 1:2:1e-9 holds 10^9 + 1 thresholds (8 GB, once a numpy MemoryError
        # traceback), and 1 / 5e-324 overflows (once exit 2); the count is
        # refused before any grid is allocated, as flag or in a file
        grid = {"start": 1.0, "stop": 2.0, "step": float(step)}
        flag = ["--c-grid", f"1:2:{step}"]
        sources = [["--case", "gauss", *flag]] if command == "reproduce" else [
            ["--config", str(write_config(tmp_path / "cfg.json", c_grid=grid))],
            ["--config", str(write_config(tmp_path / "ok.json")), *flag]]
        out = tmp_path / "x.csv"
        for source in sources:
            tracemalloc.start()
            try:
                code = cli.run([command, *source, "--out", str(out)])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 1
            assert capsys.readouterr().err == (
                f"error: grid 1.0:2.0:{float(step)!r} has more than 100000 thresholds\n"
            )
            assert peak < 2**20
            assert not out.exists()

    def test_grid_at_the_row_ceiling(self):
        assert cli.MAX_GRID_ROWS == 100_000
        last = 1.0 + 0.5 * (cli.MAX_GRID_ROWS - 1)
        assert cli._build_grid(1.0, last, 0.5).size == cli.MAX_GRID_ROWS
        with pytest.raises(ValueError, match="has more than 100000 thresholds"):
            cli._build_grid(1.0, last + 0.5, 0.5)

    def test_numerical_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        def explode(*args, **kwargs):
            raise FloatingPointError("tolerance not reached (estimate 0.1, error bound 0.2)")

        monkeypatch.setattr(cli.excursion, "p_tube", explode)
        cfg = write_config(tmp_path / "cfg.json")
        assert cli.run(["approx", "--config", str(cfg), "--out", "x.csv"]) == 2
        err = capsys.readouterr().err
        assert "numerical failure" in err and "0.1" in err

    def test_arithmetic_error_is_a_numerical_failure(self, tmp_path, capsys, monkeypatch):
        def divide_by_zero(*args, **kwargs):
            raise ZeroDivisionError("float division by zero")

        monkeypatch.setattr(cli.excursion, "p_tube", divide_by_zero)
        cfg = write_config(tmp_path / "cfg.json")
        assert cli.run(["approx", "--config", str(cfg), "--out", "x.csv"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and err.count("\n") == 1

    def test_underflowing_relative_error_exit_code(self, tmp_path, capsys):
        # the Gaussian tail underflows to 0 at c = 40, leaving Delta undefined,
        # and P underflows near c = 37.94 before it reaches the target 1e-320
        cfg = write_config(tmp_path / "cfg.json")
        grid = ["--c-grid", "40:41:1"]
        for argv in (
            ["error", "--config", str(cfg), *grid],
            ["reproduce", "--case", "gauss", "--trials", "100", *grid],
            ["threshold", "--config", str(cfg), "--target", "1e-320"],
        ):
            assert cli.run(argv + ["--out", str(tmp_path / "x.csv")]) == 2
            err = capsys.readouterr().err
            assert err.startswith("numerical failure:") and err.count("\n") == 1


class TestModuleEntryPoints:
    @pytest.mark.parametrize("module", ["spheretail", "spheretail.cli"])
    def test_python_dash_m_writes_the_run_csv(self, tmp_path, module):
        cfg = write_config(
            tmp_path / "cfg.json", c_grid={"start": 1.0, "stop": 2.0, "step": 0.5}
        )
        expected = tmp_path / "run.csv"
        assert cli.run(["approx", "--config", str(cfg), "--out", str(expected)]) == 0
        out = tmp_path / "module.csv"
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.run(
            [sys.executable, "-m", module, "approx", "--config", str(cfg),
             "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert out.read_bytes() == expected.read_bytes()
        assert len(read_csv(out)[1]) == 3


# The 16 threshold solves of the benchmark: each reproduce preset law on its
# three points, two targets, both methods, as the CLI prints them.  A solver
# change that steers to a different last point shows here in the 17th digit.
PINNED_SOLVES = {
    ("t", "0.1", "tube"): "1.628878943026882",
    ("t", "0.1", "exact"): "1.4705703793817282",
    ("t", "0.001", "tube"): "8.5559612115374684",
    ("t", "0.001", "exact"): "8.0201905100966329",
    ("lognormal", "0.1", "tube"): "1.8214953697508611",
    ("lognormal", "0.1", "exact"): "1.7239451558417613",
    ("lognormal", "0.001", "tube"): "4.9151888575688245",
    ("lognormal", "0.001", "exact"): "4.8667645256882315",
    ("bessel", "0.1", "tube"): "1.8835332900642607",
    ("bessel", "0.1", "exact"): "1.7856550090321404",
    ("bessel", "0.001", "tube"): "4.5098817769695163",
    ("bessel", "0.001", "exact"): "4.4938834740383449",
    ("gauss", "0.1", "tube"): "1.8339146358159164",
    ("gauss", "0.1", "exact"): "1.7887562593415784",
    ("gauss", "0.001", "tube"): "3.4029328353853372",
    ("gauss", "0.001", "exact"): "3.401521433180644",
}


@pytest.mark.parametrize("case, target, method", sorted(PINNED_SOLVES))
def test_threshold_solves_are_pinned(tmp_path, capsys, case, target, method):
    cfg = write_config(tmp_path / "cfg.json", law=cli.REPRODUCE_CASES[case]["law"].to_dict())
    argv = ["threshold", "--config", str(cfg), "--target", target, "--method", method]
    assert cli.run(argv) == 0
    assert capsys.readouterr().out == f"c_gamma = {PINNED_SOLVES[case, target, method]}\n"


# sha256 of each reproduce CSV at its preset grid, trials and seed; CI runs
# this test on the installed package as well as on src/.  The bytes rest on
# the BLAS that forms the matrix products, as TestFrozenBits's do, so another
# host may differ (ROADMAP, known risks); such a difference is a finding, not
# a reason to re-pin.
PINNED_REPRODUCE = {
    "t": "71eb28c4715f0bf61af2c64578ce1743b4795972e703ece05798b23f75ca62b8",
    "lognormal": "3154dd51021d5e79de78402b95f77e5f9fdf8c5484654da428d6a1e336c74b21",
    "bessel": "e73c8c58dd6e66e96515f9e65d1f93933df46428f54140a8d85431198891a716",
    "gauss": "b47dc8ad7b527e33c7719ff429547c7236808aac0144f7669818b7f3899be869",
}


@pytest.mark.parametrize("case", sorted(PINNED_REPRODUCE))
def test_reproduce_csvs_are_pinned(tmp_path, case):
    out = tmp_path / f"{case}.csv"
    assert cli.run(["reproduce", "--case", case, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_REPRODUCE[case]


# sha256 of a three-chunk simulate CSV, the last chunk partial, at N = 50
# points in n = 10 dimensions
PINNED_SIMULATE = "cf328edfac3d2ccbdccd152fb509e696dd2c797e1bebadd38f3fe23bace2d193"


def test_multi_chunk_simulate_csv_is_pinned(tmp_path):
    points = np.random.default_rng([10, 50]).standard_normal((50, 10))
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "points": points.tolist(),
        "law": {"family": "f", "nu1": 10.0, "nu2": 3.0},
        "c_grid": {"start": 0.5, "stop": 4.0, "step": 0.5},
        "trials": 40000,
        "seed": 7,
    }))
    out = tmp_path / "simulate.csv"
    assert cli.run(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_SIMULATE


class TestReproduce:
    def test_golden_bit_identical(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        args = ["reproduce", "--case", "gauss", "--c-grid", "2:4:0.5", "--trials", "2000"]
        assert cli.run(args + ["--out", str(out1)]) == 0
        assert cli.run(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_t_case_columns_and_invariants(self, tmp_path):
        out = tmp_path / "t.csv"
        assert cli.run(
            ["reproduce", "--case", "t", "--c-grid", "2:6:1", "--trials", "4000",
             "--out", str(out)]
        ) == 0
        header, rows = read_csv(out)
        assert header[0] == "c" and "delta_pred" in header and "p_lower" in header
        col = {name: idx for idx, name in enumerate(header)}
        for row in rows:
            tube = float(row[col["p_tube"]])
            exact = float(row[col["p_exact"]])
            lower = float(row[col["p_lower"]])
            assert 0.0 <= exact <= tube
            assert lower < tube
            assert row[col["branch"]] == "RV"
        # the prediction column is the constant limiting value, and the
        # exact relative error stabilizes near it as the threshold grows
        preds = {row[col["delta_pred"]] for row in rows}
        assert len(preds) == 1
        limit = float(preds.pop())
        deltas = [float(row[col["delta_exact"]]) for row in rows]
        assert abs(deltas[-1] - limit) < 0.01
        assert abs(deltas[-1] - limit) < abs(deltas[0] - limit)

    def test_gauss_case_slope_from_emitted_data(self, tmp_path):
        out = tmp_path / "gauss.csv"
        assert cli.run(
            ["reproduce", "--case", "gauss", "--c-grid", "4:6:0.5", "--trials", "1000",
             "--out", str(out)]
        ) == 0
        header, rows = read_csv(out)
        col = {name: idx for idx, name in enumerate(header)}
        c_sq = np.array([float(r[col["c"]]) ** 2 for r in rows])
        log_delta = np.array([float(r[col["log_delta_exact"]]) for r in rows])
        slope = np.polyfit(c_sq, log_delta, 1)[0]
        assert abs(slope - (-0.3)) <= 0.15 * 0.3

    def test_seventeen_digit_roundtrip(self, tmp_path):
        out = tmp_path / "g.csv"
        assert cli.run(
            ["reproduce", "--case", "gauss", "--c-grid", "2:3:0.5", "--trials", "1000",
             "--out", str(out)]
        ) == 0
        header, rows = read_csv(out)
        col = {name: idx for idx, name in enumerate(header)}
        config = PointConfiguration.from_correlation(
            [[1.0, 0.25, 0.25], [0.25, 1.0, 0.25], [0.25, 0.25, 1.0]]
        )
        for row in rows:
            c = float(row[col["c"]])
            recomputed = p_tube(config, ChiSquare(3.0), c)
            assert float(row[col["p_tube"]]) == recomputed  # 17 digits are lossless

    def test_cells_match_error_and_simulate(self, tmp_path, capsys):
        # reproduce is the error report of its preset plus simulate's columns
        cfg = write_config(
            tmp_path / "cfg.json",
            law={"family": "f", "nu1": 3.0, "nu2": 3.0},
            c_grid={"start": 2.0, "stop": 4.0, "step": 1.0},
            trials=500,
            seed=3,
        )
        paths = {name: tmp_path / f"{name}.csv" for name in ("reproduce", "error", "simulate")}
        assert cli.run(["reproduce", "--case", "t", "--c-grid", "2:4:1", "--trials", "500",
                        "--seed", "3", "--out", str(paths["reproduce"])]) == 0
        assert capsys.readouterr().out == (
            f"wrote {paths['reproduce']} (3 rows, trials=500, seed=3)\n"
        )
        for name in ("error", "simulate"):
            assert cli.run([name, "--config", str(cfg), "--out", str(paths[name])]) == 0
        tables = []
        for path in paths.values():
            header, rows = read_csv(path)
            tables.append([dict(zip(header, row)) for row in rows])
        assert len(tables[0]) == 3
        for reproduced, error, simulated in zip(*tables):
            assert {name: reproduced[name] for name in error} == error
            assert reproduced["p_sim"] == simulated["p_hat"]
            assert reproduced["se_sim"] == simulated["se"]

    def test_unknown_case_rejected(self):
        with pytest.raises(SystemExit):
            cli.run(["reproduce", "--case", "cauchy"])
