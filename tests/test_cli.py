import csv
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from jacobigreedy.cli import COMMANDS, build_parser, emit_plot_data, main
from jacobigreedy.experiments import SlopeFit
from jacobigreedy.quadrature import ConvergenceError

FAST_WITNESS = ["--N-min", "8", "--N-max", "32", "--samples", "8", "--tol", "1e-5"]
SRC = Path(__file__).resolve().parent.parent / "src"


def run(argv):
    return main(argv)


class TestExitCodes:
    def test_witness_p2(self, tmp_path, capsys):
        code = run(["witness", "--alpha", "0", "--beta", "0", "--p", "2", "--seed", "1",
                    *FAST_WITNESS, "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "gap=" in out

    def test_block_sum_p_outside_range(self, tmp_path):
        code = run(["block-sum", "--alpha", "0", "--beta", "0", "--p", "5",
                    "--out", str(tmp_path)])
        assert code == 2

    @pytest.mark.parametrize("command", ["average-block", "witness"])
    def test_samples_below_one(self, tmp_path, capsys, command):
        code = run([command, "--p", "3", "--N-max", "16", "--samples", "0", "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: samples must be >= 1")

    @pytest.mark.parametrize(
        "argv",
        [
            ["block-sum", "--tol", "0"],  # p = 2 integrates nothing, so no later check sees tol
            ["block-sum", "--p", "3", "--tol", "nan"],
            ["witness", "--p", "3", "--tol", "-1"],
        ],
    )
    def test_tol_not_positive(self, tmp_path, capsys, argv):
        assert run([*argv, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: tol=") and "must be > 0" in err
        assert not (tmp_path / f"{argv[0]}.csv").exists()

    @pytest.mark.parametrize("payload", [[1, 2], "p=3", None])
    def test_config_not_an_object(self, tmp_path, capsys, payload):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(payload))
        assert run(["norms", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "must hold a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["block-sum", "--tol", "inf"], ["witness", "--p", "3", "--tol", "inf"]],
    )
    def test_tol_not_finite(self, tmp_path, capsys, argv):
        assert run([*argv, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: tol=inf must be > 0 and finite")
        assert not (tmp_path / f"{argv[0]}.csv").exists()

    @pytest.mark.parametrize("command", ["norms", "witness"])
    @pytest.mark.parametrize("p", ["nan", "inf"])
    def test_p_not_finite(self, tmp_path, capsys, command, p):
        assert run([command, "--p", p, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: p={p} must be finite")
        assert not (tmp_path / f"{command}.csv").exists()

    @pytest.mark.parametrize(
        "payload, shown",
        [({"p": None}, "p=null"), ({"N_min": [1]}, "N_min=[1]"), ({"out": None}, "out=null"),
         ({"p": True}, "p=true")],
    )
    def test_config_value_of_wrong_type(self, tmp_path, capsys, payload, shown):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(payload))
        argv = ["block-sum", "--config", str(cfg)]
        if "out" not in payload:
            argv += ["--out", str(tmp_path)]
        assert run(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {shown} is not a valid ")
        assert not (tmp_path / "block-sum.csv").exists()

    @pytest.mark.parametrize(
        "payload, shown",
        [({"N_min": 8.7}, "N_min=8.7"), ({"N_max": True}, "N_max=true"), ({"seed": 1.5}, "seed=1.5"),
         ({"samples": float("inf")}, "samples=Infinity")],
    )
    def test_config_int_not_integral(self, tmp_path, capsys, payload, shown):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(payload))
        assert run(["average-block", "--p", "3", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: {shown} is not a valid int\n"
        assert not (tmp_path / "average-block.csv").exists()

    def test_config_int_integral_float_accepted(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"N_min": 8.0, "N_max": 16.0, "tol": 1e-5}))
        assert run(["block-sum", "--p", "3", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        echo = json.loads((tmp_path / "manifest.json").read_text())["config"]
        assert (echo["N_min"], echo["N_max"]) == (8, 16)

    @pytest.mark.parametrize(
        "argv, seed",
        [(["witness", "--p", "3", "--seed", "-1"], -1), (["average-block", "--p", "3", "--seed", "-3"], -3),
         (["average-block", "--p", "3", "--config"], -2), (["witness", "--p", "3", "--config"], -4)],
    )
    def test_negative_seed(self, tmp_path, capsys, argv, seed):
        if argv[-1] == "--config":
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"seed": seed}))
            argv = [*argv, str(cfg)]
        assert run([*argv, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: seed={seed} must be >= 0\n"
        assert not (tmp_path / f"{argv[0]}.csv").exists()

    @pytest.mark.parametrize("d", ["nan", "inf"])
    def test_near_one_d_not_finite(self, tmp_path, capsys, d):
        assert run(["near-one", "--d", d, "--n-max", "40", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: d={d} must be finite and > 0")
        assert not (tmp_path / "near-one.csv").exists()

    def test_near_one_d_too_wide(self, tmp_path, capsys):
        assert run(["near-one", "--d", "300", "--n-min", "10", "--n-max", "20", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: d=300 is wider than 2 n^2 = 200 at n = 10\n"
        assert not (tmp_path / "near-one.csv").exists()

    @pytest.mark.parametrize(
        "argv, message",
        [pytest.param(argv, message, id=argv[0]) for argv, message in [
            (["near-one", "--alpha", "300", "--n-min", "10", "--n-max", "40"],  # OverflowError
             "n^alpha overflows at n = 20, alpha = 300"),
            (["average-block", "--alpha", "300", "--p", "1.5", "--N-min", "256", "--N-max", "512",
              "--samples", "4"], "Jacobi recurrence overflowed"),  # EvaluationError, a ValueError
            (["darboux-check", "--alpha", "300", "--n-min", "2048", "--n-max", "4096"],
             "Jacobi recurrence overflowed"),
            (["norms", "--alpha", "300", "--p", "3", "--n-min", "2048", "--n-max", "4096"],
             "Jacobi recurrence overflowed"),
        ]] + [
            # P_n is finite here, but k(theta) = sin(theta/2)^-300.5 ... is not: no NaN rows
            pytest.param(["darboux-check", "--alpha", "300", "--n-min", "16", "--n-max", "64"],
                         "Darboux amplitude k(theta) overflows at theta = 0.1, alpha = 300, beta = 0\n",
                         id="darboux-check-amplitude"),
        ],
    )
    def test_numerical_failure_exits_3(self, tmp_path, capsys, argv, message):
        # the isfinite check reports an overflow once: numpy warns of none on the way
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run([*argv, "--out", str(tmp_path)]) == 3
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not (tmp_path / f"{argv[0]}.csv").exists()

    def test_invalid_alpha(self, tmp_path):
        code = run(["norms", "--alpha", "-2", "--out", str(tmp_path)])
        assert code == 2

    def test_unknown_flag(self):
        assert run(["norms", "--bogus", "1"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [["norms", "--tol", "1e-5"], ["norms", "--mode", "lp"], ["near-one", "--p", "3"],
         ["witness", "--mode", "orthonormal"], ["block-sum", "--mode", "orthonormal"],
         ["darboux-check", "--samples", "8"], ["block-sum", "--seed", "1"],
         ["witness", "--sam", "8"]],  # a prefix is not the flag
        ids=lambda argv: " ".join(argv[:2]),
    )
    def test_flag_the_command_does_not_read(self, tmp_path, capsys, argv):
        assert run([*argv, "--out", str(tmp_path / "out")]) == 2
        assert f"unrecognized arguments: {' '.join(argv[1:])}\n" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_each_command_takes_only_the_flags_it_reads(self):
        flags = {  # seed only where the command or the benchmark's argv needs it
            "norms": "seed p n-min n-max",
            "block-sum": "p tol N-min N-max",
            "average-block": "seed p mode samples tol N-min N-max",
            "near-one": "seed n-min n-max d",
            "witness": "seed p samples tol N-min N-max",
            "darboux-check": "seed n-min n-max",
        }
        assert flags.keys() == COMMANDS.keys()
        every = {f for own in flags.values() for f in own.split()} | {"alpha", "beta", "out", "config"}
        for command, own in flags.items():
            taken = set()
            for flag in sorted(every):
                try:
                    build_parser().parse_args([command, "--" + flag, "1"])
                    taken.add(flag)
                except SystemExit:
                    pass
            assert taken == {*own.split(), "alpha", "beta", "out", "config"}, command
            assert {k.replace("_", "-") for k in COMMANDS[command].keys} == taken - {"out", "config"}

    def test_unknown_command(self):
        assert run(["frobnicate"]) == 2
        assert run(["identity-check"]) == 2  # the identity is fuzzed by acceptance criterion 9, not a command


class TestOutputs:
    def test_witness_files_and_headers(self, tmp_path):
        code = run(["witness", "--alpha", "0", "--beta", "0", "--p", "3", "--seed", "1",
                    *FAST_WITNESS, "--out", str(tmp_path)])
        assert code == 0
        for name in ("witness.csv", "witness.json", "manifest.json", "witness.dat", "witness.fit"):
            assert (tmp_path / name).exists()
        header = (tmp_path / "witness.csv").read_text().splitlines()[0]
        assert header == ",".join(COMMANDS["witness"].header)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "witness"
        assert manifest["config"]["p"] == 3.0
        assert "output_dir" not in manifest  # the manifest records no output location

    @pytest.mark.parametrize(
        "cmd,args",
        [
            ("block-sum", ["--p", "2", "--N-min", "8", "--N-max", "64"]),  # Parseval sums
            ("darboux-check", ["--n-min", "16", "--n-max", "64"]),
            ("near-one", ["--n-min", "10", "--n-max", "80"]),
        ],
    )
    def test_light_commands(self, tmp_path, cmd, args):
        code = run([cmd, *args, "--out", str(tmp_path)])
        assert code == 0
        header = (tmp_path / f"{cmd}.csv").read_text().splitlines()[0]
        assert header == ",".join(COMMANDS[cmd].header)

    def test_norms_small(self, tmp_path):
        code = run(["norms", "--p", "3", "--n-min", "16", "--n-max", "64", "--out", str(tmp_path)])
        assert code == 0
        summary = json.loads((tmp_path / "norms.json").read_text())
        assert summary["regime"] == "bounded"


class TestCrossCommand:
    def test_block_sum_equals_witness_block_norm(self, tmp_path):
        # the witness-p3 golden's grid; both commands take the norm from quadrature.family_norms
        grid = ["--alpha", "0", "--beta", "0", "--p", "3", "--N-min", "8", "--N-max", "32",
                "--tol", "1e-5"]
        assert run(["block-sum", *grid, "--out", str(tmp_path / "block")]) == 0
        assert run(["witness", *grid, "--seed", "1", "--samples", "8",
                    "--out", str(tmp_path / "witness")]) == 0
        read = lambda name: list(csv.DictReader((tmp_path / name).read_text().splitlines()))
        block, witness = read("block/block-sum.csv"), read("witness/witness.csv")
        assert [r["N"] for r in block] == [r["N"] for r in witness] == ["8", "16", "32"]
        assert [float(r["norm"]) for r in block] == [float(r["block_norm"]) for r in witness]


class TestReproducibility:
    def test_identical_csv_bytes(self, tmp_path):
        args = ["witness", "--alpha", "0", "--beta", "0", "--p", "3", "--seed", "7",
                *FAST_WITNESS]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run([*args, "--out", str(a)]) == 0
        assert run([*args, "--out", str(b)]) == 0
        assert (a / "witness.csv").read_bytes() == (b / "witness.csv").read_bytes()
        assert (a / "witness.json").read_bytes() == (b / "witness.json").read_bytes()

    def test_manifest_round_trip(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["average-block", "--p", "3", "--N-min", "4", "--N-max", "16",
                "--samples", "8", "--seed", "2", "--tol", "1e-5"]
        assert run([*args, "--out", str(a)]) == 0
        assert run(["average-block", "--config", str(a / "manifest.json"),
                    "--out", str(b)]) == 0
        assert (a / "average-block.csv").read_bytes() == (b / "average-block.csv").read_bytes()

    @staticmethod
    def check_manifest_of(tmp_path, command, flags, old_mode):
        """The manifest records the keys the command read, and no mode: none of
        block-sum, witness and norms has more than one way to run. A manifest from
        an earlier version, which recorded a mode and every other key, still
        loads and reproduces the CSV."""
        a, b = tmp_path / "a", tmp_path / "b"
        assert run([command, *flags, "--out", str(a)]) == 0
        manifest = json.loads((a / "manifest.json").read_text())
        assert "mode" not in manifest["config"]
        assert manifest["config"].keys() == COMMANDS[command].keys.keys()
        assert json.loads((a / f"{command}.json").read_text())["config"] == manifest["config"]
        manifest["config"] = {"mode": old_mode, "tol": 1e-5, "samples": 8, **manifest["config"]}
        old = tmp_path / "old-manifest.json"
        old.write_text(json.dumps(manifest))
        assert run([command, "--config", str(old), "--out", str(b)]) == 0
        assert (a / f"{command}.csv").read_bytes() == (b / f"{command}.csv").read_bytes()

    def test_block_sum_manifest_records_mode_that_ran(self, tmp_path):
        flags = ["--p", "3", "--N-min", "8", "--N-max", "16", "--tol", "1e-5"]
        self.check_manifest_of(tmp_path, "block-sum", flags, "orthonormal")

    def test_witness_manifest_records_mode_that_ran(self, tmp_path):
        self.check_manifest_of(tmp_path, "witness", ["--p", "3", *FAST_WITNESS], "orthonormal")

    def test_norms_manifest_records_mode_that_ran(self, tmp_path):
        flags = ["--p", "3", "--n-min", "8", "--n-max", "16"]
        self.check_manifest_of(tmp_path, "norms", flags, "lp")

    def test_manifest_independent_of_output_path(self, tmp_path):
        args = ["darboux-check", "--n-min", "16", "--n-max", "32"]
        short, long = tmp_path / "a", tmp_path / "a-much-longer-output-directory" / "b"
        texts = []
        for out in (short, long):
            assert run([*args, "--out", str(out)]) == 0
            lines = (out / "manifest.json").read_text().splitlines()
            stamps = [i for i, line in enumerate(lines) if line.startswith('  "timestamp": ')]
            assert len(stamps) == 1
            del lines[stamps[0]]
            texts.append(lines)
        assert texts[0] == texts[1]

    def test_manifest_with_removed_threads_key_loads(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["norms", "--n-min", "8", "--n-max", "32", "--p", "3"]
        assert run([*args, "--out", str(a)]) == 0
        manifest = json.loads((a / "manifest.json").read_text())
        assert "threads" not in manifest["config"]
        manifest["config"]["threads"] = 8  # written by earlier versions
        old = tmp_path / "old-manifest.json"
        old.write_text(json.dumps(manifest))
        assert run(["norms", "--config", str(old), "--out", str(b)]) == 0
        assert (a / "norms.csv").read_bytes() == (b / "norms.csv").read_bytes()
        assert (a / "norms.json").read_bytes() == (b / "norms.json").read_bytes()
        assert "threads" not in json.loads((b / "manifest.json").read_text())["config"]


class TestPlotData:
    def test_round_trip(self, tmp_path):
        fit = SlopeFit(xs=(8.0, 16.0, 32.0), ys=(1.5, 2.25, 3.375),
                       slope=0.585, intercept=-0.1, max_residual=0.01)
        path = tmp_path / "demo.dat"
        emit_plot_data(fit, path)
        data = np.loadtxt(path)
        assert data.shape == (3, 2)
        np.testing.assert_allclose(10 ** data[:, 1], fit.ys, rtol=1e-12)
        sidecar = (tmp_path / "demo.fit").read_text()
        assert sidecar.startswith("slope ")

    def test_empty_fit_raises(self, tmp_path):
        fit = SlopeFit(xs=(), ys=(), slope=0.0, intercept=0.0, max_residual=0.0)
        with pytest.raises(ConvergenceError):
            emit_plot_data(fit, tmp_path / "none.dat")
        assert not (tmp_path / "none.dat").exists()


class TestImportPath:
    def test_commands_load_no_scipy(self, tmp_path):
        # in a fresh interpreter, the package and three commands on tiny grids load numpy, not scipy
        script = "\n".join([
            "import sys",
            "import jacobigreedy",
            "from jacobigreedy.cli import main",
            "out = sys.argv[1]",
            "assert main(['norms', '--alpha', '1', '--beta', '0.5', '--n-min', '16', '--n-max', '32',"
            " '--out', out + '/norms']) == 0",
            "assert main(['near-one', '--n-min', '10', '--n-max', '40', '--out', out + '/near-one']) == 0",
            "assert main(['witness', '--N-min', '8', '--N-max', '16', '--samples', '4', '--tol', '1e-4',"
            " '--out', out + '/witness']) == 0",
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))",
        ])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env, capture_output=True,
                              text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"


class TestEntryPoint:
    @pytest.mark.parametrize("extra, code", [([], 0), (["--bogus", "1"], 2)], ids=["runs", "unknown-flag"])
    def test_module_exits_with_mains_code(self, tmp_path, extra, code):
        # `python -m jacobigreedy.cli`, as the console script runs it: the exit code is main()'s
        argv = ["witness", "--p", "3", "--N-min", "8", "--N-max", "16", "--samples", "4", "--tol", "1e-5",
                *extra, "--out", str(tmp_path / "out")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-m", "jacobigreedy.cli", *argv], env=env, capture_output=True,
                              text=True, timeout=300)
        assert done.returncode == code, done.stderr
        assert (tmp_path / "out" / "witness.csv").is_file() == (code == 0)

    def test_one_parser_per_process_writes_what_fresh_interpreters_do(self, tmp_path):
        # main builds its parser once per process: a run after one whose --d failed to parse (exit 2), and
        # with no --d of its own, writes the files of a fresh `python -m jacobigreedy.cli`, timestamp aside
        runs = {"d": ["near-one", "--d", "0.25"], "default": ["near-one"]}
        assert run([*runs["d"], "--out", str(tmp_path / "one" / "d")]) == 0
        assert run(["near-one", "--d", "wide"]) == 2
        assert run([*runs["default"], "--out", str(tmp_path / "one" / "default")]) == 0
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
        for key, argv in runs.items():
            one, fresh = tmp_path / "one" / key, tmp_path / "fresh" / key
            done = subprocess.run([sys.executable, "-m", "jacobigreedy.cli", *argv, "--out", str(fresh)], env=env,
                                  capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr
            for name in ("near-one.csv", "near-one.json"):
                assert (one / name).read_bytes() == (fresh / name).read_bytes()
            manifests = [json.loads((side / "manifest.json").read_text()) for side in (one, fresh)]
            for m in manifests:
                del m["timestamp"]
            assert manifests[0] == manifests[1]

    @pytest.mark.parametrize("argv", [["norms", "--p", "3", "--n-min", "256", "--n-max", "512"],
                                      ["witness", "--p", "2", "--N-min", "8", "--N-max", "16", "--samples", "4"]],
                             ids=["norms", "witness-p2"])
    def test_commands_leave_numpy_ma_unloaded(self, tmp_path, argv):
        # a plain np.unique imports numpy.ma on its first call, 8-11 ms of a fresh process; these commands need none
        script = "import sys; from jacobigreedy.cli import main; code = main(sys.argv[1:]); " \
                 "print('numpy.ma' in sys.modules); sys.exit(code)"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", script, *argv, "--out", str(tmp_path / "out")], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "False"
