import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from circdirac import cli
from circdirac.cli import build_parser, main
from circdirac.dirac import DiracOperator, eigenvalue_count
from circdirac.ensembles import (KNMeasureSampler, SeedSpec, SinePathSpec, sample_sine_operator,
                                 sine_replicas)

TWO_PI = 2.0 * math.pi


def source_env():
    """The environment with this checkout's package first on PYTHONPATH."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    return env


def write_lattice_measure(path, n=4, theta=math.pi / 3):
    angles = [(theta + TWO_PI * k) / n for k in range(n)]
    path.write_text(json.dumps({"angles": angles, "weights": [1.0 / n] * n}))
    return theta


class TestSpectrum:
    def test_lattice_measure_right_side(self, tmp_path):
        mfile = tmp_path / "lattice.json"
        theta = write_lattice_measure(mfile)
        out = tmp_path / "spec.json"
        rc = main(["spectrum", "--measure", str(mfile), "--window", "-10", "10",
                   "--side", "right", "--out", str(out)])
        assert rc == 0
        d = json.loads(out.read_text())
        assert d["side"] == "right"
        lam = [a[0] for a in d["atoms"]]
        w = [a[1] for a in d["atoms"]]
        expected = [theta - TWO_PI, theta, theta + TWO_PI]
        np.testing.assert_allclose(lam, expected, atol=1e-10)
        np.testing.assert_allclose(w, 2.0, atol=1e-9)

    def test_operator_file_route(self, tmp_path):
        op = {"grid": [0.0, 0.5, 1.0], "path": [[0.0, 1.0], [0.0, 1.0]],
              "u0": [1.0, 0.0], "u1": "infinity", "origin": "custom"}
        opfile = tmp_path / "op.json"
        opfile.write_text(json.dumps(op))
        out = tmp_path / "spec.json"
        rc = main(["spectrum", "--operator", str(opfile), "--window", "-1", "1",
                   "--side", "right", "--out", str(out)])
        assert rc == 0
        d = json.loads(out.read_text())
        assert any(abs(a[0]) < 1e-10 for a in d["atoms"])


class TestPipelines:
    def test_palm_then_measure_charges_zero(self, tmp_path):
        kn = tmp_path / "kn.json"
        palm = tmp_path / "palm.json"
        mu = tmp_path / "mu.json"
        assert main(["kn-sample", "--n", "5", "--beta", "2", "--seed", "11",
                     "--out", str(kn)]) == 0
        assert main(["palm", "--coeffs", str(kn), "--out", str(palm)]) == 0
        assert main(["measure", "--coeffs", str(palm), "--out", str(mu)]) == 0
        d = json.loads(mu.read_text())
        dist = [abs((a + math.pi) % TWO_PI - math.pi) for a in d["angles"]]
        assert min(dist) < 1e-9

    def test_measure_file_roundtrip(self, tmp_path):
        kn = tmp_path / "kn.json"
        mu = tmp_path / "mu.json"
        back = tmp_path / "back.json"
        main(["kn-sample", "--n", "4", "--beta", "2", "--seed", "3",
              "--out", str(kn)])
        main(["measure", "--coeffs", str(kn), "--out", str(mu)])
        main(["measure", "--measure", str(mu), "--kind", "modified", "--out", str(back)])
        a = json.loads(kn.read_text())["values"]
        b = json.loads(back.read_text())["values"]
        err = max(abs(complex(*x) - complex(*y)) for x, y in zip(a, b))
        assert err < 1e-9

    def test_aleksandrov_identity(self, tmp_path):
        kn = tmp_path / "kn.json"
        out = tmp_path / "rot.json"
        main(["kn-sample", "--n", "4", "--beta", "2", "--seed", "5",
              "--out", str(kn)])
        main(["aleksandrov", "--coeffs", str(kn), "--eta", "0.0", "--out", str(out)])
        a = json.loads(kn.read_text())["values"]
        b = json.loads(out.read_text())["values"]
        err = max(abs(complex(*x) - complex(*y)) for x, y in zip(a, b))
        assert err < 1e-12

    def test_sine_beta_writes_operator_and_spectrum(self, tmp_path):
        rc = main(["sine-beta", "--beta", "2", "--cells", "64", "--seed", "3",
                   "--window", "0", "10", "--out", str(tmp_path / "sine")])
        assert rc == 0
        op = json.loads((tmp_path / "sine.operator.json").read_text())
        assert len(op["steps"]) == 64
        assert op["origin"] == "sine-beta"
        sp = json.loads((tmp_path / "sine.spectrum.json").read_text())
        assert sp["window"] == [0.0, 10.0]

    def test_sine_beta_infinity_slope(self, tmp_path):
        out = tmp_path / "sine"
        assert main(["sine-beta", "--beta", "4", "--cells", "64", "--seed", "3",
                     "--stream", "2", "--q", "inf", "--out", str(out)]) == 0
        op = json.loads(Path(f"{out}.operator.json").read_text())
        assert op["u1"] == "infinity"
        want = sample_sine_operator(SinePathSpec(beta=4.0, cells=64, q=math.inf),
                                    SeedSpec(3, 2))
        assert op == json.loads(json.dumps(want.to_dict()))

    def test_bias_outputs(self, tmp_path):
        rc = main(["bias", "--n", "4", "--beta", "2", "--epsilon", "0.4",
                   "--replicas", "200", "--seed", "5",
                   "--out", str(tmp_path / "bias")])
        assert rc == 0
        rows = (tmp_path / "bias.csv").read_text().splitlines()
        assert rows[0] == "replica,importance_weight,gamma0_re,gamma0_im"
        assert len(rows) == 201
        summary = json.loads((tmp_path / "bias.json").read_text())
        assert summary["experiment"] == "bias"
        assert summary["seed"] == 5
        assert "gamma_0" in summary["ks_to_direct_law"]

    def test_bias_defaults(self, tmp_path):
        rc = main(["bias", "--seed", "5", "--out", str(tmp_path / "b")])
        assert rc == 0
        summary = json.loads((tmp_path / "b.json").read_text())
        assert (summary["n"], summary["beta"], summary["replicas"],
                summary["epsilon"]) == (6, 2.0, 10_000, 0.1)
        assert len((tmp_path / "b.csv").read_text().splitlines()) == 10_001

    @pytest.mark.parametrize("flag, value", [("--beta", "-1")])
    def test_bias_rejects_bad_input(self, tmp_path, capsys, flag, value):
        argv = ["bias", "--n", "4", "--beta", "2", "--epsilon", "0.4",
                "--replicas", "50", "--seed", "5", "--out", str(tmp_path / "b")]
        argv[argv.index(flag) + 1] = value
        assert main(argv) == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ValueError"

    def test_bias_checks_epsilon_before_drawing(self, tmp_path, capsys,
                                                monkeypatch):
        calls = []
        draw = KNMeasureSampler.gammas_for
        monkeypatch.setattr(KNMeasureSampler, "gammas_for",
                            lambda self, *a: calls.append(a) or draw(self, *a))
        with pytest.raises(SystemExit) as exc:
            main(["bias", "--n", "6", "--epsilon", "0", "--replicas", "50",
                  "--seed", "5", "--out", str(tmp_path / "b")])
        assert exc.value.code == 2
        assert "--epsilon: must be finite and positive" in capsys.readouterr().err
        assert calls == []

    def test_bias_refuses_negative_seed_like_seedsequence(self, tmp_path, capsys):
        rc = main(["bias", "--n", "6", "--epsilon", "0.1", "--replicas", "50",
                   "--seed", "-1", "--out", str(tmp_path / "b")])
        assert rc == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record == {"error": "ValueError",
                          "message": "expected non-negative integer"}

    def test_bias_single_coefficient(self, tmp_path):
        rc = main(["bias", "--n", "1", "--epsilon", "0.1", "--replicas", "100",
                   "--seed", "5", "--out", str(tmp_path / "b")])
        assert rc == 0
        summary = json.loads((tmp_path / "b.json").read_text())
        assert summary["ks_to_direct_law"] == {}

    def test_kn_sample_and_bias_refuse_coefficients_on_the_circle_by_one_rule(
            self, tmp_path, capsys):
        # at beta = 0.1 a draw can hold interior |gamma_k| that round to 1;
        # one sequence and a bias batch are refused by the same rule, its
        # record counting the rows, with no warning first and no output
        rule = "rows hold an interior |coefficient| not below 1 in double"
        for argv, count in ((["kn-sample", "--stream", "6"], "1 of 1"),
                            (["bias", "--replicas", "4000"], "542 of 4000")):
            out = tmp_path / argv[0]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rc = main([*argv, "--n", "6", "--beta", "0.1", "--seed", "3",
                           "--out", str(out)])
            assert rc == 1
            record = json.loads(capsys.readouterr().err.strip())
            assert record == {"error": "ValueError",
                              "message": f"conditioning: {count} {rule}"}
            assert not list(tmp_path.iterdir())


class TestExperiments:
    @pytest.mark.parametrize("argv, keys", [
        (["bias-trend", "--replicas", "300", "--seed", "7"],
         {"experiment", "n", "beta", "replicas", "seed", "epsilon", "max_ks",
          "monotone_decreasing"}),
        (["sine-intensity", "--cells", "64", "--replicas", "4", "--seed", "7"],
         {"experiment", "beta", "t_min", "cells", "replicas", "seed", "window",
          "mean_count", "mc_standard_error", "expected"}),
    ], ids=["bias_trend", "sine_intensity"])
    def test_experiment_runs(self, tmp_path, argv, keys):
        out = tmp_path / "run"
        assert main([*argv, "--out", str(out)]) == 0
        assert set(json.loads(Path(f"{out}.json").read_text())) == keys
        assert Path(f"{out}.csv").exists()

    def test_bias_trend_is_bias_over_epsilons(self, tmp_path):
        # one draw recipe: at each epsilon the trend's max_ks is the largest
        # of bias's per-coordinate KS distances, bit for bit
        common = ["--n", "4", "--replicas", "400", "--seed", "9"]
        eps = [0.4, 0.2]
        assert main(["bias-trend", *common, "--eps", *map(str, eps),
                     "--out", str(tmp_path / "t")]) == 0
        trend = json.loads((tmp_path / "t.json").read_text())
        for e, max_ks in zip(eps, trend["max_ks"]):
            assert main(["bias", *common, "--epsilon", str(e),
                         "--out", str(tmp_path / "b")]) == 0
            ks = json.loads((tmp_path / "b.json").read_text())["ks_to_direct_law"]
            assert max_ks == max(d[part] for d in ks.values() for part in ("re", "im"))

    def test_sine_intensity_counts_each_replica(self, tmp_path):
        # the replicas cross a block boundary; each count is the one of
        # the operator that sine-beta --stream i draws
        from circdirac import dirac, ensembles

        replicas = ensembles._BLOCK_ROWS + 3
        out = tmp_path / "si"
        assert main(["sine-intensity", "--cells", "64", "--replicas", str(replicas),
                     "--seed", "11", "--out", str(out)]) == 0
        spec = SinePathSpec(beta=2.0, cells=64)
        counts = [dirac.eigenvalue_count(sample_sine_operator(spec, SeedSpec(11, i)),
                                         (0.0, 20.0 * math.pi)) for i in range(replicas)]
        assert Path(f"{out}.csv").read_text().splitlines() == [
            "replica,count", *(f"{i},{c}" for i, c in enumerate(counts))]
        summary = json.loads(Path(f"{out}.json").read_text())
        assert summary["mean_count"] == np.mean(counts)

    def test_drawn_seed_is_recorded(self, tmp_path, capsys):
        out = tmp_path / "si"
        assert main(["sine-intensity", "--cells", "16", "--replicas", "2",
                     "--out", str(out)]) == 0
        seed = int(capsys.readouterr().out.split()[1])
        assert json.loads(Path(f"{out}.json").read_text())["seed"] == seed


class TestVerifyCommand:
    def test_core_suite_is_deterministic(self, tmp_path):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        rc1 = main(["verify", "--suite", "core", "--seed", "7", "--jobs", "1",
                    "--out", str(out1)])
        rc2 = main(["verify", "--suite", "core", "--seed", "7", "--jobs", "1",
                    "--out", str(out2)])
        assert rc1 == 0 and rc2 == 0
        assert out1.read_bytes() == out2.read_bytes()
        report = json.loads(out1.read_text())
        assert report["all_pass"] is True
        assert report["suite"] == "core"

    def test_seed_required(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "core", "--jobs", "1",
                  "--out", str(tmp_path / "r.json")])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()


class TestErrorHandling:
    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["kn-sample", "--n", "3", "--beta", "2", "--seed", "1",
                  "--out", "x.json", "--bogus"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("jobs", ["0", "-3", "two"])
    def test_jobs_below_one_is_usage_error(self, tmp_path, jobs):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "core", "--seed", "7", "--jobs", jobs,
                  "--out", str(tmp_path / "r.json")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["sine-intensity", "--cells", "16", "--replicas", "1"],
        ["sine-intensity", "--cells", "16", "--replicas", "0"],
        ["bias", "--replicas", "0"],
        ["bias-trend", "--replicas", "0"],
    ], ids=["sine-intensity-1", "sine-intensity-0", "bias-0", "bias-trend-0"])
    def test_too_few_replicas_is_usage_error(self, tmp_path, argv):
        # sine-intensity needs two replicas for its standard error
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--seed", "1", "--out", str(out)])
        assert exc.value.code == 2
        assert not Path(f"{out}.json").exists()

    @pytest.mark.parametrize("argv, message", [
        (["kn-sample", "--n", "0", "--beta", "2"], "--n: must be at least 1"),
        (["bias", "--n", "0"], "--n: must be at least 1"),
        (["bias-trend", "--n", "0"], "--n: must be at least 1"),
        (["sine-beta", "--beta", "2", "--cells", "1"], "--cells: must be at least 2"),
        (["sine-intensity", "--cells", "1"], "--cells: must be at least 2"),
    ], ids=["kn-sample-n-0", "bias-n-0", "bias-trend-n-0", "sine-beta-cells-1",
            "sine-intensity-cells-1"])
    def test_size_below_its_floor_is_usage_error(self, tmp_path, capsys, argv, message):
        # these sizes used to reach the library and exit 1 with a runtime record
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--seed", "1", "--out", str(out)])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", ["inf", "nan", "0", "-1"])
    @pytest.mark.parametrize("argv", [["bias", "--epsilon"], ["bias-trend", "--eps", "0.3"]],
                             ids=["bias", "bias-trend"])
    def test_epsilon_must_be_finite_and_positive(self, tmp_path, capsys, argv, value):
        # inf used to write "epsilon": Infinity, which is not JSON, and nan
        # failed as an empty biasing event
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main([*argv, value, "--n", "3", "--replicas", "50", "--seed", "1",
                  "--out", str(out)])
        assert exc.value.code == 2
        assert "must be finite and positive" in capsys.readouterr().err
        assert not Path(f"{out}.json").exists()

    def test_jobs_only_on_pool_commands(self, tmp_path):
        mfile = tmp_path / "lattice.json"
        write_lattice_measure(mfile)
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--measure", str(mfile), "--window", "-1", "1",
                  "--jobs", "2", "--out", str(tmp_path / "s.json")])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["bias", "--n", "3", "--replicas", "10", "--jobs", "2",
                  "--seed", "1", "--out", str(tmp_path / "b")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command in ("measure", "spectrum", "palm", "aleksandrov")
        for flag in ("--seed", "--stream")
    ] + [("bias", "--stream"), ("verify", "--stream")])
    def test_ignored_seed_flags_are_usage_errors(self, command, flag, tmp_path,
                                                 monkeypatch):
        monkeypatch.chdir(tmp_path)  # a command that does run writes here
        argv = {"measure": ["--coeffs", "c.json", "--out", "o.json"],
                "spectrum": ["--measure", "m.json", "--window", "-1", "1",
                             "--out", "o.json"],
                "palm": ["--coeffs", "c.json", "--out", "o.json"],
                "aleksandrov": ["--coeffs", "c.json", "--eta", "0",
                                "--out", "o.json"],
                "bias": ["--out", "b"],
                "verify": ["--seed", "7"]}[command]
        build_parser().parse_args([command, *argv])
        with pytest.raises(SystemExit) as exc:
            main([command, *argv, flag, "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["bias", "sine-beta"])
    def test_config_is_unknown_flag(self, tmp_path, command):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"beta": 2, "cells": 32}))
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(cfg), "--seed", "1",
                  "--out", str(tmp_path / "o")])
        assert exc.value.code == 2

    def test_sine_beta_requires_beta(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["sine-beta", "--cells", "16", "--seed", "1",
                  "--out", str(tmp_path / "sine")])
        assert exc.value.code == 2
        assert not (tmp_path / "sine.operator.json").exists()

    def test_unknown_suite_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "bogus", "--seed", "1"])
        assert exc.value.code == 2

    def test_import_does_not_load_scipy_stats(self):
        code = ("import sys, circdirac.cli; "
                "print(sorted(m for m in ('scipy.stats', 'circdirac.verify', "
                "'circdirac.stats') if m in sys.modules))")
        proc = subprocess.run([sys.executable, "-c", code], env=source_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_import_builds_no_parser(self):
        code = "import circdirac.cli as c; print(c._parser.cache_info().currsize)"
        proc = subprocess.run([sys.executable, "-c", code], env=source_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0"

    def test_main_builds_the_parser_once(self, tmp_path, monkeypatch):
        built = []

        def counting_build_parser():
            built.append(None)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counting_build_parser)
        cli._parser.cache_clear()
        kn = tmp_path / "kn.json"
        for stream in range(3):
            assert main(["kn-sample", "--n", "3", "--beta", "2", "--seed", "1",
                         "--stream", str(stream), "--out", str(kn)]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["kn-sample", "--n", "3"])
        assert exc.value.code == 2
        assert len(built) == 1

    @staticmethod
    def scipy_modules_after(code):
        """The scipy modules a fresh interpreter holds after running ``code``."""
        proc = subprocess.run(
            [sys.executable, "-c", code + "; import sys; print(sorted(m for m in sys.modules "
             "if m == 'scipy' or m.startswith('scipy.')))"],
            env=source_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()[-1]

    def test_verify_and_stats_load_no_scipy(self):
        assert self.scipy_modules_after("import circdirac.verify, circdirac.stats") == "[]"

    def test_bias_run_loads_no_scipy(self, tmp_path):
        argv = ["bias", "--n", "3", "--replicas", "200", "--epsilon", "0.3",
                "--seed", "1", "--out", str(tmp_path / "bias")]
        code = f"from circdirac.cli import main; assert main({argv!r}) == 0"
        assert self.scipy_modules_after(code) == "[]"
        assert (tmp_path / "bias.json").exists()

    def test_sine_beta_writes_the_steps_at_small_beta(self, tmp_path):
        # at beta 0.02 the path overflows, but the operator is its steps:
        # with warnings as errors it is written, says nothing on stderr, and
        # reloads to the count of its row of the replica batch
        out = tmp_path / "sine"
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "circdirac.cli", "sine-beta",
             "--beta", "0.02", "--seed", "3", "--out", str(out)],
            env=source_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert proc.stderr == ""
        op = DiracOperator.from_dict(json.loads(Path(f"{out}.operator.json").read_text()))
        window = (0.0, 20.0 * math.pi)
        want = sine_replicas(SinePathSpec(beta=0.02), 3, 2, lambda b: b.count(window))
        assert eigenvalue_count(op, window) == want[0]

    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_runtime_error_record(self, tmp_path, capsys):
        rc = main(["measure", "--coeffs", str(tmp_path / "missing.json"),
                   "--out", str(tmp_path / "o.json")])
        assert rc == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "FileNotFoundError"

    @pytest.mark.parametrize("field, value", [
        ("grid", [0.0, math.nan, 1.0]),
        ("path", [[0.0, 1.0], [math.inf, 1.0]]),
        ("u1", [math.nan, -1.0]),
    ])
    def test_spectrum_refuses_non_finite_operator(self, tmp_path, capsys, field, value):
        # Python's json reads NaN and Infinity
        op = {"grid": [0.0, 0.5, 1.0], "path": [[0.0, 1.0], [0.0, 1.0]],
              "u0": [1.0, 0.0], "u1": "infinity", field: value}
        opfile = tmp_path / "op.json"
        opfile.write_text(json.dumps(op))
        rc = main(["spectrum", "--operator", str(opfile), "--window", "-1", "1",
                   "--side", "right", "--out", str(tmp_path / "s.json")])
        assert rc == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record == {"error": "ValueError", "message": f"{field} must be finite"}

    def test_spectrum_refuses_infinite_window(self, tmp_path, capsys):
        mfile = tmp_path / "lattice.json"
        write_lattice_measure(mfile)
        rc = main(["spectrum", "--measure", str(mfile), "--window", "0", "inf",
                   "--side", "left", "--out", str(tmp_path / "s.json")])
        assert rc == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record == {"error": "ValueError",
                          "message": "window endpoints must be finite"}

    def test_spectrum_refuses_overflowed_weights(self, tmp_path, capsys):
        # i.i.d. cells over 4096 cells: at lambda 5e3 the eigenfunction's
        # norm overflows to nan, and no NaN weight may reach the output
        rng = np.random.default_rng(4146)
        z = rng.uniform(-1.2, 1.2, 4096) + 1j * rng.uniform(0.4, 2.2, 4096)
        op = {"grid": np.linspace(0.0, 1.0, 4097).tolist(),
              "path": [[v.real, v.imag] for v in z], "u0": [1.0, 0.0],
              "u1": [-rng.uniform(-2.0, 2.0), -1.0]}
        opfile = tmp_path / "op.json"
        opfile.write_text(json.dumps(op))
        out = tmp_path / "s.json"
        rc = main(["spectrum", "--operator", str(opfile), "--window", "5000", "5010",
                   "--side", "right", "--out", str(out)])
        assert rc == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ValueError"
        assert record["message"].startswith("conditioning: the spectral weights overflowed")
        assert not out.exists()

    @staticmethod
    def assert_needs_one_of(tmp_path, capsys, argv, inputs):
        """``argv`` with neither and with both of the two ``inputs`` flags exits 2."""
        out = tmp_path / "o.json"
        both = [x for flag in inputs for x in (flag, str(tmp_path / "in.json"))]
        for given in ([], both):
            with pytest.raises(SystemExit) as exc:
                main([*argv, *given, "--out", str(out)])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert all(flag in err for flag in inputs)
        assert not out.exists()

    def test_measure_requires_exactly_one_input(self, tmp_path, capsys):
        self.assert_needs_one_of(tmp_path, capsys, ["measure"], ("--coeffs", "--measure"))

    def test_spectrum_requires_exactly_one_input(self, tmp_path, capsys):
        self.assert_needs_one_of(tmp_path, capsys, ["spectrum", "--window", "-1", "1"],
                                 ("--measure", "--operator"))

    def test_measure_refuses_kind_with_coeffs(self, tmp_path, capsys):
        kn, mu = tmp_path / "kn.json", tmp_path / "mu.json"
        assert main(["kn-sample", "--n", "3", "--beta", "2", "--seed", "1",
                     "--out", str(kn)]) == 0
        rc = main(["measure", "--coeffs", str(kn), "--kind", "modified",
                   "--out", str(mu)])
        assert rc == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record == {"error": "ValueError",
                          "message": "--kind applies only with --measure"}
        assert not mu.exists()

    @pytest.mark.parametrize("argv, written", [
        (["sine-beta", "--beta", "2", "--cells", "16", "--seed", "1", "--q", "nan"],
         ".operator.json"),
        (["kn-sample", "--n", "5", "--beta", "nan", "--seed", "1"], ""),
    ], ids=["sine-beta-q", "kn-sample-beta"])
    def test_nan_input_is_refused(self, tmp_path, capsys, argv, written):
        out = tmp_path / "o"
        assert main([*argv, "--out", str(out)]) == 1
        assert json.loads(capsys.readouterr().err.strip())["error"] == "ValueError"
        assert not Path(f"{out}{written}").exists()

    def test_aleksandrov_refuses_nan_eta(self, tmp_path, capsys):
        kn, out = tmp_path / "kn.json", tmp_path / "o.json"
        assert main(["kn-sample", "--n", "4", "--beta", "2", "--seed", "1",
                     "--out", str(kn)]) == 0
        assert main(["aleksandrov", "--coeffs", str(kn), "--eta", "nan",
                     "--out", str(out)]) == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record == {"error": "ValueError",
                          "message": "aleksandrov parameter must have unit modulus"}
        assert not out.exists()

    def test_sine_beta_refuses_side_without_window(self, tmp_path, capsys):
        out = tmp_path / "sine"
        rc = main(["sine-beta", "--beta", "2", "--cells", "16", "--seed", "1",
                   "--side", "left", "--out", str(out)])
        assert rc == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record == {"error": "ValueError",
                          "message": "--side applies only with --window"}
        assert not Path(f"{out}.operator.json").exists()

    def test_entropy_seed_echoed(self, tmp_path, capsys):
        rc = main(["kn-sample", "--n", "3", "--beta", "2",
                   "--out", str(tmp_path / "kn.json")])
        assert rc == 0
        assert "seed:" in capsys.readouterr().out


class TestSingleAtomPipeline:
    def test_n_equal_one_end_to_end(self, tmp_path):
        kn = tmp_path / "kn1.json"
        mu = tmp_path / "mu1.json"
        sp = tmp_path / "sp1.json"
        assert main(["kn-sample", "--n", "1", "--beta", "2", "--seed", "3",
                     "--out", str(kn)]) == 0
        assert main(["measure", "--coeffs", str(kn), "--out", str(mu)]) == 0
        assert main(["spectrum", "--measure", str(mu), "--window", "-7", "7",
                     "--side", "left", "--out", str(sp)]) == 0
        lam = json.loads(mu.read_text())["angles"][0]
        atoms = json.loads(sp.read_text())["atoms"]
        expected = [v for k in (-2, -1, 0, 1, 2)
                    if -7.0 <= (v := lam + TWO_PI * k) < 7.0]
        np.testing.assert_allclose([a[0] for a in atoms], expected,
                                   atol=1e-10)
        np.testing.assert_allclose([a[1] for a in atoms], 2.0, atol=1e-10)


class TestReadme:
    """The README's command lines and stated defaults, against the parser."""

    README = (Path(__file__).resolve().parents[1] / "README.md").read_text()

    def section(self):
        return self.README.split("## Command line", 1)[1].split("\n## ", 1)[0]

    def test_every_command_line_parses(self):
        block = self.section().split("```", 2)[1]
        lines = [shlex.split(line, comments=True) for line in block.splitlines()
                 if line.startswith("circdirac ")]
        assert len(lines) == 11
        for argv in lines:
            build_parser().parse_args(argv[1:])

    def test_stated_defaults_are_the_parser_defaults(self):
        text = " ".join(self.section().split())
        stated = dict(re.findall(r"`([a-z-]+)` \(defaults `([^`]*)`\)", text))
        assert sorted(stated) == ["bias", "bias-trend", "sine-intensity"]
        parser = build_parser()
        for command, defaults in stated.items():
            required = ["--out", "o"] if command == "bias" else []
            given = defaults.replace("20pi", repr(20.0 * math.pi)).split()
            assert (parser.parse_args([command, *required, *given])
                    == parser.parse_args([command, *required])), command
        assert ("`--t-min` and `--cells` default to 1e-4 and 4096, as do those of "
                "`sine-intensity`") in text
        for argv in (["sine-beta", "--beta", "2", "--out", "o"], ["sine-intensity"]):
            args = parser.parse_args(argv)
            assert (args.t_min, args.cells) == (1e-4, 4096)
