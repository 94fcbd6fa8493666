import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from circdirac.cli import build_parser, main
from circdirac.ensembles import KNMeasureSampler

TWO_PI = 2.0 * math.pi


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
        assert len(op["path"]) == 64
        assert op["origin"] == "sine-beta"
        sp = json.loads((tmp_path / "sine.spectrum.json").read_text())
        assert sp["window"] == [0.0, 10.0]

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

    def test_bias_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "bias", "n": 3, "beta": 2.0,
                                   "replicas": 100, "seed": 9,
                                   "epsilon": 0.5}))
        rc = main(["bias", "--config", str(cfg), "--out", str(tmp_path / "b")])
        assert rc == 0
        summary = json.loads((tmp_path / "b.json").read_text())
        assert summary["n"] == 3
        assert summary["replicas"] == 100
        assert summary["seed"] == 9

    @pytest.mark.parametrize("flag, value", [("--n", "0"), ("--beta", "-1"),
                                             ("--replicas", "0")])
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
        rc = main(["bias", "--n", "6", "--epsilon", "0", "--replicas", "50",
                   "--seed", "5", "--out", str(tmp_path / "b")])
        assert rc == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record == {"error": "ValueError",
                          "message": "epsilon must be positive"}
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
        rc = main(["verify", "--suite", "core", "--jobs", "1",
                   "--out", str(tmp_path / "r.json")])
        assert rc == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ValueError"
        assert "seed" in record["message"]


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
        argv = {"measure": ["--out", "o.json"],
                "spectrum": ["--window", "-1", "1", "--out", "o.json"],
                "palm": ["--coeffs", "c.json", "--out", "o.json"],
                "aleksandrov": ["--coeffs", "c.json", "--eta", "0",
                                "--out", "o.json"],
                "bias": ["--out", "b"],
                "verify": []}[command]
        build_parser().parse_args([command, *argv])
        with pytest.raises(SystemExit) as exc:
            main([command, *argv, flag, "1"])
        assert exc.value.code == 2

    def test_unknown_suite_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "bogus", "--seed", "1"])
        assert exc.value.code == 2

    def test_import_does_not_load_scipy_stats(self):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), env.get("PYTHONPATH")) if p)
        code = ("import sys, circdirac.cli; "
                "print(sorted(m for m in ('scipy.stats', 'circdirac.verify', "
                "'circdirac.stats') if m in sys.modules))")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

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

    def test_measure_requires_exactly_one_input(self, tmp_path, capsys):
        rc = main(["measure", "--out", str(tmp_path / "o.json")])
        assert rc == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert "exactly one" in record["message"]

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
