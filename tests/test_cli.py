import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from effdim.cli import main
from effdim.signals import Signal, load_signal, save_signal

KAPPA_A6 = math.e**2 - 1.0  # with varkappa = 2: A = 6
KAPPA_LOG12 = math.expm1(1.2)  # log(kappa + 1) = 1.2


def write_config(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestOracleCommand:
    def test_zero_signal(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.cfg", """
            signal = zero
            signal_N = 8
            eps = 1
            tau = 1
        """)
        assert main(["oracle", "--config", cfg]) == 0
        assert "d_tau=1 r_tau=1" in capsys.readouterr().out

    def test_signal_file_and_csv(self, tmp_path, capsys):
        sig = tmp_path / "theta.sig"
        save_signal(Signal([3.0, 2.0, 0.1]), sig)
        out = tmp_path / "curve.csv"
        cfg = write_config(tmp_path, "c.cfg", f"""
            signal = file
            signal_path = {sig}
            eps = 1
            tau = 1
        """)
        assert main(["oracle", "--config", cfg, "--out", str(out)]) == 0
        assert "d_tau=2 r_tau=2.01" in capsys.readouterr().out
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "d,r_tau,approx_error,dim_cost"
        assert len(lines) == 4

    def test_missing_signal_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.cfg", f"""
            signal = file
            signal_path = {tmp_path}/nope.sig
            eps = 1
            tau = 1
        """)
        assert main(["oracle", "--config", cfg]) == 2
        assert "nope.sig" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["oracle", "--config", str(tmp_path / "absent.cfg")]) == 2
        assert "absent.cfg" in capsys.readouterr().err


class TestPosteriorCommand:
    def test_zero_data(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.cfg", f"""
            data = 0, 0, 0, 0, 0
            kappa = {KAPPA_A6}
            varkappa = 2
            eps = 1
        """)
        assert main(["posterior", "--config", cfg]) == 0
        assert "d_hat=1" in capsys.readouterr().out

    def test_crit_fixture(self, tmp_path, capsys):
        out = tmp_path / "pmf.csv"
        cfg = write_config(tmp_path, "c.cfg", f"""
            data = 3, 2, 0.5, 0, 0
            kappa = {KAPPA_LOG12!r}
            varkappa = 0.4
            eps = 1
            out = {out}
        """)
        assert main(["posterior", "--config", cfg]) == 0
        assert "d_hat=2" in capsys.readouterr().out
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "d,pmf,cumulative"
        assert lines[-1].startswith("tail,")

    def test_kappa_validation(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.cfg", """
            data = 1, 2
            kappa = 1
            varkappa = 1
            eps = 1
        """)
        assert main(["posterior", "--config", cfg]) == 2
        assert "kappa must exceed e-1" in capsys.readouterr().err

    def test_infinite_hyperparameters_exit_two(self, tmp_path, capsys):
        out = tmp_path / "pmf.csv"
        for kappa, varkappa in [("inf", "1"), ("3", "inf")]:
            cfg = write_config(tmp_path, "c.cfg", f"""
                data = 1, 2
                kappa = {kappa}
                varkappa = {varkappa}
                eps = 1
                out = {out}
            """)
            assert main(["posterior", "--config", cfg]) == 2
            assert "finite, got inf" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("varkappa, eps, message", [
        ("1e308", "1", "overflows"),  # A = log(kappa+1) + 2*varkappa
        ("2", "1e-170", "epsilon^2 > 0"),  # eps^2 underflows to 0
        ("2", "1e170", "A*epsilon^2 = inf"),  # eps^2 overflows
    ])
    def test_overflowing_prior_arithmetic_exits_two(self, tmp_path, capsys,
                                                    varkappa, eps, message):
        out = tmp_path / "pmf.csv"
        cfg = write_config(tmp_path, "c.cfg", f"""
            data = 1, 2, 0.5
            kappa = 7
            varkappa = {varkappa}
            eps = {eps}
            out = {out}
        """)
        assert main(["posterior", "--config", cfg]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("data, eps, message", [
        ("1, 2, 0.5", "1e-160", "log posterior weights overflow"),  # X^2 / eps^2 overflows
        ("1, nan, 0.5", "1", "crit(n) = nan"),
    ])
    def test_non_finite_posterior_exits_two(self, tmp_path, capsys, data, eps, message):
        out = tmp_path / "pmf.csv"
        cfg = write_config(tmp_path, "c.cfg", f"""
            data = {data}
            kappa = 7
            varkappa = 2
            eps = {eps}
            out = {out}
        """)
        assert main(["posterior", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert message in captured.err and "d_hat" not in captured.out
        assert not out.exists()

    def test_overflow_prints_only_the_error_line(self, tmp_path):
        # a child process, so that nothing intercepts numpy's warnings
        cfg = write_config(tmp_path, "c.cfg", """
            data = 1, 2, 0.5
            kappa = 7
            varkappa = 2
            eps = 1e-160
        """)
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "effdim", "posterior", "--config", cfg],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            "error: log posterior weights overflow at eps = 1e-160"]

    def test_horizon_enforced_for_tail_signals(self, tmp_path, capsys):
        # a generated signal with positive tail energy cannot be padded
        cfg = write_config(tmp_path, "c.cfg", f"""
            signal = power-law
            signal_s = 1
            signal_c = 1
            signal_N = 8
            kappa = {KAPPA_A6}
            varkappa = 2
            eps = 0.1
            n = 20
            seed = 4
        """)
        assert main(["posterior", "--config", cfg]) == 2
        assert "signal horizon" in capsys.readouterr().err

    def test_simulated_data(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.cfg", f"""
            signal = power-law
            signal_s = 1
            signal_c = 1
            signal_N = 64
            kappa = {KAPPA_A6}
            varkappa = 2
            eps = 0.1
            n = 64
            seed = 4
        """)
        assert main(["posterior", "--config", cfg]) == 0
        assert capsys.readouterr().out.startswith("d_hat=")


class TestVerifyCommand:
    def overshoot_config(self, tmp_path, out, **overrides):
        values = dict(
            theorem="overshoot", signal="zero", signal_N=12, eps=1, tau=1,
            kappa=KAPPA_A6, varkappa=2, R=200, n=12, seed=3,
            offsets="1,2,3", out=out,
        )
        values.update(overrides)
        text = "\n".join(f"{k} = {v}" for k, v in values.items())
        return write_config(tmp_path, "v.cfg", text)

    def test_overshoot_ok(self, tmp_path):
        out = tmp_path / "report.csv"
        cfg = self.overshoot_config(tmp_path, out)
        assert main(["verify", "--config", cfg]) == 0
        text = out.read_text()
        assert text.startswith("# effdim-report v1 ")
        assert "kind=overshoot" in text

    def test_overshoot_bad_sandwich(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        cfg = self.overshoot_config(tmp_path, out, kappa=repr(KAPPA_LOG12), varkappa=0.15)
        assert main(["verify", "--config", cfg]) == 2
        assert "A > 1 + tau" in capsys.readouterr().err
        assert not out.exists()  # validation failures never leave partial output

    def test_undershoot_ok(self, tmp_path):
        out = tmp_path / "report.csv"
        cfg = write_config(tmp_path, "v.cfg", f"""
            theorem = undershoot
            signal = adversarial-long
            tau = 9
            eps = 1
            L1 = 3
            L2 = 3
            Delta = 1.1
            kappa = {KAPPA_LOG12!r}
            varkappa = 0.4
            R = 200
            n = 20
            seed = 3
            offsets = 1,2,3
            out = {out}
        """)
        assert main(["verify", "--config", cfg]) == 0
        assert "kind=undershoot" in out.read_text()

    def test_lower_bound_fixture(self, tmp_path, capsys):
        out = tmp_path / "lb.csv"
        cfg = write_config(tmp_path, "v.cfg", f"""
            theorem = lower-bound
            tau = 1
            eps = 1
            L1 = 3
            L2 = 3
            Delta = 1.1
            kappa = {KAPPA_LOG12!r}
            varkappa = 0.4
            R = 300
            n = 16
            seed = 12
            out = {out}
        """)
        assert main(["verify", "--config", cfg]) == 0
        text = out.read_text()
        assert "delta_prime" in text
        assert "0.16026316928586715" in text

    def test_unknown_theorem(self, tmp_path, capsys):
        cfg = self.overshoot_config(tmp_path, tmp_path / "r.csv", theorem="sideways")
        assert main(["verify", "--config", cfg]) == 2
        assert "unknown theorem" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        cfg = self.overshoot_config(tmp_path, out1)
        assert main(["verify", "--config", cfg]) == 0
        assert main(["verify", "--config", cfg, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        cfg = self.overshoot_config(tmp_path, out1)
        assert main(["verify", "--config", cfg]) == 0
        assert main(["verify", "--config", cfg, "--out", str(out2), "--seed", "99"]) == 0
        assert out1.read_bytes() != out2.read_bytes()


class TestSmoothnessCommand:
    def test_small_sweep(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        cfg = write_config(tmp_path, "s.cfg", f"""
            signal_s = 1
            signal_Q = 1
            signal_alpha = 0.1
            signal_rho0 = 2
            signal_N0 = 2
            signal_N = 256
            kappa = {KAPPA_A6}
            varkappa = 0.5
            tau = 1
            eps_grid = 0.3, 0.1
            R = 10
            n = 64
            seed = 2
            out = {out}
        """)
        assert main(["smoothness", "--config", cfg]) == 0
        assert "d_tau=" in capsys.readouterr().out
        text = out.read_text()
        assert "kind=smoothness" in text

    def test_horizon_enforced(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "s.cfg", f"""
            signal_s = 1
            signal_Q = 1
            signal_alpha = 0.1
            signal_rho0 = 2
            signal_N0 = 2
            signal_N = 32
            kappa = {KAPPA_A6}
            varkappa = 0.5
            tau = 1
            eps_grid = 0.3
            R = 10
            n = 64
            seed = 2
        """)
        assert main(["smoothness", "--config", cfg]) == 2
        assert "signal horizon" in capsys.readouterr().err

    def test_missing_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "s.cfg", "signal_s = 1\n")
        assert main(["smoothness", "--config", cfg]) == 2
        assert "missing required key" in capsys.readouterr().err


class TestMakeSignalCommand:
    def test_power_law_round_trip(self, tmp_path, capsys):
        out = tmp_path / "sig.txt"
        cfg = write_config(tmp_path, "m.cfg", f"""
            signal = power-law
            signal_s = 1
            signal_c = 1
            signal_N = 16
            out = {out}
        """)
        assert main(["make-signal", "--config", cfg]) == 0
        theta = load_signal(out)
        assert theta.n == 16
        assert theta.coeffs[0] == 1.0

    def test_requires_out(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "m.cfg", """
            signal = zero
            signal_N = 4
        """)
        assert main(["make-signal", "--config", cfg]) == 2
        assert "output path" in capsys.readouterr().err

    def test_unknown_signal_kind(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "m.cfg", f"""
            signal = sine
            out = {tmp_path / 'x.txt'}
        """)
        assert main(["make-signal", "--config", cfg]) == 2
        assert "unknown signal kind" in capsys.readouterr().err


class TestBadInputExitsTwo:
    def test_signal_header_without_N(self, tmp_path, capsys):
        sig = tmp_path / "theta.sig"
        sig.write_text("# effdim-signal v1 tail_energy=0\n3.0\n2.0\n")
        cfg = write_config(tmp_path, "c.cfg", f"""
            signal = file
            signal_path = {sig}
            eps = 1
            tau = 1
        """)
        assert main(["oracle", "--config", cfg]) == 2
        assert "header lacks N=" in capsys.readouterr().err

    def test_out_is_a_directory(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.cfg", f"""
            signal = zero
            signal_N = 8
            eps = 1
            tau = 1
            out = {tmp_path}
        """)
        assert main(["oracle", "--config", cfg]) == 2
        assert f"cannot write {tmp_path}" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.cfg"]

    def test_out_in_a_missing_directory(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "m.cfg", f"""
            signal = zero
            signal_N = 4
            out = {tmp_path / 'absent' / 'sig.txt'}
        """)
        assert main(["make-signal", "--config", cfg]) == 2
        assert "cannot write" in capsys.readouterr().err


class TestConfigFormat:
    def test_comments_and_blank_lines(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.cfg", """
            # a comment
            signal = zero   # trailing comment

            signal_N = 4
            eps = 1
            tau = 1
        """)
        assert main(["oracle", "--config", cfg]) == 0

    def test_malformed_line(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.cfg", "signal zero\n")
        assert main(["oracle", "--config", cfg]) == 2
        assert "key = value" in capsys.readouterr().err

    def test_bad_number(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.cfg", """
            signal = zero
            signal_N = four
            eps = 1
            tau = 1
        """)
        assert main(["oracle", "--config", cfg]) == 2
        assert "signal_N" in capsys.readouterr().err

    @pytest.mark.parametrize("command, key, bad, kind", [
        ("oracle", "signal_N", "8.5", "int"),
        ("oracle", "eps", "one", "float"),
        ("verify", "offsets", "1,x,3", "list of integers"),
        ("posterior", "data", "1, two", "list of numbers"),
        ("posterior", "data", "1, 2,", "list of numbers"),
    ])
    def test_bad_value_names_path_key_and_text(self, tmp_path, capsys,
                                               command, key, bad, kind):
        values = dict(
            theorem="overshoot", signal="zero", signal_N=8, eps=1, tau=1,
            kappa=KAPPA_A6, varkappa=2, R=200, n=8, seed=3, offsets="1",
        )
        values[key] = bad
        cfg = write_config(tmp_path, "c.cfg", "\n".join(f"{k} = {v}" for k, v in values.items()))
        assert main([command, "--config", cfg]) == 2
        assert f"{cfg}: key '{key}': cannot read {bad!r} as {kind}" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("signal = zero\nsignal_N = 4\neps = 1\ntau = 1\n")
    # the child finds the package in src/ also when effdim is not installed
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "effdim", "oracle", "--config", str(cfg)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert "d_tau=1" in proc.stdout
