import contextlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from contactopt.checks import CheckResult
from contactopt.cli import main, parse_init_flag
from contactopt.contact import Trajectory
from contactopt.harness import (
    InitSpec,
    export_trace_csv,
    parse_experiment,
    read_band_csv,
    read_trace_csv,
)
from contactopt.optimizers import RunRecord
from contactopt.presets import experiment_preset


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("CONTACT_OPT_SEED", raising=False)


def tiny_config(tmp_path, **over):
    doc = {
        "objective": {"name": "quadratic", "dim": 3},
        "init": {"kind": "box", "lo": -1.0, "hi": 1.0},
        "optimizers": [{"kind": "gd", "ranges": {"tau": [0.01, 0.3]}}],
        "search_trials": 6,
        "mc_runs": 3,
        "iters": 12,
        "master_seed": 4,
    }
    doc.update(over)
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestInitFlag:
    def test_forms(self):
        assert parse_init_flag("const:2") == InitSpec(kind="pattern", values=(2.0,))
        assert parse_init_flag("vec:1,2") == InitSpec(kind="fixed", values=(1.0, 2.0))
        assert parse_init_flag("alt:-1.2,1") == InitSpec(
            kind="pattern", values=(-1.2, 1.0))
        assert parse_init_flag("box:-1,1") == InitSpec(kind="box", lo=-1.0, hi=1.0)
        assert parse_init_flag("1.5,-2.5") == InitSpec(
            kind="fixed", values=(1.5, -2.5))

    def test_rejects_malformed(self):
        with pytest.raises(ValueError, match="unknown form"):
            parse_init_flag("gauss:0,1")
        with pytest.raises(ValueError, match="exactly one"):
            parse_init_flag("const:1,2")
        with pytest.raises(ValueError, match="lo,hi"):
            parse_init_flag("box:1")
        with pytest.raises(ValueError, match="at least one"):
            parse_init_flag("vec:")
        with pytest.raises(ValueError, match="comma-separated"):
            parse_init_flag("vec:a,b")
        for text in ("vec:1,,2", ",1,2", "alt:1,"):
            with pytest.raises(ValueError, match="^--init: expected comma-separated numbers"):
                parse_init_flag(text)


class TestRunCommand:
    def test_writes_full_trace(self, tmp_path, capsys):
        out = str(tmp_path / "trace.csv")
        rc = main([
            "run", "--objective", "quartic", "--dim", "3",
            "--optimizer", "crgd", "--epsilon", "0.005", "--mu", "0.9",
            "--iters", "500", "--init", "const:2", "--out", out,
        ])
        assert rc == 0
        assert "final gap" in capsys.readouterr().out
        pairs = read_trace_csv(out)
        assert len(pairs) == 1
        _, rec = pairs[0]
        assert len(rec.trace) == 501
        assert not rec.diverged

    def test_deterministic_across_invocations(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = str(tmp_path / name)
            rc = main([
                "run", "--objective", "quadratic", "--dim", "4", "--seed", "3",
                "--optimizer", "rgd", "--iters", "40",
                "--init", "box:-1,1", "--out", out,
            ])
            assert rc == 0
            outs.append(Path(out).read_bytes())
        assert outs[0] == outs[1]

    def test_env_seed_matches_flag(self, tmp_path, monkeypatch):
        args = ["run", "--objective", "quadratic", "--dim", "4",
                "--optimizer", "gd", "--iters", "30", "--init", "box:-1,1"]
        a = str(tmp_path / "flag.csv")
        assert main(args + ["--seed", "11", "--out", a]) == 0
        monkeypatch.setenv("CONTACT_OPT_SEED", "11")
        b = str(tmp_path / "env.csv")
        assert main(args + ["--out", b]) == 0
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_unknown_optimizer_is_usage_error(self, capsys):
        rc = main(["run", "--objective", "quartic", "--optimizer", "bogus"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "invalid choice" in err and "crgd" in err

    def test_divergence_exit_code(self, capsys):
        rc = main([
            "run", "--objective", "quartic", "--dim", "2",
            "--optimizer", "gd", "--tau", "1.0", "--iters", "50",
            "--init", "const:2",
        ])
        assert rc == 2
        assert "diverged" in capsys.readouterr().err

    @pytest.mark.parametrize("dim", ["1", "3", "5"])
    def test_camelback_rejects_other_dims(self, capsys, dim):
        rc = main(["run", "--objective", "camelback", "--dim", dim,
                   "--optimizer", "gd", "--iters", "5"])
        assert rc == 1
        assert capsys.readouterr().err == "error: camelback is two-dimensional; set dim = 2\n"

    def test_non_finite_init_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "inf.json"
        cfg.write_text(Path(tiny_config(tmp_path)).read_text().replace("-1.0", "-Infinity"))
        for argv, prefix in (
            (["run", "--objective", "quartic", "--dim", "3", "--optimizer", "gd",
              "--init", "const:nan"], "error: "),
            *((["run", "--objective", "quartic", "--dim", "3", "--iters", "5",
                "--optimizer", *tunable], "error: ")
              for tunable in (("rgd", "--delta", "nan"), ("cm", "--tau", "inf"),
                              ("crgd", "--epsilon", "inf"), ("rgd", "--delta", "inf"))),
            (["bench", "--preset", "quartic", "--init", "box:-1e308,1e308"], "error: "),
            (["search", "--config", str(cfg)], "config error at $.init: "),
        ):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith(prefix) and "finite" in err and "Traceback" not in err

    @pytest.mark.parametrize("init, fields", [("vec:1,,2,3", "1,,2,3"), (",1,2,3", ",1,2,3")])
    def test_empty_init_field_is_usage_error(self, capsys, init, fields):
        rc = main(["run", "--objective", "quartic", "--dim", "3", "--optimizer", "gd",
                   "--iters", "2", "--init", init])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: --init: expected comma-separated numbers, got {fields!r}\n"
        )

    def test_negative_objective_seed_is_usage_error(self, capsys):
        rc = main(["run", "--objective", "quadratic", "--seed", "-3", "--optimizer", "gd",
                   "--iters", "2"])
        assert rc == 1
        assert capsys.readouterr().err == "error: objective seed must be >= 0, got -3\n"

    def test_init_length_mismatch(self, capsys):
        rc = main([
            "run", "--objective", "quartic", "--dim", "2",
            "--optimizer", "gd", "--init", "vec:1,2,3",
        ])
        assert rc == 1
        assert "dim" in capsys.readouterr().err

    def test_init_length_mismatch_has_the_spec_wording(self, capsys):
        rc = main([
            "run", "--objective", "quartic", "--dim", "3",
            "--optimizer", "gd", "--init", "vec:1,2",
        ])
        assert rc == 1
        assert capsys.readouterr().err == "error: fixed init length 2 does not match dim 3\n"


class TestSearchCommand:
    def test_pipeline_outputs(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path)
        bands = str(tmp_path / "bands.csv")
        traces = str(tmp_path / "runs.csv")
        svg = str(tmp_path / "fig.svg")
        rc = main(["search", "--config", cfg, "--out", bands,
                   "--traces", traces, "--svg", svg])
        assert rc == 0
        out = capsys.readouterr().out
        assert "best final gap" in out
        got = read_band_csv(bands)
        assert [b.kind for b in got] == ["gd"]
        assert len(got[0].median) == 13
        assert len(read_trace_csv(traces)) == 3
        assert Path(svg).read_text().startswith("<svg")

    def test_jobs_do_not_change_bytes(self, tmp_path):
        cfg = tiny_config(tmp_path)
        blobs = []
        for jobs, name in (("1", "j1.csv"), ("4", "j4.csv")):
            out = str(tmp_path / name)
            assert main(["search", "--config", cfg, "--jobs", jobs,
                         "--out", out]) == 0
            blobs.append(Path(out).read_bytes())
        assert blobs[0] == blobs[1]

    def test_seed_flag_and_env_agree(self, tmp_path, monkeypatch):
        cfg = tiny_config(tmp_path)
        a = str(tmp_path / "sa.csv")
        assert main(["search", "--config", cfg, "--seed", "11", "--out", a]) == 0
        monkeypatch.setenv("CONTACT_OPT_SEED", "11")
        b = str(tmp_path / "sb.csv")
        assert main(["search", "--config", cfg, "--out", b]) == 0
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_empty_env_seed_is_an_error(self, tmp_path, monkeypatch, capsys):
        cfg = tiny_config(tmp_path)
        monkeypatch.setenv("CONTACT_OPT_SEED", "")
        rc = main(["search", "--config", cfg, "--out", str(tmp_path / "e.csv")])
        assert rc == 1
        assert "must be an integer, got ''" in capsys.readouterr().err

    def test_unknown_config_key_reports_path(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path, bogus=1)
        rc = main(["search", "--config", cfg])
        assert rc == 1
        assert "$.bogus" in capsys.readouterr().err

    def test_negative_objective_seed_reports_path(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path, objective={"name": "quadratic", "dim": 3, "seed": -1})
        assert main(["search", "--config", cfg]) == 1
        assert capsys.readouterr().err == (
            "config error at $.objective: objective seed must be >= 0, got -1\n"
        )

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        rc = main(["search", "--config", str(path)])
        assert rc == 1
        assert "not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("dim", [0, -2])
    def test_nonpositive_dim_reports_path(self, tmp_path, capsys, dim):
        cfg = tiny_config(tmp_path, objective={"name": "quartic", "dim": dim})
        assert main(["search", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err == f"config error at $.objective: dim must be >= 1, got {dim}\n"

    def test_one_dimensional_rosenbrock_reports_path(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path, objective={"name": "rosenbrock", "dim": 1})
        assert main(["search", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err == "config error at $.objective: rosenbrock needs dim >= 2, got 1\n"

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["search", "--config", str(tmp_path / "nope.json")])
        assert rc == 1
        assert "cannot read config" in capsys.readouterr().err


class TestBenchCommand:
    def test_dump_config_roundtrips(self, capsys):
        rc = main(["bench", "--preset", "camelback", "--seed", "5",
                   "--dump-config"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert parse_experiment(doc) == experiment_preset(
            "camelback", scale="desk", master_seed=5)

    def test_dump_config_respects_init_override(self, capsys):
        rc = main(["bench", "--preset", "quartic", "--dump-config",
                   "--init", "alt:3"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["init"] == {"kind": "pattern", "pattern": [3.0]}

    def test_default_output_name(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr("contactopt.cli.run_bench", lambda spec: [])
        rc = main(["bench", "--preset", "quartic"])
        assert rc == 0
        assert (tmp_path / "bench_quartic_desk.csv").exists()


class TestRatesCommand:
    def write_trace(self, tmp_path, trace, kind="crgd"):
        path = str(tmp_path / "trace.csv")
        export_trace_csv(
            [RunRecord(kind=kind, params={}, trace=tuple(trace), diverged=False)],
            path,
        )
        return path

    def test_recovers_planted_exponent(self, tmp_path, capsys):
        trace = [1.0] + [k ** -3.0 for k in range(1, 301)]
        path = self.write_trace(tmp_path, trace)
        rc = main(["rates", "--trace", path, "--windows", "10-300"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "crgd" in out and "3.00" in out

    def test_clamps_and_reports_na(self, tmp_path, capsys):
        # length-10 trace: the 150-300 window is empty after clamping, and a
        # zero entry makes the 1-5 window undefined
        trace = [1.0, 0.5, 0.0, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1]
        path = self.write_trace(tmp_path, trace)
        rc = main(["rates", "--trace", path, "--windows", "1-5,150-300"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("n/a") == 2

    def test_missing_file(self, tmp_path, capsys):
        rc = main(["rates", "--trace", str(tmp_path / "nope.csv")])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_bad_window_token(self, tmp_path, capsys):
        path = self.write_trace(tmp_path, [1.0, 0.5, 0.25])
        cases = [(token, "lo-hi") for token in ("10:300", "a-b", "1-", "-5", "2-x")]
        cases += [(token, "lo < hi") for token in ("5-2", "0-0", "3-3")]
        for token, expected in cases:
            rc = main(["rates", "--trace", path, "--windows", f"1-2,{token}"])
            assert rc == 1
            assert capsys.readouterr().err == f"error: --windows: expected {expected}, got {token!r}\n"


class TestCheckCommand:
    def test_single_family(self, capsys):
        rc = main(["check", "--only", "conformal"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "checks passed" in out

    def test_every_family_passes(self, capsys):
        assert main(["check"]) == 0
        assert "27/27 checks passed" in capsys.readouterr().out

    def test_env_seed_matches_flag(self, monkeypatch, capsys):
        assert main(["check", "--only", "conformal", "--seed", "21"]) == 0
        flag = capsys.readouterr().out
        monkeypatch.setenv("CONTACT_OPT_SEED", "21")
        assert main(["check", "--only", "conformal"]) == 0
        assert capsys.readouterr().out == flag

    def test_unknown_family(self, capsys):
        rc = main(["check", "--only", "bogus"])
        assert rc == 1
        assert "unknown check family" in capsys.readouterr().err

    def test_repeated_family(self, capsys):
        rc = main(["check", "--only", "nag,nag"])
        assert rc == 1
        assert "named twice" in capsys.readouterr().err

    @pytest.mark.parametrize("only", ["", "conformal,"])
    def test_empty_family_name_is_usage_error(self, only, capsys):
        assert main(["check", "--only", only]) == 1
        assert "unknown check family ''" in capsys.readouterr().err

    def test_crushing_candidate_fails_with_exit_3(self, monkeypatch, capsys):
        monkeypatch.setattr("contactopt.checks.flow_phi3",
                            lambda z, t, dtau, params: (np.zeros_like(z), t))
        assert main(["check", "--only", "conformal"]) == 3
        assert "[FAIL] conformal: phi3 residual = inf" in capsys.readouterr().out

    def test_diverged_order_sweep_fails_with_exit_3(self, monkeypatch, capsys):
        monkeypatch.setattr(
            "contactopt.checks.integrate_split",
            lambda s0, tau, n, obj, params, plan: Trajectory([s0.t], [s0.coords()], diverged=True),
        )
        assert main(["check", "--only", "orders"]) == 3
        captured = capsys.readouterr()
        assert "0/3 checks passed" in captured.out and captured.err == ""

    def test_failed_check_has_own_exit_code(self, monkeypatch, capsys):
        failing = CheckResult(family="orders", name="planted", passed=False,
                              value=1.0)
        monkeypatch.setattr("contactopt.cli.run_checks",
                            lambda only, seed: [failing])
        assert main(["check"]) == 3
        out = capsys.readouterr().out
        assert "[FAIL]" in out and "0/1 checks passed" in out


class TestListCommand:
    def test_names_printed(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for token in ("quartic", "crgd", "strang", "camelback", "conformal"):
            assert token in out


class _ClosedPipe:
    """A stdout whose reader has gone away; fileno() is a file of the test's."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.fd


class TestTopLevel:
    def test_no_subcommand(self, capsys):
        assert main([]) == 1

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    @pytest.mark.parametrize("argv", [["check", "--only", "nag"],
                                      ["bench", "--preset", "quartic", "--dump-config"]],
                             ids=["check", "dump-config"])
    def test_closed_stdout_ends_quietly(self, tmp_path, capsys, argv):
        path = tmp_path / "stdout"
        with open(path, "wb") as f, contextlib.redirect_stdout(_ClosedPipe(f.fileno())):
            assert main(argv) == 1
            # the interpreter's exit flush now writes to devnull
            os.write(f.fileno(), b"buffered")
        assert path.read_bytes() == b""
        assert capsys.readouterr().err == ""

    def test_jobs_must_be_positive(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path)
        rc = main(["search", "--config", cfg, "--jobs", "0"])
        assert rc == 1
        assert "--jobs" in capsys.readouterr().err
