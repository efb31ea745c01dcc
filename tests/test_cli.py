"""End-to-end tests for the command-line interface: exit codes, the JSON
report schema, CSV artifacts, flag/config plumbing, and determinism."""

import json

import pytest

from torusforms.cli import build_parser, main
from torusforms.nonlinear import get_preset
from torusforms.solver import SolverConfig, load_solution, solve_nonlinear
from torusforms.spectral import fractional_power, l2_norm
from torusforms.verify import taylor_green_state

CONFIG_TEXT = """\
# linearized smoke-test configuration
mu = 0.2
T = 0.1
dt = 0.01
res = 8
scheme = imex-euler
"""


def _stdout_report(capsys):
    return json.loads(capsys.readouterr().out)


class TestParser:
    def test_program_name_and_subcommands(self):
        parser = build_parser()
        assert parser.prog == "torusforms"
        for name in ("solve-linear", "solve-nonlinear", "verify", "hodge",
                     "norms", "gn-survey", "newton"):
            args = parser.parse_args([name])
            assert callable(args.func)
            assert args.seed == 0 and args.out is None

    def test_missing_subcommand_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_preset_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            main(["solve-linear", "--preset", "not-a-preset"])

    def test_each_command_registers_the_flags_it_reads(self):
        solve = {"--config", "--seed", "--out", "--res", "--dt", "--mu", "--preset"}
        expected = {"solve-linear": solve, "solve-nonlinear": solve, "norms": solve,
                    "newton": solve, "verify": {"--seed", "--out", "--res"},
                    "gn-survey": {"--seed", "--out", "--res", "--trials"},
                    "hodge": {"--config", "--res", "--seed", "--out"}}
        sub = next(a for a in build_parser()._actions if a.dest == "command")
        for name, flags in expected.items():
            got = {o for a in sub.choices[name]._actions for o in a.option_strings}
            assert got - {"-h", "--help"} == flags, name

    @pytest.mark.parametrize("argv, unread", [
        (["gn-survey", "--trials", "2", "--res", "8", "--config", "/nonexistent",
          "--mu", "7", "--dt", "3", "--preset", "zero"],
         "--config /nonexistent --mu 7 --dt 3 --preset zero"),
        (["verify", "--mu", "-1", "--preset", "zero"], "--mu -1 --preset zero"),
        (["hodge", "--res", "8", "--dt", "0.03"], "--dt 0.03"),
    ], ids=["gn-survey", "verify", "hodge"])
    def test_unread_flag_fails_at_parse_time(self, capsys, argv, unread):
        # A flag the command would ignore (or, for hodge's --dt, would hold
        # against a horizon the experiment never uses) is an error, named.
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert f"unrecognized arguments: {unread}" in capsys.readouterr().err


class TestReportSchema:
    def test_stdout_json_shape(self, capsys):
        rc = main(["solve-linear", "--res", "16", "--dt", "0.01",
                   "--seed", "4"])
        assert rc == 0
        data = _stdout_report(capsys)
        assert list(data.keys()) == ["experiment", "seed", "checks"]
        assert data["experiment"] == "solve-linear"
        assert data["seed"] == 4
        assert data["checks"], "expected at least one check record"
        for check in data["checks"]:
            assert sorted(check.keys()) == [
                "anchor", "id", "status", "tol", "value"]
            assert check["status"] in ("pass", "fail", "measured")
            assert (check["tol"] is None) == (check["status"] == "measured")

    def test_out_dir_prints_summary_lines(self, tmp_path, capsys):
        rc = main(["solve-linear", "--res", "16", "--dt", "0.01",
                   "--out", str(tmp_path)])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines and all("value=" in line and "tol=" in line
                             for line in lines)
        assert lines[0].split()[0] in ("pass", "fail", "measured")
        report = json.loads((tmp_path / "report.json").read_text())
        assert list(report.keys()) == ["experiment", "seed", "checks"]


class TestTimings:
    @pytest.mark.parametrize("argv", [
        ["hodge", "--res", "16"],
        ["solve-linear", "--res", "16", "--dt", "0.01"],
    ])
    def test_timings_beside_report(self, tmp_path, capsys, argv):
        assert main(argv + ["--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        timings = json.loads((tmp_path / "timings.json").read_text())
        assert list(report.keys()) == ["experiment", "seed", "checks"]
        assert list(timings) == [c["id"] for c in report["checks"]]
        assert all(isinstance(t, float) and t > 0.0 for t in timings.values())


class TestSolveLinear:
    def test_artifacts_and_determinism(self, tmp_path, capsys):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            rc = main(["solve-linear", "--res", "16", "--dt", "0.01",
                       "--seed", "7", "--out", str(out)])
            assert rc == 0
        for name in ("report.json", "energy.csv", "grad-energy.csv",
                     "solution/manifest.csv"):
            assert (out_a / name).exists(), name
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        sol = load_solution(out_a / "solution")
        assert sol.u[0].grid.res == 16

    def test_seed_changes_data(self, capsys):
        main(["solve-linear", "--res", "16", "--dt", "0.01", "--seed", "1"])
        first = _stdout_report(capsys)
        main(["solve-linear", "--res", "16", "--dt", "0.01", "--seed", "2"])
        second = _stdout_report(capsys)
        energy = lambda rep: [c["value"] for c in rep["checks"]
                              if c["id"] == "solve-linear/final-energy"]
        assert energy(first) != energy(second)


class TestConfigPlumbing:
    def test_config_file_drives_the_run(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(CONFIG_TEXT)
        out = tmp_path / "out"
        rc = main(["solve-linear", "--config", str(cfg_path),
                   "--out", str(out)])
        assert rc == 0
        manifest = (out / "solution" / "manifest.csv").read_text().splitlines()
        # T=0.1, dt=0.01, store_every=1 -> header + 11 snapshot rows
        assert len(manifest) == 12
        assert manifest[0] == "t,file,energy,grad_energy"
        assert load_solution(out / "solution").u[0].grid.res == 8

    def test_flag_overrides_config(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(CONFIG_TEXT)
        out = tmp_path / "out"
        rc = main(["solve-linear", "--config", str(cfg_path),
                   "--dt", "0.02", "--out", str(out)])
        assert rc == 0
        manifest = (out / "solution" / "manifest.csv").read_text().splitlines()
        assert len(manifest) == 7  # header + 6 snapshots at dt=0.02

    def test_invalid_config_propagates(self, tmp_path, capsys):
        # A bad value is one error line and exit code 2, not a traceback.
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(CONFIG_TEXT.replace("dt = 0.01", "dt = 0.03"))
        with pytest.raises(SystemExit) as info:
            main(["solve-linear", "--config", str(cfg_path)])
        assert info.value.code == 2
        assert "error: dt must divide" in capsys.readouterr().err

    def test_missing_config_is_one_error_line(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            main(["solve-linear", "--config", str(tmp_path / "absent.cfg")])
        assert info.value.code == 2
        assert "No such file or directory" in capsys.readouterr().err


class TestSolveNonlinear:
    def test_benchmark_passes(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(["solve-nonlinear", "--res", "16", "--dt", "0.01",
                   "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        ids = [c["id"] for c in report["checks"]]
        assert "taylor-green/velocity-error" in ids
        assert "taylor-green/pressure-error" in ids
        assert all(c["status"] in ("pass", "measured")
                   for c in report["checks"])
        assert (out / "solution" / "manifest.csv").exists()

    def test_failed_check_exits_nonzero(self, capsys):
        # dropping the quadratic term leaves the recovered pressure at
        # zero, so the benchmark pressure comparison must fail
        rc = main(["solve-nonlinear", "--res", "16", "--dt", "0.01",
                   "--preset", "zero"])
        assert rc == 1
        data = _stdout_report(capsys)
        status = {c["id"]: c["status"] for c in data["checks"]}
        assert status["taylor-green/pressure-error"] == "fail"
        assert status["taylor-green/velocity-error"] == "pass"


class TestHodge:
    def test_identities_pass(self, capsys):
        rc = main(["hodge", "--res", "16", "--seed", "3"])
        assert rc == 0
        data = _stdout_report(capsys)
        assert data["experiment"] == "hodge-identities"
        assert len(data["checks"]) >= 8
        assert all(c["status"] == "pass" for c in data["checks"])


class TestNorms:
    def test_tables_written(self, tmp_path, capsys):
        out = tmp_path / "norms"
        rc = main(["norms", "--res", "16", "--out", str(out)])
        assert rc == 0
        table = (out / "norms.csv").read_text().splitlines()
        assert table[0] == "experiment_id,norm_name,k,s,p,value"
        assert all(row.split(",")[0] == "norms" for row in table[1:])
        series = (out / "series.csv").read_text().splitlines()
        assert series[0] == "t,quantity,value"
        # the run the command makes, repeated here: rows are exact reprs of
        # |u|^2, then of |grad u|^2, at each stored time
        cfg = SolverConfig(mu=0.1, T=0.2, dt=2e-3, res=16, scheme="imex-rk2")
        sol = solve_nonlinear(
            None, taylor_green_state(cfg.grid(), 0.0, cfg.mu), cfg,
            get_preset(cfg.preset, cfg.n, cfg.degree),
            store_every=max(1, cfg.steps // 50))
        assert series[1:] == [
            f"{float(t)!r},{name},{float(energy(u))!r}"
            for name, energy in (
                ("energy", lambda u: l2_norm(u) ** 2),
                ("grad-energy", lambda u: l2_norm(fractional_power(u, 1)) ** 2))
            for t, u in zip(sol.times, sol.u)]
        report = json.loads((out / "report.json").read_text())
        assert all(c["status"] == "measured" for c in report["checks"])
        assert len(table) == len(report["checks"]) + 1


class TestGNSurvey:
    def test_survey_records_and_csv(self, tmp_path, capsys):
        out = tmp_path / "gn"
        rc = main(["gn-survey", "--trials", "4", "--res", "16",
                   "--seed", "2", "--out", str(out)])
        assert rc == 0
        csv_lines = (out / "gn-ratios.csv").read_text().splitlines()
        assert csv_lines[0] == "iteration,value"
        assert [row.split(",")[0] for row in csv_lines[1:]] == ["0", "1", "2", "3"]
        report = json.loads((out / "report.json").read_text())
        by_id = {c["id"]: c for c in report["checks"]}
        assert by_id["gn/interpolation-max-ratio"]["status"] == "measured"
        assert by_id["gn/interpolation-max-ratio"]["value"] == max(
            float(row.split(",")[1]) for row in csv_lines[1:])
        assert by_id["gn/interpolation-doubled-max-ratio"]["status"] == \
            "measured"
        assert by_id["gn/interpolation-stability"]["status"] == "pass"


class TestNewton:
    def test_inversion_report(self, tmp_path, capsys):
        out = tmp_path / "newton"
        rc = main(["newton", "--seed", "1", "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        by_id = {c["id"]: c for c in report["checks"]}
        assert by_id["newton/residual"]["value"] <= 1e-8
        assert by_id["newton/iterations"]["value"] <= 6
        assert by_id["newton/displacement-deviation"]["value"] <= 0.1
        assert by_id["newton/contraction-factor"]["status"] == "pass"
        residuals = (out / "newton-residuals.csv").read_text().splitlines()
        assert residuals[0] == "iteration,value"
        assert [r.split(",")[0] for r in residuals[1:]] == [
            str(j) for j in range(len(residuals) - 1)]
        values = [float(r.split(",")[1]) for r in residuals[1:]]
        assert values == sorted(values, reverse=True)
        # the history as Newton made it: the last entry is the reported residual
        assert values[-1] == by_id["newton/residual"]["value"]
        assert len(values) - 1 == by_id["newton/iterations"]["value"]
        assert (out / "solution" / "manifest.csv").exists()


class TestVerify:
    def test_small_resolution_run(self, tmp_path, capsys):
        out = tmp_path / "verify"
        rc = main(["verify", "--res", "16", "--seed", "1", "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["experiment"] == "verify-all"
        prefixes = {c["id"].split("/")[0] for c in report["checks"]}
        assert prefixes == {"complex", "gn", "hodge", "nonlinearity",
                            "norms", "solver"}
        assert all(c["status"] in ("pass", "measured")
                   for c in report["checks"])

    def test_bad_resolution_rejected(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["verify", "--res", "0"])
        assert info.value.code == 2
        assert "positive" in capsys.readouterr().err
