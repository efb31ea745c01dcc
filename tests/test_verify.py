"""Tests for the verification harness: records, reports, experiments,
the aggregated suite, the interpolation survey, and plot-data export."""

import json

import numpy as np
import pytest

import torusforms.verify as verify_module

from oracles import gn_survey_ratios, taylor_green_pressure, taylor_green_velocity
from torusforms.nonlinear import PRESETS
from torusforms.norms import TimeSeriesSolution
from torusforms.solver import (
    SolverConfig,
    SolverDivergenceError,
    build_basis,
    solve_nonlinear,
    write_csv,
)
from torusforms.spectral import FormField, SpectralGrid, l2_norm
from torusforms.verify import (
    DEFAULT_SIZES,
    CheckRecord,
    ExperimentSpec,
    VerificationReport,
    gn_ratio_survey,
    gn_survey_records,
    lower_check,
    measured_check,
    run_experiment,
    solution_norm_rows,
    taylor_green_pressure_field,
    taylor_green_state,
    upper_check,
    verify_all,
    write_energy_series,
    write_report,
)

SMALL_SIZES = {"res": 16, "solver_res": 8, "fields": 7,
               "gn_trials": 4, "gn_res": 16}


def _heat_solution() -> TimeSeriesSolution:
    cfg = SolverConfig(mu=0.5, T=0.2, dt=0.02, res=16, preset="zero")
    u0 = build_basis(SpectralGrid(2, 16), 1, 1).fields[0]
    return solve_nonlinear(None, u0, cfg, with_pressure=False)


class TestCheckRecords:
    def test_direction_conventions(self):
        assert upper_check("a", "x", 1e-13, 1e-12).status == "pass"
        assert upper_check("a", "x", 1e-11, 1e-12).status == "fail"
        assert upper_check("a", "x", float("nan"), 1e-12).status == "fail"
        assert lower_check("b-order", "x", 1.95, 1.9).status == "pass"
        assert lower_check("b-order", "x", 1.2, 1.9).status == "fail"
        m = measured_check("c", "x", 0.3)
        assert m.status == "measured" and m.tol is None

    def test_json_shape(self, tmp_path):
        report = VerificationReport(
            "demo", 3,
            (upper_check("a", "anchor-a", 0.0, 1.0), measured_check("b", "plumbing", 2.0)),
        )
        data = json.loads(report.to_json())
        assert list(data.keys()) == ["experiment", "seed", "checks"]
        assert data["experiment"] == "demo" and data["seed"] == 3
        assert [sorted(c.keys()) for c in data["checks"]] == [
            ["anchor", "id", "status", "tol", "value"]] * 2
        path = write_report(report, tmp_path / "sub" / "report.json")
        assert json.loads(path.read_text()) == data

    def test_failure_accounting(self):
        good = upper_check("a", "x", 0.0, 1.0)
        bad = upper_check("b", "x", 2.0, 1.0)
        report = VerificationReport("demo", 0, (good, bad))
        assert not report.passed
        assert [c.id for c in report.failed] == ["b"]
        assert VerificationReport("demo", 0, (good,)).passed


class TestWorstDefect:
    """The suites that keep the worst defect per check read a NaN defect
    as a fail; the builtin max(0.0, nan) would read 0.0, a pass."""

    @pytest.mark.parametrize("suite, patched, check", [
        ("_complex_suite", "harmonic_projection", "complex/harmonic-idempotent-n2"),
        ("_hodge_suite", "helmholtz_project", "hodge/projection-idempotent-n2"),
        ("_nonlinearity_suite", "convective_term", "nonlinearity/convective-agreement"),
    ])
    def test_nan_defect_fails(self, monkeypatch, suite, patched, check):
        monkeypatch.setattr(verify_module, patched, lambda u, *args: u * float("nan"))
        records = getattr(verify_module, suite)(np.random.default_rng(0), SMALL_SIZES)
        status = {r.id: r.status for r in records}
        assert status[check] == "fail"


class TestVortexClosedForms:
    def test_match_independent_expressions(self):
        grid = SpectralGrid(2, 32)
        meshes = grid.meshes()
        for t, mu in ((0.0, 0.1), (0.7, 0.25)):
            u = taylor_green_state(grid, t, mu)
            u_ref = FormField.from_physical(
                grid, 1, taylor_green_velocity(meshes, t, mu))
            assert l2_norm(u - u_ref) <= 1e-14
            p = taylor_green_pressure_field(grid, t, mu)
            p_ref = FormField.from_physical(
                grid, 0, [taylor_green_pressure(meshes, t, mu)])
            assert l2_norm(p - p_ref) <= 1e-14

    def test_two_torus_only(self):
        with pytest.raises(ValueError, match="2-torus"):
            taylor_green_state(SpectralGrid(3, 8))


class TestRunExperiment:
    SMALL_CFG = SolverConfig(mu=0.1, T=0.1, dt=5e-3, res=16,
                             scheme="imex-rk2")

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            run_experiment(ExperimentSpec("spin-glass"))

    def test_unknown_preset_rejected(self):
        # The experiment's nonlinearity is its config's preset, which the
        # config checks when it is built.
        with pytest.raises(ValueError, match="preset"):
            SolverConfig(mu=0.1, T=0.1, dt=5e-3, res=16, preset="nope")

    def test_benchmark_checks_pass(self, tmp_path):
        spec = ExperimentSpec("taylor-green", config=self.SMALL_CFG,
                              out_dir=tmp_path / "run", seed=1)
        report = run_experiment(spec)
        ids = [c.id for c in report.checks]
        assert ids == sorted(ids)
        assert "taylor-green/velocity-error" in ids
        assert "taylor-green/pressure-error" in ids
        assert report.passed
        assert (tmp_path / "run" / "solution" / "manifest.csv").exists()
        assert (tmp_path / "run" / "energy.csv").exists()

    def test_solver_divergence_reported_not_raised(self, monkeypatch):
        def diverge(*args, **kwargs):
            raise SolverDivergenceError("norm crossed the guard")

        monkeypatch.setattr(verify_module, "solve_nonlinear", diverge)
        report = run_experiment(ExperimentSpec("taylor-green", config=self.SMALL_CFG))
        assert report.checks == (CheckRecord(
            "taylor-green/solver-divergence", "plumbing", "fail", 1.0, 0.0),)
        assert not report.passed

    @pytest.mark.parametrize("preset", PRESETS)
    def test_nonlinearity_is_the_config_preset(self, monkeypatch, preset):
        # The spec has no preset of its own: the run's nonlinearity is the
        # one its config names.
        seen = []

        def capture(f_series, u0, cfg, nonlinearity, **kwargs):
            seen.append(nonlinearity)
            raise SolverDivergenceError("stop after the call")

        monkeypatch.setattr(verify_module, "solve_nonlinear", capture)
        cfg = SolverConfig(mu=0.1, T=0.1, dt=5e-3, res=16, preset=preset)
        run_experiment(ExperimentSpec("taylor-green", config=cfg))
        assert [(c.tag, c.degree) for c in seen] == [(preset, 1)]

    def test_hodge_identities_all_pass(self):
        report = run_experiment(ExperimentSpec(
            "hodge-identities", config=SolverConfig(mu=1.0, T=1.0, dt=0.5,
                                                    res=16), seed=2))
        assert report.checks and report.passed
        anchors = {c.anchor for c in report.checks}
        assert anchors <= {"projection-formula", "hodge-decomposition",
                           "pressure-gradient-inversion"}


class TestVerifyAll:
    def test_small_sizes_pass_and_deterministic(self):
        a = verify_all(seed=11, sizes=SMALL_SIZES)
        b = verify_all(seed=11, sizes=SMALL_SIZES)
        assert a.passed, [c.id for c in a.failed]
        assert a.to_json() == b.to_json()
        ids = [c.id for c in a.checks]
        assert ids == sorted(ids)
        prefixes = {i.split("/")[0] for i in ids}
        assert prefixes == {"complex", "gn", "hodge", "nonlinearity",
                            "norms", "solver"}

    def test_seed_changes_measured_values(self):
        a = verify_all(seed=1, sizes=SMALL_SIZES)
        b = verify_all(seed=2, sizes=SMALL_SIZES)
        va = [c.value for c in a.checks if c.status == "measured"]
        vb = [c.value for c in b.checks if c.status == "measured"]
        assert va != vb

    def test_doubling_sizes_keeps_pass_set(self):
        small = verify_all(seed=4, sizes=SMALL_SIZES)
        doubled = verify_all(seed=4, sizes={
            k: 2 * v for k, v in SMALL_SIZES.items()})
        passes = lambda rep: {c.id for c in rep.checks if c.status == "pass"}
        assert passes(small) == passes(doubled)

    def test_size_validation(self):
        with pytest.raises(ValueError, match="unknown size"):
            verify_all(sizes={"resolution": 32})
        with pytest.raises(ValueError, match="positive"):
            verify_all(sizes={"fields": 0})

    def test_default_sizes_cover_required_sweep(self):
        assert DEFAULT_SIZES["res"] == 32
        assert DEFAULT_SIZES["fields"] >= 100


class TestGNSurvey:
    def test_deterministic_and_stable(self):
        a = gn_ratio_survey(seed=3, trials=12, res=16)
        b = gn_ratio_survey(seed=3, trials=12, res=16)
        assert np.array_equal(a.ratios, b.ratios)
        assert a.exponent == 1.0
        assert np.all(np.isfinite(a.ratios)) and np.all(a.ratios > 0)
        # at res 16 the sixth-power quadrature still aliases, so the
        # resampled ratios shift slightly but stay well inside the band
        assert a.relative_change <= 0.05
        assert a.doubled_res == 32

    def test_ratios_equal_whole_grid_numpy_bit_for_bit(self):
        # The oracle draws and measures each trial with numpy's rfftn and
        # irfftn on whole grids; the package transforms support boxes only.
        report = gn_ratio_survey(seed=0, trials=30)
        ratios, doubled = gn_survey_ratios(seed=0, trials=30)
        assert np.array_equal(report.ratios, ratios)
        assert np.array_equal(report.doubled_ratios, doubled)

    def test_alias_free_resolution_resamples_exactly(self):
        report = gn_ratio_survey(seed=7, trials=2, res=32)
        assert report.relative_change <= 1e-10

    def test_records(self):
        report = gn_ratio_survey(seed=5, trials=6, res=16)
        records = gn_survey_records(report)
        by_id = {r.id: r for r in records}
        assert by_id["gn/interpolation-max-ratio"].status == "measured"
        assert by_id["gn/interpolation-stability"].status == "pass"

    def test_trials_validated(self):
        with pytest.raises(ValueError, match="trial"):
            gn_ratio_survey(trials=0)


class TestCSVSeries:
    def test_energy_monotone_decreasing(self, tmp_path):
        sol = _heat_solution()
        write_energy_series(sol, tmp_path / "plots")
        lines = (tmp_path / "plots" / "energy.csv").read_text().splitlines()
        assert lines[0] == "t,value"
        assert [row.split(",")[0] for row in lines[1:]] == [
            repr(float(t)) for t in sol.times]
        values = [float(row.split(",")[1]) for row in lines[1:]]
        assert all(b < a for a, b in zip(values, values[1:]))
        grad = (tmp_path / "plots" / "grad-energy.csv").read_text().splitlines()
        assert grad[0] == "t,value" and len(grad) == len(lines)

    def test_norm_table_columns_and_rows(self, tmp_path):
        sol = _heat_solution()
        rows = solution_norm_rows("demo", sol)
        assert all(np.isfinite(r[-1]) and r[-1] >= 0 for r in rows)
        names = {r[1] for r in rows}
        assert "sobolev-final" in names and "bochner-vel" in names
        path = write_csv(tmp_path / "norms.csv",
                         ("experiment_id", "norm_name", "k", "s", "p", "value"),
                         rows)
        lines = path.read_text().splitlines()
        assert lines[0] == "experiment_id,norm_name,k,s,p,value"
        assert len(lines) == len(rows) + 1
        # write_csv formats by cell type: k is an int, s, p and the value floats
        for line, row in zip(lines[1:], rows):
            cells = line.split(",")
            assert cells[2] == str(row[2]) and cells[2] in ("0", "1")
            assert cells[3:] == [repr(float(x)) for x in row[3:]]
