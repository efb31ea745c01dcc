"""Command-line front end.

Every subcommand builds a verification report, prints it as JSON on
stdout (or, when ``--out`` is given, writes ``report.json`` there and
prints one human-readable line per check instead), and exits nonzero iff
any pass/fail check failed.  With ``--out`` it also writes
``timings.json``, which maps each check id to the wall time in seconds of
the suite, experiment or command that made the check.  Each subcommand
registers only the flags it reads; any other fails at parse time (exit
code 2):

    --config FILE   structured text solver configuration (not verify or
                    gn-survey)
    --seed INT      random seed (default 0)
    --out DIR       output directory for solutions, CSV files, report.json
                    and timings.json
    --res INT       override the resolution (every subcommand)
    --dt/--mu/--preset   override the config entry (solve-linear,
                    solve-nonlinear, norms and newton)
    --trials INT    number of random fields (gn-survey only)
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from .nonlinear import PRESETS
from .solver import (
    SolverConfig,
    energy_series,
    load_solver_config,
    project_state,
    save_solution,
    solve_linearized,
    solve_nonlinear,
    write_csv,
)
from .spectral import codifferential, l2_norm, random_form
from .verify import (
    ENERGY_NAMES,
    ExperimentSpec,
    VerificationReport,
    gn_ratio_survey,
    gn_survey_records,
    measured_check,
    newton_openness,
    relative,
    run_experiment,
    solution_norm_rows,
    taylor_green_state,
    upper_check,
    verify_all,
    write_energy_series,
    write_report,
)


_FLAGS = {
    "--config": dict(type=Path, default=None, help="solver configuration file"),
    "--seed": dict(type=int, default=0, help="random seed"),
    "--out": dict(type=Path, default=None, help="output directory"),
    "--res": dict(type=int, default=None, help="override spatial resolution"),
    "--dt": dict(type=float, default=None, help="override time step"),
    "--mu": dict(type=float, default=None, help="override viscosity"),
    "--preset": dict(default=None, choices=PRESETS,
                     help="override nonlinearity preset"),
    "--trials": dict(type=int, default=1000, help="number of random fields"),
}
_SOLVE_FLAGS = ("--config", "--seed", "--out", "--res", "--dt", "--mu", "--preset")


def _resolve_config(args, default: SolverConfig) -> SolverConfig:
    cfg = load_solver_config(args.config) if args.config else default
    overrides = {
        key: getattr(args, key)
        for key in ("res", "dt", "mu", "preset")
        if getattr(args, key, None) is not None
    }
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    return cfg


def _command_report(name: str, args, records) -> VerificationReport:
    """The report of checks a command made itself, each stamped with the
    command's wall time."""
    elapsed = time.perf_counter() - args.started
    return VerificationReport(name, args.seed, tuple(
        dataclasses.replace(r, runtime=elapsed) for r in records))


def _finish(report: VerificationReport, out_dir: Path | None) -> int:
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        write_report(report, out_dir / "report.json")
        timings = {check.id: check.runtime for check in report.checks}
        (out_dir / "timings.json").write_text(json.dumps(timings, indent=2) + "\n")
        for check in report.checks:
            tol = "-" if check.tol is None else f"{check.tol:g}"
            print(f"{check.status:8s} {check.id:45s} "
                  f"value={check.value:.6e} tol={tol}")
    else:
        print(report.to_json())
    return 0 if report.passed else 1


def _cmd_solve_linear(args) -> int:
    cfg = _resolve_config(
        args, SolverConfig(mu=0.1, T=0.5, dt=5e-3, res=32))
    grid = cfg.grid()
    rng = np.random.default_rng(args.seed)
    kmax = grid.res / 6.0
    w = project_state(random_form(grid, cfg.degree, rng, kmax=kmax))
    f = project_state(random_form(grid, cfg.degree, rng, kmax=kmax))
    u0 = project_state(random_form(grid, cfg.degree, rng, kmax=kmax))
    sol = solve_linearized(w, f, u0, cfg, store_every=max(1, cfg.steps // 50))
    div = max(relative(l2_norm(codifferential(u)), l2_norm(u)) for u in sol.u)
    records = [
        upper_check("solve-linear/divergence-free", "state-space-constraint",
                    div, 1e-12),
        measured_check("solve-linear/final-energy", "plumbing",
                       l2_norm(sol.u[-1]) ** 2),
    ]
    if args.out is not None:
        save_solution(sol, args.out / "solution")
        write_energy_series(sol, args.out)
    report = _command_report("solve-linear", args, records)
    return _finish(report, args.out)


def _cmd_solve_nonlinear(args) -> int:
    cfg = _resolve_config(
        args, SolverConfig(mu=0.1, T=1.0, dt=1e-3, res=32, scheme="imex-rk2"))
    spec = ExperimentSpec("taylor-green", config=cfg, out_dir=args.out,
                          seed=args.seed)
    report = run_experiment(spec)
    return _finish(report, args.out)


def _cmd_verify(args) -> int:
    sizes = None
    if args.res is not None:
        sizes = {"res": args.res, "gn_res": args.res,
                 "solver_res": max(8, args.res // 2)}
    report = verify_all(seed=args.seed, sizes=sizes)
    return _finish(report, args.out)


def _cmd_hodge(args) -> int:
    cfg = _resolve_config(args, SolverConfig(mu=0.1, T=0.1, dt=0.01, res=32))
    spec = ExperimentSpec("hodge-identities", config=cfg, out_dir=args.out,
                          seed=args.seed)
    report = run_experiment(spec)
    return _finish(report, args.out)


def _cmd_norms(args) -> int:
    cfg = _resolve_config(
        args, SolverConfig(mu=0.1, T=0.2, dt=2e-3, res=32, scheme="imex-rk2"))
    sol = solve_nonlinear(None, taylor_green_state(cfg.grid(), 0.0, cfg.mu), cfg,
                          store_every=max(1, cfg.steps // 50))
    rows = solution_norm_rows("norms", sol)
    records = [
        measured_check(f"norms/{name}-k{k}-s{s:g}-p{p:g}", "parabolic-norm", value)
        for (_, name, k, s, p, value) in rows
    ]
    if args.out is not None:
        write_csv(args.out / "norms.csv",
                  ("experiment_id", "norm_name", "k", "s", "p", "value"), rows)
        series = energy_series(sol)
        write_csv(args.out / "series.csv", ("t", "quantity", "value"),
                  [(t, name, e[j]) for j, name in enumerate(ENERGY_NAMES)
                   for t, e in zip(sol.times, series)])
    report = _command_report("norms", args, records)
    return _finish(report, args.out)


def _cmd_gn_survey(args) -> int:
    res = args.res if args.res is not None else 32
    survey = gn_ratio_survey(seed=args.seed, trials=args.trials, res=res)
    records = list(gn_survey_records(survey))
    records.append(measured_check("gn/interpolation-doubled-max-ratio",
                                  "interpolation-inequality",
                                  survey.doubled_max_ratio))
    if args.out is not None:
        write_csv(args.out / "gn-ratios.csv", ("iteration", "value"),
                  enumerate(survey.ratios))
    report = _command_report("gn-survey", args,
                             sorted(records, key=lambda r: r.id))
    return _finish(report, args.out)


def _cmd_newton(args) -> int:
    cfg = _resolve_config(
        args,
        SolverConfig(mu=0.1, T=0.1, dt=2e-3, res=16, scheme="imex-euler"))
    _, _, results, displacements = newton_openness(
        cfg, cfg.nonlinearity(), np.random.default_rng(args.seed))
    residual_history = results[0].residual_history
    if args.out is not None:
        save_solution(results[0].solution, args.out / "solution")
    ratio = displacements[1] / max(displacements[0], 1e-300)
    records = [
        upper_check("newton/residual", "local-inversion",
                    residual_history[-1], 1e-8),
        upper_check("newton/iterations", "local-inversion",
                    float(results[0].iterations), 6.0),
        upper_check("newton/displacement-deviation", "local-inversion",
                    abs(ratio - 0.5), 0.1),
        upper_check("newton/contraction-factor", "local-inversion",
                    _contraction_factor(residual_history), 1e-4),
    ]
    if args.out is not None:
        write_csv(args.out / "newton-residuals.csv", ("iteration", "value"),
                  enumerate(residual_history))
    report = _command_report("newton", args, records)
    return _finish(report, args.out)


def _contraction_factor(history) -> float:
    """Worst per-iteration residual ratio; tiny for a quadratic iteration."""
    ratios = [b / a for a, b in zip(history, history[1:]) if a > 0]
    return float(max(ratios)) if ratios else 0.0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torusforms",
        description="Spectral de Rham complex on flat tori: solvers, "
                    "Hodge operators, norms, and verification experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "solve-linear": (_cmd_solve_linear, _SOLVE_FLAGS,
                         "integrate the linearized parabolic problem with "
                         "seeded band-limited data"),
        "solve-nonlinear": (_cmd_solve_nonlinear, _SOLVE_FLAGS,
                            "integrate the quadratic parabolic problem "
                            "(decaying-vortex benchmark by default)"),
        "verify": (_cmd_verify, ("--seed", "--out", "--res"),
                   "run the aggregated invariant suite"),
        "hodge": (_cmd_hodge, ("--config", "--res", "--seed", "--out"),
                  "run the projection/decomposition identity experiment"),
        "norms": (_cmd_norms, _SOLVE_FLAGS,
                  "solve a short benchmark run and export its norm table"),
        "gn-survey": (_cmd_gn_survey, ("--seed", "--out", "--res", "--trials"),
                      "survey the interpolation-inequality ratio on random "
                      "fields"),
        "newton": (_cmd_newton, _SOLVE_FLAGS,
                   "invert the discrete forward map near the benchmark "
                   "trajectory"),
    }
    for name, (func, flags, help_text) in commands.items():
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    """Run a command; a ``ValueError`` or ``FileNotFoundError`` exits 2."""
    parser = build_parser()
    args = parser.parse_args(argv)
    args.started = time.perf_counter()
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError) as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
