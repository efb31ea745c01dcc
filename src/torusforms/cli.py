"""Command-line front end.

Every subcommand builds a verification report, prints it as JSON on
stdout (or, when ``--out`` is given, writes ``report.json`` there and
prints one human-readable line per check instead), and exits nonzero iff
any pass/fail check failed.  With ``--out`` it also writes
``timings.json``, which maps each check id to the wall time in seconds of
the suite, experiment or command that made the check.  Flags shared by
all subcommands:

    --config FILE   structured text solver configuration
    --seed INT      random seed (default 0)
    --out DIR       output directory for solutions, CSV files, report.json
                    and timings.json
    --res/--dt/--mu/--preset   override the corresponding config entry
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from .nonlinear import PRESETS, get_preset
from .solver import (
    SolverConfig,
    discrete_forward_data,
    load_solver_config,
    newton_local_inverse,
    project_state,
    save_solution,
    solve_linearized,
    solve_nonlinear,
)
from .spectral import codifferential, fractional_power, l2_norm, random_form
from .verify import (
    CheckRecord,
    ExperimentSpec,
    VerificationReport,
    emit_plot_data,
    gn_ratio_survey,
    gn_survey_records,
    run_experiment,
    solution_norm_rows,
    taylor_green_state,
    verify_all,
    write_norm_series,
    write_norm_table,
    write_report,
    _measured,
    _rel,
    _upper,
)


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, default=None,
                        help="solver configuration file")
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument("--out", type=Path, default=None,
                        help="output directory")
    parser.add_argument("--res", type=int, default=None,
                        help="override spatial resolution")
    parser.add_argument("--dt", type=float, default=None,
                        help="override time step")
    parser.add_argument("--mu", type=float, default=None,
                        help="override viscosity")
    parser.add_argument("--preset", default=None, choices=PRESETS,
                        help="override nonlinearity preset")


def _resolve_config(args, default: SolverConfig) -> SolverConfig:
    cfg = load_solver_config(args.config) if args.config else default
    overrides = {
        key: getattr(args, key)
        for key in ("res", "dt", "mu", "preset")
        if getattr(args, key) is not None
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
    ns = get_preset(cfg.preset, cfg.n, cfg.degree)
    sol = solve_linearized(w, f, u0, cfg, ns,
                           store_every=max(1, cfg.steps // 50))
    div = max(_rel(l2_norm(codifferential(u)), l2_norm(u)) for u in sol.u)
    records = [
        _upper("solve-linear/divergence-free", "state-space-constraint",
               div, 1e-12),
        _measured("solve-linear/final-energy", "plumbing",
                  l2_norm(sol.u[-1]) ** 2),
    ]
    if args.out is not None:
        save_solution(sol, args.out / "solution")
        emit_plot_data(sol, ("energy", "grad-energy"), args.out)
    report = _command_report("solve-linear", args, records)
    return _finish(report, args.out)


def _cmd_solve_nonlinear(args) -> int:
    cfg = _resolve_config(
        args, SolverConfig(mu=0.1, T=1.0, dt=1e-3, res=32, scheme="imex-rk2"))
    spec = ExperimentSpec("taylor-green", config=cfg, preset=cfg.preset,
                          out_dir=args.out, seed=args.seed)
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
    grid = cfg.grid()
    ns = get_preset(cfg.preset, cfg.n, cfg.degree)
    sol = solve_nonlinear(None, taylor_green_state(grid, 0.0, cfg.mu), cfg, ns,
                          store_every=max(1, cfg.steps // 50))
    rows = solution_norm_rows("norms", sol)
    records = [
        _measured(f"norms/{name}-k{k}-s{s:g}-p{p:g}", "parabolic-norm", value)
        for (_, name, k, s, p, value) in rows
    ]
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        write_norm_table(args.out / "norms.csv", rows)
        series = []
        for t, u in zip(sol.times, sol.u):
            series.append((float(t), "energy", l2_norm(u) ** 2))
        for t, u in zip(sol.times, sol.u):
            series.append((float(t), "grad-energy",
                           l2_norm(fractional_power(u, 1)) ** 2))
        write_norm_series(args.out / "series.csv", series)
    report = _command_report("norms", args, records)
    return _finish(report, args.out)


def _cmd_gn_survey(args) -> int:
    res = args.res if args.res is not None else 32
    survey = gn_ratio_survey(seed=args.seed, trials=args.trials, res=res)
    records = list(gn_survey_records(survey))
    records.append(_measured("gn/interpolation-doubled-max-ratio",
                             "interpolation-inequality",
                             survey.doubled_max_ratio))
    if args.out is not None:
        emit_plot_data(None, ("gn-ratios",), args.out,
                       gn_ratios=survey.ratios)
    report = _command_report("gn-survey", args,
                             sorted(records, key=lambda r: r.id))
    return _finish(report, args.out)


def _cmd_newton(args) -> int:
    cfg = _resolve_config(
        args,
        SolverConfig(mu=0.1, T=0.1, dt=2e-3, res=16, scheme="imex-euler"))
    grid = cfg.grid()
    ns = get_preset(cfg.preset, cfg.n, cfg.degree)
    base = solve_nonlinear(None, taylor_green_state(grid, 0.0, cfg.mu), cfg, ns,
                           derivatives=0, with_pressure=False)
    f_cells, _ = discrete_forward_data(base.u, cfg, ns)
    rng = np.random.default_rng(args.seed)
    direction = project_state(random_form(grid, cfg.degree, rng, kmax=2,
                                          mean_free=True))
    direction = direction * (1.0 / l2_norm(direction))
    residual_history = []
    displacements = []
    iterations = 0
    for eps in (1e-3, 5e-4):
        target = [c + direction * eps for c in f_cells]
        result = newton_local_inverse(target, base.u[0], base, cfg, ns)
        if eps == 1e-3:
            residual_history = result.residual_history
            iterations = result.iterations
            if args.out is not None:
                save_solution(result.solution, args.out / "solution")
        displacements.append(
            max(l2_norm(a - b) for a, b in zip(result.solution.u, base.u)))
    ratio = displacements[1] / max(displacements[0], 1e-300)
    records = [
        _upper("newton/residual", "local-inversion",
               residual_history[-1], 1e-8),
        _upper("newton/iterations", "local-inversion",
               float(iterations), 6.0),
        _upper("newton/displacement-deviation", "local-inversion",
               abs(ratio - 0.5), 0.1),
        _upper("newton/contraction-factor", "local-inversion",
               _contraction_factor(residual_history), 1e-4),
    ]
    if args.out is not None:
        emit_plot_data(None, ("newton-residuals",), args.out,
                       newton_residuals=residual_history)
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
        "solve-linear": (_cmd_solve_linear,
                         "integrate the linearized parabolic problem with "
                         "seeded band-limited data"),
        "solve-nonlinear": (_cmd_solve_nonlinear,
                            "integrate the quadratic parabolic problem "
                            "(decaying-vortex benchmark by default)"),
        "verify": (_cmd_verify, "run the aggregated invariant suite"),
        "hodge": (_cmd_hodge, "run the projection/decomposition identity "
                              "experiment"),
        "norms": (_cmd_norms, "solve a short benchmark run and export its "
                              "norm table"),
        "gn-survey": (_cmd_gn_survey, "survey the interpolation-inequality "
                                      "ratio on random fields"),
        "newton": (_cmd_newton, "invert the discrete forward map near the "
                                "benchmark trajectory"),
    }
    for name, (func, help_text) in commands.items():
        p = sub.add_parser(name, help=help_text)
        _add_common_flags(p)
        if name == "gn-survey":
            p.add_argument("--trials", type=int, default=1000,
                           help="number of random fields")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args.started = time.perf_counter()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
