"""Verification harness: preset experiments, the aggregated invariant
suite, report serialization, and plot-ready data export.

Each check record carries a stable ``anchor`` slug naming the mathematical
fact being exercised ("plumbing" for artifact checks).  Records whose id
ends in ``-order`` or ``-min`` pass when ``value >= tol`` (convergence
orders and decay factors); all others pass when ``value <= tol``.
Reports serialize to the JSON schema

    {experiment, seed, checks: [{id, anchor, status, value, tol}]}

with status one of pass / fail / measured (measured records carry no
tolerance).  All randomness flows from explicit seeds, so a fixed seed
yields a bit-identical report on one platform.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .hodge import hodge_decompose, helmholtz_project
from .nonlinear import (
    bilinear_term,
    checked_state,
    continuity_bound_survey,
    convective_term,
    half_dot_map,
    interior_product_map,
    navier_stokes_config,
    nonlinear_term,
)
from .norms import (
    BochnerIndex,
    SobolevIndex,
    TimeSeriesSolution,
    bochner_norm,
    gagliardo_nirenberg_check,
    gronwall_envelope,
    sobolev_norm,
    split_sobolev_norm,
)
from .solver import (
    SolverConfig,
    SolverDivergenceError,
    assemble_linearized,
    apply_inverse,
    build_basis,
    discrete_forward_data,
    discrete_linearized_data,
    discrete_residual,
    energy_identity_residual,
    energy_series,
    galerkin_convergence_study,
    lions_identity_residual,
    newton_local_inverse,
    project_state,
    save_solution,
    solve_nonlinear,
    write_csv,
    _pressure,
    _worst,
)
from .spectral import (
    FormField,
    SpectralGrid,
    codifferential,
    exterior_derivative,
    fractional_power,
    harmonic_projection,
    hodge_laplacian,
    inner_product,
    l2_norm,
    lp_norm,
    parametrix,
    pointwise_magnitude,
    random_form,
    remove_harmonic,
    resample,
    to_physical,
)


@dataclass(frozen=True)
class CheckRecord:
    """One verified fact: identifier, anchor slug, verdict, and numbers."""

    id: str
    anchor: str
    status: str
    value: float
    tol: float | None
    runtime: float = 0.0

    def to_json_dict(self) -> dict:
        return {
            "id": self.id,
            "anchor": self.anchor,
            "status": self.status,
            "value": self.value,
            "tol": self.tol,
        }


def upper_check(check_id: str, anchor: str, value: float, tol: float) -> CheckRecord:
    status = "pass" if math.isfinite(value) and value <= tol else "fail"
    return CheckRecord(check_id, anchor, status, float(value), tol)


def lower_check(check_id: str, anchor: str, value: float, floor: float) -> CheckRecord:
    status = "pass" if math.isfinite(value) and value >= floor else "fail"
    return CheckRecord(check_id, anchor, status, float(value), floor)


def measured_check(check_id: str, anchor: str, value: float) -> CheckRecord:
    return CheckRecord(check_id, anchor, "measured", float(value), None)


def _timed(run: Callable[..., list[CheckRecord]], *args) -> list[CheckRecord]:
    """Call a suite or experiment and stamp its wall time on every record."""
    start = time.perf_counter()
    records = run(*args)
    elapsed = time.perf_counter() - start
    return [replace(r, runtime=elapsed) for r in records]


@dataclass(frozen=True)
class VerificationReport:
    """Aggregated check records for one experiment or the full suite."""

    experiment: str
    seed: int
    checks: tuple[CheckRecord, ...]

    @property
    def failed(self) -> tuple[CheckRecord, ...]:
        return tuple(c for c in self.checks if c.status == "fail")

    @property
    def passed(self) -> bool:
        return not self.failed

    def to_json(self) -> str:
        payload = {
            "experiment": self.experiment,
            "seed": self.seed,
            "checks": [c.to_json_dict() for c in self.checks],
        }
        return json.dumps(payload, indent=2)


def write_report(report: VerificationReport, path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(report.to_json() + "\n")
    return path


def _observed_order(values: Sequence[float]) -> float:
    """Smallest log2 decay rate of consecutive values under halving."""
    rates = [np.log2(values[i] / values[i + 1]) for i in range(len(values) - 1)]
    return float(min(rates))


def relative(defect: float, *scales: float) -> float:
    return defect / max(sum(scales), 1e-300)


class _Worst(dict):
    """The largest defect seen under each check key, 0 before any.  A NaN
    defect stays NaN (``solver._worst``), so an identity that turned NaN
    reads as a fail, where ``max(0.0, nan)`` would read 0.0, a pass."""

    def bump(self, key: str, value: float) -> None:
        self[key] = _worst([self.get(key, 0.0), value])


# -- closed-form benchmark ----------------------------------------------------


def taylor_green_state(grid: SpectralGrid, t: float = 0.0,
                       mu: float = 0.1) -> FormField:
    """Decaying vortex velocity e^{-2 mu t} (sin x cos y, -cos x sin y)."""
    if grid.n != 2:
        raise ValueError("the decaying-vortex benchmark lives on the 2-torus")
    x, y = grid.meshes()
    decay = float(np.exp(-2.0 * mu * t))
    return FormField.from_physical(
        grid, 1, [decay * np.sin(x) * np.cos(y), -decay * np.cos(x) * np.sin(y)]
    )


def taylor_green_pressure_field(grid: SpectralGrid, t: float = 0.0,
                                mu: float = 0.1) -> FormField:
    """Pressure paired with ``taylor_green_state``:
    +1/4 e^{-4 mu t} (cos 2x + cos 2y)."""
    x, y = grid.meshes()
    decay = float(np.exp(-4.0 * mu * t))
    return FormField.from_physical(
        grid, 0, [0.25 * decay * (np.cos(2 * x) + np.cos(2 * y))]
    )


def _two_band_state(grid: SpectralGrid) -> FormField:
    x, y = grid.meshes()
    extra = FormField.from_physical(
        grid, 1, [np.sin(x + 2 * y), np.zeros(grid.shape)]
    )
    return project_state(taylor_green_state(grid) + extra * 0.5)


# -- invariant suites ----------------------------------------------------------


def _sweep_cases(n_values=(2, 3)):
    return [(n, degree) for n in n_values for degree in range(n + 1)]


def _complex_suite(rng: np.random.Generator, sizes: Mapping) -> list[CheckRecord]:
    """Identities of d, delta, the Laplacian, Pi, and the parametrix."""
    res = int(sizes["res"])
    fields = int(sizes["fields"])
    cases = _sweep_cases()
    per_case = -(-fields // len(cases))
    worst = _Worst()
    bump = worst.bump
    for n, degree in cases:
        grid = SpectralGrid(n, res)
        zero_mode = (0,) * n
        for _ in range(per_case):
            u = random_form(grid, degree, rng)
            v = random_form(grid, degree, rng)
            nu = l2_norm(u)
            h2 = sobolev_norm(u, SobolevIndex(2.0, 2.0))
            if degree + 2 <= n:
                du = exterior_derivative(u)
                bump(f"dd-zero-n{n}",
                     relative(l2_norm(exterior_derivative(du)), h2, nu))
            if degree - 2 >= 0:
                su = codifferential(u)
                bump(f"delta-delta-zero-n{n}",
                     relative(l2_norm(codifferential(su)), h2, nu))
            if degree + 1 <= n:
                w = random_form(grid, degree + 1, rng)
                du = exterior_derivative(u)
                sw = codifferential(w)
                gap = abs(inner_product(du, w) - inner_product(u, sw))
                bump(f"adjoint-pairing-n{n}",
                     relative(gap, l2_norm(du) * l2_norm(w), nu * l2_norm(sw)))
            lap = hodge_laplacian(u)
            bump(f"laplacian-multiplier-n{n}",
                 relative(l2_norm(lap - fractional_power(u, 2.0)), l2_norm(lap)))
            # parametrix inverts the Laplacian off the harmonic modes
            mean_free = remove_harmonic(u)
            bump(f"parametrix-left-n{n}",
                 relative(l2_norm(parametrix(lap) - mean_free), nu))
            bump(f"parametrix-right-n{n}",
                 relative(l2_norm(hodge_laplacian(parametrix(u)) - mean_free), nu))
            pi = harmonic_projection(u)
            bump(f"harmonic-idempotent-n{n}",
                 relative(l2_norm(harmonic_projection(pi) - pi), nu))
            gap = abs(inner_product(pi, v) - inner_product(u, harmonic_projection(v)))
            bump(f"harmonic-self-adjoint-n{n}", relative(gap, nu * l2_norm(v)))
            bump(f"harmonic-kills-mean-free-n{n}",
                 relative(l2_norm(harmonic_projection(mean_free)), nu))
            s, t = 1.5, 0.75
            semi = fractional_power(fractional_power(u, s), t)
            bump(f"fractional-semigroup-n{n}",
                 relative(l2_norm(semi - fractional_power(u, s + t)),
                          l2_norm(fractional_power(u, s + t))))
            for m in (1, 2, 3):
                gap = abs(split_sobolev_norm(u, m)
                          - sobolev_norm(u, SobolevIndex(float(m), 2.0)))
                bump(f"split-gradient-parseval-n{n}",
                     relative(gap, sobolev_norm(u, SobolevIndex(float(m), 2.0))))
        # the image of Pi is exactly the constants, one per component
        for comp in range(grid.component_count(degree)):
            coeffs = [np.zeros(grid.half_shape, dtype=np.complex128)
                      for _ in range(grid.component_count(degree))]
            coeffs[comp][zero_mode] = 1.0
            e = FormField(grid, degree, tuple(coeffs))
            bump(f"harmonic-rank-n{n}", l2_norm(harmonic_projection(e) - e))

    anchors = {
        "dd": "complex-identity",
        "delta": "complex-identity",
        "adjoint": "adjoint-pairing",
        "laplacian": "laplacian-definition",
        "parametrix": "parametrix-identity",
        "harmonic": "harmonic-projection",
        "fractional": "gradient-multiplier",
        "split": "norm-equivalence",
    }
    return [upper_check(f"complex/{key}", anchors[key.split("-")[0]], value, 1e-12)
            for key, value in sorted(worst.items())]


def _hodge_suite(rng: np.random.Generator, sizes: Mapping) -> list[CheckRecord]:
    """Helmholtz projection, orthogonal decomposition, and the solvers'
    pressure: ``_pressure`` of a source Q = -d q on its band halves, whose
    potential is q for a mean-free coclosed q."""
    res = int(sizes["res"])
    fields = int(sizes["fields"])
    cases = _sweep_cases()
    per_case = -(-fields // len(cases))
    worst = _Worst()
    bump = worst.bump
    for n, degree in cases:
        grid = SpectralGrid(n, res)
        for _ in range(per_case):
            u = random_form(grid, degree, rng)
            v = random_form(grid, degree, rng)
            nu = l2_norm(u)
            pu = helmholtz_project(u)
            bump(f"projection-idempotent-n{n}",
                 relative(l2_norm(helmholtz_project(pu) - pu), nu))
            gap = abs(inner_product(pu, v) - inner_product(u, helmholtz_project(v)))
            bump(f"projection-self-adjoint-n{n}", relative(gap, nu * l2_norm(v)))
            bump(f"projection-orthogonal-n{n}",
                 relative(abs(inner_product(pu, u - pu)), nu * nu))
            if degree >= 1:
                bump(f"projection-coclosed-n{n}",
                     relative(l2_norm(codifferential(pu)),
                              sobolev_norm(u, SobolevIndex(1.0, 2.0))))
            dec = hodge_decompose(u)
            total = dec.exact + dec.coexact + dec.harmonic
            bump(f"decomposition-reassembly-n{n}", relative(l2_norm(total - u), nu))
            pythag = abs(
                nu**2 - l2_norm(dec.exact) ** 2 - l2_norm(dec.coexact) ** 2
                - l2_norm(dec.harmonic) ** 2
            )
            bump(f"decomposition-pythagoras-n{n}", relative(pythag, nu**2))
            if degree + 1 <= n:
                da = exterior_derivative(u)
                dd = hodge_decompose(da)
                bump(f"decomposition-exact-input-n{n}",
                     relative(l2_norm(dd.coexact) + l2_norm(dd.harmonic), l2_norm(da)))
            if degree >= 1:
                # gradients of mean-free coclosed potentials round-trip
                q = random_form(grid, degree - 1, rng)
                q = remove_harmonic(helmholtz_project(q))
                if l2_norm(q) > 0:
                    dq = checked_state(exterior_derivative(q), grid, degree,
                                       "pressure source")
                    rec = _pressure(dq, -dq.halves, None, None)
                    bump(f"pressure-roundtrip-n{n}",
                         relative(l2_norm(rec - q), l2_norm(q)))
    return [upper_check(f"hodge/{key}",
                        "pressure-gradient-inversion" if key.startswith("pressure")
                        else "projection-formula" if key.startswith("projection")
                        else "hodge-decomposition",
                        value, 1e-10 if key.startswith("pressure") else 1e-12)
            for key, value in sorted(worst.items())]


def _norms_suite(rng: np.random.Generator, sizes: Mapping) -> list[CheckRecord]:
    """Norm equivalences, Bochner-refinement order, integral envelopes."""
    res = int(sizes["res"])
    records = []
    grid = SpectralGrid(2, res)
    worst = _Worst()
    for degree in range(3):
        for _ in range(6):
            u = random_form(grid, degree, rng)
            for m in range(7):
                ref = sobolev_norm(u, SobolevIndex(float(m), 2.0))
                worst.bump("tilde-equals-nabla",
                           relative(abs(split_sobolev_norm(u, m) - ref), ref))
            for m in (0, 1, 2):
                quad = sobolev_norm(u, SobolevIndex(float(m), 2.0))
                grad = (l2_norm(fractional_power(u, float(m))) if m > 0
                        else l2_norm(remove_harmonic(u)))
                spec_val = math.hypot(grad, l2_norm(harmonic_projection(u)))
                worst.bump("nabla-two-ways", relative(abs(quad - spec_val), spec_val))
    records.append(upper_check("norms/tilde-equals-nabla", "norm-equivalence",
                               worst["tilde-equals-nabla"], 1e-12))
    records.append(upper_check("norms/nabla-two-ways", "norm-equivalence",
                               worst["nabla-two-ways"], 1e-10))

    # time-grid refinement: trapezoid integration converges at order 2
    base = build_basis(SpectralGrid(2, 16), 1, 1).fields[0]
    values = []
    for steps in (50, 100, 200):
        times = np.linspace(0.0, 1.0, steps + 1)
        series = [base * float(np.exp(-t)) for t in times]
        cache = {1: [w * (-1.0) for w in series]}
        sol = TimeSeriesSolution(times, series, dt_cache=cache)
        values.append(bochner_norm(sol, BochnerIndex(0, 1)))
    diffs = [abs(a - b) for a, b in zip(values, values[1:])]
    records.append(lower_check("norms/bochner-refinement-order", "parabolic-norm",
                               _observed_order(diffs), 1.9))

    # saturated exponential envelope: Y' = Y, A = 1, B = 1
    times = np.linspace(0.0, 1.0, 1001)
    Y = np.exp(times)
    rep = gronwall_envelope(times, np.ones_like(times), np.ones_like(times), Y)
    excess = float(np.max((Y - rep.envelope) / np.maximum(rep.envelope, 1.0)))
    records.append(upper_check("norms/gronwall-saturation", "integral-envelope",
                               max(excess, 0.0), 1e-9))

    # dissipative solver energy sits under the constant envelope
    cfg = SolverConfig(mu=0.5, T=0.5, dt=0.01, res=16, preset="zero")
    sol = solve_nonlinear(None, _two_band_state(SpectralGrid(2, 16)), cfg,
                          derivatives=0, with_pressure=False)
    energies = np.array([l2_norm(u) ** 2 for u in sol.u])
    rep = gronwall_envelope(sol.times, np.full_like(sol.times, energies[0]),
                            np.zeros_like(sol.times), energies)
    value = 0.0 if rep.holds else 1.0
    records.append(upper_check("norms/gronwall-heat-envelope", "integral-envelope",
                               value, 0.5))

    # embedding ratio is stable under resolution doubling (exact resample)
    grid16 = SpectralGrid(2, 16)
    cfg = SolverConfig(mu=0.2, T=0.1, dt=5e-3, res=16)
    sol = solve_nonlinear(None, _two_band_state(grid16), cfg, with_pressure=False)
    ratios = []
    for target_res in (16, 32):
        tgt = SpectralGrid(2, target_res)
        series = ([resample(u, tgt) for u in sol.u]
                  if target_res != 16 else sol.u)
        cache = {1: ([resample(w, tgt) for w in sol.dt_cache[1]]
                     if target_res != 16 else sol.dt_cache[1])}
        lifted = TimeSeriesSolution(sol.times, series, dt_cache=cache)
        sup_series = np.array([lp_norm(u, np.inf) for u in lifted.u])
        ln_series = np.array([lp_norm(u, float(tgt.n)) for u in lifted.u])
        l2_of_sup = float(np.sqrt(np.trapezoid(sup_series**2, sol.times)))
        vel = bochner_norm(lifted, BochnerIndex(0, 1))
        ratios.append((l2_of_sup + float(np.max(ln_series))) / vel)
    records.append(measured_check("norms/embedding-ratio", "parabolic-embedding",
                                  ratios[0]))
    records.append(upper_check("norms/embedding-ratio-stability",
                               "parabolic-embedding",
                               abs(ratios[1] / ratios[0] - 1.0), 0.10))
    return records


def _gn_suite(rng: np.random.Generator, sizes: Mapping) -> list[CheckRecord]:
    seed = int(rng.integers(0, 2**32))
    report = gn_ratio_survey(seed=seed, trials=int(sizes["gn_trials"]),
                             res=int(sizes["gn_res"]))
    return gn_survey_records(report)


def _nonlinearity_suite(rng: np.random.Generator,
                        sizes: Mapping) -> list[CheckRecord]:
    """Bilinear-map bounds, polarization, dealiasing, cancellation."""
    pairs = max(10, int(sizes["fields"]) // 4)
    records = []
    worst = _Worst()
    for n in (2, 3):
        grid = SpectralGrid(n, 16 if n == 3 else 24)
        for bmap in (interior_product_map(n), half_dot_map(n)):
            for _ in range(pairs):
                u = random_form(grid, bmap.degree_first, rng)
                v = random_form(grid, bmap.degree_second, rng)
                out = bmap.apply_fibre(np.stack(to_physical(u)),
                                       np.stack(to_physical(v)))
                mag = np.sqrt(np.sum(out**2, axis=0))
                bound = bmap.operator_norm * pointwise_magnitude(u) * \
                    pointwise_magnitude(v)
                worst.bump("pointwise",
                           float(np.max(mag - bound) / max(np.max(bound), 1e-300)))
    records.append(upper_check("nonlinearity/pointwise-bound", "fibre-bound",
                               worst["pointwise"], 1e-12))

    grid = SpectralGrid(2, 24)
    ns = navier_stokes_config(2)
    for _ in range(8):
        v = project_state(random_form(grid, 1, rng, kmax=4))
        w = project_state(random_form(grid, 1, rng, kmax=4))
        scale = max(l2_norm(nonlinear_term(v, ns)), 1e-300)
        worst.bump("polarization",
                   l2_norm(bilinear_term(v, v, ns) - nonlinear_term(v, ns) * 2.0) / scale)
        lin_gap = bilinear_term(w, v + w * 0.5, ns) \
            - bilinear_term(w, v, ns) - bilinear_term(w, w, ns) * 0.5
        worst.bump("linearity", l2_norm(lin_gap) / scale)
        worst.bump("trilinear", abs(inner_product(convective_term(w, v), v))
                   / max(l2_norm(w) * l2_norm(v) ** 2, 1e-300))
        worst.bump("convective",
                   l2_norm(nonlinear_term(v, ns) - convective_term(v, v)) / scale)
    records.append(upper_check("nonlinearity/polarization", "quadratic-polarization",
                               worst["polarization"], 1e-14))
    records.append(upper_check("nonlinearity/bilinear-linearity",
                               "quadratic-polarization", worst["linearity"], 1e-12))
    records.append(upper_check("nonlinearity/trilinear-vanishing",
                               "trilinear-cancellation", worst["trilinear"], 1e-10))
    records.append(upper_check("nonlinearity/convective-agreement",
                               "advective-form", worst["convective"], 1e-12))

    # band-limited products are aliasing-free: doubling res changes nothing
    coarse = SpectralGrid(2, 24)
    fine = SpectralGrid(2, 48)
    for _ in range(5):
        v = project_state(random_form(coarse, 1, rng, kmax=4))
        nc = nonlinear_term(v, ns)
        nf = nonlinear_term(resample(v, fine), ns)
        worst.bump("alias", relative(l2_norm(resample(nf, coarse) - nc), l2_norm(nc)))
    records.append(upper_check("nonlinearity/dealias-consistency", "dealiasing",
                               worst["alias"], 1e-12))

    cont_seed = int(rng.integers(0, 2**32))
    survey = continuity_bound_survey(ns, SpectralGrid(2, 24), trials=40,
                                     k=0, s=1, seed=cont_seed, kmax=4.0)
    records.append(measured_check("nonlinearity/continuity-max-ratio",
                                  "bilinear-continuity", survey.max_ratio))
    # evaluate the same ratio on exactly resampled pairs at doubled res
    times = np.linspace(0.0, 1.0, 3)
    rng2 = np.random.default_rng(cont_seed)
    for _ in range(10):
        w = project_state(random_form(coarse, 1, rng2, kmax=4))
        v = project_state(random_form(coarse, 1, rng2, kmax=4))
        vals = []
        for g in (coarse, fine):
            wq = w if g is coarse else resample(w, g)
            vq = v if g is coarse else resample(v, g)
            b = bilinear_term(wq, vq, ns)
            num = bochner_norm(
                TimeSeriesSolution(times, [b] * 3), BochnerIndex(0, 0, "for"))
            den = (
                bochner_norm(TimeSeriesSolution(times, [wq] * 3),
                             BochnerIndex(2, 0)) *
                bochner_norm(TimeSeriesSolution(times, [vq] * 3),
                             BochnerIndex(2, 0))
            )
            vals.append(num / den)
        worst.bump("continuity", abs(vals[1] / vals[0] - 1.0))
    records.append(upper_check("nonlinearity/continuity-stability",
                               "bilinear-continuity", worst["continuity"], 0.10))
    return records


def _solver_suite(rng: np.random.Generator, sizes: Mapping) -> list[CheckRecord]:
    """Exact benchmark, scheme orders, energy laws, inversion, truncation."""
    res = int(sizes["solver_res"])
    grid = SpectralGrid(2, res)
    u0 = _two_band_state(grid)
    ns = navier_stokes_config(2)
    records = []

    # exact-solution reproduction at benchmark settings
    bench_res = int(sizes["res"])
    bench_grid = SpectralGrid(2, bench_res)
    cfg = SolverConfig(mu=0.1, T=1.0, dt=1e-3, res=bench_res, scheme="imex-rk2")
    sol = solve_nonlinear(None, taylor_green_state(bench_grid), cfg,
                          store_every=cfg.steps // 10, derivatives=0)
    vel_err, pre_err = _vortex_errors(sol, bench_grid, cfg.mu)
    records.append(upper_check("solver/vortex-velocity-error",
                               "exact-vortex-solution", vel_err, 1e-5))
    records.append(upper_check("solver/vortex-pressure-error",
                               "exact-vortex-solution", pre_err, 1e-4))

    # self-convergence orders under step halving
    for scheme, floor in (("imex-euler", 0.9), ("imex-rk2", 1.9)):
        records.append(lower_check(f"solver/convergence-{scheme}-order",
                                   "scheme-accuracy",
                                   _self_convergence_order(scheme, res), floor))

    # divergence-free invariance and energy laws on one trajectory
    cfg = SolverConfig(mu=0.2, T=0.2, dt=2e-3, res=res, scheme="imex-rk2")
    sol = solve_nonlinear(None, u0, cfg)
    div = max(relative(l2_norm(codifferential(u)), l2_norm(u)) for u in sol.u)
    records.append(upper_check("solver/divergence-free-invariance",
                               "state-space-constraint", div, 1e-12))
    energies = [l2_norm(u) for u in sol.u]
    rises = max(b - a for a, b in zip(energies, energies[1:]))
    records.append(upper_check("solver/energy-monotone", "energy-identity",
                               max(rises, 0.0), 1e-13))
    grads = [l2_norm(fractional_power(u, 1)) ** 2 for u in sol.u]
    dissipated = 2 * cfg.mu * float(np.trapezoid(grads, sol.times))
    balance = abs(energies[-1] ** 2 + dissipated - energies[0] ** 2)
    records.append(upper_check("solver/energy-balance", "energy-identity",
                               relative(balance, energies[0] ** 2), 1e-6))

    energy_res, lions_res, pressure_res = [], [], []
    for dt in (8e-3, 4e-3, 2e-3):
        c = SolverConfig(mu=0.2, T=0.16, dt=dt, res=res, scheme="imex-rk2")
        s = solve_nonlinear(None, u0, c)
        energy_res.append(energy_identity_residual(s, c.mu, ns_cfg=ns,
                                                   nonlinear=True))
        lions_res.append(lions_identity_residual(s))
        worst = 0.0
        for j in range(1, len(s.times) - 1):
            du = (s.u[j + 1] - s.u[j - 1]) * (1.0 / (s.times[j + 1] - s.times[j - 1]))
            full = du + hodge_laplacian(s.u[j]) * c.mu \
                + nonlinear_term(s.u[j], ns) + exterior_derivative(s.p[j])
            worst = max(worst, l2_norm(full))
        pressure_res.append(worst)
    records.append(lower_check("solver/energy-identity-order", "energy-identity",
                               _observed_order(energy_res), 1.9))
    records.append(lower_check("solver/lions-identity-order",
                               "derivative-pairing-identity",
                               _observed_order(lions_res), 1.9))
    records.append(lower_check("solver/pressure-residual-order",
                               "pressure-reconstruction",
                               _observed_order(pressure_res), 1.9))

    # different schemes agree at the coarser scheme's order
    gaps = []
    for dt in (4e-3, 2e-3, 1e-3):
        pair = []
        for scheme in ("imex-euler", "imex-rk2"):
            c = SolverConfig(mu=0.1, T=0.12, dt=dt, res=res, scheme=scheme)
            pair.append(solve_nonlinear(None, u0, c, store_every=c.steps,
                                        derivatives=0,
                                        with_pressure=False).u[-1])
        gaps.append(l2_norm(pair[0] - pair[1]))
    records.append(lower_check("solver/scheme-agreement-order", "uniqueness",
                               _observed_order(gaps), 0.9))

    # linearized bijection: forward-inverse round trip and uniqueness
    small = SpectralGrid(2, max(8, res // 2))
    w = project_state(random_form(small, 1, rng, kmax=2))
    f = project_state(random_form(small, 1, rng, kmax=2))
    v0 = project_state(random_form(small, 1, rng, kmax=2))
    basis = build_basis(small, 1)
    for scheme, floor in (("imex-euler", 0.9), ("imex-rk2", 1.9)):
        residuals = []
        for dt in (8e-3, 4e-3, 2e-3):
            c = SolverConfig(mu=0.2, T=0.16, dt=dt, res=small.res, scheme=scheme)
            op = assemble_linearized(w, c.mu, basis, c.times(), ns)
            s = apply_inverse(op, f, v0, c)
            residuals.append(discrete_residual(s, c, w_series=w, f_series=f,
                                               ns_cfg=ns))
        records.append(lower_check(f"solver/roundtrip-{scheme}-order",
                                   "linearized-bijection",
                                   _observed_order(residuals), floor))
    cfg_u = SolverConfig(mu=0.2, T=0.1, dt=5e-3, res=small.res,
                         scheme="imex-rk2")
    flipped = basis.reordered(list(reversed(range(basis.m))))
    ends = []
    for b in (basis, flipped):
        op = assemble_linearized(w, cfg_u.mu, b, cfg_u.times(), ns)
        ends.append(apply_inverse(op, f, v0, cfg_u,
                                  store_every=cfg_u.steps).u[-1])
    records.append(upper_check("solver/uniqueness-reordered", "uniqueness",
                               l2_norm(ends[0] - ends[1]), 1e-10))

    # the discrete forward map is exactly quadratic
    cfg_f = SolverConfig(mu=0.1, T=0.05, dt=5e-3, res=res, scheme="imex-euler")
    u_traj = [project_state(random_form(grid, 1, rng, kmax=3))
              for _ in range(cfg_f.steps + 1)]
    v_traj = [project_state(random_form(grid, 1, rng, kmax=3))
              for _ in range(cfg_f.steps + 1)]
    eps = 1e-2
    cells_u, head_u = discrete_forward_data(u_traj, cfg_f)
    cells_s, head_s = discrete_forward_data(
        [a + b * eps for a, b in zip(u_traj, v_traj)], cfg_f)
    cells_l, head_l = discrete_linearized_data(u_traj, v_traj, cfg_f)
    scale = max(l2_norm(c) for c in cells_u)
    defect = max(
        l2_norm(cells_s[j] - cells_u[j] - cells_l[j] * eps
                - project_state(nonlinear_term(v_traj[j], ns)) * eps**2)
        for j in range(cfg_f.steps)
    )
    defect = max(defect, l2_norm(head_s - head_u - head_l * eps))
    records.append(upper_check("solver/frechet-exactness",
                               "quadratic-map-derivative", relative(defect, scale),
                               1e-12))

    # local inversion of the discrete map near the benchmark trajectory
    cfg_n = SolverConfig(mu=0.1, T=0.1, dt=2e-3, res=res, scheme="imex-euler")
    base, f_cells, results, displacements = newton_openness(cfg_n, ns, rng)
    exact = newton_local_inverse(f_cells, base.u[0], base, cfg_n)
    records.append(upper_check("solver/newton-exact-seed-iterations",
                               "local-inversion", float(exact.iterations), 0.0))
    records.append(upper_check("solver/newton-iterations", "local-inversion",
                               float(results[0].iterations), 6.0))
    records.append(upper_check("solver/newton-residual", "local-inversion",
                               results[0].residual_history[-1], 1e-8))
    ratio = displacements[1] / displacements[0]
    records.append(upper_check("solver/newton-displacement-deviation",
                               "local-inversion", abs(ratio - 0.5), 0.1))

    # truncated approximations stay uniformly bounded and contract
    cfg_g = SolverConfig(mu=0.2, T=0.2, dt=5e-3, res=16)
    study = galerkin_convergence_study(
        None, _two_band_state(SpectralGrid(2, 16)), cfg_g, ms=(16, 32, 64, 120))
    first = study.bounded_quantities[0]
    records.append(upper_check("solver/galerkin-uniform-bound",
                               "galerkin-uniform-bounds",
                               float(np.max(study.bounded_quantities) / first - 1.0),
                               0.05))
    decay = study.cauchy_differences[:-1] / study.cauchy_differences[1:]
    records.append(lower_check("solver/galerkin-cauchy-min", "galerkin-uniform-bounds",
                               float(np.min(decay)), 2.0))
    return records


def newton_openness(cfg: SolverConfig, ns, rng: np.random.Generator):
    """The openness experiment of the local inversion on the vortex.

    Steps the vortex, takes its discrete forward data, moves the forcing
    cells by eps = 1e-3 and 5e-4 along one random unit direction (kmax 2,
    mean-free) and inverts each by Newton from the vortex trajectory.
    Returns the trajectory, its forcing cells, the two Newton results and
    their largest displacements from the trajectory; halving eps should
    halve the displacement.
    """
    grid = cfg.grid()
    base = solve_nonlinear(None, taylor_green_state(grid, 0.0, cfg.mu), cfg, ns,
                           derivatives=0, with_pressure=False)
    f_cells, _ = discrete_forward_data(base.u, cfg, ns)
    direction = project_state(random_form(grid, cfg.degree, rng, kmax=2,
                                          mean_free=True))
    direction = direction * (1.0 / l2_norm(direction))
    results = [newton_local_inverse([c + direction * eps for c in f_cells],
                                    base.u[0], base, cfg, ns)
               for eps in (1e-3, 5e-4)]
    displacements = [max(l2_norm(a - b) for a, b in zip(r.solution.u, base.u))
                     for r in results]
    return base, f_cells, results, displacements


def _vortex_errors(sol: TimeSeriesSolution, grid: SpectralGrid,
                   mu: float) -> tuple[float, float]:
    """Worst relative velocity and pressure errors against the vortex."""
    vel_err = 0.0
    pre_err = 0.0
    for t, u, p in zip(sol.times, sol.u, sol.p):
        exact_u = taylor_green_state(grid, float(t), mu)
        exact_p = taylor_green_pressure_field(grid, float(t), mu)
        vel_err = max(vel_err, relative(l2_norm(u - exact_u), l2_norm(exact_u)))
        pre_err = max(pre_err, relative(l2_norm(p - exact_p), l2_norm(exact_p)))
    return vel_err, pre_err


def _self_convergence_order(scheme: str, res: int) -> float:
    """Observed order of the two-band state's final value under step halving."""
    u0 = _two_band_state(SpectralGrid(2, res))
    finals = []
    for dt in (4e-3, 2e-3, 1e-3):
        c = SolverConfig(mu=0.1, T=0.24, dt=dt, res=res, scheme=scheme)
        finals.append(solve_nonlinear(None, u0, c, store_every=c.steps,
                                      derivatives=0, with_pressure=False).u[-1])
    diffs = [l2_norm(a - b) for a, b in zip(finals, finals[1:])]
    return _observed_order(diffs)


# -- interpolation-ratio survey -------------------------------------------------


@dataclass(frozen=True)
class GNSurveyReport:
    """Empirical interpolation-inequality ratios on the 3-torus.

    The surveyed case is j0 = 0, m0 = 1, p0 = 6 = 2n/(n-2), r0 = q0 = 2
    (exponent a = 1): the L^6 bound by the gradient plus the L^2 norm.
    Fields are band-limited so the sixth-power quadrature is exact at the
    base resolution, and the doubled-resolution pass reuses the exact
    spectral resamples of the same fields.
    """

    n: int
    res: int
    doubled_res: int
    kmax: float
    trials: int
    seed: int
    exponent: float
    ratios: np.ndarray
    doubled_ratios: np.ndarray

    @property
    def max_ratio(self) -> float:
        return float(np.max(self.ratios))

    @property
    def doubled_max_ratio(self) -> float:
        return float(np.max(self.doubled_ratios))

    @property
    def relative_change(self) -> float:
        if not math.isfinite(self.max_ratio) or self.max_ratio == 0.0:
            return float("inf")
        if not math.isfinite(self.doubled_max_ratio):
            return float("inf")
        return abs(self.doubled_max_ratio / self.max_ratio - 1.0)


def gn_ratio_survey(seed: int = 0, trials: int = 1000, res: int = 32,
                    kmax: float = 5.0) -> GNSurveyReport:
    """Measure lhs/rhs of the L^6 interpolation bound over random fields."""
    if trials < 1:
        raise ValueError("need at least one trial")
    n = 3
    grid = SpectralGrid(n, res)
    fine = SpectralGrid(n, 2 * res)
    rng = np.random.default_rng(seed)
    ratios = np.zeros(trials)
    doubled = np.zeros(trials)
    exponent = 0.0
    for i in range(trials):
        v = random_form(grid, 0, rng, kmax=kmax)
        rep = gagliardo_nirenberg_check(v, 0, 1, 6.0, 2.0, 2.0)
        ratios[i] = rep.ratio
        exponent = rep.a
        rep2 = gagliardo_nirenberg_check(resample(v, fine), 0, 1, 6.0, 2.0, 2.0)
        doubled[i] = rep2.ratio
    return GNSurveyReport(
        n=n, res=res, doubled_res=2 * res, kmax=kmax, trials=trials,
        seed=seed, exponent=exponent, ratios=ratios, doubled_ratios=doubled,
    )


def gn_survey_records(report: GNSurveyReport) -> list[CheckRecord]:
    """Measured max ratio plus the resolution-stability verdict."""
    return [
        measured_check("gn/interpolation-max-ratio", "interpolation-inequality",
                       report.max_ratio),
        upper_check("gn/interpolation-stability", "interpolation-inequality",
                    report.relative_change, 0.10),
    ]


# -- experiments and the aggregate ---------------------------------------------


DEFAULT_SIZES: Mapping[str, int] = {
    "res": 32,
    "solver_res": 16,
    "fields": 100,
    "gn_trials": 120,
    "gn_res": 32,
}


def _merged_sizes(sizes: Mapping | None) -> dict:
    merged = dict(DEFAULT_SIZES)
    if sizes:
        unknown = set(sizes) - set(DEFAULT_SIZES)
        if unknown:
            raise ValueError(f"unknown size keys: {sorted(unknown)}")
        merged.update(sizes)
    for key, value in merged.items():
        if int(value) < 1:
            raise ValueError(f"size {key!r} must be positive")
    return merged


@dataclass
class ExperimentSpec:
    """A named preset run: its configuration (the nonlinearity is
    ``config.preset``), output directory and seed."""

    name: str
    config: SolverConfig | None = None
    out_dir: Path | None = None
    seed: int = 0


def _taylor_green_experiment(spec: ExperimentSpec) -> list[CheckRecord]:
    cfg = spec.config or SolverConfig(mu=0.1, T=1.0, dt=1e-3, res=32,
                                      scheme="imex-rk2")
    grid = cfg.grid()
    sol = solve_nonlinear(None, taylor_green_state(grid, 0.0, cfg.mu), cfg,
                          cfg.nonlinearity(), store_every=max(1, cfg.steps // 20))
    div = max(relative(l2_norm(codifferential(u)), l2_norm(u)) for u in sol.u)
    energies = [l2_norm(u) for u in sol.u]
    rises = max(b - a for a, b in zip(energies, energies[1:]))
    vel_err, pre_err = _vortex_errors(sol, grid, cfg.mu)
    floor = 1.9 if cfg.scheme == "imex-rk2" else 0.9
    records = [
        upper_check("taylor-green/divergence-free", "state-space-constraint",
                    div, 1e-12),
        upper_check("taylor-green/energy-monotone", "energy-identity",
                    max(rises, 0.0), 1e-13),
        upper_check("taylor-green/velocity-error", "exact-vortex-solution",
                    vel_err, 1e-5),
        upper_check("taylor-green/pressure-error", "exact-vortex-solution",
                    pre_err, 1e-4),
        lower_check("taylor-green/convergence-order", "scheme-accuracy",
                    _self_convergence_order(cfg.scheme, 16), floor),
    ]
    if spec.out_dir is not None:
        save_solution(sol, Path(spec.out_dir) / "solution")
        write_energy_series(sol, spec.out_dir)
    return records


def _hodge_identities_experiment(spec: ExperimentSpec) -> list[CheckRecord]:
    res = spec.config.res if spec.config is not None else 32
    sizes = dict(DEFAULT_SIZES)
    sizes["res"] = res
    sizes["fields"] = 35
    rng = np.random.default_rng(spec.seed)
    return _hodge_suite(rng, sizes)


EXPERIMENTS: Mapping[str, Callable[[ExperimentSpec], list[CheckRecord]]] = {
    "taylor-green": _taylor_green_experiment,
    "hodge-identities": _hodge_identities_experiment,
}


def run_experiment(spec: ExperimentSpec) -> VerificationReport:
    """Run a preset experiment and aggregate its check records."""
    if spec.name not in EXPERIMENTS:
        raise ValueError(
            f"unknown experiment {spec.name!r}; "
            f"available: {sorted(EXPERIMENTS)}"
        )
    if spec.out_dir is not None:
        Path(spec.out_dir).mkdir(parents=True, exist_ok=True)
    try:
        records = _timed(EXPERIMENTS[spec.name], spec)
    except SolverDivergenceError:
        records = [CheckRecord(f"{spec.name}/solver-divergence", "plumbing",
                               "fail", 1.0, 0.0)]
    records = sorted(records, key=lambda r: r.id)
    return VerificationReport(spec.name, spec.seed, tuple(records))


_SUITES = (
    ("complex", _complex_suite),
    ("gn", _gn_suite),
    ("hodge", _hodge_suite),
    ("nonlinearity", _nonlinearity_suite),
    ("norms", _norms_suite),
    ("solver", _solver_suite),
)


def verify_all(seed: int = 0, sizes: Mapping | None = None) -> VerificationReport:
    """Run every module's invariant suite and merge the sorted records.

    Each suite owns an independent generator spawned from the seed.
    """
    opts = _merged_sizes(sizes)
    children = np.random.SeedSequence(seed).spawn(len(_SUITES))
    records = sorted((r for (_, fn), child in zip(_SUITES, children)
                      for r in _timed(fn, np.random.default_rng(child), opts)),
                     key=lambda r: r.id)
    return VerificationReport("verify-all", seed, tuple(records))


# -- CSV emission ----------------------------------------------------------------

ENERGY_NAMES = ("energy", "grad-energy")


def write_energy_series(sol: TimeSeriesSolution, out_dir) -> None:
    """``energy.csv`` and ``grad-energy.csv``: (t, value) per sample of
    ``energy_series``."""
    series = energy_series(sol)
    for j, name in enumerate(ENERGY_NAMES):
        write_csv(Path(out_dir) / f"{name}.csv", ("t", "value"),
                  [(t, e[j]) for t, e in zip(sol.times, series)])


def solution_norm_rows(
    experiment_id: str, sol: TimeSeriesSolution
) -> list[tuple[str, str, int, float, float, float]]:
    """Standard norm table for a trajectory: final-time Sobolev norms and
    space-time norms at the indices the solver controls."""
    rows = []
    final = sol.u[-1]
    for s in (0.0, 1.0, 2.0):
        for p in (2.0,):
            rows.append((experiment_id, "sobolev-final", 0, s, p,
                         sobolev_norm(final, SobolevIndex(s, p))))
    smax = 1 if 1 in sol.dt_cache else 0
    for k in (0, 1):
        for s in range(smax + 1):
            rows.append((experiment_id, "bochner-vel", k, float(s), 2.0,
                         bochner_norm(sol, BochnerIndex(k, s))))
    if sol.p is not None:
        rows.append((experiment_id, "bochner-pre", 0, 0.0, 2.0,
                     bochner_norm(sol, BochnerIndex(0, 0, "pre"))))
    return rows
