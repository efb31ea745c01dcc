"""Tests for the Galerkin basis, IMEX solvers, Newton inversion, and IO.

Oracles: closed-form heat decay and the decaying vortex (whose nonlinear
term is a pure gradient, making it an exact solution of the full
equations), scheme self-convergence under step halving, and exact
algebraic identities of the discrete quadratic forward map.
"""

import tracemalloc

import numpy as np
import pytest

import torusforms.hodge as hodge_module
import torusforms.nonlinear as nonlinear_module
import torusforms.solver as solver_module
from oracles import observed_order, taylor_green_pressure, taylor_green_velocity
from torusforms.nonlinear import (
    bilinear_term,
    navier_stokes_config,
    nonlinear_term,
    zero_config,
)
from torusforms.solver import (
    GalerkinBasis,
    SolverConfig,
    SolverDivergenceError,
    apply_inverse,
    assemble_linearized,
    build_basis,
    discrete_forward_data,
    discrete_linearized_data,
    discrete_residual,
    energy_identity_residual,
    format_solver_config,
    galerkin_convergence_study,
    lions_identity_residual,
    load_solution,
    load_solver_config,
    newton_local_inverse,
    parse_solver_config,
    project_state,
    save_solution,
    solve_linearized,
    solve_nonlinear,
)
from torusforms.hodge import helmholtz_project
from torusforms.spectral import (
    ConsistencyError,
    FieldIntegrityError,
    FormField,
    SpectralGrid,
    codifferential,
    dealias,
    exterior_derivative,
    fractional_power,
    harmonic_projection,
    hodge_laplacian,
    inner_product,
    l2_norm,
    random_form,
    remove_harmonic,
    to_physical,
)

G16 = SpectralGrid(2, 16)
NS2 = navier_stokes_config(2)
NS = {2: NS2, 3: navier_stokes_config(3)}


def _taylor_green(grid: SpectralGrid, t: float = 0.0, mu: float = 0.1) -> FormField:
    return FormField.from_physical(
        grid, 1, taylor_green_velocity(grid.meshes(), t, mu)
    )


def _two_band_state(grid: SpectralGrid) -> FormField:
    """Divergence-free state whose nonlinear term has a nonzero
    divergence-free part (unlike the vortex alone)."""
    x, y = grid.meshes()
    extra = FormField.from_physical(grid, 1, [np.sin(x + 2 * y), np.zeros(grid.shape)])
    return project_state(_taylor_green(grid) + extra * 0.5)


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="mu"):
            SolverConfig(mu=0.0, T=1.0, dt=0.1)
        with pytest.raises(ValueError, match="positive"):
            SolverConfig(mu=1.0, T=-1.0, dt=0.1)
        with pytest.raises(ValueError, match="scheme"):
            SolverConfig(mu=1.0, T=1.0, dt=0.1, scheme="leapfrog")
        with pytest.raises(ValueError, match="divide"):
            SolverConfig(mu=1.0, T=1.0, dt=0.3)
        with pytest.raises(ValueError, match="newton"):
            SolverConfig(mu=1.0, T=1.0, dt=0.1, newton_max_iter=0)

    def test_steps_and_times(self):
        cfg = SolverConfig(mu=0.1, T=1.0, dt=0.25)
        assert cfg.steps == 4
        assert np.allclose(cfg.times(), [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_parse_all_keys(self):
        text = """
        # full configuration
        mu = 0.3
        T = 2.0
        dt 0.1          # bare key-value also accepted
        res = 24
        degree = 1
        scheme = imex-euler
        preset = zero
        newton.max_iter = 7
        newton.tol = 1e-9
        n = 3
        """
        cfg = parse_solver_config(text)
        assert cfg == SolverConfig(
            mu=0.3, T=2.0, dt=0.1, res=24, degree=1, scheme="imex-euler",
            preset="zero", newton_max_iter=7, newton_tol=1e-9, n=3,
        )

    def test_parse_defaults_and_errors(self):
        cfg = parse_solver_config("mu = 1.0\nT = 1.0\ndt = 0.5\n")
        assert cfg.res == 32 and cfg.scheme == "imex-rk2"
        assert cfg.preset == "navier-stokes-i1" and cfg.n == 2
        with pytest.raises(ValueError, match="missing required"):
            parse_solver_config("mu = 1.0\nT = 1.0\n")
        with pytest.raises(ValueError, match="unknown configuration key"):
            parse_solver_config("mu = 1.0\nT = 1.0\ndt = 0.5\nfoo = 1\n")
        with pytest.raises(ValueError, match="duplicate"):
            parse_solver_config("mu = 1.0\nmu = 2.0\nT = 1.0\ndt = 0.5\n")
        with pytest.raises(ValueError, match="bad value"):
            parse_solver_config("mu = fast\nT = 1.0\ndt = 0.5\n")

    @pytest.mark.parametrize("line, field", [
        ("n = 5", r"n \(torus dimension\)"),
        ("res = 7", "res"),
        ("res = 2", "res"),
        ("degree = 4", "degree"),
        ("preset = nope", "preset"),
        ("degree = 2", "preset"),  # navier-stokes-i1 is a degree-1 map
    ])
    def test_bad_values_rejected_at_parse(self, line, field):
        with pytest.raises(ValueError, match=field):
            parse_solver_config(f"mu = 1.0\nT = 1.0\ndt = 0.5\n{line}\n")

    def test_format_round_trip(self, tmp_path):
        cfg = SolverConfig(mu=0.1, T=1.0, dt=1e-3, res=48, scheme="imex-euler")
        path = tmp_path / "solver.cfg"
        path.write_text(format_solver_config(cfg))
        assert load_solver_config(path) == cfg


class TestGalerkinBasis:
    def test_lowest_shell_on_t2(self):
        # |k| = 1 contributes four unit fields: {cos, sin}(x_j) along the
        # perpendicular axis, scaled sqrt(2).
        basis = build_basis(G16, 1, 4)
        assert np.allclose(basis.eigenvalues, 1.0)
        x, y = G16.meshes()
        root2 = np.sqrt(2.0)
        expected = [
            [np.zeros(G16.shape), root2 * np.cos(x)],
            [np.zeros(G16.shape), root2 * np.sin(x)],
            [root2 * np.cos(y), np.zeros(G16.shape)],
            [root2 * np.sin(y), np.zeros(G16.shape)],
        ]
        got = {tuple(np.round(basis.project(
            FormField.from_physical(G16, 1, comps)), 12)) for comps in expected}
        # each expected field is (up to sign) one basis element
        for coeffs in got:
            arr = np.abs(np.array(coeffs))
            assert np.isclose(arr.max(), 1.0, atol=1e-12)
            assert np.isclose(np.linalg.norm(arr), 1.0, atol=1e-12)

    def test_fibre_dimension_on_t3(self):
        grid = SpectralGrid(3, 12)
        basis = build_basis(grid, 1, 12)
        # three canonical |k|^2 = 1 modes, two fibre vectors, two phases
        assert np.allclose(basis.eigenvalues, 1.0)

    @pytest.mark.parametrize("grid", [G16, SpectralGrid(3, 12)])
    def test_invariants(self, grid):
        basis = build_basis(grid, 1, 24)
        gram = np.array([[inner_product(a, b) for b in basis.fields]
                         for a in basis.fields])
        assert np.max(np.abs(gram - np.eye(basis.m))) <= 1e-12
        for b, lam in zip(basis.fields, basis.eigenvalues):
            assert l2_norm(codifferential(b)) <= 1e-12
            assert l2_norm(hodge_laplacian(b) - b * lam) <= 1e-12
            assert l2_norm(harmonic_projection(b)) == 0.0
        assert np.all(np.diff(basis.eigenvalues) >= 0)

    def test_projection_round_trip(self):
        basis = build_basis(G16, 1)
        u = project_state(random_form(G16, 1, np.random.default_rng(2)))
        back = basis.synthesize(basis.project(u))
        assert l2_norm(back - u) <= 1e-12 * max(l2_norm(u), 1.0)

    @pytest.mark.parametrize("grid, m", [(G16, None), (G16, 7), (SpectralGrid(3, 8), None)])
    def test_gather_and_scatter_match_oracles(self, grid, m):
        # project is a gather and synthesize a scatter at +-k; the oracles
        # are the L2 pairing with every field and the sum of the fields.
        basis = build_basis(grid, 1, m)
        rng = np.random.default_rng(17)
        u = random_form(grid, 1, rng)
        fields = basis.fields
        paired = np.array([inner_product(u, b) for b in fields])
        assert np.max(np.abs(basis.project(u) - paired)) <= 1e-14
        g = rng.standard_normal(basis.m)
        total = FormField.zeros(grid, 1)
        for gj, b in zip(g, fields):
            total = total + b * gj
        got = basis.synthesize(g)
        for a, b in zip(got.components, total.components):
            assert np.max(np.abs(a - b)) <= 1e-14

    def test_mode_indexed_storage(self):
        # Nothing of size m x res^n is stored; the full 3-D res-32 band
        # (m = 18520) would need about 29 GB as dense fields.
        grid = SpectralGrid(3, 32)
        tracemalloc.start()
        try:
            basis = build_basis(grid, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert basis.m == 18520
        assert peak < 64 * 2**20
        arrays = [v for v in vars(basis).values() if isinstance(v, np.ndarray)]
        assert arrays and max(a.size for a in arrays) < basis.m * grid.res**grid.n

    def test_parameter_errors(self):
        with pytest.raises(ValueError, match="exceeds"):
            build_basis(G16, 1, 10_000)
        with pytest.raises(ValueError, match="degree"):
            build_basis(G16, 5)
        basis = build_basis(G16, 1, 4)
        with pytest.raises(ValueError, match="permutation"):
            basis.reordered([0, 0, 1, 2])


class TestProjectState:
    @pytest.mark.parametrize("grid", [SpectralGrid(2, 16), SpectralGrid(3, 12)])
    def test_equals_composed_projections_exactly(self, grid):
        # The one-pass projector makes the composed projections' floating-
        # point operations inside the band, so even generic (non-real,
        # out-of-band) coefficients give identical bits.
        rng = np.random.default_rng(71)
        for degree in range(grid.n + 1):
            count = grid.component_count(degree)
            for u in (
                random_form(grid, degree, rng, kmax=grid.res / 2),
                FormField(grid, degree, tuple(
                    rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
                    for _ in range(count))),
            ):
                fused = project_state(u)
                composed = remove_harmonic(helmholtz_project(dealias(u)))
                for a, b in zip(fused.components, composed.components):
                    assert np.array_equal(a, b)


def _reference_lawson(cfg, u0, quad, forcing):
    """The Lawson schemes on full fields: project_state, full-spectrum Q
    and exp(-mu tau |k|^2) on the whole grid, every state kept."""
    grid = cfg.grid()
    dt = cfg.T / cfg.steps

    def decay(u, tau):
        mult = np.exp(-cfg.mu * tau * grid.k_squared)
        return FormField(grid, u.degree, tuple(c * mult for c in u.components))

    def rhs(j, midpoint, u):
        out = -project_state(quad(j, midpoint, u))
        fj = forcing(j, midpoint)
        return out if fj is None else out + project_state(fj)

    u = project_state(u0)
    states = [u]
    for j in range(cfg.steps):
        if cfg.scheme == "imex-euler":
            u = decay(u + rhs(j, False, u) * dt, dt)
        else:
            mid = decay(u + rhs(j, False, u) * (0.5 * dt), 0.5 * dt)
            u = decay(u, dt) + decay(rhs(j, True, mid), 0.5 * dt) * dt
        states.append(u)
    return states


def _assert_same_states(got, expected):
    """Byte-identical samples and half-spectrum coefficients k_last >= 0."""
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        half = a.grid.res // 2 + 1
        for x, y in zip(a.components, b.components):
            assert x[..., :half].tobytes() == y[..., :half].tobytes()
        for x, y in zip(to_physical(a), to_physical(b)):
            assert x.tobytes() == y.tobytes()


def _non_hermitian(u: FormField) -> FormField:
    """u with one unpaired in-band mode on a component that keeps delta u."""
    comps = [c.copy() for c in u.components]
    comps[1][(1,) + (0,) * (u.grid.n - 1)] += 0.3j
    return FormField(u.grid, u.degree, tuple(comps))


class TestBandHalfState:
    GRIDS = [G16, SpectralGrid(3, 8)]

    @staticmethod
    def _data(grid):
        rng = np.random.default_rng(29)
        u0 = project_state(random_form(grid, 1, rng, kmax=grid.res / 3)) * 2.0
        f = random_form(grid, 1, rng, kmax=grid.res / 3)
        w = project_state(random_form(grid, 1, rng, kmax=grid.res / 3))
        return u0, f, w

    @staticmethod
    def _forcing(kind, f, times):
        """The forcing as the solver takes it and as the reference draws it."""
        if kind == "constant":
            return f, lambda j, midpoint: f
        call = lambda t: f * float(np.cos(3.0 * t))  # noqa: E731
        return call, lambda j, midpoint: call(
            float(0.5 * (times[j] + times[j + 1])) if midpoint else float(times[j]))

    @pytest.mark.parametrize("grid", GRIDS)
    @pytest.mark.parametrize("scheme", ["imex-euler", "imex-rk2"])
    @pytest.mark.parametrize("forcing", ["constant", "callable"])
    def test_nonlinear_matches_full_field_reference(self, grid, scheme, forcing):
        u0, f, _ = self._data(grid)
        cfg = SolverConfig(mu=0.1, T=0.04, dt=0.01, res=grid.res, n=grid.n, scheme=scheme)
        f_series, f_ref = self._forcing(forcing, f, cfg.times())
        sol = solve_nonlinear(f_series, u0, cfg, derivatives=0, with_pressure=False)
        ref = _reference_lawson(cfg, u0, lambda j, mid, u: nonlinear_term(u, NS[grid.n]), f_ref)
        _assert_same_states(sol.u, ref)

    @pytest.mark.parametrize("grid", GRIDS)
    @pytest.mark.parametrize("scheme", ["imex-euler", "imex-rk2"])
    @pytest.mark.parametrize("forcing", ["constant", "callable"])
    @pytest.mark.parametrize("advection", ["constant", "sampled"])
    def test_linearized_matches_full_field_reference(self, grid, scheme, forcing, advection):
        u0, f, w = self._data(grid)
        cfg = SolverConfig(mu=0.1, T=0.04, dt=0.01, res=grid.res, n=grid.n, scheme=scheme)
        times = cfg.times()
        f_series, f_ref = self._forcing(forcing, f, times)
        if advection == "constant":
            w_series, w_ref = w, lambda j, midpoint: w
        else:
            w_series = [w * float(1.0 + 0.5 * t) for t in times]
            w_ref = lambda j, midpoint: (  # noqa: E731
                (w_series[j] + w_series[j + 1]) * 0.5 if midpoint else w_series[j])
        sol = solve_linearized(w_series, f_series, u0, cfg, derivatives=0,
                               with_pressure=False)
        ref = _reference_lawson(
            cfg, u0, lambda j, mid, u: bilinear_term(w_ref(j, mid), u, NS[grid.n]), f_ref)
        _assert_same_states(sol.u, ref)

    @pytest.mark.parametrize("preset", ["navier-stokes-i1", "zero"])
    @pytest.mark.parametrize("broken", ["u0", "forcing"])
    def test_non_hermitian_data_rejected_before_stepping(self, monkeypatch, preset, broken):
        def never(*args):
            raise AssertionError("stepping started")

        monkeypatch.setattr(solver_module, "_run_scheme", never)
        u0 = _two_band_state(G16)
        f = FormField.zeros(G16, 1)
        if broken == "u0":
            u0 = _non_hermitian(u0)
        else:
            f = _non_hermitian(f)
        cfg = SolverConfig(mu=0.1, T=0.02, dt=5e-3, res=16, preset=preset)
        with pytest.raises(FieldIntegrityError, match="Hermitian"):
            solve_nonlinear(f, u0, cfg)
        with pytest.raises(FieldIntegrityError, match="Hermitian"):
            solve_linearized(_two_band_state(G16), f, u0, cfg)

    def test_degree_mismatch_names_both_degrees(self):
        # The stages' nonlinear_term and bilinear_term check the degrees at
        # the first stage, before any step is stored.
        u0 = random_form(G16, 0, np.random.default_rng(37), kmax=4)
        cfg = SolverConfig(mu=0.1, T=0.02, dt=5e-3, res=16)
        with pytest.raises(ValueError, match="field degree 0 does not match "
                                             "nonlinearity degree 1"):
            solve_nonlinear(None, u0, cfg)
        with pytest.raises(ValueError, match="degrees do not match"):
            solve_linearized(_two_band_state(G16), None, u0, cfg)

    @pytest.mark.parametrize("grid", [G16, SpectralGrid(2, 32), SpectralGrid(3, 8),
                                      SpectralGrid(3, 12)])
    def test_half_norm_is_parseval(self, grid):
        # The k_last = 0 plane counts once, every other plane twice.
        u = project_state(random_form(grid, 1, np.random.default_rng(31), kmax=grid.res / 3))
        state = solver_module._projected_half(u, grid, 1)
        rebuilt = nonlinear_module.BandHalves(grid, 1, state).field()
        expected = l2_norm(rebuilt)
        assert abs(solver_module._half_norm(state) - expected) <= 1e-14 * expected


class TestEvaluationCounts:
    @staticmethod
    def _count(monkeypatch, name):
        """Record the calls of the solver module's ``name``: "stage" for a
        band-half state in the last field argument, else "sample"."""
        calls = []
        original = getattr(solver_module, name)

        def counted(*args):
            stage = isinstance(args[-2], nonlinear_module.BandHalves)
            calls.append("stage" if stage else "sample")
            return original(*args)

        monkeypatch.setattr(solver_module, name, counted)
        return calls

    def test_nonlinear_term_once_per_stage_and_stored_sample(self, monkeypatch):
        # 4 rk2 steps make 8 stage evaluations on the band-half state; the
        # 3 stored samples share one evaluation of N between the derivative
        # cache and the pressure.
        calls = self._count(monkeypatch, "nonlinear_term")
        cfg = SolverConfig(mu=0.1, T=0.02, dt=5e-3, res=16)
        solve_nonlinear(None, _two_band_state(G16), cfg, store_every=2, derivatives=1)
        assert calls.count("stage") == 8
        assert calls.count("sample") == 3

    def _count_bilinear(self, monkeypatch):
        return self._count(monkeypatch, "bilinear_term")

    def test_bilinear_term_once_per_stage_and_stored_sample(self, monkeypatch):
        # 4 rk2 steps make 8 stage evaluations of B(w, u) on the band-half
        # state; the 3 stored samples share one B(w, u) between the
        # derivative cache and the pressure.
        calls = self._count_bilinear(monkeypatch)
        w = _two_band_state(G16)
        cfg = SolverConfig(mu=0.1, T=0.02, dt=5e-3, res=16)
        sol = solve_linearized(w, None, _two_band_state(G16), cfg, store_every=2)
        assert len(sol.u) == len(sol.p) == len(sol.dt_cache[1]) == 3
        assert calls.count("stage") == 8
        assert calls.count("sample") == 3

    def test_derivative_term_once_per_stored_sample(self, monkeypatch):
        # B(u, du/dt) feeds both the second derivative and the pressure's
        # first derivative; stepping itself only evaluates N.
        calls = self._count_bilinear(monkeypatch)
        cfg = SolverConfig(mu=0.1, T=0.02, dt=5e-3, res=16)
        sol = solve_nonlinear(None, _two_band_state(G16), cfg, store_every=2,
                              derivatives=2)
        assert len(sol.dt_cache[2]) == len(sol.p_dt_cache[1]) == 3
        assert len(calls) == 3

    def test_pressure_source_projected_twice(self, monkeypatch):
        calls = []

        def counted(u):
            calls.append(1)
            return helmholtz_project(u)

        monkeypatch.setattr(solver_module, "helmholtz_project", counted)
        monkeypatch.setattr(hodge_module, "helmholtz_project", counted)
        source = nonlinear_term(_two_band_state(G16), NS2)
        p = solver_module._pressure_from_source(source)
        assert len(calls) == 2
        grad_part = source - helmholtz_project(source)
        assert l2_norm(exterior_derivative(p) - grad_part) <= 1e-12 * l2_norm(grad_part)


class TestExactDecay:
    @pytest.mark.parametrize("scheme", ["imex-euler", "imex-rk2"])
    def test_single_eigenfield_heat_decay(self, scheme):
        # With no nonlinearity the integrating factor is exact at any dt.
        basis = build_basis(G16, 1, 1)
        u0 = basis.fields[0]
        cfg = SolverConfig(mu=0.7, T=1.0, dt=0.25, res=16, scheme=scheme,
                           preset="zero")
        sol = solve_nonlinear(None, u0, cfg, with_pressure=False)
        lam = basis.eigenvalues[0]
        for t, u in zip(sol.times, sol.u):
            exact = u0 * float(np.exp(-cfg.mu * lam * t))
            assert l2_norm(u - exact) <= 1e-10

    def test_zero_data_zero_solution(self):
        cfg = SolverConfig(mu=0.5, T=0.1, dt=0.05, res=16)
        sol = solve_nonlinear(None, FormField.zeros(G16, 1), cfg)
        assert all(l2_norm(u) == 0.0 for u in sol.u)


class TestTaylorGreen:
    def test_velocity_and_pressure_reproduced(self):
        # The vortex's nonlinear term is a pure gradient, so the
        # divergence-free dynamics reduce to exact heat decay and the
        # recovered pressure must match the closed form.
        grid = SpectralGrid(2, 32)
        mu = 0.1
        cfg = SolverConfig(mu=mu, T=0.25, dt=1e-3, res=32, scheme="imex-rk2")
        sol = solve_nonlinear(None, _taylor_green(grid, 0.0, mu), cfg,
                              store_every=50, derivatives=0)
        meshes = grid.meshes()
        for t, u, p in zip(sol.times, sol.u, sol.p):
            u_exact = FormField.from_physical(
                grid, 1, taylor_green_velocity(meshes, t, mu))
            p_exact = FormField.from_physical(
                grid, 0, [taylor_green_pressure(meshes, t, mu)])
            assert l2_norm(u - u_exact) <= 1e-12 * l2_norm(u_exact)
            assert l2_norm(p - p_exact) <= 1e-12 * l2_norm(p_exact)

    def test_divergence_free_invariance(self):
        cfg = SolverConfig(mu=0.1, T=0.1, dt=5e-3, res=16)
        sol = solve_nonlinear(None, _two_band_state(G16), cfg,
                              derivatives=0, with_pressure=False)
        for u in sol.u:
            assert l2_norm(codifferential(u)) <= 1e-12


class TestSolveLinearized:
    def test_zero_preset_matches_linearized(self):
        rng = np.random.default_rng(3)
        f = project_state(random_form(G16, 1, rng, kmax=3))
        u0 = project_state(random_form(G16, 1, rng, kmax=3))
        cfg = SolverConfig(mu=0.2, T=0.2, dt=5e-3, res=16, preset="zero")
        a = solve_nonlinear(f, u0, cfg, store_every=cfg.steps)
        b = solve_linearized(None, f, u0, cfg, store_every=cfg.steps)
        assert l2_norm(a.u[-1] - b.u[-1]) == 0.0

    def test_gradient_forcing_gives_zero_velocity_and_recovers_potential(self):
        # f = d q has no divergence-free part: velocity stays zero and the
        # pressure equals the (mean-free) potential at every sample.
        x, y = G16.meshes()
        q = FormField.from_physical(G16, 0, [np.cos(x) * np.cos(2 * y)])
        f = exterior_derivative(q)
        cfg = SolverConfig(mu=0.3, T=0.1, dt=0.02, res=16)
        sol = solve_linearized(None, f, FormField.zeros(G16, 1), cfg)
        q_free = remove_harmonic(q)
        for u, p in zip(sol.u, sol.p):
            assert l2_norm(u) <= 1e-14
            assert l2_norm(p - q_free) <= 1e-12

    def test_non_divergence_free_initial_datum_rejected(self):
        x, _ = G16.meshes()
        bad = FormField.from_physical(G16, 1, [np.sin(x), np.zeros(G16.shape)])
        cfg = SolverConfig(mu=0.1, T=0.1, dt=0.05, res=16)
        with pytest.raises(ConsistencyError, match="divergence"):
            solve_linearized(None, None, bad, cfg)

    def test_series_length_mismatch_rejected(self):
        cfg = SolverConfig(mu=0.1, T=0.1, dt=0.05, res=16)
        f = [FormField.zeros(G16, 1)] * 2  # needs steps + 1 = 3
        with pytest.raises(ValueError, match="samples"):
            solve_linearized(None, f, FormField.zeros(G16, 1), cfg)

    def test_derivative_cache_depth_limited(self):
        cfg = SolverConfig(mu=0.1, T=0.1, dt=0.05, res=16)
        with pytest.raises(ValueError, match="order 1"):
            solve_linearized(None, None, FormField.zeros(G16, 1), cfg,
                             derivatives=2)

    def test_blowup_guard_raises(self):
        basis = build_basis(G16, 1, 1)
        huge = basis.fields[0] * 1e15
        cfg = SolverConfig(mu=0.1, T=0.2, dt=0.1, res=16)
        with pytest.raises(SolverDivergenceError, match="exceeded"):
            solve_linearized(None, huge, FormField.zeros(G16, 1), cfg)


class TestSecondDerivativeCache:
    def test_heat_decay_second_derivative(self):
        # Zero nonlinearity: d^2u/dt^2 = mu^2 Lap^2 u along the flow.
        basis = build_basis(G16, 1, 1)
        u0 = basis.fields[0]
        cfg = SolverConfig(mu=0.4, T=0.2, dt=0.05, res=16, preset="zero")
        sol = solve_nonlinear(None, u0, cfg, derivatives=2, with_pressure=False)
        lam = basis.eigenvalues[0]
        for u, ddu in zip(sol.u, sol.dt_cache[2]):
            assert l2_norm(ddu - u * float(cfg.mu**2 * lam**2)) <= 1e-12

    def test_sampled_forcing_needs_derivative_series(self):
        cfg = SolverConfig(mu=0.1, T=0.1, dt=0.05, res=16)
        f = [FormField.zeros(G16, 1)] * (cfg.steps + 1)
        with pytest.raises(ValueError, match="f_dt_series"):
            solve_nonlinear(f, FormField.zeros(G16, 1), cfg, derivatives=2)

    def test_time_dependent_forcing_without_derivative_series(self, monkeypatch):
        # f(t) = t d phi is a pure gradient: u stays zero, p = t phi and
        # dp/dt = phi.  Without df/dt the pressure's derivative is unknown,
        # so it is left out, not made up from B(u, du/dt) alone.
        x, y = G16.meshes()
        phi = FormField.from_physical(G16, 0, [np.cos(x) * np.sin(2 * y)])
        dphi = exterior_derivative(phi)
        cfg = SolverConfig(mu=0.1, T=0.1, dt=0.05, res=16, preset="zero")
        u0 = FormField.zeros(G16, 1)
        calls = []
        original = solver_module.bilinear_term
        monkeypatch.setattr(solver_module, "bilinear_term",
                            lambda *args: calls.append(1) or original(*args))
        scale = l2_norm(phi)
        for f in (lambda t: dphi * t, [dphi * float(t) for t in cfg.times()]):
            sol = solve_nonlinear(f, u0, cfg, derivatives=1)
            for t, p in zip(sol.times, sol.p):
                assert l2_norm(p - phi * float(t)) <= 1e-15 * scale
            assert sol.p_dt_cache == {} and not calls
            with pytest.raises(ValueError, match="f_dt_series"):
                solve_nonlinear(f, u0, cfg, derivatives=2)
            sol = solve_nonlinear(f, u0, cfg, derivatives=1, f_dt_series=lambda t: dphi)
            for dp in sol.p_dt_cache[1]:
                assert l2_norm(dp - phi) <= 1e-15 * scale
            calls.clear()


class TestSchemeOrders:
    def _final_states(self, scheme, dts):
        u0 = _two_band_state(G16)
        out = []
        for dt in dts:
            cfg = SolverConfig(mu=0.1, T=0.24, dt=dt, res=16, scheme=scheme)
            sol = solve_nonlinear(None, u0, cfg, store_every=cfg.steps,
                                  derivatives=0, with_pressure=False)
            out.append(sol.u[-1])
        return out

    def test_euler_first_order(self):
        s = self._final_states("imex-euler", (4e-3, 2e-3, 1e-3, 5e-4))
        diffs = [l2_norm(a - b) for a, b in zip(s, s[1:])]
        assert observed_order(diffs) >= 0.9

    def test_rk2_second_order(self):
        s = self._final_states("imex-rk2", (4e-3, 2e-3, 1e-3, 5e-4))
        diffs = [l2_norm(a - b) for a, b in zip(s, s[1:])]
        assert observed_order(diffs) >= 1.9


class TestEnergyLaw:
    def test_energy_identity_residual_second_order(self):
        u0 = _two_band_state(G16)
        residuals = []
        for dt in (8e-3, 4e-3, 2e-3):
            cfg = SolverConfig(mu=0.2, T=0.16, dt=dt, res=16, scheme="imex-rk2")
            sol = solve_nonlinear(None, u0, cfg, with_pressure=False)
            residuals.append(
                energy_identity_residual(sol, cfg.mu, ns_cfg=NS2, nonlinear=True))
        assert observed_order(residuals) >= 1.9

    def test_energy_monotone_without_forcing(self):
        cfg = SolverConfig(mu=0.2, T=0.3, dt=5e-3, res=16, scheme="imex-rk2")
        sol = solve_nonlinear(None, _two_band_state(G16), cfg,
                              derivatives=0, with_pressure=False)
        energies = [l2_norm(u) for u in sol.u]
        assert all(b <= a + 1e-14 for a, b in zip(energies, energies[1:]))

    def test_energy_balance_against_dissipation(self):
        # |u(T)|^2 + 2 mu int |grad u|^2 = |u(0)|^2 up to scheme error.
        u0 = _two_band_state(G16)
        cfg = SolverConfig(mu=0.2, T=0.2, dt=1e-3, res=16, scheme="imex-rk2")
        sol = solve_nonlinear(None, u0, cfg, derivatives=0, with_pressure=False)
        grads = [l2_norm(fractional_power(u, 1)) ** 2 for u in sol.u]
        dissipated = 2 * cfg.mu * float(np.trapezoid(grads, sol.times))
        gap = abs(l2_norm(sol.u[-1]) ** 2 + dissipated - l2_norm(sol.u[0]) ** 2)
        assert gap <= 1e-6 * l2_norm(sol.u[0]) ** 2

    def test_lions_identity_residual_second_order(self):
        u0 = _two_band_state(G16)
        residuals = []
        for dt in (8e-3, 4e-3, 2e-3):
            cfg = SolverConfig(mu=0.2, T=0.16, dt=dt, res=16, scheme="imex-rk2")
            sol = solve_nonlinear(None, u0, cfg, with_pressure=False)
            residuals.append(lions_identity_residual(sol))
        assert observed_order(residuals) >= 1.9

    def test_lions_needs_cached_derivative(self):
        cfg = SolverConfig(mu=0.2, T=0.1, dt=5e-3, res=16)
        sol = solve_nonlinear(None, _two_band_state(G16), cfg,
                              derivatives=0, with_pressure=False)
        with pytest.raises(ValueError, match="derivative"):
            lions_identity_residual(sol)


class TestLinearizedOperator:
    def test_stokes_block_diagonal_without_advection(self):
        basis = build_basis(G16, 1, 12)
        times = np.linspace(0.0, 0.1, 3)
        op = assemble_linearized(None, 0.7, basis, times, NS2)
        for mat in op.matrices:
            assert np.max(np.abs(mat - 0.7 * np.diag(basis.eigenvalues))) == 0.0

    def test_diffusion_block_symmetric_and_constant_for_constant_advection(self):
        rng = np.random.default_rng(11)
        w = project_state(random_form(G16, 1, rng, kmax=2))
        basis = build_basis(G16, 1, 12)
        times = np.linspace(0.0, 0.1, 3)
        op = assemble_linearized(w, 0.3, basis, times, NS2)
        diffusion = 0.3 * np.diag(basis.eigenvalues)
        assert np.max(np.abs(diffusion - diffusion.T)) == 0.0
        assert np.array_equal(op.matrices[0], op.matrices[1])
        assert np.array_equal(op.matrices[0], op.matrices[2])

    @pytest.mark.parametrize("grid, reorder", [
        (G16, False), (G16, True), (SpectralGrid(3, 8), False), (SpectralGrid(3, 8), True),
    ])
    def test_matches_per_field_reference(self, grid, reorder):
        rng = np.random.default_rng(23)
        ns = navier_stokes_config(grid.n)
        times = np.linspace(0.0, 0.1, 3)
        w = [project_state(random_form(grid, 1, rng)) for _ in times]
        basis = build_basis(grid, 1)
        if reorder:
            basis = basis.reordered(rng.permutation(basis.m))
        op = assemble_linearized(w, 0.4, basis, times, ns)
        fields = basis.fields
        for wj, mat in zip(w, op.matrices):
            ref = np.array([basis.project(bilinear_term(wj, b, ns)) for b in fields])
            ref += 0.4 * np.diag(basis.eigenvalues)
            assert np.max(np.abs(mat - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_makes_no_bilinear_term_call(self, monkeypatch):
        calls = []

        def counted(w, u, cfg):
            calls.append(1)
            return bilinear_term(w, u, cfg)

        monkeypatch.setattr(solver_module, "bilinear_term", counted)
        monkeypatch.setattr(nonlinear_module, "bilinear_term", counted)
        rng = np.random.default_rng(29)
        w = [project_state(random_form(G16, 1, rng)) for _ in range(2)]
        op = assemble_linearized(w, 0.3, build_basis(G16, 1), [0.0, 0.1], NS2)
        assert np.any(op.explicit_part != 0.0)
        assert calls == []


class TestApplyInverse:
    def _data(self, rng_seed=3, kmax=3):
        rng = np.random.default_rng(rng_seed)
        w = project_state(random_form(G16, 1, rng, kmax=kmax))
        f = project_state(random_form(G16, 1, rng, kmax=kmax))
        u0 = project_state(random_form(G16, 1, rng, kmax=kmax))
        return w, f, u0

    def test_full_band_matches_field_solver(self):
        w, f, u0 = self._data()
        cfg = SolverConfig(mu=0.2, T=0.2, dt=5e-3, res=16, scheme="imex-rk2")
        basis = build_basis(G16, 1)
        op = assemble_linearized(w, cfg.mu, basis, cfg.times(), NS2)
        inv = apply_inverse(op, f, u0, cfg, store_every=cfg.steps)
        lin = solve_linearized(w, f, u0, cfg, store_every=cfg.steps)
        assert l2_norm(inv.u[-1] - lin.u[-1]) <= 1e-12

    @pytest.mark.parametrize("scheme,floor", [("imex-euler", 0.9),
                                              ("imex-rk2", 1.9)])
    def test_forward_inverse_round_trip_order(self, scheme, floor):
        grid = SpectralGrid(2, 8)
        rng = np.random.default_rng(5)
        w = project_state(random_form(grid, 1, rng, kmax=2))
        f = project_state(random_form(grid, 1, rng, kmax=2))
        u0 = project_state(random_form(grid, 1, rng, kmax=2))
        basis = build_basis(grid, 1)
        residuals = []
        for dt in (8e-3, 4e-3, 2e-3):
            cfg = SolverConfig(mu=0.2, T=0.16, dt=dt, res=8, scheme=scheme)
            op = assemble_linearized(w, cfg.mu, basis, cfg.times(), NS2)
            sol = apply_inverse(op, f, u0, cfg)
            residuals.append(
                discrete_residual(sol, cfg, w_series=w, f_series=f, ns_cfg=NS2))
        assert observed_order(residuals) >= floor

    def test_uniqueness_under_basis_reordering(self):
        w, f, u0 = self._data(kmax=2)
        cfg = SolverConfig(mu=0.2, T=0.1, dt=5e-3, res=16, scheme="imex-rk2")
        basis = build_basis(G16, 1, 40)
        flipped = basis.reordered(list(reversed(range(basis.m))))
        s1 = apply_inverse(assemble_linearized(w, cfg.mu, basis, cfg.times(), NS2),
                           f, u0, cfg, store_every=cfg.steps)
        s2 = apply_inverse(assemble_linearized(w, cfg.mu, flipped, cfg.times(), NS2),
                           f, u0, cfg, store_every=cfg.steps)
        assert l2_norm(s1.u[-1] - s2.u[-1]) <= 1e-10

    def test_zero_data_zero_solution(self):
        basis = build_basis(G16, 1, 8)
        cfg = SolverConfig(mu=0.2, T=0.1, dt=0.05, res=16)
        op = assemble_linearized(None, cfg.mu, basis, cfg.times(), NS2)
        sol = apply_inverse(op, None, FormField.zeros(G16, 1), cfg)
        assert all(l2_norm(u) == 0.0 for u in sol.u)

    def test_blowup_guard_raises(self):
        basis = build_basis(G16, 1, 8)
        cfg = SolverConfig(mu=0.2, T=0.2, dt=0.1, res=16)
        op = assemble_linearized(None, cfg.mu, basis, cfg.times(), NS2)
        huge = basis.fields[0] * 1e15
        with pytest.raises(SolverDivergenceError, match="coefficient norm exceeded"):
            apply_inverse(op, huge, FormField.zeros(G16, 1), cfg)

    def test_time_grid_mismatch_rejected(self):
        basis = build_basis(G16, 1, 8)
        op = assemble_linearized(None, 0.2, basis, np.linspace(0, 1, 5), NS2)
        cfg = SolverConfig(mu=0.2, T=1.0, dt=0.1, res=16)
        with pytest.raises(ValueError, match="time grid"):
            apply_inverse(op, None, FormField.zeros(G16, 1), cfg)


class TestFrechetDerivative:
    def test_discrete_forward_map_quadratic_expansion_exact(self):
        rng = np.random.default_rng(5)
        cfg = SolverConfig(mu=0.1, T=0.05, dt=5e-3, res=16, scheme="imex-euler")
        u_traj = [project_state(random_form(G16, 1, rng, kmax=3))
                  for _ in range(cfg.steps + 1)]
        v_traj = [project_state(random_form(G16, 1, rng, kmax=3))
                  for _ in range(cfg.steps + 1)]
        eps = 1e-2
        f_u, head_u = discrete_forward_data(u_traj, cfg)
        f_shift, head_shift = discrete_forward_data(
            [a + b * eps for a, b in zip(u_traj, v_traj)], cfg)
        lin, head_lin = discrete_linearized_data(u_traj, v_traj, cfg)
        scale = max(l2_norm(c) for c in f_u)
        for j in range(cfg.steps):
            quadratic = project_state(nonlinear_term(v_traj[j], NS2)) * eps**2
            defect = l2_norm(f_shift[j] - f_u[j] - lin[j] * eps - quadratic)
            assert defect <= 1e-12 * scale
        assert l2_norm(head_shift - head_u - head_lin * eps) <= 1e-12 * scale


class TestNewton:
    def _base(self, steps=50):
        cfg = SolverConfig(mu=0.1, T=steps * 2e-3, dt=2e-3, res=16,
                           scheme="imex-euler")
        base = solve_nonlinear(None, _taylor_green(G16), cfg,
                               derivatives=0, with_pressure=False)
        f_cells, _ = discrete_forward_data(base.u, cfg)
        return cfg, base, f_cells

    def test_exact_seed_needs_no_iterations(self):
        cfg, base, f_cells = self._base()
        result = newton_local_inverse(f_cells, base.u[0], base, cfg)
        assert result.converged and result.iterations == 0

    def test_quadratic_convergence_from_nearby_seed(self):
        cfg, base, f_cells = self._base()
        rng = np.random.default_rng(9)
        bump = project_state(random_form(G16, 1, rng, kmax=2, mean_free=True))
        bump = bump * (1e-3 / l2_norm(bump))
        seed = [u + bump for u in base.u]
        result = newton_local_inverse(f_cells, base.u[0], seed, cfg)
        assert result.converged
        assert result.iterations <= 2
        assert result.residual_history[-1] <= 1e-10

    def test_perturbed_data_recovered_with_linear_displacement(self):
        cfg, base, f_cells = self._base()
        rng = np.random.default_rng(13)
        direction = project_state(random_form(G16, 1, rng, kmax=2, mean_free=True))
        direction = direction * (1.0 / l2_norm(direction))
        displacements = []
        for eps in (1e-3, 5e-4):
            target = [c + direction * eps for c in f_cells]
            result = newton_local_inverse(target, base.u[0], base, cfg)
            assert result.converged
            assert result.iterations <= 6
            assert result.residual_history[-1] <= 1e-8
            displacements.append(
                max(l2_norm(a - b) for a, b in zip(result.solution.u, base.u)))
        ratio = displacements[1] / displacements[0]
        assert 0.4 <= ratio <= 0.6

    def test_solution_satisfies_discrete_equations(self):
        cfg, base, f_cells = self._base(steps=20)
        rng = np.random.default_rng(15)
        bump = project_state(random_form(G16, 1, rng, kmax=2, mean_free=True))
        target = [c + bump * (1e-4 / l2_norm(bump)) for c in f_cells]
        result = newton_local_inverse(target, base.u[0], base, cfg)
        cells, head = discrete_forward_data(result.solution.u, cfg)
        gap = max(l2_norm(a - b) for a, b in zip(cells, target))
        assert gap <= 1e-9
        assert l2_norm(head - base.u[0]) <= 1e-10

    def test_non_convergence_reported_not_raised(self):
        cfg, base, f_cells = self._base(steps=10)
        cfg = SolverConfig(mu=cfg.mu, T=cfg.T, dt=cfg.dt, res=16,
                           scheme="imex-euler", newton_max_iter=1,
                           newton_tol=1e-14)
        rng = np.random.default_rng(17)
        bump = project_state(random_form(G16, 1, rng, kmax=2, mean_free=True))
        target = [c + bump for c in f_cells]
        result = newton_local_inverse(target, base.u[0], base, cfg)
        assert not result.converged
        assert len(result.residual_history) == 2

    def test_final_pass_reuses_the_last_residual(self, monkeypatch):
        # Three residuals of steps evaluations each, then N at the last
        # state only: the last residual has N at every other final state.
        cfg, base, f_cells = self._base(steps=4)
        rng = np.random.default_rng(9)
        bump = project_state(random_form(G16, 1, rng, kmax=2, mean_free=True))
        seed = [u + bump * (1e-3 / l2_norm(bump)) for u in base.u]
        calls = TestEvaluationCounts._count(monkeypatch, "nonlinear_term")
        result = newton_local_inverse(f_cells, base.u[0], seed, cfg)
        assert result.iterations == 2
        assert len(calls) == cfg.steps * 3 + 1

    def test_usage_errors(self):
        cfg, base, f_cells = self._base(steps=10)
        rk2 = SolverConfig(mu=0.1, T=0.02, dt=2e-3, res=16, scheme="imex-rk2")
        with pytest.raises(ValueError, match="imex-euler"):
            newton_local_inverse(f_cells, base.u[0], base, rk2)
        with pytest.raises(ValueError, match="trajectory length"):
            newton_local_inverse(f_cells, base.u[0], base.u[:3], cfg)
        with pytest.raises(ValueError, match="cell per time step"):
            newton_local_inverse(f_cells[:2], base.u[0], base, cfg)


class TestGalerkinStudy:
    def test_uniform_bound_and_cauchy_decay(self):
        cfg = SolverConfig(mu=0.2, T=0.2, dt=5e-3, res=16)
        study = galerkin_convergence_study(
            None, _two_band_state(G16), cfg, ms=(16, 32, 64, 120))
        first = study.bounded_quantities[0]
        assert np.all(study.bounded_quantities <= first * 1.01)
        ratios = study.cauchy_differences[:-1] / study.cauchy_differences[1:]
        assert np.all(ratios >= 2.0)

    def test_bounded_quantity_stable_beyond_band_limit(self):
        cfg = SolverConfig(mu=0.2, T=0.1, dt=5e-3, res=16)
        study = galerkin_convergence_study(
            None, _two_band_state(G16), cfg, ms=(60, 120))
        a, b = study.bounded_quantities
        assert abs(b - a) <= 1e-3 * a

    def test_full_band_matches_field_solver(self):
        u0 = _two_band_state(G16)
        cfg = SolverConfig(mu=0.2, T=0.1, dt=5e-3, res=16)
        study = galerkin_convergence_study(None, u0, cfg, ms=(120,))
        sol = solve_nonlinear(None, u0, cfg, derivatives=0, with_pressure=False)
        grads = [l2_norm(fractional_power(u, 2)) ** 2 for u in sol.u]
        sup_part = max(l2_norm(fractional_power(u, 1)) ** 2 for u in sol.u)
        int_part = cfg.mu * float(np.trapezoid(grads, sol.times))
        assert study.bounded_quantities[0] == pytest.approx(
            sup_part + int_part, rel=1e-10)


class TestSolutionIO:
    def test_round_trip(self, tmp_path):
        cfg = SolverConfig(mu=0.1, T=0.1, dt=0.01, res=16)
        sol = solve_nonlinear(None, _taylor_green(G16), cfg, store_every=2)
        save_solution(sol, tmp_path / "run")
        back = load_solution(tmp_path / "run")
        assert np.allclose(back.times, sol.times)
        assert max(l2_norm(a - b) for a, b in zip(back.u, sol.u)) <= 1e-14
        assert max(l2_norm(a - b) for a, b in zip(back.p, sol.p)) <= 1e-14

    def test_manifest_layout(self, tmp_path):
        cfg = SolverConfig(mu=0.1, T=0.1, dt=0.05, res=16)
        sol = solve_nonlinear(None, _taylor_green(G16), cfg)
        save_solution(sol, tmp_path / "run")
        lines = (tmp_path / "run" / "manifest.csv").read_text().splitlines()
        assert lines[0] == "t,file,energy,grad_energy"
        first = lines[1].split(",")
        assert first[0] == "0.0" and first[1] == "u_00000.hpform"
        assert float(first[2]) == pytest.approx(l2_norm(sol.u[0]) ** 2)
        assert float(first[3]) == pytest.approx(
            l2_norm(fractional_power(sol.u[0], 1)) ** 2)

    def test_pressure_optional(self, tmp_path):
        cfg = SolverConfig(mu=0.1, T=0.1, dt=0.05, res=16)
        sol = solve_nonlinear(None, _taylor_green(G16), cfg, with_pressure=False)
        save_solution(sol, tmp_path / "run")
        back = load_solution(tmp_path / "run")
        assert back.p is None

    def test_bad_manifest_rejected(self, tmp_path):
        run = tmp_path / "run"
        run.mkdir()
        (run / "manifest.csv").write_text("time,file\n0.0,u_00000.hpform\n")
        with pytest.raises(ValueError, match="manifest columns"):
            load_solution(run)

    @pytest.mark.parametrize("escape", ["../outside.hpform", "absolute"])
    def test_manifest_file_must_be_a_bare_name(self, tmp_path, escape):
        cfg = SolverConfig(mu=0.1, T=0.1, dt=0.05, res=16)
        sol = solve_nonlinear(None, _taylor_green(G16), cfg, with_pressure=False)
        save_solution(sol, tmp_path / "run")
        outside = tmp_path / "outside.hpform"
        outside.write_bytes((tmp_path / "run" / "u_00001.hpform").read_bytes())
        name = str(outside) if escape == "absolute" else escape
        manifest = tmp_path / "run" / "manifest.csv"
        manifest.write_text(
            manifest.read_text().replace("u_00001.hpform", name))
        with pytest.raises(ValueError, match="manifest row 2"):
            load_solution(tmp_path / "run")


class TestIdentitySemantics:
    @pytest.mark.parametrize("make", [
        lambda: random_form(G16, 1, np.random.default_rng(5)),
        lambda: build_basis(G16, 1, 4),
        lambda: nonlinear_module.interior_product_map(2),
        lambda: navier_stokes_config(2),
    ], ids=["FormField", "GalerkinBasis", "BilinearMap", "NonlinearityConfig"])
    def test_equality_is_identity(self, make):
        # Equal-valued instances hold equal arrays, which have no single
        # truth value: == is identity and hash the object id.
        a, b = make(), make()
        assert a != b and not a == b
        assert a == a
        assert hash(a) == hash(a) != hash(b)
        assert len({a, b, a}) == 2
