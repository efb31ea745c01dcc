"""Tests for the Galerkin basis, IMEX solvers, Newton inversion, and IO.

Oracles: closed-form heat decay and the decaying vortex (whose nonlinear
term is a pure gradient, making it an exact solution of the full
equations), scheme self-convergence under step halving, and exact
algebraic identities of the discrete quadratic forward map.
"""

import dataclasses
import math
import re
import sys
import tracemalloc
from functools import lru_cache, partial
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import torusforms.hodge as hodge_module
import torusforms.nonlinear as nonlinear_module
import torusforms.solver as solver_module
import torusforms.spectral as spectral_module
from oracles import (
    dealiased_convection,
    galerkin_project,
    observed_order,
    pinv_kernel_projector,
    pressure_split,
    product_canonical_modes,
    taylor_green_pressure,
    taylor_green_velocity,
    viscous_term,
)
from torusforms.nonlinear import (
    bilinear_term,
    get_preset,
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
    write_csv,
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
    parametrix,
    random_form,
    remove_harmonic,
    save_field,
    to_physical,
)

G16 = SpectralGrid(2, 16)
ROOT_HALF = np.sqrt(0.5)
NS2 = navier_stokes_config(2)
NS = {2: NS2, 3: navier_stokes_config(3)}


def _state(u: FormField, keep: bool = False):
    """u's band-half state, through the entry check against its own grid
    and degree."""
    return nonlinear_module.checked_state(u, u.grid, u.degree, "field", keep)


def _nan_off_plane(u: FormField) -> FormField:
    """u with a NaN at mode (1, 1), off the k_last = 0 plane that the
    Hermitian check reads."""
    comps = [c.copy() for c in u.components]
    comps[0][1, 1] = np.nan
    return FormField(u.grid, u.degree, tuple(comps))


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
        ("mu = nan", "mu must be finite"),
        ("mu = inf", "mu must be finite"),
        ("T = nan", "T must be finite"),
        ("T = inf", "T must be finite"),
        ("dt = nan", "dt must be finite"),
        ("newton.tol = nan", "newton.tol must be finite"),
    ])
    def test_bad_values_rejected_at_parse(self, line, field):
        # The line under test replaces the required key it sets.
        key = line.split()[0]
        required = [r for r in ("mu = 1.0", "T = 1.0", "dt = 0.5") if r.split()[0] != key]
        with pytest.raises(ValueError, match=field):
            parse_solver_config("\n".join(required + [line]) + "\n")

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.sampled_from([2, 3]))
    def test_format_parse_round_trip(self, data, n):
        positive = st.floats(min_value=1e-8, max_value=1e6, allow_nan=False)
        dt = data.draw(st.floats(min_value=1e-6, max_value=10.0))
        preset = data.draw(st.sampled_from(["navier-stokes-i1", "zero"]))
        cfg = SolverConfig(
            mu=data.draw(positive), T=dt * data.draw(st.integers(1, 1000)), dt=dt,
            res=2 * data.draw(st.integers(2, 64)),
            degree=1 if preset == "navier-stokes-i1" else data.draw(st.integers(0, n)),
            scheme=data.draw(st.sampled_from(["imex-euler", "imex-rk2"])), preset=preset,
            newton_max_iter=data.draw(st.integers(1, 100)),
            newton_tol=data.draw(st.floats(min_value=1e-16, max_value=1.0)), n=n,
        )
        back = parse_solver_config(format_solver_config(cfg))
        for field in dataclasses.fields(SolverConfig):
            assert getattr(back, field.name) == getattr(cfg, field.name)

    @pytest.mark.parametrize("build, key, bad, good", [
        (SolverConfig, "res", 16.0, np.int64(16)),
        (SolverConfig, "res", True, 16),
        (SolverConfig, "n", 2.0, np.int32(2)),
        (SolverConfig, "degree", 1.0, np.int64(1)),
        (SolverConfig, "newton_max_iter", 2.5, np.int64(3)),
        (SpectralGrid, "res", 16.0, np.int64(16)),
        (SpectralGrid, "n", 2.0, np.int64(2)),
        (SpectralGrid, "n", True, 2),
    ])
    def test_non_integer_counts_rejected(self, build, key, bad, good):
        # A float or bool count fails at construction, with its key named,
        # not later inside grid() or FormField.zeros; a NumPy integer passes.
        args = dict(n=2, res=16) if build is SpectralGrid else dict(mu=1.0, T=1.0, dt=0.5)
        name = key.replace("newton_", "newton.")
        with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be an integer, got"):
            build(**{**args, key: bad})
        assert getattr(build(**{**args, key: good}), key) == good

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
        got = {tuple(np.round(galerkin_project(
            basis, FormField.from_physical(G16, 1, comps)), 12)) for comps in expected}
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
        back = basis.synthesize(galerkin_project(basis, u))
        assert l2_norm(back - u) <= 1e-12 * max(l2_norm(u), 1.0)

    @pytest.mark.parametrize("grid, m", [(G16, None), (G16, 7), (SpectralGrid(3, 8), None),
                                         (SpectralGrid(3, 8), 13)])
    def test_gather_and_scatter_match_oracles(self, grid, m):
        # galerkin_project is a gather and synthesize a scatter at +-k; the
        # oracles are the L2 pairing with every field and the sum of the
        # fields.  The basis projector P_m is synthesize after the gather, also where m
        # splits a shell (T^2, m = 7) or a fibre (T^3, m = 13).
        basis = build_basis(grid, 1, m)
        rng = np.random.default_rng(17)
        u = random_form(grid, 1, rng)
        fields = basis.fields
        paired = np.array([inner_product(u, b) for b in fields])
        assert np.max(np.abs(galerkin_project(basis, u) - paired)) <= 1e-14
        g = rng.standard_normal(basis.m)
        total = FormField.zeros(grid, 1)
        for gj, b in zip(g, fields):
            total = total + b * gj
        got = basis.synthesize(g)
        for a, b in zip(got.components, total.components):
            assert np.max(np.abs(a - b)) <= 1e-14
        halves = _state(u).halves
        projected = nonlinear_module.BandHalves(grid, 1, basis._project_band(halves)).field()
        back = basis.synthesize(galerkin_project(basis, u))
        for a, b in zip(projected.components, back.components):
            assert np.max(np.abs(a - b)) <= 1e-15

    @pytest.mark.parametrize("modes, fibres, sine, problem", [
        ([[7, 1]], [[0.0, 1.0]], [False], "field 0: .* outside the band"),
        ([[1, -6]], [[1.0, 0.0]], [False], "field 0: .* outside the band"),
        ([[1, 0], [0, 0]], [[0.0, 1.0], [1.0, 0.0]], [False, True], "field 1: .* zero mode"),
        ([[1, 0], [0, 1]], [[0.0, 1.0], [1.0, 0.0]], [False],
         "field 1: sine has 1 entries for 2 modes"),
        ([[1, 0], [0, 1]], [[0.0, 1.0], [1.0, 0.0]], [False, True, True],
         "field 2: sine has 3 entries for 2 modes"),
        ([[1, 0], [0, 1]], [[0.0, 1.0]], [False, True], "field 1: fibres has 1 entries"),
        ([[1, 0]], [[1.0, 1.0]], [False], "field 0: .* not a unit vector"),
        ([[1, 0]], [[0.0, np.nan]], [False], "field 0: .* not a unit vector"),
        ([[0, 1], [1, 0]], [[1.0, 0.0], [1.0, 0.0]], [False, True],
         "field 1: .* not divergence-free"),
        ([[1, 0], [1, 0]], [[0.0, 1.0], [0.0, 1.0]], [False, False],
         "field 0: .* not orthogonal"),
        ([[1, 1], [2, 0], [-1, -1]], [[ROOT_HALF, -ROOT_HALF], [0.0, 1.0],
                                     [-ROOT_HALF, ROOT_HALF]],
         [True, True, True], "field 0: .* not orthogonal"),
    ])
    def test_bad_fields_rejected(self, modes, fibres, sine, problem):
        # The class is public: a mode outside the band would wrap around the
        # band half and a short sine array would broadcast.  A fibre that is
        # not unit, not divergence-free or not orthogonal to another at the
        # same mode (k and -k are one mode) and phase, a field given twice
        # included, would make P_m no orthogonal projection.
        with pytest.raises(ValueError, match=problem):
            GalerkinBasis(G16, 1, modes, fibres, sine)

    @pytest.mark.parametrize("grid, m, reverse", [
        (G16, None, False), (SpectralGrid(3, 8), 13, False), (G16, 24, True)],
        ids=["full", "truncated", "reordered"])
    def test_eigenvalues_are_the_mode_squares(self, grid, m, reverse):
        basis = build_basis(grid, 1, m)
        if reverse:
            basis = basis.reordered(list(reversed(range(basis.m))))
        assert basis.eigenvalues.dtype == np.float64
        assert np.array_equal(basis.eigenvalues, np.sum(basis.modes**2, axis=1))

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

    @pytest.mark.parametrize("grid", [SpectralGrid(2, 512), SpectralGrid(3, 128)])
    def test_fibres_divergence_free_and_orthonormal_to_rounding(self, grid):
        # The closed-form fibres stay at rounding for every canonical mode,
        # at any |k|: the frame iota_k(e_j ^ e_I) is exactly coclosed.
        modes = solver_module._canonical_modes(grid)
        for degree in range(grid.n):
            fibres = solver_module._fibres(grid.n, degree, modes)
            L = solver_module._divergence_matrix(grid.n, degree, modes.T.astype(float))
            div = np.linalg.norm(np.einsum("rcm,mfc->mfr", L, fibres), axis=-1)
            assert np.max(div / np.linalg.norm(modes, axis=1)[:, None]) <= 1e-15
            gram = fibres @ np.swapaxes(fibres, 1, 2)
            assert np.max(np.abs(gram - np.eye(fibres.shape[1]))) <= 1e-15

    def test_full_band_admitted_at_t2_res_512(self):
        # The pinv fibres failed the 1e-13 |k| bound from here on.
        grid = SpectralGrid(2, 512)
        assert build_basis(grid, 1).m == 2 * len(solver_module._canonical_modes(grid))

    @pytest.mark.parametrize("grid", [SpectralGrid(2, 64), SpectralGrid(3, 16)])
    def test_fibres_span_the_pinv_kernel(self, grid):
        # Per mode, sum xi xi^T is the orthogonal projector onto ker L.
        modes = solver_module._canonical_modes(grid)
        for degree in range(grid.n):
            fibres = solver_module._fibres(grid.n, degree, modes)
            L = solver_module._divergence_matrix(grid.n, degree, modes.T.astype(float))
            expected = pinv_kernel_projector(np.moveaxis(L, -1, 0))
            assert np.max(np.abs(np.swapaxes(fibres, 1, 2) @ fibres - expected)) <= 1e-14

    @pytest.mark.parametrize("n, res", [(2, 16), (2, 64), (3, 8), (3, 16)])
    def test_canonical_order_matches_enumeration(self, n, res):
        modes = solver_module._canonical_modes(SpectralGrid(n, res))
        assert modes.tolist() == [list(k) for k in product_canonical_modes(n, res)]

    @pytest.mark.parametrize("degree, m, problem", [
        (1, -1, "truncation m must be a positive integer"),
        (1, 0, "truncation m must be a positive integer"),
        (1, -5, "truncation m must be a positive integer"),
        (1, 2.5, "truncation m must be a positive integer"),
        (2, None, r"degree 2 has no divergence-free eigenfields off the harmonic mode\), got 2"),
        (2, 4, r"degree 2 has no divergence-free eigenfields off the harmonic mode\), got 2"),
    ])
    def test_truncation_and_degree_checked_up_front(self, degree, m, problem):
        with pytest.raises(ValueError, match=problem):
            build_basis(G16, degree, m)
        cfg = SolverConfig(mu=0.2, T=0.01, dt=5e-3, res=16, degree=degree, preset="zero")
        with pytest.raises(ValueError, match=problem):
            galerkin_convergence_study(None, FormField.zeros(G16, degree), cfg,
                                       ms=(4, 8 if m is None else m))

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
                    rng.standard_normal(grid.half_shape)
                    + 1j * rng.standard_normal(grid.half_shape)
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


def _reference_pressure(source: FormField) -> FormField:
    """The potential of the source's gradient part, through public hodge."""
    return codifferential(parametrix(source - helmholtz_project(source)))


def _reference_samples(sol, mu, quad, forcing, forcing_dt=None, ns=None):
    """Derivatives and pressures at the stored samples on full fields:
    Q(u) = quad(j, u) of the full field u, project_state of Q and of f =
    forcing(j), the pressure of f - Q; with ``forcing_dt`` also the second
    derivative and the pressure's first from B(u, du/dt) and df/dt."""
    first, second, p, p_first = [], [], [], []

    def substituted(u, q, fj):
        du = hodge_laplacian(u) * (-mu) - project_state(q)
        return du if fj is None else du + project_state(fj)

    def pressure(q, fj):
        src = q * (-1.0)
        return _reference_pressure(src if fj is None else src + fj)

    for j, u in enumerate(sol.u):
        q, fj = quad(j, u), forcing(j)
        first.append(substituted(u, q, fj))
        p.append(pressure(q, fj))
        if forcing_dt is not None:
            dq, dfj = bilinear_term(u, first[-1], ns), forcing_dt(j)
            second.append(substituted(first[-1], dq, dfj))
            p_first.append(pressure(dq, dfj))
    return first, second, p, p_first


def _assert_same_states(got, expected):
    """Byte-identical samples and half-spectrum coefficients."""
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        for x, y in zip(a.components, b.components):
            assert x.tobytes() == y.tobytes()
        for x, y in zip(to_physical(a), to_physical(b)):
            assert x.tobytes() == y.tobytes()


def _kernel_passes(monkeypatch) -> list:
    """Record each kernel pass as (inputs, exact mode, states in the
    batch)."""
    passes, original = [], nonlinear_module._quadratic

    def counted(cfg, grid, *inputs, exact="add"):
        values = inputs[0][0][0]
        passes.append((len(inputs), exact, values.shape[0] if values.ndim > grid.n else 1))
        return original(cfg, grid, *inputs, exact=exact)

    monkeypatch.setattr(nonlinear_module, "_quadratic", counted)
    return passes


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
        # The stages leave out the exact part d M2 of Q, which P kills: the
        # reference on Q1 agrees bit for bit, the reference on Q to rounding.
        def reference(exact):
            return _reference_lawson(
                cfg, u0, lambda j, mid, u: nonlinear_term(u, NS[grid.n], exact=exact), f_ref)

        _assert_same_states(sol.u, reference("drop"))
        _assert_close_states(sol.u, reference("add"), 1e-14)

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
        def reference(exact):
            return _reference_lawson(cfg, u0, lambda j, mid, u: bilinear_term(
                w_ref(j, mid), u, NS[grid.n], exact=exact), f_ref)

        _assert_same_states(sol.u, reference("drop"))
        _assert_close_states(sol.u, reference("add"), 1e-14)

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
        # The entry check holds u0 to the nonlinearity's degree and names it.
        u0 = random_form(G16, 0, np.random.default_rng(37), kmax=4)
        cfg = SolverConfig(mu=0.1, T=0.02, dt=5e-3, res=16)
        message = "initial datum is a field of degree 0 .* does not match degree 1"
        with pytest.raises(ValueError, match=message):
            solve_nonlinear(None, u0, cfg)
        with pytest.raises(ValueError, match=message):
            solve_linearized(_two_band_state(G16), None, u0, cfg)

    def test_degree_zero_pressure_rejected_at_entry(self, monkeypatch):
        # A 0-form has no pressure: the default with_pressure=True fails
        # before any stage with an error that names the problem.
        def never(*args):
            raise AssertionError("stepping started")

        u0 = random_form(SpectralGrid(2, 8), 0, np.random.default_rng(5), kmax=2)
        cfg = SolverConfig(mu=0.1, T=0.02, dt=0.01, res=8, degree=0, preset="zero")
        with monkeypatch.context() as patch:
            patch.setattr(solver_module, "_run_scheme", never)
            with pytest.raises(ValueError, match="degree-0.*with_pressure"):
                solve_nonlinear(None, u0, cfg)
            with pytest.raises(ValueError, match="degree-0.*with_pressure"):
                solve_linearized(None, None, u0, cfg)
        for sol in (solve_nonlinear(None, u0, cfg, with_pressure=False),
                    solve_linearized(None, None, u0, cfg, with_pressure=False)):
            assert sol.p is None and len(sol.u) == cfg.steps + 1

    @pytest.mark.parametrize("grid", [G16, SpectralGrid(2, 32), SpectralGrid(3, 8),
                                      SpectralGrid(3, 12)])
    def test_half_norm_is_parseval(self, grid):
        # The k_last = 0 plane counts once, every other plane twice.
        u = project_state(random_form(grid, 1, np.random.default_rng(31), kmax=grid.res / 3))
        state = solver_module._band_projection(grid, 1, _state(u).halves)
        rebuilt = nonlinear_module.BandHalves(grid, 1, state).field()
        expected = l2_norm(rebuilt)
        assert abs(solver_module._half_norm(state) - expected) <= 1e-14 * expected


class TestSchemeMemory:
    def test_peak_does_not_grow_with_the_step_count(self):
        # The Lawson loop keeps no state but the current one, and the
        # stage stores the samples: with 2 stored samples the tracemalloc
        # peak at 80 steps stays within one state's bytes of the peak at
        # 10 steps.
        grid = SpectralGrid(3, 12)
        u0 = project_state(random_form(grid, 1, np.random.default_rng(3), kmax=4))
        state_bytes = 3 * _state(u0).halves[0].nbytes

        def peak(steps):
            cfg = SolverConfig(mu=0.1, T=steps * 1e-3, dt=1e-3, res=12, n=3)
            tracemalloc.start()
            try:
                solve_nonlinear(None, u0, cfg, store_every=steps)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2)  # fill the grid's multiplier caches
        assert peak(80) - peak(10) < state_bytes


class TestBlowupGuard:
    @pytest.mark.parametrize("scheme, T, step", [
        ("imex-rk2", 0.2, 2), ("imex-euler", 0.4, 4),  # the last step
        ("imex-rk2", 0.5, 2), ("imex-euler", 0.5, 4),  # mid-run
    ])
    @pytest.mark.parametrize("samples", [dict(derivatives=0, with_pressure=False),
                                         dict(derivatives=1, with_pressure=True)],
                             ids=["states-only", "derivatives-pressure"])
    def test_message_names_the_step(self, scheme, T, step, samples):
        # The state after step N is guarded as the stage at time index N
        # starts, and the final state too: by the final stage call where
        # samples take derivatives or pressures, else before it is stored.
        u0 = project_state(random_form(G16, 1, np.random.default_rng(1), kmax=5)) * 3e2
        cfg = SolverConfig(mu=0.1, T=T, dt=0.1, res=16, scheme=scheme)
        with pytest.raises(SolverDivergenceError,
                           match=rf"^trajectory norm exceeded 1e\+12 at step {step}$"):
            solve_nonlinear(None, u0, cfg, **samples)


class TestEvaluationCounts:
    @staticmethod
    def _count(monkeypatch, name):
        """Record the calls of the solver module's ``name``: "stage" while
        ``_run_scheme`` runs, else "sample".  Every call takes band-half
        states."""
        calls, stepping = [], []
        original, run = getattr(solver_module, name), solver_module._run_scheme

        def counted(*args, **kwargs):
            assert all(isinstance(a, nonlinear_module.BandHalves) for a in args[:-1])
            calls.append("stage" if stepping else "sample")
            return original(*args, **kwargs)

        def flagged(*args):
            stepping.append(True)
            try:
                return run(*args)
            finally:
                stepping.pop()

        monkeypatch.setattr(solver_module, name, counted)
        monkeypatch.setattr(solver_module, "_run_scheme", flagged)
        return calls

    def test_nonlinear_term_once_per_stage_and_stored_sample(self, monkeypatch):
        # 4 rk2 steps make 8 stage evaluations on the band-half state; the
        # stored samples at steps 0 and 2 reuse their stages' N for the
        # derivative cache and the pressure, and the final state takes one
        # more.
        calls = self._count(monkeypatch, "nonlinear_term")
        cfg = SolverConfig(mu=0.1, T=0.02, dt=5e-3, res=16)
        solve_nonlinear(None, _two_band_state(G16), cfg, store_every=2, derivatives=1)
        assert calls.count("stage") == 8
        assert calls.count("sample") == 1

    def _count_bilinear(self, monkeypatch):
        return self._count(monkeypatch, "bilinear_term")

    def test_bilinear_term_once_per_stage_and_stored_sample(self, monkeypatch):
        # 4 rk2 steps make 8 stage evaluations of B(w, u) on the band-half
        # state; the 3 stored samples take B(w, u) from the stage that
        # starts at each, and the final state from one more.
        calls = self._count_bilinear(monkeypatch)
        w = _two_band_state(G16)
        cfg = SolverConfig(mu=0.1, T=0.02, dt=5e-3, res=16)
        sol = solve_linearized(w, None, _two_band_state(G16), cfg, store_every=2)
        assert len(sol.u) == len(sol.p) == len(sol.dt_cache[1]) == 3
        assert calls.count("stage") == 8
        assert calls.count("sample") == 1

    def test_derivative_term_once_per_stored_sample(self, monkeypatch):
        # B(u, du/dt) feeds both the second derivative and the pressure's
        # first derivative, once per stored sample; no stage needs it.
        calls = self._count_bilinear(monkeypatch)
        cfg = SolverConfig(mu=0.1, T=0.02, dt=5e-3, res=16)
        sol = solve_nonlinear(None, _two_band_state(G16), cfg, store_every=2,
                              derivatives=2)
        assert len(sol.dt_cache[2]) == len(sol.p_dt_cache[1]) == 3
        assert len(calls) == 3

    def test_pressure_needs_no_projection(self, monkeypatch):
        # p = delta Lap^-1 (f - Q): no solve calls helmholtz_project, in
        # any package namespace that holds it, and d p is still the
        # gradient part of the source.
        calls = []
        original = hodge_module.helmholtz_project
        for module in [m for key, m in list(sys.modules.items())
                       if key.split(".")[0] == "torusforms"]:
            if getattr(module, "helmholtz_project", None) is original:
                monkeypatch.setattr(module, "helmholtz_project",
                                    lambda *args: calls.append(args) or original(*args))
        assert not hasattr(solver_module, "helmholtz_project")
        u0, w = _two_band_state(G16), _taylor_green(G16)
        f = random_form(G16, 1, np.random.default_rng(47), kmax=4)
        cfg = SolverConfig(mu=0.1, T=0.02, dt=5e-3, res=16)
        nonlinear = solve_nonlinear(f, u0, cfg, store_every=2)
        linearized = solve_linearized(w, f, u0, cfg, store_every=2)
        euler = dataclasses.replace(cfg, scheme="imex-euler")
        base = solve_nonlinear(None, u0, euler, derivatives=0, with_pressure=False)
        cells = discrete_forward_data(base.u, euler)[0]
        newton = newton_local_inverse(cells, u0, base, euler).solution
        assert calls == []
        last_cell = euler.steps - 1
        for sol, quad, forcing in (
                (nonlinear, lambda u: nonlinear_term(u, NS2), lambda j: f),
                (linearized, lambda u: bilinear_term(w, u, NS2), lambda j: f),
                (newton, lambda u: nonlinear_term(u, NS2), lambda j: cells[min(j, last_cell)])):
            for j, (u, p) in enumerate(zip(sol.u, sol.p)):
                source = forcing(j) - quad(u)
                grad_part = source - helmholtz_project(source)
                assert (l2_norm(exterior_derivative(p) - grad_part)
                        <= 1e-12 * l2_norm(grad_part))


class TestSampleGridReuse:
    """A stored sample that takes B(u, du/dt) (second derivatives, or the
    pressure's first) keeps the grid values of its stage's N(u): B puts
    only du/dt on the grid, the kept values go with the sample, and every
    output is the bytes of a B on a state without kept values."""

    def test_b_puts_only_du_on_the_grid(self, monkeypatch):
        passes, inside, seen = [], [], []
        on_grid, bilinear = nonlinear_module._on_grid, solver_module.bilinear_term

        def spied_on_grid(cfg, grid, halves):
            passes.append((bool(inside), halves))
            return on_grid(cfg, grid, halves)

        def spied_bilinear(u, du, cfg, **kwargs):
            # The stage's N(u) left u's grid values; no earlier sample's are
            # still kept.
            assert u._kept and all(s._kept is None for s, _ in seen)
            seen.append((u, du.halves))
            inside.append(True)
            try:
                return bilinear(u, du, cfg, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(nonlinear_module, "_on_grid", spied_on_grid)
        monkeypatch.setattr(solver_module, "bilinear_term", spied_bilinear)
        cfg = SolverConfig(mu=0.1, T=0.02, dt=5e-3, res=16)
        sol = solve_nonlinear(None, _two_band_state(G16), cfg, store_every=2,
                              derivatives=1, with_pressure=True)
        assert len(seen) == len(sol.p_dt_cache[1]) == 3
        # 8 stages and the final sample put u on the grid; each B only du.
        assert sum(not b for b, _ in passes) == 8 + 1
        b_passes = [h for b, h in passes if b]
        assert len(b_passes) == 3
        assert all(h is du for h, (_, du) in zip(b_passes, seen))
        assert all(u._kept is None for u, _ in seen)

    @pytest.mark.parametrize("derivatives, with_pressure, kept", [
        (0, False, 0), (0, True, 0), (1, False, 0), (1, True, 6), (2, False, 6),
        (2, True, 6)])
    def test_only_samples_that_take_b_keep(self, monkeypatch, derivatives, with_pressure,
                                           kept):
        # Kept states in kernel passes: per stored sample its N(u) and its
        # B(u, du/dt), none where no B(u, du/dt) follows.
        passes, original = [], nonlinear_module._states_on_grid

        def spied(cfg, states):
            passes.append(any(s._kept is not None for s in states))
            return original(cfg, states)

        monkeypatch.setattr(nonlinear_module, "_states_on_grid", spied)
        cfg = SolverConfig(mu=0.1, T=0.02, dt=5e-3, res=16)
        solve_nonlinear(None, _two_band_state(G16), cfg, store_every=2,
                        derivatives=derivatives, with_pressure=with_pressure)
        assert sum(passes) == kept

    @pytest.mark.parametrize("derivatives", [1, 2])
    @pytest.mark.parametrize("grid, forcing", [
        (G16, "callable"), (SpectralGrid(3, 8), "constant"), (SpectralGrid(3, 32), "none")])
    def test_outputs_equal_b_on_a_fresh_state(self, monkeypatch, grid, forcing, derivatives):
        rng = np.random.default_rng(97)
        u0 = project_state(random_form(grid, 1, rng, kmax=grid.res / 6))
        g = random_form(grid, 1, rng, kmax=grid.res / 6)
        f, f_dt = {"none": (None, None), "constant": (g, None),
                   "callable": (lambda t: g * float(np.cos(t)),
                                lambda t: g * float(-np.sin(t)))}[forcing]
        cfg = SolverConfig(mu=0.1, T=2e-3, dt=1e-3, res=grid.res, n=grid.n)

        def solve():
            return solve_nonlinear(f, u0, cfg, derivatives=derivatives,
                                   with_pressure=True, f_dt_series=f_dt)

        got = solve()
        original = solver_module.bilinear_term
        monkeypatch.setattr(solver_module, "bilinear_term", lambda u, du, cfg, **kwargs: (
            original(nonlinear_module.BandHalves(u.grid, u.degree, u.halves), du, cfg,
                     **kwargs)))
        expected = solve()
        _assert_same_states(got.u, expected.u)
        _assert_same_states(got.p, expected.p)
        assert sorted(got.dt_cache) == sorted(expected.dt_cache) == list(
            range(1, derivatives + 1))
        for d in got.dt_cache:
            _assert_same_states(got.dt_cache[d], expected.dt_cache[d])
        assert sorted(got.p_dt_cache) == sorted(expected.p_dt_cache) == [1]
        _assert_same_states(got.p_dt_cache[1], expected.p_dt_cache[1])


class TestKernelPasses:
    """Newton and the discrete maps put their independent evaluations in
    batched kernel passes, counted through ``nonlinear._quadratic``."""

    @staticmethod
    def _open_map():
        """The open-map benchmark's configuration: T^2 res 16, 4 imex-euler
        steps, a trajectory from a random velocity and two targets, each
        two Newton iterations away."""
        cfg = SolverConfig(mu=0.1, T=8e-3, dt=2e-3, res=16, scheme="imex-euler")
        rng = np.random.default_rng(1)
        u0 = project_state(random_form(G16, 1, rng, kmax=16 / 3))
        base = solve_nonlinear(None, u0, cfg, derivatives=0, with_pressure=False)
        direction = project_state(random_form(G16, 1, rng, kmax=2))
        f_cells, _ = discrete_forward_data(base.u, cfg)
        targets = [[c + direction * eps for c in f_cells] for eps in (1.6e-2, 8e-3)]
        return cfg, base, direction, targets

    def test_newton_passes(self, monkeypatch):
        # 3 residual passes over the 4 states that start a cell, 2 solves of
        # 4 B(u_j, delta_j), N at the last state and one M2 pass over the
        # others: 13 passes, where one call a state made 25.
        cfg, base, _, targets = self._open_map()
        passes = _kernel_passes(monkeypatch)
        result = newton_local_inverse(targets[0], base.u[0], base, cfg)
        assert result.converged and result.iterations == 2
        assert len(passes) == 13
        assert passes.count((1, "drop", cfg.steps)) == 3
        assert passes.count((2, "drop", 1)) == 2 * cfg.steps

    def test_open_map_round_passes(self, monkeypatch):
        # A round of the open-map benchmark: the linearized operator, one
        # apply_inverse (4 B) and Newton at two targets: 30 passes, from 54.
        cfg, base, direction, targets = self._open_map()
        basis = build_basis(G16, 1)
        passes = _kernel_passes(monkeypatch)
        op = assemble_linearized(base.u, cfg.mu, basis, cfg.times(), NS2)
        apply_inverse(op, direction, FormField.zeros(G16, 1), cfg, derivatives=0)
        results = [newton_local_inverse(t, base.u[0], base, cfg) for t in targets]
        assert [r.iterations for r in results] == [2, 2]
        assert len(passes) == 30

    def test_discrete_maps_one_pass(self, monkeypatch):
        cfg, base, direction, _ = self._open_map()
        passes = _kernel_passes(monkeypatch)
        discrete_forward_data(base.u, cfg)
        discrete_linearized_data(base.u, [direction] * (cfg.steps + 1), cfg)
        assert passes == [(1, "drop", cfg.steps), (2, "drop", cfg.steps)]


class TestSamplePass:
    """The stored samples' derivative caches and pressures, taken on the
    band-half state, against the same formulas on full fields: -mu Lap u
    through hodge_laplacian and the pressure through helmholtz_project,
    codifferential and parametrix.  The operations differ (|k|^2 and
    delta Lap^-1 on the half), so they agree to rounding, not bit for bit."""

    GRIDS = [G16, SpectralGrid(3, 8)]

    @pytest.mark.parametrize("grid", GRIDS)
    @pytest.mark.parametrize("forcing", ["none", "constant", "callable"])
    def test_nonlinear_matches_full_field_reference(self, grid, forcing):
        u0, f, _ = TestBandHalfState._data(grid)
        ns = NS[grid.n]
        cfg = SolverConfig(mu=0.1, T=0.02, dt=5e-3, res=grid.res, n=grid.n)
        f_series = f_dt = None
        if forcing == "constant":
            f_series = f
        elif forcing == "callable":
            f_series = lambda t: f * float(np.cos(3.0 * t))  # noqa: E731
            f_dt = lambda t: f * float(-3.0 * np.sin(3.0 * t))  # noqa: E731
        sol = solve_nonlinear(f_series, u0, cfg, derivatives=2, f_dt_series=f_dt)

        def at(data):
            return lambda j: data(float(sol.times[j])) if callable(data) else data

        first, second, p, p_first = _reference_samples(
            sol, cfg.mu, lambda j, u: nonlinear_term(u, ns), at(f_series), at(f_dt), ns)
        _assert_close_states(sol.dt_cache[1], first, 1e-14)
        _assert_close_states(sol.dt_cache[2], second, 1e-14)
        _assert_close_states(sol.p, p, 1e-14)
        _assert_close_states(sol.p_dt_cache[1], p_first, 1e-14)

    def test_callable_forcing_drawn_once_per_stage_and_sample(self):
        # 4 rk2 steps draw f at 4 step starts and 4 midpoints; the stored
        # samples at steps 0 and 2 take their stage's f, for both P f and
        # the pressure, and the final state draws f once more.
        u0, f, _ = TestBandHalfState._data(G16)
        drawn = []

        def forcing(t):
            drawn.append(t)
            return f * float(np.cos(3.0 * t))

        cfg = SolverConfig(mu=0.1, T=0.02, dt=5e-3, res=16)
        solve_nonlinear(forcing, u0, cfg, store_every=2, f_dt_series=lambda t: f)
        assert len(drawn) == 8 + 1

    @pytest.mark.parametrize("grid", GRIDS)
    @pytest.mark.parametrize("advection", ["constant", "sampled"])
    def test_linearized_matches_full_field_reference(self, grid, advection):
        u0, f, w = TestBandHalfState._data(grid)
        ns = NS[grid.n]
        cfg = SolverConfig(mu=0.1, T=0.02, dt=5e-3, res=grid.res, n=grid.n)
        w_series = w
        if advection == "sampled":
            w_series = [w * float(1.0 + 0.5 * t) for t in cfg.times()]
        sol = solve_linearized(w_series, f, u0, cfg)
        wj = (lambda j: w) if advection == "constant" else w_series.__getitem__
        first, _, p, _ = _reference_samples(
            sol, cfg.mu, lambda j, u: bilinear_term(wj(j), u, ns), lambda j: f)
        _assert_close_states(sol.dt_cache[1], first, 1e-14)
        _assert_close_states(sol.p, p, 1e-14)


class TestPressure:
    """p = delta Lap^-1 (f - Q) at every stored sample, with no projection."""

    @settings(max_examples=20, deadline=None)
    @given(n=st.sampled_from([2, 3]), degree=st.sampled_from([1, 2]),
           scheme=st.sampled_from(["imex-euler", "imex-rk2"]), linearized=st.booleans(),
           timed=st.booleans(), seed=st.integers(0, 2**16))
    def test_potential_of_the_gradient_part(self, n, degree, scheme, linearized, timed, seed):
        # Degree 2 (on T^3 only; preset zero) gives a 1-form pressure, whose
        # codifferential is not trivially zero.
        degree = degree if n == 3 else 1
        grid = G16 if n == 2 else SpectralGrid(3, 8)
        preset = "navier-stokes-i1" if degree == 1 else "zero"
        ns = get_preset(preset, n, degree)
        rng = np.random.default_rng(seed)
        u0, w = (project_state(random_form(grid, degree, rng, kmax=grid.res / 3)) * 2.0
                 for _ in range(2))
        f = random_form(grid, degree, rng, kmax=grid.res / 3)
        cfg = SolverConfig(mu=0.1, T=0.02, dt=5e-3, res=grid.res, n=n, degree=degree,
                           scheme=scheme, preset=preset)
        f_series = (lambda t: f * float(np.cos(3.0 * t))) if timed else f
        if linearized:
            sol = solve_linearized(w, f_series, u0, cfg, store_every=2)
            quad = lambda u: bilinear_term(w, u, ns)  # noqa: E731
        else:
            sol = solve_nonlinear(f_series, u0, cfg, store_every=2)
            quad = lambda u: nonlinear_term(u, ns)  # noqa: E731
        for t, u, p in zip(sol.times, sol.u, sol.p):
            source = (f_series(float(t)) if timed else f) - quad(u)
            grad_part = source - helmholtz_project(source)
            scale = l2_norm(source)
            assert l2_norm(exterior_derivative(p) - grad_part) <= 1e-12 * scale
            assert all(c[(0,) * n] == 0.0 for c in p.components)
            if p.degree >= 1:
                assert l2_norm(codifferential(p)) <= 1e-12 * scale

    @settings(max_examples=10, deadline=None)
    @given(n=st.sampled_from([2, 3]), scheme=st.sampled_from(["imex-euler", "imex-rk2"]),
           seed=st.integers(0, 2**16))
    def test_zero_for_divergence_free_forcing_without_nonlinearity(self, n, scheme, seed):
        # delta f vanishes to rounding only; the rule that a gradient part
        # below rounding gives a zero pressure makes p exactly zero.
        grid = G16 if n == 2 else SpectralGrid(3, 8)
        rng = np.random.default_rng(seed)
        u0, w = (project_state(random_form(grid, 1, rng)) for _ in range(2))
        f = helmholtz_project(random_form(grid, 1, rng))
        cfg = SolverConfig(mu=0.1, T=0.02, dt=5e-3, res=grid.res, n=n, scheme=scheme,
                           preset="zero")
        for sol in (solve_nonlinear(f, u0, cfg), solve_linearized(w, f, u0, cfg)):
            assert all(not np.any(c) for p in sol.p for c in p.components)


class TestSampleOracle:
    """The stored pressures and first derivatives of a T^2 res-64 solve
    against numpy on the grid (tests/oracles.py): Q = the band part of
    (u . grad) u, grad p = (I - P)(f - Q), du/dt = mu Lap u + P (f - Q)
    and, for a constant f, grad dp/dt = -(I - P) B(u, du/dt) with B(u, v) =
    (u . grad) v + (v . grad) u."""

    def test_pressures_and_derivatives_match_numpy(self):
        grid = SpectralGrid(2, 64)
        rng = np.random.default_rng(1601)
        u0 = project_state(random_form(grid, 1, rng, kmax=8))
        u0 = u0 * (2.0 / l2_norm(u0))
        # Modes outside the band too: they reach p, not u.
        f = random_form(grid, 1, rng, kmax=grid.res / 2 - 1)
        f = f * (1.0 / l2_norm(f))
        cfg = SolverConfig(mu=0.05, T=4e-3, dt=1e-3, res=64)
        sol = solve_nonlinear(f, u0, cfg, store_every=2, derivatives=1, with_pressure=True)
        assert len(sol.u) == len(sol.p) == len(sol.dt_cache[1]) == len(sol.p_dt_cache[1]) == 3
        f_phys = to_physical(f)
        for u, p, du, dp in zip(sol.u, sol.p, sol.dt_cache[1], sol.p_dt_cache[1]):
            u_phys = to_physical(u)
            q = dealiased_convection(u_phys, u_phys)
            p_ref, drive = pressure_split([a - b for a, b in zip(f_phys, q)])
            du_ref = [a + b for a, b in zip(viscous_term(u_phys, cfg.mu), drive)]
            dq = [a + b for a, b in zip(dealiased_convection(u_phys, du_ref),
                                        dealiased_convection(du_ref, u_phys))]
            dp_ref, _ = pressure_split([-c for c in dq])
            for got, expected in ((p, [p_ref]), (du, du_ref), (dp, [dp_ref])):
                scale = max(np.max(np.abs(e)) for e in expected)
                gap = max(np.max(np.abs(g - e)) for g, e in zip(to_physical(got), expected))
                assert gap <= 1e-13 * scale


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


class TestTimeData:
    """Sampled time data are checked at entry, sample by sample, and a None
    sample is zero under both schemes."""

    CFG = SolverConfig(mu=0.1, T=0.04, dt=0.01, res=8)
    GRID = SpectralGrid(2, 8)

    @staticmethod
    def _kernel_calls(monkeypatch) -> list:
        calls, original = [], nonlinear_module._quadratic
        monkeypatch.setattr(nonlinear_module, "_quadratic",
                            lambda *args, **kw: calls.append(1) or original(*args, **kw))
        return calls

    @pytest.mark.parametrize("scheme", ["imex-euler", "imex-rk2"])
    def test_none_sample_is_zero(self, scheme):
        cfg = SolverConfig(mu=0.1, T=0.02, dt=0.01, res=8, scheme=scheme)
        rng = np.random.default_rng(23)
        u0, w = (project_state(random_form(self.GRID, 1, rng)) for _ in range(2))
        got = solve_linearized([None, w, w], None, u0, cfg)
        expected = solve_linearized([FormField.zeros(self.GRID, 1), w, w], None, u0, cfg)
        for a, b in zip(got.u + got.p + got.dt_cache[1], expected.u + expected.p
                        + expected.dt_cache[1]):
            assert l2_norm(a - b) <= 1e-15 * max(l2_norm(b), 1.0)

    CORRUPTIONS = ["grid", "degree", "nan", "nan-off-plane", "hermitian", "type"]

    @classmethod
    def _data(cls):
        """Valid data of every entry point, made before any kernel call is
        counted: u0, f, an operator, an imex-euler cfg and a trajectory."""
        rng = np.random.default_rng(29)
        u0 = project_state(random_form(cls.GRID, 1, rng))
        f = random_form(cls.GRID, 1, rng)
        basis = build_basis(cls.GRID, 1)
        op = assemble_linearized(u0, cls.CFG.mu, basis, cls.CFG.times(), NS2)
        euler = dataclasses.replace(cls.CFG, scheme="imex-euler")
        sol = solve_nonlinear(None, u0, euler, derivatives=0, with_pressure=False)
        return SimpleNamespace(u0=u0, f=f, basis=basis, op=op, euler=euler, sol=sol,
                               base=sol.u)

    @classmethod
    def _corrupt(cls, bad, f):
        rng = np.random.default_rng(31)
        return {"grid": lambda: random_form(G16, 1, rng),
                "degree": lambda: random_form(cls.GRID, 0, rng),
                "nan": lambda: f * float("nan"),
                "nan-off-plane": lambda: _nan_off_plane(f),
                "hermitian": lambda: _non_hermitian(f),
                "type": lambda: 1.0}[bad]()

    # (entry point, argument) -> (call with the corrupt field, name in the
    # error).  Sequence data are corrupt at their last sample, trajectories
    # at state 2.
    ENTRIES = {
        "solve_nonlinear-forcing": (
            lambda d, bad: solve_nonlinear([d.f] * 4 + [bad], d.u0, TestTimeData.CFG),
            "forcing sample 4"),
        "solve_nonlinear-u0": (
            lambda d, bad: solve_nonlinear(d.f, bad, TestTimeData.CFG), "initial datum"),
        "solve_linearized-advection": (
            lambda d, bad: solve_linearized([d.u0] * 4 + [bad], None, d.u0, TestTimeData.CFG),
            "advection field sample 4"),
        "solve_linearized-u0": (
            lambda d, bad: solve_linearized(d.u0, d.f, bad, TestTimeData.CFG),
            "initial datum"),
        "assemble_linearized-advection": (
            lambda d, bad: assemble_linearized([d.u0] * 4 + [bad], TestTimeData.CFG.mu,
                                               d.basis, TestTimeData.CFG.times(), NS2),
            "advection field sample 4"),
        "discrete_residual-forcing": (
            lambda d, bad: discrete_residual(d.sol, d.euler, f_series=[d.f] * 4 + [bad]),
            "forcing sample 4"),
        "energy_identity_residual-advection": (
            lambda d, bad: energy_identity_residual(
                d.sol, d.euler.mu, w_series=[d.u0] * 4 + [bad], ns_cfg=NS2),
            "advection field sample 4"),
        "apply_inverse-forcing": (
            lambda d, bad: apply_inverse(d.op, [d.f] * 4 + [bad], d.u0, TestTimeData.CFG),
            "forcing sample 4"),
        "apply_inverse-u0": (
            lambda d, bad: apply_inverse(d.op, d.f, bad, TestTimeData.CFG), "initial datum"),
        "galerkin_convergence_study-u0": (
            lambda d, bad: galerkin_convergence_study(d.f, bad, TestTimeData.CFG, ms=(4,)),
            "initial datum"),
        "newton-forcing-cell": (
            lambda d, bad: newton_local_inverse([d.f, d.f, bad, d.f], d.u0, d.base, d.euler),
            "forcing cell 2"),
        "newton-forcing": (
            lambda d, bad: newton_local_inverse(bad, d.u0, d.base, d.euler), "forcing"),
        "newton-u0-target": (
            lambda d, bad: newton_local_inverse([d.f] * 4, bad, d.base, d.euler), "u0 target"),
        "newton-seed": (
            lambda d, bad: newton_local_inverse(
                [d.f] * 4, d.u0, d.base[:2] + [bad] + d.base[3:], d.euler), "seed state 2"),
        "discrete_forward_data-state": (
            lambda d, bad: discrete_forward_data(d.base[:2] + [bad] + d.base[3:], d.euler),
            "state 2"),
        "discrete_linearized_data-state": (
            lambda d, bad: discrete_linearized_data(
                d.base[:2] + [bad] + d.base[3:], d.base, d.euler), "state 2"),
        "discrete_linearized_data-direction": (
            lambda d, bad: discrete_linearized_data(
                d.base, d.base[:2] + [bad] + d.base[3:], d.euler), "direction 2"),
        "nonlinear_term": (
            lambda d, bad: nonlinear_term(bad, NS2), "nonlinear_term argument v"),
        "bilinear_term": (
            lambda d, bad: bilinear_term(d.u0, bad, NS2), "bilinear_term argument v"),
        "galerkin_project": (
            lambda d, bad: galerkin_project(d.basis, bad), "projected field"),
    }

    # A lone argument of nonlinear_term has no other grid to mismatch.
    @pytest.mark.parametrize("entry, bad", [
        pair for pair in product(ENTRIES, CORRUPTIONS) if pair != ("nonlinear_term", "grid")])
    def test_bad_field_named_before_any_kernel_call(self, monkeypatch, entry, bad):
        data = self._data()
        corrupt = self._corrupt(bad, data.f)
        call, name = self.ENTRIES[entry]
        calls = self._kernel_calls(monkeypatch)
        error = (FieldIntegrityError if bad in ("nan", "nan-off-plane", "hermitian")
                 else ValueError)
        with pytest.raises(error, match=name) as info:
            call(data, corrupt)
        assert type(info.value) is error
        assert calls == []

    @pytest.mark.parametrize("bad", CORRUPTIONS)
    def test_callable_value_named_when_drawn(self, bad):
        # A callable's value is checked when it is drawn, at the last state.
        data = self._data()
        corrupt = self._corrupt(bad, data.f)
        error = (FieldIntegrityError if bad in ("nan", "nan-off-plane", "hermitian")
                 else ValueError)
        with pytest.raises(error, match="forcing at t = 0.04") as info:
            solve_nonlinear(lambda t: corrupt if t > 0.035 else data.f, data.u0, self.CFG)
        assert type(info.value) is error

    @pytest.mark.parametrize("scheme", ["imex-euler", "imex-rk2"])
    def test_each_field_checked_once(self, monkeypatch, scheme):
        # u0 and 5 advection samples of 2 components: 12 Hermitian checks,
        # none for a drawn sample or a midpoint mean of two.
        data = self._data()
        checks, original = [], spectral_module._is_hermitian
        for module in (spectral_module, nonlinear_module, solver_module):
            monkeypatch.setattr(module, "_is_hermitian", raising=False,
                                value=lambda plane, tol: checks.append(1) or original(plane, tol))
        solve_linearized([data.u0] * 5, None, data.u0,
                         dataclasses.replace(self.CFG, scheme=scheme))
        assert len(checks) == 12


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
                            lambda *args, **kw: calls.append(1) or original(*args, **kw))
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

    def test_missing_nonlinearity_rejected_at_entry(self):
        # Two samples leave no interior sample to loop over; the check
        # still runs.
        cfg = SolverConfig(mu=0.2, T=5e-3, dt=5e-3, res=16)
        sol = solve_nonlinear(None, _two_band_state(G16), cfg, with_pressure=False)
        assert len(sol.u) == 2
        with pytest.raises(ValueError, match="nonlinearity config"):
            energy_identity_residual(sol, cfg.mu, nonlinear=True)
        with pytest.raises(ValueError, match="nonlinearity config"):
            energy_identity_residual(sol, cfg.mu, w_series=_two_band_state(G16))
        assert energy_identity_residual(sol, cfg.mu) == 0.0

    def test_lions_identity_residual_second_order(self):
        u0 = _two_band_state(G16)
        residuals = []
        for dt in (8e-3, 4e-3, 2e-3):
            cfg = SolverConfig(mu=0.2, T=0.16, dt=dt, res=16, scheme="imex-rk2")
            sol = solve_nonlinear(None, u0, cfg, with_pressure=False)
            residuals.append(lions_identity_residual(sol))
        assert observed_order(residuals) >= 1.9

    @pytest.mark.parametrize("diagnostic", [
        lambda sol, cfg: discrete_residual(sol, cfg),
        lambda sol, cfg: energy_identity_residual(sol, cfg.mu),
        lambda sol, cfg: lions_identity_residual(sol)],
        ids=["discrete", "energy", "lions"])
    def test_nan_sample_reads_nan(self, diagnostic):
        # One NaN coefficient in one sample: the worst residual is NaN, not
        # the largest finite one (the builtin max drops a NaN).
        cfg = SolverConfig(mu=0.1, T=0.04, dt=0.01, res=8)
        u0 = project_state(random_form(cfg.grid(), 1, np.random.default_rng(41)))
        sol = solve_nonlinear(None, u0, cfg)
        samples = list(sol.u)
        samples[2] = _nan_off_plane(samples[2])
        broken = dataclasses.replace(sol, u=samples)
        with np.errstate(invalid="ignore"):
            assert np.isnan(diagnostic(broken, cfg))

    @pytest.mark.parametrize("diagnostic", [
        lambda sol, cfg, w: discrete_residual(sol, cfg, nonlinear=True),
        lambda sol, cfg, w: discrete_residual(sol, cfg, w_series=w),
        lambda sol, cfg, w: energy_identity_residual(sol, cfg.mu, nonlinear=True,
                                                     ns_cfg=cfg.nonlinearity()),
        lambda sol, cfg, w: energy_identity_residual(sol, cfg.mu, w_series=w,
                                                     ns_cfg=cfg.nonlinearity())],
        ids=["discrete-nonlinear", "discrete-advection", "energy-nonlinear",
             "energy-advection"])
    def test_nan_sample_named_where_quadratic(self, diagnostic):
        # A sample that a quadratic term reads enters the kernel through the
        # entry check, which names it.
        cfg = SolverConfig(mu=0.1, T=0.04, dt=0.01, res=8)
        u0 = project_state(random_form(cfg.grid(), 1, np.random.default_rng(41)))
        sol = solve_nonlinear(None, u0, cfg)
        samples = list(sol.u)
        samples[2] = _nan_off_plane(samples[2])
        broken = dataclasses.replace(sol, u=samples)
        with pytest.raises(FieldIntegrityError, match="trajectory sample 2") as info:
            diagnostic(broken, cfg, u0)
        assert type(info.value) is FieldIntegrityError

    def test_lions_needs_cached_derivative(self):
        cfg = SolverConfig(mu=0.2, T=0.1, dt=5e-3, res=16)
        sol = solve_nonlinear(None, _two_band_state(G16), cfg,
                              derivatives=0, with_pressure=False)
        with pytest.raises(ValueError, match="derivative"):
            lions_identity_residual(sol)


@lru_cache(maxsize=None)
def _linearized_case(basis_name, w_kind):
    """A basis, data (w, f, u0) and the dense Galerkin matrices C(t)[k, j] =
    mu lam_k delta_kj + (B(w(t), b_k), b_j) of a linearized problem, the
    matrices built field by field with bilinear_term.  In the "curved" case
    w and f vary as sin(40 t), so a midpoint value differs from the mean of
    its neighbours: the reference takes both on the time grid."""
    grid = SpectralGrid(3, 8) if basis_name == "t3-full" else G16
    rng = np.random.default_rng(31)
    basis = build_basis(grid, 1, 40 if basis_name == "t2-m40" else None)
    if basis_name == "t2-reordered":
        basis = basis.reordered(rng.permutation(basis.m))
    cfg = SolverConfig(mu=0.3, T=0.02, dt=5e-3, res=grid.res, n=grid.n)
    wa, wb, fa, fb, u0 = (project_state(random_form(grid, 1, rng)) for _ in range(5))
    times = cfg.times()
    shape = (lambda t: float(np.sin(40.0 * t))) if w_kind == "curved" else (lambda t: t)
    w = {"none": None, "constant": wa,
         "list": [project_state(random_form(grid, 1, rng)) for _ in times]}.get(
             w_kind, lambda t: wa + wb * shape(t))  # "callable" and "curved"
    if callable(w):
        samples = [w(float(t)) for t in times]
    else:
        samples = w if w_kind == "list" else [w] * len(times)
    ns, fields = NS[grid.n], basis.fields
    rows = {}
    mats = []
    for wj in samples:
        if id(wj) not in rows:
            rows[id(wj)] = (np.zeros((basis.m, basis.m)) if wj is None else np.array(
                [galerkin_project(basis, bilinear_term(wj, b, ns)) for b in fields]))
        mats.append(cfg.mu * np.diag(basis.eigenvalues) + rows[id(wj)])
    return basis, cfg, w, (lambda t: fa + fb * shape(t)), u0, mats


def _dense_inverse(basis, cfg, f, u0, mats):
    """apply_inverse by the dense matrices, with a Lawson loop of its own:
    exp(-mu tau lam) on the coefficients, the explicit part mat.T @ g, and
    the forcing and the matrices averaged at the rk2 midpoint."""
    times, dt = cfg.times(), cfg.T / cfg.steps
    fvec = np.array([galerkin_project(basis, f(float(t))) for t in times])
    expl = [mat - cfg.mu * np.diag(basis.eigenvalues) for mat in mats]

    def decay(g, tau):
        return g * np.exp(-cfg.mu * tau * basis.eigenvalues)

    def rhs(j, midpoint, g):
        if midpoint:
            return 0.5 * (fvec[j] + fvec[j + 1]) - (0.5 * (expl[j] + expl[j + 1])).T @ g
        return fvec[j] - expl[j].T @ g

    g = galerkin_project(basis, u0)
    g_states = [g]
    for j in range(cfg.steps):
        if cfg.scheme == "imex-euler":
            g = decay(g + rhs(j, False, g) * dt, dt)
        else:
            mid = decay(g + rhs(j, False, g) * (0.5 * dt), 0.5 * dt)
            g = decay(g, dt) + decay(rhs(j, True, mid), 0.5 * dt) * dt
        g_states.append(g)
    return ([basis.synthesize(g) for g in g_states],
            [basis.synthesize(fvec[i] - mats[i].T @ g) for i, g in enumerate(g_states)])


def _assert_close_states(got, expected, rel):
    """Physical samples within rel of the largest expected sample."""
    assert len(got) == len(expected)
    scale = max(np.max(np.abs(to_physical(b))) for b in expected)
    for a, b in zip(got, expected):
        assert np.max(np.abs(np.array(to_physical(a)) - to_physical(b))) <= rel * scale


class TestLinearizedOperator:
    """The operator holds w's samples, not matrices; apply_inverse applies
    C(t)^T through the kernel and agrees with the dense matrices."""

    @pytest.mark.parametrize("basis_name", ["t2-full", "t2-m40", "t2-reordered", "t3-full"])
    @pytest.mark.parametrize("w_kind", ["none", "constant", "list", "callable", "curved"])
    @pytest.mark.parametrize("scheme", ["imex-euler", "imex-rk2"])
    def test_matches_dense_galerkin_matrices(self, basis_name, w_kind, scheme):
        basis, cfg, w, f, u0, mats = _linearized_case(basis_name, w_kind)
        cfg = dataclasses.replace(cfg, scheme=scheme)
        op = assemble_linearized(w, cfg.mu, basis, cfg.times(), NS[basis.grid.n])
        sol = apply_inverse(op, f, u0, cfg)
        u, dt1 = _dense_inverse(basis, cfg, f, u0, mats)
        _assert_close_states(sol.u, u, 1e-14)
        _assert_close_states(sol.dt_cache[1], dt1, 1e-14)

    @pytest.mark.parametrize("w_kind", ["none", "constant", "list"])
    @pytest.mark.parametrize("scheme", ["imex-euler", "imex-rk2"])
    def test_one_kernel_call_per_stage_and_sample(self, monkeypatch, w_kind, scheme):
        basis, cfg, w, f, u0, _ = _linearized_case("t2-m40", w_kind)
        cfg = dataclasses.replace(cfg, scheme=scheme)
        grid_passes, products, gathers = [], [], []
        on_grid, bilinear = nonlinear_module._on_grid, solver_module.bilinear_term
        monkeypatch.setattr(nonlinear_module, "_on_grid",
                            lambda *args: grid_passes.append(1) or on_grid(*args))
        monkeypatch.setattr(solver_module, "bilinear_term",
                            lambda *args, **kw: products.append(1) or bilinear(*args, **kw))
        original = GalerkinBasis._scatter
        monkeypatch.setattr(GalerkinBasis, "_scatter", lambda self, *args: (
            gathers.append("_scatter") or original(self, *args)))
        op = assemble_linearized(w, cfg.mu, basis, cfg.times(), NS2)
        assert grid_passes == [] and products == []
        apply_inverse(op, f, u0, cfg, store_every=2)
        # The state stays in the band half: P_m is applied there, with no
        # scatter of coefficients and no gather.
        assert gathers == []
        # The stored samples reuse their stages' products; the final state
        # takes one more.
        stages = cfg.steps * (1 if scheme == "imex-euler" else 2)
        expected = 0 if w_kind == "none" else stages + 1
        assert len(products) == expected
        # Each state goes on the grid once per product, each w sample at most
        # once (a constant w once), and each rk2 midpoint mean of two
        # different samples once.
        samples = {"none": 0, "constant": 1, "list": cfg.steps + 1}[w_kind]
        midpoints = cfg.steps if w_kind == "list" and scheme == "imex-rk2" else 0
        assert len(grid_passes) == expected + samples + midpoints

    def test_full_3d_res32_band_in_bounded_memory(self):
        # A dense sample of C(t) would take 2.7 GB here (m = 18520).
        grid = SpectralGrid(3, 32)
        rng = np.random.default_rng(37)
        w, u0 = (project_state(random_form(grid, 1, rng, kmax=4)) for _ in range(2))
        cfg = SolverConfig(mu=0.1, T=2e-3, dt=1e-3, res=32, n=3)
        tracemalloc.start()
        try:
            basis = build_basis(grid, 1)
            op = assemble_linearized(w, cfg.mu, basis, cfg.times(), NS[3])
            sol = apply_inverse(op, None, u0, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert basis.m == 18520
        assert peak < 2**30
        assert all(np.all(np.isfinite(c)) for u in sol.u for c in u.components)

    @pytest.mark.parametrize("preset", ["zero", "navier-stokes-i1"])
    @pytest.mark.parametrize("form", ["constant", "list", "callable"])
    @pytest.mark.parametrize("bad", ["degree", "grid"])
    def test_every_advection_sample_checked_at_entry(self, preset, form, bad):
        ns = get_preset(preset, 2, 1)
        times = np.linspace(0.0, 0.1, 3)
        good = project_state(random_form(G16, 1, np.random.default_rng(43)))
        wrong = (FormField.zeros(G16, 0) if bad == "degree"
                 else FormField.zeros(SpectralGrid(2, 32), 1))
        w = {"constant": wrong, "list": [good, good, wrong],
             "callable": lambda t: wrong if t > 0.05 else good}[form]
        with pytest.raises(ValueError, match="does not match"):
            assemble_linearized(w, 0.3, build_basis(G16, 1), times, ns)


class TestApplyInverse:
    def _data(self, rng_seed=3, kmax=3):
        rng = np.random.default_rng(rng_seed)
        w = project_state(random_form(G16, 1, rng, kmax=kmax))
        f = project_state(random_form(G16, 1, rng, kmax=kmax))
        u0 = project_state(random_form(G16, 1, rng, kmax=kmax))
        return w, f, u0

    def test_exact_part_left_out_only_for_a_coclosed_basis(self, monkeypatch):
        # P_m kills d M2 as far as its fibres are divergence-free, so a basis
        # tilted by 1e-11 is rejected at construction, and the Galerkin solve
        # of a build_basis basis leaves the exact part out.
        w, f, u0 = self._data()
        cfg = SolverConfig(mu=0.2, T=0.02, dt=5e-3, res=16)
        exact = build_basis(G16, 1, 24)
        tilted = exact.fibres + 1e-11 * exact.modes / np.sqrt(exact.eigenvalues)[:, None]
        tilted /= np.linalg.norm(tilted, axis=1)[:, None]
        with pytest.raises(ValueError, match="field 0: .* not divergence-free at its mode"):
            GalerkinBasis(G16, 1, exact.modes, tilted, exact.sine)
        modes, original = [], solver_module.bilinear_term
        monkeypatch.setattr(solver_module, "bilinear_term", lambda *args, exact="add": (
            modes.append(exact) or original(*args, exact=exact)))
        apply_inverse(assemble_linearized(w, cfg.mu, exact, cfg.times(), NS2), f, u0, cfg)
        assert set(modes) == {"drop"}

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
        with pytest.raises(SolverDivergenceError, match="trajectory norm exceeded"):
            apply_inverse(op, huge, FormField.zeros(G16, 1), cfg)

    def test_non_hermitian_data_rejected(self):
        # One unpaired in-band mode: the basis coefficients are read from
        # the band halves after the same check the field solvers make.
        cfg = SolverConfig(mu=0.2, T=0.1, dt=0.05, res=16)
        op = assemble_linearized(None, cfg.mu, build_basis(G16, 1, 8), cfg.times(), NS2)
        broken = _non_hermitian(FormField.zeros(G16, 1))
        with pytest.raises(FieldIntegrityError, match="Hermitian"):
            apply_inverse(op, None, broken, cfg)
        with pytest.raises(FieldIntegrityError, match="Hermitian"):
            apply_inverse(op, broken, FormField.zeros(G16, 1), cfg)
        with pytest.raises(FieldIntegrityError, match="Hermitian"):
            galerkin_convergence_study(broken, _two_band_state(G16), cfg, ms=(8,))

    MISMATCHES = {
        "u0-grid": lambda op, cfg, f, u0, far: apply_inverse(op, f, far, cfg),
        "forcing-grid": lambda op, cfg, f, u0, far: apply_inverse(op, far, u0, cfg),
        "cfg-grid": lambda op, cfg, f, u0, far: apply_inverse(
            op, f, u0, dataclasses.replace(cfg, res=32)),
        "cfg-dimension": lambda op, cfg, f, u0, far: apply_inverse(
            op, f, u0, dataclasses.replace(cfg, n=3)),
        "cfg-mu": lambda op, cfg, f, u0, far: apply_inverse(
            op, f, u0, dataclasses.replace(cfg, mu=5.0)),
        "cfg-preset": lambda op, cfg, f, u0, far: apply_inverse(
            op, f, u0, dataclasses.replace(cfg, preset="zero")),
        "cfg-degree": lambda op, cfg, f, u0, far: apply_inverse(
            op, f, u0, dataclasses.replace(cfg, preset="zero", degree=2)),
        "project-grid": lambda op, cfg, f, u0, far: galerkin_project(op.basis, far),
        "project-degree": lambda op, cfg, f, u0, far: galerkin_project(
            op.basis, FormField.zeros(G16, 0)),
        "study-forcing-grid": lambda op, cfg, f, u0, far: galerkin_convergence_study(
            far, u0, cfg, ms=(8,)),
        "study-u0-grid": lambda op, cfg, f, u0, far: galerkin_convergence_study(
            f, far, cfg, ms=(8,)),
        "study-u0-degree": lambda op, cfg, f, u0, far: galerkin_convergence_study(
            f, FormField.zeros(G16, 0), cfg, ms=(8,)),
    }

    @pytest.mark.parametrize("case", list(MISMATCHES))
    def test_mismatched_input_rejected(self, case):
        # Coefficients of a field on another grid or of another degree mean
        # nothing, and the operator's mu is the one the solve would use.
        w, f, u0 = self._data()
        cfg = SolverConfig(mu=0.2, T=0.1, dt=0.05, res=16)
        op = assemble_linearized(w, cfg.mu, build_basis(G16, 1, 8), cfg.times(), NS2)
        far = project_state(random_form(SpectralGrid(2, 32), 1, np.random.default_rng(3),
                                        kmax=3))
        with pytest.raises(ValueError, match="does not match"):
            self.MISMATCHES[case](op, cfg, f, u0, far)

    def test_custom_nonlinearity_checks_only_the_degree(self):
        # A custom nonlinearity has no preset name to hold cfg.preset to; the
        # solve uses the operator's nonlinearity whatever cfg.preset says.
        w, f, u0 = self._data()
        cfg = SolverConfig(mu=0.2, T=0.1, dt=0.05, res=16)
        basis = build_basis(G16, 1, 8)
        custom = dataclasses.replace(NS2, tag="custom")
        op = assemble_linearized(w, cfg.mu, basis, cfg.times(), custom)
        got = apply_inverse(op, f, u0, dataclasses.replace(cfg, preset="zero"))
        expected = apply_inverse(assemble_linearized(w, cfg.mu, basis, cfg.times(), NS2),
                                 f, u0, cfg)
        _assert_same_states(got.u, expected.u)
        with pytest.raises(ValueError, match="degree 0 does not match"):
            apply_inverse(op, f, u0, dataclasses.replace(cfg, preset="zero", degree=0))

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


def _scaled(u: FormField, mult: np.ndarray) -> FormField:
    return FormField(u.grid, u.degree, tuple(c * mult for c in u.components))


def _reference_cells(states, quads, cfg):
    """The discrete map's cells on full fields: exp(mu dt |k|^2) on the
    whole grid and project_state."""
    dt = cfg.T / cfg.steps
    inv = np.exp(cfg.mu * dt * states[0].grid.k_squared)
    return [(_scaled(states[j + 1], inv) - states[j]) * (1.0 / dt) + project_state(q)
            for j, q in enumerate(quads)]


def _reference_newton(f_cells, u0, states, cfg, exact="add"):
    """Newton on full fields, from projected forcing cells and u0: forward
    substitution with the full-grid decay, then the final pass.  Every Q
    under P comes from the kernel's ``exact`` mode, the pressures from the
    full Q."""
    ns = cfg.nonlinearity()
    dt = cfg.T / cfg.steps
    dec = np.exp(-cfg.mu * dt * states[0].grid.k_squared)
    history = []
    while True:
        quads = [nonlinear_term(u, ns, exact=exact) for u in states[:-1]]
        r_cells = [f - c for f, c in zip(f_cells, _reference_cells(states, quads, cfg))]
        r0 = u0 - states[0]
        history.append(max(l2_norm(r) for r in r_cells + [r0]))
        if history[-1] <= cfg.newton_tol or len(history) > cfg.newton_max_iter:
            break
        delta = [r0]
        for j in range(cfg.steps):
            explicit = r_cells[j] - project_state(
                bilinear_term(states[j], delta[j], ns, exact=exact))
            delta.append(_scaled(delta[j] + explicit * dt, dec))
        states = [u + d for u, d in zip(states, delta)]
    quads.append(nonlinear_term(states[-1], ns, exact=exact))
    p, dt1 = [], []
    for j, (u, q) in enumerate(zip(states, quads)):
        f = f_cells[min(j, cfg.steps - 1)]
        p.append(_reference_pressure(f - nonlinear_term(u, ns)))
        dt1.append(hodge_laplacian(u) * (-cfg.mu) - project_state(q) + f)
    return states, p, dt1, history


class TestNewtonBandHalfState:
    GRIDS = [G16, SpectralGrid(3, 8)]

    @staticmethod
    def _data(grid):
        """An euler trajectory, its forcing cells, a bumped seed and a unit
        direction, all band-limited."""
        cfg = SolverConfig(mu=0.1, T=8e-3, dt=2e-3, res=grid.res, n=grid.n,
                           scheme="imex-euler")
        rng = np.random.default_rng(41)
        u0 = project_state(random_form(grid, 1, rng, kmax=grid.res / 3)) * 2.0
        base = solve_nonlinear(None, u0, cfg, derivatives=0, with_pressure=False)
        f_cells, _ = discrete_forward_data(base.u, cfg)
        unit = [project_state(random_form(grid, 1, rng, kmax=2, mean_free=True))
                for _ in range(2)]
        bump, direction = (v * (1.0 / l2_norm(v)) for v in unit)
        return cfg, base, f_cells, [u + bump * 1e-3 for u in base.u], direction

    @pytest.mark.parametrize("grid", GRIDS)
    def test_discrete_maps_match_full_field_reference(self, grid):
        cfg, base, _, seed, _ = self._data(grid)
        ns = cfg.nonlinearity()
        # The cells leave out the exact part of Q, which P kills: the
        # reference on Q1 agrees bit for bit, the reference on Q to rounding
        # of Q.
        def check(cells, head, quads):
            refs = {exact: _reference_cells(seed, [q(exact=exact) for q in quads], cfg)
                    for exact in ("drop", "add")}
            _assert_same_states(cells + [head], refs["drop"] + [seed[0]])
            scale = max(l2_norm(q()) for q in quads)
            assert max(l2_norm(a - b) for a, b in zip(cells, refs["add"])) <= 1e-14 * scale

        check(*discrete_forward_data(seed, cfg),
              [partial(nonlinear_term, u, ns) for u in seed[:-1]])
        check(*discrete_linearized_data(base.u, seed, cfg),
              [partial(bilinear_term, u, v, ns) for u, v in zip(base.u, seed[:-1])])

    @pytest.mark.parametrize("grid", GRIDS)
    @pytest.mark.parametrize("forcing", ["cells", "one", "none"])
    def test_newton_matches_full_field_reference(self, grid, forcing):
        cfg, base, f_cells, seed, direction = self._data(grid)
        if forcing == "cells":
            target = [c + direction * 1e-2 for c in f_cells]
            ref_cells = [project_state(c) for c in target]
        elif forcing == "one":
            target = f_cells[0] + direction * 1e-2
            ref_cells = [project_state(target)] * cfg.steps
        else:
            target, ref_cells = None, [FormField.zeros(grid, 1)] * cfg.steps
        result = newton_local_inverse(target, base.u[0], seed, cfg)
        # Newton's Q under P leaves out the exact part: bit for bit the
        # reference on Q1, to rounding the reference on Q.
        full = _reference_newton(ref_cells, project_state(base.u[0]), seed, cfg)[0]
        _assert_close_states(result.solution.u, full, 1e-14)
        u, p, dt1, history = _reference_newton(
            ref_cells, project_state(base.u[0]), seed, cfg, exact="drop")
        _assert_same_states(result.solution.u, u)
        _assert_close_states(result.solution.p, p, 1e-14)
        _assert_close_states(result.solution.dt_cache[1], dt1, 1e-14)
        assert len(result.residual_history) == len(history) > 1
        worst = max(abs(a - b) for a, b in zip(result.residual_history, history))
        assert worst <= 1e-14 * history[0]


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

    @pytest.mark.parametrize("scale", [1e60, 1e200])
    def test_non_finite_result_never_converged(self, scale):
        # Finite targets so large that N overflows: a residual that is not
        # finite ends the iteration unconverged, and non-finite states never
        # come with a finite last residual.  The builtin max dropped a NaN
        # that was not first and reported 1e200 converged with residual 0.
        cfg = SolverConfig(mu=0.1, T=8e-3, dt=2e-3, res=8, scheme="imex-euler")
        base = solve_nonlinear(None, _taylor_green(cfg.grid()), cfg,
                               derivatives=0, with_pressure=False)
        f_cells, head = discrete_forward_data(base.u, cfg)
        with np.errstate(over="ignore", invalid="ignore"):
            result = newton_local_inverse([c * scale for c in f_cells], head, base, cfg)
        finite = all(np.all(np.isfinite(c)) for u in result.solution.u for c in u.components)
        assert not result.converged
        assert finite or not np.isfinite(result.residual_history[-1])

    def test_huge_finite_targets_have_a_finite_first_residual(self):
        # Coefficients of 1e200 square to inf: the residual norm rescales
        # by the largest modulus instead of reading inf - inf = NaN.
        cfg = SolverConfig(mu=0.1, T=8e-3, dt=2e-3, res=8, scheme="imex-euler")
        base = solve_nonlinear(None, _taylor_green(cfg.grid()), cfg,
                               derivatives=0, with_pressure=False)
        f_cells, head = discrete_forward_data(base.u, cfg)
        with np.errstate(over="ignore", invalid="ignore"):
            result = newton_local_inverse([c * 1e200 for c in f_cells], head, base, cfg)
        first = result.residual_history[0]
        assert np.isfinite(first)
        assert abs(first - 1e200 * max(l2_norm(c) for c in f_cells)) <= 1e-12 * first

    def test_final_pass_reuses_the_last_residual(self, monkeypatch):
        # Three residuals, each one batched pass of Q1 = M1(d u, u) over
        # the steps states that start a cell, then Q1 and M2 at the last
        # state only: the last residual has Q1 at every other final state,
        # and the pressures take M2 there in one more batched pass.
        cfg, base, f_cells = self._base(steps=4)
        rng = np.random.default_rng(9)
        bump = project_state(random_form(G16, 1, rng, kmax=2, mean_free=True))
        seed = [u + bump * (1e-3 / l2_norm(bump)) for u in base.u]
        passes = _kernel_passes(monkeypatch)
        result = newton_local_inverse(f_cells, base.u[0], seed, cfg)
        assert result.iterations == 2
        residual, solve = (1, "drop", cfg.steps), [(2, "drop", 1)] * cfg.steps
        assert passes == ([residual] + solve) * 2 + [residual, (1, "apart", 1),
                                                     (1, "only", cfg.steps)]

    def test_one_grid_pass_per_iterate(self, monkeypatch):
        # 3 residuals put 4 u_j each on the grid in one batched pass, and
        # the final pass N at the last state: 13 iterates in 4 passes; the
        # 2 solves reuse u_j and transform only delta_j: 8.  Transforming
        # u_j again for B(u_j, delta_j) would make 29 states.
        cfg, base, f_cells = self._base(steps=4)
        rng = np.random.default_rng(9)
        bump = project_state(random_form(G16, 1, rng, kmax=2, mean_free=True))
        seed = [u + bump * (1e-3 / l2_norm(bump)) for u in base.u]
        states = []
        original = nonlinear_module._on_grid

        def counted(cfg, grid, halves):
            states.append(halves[0].shape[0] if np.ndim(halves[0]) > grid.n else 1)
            return original(cfg, grid, halves)

        monkeypatch.setattr(nonlinear_module, "_on_grid", counted)
        result = newton_local_inverse(f_cells, base.u[0], seed, cfg)
        assert result.iterations == 2
        assert len(states) == 12 and sum(states) == 21

    @pytest.mark.parametrize("broken", ["cell", "one", "u0"])
    def test_non_hermitian_data_rejected_before_stepping(self, monkeypatch, broken):
        def never(*args, **kwargs):
            raise AssertionError("stepping started")

        cfg, base, f_cells = self._base(steps=4)
        monkeypatch.setattr(nonlinear_module, "_quadratic", never)
        u0, target = base.u[0], list(f_cells)
        if broken == "cell":
            target[1] = _non_hermitian(target[1])
        elif broken == "one":
            target = _non_hermitian(target[0])
        else:
            u0 = _non_hermitian(u0)
        with pytest.raises(FieldIntegrityError, match="Hermitian"):
            newton_local_inverse(target, u0, base, cfg)

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

    def test_callable_forcing_drawn_once_for_every_m(self):
        # The study samples a callable forcing on the time grid once and
        # solves every truncation with those samples.
        u0 = _two_band_state(G16)
        f = project_state(random_form(G16, 1, np.random.default_rng(11), kmax=3))
        drawn = []

        def forcing(t):
            drawn.append(t)
            return f * float(np.cos(3.0 * t))

        cfg = SolverConfig(mu=0.2, T=0.02, dt=5e-3, res=16)
        study = galerkin_convergence_study(forcing, u0, cfg, ms=(8, 16, 32))
        assert len(drawn) == len(cfg.times())
        sampled = galerkin_convergence_study(
            [forcing(float(t)) for t in cfg.times()], u0, cfg, ms=(8, 16, 32))
        assert np.array_equal(study.bounded_quantities, sampled.bounded_quantities)
        assert np.array_equal(study.cauchy_differences, sampled.cauchy_differences)


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
        assert lines[1:] == [
            f"{float(t)!r},u_{j:05d}.hpform,{l2_norm(u) ** 2!r},"
            f"{l2_norm(fractional_power(u, 1)) ** 2!r}"
            for j, (t, u) in enumerate(zip(sol.times, sol.u))]
        assert lines[1].startswith("0.0,u_00000.hpform,")

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


    @staticmethod
    def _run(tmp_path):
        """A saved T^2 res-16 run of 3 samples without pressures."""
        cfg = SolverConfig(mu=0.1, T=0.1, dt=0.05, res=16)
        sol = solve_nonlinear(None, _taylor_green(G16), cfg, with_pressure=False)
        save_solution(sol, tmp_path / "run")
        return tmp_path / "run"

    def test_empty_manifest_rejected(self, tmp_path):
        run = self._run(tmp_path)
        (run / "manifest.csv").write_text("")
        with pytest.raises(ValueError, match="manifest columns .* in header row 0"):
            load_solution(run)

    def test_row_without_file_rejected(self, tmp_path):
        run = self._run(tmp_path)
        manifest = run / "manifest.csv"
        lines = manifest.read_text().splitlines()
        lines[2] = lines[2].split(",")[0]
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="manifest row 2: file None is not a bare"):
            load_solution(run)

    def test_non_numeric_manifest_time_rejected(self, tmp_path):
        run = self._run(tmp_path)
        manifest = run / "manifest.csv"
        lines = manifest.read_text().splitlines()
        lines[3] = "abc," + lines[3].split(",", 1)[1]
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="manifest row 3: t 'abc' is not a number"):
            load_solution(run)

    @pytest.mark.parametrize("snapshot, grid, degree", [
        ("u", SpectralGrid(2, 8), 1), ("u", G16, 2), ("p", SpectralGrid(3, 16), 0),
    ])
    def test_snapshot_on_another_grid_rejected(self, tmp_path, snapshot, grid, degree):
        # Such a run loaded and then failed inside bochner_norm with a
        # broadcast error.
        cfg = SolverConfig(mu=0.1, T=0.1, dt=0.05, res=16)
        save_solution(solve_nonlinear(None, _taylor_green(G16), cfg), tmp_path / "run")
        stray = random_form(grid, degree, np.random.default_rng(53))
        save_field(stray, tmp_path / "run" / f"{snapshot}_00001.hpform")
        with pytest.raises(ValueError, match=re.escape(
                f"{snapshot}[1] is a field of degree {degree} on {grid}")):
            load_solution(tmp_path / "run")

    def test_non_finite_manifest_time_rejected(self, tmp_path):
        manifest = self._run(tmp_path) / "manifest.csv"
        lines = manifest.read_text().splitlines()
        lines[2] = "nan," + lines[2].split(",", 1)[1]
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="sample times must be finite"):
            load_solution(tmp_path / "run")


class TestWriteCSV:
    def test_float_cells_round_trip_exactly(self, tmp_path):
        values = [0.1, 1 / 3, np.float64(2 / 3), np.float64(-1e-300), 5e-324,
                  math.inf, -np.inf, math.nan, np.float64(np.nan)]
        path = write_csv(tmp_path / "x.csv", ("i", "value"), enumerate(values))
        lines = path.read_text().splitlines()
        assert lines[0] == "i,value"
        for j, (line, x) in enumerate(zip(lines[1:], values, strict=True)):
            key, cell = line.split(",")
            assert key == str(j) and cell == repr(float(x))
            back = float(cell)
            assert (math.isnan(back) and math.isnan(x)) or back == x

    def test_other_cells_by_str_and_parents_made(self, tmp_path):
        path = write_csv(tmp_path / "a" / "b" / "x.csv", ["name", "k", "n"],
                         [("energy", 3, np.int64(-4)), ("grad-energy", 0, True)])
        assert path == tmp_path / "a" / "b" / "x.csv"
        assert path.read_bytes() == (b"name,k,n\r\nenergy,3,-4\r\n"
                                     b"grad-energy,0,True\r\n")


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
