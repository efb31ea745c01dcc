"""Tests for the quadratic nonlinearity and its polarization.

The headline oracle is an 8th-order finite-difference evaluation of the
convective term on band-limited velocities, fully independent of the
package's FFT pipeline.  Algebraic identities (homogeneity, polarization,
the exact quadratic expansion) are checked to rounding because the
implementation evaluates both sides through the same dealiased products.
"""

import types
from functools import partial
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import torusforms.nonlinear as nonlinear_module
import torusforms.solver as solver_module
import torusforms.spectral as spectral_module

from oracles import convective_term_fd, quadrature_inner
from torusforms.hodge import helmholtz_project
from torusforms.nonlinear import (
    BandHalves,
    BilinearMap,
    ContinuityReport,
    NonlinearityConfig,
    bilinear_term,
    checked_state,
    continuity_bound_survey,
    convective_term,
    get_preset,
    half_dot_map,
    interior_product_map,
    navier_stokes_config,
    nonlinear_term,
    zero_config,
)
from torusforms.solver import (
    SolverConfig,
    _band_projection,
    _half_norm,
    apply_inverse,
    assemble_linearized,
    build_basis,
    project_state,
    solve_nonlinear,
)
from torusforms.spectral import (
    TWO_PI,
    FieldIntegrityError,
    FormField,
    SpectralGrid,
    _apply_d,
    dealias,
    exterior_derivative,
    inner_product,
    l2_norm,
    random_form,
    resample,
    to_physical,
)
from torusforms.verify import gn_ratio_survey

G2 = SpectralGrid(2, 32)
G3 = SpectralGrid(3, 16)


def _ns(grid: SpectralGrid) -> NonlinearityConfig:
    return navier_stokes_config(grid.n)


def _state(u: FormField, keep: bool = False) -> BandHalves:
    """u's band-half state, through the entry check against its own grid
    and degree."""
    return checked_state(u, u.grid, u.degree, "field", keep)


def _pair(grid: SpectralGrid, seed: int, kmax: float | None = None):
    rng = np.random.default_rng(seed)
    kwargs = {"kmax": kmax} if kmax is not None else {}
    w = random_form(grid, 1, rng, **kwargs)
    v = random_form(grid, 1, rng, **kwargs)
    return w, v


class TestBilinearMap:
    def test_tensor_shape_validated(self):
        with pytest.raises(ValueError, match="tensor shape"):
            BilinearMap(2, 1, 1, 0, np.zeros((2, 2, 2)))

    def test_interior_product_fibre_values(self):
        # On T^3: contracting dx1^dx2 with e1 leaves dx2.
        m = interior_product_map(3)
        omega = np.array([1.0, 0.0, 0.0])  # pairs (0,1), (0,2), (1,2)
        e1 = np.array([1.0, 0.0, 0.0])
        out = m.apply_fibre(omega, e1)
        assert np.allclose(out, [0.0, 1.0, 0.0])
        # and with e2 leaves -dx1
        e2 = np.array([0.0, 1.0, 0.0])
        assert np.allclose(m.apply_fibre(omega, e2), [-1.0, 0.0, 0.0])

    def test_operator_norms(self):
        # Values of the flattened spectral norm; an upper bound for the
        # fibre map, not claimed sharp (the 3d interior product peaks at 1
        # on rank-one inputs but flattens to sqrt(2)).
        assert interior_product_map(2).operator_norm == pytest.approx(1.0)
        assert interior_product_map(3).operator_norm == pytest.approx(np.sqrt(2))
        # Half dot product flattens to a single column of n entries 0.5.
        assert half_dot_map(2).operator_norm == pytest.approx(0.5 * np.sqrt(2))
        assert half_dot_map(3).operator_norm == pytest.approx(0.5 * np.sqrt(3))

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_pointwise_bound(self, seed):
        # |M(a, b)| <= operator_norm * |a| |b| on raw fibre vectors.
        rng = np.random.default_rng(seed)
        for m in (interior_product_map(3), half_dot_map(3),
                  interior_product_map(2)):
            a = rng.standard_normal(m.tensor.shape[0])
            b = rng.standard_normal(m.tensor.shape[1])
            lhs = np.linalg.norm(m.apply_fibre(a, b))
            rhs = m.operator_norm * np.linalg.norm(a) * np.linalg.norm(b)
            assert lhs <= rhs * (1 + 1e-12)


class TestPresets:
    def test_navier_stokes_degrees(self):
        cfg = get_preset("navier-stokes-i1", 3)
        assert cfg.degree == 1 and cfg.tag == "navier-stokes-i1"
        assert (cfg.m1.degree_first, cfg.m1.degree_second, cfg.m1.degree_out) == (2, 1, 1)
        assert (cfg.m2.degree_first, cfg.m2.degree_second, cfg.m2.degree_out) == (1, 1, 0)

    def test_zero_preset(self):
        cfg = get_preset("zero", 2, degree=1)
        assert cfg.is_zero

    def test_custom_config_from_building_blocks(self):
        # The preset's two maps, assembled by hand, give its N bit for bit.
        cfg = NonlinearityConfig(degree=1, m1=interior_product_map(2),
                                 m2=half_dot_map(2))
        u, _ = _pair(G2, 61)
        gap = l2_norm(nonlinear_term(u, cfg) - nonlinear_term(u, _ns(G2)))
        assert gap == 0.0

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="unknown nonlinearity preset"):
            get_preset("burgers", 2)

    def test_navier_stokes_needs_degree_one(self):
        with pytest.raises(ValueError, match="degree-1"):
            get_preset("navier-stokes-i1", 2, degree=0)

    def test_incompatible_map_degrees_rejected(self):
        with pytest.raises(ValueError, match="m1 degrees"):
            NonlinearityConfig(degree=0, m1=interior_product_map(2))
        with pytest.raises(ValueError, match="m2 needs degree"):
            NonlinearityConfig(degree=0, m2=half_dot_map(2))


class TestNonlinearTerm:
    def test_matches_finite_difference_oracle_2d(self):
        # Band-limited velocity on a fine grid: the 8th-order stencil on
        # 128^2 resolves modes up to |k|=3 to ~1e-9 relative error.
        grid = SpectralGrid(2, 128)
        rng = np.random.default_rng(11)
        u = random_form(grid, 1, rng, kmax=3.0)
        spacing = TWO_PI / grid.res
        oracle = convective_term_fd(to_physical(u), spacing)
        ours = to_physical(nonlinear_term(u, _ns(grid)))
        scale = max(float(np.max(np.abs(o))) for o in oracle)
        err = max(float(np.max(np.abs(a - b))) for a, b in zip(ours, oracle))
        assert err <= 1e-7 * scale

    def test_matches_finite_difference_oracle_3d(self):
        grid = SpectralGrid(3, 48)
        rng = np.random.default_rng(12)
        u = random_form(grid, 1, rng, kmax=3.0)
        spacing = TWO_PI / grid.res
        oracle = convective_term_fd(to_physical(u), spacing)
        ours = to_physical(nonlinear_term(u, _ns(grid)))
        scale = max(float(np.max(np.abs(o))) for o in oracle)
        err = max(float(np.max(np.abs(a - b))) for a, b in zip(ours, oracle))
        assert err <= 1e-4 * scale

    @pytest.mark.parametrize("grid", [G2, G3])
    def test_equals_convective_form(self, grid):
        # iota_u(du) + d(|u|^2/2) = (u . grad) u for every velocity, not
        # just divergence-free ones; both pipelines dealias identically.
        u, _ = _pair(grid, 21)
        gap = l2_norm(nonlinear_term(u, _ns(grid)) - convective_term(u, u))
        assert gap <= 1e-13 * max(l2_norm(u) ** 2, 1.0)

    @pytest.mark.parametrize("grid", [G2, G3])
    def test_quadratic_homogeneity(self, grid):
        v, _ = _pair(grid, 3)
        cfg = _ns(grid)
        gap = l2_norm(nonlinear_term(v * 3.0, cfg) - nonlinear_term(v, cfg) * 9.0)
        assert gap <= 1e-12 * max(l2_norm(nonlinear_term(v, cfg)), 1.0)

    def test_vanishes_on_constants(self):
        comps = [np.full(G2.shape, 0.7), np.full(G2.shape, -1.3)]
        c = FormField.from_physical(G2, 1, comps)
        assert l2_norm(nonlinear_term(c, _ns(G2))) <= 1e-14
        assert l2_norm(nonlinear_term(FormField.zeros(G2, 1), _ns(G2))) == 0.0

    def test_degree_mismatch_rejected(self):
        f = FormField.zeros(G2, 0)
        with pytest.raises(ValueError, match="degree"):
            nonlinear_term(f, _ns(G2))


class TestPolarization:
    @pytest.mark.parametrize("grid", [G2, G3])
    def test_diagonal_is_twice_nonlinearity(self, grid):
        v, _ = _pair(grid, 5)
        cfg = _ns(grid)
        gap = l2_norm(bilinear_term(v, v, cfg) - nonlinear_term(v, cfg) * 2.0)
        assert gap == 0.0  # identical floating-point operations

    @pytest.mark.parametrize("grid", [G2, G3])
    def test_polarization_identity(self, grid):
        w, v = _pair(grid, 6)
        cfg = _ns(grid)
        lhs = nonlinear_term(w + v, cfg) - nonlinear_term(w, cfg) - nonlinear_term(v, cfg)
        gap = l2_norm(lhs - bilinear_term(w, v, cfg))
        scale = max(l2_norm(w) * l2_norm(v), 1.0)
        assert gap <= 1e-12 * scale

    def test_symmetry(self):
        w, v = _pair(G2, 7)
        cfg = _ns(G2)
        assert l2_norm(bilinear_term(w, v, cfg) - bilinear_term(v, w, cfg)) <= 1e-13

    @settings(max_examples=20, deadline=None)
    @given(
        a=st.floats(min_value=-3.0, max_value=3.0),
        b=st.floats(min_value=-3.0, max_value=3.0),
    )
    def test_bilinearity(self, a, b):
        w, v = _pair(G2, 8)
        cfg = _ns(G2)
        lhs = bilinear_term(w * a, v * b, cfg)
        rhs = bilinear_term(w, v, cfg) * (a * b)
        scale = max(abs(a * b) * l2_norm(w) * l2_norm(v), 1.0)
        assert l2_norm(lhs - rhs) <= 1e-12 * scale

    @pytest.mark.parametrize("grid", [G2, G3])
    def test_quadratic_expansion_exact(self, grid):
        # N(u + eps h) - N(u) - eps B(u, h) = eps^2 N(h) with no remainder:
        # the derivative of a quadratic map is exact, so the defect at
        # eps = 1e-3 sits at rounding level, far below the eps^2 term.
        u, h = _pair(grid, 9)
        cfg = _ns(grid)
        eps = 1e-3
        lhs = (
            nonlinear_term(u + h * eps, cfg)
            - nonlinear_term(u, cfg)
            - bilinear_term(u, h, cfg) * eps
        )
        defect = l2_norm(lhs - nonlinear_term(h, cfg) * eps**2)
        scale = max(l2_norm(nonlinear_term(u, cfg)), 1.0)
        assert defect <= 1e-12 * scale


class TestTransformBudget:
    """Each input and derivative component goes to the grid once, each
    output component comes back once."""

    @staticmethod
    def _counting_numpy(monkeypatch) -> list[str]:
        calls: list[str] = []
        fft = types.ModuleType("numpy.fft")
        fft.__dict__.update(vars(np.fft))
        for name in ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
                     "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft"):
            def counted(*args, _fn=getattr(np.fft, name), _name=name, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)
            setattr(fft, name, counted)
        proxy = types.ModuleType("numpy")
        proxy.__dict__.update(vars(np))
        proxy.fft = fft
        monkeypatch.setattr(nonlinear_module, "np", proxy)
        return calls

    @pytest.mark.parametrize("grid, n_budget, b_budget", [(G2, 6, 9), (G3, 10, 16)])
    def test_component_transforms_per_call(self, monkeypatch, grid, n_budget, b_budget):
        w, v = _pair(grid, 41)
        cfg = _ns(grid)
        calls = self._counting_numpy(monkeypatch)
        nonlinear_term(v, cfg)
        assert len(calls) == n_budget
        assert calls.count("rfftn") == grid.n + 1  # M1 and M2 outputs
        calls.clear()
        bilinear_term(w, v, cfg)
        assert len(calls) == b_budget
        assert calls.count("rfftn") == grid.n + 1


class TestProjectedMode:
    """The kernel's modes for callers that project Q: "drop" leaves out the
    exact part d M2, "apart" gives M2's band halves beside Q1 = M1(d v, v),
    "only" M2's alone.  The default "add" is pinned by the classes above."""

    @pytest.mark.parametrize("grid, n_budget, b_budget", [(G2, 5, 8), (G3, 9, 15)])
    def test_component_transforms_per_call(self, monkeypatch, grid, n_budget, b_budget):
        w, v = _pair(grid, 41)
        cfg = _ns(grid)
        calls = TestTransformBudget._counting_numpy(monkeypatch)
        nonlinear_term(v, cfg, exact="drop")
        assert len(calls) == n_budget
        assert calls.count("rfftn") == grid.n  # the M1 output only
        calls.clear()
        bilinear_term(w, v, cfg, exact="drop")
        assert len(calls) == b_budget
        assert calls.count("rfftn") == grid.n
        # M2 comes from the same grid pass, with one more forward transform.
        calls.clear()
        nonlinear_term(v, cfg, exact="apart")
        assert len(calls) == n_budget + 1
        state = _state(v, keep=True)
        nonlinear_term(state, cfg, exact="drop")
        calls.clear()
        nonlinear_term(state, cfg, exact="only")
        assert calls == ["rfftn"]

    @pytest.mark.parametrize("grid", [G2, G3])
    def test_diagonal_is_twice_nonlinearity(self, grid):
        v, _ = _pair(grid, 5)
        cfg = _ns(grid)
        for exact in ("drop", "only"):
            gap = l2_norm(bilinear_term(v, v, cfg, exact=exact)
                          - nonlinear_term(v, cfg, exact=exact) * 2.0)
            assert gap == 0.0  # identical floating-point operations

    @pytest.mark.parametrize("grid", [G2, G3])
    def test_parts_make_the_full_term_bit_for_bit(self, grid):
        w, v = _pair(grid, 8)
        cfg = _ns(grid)
        for term, args in ((nonlinear_term, (v,)), (bilinear_term, (w, v))):
            states = [_state(a) for a in args]
            q1, m2 = term(*states, cfg, exact="apart")
            assert np.array_equal(q1, term(*states, cfg, exact="drop"))
            assert np.array_equal(m2, term(*states, cfg, exact="only"))
            full = _apply_d(grid, 0, list(m2), band=True, out=[h.copy() for h in q1])
            assert np.array_equal(np.stack(full), term(*states, cfg))
            q1_field, m2_field = term(*args, cfg, exact="apart")
            assert (q1_field.degree, m2_field.degree) == (1, 0)
            assert np.array_equal(_state(m2_field).halves, m2)

    def test_without_m2_the_exact_part_is_none(self):
        v, _ = _pair(G2, 9)
        cfg = NonlinearityConfig(degree=1, m1=interior_product_map(2))
        q1, m2 = nonlinear_term(v, cfg, exact="apart")
        assert m2 is None and nonlinear_term(v, cfg, exact="only") is None
        assert l2_norm(q1 - nonlinear_term(v, cfg)) == 0.0
        q1, m2 = nonlinear_term(v, zero_config(1), exact="apart")
        assert m2 is None and l2_norm(q1) == 0.0
        with pytest.raises(ValueError, match="exact must be one of"):
            nonlinear_term(v, cfg, exact="keep")

    @pytest.mark.parametrize("grid", [SpectralGrid(2, 16), SpectralGrid(3, 8)])
    def test_state_projections_kill_the_exact_part(self, grid):
        # d M2 is exact, so P and a build_basis P_m map it to rounding.
        v = project_state(random_form(grid, 1, np.random.default_rng(13)))
        m2 = nonlinear_term(_state(v), _ns(grid), exact="only")
        dm2 = np.stack(_apply_d(grid, 0, list(m2), band=True))
        basis = build_basis(grid, 1)
        for project in (partial(_band_projection, grid, 1), basis._project_band):
            assert _half_norm(project(dm2)) <= 1e-15 * _half_norm(dm2)

    def test_ns3d_step_makes_18_transforms(self, monkeypatch):
        # Two rk2 stages of 9 transforms each (3 velocity and 3 vorticity
        # components to the grid, 3 M1 components back); no other layer
        # transforms anything while the solver steps.
        calls = TestTransformBudget._counting_numpy(monkeypatch)
        proxy = nonlinear_module.np
        for module in (spectral_module, solver_module):
            monkeypatch.setattr(module, "np", proxy)
        grid = SpectralGrid(3, 16)
        u0 = project_state(random_form(grid, 1, np.random.default_rng(19), kmax=4))
        cfg = SolverConfig(mu=0.05, T=2e-3, dt=1e-3, res=16, n=3)
        calls.clear()
        solve_nonlinear(None, u0, cfg, derivatives=0, with_pressure=False)
        assert len(calls) == 18 * cfg.steps


class TestHermitianCheckScope:
    """The reality check reads only k_last = 0 planes, never a whole spectrum."""

    @staticmethod
    def _planes(monkeypatch) -> list[int]:
        dims: list[int] = []
        original = spectral_module._is_hermitian

        def recorded(plane, tol):
            dims.append(plane.ndim)
            return original(plane, tol)

        for module in (spectral_module, nonlinear_module):
            monkeypatch.setattr(module, "_is_hermitian", recorded)
        return dims

    @pytest.mark.parametrize("n", [2, 3])
    def test_solver_step(self, monkeypatch, n):
        grid = SpectralGrid(n, 8)
        u0 = project_state(random_form(grid, 1, np.random.default_rng(5)))
        dims = self._planes(monkeypatch)
        solve_nonlinear(random_form(grid, 1, np.random.default_rng(6)), u0,
                        SolverConfig(mu=0.1, T=1e-3, dt=1e-3, res=8, n=n))
        assert dims and set(dims) == {n - 1}

    def test_gn_survey_trial(self, monkeypatch):
        dims = self._planes(monkeypatch)
        gn_ratio_survey(seed=3, trials=1, res=16)
        assert dims and set(dims) == {2}

    def test_apply_inverse(self, monkeypatch):
        grid = SpectralGrid(2, 8)
        cfg = SolverConfig(mu=0.1, T=2e-3, dt=1e-3, res=8)
        op = assemble_linearized(None, cfg.mu, build_basis(grid, 1), cfg.times(), _ns(grid))
        rng = np.random.default_rng(7)
        u0 = project_state(random_form(grid, 1, rng))
        dims = self._planes(monkeypatch)
        apply_inverse(op, random_form(grid, 1, rng), u0, cfg)
        assert dims and set(dims) == {1}


class TestBandHalves:
    """The band-half form of N and B: the field form's halves, bit for bit."""

    @staticmethod
    def _halves(u: FormField) -> np.ndarray:
        return np.stack(_state(u).halves)

    @pytest.mark.parametrize("grid", [G2, G3])
    def test_matches_field_form(self, grid):
        w, v = _pair(grid, 47)
        cfg = _ns(grid)
        wh, vh = _state(w), _state(v)
        n = nonlinear_term(vh, cfg)
        b = bilinear_term(wh, vh, cfg)
        assert n.tobytes() == self._halves(nonlinear_term(v, cfg)).tobytes()
        assert b.tobytes() == self._halves(bilinear_term(w, v, cfg)).tobytes()
        zero = nonlinear_term(vh, zero_config(1))
        assert zero.shape == vh.halves.shape and not np.any(zero)

    @pytest.mark.parametrize("grid", [G2, G3])
    def test_field_round_trips_through_of(self, grid):
        rng = np.random.default_rng(67)
        for degree in range(grid.n + 1):
            v = random_form(grid, degree, rng)
            halves = _state(v).halves
            u = nonlinear_module.BandHalves(grid, degree, halves).field()
            assert u.grid == grid and u.degree == degree
            assert _state(u).halves.tobytes() == halves.tobytes()
            assert l2_norm(u - dealias(v)) <= 1e-14 * l2_norm(v)

    @pytest.mark.parametrize("grid", [SpectralGrid(2, 16), SpectralGrid(2, 256),
                                      SpectralGrid(3, 8), SpectralGrid(3, 64)])
    def test_slabs_move_what_the_ix_index_moves(self, grid):
        # The gather of checked_state and the scatter of field, slab by
        # slab, against the np.ix_ forms of _band_half.
        band = spectral_module._band_half(grid)
        rng = np.random.default_rng(101)
        for degree in range(grid.n + 1):
            v = random_form(grid, degree, rng)
            halves = _state(v).halves
            assert halves.tobytes() == np.stack([c[band] for c in v.components]).tobytes()
            noise = rng.standard_normal((2,) + halves.shape)
            u = BandHalves(grid, degree, noise[0] + 1j * noise[1]).field()
            for c, h in zip(u.components, noise[0] + 1j * noise[1], strict=True):
                expected = np.zeros(grid.half_shape, dtype=np.complex128)
                expected[band] = h
                assert c.tobytes() == expected.tobytes()

    def test_kept_state_is_transformed_once(self, monkeypatch):
        w, v = _pair(G2, 53)
        cfg = _ns(G2)
        wh = _state(w, keep=True)
        calls = TestTransformBudget._counting_numpy(monkeypatch)
        vh = _state(v)
        bilinear_term(wh, vh, cfg)
        assert len(calls) == 9
        calls.clear()
        bilinear_term(wh, vh, cfg)
        assert len(calls) == 9 - 3  # w and its d stay on the grid

    def test_mismatches_rejected(self):
        _, v = _pair(G2, 59)
        cfg = _ns(G2)
        vh = _state(v)
        scalar = random_form(G2, 0, np.random.default_rng(1))
        with pytest.raises(ValueError, match="degree"):
            nonlinear_term(_state(scalar), cfg)
        other = _state(_pair(G3, 61)[0])
        with pytest.raises(ValueError, match="different grids"):
            bilinear_term(other, vh, cfg)
        with pytest.raises(TypeError, match="two fields or two BandHalves"):
            bilinear_term(v, vh, cfg)


def _random_config(n: int, degree: int, seed: int) -> NonlinearityConfig:
    """A nonlinearity of ``degree`` on T^n with random tensors: M1 where
    degree < n, M2 where degree >= 1."""
    rng = np.random.default_rng(seed)

    def bmap(first, second, out):
        shape = (comb(n, first), comb(n, second), comb(n, out))
        return BilinearMap(n, first, second, out, rng.standard_normal(shape))

    return NonlinearityConfig(
        degree=degree,
        m1=bmap(degree + 1, degree, degree) if degree < n else None,
        m2=bmap(degree, degree, degree - 1) if degree >= 1 else None)


BATCH_CASES = [
    (SpectralGrid(2, 16), "navier-stokes-i1"),
    (SpectralGrid(3, 8), "navier-stokes-i1"),
    (SpectralGrid(2, 16), "degree-0"),  # M1 alone: "only" gives None
    (SpectralGrid(3, 8), "degree-2"),
    (SpectralGrid(2, 16), "zero"),
]


class TestBatchedPass:
    """Many states or pairs in one kernel pass, with a leading batch axis:
    bit for bit the single calls, in chunks of ``_batch_size``."""

    @staticmethod
    def _states(grid, cfg, count, seed, keep=False) -> list:
        rng = np.random.default_rng(seed)
        return [_state(random_form(grid, cfg.degree, rng), keep)
                for _ in range(count)]

    @staticmethod
    def _config(grid, name) -> NonlinearityConfig:
        if name == "navier-stokes-i1":
            return navier_stokes_config(grid.n)
        if name == "zero":
            return zero_config(1)
        return _random_config(grid.n, int(name[-1]), 71)

    @staticmethod
    def _passes(monkeypatch) -> list:
        """States in each kernel pass (1 for a pass without a batch axis)."""
        passes, original = [], nonlinear_module._quadratic

        def counted(cfg, grid, *inputs, exact="add"):
            values = inputs[0][0][0]
            passes.append(values.shape[0] if values.ndim > grid.n else 1)
            return original(cfg, grid, *inputs, exact=exact)

        monkeypatch.setattr(nonlinear_module, "_quadratic", counted)
        return passes

    @staticmethod
    def _assert_same(got, expected):
        assert len(got) == len(expected)
        for a, b in zip(got, expected):
            pairs = zip(a, b) if isinstance(b, tuple) else [(a, b)]
            for x, y in pairs:
                assert (x is None and y is None) or np.array_equal(x, y)

    @pytest.mark.parametrize("chunked", [False, True])
    @pytest.mark.parametrize("inputs", [1, 2])
    @pytest.mark.parametrize("exact", nonlinear_module.EXACT_MODES)
    @pytest.mark.parametrize("grid, name", BATCH_CASES)
    def test_batch_equals_single_calls(self, monkeypatch, grid, name, exact, inputs,
                                       chunked):
        cfg = self._config(grid, name)
        columns = [self._states(grid, cfg, 5, 73 + i) for i in range(inputs)]
        if inputs == 1:
            expected = [nonlinear_term(v, cfg, exact=exact) for v in columns[0]]
        else:
            expected = [bilinear_term(w, v, cfg, exact=exact) for w, v in zip(*columns)]
        if chunked:
            # Batches of two: 5 rows in passes of 2, 2 and 1.
            monkeypatch.setattr(nonlinear_module, "_BATCH_BYTES", 2 * 8 * grid.res ** grid.n)
        passes = self._passes(monkeypatch)
        got = nonlinear_module._quadratic_term(cfg, *columns, exact=exact)
        self._assert_same(got, expected)
        if not cfg.is_zero:
            assert passes == ([2, 2, 1] if chunked else [5])

    def test_size_rule(self):
        # One component's grid values across a batch stay within 128 KB:
        # batches of one at the Navier-Stokes grids.
        sizes = {(2, 16): 64, (2, 64): 4, (2, 128): 1, (2, 256): 1,
                 (3, 8): 32, (3, 16): 4, (3, 32): 1, (3, 64): 1}
        for (n, res), size in sizes.items():
            assert nonlinear_module._batch_size(SpectralGrid(n, res)) == size

    @pytest.mark.parametrize("grid", [SpectralGrid(2, 16), SpectralGrid(3, 8)])
    def test_kept_states_take_their_slice(self, monkeypatch, grid):
        # A batched pass fills each kept state's grid values with its slice
        # and leaves unkept states without; a kept state's later B makes no
        # inverse transform of it, and an "only" pass over kept states none
        # at all.
        cfg = navier_stokes_config(grid.n)
        kept = self._states(grid, cfg, 3, 79, keep=True)
        plain = self._states(grid, cfg, 3, 79)
        others = self._states(grid, cfg, 3, 83)
        mixed = [kept[0], plain[1], kept[2]]
        nonlinear_module._quadratic_term(cfg, mixed, exact="drop")
        assert plain[1]._kept is None and kept[1]._kept == {}
        nonlinear_module._quadratic_term(cfg, [kept[1]], exact="drop")
        grid_passes, original = [], nonlinear_module._on_grid
        monkeypatch.setattr(nonlinear_module, "_on_grid", lambda *args: (
            grid_passes.append(args[2]) or original(*args)))
        irfftn = TestTransformBudget._counting_numpy(monkeypatch)
        for u, w, v in zip(kept, plain, others):
            got = bilinear_term(u, v, cfg, exact="drop")
            # Only v goes to the grid: its components and its d.
            assert len(grid_passes) == 1 and grid_passes.pop() is v.halves
            assert irfftn.count("irfftn") == grid.n + comb(grid.n, 2)
            assert np.array_equal(got, bilinear_term(w, v, cfg, exact="drop"))
            grid_passes.clear()
            irfftn.clear()
        m2 = nonlinear_module._quadratic_term(cfg, kept, exact="only")
        assert grid_passes == [] and irfftn == ["rfftn"]
        self._assert_same(m2, [nonlinear_term(w, cfg, exact="only") for w in plain])


class TestPrunedKernel:
    """From 2^15 grid points on, each kernel transform is a pruned walk of n
    1-D calls over the band: the bytes of the n-D path, which the tests force
    by patching the size rule."""

    @pytest.mark.parametrize("exact", nonlinear_module.EXACT_MODES)
    @pytest.mark.parametrize("grid", [SpectralGrid(3, 32), SpectralGrid(3, 48),
                                      SpectralGrid(2, 256)])
    def test_equals_the_n_d_path(self, monkeypatch, grid, exact):
        cfg = _ns(grid)
        columns = [TestBatchedPass._states(grid, cfg, 3, 97 + i) for i in range(2)]
        results = {}
        for pruned in (True, False):
            if not pruned:
                monkeypatch.setattr(nonlinear_module, "_band_box", lambda grid: None)
            assert (nonlinear_module._band_box(grid) is not None) == pruned
            for size in (1, 3):  # no batch axis, then one pass of 3 states
                monkeypatch.setattr(nonlinear_module, "_BATCH_BYTES",
                                    size * 8 * grid.res ** grid.n)
                for inputs in (1, 2):
                    results[pruned, size, inputs] = nonlinear_module._quadratic_term(
                        cfg, *columns[:inputs], exact=exact)
        for size in (1, 3):
            for inputs in (1, 2):
                got, expected = results[True, size, inputs], results[False, size, inputs]
                assert len(got) == len(expected) == 3
                for a, b in zip(got, expected):
                    for x, y in (zip(a, b) if exact == "apart" else [(a, b)]):
                        assert x.tobytes() == y.tobytes()

    def test_diagonal_is_twice_nonlinearity(self):
        grid = SpectralGrid(3, 32)
        assert nonlinear_module._band_box(grid) is not None
        v = _state(random_form(grid, 1, np.random.default_rng(101)))
        cfg = _ns(grid)
        for exact in ("add", "drop", "only"):
            n, b = nonlinear_term(v, cfg, exact=exact), bilinear_term(v, v, cfg, exact=exact)
            assert b.tobytes() == (n * 2.0).tobytes()

    def test_size_rule(self):
        # 2^15 points: T^2 from res 256 on, T^3 from res 32 on.
        pruned = {(2, 16): False, (2, 64): False, (2, 128): False, (2, 180): False,
                  (2, 182): True, (2, 256): True, (3, 8): False, (3, 16): False,
                  (3, 30): False, (3, 32): True, (3, 64): True}
        for (n, res), expect in pruned.items():
            box = nonlinear_module._band_box(SpectralGrid(n, res))
            assert (box is not None) == expect
            if expect:  # the band half's own index, as 1-D arrays
                band = spectral_module._band_half(SpectralGrid(n, res))
                assert all(np.array_equal(b, i.ravel()) for b, i in zip(box, band))

    def test_ns3d_step_makes_18_walks(self, monkeypatch):
        # The budget of TestProjectedMode's T^3 res-16 step, at res 32, where
        # each component transform is a walk of n = 3 one-dimensional numpy
        # calls, counted where the kernel calls it.
        transforms, original = [], nonlinear_module._box_transform
        monkeypatch.setattr(nonlinear_module, "_box_transform", lambda *args, **kw: (
            transforms.append(kw.get("inverse", False)) or original(*args, **kw)))
        calls = TestTransformBudget._counting_numpy(monkeypatch)
        proxy = nonlinear_module.np
        for module in (spectral_module, solver_module):
            monkeypatch.setattr(module, "np", proxy)
        grid = SpectralGrid(3, 32)
        u0 = project_state(random_form(grid, 1, np.random.default_rng(103), kmax=6))
        cfg = SolverConfig(mu=0.05, T=2e-3, dt=1e-3, res=32, n=3)
        calls.clear()
        solve_nonlinear(None, u0, cfg, derivatives=0, with_pressure=False)
        # Per stage 3 velocity and 3 vorticity components to the grid
        # (inverse), 3 M1 components back.
        assert len(transforms) == 18 * cfg.steps
        assert transforms.count(True) == 12 * cfg.steps
        assert sorted(set(calls)) == ["fft", "ifft", "irfft", "rfft"]
        assert len(calls) == 3 * 18 * cfg.steps


class TestInputIntegrity:
    @staticmethod
    def _broken(grid: SpectralGrid, k: tuple[int, ...]) -> tuple[FormField, FormField]:
        """A real field, and the same field with one unpaired mode at k.

        k lies in the k_last = 0 plane, the only part of a half spectrum
        that holds both a mode and its conjugate partner.
        """
        u, _ = _pair(grid, 43)
        comps = [c.copy() for c in u.components]
        comps[0][tuple(kj % grid.res for kj in k)] += 0.3j
        return u, FormField(grid, 1, tuple(comps))

    @pytest.mark.parametrize("grid", [G2, G3])
    def test_in_band_asymmetry_rejected(self, grid):
        k = (1, 0) if grid.n == 2 else (1, -2, 0)
        u, broken = self._broken(grid, k)
        cfg = _ns(grid)
        with pytest.raises(FieldIntegrityError, match="Hermitian"):
            nonlinear_term(broken, cfg)
        with pytest.raises(FieldIntegrityError, match="Hermitian"):
            bilinear_term(u, broken, cfg)
        with pytest.raises(FieldIntegrityError, match="Hermitian"):
            bilinear_term(broken, u, cfg)

    @pytest.mark.parametrize("grid", [G2, G3])
    def test_zero_preset_checks_fields(self, grid):
        k = (1, 0) if grid.n == 2 else (1, -2, 0)
        u, broken = self._broken(grid, k)
        cfg = zero_config(1)
        with pytest.raises(FieldIntegrityError, match="Hermitian"):
            nonlinear_term(broken, cfg)
        with pytest.raises(FieldIntegrityError, match="Hermitian"):
            bilinear_term(u, broken, cfg)
        with pytest.raises(FieldIntegrityError, match="Hermitian"):
            bilinear_term(broken, u, cfg)

    @pytest.mark.parametrize("grid", [G2, G3])
    def test_asymmetry_outside_band_is_dealiased_away(self, grid):
        # Dealias first, then check: a mode the two-thirds rule drops never
        # reaches the check or the product.
        k = (grid.res // 3 + 1,) + (1,) * (grid.n - 2) + (0,)
        u, broken = self._broken(grid, k)
        cfg = _ns(grid)
        for a, b in zip(nonlinear_term(broken, cfg).components,
                        nonlinear_term(u, cfg).components):
            assert np.array_equal(a, b)
        for a, b in zip(bilinear_term(broken, u, cfg).components,
                        bilinear_term(u, u, cfg).components):
            assert np.array_equal(a, b)


class TestTrilinear:
    @pytest.mark.parametrize("grid", [G2, G3])
    def test_vanishes_for_divergence_free_advection(self, grid):
        # ((w . grad) u, u) = 0 when div w = 0: exact for band-limited
        # fields because the dealiased product introduces no aliasing.
        rng = np.random.default_rng(31)
        for _ in range(5):
            w = helmholtz_project(random_form(grid, 1, rng))
            u = random_form(grid, 1, rng)
            value = inner_product(convective_term(w, u), u)
            assert abs(value) <= 1e-10 * max(l2_norm(w) * l2_norm(u) ** 2, 1e-30)

    def test_does_not_vanish_for_gradient_advection(self):
        # Sanity: with w a gradient the cancellation fails, so the
        # divergence-free test above has teeth.
        rng = np.random.default_rng(32)
        phi = random_form(G2, 0, rng)
        w = exterior_derivative(phi)
        u = random_form(G2, 1, rng)
        value = inner_product(convective_term(w, u), u)
        assert abs(value) > 1e-6 * l2_norm(w) * l2_norm(u) ** 2

    def test_quadrature_oracle(self):
        # Independent evaluation: 8th-order FD convective term integrated
        # against u by plain physical quadrature on a fine grid.
        grid = SpectralGrid(2, 128)
        rng = np.random.default_rng(33)
        w = random_form(grid, 1, rng, kmax=3.0)
        u = random_form(grid, 1, rng, kmax=3.0)
        ours = inner_product(convective_term(w, u), u)
        u_phys = to_physical(u)
        w_phys = to_physical(w)
        spacing = TWO_PI / grid.res
        conv = []
        for a in range(grid.n):
            acc = np.zeros(grid.shape)
            for j in range(grid.n):
                from oracles import periodic_derivative

                acc += w_phys[j] * periodic_derivative(u_phys[a], j, spacing)
            conv.append(acc)
        oracle = quadrature_inner(conv, u_phys)
        assert ours == pytest.approx(oracle, abs=1e-8)


class TestResolutionConsistency:
    def test_refinement_leaves_band_limited_result_unchanged(self):
        # With inputs limited to res/6 the quadratic product is fully
        # resolved, so recomputing on a doubled grid gives the same field.
        coarse = SpectralGrid(2, 36)
        fine = SpectralGrid(2, 72)
        rng = np.random.default_rng(41)
        u = random_form(coarse, 1, rng, kmax=coarse.res / 6.0)
        cfg = _ns(coarse)
        n_coarse = nonlinear_term(u, cfg)
        n_fine = nonlinear_term(resample(u, fine), cfg)
        gap = l2_norm(resample(n_fine, coarse) - n_coarse)
        assert gap <= 1e-12 * max(l2_norm(n_coarse), 1.0)

    def test_survey_deterministic(self):
        cfg = navier_stokes_config(3)
        r1 = continuity_bound_survey(cfg, G3, trials=3, k=0, s=1, seed=5)
        r2 = continuity_bound_survey(cfg, G3, trials=3, k=0, s=1, seed=5)
        assert np.array_equal(r1.ratios, r2.ratios)
        assert r1.max_ratio > 0.0

    def test_survey_ratio_scale_invariant(self):
        # The measured ratio is 1-homogeneous in B over the product of
        # norms, so it does not depend on the field amplitudes; surveys
        # with rescaled draws would measure the same constant.  Check the
        # report on a direct pair instead of resampling draws.
        cfg = navier_stokes_config(3)
        rep = continuity_bound_survey(cfg, G3, trials=4, k=1, s=1, seed=6)
        assert rep.k == 1 and rep.s == 1 and len(rep.ratios) == 4
        assert np.all(rep.ratios >= 0.0)

    def test_survey_validates_indices(self):
        cfg = navier_stokes_config(3)
        with pytest.raises(ValueError, match="2s \\+ k"):
            continuity_bound_survey(cfg, G3, trials=1, k=0, s=0)
        with pytest.raises(ValueError, match="s >= 1"):
            continuity_bound_survey(cfg, SpectralGrid(2, 16), trials=1, k=2, s=0)

    def test_empty_report(self):
        rep = ContinuityReport(k=0, s=1, res=16, kmax=2.0, trials=0,
                               ratios=np.array([]))
        assert rep.max_ratio == 0.0


class TestZeroPreset:
    def test_everything_vanishes(self):
        cfg = zero_config(1)
        w, v = _pair(G2, 51)
        assert l2_norm(nonlinear_term(v, cfg)) == 0.0
        assert l2_norm(bilinear_term(w, v, cfg)) == 0.0

