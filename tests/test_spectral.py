"""Core complex operations: derivative, adjoint, Laplacian, projections."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import torusforms.spectral as spectral_module
from torusforms.nonlinear import checked_state
from torusforms.spectral import (
    FieldIntegrityError,
    FormField,
    SpectralGrid,
    _apply_d,
    _box_transform,
    _power_symbol,
    _to_grid,
    codifferential,
    dealias,
    exterior_derivative,
    fractional_power,
    harmonic_projection,
    hodge_laplacian,
    inner_product,
    l2_norm,
    load_field,
    lp_norm,
    parametrix,
    pointwise_magnitude,
    random_form,
    remove_harmonic,
    save_field,
    split_derivative,
    to_physical,
)

from oracles import periodic_derivative, quadrature_inner, snapshot_bytes, snapshot_components


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-30)


def field_close(u: FormField, v: FormField, tol: float) -> bool:
    scale = max(l2_norm(v), 1e-30)
    return l2_norm(u - v) <= tol * scale


GRIDS = [SpectralGrid(2, 16), SpectralGrid(3, 12)]


class TestGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            SpectralGrid(4, 16)
        with pytest.raises(ValueError):
            SpectralGrid(2, 15)

    def test_dealias_mask_rule(self):
        grid = SpectralGrid(2, 32)
        limit = 32 / 3.0
        kv = np.meshgrid(np.fft.fftfreq(32, 1 / 32), np.fft.rfftfreq(32, 1 / 32),
                         indexing="ij")
        expect = np.all(np.abs(kv) <= limit, axis=0)
        assert grid.dealias_mask.shape == grid.half_shape == (32, 17)
        assert np.array_equal(grid.dealias_mask, expect)
        # boundary: |k| = 10 kept, |k| = 11 dropped at res 32
        assert grid.dealias_mask[10, 0]
        assert not grid.dealias_mask[11, 0]

    def test_nyquist_zeroed_on_creation(self):
        grid = SpectralGrid(2, 16)
        rng = np.random.default_rng(0)
        u = FormField.from_physical(grid, 0, [rng.standard_normal(grid.shape)])
        assert np.all(u.components[0][grid.nyquist_mask] == 0.0)


class TestTransforms:
    def test_round_trip(self):
        grid = SpectralGrid(2, 32)
        rng = np.random.default_rng(1)
        u = random_form(grid, 1, rng)
        phys = to_physical(u)
        v = FormField.from_physical(grid, 1, phys)
        assert field_close(v, u, 1e-13)

    def test_constant_is_zero_mode(self):
        grid = SpectralGrid(2, 16)
        u = FormField.from_physical(grid, 0, [np.full(grid.shape, 2.5)])
        assert abs(u.coefficient((0, 0)) - 2.5) < 1e-13
        off = u.components[0].copy()
        off[0, 0] = 0.0
        assert np.max(np.abs(off)) < 1e-13

    def test_sine_sampling(self):
        grid = SpectralGrid(2, 32)
        x, _ = grid.meshes()
        u = FormField.from_physical(grid, 0, [np.sin(x)])
        assert abs(u.coefficient((1, 0)) - (-0.5j)) < 1e-13
        assert abs(u.coefficient((-1, 0)) - 0.5j) < 1e-13

    def test_non_hermitian_rejected(self):
        grid = SpectralGrid(2, 16)
        c = np.zeros(grid.half_shape, dtype=np.complex128)
        c[1, 0] = 1.0  # no conjugate partner at (-1, 0), in the k_last = 0 plane
        u = FormField(grid, 0, (c,))
        with pytest.raises(FieldIntegrityError):
            to_physical(u)


class TestExteriorDerivative:
    def test_constant_to_zero(self):
        for grid in GRIDS:
            u = FormField.from_physical(grid, 0, [np.full(grid.shape, 3.0)])
            assert l2_norm(exterior_derivative(u)) < 1e-14

    def test_gradient_analytic(self):
        # d(sin x1 dx2) = cos x1 dx1^dx2 on T^2
        grid = SpectralGrid(2, 64)
        x, _ = grid.meshes()
        zero = np.zeros(grid.shape)
        u = FormField.from_physical(grid, 1, [zero, np.sin(x)])
        du = exterior_derivative(u)
        expect = FormField.from_physical(grid, 2, [np.cos(x)])
        assert field_close(du, expect, 1e-10)

    def test_matches_finite_difference_oracle(self):
        # independent stencil check of the same derivative
        grid = SpectralGrid(2, 64)
        x, y = grid.meshes()
        f = np.sin(x) * np.cos(2 * y)
        u = FormField.from_physical(grid, 0, [f])
        du_phys = to_physical(exterior_derivative(u))
        for axis in range(2):
            fd = periodic_derivative(f, axis, grid.spacing, order=8)
            assert np.max(np.abs(du_phys[axis] - fd)) < 1e-8

    def test_oracle_itself_converges(self):
        # order-2 stencil halving: error drops ~4x, validating the oracle
        errs = []
        for res in (32, 64):
            grid = SpectralGrid(2, res)
            x, _ = grid.meshes()
            fd = periodic_derivative(np.sin(x), 0, grid.spacing, order=2)
            errs.append(np.max(np.abs(fd - np.cos(x))))
        assert errs[0] / errs[1] > 3.5

    def test_top_degree_rejected(self):
        grid = SpectralGrid(2, 16)
        u = FormField.zeros(grid, 2)
        with pytest.raises(ValueError):
            exterior_derivative(u)

    def test_dd_zero(self):
        for grid in GRIDS:
            rng = np.random.default_rng(7)
            for degree in range(grid.n - 1):
                u = random_form(grid, degree, rng)
                ddu = exterior_derivative(exterior_derivative(u))
                assert l2_norm(ddu) <= 1e-12 * max(l2_norm(u), 1.0)


class TestCodifferential:
    def test_negative_divergence(self):
        grid = SpectralGrid(2, 32)
        x, y = grid.meshes()
        comps = [np.sin(x) * np.cos(y), np.cos(2 * x) * np.sin(y)]
        u = FormField.from_physical(grid, 1, comps)
        div = (periodic_derivative(comps[0], 0, grid.spacing)
               + periodic_derivative(comps[1], 1, grid.spacing))
        expect = FormField.from_physical(grid, 0, [-div])
        assert field_close(codifferential(u), expect, 1e-8)

    def test_adjoint_identity_random_pairs(self):
        for grid in GRIDS:
            rng = np.random.default_rng(11)
            for degree in range(grid.n):
                for _ in range(20):
                    u = random_form(grid, degree, rng)
                    v = random_form(grid, degree + 1, rng)
                    lhs = inner_product(exterior_derivative(u), v)
                    rhs = inner_product(u, codifferential(v))
                    assert rel_err(lhs, rhs) < 1e-12

    def test_constant_to_zero(self):
        grid = SpectralGrid(2, 16)
        ones = np.ones(grid.shape)
        u = FormField.from_physical(grid, 1, [ones, 2 * ones])
        assert l2_norm(codifferential(u)) < 1e-14

    def test_delta_delta_zero(self):
        grid = SpectralGrid(3, 12)
        rng = np.random.default_rng(13)
        beta = random_form(grid, 2, rng)
        assert l2_norm(codifferential(codifferential(beta))) <= 1e-12

    def test_degree_zero_rejected(self):
        grid = SpectralGrid(2, 16)
        with pytest.raises(ValueError):
            codifferential(FormField.zeros(grid, 0))


class TestOneInsertionTableWalk:
    """d and delta of fields and of band halves come from the one walk of
    the insertion table; on band-limited fields the two paths agree bit
    for bit."""

    CASES = [(grid, degree) for grid in (SpectralGrid(2, 8), SpectralGrid(2, 12),
                                         SpectralGrid(3, 8), SpectralGrid(3, 12))
             for degree in range(grid.n + 1)]

    @staticmethod
    def _halves(u):
        return checked_state(u, u.grid, u.degree, "field").halves

    @pytest.mark.parametrize("grid,degree", CASES)
    def test_field_and_band_paths_agree(self, grid, degree):
        u = random_form(grid, degree, np.random.default_rng(17 * grid.res + degree))
        halves = self._halves(u)
        if degree < grid.n:
            band = _apply_d(grid, degree, halves, band=True)
            field = self._halves(exterior_derivative(u))
            assert len(band) == len(field)
            assert all(np.array_equal(a, b) for a, b in zip(field, band))
        if degree > 0:
            band = _apply_d(grid, degree, halves, adjoint=True, band=True)
            field = self._halves(codifferential(u))
            assert len(band) == len(field)
            assert all(np.array_equal(a, b) for a, b in zip(field, band))


class TestLaplacian:
    def test_eigenfunction(self):
        grid = SpectralGrid(2, 32)
        x, _ = grid.meshes()
        u = FormField.from_physical(grid, 0, [np.sin(x)])
        assert field_close(hodge_laplacian(u), u, 1e-13)

    def test_composition_equals_multiplier(self):
        for grid in GRIDS:
            rng = np.random.default_rng(17)
            for degree in range(grid.n + 1):
                u = random_form(grid, degree, rng)
                via_ops = hodge_laplacian(u)
                via_mult = fractional_power(u, 2.0)
                assert field_close(via_ops, via_mult, 1e-12)

    def test_constant_in_kernel(self):
        grid = SpectralGrid(3, 12)
        comps = [np.full(grid.shape, c) for c in (1.0, -2.0, 0.5)]
        u = FormField.from_physical(grid, 1, comps)
        assert l2_norm(hodge_laplacian(u)) < 1e-13

    def test_dirichlet_identity(self):
        # (Lap u, u) = |du|^2 + |delta u|^2
        grid = SpectralGrid(2, 16)
        rng = np.random.default_rng(19)
        u = random_form(grid, 1, rng)
        lhs = inner_product(hodge_laplacian(u), u)
        rhs = l2_norm(exterior_derivative(u)) ** 2 + l2_norm(codifferential(u)) ** 2
        assert rel_err(lhs, rhs) < 1e-12


class TestHarmonicAndParametrix:
    def test_projection_behaviour(self):
        grid = SpectralGrid(2, 16)
        x, _ = grid.meshes()
        const = FormField.from_physical(grid, 0, [np.full(grid.shape, 4.0)])
        assert field_close(harmonic_projection(const), const, 1e-14)
        wave = FormField.from_physical(grid, 0, [np.sin(x)])
        assert l2_norm(harmonic_projection(wave)) < 1e-14

    def test_projection_contracts(self):
        for grid in GRIDS:
            rng = np.random.default_rng(23)
            for degree in range(grid.n + 1):
                u = random_form(grid, degree, rng)
                assert l2_norm(harmonic_projection(u)) <= l2_norm(u) + 1e-14

    def test_parametrix_identities(self):
        for grid in GRIDS:
            rng = np.random.default_rng(29)
            for degree in range(grid.n + 1):
                u = random_form(grid, degree, rng)
                expect = u - harmonic_projection(u)
                assert field_close(parametrix(hodge_laplacian(u)), expect, 1e-12)
                assert field_close(hodge_laplacian(parametrix(u)), expect, 1e-12)

    def test_parametrix_kills_constants(self):
        grid = SpectralGrid(2, 16)
        const = FormField.from_physical(grid, 0, [np.ones(grid.shape)])
        assert l2_norm(parametrix(const)) < 1e-14


class TestFractionalPower:
    def test_square_is_laplacian_on_mean_free(self):
        grid = SpectralGrid(2, 16)
        rng = np.random.default_rng(31)
        u = remove_harmonic(random_form(grid, 1, rng))
        assert field_close(fractional_power(u, 2.0), hodge_laplacian(u), 1e-12)

    def test_unit_eigenvalue(self):
        grid = SpectralGrid(2, 32)
        x, _ = grid.meshes()
        u = FormField.from_physical(grid, 0, [np.sin(x)])
        assert field_close(fractional_power(u, 1.0), u, 1e-13)

    def test_zeroth_power_removes_mean(self):
        grid = SpectralGrid(2, 16)
        rng = np.random.default_rng(37)
        u = random_form(grid, 0, rng)
        assert field_close(fractional_power(u, 0.0), remove_harmonic(u), 1e-13)

    @settings(max_examples=20, deadline=None)
    @given(
        s=st.floats(min_value=0.0, max_value=2.0),
        t=st.floats(min_value=0.0, max_value=2.0),
        seed=st.integers(min_value=0, max_value=50),
    )
    def test_semigroup(self, s, t, seed):
        grid = SpectralGrid(2, 8)
        u = random_form(grid, 1, np.random.default_rng(seed))
        once = fractional_power(u, s + t)
        twice = fractional_power(fractional_power(u, s), t)
        assert field_close(twice, once, 1e-11)

    def test_negative_rejected(self):
        grid = SpectralGrid(2, 16)
        with pytest.raises(ValueError):
            fractional_power(FormField.zeros(grid, 0), -1.0)


class TestSplitDerivative:
    def test_even_is_laplacian(self):
        grid = SpectralGrid(2, 16)
        rng = np.random.default_rng(41)
        u = random_form(grid, 1, rng)
        assert field_close(split_derivative(u, 2), hodge_laplacian(u), 1e-12)

    def test_odd_on_constant(self):
        grid = SpectralGrid(2, 16)
        ones = np.ones(grid.shape)
        u = FormField.from_physical(grid, 1, [ones, ones])
        up, down = split_derivative(u, 1)
        assert l2_norm(up) < 1e-14 and l2_norm(down) < 1e-14

    def test_degree_edges(self):
        grid = SpectralGrid(2, 16)
        rng = np.random.default_rng(43)
        up, down = split_derivative(random_form(grid, 0, rng), 1)
        assert down is None and up is not None
        up, down = split_derivative(random_form(grid, 2, rng), 1)
        assert up is None and down is not None

    def test_parseval_energy(self):
        # |d u|^2 + |delta u|^2 = |grad^1 u|^2
        for grid in GRIDS:
            rng = np.random.default_rng(47)
            u = random_form(grid, 1, rng)
            up, down = split_derivative(u, 1)
            split_sq = l2_norm(up) ** 2 + l2_norm(down) ** 2
            grad_sq = l2_norm(fractional_power(u, 1.0)) ** 2
            assert rel_err(split_sq, grad_sq) < 1e-12


class TestInnerProduct:
    def test_positivity(self):
        grid = SpectralGrid(2, 16)
        rng = np.random.default_rng(53)
        u = random_form(grid, 1, rng)
        assert inner_product(u, u) > 0

    def test_sine_half(self):
        grid = SpectralGrid(2, 32)
        x, _ = grid.meshes()
        u = FormField.from_physical(grid, 0, [np.sin(x)])
        assert rel_err(inner_product(u, u), 0.5) < 1e-13

    def test_quadrature_oracle(self):
        # same value from a direct 128^2 physical quadrature
        grid = SpectralGrid(2, 128)
        x, y = grid.meshes()
        a = [np.sin(x) * np.cos(y), np.cos(x)]
        b = [np.sin(x) * np.cos(y) + np.sin(x), np.cos(x) + np.sin(2 * y)]
        u = FormField.from_physical(grid, 1, a)
        v = FormField.from_physical(grid, 1, b)
        assert rel_err(inner_product(u, v), quadrature_inner(a, b)) < 1e-12

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=100))
    def test_adjoint_property(self, seed):
        grid = SpectralGrid(2, 8)
        rng = np.random.default_rng(seed)
        u = random_form(grid, 0, rng)
        v = random_form(grid, 1, rng)
        lhs = inner_product(exterior_derivative(u), v)
        rhs = inner_product(u, codifferential(v))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)


class TestLpNorms:
    def test_l2_agrees_with_spectral(self):
        grid = SpectralGrid(2, 32)
        rng = np.random.default_rng(59)
        u = random_form(grid, 1, rng)
        phys_sq = float(np.mean(pointwise_magnitude(u) ** 2))
        assert rel_err(phys_sq, l2_norm(u) ** 2) < 1e-10

    def test_sup_norm(self):
        grid = SpectralGrid(2, 64)
        x, _ = grid.meshes()
        u = FormField.from_physical(grid, 0, [np.sin(x)])
        assert abs(lp_norm(u, np.inf) - 1.0) < 1e-12

    def test_p_validation(self):
        grid = SpectralGrid(2, 16)
        with pytest.raises(ValueError):
            lp_norm(FormField.zeros(grid, 0), 1.0)

    @pytest.mark.parametrize("grid", [SpectralGrid(2, 32), SpectralGrid(3, 16)])
    def test_finite_fields_above_1e154_have_finite_norms(self, grid):
        # Squares of such values overflow; the norms rescale by the largest
        # modulus instead of reading inf - inf = NaN or inf.
        u = random_form(grid, 1, np.random.default_rng(61))
        big = u * 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for norm in (l2_norm, lambda v: lp_norm(v, 6.0), lambda v: lp_norm(v, np.inf)):
                assert rel_err(norm(big), 1e200 * norm(u)) <= 1e-14
            mag = pointwise_magnitude(big)
        assert np.all(np.isfinite(mag))
        assert np.max(np.abs(mag - 1e200 * pointwise_magnitude(u))) <= 1e-14 * np.max(mag)

    def test_finite_fields_whose_powers_overflow_have_finite_norms(self):
        # Squares of 1e100 stay finite, its sixth power does not.
        u = random_form(SpectralGrid(2, 32), 1, np.random.default_rng(61))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert rel_err(lp_norm(u * 1e100, 6.0), 1e100 * lp_norm(u, 6.0)) <= 1e-14

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_fields_still_fail(self, bad):
        grid = SpectralGrid(2, 16)
        u = random_form(grid, 1, np.random.default_rng(67))
        high = [c.copy() for c in u.components]
        high[0][1, 2] = bad
        high = FormField(grid, 1, tuple(high))
        with np.errstate(invalid="ignore", over="ignore"):
            assert not np.isfinite(l2_norm(high))
            assert not np.isfinite(lp_norm(high, 6.0))
            assert not np.all(np.isfinite(pointwise_magnitude(high)))
        plane = [c.copy() for c in u.components]
        plane[0][1, 0] = bad
        with pytest.raises(FieldIntegrityError):
            lp_norm(FormField(grid, 1, tuple(plane)), 6.0)


def _same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal values, and equal bytes down to the signs of zeros."""
    return np.array_equal(a, b) and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestPrunedTransforms:
    """The support-pruned transforms are numpy's n-D ones, bit for bit."""

    @staticmethod
    def _halves(grid: SpectralGrid) -> dict[str, np.ndarray]:
        n, res = grid.n, grid.res
        rng = np.random.default_rng(71 + res)
        cases = {"zero": np.zeros(grid.half_shape, dtype=np.complex128)}
        for name, k in (("origin", (0,) * n), ("minus-one", (-1,) + (0,) * (n - 1)),
                        ("top-k-last", (0,) * (n - 1) + (res // 2 - 1,))):
            half = np.zeros(grid.half_shape, dtype=np.complex128)
            half[tuple(kj % res for kj in k)] = 1.0 - 0.5j
            cases[name] = half
        cases["band-5"] = random_form(grid, 0, rng, kmax=5).components[0]
        cases["two-thirds"] = random_form(grid, 0, rng).components[0]
        cases["noise"] = np.fft.rfftn(rng.standard_normal(grid.shape), norm="forward")
        return cases

    @pytest.mark.parametrize("grid", [SpectralGrid(2, 64), SpectralGrid(3, 32)])
    def test_inverse_equals_irfftn(self, grid):
        axes = tuple(range(-grid.n, 0))
        for name, half in self._halves(grid).items():
            expect = np.fft.irfftn(half, s=grid.shape, axes=axes, norm="forward")
            assert _same_bytes(_to_grid(grid, half), expect), name

    @pytest.mark.parametrize("grid", [SpectralGrid(2, 64), SpectralGrid(3, 16)])
    def test_inverse_with_batch_axes_equals_irfftn(self, grid):
        rng = np.random.default_rng(73)
        halves = np.stack([random_form(grid, 0, rng, kmax=kmax).components[0]
                           for kmax in (1, 3, 4, 2, 5, 0)]).reshape((2, 3) + grid.half_shape)
        expect = np.fft.irfftn(halves, s=grid.shape, axes=tuple(range(-grid.n, 0)),
                               norm="forward")
        assert _same_bytes(_to_grid(grid, halves), expect)

    @pytest.mark.parametrize("grid", [SpectralGrid(2, 32), SpectralGrid(3, 16)])
    @pytest.mark.parametrize("kmax", [None, 0, 4.5, 5, 8, 40])
    def test_random_form_equals_cut_rfftn(self, grid, kmax):
        degree = 1
        u = random_form(grid, degree, np.random.default_rng(79), kmax=kmax)
        rng = np.random.default_rng(79)
        modes = np.meshgrid(*[np.fft.fftfreq(grid.res, 1 / grid.res)] * (grid.n - 1),
                            np.fft.rfftfreq(grid.res, 1 / grid.res), indexing="ij")
        limit = grid.res / 3 if kmax is None else kmax
        box = np.all([np.abs(k) <= limit for k in modes], axis=0)
        for c in u.components:
            expect = np.where(box, np.fft.rfftn(rng.standard_normal(grid.shape),
                                                norm="forward"), 0.0)
            expect[grid.nyquist_mask] = 0.0
            assert _same_bytes(c, expect)

    @pytest.mark.parametrize("grid", [SpectralGrid(2, 64), SpectralGrid(3, 16)])
    def test_support_reaching_the_cut_plane_goes_to_irfftn_whole(self, monkeypatch, grid):
        # A half is pruned exactly when its cut plane (res/2 + 1) // 2 is
        # zero; either way the samples are irfftn's and the half is left as
        # it was, though the walk transforms its own arrays in place.
        walks = []
        monkeypatch.setattr(spectral_module, "_box_transform",
                            lambda *args, **kw: walks.append(1) or _box_transform(*args, **kw))
        cut = grid.half_shape[-1] // 2
        axes = tuple(range(-grid.n, 0))
        for plane, pruned in ((cut - 1, True), (cut, False), (cut + 1, True)):
            half = np.zeros((2,) + grid.half_shape, dtype=np.complex128)
            half[(1,) + (0,) * (grid.n - 1) + (plane,)] = 1.0 + 2.0j
            half[(0, 1) + (0,) * (grid.n - 2) + (1,)] = -0.5j
            kept = half.copy()
            expect = np.fft.irfftn(half, s=grid.shape, axes=axes, norm="forward")
            assert _same_bytes(_to_grid(grid, half), expect), plane
            assert _same_bytes(half, kept) and walks == [1] * pruned
            walks.clear()

    @pytest.mark.parametrize("grid", [SpectralGrid(2, 64), SpectralGrid(3, 24)])
    def test_forward_walk_equals_cut_rfftn_with_batch_axes(self, grid):
        # The kernel's box, the two-thirds band half, over two batch axes.
        band = spectral_module._band_half(grid)
        values = np.random.default_rng(89).standard_normal((2, 3) + grid.shape)
        kept = values.copy()
        expect = np.fft.rfftn(values, axes=tuple(range(-grid.n, 0)), norm="forward")
        got = _box_transform(grid, values, [i.ravel() for i in band])
        assert _same_bytes(got, expect[(Ellipsis,) + band])
        assert _same_bytes(values, kept)

    def test_power_symbol_is_a_read_only_cache(self):
        grid = SpectralGrid(3, 16)
        one, two = _power_symbol(grid, 1.0), _power_symbol(grid, 2.0)
        assert _power_symbol(SpectralGrid(3, 16), 1.0) is one
        assert not one.flags.writeable
        with pytest.raises(ValueError):
            one[1, 0, 0] = 5.0
        assert not np.array_equal(one, two)
        assert np.array_equal(two, grid.k_squared)
        u = random_form(grid, 0, np.random.default_rng(83))
        assert np.array_equal(fractional_power(u, 1.0).components[0], one * u.components[0])


class TestDealias:
    def test_mask_application(self):
        grid = SpectralGrid(2, 32)
        rng = np.random.default_rng(61)
        u = random_form(grid, 1, rng, kmax=grid.res / 2 - 1)
        v = dealias(u)
        for c in v.components:
            assert np.all(c[~grid.dealias_mask] == 0.0)

    def test_band_limited_untouched(self):
        grid = SpectralGrid(2, 32)
        rng = np.random.default_rng(67)
        u = random_form(grid, 1, rng)  # default band inside the mask
        assert field_close(dealias(u), u, 1e-15)


class TestSnapshotIO:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), n=st.sampled_from([2, 3]), seed=st.integers(0, 10_000))
    def test_round_trip_keeps_samples_bit_for_bit(self, data, n, seed, tmp_path_factory):
        # The snapshot holds the samples: loading gives, byte for byte, the
        # field from_physical makes of the saved field's samples.
        res = data.draw(st.sampled_from([4, 6, 8, 12] if n == 2 else [4, 6, 8]))
        degree = data.draw(st.integers(0, n))
        grid = SpectralGrid(n, res)
        u = random_form(grid, degree, np.random.default_rng(seed))
        path = tmp_path_factory.mktemp("snapshot") / "field.bin"
        save_field(u, path)
        v = load_field(path)
        assert (v.grid, v.degree) == (grid, degree)
        expected = FormField.from_physical(grid, degree, to_physical(u))
        for a, b in zip(v.components, expected.components):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("kmax", [None, 2])
    @pytest.mark.parametrize("grid", [SpectralGrid(2, 8), SpectralGrid(2, 256),
                                      SpectralGrid(3, 8), SpectralGrid(3, 16)])
    def test_files_and_loaded_halves_match_the_numpy_oracle(self, tmp_path, grid, kmax):
        # Written from each component's buffer and read into one array, the
        # files and the loaded halves are those of tobytes and frombuffer,
        # with every Nyquist line zeroed; a small kmax takes the pruned
        # inverse transform.
        rng = np.random.default_rng(89)
        for degree in range(grid.n + 1):
            u = random_form(grid, degree, rng, kmax=kmax)
            path = tmp_path / f"field{degree}.bin"
            save_field(u, path)
            raw = path.read_bytes()
            assert raw == snapshot_bytes(u)
            noisy = raw[:19] + rng.standard_normal(len(raw[19:]) // 8).astype("<f8").tobytes()
            path.write_bytes(noisy)
            v = load_field(path)
            assert (v.grid, v.degree) == (grid, degree)
            for a, b in zip(v.components, snapshot_components(noisy), strict=True):
                assert a.tobytes() == b.tobytes()

    def test_from_coefficients_copies(self):
        grid = SpectralGrid(2, 8)
        c = np.ones(grid.half_shape, dtype=np.complex128)
        u = FormField.from_coefficients(grid, 0, [c])
        assert np.all(c == 1.0) and not np.shares_memory(u.components[0], c)
        assert np.all(u.components[0][grid.nyquist_mask] == 0.0)

    def test_round_trip(self, tmp_path):
        grid = SpectralGrid(3, 12)
        rng = np.random.default_rng(71)
        u = random_form(grid, 2, rng)
        path = tmp_path / "field.bin"
        save_field(u, path)
        v = load_field(path)
        assert v.grid == grid and v.degree == 2
        assert field_close(v, u, 1e-12)

    def test_header_layout(self, tmp_path):
        grid = SpectralGrid(2, 16)
        u = FormField.zeros(grid, 1)
        path = tmp_path / "field.bin"
        save_field(u, path)
        raw = path.read_bytes()
        assert raw[:7] == b"HPFORM1"
        n, degree, res = np.frombuffer(raw[7:19], dtype="<i4")
        assert (n, degree, res) == (2, 1, 16)
        assert len(raw) == 19 + 2 * 16 * 16 * 8

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTFORM" + b"\0" * 64)
        with pytest.raises(FieldIntegrityError):
            load_field(path)

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "field.bin"
        path.write_bytes(b"HPFORM1\x02\x00")
        with pytest.raises(FieldIntegrityError, match="header truncated"):
            load_field(path)

    @pytest.mark.parametrize("header, problem", [
        ((4, 1, 16), "torus dimension n: 4"),
        ((2, -1, 16), "degree: -1"),
        ((2, 5, 16), "degree: 5"),
        ((3, 4, 8), "degree: 4"),
        ((2, 1, 7), "resolution res: 7"),
        ((2, 1, 2), "resolution res: 2"),
    ])
    def test_bad_header_fields_rejected(self, tmp_path, header, problem):
        # Checked as soon as the header is read: a bad degree would otherwise
        # fail in math.comb or the constructors with a generic ValueError.
        path = tmp_path / "field.bin"
        path.write_bytes(b"HPFORM1" + np.array(header, dtype="<i4").tobytes() + b"\0" * 64)
        with pytest.raises(FieldIntegrityError, match=f"bad {problem}"):
            load_field(path)

    @pytest.mark.parametrize("header", [(3, 1, 16384), (3, 1, 2**30)])
    def test_payload_checked_against_the_file_before_allocating(self, tmp_path, header):
        # An 83-byte file: its header promises far more than it holds (96 TiB
        # and 2**93 bytes), so the size check must come before np.empty.
        path = tmp_path / "field.bin"
        path.write_bytes(b"HPFORM1" + np.array(header, dtype="<i4").tobytes() + b"\0" * 64)
        assert path.stat().st_size == 83
        with pytest.raises(FieldIntegrityError, match="snapshot payload truncated"):
            load_field(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "field.bin"
        save_field(FormField.zeros(SpectralGrid(2, 8), 1), path)
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(FieldIntegrityError, match="snapshot payload truncated"):
            load_field(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "field.bin"
        save_field(FormField.zeros(SpectralGrid(2, 8), 1), path)
        path.write_bytes(path.read_bytes() + b"\0" * 8)
        with pytest.raises(FieldIntegrityError, match="after its payload"):
            load_field(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_samples_rejected(self, tmp_path, bad):
        path = tmp_path / "field.bin"
        save_field(FormField.zeros(SpectralGrid(2, 8), 1), path)
        raw = bytearray(path.read_bytes())
        raw[19:27] = np.array([bad], dtype="<f8").tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(FieldIntegrityError, match="non-finite"):
            load_field(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_from_physical_rejects_non_finite_samples(self, bad):
        grid = SpectralGrid(2, 8)
        samples = np.zeros(grid.shape)
        samples[3, 5] = bad
        with pytest.raises(FieldIntegrityError, match="non-finite"):
            FormField.from_physical(grid, 0, [samples])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_k_last_zero_plane_rejected(self, bad):
        # The plane check fails on non-finite coefficients; a bare
        # max > tol comparison would let NaN through.
        grid = SpectralGrid(2, 8)
        c = np.zeros(grid.half_shape, dtype=np.complex128)
        c[2, 0] = c[-2, 0] = bad
        u = FormField(grid, 0, (c,))
        assert not u.is_hermitian()
        with pytest.raises(FieldIntegrityError, match="Hermitian"):
            to_physical(u)


class TestFieldArithmetic:
    def test_linearity_of_derivative(self):
        grid = SpectralGrid(2, 16)
        rng = np.random.default_rng(73)
        u, v = random_form(grid, 0, rng), random_form(grid, 0, rng)
        lhs = exterior_derivative(2.0 * u - 0.5 * v)
        rhs = 2.0 * exterior_derivative(u) - 0.5 * exterior_derivative(v)
        assert field_close(lhs, rhs, 1e-13)

    def test_mismatched_fields_rejected(self):
        g1, g2 = SpectralGrid(2, 16), SpectralGrid(2, 32)
        with pytest.raises(ValueError):
            FormField.zeros(g1, 0) + FormField.zeros(g2, 0)
        with pytest.raises(ValueError):
            FormField.zeros(g1, 0) + FormField.zeros(g1, 1)
