"""Sobolev and Bochner norms, interpolation report, Gronwall check."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torusforms.norms import (
    BochnerIndex,
    GronwallReport,
    InterpolationReport,
    SobolevIndex,
    TimeSeriesSolution,
    bochner_norm,
    gagliardo_nirenberg_check,
    gronwall_envelope,
    sobolev_norm,
    split_sobolev_norm,
)
from torusforms.spectral import (
    FormField,
    SpectralGrid,
    l2_norm,
    lp_norm,
    pointwise_magnitude,
    random_form,
    remove_harmonic,
)

from oracles import observed_order


def rel_err(a, b):
    return abs(a - b) / max(abs(b), 1e-30)


def constant_one_form(grid, values):
    return FormField.from_physical(
        grid, 1, [np.full(grid.shape, v) for v in values]
    )


def decaying_wave_series(grid, times):
    """u(t) = exp(-t) sin(x1) dx2 on T^2: divergence-free unit eigenfield."""
    x, _ = grid.meshes()
    zero = np.zeros(grid.shape)
    base = FormField.from_physical(grid, 1, [zero, np.sin(x)])
    u = [float(np.exp(-t)) * base for t in times]
    d1 = [-float(np.exp(-t)) * base for t in times]
    d2 = [float(np.exp(-t)) * base for t in times]
    return TimeSeriesSolution(times, u, dt_cache={1: d1, 2: d2})


class TestSobolevNorm:
    def test_constant_field(self):
        grid = SpectralGrid(2, 16)
        u = constant_one_form(grid, (3.0, 4.0))
        for s in (0.0, 1.0, 2.5):
            assert rel_err(sobolev_norm(u, SobolevIndex(s, 2.0)), 5.0) < 1e-13

    def test_sine_second_order(self):
        grid = SpectralGrid(2, 32)
        x, _ = grid.meshes()
        u = FormField.from_physical(grid, 0, [np.sin(x)])
        expect = np.sqrt(0.5)
        assert rel_err(sobolev_norm(u, SobolevIndex(2.0, 2.0)), expect) < 1e-13

    def test_zero_order_is_l2_on_mean_free(self):
        grid = SpectralGrid(2, 16)
        u = remove_harmonic(random_form(grid, 1, np.random.default_rng(3)))
        assert rel_err(sobolev_norm(u, SobolevIndex(0.0, 2.0)), l2_norm(u)) < 1e-12

    def test_spectral_matches_physical_quadrature(self):
        # p = 2 evaluated through Parseval equals the grid quadrature
        grid = SpectralGrid(2, 32)
        u = random_form(grid, 1, np.random.default_rng(5))
        # grad part plus harmonic part recombine to the plain L^2 norm
        spectral = sobolev_norm(u, SobolevIndex(0.0, 2.0))
        quad = float(np.sqrt(np.mean(pointwise_magnitude(u) ** 2)))
        assert rel_err(spectral, quad) < 1e-10

    def test_sup_norm_flavour(self):
        grid = SpectralGrid(2, 64)
        x, _ = grid.meshes()
        u = FormField.from_physical(grid, 0, [np.sin(x) + 2.0])
        value = sobolev_norm(u, SobolevIndex(0.0, np.inf))
        assert rel_err(value, 2.0) < 1e-12  # max(|sin| sup = 1, |mean| = 2)

    @settings(max_examples=15, deadline=None)
    @given(lam=st.floats(min_value=-5, max_value=5), seed=st.integers(0, 50))
    def test_homogeneity(self, lam, seed):
        grid = SpectralGrid(2, 8)
        u = random_form(grid, 1, np.random.default_rng(seed))
        idx = SobolevIndex(1.0, 2.0)
        assert abs(
            sobolev_norm(lam * u, idx) - abs(lam) * sobolev_norm(u, idx)
        ) <= 1e-11 * max(sobolev_norm(u, idx), 1.0)

    def test_index_validation(self):
        with pytest.raises(ValueError):
            SobolevIndex(-1.0, 2.0)
        with pytest.raises(ValueError):
            SobolevIndex(1.0, 1.0)


class TestSplitSobolevNorm:
    def test_matches_fractional_at_p2(self):
        for grid in (SpectralGrid(2, 16), SpectralGrid(3, 12)):
            rng = np.random.default_rng(7)
            for degree in range(grid.n + 1):
                u = random_form(grid, degree, rng)
                for m in range(7):
                    a = split_sobolev_norm(u, m, 2.0)
                    b = sobolev_norm(u, SobolevIndex(float(m), 2.0))
                    assert rel_err(a, b) < 1e-12

    def test_harmonic_field_all_orders(self):
        grid = SpectralGrid(2, 16)
        u = constant_one_form(grid, (1.0, -2.0))
        for m in range(5):
            for p in (2.0, 4.0, np.inf):
                assert rel_err(split_sobolev_norm(u, m, p), lp_norm(u, p)) < 1e-12


class TestBochnerNorm:
    def test_hand_count_stationary_harmonic(self):
        # constant c, k = 0, s = 1, T = 1: the three j = 0 sup terms each
        # contribute |c|^2 through the harmonic part; everything else is 0
        grid = SpectralGrid(2, 16)
        c = constant_one_form(grid, (2.0, 1.0))
        times = np.linspace(0.0, 1.0, 11)
        zero = FormField.zeros(grid, 1)
        sol = TimeSeriesSolution(
            times, [c] * 11, dt_cache={1: [zero] * 11}
        )
        value = bochner_norm(sol, BochnerIndex(0, 1, "vel"))
        c_sq = l2_norm(c) ** 2
        assert rel_err(value**2, 3.0 * c_sq) < 1e-12

    def test_closed_form_decaying_wave(self):
        # norm^2 = 4 * 1/2 (sup terms) + 4 * (1 - e^-2)/4 (time integrals)
        grid = SpectralGrid(2, 16)
        times = np.arange(0.0, 1.0 + 1e-9, 1e-3)
        sol = decaying_wave_series(grid, times)
        value = bochner_norm(sol, BochnerIndex(0, 1, "vel"))
        expect_sq = 2.0 + (1.0 - np.exp(-2.0))
        assert rel_err(value**2, expect_sq) < 1e-6

    def test_refinement_order(self):
        grid = SpectralGrid(2, 16)
        exact_sq = 2.0 + (1.0 - np.exp(-2.0))
        errors = []
        for dt in (0.02, 0.01, 0.005):
            times = np.arange(0.0, 1.0 + 1e-12, dt)
            sol = decaying_wave_series(grid, times)
            value = bochner_norm(sol, BochnerIndex(0, 1, "vel"))
            errors.append(abs(value**2 - exact_sq))
        assert observed_order(errors) >= 1.9

    def test_zero_series(self):
        grid = SpectralGrid(2, 16)
        zero = FormField.zeros(grid, 1)
        sol = TimeSeriesSolution(
            np.array([0.0, 1.0]), [zero, zero], dt_cache={1: [zero, zero]}
        )
        assert bochner_norm(sol, BochnerIndex(0, 1, "vel")) == 0.0

    def test_velocity_role_rejects_divergent_series(self):
        grid = SpectralGrid(2, 16)
        x, _ = grid.meshes()
        u = FormField.from_physical(grid, 1, [np.sin(x), np.zeros(grid.shape)])
        sol = TimeSeriesSolution(
            np.array([0.0, 1.0]), [u, u],
            dt_cache={1: [FormField.zeros(grid, 1)] * 2},
        )
        with pytest.raises(ValueError):
            bochner_norm(sol, BochnerIndex(0, 1, "vel"))
        # the forcing flavour accepts the same series
        assert bochner_norm(sol, BochnerIndex(0, 1, "for")) > 0

    def test_missing_derivative_cache(self):
        grid = SpectralGrid(2, 16)
        zero = FormField.zeros(grid, 1)
        sol = TimeSeriesSolution(np.array([0.0, 1.0]), [zero, zero])
        with pytest.raises(ValueError):
            bochner_norm(sol, BochnerIndex(0, 1, "vel"))

    def test_pressure_flavour_closed_form(self):
        # p(t) = exp(-t) cos x1: |d p(t)|^2 = exp(-2t)/2 at every order
        grid = SpectralGrid(2, 16)
        x, _ = grid.meshes()
        base = FormField.from_physical(grid, 0, [np.cos(x)])
        times = np.arange(0.0, 1.0 + 1e-9, 1e-3)
        p = [float(np.exp(-t)) * base for t in times]
        sol = TimeSeriesSolution(times, [FormField.zeros(grid, 1)] * len(times),
                                 p=p)
        value = bochner_norm(sol, BochnerIndex(0, 0, "pre"))
        expect_sq = 0.5 + (1.0 - np.exp(-2.0)) / 4.0
        assert rel_err(value**2, expect_sq) < 1e-6

    def test_reduces_to_display_on_mean_free(self):
        # stationary mean-free field at (k, s) = (0, 0): norm^2 should be
        # sup |u|^2 + int |grad u|^2 exactly
        grid = SpectralGrid(2, 16)
        u = remove_harmonic(random_form(grid, 1, np.random.default_rng(11)))
        times = np.linspace(0.0, 2.0, 41)
        sol = TimeSeriesSolution(times, [u] * len(times))
        value = bochner_norm(sol, BochnerIndex(0, 0, "for"))
        from torusforms.spectral import fractional_power

        expect_sq = l2_norm(u) ** 2 + 2.0 * l2_norm(fractional_power(u, 1.0)) ** 2
        assert rel_err(value**2, expect_sq) < 1e-12


class TestInterpolationCheck:
    def test_classical_sobolev_case(self):
        # j0 = 0, m0 = 1, r0 = 2, p0 = 2n/(n-2) = 6 on T^3 forces a = 1
        grid = SpectralGrid(3, 16)
        v = random_form(grid, 0, np.random.default_rng(13))
        report = gagliardo_nirenberg_check(v, 0, 1, 6.0, 2.0, 2.0)
        assert abs(report.a - 1.0) < 1e-12
        assert np.isfinite(report.ratio) and report.ratio > 0

    def test_constant_field_zero_lhs(self):
        grid = SpectralGrid(2, 16)
        v = FormField.from_physical(grid, 0, [np.full(grid.shape, 2.0)])
        report = gagliardo_nirenberg_check(v, 1, 2, 2.0, 2.0, 2.0)
        assert abs(report.a - 0.5) < 1e-12
        assert report.exceptional  # m0 - j0 - n/r0 = 0
        assert report.lhs < 1e-13 and report.ratio < 1e-12

    def test_exceptional_case_rejects_a_equal_one(self):
        # r0 = 2, m0 - j0 - n/r0 = 0 and p0 = inf would need a = 1
        grid = SpectralGrid(2, 16)
        v = random_form(grid, 0, np.random.default_rng(17))
        with pytest.raises(ValueError):
            gagliardo_nirenberg_check(v, 0, 1, np.inf, 2.0, 2.0)

    def test_inadmissible_exponent(self):
        grid = SpectralGrid(2, 16)
        v = random_form(grid, 0, np.random.default_rng(19))
        # balance gives a < j0/m0 here: 1/p0 too large
        with pytest.raises(ValueError):
            gagliardo_nirenberg_check(v, 1, 2, 1.2, 2.0, 2.0)

    def test_scaling_cancels_in_ratio(self):
        grid = SpectralGrid(2, 32)
        v = remove_harmonic(random_form(grid, 0, np.random.default_rng(23)))
        r1 = gagliardo_nirenberg_check(v, 0, 1, 4.0, 2.0, 2.0)
        r2 = gagliardo_nirenberg_check(3.0 * v, 0, 1, 4.0, 2.0, 2.0)
        assert rel_err(r2.ratio, r1.ratio) < 1e-10

    def test_l2_norm_taken_once_when_q0_is_two(self, monkeypatch):
        # |v|_q0 at q0 = 2 is |v|_2, which the check already holds.
        import torusforms.norms as norms_module
        import torusforms.spectral as spectral_module
        grid = SpectralGrid(3, 16)
        v = random_form(grid, 0, np.random.default_rng(29), kmax=3)
        expect = gagliardo_nirenberg_check(v, 0, 1, 6.0, 2.0, 2.0)
        taken = []

        def counted(u):
            taken.append(u)
            return l2_norm(u)
        monkeypatch.setattr(norms_module, "l2_norm", counted)
        monkeypatch.setattr(spectral_module, "l2_norm", counted)
        report = gagliardo_nirenberg_check(v, 0, 1, 6.0, 2.0, 2.0)
        assert report == expect
        # |grad v|_2 through lp_norm, and |v|_2 once.
        assert len(taken) == 2 and sum(u is v for u in taken) == 1


class TestGronwall:
    def test_zero_rate_reduces_to_bound(self):
        times = np.linspace(0, 1, 50)
        A = np.full_like(times, 2.0)
        report = gronwall_envelope(times, A, np.zeros_like(times), A * 0.9)
        assert report.valid and report.holds
        assert np.allclose(report.envelope, A)

    def test_exponential_saturation(self):
        # Y = e^t saturates A = 1, B = 1: envelope equals Y exactly
        times = np.linspace(0, 2, 400)
        Y = np.exp(times)
        report = gronwall_envelope(times, np.ones_like(times), np.ones_like(times), Y)
        assert report.valid
        assert np.all(report.hypothesis_ok)
        assert np.all(report.envelope_ok)
        assert np.max(np.abs(report.envelope - Y) / Y) < 1e-4

    def test_violating_values_detected(self):
        times = np.linspace(0, 1, 50)
        A = np.ones_like(times)
        Y = 1.0 + 2.0 * times  # grows faster than the envelope allows
        report = gronwall_envelope(times, A, np.zeros_like(times), Y)
        assert report.valid and not report.holds

    def test_decreasing_bound_rejected(self):
        times = np.linspace(0, 1, 10)
        A = 1.0 - times
        report = gronwall_envelope(times, A, np.zeros_like(times), np.zeros_like(times))
        assert not report.valid and report.envelope is None
        assert "decreases" in report.reason

    def test_negative_rate_rejected(self):
        times = np.linspace(0, 1, 10)
        report = gronwall_envelope(
            times, np.ones_like(times), -np.ones_like(times), np.zeros_like(times)
        )
        assert not report.valid
        assert "negative" in report.reason

    def test_heat_decay_envelope(self):
        # discrete heat energy fits under its own initial-value envelope
        times = np.linspace(0, 1, 200)
        energy = 4.0 * np.exp(-2.0 * times)
        report = gronwall_envelope(
            times, np.full_like(times, 4.0), np.zeros_like(times), energy
        )
        assert report.holds


class TestEmbeddingConsistency:
    def test_ratio_stable_under_resolution_doubling(self):
        # L^2(I, L^inf) and L^inf(I, L^n) against the velocity norm for the
        # same band-limited trajectory quadratured on two grids
        ratios = []
        for res in (32, 64):
            grid = SpectralGrid(2, res)
            x, _ = grid.meshes()
            zero = np.zeros(grid.shape)
            base = FormField.from_physical(grid, 1, [zero, np.sin(x)])
            times = np.linspace(0.0, 1.0, 101)
            u = [float(np.exp(-t)) * base for t in times]
            d1 = [-float(np.exp(-t)) * base for t in times]
            sol = TimeSeriesSolution(times, u, dt_cache={1: d1})
            vel = bochner_norm(sol, BochnerIndex(0, 1, "vel"))
            sup_t = np.array([lp_norm(w, np.inf) for w in u])
            l2_of_sup = float(np.sqrt(np.trapezoid(sup_t**2, times)))
            sup_of_ln = max(lp_norm(w, float(grid.n)) for w in u)
            ratios.append((l2_of_sup / vel, sup_of_ln / vel))
        for a, b in zip(ratios[0], ratios[1]):
            assert rel_err(a, b) < 0.10


class TestTimeSeriesValidation:
    def test_time_grid_checks(self):
        grid = SpectralGrid(2, 16)
        zero = FormField.zeros(grid, 1)
        with pytest.raises(ValueError):
            TimeSeriesSolution(np.array([0.0]), [zero])
        with pytest.raises(ValueError):
            TimeSeriesSolution(np.array([0.0, 0.0]), [zero, zero])
        with pytest.raises(ValueError):
            TimeSeriesSolution(np.array([0.0, 1.0]), [zero])

    @pytest.mark.parametrize("times", [
        [0.0, np.nan, 1.0], [0.0, 1.0, np.inf], [np.nan, 0.5, 1.0], [-np.inf, 0.0, 1.0],
    ])
    def test_non_finite_times_rejected(self, times):
        # A NaN compares False with everything, so it passes the strict
        # increase check; the norms would then read nan or inf.
        zero = FormField.zeros(SpectralGrid(2, 16), 1)
        with pytest.raises(ValueError, match="sample times must be finite"):
            TimeSeriesSolution(np.array(times), [zero] * 3)

    @pytest.mark.parametrize("cache, order, length", [
        ("dt_cache", 1, 2), ("dt_cache", 1, 5), ("dt_cache", 2, 2),
        ("p_dt_cache", 1, 2), ("p_dt_cache", 1, 4),
    ])
    def test_mis_sized_cache_rejected(self, cache, order, length):
        # Too short a cache gave a silently wrong Bochner norm, too long one
        # a broadcast error inside the norm.
        zero = FormField.zeros(SpectralGrid(2, 16), 1)
        caches = {"dt_cache": {1: [zero] * 3}, "p_dt_cache": {}}
        caches[cache][order] = [zero] * length
        with pytest.raises(ValueError, match=rf"{cache}\[{order}\] has {length} "
                                             "samples for 3 sample times"):
            TimeSeriesSolution(np.array([0.0, 0.5, 1.0]), [zero] * 3, p=[zero] * 3,
                               **caches)

    @pytest.mark.parametrize("series, index, expected", [
        ("u", 2, "u[2] is a field of degree 1 on SpectralGrid(n=2, res=8), not of "
                 "degree 1 on SpectralGrid(n=2, res=16)"),
        ("dt_cache", 1, "dt_cache[1][1] is a field of degree 0 on SpectralGrid(n=2, "
                        "res=16), not of degree 1"),
        ("p", 1, "p[1] is a field of degree 0 on SpectralGrid(n=3, res=16), not of "
                 "degree 0 on SpectralGrid(n=2, res=16)"),
        ("p_dt_cache", 0, "p_dt_cache[1][0] is a field of degree 1 on "
                          "SpectralGrid(n=2, res=16), not of degree 0"),
    ])
    def test_fields_share_one_grid_and_degree(self, series, index, expected):
        # Mixed grids loaded and then failed inside bochner_norm with a
        # broadcast error.  p may have any degree, but one for all samples.
        grid = SpectralGrid(2, 16)
        stray = {"u": FormField.zeros(SpectralGrid(2, 8), 1),
                 "dt_cache": FormField.zeros(grid, 0),
                 "p": FormField.zeros(SpectralGrid(3, 16), 0),
                 "p_dt_cache": FormField.zeros(grid, 1)}[series]
        data = {"u": [FormField.zeros(grid, 1)] * 3, "p": [FormField.zeros(grid, 0)] * 3,
                "dt_cache": [FormField.zeros(grid, 1)] * 3,
                "p_dt_cache": [FormField.zeros(grid, 0)] * 3}
        data[series] = data[series][:index] + [stray] + data[series][index + 1:]
        with pytest.raises(ValueError, match=re.escape(expected)):
            TimeSeriesSolution(np.array([0.0, 0.5, 1.0]), data["u"], p=data["p"],
                               dt_cache={1: data["dt_cache"]},
                               p_dt_cache={1: data["p_dt_cache"]})
