"""Projection and decomposition identities, pressure recovery."""

import numpy as np
import pytest

from torusforms.hodge import (
    HodgeDecomposition,
    helmholtz_project,
    hodge_decompose,
    recover_pressure,
)
from torusforms.spectral import (
    ConsistencyError,
    FormField,
    SpectralGrid,
    codifferential,
    exterior_derivative,
    harmonic_projection,
    inner_product,
    l2_norm,
    random_form,
    remove_harmonic,
)


def rel_err(a, b):
    return abs(a - b) / max(abs(b), 1e-30)


def field_close(u, v, tol):
    return l2_norm(u - v) <= tol * max(l2_norm(v), 1e-30)


GRIDS = [SpectralGrid(2, 16), SpectralGrid(3, 12)]


class TestHelmholtzProjection:
    def test_idempotent_self_adjoint_orthogonal(self):
        for grid in GRIDS:
            rng = np.random.default_rng(101)
            for degree in range(grid.n + 1):
                for _ in range(10):
                    u = random_form(grid, degree, rng)
                    v = random_form(grid, degree, rng)
                    pu = helmholtz_project(u)
                    scale = max(l2_norm(u), 1.0)
                    assert l2_norm(helmholtz_project(pu) - pu) <= 1e-12 * scale
                    lhs = inner_product(pu, v)
                    rhs = inner_product(u, helmholtz_project(v))
                    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)
                    assert abs(inner_product(pu, u - pu)) <= 1e-12 * scale**2

    def test_kills_gradients_keeps_divergence_free(self):
        grid = SpectralGrid(2, 32)
        x, y = grid.meshes()
        grad = exterior_derivative(
            FormField.from_physical(grid, 0, [np.sin(x) * np.cos(y)])
        )
        assert l2_norm(helmholtz_project(grad)) <= 1e-12 * l2_norm(grad)
        divfree = FormField.from_physical(
            grid, 1, [-np.sin(y) * np.cos(x), np.sin(x) * np.cos(y)]
        )
        # check the test fixture really is divergence-free
        assert l2_norm(codifferential(divfree)) < 1e-12
        assert field_close(helmholtz_project(divfree), divfree, 1e-12)

    def test_coclosed_output(self):
        for grid in GRIDS:
            rng = np.random.default_rng(103)
            for degree in range(1, grid.n + 1):
                u = random_form(grid, degree, rng)
                pu = helmholtz_project(u)
                assert l2_norm(codifferential(pu)) <= 1e-12 * max(l2_norm(u), 1.0)

    def test_complement_identity(self):
        # P = I - d delta phi for degree >= 1
        for grid in GRIDS:
            rng = np.random.default_rng(107)
            for degree in range(1, grid.n + 1):
                u = random_form(grid, degree, rng)
                from torusforms.spectral import parametrix

                alt = u - exterior_derivative(codifferential(parametrix(u)))
                assert field_close(helmholtz_project(u), alt, 1e-12)

    def test_degree_edges(self):
        grid = SpectralGrid(2, 16)
        rng = np.random.default_rng(109)
        scalar = random_form(grid, 0, rng)
        assert field_close(helmholtz_project(scalar), scalar, 1e-14)
        top = random_form(grid, 2, rng)
        assert field_close(
            helmholtz_project(top), harmonic_projection(top), 1e-14
        )


class TestHodgeDecomposition:
    def test_reconstruction_and_orthogonality(self):
        for grid in GRIDS:
            rng = np.random.default_rng(113)
            for degree in range(grid.n + 1):
                for _ in range(10):
                    u = random_form(grid, degree, rng)
                    dec = hodge_decompose(u)
                    scale = max(l2_norm(u), 1.0)
                    assert l2_norm(dec.exact + dec.coexact + dec.harmonic - u) <= 1e-12 * scale
                    pairs = [
                        (dec.exact, dec.coexact),
                        (dec.exact, dec.harmonic),
                        (dec.coexact, dec.harmonic),
                    ]
                    for a, b in pairs:
                        assert abs(inner_product(a, b)) <= 1e-12 * scale**2

    def test_pythagoras(self):
        grid = SpectralGrid(3, 12)
        rng = np.random.default_rng(127)
        u = random_form(grid, 1, rng)
        dec = hodge_decompose(u)
        total = (
            l2_norm(dec.exact) ** 2
            + l2_norm(dec.coexact) ** 2
            + l2_norm(dec.harmonic) ** 2
        )
        assert rel_err(total, l2_norm(u) ** 2) < 1e-12

    def test_harmonic_field(self):
        grid = SpectralGrid(2, 16)
        ones = np.ones(grid.shape)
        u = FormField.from_physical(grid, 1, [ones, -ones])
        dec = hodge_decompose(u)
        assert l2_norm(dec.exact) < 1e-14
        assert l2_norm(dec.coexact) < 1e-14
        assert field_close(dec.harmonic, u, 1e-14)

    def test_exact_input(self):
        grid = SpectralGrid(3, 12)
        rng = np.random.default_rng(131)
        alpha = random_form(grid, 0, rng)
        da = exterior_derivative(alpha)
        dec = hodge_decompose(da)
        assert field_close(dec.exact, da, 1e-12)
        assert l2_norm(dec.coexact) <= 1e-12 * l2_norm(da)
        assert l2_norm(dec.harmonic) <= 1e-12 * l2_norm(da)


class TestPressureRecovery:
    def test_recovers_known_potential(self):
        for grid in GRIDS:
            rng = np.random.default_rng(137)
            # coclosed mean-free potential of degree 0: any mean-free scalar
            q = remove_harmonic(random_form(grid, 0, rng))
            p = recover_pressure(exterior_derivative(q))
            assert field_close(p, q, 1e-12)

    def test_analytic_gradient(self):
        grid = SpectralGrid(2, 32)
        x, y = grid.meshes()
        q = FormField.from_physical(grid, 0, [np.cos(x) * np.cos(y)])
        p = recover_pressure(exterior_derivative(q))
        assert field_close(p, q, 1e-12)

    def test_zero_source(self):
        grid = SpectralGrid(2, 16)
        p = recover_pressure(FormField.zeros(grid, 1))
        assert l2_norm(p) == 0.0

    def test_properties_of_result(self):
        grid = SpectralGrid(3, 12)
        rng = np.random.default_rng(139)
        q = remove_harmonic(random_form(grid, 1, rng))
        # build an exact degree-2 source, recover its degree-1 potential
        source = exterior_derivative(q)
        p = recover_pressure(source)
        # coclosed and orthogonal to harmonics
        assert l2_norm(codifferential(p)) <= 1e-12 * max(l2_norm(p), 1.0)
        assert l2_norm(harmonic_projection(p)) <= 1e-13
        # reproduces the source
        assert field_close(exterior_derivative(p), source, 1e-12)

    def test_rejects_divergence_free_contamination(self):
        grid = SpectralGrid(2, 16)
        rng = np.random.default_rng(149)
        u = random_form(grid, 1, rng)
        contaminated = helmholtz_project(u) - harmonic_projection(u)
        with pytest.raises(ConsistencyError):
            recover_pressure(contaminated)

    def test_degree_zero_rejected(self):
        grid = SpectralGrid(2, 16)
        with pytest.raises(ValueError):
            recover_pressure(FormField.zeros(grid, 0))

    def test_roundtrip_with_projection_complement(self):
        # recover_pressure((I-P)F) then d p reproduces (I-P)F
        grid = SpectralGrid(2, 16)
        rng = np.random.default_rng(151)
        F = random_form(grid, 1, rng)
        complement = F - helmholtz_project(F)
        p = recover_pressure(complement)
        assert field_close(exterior_derivative(p), complement, 1e-11)
