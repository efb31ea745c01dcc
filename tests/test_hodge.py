"""Projection and decomposition identities, and the solvers' pressure."""

import numpy as np
import pytest

from torusforms.hodge import (
    HodgeDecomposition,
    helmholtz_project,
    hodge_decompose,
)
from torusforms.solver import SolverConfig, solve_nonlinear
from torusforms.spectral import (
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


class TestSolverPressure:
    # The solvers' pressure is the potential of the source's gradient part:
    # with forcing d q, zero u0 and the zero preset, u stays 0 and every
    # stored p is q, for q mean-free and coclosed (its own potential).
    @pytest.mark.parametrize("case", ["T2-degree1", "T2-degree2", "T3-degree1",
                                      "T3-degree2", "cos-x-cos-y", "zero-forcing"])
    def test_gradient_forcing_stores_its_potential(self, case):
        rng = np.random.default_rng(137)
        grid, degree = {"T2-degree2": (GRIDS[0], 2), "T3-degree1": (GRIDS[1], 1),
                        "T3-degree2": (GRIDS[1], 2)}.get(case, (GRIDS[0], 1))
        q = remove_harmonic(helmholtz_project(random_form(grid, degree - 1, rng)))
        if case == "cos-x-cos-y":
            x, y = grid.meshes()
            q = FormField.from_physical(grid, 0, [np.cos(x) * np.cos(y)])
        elif case == "zero-forcing":
            q = FormField.zeros(grid, 0)
        cfg = SolverConfig(mu=0.1, T=0.02, dt=0.01, res=grid.res, degree=degree,
                           preset="zero", n=grid.n)
        dq = exterior_derivative(q)
        sol = solve_nonlinear(dq, FormField.zeros(grid, degree), cfg)
        assert len(sol.p) == 3
        for p in sol.p:
            if case == "zero-forcing":
                assert all(not np.any(c) for c in p.components)
                continue
            assert field_close(p, q, 1e-12)
            if p.degree >= 1:
                assert l2_norm(codifferential(p)) <= 1e-12 * l2_norm(p)
            assert l2_norm(harmonic_projection(p)) <= 1e-13
            assert field_close(exterior_derivative(p), dq, 1e-12)
