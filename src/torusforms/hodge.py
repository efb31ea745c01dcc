"""Helmholtz projection and Hodge decomposition.

Everything is assembled from the complex operations; the projection is
P = delta d phi + Pi, equal to I - d delta phi away from degree edges.
On the flat torus P is the orthogonal projection onto coclosed fields
(divergence-free plus harmonic), the kernel of the codifferential.  The
solvers' pressure is ``solver._pressure``, in closed form on band halves.
"""

from __future__ import annotations

from dataclasses import dataclass

from .spectral import (
    FormField,
    codifferential,
    exterior_derivative,
    harmonic_projection,
    parametrix,
)


@dataclass(frozen=True)
class HodgeDecomposition:
    """Orthogonal pieces u = exact + coexact + harmonic."""

    exact: FormField
    coexact: FormField
    harmonic: FormField


def helmholtz_project(u: FormField) -> FormField:
    """Orthogonal projection onto ker(codifferential).

    delta d phi + Pi; idempotent, self-adjoint, and annihilated by the
    codifferential.  At top degree it reduces to the harmonic projection,
    at degree 0 it is the identity.
    """
    out = harmonic_projection(u)
    if u.degree < u.grid.n:
        out = out + codifferential(exterior_derivative(parametrix(u)))
    return out


def hodge_decompose(u: FormField) -> HodgeDecomposition:
    """Split into exact, coexact, and harmonic parts.

    exact = d delta phi u, coexact = delta d phi u, harmonic = Pi u; the
    three pieces are mutually L^2-orthogonal and sum back to u.
    """
    pu = parametrix(u)
    exact = (
        exterior_derivative(codifferential(pu))
        if u.degree > 0
        else FormField.zeros(u.grid, u.degree)
    )
    coexact = (
        codifferential(exterior_derivative(pu))
        if u.degree < u.grid.n
        else FormField.zeros(u.grid, u.degree)
    )
    return HodgeDecomposition(exact, coexact, harmonic_projection(u))

