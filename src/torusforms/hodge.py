"""Helmholtz projection, Hodge decomposition, and pressure recovery.

Everything is assembled from the complex operations; the projection is
P = delta d phi + Pi, equal to I - d delta phi away from degree edges.
On the flat torus P is the orthogonal projection onto coclosed fields
(divergence-free plus harmonic), the kernel of the codifferential.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import (
    ConsistencyError,
    FormField,
    codifferential,
    exterior_derivative,
    harmonic_projection,
    inner_product,
    l2_norm,
    parametrix,
)


@dataclass(frozen=True)
class HodgeDecomposition:
    """Orthogonal pieces u = exact + coexact + harmonic."""

    exact: FormField
    coexact: FormField
    harmonic: FormField

    def reconstruct(self) -> FormField:
        return self.exact + self.coexact + self.harmonic


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


def recover_pressure(source: FormField) -> FormField:
    """Potential p with d p = source for a source in the exact range.

    Returns p = delta phi source, the unique potential that is coclosed
    and orthogonal to harmonics.  The source must be (numerically) free
    of any coclosed part: ``|P source| <= 1e-10 * |source|``.
    """
    if source.degree < 1:
        raise ValueError("pressure recovery needs a source of degree >= 1")
    scale = l2_norm(source)
    coclosed = helmholtz_project(source)
    residual = l2_norm(coclosed)
    if residual > 1e-10 * max(scale, 1e-300):
        raise ConsistencyError(
            f"source is not an exact field: |P source| = {residual:.3e} "
            f"exceeds 1.0e-10 * |source| = {1e-10 * scale:.3e}"
        )
    cleaned = source - coclosed
    return codifferential(parametrix(cleaned))
