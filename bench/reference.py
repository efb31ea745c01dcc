"""Reference computations in plain numpy, made apart from torusforms.

The benchmark generates its inputs here and checks the package's outputs
against these functions.  A field is a real sample array of shape
(ncomp, res, ..., res) on the torus [0, 2 pi)^n with the unit-mass
measure, so its L2 norm is the root mean square over the grid, summed
over components.  Spectra use numpy's real FFT over the spatial axes.
"""

from __future__ import annotations

import numpy as np


class Grid:
    """Wavenumbers, band mask and real transforms of an n-D periodic grid."""

    def __init__(self, n: int, res: int):
        self.n = n
        self.res = res
        self.shape = (res,) * n
        self.axes = tuple(range(-n, 0))
        modes = [np.fft.fftfreq(res, 1.0 / res)] * (n - 1)
        modes.append(np.fft.rfftfreq(res, 1.0 / res))
        self.k = np.stack(np.meshgrid(*modes, indexing="ij"))
        self.k2 = np.sum(self.k**2, axis=0)
        # Two-thirds rule, the band of the solver's state space.
        self.band = np.all(np.abs(self.k) <= res / 3.0, axis=0)

    def fwd(self, u: np.ndarray) -> np.ndarray:
        return np.fft.rfftn(u, axes=self.axes)

    def inv(self, uh: np.ndarray) -> np.ndarray:
        return np.fft.irfftn(uh, s=self.shape, axes=self.axes)


def l2(u: np.ndarray) -> float:
    """L2 norm with the unit-mass measure, summed over the leading axis."""
    return float(np.sqrt(np.mean(np.sum(np.asarray(u) ** 2, axis=0))))


def project_hat(grid: Grid, vh: np.ndarray) -> np.ndarray:
    """Band mask, Leray projection and mean removal of a vector spectrum."""
    vh = np.where(grid.band, vh, 0.0)
    k2 = np.where(grid.k2 > 0, grid.k2, 1.0)
    vh = vh - grid.k * (np.sum(grid.k * vh, axis=0) / k2)
    vh[(slice(None),) + (0,) * grid.n] = 0.0
    return vh


def random_velocity(grid: Grid, rng: np.random.Generator, kmax: float) -> np.ndarray:
    """Unit-L2, divergence-free, mean-free velocity with modes |k_j| <= kmax."""
    noise = rng.standard_normal((grid.n,) + grid.shape)
    keep = np.all(np.abs(grid.k) <= kmax, axis=0)
    u = grid.inv(project_hat(grid, np.where(keep, grid.fwd(noise), 0.0)))
    return u / l2(u)


def random_scalar(grid: Grid, rng: np.random.Generator, kmax: float) -> np.ndarray:
    """Band-limited Gaussian scalar field with modes |k_j| <= kmax."""
    noise = rng.standard_normal(grid.shape)
    keep = np.all(np.abs(grid.k) <= kmax, axis=0)
    return grid.inv(np.where(keep, grid.fwd(noise), 0.0))


def gradient(grid: Grid, u: np.ndarray) -> np.ndarray:
    """d u_i / d x_j as an (ncomp, n, res, ...) array."""
    uh = grid.fwd(u)
    return grid.inv(1j * grid.k[None, :] * uh[:, None])


def divergence_ratio(grid: Grid, u: np.ndarray) -> float:
    """|div u| / |grad u|; zero for a divergence-free field."""
    grads = gradient(grid, u)
    div = np.trace(grads, axis1=0, axis2=1)
    return float(np.sqrt(np.mean(div**2))) / max(
        float(np.sqrt(np.mean(np.sum(grads**2, axis=(0, 1))))), 1e-300)


def convective_hat(grid: Grid, u: np.ndarray) -> np.ndarray:
    """Spectrum of (u . grad) u, truncated to the two-thirds band.

    For band-limited u the grid product aliases only outside the band, so
    the truncation equals the exact product's.
    """
    grads = gradient(grid, u)
    conv = np.einsum("j...,ij...->i...", u, grads)
    return np.where(grid.band, grid.fwd(conv), 0.0)


def ns_terms(grid: Grid, mu: float, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """mu Lap u and P (u . grad) u, the two terms of the Navier-Stokes right-hand side."""
    viscous = grid.inv(-mu * grid.k2 * grid.fwd(u))
    convective = grid.inv(project_hat(grid, convective_hat(grid, u)))
    return viscous, convective


def ns_residual(grid: Grid, mu: float, prev: np.ndarray, cur: np.ndarray,
                nxt: np.ndarray, h: float) -> float:
    """Relative residual of du/dt = mu Lap u - P (u . grad) u at ``cur``.

    du/dt is the central difference over the samples ``prev`` and ``nxt``,
    a time h before and after; the residual of a second-order trajectory
    is O(h^2).
    """
    dudt = (nxt - prev) / (2.0 * h)
    viscous, convective = ns_terms(grid, mu, cur)
    scale = l2(dudt) + l2(viscous) + l2(convective)
    return l2(dudt - viscous + convective) / scale


def forward_cells(grid: Grid, mu: float, dt: float,
                  states: list[np.ndarray]) -> list[np.ndarray]:
    """Data (E^-1 u^{j+1} - u^j)/dt + P (u^j . grad) u^j of the imex-euler map.

    E = exp(mu dt Lap) is the exact heat step, so E^-1 multiplies mode k
    by exp(mu dt |k|^2).
    """
    grow = np.exp(mu * dt * grid.k2)
    cells = []
    for a, b in zip(states, states[1:]):
        cell = (grow * grid.fwd(b) - grid.fwd(a)) / dt
        cells.append(grid.inv(cell + project_hat(grid, convective_hat(grid, a))))
    return cells


def lp_norm(u: np.ndarray, p: float) -> float:
    """L^p norm of the fibre magnitude by grid quadrature (p = inf: max)."""
    mag = np.sqrt(np.sum(np.asarray(u) ** 2, axis=0))
    if np.isinf(p):
        return float(np.max(mag))
    return float(np.mean(mag**p) ** (1.0 / p))
