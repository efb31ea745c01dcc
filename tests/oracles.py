"""Independent numerical oracles used to validate the spectral code paths.

Everything here works on physical sample arrays, with periodic rolls and
plain quadrature sums or numpy's n-D FFTs on the whole grid; nothing
touches the package's transforms, band halves or exterior calculus, so
agreement between the two is a real check.  The snapshot oracles write and
read the snapshot format with numpy's whole-grid transforms, a
``.tobytes()`` copy per component and ``np.frombuffer``.  The
Galerkin-basis oracles enumerate wavevectors one by one and take kernels
by numpy's pinv.  The
one exception is ``galerkin_project``, the dense-Galerkin oracle's
coefficients of a field in a basis: it gathers them from the field's band
halves, the inverse of ``GalerkinBasis.synthesize``.
"""

from __future__ import annotations

from itertools import product
from math import comb

import numpy as np

from torusforms.nonlinear import checked_state

# 8th-order central first-derivative stencil (offsets 1..4).
_STENCIL_8 = (4.0 / 5.0, -1.0 / 5.0, 4.0 / 105.0, -1.0 / 280.0)

# 2nd-order central stencil for convergence-order studies.
_STENCIL_2 = (0.5,)


def periodic_derivative(samples: np.ndarray, axis: int, spacing: float,
                        order: int = 8) -> np.ndarray:
    """Central finite-difference d/dx_axis on a periodic grid."""
    coeffs = _STENCIL_8 if order == 8 else _STENCIL_2
    out = np.zeros_like(samples, dtype=np.float64)
    for offset, c in enumerate(coeffs, start=1):
        out += c * (np.roll(samples, -offset, axis=axis)
                    - np.roll(samples, offset, axis=axis))
    return out / spacing


def quadrature_inner(a_samples: list[np.ndarray], b_samples: list[np.ndarray]) -> float:
    """Componentwise physical-grid quadrature of (a, b), unit total measure."""
    total = 0.0
    for a, b in zip(a_samples, b_samples):
        total += float(np.mean(a * b))
    return total


def convective_term_fd(u_samples: list[np.ndarray], spacing: float,
                       order: int = 8) -> list[np.ndarray]:
    """(u . grad) u for a velocity given by component samples."""
    n = len(u_samples)
    out = []
    for a in range(n):
        acc = np.zeros_like(u_samples[0])
        for j in range(n):
            acc += u_samples[j] * periodic_derivative(u_samples[a], j, spacing, order)
        out.append(acc)
    return out


def taylor_green_velocity(grid_meshes: list[np.ndarray], t: float, mu: float) -> list[np.ndarray]:
    """Closed-form decaying vortex on T^2 used as the solver oracle."""
    x, y = grid_meshes
    decay = np.exp(-2.0 * mu * t)
    return [decay * np.sin(x) * np.cos(y), -decay * np.cos(x) * np.sin(y)]


def taylor_green_pressure(grid_meshes: list[np.ndarray], t: float, mu: float) -> np.ndarray:
    """Pressure paired with taylor_green_velocity.

    For u = (sin x cos y, -cos x sin y) the balance (u.grad)u + grad p = 0
    forces p = +1/4 (cos 2x + cos 2y) e^{-4 mu t}; the -1/4 form seen in
    many references belongs to the opposite orientation
    (cos x sin y, -sin x cos y).  Verified against the finite-difference
    convective term at 256^2 (residual ~4e-14).
    """
    x, y = grid_meshes
    decay = np.exp(-4.0 * mu * t)
    return 0.25 * decay * (np.cos(2 * x) + np.cos(2 * y))


def observed_order(errors: list[float]) -> float:
    """Smallest log2 ratio of consecutive errors under step halving."""
    rates = [np.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)]
    return float(min(rates))


# -- Galerkin-basis oracles: the mode enumeration and the fibre spaces -------


def product_canonical_modes(n: int, res: int) -> list[tuple[int, ...]]:
    """Nonzero band wavevectors (|k_i| <= res/3) with positive leading
    nonzero component, enumerated one by one and sorted by (|k|^2, k)."""
    limit = int(res / 3.0)
    axes = range(-limit, limit + 1)
    modes = [k for k in product(*([axes] * n))
             if any(k) and next(kj for kj in k if kj != 0) > 0]
    modes.sort(key=lambda k: (sum(kj * kj for kj in k), k))
    return modes


def pinv_kernel_projector(L: np.ndarray) -> np.ndarray:
    """Orthogonal projectors I - pinv(L) L onto ker L, for a stack of
    matrices L of shape (m, rows, cols); the identity where L has no rows."""
    eye = np.broadcast_to(np.eye(L.shape[-1]), L.shape[:-2] + (L.shape[-1],) * 2)
    return eye if L.shape[-2] == 0 else eye - np.linalg.pinv(L) @ L


def galerkin_project(basis, u) -> np.ndarray:
    """Coefficients (u, b_j) of the basis expansion, read from u's band
    halves at +k_j and -k_j after the entry check against the basis grid
    and degree (``checked_state``, named "projected field")."""
    halves = checked_state(u, basis.grid, basis.degree, "projected field").halves
    at = []
    for index, mirrored in basis._half_index:
        values = np.stack([h[index] for h in halves], axis=-1)
        values[mirrored] = np.conj(values[mirrored])
        at.append(values)
    phase = basis._phase[:, None]
    pair = np.conj(phase) * at[0] + phase * at[1]
    return np.sum(basis.fibres * pair.real, axis=-1)


# -- spectral oracles for the incompressible equations (vector fields) -------


def _wavenumbers(shape: tuple[int, ...]) -> list[np.ndarray]:
    return np.meshgrid(*(np.fft.fftfreq(m, 1.0 / m) for m in shape), indexing="ij")


def _band_mask(shape: tuple[int, ...]) -> np.ndarray:
    """The two-thirds band: every |k_j| <= res // 3."""
    return np.all([np.abs(k) <= shape[0] // 3 for k in _wavenumbers(shape)], axis=0)


def _grid_derivative(samples: np.ndarray, axis: int) -> np.ndarray:
    k = _wavenumbers(samples.shape)[axis]
    return np.fft.ifftn(1j * k * np.fft.fftn(samples)).real


def _band_part(samples: np.ndarray) -> np.ndarray:
    return np.fft.ifftn(np.fft.fftn(samples) * _band_mask(samples.shape)).real


def dealiased_convection(w: list[np.ndarray], u: list[np.ndarray]) -> list[np.ndarray]:
    """The band part of (w . grad) u: products on the grid, then the
    two-thirds truncation (exact for band-limited w and u)."""
    return [_band_part(sum(wj * _grid_derivative(c, j) for j, wj in enumerate(w)))
            for c in u]


def pressure_split(source: list[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
    """(p, P s) for the vector field s: grad p = (I - P) s, p mean-free, and
    P s the band-limited, divergence-free, mean-free part of s."""
    shape = source[0].shape
    ks = _wavenumbers(shape)
    hats = [np.fft.fftn(c) for c in source]
    k2 = sum(k * k for k in ks)
    inverse = np.where(k2 > 0, 1.0 / np.where(k2 > 0, k2, 1.0), 0.0)
    p_hat = -1j * sum(k * h for k, h in zip(ks, hats)) * inverse
    keep = _band_mask(shape) & (k2 > 0)
    projected = [np.fft.ifftn((h - 1j * k * p_hat) * keep).real for k, h in zip(ks, hats)]
    return np.fft.ifftn(p_hat).real, projected


def viscous_term(u: list[np.ndarray], mu: float) -> list[np.ndarray]:
    """mu times the flat Laplacian of each component: -mu |k|^2 u."""
    k2 = sum(k * k for k in _wavenumbers(u[0].shape))
    return [np.fft.ifftn(-mu * k2 * np.fft.fftn(c)).real for c in u]


# -- the interpolation survey in plain numpy ----------------------------------


def _half_modes(res: int) -> list[np.ndarray]:
    """Integer modes of each axis of a T^3 rfftn half, broadcastable."""
    lead = np.fft.fftfreq(res, 1.0 / res)
    return [lead[:, None, None], lead[None, :, None],
            np.fft.rfftfreq(res, 1.0 / res)[None, None, :]]


def _parseval_norm(half: np.ndarray) -> float:
    """L2 norm from an rfftn half: the k_last = 0 plane once, the others twice."""
    total = 2.0 * np.vdot(half, half).real - np.vdot(half[..., 0], half[..., 0]).real
    return float(np.sqrt(max(float(total), 0.0)))


def _sobolev_ratio(half: np.ndarray) -> float:
    """|v|_6 / ((|grad v|_2 + |v|_2) + |v|_2) on T^3, the case j0 = 0, m0 = 1,
    p0 = 6, q0 = r0 = 2 of the interpolation bound, whose exponent is 1."""
    res = half.shape[0]
    samples = np.fft.irfftn(half, s=(res,) * 3, axes=(0, 1, 2), norm="forward")
    lhs = float(np.mean(np.sqrt(samples ** 2) ** 6.0) ** (1.0 / 6.0))
    k2 = sum(k ** 2 for k in _half_modes(res))
    grad = np.power(k2, 0.5, out=np.zeros_like(k2), where=k2 > 0) * half
    l2 = _parseval_norm(half)
    return lhs / ((_parseval_norm(grad) + l2) + l2)


def gn_survey_ratios(seed: int, trials: int, res: int = 32,
                     kmax: float = 5.0) -> tuple[np.ndarray, np.ndarray]:
    """The ratios of ``gn_ratio_survey`` at res and at 2 res, drawn the same way.

    Each trial cuts numpy's whole-grid ``rfftn`` of white noise to the box
    |k_j| <= kmax, copies every mode |k_j| < res/2 into the half at 2 res,
    and measures both on numpy's whole-grid ``irfftn``.  The norms repeat
    the package's arithmetic operation for operation (Parseval on the half,
    |k| as k2 ** 0.5), so the two agree byte for byte when the package's
    transforms are numpy's.
    """
    rng = np.random.default_rng(seed)
    modes = _half_modes(res)
    limit = min(kmax, res / 2 - 1)
    box = (np.abs(modes[0]) <= limit) & (np.abs(modes[1]) <= limit) & (np.abs(modes[2]) <= limit)
    keep = np.flatnonzero(np.abs(modes[0].ravel()) < res / 2)
    fine_lead = modes[0].ravel()[keep].astype(np.int64) % (2 * res)
    ratios, doubled = np.zeros(trials), np.zeros(trials)
    for i in range(trials):
        half = np.where(box, np.fft.rfftn(rng.standard_normal((res,) * 3), norm="forward"), 0.0)
        fine = np.zeros((2 * res, 2 * res, res + 1), dtype=np.complex128)
        fine[np.ix_(fine_lead, fine_lead, np.arange(res // 2))] = \
            half[np.ix_(keep, keep, np.arange(res // 2))]
        ratios[i], doubled[i] = _sobolev_ratio(half), _sobolev_ratio(fine)
    return ratios, doubled


# -- the snapshot format, written and read in plain numpy ----------------------


def snapshot_bytes(u) -> bytes:
    """The snapshot file of the field u: magic "HPFORM1", n, degree and res
    as <i4, then numpy's whole-grid ``irfftn`` samples of each component as
    <f8, each through a ``.tobytes()`` copy."""
    grid = u.grid
    out = [b"HPFORM1", np.array([grid.n, u.degree, grid.res], dtype="<i4").tobytes()]
    for c in u.components:
        samples = np.fft.irfftn(c, s=grid.shape, axes=tuple(range(grid.n)), norm="forward")
        out.append(np.ascontiguousarray(samples, dtype="<f8").tobytes())
    return b"".join(out)


def snapshot_components(raw: bytes) -> list[np.ndarray]:
    """The half spectra a snapshot file holds: numpy's ``rfftn`` of its <f8
    samples (read with ``np.frombuffer``), with every mode that has
    |k_j| = res/2 on some axis zeroed through a boolean mask."""
    n, degree, res = (int(v) for v in np.frombuffer(raw[7:19], dtype="<i4"))
    samples = np.frombuffer(raw[19:], dtype="<f8").reshape((comb(n, degree),) + (res,) * n)
    modes = np.meshgrid(*[np.fft.fftfreq(res, 1 / res)] * (n - 1),
                        np.fft.rfftfreq(res, 1 / res), indexing="ij")
    nyquist = np.any([np.abs(k) == res // 2 for k in modes], axis=0)
    halves = []
    for s in samples:
        half = np.fft.rfftn(s, norm="forward")
        half[nyquist] = 0.0
        halves.append(half)
    return halves
