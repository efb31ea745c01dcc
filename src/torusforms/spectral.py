"""Spectral differential forms on the flat torus T^n (n = 2 or 3).

A degree-i form is stored through the full-complex FFT coefficients of its
components with respect to the increasing multi-index frame dx^I.  The
coefficients are normalised as Fourier-series coefficients,

    u(x) = sum_k c_k exp(i k.x),      c_k = fftn(samples) / res**n,

and the torus measure is normalised to total mass one, so Parseval reads
(u, v) = sum_k sum_I c^u_{I,k} conj(c^v_{I,k}).  With this convention
(sin x_1, sin x_1) = 1/2.

The codifferential is derived as the literal spectral adjoint of the
exterior derivative (same insertion table, conjugated multiplier), never
from hand-written sign rules.  Nyquist modes (|k_j| = res/2) are zeroed on
field creation so every multiplier preserves Hermitian symmetry.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import combinations
from math import comb
from numbers import Real
from typing import Iterable, Sequence

import numpy as np

TWO_PI = 2.0 * np.pi

MAGIC = b"HPFORM1"


class FieldIntegrityError(ValueError):
    """Raised when stored coefficients violate a structural guarantee."""


class ConsistencyError(ValueError):
    """Raised when data fails a mathematical compatibility requirement."""


def multi_indices(n: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """Increasing multi-indices ordering the components of a degree-i form."""
    return tuple(combinations(range(n), degree))


@lru_cache(maxsize=None)
def _insertion_table(n: int, degree: int) -> tuple[tuple[int, int, int, int], ...]:
    """Index table for the derivative degree -> degree+1.

    Entries (out_index, in_index, axis, sign) encode
    d(u_I dx^I) = sum sign * (d_axis u_I) dx^J with J = sort(I + {axis}).
    The codifferential reuses the same table transposed, which makes it the
    exact adjoint by construction.
    """
    combos_in = multi_indices(n, degree)
    combos_out = {c: j for j, c in enumerate(multi_indices(n, degree + 1))}
    table = []
    for in_idx, idx_set in enumerate(combos_in):
        for axis in range(n):
            if axis in idx_set:
                continue
            merged = tuple(sorted(idx_set + (axis,)))
            sign = (-1) ** merged.index(axis)
            table.append((combos_out[merged], in_idx, axis, sign))
    return tuple(table)


@dataclass(frozen=True)
class SpectralGrid:
    """Uniform FFT grid on the flat torus [0, 2*pi)^n."""

    n: int
    res: int

    def __post_init__(self):
        if self.n not in (2, 3):
            raise ValueError(f"torus dimension must be 2 or 3, got {self.n}")
        if self.res < 4 or self.res % 2 != 0:
            raise ValueError(f"resolution must be even and >= 4, got {self.res}")

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.res,) * self.n

    @property
    def spacing(self) -> float:
        return TWO_PI / self.res

    @cached_property
    def axis_modes(self) -> np.ndarray:
        """Integer wavenumbers along one axis in fftn layout."""
        return np.rint(np.fft.fftfreq(self.res) * self.res).astype(np.int64)

    def _axis_mesh(self, axis: int) -> np.ndarray:
        """axis_modes shaped (1, .., res, .., 1) to broadcast along ``axis``."""
        shape = [1] * self.n
        shape[axis] = self.res
        return self.axis_modes.reshape(shape)

    @cached_property
    def wavevectors(self) -> np.ndarray:
        """Stacked integer wavevector meshes, shape (n, res, ..., res)."""
        axes = [self.axis_modes] * self.n
        return np.stack(np.meshgrid(*axes, indexing="ij"))

    # The multipliers below broadcast the per-axis modes instead of reading
    # ``wavevectors``, so a grid that only steps and projects never holds
    # the n full integer meshes.

    @cached_property
    def k_squared(self) -> np.ndarray:
        return reduce(np.add, (self._axis_mesh(j).astype(np.float64) ** 2
                               for j in range(self.n)))

    @cached_property
    def inv_k_squared(self) -> np.ndarray:
        """1/|k|^2 with the zero mode mapped to zero (parametrix multiplier)."""
        return _inverse_squares(self.k_squared)

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """Keep-mask of the two-thirds rule: drop modes with any |k_j| > res/3."""
        limit = self.res / 3.0
        return reduce(np.logical_and, (np.abs(self._axis_mesh(j)) <= limit
                                       for j in range(self.n)))

    @cached_property
    def nyquist_mask(self) -> np.ndarray:
        """Modes containing the unpaired frequency res/2 along any axis."""
        return reduce(np.logical_or, (np.abs(self._axis_mesh(j)) == self.res // 2
                                      for j in range(self.n)))

    def meshes(self) -> list[np.ndarray]:
        """Physical coordinate meshes x_1..x_n."""
        x = np.arange(self.res) * self.spacing
        return list(np.meshgrid(*([x] * self.n), indexing="ij"))

    def component_count(self, degree: int) -> int:
        return comb(self.n, degree)


def _inverse_squares(k2: np.ndarray) -> np.ndarray:
    """1/k2 where k2 > 0, zero elsewhere."""
    out = np.zeros_like(k2)
    np.divide(1.0, k2, out=out, where=k2 > 0)
    return out


def _is_hermitian(coeff: np.ndarray, tol: float) -> bool:
    """c(k) = conj(c(-k)) up to ``tol`` times max(max |c|, 1).

    Works on any array in fftn layout, also on a band box whose axes hold
    the modes 0..L, -L..-1.
    """
    scale = max(np.max(np.abs(coeff)), 1.0)
    gap = coeff[np.ix_(*((-np.arange(m)) % m for m in coeff.shape))]
    np.conjugate(gap, out=gap)
    np.subtract(coeff, gap, out=gap)
    return not np.max(np.abs(gap)) > tol * scale


def _accumulate(out: list, idx: int, term: np.ndarray) -> None:
    """out[idx] += term, where None stands for a zero not yet allocated."""
    if out[idx] is None:
        out[idx] = term
    else:
        out[idx] += term


@lru_cache(maxsize=None)
def _band_box(grid: SpectralGrid) -> tuple[np.ndarray, ...]:
    """np.ix_ index of the box of the two-thirds band.

    The box holds the modes 0..L, -L..-1 (fftn order) on every axis, with
    L = res // 3; the dealiasing mask is zero outside it.
    """
    limit = grid.res // 3
    return np.ix_(*([np.r_[0:limit + 1, grid.res - limit:grid.res]] * grid.n))


@lru_cache(maxsize=None)
def _derivative_symbol(
    grid: SpectralGrid, axis: int, sign: int, adjoint: bool, band: bool = False
) -> np.ndarray:
    """The multiplier (sign * i) k_axis of d, or its conjugate for the adjoint.

    Shaped (1, .., res, .., 1) so it broadcasts along ``axis`` of a
    coefficient array, or along ``axis`` of the band box with ``band``.
    """
    modes = grid._axis_mesh(axis)
    if band:
        modes = np.take(modes, _band_box(grid)[axis].ravel(), axis=axis)
    factor = sign * -1j if adjoint else sign * 1j
    return factor * modes


@dataclass(frozen=True, eq=False)
class FormField:
    """Differential form of fixed degree stored spectrally on a grid.

    Compared by identity: ``==`` is ``is`` and ``hash`` is the object's
    id, because arrays of coefficients have no single truth value.
    """

    grid: SpectralGrid
    degree: int
    components: tuple[np.ndarray, ...]

    def __post_init__(self):
        if not 0 <= self.degree <= self.grid.n:
            raise ValueError(
                f"degree {self.degree} out of range for n={self.grid.n}"
            )
        expected = self.grid.component_count(self.degree)
        if len(self.components) != expected:
            raise ValueError(
                f"degree {self.degree} on T^{self.grid.n} needs {expected} "
                f"components, got {len(self.components)}"
            )
        for c in self.components:
            if c.shape != self.grid.shape:
                raise ValueError("component shape does not match grid")
            if not np.iscomplexobj(c):
                raise ValueError("components must be complex spectral arrays")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zeros(grid: SpectralGrid, degree: int) -> "FormField":
        comps = tuple(
            np.zeros(grid.shape, dtype=np.complex128)
            for _ in range(grid.component_count(degree))
        )
        return FormField(grid, degree, comps)

    @staticmethod
    def from_coefficients(
        grid: SpectralGrid, degree: int, comps: Sequence[np.ndarray]
    ) -> "FormField":
        """Wrap spectral coefficient arrays, zeroing Nyquist columns."""
        cleaned = []
        for c in comps:
            arr = np.array(c, dtype=np.complex128)
            arr[grid.nyquist_mask] = 0.0
            cleaned.append(arr)
        return FormField(grid, degree, tuple(cleaned))

    @staticmethod
    def from_physical(
        grid: SpectralGrid, degree: int, samples: Sequence[np.ndarray]
    ) -> "FormField":
        """Build a field from real sample arrays on the grid."""
        size = grid.res**grid.n
        comps = []
        for s in samples:
            arr = np.asarray(s, dtype=np.float64)
            if arr.shape != grid.shape:
                raise ValueError("sample shape does not match grid")
            comps.append(np.fft.fftn(arr) / size)
        return FormField.from_coefficients(grid, degree, comps)

    # -- basic queries ---------------------------------------------------

    def coefficient(self, k: Sequence[int], component: int = 0) -> complex:
        """Fourier coefficient at integer wavevector k."""
        idx = tuple(int(kj) % self.grid.res for kj in k)
        return complex(self.components[component][idx])

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        return all(_is_hermitian(c, tol) for c in self.components)

    # -- arithmetic -------------------------------------------------------

    def _check_compatible(self, other: "FormField"):
        if self.grid != other.grid or self.degree != other.degree:
            raise ValueError("fields live on different grids or degrees")

    def __add__(self, other: "FormField") -> "FormField":
        self._check_compatible(other)
        return FormField(
            self.grid,
            self.degree,
            tuple(a + b for a, b in zip(self.components, other.components)),
        )

    def __sub__(self, other: "FormField") -> "FormField":
        self._check_compatible(other)
        return FormField(
            self.grid,
            self.degree,
            tuple(a - b for a, b in zip(self.components, other.components)),
        )

    def __mul__(self, scalar) -> "FormField":
        if not isinstance(scalar, Real):
            raise TypeError("fields scale by real numbers only")
        s = float(scalar)
        return FormField(
            self.grid, self.degree, tuple(s * c for c in self.components)
        )

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "FormField":
        return self * (1.0 / float(scalar))

    def __neg__(self) -> "FormField":
        return FormField(
            self.grid, self.degree, tuple(-c for c in self.components)
        )


# -- transforms -----------------------------------------------------------


def to_physical(u: FormField) -> list[np.ndarray]:
    """Real sample arrays of every component.

    Raises FieldIntegrityError when coefficients are not Hermitian
    symmetric (the field would not be real).  The samples are the real
    inverse transform (irfftn) of the half spectrum k_last >= 0, which
    relies on that symmetry for the other half.
    """
    if not u.is_hermitian(tol=1e-10):
        raise FieldIntegrityError("coefficients are not Hermitian symmetric")
    grid = u.grid
    half = grid.res // 2 + 1
    return [
        np.fft.irfftn(c[..., :half], s=grid.shape, axes=tuple(range(grid.n)), norm="forward")
        for c in u.components
    ]


def from_physical(
    grid: SpectralGrid, degree: int, samples: Sequence[np.ndarray]
) -> FormField:
    return FormField.from_physical(grid, degree, samples)


# -- the complex ------------------------------------------------------------


def exterior_derivative(u: FormField) -> FormField:
    """d: degree i -> i+1 via the multiplier i*k_j and the insertion table."""
    grid = u.grid
    if u.degree >= grid.n:
        raise ValueError(
            f"exterior derivative undefined at top degree {u.degree}"
        )
    out = [
        np.zeros(grid.shape, dtype=np.complex128)
        for _ in range(grid.component_count(u.degree + 1))
    ]
    for out_idx, in_idx, axis, sign in _insertion_table(grid.n, u.degree):
        out[out_idx] += _derivative_symbol(grid, axis, sign, False) * u.components[in_idx]
    return FormField(grid, u.degree + 1, tuple(out))


def codifferential(u: FormField) -> FormField:
    """Adjoint of the exterior derivative: degree i -> i-1.

    Uses the transposed insertion table with conjugated multiplier
    conj(i*k_j) = -i*k_j, so (d a, b) = (a, codifferential b) holds by
    construction.
    """
    grid = u.grid
    if u.degree <= 0:
        raise ValueError("codifferential undefined at degree 0")
    out = [
        np.zeros(grid.shape, dtype=np.complex128)
        for _ in range(grid.component_count(u.degree - 1))
    ]
    for in_idx, out_idx, axis, sign in _insertion_table(grid.n, u.degree - 1):
        out[out_idx] += _derivative_symbol(grid, axis, sign, True) * u.components[in_idx]
    return FormField(grid, u.degree - 1, tuple(out))


def hodge_laplacian(u: FormField) -> FormField:
    """delta d + d delta, assembled from the two first-order operators."""
    grid = u.grid
    total = FormField.zeros(grid, u.degree)
    if u.degree < grid.n:
        total = total + codifferential(exterior_derivative(u))
    if u.degree > 0:
        total = total + exterior_derivative(codifferential(u))
    return total


def harmonic_projection(u: FormField) -> FormField:
    """Keep only the k = 0 coefficient of every component."""
    comps = []
    for c in u.components:
        out = np.zeros_like(c)
        out[(0,) * u.grid.n] = c[(0,) * u.grid.n]
        comps.append(out)
    return FormField(u.grid, u.degree, tuple(comps))


def remove_harmonic(u: FormField) -> FormField:
    comps = []
    for c in u.components:
        out = c.copy()
        out[(0,) * u.grid.n] = 0.0
        comps.append(out)
    return FormField(u.grid, u.degree, tuple(comps))


def parametrix(u: FormField) -> FormField:
    """Inverse of the Laplacian off the harmonic space: multiplier 1/|k|^2."""
    mult = u.grid.inv_k_squared
    return FormField(
        u.grid, u.degree, tuple(mult * c for c in u.components)
    )


def fractional_power(u: FormField, s: float) -> FormField:
    """|k|^s multiplier with the zero mode annihilated (s >= 0).

    The zeroth power is therefore I minus the harmonic projection, not the
    identity.
    """
    if s < 0:
        raise ValueError(f"fractional power needs s >= 0, got {s}")
    k2 = u.grid.k_squared
    mult = np.zeros_like(k2)
    np.power(k2, s / 2.0, out=mult, where=k2 > 0)
    return FormField(u.grid, u.degree, tuple(mult * c for c in u.components))


def split_derivative(
    u: FormField, m: int
) -> FormField | tuple[FormField | None, FormField | None]:
    """Order-m derivative built from the complex.

    Even m returns the single field (Laplacian)^(m/2) u.  Odd m returns the
    pair (d L^((m-1)/2) u, delta L^((m-1)/2) u); the entry whose degree
    would leave 0..n is None.  For every m the kernel is the harmonic
    space.
    """
    if m < 0:
        raise ValueError("order must be a nonnegative integer")
    if m % 2 == 0:
        return fractional_power(u, float(m))
    base = fractional_power(u, float(m - 1))
    up = exterior_derivative(base) if u.degree < u.grid.n else None
    down = codifferential(base) if u.degree > 0 else None
    return (up, down)


# -- inner products and norms ----------------------------------------------


def inner_product(u: FormField, v: FormField) -> float:
    """L^2 pairing with unit-normalised measure, summed over components."""
    u._check_compatible(v)
    total = 0.0 + 0.0j
    for a, b in zip(u.components, v.components):
        total += np.vdot(b, a)  # sum conj(b) * a = sum a * conj(b)
    return float(np.real(total))


def l2_norm(u: FormField) -> float:
    return float(np.sqrt(max(inner_product(u, u), 0.0)))


def pointwise_magnitude(u: FormField) -> np.ndarray:
    """Fibre Euclidean magnitude sqrt(sum_I u_I(x)^2) on the grid."""
    phys = to_physical(u)
    return np.sqrt(np.sum(np.stack(phys) ** 2, axis=0))


def lp_norm(u: FormField, p: float) -> float:
    """L^p norm by grid quadrature of the fibre magnitude; p=inf is the max."""
    if p <= 1:
        raise ValueError(f"L^p norm needs p > 1, got {p}")
    if p == 2:
        return l2_norm(u)
    mag = pointwise_magnitude(u)
    if np.isinf(p):
        return float(np.max(mag))
    return float(np.mean(mag**p) ** (1.0 / p))


# -- dealiasing and random fields --------------------------------------------


def dealias(u: FormField) -> FormField:
    mask = u.grid.dealias_mask
    return FormField(
        u.grid, u.degree, tuple(np.where(mask, c, 0.0) for c in u.components)
    )


def resample(u: FormField, new_grid: SpectralGrid) -> FormField:
    """Transfer a field to another resolution, same function exactly when
    every retained mode fits the target band (coefficients are resolution-
    independent Fourier-series coefficients)."""
    if new_grid.n != u.grid.n:
        raise ValueError("resampling cannot change the torus dimension")
    old = u.grid
    keep = int(min(old.res, new_grid.res) // 2 - 1)
    src_modes = [k for k in old.axis_modes if abs(k) <= keep]
    src_idx = np.array([k % old.res for k in src_modes])
    dst_idx = np.array([k % new_grid.res for k in src_modes])
    comps = []
    for c in u.components:
        out = np.zeros(new_grid.shape, dtype=np.complex128)
        out[np.ix_(*([dst_idx] * new_grid.n))] = c[np.ix_(*([src_idx] * old.n))]
        comps.append(out)
    return FormField(new_grid, u.degree, tuple(comps))


def random_form(
    grid: SpectralGrid,
    degree: int,
    rng: np.random.Generator,
    kmax: float | None = None,
    mean_free: bool = False,
) -> FormField:
    """Band-limited Gaussian random field with Hermitian coefficients.

    Coefficients come from transforming white physical noise, so the field
    is real by construction; modes with any |k_j| > kmax are dropped
    (default kmax = res/3, inside the dealias band).
    """
    if kmax is None:
        kmax = grid.res / 3.0
    band = np.all(np.abs(grid.wavevectors) <= kmax, axis=0)
    comps = []
    size = grid.res**grid.n
    for _ in range(grid.component_count(degree)):
        noise = rng.standard_normal(grid.shape)
        c = np.fft.fftn(noise) / size
        c = np.where(band, c, 0.0)
        comps.append(c)
    field = FormField.from_coefficients(grid, degree, comps)
    if mean_free:
        field = remove_harmonic(field)
    return field


# -- snapshot file format -----------------------------------------------------

# Layout: magic "HPFORM1", then n, degree, res as little-endian int32,
# then comb(n, degree) * res**n little-endian float64 physical samples,
# row-major, components in increasing multi-index order.


def save_field(u: FormField, path) -> None:
    phys = to_physical(u)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<iii", u.grid.n, u.degree, u.grid.res))
        for arr in phys:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_field(path) -> FormField:
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise FieldIntegrityError(f"bad snapshot magic {magic!r}")
        header = fh.read(12)
        if len(header) != 12:
            raise FieldIntegrityError("snapshot header truncated")
        n, degree, res = struct.unpack("<iii", header)
        grid = SpectralGrid(n, res)
        count = grid.component_count(degree)
        expected = count * res**n * 8
        raw = fh.read(expected)
        if len(raw) != expected:
            raise FieldIntegrityError("snapshot payload truncated")
        if fh.read(1):
            raise FieldIntegrityError("snapshot has bytes after its payload")
        flat = np.frombuffer(raw, dtype="<f8")
    if not np.all(np.isfinite(flat)):
        raise FieldIntegrityError("snapshot holds non-finite samples")
    samples = flat.reshape((count,) + grid.shape)
    return FormField.from_physical(grid, degree, list(samples))
