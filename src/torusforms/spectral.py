"""Spectral differential forms on the flat torus T^n (n = 2 or 3).

A degree-i form is stored through the real-to-complex FFT coefficients of
its components with respect to the increasing multi-index frame dx^I: each
component is its ``rfftn`` half spectrum, the modes with k_last =
0..res/2, shape ``grid.half_shape``.  The coefficients are normalised as
Fourier-series coefficients,

    u(x) = sum_k c_k exp(i k.x),      c_k = rfftn(samples) / res**n,

and a mode with k_last < 0 is the conjugate of the stored one at -k, so
every field is real by construction.  The torus measure is normalised to
total mass one, so Parseval reads (u, v) = sum_k sum_I c^u_{I,k}
conj(c^v_{I,k}) over the whole spectrum; on the half the k_last = 0 plane
counts once and every other plane twice (``_parseval``).  With this
convention (sin x_1, sin x_1) = 1/2.

The only part of a half that can break reality is its self-conjugate
k_last = 0 plane, where c(k) = conj(c(-k)) must hold within the plane.
That plane is checked, and only it, where coefficients leave for the grid
(``to_physical``) and where the solvers take a field in
(``nonlinear.checked_state``); ``FieldIntegrityError`` names a failure.  Samples
that enter through ``from_physical`` must be finite.

The codifferential is derived as the literal spectral adjoint of the
exterior derivative (same insertion table, conjugated multiplier), never
from hand-written sign rules.  ``_apply_d`` is the one walk of that table:
d and delta of fields, the nonlinear kernel's derivatives and the solvers'
state-space projection all call it, on halves or band halves, into a stack.
Nyquist modes (|k_j| = res/2) are zeroed on field creation, so the
Nyquist plane k_last = res/2 holds nothing and every multiplier preserves
reality.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import combinations, product
from math import comb, isfinite
from numbers import Real
from typing import Sequence

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


def _check_integer(key: str, value) -> None:
    """A ``ValueError`` naming ``key`` unless ``value`` is a (NumPy) integer."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{key} must be an integer, got {value!r}")


@dataclass(frozen=True)
class SpectralGrid:
    """Uniform FFT grid on the flat torus [0, 2*pi)^n.

    ``shape`` is the physical grid, ``half_shape`` the stored half spectrum
    (k_last = 0..res/2); the multipliers below live on the half.
    """

    n: int
    res: int

    def __post_init__(self):
        for key in ("n", "res"):
            _check_integer(key, getattr(self, key))
        if self.n not in (2, 3):
            raise ValueError(f"n (torus dimension) must be 2 or 3, got {self.n}")
        if self.res < 4 or self.res % 2 != 0:
            raise ValueError(f"res must be even and >= 4, got {self.res}")
        # Made once: the shapes, and the hash every grid-keyed cache lookup takes.
        for key, value in (("shape", (self.res,) * self.n),
                           ("half_shape", (self.res,) * (self.n - 1) + (self.res // 2 + 1,)),
                           ("_hash", hash((self.n, self.res)))):
            object.__setattr__(self, key, value)

    def __hash__(self) -> int:
        return self._hash

    @property
    def spacing(self) -> float:
        return TWO_PI / self.res

    @cached_property
    def axis_modes(self) -> np.ndarray:
        """Integer wavenumbers along a leading axis in fftn layout."""
        return _read_only(np.rint(np.fft.fftfreq(self.res) * self.res).astype(np.int64))

    def _axis_mesh(self, axis: int) -> np.ndarray:
        """The modes of ``axis`` in the half (k_last = 0..res/2 on the last),
        shaped (1, .., m, .., 1) to broadcast along it."""
        modes = self.axis_modes if axis < self.n - 1 else np.arange(self.res // 2 + 1)
        shape = [1] * self.n
        shape[axis] = len(modes)
        return modes.reshape(shape)

    @cached_property
    def k_squared(self) -> np.ndarray:
        return _read_only(self._squared_modes())

    def _squared_modes(self) -> np.ndarray:
        """|k|^2 on the half, a new array on every call."""
        return reduce(np.add, (self._axis_mesh(j).astype(np.float64) ** 2
                               for j in range(self.n)))

    @cached_property
    def inv_k_squared(self) -> np.ndarray:
        """1/|k|^2 with the zero mode mapped to zero (parametrix multiplier)."""
        return _read_only(_inverse_squares(self.k_squared))

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """Keep-mask of the two-thirds rule: drop modes with any |k_j| > res/3."""
        return _read_only(reduce(np.logical_and, (np.abs(self._axis_mesh(j)) <= self.res / 3.0
                                                  for j in range(self.n))))

    def meshes(self) -> list[np.ndarray]:
        """Physical coordinate meshes x_1..x_n."""
        x = np.arange(self.res) * self.spacing
        return list(np.meshgrid(*([x] * self.n), indexing="ij"))

    def component_count(self, degree: int) -> int:
        _check_integer("degree", degree)
        return comb(self.n, degree)


def _read_only(a: np.ndarray) -> np.ndarray:
    """``a``, read-only: caches share it between equal grids, so a write would
    change every later use."""
    a.flags.writeable = False
    return a


def _inverse_squares(k2: np.ndarray) -> np.ndarray:
    """1/k2 where k2 > 0, zero elsewhere."""
    out = np.zeros_like(k2)
    np.divide(1.0, k2, out=out, where=k2 > 0)
    return out


@lru_cache(maxsize=None)
def _mirror(shape: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """np.ix_ index of the reflection k -> -k of a plane of ``shape`` in fftn layout."""
    return tuple(_read_only(i) for i in np.ix_(*((-np.arange(m)) % m for m in shape)))


def _is_hermitian(plane: np.ndarray, tol: float) -> bool:
    """c(k) = conj(c(-k)) up to ``tol`` times max(max |c|, 1), False for
    non-finite input.

    Takes the k_last = 0 plane of a half spectrum, the only self-conjugate
    part of it, in fftn layout; the plane of a band half, whose axes hold
    the modes 0..L, -L..-1, will do too.
    """
    scale = np.max(np.abs(plane))
    if not np.isfinite(scale):
        return False
    gap = plane[_mirror(plane.shape)]
    np.conjugate(gap, out=gap)
    np.subtract(plane, gap, out=gap)
    return bool(np.max(np.abs(gap)) <= tol * max(scale, 1.0))


def _parseval(a: np.ndarray, b: np.ndarray) -> float:
    """Re sum_k a_k conj(b_k) over the whole spectrum of two real fields,
    from half spectra of them (a field's half or a band half): the k_last
    = 0 plane counts once, every other plane twice for itself and its
    conjugate.  A field's Nyquist plane is zero and adds nothing.  Python
    floats take the difference, so inf - inf reads NaN with no warning."""
    return 2.0 * float(np.vdot(b, a).real) - float(np.vdot(b[..., 0], a[..., 0]).real)


def _rescaled(norm, arrays: Sequence[np.ndarray]):
    """``norm(arrays)`` of a norm homogeneous of degree one.

    Where that is not finite but every array is (squares of finite values
    above about 1e154 overflow), it is taken again of the arrays divided by
    their largest modulus and scaled back.  Other input keeps the plain
    value, bytes and all, and so does non-finite input.
    """
    value = norm(arrays)
    finite = isfinite(value) if isinstance(value, float) else np.isfinite(value).all()
    if finite or not all(np.isfinite(a).all() for a in arrays):
        return value
    scale = max(float(np.max(np.abs(a))) for a in arrays)
    return scale * norm([a / scale for a in arrays])


def _box_transform(grid: SpectralGrid, a: np.ndarray, box, inverse: bool = False):
    """``rfftn`` of grid values ``a`` kept to ``box`` of the half, or with
    ``inverse`` the ``irfftn`` samples of the half that is ``a`` in ``box`` and
    zero elsewhere, over a's batch axes; ``box`` indexes each leading axis, then
    the first k_last planes.  The n-D call's 1-D transforms in its order, on the
    box's lines only (FFT pruning, Markel 1971), give its bytes; the walk's own
    arrays are transformed in place, measured 1.4x faster at T^3 res 64."""
    if not inverse:
        a = np.fft.rfft(a, axis=-1, norm="forward")[..., box[-1]]
        for axis in range(-2, -grid.n - 1, -1):
            a = np.take(np.fft.fft(a, axis=axis, norm="forward", out=a), box[axis], axis=axis)
        return a
    for axis in range(-grid.n, -1):
        spread = np.zeros(a.shape[:axis] + (grid.res,) + a.shape[axis + 1:], complex)
        spread[(Ellipsis, box[axis]) + (slice(None),) * (-1 - axis)] = a
        a = np.fft.ifft(spread, axis=axis, norm="forward", out=spread)
    return np.fft.irfft(a, n=grid.res, axis=-1, norm="forward")


def _to_grid(grid: SpectralGrid, half: np.ndarray) -> np.ndarray:
    """Samples of a half spectrum (with any leading batch axes), ``irfftn``'s
    bytes: its own call where the support reaches the middle k_last plane, as
    the two-thirds band does (one plane's test), else ``_box_transform``'s."""
    if half[..., half.shape[-1] // 2].any():
        return np.fft.irfftn(half, s=grid.shape, axes=tuple(range(-grid.n, 0)), norm="forward")
    face = half.any(axis=tuple(range(half.ndim - 2))) if half.ndim > 2 else half
    planes = np.flatnonzero(face.any(axis=0))
    part, box = half[..., :planes[-1] + 1 if planes.size else 1], [slice(None)] * grid.n
    if grid.n == 3:  # the rows of axis 1 that the first ifft's lines cross
        box[1] = np.flatnonzero(face.any(axis=1))
        part = part[..., box[1], :]
    return _box_transform(grid, part, box, inverse=True)


@lru_cache(maxsize=None)
def _band_half(grid: SpectralGrid) -> tuple[np.ndarray, ...]:
    """np.ix_ index of the half of the two-thirds band in a field's half.

    The band holds the modes with every |k_j| <= L = res // 3; its half
    has the modes 0..L, -L..-1 (fftn order) on the leading axes and
    k_last = 0..L.  The dealiasing mask is zero outside it.
    """
    limit = grid.res // 3
    lead = np.r_[0:limit + 1, grid.res - limit:grid.res]
    return tuple(_read_only(i) for i in np.ix_(*([lead] * (grid.n - 1)), np.arange(limit + 1)))


@lru_cache(maxsize=None)
def _band_slabs(grid: SpectralGrid) -> tuple[tuple[tuple, tuple], ...]:
    """The band half as 2^(n-1) slabs of plain slices: pairs (index into a
    field's half, index into the band half), one for each choice of the
    modes 0..L or -L..-1 on every leading axis.  Slab copies move the
    ``_band_half`` entries without fancy indexing: a degree-1 field leaves
    its band halves in 1.1 ms, not 1.6, at T^3 res 64 and in 0.055 ms, not
    0.16, at T^2 res 256 (best of 7 on a 2-vCPU host)."""
    limit, res = grid.res // 3, grid.res
    pairs = ((slice(0, limit + 1), slice(0, limit + 1)),
             (slice(res - limit, res), slice(limit + 1, 2 * limit + 1)))
    last = (slice(0, limit + 1),)
    return tuple((tuple(p[0] for p in lead) + last, tuple(p[1] for p in lead) + last)
                 for lead in product(pairs, repeat=grid.n - 1))


def _band_shape(grid: SpectralGrid) -> tuple[int, ...]:
    """Shape of a band half: (2L+1, ..., 2L+1, L+1), L = res // 3."""
    limit = grid.res // 3
    return (2 * limit + 1,) * (grid.n - 1) + (limit + 1,)


@lru_cache(maxsize=None)
def _d_plan(grid: SpectralGrid, degree: int, adjoint: bool, band: bool):
    """d (delta with ``adjoint``) of a degree-``degree`` form as the target's
    component count and one (src, dst, symbol) triple per insertion-table
    term; the symbol (sign * i) k_axis, conjugated for delta, broadcasts
    along ``axis`` of a half spectrum, or of a band half with ``band``."""
    target = degree - 1 if adjoint else degree + 1
    terms = []
    for j_up, j_down, axis, sign in _insertion_table(grid.n, min(degree, target)):
        modes = grid._axis_mesh(axis)
        if band:
            modes = np.take(modes, _band_half(grid)[axis].ravel(), axis=axis)
        symbol = _read_only((sign * -1j if adjoint else sign * 1j) * modes)
        terms.append((j_up, j_down, symbol) if adjoint else (j_down, j_up, symbol))
    # By target row; the stable sort keeps each row's order, so its sum keeps its bytes.
    return comb(grid.n, target), tuple(sorted(terms, key=lambda term: term[1]))


def _apply_d(grid: SpectralGrid, degree: int, comps, adjoint: bool = False,
             band: bool = False, out: np.ndarray | None = None) -> np.ndarray:
    """d of the degree-``degree`` form with components ``comps``, or its
    adjoint delta with ``adjoint``: the one walk of the insertion table
    (``_d_plan``), into one stack (ncomp, *comps[0].shape), returned.

    ``comps`` are halves, or band halves with ``band``, a row per component
    (batch axes may follow).  Each term is added into its row of ``out``;
    without ``out`` a new stack takes the first term of each row as it is.
    """
    count, terms = _d_plan(grid, degree, adjoint, band)
    fresh, row = out is None, None
    out = np.empty((count,) + np.shape(comps[0]), dtype=np.complex128) if fresh else out
    for src, dst, symbol in terms:
        if fresh and dst != row:
            np.multiply(symbol, comps[src], out=out[dst])
        else:  # the product is freed before the next one is allocated
            np.add(out[dst], symbol * comps[src], out=out[dst])
        row = dst
    return out


@dataclass(frozen=True, eq=False)
class FormField:
    """Differential form of fixed degree stored spectrally on a grid.

    Each component is its rfftn half spectrum, shape ``grid.half_shape``
    (see the module docstring).  Compared by identity: ``==`` is ``is`` and
    ``hash`` is the object's id, because arrays of coefficients have no
    single truth value.
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
            if c.shape != self.grid.half_shape:
                raise ValueError("component shape is not the grid's half_shape")
            if not np.iscomplexobj(c):
                raise ValueError("components must be complex spectral arrays")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zeros(grid: SpectralGrid, degree: int) -> "FormField":
        comps = tuple(
            np.zeros(grid.half_shape, dtype=np.complex128)
            for _ in range(grid.component_count(degree))
        )
        return FormField(grid, degree, comps)

    @staticmethod
    def from_coefficients(
        grid: SpectralGrid, degree: int, comps: Sequence[np.ndarray]
    ) -> "FormField":
        """Wrap copies of half-spectrum coefficient arrays, zeroing Nyquist
        modes, the unpaired frequency res/2: the lines at index res/2 of
        every axis, by slices."""
        cleaned = []
        for c in comps:
            arr = np.array(c, dtype=np.complex128)
            for axis in range(grid.n):
                arr[(slice(None),) * axis + (grid.res // 2,)] = 0.0
            cleaned.append(arr)
        return FormField(grid, degree, tuple(cleaned))

    @staticmethod
    def from_physical(
        grid: SpectralGrid, degree: int, samples: Sequence[np.ndarray]
    ) -> "FormField":
        """Build a field from real sample arrays on the grid.

        Raises FieldIntegrityError for NaN or infinite samples.
        """
        comps = []
        for s in samples:
            arr = np.asarray(s, dtype=np.float64)
            if arr.shape != grid.shape:
                raise ValueError("sample shape does not match grid")
            if not np.all(np.isfinite(arr)):
                raise FieldIntegrityError("from_physical got non-finite samples")
            comps.append(np.fft.rfftn(arr, norm="forward"))
        return FormField.from_coefficients(grid, degree, comps)

    # -- basic queries ---------------------------------------------------

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        """Whether every component's k_last = 0 plane is finite and
        conjugate symmetric, the only part of a half that can make the
        field non-real."""
        return all(_is_hermitian(c[..., 0], tol) for c in self.components)

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

    The samples are the real inverse transform (irfftn) of each half,
    computed on the half's support box only (``_to_grid``).
    Raises FieldIntegrityError when a k_last = 0 plane is not Hermitian
    symmetric or not finite (the field would not be real).
    """
    if not u.is_hermitian(tol=1e-10):
        raise FieldIntegrityError("coefficients are not Hermitian symmetric")
    return [_to_grid(u.grid, c) for c in u.components]


def from_physical(
    grid: SpectralGrid, degree: int, samples: Sequence[np.ndarray]
) -> FormField:
    return FormField.from_physical(grid, degree, samples)


# -- the complex ------------------------------------------------------------


def exterior_derivative(u: FormField) -> FormField:
    """d: degree i -> i+1 via the multiplier i*k_j and the insertion table."""
    if u.degree >= u.grid.n:
        raise ValueError(f"exterior derivative undefined at top degree {u.degree}")
    return FormField(u.grid, u.degree + 1, tuple(_apply_d(u.grid, u.degree, u.components)))


def codifferential(u: FormField) -> FormField:
    """Adjoint of the exterior derivative: degree i -> i-1.

    Uses the transposed insertion table with conjugated multiplier
    conj(i*k_j) = -i*k_j, so (d a, b) = (a, codifferential b) holds by
    construction.
    """
    if u.degree <= 0:
        raise ValueError("codifferential undefined at degree 0")
    return FormField(u.grid, u.degree - 1,
                     tuple(_apply_d(u.grid, u.degree, u.components, adjoint=True)))


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
    mult = _power_symbol(u.grid, s)
    return FormField(u.grid, u.degree, tuple(mult * c for c in u.components))


@lru_cache(maxsize=32)
def _power_symbol(grid: SpectralGrid, s: float) -> np.ndarray:
    """The read-only multiplier |k|^s of ``fractional_power``, zero at k = 0.

    |k|^2 is made afresh and dropped, so the grid that keys the cache
    keeps no ``k_squared`` alive for it.
    """
    k2 = grid._squared_modes()
    mult = np.zeros_like(k2)
    np.power(k2, s / 2.0, out=mult, where=k2 > 0)
    return _read_only(mult)


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
    return float(sum(_parseval(a, b) for a, b in zip(u.components, v.components)))


def _parseval_norm(halves: Sequence[np.ndarray]) -> float:
    """sqrt of the summed ``_parseval`` squares of ``halves``."""
    return float(np.sqrt(max(sum(_parseval(c, c) for c in halves), 0.0)))


def l2_norm(u: FormField) -> float:
    """L^2 norm by Parseval, finite for every finite field (``_rescaled``)."""
    return _rescaled(_parseval_norm, u.components)


@np.errstate(over="ignore")
def _magnitude(phys: Sequence[np.ndarray]) -> np.ndarray:
    """sqrt(sum_I u_I^2), summed in component order into one buffer."""
    total = phys[0] ** 2
    for c in phys[1:]:
        total += c ** 2
    return np.sqrt(total, out=total)


def pointwise_magnitude(u: FormField) -> np.ndarray:
    """Fibre Euclidean magnitude sqrt(sum_I u_I(x)^2) on the grid, finite
    for finite samples (``_rescaled``)."""
    return _rescaled(_magnitude, to_physical(u))


def lp_norm(u: FormField, p: float) -> float:
    """L^p norm by grid quadrature of the fibre magnitude; p=inf is the max.

    The samples come from ``to_physical``; a finite field has a finite
    norm (``_rescaled``).
    """
    if p <= 1:
        raise ValueError(f"L^p norm needs p > 1, got {p}")
    if p == 2:
        return l2_norm(u)

    @np.errstate(over="ignore")
    def quadrature(phys):
        mag = _magnitude(phys)
        if np.isinf(p):
            return float(np.max(mag))
        # In place: a second grid-sized array would cost more than the power.
        return float(np.mean(np.power(mag, p, out=mag)) ** (1.0 / p))
    return _rescaled(quadrature, to_physical(u))


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
    old, n = u.grid, u.grid.n
    keep = int(min(old.res, new_grid.res) // 2 - 1)
    lead = np.arange(-keep, keep + 1)
    src = np.ix_(*([lead % old.res] * (n - 1)), np.arange(keep + 1))
    dst = np.ix_(*([lead % new_grid.res] * (n - 1)), np.arange(keep + 1))
    comps = []
    for c in u.components:
        out = np.zeros(new_grid.half_shape, dtype=np.complex128)
        out[dst] = c[src]
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
    (default kmax = res/3, inside the dealias band).  Only the kept box is
    transformed (``_box_transform``), so the kept modes are ``rfftn``'s
    bytes.
    """
    limit = grid.res / 3.0 if kmax is None else kmax
    keep = [np.flatnonzero(np.abs(grid._axis_mesh(j).ravel()) <= limit)
            for j in range(grid.n)]
    comps = [np.zeros(grid.half_shape, dtype=np.complex128)
             for _ in range(grid.component_count(degree))]
    for c in comps:
        c[np.ix_(*keep)] = _box_transform(grid, rng.standard_normal(grid.shape), keep)
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
            fh.write(memoryview(np.ascontiguousarray(arr, dtype="<f8")).cast("B"))


def load_field(path) -> FormField:
    """Read a snapshot; a bad one raises ``FieldIntegrityError`` led by its file name."""
    try:
        with open(path, "rb") as fh:
            magic = fh.read(len(MAGIC))
            if magic != MAGIC:
                raise FieldIntegrityError(f"bad snapshot magic {magic!r}")
            header = fh.read(12)
            if len(header) != 12:
                raise FieldIntegrityError("snapshot header truncated")
            n, degree, res = struct.unpack("<iii", header)
            for name, value, ok in (("torus dimension n", n, n in (2, 3)),
                                    ("degree", degree, 0 <= degree <= n),
                                    ("resolution res", res, res >= 4 and res % 2 == 0)):
                if not ok:
                    raise FieldIntegrityError(f"snapshot header has a bad {name}: {value}")
            grid = SpectralGrid(n, res)
            count = grid.component_count(degree)
            # the header's promise, checked in Python ints before anything is allocated
            if os.fstat(fh.fileno()).st_size - fh.tell() < 8 * count * res ** n:
                raise FieldIntegrityError("snapshot payload truncated")
            samples = np.empty((count,) + grid.shape, dtype="<f8")
            if fh.readinto(memoryview(samples).cast("B")) != samples.nbytes:
                raise FieldIntegrityError("snapshot payload truncated")
            if fh.read(1):
                raise FieldIntegrityError("snapshot has bytes after its payload")
        return FormField.from_physical(grid, degree, list(samples))
    except FieldIntegrityError as exc:
        raise FieldIntegrityError(f"{os.path.basename(path)}: {exc}") from None
