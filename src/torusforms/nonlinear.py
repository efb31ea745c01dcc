"""Quadratic nonlinearities built from constant-coefficient bilinear maps.

The nonlinearity of degree i is

    N(v) = M1(d v, v) + d M2(v, v)

with fibre-wise bilinear maps M1 : E^(i+1) x E^i -> E^i and
M2 : E^i x E^i -> E^(i-1).  Its polarization

    B(w, v) = M1(d w, v) + M1(d v, w) + d (M2(w, v) + M2(v, w))

satisfies B(v, v) = 2 N(v) bit for bit and N(w + v) - N(w) - N(v) =
B(w, v) to rounding, because both run through one kernel.

The kernel applies the two-thirds rule once per input and once per output
(Orszag 1971) and transforms each physical array exactly once, with real
transforms on the half spectrum ``c[..., :res//2 + 1]``:

1. each input field enters as ``BandHalves.of``: the half of its band box,
   after a Hermitian check on the box (``FieldIntegrityError`` above 1e-10,
   as ``to_physical``, under every preset); a ``BandHalves`` state enters
   as it is;
2. d of each input is formed on the half spectrum;
3. ``irfftn`` brings every input component and every derivative component
   to the grid;
4. the products are contracted over the nonzero tensor entries only, one
   output component at a time; in B each half-quadratic M(a, b) has its own
   buffer and the two are added afterwards, so B(v, v) = 2 N(v) exactly;
5. ``rfftn`` takes every output component back, the band half is kept,
   and d is applied to the M2 output; a field result leaves through
   ``BandHalves.field``, which rebuilds the full spectrum by conjugate
   reflection, a state's result as its stacked band halves.

For the ``navier-stokes-i1`` preset that is 6 component transforms per N on
T^2 (u and omega inverse, 3 forward) and 10 on T^3; B takes 9 and 16.

Steps 2-5 (``_on_grid`` and ``_quadratic``) work on band halves with any
leading batch axes, which broadcast: the Galerkin assembly transforms w once
and a whole block of basis fields in each transform.  ``nonlinear_term``
and ``bilinear_term`` share one body for fields and ``BandHalves`` states
alike: fields enter through ``BandHalves.of`` and the result leaves through
``field``, states skip both; the field solvers step their states through
that form.

The ``navier-stokes-i1`` preset instantiates M1 as the interior product
(exterior derivative of the velocity contracted with the velocity) and M2
as half the dot product, so N(u) = (u . grad) u on degree-1 fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import comb

import numpy as np

from .hodge import helmholtz_project
from .norms import BochnerIndex, TimeSeriesSolution, bochner_norm
from .spectral import (
    FieldIntegrityError,
    FormField,
    SpectralGrid,
    _accumulate,
    _band_box,
    _derivative_symbol,
    _insertion_table,
    _is_hermitian,
    dealias,
    inner_product,
    multi_indices,
    random_form,
    remove_harmonic,
    to_physical,
)


@dataclass(frozen=True, eq=False)
class BilinearMap:
    """Constant-coefficient fibre map E^d1 x E^d2 -> E^dout.

    ``tensor[a, b, c]`` multiplies component a of the first argument with
    component b of the second and adds into output component c.  Compared
    by identity (``==`` is ``is``, ``hash`` the object's id), as the
    tensor array has no single truth value.
    """

    n: int
    degree_first: int
    degree_second: int
    degree_out: int
    tensor: np.ndarray
    # Nonzero entries ((a, b, value), ...) of each output component c.
    _entries: tuple = field(init=False, repr=False)

    def __post_init__(self):
        expected = (
            comb(self.n, self.degree_first),
            comb(self.n, self.degree_second),
            comb(self.n, self.degree_out),
        )
        arr = np.asarray(self.tensor, dtype=np.float64)
        if arr.shape != expected:
            raise ValueError(
                f"tensor shape {arr.shape} does not match degrees "
                f"{expected} on T^{self.n}"
            )
        object.__setattr__(self, "tensor", arr)
        object.__setattr__(self, "_entries", tuple(
            tuple((int(a), int(b), float(arr[a, b, c]))
                  for a, b in zip(*np.nonzero(arr[:, :, c])))
            for c in range(arr.shape[2])
        ))

    @property
    def operator_norm(self) -> float:
        """Spectral norm of the flattened tensor: |M(a,b)| <= norm |a| |b|."""
        flat = self.tensor.reshape(-1, self.tensor.shape[2])
        return float(np.linalg.norm(flat, ord=2))

    def apply_fibre(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Contract stacked pointwise data (ncomp, ...) bilinearly."""
        shape = np.broadcast_shapes(np.shape(a)[1:], np.shape(b)[1:])
        return np.stack([_contract(entries, a, b, shape) for entries in self._entries])


@dataclass(frozen=True, eq=False)
class NonlinearityConfig:
    """Degree-i quadratic nonlinearity assembled from two bilinear maps.

    Compared by identity, like its ``BilinearMap``s.
    """

    degree: int
    m1: BilinearMap | None = None
    m2: BilinearMap | None = None
    tag: str = "custom"

    def __post_init__(self):
        i = self.degree
        if self.m1 is not None:
            got = (self.m1.degree_first, self.m1.degree_second, self.m1.degree_out)
            if got != (i + 1, i, i):
                raise ValueError(f"m1 degrees {got} incompatible with degree {i}")
        if self.m2 is not None:
            if i < 1:
                raise ValueError("m2 needs degree >= 1 (its output is degree i-1)")
            got = (self.m2.degree_first, self.m2.degree_second, self.m2.degree_out)
            if got != (i, i, i - 1):
                raise ValueError(f"m2 degrees {got} incompatible with degree {i}")

    @property
    def is_zero(self) -> bool:
        return self.m1 is None and self.m2 is None


# -- presets --------------------------------------------------------------


def interior_product_map(n: int) -> BilinearMap:
    """M(omega, u) = contraction of the 2-form omega with the vector u.

    iota_u (dx^a ^ dx^b) = u_a dx^b - u_b dx^a for a < b.
    """
    pairs = multi_indices(n, 2)
    tensor = np.zeros((len(pairs), n, n))
    for p_idx, (a, b) in enumerate(pairs):
        tensor[p_idx, a, b] += 1.0
        tensor[p_idx, b, a] -= 1.0
    return BilinearMap(n, 2, 1, 1, tensor)


def half_dot_map(n: int) -> BilinearMap:
    """M(u, v) = (u . v) / 2 landing in degree 0."""
    tensor = np.zeros((n, n, 1))
    for a in range(n):
        tensor[a, a, 0] = 0.5
    return BilinearMap(n, 1, 1, 0, tensor)


def navier_stokes_config(n: int) -> NonlinearityConfig:
    return NonlinearityConfig(
        degree=1,
        m1=interior_product_map(n),
        m2=half_dot_map(n),
        tag="navier-stokes-i1",
    )


def zero_config(degree: int = 1) -> NonlinearityConfig:
    return NonlinearityConfig(degree=degree, tag="zero")


PRESETS = ("navier-stokes-i1", "zero")


def get_preset(name: str, n: int, degree: int = 1) -> NonlinearityConfig:
    if name == "navier-stokes-i1":
        if degree != 1:
            raise ValueError("the navier-stokes-i1 preset is a degree-1 map")
        return navier_stokes_config(n)
    if name == "zero":
        return zero_config(degree)
    raise ValueError(f"unknown nonlinearity preset {name!r}; know {PRESETS}")


# -- evaluation -------------------------------------------------------------


def _contract(entries, a, b, shape) -> np.ndarray:
    """One output component: the sum of value * a[i] * b[j] over its entries."""
    acc = None
    for i, j, value in entries:
        term = a[i] * b[j]
        if value != 1.0:
            term *= value
        if acc is None:
            acc = term
        else:
            acc += term
    return np.zeros(shape) if acc is None else acc


@dataclass(frozen=True)
class _Band:
    """Index data of the kernel: the half of the band box.

    The band box (``spectral._band_box``) holds the modes with every
    |k_j| <= L = res // 3.  Its half, k_last = 0..L, is all the kernel keeps
    of a field's spectrum; the rest of the box is its conjugate reflection.
    """

    limit: int
    axes: tuple[int, ...]  # the last n axes, after any batch axes
    box: tuple[np.ndarray, ...]  # np.ix_ of the band box in the full spectrum
    half: tuple[np.ndarray, ...]  # np.ix_ of the box's half, k_last = 0..L
    tail: tuple[np.ndarray, ...]  # np.ix_ of the box's rest, k_last = -L..-1
    reflect: tuple[np.ndarray, ...]  # np.ix_ into the half of -k, k in the tail
    half_shape: tuple[int, ...]  # shape of an rfftn half spectrum
    half_box: tuple[int, ...]  # shape of the box's half


@lru_cache(maxsize=None)
def _band(grid: SpectralGrid) -> _Band:
    n, res, limit = grid.n, grid.res, grid.res // 3
    box = _band_box(grid)
    lead = box[:-1]
    minus = (-np.arange(2 * limit + 1)) % (2 * limit + 1)
    return _Band(
        limit=limit,
        axes=tuple(range(-n, 0)),
        box=box,
        half=np.ix_(*(i.ravel() for i in lead), np.arange(limit + 1)),
        tail=np.ix_(*(i.ravel() for i in lead), np.arange(res - limit, res)),
        reflect=np.ix_(*([minus] * (n - 1)), np.arange(limit, 0, -1)),
        half_shape=grid.shape[:-1] + (res // 2 + 1,),
        half_box=(2 * limit + 1,) * (n - 1) + (limit + 1,),
    )


def _half_position(grid: SpectralGrid, modes: np.ndarray) -> tuple[tuple, np.ndarray]:
    """Where the band wavevectors ``modes`` (rows of n integers) sit in a
    band half.

    A mode with k_last < 0 is not in the half; its coefficient is the
    conjugate of the one at -k, which is.  Returns the index tuple into the
    last n axes of a band half and the mask of the modes read through that
    conjugation.
    """
    mirrored = modes[:, -1] < 0
    inside = np.where(mirrored[:, None], -modes, modes)
    return tuple(inside.T % (2 * _band(grid).limit + 1)), mirrored


def _apply_d(grid: SpectralGrid, degree: int, halves, out) -> list:
    """Add d of a degree-``degree`` field, given by its band halves, into ``out``."""
    keep = halves[0].shape[-1]
    for out_idx, in_idx, axis, sign in _insertion_table(grid.n, degree):
        symbol = _derivative_symbol(grid, axis, sign, False, True)[..., :keep]
        _accumulate(out, out_idx, symbol * halves[in_idx])
    return out


def _on_grid(cfg: NonlinearityConfig, grid: SpectralGrid, halves) -> tuple[list, list]:
    """One input of the kernel on the grid: its components and, where M1
    needs it, the components of its d.

    ``halves`` are band halves, one per component, with any leading batch
    axes; the transforms run over the last n axes.
    """
    band = _band(grid)
    spectrum = np.zeros(halves[0].shape[:-grid.n] + band.half_shape,
                        dtype=np.complex128)

    def physical(half):
        # Every call writes the same band positions; the rest stays zero.
        spectrum[(Ellipsis,) + band.half] = half
        return np.fft.irfftn(spectrum, s=grid.shape, axes=band.axes, norm="forward")

    values = [physical(h) for h in halves]
    derivs = []
    if cfg.m1 is not None and cfg.degree < grid.n:
        d_halves = _apply_d(grid, cfg.degree, halves,
                            [None] * grid.component_count(cfg.degree + 1))
        derivs = [physical(h) for h in d_halves]
    return values, derivs


def _quadratic(cfg: NonlinearityConfig, grid: SpectralGrid, *inputs) -> list:
    """Band halves of Q(v, v) for one input, of Q(w, v) + Q(v, w) for two.

    Q(a, b) = M1(d a, b) + d M2(a, b); each input comes from ``_on_grid``
    and may carry leading batch axes, which broadcast.  See the module
    docstring for the steps and the transform budget.
    """
    band = _band(grid)
    values = [v for v, _ in inputs]
    derivs = [d for _, d in inputs]
    shape = np.broadcast_shapes(*(v[0].shape for v in values))
    pairs = ((0, 0),) if len(inputs) == 1 else ((0, 1), (1, 0))

    def spectral(entries, first, second):
        # Each pair's product in its own buffer, summed afterwards: then
        # B(v, v) is the exact double of N(v).
        prod = None
        for i, j in pairs:
            term = _contract(entries, first[i], second[j], shape)
            if prod is None:
                prod = term
            else:
                prod += term
        return np.fft.rfftn(prod, axes=band.axes, norm="forward")[(Ellipsis,) + band.half]

    out = [None] * grid.component_count(cfg.degree)
    if cfg.m1 is not None and cfg.degree < grid.n:
        out = [spectral(e, derivs, values) for e in cfg.m1._entries]
    if cfg.m2 is not None:
        m2 = [spectral(e, values, values) for e in cfg.m2._entries]
        out = _apply_d(grid, cfg.degree - 1, m2, out)
    zero = shape[:-grid.n] + band.half_box
    return [np.zeros(zero, dtype=np.complex128) if h is None else h for h in out]


class BandHalves:
    """A real field held as the band halves of its components.

    ``halves`` holds, one array per component, the half k_last = 0..L
    (L = res // 3) of the component's band box, shape (2L+1, ..., L+1); the
    rest of the box is its conjugate reflection, and the field has no modes
    outside the box.  Any per-component sequence will do: ``of`` gathers a
    stacked (ncomp, 2L+1, ..., L+1) array, the field solvers step one, and
    the kernel returns a list.  ``nonlinear_term`` and ``bilinear_term``
    take such states in place of fields and return the band halves of the
    result, stacked.  With ``keep`` the grid values are made on first use
    and kept, so a state used in many products is transformed once per
    nonlinearity.
    """

    def __init__(self, grid: SpectralGrid, degree: int, halves, keep: bool = False):
        self.grid, self.degree, self.halves = grid, degree, halves
        self._kept = {} if keep else None

    @classmethod
    def of(cls, u: FormField, keep: bool = False) -> "BandHalves":
        """The band halves of the field u, after its Hermitian check on the
        band box (``FieldIntegrityError`` above 1e-10, as ``to_physical``)."""
        band = _band(u.grid)
        halves = np.empty((len(u.components),) + band.half_box, dtype=np.complex128)
        for half, c in zip(halves, u.components):
            box = c[band.box]
            if not _is_hermitian(box, 1e-10):
                raise FieldIntegrityError("coefficients are not Hermitian symmetric")
            half[...] = box[..., :band.limit + 1]
        return cls(u.grid, u.degree, halves, keep)

    def field(self) -> FormField:
        """The field in fftn layout: each half and its conjugate reflection
        on the band box, zero outside it."""
        band = _band(self.grid)
        comps = []
        for half in self.halves:
            full = np.zeros(self.grid.shape, dtype=np.complex128)
            full[band.half] = half
            full[band.tail] = np.conj(half[band.reflect])
            comps.append(full)
        return FormField(self.grid, self.degree, tuple(comps))

    def on_grid(self, cfg: NonlinearityConfig) -> tuple[list, list]:
        if self._kept is None:
            return _on_grid(cfg, self.grid, self.halves)
        if cfg not in self._kept:
            self._kept[cfg] = _on_grid(cfg, self.grid, self.halves)
        return self._kept[cfg]


def _quadratic_term(cfg: NonlinearityConfig, *args):
    """``_quadratic`` of fields or of ``BandHalves``: a field enters through
    ``BandHalves.of`` and leaves through ``field``, states give and get
    stacked band halves."""
    grid = args[0].grid
    if any(a.grid != grid for a in args):
        raise ValueError("product arguments live on different grids")
    states = [a if isinstance(a, BandHalves) else BandHalves.of(a) for a in args]
    if cfg.is_zero:
        out = [np.zeros_like(h) for h in states[-1].halves]
    else:
        out = _quadratic(cfg, grid, *(s.on_grid(cfg) for s in states))
    if isinstance(args[-1], BandHalves):
        return np.stack(out)
    return BandHalves(grid, cfg.degree, out).field()


def nonlinear_term(v: FormField | BandHalves, cfg: NonlinearityConfig):
    """N(v) = M1(d v, v) + d M2(v, v); its band halves for ``BandHalves`` v."""
    if v.degree != cfg.degree:
        raise ValueError(
            f"field degree {v.degree} does not match nonlinearity degree "
            f"{cfg.degree}"
        )
    return _quadratic_term(cfg, v)


def bilinear_term(w: FormField | BandHalves, v: FormField | BandHalves,
                  cfg: NonlinearityConfig):
    """Polarization B(w, v) = N(w + v) - N(w) - N(v), evaluated directly.

    w and v are both fields or both ``BandHalves``; for the latter the
    result is B's band halves.
    """
    if w.degree != cfg.degree or v.degree != cfg.degree:
        raise ValueError("field degrees do not match the nonlinearity degree")
    if isinstance(w, BandHalves) != isinstance(v, BandHalves):
        raise TypeError("bilinear_term takes two fields or two BandHalves")
    return _quadratic_term(cfg, w, v)


def convective_term(w: FormField, u: FormField) -> FormField:
    """(w . grad) u for degree-1 fields, via dealiased products."""
    if w.degree != 1 or u.degree != 1:
        raise ValueError("the convective term is defined for degree-1 fields")
    grid = w.grid
    w_phys = np.stack(to_physical(dealias(w)))
    kvecs = grid.wavevectors
    comps = []
    for c in dealias(u).components:
        grads = [np.real(np.fft.ifftn(1j * kvecs[j] * c) * c.size) for j in range(grid.n)]
        acc = np.zeros(grid.shape)
        for j in range(grid.n):
            acc += w_phys[j] * grads[j]
        comps.append(acc)
    return dealias(FormField.from_physical(grid, 1, comps))


def trilinear_form(
    w: FormField, u: FormField, cfg: NonlinearityConfig, diagnostic: str = "auto"
) -> float:
    """Trilinear pairing of the nonlinearity against the state.

    ``diagnostic="convective"`` returns ((w . grad) u, u), the classical
    form that vanishes for divergence-free w; it is the default for the
    navier-stokes-i1 preset.  ``"raw"`` returns (B(w, u), u) for any
    configuration.
    """
    if diagnostic == "auto":
        diagnostic = "convective" if cfg.tag == "navier-stokes-i1" else "raw"
    if diagnostic == "convective":
        return inner_product(convective_term(w, u), u)
    if diagnostic == "raw":
        return inner_product(bilinear_term(w, u, cfg), u)
    raise ValueError(f"unknown diagnostic {diagnostic!r}")


# -- empirical continuity bound ------------------------------------------------


@dataclass(frozen=True)
class ContinuityReport:
    """Measured ratios |B(w,v)| / (|w| |v|) in the parabolic norms."""

    k: int
    s: int
    res: int
    kmax: float
    trials: int
    ratios: np.ndarray

    @property
    def max_ratio(self) -> float:
        return float(np.max(self.ratios)) if len(self.ratios) else 0.0


def continuity_bound_survey(
    cfg: NonlinearityConfig,
    grid: SpectralGrid,
    trials: int,
    k: int,
    s: int,
    seed: int = 0,
    kmax: float | None = None,
) -> ContinuityReport:
    """Sample the continuity constant of B on stationary random pairs.

    For each trial, draws divergence-free mean-free band-limited fields
    w, v, and measures

        |B(w, v)|_{for, (k, s-1)} / (|w|_{vel, (k+2, s-1)} |v|_{vel, (k+2, s-1)})

    on a stationary trajectory, sampled at 9 times on [0, 1].  The band
    defaults to res/6 so quadratic products stay fully resolved; surveys at
    different resolutions then sample the same field class and their maxima
    are directly comparable.
    """
    n = grid.n
    if not 2 * s + k > n / 2.0 - 1.0:
        raise ValueError(f"need 2s + k > n/2 - 1, got k={k}, s={s}, n={n}")
    if s < 1:
        raise ValueError("the continuity survey needs s >= 1")
    if kmax is None:
        kmax = grid.res / 6.0
    rng = np.random.default_rng(seed)
    times = np.linspace(0.0, 1.0, 9)
    sub = s - 1

    def stationary(field: FormField) -> TimeSeriesSolution:
        series = [field] * len(times)
        cache = {
            j: [FormField.zeros(grid, field.degree)] * len(times)
            for j in range(1, sub + 1)
        }
        return TimeSeriesSolution(times, series, dt_cache=cache)

    ratios = []
    vel_idx = BochnerIndex(k + 2, sub, "vel")
    for_idx = BochnerIndex(k, sub, "for")
    for _ in range(trials):
        w = remove_harmonic(
            helmholtz_project(random_form(grid, cfg.degree, rng, kmax=kmax))
        )
        v = remove_harmonic(
            helmholtz_project(random_form(grid, cfg.degree, rng, kmax=kmax))
        )
        denom = bochner_norm(stationary(w), vel_idx) * bochner_norm(
            stationary(v), vel_idx
        )
        b = bilinear_term(w, v, cfg)
        numer = bochner_norm(stationary(b), for_idx)
        ratios.append(0.0 if denom == 0.0 else numer / denom)
    return ContinuityReport(
        k=k, s=s, res=grid.res, kmax=float(kmax), trials=trials,
        ratios=np.array(ratios),
    )


# -- tensor text format ---------------------------------------------------------

# Header line "degrees <n> <first> <second> <out>", then one entry per
# line "a b c value"; omitted entries are zero.


def save_bilinear_map(bmap: BilinearMap, path) -> None:
    with open(path, "w") as fh:
        fh.write("# bilinear map tensor: component_a component_b component_out value\n")
        fh.write(
            f"degrees {bmap.n} {bmap.degree_first} {bmap.degree_second} "
            f"{bmap.degree_out}\n"
        )
        for (a, b, c), value in np.ndenumerate(bmap.tensor):
            if value != 0.0:
                fh.write(f"{a} {b} {c} {float(value)!r}\n")


def load_bilinear_map(path) -> BilinearMap:
    header = None
    entries = []
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("degrees"):
                parts = line.split()
                if len(parts) != 5:
                    raise ValueError(
                        "header must read 'degrees <n> <first> <second> <out>'"
                    )
                header = tuple(int(x) for x in parts[1:])
                continue
            parts = line.split()
            if len(parts) != 4:
                raise ValueError(f"bad tensor entry line: {raw.rstrip()!r}")
            entries.append((int(parts[0]), int(parts[1]), int(parts[2]),
                            float(parts[3])))
    if header is None:
        raise ValueError("tensor file is missing its degrees header")
    n, d1, d2, dout = header
    tensor = np.zeros((comb(n, d1), comb(n, d2), comb(n, dout)))
    for a, b, c, value in entries:
        tensor[a, b, c] = value
    return BilinearMap(n, d1, d2, dout, tensor)
