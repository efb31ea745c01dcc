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
transforms on the half spectrum that fields store:

1. each input field enters through ``checked_state``, the one entry check
   of fields (grid, degree, finite coefficients, the Hermitian k_last = 0
   plane of its band; errors name the argument) under every preset, as
   the band part of its half (every |k_j| <= L = res // 3, k_last =
   0..L); a ``BandHalves`` state enters as it is;
2. d of each input is formed on the half spectrum;
3. an inverse transform brings every input component and every derivative
   component to the grid;
4. the products are contracted over the nonzero tensor entries only, one
   output component at a time; in B each half-quadratic M(a, b) has its own
   buffer and the two are added afterwards, so B(v, v) = 2 N(v) exactly;
5. a forward transform takes every output component back to its band half,
   and d is applied to the M2 output; a field result leaves through
   ``BandHalves.field``, which writes the band halves into a zero half,
   a state's result as its stacked band halves.

Budgets count component transforms, each one n-D call or, from 2^15 grid
points on (``_band_box``), a pruned walk of n 1-D calls with the same bytes:
for ``navier-stokes-i1`` 6 per N on T^2 (u and omega inverse, 3 forward)
and 10 on T^3; B takes 9 and 16.

The exact part d M2 is L^2-orthogonal to coclosed forms (Hodge-Helmholtz),
so a caller that projects Q onto them throws it away.  The kernel's
``exact`` mode serves such callers: "add" (the default) makes Q, "drop"
only the M1 output Q1 = M1(d v, v), with no M2 products, no M2 transform
and no d on the band, "apart" the pair (Q1, M2's band halves) from one
grid pass, and "only" M2's band halves alone (on a state with kept grid
values that is its products and one forward transform per component).
This is the rotational form of Navier-Stokes, where the kinetic energy
|u|^2 / 2 folds into the pressure.  "drop" takes 5 transforms per N on
T^2 and 9 on T^3, and 8 and 15 per B: every solver stage uses it (or
"apart" where a stored sample needs M2 for its pressure), so an imex-rk2
step on T^3 makes 18 transforms, not 20.  A stored sample that also takes
B(u, du/dt) (second derivatives, or the pressure's first) keeps the grid
values of its N(u) pass, so B transforms du/dt alone: in "apart" N and B
take 6 transforms each on T^2 and 10 each on T^3, where B of a state
without kept values takes 9 and 16.

Steps 2-5 (``_on_grid`` and ``_quadratic``) work on stacked band halves,
one array (ncomp, *B, 2L+1, ..., L+1) with batch axes B or none: the
spectrum buffer is (B, *half_shape), the products (B, *grid.shape), every
transform runs on one component's last n axes and the band index is
(slice(None), *band); the symbols of ``spectral._apply_d``, the same walk
of the insertion table as the d of fields, broadcast from the right.  A
pass over B states makes as many component transforms as one evaluation
(the budgets above), each over B grids, so it moves B times the points
and saves the Python and small-array cost of B - 1 calls.
``nonlinear_term`` and ``bilinear_term`` share one body,
``_quadratic_term`` on ``BandHalves`` states: fields enter through
``checked_state`` and the result leaves through ``field``.  Every solver
(the field solvers, the Galerkin solves and Newton) steps its states
through that form.

``_quadratic_term`` takes a list of states (two aligned lists for B) and
runs them through the kernel in batches of ``_batch_size``: as many states
as keep one component's grid values across the batch within 128 KB, so
4 at T^2 res 64 and T^3 res 16, 64 at T^2 res 16, and one (no batch axis,
the single call's cost) from T^2 res 128 and T^3 res 32 on, where a batch
outgrows the cache and loses.  Newton's residual N(u_j) over a
trajectory, its final M2 pass and the discrete maps' cells go through it;
a kept state in a batch gets its slice of the batch's grid values, so a
later B(u_j, .) transforms only its other input.

The ``navier-stokes-i1`` preset instantiates M1 as the interior product
(exterior derivative of the velocity contracted with the velocity) and M2
as half the dot product, so N(u) = (u . grad) u on degree-1 fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np

from .hodge import helmholtz_project
from .norms import BochnerIndex, TimeSeriesSolution, bochner_norm
from .spectral import (
    FieldIntegrityError,
    FormField,
    SpectralGrid,
    _apply_d,
    _band_half,
    _band_shape,
    _band_slabs,
    _box_transform,
    _check_integer,
    _is_hermitian,
    _to_grid,
    dealias,
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
        _check_integer("degree", i)
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
    return tuple(inside.T % (2 * (grid.res // 3) + 1)), mirrored


def _band_box(grid: SpectralGrid) -> list | None:
    """The band's box where the kernel's transforms are pruned walks (from 2^15
    points on), else None: pruning read 1.05-1.3x slower at T^2 res 16/32, T^3 16."""
    return [i.ravel() for i in _band_half(grid)] if grid.res ** grid.n >= 1 << 15 else None


def _on_grid(cfg: NonlinearityConfig, grid: SpectralGrid, halves) -> tuple[list, list]:
    """One input of the kernel on the grid: its components and, where M1
    needs it, the components of its d.

    ``halves`` are stacked band halves (ncomp, *B, 2L+1, ..., L+1) with
    batch axes B or none; the grid values, one array per component, keep B.
    """
    band, axes, box = _band_half(grid), tuple(range(-grid.n, 0)), _band_box(grid)
    lead = np.shape(halves[0])[:-grid.n]
    index = (slice(None),) * len(lead) + band
    spectrum = None if box else np.zeros(lead + grid.half_shape, dtype=np.complex128)

    def physical(half):
        if box:
            return _box_transform(grid, half, box, inverse=True)
        # Every call writes the same band positions; the rest stays zero.
        spectrum[index] = half
        return np.fft.irfftn(spectrum, s=grid.shape, axes=axes, norm="forward")

    values = [physical(h) for h in halves]
    derivs = []
    if cfg.m1 is not None and cfg.degree < grid.n:
        derivs = [physical(h) for h in _apply_d(grid, cfg.degree, halves, band=True)]
    return values, derivs


def _quadratic(cfg: NonlinearityConfig, grid: SpectralGrid, *inputs, exact: str = "add"):
    """Band halves of Q(v, v) for one input, of Q(w, v) + Q(v, w) for two.

    Q(a, b) = M1(d a, b) + d M2(a, b); each input comes from ``_on_grid``.
    ``exact`` says what becomes of the exact part d M2: "add" makes Q,
    "drop" only the M1 output Q1, "apart" the pair (Q1, M2's band halves)
    and "only" M2's band halves alone; M2's halves are None where cfg has
    no M2.  The inputs' grid values share their leading batch axes B (or
    have none), and each output is a stack (ncomp, *B, 2L+1, ..., L+1).
    See the module docstring for the steps and the transform budget.
    """
    values = [v for v, _ in inputs]
    derivs = [d for _, d in inputs]
    lead = values[0][0].shape[:-grid.n]
    band, axes = (slice(None),) * len(lead) + _band_half(grid), tuple(range(-grid.n, 0))
    pairs, box = ((0, 0),) if len(inputs) == 1 else ((0, 1), (1, 0)), _band_box(grid)

    def spectral(bilinear, first, second):
        # Each pair's product in its own buffer, summed afterwards: then
        # B(v, v) is the exact double of N(v).
        out = np.empty((len(bilinear._entries),) + lead + _band_shape(grid), np.complex128)
        for row, entries in zip(out, bilinear._entries):
            prod = _contract(entries, first[pairs[0][0]], second[pairs[0][1]], lead + grid.shape)
            for i, j in pairs[1:]:
                prod += _contract(entries, first[i], second[j], lead + grid.shape)
            row[...] = (_box_transform(grid, prod, box) if box else np.fft.rfftn(
                prod, s=grid.shape, axes=axes, norm="forward")[band])
        return out

    out = None
    if exact != "only" and cfg.m1 is not None and cfg.degree < grid.n:
        out = spectral(cfg.m1, derivs, values)
    m2 = None
    if exact != "drop" and cfg.m2 is not None:
        m2 = spectral(cfg.m2, values, values)
        if exact == "add":
            out = _apply_d(grid, cfg.degree - 1, m2, band=True, out=out)
    if exact == "only":
        return m2
    if out is None:
        out = np.zeros((grid.component_count(cfg.degree),) + lead + _band_shape(grid),
                       dtype=np.complex128)
    return (out, m2) if exact == "apart" else out


class BandHalves:
    """A real field held as the band halves of its components.

    ``halves`` is one array (ncomp, 2L+1, ..., L+1) of the components' band
    halves (every |k_j| <= L = res // 3, k_last = 0..L); the field has no
    modes outside the band.  ``nonlinear_term`` and ``bilinear_term`` take
    such states for fields and return the result's band halves alike.  With
    ``keep`` the grid values and projections (``projected``) are made on
    first use and kept until ``drop_grid``, so a state used in many products
    is transformed once per nonlinearity, and one used in many stages is
    projected once per projector.
    """

    def __init__(self, grid: SpectralGrid, degree: int, halves, keep: bool = False):
        self.grid, self.degree, self.halves = grid, degree, halves
        self._kept = {} if keep else None

    def drop_grid(self) -> None:
        """Forget kept grid values and projections and keep none from now on."""
        self._kept = None

    def projected(self, project) -> np.ndarray:
        """``project(halves)``: made once per projector and kept with the grid
        values where the state is kept, made on every call otherwise."""
        if self._kept is None:
            return project(self.halves)
        if project not in self._kept:
            self._kept[project] = project(self.halves)
        return self._kept[project]

    def field(self) -> FormField:
        """The field: the band halves written into a stack of zero halves, slab by slab."""
        out, slabs = FormField.zeros(self.grid, self.degree), _band_slabs(self.grid)
        for c, half in zip(out.components, self.halves):
            for at, part in slabs:
                c[at] = half[part]
        return out


def checked_state(u, grid: SpectralGrid, degree: int, what: str,
                  keep: bool = False) -> BandHalves:
    """The ``BandHalves`` state of a field taken in by a solver or the kernel,
    after the one entry check, whose errors name the data ``what``: u must
    be a ``FormField`` of ``degree`` on ``grid`` (else ``ValueError``) with
    finite coefficients and a k_last = 0 band plane Hermitian at 1e-10, as
    ``to_physical`` (else ``FieldIntegrityError``)."""
    if not isinstance(u, FormField):
        raise ValueError(f"{what} is a {type(u).__name__}, not a FormField")
    if u.grid != grid or u.degree != degree:
        raise ValueError(f"{what} is a field of degree {u.degree} on {u.grid}, which "
                         f"does not match degree {degree} on {grid}")
    # The state keeps u's own grid object, which holds its cached arrays.
    slabs = _band_slabs(u.grid)
    halves = np.empty((len(u.components),) + _band_shape(u.grid), dtype=np.complex128)
    for half, c in zip(halves, u.components):
        if not np.all(np.isfinite(c)):
            raise FieldIntegrityError(f"{what} has non-finite coefficients")
        for at, part in slabs:
            half[part] = c[at]
        if not _is_hermitian(half[..., 0], 1e-10):
            raise FieldIntegrityError(f"{what}: coefficients are not Hermitian symmetric")
    return BandHalves(u.grid, degree, halves, keep)


# Batched passes save the Python and small-array cost of each call, which
# dominates on small grids, and lose once a batch's arrays outgrow the
# cache.  "drop" passes of N over 4 states against 4 single ones: 2.0x
# faster at T^2 res 32, 1.45x at T^2 res 64 and T^3 res 16 (128 KB a
# component), 0.6x at T^2 res 128 and T^3 res 24 (432-512 KB).  The cap
# gives batches of one from T^2 res 128 and T^3 res 32 on.
_BATCH_BYTES = 1 << 17


def _batch_size(grid: SpectralGrid) -> int:
    """States per kernel pass: as many as keep one component's grid values
    across the batch within ``_BATCH_BYTES``, and at least one."""
    return max(1, _BATCH_BYTES // (8 * grid.res ** grid.n))


def _states_on_grid(cfg: NonlinearityConfig, states: list) -> tuple[list, list]:
    """``_on_grid`` of a batch of states: one pass, with a leading batch
    axis for more than one state and none for one.

    A kept state's grid values are made once per nonlinearity: a batch of
    states that all hold them is stacked from them, and a pass gives each
    kept state its slice of the batch's values.
    """
    kept = [s._kept for s in states]
    if all(k is not None and cfg in k for k in kept):
        if len(states) == 1:
            return kept[0][cfg]
        return tuple([np.stack(parts) for parts in zip(*(k[cfg][i] for k in kept))]
                     for i in (0, 1))
    grid = states[0].grid
    if len(states) == 1:
        out = _on_grid(cfg, grid, states[0].halves)
        slices = [out]
    else:
        out = _on_grid(cfg, grid, np.stack([s.halves for s in states], axis=1))
        slices = [tuple([part[j] for part in parts] for parts in out)
                  for j in range(len(states))]
    for k, own in zip(kept, slices):
        if k is not None:
            k.setdefault(cfg, own)
    return out


EXACT_MODES = ("add", "drop", "apart", "only")


def _quadratic_term(cfg: NonlinearityConfig, *columns, exact: str = "add") -> list:
    """``_quadratic`` of each row of ``columns``, ``BandHalves`` states:
    one sequence of inputs for N, two aligned ones for B.  Each row gets
    its slice of the pass's stacked band halves (a pair of them for
    "apart", None for a missing M2).  Rows go through the kernel in passes
    of ``_batch_size``.
    """
    if exact not in EXACT_MODES:
        raise ValueError(f"exact must be one of {EXACT_MODES}, got {exact!r}")
    grid = columns[0][0].grid
    for a in (a for column in columns for a in column):
        if a.grid != grid:
            raise ValueError("product arguments live on different grids")
        if a.degree != cfg.degree:
            raise ValueError(f"field degree {a.degree} does not match nonlinearity "
                             f"degree {cfg.degree}")
    rows, size = len(columns[0]), _batch_size(grid)

    def leave(halves, count) -> list:
        # A stack (ncomp, count, ...) for count > 1 to one output per row.
        if halves is None:
            return [None] * count
        return list(np.ascontiguousarray(halves.swapaxes(0, 1))) if count > 1 else [halves]

    results = []
    for lo in range(0, rows, size):
        batch = [column[lo:lo + size] for column in columns]
        count = len(batch[0])
        if cfg.is_zero:
            zeros = np.zeros((grid.component_count(cfg.degree),) + ((count,) if count > 1 else ())
                             + _band_shape(grid), dtype=np.complex128)
            out = {"add": zeros, "drop": zeros, "apart": (zeros, None), "only": None}[exact]
        else:
            out = _quadratic(cfg, grid, *(_states_on_grid(cfg, b) for b in batch),
                             exact=exact)
        results += (zip(leave(out[0], count), leave(out[1], count)) if exact == "apart"
                    else leave(out, count))
    return results


def _term(cfg: NonlinearityConfig, exact: str, name: str, **args):
    """``name`` (nonlinear_term or bilinear_term) of ``BandHalves`` states, or
    of fields checked against the first one's grid and cfg's degree, named
    "<name> argument <key>", whose result leaves through ``field``."""
    if all(isinstance(a, BandHalves) for a in args.values()):
        return _quadratic_term(cfg, *([a] for a in args.values()), exact=exact)[0]
    grid = getattr(next(iter(args.values())), "grid", None)
    states = [[checked_state(a, grid, cfg.degree, f"{name} argument {key}")]
              for key, a in args.items()]
    out = _quadratic_term(cfg, *states, exact=exact)[0]

    def field(halves, degree):
        return None if halves is None else BandHalves(grid, degree, halves).field()

    if exact == "apart":
        return field(out[0], cfg.degree), field(out[1], cfg.degree - 1)
    return field(out, cfg.degree - 1 if exact == "only" else cfg.degree)


def nonlinear_term(v: FormField | BandHalves, cfg: NonlinearityConfig, *,
                   exact: str = "add"):
    """N(v) = M1(d v, v) + d M2(v, v); its band halves for ``BandHalves`` v.

    ``exact`` other than "add" treats the exact part d M2(v, v) apart, for
    callers that project it away: "drop" gives M1(d v, v), "apart" the pair
    (M1(d v, v), M2(v, v)) and "only" M2(v, v), None for a cfg without M2.
    """
    return _term(cfg, exact, "nonlinear_term", v=v)


def bilinear_term(w: FormField | BandHalves, v: FormField | BandHalves,
                  cfg: NonlinearityConfig, *, exact: str = "add"):
    """Polarization B(w, v) = N(w + v) - N(w) - N(v), evaluated directly.

    w and v are both fields or both ``BandHalves``; for the latter the
    result is B's band halves.  ``exact`` splits off the exact part
    d (M2(w, v) + M2(v, w)) as in ``nonlinear_term``.
    """
    if isinstance(w, BandHalves) != isinstance(v, BandHalves):
        raise TypeError("bilinear_term takes two fields or two BandHalves")
    return _term(cfg, exact, "bilinear_term", w=w, v=v)


def convective_term(w: FormField, u: FormField) -> FormField:
    """(w . grad) u for degree-1 fields, via dealiased products."""
    if w.degree != 1 or u.degree != 1:
        raise ValueError("the convective term is defined for degree-1 fields")
    grid = w.grid
    w_phys = to_physical(dealias(w))
    comps = []
    for c in dealias(u).components:
        acc = np.zeros(grid.shape)
        for wj, dc in zip(w_phys, _apply_d(grid, 0, [c])):  # the gradient of c
            acc += wj * _to_grid(grid, dc)
        comps.append(acc)
    return dealias(FormField.from_physical(grid, 1, comps))


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

