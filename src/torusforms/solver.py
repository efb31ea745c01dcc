"""Faedo-Galerkin IMEX solvers for parabolic problems on torus forms.

The state space is the band-limited divergence-free mean-free subspace
(the span of the Galerkin basis).  Time stepping uses Lawson-type
integrating-factor schemes: the stiff diffusion is integrated exactly by
the multiplier exp(-mu |k|^2 dt) and the advection/nonlinear term is
explicit, either forward-Euler (``imex-euler``) or a two-stage midpoint
rule (``imex-rk2``).  One loop, ``_run_scheme``, steps every solve and
keeps no state but the current one; the field solves' stage guards
against blow-up, and Newton's linear solve is unguarded by design.

Equations integrated (all terms projected onto the state space):

    linearized:  d/dt u = -mu Lap u - P B(w, u) + P f
    nonlinear:   d/dt u = -mu Lap u - P N(u)    + P f

The field solvers and the Newton inversion of the discrete forward map
step the band half k_last = 0..L (L = res // 3) of the state, one
(ncomp, 2L+1, ..., L+1) complex array: the integrating factor acts mode by
mode, so the half carries the whole scheme.  Every field a solver takes in
(the initial datum, time data, Newton's seed and targets, the discrete maps'
trajectories, a diagnostic's samples where a quadratic term reads them)
passes the one entry check, ``checked_state``, once, with an error that
names it, and enters as its band halves; modes outside the band are
dropped.  A stage passes the state to nonlinear_term or bilinear_term as
``BandHalves`` and gets the band halves of Q back, and fields are rebuilt
by ``BandHalves.field`` only where they leave.  Newton and the discrete
maps evaluate the kernel at every state of a trajectory at once, in
batched passes (``nonlinear._quadratic_term`` of a list of states).

The pressure has no evolution equation; at sample times it is the
potential of the gradient part of the source, d p = (I - P)(f - Q(u)) with
Q the advection or nonlinear term.  On the flat torus delta Lap^-1 inverts
d on exact forms and sends coclosed forms to zero, so p = delta Lap^-1 (f -
Q) needs no projection (Hodge-Helmholtz decomposition).

Q = Q1 + d M2 with Q1 = M1(d u, u), and P kills the exact part d M2, so
every projected stage takes Q1 alone from the kernel (its "drop" mode).
The pressure takes the exact part back in closed form on band halves,

    p = delta Lap^-1 (f - Q1) - delta d Lap^-1 M2,

where for degree 1 the last term is M2 minus its mean; a stage that
starts a stored sample with pressures gets M2 from the same grid pass
(the "apart" mode), so no state depends on which steps are stored.  The
pressure's time derivative splits B(u, du/dt) alike.  A Galerkin basis
kills d M2 as well: ``GalerkinBasis`` admits only fibres divergence-free
to 1e-13 |k|, and ``build_basis`` makes them in closed form from the
symbol of delta, divergence-free to rounding.

The Galerkin solves (``apply_inverse`` and the truncation study) run the
same solver on the same band-half state, with the basis projector P_m in
place of the state-space projection: the truncated solution solves the
P_m-projected equation, one kernel call a stage (B(w(t), .) for the
linearized operator, N for the study).  B is bilinear, so this applies the
Galerkin matrices C(t)^T exactly, and they are never formed.

Cached time derivatives attached to solutions are obtained by
substituting the evolution equation (and its differentiated form), never
by finite differences; the finite-difference formulas in the residual
diagnostics measure scheme accuracy and are intentional.  A stored sample
is made from the parts of the stage that starts at it, a stored final
state from one more call of the stage: Q(u) on the band half, the forcing
drawn and the explicit term r = -P Q + P f.  Then du/dt = -mu |k|^2 u + r
on the band half and p is the split formula above; where the solver has
it, Q'(u) du/dt gives the second derivative and the pressure's first
alike.
"""

from __future__ import annotations

import csv
import math
import re
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from math import comb
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .norms import TimeSeriesSolution
from .nonlinear import (
    PRESETS,
    BandHalves,
    NonlinearityConfig,
    _half_position,
    _quadratic_term,
    bilinear_term,
    checked_state,
    get_preset,
    nonlinear_term,
)
from .spectral import (
    ConsistencyError,
    FormField,
    SpectralGrid,
    _apply_d,
    _band_half,
    _band_shape,
    _check_integer,
    _insertion_table,
    _inverse_squares,
    _parseval_norm,
    _read_only,
    _rescaled,
    codifferential,
    exterior_derivative,
    fractional_power,
    hodge_laplacian,
    inner_product,
    l2_norm,
    load_field,
    multi_indices,
    parametrix,
    save_field,
)

BLOWUP_THRESHOLD = 1e12
SCHEMES = ("imex-euler", "imex-rk2")


class SolverDivergenceError(RuntimeError):
    """The trajectory norm crossed the blow-up guard."""


# -- configuration -----------------------------------------------------------


@dataclass(frozen=True)
class SolverConfig:
    """Time-integration parameters; dt must divide the horizon T."""

    mu: float
    T: float
    dt: float
    res: int = 32
    degree: int = 1
    scheme: str = "imex-rk2"
    preset: str = "navier-stokes-i1"
    newton_max_iter: int = 12
    newton_tol: float = 1e-10
    n: int = 2

    def __post_init__(self):
        for key, value in (("degree", self.degree), ("newton.max_iter", self.newton_max_iter)):
            _check_integer(key, value)
        for key, value in (("mu", self.mu), ("T", self.T), ("dt", self.dt),
                           ("newton.tol", self.newton_tol)):
            if not math.isfinite(value):
                raise ValueError(f"{key} must be finite, got {value!r}")
        if self.mu <= 0:
            raise ValueError("viscosity mu must be positive")
        if self.T <= 0 or self.dt <= 0:
            raise ValueError("horizon T and step dt must be positive")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        steps = round(self.T / self.dt)
        if steps < 1 or not math.isclose(steps * self.dt, self.T, rel_tol=1e-8):
            raise ValueError("dt must divide the horizon T into whole steps")
        if self.newton_max_iter < 1 or self.newton_tol <= 0:
            raise ValueError("newton parameters must be positive")
        self.grid()  # a bad n or res fails here, named
        if not 0 <= self.degree <= self.n:
            raise ValueError(f"degree must lie in 0..{self.n}, got {self.degree}")
        if self.preset not in PRESETS:
            raise ValueError(f"preset must be one of {PRESETS}, got {self.preset!r}")
        self.nonlinearity()  # a preset that does not fit the degree fails here

    @property
    def steps(self) -> int:
        return round(self.T / self.dt)

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.steps + 1)

    def grid(self) -> SpectralGrid:
        return SpectralGrid(self.n, self.res)

    def nonlinearity(self) -> NonlinearityConfig:
        return get_preset(self.preset, self.n, self.degree)


_CONFIG_KEYS = {
    "mu": ("mu", float),
    "T": ("T", float),
    "dt": ("dt", float),
    "res": ("res", int),
    "degree": ("degree", int),
    "scheme": ("scheme", str),
    "preset": ("preset", str),
    "newton.max_iter": ("newton_max_iter", int),
    "newton.tol": ("newton_tol", float),
    "n": ("n", int),
}


def parse_solver_config(text: str) -> SolverConfig:
    """Parse the structured text configuration.

    One ``key = value`` (or ``key value``) pair per line; ``#`` starts a
    comment.  Keys: mu, T, dt, res, degree, scheme, preset,
    newton.max_iter, newton.tol, and optionally n (torus dimension).
    """
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = re.split(r"\s*=\s*|\s+", line, maxsplit=1)
        if len(parts) != 2 or not parts[1]:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = parts[0], parts[1].strip()
        if key not in _CONFIG_KEYS:
            raise ValueError(f"line {lineno}: unknown configuration key {key!r}")
        if key in values:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        attr, conv = _CONFIG_KEYS[key]
        try:
            values[attr] = conv(value)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad value for {key!r}: {value!r}") from exc
    missing = [k for k in ("mu", "T", "dt") if k not in values]
    if missing:
        raise ValueError(f"configuration is missing required keys: {missing}")
    return SolverConfig(**values)


def load_solver_config(path) -> SolverConfig:
    return parse_solver_config(Path(path).read_text())


def format_solver_config(cfg: SolverConfig) -> str:
    lines = ["# solver configuration"]
    for key, (attr, _) in _CONFIG_KEYS.items():
        lines.append(f"{key} = {getattr(cfg, attr)}")
    return "\n".join(lines) + "\n"


# -- state-space projection ---------------------------------------------------


@lru_cache(maxsize=None)
def _half_k_squared(grid: SpectralGrid) -> np.ndarray:
    """|k|^2 on the band half."""
    return _read_only(grid.k_squared[_band_half(grid)])


@lru_cache(maxsize=None)
def _band_parametrix(grid: SpectralGrid) -> np.ndarray:
    """1/|k|^2 (zero at k = 0) on the band half."""
    return _read_only(_inverse_squares(_half_k_squared(grid)))


def project_state(u: FormField) -> FormField:
    """Orthogonal projection onto the solver state space.

    Dealiased band, divergence-free (kernel of the codifferential), zero
    mean; the harmonic mode is excluded so the diffusion semigroup is a
    strict contraction on states.  One pass of delta d (mask |k|^-2 u)
    through the insertion table, on the band half only: inside the band it
    makes the operations of remove_harmonic(helmholtz_project(dealias(u)))
    in their order, so the two agree bit for bit.
    """
    band = (slice(None),) + _band_half(u.grid)
    out = np.zeros((len(u.components),) + u.grid.half_shape, dtype=np.complex128)
    out[band] = _band_projection(u.grid, u.degree, np.stack(u.components)[band])
    return FormField(u.grid, u.degree, tuple(out))


def _band_projection(grid: SpectralGrid, degree: int, parts: np.ndarray) -> np.ndarray:
    """project_state of stacked band halves ``parts``, stacked."""
    if degree == grid.n:
        return np.zeros_like(parts)
    dphi = _apply_d(grid, degree, _band_parametrix(grid) * parts, band=True)
    return _apply_d(grid, degree + 1, dphi, adjoint=True, band=True)


def _initial_state(u0, grid: SpectralGrid, degree: int) -> BandHalves:
    """The state of the initial datum u0, after the entry check
    (``checked_state``, named "initial datum") and then the divergence test
    (``ConsistencyError`` where |delta u0| > 1e-10 max(|u0|, 1))."""
    state = checked_state(u0, grid, degree, "initial datum")
    if degree >= 1:
        div = l2_norm(codifferential(u0))
        if div > 1e-10 * max(l2_norm(u0), 1.0):
            raise ConsistencyError(
                f"initial datum is not divergence-free: |delta u0| = {div:.3e}"
            )
    return state


# -- data samplers -------------------------------------------------------------


def _draw(series, times: np.ndarray, what: str, grid: SpectralGrid, degree: int,
          on_grid: bool = False):
    """(j, midpoint) -> the checked pair (state, field) of the data at t_j or
    at the midpoint of [t_j, t_j+1], None where the data are zero.

    ``series`` is None (zero), a field (constant), a sequence on the time
    grid ``times`` or a callable of time, which is evaluated at the
    midpoint.  A sequence gives the mean of its two neighbouring samples
    there (second order, as the midpoint scheme), and so does a callable
    ``on_grid``: it is sampled on the time grid, here.  A sample may be
    None, which is zero, under both schemes.  Every other sample passes
    ``checked_state`` against ``grid`` and ``degree`` once, named "<what>
    (constant)", "<what> sample i" or "<what> at t = ...": a constant and a
    sequence's samples here, at entry, a callable's values when they are
    drawn.  A constant's state is kept (``keep``), so it goes on the grid
    and makes its projection (``BandHalves.projected``) once however many
    stages use it.  A mean is taken on the states of checked samples and
    has no field (None): only the pressure reads a forcing's field, at
    stored samples, never at a midpoint.
    """
    def checked(sample, where, keep=False):
        return None if sample is None else (
            checked_state(sample, grid, degree, f"{what} {where}", keep), sample)

    if series is None or isinstance(series, FormField):
        constant = checked(series, "(constant)", True)
        return lambda j, midpoint=False: constant
    if callable(series) and not on_grid:
        def draw(j, midpoint=False):
            t = float(0.5 * (times[j] + times[j + 1]) if midpoint else times[j])
            return checked(series(t), f"at t = {t!r}")
        return draw
    samples = [series(float(t)) for t in times] if callable(series) else list(series)
    if len(samples) != len(times):
        raise ValueError(f"{what} series has {len(samples)} samples for "
                         f"{len(times)} time grid points")
    samples = [checked(sample, f"sample {i}") for i, sample in enumerate(samples)]

    def draw(j, midpoint=False):
        if not midpoint:
            return samples[j]
        pair = [state.halves for state, _ in filter(None, samples[j:j + 2])]
        return None if not pair else (
            BandHalves(grid, degree, sum(pair[1:], pair[0]) * 0.5), None)
    return draw


# -- generic Lawson stepping ---------------------------------------------------


def _run_scheme(cfg: SolverConfig, state0, rhs):
    """Integrate d/dt g = -mu Lap g + rhs from ``state0`` over cfg's time
    grid by cfg's scheme, the diffusion exactly: a step of tau multiplies
    the band-half state by exp(-mu tau |k|^2).  ``rhs(j, midpoint, state)``
    evaluates the explicit term on band-half states.  Returns the final
    state; no other state outlives its step.
    """
    dt = cfg.T / cfg.steps
    k2 = _half_k_squared(cfg.grid())
    full, half = (np.exp(-cfg.mu * tau * k2) for tau in (dt, 0.5 * dt))
    u = state0
    for j in range(cfg.steps):
        if cfg.scheme == "imex-euler":
            u = (u + rhs(j, False, u) * dt) * full
        else:
            u_mid = (u + rhs(j, False, u) * (0.5 * dt)) * half
            u = u * full + rhs(j, True, u_mid) * half * dt
    return u


def _half_norm(state: np.ndarray) -> float:
    """L2 norm of the real field with band halves ``state``, one
    ``_parseval`` over the stack, finite for finite halves (``_rescaled``)."""
    return _rescaled(_parseval_norm, (state,))


def _half_guard(state: np.ndarray, j: int) -> None:
    """The blow-up guard on the state at time index j (after step j)."""
    norm = _half_norm(state)
    if not np.isfinite(norm) or norm > BLOWUP_THRESHOLD:
        raise SolverDivergenceError(
            f"trajectory norm exceeded {BLOWUP_THRESHOLD:.0e} at step {j}"
        )


def _stored_indices(steps: int, store_every: int) -> list[int]:
    if store_every < 1 or store_every > steps:
        raise ValueError("store_every must lie in [1, steps]")
    stored = list(range(0, steps + 1, store_every))
    if stored[-1] != steps:
        stored.append(steps)
    return stored


# -- field-space solvers --------------------------------------------------------


def _field_solve(cfg: SolverConfig, ns: NonlinearityConfig, u0: BandHalves, f,
                 advection, f_dt, stored: Sequence[int], derivatives: int,
                 with_pressure: bool, basis: "GalerkinBasis | None" = None
                 ) -> TimeSeriesSolution:
    """P u0 (u0 the ``_initial_state``) stepped by ``_run_scheme`` on its
    band half, sampled at ``stored`` (which ends at the last step).

    P is the projector of ``basis`` on stacked band halves, P_m, or the
    state-space projection for None.  A stage is r = -P Q + P f on the
    half, from Q's band halves at a ``BandHalves`` state (N(u) for
    ``advection`` None, else B(w_j, u) with w_j the state of the pair
    advection(j, midpoint), zero where that is None; the kernel checks the
    degrees) and the forcing pair f(j, midpoint), both ``_draw``s.  Both
    projectors kill exact forms (a basis is admitted only with fibres
    divergence-free to rounding), so Q is Q1, the kernel's M1 output, and a
    stage that starts a sample with pressures takes M2 from the same grid
    pass.  The stage that starts at a stored index, and one more stage call
    at the final state, hands these parts to the ``_sampler``.  A stage at
    time index j > 0 first guards its state (``_half_guard``), and so does
    the final state, by that call or before it is stored.  With
    ``f_dt``, the df/dt pairs, the samples that need them (``derivatives``
    2, or 1 with pressures) also take Q'(u) du = B(u, du) and df/dt.

    Such a sample's state keeps the grid values its N(u) made until ``take``
    returns, so B(u, du) transforms du alone.  For ``navier-stokes-i1`` a
    sample stage with pressures then makes 6 component transforms for N and
    6 for B on T^2 (10 and 10 on T^3), where an unkept state would make 9
    (16) for B; every other stage makes 5 (9)."""
    grid, degree = u0.grid, u0.degree
    if with_pressure and ns.degree == 0:
        raise ValueError("a degree-0 equation has no pressure: pass with_pressure=False")
    project = partial(_band_projection, grid, degree) if basis is None else basis._project_band
    state0 = project(u0.halves)
    sample_mode = "apart" if with_pressure else "drop"
    takes_dq = f_dt is not None and (derivatives == 2 or (derivatives == 1 and with_pressure))
    take, solution = _sampler(
        cfg.mu, project, derivatives, with_pressure,
        (lambda i, u, du: (*_split(bilinear_term(u, du, ns, exact=sample_mode)), f_dt(i)))
        if takes_dq else None)
    starts = frozenset(stored)

    def rhs(j, midpoint, state):
        if not midpoint and j:
            _half_guard(state, j)
        sample = not midpoint and j in starts
        u = BandHalves(grid, degree, state, keep=sample and takes_dq)
        exact = sample_mode if sample else "drop"
        if advection is None:
            q, m2 = _split(nonlinear_term(u, ns, exact=exact))
        else:
            wj = advection(j, midpoint)
            q, m2 = ((np.zeros_like(state), None) if wj is None
                     else _split(bilinear_term(wj[0], u, ns, exact=exact)))
        fj = f(j, midpoint)
        r = _explicit(project, q, fj)
        if sample:
            take(j, u, q, m2, None if fj is None else fj[1], r)
            u.drop_grid()
        return r

    last = _run_scheme(cfg, state0, rhs)
    if derivatives >= 1 or with_pressure:
        rhs(cfg.steps, False, last)
    else:
        _half_guard(last, cfg.steps)
        take(cfg.steps, BandHalves(grid, degree, last))
    return solution(cfg.times()[list(stored)])


def _split(out) -> tuple:
    """(Q's band halves, M2's or None) from a kernel result, a pair for the
    "apart" mode and Q alone otherwise."""
    return out if isinstance(out, tuple) else (out, None)


def _explicit(project, q: np.ndarray, forcing) -> np.ndarray:
    """-P q + P f, from Q's band halves q and a ``_draw``'s forcing pair
    (None for no forcing), P ``project`` on stacked band halves and P f the
    state's ``projected``, which a kept (constant) state makes once."""
    out = -project(q)
    return out if forcing is None else out + forcing[0].projected(project)


def _sampler(mu: float, project, derivatives: int, with_pressure: bool, quad_dt=None):
    """``take`` and ``solution`` of the stored samples of a solve: the states
    as fields, with equation-substituted derivatives and pressures, and
    ``project`` as P.

    ``take(i, u, q, m2, f, r)`` gets the parts of the stage that starts at
    the stored time index i: the ``BandHalves`` state u, Q's band halves q
    (Q1 where the exact part d M2 is left out, with M2's band halves m2;
    the full Q and None otherwise), the forcing field f or None, and r = -P
    q + P f (only u where neither derivatives nor pressures are asked for).
    Then du/dt = -mu |k|^2 u + r on the band half and p = ``_pressure`` of
    f, q and m2.  ``quad_dt(i, u, du)``, where the solver passes it (only
    when the samples need it), gives Q'(u) du split alike and the df/dt
    pair of a ``_draw`` once per sample, for the second derivative and the
    pressure's first; u comes with the grid values of
    the stage's N(u) kept, so B(u, du) transforms du alone (3 inverse and 3
    forward component transforms for ``navier-stokes-i1`` on T^2 with
    pressures, 6 and 4 on T^3).
    States and derivatives are held as band halves and become fields in
    ``solution``, after the stepping.
    """
    u_list, first, second, p_list, p_first = [], [], [], [], []

    def take(i: int, u: BandHalves, q=None, m2=None, f=None, r=None) -> None:
        u_list.append(u)
        if with_pressure:
            p_list.append(_pressure(u, q, m2, f))
        if derivatives == 0:
            return
        decay = -mu * _half_k_squared(u.grid)
        du = BandHalves(u.grid, u.degree, u.halves * decay + r)
        first.append(du)
        if quad_dt is None:
            return
        dq, dm2, df = quad_dt(i, u, du)
        if derivatives == 2:
            r_dt = _explicit(project, dq, df)
            second.append(BandHalves(u.grid, u.degree, du.halves * decay + r_dt))
        if with_pressure:
            p_first.append(_pressure(u, dq, dm2, None if df is None else df[1]))

    def solution(times: np.ndarray) -> TimeSeriesSolution:
        dt_cache = {d: [s.field() for s in states]
                    for d, states in ((1, first), (2, second)) if d <= derivatives}
        return TimeSeriesSolution(times, [u.field() for u in u_list],
                                  p=p_list if with_pressure else None,
                                  dt_cache=dt_cache,
                                  p_dt_cache={1: p_first} if p_first else {})

    return take, solution


def _pressure(u: BandHalves, q: np.ndarray, m2, f) -> FormField:
    """p = delta Lap^-1 (f - Q) for Q = q + d m2 (q and m2 band halves on
    u's grid, m2 None for no exact part; f the forcing field, zero for
    None), split as

        p = delta Lap^-1 (f - q) - delta d Lap^-1 m2,

    the parts of q and m2 on the band half, the part of f on the full half,
    whose modes outside the band reach p.  delta d Lap^-1 m2 is the
    state-space projection of m2 (for degree 1, m2 minus its mean).  p is
    zero where d p = (I - P)(f - Q), the gradient part of the source, is
    below rounding level relative to the parts it is made from: |d p| <=
    1e-12 max(|f| + |q| + |d m2|, 1)."""
    grid, degree = u.grid, u.degree
    parts = _apply_d(grid, degree, q * -_band_parametrix(grid), adjoint=True, band=True)
    scale = _half_norm(q)
    if m2 is not None:
        parts = parts - _band_projection(grid, degree - 1, m2)
        scale += _half_norm(_apply_d(grid, degree - 1, m2, band=True))
    p = BandHalves(grid, degree - 1, parts).field()
    if f is not None:
        p = p + codifferential(parametrix(f))
        scale += l2_norm(f)
    if l2_norm(exterior_derivative(p)) <= 1e-12 * max(scale, 1.0):
        return FormField.zeros(grid, degree - 1)
    return p


def solve_linearized(
    w_series,
    f_series,
    u0: FormField,
    cfg: SolverConfig,
    ns_cfg: NonlinearityConfig | None = None,
    *,
    derivatives: int = 1,
    store_every: int = 1,
    with_pressure: bool = True,
) -> TimeSeriesSolution:
    """Integrate d/dt u = -mu Lap u - P B(w, u) + P f, u(0) = P u0.

    ``w_series`` and ``f_series`` may each be None, a constant field, a
    sequence on the time grid, or a callable of time.  Derivative caching
    beyond order 1 is unsupported here because it would require dw/dt.
    """
    if derivatives > 1:
        raise ValueError("linearized solves cache derivatives up to order 1")
    ns = ns_cfg if ns_cfg is not None else cfg.nonlinearity()
    times, grid, degree = cfg.times(), cfg.grid(), ns.degree
    state0 = _initial_state(u0, grid, degree)
    advection = _draw(w_series, times, "advection field", grid, degree)
    f = _draw(f_series, times, "forcing", grid, degree)
    return _field_solve(cfg, ns, state0, f, advection, None,
                        _stored_indices(cfg.steps, store_every), derivatives, with_pressure)


def solve_nonlinear(
    f_series,
    u0: FormField,
    cfg: SolverConfig,
    ns_cfg: NonlinearityConfig | None = None,
    *,
    derivatives: int = 1,
    store_every: int = 1,
    with_pressure: bool = True,
    f_dt_series=None,
) -> TimeSeriesSolution:
    """Integrate d/dt u = -mu Lap u - P N(u) + P f, u(0) = P u0.

    The second derivative and the pressure's first substitute the
    differentiated equation and need df/dt: ``f_dt_series``, or None for
    no or constant forcing (for time-dependent forcing None leaves
    ``p_dt_cache`` empty, and ``derivatives=2`` raises).
    """
    ns = ns_cfg if ns_cfg is not None else cfg.nonlinearity()
    if derivatives > 2:
        raise ValueError("derivative caching supports orders up to 2")
    no_f_dt = f_dt_series is None and not isinstance(f_series, (FormField, type(None)))
    if derivatives >= 2 and no_f_dt:
        raise ValueError(
            "second derivatives of a time-dependent forcing need f_dt_series")
    times, grid, degree = cfg.times(), cfg.grid(), ns.degree
    state0 = _initial_state(u0, grid, degree)
    data = partial(_draw, times=times, grid=grid, degree=degree)
    f_dt = None if no_f_dt else data(f_dt_series, what="forcing derivative")
    return _field_solve(cfg, ns, state0, data(f_series, what="forcing"), None, f_dt,
                        _stored_indices(cfg.steps, store_every), derivatives, with_pressure)


# -- Galerkin basis -------------------------------------------------------------


def _divergence_matrix(n: int, degree: int, k: np.ndarray) -> np.ndarray:
    """Real matrix whose kernel is the divergence-free fibre at mode k.

    For a pure mode trig(k.x) xi the codifferential vanishes iff L xi = 0,
    where L is the wavevector contraction read off the insertion table.  A
    k of shape (n, m) gives the m matrices along a last axis.
    """
    if degree == 0:
        return np.zeros((0, 1) + np.shape(k)[1:])
    rows, cols = comb(n, degree - 1), comb(n, degree)
    L = np.zeros((rows, cols) + np.shape(k)[1:])
    for out_idx, in_idx, axis, sign in _insertion_table(n, degree - 1):
        L[in_idx, out_idx] += sign * k[axis]
    return L


def _fibres(n: int, degree: int, modes: np.ndarray) -> np.ndarray:
    """Orthonormal divergence-free fibres at the nonzero integer ``modes``
    (m, n), shape (m, C(n-1, degree), C(n, degree)).

    The symbol of delta is the contraction iota_k, and its sequence is exact
    at k != 0 (the Koszul complex), so ker iota_k = iota_k(degree+1 forms).
    With j the first axis of largest |k_j|, the columns of
    ``_divergence_matrix(n, degree + 1, k)`` at the multi-indices J that
    contain j are a frame of that kernel with integer entries, each with
    entry +-k_j at J - {j}, where the others vanish.  Signed so that entry
    is |k_j|, they are orthonormalized in multi-index order (Gram-Schmidt,
    twice), all modes at once; an axis-aligned k gives axis-aligned fibres.
    """
    k = np.asarray(modes, dtype=np.float64).reshape(-1, n)
    at, j = np.arange(len(k)), np.argmax(np.abs(k), axis=1)
    combos = multi_indices(n, degree + 1)
    columns = np.array([[c for c, J in enumerate(combos) if a in J] for a in range(n)])
    parity = np.array([[(-1.0) ** J.index(a) for J in combos if a in J] for a in range(n)])
    L = _divergence_matrix(n, degree + 1, k.T)
    frame = np.moveaxis(L[:, columns[j], at[:, None]], 0, -1)
    frame *= (parity[j] * np.sign(k[at, j])[:, None])[..., None]
    for i in range(frame.shape[1]):
        done, v = frame[:, :i], frame[:, i]
        for _ in range(2):
            v -= np.einsum("mfc,mf->mc", done, np.einsum("mfc,mc->mf", done, v))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
    return frame


def _canonical_modes(grid: SpectralGrid) -> np.ndarray:
    """Nonzero band wavevectors with positive leading nonzero component,
    shape (count, n), ordered by |k|^2 then lexicographically."""
    limit = grid.res // 3
    k = np.indices((2 * limit + 1,) * grid.n).reshape(grid.n, -1).T - limit
    k = k[k[np.arange(len(k)), np.argmax(k != 0, axis=1)] > 0]
    return k[np.lexsort((*k.T[::-1], np.sum(k**2, axis=1)))]


@dataclass(frozen=True, eq=False)
class GalerkinBasis:
    """Ordered orthonormal divergence-free eigenfields of the Laplacian.

    Fields are sqrt(2) {cos, sin}(k.x) xi over canonical wavevectors k
    (positive leading nonzero component) and orthonormal fibre vectors
    xi in the divergence-free kernel; ordering is (|k|^2, k lexicographic,
    cos before sin, fibre index).  Eigenvalue of field j is |k_j|^2
    (``eigenvalues``, computed from the modes).

    Field j lives on the two modes +-k_j, so the basis stores only its mode
    data: ``modes`` (m, n), ``fibres`` (m, ncomp) and ``sine`` (m,).  Its
    coefficient at +k_j is ``phase_j xi_j`` and at -k_j the conjugate, with
    phase sqrt(2)/2 for cos and -i sqrt(2)/2 for sin; ``synthesize``
    scatters in the band half.  Construction checks one fibre and sine flag
    per nonzero band mode, and that the fibres are unit, orthogonal at each mode
    and phase, so P_m is an orthogonal projection, and divergence-free to
    1e-13 |k_j| (the contraction of ``_divergence_matrix``), so P_m kills
    exact forms to rounding; a ``ValueError`` names the first field that
    fails.  Compared by identity: ``==`` is ``is`` and ``hash`` the
    object's id.
    """

    grid: SpectralGrid
    degree: int
    modes: np.ndarray
    fibres: np.ndarray
    sine: np.ndarray

    def __post_init__(self):
        grid = self.grid
        modes = np.asarray(self.modes, dtype=np.int64).reshape(-1, grid.n)
        if len(modes) == 0:
            raise ValueError("basis needs at least one field")
        object.__setattr__(self, "modes", modes)
        shapes = {"fibres": (np.float64, (-1, grid.component_count(self.degree))),
                  "sine": (bool, -1)}
        for name, (dtype, shape) in shapes.items():
            value = np.asarray(getattr(self, name), dtype=dtype).reshape(shape)
            if len(value) != len(modes):
                raise ValueError(f"field {min(len(value), len(modes))}: {name} has "
                                 f"{len(value)} entries for {len(modes)} modes")
            object.__setattr__(self, name, value)
        limit, squares = grid.res // 3, self.eigenvalues
        for problem, bad in (("is the zero mode", squares == 0),
                             (f"lies outside the band |k_i| <= {limit}",
                              np.any(np.abs(modes) > limit, axis=1))):
            if np.any(bad):
                j = int(np.argmax(bad))
                raise ValueError(f"field {j}: mode {tuple(modes[j].tolist())} {problem}")
        fibres = self.fibres
        div = np.einsum("ijm,mj->mi", _divergence_matrix(grid.n, self.degree, modes.T),
                        fibres)
        div = np.linalg.norm(div, axis=1) / np.sqrt(squares)
        # With unit fibres, P_m at a mode is idempotent iff the fibres of its
        # fields of one phase are orthogonal; tested at each field's own
        # half position and phase only, (m, ncomp, ncomp).
        at = (self.sine.astype(int), slice(None), slice(None)) + self._half_index[0][0]
        mats = self._projector[at]
        overlap = np.max(np.abs(mats @ mats - mats), axis=(-2, -1))
        for problem, bad in (("is not a unit vector",
                              ~(np.abs(np.linalg.norm(fibres, axis=1) - 1.0) <= 1e-10)),
                             ("is not divergence-free at its mode", ~(div <= 1e-13)),
                             ("is not orthogonal to another field's at its mode and phase",
                              overlap > 1e-10)):
            if np.any(bad):
                j = int(np.argmax(bad))
                raise ValueError(f"field {j}: fibre {fibres[j].tolist()} {problem}")

    @property
    def m(self) -> int:
        return len(self.modes)

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """|k_j|^2 of each field, as float64."""
        return np.sum(self.modes**2, axis=1).astype(np.float64)

    @property
    def fields(self) -> tuple[FormField, ...]:
        """The basis fields, synthesized on every access."""
        return tuple(self.synthesize(e) for e in np.eye(self.m))

    @cached_property
    def _phase(self) -> np.ndarray:
        return np.where(self.sine, -1j * (np.sqrt(2.0) / 2.0), np.sqrt(2.0) / 2.0)

    @cached_property
    def _half_index(self) -> tuple[tuple[tuple, np.ndarray], ...]:
        """``_half_position`` of +k_j and of -k_j: the kernel's layout."""
        return tuple(_half_position(self.grid, q) for q in (self.modes, -self.modes))

    @cached_property
    def _projector(self) -> np.ndarray:
        """P_m on the band half, shape (2, ncomp, ncomp, 2L+1, ..., L+1): per
        mode the cos fields' sum of xi xi^T (for the real part) and the sin
        fields' (for the imaginary part), each field added at each distinct
        half position of +-k_j, so a split shell or fibre is covered too."""
        ncomp = self.fibres.shape[1]
        mats = np.zeros((2, ncomp, ncomp) + _band_shape(self.grid))
        outer = self.fibres[:, :, None] * self.fibres[:, None, :]
        for index, mirrored in self._half_index:
            keep = ~mirrored
            at = tuple(i[keep] for i in index)
            np.add.at(mats, (self.sine[keep].astype(int), slice(None), slice(None)) + at,
                      outer[keep])
        return mats

    def _project_band(self, halves) -> np.ndarray:
        """P_m of the real field with band halves ``halves``, stacked: C Re q
        + i S Im q mode by mode, C and S the two fields of ``_projector``."""
        q, (cos, sin) = np.asarray(halves), self._projector
        return np.sum(cos * q.real, axis=1) + 1j * np.sum(sin * q.imag, axis=1)

    def synthesize(self, coeffs: np.ndarray) -> FormField:
        return BandHalves(self.grid, self.degree, self._scatter(coeffs)).field()

    def _scatter(self, coeffs: np.ndarray) -> np.ndarray:
        """Band halves of sum_j coeffs_j b_j, stacked as a solver state: the
        coefficients at +k_j and -k_j that lie in the half, added in field
        order."""
        amp = np.asarray(coeffs, dtype=np.float64) * self._phase
        halves = np.zeros((self.fibres.shape[1],) + _band_shape(self.grid),
                          dtype=np.complex128)
        for (index, mirrored), value in zip(self._half_index, (amp, np.conj(amp))):
            keep = ~mirrored
            at = tuple(i[keep] for i in index)
            for h, xi in zip(halves, self.fibres.T):
                np.add.at(h, at, value[keep] * xi[keep])
        return halves

    def reordered(self, permutation: Sequence[int]) -> "GalerkinBasis":
        perm = list(permutation)
        if sorted(perm) != list(range(self.m)):
            raise ValueError("not a permutation of the basis indices")
        return GalerkinBasis(self.grid, self.degree, self.modes[perm],
                             self.fibres[perm], self.sine[perm])


def build_basis(grid: SpectralGrid, degree: int, m: int | None = None) -> GalerkinBasis:
    """First m divergence-free eigenfields in canonical order.

    With m = None the full band-limited space is used.  The available
    dimension is (band modes)/2 * 2 * fibre dimension; requesting more is
    a parameter error, as are an m that is not a positive integer and a
    degree outside 0..n-1.
    """
    _check_integer("degree", degree)
    if not 0 <= degree < grid.n:
        raise ValueError(f"degree must lie in 0..{grid.n - 1} (degree {grid.n} has no "
                         f"divergence-free eigenfields off the harmonic mode), got {degree}")
    if m is not None and (isinstance(m, bool) or not isinstance(m, (int, np.integer))
                          or m < 1):
        raise ValueError(f"truncation m must be a positive integer, got {m!r}")
    modes = _canonical_modes(grid)
    per_mode = 2 * comb(grid.n - 1, degree)
    total = len(modes) * per_mode
    m = total if m is None else m
    if m > total:
        raise ValueError(f"truncation m = {m} exceeds the band-limited dimension {total}")
    modes = modes[:math.ceil(m / per_mode)]
    fibres = _fibres(grid.n, degree, modes)
    return GalerkinBasis(
        grid, degree, np.repeat(modes, per_mode, axis=0)[:m],
        np.tile(fibres, (1, 2, 1)).reshape(-1, fibres.shape[2])[:m],
        np.tile(np.repeat([False, True], per_mode // 2), len(modes))[:m])


# -- linearized operator and its inverse ----------------------------------------


@dataclass(frozen=True, eq=False)
class LinearizedOperator:
    """The linearized operator on the span of the basis, sampled in time.

    Its Galerkin matrix C(t)[k, j] = mu lam_k delta_kj + (B(w(t), b_k), b_j)
    acts on the state u = sum_k g_k b_k as mu Lap u + P_m B(w(t), u), whose
    coefficients are C(t)^T g, so the operator holds what the kernel needs
    and no matrix: the basis (and through it P_m), mu, the sample
    ``times``, ``advection`` (the ``_draw`` of w on the time grid: a pair
    (state, field) at each time or midpoint, one kept state for a constant
    w, None where w is zero) and the nonlinearity ``ns_cfg``.
    """

    basis: GalerkinBasis
    mu: float
    times: np.ndarray
    advection: Callable
    ns_cfg: NonlinearityConfig


def assemble_linearized(
    w_series, mu: float, basis: GalerkinBasis, times: np.ndarray,
    ns_cfg: NonlinearityConfig,
) -> LinearizedOperator:
    """Sample w at ``times`` for the linearized operator.

    Every sample is taken in once through ``checked_state`` against the
    basis grid and the nonlinearity degree, and goes on the grid when a
    stage of ``apply_inverse`` uses it; a constant w is one kept object,
    which goes on the grid once.
    """
    times = np.asarray(times, dtype=np.float64)
    if basis.degree != ns_cfg.degree:
        raise ValueError("basis degree does not match the nonlinearity degree")

    return LinearizedOperator(basis, mu, times, _draw(
        w_series, times, "advection field", basis.grid, ns_cfg.degree, on_grid=True), ns_cfg)


def apply_inverse(
    op: LinearizedOperator,
    f_series,
    u0: FormField,
    cfg: SolverConfig,
    *,
    store_every: int = 1,
    derivatives: int = 1,
) -> TimeSeriesSolution:
    """Solve the linearized problem on the span of the basis.

    The field solver steps P_m u0 on the band half with the basis projector
    P_m as its projection: a stage is P_m f - P_m B(w_j, u), one
    ``bilinear_term`` call, which applies C(t)^T to u's coefficients.  Data
    are taken on the time grid: at an rk2 midpoint w and f (a callable f
    too) are the means of their two neighbouring samples.  ``cfg`` must
    match the operator's time grid, grid, mu, degree and preset (if it has
    one).  Returns the trajectory with dt_cache[1] = P_m f - mu Lap u - P_m
    B(w, u); equivalent to solve_linearized on the same data when the basis
    spans the full band-limited space.
    """
    if derivatives > 1:
        raise ValueError("Galerkin solves cache derivatives up to order 1")
    times = cfg.times()
    if len(op.times) != len(times) or not np.allclose(op.times, times):
        raise ValueError("operator was sampled on a different time grid")
    basis, ns = op.basis, op.ns_cfg
    # A custom nonlinearity has no preset name to hold cfg.preset to.
    for what, got, expected in (("grid", cfg.grid(), basis.grid), ("mu", cfg.mu, op.mu),
                                ("degree", cfg.degree, basis.degree),
                                ("preset", cfg.preset, ns.tag if ns.tag in PRESETS
                                 else cfg.preset)):
        if got != expected:
            raise ValueError(f"configuration {what} {got} does not match the "
                             f"operator's {expected}")

    state0 = _initial_state(u0, basis.grid, basis.degree)
    f = _draw(f_series, times, "forcing", basis.grid, basis.degree, on_grid=True)
    return _field_solve(cfg, ns, state0, f, op.advection, None,
                        _stored_indices(cfg.steps, store_every), derivatives, False, basis)


# -- residual diagnostics --------------------------------------------------------

# The finite differences below reconstruct d/dt at the scheme's own order
# to measure how well a discrete trajectory satisfies the PDE; they are
# diagnostics on solver output, not norm ingredients.


def discrete_residual(
    sol: TimeSeriesSolution,
    cfg: SolverConfig,
    *,
    w_series=None,
    f_series=None,
    ns_cfg: NonlinearityConfig | None = None,
    nonlinear: bool = False,
) -> float:
    """Max L2 residual of d/dt u + mu Lap u + P Q(u) - P f on the trajectory.

    Uses a forward difference for imex-euler (first order) and a central
    difference for imex-rk2 (second order), matching the scheme order.
    """
    ns = ns_cfg if ns_cfg is not None else cfg.nonlinearity()
    times, grid, degree = sol.times, sol.u[0].grid, sol.u[0].degree
    f = _draw(f_series, times, "forcing", grid, degree)
    w = _draw(w_series, times, "advection field", grid, degree)
    norms = []
    euler = cfg.scheme == "imex-euler"
    for j in range(0 if euler else 1, len(times) - 1):
        u, lo = sol.u[j], j if euler else j - 1
        du = (sol.u[j + 1] - sol.u[lo]) * (1.0 / (times[j + 1] - times[lo]))
        res = du + hodge_laplacian(u) * cfg.mu
        q = _quadratic_at(u, j, w, ns, nonlinear)
        if q is not None:
            res = res + project_state(q)
        fj = f(j)
        if fj is not None:
            res = res - project_state(fj[1])
        norms.append(l2_norm(res))
    return _worst(norms)


def energy_identity_residual(
    sol: TimeSeriesSolution,
    mu: float,
    *,
    f_series=None,
    w_series=None,
    ns_cfg: NonlinearityConfig | None = None,
    nonlinear: bool = False,
) -> float:
    """Max residual of d/dt |u|^2 + 2 mu |grad u|^2 = 2 (f - Q(u), u).

    The energy derivative is reconstructed by central differences, so a
    second-order trajectory gives an O(dt^2) residual.
    """
    if (nonlinear or w_series is not None) and ns_cfg is None:
        raise ValueError("the quadratic term needs a nonlinearity config")
    times, grid, degree = sol.times, sol.u[0].grid, sol.u[0].degree
    f = _draw(f_series, times, "forcing", grid, degree)
    w = _draw(w_series, times, "advection field", grid, degree)
    energies = [l2_norm(u) ** 2 for u in sol.u]
    gaps = []
    for j in range(1, len(times) - 1):
        u = sol.u[j]
        dE = (energies[j + 1] - energies[j - 1]) / (times[j + 1] - times[j - 1])
        rhs = 0.0
        fj = f(j)
        if fj is not None:
            rhs += 2.0 * inner_product(fj[1], u)
        q = _quadratic_at(u, j, w, ns_cfg, nonlinear)
        if q is not None:
            rhs -= 2.0 * inner_product(q, u)
        grad = l2_norm(fractional_power(u, 1)) ** 2
        gaps.append(abs(dE + 2.0 * mu * grad - rhs))
    return _worst(gaps)


def _quadratic_at(u, j, w, ns, nonlinear: bool) -> FormField | None:
    """Q(u) at sample j: N(u), else B(w_j, u) with w_j the state of the
    ``_draw`` pair w(j), None where that is None.  u enters the kernel
    through ``checked_state``, named "trajectory sample j"."""
    wj = None if nonlinear else w(j)
    if not nonlinear and wj is None:
        return None
    v = checked_state(u, u.grid, ns.degree, f"trajectory sample {j}")
    q = nonlinear_term(v, ns) if nonlinear else bilinear_term(wj[0], v, ns)
    return BandHalves(v.grid, ns.degree, q).field()


def lions_identity_residual(sol: TimeSeriesSolution) -> float:
    """Max residual of d/dt |u|^2 = 2 (du/dt, u) with the cached derivative.

    Central differences on the energy against the equation-substituted
    derivative; O(dt^2) for second-order trajectories.
    """
    if 1 not in sol.dt_cache:
        raise ValueError("solution carries no first time derivative cache")
    times = sol.times
    energies = [l2_norm(u) ** 2 for u in sol.u]
    gaps = []
    for j in range(1, len(times) - 1):
        dE = (energies[j + 1] - energies[j - 1]) / (times[j + 1] - times[j - 1])
        paired = 2.0 * inner_product(sol.dt_cache[1][j], sol.u[j])
        gaps.append(abs(dE - paired))
    return _worst(gaps)


def _worst(values) -> float:
    """The largest of ``values``, 0 for none and NaN if any is NaN, so a
    non-finite sample cannot read as a small residual."""
    return float(np.max(values, initial=0.0))


# -- Newton local inversion --------------------------------------------------------

# The discrete forward map sends a trajectory {u^n} to its imex-euler
# data: A(u) = ({P f^n}, u^0) with
#     P f^n = (E^{-1} u^{n+1} - u^n)/dt + P N(u^n),   E = exp(-mu dt Lap).
# It is exactly invertible (forward substitution) and exactly quadratic,
# so its Newton iteration has an exact derivative and converges
# quadratically inside the contraction neighbourhood.  Trajectories are
# band-half states, entered through checked_state (modes outside the band
# dropped) and not projected: in-band gradient parts are carried.


def _band_trajectory(states: Sequence[FormField], cfg: SolverConfig, degree: int,
                     what: str, keep: bool = False) -> list[BandHalves]:
    """The states of a trajectory on cfg's time grid, each checked against
    cfg's grid and ``degree`` and named "<what> j"."""
    if len(states) != cfg.steps + 1:
        raise ValueError("trajectory length does not match the configuration")
    grid = cfg.grid()
    return [checked_state(u, grid, degree, f"{what} {j}", keep) for j, u in enumerate(states)]


def _euler_cells(states: list[BandHalves], quads, cfg: SolverConfig) -> tuple[list, list]:
    """The cells (E^-1 s_j+1 - s_j)/dt + P q_j, j < steps, of the discrete
    forward map (q_j = N(s_j)) and of its derivative (q_j = B(u_j, s_j)),
    and the P q_j, from the kernel's "drop" output: P kills q_j's exact part."""
    grid, degree = states[0].grid, states[0].degree
    dt = cfg.T / cfg.steps
    inv = np.exp(cfg.mu * dt * _half_k_squared(grid))
    projected = [_band_projection(grid, degree, q) for q in quads]
    return [BandHalves(grid, degree, (states[j + 1].halves * inv - states[j].halves)
                       * (1.0 / dt) + pq) for j, pq in enumerate(projected)], projected


def discrete_forward_data(
    states: Sequence[FormField], cfg: SolverConfig,
    ns_cfg: NonlinearityConfig | None = None,
) -> tuple[list[FormField], FormField]:
    """Data (P f cells, u0) reproduced by the imex-euler trajectory, taken
    on the band (entry check, named "state j"; modes outside the band
    dropped)."""
    ns = ns_cfg if ns_cfg is not None else cfg.nonlinearity()
    states = _band_trajectory(states, cfg, ns.degree, "state")
    cells, _ = _euler_cells(states, _quadratic_term(ns, states[:-1], exact="drop"), cfg)
    return [c.field() for c in cells], states[0].field()


def discrete_linearized_data(
    states: Sequence[FormField], directions: Sequence[FormField],
    cfg: SolverConfig, ns_cfg: NonlinearityConfig | None = None,
) -> tuple[list[FormField], FormField]:
    """Derivative of the discrete forward map at ``states`` along
    ``directions``, both taken on the band as in discrete_forward_data
    (named "state j" and "direction j")."""
    ns = ns_cfg if ns_cfg is not None else cfg.nonlinearity()
    states, directions = (_band_trajectory(t, cfg, ns.degree, what)
                          for t, what in ((states, "state"), (directions, "direction")))
    quads = _quadratic_term(ns, states[:-1], directions[:-1], exact="drop")
    cells, _ = _euler_cells(directions, quads, cfg)
    return [c.field() for c in cells], directions[0].field()


@dataclass
class NewtonResult:
    """Outcome of the local-inversion iteration."""

    solution: TimeSeriesSolution
    residual_history: list[float]
    converged: bool

    @property
    def iterations(self) -> int:
        return len(self.residual_history) - 1


def newton_local_inverse(
    f_target: Sequence[FormField] | FormField | None,
    u0_target: FormField,
    seed: Sequence[FormField] | TimeSeriesSolution,
    cfg: SolverConfig,
    ns_cfg: NonlinearityConfig | None = None,
) -> NewtonResult:
    """Invert the discrete forward map near a seed trajectory by Newton.

    ``f_target`` holds the forcing cells (one per step; a single field or
    None is broadcast), ``u0_target`` the initial datum; both are checked
    at entry (``checked_state``; errors name "forcing cell j", "forcing"
    or "u0 target") and projected.  The seed's states are checked too
    ("seed state j"), their modes outside the band are dropped and their
    in-band gradient part is kept.  Each update solves the
    exactly-linearized discrete system by forward substitution (one
    imex-euler pass of the Lawson loop), so the iteration is quadratically
    convergent near a solution; non-convergence within
    ``cfg.newton_max_iter`` is reported, not raised, and so is a residual
    that is not finite, which ends the iteration.
    """
    if cfg.scheme != "imex-euler":
        raise ValueError("the discrete forward map is defined for imex-euler")
    ns = ns_cfg if ns_cfg is not None else cfg.nonlinearity()
    degree = ns.degree
    states = _band_trajectory(seed.u if isinstance(seed, TimeSeriesSolution) else list(seed),
                              cfg, degree, "seed state", keep=True)
    grid, project = states[0].grid, partial(_band_projection, states[0].grid, degree)

    def target(u, what):
        return project(checked_state(u, grid, degree, what).halves)
    if f_target is None or not isinstance(f_target, Iterable):
        f_cells = [np.zeros_like(states[0].halves) if f_target is None
                   else target(f_target, "forcing")] * cfg.steps
    else:
        f_cells = [target(c, f"forcing cell {j}") for j, c in enumerate(f_target)]
        if len(f_cells) != cfg.steps:
            raise ValueError("need one forcing cell per time step")
    u0 = target(u0_target, "u0 target")
    history = []
    while True:
        # N(u_j) of every state in one batched pass, whose grid values
        # B(u_j, delta_j) in the solve reuses; P kills their exact parts, so
        # the kernel leaves them out.
        quads = _quadratic_term(ns, states[:-1], exact="drop")
        cells, projected = _euler_cells(states, quads, cfg)
        r_cells = [f - c.halves for f, c in zip(f_cells, cells)]
        r0 = u0 - states[0].halves
        history.append(_worst([_half_norm(r) for r in r_cells + [r0]]))
        converged = history[-1] <= cfg.newton_tol
        if converged or not np.isfinite(history[-1]) or len(history) > cfg.newton_max_iter:
            break

        deltas = []

        def explicit(j, midpoint, delta):
            deltas.append(delta)
            q = bilinear_term(states[j], BandHalves(grid, degree, delta), ns, exact="drop")
            return r_cells[j] - _band_projection(grid, degree, q)

        deltas.append(_run_scheme(cfg, r0, explicit))
        states = [BandHalves(grid, degree, u.halves + d, keep=True)
                  for u, d in zip(states, deltas)]

    # The last residual made Q1 = M1(d u, u) and P Q1 at every final state but
    # the last; M2 takes one more batched pass over them, on their kept grid
    # values.  The cells, P f already, are the pressure's source as they are.
    last, m2_last = nonlinear_term(states[-1], ns, exact="apart")
    quads.append(last)
    projected.append(project(last))
    m2s = _quadratic_term(ns, states[:-1], exact="only") + [m2_last]
    take, solution = _sampler(cfg.mu, project, 1, True)
    for i, (u, q, pq, m2, cell) in enumerate(zip(states, quads, projected, m2s,
                                                 f_cells + f_cells[-1:])):
        take(i, u, q, m2, BandHalves(grid, degree, cell).field(), -pq + cell)
    return NewtonResult(solution(cfg.times()), history, converged)


# -- Galerkin truncation study ------------------------------------------------------


@dataclass(frozen=True)
class GalerkinStudy:
    """Uniform bounds and Cauchy decay across truncation dimensions."""

    ms: tuple[int, ...]
    bounded_quantities: np.ndarray
    cauchy_differences: np.ndarray
    order: int


def galerkin_convergence_study(
    f_series,
    u0: FormField,
    cfg: SolverConfig,
    ns_cfg: NonlinearityConfig | None = None,
    ms: Sequence[int] = (8, 16, 32),
    order: int = 1,
) -> GalerkinStudy:
    """Solve at increasing truncation m and report stability quantities.

    u_m is the field solver's trajectory under the projector P_m of the
    first m basis fields; a callable forcing is sampled on the time grid,
    with the mean of two neighbours at a midpoint.  For each m: sup_t
    |grad^order u_m|^2 + mu * int |grad^(order+1) u_m|^2 dt (the a-priori
    bounded quantity), plus sup-in-time L2 Cauchy differences between
    consecutive truncations.
    """
    ns = ns_cfg if ns_cfg is not None else cfg.nonlinearity()
    times = cfg.times()
    state0 = _initial_state(u0, cfg.grid(), cfg.degree)
    # One draw for every m checks the forcing and samples a callable once;
    # each m projects the samples with its own P_m, a constant once.
    f = _draw(f_series, times, "forcing", cfg.grid(), cfg.degree, on_grid=True)
    trajectories = []
    bounded = []
    for m in ms:
        basis = build_basis(cfg.grid(), cfg.degree, m)
        fields = _field_solve(cfg, ns, state0, f, None, None, range(len(times)),
                              0, False, basis).u
        trajectories.append(fields)
        sup_part = max(l2_norm(fractional_power(u, order)) ** 2 for u in fields)
        grads = [l2_norm(fractional_power(u, order + 1)) ** 2 for u in fields]
        int_part = cfg.mu * float(np.trapezoid(grads, times))
        bounded.append(sup_part + int_part)
    cauchy = []
    for a, b in zip(trajectories, trajectories[1:]):
        cauchy.append(max(l2_norm(ua - ub) for ua, ub in zip(a, b)))
    return GalerkinStudy(
        tuple(ms), np.array(bounded), np.array(cauchy), order
    )


# -- solution directories -------------------------------------------------------

MANIFEST_NAME = "manifest.csv"
MANIFEST_COLUMNS = ("t", "file", "energy", "grad_energy")


def write_csv(path, header, rows) -> Path:
    """Write ``header`` and ``rows`` as CSV, making the parent directory.

    A float cell (Python or NumPy) is written as ``repr(float(x))``, which
    reads back exactly; any other cell with ``str``.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(
            [repr(float(x)) if isinstance(x, (float, np.floating)) else x
             for x in row] for row in rows)
    return path


def energy_series(sol: TimeSeriesSolution) -> list[tuple[float, float]]:
    """(|u|_{L2}^2, |grad u|_{L2}^2) at each sample time."""
    return [(l2_norm(u) ** 2, l2_norm(fractional_power(u, 1)) ** 2)
            for u in sol.u]


def save_solution(sol: TimeSeriesSolution, directory) -> Path:
    """Write snapshots plus a CSV manifest (t, file, energy, grad_energy).

    energy and grad_energy come from ``energy_series``; pressure
    snapshots, when present, sit alongside as p_*.hpform.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rows = []
    for j, (t, u, energies) in enumerate(zip(sol.times, sol.u, energy_series(sol))):
        name = f"u_{j:05d}.hpform"
        save_field(u, directory / name)
        if sol.p is not None:
            save_field(sol.p[j], directory / f"p_{j:05d}.hpform")
        rows.append((t, name) + energies)
    return write_csv(directory / MANIFEST_NAME, MANIFEST_COLUMNS, rows)


def load_solution(directory) -> TimeSeriesSolution:
    """Read a solution directory back (no derivative caches), a row's
    u_j.hpform with its p_j.hpform.  A bad manifest row (the header is row 0)
    raises a ``ValueError`` naming it, a bad snapshot ``load_field``'s error
    naming its file, one unlike the first of its series (u or p) a
    ``ValueError`` naming the row and both files, and samples that are not
    one ``TimeSeriesSolution`` a ``ValueError`` naming the manifest."""
    directory = Path(directory)
    times, loaded, firsts = [], {"u": [], "p": []}, {}
    # Undecodable bytes read as U+FFFD: every cell that is read is checked.
    with open(directory / MANIFEST_NAME, newline="", errors="replace") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != MANIFEST_COLUMNS:
            raise ValueError(f"manifest columns {reader.fieldnames or []} != "
                             f"{list(MANIFEST_COLUMNS)} in header row 0")
        for j, row in enumerate(reader):
            name = row["file"]
            if name in (None, "", ".", "..") or Path(name).name != name:
                raise ValueError(
                    f"manifest row {j + 1}: file {name!r} is not a bare file name")
            try:
                times.append(float(row["t"]))
            except ValueError:
                raise ValueError(
                    f"manifest row {j + 1}: t {row['t']!r} is not a number") from None
            if not math.isfinite(times[-1]):
                raise ValueError(f"manifest row {j + 1}: t {row['t']!r}: sample times "
                                 "must be finite")
            files = [("u", name)]
            if name.startswith("u_") and (directory / f"p{name[1:]}").exists():
                files.append(("p", f"p{name[1:]}"))
            for kind, file in files:
                field = load_field(directory / file)
                first, ref = firsts.setdefault(kind, (file, field))
                if (field.grid, field.degree) != (ref.grid, ref.degree):
                    raise ValueError(
                        f"manifest row {j + 1}: {kind}[{len(loaded[kind])}] is a field of "
                        f"degree {field.degree} on {field.grid}, not of degree {ref.degree} "
                        f"on {ref.grid}: {file} disagrees with {first}")
                loaded[kind].append(field)
    try:
        return TimeSeriesSolution(np.array(times), loaded["u"], p=loaded["p"] or None)
    except ValueError as exc:
        raise ValueError(f"{MANIFEST_NAME}: {exc}") from None
