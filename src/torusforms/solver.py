"""Faedo-Galerkin IMEX solvers for parabolic problems on torus forms.

The state space is the band-limited divergence-free mean-free subspace
(the span of the Galerkin basis).  Time stepping uses Lawson-type
integrating-factor schemes: the stiff diffusion is integrated exactly by
the multiplier exp(-mu |k|^2 dt) and the advection/nonlinear term is
explicit, either forward-Euler (``imex-euler``) or a two-stage midpoint
rule (``imex-rk2``).

Equations integrated (all terms projected onto the state space):

    linearized:  d/dt u = -mu Lap u - P B(w, u) + P f
    nonlinear:   d/dt u = -mu Lap u - P N(u)    + P f

The field solvers step the band half k_last = 0..L (L = res // 3) of the
state, one (ncomp, 2L+1, ..., L+1) complex array: the integrating factor
acts mode by mode, so the half carries the whole scheme.  A stage passes
the state to nonlinear_term or bilinear_term as ``BandHalves`` and gets
the band halves of Q back.  Fields are rebuilt only at the stored samples.

The pressure has no evolution equation; it is recovered at sample times
from the complementary projection of the source, d p = (I - P)(f - Q(u))
with Q the advection or nonlinear term.

Cached time derivatives attached to solutions are obtained by
substituting the evolution equation (and its differentiated form), never
by finite differences; the finite-difference formulas in the residual
diagnostics measure scheme accuracy and are intentional.  One pass over
the stored samples evaluates Q(u), and where the solver has it
Q'(u) du/dt, once per sample: P Q enters the derivative cache and
(I - P)(f - Q) the pressure, likewise for their time derivatives.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product
from math import comb
from pathlib import Path
from typing import Sequence

import numpy as np

from .hodge import helmholtz_project, recover_pressure
from .norms import TimeSeriesSolution
from .nonlinear import (
    PRESETS,
    BandHalves,
    NonlinearityConfig,
    _band,
    _half_position,
    _on_grid,
    _quadratic,
    bilinear_term,
    get_preset,
    nonlinear_term,
)
from .spectral import (
    ConsistencyError,
    FormField,
    SpectralGrid,
    _accumulate,
    _band_box,
    _derivative_symbol,
    _insertion_table,
    _inverse_squares,
    codifferential,
    fractional_power,
    hodge_laplacian,
    inner_product,
    l2_norm,
    load_field,
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
        if self.n not in (2, 3):
            raise ValueError(f"n (torus dimension) must be 2 or 3, got {self.n}")
        if self.res < 4 or self.res % 2 != 0:
            raise ValueError(f"res must be even and >= 4, got {self.res}")
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
def _band_k_squared(grid: SpectralGrid) -> np.ndarray:
    """|k|^2 on the box of the dealiasing band."""
    return grid.k_squared[_band_box(grid)]


@lru_cache(maxsize=None)
def _band_parametrix(grid: SpectralGrid) -> np.ndarray:
    """1/|k|^2 (zero at k = 0) on the box of the dealiasing band."""
    return _inverse_squares(_band_k_squared(grid))


def project_state(u: FormField) -> FormField:
    """Orthogonal projection onto the solver state space.

    Dealiased band, divergence-free (kernel of the codifferential), zero
    mean; the harmonic mode is excluded so the diffusion semigroup is a
    strict contraction on states.  One pass of delta d (mask |k|^-2 u)
    through the insertion table, on the band box only: inside the band it
    makes the operations of remove_harmonic(helmholtz_project(dealias(u)))
    in their order, so the two agree bit for bit.
    """
    out = FormField.zeros(u.grid, u.degree)
    box = _band_box(u.grid)
    parts = [c[box] for c in u.components]
    for full, part in zip(out.components, _band_projection(u.grid, u.degree, parts)):
        full[box] = part
    return out


def _band_projection(grid: SpectralGrid, degree: int, parts) -> list[np.ndarray]:
    """project_state of components given on the band box or on its half
    (k_last = 0..L): the multipliers are cut to the parts' last axis."""
    keep = parts[0].shape[-1]
    if degree == grid.n:
        return [np.zeros(parts[0].shape, dtype=np.complex128) for _ in parts]
    mult = _band_parametrix(grid)[..., :keep]
    phi = [mult * p for p in parts]
    table = _insertion_table(grid.n, degree)
    dphi = [None] * grid.component_count(degree + 1)
    for out_idx, in_idx, axis, sign in table:
        symbol = _derivative_symbol(grid, axis, sign, False, True)[..., :keep]
        _accumulate(dphi, out_idx, symbol * phi[in_idx])
    proj = [None] * grid.component_count(degree)
    for in_idx, out_idx, axis, sign in table:
        symbol = _derivative_symbol(grid, axis, sign, True, True)[..., :keep]
        _accumulate(proj, out_idx, symbol * dphi[in_idx])
    return proj


def _projected_half(u: FormField, grid: SpectralGrid, degree: int) -> np.ndarray:
    """project_state(u) as a solver state, after the Hermitian check."""
    if u.grid != grid or u.degree != degree:
        raise ValueError("data live on a different grid or degree than the state")
    return np.stack(_band_projection(grid, degree, BandHalves.of(u).halves))


def _check_initial(u0: FormField, tol: float = 1e-10) -> None:
    if u0.degree >= 1:
        div = l2_norm(codifferential(u0))
        if div > tol * max(l2_norm(u0), 1.0):
            raise ConsistencyError(
                f"initial datum is not divergence-free: |delta u0| = {div:.3e}"
            )


def _apply_multiplier(u: FormField, mult: np.ndarray) -> FormField:
    return FormField(u.grid, u.degree, tuple(c * mult for c in u.components))


def _lawson_decay(multiplier):
    """``apply_decay`` of ``_run_scheme``: state * multiplier(tau).

    For band-half field states (exp(-mu tau |k|^2) on the half) and
    coefficient vectors (exp(-mu tau lam) of the basis eigenvalues) alike;
    builds each multiplier once per tau.
    """
    multipliers: dict[float, np.ndarray] = {}

    def apply(state, tau: float):
        if tau not in multipliers:
            multipliers[tau] = multiplier(tau)
        return state * multipliers[tau]

    return apply


# -- data samplers -------------------------------------------------------------


class _Sampler:
    """Uniform access to time-dependent data given in any supported form.

    Accepts None (zero), a single field (constant in time), a sequence
    sampled on the solver time grid, or a callable of time.  Midpoint
    values come from the callable directly or from averaging neighbours
    (second-order accurate, preserving the midpoint scheme's order).
    """

    def __init__(self, data, times: np.ndarray, what: str):
        self.times = times
        self.data = data
        if isinstance(data, FormField) or data is None or callable(data):
            return
        data = list(data)
        if len(data) != len(times):
            raise ValueError(
                f"{what} series has {len(data)} samples for {len(times)} "
                "time grid points"
            )
        self.data = data

    @property
    def is_zero(self) -> bool:
        return self.data is None

    def sample(self, j: int, midpoint: bool = False) -> FormField | None:
        """The value at t_j, or at the midpoint of [t_j, t_j+1]."""
        data = self.data
        if data is None or isinstance(data, FormField):
            return data
        if callable(data):
            t = 0.5 * (self.times[j] + self.times[j + 1]) if midpoint else self.times[j]
            return data(float(t))
        return (data[j] + data[j + 1]) * 0.5 if midpoint else data[j]


# -- generic Lawson stepping ---------------------------------------------------


def _run_scheme(scheme, state0, steps, dt, apply_decay, rhs, guard):
    """Integrate d/dt g = L g + rhs with exact decay for L.

    ``apply_decay(state, tau)`` applies exp(tau L); ``rhs(j, midpoint,
    state)`` evaluates the explicit term.  Works for field states and
    coefficient vectors alike.
    """
    states = [state0]
    u = state0
    for j in range(steps):
        if scheme == "imex-euler":
            u = apply_decay(u + rhs(j, False, u) * dt, dt)
        else:
            u_mid = apply_decay(u + rhs(j, False, u) * (0.5 * dt), 0.5 * dt)
            u = apply_decay(u, dt) + apply_decay(rhs(j, True, u_mid), 0.5 * dt) * dt
        guard(u, j)
        states.append(u)
    return states


def _half_norm(state: np.ndarray) -> float:
    """L2 norm of the real field with band halves ``state``: the k_last = 0
    plane counts once, every other plane twice (no Nyquist mode is in the
    band)."""
    plane = state[..., 0]
    total = 2.0 * np.vdot(state, state).real - np.vdot(plane, plane).real
    return float(np.sqrt(max(total, 0.0)))


def _half_guard(state: np.ndarray, j: int) -> None:
    norm = _half_norm(state)
    if not np.isfinite(norm) or norm > BLOWUP_THRESHOLD:
        raise SolverDivergenceError(
            f"trajectory norm exceeded {BLOWUP_THRESHOLD:.0e} at step {j + 1}"
        )


def _coefficient_guard(g: np.ndarray, j: int) -> None:
    norm = float(np.linalg.norm(g))
    if not np.isfinite(norm) or norm > BLOWUP_THRESHOLD:
        raise SolverDivergenceError(
            f"coefficient norm exceeded {BLOWUP_THRESHOLD:.0e} "
            f"at step {j + 1} (m = {g.size})"
        )


def _stored_indices(steps: int, store_every: int) -> list[int]:
    if store_every < 1 or store_every > steps:
        raise ValueError("store_every must lie in [1, steps]")
    stored = list(range(0, steps + 1, store_every))
    if stored[-1] != steps:
        stored.append(steps)
    return stored


# -- field-space solvers --------------------------------------------------------


def _stepped_fields(cfg: SolverConfig, ns: NonlinearityConfig, u0: FormField,
                    f: _Sampler, w: _Sampler | None, stored: list[int]) -> list[FormField]:
    """P u0 stepped by ``_run_scheme`` on its band half; the fields at ``stored``.

    u0 is checked to be divergence-free and Hermitian first.  A stage
    evaluates Q (N(u) for ``w`` None, else B(w, u), zero where w_j is None)
    on the state as ``BandHalves``, which also checks the degrees, projects
    and negates Q's halves in place and adds the projected forcing.
    """
    grid, degree = cfg.grid(), u0.degree
    _check_initial(u0)
    state0 = _projected_half(u0, grid, degree)
    forcing = _per_stage(f, lambda fj: _projected_half(fj, grid, degree))
    advection = _per_stage(w, lambda wj: BandHalves.of(wj, keep=True))
    k_squared = _band_k_squared(grid)[..., :grid.res // 3 + 1]

    def rhs(j, midpoint, state):
        u, wj = BandHalves(grid, degree, state), advection(j, midpoint)
        if w is None:
            q = nonlinear_term(u, ns)
        else:
            q = np.zeros_like(state) if wj is None else bilinear_term(wj, u, ns)
        out = np.empty_like(state)
        for o, part in zip(out, _band_projection(grid, degree, q)):
            np.negative(part, out=o)
        fj = forcing(j, midpoint)
        if fj is not None:
            out += fj
        return out

    states = _run_scheme(
        cfg.scheme, state0, cfg.steps, cfg.T / cfg.steps,
        _lawson_decay(lambda tau: np.exp(-cfg.mu * tau * k_squared)),
        rhs, _half_guard,
    )
    return [BandHalves(grid, degree, states[i]).field() for i in stored]


def _per_stage(data: _Sampler | None, prepare):
    """(j, midpoint) -> prepare(data.sample(j, midpoint)), None for no data:
    a constant field is prepared once, before the first step, any other
    sample when a stage draws it."""
    if data is None or data.is_zero:
        return lambda j, midpoint: None
    if isinstance(data.data, FormField):
        constant = prepare(data.data)
        return lambda j, midpoint: constant

    def stage(j, midpoint):
        sample = data.sample(j, midpoint)
        return None if sample is None else prepare(sample)

    return stage


def _sample_pass(u_list, times, stored, mu, f, quad, derivatives, with_pressure,
                 quad_dt=None, f_dt=None) -> TimeSeriesSolution:
    """The fields ``u_list`` at ``stored`` with equation-substituted
    derivatives and pressures.

    ``quad(i, u)`` is the unprojected term Q(u) at sample index i and
    ``quad_dt(u, du)`` its derivative Q'(u) du along the trajectory (None
    where the solver has none).  Each is evaluated at most once per
    sample: -P Q enters the derivative cache, f - Q the pressure source,
    and likewise Q'(u) du and df/dt for the second derivative and the
    pressure's first.
    """
    with_q = derivatives >= 1 or with_pressure
    with_dq = quad_dt is not None and (
        derivatives == 2 or (derivatives == 1 and with_pressure))
    first, second, p_list, p_first = [], [], [], []
    for i, u in zip(stored, u_list if with_q else []):
        q, fi = quad(i, u), f.sample(i)
        if derivatives >= 1:
            du = _substituted(u, q, fi, mu)
            first.append(du)
        if with_pressure:
            p_list.append(_pressure(q, fi))
        if not with_dq:
            continue
        dq, dfi = quad_dt(u, du), f_dt.sample(i)
        if derivatives >= 2:
            second.append(_substituted(du, dq, dfi, mu))
        if with_pressure:
            p_first.append(_pressure(dq, dfi))
    dt_cache = {d: s for d, s in ((1, first), (2, second)) if d <= derivatives}
    return TimeSeriesSolution(
        times[stored], u_list, p=p_list if with_pressure else None,
        dt_cache=dt_cache, p_dt_cache={1: p_first} if p_first else {},
    )


def _substituted(u: FormField, q: FormField, fu: FormField | None,
                 mu: float) -> FormField:
    """-mu Lap u - P q + P fu: the time derivative the equation assigns."""
    du = hodge_laplacian(u) * (-mu) - project_state(q)
    if fu is not None:
        du = du + project_state(fu)
    return du


def _pressure(q: FormField, fu: FormField | None) -> FormField:
    """Pressure of the source fu - q."""
    src = q * (-1.0)
    if fu is not None:
        src = src + fu
    return _pressure_from_source(src)


def _pressure_from_source(source: FormField) -> FormField:
    """Potential of the gradient part of the source, zero if negligible.

    Below rounding level relative to the source the gradient part is
    indistinguishable from zero and the potential is returned as zero.
    """
    grad_part = source - helmholtz_project(source)
    if l2_norm(grad_part) <= 1e-12 * max(l2_norm(source), 1.0):
        return FormField.zeros(source.grid, source.degree - 1)
    return recover_pressure(grad_part)


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
    times = cfg.times()
    w = _Sampler(w_series, times, "advection field")
    f = _Sampler(f_series, times, "forcing")
    stored = _stored_indices(cfg.steps, store_every)

    return _sample_pass(
        _stepped_fields(cfg, ns, u0, f, w, stored), times, stored, cfg.mu, f,
        lambda i, u: _quadratic_at(u, i, w, ns, False) or FormField.zeros(u.grid, u.degree),
        derivatives, with_pressure,
    )


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
    times = cfg.times()
    f = _Sampler(f_series, times, "forcing")
    f_dt = _Sampler(f_dt_series, times, "forcing derivative")
    no_f_dt = f_dt.is_zero and not (f.is_zero or isinstance(f.data, FormField))
    if derivatives >= 2 and no_f_dt:
        raise ValueError(
            "second derivatives of a time-dependent forcing need f_dt_series")
    stored = _stored_indices(cfg.steps, store_every)
    return _sample_pass(
        _stepped_fields(cfg, ns, u0, f, None, stored), times, stored, cfg.mu, f,
        lambda i, u: nonlinear_term(u, ns), derivatives, with_pressure,
        quad_dt=None if no_f_dt else lambda u, du: bilinear_term(u, du, ns),
        f_dt=f_dt,
    )


# -- Galerkin basis -------------------------------------------------------------


def _divergence_matrix(n: int, degree: int, k: np.ndarray) -> np.ndarray:
    """Real matrix whose kernel is the divergence-free fibre at mode k.

    For a pure mode trig(k.x) xi the codifferential vanishes iff L xi = 0,
    where L is the wavevector contraction read off the insertion table.
    """
    if degree == 0:
        return np.zeros((0, 1))
    rows, cols = comb(n, degree - 1), comb(n, degree)
    L = np.zeros((rows, cols))
    for out_idx, in_idx, axis, sign in _insertion_table(n, degree - 1):
        L[in_idx, out_idx] += sign * k[axis]
    return L


def _kernel_basis(L: np.ndarray) -> list[np.ndarray]:
    """Deterministic orthonormal basis of ker L.

    Columns of the kernel projector are orthonormalized in coordinate
    order (Gram-Schmidt with re-orthogonalization), so axis-aligned fibre
    vectors come out exactly axis-aligned.
    """
    dim = L.shape[1]
    if L.shape[0] == 0 or not np.any(L):
        proj = np.eye(dim)
    else:
        proj = np.eye(dim) - np.linalg.pinv(L) @ L
    basis: list[np.ndarray] = []
    for col in range(dim):
        v = proj[:, col].copy()
        for _ in range(2):
            for b in basis:
                v -= np.dot(b, v) * b
        norm = np.linalg.norm(v)
        if norm > 1e-10:
            basis.append(v / norm)
    return basis


def _canonical_modes(grid: SpectralGrid) -> list[tuple[int, ...]]:
    """Nonzero band wavevectors with positive leading nonzero component,
    ordered by |k|^2 then lexicographically."""
    limit = int(grid.res / 3.0)
    axes = range(-limit, limit + 1)
    modes = []
    for k in product(*([axes] * grid.n)):
        nonzero = [kj for kj in k if kj != 0]
        if not nonzero or nonzero[0] < 0:
            continue
        modes.append(k)
    modes.sort(key=lambda k: (sum(kj * kj for kj in k), k))
    return modes


@dataclass(frozen=True, eq=False)
class GalerkinBasis:
    """Ordered orthonormal divergence-free eigenfields of the Laplacian.

    Fields are sqrt(2) {cos, sin}(k.x) xi over canonical wavevectors k
    (positive leading nonzero component) and orthonormal fibre vectors
    xi in the divergence-free kernel; ordering is (|k|^2, k lexicographic,
    cos before sin, fibre index).  Eigenvalue of field j is |k_j|^2.

    Field j lives on the two modes +-k_j, so the basis stores only its mode
    data: ``modes`` (m, n), ``fibres`` (m, ncomp), ``sine`` (m,) and
    ``eigenvalues`` (m,).  Its coefficient at +k_j is ``phase_j xi_j`` and
    at -k_j the conjugate, with phase sqrt(2)/2 for cos and -i sqrt(2)/2
    for sin; ``project`` gathers and ``synthesize`` scatters at +-k_j.
    Compared by identity: ``==`` is ``is`` and ``hash`` the object's id.
    """

    grid: SpectralGrid
    degree: int
    modes: np.ndarray
    fibres: np.ndarray
    sine: np.ndarray
    eigenvalues: np.ndarray

    def __post_init__(self):
        modes = np.asarray(self.modes, dtype=np.int64).reshape(-1, self.grid.n)
        if len(modes) == 0:
            raise ValueError("basis needs at least one field")
        ncomp = self.grid.component_count(self.degree)
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "fibres", np.asarray(
            self.fibres, dtype=np.float64).reshape(len(modes), ncomp))
        object.__setattr__(self, "sine", np.asarray(self.sine, dtype=bool))
        object.__setattr__(
            self, "eigenvalues", np.asarray(self.eigenvalues, dtype=np.float64)
        )

    @property
    def m(self) -> int:
        return len(self.modes)

    @property
    def fields(self) -> tuple[FormField, ...]:
        """The basis fields, synthesized on every access."""
        return tuple(self.synthesize(e) for e in np.eye(self.m))

    @cached_property
    def _phase(self) -> np.ndarray:
        return np.where(self.sine, -1j * (np.sqrt(2.0) / 2.0), np.sqrt(2.0) / 2.0)

    @cached_property
    def _full_index(self) -> tuple[tuple[np.ndarray, ...], ...]:
        """Where +k_j and -k_j sit in fftn-layout coefficients."""
        res = self.grid.res
        return tuple(self.modes.T % res), tuple(-self.modes.T % res)

    @cached_property
    def _half_index(self) -> tuple[tuple[tuple, np.ndarray], ...]:
        """``_half_position`` of +k_j and of -k_j: the kernel's layout."""
        return tuple(_half_position(self.grid, q) for q in (self.modes, -self.modes))

    def _coefficients(self, at_plus: np.ndarray, at_minus: np.ndarray) -> np.ndarray:
        """(u, b_j) from u's coefficients at +k_j and -k_j, shape (..., m, ncomp)."""
        phase = self._phase[:, None]
        pair = np.conj(phase) * at_plus + phase * at_minus
        return np.sum(self.fibres * pair.real, axis=-1)

    def project(self, u: FormField) -> np.ndarray:
        """Coefficients (u, b_j) of the basis expansion."""
        plus, minus = self._full_index
        return self._coefficients(
            np.stack([c[plus] for c in u.components], axis=-1),
            np.stack([c[minus] for c in u.components], axis=-1),
        )

    def _project_halves(self, halves: list[np.ndarray]) -> np.ndarray:
        """``project`` of real fields given by band halves with a leading
        block axis: rows (B, m)."""
        at = []
        for index, mirrored in self._half_index:
            values = np.stack([h[(slice(None),) + index] for h in halves], axis=-1)
            values[:, mirrored] = np.conj(values[:, mirrored])
            at.append(values)
        return self._coefficients(*at)

    def synthesize(self, coeffs: np.ndarray) -> FormField:
        plus, minus = self._full_index
        amp = np.asarray(coeffs, dtype=np.float64) * self._phase
        comps = []
        for xi in self.fibres.T:
            c = np.zeros(self.grid.shape, dtype=np.complex128)
            np.add.at(c, plus, amp * xi)
            np.add.at(c, minus, np.conj(amp) * xi)
            comps.append(c)
        return FormField(self.grid, self.degree, tuple(comps))

    def _halves(self, block: slice) -> list[np.ndarray]:
        """Band halves of the fields in ``block``, one array (B, ...) per
        component: real fields by construction."""
        phase = self._phase[block]
        rows = np.arange(len(phase))
        shape = (len(phase),) + _band(self.grid).half_box
        halves = [np.zeros(shape, dtype=np.complex128)
                  for _ in range(self.fibres.shape[1])]
        for (index, mirrored), value in zip(self._half_index, (phase, np.conj(phase))):
            keep = ~mirrored[block]
            at = (rows[keep],) + tuple(i[block][keep] for i in index)
            for h, xi in zip(halves, self.fibres[block].T):
                h[at] = value[keep] * xi[keep]
        return halves

    def reordered(self, permutation: Sequence[int]) -> "GalerkinBasis":
        perm = list(permutation)
        if sorted(perm) != list(range(self.m)):
            raise ValueError("not a permutation of the basis indices")
        return GalerkinBasis(self.grid, self.degree, self.modes[perm],
                             self.fibres[perm], self.sine[perm],
                             self.eigenvalues[perm])


def build_basis(grid: SpectralGrid, degree: int, m: int | None = None) -> GalerkinBasis:
    """First m divergence-free eigenfields in canonical order.

    With m = None the full band-limited space is used.  The available
    dimension is (band modes)/2 * 2 * fibre dimension; requesting more is
    a parameter error.
    """
    if not 0 <= degree <= grid.n:
        raise ValueError("degree out of range")
    modes, fibres, sine, eigs = [], [], [], []
    for k in _canonical_modes(grid):
        kvec = np.array(k, dtype=np.float64)
        fibre = _kernel_basis(_divergence_matrix(grid.n, degree, kvec))
        lam = float(np.dot(kvec, kvec))
        for is_sine in (False, True):
            for xi in fibre:
                modes.append(k)
                fibres.append(xi)
                sine.append(is_sine)
                eigs.append(lam)
        if m is not None and len(modes) >= m:
            break
    if m is None:
        m = len(modes)
    if m > len(modes):
        raise ValueError(
            f"truncation m = {m} exceeds the band-limited dimension {len(modes)}"
        )
    return GalerkinBasis(grid, degree, modes[:m], fibres[:m], sine[:m], eigs[:m])


# -- linearized operator and its inverse ----------------------------------------


@dataclass(frozen=True)
class LinearizedOperator:
    """Galerkin matrices C(t)[k, j] = mu lam_k delta_kj + (B(w(t), b_k), b_j)."""

    basis: GalerkinBasis
    mu: float
    times: np.ndarray
    matrices: np.ndarray

    @property
    def explicit_part(self) -> np.ndarray:
        """C(t) minus the diagonal diffusion block (the explicit term)."""
        return self.matrices - self.mu * np.diag(self.basis.eigenvalues)


# The assembly passes the basis fields through the kernel in blocks whose
# grid arrays (components, derivatives, products and their transforms, some
# 16 real arrays a field) take about 1 MB: 32 fields at T^2 res 16.
_BLOCK_BYTES = 2**20


def _block_size(grid: SpectralGrid) -> int:
    return max(1, _BLOCK_BYTES // (16 * 8 * grid.res**grid.n))


def assemble_linearized(
    w_series, mu: float, basis: GalerkinBasis, times: np.ndarray,
    ns_cfg: NonlinearityConfig,
) -> LinearizedOperator:
    """Sample the Galerkin matrices of the linearized operator in time."""
    times = np.asarray(times, dtype=np.float64)
    w = _Sampler(w_series, times, "advection field")
    m = basis.m
    mats = np.zeros((len(times), m, m))
    diffusion = mu * np.diag(basis.eigenvalues)
    constant_w = w.is_zero or isinstance(w.data, FormField)
    for jt in range(len(times)):
        if constant_w and jt > 0:
            mats[jt] = mats[0]
            continue
        wj = w.sample(jt)
        mats[jt] = diffusion
        if wj is not None and not ns_cfg.is_zero:
            mats[jt] += _advection_rows(wj, basis, ns_cfg)
    return LinearizedOperator(basis, mu, times, mats)


def _advection_rows(w: FormField, basis: GalerkinBasis,
                    ns_cfg: NonlinearityConfig) -> np.ndarray:
    """The matrix of (B(w, b_k), b_j), row k.

    w is checked and transformed once; the basis fields go through the
    kernel a block at a time, and B's band halves are projected by a
    gather, without building a field.
    """
    grid = basis.grid
    if w.degree != ns_cfg.degree or basis.degree != ns_cfg.degree:
        raise ValueError("field degrees do not match the nonlinearity degree")
    if w.grid != grid:
        raise ValueError("product arguments live on different grids")
    w_grid = BandHalves.of(w).on_grid(ns_cfg)
    rows = np.empty((basis.m, basis.m))
    step = _block_size(grid)
    for start in range(0, basis.m, step):
        block = slice(start, start + step)
        out = _quadratic(ns_cfg, grid, w_grid,
                         _on_grid(ns_cfg, grid, basis._halves(block)))
        rows[block] = basis._project_halves(out)
    return rows


def _forcing_coefficients(f: _Sampler, basis: GalerkinBasis) -> np.ndarray:
    """Basis coefficients of the forcing at every time-grid point."""
    fvec = np.zeros((len(f.times), basis.m))
    for j in range(len(f.times)):
        fj = f.sample(j)
        if fj is not None:
            fvec[j] = basis.project(fj)
    return fvec


def apply_inverse(
    op: LinearizedOperator,
    f_series,
    u0: FormField,
    cfg: SolverConfig,
    *,
    store_every: int = 1,
    derivatives: int = 1,
) -> TimeSeriesSolution:
    """Solve the linearized problem in coefficient space.

    Returns the synthesized trajectory; equivalent to solve_linearized on
    the same data when the basis spans the full band-limited space.
    """
    if derivatives > 1:
        raise ValueError("coefficient-space solves cache derivatives up to order 1")
    times = cfg.times()
    if len(op.times) != len(times) or not np.allclose(op.times, times):
        raise ValueError("operator was sampled on a different time grid")
    basis = op.basis
    _check_initial(u0)
    fvec = _forcing_coefficients(_Sampler(f_series, times, "forcing"), basis)
    expl = op.explicit_part

    def rhs(j, midpoint, g):
        # (B(w, u_m), b_j) = sum_k C~[k, j] g_k: the explicit block acts
        # on coefficients through its transpose.
        if midpoint:
            mat = 0.5 * (expl[j] + expl[j + 1])
            vec = 0.5 * (fvec[j] + fvec[j + 1])
        else:
            mat, vec = expl[j], fvec[j]
        return vec - mat.T @ g

    g_states = _run_scheme(
        cfg.scheme, basis.project(u0), cfg.steps, cfg.T / cfg.steps,
        _lawson_decay(lambda tau: np.exp(-op.mu * tau * basis.eigenvalues)),
        rhs, _coefficient_guard,
    )
    stored = _stored_indices(cfg.steps, store_every)
    u_list = [basis.synthesize(g_states[i]) for i in stored]
    dt_cache: dict[int, list[FormField]] = {}
    if derivatives >= 1:
        dt_cache[1] = [
            basis.synthesize(fvec[i] - op.matrices[i].T @ g_states[i])
            for i in stored
        ]
    return TimeSeriesSolution(times[stored], u_list, dt_cache=dt_cache)


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
    times = sol.times
    f = _Sampler(f_series, times, "forcing")
    w = _Sampler(w_series, times, "advection field")
    worst = 0.0
    euler = cfg.scheme == "imex-euler"
    for j in range(0 if euler else 1, len(times) - 1):
        u, lo = sol.u[j], j if euler else j - 1
        du = (sol.u[j + 1] - sol.u[lo]) * (1.0 / (times[j + 1] - times[lo]))
        res = du + hodge_laplacian(u) * cfg.mu
        q = _quadratic_at(u, j, w, ns, nonlinear)
        if q is not None:
            res = res + project_state(q)
        fj = f.sample(j)
        if fj is not None:
            res = res - project_state(fj)
        worst = max(worst, l2_norm(res))
    return worst


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
    times = sol.times
    f = _Sampler(f_series, times, "forcing")
    w = _Sampler(w_series, times, "advection field")
    energies = [l2_norm(u) ** 2 for u in sol.u]
    worst = 0.0
    for j in range(1, len(times) - 1):
        u = sol.u[j]
        dE = (energies[j + 1] - energies[j - 1]) / (times[j + 1] - times[j - 1])
        rhs = 0.0
        fj = f.sample(j)
        if fj is not None:
            rhs += 2.0 * inner_product(fj, u)
        if (nonlinear or w.sample(j) is not None) and ns_cfg is None:
            raise ValueError("the quadratic term needs a nonlinearity config")
        q = _quadratic_at(u, j, w, ns_cfg, nonlinear)
        if q is not None:
            rhs -= 2.0 * inner_product(q, u)
        grad = l2_norm(fractional_power(u, 1)) ** 2
        worst = max(worst, abs(dE + 2.0 * mu * grad - rhs))
    return worst


def _quadratic_at(u, j, w: _Sampler, ns, nonlinear: bool) -> FormField | None:
    """Q(u) at sample j: N(u), else B(w_j, u), None where w_j is None."""
    if nonlinear:
        return nonlinear_term(u, ns)
    wj = w.sample(j)
    return None if wj is None else bilinear_term(wj, u, ns)


def lions_identity_residual(sol: TimeSeriesSolution) -> float:
    """Max residual of d/dt |u|^2 = 2 (du/dt, u) with the cached derivative.

    Central differences on the energy against the equation-substituted
    derivative; O(dt^2) for second-order trajectories.
    """
    if 1 not in sol.dt_cache:
        raise ValueError("solution carries no first time derivative cache")
    times = sol.times
    energies = [l2_norm(u) ** 2 for u in sol.u]
    worst = 0.0
    for j in range(1, len(times) - 1):
        dE = (energies[j + 1] - energies[j - 1]) / (times[j + 1] - times[j - 1])
        paired = 2.0 * inner_product(sol.dt_cache[1][j], sol.u[j])
        worst = max(worst, abs(dE - paired))
    return worst


# -- Newton local inversion --------------------------------------------------------

# The discrete forward map sends a trajectory {u^n} to its imex-euler
# data: A(u) = ({P f^n}, u^0) with
#     P f^n = (E^{-1} u^{n+1} - u^n)/dt + P N(u^n),   E = exp(-mu dt Lap).
# It is exactly invertible (forward substitution) and exactly quadratic,
# so its Newton iteration has an exact derivative and converges
# quadratically inside the contraction neighbourhood.


def discrete_forward_data(
    states: Sequence[FormField], cfg: SolverConfig,
    ns_cfg: NonlinearityConfig | None = None,
) -> tuple[list[FormField], FormField]:
    """Data (P f cells, u0) reproduced by the imex-euler trajectory."""
    ns = ns_cfg if ns_cfg is not None else cfg.nonlinearity()
    quads = (nonlinear_term(u, ns) for u in states[:-1])
    return _euler_cells(states, quads, cfg), states[0]


def _euler_cells(states, quads, cfg: SolverConfig) -> list[FormField]:
    """The cells (E^-1 s_j+1 - s_j)/dt + P q_j, j < steps, of the discrete
    forward map (q_j = N(s_j)) and of its derivative (q_j = B(u_j, s_j));
    ``quads`` is drawn after the length check."""
    if len(states) != cfg.steps + 1:
        raise ValueError("trajectory length does not match the configuration")
    dt = cfg.T / cfg.steps
    inv = np.exp(cfg.mu * dt * states[0].grid.k_squared)
    return [(_apply_multiplier(states[j + 1], inv) - states[j]) * (1.0 / dt)
            + project_state(q) for j, q in enumerate(quads)]


def discrete_linearized_data(
    states: Sequence[FormField], directions: Sequence[FormField],
    cfg: SolverConfig, ns_cfg: NonlinearityConfig | None = None,
) -> tuple[list[FormField], FormField]:
    """Derivative of the discrete forward map at ``states`` along ``directions``."""
    ns = ns_cfg if ns_cfg is not None else cfg.nonlinearity()
    quads = (bilinear_term(states[j], directions[j], ns) for j in range(cfg.steps))
    return _euler_cells(directions, quads, cfg), directions[0]


def _solve_linearized_cells(
    states, rhs_cells, v0, cfg, ns,
) -> list[FormField]:
    """Exactly invert the linearized discrete map by forward substitution."""
    grid = states[0].grid
    dt = cfg.T / cfg.steps
    dec = np.exp(-cfg.mu * dt * grid.k_squared)
    out = [v0]
    for j in range(cfg.steps):
        explicit = rhs_cells[j] - project_state(bilinear_term(states[j], out[j], ns))
        out.append(_apply_multiplier(out[j] + explicit * dt, dec))
    return out


@dataclass
class NewtonResult:
    """Outcome of the local-inversion iteration."""

    solution: TimeSeriesSolution
    residual_history: list[float]
    converged: bool

    @property
    def iterations(self) -> int:
        return len(self.residual_history) - 1


def _data_residual(f_cells, u0, states, cfg, ns):
    """Residual cells, initial residual, their max norm and N(u_j), j < steps."""
    quads = [nonlinear_term(u, ns) for u in states[:-1]]
    cells = _euler_cells(states, quads, cfg)
    r_cells = [f_cells[j] - cells[j] for j in range(len(cells))]
    r0 = u0 - states[0]
    norm = max([l2_norm(c) for c in r_cells] + [l2_norm(r0)])
    return r_cells, r0, norm, quads


def newton_local_inverse(
    f_target: Sequence[FormField] | FormField | None,
    u0_target: FormField,
    seed: Sequence[FormField] | TimeSeriesSolution,
    cfg: SolverConfig,
    ns_cfg: NonlinearityConfig | None = None,
) -> NewtonResult:
    """Invert the discrete forward map near a seed trajectory by Newton.

    ``f_target`` holds the projected forcing cells (one per step; a single
    field or None is broadcast), ``u0_target`` the initial datum.  Each
    update solves the exactly-linearized discrete system, so the iteration
    is quadratically convergent near a solution; non-convergence within
    ``cfg.newton_max_iter`` is reported, not raised.
    """
    if cfg.scheme != "imex-euler":
        raise ValueError("the discrete forward map is defined for imex-euler")
    ns = ns_cfg if ns_cfg is not None else cfg.nonlinearity()
    states = list(seed.u) if isinstance(seed, TimeSeriesSolution) else list(seed)
    if len(states) != cfg.steps + 1:
        raise ValueError("seed trajectory length does not match the configuration")
    grid = states[0].grid
    if f_target is None or isinstance(f_target, FormField):
        base = (FormField.zeros(grid, states[0].degree)
                if f_target is None else project_state(f_target))
        f_cells = [base] * cfg.steps
    else:
        f_cells = [project_state(c) for c in f_target]
        if len(f_cells) != cfg.steps:
            raise ValueError("need one forcing cell per time step")
    u0p = project_state(u0_target)

    r_cells, r0, norm, quads = _data_residual(f_cells, u0p, states, cfg, ns)
    history = [norm]
    converged = norm <= cfg.newton_tol
    for _ in range(cfg.newton_max_iter):
        if converged:
            break
        delta = _solve_linearized_cells(states, r_cells, r0, cfg, ns)
        states = [states[j] + delta[j] for j in range(len(states))]
        r_cells, r0, norm, quads = _data_residual(f_cells, u0p, states, cfg, ns)
        history.append(norm)
        converged = norm <= cfg.newton_tol

    # The last residual evaluated N at every final state but the last.
    quads.append(nonlinear_term(states[-1], ns))
    p_list, dt1 = [], []
    for j, (u, quad) in enumerate(zip(states, quads)):
        f_cell = f_cells[min(j, cfg.steps - 1)]
        p_list.append(_pressure_from_source(f_cell - quad))
        du = hodge_laplacian(u) * (-cfg.mu) - project_state(quad)
        dt1.append(du + f_cell)
    sol = TimeSeriesSolution(cfg.times(), states, p=p_list, dt_cache={1: dt1})
    return NewtonResult(sol, history, converged)


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

    For each m: sup_t |grad^order u_m|^2 + mu * int |grad^(order+1) u_m|^2 dt
    (the a-priori bounded quantity), plus sup-in-time L2 Cauchy differences
    between consecutive truncations.
    """
    ns = ns_cfg if ns_cfg is not None else cfg.nonlinearity()
    grid = cfg.grid()
    _check_initial(u0)
    times = cfg.times()
    f = _Sampler(f_series, times, "forcing")
    trajectories = []
    bounded = []
    for m in ms:
        basis = build_basis(grid, cfg.degree, m)
        fvec = _forcing_coefficients(f, basis)

        def rhs(j, midpoint, g, basis=basis, fvec=fvec):
            u = basis.synthesize(g)
            gn = basis.project(nonlinear_term(u, ns))
            if midpoint:
                return 0.5 * (fvec[j] + fvec[j + 1]) - gn
            return fvec[j] - gn

        g_states = _run_scheme(
            cfg.scheme, basis.project(u0), cfg.steps, cfg.T / cfg.steps,
            _lawson_decay(lambda tau, lam=basis.eigenvalues:
                          np.exp(-cfg.mu * tau * lam)),
            rhs, _coefficient_guard,
        )
        fields = [basis.synthesize(g) for g in g_states]
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


def save_solution(sol: TimeSeriesSolution, directory) -> Path:
    """Write snapshots plus a CSV manifest (t, file, energy, grad_energy).

    energy = |u|_{L2}^2 and grad_energy = |grad u|_{L2}^2 per sample time;
    pressure snapshots, when present, sit alongside as p_*.hpform.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = directory / MANIFEST_NAME
    with open(manifest, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(MANIFEST_COLUMNS)
        for j, (t, u) in enumerate(zip(sol.times, sol.u)):
            name = f"u_{j:05d}.hpform"
            save_field(u, directory / name)
            energy = l2_norm(u) ** 2
            grad_energy = l2_norm(fractional_power(u, 1)) ** 2
            writer.writerow([repr(float(t)), name, repr(energy), repr(grad_energy)])
            if sol.p is not None:
                save_field(sol.p[j], directory / f"p_{j:05d}.hpform")
    return manifest


def load_solution(directory) -> TimeSeriesSolution:
    """Read a solution directory back (no derivative caches)."""
    directory = Path(directory)
    times = []
    u_list = []
    p_list = []
    with open(directory / MANIFEST_NAME, newline="") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames) != MANIFEST_COLUMNS:
            raise ValueError(
                f"manifest columns {reader.fieldnames} != {list(MANIFEST_COLUMNS)}"
            )
        for j, row in enumerate(reader):
            name = row["file"]
            if name in ("", ".", "..") or Path(name).name != name:
                raise ValueError(
                    f"manifest row {j + 1}: file {name!r} is not a bare file name"
                )
            times.append(float(row["t"]))
            u_list.append(load_field(directory / name))
            p_path = directory / f"p_{j:05d}.hpform"
            if p_path.exists():
                p_list.append(load_field(p_path))
    if len(p_list) not in (0, len(u_list)):
        raise ValueError("pressure snapshots do not match the manifest")
    return TimeSeriesSolution(
        np.array(times), u_list, p=p_list if p_list else None
    )
