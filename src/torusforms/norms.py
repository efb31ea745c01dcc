"""Sobolev and Bochner norms, interpolation-inequality checks, Gronwall.

Spatial norms
-------------
``sobolev_norm(u, SobolevIndex(s, p))`` is

    ( |grad^s u|_p^p + |Pi u|_p^p )^(1/p)

with grad^s the |k|^s multiplier (zero mode annihilated) and Pi the
harmonic projection; p = inf takes the max of the two sup norms.
``split_sobolev_norm`` is the equivalent integer-order variant built from
the complex: even orders use Laplacian powers, odd orders the pair of
derivative and coderivative of a Laplacian power.  At p = 2 the two
coincide by Parseval.

Space-time norms
----------------
``bochner_norm`` evaluates, for index (k, 2s, s),

    sum over {0 <= l <= k, m + 2j <= 2s} of
        sup_t ( |grad^(l+m) dt^j u|_2^2 + |Pi dt^j u|_2^2 )
        + int_I |grad^(l+1+m) dt^j u|_2^2 dt

with sup realised as a max over sample times and the time integral by the
trapezoid rule.  The harmonic term rides on the sup part only: the
integral terms carry at least one derivative and annihilate harmonics
anyway, and a single harmonic contribution per (l, m, j) keeps the norm
positive definite while reducing to the plain display on mean-free
fields.  A stationary harmonic constant c with k = 0, s = 1, T = 1 then
gives norm^2 = 3|c|^2 (the three j = 0 terms).

The velocity flavour additionally requires the snapshots to be
divergence-free; the forcing flavour evaluates the same expression
without that constraint; the pressure flavour evaluates the forcing norm
of the exterior derivative of the pressure series.

Time derivatives are never taken by finite differences here: callers
supply them (solvers substitute the evolution equation recursively).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .spectral import (
    FormField,
    _parseval,
    codifferential,
    exterior_derivative,
    fractional_power,
    harmonic_projection,
    l2_norm,
    lp_norm,
    remove_harmonic,
    split_derivative,
)


@dataclass(frozen=True)
class SobolevIndex:
    """Smoothness order s >= 0 and integrability p in (1, inf]."""

    s: float
    p: float = 2.0

    def __post_init__(self):
        if self.s < 0:
            raise ValueError(f"order must be >= 0, got {self.s}")
        if self.p <= 1:
            raise ValueError(f"integrability must exceed 1, got {self.p}")


@dataclass(frozen=True)
class BochnerIndex:
    """Index (k, 2s, s) of a parabolic space-time norm.

    role is "vel" (divergence-free states), "for" (forcing terms), or
    "pre" (pressures, evaluated through their exterior derivative).
    Solver entry points need s >= 1 and 2s + k > n/2; s = 0 is accepted
    here because continuity-bound surveys evaluate forcing norms at
    s - 1 = 0.
    """

    k: int
    s: int
    role: str = "vel"

    def __post_init__(self):
        if self.k < 0 or self.s < 0:
            raise ValueError("indices must be nonnegative integers")
        if self.role not in ("vel", "for", "pre"):
            raise ValueError(f"unknown role {self.role!r}")


@dataclass
class TimeSeriesSolution:
    """Sampled trajectory of fields with cached time derivatives.

    ``dt_cache[j]`` holds the j-th time derivative of u at every sample
    time, produced by substituting the evolution equation (not by finite
    differences).  ``p`` and ``p_dt_cache`` carry the pressure series.
    Each series has one field per time, all on u[0]'s grid; u and
    ``dt_cache`` have u[0]'s degree, ``p`` and ``p_dt_cache`` their first's.
    """

    times: np.ndarray
    u: list[FormField]
    p: list[FormField] | None = None
    dt_cache: dict[int, list[FormField]] = field(default_factory=dict)
    p_dt_cache: dict[int, list[FormField]] = field(default_factory=dict)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.float64)
        if self.times.ndim != 1 or len(self.times) < 2:
            raise ValueError("need at least two sample times")
        if not np.all(np.isfinite(self.times)):
            raise ValueError(f"sample times must be finite, got {self.times}")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("sample times must increase strictly")
        velocity = [("u", self.u)] + [(f"dt_cache[{k}]", s) for k, s in self.dt_cache.items()]
        pressure = ([] if self.p is None else [("p", self.p)]) + [
            (f"p_dt_cache[{k}]", s) for k, s in self.p_dt_cache.items()]
        for group in (velocity, pressure):
            for name, series in group:
                if len(series) != len(self.times):
                    raise ValueError(f"{name} has {len(series)} samples for "
                                     f"{len(self.times)} sample times")
                grid, degree = self.u[0].grid, group[0][1][0].degree
                for i, x in enumerate(series):
                    if x.grid != grid or x.degree != degree:
                        raise ValueError(f"{name}[{i}] is a field of degree {x.degree} on "
                                         f"{x.grid}, not of degree {degree} on {grid}")

    def derivative_series(self, j: int, of_pressure: bool = False) -> list[FormField]:
        if j == 0:
            base = self.p if of_pressure else self.u
            if base is None:
                raise ValueError("no pressure series stored")
            return base
        cache = self.p_dt_cache if of_pressure else self.dt_cache
        if j not in cache:
            kind = "pressure" if of_pressure else "velocity"
            raise ValueError(
                f"time derivative of order {j} missing from the {kind} cache"
            )
        return cache[j]


# -- spatial norms ------------------------------------------------------------


def sobolev_norm(u: FormField, idx: SobolevIndex) -> float:
    """(|grad^s u|_p^p + |Pi u|_p^p)^(1/p); max of the two at p = inf."""
    if idx.s > 0:
        grad_part = lp_norm(fractional_power(u, idx.s), idx.p)
    else:
        grad_part = lp_norm(remove_harmonic(u), idx.p)
    harm_part = lp_norm(harmonic_projection(u), idx.p)
    if np.isinf(idx.p):
        return max(grad_part, harm_part)
    return float((grad_part**idx.p + harm_part**idx.p) ** (1.0 / idx.p))


def split_sobolev_norm(u: FormField, m: int, p: float = 2.0) -> float:
    """Integer-order variant assembled from the complex operators."""
    if m < 0:
        raise ValueError("order must be a nonnegative integer")
    harm_part = lp_norm(harmonic_projection(u), p)
    if m % 2 == 0:
        parts = [lp_norm(split_derivative(u, m), p)]
    else:
        up, down = split_derivative(u, m)
        parts = []
        if up is not None:
            parts.append(lp_norm(up, p))
        if down is not None:
            parts.append(lp_norm(down, p))
    if np.isinf(p):
        return max(parts + [harm_part])
    return float(sum(x**p for x in parts + [harm_part]) ** (1.0 / p))


# -- Bochner norms ------------------------------------------------------------


def _series_tables(
    series: Sequence[FormField], orders: Sequence[int]
) -> tuple[dict[int, np.ndarray], np.ndarray]:
    """For each order a: array over time of |grad^a w(t)|_2^2; plus |Pi w|^2."""
    grid = series[0].grid
    k2 = grid.k_squared
    zero = (0,) * grid.n
    # |k|^(2a) off the zero mode, which |grad^a| annihilates at every order.
    powers = {a: np.power(k2, a, out=np.zeros_like(k2), where=k2 > 0) for a in orders}
    tables = {a: np.zeros(len(series)) for a in orders}
    pi_sq = np.zeros(len(series))
    for t_idx, w in enumerate(series):
        pi_sq[t_idx] = sum(abs(c[zero]) ** 2 for c in w.components)
        for a in orders:
            tables[a][t_idx] = sum(_parseval(c * powers[a], c) for c in w.components)
    return tables, pi_sq


def _trapezoid(values: np.ndarray, times: np.ndarray) -> float:
    return float(np.trapezoid(values, times))


def _forcing_norm_squared(
    sol: TimeSeriesSolution, k: int, s: int, of_pressure_derivative: bool = False
) -> float:
    pairs = [(m, j) for j in range(s + 1) for m in range(2 * s - 2 * j + 1)]
    max_j = max(j for _, j in pairs)
    orders = sorted({l + m for l in range(k + 1) for m, _ in pairs}
                    | {l + 1 + m for l in range(k + 1) for m, _ in pairs})
    per_j: dict[int, tuple[dict[int, np.ndarray], np.ndarray]] = {}
    for j in range(max_j + 1):
        series = sol.derivative_series(j, of_pressure=of_pressure_derivative)
        if of_pressure_derivative:
            series = [exterior_derivative(w) for w in series]
        per_j[j] = _series_tables(series, orders)
    total = 0.0
    for l in range(k + 1):
        for m, j in pairs:
            tables, pi_sq = per_j[j]
            total += float(np.max(tables[l + m] + pi_sq))
            total += _trapezoid(tables[l + 1 + m], sol.times)
    return total


def bochner_norm(sol: TimeSeriesSolution, idx: BochnerIndex) -> float:
    """Space-time norm of the trajectory at index (k, 2s, s)."""
    if idx.role == "vel":
        for w in sol.u:
            if w.degree == 0:
                break
            div = l2_norm(codifferential(w))
            if div > 1e-8 * max(l2_norm(w), 1e-30):
                raise ValueError(
                    "velocity norm requested for a series that is not "
                    f"divergence-free (|delta u| = {div:.3e})"
                )
        return float(np.sqrt(_forcing_norm_squared(sol, idx.k, idx.s)))
    if idx.role == "for":
        return float(np.sqrt(_forcing_norm_squared(sol, idx.k, idx.s)))
    # pressure flavour: forcing norm of the exterior derivative of p
    return float(
        np.sqrt(
            _forcing_norm_squared(sol, idx.k, idx.s, of_pressure_derivative=True)
        )
    )


# -- interpolation inequality -------------------------------------------------


@dataclass(frozen=True)
class InterpolationReport:
    """Measured sides of the multiplicative interpolation inequality."""

    n: int
    j0: int
    m0: int
    p0: float
    q0: float
    r0: float
    a: float
    exceptional: bool
    lhs: float
    rhs: float

    @property
    def ratio(self) -> float:
        if self.rhs == 0.0:
            return 0.0 if self.lhs == 0.0 else float("inf")
        return self.lhs / self.rhs


def _interpolation_exponent(
    n: int, j0: int, m0: int, p0: float, q0: float, r0: float
) -> tuple[float, bool]:
    inv = lambda x: 0.0 if np.isinf(x) else 1.0 / x
    denom = inv(r0) - m0 / n - inv(q0)
    numer = inv(p0) - j0 / n - inv(q0)
    if abs(denom) < 1e-14:
        if abs(numer) < 1e-14:
            a = j0 / m0 if m0 > 0 else 1.0
        else:
            raise ValueError("no exponent balances the stated indices")
    else:
        a = numer / denom
    lower = j0 / m0 if m0 > 0 else 0.0
    exceptional = (
        1.0 < r0 < np.inf
        and m0 - j0 - n / r0 >= 0
        and abs(m0 - j0 - n / r0 - round(m0 - j0 - n / r0)) < 1e-12
    )
    upper_ok = a < 1.0 - 1e-14 if exceptional else a <= 1.0 + 1e-14
    if not (lower - 1e-14 <= a and upper_ok):
        raise ValueError(
            f"exponent a = {a:.6g} outside the admissible range "
            f"[{lower:.6g}, 1{')' if exceptional else ']'}"
        )
    return float(min(max(a, lower), 1.0)), exceptional


def gagliardo_nirenberg_check(
    v: FormField, j0: int, m0: int, p0: float, q0: float, r0: float
) -> InterpolationReport:
    """Measure both sides of the interpolation inequality

        |grad^j0 v|_p0 <= C ((|grad^m0 v|_r0 + |v|_2)^a |v|_q0^(1-a) + |v|_2)

    for the exponent a balancing 1/p0 = j0/n + a(1/r0 - m0/n) + (1-a)/q0.
    Only the measured ratio is reported; no constant is asserted.
    """
    if not (0 <= j0 < m0):
        raise ValueError("need derivative orders 0 <= j0 < m0")
    for label, val in (("p0", p0), ("q0", q0), ("r0", r0)):
        if val <= 1:
            raise ValueError(f"{label} must exceed 1, got {val}")
    n = v.grid.n
    a, exceptional = _interpolation_exponent(n, j0, m0, p0, q0, r0)
    lhs = lp_norm(fractional_power(v, float(j0)), p0) if j0 > 0 else lp_norm(v, p0)
    high = lp_norm(fractional_power(v, float(m0)), r0)
    base_l2 = l2_norm(v)
    low = base_l2 if q0 == 2 else lp_norm(v, q0)
    rhs = (high + base_l2) ** a * low ** (1.0 - a) + base_l2
    return InterpolationReport(
        n=n, j0=j0, m0=m0, p0=p0, q0=q0, r0=r0, a=a,
        exceptional=exceptional, lhs=lhs, rhs=rhs,
    )


# -- Gronwall envelope ---------------------------------------------------------


@dataclass(frozen=True)
class GronwallReport:
    """Pointwise verdicts of the integral-inequality check."""

    valid: bool
    reason: str
    hypothesis_ok: np.ndarray | None
    envelope_ok: np.ndarray | None
    envelope: np.ndarray | None

    @property
    def holds(self) -> bool:
        return bool(self.valid and np.all(self.envelope_ok))


def _cumulative_trapezoid(values: np.ndarray, times: np.ndarray) -> np.ndarray:
    increments = 0.5 * (values[1:] + values[:-1]) * np.diff(times)
    return np.concatenate([[0.0], np.cumsum(increments)])


def gronwall_envelope(
    times: np.ndarray,
    bound: np.ndarray,
    rate: np.ndarray,
    values: np.ndarray,
    rel_tol: float = 1e-9,
) -> GronwallReport:
    """Check Y(t) <= A(t) exp(int rate) given Y(t) <= A(t) + int rate * Y.

    ``bound`` is A (must be nondecreasing), ``rate`` is B (must be
    nonnegative), ``values`` is Y.  The hypothesis and the conclusion are
    both evaluated discretely with the trapezoid rule; when the structural
    requirements on A and B fail, the conclusion is not evaluated.
    """
    times = np.asarray(times, dtype=np.float64)
    A = np.asarray(bound, dtype=np.float64)
    B = np.asarray(rate, dtype=np.float64)
    Y = np.asarray(values, dtype=np.float64)
    if not (len(times) == len(A) == len(B) == len(Y)):
        raise ValueError("times, bound, rate, values must share a length")
    scale = max(float(np.max(np.abs(A), initial=0.0)), 1.0)
    if np.any(np.diff(A) < -rel_tol * scale):
        return GronwallReport(False, "bound function decreases", None, None, None)
    if np.any(B < -rel_tol):
        return GronwallReport(False, "rate function is negative", None, None, None)
    hyp_rhs = A + _cumulative_trapezoid(B * Y, times)
    hypothesis_ok = Y <= hyp_rhs + rel_tol * np.maximum(np.abs(hyp_rhs), 1.0)
    envelope = A * np.exp(_cumulative_trapezoid(B, times))
    envelope_ok = Y <= envelope + rel_tol * np.maximum(np.abs(envelope), 1.0)
    return GronwallReport(True, "", hypothesis_ok, envelope_ok, envelope)
