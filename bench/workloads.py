"""The benchmark's workloads: inputs from a seed, one timed round, checks.

Each workload builds its inputs in ``setup`` from the seed with the numpy
code of ``reference``, so the inputs do not depend on how the package
draws random fields.  ``run_round`` makes only package calls; it is the
timed part and does ``ops_per_round`` operations.  ``check`` reads the
round's outputs through ``to_physical`` and returns one message per
failed check, comparing against ``reference`` or against properties the
method must have.  ``rhs`` gives the dimension, resolution and repeat count
of the workload's ``ReferenceRHS``, the unit its operation times are
reported in.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

import reference as ref
import torusforms as tf


def samples(u) -> np.ndarray:
    return np.stack(tf.to_physical(u))


def round_seed(seed: int, r: int) -> int:
    return int(np.random.SeedSequence([seed, r]).generate_state(1)[0])


def _exceeds(problems: list[str], what: str, value: float, limit: float) -> None:
    if not value <= limit:
        problems.append(f"{what} = {value:.3e} exceeds {limit:.1e}")


class ReferenceRHS:
    """The benchmark's unit of time: plain-numpy Navier-Stokes right-hand sides.

    A call evaluates mu Lap u and P (u . grad) u of one fixed velocity
    ``reps`` times with ``reference``.  The velocity comes from a seed of its
    own, so a call is the same work in every run.  On a shared host every
    computation speeds up or slows down by tens of percent over minutes;
    operation times divided by the time of one evaluation, both measured in
    the same run, cancel that drift and keep every change of the package.
    """

    seed = 20210711
    mu = 0.05
    kmax = 4.0

    def __init__(self, n: int, res: int, reps: int):
        self.reps = reps
        self.grid = ref.Grid(n, res)
        self.u = ref.random_velocity(self.grid, np.random.default_rng(self.seed), self.kmax)

    def __call__(self) -> None:
        for _ in range(self.reps):
            ref.ns_terms(self.grid, self.mu, self.u)


class NavierStokes:
    """imex-rk2 Navier-Stokes from a random band-limited velocity.

    One operation is one time step; a round is one ``solve_nonlinear`` of
    ``steps`` steps from the same initial velocity.  With ``io`` the round
    follows the CLI ``solve-nonlinear`` output path: first derivatives and
    pressure at the stored samples, then ``save_solution`` and
    ``load_solution`` of the run directory.
    """

    mu = 0.05
    dt = 1e-3
    kmax = 4.0

    def __init__(self, name: str, n: int, res: int, steps: int,
                 store_every: int, io: bool, residual_tol: float):
        self.name = name
        self.n = n
        self.res = res
        self.steps = steps
        self.store_every = store_every
        self.io = io
        self.residual_tol = residual_tol
        self.ops_per_round = steps
        # About a tenth of a round's time in reference right-hand sides.
        self.rhs = (n, res, 4 if n == 2 else 2)

    def setup(self, seed: int, scratch: Path) -> None:
        self.ref = ref.Grid(self.n, self.res)
        u0 = ref.random_velocity(self.ref, np.random.default_rng(seed), self.kmax)
        self.cfg = tf.SolverConfig(mu=self.mu, T=self.steps * self.dt, dt=self.dt,
                                   res=self.res, n=self.n, scheme="imex-rk2")
        # Projecting fills the grid's multiplier caches before the first round.
        self.u0 = tf.project_state(tf.from_physical(self.cfg.grid(), 1, list(u0)))
        self.directory = scratch / self.name

    def run_round(self, r: int):
        sol = tf.solve_nonlinear(None, self.u0, self.cfg, derivatives=int(self.io),
                                 store_every=self.store_every, with_pressure=self.io)
        if not self.io:
            return sol, None
        tf.save_solution(sol, self.directory)
        return sol, tf.load_solution(self.directory)

    def check(self, out) -> list[str]:
        sol, loaded = out
        problems: list[str] = []
        states = [samples(u) for u in sol.u]
        h = self.store_every * self.dt
        if len(states) != self.steps // self.store_every + 1 or not np.allclose(
                np.diff(sol.times), h, rtol=1e-12, atol=0.0):
            return [f"stored {len(states)} samples at times {sol.times}"]
        residual = max(ref.ns_residual(self.ref, self.mu, a, b, c, h)
                       for a, b, c in zip(states, states[1:], states[2:]))
        _exceeds(problems, "Navier-Stokes residual", residual, self.residual_tol)
        divergence = max(ref.divergence_ratio(self.ref, s) for s in states)
        _exceeds(problems, "relative divergence", divergence, 1e-12)
        energy = [ref.l2(s) ** 2 for s in states]
        rise = max((b - a) / a for a, b in zip(energy, energy[1:]))
        _exceeds(problems, "relative energy rise", rise, 1e-13)
        if loaded is not None:
            problems += self._check_loaded(sol, loaded, states)
        return problems

    @staticmethod
    def _check_loaded(sol, loaded, states) -> list[str]:
        if (len(loaded.u) != len(states) or not np.array_equal(loaded.times, sol.times)
                or loaded.p is None or len(loaded.p) != len(sol.p)):
            return ["loaded solution does not match the saved one in length or times"]
        pairs = list(zip(loaded.u, states))
        pairs += [(a, samples(b)) for a, b in zip(loaded.p, sol.p)]
        gap = max(np.max(np.abs(samples(a) - s)) / max(np.max(np.abs(s)), 1e-300)
                  for a, s in pairs)
        problems: list[str] = []
        _exceeds(problems, "loaded snapshot deviation", gap, 1e-12)
        return problems


class GNSurvey:
    """L^6 Gagliardo-Nirenberg ratio survey on T^3, res 32 and 64.

    One operation is one trial; a round is one ``gn_ratio_survey`` call of
    ``trials`` trials under a seed drawn from the run seed and the round.
    """

    name = "gn-survey"
    res = 32
    kmax = 5.0
    trials = 20
    ops_per_round = trials
    rhs = (3, 32, 4)

    def setup(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        rng = np.random.default_rng(seed)
        grid = ref.Grid(3, self.res)
        fields = ((0, ref.random_scalar(grid, rng, self.kmax)[None]),
                  (1, ref.random_velocity(grid, rng, self.kmax)))
        tgrid = tf.SpectralGrid(3, self.res)
        self.lp_cases = [
            (tf.from_physical(tgrid, degree, list(field)), p, ref.lp_norm(field, p))
            for degree, field in fields for p in (3.0, 6.0, math.inf)
        ]

    def run_round(self, r: int):
        return tf.gn_ratio_survey(seed=round_seed(self.seed, r), trials=self.trials,
                                  res=self.res, kmax=self.kmax)

    def check(self, report) -> list[str]:
        ratios = np.asarray(report.ratios, dtype=float)
        doubled = np.asarray(report.doubled_ratios, dtype=float)
        if ratios.shape != (self.trials,) or doubled.shape != ratios.shape or not (
                np.all(np.isfinite(ratios)) and np.all(ratios > 0)):
            return [f"survey returned ratios {ratios} and {doubled}"]
        problems: list[str] = []
        # Sixth powers of a band-5 field are resolved exactly at res 32 and 64.
        _exceeds(problems, "res 32 / res 64 ratio gap",
                 float(np.max(np.abs(doubled - ratios) / ratios)), 1e-12)
        lp_gap = max(abs(tf.lp_norm(field, p) - want) / want
                     for field, p, want in self.lp_cases)
        _exceeds(problems, "lp_norm deviation from numpy quadrature", lp_gap, 1e-12)
        return problems


class OpenMap:
    """Local inversion of the discrete Navier-Stokes map on T^2, res 16.

    Set-up solves a seeded imex-euler base trajectory and builds the full
    Galerkin basis.  One operation is one inversion round: the linearized
    operator assembled at every time sample of the base trajectory, its
    Galerkin inverse applied to a perturbation direction, and Newton
    inversions of the data perturbed by eps and eps/2 along it.
    """

    name = "open-map"
    res = 16
    mu = 0.1
    dt = 2e-3
    # Four steps keep a round near 1.3 s, so a run averages a dozen rounds.
    steps = 4
    # Both amplitudes take two Newton iterations on every seed: one leaves a
    # residual at least 10x above newton_tol = 1e-10, two leave one 1000x below.
    eps = (1.6e-2, 8e-3)
    ops_per_round = 1
    rhs = (2, 16, 500)

    def setup(self, seed: int, scratch: Path) -> None:
        rng = np.random.default_rng(seed)
        self.ref = ref.Grid(2, self.res)
        u0 = ref.random_velocity(self.ref, rng, self.res / 3.0)
        self.direction_samples = ref.random_velocity(self.ref, rng, 2.0)
        self.cfg = tf.SolverConfig(mu=self.mu, T=self.steps * self.dt, dt=self.dt,
                                   res=self.res, scheme="imex-euler")
        grid = self.cfg.grid()
        self.ns = tf.get_preset("navier-stokes-i1", 2, 1)
        self.base = tf.solve_nonlinear(None, tf.from_physical(grid, 1, list(u0)),
                                       self.cfg, self.ns, derivatives=0,
                                       with_pressure=False)
        self.basis = tf.build_basis(grid, 1)
        self.base_samples = [samples(u) for u in self.base.u]
        cells = ref.forward_cells(self.ref, self.mu, self.dt, self.base_samples)
        self.targets = []
        for eps in self.eps:
            target = [c + eps * self.direction_samples for c in cells]
            self.targets.append(
                (target, [tf.from_physical(grid, 1, list(c)) for c in target]))
        self.direction = tf.from_physical(grid, 1, list(self.direction_samples))
        self.zero = tf.from_physical(grid, 1, list(np.zeros_like(u0)))

    def run_round(self, r: int):
        op = tf.assemble_linearized(self.base.u, self.mu, self.basis,
                                    self.cfg.times(), self.ns)
        response = tf.apply_inverse(op, self.direction, self.zero, self.cfg,
                                    derivatives=0)
        newton = [tf.newton_local_inverse(fields, self.base.u[0], self.base,
                                          self.cfg, self.ns)
                  for _, fields in self.targets]
        return response, newton

    def check(self, out) -> list[str]:
        response, newton = out
        problems: list[str] = []
        v = [samples(u) for u in response.u]
        if len(v) != len(self.base_samples):
            return [f"apply_inverse returned {len(v)} samples"]
        gaps, sizes = [], []
        for eps, (target, _), result in zip(self.eps, self.targets, newton):
            states = [samples(u) for u in result.solution.u]
            if not result.converged or len(states) != len(self.base_samples):
                problems.append(f"Newton at eps={eps} did not converge")
                continue
            data = ref.forward_cells(self.ref, self.mu, self.dt, states)
            miss = max([ref.l2(a - b) for a, b in zip(data, target)]
                       + [ref.l2(states[0] - self.base_samples[0])])
            _exceeds(problems, f"preimage data miss at eps={eps}", miss, 1e-8)
            disp = [s - b for s, b in zip(states, self.base_samples)]
            gaps.append(max(ref.l2(d - eps * w) for d, w in zip(disp, v)))
            sizes.append(max(ref.l2(d) for d in disp))
        if problems:
            return problems
        # The Newton displacement is eps A'^-1 d + O(eps^2) and apply_inverse
        # gives A'^-1 d, so the gap between them falls by four when eps
        # halves, and the displacement halves up to O(eps).
        _exceeds(problems, "Newton vs Galerkin inverse relative gap",
                 gaps[0] / sizes[0], 0.01 * self.eps[0])
        _exceeds(problems, "gap order deviation", abs(gaps[1] / gaps[0] - 0.25), 0.05)
        _exceeds(problems, "displacement halving deviation",
                 abs(sizes[1] / sizes[0] - 0.5), self.eps[0])
        return problems


def make(name: str):
    if name == "ns2d-256":
        return NavierStokes(name, 2, 256, steps=4, store_every=2, io=True,
                            residual_tol=5e-5)
    if name == "ns3d-64":
        return NavierStokes(name, 3, 64, steps=2, store_every=1, io=False,
                            residual_tol=5e-5)
    if name == "gn-survey":
        return GNSurvey()
    if name == "open-map":
        return OpenMap()
    raise ValueError(f"unknown workload {name!r}")

