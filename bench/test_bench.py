"""Tests of the benchmark itself.

Every workload passes its checks on a clean round, and each check fails
when the quantity it guards is broken inside this process.  The tracer's
self-time arithmetic holds on a synthetic nest of spans, and every patch
it makes comes off again.  Run from the repository root:

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import run  # noqa: E402
import torusforms as tf  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def workload(tmp_path_factory):
    made = {}

    def get(name):
        if name not in made:
            wl = workloads.make(name)
            wl.setup(7, tmp_path_factory.mktemp(name))
            made[name] = wl
        return made[name]

    return get


@contextmanager
def broken(public: str, breaker):
    """Swap a package function for ``breaker(original)`` everywhere."""
    patches = tracer.Patches()
    original = getattr(tf, public)
    assert patches.everywhere(original, breaker(original)) > 0
    try:
        yield
    finally:
        patches.undo()
    assert getattr(tf, public) is original


def one_round(wl) -> dict:
    return run.measure(wl, 0.0)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_clean_round_passes(workload, name):
    stats = one_round(workload(name))
    assert stats["rounds"] == 1
    assert stats["ops"] == workload(name).ops_per_round
    assert stats["failed"] == 0
    assert stats["rhs_evals"] == workload(name).rhs[2]
    assert stats["rhs_wall_s"] > 0 and stats["rhs_cpu_s"] > 0


def test_reference_unit_does_not_depend_on_the_run():
    a, b = workloads.ReferenceRHS(2, 16, 3), workloads.ReferenceRHS(2, 16, 3)
    assert np.array_equal(a.u, b.u)
    assert sorted(workloads.make(name).rhs[:2] for name in run.WORKLOADS) == [
        (2, 16), (2, 256), (3, 32), (3, 64)]


def _scaled_apply_inverse(original):
    def scaled(*args, **kwargs):
        sol = original(*args, **kwargs)
        sol.u = [u * 1.001 for u in sol.u]
        return sol

    return scaled


FAULTS = {
    "nonlinear-term-zero": ("ns2d-256", "nonlinear_term",
                            lambda f: lambda v, cfg: f(v, cfg) * 0.0),
    "nonlinear-term-flipped": ("ns3d-64", "nonlinear_term",
                               lambda f: lambda v, cfg: -f(v, cfg)),
    "snapshot-perturbed": ("ns2d-256", "save_field",
                           lambda f: lambda u, path: f(u * (1.0 + 1e-9), path)),
    "apply-inverse-scaled": ("open-map", "apply_inverse", _scaled_apply_inverse),
    "lp-norm-off": ("gn-survey", "lp_norm",
                    lambda f: lambda u, p: f(u, p) * (1.0 + 1e-9)),
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_check_catches_fault(workload, fault, capsys):
    name, public, breaker = FAULTS[fault]
    wl = workload(name)
    with broken(public, breaker):
        stats = one_round(wl)
    assert stats["failed"] == stats["ops"] == wl.ops_per_round
    assert f"bench: {name} round 0" in capsys.readouterr().err


def test_self_time_is_span_minus_child_cover():
    t = tracer.Tracer()
    root = t.record("root", 0, 100)
    b = t.record("b", 10, 40, root)
    t.record("c", 20, 30, b)
    t.record("d", 50, 70, root)
    t.record("e", 60, 80, root)  # overlaps d: together they cover 50..80
    assert tracer.self_times(t.starts, t.ends, t.parents) == [40, 20, 10, 20, 20]


def test_layer_metrics_on_synthetic_trace():
    t = tracer.Tracer()
    setup = t.record("solver.build_basis", 0, 4_000_000, op=-1)
    assert setup == 0
    for op in range(2):
        base = 10_000_000 * (op + 1)
        term = t.record("nonlinear.nonlinear_term", base, base + 3_000_000, op=op)
        for j in range(3):
            start = base + 500_000 * (j + 1)
            t.record(tracer.FFT_SPAN, start, start + 200_000, term, op=op)
    m = t.layer_metrics(ops=2)
    assert {name for name, _ in run.PER_LAYER} - set(m) == {"trace.wall_ms_per_op",
                                                          "bench.ref_rhs_ms"}
    assert m["spectral.fft.calls_per_op"] == 3
    assert m["nonlinear.fft_calls_per_eval"] == 3
    assert m["nonlinear.nonlinear_term.calls_per_op"] == 1
    assert m["spectral.fft.ms_per_op"] == pytest.approx(0.6)
    assert m["nonlinear.nonlinear_term.self_ms_per_op"] == pytest.approx(2.4)
    assert m["solver.build_basis.ms"] == pytest.approx(4.0)
    assert m["solver.project_state.calls_per_op"] == 0


def _namespaces():
    spaces = {m.__name__: dict(vars(m)) for m in tracer.package_modules()}
    spaces["FormField"] = dict(vars(tf.FormField))
    return spaces


def test_install_counts_and_restore_removes_every_patch():
    before = _namespaces()
    t = tracer.Tracer()
    t.install()
    try:
        assert tf.spectral.np is not np
        assert tf.solve_nonlinear is not before["torusforms"]["solve_nonlinear"]
        grid = tf.SpectralGrid(2, 16)
        v = tf.random_form(grid, 1, np.random.default_rng(0))
        t.op = 0
        tf.nonlinear_term(v, tf.get_preset("navier-stokes-i1", 2, 1))
        t.op = None
        tf.nonlinear_term(v, tf.get_preset("navier-stokes-i1", 2, 1))
    finally:
        t.restore()
    m = t.layer_metrics(ops=1)
    assert m["nonlinear.nonlinear_term.calls_per_op"] == 1
    assert m["spectral.fft.calls_per_op"] == m["nonlinear.fft_calls_per_eval"] > 0
    assert m["spectral.fft.points_per_op"] == m["spectral.fft.calls_per_op"] * 16 * 16
    after = _namespaces()
    assert after.keys() == before.keys()
    for space, names in before.items():
        assert all(after[space].get(k) is value for k, value in names.items()), space


def test_metric_lists_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOADS
    assert tuple(run.NOMINAL_RHS_MS) == run.WORKLOADS
    assert tuple((m["name"], m["unit"]) for m in spec["end_to_end"]) == run.END_TO_END
    assert tuple((m["name"], m["unit"]) for m in spec["per_layer"]) == run.PER_LAYER
    assert spec["command"] == ["python3", "bench/run.py"]
