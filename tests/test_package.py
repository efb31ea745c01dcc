"""The package's public names: every export resolves, once, and the
removed API stays removed."""

import inspect
import re
from pathlib import Path

import pytest

import torusforms
import torusforms.hodge
import torusforms.nonlinear
import torusforms.verify

REMOVED = [
    (torusforms.nonlinear, "save_bilinear_map"),
    (torusforms.nonlinear, "load_bilinear_map"),
    (torusforms.verify, "REPORT_STATUSES"),
    (torusforms.HodgeDecomposition, "reconstruct"),
    (torusforms.GalerkinBasis, "project"),
    (torusforms.GalerkinBasis, "_project_halves"),
    (torusforms.verify, "emit_plot_data"),
    (torusforms.verify, "PLOT_QUANTITIES"),
    (torusforms.verify, "write_norm_series"),
    (torusforms.verify, "write_norm_table"),
    (torusforms.hodge, "recover_pressure"),
    (torusforms.nonlinear, "trilinear_form"),
    (torusforms.FormField, "coefficient"),
    (torusforms.SpectralGrid, "nyquist_mask"),
]


def test_exports_resolve_once():
    names = torusforms.__all__
    assert len(names) == len(set(names))
    for name in names:
        getattr(torusforms, name)
    # and every public name the package imports is exported
    public = {name for name, value in vars(torusforms).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == set(names)


@pytest.mark.parametrize("owner, name", REMOVED, ids=[name for _, name in REMOVED])
def test_removed_name_gone(owner, name):
    assert name not in torusforms.__all__
    assert not hasattr(owner, name)


def test_numpy_floor_is_at_least_2_0():
    # spectral._box_transform passes out= to np.fft, which NumPy 2.0 added.
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parent.parent / "pyproject.toml", "rb") as fh:
        dependencies = tomllib.load(fh)["project"]["dependencies"]
    floor, = [re.fullmatch(r"numpy>=(\d+)\.(\d+)", d) for d in dependencies
              if d.startswith("numpy")]
    assert floor and (int(floor[1]), int(floor[2])) >= (2, 0)
