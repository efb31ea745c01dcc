"""The package's public names: every export resolves, once, and the
removed API stays removed."""

import inspect

import pytest

import torusforms
import torusforms.nonlinear
import torusforms.verify

REMOVED = [
    (torusforms.nonlinear, "save_bilinear_map"),
    (torusforms.nonlinear, "load_bilinear_map"),
    (torusforms.verify, "REPORT_STATUSES"),
    (torusforms.HodgeDecomposition, "reconstruct"),
    (torusforms.GalerkinBasis, "project"),
    (torusforms.GalerkinBasis, "_project_halves"),
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
