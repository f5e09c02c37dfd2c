"""The compiled bits of the package are pinned over the parity target set.

``tools/parity.py`` hashes what ``kak_decompose``, both synthesizers,
``circuit_to_dict`` and ``evaluate_circuit`` return for 3,288 fixed
targets: Haar seeds 0-2999, the named gates, near-landmark targets and the
mixing weight's collision targets.  This test imports the tool and asserts
its two hashes, under its rule that a ``RuntimeWarning`` is an error, so a
change that moves any output bit fails here.  A change that means to move
bits updates the pins and says why.

The bits depend on numpy and on the BLAS and LAPACK it calls, so the pins
hold only where they were recorded; elsewhere the test is skipped.
"""

import importlib.util
import os
import pathlib
import warnings
from unittest import mock

import numpy as np
import pytest

import swapsynth

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "parity.py"

# numpy's version and the name and version of its BLAS when the pins were recorded.
RECORDED_ON = ("2.4.6", "scipy-openblas", "0.3.31.188.0")
TARGETS = 3288
OUTPUTS = "afa61c8347ef3d230510040875641e6c4bbb4c127c97a4ff3aebc9830b6ead63"
OUTPUTS_AND_EVALUATE = "00a5ba9a117ad7192239a13907d0a246399cff4e19ba90bafa8eb1f83a159474"


def _build():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return np.__version__, blas.get("name"), blas.get("version")


def _tool():
    """tools/parity.py as a module; the BLAS thread variables it sets on
    import are restored afterwards."""
    spec = importlib.util.spec_from_file_location("parity", TOOL)
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ):
        spec.loader.exec_module(module)
    return module


def test_parity_hashes_are_pinned():
    if _build() != RECORDED_ON:
        pytest.skip(f"the hashes were recorded on numpy and BLAS {RECORDED_ON}, not {_build()}")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        count, outputs, with_evaluate = _tool().parity(swapsynth)
    assert (count, outputs, with_evaluate) == (TARGETS, OUTPUTS, OUTPUTS_AND_EVALUATE)
