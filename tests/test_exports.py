"""The public names: a star import binds every name in ``__all__``, each
name resolves, and the helpers that no pipeline stage called stay deleted.
Each public callable takes each input once: no mask next to the object
built from it, and no exact copy of data that an argument holds. Each
pipeline stage takes one input type, the one the pipeline hands it.
"""

from __future__ import annotations

import inspect
import json
from fractions import Fraction

import numpy as np
import pytest

import refinable as rf
from refinable import diffeq, extension, spectral

DELETED = (
    "ChainInfo",
    "KERNEL_RTOL",
    "MaskPolynomials",
    "ZeroExtender",
    "kernel_lift",
    "kernel_transfer",
    "mask_polynomials",
    "restrict",
    "sequence_window",
    "subdivision",
)


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from refinable import *", namespace)
    assert sorted(set(rf.__all__)) == sorted(rf.__all__)
    assert [name for name in rf.__all__ if namespace.get(name) is not getattr(rf, name)] == []


@pytest.mark.parametrize("name", DELETED)
def test_deleted_name_is_not_exported(name):
    assert name not in rf.__all__
    assert not hasattr(rf, name)


def test_sequence_window_is_the_one_window_class():
    assert not hasattr(extension, "ConjugateWindow")
    # values(lo, hi) is the one read
    assert not hasattr(rf.SequenceWindow, "value")
    assert not hasattr(rf.SequenceWindow, "window")


def _parameters():
    """(name, parameter names) of every public callable with a signature."""
    out = [("diffeq.root_triples", set(inspect.signature(diffeq.root_triples).parameters))]
    for name in rf.__all__:
        try:
            out.append((name, set(inspect.signature(getattr(rf, name)).parameters)))
        except ValueError:  # exception classes defined in C have none
            continue
    return out


def test_no_callable_takes_a_mask_next_to_what_it_builds():
    # the scale matrices, phi and the spectral data each carry their mask
    both = [name for name, params in _parameters() if "mask" in params and params & {"scale", "phi", "spectral"}]
    assert both == []


def test_no_callable_takes_a_second_exact_copy():
    # the entries of an argument decide between exact and float arithmetic
    copies = [name for name, params in _parameters() if params & {"exact_rows", "coeffs_exact"}]
    assert copies == []


def test_spectrum_of_follows_its_entries():
    floats = rf.spectrum_of([[0.5, 0.0], [1.0, 0.25]])
    assert [exact for _, _, exact in floats] == [None, None]
    assert [d for d, _, _ in floats] == pytest.approx([0.5, 0.25])
    fractions = rf.spectrum_of([[Fraction(1, 2), 0], [1, Fraction(1, 4)]])
    assert [exact for _, _, exact in fractions] == [Fraction(1, 2), Fraction(1, 4)]


def test_root_triples_follows_its_coefficients():
    # 2 - 3x + x^2 = (x - 1)(x - 2)
    floats = diffeq.root_triples([2.0, -3.0, 1.0])
    assert sorted(d.real for d, _, _ in floats) == pytest.approx([1.0, 2.0])
    assert [exact for _, _, exact in floats] == [None, None]
    fractions = diffeq.root_triples([2, Fraction(-3), 1])
    assert sorted(exact for _, _, exact in fractions) == [1, 2]
    assert all(type(exact) is Fraction for _, _, exact in fractions)


BSPLINE3 = rf.mask_from_coefficients(["1/4", "3/4", "3/4", "1/4"])
E0 = np.eye(4)[0]  # a left eigenvector for c_0 = 1/4
# each stage as a function of its one input: ScaleMatrices, or for the
# basis SpectralData
STAGES = {
    "eigen_structure": rf.eigen_structure,
    "accuracy": rf.accuracy,
    "independence_test": rf.independence_test,
    "power_chain": lambda scale: spectral.power_chain(E0, scale, 0.25),
    "minimal_order": lambda scale: rf.minimal_order(E0, scale, 0.25),
    "extend_vector": lambda scale: rf.extend_vector(E0, scale, 0.25),
    "build_homogeneous_basis": lambda spec: rf.build_homogeneous_basis(spec, level=2),
}


def _inputs():
    scale = rf.build_scale_matrices(BSPLINE3)
    return {"mask": BSPLINE3, "scale": scale, "spectral": rf.eigen_structure(scale)}


@pytest.mark.parametrize("name", STAGES)
def test_each_stage_takes_one_input_type(name):
    inputs = _inputs()
    taken = "spectral" if name == "build_homogeneous_basis" else "scale"
    STAGES[name](inputs.pop(taken))
    for value in inputs.values():
        with pytest.raises(TypeError, match="ScaleMatrices" if taken == "scale" else "SpectralData"):
            STAGES[name](value)


def test_parse_mask_takes_the_json_text_only():
    doc = {"coefficients": ["1/4", "3/4", "3/4", "1/4"]}
    assert rf.parse_mask(json.dumps(doc)).exact == BSPLINE3.exact
    for source in (doc, json.dumps(doc).encode()):
        with pytest.raises(TypeError, match="str"):
            rf.parse_mask(source)
