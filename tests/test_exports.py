"""The public names: a star import binds every name in ``__all__``, each
name resolves, and the helpers that no pipeline stage called stay deleted.
"""

from __future__ import annotations

import pytest

import refinable as rf
from refinable import extension

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
