"""The benchmark's span tracer names package functions by module and name.

``perfbench/spans.py`` is loaded by path, as a file, and every entry of its
``TARGETS`` table must resolve to a callable in the module of that name
of the package the tests import. A function renamed or deleted without updating that table would
otherwise only fail a traced benchmark run.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(mod_name, fn_name) for mod_name, names in spans.TARGETS.items() for fn_name in names]


@pytest.mark.parametrize("mod_name, fn_name", _targets())
def test_trace_target_resolves_to_a_callable(mod_name, fn_name):
    module = importlib.import_module(f"refinable.{mod_name}")
    assert callable(getattr(module, fn_name, None)), f"{mod_name}.{fn_name}"
