"""The benchmark's span tracer names package functions by module and name.

``perfbench/spans.py`` is loaded by path, as a file, and every entry of its
``TARGETS`` table must resolve to a callable in the module of that name
of the package the tests import. A function renamed or deleted without updating that table would
otherwise only fail a traced benchmark run. Its counters read the
arguments and results of those functions, so a traced run of the command
line must count what the jobs did and write the bytes of an untraced run.
"""

from __future__ import annotations

import contextlib
import importlib
import importlib.util
import io
from pathlib import Path

import pytest

from refinable import cli

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

BSPLINE3 = '["1/4", "3/4", "3/4", "1/4"]'
HALF = '["1/2", "1/2", "1/2", "1/2"]'


def _spans():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def _targets():
    spans = _spans()
    return [(mod_name, fn_name) for mod_name, names in spans.TARGETS.items() for fn_name in names]


@pytest.mark.parametrize("mod_name, fn_name", _targets())
def test_trace_target_resolves_to_a_callable(mod_name, fn_name):
    module = importlib.import_module(f"refinable.{mod_name}")
    assert callable(getattr(module, fn_name, None)), f"{mod_name}.{fn_name}"


def _outputs(out: Path) -> tuple[list, dict]:
    """(exit code, stdout) of each job, the dependency witness of
    ``verify``, a ``basis`` job and a rational ``spectrum`` job, and the
    files that the ``basis`` job wrote into ``out``."""
    jobs = (
        ("verify", HALF, "--level", "8"),
        ("basis", BSPLINE3, "--level", "6", "--out", str(out)),
        ("spectrum", BSPLINE3),
    )
    results = []
    for argv in jobs:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            results.append((cli.main(list(argv)), stdout.getvalue()))
    return results, {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_traced_jobs_count_their_work_and_keep_their_bytes(tmp_path):
    spans = _spans()
    plain = _outputs(tmp_path / "plain")
    with spans.Tracer() as tracer:
        traced = _outputs(tmp_path / "traced")
    assert traced == plain
    assert [rc for rc, _ in plain[0]] == [0, 0, 0]
    assert "phi.csv" in plain[1]
    summary = tracer.summary()
    assert summary["evaluate.verify_dependency.calls"] == 1
    assert summary["evaluate.build_homogeneous_basis.calls"] == 2
    for key in (
        "report.csv_rows",
        "report.bytes_out",
        "evaluate.samples_synthesized",
        "kernels.refine_points",
        "kernels.refine_bytes",
        "kernels.extend_indices",
        "spectral.exact_attempts",
        "spectral.exact_hits",
    ):
        assert summary[key] > 0, key
    # one exact attempt for each of the three rational masks, and each
    # attempt ends as a hit or a fallback
    assert summary["spectral.exact_attempts"] == 3
    assert summary["spectral.exact_hits"] + summary["spectral.exact_fallbacks"] == 3
