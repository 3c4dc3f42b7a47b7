"""``tools/compare_outputs.py diff`` on two hand-made hash files.

Byte changes and verdict changes are reported apart: a job whose bytes
moved but whose exit code and check verdicts did not counts only as
differing, and each moved exit code or verdict gets a line of its own.
"""

from __future__ import annotations

import importlib.util
import json
import os
from pathlib import Path
from unittest import mock

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "compare_outputs.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("_compare_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ):  # the tool pins BLAS threads on import
        spec.loader.exec_module(module)
    return module


CHECKS = [["homogeneity", True], ["reconstruction", True]]


def record(rc=0, stdout="a", checks=None, **files):
    out = {"rc": rc, "stdout": stdout, "stderr": "e", "files": files}
    if checks is not None:
        out["checks"] = checks
    return out


def hash_file(path: Path, jobs: dict) -> Path:
    path.write_text(json.dumps({"src": "x", "workloads": [], "jobs": jobs}))
    return path


def test_bytes_and_verdicts_are_reported_apart(tool, tmp_path, capsys):
    first = {
        "same": record(checks=CHECKS),
        "bytes": record(checks=CHECKS),
        "verdict": record(checks=CHECKS),
        "exit": record(),
        "files": record(**{"h_1.csv": "x"}),
        "gone": record(),
    }
    second = {
        "same": record(checks=CHECKS),
        "bytes": record(stdout="b", checks=CHECKS),
        "verdict": record(rc=1, stdout="b", checks=[["homogeneity", False], ["reconstruction", True]]),
        "exit": record(rc=2),
        "files": record(**{"h_1.csv": "y"}),
    }
    a, b = hash_file(tmp_path / "a.json", first), hash_file(tmp_path / "b.json", second)
    assert tool.main(["diff", str(a), str(b)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "bytes: stdout",
        "exit: rc",
        "files: h_1.csv",
        "gone: only in first",
        "verdict: rc, stdout",
        "exit: exit code 0 -> 2",
        "verdict: exit code 0 -> 1",
        "verdict: homogeneity passed -> failed",
        "6 jobs compared, 5 differ, 2 in verdicts",
    ]


def test_a_byte_change_that_keeps_every_verdict(tool, tmp_path, capsys):
    first = {"verify/a": record(checks=CHECKS), "basis/b": record(**{"basis.json": "x"})}
    second = {"verify/a": record(stdout="b", checks=CHECKS), "basis/b": record(**{"basis.json": "y"})}
    a, b = hash_file(tmp_path / "a.json", first), hash_file(tmp_path / "b.json", second)
    assert tool.main(["diff", str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "2 jobs compared, 2 differ, 0 in verdicts"


def test_changed_check_names_are_a_verdict_change(tool):
    x = record(checks=CHECKS)
    y = record(checks=CHECKS[:1])
    lines, verdicts = tool.diff({"jobs": {"k": x}}, {"jobs": {"k": y}})
    assert lines == []  # the hashes alone do not differ in this made-up pair
    assert verdicts == {"k": ["checks ['homogeneity', 'reconstruction'] -> ['homogeneity']"]}


def test_identical_files_compare_clean(tool, tmp_path, capsys):
    jobs = {"verify/a": record(checks=CHECKS), "spectrum/b": record()}
    a, b = hash_file(tmp_path / "a.json", jobs), hash_file(tmp_path / "b.json", jobs)
    assert tool.main(["diff", str(a), str(b)]) == 0
    assert capsys.readouterr().out.splitlines() == ["2 jobs compared, 0 differ, 0 in verdicts"]


def test_checks_are_read_from_a_verify_report(tool):
    report = json.dumps({"checks": [{"name": "homogeneity", "passed": False, "residual": 1.0}]})
    assert tool._checks(report) == [["homogeneity", False]]
    assert tool._checks("") is None
