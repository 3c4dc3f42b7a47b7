"""Command line interface: exit codes, input forms, report files,
byte-determinism of the reports across processes, and the declared
dependencies of the package.
"""

from __future__ import annotations

import ast
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import refinable as rf
from refinable import __version__
from refinable.cli import main

from conftest import dump_csv_by_row, random_masks, subprocess_env

try:
    import tomllib
except ImportError:  # Python 3.10
    tomllib = None

BSPLINE3 = '["1/4", "3/4", "3/4", "1/4"]'
HALF = '["1/2", "1/2", "1/2", "1/2"]'

# N = 11, large enough that integer and Fraction elimination take
# different intermediate steps
BSPLINE11 = json.dumps(
    {
        "name": "bspline11",
        "coefficients": [
            "1/1024", "11/1024", "55/1024", "165/1024", "165/512", "231/512",
            "231/512", "165/512", "165/1024", "55/1024", "11/1024", "1/1024",
        ],
    }
)

ROOT = Path(__file__).resolve().parents[1]
MASKS = ROOT / "masks"
# `refinable spectrum --exact` reports of the worked masks and of bspline11,
# and `refinable basis --exact` samples of the worked masks, recorded once
DATA = ROOT / "tests" / "data"
PYPROJECT = ROOT / "pyproject.toml"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSpectrumCommand:
    def test_inline_mask_to_stdout(self, capsys):
        code, out, _ = run(capsys, "spectrum", BSPLINE3)
        assert code == 0
        doc = json.loads(out)
        assert doc["exact_mode"] is True
        assert doc["accuracy"]["order"] == 3
        eigs = sorted(g["exact_eigenvalue"] for g in doc["groups"])
        assert eigs == ["1/2", "1/4", "1"] or sorted(eigs) == sorted(
            ["1", "1/2", "1/4"]
        )
        assert doc["independence"]["verdict"] == "independence not contradicted"

    def test_object_document_from_file(self, tmp_path, capsys):
        path = tmp_path / "mask.json"
        path.write_text('{"name": "spline", "coefficients": %s}' % BSPLINE3)
        code, out, _ = run(capsys, "spectrum", str(path))
        assert code == 0
        assert json.loads(out)["mask"]["name"] == "spline"

    def test_stdin_dash(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr(sys, "stdin", io.StringIO(HALF))
        code, out, _ = run(capsys, "spectrum", "-")
        assert code == 0
        doc = json.loads(out)
        assert doc["independence"]["verdict"] == "translates DEPENDENT"

    def test_out_directory(self, tmp_path, capsys):
        code, out, _ = run(capsys, "spectrum", BSPLINE3, "--out", str(tmp_path))
        assert code == 0
        assert out == ""
        text = (tmp_path / "spectrum.json").read_text()
        assert json.loads(text)["accuracy"]["order"] == 3

    @pytest.mark.parametrize("name", ["bspline3", "jordan13", "half", "bspline11"])
    def test_exact_report_matches_the_golden_file(self, name, tmp_path, capsys):
        # Exact-mode reports are rendered from Fractions alone, so their
        # bytes do not depend on the platform's LAPACK.
        mask = BSPLINE11 if name == "bspline11" else str(MASKS / f"{name}.json")
        code, _, _ = run(capsys, "spectrum", mask, "--exact", "--out", str(tmp_path))
        assert code == 0
        golden = DATA / f"spectrum_exact_{name}.json"
        assert (tmp_path / "spectrum.json").read_bytes() == golden.read_bytes()

    def test_out_at_an_existing_file_is_a_usage_error(self, tmp_path, capsys):
        target = tmp_path / "file"
        target.write_text("kept")
        code, out, err = run(capsys, "spectrum", str(MASKS / "bspline3.json"), "--out", str(target))
        assert code == 2
        assert out == ""
        assert "error: cannot write" in err and "Traceback" not in err
        assert target.read_text() == "kept"

    def test_exact_flag_fails_on_irrational_mask(self, capsys):
        d4 = "[0.6830127018922193, 1.1830127018922193, 0.3169872981077807, -0.1830127018922193]"
        code, _, err = run(capsys, "spectrum", d4, "--exact")
        assert code == 1
        assert "error:" in err
        # without the flag the float path succeeds
        code2, out, _ = run(capsys, "spectrum", d4)
        assert code2 == 0
        assert json.loads(out)["exact_mode"] is False

    @pytest.mark.filterwarnings("ignore::refinable.MaskSumWarning")
    def test_root_missed_by_the_float_guide_stays_exact(self, capsys):
        # spectrum {2, 10^-21}: the float guide misses 10^-21, which is the
        # root of the factor of degree 1 that is left over
        code, out, _ = run(capsys, "spectrum", TINY_C0)
        assert code == 0
        doc = json.loads(out)
        assert doc["exact_mode"] is True
        assert [g["exact_eigenvalue"] for g in doc["groups"]] == ["2", "1/1000000000000000000000"]


class TestBasisCommand:
    def test_writes_all_files(self, tmp_path, capsys):
        code, _, _ = run(
            capsys, "basis", BSPLINE3, "--out", str(tmp_path), "--level", "6"
        )
        assert code == 0
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [
            "basis.json",
            "h_00.csv",
            "h_01.csv",
            "h_02.csv",
            "h_03.csv",
            "phi.csv",
        ]
        phi_lines = (tmp_path / "phi.csv").read_text().splitlines()
        assert phi_lines[0] == "x,re,im"
        assert len(phi_lines) == 1 + 3 * 64 + 1  # header + N*2^level + 1 rows
        h_lines = (tmp_path / "h_00.csv").read_text().splitlines()
        assert len(h_lines) == 1 + 2 * 64 + 1
        doc = json.loads((tmp_path / "basis.json").read_text())
        assert doc["level"] == 6
        assert doc["interval"] == [-1, 1]
        assert [r["file"] for r in doc["rows"]] == [
            "h_00.csv",
            "h_01.csv",
            "h_02.csv",
            "h_03.csv",
        ]
        for row in doc["rows"]:
            assert row["homogeneity_residual"] <= 1e-7
        assert doc["reconstruction"]["residual"] <= 1e-7

    @pytest.mark.parametrize("name", ["bspline3", "jordan13", "half"])
    def test_exact_samples_match_the_golden_files(self, name, tmp_path, capsys):
        # The CSVs come from exact integer samples, the cascade and the
        # extension recurrences only; basis.json is left out because its
        # reconstruction residual goes through LAPACK.
        code, _, _ = run(
            capsys, "basis", str(MASKS / f"{name}.json"), "--exact", "--level", "4",
            "--interval", "-2", "2", "--out", str(tmp_path),
        )
        assert code == 0
        golden = DATA / f"basis_exact_{name}"
        names = sorted(p.name for p in golden.iterdir())
        assert sorted(p.name for p in tmp_path.glob("*.csv")) == names
        for filename in names:
            assert (tmp_path / filename).read_bytes() == (golden / filename).read_bytes(), filename

    def test_out_below_an_existing_file_is_a_usage_error(self, tmp_path, capsys):
        (tmp_path / "file").write_text("kept")
        code, _, err = run(
            capsys, "basis", BSPLINE3, "--level", "3", "--out", str(tmp_path / "file" / "sub")
        )
        assert code == 2
        assert "error: cannot write" in err and "Traceback" not in err

    def test_several_calls_in_one_process_match_the_golden_files(self, tmp_path, capsys):
        # consecutive basis calls on equal and on different grids, in one
        # process as the benchmark and tools/compare_outputs.py run them
        calls = ["bspline3", "d4", "jordan13", "half", "bspline3"]
        for i, name in enumerate(calls):
            out = tmp_path / f"{i}_{name}"
            if name == "d4":
                argv = ["--level", "4", "--interval", "-1", "1"]
            else:
                argv = ["--exact", "--level", "4", "--interval", "-2", "2"]
            code, _, _ = run(capsys, "basis", str(MASKS / f"{name}.json"), *argv, "--out", str(out))
            assert code == 0, name
            if name == "d4":
                continue
            golden = DATA / f"basis_exact_{name}"
            names = sorted(p.name for p in golden.iterdir())
            assert sorted(p.name for p in out.glob("*.csv")) == names
            for filename in names:
                assert (out / filename).read_bytes() == (golden / filename).read_bytes(), (i, filename)

    def test_partner_rows_match_the_row_writer(self, tmp_path, capsys):
        # the golden files are exact mode, which has no partner rows: a
        # seeded float mask with complex eigenvalues has them
        mask = next(m for m in random_masks() if m.n >= 5 and any(
            info.conjugate_of is not None for info in rf.eigen_structure(rf.build_scale_matrices(m)).rows
        ))
        text = json.dumps({"name": mask.name, "coefficients": [float(c.real) for c in mask.coefficients]})
        code, _, _ = run(capsys, "basis", text, "--level", "5", "--interval", "-2", "2", "--out", str(tmp_path))
        assert code == 0
        basis = rf.build_homogeneous_basis(
            rf.eigen_structure(rf.build_scale_matrices(rf.parse_mask(text))), level=5, interval=(-2, 2)
        )
        assert any(info.conjugate_of is not None for info in basis.spectral.rows)
        files = sorted(tmp_path.glob("h_*.csv"))
        assert [int(f.stem[2:]) for f in files] == list(range(len(basis.samples)))
        for f, row in zip(files, basis.samples):
            assert f.read_text() == dump_csv_by_row(basis.grid, row), f.name

    def test_requires_out_directory(self, capsys):
        code, _, err = run(capsys, "basis", BSPLINE3)
        assert code == 2
        assert "--out" in err

    def test_rejects_fractional_interval(self, tmp_path, capsys):
        # nan and inf are not integers either
        for interval in (("0.5", "1"), ("nan", "1"), ("-1", "nan"), ("0", "inf")):
            code, _, err = run(
                capsys,
                "basis",
                BSPLINE3,
                "--out",
                str(tmp_path),
                "--interval",
                *interval,
            )
            assert code == 2
            assert "integer" in err

    def test_rejects_interval_missing_zero(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "basis",
            BSPLINE3,
            "--out",
            str(tmp_path),
            "--interval",
            "1",
            "2",
        )
        assert code == 2

    def test_rejects_interval_ending_at_zero(self, tmp_path, capsys):
        # the reconstruction reads the basis on [0, 1], so B = 0 is refused
        # before any work, and no file is written
        out = tmp_path / "out"
        code, _, err = run(
            capsys, "basis", BSPLINE3, "--out", str(out), "--interval", "-3", "0"
        )
        assert code == 2
        assert "--interval" in err
        assert not out.exists()

    def test_rejects_out_of_range_level(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "basis", BSPLINE3, "--out", str(tmp_path), "--level", "40"
        )
        assert code == 2
        assert "--level" in err

    def test_oversized_grid_is_a_computational_failure(self, tmp_path, capsys):
        # numpy refuses the 29.8 PiB sample matrix at once, allocating nothing
        code, _, err = run(
            capsys, "basis", "[1,1]", "--level", "20", "--interval", "-1000000000", "1",
            "--out", str(tmp_path / "D"),
        )
        assert code == 1
        assert err.startswith("error: Unable to allocate")

    @pytest.mark.parametrize(
        "hi, samples",
        [
            # past numpy's largest dimension
            ("1e30", "4000000000000000079538499354629"),
            # a dimension numpy takes, but a byte size past its index range
            ("1e17", "400000000000000005"),
        ],
    )
    def test_unallocatable_grid_is_a_computational_failure(self, hi, samples, tmp_path, capsys):
        code, out, err = run(
            capsys, "basis", "[1,1]", "--level", "2", "--interval", "-1", hi,
            "--out", str(tmp_path / "D"),
        )
        assert code == 1
        assert out == ""
        assert err == f"error: 2 basis rows of {samples} samples are more than an array can hold\n"
        assert not (tmp_path / "D").exists()


class TestVerifyCommand:
    def test_passes_on_half_with_dependency(self, capsys):
        code, out, _ = run(capsys, "verify", HALF, "--level", "8")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        names = [c["name"] for c in doc["checks"]]
        assert "dependency-witness" in names
        assert all(c["passed"] for c in doc["checks"])

    @pytest.mark.parametrize("tolerance", ["-1", "0", "nan", "inf"])
    def test_rejects_meaningless_tolerance(self, tolerance, capsys):
        code, out, err = run(capsys, "verify", HALF, "--level", "4", "--tolerance", tolerance)
        assert code == 2
        assert out == ""
        assert "error: --tolerance" in err

    @pytest.mark.filterwarnings("ignore::refinable.MaskSumWarning")
    def test_computational_failure_exits_one(self, capsys):
        # no eigenvalue 1: phi cannot be normalized, a computational failure
        code, _, err = run(capsys, "verify", '["1/2", "1/2"]', "--level", "4")
        assert code == 1
        assert "error:" in err


class TestInputErrors:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "spectrum", "no/such/file.json")
        assert code == 2
        assert "cannot read" in err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2,")
        code, _, err = run(capsys, "spectrum", str(path))
        assert code == 2
        assert "not valid JSON" in err

    @pytest.mark.parametrize("text, kind", [("42", "a number"), ("null", "null"), ('"[1, 1]"', "a string")])
    def test_json_that_is_neither_object_nor_array(self, text, kind, tmp_path, capsys):
        path = tmp_path / "scalar.json"
        path.write_text(text)
        code, out, err = run(capsys, "spectrum", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}: mask document must be a JSON object or array, not {kind}\n"

    def test_mask_too_short(self, capsys):
        code, _, err = run(capsys, "spectrum", "[1]")
        assert code == 2

    def test_zero_corner_coefficient(self, capsys):
        code, _, err = run(capsys, "spectrum", "[0, 1, 1]")
        assert code == 2

    @pytest.mark.parametrize("huge", ['"1e400"', str(10**400)])
    def test_coefficient_beyond_float_range(self, huge, capsys):
        # exact, but with no float copy: an input error, not a traceback
        code, out, err = run(capsys, "spectrum", f'["1/4", "3/4", "3/4", {huge}]')
        assert code == 2
        assert out == ""
        assert "coefficient 3" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "mask, position", [('["1e-400", "1", "1"]', 0), ('["1/2", "1e-400", "1", "1/2"]', 1)]
    )
    def test_exact_coefficient_that_rounds_to_zero(self, mask, position, capsys):
        # nonzero, but its float copy is 0.0: an input error that names it
        code, out, err = run(capsys, "spectrum", mask)
        assert code == 2
        assert out == ""
        assert f"coefficient {position} is too small" in err and "Traceback" not in err


SUM_WARNING = "warning: mask coefficients sum to {}, not 2; continuing (scale is a free choice)\n"
TINY_C0 = '["1/1000000000000000000000", "2"]'


class TestWarnings:
    # a package warning is one line on stderr, with no source location, and
    # a real sum reads as a real number
    @pytest.mark.parametrize(
        "mask, total",
        [("[1, 1, 1]", "3"), ('{"coefficients": [1, 1, 1]}', "3"), ("[0.5, 0.5, 0.5]", "1.5")],
    )
    def test_sum_warning_is_one_line(self, mask, total, capsys):
        code, out, err = run(capsys, "spectrum", mask)
        assert code == 0
        assert json.loads(out)["mask"]["degree"] == 2
        assert err == SUM_WARNING.format(total)

    def test_rational_sum_warning_is_the_exact_sum(self, capsys):
        # in floats this sum reads as 2
        code, _, err = run(capsys, "spectrum", TINY_C0)
        assert code == 0
        assert err == SUM_WARNING.format("2000000000000000000001/1000000000000000000000")

    def test_sum_warning_comes_before_the_error(self, capsys):
        code, _, err = run(capsys, "verify", '["1/2", "1/2"]', "--level", "4")
        assert code == 1
        first, second = err.splitlines(keepends=True)
        assert first == SUM_WARNING.format("1")
        assert second.startswith("error: ")


class TestArgumentParsing:
    # argparse's own refusals, help and version return their exit code from
    # main, as every other usage error does, instead of raising SystemExit
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["spectrum", BSPLINE3, "--interval", "-1", "1"], "error: unrecognized arguments: --interval -1 1"),
            (["basis", BSPLINE3, "--level", "2.5"], "error: argument --level: invalid int value: '2.5'"),
            (["frobnicate", BSPLINE3], "error: argument command: invalid choice: 'frobnicate'"),
        ],
        ids=["flag-not-taken", "non-integer-level", "unknown-subcommand"],
    )
    def test_refused_command_line_returns_two(self, argv, message, capsys):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("usage: refinable")
        assert message in err

    def test_version_and_help_return_zero(self, capsys):
        assert run(capsys, "--version") == (0, f"refinable {__version__}\n", "")
        code, out, err = run(capsys, "verify", "--help")
        assert (code, err) == (0, "")
        assert out.startswith("usage: refinable verify")


@pytest.fixture(scope="module")
def script():
    """argv prefix that launches the `refinable` entry point in a fresh
    process: the installed console script when it is on PATH, otherwise
    `python -m refinable.cli`, which runs the same `main`."""
    if tomllib is not None:
        with PYPROJECT.open("rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts["refinable"] == "refinable.cli:main"
    path = shutil.which("refinable")
    if path:
        return [path]
    return [sys.executable, "-m", "refinable.cli"]


class TestConsoleScript:
    def test_version(self, script):
        proc = subprocess.run(
            [*script, "--version"],
            capture_output=True,
            text=True,
            env=subprocess_env(),
            check=True,
        )
        assert proc.stdout.strip() == f"refinable {__version__}"

    def test_unknown_subcommand_is_usage_error(self, script):
        proc = subprocess.run(
            [*script, "frobnicate", "[1, 1]"],
            capture_output=True,
            text=True,
            env=subprocess_env(),
        )
        assert proc.returncode == 2

    def test_sum_warning_bytes(self, script):
        proc = subprocess.run(
            [*script, "spectrum", "[1,1,1]"],
            capture_output=True,
            env=subprocess_env(),
            check=True,
        )
        assert proc.stderr == SUM_WARNING.format("3").encode()

    def test_reports_are_byte_identical_across_processes(self, script):
        # byte-determinism across two fresh processes, the trailing newline
        # and the absence of \r
        d4 = "[0.6830127018922193, 1.1830127018922193, 0.3169872981077807, -0.1830127018922193]"
        outputs = []
        for _ in range(2):
            proc = subprocess.run(
                [*script, "spectrum", d4],
                capture_output=True,
                env=subprocess_env(),
                check=True,
            )
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assert outputs[0].endswith(b"\n")
        assert b"\r" not in outputs[0]

    def test_report_files_do_not_depend_on_the_locale(self, script, tmp_path):
        # under the C locale, with neither coercion nor UTF-8 mode, the
        # name's bytes reach Python as surrogates; the files must still be
        # the UTF-8 bytes of a default run, read back from a file as well
        mask = '{"name": "café", "coefficients": [1, 1]}'
        (tmp_path / "mask.json").write_bytes(mask.encode("utf-8"))
        c_locale = subprocess_env(LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
        runs = {}
        for name, env, source in (
            ("default", subprocess_env(), mask),
            ("c", c_locale, mask),
            ("c_file", c_locale, str(tmp_path / "mask.json")),
        ):
            out = tmp_path / name
            for argv in (["spectrum", source], ["basis", source, "--level", "2"]):
                proc = subprocess.run([*script, *argv, "--out", str(out)], capture_output=True, env=env)
                assert (proc.returncode, proc.stderr) == (0, b""), (name, argv[0], proc.stderr)
            runs[name] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert "café".encode("utf-8") in runs["default"]["spectrum.json"]
        assert runs["c"] == runs["c_file"] == runs["default"]

    def test_repeated_calls_in_one_process_match_fresh_processes(self, script, tmp_path, capsys):
        # main keeps one parser for the process; a usage error and then
        # each subcommand must print and write what a fresh process does
        runs = [
            ("usage", ["basis", BSPLINE3, "--level", "x", "--out", "{out}"]),
            ("spectrum", ["spectrum", BSPLINE3]),
            ("verify", ["verify", BSPLINE3, "--level", "6"]),
            ("basis", ["basis", BSPLINE3, "--level", "4", "--out", "{out}"]),
        ]

        def argv(args, out):
            return [str(out) if a == "{out}" else a for a in args]

        def files(out):
            return {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}

        codes = []
        for name, args in runs:
            out = tmp_path / "in_process" / name
            code = main(argv(args, out))
            codes.append(code)
            captured = capsys.readouterr()
            fresh_out = tmp_path / "fresh" / name
            proc = subprocess.run(
                [*script, *argv(args, fresh_out)], capture_output=True, text=True, env=subprocess_env()
            )
            assert (code, captured.out, captured.err) == (proc.returncode, proc.stdout, proc.stderr), name
            assert files(out) == files(fresh_out), name
        assert codes == [2, 0, 0, 0]


class TestPackageMetadata:
    def test_declared_dependencies_match_the_imports(self):
        if tomllib is None:
            pytest.skip("tomllib needs Python 3.11")
        with PYPROJECT.open("rb") as fh:
            declared = tomllib.load(fh)["project"]["dependencies"]
        declared = {re.match(r"[A-Za-z0-9_.-]+", d).group() for d in declared}
        imported = set()
        for path in (ROOT / "src" / "refinable").glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    imported.update(alias.name.split(".")[0] for alias in node.names)
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    imported.add(node.module.split(".")[0])
        third_party = imported - set(sys.stdlib_module_names) - {"refinable"}
        assert third_party == declared
