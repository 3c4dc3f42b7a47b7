"""Correctness gate: compare each job's output with the recorded reference.

``facts`` reduces one job's output to the fields the gate checks.  Exact
fields (exit code, exact eigenvalues, Jordan structure, accuracy order,
independence and battery verdicts, grid sizes) must match exactly.  Float
fields (eigenvalues, sampled function values) must match within ``RTOL``
of their scale, so a reordered float sum does not count as a failure.
Residuals, tolerances and condition numbers sit at rounding level and
are not gated; ``check_ratios`` records the battery's residual/tolerance
ratio of every check so that a borderline verdict can be diagnosed.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

RTOL = 1e-6
# Fractions of a sample file's length at which values are compared.
SAMPLE_AT = (0.125, 0.375, 0.625, 0.875)


def _floats(values, scale) -> dict:
    return {"v": [float(f"{x:.12g}") for x in values], "scale": float(f"{scale:.12g}")}


def _eigenvalues(items) -> dict:
    flat = [x for z in items for x in (z["re"], z["im"])]
    return _floats(flat, max([1.0] + [abs(complex(z["re"], z["im"])) for z in items]))


def _spectrum(doc: dict) -> tuple[dict, dict]:
    exact = {
        "exact_mode": doc["exact_mode"],
        "jordan_canonical": doc["jordan_canonical"],
        "conventions": [doc["convention_first"], doc["convention_last"]],
        "groups": [
            [g["exact_eigenvalue"], g["algebraic"], g["geometric"], g["chain_lengths"]]
            for g in doc["groups"]
        ],
        "rows": [[r["kind"], r["chain"], r["position"], r["prev_row"]] for r in doc["rows"]],
        "accuracy": doc["accuracy"]["order"],
        "exact_polynomials": doc["accuracy"]["exact_polynomials"],
        "independence": {k: v for k, v in doc["independence"].items() if k != "diagnostic"},
    }
    return exact, {"eigenvalues": _eigenvalues([g["eigenvalue"] for g in doc["groups"]])}


def _samples(text: str) -> np.ndarray:
    body = text.split("\n", 1)[1].replace(",", " ")
    return np.array(body.split(), dtype=float).reshape(-1, 3)


def _basis(out: Path) -> tuple[dict, dict]:
    doc = json.loads((out / "basis.json").read_text())
    exact = {
        "level": doc["level"],
        "interval": doc["interval"],
        "rows": [[r["row"], r["file"], r["order"]] for r in doc["rows"]],
    }
    floats = {"eigenvalues": _eigenvalues([r["eigenvalue"] for r in doc["rows"]])}
    for name in ["phi.csv"] + [r["file"] for r in doc["rows"]]:
        table = _samples((out / name).read_text())
        exact[name] = [len(table), float(table[0, 0]), float(table[-1, 0])]
        z = table[:, 1] + 1j * table[:, 2]
        picks = z[[int(f * (len(z) - 1)) for f in SAMPLE_AT]]
        norms = [float(np.linalg.norm(table[:, 1])), float(np.linalg.norm(table[:, 2]))]
        floats[name] = _floats(
            [x for p in picks for x in (p.real, p.imag)] + norms,
            max(float(np.abs(z).max()), norms[0], norms[1], 1e-300),
        )
    return exact, floats


def _verify(doc: dict) -> tuple[dict, dict]:
    exact = {"passed": doc["passed"], "checks": [[c["name"], c["passed"]] for c in doc["checks"]]}
    return exact, {}


def facts(command: str, rc: int, out: Path, stdout: str) -> dict:
    """The gated fields of one job's output."""
    if command == "spectrum":
        exact, floats = _spectrum(json.loads((out / "spectrum.json").read_text()))
    elif command == "basis":
        exact, floats = _basis(out)
    else:
        exact, floats = _verify(json.loads(stdout))
    exact["exit"] = rc
    return {"exact": exact, "float": floats}


def mismatches(ref: dict, got: dict) -> list[str]:
    """Human-readable differences; empty when the job matches its reference."""
    out = []
    for key in sorted(set(ref["exact"]) | set(got["exact"])):
        if ref["exact"].get(key) != got["exact"].get(key):
            out.append(f"{key}: {got['exact'].get(key)!r} != reference {ref['exact'].get(key)!r}")
    for key in sorted(set(ref["float"]) | set(got["float"])):
        a, b = got["float"].get(key), ref["float"].get(key)
        if a is None or b is None or len(a["v"]) != len(b["v"]):
            out.append(f"{key}: missing or resized")
            continue
        worst = max((abs(x - y) for x, y in zip(a["v"], b["v"])), default=0.0)
        if worst > RTOL * b["scale"]:
            out.append(f"{key}: differs by {worst:.3g} (scale {b['scale']:.3g})")
    return out


def check_ratios(stdout: str) -> dict[str, float | None]:
    """residual / tolerance of every battery check in a verify report."""
    out = {}
    for c in json.loads(stdout)["checks"]:
        res, tol = c["residual"], c["tolerance"]
        out[c["name"]] = res / tol if res is not None and tol else None
    return out
