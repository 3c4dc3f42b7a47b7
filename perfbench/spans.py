"""Spans around the package's public functions, recorded from outside it.

``Tracer`` replaces each function in ``TARGETS`` by a wrapper on its module
and on every ``refinable`` module that imported it by name, so calls
through ``xq.*``, ``kernels.*``, module globals and ``from .x import y``
names all pass through a wrapper.  Spans stay in memory as (name, start,
end, parent, job) and are written out when the run ends.  A span's self
time is its duration minus the time covered by its child spans.

Counters are computed where the work happens, from the arguments and the
result of a call: rows and bytes of the report writers, samples of the
translate synthesis, points and bytes of the cascade kernel (bytes are
computed from array sizes, not measured), indices of the extension
recurrences, and exact attempts and fallbacks of ``eigen_structure``.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

TARGETS = {
    "cli": ("main",),
    "mask": ("build_scale_matrices",),
    "spectral": (
        "eigen_structure",
        "accuracy",
        "independence_test",
        "spectrum_of",
        "minimal_order",
    ),
    "exact": ("rational_roots", "charpoly", "mat_mul", "nullspace", "rank", "inverse"),
    "numeric": ("nullspace", "cluster_scalars"),
    "diffeq": ("difference_system", "solve_system"),
    "extension": ("eigen_extend", "kernel_of_L"),
    "kernels": ("refine_level", "extend_forward", "extend_backward", "subdivision_window"),
    "evaluate": (
        "evaluate_phi",
        "build_homogeneous_basis",
        "extend_vector",
        "homogeneity_residual",
        "reconstruct_phi",
        "verify_dependency",
    ),
    "verify": ("run_battery",),
    "report": ("dump_csv", "dump_json"),
}

COUNTERS = (
    "report.csv_rows",
    "report.bytes_out",
    "evaluate.samples_synthesized",
    "kernels.refine_points",
    "kernels.refine_bytes",
    "kernels.extend_indices",
    "spectral.exact_attempts",
    "spectral.exact_hits",
    "spectral.exact_fallbacks",
)


def _is_rational(source) -> bool:
    mask = getattr(source, "scale", source)
    mask = getattr(mask, "mask", mask)
    return bool(getattr(mask, "is_rational", False))


def _count_csv(c, args, kwargs, result):
    c["report.csv_rows"] += len(args[0])
    c["report.bytes_out"] += len(result)


def _count_json(c, args, kwargs, result):
    c["report.bytes_out"] += len(result)


def _count_basis(c, args, kwargs, result):
    c["evaluate.samples_synthesized"] += sum(len(f.values) for f in result.functions)


def _count_dependency(c, args, kwargs, result):
    lo, hi = result.interval
    c["evaluate.samples_synthesized"] += (hi - lo) * 2**result.level + 1


def _count_refine(c, args, kwargs, result):
    prev, coeffs = args[0], args[1]
    c["kernels.refine_points"] += len(result)
    c["kernels.refine_bytes"] += prev.nbytes + coeffs.nbytes + result.nbytes


def _count_extend(c, args, kwargs, result):
    c["kernels.extend_indices"] += abs(args[3] - args[2])


def _count_spectral(c, args, kwargs, result):
    if _is_rational(args[0]) and kwargs.get("exact") is not False:
        c["spectral.exact_hits"] += bool(result.is_exact)
        c["spectral.exact_fallbacks"] += not result.is_exact


def _attempt_spectral(c, args, kwargs):
    if _is_rational(args[0]) and kwargs.get("exact") is not False:
        c["spectral.exact_attempts"] += 1


AFTER = {
    "report.dump_csv": _count_csv,
    "report.dump_json": _count_json,
    "evaluate.build_homogeneous_basis": _count_basis,
    "evaluate.verify_dependency": _count_dependency,
    "kernels.refine_level": _count_refine,
    "kernels.extend_forward": _count_extend,
    "kernels.extend_backward": _count_extend,
    "spectral.eigen_structure": _count_spectral,
}
BEFORE = {"spectral.eigen_structure": _attempt_spectral}


class Tracer:
    """Context manager that installs the wrappers and collects spans."""

    def __init__(self):
        self.spans: list = []
        self.counters: dict[str, int] = defaultdict(int)
        self.job = -1
        self._stack: list[int] = []
        self._undo: list = []

    def begin_job(self, job: int) -> None:
        self.job = job
        self._stack = []

    def _wrap(self, name: str, fn):
        spans, counters = self.spans, self.counters
        before, after = BEFORE.get(name), AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            if before is not None:
                before(counters, args, kwargs)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                if stack and stack[-1] == idx:
                    stack.pop()
                spans[idx] = (name, start, end, parent, self.job)
            if after is not None:
                after(counters, args, kwargs, result)
            return result

        return traced

    def __enter__(self):
        import refinable

        modules = [m for k, m in sys.modules.items() if k == "refinable" or k.startswith("refinable.")]
        for mod_name, names in TARGETS.items():
            module = getattr(refinable, mod_name)
            for fn_name in names:
                original = getattr(module, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._undo.append((mod, attr, original))
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()
        return False

    def summary(self) -> dict[str, float]:
        """``<name>.self_s`` and ``<name>.calls`` per target plus counters."""
        child = defaultdict(float)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        out: dict[str, float] = {}
        for mod_name, names in TARGETS.items():
            for fn_name in names:
                out[f"{mod_name}.{fn_name}.self_s"] = 0.0
                out[f"{mod_name}.{fn_name}.calls"] = 0
        for idx, span in enumerate(self.spans):
            if span is None:
                continue
            name, start, end = span[0], span[1], span[2]
            out[f"{name}.self_s"] += end - start - child[idx]
            out[f"{name}.calls"] += 1
        for key in COUNTERS:
            out[key] = self.counters[key]
        attempts = self.counters["spectral.exact_attempts"]
        out["spectral.exact_hit_ratio"] = self.counters["spectral.exact_hits"] / attempts if attempts else 0.0
        return out

    def write(self, path) -> None:
        """One JSON line per span: [name, start, end, parent, job]."""
        with open(path, "w") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span, separators=(",", ":")) + "\n")
