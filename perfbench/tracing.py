"""Spans around the public functions of each cdindex module, from outside.

The benchmark wraps each function once and installs the wrapper in every
namespace that holds the original: the defining module, modules that
imported the name (``cli.is_gorenstein_star``, ``flags.to_cd``) and module
dicts that captured it (``cli._METHODS``).  A span records its name, start,
end, parent span and operation; spans stay in memory and are written out
when the run ends.  Self time is a span's duration minus its children's.

Only the traced run installs wrappers; the untraced run measures the
library as shipped.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

# module -> public functions wrapped, named <module>.<function> in the output
LAYERS = {
    "cli": ("main", "build_parser", "load_input", "cmd_compute", "cmd_check",
            "cmd_report", "parse_corpus"),
    "poset": ("from_json", "is_eulerian", "build_family", "build_pyramid",
              "barycentric"),
    "flags": ("cd_index_flag", "flag_f", "flag_h", "verify_duality"),
    "cdpoly": ("to_cd", "phi_expand"),
    "recursion": ("cd_index_stanley",),
    "operators": ("cd_index_operator", "eval_cd_monomial", "op_C", "op_D", "op_E"),
    "homology": ("is_gorenstein_star", "reduced_homology"),
    "kernel": ("sparse_rank",),
}

# per workload, the functions its operations call directly; their spans must
# cover the operation wall time
TOP_LEVEL = {
    "certify": ("homology.is_gorenstein_star",),
    "cd_index": ("flags.cd_index_flag", "recursion.cd_index_stanley",
                 "operators.cd_index_operator"),
    "cd_algebra": ("cdpoly.phi_expand", "cdpoly.to_cd"),
    "cli_mix": ("cli.main",),
}
MIN_COVERAGE = 0.9


def per_layer_names():
    """Every per-layer metric the traced run prints, with unit and direction."""
    out = []
    for module, functions in LAYERS.items():
        for fn in functions:
            name = f"{module}.{fn}"
            out.append((f"{name}.calls", "count", "lower"))
            out.append((f"{name}.busy_s", "s", "lower"))
            out.append((f"{name}.self_s", "s", "lower"))
            out.append((f"{name}.raised", "count", "lower"))
    out.append(("kernel.sparse_rank.nnz", "count", "lower"))
    out.append(("homology.faces", "count", "lower"))
    out.append(("trace.overhead_ops_per_s", "1/s", "lower"))
    return out


def _count_nnz(counters, args):
    entries = args[0] if args else ()
    counters["kernel.sparse_rank.nnz"] += len(entries) if hasattr(entries, "__len__") else 0


def _count_faces(counters, args):
    # runs after the call, so the face lists are already built and cached
    if args:
        counters["homology.faces"] += sum(args[0].num_faces())


COUNTERS = {"kernel.sparse_rank": _count_nnz, "homology.reduced_homology": _count_faces}


class Tracer:
    """In-memory spans of one traced run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, op index, raised]
        self.stack = []
        self.ops = []  # [input name, start, end]
        self.counters = {name: 0 for name in ("kernel.sparse_rank.nnz", "homology.faces")}
        self.missing = []

    def _wrap(self, name, fn):
        spans, stack, ops, counters = self.spans, self.stack, self.ops, self.counters
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, len(ops) - 1, False]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count is not None:
                count(counters, args)
            return result

        return traced

    def install(self, package="cdindex"):
        """Wrap every function in LAYERS wherever the package refers to it."""
        modules = [
            mod for key, mod in sys.modules.items()
            if mod is not None and (key == package or key.startswith(package + "."))
        ]
        for module, functions in LAYERS.items():
            home = sys.modules.get(f"{package}.{module}")
            for fn_name in functions:
                orig = getattr(home, fn_name, None)
                if not callable(orig):
                    self.missing.append(f"{module}.{fn_name}")
                    continue
                wrapper = self._wrap(f"{module}.{fn_name}", orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapper)
                        elif isinstance(value, dict):
                            for k, v in list(value.items()):
                                if v is orig:
                                    value[k] = wrapper

    def begin_op(self, name, start):
        self.ops.append([name, start, start])

    def end_op(self, end):
        self.ops[-1][2] = end

    def aggregate(self):
        """Totals per function: calls, busy time, self time, raises."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {}
        for i, (name, start, end, parent, _, raised) in enumerate(self.spans):
            t = totals.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "raised": 0})
            t["calls"] += 1
            t["self_s"] += end - start - child[i]
            t["raised"] += raised
            # busy time is the union of the function's spans: skip a span
            # nested inside another span of the same function
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                t["busy_s"] += end - start
        return totals

    def per_op(self, name):
        """Calls of one function in each operation, as {op index: count}."""
        out = {}
        for span in self.spans:
            if span[0] == name:
                out[span[4]] = out.get(span[4], 0) + 1
        return out

    def coverage(self, workload):
        """Share of the operation wall time inside top-level spans."""
        op_time = sum(end - start for _, start, end in self.ops)
        top = sum(
            end - start for name, start, end, parent, _, _ in self.spans
            if parent < 0 and name in TOP_LEVEL[workload]
        )
        return top / op_time if op_time else 0.0

    def write(self, path, header):
        t0 = self.ops[0][1] if self.ops else 0.0
        with open(path, "w") as fh:
            json.dump({
                **header,
                "ops": [[n, round(s - t0, 9), round(e - t0, 9)] for n, s, e in self.ops],
                "span_fields": ["name", "start_s", "end_s", "parent", "op", "raised"],
                "spans": [
                    [n, round(s - t0, 9), round(e - t0, 9), p, o, r]
                    for n, s, e, p, o, r in self.spans
                ],
                "counters": self.counters,
            }, fh, separators=(",", ":"))
