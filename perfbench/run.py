"""cdindex benchmark: one workload, one seed, a fixed time; checked answers.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 28 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  Workloads are closed loops (one client, one process, no threads)
that play whole rounds of operations until ``--seconds`` have passed.  The
last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` the run first measures untraced for half
the time, then wraps every layer and reports per-layer numbers per round.
See perfbench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import types
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
MODULES = ("poset", "cdpoly", "flags", "recursion", "operators", "homology", "kernel", "cli")
# The untraced run sets up again between operations, with the loop's clock
# stopped; setup_s is the median of all set-ups.  The machine's speed
# changes by up to half within seconds, so set-ups taken back to back all
# land in one fast or slow spell; spread over the run, they see the same
# mix of spells as the operations do.  After a set-up the loop runs for
# SETUP_GAP times its duration, and at least MIN_SETUP_GAP_S, before the
# next one.  Set-ups then add about 8% to a run's wall time whatever they take,
# and cheap ones are taken more often: about 50 of cli_mix's 40 ms, about 10
# of cd_index's 0.25 s.
SETUP_GAP = 12
MIN_SETUP_GAP_S = 0.5

import tracing  # noqa: E402  (sibling modules of this script)
import workloads  # noqa: E402


def import_cdindex():
    """A fresh import of the package, so set-up time includes it."""
    for key in [k for k in sys.modules if k == "cdindex" or k.startswith("cdindex.")]:
        del sys.modules[key]
    ns = types.SimpleNamespace(cd=importlib.import_module("cdindex"))
    for name in MODULES:
        setattr(ns, name, importlib.import_module(f"cdindex.{name}"))
    return ns


class Measurement:
    def __init__(self):
        self.latencies = []
        self.failures = []
        self.rounds = 0
        self.wall = 0.0

    @property
    def ops_per_s(self):
        return len(self.latencies) / self.wall


def measure(pool, seconds, tracer=None, set_up_again=None):
    """Play whole rounds until ``seconds`` have passed; time every operation.

    ``set_up_again``, if given, runs between operations, spaced as set out
    at SETUP_GAP; its time is left out of ``seconds`` and of the run's wall
    time.
    """
    res = Measurement()
    start = perf_counter()
    paused = 0.0
    next_setup = start + MIN_SETUP_GAP_S
    while True:
        for op in pool[res.rounds % len(pool)]:
            if set_up_again is not None and perf_counter() >= next_setup:
                t0 = perf_counter()
                set_up_again()
                t1 = perf_counter()
                next_setup = t1 + max(MIN_SETUP_GAP_S, SETUP_GAP * (t1 - t0))
                paused += t1 - t0
            t0 = perf_counter()
            if tracer is not None:
                tracer.begin_op(op.name, t0)
            try:
                err = op.run()
            except Exception as exc:  # an escaping exception is a failed operation
                err = f"{type(exc).__name__}: {exc}"
            t1 = perf_counter()
            if tracer is not None:
                tracer.end_op(t1)
            res.latencies.append(t1 - t0)
            if err is not None:
                res.failures.append(f"{op.name}: {err}")
        res.rounds += 1
        if perf_counter() - start - paused >= seconds:
            break
    res.wall = perf_counter() - start - paused
    return res


def tail(latencies, percentile):
    """Latency at ``percentile`` by nearest rank, and how many samples lie
    beyond it."""
    ordered = sorted(latencies)
    rank = max(1, -(-len(ordered) * percentile // 100))
    return ordered[rank - 1], len(ordered) - rank


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, res, setup_s):
    pct = workloads.TAIL_PERCENTILE[workload]
    tail_s, beyond = tail(res.latencies, pct)
    n = len(res.latencies)
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "ops_per_s": metric(res.ops_per_s, "1/s"),
        "op_p50_ms": metric(statistics.median(res.latencies) * 1e3, "ms"),
        "op_tail_ms": metric(tail_s * 1e3, "ms"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }
    note = " (fewer than ten: too few operations in a run)" if beyond < 10 else ""
    lines = [
        f"failed_frac {len(res.failures) / n:.6g} ({len(res.failures)} of {n})",
        f"op_tail_ms is p{pct} of {n} samples, {beyond} beyond it{note}",
    ]
    return metrics, lines


def per_layer(workload, m, tracer, untraced, traced):
    totals = tracer.aggregate()
    rounds = traced.rounds
    metrics = {}
    for name, unit, _ in tracing.per_layer_names():
        fn, _, field = name.rpartition(".")
        if name in tracer.counters:
            value = tracer.counters[name] / rounds
        elif field in ("calls", "busy_s", "self_s", "raised") and fn in totals:
            value = totals[fn][field] / rounds
        elif name == "trace.overhead_ops_per_s":
            value = untraced.ops_per_s - traced.ops_per_s
        else:
            value = 0
        metrics[name] = metric(value, unit)

    coverage = tracer.coverage(workload)
    ok = coverage >= tracing.MIN_COVERAGE
    overhead = 1 - traced.ops_per_s / untraced.ops_per_s
    lines = [
        f"per-layer values are per round ({rounds} traced rounds, {len(traced.latencies)} ops)",
        f"tracing overhead: {untraced.ops_per_s:.6g} ops/s untraced, "
        f"{traced.ops_per_s:.6g} traced ({overhead:+.1%})",
        f"check top-level spans cover {coverage:.1%} of op wall time "
        f"(need {tracing.MIN_COVERAGE:.0%}): {'ok' if ok else 'FAILED'}",
    ]
    if tracer.missing:
        lines.append(f"not found, not wrapped: {', '.join(tracer.missing)}")
    if workload == "certify":
        # the layers ROADMAP items 3 and 4 work on must record something
        for fn in ("kernel.sparse_rank", "homology.reduced_homology"):
            t = totals.get(fn, {"calls": 0, "busy_s": 0.0})
            recorded = t["calls"] > 0 and t["busy_s"] > 0
            ok = ok and recorded
            lines.append(f"check {fn} records calls and time: "
                         f"{'ok' if recorded else 'FAILED'}")
        op_time = sum(end - start for _, start, end in tracer.ops)
        share = totals.get("kernel.sparse_rank", {}).get("busy_s", 0.0) / op_time
        lines.append(f"kernel.sparse_rank carries {share:.1%} of certify op time "
                     "(ROADMAP: about three quarters)")
        name = "pyramid(simplex_fan(5))"
        p = workloads.POSETS[name](m)
        pairs = sum(len(p.up_set(x)) - 1 for x in p.elements())
        calls = tracer.per_op("homology.reduced_homology")
        seen = sorted({calls.get(i, 0) for i, op in enumerate(tracer.ops) if op[0] == name})
        lines.append(f"homology.reduced_homology calls per {name}: {seen} "
                     f"(comparable pairs x < y: {pairs})")
    return metrics, ok, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "cdindex", "__init__.py")):
        print(f"error: no cdindex sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    # pure-Python speed is what counts; the compiled kernel is not a baseline
    os.environ["CDINDEX_PURE_KERNEL"] = "1"
    sys.path.insert(0, SRC)

    ref = workloads.load_reference(BENCH_DIR)
    workdir = os.path.join(OUT_DIR, f"{args.workload}-{os.getpid()}")
    try:
        setup_times = []

        def set_up(into):
            t0 = perf_counter()
            m = import_cdindex()
            pool = workloads.setup(args.workload, m, args.seed, ref, into)
            setup_times.append(perf_counter() - t0)
            return m, pool

        def set_up_again():
            """Time one more set-up; the loop keeps the modules and inputs it has.

            Each set-up writes its files into a new directory, as the first
            one does: rewriting files just written can wait on the disk.
            """
            loaded = {k: v for k, v in sys.modules.items() if k.split(".")[0] == "cdindex"}
            gc.collect()  # every set-up starts from the same heap
            set_up(os.path.join(workdir, f"again-{len(setup_times)}"))
            sys.modules.update(loaded)
            gc.collect()  # the discarded modules and inputs, not during an operation

        m, pool = set_up(workdir)

        env = {
            "kernel_impl": m.kernel.IMPL,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "seed": args.seed,
            "workload": args.workload,
            "trace": args.trace,
        }
        print("env " + json.dumps(env, sort_keys=True))
        # outside the timed loop and before any wrapper is installed
        probe = workloads.probe_defect_5a(m, workdir) if args.workload == "cli_mix" else None

        correct = True
        if args.trace:
            untraced = measure(pool, args.seconds / 2)
            tracer = tracing.Tracer()
            tracer.install()
            res = measure(pool, args.seconds / 2, tracer)
            metrics, ok, lines = per_layer(args.workload, m, tracer, untraced, res)
            correct = ok
            os.makedirs(OUT_DIR, exist_ok=True)
            trace_path = os.path.join(OUT_DIR, f"trace-{args.workload}.json")
            tracer.write(trace_path, {"env": env, "rounds": res.rounds})
            lines.append(f"spans written to {os.path.relpath(trace_path, ROOT)}")
            failures = untraced.failures + res.failures
            attempted = len(untraced.latencies) + len(res.latencies)
        else:
            res = measure(pool, args.seconds, set_up_again=set_up_again)
            metrics, lines = end_to_end(args.workload, res, statistics.median(setup_times))
            lines.insert(0, f"setup_s is the median of {len(setup_times)} set-ups")
            failures = res.failures
            attempted = len(res.latencies)
        if probe is not None:
            lines.append(f"known defect 5a (top-level JSON list): {probe}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"{args.workload}: {len(res.latencies)} ops, {res.rounds} rounds in {res.wall:.3f} s"
          + (" (traced phase)" if args.trace else ""))
    for line in lines:
        print(line)
    for name, v in metrics.items():
        print(f"  {name} = {v['value']:.6g} {v['unit']}")
    for failure in failures[:10]:
        print(f"FAILED {failure}", file=sys.stderr)
    correct = correct and not failures
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
