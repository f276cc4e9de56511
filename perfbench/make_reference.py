"""Regenerate perfbench/reference.json, the answers the benchmark checks.

    python3 perfbench/make_reference.py

Every answer is computed on the unlabelled input and again on two relabelled
copies, and must be the same on all three, so it holds under every seed.
cd-indices must agree across the three methods.  Run it only when the
library's answers are meant to change; the benchmark never writes it.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import sys

from run import BENCH_DIR, OUT_DIR, SRC, import_cdindex
import workloads as w


def label_invariant(m, name, answer):
    """answer(poset) on the input and on two relabelled copies; all equal."""
    p = w.POSETS[name](m)
    values = [answer(p)] + [answer(w.relabel(m, p, random.Random(s))) for s in (1, 2)]
    if any(v != values[0] for v in values):
        raise SystemExit(f"{name}: answer depends on element ids: {values}")
    return values[0]


def cd_index(m, p):
    ix = [m.flags.cd_index_flag(p), m.recursion.cd_index_stanley(p),
          m.operators.cd_index_operator(p)]
    if not ix[0] == ix[1] == ix[2]:
        raise SystemExit(f"methods disagree: {ix}")
    return str(ix[0])


def cli_answers(m, name, workdir):
    def answer(p):
        path = os.path.join(workdir, "input.json")
        with open(path, "w") as fh:
            fh.write(p.dumps() + "\n")
        out = {}
        for request, args in w.CLI_REQUESTS.items():
            code, stdout = w.cli_call(m.cli, args[:1] + ["--input", path] + args[1:])
            out[request] = {"exit": code, "out": w.normalize_cli(request, stdout)}
        return out

    return label_invariant(m, name, answer)


def main():
    os.environ["CDINDEX_PURE_KERNEL"] = "1"
    sys.path.insert(0, SRC)
    m = import_cdindex()
    ref = {"posets": {}, "cli": {}}
    for name in w.CERTIFY_MEMBERS + w.CERTIFY_CONTROLS:
        cert = label_invariant(
            m, name, lambda p: w.certificate_summary(m.homology.is_gorenstein_star(p).to_json())
        )
        ref["posets"][name] = {"certificate": cert}
        print(name, cert, flush=True)
    for name, _ in w.CD_INDEX_ROUND:
        ref["posets"][name] = {"cd_index": label_invariant(m, name, lambda p: cd_index(m, p))}
        print(name, ref["posets"][name]["cd_index"], flush=True)
    workdir = os.path.join(OUT_DIR, f"reference-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        for name in w.CLI_FILES:
            ref["cli"][name] = cli_answers(m, name, workdir)
            print(name, {k: v["exit"] for k, v in ref["cli"][name].items()}, flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    code, stdout = w.cli_call(m.cli, ["report", "--json"])
    ref["cli"]["report"] = {"exit": code, "out": w.normalize_cli("report", stdout)}
    with open(os.path.join(BENCH_DIR, "reference.json"), "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
