"""The four benchmark workloads: seeded inputs, rounds of operations, checks.

A workload is a pool of rounds.  A round is a fixed multiset of operations,
shuffled by the seed; the runner plays whole rounds, so every run sees the
same mix whatever its length.  One operation takes one input to a checked
answer: it returns None when the answer matches the reference, or a short
description of what was wrong.  Exceptions that escape count as failures
too; the runner catches them.

Inputs are rebuilt from the seed: element ids are permuted among themselves
(the library treats them as opaque), random cd-polynomials are drawn, and
the CLI files are written.  The library only ever sees those generated
inputs.  Every reference answer is label-invariant, so it holds under every
seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random

WORKLOADS = ("certify", "cd_index", "cd_algebra", "cli_mix")

# op_tail_ms percentile per workload: the highest of p50, p75, p90, p95 and
# p99 with at least ten samples beyond it in a 28-second run.  It is
# fixed, not recomputed from each run's sample count: machine speed moves
# that count by half, and a recomputed percentile would jump between groups
# of inputs.  certify holds too few operations for ten beyond any tail; its
# p90 is a pyramid(simplex_fan(5)) certification.
TAIL_PERCENTILE = {"certify": 90, "cd_index": 75, "cd_algebra": 95, "cli_mix": 99}

# Rounds kept per workload; round r of a run plays pool[r % POOL_ROUNDS], so
# consecutive rounds certify differently labelled copies of each input.
POOL_ROUNDS = 3


class Op:
    """One operation: ``run()`` returns None when the answer checks out."""

    __slots__ = ("name", "run")

    def __init__(self, name, run):
        self.name = name
        self.run = run


# -- inputs --------------------------------------------------------------------


def polygon_minus_facet(m):
    """polygon(4) with its maximal cone f4 removed (quasi-convex, not complete)."""
    p = m.poset.polygon(4)
    members = set(p.elements()) - {p.top, "f4"}
    return m.poset.induced_subposet(p, members, adjoin_top=True).poset


def pyramid_without_apex_star(m):
    """Square pyramid minus the open star of its apex (a 3-ball's faces)."""
    p = m.poset.build_pyramid(m.poset.polygon(4))
    members = set(p.proper_elements()) - m.poset.star(p, "a:_bot") | {p.bottom}
    return m.poset.induced_subposet(p, members, adjoin_top=True).poset


def _family(kind, param, pyramid=False, bary=False):
    def build(m):
        p = m.poset.build_family(kind, param)
        if pyramid:
            p = m.poset.build_pyramid(p)
        if bary:
            p = m.poset.barycentric(p).bposet
        return p

    return build


# name -> function that makes the poset from the imported modules; the
# names are the keys of reference.json
POSETS = {
    "pyramid(simplex_fan(5))": _family("simplex_fan", 5, pyramid=True),
    "pyramid(cube_fan(4))": _family("cube_fan", 4, pyramid=True),
    "pyramid(crosspoly_fan(4))": _family("crosspoly_fan", 4, pyramid=True),
    "chain(3)": _family("chain", 3),
    "polygon(4) minus f4": polygon_minus_facet,
    "pyramid(polygon(4)) minus apex star": pyramid_without_apex_star,
    "simplex_fan(7)": _family("simplex_fan", 7),
    "simplex_fan(8)": _family("simplex_fan", 8),
    "cube_fan(5)": _family("cube_fan", 5),
    "cube_fan(6)": _family("cube_fan", 6),
    "crosspoly_fan(5)": _family("crosspoly_fan", 5),
    "crosspoly_fan(6)": _family("crosspoly_fan", 6),
    "pyramid(cube_fan(5))": _family("cube_fan", 5, pyramid=True),
    "polygon(5)": _family("polygon", 5),
    "polygon(8)": _family("polygon", 8),
    "pyramid(polygon(4))": _family("polygon", 4, pyramid=True),
    "simplex_fan(3)": _family("simplex_fan", 3),
    "cube_fan(3)": _family("cube_fan", 3),
    "crosspoly_fan(3)": _family("crosspoly_fan", 3),
    "pyramid(simplex_fan(3))": _family("simplex_fan", 3, pyramid=True),
    "barycentric(polygon(3))": _family("polygon", 3, bary=True),
}

# certify: every round certifies the three heavy members and one negative
# control, a different one in each round of the pool.  With one control per
# round the median falls on a full certification, not on the boundary
# between full certifications and the early-exit controls.
CERTIFY_MEMBERS = (
    "pyramid(simplex_fan(5))",
    "pyramid(cube_fan(4))",
    "pyramid(crosspoly_fan(4))",
)
CERTIFY_CONTROLS = (
    "chain(3)",
    "polygon(4) minus f4",
    "pyramid(polygon(4)) minus apex star",
)

# cd_index: (input, copies per round).  The rank-5 fans appear four and five
# times, so the median is taken over many samples spread through the run,
# not over a handful of one input's.  pyramid(cube_fan(5)) appears three
# times: with 16 operations a round, p75 (rank 12 of 16) falls two thirds of
# the way into its samples, 15 to 20 of them a run, not on the edge between
# two inputs, where it would jump from one to the other.
CD_INDEX_ROUND = (
    ("simplex_fan(7)", 1),
    ("simplex_fan(8)", 1),
    ("cube_fan(5)", 4),
    ("cube_fan(6)", 1),
    ("crosspoly_fan(5)", 5),
    ("crosspoly_fan(6)", 1),
    ("pyramid(cube_fan(5))", 3),
)

# cd_algebra: degree -> (inputs per round, how many of them are perturbed).
# Perturbed inputs are drawn at degrees 6-8 only: where a perturbation is
# caught varies from a tenth to one and a half of a full solve, and at
# degrees 9-10 a single such input would swing a whole round.  Most inputs
# are of degree 6, so the median is taken over many accepted degree-6
# round trips, not at the edge of a smaller group.
CD_ALGEBRA_ROUND = {6: (24, 6), 7: (6, 1), 8: (4, 2), 9: (4, 0), 10: (1, 0)}

# cli_mix: well-formed files and the requests made on each of them
CLI_FILES = (
    "polygon(5)",
    "polygon(8)",
    "pyramid(polygon(4))",
    "simplex_fan(3)",
    "cube_fan(3)",
    "crosspoly_fan(3)",
    "pyramid(simplex_fan(3))",
    "barycentric(polygon(3))",
    "chain(3)",
    "polygon(4) minus f4",
)
CLI_REQUESTS = {
    "compute": ["compute", "--method", "all", "--json"],
    "eulerian": ["check", "--what", "eulerian"],
    "duality": ["check", "--what", "duality"],
    "gorenstein-star": ["check", "--what", "gorenstein-star"],
}
# malformed files, each requested once per pass; every one must exit 2
CLI_MALFORMED = (
    ("truncated.json", "compute"),
    ("degree_jump.json", "eulerian"),
    ("unknown_cover.json", "duality"),
    ("no_covers.json", "gorenstein-star"),
    ("two_bottoms.json", "compute"),
    ("missing.json", "eulerian"),
)
CLI_PASSES = 3  # passes over the files per round; one report ends a round
# ROADMAP defect 5a: a top-level JSON list crashes load_input.  Probed once
# per run outside the timed loop, and reported on its own line.
DEFECT_5A_FILE = "top_level_list.json"


def relabel(m, p, rng):
    """The same poset with its element ids permuted among themselves."""
    names = list(p.elements())
    perm = names[:]
    rng.shuffle(perm)
    rename = dict(zip(names, perm))
    degrees = {rename[e]: p.degree(e) for e in names}
    covers = [(rename[a], rename[b]) for a, b in p.covers()]
    return m.poset.GradedPoset(p.rank, degrees, covers)


# -- reference answers -----------------------------------------------------------


def certificate_summary(cert_json):
    """The label-invariant part of a Gorenstein* certificate: the verdict,
    the Betti numbers, and the dimension of the failing face (the failing
    face itself names elements)."""
    face = cert_json["failing_face"]
    return {
        "gorenstein_star": cert_json["gorenstein_star"],
        "betti": cert_json["betti"],
        "failing_face_size": None if face is None else len(face),
    }


def normalize_cli(request, stdout):
    """Parse a request's stdout into its label-invariant content."""
    if not stdout:
        return None
    out = json.loads(stdout)
    if request == "gorenstein-star":
        out = certificate_summary(out)
    return out


def cli_call(cli, argv):
    """Run cli.main in-process; return (exit code, stdout text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def load_reference(bench_dir):
    with open(os.path.join(bench_dir, "reference.json")) as fh:
        return json.load(fh)


# -- workloads --------------------------------------------------------------------


def _shuffled(rng, ops):
    rng.shuffle(ops)
    return ops


def setup_certify(m, rng, ref, workdir):
    base = {name: POSETS[name](m) for name in CERTIFY_MEMBERS + CERTIFY_CONTROLS}
    expected = {name: ref["posets"][name]["certificate"] for name in base}

    def make(name, p):
        def run():
            got = certificate_summary(m.homology.is_gorenstein_star(p).to_json())
            if got != expected[name]:
                return f"certificate {got}, expected {expected[name]}"
            return None

        return Op(name, run)

    return [
        _shuffled(rng, [
            make(name, relabel(m, base[name], rng))
            for name in CERTIFY_MEMBERS + (CERTIFY_CONTROLS[r % len(CERTIFY_CONTROLS)],)
        ])
        for r in range(POOL_ROUNDS)
    ]


def setup_cd_index(m, rng, ref, workdir):
    base = {name: POSETS[name](m) for name, _ in CD_INDEX_ROUND}

    def make(name, p):
        expected = ref["posets"][name]["cd_index"]

        def run():
            flag = m.flags.cd_index_flag(p)
            stanley = m.recursion.cd_index_stanley(p)
            operator = m.operators.cd_index_operator(p)
            if not flag == stanley == operator:
                return f"methods disagree: {flag} / {stanley} / {operator}"
            if str(flag) != expected:
                return f"cd-index {flag}, expected {expected}"
            return None

        return Op(name, run)

    return [
        _shuffled(rng, [
            make(name, relabel(m, base[name], rng))
            for name, copies in CD_INDEX_ROUND
            for _ in range(copies)
        ])
        for _ in range(POOL_ROUNDS)
    ]


def random_cd_polynomial(m, rng, degree):
    """Dense random integer cd-polynomial; c^degree keeps it nonzero."""
    terms = {w: rng.randint(-20, 20) for w in m.cdpoly.enumerate_cd_words(degree)}
    terms["c" * degree] = rng.randint(1, 5)
    return m.cdpoly.CdPolynomial(terms)


def setup_cd_algebra(m, rng, ref, workdir):
    cdpoly = m.cdpoly

    def make(degree, perturbed):
        poly = random_cd_polynomial(m, rng, degree)
        if not perturbed:
            def run():
                back = cdpoly.to_cd(cdpoly.phi_expand(poly))
                return None if back == poly else f"round trip gave {back}"

            return Op(f"degree {degree}", run)

        # a single subset moved off the image: h_S = h_complement(S) fails
        subset = frozenset(i for i in range(1, degree + 1) if rng.random() < 0.5)
        bump = cdpoly.SubsetPolynomial(degree, {subset: rng.choice((-2, -1, 1, 2))})

        def run():
            h = cdpoly.phi_expand(poly) + bump
            try:
                cdpoly.to_cd(h)
            except cdpoly.NotACdPolynomial:
                return None
            return "perturbed input was accepted"

        return Op(f"degree {degree} perturbed", run)

    return [
        _shuffled(rng, [
            make(degree, i < perturbed)
            for degree, (count, perturbed) in CD_ALGEBRA_ROUND.items()
            for i in range(count)
        ])
        for _ in range(POOL_ROUNDS)
    ]


def write_malformed(workdir, good_json, rng):
    """Write the malformed CLI inputs, derived from one seeded poset file."""
    text = json.dumps(good_json)
    elements = good_json["elements"]
    by_deg = {}
    for el in elements:
        by_deg.setdefault(el["deg"], []).append(el["id"])
    bottom = by_deg[0][0]
    jump = dict(good_json, covers=good_json["covers"] + [[bottom, rng.choice(by_deg[2])]])
    unknown = dict(good_json, covers=good_json["covers"] + [[bottom, "no-such-element"]])
    no_covers = {k: v for k, v in good_json.items() if k != "covers"}
    two_bottoms = dict(
        good_json,
        elements=elements + [{"id": "second-bottom", "deg": 0}],
        covers=good_json["covers"] + [["second-bottom", rng.choice(by_deg[1])]],
    )
    files = {
        "truncated.json": text[: len(text) // 2],
        "degree_jump.json": json.dumps(jump),
        "unknown_cover.json": json.dumps(unknown),
        "no_covers.json": json.dumps(no_covers),
        "two_bottoms.json": json.dumps(two_bottoms),
        DEFECT_5A_FILE: "[1, 2]",
    }
    for name, body in files.items():
        with open(os.path.join(workdir, name), "w") as fh:
            fh.write(body + "\n")


def cli_file_name(name):
    return "".join(ch if ch.isalnum() else "_" for ch in name).strip("_") + ".json"


def setup_cli_mix(m, rng, ref, workdir):
    os.makedirs(workdir, exist_ok=True)
    paths = {}
    for name in CLI_FILES:
        p = relabel(m, POSETS[name](m), rng)
        paths[name] = os.path.join(workdir, cli_file_name(name))
        with open(paths[name], "w") as fh:
            fh.write(p.dumps() + "\n")
    write_malformed(workdir, relabel(m, POSETS["pyramid(polygon(4))"](m), rng).to_json(), rng)
    expected = ref["cli"]

    def make(label, argv, request, want):
        def run():
            code, stdout = cli_call(m.cli, argv)
            if code != want["exit"]:
                return f"exit {code}, expected {want['exit']}"
            got = normalize_cli(request, stdout)
            if got != want["out"]:
                return f"output {got}, expected {want['out']}"
            return None

        return Op(label, run)

    def one_pass():
        ops = []
        for name in CLI_FILES:
            for request, args in CLI_REQUESTS.items():
                argv = args[:1] + ["--input", paths[name]] + args[1:]
                ops.append(make(f"{request} {name}", argv, request, expected[name][request]))
        for fname, request in CLI_MALFORMED:
            args = CLI_REQUESTS[request]
            argv = args[:1] + ["--input", os.path.join(workdir, fname)] + args[1:]
            ops.append(make(f"{request} {fname}", argv, request, {"exit": 2, "out": None}))
        return ops

    report = make("report", ["report", "--json"], "report", expected["report"])
    return [
        _shuffled(rng, [op for _ in range(CLI_PASSES) for op in one_pass()]) + [report]
        for _ in range(POOL_ROUNDS)
    ]


def probe_defect_5a(m, workdir):
    """Run the known-failing request once; describe what happened."""
    argv = ["check", "--input", os.path.join(workdir, DEFECT_5A_FILE), "--what", "eulerian"]
    try:
        code, _ = cli_call(m.cli, argv)
    except Exception as exc:  # the defect: an escaping exception
        return f"still open: {type(exc).__name__} escapes cli.main (expected exit 2)"
    return "fixed: exit 2" if code == 2 else f"still open: exit {code} (expected 2)"


SETUP = {
    "certify": setup_certify,
    "cd_index": setup_cd_index,
    "cd_algebra": setup_cd_algebra,
    "cli_mix": setup_cli_mix,
}


def setup(workload, m, seed, ref, workdir):
    """Build the pool of rounds for one workload from the seed."""
    return SETUP[workload](m, random.Random(f"{workload}:{seed}"), ref, workdir)
