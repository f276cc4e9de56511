"""Command line surface: generate posets, compute cd-indices by any of the
three methods, run certifications, evaluate shellings, and print corpus
reports.

Exit codes are a stable contract: 0 ok, 2 bad input, 3 found not Eulerian
by the route that ran, 4 method mismatch, 5 invalid decomposition.  Only
``check --what eulerian`` decides Eulerian-ness: a non-Eulerian poset whose
flag h-vector is still the image of a cd-polynomial gets an answer from the
flag and operator routes and exit 3 from Stanley's.  Output is
byte-deterministic for identical input.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import poset as poset_mod
from .cdpoly import CdPolynomial, NotACdPolynomial, enumerate_cd_words
from .flags import cd_index_flag, flag_f, flag_h
from .homology import is_gorenstein_star
from .operators import cd_index_operator, operator_walk
from .poset import (
    InvalidPoset, barycentric, brief, build_family, build_pyramid, is_eulerian,
)
from .recursion import NonIntegralResult, cd_index_stanley
from .shelling import (
    PiNotComplete, ShellingInvalid, is_quasi_convex, pi_decomposition, shelling_steps,
)

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_NOT_EULERIAN = 3
EXIT_MISMATCH = 4
EXIT_BAD_DECOMPOSITION = 5

DEFAULT_MAX_ELEMENTS = 20000
# flag counts visit all 2^rank degree sets: about 0.4 s for chain(16), and
# about 2.5 times as long for each rank above
DEFAULT_MAX_RANK = 16
DEFAULT_CORPUS = (
    "polygons:3..8,simplex_fan:1..4,cube_fan:1..3,crosspoly_fan:1..3,"
    "pyramid:polygon:4,pyramid:simplex_fan:3,barycentric:polygon:3"
)


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _cap(name, default):
    raw = os.environ.get(name, "")
    try:
        return int(raw) if raw else default
    except ValueError:
        raise CliError(f"bad {name} value {brief(repr(raw))}", EXIT_BAD_INPUT)


def check_caps(source, elements, rank=None):
    """Raise a CliError (exit 2) when a poset from ``source`` would have
    more elements than CDINDEX_MAX_ELEMENTS or, unless ``rank`` is None, a
    rank above CDINDEX_MAX_RANK; the message names the variable to raise,
    and a number of more than 30 digits by its head and tail."""
    for name, default, size, what in (
        ("CDINDEX_MAX_ELEMENTS", DEFAULT_MAX_ELEMENTS, elements, "{} elements"),
        ("CDINDEX_MAX_RANK", DEFAULT_MAX_RANK, rank, "rank {}"),
    ):
        if size is not None and size > (cap := _cap(name, default)):
            raise CliError(
                f"{source} has {what.format(brief(size))}, over the cap {cap} "
                f"(raise {name} to override)",
                EXIT_BAD_INPUT,
            )


def _build(kind, n, pyramid=False, subdivide=False, rank_cap=True):
    """build_family(kind, n), then its pyramid and its barycentric
    subdivision as asked, once check_caps passes the closed-form size of the
    member or its pyramid (poset.family_size): a pyramid has twice its
    base's elements and rank + 1.  A subdivision is built only once its
    element count, walked on the built base, passes the element cap too."""
    elements, rank = poset_mod.family_size(kind, n)
    name = f"{kind}({brief(n)})"
    if pyramid:
        elements, rank, name = 2 * elements, rank + 1, f"pyramid({name})"
    check_caps(name, elements, rank if rank_cap else None)
    p = build_family(kind, n)
    if pyramid:
        p = build_pyramid(p)
    if subdivide:
        check_caps(f"barycentric({name})", _subdivision_size(p))
        p = barycentric(p).bposet
    return p


def _subdivision_size(p):
    """Element count of barycentric(p): the chains of p's proper part, the
    empty chain included, and the top.  It stops once past the element cap,
    so a count over the cap may be a lower bound, as is 2^rank + 1 (the
    subchains of one maximal chain), which spares a long chain its masks.
    The walk reads each down mask as poset.down_masks yields it, so a walk
    stopped early builds no later mask and leaves index_data()'s unbuilt."""
    cap = _cap("CDINDEX_MAX_ELEMENTS", DEFAULT_MAX_ELEMENTS)
    if (size := 2 ** min(p.rank, 64) + 1) > cap:
        return size
    cov_down = p.index_data().cov_down
    # chains by their largest element, in index order: the elements below i
    # come first, and the bottom's count and i's own stay 0 while summed
    ending = [0] * len(cov_down)
    size = 2
    masks = poset_mod.down_masks(cov_down)
    next(masks)  # the bottom's
    for i, down in zip(range(1, len(cov_down) - 1), masks):
        ending[i] = 1 + sum(ending[j] for j in poset_mod.mask_indices(down))
        size += ending[i]
        if size > cap:
            break
    return size


def _integer(text):
    """int(text), for gen's parameter.  A bad value gets argparse's own
    message for type=int, with the value cut by poset.brief: int() refuses
    more than 4,300 digits, and the message would repeat all of them."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {brief(repr(text))}")


def load_input(path):
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_BAD_INPUT)
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad JSON syntax and bytes that are not UTF-8;
        # RecursionError, arrays or objects nested too deep to decode
        raise CliError(f"{path} is not valid JSON: {exc}", EXIT_BAD_INPUT)
    try:
        poset_mod.check_json_shape(data)
        check_caps(path, len(data["elements"]), data["rank"])
        p, notice = poset_mod.from_checked_json(data)
    except (InvalidPoset, KeyError, TypeError, ValueError) as exc:
        raise CliError(f"{path} is not a valid poset: {exc}", EXIT_BAD_INPUT)
    if notice:
        print(f"warning: {notice}", file=sys.stderr)
    return p


def cmd_gen(args):
    try:
        # no rank cap: rank drives the work of compute, not of gen, so gen
        # may write a file that compute refuses
        p = _build(args.kind, args.param, args.pyramid, args.barycentric, False)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_BAD_INPUT)
    text = p.dumps()
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise CliError(f"cannot write {args.out}: {exc}", EXIT_BAD_INPUT)
    else:
        print(text)
    return EXIT_OK


_METHODS = {
    "flag": cd_index_flag,
    "stanley": cd_index_stanley,
    "operator": cd_index_operator,
}


def _compute_one(method, p):
    try:
        return _METHODS[method](p)
    except (NotACdPolynomial, NonIntegralResult):
        raise CliError("input is not Eulerian", EXIT_NOT_EULERIAN)


def _trace_monomials(p, as_json):
    """Every cd-word's value with the functions of operator_walk along its
    suffixes, in enumerate_cd_words order."""
    ids = p.elements()
    by_word = {
        word: {
            "word": word or "1",
            "coefficient": path[-1][1][0],
            "trace": [
                {"level": level, "values": dict(zip(ids, values))}
                for level, values in path
            ],
        }
        for word, path in operator_walk(p)
    }
    records = [by_word[word] for word in enumerate_cd_words(p.rank)]
    if as_json:
        print(json.dumps({"monomials": records}, sort_keys=True))
        return
    for rec in records:
        print(f"{rec['word']} -> {rec['coefficient']}")
        for snap in rec["trace"]:
            vals = " ".join(f"{e}={v}" for e, v in snap["values"].items())
            print(f"  level {snap['level']}: {vals}")


def cmd_compute(args):
    p = load_input(args.input)
    if args.trace:
        if args.method not in ("operator", "all"):
            raise CliError("--trace needs --method operator", EXIT_BAD_INPUT)
        _trace_monomials(p, args.json)
        return EXIT_OK
    if args.method != "all":
        ix = _compute_one(args.method, p)
        if args.json:
            print(json.dumps(
                {"method": args.method, "cd_index": str(ix),
                 "terms": {w: v for w, v in ix.sorted_terms()}},
                sort_keys=True))
        else:
            print(ix)
        return EXIT_OK
    results = {name: _compute_one(name, p) for name in ("flag", "stanley", "operator")}
    match = len(set(map(str, results.values()))) == 1
    if args.json:
        print(json.dumps(
            {name: str(ix) for name, ix in results.items()} | {"match": match},
            sort_keys=True))
    else:
        for name, ix in results.items():
            print(f"{name:9} {ix}")
        print("MATCH" if match else "MISMATCH")
    return EXIT_OK if match else EXIT_MISMATCH


def cmd_check(args):
    p = load_input(args.input)
    if args.what == "eulerian":
        ok = is_eulerian(p)
        cert = {"eulerian": ok}
    elif args.what == "duality":
        h = flag_h(flag_f(p))
        ok = h.values == h.values[::-1]
        cert = {"duality": ok, "h": h.to_json()["terms"]}
    elif args.what == "gorenstein-star":
        res = is_gorenstein_star(p)
        ok = bool(res)
        cert = res.to_json()
    else:  # quasi-convex
        ok = is_quasi_convex(p)
        cert = {"quasi_convex": ok}
    print(json.dumps(cert, sort_keys=True))
    return EXIT_OK if ok else 1


def cmd_shell(args):
    p = load_input(args.input)
    try:
        if args.order:
            steps = shelling_steps(p, args.order)
            total = CdPolynomial.zero()
            for _, f, g in steps:
                total = total + f * CdPolynomial({"c": 1}) + g * CdPolynomial({"d": 1})
            if args.json:
                print(json.dumps({
                    "steps": [
                        {"facet": sig, "f": str(f), "g": str(g)}
                        for sig, f, g in steps
                    ],
                    "cd_index": str(total),
                }, sort_keys=True))
            else:
                for i, (sig, f, g) in enumerate(steps, start=2):
                    print(f"step {i}: facet {sig}  f = {f}  g = {g}")
                print(total)
        else:
            ix = pi_decomposition(p, args.pi)
            if args.json:
                print(json.dumps({"pi": args.pi, "cd_index": str(ix)}, sort_keys=True))
            else:
                print(ix)
    except (ShellingInvalid, PiNotComplete) as exc:
        raise CliError(str(exc), EXIT_BAD_DECOMPOSITION)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_BAD_INPUT)
    return EXIT_OK


def parse_corpus(text):
    """Corpus grammar: comma-separated entries
    polygons:A..B | simplex_fan:A..B | cube_fan:A..B | crosspoly_fan:A..B |
    chain:A[..B] | pyramid:KIND:PARAM | barycentric:KIND:PARAM.  Each
    member, or the base of a barycentric one, is held to both caps before
    it is built."""
    members = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        parts = token.split(":")
        try:
            if parts[0] in ("pyramid", "barycentric"):
                kind, n, pyramid = parts[1], int(parts[2]), parts[0] == "pyramid"
                members.append((token, _build(kind, n, pyramid, not pyramid)))
                continue
            family = {"polygons": "polygon"}.get(parts[0], parts[0])
            rng = parts[1]
            if ".." in rng:
                lo, hi = map(int, rng.split(".."))
                if lo > hi:
                    raise ValueError(f"reversed range {lo}..{hi}")
                values = range(lo, hi + 1)
            else:
                values = [int(rng)]
            for v in values:
                members.append((f"{family}:{v}", _build(family, v)))
        except (IndexError, ValueError, KeyError) as exc:
            message = f"bad corpus entry {token!r}: {exc}"
            if len(f"error: {message}") >= 200:
                # cut the entry and the error text, which may repeat it
                message = f"bad corpus entry {brief(repr(token))}: {brief(exc)}"
            raise CliError(message, EXIT_BAD_INPUT)
    if not members:
        raise CliError("empty corpus", EXIT_BAD_INPUT)
    return members


def cmd_report(args):
    members = parse_corpus(args.corpus)
    rows = []
    for name, p in members:
        try:
            flag_ix = cd_index_flag(p)
        except NotACdPolynomial:
            rows.append({"poset": name, "cd_index": None, "nonneg": None,
                         "agree": None, "gorenstein_star": False,
                         "note": "non-Eulerian"})
            continue
        stanley_ix = cd_index_stanley(p)
        op_ix = cd_index_operator(p)
        agree = flag_ix == stanley_ix == op_ix
        nonneg = all(
            isinstance(v, int) and v >= 0 for _, v in flag_ix.sorted_terms()
        )
        gor = bool(is_gorenstein_star(p))
        rows.append({"poset": name, "cd_index": str(flag_ix), "nonneg": nonneg,
                     "agree": agree, "gorenstein_star": gor, "note": ""})
    if args.json:
        print(json.dumps(rows, sort_keys=True))
    else:
        mark = lambda v: "-" if v is None else ("yes" if v else "NO")
        width = max(len(r["poset"]) for r in rows)
        print(f"{'poset':{width}}  {'nonneg':6}  {'agree':5}  {'gor*':4}  cd-index")
        for r in rows:
            ix = r["cd_index"] if r["cd_index"] is not None else r["note"]
            print(
                f"{r['poset']:{width}}  {mark(r['nonneg']):6}  "
                f"{mark(r['agree']):5}  {mark(r['gorenstein_star']):4}  {ix}"
            )
    return EXIT_OK


@functools.cache
def build_parser():
    """The argparse tree, built on the first call and shared by every later
    one in the process; main dispatches on the command name."""
    parser = argparse.ArgumentParser(
        prog="cdindex",
        description="cd-index computations and certifications for graded posets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a poset JSON file")
    g.add_argument("kind", choices=sorted(poset_mod.FAMILIES))
    g.add_argument("param", type=_integer)
    g.add_argument("--pyramid", action="store_true", help="take the pyramid")
    g.add_argument("--barycentric", action="store_true",
                   help="take the barycentric subdivision (after --pyramid)")
    g.add_argument("--out", help="output path (default stdout)")

    c = sub.add_parser("compute", help="compute the cd-index")
    c.add_argument("--input", required=True)
    c.add_argument("--method", default="all",
                   choices=("flag", "stanley", "operator", "all"))
    c.add_argument("--json", action="store_true")
    c.add_argument("--trace", action="store_true",
                   help="print every intermediate function of the operator "
                        "evaluation, one block per cd-monomial")

    k = sub.add_parser("check", help="run a certification")
    k.add_argument("--input", required=True)
    k.add_argument("--what", required=True,
                   choices=("eulerian", "gorenstein-star", "duality", "quasi-convex"))

    s = sub.add_parser("shell", help="evaluate a shelling order or Pi split")
    s.add_argument("--input", required=True)
    group = s.add_mutually_exclusive_group(required=True)
    group.add_argument("--order", nargs="+", help="facet ids in shelling order")
    group.add_argument("--pi", nargs="+", help="coatom ids forming Pi")
    s.add_argument("--json", action="store_true")

    r = sub.add_parser("report", help="tabulate a corpus")
    r.add_argument("--corpus", default=DEFAULT_CORPUS)
    r.add_argument("--json", action="store_true")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        # looked up when called, not stored in the parser, so a cmd_*
        # function replaced on the module after the first call still runs
        return globals()[f"cmd_{args.command}"](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
