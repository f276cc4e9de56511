import functools
import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cdindex import cli
from cdindex import poset as poset_mod
from cdindex.cdpoly import enumerate_cd_words
from cdindex.cli import main

from conftest import antipodal_quotient, random_graded_poset
from test_operators import eval_cd_monomial


def run(capsys, *argv):
    """Exit code, stdout and stderr of one main call, argparse exits included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def gen(tmp_path, capsys, *argv):
    path = tmp_path / ("_".join(argv).replace(":", "") + ".json")
    code, _, err = run(capsys, "gen", *argv, "--out", str(path))
    assert code == 0, err
    return str(path)


def test_gen_counts(tmp_path, capsys):
    path = gen(tmp_path, capsys, "polygon", "5")
    data = json.loads(open(path).read())
    assert len(data["elements"]) == 12

    path = gen(tmp_path, capsys, "polygon", "4", "--pyramid")
    data = json.loads(open(path).read())
    assert len(data["elements"]) == 20


def test_gen_barycentric_stdout(capsys):
    code, out, _ = run(capsys, "gen", "simplex_fan", "3", "--barycentric")
    assert code == 0
    data = json.loads(out)
    assert data["rank"] == 3
    # chains of the tetrahedron fan: 14 + 36 + 24 proper elements
    assert len(data["elements"]) == 14 + 36 + 24 + 2


def test_gen_bad_params(capsys):
    code, _, err = run(capsys, "gen", "polygon", "2")
    assert code == 2 and "polygon" in err


def test_compute_methods(tmp_path, capsys):
    path = gen(tmp_path, capsys, "polygon", "4", "--pyramid")
    for method in ("flag", "stanley", "operator"):
        code, out, _ = run(capsys, "compute", "--input", path, "--method", method)
        assert code == 0 and out.strip() == "c^3 + 3*cd + 3*dc"

    code, out, _ = run(capsys, "compute", "--input", path, "--method", "all")
    assert code == 0 and out.strip().endswith("MATCH")


def test_compute_polygon7(tmp_path, capsys):
    path = gen(tmp_path, capsys, "polygon", "7")
    code, out, _ = run(capsys, "compute", "--input", path, "--method", "flag")
    assert code == 0 and out.strip() == "c^2 + 5*d"


def test_compute_json(tmp_path, capsys):
    path = gen(tmp_path, capsys, "polygon", "4")
    code, out, _ = run(capsys, "compute", "--input", path, "--method", "flag", "--json")
    data = json.loads(out)
    assert data == {"cd_index": "c^2 + 2*d", "method": "flag",
                    "terms": {"cc": 1, "d": 2}}


def test_compute_non_eulerian_exit3(tmp_path, capsys):
    path = gen(tmp_path, capsys, "chain", "2")
    code, _, err = run(capsys, "compute", "--input", path)
    assert code == 3 and "not Eulerian" in err


def test_check_exit_codes(tmp_path, capsys):
    p4 = gen(tmp_path, capsys, "polygon", "4")
    code, out, _ = run(capsys, "check", "--input", p4, "--what", "gorenstein-star")
    assert code == 0
    assert json.loads(out)["gorenstein_star"] is True

    c2 = gen(tmp_path, capsys, "chain", "2")
    code, out, _ = run(capsys, "check", "--input", c2, "--what", "eulerian")
    assert code == 1
    assert json.loads(out) == {"eulerian": False}

    code, out, _ = run(capsys, "check", "--input", p4, "--what", "duality")
    assert code == 0 and json.loads(out)["duality"] is True

    code, out, _ = run(capsys, "check", "--input", p4, "--what", "quasi-convex")
    assert code == 0 and json.loads(out)["quasi_convex"] is True


def test_check_quasi_convex_on_partial_polygon(tmp_path, capsys):
    from conftest import polygon_minus_facet

    path = tmp_path / "pm.json"
    path.write_text(polygon_minus_facet(4).dumps())
    code, out, _ = run(capsys, "check", "--input", str(path), "--what", "quasi-convex")
    assert code == 0 and json.loads(out)["quasi_convex"] is True


def test_shell_table(tmp_path, capsys):
    path = gen(tmp_path, capsys, "polygon", "4")
    code, out, _ = run(
        capsys, "shell", "--input", path, "--order", "f1", "f2", "f3", "f4"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "c^2 + 2*d"
    assert "f = 0  g = 1" in lines[0]
    assert "f = c  g = 0" in lines[2]


def test_shell_pi(tmp_path, capsys):
    path = gen(tmp_path, capsys, "polygon", "4", "--pyramid")
    code, out, _ = run(
        capsys,
        "shell", "--input", path,
        "--pi", "b:f1", "b:f2", "a:r3", "a:r4", "b:f4",
    )
    assert code == 0 and out.strip() == "c^3 + 3*cd + 3*dc"


def test_shell_invalid_pi_exit5(tmp_path, capsys):
    path = gen(tmp_path, capsys, "polygon", "4", "--pyramid")
    code, _, err = run(
        capsys, "shell", "--input", path, "--pi", "b:f1", "b:f2", "b:f3", "b:f4"
    )
    assert code == 5 and err.startswith("error:")
    # with the apex covered but the cycle still open, the Gorenstein* check fires
    code, _, err = run(
        capsys, "shell", "--input", path,
        "--pi", "b:f1", "b:f2", "b:f3", "a:r1", "a:r2",
    )
    assert code == 5 and "Gorenstein" in err


def test_shell_invalid_order_exit5(tmp_path, capsys):
    path = gen(tmp_path, capsys, "polygon", "4")
    code, _, err = run(
        capsys, "shell", "--input", path, "--order", "f1", "f3", "f2", "f4"
    )
    assert code == 5 and "step 2" in err


def test_compute_trace(tmp_path, capsys):
    path = gen(tmp_path, capsys, "polygon", "3")
    code, out, _ = run(
        capsys, "compute", "--input", path, "--method", "operator", "--trace"
    )
    assert code == 0
    assert out.startswith("cc -> 1")
    assert "d -> 1" in out
    assert "level 0: _bot=1" in out

    code, out, _ = run(
        capsys, "compute", "--input", path, "--method", "operator",
        "--trace", "--json",
    )
    data = json.loads(out)
    words = {rec["word"]: rec for rec in data["monomials"]}
    assert words["d"]["coefficient"] == 1
    assert [snap["level"] for snap in words["cc"]["trace"]] == [2, 1, 0]

    code, _, err = run(
        capsys, "compute", "--input", path, "--method", "flag", "--trace"
    )
    assert code == 2


def per_word_trace(p, as_json):
    """compute --trace as it printed when each word was evaluated on its
    own, letter by letter, by the per-word operator calculus."""
    poset_order = sorted(p.elements(), key=lambda e: (p.degree(e), e))
    records = []
    for word in enumerate_cd_words(p.rank):
        trace = []
        value = eval_cd_monomial(p, word, trace=trace)
        records.append(
            {
                "word": word or "1",
                "coefficient": value,
                "trace": [
                    {
                        "level": t.level,
                        "values": {e: t(e) for e in poset_order if e in t.values},
                    }
                    for t in trace
                ],
            }
        )
    if as_json:
        print(json.dumps({"monomials": records}, sort_keys=True))
        return
    for rec in records:
        print(f"{rec['word']} -> {rec['coefficient']}")
        for snap in rec["trace"]:
            vals = " ".join(f"{e}={v}" for e, v in snap["values"].items())
            print(f"  level {snap['level']}: {vals}")


def trace_inputs():
    rng = random.Random(17)
    posets = [poset_mod.polygon(k) for k in range(3, 7)]
    posets += [poset_mod.chain(r) for r in range(4)]
    posets += [
        poset_mod.simplex_fan(4),
        poset_mod.crosspoly_fan(4),
        poset_mod.build_pyramid(poset_mod.cube_fan(3)),
        antipodal_quotient(poset_mod.crosspoly_fan(4)),
    ]
    return posets + [random_graded_poset(rng, max_rank=5) for _ in range(30)]


def test_trace_matches_the_per_word_trace(tmp_path, capsys):
    # chain(r) and most random posets are not Eulerian: their values are
    # out of contract and printed all the same
    for i, p in enumerate(trace_inputs()):
        text = p.dumps()
        path = tmp_path / f"p{i}.json"
        path.write_text(text)
        loaded = poset_mod.from_json(json.loads(text))
        for flags in ((), ("--json",)):
            per_word_trace(loaded, bool(flags))
            expected = capsys.readouterr().out
            got = run(
                capsys, "compute", "--input", str(path), "--method", "operator",
                "--trace", *flags,
            )
            assert got == (0, expected, "")


def test_report_polygons(capsys):
    code, out, _ = run(capsys, "report", "--corpus", "polygons:3..12")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 11  # header + 10 rows
    for i, line in enumerate(lines[1:], start=3):
        assert f"c^2 + {i - 2}*d" in line or (i == 3 and "c^2 + d" in line)
        assert "yes" in line


def test_report_marks_non_eulerian(capsys):
    code, out, _ = run(capsys, "report", "--corpus", "polygons:3..4,chain:2")
    assert code == 0
    assert "non-Eulerian" in out


def test_report_json_deterministic(capsys):
    code, out1, _ = run(capsys, "report", "--corpus", "polygons:3..5", "--json")
    assert code == 0
    code, out2, _ = run(capsys, "report", "--corpus", "polygons:3..5", "--json")
    assert out1 == out2
    rows = json.loads(out1)
    assert all(r["agree"] and r["nonneg"] and r["gorenstein_star"] for r in rows)


def test_report_bad_corpus(capsys):
    code, _, err = run(capsys, "report", "--corpus", "dodecahedra:1..2")
    assert code == 2
    # an unknown family is named before any cap is checked, pyramid or not
    for corpus in ("dodecahedra:1", "pyramid:dodecahedra:1"):
        code, out, err = run(capsys, "report", "--corpus", corpus)
        assert (code, out) == (2, "")
        assert err == f"error: bad corpus entry {corpus!r}: unknown family 'dodecahedra'\n"
    # a reversed range is an error, not an empty member list
    for corpus in ("polygons:5..3,chain:2", "chain:4..2"):
        code, out, err = run(capsys, "report", "--corpus", corpus)
        assert code == 2 and out == "" and "bad corpus entry" in err
        assert "reversed range" in err


@pytest.mark.parametrize(
    "entry, line",
    [
        ("chain:" + "x" * 3000,
         "error: bad corpus entry 'chain:xxxxxxxxxxx...xxxxxxxx': "
         "invalid literal fo...xxxxxxxxx"),
        ("pyramid:polygon:" + "9" * 5000,
         "error: bad corpus entry 'pyramid:polygon:9...99999999': "
         "Exceeds the limit ...the limit"),
    ],
    ids=["3000-letters", "5000-digits"],
)
def test_long_corpus_entry_gives_one_short_line(capsys, entry, line):
    # the entry and int()'s message, which repeats it, are cut by poset.brief
    code, out, err = run(capsys, "report", "--corpus", entry)
    assert (code, out, err) == (2, "", line + "\n")
    assert len(err) < 200


def test_max_elements_cap(tmp_path, capsys, monkeypatch):
    path = gen(tmp_path, capsys, "polygon", "30")
    monkeypatch.setenv("CDINDEX_MAX_ELEMENTS", "10")
    code, _, err = run(capsys, "compute", "--input", path)
    assert code == 2 and "cap" in err


def test_max_rank_cap(tmp_path, capsys, monkeypatch):
    # flag counts would visit 2^26 degree sets
    path = gen(tmp_path, capsys, "chain", "26")
    code, out, err = run(capsys, "compute", "--input", path)
    assert code == 2 and out == ""
    assert "rank 26, over the cap 16" in err and "CDINDEX_MAX_RANK" in err
    monkeypatch.setenv("CDINDEX_MAX_RANK", "many")
    code, _, err = run(capsys, "compute", "--input", path)
    assert code == 2 and "bad CDINDEX_MAX_RANK value 'many'" in err
    monkeypatch.setenv("CDINDEX_MAX_RANK", "26")
    code, out, _ = run(capsys, "check", "--input", path, "--what", "eulerian")
    assert code == 1 and json.loads(out) == {"eulerian": False}


def test_long_numbers_give_one_short_line(tmp_path, capsys, monkeypatch):
    # each number of more than 30 digits is cut to its head and tail
    huge = "1" + "0" * 3000
    code, out, err = run(capsys, "gen", "chain", huge)
    assert code == 2 and out == ""
    assert err == (
        "error: chain(100000000000000000...000000000) has "
        "100000000000000000...000000002 elements, over the cap 20000 "
        "(raise CDINDEX_MAX_ELEMENTS to override)\n"
    )
    path = tmp_path / "rank.json"
    path.write_text(json.dumps({"rank": 10**4000, "elements": [], "covers": []}))
    code, out, err = run(capsys, "compute", "--input", str(path))
    assert code == 2 and out == ""
    assert err == (
        f"error: {path} has rank 100000000000000000...000000000, over the cap "
        "16 (raise CDINDEX_MAX_RANK to override)\n"
    )
    monkeypatch.setenv("CDINDEX_MAX_RANK", "7" * 5000)
    code, out, err = run(capsys, "compute", "--input", str(path))
    assert code == 2 and out == ""
    assert err == "error: bad CDINDEX_MAX_RANK value '77777777777777777...77777777'\n"


@pytest.mark.parametrize(
    "param, value",
    [("x", "'x'"), ("9" * 5000, "'99999999999999999...99999999'")],
    ids=["short", "over-4300-digits"],
)
def test_gen_param_that_is_no_integer(capsys, param, value):
    # argparse's usage, then its one error line, as for type=int; int()
    # refuses the 5,000 digits, and the message cuts them
    code, out, err = run(capsys, "gen", "chain", param)
    assert code == 2 and out == ""
    assert err.startswith("usage: cdindex gen ")
    line = err.splitlines()[-1]
    assert line == f"cdindex gen: error: argument param: invalid int value: {value}"
    assert len(line) < 200


@pytest.mark.parametrize("kind", sorted(poset_mod.FAMILIES))
def test_family_sizes_match_builders(kind):
    # the closed forms the caps are checked on, against what gets built
    for n in range({"polygon": 3}.get(kind, 1), 6):
        p = poset_mod.build_family(kind, n)
        assert poset_mod.family_size(kind, n) == (len(p.elements()), p.rank)
        q = poset_mod.build_pyramid(p)
        assert (2 * len(p.elements()), p.rank + 1) == (len(q.elements()), q.rank)


@pytest.mark.parametrize(
    "argv, message",
    [
        (("gen", "cube_fan", "30"),
         "cube_fan(30) has 205891132094650 elements, over the cap 20000 "
         "(raise CDINDEX_MAX_ELEMENTS to override)"),
        (("gen", "cube_fan", "10"), "cube_fan(10) has 59050 elements"),
        (("gen", "simplex_fan", "14", "--pyramid", "--barycentric"),
         "pyramid(simplex_fan(14)) has 65536 elements"),
        (("report", "--corpus", "chain:40"),
         "chain(40) has rank 40, over the cap 16 (raise CDINDEX_MAX_RANK to override)"),
        (("report", "--corpus", "polygons:3..4,chain:17"), "chain(17) has rank 17"),
        (("report", "--corpus", "pyramid:cube_fan:9"),
         "pyramid(cube_fan(9)) has 39368 elements"),
        (("report", "--corpus", "barycentric:crosspoly_fan:20"),
         "crosspoly_fan(20) has 3486784402 elements"),
    ],
)
def test_oversized_families_exit_before_building(capsys, argv, message):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == "" and message in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("gen", "chain", "16", "--barycentric"),
         "barycentric(chain(16)) has 65537 elements, over the cap 20000 "
         "(raise CDINDEX_MAX_ELEMENTS to override)"),
        (("gen", "simplex_fan", "6", "--barycentric"),
         "barycentric(simplex_fan(6)) has "),
        (("gen", "simplex_fan", "7", "--barycentric"),
         "barycentric(simplex_fan(7)) has "),
        (("report", "--corpus", "barycentric:simplex_fan:9"),
         "barycentric(simplex_fan(9)) has "),
        (("gen", "chain", "19000", "--barycentric"),
         "barycentric(chain(19000)) has "),
    ],
    ids=["chain16", "simplex_fan6", "simplex_fan7", "report-simplex_fan9",
         "chain19000"],
)
def test_oversized_subdivisions_exit_before_building(capsys, argv, message):
    # the base passes both caps, its chains do not: 47,294 elements for
    # simplex_fan(6), 545,836 for simplex_fan(7), 2^19000 + 1 for chain(19000)
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith(f"error: {message}")
    assert "over the cap 20000 (raise CDINDEX_MAX_ELEMENTS to override)" in err


def test_subdivision_size_matches_the_built_subdivision(capsys, monkeypatch, rng):
    bases = [poset_mod.polygon(5), poset_mod.chain(0), poset_mod.chain(3)]
    for kind in ("simplex_fan", "cube_fan", "crosspoly_fan"):
        members = [poset_mod.build_family(kind, n) for n in range(1, 5)]
        bases += members + [poset_mod.build_pyramid(p) for p in members[:3]]
    bases += [random_graded_poset(rng) for _ in range(20)]
    for p in bases:
        size = len(poset_mod.barycentric(p).bposet)
        # a walk cut at a lower cap passes it, and counts no more than exist
        for cap in (size, 0, size // 2, size - 1):
            monkeypatch.setenv("CDINDEX_MAX_ELEMENTS", str(cap))
            walked = cli._subdivision_size(p)
            assert walked == size if cap == size else cap < walked <= size
    # a walk stopped early builds no mask of the base's index data
    monkeypatch.setenv("CDINDEX_MAX_ELEMENTS", "10")
    p = poset_mod.polygon(50)
    assert cli._subdivision_size(p) == 11
    assert vars(p.index_data()).keys().isdisjoint({"down", "up"})
    monkeypatch.delenv("CDINDEX_MAX_ELEMENTS")
    # simplex_fan(5) has 4,684 and stays under the default cap; a cap one
    # below refuses it
    code, out, err = run(capsys, "gen", "simplex_fan", "5", "--barycentric")
    assert (code, err) == (0, "") and len(json.loads(out)["elements"]) == 4684
    monkeypatch.setenv("CDINDEX_MAX_ELEMENTS", "4683")
    code, out, err = run(capsys, "gen", "simplex_fan", "5", "--barycentric")
    assert code == 2 and out == ""
    assert "barycentric(simplex_fan(5)) has 4684 elements, over the cap 4683" in err


def test_a_process_imports_no_dataclasses():
    # dataclasses imports inspect, about 1 MB of every process's memory
    src = str(Path(cli.__file__).resolve().parents[1])
    code = "import sys, cdindex.cli; print({'dataclasses', 'inspect'} & {*sys.modules})"
    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert done.stdout == "set()\n"


def test_gen_writes_past_the_rank_cap_only(capsys, monkeypatch):
    # gen does the work of the element count, not of the rank
    monkeypatch.setenv("CDINDEX_MAX_RANK", "2")
    code, out, _ = run(capsys, "gen", "chain", "5")
    assert code == 0 and json.loads(out)["rank"] == 5
    monkeypatch.setenv("CDINDEX_MAX_ELEMENTS", "7")
    code, out, err = run(capsys, "gen", "chain", "6")
    assert code == 2 and out == "" and "chain(6) has 8 elements" in err


# sha256 prefixes of gen's stdout over the listed parameters, plain and with
# --pyramid, then with --barycentric and --pyramid --barycentric: the JSON a
# family member, its pyramid and their subdivisions serialize to stays byte
# for byte
GEN_DIGESTS = {
    "polygon": ((3, 4, 7), "97debd74ece7f6d9", "f88fbefc6bb7e99b"),
    "simplex_fan": ((1, 2, 4), "57385a8acf52c993", "b9dbeead54a757f9"),
    "cube_fan": ((1, 2, 4), "53bdad5488ee415a", "057b5441f4b3e337"),
    "crosspoly_fan": ((1, 2, 4), "b3f55240183821fc", "67a74d8e5d5228f0"),
    "chain": ((0, 1, 4), "7b380ad1d0aeb435", "9a3e0e633a80392a"),
}


@pytest.mark.parametrize("kind", sorted(GEN_DIGESTS))
def test_gen_output_is_pinned(capsys, kind):
    params, *digests = GEN_DIGESTS[kind]
    for digest, flags in zip(digests, ([], ["--barycentric"])):
        h = hashlib.sha256()
        for n in params:
            for extra in ([], ["--pyramid"]):
                if extra and kind == "chain" and n == 0:
                    continue  # a pyramid needs a base of rank >= 1
                code, out, err = run(capsys, "gen", kind, str(n), *extra, *flags)
                assert (code, err) == (0, "")
                h.update(out.encode())
        assert h.hexdigest()[:16] == digest


def test_adjoin_notice_is_one_plain_line(tmp_path, capsys):
    elements = [("a", 1), ("b", 1)]
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(_poset_body(1, elements, [])))
    closed = tmp_path / "closed.json"
    closed.write_text(json.dumps(_poset_body(
        1, [("_bot", 0), *elements, ("_top", 2)],
        [["_bot", "a"], ["_bot", "b"], ["a", "_top"], ["b", "_top"]])))
    for argv in (["compute"], ["check", "--what", "eulerian"]):
        code, out, err = run(capsys, *argv, "--input", str(bare))
        assert (code, err) == (0, "warning: adjoined missing _bot/_top to poset\n")
        assert (code, out, "") == run(capsys, *argv, "--input", str(closed))


def test_gen_deterministic(tmp_path, capsys):
    a = gen(tmp_path, capsys, "cube_fan", "3")
    text_a = open(a).read()
    b = tmp_path / "again.json"
    code, _, _ = run(capsys, "gen", "cube_fan", "3", "--out", str(b))
    assert code == 0
    assert open(b).read() == text_a


def test_unreadable_input(capsys):
    code, _, err = run(capsys, "compute", "--input", "/nonexistent.json")
    assert code == 2


@pytest.mark.parametrize(
    "body",
    [
        [1, 2],
        "poset",
        {"rank": "2", "elements": [], "covers": []},
        {"rank": 1, "elements": {"a": 1}, "covers": []},
        {"rank": 1, "elements": [{"id": "a", "deg": "1"}], "covers": []},
        {"rank": 1, "elements": [{"id": "a", "deg": 1.0}], "covers": []},
        {"rank": 1, "elements": [{"deg": 1}], "covers": []},
        {"rank": 1, "elements": [{"id": "a", "deg": 1}], "covers": [["a"]]},
        {"rank": 1, "elements": [{"id": "a", "deg": 1}], "covers": {"a": "b"}},
        # the message shows a shortened repr of an entry, however large
        {"rank": 1, "elements": [{"id": "x" * 5000}], "covers": []},
        {"rank": 1, "elements": [{"id": functools.reduce(
            lambda inner, _: [inner], range(900), [])}], "covers": []},
    ],
)
def test_malformed_json_shape_exits_2(tmp_path, capsys, body):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(body))
    for argv in (["compute"], ["check", "--what", "eulerian"]):
        code, out, err = run(capsys, *argv, "--input", str(path))
        assert code == 2 and out == "" and "not a valid poset" in err
        assert err.count("\n") == 1 and len(err) < 200, err[:300]


def test_reused_parser_matches_a_fresh_one(tmp_path, capsys, monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    polygon = gen(tmp_path, capsys, "polygon", "4")
    pyramid = gen(tmp_path, capsys, "polygon", "4", "--pyramid")
    # each pair sets an option, then leaves it out or takes another branch
    sequence = [
        ["compute", "--input", polygon, "--method", "flag"],
        ["compute", "--input", polygon],
        ["shell", "--input", polygon, "--order", "f1", "f2", "f3", "f4"],
        ["shell", "--input", pyramid, "--pi", "b:f1", "b:f2", "a:r3", "a:r4", "b:f4"],
        ["check", "--input", polygon, "--what", "nothing"],
        ["check", "--input", polygon, "--what", "eulerian"],
        ["report", "--corpus", "polygons:3..4"],
        ["report"],
    ]
    reused = [run(capsys, *argv) for argv in sequence]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = [run(capsys, *argv) for argv in sequence]
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 0, 0, 0, 2, 0, 0, 0]


def test_dispatch_reads_the_module_at_call_time(tmp_path, capsys, monkeypatch):
    path = gen(tmp_path, capsys, "polygon", "4")
    seen = []
    monkeypatch.setattr(cli, "cmd_check", lambda args: seen.append(args.what) or 7)
    code, out, _ = run(capsys, "check", "--input", path, "--what", "eulerian")
    assert (code, out, seen) == (7, "", ["eulerian"])


@pytest.mark.parametrize(
    "raw, message",
    [
        (b"\xff", "is not valid JSON: 'utf-8' codec can't decode"),
        (b"[" * 100000 + b"]" * 100000, "is not valid JSON"),
        (b'{"rank": 1, "elem', "is not valid JSON"),
    ],
    ids=["not-utf8", "nested-too-deep", "truncated"],
)
def test_unparsable_input_exits_2(tmp_path, capsys, raw, message):
    path = tmp_path / "bad.json"
    path.write_bytes(raw)
    for argv in (["compute"], ["check", "--what", "eulerian"]):
        code, out, err = run(capsys, *argv, "--input", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"error: {path} {message}")


@pytest.mark.parametrize("target", ["missing/p.json", "."], ids=["no-dir", "is-dir"])
def test_gen_unwritable_out_exits_2(tmp_path, capsys, target):
    path = tmp_path / target
    code, out, err = run(capsys, "gen", "polygon", "4", "--out", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {path}: ")


def _poset_body(rank, elements, covers):
    return {
        "rank": rank,
        "elements": [{"id": e, "deg": d} for e, d in elements],
        "covers": covers,
    }


@pytest.mark.parametrize(
    "body, message",
    [
        (_poset_body(1, [("b", 0), ("a", 1), ("t", 2)],
                     [["b", "a"], ["a", "t"], ["a", "zz"]]),
         "cover mentions unknown element 'zz'"),
        (_poset_body(-1, [("b", 0)], []), "rank must be >= 0"),
        (_poset_body(1, [("b1", 0), ("b2", 0), ("a", 1), ("t", 2)],
                     [["b1", "a"], ["b2", "a"], ["a", "t"]]),
         "need exactly one degree-0 element, got ['b1', 'b2']"),
        (_poset_body(1, [("b", 0), ("a", 1), ("t", 2), ("z", 5)],
                     [["b", "a"], ["a", "t"]]),
         "degree 5 out of range for rank 1"),
        (_poset_body(2, [("b", 0), ("a", 1), ("c", 2), ("x", 2), ("t", 3)],
                     [["b", "a"], ["a", "c"], ["c", "t"], ["x", "t"]]),
         "element x covers nothing"),
        (_poset_body(1, [("b", 0), ("a", 1), ("t", 2)],
                     [["b", "a"], ["b", "t"], ["a", "t"], ["b", "t"]]),
         "cover b < t jumps from degree 0 to 2"),
        # long ids and id lists are cut to their head and tail
        (_poset_body(1, [("b", 0), ("a", 1), ("t", 2)],
                     [["b", "a"], ["a", "t"], ["a", "x" * 5000]]),
         "cover mentions unknown element 'xxxxxxxxxxxxxxxxx...xxxxxxxx'"),
        (_poset_body(1, [(f"b{i:04}", 0) for i in range(3001)] + [("a", 1), ("t", 2)],
                     [["b0000", "a"], ["a", "t"]]),
         "need exactly one degree-0 element, got ['b0000', 'b0001',... 'b3000']"),
        (_poset_body(2, [("b", 0), ("a", 1), ("c", 2), ("y" * 5000, 2), ("t", 3)],
                     [["b", "a"], ["a", "c"], ["c", "t"], ["y" * 5000, "t"]]),
         "element yyyyyyyyyyyyyyyyyy...yyyyyyyyy covers nothing"),
        (_poset_body(2, [("b", 0), ("a", 1), ("z" * 5000, 1), ("c", 2), ("t", 3)],
                     [["b", "a"], ["a", "c"], ["c", "t"], ["b", "z" * 5000],
                      ["z" * 5000, "t"]]),
         "cover zzzzzzzzzzzzzzzzzz...zzzzzzzzz < t jumps from degree 1 to 3"),
    ],
    ids=["unknown-cover", "negative-rank", "two-bottoms", "degree-range",
         "covers-nothing", "degree-jump", "unknown-cover-long", "two-bottoms-long",
         "covers-nothing-long", "degree-jump-long"],
)
def test_graded_poset_axioms_exit_2(tmp_path, capsys, body, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(body))
    code, out, err = run(capsys, "compute", "--input", str(path))
    assert code == 2 and out == ""
    assert err == f"error: {path} is not a valid poset: {message}\n"
    assert err.count("\n") == 1 and len(err) < 200


@pytest.mark.parametrize(
    "body, message",
    [
        (_poset_body(1, [("a", 1), ("a", 1)], []), "duplicate element ids"),
        (_poset_body(1, [("_bot", 1)], []), "cannot adjoin bottom: id '_bot' taken"),
        (_poset_body(1, [("_top", 1)], []), "cannot adjoin top: id '_top' taken"),
        (_poset_body(2, [("a", 1)], []),
         "cannot adjoin top above degree != 2: ['a']"),
        (_poset_body(2, [(f"e{i:04}", 2) for i in range(5000)], []),
         "cannot adjoin bottom below degree != 1: ['e0000', 'e0001',... 'e4999']"),
        (_poset_body(2, [("b", 0)] + [(f"a{i:04}", 1) for i in range(5000)],
                     [["b", f"a{i:04}"] for i in range(5000)]),
         "cannot adjoin top above degree != 2: ['a0000', 'a0001',... 'a4999']"),
    ],
    ids=["duplicate-ids", "bottom-taken", "top-taken", "top-above-low-degree",
         "bottom-below-long", "top-above-long"],
)
def test_from_json_rejections_exit_2(tmp_path, capsys, body, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(body))
    code, out, err = run(capsys, "compute", "--input", str(path))
    assert code == 2 and out == ""
    assert err == f"error: {path} is not a valid poset: {message}\n"
    assert err.count("\n") == 1 and len(err) < 200


def test_exit_3_is_per_route(tmp_path, capsys):
    # not Eulerian (the coatoms cover 3, 2 and 1 atoms), yet its flag
    # h-vector is the image of c^2 + d: the flag and operator routes answer,
    # Stanley's recursion finds an odd sum and exits 3, and only check
    # --what eulerian decides
    body = _poset_body(
        2,
        [("b", 0), ("1", 1), ("2", 1), ("3", 1), ("A", 2), ("B", 2), ("C", 2),
         ("t", 3)],
        [["b", "1"], ["b", "2"], ["b", "3"], ["1", "A"], ["2", "A"], ["3", "A"],
         ["1", "B"], ["2", "B"], ["3", "C"], ["A", "t"], ["B", "t"], ["C", "t"]],
    )
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(body))
    for method in ("flag", "operator"):
        assert run(capsys, "compute", "--input", str(path), "--method", method) == (
            0, "c^2 + d\n", "")
    for method in ("stanley", "all"):
        assert run(capsys, "compute", "--input", str(path), "--method", method) == (
            3, "", "error: input is not Eulerian\n")
    assert run(capsys, "check", "--input", str(path), "--what", "eulerian") == (
        1, '{"eulerian": false}\n', "")


@pytest.mark.parametrize(
    "argv, code, expected",
    [
        (["compute", "--input", "{polygon}", "--json"], 0,
         '{"flag": "c^2 + 2*d", "match": true, "operator": "c^2 + 2*d", '
         '"stanley": "c^2 + 2*d"}\n'),
        (["shell", "--input", "{polygon}", "--order", "f1", "f2", "f3", "f4",
          "--json"], 0,
         '{"cd_index": "c^2 + 2*d", "steps": ['
         '{"f": "0", "facet": "f2", "g": "1"}, {"f": "0", "facet": "f3", "g": "1"}, '
         '{"f": "c", "facet": "f4", "g": "0"}]}\n'),
        (["shell", "--input", "{pyramid}", "--pi", "b:f1", "b:f2", "a:r3", "a:r4",
          "b:f4", "--json"], 0,
         '{"cd_index": "c^3 + 3*cd + 3*dc", "pi": ["b:f1", "b:f2", "a:r3", '
         '"a:r4", "b:f4"]}\n'),
        (["shell", "--input", "{polygon}", "--order", "f1", "f2"], 2,
         "error: order must list every maximal element exactly once\n"),
        (["shell", "--input", "{chain}", "--pi", "x1"], 2,
         "error: decomposition needs rank >= 2\n"),
        (["report", "--corpus", ","], 2, "error: empty corpus\n"),
    ],
    ids=["compute-all-json", "shell-order-json", "shell-pi-json",
         "shell-incomplete-order", "shell-pi-rank-1", "empty-corpus"],
)
def test_cli_branches(tmp_path, capsys, argv, code, expected):
    paths = {
        "{polygon}": gen(tmp_path, capsys, "polygon", "4"),
        "{pyramid}": gen(tmp_path, capsys, "polygon", "4", "--pyramid"),
        "{chain}": gen(tmp_path, capsys, "chain", "1"),
    }
    got_code, out, err = run(capsys, *(paths.get(a, a) for a in argv))
    assert got_code == code
    assert (out, err) == ((expected, "") if code == 0 else ("", expected))
