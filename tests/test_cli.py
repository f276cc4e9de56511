import json
import random
import time

import pytest

from cdindex import cli
from cdindex import poset as poset_mod
from cdindex.cdpoly import enumerate_cd_words
from cdindex.cli import _FAMILY_SIZES, main

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
    # a reversed range is an error, not an empty member list
    for corpus in ("polygons:5..3,chain:2", "chain:4..2"):
        code, out, err = run(capsys, "report", "--corpus", corpus)
        assert code == 2 and out == "" and "bad corpus entry" in err
        assert "reversed range" in err


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


@pytest.mark.parametrize("kind", sorted(poset_mod._FAMILIES))
def test_family_sizes_match_builders(kind):
    # the closed forms the caps are checked on, against what gets built
    for n in range({"polygon": 3}.get(kind, 1), 6):
        p = poset_mod.build_family(kind, n)
        assert _FAMILY_SIZES[kind](n) == (len(p.elements()), p.rank)
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


def test_gen_writes_past_the_rank_cap_only(capsys, monkeypatch):
    # gen does the work of the element count, not of the rank
    monkeypatch.setenv("CDINDEX_MAX_RANK", "2")
    code, out, _ = run(capsys, "gen", "chain", "5")
    assert code == 0 and json.loads(out)["rank"] == 5
    monkeypatch.setenv("CDINDEX_MAX_ELEMENTS", "7")
    code, out, err = run(capsys, "gen", "chain", "6")
    assert code == 2 and out == "" and "chain(6) has 8 elements" in err


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
    ],
)
def test_malformed_json_shape_exits_2(tmp_path, capsys, body):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(body))
    for argv in (["compute"], ["check", "--what", "eulerian"]):
        code, out, err = run(capsys, *argv, "--input", str(path))
        assert code == 2 and out == "" and "not a valid poset" in err


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
