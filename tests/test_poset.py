import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdindex import poset as pm
from cdindex.flags import flag_f
from cdindex.homology import _interval_complex
from cdindex.poset import (
    GradedPoset,
    InvalidPoset,
    barycentric,
    build_family,
    build_pyramid,
    chain,
    cube_fan,
    crosspoly_fan,
    ideal,
    induced_subposet,
    is_eulerian,
    mobius,
    polygon,
    simplex_fan,
    skeleton,
    star,
    strict_ideal,
)

from conftest import is_isomorphic, random_graded_poset, reduced_euler, relabeled


def degree_counts(p):
    return [len(p.elements_of_degree(d)) for d in range(p.rank + 2)]


def test_polygon_counts():
    assert degree_counts(polygon(3)) == [1, 3, 3, 1]
    assert degree_counts(polygon(7)) == [1, 7, 7, 1]


def test_builder_param_validation():
    with pytest.raises(ValueError):
        polygon(2)
    with pytest.raises(ValueError):
        simplex_fan(0)
    with pytest.raises(ValueError):
        chain(-1)
    with pytest.raises(ValueError):
        build_family("heptagon", 7)


def test_family_isomorphisms():
    assert is_isomorphic(build_family("polygon", 4), build_family("cube_fan", 2))
    assert is_isomorphic(simplex_fan(2), polygon(3))
    assert is_isomorphic(crosspoly_fan(2), polygon(4))
    assert not is_isomorphic(polygon(4), polygon(5))
    # same size, same degree counts, different incidence
    assert not is_isomorphic(cube_fan(3), crosspoly_fan(3))


def test_chain_is_one_per_degree():
    c = chain(3)
    assert degree_counts(c) == [1, 1, 1, 1, 1]
    assert c.rank == 3


def test_pyramid_counts_and_shape():
    assert degree_counts(build_pyramid(polygon(4))) == [1, 5, 8, 5, 1]
    for k in (3, 5, 6):
        assert degree_counts(build_pyramid(polygon(k))) == [1, k + 1, 2 * k, k + 1, 1]
    assert is_isomorphic(build_pyramid(polygon(3)), simplex_fan(3))
    assert is_isomorphic(build_pyramid(simplex_fan(3)), simplex_fan(4))


def test_pyramid_rejects_rank_zero_base():
    base = chain(0)
    with pytest.raises(ValueError):
        build_pyramid(base)


def test_validation_catches_broken_posets():
    with pytest.raises(InvalidPoset):
        GradedPoset(1, {"_bot": 0, "a": 1}, [("_bot", "a")])  # no top
    with pytest.raises(InvalidPoset):
        GradedPoset(
            2,
            {"_bot": 0, "a": 1, "_top": 3},
            [("_bot", "a"), ("a", "_top")],  # cover jumps two degrees
        )
    with pytest.raises(InvalidPoset):
        GradedPoset(
            1,
            {"_bot": 0, "a": 1, "b": 1, "_top": 2},
            [("_bot", "a"), ("a", "_top")],  # b is disconnected
        )


def test_builders_validate(rng):
    for p in [polygon(5), simplex_fan(4), cube_fan(3), crosspoly_fan(3), chain(2)]:
        # re-run validation on a rebuilt copy
        GradedPoset(p.rank, {e: p.degree(e) for e in p.elements()}, p.covers())
    for _ in range(20):
        random_graded_poset(rng)


@pytest.mark.parametrize("kind, n", [("polygon", 5), ("simplex_fan", 4),
                                     ("cube_fan", 3), ("crosspoly_fan", 3),
                                     ("chain", 3)])
def test_covers_are_the_sorted_distinct_input_covers(monkeypatch, rng, kind, n):
    inputs = []
    init = GradedPoset.__init__

    def recording_init(self, rank, degrees, covers):
        covers = list(covers)
        inputs.append(covers)
        init(self, rank, degrees, covers)

    monkeypatch.setattr(GradedPoset, "__init__", recording_init)
    p = build_family(kind, n)
    q = build_pyramid(p)
    assert len(inputs) == 2
    assert p.covers() == sorted(set(inputs[0]))
    assert q.covers() == sorted(set(inputs[1]))
    # repeated covers, in any order, are held once
    covers = inputs[0] * 2 + inputs[0][:3]
    rng.shuffle(covers)
    again = GradedPoset(p.rank, {e: p.degree(e) for e in p.elements()}, covers)
    assert again.covers() == p.covers()
    assert again.dumps() == p.dumps()


def test_a_poset_holds_its_covers_once():
    # per element a poset keeps its id, degree, index entry and cover lists;
    # a second, set-based copy of the covers would double its size
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        posets = [cube_fan(6) for _ in range(10)]
        per_poset = (tracemalloc.get_traced_memory()[0] - start) / len(posets)
    finally:
        tracemalloc.stop()
    assert per_poset < 300 * 1024, f"{per_poset / 1024:.0f} KiB per cube_fan(6)"


def test_order_queries():
    p = polygon(4)
    assert p.leq("_bot", "f2") and p.leq("r2", "f2") and not p.leq("r1", "f2")
    assert p.leq("f1", "f1")
    assert set(p.up_set("r1")) == {"r1", "f1", "f4", "_top"}
    interval = lambda x, y: set(p.up_set(x)) & set(p.down_set(y))
    assert interval("_bot", "f1") == {"_bot", "r1", "r2", "f1"}
    assert interval("_bot", "_top") - {"_bot", "_top"} == set(p.proper_elements())


def assert_upper_covers_are_two_element_intervals(p):
    # j covers i iff the closed interval [i, j] has two elements, so the top
    # has no upper cover; read the other way, the upper covers are the covers
    ix, ids = p.index_data(), p.elements()
    for i, e in enumerate(ids):
        above = pm.mask_indices(ix.up[i])
        covering = [j for j in above if (ix.up[i] & ix.down[j]).bit_count() == 2]
        assert p.upper_covers(e) == tuple(ids[j] for j in covering)
    assert p.upper_covers(p.top) == ()
    assert sorted((e, u) for e in ids for u in p.upper_covers(e)) == p.covers()


def test_index_data_matches_covers(rng):
    posets = [pm.build_pyramid(pm.polygon(4))]
    posets += [random_graded_poset(rng) for _ in range(20)]
    for p in posets:
        ix = p.index_data()
        ids = p.elements()
        assert ix is p.index_data()
        assert ix.deg == tuple(p.degree(e) for e in ids)
        assert ix.index == {e: i for i, e in enumerate(ids)}
        pairs = [(i, j) for j in range(len(ids)) for i in ix.cov_down[j]]
        assert sorted((ids[i], ids[j]) for i, j in pairs) == p.covers()
        assert all(list(c) == sorted(c) for c in ix.cov_down)
        assert_upper_covers_are_two_element_intervals(p)
        for d in range(p.rank + 2):
            layer = [ids[i] for i in pm.mask_indices(ix.layers[d])]
            assert layer == list(p.elements_of_degree(d))
        # order closure from the lower covers alone, lowest degree first
        below = {}
        for e in ids:
            below[e] = {e}.union(*(below[c] for c in p.lower_covers(e)))
        for i, x in enumerate(ids):
            for j, y in enumerate(ids):
                assert bool(ix.down[j] >> i & 1) == bool(ix.up[i] >> j & 1)
                assert bool(ix.up[i] >> j & 1) == (x in below[y])
    for family in (simplex_fan, cube_fan, crosspoly_fan):
        for n in range(1, 5):
            base = family(n)
            for p in (base, build_pyramid(base), barycentric(base).bposet):
                assert_upper_covers_are_two_element_intervals(p)


def test_mobius_values():
    p = polygon(5)
    assert mobius(p, "r1", "r1") == 1
    assert mobius(p, "r1", "f1") == -1
    assert mobius(p, p.bottom, p.top) == -1
    with pytest.raises(ValueError):
        mobius(p, "r1", "f2")
    assert mobius(chain(2), "_bot", "_top") == 0


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(
    st.one_of(
        st.randoms(use_true_random=False).map(
            lambda rnd: random_graded_poset(rnd, max_rank=4, max_width=3)
        ),
        st.sampled_from(
            [polygon(5), simplex_fan(3), cube_fan(3), crosspoly_fan(3), chain(3)]
            + [build_pyramid(polygon(4)), barycentric(polygon(3)).bposet]
        ),
    )
)
def test_mobius_is_reduced_euler_characteristic(p):
    # P. Hall's theorem (Stanley, Enumerative Combinatorics I, Prop. 3.8.5):
    # mu(x, y) is the reduced Euler characteristic of the order complex of
    # the open interval (x, y)
    for x in p.elements():
        for y in p.up_set(x)[1:]:
            assert mobius(p, x, y) == reduced_euler(_interval_complex(p, x, y))


def test_eulerian():
    assert is_eulerian(polygon(3))
    assert is_eulerian(polygon(9))
    assert is_eulerian(build_pyramid(polygon(4)))
    assert not is_eulerian(chain(2))


def test_eulerian_matches_mobius_criterion(rng):
    for _ in range(60):
        p = random_graded_poset(rng)
        via_mobius = all(
            mobius(p, x, y) == (-1) ** (p.degree(y) - p.degree(x))
            for x in p.elements()
            for y in p.up_set(x)
        )
        assert is_eulerian(p) == via_mobius


def test_skeleton_star_ideal():
    p = polygon(5)
    sk = skeleton(p, 1)
    assert sk.poset.rank == 1
    assert len(sk.poset) == 1 + 5 + 1
    assert star(p, "r1") == {"r1", "f1", "f5"}

    pyr = build_pyramid(polygon(4))
    square = ideal(pyr, "b:_top")
    assert square.poset.rank == 2
    assert is_isomorphic(square.poset, polygon(4))
    bnd = strict_ideal(pyr, "b:_top")
    assert is_isomorphic(bnd.poset, polygon(4))
    edge = strict_ideal(pyr, "b:f1")
    assert edge.poset.rank == 1 and len(edge.poset.elements_of_degree(1)) == 2

    with pytest.raises(ValueError):
        skeleton(p, 3)


def test_skeleton_of_chain_keeps_level():
    sk = skeleton(chain(2), 1)
    assert sk.poset.rank == 1
    assert degree_counts(sk.poset) == [1, 1, 1]


def test_induced_subposet_empty():
    p = polygon(4)
    sub = induced_subposet(p, [])
    assert sub.poset is None and sub.members == frozenset()


def test_barycentric_polygon():
    b = barycentric(polygon(3))
    assert is_isomorphic(b.bposet, polygon(6))
    assert b.typeset["r1<f1"] == frozenset({1, 2})
    assert b.projection["r1<f1"] == "f1"
    assert b.projection[b.bposet.bottom] == "_bot"


def test_barycentric_chain1_fixed_point():
    b = barycentric(chain(1))
    assert is_isomorphic(b.bposet, chain(1))


def test_barycentric_degree_counts_are_chain_counts():
    p = build_pyramid(polygon(3))
    b = barycentric(p)
    # elements of degree k in B(P) are the k-chains of the proper part
    from itertools import combinations

    proper = p.proper_elements()
    for k in range(1, p.rank + 1):
        chains = sum(
            1
            for combo in combinations(proper, k)
            # distinct elements, so <= here is <
            if all(p.leq(a, b2) or p.leq(b2, a) for a, b2 in combinations(combo, 2))
        )
        assert len(b.bposet.elements_of_degree(k)) == chains


@pytest.mark.parametrize(
    "p, count",
    [
        (polygon(5), 21),
        (chain(4), 16),
        (simplex_fan(4), 541),
        (build_pyramid(cube_fan(3)), 1069),
    ],
    ids=["polygon5", "chain4", "simplex_fan4", "pyramid_cube_fan3"],
)
def test_chain_count_matches_flag_f(p, count):
    ix, ids = p.index_data(), p.elements()
    levels = list(pm.chain_levels(ix, ix.up[0] & ~(1 | 1 << len(ids) - 1)))
    assert all(len(ch) == k for k, level in enumerate(levels) for ch in level)
    assert all(level == sorted(level) for level in levels)
    chains = [tuple(ids[i] for i in ch) for level in levels for ch in level]
    assert chains[0] == ()
    assert all(
        p.degree(x) < p.degree(y) for ch in chains for x, y in zip(ch, ch[1:])
    )
    assert len(set(chains)) == len(chains) == count
    # f_S counts the chains with degree set S, the empty chain included
    assert sum(flag_f(p).terms.values()) == count
    # B(P) has one element per chain, plus its fresh top
    assert len(barycentric(p).bposet) - 1 == count


def test_barycentric_preserves_eulerian(rng):
    for p in [polygon(3), polygon(4), build_pyramid(polygon(3)), cube_fan(2)]:
        assert is_eulerian(p)
        assert is_eulerian(barycentric(p).bposet)


def test_json_roundtrip():
    p = build_pyramid(polygon(4))
    q = pm.loads(p.dumps())
    assert q.covers() == p.covers()
    assert q.dumps() == p.dumps()


def test_json_adjoins_missing_ends():
    data = {
        "rank": 1,
        "elements": [{"id": "a", "deg": 1}, {"id": "b", "deg": 1}],
        "covers": [],
    }
    with pytest.warns(UserWarning, match="adjoined"):
        p = pm.from_json(data)
    assert p.bottom == "_bot" and p.top == "_top"
    assert degree_counts(p) == [1, 2, 1]


def test_json_rejects_garbage():
    with pytest.raises(InvalidPoset):
        pm.from_json(
            {
                "rank": 2,
                "elements": [{"id": "a", "deg": 2}],
                "covers": [],
            }
        )


def test_isomorphism_invariance_under_relabeling(rng):
    for p in [polygon(6), build_pyramid(polygon(4)), cube_fan(3)]:
        assert is_isomorphic(p, relabeled(p, rng))


@pytest.mark.parametrize(
    "members, adjoin_top, message",
    [
        ({"r1"}, True, "subposet members must include the bottom"),
        (set(polygon(3).elements()), True, "cannot adjoin top: id '_top' taken"),
        ({"_bot", "r1", "r2"}, False, "subposet needs a unique maximal element as top"),
    ],
    ids=["no-bottom", "top-taken", "two-maximal"],
)
def test_induced_subposet_rejections(members, adjoin_top, message):
    with pytest.raises(InvalidPoset) as info:
        induced_subposet(polygon(3), members, adjoin_top=adjoin_top)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "build, message",
    [(star, "star of the top is not defined"),
     (ideal, "ideal of the top is the whole poset")],
    ids=["star", "ideal"],
)
def test_star_and_ideal_of_the_top(build, message):
    p = polygon(4)
    with pytest.raises(ValueError) as info:
        build(p, p.top)
    assert str(info.value) == message
