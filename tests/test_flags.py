import itertools
from bisect import bisect_left
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdindex.cdpoly import CdPolynomial, NotACdPolynomial, SubsetPolynomial, phi_expand
from cdindex.flags import (
    cd_index_flag,
    flag_f,
    flag_h,
    skeleton_poincare,
    verify_duality,
)
from cdindex.operators import cd_index_operator
from cdindex.poset import (
    GradedPoset,
    barycentric,
    build_pyramid,
    chain,
    crosspoly_fan,
    cube_fan,
    polygon,
    simplex_fan,
)
from cdindex.recursion import cd_index_stanley

from conftest import (
    ORACLE_INPUTS,
    acceptance_corpus,
    gorenstein_posets,
    random_graded_poset,
)


def _subsets(n):
    """Every subset of 1..n, in the order of its mask."""
    for mask in range(1 << n):
        yield frozenset(i + 1 for i in range(n) if mask >> i & 1)


def brute_force_flag_f(p):
    """Chain counting by explicit enumeration (exponential, for oracles)."""
    proper = p.proper_elements()
    entries = {frozenset(): 1}
    for k in range(1, p.rank + 1):
        for combo in itertools.combinations(proper, k):
            if all(
                p.lt(a, b) or p.lt(b, a) for a, b in itertools.combinations(combo, 2)
            ):
                s = frozenset(p.degree(e) for e in combo)
                if len(s) == k:
                    entries[s] = entries.get(s, 0) + 1
    return entries


def _flag_f_by_dicts(poset):
    """Chain counts extended one degree at a time, on dicts keyed by the top
    element of the chain: the former library route, kept as the oracle for
    the packed one.  The degree sets are walked depth first, and a set with
    no chains ends its branch."""
    n = poset.rank
    ix = poset.index_data()
    start = ix.layer_start
    flat, offset = ix.below
    totals = [0] * (1 << n)
    totals[0] = 1

    def extend(mask, a, counts):
        # counts[j]: chains with degree set mask whose top element is j
        total = sum(counts.values())
        if not total:
            return
        totals[mask] = total
        get = counts.__getitem__
        lo, hi = start[a], start[a + 1]
        for b in range(a + 1, n + 1):
            step = {}
            for j in range(start[b], start[b + 1]):
                last = offset[j + 1]
                first = bisect_left(flat, lo, offset[j], last)
                step[j] = sum(map(get, flat[first : bisect_left(flat, hi, first, last)]))
            extend(mask | 1 << (b - 1), b, step)

    for a in range(1, n + 1):
        extend(1 << (a - 1), a, dict.fromkeys(range(start[a], start[a + 1]), 1))
    return SubsetPolynomial(n, {s: t for s, t in zip(_subsets(n), totals) if t})


def _flag_h_by_subsets(f):
    """Inclusion-exclusion over every subset of every subset, O(3^n): the
    former library transform, kept as the oracle for the subset-sum one."""
    terms = {}
    for t in _subsets(f.n):
        acc = 0
        # iterate over subsets of t
        tl = sorted(t)
        for mask in range(1 << len(tl)):
            s = frozenset(tl[i] for i in range(len(tl)) if mask >> i & 1)
            acc += (-1) ** (len(t) - len(s)) * f.terms.get(s, 0)
        if acc:
            terms[t] = acc
    return SubsetPolynomial(f.n, terms)


def test_flag_f_polygon():
    f = flag_f(polygon(4))
    assert f.get([1]) == 4 and f.get([2]) == 4 and f.get([1, 2]) == 8
    assert f.get([]) == 1


def test_flag_f_pyramid_matches_enumeration():
    pyr = build_pyramid(polygon(4))
    f = flag_f(pyr)
    assert f.get([1]) == 5 and f.get([2]) == 8 and f.get([3]) == 5
    assert f.get([1, 2]) == 16 and f.get([2, 3]) == 16 and f.get([1, 3]) == 16
    assert f.get([1, 2, 3]) == 32
    assert f.terms == brute_force_flag_f(pyr)


def test_flag_f_matches_enumeration_on_corpus():
    for p in [polygon(5), simplex_fan(3), cube_fan(3), chain(2)]:
        assert flag_f(p).terms == brute_force_flag_f(p)


def test_flag_f_counts_barycentric_degrees():
    for p in [polygon(4), build_pyramid(polygon(3))]:
        f = flag_f(p)
        b = barycentric(p)
        for s, value in f.terms.items():
            if s:
                got = sum(1 for e, t in b.typeset.items() if t == s)
                assert got == value


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(st.randoms(use_true_random=False))
def test_flag_f_matches_enumeration_oracle(rnd):
    p = random_graded_poset(rnd, max_rank=5, max_width=3)
    assert flag_f(p).terms == brute_force_flag_f(p)


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(st.randoms(use_true_random=False))
def test_flag_h_matches_subset_oracle(rnd):
    # flag vectors of random posets, and arbitrary integer subset data with
    # missing terms up to n = 7
    p = random_graded_poset(rnd, max_rank=5)
    f = flag_f(p)
    assert flag_h(f) == _flag_h_by_subsets(f)
    n = rnd.randint(0, 7)
    g = SubsetPolynomial(
        n, {s: rnd.randint(-3, 3) for s in _subsets(n) if rnd.random() < 0.7}
    )
    h = flag_h(g)
    assert h == _flag_h_by_subsets(g)
    assert all(h.terms.values())


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(ORACLE_INPUTS)
def test_packed_flag_f_matches_dict_oracle(p):
    assert flag_f(p).terms == _flag_f_by_dicts(p).terms


def test_packed_flag_f_matches_dict_oracle_at_scale():
    # the acceptance corpus, and three fans that no enumeration reaches
    posets = [p for _, p in acceptance_corpus()]
    posets += [simplex_fan(9), cube_fan(7), crosspoly_fan(7)]
    for p in posets:
        assert flag_f(p).terms == _flag_f_by_dicts(p).terms


def ordinal_sum_of_antichains(sizes):
    """Antichains of these sizes stacked, each element below every element
    of the next layer: f_S is the product of the sizes of the layers in S."""
    layers = [[f"x{d}_{i}" for i in range(size)] for d, size in enumerate(sizes, 1)]
    degrees = {"_bot": 0, "_top": len(sizes) + 1}
    degrees |= {e: d for d, layer in enumerate(layers, 1) for e in layer}
    chain_of_layers = [["_bot"]] + layers + [["_top"]]
    covers = [
        (lo, hi)
        for low, high in zip(chain_of_layers, chain_of_layers[1:])
        for lo in low
        for hi in high
    ]
    return GradedPoset(len(sizes), degrees, covers)


# the full set's count, the product of all sizes, fills its slot exactly
# (255 in one byte, 65535 in two), or needs one bit past a whole byte
# (256, 65536), so one bit less of slot width or of bound loses it
@pytest.mark.parametrize(
    "sizes", [(3, 5, 17), (15, 17, 257), (16, 16), (4, 4, 4, 4), (16, 16, 16, 16)]
)
def test_flag_f_at_the_slot_width_bound(sizes):
    f = flag_f(ordinal_sum_of_antichains(sizes))
    assert f.terms == {s: prod(sizes[a - 1] for a in s) for s in _subsets(len(sizes))}


def test_flag_vector_json():
    f = flag_f(polygon(3))
    assert f.to_json() == {
        "n": 2,
        "terms": {"": 1, "1": 3, "2": 3, "1,2": 6},
    }


def test_flag_h_polygon():
    for k in (3, 5, 8):
        h = flag_h(flag_f(polygon(k)))
        assert h.get([]) == 1
        assert h.get([1]) == k - 1
        assert h.get([2]) == k - 1
        assert h.get([1, 2]) == 1


def test_flag_h_chain2():
    h = flag_h(flag_f(chain(2)))
    assert h.get([1]) == 0 and h.get([2]) == 0 and h.get([1, 2]) == 0
    assert h.get([]) == 1


def test_flag_h_inversion():
    # f_S = sum over T inside S of h_T
    for p in [polygon(6), build_pyramid(polygon(4)), simplex_fan(3)]:
        f = flag_f(p)
        h = flag_h(f)
        n = p.rank
        for mask in range(1 << n):
            s = frozenset(i + 1 for i in range(n) if mask >> i & 1)
            total = 0
            tl = sorted(s)
            for sub in range(1 << len(tl)):
                t = frozenset(tl[i] for i in range(len(tl)) if sub >> i & 1)
                total += h.get(t)
            assert total == f.get(s)


def test_cd_index_flag_values():
    for k in range(3, 10):
        assert cd_index_flag(polygon(k)) == CdPolynomial({"cc": 1, "d": k - 2})
    assert cd_index_flag(build_pyramid(polygon(4))) == CdPolynomial(
        {"ccc": 1, "cd": 3, "dc": 3}
    )
    with pytest.raises(NotACdPolynomial):
        cd_index_flag(chain(2))


def test_cube_and_crosspolytope_values():
    # anchors derivable by hand: h_{1} = #vertices - 1 = 1 + (dc coefficient)
    # and h_{n} = #facets - 1 = 1 + (cd coefficient)
    assert cd_index_flag(cube_fan(3)) == CdPolynomial(
        {"ccc": 1, "cd": 4, "dc": 6}  # 8 vertices, 6 facets
    )
    from cdindex.poset import crosspoly_fan

    assert cd_index_flag(crosspoly_fan(3)) == CdPolynomial(
        {"ccc": 1, "cd": 6, "dc": 4}  # 6 vertices, 8 facets
    )


def test_cn_coefficient_is_one():
    for p in [polygon(5), simplex_fan(4), cube_fan(3), build_pyramid(cube_fan(3))]:
        ix = cd_index_flag(p)
        assert ix.coefficient("c" * p.rank) == 1


def test_verify_duality():
    assert verify_duality(polygon(6))
    assert verify_duality(build_pyramid(polygon(4)))
    # chain(2) has h_1 = h_2 = 0 but h_empty = 1 != h_{1,2} = 0
    assert not verify_duality(chain(2))


def test_verify_duality_matches_complements(rng):
    # the reversal test against h_S = h_(complement of S) subset by subset
    for _ in range(40):
        p = random_graded_poset(rng)
        h = flag_h(flag_f(p))
        full = frozenset(range(1, p.rank + 1))
        expected = all(h.get(s) == h.get(full - s) for s in _subsets(p.rank))
        assert verify_duality(p) == expected


def test_eulerian_implies_cd_exists_and_methods_agree(rng):
    # the gates are one-way: Eulerian posets always pass the flag and
    # recursion routes, and the operator route joins whenever the poset is
    # Gorenstein* (non-Eulerian ones may slip through any single gate)
    from cdindex.homology import is_gorenstein_star
    from cdindex.operators import cd_index_operator
    from cdindex.poset import is_eulerian
    from cdindex.recursion import cd_index_stanley

    from conftest import random_graded_poset

    found = 0
    for _ in range(200):
        p = random_graded_poset(rng)
        if not is_eulerian(p):
            continue
        found += 1
        ix = cd_index_flag(p)
        assert cd_index_stanley(p) == ix
        if is_gorenstein_star(p):
            assert cd_index_operator(p) == ix
    assert found >= 10


def test_each_eulerian_gate_misses_a_non_eulerian_poset():
    from cdindex.poset import GradedPoset, is_eulerian
    from cdindex.recursion import NonIntegralResult, cd_index_stanley

    # three atoms and three coatoms with six covers: h-data of the triangle,
    # but the interval below y1 holds one atom
    xs, ys = ["x1", "x2", "x3"], ["y1", "y2", "y3"]
    covers = [("_bot", x) for x in xs] + [(y, "_top") for y in ys]
    covers += [("x1", "y1"), ("x2", "y2"), ("x3", "y2")]
    covers += [(x, "y3") for x in xs]
    degrees = {"_bot": 0, "_top": 3, **dict.fromkeys(xs, 1), **dict.fromkeys(ys, 2)}
    p = GradedPoset(2, degrees, covers)
    assert not is_eulerian(p)
    assert cd_index_flag(p) == cd_index_flag(polygon(3))
    with pytest.raises(NonIntegralResult):
        cd_index_stanley(p)

    # four atoms: 4c halves to 2c, but h_1 = 3 != h_empty
    atoms = ["x1", "x2", "x3", "x4"]
    covers = [("_bot", x) for x in atoms] + [(x, "_top") for x in atoms]
    q = GradedPoset(1, {"_bot": 0, "_top": 2, **dict.fromkeys(atoms, 1)}, covers)
    assert not is_eulerian(q)
    assert cd_index_stanley(q) == CdPolynomial({"c": 2})
    with pytest.raises(NotACdPolynomial):
        cd_index_flag(q)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(gorenstein_posets())
def test_three_methods_agree_and_are_nonnegative(p):
    ix = cd_index_flag(p)
    assert cd_index_stanley(p) == ix
    assert cd_index_operator(p) == ix
    assert ix.coefficient("c" * p.rank) == 1
    assert all(v >= 0 for v in ix.terms.values())


def test_skeleton_poincare_pyramid():
    pyr = build_pyramid(polygon(4))
    got = skeleton_poincare(pyr, 2)
    f_part = phi_expand(CdPolynomial({"cc": 1, "d": 3}))
    g_part = phi_expand(CdPolynomial({"c": 3})).shift_in(2)
    assert got == f_part + g_part


def test_skeleton_poincare_ends():
    pyr = build_pyramid(polygon(4))
    assert skeleton_poincare(pyr, 3) == phi_expand(cd_index_flag(pyr))
    assert skeleton_poincare(pyr, 0) == SubsetPolynomial(0, {frozenset(): 1})


def test_skeleton_poincare_rejects_non_eulerian():
    # chain(2) has no cd-index: the flag route's residual is raised, with
    # the message cd_index_flag gives, at every level
    with pytest.raises(NotACdPolynomial) as expected:
        cd_index_flag(chain(2))
    for m in range(3):
        with pytest.raises(NotACdPolynomial) as got:
            skeleton_poincare(chain(2), m)
        assert str(got.value) == str(expected.value)
    with pytest.raises(ValueError, match="out of range"):
        skeleton_poincare(chain(2), 3)


def test_skeleton_poincare_matches_phi_expand():
    # the restricted h-polynomial against the image of the cd-index
    for p in [simplex_fan(5), crosspoly_fan(4), build_pyramid(cube_fan(3))]:
        full = phi_expand(cd_index_flag(p))
        for m in range(p.rank + 1):
            assert skeleton_poincare(p, m) == full.restrict(m)


def test_flag_h_leaves_its_argument():
    f = flag_f(build_pyramid(cube_fan(3)))
    before = list(f.values)
    flag_h(f)
    assert f.values == before


def strip_trailing(p):
    """Write p = F*c + G*d and return (F, G)."""
    f_terms, g_terms = {}, {}
    for w, v in p.terms.items():
        if w.endswith("c"):
            f_terms[w[:-1]] = v
        else:
            g_terms[w[:-1]] = v
    return CdPolynomial(f_terms), CdPolynomial(g_terms)


def test_skeleton_poincare_splits():
    # skeleton data at level m is phi(f_m) + phi(g_m)*t_m where (f_m, g_m)
    # come from iterated trailing-letter strips of the cd-index
    for p in [simplex_fan(4), build_pyramid(polygon(5))]:
        n = p.rank
        f_m = cd_index_flag(p)
        for m in range(n - 1, 0, -1):
            f_m, g_m = strip_trailing(f_m)
            assert f_m.is_homogeneous() and f_m.degree() == m
            assert g_m.is_homogeneous() and g_m.degree() == m - 1
            expected = phi_expand(f_m)
            if g_m:
                expected = expected + phi_expand(g_m).shift_in(m)
            assert skeleton_poincare(p, m) == expected
