import random
import re
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdindex.cdpoly import CdPolynomial, enumerate_cd_words
from cdindex.flags import cd_index_flag
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
from cdindex.recursion import (
    NonIntegralResult,
    _even,
    _slot_bytes,
    _total_bound,
    _unpack,
    _words,
    cd_index_stanley,
)

from conftest import ORACLE_INPUTS, acceptance_corpus, random_graded_poset

_C = CdPolynomial({"c": 1})
_CC_2D = CdPolynomial({"cc": 1, "d": -2})


@lru_cache(maxsize=None)
def _cc_2d_power(j):
    return _CC_2D**j


@lru_cache(maxsize=None)
def _factor(j):
    # the multiplier of a lower index j degrees below the interval's rank,
    # as (word, coefficient) pairs
    if j % 2 == 0:
        return tuple((_C * _cc_2d_power(j // 2)).terms.items())
    return tuple((-_cc_2d_power((j + 1) // 2)).terms.items())


def _cd_index_stanley_grouped(poset, totals=None):
    """The recursion on word -> coefficient dicts, grouped by degree: the
    former library route, kept as the oracle for the packed one.  When
    ``totals`` is a list, every interval's total is appended to it."""
    ix = poset.index_data()
    ids = poset.elements()
    start = ix.layer_start
    flat, offset = ix.below
    memo = [()] * len(ids)
    # indices are sorted by degree, and index 0 is the bottom
    for sigma in range(1, len(ids)):
        n = ix.deg[sigma] - 1
        first, last = offset[sigma], offset[sigma + 1]
        total = {}
        for k in range(1, n + 1):
            group = {}
            lo = bisect_left(flat, start[k], first, last)
            hi = bisect_left(flat, start[k + 1], lo, last)
            for tau in flat[lo:hi]:
                for w, v in memo[tau]:
                    group[w] = group.get(w, 0) + v
            for w1, v1 in group.items():
                for w2, v2 in _factor(n - k):
                    w = w1 + w2
                    total[w] = total.get(w, 0) + v1 * v2
        if n % 2 == 0:
            for w, v in _cc_2d_power(n // 2).terms.items():
                total[w] = total.get(w, 0) + 2 * v
        if totals is not None:
            totals.append(total)
        if any(v % 2 for v in total.values()):
            raise NonIntegralResult(
                f"interval below {ids[sigma]!r} sums to {CdPolynomial(total)}, "
                "not divisible by 2"
            )
        memo[sigma] = tuple((w, v // 2) for w, v in total.items() if v)
    return CdPolynomial(dict(memo[-1]))


def _cd_index_stanley_per_element(poset):
    """The recursion with one polynomial product per lower element: the
    former library route, kept as the oracle for the grouped one."""
    memo = {}

    def interval_index(sigma):
        # cd-index of the rank deg(sigma)-1 poset [bottom, sigma]
        if sigma in memo:
            return memo[sigma]
        n = poset.degree(sigma) - 1
        total = CdPolynomial.zero()
        for tau in poset.down_set(sigma):
            if tau == sigma or tau == poset.bottom:
                continue
            k = poset.degree(tau)
            base = memo[tau]
            if (n - k) % 2 == 0:
                total = total + base * _C * _cc_2d_power((n - k) // 2)
            else:
                total = total - base * _cc_2d_power((n - k + 1) // 2)
        if n % 2 == 0:
            total = total + 2 * _cc_2d_power(n // 2)
        half = CdPolynomial(
            {w: Fraction(v, 2) for w, v in total.terms.items()}
        )
        if not half.is_integral():
            raise NonIntegralResult(
                f"interval below {sigma!r} sums to {total}, not divisible by 2"
            )
        memo[sigma] = half
        return half

    # ascend degree by degree so every lower interval is already memoized
    for d in range(1, poset.rank + 2):
        for sigma in poset.elements_of_degree(d):
            interval_index(sigma)
    return memo[poset.top]


def test_rank_zero_and_one():
    assert cd_index_stanley(chain(0)) == CdPolynomial.one()
    assert cd_index_stanley(simplex_fan(1)) == CdPolynomial({"c": 1})


def test_polygon():
    for k in range(3, 11):
        assert cd_index_stanley(polygon(k)) == CdPolynomial({"cc": 1, "d": k - 2})


def test_pyramid():
    assert cd_index_stanley(build_pyramid(polygon(4))) == CdPolynomial(
        {"ccc": 1, "cd": 3, "dc": 3}
    )


def test_non_eulerian_raises():
    for r in (1, 2, 3):
        with pytest.raises(NonIntegralResult):
            cd_index_stanley(chain(r))


def test_agrees_with_flag_method():
    posets = [
        simplex_fan(3),
        simplex_fan(4),
        cube_fan(3),
        crosspoly_fan(3),
        build_pyramid(cube_fan(3)),
        barycentric(polygon(4)).bposet,
    ]
    for p in posets:
        assert cd_index_stanley(p) == cd_index_flag(p)


@settings(max_examples=120, deadline=None, database=None, derandomize=True)
@given(st.randoms(use_true_random=False))
def test_stanley_matches_per_element_oracle(rnd):
    # random graded posets are mostly not Eulerian: about one in seven
    # passes the half-integrality gate, the rest must fail at the same
    # element with the same message
    p = random_graded_poset(rnd, max_rank=5)
    try:
        expected = _cd_index_stanley_per_element(p)
    except NonIntegralResult as exc:
        with pytest.raises(NonIntegralResult) as got:
            cd_index_stanley(p)
        assert str(got.value) == str(exc)
    else:
        assert cd_index_stanley(p) == expected


def _assert_matches_grouped_oracle(p):
    try:
        expected = _cd_index_stanley_grouped(p)
    except NonIntegralResult as exc:
        with pytest.raises(NonIntegralResult) as got:
            cd_index_stanley(p)
        assert str(got.value) == str(exc)
    else:
        got = cd_index_stanley(p)
        assert got == expected
        assert str(got) == str(expected)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(ORACLE_INPUTS)
def test_packed_stanley_matches_grouped_oracle(p):
    _assert_matches_grouped_oracle(p)


def test_packed_stanley_matches_grouped_oracle_at_scale():
    # the acceptance corpus, and three fans that no enumeration reaches
    for _, p in acceptance_corpus():
        _assert_matches_grouped_oracle(p)
    for p in (simplex_fan(9), cube_fan(7), crosspoly_fan(7)):
        _assert_matches_grouped_oracle(p)


def test_suffix_first_words():
    # every degree's words, each once; u + w2 for fixed w2 is one block
    # in the order of u
    for m in range(9):
        words = _words(m)
        assert sorted(words) == sorted(enumerate_cd_words(m))
        for e in range(1, m + 1):
            for w2 in _words(e):
                at = [words.index(u + w2) for u in _words(m - e)]
                assert at == list(range(at[0], at[0] + len(at)))


def test_total_bound_covers_every_total():
    # the coefficients of every total of the recursion stay within the
    # bound that sets the slot width, on Eulerian and non-Eulerian inputs
    rng = random.Random(16)
    posets = [simplex_fan(6), cube_fan(5), crosspoly_fan(5), chain(4)]
    posets += [random_graded_poset(rng, max_rank=6) for _ in range(30)]
    for p in posets:
        totals = []
        try:
            _cd_index_stanley_grouped(p, totals)
        except NonIntegralResult:
            pass
        sizes = [len(p.elements_of_degree(k)) for k in range(1, p.rank + 1)]
        bound = _total_bound(sizes)
        assert max(abs(v) for t in totals for v in t.values()) <= bound


# bound bit lengths B = 6, 7, 7, 14, 15: at B = 6 and 14 the slot holds
# exactly B + 2 bits, and at B = 7 and 15 one bit less would cost a byte
@pytest.mark.parametrize(
    "layer_sizes", [[62], [100], [4, 6, 4], [12, 25, 29, 2], [22, 28, 29, 2]]
)
def test_borrow_decode_round_trip_at_the_slot_bound(layer_sizes):
    # slots at +-(2^B - 1), the widest values of the bound's bit length B,
    # next to each other in every order; the library's slot width for these
    # layer sizes must decode them and read their parity
    bits = _total_bound(layer_sizes).bit_length()
    size = _slot_bytes(layer_sizes)
    width = 8 * size
    top = (1 << bits) - 1
    values = [top, -top, -top, top, 0, -top, 1, -1, top, -1, 0, top - 1, -top]
    for slots in (values, [v - v % 2 for v in values]):
        packed = sum(v << width * i for i, v in enumerate(slots))
        assert _unpack(packed, len(slots), size) == slots
        low = sum(1 << width * i for i in range(len(slots)))
        assert _even(packed, low, width) == all(v % 2 == 0 for v in slots)


def test_odd_slot_above_a_negative_one():
    # rank 3: a triangle face over atoms 1, 2, 3 and a face over four
    # parallel edges between atoms 1 and 2.  Every lower interval halves,
    # and the top's total is -c^3 + dc + 8*cd: the negative slot of c^3
    # borrows from the odd slot of dc just above it
    edges = {"a": "12", "b": "23", "c": "13"} | dict.fromkeys("pqrs", "12")
    faces = {"T": "abc", "U": "pqrs"}
    degrees = {"_bot": 0, "_top": 4, **dict.fromkeys("123", 1)}
    degrees |= dict.fromkeys(edges, 2) | dict.fromkeys(faces, 3)
    covers = [("_bot", v) for v in "123"] + [(f, "_top") for f in faces]
    covers += [(v, e) for e, vs in edges.items() for v in vs]
    covers += [(e, f) for f, es in faces.items() for e in es]
    p = GradedPoset(3, degrees, covers)
    message = "interval below '_top' sums to -c^3 + 8*cd + dc, not divisible by 2"
    with pytest.raises(NonIntegralResult, match=re.escape(message)):
        _cd_index_stanley_grouped(p)
    with pytest.raises(NonIntegralResult) as got:
        cd_index_stanley(p)
    assert str(got.value) == message
