import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdindex.cdpoly import CdPolynomial, enumerate_cd_words
from cdindex.flags import cd_index_flag
from cdindex.operators import (
    SkeletonFunction,
    cd_index_operator,
    check_E_commutes_with_pullback,
    constant_function,
    eval_cd_monomial,
    op_C,
    op_D,
    op_E,
    pullback,
)
from cdindex.poset import barycentric, build_pyramid, chain, polygon, simplex_fan, skeleton

from conftest import random_graded_poset


def random_function(p, m, rng, low=-5, high=5):
    return SkeletonFunction(
        p,
        m,
        {e: rng.randint(low, high) for e in p.elements() if p.degree(e) <= m},
    )


def test_E_polygon_level1():
    p = polygon(5)
    f = constant_function(p, 1)
    ef = op_E(f)
    assert ef(p.bottom) == 4  # -1 from the bottom, +1 from each of 5 rays
    assert all(ef(r) == 1 for r in p.elements_of_degree(1))


def test_E_level0_is_identity(rng):
    p = build_pyramid(polygon(4))
    f = random_function(p, 0, rng)
    assert op_E(f).same_values(f)


def test_E_linear(rng):
    p = build_pyramid(polygon(4))
    for m in range(p.rank + 1):
        f = random_function(p, m, rng)
        g = random_function(p, m, rng)
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        comb = SkeletonFunction(
            p, m, {e: a * f(e) + b * g(e) for e in f.values}
        )
        lhs = op_E(comb)
        ef, eg = op_E(f), op_E(g)
        rhs = SkeletonFunction(p, m, {e: a * ef(e) + b * eg(e) for e in f.values})
        assert lhs.same_values(rhs)


def test_C_restricts():
    p = polygon(4)
    f = constant_function(p, 2)
    g = op_C(f)
    assert g.level == 1
    assert set(g.values) == {e for e in p.elements() if p.degree(e) <= 1}
    gg = op_C(g)
    assert set(gg.values) == {p.bottom}
    with pytest.raises(ValueError):
        op_C(gg)


def test_D_polygon():
    for k in (3, 4, 7):
        p = polygon(k)
        f = constant_function(p, 2)
        df = op_D(f)
        assert df.level == 0 and df(p.bottom) == k - 2


def test_D_needs_level2():
    p = polygon(4)
    with pytest.raises(ValueError):
        op_D(constant_function(p, 1))


def test_D_of_zero_is_zero():
    p = build_pyramid(polygon(4))
    z = SkeletonFunction(p, 3, {e: 0 for e in p.elements() if p.degree(e) <= 3})
    dz = op_D(z)
    assert all(v == 0 for v in dz.values.values())


def test_eval_monomial_pyramid():
    pyr = build_pyramid(polygon(4))
    assert eval_cd_monomial(pyr, "dc") == 3
    assert eval_cd_monomial(pyr, "cd") == 3
    assert eval_cd_monomial(pyr, "ccc") == 1
    with pytest.raises(ValueError):
        eval_cd_monomial(pyr, "cc")


def test_eval_monomial_polygon():
    for k in (3, 5, 9):
        p = polygon(k)
        assert eval_cd_monomial(p, "cc") == 1
        assert eval_cd_monomial(p, "d") == k - 2


def test_eval_monomial_trace():
    pyr = build_pyramid(polygon(4))
    trace = []
    assert eval_cd_monomial(pyr, "dc", trace=trace) == 3
    assert [t.level for t in trace] == [3, 2, 0]
    assert all(t(pyr.bottom) >= 0 for t in trace)


def test_cd_index_operator_values():
    assert cd_index_operator(simplex_fan(1)) == CdPolynomial({"c": 1})
    for k in (3, 4, 6):
        assert cd_index_operator(polygon(k)) == CdPolynomial({"cc": 1, "d": k - 2})
    assert cd_index_operator(build_pyramid(polygon(4))) == CdPolynomial(
        {"ccc": 1, "cd": 3, "dc": 3}
    )


def test_operator_agrees_with_flag():
    for p in [simplex_fan(3), build_pyramid(polygon(5)), simplex_fan(4)]:
        assert cd_index_operator(p) == cd_index_flag(p)


@settings(max_examples=120, deadline=None, database=None, derandomize=True)
@given(st.randoms(use_true_random=False))
def test_operator_matches_per_word_oracle(rnd):
    # random graded posets are rarely Gorenstein*: the values outside the
    # contract must match word for word too
    p = random_graded_poset(rnd, max_rank=5)
    expected = CdPolynomial(
        {w: eval_cd_monomial(p, w) for w in enumerate_cd_words(p.rank)}
    )
    assert cd_index_operator(p) == expected


def test_pullback_basics():
    p = polygon(4)
    m = 1
    bary = barycentric(skeleton(p, m).poset)
    ones = constant_function(p, m)
    pb = pullback(ones, bary)
    assert all(v == 1 for v in pb.values.values())
    # domain size: all chains in the skeleton minus its ends, plus the bottom
    assert len(pb.values) == 1 + 4

    indicator = SkeletonFunction(
        p, m, {e: 1 if p.degree(e) == m else 0 for e in p.elements() if p.degree(e) <= m}
    )
    pbi = pullback(indicator, bary)
    b = bary.bposet
    for e, v in pbi.values.items():
        if e == b.bottom:
            assert v == 0
        else:
            assert v == (1 if p.degree(bary.projection[e]) == m else 0)


def test_E_commutes_with_pullback(rng):
    for k in range(3, 7):
        p = polygon(k)
        for m in range(p.rank + 1):
            assert check_E_commutes_with_pullback(p, m, constant_function(p, m))
    pyr = build_pyramid(polygon(4))
    for _ in range(5):
        f = random_function(pyr, 3, rng)
        assert check_E_commutes_with_pullback(pyr, 3, f)


def test_commutation_probe_outside_contract(rng):
    # chain(2) is not Eulerian; the check may fail there, it only has to run
    c = chain(2)
    f = random_function(c, 2, rng)
    check_E_commutes_with_pullback(c, 2, f)


def test_out_of_contract_values_are_reported_not_rejected():
    # the operator route evaluates non-Gorenstein* inputs as-is; the result
    # simply disagrees with the flag route (which raises)
    c = chain(2)
    assert eval_cd_monomial(c, "cc") == 1
    assert eval_cd_monomial(c, "d") == -1
    assert cd_index_operator(c) == CdPolynomial({"cc": 1, "d": -1})
