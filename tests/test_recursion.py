from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdindex.cdpoly import CdPolynomial
from cdindex.flags import cd_index_flag
from cdindex.poset import (
    barycentric,
    build_pyramid,
    chain,
    crosspoly_fan,
    cube_fan,
    polygon,
    simplex_fan,
)
from cdindex.recursion import _C, NonIntegralResult, _cc_2d_power, cd_index_stanley

from conftest import random_graded_poset


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
