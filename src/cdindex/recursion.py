"""Recursive computation of the cd-index from lower-interval indices.

For an Eulerian poset of rank n the cd-index satisfies Stanley's recursion:
summing, over proper elements s of degree k, the lower-interval index
P(boundary of s) times c*(c^2-2d)^((n-k)/2) when n-k is even and minus
(c^2-2d)^((n-k+1)/2) when odd, adding 2*(c^2-2d)^(n/2) for even n, always
yields exactly twice the cd-index.  Odd intermediate coefficients therefore
certify non-Eulerian input.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache

from .cdpoly import CdPolynomial


class NonIntegralResult(ArithmeticError):
    """The recursion produced a non-integer cd-index: input is not Eulerian."""


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


def cd_index_stanley(poset):
    """cd-index by recursion over the lower intervals of every element.

    The index of each interval [bottom, sigma] is computed once, in order of
    increasing degree (memoized by element, not by isomorphism class:
    isomorphism tests cost more than recomputation at this scale).  The
    recursion is linear in the lower indices, so for each sigma the indices
    of the elements of one degree k below it are added first, and each
    degree's sum is multiplied by its (c^2-2d) factor once, not once per
    element.  The elements of degree k below sigma are one slice of the
    poset's shared comparability table (``index_data().below``).
    """
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
        if any(v % 2 for v in total.values()):
            raise NonIntegralResult(
                f"interval below {ids[sigma]!r} sums to {CdPolynomial(total)}, "
                "not divisible by 2"
            )
        memo[sigma] = tuple((w, v // 2) for w, v in total.items() if v)
    return CdPolynomial(dict(memo[-1]))
