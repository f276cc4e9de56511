"""Flag f- and h-vectors and the flag route to the cd-index.

f_S counts the chains in the proper part of a poset whose degree set is S;
h_T is its inclusion-exclusion transform.  Both are functions on the subsets
of {1..n}, so both are held as cdpoly.SubsetPolynomial (the setting of the
t-substitution of Bayer and Klapper, "A new index for polytopes", 1991).
For Eulerian posets the h-data is the image of a unique cd-polynomial,
recovered by cdpoly.to_cd, which peels the t-substitution one letter at a
time with additions only, in O(2^n) for rank n.
"""

from __future__ import annotations

from bisect import bisect_left

from .cdpoly import SubsetPolynomial, phi_expand, to_cd


def _subsets(n):
    for mask in range(1 << n):
        yield frozenset(i + 1 for i in range(n) if mask >> i & 1)


def flag_f(poset):
    """Flag f-polynomial sum_S f_S t^S, as a SubsetPolynomial, by extending
    chain counts one degree at a time.

    The degree sets are walked depth first.  The chains with degree set S,
    counted by their top element, extend to S + {b} for b > max S in one
    step from layer max S to layer b, so every set costs one layer-to-layer
    step on top of its parent's counts.  A set with no chains ends its
    branch, since every extension of it has none either.

    The elements below j come from the poset's shared comparability table
    (``index_data().below``); those of degree a are one slice of it.
    """
    n = poset.rank
    ix = poset.index_data()
    # indices are sorted by degree: degree d holds start[d] .. start[d+1]-1
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


def flag_h(f):
    """Inclusion-exclusion transform h_T = sum over S in T of (-1)^|T-S| f_S.

    A signed subset-sum (Mobius) transform on a list indexed by subset mask,
    one position at a time: O(n * 2^n) for n = f.n.
    """
    n = f.n
    vals = [0] * (1 << n)
    for s, v in f.terms.items():
        vals[sum(1 << (i - 1) for i in s)] = v
    for i in range(n):
        bit = 1 << i
        for mask in range(1 << n):
            if mask & bit:
                vals[mask] -= vals[mask ^ bit]
    return SubsetPolynomial(n, {s: v for s, v in zip(_subsets(n), vals) if v})


def cd_index_flag(poset):
    """cd-index via flag counts; raises NotACdPolynomial on non-Eulerian input."""
    return to_cd(flag_h(flag_f(poset)))


def verify_duality(poset):
    """Check h_S = h_{complement of S} for every S (a one-way Eulerian probe)."""
    h = flag_h(flag_f(poset))
    full = frozenset(range(1, poset.rank + 1))
    return all(h.get(s) == h.get(full - s) for s in _subsets(poset.rank))


def skeleton_poincare(poset, m):
    """Poincare polynomial of the m-skeleton: set t_{m+1} = ... = t_n = 0.

    The result always splits as A + B*t_m with A, B images of homogeneous
    cd-polynomials of degree m and m-1.
    """
    if not 0 <= m <= poset.rank:
        raise ValueError(f"skeleton level {m} out of range")
    full = phi_expand(cd_index_flag(poset))
    return full.restrict(m)
