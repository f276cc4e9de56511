"""Flag f- and h-vectors and the flag route to the cd-index.

f_S counts the chains in the proper part of a poset whose degree set is S;
h_T is its inclusion-exclusion transform.  Both are functions on the subsets
of {1..n}, so both are held as cdpoly.SubsetPolynomial, whose ``values``
list the 2^n coefficients by subset mask (the setting of the t-substitution
of Bayer and Klapper, "A new index for polytopes", 1991).
For Eulerian posets the h-data is the image of a unique cd-polynomial,
recovered by cdpoly.to_cd, which peels the t-substitution one letter at a
time with additions only, in O(2^n) for rank n.

flag_f packs a whole vector of chain counts into one integer, W bits per
slot (Kronecker substitution; D. Harvey, J. Symbolic Comput. 2009), so that
adding two vectors is one integer addition.  Slot layout: the count for the
degree set S sits in slot mask(S) = sum of 2^(a-1) over a in S, i.e. at bit
W * mask(S).  Width: every f_S is at most the product of |layer a| over a
in S, hence at most the product over all layers, and W is that product's
bit length rounded up to whole bytes.  Counts are never negative, so the
slots decode with one ``to_bytes`` and one ``from_bytes`` per slot, in
linear time.
"""

from __future__ import annotations

from math import prod

from .cdpoly import SubsetPolynomial, to_cd


def flag_f(poset):
    """Flag f-polynomial sum_S f_S t^S, as a SubsetPolynomial, by summing
    packed chain counts up the layers.

    V_j counts the chains whose top element is j, by degree set, packed into
    one integer (see the module docstring).  With V = 1 at the bottom (the
    empty chain), V_j = (sum of V_i over i < j) << W * 2^(deg j - 1), which
    adds deg j to every degree set, and f is the sum of all V_j.  Elements of
    degree n are only summed, never stored.  The elements below j come from
    the poset's shared comparability table (``index_data().below``): its
    list for j starts at the bottom and ends at j itself.
    """
    n = poset.rank
    if n == 0:
        return SubsetPolynomial.from_values(0, [1])
    ix = poset.index_data()
    # indices are sorted by degree: degree d holds start[d] .. start[d+1]-1
    start = ix.layer_start
    flat, offset = ix.below
    # f_S <= prod over a in S of |layer a| <= the product over every layer
    bound = prod(start[a + 1] - start[a] for a in range(1, n + 1))
    size = (bound.bit_length() + 7) // 8
    width = 8 * size
    # V of the bottom is 1; every other entry is set before it is read
    vec = [1] * start[n]
    get = vec.__getitem__
    for d in range(1, n):
        shift = width << (d - 1)
        for j in range(start[d], start[d + 1]):
            vec[j] = sum(map(get, flat[offset[j] : offset[j + 1] - 1])) << shift
    top = sum(
        sum(map(get, flat[offset[j] : offset[j + 1] - 1]))
        for j in range(start[n], start[n + 1])
    )
    packed = sum(vec) + (top << (width << (n - 1)))
    data = packed.to_bytes(size << n, "little")
    counts = [
        int.from_bytes(data[i : i + size], "little")
        for i in range(0, size << n, size)
    ]
    return SubsetPolynomial.from_values(n, counts)


def flag_h(f):
    """Inclusion-exclusion transform h_T = sum over S in T of (-1)^|T-S| f_S.

    A signed subset-sum (Mobius) transform on a list indexed by subset mask,
    one position at a time: O(n * 2^n) for n = f.n.
    """
    n = f.n
    vals = list(f.values)
    for i in range(n):
        bit = 1 << i
        for mask in range(1 << n):
            if mask & bit:
                vals[mask] -= vals[mask ^ bit]
    return SubsetPolynomial.from_values(n, vals)


def cd_index_flag(poset):
    """cd-index via flag counts; raises NotACdPolynomial on non-Eulerian input."""
    return to_cd(flag_h(flag_f(poset)))


def verify_duality(poset):
    """Check h_S = h_{complement of S} for every S (a one-way Eulerian probe)."""
    h = flag_h(flag_f(poset)).values
    return h == h[::-1]  # the complement of mask m is 2^n - 1 - m


def skeleton_poincare(poset, m):
    """Poincare polynomial of the m-skeleton: set t_{m+1} = ... = t_n = 0.

    The result always splits as A + B*t_m with A, B images of homogeneous
    cd-polynomials of degree m and m-1.
    """
    if not 0 <= m <= poset.rank:
        raise ValueError(f"skeleton level {m} out of range")
    h = flag_h(flag_f(poset))
    to_cd(h)  # raises NotACdPolynomial unless h is the image of the cd-index
    return h.restrict(m)
