"""Recursive computation of the cd-index from lower-interval indices.

For an Eulerian poset of rank n the cd-index satisfies Stanley's recursion:
summing, over proper elements s of degree k, the lower-interval index
P(boundary of s) times c*(c^2-2d)^((n-k)/2) when n-k is even and minus
(c^2-2d)^((n-k+1)/2) when odd, adding 2*(c^2-2d)^(n/2) for even n, always
yields exactly twice the cd-index.  Odd intermediate coefficients therefore
certify non-Eulerian input.

Slot layout.  A cd-polynomial of degree m is packed into one integer,
sum_i v_i 2^(W i), with slot i holding the coefficient of the i-th word of
``_words(m)``.  The words are ordered suffix-first: those ending in c (the
words of degree m-1, each followed by c), then those ending in d (the words
of degree m-2, each followed by d).  Multiplying on the right by c
therefore leaves the integer as it is, and multiplying by d shifts it by
W*F(m+1) bits, F(k) being the number of words of degree k, so a product by
c^2 - 2d is one shift and one subtraction.  Slots are signed, and a sum of
packed polynomials is one integer addition: the integer is exact whatever
its slots do, and only the slots of a finished total must fit.

Width.  M_m bounds the coefficients of the index of every interval of rank
m: M_0 = 1, and no total of rank n has a coefficient above
T_n = sum_k |layer k| M_(k-1) 2^ceil((n-k)/2) + 2^(n/2+1) [n even], since a
word of degree n splits in at most one way into a word of degree k-1 and a
word of the factor, whose coefficients are (-2)^(number of d).  Then
M_n = T_n // 2, and W is the bit length of the largest T_n plus two (one
bit for the sign, one for the parity bias), rounded up to whole bytes:
O(rank^2) work per poset.

Parity.  Adding 2^(W-2) to every slot puts each one in (0, 2^(W-1)), so the
biased total is the plain concatenation of its slots, and they are all even
exactly when it misses one mask of slot-low bits.  An integer whose slots
are all even halves by ``total >> 1``.

Decoding.  Slots are read byte-aligned from one two's-complement
``to_bytes``: slot i reads as a signed chunk s_i, and v_i = s_i + 1 if
s_(i-1) < 0 (the borrow that a negative slot takes from the next one), else
v_i = s_i.  Only the top element's index and a total that fails the parity
test are decoded.
"""

from __future__ import annotations

from bisect import bisect_left

from .cdpoly import CdPolynomial, enumerate_cd_words


class NonIntegralResult(ArithmeticError):
    """The recursion produced a non-integer cd-index: input is not Eulerian."""


def _words(m):
    """The cd-words of degree m, suffix-first: the lexicographic ones reversed."""
    return [w[::-1] for w in enumerate_cd_words(m)]


def _unpack(x, count, size):
    """The signed slots of ``x``, ``size`` bytes each, by a borrow decode."""
    data = x.to_bytes(count * size, "little", signed=True)
    out = []
    borrow = 0
    for i in range(0, count * size, size):
        s = int.from_bytes(data[i : i + size], "little", signed=True)
        out.append(s + borrow)
        borrow = s < 0
    return out


def _unpack_cd(x, m, size):
    """The cd-polynomial of degree m packed in ``x``, ``size`` bytes a slot."""
    words = _words(m)
    return CdPolynomial(dict(zip(words, _unpack(x, len(words), size))))


def _total_bound(layer_sizes):
    """The largest T_n for a poset with these layer sizes (degrees 1..n): no
    total of the recursion has a coefficient above it."""
    bounds = [1]  # M_m
    most = 2  # T_0
    for n in range(1, len(layer_sizes) + 1):
        total = sum(
            layer_sizes[k - 1] * bounds[k - 1] << (n - k + 1) // 2
            for k in range(1, n + 1)
        )
        if n % 2 == 0:
            total += 2 << n // 2
        bounds.append(total // 2)
        most = max(most, total)
    return most


def _slot_bytes(layer_sizes):
    """Bytes per slot: the bound's bit length, plus one bit for the sign and
    one for the parity bias, rounded up to whole bytes."""
    return (_total_bound(layer_sizes).bit_length() + 2 + 7) // 8


def _even(total, low, width):
    """Whether every slot of ``total`` is even; ``low`` has one set bit per
    slot, and the slots must lie strictly between -2^(width-2) and
    2^(width-2)."""
    return not (total + (low << width - 2)) & low


def cd_index_stanley(poset):
    """cd-index by recursion over the lower intervals of every element.

    The index of each interval [bottom, sigma] is computed once, in order of
    increasing degree, as one packed integer (see the module docstring).
    With G_k the sum of the indices of the elements of degree k below sigma,
    the terms of degrees k = n-2m and n-2m+1 share the factor (c^2-2d)^m,
    so twice the index is sum_m (G_(n-2m) c - G_(n-2m+1)) (c^2-2d)^m, plus
    the constant term, by Horner's rule: one shift and one subtraction per
    m, and the product by c costs nothing.  The memo holds each index
    times (-1)^degree, so (-1)^n (G_(n-2m) c - G_(n-2m+1)) is one plain sum
    of the memo over one slice of the poset's shared comparability table
    (``index_data().below``); the new entry, (-1)^(n+1) times half the
    total, is then minus half the Horner sum for either parity of n.
    """
    ix = poset.index_data()
    ids = poset.elements()
    rank = poset.rank
    start = ix.layer_start
    flat, offset = ix.below
    size = _slot_bytes([start[k + 1] - start[k] for k in range(1, rank + 1)])
    width = 8 * size
    fib = [1, 1]  # number of words of degree k
    for _ in range(rank):
        fib.append(fib[-1] + fib[-2])
    # one set low bit per slot of a degree-n total
    low = [((1 << width * f) - 1) // ((1 << width) - 1) for f in fib]
    # memo[t]: (-1)^deg(t) times the index of [bottom, t]; the bottom's 0
    # and sigma's own 0 may join any sum
    memo = [0] * len(ids)
    get = memo.__getitem__
    # indices are sorted by degree, and index 0 is the bottom
    for sigma in range(1, len(ids)):
        n = ix.deg[sigma] - 1
        first, last = offset[sigma], offset[sigma + 1]
        # Horner from the highest power m of (c^2-2d), summing the degrees
        # n-2m and n-2m+1 of sigma's list at once; acc has degree n - 2m
        m = n // 2
        hi = bisect_left(flat, start[n - 2 * m + 2], first, last)
        acc = sum(map(get, flat[first:hi]))
        if n % 2 == 0:
            acc += 2
        while m:
            m -= 1
            lo, hi = hi, bisect_left(flat, start[n - 2 * m + 2], hi, last)
            acc -= acc << width * fib[n - 2 * m - 1] + 1
            acc += sum(map(get, flat[lo:hi]))
        if not _even(acc, low[n], width):
            total = _unpack_cd(acc if n % 2 == 0 else -acc, n, size)
            raise NonIntegralResult(
                f"interval below {ids[sigma]!r} sums to {total}, not divisible by 2"
            )
        memo[sigma] = -(acc >> 1)
    return _unpack_cd(memo[-1] if rank % 2 else -memo[-1], rank, size)
