"""The C/D operator calculus: the cd-index by one walk over cd-word suffixes.

A skeleton function lives on the elements of degree <= m (top excluded).
E is the signed upward sum at level m, E(f)(s) = sum over t >= s with
deg t <= m of (-1)^(m - deg t) f(t); C restricts one level down, and
D = C o (E - Id) o C.  Substituting C for c and D for d in a degree-n word
and applying it to the constant function 1, rightmost letter first, returns
the coefficient of that word in the cd-index whenever the poset is
Gorenstein*.  Out-of-contract inputs are computed, not rejected: their
disagreement with the flag method is a useful diagnostic.

operator_walk evaluates all Fib(n+1) words of degree n together, by a walk
over their suffixes: a c only lowers the level, a d applies D once for
every word that ends with the suffix it completes, and each D computes E
only on the elements of degree <= m-2 that its last C keeps.  The cost is
one D per suffix that starts with d, not one per letter d of every word.
The elements above each s, which E sums over, are a slice of the poset's
shared comparability table (``index_data().above``), built once per poset.
cd_index_operator reads the walk's values at the bottom, and
``compute --trace`` prints every function along it.
"""

from __future__ import annotations

from bisect import bisect_left

from .cdpoly import CdPolynomial


def operator_walk(poset):
    """Yield ``(word, path)`` for every cd-word of degree ``poset.rank``.

    ``path`` lists the ``(level, values)`` pairs along the word's suffixes:
    the constant function 1 at level n first, then one pair per letter, from
    the rightmost.  ``values`` is a list over the ``index_data()`` indices of
    degree <= level, which are sorted by (degree, id), so ``values[0]`` is
    the value at the bottom and the last pair holds the word's value.
    Words come in reversed-lexicographic order, compared from the right
    (``dccc`` before ``cccd``).
    ``path`` is one stack shared by the whole walk: copy it to keep it past
    the next word.  Its value lists are never changed.
    """
    n = poset.rank
    ix = poset.index_data()
    deg = ix.deg
    # size[m]: the number of elements of degree <= m
    size = ix.layer_start[1:]
    flat, offset = ix.above
    path = [(n, [1] * size[n])]

    def apply_d(m, f):
        # E at level m-1 on the elements of degree <= m-2, minus the identity
        top = size[m - 1]
        signed = [
            v if (m - 1 - deg[t]) % 2 == 0 else -v for t, v in enumerate(f[:top])
        ]
        out = []
        for s in range(size[m - 2]):
            first = offset[s]
            above = flat[first : bisect_left(flat, top, first, offset[s + 1])]
            out.append(sum(map(signed.__getitem__, above)) - f[s])
        return out

    def walk(m, suffix):
        if m == 0:
            yield suffix, path
            return
        f = path[-1][1]
        path.append((m - 1, f[: size[m - 1]]))
        yield from walk(m - 1, "c" + suffix)
        path.pop()
        if m >= 2:
            path.append((m - 2, apply_d(m, f)))
            yield from walk(m - 2, "d" + suffix)
            path.pop()

    yield from walk(n, "")


def cd_index_operator(poset):
    """cd-index assembled from the operator evaluation of every word.

    The words are evaluated together, by operator_walk; the coefficient of
    a word is its last function's value at the bottom.
    """
    return CdPolynomial({word: path[-1][1][0] for word, path in operator_walk(poset)})
