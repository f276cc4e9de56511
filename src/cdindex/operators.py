"""The E, C, D operators on integer functions over poset skeletons.

A skeleton function lives on the elements of degree <= m (top excluded).
E is the signed upward sum at level m, C restricts one level down, and
D = C o (E - Id) o C.  Substituting C for c and D for d in a degree-n word
and applying it to the constant function 1, rightmost letter first, returns
the coefficient of that word in the cd-index whenever the poset is
Gorenstein*.  Out-of-contract inputs are computed, not rejected: their
disagreement with the flag method is a useful diagnostic.

cd_index_operator evaluates all Fib(n+1) words of degree n together, by a
walk over their suffixes: a c only lowers the level, a d applies D once for
every word that ends with the suffix it completes, and each D computes E
only on the elements of degree <= m-2 that its last C keeps.  The cost is
one D per suffix that starts with d, not one per letter d of every word.
The elements above each s, which E sums over, are a slice of the poset's
shared comparability table (``index_data().above``), built once per poset.
eval_cd_monomial, op_C, op_D and op_E still evaluate one word at a time
on SkeletonFunction values; compute --trace uses them, word by word.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .cdpoly import CdPolynomial, word_degree
from .poset import barycentric, skeleton


@dataclass(frozen=True)
class SkeletonFunction:
    """Integer values on the degree <= level part of a poset (top excluded)."""

    poset: object
    level: int
    values: dict

    def __post_init__(self):
        domain = _domain(self.poset, self.level)
        if set(self.values) != domain:
            missing = domain - set(self.values)
            extra = set(self.values) - domain
            raise ValueError(
                f"domain mismatch at level {self.level}: "
                f"missing {sorted(missing)}, extra {sorted(extra)}"
            )

    def __call__(self, e):
        return self.values[e]

    def same_values(self, other):
        return self.level == other.level and self.values == other.values


def _domain(poset, level):
    if not 0 <= level <= poset.rank:
        raise ValueError(f"level {level} out of range for rank {poset.rank}")
    return {e for e in poset.elements() if poset.degree(e) <= level}


def constant_function(poset, level):
    """The constant function 1 on the degree <= level skeleton."""
    return SkeletonFunction(poset, level, dict.fromkeys(_domain(poset, level), 1))


def op_E(f):
    """E(f)(s) = sum over t >= s with deg t <= level of (-1)^(level - deg t) f(t)."""
    poset, m = f.poset, f.level
    out = {}
    for e in f.values:
        acc = 0
        for t in poset.up_set(e):
            d = poset.degree(t)
            if d <= m:
                acc += f.values[t] if (m - d) % 2 == 0 else -f.values[t]
        out[e] = acc
    return SkeletonFunction(poset, m, out)


def op_C(f):
    """Restriction to the skeleton one level down."""
    if f.level == 0:
        raise ValueError("cannot restrict below level 0")
    m = f.level - 1
    poset = f.poset
    return SkeletonFunction(
        poset, m, {e: v for e, v in f.values.items() if poset.degree(e) <= m}
    )


def op_D(f):
    """D = C o (E - Id) o C, dropping two levels."""
    if f.level < 2:
        raise ValueError("D needs level >= 2")
    g = op_C(f)
    eg = op_E(g)
    h = SkeletonFunction(
        g.poset, g.level, {e: eg.values[e] - g.values[e] for e in g.values}
    )
    return op_C(h)


def eval_cd_monomial(poset, word, trace=None):
    """Value at the bottom of word(C, D) applied to the constant function 1.

    Letters act rightmost first: a trailing c applies C first.  When the
    poset is Gorenstein* of matching rank this is the coefficient of the word
    in its cd-index.  Pass a list as ``trace`` to collect the intermediate
    skeleton functions (the starting constant included).
    """
    n = poset.rank
    if word_degree(word) != n:
        raise ValueError(
            f"word {word!r} has degree {word_degree(word)}, poset has rank {n}"
        )
    f = constant_function(poset, n)
    if trace is not None:
        trace.append(f)
    for letter in reversed(word):
        f = op_C(f) if letter == "c" else op_D(f)
        if trace is not None:
            trace.append(f)
    assert f.level == 0
    return f(poset.bottom)


def cd_index_operator(poset):
    """cd-index assembled from the operator evaluation of every word.

    The words are evaluated together, by the suffix walk of the module
    docstring.  Indices are sorted by degree, so a skeleton function at
    level m is a list over the first size[m] indices and C costs nothing.
    Each value equals eval_cd_monomial's for its word, on any input.
    """
    n = poset.rank
    ix = poset.index_data()
    deg = ix.deg
    # size[m]: the number of elements of degree <= m
    size = ix.layer_start[1:]
    flat, offset = ix.above
    values = {}

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

    def walk(m, f, suffix):
        if m == 0:
            values[suffix] = f[0]
            return
        walk(m - 1, f, "c" + suffix)
        if m >= 2:
            walk(m - 2, apply_d(m, f), "d" + suffix)

    walk(n, [1] * size[n], "")
    return CdPolynomial(values)


def pullback(f, bary):
    """Pull a skeleton function back along the chain-poset projection.

    ``bary`` must be the barycentric subdivision of the level-m skeleton of
    f's poset; the result assigns f(max of chain) to every chain.
    """
    b = bary.bposet
    m = f.level
    if b.rank != m:
        raise ValueError(
            f"barycentric poset has rank {b.rank}, expected level {m}"
        )
    out = {}
    for e in b.elements():
        if e == b.top:
            continue
        out[e] = f.values[bary.projection[e]]
    return SkeletonFunction(b, m, out)


def check_E_commutes_with_pullback(poset, m, f):
    """Test E o pullback == pullback o E pointwise on the chain poset.

    Holds whenever the poset is Eulerian; may fail outside that contract.
    """
    if f.level != m:
        raise ValueError("function level must equal m")
    bary = barycentric(skeleton(poset, m).poset)
    lhs = op_E(pullback(f, bary))
    rhs = pullback(op_E(f), bary)
    return lhs.same_values(rhs)
