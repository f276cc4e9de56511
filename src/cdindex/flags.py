"""Flag f- and h-vectors and the flag route to the cd-index.

f_S counts the chains in the proper part of a poset whose degree set is S;
h_T is its inclusion-exclusion transform.  For Eulerian posets the h-data is
the image of a unique cd-polynomial, recovered by cdpoly.to_cd, which peels
the t-substitution one letter at a time with additions only, in O(2^n) for
rank n.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cdpoly import SubsetPolynomial, phi_expand, to_cd


@dataclass(frozen=True)
class FlagVector:
    """Chain counts by degree set; f for the empty set is always 1."""

    n: int
    entries: dict

    def get(self, s):
        return self.entries.get(frozenset(s), 0)

    def to_json(self):
        return {
            "n": self.n,
            "entries": {
                ",".join(str(i) for i in sorted(s)): v
                for s, v in sorted(
                    self.entries.items(), key=lambda kv: (len(kv[0]), sorted(kv[0]))
                )
            },
        }


def _subsets(n):
    for mask in range(1 << n):
        yield frozenset(i + 1 for i in range(n) if mask >> i & 1)


def flag_f(poset):
    """Flag f-vector by dynamic programming over degree layers."""
    n = poset.rank
    down, _ = poset._masks()
    by_degree = {
        d: [poset._index[e] for e in poset.elements_of_degree(d)]
        for d in range(1, n + 1)
    }
    entries = {}
    for s in _subsets(n):
        degs = sorted(s)
        if not degs:
            entries[s] = 1
            continue
        counts = {i: 1 for i in by_degree[degs[0]]}
        for d in degs[1:]:
            nxt = {}
            for j in by_degree[d]:
                dm = down[j]
                nxt[j] = sum(v for i, v in counts.items() if dm >> i & 1)
            counts = nxt
        total = sum(counts.values())
        if total:
            entries[s] = total
    return FlagVector(n, entries)


def flag_h(f):
    """Inclusion-exclusion transform h_T = sum over S in T of (-1)^|T-S| f_S."""
    terms = {}
    for t in _subsets(f.n):
        acc = 0
        # iterate over subsets of t
        tl = sorted(t)
        for mask in range(1 << len(tl)):
            s = frozenset(tl[i] for i in range(len(tl)) if mask >> i & 1)
            acc += (-1) ** (len(t) - len(s)) * f.entries.get(s, 0)
        if acc:
            terms[t] = acc
    return SubsetPolynomial(f.n, terms)


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
