"""Quasi-convex completions, shelling sums, and submanifold decompositions.

A quasi-convex poset is completed by one new maximal element whose boundary
is the boundary of the whole poset (the semisuspension); its cd-data then
splits into an interior part of full degree and the boundary's cd-index one
degree down.  Summing interior*c + boundary*d over the facet intersections
of a shelling order rebuilds the cd-index, as does splitting the coatom
layer along a complete submanifold Pi.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cdpoly import CdPolynomial
from .flags import cd_index_flag
from .homology import _quasi_convex_boundary, boundary_of, is_gorenstein_star
from .poset import (
    GradedPoset, InvalidPoset, induced_subposet, mask_indices, strict_ideal,
)


class ShellingInvalid(ValueError):
    """A shelling step's facet intersection is not quasi-convex of rank n-1."""

    def __init__(self, step, message):
        self.step = step
        super().__init__(f"shelling step {step}: {message}")


class PiNotComplete(ValueError):
    """The Pi subposet fails to be Gorenstein* of rank n-1."""


_C = CdPolynomial({"c": 1})
_D = CdPolynomial({"d": 1})


@dataclass(frozen=True)
class QuasiConvexIndex:
    """cd-data of a quasi-convex poset: full-degree interior plus the
    boundary's cd-index (degree n-1); their sum is the poset's Poincare
    data and interior + boundary*c is the semisuspension's cd-index."""

    interior: CdPolynomial
    boundary: CdPolynomial


def semisuspend(poset):
    """Complete a quasi-convex poset by one new maximal element covering
    exactly the boundary coatoms.  A complete input (empty boundary) is
    rejected."""
    bnd = boundary_of(poset)
    if bnd.poset is None:
        raise ValueError("input is complete (empty boundary)")
    if not is_gorenstein_star(bnd.poset):
        raise ValueError("input is not quasi-convex")
    return _semisuspension(poset, bnd)


def _semisuspension(poset, bnd):
    """semisuspend's completion, without its checks: ``bnd`` is the poset's
    boundary_of, nonempty and Gorenstein*.  Its members of degree n-1 are
    the boundary coatoms."""
    n = poset.rank
    new_id = "s*"
    while new_id in poset:
        new_id += "*"
    degrees = {e: poset.degree(e) for e in poset.elements()}
    degrees[new_id] = n
    covers = list(poset.covers())
    covers += [(e, new_id) for e in bnd.members if degrees[e] == n - 1]
    covers.append((new_id, poset.top))
    return GradedPoset(n, degrees, covers)


def cd_index_quasiconvex(poset):
    """Interior and boundary cd-data of a quasi-convex poset.

    interior = cd-index(semisuspension) - cd-index(boundary)*c; a complete
    poset gets interior = its own cd-index and boundary 0 by convention.
    Input that is_quasi_convex rejects raises ValueError.
    """
    bnd = _quasi_convex_boundary(poset)
    if bnd is None:
        raise ValueError("input is not quasi-convex")
    return _quasiconvex_index(poset, bnd)


def _quasiconvex_index(poset, bnd):
    """cd_index_quasiconvex for a poset whose boundary ``bnd`` came from
    _quasi_convex_boundary."""
    if bnd.poset is None:
        return QuasiConvexIndex(cd_index_flag(poset), CdPolynomial.zero())
    boundary_ix = cd_index_flag(bnd.poset)
    interior = cd_index_flag(_semisuspension(poset, bnd)) - boundary_ix * _C
    return QuasiConvexIndex(interior, boundary_ix)


def shelling_steps(poset, order):
    """Per-step (facet, interior, boundary) data for a facet ordering.

    Step i >= 2 intersects the ideal of facet i with the earlier ideals;
    the intersection must be a quasi-convex poset of rank n-1 or the order
    is rejected with ShellingInvalid naming the step.  Each step builds its
    intersection's boundary once and certifies once.
    """
    n = poset.rank
    facets = poset.elements_of_degree(n)
    if sorted(order) != sorted(facets):
        raise ValueError("order must list every maximal element exactly once")
    ix = poset.index_data()
    ids = poset.elements()
    seen = ix.down[ix.index[order[0]]]
    steps = []
    for i, sigma in enumerate(order[1:], start=2):
        mask = ix.down[ix.index[sigma]] & seen
        members = [ids[j] for j in mask_indices(mask)]
        try:
            sub = induced_subposet(poset, members, adjoin_top=True)
        except InvalidPoset as exc:
            raise ShellingInvalid(i, str(exc)) from None
        if sub.poset is None or sub.poset.rank != n - 1:
            raise ShellingInvalid(
                i, f"intersection with earlier facets has rank != {n - 1}"
            )
        bnd = _quasi_convex_boundary(sub.poset)
        if bnd is None:
            raise ShellingInvalid(i, "intersection is not quasi-convex")
        qc = _quasiconvex_index(sub.poset, bnd)
        steps.append((sigma, qc.interior, qc.boundary))
        seen |= ix.down[ix.index[sigma]]
    return steps


def shelling_sum(poset, order):
    """cd-index as the shelling sum of interior*c + boundary*d over steps."""
    total = CdPolynomial.zero()
    for _, interior, boundary in shelling_steps(poset, order):
        total = total + interior * _C + boundary * _D
    return total


def pi_decomposition(poset, pi):
    """cd-index from a complete rank-(n-1) subposet Pi of the coatom layer.

    Pi together with everything of degree <= n-2 must be Gorenstein* of rank
    n-1 (else PiNotComplete); the coatoms outside Pi contribute their
    boundaries' cd-indices times d.
    """
    n = poset.rank
    if n < 2:
        raise ValueError("decomposition needs rank >= 2")
    pi = set(pi)
    coatoms = set(poset.elements_of_degree(n - 1))
    if not pi <= coatoms:
        raise PiNotComplete("Pi must consist of degree n-1 elements")
    members = {e for e in poset.elements() if poset.degree(e) <= n - 2} | pi
    try:
        sub = induced_subposet(poset, members, adjoin_top=True)
    except InvalidPoset as exc:
        raise PiNotComplete(str(exc)) from None
    if sub.poset.rank != n - 1:
        raise PiNotComplete(f"Pi subposet has rank != {n - 1}")
    if not is_gorenstein_star(sub.poset):
        raise PiNotComplete("Pi subposet is not Gorenstein*")
    total = cd_index_flag(sub.poset) * _C
    for sigma in sorted(coatoms - pi):
        bnd = strict_ideal(poset, sigma)
        total = total + cd_index_flag(bnd.poset) * _D
    return total
