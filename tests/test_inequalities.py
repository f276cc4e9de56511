"""The cd-index inequalities of the literature, as oracles for the routes.

The Boolean lower bound: a Gorenstein* lattice P of rank n has
Psi(P) >= Psi(B), coefficient by coefficient, where B is the Boolean
algebra of rank n, simplex_fan(n).  Stanley conjectured it ("Flag
f-vectors and the cd-index", Math. Z. 1994), Billera and Ehrenborg proved it
for polytopes ("Monotonicity of the cd-index for polytopes", Math. Z. 2000),
and Ehrenborg and Karu for Gorenstein* lattices ("Decomposition theorem for
the cd-index of Gorenstein* posets", J. Algebraic Combin. 2007).  The
Gorenstein* posets that are not lattices are its negative controls.
"""

import pytest

from cdindex.flags import cd_index_flag
from cdindex.homology import is_gorenstein_star
from cdindex.poset import (
    barycentric, build_pyramid, crosspoly_fan, cube_fan, polygon, simplex_fan,
)

from conftest import antipodal_quotient, digon, is_lattice

LATTICES = {
    "polygon(3)": lambda: polygon(3),
    "polygon(5)": lambda: polygon(5),
    **{
        f"{fan.__name__}({n})": (lambda fan=fan, n=n: fan(n))
        for fan in (simplex_fan, cube_fan, crosspoly_fan)
        for n in range(1, 6)
    },
    "pyramid(cube_fan(3))": lambda: build_pyramid(cube_fan(3)),
    "barycentric(polygon(3))": lambda: barycentric(polygon(3)).bposet,
    "barycentric(cube_fan(3))": lambda: barycentric(cube_fan(3)).bposet,
}

# Gorenstein* posets that are not lattices, each below the bound at a word
NON_LATTICES = {
    # c^2 against c^2 + d: the paper's c^2 + (k - 2)d at k = 2
    "digon": (digon, "d"),
    # c^3 + cd + dc against c^3 + 2cd + 2dc
    "pyramid(digon)": (lambda: build_pyramid(digon()), "cd"),
    # c^4 + 6c^2d + 8cdc + 2dc^2 + 12dd against ... + 3dc^2 + 4dd
    "RP3": (lambda: antipodal_quotient(crosspoly_fan(4)), "dcc"),
}


def below_the_bound(p):
    """The cd-words at which Psi(p) is below Psi(simplex_fan(rank)), sorted."""
    psi, floor = cd_index_flag(p), cd_index_flag(simplex_fan(p.rank))
    return sorted(
        w for w in set(psi.terms) | set(floor.terms)
        if psi.coefficient(w) < floor.coefficient(w)
    )


def test_the_corpus_has_twenty_lattices():
    assert len(LATTICES) == 20


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_gorenstein_lattices_are_above_the_boolean_bound(name):
    p = LATTICES[name]()
    assert is_lattice(p) and is_gorenstein_star(p)
    assert below_the_bound(p) == []


@pytest.mark.parametrize("name", sorted(NON_LATTICES))
def test_the_bound_fails_off_lattices(name):
    build, word = NON_LATTICES[name]
    p = build()
    assert is_gorenstein_star(p) and not is_lattice(p)
    assert word in below_the_bound(p)


def test_lattice_check():
    # the mask test against a join found by brute force over the elements
    for p in [polygon(4), digon(), build_pyramid(digon()), cube_fan(2)]:
        ix = p.index_data()
        up, n = ix.up, len(ix.up)
        joins = all(
            any(
                up[x] >> z & 1 and up[y] >> z & 1
                and all(up[z] >> w & 1 for w in range(n) if up[x] >> w & 1 and up[y] >> w & 1)
                for z in range(n)
            )
            for x in range(n)
            for y in range(n)
        )
        assert is_lattice(p) == joins
