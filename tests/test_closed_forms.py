"""Closed-form identities of the cd-index, checked on all three routes.

The dual poset has the reversed index (Stanley, "Flag f-vectors and the
cd-index", Math. Z. 1994), the pyramid over P has the index
Psi(P)*c + G(Psi(P)) for the derivation G(c) = d, G(d) = cd, and the prism
over P has Psi(P)*c + D(Psi(P)) for D(c) = 2d, D(d) = cd + dc (Ehrenborg and
Readdy, "Coproducts and the cd-index", J. Algebraic Combin. 1998).  No
identity shares any code with the routes, so they reach ranks that no
enumeration does.
"""

import pytest
from hypothesis import given, settings

from cdindex.cdpoly import CdPolynomial
from cdindex.flags import cd_index_flag
from cdindex.operators import cd_index_operator
from cdindex.poset import build_pyramid, crosspoly_fan, cube_fan, simplex_fan
from cdindex.recursion import cd_index_stanley

from conftest import (
    dual,
    gorenstein_posets,
    manifold_controls,
    prism_derivation,
    pyramid_derivation,
    reverse_cd,
)

ROUTES = (cd_index_flag, cd_index_stanley, cd_index_operator)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(gorenstein_posets())
def test_dual_has_the_reversed_index(p):
    expected = reverse_cd(cd_index_flag(p))
    q = dual(p)
    for route in ROUTES:
        assert route(q) == expected


def test_dual_of_a_non_sphere():
    # the cubical 3-torus is Eulerian but not Gorenstein*: the flag and
    # Stanley routes still obey the duality
    p = manifold_controls()["cubical 3-torus"][0]
    for route in (cd_index_flag, cd_index_stanley):
        assert route(dual(p)) == reverse_cd(route(p))


def test_dual_reverses_the_layers():
    p = build_pyramid(cube_fan(2))
    q = dual(p)
    sizes = lambda x: [len(x.elements_of_degree(d)) for d in range(x.rank + 2)]
    assert sizes(q) == sizes(p)[::-1]
    assert dual(q).covers() == p.covers()


def test_pyramid_derivation_on_words():
    ix = CdPolynomial({"cc": 1, "d": 3})
    # G(cc) = dc + cd, G(d) = cd
    assert pyramid_derivation(ix) == CdPolynomial({"dc": 1, "cd": 4})


def test_prism_derivation_on_words():
    ix = CdPolynomial({"cc": 1, "d": 3})
    # D(cc) = 2dc + 2cd, D(d) = cd + dc
    assert prism_derivation(ix) == CdPolynomial({"dc": 5, "cd": 5})


@pytest.mark.parametrize(
    "base",
    [
        lambda: simplex_fan(8),
        lambda: simplex_fan(9),
        lambda: cube_fan(7),
        lambda: crosspoly_fan(7),
    ],
    ids=["simplex_fan(8)", "simplex_fan(9)", "cube_fan(7)", "crosspoly_fan(7)"],
)
def test_pyramid_identity_at_scale(base):
    # pyramids of rank 9, 10, 8 and 8, each route against its own value on
    # the base
    p = base()
    pyr = build_pyramid(p)
    c = CdPolynomial({"c": 1})
    for route in ROUTES:
        ix = route(p)
        assert route(pyr) == ix * c + pyramid_derivation(ix)


@pytest.mark.parametrize("n", range(1, 6))
def test_prism_identity_on_cubes(n):
    # the (n+1)-cube is the prism over the n-cube
    c = CdPolynomial({"c": 1})
    for route in ROUTES:
        ix = route(cube_fan(n))
        assert route(cube_fan(n + 1)) == ix * c + prism_derivation(ix)
