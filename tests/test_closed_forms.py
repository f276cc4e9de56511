"""Closed-form identities of the cd-index, checked on all three routes.

The dual poset has the reversed index (Stanley, "Flag f-vectors and the
cd-index", Math. Z. 1994), the pyramid over P has the index
Psi(P)*c + G(Psi(P)) for the derivation G(c) = d, G(d) = cd, and the prism
over P has Psi(P)*c + D(Psi(P)) for D(c) = 2d, D(d) = cd + dc (Ehrenborg and
Readdy, "Coproducts and the cd-index", J. Algebraic Combin. 1998).  The star
product P * Q has the product Psi(P)*Psi(Q) (Stanley, 1994).  No
identity shares any code with the routes, so they reach ranks that no
enumeration does.

A poset whose lower intervals are Boolean has its flag f-vector in closed
form from its layer sizes (conftest.simplicial_flag_f), a fourth route that
reads neither the comparability tables nor the packed chain counts.
"""

import pytest
from hypothesis import assume, given, settings

from cdindex.cdpoly import CdPolynomial, NotACdPolynomial
from cdindex.flags import cd_index_flag, flag_f
from cdindex.operators import cd_index_operator
from cdindex.poset import (
    barycentric, build_pyramid, crosspoly_fan, cube_fan, simplex_fan,
)
from cdindex.recursion import cd_index_stanley

from conftest import (
    cd_index_simplicial,
    dual,
    gorenstein_posets,
    manifold_controls,
    prism_derivation,
    pure_complex_posets,
    pyramid_derivation,
    reverse_cd,
    simplicial_flag_f,
    star_product,
)

ROUTES = (cd_index_flag, cd_index_stanley, cd_index_operator)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(gorenstein_posets())
def test_dual_has_the_reversed_index(p):
    expected = reverse_cd(cd_index_flag(p))
    q = dual(p)
    for route in ROUTES:
        assert route(q) == expected


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(gorenstein_posets(), gorenstein_posets())
def test_star_product_has_the_product_index(p, q):
    expected = cd_index_flag(p) * cd_index_flag(q)
    s = star_product(p, q)
    for route in ROUTES:
        assert route(s) == expected


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


@pytest.mark.parametrize(
    "build",
    [lambda: simplex_fan(10), lambda: simplex_fan(11), lambda: crosspoly_fan(8)],
    ids=["simplex_fan(10)", "simplex_fan(11)", "crosspoly_fan(8)"],
)
def test_simplicial_route_at_scale(build):
    # ranks 10, 11 and 8, where the three routes otherwise meet only one
    # another
    p = build()
    ix = cd_index_simplicial(p)
    for route in ROUTES:
        assert route(p) == ix, route.__name__


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(gorenstein_posets())
def test_simplicial_route_on_subdivisions(p):
    # a barycentric subdivision has Boolean lower intervals, whatever it
    # subdivides
    assume(len(p) <= 60)
    b = barycentric(p).bposet
    assert cd_index_simplicial(b) == cd_index_flag(b)


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(pure_complex_posets())
def test_simplicial_flag_f_on_complexes(p):
    # face posets of simplicial complexes, Eulerian or not
    assert simplicial_flag_f(p) == flag_f(p)


@pytest.mark.parametrize("n", range(1, 8))
def test_cube_fans_by_duality(n):
    # the n-cube is not simplicial, but its dual, the n-cross-polytope, is,
    # and duality reverses the cd-index
    ix = cd_index_flag(cube_fan(n))
    assert reverse_cd(cd_index_simplicial(dual(cube_fan(n)))) == ix
    assert reverse_cd(cd_index_simplicial(crosspoly_fan(n))) == ix


def test_simplicial_route_needs_boolean_intervals():
    # the square faces of cube_fan(4) are not Boolean: the closed form
    # counts too few chains, and its h-vector is no cd-polynomial's image
    p = cube_fan(4)
    assert simplicial_flag_f(p) != flag_f(p)
    with pytest.raises(NotACdPolynomial):
        cd_index_simplicial(p)
