import pytest

from cdindex.cdpoly import CdPolynomial
from cdindex.flags import cd_index_flag
from cdindex.homology import is_quasi_convex
from cdindex.poset import (
    GradedPoset,
    build_pyramid,
    chain,
    crosspoly_fan,
    cube_fan,
    induced_subposet,
    polygon,
    simplex_fan,
)
from cdindex.shelling import (
    PiNotComplete,
    QuasiConvexIndex,
    ShellingInvalid,
    cd_index_quasiconvex,
    pi_decomposition,
    semisuspend,
    shelling_steps,
    shelling_sum,
)

from conftest import (
    is_isomorphic,
    manifold_controls,
    minus_facet,
    polygon_minus_facet,
    pyramid_without_apex_star,
)


def single_ray():
    return induced_subposet(polygon(3), ["_bot", "r1"], adjoin_top=True).poset


def test_semisuspend_restores_polygon():
    assert is_isomorphic(semisuspend(polygon_minus_facet(4)), polygon(4))


def test_semisuspend_single_ray():
    completed = semisuspend(single_ray())
    assert is_isomorphic(completed, simplex_fan(1))


def test_semisuspend_complete_flag():
    p = polygon(5)
    with pytest.raises(ValueError):
        semisuspend(p)


def _semisuspension_by_cover_count(p):
    """The completion with its coatoms found by the former rule: the
    degree n-1 elements with exactly one upper cover."""
    n = p.rank
    new_id = "s*"
    while new_id in p:
        new_id += "*"
    degrees = {e: p.degree(e) for e in p.elements()} | {new_id: n}
    covers = list(p.covers())
    covers += [
        (e, new_id)
        for e in p.elements_of_degree(n - 1)
        if len(p.upper_covers(e)) == 1
    ]
    covers.append((new_id, p.top))
    return GradedPoset(n, degrees, covers)


def test_semisuspend_matches_cover_count_rule():
    cube, simplex = cube_fan(3), simplex_fan(4)
    for p in [
        polygon_minus_facet(4),
        single_ray(),
        pyramid_without_apex_star(),
        minus_facet(cube, cube.elements_of_degree(3)[0]),
        minus_facet(simplex, simplex.elements_of_degree(4)[0]),
    ]:
        assert semisuspend(p).dumps() == _semisuspension_by_cover_count(p).dumps()


def test_semisuspend_rejects_bad_input():
    with pytest.raises(ValueError):
        semisuspend(chain(2))


def test_semisuspended_ball_is_gorenstein():
    # the pillow: two squares glued along their boundary
    from cdindex.homology import is_gorenstein_star

    pillow = semisuspend(pyramid_without_apex_star())
    assert is_gorenstein_star(pillow)


def test_quasiconvex_index_polygon_minus_facet():
    qc = cd_index_quasiconvex(polygon_minus_facet(4))
    assert qc.interior == CdPolynomial({"d": 2})
    assert qc.boundary == CdPolynomial({"c": 1})


def test_quasiconvex_index_single_ray():
    qc = cd_index_quasiconvex(single_ray())
    assert qc.interior == CdPolynomial.zero()
    assert qc.boundary == CdPolynomial.one()


def test_quasiconvex_index_complete():
    qc = cd_index_quasiconvex(polygon(7))
    assert qc.interior == cd_index_flag(polygon(7))
    assert qc.boundary == CdPolynomial.zero()


def test_quasiconvex_index_rejects_complete_non_sphere():
    # complete and Eulerian, so the flag route alone would answer, but not
    # Gorenstein*: is_quasi_convex and cd_index_quasiconvex both refuse it
    torus, _ = manifold_controls()["cubical 3-torus"]
    assert not is_quasi_convex(torus)
    with pytest.raises(ValueError, match="input is not quasi-convex"):
        cd_index_quasiconvex(torus)


def test_quasiconvex_defining_identity():
    for p in [polygon_minus_facet(4), polygon_minus_facet(6), single_ray()]:
        qc = cd_index_quasiconvex(p)
        assert qc.interior + qc.boundary * CdPolynomial({"c": 1}) == cd_index_flag(
            semisuspend(p)
        )


def test_shelling_polygon4_steps():
    steps = shelling_steps(polygon(4), ["f1", "f2", "f3", "f4"])
    fs = [(str(f), str(g)) for _, f, g in steps]
    assert fs == [("0", "1"), ("0", "1"), ("c", "0")]
    assert shelling_sum(polygon(4), ["f1", "f2", "f3", "f4"]) == CdPolynomial(
        {"cc": 1, "d": 2}
    )


def test_shelling_polygon_cyclic_orders():
    for k in range(3, 9):
        order = [f"f{i}" for i in range(1, k + 1)]
        assert shelling_sum(polygon(k), order) == cd_index_flag(polygon(k))


def test_shelling_with_nonadjacent_later_step():
    # third facet not adjacent to the second: still a valid shelling
    assert shelling_sum(polygon(4), ["f1", "f2", "f4", "f3"]) == CdPolynomial(
        {"cc": 1, "d": 2}
    )


def test_shelling_rejects_disconnected_start():
    # second facet shares no ray with the first: intersection is just the
    # bottom, which is not 1-dimensional
    with pytest.raises(ShellingInvalid) as info:
        shelling_sum(polygon(4), ["f1", "f3", "f2", "f4"])
    assert info.value.step == 2


def test_shelling_order_must_cover_facets():
    with pytest.raises(ValueError):
        shelling_sum(polygon(4), ["f1", "f2", "f3"])
    with pytest.raises(ValueError):
        shelling_sum(polygon(4), ["f1", "f2", "f3", "f3"])


def test_shelling_rank_one():
    s1 = simplex_fan(1)
    order = list(s1.elements_of_degree(1))
    assert shelling_sum(s1, order) == CdPolynomial({"c": 1})


def test_shelling_simplex_and_cube():
    s3 = simplex_fan(3)
    order = sorted(s3.elements_of_degree(3))  # any simplex facet order shells
    assert shelling_sum(s3, order) == cd_index_flag(s3)
    c3 = cube_fan(3)
    # walk around the cube before closing with the opposite pair
    order = ["0**", "*0*", "**0", "1**", "*1*", "**1"]
    assert shelling_sum(c3, order) == cd_index_flag(c3)
    # starting with two opposite facets is not a shelling
    with pytest.raises(ShellingInvalid):
        shelling_sum(c3, ["0**", "1**", "*0*", "**0", "*1*", "**1"])


def test_pi_decomposition_pyramid():
    pyr = build_pyramid(polygon(4))
    pi = ["b:f1", "b:f2", "a:r3", "a:r4", "b:f4"]
    assert pi_decomposition(pyr, pi) == CdPolynomial({"ccc": 1, "cd": 3, "dc": 3})


def test_pi_decomposition_tetrahedron():
    got = pi_decomposition(simplex_fan(3), ["1.2", "2.3", "3.4", "1.4"])
    assert got == CdPolynomial({"ccc": 1, "cd": 2, "dc": 2})


def test_pi_decomposition_polygon():
    for k in (4, 6, 9):
        p = polygon(k)
        assert pi_decomposition(p, ["r1", "r2"]) == cd_index_flag(p)


def test_pi_decomposition_rejects_bad_pi():
    pyr = build_pyramid(polygon(4))
    # four edges cannot be a Hamiltonian cycle on five vertices
    with pytest.raises(PiNotComplete):
        pi_decomposition(pyr, ["b:f1", "b:f2", "b:f3", "b:f4"])
    with pytest.raises(PiNotComplete):
        pi_decomposition(pyr, ["b:f1", "b:r1"])


def test_poincare_data_is_interior_plus_boundary():
    # the h-data of a quasi-convex poset equals the t-substitution image of
    # interior + boundary, even though the poset itself is not Eulerian
    from cdindex.cdpoly import SubsetPolynomial, phi_expand
    from cdindex.flags import flag_f, flag_h

    for p in [polygon_minus_facet(4), polygon_minus_facet(7), single_ray()]:
        qc = cd_index_quasiconvex(p)
        expected = SubsetPolynomial(p.rank)
        if qc.interior:
            expected = expected + SubsetPolynomial(
                p.rank, phi_expand(qc.interior).terms
            )
        if qc.boundary:
            expected = expected + SubsetPolynomial(
                p.rank, phi_expand(qc.boundary).terms
            )
        assert flag_h(flag_f(p)) == expected


def test_step_parts_nonnegative():
    for k in (4, 6):
        for sigma, f, g in shelling_steps(polygon(k), [f"f{i}" for i in range(1, k + 1)]):
            assert all(v >= 0 for _, v in f.sorted_terms())
            assert all(v >= 0 for _, v in g.sorted_terms())


def test_shelling_certifies_each_step_once(monkeypatch):
    # one boundary and one certification a step: the boundary of each
    # non-complete intersection, and the last, complete one itself
    import cdindex.homology as homology

    calls = {"boundary_of": 0, "is_gorenstein_star": 0}

    def counted(name):
        inner = getattr(homology, name)

        def wrapper(p):
            calls[name] += 1
            return inner(p)

        monkeypatch.setattr(homology, name, wrapper)

    counted("boundary_of")
    counted("is_gorenstein_star")
    s4 = simplex_fan(4)
    order = sorted(s4.elements_of_degree(4))
    steps = shelling_steps(s4, order)
    assert len(steps) == 4
    assert [bool(boundary) for _, _, boundary in steps] == [True] * 3 + [False]
    assert calls == {"boundary_of": 4, "is_gorenstein_star": 4}
    assert shelling_sum(s4, order) == cd_index_flag(s4)


@pytest.mark.parametrize(
    "call, error, message",
    [
        # the third facet meets the first two in an edge and the apex, which
        # is not graded once a top is adjoined
        (lambda: shelling_steps(
            build_pyramid(polygon(4)), ["a:f1", "b:_top", "a:f3", "a:f2", "a:f4"]),
         ShellingInvalid,
         "shelling step 3: cover a:_bot < _top jumps from degree 1 to 3"),
        # the fourth square meets the first three in two opposite edges
        (lambda: shelling_steps(
            cube_fan(3), ["**0", "*0*", "**1", "*1*", "0**", "1**"]),
         ShellingInvalid, "shelling step 4: intersection is not quasi-convex"),
        (lambda: pi_decomposition(chain(1), []),
         ValueError, "decomposition needs rank >= 2"),
    ],
    ids=["ungraded-intersection", "not-quasi-convex", "pi-rank-1"],
)
def test_decomposition_rejections(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message
