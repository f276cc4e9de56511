from functools import cache
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdindex import kernel
from cdindex.flags import cd_index_flag
from cdindex.homology import (
    GorensteinCertificate,
    HomologyProfile,
    SimplicialComplex,
    _acyclic_below_top,
    _connected,
    _intervals_are_spheres,
    _is_thin,
    _sign_covers,
    _top_cycle,
    is_gorenstein_star,
    order_complex,
    reduced_homology,
)
from cdindex.poset import (
    barycentric,
    build_pyramid,
    chain,
    crosspoly_fan,
    cube_fan,
    induced_subposet,
    is_eulerian,
    mask_indices,
    polygon,
    simplex_fan,
)
from cdindex.operators import cd_index_operator
from cdindex.recursion import cd_index_stanley
from cdindex.shelling import boundary_of, is_quasi_convex

from conftest import (
    ORACLE_INPUTS,
    RP2_6,
    TORUS_7,
    _certify_by_faces,
    antipodal_quotient,
    digon,
    face_poset,
    glued_spheres,
    has_face,
    link,
    manifold_controls,
    minus_facet,
    polygon_minus_facet,
    pyramid_without_apex_star,
    random_graded_poset,
    reduced_euler,
    relabeled,
)


def cycle_complex(n):
    return SimplicialComplex([(i, (i + 1) % n) for i in range(n)])


def octahedron():
    return SimplicialComplex(
        [
            (sx + "x", sy + "y", sz + "z")
            for sx in "+-"
            for sy in "+-"
            for sz in "+-"
        ]
    )


def test_complex_normalizes_facets():
    k = SimplicialComplex([(1, 2, 3), (2, 3), (1, 2, 3), (4,)])
    assert k.facets == (frozenset({4}), frozenset({1, 2, 3}))
    assert k.dim == 2
    assert has_face(k, ()) and has_face(k, (2, 3)) and not has_face(k, (1, 4))


def test_face_counts():
    k = SimplicialComplex([(1, 2, 3)])
    assert k.num_faces() == [1, 3, 3, 1]
    assert SimplicialComplex([]).num_faces() == [1]


def test_homology_known_spaces():
    assert reduced_homology(cycle_complex(5)) == HomologyProfile.sphere(1)
    assert reduced_homology(SimplicialComplex([(1,), (2,)])) == HomologyProfile(
        [0, 1]
    )
    assert reduced_homology(SimplicialComplex([(1, 2)])) == HomologyProfile([])
    assert reduced_homology(SimplicialComplex([])) == HomologyProfile.sphere(-1)
    assert reduced_homology(octahedron()) == HomologyProfile.sphere(2)


def test_homology_torus_is_invisible_over_q():
    # real projective plane: all rational homology vanishes
    assert reduced_homology(SimplicialComplex(RP2_6)) == HomologyProfile([])


def test_profile_api():
    s2 = HomologyProfile.sphere(2)
    assert s2.betti(2) == 1 and s2.betti(1) == 0 and s2.betti(-1) == 0
    assert s2.is_sphere(2) and not s2.is_sphere(1)
    assert HomologyProfile([0, 0, 1, 0, 0]) == HomologyProfile([0, 0, 1])
    with pytest.raises(ValueError):
        HomologyProfile([0, -1])


@pytest.mark.parametrize("shifted", [[], [1], [0, 1], [0, 0, 2], [0, 1, 1]])
def test_is_sphere_matches_the_sphere_profile(shifted):
    profile = HomologyProfile(shifted)
    for d in range(-1, 6):
        assert profile.is_sphere(d) == (profile == HomologyProfile.sphere(d))


def test_euler_characteristic_consistency():
    for k in [cycle_complex(6), octahedron(), SimplicialComplex([(1, 2), (2, 3)])]:
        profile = reduced_homology(k)
        euler = sum(
            (-1) ** i * profile.betti(i) for i in range(-1, k.dim + 1)
        )
        assert euler == reduced_euler(k)


def test_link():
    cyc = cycle_complex(6)
    lk = link(cyc, (0,))
    assert lk.facets == (frozenset({1}), frozenset({5}))
    assert link(cyc, ()).facets == cyc.facets
    oct_lk = link(octahedron(), ("+x", "+y"))
    assert reduced_homology(oct_lk) == HomologyProfile.sphere(0)
    with pytest.raises(ValueError):
        link(cyc, (0, 2))


def test_order_complex_examples():
    k3 = order_complex(polygon(3))
    assert k3.num_faces() == [1, 6, 6]
    assert reduced_homology(k3) == HomologyProfile.sphere(1)

    kc = order_complex(chain(2))
    assert kc.num_faces() == [1, 2, 1]

    ks = order_complex(simplex_fan(3))
    assert ks.num_faces() == [1, 14, 36, 24]
    assert reduced_homology(ks) == HomologyProfile.sphere(2)


def test_gorenstein_star_positives():
    for p in [
        polygon(3),
        polygon(7),
        build_pyramid(polygon(4)),
        simplex_fan(4),
        cube_fan(3),
        crosspoly_fan(3),
        barycentric(polygon(4)).bposet,
    ]:
        cert = is_gorenstein_star(p)
        assert cert
        assert cert.failing_face is None
        assert cert.betti == HomologyProfile.sphere(p.rank - 1)


def test_gorenstein_star_negatives():
    c = is_gorenstein_star(chain(2))
    assert not c and c.failing_face == ()

    pm = polygon_minus_facet(4)
    cert = is_gorenstein_star(pm)
    assert not cert and cert.failing_face == ()

    ball = pyramid_without_apex_star()
    cert = is_gorenstein_star(ball)
    assert not cert


def test_gorenstein_star_finds_bad_link():
    # polygon(3) with a whisker ray below one facet: the order complex is
    # still homotopy equivalent to a circle (global check passes) but the
    # junction vertex has a three-point link
    p = polygon(3)
    degrees = {e: p.degree(e) for e in p.elements()}
    covers = list(p.covers())
    degrees["r4"] = 1
    covers += [("_bot", "r4"), ("r4", "f1")]
    from cdindex.poset import GradedPoset

    q = GradedPoset(2, degrees, covers)
    assert reduced_homology(order_complex(q)) == HomologyProfile.sphere(1)
    cert = is_gorenstein_star(q)
    assert not cert
    assert cert.failing_face == ("f1",)
    assert cert.betti == HomologyProfile([0, 2])  # three points


def test_gorenstein_implies_eulerian(rng):
    posets = [polygon(5), chain(2), polygon_minus_facet(4), cube_fan(2)]
    posets += [random_graded_poset(rng) for _ in range(25)]
    for p in posets:
        if is_gorenstein_star(p):
            assert is_eulerian(p)


def test_gorenstein_star_is_isomorphism_invariant(rng):
    for p in [polygon(5), chain(2), build_pyramid(polygon(3)), polygon_minus_facet(4)]:
        assert bool(is_gorenstein_star(p)) == bool(is_gorenstein_star(relabeled(p, rng)))


def test_certificate_json():
    cert = is_gorenstein_star(polygon(4))
    data = cert.to_json()
    assert data == {
        "gorenstein_star": True,
        "failing_face": None,
        "betti": [0, 0, 1],
    }
    bad = is_gorenstein_star(chain(2)).to_json()
    assert bad["gorenstein_star"] is False and bad["failing_face"] == []


def naive_first_failure(p):
    """Reference Gorenstein* test: explicit link homology per face, faces in
    (dimension, sorted-ids) order."""
    n = p.rank
    k = order_complex(p)
    faces = [()]
    for level in k.faces_by_dim()[1:]:
        faces += sorted(level)
    for face in faces:
        got = reduced_homology(link(k, face))
        if got != HomologyProfile.sphere(n - 1 - len(face)):
            return tuple(sorted(face)), got
    return None, reduced_homology(k)


def test_fast_certifier_matches_naive_link_route():
    posets = [
        polygon(4),
        chain(2),
        polygon_minus_facet(4),
        build_pyramid(polygon(3)),
        pyramid_without_apex_star(),
        barycentric(polygon(3)).bposet,
        cube_fan(2),
        face_poset(TORUS_7),
        face_poset(RP2_6),
    ]
    for p in posets:
        cert = is_gorenstein_star(p)
        face, profile = naive_first_failure(p)
        assert cert.failing_face == face
        assert cert.betti == profile
    # every proper interval of these two is a sphere; only the whole fails
    assert is_gorenstein_star(face_poset(TORUS_7)).to_json() == {
        "gorenstein_star": False, "failing_face": [], "betti": [0, 0, 2, 1],
    }
    assert is_gorenstein_star(face_poset(RP2_6)).to_json() == {
        "gorenstein_star": False, "failing_face": [], "betti": [],
    }


def test_interval_certifier_matches_face_search(rng):
    posets = [
        random_graded_poset(rng, max_rank=rng.randint(1, 4), max_width=rng.randint(1, 4))
        for _ in range(150)
    ]
    posets += [relabeled(build_pyramid(polygon(k)), rng) for k in (3, 5)]
    posets += [barycentric(q).bposet for q in posets[:20] if len(q) < 12]
    posets += [chain(0), relabeled(barycentric(cube_fan(2)).bposet, rng)]
    verdicts = set()
    for p in posets:
        cert = is_gorenstein_star(p)
        assert cert.to_json() == _certify_by_faces(p).to_json(), p.covers()
        verdicts.add(bool(cert))
    assert verdicts == {True, False}


def test_passing_certificates_need_no_order_complex(monkeypatch):
    import cdindex.homology as homology

    def refuse(complex_):
        raise AssertionError("order-complex homology on a passing poset")

    monkeypatch.setattr(homology, "reduced_homology", refuse)
    for p in [cube_fan(3), crosspoly_fan(3), build_pyramid(simplex_fan(3)),
              barycentric(polygon(4)).bposet]:
        assert is_gorenstein_star(p).betti == HomologyProfile.sphere(p.rank - 1)


def test_gorenstein_star_simplex_fan_7():
    # 254 elements; the face search alone ran for more than a minute here
    cert = is_gorenstein_star(simplex_fan(7))
    assert cert and cert.betti == HomologyProfile.sphere(6)


def test_link_homology_is_interval_convolution(rng):
    # the identity behind the fast certifier: for any graded poset (Eulerian
    # or not) the link of a chain face is the join of the gap interval
    # complexes, and reduced homology convolves (shifted by one) over joins
    from cdindex.homology import _interval_complex

    def convolve(a, b):
        out = [0] * (len(a) + len(b) - 1) if a and b else []
        for i, va in enumerate(a):
            for j, vb in enumerate(b):
                out[i + j] += va * vb
        return tuple(out)

    posets = [polygon(4), chain(3), polygon_minus_facet(5)]
    posets += [random_graded_poset(rng) for _ in range(12)]
    for p in posets:
        k = order_complex(p)
        faces = [face for level in k.faces_by_dim() for face in level]
        for face in faces:
            naive = reduced_homology(link(k, face))
            chain_sorted = sorted(face, key=p.degree)
            ends = [p.bottom] + chain_sorted + [p.top]
            vec = (1,)
            for a, b in zip(ends, ends[1:]):
                gap_profile = reduced_homology(_interval_complex(p, a, b))
                vec = convolve(vec, gap_profile.shifted)
            assert HomologyProfile(vec) == naive, (face, p.covers())


def test_barycentric_preserves_homology_profile():
    for p in [polygon(4), simplex_fan(3), chain(2), polygon_minus_facet(4)]:
        direct = reduced_homology(order_complex(p))
        subdivided = reduced_homology(order_complex(barycentric(p).bposet))
        assert direct == subdivided


def test_boundary_of():
    pm = polygon_minus_facet(4)
    bnd = boundary_of(pm)
    assert bnd.poset is not None
    assert bnd.poset.rank == 1
    assert len(bnd.poset.elements_of_degree(1)) == 2

    assert boundary_of(polygon(5)).poset is None

    # single-ray rank-1 fan: the bottom is covered by exactly one atom
    ray = induced_subposet(polygon(3), ["_bot", "r1"], adjoin_top=True).poset
    bnd = boundary_of(ray)
    assert bnd.poset is not None and bnd.poset.rank == 0


def test_is_quasi_convex():
    assert is_quasi_convex(polygon_minus_facet(4))
    assert is_quasi_convex(polygon(6))  # complete and Gorenstein*
    # a solid ball is quasi-convex without being Gorenstein*
    ball = pyramid_without_apex_star()
    assert is_quasi_convex(ball) and not is_gorenstein_star(ball)
    # chain(2) has a single-point boundary, which is not a homology sphere
    assert not is_quasi_convex(chain(2))

    ray = induced_subposet(polygon(3), ["_bot", "r1"], adjoin_top=True).poset
    assert is_quasi_convex(ray)


# -- the per-pair route, kept as the oracle for _intervals_are_spheres --------


def _spheres(poset):
    """_intervals_are_spheres with the poset's own cover signing, made on
    first use."""
    ix = poset.index_data()
    return _intervals_are_spheres(poset, cache(lambda: _sign_covers(ix)))


def _intervals_are_spheres_per_pair(poset):
    """True when every open interval (x, y) is a rational homology sphere of
    dimension deg y - deg x - 2; False at the first interval that is not, or
    whose top cycle cannot be found by sign propagation."""
    ix = poset.index_data()
    down, up, deg = ix.down, ix.up, ix.deg
    cov_down = ix.cov_down
    # element indices are sorted by degree: reversed order visits bases in
    # decreasing degree, and mask_indices yields the elements above one
    # increasingly
    for x in reversed(range(len(deg))):
        # boundary[z] maps the cells of [x, z) one dimension below z to +-1
        boundary = {}
        for y in mask_indices(up[x] & ~(1 << x)):
            d = deg[y] - deg[x] - 2  # dimension of the sphere (x, y) must be
            if d < 0:
                boundary[y] = {x: 1}
                continue
            cells = up[x] & down[y]
            facets = [c for c in cov_down[y] if cells >> c & 1]
            top = _top_cycle(facets, boundary)
            if top is None:
                return False
            if d >= 1 and not _acyclic_below_top_all_ranks(
                cells, deg[x], d, deg, boundary
            ):
                return False
            boundary[y] = top
    return True


def _acyclic_below_top_all_ranks(cells, base_deg, d, deg, boundary):
    """Whether the cellular complex of [x, y) has no reduced homology in
    dimensions 0 .. d-1, given that its top boundary has a one-dimensional
    kernel; ``cells`` is the mask of [x, y], and deg x is ``base_deg``.

    With r_k the rank of the boundary from dimension k to k-1, Betti number
    k is |C_k| - r_k - r_(k+1).  r_0 = 1 (every vertex bounds the (-1)-cell)
    and r_d = |C_d| - 1 are known; kernel.sparse_rank gives the others.
    """
    levels = [[] for _ in range(d + 1)]
    for z in mask_indices(cells):
        k = deg[z] - base_deg - 1
        if 0 <= k <= d:
            levels[k].append(z)
    ranks = [1]
    for k in range(1, d):
        entries = [(w, z, a) for z in levels[k] for w, a in boundary[z].items()]
        ranks.append(kernel.sparse_rank(entries))
    ranks.append(len(levels[d]) - 1)
    return all(len(levels[k]) == ranks[k] + ranks[k + 1] for k in range(d))


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(ORACLE_INPUTS)
def test_intervals_are_spheres_matches_per_pair_oracle(p):
    assert _spheres(p) == _intervals_are_spheres_per_pair(p)


def _thin_per_pair(poset):
    """Whether every x < y with deg y - deg x = 2 has exactly two elements
    between them, pair by pair."""
    ix = poset.index_data()
    up, down, deg = ix.up, ix.down, ix.deg
    return all(
        (up[x] & down[y]).bit_count() == 4
        for x in range(len(deg))
        for y in mask_indices(up[x])
        if deg[y] - deg[x] == 2
    )


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(
    st.one_of(
        ORACLE_INPUTS,
        st.randoms(use_true_random=False).map(
            lambda rnd: random_graded_poset(rnd, max_rank=4, max_width=3)
        ),
    )
)
def test_thin_check_matches_per_pair_oracle(p):
    assert _is_thin(p.index_data()) == _thin_per_pair(p)


def two_digons():
    """Rank 2: two disjoint digons, each two vertices joined by two edges.
    It is Eulerian and thin, but its proper part is two circles."""
    return glued_spheres(digon())


def test_two_disjoint_digons_are_rejected():
    # the whole (bottom, top) has four vertices in two components: r_1 = 2,
    # so the vertex-count shortcut r_1 = |C_0| - 1 must not reach it
    p = two_digons()
    assert is_eulerian(p) and _is_thin(p.index_data())
    assert not _spheres(p)
    assert not _intervals_are_spheres_per_pair(p)
    cert = is_gorenstein_star(p).to_json()
    assert cert == {"gorenstein_star": False, "failing_face": [], "betti": [0, 1, 2]}
    assert cert == _certify_by_faces(p).to_json()


def _acyclic_below_top_exact(cells, base_deg, d, layers, eps, rank):
    """The test of _acyclic_below_top with every rank from ``rank`` on the
    signed entries: kernel.sparse_rank gives the exact test, the oracle, and
    _entries_rank_mod2 the GF(2) test alone."""
    sizes = [(cells & layers[base_deg + 1 + k]).bit_count() for k in range(d + 1)]
    m = (d - 1) // 2
    ranks = [1]
    for k in range(1, m + 2):
        level = cells & layers[base_deg + 1 + k]
        entries = [
            (w, z, a)
            for z in mask_indices(level)
            for w, a in eps[z].items()
            if cells >> w & 1
        ]
        ranks.append(rank(entries))
    if any(sizes[k] != ranks[k] + ranks[k + 1] for k in range(m + 1)):
        return False
    return d % 2 == 1 or sum(sizes[::2]) - sum(sizes[1::2]) == 2


def _entries_rank_mod2(entries):
    """Rank over GF(2) of the (row, col, +-1) entries."""
    rows = {}
    for w, z, _ in entries:
        rows[z] = rows.get(z, 0) ^ 1 << w
    return kernel.rank_mod2(rows.values())


@st.composite
def antipodal_posets(draw):
    """RP^(n-1) as antipodal_quotient(crosspoly_fan(n)), maybe under a
    pyramid, so that a lower interval carries the 2-torsion."""
    p = antipodal_quotient(crosspoly_fan(draw(st.integers(2, 4))))
    return build_pyramid(p) if draw(st.booleans()) else p


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(st.one_of(ORACLE_INPUTS, antipodal_posets()))
def test_mod2_acceptance_implies_exact_acceptance(p):
    # every interval the fast route checks: the GF(2) test alone accepts only
    # what the exact test accepts, and the fast route's verdict is the exact
    # one
    seen = []

    def checked(cells, base_deg, d, layers, down, cov_down, signing):
        got = _acyclic_below_top(cells, base_deg, d, layers, down, cov_down, signing)
        eps = signing()
        # the signed tests need a signing; a poset without one fails at its
        # first GF(2) deficit, if not before
        if None not in eps:
            args = (cells, base_deg, d, layers, eps)
            seen.append(
                (
                    _acyclic_below_top_exact(*args, _entries_rank_mod2),
                    _acyclic_below_top_exact(*args, kernel.sparse_rank),
                    got,
                )
            )
        return got

    with mock.patch("cdindex.homology._acyclic_below_top", checked):
        _spheres(p)
    for mod2, exact, got in seen:
        assert got == exact
        assert exact or not mod2


# the dimension d of the interval at which the fast route rejects each
# control first: the pinch vertex's link (two pentagons, d = 1) fails the
# flood (b_0 = 1); the 3-torus fails the rank r_2 (b_1 = 3) on the whole,
# and S2 x S2 and S1 x S3 the Euler characteristic of the whole; the two
# 3-spheres fail the flood on the whole, at odd d, where no Euler test is
# taken
FIRST_REJECTION = {
    "cubical 3-torus": 3,
    "S2 x S2": 4,
    "S1 x S3": 4,
    "pinched icosahedron": 1,
    "two 3-spheres": 3,
}


@pytest.mark.parametrize("name", sorted(manifold_controls()))
def test_manifold_controls_are_rejected(name, monkeypatch):
    # closed manifolds whose proper intervals are all spheres, and a pinched
    # sphere: each passes the global signing
    import cdindex.homology as homology

    p, betti = manifold_controls()[name]
    rejections = []

    check = homology._acyclic_below_top

    def spy(*args):
        ok = check(*args)
        if not ok:
            rejections.append(args[2])
        return ok

    monkeypatch.setattr(homology, "_acyclic_below_top", spy)
    assert not _spheres(p)
    assert rejections == [FIRST_REJECTION[name]]
    assert not _intervals_are_spheres_per_pair(p)
    cert = is_gorenstein_star(p).to_json()
    assert cert == {"gorenstein_star": False, "failing_face": [], "betti": betti}
    assert cert == _certify_by_faces(p).to_json()


# -- the rank r_1, kept as the oracle for the connectivity flood --------------


def _rank_connected(ix, cells, base_deg):
    """|C_0| - r_1 == 1 for the cellular complex of [x, y): r_1 is the GF(2)
    rank of the atom masks of the edges (the cells of degree deg x + 2),
    |C_0| minus the number of components of the graph of atoms and edges
    when every edge has two atoms (the thin check)."""
    atoms = cells & ix.layers[base_deg + 1]
    edges = cells & ix.layers[base_deg + 2]
    r_1 = kernel.rank_mod2([ix.down[z] & atoms for z in mask_indices(edges)])
    return atoms.bit_count() - r_1 == 1


def flood_and_rank(p):
    """(connected by the flood, connected by r_1) for every interval (x, y)
    with d >= 1 of the thin poset ``p``, for those whose intervals (x, c),
    c a coatom of [x, y] with d >= 1, r_1 finds connected.  The edges join
    only atoms below one coatom, so a graph connected by r_1 is connected
    for the flood; the converse needs each coatom's atoms joined by edges,
    which the certification walk has checked before it reaches (x, y)."""
    ix = p.index_data()
    up, down, deg, layers = ix.up, ix.down, ix.deg, ix.layers
    by_rank, verdicts = {}, []
    # mask_indices yields the elements above x increasingly, so (x, c) comes
    # before (x, y) for every coatom c of [x, y]
    for x in range(len(deg)):
        for y in mask_indices(up[x]):
            if deg[y] - deg[x] < 3:
                continue
            cells = up[x] & down[y]
            atoms = cells & layers[deg[x] + 1]
            rank = by_rank[x, y] = _rank_connected(ix, cells, deg[x])
            flood = _connected(cells, atoms, down, ix.cov_down)
            assert flood or not rank, (x, y)
            coatoms = [c for c in ix.cov_down[y] if cells >> c & 1]
            if all(by_rank.get((x, c), True) for c in coatoms):
                verdicts.append((flood, rank))
    return verdicts


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(st.one_of(ORACLE_INPUTS, antipodal_posets()))
def test_flood_matches_rank_connectivity(p):
    if _is_thin(p.index_data()):
        for flood, rank in flood_and_rank(p):
            assert flood == rank


def test_flood_matches_rank_connectivity_on_the_controls():
    controls = [p for p, _ in manifold_controls().values()] + [two_digons()]
    verdicts = [v for p in controls for v in flood_and_rank(p)]
    assert all(flood == rank for flood, rank in verdicts)
    # the pinch vertex's link, the two digons and the two 3-spheres: the
    # corpus holds disconnected intervals at d = 1 and at d = 3
    assert verdicts.count((False, False)) == 3


def test_passing_spheres_need_no_exact_rank(monkeypatch):
    # nor a signing of the covers: GF(2) certifies them from the masks alone
    import cdindex.homology as homology

    rank, sign, calls, signings = kernel.sparse_rank, homology._sign_covers, [], []

    def counting(entries):
        calls.append(entries)
        return rank(entries)

    def signing(ix):
        signings.append(ix)
        return sign(ix)

    monkeypatch.setattr(kernel, "sparse_rank", counting)
    monkeypatch.setattr(homology, "_sign_covers", signing)
    for p in [build_pyramid(simplex_fan(5)), simplex_fan(7), cube_fan(5),
              crosspoly_fan(5)]:
        assert is_gorenstein_star(p)
    assert calls == []
    assert signings == []


def test_no_rank_below_dimension_three(monkeypatch):
    # the flood decides b_0, so an interval with d <= 2 takes no GF(2) rank;
    # with r_1 as a rank the three members took 479, 270 and 270 of them
    import cdindex.homology as homology

    rank, check = kernel.rank_mod2, homology._acyclic_below_top
    calls, ranked = [], []

    def counting(rows):
        calls.append(rows)
        return rank(rows)

    def spy(cells, base_deg, d, *rest):
        before = len(calls)
        ok = check(cells, base_deg, d, *rest)
        if len(calls) > before:
            ranked.append(d)
        return ok

    monkeypatch.setattr(kernel, "rank_mod2", counting)
    monkeypatch.setattr(homology, "_acyclic_below_top", spy)
    for p, most in [(build_pyramid(simplex_fan(5)), 100),
                    (build_pyramid(cube_fan(4)), 27),
                    (build_pyramid(crosspoly_fan(4)), 27)]:
        calls.clear()
        assert is_gorenstein_star(p)
        assert 0 < len(calls) <= most
    assert min(ranked) == 3


def test_interval_check_visits_each_pair_of_dimension_one_or_more(monkeypatch):
    # the loop cuts each base's elements above it to those of degree at least
    # deg x + 3 before decoding; every interval of these spheres passes, so
    # each such pair x < y is checked exactly once, and no other pair is
    import cdindex.homology as homology

    check, seen = homology._acyclic_below_top, []

    def spy(cells, base_deg, d, layers, down, cov_down, signing):
        # cells is the mask of [x, y]: x is its lowest bit and y its highest
        seen.append(((cells & -cells).bit_length() - 1, cells.bit_length() - 1, d))
        return check(cells, base_deg, d, layers, down, cov_down, signing)

    monkeypatch.setattr(homology, "_acyclic_below_top", spy)
    for p in [build_pyramid(simplex_fan(5)), simplex_fan(6), cube_fan(5),
              crosspoly_fan(5)]:
        ix = p.index_data()
        up, deg, n = ix.up, ix.deg, len(p)
        expected = sorted(
            (x, y, deg[y] - deg[x] - 2)
            for x in range(n)
            for y in range(n)
            if up[x] >> y & 1 and deg[y] - deg[x] >= 3
        )
        seen.clear()
        assert _spheres(p)
        assert sorted(seen) == expected
        assert min(d for _, _, d in seen) == 1


def test_rp3_certifies_through_the_exact_fallback(monkeypatch):
    # RP^3 is a rational homology sphere with 2-torsion: the GF(2) ranks see
    # b_1 = 1 on the whole, so that interval (d = 3) takes its exact homology
    # from the four signed ranks r_1 .. r_4, and no other interval does
    import cdindex.homology as homology

    rp3 = antipodal_quotient(crosspoly_fan(4))
    assert len(rp3) == 42
    rank, check = kernel.sparse_rank, homology._acyclic_below_top
    calls, fallbacks = [], []

    def counting(entries):
        calls.append(entries)
        return rank(entries)

    def spy(*args):
        before = len(calls)
        ok = check(*args)
        if len(calls) > before:
            fallbacks.append((args[2], len(calls) - before))
        return ok

    monkeypatch.setattr(kernel, "sparse_rank", counting)
    monkeypatch.setattr(homology, "_acyclic_below_top", spy)
    cert = is_gorenstein_star(rp3).to_json()
    assert fallbacks == [(3, 4)]
    assert cert == {
        "gorenstein_star": True, "failing_face": None, "betti": [0, 0, 0, 0, 1],
    }
    assert cert == _certify_by_faces(rp3).to_json()
    expected = "c^4 + 6*c^2d + 8*cdc + 2*dc^2 + 12*dd"
    for route in (cd_index_flag, cd_index_stanley, cd_index_operator):
        assert str(route(rp3)) == expected


@pytest.mark.parametrize("n", [3, 5])
def test_even_dimensional_projective_spaces_are_rejected(n):
    # RP^2 and RP^4 have Euler characteristic 1: only the whole fails
    p = antipodal_quotient(crosspoly_fan(n))
    cert = is_gorenstein_star(p).to_json()
    assert cert == {"gorenstein_star": False, "failing_face": [], "betti": []}
    assert cert == _certify_by_faces(p).to_json()


def _minus_first_facet(p):
    return minus_facet(p, p.elements_of_degree(p.rank)[0])


BALL = {"gorenstein_star": False, "failing_face": [], "betti": []}


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_simplex_fan_minus_a_facet_matches_face_search(n):
    # a ball: the whole is acyclic, so the empty face fails first
    p = _minus_first_facet(simplex_fan(n))
    cert = is_gorenstein_star(p).to_json()
    assert cert == BALL
    assert cert == _certify_by_faces(p).to_json()


def test_failing_certificates_need_no_order_complex(monkeypatch):
    # every lower interval of these is a sphere, so the cellular complex
    # gives the homology of every gap the certificate needs; the face search
    # took 2 s on simplex_fan(6) minus a facet
    import cdindex.homology as homology

    expected = [(_minus_first_facet(simplex_fan(n)), BALL) for n in (6, 7)]
    expected += [
        (face_poset(TORUS_7), BALL | {"betti": [0, 0, 2, 1]}),
        (face_poset(RP2_6), BALL),
    ]
    expected += [(p, BALL | {"betti": betti}) for p, betti in manifold_controls().values()]
    expected += [(antipodal_quotient(crosspoly_fan(n)), BALL) for n in (3, 5)]

    def refuse(complex_):
        raise AssertionError("order-complex homology")

    monkeypatch.setattr(homology, "reduced_homology", refuse)
    for p, cert in expected:
        assert is_gorenstein_star(p).to_json() == cert


def test_ball_certificates_need_no_exact_rank(monkeypatch):
    # every gap of a simplex fan minus a facet has GF(2) Betti numbers that
    # vanish below its top, so the certificate takes no exact rank (316 and
    # 763 calls when every gap took exact ranks)
    rank, calls = kernel.sparse_rank, []

    def counting(entries):
        calls.append(entries)
        return rank(entries)

    monkeypatch.setattr(kernel, "sparse_rank", counting)
    for n in (6, 7):
        assert is_gorenstein_star(_minus_first_facet(simplex_fan(n))).to_json() == BALL
    assert calls == []


def test_failing_certificate_signs_the_covers_once(monkeypatch):
    # the interval check and the certificate share one signing, made at the
    # first GF(2) deficit or for the certificate; a passing sphere makes none
    # unless GF(2) leaves an interval open (RP^3)
    import cdindex.homology as homology

    calls = []
    sign = homology._sign_covers

    def counted(ix):
        calls.append(ix)
        return sign(ix)

    monkeypatch.setattr(homology, "_sign_covers", counted)
    sphere = lambda n: {"gorenstein_star": True, "failing_face": None,
                        "betti": [0] * n + [1]}
    for p, want, signings in [
        (_minus_first_facet(simplex_fan(4)), BALL, 1),
        (face_poset(TORUS_7), BALL | {"betti": [0, 0, 2, 1]}, 1),
        (face_poset(RP2_6), BALL, 1),
        (chain(3), BALL, 1),
        (two_digons(), BALL | {"betti": [0, 1, 2]}, 1),
        (antipodal_quotient(crosspoly_fan(4)), sphere(4), 1),
        (simplex_fan(4), sphere(4), 0),
        (build_pyramid(cube_fan(3)), sphere(4), 0),
        (polygon(5), sphere(2), 0),
    ]:
        calls.clear()
        assert is_gorenstein_star(p).to_json() == want
        assert len(calls) == signings
