import itertools
import random
import signal
from functools import cache
from math import factorial, prod

import pytest
from hypothesis import strategies as st

from cdindex import poset as poset_mod
from cdindex.cdpoly import CdPolynomial, SubsetPolynomial, to_cd
from cdindex.flags import flag_h
from cdindex.homology import (
    GorensteinCertificate,
    HomologyProfile,
    SimplicialComplex,
    _convolve,
    _interval_complex,
    reduced_homology,
)
from cdindex.poset import (
    GradedPoset,
    build_family,
    chain_levels,
    induced_subposet,
    mask_indices,
    star,
)


def random_graded_poset(rng, max_rank=3, max_width=4):
    """A random valid graded poset: random layer sizes and a random bipartite
    cover relation between consecutive layers, patched so that every element
    has something above and below it."""
    rank = rng.randint(1, max_rank)
    layers = [
        [f"e{d}_{i}" for i in range(rng.randint(1, max_width))]
        for d in range(1, rank + 1)
    ]
    degrees = {"_bot": 0, "_top": rank + 1}
    for d, layer in enumerate(layers, start=1):
        for e in layer:
            degrees[e] = d
    covers = [("_bot", e) for e in layers[0]]
    covers += [(e, "_top") for e in layers[-1]]
    for low, high in zip(layers, layers[1:]):
        linked_low = set()
        for h in high:
            picks = rng.sample(low, rng.randint(1, len(low)))
            covers += [(l, h) for l in picks]
            linked_low.update(picks)
        for l in low:
            if l not in linked_low:
                covers.append((l, rng.choice(high)))
    return GradedPoset(rank, degrees, sorted(set(covers)))


def relabeled(p, rng):
    """The same poset with shuffled opaque ids."""
    names = list(p.elements())
    perm = names[:]
    rng.shuffle(perm)
    rename = dict(zip(names, perm))
    degrees = {rename[e]: p.degree(e) for e in names}
    covers = [(rename[a], rename[b]) for a, b in p.covers()]
    return GradedPoset(p.rank, degrees, covers)


def is_isomorphic(p, q):
    """Poset isomorphism by signature refinement plus backtracking.

    Intended for the small posets of the tests (a few hundred elements);
    the refinement by (degree, cover-degree) signatures usually leaves little
    for the search to do.
    """
    if p.rank != q.rank or len(p) != len(q):
        return False

    def refine(poset):
        sig = {e: (poset.degree(e),) for e in poset.elements()}
        for _ in range(len(poset)):
            new = {}
            for e in poset.elements():
                ups = sorted(sig[u] for u in poset.upper_covers(e))
                downs = sorted(sig[d] for d in poset.lower_covers(e))
                new[e] = (sig[e], tuple(ups), tuple(downs))
            # compress to small hashable tokens
            codes = {s: i for i, s in enumerate(sorted(set(new.values())))}
            new = {e: (poset.degree(e), codes[s]) for e, s in new.items()}
            if new == sig:
                break
            sig = new
        return sig

    psig, qsig = refine(p), refine(q)
    if sorted(psig.values()) != sorted(qsig.values()):
        return False
    q_by_sig = {}
    for e, s in qsig.items():
        q_by_sig.setdefault(s, []).append(e)

    # order so each element lands next to already-placed cover-neighbours;
    # a layer-by-layer order would defer all constraints and backtrack badly
    neighbors = {
        e: set(p.upper_covers(e)) | set(p.lower_covers(e)) for e in p.elements()
    }
    p_order = []
    placed = set()
    remaining = set(p.elements())
    while remaining:
        nxt = min(
            remaining,
            key=lambda e: (
                -len(neighbors[e] & placed),
                len(q_by_sig[psig[e]]),
                e,
            ),
        )
        p_order.append(nxt)
        placed.add(nxt)
        remaining.discard(nxt)

    mapping = {}
    used = set()

    def compatible(e, f):
        f_up = set(q.upper_covers(f))
        for u in p.upper_covers(e):
            if u in mapping and mapping[u] not in f_up:
                return False
        f_down = set(q.lower_covers(f))
        for d in p.lower_covers(e):
            if d in mapping and mapping[d] not in f_down:
                return False
        # cover counts already matched through signatures
        return True

    def search(i):
        if i == len(p_order):
            return True
        e = p_order[i]
        for f in q_by_sig[psig[e]]:
            if f in used or not compatible(e, f):
                continue
            mapping[e] = f
            used.add(f)
            if search(i + 1):
                return True
            del mapping[e]
            used.discard(f)
        return False

    if not search(0):
        return False
    # verify covers transport exactly
    pcov = {(mapping[a], mapping[b]) for a, b in p.covers()}
    return pcov == set(map(tuple, q.covers()))


def polygon_minus_facet(k=4):
    """polygon(k) with one maximal cone removed: the standard quasi-convex
    but non-complete example."""
    return minus_facet(poset_mod.polygon(k), f"f{k}")


def pyramid_without_apex_star():
    """Square pyramid with the open star of its apex deleted (a 3-ball's
    face poset: not Gorenstein*)."""
    p = poset_mod.build_pyramid(poset_mod.polygon(4))
    members = set(p.proper_elements()) - star(p, "a:_bot") | {p.bottom}
    return induced_subposet(p, members, adjoin_top=True).poset


def face_poset(facets):
    """Face poset of the pure simplicial complex with these facets: the empty
    face as bottom, nonempty faces by size, and an adjoined top."""
    faces = set()
    for f in facets:
        f = tuple(sorted(f))
        for k in range(1, len(f) + 1):
            faces.update(itertools.combinations(f, k))
    name = lambda face: ".".join(map(str, face)) if face else "_bot"
    rank = max(len(f) for f in faces)
    degrees = {name(f): len(f) for f in faces} | {"_bot": 0, "_top": rank + 1}
    covers = [("_bot", name(f)) for f in faces if len(f) == 1]
    covers += [(name(f), "_top") for f in faces if len(f) == rank]
    for f in faces:
        if len(f) > 1:
            covers += [(name(f[:i] + f[i + 1 :]), name(f)) for i in range(len(f))]
    return GradedPoset(rank, degrees, covers)


# the 7-vertex (Moebius) torus and the 6-vertex real projective plane: every
# proper interval of their face posets is a sphere, the whole is not
TORUS_7 = [(i, (i + 1) % 7, (i + 3) % 7) for i in range(7)] + [
    (i, (i + 2) % 7, (i + 3) % 7) for i in range(7)
]
RP2_6 = [
    (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
    (2, 3, 5), (3, 5, 6), (3, 4, 6), (2, 4, 6), (2, 4, 5),
]


@st.composite
def gorenstein_posets(draw):
    """A random fan member under up to two pyramids and barycentric
    subdivisions: face posets of regular CW spheres, so Gorenstein* and
    Eulerian."""
    sizes = {
        "polygon": (3, 8),
        "simplex_fan": (1, 4),
        "cube_fan": (1, 3),
        "crosspoly_fan": (1, 3),
    }
    kind = draw(st.sampled_from(sorted(sizes)))
    p = poset_mod.build_family(kind, draw(st.integers(*sizes[kind])))
    for step in draw(st.lists(st.sampled_from(["pyramid", "barycentric"]), max_size=2)):
        # subdividing a poset of more than 60 elements could take one
        # example past 0.1 s
        if step == "barycentric" and len(p) <= 60:
            p = poset_mod.barycentric(p).bposet
        else:
            p = poset_mod.build_pyramid(p)
    return p


def product_face_poset(*posets):
    """Face poset of the product of the cell complexes whose face posets are
    given: proper elements are tuples ordered componentwise, a product cell
    has degree sum(deg) - (factors - 1), and a bottom and a top are adjoined.
    Its order complex is the product of the factors' (Walker's theorem)."""
    cells = {(): 0}  # tuples of proper elements, with their degree sums
    for q in posets:
        cells = {
            c + (e,): total + q.degree(e)
            for c, total in cells.items()
            for e in q.proper_elements()
        }
    name = ",".join
    degrees = {name(c): total - (len(posets) - 1) for c, total in cells.items()}
    rank = max(degrees.values())
    degrees |= {"_bot": 0, "_top": rank + 1}
    covers = []
    for c in cells:
        if degrees[name(c)] == 1:
            covers.append(("_bot", name(c)))
        if degrees[name(c)] == rank:
            covers.append((name(c), "_top"))
        for i, q in enumerate(posets):
            for lo in q.lower_covers(c[i]):
                if lo != q.bottom:
                    covers.append((name(c[:i] + (lo,) + c[i + 1 :]), name(c)))
    return GradedPoset(rank, degrees, covers)


def pinched_icosahedron():
    """The icosahedron's boundary with one antipodal pair of vertices
    identified: a pinched sphere, whose pinch vertex has two pentagons as
    its link."""
    # vertex 0 over the pentagon 1..5, vertex 11 under the pentagon 6..10;
    # 11 becomes 0
    top = [(0, i, i % 5 + 1) for i in range(1, 6)]
    band = [(i, i % 5 + 1, i + 5) for i in range(1, 6)]
    band += [(i % 5 + 1, i + 5, i % 5 + 6) for i in range(1, 6)]
    bottom = [(0, i + 5, i % 5 + 6) for i in range(1, 6)]
    return face_poset(top + band + bottom)


def antipodal_quotient(p):
    """crosspoly_fan(n) with each face identified with its negative (signs
    swapped): the face poset of a regular CW structure on RP^(n-1), since no
    face holds two antipodal vertices.  Every proper interval is a boolean
    lattice or a cross-polytope's upper interval, so only the whole can
    fail; RP^(n-1) is a rational homology sphere for even n."""
    swap = str.maketrans("+-", "-+")
    name = lambda e: min(e, e.translate(swap))
    degrees = {name(e): p.degree(e) for e in p.elements()}
    covers = sorted({(name(lo), name(hi)) for lo, hi in p.covers()})
    return GradedPoset(p.rank, degrees, covers)


def glued_spheres(p):
    """Two copies of ``p`` glued at their bottom and top: the proper part is
    two disjoint copies of p's, so the whole is disconnected and every
    proper interval is one of p's."""
    name = lambda e, i: e if e in (p.bottom, p.top) else f"{i}:{e}"
    degrees = {name(e, i): p.degree(e) for i in (1, 2) for e in p.elements()}
    covers = sorted({(name(lo, i), name(hi, i)) for i in (1, 2) for lo, hi in p.covers()})
    return GradedPoset(p.rank, degrees, covers)


def manifold_controls():
    """Closed manifolds whose proper intervals are all spheres, with the
    reduced Betti numbers of the whole (from dimension -1)."""
    c4, s2 = poset_mod.polygon(4), poset_mod.simplex_fan(3)
    return {
        "cubical 3-torus": (product_face_poset(c4, c4, c4), [0, 0, 3, 3, 1]),
        "S2 x S2": (product_face_poset(s2, s2), [0, 0, 0, 2, 0, 1]),
        "S1 x S3": (
            product_face_poset(poset_mod.polygon(3), poset_mod.simplex_fan(4)),
            [0, 0, 1, 0, 1, 1],
        ),
        "pinched icosahedron": (pinched_icosahedron(), [0, 0, 1, 1]),
        "two 3-spheres": (
            glued_spheres(poset_mod.simplex_fan(4)), [0, 1, 0, 0, 2]
        ),
    }


def is_lattice(p):
    """Whether every two elements of the bounded poset ``p`` have a join, from
    the masks: the common upper bounds up[x] & up[y] must all lie above one
    of them.  Indices follow degree, so that one can only be the lowest."""
    up = p.index_data().up
    for x, y in itertools.combinations(range(len(up)), 2):
        common = up[x] & up[y]
        least = (common & -common).bit_length() - 1
        if common & ~up[least]:
            return False
    return True


def digon():
    """Rank 2: two vertices joined by two edges, the face poset of a regular
    CW circle that is not a lattice.  polygon refuses k = 2."""
    degrees = {"_bot": 0, "a": 1, "b": 1, "e1": 2, "e2": 2, "_top": 3}
    covers = [("_bot", "a"), ("_bot", "b"), ("e1", "_top"), ("e2", "_top")]
    covers += [(v, e) for v in "ab" for e in ("e1", "e2")]
    return GradedPoset(2, degrees, covers)


def has_face(complex_, face):
    face = frozenset(face)
    return any(face <= f for f in complex_.facets)


def reduced_euler(complex_):
    """Alternating face count, empty face included: -1 for the empty
    complex, 0 for a point, 1 for S^0."""
    total = 0
    for k, faces in enumerate(complex_.faces_by_dim()):
        total += len(faces) if k % 2 else -len(faces)
    return total


def link(complex_, face):
    """The link {g : g disjoint from face, g union face a face}."""
    face = frozenset(face)
    if not has_face(complex_, face):
        raise ValueError(f"{sorted(face)} is not a face")
    return SimplicialComplex(
        [f - face for f in complex_.facets if face <= f]
    )


def _certify_by_faces(poset):
    """Gorenstein* certificate by the face search.

    Checks the order complex against S^(rank-1) and the link of every
    nonempty face against the complementary sphere; the first failure (faces
    ordered by dimension, then by sorted vertex ids) lands in the
    certificate.  Link homology is assembled from memoized open-interval
    homology by join convolution, which is exact over the rationals.
    """
    n = poset.rank
    cache = {}

    def interval_profile(x, y):
        key = (x, y)
        if key not in cache:
            cache[key] = reduced_homology(_interval_complex(poset, x, y))
        return cache[key]

    def face_profile(chain):
        ends = (poset.bottom,) + chain + (poset.top,)
        vec = (1,)
        for a, b in zip(ends, ends[1:]):
            vec = _convolve(vec, interval_profile(a, b).shifted)
            if not vec:
                break
        return HomologyProfile(vec)

    ix, ids = poset.index_data(), poset.elements()
    # the chain walk yields the faces by dimension; each level is sorted by ids
    for level in chain_levels(ix, ix.up[0] & ~(1 | 1 << len(ids) - 1)):
        faces = sorted((tuple(ids[i] for i in ch) for ch in level), key=sorted)
        for chain in faces:
            expected = HomologyProfile.sphere(n - 1 - len(chain))
            got = face_profile(chain)
            if got != expected:
                return GorensteinCertificate(False, tuple(sorted(chain)), got)
    return GorensteinCertificate(True, None, interval_profile(poset.bottom, poset.top))


def dual(p):
    """The dual poset: degrees flipped and covers reversed, on the same ids.
    Its cd-index is the reverse of p's (Stanley, "Flag f-vectors and the
    cd-index", Math. Z. 1994)."""
    degrees = {e: p.rank + 1 - p.degree(e) for e in p.elements()}
    return GradedPoset(p.rank, degrees, [(hi, lo) for lo, hi in p.covers()])


def upper_interval(p, s):
    """The interval [s, top] of p as a poset of rank p.rank - deg s: the
    elements of up_set(s), degrees shifted by deg s, covers restricted."""
    members = set(p.up_set(s))
    k = p.degree(s)
    degrees = {e: p.degree(e) - k for e in members}
    covers = [(lo, hi) for lo, hi in p.covers() if lo in members]
    return GradedPoset(p.rank - k, degrees, covers)


def simplicial_flag_f(p):
    """The flag f-vector of a poset whose lower intervals [bottom, y], y not
    the top, are all Boolean (face posets of simplicial complexes, the
    simplex and cross-polytope fans, barycentric subdivisions), from its
    layer sizes alone.  A chain with degree set S = {s_1 < ... < s_k} picks
    its top among the f_{s_k} elements of degree s_k, then a chain of the
    Boolean lattice below it: f_S = f_{s_k} * s_k! / (s_1! (s_2 - s_1)! ...
    (s_k - s_{k-1})!).  It shares no code with flag_f."""
    n = p.rank
    size = [len(p.elements_of_degree(d)) for d in range(n + 1)]
    values = [1]
    for mask in range(1, 1 << n):
        s = [i + 1 for i in range(n) if mask >> i & 1]
        steps = [b - a for a, b in zip([0] + s, s)]
        values.append(size[s[-1]] * factorial(s[-1]) // prod(map(factorial, steps)))
    return SubsetPolynomial.from_values(n, values)


def cd_index_simplicial(p):
    """The cd-index of an Eulerian poset with Boolean lower intervals, from
    simplicial_flag_f: a fourth route, through flag_h and to_cd."""
    return to_cd(flag_h(simplicial_flag_f(p)))


def shift_in(h, i):
    """The SubsetPolynomial ``h`` times t_i; every subset of h must avoid i."""
    n, bit = max(h.n, i), 1 << (i - 1)
    out = [0] * (1 << n)
    for mask, v in enumerate(h.values):
        if v:
            if mask & bit:
                raise ValueError(f"t_{i} already present")
            out[mask | bit] = v
    return SubsetPolynomial.from_values(n, out)


def reverse_cd(ix):
    """The cd-polynomial with every word read backwards."""
    return CdPolynomial({w[::-1]: v for w, v in ix.terms.items()})


def _derivation(ix, image):
    """The derivation that sends each letter to the cd-polynomial
    ``image[letter]``, a dict of words and coefficients, applied to ix."""
    terms = {}
    for w, v in ix.terms.items():
        for i, letter in enumerate(w):
            for u, a in image[letter].items():
                u = w[:i] + u + w[i + 1 :]
                terms[u] = terms.get(u, 0) + a * v
    return CdPolynomial(terms)


def pyramid_derivation(ix):
    """G(ix) for the derivation G with G(c) = d and G(d) = cd: by Ehrenborg
    and Readdy ("Coproducts and the cd-index", J. Algebraic Combin. 1998),
    the pyramid over P has cd-index ix*c + G(ix) when ix is P's."""
    return _derivation(ix, {"c": {"d": 1}, "d": {"cd": 1}})


def prism_derivation(ix):
    """D(ix) for the derivation D with D(c) = 2d and D(d) = cd + dc: by the
    same paper, the prism over P has cd-index ix*c + D(ix) when ix is P's."""
    return _derivation(ix, {"c": {"d": 2}, "d": {"cd": 1, "dc": 1}})


def minus_facet(p, facet):
    """``p`` with the maximal element ``facet`` removed and a top adjoined."""
    members = set(p.elements()) - {p.top, facet}
    return induced_subposet(p, members, adjoin_top=True).poset


@st.composite
def pure_complex_posets(draw):
    """Face poset of a random pure simplicial complex on at most 7 vertices:
    random facets, or the mod-2 sum of the boundaries of a few random
    simplices, where every ridge lies in an even number of facets (spheres,
    wedges of spheres and other pinched cycles)."""
    n = draw(st.integers(3, 7))
    size = draw(st.integers(2, min(4, n - 1)))
    if draw(st.booleans()):
        candidates = list(itertools.combinations(range(n), size))
        facets = draw(
            st.lists(st.sampled_from(candidates), min_size=1, max_size=16, unique=True)
        )
    else:
        candidates = list(itertools.combinations(range(n), size + 1))
        simplices = draw(
            st.lists(st.sampled_from(candidates), min_size=1, max_size=4, unique=True)
        )
        facets = set()
        for simplex in simplices:
            facets ^= set(itertools.combinations(simplex, size))
        facets = facets or {simplices[0][:size]}
    return face_poset(facets)


@st.composite
def product_posets(draw):
    """Face poset of the product of two small fan members or random graded
    posets of rank <= 2.  Products of spheres are closed manifolds whose
    proper intervals are all spheres, so only the checks after the global
    signing can reject them."""
    factor = st.one_of(
        st.tuples(
            st.sampled_from(["polygon", "simplex_fan", "cube_fan", "crosspoly_fan"]),
            st.integers(1, 3),
        ).map(lambda kp: build_family(kp[0], kp[1] + 2 * (kp[0] == "polygon"))),
        st.randoms(use_true_random=False).map(
            lambda rnd: random_graded_poset(rnd, max_rank=2, max_width=3)
        ),
    )
    return product_face_poset(draw(factor), draw(factor))


@st.composite
def pinched_posets(draw):
    """A random sphere's face poset (gorenstein_posets) with two vertices
    that share no face merged into one: the lower intervals keep their
    shape, and the merged vertex's upper interval falls into two pieces."""
    p = draw(gorenstein_posets())
    ix = p.index_data()
    ids = p.elements()
    pairs = [
        (ids[a], ids[b])
        for a, b in itertools.combinations(mask_indices(ix.layers[1]), 2)
        if (ix.up[a] & ix.up[b]).bit_count() == 1
    ]
    if not pairs:
        return p
    keep, drop = draw(st.sampled_from(pairs))
    rename = lambda e: keep if e == drop else e
    degrees = {e: p.degree(e) for e in ids if e != drop}
    covers = sorted({(rename(lo), rename(hi)) for lo, hi in p.covers()})
    return GradedPoset(p.rank, degrees, covers)


ORACLE_INPUTS = st.one_of(
    st.randoms(use_true_random=False).map(
        lambda rnd: random_graded_poset(rnd, max_rank=5, max_width=4)
    ),
    pure_complex_posets(),
    gorenstein_posets(),
    product_posets(),
    pinched_posets(),
)


@cache
def acceptance_corpus():
    """The Gorenstein* corpus: fan families, pyramids over them, and
    barycentric subdivisions of the rank <= 3 members."""
    members = []
    for n in range(1, 6):
        members.append((f"simplex_fan:{n}", poset_mod.simplex_fan(n)))
    for n in range(1, 5):
        members.append((f"cube_fan:{n}", poset_mod.cube_fan(n)))
        members.append((f"crosspoly_fan:{n}", poset_mod.crosspoly_fan(n)))
    members += [
        (f"pyramid({name})", poset_mod.build_pyramid(p)) for name, p in list(members)
    ]
    members += [
        (f"barycentric({name})", poset_mod.barycentric(p).bposet)
        for name, p in list(members)
        if p.rank <= 3
    ]
    return tuple(members)


@pytest.fixture
def rng():
    return random.Random(20240811)


# a per-test limit, so a search or elimination that never ends fails its
# test instead of hanging the suite; the slowest test takes under 10 s
TEST_TIME_LIMIT_S = 300


class TimeLimitExceeded(BaseException):
    """Raised in a test that runs past TEST_TIME_LIMIT_S.  Not an Exception,
    so neither the code under test nor hypothesis catches it and runs the
    hanging example again."""


@pytest.fixture(autouse=True)
def time_limit():
    """Arm a SIGALRM timer for each test; does nothing where the platform
    has no SIGALRM."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeLimitExceeded(f"test ran past {TEST_TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
