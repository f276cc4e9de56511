"""Order complexes, exact rational homology, and Gorenstein* certification.

Homology is taken over the rationals (torsion is deliberately invisible) and
computed from exact ranks of the boundary matrices, with standard alternating
signs over sorted vertex tuples.  A rank-n poset is Gorenstein* when its
order complex has the reduced homology of the sphere S^(n-1) and the link of
every nonempty face has the reduced homology of a sphere of complementary
dimension.

Per-interval equivalence.  The link of a chain face in an order complex is
the join of the order complexes of the gaps the chain cuts out, and over a
field the reduced homology of a join is the shifted convolution of the
factors' homologies.  Every open interval (x, y) is itself a link: that of
a maximal chain of (bottom, x] joined with one of [y, top).
So P is Gorenstein* exactly when every open interval (x, y), x < y, has the
rational homology of S^(deg y - deg x - 2), and is_gorenstein_star checks
intervals, not faces.

Thin check.  An interval of length two is S^0 when it has exactly two
middle elements.  _is_thin checks that for every such interval at once, from
the cover masks: for each y of degree >= 2 it folds the masks
down[c] & layers[deg y - 2] of the lower covers c of y into the elements hit
once and those hit twice, and fails on a third hit or on an element hit only
once.  So the intervals with deg y - deg x = 2 need no further work, and
every element two degrees above another lies on exactly two 2-chains
between them.

Boolean ends.  A Boolean interval, one isomorphic to the lattice of the
subsets of a k-set, is a sphere over every field: its proper part is the
boundary of a (k-1)-simplex.  Every interval inside a Boolean one is
Boolean.  So once the thin check has passed, _boolean_ends finds the mask L
of the elements y with [bottom, y] Boolean and the mask U of the x with
[x, top] Boolean, and the walk visits no base in U and no y in L.
Intervals of length 1 and 2 are Boolean by thinness.  For
k = deg y - deg x >= 3, [x, y] is Boolean when it has k atoms and k
coatoms, each coatom c has [x, c] Boolean, and the coatoms miss pairwise
different atoms, each exactly one.  Proof: with A(z) the set of atoms of
[x, y] below z, the A(c) are then all k of the (k-1)-subsets of the atoms.
Take z and z' with the same atom set S, below coatoms c != c'.  Let w be
the element of the Boolean [x, c] with A(w) = A(c) & A(c').  [w, y] has
length two, so by thinness it holds one coatom besides c; that coatom
misses one atom outside A(w), not the one c misses, so it is c'.  Then z
and z' both lie in the Boolean [x, w] (S is inside A(w)), where S names one
element, and z = z'.  So A is injective, it is onto the subsets (each
proper one lies in some A(c)), and A(z) inside A(z') puts z below z' (in a
Boolean [x, c] that holds z').  So A is an order isomorphism onto the
subsets.  L fills a layer at a time upwards from the bottom, and U by the
same walk in the dual poset, a layer at a time down from the top.  A
skipped interval is a sphere over every field, so every argument below
that needs the proper subintervals of a visited interval to be spheres
holds as it did when every pair was visited.

Cellular complexes.  For a base x, the elements z of [x, y) are the cells
of a chain complex: z has dimension deg z - deg x - 1 and x is the
(-1)-cell.  Over GF(2) the boundary of z is the sum of its lower covers in
[x, y), so the row of z is the mask down[z] restricted to the level below;
it is a boundary since every w two degrees below z lies on exactly two
2-chains w < c < z, all inside [x, z] (the thin check).  It is the sum of
the facets of (x, z), so a nonzero top cycle of (x, z) over GF(2).  Over Q
the boundary needs signs, one signing of the covers for every interval:
atoms get eps = {bottom: 1}, and each element y of degree >= 2, in
increasing index order, gets eps[y], a +-1 vector on its lower covers,
found by propagating signs across ridges (elements two degrees below y) so
that the terms of every 2-chain w < c < y cancel (_sign_covers).
Propagation needs each ridge in exactly two facets and the facets joined
across ridges with consistent signs.  A Gorenstein* poset has this for
every y, since (bottom, y) is a sphere, so a y without it ends the check.
Restricted to [x, z], eps[z] still cancels on every 2-chain, and it is a
nonzero top cycle of (x, z) over Q.

Why the cellular complex computes the homology of Delta(x, y), over a field
F, when every (x, z) with z < y is an F-homology sphere of dimension
deg z - deg x - 2.  Filter the order complex by the degree of a chain's
largest element.  The layer for z is the cone over Delta(x, z) with apex z,
relative to Delta(x, z), whose homology is that of Delta(x, z) shifted up by
one, so it is concentrated in the single degree deg z - deg x - 1.  The E^1
page of the spectral sequence sits in one row, it collapses at E^2, and E^2
is the homology of the complex (E^1, d^1).  Over a field there is no
extension problem.  The true d^1(z) is the image of the fundamental class of
Delta(x, z), a nonzero vector in the same one-dimensional cycle space as the
chosen boundary of z, so the two complexes differ by a diagonal change of
basis and have the same homology.  The argument uses homology only, so
homology spheres that are not topological spheres (the Poincare homology
sphere, or RP^3 over Q) are covered too: nothing needs the cells to be
topological balls.  The construction is the one for CW posets in
A. Bjorner, "Posets, regular CW complexes and Bruhat order", Europ. J.
Combin. 5 (1984).

Order of the walk.  Bases are processed in decreasing degree and the
elements y above a base in increasing degree, so when (x, y) is examined
every (w, z) with w > x, and every (x, z) with z < y, is already certified.
Every link in Delta(x, y) is a join of such intervals, so for
d = deg y - deg x - 2 >= 1, Delta(x, y) is a closed homology d-manifold over
any field its proper subintervals are homology spheres over.  Intervals
with d < 1 need no check past the thin one, so the loop over the y above a
base x never reaches them: indices follow degree order, and the y with
d >= 1 are the bits of up[x] from the first index of degree deg x + 3 on.
Nor does it reach a y in L, or start from a base in U (Boolean ends).
With r_k the rank of the boundary from dimension k to k-1, the reduced
Betti number b_k is |C_k| - r_k - r_(k+1), and r_0 = 1.  Two checks
decide an interval:
- connectivity and ranks: b_0 = 0 says that Delta(x, y) is connected; a
  connected closed homology d-manifold that is orientable over the field
  has b_d = 1 and, by Poincare duality, b_k = b_(d-k).  So b_0 .. b_m with
  m = (d-1) // 2 settle every b_k, 0 <= k < d, except the middle one for
  even d.  b_0 takes no rank.  Each coatom c of [x, y] is adjacent in
  Delta(x, y) to every atom below it, and every element of (x, y) lies
  above an atom and below a coatom, so the components of Delta(x, y) are
  those of the hypergraph on the atoms whose edges are the masks
  down[c] & atoms, over any field.  A flood over those masks (_connected)
  finds whether there is only one, and then b_0 = |C_0| - r_0 - r_1 = 0
  gives r_1 = |C_0| - 1.  Every atom v lies on a 1-cell, since (v, y) is a
  nonempty sphere, and every 1-cell has exactly two atoms below it (the
  thin check), so every component has two atoms or more, and when
  |C_0| <= 3 there is one, with no flood.  b_1 .. b_m come from the GF(2)
  ranks r_2 .. r_(m+1): an interval of dimension d takes at most
  (d - 1) // 2 ranks, and none when d <= 2.  They are taken in increasing
  k, each level of cells built only when its rank is, and the first k with
  |C_(k-1)| != r_(k-1) + r_k, a deficit, ends the walk over GF(2); a
  disconnected interval is a deficit at k = 1;
- Euler characteristic: for even d, the alternating cell count
  sum_(k>=0) (-1)^k |C_k| must be 2, which makes b_(d/2) = 0.  It needs
  no rank, so it comes first; for odd d it is not taken.

Z/2 route, up to the first deficit.  The walk starts with no signing.  As
long as no interval has shown a deficit, every interval certified so far is
a Z/2 homology sphere, so Delta(x, y) is a closed Z/2 homology d-manifold,
and over Z/2 every such manifold is orientable: Poincare duality and
"connected implies b_d = 1" hold with no orientation (J. R. Munkres,
"Elements of Algebraic Topology", 1984, sections 63-65).  b_0 comes from
the flood, which holds over every field, and the ranks are kernel.rank_mod2
of the cover masks, so an interval without a deficit that passes the Euler
test is a Z/2 homology sphere.  By the universal coefficient theorem it is
a Q homology sphere as well: H_k(Delta; Z/2) = 0 for k < d forces
H_k(Delta; Z) (x) Z/2 = 0, so H_k has rank 0 there, and the Euler
characteristic gives b_d = 1 over Q.  A passing poset is
certified from cover masks alone, with no signing and no exact rank.

Q route, from the first deficit on.  The first interval that GF(2) leaves
open, by 2-torsion (RP^3) or by a real failure, signs the covers, once; a
poset with an element that has no signing fails.  That interval and every
later one are checked over Q, as they would be from a signing made up front:
its proper subintervals are Q homology spheres, so Delta(x, y) is a closed
rational homology d-manifold, and the restricted eps[y] is a d-cycle that
is nonzero on every facet, so every component is orientable.  The GF(2)
ranks stay sound there, since the GF(2) rows are the signed rows mod 2, a
matrix's rank over GF(2) is at most its rank over Q, and b_k >= 0 over Q in
the integer chain complex of eps; so when |C_k| = r_k + r_(k+1) holds for
k = 0 .. m with the GF(2) ranks, it holds with the rational ones.  At a
deficit the interval takes its homology from _cellular_homology, which
falls back on every rank of the signed matrices from kernel.sparse_rank
when the GF(2) ranks leave a Betti number below the top (see Failing
certificates).  Arithmetic is in integers only, and matrix sides are
element counts, not chain counts.

Failing certificates.  The certificate of a failure names the first face,
in the order of dimension and then sorted vertex ids, whose link misses the
sphere profile.  The link of a face is the join of the gaps (a, b) that the
face cuts out of [bottom, top], so its profile is the convolution of theirs.
A convolution of non-negative vectors is a single 1 only when every factor
is, and a gap's homology cannot sit above the gap's own dimension, so a face
fails exactly when one of its gaps (a, b) fails.  The face of a and b alone,
without the bottom and the top, then fails too, and it is no longer.  So
the first failing face has at most two elements, and _certify_by_gaps walks
only (), each {x} and each comparable {x, y}.  The homology of a gap (x, y)
is that of its cellular complex over Q when every (x, z), z < y, is a
sphere with a top cycle eps[z] (the filtration argument above), and that
of its order complex otherwise; gaps are memoized.  The cellular ranks are
taken over GF(2) first: the GF(2) Betti numbers bound the rational ones
from above, and when they vanish below the top dimension the Euler
characteristic makes the top ones equal, so the profiles agree; only
otherwise are the ranks exact.  The face search over every chain of the
order complex is the test oracle, in tests/conftest.py, as reduced_homology
of each face's link is for it.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations, islice, pairwise
from typing import NamedTuple

from . import kernel
from .poset import chain_levels, mask_indices


class SimplicialComplex:
    """Abstract simplicial complex stored by its facets.

    All subsets of facets are faces, the empty face included.  Facets that
    lie inside other facets are dropped on construction, so the stored
    facets form an antichain.  An empty facet list is the empty complex,
    whose only face is the empty one.
    """

    __slots__ = ("facets", "_faces")

    def __init__(self, facets):
        sets = sorted({frozenset(f) for f in facets}, key=len, reverse=True)
        keep = []
        larger = 0  # kept facets in keep[:larger] are strictly bigger than f
        prev_size = None
        for f in sets:
            if prev_size is not None and len(f) < prev_size:
                larger = len(keep)
            prev_size = len(f)
            # only a strictly larger facet can contain f
            if not any(f < g for g in keep[:larger]):
                keep.append(f)
        self.facets = tuple(
            sorted(keep, key=lambda f: (len(f), tuple(sorted(f))))
        )
        self._faces = None

    @property
    def dim(self):
        return max((len(f) for f in self.facets), default=0) - 1

    def faces_by_dim(self):
        """faces_by_dim()[k] lists the k-faces as sorted tuples; k = -1 is
        the empty face (index 0)."""
        if self._faces is None:
            by_dim = [{()}]
            for _ in range(self.dim + 1):
                by_dim.append(set())
            for f in self.facets:
                vs = tuple(sorted(f))
                for k in range(1, len(vs) + 1):
                    by_dim[k].update(combinations(vs, k))
            self._faces = [sorted(s) for s in by_dim]
        return self._faces

    def num_faces(self):
        """Face count in each dimension, the empty face first."""
        return [len(s) for s in self.faces_by_dim()]


class HomologyProfile:
    """Reduced rational Betti numbers of a complex, dimensions -1 through dim.

    Stored shifted by one (index i holds dimension i-1) with trailing zeros
    stripped, so profiles of different-sized complexes compare directly.
    """

    __slots__ = ("shifted",)

    def __init__(self, shifted):
        shifted = list(shifted)
        while shifted and shifted[-1] == 0:
            shifted.pop()
        if any(b < 0 for b in shifted):
            raise ValueError(f"negative Betti number in {shifted}")
        self.shifted = tuple(shifted)

    @classmethod
    def sphere(cls, d):
        """Profile of the sphere S^d; d = -1 is the empty complex."""
        return cls([0] * (d + 1) + [1])

    def betti(self, i):
        """Reduced Betti number in dimension i (i >= -1)."""
        j = i + 1
        return self.shifted[j] if 0 <= j < len(self.shifted) else 0

    def is_sphere(self, d):
        return self.shifted == (0,) * (d + 1) + (1,)

    def to_list(self):
        """Plain list starting at dimension -1."""
        return list(self.shifted)

    def __eq__(self, other):
        return isinstance(other, HomologyProfile) and self.shifted == other.shifted

    def __hash__(self):
        return hash(self.shifted)

    def __repr__(self):
        return f"HomologyProfile({list(self.shifted)})"


def reduced_homology(complex_):
    """Reduced Betti numbers over the rationals via exact boundary ranks."""
    faces = complex_.faces_by_dim()
    index = [
        {face: i for i, face in enumerate(level)} for level in faces
    ]
    top = len(faces) - 1  # top index k holds (k-1)-faces
    ranks = [0] * (top + 2)
    for k in range(1, top + 1):
        entries = []
        for j, face in enumerate(faces[k]):
            for drop in range(len(face)):
                sub = face[:drop] + face[drop + 1 :]
                sign = 1 if drop % 2 == 0 else -1
                entries.append((index[k - 1][sub], j, sign))
        ranks[k] = kernel.sparse_rank(entries)
    shifted = [
        len(faces[k]) - ranks[k] - ranks[k + 1] for k in range(top + 1)
    ]
    return HomologyProfile(shifted)


# -- order complexes ---------------------------------------------------------


def _interval_complex(poset, x, y):
    """Order complex of the open interval (x, y): chains as faces.  Every
    maximal chain of (x, y) has deg y - deg x - 1 elements, so the facets
    are the last level of the chain walk."""
    ix = poset.index_data()
    ids = poset.elements()
    xi, yi = ix.index[x], ix.index[y]
    for longest in chain_levels(ix, ix.up[xi] & ix.down[yi] & ~(1 << xi | 1 << yi)):
        pass
    return SimplicialComplex([ids[i] for i in ch] for ch in longest if ch)


def order_complex(poset):
    """Order complex of the proper part: vertices are the proper elements,
    faces the chains among them."""
    return _interval_complex(poset, poset.bottom, poset.top)


# -- Gorenstein* certification --------------------------------------------------


class GorensteinCertificate(NamedTuple):
    """Outcome of the Gorenstein* test.

    ``failing_face`` is the first face (in (dimension, vertex-id) order,
    the empty face written ()) whose link misses the sphere profile; None
    when the test passes.  ``betti`` holds that link's profile, or the whole
    complex's when the test passes; lists start at dimension -1.
    """

    gorenstein_star: bool
    failing_face: tuple | None
    betti: HomologyProfile

    def __bool__(self):
        return self.gorenstein_star

    def to_json(self):
        return {
            "gorenstein_star": self.gorenstein_star,
            "failing_face": (
                None if self.failing_face is None else list(self.failing_face)
            ),
            "betti": self.betti.to_list(),
        }


def _convolve(a, b):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, va in enumerate(a):
        if va:
            for j, vb in enumerate(b):
                out[i + j] += va * vb
    return tuple(out)


def is_gorenstein_star(poset):
    """Certify the Gorenstein* property of a graded poset.

    Checks that every open interval (x, y), x < y, is a rational homology
    sphere of dimension deg y - deg x - 2, by cellular chain complexes (see
    the module docstring); the certificate of a pass holds the homology of
    S^(rank-1).  When an interval fails, the certificate names the first
    face (ordered by dimension, then by sorted vertex ids) whose link misses
    the sphere profile, and that link's homology.  The covers are signed at
    most once, only when GF(2) ranks leave an interval open or the poset
    fails, and both steps share the signing.
    """
    ix = poset.index_data()
    signing = cache(lambda: _sign_covers(ix))
    if _intervals_are_spheres(poset, signing):
        return GorensteinCertificate(
            True, None, HomologyProfile.sphere(poset.rank - 1)
        )
    return _certify_by_gaps(poset, signing())


def _intervals_are_spheres(poset, signing):
    """True when every open interval (x, y) is a rational homology sphere of
    dimension deg y - deg x - 2; False at the first interval that is not
    (see the module docstring).  ``signing()`` returns the poset's cover
    signing, from _sign_covers; it is called only at the first interval
    that GF(2) ranks leave open.  Intervals inside a Boolean [bottom, y] or
    [x, top], from _boolean_ends, are spheres and are not visited."""
    ix = poset.index_data()
    if not _is_thin(ix):
        return False
    down, up, deg, layers = ix.down, ix.up, ix.deg, ix.layers
    cov_down, start = ix.cov_down, ix.layer_start
    lower, upper = _boolean_ends(ix)
    # Only the y with d = deg y - deg x - 2 >= 1 need work (S^-1 and, by the
    # thin check, S^0 hold already), and only outside the Boolean ends: a
    # base in U and a y in L bound Boolean intervals.  U holds the three
    # highest layers, so every base outside it has a layer three degrees up.
    # Indices follow degree order, so the y are the bits of up[x] & ~L from
    # layer_start[deg x + 3] on, the first index of degree deg x + 3.
    # reversed index order visits bases in decreasing degree, and
    # mask_indices yields the elements above one increasingly
    for x in reversed([*mask_indices(upper ^ ((1 << len(deg)) - 1))]):
        upx, base = up[x], deg[x]
        s = start[base + 3]
        for y in mask_indices((upx & ~lower) >> s << s):
            if not _acyclic_below_top(
                upx & down[y], base, deg[y] - base - 2, layers, down, cov_down,
                signing,
            ):
                return False
    return True


def _is_thin(ix):
    """True when every interval [w, y] with deg y - deg w = 2 has exactly two
    middle elements: the masks down[c] & layers[deg y - 2] of the lower
    covers c of y hit each element two degrees below y exactly twice."""
    down, layers, deg = ix.down, ix.layers, ix.deg
    for y in range(ix.layer_start[2], len(deg)):
        ridges = layers[deg[y] - 2]
        once = twice = 0
        for c in ix.cov_down[y]:
            hit = down[c] & ridges
            if twice & hit:
                return False
            twice |= once & hit
            once |= hit
        if once != twice:
            return False
    return True


def _boolean_ends(ix):
    """The masks (L, U) of the elements y with [bottom, y] Boolean and of the
    elements x with [x, top] Boolean, for a poset that passed _is_thin.

    Lengths 1 and 2 are Boolean by thinness, so L starts as the three lowest
    layers.  For k = deg y >= 3, [bottom, y] is Boolean when it has k atoms
    and k coatoms, each coatom c is in L, and the coatoms miss pairwise
    different atoms (see the module docstring).  L grows a layer at a time
    upwards, reading the covers and atoms below y from down[y], and stops
    after a layer that gains no element: no element above it can have all
    its lower covers in L.  U is L of the dual poset: the same walk, down
    the layers from the top, on the up masks."""
    # the index range of each layer, which the dual walk reads reversed
    spans = [range(a, b) for a, b in pairwise(ix.layer_start)]
    ends = []
    for masks, layers, runs in (
        (ix.down, ix.layers, spans),
        (ix.up, ix.layers[::-1], spans[::-1]),
    ):
        found = sum(layers[:3])  # the layers are disjoint
        for k in range(3, len(layers)):
            if not found & layers[k - 1]:
                break
            for y in runs[k]:
                covers = masks[y] & layers[k - 1]
                if covers & ~found or covers.bit_count() != k:
                    continue
                atoms = masks[y] & layers[1]
                if atoms.bit_count() != k:
                    continue
                # each coatom c, in L, misses one atom of [bottom, y], since
                # [bottom, c] has k - 1 of them
                missed = 0
                for c in mask_indices(covers):
                    missed |= atoms & ~masks[c]
                if missed == atoms:
                    found |= 1 << y
        ends.append(found)
    return tuple(ends)


def _sign_covers(ix):
    """eps[y] maps the lower covers of y to +-1: a top cycle of (bottom, y),
    found by sign propagation in increasing index order.  The bottom (index
    0) has the empty boundary and an atom has {bottom: 1}; eps[y] is None
    where propagation fails, at y or below it."""
    eps = [{}]
    for y in range(1, len(ix.deg)):
        covers = ix.cov_down[y]
        if ix.deg[y] == 1:
            eps.append({0: 1})
        elif any(eps[c] is None for c in covers):
            eps.append(None)
        else:
            eps.append(_top_cycle(covers, eps))
    return eps


def _top_cycle(facets, boundary):
    """The +-1 vector on ``facets`` that spans the kernel of their boundary.

    Each ridge must lie in exactly two facets and every facet must be reached
    from the first across ridges with consistent signs; the kernel is then
    one-dimensional.  Returns None otherwise.
    """
    by_ridge = {}
    for c in facets:
        for r, a in boundary[c].items():
            by_ridge.setdefault(r, []).append((c, a))
    first = facets[0]
    sign = {first: 1}
    stack = [first]
    while stack:
        c = stack.pop()
        for r, a in boundary[c].items():
            pair = by_ridge[r]
            if len(pair) != 2:
                return None
            other, b = pair[1] if pair[0][0] == c else pair[0]
            # sign[c]*a + sign[other]*b = 0 with a, b in {1, -1}
            s = -sign[c] * a * b
            seen = sign.get(other)
            if seen is None:
                sign[other] = s
                stack.append(other)
            elif seen != s:
                return None
    return sign if len(sign) == len(facets) else None


def _acyclic_below_top(cells, base_deg, d, layers, down, cov_down, signing):
    """Whether the cellular complex of [x, y) has no reduced homology in
    dimensions 0 .. d-1, given that Delta(x, y) is a closed homology
    d-manifold and every interval before it passed; ``cells`` is the mask of
    [x, y] and deg x is ``base_deg``.

    With r_k the rank of the boundary from dimension k to k-1, Betti number
    k is |C_k| - r_k - r_(k+1), and r_0 = 1.  b_0 = 0 makes Delta(x, y)
    connected, so Poincare duality gives b_k = b_(d-k) and only b_0 .. b_m
    with m = (d-1) // 2 are computed.  For even d the middle Betti number
    vanishes when the Euler characteristic is 2, which is tested first, as
    three bit counts for d = 2 and as a running alternating sum of the level
    sizes otherwise.  b_0 comes from the flood of _connected, which makes
    r_1 = |C_0| - 1; every component of Delta(x, y) has two atoms or more
    (each 1-cell has two atoms below it, by the thin check), so when
    |C_0| <= 3 it is connected with no flood.  That settles every interval
    with d <= 2, with no rank.  Then k walks 2 .. m+1, carrying the level
    C_(k-1) and its rank, and builds only C_k; the walk stops at the first
    k where b_(k-1) = |C_(k-1)| - r_(k-1) - r_k is not 0.

    The ranks are taken over GF(2), where the row of z is its lower-cover
    mask ``down[z]`` restricted to the level below.  Up to the first deficit
    the duality is the one over Z/2, which needs no orientation.  At a
    deficit (a disconnected interval, 2-torsion, as in RP^3, or another
    failure) ``signing()`` gives the cover signing, made on its first call;
    without one the interval fails, and with one it takes its rational
    homology from _cellular_homology.  From then on the signing orients
    every later interval, and a GF(2) pass there is a rational pass (see
    the module docstring).
    """
    # the cells of degree t, cells & layers[t], are C_(t - base_deg - 1)
    atoms = cells & layers[base_deg + 1]
    size = atoms.bit_count()
    if d == 2:
        c_1, c_2 = cells & layers[base_deg + 2], cells & layers[base_deg + 3]
        if c_2.bit_count() - c_1.bit_count() + size != 2:  # chi
            return False
    elif d % 2 == 0:
        # the fold leaves chi = |C_d| - |C_(d-1)| + ... + |C_0|
        chi = 0
        for t in range(base_deg + 1, base_deg + d + 2):
            chi = (cells & layers[t]).bit_count() - chi
        if chi != 2:
            return False
    if size > 3 and not _connected(cells, atoms, down, cov_down):
        return _deficit(cells, base_deg, d, layers, down, signing)
    if d <= 2:
        return True
    below, r_below = cells & layers[base_deg + 2], size - 1
    for t in range(base_deg + 3, base_deg + (d - 1) // 2 + 3):
        level = cells & layers[t]
        r = kernel.rank_mod2([down[z] & below for z in mask_indices(level)])
        if below.bit_count() != r_below + r:
            return _deficit(cells, base_deg, d, layers, down, signing)
        below, r_below = level, r
    return True


def _connected(cells, atoms, down, cov_down):
    """Whether Delta(x, y) is connected, for the mask ``cells`` of [x, y]
    and its atoms ``atoms``, by a flood over the coatoms of [x, y].

    Each coatom c (a lower cover of y with c >= x) is adjacent in
    Delta(x, y) to every atom below it, and every element of (x, y) lies
    above an atom and below a coatom.  So the components of Delta(x, y) are
    those of the hypergraph on the atoms whose edges are the masks
    down[c] & atoms.  The flood grows one component from the first set,
    pass after pass, until a pass adds no set to it."""
    y = cells.bit_length() - 1
    sets = [down[c] & atoms for c in cov_down[y] if cells >> c & 1]
    reached, rest = sets[0], sets
    while rest:
        apart = []
        for below_c in rest:
            if below_c & reached:
                reached |= below_c
            else:
                apart.append(below_c)
        if len(apart) == len(rest):
            break
        rest = apart
    return reached == atoms


def _deficit(cells, base_deg, d, layers, down, signing):
    """The verdict of _acyclic_below_top on an interval that GF(2) leaves
    open: False without a cover signing, and otherwise whether its rational
    homology is that of the d-sphere."""
    eps = signing()
    return None not in eps and _cellular_homology(
        cells, base_deg, d, layers, down, eps
    ).is_sphere(d)


def _cellular_homology(cells, base_deg, d, layers, down, eps):
    """Reduced rational homology of Delta(x, y) from the cellular complex of
    [x, y); the arguments are those of _acyclic_below_top, with the signing
    ``eps`` itself.  Valid when every (x, z), z < y, is a sphere of
    dimension deg z - deg x - 2 and every eps[z] comes from the signing (see
    the module docstring).  The ranks over GF(2) of the cover masks come
    first, and they stand when they leave no Betti number below the top
    dimension: GF(2) Betti numbers bound the rational ones from above, and
    the Euler characteristic then makes the top ones equal.  Otherwise
    every rank is exact, kernel.sparse_rank on the signed matrices."""
    # levels[k] holds the cells of dimension k - 1, from x up to deg y - 1
    levels = [cells & layers[base_deg + k] for k in range(d + 2)]

    def betti(rank):
        # rank(below, level): the rank of the boundary from level to below
        ranks = [0, *map(rank, levels, levels[1:]), 0]
        return [
            levels[k].bit_count() - ranks[k] - ranks[k + 1] for k in range(d + 2)
        ]

    mod2 = betti(lambda below, level: kernel.rank_mod2(
        [down[z] & below for z in mask_indices(level)]
    ))
    if not any(mod2[:-1]):
        return HomologyProfile(mod2)
    return HomologyProfile(betti(lambda below, level: kernel.sparse_rank([
        (w, z, a)
        for z in mask_indices(level)
        for w, a in eps[z].items()
        if below >> w & 1
    ])))


def _certify_by_gaps(poset, eps):
    """Gorenstein* certificate from the faces of at most two elements.

    Walks the faces in the face search's order, (), each {x} in id order and
    each comparable {x, y} in sorted-id order, and returns the first whose
    link misses the sphere profile: no longer face can fail first (see the
    module docstring).  A link's profile is the convolution of its gaps'
    profiles, each memoized.  A gap (x, y) takes _cellular_homology when
    every (x, z), z < y, is a sphere with a top cycle eps[z], and the order
    complex of (x, y) otherwise.  ``eps`` is the poset's cover signing, from
    _sign_covers.
    """
    ix = poset.index_data()
    ids = poset.elements()
    up, down, deg, layers = ix.up, ix.down, ix.deg, ix.layers
    top = len(ids) - 1
    memo = {}

    def gap(x, y):
        if (x, y) not in memo:
            cells = up[x] & down[y]
            spheres = all(
                eps[z] is not None and gap(x, z).is_sphere(deg[z] - deg[x] - 2)
                for z in mask_indices(cells & ~(1 << x | 1 << y))
            )
            memo[x, y] = (
                _cellular_homology(
                    cells, deg[x], deg[y] - deg[x] - 2, layers, down, eps
                )
                if spheres
                else reduced_homology(_interval_complex(poset, ids[x], ids[y]))
            )
        return memo[x, y]

    by_ids = lambda face: tuple(sorted(ids[i] for i in face))
    # the faces (), {x} and {x, y}; each level is built and sorted only once
    # the walk reaches it
    for faces in islice(chain_levels(ix, up[0] & ~(1 | 1 << top)), 3):
        for face in sorted(faces, key=by_ids):
            vec = (1,)
            for a, b in zip((0,) + face, face + (top,)):
                vec = _convolve(vec, gap(a, b).shifted)
                if not vec:
                    break
            got = HomologyProfile(vec)
            if not got.is_sphere(poset.rank - 1 - len(face)):
                return GorensteinCertificate(False, by_ids(face), got)
    return GorensteinCertificate(True, None, gap(0, top))
