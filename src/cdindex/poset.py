"""Finite graded posets with a unique bottom and top.

A graded poset of rank n has one element of degree 0 (the bottom), one of
degree n+1 (the top), and cover relations that raise degree by exactly one,
so every maximal chain has n+2 elements.  Face posets of complete fans and
polytope boundaries are the motivating examples: cones of dimension k sit in
degree k and the adjoined top closes the poset off.

Element ids are opaque strings.  Degrees are stored, not inferred, and are
validated against the covers, so non-lattice posets can be written down
directly in JSON.  Instances are immutable after construction and all
queries are pure reads, so posets may be shared freely across workers.
"""

from __future__ import annotations

import itertools
import json
import reprlib
import warnings
from array import array
from bisect import bisect_left
from functools import cached_property
from itertools import accumulate, pairwise
from typing import NamedTuple

BOTTOM = "_bot"
TOP = "_top"


class InvalidPoset(ValueError):
    """The data does not satisfy the graded poset axioms."""


def brief(value):
    """str(value), or its head and tail around "..." when over 30 characters:
    the ids and id lists in an InvalidPoset message, and the numbers in the
    command line's messages, cut only when raising."""
    text = str(value)
    return text if len(text) <= 30 else f"{text[:18]}...{text[-9:]}"


class FlatTable(NamedTuple):
    """Sorted index lists laid end to end: list i is flat[start[i]:start[i+1]]."""

    flat: array
    start: array


class IndexData:
    """Degrees, degree layers and their first indices, lower covers and the
    id map by element index, and the order masks and comparability tables,
    each built on its first read; see GradedPoset.index_data."""

    def __init__(self, deg, layers, layer_start, cov_down, index):
        self.deg = deg
        self.layers = layers
        self.layer_start = layer_start
        self.cov_down = cov_down
        self.index = index

    @cached_property
    def down(self):
        return tuple(down_masks(self.cov_down))

    @cached_property
    def up(self):
        # indices are sorted by degree, so an up mask pushed down the lower
        # covers is final when read
        up = [1 << i for i in range(len(self.deg))]
        for i in reversed(range(len(up))):
            m = up[i]
            for j in self.cov_down[i]:
                up[j] |= m
        return tuple(up)

    @cached_property
    def below(self):
        flat = array("i")
        start = array("i", [0])
        for m in down_masks(self.cov_down):
            flat.extend(mask_indices(m))
            start.append(len(flat))
        return FlatTable(flat, start)

    @cached_property
    def above(self):
        # counting-sort transposition of below, with the list lengths counted
        # from it: walking i upwards appends i to the list of every j <= i,
        # so each list comes out sorted
        flat, start = self.below
        sizes = [0] * (len(start) - 1)
        for j in flat:
            sizes[j] += 1
        above_start = array("i", accumulate(sizes, initial=0))
        out = array("i", [0]) * len(flat)
        fill = list(above_start)
        for i in range(len(start) - 1):
            for j in flat[start[i] : start[i + 1]]:
                out[fill[j]] = i
                fill[j] += 1
        return FlatTable(out, above_start)


class GradedPoset:
    """Immutable graded poset on string ids.

    Comparability is reachability over the cover relation; it is memoized as
    per-element bitmasks, built on the first order query, because order
    queries are hot.  Covers raise degree by one, which already forces
    acyclicity.

    Per element, an instance retains its id, its degree, its entry in the
    id-to-index dict, and the sorted index tuple of its lower covers.  Each
    cover is thus held once and nowhere else: ``covers()`` builds its id
    pairs from the lower covers on each call, and ``upper_covers()`` reads
    the up masks of ``index_data()``.  That view adds per-element masks and
    per-pair tables, each only once read: the cd-index routes build the
    tables and no mask, certification the masks and no table.  Its
    docstring gives their sizes.
    """

    def __init__(self, rank, degrees, covers):
        self.rank = int(rank)
        ids = sorted(degrees, key=lambda e: (degrees[e], e))
        self._ids = tuple(ids)
        self._index = {e: i for i, e in enumerate(ids)}
        self._deg = tuple(int(degrees[e]) for e in ids)
        try:
            cover_idx = frozenset(
                (self._index[lo], self._index[hi]) for lo, hi in covers
            )
        except KeyError as exc:
            raise InvalidPoset(
                f"cover mentions unknown element {brief(exc)}"
            ) from None
        down = [[] for _ in ids]
        for lo, hi in cover_idx:
            down[hi].append(lo)
        self._cov_down = tuple(tuple(sorted(d)) for d in down)
        self._index_data = None
        # the set lives only here: it deduplicates the covers, and its order
        # fixes which bad cover _validate names
        self._validate(cover_idx)

    # -- construction helpers -------------------------------------------------

    def _validate(self, cover_idx):
        ids, deg = self._ids, self._deg
        if self.rank < 0:
            raise InvalidPoset("rank must be >= 0")
        bottoms = [e for e, d in zip(ids, deg) if d == 0]
        tops = [e for e, d in zip(ids, deg) if d == self.rank + 1]
        if len(bottoms) != 1:
            raise InvalidPoset(
                f"need exactly one degree-0 element, got {brief(bottoms)}"
            )
        if len(tops) != 1:
            raise InvalidPoset(
                f"need exactly one degree-{self.rank + 1} element, got {brief(tops)}"
            )
        for d in deg:
            if not 0 <= d <= self.rank + 1:
                raise InvalidPoset(
                    f"degree {brief(d)} out of range for rank {self.rank}"
                )
        for lo, hi in cover_idx:
            if deg[hi] != deg[lo] + 1:
                raise InvalidPoset(
                    f"cover {brief(ids[lo])} < {brief(ids[hi])} jumps from "
                    f"degree {deg[lo]} to {deg[hi]}"
                )
        # with the degrees in range, the bottom is index 0 and the top the last
        has_upper = {lo for lo, _ in cover_idx}
        for i in range(len(ids)):
            if i < len(ids) - 1 and i not in has_upper:
                raise InvalidPoset(f"element {brief(ids[i])} has nothing above it")
            if i > 0 and not self._cov_down[i]:
                raise InvalidPoset(f"element {brief(ids[i])} covers nothing")

    # -- basic queries ---------------------------------------------------------

    def __len__(self):
        return len(self._ids)

    def __contains__(self, e):
        return e in self._index

    def elements(self):
        """All element ids, sorted by (degree, id)."""
        return self._ids

    def proper_elements(self):
        """Elements excluding bottom and top."""
        return tuple(e for e, d in zip(self._ids, self._deg) if 0 < d <= self.rank)

    def degree(self, e):
        return self._deg[self._index[e]]

    @property
    def bottom(self):
        return self._ids[0]

    @property
    def top(self):
        return self._ids[-1]

    def elements_of_degree(self, d):
        return tuple(e for e, dd in zip(self._ids, self._deg) if dd == d)

    def covers(self):
        """Cover pairs (low, high) as ids, sorted and each listed once."""
        ids = self._ids
        return sorted(
            (ids[lo], ids[hi]) for hi, low in enumerate(self._cov_down) for lo in low
        )

    def upper_covers(self, e):
        # covers raise degree by one: the elements above e one degree up
        if e == self.top:
            return ()
        ix, i = self.index_data(), self._index[e]
        above = ix.up[i] & ix.layers[ix.deg[i] + 1]
        return tuple(self._ids[j] for j in mask_indices(above))

    def lower_covers(self, e):
        return tuple(self._ids[i] for i in self._cov_down[self._index[e]])

    # -- comparability ---------------------------------------------------------

    def index_data(self):
        """Index-level view of the poset for algorithms that work on bitmasks.

        Element i is ``elements()[i]``.  Indices follow (degree, id) order, so
        the elements of degree <= d are a prefix of them.  ``deg[i]`` is the
        degree of element i; ``layers[d]`` is the mask of the elements of
        degree d, for d = 0 .. rank + 1, and ``layer_start[d]`` its first
        index (``layer_start[rank + 2]`` is the element count), so degree d
        holds indices ``layer_start[d] .. layer_start[d + 1] - 1``.
        ``cov_down[i]`` holds the sorted indices that element i covers, and
        ``index`` maps an id to its index.  Computed once, then shared; the
        degrees, cover tuples and id map are the poset's own, not copies.

        Everything else is built on its first read, once per poset, so that
        a caller pays only for what it reads.  The order masks: bit j of
        ``down[i]`` is set iff j <= i (i + 1 bits, pulled up the lower covers
        by ``down_masks``) and bit j of ``up[i]`` iff j >= i (n bits, pushed
        down them); the elements covering i are the set bits of
        ``up[i] & layers[deg[i] + 1]``.  Certification, the Eulerian test and
        the order queries read the masks.  The comparability tables
        ``below`` and ``above``, which the three cd-index routes read, are
        FlatTable pairs ``(flat, start)``: the sorted indices j <= i are
        ``below.flat[below.start[i]:below.start[i + 1]]``, and those j >= i
        likewise in ``above``.  Each flat table is one ``array("i")``, 4
        bytes per comparable pair (i itself included), plus n + 1 offsets.
        ``below`` decodes the down masks as ``down_masks`` yields them,
        without keeping them, and ``above`` is its transpose, by a counting
        sort into a preallocated array, so building the tables builds no
        mask of the view.  Since indices follow degree, the elements of one
        degree window of a list are one slice, found by ``bisect_left`` with
        the list's bounds as lo and hi.
        """
        if self._index_data is None:
            deg = self._deg
            layer_start = tuple(bisect_left(deg, d) for d in range(self.rank + 3))
            # indices are sorted by degree, so each layer is one run of bits
            layers = tuple((1 << b) - (1 << a) for a, b in pairwise(layer_start))
            self._index_data = IndexData(
                deg, layers, layer_start, self._cov_down, self._index
            )
        return self._index_data

    def leq(self, x, y):
        """True iff x <= y."""
        down = self.index_data().down
        return bool(down[self._index[y]] >> self._index[x] & 1)

    def up_set(self, e):
        """All elements >= e (including e), sorted by (degree, id)."""
        up = self.index_data().up
        return tuple(self._ids[i] for i in mask_indices(up[self._index[e]]))

    def down_set(self, e):
        """All elements <= e (including e)."""
        down = self.index_data().down
        return tuple(self._ids[i] for i in mask_indices(down[self._index[e]]))

    # -- serialization ----------------------------------------------------------

    def to_json(self):
        return {
            "rank": self.rank,
            "elements": [
                {"id": e, "deg": d} for e, d in zip(self._ids, self._deg)
            ],
            "covers": [list(p) for p in self.covers()],
        }

    def dumps(self):
        return json.dumps(self.to_json(), indent=None, separators=(",", ":"))


def down_masks(cov_down):
    """Each element's down mask, in index order: bit j of the i-th is set iff
    j <= i.  ``cov_down`` is an index_data() view's lower covers; indices
    are sorted by degree, so the masks of i's lower covers, pulled up into
    i's, are final when read.  A caller that stops early builds no later
    mask."""
    down = []
    for i, low in enumerate(cov_down):
        m = 1 << i
        for j in low:
            m |= down[j]
        down.append(m)
        yield m


def mask_indices(mask):
    """The indices of the set bits of ``mask``, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def chain_levels(ix, mask):
    """Yield the chains of the elements in ``mask`` level by level: ``[()]``,
    then the list of k-element chains for k = 1, 2, ... while any exist.
    ``ix`` is an index_data() view.  A chain is an increasing index tuple, so
    it comes once and in degree order, and each level is in lexicographic
    order."""
    up = ix.up
    succ = {i: up[i] & mask & ~(1 << i) for i in mask_indices(mask)}
    yield [()]
    level = [(i,) for i in succ]
    while level:
        yield level
        level = [ch + (j,) for ch in level for j in mask_indices(succ[ch[-1]])]


# -- loading -------------------------------------------------------------------


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def check_json_shape(data):
    """Raise InvalidPoset unless ``data`` has the shape of the JSON format:
    an object with an integer "rank", an "elements" list of objects with an
    "id" and an integer "deg", and a "covers" list of two-item lists."""
    if not isinstance(data, dict):
        raise InvalidPoset(f"top level must be an object, not {type(data).__name__}")
    if not _is_int(data.get("rank")):
        raise InvalidPoset('"rank" must be an integer')
    elements = data.get("elements")
    if not isinstance(elements, list):
        raise InvalidPoset('"elements" must be a list')
    for el in elements:
        if not isinstance(el, dict) or "id" not in el or not _is_int(el.get("deg")):
            raise InvalidPoset(
                f"element {reprlib.repr(el)} needs an id and an integer deg"
            )
    covers = data.get("covers")
    if not isinstance(covers, list):
        raise InvalidPoset('"covers" must be a list')
    for cover in covers:
        if not isinstance(cover, list) or len(cover) != 2:
            raise InvalidPoset(f"cover {reprlib.repr(cover)} is not a two-item list")


def from_json(data):
    """Build a poset from the JSON dict format (see check_json_shape).

    Bottom and top may be omitted; they are adjoined with the canonical ids
    "_bot"/"_top" (a warning notice is emitted when this happens).
    """
    check_json_shape(data)
    poset, notice = from_checked_json(data)
    if notice:
        warnings.warn(notice, stacklevel=2)
    return poset


def from_checked_json(data):
    """from_json on data that passed check_json_shape: the poset and the
    notice that names the adjoined ends ("" when none was adjoined).  The
    caller checks the shape once and may look at the data in between, as the
    CLI does to hold it to its caps before building."""
    rank = data["rank"]
    degrees = {el["id"]: el["deg"] for el in data["elements"]}
    if len(degrees) != len(data["elements"]):
        raise InvalidPoset("duplicate element ids")
    covers = [(lo, hi) for lo, hi in data["covers"]]
    poset, adjoined = _close(rank, degrees, covers)
    notice = f"adjoined missing {'/'.join(adjoined)} to poset" if adjoined else ""
    return poset, notice


def _close(rank, degrees, covers):
    """GradedPoset(rank, degrees, covers), extended in place by its missing
    ends, and the ids adjoined: the loader's and every builder's rule.  With
    no element of degree 0, "_bot" goes below the minimal elements, which
    must have degree 1; with none of degree rank + 1, "_top" goes above the
    maximal ones, which must have degree rank."""
    adjoined = []
    if not any(d == 0 for d in degrees.values()):
        if BOTTOM in degrees:
            raise InvalidPoset(f"cannot adjoin bottom: id {BOTTOM!r} taken")
        has_lower = {hi for _, hi in covers}
        minimal = [e for e in degrees if e not in has_lower]
        bad = [e for e in minimal if degrees[e] != 1]
        if bad:
            raise InvalidPoset(f"cannot adjoin bottom below degree != 1: {brief(bad)}")
        covers += [(BOTTOM, e) for e in sorted(minimal)]
        degrees[BOTTOM] = 0
        adjoined.append(BOTTOM)
    if not any(d == rank + 1 for d in degrees.values()):
        if TOP in degrees:
            raise InvalidPoset(f"cannot adjoin top: id {TOP!r} taken")
        has_upper = {lo for lo, _ in covers}
        maximal = [e for e in degrees if e not in has_upper]
        bad = [e for e in maximal if degrees[e] != rank]
        if bad:
            raise InvalidPoset(
                f"cannot adjoin top above degree != {rank}: {brief(bad)}"
            )
        covers += [(e, TOP) for e in sorted(maximal)]
        degrees[TOP] = rank + 1
        adjoined.append(TOP)
    return GradedPoset(rank, degrees, covers), adjoined


def loads(text):
    return from_json(json.loads(text))


# -- builders -------------------------------------------------------------------


def polygon(k):
    """Complete 2-dimensional fan with k maximal cones (boundary of a k-gon)."""
    if k < 3:
        raise ValueError("polygon needs k >= 3")
    degrees = {}
    covers = []
    for i in range(1, k + 1):
        degrees[f"r{i}"] = 1
        degrees[f"f{i}"] = 2
        covers.append((f"r{i}", f"f{i}"))
        covers.append((f"r{i % k + 1}", f"f{i}"))
    return _close(2, degrees, covers)[0]


def simplex_fan(n):
    """Face poset of the boundary of an n-simplex (all proper subsets of an
    (n+1)-set ordered by inclusion), rank n."""
    if n < 1:
        raise ValueError("simplex_fan needs n >= 1")
    verts = [str(v) for v in range(1, n + 2)]
    degrees = {}
    covers = []
    for size in range(1, n + 1):
        for s in itertools.combinations(verts, size):
            degrees[name := ".".join(s)] = size
            if size > 1:
                covers += [(".".join(s[:k] + s[k + 1 :]), name) for k in range(size)]
    return _close(n, degrees, covers)[0]


def cube_fan(n):
    """Face poset of the n-cube: proper faces written as words over 0/1/*
    (one letter per axis, * marking free axes), empty face as bottom."""
    if n < 1:
        raise ValueError("cube_fan needs n >= 1")
    degrees = {}
    covers = []
    for word in itertools.product("01*", repeat=n):
        stars = word.count("*")
        if stars == n:
            continue  # the whole cube is the adjoined top
        w = "".join(word)
        degrees[w] = stars + 1
        covers += [
            (w[:i] + f + w[i + 1 :], w) for i in range(n) if w[i] == "*" for f in "01"
        ]
    return _close(n, degrees, covers)[0]


def crosspoly_fan(n):
    """Face poset of the n-cross-polytope: faces pick a sign for some nonempty
    subset of axes, written as words over +/-/0."""
    if n < 1:
        raise ValueError("crosspoly_fan needs n >= 1")
    degrees = {}
    covers = []
    for word in itertools.product("+-0", repeat=n):
        size = n - word.count("0")
        if size == 0:
            continue
        w = "".join(word)
        degrees[w] = size
        if size >= 2:
            covers += [(w[:i] + "0" + w[i + 1 :], w) for i in range(n) if w[i] != "0"]
    return _close(n, degrees, covers)[0]


def chain(r):
    """Single maximal chain of rank r; non-Eulerian for r >= 1 (negative
    control)."""
    if r < 0:
        raise ValueError("chain needs r >= 0")
    degrees = {f"x{i}": i for i in range(1, r + 1)}
    covers = [(f"x{i}", f"x{i + 1}") for i in range(1, r)]
    return _close(r, degrees, covers)[0]


# family name -> (builder, n -> (element count, rank) of builder(n) in
# closed form); exponents stop at 64, so a huge n costs no big power, and
# past it the count is a lower bound, still over every cap a machine can hold
FAMILIES = {
    "polygon": (polygon, lambda n: (2 * n + 2, 2)),
    "simplex_fan": (simplex_fan, lambda n: (2 ** min(n + 1, 64), n)),
    "cube_fan": (cube_fan, lambda n: (3 ** min(n, 64) + 1, n)),
    "crosspoly_fan": (crosspoly_fan, lambda n: (3 ** min(n, 64) + 1, n)),
    "chain": (chain, lambda n: (n + 2, n)),
}


def _family(kind):
    try:
        return FAMILIES[kind]
    except KeyError:
        raise ValueError(f"unknown family {kind!r}") from None


def family_size(kind, n):
    """(element count, rank) of build_family(kind, n), without building it;
    raises ValueError on an unknown kind."""
    return _family(kind)[1](n)


def build_family(kind, param):
    """Dispatch to the named builder; raises ValueError on bad kind/param."""
    return _family(kind)[0](param)


def build_pyramid(base):
    """Face poset of the pyramid over a polytope boundary poset.

    The base's top element is kept as the base facet (degree rank+1), every
    base element f gets an apex companion "a:{f}" one degree up, and a fresh
    top closes the poset.  Degree counts over polygon(k) come out as
    (1, k+1, 2k, k+1, 1).
    """
    if base.rank < 1:
        raise ValueError("pyramid base must have rank >= 1")
    ids, base_top = base.elements(), base.top
    rename = {e: (BOTTOM if e == base.bottom else f"b:{e}") for e in ids}
    apex = {e: f"a:{e}" for e in ids if e != base_top}
    degrees = {rename[e]: base.degree(e) for e in ids}
    degrees |= {ae: base.degree(e) + 1 for e, ae in apex.items()}
    base_covers = base.covers()
    covers = [(rename[lo], rename[hi]) for lo, hi in base_covers]
    covers += [(rename[e], ae) for e, ae in apex.items()]
    covers += [(apex[lo], apex[hi]) for lo, hi in base_covers if hi != base_top]
    return _close(base.rank + 1, degrees, covers)[0]


# -- subposets --------------------------------------------------------------------


class ElementSubposet(NamedTuple):
    """An induced subposet of a parent, re-closed into a graded poset.

    ``members`` are the retained parent ids; ``poset`` is the induced graded
    poset (None when members is empty).  Member ids are kept verbatim, and a
    fresh top "_top" is adjoined when the defining operation calls for one.
    """

    members: frozenset
    poset: GradedPoset | None


def induced_subposet(parent, members, adjoin_top=True):
    """Induce the order on ``members`` (a downward-closed id set).

    The induced covers are recomputed from comparability, so the result obeys
    the cover-degree axiom or fails validation.  With ``adjoin_top`` a new top
    is added one degree above the highest member; otherwise the unique maximal
    member becomes the top.
    """
    members = frozenset(members)
    if not members:
        return ElementSubposet(members, None)
    ix = parent.index_data()
    down, up = ix.down, ix.up
    idx = sorted(parent._index[e] for e in members)
    member_mask = 0
    for i in idx:
        member_mask |= 1 << i
    degrees = {parent._ids[i]: ix.deg[i] for i in idx}
    if min(degrees.values()) != 0:
        raise InvalidPoset("subposet members must include the bottom")
    covers = []
    maximal = []
    for i in idx:
        above = up[i] & member_mask & ~(1 << i)
        if not above:
            maximal.append(i)
        for j in mask_indices(above):
            # j covers i inside the subposet iff [i, j] meets members twice
            if (up[i] & down[j] & member_mask).bit_count() == 2:
                covers.append((parent._ids[i], parent._ids[j]))
    maxdeg = max(degrees.values())
    if adjoin_top:
        if TOP in degrees:
            raise InvalidPoset(f"cannot adjoin top: id {TOP!r} taken")
        degrees[TOP] = maxdeg + 1
        covers += [(parent._ids[i], TOP) for i in maximal]
        rank = maxdeg
    else:
        if len(maximal) != 1:
            raise InvalidPoset("subposet needs a unique maximal element as top")
        rank = maxdeg - 1
    return ElementSubposet(members, GradedPoset(rank, degrees, covers))


def skeleton(poset, m):
    """Elements of degree <= m, with a fresh top at degree m+1."""
    if not 0 <= m <= poset.rank:
        raise ValueError(f"skeleton level {m} out of range")
    members = [e for e in poset.elements() if poset.degree(e) <= m]
    return induced_subposet(poset, members, adjoin_top=True)


def star(poset, sigma):
    """Upward closure of sigma inside the poset minus the top."""
    if sigma == poset.top:
        raise ValueError("star of the top is not defined")
    return frozenset(e for e in poset.up_set(sigma) if e != poset.top)


def ideal(poset, sigma):
    """The principal ideal [sigma] with sigma as its own top (rank deg-1)."""
    if sigma == poset.top:
        raise ValueError("ideal of the top is the whole poset")
    return induced_subposet(poset, poset.down_set(sigma), adjoin_top=False)


def strict_ideal(poset, sigma):
    """The ideal of everything strictly below sigma, with a fresh top.

    For a face poset this is the boundary of the face sigma.
    """
    members = [e for e in poset.down_set(sigma) if e != sigma]
    return induced_subposet(poset, members, adjoin_top=True)


# -- order-theoretic tests ----------------------------------------------------------


def mobius(poset, x, y):
    """Mobius function mu(x, y) by the standard recursion: mu(x, x) = 1 and
    mu(x, z) = -(sum of mu(x, w) over x <= w < z)."""
    if not poset.leq(x, y):
        raise ValueError(f"{x!r} is not below {y!r}")
    ix = poset.index_data()
    down, up = ix.down, ix.up
    xi, yi = poset._index[x], poset._index[y]
    mu = {xi: 1}
    # indices are sorted by degree, so each w < z is filled before z
    for zi in mask_indices(up[xi] & down[yi] & ~(1 << xi)):
        mu[zi] = -sum(mu[wi] for wi in mask_indices(up[xi] & down[zi] & ~(1 << zi)))
    return mu[yi]


def is_eulerian(poset):
    """Every nontrivial interval has as many elements of even as odd degree.

    Equivalent to mu(x, y) = (-1)^(deg y - deg x) on all intervals.
    """
    ix = poset.index_data()
    down, up = ix.down, ix.up
    n = len(poset)
    even_mask = 0
    for layer in ix.layers[::2]:
        even_mask |= layer
    for xi in range(n):
        for yi in mask_indices(up[xi] & ~(1 << xi)):
            inter = up[xi] & down[yi]
            ev = (inter & even_mask).bit_count()
            if 2 * ev != inter.bit_count():
                return False
    return True


# -- barycentric subdivision -----------------------------------------------------------


class BarycentricResult(NamedTuple):
    """Chain poset B(P) of a graded poset P.

    Elements of degree k are the k-element chains in the proper part of P,
    ordered by refinement, with the empty chain as bottom and a fresh top.
    ``projection`` sends a chain to its maximal element (bottom to bottom,
    top to top) and ``typeset`` to its set of member degrees.
    """

    bposet: GradedPoset
    projection: dict
    typeset: dict


def barycentric(poset):
    """Barycentric subdivision: the lattice of chains in P minus its ends."""
    ix = poset.index_data()
    ids, deg = poset.elements(), ix.deg
    degrees = {}
    covers = []
    projection = {BOTTOM: poset.bottom, TOP: poset.top}
    typeset = {BOTTOM: frozenset(), TOP: None}
    name = {}
    for level in chain_levels(ix, ix.up[0] & ~(1 | 1 << len(ids) - 1)):
        for ch in level:
            s = name[ch] = "<".join(ids[i] for i in ch) if ch else BOTTOM
            degrees[s] = len(ch)
            if ch:
                projection[s] = ids[ch[-1]]
                typeset[s] = frozenset(deg[i] for i in ch)
            covers += [(name[ch[:k] + ch[k + 1 :]], s) for k in range(len(ch))]
    bposet = _close(poset.rank, degrees, covers)[0]
    return BarycentricResult(bposet, projection, typeset)
