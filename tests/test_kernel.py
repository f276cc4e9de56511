from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdindex import kernel
from cdindex.homology import SimplicialComplex


def dense_fraction_rank(entries, nrows, ncols):
    """Textbook Gaussian elimination over Fraction, the independent oracle."""
    m = [[Fraction(0)] * ncols for _ in range(nrows)]
    for r, c, v in entries:
        m[r][c] += v
    rank = 0
    row = 0
    for col in range(ncols):
        piv = next((i for i in range(row, nrows) if m[i][col]), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        pv = m[row][col]
        for i in range(nrows):
            if i != row and m[i][col]:
                f = m[i][col] / pv
                for j in range(col, ncols):
                    m[i][j] -= f * m[row][j]
        row += 1
        rank += 1
    return rank


def assert_rank_matches_oracle(entries, nrows, ncols):
    """sparse_rank equals the Fraction oracle, on the matrix and on its
    transpose: the reduction works by column, so the transpose sends the
    other side of the matrix through it."""
    expected = dense_fraction_rank(entries, nrows, ncols)
    assert kernel.sparse_rank(entries) == expected
    assert kernel.sparse_rank([(c, r, v) for r, c, v in entries]) == expected


def random_entries(rng, nrows, ncols, density, lo=-3, hi=3):
    entries = []
    for r in range(nrows):
        for c in range(ncols):
            if rng.random() < density:
                v = rng.randint(lo, hi)
                if v:
                    entries.append((r, c, v))
    return entries


def test_empty_and_trivial():
    assert kernel.sparse_rank([]) == 0
    assert kernel.sparse_rank([(0, 0, 5)]) == 1
    assert kernel.sparse_rank([(0, 0, 1), (0, 0, -1)]) == 0  # duplicates sum
    assert kernel.sparse_rank([(1, 1, 0)]) == 0


def test_known_small():
    entries = [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)]
    assert kernel.sparse_rank(entries) == 1
    entries = [(0, 0, 2), (1, 1, 3), (2, 2, -4)]
    assert kernel.sparse_rank(entries) == 3
    # the second column cancels to zero against the first
    assert kernel.sparse_rank([(0, 0, 1), (1, 0, 1), (0, 1, 2), (1, 1, 2)]) == 1
    # and here it reduces to 2 e_0, a new pivot
    assert kernel.sparse_rank([(0, 0, 1), (1, 0, -1), (0, 1, 3), (1, 1, -1)]) == 2


def test_matches_fraction_oracle(rng):
    for _ in range(60):
        nrows = rng.randint(1, 12)
        ncols = rng.randint(1, 12)
        entries = random_entries(rng, nrows, ncols, rng.choice([0.15, 0.4, 0.8]))
        assert_rank_matches_oracle(entries, nrows, ncols)


def test_implementations_agree_on_structured_matrices(rng):
    # the sparse elimination and the Fraction oracle agree on boundary-like
    # matrices: each column has k nonzeros of alternating sign
    for _ in range(20):
        nrows = rng.randint(5, 40)
        ncols = rng.randint(5, 40)
        entries = []
        for c in range(ncols):
            supp = rng.sample(range(nrows), min(nrows, rng.randint(2, 5)))
            entries += [
                (r, c, 1 if i % 2 == 0 else -1) for i, r in enumerate(supp)
            ]
        assert_rank_matches_oracle(entries, nrows, ncols)


def test_larger_values(rng):
    for _ in range(20):
        entries = random_entries(rng, 8, 8, 0.5, lo=-50, hi=50)
        assert_rank_matches_oracle(entries, 8, 8)


def test_impl_is_pure():
    assert kernel.IMPL == "pure"


def test_big_int_path():
    # entries near 2**62, whose products exceed 64 bits, stay exact
    big = 1 << 62
    entries = [(0, 0, big), (0, 1, 1), (1, 0, big - 1), (1, 1, 1)]
    assert kernel.sparse_rank(entries) == dense_fraction_rank(entries, 2, 2) == 2


def test_big_int_products_during_elimination(rng):
    # entries fit in 64 bits but the elimination's update products do not
    big = (1 << 35) + 1
    for trial in range(10):
        nrows = ncols = 6
        entries = []
        for r in range(nrows):
            for c in range(ncols):
                v = rng.randint(1, 5) * big + rng.randint(-4, 4)
                entries.append((r, c, v))
        assert_rank_matches_oracle(entries, nrows, ncols)


@st.composite
def simplicial_boundaries(draw):
    """The boundary matrices of a random simplicial complex, random facets on
    at most 8 vertices, as (entries, rows, cols) with the signs
    reduced_homology uses: dropping vertex i of a sorted face has sign
    (-1)^i, and the vertices map to the empty face."""
    n = draw(st.integers(1, 8))
    facets = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1), max_size=6))
    faces = SimplicialComplex(facets).faces_by_dim()
    out = []
    for k in range(1, len(faces)):
        index = {face: i for i, face in enumerate(faces[k - 1])}
        entries = [
            (index[face[:i] + face[i + 1 :]], j, (-1) ** i)
            for j, face in enumerate(faces[k])
            for i in range(len(face))
        ]
        out.append((entries, len(faces[k - 1]), len(faces[k])))
    return out


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(simplicial_boundaries())
def test_boundary_ranks_match_oracle(boundaries):
    for entries, nrows, ncols in boundaries:
        assert_rank_matches_oracle(entries, nrows, ncols)


def dense_rank_mod2(matrix):
    """Textbook Gaussian elimination over GF(2) on 0/1 row lists, the
    independent oracle for rank_mod2."""
    m = [row[:] for row in matrix]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                m[i] = [a ^ b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def matrices(values):
    """Random dense matrices of up to 12 x 12 with entries from ``values``."""
    return st.integers(0, 12).flatmap(
        lambda ncols: st.lists(
            st.lists(st.sampled_from(values), min_size=ncols, max_size=ncols),
            max_size=12,
        )
    )


def row_masks(matrix):
    """Each row as the bit mask of its odd entries."""
    return [sum(1 << j for j, v in enumerate(row) if v % 2) for row in matrix]


def test_rank_mod2_small():
    assert kernel.rank_mod2([]) == 0
    assert kernel.rank_mod2([0, 0]) == 0
    assert kernel.rank_mod2([0b011, 0b110, 0b101]) == 2  # rows sum to zero
    # [[1, 1], [1, -1]] has rank 2 over Q but 1 over GF(2)
    entries = [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, -1)]
    assert kernel.sparse_rank(entries) == 2
    assert kernel.rank_mod2([0b11, 0b11]) == 1


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(matrices([0, 1]))
def test_rank_mod2_matches_dense_oracle(matrix):
    assert kernel.rank_mod2(row_masks(matrix)) == dense_rank_mod2(matrix)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(matrices([-1, 0, 0, 1]))
def test_rank_mod2_bounds_rational_rank(matrix):
    entries = [(r, c, v) for r, row in enumerate(matrix) for c, v in enumerate(row)]
    assert kernel.rank_mod2(row_masks(matrix)) <= kernel.sparse_rank(entries)
