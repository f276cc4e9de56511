"""The comparability tables of IndexData (below, above) and its layer starts
against the bitmasks they are decoded from, the tables' laziness, and the three
cd-index routes that read them against the independent oracles of their test
files."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdindex import poset as pm
from cdindex.cdpoly import CdPolynomial, enumerate_cd_words
from cdindex.flags import cd_index_flag, flag_f
from cdindex.homology import is_gorenstein_star
from cdindex.operators import cd_index_operator
from cdindex.recursion import NonIntegralResult, cd_index_stanley

from conftest import random_graded_poset
from test_flags import brute_force_flag_f
from test_operators import eval_cd_monomial
from test_recursion import _cd_index_stanley_per_element

# builder members small enough for the enumeration oracle of flag_f
BUILT = st.sampled_from(
    [pm.polygon(k) for k in range(3, 9)]
    + [pm.simplex_fan(n) for n in range(1, 5)]
    + [pm.cube_fan(n) for n in range(1, 4)]
    + [pm.crosspoly_fan(n) for n in range(1, 4)]
    + [pm.chain(r) for r in range(0, 6)]
    + [pm.build_pyramid(pm.polygon(k)) for k in (3, 4, 5)]
    + [pm.build_pyramid(pm.simplex_fan(3)), pm.barycentric(pm.polygon(3)).bposet]
)
POSETS = st.one_of(
    st.randoms(use_true_random=False).map(
        lambda rnd: random_graded_poset(rnd, max_rank=5, max_width=3)
    ),
    BUILT,
)


def _slice(table, i):
    flat, start = table
    return list(flat[start[i] : start[i + 1]])


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(POSETS)
def test_tables_match_the_masks(p):
    ix = p.index_data()
    n = len(p)
    for i in range(n):
        assert _slice(ix.below, i) == list(pm._bits(ix.down[i]))
        assert _slice(ix.above, i) == list(pm._bits(ix.up[i]))
    for table in (ix.below, ix.above):
        assert len(table.start) == n + 1 and table.start[-1] == len(table.flat)
        assert table.flat.itemsize == 4
    assert len(ix.layer_start) == p.rank + 3
    for d in range(p.rank + 2):
        first, last = ix.layer_start[d], ix.layer_start[d + 1]
        assert list(range(first, last)) == list(pm._bits(ix.layers[d]))
    assert ix.layer_start[-1] == n


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(POSETS)
def test_routes_match_their_oracles(p):
    assert flag_f(p).terms == brute_force_flag_f(p)
    try:
        expected = _cd_index_stanley_per_element(p)
    except NonIntegralResult as exc:
        with pytest.raises(NonIntegralResult) as got:
            cd_index_stanley(p)
        assert str(got.value) == str(exc)
    else:
        assert cd_index_stanley(p) == expected
    assert cd_index_operator(p) == CdPolynomial(
        {w: eval_cd_monomial(p, w) for w in enumerate_cd_words(p.rank)}
    )


def _built(ix):
    return {name for name in ("below", "above") if name in vars(ix)}


def test_tables_are_built_only_when_read():
    p = pm.build_pyramid(pm.cube_fan(3))
    ix = p.index_data()
    assert pm.is_eulerian(p)
    assert is_gorenstein_star(p)
    assert p.index_data() is ix
    assert _built(ix) == set()
    cd_index_flag(p)
    assert _built(ix) == {"below"}
    cd_index_operator(p)
    assert _built(ix) == {"below", "above"}


def test_tables_are_decoded_once(monkeypatch):
    # below decodes each down mask once; above is its transpose and decodes
    # nothing, and later calls reuse both
    p = pm.cube_fan(4)
    p.index_data()
    decoded = []
    bits = pm._bits

    def counted(mask):
        decoded.append(mask)
        return bits(mask)

    monkeypatch.setattr(pm, "_bits", counted)
    first = cd_index_flag(p)
    assert cd_index_flag(p) == first
    assert len(decoded) == len(p)
    assert cd_index_stanley(p) == cd_index_operator(p) == first
    assert len(decoded) == len(p)
