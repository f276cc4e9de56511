"""The operator walk against the per-word operator calculus.

SkeletonFunction, op_C, op_D, op_E and eval_cd_monomial evaluate one word
at a time, letter by letter, as the operator calculus is written: they are
the oracle of operator_walk, which shares every suffix between words.
pullback and check_E_commutes_with_pullback test E against the chain-poset
projection.
"""

from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdindex.cdpoly import CdPolynomial, enumerate_cd_words, word_degree
from cdindex.flags import cd_index_flag
from cdindex.operators import cd_index_operator, operator_walk
from cdindex.poset import (
    barycentric,
    build_pyramid,
    chain,
    crosspoly_fan,
    cube_fan,
    polygon,
    simplex_fan,
    skeleton,
)

from conftest import (
    antipodal_quotient,
    gorenstein_posets,
    random_graded_poset,
    upper_interval,
)


@dataclass(frozen=True)
class SkeletonFunction:
    """Integer values on the degree <= level part of a poset (top excluded)."""

    poset: object
    level: int
    values: dict

    def __post_init__(self):
        domain = _domain(self.poset, self.level)
        if set(self.values) != domain:
            missing = domain - set(self.values)
            extra = set(self.values) - domain
            raise ValueError(
                f"domain mismatch at level {self.level}: "
                f"missing {sorted(missing)}, extra {sorted(extra)}"
            )

    def __call__(self, e):
        return self.values[e]

    def same_values(self, other):
        return self.level == other.level and self.values == other.values


def _domain(poset, level):
    if not 0 <= level <= poset.rank:
        raise ValueError(f"level {level} out of range for rank {poset.rank}")
    return {e for e in poset.elements() if poset.degree(e) <= level}


def constant_function(poset, level):
    """The constant function 1 on the degree <= level skeleton."""
    return SkeletonFunction(poset, level, dict.fromkeys(_domain(poset, level), 1))


def op_E(f):
    """E(f)(s) = sum over t >= s with deg t <= level of (-1)^(level - deg t) f(t)."""
    poset, m = f.poset, f.level
    out = {}
    for e in f.values:
        acc = 0
        for t in poset.up_set(e):
            d = poset.degree(t)
            if d <= m:
                acc += f.values[t] if (m - d) % 2 == 0 else -f.values[t]
        out[e] = acc
    return SkeletonFunction(poset, m, out)


def op_C(f):
    """Restriction to the skeleton one level down."""
    if f.level == 0:
        raise ValueError("cannot restrict below level 0")
    m = f.level - 1
    poset = f.poset
    return SkeletonFunction(
        poset, m, {e: v for e, v in f.values.items() if poset.degree(e) <= m}
    )


def op_D(f):
    """D = C o (E - Id) o C, dropping two levels."""
    if f.level < 2:
        raise ValueError("D needs level >= 2")
    g = op_C(f)
    eg = op_E(g)
    h = SkeletonFunction(
        g.poset, g.level, {e: eg.values[e] - g.values[e] for e in g.values}
    )
    return op_C(h)


def eval_cd_monomial(poset, word, trace=None):
    """Value at the bottom of word(C, D) applied to the constant function 1.

    Letters act rightmost first: a trailing c applies C first.  When the
    poset is Gorenstein* of matching rank this is the coefficient of the word
    in its cd-index.  Pass a list as ``trace`` to collect the intermediate
    skeleton functions (the starting constant included).
    """
    n = poset.rank
    if word_degree(word) != n:
        raise ValueError(
            f"word {word!r} has degree {word_degree(word)}, poset has rank {n}"
        )
    f = constant_function(poset, n)
    if trace is not None:
        trace.append(f)
    for letter in reversed(word):
        f = op_C(f) if letter == "c" else op_D(f)
        if trace is not None:
            trace.append(f)
    assert f.level == 0
    return f(poset.bottom)


def pullback(f, bary):
    """Pull a skeleton function back along the chain-poset projection.

    ``bary`` must be the barycentric subdivision of the level-m skeleton of
    f's poset; the result assigns f(max of chain) to every chain.
    """
    b = bary.bposet
    m = f.level
    if b.rank != m:
        raise ValueError(
            f"barycentric poset has rank {b.rank}, expected level {m}"
        )
    out = {}
    for e in b.elements():
        if e == b.top:
            continue
        out[e] = f.values[bary.projection[e]]
    return SkeletonFunction(b, m, out)


def check_E_commutes_with_pullback(poset, m, f):
    """Test E o pullback == pullback o E pointwise on the chain poset.

    Holds whenever the poset is Eulerian; may fail outside that contract.
    """
    if f.level != m:
        raise ValueError("function level must equal m")
    bary = barycentric(skeleton(poset, m).poset)
    lhs = op_E(pullback(f, bary))
    rhs = pullback(op_E(f), bary)
    return lhs.same_values(rhs)


def random_function(p, m, rng, low=-5, high=5):
    return SkeletonFunction(
        p,
        m,
        {e: rng.randint(low, high) for e in p.elements() if p.degree(e) <= m},
    )


def test_E_polygon_level1():
    p = polygon(5)
    f = constant_function(p, 1)
    ef = op_E(f)
    assert ef(p.bottom) == 4  # -1 from the bottom, +1 from each of 5 rays
    assert all(ef(r) == 1 for r in p.elements_of_degree(1))


def test_E_level0_is_identity(rng):
    p = build_pyramid(polygon(4))
    f = random_function(p, 0, rng)
    assert op_E(f).same_values(f)


def test_E_linear(rng):
    p = build_pyramid(polygon(4))
    for m in range(p.rank + 1):
        f = random_function(p, m, rng)
        g = random_function(p, m, rng)
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        comb = SkeletonFunction(
            p, m, {e: a * f(e) + b * g(e) for e in f.values}
        )
        lhs = op_E(comb)
        ef, eg = op_E(f), op_E(g)
        rhs = SkeletonFunction(p, m, {e: a * ef(e) + b * eg(e) for e in f.values})
        assert lhs.same_values(rhs)


def test_C_restricts():
    p = polygon(4)
    f = constant_function(p, 2)
    g = op_C(f)
    assert g.level == 1
    assert set(g.values) == {e for e in p.elements() if p.degree(e) <= 1}
    gg = op_C(g)
    assert set(gg.values) == {p.bottom}
    with pytest.raises(ValueError):
        op_C(gg)


def test_D_polygon():
    for k in (3, 4, 7):
        p = polygon(k)
        f = constant_function(p, 2)
        df = op_D(f)
        assert df.level == 0 and df(p.bottom) == k - 2


def test_D_needs_level2():
    p = polygon(4)
    with pytest.raises(ValueError):
        op_D(constant_function(p, 1))


def test_D_of_zero_is_zero():
    p = build_pyramid(polygon(4))
    z = SkeletonFunction(p, 3, {e: 0 for e in p.elements() if p.degree(e) <= 3})
    dz = op_D(z)
    assert all(v == 0 for v in dz.values.values())


def test_eval_monomial_pyramid():
    pyr = build_pyramid(polygon(4))
    assert eval_cd_monomial(pyr, "dc") == 3
    assert eval_cd_monomial(pyr, "cd") == 3
    assert eval_cd_monomial(pyr, "ccc") == 1
    with pytest.raises(ValueError):
        eval_cd_monomial(pyr, "cc")


def test_eval_monomial_polygon():
    for k in (3, 5, 9):
        p = polygon(k)
        assert eval_cd_monomial(p, "cc") == 1
        assert eval_cd_monomial(p, "d") == k - 2


def test_eval_monomial_trace():
    pyr = build_pyramid(polygon(4))
    trace = []
    assert eval_cd_monomial(pyr, "dc", trace=trace) == 3
    assert [t.level for t in trace] == [3, 2, 0]
    assert all(t(pyr.bottom) >= 0 for t in trace)


def test_cd_index_operator_values():
    assert cd_index_operator(simplex_fan(1)) == CdPolynomial({"c": 1})
    for k in (3, 4, 6):
        assert cd_index_operator(polygon(k)) == CdPolynomial({"cc": 1, "d": k - 2})
    assert cd_index_operator(build_pyramid(polygon(4))) == CdPolynomial(
        {"ccc": 1, "cd": 3, "dc": 3}
    )


def test_operator_agrees_with_flag():
    for p in [simplex_fan(3), build_pyramid(polygon(5)), simplex_fan(4)]:
        assert cd_index_operator(p) == cd_index_flag(p)


@settings(max_examples=120, deadline=None, database=None, derandomize=True)
@given(st.randoms(use_true_random=False))
def test_operator_matches_per_word_oracle(rnd):
    # random graded posets are rarely Gorenstein*: the values outside the
    # contract must match word for word too
    p = random_graded_poset(rnd, max_rank=5)
    expected = CdPolynomial(
        {w: eval_cd_monomial(p, w) for w in enumerate_cd_words(p.rank)}
    )
    assert cd_index_operator(p) == expected


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(st.randoms(use_true_random=False))
def test_walk_paths_match_per_word_traces(rnd):
    # every function along every word, not only the value at the bottom
    p = random_graded_poset(rnd, max_rank=5)
    ids = p.elements()
    words = []
    for word, path in operator_walk(p):
        words.append(word)
        trace = []
        eval_cd_monomial(p, word, trace=trace)
        assert [(level, dict(zip(ids, values))) for level, values in path] == [
            (t.level, t.values) for t in trace
        ]
    # reversed-lexicographic: ordered by the word read backwards
    assert words == sorted(enumerate_cd_words(p.rank), key=lambda w: w[::-1])


def assert_walk_matches_upper_intervals(p):
    """At level m after suffix u, the walk's value at s of degree k <= m is
    the coefficient of c^(m-k) u in the cd-index of [s, top]: non-negative
    when that interval is Gorenstein*."""
    ids = p.elements()
    deg = p.index_data().deg
    upper = [cd_index_flag(upper_interval(p, s)) for s in ids[:-1]]
    seen = set()
    for word, path in operator_walk(p):
        for i, (m, values) in enumerate(path):
            suffix = word[len(word) - i :]
            if suffix in seen:
                continue
            seen.add(suffix)
            for s, v in enumerate(values):
                assert deg[s] <= m
                assert v == upper[s].coefficient("c" * (m - deg[s]) + suffix)
                assert v >= 0


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(gorenstein_posets())
def test_walk_gives_every_upper_interval_cd_index(p):
    assert_walk_matches_upper_intervals(p)


@pytest.mark.parametrize(
    "p",
    [antipodal_quotient(crosspoly_fan(4)), build_pyramid(cube_fan(3)), polygon(6)],
    ids=["RP3", "pyramid(cube_fan(3))", "polygon(6)"],
)
def test_walk_upper_intervals_fixed_inputs(p):
    assert_walk_matches_upper_intervals(p)


def test_pullback_basics():
    p = polygon(4)
    m = 1
    bary = barycentric(skeleton(p, m).poset)
    ones = constant_function(p, m)
    pb = pullback(ones, bary)
    assert all(v == 1 for v in pb.values.values())
    # domain size: all chains in the skeleton minus its ends, plus the bottom
    assert len(pb.values) == 1 + 4

    indicator = SkeletonFunction(
        p, m, {e: 1 if p.degree(e) == m else 0 for e in p.elements() if p.degree(e) <= m}
    )
    pbi = pullback(indicator, bary)
    b = bary.bposet
    for e, v in pbi.values.items():
        if e == b.bottom:
            assert v == 0
        else:
            assert v == (1 if p.degree(bary.projection[e]) == m else 0)


def test_E_commutes_with_pullback(rng):
    for k in range(3, 7):
        p = polygon(k)
        for m in range(p.rank + 1):
            assert check_E_commutes_with_pullback(p, m, constant_function(p, m))
    pyr = build_pyramid(polygon(4))
    for _ in range(5):
        f = random_function(pyr, 3, rng)
        assert check_E_commutes_with_pullback(pyr, 3, f)


def test_commutation_probe_outside_contract(rng):
    # chain(2) is not Eulerian; the check may fail there, it only has to run
    c = chain(2)
    f = random_function(c, 2, rng)
    check_E_commutes_with_pullback(c, 2, f)


def test_out_of_contract_values_are_reported_not_rejected():
    # the operator route evaluates non-Gorenstein* inputs as-is; the result
    # simply disagrees with the flag route (which raises)
    c = chain(2)
    assert eval_cd_monomial(c, "cc") == 1
    assert eval_cd_monomial(c, "d") == -1
    assert cd_index_operator(c) == CdPolynomial({"cc": 1, "d": -1})
