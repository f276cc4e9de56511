import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cdindex.cdpoly import (
    CdPolynomial,
    NotACdPolynomial,
    SubsetPolynomial,
    enumerate_cd_words,
    parse_cd,
    phi_expand,
    to_cd,
    word_degree,
)

C = CdPolynomial({"c": 1})
D = CdPolynomial({"d": 1})


def brute_force_phi(word):
    """Independent expansion of the t-substitution: multiply the factors out
    term by term."""
    factors = []
    pos = 1
    for letter in word:
        if letter == "c":
            factors.append([frozenset(), frozenset({pos})])
            pos += 1
        else:
            factors.append([frozenset({pos}), frozenset({pos + 1})])
            pos += 2
    terms = {}
    for combo in itertools.product(*factors):
        s = frozenset().union(*combo) if combo else frozenset()
        terms[s] = terms.get(s, 0) + 1
    return SubsetPolynomial(word_degree(word), terms)


def _word_pair_bits(w):
    # bit positions (0-based) of the two slots of each d in the word
    pairs = []
    pos = 0
    for letter in w:
        if letter == "c":
            pos += 1
        else:
            pairs.append((pos, pos + 1))
            pos += 2
    return pairs


class NonIntegralSolution(ArithmeticError):
    """The elimination oracle solved integer input with fractional
    coefficients."""


def _to_cd_by_elimination(h):
    """The former to_cd, kept as the oracle for the peel (n <= 7 only).

    Sets up the exact linear system of all degree-n word images against the
    2^n subsets and solves it by rational elimination; a nonzero residual on
    any subset certifies that h is not a cd-polynomial.  Raises
    NonIntegralSolution if an integer input solves with fractional
    coefficients.
    """
    n = h.n
    assert n <= 7, "the elimination oracle is cubic in Fib(n+1); keep n small"
    words = enumerate_cd_words(n)
    nw = len(words)
    pair_bits = [_word_pair_bits(w) for w in words]

    def column_value(j, mask):
        # coefficient of t^mask in the image of word j: each d needs exactly
        # one of its two slots in the subset
        for a, b in pair_bits[j]:
            if (mask >> a & 1) == (mask >> b & 1):
                return 0
        return 1

    target = [0] * (1 << n)
    for s, v in h.terms.items():
        mask = 0
        for i in s:
            mask |= 1 << (i - 1)
        target[mask] = v

    # forward elimination over rows in subset order until nw pivots are found
    pivots = []  # list of (lead column, reduced row) in increasing lead order
    for mask in range(1 << n):
        row = [Fraction(column_value(j, mask)) for j in range(nw)]
        row.append(Fraction(target[mask]))
        for lead, prow in pivots:
            if row[lead]:
                f = row[lead]
                for jj in range(lead, nw + 1):
                    row[jj] -= f * prow[jj]
        lead = next((j for j in range(nw) if row[j]), None)
        if lead is None:
            if row[nw]:
                raise NotACdPolynomial(
                    f"residual {row[nw]} at subset mask {mask:#b}"
                )
            continue
        pv = row[lead]
        row = [v / pv for v in row]
        pivots.append((lead, row))
        pivots.sort(key=lambda lr: lr[0])
        if len(pivots) == nw:
            break
    assert len(pivots) == nw, "word images must be linearly independent"

    # back substitution
    coeffs = [Fraction(0)] * nw
    for lead, row in reversed(pivots):
        acc = row[nw]
        for j in range(lead + 1, nw):
            acc -= row[j] * coeffs[j]
        coeffs[lead] = acc

    # residual check over every subset, which doubles as the Eulerian gate
    for mask in range(1 << n):
        acc = 0
        for j in range(nw):
            if column_value(j, mask):
                acc += coeffs[j]
        if acc != target[mask]:
            raise NotACdPolynomial(
                f"residual {acc - target[mask]} at subset mask {mask:#b}"
            )

    integral_input = all(isinstance(v, int) for v in h.terms.values())
    if integral_input and any(v.denominator != 1 for v in coeffs):
        raise NonIntegralSolution(f"solution {coeffs} is not integral")
    return CdPolynomial({w: coeffs[j] for j, w in enumerate(words)})


int_or_fraction = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-9, max_value=9, max_denominator=6),
)


@st.composite
def cd_polynomials(draw, min_degree, max_degree, coefficients=int_or_fraction):
    n = draw(st.integers(min_degree, max_degree))
    words = enumerate_cd_words(n)
    values = draw(st.lists(coefficients, min_size=len(words), max_size=len(words)))
    return n, CdPolynomial(dict(zip(words, values)))


def random_homogeneous(rng, degree):
    words = enumerate_cd_words(degree)
    terms = {w: rng.randint(-9, 9) for w in words}
    if not any(terms.values()):
        terms[words[0]] = 1
    return CdPolynomial(terms)


def test_word_degree():
    assert word_degree("") == 0
    assert word_degree("ccdcd") == 7
    assert word_degree("d") == 2


def test_enumerate_words():
    assert enumerate_cd_words(2) == ["cc", "d"]
    assert enumerate_cd_words(3) == ["ccc", "cd", "dc"]
    counts = [len(enumerate_cd_words(n)) for n in range(9)]
    assert counts == [1, 1, 2, 3, 5, 8, 13, 21, 34]
    assert all(counts[n] == counts[n - 1] + counts[n - 2] for n in range(2, 9))


def test_mul_examples():
    assert C * C == CdPolynomial({"cc": 1})
    cc2d = CdPolynomial({"cc": 1, "d": -2})
    assert cc2d * cc2d == CdPolynomial(
        {"cccc": 1, "ccd": -2, "dcc": -2, "dd": 4}
    )
    p = CdPolynomial({"cd": 3, "dc": -1})
    assert CdPolynomial.one() * p == p
    assert p * CdPolynomial.one() == p


def test_mul_is_associative_and_distributive(rng):
    for _ in range(30):
        a = random_homogeneous(rng, rng.randint(0, 3))
        b = random_homogeneous(rng, rng.randint(0, 3))
        c = random_homogeneous(rng, rng.randint(0, 3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_phi_single_letters():
    assert phi_expand(C) == SubsetPolynomial(1, {frozenset(): 1, frozenset({1}): 1})
    assert phi_expand(D) == SubsetPolynomial(
        2, {frozenset({1}): 1, frozenset({2}): 1}
    )


def test_phi_ccdcd_matches_product_expansion():
    assert phi_expand(CdPolynomial({"ccdcd": 1})) == brute_force_phi("ccdcd")


def test_phi_matches_brute_force(rng):
    for n in range(0, 7):
        for w in enumerate_cd_words(n):
            assert phi_expand(CdPolynomial({w: 1})) == brute_force_phi(w)


def test_phi_requires_homogeneous():
    with pytest.raises(ValueError):
        phi_expand(C + CdPolynomial({"d": 1}))
    with pytest.raises(ValueError):
        phi_expand(CdPolynomial.zero())


def test_phi_endpoint_values(rng):
    # only the pure-c word reaches the empty and the full subset, so for any
    # homogeneous p the two extreme h-values agree and equal the c^n
    # coefficient
    for n in range(1, 7):
        full = frozenset(range(1, n + 1))
        for w in enumerate_cd_words(n):
            h = phi_expand(CdPolynomial({w: 1}))
            expected = 1 if w == "c" * n else 0
            assert h.get(frozenset()) == expected
            assert h.get(full) == expected
        for _ in range(5):
            p = random_homogeneous(rng, n)
            h = phi_expand(p)
            assert h.get(frozenset()) == h.get(full) == p.coefficient("c" * n)


def test_cc_minus_2d_identity():
    # (1 - t_i)(1 - t_{i+1}) expanded: 1 - t_1 - t_2 + t_1 t_2
    h = phi_expand(CdPolynomial({"cc": 1, "d": -2}))
    assert h == SubsetPolynomial(
        2,
        {
            frozenset(): 1,
            frozenset({1}): -1,
            frozenset({2}): -1,
            frozenset({1, 2}): 1,
        },
    )


def test_to_cd_examples():
    h = SubsetPolynomial(
        2,
        {
            frozenset(): 1,
            frozenset({1}): 3,
            frozenset({2}): 3,
            frozenset({1, 2}): 1,
        },
    )
    assert to_cd(h) == CdPolynomial({"cc": 1, "d": 2})
    assert to_cd(SubsetPolynomial(0, {frozenset(): 1})) == CdPolynomial.one()
    with pytest.raises(NotACdPolynomial):
        to_cd(SubsetPolynomial(1, {frozenset(): 1}))  # h_{1} = 0 != h_empty


def test_to_cd_rejects_non_images(rng):
    for _ in range(20):
        p = random_homogeneous(rng, 3)
        h = phi_expand(p)
        bad_terms = dict(h.terms)
        s = frozenset(rng.sample([1, 2, 3], rng.randint(1, 3)))
        bad_terms[s] = bad_terms.get(s, 0) + 1
        with pytest.raises(NotACdPolynomial):
            to_cd(SubsetPolynomial(3, bad_terms))


def test_to_cd_flags_non_integral():
    half = phi_expand(C) * Fraction(1, 2)
    # fractional input solves fine
    assert to_cd(half) == CdPolynomial({"c": Fraction(1, 2)})
    # peeling never divides, so integer input gives integer coefficients
    h = SubsetPolynomial(1, {frozenset(): 1, frozenset({1}): 1})
    assert to_cd(h) == C


@settings(max_examples=250, deadline=None, database=None, derandomize=True)
@given(cd_polynomials(0, 7), st.randoms(use_true_random=False))
def test_to_cd_matches_elimination_oracle(case, rnd):
    n, p = case
    terms = dict(phi_expand(p).terms) if p else {}
    for _ in range(rnd.randint(0, 2)):
        s = frozenset(i for i in range(1, n + 1) if rnd.random() < 0.5)
        terms[s] = terms.get(s, 0) + rnd.choice([1, -1, Fraction(1, 2)])
    h = SubsetPolynomial(n, terms)
    try:
        expected = _to_cd_by_elimination(h)
    except NotACdPolynomial:
        with pytest.raises(NotACdPolynomial):
            to_cd(h)
    else:
        assert to_cd(h) == expected


# degrees up to 8 are covered by test_roundtrip_small and criterion 11, and
# Fraction input by the oracle test; phi_expand takes about 0.2 s at degree 12
@settings(max_examples=20, deadline=None, database=None, derandomize=True)
@given(cd_polynomials(9, 12, st.integers(-9, 9)))
@example((12, CdPolynomial({w: 1 for w in enumerate_cd_words(12)})))
def test_roundtrip_to_degree_12(case):
    n, p = case
    h = phi_expand(p) if p else SubsetPolynomial(n)
    assert to_cd(h) == p


def test_to_cd_residual_names_a_full_mask(rng):
    for _ in range(20):
        h = phi_expand(random_homogeneous(rng, 3))
        terms = dict(h.terms)
        s = frozenset(rng.sample([1, 2, 3], rng.randint(0, 3)))
        terms[s] = terms.get(s, 0) + rng.choice([1, -1, 2])
        with pytest.raises(NotACdPolynomial) as err:
            to_cd(SubsetPolynomial(3, terms))
        m = re.fullmatch(r"residual (\S+) at subset mask (0b[01]+)", str(err.value))
        assert m and int(m.group(1)) != 0 and int(m.group(2), 2) < 1 << 3
    # an equal bump on {5} and {1, 5} passes the first peel, and the second
    # peel reports the subset {5} over 1..5, not its own local mask 0b1000
    terms = dict(phi_expand(random_homogeneous(rng, 5)).terms)
    for s in ({5}, {1, 5}):
        terms[frozenset(s)] = terms.get(frozenset(s), 0) + 1
    with pytest.raises(NotACdPolynomial, match=r"^residual 1 at subset mask 0b10000$"):
        to_cd(SubsetPolynomial(5, terms))


def test_roundtrip_small(rng):
    for _ in range(60):
        n = rng.randint(0, 5)
        p = random_homogeneous(rng, n)
        assert to_cd(phi_expand(p)) == p


def test_formatting():
    assert str(CdPolynomial.zero()) == "0"
    assert str(CdPolynomial.one()) == "1"
    assert str(CdPolynomial({"ccc": 1, "cd": 3, "dc": 3})) == "c^3 + 3*cd + 3*dc"
    assert str(CdPolynomial({"cc": 1, "d": -2})) == "c^2 - 2*d"
    assert str(CdPolynomial({"dd": 4, "ccd": -2})) == "-2*c^2d + 4*dd"
    assert str(CdPolynomial({"dcc": 1})) == "dc^2"


def test_parse_inverts_str(rng):
    for _ in range(40):
        p = random_homogeneous(rng, rng.randint(0, 6))
        assert parse_cd(str(p)) == p
    assert parse_cd("0") == CdPolynomial.zero()
    assert parse_cd("c^2 + 2*d") == CdPolynomial({"cc": 1, "d": 2})
    with pytest.raises(ValueError):
        parse_cd("c^2 + 2*e")


def test_fraction_coefficients_round_trip_text():
    p = CdPolynomial({"c": Fraction(1, 2), "d": Fraction(-3, 4), "": 2})
    assert str(p) == "2 + 1/2*c - 3/4*d"
    assert parse_cd(str(p)) == p


def test_subset_polynomial_json():
    h = SubsetPolynomial(3, {frozenset(): 1, frozenset({1, 3}): 5})
    data = h.to_json()
    assert data["terms"] == {"": 1, "1,3": 5}
    assert SubsetPolynomial.from_json(data) == h


def test_subset_polynomial_restrict_and_shift():
    h = SubsetPolynomial(2, {frozenset({1}): 2, frozenset({2}): 3})
    assert h.restrict(1) == SubsetPolynomial(1, {frozenset({1}): 2})
    assert h.restrict(1).shift_in(2) == SubsetPolynomial(2, {frozenset({1, 2}): 2})
    with pytest.raises(ValueError):
        SubsetPolynomial(1, {frozenset({1}): 1}).shift_in(1)


def test_subset_polynomial_values_by_mask():
    # bit i-1 of the index stands for t_i, and terms is derived from values
    h = SubsetPolynomial(3, {frozenset({1, 3}): 5, frozenset({2}): -1})
    assert h.values == [0, 0, -1, 0, 0, 5, 0, 0]
    assert h.terms == {frozenset({1, 3}): 5, frozenset({2}): -1}
    assert SubsetPolynomial.from_values(3, h.values) == h
    assert SubsetPolynomial(2).values == [0, 0, 0, 0]
    # shift_in keeps every other coefficient when t_i joins
    g = SubsetPolynomial(2, {frozenset(): 4, frozenset({1}): 0, frozenset({2}): 7})
    assert g.shift_in(1) == SubsetPolynomial(2, {frozenset({1}): 4, frozenset({1, 2}): 7})


def test_from_values_checks_the_length():
    for n, size in [(0, 0), (0, 2), (2, 3), (2, 5), (3, 4)]:
        with pytest.raises(ValueError, match="values for the 2\\^"):
            SubsetPolynomial.from_values(n, [1] * size)
    with pytest.raises(ValueError, match="outside"):
        SubsetPolynomial(2, {frozenset({3}): 1})


def test_dict_and_list_built_polynomials_agree():
    # Fraction(4, 2) is stored as the int 2, whichever way it comes in
    by_dict = SubsetPolynomial(2, {frozenset(): Fraction(4, 2), frozenset({2}): 3})
    by_list = SubsetPolynomial.from_values(2, [2, 0, Fraction(6, 2), 0])
    assert by_dict == by_list
    assert hash(by_dict) == hash(by_list)
    assert by_dict.get(()) == by_list.get(()) == 2
    assert type(by_dict.get(())) is int and type(by_list.get({2})) is int
    assert by_list.to_json() == by_dict.to_json() == {"n": 2, "terms": {"": 2, "2": 3}}
    assert repr(by_list) == repr(by_dict) == "SubsetPolynomial(n=2, {{}: 2, {2}: 3})"
    assert by_list != SubsetPolynomial.from_values(2, [2, 0, 3, 1])
    assert by_list != SubsetPolynomial.from_values(3, [2, 0, 3, 0, 0, 0, 0, 0])
    assert len({by_dict, by_list, by_dict + SubsetPolynomial(2)}) == 1
    # a Fraction that is not an integer stays one, and compares by value
    half = SubsetPolynomial(1, {frozenset({1}): Fraction(1, 2)})
    assert half == SubsetPolynomial.from_values(1, [0, Fraction(2, 4)])
    assert hash(half) == hash(SubsetPolynomial.from_values(1, [0, Fraction(2, 4)]))


def test_get_outside_the_ambient_is_zero():
    h = SubsetPolynomial(2, {frozenset({1, 2}): 5, frozenset(): 1})
    assert h.get({1, 2}) == 5 and h.get([2, 1, 1]) == 5
    assert h.get({3}) == 0
    assert h.get({0}) == 0
    assert h.get({1, 2, 3}) == 0
    assert SubsetPolynomial(0, {(): 1}).get({1}) == 0


def test_to_cd_leaves_its_argument(rng):
    for _ in range(10):
        p = random_homogeneous(rng, rng.randint(1, 8))
        h = phi_expand(p)
        before = list(h.values)
        assert to_cd(h) == p
        assert h.values == before
    bad = SubsetPolynomial(2, {frozenset(): 1})
    with pytest.raises(NotACdPolynomial):
        to_cd(bad)
    assert bad.values == [1, 0, 0, 0]
