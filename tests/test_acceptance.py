"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  The corpus covers the simplex/cube/cross-polytope fan
families, their pyramids, and barycentric subdivisions of the small members.
"""

import random
import time
from functools import lru_cache

import pytest

from cdindex.cdpoly import (
    CdPolynomial,
    NotACdPolynomial,
    SubsetPolynomial,
    enumerate_cd_words,
    phi_expand,
    to_cd,
)
from cdindex.flags import cd_index_flag, flag_f, flag_h, verify_duality
from cdindex.homology import is_gorenstein_star
from cdindex.operators import cd_index_operator
from cdindex.poset import (
    build_pyramid,
    chain,
    is_eulerian,
    mobius,
    polygon,
    simplex_fan,
)
from cdindex.recursion import cd_index_stanley
from cdindex.shelling import pi_decomposition, shelling_sum

from conftest import (
    _certify_by_faces,
    acceptance_corpus,
    polygon_minus_facet,
    pyramid_without_apex_star,
    random_graded_poset,
)
from test_operators import (
    SkeletonFunction,
    check_E_commutes_with_pullback,
    eval_cd_monomial,
)


def report(num, name, ok, seconds=None):
    status = "PASS" if ok else "FAIL"
    timing = f"  [{seconds:.2f}s]" if seconds is not None else ""
    print(f"criterion {num:02d} ({name}): {status}{timing}")
    assert ok, f"criterion {num} ({name}) failed"


@lru_cache(maxsize=None)
def three_methods(name):
    p = dict(acceptance_corpus())[name]
    return cd_index_flag(p), cd_index_stanley(p), cd_index_operator(p)


def test_criterion_01_pyramid_reproduction():
    t0 = time.monotonic()
    pyr = build_pyramid(polygon(4))
    expected = CdPolynomial({"ccc": 1, "cd": 3, "dc": 3})
    ok = (
        cd_index_flag(pyr) == expected
        and cd_index_stanley(pyr) == expected
        and cd_index_operator(pyr) == expected
    )
    dt = time.monotonic() - t0
    report(1, "pyramid reproduction", ok and dt < 1.0, dt)


def test_criterion_02_polygon_family():
    t0 = time.monotonic()
    ok = True
    for k in range(3, 13):
        p = polygon(k)
        expected = CdPolynomial({"cc": 1, "d": k - 2})
        ok = ok and (
            cd_index_flag(p) == expected
            and cd_index_stanley(p) == expected
            and cd_index_operator(p) == expected
        )
    dt = time.monotonic() - t0
    report(2, "polygon family", ok and dt < 1.0, dt)


def test_criterion_03_cn_normalization():
    t0 = time.monotonic()
    ok = True
    for name, p in acceptance_corpus():
        flag_ix = three_methods(name)[0]
        ok = ok and flag_ix.coefficient("c" * p.rank) == 1
    dt = time.monotonic() - t0
    report(3, "c^n normalization", ok and dt < 120.0, dt)


def test_criterion_04_three_method_agreement():
    t0 = time.monotonic()
    ok = True
    for name, _ in acceptance_corpus():
        f, s, o = three_methods(name)
        ok = ok and f == s == o
    dt = time.monotonic() - t0
    report(4, "three-method agreement", ok and dt < 300.0, dt)


def test_criterion_05_nonnegativity():
    ok = True
    for name, p in acceptance_corpus():
        for ix in three_methods(name):
            ok = ok and all(
                isinstance(v, int) and v >= 0 for _, v in ix.sorted_terms()
            )
        for word in enumerate_cd_words(p.rank):
            trace = []
            value = eval_cd_monomial(p, word, trace=trace)
            ok = ok and value >= 0
            ok = ok and all(t(p.bottom) >= 0 for t in trace)
    report(5, "non-negativity", ok)


def test_criterion_06_poincare_duality():
    ok = all(verify_duality(p) for _, p in acceptance_corpus())
    report(6, "Poincare duality", ok)


def test_criterion_07_gorenstein_certification():
    t0 = time.monotonic()
    ok = all(bool(is_gorenstein_star(p)) for _, p in acceptance_corpus())
    for r in (1, 2, 3):
        ok = ok and not is_gorenstein_star(chain(r))
    ok = ok and not is_gorenstein_star(polygon_minus_facet(4))
    ok = ok and not is_gorenstein_star(pyramid_without_apex_star())
    dt = time.monotonic() - t0
    report(7, "Gorenstein* certification", ok and dt < 300.0, dt)


def test_certificates_match_face_search():
    # the interval route against the face search, byte for byte

    controls = [chain(r) for r in (1, 2, 3)]
    controls += [polygon_minus_facet(4), pyramid_without_apex_star()]
    for p in [p for _, p in acceptance_corpus()] + controls:
        assert is_gorenstein_star(p).to_json() == _certify_by_faces(p).to_json()


def test_criterion_08_eulerian_gate():
    ok = True
    try:
        to_cd(flag_h(flag_f(chain(2))))
        ok = False
    except NotACdPolynomial:
        pass

    rng = random.Random(8)
    for _ in range(20):
        k = rng.randint(3, 8)
        f = flag_f(polygon(k))
        terms = dict(f.terms)
        s = random.Random(rng.random()).choice(
            [frozenset({1}), frozenset({2}), frozenset({1, 2})]
        )
        terms[s] = terms.get(s, 0) + rng.choice([1, -1])
        perturbed = flag_h(SubsetPolynomial(f.n, terms))
        try:
            to_cd(perturbed)
            ok = False
        except NotACdPolynomial:
            pass

    for _ in range(100):
        p = random_graded_poset(rng)
        via_mobius = all(
            mobius(p, x, y) == (-1) ** (p.degree(y) - p.degree(x))
            for x in p.elements()
            for y in p.up_set(x)
        )
        ok = ok and is_eulerian(p) == via_mobius
    report(8, "Eulerian gate", ok)


def test_criterion_09_pullback_commutation():
    t0 = time.monotonic()
    rng = random.Random(9)
    posets = [polygon(k) for k in range(3, 7)]
    posets.append(build_pyramid(polygon(4)))
    posets.append(simplex_fan(3))
    ok = True
    for p in posets:
        for m in range(p.rank + 1):
            domain = [e for e in p.elements() if p.degree(e) <= m]
            for _ in range(20):
                f = SkeletonFunction(
                    p, m, {e: rng.randint(-9, 9) for e in domain}
                )
                ok = ok and check_E_commutes_with_pullback(p, m, f)
    dt = time.monotonic() - t0
    report(9, "pullback commutation", ok, dt)


def test_criterion_10_shelling_and_pi():
    ok = True
    for k in range(3, 9):
        p = polygon(k)
        order = [f"f{i}" for i in range(1, k + 1)]
        ok = ok and shelling_sum(p, order) == cd_index_flag(p)
    pyr = build_pyramid(polygon(4))
    pi = ["b:f1", "b:f2", "a:r3", "a:r4", "b:f4"]
    ok = ok and pi_decomposition(pyr, pi) == CdPolynomial(
        {"ccc": 1, "cd": 3, "dc": 3}
    )
    report(10, "shelling and Pi formulas", ok)


def test_criterion_11_roundtrip_algebra():
    t0 = time.monotonic()
    rng = random.Random(11)
    ok = True
    for _ in range(200):
        n = rng.randint(0, 8)
        words = enumerate_cd_words(n)
        terms = {w: rng.randint(-9, 9) for w in words}
        if not any(terms.values()):
            terms[words[0]] = 1
        p = CdPolynomial(terms)
        ok = ok and to_cd(phi_expand(p)) == p
    dt = time.monotonic() - t0
    report(11, "round-trip algebra", ok, dt)
