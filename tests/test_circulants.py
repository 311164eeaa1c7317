"""Circulant variable patterns and the pattern factorization search."""

import random

import pytest

from tensorhull.circulants import (
    VarMatrix,
    build_A,
    build_B,
    exists_PQ,
    format_varmatrix,
)
from tensorhull.permutations import (
    Permutation,
    all_permutations,
    enumerate_counterexample_sigmas,
    identity,
    is_counterexample_sigma,
    parse_permutation,
)
from helpers import brute_exists_PQ, is_factorization, random_permutation

# the printed 4x4 patterns for sigma = (3 4)
A4 = ((1, 2, 3, 4), (2, 3, 4, 1), (3, 4, 1, 2), (4, 1, 2, 3))
B4 = ((1, 2, 4, 3), (2, 4, 3, 1), (4, 3, 1, 2), (3, 1, 2, 4))


def test_build_A_printed_case():
    assert build_A(4).entry == A4
    assert build_A(1).entry == ((1,),)
    assert build_A(2).entry == ((1, 2), (2, 1))


def test_build_B_printed_case():
    assert build_B(4, parse_permutation("(3 4)", 4)).entry == B4


def test_build_B_identity_is_A():
    for n in range(1, 6):
        assert build_B(n, identity(n)) == build_A(n)


def test_build_B_rho_rotates_rows():
    b = build_B(4, Permutation((2, 3, 4, 1)))
    assert b.entry[0] == (2, 3, 4, 1)
    a = build_A(4)
    assert b.entry == (a.entry[1], a.entry[2], a.entry[3], a.entry[0])


def test_rows_shift_left():
    rng = random.Random(31)
    for n in (2, 3, 4, 5):
        sigma = random_permutation(rng, n)
        b = build_B(n, sigma)
        for j in range(n - 1):
            assert b.entry[j + 1] == b.entry[j][1:] + b.entry[j][:1]


def test_latin_property():
    # every row and column of the circulants holds each variable once
    rng = random.Random(32)
    for n in (1, 2, 3, 4, 5, 6):
        sigma = random_permutation(rng, n)
        for m in (build_A(n), build_B(n, sigma)):
            for row in m.entry:
                assert sorted(row) == list(range(1, n + 1))
            for col in zip(*m.entry):
                assert sorted(col) == list(range(1, n + 1))


def test_varmatrix_validation():
    with pytest.raises(ValueError):
        VarMatrix([[1, 1], [2, 2]])


def test_exists_PQ_identity_sigma():
    a = build_A(4)
    pair = exists_PQ(a, build_B(4, identity(4)))
    assert pair == (identity(4), identity(4))


def test_exists_PQ_counterexample_absent():
    a = build_A(4)
    b = build_B(4, parse_permutation("(3 4)", 4))
    assert exists_PQ(a, b) is None


def test_exists_PQ_rho_present():
    a = build_A(4)
    b = build_B(4, Permutation((2, 3, 4, 1)))
    pair = exists_PQ(a, b)
    assert pair is not None
    assert is_factorization(a, b, *pair)


def test_exists_PQ_roundtrip():
    rng = random.Random(33)
    for n in (2, 3, 4, 5):
        sigma = random_permutation(rng, n)
        a, b = build_A(n), build_B(n, sigma)
        pair = exists_PQ(a, b)
        if pair is not None:
            assert is_factorization(a, b, *pair)


def test_exists_PQ_matches_brute_force():
    # the pair found is the n!^2 scan's lexicographically least one
    rng = random.Random(34)
    cases = [(build_A(n), build_B(n, sigma))
             for n in (1, 2, 3, 4) for sigma in all_permutations(n)]
    for _ in range(120):
        n = rng.randint(1, 4)
        rows = [random_permutation(rng, n).image for _ in range(n)]
        if n > 1 and rng.random() < 0.5:  # a duplicate row
            rows[rng.randrange(1, n)] = rows[0]
        b = VarMatrix(rows)
        p, q = random_permutation(rng, n), random_permutation(rng, n)
        # a copy of b with rows and columns moved: (p, q) factors it
        copy = VarMatrix([[b.entry[pi - 1][qk - 1] for qk in q.image]
                          for pi in p.image])
        other = VarMatrix([random_permutation(rng, n).image
                           for _ in range(n)])
        cases += [(copy, b), (other, b), (b, copy)]
    found = 0
    for a, b in cases:
        ours = exists_PQ(a, b)
        brute = brute_exists_PQ(a.entry, b.entry)
        assert (None if ours is None
                else (ours[0].image, ours[1].image)) == brute
        found += ours is not None
    assert 0 < found < len(cases)


def test_exists_PQ_with_duplicate_rows():
    # valid VarMatrix rows may repeat; several rows of b then fit one row of a
    a = VarMatrix([[1, 2], [1, 2]])
    b = VarMatrix([[2, 1], [2, 1]])
    pair = exists_PQ(a, b)
    assert pair is not None
    assert is_factorization(a, b, *pair)
    c = VarMatrix([[1, 2], [2, 1]])
    assert exists_PQ(a, c) is None


def test_factorization_absent_iff_admissible():
    # the pattern search classifies sigma exactly like the conjugation filter
    for n in (2, 3, 4, 5):
        for sigma in all_permutations(n):
            absent = exists_PQ(build_A(n), build_B(n, sigma)) is None
            assert absent == is_counterexample_sigma(sigma)


def test_admissible_sigmas_never_factor():
    for n in (4, 5):
        for sigma in enumerate_counterexample_sigmas(n):
            assert exists_PQ(build_A(n), build_B(n, sigma)) is None


def test_text_roundtrip():
    m = build_B(4, parse_permutation("(3 4)", 4))
    size, *rows = format_varmatrix(m).splitlines()
    assert int(size) == 4
    assert VarMatrix(row.split() for row in rows) == m
