"""Permutation algebra and the admissible-sigma enumeration."""

import random
from math import factorial, gcd

import pytest

from tensorhull.permutations import (
    Permutation,
    all_permutations,
    enumerate_counterexample_sigmas,
    euler_phi,
    identity,
    is_counterexample_sigma,
    parse_permutation,
)
from helpers import brute_is_admissible, random_permutation


def test_is_counterexample_sigma_examples():
    assert is_counterexample_sigma(parse_permutation("(3 4)", 4))
    assert not is_counterexample_sigma(identity(4))
    assert not is_counterexample_sigma(Permutation((2, 3, 4, 1)))


def test_enumeration_counts_match_formula():
    expected = {1: 0, 2: 0, 3: 0, 4: 16, 5: 100, 6: 708}
    for n, count in expected.items():
        sigmas = enumerate_counterexample_sigmas(n)
        assert len(sigmas) == count
        assert len(sigmas) == factorial(n) - n * euler_phi(n)
        # lexicographic order of image arrays
        assert sigmas == sorted(sigmas)


def test_enumeration_matches_brute_oracle():
    for n in (3, 4, 5, 6, 7):
        ours = {s.image for s in enumerate_counterexample_sigmas(n)}
        brute = {img for img in
                 (p.image for p in all_permutations(n))
                 if brute_is_admissible(img)}
        assert ours == brute
    # Past the enumeration, n = 8..12: a seeded sample of S_n (nearly all
    # admissible), every affine map x -> i*x + b of Z_n (none admissible),
    # and each affine map with one transposition applied (all admissible).
    rng = random.Random(23)
    for n in range(8, 13):
        sample = [random_permutation(rng, n) for _ in range(300)]
        affine = [Permutation(((i * x + b) % n) + 1 for x in range(n))
                  for i in range(n) if gcd(i, n) == 1 for b in range(n)]
        assert len(affine) == n * euler_phi(n)
        # (1 2) after a: the values 1 and 2 trade places in a's image
        swapped = [Permutation({1: 2, 2: 1}.get(v, v) for v in a.image)
                   for a in affine]
        for sigma in sample + affine + swapped:
            assert is_counterexample_sigma(sigma) == brute_is_admissible(
                sigma.image)
        assert not any(map(is_counterexample_sigma, affine))
        assert all(map(is_counterexample_sigma, swapped))
    assert len(enumerate_counterexample_sigmas(8)) == 40288
    assert factorial(8) - 8 * euler_phi(8) == 40288


def test_enumeration_cap():
    with pytest.raises(ValueError):
        enumerate_counterexample_sigmas(9)
    with pytest.raises(ValueError):
        enumerate_counterexample_sigmas(5, sn_cap=4)


def test_difference_characterization():
    # Empirical check of the alternative description: sigma is NOT admissible
    # iff sigma(i+1) - sigma(i) is cyclically constant and coprime to n.
    for n in range(1, 7):
        for sigma in all_permutations(n):
            diffs = {(sigma((i % n) + 1) - sigma(i)) % n
                     for i in range(1, n + 1)}
            char = len(diffs) == 1 and gcd(diffs.pop(), n) == 1
            assert char == (not is_counterexample_sigma(sigma))


def test_inversion_symmetry():
    # sigma and sigma^-1 are admissible together, n <= 5.
    for n in range(1, 6):
        for sigma in all_permutations(n):
            # sigma^-1 lists the points in the order of their images
            inverse = Permutation(sorted(range(1, n + 1), key=sigma))
            assert (is_counterexample_sigma(sigma)
                    == is_counterexample_sigma(inverse))


def test_euler_phi():
    assert euler_phi(1) == 1
    assert euler_phi(4) == 2
    assert euler_phi(6) == 2
    assert euler_phi(12) == 4
    for n in range(1, 60):
        assert euler_phi(n) == sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def test_parse_image_and_cycles():
    assert parse_permutation("2 3 4 1", 4) == Permutation((2, 3, 4, 1))
    assert parse_permutation("(1 2 3 4)", 4) == Permutation((2, 3, 4, 1))
    assert parse_permutation("(3 4)", 4).image == (1, 2, 4, 3)
    assert parse_permutation("(1 2)(3 4)", 4).image == (2, 1, 4, 3)
    assert parse_permutation("identity", 5) == identity(5)
    assert parse_permutation("(1,2)", 3).image == (2, 1, 3)
    assert parse_permutation("(1,2), (3 4)", 4).image == (2, 1, 4, 3)
    assert parse_permutation("(1 2)()(3 4)", 4).image == (2, 1, 4, 3)
    assert parse_permutation(" (1 2 3 4) ", 4) == Permutation((2, 3, 4, 1))


def test_parse_errors():
    for bad in ("", "1 2 2", "1 2", "(1 2", "(1 2)(2 3)", "(0 1)", "(1 5)",
                "(1 2) 3", "3(1 2)", "(1 2) 3 4", ")", "((1 2))", "(1 x)",
                "(1 2))", "(1 2)("):
        with pytest.raises(ValueError):
            parse_permutation(bad, 4)


def test_serialization_roundtrip():
    rng = random.Random(22)
    for _ in range(30):
        n = rng.randint(1, 7)
        s = random_permutation(rng, n)
        assert parse_permutation(s.image_string(), n) == s
        assert parse_permutation(s.cycle_string(), n) == s
