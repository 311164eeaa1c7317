"""Permutation algebra and the admissible-sigma enumeration."""

import random
from math import factorial, gcd

import pytest

from tensorhull.permutations import (
    Permutation,
    all_permutations,
    compose,
    conjugate,
    cyclic,
    enumerate_counterexample_sigmas,
    euler_phi,
    identity,
    inverse,
    is_counterexample_sigma,
    parse_permutation,
)
from helpers import brute_is_admissible, random_permutation


def test_cyclic_examples():
    assert cyclic(4).image == (2, 3, 4, 1)
    assert cyclic(1).image == (1,)
    assert cyclic(2).image == (2, 1)
    with pytest.raises(ValueError):
        cyclic(0)


def test_compose_convention():
    a = Permutation((2, 1, 3))
    b = Permutation((3, 2, 1))
    # compose(a, b)(i) = a(b(i))
    assert compose(a, b).image == (3, 1, 2)


def test_conjugate_examples():
    rho = cyclic(4)
    assert conjugate(identity(4), rho) == rho
    swap34 = parse_permutation("(3 4)", 4)
    # relabeling the 4-cycle by (3 4) gives (1 2 4 3), image (2,4,1,3)
    assert conjugate(swap34, rho).image == (2, 4, 1, 3)
    assert conjugate(swap34, rho) == parse_permutation("(1 2 4 3)", 4)


def test_compose_inverse_is_identity():
    rng = random.Random(21)
    for _ in range(30):
        n = rng.randint(1, 8)
        a = random_permutation(rng, n)
        assert compose(a, inverse(a)) == identity(n)
        assert compose(inverse(a), a) == identity(n)


def test_size_mismatch_errors():
    with pytest.raises(ValueError):
        compose(identity(3), identity(4))


def test_is_counterexample_sigma_examples():
    assert is_counterexample_sigma(parse_permutation("(3 4)", 4))
    assert not is_counterexample_sigma(identity(4))
    assert not is_counterexample_sigma(cyclic(4))


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
        swapped = [compose(parse_permutation("(1 2)", n), a) for a in affine]
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


def test_conjugate_of_cycle_is_cycle():
    # sigma rho sigma^-1 is an n-cycle for every sigma, n <= 6
    for n in range(1, 7):
        rho = cyclic(n)
        for sigma in all_permutations(n):
            conj = conjugate(sigma, rho)
            # single cycle of length n
            cycles = conj.cycles()
            assert len(cycles) == 1 and len(cycles[0]) == n


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
            assert (is_counterexample_sigma(sigma)
                    == is_counterexample_sigma(inverse(sigma)))


def test_euler_phi():
    assert euler_phi(1) == 1
    assert euler_phi(4) == 2
    assert euler_phi(6) == 2
    assert euler_phi(12) == 4
    for n in range(1, 60):
        assert euler_phi(n) == sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def test_parse_image_and_cycles():
    assert parse_permutation("2 3 4 1", 4) == cyclic(4)
    assert parse_permutation("(1 2 3 4)", 4) == cyclic(4)
    assert parse_permutation("(3 4)", 4).image == (1, 2, 4, 3)
    assert parse_permutation("(1 2)(3 4)", 4).image == (2, 1, 4, 3)
    assert parse_permutation("identity", 5) == identity(5)
    assert parse_permutation("(1,2)", 3).image == (2, 1, 3)
    assert parse_permutation("(1,2), (3 4)", 4).image == (2, 1, 4, 3)
    assert parse_permutation("(1 2)()(3 4)", 4).image == (2, 1, 4, 3)
    assert parse_permutation(" (1 2 3 4) ", 4) == cyclic(4)


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
