#!/usr/bin/env python3
"""Count the permutations that generate counterexamples.

A sigma qualifies when conjugating the full cycle rho by it escapes the
powers of rho; there are exactly n! - n*phi(n) of them, which grows like n!.
"""

from math import factorial

from tensorhull import enumerate_counterexample_sigmas, euler_phi

print("  n   admissible   n! - n*phi(n)")
for n in range(1, 8):
    sigmas = enumerate_counterexample_sigmas(n)
    formula = factorial(n) - n * euler_phi(n)
    flag = "" if len(sigmas) == formula else "   MISMATCH"
    print(f"  {n}   {len(sigmas):10d}   {formula:13d}{flag}")

print("\nthe 16 admissible sigmas at n=4 (image arrays / cycles):")
for sigma in enumerate_counterexample_sigmas(4):
    print(f"  {sigma.image_string()}    {sigma.cycle_string()}")
