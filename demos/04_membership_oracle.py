#!/usr/bin/env python3
"""Decide hull membership two independent ways.

The support certificate searches for Kronecker vertices whose ones all sit
inside the support of T; the LP oracle solves the exact convex-combination
system over all 576 vertex columns and returns a machine-checkable witness
or Farkas certificate.  The two must always agree.
"""

from tensorhull import (
    build_T,
    certify_not_in_psi,
    check_farkas,
    parse_permutation,
    psi_contains,
)
from tensorhull.polytopes import membership_system

n = 4

for label, spec in (("counterexample", "(3 4)"), ("control", "identity")):
    sigma = parse_permutation(spec, n)
    t = build_T(n, sigma)
    print(f"--- {label}: sigma = {spec}")

    outside = certify_not_in_psi(t, n)
    print(f"support certificate says outside the hull: {outside}")

    result = psi_contains(t, n, mode="full")
    print(f"full LP over 576 Kronecker columns: in hull = {result.in_psi}")
    if result.in_psi:
        print("decomposition found:")
        for (p, q), w in sorted(result.weights.items()):
            print(f"  weight {w} on p={p} q={q}")
    else:
        canon, d = membership_system(t, n, result.pairs)
        print(f"Farkas certificate re-checks: {check_farkas(canon, d, result.farkas)}")

    filtered = psi_contains(t, n, mode="support_filtered")
    print(f"support-filtered mode: {filtered.admissible_count} admissible "
          f"columns, in hull = {filtered.in_psi}")
    print()
