"""Constraint system, membership and vertex tests, and the Psi LP oracle."""

import json
import random
from collections import Counter
from fractions import Fraction
from math import factorial
from operator import mul
from pathlib import Path

import pytest

from tensorhull.counterexample import (
    _class_system,
    build_T,
    certify_not_in_psi,
    orbit_psi_contains,
)
from tensorhull.exactmath import (
    RatMatrix,
    SparseMatrix,
    check_farkas,
    lp_feasible,
    rat_rank,
)
from tensorhull.permutations import (
    Permutation,
    all_permutations,
    identity,
    is_counterexample_sigma,
    parse_permutation,
)
from tensorhull.polytopes import (
    TensorIndex,
    admissible_pairs,
    all_pairs,
    build_phi_constraints,
    induced_marginals,
    kron,
    kron_support,
    membership_system,
    phi_contains,
    phi_support_rank,
    psi_contains,
    support_columns,
    weights_reconstruct,
    _canonical_groups,
    _grouped_system,
    _reduced_groups,
    _scaled_rhs,
    _verify_psi_farkas,
)
from helpers import (
    brute_admissible_pairs,
    convex_combination,
    dense,
    dense_check_farkas,
    dense_column_submatrix,
    dense_grouped_system,
    plain_residuals,
    random_doubly_stochastic,
    random_permutation,
    reference_simplex,
    shift_pair,
    supports_verify_psi_farkas,
    tensor_product,
)


GOLDEN = Path(__file__).parent / "golden"


def supports(pairs):
    """The Kronecker supports _grouped_system takes, one per pair."""
    return [kron_support(p, q) for p, q in pairs]


def uniform_matrix(n: int) -> RatMatrix:
    nn = n * n
    v = Fraction(1, nn)
    return RatMatrix(nn, nn, [[v] * nn for _ in range(nn)])


def test_tensor_index_roundtrip():
    ti = TensorIndex(3)
    seen = set()
    for i in range(1, 4):
        for k in range(1, 4):
            for j in range(1, 4):
                for l in range(1, 4):
                    seen.add(ti.var(i, k, j, l))
    assert seen == set(range(81))


def test_row_counts():
    sys2 = build_phi_constraints(2)
    assert sys2.nrows == 24  # 8 global + 4 families of 4
    assert sys2.ncols == 16
    for n in (1, 2, 3, 4):
        sys = build_phi_constraints(n)
        assert sys.nrows == 2 * n * n + 4 * (n - 1) * n * n
        assert len(sys.labels) == sys.nrows


def test_kron_examples():
    n = 3
    assert kron(identity(n), identity(n)) == RatMatrix.identity(n * n)
    rng = random.Random(41)
    for _ in range(10):
        p, q = random_permutation(rng, n), random_permutation(rng, n)
        m = kron(p, q)
        for row in m.data:
            assert sum(row) == 1
        for col in zip(*m.data):
            assert sum(col) == 1
    # n=2, p=q=swap: the unique 1 in row (1,1) sits at column (2,2)
    swap = Permutation((2, 1))
    m = kron(swap, swap)
    ti = TensorIndex(2)
    assert m.data[ti.flat(1, 1)][ti.flat(2, 2)] == 1
    assert sum(m.data[ti.flat(1, 1)]) == 1


def test_kron_size_mismatch():
    with pytest.raises(ValueError):
        kron(identity(2), identity(3))


def test_tensor_vertices_satisfy_all_rows():
    rng = random.Random(42)
    for n in (2, 3, 4, 5):
        sys = build_phi_constraints(n)
        for _ in range(8):
            p, q = random_permutation(rng, n), random_permutation(rng, n)
            assert phi_contains(kron(p, q), sys).ok


def test_tensor_products_satisfy_all_rows():
    rng = random.Random(43)
    for n in (2, 3, 4, 5):
        sys = build_phi_constraints(n)
        for _ in range(5):
            a = random_doubly_stochastic(rng, n)
            b = random_doubly_stochastic(rng, n)
            assert phi_contains(tensor_product(a, b), sys).ok


def test_phi_contains_transfer_and_uniform():
    sys4 = build_phi_constraints(4)
    t = build_T(4, parse_permutation("(3 4)", 4))
    assert phi_contains(t, sys4).ok
    for n in (2, 3, 4):
        assert phi_contains(uniform_matrix(n), build_phi_constraints(n)).ok


def test_phi_contains_reports_violation():
    sys4 = build_phi_constraints(4)
    t = build_T(4, parse_permutation("(3 4)", 4))
    data = [list(row) for row in t.data]
    data[0][0] = Fraction(1, 4) + 1
    bad = RatMatrix(16, 16, data)
    check = phi_contains(bad, sys4)
    assert not check.ok
    assert any(label == "rowsum[1,1]" for label, _ in check.violations)


def test_phi_contains_negative_entry():
    sys2 = build_phi_constraints(2)
    data = [list(row) for row in uniform_matrix(2).data]
    data[0][0] = -data[0][0]
    data[0][1] += Fraction(1, 2)
    check = phi_contains(RatMatrix(4, 4, data), sys2)
    assert not check.ok
    assert (1, 1, 1, 1) in check.negative_entries


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("n", [3, 4])
def test_phi_contains_matches_plain_residuals(n, strict):
    # members perturbed at a few cells by 1/4, 1/6 or 1/10 of either sign,
    # some of which turn negative; both reports must match the Fraction loop
    phi = build_phi_constraints(n, strict)
    rng = random.Random(31 * n + strict)
    nn = n * n
    for _ in range(12):
        base = tensor_product(random_doubly_stochastic(rng, n),
                              random_doubly_stochastic(rng, n))
        data = [list(row) for row in base.data]
        for _ in range(rng.randint(0, 4)):
            step = Fraction(rng.choice([-1, 1]), rng.choice([4, 6, 10]))
            data[rng.randrange(nn)][rng.randrange(nn)] += step
        m = RatMatrix(nn, nn, data)
        expected_violations = [(label, r) for label, r
                               in zip(phi.labels, plain_residuals(phi, m))
                               if r]
        expected_negative = [(rf // n + 1, rf % n + 1, cf // n + 1, cf % n + 1)
                             for rf in range(nn) for cf in range(nn)
                             if data[rf][cf] < 0]
        check = phi_contains(m, phi)
        assert check.violations == expected_violations
        assert check.negative_entries == expected_negative
        assert check.ok == (not expected_violations and not expected_negative)


def test_phi_contains_shape_error():
    with pytest.raises(ValueError):
        phi_contains(RatMatrix.identity(3), build_phi_constraints(2))


def test_vertex_transfer_matrix():
    sys4 = build_phi_constraints(4)
    t = build_T(4, parse_permutation("(3 4)", 4))
    assert phi_contains(t, sys4)
    rank, size = phi_support_rank(t, sys4)
    assert (rank, size) == (64, 64)


def test_vertex_kron_points():
    rng = random.Random(44)
    for n in (2, 3, 4):
        sys = build_phi_constraints(n)
        for _ in range(5):
            p, q = random_permutation(rng, n), random_permutation(rng, n)
            m = kron(p, q)
            assert phi_contains(m, sys)
            rank, size = phi_support_rank(m, sys)
            assert (rank, size) == (n * n, n * n)


def test_vertex_uniform_false():
    sys2 = build_phi_constraints(2)
    assert phi_contains(uniform_matrix(2), sys2)
    rank, size = phi_support_rank(uniform_matrix(2), sys2)
    assert rank < size


# The 4x4 identity with its first column repeated: row 0 sums to 2.
NOT_IN_PHI_2 = RatMatrix.from_rows([[1, 1, 0, 0], [0, 0, 1, 0],
                                    [0, 0, 0, 1], [0, 0, 0, 0]])


def test_vertex_requires_membership():
    # vertexhood is undefined off Phi, so the rank is read only after the
    # membership test, which rejects this matrix on its row sums
    check = phi_contains(NOT_IN_PHI_2, build_phi_constraints(2))
    assert not check
    assert ("rowsum[1,1]", 1) in check.violations


def test_vertex_via_public_columns_independent():
    # same verdict through the package exports: the support columns of the
    # constraint matrix are independent
    import tensorhull

    sys4 = tensorhull.build_phi_constraints(4)
    t = tensorhull.build_T(4, tensorhull.parse_permutation("(3 4)", 4))
    supp = support_columns(t)
    assert tensorhull.rat_rank(sys4.column_submatrix(supp)) == len(supp)
    assert not hasattr(tensorhull, "columns_independent")


def test_support_rank_derived_case():
    # the 224 x 64 support submatrix has full column rank; confirmed by the
    # independent textbook elimination as well as the fraction-free one
    from helpers import plain_rank

    sys4 = build_phi_constraints(4)
    t = build_T(4, parse_permutation("(3 4)", 4))
    sub = sys4.column_submatrix(support_columns(t))
    assert (sub.rows, sub.cols) == (224, 64)
    assert rat_rank(sub) == 64
    assert plain_rank(sub) == 64


@pytest.fixture(scope="module")
def phi6():
    return build_phi_constraints(6)


@pytest.mark.parametrize("cycles, rank", [
    ("(1 5)(2 6)", 215),
    ("(3 6)", 214),
    ("(5 6)", 216),
])
def test_support_rank_n6(phi6, cycles, rank):
    # 792 x 216 support submatrices; the deficient ranks (T is then not a
    # vertex) match the plain_rank cross-check in perfbench/refs/verify_n6.json
    t = build_T(6, parse_permutation(cycles, 6))
    assert phi_contains(t, phi6)
    assert phi_support_rank(t, phi6) == (rank, 216)


def test_support_rank_n6_matches_plain_elimination_refs(phi6):
    # perfbench/refs/verify_n6.json holds each admissible sigma's support
    # rank by plain rational elimination: every rank-deficient sigma and a
    # seeded sample of the full-rank ones
    refs = json.loads((Path(__file__).parent.parent / "perfbench" / "refs"
                       / "verify_n6.json").read_text())["entries"]
    deficient = [e for e in refs if e["support_rank"] < e["support_size"]]
    full = [e for e in refs if e["support_rank"] == e["support_size"]]
    assert len(deficient) == 96
    for entry in deficient + random.Random(61).sample(full, 24):
        t = build_T(6, Permutation(entry["image"]))
        assert phi_support_rank(t, phi6) == (entry["support_rank"],
                                             entry["support_size"])


def test_induced_marginals_examples():
    rng = random.Random(45)
    n = 3
    p, q = random_permutation(rng, n), random_permutation(rng, n)
    alpha, beta = induced_marginals(kron(p, q), n)
    pm = RatMatrix.zeros(n, n)
    qm = RatMatrix.zeros(n, n)
    for i in range(1, n + 1):
        pm.data[i - 1][p(i) - 1] = Fraction(1)
        qm.data[i - 1][q(i) - 1] = Fraction(1)
    assert alpha == pm and beta == qm

    a = random_doubly_stochastic(rng, n)
    b = random_doubly_stochastic(rng, n)
    alpha, beta = induced_marginals(tensor_product(a, b), n)
    assert alpha == a and beta == b

    t = build_T(4, parse_permutation("(3 4)", 4))
    alpha, beta = induced_marginals(t, 4)
    quarter = RatMatrix(4, 4, [[Fraction(1, 4)] * 4 for _ in range(4)])
    assert alpha == quarter and beta == quarter


def test_induced_marginals_doubly_stochastic():
    rng = random.Random(46)
    for n in (2, 3, 4):
        for _ in range(4):
            mats = [tensor_product(random_doubly_stochastic(rng, n),
                                   random_doubly_stochastic(rng, n))
                    for _ in range(2)]
            c = convex_combination(mats, [Fraction(1, 2), Fraction(1, 2)])
            alpha, beta = induced_marginals(c, n)
            for m in (alpha, beta):
                for row in m.data:
                    assert sum(row) == 1
                for col in zip(*m.data):
                    assert sum(col) == 1


def test_induced_marginals_requires_membership():
    with pytest.raises(ValueError):
        induced_marginals(NOT_IN_PHI_2, 2)


def test_psi_contains_kron_itself():
    for n in (2, 3):
        rng = random.Random(47 + n)
        p, q = random_permutation(rng, n), random_permutation(rng, n)
        res = psi_contains(kron(p, q), n)
        assert res.in_psi
        assert res.weights == {(p.image, q.image): Fraction(1)}


def test_psi_control_case_shift_decomposition():
    # independent oracle: weight 1/4 on the four shift pairs rebuilds T
    n = 4
    t = build_T(n, identity(n))
    mats = [kron(*shift_pair(n, m)) for m in range(n)]
    recon = convex_combination(mats, [Fraction(1, n)] * n)
    assert recon == t
    # and the LP agrees, with an exactly verified witness
    res = psi_contains(t, n, mode="support_filtered")
    assert res.in_psi
    assert res.admissible_count == 4
    assert sum(res.weights.values()) == 1
    assert weights_reconstruct(res.weights, n) == t
    expected = {(p.image, q.image): Fraction(1, n)
                for p, q in (shift_pair(n, m) for m in range(n))}
    assert res.weights == expected


def test_psi_counterexample_both_modes():
    n = 4
    t = build_T(n, parse_permutation("(3 4)", 4))
    filtered = psi_contains(t, n, mode="support_filtered")
    assert not filtered.in_psi
    assert filtered.admissible_count == 0
    canon, d = membership_system(t, n, filtered.pairs)
    assert check_farkas(canon, d, filtered.farkas)

    full = psi_contains(t, n, mode="full")
    assert not full.in_psi
    assert len(full.pairs) == 576
    canon, d = membership_system(t, n, full.pairs)
    assert (canon.rows, canon.cols) == (257, 576)
    assert check_farkas(canon, d, full.farkas)


def test_psi_full_n4_all_sigmas_matches_golden_bytes():
    # The full-mode LP for T of every sigma in S_4 (8 witnesses, 16 Farkas
    # vectors), recorded from the dense fraction-free tableau: the revised
    # simplex must take the same pivots and so return the same vectors.
    entries = []
    for sigma in all_permutations(4):
        res = psi_contains(build_T(4, sigma), 4, mode="full")
        entry = {"sigma": list(sigma.image), "in_psi": res.in_psi}
        if res.in_psi:
            entry["weights"] = [{"p": list(p), "q": list(q), "weight": str(w)}
                                for (p, q), w in sorted(res.weights.items())]
        else:
            entry["farkas"] = [str(v) for v in res.farkas]
        entries.append(json.dumps(entry))
    text = "[\n" + ",\n".join(entries) + "\n]\n"
    assert text == (GOLDEN / "psi_full_n4_all_sigmas.json").read_text()


def test_psi_full_n5_farkas_matches_golden_bytes():
    # At n=5 the row scale factors and the ratio-test ties differ from n=4;
    # the certificate was recorded from the revised simplex that divided
    # every updated row by its gcd.
    sigma = parse_permutation("(4 5)", 5)
    res = psi_contains(build_T(5, sigma), 5, mode="full", allow_large=True)
    entry = {"sigma": list(sigma.image), "in_psi": res.in_psi,
             "farkas": [str(v) for v in res.farkas]}
    text = json.dumps(entry) + "\n"
    assert text == (GOLDEN / "psi_full_n5_s45.json").read_text()


@pytest.mark.parametrize("n, cells, columns", [(4, 16, 34), (5, 25, 351)])
def test_class_system_sizes(n, cells, columns):
    groups, members, system = _class_system(n)
    assert (len(groups), len(members)) == (cells + 1, columns)
    assert (system.rows, system.cols) == (cells + 1, columns)
    # the classes partition the cells, n^2 each; the sum-to-1 row comes last
    assert groups[-1] == (n ** 4,)
    assert sorted(v for group in groups[:-1] for v in group) == list(
        range(n ** 4))
    assert {len(group) for group in groups[:-1]} == {n * n}
    for group in groups[:-1]:  # ((i,k),(j,l)) -> (i+k, j+l) mod n
        assert len({(sum(divmod(v // n ** 2, n)) % n,
                     sum(divmod(v % n ** 2, n)) % n) for v in group}) == 1
    # the columns partition all n!^2 pairs, each in all_pairs order
    assert sorted(j for column in members for j in column) == list(
        range(factorial(n) ** 2))
    assert all(list(column) == sorted(column) for column in members)
    assert system.data[-1] == dict.fromkeys(range(columns), 1)


def test_class_system_counts_every_member():
    # Every member of column j has, in each class, as many kron_support
    # cells as column j's coefficient, and no two columns are equal.
    for n in (3, 4):
        groups, members, system = _class_system(n)
        cls = {v: r for r, group in enumerate(groups[:-1]) for v in group}
        pairs = all_pairs(n)
        profiles = set()
        for j, column in enumerate(members):
            profile = {r: row[j] for r, row in enumerate(system.data[:-1])
                       if j in row}
            for m in column:
                assert Counter(cls[v] for v in kron_support(*pairs[m])) == (
                    profile)
            profiles.add(tuple(sorted(profile.items())))
        assert len(profiles) == len(members)


def orbit_cases():
    """(n, T) for all of S_4, for (4 5) at n = 5, and for the affine
    x -> 2x - 1 at n = 5, a feasible control."""
    cases = [(4, build_T(4, sigma)) for sigma in all_permutations(4)]
    cases.append((5, build_T(5, parse_permutation("(4 5)", 5))))
    cases.append((5, build_T(5, Permutation((1, 3, 5, 2, 4)))))
    return cases


def spy_full_mode(monkeypatch):
    """Record every call into psi_contains from the class LP's module."""
    from tensorhull import counterexample

    calls = []

    def spy(c, n, **kwargs):
        calls.append(kwargs)
        return psi_contains(c, n, **kwargs)

    monkeypatch.setattr(counterexample, "psi_contains", spy)
    return calls


def test_orbit_psi_matches_full_mode(monkeypatch):
    # T is constant on the cell classes, so no case falls back; each verdict
    # matches the full-mode LP, and each lifted answer holds on the
    # canonical system over all n!^2 pairs.
    calls = spy_full_mode(monkeypatch)
    verdicts = []
    for n, t in orbit_cases():
        res = orbit_psi_contains(t, n)
        full = psi_contains(t, n, mode="full", allow_large=True)
        assert res.in_psi == full.in_psi
        assert res.mode == "full" and len(res.pairs) == factorial(n) ** 2
        if res.in_psi:
            assert all(w > 0 for w in res.weights.values())
            assert sum(res.weights.values()) == 1
            assert weights_reconstruct(res.weights, n) == t
        else:
            assert check_farkas(*membership_system(t, n, res.pairs),
                                res.farkas)
        verdicts.append(res.in_psi)
    assert verdicts.count(True) == 9  # 8 of S_4 and the n = 5 control
    assert calls == []


def test_class_farkas_lift_matches_columns():
    # The lifted y puts y_R on every cell of class R, so C'y at every
    # member of column j is column j times the class LP's Farkas vector,
    # with no division, and d'y is the class LP's d'y.
    for n, t in orbit_cases():
        res = orbit_psi_contains(t, n)
        if res.in_psi:
            continue
        groups, members, system = _class_system(n)
        cells = [v for row in t.data for v in row] + [1]
        d = [sum(cells[v] for v in group) for group in groups]
        y_class = lp_feasible(system, d).farkas
        y = res.farkas
        for r, group in enumerate(groups):
            assert {y[v] for v in group} == {y_class[r]}
        for j, column in enumerate(members):
            cty = sum(row.get(j, 0) * yr
                      for row, yr in zip(system.data, y_class))
            for m in column:
                assert sum(y[v] for v in kron_support(*res.pairs[m])) + (
                    y[-1]) == cty
        assert sum(map(mul, cells, y)) == sum(map(mul, d, y_class)) < 0


def test_class_psi_n5_all_sigmas(monkeypatch):
    # All 120 sigmas of S_5 on the class LP, whose 351 columns merge five
    # pairs of the 356 pair orbits: each verdict is the support
    # certificate's, the 20 affine sigmas get a witness that rebuilds T,
    # and none falls back.
    calls = spy_full_mode(monkeypatch)
    feasible = 0
    for sigma in all_permutations(5):
        t = build_T(5, sigma)
        res = orbit_psi_contains(t, 5)
        assert res.in_psi == (not certify_not_in_psi(t, 5))
        assert res.in_psi == (not is_counterexample_sigma(sigma))
        if res.in_psi:
            assert weights_reconstruct(res.weights, 5) == t
            feasible += 1
    assert feasible == 20
    assert calls == []


def test_verify_psi_farkas_matches_support_oracle():
    # The per-p re-check against the column-by-column oracle, on all pairs,
    # a support-filtered list and no pairs, for certificates, copies lowered
    # at a cell of a tight column, and copies whose y_0 makes d'y >= 0.
    n = 4
    t = build_T(n, parse_permutation("(3 4)", n))
    mix = convex_combination(
        [t, kron(identity(n), identity(n)),
         kron(Permutation((2, 1, 4, 3)), Permutation((3, 4, 1, 2)))],
        [Fraction(1, 3)] * 3)
    filtered = psi_contains(mix, n)
    assert not filtered.in_psi and len(filtered.pairs) == 2
    lists = [all_pairs(n), filtered.pairs, []]
    seen = Counter()
    for c, res in ((t, orbit_psi_contains(t, n)), (mix, filtered)):
        rhs = _scaled_rhs(c)[1]
        y = res.farkas
        tight = [support for support in map(kron_support, *zip(*res.pairs))
                 if y[-1] + sum(y[v] for v in support) == 0]
        assert tight
        variants = [y, [*y[:-1], y[-1] + 100]]
        for support in tight[:3]:
            low = list(y)
            low[support[-1]] -= Fraction(1, 1000)
            variants.append(low)
        for pairs in lists:
            supports = [kron_support(p, q) for p, q in pairs]
            for v in variants:
                got = _verify_psi_farkas(rhs, n, pairs, v)
                assert got == supports_verify_psi_farkas(rhs, n, supports, v)
                seen[got] += 1
    assert seen[True] and seen[False]


def test_orbit_psi_lifted_farkas_passes_dense_oracle():
    # The dense Fraction oracle sums every column of the 257 x 576
    # canonical system; the certificates are also those the simplex found
    # on the class LP, not full mode's golden ones.
    checked = 0
    for n, t in orbit_cases()[:24]:
        res = orbit_psi_contains(t, n)
        if res.in_psi:
            continue
        canon, d = dense_grouped_system(*_scaled_rhs(t), n, res.pairs,
                                        _canonical_groups(n))
        assert (canon.rows, canon.cols) == (257, 576)
        assert dense_check_farkas(canon, d, res.farkas)
        checked += 1
    assert checked == 16


def test_orbit_psi_non_invariant_input_falls_back(monkeypatch):
    # T for (3 4) with 1/8 moved from a one of T to a zero of T: the matrix
    # is no longer constant on the cell classes.
    t = build_T(4, parse_permutation("(3 4)", 4))
    data = [list(row) for row in t.data]
    data[0][0], data[0][1] = data[0][0] - Fraction(1, 8), Fraction(1, 8)
    assert t.data[0][0] == Fraction(1, 4) and t.data[0][1] == 0
    c = RatMatrix(16, 16, data)
    calls = spy_full_mode(monkeypatch)
    res = orbit_psi_contains(c, 4)
    assert calls == [{"mode": "full", "allow_large": True}]
    full = psi_contains(c, 4, mode="full")
    assert (res.in_psi, res.farkas, res.weights) == (
        full.in_psi, full.farkas, full.weights)


@pytest.mark.parametrize("recheck, sigma", [
    ("_verify_psi_farkas", "(3 4)"),
    ("weights_reconstruct", "()"),
])
def test_orbit_psi_failed_recheck_falls_back(monkeypatch, recheck, sigma):
    # The class LP's re-check fails; full mode then decides with its own
    # re-checks, which run the real function.
    from tensorhull import counterexample

    seen = []
    t = build_T(4, parse_permutation(sigma, 4))
    want = psi_contains(t, 4, mode="full")
    calls = spy_full_mode(monkeypatch)
    monkeypatch.setattr(counterexample, recheck,
                        lambda *args: seen.append(recheck))
    res = orbit_psi_contains(t, 4)
    assert calls == [{"mode": "full", "allow_large": True}]
    assert seen == [recheck]
    assert (res.in_psi, res.farkas, res.weights) == (
        want.in_psi, want.farkas, want.weights)


def vertex_mix(rng, n: int, k: int) -> RatMatrix:
    """Convex combination of k random Kronecker vertices."""
    raw = [rng.randint(1, 9) for _ in range(k)]
    mats = [kron(random_permutation(rng, n), random_permutation(rng, n))
            for _ in range(k)]
    return convex_combination(mats, [Fraction(w, sum(raw)) for w in raw])


def span_perturbed(rng, n: int) -> RatMatrix:
    """A 2-vertex mix with mass moved between two entries ((i,k),(j,l)) with
    n in {i, j} and n in {k, l}: the reduced rows read those entries only
    through the total, so only the canonical system can reject it."""
    m = vertex_mix(rng, n, 2)
    cells = [(n * i + k, n * j + l)
             for i in range(n) for k in range(n)
             for j in range(n) for l in range(n)
             if n - 1 in (i, j) and n - 1 in (k, l)]
    src = rng.choice([rc for rc in cells if m.data[rc[0]][rc[1]]])
    dst = rng.choice([rc for rc in cells if rc != src])
    eps = m.data[src[0]][src[1]] / 2
    m.data[src[0]][src[1]] -= eps
    m.data[dst[0]][dst[1]] += eps
    return m


def test_psi_modes_agree():
    # (n, matrix, expected verdict or None when only agreement is checked)
    cases = [(3, build_T(3, sigma), None) for sigma in all_permutations(3)]
    cases.append((2, uniform_matrix(2), True))
    rng = random.Random(48)
    cases.append((3, kron(random_permutation(rng, 3),
                          random_permutation(rng, 3)), True))
    cases.append((4, build_T(4, identity(4)), True))
    for n in (3, 4):
        rng = random.Random(70 + n)
        cases.append((n, vertex_mix(rng, n, 2), True))
        cases.append((n, vertex_mix(rng, n, 3), True))
    rng = random.Random(75)
    for spec in ("(3 4)", "(1 2 4)"):
        t = build_T(4, parse_permutation(spec, 4))
        p, q = random_permutation(rng, 4), random_permutation(rng, 4)
        mix = convex_combination([t, kron(p, q)], [Fraction(1, 2)] * 2)
        # Only p (x) q fits inside the support, and the mix is not p (x) q.
        assert [(a.image, b.image) for a, b in admissible_pairs(mix, 4)] \
            == [(p.image, q.image)]
        cases.append((4, mix, False))
    perturbed = []
    for n in (3, 4):
        m = span_perturbed(random.Random(80 + n), n)
        perturbed.append(m)
        cases.append((n, m, False))
    for n, c, expected in cases:
        a = psi_contains(c, n, mode="support_filtered")
        b = psi_contains(c, n, mode="full")
        assert a.in_psi == b.in_psi
        if expected is not None:
            assert a.in_psi == expected
        for res in (a, b):
            if res.in_psi:
                assert sum(res.weights.values()) == 1
                assert weights_reconstruct(res.weights, n) == c
            else:
                assert check_farkas(*membership_system(c, n, res.pairs),
                                    res.farkas)
    # The perturbed inputs satisfy every reduced row: the verdict above came
    # from the canonical system.
    for n, m in zip((3, 4), perturbed):
        reduced = _grouped_system(*_scaled_rhs(m), n, supports(all_pairs(n)),
                                  _reduced_groups(n))
        assert lp_feasible(*reduced).feasible


@pytest.mark.parametrize("n", [2, 3, 4])
def test_reduced_rows_span_the_canonical_system(n):
    pairs = all_pairs(n)
    c = vertex_mix(random.Random(90 + n), n, 2)
    reduced, d_reduced = _grouped_system(*_scaled_rhs(c), n, supports(pairs),
                                          _reduced_groups(n))
    canon, d_canon = membership_system(c, n, pairs)
    assert rat_rank(reduced) == rat_rank(canon) == ((n - 1) ** 2 + 1) ** 2
    reduced, canon = dense(reduced), dense(canon)
    # The canonical columns are the flattened vertices with a 1 appended.
    for column, (p, q) in zip(zip(*canon.data), pairs):
        assert list(column) == [v for row in kron(p, q).data for v in row] + [1]
    assert d_canon == [v for row in c.data for v in row] + [1]
    # Each reduced row and its rhs are the sums over their group.
    for row, rhs, group in zip(reduced.data, d_reduced, _reduced_groups(n)):
        assert row == [sum(col) for col in
                       zip(*(canon.data[v] for v in group))]
        assert rhs == sum(d_canon[v] for v in group)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_grouped_system_matches_dense_oracle(n):
    # The sparse rows hold exactly the nonzeros of the dense rows, for both
    # tables, over all pairs and over the support-filtered pairs of a T, a
    # vertex mix and a span-perturbed mix.
    rng = random.Random(95 + n)
    mats = [build_T(n, random_permutation(rng, n)), vertex_mix(rng, n, 2),
            span_perturbed(rng, n)]
    cases = [(mats[1], all_pairs(n))]
    cases += [(c, admissible_pairs(c, n)) for c in mats]
    assert min(len(pairs) for _, pairs in cases) < len(cases[0][1])
    for c, pairs in cases:
        for groups in (_reduced_groups(n), _canonical_groups(n)):
            args = (*_scaled_rhs(c), n)
            got, d = _grouped_system(*args, supports(pairs), groups)
            want, d_want = dense_grouped_system(*args, pairs, groups)
            assert (got.rows, got.cols) == (want.rows, want.cols)
            assert got.data == [{j: v for j, v in enumerate(row) if v}
                                for row in want.data]
            assert d == d_want


def test_psi_lp_pivots_match_reference_tableau():
    # Seeded Psi systems, reduced and canonical, over the support-filtered
    # pairs and (at n=3, and for one n=4 matrix) over all pairs: the revised
    # simplex must return the dense tableau's witness or Farkas vector.
    rng = random.Random(2026)
    systems = []
    for n in (3, 4):
        mats = [build_T(n, random_permutation(rng, n)), vertex_mix(rng, n, 2),
                vertex_mix(rng, n, 3), span_perturbed(rng, n)]
        for k, c in enumerate(mats):
            pair_sets = [admissible_pairs(c, n)]
            if n == 3 or k == 1:
                pair_sets.append(all_pairs(n))
            for pairs in pair_sets:
                for groups in (_reduced_groups(n), _canonical_groups(n)):
                    systems.append(_grouped_system(
                        *_scaled_rhs(c), n, supports(pairs), groups))
    seen = set()
    for c, d in systems:
        res = lp_feasible(c, d)
        out = res.witness if res.feasible else res.farkas
        assert (res.status, out) == reference_simplex(dense(c), d)
        seen.add(res.status)
    assert len(seen) == 2


def test_psi_matches_direct_canonical_lp():
    # the reduced solve agrees with lp_feasible on the untouched system
    for n in (2, 3):
        for sigma in all_permutations(n):
            t = build_T(n, sigma)
            pairs = all_pairs(n)
            canon, d = membership_system(t, n, pairs)
            direct = lp_feasible(canon, d)
            res = psi_contains(t, n, mode="full")
            assert direct.feasible == res.in_psi


def test_lp_feasible_on_control_membership_system():
    # the n=4 control system, solved by the raw simplex over the four
    # admissible columns
    n = 4
    t = build_T(n, identity(n))
    pairs = admissible_pairs(t, n)
    canon, d = membership_system(t, n, pairs)
    direct = lp_feasible(canon, d)
    assert direct.feasible
    assert sum(direct.witness) == 1


def test_psi_uniform_small():
    n = 2
    res = psi_contains(uniform_matrix(n), n)
    assert res.in_psi
    assert res.admissible_count == 4
    assert weights_reconstruct(res.weights, n) == uniform_matrix(n)


def test_psi_uniform_shift_grid_oracle():
    # 16-term decomposition of the uniform matrix at n=4: all shift pairs
    n = 4
    pairs = [(Permutation([(i - 1 + a) % n + 1 for i in range(1, n + 1)]),
              Permutation([(k - 1 + b) % n + 1 for k in range(1, n + 1)]))
             for a in range(n) for b in range(n)]
    recon = convex_combination([kron(p, q) for p, q in pairs],
                               [Fraction(1, 16)] * 16)
    assert recon == uniform_matrix(n)


def test_psi_outside_span_falls_back():
    # reduced equations hold but the canonical system is inconsistent
    n = 2
    data = [[Fraction(1, 4)] * 4 for _ in range(4)]
    data[1][2] += Fraction(1, 8)
    data[2][1] -= Fraction(1, 8)
    m = RatMatrix(4, 4, data)
    res = psi_contains(m, n, mode="full")
    assert not res.in_psi
    canon, d = membership_system(m, n, res.pairs)
    assert check_farkas(canon, d, res.farkas)


def test_psi_rejects_bad_input():
    with pytest.raises(ValueError):
        psi_contains(RatMatrix.identity(3), 2)
    neg = RatMatrix.from_rows([[-1, 1, 0, 1], [1, 0, 1, 0],
                               [0, 1, 0, 1], [1, 0, 1, 0]])
    with pytest.raises(ValueError):
        psi_contains(neg, 2)
    with pytest.raises(ValueError):
        psi_contains(uniform_matrix(5), 5, mode="full")
    with pytest.raises(ValueError):
        psi_contains(uniform_matrix(2), 2, mode="nonsense")
    # The class LP refuses the same inputs; -T is constant on the classes.
    with pytest.raises(ValueError, match="16 x 16"):
        orbit_psi_contains(RatMatrix.identity(3), 4)
    t = build_T(4, parse_permutation("(3 4)", 4))
    minus_t = RatMatrix(16, 16, [[-v for v in row] for row in t.data])
    with pytest.raises(ValueError, match="negative entries"):
        orbit_psi_contains(minus_t, 4)


def test_psi_lp_size_cap(monkeypatch):
    from tensorhull import counterexample, polytopes

    # The full n = 5 system (626 x 14,400) is the largest LP allowed.
    polytopes.check_lp_size(5, 14400)
    with pytest.raises(ValueError, match="626 x 14401"):
        polytopes.check_lp_size(5, 14401)

    def refuse(*args):
        raise AssertionError("Psi LP built above the size cap")

    monkeypatch.setattr(polytopes, "all_pairs", refuse)
    monkeypatch.setattr(polytopes, "_grouped_system", refuse)
    monkeypatch.setattr(counterexample, "_class_system", refuse)
    with pytest.raises(ValueError, match="1297 x 518400"):
        psi_contains(uniform_matrix(6), 6, mode="full", allow_large=True)
    with pytest.raises(ValueError, match="1297 x 518400"):
        orbit_psi_contains(build_T(6, parse_permutation("(5 6)", 6)), 6)
    # A support-filtered LP over as many pairs is refused the same way
    # (1297 x 6951 entries is one column over the cap).
    monkeypatch.setattr(polytopes, "admissible_pairs",
                        lambda c, n: [None] * 6951)
    with pytest.raises(ValueError, match="1297 x 6951"):
        psi_contains(uniform_matrix(6), 6)


def test_support_filtered_size_cap_counts_before_listing(monkeypatch):
    # On the uniform matrix at n = 6 all 518,400 pairs are admissible: the
    # search must count them and refuse before it builds the permutations.
    from tensorhull import polytopes

    built = []

    def counted(image):
        built.append(image)
        if len(built) > 1000:
            raise AssertionError("listed the pairs before the size check")
        return Permutation(image)

    monkeypatch.setattr(polytopes, "Permutation", counted)
    with pytest.raises(ValueError, match="1297 x 518400"):
        psi_contains(uniform_matrix(6), 6)
    with pytest.raises(ValueError, match="1297 x 518400"):
        admissible_pairs(uniform_matrix(6), 6)
    # Below the cap the count that is checked is the length of the list.
    monkeypatch.undo()
    checked = []
    monkeypatch.setattr(polytopes, "check_lp_size",
                        lambda n, cols: checked.append(cols))
    rng = random.Random(31)
    cases = [(3, uniform_matrix(3)), (4, vertex_mix(rng, 4, 3)),
             (4, build_T(4, identity(4))), (4, uniform_matrix(4))]
    # Random supports, where a q can run out of columns at its last value.
    for n in (3, 4) * 10:
        cases.append((n, RatMatrix.from_rows(
            [[int(rng.random() < 0.75) for _ in range(n * n)]
             for _ in range(n * n)])))
    for n, c in cases:
        pairs = admissible_pairs(c, n)
        assert checked[-1] == len(pairs) == len(brute_admissible_pairs(c, n))
    assert len(checked) == len(cases)  # one count per search


def test_admissible_pairs_and_support():
    n = 4
    t = build_T(n, identity(n))
    pairs = admissible_pairs(t, n)
    assert len(pairs) == 4
    supp = set(support_columns(t))
    for p, q in pairs:
        assert set(kron_support(p, q)) <= supp


def test_admissible_pairs_match_brute_scan():
    # The pruned search must return the n!^2 scan's list: the same pairs in
    # the same order.
    rng = random.Random(2027)
    cases = [(n, build_T(n, s)) for n in (3, 4) for s in all_permutations(n)]
    cases += [(5, build_T(5, s))
              for s in rng.sample(list(all_permutations(5)), 12)]
    for n in (3, 4):
        cases += [(n, vertex_mix(rng, n, 2)), (n, vertex_mix(rng, n, 3)),
                  (n, span_perturbed(rng, n))]
    for spec in ("(3 4)", "(1 2 4)"):
        t = build_T(4, parse_permutation(spec, 4))
        p, q = random_permutation(rng, 4), random_permutation(rng, 4)
        cases.append((4, convex_combination([t, kron(p, q)],
                                            [Fraction(1, 2)] * 2)))
    for n in (3, 4, 5):
        nn = n * n
        for density in (0.6, 0.8, 0.9, 0.97):
            cases.append((n, RatMatrix(nn, nn, [
                [int(rng.random() < density) for _ in range(nn)]
                for _ in range(nn)])))
    cases += [(n, uniform_matrix(n)) for n in (1, 2, 3, 4)]
    key = lambda pairs: [(p.image, q.image) for p, q in pairs]
    found = 0
    for n, c in cases:
        pairs = key(admissible_pairs(c, n))
        assert pairs == key(brute_admissible_pairs(c, n))
        found += bool(pairs)
    assert 0 < found < len(cases)


def test_admissible_pairs_rejects_wrong_shape():
    with pytest.raises(ValueError):
        admissible_pairs(uniform_matrix(2), 3)
    with pytest.raises(ValueError):
        admissible_pairs(RatMatrix.zeros(4, 5), 2)


def test_strict_families_variant():
    for n in (2, 3, 4):
        default = build_phi_constraints(n)
        strict = build_phi_constraints(n, strict_families=True)
        assert default.nrows == strict.nrows
        rng = random.Random(49 + n)
        members = [kron(random_permutation(rng, n), random_permutation(rng, n)),
                   tensor_product(random_doubly_stochastic(rng, n),
                                  random_doubly_stochastic(rng, n)),
                   uniform_matrix(n)]
        if n == 4:
            members.append(build_T(4, parse_permutation("(3 4)", 4)))
        for m in members:
            assert phi_contains(m, default).ok == phi_contains(m, strict).ok


@pytest.mark.parametrize("n, rank", [(2, 13), (3, 57), (4, 157), (5, 337)])
def test_family_readings_define_the_same_affine_space(n, rank):
    # the augmented rows [C | d] of either reading add no rank to the other's,
    # so both have the same solutions and every membership verdict agrees
    def augmented(sys):
        return [{**row, sys.ncols: rhs} if rhs else row
                for row, rhs in zip(sys.rows, sys.d)]

    default = augmented(build_phi_constraints(n))
    strict = augmented(build_phi_constraints(n, strict_families=True))
    cols = n ** 4 + 1
    assert rat_rank(SparseMatrix(len(default), cols, default)) == rank
    assert rat_rank(SparseMatrix(len(strict), cols, strict)) == rank
    both = default + strict
    assert rat_rank(SparseMatrix(len(both), cols, both)) == rank


def test_implied_equality_rows():
    # the omitted family-2 i=1 rows and family-4 k=1 rows are implied
    for n in (2, 3, 4, 5):
        sys = build_phi_constraints(n)
        ti = TensorIndex(n)
        rng = range(1, n + 1)
        extra = []
        for k in rng:
            for l in rng:
                row: dict[int, int] = {}
                for j in rng:
                    row[ti.var(j, k, 1, l)] = row.get(ti.var(j, k, 1, l), 0) + 1
                    row[ti.var(1, k, j, l)] = row.get(ti.var(1, k, j, l), 0) - 1
                extra.append({c: v for c, v in row.items() if v})
        for i in rng:
            for j in rng:
                row = {}
                for l in rng:
                    row[ti.var(i, l, j, 1)] = row.get(ti.var(i, l, j, 1), 0) + 1
                    row[ti.var(i, 1, j, l)] = row.get(ti.var(i, 1, j, l), 0) - 1
                extra.append({c: v for c, v in row.items() if v})
        base = sys.column_submatrix(range(sys.ncols))
        combined = SparseMatrix(base.rows + len(extra), sys.ncols,
                                base.data + extra)
        assert rat_rank(combined) == rat_rank(base)


def test_dense_matrix_matches_sparse_rows():
    sys2 = build_phi_constraints(2)
    full = dense(sys2.column_submatrix(range(sys2.ncols)))
    for r, row in enumerate(sys2.rows):
        for c in range(sys2.ncols):
            assert full.data[r][c] == row.get(c, 0)


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_column_submatrix_matches_dense_oracle(n, strict):
    # the sparse rows restricted to T's support, column cols[j] renumbered
    # j, are the dense oracle's rows with the zeros left out; so are those
    # of an unsorted column list and of the empty one
    sys = build_phi_constraints(n, strict)
    supp = support_columns(build_T(n, random_permutation(
        random.Random(70 + n), n)))
    shuffled = random.Random(n).sample(range(sys.ncols), 3 * n)
    assert shuffled != sorted(shuffled)
    for cols in (supp, shuffled, []):
        sub = sys.column_submatrix(cols)
        assert dense(sub) == dense_column_submatrix(sys, cols)
        assert all(0 not in row.values() for row in sub.data)


def test_column_submatrix_refuses_duplicate_columns():
    with pytest.raises(ValueError, match="duplicate"):
        build_phi_constraints(2).column_submatrix([0, 1, 0])


def test_support_rank_n12():
    # 16,640-row Phi at n = 12 restricted to T's 1,728 support cells
    t = build_T(12, parse_permutation("(3 4)", 12))
    assert phi_support_rank(t, build_phi_constraints(12)) == (1728, 1728)
