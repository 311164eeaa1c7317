"""Constraint system, membership and vertex tests, and the Psi LP oracle."""

import json
import random
from collections import Counter
from fractions import Fraction
from math import factorial
from operator import mul
from pathlib import Path

import pytest

from tensorhull.counterexample import build_T, certify_not_in_psi
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
    ConstraintSystem,
    TensorIndex,
    admissible_pairs,
    all_pairs,
    build_phi_constraints,
    class_psi_contains,
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
    _checked_rhs,
    _class_system,
    _full_rung,
    _grouped_rhs,
    _grouped_rows,
    _lift_farkas,
    _reduced_groups,
    _verify_psi_farkas,
)
from helpers import (
    brute_admissible_pairs,
    convex_combination,
    dense,
    dense_check_farkas,
    dense_column_submatrix,
    dense_grouped_system,
    ints_over,
    literal_phi_constraints,
    plain_int_view,
    plain_residuals,
    random_doubly_stochastic,
    random_permutation,
    random_rational_matrix,
    reference_simplex,
    row_scan_column_submatrix,
    shift_pair,
    supports_verify_psi_farkas,
    tensor_product,
    var_phi_constraints,
)


GOLDEN = Path(__file__).parent / "golden"


def supports(pairs):
    """The Kronecker supports _grouped_rows takes, one per pair."""
    return [kron_support(p, q) for p, q in pairs]


def grouped_system(mult, rhs, n, supports, groups):
    """The grouped LP data (rows, d), as one Psi LP query builds it, with
    its int rhs over mult read as the Fractions d."""
    return _grouped_rows(n, supports, groups), [
        Fraction(v, mult) for v in _grouped_rhs(rhs, groups)]


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
    assert kron(identity(n), identity(n)) == RatMatrix(
        9, 9, [[int(i == j) for j in range(9)] for i in range(9)])
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
    # every Kronecker vertex at n <= 3 is the one-vertex reconstruction, and
    # the dense product of the two permutation matrices
    for n in (1, 2, 3):
        for p, q in all_pairs(n):
            a, b = (RatMatrix(n, n, [[int(s(i) == j) for j in range(1, n + 1)]
                                     for i in range(1, n + 1)]) for s in (p, q))
            assert kron(p, q) == weights_reconstruct(
                {(p.image, q.image): 1}, n) == tensor_product(a, b)


def test_weights_reconstruct_matches_fraction_sum():
    # the int sums over the lcm of the weights' denominators against the
    # plain Fraction sum of weighted dense vertices, on seeded weight dicts
    # (some weights negative, so cells may cancel) and on dicts scaled so
    # that their total is an integer; integral entries come back as ints,
    # and the kept view is the one a scan of the entries reads
    rng = random.Random(29)
    for n in (1, 2, 3, 4):
        nn = n * n
        pairs = all_pairs(n)
        for trial in range(24):
            chosen = rng.sample(pairs, min(len(pairs), rng.randint(1, 6)))
            weights = {(p.image, q.image): Fraction(
                rng.randint(-3, 9), rng.choice([1, 2, 3, 4, 6, 10]))
                for p, q in chosen}
            if trial % 2:
                total = sum(weights.values())
                if total:
                    scale = rng.randint(1, 3) / total
                    weights = {k: w * scale for k, w in weights.items()}
                    assert sum(weights.values()).denominator == 1
            vertices = [tensor_product(*(RatMatrix(n, n, [
                [Fraction(int(s(i) == j)) for j in range(1, n + 1)]
                for i in range(1, n + 1)]) for s in (p, q))) for p, q in chosen]
            got = weights_reconstruct(weights, n)
            want = convex_combination(vertices, list(weights.values()))
            assert got == want and (got.rows, got.cols) == (nn, nn)
            assert all(type(v) is (int if v.denominator == 1 else Fraction)
                       for row in got.data for v in row)
            mult, flat, ints = plain_int_view(got)
            assert got.int_view() == (mult, tuple(flat), tuple(ints))


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
@pytest.mark.parametrize("n", [2, 3, 4])
def test_phi_contains_matches_plain_residuals(n, strict):
    # members perturbed at a few cells by 1/4, 1/6 or 1/10 of either sign,
    # some of which turn negative, then random rational matrices with a
    # share of zeros and about half their nonzeros negative; both reports
    # must match the Fraction loop over every entry of every row, under the
    # library's reading and the literal one
    phi = literal_phi_constraints(n) if strict else build_phi_constraints(n)
    rng = random.Random(31 * n + strict)
    nn = n * n
    matrices = []
    for _ in range(12):
        base = tensor_product(random_doubly_stochastic(rng, n),
                              random_doubly_stochastic(rng, n))
        data = [list(row) for row in base.data]
        for _ in range(rng.randint(0, 4)):
            step = Fraction(rng.choice([-1, 1]), rng.choice([4, 6, 10]))
            data[rng.randrange(nn)][rng.randrange(nn)] += step
        matrices.append(RatMatrix(nn, nn, data))
    for density in (0.0, 0.05, 0.3, 0.7, 1.0):
        m = random_rational_matrix(rng, nn, nn)
        matrices.append(RatMatrix(nn, nn, [
            [v if rng.random() < density else 0 for v in row]
            for row in m.data]))
    for m in matrices:
        data = m.data
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
        phi_contains(RatMatrix(3, 3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
                     build_phi_constraints(2))


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
    pm, qm = [[0] * n for _ in range(n)], [[0] * n for _ in range(n)]
    for i in range(1, n + 1):
        pm[i - 1][p(i) - 1] = Fraction(1)
        qm[i - 1][q(i) - 1] = Fraction(1)
    assert alpha == RatMatrix(n, n, pm) and beta == RatMatrix(n, n, qm)

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
    res = psi_contains(build_T(5, sigma), 5, mode="full")
    entry = {"sigma": list(sigma.image), "in_psi": res.in_psi,
             "farkas": [str(v) for v in res.farkas]}
    text = json.dumps(entry) + "\n"
    assert text == (GOLDEN / "psi_full_n5_s45.json").read_text()


@pytest.mark.parametrize("n, cells, columns", [(4, 16, 34), (5, 25, 351)])
def test_class_system_sizes(n, cells, columns):
    groups, members, system = _class_system(n)
    assert all_pairs(n) is all_pairs(n)
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
        pairs, (groups, members, system) = all_pairs(n), _class_system(n)
        cls = {v: r for r, group in enumerate(groups[:-1]) for v in group}
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


def lp_rows(monkeypatch):
    """The row count of every LP the Psi loop solves, in order: at n = 4,
    17 for the class rung, 101 for the reduced and 257 for the canonical."""
    from tensorhull import polytopes

    rows = []

    def spy(c, d, **kwargs):
        rows.append(c.rows)
        return lp_feasible(c, d, **kwargs)

    monkeypatch.setattr(polytopes, "lp_feasible", spy)
    return rows


def test_orbit_psi_matches_full_mode(monkeypatch):
    # T is constant on the cell classes, so the class rung decides every
    # case; each verdict matches the full-mode LP, and each lifted answer
    # holds on the canonical system over all n!^2 pairs.
    rows = lp_rows(monkeypatch)
    verdicts = []
    for n, t in orbit_cases():
        rows.clear()
        res = class_psi_contains(t, n)
        assert rows == [n * n + 1]
        full = psi_contains(t, n, mode="full")
        assert res.in_psi == full.in_psi
        assert res.mode == "full" and res.pairs == list(all_pairs(n))
        if res.in_psi:
            assert all(w > 0 for w in res.weights.values())
            assert sum(res.weights.values()) == 1
            assert weights_reconstruct(res.weights, n) == t
        else:
            assert check_farkas(*membership_system(t, n, res.pairs),
                                res.farkas)
        verdicts.append(res.in_psi)
    assert verdicts.count(True) == 9  # 8 of S_4 and the n = 5 control


def test_class_lp_lists_pairs_once_per_n(monkeypatch):
    # The class table reads the one cached pair list, so a later call lists
    # no pairs; each result still gets all n!^2 pairs in order, as a list
    # of its own.
    from tensorhull import polytopes

    def refuse(n):
        raise AssertionError("pairs listed again")

    for n, t in orbit_cases():
        _class_system(n)
        monkeypatch.setattr(polytopes, "all_permutations", refuse)
        first, second = class_psi_contains(t, n), class_psi_contains(t, n)
        assert all_pairs(n) is all_pairs(n)
        monkeypatch.undo()
        assert first.pairs == second.pairs == list(all_pairs(n))
        assert first.pairs is not second.pairs


def test_class_farkas_lift_matches_columns():
    # The lifted y puts y_R on every cell of class R, so C'y at every
    # member of column j is column j times the class LP's Farkas vector,
    # with no division, and d'y is the class LP's d'y.
    for n, t in orbit_cases():
        res = class_psi_contains(t, n)
        if res.in_psi:
            continue
        groups, members, system = _class_system(n)
        cells = [v for row in t.data for v in row] + [1]
        d = [sum(cells[v] for v in group) for group in groups]
        y_class = lp_feasible(system, *ints_over(d)).farkas
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
    # and each is decided by the class rung.
    rows = lp_rows(monkeypatch)
    feasible = 0
    for sigma in all_permutations(5):
        t = build_T(5, sigma)
        res = class_psi_contains(t, 5)
        assert res.in_psi == (not certify_not_in_psi(t, 5))
        assert res.in_psi == (not is_counterexample_sigma(sigma))
        if res.in_psi:
            assert weights_reconstruct(res.weights, 5) == t
            feasible += 1
    assert feasible == 20
    assert rows == [26] * 120


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
    for c, res in ((t, class_psi_contains(t, n)), (mix, filtered)):
        rhs = _checked_rhs(c, n)[1]
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
        res = class_psi_contains(t, n)
        if res.in_psi:
            continue
        canon, d = dense_grouped_system(*_checked_rhs(t, n), n, res.pairs,
                                        _canonical_groups(n))
        assert (canon.rows, canon.cols) == (257, 576)
        assert dense_check_farkas(canon, d, res.farkas)
        checked += 1
    assert checked == 16


def test_orbit_psi_non_invariant_input_falls_back(monkeypatch):
    # T for (3 4) with 1/8 moved from a one of T to a zero of T: the matrix
    # is no longer constant on the cell classes, so the class rung is left
    # out and the reduced rung decides, as in full mode.
    t = build_T(4, parse_permutation("(3 4)", 4))
    data = [list(row) for row in t.data]
    data[0][0], data[0][1] = data[0][0] - Fraction(1, 8), Fraction(1, 8)
    assert t.data[0][0] == Fraction(1, 4) and t.data[0][1] == 0
    c = RatMatrix(16, 16, data)
    rows = lp_rows(monkeypatch)
    res = class_psi_contains(c, 4)
    assert rows == [101]
    full = psi_contains(c, 4, mode="full")
    assert rows == [101, 101]
    assert (res.in_psi, res.farkas, res.weights) == (
        full.in_psi, full.farkas, full.weights)


def fail_first_rechecks(monkeypatch, name, count):
    """Make polytopes.<name> fail the re-check of its first count callers
    and answer for real after them; returns the list of calls."""
    from tensorhull import polytopes

    real = getattr(polytopes, name)
    calls = []

    def flaky(*args):
        calls.append(name)
        return len(calls) > count and real(*args)

    monkeypatch.setattr(polytopes, name, flaky)
    return calls


RECHECKS = [("_verify_psi_farkas", "(3 4)"), ("weights_reconstruct", "()")]


@pytest.mark.parametrize("recheck, sigma", RECHECKS)
def test_orbit_psi_failed_recheck_falls_back(monkeypatch, recheck, sigma):
    # The class rung's re-check fails; the reduced rung then decides with
    # the real re-check, as in full mode.
    t = build_T(4, parse_permutation(sigma, 4))
    want = psi_contains(t, 4, mode="full")
    rows = lp_rows(monkeypatch)
    calls = fail_first_rechecks(monkeypatch, recheck, 1)
    res = class_psi_contains(t, 4)
    assert rows == [17, 101]
    assert calls == [recheck] * 2
    assert (res.in_psi, res.farkas, res.weights) == (
        want.in_psi, want.farkas, want.weights)


@pytest.mark.parametrize("recheck, sigma", RECHECKS)
@pytest.mark.parametrize("decide, failures, want_rows", [
    (lambda t: psi_contains(t, 4, mode="full"), 1, [101, 257]),
    (lambda t: psi_contains(t, 4), 1, [101, 257]),
    (lambda t: class_psi_contains(t, 4), 2, [17, 101, 257]),
])
def test_failed_reduced_recheck_goes_to_canonical_rung(
        monkeypatch, recheck, sigma, decide, failures, want_rows):
    # Every rung before the canonical one fails its re-check: the canonical
    # rung answers, and its answer holds on the untouched system.
    t = build_T(4, parse_permutation(sigma, 4))
    rows = lp_rows(monkeypatch)
    fail_first_rechecks(monkeypatch, recheck, failures)
    res = decide(t)
    assert rows == want_rows
    assert res.in_psi == (sigma == "()")
    if res.in_psi:
        assert sum(res.weights.values()) == 1
        assert weights_reconstruct(res.weights, 4) == t
    else:
        assert check_farkas(*membership_system(t, 4, res.pairs), res.farkas)


@pytest.mark.parametrize("recheck, sigma", RECHECKS)
def test_failed_canonical_recheck_raises(monkeypatch, capsys, tmp_path,
                                         recheck, sigma):
    # No answer is returned without its re-check: when the canonical rung
    # fails it too, the loop raises, and the CLI reports a divergence.
    from tensorhull import cli
    from tensorhull.exactmath import format_matrix

    t = build_T(4, parse_permutation(sigma, 4))
    matrix = tmp_path / "t.txt"
    matrix.write_text(format_matrix(t))
    rows = lp_rows(monkeypatch)
    fail_first_rechecks(monkeypatch, recheck, 3)
    with pytest.raises(AssertionError, match="failed its re-check"):
        class_psi_contains(t, 4)
    assert rows == [17, 101, 257]
    monkeypatch.undo()
    fail_first_rechecks(monkeypatch, recheck, 10 ** 9)
    for argv in (["verify", "--n", "4", "--sigma", sigma, "--lp"],
                 ["psi-oracle", str(matrix), "--n", "4", "--mode", "full"]):
        capsys.readouterr()
        assert cli.main(argv) == 1
        assert "verification divergence" in capsys.readouterr().err


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
    data = m.data
    cells = [(n * i + k, n * j + l)
             for i in range(n) for k in range(n)
             for j in range(n) for l in range(n)
             if n - 1 in (i, j) and n - 1 in (k, l)]
    src = rng.choice([rc for rc in cells if data[rc[0]][rc[1]]])
    dst = rng.choice([rc for rc in cells if rc != src])
    eps = Fraction(data[src[0]][src[1]], 2)
    data[src[0]][src[1]] -= eps
    data[dst[0]][dst[1]] += eps
    return RatMatrix(m.rows, m.cols, data)


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
        rows, d = grouped_system(*_checked_rhs(m, n), n,
                                 supports(all_pairs(n)), _reduced_groups(n))
        assert lp_feasible(rows, *ints_over(d)).feasible


@pytest.mark.parametrize("n, count", [(2, 8), (3, 8), (4, 3)])
def test_fuzz_mixes_of_tensor_products_lie_in_phi_and_psi(n, count):
    # Seeded convex combinations of A (x) B, with A and B random mixes of
    # permutation matrices: each lies in Phi, and both psi_contains modes
    # and class_psi_contains find a witness that sums to 1 and rebuilds it.
    # Such inputs are mostly not constant on the cell classes, so the class
    # LP mostly hands them to the full-mode rungs.
    rng = random.Random(1000 + n)
    sys_ = build_phi_constraints(n)
    groups = _class_system(n)[0][:-1]
    on_classes = 0
    for _ in range(count):
        raw = [rng.randint(1, 9) for _ in range(rng.randint(1, 3))]
        c = convex_combination(
            [tensor_product(random_doubly_stochastic(rng, n),
                            random_doubly_stochastic(rng, n)) for _ in raw],
            [Fraction(w, sum(raw)) for w in raw])
        assert phi_contains(c, sys_).ok
        cells = [v for row in c.data for v in row]
        on_classes += all(len({cells[v] for v in group}) == 1
                          for group in groups)
        for res in (psi_contains(c, n), psi_contains(c, n, mode="full"),
                    class_psi_contains(c, n)):
            assert res.in_psi
            assert all(w > 0 for w in res.weights.values())
            assert sum(res.weights.values()) == 1
            assert weights_reconstruct(res.weights, n) == c
    assert on_classes < count


@pytest.mark.parametrize("n", [2, 3, 4])
def test_reduced_rows_span_the_canonical_system(n):
    pairs = all_pairs(n)
    c = vertex_mix(random.Random(90 + n), n, 2)
    reduced, d_reduced = grouped_system(*_checked_rhs(c, n), n, supports(pairs),
                                         _reduced_groups(n))
    canon, d_canon = membership_system(c, n, pairs)
    assert rat_rank(reduced) == rat_rank(canon) == ((n - 1) ** 2 + 1) ** 2
    reduced, canon = dense(reduced), dense(canon)
    # The canonical columns are the flattened vertices with a 1 appended.
    for column, (p, q) in zip(zip(*canon.data), pairs):
        assert list(column) == [v for row in kron(p, q).data for v in row] + [1]
    assert d_canon == [v for row in c.data for v in row] + [1]
    # Each reduced row and its rhs are the sums over their group.
    canon_rows = canon.data
    for row, rhs, group in zip(reduced.data, d_reduced, _reduced_groups(n)):
        assert row == [sum(col) for col in
                       zip(*(canon_rows[v] for v in group))]
        assert rhs == sum(d_canon[v] for v in group)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_grouped_system_matches_dense_oracle(n):
    # The sparse rows hold exactly the nonzeros of the dense rows, for both
    # tables, over all pairs, over the support-filtered pairs of a T, a
    # vertex mix and a span-perturbed mix, and over 0, 1 and 2 pairs: none,
    # the first, the last, a pair and its successor, and two that share no
    # permutation.
    rng = random.Random(95 + n)
    mats = [build_T(n, random_permutation(rng, n)), vertex_mix(rng, n, 2),
            span_perturbed(rng, n)]
    everything = all_pairs(n)
    cases = [(mats[1], everything)]
    cases += [(c, admissible_pairs(c, n)) for c in mats]
    assert min(len(pairs) for _, pairs in cases) < len(everything)
    few = [[], everything[:1], everything[-1:], everything[:2],
           [everything[-1], everything[0]]]
    cases += [(c, pairs) for c in mats[:2] for pairs in few]
    for c, pairs in cases:
        for groups in (_reduced_groups(n), _canonical_groups(n)):
            args = (*_checked_rhs(c, n), n)
            got, d = grouped_system(*args, supports(pairs), groups)
            want, d_want = dense_grouped_system(*args, pairs, groups)
            assert (got.rows, got.cols) == (want.rows, want.cols)
            assert got.data == [{j: v for j, v in enumerate(row) if v}
                                for row in want.data]
            assert d == d_want


def seeded_psi_systems():
    """(n, c, pairs, groups) of seeded Psi systems, reduced and canonical,
    over the support-filtered pairs and (at n=3, and for one n=4 matrix)
    over all pairs."""
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
                    systems.append((n, c, pairs, groups))
    return systems


def test_psi_lp_pivots_match_reference_tableau():
    # On the seeded Psi systems the revised simplex must return the dense
    # tableau's witness or Farkas vector.
    seen = set()
    for n, c, pairs, groups in seeded_psi_systems():
        rows, d = grouped_system(*_checked_rhs(c, n), n, supports(pairs),
                                 groups)
        res = lp_feasible(rows, *ints_over(d))
        out = res.witness if res.feasible else res.farkas
        assert (res.status, out) == reference_simplex(dense(rows), d)
        seen.add(res.status)
    assert len(seen) == 2


def test_integer_farkas_recheck_matches_fraction_and_dense_checks():
    # Every certificate of the seeded Psi systems, over its grouped rows and
    # lifted onto the canonical rows of membership_system (the psi-oracle
    # re-check), and a copy of each with one nonzero entry moved to another
    # row: check_farkas over ints (the certificate's ints and the rhs ints
    # of _grouped_rhs or _checked_rhs) must agree with the same call over
    # Fractions and with the dense check.
    rng = random.Random(2030)
    verdicts = set()
    for n, c, pairs, groups in seeded_psi_systems():
        mult, rhs = _checked_rhs(c, n)
        rows = _grouped_rows(n, supports(pairs), groups)
        res = lp_feasible(rows, _grouped_rhs(rhs, groups), scale=mult)
        if res.feasible:
            continue
        ys, scale = res.certificate
        canon, d_canon = membership_system(c, n, pairs)
        assert d_canon == [Fraction(v, mult) for v in rhs]
        for matrix, ints, y in (
                (rows, _grouped_rhs(rhs, groups), ys),
                (canon, rhs, _lift_farkas(ys, groups, n))):
            assert {type(v) for v in (*ints, *y)} == {int}
            i = rng.choice([i for i, v in enumerate(y) if v])
            k = rng.choice([k for k in range(len(y)) if k != i])
            moved = list(y)
            moved[k], moved[i] = moved[k] + moved[i], 0
            d = [Fraction(v, mult) for v in ints]
            for vector in (y, moved):
                verdict = check_farkas(matrix, ints, vector)
                farkas = [Fraction(v, scale) for v in vector]
                assert verdict == check_farkas(matrix, d, farkas)
                assert verdict == dense_check_farkas(dense(matrix), d, farkas)
                verdicts.add((vector is y, verdict))
    # Every certificate passes, and some moved entries break one.
    assert verdicts >= {(True, True), (False, False)}
    assert (True, False) not in verdicts


@pytest.mark.parametrize("n", [2, 3, 4])
def test_full_tables_match_fresh_rows(n):
    # The rows kept per n are the rows built afresh over all_pairs(n), for
    # both rungs, and full mode hands each result its own pair list.
    perms = list(all_permutations(n))
    assert all_pairs(n) == tuple((p, q) for p in perms for q in perms)
    assert all_pairs(n) is all_pairs(n)
    fresh = supports(all_pairs(n))
    for canonical, groups in ((False, _reduced_groups(n)),
                              (True, _canonical_groups(n))):
        kept_groups, kept, members = _full_rung(n, canonical)
        assert (kept_groups, members) == (groups, None)
        want = _grouped_rows(n, fresh, groups)
        assert (kept.rows, kept.cols, kept.data) == (
            want.rows, want.cols, want.data)
    c = vertex_mix(random.Random(40 + n), n, 2)
    first, second = (psi_contains(c, n, mode="full") for _ in range(2))
    assert first.pairs == second.pairs == list(all_pairs(n))
    assert first.pairs is not second.pairs


def test_full_mode_builds_each_rung_when_reached(monkeypatch):
    # On a cleared cache, a feasible full-mode query builds the reduced
    # rows only; the canonical rows wait for an input outside the span of
    # the vertices, which the reduced rung cannot decide.
    from tensorhull import polytopes

    built = []

    def counted(n, supports, groups):
        built.append(len(groups))
        return _grouped_rows(n, supports, groups)

    monkeypatch.setattr(polytopes, "_grouped_rows", counted)
    _full_rung.cache_clear()
    assert psi_contains(vertex_mix(random.Random(41), 4, 2), 4,
                        mode="full").in_psi
    assert built == [101]
    assert not psi_contains(span_perturbed(random.Random(84), 4), 4,
                            mode="full").in_psi
    assert built == [101, 257]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_membership_system_shares_rows_only_for_all_pairs(n):
    # The full pair list in all_pairs order gets the kept canonical rows;
    # a reversed, reordered or shortened list gets rows of its own, equal
    # to the dense oracle's.
    c = vertex_mix(random.Random(50 + n), n, 2)
    pairs = all_pairs(n)
    canon, d = membership_system(c, n, pairs)
    assert canon is _full_rung(n, True)[1]
    swapped = list(pairs)
    swapped[1], swapped[2] = swapped[2], swapped[1]
    for other in (pairs[::-1], swapped, pairs[:-1], pairs[1:]):
        got, d_got = membership_system(c, n, other)
        assert got is not canon
        want, d_want = dense_grouped_system(*_checked_rhs(c, n), n, other,
                                            _canonical_groups(n))
        assert (got.rows, got.cols) == (want.rows, want.cols)
        assert got.data == [{j: v for j, v in enumerate(row) if v}
                            for row in want.data]
        assert d_got == d_want == d


def test_kept_psi_tables_answer_each_rhs_afresh():
    # The kept full-mode tables, each solved for many right-hand sides,
    # return what the same rows built afresh return, and at n = 3 what the
    # dense reference tableau returns; at n = 4 the fresh rows meet it in
    # test_psi_lp_pivots_match_reference_tableau.
    rng = random.Random(2028)
    seen = set()
    for n, count in ((3, 5), (4, 3)):
        mats = [build_T(n, random_permutation(rng, n)), vertex_mix(rng, n, 2),
                vertex_mix(rng, n, 3), span_perturbed(rng, n),
                build_T(n, random_permutation(rng, n))][:count]
        fresh = supports(all_pairs(n))
        for groups, kept, _ in map(_full_rung, (n, n), (False, True)):
            for c in mats:
                mult, rhs = _checked_rhs(c, n)
                d = _grouped_rhs(rhs, groups)
                res = lp_feasible(kept, d, scale=mult)
                again = lp_feasible(_grouped_rows(n, fresh, groups), d,
                                    scale=mult)
                assert (res.status, res.witness, res.farkas) == (
                    again.status, again.witness, again.farkas)
                out = res.witness if res.feasible else res.farkas
                if n == 3:
                    assert (res.status, out) == reference_simplex(
                        dense(kept), [Fraction(v, mult) for v in d])
                seen.add((n, res.status))
    assert len(seen) == 4


def test_psi_lp_integer_rhs_matches_fraction_rhs():
    # Seeded reduced and canonical systems over the support-filtered and
    # all pairs, and the class system at n = 4: the ints of _grouped_rhs
    # over the scale L of _checked_rhs, and over 6L, give the status,
    # witness and Farkas vector that the dense reference tableau gives for
    # the same rhs as Fractions.  The n = 4 grouped systems, too large for
    # the tableau, are compared between the two scales.  A rhs of
    # Fractions, strings or floats is refused.
    rng = random.Random(2029)
    systems = []
    for n in (3, 4):
        mats = [build_T(n, random_permutation(rng, n)), vertex_mix(rng, n, 2),
                vertex_mix(rng, n, 3), span_perturbed(rng, n)]
        for c in mats:
            for pairs in (admissible_pairs(c, n), all_pairs(n)):
                for groups in (_reduced_groups(n), _canonical_groups(n)):
                    systems.append((n, c, _grouped_rows(n, supports(pairs),
                                                        groups), groups))
    groups, _, system = _class_system(4)
    systems += [(4, build_T(4, sigma), system, groups)
                for sigma in all_permutations(4)]
    seen = set()
    for n, c, rows, groups in systems:
        mult, rhs = _checked_rhs(c, n)
        d = _grouped_rhs(rhs, groups)
        res = lp_feasible(rows, d, scale=mult)
        again = lp_feasible(rows, [6 * v for v in d], scale=6 * mult)
        assert (res.status, res.witness, res.farkas) == (
            again.status, again.witness, again.farkas)
        fractions = [Fraction(v, mult) for v in d]
        if n == 3 or rows is system:
            out = res.witness if res.feasible else res.farkas
            assert (res.status, out) == reference_simplex(dense(rows),
                                                          fractions)
        for bad in (fractions, [*map(str, fractions)],
                    [v / mult for v in d]):
            with pytest.raises(TypeError):
                lp_feasible(rows, bad)
        seen.add(res.status)
    assert seen == {"feasible", "infeasible"}


def test_lp_verify_never_reads_farkas(monkeypatch):
    # verify --lp keeps the class LP's certificate as ints: no Farkas
    # vector is turned into Fractions, though the answer is a refutation.
    from tensorhull import exactmath, polytopes
    from tensorhull.counterexample import LP_INFEASIBLE, full_verification

    reads = []
    for owner in (exactmath.Feasibility, polytopes.MembershipResult):
        real = owner.farkas

        def spy(self, real=real):
            reads.append(type(self).__name__)
            return real.fget(self)

        monkeypatch.setattr(owner, "farkas", property(spy))
    report = full_verification(4, parse_permutation("(3 4)", 4), run_lp=True)
    assert report.confirmed and report.lp_status == LP_INFEASIBLE
    assert reads == []
    res = class_psi_contains(build_T(4, parse_permutation("(3 4)", 4)), 4)
    assert res.farkas is res.farkas and reads == ["MembershipResult"] * 2


def test_support_filtered_psi_writes_no_dense_rows(monkeypatch):
    # the LP's rhs, the pair search and the witness's re-check all read
    # the int view: a 2-vertex mix is decided with no read of .data
    c = vertex_mix(random.Random(52), 4, 2)
    reads = []
    data = RatMatrix.data.fget

    def counted(self):
        reads.append(self)
        return data(self)

    monkeypatch.setattr(RatMatrix, "data", property(counted))
    assert psi_contains(c, 4).in_psi and reads == []


def test_psi_matches_direct_canonical_lp():
    # the reduced solve agrees with lp_feasible on the untouched system
    for n in (2, 3):
        for sigma in all_permutations(n):
            t = build_T(n, sigma)
            pairs = all_pairs(n)
            canon, d = membership_system(t, n, pairs)
            direct = lp_feasible(canon, *ints_over(d))
            res = psi_contains(t, n, mode="full")
            assert direct.feasible == res.in_psi


def test_lp_feasible_on_control_membership_system():
    # the n=4 control system, solved by the raw simplex over the four
    # admissible columns
    n = 4
    t = build_T(n, identity(n))
    pairs = admissible_pairs(t, n)
    canon, d = membership_system(t, n, pairs)
    direct = lp_feasible(canon, *ints_over(d))
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
    eye = RatMatrix(3, 3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(ValueError):
        psi_contains(eye, 2)
    neg = RatMatrix.from_rows([[-1, 1, 0, 1], [1, 0, 1, 0],
                               [0, 1, 0, 1], [1, 0, 1, 0]])
    with pytest.raises(ValueError):
        psi_contains(neg, 2)
    with pytest.raises(ValueError):
        psi_contains(uniform_matrix(2), 2, mode="nonsense")
    # The class LP refuses the same inputs; -T is constant on the classes.
    with pytest.raises(ValueError, match="16 x 16"):
        class_psi_contains(eye, 4)
    t = build_T(4, parse_permutation("(3 4)", 4))
    minus_t = RatMatrix(16, 16, [[-v for v in row] for row in t.data])
    with pytest.raises(ValueError, match="negative entries"):
        class_psi_contains(minus_t, 4)


def test_psi_lp_size_cap(monkeypatch):
    from tensorhull import polytopes

    # The full n = 5 system (626 x 14,400) is the largest LP allowed.
    polytopes.check_lp_size(5, 14400)
    with pytest.raises(ValueError, match="626 x 14401"):
        polytopes.check_lp_size(5, 14401)

    def refuse(*args):
        raise AssertionError("Psi LP built above the size cap")

    for module, name in ((polytopes, "all_pairs"),
                         (polytopes, "_full_rung"),
                         (polytopes, "_grouped_rows"),
                         (polytopes, "_class_system")):
        monkeypatch.setattr(module, name, refuse)
    with pytest.raises(ValueError, match="1297 x 518400"):
        psi_contains(uniform_matrix(6), 6, mode="full")
    with pytest.raises(ValueError, match="1297 x 518400"):
        class_psi_contains(build_T(6, parse_permutation("(5 6)", 6)), 6)
    # A support-filtered query checks its size once, in admissible_pairs
    # before it lists a pair; the next test covers the refusal.
    monkeypatch.undo()
    checked = []
    cap = polytopes.check_lp_size
    monkeypatch.setattr(polytopes, "check_lp_size",
                        lambda n, cols: checked.append(cols) or cap(n, cols))
    for n, c in ((3, uniform_matrix(3)), (4, build_T(4, identity(4))),
                 (4, build_T(4, parse_permutation("(3 4)", 4)))):
        checked.clear()
        result = psi_contains(c, n)
        assert checked == [result.admissible_count] == [len(result.pairs)]


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
    # sparse: rational entries of either sign on a few Kronecker supports
    # plus scattered cells, as only nonzero-ness counts
    for n in (1, 2, 3, 4):
        nn = n * n
        for _ in range(15):
            data = [[0] * nn for _ in range(nn)]
            cells = [v for _ in range(rng.randint(0, 3))
                     for v in kron_support(random_permutation(rng, n),
                                           random_permutation(rng, n))]
            cells += rng.sample(range(nn * nn), rng.randint(0, nn * n))
            for v in cells:
                data[v // nn][v % nn] = Fraction(
                    rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
            cases.append((n, RatMatrix(nn, nn, data)))
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
        admissible_pairs(RatMatrix(4, 5, [[0] * 5] * 4), 2)


def test_strict_families_variant():
    for n in (2, 3, 4):
        default = build_phi_constraints(n)
        strict = literal_phi_constraints(n)
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
    strict = augmented(literal_phi_constraints(n))
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
    full = dense(sys2.column_submatrix(range(sys2.ncols))).data
    for r, row in enumerate(sys2.rows):
        for c in range(sys2.ncols):
            assert full[r][c] == row.get(c, 0)


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_column_submatrix_matches_dense_oracle(n, strict):
    # the sparse rows restricted to T's support, column cols[j] renumbered
    # j, are the dense oracle's rows with the zeros left out, and the same
    # dicts as a scan of every row's entries; so are those of unsorted,
    # random, empty and full column lists, under either reading
    sys = literal_phi_constraints(n) if strict else build_phi_constraints(n)
    rng = random.Random(n)
    supp = support_columns(build_T(n, random_permutation(
        random.Random(70 + n), n)))
    shuffled = rng.sample(range(sys.ncols), 3 * n)
    assert shuffled != sorted(shuffled)
    lists = [supp, shuffled, [], range(sys.ncols),
             rng.sample(range(sys.ncols), sys.ncols)]
    for _ in range(4):
        cols = rng.sample(range(sys.ncols), rng.randint(1, sys.ncols))
        lists += [cols, sorted(cols)]
    for cols in lists:
        sub = sys.column_submatrix(cols)
        assert dense(sub) == dense_column_submatrix(sys, cols)
        assert sub.data == row_scan_column_submatrix(sys, cols).data
        assert all(0 not in row.values() for row in sub.data)


def test_column_index_is_lazy_and_kept():
    # the index is built by the first query, not when the system is made,
    # and the same tuple serves every later phi_contains and
    # column_submatrix; it holds, per column, the rows whose dict has it.
    # Equality and repr read n, rows, d and labels, never the index
    sys = literal_phi_constraints(3)
    assert sys._holders is None
    holders = sys.column_rows()
    assert holders == tuple(tuple(r for r, row in enumerate(sys.rows)
                                  if c in row) for c in range(sys.ncols))
    phi_contains(uniform_matrix(3), sys)
    sys.column_submatrix([0, 5])
    assert sys.column_rows() is holders is sys._holders
    copy = ConstraintSystem(sys.n, sys.rows, sys.d, sys.labels)
    assert copy == sys and copy._holders is None
    assert copy != ConstraintSystem(3, [], [], [])
    assert copy != (sys.n, sys.rows, sys.d, sys.labels)
    assert repr(copy) == (f"ConstraintSystem(n=3, rows={sys.rows!r}, "
                          f"d={sys.d!r}, labels={sys.labels!r})")


def test_phi_rows_share_one_int_per_column():
    # every row keys a column on the same int object (at n = 5 most column
    # numbers are above 256, past the ints Python keeps one copy of)
    sys = build_phi_constraints(5)
    keys = {}
    for row in sys.rows:
        for c in row:
            assert keys.setdefault(c, c) is c


def test_phi_rows_match_entry_by_entry_builder():
    # the flat-index slices against the rows written entry by entry through
    # TensorIndex.var: the same rows with the same key order, labels and d;
    # at n = 6 all rows key their columns on n^4 int objects, one per column
    for n in range(1, 7):
        sys, ref = build_phi_constraints(n), var_phi_constraints(n)
        assert [list(row.items()) for row in sys.rows] == \
            [list(row.items()) for row in ref.rows]
        assert sys.labels == ref.labels and sys.d == ref.d
    assert len({id(c) for row in sys.rows for c in row}) == 6 ** 4


def test_farkas_fractions_built_once():
    # .farkas reads the certificate (ints, scale) as Fractions on first use
    # and keeps them; a feasible answer has none
    t = build_T(4, parse_permutation("(3 4)", 4))
    for res in (psi_contains(t, 4, mode="full"),
                lp_feasible(SparseMatrix(1, 2, [{0: 1, 1: 1}]), [-1])):
        ys, scale = res.certificate
        first = res.farkas
        assert first == [Fraction(v, scale) for v in ys]
        assert res.farkas is first
    assert lp_feasible(SparseMatrix(1, 2, [{0: 1, 1: 1}]), [1]).farkas is None


def test_column_submatrix_refuses_duplicate_columns():
    with pytest.raises(ValueError, match="duplicate"):
        build_phi_constraints(2).column_submatrix([0, 1, 0])


def test_support_rank_n12():
    # 16,640-row Phi at n = 12 restricted to T's 1,728 support cells
    t = build_T(12, parse_permutation("(3 4)", 12))
    assert phi_support_rank(t, build_phi_constraints(12)) == (1728, 1728)
