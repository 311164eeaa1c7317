"""Exact matrices, rank, and the LP feasibility kernel."""

import random
from fractions import Fraction

import pytest

from tensorhull import exactmath
from tensorhull.exactmath import (
    FEASIBLE,
    INFEASIBLE,
    RatMatrix,
    SparseMatrix,
    check_farkas,
    format_matrix,
    lp_feasible,
    parse_matrix,
    rat_rank,
)
from tensorhull.exactmath import _contract_equalities
from tensorhull.circulants import build_B
from tensorhull.counterexample import build_T
from tensorhull.permutations import (all_permutations,
                                     enumerate_counterexample_sigmas,
                                     parse_permutation)
from tensorhull.polytopes import build_phi_constraints, support_columns
from helpers import (
    brute_lp_feasible,
    dense,
    dense_check_farkas,
    fraction_matvec,
    integer_rows,
    plain_int_view,
    ints_over,
    plain_rank,
    random_rational_matrix,
    reference_contract_equalities,
    reference_simplex,
    sparse,
)


def test_rank_identity():
    eye = RatMatrix(3, 3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert rat_rank(sparse(eye)) == 3


def test_rank_proportional_rows():
    m = RatMatrix.from_rows([[1, 2], [2, 4]])
    assert rat_rank(sparse(m)) == 1


def test_rank_empty():
    assert rat_rank(sparse(RatMatrix(0, 0, []))) == 0
    assert rat_rank(sparse(RatMatrix(3, 2, [[0, 0]] * 3))) == 0
    # a stored zero is refused: {0: 0, 1: 0} read as v (e_0 - e_1) would
    # join columns 0 and 1
    with pytest.raises(TypeError):
        rat_rank(SparseMatrix(2, 2, [{0: 0, 1: 0}, {0: 1}]))


def _never(*args):
    raise AssertionError("an elimination or pivot started")


@pytest.mark.parametrize("row", [{0: Fraction(1, 2)}, {0: Fraction(2)},
                                 {0: True}, {0: 1, 1: 0}])
def test_kernels_refuse_rows_that_are_not_nonzero_ints(row, monkeypatch):
    # the exact kernels read rows as they are, so a Fraction, a bool or a
    # stored zero must raise before any elimination or pivot
    for name in ("_contract_equalities", "_bareiss_rank", "_simplex_index",
                 "_phase1_simplex"):
        monkeypatch.setattr(exactmath, name, _never)
    with pytest.raises(TypeError):
        rat_rank(SparseMatrix(2, 2, [row, {0: 1}]))
    with pytest.raises(TypeError):
        lp_feasible(SparseMatrix(2, 2, [row, {0: 1}]), [1, 1])


def test_rank_matches_plain_elimination():
    rng = random.Random(7)
    for _ in range(60):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = integer_rows(random_rational_matrix(rng, rows, cols))
        assert rat_rank(m) == plain_rank(m)
    # int entries past float precision: the oracle must stay exact on them
    big = RatMatrix(2, 2, [[1, 2**60], [1, 2**60 + 1]])
    assert rat_rank(sparse(big)) == plain_rank(big) == 2


def _product(a, b):
    adata, bdata = a.data, b.data
    return RatMatrix(a.rows, b.cols, [
        [sum((adata[i][k] * bdata[k][j] for k in range(a.cols)), Fraction(0))
         for j in range(b.cols)] for i in range(a.rows)])


@pytest.mark.parametrize("max_den", [1, 9])
def test_rank_of_low_rank_products_matches_plain_elimination(max_den):
    # integer (max_den=1) and rational inputs: a random matrix, and an
    # r x k times k x c product of rank <= k < c
    rng = random.Random(11 + max_den)
    for _ in range(60):
        rows, cols = rng.randint(2, 9), rng.randint(2, 9)
        inner = rng.randint(1, cols - 1)
        low = _product(random_rational_matrix(rng, rows, inner, max_den=max_den),
                       random_rational_matrix(rng, inner, cols, max_den=max_den))
        for m in (random_rational_matrix(rng, rows, cols, max_den=max_den), low):
            m = integer_rows(m)
            assert rat_rank(m) == plain_rank(m)


@pytest.mark.parametrize("rows, rank", [
    # big-integer edge cases: a Mersenne prime entry, a kernel entry of
    # 2^40, and a contracted class whose two columns sum to that prime
    ([[2**61 - 1, 0], [0, 1]], 2),
    ([[1, 2**40], [3, 3 * 2**40]], 1),
    ([[1, -1, 0], [2**61 - 1, 0, 0], [0, 0, 1]], 3),
])
def test_rank_falls_back_to_bareiss_when_undecided(rows, rank):
    m = RatMatrix.from_rows(rows)
    assert rat_rank(sparse(m)) == plain_rank(m) == rank


def _planted_equalities(rng, cols):
    """Rows v (e_a - e_b) along a chain (closed to a cycle half the time),
    duplicated and negated copies, decoys that must not be contracted, and
    an r x k times k x cols product block of rank <= k."""
    def row(entries):
        out = [0] * cols
        for c, v in entries:
            out[c] = v
        return out

    def scale():
        return rng.choice([1, -2, 7, Fraction(1, 2), Fraction(-3, 4)])

    chain = rng.sample(range(cols), rng.randint(2, cols))
    links = list(zip(chain, chain[1:]))
    if rng.random() < 0.5:
        links.append((chain[-1], chain[0]))
    rows = []
    for a, b in links:
        v = scale()
        rows.append(row([(a, v), (b, -v)]))
    for r in rng.sample(rows, min(2, len(rows))):
        rows.append(list(r))
        rows.append([-v for v in r])
    a, b = rng.sample(range(cols), 2)
    v = rng.randint(1, 5)
    decoys = [row([(a, v), (b, v)]),
              row([(a, v), (b, -v - rng.randint(1, 3))]),
              row([(rng.randrange(cols), scale())])]
    rows.extend(rng.sample(decoys, rng.randint(0, 3)))
    inner = rng.randint(1, 3)
    block = _product(random_rational_matrix(rng, rng.randint(0, 4), inner,
                                            max_den=rng.choice([1, 6])),
                     random_rational_matrix(rng, inner, cols, max_den=1))
    rows.extend(block.data)
    rng.shuffle(rows)
    return RatMatrix(len(rows), cols, rows)


def assert_contraction_matches_reference(m):
    """_contract_equalities gives the reference's classes, class count and
    contracted rows, in order, with the rows it leaves empty dropped."""
    cls, k, contracted = _contract_equalities(m.data, m.cols)
    want_cls, want_k, want = reference_contract_equalities(m.data, m.cols)
    assert (cls, k) == (want_cls, want_k)
    assert contracted == [row for row in want if row]
    return k


def test_rank_with_planted_equality_rows_matches_plain_elimination():
    rng = random.Random(23)
    for _ in range(120):
        m = integer_rows(_planted_equalities(rng, rng.randint(2, 9)))
        assert assert_contraction_matches_reference(m) < m.cols
        assert rat_rank(m) == plain_rank(m)
    # the last row cancels within the one class: its columns must be summed
    m = RatMatrix.from_rows([[1, -1, 0], [0, 1, -1], [1, 1, -2]])
    assert rat_rank(sparse(m)) == plain_rank(m) == 2


@pytest.mark.parametrize("rows, classes, kept", [
    ([[3, -3, 0], [0, 5, -5]], [0, 0, 0], 0),  # a chain joins all three
    ([[2, 2, 0], [0, 1, -2], [4, 0, 0]], [0, 1, 2], 3),  # decoys stay
    ([[0, 1, -1], [0, -1, 1], [1, 1, 1]], [0, 1, 1], 1),
])
def test_contraction_joins_only_equality_rows(rows, classes, kept):
    cls, k, others = _contract_equalities(
        sparse(RatMatrix.from_rows(rows)).data, len(rows[0]))
    assert cls == classes
    assert k == max(classes) + 1
    assert len(others) == kept


def test_contraction_of_n6_support_columns_matches_reference():
    # the systems whose rank verify reads: every 18th admissible sigma at
    # n=6 and (1 5)(2 6), whose support columns are rank-deficient (k = 2)
    phi = build_phi_constraints(6)
    sigmas = list(enumerate_counterexample_sigmas(6))[::18]
    sigmas.append(parse_permutation("(1 5)(2 6)", 6))
    ks = []
    for sigma in sigmas:
        sub = phi.column_submatrix(support_columns(build_T(6, sigma)))
        ks.append(assert_contraction_matches_reference(sub))
    assert len(sigmas) == 41 and ks[-1] == 2 and rat_rank(sub) == 215


def test_matvec_matches_plain_double_loop():
    rng = random.Random(24)
    kinds = set()
    for _ in range(200):
        m = random_rational_matrix(rng, rng.randint(1, 5), rng.randint(1, 6),
                                   max_den=rng.choice([1, 4, 9]))
        data = m.data
        for row in rng.sample(data, rng.randint(0, m.rows)):
            row[:] = [0] * m.cols if rng.random() < 0.5 else [
                Fraction(rng.randint(-4, 4), rng.choice([2, 3, 6]))
                for _ in row]
        m = RatMatrix(m.rows, m.cols, data)
        x = [rng.choice([0, Fraction(0), rng.randint(-3, 3), 6 * rng.randint(
                 -3, 3), Fraction(rng.randint(-5, 5), rng.randint(1, 6))])
             for _ in range(m.cols)]
        expected = [sum((row[j] * x[j] for j in range(m.cols)), Fraction(0))
                    for row in m.data]
        got = m.matvec(x)
        assert got == expected == fraction_matvec(m, x)
        # an integral entry comes back as an int, any other as a Fraction
        assert [type(v) for v in got] == [
            int if v.denominator == 1 else Fraction for v in expected]
        kinds.update(type(v) for v in got)
    assert kinds == {int, Fraction}
    with pytest.raises(ValueError):
        RatMatrix(2, 2, [[1, 0], [0, 1]]).matvec([1])


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_matvec_on_T_matches_fraction_oracle(n):
    # T v_m for every sigma and symbol m: rows of n 1/n's or of zeros on
    # v_m's support, each summed to an int 1 or 0
    for sigma in all_permutations(n):
        t = build_T(n, sigma)
        b = [m for row in build_B(n, sigma).entry for m in row]
        for m in range(1, n + 1):
            v = [int(x == m) for x in b]
            got = t.matvec(v)
            assert got == fraction_matvec(t, v)
            assert {type(u) for u in got} == {int} and sum(got) == n


def test_int_view_matches_cell_scan():
    # the view against a scan of every cell, in flat order, L and the ints:
    # on T for every sigma up to n = 5, as build_T writes it and as a copy
    # built from its dense rows; on seeded rational matrices with negative
    # entries, mixed denominators and zeroed rows; on an all-zero matrix and
    # 1 x 1 ones.  The same matrix built four ways (the dense constructor,
    # from_rows, from_view of its view scaled by k, and parse_matrix of
    # format_matrix) has one view, an integral entry reads as an int, and
    # writing into the rows that .data returns leaves the matrix as it was.
    rng = random.Random(28)
    ts = [build_T(n, s) for n in range(1, 6) for s in all_permutations(n)]
    matrices = ts + [RatMatrix(t.rows, t.cols, t.data) for t in ts]
    for _ in range(100):
        m = random_rational_matrix(rng, rng.randint(1, 6), rng.randint(1, 6),
                                   max_den=rng.choice([1, 4, 9, 12]))
        data = m.data
        for row in rng.sample(data, rng.randint(0, m.rows)):
            row[:] = [0] * m.cols
        matrices.append(RatMatrix(m.rows, m.cols, data))
    matrices += [RatMatrix(3, 4, [[0] * 4] * 3),
                 RatMatrix(1, 1, [[Fraction(-2, 3)]]),
                 RatMatrix(1, 1, [[5]]), RatMatrix(1, 1, [[0]])]
    for m in matrices:
        mult, flat, ints = plain_int_view(m)
        view = m.int_view()
        assert view == (mult, tuple(flat), tuple(ints))
        assert {type(v) for v in view[2]} <= {int} and m.int_view() is view
        k = rng.randint(1, 6)
        data = m.data
        ways = [RatMatrix(m.rows, m.cols, data), RatMatrix.from_rows(data),
                RatMatrix.from_view(m.rows, m.cols, k * mult, flat,
                                    [k * v for v in ints]),
                parse_matrix(format_matrix(m))]
        for again in ways:
            assert again == m and again.int_view() == view
        assert all(type(v) is (int if Fraction(v).denominator == 1
                               else Fraction) for row in data for v in row)
        data[0][0] += 1
        assert m == ways[0] and m.data != data
    t1 = build_T(1, parse_permutation("()", 1))
    assert t1.data == [[1]] and type(t1.data[0][0]) is int


def test_rank_transpose_invariant():
    rng = random.Random(8)
    for _ in range(40):
        m = random_rational_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        mt = RatMatrix(m.cols, m.rows, [list(col) for col in zip(*m.data)])
        assert rat_rank(integer_rows(m)) == rat_rank(integer_rows(mt))


def test_rank_row_scaling_and_permutation_invariant():
    rng = random.Random(9)
    for _ in range(30):
        m = random_rational_matrix(rng, rng.randint(2, 5), rng.randint(2, 5))
        scaled = [list(row) for row in m.data]
        for row in scaled:
            f = Fraction(rng.randint(1, 5), rng.randint(1, 5))
            if rng.random() < 0.5:
                f = -f
            for j in range(len(row)):
                row[j] *= f
        rng.shuffle(scaled)
        assert rat_rank(integer_rows(m)) == rat_rank(
            integer_rows(RatMatrix(m.rows, m.cols, scaled)))


def test_lp_trivial_feasible():
    c = sparse(RatMatrix.from_rows([[1, 1]]))
    res = lp_feasible(c, [1])
    assert res.status == FEASIBLE
    assert res.witness == [Fraction(1), Fraction(0)]


def test_lp_trivial_infeasible():
    c = sparse(RatMatrix.from_rows([[1, 1]]))
    res = lp_feasible(c, [-1])
    assert res.status == INFEASIBLE
    assert res.farkas == [Fraction(1)]
    assert check_farkas(c, [Fraction(-1)], res.farkas)


def test_check_farkas_rejects_bad_vector():
    c = sparse(RatMatrix.from_rows([[1, 1]]))
    assert not check_farkas(c, [Fraction(1)], [Fraction(1)])


def test_lp_dimension_mismatch():
    c = sparse(RatMatrix.from_rows([[1, 1]]))
    with pytest.raises(ValueError):
        lp_feasible(c, [Fraction(1), Fraction(2)])
    with pytest.raises(ValueError):
        check_farkas(c, [Fraction(1)], [Fraction(1), Fraction(2)])


def test_lp_random_feasible_roundtrip():
    # Systems built from a known nonnegative solution must come back feasible
    # with a witness that re-substitutes exactly.
    rng = random.Random(11)
    for _ in range(40):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 7)
        c = random_rational_matrix(rng, rows, cols)
        x = [Fraction(rng.randint(0, 5), rng.randint(1, 4)) for _ in range(cols)]
        d = c.matvec(x)
        ci, di = integer_rows(c, d)
        res = lp_feasible(ci, *ints_over(di))
        assert res.status == FEASIBLE
        assert c.matvec(res.witness) == d
        assert all(v >= 0 for v in res.witness)


def test_lp_random_certificates_verify():
    rng = random.Random(12)
    infeasible_seen = 0
    for _ in range(60):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 5)
        c = random_rational_matrix(rng, rows, cols)
        d = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rows)]
        ci, di = integer_rows(c, d)
        res = lp_feasible(ci, *ints_over(di))
        if res.status == FEASIBLE:
            assert c.matvec(res.witness) == d
            assert all(v >= 0 for v in res.witness)
        else:
            infeasible_seen += 1
            assert check_farkas(ci, di, res.farkas)
    assert infeasible_seen > 0


def test_lp_deterministic():
    rng = random.Random(13)
    c = integer_rows(random_rational_matrix(rng, 4, 6))
    d = [1, 0, 2, 1]
    first = lp_feasible(c, d)
    second = lp_feasible(c, d)
    assert first.status == second.status
    assert first.witness == second.witness
    assert first.farkas == second.farkas


def test_lp_zero_columns():
    c = SparseMatrix(2, 0, [{}, {}])
    assert lp_feasible(c, [0, 0]).status == FEASIBLE
    res = lp_feasible(c, [0, 1])
    assert res.status == INFEASIBLE
    assert check_farkas(c, [Fraction(0), Fraction(1)], res.farkas)


def _degenerate_system(rng, kind):
    """A small random system {x >= 0 : Cx = d} of the given degenerate kind."""
    rows, cols = rng.randint(1, 4), rng.randint(1, 6)
    data = [[Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))
             for _ in range(cols)] for _ in range(rows)]
    if rng.random() < 0.5:
        # Right-hand side from a nonnegative point, so feasible ones occur.
        x = [Fraction(rng.randint(0, 3)) for _ in range(cols)]
        d = [sum((a * b for a, b in zip(row, x)), Fraction(0)) for row in data]
    else:
        d = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(rows)]
    if kind == "zero rhs":
        d = [Fraction(0)] * rows
    elif kind == "zero column":
        j = rng.randrange(cols)
        for row in data:
            row[j] = Fraction(0)
    elif kind == "duplicate column":
        j = rng.randrange(cols)
        for row in data:
            row.append(row[j])
    elif kind == "dependent row":
        a, b = rng.randint(-2, 2), rng.randint(-2, 2)
        i, k = rng.randrange(rows), rng.randrange(rows)
        data.append([a * u + b * v for u, v in zip(data[i], data[k])])
        d.append(a * d[i] + b * d[k] + rng.choice((0, 0, 1)))
    elif kind == "negative rhs":
        d = [-abs(v) - rng.randint(0, 1) for v in d]
    if rng.random() < 0.5:
        # Integer rows, as the Psi membership LP passes them.
        data = [[int(v * 6) for v in row] for row in data]
        d = [v * 6 for v in d]
    return RatMatrix(len(data), len(data[0]), data), d


DEGENERATE_KINDS = ("plain", "zero rhs", "zero column", "duplicate column",
                    "dependent row", "negative rhs")


def test_lp_status_matches_basis_enumeration():
    rng = random.Random(2024)
    seen = {FEASIBLE: 0, INFEASIBLE: 0}
    for trial in range(240):
        system = _degenerate_system(rng, DEGENERATE_KINDS[trial % 6])
        ci, d = integer_rows(*system)
        c = dense(ci)
        res = lp_feasible(ci, *ints_over(d))
        assert res.feasible == brute_lp_feasible(c, d), (trial, c.data, d)
        # The revised simplex takes the dense tableau's pivots, so it returns
        # the same witness or Farkas vector.
        out = res.witness if res.feasible else res.farkas
        assert (res.status, out) == reference_simplex(c, d), (trial, c.data, d)
        seen[res.status] += 1
    assert min(seen.values()) >= 40, seen


def test_lp_integer_rhs_matches_fraction_rhs():
    # The systems of test_lp_status_matches_basis_enumeration, with d given
    # as ints over a scale (the lcm of its denominators, and 6 times it):
    # the same status, witness and Farkas vector as the dense reference
    # tableau gives for d as Fractions.  The certificate is the Farkas
    # vector in ints over one positive scale.  A d that holds a Fraction, a
    # string or a float is refused.
    rng = random.Random(2024)
    seen = set()
    for trial in range(240):
        system = _degenerate_system(rng, DEGENERATE_KINDS[trial % 6])
        ci, d = integer_rows(*system)
        want = reference_simplex(dense(ci), d)
        for extra in (1, 6):
            ints, scale = ints_over(d, extra)
            res = lp_feasible(ci, ints, scale=scale)
            assert (res.status, res.witness if res.feasible else res.farkas
                    ) == want, (trial, extra)
            if not res.feasible:
                ys, yscale = res.certificate
                assert yscale > 0 and all(type(v) is int for v in ys)
                assert [Fraction(v, yscale) for v in ys] == res.farkas
        seen.add(res.status)
        for bad in ([Fraction(v) for v in d], [str(v) for v in d],
                    [float(v) for v in d]):
            with pytest.raises(TypeError):
                lp_feasible(ci, bad)
    assert seen == {FEASIBLE, INFEASIBLE}


def _corrupted_simplex(monkeypatch, corrupt):
    """Make lp_feasible's simplex hand corrupt(status, answer) back."""
    real = exactmath._phase1_simplex

    def wrong(*args):
        return corrupt(*real(*args))

    monkeypatch.setattr(exactmath, "_phase1_simplex", wrong)


def test_pivot_budget_stops_the_simplex(monkeypatch, capsys, tmp_path):
    # a simplex past its pivot budget raises, and the CLI reports an internal
    # divergence; with the budget at 0 every LP that pivots at all is past it
    from tensorhull import cli

    c, d = sparse(SELF_CHECK_C), [1, 3]
    assert lp_feasible(c, d, 2).feasible
    matrix = tmp_path / "t.txt"
    matrix.write_text(format_matrix(build_T(4, parse_permutation("(3 4)", 4))))
    argv = ["psi-oracle", str(matrix), "--n", "4", "--mode", "full"]
    assert cli.main(argv) == 0
    monkeypatch.setattr(exactmath, "PIVOTS_PER_ROW", 0)
    with pytest.raises(AssertionError, match="pivot budget"):
        lp_feasible(c, d, 2)
    capsys.readouterr()
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert "verification divergence" in err and "pivot budget" in err


# C has independent columns, so a witness that moves weight to another
# column, even one outside its support, no longer gives Cx = d.
SELF_CHECK_C = RatMatrix.from_rows([[1, 0, 1, 2], [0, 1, 1, 3]])


@pytest.mark.parametrize("shift", [1, 2, 3])
def test_lp_witness_moved_fails_resubstitution(monkeypatch, shift):
    c, d = sparse(SELF_CHECK_C), [1, 3]
    x = lp_feasible(c, d, 2).witness
    j = next(j for j, v in enumerate(x) if v)

    def moved(status, x):
        x = list(x)
        x[(j + shift) % 4] += x[j]
        x[j] = 0
        return status, x

    _corrupted_simplex(monkeypatch, moved)
    with pytest.raises(AssertionError, match="re-substitution"):
        lp_feasible(c, d, 2)


def test_lp_witness_negative_entry_fails(monkeypatch):
    c, d = sparse(SELF_CHECK_C), [1, 2]

    def negative(status, x):
        return status, [*x[:3], Fraction(-1, 3)]

    _corrupted_simplex(monkeypatch, negative)
    with pytest.raises(AssertionError, match="negative witness entry"):
        lp_feasible(c, d)


@pytest.mark.parametrize("row, delta", [(0, -1), (1, -2), (1, 5)])
def test_lp_farkas_perturbed_fails_the_check(monkeypatch, row, delta):
    # {x >= 0 : x_0 + x_1 = 1, x_0 + 2 x_1 = 3} is empty; each perturbed
    # certificate (delta times the scale, added at row) proves nothing.
    c, d = sparse(RatMatrix.from_rows([[1, 1], [1, 2]])), [1, 3]
    ys, scale = lp_feasible(c, d).certificate
    bad = list(ys)
    bad[row] += delta * scale
    assert check_farkas(c, d, ys) and not check_farkas(c, d, bad)

    def perturbed(status, certificate):
        return status, (bad, scale)

    _corrupted_simplex(monkeypatch, perturbed)
    with pytest.raises(AssertionError, match="farkas check"):
        lp_feasible(c, d)


def test_lp_farkas_is_built_once_on_first_read():
    c = sparse(RatMatrix.from_rows([[1, 1]]))
    res = lp_feasible(c, [-3], scale=2)
    assert res.certificate == ([2], 1)
    assert res.farkas is res.farkas == [Fraction(2)]
    with pytest.raises(AttributeError):
        res.farkas = [Fraction(2)]
    with pytest.raises(ValueError):
        lp_feasible(c, [1], scale=0)


def test_lp_on_one_matrix_matches_a_fresh_copy():
    # lp_feasible keeps C's column index on the matrix; a matrix solved for
    # several d must answer each as a fresh copy does, and as the dense
    # reference tableau does.
    rng = random.Random(2027)
    seen = set()
    for trial in range(120):
        c, d = _degenerate_system(rng, DEGENERATE_KINDS[trial % 6])
        kept = integer_rows(c)
        others = [[Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3)))
                   for _ in d] for _ in range(3)]
        for rhs in (d, *others, d):
            fresh, rhs = integer_rows(c, rhs)
            ints = ints_over(rhs)
            res, again = lp_feasible(kept, *ints), lp_feasible(fresh, *ints)
            assert (res.status, res.witness, res.farkas) == (
                again.status, again.witness, again.farkas), (trial, rhs)
            out = res.witness if res.feasible else res.farkas
            assert (res.status, out) == reference_simplex(dense(kept),
                                                          rhs), trial
            seen.add(res.status)
        # Column j of the index lists the (row, value) of its nonzeros; the
        # kept column sums are the sums of C's columns, and the rows by value
        # hold each row's nonzeros once, grouped by value.
        assert kept._simplex == [
            [(i, row[j]) for i, row in enumerate(kept.data) if j in row]
            for j in range(kept.cols)]
        assert kept._colsums == [sum(row.get(j, 0) for row in kept.data)
                                 for j in range(kept.cols)]
        assert [{j: v for v, js in runs for j in js}
                for runs in kept._by_value] == kept.data
        assert all(len({v for v, _ in runs}) == len(runs)
                   for runs in kept._by_value)
    assert seen == {FEASIBLE, INFEASIBLE}


def test_check_farkas_matches_dense_oracle():
    # The systems of test_lp_status_matches_basis_enumeration: the sparse
    # check must agree with the dense column sums on each Farkas vector (a
    # seeded vector for the feasible systems), and again after one of its
    # entries is perturbed.
    rng = random.Random(2024)
    yrng = random.Random(2025)
    verdicts = set()
    for trial in range(240):
        system = _degenerate_system(rng, DEGENERATE_KINDS[trial % 6])
        ci, d = integer_rows(*system)
        c = dense(ci)
        res = lp_feasible(ci, *ints_over(d))
        y = res.farkas or [Fraction(yrng.randint(-3, 3), yrng.randint(1, 3))
                           for _ in range(c.rows)]
        perturbed = list(y)
        perturbed[yrng.randrange(c.rows)] += Fraction(yrng.choice((-1, 1)),
                                                      yrng.randint(1, 4))
        for vector in (y, perturbed):
            verdict = check_farkas(ci, d, vector)
            assert verdict == dense_check_farkas(c, d, vector), (trial, vector)
            verdicts.add((res.feasible, vector is y, verdict))
    # Every Farkas vector passes, and some perturbations break one.
    assert (False, True, True) in verdicts
    assert (False, False, False) in verdicts
    assert (False, True, False) not in verdicts


def test_matrix_text_roundtrip():
    rng = random.Random(14)
    m = random_rational_matrix(rng, 3, 4)
    assert parse_matrix(format_matrix(m)) == m


def test_matrix_text_parse_errors():
    with pytest.raises(ValueError):
        parse_matrix("")
    with pytest.raises(ValueError):
        parse_matrix("2 2\n1 2\n3")
    with pytest.raises(ValueError):
        parse_matrix("1\n1")
    with pytest.raises(ValueError, match="1/0"):
        parse_matrix("1 1\n1/0")


@pytest.mark.parametrize("entry", ["0", "-0", "+3", "6/3", "3/4", "1.5",
                                   "3.0", "1e2", "x", "1/0"])
def test_parse_matrix_entry_is_fraction_of_its_text(entry):
    # the value and the accepted spellings are Fraction(entry)'s; an
    # integral value is held as an int
    try:
        want = Fraction(entry)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(ValueError, match=entry):
            parse_matrix(f"1 1\n{entry}")
        return
    (value,), = parse_matrix(f"1 1\n{entry}").data
    assert value == want
    assert type(value) is (int if want.denominator == 1 else Fraction)


def test_scalars_keep_ints_and_reject_floats():
    m = RatMatrix.from_rows([[1, 2], ["3/4", Fraction(5, 6)]])
    assert m.data == [[1, 2], [Fraction(3, 4), Fraction(5, 6)]]
    assert [type(v) for v in m.data[0]] == [int, int]
    with pytest.raises(TypeError):
        RatMatrix.from_rows([[1, 0.5]])
    for bad in (0.5, "1/2", True):
        with pytest.raises(TypeError):
            RatMatrix(1, 1, [[bad]])
    with pytest.raises(TypeError):
        lp_feasible(sparse(RatMatrix.from_rows([[1, 1]])), [1.0])
    res = lp_feasible(sparse(RatMatrix.from_rows([[1, 2]])), [4])
    assert res.witness == [0, 2]


def test_matrix_shape_validation():
    with pytest.raises(ValueError):
        RatMatrix(2, 2, [[Fraction(1)]])
