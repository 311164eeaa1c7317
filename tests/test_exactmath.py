"""Exact matrices, rank, and the LP feasibility kernel."""

import random
from fractions import Fraction

import pytest

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
from helpers import (
    brute_lp_feasible,
    dense_check_farkas,
    plain_rank,
    random_rational_matrix,
    reference_simplex,
    sparse,
)


def test_rank_identity():
    assert rat_rank(sparse(RatMatrix.identity(3))) == 3


def test_rank_proportional_rows():
    m = RatMatrix.from_rows([[1, 2], [2, 4]])
    assert rat_rank(sparse(m)) == 1


def test_rank_empty():
    assert rat_rank(sparse(RatMatrix(0, 0, []))) == 0
    assert rat_rank(sparse(RatMatrix.zeros(3, 2))) == 0
    # stored zeros are not entries: {0: 0, 1: 0} must not join columns 0, 1
    assert rat_rank(SparseMatrix(2, 2, [{0: 0, 1: 0}, {0: 1}])) == 1


def test_rank_matches_plain_elimination():
    rng = random.Random(7)
    for _ in range(60):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = random_rational_matrix(rng, rows, cols)
        assert rat_rank(sparse(m)) == plain_rank(m)
    # int entries past float precision: the oracle must stay exact on them
    big = RatMatrix(2, 2, [[1, 2**60], [1, 2**60 + 1]])
    assert rat_rank(sparse(big)) == plain_rank(big) == 2


def _product(a, b):
    return RatMatrix(a.rows, b.cols, [
        [sum((a.data[i][k] * b.data[k][j] for k in range(a.cols)), Fraction(0))
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
            expected = plain_rank(m)
            assert rat_rank(sparse(m)) == expected


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


def test_rank_with_planted_equality_rows_matches_plain_elimination():
    rng = random.Random(23)
    for _ in range(120):
        m = _planted_equalities(rng, rng.randint(2, 9))
        _, k, _ = _contract_equalities(sparse(m).data, m.cols)
        assert k < m.cols
        assert rat_rank(sparse(m)) == plain_rank(m)
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


def test_matvec_matches_plain_double_loop():
    rng = random.Random(24)
    for _ in range(40):
        m = random_rational_matrix(rng, rng.randint(1, 5), rng.randint(1, 6))
        x = [rng.choice([0, Fraction(0), rng.randint(-3, 3),
                         Fraction(rng.randint(-5, 5), rng.randint(1, 6))])
             for _ in range(m.cols)]
        expected = [sum((row[j] * x[j] for j in range(m.cols)), Fraction(0))
                    for row in m.data]
        assert m.matvec(x) == expected
    with pytest.raises(ValueError):
        RatMatrix.identity(2).matvec([1])


def test_rank_transpose_invariant():
    rng = random.Random(8)
    for _ in range(40):
        m = random_rational_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        assert rat_rank(sparse(m)) == rat_rank(sparse(m.transpose()))


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
        assert rat_rank(sparse(m)) == rat_rank(
            sparse(RatMatrix(m.rows, m.cols, scaled)))


def test_lp_trivial_feasible():
    c = sparse(RatMatrix.from_rows([[1, 1]]))
    res = lp_feasible(c, [Fraction(1)])
    assert res.status == FEASIBLE
    assert res.witness == [Fraction(1), Fraction(0)]


def test_lp_trivial_infeasible():
    c = sparse(RatMatrix.from_rows([[1, 1]]))
    res = lp_feasible(c, [Fraction(-1)])
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
        res = lp_feasible(sparse(c), d)
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
        res = lp_feasible(sparse(c), d)
        if res.status == FEASIBLE:
            assert c.matvec(res.witness) == d
            assert all(v >= 0 for v in res.witness)
        else:
            infeasible_seen += 1
            assert check_farkas(sparse(c), d, res.farkas)
    assert infeasible_seen > 0


def test_lp_deterministic():
    rng = random.Random(13)
    c = sparse(random_rational_matrix(rng, 4, 6))
    d = [Fraction(v) for v in (1, 0, 2, 1)]
    first = lp_feasible(c, d)
    second = lp_feasible(c, d)
    assert first.status == second.status
    assert first.witness == second.witness
    assert first.farkas == second.farkas


def test_lp_zero_columns():
    c = SparseMatrix(2, 0, [{}, {}])
    assert lp_feasible(c, [Fraction(0), Fraction(0)]).status == FEASIBLE
    res = lp_feasible(c, [Fraction(0), Fraction(1)])
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
        c, d = _degenerate_system(rng, DEGENERATE_KINDS[trial % 6])
        res = lp_feasible(sparse(c), d)
        assert res.feasible == brute_lp_feasible(c, d), (trial, c.data, d)
        # The revised simplex takes the dense tableau's pivots, so it returns
        # the same witness or Farkas vector.
        out = res.witness if res.feasible else res.farkas
        assert (res.status, out) == reference_simplex(c, d), (trial, c.data, d)
        seen[res.status] += 1
    assert min(seen.values()) >= 40, seen


def test_check_farkas_matches_dense_oracle():
    # The systems of test_lp_status_matches_basis_enumeration: the sparse
    # check must agree with the dense column sums on each Farkas vector (a
    # seeded vector for the feasible systems), and again after one of its
    # entries is perturbed.
    rng = random.Random(2024)
    yrng = random.Random(2025)
    verdicts = set()
    for trial in range(240):
        c, d = _degenerate_system(rng, DEGENERATE_KINDS[trial % 6])
        res = lp_feasible(sparse(c), d)
        y = res.farkas or [Fraction(yrng.randint(-3, 3), yrng.randint(1, 3))
                           for _ in range(c.rows)]
        perturbed = list(y)
        perturbed[yrng.randrange(c.rows)] += Fraction(yrng.choice((-1, 1)),
                                                      yrng.randint(1, 4))
        for vector in (y, perturbed):
            verdict = check_farkas(sparse(c), d, vector)
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
    with pytest.raises(TypeError):
        lp_feasible(sparse(RatMatrix.from_rows([[1, 1]])), [1.0])
    res = lp_feasible(sparse(RatMatrix.from_rows([[1, 2]])), [4])
    assert res.witness == [0, 2]


def test_matrix_shape_validation():
    with pytest.raises(ValueError):
        RatMatrix(2, 2, [[Fraction(1)]])
