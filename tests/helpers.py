"""Independent oracle implementations shared by the test modules.

Everything here is deliberately written without reusing the library's code
paths: plain rational Gaussian elimination instead of Bareiss, brute-force
searches instead of anchored ones, and explicit constructions instead of LP
solves.  Tests compare library results against these.
"""

import itertools
import math
from fractions import Fraction

from tensorhull.circulants import build_A, build_B
from tensorhull.exactmath import RatMatrix, SparseMatrix
from tensorhull.permutations import Permutation, all_permutations
from tensorhull.polytopes import TensorIndex, kron_support

# The published 16x16 transfer matrix for n=4, sigma=(3 4), transcribed by
# hand as the 1-based column positions of the 1/4 entries in each row.
PRINTED_T_COLUMNS = (
    (1, 8, 11, 14), (2, 5, 12, 15), (4, 7, 10, 13), (3, 6, 9, 16),
    (2, 5, 12, 15), (4, 7, 10, 13), (3, 6, 9, 16), (1, 8, 11, 14),
    (4, 7, 10, 13), (3, 6, 9, 16), (1, 8, 11, 14), (2, 5, 12, 15),
    (3, 6, 9, 16), (1, 8, 11, 14), (2, 5, 12, 15), (4, 7, 10, 13),
)


def printed_transfer_matrix() -> RatMatrix:
    zero, quarter = Fraction(0), Fraction(1, 4)
    data = []
    for cols in PRINTED_T_COLUMNS:
        row = [zero] * 16
        for c in cols:
            row[c - 1] = quarter
        data.append(row)
    return RatMatrix(16, 16, data)


def plain_rank(m: RatMatrix | SparseMatrix) -> int:
    """Rank by textbook rational Gaussian elimination (pivot, scale, clear).

    A SparseMatrix is written out dense first.  Entries are copied as
    Fractions: on int entries `1 / v` is a float.
    """
    if isinstance(m, SparseMatrix):
        m = dense(m)
    data = [[Fraction(v) for v in row] for row in m.data]
    nrows, ncols = m.rows, m.cols
    rank = 0
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if data[i][c]), None)
        if piv is None:
            continue
        data[r], data[piv] = data[piv], data[r]
        inv = 1 / data[r][c]
        data[r] = [v * inv for v in data[r]]
        for i in range(nrows):
            if i != r and data[i][c]:
                f = data[i][c]
                data[i] = [a - f * b for a, b in zip(data[i], data[r])]
        rank += 1
        r += 1
        if r == nrows:
            break
    return rank


def plain_residuals(sys, c: RatMatrix):
    """Per-row residuals C_r . x - d_r of the row-major flattening x of c,
    accumulated entry by entry as Fractions."""
    x = [Fraction(v) for row in c.data for v in row]
    out = []
    for row, rhs in zip(sys.rows, sys.d):
        acc = Fraction(-rhs)
        for col, v in row.items():
            acc += v * x[col]
        out.append(acc)
    return out


def random_rational_matrix(rng, rows: int, cols: int, max_num: int = 9,
                           max_den: int = 9) -> RatMatrix:
    """Random small-fraction matrix (rng: random.Random)."""
    data = [[Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))
             for _ in range(cols)] for _ in range(rows)]
    return RatMatrix(rows, cols, data)


def brute_power_set(n: int):
    """All powers of the cycle as image tuples, built by direct iteration."""
    powers = set()
    cur = tuple(range(1, n + 1))
    for _ in range(n):
        powers.add(cur)
        cur = tuple((v % n) + 1 for v in cur)
    return powers


def brute_is_admissible(image: tuple) -> bool:
    """sigma rho sigma^-1 not a power of rho, built entrywise."""
    n = len(image)
    inv = [0] * n
    for i, v in enumerate(image, 1):
        inv[v - 1] = i
    rho = tuple((i % n) + 1 for i in range(1, n + 1))
    conj = tuple(image[rho[inv[i - 1] - 1] - 1] for i in range(1, n + 1))
    return conj not in brute_power_set(n)


def brute_exists_PQ(a_entry, b_entry):
    """All n!^2 pairs, direct comparison of permuted patterns."""
    n = len(a_entry)
    idx = list(range(n))
    for p in itertools.permutations(range(n)):
        for q in itertools.permutations(range(n)):
            if all(b_entry[p[i]][q[k]] == a_entry[i][k]
                   for i in idx for k in idx):
                return (tuple(v + 1 for v in p), tuple(v + 1 for v in q))
    return None


def brute_admissible_pairs(c: RatMatrix, n: int):
    """Every (p, q) with kron(p, q) inside supp(c): a scan of all n!^2 pairs,
    in lexicographic order of (p image, q image)."""
    perms = list(all_permutations(n))
    data = c.data
    return [(p, q) for p in perms for q in perms
            if all(data[n * i + k][n * (pi - 1) + qk - 1]
                   for i, pi in enumerate(p.image)
                   for k, qk in enumerate(q.image))]


def plain_build_T(n: int, sigma: Permutation) -> RatMatrix:
    """T by comparing the variables of every cell pair: n^4 comparisons."""
    a = build_A(n)
    b = build_B(n, sigma)
    ti = TensorIndex(n)
    val = Fraction(1, n)
    nn = n * n
    data = [[0] * nn for _ in range(nn)]
    for i in range(1, n + 1):
        for k in range(1, n + 1):
            m = a.entry[i - 1][k - 1]
            rf = ti.flat(i, k)
            for j in range(1, n + 1):
                for l in range(1, n + 1):
                    if b.entry[j - 1][l - 1] == m:
                        data[rf][ti.flat(j, l)] = val
    return RatMatrix(nn, nn, data)


def plain_transfer_identity(t: RatMatrix, n: int, sigma: Permutation) -> bool:
    """u_m = T v_m for every variable m, indicators built cell by cell."""
    nn = n * n
    a = build_A(n)
    b = build_B(n, sigma)
    ti = TensorIndex(n)
    for m in range(1, n + 1):
        u = [0] * nn
        v = [0] * nn
        for i in range(1, n + 1):
            for k in range(1, n + 1):
                if a.entry[i - 1][k - 1] == m:
                    u[ti.flat(i, k)] = 1
                if b.entry[i - 1][k - 1] == m:
                    v[ti.flat(i, k)] = 1
        if t.matvec(v) != u:
            return False
    return True


def plain_block_failures(t: RatMatrix, n: int):
    """Names of the slices that are not 1/n times a permutation matrix,
    found by walking every cell of every slice, row by row, with an early
    exit on a row that does not hold exactly one 1/n in a new column."""
    ti = TensorIndex(n)
    rng = range(1, n + 1)
    slices = {
        "fix(i,j)": lambda a, b, x, y: (ti.flat(a, x), ti.flat(b, y)),
        "fix(k,l)": lambda a, b, x, y: (ti.flat(x, a), ti.flat(y, b)),
        "fix(i,l)": lambda a, b, x, y: (ti.flat(a, x), ti.flat(y, b)),
        "fix(k,j)": lambda a, b, x, y: (ti.flat(x, a), ti.flat(b, y)),
    }
    val = Fraction(1, n)
    failures = []
    for name, pick in slices.items():
        for a in rng:
            for b in rng:
                colseen = set()
                ok = True
                for x in rng:
                    hits = []
                    for y in rng:
                        rf, cf = pick(a, b, x, y)
                        v = t.data[rf][cf]
                        if v == val:
                            hits.append(y)
                        elif v:
                            ok = False
                    if len(hits) != 1 or hits[0] in colseen:
                        ok = False
                        break
                    colseen.add(hits[0])
                if not ok:
                    failures.append(f"{name}[{a},{b}]")
    return failures


def random_permutation(rng, n: int) -> Permutation:
    img = list(range(1, n + 1))
    rng.shuffle(img)
    return Permutation(img)


def random_doubly_stochastic(rng, n: int, terms: int | None = None) -> RatMatrix:
    """Exact-rational convex combination of random permutation matrices."""
    if terms is None:
        terms = rng.randint(1, n)
    weights = [Fraction(rng.randint(1, 6)) for _ in range(terms)]
    total = sum(weights)
    weights = [w / total for w in weights]
    data = [[Fraction(0)] * n for _ in range(n)]
    for w in weights:
        perm = random_permutation(rng, n)
        for i in range(1, n + 1):
            data[i - 1][perm(i) - 1] += w
    return RatMatrix(n, n, data)


def tensor_product(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    """Kronecker product with the row-major pair flattening."""
    n = a.rows
    nn = n * n
    data = [[Fraction(0)] * nn for _ in range(nn)]
    for i in range(n):
        for k in range(n):
            for j in range(n):
                for l in range(n):
                    data[n * i + k][n * j + l] = a.data[i][j] * b.data[k][l]
    return RatMatrix(nn, nn, data)


def shift_pair(n: int, m: int):
    """(p, q) with p: i -> i+m and q: k -> k-m, both mod n."""
    p = Permutation([(i - 1 + m) % n + 1 for i in range(1, n + 1)])
    q = Permutation([(k - 1 - m) % n + 1 for k in range(1, n + 1)])
    return p, q


def convex_combination(matrices, weights) -> RatMatrix:
    rows, cols = matrices[0].rows, matrices[0].cols
    data = [[Fraction(0)] * cols for _ in range(rows)]
    for m, w in zip(matrices, weights):
        for r in range(rows):
            for c in range(cols):
                if m.data[r][c]:
                    data[r][c] += w * m.data[r][c]
    return RatMatrix(rows, cols, data)


def brute_lp_feasible(c: RatMatrix, d) -> bool:
    """Whether {x >= 0 : Cx = d} is nonempty, by basic-solution enumeration.

    A nonempty set has a basic feasible point: a set of independent columns
    (at most one per row) whose system C_S x_S = d has a nonnegative
    solution.  Every column subset up to the row count is solved exactly by
    rational Gauss-Jordan elimination on [C_S | d]; subsets with dependent
    columns or an inconsistent system are skipped.
    """
    d = [Fraction(v) for v in d]
    for k in range(min(c.rows, c.cols) + 1):
        for subset in itertools.combinations(range(c.cols), k):
            aug = [[Fraction(row[j]) for j in subset] + [di]
                   for row, di in zip(c.data, d)]
            x = _solve_independent(aug, k)
            if x is not None and all(v >= 0 for v in x):
                return True
    return False


def _solve_independent(aug, k):
    """Unique solution of the k-column augmented system, or None."""
    r = 0
    for col in range(k):
        piv = next((i for i in range(r, len(aug)) if aug[i][col]), None)
        if piv is None:
            return None  # dependent columns
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = 1 / aug[r][col]
        aug[r] = [v * inv for v in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][col]:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        r += 1
    if any(row[k] for row in aug[r:]):
        return None  # inconsistent
    return [aug[i][k] for i in range(k)]


def reference_simplex(c: RatMatrix, d):
    """(status, witness or Farkas vector) for {x >= 0 : Cx = d} from a dense
    Fraction phase-1 tableau that follows lp_feasible's pivot rules.

    Row i of [C | d] is scaled by the lcm of its denominators, negated when
    its rhs is negative, and given an artificial column; phase 1 minimises
    the sum of the artificials.  Entering column: most negative reduced
    cost, lowest index on ties.  Leaving row: least (rhs, artificial
    columns) / pivot entry in lexicographic order, which must be unique.
    The witness is the final basic solution; the Farkas vector is -y mapped
    back through the row scaling, y the duals of the final basis.
    """
    m, nvars = c.rows, c.cols
    tab, mults = [], []
    for i, (row, di) in enumerate(zip(c.data, d)):
        values = [Fraction(v) for v in (*row, di)]
        mult = math.lcm(*(v.denominator for v in values))
        if values[-1] < 0:
            mult = -mult
        scaled = [v * mult for v in values]
        tab.append(scaled[:-1] + [Fraction(int(k == i)) for k in range(m)]
                   + scaled[-1:])
        mults.append(mult)
    # Reduced costs of [A | I | b] for cost 0 on A and 1 on the artificials.
    z = [int(nvars <= j < nvars + m) - sum(col)
         for j, col in enumerate(zip(*tab))]
    basis = list(range(nvars, nvars + m))
    while min(z[:nvars], default=0) < 0:
        e = z.index(min(z[:nvars]))
        keys = sorted(([t[-1] / t[e], *(v / t[e] for v in t[nvars:-1])], i)
                      for i, t in enumerate(tab) if t[e] > 0)
        if len(keys) > 1 and keys[0][0] == keys[1][0]:
            raise AssertionError("lexicographic ratio test left a tie")
        r = keys[0][1]
        tab[r] = [v / tab[r][e] for v in tab[r]]
        for i, t in enumerate(tab):
            if i != r and t[e]:
                f = t[e]
                tab[i] = [a - f * b if b else a for a, b in zip(t, tab[r])]
        f = z[e]
        z = [a - f * b if b else a for a, b in zip(z, tab[r])]
        basis[r] = e
    if not m or z[-1] == 0:
        x = [Fraction(0)] * nvars
        for t, j in zip(tab, basis):
            if j < nvars:
                x[j] = t[-1]
        return "feasible", x
    return "infeasible", [(z[nvars + i] - 1) * mults[i] for i in range(m)]


def sparse(m: RatMatrix) -> SparseMatrix:
    """The SparseMatrix of a dense matrix: its nonzero entries by row."""
    data = [{j: v for j, v in enumerate(row) if v} for row in m.data]
    return SparseMatrix(m.rows, m.cols, data)


def dense(m: SparseMatrix) -> RatMatrix:
    """The dense RatMatrix of a SparseMatrix, zeros written out."""
    data = [[0] * m.cols for _ in range(m.rows)]
    for out, row in zip(data, m.data):
        for j, v in row.items():
            out[j] = v
    return RatMatrix(m.rows, m.cols, data)


def dense_column_submatrix(sys, cols) -> RatMatrix:
    """The constraint rows of sys restricted to cols, written out dense:
    column j of the result holds the coefficients of variable cols[j]."""
    cols = list(cols)
    pos = {c: j for j, c in enumerate(cols)}
    data = []
    for row in sys.rows:
        dense_row = [0] * len(cols)
        for c, v in row.items():
            j = pos.get(c)
            if j is not None:
                dense_row[j] = v
        data.append(dense_row)
    return RatMatrix(sys.nrows, len(cols), data)


def dense_grouped_system(mult: int, rhs, n: int, pairs, groups):
    """The grouped Psi LP data as dense rows: row r, column (p, q) counts the
    members of groups[r] in kron_support(p, q) + [n^4], written into a
    rows x pairs list of lists."""
    n4 = n ** 4
    member = [[] for _ in range(n4 + 1)]
    for r, group in enumerate(groups):
        for v in group:
            member[v].append(r)
    data = [[0] * len(pairs) for _ in groups]
    for j, (p, q) in enumerate(pairs):
        for v in (*kron_support(p, q), n4):
            for r in member[v]:
                data[r][j] += 1
    d = [Fraction(sum(rhs[v] for v in group), mult) for group in groups]
    return RatMatrix(len(groups), len(pairs), data), d


def dense_check_farkas(c: RatMatrix, d, y) -> bool:
    """C'y >= 0 in every column and d'y < 0, summed column by column over
    every entry of the dense rows, in Fractions."""
    cty = [sum((Fraction(row[j]) * yi for row, yi in zip(c.data, y)),
               Fraction(0)) for j in range(c.cols)]
    dty = sum((Fraction(di) * yi for di, yi in zip(d, y)), Fraction(0))
    return all(v >= 0 for v in cty) and dty < 0


def supports_verify_psi_farkas(rhs, n: int, supports, y) -> bool:
    """The Psi re-check column by column: y_0 plus y summed over every
    support (supports[j] = kron_support(p, q) of the j-th pair) is >= 0,
    and rhs'y < 0, in Fractions."""
    y = [Fraction(v) for v in y]
    y0 = y[n ** 4]
    return (all(y0 + sum(y[v] for v in support) >= 0 for support in supports)
            and sum(Fraction(r) * v for r, v in zip(rhs, y)) < 0)
