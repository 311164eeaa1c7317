"""The two polytopes over doubly stochastic n^2 x n^2 matrices.

``Phi`` is the linearly constrained relaxation: doubly stochastic matrices,
indexed by pairs ((i,k),(j,l)), that additionally satisfy four families of
partial-sum balance equations.  ``Psi`` is the convex hull of all Kronecker
products A (x) B of two n x n doubly stochastic matrices; its extreme points
are exactly the products P (x) Q of permutation matrices, so membership in
Psi is a finite, exactly solvable LP over the n!^2 Kronecker vertices.  Its
canonical rows are the n^4 entry equations and the sum-to-1 row; every LP
solved here has rows that each sum one group of them.

Indexing is row-major throughout: the matrix cell (i,k), 1-based, flattens
to n*(i-1)+(k-1), and the entry ((i,k),(j,l)) of an n^2 x n^2 matrix gets
the flat variable index flat(i,k)*n^2 + flat(j,l).
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import factorial
from operator import mul

from .exactmath import (RatMatrix, SparseMatrix, clear_denominators,
                        lp_feasible, rat_rank)
from .permutations import Permutation, all_permutations

SUPPORT_FILTERED = "support_filtered"
FULL = "full"
FULL_MODE_DEFAULT_CAP = 4
# Entries of the largest Psi LP solved, the full n = 5 one (626 x 14,400);
# even as sparse rows, the full n = 6 one would take gigabytes to build.
LP_SIZE_CAP = (5 ** 4 + 1) * factorial(5) ** 2


class TensorIndex:
    """Row-major flattening of index pairs, shared by every module."""

    __slots__ = ("n",)

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("n must be >= 1")
        self.n = n

    def flat(self, i: int, k: int) -> int:
        """(i,k) 1-based -> 0-based position in 0..n^2-1."""
        return self.n * (i - 1) + (k - 1)

    def pair(self, f: int) -> tuple[int, int]:
        return f // self.n + 1, f % self.n + 1

    def var(self, i: int, k: int, j: int, l: int) -> int:
        """Flat variable index of the entry ((i,k),(j,l)) in 0..n^4-1."""
        return self.flat(i, k) * self.n * self.n + self.flat(j, l)


@dataclass
class ConstraintSystem:
    """Equality system C x = d with nonnegativity implicit, rows labeled.

    Rows are stored sparsely as {flat variable index: integer coefficient}
    and d holds ints; a column_submatrix holds the same ints, as a
    SparseMatrix.
    """

    n: int
    rows: list
    d: list
    labels: list

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return self.n ** 4

    def column_submatrix(self, cols) -> SparseMatrix:
        """The rows restricted to cols, column cols[j] renumbered j."""
        pos = {c: j for j, c in enumerate(cols)}
        if len(pos) != len(cols):
            raise ValueError("duplicate column indices")
        data = [{pos[c]: v for c, v in row.items() if c in pos}
                for row in self.rows]
        return SparseMatrix(self.nrows, len(pos), data)


@lru_cache(maxsize=None)
def build_phi_constraints(n: int, strict_families: bool = False) -> ConstraintSystem:
    """All equality rows of the Phi relaxation, with provenance labels.

    Emits 2n^2 global row/column sum rows and four families of (n-1)n^2
    balance rows each.  By default families 3 and 4 distinguish the inner
    index k (k=2..n with i,j free), mirroring families 1 and 2; the literal
    alternate reading (i=2..n with j,k free) sits behind strict_families.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    ti = TensorIndex(n)
    rows, d, labels = [], [], []

    def add(row: dict, rhs: int, label: str):
        rows.append({c: v for c, v in row.items() if v})
        d.append(rhs)
        labels.append(label)

    rng = range(1, n + 1)
    for i in rng:
        for k in rng:
            add({ti.var(i, k, j, l): 1 for j in rng for l in rng}, 1,
                f"rowsum[{i},{k}]")
            add({ti.var(j, l, i, k): 1 for j in rng for l in rng}, 1,
                f"colsum[{i},{k}]")

    def balance(lhs_terms, rhs_terms, label):
        row: dict[int, int] = {}
        for v in lhs_terms:
            row[v] = row.get(v, 0) + 1
        for v in rhs_terms:
            row[v] = row.get(v, 0) - 1
        add(row, 0, label)

    for i in range(2, n + 1):
        for k in rng:
            for l in rng:
                balance((ti.var(i, k, j, l) for j in rng),
                        (ti.var(1, k, j, l) for j in rng),
                        f"fam1[i={i},k={k},l={l}]")
    for i in range(2, n + 1):
        for k in rng:
            for l in rng:
                balance((ti.var(j, k, i, l) for j in rng),
                        (ti.var(1, k, j, l) for j in rng),
                        f"fam2[i={i},k={k},l={l}]")
    if strict_families:
        fam34_outer = [(i, k) for i in range(2, n + 1) for k in rng]
    else:
        fam34_outer = [(i, k) for k in range(2, n + 1) for i in rng]
    for i, k in fam34_outer:
        for j in rng:
            balance((ti.var(i, k, j, l) for l in rng),
                    (ti.var(i, 1, j, l) for l in rng),
                    f"fam3[i={i},k={k},j={j}]")
    for i, k in fam34_outer:
        for j in rng:
            balance((ti.var(i, l, j, k) for l in rng),
                    (ti.var(i, 1, j, l) for l in rng),
                    f"fam4[i={i},k={k},j={j}]")
    return ConstraintSystem(n, rows, d, labels)


@dataclass
class PhiCheck:
    """Outcome of a Phi membership test with per-row diagnostics."""

    ok: bool
    negative_entries: list
    violations: list  # (label, residual) pairs

    def __bool__(self):
        return self.ok


def phi_contains(c: RatMatrix, sys: ConstraintSystem) -> PhiCheck:
    """Exact membership: entries >= 0 and every labeled row at zero residual.

    c's entries are scaled to ints by the lcm L of their denominators, a
    positive factor that keeps every sign; each row's residual
    C_r . x - d_r is then L times an integer sum, reported as a Fraction.
    """
    n = sys.n
    nn = n * n
    if c.rows != nn or c.cols != nn:
        raise ValueError(f"matrix must be {nn} x {nn}")
    ti = TensorIndex(n)
    mult, xs = clear_denominators([v for row in c.data for v in row])
    negative = [(*ti.pair(f // nn), *ti.pair(f % nn))
                for f, v in enumerate(xs) if v < 0]
    violations = []
    for row, rhs, label in zip(sys.rows, sys.d, sys.labels):
        r = sum(map(mul, map(xs.__getitem__, row), row.values())) - rhs * mult
        if r:
            violations.append((label, Fraction(r, mult)))
    return PhiCheck(not negative and not violations, negative, violations)


def kron(p: Permutation, q: Permutation) -> RatMatrix:
    """Kronecker product of the permutation matrices of p and q.

    Entry ((i,k),(j,l)) is 1 iff j = p(i) and l = q(k).
    """
    if p.n != q.n:
        raise ValueError("size mismatch")
    nn = p.n * p.n
    m = RatMatrix.zeros(nn, nn)
    for v in kron_support(p, q):
        m.data[v // nn][v % nn] = 1
    return m


def kron_support(p: Permutation, q: Permutation):
    """Flat variable indices of the n^2 ones of kron(p, q), row-major, each
    the offset of (i, p(i)) plus that of (k, q(k))."""
    n = p.n
    nn = n * n
    qo = [k * nn + qk - 1 for k, qk in enumerate(q.image)]
    return [a + b for i, pi in enumerate(p.image)
            for a in (n * (i * nn + pi - 1),) for b in qo]


def support_columns(c: RatMatrix):
    """Flat variable indices of the nonzero entries of c."""
    return [rf * c.cols + cf
            for rf in range(c.rows) for cf in range(c.cols) if c.data[rf][cf]]


def phi_support_rank(c: RatMatrix, sys: ConstraintSystem) -> tuple[int, int]:
    """(rank of the support columns of the constraint matrix, support size)."""
    supp = support_columns(c)
    return rat_rank(sys.column_submatrix(supp)), len(supp)


def induced_marginals(c: RatMatrix, n: int,
                      sys: ConstraintSystem | None = None):
    """The two n x n marginal matrices of a Phi member.

    alpha[i][j] = sum_l c[(i,1),(j,l)] and beta[k][l] = sum_j c[(1,k),(j,l)];
    both are doubly stochastic for every member.  Raises on non-members.
    """
    if sys is None:
        sys = build_phi_constraints(n)
    if not phi_contains(c, sys).ok:
        raise ValueError("matrix is not in Phi")
    ti = TensorIndex(n)
    rng = range(1, n + 1)
    alpha = [[sum(c.data[ti.flat(i, 1)][ti.flat(j, l)] for l in rng)
              for j in rng] for i in rng]
    beta = [[sum(c.data[ti.flat(1, k)][ti.flat(j, l)] for j in rng)
             for l in rng] for k in rng]
    return RatMatrix(n, n, alpha), RatMatrix(n, n, beta)


# ---------------------------------------------------------------------------
# Psi membership
# ---------------------------------------------------------------------------

@dataclass
class MembershipResult:
    """Verdict of the Psi membership LP.

    When in_psi, ``weights`` maps (p image, q image) tuples to positive
    weights that sum to 1 and reconstruct the input exactly.  Otherwise
    ``farkas`` is a certificate over the canonical system rows (the n^4
    entry equations followed by the weight normalization row), valid for the
    column set in ``pairs`` and re-checked before being returned.
    """

    in_psi: bool
    mode: str
    pairs: list
    weights: dict | None = None
    farkas: list | None = None
    admissible_count: int | None = None


def all_pairs(n: int):
    """All (p, q) in lexicographic order of (p image, q image)."""
    perms = list(all_permutations(n))
    return [(p, q) for p in perms for q in perms]


def admissible_pairs(c: RatMatrix, n: int):
    """Every (p, q) whose Kronecker support sits inside the support of c,
    in lexicographic order of (p image, q image).

    A pruned exhaustive search: p grows one row block i at a time, and for
    each k a bitmask holds the columns l still open to q(k), those with
    c[(i,k),(p(i),l)] nonzero for every placed i.  A prefix of p that
    leaves some k no open column is cut.  The q's of each complete p are
    counted first, and more pairs than check_lp_size allows are refused
    before one is built; then each p lists its q's among the open columns.
    """
    nn = n * n
    if c.rows != nn or c.cols != nn:
        raise ValueError(f"matrix must be {nn} x {nn}")
    rng = range(n)
    # masks[i][j][k]: bit l is set iff c[(i,k),(j,l)] is nonzero.
    masks = [[[sum(1 << l for l in rng if c.data[n * i + k][n * j + l])
               for k in rng] for j in rng] for i in rng]
    found = []  # (p image, open masks) of every complete p

    def qs(open_, k, used):
        if k == n:
            yield ()
            return
        free = open_[k] & ~used
        for l in rng:
            if free >> l & 1:
                for rest in qs(open_, k + 1, used | 1 << l):
                    yield (l + 1, *rest)

    def grow(i, used, p_img, open_):
        if i == n:
            found.append((p_img, tuple(open_)))
            return
        for j in rng:
            if not used >> j & 1:
                nxt = [a & b for a, b in zip(open_, masks[i][j])]
                if all(nxt):
                    grow(i + 1, used | 1 << j, (*p_img, j + 1), nxt)

    @lru_cache(maxsize=None)
    def count(open_, k, used):  # the q's that qs(open_, k, used) would list
        if k == n:
            return 1
        free = open_[k] & ~used
        return sum(count(open_, k + 1, used | 1 << l)
                   for l in rng if free >> l & 1)

    grow(0, 0, (), [(1 << n) - 1] * n)
    check_lp_size(n, sum(count(open_, 0, 0) for _, open_ in found))
    return [(p, Permutation(q_img)) for p_img, open_ in found
            for p in [Permutation(p_img)] for q_img in qs(open_, 0, 0)]


def membership_system(c: RatMatrix, n: int, pairs) -> tuple[SparseMatrix, list]:
    """The canonical LP data: one row per entry of c plus the sum-to-1 row.

    The coefficients are ones, held sparsely; d holds the entries of c and 1.
    """
    supports = [kron_support(p, q) for p, q in pairs]
    return _grouped_system(*_scaled_rhs(c), n, supports, _canonical_groups(n))


def weights_reconstruct(weights: dict, n: int) -> RatMatrix:
    """Sum of weighted Kronecker vertices, as a dense matrix."""
    nn = n * n
    m = RatMatrix.zeros(nn, nn)
    for (p_img, q_img), w in weights.items():
        for v in kron_support(Permutation(p_img), Permutation(q_img)):
            m.data[v // nn][v % nn] += w
    return m


@lru_cache(maxsize=None)
def _canonical_groups(n: int):
    """One group per canonical row: the entry rows, then the sum-to-1 row."""
    return tuple((v,) for v in range(n ** 4 + 1))


@lru_cache(maxsize=None)
def _reduced_groups(n: int):
    """The canonical rows summed by each row of the reduced system.

    The n^4 entry equations have row rank ((n-1)^2+1)^2, and these sums
    span them: the entries with all four indices below n, the block sums
    over (i,j) with i,j < n, the block sums over (k,l) with k,l < n and the
    total; the sum-to-1 row (canonical index n^4) follows as it is.
    """
    ti = TensorIndex(n)
    rng = range(1, n + 1)
    inner = range(1, n)
    entries = [(ti.var(i, k, j, l),) for i in inner for j in inner
               for k in inner for l in inner]
    rowblocks = [tuple(ti.var(i, k, j, l) for k in rng for l in rng)
                 for i in inner for j in inner]
    colblocks = [tuple(ti.var(i, k, j, l) for i in rng for j in rng)
                 for k in inner for l in inner]
    n4 = n ** 4
    return (*entries, *rowblocks, *colblocks, tuple(range(n4)), (n4,))


def _scaled_rhs(c: RatMatrix):
    """(L, L times the canonical rhs: c's entries row-major, then the 1 of
    the sum-to-1 row), L > 0 the lcm of the entries' denominators."""
    mult, cs = clear_denominators([v for row in c.data for v in row])
    return mult, [*cs, mult]


def _grouped_system(mult: int, rhs, n: int, supports, groups):
    """The LP data whose row r is the sum of the canonical rows in groups[r].

    supports[j] is kron_support(p, q) of the j-th pair (p, q).  Column j of
    row r counts the members of groups[r] in supports[j] + [n^4], and only
    nonzero counts are stored: holders[v] lists the columns with a one in
    canonical row v, which is row r when groups[r] = (v,).  d_r sums the
    canonical rhs over the group, from its scaled ints rhs (see _scaled_rhs)
    and their factor mult.
    """
    holders = [[] for _ in range(n ** 4)]
    for j, support in enumerate(supports):
        for v in support:
            holders[v].append(j)
    holders.append(range(len(supports)))  # the sum-to-1 row
    data = [dict.fromkeys(holders[group[0]], 1) if len(group) == 1 else
            Counter(chain.from_iterable(map(holders.__getitem__, group)))
            for group in groups]
    d = [Fraction(sum(rhs[v] for v in group), mult) for group in groups]
    return SparseMatrix(len(groups), len(supports), data), d


def _lift_farkas(y, groups, n: int):
    """A certificate over the canonical rows: each y_r added onto its group."""
    out = [0] * (n ** 4 + 1)
    for yr, group in zip(y, groups):
        if yr:
            for v in group:
                out[v] += yr
    return out


def _support_sums(n: int, pairs, y):
    """The sum of y over kron_support(p, q), for each (p, q) of pairs.

    Per p, w[k][l] = sum_i y[(i,k),(p(i),l)] is summed once (l 1-based),
    and the sum at (p, q) is then sum_k w[k][q(k)]; a run of pairs sharing
    one p object, as all_pairs and admissible_pairs list them, shares w.
    """
    nn = n * n
    last = None
    for p, q in pairs:
        if p is not last:
            last = p
            # blocks[i][k] is the slice y[(i,k),(p(i),1..n)]; w[k][0] is unused
            blocks = [[y[a + k * nn:a + k * nn + n] for k in range(n)]
                      for a in (n * (i * nn + pi - 1)
                                for i, pi in enumerate(p.image))]
            w = [[0, *map(sum, zip(*rows))] for rows in zip(*blocks)]
        yield sum(map(list.__getitem__, w, q.image))


def _verify_psi_farkas(rhs, n: int, pairs, y) -> bool:
    """check_farkas against the canonical system over the columns of pairs:
    C'y at (p, q) is y_0 plus y summed over kron_support(p, q), and an
    empty pair list has no column to check.

    rhs is the canonical rhs scaled to ints (see _scaled_rhs) and y is
    scaled to ints by the lcm of its denominators; both factors are
    positive, so every sign is kept.
    """
    _, ys = clear_denominators(y)
    y0 = ys[n ** 4]
    return (min(_support_sums(n, pairs, ys), default=-y0) >= -y0
            and sum(map(mul, rhs, ys)) < 0)


def check_lp_size(n: int, cols: int):
    """Refuse a Psi LP over cols pairs larger than LP_SIZE_CAP entries."""
    rows = n ** 4 + 1
    if rows * cols > LP_SIZE_CAP:
        raise ValueError(
            f"the Psi LP at n={n} has a {rows} x {cols} canonical system, "
            f"larger than the full n=5 one (626 x 14400)")


def psi_contains(c: RatMatrix, n: int, mode: str = SUPPORT_FILTERED,
                 allow_large: bool = False) -> MembershipResult:
    """Decide exactly whether c is a convex combination of Kronecker vertices.

    support_filtered first discards every pair whose Kronecker product has a
    one where c has a zero (nonnegativity forces their weight to zero), then
    solves the LP over the surviving columns.  full keeps all n!^2 columns
    and is capped at n <= 4 unless allow_large is set.  Either mode refuses
    an LP larger than LP_SIZE_CAP (check_lp_size).  Both modes return
    verified witnesses or certificates and must agree on every input.

    The LP runs first on the rows of _reduced_groups, which span the
    canonical rows, so for c in the span of the Kronecker vertices both
    have the same solutions; a reduced witness that does not rebuild c puts
    c outside that span, and the canonical rows decide.  Certificates are
    lifted to the canonical rows and re-checked.
    """
    nn = n * n
    if c.rows != nn or c.cols != nn:
        raise ValueError(f"matrix must be {nn} x {nn}")
    mult, rhs = _scaled_rhs(c)
    if any(v < 0 for v in rhs):
        raise ValueError("matrix has negative entries")
    if mode == SUPPORT_FILTERED:
        pairs = admissible_pairs(c, n)
        admissible_count = len(pairs)
        check_lp_size(n, admissible_count)
    elif mode == FULL:
        if n > FULL_MODE_DEFAULT_CAP and not allow_large:
            raise ValueError(
                f"full mode at n={n} exceeds the default cap "
                f"{FULL_MODE_DEFAULT_CAP}; pass allow_large=True")
        check_lp_size(n, factorial(n) ** 2)
        pairs = all_pairs(n)
        admissible_count = None
    else:
        raise ValueError(f"unknown mode {mode!r}")

    supports = [kron_support(p, q) for p, q in pairs]
    for groups in (_reduced_groups(n), _canonical_groups(n)):
        outcome = lp_feasible(*_grouped_system(mult, rhs, n, supports, groups))
        if not outcome.feasible:
            y = _lift_farkas(outcome.farkas, groups, n)
            if not _verify_psi_farkas(rhs, n, pairs, y):
                raise AssertionError("lifted certificate failed verification")
            return MembershipResult(False, mode, pairs, farkas=y,
                                    admissible_count=admissible_count)
        weights = {(p.image, q.image): w
                   for (p, q), w in zip(pairs, outcome.witness) if w}
        if (sum(weights.values()) == 1
                and weights_reconstruct(weights, n) == c):
            return MembershipResult(True, mode, pairs, weights=weights,
                                    admissible_count=admissible_count)
    raise AssertionError("canonical witness failed reconstruction")
