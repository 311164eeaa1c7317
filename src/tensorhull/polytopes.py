"""The two polytopes over doubly stochastic n^2 x n^2 matrices.

``Phi`` is the linearly constrained relaxation: doubly stochastic matrices,
indexed by pairs ((i,k),(j,l)), that additionally satisfy four families of
partial-sum balance equations; its rows are read by column, so membership
and the support rank visit only the rows that the input's nonzeros reach.
``Psi`` is the convex hull of all Kronecker
products A (x) B of two n x n doubly stochastic matrices; its extreme points
are exactly the products P (x) Q of permutation matrices, so membership in
Psi is a finite, exactly solvable LP over the n!^2 Kronecker vertices.  Its
canonical rows are the n^4 entry equations and the sum-to-1 row; every LP
solved here has rows that each sum one group of them.  One loop, _decide,
solves those LPs as rungs of one question: the class LP (for an input
constant on the cell classes), the reduced rows, then the canonical rows,
moving on only when an answer fails its re-check on the canonical system.

Indexing is row-major throughout: the matrix cell (i,k), 1-based, flattens
to n*(i-1)+(k-1), and the entry ((i,k),(j,l)) of an n^2 x n^2 matrix gets
the flat variable index flat(i,k)*n^2 + flat(j,l).
"""

from collections import Counter, defaultdict
from fractions import Fraction
from functools import lru_cache
from itertools import chain, compress, product
from math import factorial
from operator import mul

from .exactmath import (RatMatrix, SparseMatrix, clear_denominators,
                        farkas_property, lp_feasible, rat_rank)
from .permutations import (Permutation, all_permutations, open_images,
                           pair_search)

SUPPORT_FILTERED = "support_filtered"
FULL = "full"
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


class ConstraintSystem:
    """Equality system C x = d with nonnegativity implicit, rows labeled.

    Rows are stored sparsely as {flat variable index: integer coefficient}
    and d holds ints; a column_submatrix holds the same ints, as a
    SparseMatrix.  The column index (column_rows) is built once, on first use;
    equality and repr read the four defining fields only.
    """

    def __init__(self, n: int, rows: list, d: list, labels: list):
        self.n, self.rows, self.d, self.labels = n, rows, d, labels
        self._holders = None

    def _fields(self):
        return self.n, self.rows, self.d, self.labels

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self):
        return ("ConstraintSystem(n={!r}, rows={!r}, d={!r}, labels={!r})"
                .format(*self._fields()))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return self.n ** 4

    def column_rows(self) -> tuple:
        """Per column, a tuple of the numbers of the rows that hold it."""
        if self._holders is None:
            holders = [[] for _ in range(self.ncols)]
            for r, row in enumerate(self.rows):
                for c in row:
                    holders[c].append(r)
            self._holders = tuple(map(tuple, holders))
        return self._holders

    def column_submatrix(self, cols) -> SparseMatrix:
        """The rows on the columns cols only, column cols[j] renumbered j."""
        pos = {c: j for j, c in enumerate(cols)}
        if len(pos) != len(cols):
            raise ValueError("duplicate column indices")
        rows, holders = self.rows, self.column_rows()
        data = [{} for _ in rows]
        for c, j in pos.items():
            for r in holders[c]:
                data[r][j] = rows[r][c]
        return SparseMatrix(self.nrows, len(pos), data)


@lru_cache(maxsize=None)
def build_phi_constraints(n: int) -> ConstraintSystem:
    """All equality rows of the Phi relaxation, with provenance labels.

    Emits 2n^2 global row/column sum rows and four families of (n-1)n^2
    balance rows each, every coefficient an int.  Families 3 and 4
    distinguish the inner index k (k=2..n with i,j free), mirroring families
    1 and 2.  The literal reading (i=2..n with j,k free) defines the same
    affine space; the tests keep it as their reference.  check_phi_size runs
    first.

    With 0-based indices, ((i,k),(j,l)) is column i n^3 + k n^2 + j n + l,
    so each row's +1 and -1 terms are strided slices of one list of the n^4
    column ints (every row keys a column on the same int object).  In
    families 2 and 4 the first +1 term is also a -1 term; it cancels, and
    both slices skip it.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    check_phi_size(n)
    n2, n3, n4 = n * n, n ** 3, n ** 4
    cols = list(range(n4))
    rows, d, labels = [], [], []

    def add(label: str, plus, minus=(), rhs: int = 0):
        row = dict.fromkeys(plus, 1)
        row.update(dict.fromkeys(minus, -1))
        rows.append(row)
        d.append(rhs)
        labels.append(label)

    rng = range(n)
    for i, k in product(rng, rng):
        f = i * n + k
        add(f"rowsum[{i + 1},{k + 1}]", cols[f * n2:(f + 1) * n2], rhs=1)
        add(f"colsum[{i + 1},{k + 1}]", cols[f::n2], rhs=1)
    # Families 1 and 2 (i >= 2): +1 at ((i,k),(j,l)) or at ((j,k),(i,l)) for
    # every j, -1 at ((1,k),(j,l)) for every j; lo is ((1,k),(1,l)).
    for i, k, l in product(range(1, n), rng, rng):
        lo = k * n2 + l
        add(f"fam1[i={i + 1},k={k + 1},l={l + 1}]",
            cols[i * n3 + lo:i * n3 + lo + n2:n], cols[lo:lo + n2:n])
    for i, k, l in product(range(1, n), rng, rng):
        lo = k * n2 + l
        s = lo + i * n
        add(f"fam2[i={i + 1},k={k + 1},l={l + 1}]",
            cols[s + n3::n3], cols[lo:s:n] + cols[s + n:lo + n2:n])
    # Families 3 and 4 (k >= 2): +1 at ((i,k),(j,l)) or at ((i,l),(j,k)) for
    # every l, -1 at ((i,1),(j,l)) for every l; lo is ((i,1),(j,1)).
    for k, i, j in product(range(1, n), rng, rng):
        lo = i * n3 + j * n
        add(f"fam3[i={i + 1},k={k + 1},j={j + 1}]",
            cols[lo + k * n2:lo + k * n2 + n], cols[lo:lo + n])
    for k, i, j in product(range(1, n), rng, rng):
        lo = i * n3 + j * n
        s = lo + k
        add(f"fam4[i={i + 1},k={k + 1},j={j + 1}]",
            cols[s + n2:(i + 1) * n3:n2], cols[lo:s] + cols[s + 1:lo + n])
    return ConstraintSystem(n, rows, d, labels)


def check_phi_size(n: int):
    """Refuse a Phi system above the n = 32 one (4 s and 751 MB for verify):
    n^2 entries per sum row, 2n in families 1 and 3, 2n - 2 in 2 and 4."""
    if n > 32:
        entries = 2 * n ** 4 + 4 * n ** 3 * (n - 1) + 4 * (n * n - n) ** 2
        raise ValueError(f"the Phi system at n={n} has {entries} entries, "
                         "more than the n=32 one (10096640)")


class PhiCheck:
    """Outcome of a Phi membership test with per-row diagnostics."""

    def __init__(self, ok: bool, negative_entries: list, violations: list):
        self.ok, self.negative_entries = ok, negative_entries
        self.violations = violations  # (label, residual) pairs

    def __bool__(self):
        return self.ok


def phi_contains(c: RatMatrix, sys: ConstraintSystem) -> PhiCheck:
    """Exact membership: entries >= 0 and every labeled row at zero residual.

    Row r's sum starts at -d_r L, and the ints of c's int view (its nonzeros
    times L, the lcm of their denominators, a positive factor that keeps
    every sign) are added into the rows that hold their columns (column_rows);
    a nonzero sum is L times the residual C_r . x - d_r, as a Fraction.
    """
    n = sys.n
    nn = n * n
    if c.rows != nn or c.cols != nn:
        raise ValueError(f"matrix must be {nn} x {nn}")
    ti = TensorIndex(n)
    mult, cols, xs = c.int_view()
    negative = [(*ti.pair(f // nn), *ti.pair(f % nn))
                for f, x in zip(cols, xs) if x < 0]
    rows, holders = sys.rows, sys.column_rows()
    acc = [-rhs * mult for rhs in sys.d]
    for f, x in zip(cols, xs):
        for r in holders[f]:
            acc[r] += rows[r][f] * x
    violations = [(label, Fraction(r, mult))
                  for label, r in zip(sys.labels, acc) if r]
    return PhiCheck(not negative and not violations, negative, violations)


def kron(p: Permutation, q: Permutation) -> RatMatrix:
    """Kronecker product of the permutation matrices of p and q, the vertex
    of weight 1: entry ((i,k),(j,l)) is 1 iff j = p(i) and l = q(k)."""
    if p.n != q.n:
        raise ValueError("size mismatch")
    return weights_reconstruct({(p.image, q.image): 1}, p.n)


def kron_support(p: Permutation, q: Permutation):
    """Flat variable indices of the n^2 ones of kron(p, q), row-major, each
    the offset of (i, p(i)) plus that of (k, q(k))."""
    n = p.n
    nn = n * n
    qo = [k * nn + qk - 1 for k, qk in enumerate(q.image)]
    return [a + b for i, pi in enumerate(p.image)
            for a in (n * (i * nn + pi - 1),) for b in qo]


def support_columns(c: RatMatrix):
    """Flat variable indices of the nonzero entries of c (its int view's)."""
    return c.int_view()[1]


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
    data = c.data
    alpha = [[sum(data[ti.flat(i, 1)][ti.flat(j, l)] for l in rng)
              for j in rng] for i in rng]
    beta = [[sum(data[ti.flat(1, k)][ti.flat(j, l)] for j in rng)
             for l in rng] for k in rng]
    return RatMatrix(n, n, alpha), RatMatrix(n, n, beta)


# ---------------------------------------------------------------------------
# Psi membership
# ---------------------------------------------------------------------------

class MembershipResult:
    """Verdict of the Psi membership LP.

    When in_psi, ``weights`` maps (p image, q image) tuples to positive
    weights that sum to 1 and reconstruct the input exactly.  Otherwise
    ``certificate`` is a Farkas vector over the canonical system rows (the
    n^4 entry equations followed by the weight normalization row) as (ints,
    scale), valid for the column set in ``pairs`` and re-checked before
    being returned; ``farkas`` reads it as Fractions, built on first read.
    """

    _farkas = None
    farkas = farkas_property()

    def __init__(self, in_psi: bool, mode: str, pairs: list,
                 weights: dict | None = None,
                 certificate: tuple | None = None,
                 admissible_count: int | None = None):
        self.in_psi, self.mode, self.pairs = in_psi, mode, pairs
        self.weights, self.certificate = weights, certificate
        self.admissible_count = admissible_count


@lru_cache(maxsize=None)
def all_pairs(n: int):
    """All (p, q) in lexicographic order of (p image, q image), as one tuple
    listed once per n."""
    perms = list(all_permutations(n))
    return tuple((p, q) for p in perms for q in perms)


@lru_cache(maxsize=None)
def _full_rung(n: int, canonical: bool):
    """The reduced or the canonical rung (see _decide) over all_pairs(n);
    its rows are built once per n, by the first query that reaches it."""
    groups = (_canonical_groups if canonical else _reduced_groups)(n)
    supports = (kron_support(p, q) for p, q in all_pairs(n))
    return groups, _grouped_rows(n, supports, groups), None


def support_masks(c: RatMatrix, n: int):
    """pair_search's masks for c: bit l of masks[i][j][k] is set iff
    c[(i,k),(j,l)] is nonzero; raises unless c is n^2 x n^2."""
    nn = n * n
    if c.rows != nn or c.cols != nn:
        raise ValueError(f"matrix must be {nn} x {nn}")
    masks = [[[0] * n for _ in range(n)] for _ in range(n)]
    for v in support_columns(c):  # v = n^3 i + n^2 k + n j + l
        masks[v // n ** 3][v // n % n][v // nn % n] |= 1 << v % n
    return masks


def admissible_pairs(c: RatMatrix, n: int):
    """Every (p, q) whose Kronecker support sits inside the support of c,
    in lexicographic order of (p image, q image), from pair_search on
    support_masks(c, n).  The q's of every p are counted first, and more
    pairs than check_lp_size allows are refused before one is built.
    """
    found = list(pair_search(support_masks(c, n)))

    @lru_cache(maxsize=None)
    def count(open_, k, used):  # len of open_images(open_, k, used)
        if k == n:
            return 1
        free = open_[k] & ~used
        return sum(count(open_, k + 1, used | 1 << l)
                   for l in range(n) if free >> l & 1)

    check_lp_size(n, sum(count(open_, 0, 0) for _, open_ in found))
    return [(p, Permutation(q_img)) for p_img, open_ in found
            for p in [Permutation(p_img)] for q_img in open_images(open_)]


def membership_system(c: RatMatrix, n: int, pairs) -> tuple[SparseMatrix, list]:
    """The canonical LP data: one row per entry of c plus the sum-to-1 row.

    The coefficients are ones, held sparsely; d is c's own entries and 1.
    Exactly the pairs of all_pairs(n), in its order, share the rows of
    the canonical _full_rung(n, True); any other list gets rows of its own.
    """
    groups = _canonical_groups(n)
    if len(pairs) == factorial(n) ** 2 and tuple(pairs) == all_pairs(n):
        rows = _full_rung(n, True)[1]
    else:
        rows = _grouped_rows(n, [kron_support(p, q) for p, q in pairs], groups)
    return rows, [*chain.from_iterable(c.data), 1]


def weights_reconstruct(weights: dict, n: int) -> RatMatrix:
    """Sum of weighted Kronecker vertices, summed as ints over the lcm of
    the weights' denominators and built from that int view."""
    n4 = n ** 4
    mult, ws = clear_denominators(list(weights.values()))
    acc = [0] * n4
    for (p_img, q_img), w in zip(weights, ws):
        for v in kron_support(Permutation(p_img), Permutation(q_img)):
            acc[v] += w
    flat = [*compress(range(n4), acc)]
    return RatMatrix.from_view(n * n, n * n, mult, flat, [*compress(acc, acc)])


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


@lru_cache(maxsize=None)
def _rung_index(groups):
    """The cell-to-group index of a rung: per canonical row v, the tuple of
    the rows r with v in groups[r]."""
    index = [[] for _ in range(1 + max(map(max, groups)))]
    for r, group in enumerate(groups):
        for v in group:
            index[v].append(r)
    return tuple(map(tuple, index))


def _grouped_rows(n: int, supports, groups) -> SparseMatrix:
    """The LP rows whose row r is the sum of the canonical rows in groups[r].

    supports yields kron_support(p, q) of the j-th pair (p, q) as its j-th
    item, and is read once.  Column j of row r counts the members of
    groups[r] in that support + [n^4], and only nonzero counts are stored.
    holders[v] lists the columns with a one in canonical row v; only the
    v that hold a column are visited, and _rung_index sends each to the
    rows whose group holds v.  A row of one member is that list, a row of
    more counts the columns of its visited members in one pass, and a row
    no visited v reaches stays empty, so the work follows the supports.
    """
    holders = [[] for _ in range(n ** 4)]
    cols = 0
    for support in supports:
        for v in support:
            holders[v].append(cols)
        cols += 1
    holders.append(range(cols))  # the sum-to-1 row
    index = _rung_index(groups)
    data = [{} for _ in groups]
    visited = defaultdict(list)  # per row of several members, its cells
    for v in compress(range(len(holders)), holders):
        for r in index[v]:
            if len(groups[r]) == 1:
                data[r] = dict.fromkeys(holders[v], 1)
            else:
                visited[r].append(v)
    for r, cells in visited.items():
        data[r] = Counter(chain.from_iterable(map(holders.__getitem__,
                                                  cells)))
    return SparseMatrix(len(groups), cols, data)


def _grouped_rhs(rhs, groups):
    """The rhs of _grouped_rows as ints: d_r sums the canonical rhs over
    groups[r], from its scaled ints rhs (see _checked_rhs), so it keeps
    their scale; only the nonzeros of rhs are read."""
    index = _rung_index(groups)
    d = [0] * len(groups)
    for v in compress(range(len(rhs)), rhs):
        for r in index[v]:
            d[r] += rhs[v]
    return d


def _lift_farkas(y, groups, n: int):
    """A certificate over the canonical rows, from the ints y of one over
    the grouped rows: each y_r added onto its group, at y's scale."""
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
    The slices y[(i,k),(j,1..n)] of a block (i, j) are cut once per y.
    """
    nn = n * n
    blocks = {}
    last = None
    for p, q in pairs:
        if p is not last:
            last = p
            picked = [blocks.get(a) or blocks.setdefault(
                a, [y[b:b + n] for b in range(a, a + n * nn, nn)])
                for a in (n * (i * nn + pi - 1)
                          for i, pi in enumerate(p.image))]
            w = [[0, *map(sum, zip(*rows))] for rows in zip(*picked)]
        yield sum(map(list.__getitem__, w, q.image))


def _verify_psi_farkas(rhs, n: int, pairs, y) -> bool:
    """check_farkas against the canonical system over the columns of pairs:
    C'y at (p, q) is y_0 plus y summed over kron_support(p, q), and an
    empty pair list has no column to check.

    rhs is the canonical rhs scaled to ints (see _checked_rhs) and y is a
    certificate's ints at its scale; both scales are positive, so every
    sign is kept (any exact rationals y are read as they are).
    """
    y0 = y[n ** 4]
    return (min(_support_sums(n, pairs, y), default=-y0) >= -y0
            and sum(map(mul, rhs, y)) < 0)


def check_lp_size(n: int, cols: int):
    """Refuse a Psi LP over cols pairs larger than LP_SIZE_CAP entries."""
    rows = n ** 4 + 1
    if rows * cols > LP_SIZE_CAP:
        raise ValueError(
            f"the Psi LP at n={n} has a {rows} x {cols} canonical system, "
            f"larger than the full n=5 one (626 x 14400)")


def _checked_rhs(c: RatMatrix, n: int):
    """(L, L times the canonical rhs: c's entries row-major, then the 1 of
    the sum-to-1 row), L > 0 the lcm of the entries' denominators, for an
    n^2 x n^2 c with no negative entry; written from c's int view."""
    nn = n * n
    if c.rows != nn or c.cols != nn:
        raise ValueError(f"matrix must be {nn} x {nn}")
    mult, flat, ints = c.int_view()
    if min(ints, default=0) < 0:
        raise ValueError("matrix has negative entries")
    rhs = [0] * (nn * nn) + [mult]
    for f, v in zip(flat, ints):
        rhs[f] = v
    return mult, rhs


def _decide(c: RatMatrix, n: int, mode: str, pairs, rungs, scaled,
            admissible_count=None) -> MembershipResult:
    """The Psi LP over the columns of pairs, solved one rung at a time.

    A rung (groups, rows, members) is an LP whose row r sums the canonical
    rows in groups[r] and whose column j stands for the pairs members[j]
    (None: column j is pair j); scaled is _checked_rhs(c, n).  A Farkas
    vector is lifted to the canonical rows and re-checked over all of
    pairs.  A witness splits each column's weight evenly over its members,
    and must sum to 1 and rebuild c.  An answer that fails its re-check
    passes c to the next rung; past the last, canonical, one it raises.
    """
    mult, rhs = scaled
    for groups, rows, members in rungs:
        outcome = lp_feasible(rows, _grouped_rhs(rhs, groups), scale=mult)
        if outcome.feasible:
            weights = {(pairs[j][0].image, pairs[j][1].image):
                       Fraction(w, len(m)) for m, w in zip(
                           members or zip(range(len(pairs))), outcome.witness)
                       if w for j in m}
            if (sum(weights.values()) == 1
                    and weights_reconstruct(weights, n) == c):
                return MembershipResult(True, mode, pairs, weights=weights,
                                        admissible_count=admissible_count)
        else:
            y, scale = outcome.certificate
            y = _lift_farkas(y, groups, n)
            if _verify_psi_farkas(rhs, n, pairs, y):
                return MembershipResult(False, mode, pairs,
                                        certificate=(y, scale),
                                        admissible_count=admissible_count)
    raise AssertionError("the canonical Psi LP's answer failed its re-check")


def psi_contains(c: RatMatrix, n: int,
                 mode: str = SUPPORT_FILTERED) -> MembershipResult:
    """Decide exactly whether c is a convex combination of Kronecker vertices.

    support_filtered first discards every pair whose Kronecker product has a
    one where c has a zero (nonnegativity forces their weight to zero), then
    solves the LP over the surviving columns; full keeps all n!^2 columns.
    Either mode refuses an LP larger than LP_SIZE_CAP (check_lp_size), and
    both must agree on every input.

    The first rung sums the canonical rows over _reduced_groups, which span
    them, so for c in the span of the Kronecker vertices both have the same
    solutions; a reduced witness that does not rebuild c puts c outside that
    span, and the canonical rung decides.  Full mode takes both rungs from
    _full_rung, built once per n.
    """
    scaled = _checked_rhs(c, n)
    if mode == SUPPORT_FILTERED:
        pairs = admissible_pairs(c, n)  # refuses more than the cap allows
        supports = [kron_support(p, q) for p, q in pairs]
        rungs = ((g, _grouped_rows(n, supports, g), None)
                 for g in (_reduced_groups(n), _canonical_groups(n)))
        return _decide(c, n, mode, pairs, rungs, scaled, len(pairs))
    if mode == FULL:
        check_lp_size(n, factorial(n) ** 2)
        # each result owns its pair list
        return _decide(c, n, mode, list(all_pairs(n)),
                       map(_full_rung, (n, n), (False, True)), scaled)
    raise ValueError(f"unknown mode {mode!r}")


@lru_cache(maxsize=None)
def _class_system(n: int):
    """The Psi LP summed over the n^2 cell classes (i+k, j+l) mod n, on
    which every transfer matrix is constant, as (groups, columns, system):

    - groups[r] lists the canonical rows that row r sums: the cells of
      class r, and last the sum-to-1 row (n^4,);
    - columns[j] lists the indices into all_pairs(n) of the pairs with the
      j-th distinct profile: the int whose digit r in base n^2 + 1 counts
      the pair's kron_support cells in class r;
    - system holds those counts, and 1 in the sum-to-1 row.
    """
    nn = n * n
    base = nn + 1
    # the class of each cell ((i,k),(j,l)), in the order of TensorIndex.var
    cls = [n * ((i + k) % n) + (j + l) % n
           for i, k, j, l in product(range(n), repeat=4)]
    columns = {}
    profiles = _support_sums(n, all_pairs(n), [base ** r for r in cls])
    for j, profile in enumerate(profiles):
        columns.setdefault(profile, []).append(j)
    data = [{j: h for j, p in enumerate(columns)
             if (h := p // base ** r % base)} for r in range(nn)]
    data.append(dict.fromkeys(range(len(columns)), 1))
    groups = (*(tuple(v for v, rv in enumerate(cls) if rv == r)
                for r in range(nn)), (nn * nn,))
    return (groups, tuple(map(tuple, columns.values())),
            SparseMatrix(base, len(columns), data))


def class_psi_contains(c: RatMatrix, n: int) -> MembershipResult:
    """psi_contains(c, n, mode=FULL), with the class LP of _class_system
    (17 x 34 at n = 4, 26 x 351 at n = 5) as a first rung when c is
    constant on each cell class, as every transfer matrix is.

    Summing rows is an aggregation, so a Farkas vector lifts for any c to
    y_v = y_R on each cell v of class R.  The shifts (i,k) -> (i+1,k-1) and
    (j,l) -> (j+1,l-1) act transitively on each class and map each
    column's members onto themselves, so a witness split evenly over the
    members is constant on each class.  The size cap (check_lp_size over
    all n!^2 pairs) applies before anything is built.
    """
    scaled = _checked_rhs(c, n)
    check_lp_size(n, factorial(n) ** 2)
    groups, columns, system = _class_system(n)
    rungs = map(_full_rung, (n, n), (False, True))
    rhs = scaled[1]
    if all(rhs[v] == rhs[group[0]] for group in groups for v in group):
        rungs = chain([(groups, system, columns)], rungs)
    return _decide(c, n, FULL, list(all_pairs(n)), rungs, scaled)
