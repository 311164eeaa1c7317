"""Exact rational matrices, rank, and LP feasibility with certificates.

Scalars are exact rationals, `int` or `fractions.Fraction`: arbitrary
precision, always in canonical form (reduced, positive denominator).  Nothing
in this module ever touches floating point.  The rank and LP feasibility
both take sparse rows (SparseMatrix); dense RatMatrix holds the matrices
that are read, built and printed.  The rank works on the integer rows left
after clearing denominators.  Rows of the form v (e_a - e_b) are contracted
first: they join columns into classes, and their rank is the number of
columns joined.  Fraction-free (Bareiss) elimination on the other rows, with
each column summed into its class, gives the rest of the rank exactly.  LP
feasibility is a revised simplex that keeps the basis inverse as sparse rows
at positive scales; its witnesses and Farkas vectors are re-checked over the
same rows, in ints.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from operator import attrgetter, mul

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"


def as_rational(value):
    """An exact scalar: ints and Fractions as they are, strings like '3/4'
    parsed to Fractions; floats are rejected."""
    if isinstance(value, (int, Fraction)):
        return value
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


class RatMatrix:
    """Dense matrix of exact rationals, row-major list of row lists.

    Entries are int or Fraction; both have numerator and denominator.  An
    integer value is held as an int, so divide entries through Fraction:
    int / int is a float.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ValueError("data shape does not match rows x cols")
        self.rows = rows
        self.cols = cols
        self.data = data

    @classmethod
    def from_rows(cls, rows) -> "RatMatrix":
        data = [[as_rational(v) for v in row] for row in rows]
        ncols = len(data[0]) if data else 0
        return cls(len(data), ncols, data)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RatMatrix":
        return cls(rows, cols, [[0] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls(n, n, [[int(i == j) for j in range(n)] for i in range(n)])

    def __eq__(self, other):
        return (
            isinstance(other, RatMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __repr__(self):
        return f"RatMatrix({self.rows}x{self.cols})"

    def transpose(self) -> "RatMatrix":
        data = [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)]
        return RatMatrix(self.cols, self.rows, data)

    def matvec(self, x):
        if len(x) != self.cols:
            raise ValueError("vector length does not match column count")
        cols, values = _nonzeros(x)
        return [sum(map(mul, map(row.__getitem__, cols), values))
                for row in self.data]


class SparseMatrix:
    """rows x cols, one {column: value} dict per row, zeros absent."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data):
        self.rows, self.cols, self.data = rows, cols, data


def parse_matrix(text: str) -> RatMatrix:
    """Parse the text format: first line 'rows cols', then one row per line.

    Entries are read by Fraction(entry); an integral one is kept as an int.
    The entry "0", most cells of a transfer matrix, is read as 0 directly.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty matrix text")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError("header must be 'rows cols'")
    rows, cols = int(head[0]), int(head[1])
    if len(lines) - 1 != rows:
        raise ValueError(f"expected {rows} rows, got {len(lines) - 1}")
    data = []
    for ln in lines[1:]:
        entries = ln.split()
        if len(entries) != cols:
            raise ValueError(f"expected {cols} entries per row, got {len(entries)}")
        row = []
        for e in entries:
            if e == "0":
                row.append(0)
                continue
            try:
                v = Fraction(e)
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in entry {e!r}") from None
            row.append(v.numerator if v.denominator == 1 else v)
        data.append(row)
    return RatMatrix(rows, cols, data)


def format_matrix(m: RatMatrix) -> str:
    lines = [f"{m.rows} {m.cols}"]
    for row in m.data:
        lines.append(" ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


def rat_rank(m: SparseMatrix) -> int:
    """Exact rank over the rationals.

    Each row is scaled by the lcm of its denominators into an integer row;
    scaling rows by nonzero integers keeps the rank.  Rows v (e_a - e_b)
    say x_a = x_b on the kernel; they join the columns into k classes and
    have rank cols - k.  Their kernel is the vectors constant on each class,
    x = P z with P the cols x k class indicator, so the rank of all rows is
    cols - k plus the rank of R P, the other rows R with each column summed
    into its class.  Fraction-free (Bareiss) elimination gives that rank
    exactly.
    """
    if m.rows == 0 or m.cols == 0:
        return 0
    rows = [{c: v for c, v in zip(row, clear_denominators(row.values())[1])
             if v} for row in m.data]
    _, k, contracted = _contract_equalities(rows, m.cols)
    return m.cols - k + _bareiss_rank(contracted, k)


def _nonzeros(row):
    """(columns, values) of the nonzero entries of a dense vector."""
    cols = list(compress(range(len(row)), row))
    return cols, list(map(row.__getitem__, cols))


def _contract_equalities(rows, ncols):
    """(cls, k, contracted): the classes of the columns joined by the rows
    v (e_a - e_b), numbered 0..k-1 by their least column, and every other
    row with each column summed into its class (zero sums dropped)."""
    parent = list(range(ncols))

    def find(c):
        while parent[c] != c:
            parent[c] = c = parent[parent[c]]
        return c

    others = []
    for row in rows:
        if len(row) == 2:
            (a, v), (b, w) = row.items()
            if v == -w:
                a, b = find(a), find(b)
                parent[max(a, b)] = min(a, b)
                continue
        others.append(row)
    index = {}
    cls = [index.setdefault(find(c), len(index)) for c in range(ncols)]
    contracted = []
    for row in others:
        acc = {}
        for c, v in row.items():
            j = cls[c]
            acc[j] = acc.get(j, 0) + v
        contracted.append({j: v for j, v in acc.items() if v})
    return cls, len(index), contracted


def _bareiss_rank(sparse_rows, ncols) -> int:
    """Exact rank by fraction-free (Bareiss) elimination over the integers."""
    mat = []
    for row in sparse_rows:
        dense = [0] * ncols
        for c, v in row.items():
            dense[c] = v
        mat.append(dense)
    nrows = len(mat)
    prev = 1
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        prow = mat[r]
        a = prow[c]
        for i in range(r + 1, nrows):
            row = mat[i]
            b = row[c]
            if b == 0:
                if prev != 1:
                    mat[i] = [(a * x) // prev for x in row]
                elif a != 1:
                    mat[i] = [a * x for x in row]
            else:
                mat[i] = [(a * x - b * y) // prev for x, y in zip(row, prow)]
        prev = a
        r += 1
        if r == nrows:
            break
    return r


@dataclass
class Feasibility:
    """Outcome of an exact feasibility question {x >= 0 : Cx = d}.

    Exactly one of witness/farkas is set.  A witness satisfies Cx = d, x >= 0;
    a farkas vector y satisfies C'y >= 0 componentwise and d'y < 0, proving
    emptiness.  Both are re-verified before being returned.
    """

    status: str
    witness: list | None = None
    farkas: list | None = None

    @property
    def feasible(self) -> bool:
        return self.status == FEASIBLE


_denominator = attrgetter("denominator")


def clear_denominators(values):
    """(L, [L * v for v in values]) with L > 0 the lcm of the denominators.

    Values are int or Fraction; the scaled values are ints.
    """
    mult = lcm(*set(map(_denominator, values)))
    return mult, [v * mult if type(v) is int
                  else v.numerator * (mult // v.denominator) for v in values]


def check_farkas(c_matrix: SparseMatrix, d, y) -> bool:
    """Independent check that y certifies infeasibility of {x>=0 : Cx=d}.

    y and d are each scaled once by the lcm of their denominators, positive
    factors that keep the sign of every entry of C'y and of d'y; on integer
    rows of C the sums then run over ints, one term per nonzero of C.
    """
    if len(d) != c_matrix.rows or len(y) != c_matrix.rows:
        raise ValueError("dimension mismatch")
    _, ys = clear_denominators(y)
    _, ds = clear_denominators(d)
    acc = [0] * c_matrix.cols
    dty = 0
    for row, di, yi in zip(c_matrix.data, ds, ys):
        if yi:
            for j, v in row.items():
                acc[j] += v * yi
            dty += di * yi
    return min(acc, default=0) >= 0 and dty < 0


def lp_feasible(c_matrix: SparseMatrix, d) -> Feasibility:
    """Decide exactly whether {x >= 0 : Cx = d} is nonempty.

    Phase-1 revised simplex over the sparse rows of [C | d], scaled to
    integers (see _phase1_simplex).  Entering column: most negative reduced
    cost, ties broken by lowest index; leaving row: lexicographic ratio test
    keyed on (rhs, artificial columns), which guarantees termination on
    degenerate systems and makes the output deterministic.  The witness or
    certificate is re-verified against the original data before returning.
    """
    m, nvars = c_matrix.rows, c_matrix.cols
    if len(d) != m:
        raise ValueError("d length does not match row count of C")
    d = [as_rational(v) for v in d]
    status, x_or_y = _phase1_simplex(c_matrix.data, d, nvars)
    if status == FEASIBLE:
        x = x_or_y
        if any(v < 0 for v in x):
            raise AssertionError("simplex returned a negative witness entry")
        # Cx = d with x scaled to ints by the lcm of its denominators.
        mult, xs = clear_denominators(x)
        if any(sum(map(mul, map(xs.__getitem__, row), row.values()))
               != di * mult for row, di in zip(c_matrix.data, d)):
            raise AssertionError("simplex witness failed re-substitution")
        return Feasibility(FEASIBLE, witness=x)
    y = x_or_y
    if not check_farkas(c_matrix, d, y):
        raise AssertionError("simplex certificate failed the farkas check")
    return Feasibility(INFEASIBLE, farkas=y)


def _phase1_simplex(c_rows, d, nvars):
    """Phase-1 revised simplex over integer data; returns (status, x or y).

    c_rows are C's sparse {column: value} rows.  Row i of [C | d] is
    scaled to integers with rhs >= 0, and an artificial column e_i is
    added, so the first basis is the artificials and the tableau is always
    B^-1 [A | I | b].  Only two parts of it are kept:

    - binv[i], row i of [B^-1 | B^-1 b] as a sparse {column: int} (the rhs
      under key m), held at its own positive scale;
    - zc and za, the reduced costs of [A | I | b] (for min sum of
      artificials), times the positive integer zscale.

    Each pivot builds the entering column B^-1 A_e from the sparse columns
    of A, rewrites in place only the rows where it is nonzero and only at
    the pivot row's keys, and updates z through the pivot row
    [binv[r] A | binv[r]].  A row, or z, is multiplied only when the pivot
    does not divide its entry, and only then divided by its gcd again.  The
    rules read only ratios inside one row and comparisons inside z, so the
    positive scales leave the pivot sequence that of the full tableau.
    """
    m = len(c_rows)
    if m == 0:
        return FEASIBLE, [0] * nvars
    # Flip signs so rhs >= 0; mults[i] maps certificates back to row i of C.
    arows, cols, mults, rhs = [], [[] for _ in range(nvars)], [], []
    for i, (row, di) in enumerate(zip(c_rows, d)):
        mult, ints = clear_denominators([*row.values(), di])
        if ints[-1] < 0:
            mult, ints = -mult, [-v for v in ints]
        entries = list(zip(row, ints))
        for j, v in entries:
            cols[j].append((i, v))
        arows.append(entries)
        mults.append(mult)
        rhs.append(ints[-1])
    binv = [{i: 1, m: b} if b else {i: 1} for i, b in enumerate(rhs)]
    holders = [{i} for i in range(m)]  # holders[k]: rows i with k in binv[i]
    # Phase-1 reduced costs, zc on the structural columns (0 - the column
    # sums) and za on the artificials (1 - 1 = 0) and the rhs (index m).
    zc, za = [0] * nvars, [0] * m + [-sum(rhs)]
    for entries in arows:
        for j, v in entries:
            zc[j] -= v
    zscale = 1
    basis = list(range(nvars, nvars + m))
    while True:
        best = min(zc, default=0)  # artificials never re-enter
        if best >= 0:
            break
        enter = zc.index(best)
        col = {}
        for k, v in cols[enter]:
            for i in holders[k]:
                col[i] = col.get(i, 0) + binv[i][k] * v
        col = {i: a for i, a in col.items() if a}
        cands = [i for i, a in col.items() if a > 0]
        if not cands:
            # Phase-1 objective is bounded below by 0, so this cannot happen.
            raise AssertionError("phase-1 ratio test found no pivot row")
        # Lexicographic ratio test on (rhs, artificial columns): every rhs is
        # >= 0, so zero-rhs rows win first; then each artificial column in
        # turn keeps the rows of least ratio.  Columns no survivor holds tie
        # them all, and so does the rhs key m, which sorts last.
        cands = ([i for i in cands if m not in binv[i]]
                or _least_ratio(cands, m, binv, col))
        if len(cands) > 1:
            for k in sorted(set().union(*(binv[i] for i in cands))):
                cands = _least_ratio(cands, k, binv, col)
                if len(cands) == 1:
                    break
            else:
                # Rows tied on every key would have proportional B^-1 rows.
                raise AssertionError("lexicographic ratio test left a tie")
        r = cands[0]
        prow = binv[r]
        piv = col[r]
        for i, a in col.items():
            if i == r:
                continue
            g = gcd(piv, a)
            f, h = piv // g, a // g
            row = binv[i]
            if f != 1:
                row = binv[i] = {k: f * v for k, v in row.items()}
            for k, v in prow.items():
                w = row.get(k, 0) - h * v
                if w:
                    if k < m and k not in row:
                        holders[k].add(i)
                    row[k] = w
                else:
                    del row[k]
                    if k < m:
                        holders[k].discard(i)
            if f != 1:
                g = gcd(*row.values())
                if g > 1:
                    binv[i] = {k: v // g for k, v in row.items()}
        # z -= z_e * (pivot row / piv), both sides kept integral.
        g = gcd(piv, zc[enter])
        f, h = piv // g, zc[enter] // g
        if f != 1:
            zc, za = [v * f for v in zc], [v * f for v in za]
            zscale *= f
        for k, v in prow.items():
            hv = h * v
            za[k] -= hv  # artificial k, or the rhs when k == m
            if k < m:
                for j, a in arows[k]:
                    zc[j] -= hv * a
        if f != 1:
            g = gcd(zscale, *zc, *za)
            if g > 1:
                zc, za = [v // g for v in zc], [v // g for v in za]
                zscale //= g
        basis[r] = enter
    if za[m] == 0:
        x = [0] * nvars
        for i, j in enumerate(basis):
            if j < nvars:
                # Row i holds a true 1 in its basic column: that is its scale.
                scale = sum(binv[i].get(k, 0) * v for k, v in cols[j])
                x[j] = Fraction(binv[i].get(m, 0), scale)
        return FEASIBLE, x
    # Positive phase-1 objective: read the dual off the artificial columns.
    # For artificial i the reduced cost is 1 - y_i, so y_i = 1 - z_i/zscale;
    # the farkas vector is -y mapped through the row scaling.
    return INFEASIBLE, [(Fraction(za[i], zscale) - 1) * mults[i]
                        for i in range(m)]


def _least_ratio(cands, k, binv, col):
    """The rows i in cands of least binv[i][k] / col[i]; each col[i] > 0."""
    keep, kb, cb = [], 0, 1
    for i in cands:
        v = binv[i].get(k, 0)
        c = v * cb - kb * col[i]
        if c < 0 or not keep:
            keep, kb, cb = [i], v, col[i]
        elif c == 0:
            keep.append(i)
    return keep
