"""Exact rational matrices, rank, and LP feasibility with certificates.

Scalars are exact rationals, `int` or `fractions.Fraction`: arbitrary
precision, always in canonical form (reduced, positive denominator).  Nothing
in this module ever touches floating point.  The rank and LP feasibility
both take sparse rows of nonzero ints (SparseMatrix, which refuses anything
else); RatMatrix holds each matrix as the ints of its nonzeros over one
lcm, its int view, and writes dense rows only when they are read.
Rows of the form v (e_a - e_b) are contracted first: they join columns into
classes, and their rank is the number of columns joined.  Fraction-free
(Bareiss) elimination on the other rows, with each column summed into its
class, gives the rest of the rank exactly.  LP feasibility is a revised
simplex that keeps B^-1 of the basis B as sparse rows at positive scales,
its reduced costs started from C's column sums, kept on the matrix; its
witnesses and Farkas vectors are re-checked over the same rows, in ints.
"""

from fractions import Fraction
from itertools import chain, compress
from math import gcd, lcm
from operator import attrgetter, itemgetter

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"

# _phase1_simplex raises past this many pivots per row: its rule cannot cycle,
# and no LP of the tests, CI or benchmark takes over 5.4 per row (1550 on 290
# rows), so only a wrong update step gets there, and it fails, not hangs.
PIVOTS_PER_ROW = 64


class RatMatrix:
    """Matrix of exact rationals, held as its int view (L, flat, ints).

    flat holds the row-major positions i * cols + j of the nonzeros,
    increasing, L > 0 is the lcm of their denominators and ints[k] = L *
    entry, so gcd(L, *ints) = 1 and equal matrices have equal views.  An
    entry is an int or a Fraction, and anything else raises TypeError.  data
    writes fresh dense rows on each read, an integral entry as an int, so
    divide entries through Fraction: int / int is a float.
    """

    __slots__ = ("rows", "cols", "_view", "_by_col")

    def __init__(self, rows: int, cols: int, data):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ValueError("data shape does not match rows x cols")
        cells = [*chain.from_iterable(data)]
        if not {int, Fraction}.issuperset(map(type, cells)):
            raise TypeError("RatMatrix entries are ints or Fractions")
        mult, ints = clear_denominators([*compress(cells, cells)])
        self.rows, self.cols, self._by_col = rows, cols, None
        self._view = (mult, tuple(compress(range(len(cells)), cells)),
                      tuple(ints))

    @classmethod
    def from_rows(cls, rows) -> "RatMatrix":
        """The matrix of rows of ints, Fractions and strings like '3/4'."""
        data = [[Fraction(v) if type(v) is str else v for v in row]
                for row in rows]
        return cls(len(data), len(data[0]) if data else 0, data)

    @classmethod
    def from_view(cls, rows: int, cols: int, mult: int, flat, ints):
        """The matrix of the view (mult, flat, ints), flat increasing and
        ints nonzero, kept once divided by gcd(mult, ints)."""
        m = cls.__new__(cls)
        g = gcd(mult, *ints)
        m.rows, m.cols, m._by_col = rows, cols, None
        m._view = mult // g, tuple(flat), tuple(v // g for v in ints)
        return m

    def int_view(self):
        """(L, flat, ints), the matrix itself."""
        return self._view

    @property
    def data(self):
        """Fresh dense rows from the view, one object per distinct entry."""
        mult, flat, ints = self._view
        values = {v: Fraction(v, mult) if v % mult else v // mult
                  for v in set(ints)}
        data = [[0] * self.cols for _ in range(self.rows)]
        for f, v in zip(flat, ints):
            data[f // self.cols][f % self.cols] = values[v]
        return data

    def __eq__(self, other):
        return (isinstance(other, RatMatrix)
                and (self.rows, self.cols, self._view)
                == (other.rows, other.cols, other._view))

    def __repr__(self):
        return f"RatMatrix({self.rows}x{self.cols})"

    def matvec(self, x):
        """The exact product from the int view: x's nonzeros cleared to ints
        once, and each added into the rows of its column's nonzeros, over L
        times x's lcm, so a row gives an int or one Fraction."""
        if len(x) != self.cols:
            raise ValueError("vector length does not match column count")
        mult, flat, ints = self._view
        if self._by_col is None:
            self._by_col = [[] for _ in range(self.cols)]
            for f, v in zip(flat, ints):
                self._by_col[f % self.cols].append((f // self.cols, v))
        cols = list(compress(range(len(x)), x))
        xmult, xs = clear_denominators(list(map(x.__getitem__, cols)))
        acc = [0] * self.rows
        for c, xv in zip(cols, xs):
            for r, v in self._by_col[c]:
                acc[r] += v * xv
        mult *= xmult
        return [Fraction(v, mult) if v % mult else v // mult for v in acc]


class SparseMatrix:
    """rows x cols, one {column: value} dict per row, zeros absent.

    Every value is a nonzero int: a Fraction, a bool or a stored zero raises
    TypeError here, the one check that rat_rank and lp_feasible rely on.  The
    first lp_feasible over it keeps _simplex_index (the column index, the
    column sums and the rows by value) on it: rows stay fixed.
    """

    __slots__ = ("rows", "cols", "data", "_simplex", "_colsums", "_by_value")

    def __init__(self, rows: int, cols: int, data):
        values = [*chain.from_iterable(map(dict.values, data))]
        if not all(values) or not {int}.issuperset(map(type, values)):
            raise TypeError("SparseMatrix rows hold nonzero ints only")
        self.rows, self.cols, self.data = rows, cols, data
        self._simplex = self._colsums = self._by_value = None


def parse_matrix(text: str) -> RatMatrix:
    """Parse the text format: first line 'rows cols', then one row per line.

    Entries are read by Fraction(entry), once per distinct entry text, and
    the nonzeros go straight into the matrix's int view.  The entry "0",
    most cells of a transfer matrix, is skipped without a Fraction.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty matrix text")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError("header must be 'rows cols'")
    rows, cols = int(head[0]), int(head[1])
    if rows < 0 or cols < 0:
        raise ValueError("negative dimensions")
    if len(lines) - 1 != rows:
        raise ValueError(f"expected {rows} rows, got {len(lines) - 1}")
    flat, values, parsed = [], [], {}
    for i, ln in enumerate(lines[1:]):
        entries = ln.split()
        if len(entries) != cols:
            raise ValueError(f"expected {cols} entries per row, got {len(entries)}")
        for j, e in enumerate(entries):
            if e == "0":
                continue
            if (v := parsed.get(e)) is None:
                try:
                    v = parsed[e] = Fraction(e)
                except ZeroDivisionError:
                    raise ValueError(f"zero denominator in entry {e!r}") from None
            if v:
                flat.append(i * cols + j)
                values.append(v)
    mult, ints = clear_denominators(values)
    return RatMatrix.from_view(rows, cols, mult, flat, ints)


def format_matrix(m: RatMatrix) -> str:
    lines = [f"{m.rows} {m.cols}"]
    for row in m.data:
        lines.append(" ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


def rat_rank(m: SparseMatrix) -> int:
    """Exact rank of m's integer rows, read as they are.

    Rows v (e_a - e_b) say x_a = x_b on the kernel; they join the columns
    into k classes and have rank cols - k.  Their kernel is the vectors
    constant on each class, x = P z with P the cols x k class indicator, so
    the rank of all rows is cols - k plus the rank of R P, the other rows R
    with each column summed into its class.  Fraction-free (Bareiss)
    elimination gives that rank exactly.
    """
    if m.rows == 0 or m.cols == 0:
        return 0
    _, k, contracted = _contract_equalities(m.data, m.cols)
    return m.cols - k + _bareiss_rank(contracted, k)


def _contract_equalities(rows, ncols):
    """(cls, k, contracted): the classes of the columns joined by the rows
    v (e_a - e_b), numbered 0..k-1 by their least column, and every other
    row with each column summed into its class, zero sums and the rows left
    empty dropped.

    Union-find with path halving (Tarjan 1975), inlined; each root is its
    class's least column, so parent[c] <= c, and one pass in column order
    numbers every class from its parent's, already numbered.
    """
    parent = list(range(ncols))
    others = []
    for row in rows:
        if len(row) == 2:
            (a, v), (b, w) = row.items()
            if v == -w:
                while (p := parent[a]) != a:
                    parent[a] = a = parent[p]
                while (p := parent[b]) != b:
                    parent[b] = b = parent[p]
                if a < b:
                    parent[b] = a
                else:
                    parent[a] = b
                continue
        others.append(row)
    cls, k = [], 0
    for c, p in enumerate(parent):
        if p == c:
            cls.append(k)
            k += 1
        else:
            cls.append(cls[p])
    contracted = []
    for row in others:
        acc = {}
        for c, v in row.items():
            j = cls[c]
            acc[j] = acc.get(j, 0) + v
        if row := {j: v for j, v in acc.items() if v}:
            contracted.append(row)
    return cls, k, contracted


def _bareiss_rank(sparse_rows, ncols) -> int:
    """Exact rank by fraction-free (Bareiss) elimination over the integers,
    on sparse rows: each step gives the dense integers, on nonzeros only."""
    mat = [row for row in sparse_rows if row]
    nrows = len(mat)
    prev = 1
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if c in mat[i]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        prow = mat[r]
        a = prow[c]
        for i in range(r + 1, nrows):
            row = mat[i]
            b = row.get(c)
            if b is None:  # (a x - 0 y) / prev on row's own keys
                if prev != 1 or a != 1:
                    mat[i] = {k: a * x // prev for k, x in row.items()}
            else:
                mat[i] = {k: v for k in row.keys() | prow.keys() if (v := (
                    a * row.get(k, 0) - b * prow.get(k, 0)) // prev)}
        prev = a
        r += 1
        if r == nrows:
            break
    return r


def farkas_property():
    """A read-only .farkas over an object's certificate (ints, scale): the
    Fractions ints[i] / scale, built on first read and kept in _farkas."""
    def farkas(self):
        if self._farkas is None and self.certificate is not None:
            ys, scale = self.certificate
            self._farkas = [Fraction(v, scale) for v in ys]
        return self._farkas
    return property(farkas)


class Feasibility:
    """Outcome of an exact feasibility question {x >= 0 : Cx = d}.

    Exactly one of witness/certificate is set.  A witness satisfies Cx = d,
    x >= 0; a Farkas vector y satisfies C'y >= 0 componentwise and d'y < 0,
    proving emptiness.  certificate holds y as (ints, scale), y = ints /
    scale with scale > 0, and farkas reads it as Fractions on first use.
    Both are re-verified before being returned.
    """

    _farkas = None
    farkas = farkas_property()

    def __init__(self, status: str, witness: list | None = None,
                 certificate: tuple | None = None):
        self.status, self.witness = status, witness
        self.certificate = certificate

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
    factors that keep the sign of every entry of C'y and of d'y, and a
    vector of ints is read as it is; C's rows are ints, so the sums then run
    over ints, one term per nonzero of C.
    """
    if len(d) != c_matrix.rows or len(y) != c_matrix.rows:
        raise ValueError("dimension mismatch")
    ys, ds = (v if {int}.issuperset(map(type, v)) else clear_denominators(v)[1]
              for v in (y, d))
    acc = [0] * c_matrix.cols
    dty = 0
    for row, di, yi in zip(c_matrix.data, ds, ys):
        if yi:
            for j, v in row.items():
                acc[j] += v * yi
            dty += di * yi
    return min(acc, default=0) >= 0 and dty < 0


def lp_feasible(c_matrix: SparseMatrix, d, scale: int = 1) -> Feasibility:
    """Decide exactly whether {x >= 0 : Cx = d / scale} is nonempty.

    d holds ints over the positive int scale, and anything else in d raises
    TypeError.  Phase-1 revised simplex over the sparse rows of [C | d],
    scaled to integers (see _phase1_simplex).
    Entering column: most negative reduced cost, ties broken by lowest
    index; leaving row: lexicographic ratio test keyed on (rhs, artificial
    columns), which guarantees termination on degenerate systems and makes
    the output deterministic.  The witness is re-substituted into C on its
    support, and the certificate (ints at the simplex's scale) goes through
    check_farkas, before either is returned.
    """
    m, nvars = c_matrix.rows, c_matrix.cols
    if len(d) != m:
        raise ValueError("d length does not match row count of C")
    if scale < 1:
        raise ValueError("scale must be a positive int")
    if not {int}.issuperset(map(type, d)):
        raise TypeError("d holds ints only, over scale")
    cols, colsums, by_value = _simplex_index(c_matrix)
    status, out = _phase1_simplex(cols, colsums, by_value, d, scale, nvars)
    if status == FEASIBLE:
        x = out
        if any(v < 0 for v in x):
            raise AssertionError("simplex returned a negative witness entry")
        # C x = d / scale, with x's nonzeros scaled to ints by their lcm and
        # added in through their columns of C.
        support = [j for j, v in enumerate(x) if v]
        mult, xs = clear_denominators([x[j] for j in support])
        acc = [0] * m
        for j, xj in zip(support, xs):
            for i, v in cols[j]:
                acc[i] += v * xj
        if any(a * scale != di * mult for a, di in zip(acc, d)):
            raise AssertionError("simplex witness failed re-substitution")
        return Feasibility(FEASIBLE, witness=x)
    if not check_farkas(c_matrix, d, out[0]):
        raise AssertionError("simplex certificate failed the farkas check")
    return Feasibility(INFEASIBLE, certificate=out)


def _simplex_index(c_matrix: SparseMatrix):
    """(cols, colsums, by_value), the simplex's set-up that reads only C,
    built once and kept on c_matrix: cols[j] lists the (i, C[i][j]) of
    column j, one tuple per (i, value), shared by columns; colsums[j] is
    the sum of column j; by_value[i] lists (value, columns) per distinct
    value of row i, one pair over the row's keys for a row of one value
    (every Psi LP row).
    """
    if c_matrix._simplex is None:
        cols = [[] for _ in range(c_matrix.cols)]
        by_value = []
        for i, row in enumerate(c_matrix.data):
            if len(values := set(row.values())) == 1:
                runs = [(values.pop(), row.keys())]
            else:
                runs = {}
                for j, v in row.items():
                    runs.setdefault(v, []).append(j)
                runs = [*runs.items()]
            for v, js in runs:
                entry = (i, v)
                for j in js:
                    cols[j].append(entry)
            by_value.append(runs)
        c_matrix._colsums = [sum(map(itemgetter(1), col)) for col in cols]
        c_matrix._simplex, c_matrix._by_value = cols, by_value
    return c_matrix._simplex, c_matrix._colsums, c_matrix._by_value


def _phase1_simplex(cols, colsums, by_value, d, scale, nvars):
    """Phase-1 revised simplex over integer data: (FEASIBLE, x), x's
    entries Fractions, or (INFEASIBLE, (ints, zscale)), Farkas y = ints/zscale.

    cols, colsums and by_value are C's _simplex_index, and d / scale the
    rhs.  Row i of [C | d / scale] is scaled to integers with rhs >= 0 by
    mults[i], den(d_i / scale) with the sign of d_i.  An artificial column
    e_i is added, so the first basis is the artificials and the tableau is
    always B^-1 [A | I | b].  Only two parts of it are kept:

    - binv[i], row i of [B^-1 | B^-1 b] as a sparse {column: int} (the rhs
      under key m), held at its own positive scale;
    - zc and za, the reduced costs of [A | I | b] (for min sum of
      artificials), times the positive integer zscale.

    zc starts from minus the column sums, corrected only on the rows whose
    mults[i] is not 1 (most rows have d_i = 0).  Each pivot builds the
    entering column B^-1 A_e from the sparse columns of A, rewrites in place
    only the rows where it is nonzero and only at the pivot row's keys, and
    updates z through the pivot row [binv[r] A | binv[r]].  A row, or z, is
    multiplied only when the pivot does not divide its entry, and only then
    divided by its gcd again.  The rules read only ratios inside one row and
    comparisons inside z, so the positive scales leave the pivot sequence
    that of the full tableau.
    """
    m = len(by_value)
    if m == 0:
        return FEASIBLE, [0] * nvars
    # Flip signs so rhs >= 0; mults[i] maps certificates back to row i of C.
    gs = [gcd(di, scale) for di in d]
    mults = [(-scale if di < 0 else scale) // g for di, g in zip(d, gs)]
    rhs = [abs(di) // g for di, g in zip(d, gs)]
    binv = [{i: 1, m: b} if b else {i: 1} for i, b in enumerate(rhs)]
    holders = [{i} for i in range(m)]  # holders[k]: rows i with k in binv[i]
    # Phase-1 reduced costs, zc on the structural columns (0 - the column
    # sums of the scaled rows) and za on the artificials (1 - 1 = 0) and the
    # rhs (index m).
    zc, za = [-v for v in colsums], [0] * m + [-sum(rhs)]
    for f, row in zip(mults, by_value):
        if f != 1:
            f -= 1
            for v, js in row:
                v *= f
                for j in js:
                    zc[j] -= v
    zscale = 1
    basis = list(range(nvars, nvars + m))
    budget = PIVOTS_PER_ROW * m
    while True:
        best = min(zc, default=0)  # artificials never re-enter
        if best >= 0:
            break
        if budget == 0:
            raise AssertionError(f"phase-1 simplex passed its pivot budget "
                                 f"of {PIVOTS_PER_ROW} per row ({m} rows)")
        budget -= 1
        enter = zc.index(best)
        col = {}
        get = col.get
        for k, v in cols[enter]:
            v *= mults[k]
            for i in holders[k]:
                col[i] = get(i, 0) + binv[i][k] * v
        cands = [i for i, a in col.items() if a > 0]
        if not cands:
            # Phase-1 objective is bounded below by 0, so this cannot happen.
            raise AssertionError("phase-1 ratio test found no pivot row")
        # Lexicographic ratio test on (rhs, artificial columns): every rhs is
        # >= 0, so zero-rhs rows win first, then the rows of least rhs ratio;
        # _lex_least breaks a tie on the artificial columns.
        cands = ([i for i in cands if m not in binv[i]]
                 or _least_ratio(cands, m, binv, col))
        r = cands[0] if len(cands) == 1 else _lex_least(cands, binv, col)
        prow = binv[r]
        piv = col[r]
        for i, a in col.items():
            if i == r or not a:
                continue
            g = gcd(piv, a)
            f, h = piv // g, a // g
            row = binv[i]
            if f != 1:
                row = binv[i] = {k: f * v for k, v in row.items()}
            for k, v in prow.items():
                if w := row.get(k, 0) - h * v:
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
                hv *= mults[k]
                for a, js in by_value[k]:
                    a *= hv
                    for j in js:
                        zc[j] -= a
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
                scale = sum(binv[i].get(k, 0) * mults[k] * v
                            for k, v in cols[j])
                x[j] = Fraction(binv[i].get(m, 0), scale)
        return FEASIBLE, x
    # Positive phase-1 objective: read the dual off the artificial columns.
    # For artificial i the reduced cost is 1 - y_i, so y_i = 1 - z_i/zscale;
    # the farkas vector is -y mapped through the row scaling, at zscale.
    return INFEASIBLE, ([(za[i] - zscale) * mults[i] for i in range(m)],
                        zscale)


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


def _lex_least(cands, binv, col):
    """The row i of cands with the lexicographically least binv[i] / col[i]
    (each col[i] > 0), keys in increasing order.  A row of B^-1 is nonzero,
    so its least key is an artificial column: the row whose least key is
    lower wins there iff its entry is negative, and rows of one least key
    compare entries cross-multiplied, key by key."""
    r = cands[0]
    br, cr = binv[r], col[r]
    kr = min(br)
    tied = False
    for i in cands[1:]:
        bi, ci = binv[i], col[i]
        ki = min(bi)
        if ki != kr:
            less = bi[ki] < 0 if ki < kr else br[kr] > 0
        else:
            if not (x := bi[ki] * cr - br[kr] * ci):
                for k in sorted(bi.keys() | br.keys()):
                    if x := bi.get(k, 0) * cr - br.get(k, 0) * ci:
                        break
                else:
                    # Rows tied on every key would have proportional rows.
                    tied = True
            less = x < 0
        if less:
            r, br, cr, kr, tied = i, bi, ci, ki, False
    if tied:
        raise AssertionError("lexicographic ratio test left a tie")
    return r
