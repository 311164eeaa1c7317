"""Circulant variable patterns and the exhaustive A = P B Q search.

A pattern is an n x n grid whose cells hold variable indices from {1..n};
every row must contain each variable exactly once.  The two patterns of
interest are the plain circulant (first row x1..xn, each later row the one
above shifted left by one place) and its sigma-relabeled variant whose first
row is permuted by sigma before shifting.
"""

from .permutations import Permutation


class VarMatrix:
    """n x n grid of variable indices; each row holds each of 1..n once."""

    __slots__ = ("n", "entry")

    def __init__(self, entry):
        entry = tuple(tuple(int(v) for v in row) for row in entry)
        n = len(entry)
        expected = list(range(1, n + 1))
        for row in entry:
            if sorted(row) != expected:
                raise ValueError(f"row {row} is not a permutation of 1..{n}")
        self.n = n
        self.entry = entry

    def __eq__(self, other):
        return isinstance(other, VarMatrix) and self.entry == other.entry

    def __repr__(self):
        return f"VarMatrix({self.entry})"

    def row(self, i: int):
        """Row i, 1-based."""
        return self.entry[i - 1]


def build_A(n: int) -> VarMatrix:
    """Circulant pattern: cell (i,k) holds variable ((i+k-2) mod n) + 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return VarMatrix([[((i + k) % n) + 1 for k in range(n)] for i in range(n)])


def build_B(n: int, sigma: Permutation) -> VarMatrix:
    """Sigma-relabeled circulant: cell (j,l) holds sigma(((j+l-2) mod n) + 1)."""
    if sigma.n != n:
        raise ValueError("sigma size does not match n")
    return VarMatrix(
        [[sigma.image[(j + l) % n] for l in range(n)] for j in range(n)])


def exists_PQ(a: VarMatrix, b: VarMatrix):
    """A pair (p, q) with a[i][k] = b[p(i)][q(k)] for all i, k; None if none.

    The search anchors on the image of a's first row: for each candidate row
    r of b, the column permutation is forced (rows hold distinct variables),
    and the remaining row assignment is a multiset match.  All n!^2 pairs are
    thereby covered; the first hit in ascending r is the lexicographically
    smallest (p, q).
    """
    n = a.n
    if b.n != n:
        raise ValueError("size mismatch")
    target_rows = a.entry
    for r in range(1, n + 1):
        brow = b.row(r)
        pos = {var: idx + 1 for idx, var in enumerate(brow)}
        q_img = [pos[target_rows[0][k]] for k in range(n)]
        permuted = {}
        for j in range(1, n + 1):
            key = tuple(b.entry[j - 1][q_img[k] - 1] for k in range(n))
            permuted.setdefault(key, []).append(j)
        p_img = []
        taken: dict[tuple, int] = {}
        for row in target_rows:
            rows_for_key = permuted.get(row, [])
            used = taken.get(row, 0)
            if used >= len(rows_for_key):
                p_img = []
                break
            p_img.append(rows_for_key[used])
            taken[row] = used + 1
        if p_img:
            return Permutation(p_img), Permutation(q_img)
    return None


def format_varmatrix(m: VarMatrix) -> str:
    lines = [str(m.n)]
    for row in m.entry:
        lines.append(" ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"
