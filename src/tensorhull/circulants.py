"""Circulant variable patterns and the exhaustive A = P B Q search.

A pattern is an n x n grid whose cells hold variable indices from {1..n};
every row must contain each variable exactly once.  The two patterns of
interest are the plain circulant (first row x1..xn, each later row the one
above shifted left by one place) and its sigma-relabeled variant whose first
row is permuted by sigma before shifting.
"""

from .permutations import Permutation, first_pair


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
    """The least (p, q) with a[i][k] = b[p(i)][q(k)] for all i, k, or None:
    pair_search with masks[i][j][k] the one bit where row j of b holds
    a[i][k]."""
    if b.n != a.n:
        raise ValueError("size mismatch")
    pos = [{v: 1 << l for l, v in enumerate(row)} for row in b.entry]
    return first_pair([[[at[v] for v in row] for at in pos]
                       for row in a.entry])


def format_varmatrix(m: VarMatrix) -> str:
    lines = [str(m.n)]
    for row in m.entry:
        lines.append(" ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"
