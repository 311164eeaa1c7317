"""Permutations of {1..n}, the cyclic shift, and the admissible-sigma filter.

A permutation sigma is called *admissible* here when conjugating the full
cycle rho = (1 2 ... n) by sigma lands outside the subgroup generated by
rho.  Those sigma are exactly the ones the counterexample construction
accepts, and there are n! - n*phi(n) of them.
"""

import itertools
from math import factorial

DEFAULT_SN_CAP = 8


class Permutation:
    """Bijection of {1..n}, stored as the image tuple (image[i-1] = pi(i))."""

    __slots__ = ("image",)

    def __init__(self, image):
        image = tuple(int(v) for v in image)
        n = len(image)
        if sorted(image) != list(range(1, n + 1)):
            raise ValueError(f"not a bijection of 1..{n}: {image}")
        self.image = image

    @property
    def n(self) -> int:
        return len(self.image)

    def __call__(self, i: int) -> int:
        if not 1 <= i <= len(self.image):
            raise ValueError(f"point {i} outside 1..{len(self.image)}")
        return self.image[i - 1]

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.image == other.image

    def __hash__(self):
        return hash(self.image)

    def __repr__(self):
        return f"Permutation{self.image}"

    def __lt__(self, other):
        return self.image < other.image

    def cycles(self):
        """Disjoint cycles, each rotated to start at its minimum, sorted."""
        seen = [False] * self.n
        out = []
        for start in range(1, self.n + 1):
            if seen[start - 1]:
                continue
            cyc = [start]
            seen[start - 1] = True
            j = self(start)
            while j != start:
                cyc.append(j)
                seen[j - 1] = True
                j = self(j)
            out.append(tuple(cyc))
        return out

    def cycle_string(self) -> str:
        nontrivial = [c for c in self.cycles() if len(c) > 1]
        if not nontrivial:
            return "()"
        return "".join("(" + " ".join(str(v) for v in c) + ")" for c in nontrivial)

    def image_string(self) -> str:
        return " ".join(str(v) for v in self.image)


def identity(n: int) -> Permutation:
    return Permutation(range(1, n + 1))


def cyclic(n: int) -> Permutation:
    """The full cycle rho = (1 2 ... n), i.e. rho(i) = i+1 and rho(n) = 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return Permutation(list(range(2, n + 1)) + [1])


def compose(a: Permutation, b: Permutation) -> Permutation:
    """compose(a, b)(i) = a(b(i))."""
    if a.n != b.n:
        raise ValueError("size mismatch")
    return Permutation(a.image[v - 1] for v in b.image)


def inverse(a: Permutation) -> Permutation:
    img = [0] * a.n
    for i, v in enumerate(a.image, 1):
        img[v - 1] = i
    return Permutation(img)


def conjugate(s: Permutation, r: Permutation) -> Permutation:
    """s r s^-1."""
    return compose(compose(s, r), inverse(s))


def power_of_cyclic(pi: Permutation, n: int | None = None):
    """Exponent i in 0..n-1 with pi = rho^i, or None if pi is no power of rho."""
    if n is None:
        n = pi.n
    elif n != pi.n:
        raise ValueError("size mismatch")
    rho = cyclic(n)
    cur = identity(n)
    for i in range(n):
        if pi == cur:
            return i
        cur = compose(rho, cur)
    return None


def is_counterexample_sigma(sigma: Permutation) -> bool:
    """True iff sigma rho sigma^-1 is not a power of rho."""
    return power_of_cyclic(conjugate(sigma, cyclic(sigma.n))) is None


def all_permutations(n: int):
    """All of S_n in lexicographic order of image arrays."""
    for img in itertools.permutations(range(1, n + 1)):
        yield Permutation(img)


def enumerate_counterexample_sigmas(n: int, sn_cap: int = DEFAULT_SN_CAP):
    """All admissible sigma in S_n, lexicographic; length is n! - n*phi(n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > sn_cap:
        raise ValueError(f"n={n} exceeds the full enumeration cap {sn_cap}")
    found = [s for s in all_permutations(n) if is_counterexample_sigma(s)]
    expected = factorial(n) - n * euler_phi(n)
    if len(found) != expected:
        raise AssertionError(
            f"admissible count {len(found)} != n! - n*phi(n) = {expected} at n={n}")
    return found


def euler_phi(n: int) -> int:
    """Euler totient by trial factorization."""
    if n < 1:
        raise ValueError("n must be >= 1")
    result = n
    p = 2
    rem = n
    while p * p <= rem:
        if rem % p == 0:
            while rem % p == 0:
                rem //= p
            result -= result // p
        p += 1
    if rem > 1:
        result -= result // rem
    return result


def parse_permutation(text: str, n: int) -> Permutation:
    """Parse 'identity', an image array '2 3 4 1', or cycles '(1 2)(3 4)'.

    Cycle entries may be separated by spaces or commas.  Image arrays must
    list all of 1..n; cycles may omit fixed points.
    """
    text = text.strip()
    if not text:
        raise ValueError("empty permutation spec")
    if text.lower() in ("identity", "id", "e", "()"):
        return identity(n)
    if "(" in text:
        img = list(range(1, n + 1))
        used: set[int] = set()
        depth = 0
        cycle: list[int] = []
        token = ""

        def flush_token():
            if token:
                cycle.append(int(token))

        for ch in text:
            if ch == "(":
                if depth:
                    raise ValueError("nested parentheses in cycle notation")
                depth = 1
                cycle = []
                token = ""
            elif ch == ")":
                if not depth:
                    raise ValueError("unbalanced ')'")
                flush_token()
                token = ""
                depth = 0
                _apply_cycle(img, cycle, n, used)
            elif ch in " ,\t":
                flush_token()
                token = ""
            elif ch.isdigit():
                if not depth:
                    raise ValueError(f"digit {ch!r} outside a cycle")
                token += ch
            else:
                raise ValueError(f"unexpected character {ch!r} in cycle notation")
        if depth:
            raise ValueError("unbalanced '('")
        return Permutation(img)
    img = [int(tok) for tok in text.replace(",", " ").split()]
    if len(img) != n:
        raise ValueError(f"image array has length {len(img)}, expected n={n}")
    return Permutation(img)


def _apply_cycle(img, cycle, n, used):
    if len(set(cycle)) != len(cycle):
        raise ValueError(f"repeated point in cycle {cycle}")
    for v in cycle:
        if not 1 <= v <= n:
            raise ValueError(f"cycle point {v} outside 1..{n}")
        if v in used:
            raise ValueError(f"point {v} appears in two cycles")
        used.add(v)
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        img[a - 1] = b
