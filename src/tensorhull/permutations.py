"""Permutations of {1..n}, the admissible-sigma filter and the pruned search
for pairs (p, q) that every row block allows (pair_search).

A permutation sigma is called *admissible* here when conjugating the full
cycle rho = (1 2 ... n) by sigma lands outside the subgroup generated by
rho.  Those sigma are exactly the ones the counterexample construction
accepts.  Reading 1..n as Z_n, sigma rho sigma^-1 sends sigma(x) to
sigma(x+1), so it is rho^i exactly when every step sigma(x+1) - sigma(x) is
i mod n: sigma is inadmissible iff it is one of the n*phi(n) affine maps
x -> i*x + b of Z_n (i a unit, b any), which leaves n! - n*phi(n)
admissible sigma.
"""

import itertools
import re
from math import factorial, gcd

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
        seen = set()
        out = []
        for start in range(1, self.n + 1):
            cyc = []
            j = start
            while j not in seen:
                seen.add(j)
                cyc.append(j)
                j = self(j)
            if cyc:
                out.append(tuple(cyc))
        return out

    def cycle_string(self) -> str:
        return "".join("(" + " ".join(str(v) for v in c) + ")"
                       for c in self.cycles() if len(c) > 1) or "()"

    def image_string(self) -> str:
        return " ".join(str(v) for v in self.image)


def identity(n: int) -> Permutation:
    return Permutation(range(1, n + 1))


def is_counterexample_sigma(sigma: Permutation) -> bool:
    """True iff sigma rho sigma^-1 is not a power of rho.

    sigma rho sigma^-1 maps sigma(x) to sigma(x+1), so it is rho^i iff every
    step sigma(x+1) - sigma(x), with x + 1 taken mod n, is i mod n; those
    sigma are the n*phi(n) affine maps of Z_n, and every other sigma takes
    more than one step.
    """
    img = sigma.image
    n = len(img)
    return len({(img[(x + 1) % n] - img[x]) % n for x in range(n)}) > 1


def pair_search(masks):
    """Lazily, (p image, open) for every p that the pruned search keeps, in
    lexicographic order.  Bit l of masks[i][j][k] lets q(k) = l + 1 go with
    p(i) = j + 1 (for a matrix c: c[(i,k),(j,l)] is nonzero).  p grows one
    row i at a time, open[k] keeping the columns every placed i allows q(k),
    and a prefix that leaves some k none is cut; open_images(open) lists q.
    """
    n = len(masks)

    def grow(i, used, p_img, open_):
        if i == n:
            yield p_img, tuple(open_)
            return
        for j in range(n):
            if not used >> j & 1:
                nxt = [a & b for a, b in zip(open_, masks[i][j])]
                if all(nxt):
                    yield from grow(i + 1, used | 1 << j, (*p_img, j + 1), nxt)

    return grow(0, 0, (), [(1 << n) - 1] * n)


def open_images(open_, k: int = 0, used: int = 0):
    """Lexicographically, each q image (from k on, off the columns in used)
    with bit q(k) - 1 of open_[k] set."""
    if k == len(open_):
        yield ()
        return
    free = open_[k] & ~used
    for l in range(len(open_)):
        if free >> l & 1:
            for rest in open_images(open_, k + 1, used | 1 << l):
                yield (l + 1, *rest)


def first_pair(masks):
    """pair_search's least (p, q), or None; the search stops there."""
    return next(((Permutation(p), Permutation(q))
                 for p, open_ in pair_search(masks)
                 for q in open_images(open_)), None)


def all_permutations(n: int):
    """All of S_n in lexicographic order of image arrays."""
    for img in itertools.permutations(range(1, n + 1)):
        yield Permutation(img)


def admissible_sigmas(n: int, sn_cap: int = DEFAULT_SN_CAP):
    """All admissible sigma in S_n, lexicographic, by the test alone."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > sn_cap:
        raise ValueError(f"n={n} exceeds the full enumeration cap {sn_cap}")
    return [s for s in all_permutations(n) if is_counterexample_sigma(s)]


def enumerate_counterexample_sigmas(n: int, sn_cap: int = DEFAULT_SN_CAP):
    """admissible_sigmas, asserted to number n! - n*phi(n)."""
    found = admissible_sigmas(n, sn_cap)
    expected = factorial(n) - n * euler_phi(n)
    if len(found) != expected:
        raise AssertionError(
            f"admissible count {len(found)} != n! - n*phi(n) = {expected} at n={n}")
    return found


def euler_phi(n: int) -> int:
    """Euler totient: the number of units of Z_n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


# A cycle spec: parenthesized lists of digits, with spaces, commas or tabs
# inside and between the cycles and nothing else.
_CYCLE_SPEC = re.compile(r"[ ,\t]*(?:\([\d ,\t]*\)[ ,\t]*)+")


def parse_permutation(text: str, n: int) -> Permutation:
    """Parse 'identity', an image array '2 3 4 1', or cycles '(1 2)(3 4)'.

    Cycle entries may be separated by spaces, commas or tabs.  Image arrays
    must list all of 1..n; cycles may omit fixed points.
    """
    text = text.strip()
    if not text:
        raise ValueError("empty permutation spec")
    if text.lower() in ("identity", "id", "e"):
        return identity(n)
    if "(" in text or ")" in text:
        if not _CYCLE_SPEC.fullmatch(text):
            raise ValueError(f"malformed cycle notation {text!r}")
        img = list(range(1, n + 1))
        used: set[int] = set()
        for body in re.findall(r"\(([^)]*)\)", text):
            cycle = [int(v) for v in re.findall(r"\d+", body)]
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
        return Permutation(img)
    img = [int(tok) for tok in text.replace(",", " ").split()]
    if len(img) != n:
        raise ValueError(f"image array has length {len(img)}, expected n={n}")
    return Permutation(img)
