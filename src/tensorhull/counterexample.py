"""The transfer matrix T of a pair (n, sigma) and the verification pipeline.

T is the n^2 x n^2 matrix with entries 0 and 1/n whose ((i,k),(j,l)) entry
is 1/n exactly when cell (j,l) of the sigma-relabeled circulant holds the
same variable as cell (i,k) of the plain circulant.  Since each variable
fills n cells on either side, T carries each circulant cell to the average
of the matching cells, which is what makes it a member of Phi.  For every
admissible sigma T lies outside Psi, and for most it is also a vertex of
Phi; at n = 6, 96 of the 708 admissible sigma leave the support columns
rank-deficient, and the phi_vertex stage fails on them.  T is fixed by a
group of order 2n^2, so the psi_lp stage solves the Psi LP over its orbits
(orbit_psi_contains) and re-checks the lifted answer on the full system.
"""

import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import compress, permutations
from math import factorial

from .circulants import build_A, build_B, exists_PQ
from .exactmath import RatMatrix, SparseMatrix, lp_feasible
from .permutations import Permutation, is_counterexample_sigma
from .polytopes import (
    FULL,
    MembershipResult,
    admissible_pairs,
    all_pairs,
    build_phi_constraints,
    check_lp_size,
    kron_support,
    phi_contains,
    phi_support_rank,
    psi_contains,
    weights_reconstruct,
    _scaled_rhs,
    _verify_psi_farkas,
)

LP_DEFAULT_CAP = 4

LP_INFEASIBLE = "infeasible_certified"
LP_FEASIBLE = "feasible"
LP_SKIPPED = "skipped"


def _flat_variables(n: int, sigma: Permutation):
    """A's and B's variables, cell by cell in TensorIndex.flat order."""
    return ([m for row in build_A(n).entry for m in row],
            [m for row in build_B(n, sigma).entry for m in row])


def build_T(n: int, sigma: Permutation) -> RatMatrix:
    """The 0-or-1/n transfer matrix matching variables of B to variables of A."""
    if sigma.n != n:
        raise ValueError("sigma size does not match n")
    a, b = _flat_variables(n, sigma)
    nn = n * n
    # B's cells sorted by variable: variable m fills by_var[n*(m-1):n*m].
    by_var = sorted(range(nn), key=b.__getitem__)
    val = Fraction(1, n)
    data = [[0] * nn for _ in range(nn)]
    for row, m in zip(data, a):
        for f in by_var[n * (m - 1):n * m]:
            row[f] = val
    return RatMatrix(nn, nn, data)


def verify_transfer_identity(t: RatMatrix, n: int, sigma: Permutation) -> bool:
    """Check u_m = T v_m for each variable's indicator vectors u (in A), v (in B).

    The entries of both circulants are single variables, so the n basis
    substitutions prove the transfer identity for all variable values.
    """
    nn = n * n
    if t.rows != nn or t.cols != nn or sigma.n != n:
        raise ValueError("shape mismatch")
    a, b = _flat_variables(n, sigma)
    for m in range(1, n + 1):
        if t.matvec([int(x == m) for x in b]) != [int(x == m) for x in a]:
            return False
    return True


@dataclass
class BlockReport:
    ok: bool
    failures: list

    def __bool__(self):
        return self.ok


def block_structure_report(t: RatMatrix, n: int) -> BlockReport:
    """Each of the four index-pair slices must be 1/n times a permutation matrix.

    Slices: fix (i,j) and vary (k,l); fix (k,l) and vary (i,j); fix (i,l)
    and vary (k,j); fix (k,j) and vary (i,l).  One pass over the nonzeros
    of t places each in its slice of every family; a slice passes when its
    nonzeros all equal 1/n and hit each of its rows and columns once.
    """
    nn = n * n
    if t.rows != nn or t.cols != nn:
        raise ValueError("shape mismatch")
    names = ("fix(i,j)", "fix(k,l)", "fix(i,l)", "fix(k,j)")
    rng = range(n)
    # (family, fixed pair) -> (rows hit, columns hit), 0-based.  A nonzero
    # other than 1/n hits column -1, so no slice holding one passes.
    hits = {(s, a, b): ([], []) for s in range(len(names)) for a in rng
            for b in rng}
    val = Fraction(1, n)
    for rf, row in enumerate(t.data):
        i, k = divmod(rf, n)
        for cf in compress(range(nn), row):
            j, l = divmod(cf, n)
            good = row[cf] == val
            # Where ((i,k),(j,l)) falls in each family: (slice, row, column).
            for key, x, y in (((0, i, j), k, l), ((1, k, l), i, j),
                              ((2, i, l), k, j), ((3, k, j), i, l)):
                rows, cols = hits[key]
                rows.append(x)
                cols.append(y if good else -1)
    full = list(rng)
    failures = [f"{names[s]}[{a + 1},{b + 1}]"
                for (s, a, b), (rows, cols) in hits.items()
                if sorted(rows) != full or sorted(cols) != full]
    return BlockReport(not failures, failures)


def certify_not_in_psi(t: RatMatrix, n: int) -> bool:
    """True iff no Kronecker vertex has its support inside the support of T.

    A convex combination equal to T would have to give zero weight to every
    vertex with a one outside supp(T); with no support-contained vertex at
    all, no combination exists, so True implies T is outside Psi.  The
    pruned support search of admissible_pairs decides it; raises ValueError
    unless T is n^2 x n^2.
    """
    return not admissible_pairs(t, n)


@lru_cache(maxsize=None)
def _orbit_system(n: int):
    """The Psi LP over the orbits of the group G of order 2n^2 that fixes
    every transfer matrix T; it does not depend on sigma and holds ints only.

    G is generated by the row shift ((i,k),(j,l)) -> ((i+1,k-1),(j,l)), the
    column shift ((i,k),(j,l)) -> ((i,k),(j+1,l-1)) (indices mod n) and the
    joint transpose ((i,k),(j,l)) -> ((k,i),(l,j)).  It maps kron(p, q) to
    the Kronecker vertex of (p', q') with p'(i) = p(i-1), q'(k) = q(k+1);
    p' = p+1, q' = q-1; and p' = q, q' = p.  Pair j is the j-th of
    all_pairs(n).  Returns (cell_orbit, cell_reps, pair_orbits, system):

    - cell_orbit[v] numbers the orbit of canonical cell v, and cell_reps[r]
      is the least cell of orbit r;
    - pair_orbits[o] lists the indices of the pairs in orbit o;
    - system has one row per cell orbit R and the sum-to-1 row last, and
      one column per pair orbit O.  Its coefficient in row R is the number
      of pairs of O with a one at R's representative cell, which is
      |O| |supp(P) cap R| / |R| for any P in O: G is transitive on R and
      maps O onto itself, so the |O| |supp(P) cap R| incidences fall evenly
      on the cells of R.  In the sum-to-1 row it is |O|.
    """
    nn = n * n
    rng = range(n)

    def components(size, moves):
        """The orbits of range(size) under the generators moves(x)."""
        orbit = [-1] * size
        members = []
        for x in range(size):
            if orbit[x] < 0:
                orbit[x] = len(members)
                comp = [x]
                for y in comp:  # comp grows while it is read
                    for z in moves(y):
                        if orbit[z] < 0:
                            orbit[z] = len(members)
                            comp.append(z)
                members.append(comp)
        return orbit, members

    def cell_moves(v):
        ik, jl = divmod(v, nn)
        (i, k), (j, l) = divmod(ik, n), divmod(jl, n)
        return ((n * ((i + 1) % n) + (k - 1) % n) * nn + jl,
                ik * nn + n * ((j + 1) % n) + (l - 1) % n,
                (n * k + i) * nn + n * l + j)

    perms = list(permutations(rng))
    index = {p: a for a, p in enumerate(perms)}
    nperm = len(perms)
    row_p = [index[(p[-1], *p[:-1])] for p in perms]
    row_q = [index[(*p[1:], p[0])] for p in perms]
    col_p = [index[tuple((x + 1) % n for x in p)] for p in perms]
    col_q = [index[tuple((x - 1) % n for x in p)] for p in perms]

    def pair_moves(x):
        a, b = divmod(x, nperm)
        return (row_p[a] * nperm + row_q[b], col_p[a] * nperm + col_q[b],
                b * nperm + a)

    cell_orbit, cells = components(nn * nn, cell_moves)
    _, pair_orbits = components(nperm * nperm, pair_moves)
    data = [{} for _ in range(len(cells) + 1)]
    for o, orbit in enumerate(pair_orbits):
        p, q = divmod(orbit[0], nperm)
        p, q = perms[p], perms[q]
        hits = Counter(cell_orbit[n * (i * nn + p[i]) + k * nn + q[k]]
                       for i in rng for k in rng)
        for r, h in hits.items():
            data[r][o] = len(orbit) * h // len(cells[r])
        data[-1][o] = len(orbit)
    system = SparseMatrix(len(data), len(pair_orbits), data)
    return (tuple(cell_orbit), tuple(comp[0] for comp in cells),
            tuple(map(tuple, pair_orbits)), system)


def orbit_psi_contains(c: RatMatrix, n: int) -> MembershipResult:
    """psi_contains(c, n, mode=FULL, allow_large=True) for a c that the
    group G of _orbit_system fixes, such as every transfer matrix T, solved
    on the orbit LP (17 x 34 at n = 4, 26 x 356 at n = 5).

    Averaging over G (the Reynolds operator) turns any solution or Farkas
    vector into a G-invariant one, so the orbit LP decides the same
    question.  Its answers are lifted and re-checked without G:

    - a witness gives each pair of an orbit O the weight of O; the weights
      must sum to 1 and rebuild c through weights_reconstruct;
    - a Farkas vector (y_R per cell orbit R, y_0 on the sum-to-1 row) lifts
      to y_v = y_R / |R| on each cell v of R and y_0 on the sum-to-1 row.
      Lemma: for such an invariant y, C'y at a pair P of orbit O is
      sum_R |supp(P) cap R| y_R / |R| + y_0, which is the orbit LP's column
      O times (y_R, y_0), divided by |O|; so C'y is constant on each pair
      orbit, and d'y = sum_v c_v y_v + y_0 = sum_R c_R y_R + y_0 is the
      orbit LP's.  The lift is still re-checked by _verify_psi_farkas
      against the canonical system over all n!^2 supports.

    If c is not constant on every cell orbit, or a lifted answer fails its
    re-check, the full-mode psi_contains decides (and refuses a c with a
    negative entry).  The Psi LP size cap (check_lp_size over all n!^2
    pairs) applies before anything is built.
    """
    nn = n * n
    if c.rows != nn or c.cols != nn:
        raise ValueError(f"matrix must be {nn} x {nn}")
    check_lp_size(n, factorial(n) ** 2)
    mult, rhs = _scaled_rhs(c)
    cell_orbit, cell_reps, pair_orbits, system = _orbit_system(n)
    if min(rhs) >= 0 and all(rhs[v] == rhs[cell_reps[r]]
                             for v, r in enumerate(cell_orbit)):
        d = [Fraction(rhs[v], mult) for v in cell_reps] + [1]
        outcome = lp_feasible(system, d)
        pairs = all_pairs(n)
        if outcome.feasible:
            weights = {(pairs[j][0].image, pairs[j][1].image): w
                       for orbit, w in zip(pair_orbits, outcome.witness)
                       if w for j in orbit}
            if (sum(weights.values()) == 1
                    and weights_reconstruct(weights, n) == c):
                return MembershipResult(True, FULL, pairs, weights=weights)
        else:
            *y_cells, y_sum = outcome.farkas
            sizes = Counter(cell_orbit)
            y_orbit = [Fraction(yr, sizes[r]) for r, yr in enumerate(y_cells)]
            y = [*map(y_orbit.__getitem__, cell_orbit), y_sum]
            supports = [kron_support(p, q) for p, q in pairs]
            if _verify_psi_farkas(rhs, n, supports, y):
                return MembershipResult(False, FULL, pairs, farkas=y)
    return psi_contains(c, n, mode=FULL, allow_large=True)


@dataclass
class VerificationReport:
    """Machine-checkable outcome of the full pipeline for one (n, sigma)."""

    n: int
    sigma: Permutation
    sigma_admissible: bool = False
    factorization_absent: bool = False
    transfer_identity: bool = False
    block_structure: bool = False
    in_phi: bool = False
    is_vertex: bool = False
    support_certificate: bool = False
    lp_status: str = LP_SKIPPED
    support_size: int = 0
    support_rank: int = 0
    red_flags: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)

    # (stage name, key in the JSON "stages" block, report field), in run
    # order.  Stage names appear in failed_stages, red flags and timings.
    STAGES = (
        ("admissibility", "admissibility", "sigma_admissible"),
        ("pattern_search", "pattern_factorization_absent",
         "factorization_absent"),
        ("transfer", "transfer_identity", "transfer_identity"),
        ("block_structure", "block_structure", "block_structure"),
        ("phi_membership", "phi_membership", "in_phi"),
        ("phi_vertex", "phi_vertex", "is_vertex"),
        ("psi_certificate", "psi_support_certificate", "support_certificate"),
        ("psi_lp", "psi_lp", "lp_status"),
    )

    @property
    def confirmed(self) -> bool:
        return not self.failed_stages()

    def failed_stages(self) -> list:
        # A field passes on True, and lp_status on a certified or skipped LP.
        return [name for name, _, attr in self.STAGES
                if getattr(self, attr) not in (True, LP_INFEASIBLE, LP_SKIPPED)]

    def to_dict(self, include_timings: bool = True) -> dict:
        out = {
            "n": self.n,
            "sigma": {
                "image": list(self.sigma.image),
                "cycles": self.sigma.cycle_string(),
            },
            "stages": {key: getattr(self, attr)
                       for _, key, attr in self.STAGES},
            "support": {"size": self.support_size, "rank": self.support_rank},
            "confirmed": self.confirmed,
            "failed_stages": self.failed_stages(),
            "red_flags": list(self.red_flags),
        }
        if include_timings:
            out["timings"] = dict(self.timings)
        return out


def full_verification(n: int, sigma: Permutation, run_lp: bool | None = None,
                      strict_families: bool = False) -> VerificationReport:
    """Run every stage for one (n, sigma) and return the complete report.

    No stage is skipped silently: the LP stage records 'skipped' when not
    run (default for n > 4), and an LP over check_lp_size's cap is refused
    before the first stage.  A sigma that passes the admissibility filter
    but fails any later stage raises a red flag in the report; it is never
    reconciled away.
    """
    if sigma.n != n:
        raise ValueError("sigma size does not match n")
    if run_lp is None:
        run_lp = n <= LP_DEFAULT_CAP
    if run_lp:
        check_lp_size(n, factorial(n) ** 2)
    report = VerificationReport(n=n, sigma=sigma)
    clock = time.perf_counter

    def stage(name, fn):
        t0 = clock()
        try:
            return fn()
        except Exception as exc:
            raise RuntimeError(f"stage {name} failed: {exc}") from exc
        finally:
            report.timings[name] = clock() - t0

    report.sigma_admissible = stage(
        "admissibility", lambda: is_counterexample_sigma(sigma))
    report.factorization_absent = stage(
        "pattern_search",
        lambda: exists_PQ(build_A(n), build_B(n, sigma)) is None)

    def transfer():
        t = build_T(n, sigma)
        return t, verify_transfer_identity(t, n, sigma)

    t, report.transfer_identity = stage("transfer", transfer)
    report.block_structure = stage(
        "block_structure", lambda: block_structure_report(t, n).ok)
    sys = build_phi_constraints(n, strict_families)
    report.in_phi = stage("phi_membership", lambda: phi_contains(t, sys).ok)
    if report.in_phi:
        rank, size = stage("phi_vertex", lambda: phi_support_rank(t, sys))
        report.support_rank, report.support_size = rank, size
        report.is_vertex = rank == size
    report.support_certificate = stage(
        "psi_certificate", lambda: certify_not_in_psi(t, n))
    if run_lp:
        # T is fixed by the symmetry group the orbit LP reduces by; the size
        # cap was checked above.
        lp = stage("psi_lp", lambda: orbit_psi_contains(t, n))
        report.lp_status = LP_FEASIBLE if lp.in_psi else LP_INFEASIBLE
        if lp.in_psi == report.support_certificate:
            report.red_flags.append(
                "support certificate and LP oracle disagree")
    else:
        report.lp_status = LP_SKIPPED

    if report.sigma_admissible:
        for name in report.failed_stages():
            report.red_flags.append(
                f"admissible sigma failed stage {name}")
    elif report.factorization_absent:
        report.red_flags.append(
            "pattern factorization absent for a non-admissible sigma")
    return report
