"""The transfer matrix T of a pair (n, sigma) and the verification pipeline.

T is the n^2 x n^2 matrix with entries 0 and 1/n whose ((i,k),(j,l)) entry
is 1/n exactly when cell (j,l) of the sigma-relabeled circulant holds the
same variable as cell (i,k) of the plain circulant.  Since each variable
fills n cells on either side, T carries each circulant cell to the average
of the matching cells, which is what makes it a member of Phi.  For every
admissible sigma T lies outside Psi, and for most it is also a vertex of
Phi; at n = 6, 96 of the 708 admissible sigma leave the support columns
rank-deficient, and the phi_vertex stage fails on them.  T[(i,k),(j,l)]
depends only on (i+k, j+l) mod n, so the psi_lp stage sums the Psi LP over
those cell classes (orbit_psi_contains) and re-checks its lifted answer.
"""

import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import compress, product
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
    phi_contains,
    phi_support_rank,
    psi_contains,
    weights_reconstruct,
    _lift_farkas,
    _scaled_rhs,
    _support_sums,
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
def _class_system(n: int):
    """The Psi LP summed over the n^2 cell classes (i+k, j+l) mod n, on
    which every T is constant, as (pairs, groups, columns, system):

    - pairs is all_pairs(n) as a tuple, listed once per n;
    - groups[r] lists the canonical rows that row r sums: the cells of
      class r, and last the sum-to-1 row (n^4,);
    - columns[j] lists the indices into pairs of the pairs with the
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
    pairs = tuple(all_pairs(n))
    profiles = _support_sums(n, pairs, [base ** r for r in cls])
    for j, profile in enumerate(profiles):
        columns.setdefault(profile, []).append(j)
    data = [{j: h for j, p in enumerate(columns)
             if (h := p // base ** r % base)} for r in range(nn)]
    data.append(dict.fromkeys(range(len(columns)), 1))
    groups = (*(tuple(v for v, rv in enumerate(cls) if rv == r)
                for r in range(nn)), (nn * nn,))
    return (pairs, groups, tuple(map(tuple, columns.values())),
            SparseMatrix(base, len(columns), data))


def orbit_psi_contains(c: RatMatrix, n: int) -> MembershipResult:
    """psi_contains(c, n, mode=FULL, allow_large=True) for a c constant on
    each cell class, such as every T, solved on _class_system (17 x 34 at
    n = 4, 26 x 351 at n = 5).

    A Farkas vector lifts to y_v = y_R on each cell v of class R, valid for
    any c since each row sums its class's canonical rows.  A column's weight
    is split evenly over its member pairs: the shifts (i,k) -> (i+1,k-1)
    and (j,l) -> (j+1,l-1) act transitively on each class and map the
    members onto themselves, so the split is constant on each class.  Both
    answers are re-checked over all n!^2 pairs.  A c not constant on every
    class, or a lifted answer that fails its re-check, goes to full-mode
    psi_contains (which refuses a negative entry).  The size cap
    (check_lp_size over all n!^2 pairs) applies before anything is built.
    """
    nn = n * n
    if c.rows != nn or c.cols != nn:
        raise ValueError(f"matrix must be {nn} x {nn}")
    check_lp_size(n, factorial(n) ** 2)
    mult, rhs = _scaled_rhs(c)
    pairs, groups, columns, system = _class_system(n)
    pairs = list(pairs)  # each result owns its list; the table stays as is
    if min(rhs) >= 0 and all(rhs[v] == rhs[group[0]]
                             for group in groups for v in group):
        d = [Fraction(sum(map(rhs.__getitem__, group)), mult)
             for group in groups]
        outcome = lp_feasible(system, d)
        if outcome.feasible:
            weights = {(pairs[j][0].image, pairs[j][1].image):
                       Fraction(w, len(members))
                       for members, w in zip(columns, outcome.witness)
                       if w for j in members}
            if (sum(weights.values()) == 1
                    and weights_reconstruct(weights, n) == c):
                return MembershipResult(True, FULL, pairs, weights=weights)
        else:
            y = _lift_farkas(outcome.farkas, groups, n)
            if _verify_psi_farkas(rhs, n, pairs, y):
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
        # T is constant on the cell classes the LP sums over; the size cap
        # was checked above.
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
