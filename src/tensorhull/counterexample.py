"""The transfer matrix T of a pair (n, sigma) and the verification pipeline.

T is the n^2 x n^2 matrix with entries 0 and 1/n whose ((i,k),(j,l)) entry
is 1/n exactly when cell (j,l) of the sigma-relabeled circulant holds the
same variable as cell (i,k) of the plain circulant.  Since each variable
fills n cells on either side, T carries each circulant cell to the average
of the matching cells, which is what makes it a member of Phi.  For every
admissible sigma T lies outside Psi, and for most it is also a vertex of
Phi; at n = 6, 96 of the 708 admissible sigma leave the support columns
rank-deficient, and the phi_vertex stage fails on them.  T[(i,k),(j,l)]
depends only on (i+k, j+l) mod n, so the psi_lp stage solves the Psi LP
summed over those cell classes first (polytopes.class_psi_contains).
"""

import time
from math import factorial

from .circulants import build_A, build_B, exists_PQ
from .exactmath import RatMatrix
from .permutations import Permutation, first_pair, is_counterexample_sigma
from .polytopes import (build_phi_constraints, check_lp_size, check_phi_size,
                        class_psi_contains, phi_contains, phi_support_rank,
                        support_masks)

LP_DEFAULT_CAP = 4

LP_INFEASIBLE = "infeasible_certified"
LP_FEASIBLE = "feasible"
LP_SKIPPED = "skipped"


def _flat_variables(n: int, sigma: Permutation):
    """A's and B's variables, cell by cell in TensorIndex.flat order."""
    return ([m for row in build_A(n).entry for m in row],
            [m for row in build_B(n, sigma).entry for m in row])


def build_T(n: int, sigma: Permutation) -> RatMatrix:
    """The 0-or-1/n transfer matrix matching variables of B to variables of A,
    built from its int view: scale n, a 1 at each position of S."""
    if sigma.n != n:
        raise ValueError("sigma size does not match n")
    a, b = _flat_variables(n, sigma)
    nn = n * n
    # B's cells sorted by variable: variable m fills by_var[n*(m-1):n*m].
    by_var = sorted(range(nn), key=b.__getitem__)
    flat = [rf * nn + f for rf, m in enumerate(a)
            for f in by_var[n * (m - 1):n * m]]
    return RatMatrix.from_view(nn, nn, n, flat, [1] * len(flat))


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


class BlockReport:
    def __init__(self, ok: bool, failures: list):
        self.ok, self.failures = ok, failures

    def __bool__(self):
        return self.ok


def block_structure_report(t: RatMatrix, n: int) -> BlockReport:
    """Each of the four index-pair slices must be 1/n times a permutation matrix.

    Slices: fix (i,j) and vary (k,l); fix (k,l) and vary (i,j); fix (i,l)
    and vary (k,j); fix (k,j) and vary (i,l).  One pass over t's int view
    places each nonzero in its slice of every family; a slice passes when its
    nonzeros all equal 1/n (n x = L) and hit each of its rows and columns once.
    """
    nn = n * n
    if t.rows != nn or t.cols != nn:
        raise ValueError("shape mismatch")
    names = ("fix(i,j)", "fix(k,l)", "fix(i,l)", "fix(k,j)")
    mult, flat, ints = t.int_view()
    # Slice (family s, fixed pair (a, b)), 0-based, at s n^2 + a n + b: bit r
    # of masks[key] marks row r hit and bit n + c column c, and -1 a value
    # other than 1/n or a row or column hit twice, so the slice cannot pass.
    masks = [0] * (4 * nn)
    for f, x in zip(flat, ints):
        i, k, j, l = f // (nn * n), f // nn % n, f // n % n, f % n
        good = x * n == mult
        # Where ((i,k),(j,l)) falls in each family: (slice, row, column).
        for key, r, c in ((n*i + j, k, l), (nn + n*k + l, i, j),
                          (2*nn + n*i + l, k, j), (3*nn + n*k + j, i, l)):
            bits = 1 << r | 1 << n + c
            masks[key] = (masks[key] | bits
                          if good and not masks[key] & bits else -1)
    full = (1 << 2 * n) - 1
    failures = [f"{names[key // nn]}[{key // n % n + 1},{key % n + 1}]"
                for key, hit in enumerate(masks) if hit != full]
    return BlockReport(not failures, failures)


def certify_not_in_psi(t: RatMatrix, n: int) -> bool:
    """True iff no Kronecker vertex has its support inside the support of T.

    A convex combination equal to T would have to give zero weight to every
    vertex with a one outside supp(T); with no support-contained vertex at
    all, no combination exists, so True implies T is outside Psi.  True iff
    pair_search on T's support finds no pair; it stops at the first one, and
    no pair list is built.  Raises ValueError unless T is n^2 x n^2.
    """
    return first_pair(support_masks(t, n)) is None


class VerificationReport:
    """Machine-checkable outcome of the full pipeline for one (n, sigma).

    Every stage's field reads its class default until the stage sets it;
    red_flags and timings are the report's own list and dict.
    """

    sigma_admissible = factorization_absent = transfer_identity = False
    block_structure = in_phi = is_vertex = support_certificate = False
    lp_status = LP_SKIPPED
    support_size = support_rank = 0

    def __init__(self, n: int, sigma: Permutation,
                 red_flags: list | None = None):
        self.n, self.sigma = n, sigma
        self.red_flags = [] if red_flags is None else red_flags
        self.timings = {}

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


def full_verification(n: int, sigma: Permutation,
                      run_lp: bool | None = None) -> VerificationReport:
    """Run every stage for one (n, sigma) and return the complete report.

    No stage is skipped silently: the LP stage records 'skipped' when not
    run (default for n > 4), and a Phi system over check_phi_size's cap or
    an LP over check_lp_size's cap is refused before the first stage.  A
    sigma that passes the admissibility filter but fails any later stage
    raises a red flag in the report; it is never reconciled away.
    """
    if sigma.n != n:
        raise ValueError("sigma size does not match n")
    check_phi_size(n)
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
    sys = build_phi_constraints(n)
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
        lp = stage("psi_lp", lambda: class_psi_contains(t, n))
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
