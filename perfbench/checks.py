"""Checks of every verdict the program prints, against references and by
re-proving each certificate with loops that live in the benchmark."""

import json
from fractions import Fraction

from workloads import kron_ones, permutations_of, supported_vertices


def verdict_fields(rc: int, report: dict) -> dict:
    """The subset of a verify report that the benchmark treats as the verdict."""
    return {
        "exit": rc,
        "confirmed": report["confirmed"],
        "failed_stages": report["failed_stages"],
        "psi_lp": report["stages"]["psi_lp"],
        "support_size": report["support"]["size"],
        "support_rank": report["support"]["rank"],
        "red_flags": report["red_flags"],
    }


def check_enumeration(sigmas, refs):
    """None if the program's admissible sigmas are those of the references."""
    got = [list(s.image) for s in sigmas]
    want = [e["image"] for e in refs["entries"]
            if "admissibility" not in e["failed_stages"]]
    if got != want:
        return f"{len(got)} admissible sigmas enumerated, {len(want)} expected"
    return None


def check_verify(op, rc, stdout):
    """None if the verify report matches its reference, else the reason."""
    report = json.loads(stdout)
    if report["sigma"]["image"] != op.expect["image"]:
        return f"report is for sigma {report['sigma']['image']}"
    got = verdict_fields(rc, report)
    for key, value in got.items():
        if op.expect[key] != value:
            return f"{key} is {value!r}, reference {op.expect[key]!r}"
    return None


def farkas_refutes(n, m, y, mode) -> bool:
    """y certifies that no convex combination of vertices equals m.

    y indexes the n^4 entry equations, then the weights-sum-to-1 row.  Every
    Kronecker column that may carry weight must have y . column >= 0 and
    d . y < 0.  In support-filtered mode a vertex with a one on a zero of m
    cannot carry weight, so only the vertices supported in m are checked.
    """
    nn = n * n
    n4 = nn * nn
    if len(y) != n4 + 1:
        return False
    if mode == "support-filtered":
        columns = supported_vertices(n, m)
    else:
        perms = permutations_of(n)
        columns = [(p, q) for p in perms for q in perms]
    for p, q in columns:
        if y[n4] + sum(y[r * nn + c] for r, c in kron_ones(n, p, q)) < 0:
            return False
    dty = y[n4] + sum(m[r][c] * y[r * nn + c]
                      for r in range(nn) for c in range(nn) if m[r][c])
    return dty < 0


def weights_rebuild(n, m, weights) -> bool:
    """The printed weights are positive, sum to 1 and rebuild m exactly."""
    nn = n * n
    rebuilt = [[Fraction(0)] * nn for _ in range(nn)]
    total = Fraction(0)
    for entry in weights:
        w = Fraction(entry["weight"])
        if w <= 0:
            return False
        total += w
        p = [v - 1 for v in entry["p"]]
        q = [v - 1 for v in entry["q"]]
        for r, c in kron_ones(n, p, q):
            rebuilt[r][c] += w
    return total == 1 and rebuilt == m


def check_psi(op, rc, stdout, n):
    """None if the psi-oracle answer is right and its certificate holds."""
    if rc != 0:
        return f"exit code {rc}"
    out = json.loads(stdout)
    if out["in_psi"] != op.expect["in_psi"]:
        return f"in_psi is {out['in_psi']}, expected {op.expect['in_psi']}"
    if not out["verified"]:
        return "program reports an unverified certificate"
    if out.get("admissible_pairs") != op.expect.get("admissible_pairs"):
        return (f"admissible_pairs {out.get('admissible_pairs')}, expected "
                f"{op.expect.get('admissible_pairs')}")
    if out["in_psi"]:
        if not weights_rebuild(n, op.matrix, out["weights"]):
            return "weights do not rebuild the input"
    else:
        y = [Fraction(v) for v in out["farkas"]]
        if not farkas_refutes(n, op.matrix, y, op.expect["mode"]):
            return "farkas vector fails the re-check"
    return None
