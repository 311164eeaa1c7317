"""The transfer matrix, its structural checks, and the pipeline reports."""

import random
from fractions import Fraction

import pytest

from tensorhull.counterexample import (
    LP_FEASIBLE,
    LP_INFEASIBLE,
    LP_SKIPPED,
    VerificationReport,
    block_structure_report,
    build_T,
    certify_not_in_psi,
    full_verification,
    verify_transfer_identity,
)
from tensorhull.exactmath import RatMatrix
from tensorhull.permutations import (
    Permutation,
    all_permutations,
    enumerate_counterexample_sigmas,
    identity,
    is_counterexample_sigma,
    parse_permutation,
)
from tensorhull.circulants import build_A, build_B, exists_PQ
from tensorhull.polytopes import (TensorIndex, admissible_pairs,
                                  build_phi_constraints, phi_contains)
from helpers import (
    fraction_matvec,
    plain_block_failures,
    plain_build_T,
    plain_residuals,
    plain_transfer_identity,
    printed_transfer_matrix,
)


def test_build_T_matches_printed_matrix():
    t = build_T(4, parse_permutation("(3 4)", 4))
    assert t == printed_transfer_matrix()


def test_build_T_row_one_positions():
    t = build_T(4, parse_permutation("(3 4)", 4))
    ti = TensorIndex(4)
    row = t.data[0]
    nonzero = [cf for cf in range(16) if row[cf]]
    assert [ti.pair(cf) for cf in nonzero] == [(1, 1), (2, 4), (3, 3), (4, 2)]


def test_build_T_trivial_and_identity_pattern():
    assert build_T(1, identity(1)) == RatMatrix.from_rows([[1]])
    data = build_T(4, identity(4)).data
    ti = TensorIndex(4)
    for i in range(1, 5):
        for k in range(1, 5):
            for j in range(1, 5):
                for l in range(1, 5):
                    expected = Fraction(1, 4) if (i + k) % 4 == (j + l) % 4 \
                        else Fraction(0)
                    assert data[ti.flat(i, k)][ti.flat(j, l)] == expected


def test_T_support_and_sums():
    rng = random.Random(51)
    for n in (2, 3, 4, 5):
        imgs = list(all_permutations(n))
        for sigma in rng.sample(imgs, min(4, len(imgs))):
            t = build_T(n, sigma)
            nonzero = [v for row in t.data for v in row if v]
            assert len(nonzero) == n ** 3
            assert all(v == Fraction(1, n) for v in nonzero)
            for row in t.data:
                assert sum(row) == 1
            for col in zip(*t.data):
                assert sum(col) == 1


def test_transfer_identity():
    sigma = parse_permutation("(3 4)", 4)
    t = build_T(4, sigma)
    assert verify_transfer_identity(t, 4, sigma)
    assert verify_transfer_identity(build_T(1, identity(1)), 1, identity(1))


def test_transfer_identity_detects_swap():
    sigma = parse_permutation("(3 4)", 4)
    t = build_T(4, sigma)
    data = [list(row) for row in t.data]
    # swap a nonzero with a zero inside row 0: keeps row sums, breaks transfer
    cols = [cf for cf in range(16) if data[0][cf]]
    zeros = [cf for cf in range(16) if not data[0][cf]]
    data[0][cols[0]], data[0][zeros[0]] = data[0][zeros[0]], data[0][cols[0]]
    assert not verify_transfer_identity(RatMatrix(16, 16, data), 4, sigma)


def test_block_structure():
    sigma = parse_permutation("(3 4)", 4)
    assert block_structure_report(build_T(4, sigma), 4).ok
    assert block_structure_report(build_T(4, identity(4)), 4).ok
    uniform = RatMatrix(16, 16, [[Fraction(1, 16)] * 16 for _ in range(16)])
    report = block_structure_report(uniform, 4)
    assert not report.ok
    assert report.failures


def test_block_structure_all_sigmas_n3():
    for sigma in all_permutations(3):
        assert block_structure_report(build_T(3, sigma), 3).ok


def _differential_sigmas():
    sigmas = [s for n in range(1, 6) for s in all_permutations(n)]
    return sigmas + random.Random(71).sample(list(all_permutations(6)), 30)


def _perturbations(t: RatMatrix, n: int, rng):
    """Near misses of T: each cell edit below, then the uniform and the
    all-zero matrix, then (for n > 1) T with one 1/n doubled and one negated,
    whose int view has L = n and the ints 2 and -1."""
    nn = n * n
    cells = [(r, c) for r in range(nn) for c in range(nn)]
    tdata = t.data
    ones = [rc for rc in cells if tdata[rc[0]][rc[1]]]
    zeros = [rc for rc in cells if not tdata[rc[0]][rc[1]]]
    val = Fraction(1, n)

    def edited(*changes):
        data = t.data
        for (r, c), v in changes:
            data[r][c] = v
        return RatMatrix(nn, nn, data)

    if zeros:
        one, zero = rng.choice(ones), rng.choice(zeros)
        yield edited((one, 0), (zero, val))  # a swapped pair of cells
        yield edited((rng.choice(zeros), val))  # an extra 1/n
    yield edited((rng.choice(ones), Fraction(2, 7)))  # a foreign value
    yield edited((rng.choice(ones), 0))  # a zeroed 1/n
    yield RatMatrix(nn, nn, [[Fraction(1, nn)] * nn for _ in range(nn)])
    yield RatMatrix(nn, nn, [[0] * nn for _ in range(nn)])
    if len(ones) > 1:
        doubled, negated = rng.sample(ones, 2)
        yield edited((doubled, 2 * val), (negated, -val))


def test_T_stages_match_plain_oracles():
    # build_T and the transfer identity read the support S directly; the
    # oracles compare the variables of every cell pair.  At n = 1 the one
    # entry 1/n is the int 1: its view is scale 1 and int 1 at position 0
    assert build_T(1, identity(1)).int_view() == (1, (0,), (1,))
    for sigma in _differential_sigmas():
        n = sigma.n
        t = build_T(n, sigma)
        assert t == plain_build_T(n, sigma)
        assert verify_transfer_identity(t, n, sigma)
        assert plain_transfer_identity(t, n, sigma)
        assert block_structure_report(t, n).failures == \
            plain_block_failures(t, n) == []


def test_block_failures_match_plain_oracle_on_perturbations():
    # block_structure_report and matvec, which read the int view, against
    # the cell-by-cell oracles on every near miss of T, and phi_contains on
    # the last one, T with a 1/n doubled and one negated
    rng = random.Random(72)
    checked = failing = 0
    for sigma in _differential_sigmas():
        n = sigma.n
        nn = n * n
        b = [m for row in build_B(n, sigma).entry for m in row]
        near = list(_perturbations(build_T(n, sigma), n, rng))
        for m in near:
            report = block_structure_report(m, n)
            expected = plain_block_failures(m, n)
            assert report.failures == expected
            assert report.ok == (not expected)
            assert verify_transfer_identity(m, n, sigma) == \
                plain_transfer_identity(m, n, sigma)
            for v in ([int(x == s) for x in b] for s in range(1, n + 1)):
                got = m.matvec(v)
                assert got == fraction_matvec(m, v)
                assert [type(u) for u in got] == [
                    int if Fraction(u).denominator == 1 else Fraction
                    for u in got]
            checked += 1
            failing += bool(expected)
        if n > 1:
            m, phi, ti = near[-1], build_phi_constraints(n), TensorIndex(n)
            data = m.data
            check = phi_contains(m, phi)
            assert check.violations == [
                (label, r) for label, r in zip(phi.labels,
                                               plain_residuals(phi, m)) if r]
            assert check.negative_entries == [
                (*ti.pair(rf), *ti.pair(cf)) for rf in range(nn)
                for cf in range(nn) if data[rf][cf] < 0] != []
    assert checked > 1000 and failing > 1000


def test_certify_examples():
    assert certify_not_in_psi(build_T(4, parse_permutation("(3 4)", 4)), 4)
    assert not certify_not_in_psi(build_T(4, identity(4)), 4)
    assert certify_not_in_psi(build_T(5, parse_permutation("(4 5)", 5)), 5)


def test_certify_agrees_with_admissibility():
    # one pair search answers the pattern question, the certificate and the
    # support filter; all three must agree with the closed-form test, and a
    # pattern factorization is the first support-contained pair
    for n in (2, 3, 4, 5, 6):
        a = build_A(n)
        for sigma in all_permutations(n):
            t = build_T(n, sigma)
            pattern_pair = exists_PQ(a, build_B(n, sigma))
            pairs = admissible_pairs(t, n)
            cert = certify_not_in_psi(t, n)
            assert cert == (pattern_pair is None) == (not pairs)
            assert cert == is_counterexample_sigma(sigma)
            if pairs:
                assert pattern_pair == pairs[0]


def test_certify_past_the_psi_lp_cap():
    # an affine sigma leaves n support-contained pairs, more columns than
    # check_lp_size allows from n = 25 on; the certificate lists no pair,
    # while the support filter still refuses to build that LP
    for n in (25, 32):
        t = build_T(n, identity(n))
        assert certify_not_in_psi(t, n) is False
        with pytest.raises(ValueError, match="the Psi LP at n="):
            admissible_pairs(t, n)


def test_certify_rejects_wrong_shape():
    t = build_T(3, identity(3))
    with pytest.raises(ValueError):
        certify_not_in_psi(t, 4)
    with pytest.raises(ValueError):
        certify_not_in_psi(RatMatrix(9, 8, [row[:8] for row in t.data]), 3)


def test_full_verification_flagship():
    report = full_verification(4, parse_permutation("(3 4)", 4), run_lp=True)
    assert report.confirmed
    assert report.lp_status == LP_INFEASIBLE
    assert (report.support_rank, report.support_size) == (64, 64)
    assert not report.red_flags
    assert list(report.timings) == [
        "admissibility", "pattern_search", "transfer", "block_structure",
        "phi_membership", "phi_vertex", "psi_certificate", "psi_lp"]
    assert list(report.timings) == [
        name for name, _, _ in VerificationReport.STAGES]


def test_fresh_report_defaults_and_own_containers():
    # a report starts with every stage unset: the bool stages False, the LP
    # skipped, an empty support; each report has its own red_flags and timings
    sigma = parse_permutation("(3 4)", 4)
    report = VerificationReport(n=4, sigma=sigma)
    other = VerificationReport(n=4, sigma=sigma)
    assert [getattr(report, attr) for _, _, attr in
            VerificationReport.STAGES] == [False] * 7 + [LP_SKIPPED]
    assert report.to_dict() == {
        "n": 4,
        "sigma": {"image": [1, 2, 4, 3], "cycles": "(3 4)"},
        "stages": {"admissibility": False,
                   "pattern_factorization_absent": False,
                   "transfer_identity": False, "block_structure": False,
                   "phi_membership": False, "phi_vertex": False,
                   "psi_support_certificate": False, "psi_lp": "skipped"},
        "support": {"size": 0, "rank": 0},
        "confirmed": False,
        "failed_stages": ["admissibility", "pattern_search", "transfer",
                          "block_structure", "phi_membership", "phi_vertex",
                          "psi_certificate"],
        "red_flags": [],
        "timings": {},
    }
    assert report.red_flags is not other.red_flags
    assert report.timings is not other.timings
    report.red_flags.append("flag")
    report.timings["admissibility"] = 0.5
    assert other.red_flags == [] and other.timings == {}
    flagged = VerificationReport(n=4, sigma=sigma, red_flags=["divergence"])
    assert flagged.red_flags == ["divergence"] and not flagged.confirmed


def test_full_verification_control():
    report = full_verification(4, identity(4), run_lp=True)
    assert not report.sigma_admissible
    assert not report.factorization_absent
    assert report.transfer_identity and report.block_structure
    assert report.in_phi
    assert not report.is_vertex
    assert not report.support_certificate
    assert report.lp_status == LP_FEASIBLE
    assert not report.red_flags
    assert report.failed_stages()[0] == "admissibility"


def test_full_verification_n3_never_admissible():
    for sigma in all_permutations(3):
        report = full_verification(3, sigma, run_lp=True)
        assert not report.sigma_admissible
        assert not report.confirmed
        assert report.in_phi
        assert not report.red_flags


def test_full_verification_lp_default_skip():
    report = full_verification(5, parse_permutation("(4 5)", 5))
    assert report.lp_status == LP_SKIPPED
    assert report.confirmed
    assert (report.support_rank, report.support_size) == (125, 125)


def test_full_verification_n5_sample():
    # a sample of >= 10 admissible sigmas at n=5 passes every stage
    rng = random.Random(53)
    sigmas = enumerate_counterexample_sigmas(5)
    assert len(sigmas) == 100
    for sigma in rng.sample(sigmas, 10):
        report = full_verification(5, sigma)
        assert report.confirmed, f"sigma {sigma.image}: {report.failed_stages()}"
        assert not report.red_flags
        assert (report.support_rank, report.support_size) == (125, 125)


def test_full_verification_n6_spot_check():
    report = full_verification(6, parse_permutation("(5 6)", 6))
    assert report.confirmed
    assert report.lp_status == LP_SKIPPED
    assert (report.support_rank, report.support_size) == (216, 216)


def test_full_verification_reads_T_through_its_view(monkeypatch):
    # build_T writes T's int view once, and no stage writes dense rows: one
    # full_verification at n = 6 confirms every stage with one from_view
    # build and no read of RatMatrix.data
    built, reads = [], []
    from_view, data = RatMatrix.from_view.__func__, RatMatrix.data.fget

    def counted_from_view(cls, *args):
        built.append(args)
        return from_view(cls, *args)

    def counted_data(self):
        reads.append(self)
        return data(self)

    monkeypatch.setattr(RatMatrix, "from_view", classmethod(counted_from_view))
    monkeypatch.setattr(RatMatrix, "data", property(counted_data))
    report = full_verification(6, parse_permutation("(5 6)", 6))
    assert report.confirmed and not report.red_flags
    assert len(built) == 1 and reads == []


def test_sigma_size_mismatch():
    with pytest.raises(ValueError):
        full_verification(4, identity(3))
    with pytest.raises(ValueError):
        build_T(4, identity(3))


def test_distinctness_audit_n4():
    # empirical: the 16 admissible sigmas give 16 distinct transfer matrices
    seen = set()
    for sigma in enumerate_counterexample_sigmas(4):
        t = build_T(4, sigma)
        seen.add(tuple(tuple(row) for row in t.data))
    assert len(seen) == 16


def test_red_flags_on_forced_divergence(monkeypatch):
    # a support certificate contradicting an admissible sigma must surface
    # loudly, never be reconciled away
    import tensorhull.counterexample as cx

    monkeypatch.setattr(cx, "certify_not_in_psi",
                        lambda t, n: False)
    report = cx.full_verification(4, parse_permutation("(3 4)", 4),
                                  run_lp=True)
    assert not report.confirmed
    assert "psi_certificate" in report.failed_stages()
    assert any("psi_certificate" in flag for flag in report.red_flags)
    assert any("disagree" in flag for flag in report.red_flags)


def test_stage_errors_carry_stage_label(monkeypatch):
    import tensorhull.counterexample as cx

    def boom(t, n):
        raise ValueError("synthetic failure")

    monkeypatch.setattr(cx, "certify_not_in_psi", boom)
    with pytest.raises(RuntimeError, match="stage psi_certificate failed"):
        cx.full_verification(4, parse_permutation("(3 4)", 4), run_lp=False)


def test_report_dict_shape():
    report = full_verification(2, Permutation((2, 1)), run_lp=True)
    d = report.to_dict()
    assert d["n"] == 2
    assert d["sigma"]["image"] == [2, 1]
    assert set(d["stages"]) == {
        "admissibility", "pattern_factorization_absent", "transfer_identity",
        "block_structure", "phi_membership", "phi_vertex",
        "psi_support_certificate", "psi_lp"}
    assert "timings" in d
    assert "timings" not in report.to_dict(include_timings=False)
