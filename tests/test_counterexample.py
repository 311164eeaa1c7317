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
    parse_permutation,
)
from tensorhull.polytopes import TensorIndex
from helpers import (
    plain_block_failures,
    plain_build_T,
    plain_transfer_identity,
    printed_transfer_matrix,
)


def test_build_T_matches_printed_matrix():
    t = build_T(4, parse_permutation("(3 4)", 4))
    assert t == printed_transfer_matrix()


def test_build_T_row_one_positions():
    t = build_T(4, parse_permutation("(3 4)", 4))
    ti = TensorIndex(4)
    nonzero = [cf for cf in range(16) if t.data[0][cf]]
    assert [ti.pair(cf) for cf in nonzero] == [(1, 1), (2, 4), (3, 3), (4, 2)]


def test_build_T_trivial_and_identity_pattern():
    assert build_T(1, identity(1)) == RatMatrix.from_rows([[1]])
    t = build_T(4, identity(4))
    ti = TensorIndex(4)
    for i in range(1, 5):
        for k in range(1, 5):
            for j in range(1, 5):
                for l in range(1, 5):
                    expected = Fraction(1, 4) if (i + k) % 4 == (j + l) % 4 \
                        else Fraction(0)
                    assert t.data[ti.flat(i, k)][ti.flat(j, l)] == expected


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
    all-zero matrix."""
    nn = n * n
    cells = [(r, c) for r in range(nn) for c in range(nn)]
    ones = [rc for rc in cells if t.data[rc[0]][rc[1]]]
    zeros = [rc for rc in cells if not t.data[rc[0]][rc[1]]]
    val = Fraction(1, n)

    def edited(*changes):
        data = [list(row) for row in t.data]
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


def test_T_stages_match_plain_oracles():
    # build_T and the transfer identity read the support S directly; the
    # oracles compare the variables of every cell pair
    for sigma in _differential_sigmas():
        n = sigma.n
        t = build_T(n, sigma)
        plain = plain_build_T(n, sigma)
        assert t == plain
        assert [list(map(type, row)) for row in t.data] == \
            [list(map(type, row)) for row in plain.data]
        assert verify_transfer_identity(t, n, sigma)
        assert plain_transfer_identity(t, n, sigma)
        assert block_structure_report(t, n).failures == \
            plain_block_failures(t, n) == []


def test_block_failures_match_plain_oracle_on_perturbations():
    rng = random.Random(72)
    checked = failing = 0
    for sigma in _differential_sigmas():
        n = sigma.n
        for m in _perturbations(build_T(n, sigma), n, rng):
            report = block_structure_report(m, n)
            expected = plain_block_failures(m, n)
            assert report.failures == expected
            assert report.ok == (not expected)
            assert verify_transfer_identity(m, n, sigma) == \
                plain_transfer_identity(m, n, sigma)
            checked += 1
            failing += bool(expected)
    assert checked > 1000 and failing > 1000


def test_certify_examples():
    assert certify_not_in_psi(build_T(4, parse_permutation("(3 4)", 4)), 4)
    assert not certify_not_in_psi(build_T(4, identity(4)), 4)
    assert certify_not_in_psi(build_T(5, parse_permutation("(4 5)", 5)), 5)


def test_certify_agrees_with_admissibility():
    from tensorhull.permutations import is_counterexample_sigma
    sigmas = [s for n in (2, 3, 4, 5) for s in all_permutations(n)]
    sigmas += random.Random(66).sample(list(all_permutations(6)), 60)
    for sigma in sigmas:
        cert = certify_not_in_psi(build_T(sigma.n, sigma), sigma.n)
        assert cert == is_counterexample_sigma(sigma)


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
