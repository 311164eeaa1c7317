"""End-to-end CLI behavior, exit codes, and golden outputs."""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "tensorhull.cli", *args],
        capture_output=True, text=True, **kwargs)


def test_help():
    result = run_cli("--help")
    assert result.returncode == 0
    assert "usage:" in result.stdout.lower()


def test_build_T_matches_golden_bytes():
    result = run_cli("build", "T", "--n", "4", "--sigma", "(3 4)")
    assert result.returncode == 0
    golden = (GOLDEN / "T_n4_s34.txt").read_text()
    assert result.stdout == golden


def test_build_A_printed_pattern():
    result = run_cli("build", "A", "--n", "4")
    assert result.returncode == 0
    assert result.stdout == ("4\n"
                             "1 2 3 4\n"
                             "2 3 4 1\n"
                             "3 4 1 2\n"
                             "4 1 2 3\n")


def test_build_B_identity_equals_A():
    a = run_cli("build", "A", "--n", "2")
    b = run_cli("build", "B", "--n", "2", "--sigma", "identity")
    assert a.stdout == b.stdout


def test_build_missing_sigma_is_usage_error():
    result = run_cli("build", "T", "--n", "4")
    assert result.returncode == 2


def test_build_has_no_format_flag():
    # build prints text only, so a format request is refused, not ignored
    result = run_cli("build", "T", "--n", "2", "--sigma", "(1 2)",
                     "--format", "json")
    assert result.returncode == 2
    assert result.stdout == ""
    assert "unrecognized arguments: --format json" in result.stderr


@pytest.mark.parametrize("spec", ["(1 9)", "(3 4) 2"])
def test_bad_sigma_is_usage_error(spec):
    result = run_cli("verify", "--n", "4", "--sigma", spec, "--no-lp")
    assert result.returncode == 2
    assert result.stdout == ""


def test_count_sigmas():
    for n, expected in ((3, "0 = 0"), (4, "16 = 16"), (6, "708 = 708")):
        result = run_cli("count-sigmas", "--n", str(n))
        assert result.returncode == 0
        assert result.stdout.strip() == expected


def test_count_sigmas_reports_a_mismatch(monkeypatch, capsys):
    from tensorhull import cli, permutations

    monkeypatch.setattr(permutations, "euler_phi", lambda n: 1)
    code = cli.main(["count-sigmas", "--n", "5", "--format", "json"])
    out, err = capsys.readouterr()
    assert code == 1
    assert json.loads(out) == {"n": 5, "count": 100, "formula": 115,
                               "match": False}
    assert err == ""


def test_count_sigmas_over_cap():
    result = run_cli("count-sigmas", "--n", "9")
    assert result.returncode == 2
    result = run_cli("count-sigmas", "--n", "5", "--sn-cap", "4")
    assert result.returncode == 2


def test_list_sigmas_n4():
    result = run_cli("list-sigmas", "--n", "4", "--format", "json")
    assert result.returncode == 0
    sigmas = json.loads(result.stdout)
    assert len(sigmas) == 16
    assert sigmas[0]["image"] == sorted(sigmas[0]["image"]) or True
    images = [tuple(s["image"]) for s in sigmas]
    assert images == sorted(images)
    assert (1, 2, 4, 3) in images


def test_verify_flagship_exit_zero_and_golden_report(tmp_path):
    out = tmp_path / "report.json"
    result = run_cli("verify", "--n", "4", "--sigma", "(3 4)", "--lp",
                     "--format", "json", "--output", str(out))
    assert result.returncode == 0
    report = json.loads(out.read_text())
    report.pop("timings")
    golden = json.loads((GOLDEN / "verify_n4_s34.json").read_text())
    assert report == golden


def test_verify_identity_fails_at_admissibility():
    result = run_cli("verify", "--n", "4", "--sigma", "identity",
                     "--format", "json")
    assert result.returncode == 1
    assert "admissibility" in result.stderr
    report = json.loads(result.stdout)
    assert report["stages"]["admissibility"] is False
    assert report["stages"]["psi_lp"] == "feasible"
    assert report["red_flags"] == []


def test_verify_n5_certificate_path():
    result = run_cli("verify", "--n", "5", "--sigma", "(4 5)",
                     "--format", "json")
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["stages"]["psi_lp"] == "skipped"
    assert report["support"] == {"size": 125, "rank": 125}


def test_verify_n5_full_lp_within_budget():
    # about 1.6 s on a 2-core x86-64 host, where the dense tableau took 19 s
    budget = 30.0
    t0 = time.perf_counter()
    result = run_cli("verify", "--n", "5", "--sigma", "(4 5)", "--lp",
                     "--format", "json")
    elapsed = time.perf_counter() - t0
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["stages"]["psi_lp"] == "infeasible_certified"
    assert report["confirmed"]
    assert elapsed < budget, f"verify --n 5 --lp took {elapsed:.1f}s (budget {budget:.0f}s)"


def test_verify_n7_within_budget():
    # about 0.6 s on a 2-core x86-64 host, where the rank by dense Bareiss
    # elimination alone took about 8 s
    budget = 5.0
    t0 = time.perf_counter()
    result = run_cli("verify", "--n", "7", "--sigma", "(6 7)",
                     "--format", "json")
    elapsed = time.perf_counter() - t0
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["confirmed"]
    assert report["support"] == {"size": 343, "rank": 343}
    assert elapsed < budget, f"verify --n 7 took {elapsed:.1f}s (budget {budget:.0f}s)"


def test_verify_all_n3_no_lp():
    result = run_cli("verify-all", "--n", "3", "--all-sigmas", "--no-lp",
                     "--format", "json")
    assert result.returncode == 0
    reports = json.loads(result.stdout)
    assert len(reports) == 6
    assert all(not r["stages"]["admissibility"] for r in reports)


def test_verify_all_isolates_a_diverging_sigma(monkeypatch, capsys):
    from tensorhull import cli, counterexample
    from tensorhull.permutations import Permutation

    bad = counterexample.build_T(3, Permutation((2, 1, 3)))
    real = counterexample.phi_support_rank

    def diverging(t, sys_):
        if t == bad:
            raise AssertionError("injected divergence")
        return real(t, sys_)

    monkeypatch.setattr(counterexample, "phi_support_rank", diverging)
    code = cli.main(["verify-all", "--n", "3", "--all-sigmas",
                     "--format", "json"])
    captured = capsys.readouterr()
    assert code == 1
    reports = json.loads(captured.out)
    assert len(reports) == 6
    flagged = [r for r in reports if r["red_flags"]]
    assert [r["sigma"]["image"] for r in flagged] == [[2, 1, 3]]
    assert "injected divergence" in flagged[0]["red_flags"][0]
    assert not flagged[0]["confirmed"]
    assert "1 report(s) with failures or red flags" in captured.err


def test_verify_all_sigmas_checks_cap_before_enumerating(monkeypatch, capsys):
    from tensorhull import cli, permutations

    def refuse(n):
        raise AssertionError(f"S_{n} enumerated before the cap check")

    monkeypatch.setattr(permutations, "all_permutations", refuse)
    code = cli.main(["verify-all", "--n", "12", "--all-sigmas", "--no-lp"])
    assert code == 2
    assert "n=12 exceeds --sn-cap 8" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "--n", "6", "--sigma", "(5 6)", "--lp"],
    ["verify-all", "--n", "6", "--lp"],
    ["psi-oracle", "{uniform}", "--n", "6", "--mode", "full", "--allow-large"],
])
def test_lp_above_the_size_cap_fails_fast(monkeypatch, capsys, tmp_path,
                                          argv):
    from tensorhull import cli, counterexample, permutations, polytopes

    def refuse(*args):
        raise AssertionError("ran before the LP size check")

    for module, name in ((polytopes, "all_pairs"),
                         (polytopes, "_grouped_system"),
                         (counterexample, "is_counterexample_sigma"),
                         (permutations, "enumerate_counterexample_sigmas")):
        monkeypatch.setattr(module, name, refuse)
    uniform = tmp_path / "uniform6.txt"
    uniform.write_text("36 36\n" + ("1/36 " * 35 + "1/36\n") * 36)
    code = cli.main([arg.format(uniform=uniform) for arg in argv])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: the Psi LP at n=6 has a 1297 x 518400 canonical system, "
        "larger than the full n=5 one (626 x 14400)\n")


def test_verify_all_pool_never_exceeds_the_jobs(monkeypatch, capsys):
    # The fake pool maps in this process: no worker is ever started.
    import multiprocessing

    from tensorhull import cli

    sizes = []

    class FakePool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return [fn(job) for job in jobs]

    # cli imports multiprocessing only when it pools, so patch the module
    monkeypatch.setattr(multiprocessing, "Pool", FakePool)
    strip = lambda text: [{k: v for k, v in r.items() if k != "timings"}
                          for r in json.loads(text)]
    outputs = []
    for n, extra, workers, expected in (
            ("3", [], "64", []),                  # 0 sigmas: serial
            ("3", ["--all-sigmas"], "64", [6]),   # 6 sigmas: 6 workers
            ("3", ["--all-sigmas"], "1", [])):    # serial
        sizes.clear()
        code = cli.main(["verify-all", "--n", n, *extra, "--no-lp",
                         "--format", "json", "--workers", workers])
        assert code == 0
        assert sizes == expected
        outputs.append(strip(capsys.readouterr().out))
    assert outputs[0] == []
    assert outputs[1] == outputs[2] and len(outputs[1]) == 6


def test_verify_all_text_summary_table():
    result = run_cli("verify-all", "--n", "4", "--no-lp")
    assert result.returncode == 0
    lines = result.stdout.strip().splitlines()
    assert lines[0].startswith("sigma")
    assert lines[-1] == "16/16 confirmed"
    assert len(lines) == 18  # header + 16 rows + footer


def test_verify_all_workers_deterministic():
    seq = run_cli("verify-all", "--n", "4", "--no-lp", "--format", "json")
    par = run_cli("verify-all", "--n", "4", "--no-lp", "--format", "json",
                  "--workers", "2")
    assert seq.returncode == 0 and par.returncode == 0
    strip = lambda text: [
        {k: v for k, v in r.items() if k != "timings"}
        for r in json.loads(text)]
    assert strip(seq.stdout) == strip(par.stdout)
    assert len(strip(seq.stdout)) == 16


def test_psi_oracle_kron_in(tmp_path):
    from tensorhull.exactmath import format_matrix
    from tensorhull.permutations import cyclic, inverse
    from tensorhull.polytopes import kron

    path = tmp_path / "kron.txt"
    path.write_text(format_matrix(kron(cyclic(4), inverse(cyclic(4)))))
    result = run_cli("psi-oracle", str(path), "--n", "4", "--format", "json")
    assert result.returncode == 0
    verdict = json.loads(result.stdout)
    assert verdict["in_psi"] is True
    assert verdict["verified"] is True
    assert len(verdict["weights"]) == 1
    assert verdict["weights"][0]["weight"] == "1"


def test_psi_oracle_transfer_out(tmp_path):
    from tensorhull.counterexample import build_T
    from tensorhull.exactmath import format_matrix
    from tensorhull.permutations import parse_permutation

    path = tmp_path / "t.txt"
    path.write_text(format_matrix(build_T(4, parse_permutation("(3 4)", 4))))
    result = run_cli("psi-oracle", str(path), "--n", "4", "--format", "json")
    assert result.returncode == 0
    verdict = json.loads(result.stdout)
    assert verdict["in_psi"] is False
    assert verdict["verified"] is True
    assert verdict["admissible_pairs"] == 0
    assert any(v != "0" for v in verdict["farkas"])


def test_psi_oracle_uniform_in(tmp_path):
    from fractions import Fraction
    from tensorhull.exactmath import RatMatrix, format_matrix

    path = tmp_path / "uniform.txt"
    uniform = RatMatrix(16, 16, [[Fraction(1, 16)] * 16 for _ in range(16)])
    path.write_text(format_matrix(uniform))
    result = run_cli("psi-oracle", str(path), "--n", "4", "--format", "json")
    assert result.returncode == 0
    verdict = json.loads(result.stdout)
    assert verdict["in_psi"] is True
    assert verdict["verified"] is True


# Inputs (n=4): T for sigma=(3 4); tmix = (T + P (x) Q)/2 with only that one
# vertex inside its support; mix2 = 1/3 vertex + 2/3 vertex; perturbed = mix2
# with mass moved between two entries that the reduced membership rows see
# only through the total, so the oracle must fall back to the canonical rows.
# Together they reach the full-mode Farkas, filtered Farkas, witness and
# fallback paths.
@pytest.mark.parametrize("matrix, mode, golden", [
    ("T_n4_s34.txt", "full", "psi_oracle_T_n4_s34_full.json"),
    ("psi_tmix_n4.txt", "support-filtered", "psi_oracle_tmix_n4_filtered.json"),
    ("psi_mix2_n4.txt", "full", "psi_oracle_mix2_n4_full.json"),
    ("psi_mix2_n4.txt", "support-filtered", "psi_oracle_mix2_n4_filtered.json"),
    ("psi_perturbed_n4.txt", "support-filtered",
     "psi_oracle_perturbed_n4_filtered.json"),
])
def test_psi_oracle_matches_golden_bytes(matrix, mode, golden):
    result = run_cli("psi-oracle", str(GOLDEN / matrix), "--n", "4",
                     "--mode", mode, "--format", "json")
    assert result.returncode == 0
    assert result.stdout == (GOLDEN / golden).read_text()


def test_psi_oracle_usage_errors(tmp_path):
    missing = run_cli("psi-oracle", str(tmp_path / "nope.txt"), "--n", "4")
    assert missing.returncode == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("2 2\n1 0\n0 1\n")
    result = run_cli("psi-oracle", str(bad), "--n", "4")
    assert result.returncode == 2
    result = run_cli("psi-oracle", str(bad), "--n", "5", "--mode", "full")
    assert result.returncode == 2


@pytest.mark.parametrize("command", ["psi-oracle", "phi-check"])
def test_zero_denominator_in_matrix_is_usage_error(tmp_path, command):
    path = tmp_path / "m.txt"
    path.write_text("1 1\n1/0\n")
    result = run_cli(command, str(path), "--n", "1")
    assert result.returncode == 2
    assert result.stderr == (f"error: cannot read matrix from {path}: "
                             "zero denominator in entry '1/0'\n")
    assert "Traceback" not in result.stderr


def test_phi_check_member_and_nonmember(tmp_path):
    from tensorhull.counterexample import build_T
    from tensorhull.exactmath import format_matrix
    from tensorhull.permutations import parse_permutation

    t = build_T(4, parse_permutation("(3 4)", 4))
    good = tmp_path / "good.txt"
    good.write_text(format_matrix(t))
    result = run_cli("phi-check", str(good), "--n", "4", "--format", "json")
    assert result.returncode == 0
    assert json.loads(result.stdout)["member"] is True

    data = [list(row) for row in t.data]
    data[0][0] += 1
    bad = tmp_path / "bad.txt"
    from tensorhull.exactmath import RatMatrix
    bad.write_text(format_matrix(RatMatrix(16, 16, data)))
    result = run_cli("phi-check", str(bad), "--n", "4", "--format", "json")
    assert result.returncode == 1
    verdict = json.loads(result.stdout)
    assert verdict["member"] is False
    assert any(v["label"] == "rowsum[1,1]" for v in verdict["violations"])


def test_phi_check_strict_families(tmp_path):
    from tensorhull.counterexample import build_T
    from tensorhull.exactmath import format_matrix
    from tensorhull.permutations import parse_permutation

    path = tmp_path / "t.txt"
    path.write_text(format_matrix(build_T(4, parse_permutation("(3 4)", 4))))
    result = run_cli("phi-check", str(path), "--n", "4", "--strict-families")
    assert result.returncode == 0


@pytest.mark.parametrize("argv, code", [
    (["verify-all", "--n", "4", "--all-sigmas", "--lp"], 0),
    (["verify", "--n", "6", "--sigma", "(1 5)(2 6)"], 1),
    (["verify", "--n", "6", "--sigma", "(5 6)"], 0),
])
def test_verify_strict_families_keeps_the_verdict(argv, code, capsys):
    # Both family readings define the same affine space, so the flag
    # changes no report; (1 5)(2 6) fails phi_vertex either way.
    from tensorhull import cli

    def run(*extra):
        code = cli.main([*argv, "--format", "json", *extra])
        reports = json.loads(capsys.readouterr().out)
        for r in reports if isinstance(reports, list) else [reports]:
            r.pop("timings")
        return code, reports

    strict = run("--strict-families")
    assert strict == run() and strict[0] == code


# The perturbed mix breaks rows with residuals like -1/6, so these bytes pin
# how int coefficients and rhs mix with the Fraction entries of the input;
# the strict reading lists fewer broken rows.
@pytest.mark.parametrize("extra, fmt, golden", [
    ((), "json", "phi_check_perturbed_n4.json"),
    ((), "text", "phi_check_perturbed_n4_text.txt"),
    (("--strict-families",), "json", "phi_check_perturbed_n4_strict.json"),
    (("--strict-families",), "text", "phi_check_perturbed_n4_strict_text.txt"),
])
def test_phi_check_matches_golden_bytes(extra, fmt, golden):
    result = run_cli("phi-check", str(GOLDEN / "psi_perturbed_n4.txt"),
                     "--n", "4", "--format", fmt, *extra)
    assert result.returncode == 1
    assert result.stdout == (GOLDEN / golden).read_text()


@pytest.mark.parametrize("argv", [
    ("verify", "--n", "0", "--sigma", "identity"),
    ("verify", "--n", "-2", "--sigma", "identity"),
    ("verify-all", "--n", "0"),
    ("count-sigmas", "--n", "0"),
    ("build", "A", "--n", "-1"),
    ("phi-check", "nope.txt", "--n", "0"),
])
def test_nonpositive_n_is_usage_error(argv):
    result = run_cli(*argv)
    assert result.returncode == 2
    assert "--n must be >= 1" in result.stderr
    assert "verification divergence" not in result.stderr


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_nonpositive_workers_is_usage_error(workers):
    result = run_cli("verify-all", "--n", "4", "--no-lp", "--workers", workers)
    assert result.returncode == 2
    assert result.stdout == ""
    assert f"--workers must be >= 1, got {workers}" in result.stderr


@pytest.mark.parametrize("target", ["directory", "missing parent"])
def test_unwritable_output_is_usage_error(tmp_path, target):
    path = tmp_path if target == "directory" else tmp_path / "no" / "x.json"
    result = run_cli("count-sigmas", "--n", "4", "--output", str(path))
    assert result.returncode == 2
    assert result.stderr.startswith(f"error: cannot write {path}")
    assert "Traceback" not in result.stderr


def test_byte_identical_reruns():
    first = run_cli("build", "T", "--n", "4", "--sigma", "(3 4)")
    second = run_cli("build", "T", "--n", "4", "--sigma", "(3 4)")
    assert first.stdout == second.stdout
    a = run_cli("list-sigmas", "--n", "4", "--format", "json")
    b = run_cli("list-sigmas", "--n", "4", "--format", "json")
    assert a.stdout == b.stdout
