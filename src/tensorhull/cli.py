"""Command line surface: constructions, verification runs, and oracles.

Exit codes: 0 command succeeded (verification confirmed / query answered),
1 a verification check did not pass, 2 usage error.  JSON output is the
stable machine format; text output is for humans.
"""

import argparse
import functools
import json
import sys
from math import factorial

from . import circulants, counterexample, permutations, polytopes
from .exactmath import check_farkas, format_matrix, parse_matrix

USAGE_ERROR = 2
CHECK_FAILED = 1


def _emit(text: str, output: str | None):
    if output:
        try:
            with open(output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {output}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _parse_sigma(spec: str, n: int):
    try:
        return permutations.parse_permutation(spec, n)
    except ValueError as exc:
        raise UsageError(f"bad --sigma {spec!r}: {exc}") from exc


class UsageError(Exception):
    pass


def cmd_count_sigmas(args) -> int:
    sigmas = permutations.admissible_sigmas(args.n, args.sn_cap)
    formula = factorial(args.n) - args.n * permutations.euler_phi(args.n)
    match = len(sigmas) == formula
    if args.format == "json":
        payload = {"n": args.n, "count": len(sigmas),
                   "formula": formula, "match": match}
        _emit(json.dumps(payload, indent=2) + "\n", args.output)
    else:
        _emit(f"{len(sigmas)} = {formula}\n", args.output)
    return 0 if match else CHECK_FAILED


def cmd_list_sigmas(args) -> int:
    sigmas = permutations.enumerate_counterexample_sigmas(args.n, args.sn_cap)
    if args.format == "json":
        payload = [{"image": list(s.image), "cycles": s.cycle_string()}
                   for s in sigmas]
        _emit(json.dumps(payload, indent=2) + "\n", args.output)
    else:
        _emit("".join(s.image_string() + "\n" for s in sigmas), args.output)
    return 0


def cmd_build(args) -> int:
    if args.target in ("B", "T") and args.sigma is None:
        raise UsageError(f"--sigma is required to build {args.target}")
    if args.target == "A":
        _emit(circulants.format_varmatrix(circulants.build_A(args.n)),
              args.output)
        return 0
    sigma = _parse_sigma(args.sigma, args.n)
    if args.target == "B":
        _emit(circulants.format_varmatrix(circulants.build_B(args.n, sigma)),
              args.output)
        return 0
    _emit(format_matrix(counterexample.build_T(args.n, sigma)), args.output)
    return 0


def _report_text(report) -> str:
    lines = [f"n={report.n} sigma={report.sigma.image_string()} "
             f"(cycles {report.sigma.cycle_string()})"]
    stages = report.to_dict(include_timings=False)["stages"]
    for name, value in stages.items():
        lines.append(f"  {name:32s} {value}")
    lines.append(f"  support size/rank                {report.support_size}/"
                 f"{report.support_rank}")
    for flag in report.red_flags:
        lines.append(f"  RED FLAG: {flag}")
    lines.append(f"  confirmed: {report.confirmed}")
    return "\n".join(lines) + "\n"


def cmd_verify(args) -> int:
    if args.sigma is None:
        raise UsageError("verify requires --sigma")
    sigma = _parse_sigma(args.sigma, args.n)
    report = counterexample.full_verification(
        args.n, sigma, run_lp=args.lp, strict_families=args.strict_families)
    if args.format == "json":
        _emit(json.dumps(report.to_dict(), indent=2) + "\n", args.output)
    else:
        _emit(_report_text(report), args.output)
    if report.confirmed:
        return 0
    failed = ", ".join(report.failed_stages())
    print(f"verification not confirmed; failed stages: {failed}",
          file=sys.stderr)
    return CHECK_FAILED


def _verify_worker(packed):
    """One sigma's report; an internal divergence is its red flag, so the
    batch goes on instead of aborting."""
    n, image, run_lp, strict = packed
    sigma = permutations.Permutation(image)
    try:
        return counterexample.full_verification(
            n, sigma, run_lp=run_lp, strict_families=strict)
    except (AssertionError, RuntimeError) as exc:
        return counterexample.VerificationReport(
            n=n, sigma=sigma, red_flags=[f"verification divergence: {exc}"])


def _summary_table(reports) -> str:
    width = max(len("sigma"),
                max((len(r.sigma.image_string()) for r in reports), default=5))
    cwidth = max(len("cycles"),
                 max((len(r.sigma.cycle_string()) for r in reports), default=6))
    lines = [f"{'sigma':<{width}}  {'cycles':<{cwidth}}  "
             f"{'confirmed':<9}  failed stages / flags"]
    for r in reports:
        notes = ", ".join(r.failed_stages()) or "-"
        if r.red_flags:
            notes += "  RED FLAGS: " + "; ".join(r.red_flags)
        lines.append(f"{r.sigma.image_string():<{width}}  "
                     f"{r.sigma.cycle_string():<{cwidth}}  "
                     f"{'yes' if r.confirmed else 'no':<9}  {notes}")
    confirmed = sum(1 for r in reports if r.confirmed)
    lines.append(f"{confirmed}/{len(reports)} confirmed")
    return "\n".join(lines) + "\n"


def cmd_verify_all(args) -> int:
    if args.lp:
        polytopes.check_lp_size(args.n, factorial(args.n) ** 2)
    if args.all_sigmas:
        if args.n > args.sn_cap:
            raise UsageError(f"n={args.n} exceeds --sn-cap {args.sn_cap}")
        sigmas = list(permutations.all_permutations(args.n))
    else:
        sigmas = permutations.enumerate_counterexample_sigmas(
            args.n, args.sn_cap)
    jobs = [(args.n, s.image, args.lp, args.strict_families) for s in sigmas]
    workers = min(args.workers, len(jobs))
    if workers > 1:
        import multiprocessing  # ~13 ms to import, so only when pooling
        with multiprocessing.Pool(workers) as pool:
            reports = pool.map(_verify_worker, jobs)
    else:
        reports = [_verify_worker(job) for job in jobs]
    if args.format == "json":
        payload = [r.to_dict() for r in reports]
        _emit(json.dumps(payload, indent=2) + "\n", args.output)
    else:
        _emit(_summary_table(reports), args.output)
    bad = [r for r in reports if r.red_flags
           or (r.sigma_admissible and not r.confirmed)]
    if bad:
        print(f"{len(bad)} report(s) with failures or red flags",
              file=sys.stderr)
        return CHECK_FAILED
    return 0


def _load_square_matrix(path: str, n: int):
    try:
        with open(path) as fh:
            m = parse_matrix(fh.read())
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read matrix from {path}: {exc}") from exc
    if m.rows != n * n or m.cols != n * n:
        raise UsageError(
            f"matrix is {m.rows}x{m.cols}, expected {n * n}x{n * n}")
    return m


def cmd_psi_oracle(args) -> int:
    m = _load_square_matrix(args.matrix, args.n)
    mode = args.mode.replace("-", "_")
    result = polytopes.psi_contains(m, args.n, mode=mode,
                                    allow_large=args.allow_large)
    # Re-verify before printing: reconstruction for witnesses, farkas check
    # for certificates (psi_contains already did; this guards the printout).
    if result.in_psi:
        recon = polytopes.weights_reconstruct(result.weights, args.n)
        total = sum(result.weights.values())
        verified = recon == m and total == 1
    else:
        canon, d = polytopes.membership_system(m, args.n, result.pairs)
        verified = check_farkas(canon, d, result.farkas)
    if not verified:
        print("internal error: certificate failed re-verification",
              file=sys.stderr)
        return CHECK_FAILED
    if args.format == "json":
        payload = {
            "n": args.n,
            "mode": result.mode,
            "in_psi": result.in_psi,
            "verified": verified,
            "admissible_pairs": result.admissible_count,
        }
        if result.in_psi:
            payload["weights"] = [
                {"p": list(p), "q": list(q), "weight": str(w)}
                for (p, q), w in sorted(result.weights.items())]
        else:
            payload["farkas"] = [str(v) for v in result.farkas]
        _emit(json.dumps(payload, indent=2) + "\n", args.output)
    else:
        lines = [f"in_psi: {result.in_psi} (mode {result.mode}, verified)"]
        if result.admissible_count is not None:
            lines.append(f"admissible pairs: {result.admissible_count}")
        if result.in_psi:
            for (p, q), w in sorted(result.weights.items()):
                lines.append(
                    f"  weight {w} on p={' '.join(map(str, p))} | "
                    f"q={' '.join(map(str, q))}")
        else:
            nonzero = sum(1 for v in result.farkas if v)
            lines.append(f"  farkas certificate with {nonzero} nonzero rows")
        _emit("\n".join(lines) + "\n", args.output)
    return 0


def cmd_phi_check(args) -> int:
    m = _load_square_matrix(args.matrix, args.n)
    sys_ = polytopes.build_phi_constraints(args.n, args.strict_families)
    check = polytopes.phi_contains(m, sys_)
    if args.format == "json":
        payload = {
            "n": args.n,
            "strict_families": args.strict_families,
            "member": check.ok,
            "negative_entries": [list(t) for t in check.negative_entries],
            "violations": [{"label": lbl, "residual": str(res)}
                           for lbl, res in check.violations],
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.output)
    else:
        lines = [f"member: {check.ok}"]
        for t in check.negative_entries:
            lines.append(f"  negative entry at ((i,k),(j,l)) = {t}")
        for lbl, res in check.violations:
            lines.append(f"  violated {lbl}: residual {res}")
        _emit("\n".join(lines) + "\n", args.output)
    return 0 if check.ok else CHECK_FAILED


def _add_common(parser, *, sigma=False, lp=False, workers=False,
                sn_cap=False, strict=False, fmt=True):
    parser.add_argument("--n", type=int, required=True, help="side length n")
    if sigma:
        parser.add_argument(
            "--sigma",
            help="permutation: 'identity', image array '2 3 4 1', "
                 "or cycles '(3 4)'")
    if lp:
        parser.add_argument(
            "--lp", action=argparse.BooleanOptionalAction, default=None,
            help="run the full LP oracle (default: only for n <= 4)")
    if workers:
        parser.add_argument("--workers", type=int, default=1,
                            help="parallel worker processes")
    if sn_cap:
        parser.add_argument("--sn-cap", type=int,
                            default=permutations.DEFAULT_SN_CAP,
                            help="cap for full S_n enumeration")
    if strict:
        parser.add_argument("--strict-families", action="store_true",
                            help="use the literal alternate reading of the "
                                 "third/fourth constraint families")
    if fmt:
        parser.add_argument("--format", choices=("text", "json"),
                            default="text")
    parser.add_argument("--output", help="write output to this file")


# Built once per process: a parser is ~400 objects in reference cycles that
# only the cycle collector frees, and building one takes about 2 ms.
@functools.cache
def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tensorhull",
        description="Exact verification of vertex counterexamples separating "
                    "the Kronecker-hull polytope from its linear relaxation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count-sigmas",
                       help="count admissible sigmas and compare to the formula")
    _add_common(p, sn_cap=True)
    p.set_defaults(fn=cmd_count_sigmas)

    p = sub.add_parser("list-sigmas", help="list admissible sigmas")
    _add_common(p, sn_cap=True)
    p.set_defaults(fn=cmd_list_sigmas)

    p = sub.add_parser("build", help="print A, B, or T")
    p.add_argument("target", choices=("A", "B", "T"))
    # build has one output format, the text one
    _add_common(p, sigma=True, fmt=False)
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("verify", help="full verification for one sigma")
    _add_common(p, sigma=True, lp=True, strict=True)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("verify-all",
                       help="full verification over the admissible sigmas")
    _add_common(p, lp=True, workers=True, sn_cap=True, strict=True)
    p.add_argument("--all-sigmas", action="store_true",
                   help="verify every sigma in S_n, not just admissible ones")
    p.set_defaults(fn=cmd_verify_all)

    p = sub.add_parser("psi-oracle",
                       help="exact membership oracle for the Kronecker hull")
    p.add_argument("matrix", help="matrix file in the text format")
    _add_common(p)
    p.add_argument("--mode", choices=("support-filtered", "full"),
                   default="support-filtered")
    p.add_argument("--allow-large", action="store_true",
                   help="lift the n <= 4 cap on full mode")
    p.set_defaults(fn=cmd_psi_oracle)

    p = sub.add_parser("phi-check",
                       help="exact membership check for the linear relaxation")
    p.add_argument("matrix", help="matrix file in the text format")
    _add_common(p, strict=True)
    p.set_defaults(fn=cmd_phi_check)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        if args.n < 1:
            raise UsageError(f"--n must be >= 1, got {args.n}")
        if getattr(args, "workers", 1) < 1:
            raise UsageError(f"--workers must be >= 1, got {args.workers}")
        return args.fn(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (AssertionError, RuntimeError) as exc:
        # internal verification failures: a check that must never fail did
        print(f"verification divergence: {exc}", file=sys.stderr)
        return CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
