#!/usr/bin/env python3
"""Generate the stored reference verdicts the benchmark checks against.

Run from the repository root:

    python3 perfbench/make_refs.py verify --n 6 --workers 2
    python3 perfbench/make_refs.py verify --n 4
    python3 perfbench/make_refs.py cost --n 6 --workers 2
    python3 perfbench/make_refs.py cross-check --n 6 --sigmas all-deficient
    python3 perfbench/make_refs.py cross-check --n 6 --sigmas 21
    python3 perfbench/make_refs.py cross-check --n 4 --sigmas 24

`verify` runs the CLI once per sigma and writes the verdict fields the
benchmark compares (exit code, confirmed, failed stages, LP status, support
size and rank) to perfbench/refs/verify_n<N>.json.  For n <= 4, the sizes
the program runs the LP on by default, it covers all of S_n with the LP
stage (the verify-lp-n4 workload needs the non-admissible controls); above
that it covers the admissible sigmas without it.  `cost` records each
sigma's `verify` wall time (`cost_s`), which the verify-n6 workload uses to
stratify its sample.  `cross-check` re-derives admissibility for every sigma
and, for the chosen ones, the support rank and the pattern factorization
with the independent oracles of tests/helpers.py, and records which sigmas
were cross-checked in the same file.  Both are slow at n=6 (minutes for
`verify`, about 30 s per sigma for `cross-check`) and are run once, not by
the benchmark.
"""

import argparse
import contextlib
import io
import json
import multiprocessing
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFS = os.path.join(HERE, "refs")
# The CLI runs the LP stage by default only up to this n.
LP_MAX_N = 4


def _setup_path():
    for p in (os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")):
        if p not in sys.path:
            sys.path.insert(0, p)


def _map(fn, jobs, workers):
    """fn over jobs, in order, on `workers` fresh processes when > 1."""
    if workers <= 1:
        return [fn(job) for job in jobs]
    with multiprocessing.get_context("spawn").Pool(workers) as pool:
        return pool.map(fn, jobs, chunksize=1)


def _ref_path(n: int) -> str:
    return os.path.join(REFS, f"verify_n{n}.json")


def _load(n):
    with open(_ref_path(n)) as fh:
        return json.load(fh)


def _save(payload):
    os.makedirs(REFS, exist_ok=True)
    with open(_ref_path(payload["n"]), "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def _verify_one(packed):
    _setup_path()
    from checks import verdict_fields
    from tensorhull import cli

    n, image = packed
    out = io.StringIO()
    argv = ["verify", "--n", str(n), "--sigma", " ".join(map(str, image)),
            "--lp" if n <= LP_MAX_N else "--no-lp", "--format", "json"]
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    entry = verdict_fields(rc, json.loads(out.getvalue()))
    entry["image"] = list(image)
    return entry


def _cost_one(packed):
    t0 = time.perf_counter()
    _verify_one(packed)
    return list(packed[1]), time.perf_counter() - t0


def cmd_verify(args):
    _setup_path()
    from tensorhull import permutations

    lp = args.n <= LP_MAX_N
    if lp:
        sigmas = list(permutations.all_permutations(args.n))
    else:
        sigmas = permutations.enumerate_counterexample_sigmas(args.n)
    entries = _map(_verify_one, [(args.n, s.image) for s in sigmas],
                   args.workers)
    _save({"n": args.n, "lp": lp, "count": len(entries),
           "entries": entries, "cross_checked": {}})
    bad = sum(1 for e in entries if e["red_flags"])
    print(f"wrote {len(entries)} references to {_ref_path(args.n)}; "
          f"{bad} with red flags")


def cmd_cost(args):
    payload = _load(args.n)
    results = _map(_cost_one, [(args.n, tuple(e["image"]))
                               for e in payload["entries"]], args.workers)
    for e, (image, seconds) in zip(payload["entries"], results):
        if e["image"] != image:
            raise SystemExit("cost results out of order")
        e["cost_s"] = round(seconds, 3)
    _save(payload)
    print(f"recorded cost_s for {len(results)} sigmas")


def _cross_check_one(packed):
    """(image, support size, plain_rank, factorization found) for one sigma."""
    _setup_path()
    from helpers import brute_exists_PQ, plain_rank
    from tensorhull import circulants, counterexample, polytopes
    from tensorhull.permutations import Permutation

    n, image = packed
    sigma = Permutation(image)
    t = counterexample.build_T(n, sigma)
    sys_ = polytopes.build_phi_constraints(n)
    supp = polytopes.support_columns(t)
    factors = brute_exists_PQ(circulants.build_A(n).entry,
                              circulants.build_B(n, sigma).entry)
    return (list(image), len(supp),
            plain_rank(sys_.column_submatrix(supp)), factors is not None)


def cmd_cross_check(args):
    _setup_path()
    from helpers import brute_is_admissible

    payload = _load(args.n)
    entries = payload["entries"]
    for e in entries:
        if brute_is_admissible(tuple(e["image"])) != ("admissibility" not in
                                                     e["failed_stages"]):
            raise SystemExit(f"admissibility mismatch for {e['image']}")
    if args.sigmas == "all-deficient":
        chosen = [e for e in entries if e["support_rank"] < e["support_size"]]
    else:
        step = max(1, len(entries) // int(args.sigmas))
        chosen = entries[::step][:int(args.sigmas)]
    results = _map(_cross_check_one, [(args.n, tuple(e["image"]))
                                      for e in chosen], args.workers)
    by_image = {tuple(e["image"]): e for e in entries}
    checked = payload["cross_checked"].setdefault(
        "plain_rank_and_brute_exists_PQ", [])
    for image, size, rank, factors in results:
        e = by_image[tuple(image)]
        if (size, rank) != (e["support_size"], e["support_rank"]):
            raise SystemExit(f"plain_rank disagrees for {image}: "
                             f"{size}/{rank} vs {e['support_size']}/"
                             f"{e['support_rank']}")
        if factors != ("pattern_search" in e["failed_stages"]):
            raise SystemExit(f"brute_exists_PQ disagrees for {image}")
        if image not in checked:
            checked.append(image)
    checked.sort()
    payload["cross_checked"]["brute_is_admissible"] = "all"
    _save(payload)
    print(f"admissibility agrees on all {len(entries)}; plain_rank and "
          f"brute_exists_PQ agree on {len(results)} "
          f"({len(checked)} cross-checked in total)")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, help_ in (
            ("verify", cmd_verify, "write the reference verdicts"),
            ("cost", cmd_cost, "record each sigma's verify time"),
            ("cross-check", cmd_cross_check,
             "re-check references with tests/helpers.py")):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--workers", type=int, default=1)
        p.set_defaults(fn=fn)
        if name == "cross-check":
            p.add_argument("--sigmas", default="all-deficient",
                           help="'all-deficient', or a count of evenly "
                                "spaced sigmas")
    args = parser.parse_args(argv)
    args.fn(args)


if __name__ == "__main__":
    main()
