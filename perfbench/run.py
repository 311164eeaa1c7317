#!/usr/bin/env python3
"""Benchmark of tensorhull's certified verdicts, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload verify-n6 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

The program is driven in-process through `tensorhull.cli.main([...])`, one
op at a time: a closed loop with a single client and no worker processes.
Every op is one certified verdict, checked before the next op starts.  The
loop runs whole rounds (see workloads.py) until the ops have been busy for
`--seconds`; only the time inside `cli.main` counts as busy.

With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics.  With `--trace 1` the same rounds run untraced and then
again under the span tracer of tracing.py, and the JSON holds the per-layer
metrics; the spans are written to .perfbench_work/ at the end.
"""

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench_work")

SETUP_REPEATS = 15
# Stop starting ops after this much wall time, so that a very slow program
# still ends the run well inside a three-minute limit.
WALL_CAP_S = 140.0

# Set-up in a fresh interpreter: import the CLI, build the Phi constraint
# system and enumerate the admissible sigmas, as a first `verify` would.
SETUP_SNIPPET = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import tensorhull.cli
from tensorhull import permutations, polytopes
n = int(sys.argv[2])
polytopes.build_phi_constraints(n)
sigmas = permutations.enumerate_counterexample_sigmas(n)
print(time.perf_counter() - t0, len(sigmas))
"""


def import_program():
    """Import tensorhull from this checkout's sources, and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "tensorhull", "cli.py")):
        raise SystemExit(f"error: tensorhull sources not found under {SRC}")
    sys.path.insert(0, SRC)
    import tensorhull.cli

    where = os.path.abspath(tensorhull.cli.__file__)
    if not where.startswith(SRC + os.sep):
        raise SystemExit(f"error: imported tensorhull from {where}")
    return tensorhull.cli


def measure_setup(n):
    """Set-up seconds of one fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_SNIPPET, SRC, str(n)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up failed:\n{proc.stderr}")
    return float(proc.stdout.split()[0])


def program_setup(n):
    from tensorhull import permutations, polytopes

    polytopes.build_phi_constraints(n)
    return permutations.enumerate_counterexample_sigmas(n)


def run_op(cli, op, check):
    """Run one op; (busy seconds, None or the reason it failed)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(op.argv)
    except SystemExit as exc:
        error = f"CLI exited with {exc.code}: {err.getvalue().strip()}"
    except Exception as exc:  # a crash is a failed op, not a failed run
        error = f"raised {exc!r}"
    elapsed = time.perf_counter() - t0
    if error is None:
        try:
            error = check(op, rc, out.getvalue())
        except (ValueError, KeyError, TypeError) as exc:
            error = f"unreadable output ({exc!r}): {err.getvalue().strip()}"
    return elapsed, error


def run_rounds(cli, workload, check, rng, seconds, deadline,
               after_op=lambda busy: None):
    """Whole rounds until the ops have been busy for `seconds`.

    Returns the results, the number of complete rounds and whether the wall
    deadline cut the run short (then the last round may be partial, and the
    busy time may fall short of `seconds`)."""
    results = []
    busy = 0.0
    rounds = 0
    while busy < seconds:
        for op in workload.round(rng):
            if time.monotonic() >= deadline:
                return results, rounds, True
            elapsed, error = run_op(cli, op, check)
            op.matrix = None  # keep memory flat however many ops run
            results.append((op, elapsed, error))
            busy += elapsed
            after_op(busy)
        rounds += 1
    return results, rounds, False


def report_failures(results):
    for op, _, error in results:
        if error:
            print(f"FAILED {op.kind}: {' '.join(op.argv)}: {error}",
                  file=sys.stderr)


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(results, rounds, capped, setup_times):
    times = [t for _, t, _ in results]
    failed = sum(1 for _, _, e in results if e)
    attempted = len(results)
    busy = sum(times)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "ops_per_s": metric(attempted / busy, "1/s"),
        "op_s_p50": metric(statistics.median(times), "s"),
        "correct_frac": metric((attempted - failed) / attempted, "frac"),
        "setup_s": metric(statistics.median(setup_times), "s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }
    notes = {
        "ops_per_s": f"{attempted} ops / {busy:.2f} s busy, {rounds} "
                     f"complete rounds"
                     + (", CUT SHORT by the wall-time cap" if capped else ""),
        "op_s_p50": f"median of {attempted} ops",
        "correct_frac": f"{attempted - failed} of {attempted} ops correct; "
                        f"failed_frac {failed}/{attempted}",
        "setup_s": f"median of {len(setup_times)} fresh interpreters",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    return metrics, notes, attempted, failed


def share(num, den):
    return num / den if den else 0.0


def per_layer(tracer, traced, untraced, rounds, capped):
    """Per-op self time and calls of every traced function, plus counters.

    `rounds` counts the complete rounds of the untraced pass; `capped` says
    whether the wall-time cap cut that pass or the replay short."""
    from tracing import TRACED, span_name

    nops = len(traced)
    op_self = tracer.self_times(lambda op: op != "setup")
    setup_self = tracer.self_times(lambda op: op == "setup")
    metrics = {}
    for module, qualname in TRACED:
        name = span_name(module, qualname)
        calls, self_s = op_self.get(name, (0, 0.0))
        metrics[f"{name}.self_s"] = metric(self_s / nops, "s/op")
        metrics[f"{name}.calls"] = metric(calls / nops, "calls/op")
    for name in ("polytopes.build_phi_constraints",
                 "permutations.is_counterexample_sigma"):
        metrics[f"setup.{name}.self_s"] = metric(
            setup_self.get(name, (0, 0.0))[1], "s")
    for key, unit in (("exactmath.rat_rank.cols", "cols/call"),
                      ("exactmath.rat_rank.full_rank_frac", "frac"),
                      ("exactmath.lp_feasible.rows", "rows/call"),
                      ("exactmath.lp_feasible.cols", "cols/call"),
                      ("exactmath.lp_feasible.feasible_frac", "frac"),
                      ("polytopes.admissible_pairs.kept_frac", "frac")):
        calls = op_self.get(key.rsplit(".", 1)[0], (0, 0.0))[0]
        metrics[key] = metric(share(tracer.counters.get(key, 0), calls), unit)
    lp_per_psi = tracer.child_counts("polytopes.psi_contains",
                                     "exactmath.lp_feasible")
    metrics["polytopes.psi_contains.fallback_frac"] = metric(
        share(sum(v - 1 for v in lp_per_psi.values()), len(lp_per_psi)),
        "frac")

    fallback_ops = {tracer.spans[sid][2] for sid, v in lp_per_psi.items()
                    if v > 1}
    verdicts = [_lp_verdict(op) for op, _, _ in traced]
    metrics["mix.ops"] = metric(nops, "count")
    metrics["mix.rank_deficient_frac"] = metric(
        sum(1 for op, _, _ in traced
            if op.expect.get("support_rank", 0)
            < op.expect.get("support_size", 0)) / nops, "frac")
    metrics["mix.lp_feasible_frac"] = metric(
        verdicts.count(True) / nops, "frac")
    metrics["mix.lp_infeasible_frac"] = metric(
        verdicts.count(False) / nops, "frac")
    metrics["mix.fallback_frac"] = metric(len(fallback_ops) / nops, "frac")
    metrics["run.complete_rounds"] = metric(rounds, "count")
    metrics["run.wall_capped"] = metric(int(capped), "count")
    metrics["trace.overhead_s"] = metric(
        statistics.median(t for _, t, _ in traced)
        - statistics.median(t for _, t, _ in untraced), "s")
    return metrics


def _lp_verdict(op):
    """True/False for ops that answer Psi membership, None otherwise."""
    if "in_psi" in op.expect:
        return op.expect["in_psi"]
    status = op.expect.get("psi_lp")
    if status == "feasible":
        return True
    if status == "infeasible_certified":
        return False
    return None


def run_workload(cli, name, seed, seconds, trace):
    import checks
    import workloads

    workload_cls = workloads.WORKLOADS[name]
    start = time.monotonic()
    # A traced run replays its ops, so it gets half the wall time for each.
    deadline = start + (WALL_CAP_S / 2 if trace else WALL_CAP_S)
    inputs = os.path.join(WORKDIR, f"inputs-{os.getpid()}")
    os.makedirs(inputs, exist_ok=True)
    try:
        workload = workload_cls(inputs)
        if name.startswith("psi-oracle"):
            def check(op, rc, stdout):
                return checks.check_psi(op, rc, stdout, workload.n)
        else:
            check = checks.check_verify
        sigmas = program_setup(workload.n)
        setup_error = checks.check_enumeration(sigmas, workload.refs)
        setup_times = []

        def take_setups(busy):
            # Spread the fresh-interpreter set-ups over the run, so that
            # their median does not hang on one short stretch of host speed.
            # The traced run reports no end-to-end metrics and takes none.
            while not trace and len(setup_times) < min(
                    SETUP_REPEATS, 1 + SETUP_REPEATS * busy / seconds):
                setup_times.append(measure_setup(workload.n))

        rng = random.Random(seed)
        results, rounds, capped = run_rounds(cli, workload, check, rng,
                                             seconds, deadline, take_setups)
        take_setups(seconds)
        report_failures(results)
        if not trace:
            metrics, notes, attempted, failed = end_to_end(
                results, rounds, capped, setup_times)
        else:
            tracer, traced = trace_replay(cli, workload, check, seed,
                                          len(results), start + WALL_CAP_S)
            write_spans(tracer, name, seed)
            report_failures(traced)
            metrics = per_layer(tracer, traced, results[:len(traced)],
                                rounds, capped or len(traced) < len(results))
            notes = {"run.complete_rounds": f"of the untraced pass; "
                                            f"{len(traced)} of "
                                            f"{len(results)} ops replayed"}
            attempted = len(results) + len(traced)
            failed = sum(1 for _, _, e in results + traced if e)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    if setup_error:
        print(f"FAILED set-up: {setup_error}", file=sys.stderr)
        attempted += 1
        failed += 1
    return metrics, notes, attempted, failed


def trace_replay(cli, workload, check, seed, count, deadline):
    """Regenerate the run's first `count` ops from its seed and replay them
    under the tracer, after a traced cold set-up."""
    from tensorhull import polytopes
    from tracing import Tracer

    polytopes.build_phi_constraints.cache_clear()
    rng = random.Random(seed)
    tracer = Tracer()
    traced = []
    with tracer:
        tracer.op = "setup"
        program_setup(workload.n)
        while len(traced) < count:
            for op in workload.round(rng):
                if len(traced) == count or (
                        traced and time.monotonic() >= deadline):
                    return tracer, traced
                tracer.op = len(traced)
                elapsed, error = run_op(cli, op, check)
                traced.append((op, elapsed, error))
    return tracer, traced


def write_spans(tracer, name, seed):
    path = os.path.join(WORKDIR, f"spans-{name}-{seed}.json")
    with open(path, "w") as fh:
        json.dump({"fields": ["id", "parent", "op", "name", "start", "end"],
                   "spans": tracer.spans, "counters": tracer.counters}, fh)


def print_summary(name, seed, metrics, notes):
    print(f"{name} (seed {seed}; closed loop, 1 client, 1 process)")
    for key, m in metrics.items():
        note = notes.get(key, "")
        print(f"  {key:44s} {m['value']:>14.6g} {m['unit']:<10s} {note}")


def main(argv=None):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    cli = import_program()
    os.makedirs(WORKDIR, exist_ok=True)
    names = (sorted(workloads.WORKLOADS) if args.workload == "all"
             else [args.workload])
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        metrics, notes, attempted, failed = run_workload(
            cli, name, args.seed, args.seconds, args.trace)
        print_summary(name, args.seed, metrics, notes)
        combined["attempted"] += attempted
        combined["failed"] += failed
        prefix = f"{name}." if len(names) > 1 else ""
        for key, m in metrics.items():
            combined["metrics"][prefix + key] = m
    combined["correct"] = combined["failed"] == 0
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
