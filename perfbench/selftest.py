#!/usr/bin/env python3
"""Self-tests of the benchmark's own machinery.

    python3 perfbench/selftest.py

They cover the tracer (every traced function emits a span on tiny n=4 ops,
and restoring leaves every binding identical to the original), the input
generator (same seed, byte-identical inputs) and the verdict checks (they
reject a corrupted certificate).  They take a few seconds.
"""

import os
import random
import tempfile
import unittest
from fractions import Fraction

import run

CLI = run.import_program()  # puts the checkout's src/ first on sys.path

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def snapshot():
    """Every module attribute of the package, and every traced method."""
    pkg, mods = tracing._modules()
    snap = {}
    for owner in (pkg, *mods.values()):
        for attr, value in vars(owner).items():
            snap[(owner.__name__, attr)] = value
    for _, owner, attr, _ in tracing.bindings():
        if isinstance(owner, type):
            snap[(owner.__qualname__, attr)] = owner.__dict__[attr]
    return snap


def _run_quietly(op, check):
    elapsed, error = run.run_op(CLI, op, check)
    if error:
        raise AssertionError(f"{op.kind} failed: {error}")
    return elapsed


class TracerTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.psi = workloads.PsiOracleN4(self.tmp.name)
        self.lp = workloads.VerifyLpN4(self.tmp.name)

    def tearDown(self):
        self.tmp.cleanup()

    def tiny_ops(self):
        """One verify op with the LP and one psi-oracle op per verdict."""
        sigma = next(e for e in self.lp.entries
                     if e["image"] == [1, 2, 4, 3])
        ops = [workloads._verify_op("lp", 4, sigma, lp=True)]
        rng = random.Random(0)
        for op in self.psi.round(rng):
            if op.kind in ("vertex-mix/support-filtered",
                           "t-mix/support-filtered"):
                ops.append(op)
        return ops

    def check_for(self, op):
        if "in_psi" in op.expect:
            return lambda o, rc, out: checks.check_psi(o, rc, out, 4)
        return checks.check_verify

    def test_every_wrapped_function_emits_a_span(self):
        from tensorhull import polytopes

        polytopes.build_phi_constraints.cache_clear()
        tracer = tracing.Tracer()
        with tracer:
            tracer.op = "setup"
            run.program_setup(4)
            for i, op in enumerate(self.tiny_ops()):
                tracer.op = i
                _run_quietly(op, self.check_for(op))
        seen = {span[3] for span in tracer.spans}
        for module, qualname in tracing.TRACED:
            self.assertIn(tracing.span_name(module, qualname), seen)
        for span in tracer.spans:
            self.assertGreaterEqual(span[5], span[4])

    def test_bindings_restored_identically(self):
        before = snapshot()
        for op in self.tiny_ops():
            _run_quietly(op, self.check_for(op))
        with tracing.Tracer():
            self.assertIsNot(CLI.main, before[("tensorhull.cli", "main")])
        after = snapshot()
        self.assertEqual(before.keys(), after.keys())
        for key, value in before.items():
            self.assertIs(after[key], value, key)

    def test_wrapped_at_every_lookup_site(self):
        from tensorhull import cli, exactmath, polytopes

        with tracing.Tracer():
            for owner, name in ((polytopes, "rat_rank"),
                                (polytopes, "lp_feasible"),
                                (exactmath, "check_farkas"),
                                (cli, "check_farkas")):
                self.assertTrue(hasattr(getattr(owner, name), "__wrapped__"),
                                f"{owner.__name__}.{name}")


class InputsTest(unittest.TestCase):
    def generate(self, name, seed, workdir):
        workload = workloads.WORKLOADS[name](workdir)
        rng = random.Random(seed)
        out = []
        for _ in range(2):
            for op in workload.round(rng):
                argv = [os.path.basename(a) if a.startswith(workdir) else a
                        for a in op.argv]
                out.append((op.kind, argv))
        files = {}
        for f in sorted(os.listdir(workdir)):
            with open(os.path.join(workdir, f), "rb") as fh:
                files[f] = fh.read()
        return out, files

    def test_same_seed_same_bytes(self):
        for name in workloads.WORKLOADS:
            with tempfile.TemporaryDirectory() as a, \
                    tempfile.TemporaryDirectory() as b, \
                    tempfile.TemporaryDirectory() as c:
                first = self.generate(name, 7, a)
                self.assertEqual(first, self.generate(name, 7, b), name)
                self.assertNotEqual(first, self.generate(name, 8, c), name)

    def test_transfer_matrix_matches_program(self):
        from tensorhull import counterexample
        from tensorhull.permutations import Permutation

        for entry in workloads.load_refs(4)["entries"]:
            image = entry["image"]
            t = counterexample.build_T(4, Permutation(image))
            self.assertEqual(workloads.transfer_matrix(4, image), t.data)

    def test_rank_deficient_sigmas_are_sampled(self):
        workload = workloads.VerifyN6(None)
        self.assertEqual(len(workload.entries), 708)
        self.assertEqual(len(workload.deficient), 96)
        kinds = [op.kind for op in workload.round(random.Random(3))]
        self.assertEqual(kinds.count("rank-deficient"), 2)
        self.assertEqual(kinds.count("full-rank"), 12)


class ChecksTest(unittest.TestCase):
    def test_corrupted_certificates_are_rejected(self):
        with tempfile.TemporaryDirectory() as tmp:
            psi = workloads.PsiOracleN4(tmp)
            ops = psi.round(random.Random(5))
            out_op = next(op for op in ops if op.kind == "t-mix/full")
            in_op = next(op for op in ops if op.kind == "vertex-mix/full")
            check = lambda o, rc, out: checks.check_psi(o, rc, out, 4)  # noqa
            for op in (out_op, in_op):
                _run_quietly(op, check)
            n4 = 256
            y = [Fraction(0)] * (n4 + 1)
            y[n4] = Fraction(-1)   # refutes nothing: every column gets -1
            self.assertFalse(checks.farkas_refutes(4, out_op.matrix, y,
                                                   "full"))
            p = q = list(range(1, 5))
            self.assertFalse(checks.weights_rebuild(
                4, in_op.matrix, [{"p": p, "q": q, "weight": "1"}]))

    def test_wrong_verify_verdict_is_reported(self):
        entry = dict(workloads.load_refs(4)["entries"][1])
        op = workloads._verify_op("lp", 4, entry, lp=True)
        wrong = dict(entry, support_rank=entry["support_rank"] - 1)
        _, error = run.run_op(CLI, workloads.Op(op.kind, op.argv, wrong),
                              checks.check_verify)
        self.assertIn("support_rank", error)


if __name__ == "__main__":
    unittest.main()
