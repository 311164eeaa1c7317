"""In-memory spans around calls into tensorhull's public functions.

The tracer replaces each traced function by a wrapper at every place a caller
looks it up: every module attribute of the package that is bound to the
original function (so `polytopes.rat_rank`, `exactmath.rat_rank` and the
package re-export are all wrapped), and the class attribute for methods.
`restore()` puts every original object back, so an untraced run sees the
program exactly as imported.
"""

import functools
import time
from math import factorial

# (defining module, qualified name) of every traced function.
TRACED = (
    ("cli", "main"),
    ("counterexample", "full_verification"),
    ("counterexample", "build_T"),
    ("counterexample", "verify_transfer_identity"),
    ("counterexample", "block_structure_report"),
    ("counterexample", "certify_not_in_psi"),
    ("polytopes", "phi_contains"),
    ("polytopes", "phi_support_rank"),
    ("polytopes", "ConstraintSystem.column_submatrix"),
    ("polytopes", "psi_contains"),
    ("polytopes", "admissible_pairs"),
    ("polytopes", "membership_system"),
    ("polytopes", "weights_reconstruct"),
    ("polytopes", "build_phi_constraints"),
    ("exactmath", "rat_rank"),
    ("exactmath", "lp_feasible"),
    ("exactmath", "check_farkas"),
    ("exactmath", "RatMatrix.matvec"),
    ("circulants", "exists_PQ"),
    ("permutations", "is_counterexample_sigma"),
)

MODULES = ("cli", "counterexample", "polytopes", "exactmath", "circulants",
           "permutations")


def span_name(module: str, qualname: str) -> str:
    return f"{module}.{qualname}"


def _modules():
    import importlib

    pkg = importlib.import_module("tensorhull")
    return pkg, {m: importlib.import_module(f"tensorhull.{m}") for m in MODULES}


def bindings():
    """Every (owner, attribute, original) place a traced function is looked up."""
    pkg, mods = _modules()
    out = []
    for module, qualname in TRACED:
        if "." in qualname:
            cls_name, meth = qualname.split(".")
            cls = getattr(mods[module], cls_name)
            out.append((span_name(module, qualname), cls, meth,
                        cls.__dict__[meth]))
            continue
        original = getattr(mods[module], qualname)
        for owner in (pkg, *mods.values()):
            for attr, value in list(vars(owner).items()):
                if value is original:
                    out.append((span_name(module, qualname), owner, attr,
                                original))
    return out


class Tracer:
    """Records spans (name, parent, op, start, end) and call-site counters."""

    def __init__(self):
        self.spans = []       # [id, parent, op, name, start, end]
        self.stack = []
        self.op = None
        self.counters = {}
        self._installed = []

    # -- span bookkeeping -------------------------------------------------
    def _wrap(self, name, fn):
        tracer = self
        clock = time.perf_counter
        note = _NOTES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else None
            span = [len(tracer.spans), parent, tracer.op, name, clock(), None]
            tracer.spans.append(span)
            tracer.stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = clock()
                tracer.stack.pop()
            if note is not None:
                note(tracer, args, result)
            return result

        return wrapper

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    # -- installation -----------------------------------------------------
    def install(self):
        wrappers = {}
        for name, owner, attr, original in bindings():
            if id(original) not in wrappers:
                wrappers[id(original)] = self._wrap(name, original)
            setattr(owner, attr, wrappers[id(original)])
            self._installed.append((owner, attr, original))

    def restore(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- reduction --------------------------------------------------------
    def self_times(self, keep_op=lambda op: True):
        """{name: (calls, self seconds)} over the spans of ops keep_op accepts.

        Self time is a span's duration minus that of its direct children.
        """
        child = [0.0] * len(self.spans)
        for sid, parent, _, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {}
        for sid, _, op, name, start, end in self.spans:
            if not keep_op(op):
                continue
            calls, total = out.get(name, (0, 0.0))
            out[name] = (calls + 1, total + (end - start) - child[sid])
        return out

    def child_counts(self, parent_name, child_name):
        """{parent span id: number of direct child spans named child_name}."""
        out = {sid: 0 for sid, _, _, name, _, _ in self.spans
               if name == parent_name}
        for _, parent, _, name, _, _ in self.spans:
            if name == child_name and parent in out:
                out[parent] += 1
        return out


# Per-call counters, averaged over the calls of the function they belong to.

def _note_rat_rank(tracer, args, result):
    m = args[0]
    tracer.count("exactmath.rat_rank.cols", m.cols)
    tracer.count("exactmath.rat_rank.full_rank_frac", result == m.cols)


def _note_lp_feasible(tracer, args, result):
    m = args[0]
    tracer.count("exactmath.lp_feasible.rows", m.rows)
    tracer.count("exactmath.lp_feasible.cols", m.cols)
    tracer.count("exactmath.lp_feasible.feasible_frac", result.feasible)


def _note_admissible_pairs(tracer, args, result):
    tracer.count("polytopes.admissible_pairs.kept_frac",
                 len(result) / factorial(args[1]) ** 2)


_NOTES = {
    "exactmath.rat_rank": _note_rat_rank,
    "exactmath.lp_feasible": _note_lp_feasible,
    "polytopes.admissible_pairs": _note_admissible_pairs,
}
