"""Spans and counts recorded from outside the program.

``Tracer.install`` replaces each traced tinopt function by a wrapper in every
tinopt namespace that binds it (``solve_lp`` lives in ``tinopt.optimize``,
``tinopt.region``, ``tinopt.cli`` and the package itself), so calls made
inside the program are seen as well as the benchmark's own.  Spans stay in
memory as ``[name, start, end, parent, op]`` and are written out at the end.
Per-cycle helpers such as ``cycle_bound_rhs`` are deliberately not wrapped:
they run 10^5 times per large operation and the wrapper would dominate.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

import reference as ref

TARGETS = (
    "cli.main",
    "model.load_network",
    "model.check_tin",
    "cycles.enumerate_cycles",
    "optimize.network_sum",
    "optimize.sum_gdof",
    "optimize.solve_lp",
    "optimize.solve_cycle_lp",
    "optimize.brute_force_best_weight",
    "optimize.all_optimal_partitions",
    "optimize.min_cost_assignment",
    "optimize.optimal_partition",
    "region.combined_sum_bounds",
    "region.separate_tin_decomposable",
    "region.tin_region",
    "detmodel.invertibility_verdict",
    "detmodel.invertible_gf2",
    "detmodel.best_tin_scheme",
    "detmodel.separability_verdict",
    "report.dumps_canonical",
)

LP_CALLS = "optimize.solve_lp.calls"

COUNTS = (
    "cycles.enumerate_cycles.misses",
    "cycles.scanned",
    LP_CALLS,
    "optimize.solve_lp.rows",
    "optimize.solve_cycle_lp.calls",
    "optimize.solve_cycle_lp.rounds",
    "optimize.solve_cycle_lp.working_cycles",
    "optimize.all_optimal_partitions.ties",
    "optimize.min_cost_assignment.calls",
    "region.separate_tin_decomposable.lp_solves",
    "region.separate_tin_decomposable.negatives",
    "region.separate_tin_decomposable.caps",
    "region.tin_region.constraints",
    "detmodel.invertible_gf2.calls",
    "detmodel.invertible_gf2.bits",
    "detmodel.best_tin_scheme.cells",
    "report.bytes",
)


# Count hooks: before(tracer, fn, args) -> state, after(tracer, fn, args,
# result, state).  They run outside the span's own interval.

def _misses(tracer, fn, args):
    return fn.cache_info().misses


def _after_enumerate(tracer, fn, args, result, before):
    tracer.counts["cycles.enumerate_cycles.misses"] += fn.cache_info().misses - before


def _lp_calls(tracer, fn, args):
    return tracer.counts[LP_CALLS]


def _after_solve_lp(tracer, fn, args, result, before):
    tracer.counts[LP_CALLS] += 1
    tracer.counts["optimize.solve_lp.rows"] += len(args[0].constraints)


def _after_cycle_lp(tracer, fn, args, result, before):
    rounds = tracer.counts[LP_CALLS] - before
    c = tracer.counts
    c["optimize.solve_cycle_lp.calls"] += 1
    c["optimize.solve_cycle_lp.rounds"] += rounds
    c["optimize.solve_cycle_lp.working_cycles"] += len(result.working_cycles)
    c["cycles.scanned"] += rounds * ref.cycle_count(args[0].users)


def _after_assignment(tracer, fn, args, result, before):
    tracer.counts["optimize.min_cost_assignment.calls"] += 1


def _after_ties(tracer, fn, args, result, before):
    tracer.counts["optimize.all_optimal_partitions.ties"] += len(result)


def _after_decompose(tracer, fn, args, result, before):
    c = tracer.counts
    c["region.separate_tin_decomposable.lp_solves"] += c[LP_CALLS] - before
    c["region.separate_tin_decomposable.negatives"] += not result.feasible
    c["region.separate_tin_decomposable.caps"] += len(result.caps)


def _after_region(tracer, fn, args, result, before):
    tracer.counts["region.tin_region.constraints"] += len(result)


def _after_gf2(tracer, fn, args, result, before):
    tracer.counts["detmodel.invertible_gf2.calls"] += 1
    tracer.counts["detmodel.invertible_gf2.bits"] += result.num_bits


def _after_scheme(tracer, fn, args, result, before):
    # The program does not return its sweep size, so this is the size of an
    # exhaustive sweep, computed from the input: it cannot show pruning.
    m = [[int(v) for v in row] for row in args[0].entries]
    tracer.counts["detmodel.best_tin_scheme.cells"] += ref.scheme_cells(m)


HOOKS = {
    "cycles.enumerate_cycles": (_misses, _after_enumerate),
    "optimize.solve_lp": (None, _after_solve_lp),
    "optimize.solve_cycle_lp": (_lp_calls, _after_cycle_lp),
    "optimize.min_cost_assignment": (None, _after_assignment),
    "optimize.all_optimal_partitions": (None, _after_ties),
    "region.separate_tin_decomposable": (_lp_calls, _after_decompose),
    "region.tin_region": (None, _after_region),
    "detmodel.invertible_gf2": (None, _after_gf2),
    "detmodel.best_tin_scheme": (None, _after_scheme),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter(dict.fromkeys(COUNTS, 0))
        self.op = None
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn):
        before, after = HOOKS.get(name, (None, None))
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            state = before(self, fn, args) if before else None
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after:
                after(self, fn, args, result, state)
            return result

        return traced

    def install(self):
        """Wrap every target in every tinopt namespace that binds it."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "tinopt" or n.startswith("tinopt."))]
        for target in TARGETS:
            mod, attr = target.split(".")
            original = getattr(sys.modules["tinopt." + mod], attr)
            wrapper = self._wrap(target, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self):
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def write(self, path):
        """One JSON line per span: name, start, end (s), parent index, op."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def metrics(self):
        """Per-layer metrics: total span time per traced function, the CLI's
        self time, and the counts gathered by the hooks."""
        total = Counter()
        child = Counter()
        for name, start, end, parent, _ in self.spans:
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        main_self = sum(end - start - child[i]
                        for i, (name, start, end, _, _) in enumerate(self.spans)
                        if name == "cli.main")
        out = {name + ".time_s": (total[name], "s") for name in TARGETS}
        out["cli.main.self_s"] = (main_self, "s")
        out.update((name, (self.counts[name], "count")) for name in COUNTS)
        return out
