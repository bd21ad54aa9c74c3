"""Span tracing of nucnz from outside the library.

The tracer wraps public functions at each module boundary, on the name
where the caller looks it up.  Several modules import by name (``mps``
imports ``solve_lp_exact``; ``cycles`` imports ``min_cost_t_join``), so
patching only the defining module would record nothing.  A wrapper whose
target is missing raises at install time, so a rename fails loudly.

Each span records a name, its parent span, and start and end times in
nanoseconds.  Spans stay in memory until the run writes them out.  The
first dotted part of a span name is its layer.  A layer's busy time is the
time covered by its outermost spans.  Its self time is what its spans
cover minus the part their direct child spans cover.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

ALL = frozenset({"ladder17-enum", "bmatch8-oracle", "arbor12-oracle", "ref6-dense"})
LADDER = frozenset({"ladder17-enum"})
BMATCH = frozenset({"bmatch8-oracle"})
ARBOR = frozenset({"arbor12-oracle"})
REF = frozenset({"ref6-dense"})
MPS = ALL - REF

LAYERS = ("games", "mps", "lp", "linalg", "sep", "bmatch", "matching", "cycles", "matroids")


def _raise_max(counters, key, value):
    counters[key] = max(counters.get(key, 0), value)


def _lp_hook(counters, args, result):
    lp = args[0]
    _raise_max(counters, "lp.rows_max", len(lp.rows))
    _raise_max(counters, "lp.cols_max", lp.n_vars)
    bits = 0
    for v in (result.x or ()) + (result.duals or ()):
        bits = max(bits, v.numerator.bit_length(), v.denominator.bit_length())
    _raise_max(counters, "lp.result_bits_max", bits)


def _kernel_hook(counters, args, result):
    counters["linalg.kernel_vectors"] = counters.get("linalg.kernel_vectors", 0) + len(result)


def _pad_hook(counters, args, result):
    _raise_max(counters, "matching.pad_edges_max", result.graph.m)


# (owner, attribute, span name, outermost only, result hook, workloads on
# which it must fire).  An owner is a module, "module:Class", or "game"
# for the solved game's class.  "Outermost only" skips calls made inside
# a span of the same name, as PackingGame.value's recursion and
# truncate-over-union matroid stacking make.
PATCHES = (
    ("game", "table", "games.table", True, None, LADDER | REF),
    ("game", "value", "games.value", True, None, MPS),
    ("nucnz.mps", "solve_lp_exact", "lp.solve", False, _lp_hook, ALL),
    ("nucnz.mps", "dot_table", "sep.scan", False, None, LADDER | REF),
    ("nucnz.mps", "integer_kernel_basis", "linalg.kernel", False, _kernel_hook, LADDER | REF),
    ("nucnz.bmatch", "integer_kernel_basis", "linalg.kernel", False, _kernel_hook, BMATCH),
    ("nucnz.matroids", "integer_kernel_basis", "linalg.kernel", False, _kernel_hook, ARBOR),
    ("nucnz.linalg:LinearSubspace", "contains", "linalg.contains", False, None, MPS),
    ("nucnz.linalg:LinearSubspace", "extended", "linalg.extend", False, None, ALL),
    ("nucnz.bmatch", "bmatch_nz_min_excess", "bmatch.nz_query", False, None, BMATCH),
    ("nucnz.bmatch", "reduce_bmatch_to_nzmatching", "bmatch.reduce", False, None, BMATCH),
    ("nucnz.bmatch", "reduce_nzmatching_to_nzcycle", "bmatch.reduce", False, None, BMATCH),
    ("nucnz.bmatch", "pad_to_perfect", "matching.pad", False, _pad_hook, BMATCH),
    ("nucnz.bmatch", "max_weight_matching", "matching.blossom", False, None, BMATCH),
    ("nucnz.matching", "max_weight_matching", "matching.blossom", False, None, BMATCH),
    ("nucnz.bmatch", "shortest_nz_cycle_few_nonzero", "cycles.search", False, None, BMATCH),
    ("nucnz.cycles", "t_join_exists", "cycles.guess", False, None, BMATCH),
    ("nucnz.cycles", "min_cost_t_join", "matching.tjoin", False, None, BMATCH),
    ("nucnz.matroids", "arboricity_nz_min_excess", "matroids.nz_query", False, None, ARBOR),
    ("nucnz.matroids", "nz_max_weight_basis", "matroids.nz_basis", False, None, ARBOR),
    ("nucnz.matroids:MatroidOracle", "is_independent", "matroids.indep", True, None, ARBOR),
)

# The enumerate-mode separation closure is built inside mps_nucleolus, so
# it is reached through its factory; its construction is a "sep.prepare"
# span and every call of the closure a "sep.call" span.  Oracle-mode
# solvers are handed to mps_nucleolus by the workload, which wraps them
# with Tracer.wrap_sep.
SEP_FACTORY = ("nucnz.mps", "_enumerate_sep", LADDER)
SEP_ORACLE = ("sep oracle", MPS)

# Per-layer metrics of one traced solve, with units.  games.table_s is
# measured on the traced set-up and trace.overhead_frac across solves.
METRICS = {
    "games.table_s": "s",
    "games.value_calls": "count",
    "games.value_s": "s",
    "games.self_s": "s",
    "mps.levels": "count",
    "mps.lp_solves": "count",
    "mps.sep_calls": "count",
    "mps.cut_yield": "ratio",
    "mps.self_s": "s",
    "lp.calls": "count",
    "lp.busy_s": "s",
    "lp.rows_max": "count",
    "lp.cols_max": "count",
    "lp.result_bits_max": "bits",
    "linalg.kernel_calls": "count",
    "linalg.kernel_vectors": "count",
    "linalg.span_tests": "count",
    "linalg.busy_s": "s",
    "linalg.self_s": "s",
    "sep.busy_s": "s",
    "sep.self_s": "s",
    "sep.scan_passes": "count",
    "sep.nz_queries": "count",
    "sep.nz_per_sep": "ratio",
    "bmatch.reduce_s": "s",
    "bmatch.self_s": "s",
    "matching.pad_edges_max": "count",
    "matching.blossom_calls": "count",
    "matching.blossom_s": "s",
    "matching.tjoin_calls": "count",
    "matching.tjoin_s": "s",
    "matching.self_s": "s",
    "cycles.guesses": "count",
    "cycles.busy_s": "s",
    "cycles.self_s": "s",
    "matroids.indep_calls": "count",
    "matroids.indep_s": "s",
    "matroids.nz_basis_calls": "count",
    "matroids.busy_s": "s",
    "matroids.self_s": "s",
    "trace.overhead_frac": "ratio",
}

# Counts that must repeat exactly between two traced runs of one seed.
REPEATED_COUNTS = (
    "mps.levels",
    "mps.lp_solves",
    "mps.sep_calls",
    "lp.calls",
    "linalg.kernel_vectors",
    "sep.scan_passes",
    "sep.nz_queries",
    "matching.pad_edges_max",
    "matching.tjoin_calls",
    "matroids.indep_calls",
)


def _owner(owner: str, game_class: type):
    if owner == "game":
        return game_class
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Records spans while installed: ``with tracer:`` patches every target
    in PATCHES and SEP_FACTORY, and restores them on exit."""

    def __init__(self, game_class: type):
        self.game_class = game_class
        self.spans: list[list] = []  # [name, parent index or -1, start_ns, end_ns]
        self.counters: dict[str, int] = {}
        self.calls: dict[str, int] = {}  # patch target -> recorded calls
        self._stack: list[int] = []
        self._depth: dict[str, int] = {}
        self._undo: list[tuple] = []

    def _open(self, name: str) -> list:
        span = [name, self._stack[-1] if self._stack else -1, perf_counter_ns(), 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        self._stack.pop()
        span[3] = perf_counter_ns()

    def wrap(self, fn, name: str, target: str, outermost: bool = False, hook=None):
        calls, depth, counters = self.calls, self._depth, self.counters
        calls.setdefault(target, 0)
        depth.setdefault(name, 0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if outermost and depth[name]:
                return fn(*args, **kwargs)
            calls[target] += 1
            depth[name] += 1
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
                depth[name] -= 1
            if hook is not None:
                hook(counters, args, result)
            return result

        return traced

    def wrap_sep(self, sep):
        """Wrapper for an oracle-mode separation solver."""
        return self.wrap(sep, "sep.call", SEP_ORACLE[0])

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def _patch(self, owner, attr: str, new) -> None:
        had = attr in vars(owner)
        if not (had or isinstance(owner, type)):
            raise AttributeError(f"module {owner.__name__} has no name {attr!r}")
        old = getattr(owner, attr)
        setattr(owner, attr, new)
        self._undo.append((owner, attr, old, had))

    def __enter__(self):
        try:
            for owner, attr, name, outermost, hook, _ in PATCHES:
                obj = _owner(owner, self.game_class)
                wrapped = self.wrap(getattr(obj, attr), name, f"{owner}.{attr}", outermost, hook)
                self._patch(obj, attr, wrapped)
            module, attr, _ = SEP_FACTORY
            obj = importlib.import_module(module)
            prepare = self.wrap(getattr(obj, attr), "sep.prepare", f"{module}.{attr}")
            self._patch(obj, attr, lambda *a, **k: self.wrap_sep(prepare(*a, **k)))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self) -> None:
        while self._undo:
            owner, attr, old, had = self._undo.pop()
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)

    def totals(self):
        """Per span name: count and summed duration; per layer: busy and
        self time (ns)."""
        bit = {layer: 1 << i for i, layer in enumerate(LAYERS)}
        layer = [s[0].partition(".")[0] for s in self.spans]
        dur = [s[3] - s[2] for s in self.spans]
        child = [0] * len(self.spans)
        above = [0] * len(self.spans)  # bit set of the layers of all ancestors
        count, total, busy, own = Counter(), Counter(), Counter(), Counter()
        for i, (name, parent, _, _) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += dur[i]
                above[i] = above[parent] | bit[layer[parent]]
            count[name] += 1
            total[name] += dur[i]
            if not above[i] & bit[layer[i]]:
                busy[layer[i]] += dur[i]
        for i in range(len(self.spans)):
            own[layer[i]] += dur[i] - child[i]
        return count, total, busy, own

    def solve_metrics(self, levels: int) -> dict[str, float]:
        """Per-layer metrics of the one solve this tracer recorded, with
        busy and self time for every layer (METRICS names a subset)."""
        count, total, busy, own = self.totals()
        c = self.counters
        s = 1e-9
        sep = count["sep.call"]
        nz = count["bmatch.nz_query"] + count["matroids.nz_query"]
        m = {
            "games.value_calls": count["games.value"],
            "games.value_s": total["games.value"] * s,
            "mps.levels": levels,
            "mps.lp_solves": count["lp.solve"],
            "mps.sep_calls": sep,
            "mps.cut_yield": (sep - levels) / sep if sep else 0.0,
            "lp.calls": count["lp.solve"],
            "lp.rows_max": c.get("lp.rows_max", 0),
            "lp.cols_max": c.get("lp.cols_max", 0),
            "lp.result_bits_max": c.get("lp.result_bits_max", 0),
            "linalg.kernel_calls": count["linalg.kernel"],
            "linalg.kernel_vectors": c.get("linalg.kernel_vectors", 0),
            "linalg.span_tests": count["linalg.contains"],
            "sep.scan_passes": count["sep.scan"],
            "sep.nz_queries": nz,
            "sep.nz_per_sep": nz / sep if sep else 0.0,
            "bmatch.reduce_s": total["bmatch.reduce"] * s,
            "matching.pad_edges_max": c.get("matching.pad_edges_max", 0),
            "matching.blossom_calls": count["matching.blossom"],
            "matching.blossom_s": total["matching.blossom"] * s,
            "matching.tjoin_calls": count["matching.tjoin"],
            "matching.tjoin_s": total["matching.tjoin"] * s,
            "cycles.guesses": count["cycles.guess"],
            "matroids.indep_calls": count["matroids.indep"],
            "matroids.indep_s": total["matroids.indep"] * s,
            "matroids.nz_basis_calls": count["matroids.nz_basis"],
        }
        for layer in LAYERS:
            m[f"{layer}.busy_s"] = busy[layer] * s
            m[f"{layer}.self_s"] = own[layer] * s
        return m
