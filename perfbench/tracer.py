"""Spans and counters at the boundaries between fuzzybisim modules.

While installed, the tracer replaces each public name that one module calls
in another with a wrapper and restores the originals on ``uninstall``.  It
is installed in one of two modes, for separate rounds of jobs.  In timing
mode each wrapper records a span (name, start, end, parent) in memory, and a
layer's self time is the duration of its spans minus the part covered by
their child spans.  In counting mode the wrappers only count: calls, the
counts computed from results by the hooks below, and the work of methods
called too often to time one by one.  Counting thus adds nothing to the
timed rounds.
"""
from __future__ import annotations

import importlib
from collections import Counter
from time import perf_counter

from fuzzybisim import ONE

def _flg_counts(result, args, counts):
    counts["graph.vertices"] += len(result.vertices)
    counts["graph.edges"] += len(result.edges)
    counts["graph.degree_pool"] += len(result.degree_pool())


def _crisp_blocks(result, args, counts):
    counts["crisp_engine.blocks"] += len(result)


def _thresholds(result, args, counts):
    counts["fuzzy_engine.thresholds"] += len(set(args[0].degree_pool()) | {ONE})


def _cfp_shape(result, args, counts):
    internal, depth = 0, 0
    stack = [(result.root, 0)]
    while stack:
        block, level = stack.pop()
        depth = max(depth, level)
        if not block.is_crisp:
            internal += 1
            stack.extend((child, level + 1) for child in block.subblocks)
    counts["partition.cfp_nodes"] += internal
    counts["partition.cfp_depth"] = max(counts["partition.cfp_depth"], depth)


def _pairs(result, args, counts):
    counts["simulation.pairs"] += len(result.pairs if hasattr(result, "pairs") else result.entries)


# (owner, attribute, span name, count hook).  The owner is the namespace the
# caller looks the name up in, so a function imported by two modules is
# wrapped in both.  A span name is the per-layer metric it feeds, minus "_s".
SPANS = [
    ("fuzzybisim.cli", "parse_model", "modelio.parse", None),
    ("fuzzybisim.cli", "relation_to_document", "modelio.relation_doc", None),
    ("fuzzybisim.cli", "_emit", "cli.output", None),
    ("fuzzybisim.cli", "as_nflts", "graph.convert", None),
    ("fuzzybisim.cli", "crisp_partition_system", "crisp_engine.refine", None),
    ("fuzzybisim.cli", "fuzzy_partition_system", "fuzzy_engine.state_cfp", _cfp_shape),
    ("fuzzybisim.cli", "crisp_simulation_nflts", "simulation.crisp_sim", _pairs),
    ("fuzzybisim.cli", "fuzzy_simulation_nflts", "simulation.fuzzy_sim", _pairs),
    ("fuzzybisim.cli", "bisimulation_between_nflts", "simulation.between", None),
    ("fuzzybisim.simulation", "as_nflts", "graph.convert", None),
    ("fuzzybisim.simulation", "disjoint_union", "graph.convert", None),
    ("fuzzybisim.simulation", "to_flg", "graph.to_flg", _flg_counts),
    ("fuzzybisim.simulation", "crisp_partition_system", "crisp_engine.refine", None),
    ("fuzzybisim.simulation", "fuzzy_partition_system", "fuzzy_engine.state_cfp", _cfp_shape),
    ("fuzzybisim.crisp_engine", "to_flg", "graph.to_flg", _flg_counts),
    ("fuzzybisim.crisp_engine", "adjacency", "refinement.adjacency", None),
    ("fuzzybisim.crisp_engine", "greatest_crisp_bisim_partition_flg", "crisp_engine.refine", _crisp_blocks),
    ("fuzzybisim.crisp_engine", "restrict_to_states", "crisp_engine.restrict", None),
    ("fuzzybisim.fuzzy_engine", "to_flg", "graph.to_flg", _flg_counts),
    ("fuzzybisim.fuzzy_engine", "adjacency", "refinement.adjacency", None),
    ("fuzzybisim.fuzzy_engine", "greatest_fuzzy_bisim_cfp_flg", "fuzzy_engine.refine", _thresholds),
    ("fuzzybisim.partition:CompactFuzzyPartition", "__init__", "partition.cfp_build", None),
    ("fuzzybisim.partition:CompactFuzzyPartition", "degree_of", "partition.degree_of", None),
    ("fuzzybisim.partition:CompactFuzzyPartition", "to_json", "partition.text", None),
    ("fuzzybisim.partition:CompactFuzzyPartition", "text", "partition.text", None),
    ("fuzzybisim.partition:CrispPartition", "text", "partition.text", None),
    ("fuzzybisim.relations:CrispRelation", "__init__", "relations.build", None),
    ("fuzzybisim.relations:FuzzyRelation", "__init__", "relations.build", None),
]

# Names called too often for a span each: (owner, attribute, counting wrapper).
COUNTERS = [
    ("fuzzybisim.refinement:RefinableMap", "split_block", "_count_split"),
    ("fuzzybisim.refinement:RefinableMap", "snapshot", "_count_snapshot"),
]

# Metrics fed by each counter, so a missing name shows as a missing metric.
COUNTER_METRICS = {
    "split_block": ["refinement.split_calls", "refinement.splits",
                    "refinement.split_useful_ratio", "refinement.keyed_vertices"],
    "snapshot": ["refinement.snapshots", "refinement.snapshot_entries"],
}

# Count metrics that are the number of calls of one span name.
SPAN_COUNTS = {
    "partition.cfp_build": "partition.cfp_builds",
    "partition.degree_of": "partition.degree_queries",
}

HOOK_METRICS = {
    _flg_counts: ["graph.vertices", "graph.edges", "graph.degree_pool"],
    _crisp_blocks: ["crisp_engine.blocks"],
    _thresholds: ["fuzzy_engine.thresholds"],
    _cfp_shape: ["partition.cfp_nodes", "partition.cfp_depth"],
    _pairs: ["simulation.pairs"],
}


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    target = importlib.import_module(module)
    return getattr(target, cls) if cls else target


class Tracer:
    def __init__(self):
        self.names: list = []
        self.spans: list = []  # (name index, start, end, parent span index or -1)
        self.counts: Counter = Counter()
        self.missing: set = set()  # "owner.attribute" of names that no longer exist
        self.missing_metrics: set = set()  # metrics those names, or failed hooks, feed
        self._stack = [-1]
        self._saved: list = []
        self._index: dict = {}

    def _name(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def timed(self, name: str, fn):
        """``fn`` wrapped so that each call records a span called ``name``."""
        nid = self._name(name)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (nid, start, end, parent)

        return wrapper

    def counted(self, name: str, fn, hook=None):
        """``fn`` wrapped so that each call bumps the counts it feeds.

        A hook that no longer fits the program marks its metrics missing
        instead of failing the job.
        """
        counts, call_metric = self.counts, SPAN_COUNTS.get(name)

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if call_metric is not None:
                counts[call_metric] += 1
            if hook is not None:
                try:
                    hook(result, args, counts)
                except (AttributeError, LookupError, TypeError):
                    self.missing_metrics.update(HOOK_METRICS[hook])
            return result

        return wrapper

    def _count_split(self, fn):
        counts = self.counts

        def split_block(self_, bid, *args, **kwargs):
            try:
                size = len(self_.blocks[bid])
            except (AttributeError, LookupError, TypeError):
                size = 0
                self.missing_metrics.add("refinement.keyed_vertices")
            split = fn(self_, bid, *args, **kwargs)
            counts["refinement.split_calls"] += 1
            counts["refinement.splits"] += bool(split)
            if size > 1:  # a block of one is never keyed
                counts["refinement.keyed_vertices"] += size
            return split

        return split_block

    def _count_snapshot(self, fn):
        counts = self.counts

        def snapshot(self_):
            result = fn(self_)
            counts["refinement.snapshots"] += 1
            counts["refinement.snapshot_entries"] += len(result)
            return result

        return snapshot

    def install(self, timing: bool):
        for owner, attr, name, hook in SPANS:
            metrics = [name + "_s", *HOOK_METRICS.get(hook, [])]
            if name in SPAN_COUNTS:
                metrics.append(SPAN_COUNTS[name])
            if timing:
                wrap = lambda fn: self.timed(name, fn)  # noqa: E731
            else:
                wrap = lambda fn: self.counted(name, fn, hook)  # noqa: E731
            self._replace(owner, attr, wrap, metrics)
        if not timing:
            for owner, attr, factory in COUNTERS:
                self._replace(owner, attr, getattr(self, factory), COUNTER_METRICS[attr])

    def _replace(self, owner: str, attr: str, wrap, metrics):
        try:
            target = _resolve(owner)
            original = vars(target)[attr]
        except (ImportError, AttributeError, KeyError):
            self.missing.add(f"{owner}.{attr}")
            self.missing_metrics.update(metrics)
            return
        self._saved.append((target, attr, original))
        setattr(target, attr, wrap(original))

    def uninstall(self):
        while self._saved:
            target, attr, original = self._saved.pop()
            setattr(target, attr, original)

    def root(self, name: str, fn, *args):
        """Call ``fn`` as the root span of one job."""
        return self.timed(name, fn)(*args)

    def take(self):
        """Self time per span name, the counters and the spans since the last take."""
        spans, counts = self.spans[:], dict(self.counts)
        self.spans.clear()
        self.counts.clear()
        covered = [0.0] * len(spans)
        for nid, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        self_time: dict = {}
        for i, (nid, start, end, parent) in enumerate(spans):
            name = self.names[nid]
            self_time[name] = self_time.get(name, 0.0) + (end - start) - covered[i]
        return self_time, counts, spans
