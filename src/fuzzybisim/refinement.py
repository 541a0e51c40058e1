"""Worklist-driven partition refinement over fuzzy labeled graphs.

``adjacency`` gives all three engines (crisp, fuzzy, simulation) the same
integer view of a graph: dense vertex ids, and degrees as ranks in a sorted
pool.  The Goedel operators only compare degrees, so ranks are exact.

Both bisimulation engines split blocks by per-vertex keys computed against
the current partition.  When a block splits, its largest group keeps the
old block id and every other group gets a new one.  Keys refer to blocks by
id, so only the predecessors of the re-numbered groups can see a changed
key, and only their blocks are re-queued (Valmari, "Bisimilarity
minimization in O(m log n) time", 2009).  Each split is recorded as a
(new block, parent block) event, from which the fuzzy engine builds its
tree.
"""
from __future__ import annotations

from typing import Callable, Dict, Hashable, Iterable, List, Set, Tuple

from .graph import Flg


class RefinableMap:
    """A mutable element -> block-id map with block extents and a dirty queue.

    The fresh map's single block is queued, so ``refine`` on it keys every
    element.
    """

    def __init__(self, elements: Iterable[Hashable], preds):
        self.assignment: Dict[Hashable, int] = {v: 0 for v in elements}
        self.blocks: Dict[int, Set] = {0: set(self.assignment)}
        self.preds = preds
        self.dirty: Set[int] = {0}
        self.events: List[Tuple[int, int]] = []
        self._next = 1

    def block_count(self) -> int:
        return len(self.blocks)

    def split_block(self, bid: int, key_of: Callable[[Hashable], object]) -> bool:
        """Split one block by a key function; returns True when it split."""
        members = self.blocks[bid]
        if len(members) == 1:
            return False
        groups: Dict[object, list] = {}
        for v in members:
            groups.setdefault(key_of(v), []).append(v)
        if len(groups) == 1:
            return False
        kept = max(groups.values(), key=len)
        moved = [group for group in groups.values() if group is not kept]
        assignment = self.assignment
        for group in moved:
            new_bid = self._next
            self._next += 1
            self.blocks[new_bid] = set(group)
            members.difference_update(group)
            for v in group:
                assignment[v] = new_bid
            self.events.append((new_bid, bid))
        dirty, preds = self.dirty, self.preds
        for group in moved:
            for v in group:
                for p in preds[v]:
                    dirty.add(assignment[p])
        return True

    def refine(self, key_of: Callable[[Hashable], object], trace=None):
        """Split queued blocks until the queue is empty.

        Every block outside the queue must already be uniform under
        ``key_of``; the result is then the coarsest refinement of the
        current partition on which ``key_of`` is uniform.
        """
        while self.dirty:
            bid = self.dirty.pop()
            if self.split_block(bid, key_of) and trace is not None:
                trace(f"block {bid} split; {self.block_count()} blocks now")

    def snapshot(self) -> Dict[Hashable, int]:
        return dict(self.assignment)


def adjacency(g: Flg, pool: list):
    """Dense-id adjacency on degree ranks for refinement runs.

    ``pool`` is a sorted list holding every degree of ``g``; a degree is
    replaced by its index there.  Returns the sorted vertices, the out-edges
    of vertex id i as ``(symbol, target id, rank)``, the predecessor ids of
    vertex id i, and the label of vertex id i as a symbol -> rank map.
    """
    # Keyed by (numerator, denominator): hashing a Fraction costs several
    # times as much, and this runs once per edge and label entry.
    rank = {(d.numerator, d.denominator): i for i, d in enumerate(pool)}
    vertices = sorted(g.vertices)
    index = {v: i for i, v in enumerate(vertices)}
    out: List[list] = [[] for _ in vertices]
    preds: List[list] = [[] for _ in vertices]
    for (x, r, y), degree in g.edges.items():
        i, j = index[x], index[y]
        out[i].append((r, j, rank[degree.numerator, degree.denominator]))
        preds[j].append(i)
    labels = [{p: rank[d.numerator, d.denominator] for p, d in g.labels[v].items()} for v in vertices]
    return vertices, out, preds, labels
