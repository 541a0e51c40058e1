"""Greatest crisp/fuzzy simulations between two graphs or systems, by one
counter-based kernel (Henzinger, Henzinger & Kopke, FOCS 1995; README "How it
works", step 4), and between-system bisimulations via disjoint union."""
from __future__ import annotations

import sys
from array import array
from collections import Counter, defaultdict
from itertools import compress, count

from .degrees import format_degree, joint_ranks
from .graph import Flg, to_flg, as_nflts, disjoint_union, require_same_signature, require_shared_alphabets
from .model import Nfts
from .partition import CfpRelation
from .relations import CrispRelation, FuzzyRelation
from .crisp_engine import crisp_partition_system
from .fuzzy_engine import fuzzy_partition_system


class _Kernel:
    """The greatest simulation inside a seed of pair ids x * width + x'.

    (x, x') lives while each g-edge (x, r, y, rank) is matched by a g'-edge
    (x', r, y', rank') with (y, y') alive: rank' >= rank in one run (``levels``
    1); at level k of a sweep, rank' >= k for the edges of rank >= k.  A
    constraint (y, r, need) counts its matches per x' with an r-edge; at 0 its
    sources bound at the level die.  ``dies[pair]``: the level the pair dies
    at, 0 if unseeded, ``levels`` while alive."""

    def __init__(self, edges, edges_prime, rows: list, width: int, levels: int = 1):
        self.width, self.levels, height = width, levels, len(rows)
        constraints, needs = defaultdict(list), [set() for _ in rows]
        for x, r, y, rank in edges:
            constraints[y, r, rank if levels == 1 else 0].append((rank, x))
            needs[x].add(r)
        # r -> x' -> its counter slot and r-edges; y' -> r -> its r-in-edges by falling rank; rank -> g'-edges.
        self.posts, self.dropped = defaultdict(dict), defaultdict(list)
        self.into = [defaultdict(list) for _ in range(width)]
        for x_prime, r, y_prime, rank in sorted(edges_prime, key=lambda edge: edge[3], reverse=True):
            slot, out = self.posts[r].setdefault(x_prime, (len(self.posts[r]), []))
            out.append((rank, y_prime))
            self.into[y_prime][r].append((rank, x_prime, slot))
            self.dropped[rank].append((x_prime, r, y_prime, slot))
        # y -> its constraints (r, need, first counter, sources); r -> (y * width, first counter, sources).
        self.constraints, self.by_symbol, base = [[] for _ in range(height)], defaultdict(list), 0
        for (y, r, need), sources in constraints.items():
            sources.sort(reverse=True)
            self.constraints[y].append((r, need, base, sources))
            self.by_symbol[r].append((y * width, base, sources))
            base += len(self.posts[r])
        # Row x is seeded with the x' of rows[x] that have an edge for each symbol x has one for.
        self.counts, seeds = array("i", [0]) * base, {}
        self.dies = array("B" if levels < 256 else "I", [0]) * (height * width)
        for x, candidates in enumerate(rows):
            key = candidates, frozenset(needs[x])
            if key not in seeds:
                seeds[key] = array(self.dies.typecode, [levels if c and all(x_prime in self.posts[r] for r in key[1])
                                                        else 0 for x_prime, c in enumerate(candidates)])
            self.dies[x * width:(x + 1) * width] = seeds[key]

    def advance(self, level: int) -> array:
        """Prune to the cut at ``level`` (0, 1, ... in turn) and return ``dies``: set
        the counters or take out the g'-edges of rank level-1, then propagate."""
        dies, width, live, counts, matches = self.dies, self.width, self.levels, self.counts, {}
        for y, constraints in enumerate(self.constraints if not level else ()):
            row_of_y = dies[y * width:(y + 1) * width].__getitem__
            for r, need, base, sources in constraints:
                if (r, need) not in matches:
                    matches[r, need] = [[y_prime for rank, y_prime in out if rank >= need]
                                        for _, out in self.posts[r].values()]
                counts[base:base + len(matches[r, need])] = array("i", [sum(map(row_of_y, ys)) // live
                                                                        for ys in matches[r, need]])
        zeros = [] if level else (  # read lazily: no counter moves before the first propagation
            (sources, x_prime) for constraints in self.constraints for r, _, base, sources in constraints
            for x_prime, (slot, _) in self.posts[r].items() if not counts[base + slot])
        for x_prime, r, y_prime, slot in self.dropped[level - 1]:
            for row, base, sources in self.by_symbol[r]:
                if dies[row + y_prime] == live:
                    counts[base + slot] -= 1
                    if not counts[base + slot]:
                        zeros.append((sources, x_prime))
        dead = array("q")  # no int object per pair
        while zeros or dead:
            for sources, x_prime in zeros:  # a counter at 0: its sources still bound at the level die
                for rank, x in sources:
                    if rank < level:
                        break
                    pair = x * width + x_prime
                    if dies[pair] == live:
                        dies[pair] = level
                        dead.append(pair)
            zeros = []
            while dead:
                y, y_prime = divmod(dead.pop(), width)
                for r, need, base, sources in self.constraints[y]:
                    for rank, x_prime, slot in self.into[y_prime].get(r, ()):
                        if rank < (need or level):  # one of them is 0
                            break
                        counts[base + slot] -= 1
                        if not counts[base + slot]:
                            zeros.append((sources, x_prime))
        return dies


def _simulate(edges, edges_prime, alive: set, width: int) -> set:
    """The kernel's single run inside ``alive``, on edges (x, r, y, need) and (x', r, y', rank)."""
    height = 1 + max([pair // width for pair in alive] + [max(x, y) for x, _, y, _ in edges], default=-1)
    rows = [bytes(x * width + x_prime in alive for x_prime in range(width)) for x in range(height)]
    return set(compress(count(), _Kernel(edges, edges_prime, rows, width).advance(0)))


def _simulation(g: Flg, g_prime: Flg, graded: bool, states: bool = False, verbose: bool = False):
    """The pairs of the greatest crisp simulation, or (``graded``) the positive
    entries of the fuzzy one, in pair order: over all vertices, or with
    ``states`` over S x S', the ids below ``len(names)``, by name.  The kernel reads
    the stored arrays, each side's ranks mapped onto the joint pool; a pair that
    dies at level k has degree ``pool[k - 1]``, one that never dies 1."""
    require_same_signature(g, g_prime)
    pool, new, new_prime = joint_ranks(g.pool, g_prime.pool)  # both hold 1
    # A label p of degree d is an edge (x, (p,), sink, d) into the sink pair, seeded alone in its row
    # and column, which never dies: the edge's clause is the label's (a cap below k kills at level k).
    edges, edges_prime = ([(x, r, y, ranks[rk]) for x, es in enumerate(h.out) for r, y, rk in es]
                          + [(x, (p,), len(h.out), ranks[rk]) for x, k in enumerate(h.label_ids)
                             for p, rk in h.label_maps[k].items()]
                          for h, ranks in ((g, new), (g_prime, new_prime)))
    size, size_prime = len(g.out), len(g_prime.out)
    width, levels = size_prime + 1, len(pool) if graded else 1
    rows = [b"\1" * size_prime + b"\0"] * size + [bytes(size_prime) + b"\1"]
    kernel = _Kernel(edges, edges_prime, rows, width, levels)
    before = size * size_prime
    if verbose and not graded:  # the crisp run starts from the pairs of label dominance
        maps, maps_prime, kinds = g.label_maps, g_prime.label_maps, Counter(g_prime.label_ids).items()
        before = sum(m * m_prime for k, m in Counter(g.label_ids).items() for k_prime, m_prime in kinds
                     if all(p in maps_prime[k_prime] and new[rk] <= new_prime[maps_prime[k_prime][p]]
                            for p, rk in maps[k].items()))
    for level in range(levels):
        dies = kernel.advance(level)
        if verbose:
            alive = dies.count(levels) - 1  # not the sink pair
            print(f"[{'fuzzy' if graded else 'crisp'}-sim] threshold {format_degree(pool[level] if graded else 1)}: "
                  f"{alive} pairs alive, {before - alive} removed", file=sys.stderr)
            before = alive
    names, names_prime = (g.names, g_prime.names) if states else (g.by_id, g_prime.by_id)
    n, n_prime = len(names), len(names_prime)
    found = [((names[x], names_prime[x_prime]), row[x_prime]) for x in range(n)
             for row in [dies[x * width:x * width + n_prime]] for x_prime in compress(range(n_prime), row)]
    return [(pair, pool[k - 1]) for pair, k in found] if graded else [pair for pair, _ in found]


def _on_systems(a: Nfts, b: Nfts, graded: bool, verbose: bool):
    a, b = as_nflts(a), as_nflts(b)
    require_shared_alphabets(a, b)
    found = _simulation(to_flg(a), to_flg(b), graded, states=True, verbose=verbose)
    return (FuzzyRelation if graded else CrispRelation)(a.states, b.states, found)


def greatest_crisp_simulation_flg(g: Flg, g_prime: Flg) -> CrispRelation:
    """Greatest Z with label dominance and forward edge matching; may be empty."""
    return CrispRelation(g.vertices, g_prime.vertices, _simulation(g, g_prime, graded=False))


def greatest_fuzzy_simulation_flg(g: Flg, g_prime: Flg) -> FuzzyRelation:
    """Greatest fuzzy Z under the label residuum bound and the edge clause."""
    return FuzzyRelation(g.vertices, g_prime.vertices, _simulation(g, g_prime, graded=True))


def crisp_simulation_nflts(a: Nfts, b: Nfts, verbose: bool = False) -> CrispRelation:
    """Greatest crisp simulation between two systems, over S x S'."""
    return _on_systems(a, b, False, verbose)


def fuzzy_simulation_nflts(a: Nfts, b: Nfts, verbose: bool = False) -> FuzzyRelation:
    """Greatest fuzzy simulation between two systems, over S x S'."""
    return _on_systems(a, b, True, verbose)


def bisimulation_between_nflts(a: Nfts, b: Nfts, mode: str = "crisp", verbose: bool = False):
    """Greatest crisp/fuzzy bisimulation between two systems.

    Reduced to the auto-bisimulation of the disjoint union; the cross pairs
    are read off through the injections.
    """
    a, b = as_nflts(a), as_nflts(b)
    union, inject_a, inject_b = disjoint_union(a, b)
    if mode == "crisp":
        # A block of the union pairs each of its states (0, s) of a with each (1, t) of b.
        sides = ([[s for tag, s in block if tag == side] for side in (0, 1)]
                 for block in crisp_partition_system(union, verbose).blocks)
        return CrispRelation(a.states, b.states, [(s, t) for left, right in sides for s in left for t in right])
    if mode == "fuzzy":
        return CfpRelation(fuzzy_partition_system(union, verbose), inject_a, inject_b)
    raise ValueError(f"unknown mode {mode!r}")
