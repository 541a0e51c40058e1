"""Greatest crisp/fuzzy simulations between two graphs or systems, and
between-system bisimulations via disjoint union.

Both simulations run one counter-based kernel (Henzinger, Henzinger & Kopke,
FOCS 1995) on dense vertex ids and degree ranks: the crisp one once, the fuzzy
one once per threshold of the degree pool.  Step 4 of the README's "How it
works" gives the sweep and why it is exact.
"""
from __future__ import annotations

import sys
from collections import defaultdict

from .degrees import format_degree
from .graph import Flg, to_flg, as_nflts, disjoint_union, on_states, ModelError
from .model import Nfts, Nflts
from .partition import CfpRelation
from .refinement import adjacency
from .relations import CrispRelation, FuzzyRelation
from .crisp_engine import crisp_partition_system
from .fuzzy_engine import fuzzy_partition_system


def _require_alphabets(a: Nflts, b: Nflts):
    if a.actions != b.actions:
        raise ModelError("systems must share the action alphabet")
    if a.label_alphabet != b.label_alphabet:
        raise ModelError("systems must share the label alphabet")


def _simulate(edges, edges_prime, alive: set, width: int) -> set:
    """Prune ``alive`` (pair ids x * width + x') to the greatest simulation in
    it: each g-edge (x, r, y, need) must be matched by a g'-edge (x', r, y',
    rank >= need) with (y, y') alive.  count[c * width + x'] counts the matches
    of constraint c = (y, r, need) at x'; one at 0 kills (x, x') for its x."""
    grouped, needs, into = defaultdict(list), defaultdict(lambda: defaultdict(list)), defaultdict(list)
    for x, r, y, need in edges:
        grouped[y, r, need].append(x)
    sources = list(grouped.values())  # constraint c -> the x of its g-edges
    for c, (y, r, need) in enumerate(grouped):
        needs[y][r].append((need, c))
    for x_prime, r, y_prime, rank in edges_prime:
        into[y_prime].append((x_prime, r, rank))

    def feed(pairs, step: int) -> list:
        """Add ``step`` to every counter the pairs feed; the counters now at 0."""
        partners, zeros = defaultdict(list), []
        for pair in pairs:
            partners[pair // width].append(pair % width)
        for y, ys_prime in partners.items():
            targets = needs.get(y)
            for y_prime in ys_prime if targets else ():
                for x_prime, r, rank in into.get(y_prime, ()):
                    for need, c in targets.get(r, ()):
                        if need <= rank:
                            key = c * width + x_prime
                            count[key] += step
                            if not count[key]:
                                zeros.append(key)
        return zeros

    def kill(pairs):
        doomed = alive.intersection(pairs)
        alive.difference_update(doomed)
        dead.extend(doomed)

    count, dead = [0] * (len(sources) * width), []
    feed(alive, 1)
    for c, xs in enumerate(sources):
        unmatched = [x_prime for x_prime, n in enumerate(count[c * width:(c + 1) * width]) if not n]
        kill([x * width + x_prime for x in xs for x_prime in unmatched])
    while dead:
        batch, dead = dead, []
        for c, x_prime in (divmod(key, width) for key in feed(batch, -1)):
            kill([x * width + x_prime for x in sources[c]])
    return alive


def _ranked(g: Flg, g_prime: Flg):
    """The joint degree pool (with 1), both sorted vertex lists, both edge lists
    as (x, r, y, rank) and the label cap rank of each pair id (-1 for 0)."""
    if not g.same_signature(g_prime):
        raise ModelError("graphs must share vertex and edge alphabets")
    pool = sorted(set(g.pool) | set(g_prime.pool))  # both hold 1
    sides = []
    for h in (g, g_prime):
        vertices, out, _, labels = adjacency(h, pool)
        sides.append((vertices, [(x, r, y, rk) for x, es in enumerate(out) for r, y, rk in es], labels))
    (left, edges, labels), (right, edges_prime, labels_prime) = sides
    top = len(pool) - 1
    caps, rows = [], {}  # rows: the caps of one distinct label against every x'
    for label in labels:
        key = frozenset(label.items())
        if key not in rows:
            # inf_p residuum(L(x)(p), L'(x')(p)) on ranks: top where L(x)(p) <= L'(x')(p).
            rows[key] = [min((top if rk <= other.get(p, -1) else other.get(p, -1) for p, rk in label.items()),
                             default=top) for other in labels_prime]
        caps += rows[key]
    return pool, left, right, edges, edges_prime, caps


def _crisp_pairs(g: Flg, g_prime: Flg, verbose: bool = False):
    """Vertex pairs of the greatest crisp simulation."""
    pool, left, right, edges, edges_prime, caps = _ranked(g, g_prime)
    width = len(right)
    start = [pair for pair, cap in enumerate(caps) if cap == len(pool) - 1]
    alive = _simulate(edges, edges_prime, set(start), width)
    if verbose:
        print(f"[crisp-sim] threshold 1: {len(alive)} pairs alive, "
              f"{len(start) - len(alive)} removed", file=sys.stderr)
    return ((left[pair // width], right[pair % width]) for pair in alive)


def _fuzzy_entries(g: Flg, g_prime: Flg, verbose: bool = False):
    """Positive entries (x, x') -> degree of the greatest fuzzy simulation, sorted."""
    pool, left, right, edges, edges_prime, caps = _ranked(g, g_prime)
    width = len(right)
    alive, last = set(range(len(caps))), {}
    for level, threshold in enumerate(pool):
        before = len(alive)
        needed = [(x, r, y, level) for x, r, y, rk in edges if rk >= level]
        matching = [edge for edge in edges_prime if edge[3] >= level]
        alive = _simulate(needed, matching, {pair for pair in alive if caps[pair] >= level}, width)
        last.update(dict.fromkeys(alive, level))
        if verbose:
            print(f"[fuzzy-sim] threshold {format_degree(threshold)}: {len(alive)} pairs alive, "
                  f"{before - len(alive)} removed", file=sys.stderr)
    return {(left[pair // width], right[pair % width]): pool[k] for pair, k in sorted(last.items())}


def greatest_crisp_simulation_flg(g: Flg, g_prime: Flg) -> CrispRelation:
    """Greatest Z with label dominance and forward edge matching; may be empty."""
    return CrispRelation(g.vertices, g_prime.vertices, _crisp_pairs(g, g_prime))


def greatest_fuzzy_simulation_flg(g: Flg, g_prime: Flg) -> FuzzyRelation:
    """Greatest fuzzy Z under the label residuum bound and the edge clause."""
    return FuzzyRelation(g.vertices, g_prime.vertices, _fuzzy_entries(g, g_prime))


def crisp_simulation_nflts(a: Nfts, b: Nfts, verbose: bool = False) -> CrispRelation:
    """Greatest crisp simulation between two systems, over S x S'."""
    a, b = as_nflts(a), as_nflts(b)
    _require_alphabets(a, b)
    return on_states(a, b, _crisp_pairs(to_flg(a), to_flg(b), verbose))


def fuzzy_simulation_nflts(a: Nfts, b: Nfts, verbose: bool = False) -> FuzzyRelation:
    """Greatest fuzzy simulation between two systems, over S x S'."""
    a, b = as_nflts(a), as_nflts(b)
    _require_alphabets(a, b)
    return on_states(a, b, _fuzzy_entries(to_flg(a), to_flg(b), verbose))


def bisimulation_between_nflts(a: Nfts, b: Nfts, mode: str = "crisp", verbose: bool = False):
    """Greatest crisp/fuzzy bisimulation between two systems.

    Reduced to the auto-bisimulation of the disjoint union; the cross pairs
    are read off through the injections.
    """
    a, b = as_nflts(a), as_nflts(b)
    _require_alphabets(a, b)
    union, inject_a, inject_b = disjoint_union(a, b)
    if mode == "crisp":
        # A block of the union pairs each of its states (0, s) of a with each (1, t) of b.
        sides = ([[s for tag, s in block if tag == side] for side in (0, 1)]
                 for block in crisp_partition_system(union, verbose).blocks)
        return CrispRelation(a.states, b.states, [(s, t) for left, right in sides for s in left for t in right])
    if mode == "fuzzy":
        return CfpRelation(fuzzy_partition_system(union, verbose), inject_a, inject_b)
    raise ValueError(f"unknown mode {mode!r}")
