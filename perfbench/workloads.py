"""Workload inputs, reference results and correctness checks.

Every workload is built from the seed alone.  ``build(name, seed, scratch)``
generates the models, writes them as JSON documents under ``scratch``,
computes every job's reference digest through the library, checks the
family's invariants at full size and checks a shrunk instance of the family
against the brute-force oracles.  Any failed check raises ``SetupError``.
"""
from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List

from fuzzybisim import (
    GenSpec,
    Nfts,
    Nflts,
    ONE,
    bisimulation_between_nflts,
    crisp_partition_system,
    crisp_simulation_nflts,
    disjoint_union,
    fuzzy_partition_system,
    fuzzy_simulation_nflts,
    generate,
    model_to_document,
    relation_to_document,
    to_flg,
)
from fuzzybisim import bench, oracle


class SetupError(RuntimeError):
    """A workload could not be built or failed a reference check."""


@dataclass
class Job:
    """One CLI call of the closed loop, with what its output must hash to."""

    kind: str  # "crisp" or "fuzzy": the end-to-end metric the job feeds
    argv: List[str]
    size: int  # sum of size(delta) over the input models
    reference: str


@dataclass
class Instance:
    jobs: List[Job]
    metrics: Dict[str, int] = field(default_factory=dict)


def digest(result) -> str:
    """Hash of a ``result`` field; key order and whitespace do not matter."""
    text = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# -- generators ---------------------------------------------------------------


def _base_spec(states: int, pool: int, seed: int, labels: int = 0, fixed: bool = False) -> GenSpec:
    """Two actions, 1-2 distributions per state-action and support 1-3.

    ``fixed`` gives exactly one distribution per state-action, of support 2.
    """
    return GenSpec(
        state_count=states,
        action_count=2,
        distributions_per_state_action=(1, 1) if fixed else (1, 2),
        support_size=(2, 2) if fixed else (1, min(3, states)),
        value_pool_size=pool,
        label_alphabet_size=labels,
        label_density=0.5 if labels else 0.0,
        seed=seed,
    )


def planted(base: Nfts, copies: int, exact: int, moved: float, rng: random.Random):
    """``copies`` relabelled copies of ``base`` in one system.

    The first ``exact`` copies are verbatim.  Each other copy moves a share
    ``moved`` of its degrees, and at least one, to a neighbouring value of the
    base's degree pool.  The first move of the k-th such copy raises a degree
    of rank k (modulo the pool size - 1) by one rank.  The copy then splits
    from the exact ones at that degree, so copies split at distinct degrees
    and the compact fuzzy partition is deep.  Returns the system and, per
    copy, the map from base states to their names in it.  Names are shuffled
    so that the copies interleave.
    """
    order = sorted(base.states, key=lambda s: int(s[1:]))
    pool = sorted({d for mu in base.distributions for d in mu.fuzzy.degrees()})
    rank = {d: i for i, d in enumerate(pool)}
    delta = [
        (source, action, sorted(mu.fuzzy.items(), key=lambda e: int(e[0][1:])))
        for source, action, mu in sorted(base.transitions, key=lambda t: (int(t[0][1:]), t[1], t[2].index))
    ]
    entries = [(i, j) for i, (_, _, targets) in enumerate(delta) for j in range(len(targets))]
    numbers = rng.sample(range(copies * len(order)), copies * len(order))
    renames = []
    transitions = []
    for c in range(copies):
        rename = {s: f"s{numbers[c * len(order) + i]}" for i, s in enumerate(order)}
        renames.append(rename)
        steps = {}
        if c >= exact and len(pool) > 1:
            target_rank = (c - exact) % (len(pool) - 1)
            first = rng.choice([(i, j) for i, j in entries if rank[delta[i][2][j][1]] == target_rank])
            steps[first] = 1
            count = max(1, round(moved * len(entries)))
            for i, j in rng.sample(entries, count - 1):
                k = rank[delta[i][2][j][1]]
                steps.setdefault((i, j), rng.choice((-1, 1)) if 0 < k < len(pool) - 1 else (1 if k == 0 else -1))
        for i, (source, action, targets) in enumerate(delta):
            moved_targets = {}
            for j, (target, degree) in enumerate(targets):
                if (i, j) in steps:
                    degree = pool[rank[degree] + steps[(i, j)]]
                moved_targets[rename[target]] = degree
            transitions.append((rename[source], action, moved_targets))
    states = [rename[s] for rename in renames for s in order]
    return Nfts(states, base.actions, transitions), renames


# -- instance metrics -----------------------------------------------------------


def _instance_metrics(model: Nfts, seed: int) -> dict:
    flg = to_flg(model)
    metrics = bench._metrics(model, GenSpec(seed=seed))
    metrics.update(vertices=len(flg.vertices), edges=len(flg.edges))
    return metrics


def _cfp_shape(cfp) -> dict:
    """Internal nodes of a compact fuzzy partition and their distinct degrees."""
    internal = 0
    degrees = set()
    stack = [cfp.root]
    while stack:
        block = stack.pop()
        if not block.is_crisp:
            internal += 1
            degrees.add(block.degree)
            stack.extend(block.subblocks)
    return {"cfp_internal_nodes": internal, "cfp_distinct_degrees": len(degrees)}


# -- shrunk oracle checks -------------------------------------------------------


def _oracle_partitions(model: Nfts, seed: int):
    """Efficient and oracle bisimulation engines must agree on the model."""
    spec = GenSpec(state_count=len(model.states), seed=seed)
    records = bench.run_instance(model, spec, ["efficient-refinement", "baseline-fixpoint"])
    try:
        bench.check_digests(records)
    except bench.DigestMismatch as exc:
        raise SetupError(f"shrunk instance disagrees with the oracle: {exc}") from exc


def _oracle_simulations(left: Nflts, right: Nflts):
    """Efficient and oracle simulation engines must agree on the pair."""
    g, h = to_flg(left), to_flg(right)
    crisp = oracle.gfp_crisp_sim_flg(g, h)
    expected = {(x.key, y.key) for x, y in crisp.pairs if x.is_state and y.is_state}
    if set(crisp_simulation_nflts(left, right).pairs) != expected:
        raise SetupError("shrunk crisp simulation disagrees with the oracle")
    fuzzy = oracle.gfp_fuzzy_sim_flg(g, h)
    expected = {
        (x.key, y.key): d for (x, y), d in fuzzy.entries.items() if x.is_state and y.is_state
    }
    if fuzzy_simulation_nflts(left, right).entries != expected:
        raise SetupError("shrunk fuzzy simulation disagrees with the oracle")


# -- workloads ------------------------------------------------------------------


def _write(scratch: Path, name: str, model: Nfts) -> str:
    path = scratch / f"{name}.json"
    path.write_text(json.dumps(model_to_document(model), indent=2) + "\n")
    return str(path)


def _partition_jobs(model: Nfts, path: str):
    """Crisp and fuzzy partition jobs of one model, with their references."""
    crisp = crisp_partition_system(model)
    cfp = fuzzy_partition_system(model)
    if not crisp.refines(cfp.leaf_partition()):
        raise SetupError("the crisp partition does not refine the fuzzy partition's leaves")
    size = model.size_of_delta()
    jobs = [
        Job("crisp", ["crisp-partition", "--json", path], size, digest([list(b) for b in crisp.blocks])),
        Job("fuzzy", ["fuzzy-partition", "--json", path], size, digest(cfp.to_json())),
    ]
    return jobs, crisp, cfp


def random_sweep(seed: int, scratch: Path) -> Instance:
    rng = random.Random(seed)
    model = generate(_base_spec(RANDOM_SWEEP["states"], 40, rng.getrandbits(32), labels=2))
    jobs, crisp, cfp = _partition_jobs(model, _write(scratch, "random-sweep", model))
    metrics = _instance_metrics(model, seed)
    metrics.update(crisp_blocks=len(crisp), **_cfp_shape(cfp))
    small = generate(_base_spec(7, 6, rng.getrandbits(32), labels=2))
    _oracle_partitions(small, seed)
    return Instance(jobs, metrics)


def _check_exact_copies(crisp, cfp, renames, exact: int):
    for s in renames[0]:
        names = [renames[c][s] for c in range(exact)]
        if any(not crisp.same_block(names[0], t) for t in names[1:]):
            raise SetupError(f"exact copies of {s} are split by the crisp partition")
        if any(cfp.degree_of(names[0], t) != ONE for t in names[1:]):
            raise SetupError(f"exact copies of {s} are related below degree 1")


def planted_merge(seed: int, scratch: Path) -> Instance:
    # How much work one planted model takes depends on how deep its compact
    # fuzzy partition grows, which swings from seed to seed; the median job
    # over several models per run swings less.
    rng = random.Random(seed)
    p = PLANTED_MERGE
    jobs, metrics = [], {}
    for m in range(p["models"]):
        base = generate(_base_spec(p["base"], 12, rng.getrandbits(32)))
        model, renames = planted(base, p["copies"], p["exact"], p["moved"], rng)
        found, crisp, cfp = _partition_jobs(model, _write(scratch, f"planted-merge-{m}", model))
        _check_exact_copies(crisp, cfp, renames, p["exact"])
        part = _instance_metrics(model, seed)
        part.update(crisp_blocks=len(crisp), **_cfp_shape(cfp))
        if part["crisp_blocks"] > 0.6 * part["states"]:
            raise SetupError(f"planted-merge does not merge: {part['crisp_blocks']} crisp blocks "
                             f"for {part['states']} states")
        if part["cfp_distinct_degrees"] < 3:
            raise SetupError(f"planted-merge CFP is shallow: internal nodes at "
                             f"{part['cfp_distinct_degrees']} distinct degrees")
        jobs += found
        _add_metrics(metrics, part)
    metrics["models"] = p["models"]
    small_base = generate(_base_spec(3, 5, rng.getrandbits(32), fixed=True))
    _oracle_partitions(planted(small_base, 2, 1, 0.3, rng)[0], seed)
    return Instance(jobs, metrics)


def _add_metrics(total: dict, part: dict):
    """Totals over a workload's inputs; actions and l are the largest, CFP depth the least."""
    for key, value in part.items():
        if key == "seed":
            total[key] = value
        elif key in ("actions", "l"):
            total[key] = max(total.get(key, value), value)
        elif key == "cfp_distinct_degrees":
            total[key] = min(total.get(key, value), value)
        else:
            total[key] = total.get(key, 0) + value


def _simulation_pair(states: int, moved: float, rng: random.Random):
    base = generate(_base_spec(states, 8, rng.getrandbits(32), fixed=True))
    right, renames = planted(base, 2, 1, moved, rng)
    return _labeled(base), _labeled(right), renames[0]


def _labeled(model: Nfts) -> Nflts:
    """The same system as an NFLTS with an empty alphabet, as the CLI reads it."""
    return Nflts(model.states, model.actions, [(s, a, mu.fuzzy) for s, a, mu in model.transitions])


def simulation(seed: int, scratch: Path) -> Instance:
    # The cost of a simulation fixpoint swings widely from one small random
    # instance to the next.  A fixed out-degree and many pairs per run keep
    # the median job time from moving much from seed to seed.
    rng = random.Random(seed)
    jobs, metrics = [], {}
    for p in range(SIMULATION["pairs"]):
        left, right, exact = _simulation_pair(SIMULATION["base"], 0.05, rng)
        paths = [_write(scratch, f"sim-left-{p}", left), _write(scratch, f"sim-right-{p}", right)]
        crisp = crisp_simulation_nflts(left, right)
        fuzzy = fuzzy_simulation_nflts(left, right)
        for s, t in exact.items():
            if (s, t) not in crisp.pairs or fuzzy(s, t) != ONE:
                raise SetupError(f"{t} is an exact copy of {s} but does not simulate it fully")
        size = left.size_of_delta() + right.size_of_delta()
        jobs += [
            Job("crisp", ["crisp-sim", "--json", *paths], size, digest(relation_to_document(crisp))),
            Job("fuzzy", ["fuzzy-sim", "--json", *paths], size, digest(relation_to_document(fuzzy))),
        ]
        pair = _instance_metrics(right, seed)
        pair.update(left_states=len(left.states), crisp_pairs=len(crisp), fuzzy_pairs=len(fuzzy.entries))
        _add_metrics(metrics, pair)
    metrics["model_pairs"] = SIMULATION["pairs"]
    small_left, small_right, _ = _simulation_pair(3, 0.3, rng)
    _oracle_simulations(small_left, small_right)
    return Instance(jobs, metrics)


def between_queries(seed: int, scratch: Path) -> Instance:
    rng = random.Random(seed)
    p = BETWEEN_QUERIES
    base = generate(_base_spec(p["base"], 12, rng.getrandbits(32)))
    model, _ = planted(base, p["copies"], p["exact"], p["moved"], rng)
    model = _labeled(model)
    path = _write(scratch, "between", model)
    crisp = bisimulation_between_nflts(model, model, "crisp")
    fuzzy = bisimulation_between_nflts(model, model, "fuzzy")
    for s in model.states:
        if (s, s) not in crisp.pairs or fuzzy(s, s) != ONE:
            raise SetupError(f"{s} is not fully bisimilar to itself")
    if any((t, s) not in crisp.pairs for s, t in crisp.pairs):
        raise SetupError("crisp bisimulation between a model and itself is not symmetric")
    if any(fuzzy(t, s) != d for (s, t), d in fuzzy.entries.items()):
        raise SetupError("fuzzy bisimulation between a model and itself is not symmetric")
    size = 2 * model.size_of_delta()
    jobs = [
        Job("crisp", ["bisim-between", "--mode", "crisp", "--json", path, path], size,
            digest(relation_to_document(crisp))),
        Job("fuzzy", ["bisim-between", "--mode", "fuzzy", "--json", path, path], size,
            digest(relation_to_document(fuzzy))),
    ]
    metrics = _instance_metrics(model, seed)
    metrics.update(crisp_pairs=len(crisp), fuzzy_pairs=len(fuzzy.entries))
    small_base = generate(_base_spec(2, 5, rng.getrandbits(32), fixed=True))
    small = _labeled(planted(small_base, 2, 1, 0.3, rng)[0])
    _oracle_partitions(disjoint_union(small, small)[0], seed)
    return Instance(jobs, metrics)


# Sizes are chosen so that one job takes well under a second on one core:
# a run then holds enough jobs of each kind for a steady median.
RANDOM_SWEEP = {"states": 800}
PLANTED_MERGE = {"models": 4, "base": 20, "copies": 16, "exact": 8, "moved": 0.005}
SIMULATION = {"base": 8, "pairs": 16}
BETWEEN_QUERIES = {"base": 15, "copies": 10, "exact": 5, "moved": 0.05}

BUILDERS: Dict[str, Callable[[int, Path], Instance]] = {
    "random-sweep": random_sweep,
    "planted-merge": planted_merge,
    "simulation": simulation,
    "between-queries": between_queries,
}


def build(name: str, seed: int, scratch: Path) -> Instance:
    return BUILDERS[name](seed, scratch)
