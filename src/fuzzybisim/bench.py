"""Timed engine runs: the refinement pipelines and the naive fixpoints on one
instance, with the instance's metrics and a digest of each result, and the
check that engines run on the same instance agree."""
from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Iterable, List

from .crisp_engine import crisp_partition_oracle, crisp_partition_system
from .fuzzy_engine import fuzzy_partition_oracle, fuzzy_partition_system
from .generate import GenSpec, RNG_ALGORITHM
from .model import Nfts


@dataclass
class BenchRecord:
    seed: int
    states: int
    actions: int
    delta: int
    delta_o: int
    size_delta: int
    l: int
    n: int
    m: int
    engine: str
    wall_time_ms: float
    digest: str
    rng: str = RNG_ALGORITHM


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _metrics(model: Nfts, spec: GenSpec) -> dict:
    return {
        "seed": spec.seed,
        "states": len(model.states),
        "actions": len(model.actions),
        "delta": len(model.delta),
        "delta_o": len(model.dists),
        "size_delta": model.size_of_delta(),
        "l": len(model.pool) + 2,
        "n": len(model.names) + len(model.dists),
        "m": model.size_of_delta(),
    }


# strategy -> the engine tag of its records and its crisp and fuzzy engines
_RUNS = {
    "efficient-refinement": ("efficient", crisp_partition_system, fuzzy_partition_system),
    "baseline-fixpoint": ("oracle", crisp_partition_oracle, fuzzy_partition_oracle),
}


def _tasks(strategy: str):
    tag, crisp, fuzzy = _RUNS[strategy]
    return [(f"{tag}-crisp", lambda m: crisp(m).text()), (f"{tag}-fuzzy", lambda m: fuzzy(m).text())]


def run_instance(model: Nfts, spec: GenSpec, strategies: Iterable[str]) -> List[BenchRecord]:
    """Time every (strategy, task) combination on one instance."""
    base = _metrics(model, spec)
    records = []
    for strategy in strategies:
        for engine, task in _tasks(strategy):
            start = time.perf_counter()
            text = task(model)
            elapsed = (time.perf_counter() - start) * 1000.0
            records.append(BenchRecord(engine=engine, wall_time_ms=elapsed, digest=_digest(text), **base))
    return records


class DigestMismatch(AssertionError):
    """Engines disagreed on an instance; always a hard failure."""


def check_digests(records: List[BenchRecord]):
    """Engines co-run on the same instance must produce equal digests."""
    by_key = {}
    for record in records:
        kind = record.engine.rsplit("-", 1)[1]
        key = (record.seed, record.states, kind)
        other = by_key.setdefault(key, record)
        if other.digest != record.digest:
            raise DigestMismatch(f"{other.engine} vs {record.engine} on seed {record.seed}")
