"""Scaling runs: time the refinement pipelines against the naive fixpoints
on generated families and record everything needed to audit the runs."""
from __future__ import annotations

import csv
import hashlib
import math
import time
from dataclasses import dataclass, asdict
from typing import Iterable, List, Optional

from .crisp_engine import crisp_partition_oracle, crisp_partition_system
from .fuzzy_engine import fuzzy_partition_oracle, fuzzy_partition_system
from .generate import GenSpec, generate, RNG_ALGORITHM
from .model import Nfts

CSV_COLUMNS = [
    "seed", "states", "actions", "delta", "delta_o", "size_delta",
    "l", "n", "m", "engine", "wall_time_ms", "digest", "rng",
]


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
    used = set()
    for mu in model.distributions:
        used.update(mu.degrees())
    for s in model.states:
        used.update(model.label_of(s).degrees())
    return {
        "seed": spec.seed,
        "states": len(model.states),
        "actions": len(model.actions),
        "delta": len(model.delta),
        "delta_o": len(model.distributions),
        "size_delta": model.size_of_delta(),
        "l": len(used) + 2,
        "n": len(model.states) + len(model.distributions),
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


def scaling_run(
    state_counts: Iterable[int],
    repetitions: int = 1,
    value_pool_size: int = 6,
    oracle_max_states: int = 30,
    seed: int = 0,
    csv_path: Optional[str] = None,
) -> List[BenchRecord]:
    """Generate a family of growing instances and time both engines on it.

    The naive fixpoint engine is skipped above ``oracle_max_states``; where
    both engines run their digests must agree.
    """
    records: List[BenchRecord] = []
    for count in state_counts:
        for rep in range(repetitions):
            spec = GenSpec(
                state_count=count,
                action_count=2,
                distributions_per_state_action=(1, 2),
                support_size=(1, min(3, count)),
                value_pool_size=value_pool_size,
                seed=seed + 1000 * count + rep,
            )
            model = generate(spec)
            strategies = list(_RUNS)  # the efficient engines, then the oracles
            records.extend(run_instance(model, spec, strategies if count <= oracle_max_states else strategies[:1]))
    check_digests(records)
    if csv_path:
        write_csv(records, csv_path)
    return records


def write_csv(records: List[BenchRecord], path: str):
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for record in records:
            writer.writerow(asdict(record))


def loglog_slope(points) -> float:
    """Least-squares slope of log(time) against log(size)."""
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(max(y, 1e-9)) for _, y in points]
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    num = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    den = sum((x - mean_x) ** 2 for x in xs)
    return num / den


def slope_of(records: List[BenchRecord], engine: str) -> float:
    """Slope of wall time against m for one engine, averaging repetitions."""
    by_m: dict = {}
    for record in records:
        if record.engine == engine:
            by_m.setdefault(record.m, []).append(record.wall_time_ms)
    points = [(m, sum(ts) / len(ts)) for m, ts in sorted(by_m.items())]
    if len(points) < 2:
        raise ValueError(f"not enough sizes recorded for engine {engine!r}")
    return loglog_slope(points)
