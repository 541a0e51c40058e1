"""Scaling runs: time the refinement pipelines against the naive fixpoints
on one generated family, and fit log-log slopes of time against m."""
from __future__ import annotations

import math
from typing import Iterable, List

from fuzzybisim.bench import BenchRecord, check_digests, run_instance
from fuzzybisim.generate import GenSpec, generate


def scaling_run(state_counts: Iterable[int], oracle_max_states: int = 30, seed: int = 0) -> List[BenchRecord]:
    """Generate one instance per size and time both engines on each.

    The naive fixpoint engine is skipped above ``oracle_max_states``; where
    both engines run their digests must agree.
    """
    records: List[BenchRecord] = []
    for count in state_counts:
        spec = GenSpec(
            state_count=count,
            action_count=2,
            distributions_per_state_action=(1, 2),
            support_size=(1, min(3, count)),
            value_pool_size=6,
            seed=seed + 1000 * count,
        )
        model = generate(spec)
        oracle = ["baseline-fixpoint"] if count <= oracle_max_states else []
        records.extend(run_instance(model, spec, ["efficient-refinement", *oracle]))
    check_digests(records)
    return records


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
    """Slope of wall time against m for one engine."""
    points = sorted((record.m, record.wall_time_ms) for record in records if record.engine == engine)
    if len(points) < 2:
        raise ValueError(f"not enough sizes recorded for engine {engine!r}")
    return loglog_slope(points)
