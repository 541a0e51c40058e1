"""The scaling harness: records, digests and slope fits."""
import math

import pytest

from fuzzybisim import GenSpec, generate
from fuzzybisim import bench

from scaling import loglog_slope, scaling_run, slope_of


def test_run_instance_records_both_engines():
    spec = GenSpec(state_count=6, distributions_per_state_action=(1, 2), seed=3)
    model = generate(spec)
    records = bench.run_instance(model, spec, ["efficient-refinement", "baseline-fixpoint"])
    engines = {r.engine for r in records}
    assert engines == {"efficient-crisp", "efficient-fuzzy", "oracle-crisp", "oracle-fuzzy"}
    for record in records:
        assert record.n == record.states + record.delta_o
        assert record.m == record.size_delta
        assert record.rng == "mt19937"
    bench.check_digests(records)  # engines must agree on this instance


def test_digest_mismatch_is_a_hard_failure():
    spec = GenSpec(state_count=3, seed=1)
    model = generate(spec)
    records = bench.run_instance(model, spec, ["efficient-refinement", "baseline-fixpoint"])
    records[2].digest = "0" * 16
    with pytest.raises(bench.DigestMismatch):
        bench.check_digests(records)


def test_scaling_run_is_deterministic():
    a = scaling_run([5], seed=9, oracle_max_states=0)
    b = scaling_run([5], seed=9, oracle_max_states=0)
    assert [(r.digest, r.m) for r in a] == [(r.digest, r.m) for r in b]


def test_oracle_skipped_above_the_cutoff():
    records = scaling_run([5, 40], oracle_max_states=10)
    oracle_sizes = {r.states for r in records if r.engine.startswith("oracle")}
    assert oracle_sizes == {5}


def test_loglog_slope_recovers_exponents():
    quadratic = [(x, 3.0 * x * x) for x in (10, 20, 40, 80)]
    assert math.isclose(loglog_slope(quadratic), 2.0, abs_tol=1e-9)
    linear = [(x, 0.5 * x) for x in (10, 20, 40, 80)]
    assert math.isclose(loglog_slope(linear), 1.0, abs_tol=1e-9)


def test_slope_of_requires_two_sizes():
    records = scaling_run([5], oracle_max_states=0)
    with pytest.raises(ValueError):
        slope_of(records, "efficient-crisp")
