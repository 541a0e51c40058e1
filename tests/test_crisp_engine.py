"""The efficient crisp refinement engine against goldens and the oracle."""
import random
from fractions import Fraction

import pytest

from fuzzybisim import (
    CrispEngineConfig,
    CrispPartition,
    Nflts,
    Nfts,
    crisp_partition_system,
    greatest_crisp_bisim_partition_flg,
    to_flg,
)
from fuzzybisim import oracle
from fuzzybisim.generate import generate, random_spec

from conftest import EXAMPLE_CRISP_TEXT, EXAMPLE_GRAPH_CRISP_TEXT, make_example

H = Fraction(1, 2)
EFFICIENT = CrispEngineConfig("efficient-refinement")
BASELINE = CrispEngineConfig("baseline-fixpoint")


def test_golden_system_partition():
    assert crisp_partition_system(make_example(), EFFICIENT).text() == EXAMPLE_CRISP_TEXT
    assert crisp_partition_system(make_example(), BASELINE).text() == EXAMPLE_CRISP_TEXT


def test_golden_graph_partition():
    g = to_flg(make_example())
    p = greatest_crisp_bisim_partition_flg(g, EFFICIENT)
    assert p.text(name=lambda v: v.name) == EXAMPLE_GRAPH_CRISP_TEXT


def test_unknown_strategy_rejected():
    with pytest.raises(ValueError):
        CrispEngineConfig("quantum")


def test_self_loop_degrees_matter():
    # Identical shapes but different degrees must split.
    model = Nfts(
        ["s", "t"],
        ["a"],
        [("s", "a", {"s": H}), ("t", "a", {"t": Fraction("0.7")})],
    )
    assert crisp_partition_system(model, EFFICIENT).text() == "{{s},{t}}"
    # Equal degrees keep them together.
    twin = Nfts(["s", "t"], ["a"], [("s", "a", {"s": H}), ("t", "a", {"t": H})])
    assert crisp_partition_system(twin, EFFICIENT).text() == "{{s,t}}"


def test_labels_split_otherwise_bisimilar_states():
    base = make_example()
    raw = [(s, a, dict(mu.fuzzy.items())) for s, a, mu in base.transitions]
    labeled = Nflts(base.states, base.actions, raw, ["p"], {"s2": {"p": Fraction(1)}})
    partition = crisp_partition_system(labeled, EFFICIENT)
    assert not partition.same_block("s2", "s5")
    assert partition == crisp_partition_system(labeled, BASELINE)


def test_no_transitions_is_one_block():
    model = Nfts(["s", "t", "u"], ["a"], [])
    assert crisp_partition_system(model, EFFICIENT).text() == "{{s,t,u}}"


def test_matches_the_system_level_oracle():
    rng = random.Random(101)
    for _ in range(60):
        model = generate(random_spec(rng, max_states=6))
        got = crisp_partition_system(model, EFFICIENT)
        expected = CrispPartition.from_relation(oracle.gfp_crisp_bisim_nfts(model))
        assert got == expected


def test_strategies_agree_on_random_graphs():
    rng = random.Random(202)
    for _ in range(60):
        g = to_flg(generate(random_spec(rng, max_states=6)))
        assert greatest_crisp_bisim_partition_flg(g, EFFICIENT) == \
            greatest_crisp_bisim_partition_flg(g, BASELINE)


def test_verbose_traces_do_not_change_the_result(capsys):
    config = CrispEngineConfig("efficient-refinement", verbose=True)
    partition = crisp_partition_system(make_example(), config)
    assert partition.text() == EXAMPLE_CRISP_TEXT
    captured = capsys.readouterr()
    assert "[crisp]" in captured.err
    assert captured.out == ""
