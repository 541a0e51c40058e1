"""The efficient crisp refinement engine against goldens and the oracle."""
import json
import random
from fractions import Fraction

import pytest

from fuzzybisim import (
    CrispPartition,
    Nflts,
    Nfts,
    as_nflts,
    crisp_partition_oracle,
    crisp_partition_system,
    disjoint_union,
    greatest_crisp_bisim_partition_flg,
    model_to_document,
    to_flg,
)
from fuzzybisim import oracle
from fuzzybisim.cli import run
from fuzzybisim.crisp_engine import restrict_to_states
from fuzzybisim.generate import draw, generate

from testlib import random_spec
from conftest import CATERPILLARS, EXAMPLE_CRISP_TEXT, EXAMPLE_GRAPH_CRISP_TEXT, REPO_ROOT, labels_of, make_example
from test_workloads import load_workloads

H = Fraction(1, 2)


def test_golden_system_partition():
    assert crisp_partition_system(make_example()).text() == EXAMPLE_CRISP_TEXT
    assert crisp_partition_oracle(make_example()).text() == EXAMPLE_CRISP_TEXT


def test_golden_graph_partition():
    g = to_flg(make_example())
    p = greatest_crisp_bisim_partition_flg(g)
    assert p.text() == EXAMPLE_GRAPH_CRISP_TEXT


def test_self_loop_degrees_matter():
    # Identical shapes but different degrees must split.
    model = Nfts(
        ["s", "t"],
        ["a"],
        [("s", "a", {"s": H}), ("t", "a", {"t": Fraction("0.7")})],
    )
    assert crisp_partition_system(model).text() == "{{s},{t}}"
    # Equal degrees keep them together.
    twin = Nfts(["s", "t"], ["a"], [("s", "a", {"s": H}), ("t", "a", {"t": H})])
    assert crisp_partition_system(twin).text() == "{{s,t}}"


def test_labels_split_otherwise_bisimilar_states():
    base = make_example()
    raw = [(s, a, dict(mu.fuzzy.items())) for s, a, mu in base.transitions]
    labeled = Nflts(base.states, base.actions, raw, ["p"], {"s2": {"p": Fraction(1)}})
    partition = crisp_partition_system(labeled)
    assert not partition.same_block("s2", "s5")
    assert partition == crisp_partition_oracle(labeled)


def test_no_transitions_is_one_block():
    model = Nfts(["s", "t", "u"], ["a"], [])
    assert crisp_partition_system(model).text() == "{{s,t,u}}"


def test_matches_the_system_level_oracle():
    rng = random.Random(101)
    for _ in range(60):
        arguments = draw(random_spec(rng, max_states=6))
        got = crisp_partition_system(Nfts(*arguments))
        expected = CrispPartition.from_relation(oracle.gfp_crisp_bisim_nfts(oracle.System(*arguments)))
        assert got == expected


def test_strategies_agree_on_random_graphs():
    rng = random.Random(202)
    for _ in range(60):
        g = to_flg(generate(random_spec(rng, max_states=6)))
        assert greatest_crisp_bisim_partition_flg(g) == \
            CrispPartition.from_relation(oracle.gfp_crisp_bisim_flg(g))


def test_verbose_traces_do_not_change_the_result(capsys):
    partition = crisp_partition_system(make_example(), verbose=True)
    assert partition.text() == EXAMPLE_CRISP_TEXT
    captured = capsys.readouterr()
    assert "[crisp]" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("family", sorted(CATERPILLARS))
def test_caterpillars_match_the_oracle(family):
    for n in range(1, 13):
        model = CATERPILLARS[family](n)
        g = to_flg(model)
        assert greatest_crisp_bisim_partition_flg(g) == \
            CrispPartition.from_relation(oracle.gfp_crisp_bisim_flg(g))
        assert crisp_partition_system(model) == crisp_partition_oracle(model)


@pytest.mark.parametrize("family", sorted(CATERPILLARS))
def test_each_state_shares_a_block_with_its_copy(family):
    for n in (1, 5, 12):
        model = as_nflts(CATERPILLARS[family](n))
        union, inject_a, inject_b = disjoint_union(model, model)
        partition = crisp_partition_system(union)
        for s in model.states:
            assert partition.same_block(inject_a[s], inject_b[s]), (n, s)


# -- the system path builds only the state partition ---------------------------


def test_states_flag_gives_the_restricted_graph_partition():
    rng = random.Random(1515)
    models = [generate(random_spec(rng, max_states=12, labeled=i % 2 == 1)) for i in range(40)]
    models += [CATERPILLARS[family](1000) for family in sorted(CATERPILLARS)]
    for model in models:
        g = to_flg(model)
        graph = greatest_crisp_bisim_partition_flg(g)
        ids = {v: i for i, v in enumerate(g.by_id)}
        blocks = [[ids[v] for v in block] for block in graph.blocks]
        assert greatest_crisp_bisim_partition_flg(g, states=True) == restrict_to_states(blocks, g.names)


def test_system_queries_build_one_crisp_partition(monkeypatch, capsys, tmp_path):
    built = []
    real = CrispPartition.__init__
    monkeypatch.setattr(CrispPartition, "__init__", lambda self, blocks: built.append(1) or real(self, blocks))
    path = tmp_path / "labeled.json"
    path.write_text(json.dumps(model_to_document(generate(random_spec(random.Random(7), 10, labeled=True)))))
    for model in (str(REPO_ROOT / "models" / "example.json"), str(path)):
        for argv in (["crisp-partition", model], ["crisp-partition", model, "--json"],
                     ["bisim-between", model, model, "--mode", "crisp"]):
            built.clear()
            assert run(argv) == 0
            assert len(built) == 1, argv
    capsys.readouterr()


def _reversed_names(model):
    """The model with its states renamed so that their name order, and so their ids, reverse; and the renaming."""
    rename = {s: f"t{len(model.names) - i:04d}" for i, s in enumerate(model.names)}
    renamed = Nflts([rename[s] for s in model.states], model.actions,
                    [(rename[s], a, {rename[t]: d for t, d in mu.fuzzy.items()}) for s, a, mu in model.transitions],
                    model.label_alphabet, {rename[s]: label for s, label in labels_of(model).items()})
    assert renamed.names == tuple(rename[s] for s in reversed(model.names))
    return renamed, rename


def test_reversing_the_state_ids_renames_the_partition(monkeypatch):
    rng = random.Random(1)
    models = [generate(random_spec(rng, max_states=8, labeled=i % 2 == 1)) for i in range(30)]
    workloads = load_workloads(monkeypatch)
    rng = random.Random(1)  # the first seed-1 planted-merge model
    base = generate(workloads._base_spec(20, 12, rng.getrandbits(32)))
    models.append(workloads.planted(base, 16, 8, 0.005, rng)[0])
    for model in models:
        renamed, rename = _reversed_names(model)
        expected = CrispPartition([rename[s] for s in block] for block in crisp_partition_system(model).blocks)
        assert crisp_partition_system(renamed) == expected
