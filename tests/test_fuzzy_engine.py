"""The threshold-sweep fuzzy refinement engine against goldens and the oracle."""
import random
from fractions import Fraction

import pytest

from fuzzybisim import (
    CompactFuzzyPartition,
    Nflts,
    Nfts,
    as_nflts,
    cfp_from_relation,
    disjoint_union,
    fuzzy_partition_oracle,
    fuzzy_partition_system,
    greatest_fuzzy_bisim_cfp_flg,
    to_flg,
)
from fuzzybisim import oracle
from fuzzybisim.generate import generate, random_spec

from conftest import (
    CATERPILLARS,
    EXAMPLE_FUZZY_TEXT,
    EXAMPLE_GRAPH_FUZZY_TEXT,
    example_fuzzy_table,
    make_example,
)


def test_golden_system_partition():
    assert fuzzy_partition_system(make_example()).text() == EXAMPLE_FUZZY_TEXT
    assert fuzzy_partition_oracle(make_example()).text() == EXAMPLE_FUZZY_TEXT


def test_golden_graph_partition():
    g = to_flg(make_example())
    cfp = greatest_fuzzy_bisim_cfp_flg(g)
    assert cfp.text(name=lambda v: v.name) == EXAMPLE_GRAPH_FUZZY_TEXT


def test_expanded_relation_matches_the_table():
    cfp = fuzzy_partition_system(make_example())
    assert cfp.to_relation() == example_fuzzy_table()
    assert cfp.degree_of("s1", "s5") == Fraction("0.4")
    assert cfp.degree_of("s2", "s5") == 1
    assert cfp.degree_of("s1", "s3") == 0


def test_label_degrees_become_biresiduum_degrees():
    model = Nflts(
        ["s", "t"], ["a"], [],
        ["p"],
        {"s": {"p": Fraction("0.3")}, "t": {"p": Fraction(1)}},
    )
    cfp = fuzzy_partition_system(model)
    assert cfp.degree_of("s", "t") == Fraction("0.3")
    assert fuzzy_partition_oracle(model).text() == cfp.text()


def test_no_transitions_no_labels_is_one_leaf():
    model = Nfts(["s", "t"], ["a"], [])
    cfp = fuzzy_partition_system(model)
    assert cfp.text() == "{s,t}:1"
    assert cfp.degree_of("s", "t") == 1


def test_single_state():
    model = Nfts(["s"], ["a"], [("s", "a", {"s": Fraction(1, 2)})])
    cfp = fuzzy_partition_system(model)
    assert cfp.text() == "{s}:1"


def test_matches_the_system_level_oracle():
    rng = random.Random(303)
    for _ in range(50):
        model = generate(random_spec(rng, max_states=5))
        got = fuzzy_partition_system(model).to_relation()
        assert got == oracle.gfp_fuzzy_bisim_nfts(model)


def test_strategies_agree_on_random_graphs():
    rng = random.Random(404)
    for _ in range(50):
        g = to_flg(generate(random_spec(rng, max_states=5)))
        a = greatest_fuzzy_bisim_cfp_flg(g)
        b = cfp_from_relation(oracle.gfp_fuzzy_bisim_flg(g))
        assert a.structurally_equal(b)


def test_crisp_partition_refines_the_one_cut():
    # Crisp-bisimilar pairs always have fuzzy degree 1; the converse can
    # fail (a degree-1 pair may match transitions only through partially
    # related targets), so only this containment is asserted.
    from fuzzybisim import crisp_partition_system

    rng = random.Random(505)
    for _ in range(30):
        model = generate(random_spec(rng, max_states=5))
        cfp = fuzzy_partition_system(model)
        crisp = crisp_partition_system(model)
        for s in model.states:
            for t in model.states:
                if crisp.same_block(s, t):
                    assert cfp.degree_of(s, t) == 1


def test_verbose_traces_do_not_change_the_result(capsys):
    cfp = fuzzy_partition_system(make_example(), verbose=True)
    assert cfp.text() == EXAMPLE_FUZZY_TEXT
    captured = capsys.readouterr()
    assert "[fuzzy] threshold 0.4:" in captured.err
    assert captured.out == ""


# -- families where random models rarely give a deep tree ---------------------


def assert_graph_cfp_matches_oracle(model):
    g = to_flg(model)
    expected = cfp_from_relation(oracle.gfp_fuzzy_bisim_flg(g))
    assert greatest_fuzzy_bisim_cfp_flg(g) == expected


def planted_copies(rng: random.Random, copies: int = 5, size: int = 3) -> Nfts:
    """Copies of one base model; copy j > 0 raises the j-th smallest base degree in one transition."""
    pool = [Fraction(k, 10) for k in range(1, 10)]
    base = []
    for s in range(size):
        targets = {(s + 1) % size: rng.choice(pool), rng.randrange(size): rng.choice(pool)}
        base.append((s, rng.choice("ab"), targets))
    used = sorted({d for _, _, targets in base for d in targets.values()})
    transitions = []
    for j in range(copies):
        moved = used[j - 1] if 0 < j <= len(used) else None
        for s, action, targets in base:
            raised = {t: d + Fraction(1, 20) if d == moved else d for t, d in targets.items()}
            if raised != targets:
                moved = None  # one transition per copy
            transitions.append((f"c{j}s{s}", action, {f"c{j}s{t}": d for t, d in raised.items()}))
    states = [f"c{j}s{s}" for j in range(copies) for s in range(size)]
    return Nfts(states, ["a", "b"], transitions)


def test_planted_copies_match_the_oracle():
    rng = random.Random(606)
    for _ in range(8):
        model = planted_copies(rng)
        assert_graph_cfp_matches_oracle(model)
        got = fuzzy_partition_system(model)
        assert got.to_relation() == oracle.gfp_fuzzy_bisim_nfts(model)


def test_many_distinct_label_degrees_match_the_oracle():
    rng = random.Random(707)
    pool = [Fraction(k, 100) for k in range(1, 100)]
    for _ in range(25):
        states = [f"s{i}" for i in range(rng.randint(2, 7))]
        transitions = [
            (s, "a", {rng.choice(states): rng.choice(pool)})
            for s in states
            if rng.random() < 0.5
        ]
        labels = {s: {p: rng.choice(pool) for p in "pq" if rng.random() < 0.8} for s in states}
        assert_graph_cfp_matches_oracle(Nflts(states, ["a"], transitions, ["p", "q"], labels))


def test_models_without_transitions_match_the_oracle():
    rng = random.Random(808)
    pool = [Fraction(k, 100) for k in range(1, 101)]
    for _ in range(25):
        states = [f"s{i}" for i in range(rng.randint(1, 9))]
        labels = {s: {p: rng.choice(pool) for p in "pq" if rng.random() < 0.7} for s in states}
        model = Nflts(states, ["a"], [], ["p", "q"], labels)
        assert_graph_cfp_matches_oracle(model)
        got = fuzzy_partition_system(model)
        assert got.to_relation() == oracle.gfp_fuzzy_bisim_nfts(model)


def test_no_transitions_keeps_a_positive_root_over_many_top_blocks():
    """Labels alone: every pair of top blocks meets at degree 0.5, so the
    state partition is the graph partition with a root above 0."""
    d = Fraction
    labels = {
        "x": {"p": d("0.5"), "q": d(1)},
        "y": {"p": d(1), "q": d("0.5")},
        "z": {"p": d(1), "q": d(1)},
        "z2": {"p": d(1), "q": d(1)},
        "v": {"p": d("0.7"), "q": d(1)},
        "w": {"p": d("0.5"), "q": d("0.5")},
    }
    model = Nflts(list(labels), ["a"], [], ["p", "q"], labels)
    cfp = fuzzy_partition_system(model)
    assert cfp.root.degree == d("0.5") and len(cfp.root.subblocks) == 4
    assert cfp == fuzzy_partition_oracle(model)
    expanded = cfp.to_relation()
    assert expanded == oracle.gfp_fuzzy_bisim_nfts(model)
    for x in model.states:
        for y in model.states:
            assert cfp.degree_of(x, y) == expanded(x, y), (x, y)
    assert cfp.degree_of("z", "z2") == 1 and cfp.degree_of("v", "z") == d("0.7")


@pytest.mark.parametrize("family", sorted(CATERPILLARS))
def test_caterpillars_match_the_oracle(family):
    for n in range(1, 13):
        model = CATERPILLARS[family](n)
        assert_graph_cfp_matches_oracle(model)
        assert fuzzy_partition_system(model) == fuzzy_partition_oracle(model)


@pytest.mark.parametrize("family", sorted(CATERPILLARS))
def test_each_state_has_degree_one_with_its_copy(family):
    for n in (1, 5, 12):
        model = as_nflts(CATERPILLARS[family](n))
        union, inject_a, inject_b = disjoint_union(model, model)
        cfp = fuzzy_partition_system(union)
        for s in model.states:
            assert cfp.degree_of(inject_a[s], inject_b[s]) == 1, (n, s)


def test_renaming_states_renames_the_partition():
    rng = random.Random(909)
    for _ in range(30):
        model = as_nflts(generate(random_spec(rng, max_states=6)))
        rename = {s: f"t{len(model.states) - i}" for i, s in enumerate(sorted(model.states))}
        renamed = Nflts(
            [rename[s] for s in model.states],
            model.actions,
            [(rename[s], a, {rename[t]: d for t, d in mu.fuzzy.items()}) for s, a, mu in model.transitions],
            model.label_alphabet,
            {rename[s]: model.label_of(s) for s in model.states},
        )
        cfp = fuzzy_partition_system(model)
        expected = CompactFuzzyPartition.from_json(cfp.to_json(name=rename.__getitem__))
        assert fuzzy_partition_system(renamed) == expected
