"""End-to-end acceptance suite.

Each criterion is one test; a summary section at the end of the pytest run
prints one pass/fail line per criterion (see conftest).  Degrees are exact
rationals throughout, so every equality below is exact with zero tolerance;
the only numeric tolerances are the stated wall-clock budgets.
"""
import random
import time
from fractions import Fraction

from fuzzybisim import (
    CrispPartition,
    as_nflts,
    cfp_from_relation,
    crisp_partition_system,
    crisp_simulation_nflts,
    fuzzy_partition_system,
    fuzzy_simulation_nflts,
    generate,
    GenSpec,
    greatest_crisp_bisim_partition_flg,
    greatest_crisp_simulation_flg,
    greatest_fuzzy_simulation_flg,
    parse_model,
    relation_laws,
    to_flg,
)
from fuzzybisim import oracle
from fuzzybisim.generate import draw, random_spec
from fuzzybisim.graph import state_vertex
from fuzzybisim.model import EPSILON, build

from conftest import (
    EXAMPLE_CRISP_TEXT,
    EXAMPLE_FUZZY_TEXT,
    EXAMPLE_GRAPH_CRISP_TEXT,
    SEVEN_ELEMENT_TEXT,
    example_fuzzy_table,
    seven_element_relation,
)
from scaling import scaling_run, slope_of


def test_criterion_1(example_path):
    """Golden crisp partition, including the intermediate graph partition."""
    started = time.perf_counter()
    model = parse_model(example_path)
    graph_partition = greatest_crisp_bisim_partition_flg(to_flg(model))
    assert graph_partition.text() == EXAMPLE_GRAPH_CRISP_TEXT
    partition = crisp_partition_system(model)
    assert partition.text() == EXAMPLE_CRISP_TEXT
    assert time.perf_counter() - started < 1.0


def test_criterion_2(example_path):
    """Golden fuzzy partition and its exact 5x5 expanded relation."""
    started = time.perf_counter()
    model = parse_model(example_path)
    cfp = fuzzy_partition_system(model)
    assert cfp.text() == EXAMPLE_FUZZY_TEXT
    expanded = cfp.to_relation()
    table = example_fuzzy_table()
    for s in model.states:
        for t in model.states:
            assert expanded(s, t) == table(s, t)
    assert time.perf_counter() - started < 1.0


def test_criterion_3():
    """Golden compact-fuzzy-partition construction from the 7x7 relation."""
    assert cfp_from_relation(seven_element_relation()).text() == SEVEN_ELEMENT_TEXT


def _battery(count, max_states, seed, max_pool=7):
    """Random systems, each from one draw twice: built, and as given (the oracles' input)."""
    rng = random.Random(seed)
    for _ in range(count):
        arguments = draw(random_spec(rng, max_states=max_states, max_pool=max_pool))
        yield build(*arguments), oracle.System(*arguments)


def _crisp_sides(model, given):
    """Criterion 4's sides: the crisp pipeline on the built system, the oracle on the given one."""
    return crisp_partition_system(model), CrispPartition.from_relation(oracle.gfp_crisp_bisim_nfts(given))


def _fuzzy_sides(model, given):
    """Criterion 5's sides: the fuzzy pipeline on the built system, the oracle on the given one."""
    return fuzzy_partition_system(model).to_relation(), oracle.gfp_fuzzy_bisim_nfts(given)


def test_criterion_4():
    """Efficient crisp pipeline equals the brute-force oracle, 500 instances."""
    started = time.perf_counter()
    for model, given in _battery(500, max_states=8, seed=41):
        got, expected = _crisp_sides(model, given)
        assert got == expected
    assert time.perf_counter() - started < 60.0


def test_criterion_5():
    """Efficient fuzzy pipeline equals the brute-force oracle, 300 instances."""
    started = time.perf_counter()
    for model, given in _battery(300, max_states=6, seed=42):
        got, expected = _fuzzy_sides(model, given)
        for s in model.states:
            for t in model.states:
                assert got(s, t) == expected(s, t)
    assert time.perf_counter() - started < 120.0


def test_criteria_4_and_5_report_a_fault_in_the_stored_arrays():
    """The oracles read the system as given, not the layout that the pipelines
    read: corrupting only the layout's arrays makes both comparisons fail."""
    half, seven = Fraction("0.5"), Fraction("0.7")
    labeled = ["s", "t"], ["a"], [], ["p"], {"s": {"p": half}, "t": {"p": seven}}
    moving = ["s", "t", "u"], ["a"], [("s", "a", {"u": half}), ("t", "a", {"u": seven})]

    def one_label_id(model):  # s and t (ids 0 and 1) share s's label id
        model.label_ids[1] = model.label_ids[0]

    def moved_edge(model):  # distribution 0's edge into u moves from 0.5 up one rank, to 0.7
        symbol, target, rank = model.out[3][0]
        assert (symbol, target, model.pool[rank]) == (EPSILON, 2, half)
        model.out[3][0] = symbol, target, rank + 1

    for arguments, corrupt in ((labeled, one_label_id), (moving, moved_edge)):
        model, given = build(*arguments), oracle.System(*arguments)
        got, expected = _crisp_sides(model, given)
        assert got == expected
        corrupt(model)
        got, expected = _crisp_sides(model, given)
        assert got != expected, corrupt.__name__
        got, expected = _fuzzy_sides(model, given)
        assert got("s", "t") == 1 and expected("s", "t") == half, corrupt.__name__


def test_criterion_6():
    """Graph-level fixpoints restricted to states equal the system-level ones."""
    for model, given in _battery(120, max_states=6, seed=43):
        g = to_flg(model)
        crisp_graph = oracle.gfp_crisp_bisim_flg(g)
        crisp_system = oracle.gfp_crisp_bisim_nfts(given)
        restricted = {
            (x.key, y.key)
            for x, y in crisp_graph.pairs
            if x.is_state and y.is_state
        }
        assert restricted == crisp_system.pairs

        fuzzy_graph = oracle.gfp_fuzzy_bisim_flg(g)
        fuzzy_system = oracle.gfp_fuzzy_bisim_nfts(given)
        for s in model.states:
            for t in model.states:
                assert fuzzy_graph(state_vertex(s), state_vertex(t)) == fuzzy_system(s, t)


def test_criterion_7():
    """Every pipeline output passes its own definitional checker and laws."""
    for model, given in _battery(100, max_states=6, seed=44):
        partition = crisp_partition_system(model)
        crisp = partition.to_relation()
        assert oracle.is_crisp_bisim_nfts(crisp, given)

        cfp = fuzzy_partition_system(model)
        fuzzy = cfp.to_relation()
        assert relation_laws(fuzzy).is_equivalence
        assert oracle.is_fuzzy_bisim_nfts(fuzzy, given)

        # Crisp bisimilarity embeds into the degree-1 part of the fuzzy one.
        # (The converse containment fails in general: a pair can reach fuzzy
        # degree 1 by matching transitions through partially related targets.)
        for s, t in crisp.pairs:
            assert fuzzy(s, t) == 1

    rng = random.Random(45)
    for _ in range(40):
        na, nb = rng.randint(1, 4), rng.randint(1, 4)
        a = generate(GenSpec(state_count=na, support_size=(1, min(2, na)),
                             seed=rng.getrandbits(32)))
        b = generate(GenSpec(state_count=nb, support_size=(1, min(2, nb)),
                             seed=rng.getrandbits(32)))
        ga, gb = to_flg(as_nflts(a)), to_flg(as_nflts(b))
        crisp_sim = greatest_crisp_simulation_flg(ga, gb)
        assert oracle.is_crisp_sim_flg(crisp_sim, ga, gb)
        fuzzy_sim = greatest_fuzzy_simulation_flg(ga, gb)
        assert oracle.is_fuzzy_sim_flg(fuzzy_sim, ga, gb)
        # 1-cut of the fuzzy simulation contains every crisp simulation pair
        for pair in crisp_sim.pairs:
            assert fuzzy_sim(*pair) == 1


def test_criterion_8():
    """Simulation engines equal the oracle fixpoints on 300 random pairs."""
    rng = random.Random(46)
    for _ in range(300):
        na = rng.randint(1, 5)
        nb = rng.randint(1, min(5, 10 - na))
        labeled = rng.random() < 0.5
        kwargs = dict(
            action_count=2,
            distributions_per_state_action=(0, 2),
            value_pool_size=rng.randint(3, 6),
            label_alphabet_size=1 if labeled else 0,
            label_density=0.6 if labeled else 0.0,
        )
        a = generate(GenSpec(state_count=na, support_size=(1, min(2, na)),
                             seed=rng.getrandbits(32), **kwargs))
        b = generate(GenSpec(state_count=nb, support_size=(1, min(2, nb)),
                             seed=rng.getrandbits(32), **kwargs))
        ga, gb = to_flg(as_nflts(a)), to_flg(as_nflts(b))
        assert greatest_crisp_simulation_flg(ga, gb) == oracle.gfp_crisp_sim_flg(ga, gb)
        assert greatest_fuzzy_simulation_flg(ga, gb) == oracle.gfp_fuzzy_sim_flg(ga, gb)
        # and through the system-level wrappers
        crisp = crisp_simulation_nflts(a, b)
        assert crisp.pairs == {
            (x.key, y.key)
            for x, y in oracle.gfp_crisp_sim_flg(ga, gb).pairs
            if x.is_state and y.is_state
        }
        fuzzy = fuzzy_simulation_nflts(a, b)
        Z = oracle.gfp_fuzzy_sim_flg(ga, gb)
        for s in a.states:
            for t in b.states:
                assert fuzzy(s, t) == Z(state_vertex(s), state_vertex(t))


def test_criterion_9(request):
    """Complexity evidence: log-log slopes (informational, non-gating).

    The efficient pipelines are measured on a family with m between roughly
    1e3 and 1e5; the naive oracle co-runs on its own small range.  Slopes are
    reported in the summary but deliberately not asserted: finite samples
    cannot establish asymptotics, and correctness is covered by criteria 4-8.
    """
    records = scaling_run(
        [8, 14, 20, 120, 400, 1600, 6400, 12800],
        oracle_max_states=20,
        seed=13,
    )
    efficient = [r for r in records if r.engine.startswith("efficient") and r.m >= 900]
    slope_crisp = slope_of(efficient, "efficient-crisp")
    slope_fuzzy = slope_of(efficient, "efficient-fuzzy")
    oracle_records = [r for r in records if r.engine.startswith("oracle")]
    slope_oracle = slope_of(oracle_records, "oracle-fuzzy")
    notes = getattr(request.config, "_acceptance_notes", {})
    notes[9] = (
        f" -- efficient crisp {slope_crisp:.2f}, efficient fuzzy {slope_fuzzy:.2f},"
        f" oracle fuzzy {slope_oracle:.2f} (informational)"
    )
    request.config._acceptance_notes = notes


def test_criterion_10(request):
    """Degree queries agree with the expanded relation; amortized < 10 us."""
    # the largest instance of the scaling family, regenerated deterministically
    model = generate(GenSpec(
        state_count=800,
        action_count=2,
        distributions_per_state_action=(1, 2),
        support_size=(1, 3),
        value_pool_size=6,
        seed=13 + 1000 * 800,
    ))
    cfp = fuzzy_partition_system(model)
    expanded = cfp.to_relation()
    states = sorted(model.states)
    rng = random.Random(47)
    pairs = [(rng.choice(states), rng.choice(states)) for _ in range(10_000)]

    started = time.perf_counter()
    results = [cfp.degree_of(x, y) for x, y in pairs]
    elapsed = time.perf_counter() - started

    for (x, y), got in zip(pairs, results):
        assert got == expanded(x, y)
    per_query = elapsed / len(pairs)
    assert per_query < 10e-6, f"amortized {per_query * 1e6:.2f} us per query"
    notes = getattr(request.config, "_acceptance_notes", {})
    notes[10] = f" -- {per_query * 1e6:.2f} us per query"
    request.config._acceptance_notes = notes
