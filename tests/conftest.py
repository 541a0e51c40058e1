"""Shared fixtures: the five-state worked example, its expected results, each
labeled state's label as the system stores it, the caterpillar families with
deep partitions, the arrays of a compact fuzzy partition's `root` view, and a
terminal-summary hook that prints one line per acceptance criterion."""
from __future__ import annotations

from fractions import Fraction
from pathlib import Path

import pytest

from fuzzybisim import FuzzySet, Nflts, Nfts, FuzzyRelation
from fuzzybisim.partition import _flatten

REPO_ROOT = Path(__file__).resolve().parent.parent


def example_arguments() -> tuple:
    """The constructor's arguments of the running five-state example: two
    a-branches from s1, a b-cycle on s3/s4 through the same distribution, and
    s2/s5 sharing a target."""
    d = Fraction
    return (
        ["s1", "s2", "s3", "s4", "s5"],
        ["a", "b"],
        [
            ("s1", "a", {"s2": d("0.5"), "s3": d("0.8")}),
            ("s1", "a", {"s3": d("0.6"), "s5": d("0.4")}),
            ("s2", "a", {"s4": d("0.7"), "s5": d("0.9")}),
            ("s3", "b", {"s2": d("0.5"), "s3": d("0.8")}),
            ("s4", "b", {"s2": d("0.5"), "s3": d("0.8")}),
            ("s5", "a", {"s4": d("0.7"), "s5": d("0.9")}),
        ],
    )


def make_example() -> Nfts:
    return Nfts(*example_arguments())


def labels_of(model) -> dict:
    """Each labeled state's label as the system stores it: its ``labels``
    entry, as a FuzzySet of the pool's degrees at its ranks."""
    names, pool = model.names, model.pool
    return {names[i]: FuzzySet({p: pool[r] for p, r in ranks.items()}) for i, ranks in model.labels.items()}


EXAMPLE_CRISP_TEXT = "{{s1},{s2,s5},{s3,s4}}"
EXAMPLE_GRAPH_CRISP_TEXT = "{{s1},{s2,s5},{s3,s4},{mu1},{mu2},{mu3}}"
EXAMPLE_FUZZY_TEXT = "{{{s1}:1,{s2,s5}:1}:0.4,{s3,s4}:1}:0"
EXAMPLE_GRAPH_FUZZY_TEXT = (
    "{{{s1}:1,{s2,s5}:1}:0.4,{s3,s4}:1,{{{mu1}:1,{mu3}:1}:0.5,{mu2}:1}:0.4}:0"
)


def example_fuzzy_table() -> FuzzyRelation:
    """The full 5x5 greatest fuzzy bisimulation of the example, entry by entry."""
    states = ["s1", "s2", "s3", "s4", "s5"]
    rows = {
        "s1": ["1", "0.4", "0", "0", "0.4"],
        "s2": ["0.4", "1", "0", "0", "1"],
        "s3": ["0", "0", "1", "1", "0"],
        "s4": ["0", "0", "1", "1", "0"],
        "s5": ["0.4", "1", "0", "0", "1"],
    }
    entries = {
        (x, y): Fraction(rows[x][j])
        for x in states
        for j, y in enumerate(states)
    }
    return FuzzyRelation(states, states, entries)


def root_arrays(cfp) -> tuple:
    """The (parent, degrees, elements) arrays of a compact fuzzy partition's
    `root` view, read without recursion."""
    return _flatten(cfp.root, lambda block: (block.degree, block.elements, block.subblocks))


def seven_element_relation() -> FuzzyRelation:
    """A 7-element fuzzy equivalence with four distinct off-diagonal degrees."""
    names = [f"x{i}" for i in range(1, 8)]
    rows = [
        ["1", "0.4", "0.4", "0.4", "0.1", "0.1", "0"],
        ["0.4", "1", "0.6", "0.6", "0.1", "0.1", "0"],
        ["0.4", "0.6", "1", "1", "0.1", "0.1", "0"],
        ["0.4", "0.6", "1", "1", "0.1", "0.1", "0"],
        ["0.1", "0.1", "0.1", "0.1", "1", "0.3", "0"],
        ["0.1", "0.1", "0.1", "0.1", "0.3", "1", "0"],
        ["0", "0", "0", "0", "0", "0", "1"],
    ]
    entries = {
        (x, y): Fraction(rows[i][j])
        for i, x in enumerate(names)
        for j, y in enumerate(names)
    }
    return FuzzyRelation(names, names, entries)


SEVEN_ELEMENT_TEXT = (
    "{{{{x1}:1,{{x2}:1,{x3,x4}:1}:0.6}:0.4,{{x5}:1,{x6}:1}:0.3}:0.1,{x7}:1}:0"
)


# -- caterpillars: one state leaves a big block at every degree level ----------


def label_caterpillar(n: int) -> Nflts:
    """No transitions; state s_i has label p at degree (i+1)/(n+1)."""
    states = [f"s{i}" for i in range(n)]
    labels = {s: {"p": Fraction(i + 1, n + 1)} for i, s in enumerate(states)}
    return Nflts(states, ["a"], [], ["p"], labels)


def edge_caterpillar(n: int, hubs: int = 0) -> Nfts:
    """s_i -a-> {s_i: (i+1)/(n+1)}, plus ``hubs`` hub states with the same
    n edges each."""
    states = [f"s{i}" for i in range(n)]
    loops = [{s: Fraction(i + 1, n + 1)} for i, s in enumerate(states)]
    transitions = [(s, "a", mu) for s, mu in zip(states, loops)]
    hub_states = [f"h{k}" for k in range(hubs)]
    transitions += [(h, "a", mu) for h in hub_states for mu in loops]
    return Nfts(states + hub_states, ["a"], transitions)


CATERPILLARS = {
    "label caterpillar": label_caterpillar,
    "edge caterpillar": edge_caterpillar,
    "two hubs": lambda n: edge_caterpillar(n, hubs=2),
}


@pytest.fixture
def example() -> Nfts:
    return make_example()


@pytest.fixture
def example_path() -> Path:
    return REPO_ROOT / "models" / "example.json"


# -- acceptance-criteria reporting ------------------------------------------

CRITERIA = {
    1: "golden crisp partition of the worked example",
    2: "golden fuzzy partition and its full 5x5 relation",
    3: "golden compact-fuzzy-partition construction (7-element relation)",
    4: "crisp pipeline equals the brute-force oracle on 500 random systems",
    5: "fuzzy pipeline equals the brute-force oracle on 300 random systems",
    6: "graph-level fixpoints restrict to the system-level ones",
    7: "pipeline outputs pass their definitional checkers and laws",
    8: "simulation engines equal the oracle fixpoints on 300 random pairs",
    9: "complexity evidence from scaling slopes (informational, non-gating)",
    10: "degree queries agree with the expanded relation, amortized < 10 us",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes = {}
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            name = report.nodeid.rsplit("::", 1)[-1]
            if name.startswith("test_criterion_") and report.when == "call":
                number = int(name.split("_")[2])
                outcomes[number] = report.passed
    if not outcomes:
        return
    notes = getattr(config, "_acceptance_notes", {})
    terminalreporter.section("acceptance criteria")
    for number in sorted(outcomes):
        verdict = "PASS" if outcomes[number] else "FAIL"
        note = notes.get(number, "")
        terminalreporter.write_line(
            f"criterion {number:2d} [{verdict}] {CRITERIA[number]}{note}"
        )
