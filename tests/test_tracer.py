"""The layer timings of perfbench/tracer.py still reach every engine.

The tracer wraps names in the namespaces the CLI and the engines look them
up in.  A name that moved, or a table entry that binds a function before the
wrapper is set, would silently leave a layer's time in its caller.
"""
import contextlib
import io
import types

import pytest

from fuzzybisim.cli import run

from conftest import REPO_ROOT

EXAMPLE = str(REPO_ROOT / "models" / "example.json")

# argv -> the spans of the engine the command runs.  Directly below the CLI's
# root span exactly those spans appear, besides the front end's: an engine
# called past its wrapper would show its inner spans there instead.  The CLI
# reads bisim-between's two documents straight into their union and calls the
# union-level step, which no span wraps: its engine's span and its relation's
# build sit directly below the root.
COMMANDS = [
    (["crisp-partition", EXAMPLE], {"crisp_engine.refine"}),
    (["fuzzy-partition", EXAMPLE], {"fuzzy_engine.state_cfp"}),
    (["degree", EXAMPLE, "s1", "s5"], {"fuzzy_engine.state_cfp"}),
    (["crisp-sim", EXAMPLE, EXAMPLE], {"simulation.crisp_sim"}),
    (["fuzzy-sim", EXAMPLE, EXAMPLE], {"simulation.fuzzy_sim"}),
    (["bisim-between", EXAMPLE, EXAMPLE, "--mode", "crisp"], {"crisp_engine.refine", "relations.build"}),
    (["bisim-between", EXAMPLE, EXAMPLE, "--mode", "fuzzy"], {"fuzzy_engine.state_cfp"}),
]
FRONT = {"modelio.parse", "graph.convert", "partition.text", "partition.degree_of",
         "modelio.relation_doc", "cli.output"}
SPANS = {
    "crisp_engine.refine", "crisp_engine.restrict", "fuzzy_engine.refine", "fuzzy_engine.state_cfp",
    "refinement.adjacency", "simulation.crisp_sim", "simulation.fuzzy_sim",
}


def load_tracer():
    """perfbench/tracer.py as a module, read without writing any cache file."""
    path = REPO_ROOT / "perfbench" / "tracer.py"
    module = types.ModuleType("tracer")
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


@pytest.mark.parametrize("timing", [True, False])
def test_every_wrap_target_exists_and_is_reached(timing):
    tracer = load_tracer().Tracer()
    tracer.install(timing)
    seen = set()
    try:
        for argv, engine in COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()):
                assert tracer.root("cli.self", run, [*argv, "--json"]) == 0
            self_time, counts, spans = tracer.take()
            seen |= set(self_time)
            if timing:
                root = next(i for i, (_, _, _, parent) in enumerate(spans) if parent < 0)
                top = {tracer.names[nid] for nid, _, _, parent in spans if parent == root}
                assert top - FRONT == engine, argv
            else:
                assert counts, argv
    finally:
        tracer.uninstall()
    assert tracer.missing == set()
    assert tracer.missing_metrics == set()
    if timing:
        assert SPANS <= seen
