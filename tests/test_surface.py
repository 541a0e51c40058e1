"""Every function in ``src/fuzzybisim`` is run by the CLI, named in README's
`## Library` section, or kept for a stated reason.

A profile of ``cli.run`` over every command and flag form, on four documents
and a few faulty ones, records each function that starts.  A function that
never starts there, that the Library section does not name and that
``ALLOWED`` does not list is reported: it has no caller but the tests.
"""
import ast
import contextlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

import fuzzybisim
from fuzzybisim import cli

from test_readme import DOTTED, REPO_ROOT, library_section, resolve

SRC = Path(fuzzybisim.__file__).resolve().parent
EXAMPLE = REPO_ROOT / "models" / "example.json"

# Function (module.qualified name) -> why it stays, though the CLI never
# calls it and the Library section does not name it.  A reason that cites a
# file of perfbench/ names, in backticks, what that file reads of it.
ALLOWED = {
    "bench._digest": "a helper of `fuzzybisim.bench.run_instance`",
    "bench._metrics": "perfbench/workloads.py reads `bench._metrics`",
    "bench._tasks": "a helper of `fuzzybisim.bench.run_instance`",
    "graph.Flg.degree_pool": "perfbench/tracer.py reads `degree_pool` in `_flg_counts`",
    "graph.Flg.edges": "perfbench/tracer.py reads `edges` in `_flg_counts`",
    "model.Distribution.fuzzy": "perfbench/workloads.py reads `mu.fuzzy`",
    "model.FuzzySet.degrees": "perfbench/workloads.py reads `degrees()`",
    "model.FuzzySet.value_of": "the oracle's crisp lifting `lifted_crisp` reads it",
    "model.Nfts.distributions": "perfbench/workloads.py reads `base.distributions`",
    "model.Nfts.size_of_delta": "perfbench/workloads.py reads `size_of_delta`",
    "model.Nfts.transitions": "perfbench/workloads.py reads `base.transitions`",
    "partition.Block.__init__": "builds the `root` view that perfbench/tracer.py walks in `_cfp_shape`",
    "partition.Block.is_crisp": "perfbench/tracer.py reads `is_crisp` in `_cfp_shape`",
    "partition.CompactFuzzyPartition.root": "perfbench/tracer.py reads `result.root` in `_cfp_shape`",
    "partition.CompactFuzzyPartition.leaf_partition": "perfbench/workloads.py reads `leaf_partition`",
    "partition.CrispPartition.refines": "perfbench/workloads.py reads `refines`",
    "partition.CrispPartition.same_block": "perfbench/workloads.py reads `same_block`",
    "partition.CfpRelation.entries": "the `FuzzyRelation` entries of a fuzzy `bisimulation_between_nflts`",
    "partition.CfpRelation.positive_rows": "`relation_to_document` writes a fuzzy `bisimulation_between_nflts` by it",
    "partition._json_arrays": "reads the flat document for `fuzzybisim.CompactFuzzyPartition.from_json`",
    "partition._json_node": "reads the nested document for `fuzzybisim.CompactFuzzyPartition.from_json`",
    "refinement.RefinableMap.snapshot": "perfbench/tracer.py counts `snapshot` in `COUNTERS`",
    "relations.CrispRelation.backward": "the oracle's crisp lifting `lifted_crisp` reads it",
    "relations.LawReport.violated": "names the broken laws of `cfp_from_relation`'s `NotAnEquivalenceError`",
}

LABELED_TEXT = """kind nflts
states s t u
actions a
labels p
trans s a t:0.5
trans t a t:0.5
trans u a u:0.5
label s p:0.4
label t p:0.4
label u p:0.7
"""

# name -> a faulty document: each fault is met on a different path of the reader.
FAULTY = {
    "broken.json": "{",
    "unknown-target.json": json.dumps({"states": ["s"], "actions": ["a"],
                                       "transitions": [{"from": "s", "action": "a", "targets": {"t": "0.5"}}]}),
    "bad-label.json": json.dumps({"kind": "nflts", "states": ["s"], "actions": ["a"], "label_alphabet": ["p"],
                                  "state_labels": {"s": {"p": "2"}}}),
    "bad-directive.txt": "states s\nactions a\nmove s\n",
}


def definitions() -> tuple:
    """(starts, kinds): (file, first line) -> module.qualified name of each function defined in
    ``src/fuzzybisim``, a nested one under its enclosing function's name, and the kind, "class" or
    "function", of each such name and of each class.  A decorated function starts at its first decorator."""
    starts, kinds = {}, {}

    def walk(node, path: Path, prefix: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                kinds[name] = "class" if isinstance(child, ast.ClassDef) else "function"
                if kinds[name] == "function":
                    starts[str(path), min([child.lineno] + [d.lineno for d in child.decorator_list])] = name
                walk(child, path, name + ".")
            else:
                walk(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path, path.stem + ".")
    return starts, kinds


def _invoke(argv: list) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.run(argv)
        except SystemExit as exc:  # a usage error
            return exc.code


def cli_calls(directory: Path) -> list:
    """(argv, exit code) of every command in every flag form, on the example, a generated labeled
    and a generated plain document and a text document, then of faulty documents and inputs."""
    labeled, plain, text = directory / "labeled.json", directory / "plain.json", directory / "labeled.txt"
    text.write_text(LABELED_TEXT)
    crisp, fuzzy = directory / "crisp.json", directory / "fuzzy.json"
    crisp.write_text(json.dumps({"kind": "crisp", "pairs": [["s1", "s3"]]}))
    fuzzy.write_text(json.dumps({"kind": "fuzzy", "degrees": [["s1", "s5", "0.4"]]}))
    calls = [["gen", "--states", "6", "--labels", "2", "--seed", "3", "--out", str(labeled)],
             ["gen", "--states", "6", "--seed", "4", "--out", str(plain)]]
    forms = [[], ["--json"], ["--verbose"], ["--engine", "oracle"]]
    for doc, state in ((EXAMPLE, "s1"), (labeled, "s0"), (plain, "s0"), (text, "s")):
        doc = str(doc)
        for form in forms:
            calls += [["crisp-partition", doc, *form], ["fuzzy-partition", doc, *form],
                      ["degree", doc, state, state, *form], ["crisp-sim", doc, doc, *form],
                      ["fuzzy-sim", doc, doc, *form]]
        calls += [["bisim-between", doc, doc, "--mode", mode, *form]
                  for mode in ("crisp", "fuzzy") for form in forms[:3]]  # no --engine
    for form in forms[:2]:
        calls += [["check", str(EXAMPLE), str(crisp), "--kind", "crisp-bisim", *form],
                  ["check", str(EXAMPLE), str(fuzzy), "--kind", "fuzzy-bisim", *form],
                  ["gen", "--states", "3", *form]]
    faulty = [["check", str(EXAMPLE), str(EXAMPLE), "--kind", "crisp-bisim"], ["degree", str(EXAMPLE), "s1", "x"],
              ["gen", "--states", "2", "--support", "3:3"], ["crisp-partition", str(directory / "missing.json")]]
    for name, content in FAULTY.items():
        (directory / name).write_text(content)
        faulty.append(["crisp-partition", str(directory / name)])
    return [(argv, 0) for argv in calls] + [(argv, 1) for argv in faulty] + [(["crisp-partition"], 2)]


def reached(directory: Path) -> set:
    """(file, first line) of each function that starts while the CLI runs ``cli_calls``, the parser
    built anew and ``main`` run once; each file as ``definitions`` names it, resolved."""
    calls, started = cli_calls(directory), set()

    def profile(frame, event, arg):
        if event == "call":
            started.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    cli.build_parser.cache_clear()
    argv, previous = sys.argv, sys.getprofile()
    sys.argv = ["fuzzybisim", "crisp-partition", str(EXAMPLE)]
    sys.setprofile(profile)
    try:
        codes = [_invoke(call) for call, _ in calls]
        with contextlib.suppress(SystemExit), contextlib.redirect_stdout(io.StringIO()):
            cli.main()
    finally:
        sys.setprofile(previous)
        sys.argv = argv
    assert codes == [code for _, code in calls], "a call did not end as the profile means it to"
    resolved = {name: str(Path(name).resolve()) for name in {name for name, _ in started}}
    return {(resolved[name], line) for name, line in started}


@pytest.fixture(scope="module")
def surface(tmp_path_factory) -> tuple:
    """``definitions``, what the profile reached, and the module.qualified names the Library section names."""
    starts, kinds = definitions()
    return starts, kinds, reached(tmp_path_factory.mktemp("surface")), library_names()


def _qualified(obj):
    """module.qualified name, relative to the package, of what a Library name resolves to."""
    if isinstance(obj, type(fuzzybisim)):
        return obj.__name__.partition(".")[2] or None
    obj = getattr(obj, "fget", None) or getattr(obj, "func", None) or obj  # a property, a cached_property
    module, qualname = getattr(obj, "__module__", ""), getattr(obj, "__qualname__", None)
    return f"{module.partition('.')[2]}.{qualname}" if module.startswith("fuzzybisim.") and qualname else None


def library_names() -> set:
    """module.qualified names of what README's Library section names: each backticked dotted name,
    and each backticked exported name."""
    section = library_section()
    named = [resolve(name) for name in DOTTED.findall(section)]
    named += [getattr(fuzzybisim, name) for name in re.findall(r"`(\w+)`", section) if name in fuzzybisim.__all__]
    return {q for q in map(_qualified, named) if q}


def covered(name: str, named: set, kinds: dict) -> bool:
    """Named, or inside what is covered: a public function or class of a module, a dunder of a
    class, or a function nested in a function."""
    if name in named:
        return True
    outer, _, last = name.rpartition(".")
    if not outer or not covered(outer, named, kinds):
        return False
    kind = kinds.get(outer, "module")
    return kind == "function" or (last.startswith("__") if kind == "class" else not last.startswith("_"))


def test_every_function_is_run_by_the_cli_named_in_readme_or_allowed(surface):
    starts, kinds, started, named = surface
    unreached = {name for key, name in starts.items() if key not in started}
    bare = sorted(name for name in unreached if not covered(name, named, kinds) and name not in ALLOWED)
    assert bare == [], "only tests call these: move them into tests/, name them in README's Library, or allow them"


def test_allowed_entries_are_needed_and_perfbench_reasons_name_what_perfbench_reads(surface):
    starts, kinds, started, named = surface
    run_or_named = {name for key, name in starts.items() if key in started or covered(name, named, kinds)}
    assert sorted(set(ALLOWED) - set(starts.values())) == [], "allowed, but not a function in src/"
    assert sorted(set(ALLOWED) & run_or_named) == [], "allowed, but the CLI runs it or README names it"
    for name, reason in ALLOWED.items():
        if "perfbench/" in reason:  # a file of it, and in backticks what that file reads
            cited, words = re.findall(r"perfbench/(\w+\.py)", reason), re.findall(r"`([^`]+)`", reason)
            sources = "".join((REPO_ROOT / "perfbench" / file).read_text(encoding="utf-8") for file in cited)
            assert cited and words and all(word in sources for word in words), (name, reason)
