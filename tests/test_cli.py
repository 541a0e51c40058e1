"""The command-line front end: golden outputs, schemas, exit codes."""
import contextlib
import gc
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fuzzybisim import (
    CompactFuzzyPartition,
    CrispPartition,
    Distribution,
    Flg,
    FuzzySet,
    GenSpec,
    ModelError,
    Nflts,
    as_nflts,
    disjoint_union,
    generate,
    greatest_crisp_simulation_flg,
    greatest_fuzzy_simulation_flg,
    model_to_document,
    parse_model,
    serialize_model,
    to_flg,
)
from fuzzybisim import bisimulation_between_nflts, cli, format_degree, fuzzy_partition_system, relation_to_document
from fuzzybisim.cli import ENGINES, _json_text, run
from fuzzybisim.partition import Block, CfpRelation
from fuzzybisim.generate import random_spec

from conftest import CATERPILLARS, EXAMPLE_CRISP_TEXT, EXAMPLE_FUZZY_TEXT, REPO_ROOT, example_fuzzy_table
from test_cli_golden import _models, _runs


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_crisp_partition_golden(capsys, example_path):
    code, out, _ = invoke(capsys, "crisp-partition", str(example_path))
    assert code == 0
    assert out.strip() == EXAMPLE_CRISP_TEXT


def test_fuzzy_partition_golden(capsys, example_path):
    code, out, _ = invoke(capsys, "fuzzy-partition", str(example_path))
    assert code == 0
    assert out.strip() == EXAMPLE_FUZZY_TEXT


def test_degree_golden(capsys, example_path):
    code, out, _ = invoke(capsys, "degree", str(example_path), "s1", "s5")
    assert code == 0
    assert out.strip() == "0.4"


def _generated_model_paths(tmp_path, count: int):
    """Paths of `count` small generated models, plain and labeled alternately."""
    rng = random.Random(5)
    paths = []
    for i in range(count):
        path = tmp_path / f"model{i}.json"
        path.write_text(json.dumps(model_to_document(generate(random_spec(rng, 5, labeled=i % 2 == 1)))))
        paths.append(path)
    return paths


def test_engines_produce_identical_output(capsys, example_path, tmp_path):
    outputs = []
    for engine in ("efficient", "oracle"):
        for command in ("crisp-partition", "fuzzy-partition"):
            code, out, _ = invoke(capsys, command, str(example_path), "--engine", engine)
            assert code == 0
            outputs.append((command, out))
    by_command = {}
    for command, out in outputs:
        by_command.setdefault(command, set()).add(out)
    assert all(len(variants) == 1 for variants in by_command.values())

    # Fuzzy partitions and degrees of generated models, text and --json,
    # byte for byte apart from the engine name and the wall time.
    masked = re.compile(r'"(engine|wall_time_ms)": [^\n]*')
    for path in _generated_model_paths(tmp_path, 20):
        states = json.loads(path.read_text())["states"]
        argvs = [["fuzzy-partition", str(path)], ["degree", str(path), states[0], states[-1]]]
        for argv in argvs + [[*argv, "--json"] for argv in argvs]:
            outs = set()
            for engine in ("efficient", "oracle"):
                code, out, _ = invoke(capsys, *argv, "--engine", engine)
                assert code == 0, argv
                outs.add(masked.sub("", out))
            assert len(outs) == 1, argv


def test_json_output_renders_no_text(capsys, example_path, monkeypatch):
    rendered = []

    def renderer(name):
        def render(*args, **kwargs):
            rendered.append(name)
            return ""
        return render

    monkeypatch.setattr(CrispPartition, "text", renderer("CrispPartition.text"))
    monkeypatch.setattr(CompactFuzzyPartition, "text", renderer("CompactFuzzyPartition.text"))
    monkeypatch.setattr(cli, "_relation_doc_text", renderer("_relation_doc_text"))
    model = str(example_path)
    argvs = [
        ["crisp-partition", model], ["fuzzy-partition", model],
        ["crisp-sim", model, model], ["fuzzy-sim", model, model],
        ["bisim-between", model, model, "--mode", "crisp"], ["bisim-between", model, model, "--mode", "fuzzy"],
    ]
    for argv in argvs:
        code, out, _ = invoke(capsys, *argv, "--json")
        assert code == 0 and json.loads(out)["result"], argv
    assert rendered == []
    for argv in argvs:  # the text form still goes through the renderers
        assert invoke(capsys, *argv)[0] == 0
    assert len(rendered) == len(argvs)


def test_relations_without_entries_print_a_placeholder(capsys, tmp_path):
    left, right = tmp_path / "left.json", tmp_path / "right.json"
    left.write_text(json.dumps(model_to_document(Nflts(["s"], ["a"], [], ["p"], {"s": {"p": 1}}))))
    right.write_text(json.dumps(model_to_document(Nflts(["t"], ["a"], [], ["p"], {}))))
    runs = [
        (["crisp-sim"], "(empty relation)"), (["fuzzy-sim"], "(zero relation)"),
        (["bisim-between", "--mode", "crisp"], "(empty relation)"),
        (["bisim-between", "--mode", "fuzzy"], "(zero relation)"),
    ]
    for argv, text in runs:
        code, out, _ = invoke(capsys, *argv, str(left), str(right))
        assert code == 0 and out == text + "\n", argv
        code, out, _ = invoke(capsys, *argv, str(left), str(right), "--json")
        result = json.loads(out)["result"]
        assert code == 0 and result.get("pairs", result.get("degrees")) == [], argv


def test_json_result_schema(capsys, example_path):
    code, out, _ = invoke(capsys, "degree", str(example_path), "s1", "s2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"command", "input", "result", "engine", "wall_time_ms"}
    assert doc["command"] == "degree"
    assert doc["result"] == "0.4"
    assert doc["engine"] == "efficient"
    assert isinstance(doc["wall_time_ms"], float)


def test_wall_time_counts_the_writing_of_the_result(monkeypatch, capsys, example_path):
    real = cli._json_pieces

    def slow(doc):
        time.sleep(0.2)
        return real(doc)

    monkeypatch.setattr(cli, "_json_pieces", slow)
    code, out, _ = invoke(capsys, "fuzzy-partition", str(example_path), "--json")
    assert code == 0 and json.loads(out)["wall_time_ms"] >= 200
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_verbose_prints_intermediate_partitions(capsys, example_path):
    code, out, err = invoke(capsys, "crisp-partition", str(example_path), "--verbose")
    assert code == 0
    assert "[crisp]" in err
    assert out.strip() == EXAMPLE_CRISP_TEXT


def test_verbose_json_output_stays_parseable(capsys, example_path):
    code, out, err = invoke(capsys, "fuzzy-partition", str(example_path), "--json", "--verbose")
    assert code == 0
    assert json.loads(out)["command"] == "fuzzy-partition"
    assert "[fuzzy] threshold 0.4:" in err
    assert "2/5" not in err


def test_deep_fuzzy_partition_is_not_a_recursion_error(capsys, tmp_path):
    # 400 unconnected states with distinct label degrees: a CFP of depth 399
    count = 400
    doc = {
        "kind": "nflts",
        "states": [f"s{i}" for i in range(count)],
        "actions": ["a"],
        "transitions": [],
        "label_alphabet": ["p"],
        "state_labels": {f"s{i}": {"p": f"{(i + 1) / 1000:.3f}"} for i in range(count)},
    }
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(doc))
    code, out, _ = invoke(capsys, "fuzzy-partition", str(path))
    assert code == 0
    assert out.startswith("{{s0}:1,{{s1}:1,")
    code, out, _ = invoke(capsys, "fuzzy-partition", str(path), "--json")
    assert code == 0
    assert json.loads(out)["result"]["degree"] == "0.001"


def test_missing_file_is_a_domain_error(capsys):
    code, _, err = invoke(capsys, "crisp-partition", "no-such-file.json")
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("role,bad", [
    ("model", "directory"), ("model", "not utf-8"),
    ("relation", "directory"), ("relation", "not utf-8"),
    ("gen --out", "directory"),
])
def test_unreadable_file_is_a_domain_error(capsys, tmp_path, example_path, role, bad):
    path = tmp_path / "bad"
    if bad == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff\xfe{")
    argv = {
        "model": ["crisp-partition", str(path)],
        "relation": ["check", str(example_path), str(path), "--kind", "crisp-bisim"],
        "gen --out": ["gen", "--out", str(path)],
    }[role]
    code, out, err = invoke(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_malformed_model_is_a_domain_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"states": ["s"], "actions": ["a"], '
                   '"transitions": [{"from": "s", "action": "a", "targets": {"s": "1.2"}}]}')
    code, _, err = invoke(capsys, "crisp-partition", str(bad))
    assert code == 1
    assert "outside" in err


def test_unknown_state_in_degree_query(capsys, example_path):
    code, _, err = invoke(capsys, "degree", str(example_path), "s1", "zz")
    assert code == 1
    assert "zz" in err


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as info:
        run(["no-such-command"])
    assert info.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as info:
        run(["crisp-partition"])
    assert info.value.code == 2


@pytest.mark.parametrize("argv", [
    ["gen", "--dists", "x"], ["gen", "--support", "1:x"], ["gen", "--dists", ":"],
])
def test_malformed_numbers_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as info:
        run(argv)
    assert info.value.code == 2
    assert f"argument {argv[1]}:" in capsys.readouterr().err


def test_a_single_number_is_a_range_of_one():
    assert cli.build_parser().parse_args(["gen", "--dists", "1"]).dists == (1, 1)


def test_bad_label_settings_are_domain_errors(capsys):
    for argv in (["gen", "--labels", "-1"], ["gen", "--labels", "1", "--label-density", "nan"]):
        code, out, err = invoke(capsys, *argv)
        assert code == 1 and out == "" and err.startswith("error: "), argv


def test_engine_choices_come_from_the_engine_table(capsys, example_path):
    example = str(example_path)
    operands = {"crisp-partition": [example], "fuzzy-partition": [example], "degree": [example, "s1", "s5"],
                "crisp-sim": [example, example], "fuzzy-sim": [example, example]}
    assert set(ENGINES) == set(operands)
    for command, engines in ENGINES.items():
        assert sorted(engines) == ["efficient", "oracle"]
        for engine in engines:
            code, _, _ = invoke(capsys, command, *operands[command], "--engine", engine)
            assert code == 0
        with pytest.raises(SystemExit) as info:
            run([command, *operands[command], "--engine", "quantum"])
        assert info.value.code == 2


def test_engine_flag_is_refused_where_no_engine_is_chosen(capsys, example_path):
    example = str(example_path)
    for argv in (
        ["bisim-between", example, example], ["check", example, example, "--kind", "crisp-bisim"],
        ["gen"],
    ):
        with pytest.raises(SystemExit) as info:
            run([*argv, "--engine", "oracle"])
        assert info.value.code == 2
        assert "--engine" in capsys.readouterr().err


def test_closed_stdout_exits_1_without_a_traceback(example_path):
    # `fuzzybisim fuzzy-sim --json m m | head -1`, with the reader gone before the first write
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    try:
        done = subprocess.run(
            [sys.executable, "-m", "fuzzybisim.cli", "fuzzy-sim", "--json", str(example_path), str(example_path)],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert done.returncode == 1
    assert done.stderr == b""


def test_python_dash_m_runs_the_cli(capsys, example_path):
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    done = subprocess.run([sys.executable, "-m", "fuzzybisim", "crisp-partition", str(example_path)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == invoke(capsys, "crisp-partition", str(example_path))[1]


def _fresh_process(*argv, flags=()):
    """Run the CLI in a new interpreter, started with the given interpreter flags, its output as UTF-8."""
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src"), "PYTHONIOENCODING": "utf-8"}
    done = subprocess.run([sys.executable, *flags, "-m", "fuzzybisim", *argv], capture_output=True, text=True,
                          encoding="utf-8", errors="backslashreplace", env=env, timeout=60)
    return done.returncode, done.stdout, done.stderr


def test_a_name_that_cannot_be_encoded_is_a_domain_error(tmp_path):
    # A lone surrogate reads from a JSON escape, but UTF-8 output cannot carry it.
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"states": ["\ud800"], "actions": ["a"], "transitions": []}), encoding="utf-8")
    for argv in (["crisp-partition", str(model)], ["crisp-sim", str(model), str(model)]):
        code, _, err = _fresh_process(*argv)
        assert code == 1 and err.startswith("error:") and "Traceback" not in err, (argv, err)


def test_documents_are_read_and_written_as_utf8_whatever_the_locale(example_path, tmp_path):
    # warn_default_encoding warns of each text file opened without an encoding; -W makes the warning an error.
    relation = tmp_path / "relation.json"
    relation.write_text('{"kind": "crisp", "pairs": [["s1", "s1"]]}', encoding="utf-8")
    for argv in (["crisp-partition", str(example_path)],
                 ["check", str(example_path), str(relation), "--kind", "crisp-bisim"],
                 ["gen", "--states", "5", "--seed", "1", "--out", str(tmp_path / "generated.json")]):
        code, _, err = _fresh_process(*argv, flags=("-X", "warn_default_encoding", "-W", "error::EncodingWarning"))
        assert code == 0, (argv, err)
    assert parse_model(tmp_path / "generated.json").names


def _comparable(argv, out: str):
    """stdout with the ``--json`` document's wall time taken out."""
    if "--json" not in argv:
        return out
    doc = json.loads(out)
    del doc["wall_time_ms"]
    return doc


def test_one_parser_serves_every_call_in_a_process(capsys, example_path):
    # The parser is built once per process, so no flag of one call may reach
    # a later one: each call prints what a fresh process prints.
    example = str(example_path)
    calls = [
        ["crisp-sim", example],  # a usage error: the right model is missing
        ["fuzzy-sim", example, example, "--verbose"],
        ["fuzzy-sim", example, example],
        ["crisp-sim", example, example, "--engine", "oracle"],
        ["bisim-between", example, example, "--mode", "fuzzy", "--json"],
        ["crisp-sim", example, example],
        ["fuzzy-partition", example, "--json", "--verbose"],
        ["fuzzy-partition", example],
    ]
    cli.build_parser.cache_clear()
    codes = []
    for argv in calls:
        try:
            code = run(argv)
        except SystemExit as exit_:
            code = exit_.code
        codes.append(code)
        captured = capsys.readouterr()
        fresh_code, fresh_out, fresh_err = _fresh_process(*argv)
        assert (code, captured.err) == (fresh_code, fresh_err), argv
        assert _comparable(argv, captured.out) == _comparable(argv, fresh_out), argv
    assert codes == [2] + [0] * (len(calls) - 1)
    assert cli.build_parser.cache_info().misses == 1


def test_bisim_between_modes(capsys, example_path):
    code, out, _ = invoke(
        capsys, "bisim-between", str(example_path), str(example_path), "--mode", "fuzzy"
    )
    assert code == 0
    assert "s1 s2 0.4" in out
    code, out, _ = invoke(
        capsys, "bisim-between", str(example_path), str(example_path), "--mode", "crisp"
    )
    assert code == 0
    assert "s3 s4" in out
    code, out, _ = invoke(capsys, "bisim-between", str(example_path), str(example_path), "--json")
    assert code == 0 and json.loads(out)["engine"] == "efficient"  # its one engine, with no --engine option


def test_two_system_commands_require_shared_alphabets(capsys, tmp_path):
    # One rule, one message, whichever command, engine or library call meets it first:
    # the oracle reaches its graph fixpoint only through the efficient engine's check.
    left = {"kind": "nflts", "states": ["s"], "actions": ["a"], "transitions": [], "label_alphabet": ["p"]}
    (tmp_path / "left.json").write_text(json.dumps(left))
    for key, other, kind in (("actions", ["b"], "action"), ("label_alphabet", ["q"], "label")):
        (tmp_path / "right.json").write_text(json.dumps({**left, key: other}))
        models = str(tmp_path / "left.json"), str(tmp_path / "right.json")
        message = f"systems must share the {kind} alphabet"
        for argv in (["crisp-sim"], ["fuzzy-sim"], ["bisim-between", "--mode", "crisp"],
                     ["bisim-between", "--mode", "fuzzy"], ["crisp-sim", "--engine", "oracle"],
                     ["fuzzy-sim", "--engine", "oracle"]):
            assert invoke(capsys, *argv, *models) == (1, "", f"error: {message}\n"), argv
        with pytest.raises(ModelError, match=f"^{message}$"):
            disjoint_union(*map(parse_model, models))


def test_sims_between_engines_agree(capsys, example_path):
    for command in ("crisp-sim", "fuzzy-sim"):
        outs = set()
        for engine in ("efficient", "oracle"):
            code, out, _ = invoke(
                capsys, command, str(example_path), str(example_path), "--engine", engine
            )
            assert code == 0
            outs.add(out)
        assert len(outs) == 1


def test_check_command(capsys, example_path, tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({
        "kind": "crisp",
        "pairs": [["s3", "s4"], ["s4", "s3"]] + [[s, s] for s in
                  ("s1", "s2", "s3", "s4", "s5")],
    }))
    code, out, _ = invoke(capsys, "check", str(example_path), str(good), "--kind", "crisp-bisim")
    assert code == 0 and out.strip() == "holds"

    # A witness names a distribution as the constructor numbers them, in first
    # use (s2 and s5 share mu3).
    bad = tmp_path / "bad.json"
    for pair, witness in ((["s1", "s3"], ["s1", "s3", "a", "mu1"]), (["s2", "s4"], ["s2", "s4", "a", "mu3"])):
        bad.write_text(json.dumps({"kind": "crisp", "pairs": [pair]}))
        code, out, err = invoke(capsys, "check", str(example_path), str(bad), "--kind", "crisp-bisim")
        assert (code, out, err) == (0, f"violates forward-transition at {witness}\n", "")
        code, out, err = invoke(capsys, "check", str(example_path), str(bad), "--kind", "crisp-bisim", "--json")
        expected = {"command": "check", "input": [str(example_path), str(bad)],
                    "result": {"holds": False, "clause": "forward-transition", "witness": witness},
                    "engine": "oracle", "wall_time_ms": json.loads(out)["wall_time_ms"]}
        assert (code, out, err) == (0, json.dumps(expected, indent=2) + "\n", "")

    from fuzzybisim import relation_to_document
    from conftest import example_fuzzy_table

    fuzzy = tmp_path / "fuzzy.json"
    fuzzy.write_text(json.dumps(relation_to_document(example_fuzzy_table())))
    code, out, _ = invoke(capsys, "check", str(example_path), str(fuzzy), "--kind", "fuzzy-bisim")
    assert code == 0 and out.strip() == "holds"


def test_check_reads_a_label_on_the_state_mark_symbol(capsys, tmp_path):
    # s carries "state*" at 1 and u no label: a relation joining them is no
    # bisimulation, though the graph engines refuse the alphabet
    model, relation = tmp_path / "model.json", tmp_path / "relation.json"
    model.write_text(serialize_model(Nflts(["s", "u"], ["a"], [], ["state*"], {"s": {"state*": 1}})))
    for pairs, expected in ([["s", "s"], ["u", "u"]], "holds"), ([["s", "u"], ["u", "s"]], "violates"):
        relation.write_text(json.dumps({"kind": "crisp", "pairs": pairs}))
        code, out, _ = invoke(capsys, "check", str(model), str(relation), "--kind", "crisp-bisim")
        assert code == 0 and out.startswith(expected)
    code, out, err = invoke(capsys, "crisp-partition", str(model))
    assert (code, out, err) == (1, "", "error: label alphabet uses the reserved vertex symbol 'state*'\n")


def test_out_of_memory_is_an_error_not_a_traceback(capsys, example_path, monkeypatch):
    def exhausted(model, verbose):
        raise MemoryError

    monkeypatch.setitem(ENGINES["crisp-partition"], "efficient", exhausted)
    assert invoke(capsys, "crisp-partition", str(example_path)) == (1, "", "error: out of memory\n")


# Every command form on the example model and on a generated labeled one:
# each engine, --json and --verbose, check of either kind, and gen.  M is the
# model, L the labeled model, C and F a crisp and a fuzzy relation on M.
GC_FORMS = [
    *([command, *flags, "M"] for command in ("crisp-partition", "fuzzy-partition")
      for flags in ([], ["--engine", "oracle"], ["--json"], ["--verbose"])),
    ["crisp-partition", "L"], ["fuzzy-partition", "--json", "L"],
    ["degree", "M", "s3", "s4"], ["degree", "--engine", "oracle", "M", "s1", "s2"],
    *([command, *flags, "M", "M"] for command in ("crisp-sim", "fuzzy-sim")
      for flags in ([], ["--engine", "oracle"], ["--verbose", "--json"])),
    ["fuzzy-sim", "L", "L"],
    ["bisim-between", "M", "M"], ["bisim-between", "--mode", "fuzzy", "--json", "M", "M"],
    ["bisim-between", "--mode", "fuzzy", "--verbose", "L", "L"],
    ["check", "--kind", "crisp-bisim", "M", "C"], ["check", "--kind", "fuzzy-bisim", "--json", "M", "F"],
    ["gen", "--states", "6", "--labels", "2", "--out", "G"], ["gen", "--json"],
]


@pytest.mark.parametrize("argv", GC_FORMS, ids=" ".join)
def test_commands_leave_no_cyclic_garbage(capsys, example_path, tmp_path, argv):
    # A command runs with the cyclic collector off (cli.run), which is safe only
    # because no command leaves a reference cycle for a collection to free.
    files = {"M": example_path, "L": tmp_path / "l.json", "C": tmp_path / "c.json", "F": tmp_path / "f.json",
             "G": tmp_path / "g.json"}
    files["L"].write_text(serialize_model(generate(GenSpec(state_count=12, label_alphabet_size=2, seed=4))))
    files["C"].write_text(json.dumps({"kind": "crisp", "pairs": [["s3", "s4"], ["s1", "s1"]]}))
    files["F"].write_text(json.dumps(relation_to_document(example_fuzzy_table())))
    cli.build_parser()  # built once per process, before the collector is turned off: its help formatters are cyclic
    gc.collect()
    gc.disable()
    try:
        assert run([str(files.get(arg, arg)) for arg in argv]) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()
    capsys.readouterr()


@pytest.mark.parametrize("argv,code", [
    (["crisp-partition", "M"], 0),
    (["crisp-partition", "missing.json"], 1),
    (["degree", "M", "s1", "nowhere"], 1),
])
@pytest.mark.parametrize("enabled", [True, False])
def test_run_restores_the_callers_collector_setting(capsys, example_path, argv, code, enabled):
    (gc.enable if enabled else gc.disable)()
    try:
        assert run([str(example_path) if arg == "M" else arg for arg in argv]) == code
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
    capsys.readouterr()


def test_gen_round_trips_through_the_parser(capsys, tmp_path):
    out_path = tmp_path / "model.json"
    code, _, _ = invoke(capsys, "gen", "--states", "4", "--seed", "5", "--out", str(out_path))
    assert code == 0
    code, out, _ = invoke(capsys, "crisp-partition", str(out_path))
    assert code == 0 and out.startswith("{")


def test_gen_is_deterministic(capsys):
    _, first, _ = invoke(capsys, "gen", "--states", "4", "--seed", "5")
    _, second, _ = invoke(capsys, "gen", "--states", "4", "--seed", "5")
    assert first == second


def test_gen_json_wraps_its_result_in_the_schema(capsys, tmp_path):
    # the model document is the result, as a file's path is with --out; gen reads no input
    _, text, _ = invoke(capsys, "gen", "--states", "4", "--seed", "5")
    code, out, _ = invoke(capsys, "gen", "--states", "4", "--seed", "5", "--json")
    doc = json.loads(out)
    assert code == 0 and set(doc) == {"command", "input", "result", "engine", "wall_time_ms"}
    assert (doc["command"], doc["input"], doc["engine"], doc["result"]) == ("gen", None, None, json.loads(text))
    path = tmp_path / "model.json"
    code, out, _ = invoke(capsys, "gen", "--states", "4", "--seed", "5", "--out", str(path), "--json")
    doc = json.loads(out)
    assert code == 0 and (doc["command"], doc["input"], doc["result"]) == ("gen", None, {"written": str(path)})
    assert path.read_text() == text


def test_json_writer_matches_json_dumps():
    docs = [
        {}, [], "x", 0, 1.5, None, True,
        {"a": [], "b": {}, "c": [1, [2, [3, {}]]], "d": {"e": None, "f": "é\n\""}},
        (1, (2, 3)), [float("nan"), float("inf"), -0.0],
        # tables (lists of non-empty lists of strings) and lists that only look like one
        [["s1", "s2", "0.5"], ["s1", "s3", "1"]], [[]], [["a", "b"], [], ["c"]], [["a"], [1]],
        [("a", "b"), ("c",)], [["é\n\"", "x"], ["\\", "\u2028"]], {"kind": "fuzzy", "degrees": [["a", "b", "1"]]},
        [["a", ["b"]]], [["a"], "bc"], [[None]], [["a", float("nan")]], [[{"k": "v"}]],
    ]
    for doc in docs:
        assert _json_text(doc) == json.dumps(doc, indent=2)


# names with non-ASCII characters, quotes, backslashes, spaces and line breaks, and the empty string
_CELLS = st.text(st.sampled_from(["s", "1", "é", "名", "😀", '"', "\\", " ", "\n", "\u2028"]), max_size=3)


@st.composite
def _tables(draw):
    """Row tables of one width in 1-4, or of mixed widths, in runs of equal first cells."""
    widths = draw(st.sampled_from([[1], [2], [3], [4], [1, 2, 3, 4]]))
    rows = []
    for first in draw(st.lists(_CELLS, max_size=5)):
        for _ in range(draw(st.integers(1, 3))):
            rows.append([first, *draw(st.lists(_CELLS, min_size=0, max_size=3))][:draw(st.sampled_from(widths))])
    return rows


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rows=_tables())
def test_json_writer_matches_json_dumps_on_row_tables(rows):
    for doc in (rows, {"result": {"kind": "fuzzy", "degrees": rows}, "rows": [rows, [rows]]}):
        assert _json_text(doc) == json.dumps(doc, indent=2)


def _between_pairs():
    """Generated model pairs, a model with itself and two different models, and a pair
    whose fuzzy bisimulation is zero everywhere."""
    rng = random.Random(13)
    for i in range(24):
        spec = random_spec(rng, 6, labeled=i % 2 == 1)
        other = GenSpec(**{**spec.__dict__, "state_count": rng.randint(spec.support_size[1], 6), "seed": spec.seed + 1})
        model = generate(spec)
        yield model, model if i % 3 == 0 else generate(other)
    yield Nflts(["s"], ["a"], [], ["p"], {"s": {"p": 1}}), Nflts(["t"], ["a"], [], ["p"], {})


def test_fuzzy_between_documents_are_the_sorted_positive_degrees(capsys, tmp_path):
    left, right, kinds = tmp_path / "left.json", tmp_path / "right.json", set()
    for a, b in _between_pairs():
        relation = bisimulation_between_nflts(a, b, "fuzzy")
        assert isinstance(relation, CfpRelation)
        degree = {(x, y): relation.cfp.degree_of(relation.inject_left[x], relation.inject_right[y])
                  for x in a.states for y in b.states}
        rows = [[x, y, format_degree(d)] for (x, y), d in sorted(degree.items()) if d]
        doc = relation_to_document(relation)
        assert doc == {"kind": "fuzzy", "degrees": rows}
        assert doc["degrees"] == [[x, y, format_degree(d)] for (x, y), d in sorted(relation.entries.items())]
        left.write_text(json.dumps(model_to_document(a)))
        right.write_text(json.dumps(model_to_document(b)))
        argv = ["bisim-between", str(left), str(right), "--mode", "fuzzy"]
        code, out, _ = invoke(capsys, *argv, "--json")
        assert code == 0 and json.loads(out)["result"] == doc and out == json.dumps(json.loads(out), indent=2) + "\n"
        code, out, _ = invoke(capsys, *argv)
        assert code == 0 and out == ("\n".join(map(" ".join, rows)) or "(zero relation)") + "\n"
        kinds.add((a is b, bool(rows)))
    assert kinds == {(True, True), (False, True), (False, False)}


def test_fuzzy_between_json_formats_each_tree_node_once(monkeypatch, capsys, tmp_path):
    model = generate(GenSpec(state_count=40, distributions_per_state_action=(1, 2), support_size=(1, 3),
                             value_pool_size=5, seed=8))
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_to_document(model)))
    nodes = len(bisimulation_between_nflts(model, model, "fuzzy").cfp._degrees)  # one degree per tree node
    formatted, read = [], []
    real = cli.format_degree  # the CLI writes the table from the grouped LCA pass
    monkeypatch.setattr(cli, "format_degree", lambda d: formatted.append(d) or real(d))
    rows, entries = CfpRelation.rows, CfpRelation.entries.func
    monkeypatch.setattr(CfpRelation, "rows", lambda self: read.append("rows") or rows(self))
    monkeypatch.setattr(CfpRelation, "entries", property(lambda self: read.append("entries") or entries(self)))
    code, out, _ = invoke(capsys, "bisim-between", str(path), str(path), "--mode", "fuzzy", "--json")
    assert code == 0 and read == []
    assert len(json.loads(out)["result"]["degrees"]) > 10 * nodes
    assert 0 < len(formatted) <= nodes


def _escaped_pair():
    """Left names that JSON escapes (a quote, a backslash, a non-ASCII letter, U+2028) or
    that hold a space; three of them share one leaf, and three have no positive row."""
    half = Fraction(1, 2)
    left = Nflts(['q"x', "b\\s", "\u00e9", "\u2028", "a b", "z"], ["a"],
                 [("a b", "a", {"\u00e9": 1}), ("\u00e9", "a", {"z": half})], ["p", "q"],
                 {'q"x': {"p": half}, "b\\s": {"p": half}, "\u2028": {"p": half}, "\u00e9": {"p": Fraction(1, 4)},
                  "a b": {"p": Fraction(3, 4)}, "z": {"q": 1}})
    right = Nflts(["r1", "r 2", 'r"3'], ["a"], [("r1", "a", {"r 2": half})], ["p", "q"],
                  {"r1": {"p": Fraction(1, 4)}, "r 2": {"p": half}, 'r"3': {"p": 1}})
    return left, right


def test_fuzzy_between_output_is_the_bytes_of_its_document(capsys, tmp_path):
    # --json prints json.dumps of the whole schema around relation_to_document, and the text form
    # its rows, for rows written straight from the grouped LCA pass
    left, right = tmp_path / "left.json", tmp_path / "right.json"
    for a, b in [*_between_pairs(), _escaped_pair()]:
        rows = relation_to_document(bisimulation_between_nflts(a, b, "fuzzy"))["degrees"]
        left.write_text(json.dumps(model_to_document(a)))
        right.write_text(json.dumps(model_to_document(b)))
        argv = ["bisim-between", str(left), str(right), "--mode", "fuzzy"]
        code, out, _ = invoke(capsys, *argv, "--json")
        doc = {"command": "bisim-between", "input": [str(left), str(right)], "result": {"kind": "fuzzy", "degrees": rows},
               "engine": "efficient", "wall_time_ms": json.loads(out)["wall_time_ms"]}
        assert code == 0 and out == json.dumps(doc, indent=2) + "\n"
        code, out, _ = invoke(capsys, *argv)
        assert code == 0 and out == ("\n".join(map(" ".join, rows)) or "(zero relation)") + "\n"
    assert rows and {"a b", "z", "\u00e9"}.isdisjoint(row[0] for row in rows)  # the escaped pair's states without a row


def test_fuzzy_between_row_groups_share_cells():
    # one cells list per leaf of the left states, and one cell per (right state, tree node)
    model = generate(GenSpec(state_count=40, distributions_per_state_action=(1, 2), support_size=(1, 3),
                             value_pool_size=5, seed=8))
    shared = 0
    for a, b in [*_between_pairs(), _escaped_pair(), (model, model)]:
        relation = bisimulation_between_nflts(a, b, "fuzzy")
        made = []
        groups = [*relation.row_groups(lambda y, d: made.append(y) or (y, d))]
        cfp = relation.cfp
        assert len(made) <= len(b.states) * len(cfp._degrees)  # one degree per tree node
        depth = [0] * len(cfp._parent)  # parents precede their children
        for i, p in enumerate(cfp._parent[1:], 1):
            depth[i] = depth[p] + 1
        ancestors = {y: depth[i] + 1 for i, leaf in enumerate(cfp._elements) if leaf for y in leaf}
        assert len(made) <= sum(ancestors[relation.inject_right[y]] for y in b.states)  # its LCAs with any x
        assert [[x, y, d] for x, cells in groups for y, d in cells] == relation.positive_rows()
        leaf_cells = {}
        for x, cells in groups:
            assert leaf_cells.setdefault(cfp._position[relation.inject_left[x]], cells) is cells
        shared += len(groups) - len(leaf_cells)
    assert shared >= 2  # the escaped pair alone puts three left states in one leaf


def test_cfp_entries_are_the_dict_of_the_positive_rows(monkeypatch):
    # entries reads the (b, d) cells of the grouped LCA pass, with no [a, b, d] row list
    relations = [bisimulation_between_nflts(a, b, "fuzzy") for a, b in [*_between_pairs(), _escaped_pair()]]
    expected = [{(x, y): d for x, y, d in relation.positive_rows()} for relation in relations]
    monkeypatch.setattr(CfpRelation, "positive_rows", lambda self, of=None: pytest.fail("entries built the rows"))
    assert [relation.entries for relation in relations] == expected
    assert any(expected) and not all(expected)  # the zero relation is among them


def test_json_output_of_the_goldens_is_json_dumps(capsys, example_path, tmp_path):
    example = str(example_path)
    for argv in (
        ["crisp-partition", example], ["fuzzy-partition", example], ["degree", example, "s1", "s5"],
        ["crisp-sim", example, example], ["fuzzy-sim", example, example],
        ["bisim-between", example, example, "--mode", "fuzzy"],
    ):
        code, out, _ = invoke(capsys, *argv, "--json")
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
        assert out == _json_text(json.loads(out)) + "\n"
    # every engine command on the generated models of the golden table
    for model in _models(tmp_path):
        for case, argv in _runs(*model):
            code, out, _ = invoke(capsys, *argv, "--json")
            assert code == 0, case
            assert out == json.dumps(json.loads(out), indent=2) + "\n", case


def test_deep_fuzzy_partition_json_output_parses(capsys, tmp_path):
    # 700 unconnected states with distinct label degrees: a CFP of depth 699,
    # deeper than the json encoder's recursion allows
    count = 700
    doc = {
        "kind": "nflts",
        "states": [f"s{i}" for i in range(count)],
        "actions": ["a"],
        "transitions": [],
        "label_alphabet": ["p"],
        "state_labels": {f"s{i}": {"p": f"{(i + 1) / 1000:.3f}"} for i in range(count)},
    }
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(doc))
    code, out, err = invoke(capsys, "fuzzy-partition", str(path), "--json")
    assert code == 0, err
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(10 * count)  # json.loads recurses once per nesting level
    try:
        result = json.loads(out)["result"]
    finally:
        sys.setrecursionlimit(limit)
    assert result["degree"] == "0.001"
    depth, stack = 0, [(result, 0)]
    while stack:
        node, level = stack.pop()
        depth = max(depth, level)
        stack.extend((child, level + 1) for child in node.get("subblocks", ()))
    assert depth == count - 1


def test_fuzzy_partition_json_is_written_from_the_tree_arrays(monkeypatch, capsys, tmp_path):
    # one leaf; random-sweep's flat tree (40 degrees, nothing merges); a tree of depth 699
    flat = generate(GenSpec(state_count=60, action_count=2, distributions_per_state_action=(1, 2),
                            support_size=(1, 3), value_pool_size=40, seed=7))
    models = [Nflts(["s"], ["a"], []), flat, CATERPILLARS["label caterpillar"](700)]
    paths, results = [], []
    for i, model in enumerate(models):
        paths.append(tmp_path / f"m{i}.json")
        paths[-1].write_text(json.dumps(model_to_document(model)))
        results.append(fuzzy_partition_system(parse_model(paths[-1])).to_json())
    assert [len(r.get("subblocks", ())) for r in results[:2]] == [0, 60]
    monkeypatch.setattr(CompactFuzzyPartition, "to_json", lambda self: pytest.fail("the writer built the node dicts"))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(10 * 700)  # json.loads and json.dumps recurse once per nesting level
    try:
        for path, result in zip(paths, results):
            code, out, err = invoke(capsys, "fuzzy-partition", str(path), "--json")
            assert code == 0, err
            assert out == json.dumps({**json.loads(out), "result": result}, indent=2) + "\n", path.name
    finally:
        sys.setrecursionlimit(limit)


def _verbose_levels(err: str, prefix: str):
    levels = []
    for line in err.splitlines():
        match = re.fullmatch(rf"\[{prefix}\] threshold ([0-9.]+): (\d+) pairs alive, (\d+) removed", line)
        if match:
            levels.append((Fraction(match[1]), int(match[2]), int(match[3])))
    return levels


def test_simulation_verbose_reports_each_level(capsys, example_path):
    example = str(example_path)
    g = to_flg(as_nflts(parse_model(example_path)))
    fuzzy = greatest_fuzzy_simulation_flg(g, g)
    crisp = greatest_crisp_simulation_flg(g, g)
    for command, prefix in (("crisp-sim", "crisp-sim"), ("fuzzy-sim", "fuzzy-sim")):
        _, quiet, _ = invoke(capsys, command, example, example)
        code, out, err = invoke(capsys, command, example, example, "--verbose")
        assert code == 0 and out == quiet
        levels = _verbose_levels(err, prefix)
        assert levels and len(levels) == len(err.splitlines())
        if command == "crisp-sim":
            assert [(t, alive) for t, alive, _ in levels] == [(1, len(crisp))]
            continue
        assert [t for t, _, _ in levels] == sorted(set(g.degree_pool()) | {1})
        previous = len(g.vertices) ** 2
        for threshold, alive, removed in levels:
            assert alive == len(fuzzy.cut(threshold)) and removed == previous - alive
            previous = alive


def test_simulation_json_verbose_stdout_parses(capsys, example_path):
    example = str(example_path)
    for command in ("crisp-sim", "fuzzy-sim"):
        code, out, err = invoke(capsys, command, example, example, "--json", "--verbose")
        assert code == 0
        assert json.loads(out)["command"] == command
        assert f"[{command}] threshold 1:" in err


# -- robustness: no user document may raise out of cli.run ------------------

_STATES = ["s0", "s1", "s2"]
_junk = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 2), st.floats(), st.text(max_size=3),
    st.lists(st.integers(0, 3), max_size=2), st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
_degrees = st.one_of(
    st.sampled_from(["0", "1", "0.5", "5e-1", "1/3", "1.5", "-0.1", "abc", "", "1/0", "nan", "inf",
                     "1e-99999", "1e99999999", "1e-4300"]),
    st.decimals(min_value=0, max_value=1, places=3).map(str),
    _junk,
)
_refs = st.sampled_from(_STATES + ["zz"])  # "zz" is never a state


@st.composite
def _model_documents(draw):
    kind = draw(st.sampled_from(["nfts", "nflts", "dfa"]))
    doc = {
        "format_version": draw(st.sampled_from(["1", "1", "2", 1])),
        "kind": kind,
        "states": draw(st.lists(st.sampled_from(_STATES), unique=True, max_size=3)),
        "actions": draw(st.lists(st.sampled_from(["a", "b", "eps*"]), unique=True, max_size=2)),
        "transitions": draw(st.lists(st.fixed_dictionaries({
            "from": st.one_of(_refs, _junk),
            "action": st.sampled_from(["a", "b", "c"]),
            "targets": st.one_of(st.dictionaries(_refs, _degrees, max_size=3), _junk),
        }), max_size=4)),
    }
    if kind != "nfts" or draw(st.booleans()):
        doc["label_alphabet"] = draw(st.lists(st.sampled_from(["p", "q", "state*"]), unique=True, max_size=2))
        doc["state_labels"] = draw(st.dictionaries(
            _refs, st.one_of(st.dictionaries(st.sampled_from(["p", "q", "r"]), _degrees, max_size=2), _junk),
            max_size=3))
    if draw(st.booleans()):  # a deep label pool: one distinct label degree per state
        count = draw(st.integers(1, 40))
        doc.update(kind="nflts", states=[f"d{i}" for i in range(count)], label_alphabet=["p"],
                   state_labels={f"d{i}": {"p": f"{(i + 1) / 100:.2f}"} for i in range(count)})
    for field in draw(st.lists(st.sampled_from(sorted(doc)), unique=True, max_size=2)):
        if draw(st.booleans()):
            del doc[field]
        else:
            doc[field] = draw(_junk)
    return json.dumps(doc)


_text_documents = st.lists(st.sampled_from([
    "kind nflts", "kind nfts", "kind dfa", "states s0 s1", "actions a", "labels p", "trans s0 a s1:0.5",
    "trans s0 a zz:1", "trans s0", "trans s0 a s1", "label s0 p:2", "label s0 q:0.5", "label", "bogus",
    "trans s0 a s1:1e-99999",
]), max_size=6).map("\n".join)


_example_states = st.sampled_from(["s1", "s2", "zz"])
_relation_documents = st.fixed_dictionaries({
    "kind": st.sampled_from(["crisp", "fuzzy", "other"]),
    "pairs": st.one_of(st.lists(st.lists(st.one_of(_example_states, _junk), max_size=3), max_size=3), _junk),
    "degrees": st.one_of(st.lists(st.lists(st.one_of(_example_states, _degrees), max_size=4), max_size=3), _junk),
}).map(json.dumps)


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(text=st.one_of(_model_documents(), _text_documents), relation_text=_relation_documents)
def test_malformed_and_extreme_documents_exit_cleanly(tmp_path_factory, text, relation_text):
    folder = tmp_path_factory.mktemp("doc")
    (folder / "model.txt").write_text(text)
    (folder / "relation.json").write_text(relation_text)
    model, relation = str(folder / "model.txt"), str(folder / "relation.json")
    example = str(REPO_ROOT / "models" / "example.json")
    for argv in (
        ["crisp-partition", model], ["fuzzy-partition", model, "--json"], ["degree", model, "s0", "d1"],
        ["crisp-partition", model, "--engine", "oracle"], ["fuzzy-partition", model, "--engine", "oracle", "--json"],
        ["crisp-sim", model, model], ["fuzzy-sim", model, model, "--json", "--verbose"],
        ["bisim-between", model, model, "--mode", "crisp"], ["bisim-between", model, model, "--mode", "fuzzy", "--json"],
        ["check", model, model, "--kind", "fuzzy-bisim"],
        ["check", example, relation, "--kind", "crisp-bisim"], ["check", example, relation, "--kind", "fuzzy-bisim"],
    ):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = run(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2), (argv, text)
        assert "Traceback" not in err.getvalue()
        if code == 0 and "--json" in argv:
            json.loads(out.getvalue())


def test_engine_commands_build_no_object_views(monkeypatch, capsys, tmp_path):
    # The efficient engines read the interned arrays, and every output reads
    # the compact fuzzy partition's arrays: parsing a model and running a
    # command on it builds no FuzzySet, no Distribution and no Block.
    paths = []
    for labels in (0, 2):
        generated = generate(GenSpec(state_count=12, distributions_per_state_action=(1, 2), support_size=(1, 3),
                                     value_pool_size=5, label_alphabet_size=labels, label_density=0.5, seed=8))
        paths.append(tmp_path / f"labels{labels}.json")
        paths[-1].write_text(json.dumps(model_to_document(generated)))
    built = []
    for cls in (FuzzySet, Distribution, Block):
        real = cls.__init__
        monkeypatch.setattr(cls, "__init__", lambda self, *args, real=real, **kwargs:
                            built.append(type(self)) or real(self, *args, **kwargs))
    for model in (str(REPO_ROOT / "models" / "example.json"), *map(str, paths)):
        parse_model(model)
        for argv in (["crisp-partition", model], ["fuzzy-partition", model], ["degree", model, "s1", "s2"],
                     ["crisp-sim", model, model], ["fuzzy-sim", model, model],
                     ["bisim-between", model, model, "--mode", "crisp"],
                     ["bisim-between", model, model, "--mode", "fuzzy"]):
            for extra in ([], ["--json"], ["--verbose"]):
                assert invoke(capsys, *argv, *extra)[0] == 0, argv + extra
    assert built == []
    assert invoke(capsys, "crisp-partition", str(paths[1]), "--engine", "oracle")[0] == 0
    assert built  # the counters see the oracle's object views
    assert fuzzy_partition_system(parse_model(str(paths[1]))).root and Block in built  # and the tree's view


def test_engine_commands_build_no_vertex(monkeypatch, capsys, tmp_path):
    # The engines refine dense vertex ids and read a state's name as
    # names[i], i < |S|: a query builds no graph's Vertex list, by_id, unless
    # --verbose prints the graph partition.
    path = tmp_path / "labeled.json"
    path.write_text(json.dumps(model_to_document(generate(random_spec(random.Random(7), 10, labeled=True)))))
    graphs, real = [], Flg.__init__
    monkeypatch.setattr(Flg, "__init__", lambda self, *args: graphs.append(self) or real(self, *args))
    for model in (str(REPO_ROOT / "models" / "example.json"), str(path)):
        for argv in (["crisp-partition", model], ["fuzzy-partition", model], ["degree", model, "s1", "s2"],
                     ["crisp-sim", model, model], ["fuzzy-sim", model, model],
                     ["bisim-between", model, model, "--mode", "crisp"],
                     ["bisim-between", model, model, "--mode", "fuzzy"]):
            for extra in ([], ["--json"]):
                assert invoke(capsys, *argv, *extra)[0] == 0, argv + extra
    assert graphs and [g for g in graphs if "by_id" in vars(g)] == []
    assert invoke(capsys, "crisp-partition", str(path), "--verbose")[0] == 0
    assert "by_id" in vars(graphs[-1])  # built on first use, as the graph partition's vertices


def test_each_query_lays_out_one_graph_per_system(monkeypatch, capsys, tmp_path):
    # The system holds the system and to_flg lays its graph out: a query lays out one
    # graph per system it runs on, and bisim-between only its union's, not its inputs'.
    path = tmp_path / "labeled.json"
    path.write_text(json.dumps(model_to_document(generate(random_spec(random.Random(7), 10, labeled=True)))))
    graphs, real = [], Flg.__init__
    monkeypatch.setattr(Flg, "__init__", lambda self, *args: graphs.append(self) or real(self, *args))
    for model in (str(REPO_ROOT / "models" / "example.json"), str(path)):
        assert not {"out", "preds", "label_ids", "label_maps"} & vars(parse_model(model)).keys()
        for argv, layouts in ((["crisp-partition", model], 1), (["fuzzy-partition", model], 1),
                              (["degree", model, "s1", "s2"], 1), (["crisp-sim", model, model], 2),
                              (["fuzzy-sim", model, model], 2), (["bisim-between", model, model, "--mode", "crisp"], 1),
                              (["bisim-between", model, model, "--mode", "fuzzy"], 1)):
            engines = ["efficient", "oracle"] if argv[0] in ENGINES else [None]
            for engine, extra in ((engine, extra) for engine in engines for extra in ([], ["--json"], ["--verbose"])):
                graphs.clear()
                options = ["--engine", engine] if engine else []
                assert invoke(capsys, *argv, *options, *extra)[0] == 0, argv + options + extra
                assert len(graphs) == layouts, argv + options + extra
