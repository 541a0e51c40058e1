"""The command-line front end: golden outputs, schemas, exit codes."""
import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fuzzybisim import (
    CompactFuzzyPartition,
    CrispPartition,
    Nflts,
    as_nflts,
    generate,
    greatest_crisp_simulation_flg,
    greatest_fuzzy_simulation_flg,
    model_to_document,
    parse_model,
    to_flg,
)
from fuzzybisim import cli
from fuzzybisim.cli import ENGINES, _json_text, run
from fuzzybisim.generate import random_spec

from conftest import EXAMPLE_CRISP_TEXT, EXAMPLE_FUZZY_TEXT, REPO_ROOT
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
    ["gen", "--dists", "x"], ["gen", "--support", "1:x"], ["gen", "--dists", ":"], ["bench", "--sizes", "a"],
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


def test_engine_flag_is_refused_where_no_engine_is_chosen(capsys, example_path, tmp_path):
    example = str(example_path)
    for argv in (
        ["bisim-between", example, example], ["check", example, example, "--kind", "crisp-bisim"],
        ["gen"], ["bench", "--out", str(tmp_path / "bench.csv")],
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


def _fresh_process(*argv):
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    done = subprocess.run([sys.executable, "-m", "fuzzybisim", *argv], capture_output=True, text=True, env=env,
                          timeout=60)
    return done.returncode, done.stdout, done.stderr


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

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "crisp", "pairs": [["s1", "s3"]]}))
    code, out, _ = invoke(capsys, "check", str(example_path), str(bad), "--kind", "crisp-bisim")
    assert code == 0 and out.startswith("violates")

    from fuzzybisim import relation_to_document
    from conftest import example_fuzzy_table

    fuzzy = tmp_path / "fuzzy.json"
    fuzzy.write_text(json.dumps(relation_to_document(example_fuzzy_table())))
    code, out, _ = invoke(capsys, "check", str(example_path), str(fuzzy), "--kind", "fuzzy-bisim")
    assert code == 0 and out.strip() == "holds"


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


def test_bench_command(capsys, tmp_path):
    csv_path = tmp_path / "bench.csv"
    code, out, _ = invoke(
        capsys, "bench", "--sizes", "5,10", "--oracle-max", "10", "--out", str(csv_path)
    )
    assert code == 0
    assert csv_path.exists()
    assert "records" in out


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
