"""The command-line front end: golden outputs, schemas, exit codes."""
import json

import pytest

from fuzzybisim.cli import run

from conftest import EXAMPLE_CRISP_TEXT, EXAMPLE_FUZZY_TEXT


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


def test_engines_produce_identical_output(capsys, example_path):
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
