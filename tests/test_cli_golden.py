"""Recorded digests of the CLI's output for every engine command.

Each case runs one command with one engine three times: plain (text stdout),
``--json`` (stdout without ``wall_time_ms``, inputs by file name) and
``--verbose`` (stderr).  The models are the worked example, a model with an
empty-support distribution and twelve small generated ones, plain and
labeled; the two-model commands pair each model with itself or with a
sibling drawn with the same alphabets.  Run this file as a script to print
the table for the current code, or with ``--diff`` to print only the cases
whose digests differ from ``GOLDEN``, naming which of the text, ``--json``
and stderr digests differ, and to exit 1 if there is one:

    PYTHONPATH=src python tests/test_cli_golden.py [--diff]
"""
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

from fuzzybisim import (
    CrispPartition, GenSpec, as_nflts, disjoint_union, generate, model_to_document, oracle, parse_model, to_flg,
)
from fuzzybisim.cli import run
from fuzzybisim.generate import random_spec

REPO_ROOT = Path(__file__).resolve().parent.parent
EXAMPLE = REPO_ROOT / "models" / "example.json"
# s1's distribution has an empty support, and so has s2's first one (its only
# target has degree 0).  That one distribution simulates every state: the only
# distribution-state pairs the simulations' --verbose counts include.
EMPTY_SUPPORT = {
    "format_version": "1", "kind": "nfts", "states": ["s1", "s2"], "actions": ["a"],
    "transitions": [{"from": "s1", "action": "a", "targets": {}},
                    {"from": "s2", "action": "a", "targets": {"s1": "0"}},
                    {"from": "s2", "action": "a", "targets": {"s2": "0.5"}}],
}


def _models(directory: Path):
    """(name, path, sibling path) of the example, the empty-support model and
    twelve generated models."""
    yield "example", EXAMPLE, EXAMPLE
    path = directory / "empty-support.json"
    path.write_text(json.dumps(EMPTY_SUPPORT))
    yield "empty-support", path, path
    rng = random.Random(20261018)
    for i in range(12):
        spec = random_spec(rng, 6, labeled=i % 2 == 1)
        sibling = dataclasses.replace(spec, seed=spec.seed + 1, state_count=rng.randint(1, 6))
        sibling.support_size = (1, min(sibling.support_size[1], sibling.state_count))
        paths = []
        for suffix, s in (("", spec), ("-sibling", sibling)):
            path = directory / f"gen{i}{suffix}.json"
            path.write_text(json.dumps(model_to_document(generate(s))))
            paths.append(path)
        yield f"gen{i}", paths[0], paths[0] if i % 3 == 0 else paths[1]


def _runs(name: str, path: Path, sibling: Path):
    """(case id, argv) of every engine command on one model."""
    states = parse_model(path).states
    x, y = min(states), max(states)
    for engine in ("efficient", "oracle"):
        yield f"{name} crisp-partition {engine}", ["crisp-partition", str(path), "--engine", engine]
        yield f"{name} fuzzy-partition {engine}", ["fuzzy-partition", str(path), "--engine", engine]
        yield f"{name} degree {engine}", ["degree", str(path), x, y, "--engine", engine]
        yield f"{name} crisp-sim {engine}", ["crisp-sim", str(path), str(sibling), "--engine", engine]
        yield f"{name} fuzzy-sim {engine}", ["fuzzy-sim", str(path), str(sibling), "--engine", engine]
    for mode in ("crisp", "fuzzy"):
        yield f"{name} bisim-between {mode}", ["bisim-between", str(path), str(sibling), "--mode", mode]


def _invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _outputs(argv):
    """Digests of the text stdout, the normalised --json stdout and the --verbose stderr."""
    code, text, _ = _invoke(argv)
    assert code == 0, argv
    code, raw, _ = _invoke([*argv, "--json"])
    assert code == 0, argv
    doc = json.loads(raw)
    del doc["wall_time_ms"]
    inputs = doc["input"]
    doc["input"] = [Path(p).name for p in inputs] if isinstance(inputs, list) else Path(inputs).name
    code, verbose_out, verbose_err = _invoke([*argv, "--verbose"])
    assert code == 0 and verbose_out == text, argv
    return _digest(text), _digest(json.dumps(doc, indent=2)), _digest(verbose_err)


def _table(directory: Path) -> dict:
    return {case: _outputs(argv) for model in _models(directory) for case, argv in _runs(*model)}


def test_cli_output_matches_the_recorded_digests(tmp_path):
    table = _table(tmp_path)
    assert table.keys() == GOLDEN.keys()
    wrong = {case: (got, GOLDEN[case]) for case, got in table.items() if got != GOLDEN[case]}
    assert not wrong


def test_crisp_verbose_traces_end_with_the_oracle_graph_partition(tmp_path):
    # The split lines number blocks as the kernel does; the last line is checked by content.
    for name, path, sibling in _models(tmp_path):
        a, b = parse_model(path), parse_model(sibling)
        for argv, model in ((["crisp-partition", str(path)], a),
                            (["bisim-between", str(path), str(sibling), "--mode", "crisp"], disjoint_union(a, b)[0])):
            expected = CrispPartition.from_relation(oracle.gfp_crisp_bisim_flg(to_flg(model))).text()
            assert _invoke([*argv, "--verbose"])[2].splitlines()[-1] == f"[crisp] graph partition: {expected}", argv


def _output_under_hash_seed(seed: int, *argv) -> tuple:
    env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": str(REPO_ROOT / "src")}
    done = subprocess.run([sys.executable, "-m", "fuzzybisim.cli", *argv], capture_output=True,
                          text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout, done.stderr


def test_verbose_traces_do_not_depend_on_the_hash_seed(tmp_path):
    # Few states and one degree, so most distributions have several sources.
    shared = generate(GenSpec(state_count=6, distributions_per_state_action=(1, 3), support_size=(1, 1),
                              value_pool_size=3, label_alphabet_size=1, label_density=0.5, seed=4))
    assert len(shared.delta) >= 2 * len(shared.distributions)
    path = tmp_path / "shared.json"
    path.write_text(json.dumps(model_to_document(shared)))
    model = str(EXAMPLE)
    for argv in (["bisim-between", model, model, "--mode", "fuzzy", "--verbose"],
                 ["crisp-sim", model, model, "--verbose"],
                 ["crisp-partition", str(path), "--verbose"],
                 ["fuzzy-partition", str(path), "--verbose"],
                 ["gen", "--states", "8", "--labels", "2", "--seed", "3"]):
        outputs = {_output_under_hash_seed(seed, *argv) for seed in (1, 2, 3)}
        assert len(outputs) == 1, argv
    m = parse_model(EXAMPLE)
    assert to_flg(as_nflts(m)).edges == to_flg(m).edges


# case -> (text stdout, --json stdout, --verbose stderr), sha256 prefixes.
# Distribution vertices in --verbose traces are numbered in document order.
GOLDEN = {
    'example crisp-partition efficient': ('308456de564f', '3b2e7dbdde3c', 'f1aca7ce418f'),
    'example fuzzy-partition efficient': ('af1d73c8af25', '3b4e6242062e', '4327bc462109'),
    'example degree efficient': ('c36fdbcf57ed', '6a11dedc284c', '4327bc462109'),
    'example crisp-sim efficient': ('7ee8011703b1', '4f7d9f7ff81f', 'f43ff12d771f'),
    'example fuzzy-sim efficient': ('cf6ee96dab5d', '3619c46da257', 'bdd445ab491c'),
    'example crisp-partition oracle': ('308456de564f', '2be641b31156', 'e3b0c44298fc'),
    'example fuzzy-partition oracle': ('af1d73c8af25', '6dec6a75806e', 'e3b0c44298fc'),
    'example degree oracle': ('c36fdbcf57ed', '526dfe8e3218', 'e3b0c44298fc'),
    'example crisp-sim oracle': ('7ee8011703b1', 'f4ac89c75ecf', 'e3b0c44298fc'),
    'example fuzzy-sim oracle': ('cf6ee96dab5d', 'e74b36b68080', 'e3b0c44298fc'),
    'example bisim-between crisp': ('7ee8011703b1', 'be8a12adff97', '565552d13458'),
    'example bisim-between fuzzy': ('9bd763a73497', 'bfe38294e1dd', '5c3288aa219b'),
    'empty-support crisp-partition efficient': ('7a3937d8ac31', '2e21a4077fed', '1d21c8ef3231'),
    'empty-support fuzzy-partition efficient': ('294a23854cc3', 'd59a3fba8889', 'fd330b5b40a3'),
    'empty-support degree efficient': ('9a271f2a916b', '297c08b78e62', 'fd330b5b40a3'),
    'empty-support crisp-sim efficient': ('16636762a6ba', '1e111c9d881b', '2e64d288bf3e'),
    'empty-support fuzzy-sim efficient': ('0ea86c5ef471', '568e6d24f520', '14db460e50a3'),
    'empty-support crisp-partition oracle': ('7a3937d8ac31', 'd4b35ba871b1', 'e3b0c44298fc'),
    'empty-support fuzzy-partition oracle': ('294a23854cc3', 'c45d5a554c87', 'e3b0c44298fc'),
    'empty-support degree oracle': ('9a271f2a916b', 'cb776ce2e8ce', 'e3b0c44298fc'),
    'empty-support crisp-sim oracle': ('16636762a6ba', '2c1b1af8f10d', 'e3b0c44298fc'),
    'empty-support fuzzy-sim oracle': ('0ea86c5ef471', 'b90a184b5dc2', 'e3b0c44298fc'),
    'empty-support bisim-between crisp': ('2acde3ef1003', '295270cf8caa', 'c2ef52b773f3'),
    'empty-support bisim-between fuzzy': ('ead2042dc4fd', '1cc8f654d4df', '5dea413ddefc'),
    'gen0 crisp-partition efficient': ('e8b080da64fa', 'c02cf848db60', '84b261045c19'),
    'gen0 fuzzy-partition efficient': ('98e43695c184', 'be312a0463fb', 'e627a6f18c00'),
    'gen0 degree efficient': ('9a271f2a916b', '8e37bff604aa', 'e627a6f18c00'),
    'gen0 crisp-sim efficient': ('f1903923ca57', '16b7f1ed1a4a', '699fbac5182f'),
    'gen0 fuzzy-sim efficient': ('3713d234bf48', 'f221a8b40693', 'e351145faf02'),
    'gen0 crisp-partition oracle': ('e8b080da64fa', '83999652daca', 'e3b0c44298fc'),
    'gen0 fuzzy-partition oracle': ('98e43695c184', '110a239ca86f', 'e3b0c44298fc'),
    'gen0 degree oracle': ('9a271f2a916b', 'fdba85d8b499', 'e3b0c44298fc'),
    'gen0 crisp-sim oracle': ('f1903923ca57', '2adc2dde70a6', 'e3b0c44298fc'),
    'gen0 fuzzy-sim oracle': ('3713d234bf48', '167fe2a9d135', 'e3b0c44298fc'),
    'gen0 bisim-between crisp': ('f1903923ca57', 'bb5ae4f67945', '4ebe0319eb66'),
    'gen0 bisim-between fuzzy': ('3713d234bf48', '1664c2c853a8', 'abd7739ce52c'),
    'gen1 crisp-partition efficient': ('542c5af6d5cb', '2b1e3e449771', '94e125c5452f'),
    'gen1 fuzzy-partition efficient': ('921ef6ac61cf', '863dc35d9ebf', '6b822a062a22'),
    'gen1 degree efficient': ('4355a46b19d3', 'ceb81667e43e', '6b822a062a22'),
    'gen1 crisp-sim efficient': ('703a2ca3b0f1', '81dcabdc574c', '3374a5f095c3'),
    'gen1 fuzzy-sim efficient': ('0468a3de864c', 'de274212592e', '8caccb209824'),
    'gen1 crisp-partition oracle': ('542c5af6d5cb', '7c0df1addf3b', 'e3b0c44298fc'),
    'gen1 fuzzy-partition oracle': ('921ef6ac61cf', '2bb018972399', 'e3b0c44298fc'),
    'gen1 degree oracle': ('4355a46b19d3', 'c1aeebc9c4a4', 'e3b0c44298fc'),
    'gen1 crisp-sim oracle': ('703a2ca3b0f1', '21967e7aeedd', 'e3b0c44298fc'),
    'gen1 fuzzy-sim oracle': ('0468a3de864c', 'd371d278518f', 'e3b0c44298fc'),
    'gen1 bisim-between crisp': ('b4946c673451', '8e05b1cc12d2', '75dea0241757'),
    'gen1 bisim-between fuzzy': ('a68b7fedbdbf', 'f8f91c9e387f', '60793bfeb75e'),
    'gen2 crisp-partition efficient': ('9f0a10f7bf2a', '109040c3b8dc', '2e9453b0073b'),
    'gen2 fuzzy-partition efficient': ('cda3a55ae0d3', 'c6c31ee558d4', 'c3882660b467'),
    'gen2 degree efficient': ('9a271f2a916b', '2a634356f6a4', 'c3882660b467'),
    'gen2 crisp-sim efficient': ('3170366d6fc3', 'c92cc096ec03', '7a8102beafa2'),
    'gen2 fuzzy-sim efficient': ('dab627b6e0ec', '9c1aa90a48f4', 'aa21dda9ff71'),
    'gen2 crisp-partition oracle': ('9f0a10f7bf2a', 'ea23ad7de059', 'e3b0c44298fc'),
    'gen2 fuzzy-partition oracle': ('cda3a55ae0d3', '184815ca1fb4', 'e3b0c44298fc'),
    'gen2 degree oracle': ('9a271f2a916b', 'b68543458ea2', 'e3b0c44298fc'),
    'gen2 crisp-sim oracle': ('3170366d6fc3', '6ece51eb2919', 'e3b0c44298fc'),
    'gen2 fuzzy-sim oracle': ('dab627b6e0ec', '4ce9dcd264c9', 'e3b0c44298fc'),
    'gen2 bisim-between crisp': ('18b2cbb79103', 'd525ea828f79', 'f7f050182ef7'),
    'gen2 bisim-between fuzzy': ('4f2038fce79b', 'a1d49077bf25', '8b02fd92ae91'),
    'gen3 crisp-partition efficient': ('e8b080da64fa', '8c27ca9edaeb', '3a1c19a8bc27'),
    'gen3 fuzzy-partition efficient': ('98e43695c184', '8a66e37f2cbb', '3d84f542918f'),
    'gen3 degree efficient': ('9a271f2a916b', 'd29ee7249bc4', '3d84f542918f'),
    'gen3 crisp-sim efficient': ('ad1cb90685ae', 'dfa30153108c', '2944cf19fa3a'),
    'gen3 fuzzy-sim efficient': ('68b4cefc093f', '44b9c9986fec', 'db9cc44254b9'),
    'gen3 crisp-partition oracle': ('e8b080da64fa', '7dedb3f1e25e', 'e3b0c44298fc'),
    'gen3 fuzzy-partition oracle': ('98e43695c184', 'ccdf7fb4be0a', 'e3b0c44298fc'),
    'gen3 degree oracle': ('9a271f2a916b', '4c280cf45843', 'e3b0c44298fc'),
    'gen3 crisp-sim oracle': ('ad1cb90685ae', 'a151d0eec0f8', 'e3b0c44298fc'),
    'gen3 fuzzy-sim oracle': ('68b4cefc093f', 'f7383074fae5', 'e3b0c44298fc'),
    'gen3 bisim-between crisp': ('f1903923ca57', 'fb1e2c55e422', '11c2b6108911'),
    'gen3 bisim-between fuzzy': ('3713d234bf48', 'd0dff7545b4e', 'e9641dc8ab30'),
    'gen4 crisp-partition efficient': ('b95dd5fd7fc5', 'a4305ffcb689', '01c23a4c8050'),
    'gen4 fuzzy-partition efficient': ('12ea1a56f20a', 'c08947cb368b', '8322220484f3'),
    'gen4 degree efficient': ('4355a46b19d3', '73baf709ea58', '8322220484f3'),
    'gen4 crisp-sim efficient': ('59341c4c5d53', '4a950259fe1f', 'e692d1eaef76'),
    'gen4 fuzzy-sim efficient': ('88be20c7475f', 'e87c1d29eda2', '6333f56edaa2'),
    'gen4 crisp-partition oracle': ('b95dd5fd7fc5', '274bb5520355', 'e3b0c44298fc'),
    'gen4 fuzzy-partition oracle': ('12ea1a56f20a', 'af0d4f3f54a4', 'e3b0c44298fc'),
    'gen4 degree oracle': ('4355a46b19d3', 'dd7e4f60ff60', 'e3b0c44298fc'),
    'gen4 crisp-sim oracle': ('59341c4c5d53', '6d2a1845e09e', 'e3b0c44298fc'),
    'gen4 fuzzy-sim oracle': ('88be20c7475f', '420c2f3979b3', 'e3b0c44298fc'),
    'gen4 bisim-between crisp': ('94c760b92a17', 'ef429497c53a', 'd526b5e0c187'),
    'gen4 bisim-between fuzzy': ('612cc78826ef', '8c86d709d2dc', '08b57a7f6afc'),
    'gen5 crisp-partition efficient': ('d74bcb02956b', '61aac632ec37', 'c95a71b637e9'),
    'gen5 fuzzy-partition efficient': ('b2822f762b75', '4d2dc2e9dfa0', 'c109beceea99'),
    'gen5 degree efficient': ('9a271f2a916b', 'd170a71ee0fe', 'c109beceea99'),
    'gen5 crisp-sim efficient': ('94c760b92a17', '55db0be4bb2b', '92a40f7636b3'),
    'gen5 fuzzy-sim efficient': ('97e0ca463c7a', 'ed358a366715', '3cf1d1dd977f'),
    'gen5 crisp-partition oracle': ('d74bcb02956b', 'affd71f3104d', 'e3b0c44298fc'),
    'gen5 fuzzy-partition oracle': ('b2822f762b75', '6c68b5e54e6f', 'e3b0c44298fc'),
    'gen5 degree oracle': ('9a271f2a916b', '0131914311ca', 'e3b0c44298fc'),
    'gen5 crisp-sim oracle': ('94c760b92a17', '1dd0226bd7e8', 'e3b0c44298fc'),
    'gen5 fuzzy-sim oracle': ('97e0ca463c7a', '4c5d3955f6bc', 'e3b0c44298fc'),
    'gen5 bisim-between crisp': ('94c760b92a17', 'b0ceef572be5', 'e1f954d61ada'),
    'gen5 bisim-between fuzzy': ('a30f8142dcd3', '6c39c46c6c16', 'ff72a2b2a6c7'),
    'gen6 crisp-partition efficient': ('542c5af6d5cb', 'dd0adcdd8c5e', '94e125c5452f'),
    'gen6 fuzzy-partition efficient': ('921ef6ac61cf', '6ee4261a7bf5', '6b822a062a22'),
    'gen6 degree efficient': ('4355a46b19d3', '78e0bf81e1af', '6b822a062a22'),
    'gen6 crisp-sim efficient': ('c12bce042d75', '0a313e8c10e5', 'dcde0fed0585'),
    'gen6 fuzzy-sim efficient': ('d79468a10f84', '92d90b04f6d5', '4341da915772'),
    'gen6 crisp-partition oracle': ('542c5af6d5cb', 'a6536bbc3ed6', 'e3b0c44298fc'),
    'gen6 fuzzy-partition oracle': ('921ef6ac61cf', '4fae48893dbb', 'e3b0c44298fc'),
    'gen6 degree oracle': ('4355a46b19d3', '1e5f85b80c84', 'e3b0c44298fc'),
    'gen6 crisp-sim oracle': ('c12bce042d75', 'e4ccf32257d8', 'e3b0c44298fc'),
    'gen6 fuzzy-sim oracle': ('d79468a10f84', '6196ecf4cee0', 'e3b0c44298fc'),
    'gen6 bisim-between crisp': ('c12bce042d75', '7e5814ef4fc2', 'e4c7b0bfdc17'),
    'gen6 bisim-between fuzzy': ('d79468a10f84', '6a9ed10dcced', '1cc758c5bf61'),
    'gen7 crisp-partition efficient': ('62f30c14ac26', '22cc4ee198bc', 'fe994c562344'),
    'gen7 fuzzy-partition efficient': ('70365f9543eb', 'a5b5dbfd40ec', '3868b5901f3c'),
    'gen7 degree efficient': ('9a271f2a916b', 'eba2e6e2c689', '3868b5901f3c'),
    'gen7 crisp-sim efficient': ('94c760b92a17', 'ee102fab66a9', 'f2630cfeb0cf'),
    'gen7 fuzzy-sim efficient': ('a30f8142dcd3', 'e54912f0ec97', '869d4dc16ec9'),
    'gen7 crisp-partition oracle': ('62f30c14ac26', 'dc19ed2ed478', 'e3b0c44298fc'),
    'gen7 fuzzy-partition oracle': ('70365f9543eb', 'c97c4381fdc9', 'e3b0c44298fc'),
    'gen7 degree oracle': ('9a271f2a916b', '5a548fa8d780', 'e3b0c44298fc'),
    'gen7 crisp-sim oracle': ('94c760b92a17', '2d896612714d', 'e3b0c44298fc'),
    'gen7 fuzzy-sim oracle': ('a30f8142dcd3', '10c251761517', 'e3b0c44298fc'),
    'gen7 bisim-between crisp': ('94c760b92a17', '56996d67eb24', 'd73a6f8ea214'),
    'gen7 bisim-between fuzzy': ('a30f8142dcd3', '8f83fc6a74b8', 'ce2c70746d25'),
    'gen8 crisp-partition efficient': ('de36187c5b8d', '0cc782bfc959', 'bc88c9214829'),
    'gen8 fuzzy-partition efficient': ('0196e46bf02a', 'e3875bb5ba8c', '201070f11f33'),
    'gen8 degree efficient': ('4355a46b19d3', '40ad965e7405', '201070f11f33'),
    'gen8 crisp-sim efficient': ('e1d1f9b99a5f', '7547dfe89c29', '1818a810145c'),
    'gen8 fuzzy-sim efficient': ('af028c81bb9b', '741c9507e738', '2eae9ae45c08'),
    'gen8 crisp-partition oracle': ('de36187c5b8d', '398b464facbb', 'e3b0c44298fc'),
    'gen8 fuzzy-partition oracle': ('0196e46bf02a', '7fe7e35ba352', 'e3b0c44298fc'),
    'gen8 degree oracle': ('4355a46b19d3', '52b30f6d2370', 'e3b0c44298fc'),
    'gen8 crisp-sim oracle': ('e1d1f9b99a5f', '9725b798358e', 'e3b0c44298fc'),
    'gen8 fuzzy-sim oracle': ('af028c81bb9b', '39a8b3796f6c', 'e3b0c44298fc'),
    'gen8 bisim-between crisp': ('94c760b92a17', 'b7541f0c75fa', 'cf233d9c4038'),
    'gen8 bisim-between fuzzy': ('a30f8142dcd3', '42f77ce3a3b3', '3c3c4010690d'),
    'gen9 crisp-partition efficient': ('542c5af6d5cb', 'ade28336ac46', '5703f8235b69'),
    'gen9 fuzzy-partition efficient': ('921ef6ac61cf', '9eff16a9ec43', '581d81bd860a'),
    'gen9 degree efficient': ('4355a46b19d3', 'b83615aa4be5', '581d81bd860a'),
    'gen9 crisp-sim efficient': ('c12bce042d75', '354fb4805f2d', '4f81e23026f3'),
    'gen9 fuzzy-sim efficient': ('d79468a10f84', 'f04cb8a00e45', '8b51adcfe1ef'),
    'gen9 crisp-partition oracle': ('542c5af6d5cb', '4d4b5056a33d', 'e3b0c44298fc'),
    'gen9 fuzzy-partition oracle': ('921ef6ac61cf', '12fe071ebff2', 'e3b0c44298fc'),
    'gen9 degree oracle': ('4355a46b19d3', '964149cc60cd', 'e3b0c44298fc'),
    'gen9 crisp-sim oracle': ('c12bce042d75', 'f4e67b04642b', 'e3b0c44298fc'),
    'gen9 fuzzy-sim oracle': ('d79468a10f84', '589cf846458b', 'e3b0c44298fc'),
    'gen9 bisim-between crisp': ('c12bce042d75', '0c56a1b6743c', '4b7219ff5855'),
    'gen9 bisim-between fuzzy': ('d79468a10f84', 'c07eb9fa0dfa', 'f066720f4ccb'),
    'gen10 crisp-partition efficient': ('e84babbdbc43', '00271aa7f465', '2262fc5caa71'),
    'gen10 fuzzy-partition efficient': ('db47d910a375', '0b1bf06dc80c', 'f6c3dcbf847a'),
    'gen10 degree efficient': ('9a271f2a916b', '5e43c741dc7e', 'f6c3dcbf847a'),
    'gen10 crisp-sim efficient': ('e0c4fbae559a', '890478b1d4b6', '0d9df50efc16'),
    'gen10 fuzzy-sim efficient': ('1aaea1bb1c3d', '6d6968026a6d', '47923779bfdf'),
    'gen10 crisp-partition oracle': ('e84babbdbc43', 'edb35abfebf0', 'e3b0c44298fc'),
    'gen10 fuzzy-partition oracle': ('db47d910a375', '02fc9ad783d9', 'e3b0c44298fc'),
    'gen10 degree oracle': ('9a271f2a916b', '2f199ac834d3', 'e3b0c44298fc'),
    'gen10 crisp-sim oracle': ('e0c4fbae559a', '6eb2df816761', 'e3b0c44298fc'),
    'gen10 fuzzy-sim oracle': ('1aaea1bb1c3d', '9c2cb51b7f2e', 'e3b0c44298fc'),
    'gen10 bisim-between crisp': ('94c760b92a17', '23dab570a728', '16386e5ba86e'),
    'gen10 bisim-between fuzzy': ('a30f8142dcd3', '55b6d17166f2', '7cafee2a0777'),
    'gen11 crisp-partition efficient': ('e8b080da64fa', 'b26abe4e2599', '3a1c19a8bc27'),
    'gen11 fuzzy-partition efficient': ('20740d76d334', '671f795c0478', 'd71bda82d5a4'),
    'gen11 degree efficient': ('387d5314aec5', '65242ffe136c', 'd71bda82d5a4'),
    'gen11 crisp-sim efficient': ('e18fe9bd3d96', 'c2b99f5b1162', '2944cf19fa3a'),
    'gen11 fuzzy-sim efficient': ('500c15d16feb', 'a08789425db6', '9b84b4617d5f'),
    'gen11 crisp-partition oracle': ('e8b080da64fa', '424f4e2602bf', 'e3b0c44298fc'),
    'gen11 fuzzy-partition oracle': ('20740d76d334', 'e7ccbbcbc9de', 'e3b0c44298fc'),
    'gen11 degree oracle': ('387d5314aec5', 'fa106318cd71', 'e3b0c44298fc'),
    'gen11 crisp-sim oracle': ('e18fe9bd3d96', '17bb15907db6', 'e3b0c44298fc'),
    'gen11 fuzzy-sim oracle': ('500c15d16feb', 'b91f71e9934e', 'e3b0c44298fc'),
    'gen11 bisim-between crisp': ('94c760b92a17', '2ed3604be56d', 'e6a9fbe83e4d'),
    'gen11 bisim-between fuzzy': ('86ab1b48b720', 'be093b6bd865', '9cc800035ce7'),
}


def diff(table: dict, golden: dict) -> list:
    """One line per case whose digests differ from ``golden``, naming which
    of them differ, or that only one of the two tables has."""
    lines = []
    for case in sorted(table.keys() | golden.keys()):
        got, want = table.get(case), golden.get(case)
        if got is None or want is None:
            lines.append(f"{case}: only in {'GOLDEN' if got is None else 'the current code'}")
        elif got != want:
            differ = [name for name, a, b in zip(("text", "--json", "stderr"), got, want) if a != b]
            lines.append(f"{case}: {', '.join(differ)} differ: {want!r} -> {got!r}")
    return lines


def main(argv, golden=GOLDEN) -> int:
    """Print the table for the current code; with ``--diff``, print the cases
    that differ from ``golden`` and return 1 if there is one."""
    with tempfile.TemporaryDirectory() as directory:
        table = _table(Path(directory))
    if "--diff" not in argv:
        for case, digests in table.items():
            print(f"    {case!r}: {digests!r},")
        return 0
    lines = diff(table, golden)
    for line in lines:
        print(line)
    return 1 if lines else 0


def test_diff_exits_1_on_any_differing_case(monkeypatch, capsys):
    monkeypatch.setattr(sys.modules[__name__], "_table", lambda directory: dict(GOLDEN))
    changed, dropped = sorted(GOLDEN)[:2]
    tampered = {**GOLDEN, changed: (GOLDEN[changed][0], "000000000000", GOLDEN[changed][2]), "added case": ("", "", "")}
    del tampered[dropped]
    assert main(["--diff"], tampered) == 1
    assert capsys.readouterr().out.splitlines() == diff(GOLDEN, tampered) == [
        "added case: only in GOLDEN",
        f"{changed}: --json differ: {tampered[changed]!r} -> {GOLDEN[changed]!r}",
        f"{dropped}: only in the current code",
    ]
    assert main(["--diff"], dict(GOLDEN)) == 0 and capsys.readouterr().out == ""


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
