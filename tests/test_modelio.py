"""Model and relation documents: JSON and text parsing, round trips, errors."""
import dataclasses
import hashlib
import json
import random
from fractions import Fraction

import pytest

from fuzzybisim import (
    CrispRelation,
    DocumentError,
    Distribution,
    FuzzySet,
    FuzzyRelation,
    Nflts,
    disjoint_union,
    model_to_document,
    parse_model,
    parse_relation,
    relation_to_document,
    serialize_model,
)
from fuzzybisim import format_degree, modelio
from fuzzybisim.cli import run
from fuzzybisim.generate import generate, random_spec
from fuzzybisim.model import EPSILON, ModelError, Nfts
from fuzzybisim.modelio import read_model

from conftest import REPO_ROOT, example_arguments, labels_of, make_example
from test_cli_golden import EMPTY_SUPPORT, _models


def model_from_document(doc):
    """The system of a decoded JSON model document: its text, with a line break so that it is not a path."""
    return parse_model("\n" + json.dumps(doc))


def _move(source, targets, action="a") -> dict:
    """A transition item of a JSON model document."""
    return {"from": source, "action": action, "targets": targets}


def test_parse_example_file(example_path):
    model = parse_model(example_path)
    assert len(model.states) == 5
    assert len(model.actions) == 2
    assert len(model.transitions) == 6
    assert len(model.distributions) == 3
    assert model.size_of_delta() == 12


def test_a_model_is_read_as_its_constructor_arguments(example_path):
    assert read_model(example_path) == example_arguments()
    assert model_to_document(Nfts(*read_model(example_path))) == model_to_document(make_example())
    text = "kind nflts\nstates s t\nactions a\nlabels p\ntrans s a t:0.5\nlabel t p:0.25"
    assert read_model(text) == (["s", "t"], ["a"], [("s", "a", {"t": Fraction(1, 2)})], ["p"],
                                {"t": {"p": Fraction(1, 4)}})
    with pytest.raises(DocumentError, match="^transition with unknown action 'b'$"):
        parse_model("states s\nactions a\ntrans s b")


def test_json_round_trip():
    model = make_example()
    again = parse_model(serialize_model(model))
    assert model_to_document(again) == model_to_document(model)


def test_labeled_round_trip():
    model = Nflts(
        ["s", "t"], ["a"],
        [("s", "a", {"t": Fraction("0.25")})],
        ["p", "q"],
        {"s": {"p": Fraction("0.7")}},
    )
    doc = model_to_document(model)
    assert doc["kind"] == "nflts"
    again = parse_model(serialize_model(model))
    assert isinstance(again, Nflts)
    assert labels_of(again)["s"]("p") == Fraction("0.7")
    assert model_to_document(again) == doc


def test_text_format():
    model = parse_model(
        """
        # a two-state labeled system
        kind nflts
        states s t
        actions a
        labels p
        trans s a t:0.25 s:0.5
        label s p:0.7
        """
    )
    assert isinstance(model, Nflts)
    assert labels_of(model)["s"]("p") == Fraction("0.7")
    (mu,) = model.distributions
    assert mu("t") == Fraction("0.25") and mu("s") == Fraction("0.5")


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("kind maybe\nstates s\nactions a", "kind"),
        ("states s\nactions a\ntrans s a t", "element:degree"),
        ("states s\nactions a\nfoo bar", "unknown directive"),
        ("states s\nactions a\ntrans s a s:1.5", "outside"),
        ("states s\nactions a\ntrans s", "needs a source"),
        ("states s\nactions a\nlabel s p:1", "labels"),
        ("actions a\ntrans s a", "states: non-empty list of strings required"),
    ],
)
def test_text_errors_carry_context(text, fragment):
    with pytest.raises(DocumentError) as info:
        parse_model(text)
    assert fragment in str(info.value)


@pytest.mark.parametrize(
    "doc,fragment",
    [
        ('{"kind": "weird", "states": ["s"], "actions": ["a"]}', "kind"),
        ('{"states": [], "actions": ["a"]}', "states"),
        ('{"states": ["s"], "actions": ["a"], "transitions": [{"from": "s"}]}', "needs"),
        (
            '{"states": ["s"], "actions": ["a"], '
            '"transitions": [{"from": "s", "action": "a", "targets": {"s": "1.2"}}]}',
            "outside [0, 1]",
        ),
        (
            '{"states": ["s"], "actions": ["a"], '
            '"transitions": [{"from": "s", "action": "a", "targets": {"s": 0.5}}]}',
            "decimal string",
        ),
        (
            '{"states": ["s"], "actions": ["a"], '
            '"transitions": [{"from": "x", "action": "a", "targets": {"s": "0.5"}}]}',
            "unknown state",
        ),
        ('{"format_version": "99", "states": ["s"], "actions": ["a"]}', "version"),
        ('{"kind": "nfts", "states": ["s"], "actions": ["a"], "state_labels": {}}', "labels"),
        ("{not json}", "invalid JSON"),
    ],
)
def test_json_errors_carry_context(doc, fragment):
    with pytest.raises(DocumentError) as info:
        parse_model(doc)
    assert fragment in str(info.value)


def test_relation_documents_round_trip():
    model = make_example()
    crisp = CrispRelation(model.states, model.states, {("s1", "s2")})
    doc = relation_to_document(crisp)
    assert parse_relation(__import__("json").dumps(doc), model) == crisp

    fuzzy = FuzzyRelation(model.states, model.states, {("s1", "s2"): Fraction("0.4")})
    doc = relation_to_document(fuzzy)
    assert parse_relation(__import__("json").dumps(doc), model) == fuzzy


def test_each_distinct_degree_is_formatted_once(monkeypatch):
    calls = []

    def counting_format_degree(d):
        calls.append(d)
        return format_degree(d)

    monkeypatch.setattr(modelio, "format_degree", counting_format_degree)
    states = [f"s{i}" for i in range(100)]
    # 5,000 entries, each its own Fraction object, of the 3 values 1/4, 1/2 and 3/4
    entries = [((x, y), Fraction((i + j) % 3 + 1, 4)) for i, x in enumerate(states) for j, y in enumerate(states[:50])]
    relation = FuzzyRelation(states, states, entries)
    doc = relation_to_document(relation)
    assert len(relation.entries) == 5000
    assert len(calls) == 3
    # the per-entry expression that relation_to_document used to be
    assert doc == {"kind": "fuzzy",
                   "degrees": [[x, y, format_degree(d)] for (x, y), d in sorted(relation.entries.items())]}
    rng = random.Random(5)
    for _ in range(3):
        rng.shuffle(entries)
        assert relation_to_document(FuzzyRelation(states, states, entries)) == doc


def test_relation_document_errors():
    model = make_example()
    with pytest.raises(DocumentError):
        parse_relation('{"kind": "odd"}', model)
    with pytest.raises(DocumentError):
        parse_relation('{"kind": "crisp", "pairs": [["s1", "zz"]]}', model)
    with pytest.raises(DocumentError):
        parse_relation('{"kind": "fuzzy", "degrees": [["s1", "s2", "1.7"]]}', model)
    # Text with a line break is a document, as read_model takes it, not a path to look up.
    with pytest.raises(DocumentError, match=r"^relation document must be a JSON object$"):
        parse_relation("[]\n", model)


def test_a_fuzzy_pair_listed_twice_is_an_error(tmp_path, capsys):
    # The last row used to win, so check printed "holds" for one order of
    # these rows and "violates forward-transition" for the other.
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"kind": "nfts", "states": ["s", "t"], "actions": ["a"],
                                 "transitions": [{"from": "s", "action": "a", "targets": {"s": "0.5"}}]}))
    rows = [["s", "t", "0.5"], ["s", "t", "0"]]
    for order in (rows, rows[::-1]):
        relation = tmp_path / "relation.json"
        relation.write_text(json.dumps({"kind": "fuzzy", "degrees": order}))
        assert run(["check", str(model), str(relation), "--kind", "fuzzy-bisim"]) == 1
        assert capsys.readouterr().err == "error: degrees['s', 't']: pair listed twice\n"
    # a repeated crisp pair states the same fact twice
    crisp = parse_relation(json.dumps({"kind": "crisp", "pairs": [["s1", "s2"], ["s1", "s2"]]}), make_example())
    assert crisp.pairs == {("s1", "s2")}


def test_an_unknown_top_level_key_is_an_error(tmp_path, capsys):
    # A misspelt key used to be ignored: the labels below were dropped, so
    # crisp-partition merged a and b, and check checked the empty relation.
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"kind": "nflts", "states": ["a", "b"], "actions": ["x"], "label_alphabet": ["p"],
                                 "state_lables": {"a": {"p": "0.5"}}}))
    relation = tmp_path / "relation.json"
    relation.write_text(json.dumps({"kind": "crisp", "pair": [["s1", "s2"]]}))
    example = str(REPO_ROOT / "models" / "example.json")
    for argv, message in ((["crisp-partition", str(model)], "model document: unknown key 'state_lables'"),
                          (["check", example, str(relation), "--kind", "crisp-bisim"],
                           "relation document: unknown key 'pair'")):
        assert run(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
    with pytest.raises(DocumentError, match="unknown key 'extra'"):
        parse_relation(json.dumps({"kind": "fuzzy", "degrees": [], "extra": 1}), make_example())
    # the writer emits only defined keys, so its documents still parse
    for labeled in (False, True):
        doc = model_to_document(generate(random_spec(random.Random(3), 8, labeled=labeled)))
        assert model_to_document(model_from_document(json.loads(json.dumps(doc)))) == doc


@pytest.mark.parametrize("doc", [
    [],
    {"states": [["s"]], "actions": ["a"]},
    {"states": [1], "actions": ["a"]},
    {"states": ["s"], "actions": ["a"], "transitions": "abc"},
    {"states": ["s"], "actions": ["a"], "transitions": [{"from": "s", "action": "a", "targets": ["s"]}]},
    {"states": ["s"], "actions": ["a"], "transitions": [{"from": ["s"], "action": "a", "targets": {}}]},
    {"kind": "nflts", "states": ["s"], "actions": ["a"], "label_alphabet": 5},
    {"kind": "nflts", "states": ["s"], "actions": ["a"], "label_alphabet": ["p"], "state_labels": ["s"]},
    {"kind": "nflts", "states": ["s"], "actions": ["a"], "label_alphabet": ["p"], "state_labels": {"s": ["p"]}},
])
def test_mistyped_model_fields_are_document_errors(doc):
    with pytest.raises(DocumentError):
        model_from_document(doc)


@pytest.mark.parametrize("doc", [
    [["s1", "s2"]],
    {"kind": "crisp", "pairs": [1]},
    {"kind": "crisp", "pairs": [[["s1"], "s2"]]},
    {"kind": "fuzzy", "degrees": [5]},
    {"kind": "fuzzy", "degrees": [["s1", "s2"]]},
])
def test_mistyped_relation_documents_are_document_errors(doc, tmp_path):
    path = tmp_path / "relation.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DocumentError):
        parse_relation(path, make_example())


def _counting_parse_degree(monkeypatch) -> list:
    calls = []
    real = modelio.parse_degree
    monkeypatch.setattr(modelio, "parse_degree", lambda text: calls.append(text) or real(text))
    return calls


def test_each_distinct_degree_string_is_parsed_once(monkeypatch):
    calls = _counting_parse_degree(monkeypatch)
    strings = ["0.25", "0.5", "1"]
    states = [f"s{i}" for i in range(100)]
    transitions = [
        {"from": states[i % 100], "action": "a",
         "targets": {states[(i + k) % 100]: strings[(i + k) % 3] for k in range(10)}}
        for i in range(500)
    ]
    doc = {"kind": "nflts", "states": states, "actions": ["a"], "transitions": transitions,
           "label_alphabet": ["p"], "state_labels": {"s0": {"p": "0.5"}}}
    assert sum(len(t["targets"]) for t in transitions) == 5000
    model = model_from_document(doc)
    assert sorted(calls) == strings
    degrees = [d for mu in model.distributions for d in mu.fuzzy.degrees()]
    assert len({id(d) for d in degrees}) == 3
    assert labels_of(model)["s0"]("p") is next(d for d in degrees if d == Fraction("0.5"))

    calls.clear()  # the same as JSON text, with one "0.5" spelled "0.50": parsed apart, one degree
    doc["transitions"][0]["targets"]["s1"] = "0.50"
    model = parse_model(json.dumps(doc))
    assert sorted(calls) == ["0.25", "0.5", "0.50", "1"]
    assert model.pool == [Fraction(1, 4), Fraction(1, 2), 1]

    calls.clear()
    lines = ["states s t", "actions a"] + [f"trans s a s:0.5 t:{d}" for d in ("0.5", "0.7", "0.7", "0.5")]
    parse_model("\n".join(lines))
    assert sorted(calls) == ["0.5", "0.7"]


def _respelled(doc: dict, rng: random.Random) -> dict:
    """The document with each degree spelled one of its equal ways, a zero degree to
    an unknown state and repeated triples here and there, and the state mark in a
    labeled document's alphabet, some labels giving it a degree."""
    def spell(text):
        d = Fraction(text)
        return rng.choice([text, f"{d.numerator}/{d.denominator}", f"{2 * d.numerator}/{2 * d.denominator}",
                           text + "0" if "." in text else text + ".0", f"{d * 1000}e-3"])

    transitions = []
    for item in doc["transitions"]:
        targets = {state: spell(text) for state, text in item["targets"].items()}
        if rng.random() < 0.2:
            targets["ghost"] = rng.choice(["0", "0.0", "0/7"])
        transitions += [{**item, "targets": targets}] * rng.choice([1, 1, 1, 2])
    doc = {**doc, "transitions": transitions}
    if doc["kind"] == "nflts":
        doc["label_alphabet"] = [*doc["label_alphabet"], "state*"]
        doc["state_labels"] = {state: {**{p: spell(text) for p, text in label.items()},
                                       **({"state*": spell("0.5")} if rng.random() < 0.5 else {})}
                               for state, label in doc["state_labels"].items()}
    return doc


ARRAYS = ("names", "delta", "pool", "dists", "labels")
# One value spelled four ways, a zero degree to an unknown state and the state mark as a label.
SPELLINGS = {"kind": "nflts", "states": ["s", "t"], "actions": ["a"], "label_alphabet": ["p", "state*"],
             "transitions": [{"from": "s", "action": "a", "targets": {"s": "0.5", "t": "0.50", "u": "0"}},
                             {"from": "t", "action": "a", "targets": {"s": "1/2", "t": "5e-1"}},
                             {"from": "s", "action": "a", "targets": {"t": "0.50", "s": "1/2"}}],
             "state_labels": {"s": {"p": "5e-1", "state*": "1"}, "t": {"p": "0.50"}}}


def test_the_json_reader_lays_out_the_constructors_arrays():
    rng = random.Random(23)
    docs = [model_to_document(generate(random_spec(rng, 8, labeled=i % 2 == 1))) for i in range(40)]
    docs += [_respelled(doc, rng) for doc in docs]
    docs.append(SPELLINGS)
    for doc in docs:
        text = json.dumps(doc)
        read, built = parse_model(text), Nfts(*read_model(text))
        assert type(read) is type(built)
        assert [getattr(read, name) for name in ARRAYS] == [getattr(built, name) for name in ARRAYS]
    assert read.pool == [Fraction(1, 2), 1] and read.delta == ((0, "a", 0), (1, "a", 0))  # one distribution


def _text_twin(doc: dict) -> str:
    """The text document that mirrors a JSON model document, line for entry."""
    lines = [f"kind {doc.get('kind', 'nfts')}", " ".join(["states", *doc.get("states", [])]),
             " ".join(["actions", *doc.get("actions", [])])]
    lines += [" ".join(["trans", t["from"], t["action"], *map(":".join, t["targets"].items())])
              for t in doc.get("transitions", [])]
    if "label_alphabet" in doc:
        lines.append(" ".join(["labels", *doc["label_alphabet"]]))
    lines += [" ".join(["label", state, *map(":".join, label.items())]) for state, label in doc.get("state_labels", {}).items()]
    return "\n".join(lines) + "\n"


def test_text_and_json_twins_read_alike():
    rng = random.Random(31)
    docs = [model_to_document(generate(random_spec(rng, 8, labeled=i % 2 == 1))) for i in range(20)]
    docs += [_respelled(doc, rng) for doc in docs[:6]] + [EMPTY_SUPPORT, SPELLINGS]
    for doc in docs:
        text, twin = json.dumps(doc), _text_twin(doc)
        read = parse_model(text)
        assert [getattr(parse_model(twin), name) for name in ARRAYS] == [getattr(read, name) for name in ARRAYS]
        assert read_model(twin) == read_model(text)
        assert model_to_document(parse_model(twin)) == model_to_document(read)
    assert _text_twin(SPELLINGS).splitlines()[3] == "trans s a s:0.5 t:0.50 u:0"


def _reference_arrays(doc: dict) -> list:
    """``ARRAYS`` of a decoded JSON model document, built straight from it rather than through the interner:
    Fraction degrees, zeros dropped, the pool sorted, distributions numbered in first use."""
    names, labels = tuple(sorted(doc["states"])), doc.get("state_labels", {})
    index = {s: i for i, s in enumerate(names)}
    pool = sorted({Fraction(t) for entries in [*(item["targets"] for item in doc["transitions"]), *labels.values()]
                   for t in entries.values()} - {0})
    rank = {x: r for r, x in enumerate(pool)}
    dists, numbers, delta = [], {}, {}
    for item in doc["transitions"]:
        edges = [(EPSILON, index[s], rank[Fraction(t)]) for s, t in item["targets"].items() if Fraction(t)]
        if (k := numbers.setdefault(frozenset(edges), len(dists))) == len(dists):
            dists.append(edges)
        delta[index[item["from"]], item["action"], k] = None
    ranked = {index[s]: {p: rank[Fraction(t)] for p, t in label.items() if Fraction(t)} for s, label in labels.items()}
    return [names, tuple(delta), pool, dists, {i: ranked[i] for i in sorted(ranked) if ranked[i]}]


# A zero degree, one value spelled three ways, an empty distribution, a duplicate transition, and a label
# degree (0.3) that no transition has; then a plain document whose one distribution is empty, given twice.
HAND_MADE = [
    {"kind": "nflts", "states": ["s", "t", "u"], "actions": ["a", "b"], "label_alphabet": ["p", "q"],
     "transitions": [_move("s", {"s": "0", "t": "0.5"}), _move("t", {"s": "0.50", "u": "1/2"}), _move("u", {}, "b"),
                     _move("s", {"s": "0", "t": "0.5"}), _move("t", {"u": "0.5", "s": "1/2"}), _move("t", {"t": "1"}, "b")],
     "state_labels": {"s": {"p": "0.3"}, "t": {"q": "0.50", "p": "0"}, "u": {}}},
    {"states": ["s"], "actions": ["a"], "transitions": [_move("s", {}), _move("s", {})]},
]


def test_the_reader_gives_the_reference_arrays():
    rng = random.Random(33)
    docs = [model_to_document(generate(dataclasses.replace(random_spec(rng, 12, labeled=i % 2 == 1),
                                                           value_pool_size=rng.randint(4, 42)))) for i in range(30)]
    assert max(len(parse_model(json.dumps(doc)).pool) for doc in docs) > 20
    for doc in docs + HAND_MADE:
        expected = _reference_arrays(doc)
        for source in (json.dumps(doc), _text_twin(doc)):
            assert [getattr(parse_model(source), name) for name in ARRAYS] == expected, source
    assert _reference_arrays(HAND_MADE[0])[2:] == [[Fraction(3, 10), Fraction(1, 2), 1], [
        [(EPSILON, 1, 1)], [(EPSILON, 0, 1), (EPSILON, 2, 1)], [], [(EPSILON, 1, 2)]], {0: {"p": 0}, 1: {"q": 1}}]


@pytest.mark.parametrize("change,message", [
    (lambda doc: doc["transitions"].append({"from": "x", "action": "a", "targets": {}}),
     "transition from unknown state 'x'"),
    (lambda doc: doc["transitions"].append({"from": "s", "action": "b", "targets": {}}),
     "transition with unknown action 'b'"),
    (lambda doc: doc["transitions"].append({"from": "s", "action": "a", "targets": {"u": "0.5"}}),
     "distribution refers to unknown states ['u']"),
    (lambda doc: doc["state_labels"].update(t={"q": "0.5"}), "label of 't' uses symbols outside the alphabet"),
    (lambda doc: doc["state_labels"].update(x={"p": "0.5"}), "label on unknown state 'x'"),
    (lambda doc: doc.pop("states"), "states: non-empty list of strings required"),
    (lambda doc: doc.pop("actions"), "actions: non-empty list of strings required"),
    # an empty list comes before labels that the kind does not take
    (lambda doc: doc.update(kind="nfts", states=[]), "states: non-empty list of strings required"),
    (lambda doc: doc.update(kind="nfts"), "kind 'nfts' does not take labels"),
])
def test_text_and_json_twins_report_the_same_fault(change, message):
    doc = {"kind": "nflts", "states": ["s", "t"], "actions": ["a"], "label_alphabet": ["p"],
           "transitions": [{"from": "s", "action": "a", "targets": {"t": "0.5"}}], "state_labels": {"s": {"p": "1"}}}
    change(doc)
    for source in (json.dumps(doc), _text_twin(doc)):
        with pytest.raises(DocumentError) as info:
            parse_model(source)
        assert str(info.value) == message
        with pytest.raises((DocumentError, ModelError)) as info:  # read_model's fault, or its system's
            Nfts(*read_model(source))
        assert str(info.value) == message


def test_a_model_document_that_starts_with_a_bracket_is_json(tmp_path, capsys):
    # it used to be read as text: "line 1: unknown directive '[1,'"
    for text in ("[1, 2]\n", "  [1, 2]\n"):
        for read in (parse_model, read_model):
            with pytest.raises(DocumentError, match=r"^model document must be a JSON object$"):
                read(text)
    with pytest.raises(DocumentError, match=r"^invalid JSON: "):
        parse_model("[1, 2\n")
    path = tmp_path / "model.txt"
    path.write_text("[1, 2]\n")
    relation = tmp_path / "relation.json"
    relation.write_text('{"kind": "crisp", "pairs": []}')
    for argv in (["crisp-partition", str(path)], ["check", str(path), str(relation), "--kind", "crisp-bisim"]):
        assert run(argv) == 1
        assert capsys.readouterr() == ("", "error: model document must be a JSON object\n")


def test_a_one_line_name_that_is_not_a_json_object_is_a_path(tmp_path, monkeypatch):
    # it used to be read as JSON text: "invalid JSON: Expecting value"
    monkeypatch.chdir(tmp_path)
    text, relation = serialize_model(make_example()), '{"kind": "crisp", "pairs": [["s1", "s1"]]}'
    for name in ("[draft].json", "{draft}.json", " [draft] .json"):
        (tmp_path / name).write_text(text)
        (tmp_path / f"relation {name}").write_text(relation)
        assert model_to_document(parse_model(name)) == model_to_document(parse_model(text))
        assert read_model(name) == read_model(text)
        assert parse_relation(f"relation {name}", make_example()).pairs == {("s1", "s1")}
    for text in ('{"states": []}', ' {"states": []} '):  # a one-line JSON object is document text
        with pytest.raises(DocumentError, match=r"^states: non-empty list of strings required$"):
            parse_model(text)


def test_a_byte_order_mark_is_no_part_of_a_document(tmp_path, capsys):
    # A JSON model used to fail as text, "line 1: unknown directive '\ufeff{"format_version":'",
    # and a relation as "invalid JSON: Unexpected UTF-8 BOM".
    model, doc = make_example(), json.loads(serialize_model(make_example()))
    relation = {"kind": "fuzzy", "degrees": [["s1", "s2", "0.4"], ["s2", "s1", "0.4"]]}
    texts = {"model.json": json.dumps(doc), "model.txt": _text_twin(doc), "relation.json": json.dumps(relation)}
    for name, text in texts.items():
        (tmp_path / name).write_text(text, encoding="utf-8-sig")
        assert (tmp_path / name).read_bytes()[:3] == b"\xef\xbb\xbf"
    for name in ("model.json", "model.txt"):
        assert model_to_document(parse_model(tmp_path / name)) == doc
        assert read_model(tmp_path / name) == read_model(texts[name])
    assert parse_relation(tmp_path / "relation.json", model) == parse_relation(texts["relation.json"], model)
    assert run(["check", str(tmp_path / "model.txt"), str(tmp_path / "relation.json"), "--kind", "fuzzy-bisim"]) in (0, 1)
    assert "error" not in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["nfts", "nflts"])
def test_a_labels_line_is_a_label_alphabet_even_with_no_symbols(kind):
    # the text line used to be dropped when it listed no symbols, so kind nfts took it
    text = f"kind {kind}\nstates s\nactions a\nlabels\ntrans s a s:0.5\n"
    doc = {"kind": kind, "states": ["s"], "actions": ["a"], "label_alphabet": [],
           "transitions": [{"from": "s", "action": "a", "targets": {"s": "0.5"}}]}
    for source in (text, json.dumps(doc)):
        if kind == "nfts":
            with pytest.raises(DocumentError, match=r"^kind 'nfts' does not take labels$"):
                parse_model(source)
        else:
            assert read_model(source) == (["s"], ["a"], [("s", "a", {"s": Fraction(1, 2)})], [], {})
            assert parse_model(source).label_alphabet == frozenset()


def test_relation_degree_strings_are_parsed_once(monkeypatch):
    calls = _counting_parse_degree(monkeypatch)
    states = sorted(make_example().states)
    rows = [[x, y, ("0.25", "0.5", "1")[(i + j) % 3]] for i, x in enumerate(states) for j, y in enumerate(states)]
    relation = parse_relation(json.dumps({"kind": "fuzzy", "degrees": rows}), make_example())
    assert sorted(calls) == ["0.25", "0.5", "1"]
    assert relation.entries == {(x, y): Fraction(d) for x, y, d in rows}
    degrees = list(relation.entries.values())
    assert len({id(d) for d in degrees}) == 3


@pytest.mark.parametrize("bad,message", [
    ("1.7", "degrees['s3', 's1']: degree '1.7' outside [0, 1]"),
    ("x", "degrees['s3', 's1']: malformed degree 'x'"),
])
def test_a_bad_relation_degree_names_its_row(bad, message):
    # the bad string follows good rows, one of them with an equal degree cached
    rows = [["s1", "s1", "1"], ["s1", "s2", "0.5"], ["s2", "s2", "1"], ["s3", "s1", bad], ["s3", "s2", bad]]
    with pytest.raises(DocumentError) as info:
        parse_relation(json.dumps({"kind": "fuzzy", "degrees": rows}), make_example())
    assert str(info.value) == message


@pytest.mark.parametrize("targets,labels,message", [
    ({"t": "x"}, {}, "transitions[1].targets['t']: malformed degree 'x'"),
    ({"t": "1.5"}, {}, "transitions[1].targets['t']: degree '1.5' outside [0, 1]"),
    ({"t": "0.5"}, {"t": {"p": "2"}}, "state_labels['t']['p']: degree '2' outside [0, 1]"),
    ({"t": "0.5"}, {"t": {"p": 0.5}}, "state_labels['t']['p']: degree must be a decimal string, got 0.5"),
])
def test_interned_degree_errors_keep_their_field_context(monkeypatch, targets, labels, message):
    _counting_parse_degree(monkeypatch)
    doc = {"kind": "nflts", "states": ["s", "t"], "actions": ["a"], "label_alphabet": ["p"],
           "transitions": [{"from": "s", "action": "a", "targets": {"s": "0.5"}},
                           {"from": "t", "action": "a", "targets": {"s": "0.5", **targets}}],
           "state_labels": labels}
    with pytest.raises(DocumentError) as info:
        model_from_document(doc)
    assert str(info.value) == message


@pytest.mark.parametrize("line,message", [
    ("trans t a t:0.5 s:y", "line 4: malformed degree 'y'"),
    ("trans t a s:0.5 t:-1", "line 4: degree '-1' outside [0, 1]"),
])
def test_interned_text_degree_errors_keep_their_line(monkeypatch, line, message):
    _counting_parse_degree(monkeypatch)
    with pytest.raises(DocumentError) as info:
        parse_model(f"states s t\nactions a\ntrans s a s:0.5\n{line}")
    assert str(info.value) == message


@pytest.mark.parametrize("text,message", [
    ('{"states": ["s"], "actions": ["a"], "transitions": [{"from": "x", "action": "b", "targets": {"s": "0.5"}}]}',
     "transition from unknown state 'x'"),
    ('{"states": ["s"], "actions": ["a"], "transitions": [{"from": "s", "action": "a", "targets": {"s": "0.5"}}, '
     '{"from": "s", "action": "a", "targets": {"s": "0.5", "u": "0.5"}}, {"from": "q", "action": "a", "targets": {}}]}',
     "distribution refers to unknown states ['u']"),
    ('{"kind": "nflts", "states": ["s"], "actions": ["a"], "label_alphabet": ["p"], '
     '"transitions": [{"from": "s", "action": "a", "targets": {"x": "0.5"}}], "state_labels": {"x": {"p": "0.5"}}}',
     "distribution refers to unknown states ['x']"),
    ('{"kind": "nflts", "states": ["s"], "actions": ["a"], "label_alphabet": ["p"], '
     '"state_labels": {"s": {"q": "0.5"}, "x": {"p": "0.5"}}}',
     "label of 's' uses symbols outside the alphabet"),
    ("states s t\nactions a\ntrans s a t:0.5\ntrans t a t:0.5 s:0\ntrans t a t:0.5 u:0.25\ntrans u a t:0.5",
     "distribution refers to unknown states ['u']"),
    ("kind nflts\nstates s\nactions a\nlabels p\nlabel s q:0.5\nlabel x p:0.5",
     "label of 's' uses symbols outside the alphabet"),
    ("states s\nactions a\ntrans x b s:0.5", "transition from unknown state 'x'"),
    # a model fault first, then a document fault: the document fault is reported
    ('{"states": ["s"], "actions": ["a"], "transitions": [{"from": "x", "action": "a", "targets": {"s": "0.5"}}, '
     '{"from": "s", "action": "a", "targets": {"s": "y"}}]}',
     "transitions[1].targets['s']: malformed degree 'y'"),
    ('{"kind": "nflts", "states": ["s"], "actions": ["a"], "label_alphabet": ["p"], '
     '"transitions": [{"from": "s", "action": "b", "targets": {}}], "state_labels": {"s": {"p": "2"}}}',
     "state_labels['s']['p']: degree '2' outside [0, 1]"),
    ('{"kind": "nflts", "states": ["s"], "actions": ["a"], '
     '"transitions": [{"from": "s", "action": "a", "targets": {"x": "0.5"}}], "label_alphabet": [1]}',
     "label_alphabet: list of strings required"),
    ('{"states": ["s"], "actions": ["a"], "transitions": [{"from": "s", "action": "a", "targets": {"x": "0.5"}}, 7]}',
     "transitions[1]: needs 'from', 'action' and 'targets'"),
    ("states s\nactions a\ntrans x a s:0.5\ntrans s a s:y", "line 4: malformed degree 'y'"),
    # the degrees are parsed and ranked before the walk, so that pass meets the later fault first: it raises none
    *((json.dumps({"states": ["s"], "actions": ["a"], **doc}), message) for doc, message in [
        ({"transitions": [_move("s", {"x": "0.5"}), _move("s", {"s": "y"})]},
         "transitions[1].targets['s']: malformed degree 'y'"),
        ({"transitions": [_move("s", {"x": "0.25"}), _move("s", {"s": "0.5", "x": "1/0"})]},
         "transitions[1].targets['x']: malformed degree '1/0'"),
        ({"kind": "nflts", "label_alphabet": ["p"], "transitions": [_move("s", {"s": "0.5"}, "b")],
          "state_labels": {"s": {"p": "x"}}}, "state_labels['s']['p']: malformed degree 'x'"),
        ({"kind": "nflts", "label_alphabet": ["p"], "transitions": [_move("s", {"s": "0.5"}, "b")],
          "state_labels": {"s": {"p": 1}}}, "state_labels['s']['p']: degree must be a decimal string, got 1"),
        ({"transitions": [_move("s", ["s"]), _move("s", {"s": "1.5"})]}, "transitions[0].targets: JSON object required"),
        ({"transitions": [_move("s", {"s": "1.5"}), _move("s", ["s"])]},
         "transitions[0].targets['s']: degree '1.5' outside [0, 1]"),
        ({"transitions": [_move("s", {"s": "0", "x": "0.5"})]}, "distribution refers to unknown states ['x']"),
        ({"transitions": [_move("s", {"x": "0", "s": "0.5"}), _move("s", {"s": "0.0", "y": "1"})]},
         "distribution refers to unknown states ['y']"),
        ({"transitions": [_move("x", {"s": "0.5"}), ["s", "a", {}]]}, "transitions[1]: needs 'from', 'action' and 'targets'"),
    ]),
])
def test_documents_report_the_first_of_two_faults(text, message):
    with pytest.raises(DocumentError) as info:
        parse_model(text)
    assert str(info.value) == message


def test_written_model_documents_keep_their_bytes():
    # Digest of serialize_model on 20 generated models, plain and labeled, as
    # written when the writer read the object views.
    rng = random.Random(2026)
    texts = [serialize_model(generate(random_spec(rng, 8, labeled=i % 2 == 1))) for i in range(20)]
    assert hashlib.sha256("\n".join(texts).encode()).hexdigest()[:16] == DOCUMENTS_DIGEST


DOCUMENTS_DIGEST = "4e83895a03cb08f8"


def test_a_model_on_the_reserved_symbols_keeps_its_bytes_and_its_labels():
    # its actions hold the graph's edge symbol and its alphabet the state mark:
    # to_flg refuses it, but it is still a system, and "state*" still a label
    half = Fraction(1, 2)
    built = Nflts(["s", "t", "u"], ["eps*", "a"], [("s", "eps*", {"t": half, "s": 1}), ("t", "a", {"t": half})],
                  ["state*", "p"], {"s": {"state*": Fraction(1, 4)}, "t": {"p": 1, "state*": 1}})
    text = serialize_model(built)
    model = parse_model(text)
    assert serialize_model(model) == text
    assert json.loads(text)["state_labels"] == {"s": {"state*": "0.25"}, "t": {"p": "1", "state*": "1"}}
    assert labels_of(model) == {"s": FuzzySet({"state*": Fraction(1, 4)}), "t": FuzzySet({"p": 1, "state*": 1})}


def test_model_documents_format_each_distinct_degree_once(monkeypatch):
    rng = random.Random(3)
    model = generate(random_spec(rng, 8, labeled=True))
    expected = model_to_document(model)
    calls, built = [], []
    monkeypatch.setattr(modelio, "format_degree", lambda d: calls.append(d) or format_degree(d))
    for cls in (FuzzySet, Distribution):
        real = cls.__init__
        monkeypatch.setattr(cls, "__init__", lambda self, *args, real=real: built.append(type(self)) or real(self, *args))
    assert model_to_document(parse_model(json.dumps(expected))) == expected
    assert len(calls) == len(set(calls)) == len(model.pool) and built == []


def _joint_read_pairs(directory):
    """(left, right) paths: the golden models with their siblings (the example with itself among
    them), then 20 generated pairs, plain and labeled, the two sides over different pools unless
    they are one model.  In turn: two models; one model with its degrees spelled two other equal
    ways on each side ("0.5" and "0.50"); an empty distribution on both sides; one path given
    twice; a right side in the text format."""
    yield from ((path, sibling) for _, path, sibling in _models(directory))
    rng = random.Random(20261020)
    for i in range(20):
        spec = random_spec(rng, 8, labeled=i % 2 == 1)
        sibling = dataclasses.replace(spec, seed=spec.seed + 1, value_pool_size=spec.value_pool_size + 3)
        left, right = (model_to_document(generate(s)) for s in (spec, sibling))
        if i % 5 == 1:
            left, right = _respelled(left, rng), _respelled(left, rng)
        elif i % 5 == 2:
            for doc, targets in ((left, {}), (right, {"s0": "0"})):
                doc["transitions"].append({"from": "s0", "action": "a0", "targets": targets})
        paths = [directory / f"joint{i}-left.json", directory / f"joint{i}-right.json"]
        paths[0].write_text(json.dumps(left))
        if i % 5 == 4:
            paths[1] = directory / f"joint{i}-right.txt"
        paths[1].write_text(_text_twin(right) if i % 5 == 4 else json.dumps(right))
        yield paths[0], paths[0] if i % 5 == 3 else paths[1]


def test_the_joint_read_is_the_union_of_the_two_reads(tmp_path, monkeypatch):
    # parse_union reads two documents straight into their union: the union that
    # disjoint_union builds from the two systems, field by field, each path read once.
    reads = []
    monkeypatch.setattr(modelio, "_text", lambda source, real=modelio._text: reads.append(source) or real(source))
    for left, right in _joint_read_pairs(tmp_path):
        reads.clear()
        union, inject_a, inject_b = modelio.parse_union(left, right)
        assert reads == list(dict.fromkeys([left, right]))
        expected, expected_a, expected_b = disjoint_union(parse_model(left), parse_model(right))
        for field in (*ARRAYS, "actions", "label_alphabet", "states"):
            assert getattr(union, field) == getattr(expected, field), (left, right, field)
        assert (inject_a, inject_b) == (expected_a, expected_b), (left, right)


def test_the_joint_read_raises_the_alphabet_rule_as_the_union_of_two_reads_does(tmp_path, monkeypatch):
    # it used to raise a DocumentError, once it had read the right document through again for a document fault
    left = {"kind": "nflts", "states": ["s"], "actions": ["a"], "transitions": [], "label_alphabet": ["p"]}
    for key, other, kind in (("actions", ["b"], "action"), ("label_alphabet", ["q"], "label")):
        paths = tmp_path / "left.json", tmp_path / f"right-{kind}.json"
        paths[0].write_text(json.dumps(left))
        paths[1].write_text(json.dumps({**left, key: other}))
        with pytest.raises(ModelError) as expected:
            disjoint_union(*map(parse_model, paths))
        with monkeypatch.context() as patch:
            patch.setattr(modelio._Document, "arguments", lambda self: pytest.fail("a document read through again"))
            with pytest.raises(ModelError) as info:
                modelio.parse_union(*paths)
        assert type(info.value) is type(expected.value) is ModelError
        assert str(info.value) == str(expected.value) == f"systems must share the {kind} alphabet"
