"""Reading and writing model and relation documents.

The primary format is JSON with all degrees as decimal strings (exactness
survives round-trips).  A mirrored line-oriented text format exists for
hand-authoring; it is detected by the input not starting with '{'.

JSON model document::

    {
      "format_version": "1",
      "kind": "nfts" | "nflts",
      "states": ["s1", ...],
      "actions": ["a", ...],
      "transitions": [{"from": "s1", "action": "a", "targets": {"s2": "0.5"}}],
      "label_alphabet": ["p", ...],          # nflts only
      "state_labels": {"s1": {"p": "0.7"}}   # nflts only
    }

A JSON model or relation document with any other top-level key is an error.

Text model document::

    kind nfts
    states s1 s2
    actions a
    trans s1 a s2:0.5 s3:0.8
    labels p q          # nflts only
    label s1 p:0.7      # nflts only
"""
from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from .degrees import DegreeError, parse_degree, format_degree
from .model import Nfts, Nflts, ModelError, build
from .partition import CfpRelation
from .relations import CrispRelation, FuzzyRelation

FORMAT_VERSION = "1"


class DocumentError(ValueError):
    """Malformed model/relation document, with field context in the message."""


def _degree(text, context):  # an error names the field context(), built only then
    if not isinstance(text, str):
        raise DocumentError(f"{context()}: degree must be a decimal string, got {text!r}")
    try:
        return parse_degree(text)
    except DegreeError as exc:
        raise DocumentError(f"{context()}: {exc}") from exc


def _degree_map(value, seen: dict, field: str, key) -> dict:
    """A JSON object of element -> degree string, as element -> Fraction.
    ``seen`` holds the degree strings of the document parsed so far, so
    each distinct string is parsed once and its Fraction is shared.  An
    error names the object as ``field.format(key)``, built only on an error."""
    if not isinstance(value, dict):
        _object(value, field.format(key))  # raises
    degrees = {}
    for element, text in value.items():
        degree = seen.get(text) if type(text) is str else None
        if degree is None:
            degree = seen[text] = _degree(text, lambda: f"{field.format(key)}[{element!r}]")
        degrees[element] = degree
    return degrees


def parse_model(source: Union[str, Path]) -> Nfts:
    """Parse a model from a path or from document text."""
    return build_model(read_model(source))


def read_model(source: Union[str, Path]) -> tuple:
    """The constructor's arguments of the model at a path or in document text:
    (states, actions, transitions), then (label_alphabet, state_labels) for an nflts."""
    if isinstance(source, Path):
        text = source.read_text()
    elif "\n" in source or source.lstrip().startswith("{"):
        text = source
    else:
        text = Path(source).read_text()
    return _arguments(_json(text)) if text.lstrip().startswith("{") else _arguments_from_lines(text)


def build_model(arguments: tuple) -> Nfts:
    """The system of ``read_model``'s arguments; a ModelError becomes a DocumentError."""
    try:
        return build(*arguments)
    except ModelError as exc:
        raise DocumentError(str(exc)) from exc


def _json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON: {exc}") from exc


def _strings(doc: dict, field: str, non_empty: bool = False) -> list:
    value = doc.get(field, [])
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value) or non_empty and not value:
        raise DocumentError(f"{field}: {'non-empty ' if non_empty else ''}list of strings required")
    return value


def _object(value, context: str) -> dict:
    if not isinstance(value, dict):
        raise DocumentError(f"{context}: JSON object required")
    return value


_MODEL_KEYS = frozenset(["format_version", "kind", "states", "actions", "transitions", "label_alphabet", "state_labels"])
_RELATION_KEYS = frozenset(["kind", "pairs", "degrees"])


def _known_keys(doc: dict, keys: frozenset, what: str):
    """A key that the document format does not define is an error, not ignored."""
    if not keys.issuperset(doc):
        raise DocumentError(f"{what} document: unknown key {min(map(repr, set(doc) - keys))}")


def model_from_document(doc: dict) -> Nfts:
    return build_model(_arguments(doc))


def _arguments(doc) -> tuple:
    if not isinstance(doc, dict):
        raise DocumentError("model document must be a JSON object")
    _known_keys(doc, _MODEL_KEYS, "model")
    kind = doc.get("kind", "nfts")
    if kind not in ("nfts", "nflts"):
        raise DocumentError(f"kind: expected 'nfts' or 'nflts', got {kind!r}")
    version = doc.get("format_version", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise DocumentError(f"format_version: unsupported version {version!r}")
    states, actions = _strings(doc, "states", True), _strings(doc, "actions", True)
    if not isinstance(doc.get("transitions", []), list):
        raise DocumentError("transitions: list required")
    transitions, seen = [], {}
    for i, item in enumerate(doc.get("transitions", [])):
        if not isinstance(item, dict) or "from" not in item or "action" not in item or "targets" not in item:
            raise DocumentError(f"transitions[{i}]: needs 'from', 'action' and 'targets'")
        source, action = item["from"], item["action"]
        if not isinstance(source, str) or not isinstance(action, str):
            raise DocumentError(f"transitions[{i}]: 'from' and 'action' must be strings")
        transitions.append((source, action, _degree_map(item["targets"], seen, "transitions[{}].targets", i)))
    if kind == "nfts":
        if "state_labels" in doc or "label_alphabet" in doc:
            raise DocumentError("kind 'nfts' does not take labels")
        return states, actions, transitions
    labels = {
        state: _degree_map(label, seen, "state_labels[{!r}]", state)
        for state, label in _object(doc.get("state_labels", {}), "state_labels").items()
    }
    return states, actions, transitions, _strings(doc, "label_alphabet"), labels


def _arguments_from_lines(text: str) -> tuple:
    kind, transitions, labels = "nfts", [], {}
    lists = {"states": [], "actions": [], "labels": []}  # the directives that list names
    seen = {}  # degree string -> its Fraction, parsed once per document

    def pairs_of(tokens, context):
        out = {}
        for token in tokens:
            if ":" not in token:
                raise DocumentError(f"{context}: expected element:degree, got {token!r}")
            element, _, text = token.rpartition(":")
            degree = seen.get(text)
            if degree is None:
                degree = seen[text] = _degree(text, lambda: context)
            out[element] = degree
        return out

    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        word, *rest = line.split()
        context = f"line {number}"
        if word == "kind":
            if rest not in (["nfts"], ["nflts"]):
                raise DocumentError(f"{context}: kind must be nfts or nflts")
            kind = rest[0]
        elif word in lists:
            lists[word] += rest
        elif word == "trans":
            if len(rest) < 2:
                raise DocumentError(f"{context}: trans needs a source and an action")
            transitions.append((rest[0], rest[1], pairs_of(rest[2:], context)))
        elif word == "label":
            if len(rest) < 1:
                raise DocumentError(f"{context}: label needs a state")
            labels[rest[0]] = pairs_of(rest[1:], context)
        else:
            raise DocumentError(f"{context}: unknown directive {word!r}")
    states, actions, alphabet = lists.values()
    if kind == "nfts":
        if labels or alphabet:
            raise DocumentError("kind 'nfts' does not take labels")
        return states, actions, transitions
    return states, actions, transitions, alphabet, labels


def model_to_document(model: Nfts) -> dict:
    names, out, n, texts = model.names, model.out, len(model.names), [format_degree(x) for x in model.pool]
    transitions = [
        {"from": source, "action": action, "targets": {names[j]: texts[r] for _, j, r in sorted(out[n + k])}}
        for source, action, k in sorted(model.delta)
    ]
    doc = {"format_version": FORMAT_VERSION, "kind": "nfts", "states": list(names), "actions": sorted(model.actions),
           "transitions": transitions}
    if isinstance(model, Nflts):
        doc["kind"] = "nflts"
        doc["label_alphabet"] = sorted(model.label_alphabet)
        doc["state_labels"] = {
            names[i]: {p: texts[r] for p, r in sorted(label.items())} for i, label in model.user_labels()
        }
    return doc


def serialize_model(model: Nfts) -> str:
    return json.dumps(model_to_document(model), indent=2)


# -- relation documents -----------------------------------------------------


def parse_relation(source: Union[str, Path], model: Nfts, expected: str | None = None):
    """Parse a crisp or fuzzy relation over the model's states; ``expected``,
    "crisp" or "fuzzy", makes a document of the other kind an error."""
    if isinstance(source, Path):
        text = source.read_text()
    elif source.lstrip().startswith("{"):
        text = source
    else:
        text = Path(source).read_text()
    doc = _json(text)
    if not isinstance(doc, dict):
        raise DocumentError("relation document must be a JSON object")
    _known_keys(doc, _RELATION_KEYS, "relation")
    kind = doc.get("kind")
    if kind not in ("crisp", "fuzzy") or expected not in (None, kind):
        wanted = repr(expected) if expected else "'crisp' or 'fuzzy'"
        raise DocumentError(f"kind: expected {wanted}, got {kind!r}")
    states = model.states
    field, width = ("pairs", 2) if kind == "crisp" else ("degrees", 3)
    rows = doc.get(field, [])
    if not isinstance(rows, list) or not all(
        isinstance(row, list) and len(row) == width and all(isinstance(v, str) for v in row) for row in rows
    ):
        raise DocumentError(f"{field}: list of {width}-element lists of strings required")
    try:
        if kind == "crisp":
            return CrispRelation(states, states, {tuple(p) for p in rows})
        seen, entries = {}, {}  # seen: each distinct degree string parsed once, as in _degree_map
        for x, y, d in rows:
            if (x, y) in entries:  # the last row would win: ``check`` would depend on row order
                raise DocumentError(f"degrees[{x!r}, {y!r}]: pair listed twice")
            entries[x, y] = seen[d] if d in seen else seen.setdefault(d, _degree(d, lambda: f"degrees[{x!r}, {y!r}]"))
        return FuzzyRelation(states, states, entries)
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc


def relation_to_document(relation) -> dict:
    if isinstance(relation, CrispRelation):
        return {"kind": "crisp", "pairs": sorted(map(list, relation.pairs))}
    if isinstance(relation, CfpRelation):  # rows off the LCA pass, with one text per tree node
        return {"kind": "fuzzy", "degrees": relation.positive_rows(format_degree)}
    texts, rows, degrees = {}, [], relation.rows()  # texts: id(d), then (numerator, denominator) -> text
    for x, y, d in degrees:  # `degrees` holds every d until the end, so no id is reused
        if (text := texts.get(id(d))) is None:
            key = d.numerator, d.denominator
            text = texts[id(d)] = texts.get(key) or texts.setdefault(key, format_degree(d))
        rows.append([x, y, text])
    return {"kind": "fuzzy", "degrees": rows}
