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
from .model import Nfts, Nflts, ModelError
from .relations import CrispRelation, FuzzyRelation

FORMAT_VERSION = "1"


class DocumentError(ValueError):
    """Malformed model/relation document, with field context in the message."""


def _degree(text, context: str):
    if not isinstance(text, str):
        raise DocumentError(f"{context}: degree must be a decimal string, got {text!r}")
    try:
        return parse_degree(text)
    except DegreeError as exc:
        raise DocumentError(f"{context}: {exc}") from exc


def _degree_map(value, context: str, seen: dict) -> dict:
    """A JSON object of element -> degree string, as element -> Fraction.
    ``seen`` holds the degree strings of the document parsed so far, so
    each distinct string is parsed once and its Fraction is shared."""
    degrees = {}
    for element, text in _object(value, context).items():
        degree = seen.get(text) if type(text) is str else None
        if degree is None:
            degree = seen[text] = _degree(text, f"{context}[{element!r}]")
        degrees[element] = degree
    return degrees


def parse_model(source: Union[str, Path]) -> Nfts:
    """Parse a model from a path or from document text."""
    if isinstance(source, Path):
        text = source.read_text()
    elif "\n" in source or source.lstrip().startswith("{"):
        text = source
    else:
        text = Path(source).read_text()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _model_from_json_text(text)
    return _model_from_lines(text)


def _model_from_json_text(text: str) -> Nfts:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON: {exc}") from exc
    return model_from_document(doc)


def _strings(doc: dict, field: str, non_empty: bool = False) -> list:
    value = doc.get(field, [])
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value) or non_empty and not value:
        raise DocumentError(f"{field}: {'non-empty ' if non_empty else ''}list of strings required")
    return value


def _object(value, context: str) -> dict:
    if not isinstance(value, dict):
        raise DocumentError(f"{context}: JSON object required")
    return value


def model_from_document(doc: dict) -> Nfts:
    if not isinstance(doc, dict):
        raise DocumentError("model document must be a JSON object")
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
        context = f"transitions[{i}]"
        if not isinstance(item, dict) or not {"from", "action", "targets"} <= set(item):
            raise DocumentError(f"{context}: needs 'from', 'action' and 'targets'")
        if not isinstance(item["from"], str) or not isinstance(item["action"], str):
            raise DocumentError(f"{context}: 'from' and 'action' must be strings")
        transitions.append((item["from"], item["action"], _degree_map(item["targets"], f"{context}.targets", seen)))
    try:
        if kind == "nfts":
            if "state_labels" in doc or "label_alphabet" in doc:
                raise DocumentError("kind 'nfts' does not take labels")
            return Nfts(states, actions, transitions)
        labels = {
            state: _degree_map(label, f"state_labels[{state!r}]", seen)
            for state, label in _object(doc.get("state_labels", {}), "state_labels").items()
        }
        return Nflts(states, actions, transitions, _strings(doc, "label_alphabet"), labels)
    except ModelError as exc:
        raise DocumentError(str(exc)) from exc


def _model_from_lines(text: str) -> Nfts:
    kind = "nfts"
    states: list = []
    actions: list = []
    alphabet: list = []
    transitions = []
    labels = {}
    seen = {}  # degree string -> its Fraction, parsed once per document

    def pairs_of(tokens, context):
        out = {}
        for token in tokens:
            if ":" not in token:
                raise DocumentError(f"{context}: expected element:degree, got {token!r}")
            element, _, text = token.rpartition(":")
            degree = seen.get(text)
            if degree is None:
                degree = seen[text] = _degree(text, context)
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
        elif word == "states":
            states += rest
        elif word == "actions":
            actions += rest
        elif word == "labels":
            alphabet += rest
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
    try:
        if kind == "nfts":
            if labels or alphabet:
                raise DocumentError("kind 'nfts' does not take labels")
            return Nfts(states, actions, transitions)
        return Nflts(states, actions, transitions, alphabet, labels)
    except ModelError as exc:
        raise DocumentError(str(exc)) from exc


def model_to_document(model: Nfts) -> dict:
    transitions = [
        {
            "from": source,
            "action": action,
            "targets": {t: format_degree(d) for t, d in sorted(model.distributions[k].items())},
        }
        for source, action, k in sorted(model.delta)
    ]
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": "nfts",
        "states": sorted(model.states),
        "actions": sorted(model.actions),
        "transitions": transitions,
    }
    if isinstance(model, Nflts):
        doc["kind"] = "nflts"
        doc["label_alphabet"] = sorted(model.label_alphabet)
        doc["state_labels"] = {
            s: {p: format_degree(d) for p, d in sorted(model.label_of(s).items())}
            for s in sorted(model.states)
            if model.label_of(s)
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
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DocumentError("relation document must be a JSON object")
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
        entries = {(x, y): _degree(d, f"degrees[{x!r}, {y!r}]") for x, y, d in rows}
        return FuzzyRelation(states, states, entries)
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc


def relation_to_document(relation) -> dict:
    if isinstance(relation, CrispRelation):
        return {"kind": "crisp", "pairs": sorted(map(list, relation.pairs))}
    texts, rows, degrees = {}, [], relation.rows()  # texts: id(d), then (numerator, denominator) -> text
    for x, y, d in degrees:  # `degrees` holds every d until the end, so no id is reused
        if (text := texts.get(id(d))) is None:
            key = d.numerator, d.denominator
            text = texts[id(d)] = texts.get(key) or texts.setdefault(key, format_degree(d))
        rows.append([x, y, text])
    return {"kind": "fuzzy", "degrees": rows}
