"""Reading and writing model and relation documents.

The primary format is JSON with all degrees as decimal strings (exactness
survives round-trips).  A mirrored line-oriented text format exists for
hand-authoring (first non-space character not '{' or '['): its line scan
decodes it into the JSON document it mirrors, and one walk reads both formats.

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

A JSON model or relation document with any other top-level key is an error,
and a system is written as an nflts exactly when its label alphabet is not
empty.  ``parse_model`` parses and ranks each distinct degree string, then
builds the model in one walk of the constructor's interner, which writes a
``targets`` or label object whose lookups all hit as it stands and checks one
that misses.  ``parse_union`` walks two documents into their disjoint union.

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
from contextlib import suppress
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import Union

from .degrees import DegreeError, parse_degree, format_degree
from .model import Nfts, ModelError, _intern, _nfts
from .partition import CfpRelation
from .relations import CrispRelation, FuzzyRelation

FORMAT_VERSION = "1"
_JSON = ("{", "[")  # the first non-space character of a JSON model document
_TRANSITION, _TARGETS = itemgetter("from", "action", "targets"), itemgetter(2)  # a transition item's fields


class DocumentError(ValueError):
    """Malformed model/relation document, with field context in the message."""


def _degree(text, context):  # an error names the field context(), built only then
    if not isinstance(text, str):
        raise DocumentError(f"{context()}: degree must be a decimal string, got {text!r}")
    try:
        return parse_degree(text)
    except DegreeError as exc:
        raise DocumentError(f"{context()}: {exc}") from exc


def parse_model(source: Union[str, Path]) -> Nfts:
    """Parse a model from a path or from document text."""
    return _model([_document(source)])


def parse_union(left: Union[str, Path], right: Union[str, Path]) -> tuple:
    """``graph.disjoint_union(parse_model(left), parse_model(right))``, read in one walk: a source
    given twice is decoded once, and the left document is walked whole before the right one is opened."""
    documents: dict = {}
    union = _model(documents.get(s) or documents.setdefault(s, _document(s)) for s in (left, right))
    return union, *({s: (tag, s) for tag, s in union.names if tag == side} for side in (0, 1))


def read_model(source: Union[str, Path]) -> tuple:
    """The constructor's arguments of the model at a path or in document text:
    (states, actions, transitions), then (label_alphabet, state_labels) for an nflts."""
    return _document(source).arguments()


def _text(source: Union[str, Path]) -> str:
    """The document at a path, or ``source`` itself when it is document text: a string
    with a line break, or one that, stripped, starts with '{' and ends with '}' (a JSON
    document is an object, so a name such as ``[draft].json`` is a path)."""
    if isinstance(source, str) and ("\n" in source or (line := source.strip()).startswith("{") and line.endswith("}")):
        return source
    return Path(source).read_text(encoding="utf-8-sig")  # a byte-order mark is no part of the text


def _document(source: Union[str, Path]) -> "_Document":
    """The model document at a path or in document text, in either format."""
    text = _text(source)
    return _Document(_json(text)) if text.lstrip().startswith(_JSON) else _Document(*_lines(text))


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


class _Document:
    """A model document as its constructor's arguments, its degree strings as they stand.  ``texts`` values each
    distinct well-formed one, parsed once: by the line scan, or by ``part`` before a walk.  The walk checks an entry
    (``transition``, ``label``) only when one of its lookups misses, so faults come in document order."""

    def __init__(self, doc, texts=None):
        if not isinstance(doc, dict):
            raise DocumentError("model document must be a JSON object")
        _known_keys(doc, _MODEL_KEYS, "model")
        self.kind = doc.get("kind", "nfts")
        if self.kind not in ("nfts", "nflts"):
            raise DocumentError(f"kind: expected 'nfts' or 'nflts', got {self.kind!r}")
        version = doc.get("format_version", FORMAT_VERSION)
        if version != FORMAT_VERSION:
            raise DocumentError(f"format_version: unsupported version {version!r}")
        self.states, self.actions = _strings(doc, "states", True), _strings(doc, "actions", True)
        if not isinstance(doc.get("transitions", []), list):
            raise DocumentError("transitions: list required")
        alphabet = doc.get("label_alphabet", [])  # a fault in its type comes after the labels' faults
        self.alphabet = alphabet if isinstance(alphabet, list) and all(isinstance(p, str) for p in alphabet) else ()
        self.doc, self.texts, self.whole = doc, {} if texts is None else texts, False

    def part(self) -> tuple:
        """The part that ``model._intern`` walks: an entry of the wrong shape raises the document's first fault."""
        try:
            transitions = [*map(_TRANSITION, self.doc.get("transitions", []))]
            strings = () if self.texts else {*chain.from_iterable(map(dict.values, chain(  # else a line scan, or
                map(_TARGETS, transitions), dict.values(self.doc.get("state_labels", {})))))}  # a walk, valued them
        except (KeyError, TypeError):
            self.arguments()  # which raises it: a document fault comes before any model fault
        for text in strings:  # a malformed degree, or one that is no string, misses in the walk, which raises it
            with suppress(DegreeError, TypeError):
                self.texts[text] = parse_degree(text)
        return self.states, self.actions, transitions, self.alphabet, self.labels(), self

    def transition(self, at: int) -> tuple:
        """Transition ``at`` as (from, action, targets), each degree its value: its document faults, in order."""
        item = self.doc["transitions"][at]
        if not isinstance(item, dict) or "from" not in item or "action" not in item or "targets" not in item:
            raise DocumentError(f"transitions[{at}]: needs 'from', 'action' and 'targets'")
        source, action, targets = _TRANSITION(item)
        if not isinstance(source, str) or not isinstance(action, str):
            raise DocumentError(f"transitions[{at}]: 'from' and 'action' must be strings")
        field = f"transitions[{at}].targets"
        return source, action, {e: self.read(t, lambda: f"{field}[{e!r}]") for e, t in _object(targets, field).items()}

    def label(self, state) -> dict:
        """A state's label, each degree its value: its document faults, in entry order."""
        label, field = self.doc["state_labels"][state], f"state_labels[{state!r}]"
        return {p: self.read(t, lambda: f"{field}[{p!r}]") for p, t in _object(label, field).items()}

    def labels(self):
        """Each state's label as it stands, then the checks that follow the labels."""
        if self.kind == "nflts":
            yield from _object(self.doc.get("state_labels", {}), "state_labels").items()
        elif "state_labels" in self.doc or "label_alphabet" in self.doc:
            raise DocumentError("kind 'nfts' does not take labels")
        _strings(self.doc, "label_alphabet")
        self.whole = True  # walked whole: no document fault is left in it

    def read(self, text, context):
        value = self.texts.get(text) if type(text) is str else None
        return self.texts.setdefault(text, _degree(text, context)) if value is None else value

    def arguments(self) -> tuple:
        """The constructor's arguments, as ``read_model`` gives them: each degree a Fraction."""
        arguments = self.states, self.actions, [*map(self.transition, range(len(self.doc.get("transitions", []))))]
        labels = {state: self.label(state) for state, _ in self.labels()}
        return arguments + (self.alphabet, labels) if self.kind == "nflts" else arguments


def _model(documents) -> Nfts:
    """The system of the documents, or their union, in one walk: each is walked whole before the next one is made, and
    a model fault in it is raised after any document fault later in it, save the shared-alphabet rule that follows."""
    walked: list = []  # the documents met: a model fault is in the last one
    try:
        return _nfts(*_intern(doc.part() for doc in documents if not walked.append(doc)))
    except ModelError as exc:  # a document fault later in the document comes first: read it through
        if walked[-1].whole:
            raise
        walked[-1].arguments()
        raise DocumentError(str(exc)) from exc


def _lines(text: str) -> tuple:
    """The decoded JSON document that a text document mirrors, its degrees the strings as
    written, and each distinct degree string's value: checked once, in its line's context."""
    doc, texts = {"states": [], "actions": [], "transitions": []}, {}

    def pairs_of(tokens, context):
        out = {}
        for token in tokens:
            if ":" not in token:
                raise DocumentError(f"{context}: expected element:degree, got {token!r}")
            element, _, degree = token.rpartition(":")
            if degree not in texts:
                texts[degree] = _degree(degree, lambda: context)
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
            doc["kind"] = rest[0]
        elif word in ("states", "actions"):
            doc[word] += rest
        elif word == "labels":  # a present key, even with no symbols: labels under the kind rule
            doc.setdefault("label_alphabet", []).extend(rest)
        elif word == "trans":
            if len(rest) < 2:
                raise DocumentError(f"{context}: trans needs a source and an action")
            doc["transitions"].append({"from": rest[0], "action": rest[1], "targets": pairs_of(rest[2:], context)})
        elif word == "label":
            if len(rest) < 1:
                raise DocumentError(f"{context}: label needs a state")
            doc.setdefault("state_labels", {})[rest[0]] = pairs_of(rest[1:], context)
        else:
            raise DocumentError(f"{context}: unknown directive {word!r}")
    return doc, texts


def model_to_document(model: Nfts) -> dict:
    names, dists, texts = model.names, model.dists, [format_degree(x) for x in model.pool]
    transitions = [
        {"from": names[i], "action": action, "targets": {names[j]: texts[r] for _, j, r in sorted(dists[k])}}
        for i, action, k in sorted(model.delta)  # ids follow the sorted names
    ]
    doc = {"format_version": FORMAT_VERSION, "kind": "nfts", "states": list(names), "actions": sorted(model.actions),
           "transitions": transitions}
    if model.label_alphabet:
        doc.update(kind="nflts", label_alphabet=sorted(model.label_alphabet), state_labels={
            names[i]: {p: texts[r] for p, r in sorted(label.items())} for i, label in model.labels.items()})
    return doc


def serialize_model(model: Nfts) -> str:
    return json.dumps(model_to_document(model), indent=2)


# -- relation documents -----------------------------------------------------


def parse_relation(source: Union[str, Path], model: Nfts, expected: str | None = None):
    """Parse a crisp or fuzzy relation over the model's states; ``expected``,
    "crisp" or "fuzzy", makes a document of the other kind an error."""
    doc = _json(_text(source))
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
        seen, entries = {}, {}  # seen: each distinct degree string parsed once, as in _Document.read
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
