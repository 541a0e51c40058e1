"""Command-line front end.

Every subcommand loads models from JSON or text documents, runs the selected engine and prints a
deterministic result; ``--json`` wraps it in the machine schema {command, input, result, engine,
wall_time_ms}, written by one writer in the bytes of ``json.dumps(doc, indent=2)``; a fuzzy
``bisim-between`` table goes straight from its grouped LCA pass to the text or JSON writer.
Exit codes: 0 on success, 1 on a domain error, 2 on a usage error.  A command runs with the cyclic
garbage collector off: no command leaves a reference cycle for it to free, and the parser's build frees
those it leaves (``test_cli.test_commands_leave_no_cyclic_garbage``).
"""
from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import sys
import time
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .degrees import format_degree
from .model import ModelError, Nfts
from .modelio import (
    DocumentError,
    model_to_document,
    parse_model,
    parse_relation,
    parse_union,
    read_model,
    relation_to_document,
)
from .graph import to_flg, as_nflts, on_states, require_shared_alphabets
from .crisp_engine import crisp_partition_oracle, crisp_partition_system
from .fuzzy_engine import fuzzy_partition_oracle, fuzzy_partition_system
from .partition import CfpRelation, NotAnEquivalenceError
from .simulation import (  # bisimulation_between_nflts: the library's entry, wrapped by perfbench/tracer.py
    bisimulation_between_nflts,
    bisimulation_of_union,
    crisp_simulation_nflts,
    fuzzy_simulation_nflts,
)
from . import oracle
from .generate import GenSpec, GenSpecError, generate

# command -> engine -> the function that runs it, called with the parsed
# models and the verbose flag.  Names are looked up at call time, so wrappers
# set on this module's globals (perfbench/tracer.py) apply.
_FUZZY_PARTITION = {
    "efficient": lambda m, verbose: fuzzy_partition_system(m, verbose),
    "oracle": lambda m, _: fuzzy_partition_oracle(m),
}
ENGINES = {
    "crisp-partition": {
        "efficient": lambda m, verbose: crisp_partition_system(m, verbose),
        "oracle": lambda m, _: crisp_partition_oracle(m),
    },
    "fuzzy-partition": _FUZZY_PARTITION,
    "degree": _FUZZY_PARTITION,
    "crisp-sim": {
        "efficient": lambda a, b, verbose: crisp_simulation_nflts(a, b, verbose),
        "oracle": lambda a, b, _: on_states(a, b, oracle.gfp_crisp_sim_flg(*_graphs(a, b)).pairs),
    },
    "fuzzy-sim": {
        "efficient": lambda a, b, verbose: fuzzy_simulation_nflts(a, b, verbose),
        "oracle": lambda a, b, _: on_states(a, b, oracle.gfp_fuzzy_sim_flg(*_graphs(a, b)).entries),
    },
}


def _graphs(a, b) -> tuple:
    """The graphs of two systems for a graph fixpoint, under the efficient engines' alphabet rule."""
    require_shared_alphabets(a, b)
    return to_flg(a), to_flg(b)


# check --kind -> the definitional checker of a relation of that kind on a model as given.
CHECKERS = {"crisp-bisim": oracle.is_crisp_bisim_nfts, "fuzzy-bisim": oracle.is_fuzzy_bisim_nfts}


@functools.cache  # built once per process: parsing leaves the parser unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fuzzybisim",
                                     description="Bisimulations and simulations for fuzzy transition systems")
    commands = parser.add_subparsers(dest="command", required=True)

    def sub(name, help_text, *positionals):
        p = commands.add_parser(name, help=help_text)
        if name in ENGINES:
            p.add_argument("--engine", choices=sorted(ENGINES[name]),
                           help="efficient refinement or the brute-force oracle")
        p.add_argument("--verbose", action="store_true",
                       help="print intermediate partitions/relations")
        p.add_argument("--json", action="store_true", dest="as_json",
                       help="emit the machine-readable result schema")
        for positional in positionals:
            p.add_argument(positional)
        p.set_defaults(positionals=positionals, engine="efficient")  # what ``_inputs`` and ``_emit`` echo
        return p

    sub("crisp-partition", "greatest crisp bisimulation of a model, as a partition", "model")
    sub("fuzzy-partition", "greatest fuzzy bisimulation of a model, as a compact fuzzy partition", "model")
    sub("degree", "fuzzy bisimilarity degree of two states", "model", "x", "y")
    sub("crisp-sim", "greatest crisp simulation between two models", "left", "right")
    sub("fuzzy-sim", "greatest fuzzy simulation between two models", "left", "right")
    p = sub("bisim-between", "greatest bisimulation between two models (disjoint union)", "left", "right")
    p.add_argument("--mode", choices=["crisp", "fuzzy"], default="crisp")
    p = sub("check", "check a relation against a bisimulation definition", "model", "relation")
    p.add_argument("--kind", choices=sorted(CHECKERS), required=True)
    p.set_defaults(engine="oracle")  # CHECKERS are the oracle's definitional checkers
    p = sub("gen", "generate a reproducible random model document")
    p.set_defaults(engine=None)  # a generator, not an engine
    p.add_argument("--states", type=int, default=5)
    p.add_argument("--actions", type=int, default=2)
    p.add_argument("--dists", type=_range, default="0:2", help="min:max distributions per state/action")
    p.add_argument("--support", type=_range, default="1:2", help="min:max support size")
    p.add_argument("--pool", type=int, default=6, help="value pool size l (distinct degrees + 2)")
    p.add_argument("--labels", type=int, default=0, help="label alphabet size (0 for plain nfts)")
    p.add_argument("--label-density", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, default=None)
    gc.collect(1)  # add_argument's format checks leave help formatters in cycles: freed before any command runs
    return parser


def _range(text: str):
    """``min:max`` as two integers; ``n`` alone means ``n:n``."""
    lo, _, hi = text.partition(":")
    try:
        return int(lo), int(hi or lo)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected min:max integers, got {text!r}") from None


def _emit(args, started: float, payload, text):
    """Print the ``--json`` document of ``payload()``, or else ``text()``: only the form being
    printed is rendered.  ``wall_time_ms``, the last key, is stamped once the rest is rendered."""
    if args.as_json:
        out = _json_pieces({"command": args.command, "input": _inputs(args), "result": payload(), "engine": args.engine})
        out.pop()  # the closing "\n}", which goes after wall_time_ms
        rendered = "".join(out)
        stamp = round((time.perf_counter() - started) * 1000.0, 3)
        print(rendered, end=f',\n  "wall_time_ms": {json.dumps(stamp)}\n}}\n')
    else:
        print(text())


def _json_text(doc) -> str:  # ``json.dumps(doc, indent=2)`` byte for byte: the joined `_json_pieces`
    return "".join(_json_pieces(doc))


def _json_pieces(doc) -> list:
    """The text of ``json.dumps(doc, indent=2)`` in pieces, for string keys: each distinct string is encoded
    once, a list of strings or ints in one join, a table from pieces, and a `CfpRelation` (its rows) by
    `_cfp_table`.  It recurses once per level, and no command's document nests more than five."""
    out = []
    _json_value(doc, "", functools.lru_cache(maxsize=None)(encode_basestring_ascii), out)
    return out


def _json_value(value, indent: str, strings, out: list):
    """Append the JSON text at ``indent`` of ``value`` to ``out``, ``strings`` encoding each string."""
    if type(value) is str:
        out.append(strings(value))
    elif type(value) is CfpRelation:
        _cfp_table(value, indent, strings, out)
    elif not value or not isinstance(value, (dict, list, tuple)):
        out.append(json.dumps(value))
    elif isinstance(value, dict) or not _table(value, indent, strings, out):
        inner, is_dict = indent + "  ", isinstance(value, dict)
        keys = [strings(k) + ": " for k in value] if is_dict else repeat("")
        for i, (key, item) in enumerate(zip(keys, value.values() if is_dict else value)):
            out.append(("," if i else "{" if is_dict else "[") + "\n" + inner + key)
            _json_value(item, inner, strings, out)
        out.append("\n" + indent + ("}" if is_dict else "]"))


def _table(rows, indent: str, strings, out: list) -> bool:
    """Append the JSON text at ``indent`` of a list of strings, of ints, or of nulls and non-empty lists
    of strings to ``out`` and return True, else return False with ``out`` as it was.  A row is a head per
    run of equal first cells, then each later cell's piece after its separator, the last with the close."""
    types, row, cell = set(map(type, rows)), indent + "  ", indent + "    "
    if types == {str} or types == {int}:
        out.append(f"[\n{row}" + f",\n{row}".join(map(strings if str in types else str, rows)) + f"\n{indent}]")
        return True
    if not types <= {list, tuple, type(None)} or not all(r or r is None for r in rows):
        return False
    opening, separator, close, null = f",\n{row}[\n{cell}", f",\n{cell}", f"\n{row}]", f",\n{row}null"
    start, later, last, first = len(out), {}, {}, object()  # later, last: cell -> its piece, made on first use
    try:  # a cell that is unhashable or not a string raises
        for r in rows:
            if r is None:
                out.append(null)
                continue
            if r[0] != first:
                first, head = r[0], opening + strings(r[0])
            out.append(head)
            for c in r[1:-1]:
                out.append(later.get(c) or later.setdefault(c, separator + strings(c)))
            c = r[-1]
            out.append((last.get(c) or last.setdefault(c, separator + strings(c) + close)) if len(r) > 1 else close)
    except TypeError:
        del out[start:]
        return False
    out[start] = "[" + out[start][1:]  # the first head opens the table, with no comma
    out.append(f"\n{indent}]")
    return True


def _cfp_table(relation: CfpRelation, indent: str, strings, out: list):
    """Append the JSON text at ``indent`` of the rows of ``relation`` to ``out`` from its grouped LCA pass:
    a left element's head (row opening and name) before each cell of its leaf, made once per (b, node)."""
    row, cell, start = indent + "  ", indent + "    ", len(out)
    for a, cells in relation.row_groups(lambda b, t: f",\n{cell}{strings(b)},\n{cell}{t}\n{row}]",
                                        lambda d: strings(format_degree(d))):
        out += chain.from_iterable(zip(repeat(f",\n{row}[\n{cell}" + strings(a)), cells))  # head + head.join(cells)
    if len(out) > start:
        out[start] = "[" + out[start][1:]  # the first head opens the table, with no comma
    out.append(f"\n{indent}]" if len(out) > start else "[]")


def _inputs(args):
    """The command's positionals: one as itself, several as a list, none as None."""
    values = [getattr(args, name) for name in args.positionals]
    return values[0] if len(values) == 1 else values or None


def _relation_doc_text(doc: dict) -> str:
    """A relation document as text: one row per line, fields joined by spaces."""
    rows = doc["pairs"] if doc["kind"] == "crisp" else doc["degrees"]
    if type(rows) is CfpRelation:  # from its grouped LCA pass: a left element's rows as one, a repeated after each break
        rows = ([a, f"\n{a} ".join(cells)] for a, cells in rows.row_groups("{} {}".format, format_degree) if cells)
    return "\n".join(map(" ".join, rows)) or ("(empty relation)" if doc["kind"] == "crisp" else "(zero relation)")


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    enabled = gc.isenabled()
    gc.disable()  # no command leaves a reference cycle: see the module docstring
    try:
        return _dispatch(args, started)
    except BrokenPipeError:
        raise  # main() handles a reader that went away
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1
    except (DocumentError, ModelError, GenSpecError, NotAnEquivalenceError,
            KeyError, OSError, UnicodeError, RecursionError) as exc:
        detail = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {detail}", file=sys.stderr)
        return 1
    finally:
        if enabled:
            gc.enable()


def _dispatch(args, started: float) -> int:
    if args.command in ("crisp-partition", "fuzzy-partition", "degree"):
        result = ENGINES[args.command][args.engine](parse_model(Path(args.model)), args.verbose)
        if args.command == "crisp-partition":
            _emit(args, started, lambda: [list(b) for b in result.blocks], result.text)
        elif args.command == "fuzzy-partition":
            _emit(args, started, result.to_json, result.text)
        else:
            value = format_degree(result.degree_of(args.x, args.y))
            _emit(args, started, lambda: value, lambda: value)
        return 0

    if args.command in ("crisp-sim", "fuzzy-sim", "bisim-between"):
        if args.command == "bisim-between":  # the two documents read straight into their union
            relation = bisimulation_of_union(*parse_union(Path(args.left), Path(args.right)), args.mode, args.verbose)
        else:
            left, right = (as_nflts(parse_model(Path(path))) for path in (args.left, args.right))
            relation = ENGINES[args.command][args.engine](left, right, args.verbose)
        doc = {"kind": "fuzzy", "degrees": relation} if type(relation) is CfpRelation else relation_to_document(relation)
        _emit(args, started, lambda: doc, lambda: _relation_doc_text(doc))
        return 0

    if args.command == "check":
        given = read_model(Path(args.model))  # built first, for the constructor's checks and errors
        relation = parse_relation(Path(args.relation), Nfts(*given), args.kind.partition("-")[0])
        report = CHECKERS[args.kind](relation, oracle.System(*given))
        payload = {
            "holds": report.holds,
            "clause": report.clause,
            "witness": [str(w) for w in report.witness] if report.witness else None,
        }
        text = "holds" if report.holds else f"violates {report.clause} at {payload['witness']}"
        _emit(args, started, lambda: payload, lambda: text)
        return 0

    if args.command == "gen":
        spec = GenSpec(
            state_count=args.states,
            action_count=args.actions,
            distributions_per_state_action=args.dists,
            support_size=args.support,
            value_pool_size=args.pool,
            label_alphabet_size=args.labels,
            label_density=args.label_density,
            seed=args.seed,
        )
        document = model_to_document(generate(spec))
        if args.out:
            Path(args.out).write_text(_json_text(document) + "\n", encoding="utf-8")
            _emit(args, started, lambda: {"written": args.out}, lambda: f"wrote {args.out}")
        else:
            _emit(args, started, lambda: document, lambda: _json_text(document))
        return 0

    raise AssertionError(f"unhandled command {args.command}")


def main():
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (``| head``).  Python flushes stdout again at
        # exit, so point it at /dev/null first to keep that flush quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
