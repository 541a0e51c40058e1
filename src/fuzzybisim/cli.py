"""Command-line front end.

Every subcommand loads models from JSON or text documents, runs the selected
engine and prints a deterministic result; ``--json`` wraps it in the machine
schema {command, input, result, engine, wall_time_ms}.  Exit codes: 0 on
success, 1 on a domain error, 2 on a usage error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from .degrees import format_degree
from .model import ModelError
from .modelio import (
    DocumentError,
    model_to_document,
    parse_model,
    parse_relation,
    relation_to_document,
)
from .graph import to_flg, as_nflts
from .crisp_engine import crisp_partition_oracle, crisp_partition_system
from .fuzzy_engine import fuzzy_partition_oracle, fuzzy_partition_system
from .partition import NotAnEquivalenceError
from .relations import CrispRelation
from .simulation import (
    bisimulation_between_nflts,
    crisp_simulation_nflts,
    fuzzy_simulation_nflts,
    on_states,
)
from . import oracle, bench
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
        "oracle": lambda a, b, _: on_states(a, b, oracle.gfp_crisp_sim_flg(to_flg(a), to_flg(b)).pairs),
    },
    "fuzzy-sim": {
        "efficient": lambda a, b, verbose: fuzzy_simulation_nflts(a, b, verbose),
        "oracle": lambda a, b, _: on_states(a, b, oracle.gfp_fuzzy_sim_flg(to_flg(a), to_flg(b)).entries),
    },
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fuzzybisim",
                                     description="Bisimulations and simulations for fuzzy transition systems")
    commands = parser.add_subparsers(dest="command", required=True)

    def sub(name, help_text, *positionals):
        p = commands.add_parser(name, help=help_text)
        if name in ENGINES:
            p.add_argument("--engine", choices=sorted(ENGINES[name]), default="efficient",
                           help="efficient refinement or the brute-force oracle")
        p.add_argument("--verbose", action="store_true",
                       help="print intermediate partitions/relations")
        p.add_argument("--json", action="store_true", dest="as_json",
                       help="emit the machine-readable result schema")
        for positional in positionals:
            p.add_argument(positional)
        return p

    sub("crisp-partition", "greatest crisp bisimulation of a model, as a partition", "model")
    sub("fuzzy-partition", "greatest fuzzy bisimulation of a model, as a compact fuzzy partition", "model")
    sub("degree", "fuzzy bisimilarity degree of two states", "model", "x", "y")
    sub("crisp-sim", "greatest crisp simulation between two models", "left", "right")
    sub("fuzzy-sim", "greatest fuzzy simulation between two models", "left", "right")
    p = sub("bisim-between", "greatest bisimulation between two models (disjoint union)", "left", "right")
    p.add_argument("--mode", choices=["crisp", "fuzzy"], default="crisp")
    p = sub("check", "check a relation against a bisimulation definition", "model", "relation")
    p.add_argument("--kind", choices=["crisp-bisim", "fuzzy-bisim"], required=True)
    p = sub("gen", "generate a reproducible random model document")
    p.add_argument("--states", type=int, default=5)
    p.add_argument("--actions", type=int, default=2)
    p.add_argument("--dists", type=str, default="0:2", help="min:max distributions per state/action")
    p.add_argument("--support", type=str, default="1:2", help="min:max support size")
    p.add_argument("--pool", type=int, default=6, help="value pool size l (distinct degrees + 2)")
    p.add_argument("--labels", type=int, default=0, help="label alphabet size (0 for plain nfts)")
    p.add_argument("--label-density", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, default=None)
    p = sub("bench", "scaling run of efficient engines vs the naive oracle")
    p.add_argument("--sizes", type=str, default="50,100,200", help="comma-separated state counts")
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--pool", type=int, default=6)
    p.add_argument("--oracle-max", type=int, default=30)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, default="bench.csv")
    return parser


def _range(text: str):
    lo, _, hi = text.partition(":")
    return int(lo), int(hi or lo)


def _emit(args, payload, started: float, text: str):
    if args.as_json:
        doc = {
            "command": args.command,
            "input": _inputs(args),
            "result": payload,
            "engine": getattr(args, "engine", "efficient"),
            "wall_time_ms": round((time.perf_counter() - started) * 1000.0, 3),
        }
        print(_json_text(doc))
    else:
        print(text)


def _json_text(doc) -> str:
    """``json.dumps(doc, indent=2)``; a document too deep for the recursive
    encoder (a deep compact fuzzy partition) goes to ``_json_text_iterative``,
    which is about twice as slow on wide documents such as big relations."""
    try:
        return json.dumps(doc, indent=2)
    except RecursionError:
        return _json_text_iterative(doc)


def _json_text_iterative(doc) -> str:
    """``json.dumps(doc, indent=2)`` for a document with string keys, written
    from an explicit stack instead of recursion."""
    out, todo = [], [(doc, "")]
    while todo:
        value, indent = todo.pop()
        if indent is None:  # literal text
            out.append(value)
        elif value and isinstance(value, (dict, list, tuple)):
            inner, is_dict = indent + "  ", isinstance(value, dict)
            items = [(json.dumps(k) + ": ", v) for k, v in value.items()] if is_dict else [("", v) for v in value]
            out.append("{" if is_dict else "[")
            todo.append(("\n" + indent + ("}" if is_dict else "]"), None))
            for i, (key, item) in reversed(list(enumerate(items))):
                todo += [(item, inner), (("," if i else "") + "\n" + inner + key, None)]
        else:
            out.append(json.dumps(value))
    return "".join(out)


def _inputs(args):
    for attrs in (("model", "x", "y"), ("model", "relation"), ("model",), ("left", "right")):
        if all(hasattr(args, a) for a in attrs):
            values = [getattr(args, a) for a in attrs]
            return values[0] if len(values) == 1 else values
    return None


def _relation_text(relation) -> str:
    if isinstance(relation, CrispRelation):
        lines = [f"{x} {y}" for x, y in sorted(relation.pairs)]
        return "\n".join(lines) if lines else "(empty relation)"
    lines = [f"{x} {y} {format_degree(d)}" for (x, y), d in sorted(relation.entries.items())]
    return "\n".join(lines) if lines else "(zero relation)"


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        return _dispatch(args, started)
    except (DocumentError, ModelError, GenSpecError, NotAnEquivalenceError,
            bench.DigestMismatch, KeyError, FileNotFoundError, RecursionError) as exc:
        detail = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {detail}", file=sys.stderr)
        return 1


def _dispatch(args, started: float) -> int:
    if args.command in ("crisp-partition", "fuzzy-partition", "degree"):
        result = ENGINES[args.command][args.engine](parse_model(Path(args.model)), args.verbose)
        if args.command == "crisp-partition":
            _emit(args, [list(b) for b in result.blocks], started, result.text())
        elif args.command == "fuzzy-partition":
            _emit(args, result.to_json(), started, result.text())
        else:
            value = format_degree(result.degree_of(args.x, args.y))
            _emit(args, value, started, value)
        return 0

    if args.command in ("crisp-sim", "fuzzy-sim", "bisim-between"):
        left = as_nflts(parse_model(Path(args.left)))
        right = as_nflts(parse_model(Path(args.right)))
        if args.command == "bisim-between":
            relation = bisimulation_between_nflts(left, right, args.mode, verbose=args.verbose)
        else:
            relation = ENGINES[args.command][args.engine](left, right, args.verbose)
        _emit(args, relation_to_document(relation), started, _relation_text(relation))
        return 0

    if args.command == "check":
        model = parse_model(Path(args.model))
        relation = parse_relation(Path(args.relation), model, args.kind.partition("-")[0])
        if args.kind == "crisp-bisim":
            report = oracle.is_crisp_bisim_nfts(relation, model)
        else:
            report = oracle.is_fuzzy_bisim_nfts(relation, model)
        payload = {
            "holds": report.holds,
            "clause": report.clause,
            "witness": [str(w) for w in report.witness] if report.witness else None,
        }
        text = "holds" if report.holds else f"violates {report.clause} at {payload['witness']}"
        _emit(args, payload, started, text)
        return 0

    if args.command == "gen":
        spec = GenSpec(
            state_count=args.states,
            action_count=args.actions,
            distributions_per_state_action=_range(args.dists),
            support_size=_range(args.support),
            value_pool_size=args.pool,
            label_alphabet_size=args.labels,
            label_density=args.label_density,
            seed=args.seed,
        )
        document = json.dumps(model_to_document(generate(spec)), indent=2)
        if args.out:
            Path(args.out).write_text(document + "\n")
            _emit(args, {"written": args.out}, started, f"wrote {args.out}")
        else:
            print(document)
        return 0

    if args.command == "bench":
        sizes = [int(s) for s in args.sizes.split(",") if s]
        records = bench.scaling_run(
            sizes,
            repetitions=args.reps,
            value_pool_size=args.pool,
            oracle_max_states=args.oracle_max,
            seed=args.seed,
            csv_path=args.out,
        )
        summary = {"csv": args.out, "records": len(records)}
        lines = [f"wrote {len(records)} records to {args.out}"]
        for engine in ("efficient-crisp", "efficient-fuzzy"):
            try:
                slope = bench.slope_of(records, engine)
            except ValueError:
                continue
            summary[engine + "-slope"] = round(slope, 3)
            lines.append(f"{engine}: log-log slope {slope:.3f}")
        _emit(args, summary, started, "\n".join(lines))
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
