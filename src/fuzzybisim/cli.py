"""Command-line front end.

Every subcommand loads models from JSON or text documents, runs the selected
engine and prints a deterministic result; ``--json`` wraps it in the machine
schema {command, input, result, engine, wall_time_ms}.  Exit codes: 0 on
success, 1 on a domain error, 2 on a usage error.
"""
from __future__ import annotations

import argparse
import json
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
from .crisp_engine import CrispEngineConfig, crisp_partition_system
from .fuzzy_engine import FuzzyEngineConfig, fuzzy_partition_system
from .partition import NotAnEquivalenceError
from .relations import CrispRelation
from .simulation import (
    bisimulation_between_nflts,
    crisp_simulation_nflts,
    fuzzy_simulation_nflts,
)
from . import oracle, bench
from .generate import GenSpec, GenSpecError, generate

ENGINE_STRATEGY = {"efficient": "efficient-refinement", "oracle": "baseline-fixpoint"}


def _common_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--engine", choices=sorted(ENGINE_STRATEGY), default="efficient",
                        help="efficient refinement or the brute-force oracle")
    parser.add_argument("--verbose", action="store_true",
                        help="print intermediate partitions/relations")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the machine-readable result schema")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fuzzybisim",
                                     description="Bisimulations and simulations for fuzzy transition systems")
    commands = parser.add_subparsers(dest="command", required=True)

    def sub(name, help_text, **kwargs):
        p = commands.add_parser(name, help=help_text, **kwargs)
        _common_flags(p)
        return p

    p = sub("crisp-partition", "greatest crisp bisimulation of a model, as a partition")
    p.add_argument("model")
    p = sub("fuzzy-partition", "greatest fuzzy bisimulation of a model, as a compact fuzzy partition")
    p.add_argument("model")
    p = sub("degree", "fuzzy bisimilarity degree of two states")
    p.add_argument("model")
    p.add_argument("x")
    p.add_argument("y")
    p = sub("crisp-sim", "greatest crisp simulation between two models")
    p.add_argument("left")
    p.add_argument("right")
    p = sub("fuzzy-sim", "greatest fuzzy simulation between two models")
    p.add_argument("left")
    p.add_argument("right")
    p = sub("bisim-between", "greatest bisimulation between two models (disjoint union)")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--mode", choices=["crisp", "fuzzy"], default="crisp")
    p = sub("check", "check a relation against a bisimulation definition")
    p.add_argument("model")
    p.add_argument("relation")
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
        print(json.dumps(doc, indent=2))
    else:
        print(text)


def _inputs(args):
    for attrs in (("model", "x", "y"), ("model", "relation"), ("model",), ("left", "right")):
        if all(hasattr(args, a) for a in attrs):
            values = [getattr(args, a) for a in attrs]
            return values[0] if len(values) == 1 else values
    return None


def _crisp_relation_text(relation) -> str:
    lines = [f"{x} {y}" for x, y in sorted(relation.pairs)]
    return "\n".join(lines) if lines else "(empty relation)"


def _fuzzy_relation_text(relation) -> str:
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
    strategy = ENGINE_STRATEGY.get(getattr(args, "engine", "efficient"))

    if args.command == "crisp-partition":
        model = parse_model(Path(args.model))
        partition = crisp_partition_system(model, CrispEngineConfig(strategy, args.verbose))
        _emit(args, [list(b) for b in partition.blocks], started, partition.text())
        return 0

    if args.command == "fuzzy-partition":
        model = parse_model(Path(args.model))
        cfp = fuzzy_partition_system(model, FuzzyEngineConfig(strategy, args.verbose))
        _emit(args, cfp.to_json(), started, cfp.text())
        return 0

    if args.command == "degree":
        model = parse_model(Path(args.model))
        cfp = fuzzy_partition_system(model, FuzzyEngineConfig(strategy, args.verbose))
        value = format_degree(cfp.degree_of(args.x, args.y))
        _emit(args, value, started, value)
        return 0

    if args.command in ("crisp-sim", "fuzzy-sim"):
        left = as_nflts(parse_model(Path(args.left)))
        right = as_nflts(parse_model(Path(args.right)))
        if args.command == "crisp-sim":
            if strategy == "baseline-fixpoint":
                Z = oracle.gfp_crisp_sim_flg(to_flg(left), to_flg(right))
                kept = {(x.key, y.key) for x, y in Z.pairs if x.is_state and y.is_state}
                relation = CrispRelation(left.states, right.states, kept)
            else:
                relation = crisp_simulation_nflts(left, right)
            _emit(args, relation_to_document(relation), started, _crisp_relation_text(relation))
        else:
            if strategy == "baseline-fixpoint":
                Z = oracle.gfp_fuzzy_sim_flg(to_flg(left), to_flg(right))
                relation = Z.restrict(
                    {v for v in Z.left if v.is_state}, {v for v in Z.right if v.is_state}
                )
                relation = type(relation)(
                    left.states, right.states,
                    {(x.key, y.key): d for (x, y), d in relation.entries.items()},
                )
            else:
                relation = fuzzy_simulation_nflts(left, right)
            _emit(args, relation_to_document(relation), started, _fuzzy_relation_text(relation))
        return 0

    if args.command == "bisim-between":
        left = as_nflts(parse_model(Path(args.left)))
        right = as_nflts(parse_model(Path(args.right)))
        relation = bisimulation_between_nflts(left, right, args.mode, verbose=args.verbose)
        if args.mode == "crisp":
            _emit(args, relation_to_document(relation), started, _crisp_relation_text(relation))
        else:
            _emit(args, relation_to_document(relation), started, _fuzzy_relation_text(relation))
        return 0

    if args.command == "check":
        model = parse_model(Path(args.model))
        relation = parse_relation(Path(args.relation), model)
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
    sys.exit(run())


if __name__ == "__main__":
    main()
