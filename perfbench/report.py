"""Run every workload, untraced and traced, and write the results.

    python3 perfbench/report.py [--seeds 1,2,...] [--label baseline]

Run from the repository root.  Each seed runs every workload once untraced,
with the workloads interleaved so that drift in the host's speed spreads
over all of them; then every workload runs twice traced on the first seed,
and the two traced runs must give the same counts.  The command rewrites
``BENCHMARK.json`` from ``catalog.py``, writes
``perfbench/results/<label>.json`` and prints every metric with its unit.
It exits with 1 if any run failed or any check did not hold.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import catalog

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 300


def run(workload: str, seed: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(catalog.RUN_SECONDS), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(proc.stdout[-2000:], proc.stderr[-2000:], sep="\n", file=sys.stderr)
        return {"workload": workload, "seed": seed, "trace": trace, "ok": False}
    summary = json.loads(lines[-1])
    with open(HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json") as handle:
        record = json.load(handle)
    return {**record, "ok": summary["correct"], "summary": summary}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(runs: list, traced: list) -> dict:
    out = {"runs": len(runs), "seeds": [r["environment"]["seed"] for r in runs]}
    end_to_end = {}
    for name, unit, _, bound in catalog.END_TO_END:
        values = [r["values"][name] for r in runs]
        q1, median, q3 = quartiles(values)
        end_to_end[name] = {"unit": unit, "median": median, "q1": q1, "q3": q3,
                            "spread": (q3 - q1) / median, "bound": bound, "values": values}
    for kind in ("crisp", "fuzzy"):
        pooled = sorted(s for r in runs for s in r["samples"][kind])
        entry = end_to_end[f"{kind}_job_s"]
        entry["command"] = runs[0]["commands"][kind]
        entry["jobs"] = len(pooled)
        # The highest percentile with at least ten samples beyond it.
        if len(pooled) >= 100:
            entry["p90"] = pooled[int(0.9 * len(pooled))]
    out["end_to_end"] = end_to_end
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    out["failed_ratio"] = failed / attempted
    out["attempted"] = attempted
    out["instance"] = {r["environment"]["seed"]: r["instance"] for r in runs}
    if traced:
        first = traced[0]
        names = [n for n, _ in catalog.PER_LAYER]
        counts = [{n: t["values"][n] for n, u in catalog.PER_LAYER if u != "s" and not n.startswith("trace.")}
                  for t in traced]
        layer_sum = sum(first["values"][n] or 0 for n, u in catalog.PER_LAYER if u == "s")
        out["per_layer"] = {
            "seed": first["environment"]["seed"],
            "rounds": [t["rounds"] for t in traced],
            "values": {n: [t["values"][n] for t in traced] for n in names},
            "counts_repeat_across_runs": all(c == counts[0] for c in counts),
            "counts_repeat_across_rounds": all(t["counts_repeat"] for t in traced),
            "missing": sorted({m for t in traced for m in t["missing"]}),
            "layer_self_sum_s": layer_sum,
            "untraced_round_s": statistics.median(first["untraced_round_s"]),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--label", default="latest")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",") if s]
    names = [name for name, _ in catalog.WORKLOADS]

    (ROOT / "BENCHMARK.json").write_text(json.dumps(catalog.benchmark_document(), indent=2) + "\n")
    untraced = {name: [] for name in names}
    for seed in seeds:
        for name in names:
            untraced[name].append(run(name, seed, 0))
            print(f"ran {name} seed {seed}: {'ok' if untraced[name][-1]['ok'] else 'FAILED'}", flush=True)
    traced = {name: [run(name, seeds[0], 1) for _ in range(2)] for name in names}

    ok = all(r["ok"] for rs in [*untraced.values(), *traced.values()] for r in rs)
    results = {"environment": None, "run_seconds": catalog.RUN_SECONDS, "workloads": {}}
    if ok:
        results["environment"] = untraced[names[0]][0]["environment"]
        for name in names:
            results["workloads"][name] = summarize(untraced[name], traced[name])
    (HERE / "results").mkdir(exist_ok=True)
    path = HERE / "results" / f"{args.label}.json"
    path.write_text(json.dumps(results, indent=1) + "\n")
    if not ok:
        print(f"some runs failed; see above.  Wrote {path}")
        return 1

    print(f"environment: {results['environment']}")
    for name, summary in results["workloads"].items():
        print(f"\n== {name} ({summary['runs']} runs, failed_ratio {summary['failed_ratio']:.4f} "
              f"of {summary['attempted']} jobs)")
        for metric, e in summary["end_to_end"].items():
            extra = f", {e['command']}, {e['jobs']} jobs" if "jobs" in e else ""
            extra += f", p90 {e['p90']:.4g}" if "p90" in e else ""
            print(f"  {metric:14s} {e['median']:.4g} {e['unit']}  IQR/median {e['spread']:.3f} "
                  f"(bound {e['bound']}){extra}")
        layers = summary.get("per_layer")
        if layers:
            print(f"  per layer (seed {layers['seed']}, per round; counts repeat across runs: "
                  f"{layers['counts_repeat_across_runs']}, across rounds: {layers['counts_repeat_across_rounds']})")
            for (metric, unit) in catalog.PER_LAYER:
                values = layers["values"][metric]
                print(f"    {metric:32s} {' / '.join(f'{v:.4g}' if v is not None else 'missing' for v in values)} {unit}")
            print(f"    layer self-time sum {layers['layer_self_sum_s']:.4f} s vs untraced round "
                  f"{layers['untraced_round_s']:.4f} s")
    print(f"\nwrote {path} and BENCHMARK.json")
    unrepeated = [name for name, summary in results["workloads"].items()
                  if not (summary["per_layer"]["counts_repeat_across_runs"]
                          and summary["per_layer"]["counts_repeat_across_rounds"])]
    if unrepeated:
        print(f"per-layer counts did not repeat on: {', '.join(unrepeated)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
