"""Run one benchmark workload as a closed loop and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root: the program under test is imported from
``src/``.  One client runs one ``fuzzybisim.cli.run`` job at a time in this
process, alternating the workload's crisp and fuzzy commands, and checks
every job's ``result`` against the reference digest computed at set-up.
With ``--trace 0`` the last line of output holds the end-to-end metrics;
with ``--trace 1`` rounds alternate untraced and traced, and it holds the
per-layer metrics.  A detailed record of the run is written to
``perfbench/out/``.  The exit code is 0 only when every check passed.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 3
MIN_ROUNDS = 3
# Seconds the calibration loop takes on the reference host; see calibrate().
REFERENCE_CALIBRATION_S = 0.010


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import fuzzybisim from this checkout's ``src/`` and the benchmark modules."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import fuzzybisim
        from fuzzybisim import cli
    except ImportError as exc:
        sys.exit(f"error: cannot import fuzzybisim from {ROOT / 'src'}: {exc}")
    if Path(fuzzybisim.__file__).resolve().parents[1] != ROOT / "src":
        sys.exit(f"error: fuzzybisim was imported from {fuzzybisim.__file__}, not from src/")
    import catalog
    import tracer
    import workloads

    return cli, catalog, tracer, workloads


def environment(seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "seed": seed,
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
    }


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes now.

    The speed of a shared host swings by a quarter and more within seconds,
    and a job's time swings with it.  Timing this loop just before and just
    after each job tracks that speed, so times can be reported as they would
    be on a host where the loop takes ``REFERENCE_CALIBRATION_S``.
    """
    start = time.perf_counter()
    table = {}
    for i in range(30000):
        key = (i % 997, i & 7)
        table[key] = table.get(key, 0) + 1
    sorted(table.items())
    return time.perf_counter() - start


def normalized(fn):
    """Call ``fn``; return its wall time and that time at reference speed."""
    before = calibrate()
    start = time.perf_counter()
    fn()
    wall = time.perf_counter() - start
    after = calibrate()
    return wall, wall * REFERENCE_CALIBRATION_S * 2 / (before + after)


class Loop:
    """Runs jobs through the CLI in this process and checks their outputs."""

    def __init__(self, cli, workloads):
        self.cli = cli
        self.workloads = workloads
        self.attempted = 0
        self.failed = 0
        self.errors: list = []

    def run(self, job, tracer=None) -> tuple:
        """Wall time of one job and that time at reference speed.

        A failed job is counted and reported.
        """
        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        outcome = {}

        def call():
            try:
                if tracer is None:
                    outcome["code"] = self.cli.run(job.argv)
                else:
                    outcome["code"] = tracer.root("cli.self", self.cli.run, job.argv)
            except (Exception, SystemExit) as exc:  # a crash is a failed job, not a failed run
                outcome["code"] = repr(exc)

        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            times = normalized(call)
        self.attempted += 1
        problem = None
        if outcome["code"] != 0:
            problem = f"exit {outcome['code']}: {err.getvalue().strip()[:200]}"
        else:
            try:
                found = self.workloads.digest(json.loads(out.getvalue())["result"])
            except (ValueError, KeyError, TypeError) as exc:
                found = f"unreadable output ({exc})"
            if found != job.reference:
                problem = f"result digest {found} != reference {job.reference}"
        if problem:
            self.failed += 1
            self.errors.append(f"{job.argv[0]}: {problem}")
        return times


def setup(workloads, name: str, seed: int, scratch: Path):
    """Build the workload several times; the builds must agree exactly."""
    times, instances = [], []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        times.append(normalized(lambda: instances.append(workloads.build(name, seed, scratch))))
    first = instances[0]
    for other in instances[1:]:
        if other.jobs != first.jobs or other.metrics != first.metrics:
            raise workloads.SetupError("two builds from the same seed differ")
    return first, times


def untraced(loop: Loop, jobs, seconds: float) -> dict:
    """Closed loop of rounds; samples are (wall, reference-speed) job times."""
    samples = {"crisp": [], "fuzzy": []}
    sizes = 0
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        for job in jobs:
            samples[job.kind].append(loop.run(job))
            sizes += job.size
        rounds += 1
    return {"samples": samples, "sizes": sizes, "rounds": rounds}


def traced(loop: Loop, jobs, seconds: float, tracer_module, catalog) -> dict:
    """Rounds of untraced, timed and counting jobs; per-layer values are per round."""
    tracer = tracer_module.Tracer()
    plain, walls, rows, all_spans = [], [], [], []
    deadline = time.perf_counter() + seconds
    while len(walls) < MIN_ROUNDS or time.perf_counter() < deadline:
        plain.append(sum(loop.run(job)[0] for job in jobs))
        tracer.install(timing=True)
        try:
            walls.append(sum(loop.run(job, tracer)[0] for job in jobs))
        finally:
            tracer.uninstall()
        self_time, _, spans = tracer.take()
        all_spans.append(spans)
        tracer.install(timing=False)
        try:
            for job in jobs:
                loop.run(job)
        finally:
            tracer.uninstall()
        _, counts, _ = tracer.take()
        rows.append(_layer_values(self_time, counts, catalog))
    values = {}
    for name, unit in catalog.PER_LAYER:
        if not name.startswith("trace."):
            # Counts repeat exactly from round to round; times are medians.
            values[name] = statistics.median(row[name] for row in rows) if unit == "s" else rows[0][name]
    layer_sum = statistics.median(sum(v for k, v in row.items() if k.endswith("_s")) for row in rows)
    values["trace.unaccounted_ratio"] = 1.0 - layer_sum / statistics.median(walls)
    values["trace.overhead_ratio"] = statistics.median(walls) / statistics.median(plain) - 1.0
    for name in tracer.missing_metrics:
        values[name] = None
    counts_of = [{k: v for k, v in row.items() if not k.endswith("_s")} for row in rows]
    return {
        "values": values,
        "rounds": len(walls),
        "untraced_round_s": plain,
        "traced_round_s": walls,
        "missing": sorted(tracer.missing),
        "counts_repeat": all(c == counts_of[0] for c in counts_of),
        "span_names": tracer.names,
        "spans": all_spans,
    }


def _layer_values(self_time: dict, counts: dict, catalog) -> dict:
    row = {}
    for name, unit in catalog.PER_LAYER:
        if not name.startswith("trace."):
            row[name] = self_time.get(name[:-2], 0.0) if unit == "s" else counts.get(name, 0)
    calls = row["refinement.split_calls"]
    row["refinement.split_useful_ratio"] = row["refinement.splits"] / calls if calls else 0.0
    return row


def main(argv=None) -> int:
    args = parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Fixed string hashing makes set and dict orders, and so the
        # refinement's work counts, repeat exactly from run to run.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    start = time.perf_counter()
    cli, catalog, tracer_module, workloads = import_program()
    import_s = time.perf_counter() - start
    if args.workload not in workloads.BUILDERS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(workloads.BUILDERS)}",
              file=sys.stderr)
        return 2

    for _ in range(5):
        calibrate()  # the first calls in a process run slow and would skew the first set-up
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        try:
            instance, setup_times = setup(workloads, args.workload, args.seed, Path(scratch))
        except workloads.SetupError as exc:
            print(f"error: set-up of {args.workload} failed: {exc}", file=sys.stderr)
            return 1
        loop = Loop(cli, workloads)
        for job in {job.kind: job for job in reversed(instance.jobs)}.values():
            loop.run(job)  # one untimed warm-up job per command, checked like any other
        if args.trace:
            measured = traced(loop, instance.jobs, args.seconds, tracer_module, catalog)
        else:
            measured = untraced(loop, instance.jobs, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    record = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args.seed),
        "instance": instance.metrics,
        "commands": {job.kind: job.argv[0] for job in instance.jobs},
        "setup_runs_s": setup_times,
        "import_s": import_s,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "errors": loop.errors,
        "peak_rss_mb": peak_rss_mb,
    }
    if args.trace:
        spans = measured.pop("spans")
        names = measured["span_names"]
        record.update(measured)
        metrics = {
            name: {"value": measured["values"][name], "unit": unit} for name, unit in catalog.PER_LAYER
        }
        with open(OUT / f"spans-{args.workload}-seed{args.seed}.csv", "w") as handle:
            handle.write("round,span,name,start,end,parent\n")
            for r, round_spans in enumerate(spans):
                for i, (nid, s, e, parent) in enumerate(round_spans):
                    handle.write(f"{r},{i},{names[nid]},{s:.9f},{e:.9f},{parent}\n")
    else:
        samples, rounds = measured["samples"], measured["rounds"]
        at_reference = {kind: [t[1] for t in samples[kind]] for kind in samples}
        values = {
            "crisp_job_s": statistics.median(at_reference["crisp"]),
            "fuzzy_job_s": statistics.median(at_reference["fuzzy"]),
            "m_per_s": measured["sizes"] / (sum(at_reference["crisp"]) + sum(at_reference["fuzzy"])),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": import_s + statistics.median(t[1] for t in setup_times),
        }
        wall = {
            "crisp_job_s": statistics.median(t[0] for t in samples["crisp"]),
            "fuzzy_job_s": statistics.median(t[0] for t in samples["fuzzy"]),
            "setup_s": import_s + statistics.median(t[0] for t in setup_times),
        }
        record.update(samples=at_reference, wall_samples={k: [t[0] for t in v] for k, v in samples.items()},
                      rounds=rounds, values=values, wall_values=wall)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _, _ in catalog.END_TO_END}
        record["failed_ratio"] = loop.failed / loop.attempted
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as handle:
        json.dump(record, handle, indent=1)

    print(f"workload {args.workload}, seed {args.seed}, {record['environment']}")
    print(f"instance {instance.metrics}")
    if not args.trace:
        for kind in ("crisp", "fuzzy"):
            print(f"{kind}: {record['commands'][kind]}, {len(samples[kind])} jobs in {rounds} rounds, median "
                  f"{values[kind + '_job_s']:.4f} s at reference speed, {wall[kind + '_job_s']:.4f} s wall")
        print(f"failed_ratio {loop.failed}/{loop.attempted} = {record['failed_ratio']:.4f}")
    else:
        print(f"{measured['rounds']} traced rounds; counts repeat across rounds: {measured['counts_repeat']}")
        if measured["missing"]:
            print(f"missing wrap targets: {', '.join(measured['missing'])}")
        nulls = [name for name, value in measured["values"].items() if value is None]
        if nulls:
            print(f"metrics reported as null, because what feeds them is missing: {', '.join(nulls)}")
    for line in loop.errors[:20]:
        print(f"FAILED {line}")
    correct = loop.failed == 0
    print(json.dumps({"correct": correct, "attempted": loop.attempted, "failed": loop.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
