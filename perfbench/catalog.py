"""Names, units and bounds of the benchmark's workloads and metrics.

``BENCHMARK.json`` at the repository root is written from this module by
``report.py``; ``run.py`` prints exactly the metrics listed here.
"""

WORKLOADS = [
    ("random-sweep",
     "random NFLTS, l=40, nothing merges: per-threshold re-keying and snapshots, parse and to_flg dominate"),
    ("planted-merge",
     "4 models of relabelled copies, half with a moved degree: real splitting and a deep compact fuzzy partition"),
    ("simulation",
     "16 pairs of a base model against a two-copy model: the simulation fixpoints dominate, refinement never runs"),
    ("between-queries",
     "bisim-between of a planted model with itself: relation building, degree_of queries and JSON output"),
]

# (name, unit, better, bound).  A crisp job is crisp-partition, crisp-sim or
# bisim-between --mode crisp, whichever the workload runs; a fuzzy job is its
# fuzzy counterpart.  Job and set-up times are at reference speed (run.py).
END_TO_END = [
    ("crisp_job_s", "s", "lower", 0.2),
    ("fuzzy_job_s", "s", "lower", 0.2),
    ("m_per_s", "1/s", "higher", 0.2),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
]

# (name, unit).  Each *_s metric is the self time, per round, of the spans of
# that name; a round is one job of each of the workload's commands.
PER_LAYER = [
    ("modelio.parse_s", "s"),
    ("modelio.relation_doc_s", "s"),
    ("graph.to_flg_s", "s"),
    ("graph.convert_s", "s"),
    ("graph.vertices", "count"),
    ("graph.edges", "count"),
    ("graph.degree_pool", "count"),
    ("refinement.adjacency_s", "s"),
    ("refinement.split_calls", "count"),
    ("refinement.splits", "count"),
    ("refinement.split_useful_ratio", "ratio"),
    ("refinement.keyed_vertices", "count"),
    ("refinement.snapshots", "count"),
    ("refinement.snapshot_entries", "count"),
    ("crisp_engine.refine_s", "s"),
    ("crisp_engine.restrict_s", "s"),
    ("crisp_engine.blocks", "count"),
    ("fuzzy_engine.refine_s", "s"),
    ("fuzzy_engine.state_cfp_s", "s"),
    ("fuzzy_engine.thresholds", "count"),
    ("partition.cfp_build_s", "s"),
    ("partition.cfp_builds", "count"),
    ("partition.cfp_nodes", "count"),
    ("partition.cfp_depth", "count"),
    ("partition.degree_of_s", "s"),
    ("partition.degree_queries", "count"),
    ("partition.text_s", "s"),
    ("simulation.crisp_sim_s", "s"),
    ("simulation.fuzzy_sim_s", "s"),
    ("simulation.between_s", "s"),
    ("simulation.pairs", "count"),
    ("relations.build_s", "s"),
    ("cli.output_s", "s"),
    ("cli.self_s", "s"),
    ("trace.unaccounted_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
]

RUN_SECONDS = 20


def benchmark_document() -> dict:
    """The contents of BENCHMARK.json."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": _better(n)} for n, u in PER_LAYER],
    }


def _better(name: str) -> str:
    # Counts of useful work and the share of split calls that split are the
    # only per-layer numbers where more is better.
    return "higher" if name == "refinement.split_useful_ratio" else "lower"
