"""Greatest crisp and fuzzy bisimulations and simulations for
nondeterministic fuzzy (labeled) transition systems, computed by
transformation to fuzzy labeled graphs and partition refinement."""

from .degrees import Degree, ZERO, ONE, parse_degree, format_degree, residuum, biresiduum
from .model import FuzzySet, Distribution, Nfts, Nflts, ModelError
from .graph import Flg, Vertex, to_flg, as_nflts, disjoint_union
from .relations import CrispRelation, FuzzyRelation, relation_laws
from .partition import (
    CrispPartition,
    CompactFuzzyPartition,
    NotAnEquivalenceError,
    cfp_from_relation,
)
from .crisp_engine import crisp_partition_oracle, crisp_partition_system, greatest_crisp_bisim_partition_flg
from .fuzzy_engine import fuzzy_partition_oracle, fuzzy_partition_system, greatest_fuzzy_bisim_cfp_flg
from .simulation import (
    greatest_crisp_simulation_flg,
    greatest_fuzzy_simulation_flg,
    crisp_simulation_nflts,
    fuzzy_simulation_nflts,
    bisimulation_between_nflts,
)
from .modelio import (
    DocumentError,
    parse_model,
    parse_relation,
    model_to_document,
    serialize_model,
    relation_to_document,
)
from .generate import GenSpec, GenSpecError, generate

__version__ = "0.1.0"

__all__ = [
    "Degree", "ZERO", "ONE", "parse_degree", "format_degree", "residuum", "biresiduum",
    "FuzzySet", "Distribution", "Nfts", "Nflts", "ModelError",
    "Flg", "Vertex", "to_flg", "as_nflts", "disjoint_union",
    "CrispRelation", "FuzzyRelation", "relation_laws",
    "CrispPartition", "CompactFuzzyPartition", "NotAnEquivalenceError",
    "cfp_from_relation",
    "crisp_partition_oracle", "crisp_partition_system", "greatest_crisp_bisim_partition_flg",
    "fuzzy_partition_oracle", "fuzzy_partition_system", "greatest_fuzzy_bisim_cfp_flg",
    "greatest_crisp_simulation_flg", "greatest_fuzzy_simulation_flg",
    "crisp_simulation_nflts", "fuzzy_simulation_nflts", "bisimulation_between_nflts",
    "DocumentError", "parse_model", "parse_relation",
    "model_to_document", "serialize_model", "relation_to_document",
    "GenSpec", "GenSpecError", "generate",
]
