"""Hypergraphic matroid computations driven by minimum s-t cuts.

The package solves rank, independence, polytope separation, partition
inequality separation, strength, fractional arboricity, and network
reinforcement on hypergraphs.  One gathering pass of integer units over
the vertices answers rank, independence and the greedy forest at one
unit per vertex and every reinforcement round at k units, and certifies
strength, arboricity and polytope membership.  Where it rejects,
strength takes the pass's maximal tight sets as its next partition;
separation, arboricity and the partition oracle take their answers from
a short sequence of minimum-cut problems on small auxiliary digraphs.
All arithmetic is exact: the seven operations return Fractions, and
the cut reductions run on integers over a common denominator, so an int
stays an int through `FlowNetwork` and the gadget.  Every public routine
returns certificates that are re-checked internally before being handed
out.  The checks in `matroid`, `packing`, `reinforcement` and `cli`
raise without `assert`, so `python -O` keeps them; the rest are still
`assert` statements, which it drops (ROADMAP.md).
"""

from .core import (
    DuplicateVertexInEdge,
    EdgeVector,
    Hyperedge,
    Hypergraph,
    HypergraphFormatError,
    LoopPresentError,
    Partition,
    as_fraction,
    format_rational,
    parse_hypergraph,
    serialize_hypergraph,
)
from .mincut import (
    INF,
    CutEngine,
    CutResult,
    FlowNetwork,
    NoFiniteCutError,
    min_st_cut,
)
from .gadgets import (
    GadgetCutInterpretation,
    GadgetGraph,
    build_supermodular_gadget,
    interpret_gadget_cut,
)
from .partition_oracle import (
    PartitionOracleResult,
    min_partition,
)
from .matroid import (
    BoundViolation,
    InPolytope,
    RankResult,
    SeparationOutcome,
    SetViolation,
    independence_test_incremental,
    is_independent,
    max_weight_hyperforest,
    rank,
    separate_polytope,
)
from .packing import ArboricityResult, StrengthResult, arboricity, strength
from .reinforcement import (
    DualState,
    MergeDescriptor,
    ReinforcementResult,
    reinforce,
)

__version__ = "0.1.0"

__all__ = [
    "ArboricityResult",
    "BoundViolation",
    "CutEngine",
    "CutResult",
    "DualState",
    "DuplicateVertexInEdge",
    "EdgeVector",
    "FlowNetwork",
    "GadgetCutInterpretation",
    "GadgetGraph",
    "Hyperedge",
    "Hypergraph",
    "HypergraphFormatError",
    "INF",
    "InPolytope",
    "LoopPresentError",
    "MergeDescriptor",
    "NoFiniteCutError",
    "Partition",
    "PartitionOracleResult",
    "RankResult",
    "ReinforcementResult",
    "SeparationOutcome",
    "SetViolation",
    "StrengthResult",
    "arboricity",
    "as_fraction",
    "build_supermodular_gadget",
    "format_rational",
    "independence_test_incremental",
    "interpret_gadget_cut",
    "is_independent",
    "max_weight_hyperforest",
    "min_partition",
    "min_st_cut",
    "parse_hypergraph",
    "rank",
    "reinforce",
    "separate_polytope",
    "serialize_hypergraph",
    "strength",
]
