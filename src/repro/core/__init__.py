"""FreeHGC core: the paper's training-free condensation algorithm."""

from repro.core.condenser import FreeHGC, assemble_condensed_graph
from repro.core.context import CondensationContext
from repro.core.criterion import TargetNodeSelector, TargetSelectionResult
from repro.core.metapaths import (
    MetaPath,
    enumerate_metapaths,
    metapaths_to_type,
)
from repro.core.neighbor_influence import (
    FatherSelectionResult,
    NeighborInfluenceMaximizer,
)
from repro.core.coverage_kernels import PackedAdjacency
from repro.core.receptive_field import (
    CoverageResult,
    greedy_max_coverage,
    greedy_max_coverage_reference,
    receptive_field_size,
)
from repro.core.similarity import (
    jaccard_between_sets,
    metapath_similarity_scores,
    pairwise_jaccard,
)
from repro.core.stages import (
    ConfigurableStage,
    CriterionTargetStage,
    HerdingOtherStage,
    HerdingTargetStage,
    NeighborInfluenceStage,
    OtherTypeStage,
    StageResult,
    SynthesisStage,
    TargetStage,
)
from repro.core.synthesis import InformationLossMinimizer, SyntheticLeafNodes
from repro.core.topology import TypeHierarchy, classify_node_types

__all__ = [
    "FreeHGC",
    "assemble_condensed_graph",
    "CondensationContext",
    "TargetStage",
    "OtherTypeStage",
    "StageResult",
    "ConfigurableStage",
    "CriterionTargetStage",
    "HerdingTargetStage",
    "NeighborInfluenceStage",
    "SynthesisStage",
    "HerdingOtherStage",
    "TargetNodeSelector",
    "TargetSelectionResult",
    "MetaPath",
    "enumerate_metapaths",
    "metapaths_to_type",
    "NeighborInfluenceMaximizer",
    "FatherSelectionResult",
    "CoverageResult",
    "greedy_max_coverage",
    "greedy_max_coverage_reference",
    "PackedAdjacency",
    "receptive_field_size",
    "pairwise_jaccard",
    "metapath_similarity_scores",
    "jaccard_between_sets",
    "InformationLossMinimizer",
    "SyntheticLeafNodes",
    "TypeHierarchy",
    "classify_node_types",
]
