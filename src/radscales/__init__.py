"""Radicalization scales for communities in interaction networks.

Structural scales (relative group modularity for cohesion/isolation, greedy
partial dominating sets for authority concentration), dictionary-based
speech scales, and Pareto-frontier selection of the most extreme
communities, plus an end-to-end windowed pipeline and CLI.
"""

from .community import (
    DetectionConfig,
    DetectionResult,
    detect,
    filter_by_size,
    resolution_size_threshold,
)
from .domination import DominationResult, greedy_partial_dominating_set
from .errors import RadscalesError
from .events import (
    EventLog,
    WindowSpec,
    ingest_events,
    parse_timestamp,
    slice_window,
)
from .graph import (
    Graph,
    Partition,
    build_graph,
    load_edge_list,
    load_partition,
)
from .lexicon import (
    FoundationMap,
    FoundationScores,
    Lexicon,
    parse_mfd_dic,
    score_by_community,
    score_corpus,
    tokenize,
)
from .modularity import ModularityReport, d_modularity_report, modularity
from .pareto import CriterionSpec, Direction, ParetoPoint, pareto_frontier
from .pipeline import (
    AUTO,
    AnalysisConfig,
    SpeechReport,
    StructuralReport,
    emit_plot_data,
    read_membership,
    run_speech_analysis,
    run_structural_analysis,
)
from .synth import (
    PlantedPartitionParams,
    hub_hierarchy_graph,
    planted_partition,
    three_group_graph,
)

__version__ = "0.1.0"

__all__ = [
    "AUTO",
    "AnalysisConfig",
    "CriterionSpec",
    "DetectionConfig",
    "DetectionResult",
    "Direction",
    "DominationResult",
    "EventLog",
    "FoundationMap",
    "FoundationScores",
    "Graph",
    "Lexicon",
    "ModularityReport",
    "ParetoPoint",
    "Partition",
    "PlantedPartitionParams",
    "RadscalesError",
    "SpeechReport",
    "StructuralReport",
    "WindowSpec",
    "build_graph",
    "d_modularity_report",
    "detect",
    "emit_plot_data",
    "filter_by_size",
    "greedy_partial_dominating_set",
    "hub_hierarchy_graph",
    "ingest_events",
    "load_edge_list",
    "load_partition",
    "modularity",
    "pareto_frontier",
    "parse_mfd_dic",
    "parse_timestamp",
    "planted_partition",
    "read_membership",
    "resolution_size_threshold",
    "run_speech_analysis",
    "run_structural_analysis",
    "score_by_community",
    "score_corpus",
    "slice_window",
    "three_group_graph",
    "tokenize",
]
