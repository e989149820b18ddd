"""Reference-less semantic faithfulness scoring for grammatical error
correction: graph data model, token/node alignment, DAG F-score, USim,
DistSim, and an edit-sensitivity harness."""

from .align import (
    C_TO_S,
    S_TO_C,
    LeafAlignment,
    NodeAlignment,
    align_leaves,
    edit_distance,
    extend_alignment,
    format_alignment_dump,
)
from .graph import (
    Edge,
    EdgeInstance,
    GraphFormatError,
    GraphValidationError,
    Node,
    SemanticGraph,
    edge_instances,
    graph_from_dict,
    graph_to_dict,
    iter_corpus,
    load_graph,
    parse_graph,
    read_corpus,
    serialize_graph,
    yield_of,
)
from .harness import (
    EditOperation,
    HarnessError,
    TypeDelta,
    VersionChain,
    apply_edit,
    apply_edits_in_order,
    build_chain,
    compute_deltas,
    emit_manifest,
    load_manifest,
    per_edit_deltas,
    read_edit_corpus,
    version_id,
)
from .measures import (
    LabelDistSim,
    ScoreTriple,
    TokenMismatchError,
    UsimReport,
    dag_fscore,
    default_groups,
    distsim,
    match_edges,
    usim,
    usim_directed,
    usim_from_alignment,
)

__version__ = "0.1.0"
