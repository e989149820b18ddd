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
    load_graph,
    parse_graph,
    read_corpus,
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
    read_edit_corpus,
    version_id,
)
from .measures import (
    LabelDistSim,
    ScoreTriple,
    TokenMismatchError,
    UsimReport,
    dag_fscore,
    distsim,
    match_edges,
    usim,
    usim_from_alignment,
)

__version__ = "0.1.0"
