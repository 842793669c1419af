"""Entity-hypergraph diffusion retrieval for multi-hop question answering."""

from .corpus import Corpus, Passage, load_corpus
from .embeddings import OfflineEncoder, embed_batch, max_sim_to_query_entities, unit_rows
from .entities import (
    EntitySets,
    OfflineEntityExtractor,
    extract_entities,
    normalize_entity,
)
from .hypergraph import (
    DegreeVectors,
    DiffusionSupport,
    IncidenceMatrix,
    apply_diffusion_operator,
    build_incidence,
    graph_stats,
)
from .index_store import HypergraphIndex, build_index, load_index, save_index
from .metrics import exact_match, recall_at_k, token_f1
from .retrieval import (
    RankedResult,
    RetrievalConfig,
    diffuse,
    rank_passages,
    retrieve,
    semantic_enhance,
    structural_enhance,
)

__version__ = "0.1.0"

__all__ = [
    "Corpus",
    "DegreeVectors",
    "DiffusionSupport",
    "EntitySets",
    "HypergraphIndex",
    "IncidenceMatrix",
    "OfflineEncoder",
    "OfflineEntityExtractor",
    "Passage",
    "RankedResult",
    "RetrievalConfig",
    "apply_diffusion_operator",
    "build_incidence",
    "build_index",
    "diffuse",
    "embed_batch",
    "exact_match",
    "extract_entities",
    "graph_stats",
    "load_corpus",
    "load_index",
    "max_sim_to_query_entities",
    "normalize_entity",
    "rank_passages",
    "recall_at_k",
    "retrieve",
    "save_index",
    "semantic_enhance",
    "structural_enhance",
    "token_f1",
    "unit_rows",
]
