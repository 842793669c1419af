"""Query-time retrieval pipeline.

Per query: build an entity similarity vector x (thresholded max cosine of
query entities against catalog entities) and a passage similarity vector p
(query text against passage texts); diffuse x through the passage-weighted
hypergraph for t steps; blend the diffused passage relevance with p
(semantic enhancement); then select a dynamic-size passage set that keeps
the top-k1 seeds plus any top-k2 passage sharing an entity with a seed
(structural enhancement).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from .embeddings import (
    EncoderClient,
    cosine_against_rows,
    embed_batch,
    max_sim_to_query_entities,
)
from .entities import ExtractionClient, dedup_normalized
from .errors import ContractError, ExtractionError
from .hypergraph import DiffusionSupport, apply_diffusion_operator
from .index_store import HypergraphIndex

@dataclass
class RetrievalConfig:
    """Hyperparameters and ablation switches for the retrieval pipeline."""

    eta: float = 0.8
    beta: float = 0.5
    steps: int = 4
    k1: int = 5
    k2: int = 10
    use_weight_matrix: bool = True
    use_semantic_enhancement: bool = True
    use_structural_enhancement: bool = True

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise ContractError(f"eta must be in [0, 1], got {self.eta}")
        if not 0.0 <= self.beta <= 1.0:
            raise ContractError(f"beta must be in [0, 1], got {self.beta}")
        if self.steps < 0:
            raise ContractError(f"steps must be >= 0, got {self.steps}")
        if not 1 <= self.k1 <= self.k2:
            raise ContractError(f"need 1 <= k1 <= k2, got k1={self.k1}, k2={self.k2}")


@dataclass
class QueryArtifacts:
    """Intermediate vectors of one retrieval, kept for inspection and tests."""

    x: np.ndarray  # entity similarity, length n_entities
    p: np.ndarray  # raw passage cosines, length n_passages
    p_t: np.ndarray  # diffused passage relevance
    p_tilde: np.ndarray  # enhanced relevance used for ranking


@dataclass
class Diagnostics:
    nonzero_entity_count: int = 0
    steps_run: int = 0
    dense_fallback: bool = False
    k1_effective: int = 0
    k2_effective: int = 0
    warnings: list[str] = field(default_factory=list)


@dataclass
class RankedResult:
    """Ranked passages plus the dynamic selected set for one query.

    ``ranking`` holds the top-R columns by score (R >= k2), non-increasing,
    ties broken by ascending column index; ``selected`` is an ordered subset
    of the top-k2 prefix.
    """

    ranking: list[tuple[int, float]]
    selected: list[tuple[int, float]]
    diagnostics: Diagnostics
    artifacts: QueryArtifacts | None = None

    def to_payload(self, query: str, passage_ids: Sequence[str], k2: int) -> dict:
        def entries(pairs):
            return [{"id": passage_ids[col], "score": score} for col, score in pairs]

        return {
            "query": query,
            "selected": entries(self.selected),
            "topk2": entries(self.ranking[:k2]),
            "diagnostics": asdict(self.diagnostics),
        }


def ranked_order(scores: np.ndarray, depth: int) -> np.ndarray:
    """The first ``depth`` indices by descending score, ties by ascending
    index. Scores must not be NaN.

    Only the scores at or above the depth-th largest are sorted:
    ``np.partition`` finds that boundary score, and every index tied with
    it is a candidate, so the prefix is exactly that of a full sort.
    """
    n = scores.shape[0]
    if depth >= n:
        return np.lexsort((np.arange(n), -scores))
    neg = -scores
    boundary = np.partition(neg, depth - 1)[depth - 1]
    candidates = np.flatnonzero(neg <= boundary)
    return candidates[np.lexsort((candidates, neg[candidates]))[:depth]]


def build_entity_similarity(
    query: str,
    index: HypergraphIndex,
    encoder: EncoderClient,
    extractor: ExtractionClient,
    eta: float,
    warnings: list[str] | None = None,
) -> np.ndarray:
    """Thresholded max-cosine vector of query entities vs catalog entities.

    x_i = v_i when v_i > eta (strict), else 0. The entity rows drop every
    row that cannot exceed eta (``EntityRows.candidates``); v is computed in
    float64, a block at a time, for the rows left only
    (``max_sim_to_query_entities``).
    An extraction failure degrades to an all-zero vector when a
    ``warnings`` list is given, with a warning appended to it; without one
    it raises ExtractionError chained to the failure.
    """
    n_entities = index.n_entities
    try:
        raw = extractor.extract("", query)
    except Exception as exc:
        if warnings is None:
            raise ExtractionError(f"query entity extraction failed: {exc}") from exc
        warnings.append(f"query entity extraction failed: {exc}")
        return np.zeros(n_entities, dtype=np.float64)
    query_entities = dedup_normalized(raw)
    if not query_entities:
        return np.zeros(n_entities, dtype=np.float64)
    query_rows = embed_batch(query_entities, encoder)
    entity_rows = index.entity_rows
    candidates = entity_rows.candidates(query_rows, eta)
    v = max_sim_to_query_entities(query_rows, entity_rows.values, entity_rows.norms, candidates)
    x = np.zeros(n_entities, dtype=np.float64)
    x[candidates] = np.where(v > eta, v, 0.0)
    return x


def build_passage_similarity(
    query: str, index: HypergraphIndex, encoder: EncoderClient
) -> np.ndarray:
    """Raw cosine of the query against every passage embedding."""
    query_vec = embed_batch([query], encoder)[0]
    return cosine_against_rows(query_vec, index.passage_rows)


def diffuse(
    x: np.ndarray,
    p: np.ndarray,
    index: HypergraphIndex,
    steps: int,
    use_weight_matrix: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """t diffusion steps from x, then one entity-to-passage hop.

    The hyperedge weights are the clamped passage similarities (or all ones
    when the weight matrix is ablated); there is no renormalization between
    steps. Returns (x_t, p_t) with p_t = W H^T x_t. Raises ContractError
    when x or p holds a non-finite value.

    Each step is one call of ``apply_diffusion_operator``, and the steps and
    the final hop share one ``hypergraph.DiffusionSupport``. A half-step
    takes one of two routes. While the entries of its input's nonzero nodes
    are under 5% of H's, it gathers only those, through H's entity-major
    order (derived in memory on an index's first such half-step, never
    stored) or its passage-major one. From the first half-step past that
    share on, each is full: over H less its zero-weight passages when they
    are at least a third of all, built once per query, else over H. Both
    cut-overs were timed on the two benchmark graphs (see ``hypergraph``).
    The routes add the same nonzero terms in the same order, and skip only
    +-0.0 terms, which change no bit of a sum that starts at +0.0, and the
    sums of zero-weight passages. So x_t is bit for bit that of full passes
    over H, and so is p_t, except that where x has negative entries a
    zero-weight passage's entry may be a zero of the other sign.
    """
    x = np.asarray(x, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    if x.shape != (index.n_entities,):
        raise ContractError(f"x has shape {x.shape}, expected ({index.n_entities},)")
    if p.shape != (index.n_passages,):
        raise ContractError(f"p has shape {p.shape}, expected ({index.n_passages},)")
    _require_finite(x=x, p=p)
    if steps < 0:
        raise ContractError("steps must be >= 0")
    if use_weight_matrix:
        weights = np.clip(p, 0.0, 1.0)
    else:
        weights = np.ones(index.n_passages, dtype=np.float64)
    incidence, degrees = index.incidence, index.degrees
    support = DiffusionSupport(incidence, degrees, weights)
    x_t = x
    for _ in range(steps):
        x_t = apply_diffusion_operator(x_t, incidence, degrees, weights, support)
    p_t = weights * support.entity_to_passage(x_t)
    return x_t, p_t


def _require_finite(**vectors: np.ndarray) -> None:
    for name, values in vectors.items():
        if not np.isfinite(values).all():
            raise ContractError(f"{name} holds a non-finite value")


def semantic_enhance(
    p_t: np.ndarray, p: np.ndarray, beta: float, enabled: bool = True
) -> np.ndarray:
    """Residual blend (1 - beta) * p_t + beta * p; identity when disabled."""
    p_t = np.asarray(p_t, dtype=np.float64)
    if not enabled:
        return p_t
    p = np.asarray(p, dtype=np.float64)
    if p_t.shape != p.shape:
        raise ContractError(f"shape mismatch: {p_t.shape} vs {p.shape}")
    if not 0.0 <= beta <= 1.0:
        raise ContractError(f"beta must be in [0, 1], got {beta}")
    return (1.0 - beta) * p_t + beta * p


def shared_entity_counts(
    index: HypergraphIndex, seed_columns: np.ndarray, candidate_columns: np.ndarray
) -> np.ndarray:
    """For each candidate passage, entities shared with the seed set.

    Sparse evaluation of (H^T H h)[candidates] for h the seed indicator:
    accumulate per-entity hit counts from the seed columns, then sum hits
    over each candidate's entities. Counts multiplicity.
    """
    inc = index.incidence
    hits = np.zeros(inc.n_entities, dtype=np.int64)
    for col in seed_columns:
        rows = inc.pas_indices[inc.pas_offsets[col] : inc.pas_offsets[col + 1]]
        hits[rows] += 1
    counts = np.empty(candidate_columns.shape[0], dtype=np.int64)
    for k, col in enumerate(candidate_columns):
        rows = inc.pas_indices[inc.pas_offsets[col] : inc.pas_offsets[col + 1]]
        counts[k] = hits[rows].sum()
    return counts


def structural_enhance(
    order: np.ndarray, index: HypergraphIndex, k1: int, k2: int
) -> np.ndarray:
    """Dynamic-size selection: top-k1 seeds plus entity-sharing top-k2 rest.

    ``order`` is the ranking by p_tilde from ``ranked_order``, at least k2
    columns long. Returns selected columns in that order. Seeds are always
    retained, so k1 <= |selection| <= k2.
    """
    n = index.n_passages
    if not 1 <= k1 <= k2:
        raise ContractError(f"need 1 <= k1 <= k2, got k1={k1}, k2={k2}")
    if k1 > n:
        raise ContractError(f"k1={k1} exceeds passage count {n}")
    if k2 > n:
        raise ContractError(f"k2={k2} exceeds passage count {n}")
    if order.shape[0] < k2:
        raise ContractError(f"order holds {order.shape[0]} columns, fewer than k2={k2}")
    seeds = order[:k1]
    candidates = order[k1:k2]
    shares = shared_entity_counts(index, seeds, candidates)
    return np.concatenate([seeds, candidates[shares > 0]])


def rank_passages(
    x: np.ndarray,
    p: np.ndarray,
    index: HypergraphIndex,
    config: RetrievalConfig,
    ranking_depth: int | None = None,
) -> RankedResult:
    """Core ranking given prebuilt similarity vectors (no encoder calls).

    This is the diffusion-plus-enhancement stage that evaluation timing
    wraps. When x is all zero the diffusion is skipped and passages are
    ranked by p alone (recorded as a dense fallback in diagnostics). Raises
    ContractError when x or p holds a non-finite value.
    """
    x = np.asarray(x, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    _require_finite(x=x, p=p)
    n = index.n_passages
    diag = Diagnostics(nonzero_entity_count=int(np.count_nonzero(x)))
    if n == 0:
        diag.warnings.append("empty corpus: nothing to rank")
        empty = QueryArtifacts(x=x, p=p, p_t=np.zeros(0), p_tilde=np.zeros(0))
        return RankedResult(ranking=[], selected=[], diagnostics=diag, artifacts=empty)
    k1 = min(config.k1, n)
    k2 = min(config.k2, n)
    if (k1, k2) != (config.k1, config.k2):
        diag.warnings.append(
            f"k range clamped to corpus size: k1={k1}, k2={k2} (corpus has {n} passages)"
        )
    diag.k1_effective, diag.k2_effective = k1, k2

    if diag.nonzero_entity_count == 0:
        diag.dense_fallback = True
        p_t = np.zeros(n, dtype=np.float64)
        scores = p
    else:
        _, p_t = diffuse(x, p, index, config.steps, config.use_weight_matrix)
        diag.steps_run = config.steps
        scores = semantic_enhance(p_t, p, config.beta, config.use_semantic_enhancement)

    artifacts = QueryArtifacts(x=x, p=p, p_t=p_t, p_tilde=scores)
    order = ranked_order(scores, max(k2, ranking_depth or 0))
    ranking = [(int(col), float(scores[col])) for col in order]
    if config.use_structural_enhancement:
        selected_cols = structural_enhance(order, index, k1, k2)
    else:
        selected_cols = order[:k1]
    selected = [(int(col), float(scores[col])) for col in selected_cols]
    return RankedResult(ranking=ranking, selected=selected, diagnostics=diag, artifacts=artifacts)


def check_encoder(index: HypergraphIndex, encoder: EncoderClient) -> None:
    """Raise ContractError when the index's manifest names another
    ``encoder_id`` than ``encoder``'s; an index that names none is queried."""
    built_with = (index.manifest or {}).get("encoder_id")
    if built_with is not None and built_with != encoder.encoder_id:
        raise ContractError(
            f"the index was built with encoder {built_with!r}, not {encoder.encoder_id!r};"
            " query it with the same encoder settings or rebuild the index"
        )


def retrieve(
    query: str,
    index: HypergraphIndex,
    config: RetrievalConfig,
    encoder: EncoderClient,
    extractor: ExtractionClient,
) -> RankedResult:
    """Full pipeline: similarity vectors, diffusion, enhancement, selection.

    Raises ContractError, before any work, when the index was built with
    another encoder (see ``check_encoder``).
    """
    check_encoder(index, encoder)
    warnings: list[str] = []
    x = build_entity_similarity(query, index, encoder, extractor, config.eta, warnings)
    p = build_passage_similarity(query, index, encoder)
    result = rank_passages(x, p, index, config)
    result.diagnostics.warnings = warnings + result.diagnostics.warnings
    return result
