"""Dense-matrix reference implementations used as independent oracles.

Everything here works on plain dense numpy arrays and deliberately shares
no code with the sparse production path; ``dense_incidence`` only reads the
stored arrays of an incidence to give the oracles their input.
"""

from __future__ import annotations

import numpy as np

from hyperhop.errors import ContractError


def dense_incidence(incidence) -> np.ndarray:
    """H as a dense float64 (n_entities, n_passages) 0/1 matrix."""
    dense = np.zeros((incidence.n_entities, incidence.n_passages), dtype=np.float64)
    for j in range(incidence.n_passages):
        rows = incidence.pas_indices[incidence.pas_offsets[j] : incidence.pas_offsets[j + 1]]
        dense[rows, j] = 1.0
    return dense


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Scalar cosine similarity with the zero-norm convention cos(0, .) = 0."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ContractError(f"cosine dim mismatch: {a.shape} vs {b.shape}")
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.clip(np.dot(a, b) / (na * nb), -1.0, 1.0))


def dense_propagation_matrix(H: np.ndarray, edge_weights: np.ndarray) -> np.ndarray:
    """D_v^{-1/2} H W D_e^{-1} H^T D_v^{-1/2} as an explicit dense matrix."""
    H = np.asarray(H, dtype=np.float64)
    node_deg = H.sum(axis=1)
    edge_deg = H.sum(axis=0)
    with np.errstate(divide="ignore"):
        inv_sqrt_node = np.where(node_deg > 0, node_deg**-0.5, 0.0)
        inv_edge = np.where(edge_deg > 0, 1.0 / edge_deg, 0.0)
    left = inv_sqrt_node[:, None] * H
    middle = np.diag(np.asarray(edge_weights, dtype=np.float64) * inv_edge)
    return left @ middle @ left.T


def dense_pipeline(
    H: np.ndarray,
    x: np.ndarray,
    p: np.ndarray,
    steps: int,
    beta: float,
    use_weight_matrix: bool = True,
    use_semantic_enhancement: bool = True,
) -> np.ndarray:
    """Reference p_tilde: t-step diffusion, final hop, residual blend."""
    H = np.asarray(H, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    if use_weight_matrix:
        w = np.clip(p, 0.0, 1.0)
    else:
        w = np.ones(H.shape[1], dtype=np.float64)
    operator = dense_propagation_matrix(H, w)
    x_t = x.copy()
    for _ in range(steps):
        x_t = operator @ x_t
    p_t = w * (H.T @ x_t)
    if not use_semantic_enhancement:
        return p_t
    return (1.0 - beta) * p_t + beta * p


def dense_shared_counts(H: np.ndarray, seed_cols: np.ndarray) -> np.ndarray:
    """s = H^T H h for h the indicator of the seed columns."""
    H = np.asarray(H, dtype=np.float64)
    h = np.zeros(H.shape[1])
    h[np.asarray(seed_cols, dtype=int)] = 1.0
    return H.T @ (H @ h)


def random_entity_sets(
    rng: np.random.Generator,
    max_entities: int = 50,
    max_passages: int = 20,
    density: float = 0.15,
) -> list[list[str]]:
    """Random per-passage entity name lists over a bounded entity universe.

    Mirrors real construction: entities only exist through passages, so
    node degrees are always >= 1, while empty passages are allowed.
    """
    n_universe = int(rng.integers(1, max_entities + 1))
    n_passages = int(rng.integers(1, max_passages + 1))
    universe = [f"ent{i:03d}" for i in range(n_universe)]
    sets: list[list[str]] = []
    for _ in range(n_passages):
        mask = rng.random(n_universe) < density
        sets.append([universe[i] for i in np.flatnonzero(mask)])
    return sets


def row_norms(values: np.ndarray) -> np.ndarray:
    """The float64 L2 norm of each row, the whole matrix at once."""
    return np.linalg.norm(np.asarray(values, dtype=np.float64), axis=1)


def normalized_rows(values: np.ndarray) -> np.ndarray:
    """Rows scaled to unit L2 norm in float64, the whole matrix at once."""
    values = np.asarray(values, dtype=np.float64)
    norms = np.linalg.norm(values, axis=1, keepdims=True)
    return values / np.where(norms > 0.0, norms, 1.0)


def max_sim_of_unit_rows(query_rows: np.ndarray, unit_rows: np.ndarray) -> np.ndarray:
    """Max cosine of each row of ``unit_rows`` (already of unit norm, or zero)
    over the query rows, from one product over the whole matrix."""
    return np.clip((unit_rows @ normalized_rows(query_rows).T).max(axis=1), -1.0, 1.0)


def whole_matrix_screen(
    query_rows: np.ndarray, corpus_rows: np.ndarray, corpus_norms: np.ndarray, eta: float
) -> np.ndarray:
    """The rows ``embeddings.screen_max_sim`` keeps, with its float32 product
    taken over the whole catalog at once, as the screen once took it."""
    unit_query = normalized_rows(query_rows)
    best = (corpus_rows @ unit_query.astype(np.float32).T).max(axis=1)
    margin = 2 * (corpus_rows.shape[1] + 2) * float(np.finfo(np.float32).eps)
    keep = best > (eta - margin) * corpus_norms
    in_range = (corpus_norms >= np.finfo(np.float32).tiny) & (corpus_norms < 2.0**127)
    keep |= ~in_range & (corpus_norms > 0.0)
    support = (unit_query != 0.0).any(axis=0)
    undecided = np.flatnonzero(keep & (best <= (eta + margin) * corpus_norms))
    keep[undecided] = (corpus_rows[undecided][:, support] != 0.0).any(axis=1)
    return np.flatnonzero(keep)


def per_call_entity_similarity(
    query_rows: np.ndarray, entity_embeddings: np.ndarray, eta: float
) -> np.ndarray:
    """x with both matrices normalized on every call, as queries once did."""
    v = max_sim_of_unit_rows(query_rows, normalized_rows(entity_embeddings))
    return np.where(v > eta, v, 0.0)


def per_call_passage_similarity(query_vec: np.ndarray, passage_embeddings: np.ndarray) -> np.ndarray:
    """p with the passage rows normalized on every call, as queries once did."""
    query_vec = np.asarray(query_vec, dtype=np.float64).ravel()
    query_vec = query_vec / float(np.linalg.norm(query_vec))
    return np.clip(normalized_rows(passage_embeddings) @ query_vec, -1.0, 1.0)
