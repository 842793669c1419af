"""Dense-matrix reference implementations used as independent oracles.

Everything here works on plain dense numpy arrays and deliberately shares
no code with the sparse production path; ``dense_incidence`` only reads the
stored arrays of an incidence to give the oracles their input. The two full
passes, ``entity_to_passage`` and ``passage_to_entity``, read the same arrays
and derive each entry's passage column from the offsets
(``passage_columns``): each is one bincount in storage order, and they are
the sums that every route of a diffusion step must match bit for bit. ``encode_one`` and ``extract_spans`` are the offline encoder and
extractor as per-token loops, sharing only the stopword list with them:
the batched clients must match them bit for bit. ``passage_cosines`` is the
passage similarity as a per-passage loop, which the sparse route of
``cosine_against_rows`` must match bit for bit. ``load_corpus_per_line``
is the corpus loader as a per-line loop over ``json.loads``, with one
``Passage`` per line: ``corpus.load_corpus`` must give the same passages,
or the same CorpusFormatError on the same line.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import numpy as np

from hyperhop.corpus import Passage
from hyperhop.entities import _SPAN_STOPWORDS
from hyperhop.errors import ContractError, CorpusFormatError


def dense_incidence(incidence) -> np.ndarray:
    """H as a dense float64 (n_entities, n_passages) 0/1 matrix."""
    dense = np.zeros((incidence.n_entities, incidence.n_passages), dtype=np.float64)
    for j in range(incidence.n_passages):
        rows = incidence.pas_indices[incidence.pas_offsets[j] : incidence.pas_offsets[j + 1]]
        dense[rows, j] = 1.0
    return dense


def passage_columns(incidence) -> np.ndarray:
    """The passage column of each stored entry, in storage order."""
    return np.repeat(np.arange(incidence.n_passages), np.diff(incidence.pas_offsets))


def entity_to_passage(vec: np.ndarray, incidence) -> np.ndarray:
    """H^T vec as one bincount over every stored entry, in storage order."""
    out = np.bincount(
        passage_columns(incidence),
        weights=vec[incidence.pas_indices],
        minlength=incidence.n_passages,
    )
    return out.astype(np.float64, copy=False)


def passage_to_entity(vec: np.ndarray, incidence) -> np.ndarray:
    """H vec as one bincount over every stored entry, in storage order."""
    out = np.bincount(
        incidence.pas_indices,
        weights=vec[passage_columns(incidence)],
        minlength=incidence.n_entities,
    )
    return out.astype(np.float64, copy=False)


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


def passage_cosines(query_vec: np.ndarray, values: np.ndarray) -> np.ndarray:
    """p, passage by passage: the specification of ``cosine_against_rows``'s
    route over the query's nonzero coordinates.

    With ``q`` the query over its norm, each passage's value is the sum,
    from +0.0 and in ascending coordinate order, of ``float64(value) * q[k]``
    over the nonzero ``q[k]``, divided by the row's float64 norm (0 for a
    zero row), then clipped to [-1, 1]. A zero query gives zeros.
    """
    query_vec = np.asarray(query_vec, dtype=np.float64).ravel()
    values = np.asarray(values)
    out = np.zeros(values.shape[0], dtype=np.float64)
    qn = float(np.linalg.norm(query_vec))
    if qn == 0.0:
        return out
    q = query_vec / qn
    support = [k for k in range(q.shape[0]) if q[k] != 0.0]
    for i, (row, norm) in enumerate(zip(values, row_norms(values))):
        total = 0.0
        for k in support:
            total += float(row[k]) * float(q[k])
        out[i] = total / norm if norm > 0.0 else 0.0
    return np.clip(out, -1.0, 1.0)


_WORD_RE = re.compile(r"[a-z0-9]+")
_TOKEN_RE = re.compile(r"\w[\w'’\-]*", re.UNICODE)


def encode_one(text: str, dim: int) -> np.ndarray:
    """The offline encoder's row of one text, token by token: the
    specification of ``OfflineEncoder.encode_batch``."""
    vec = np.zeros(dim, dtype=np.float64)
    for token in _WORD_RE.findall(text.lower()):
        digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
        value = int.from_bytes(digest, "little")
        bucket = value % dim
        sign = 1.0 if (value >> 63) & 1 == 0 else -1.0
        vec[bucket] += sign
    norm = float(np.linalg.norm(vec))
    if norm > 0.0:
        vec /= norm
    return vec.astype(np.float32)


def extract_spans(text: str) -> list[str]:
    """The offline extractor's spans of one text, token by token: the
    specification of ``OfflineEntityExtractor.extract``."""
    spans: list[str] = []
    current: list[str] = []
    prev_end = 0
    for match in _TOKEN_RE.finditer(text):
        token = match.group(0)
        # Punctuation between tokens (periods, commas, ...) breaks a span.
        contiguous = text[prev_end : match.start()].isspace() or prev_end == 0
        if not contiguous and current:
            spans.append(" ".join(current))
            current = []
        if token[0].isalpha() and token[0].isupper() and token.lower() not in _SPAN_STOPWORDS:
            current.append(token)
        else:
            if current:
                spans.append(" ".join(current))
                current = []
        prev_end = match.end()
    if current:
        spans.append(" ".join(current))
    return spans


_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def load_corpus_per_line(path) -> list[Passage]:
    """The passages of a JSONL corpus, sorted by id, read one line at a time."""
    passages: list[Passage] = []
    seen: dict[str, int] = {}
    with Path(path).open("rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CorpusFormatError(f"not UTF-8 at byte {exc.start}", line=lineno) from exc
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(f"invalid JSON: {exc.msg}", line=lineno) from exc
            if not isinstance(obj, dict):
                raise CorpusFormatError("expected a JSON object", line=lineno)
            if _SURROGATE_ESCAPE.search(line):
                try:
                    json.dumps(obj, ensure_ascii=False).encode("utf-8")
                except UnicodeEncodeError as exc:
                    raise CorpusFormatError("not UTF-8: a lone surrogate", line=lineno) from exc
            for key in ("id", "title", "text"):
                if key not in obj:
                    raise CorpusFormatError(f"missing key {key!r}", line=lineno)
                if not isinstance(obj[key], str):
                    raise CorpusFormatError(f"key {key!r} must be a string", line=lineno)
            if not obj["text"].strip():
                raise CorpusFormatError("empty text", line=lineno)
            pid = obj["id"]
            if pid in seen:
                raise CorpusFormatError(
                    f"duplicate passage id {pid!r} (first seen at line {seen[pid]})",
                    line=lineno,
                )
            seen[pid] = lineno
            passages.append(Passage(id=pid, title=obj["title"], text=obj["text"]))
    passages.sort(key=lambda p: p.id)
    return passages
