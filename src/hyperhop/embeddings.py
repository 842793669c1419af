"""Dense embeddings for passages, entities and queries, with a content cache.

Two encoder clients share one interface: a remote OpenAI-compatible
embeddings endpoint, and an offline hashed bag-of-words encoder that is a
pure function of its input (stable hashing, no seed, no state) so tests and
desk runs never need a model.
"""

from __future__ import annotations

import hashlib
import json
import re
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol, Sequence

import numpy as np

from .errors import ContractError, EmbeddingError, IndexIntegrityError
from .remote import EndpointConfig, Transport
from .remote import embeddings as remote_embeddings

_WORD_RE = re.compile(r"[a-z0-9]+")


@dataclass
class EmbeddingMatrix:
    """Row-major float32 matrix with one row per input key."""

    values: np.ndarray  # shape (rows, dim), float32
    row_keys: list[str]

    @property
    def rows(self) -> int:
        return int(self.values.shape[0])

    @property
    def dim(self) -> int:
        return int(self.values.shape[1])

    def __post_init__(self):
        if self.values.ndim != 2:
            raise ContractError("embedding values must be 2-D")
        if len(self.row_keys) != self.values.shape[0]:
            raise ContractError("row_keys length must match row count")
        if self.values.size and not np.all(np.isfinite(self.values)):
            raise IndexIntegrityError("embedding matrix contains non-finite entries")


class EncoderClient(Protocol):
    encoder_id: str
    dim: int

    def encode_batch(self, texts: Sequence[str]) -> np.ndarray: ...


class OfflineEncoder:
    """Hashed bag-of-words encoder: stable, dependency-free, L2-normalized.

    Tokens are hashed (blake2b) to a bucket and a sign; token counts
    accumulate into a fixed-dim vector that is then normalized. Identical
    strings map to bitwise-identical vectors on every platform. Texts with
    no tokens map to the zero vector.
    """

    def __init__(self, dim: int = 256):
        if dim < 1:
            raise ContractError("encoder dim must be >= 1")
        self.dim = dim
        self.encoder_id = f"offline-hash-bow-d{dim}"

    def encode_batch(self, texts: Sequence[str]) -> np.ndarray:
        out = np.zeros((len(texts), self.dim), dtype=np.float32)
        for row, text in enumerate(texts):
            out[row] = self._encode_one(text)
        return out

    def _encode_one(self, text: str) -> np.ndarray:
        vec = np.zeros(self.dim, dtype=np.float64)
        for token in _WORD_RE.findall(text.lower()):
            digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
            value = int.from_bytes(digest, "little")
            bucket = value % self.dim
            sign = 1.0 if (value >> 63) & 1 == 0 else -1.0
            vec[bucket] += sign
        norm = float(np.linalg.norm(vec))
        if norm > 0.0:
            vec /= norm
        return vec.astype(np.float32)


class RemoteEncoder:
    """OpenAI-compatible embeddings endpoint client."""

    def __init__(
        self,
        endpoint: EndpointConfig,
        model: str,
        dim: int,
        batch_size: int = 64,
        transport: Transport | None = None,
    ):
        self.endpoint = endpoint
        self.model = model
        self.dim = dim
        self.batch_size = batch_size
        self.encoder_id = f"remote:{model}-d{dim}"
        self._transport = transport

    def encode_batch(self, texts: Sequence[str]) -> np.ndarray:
        rows = remote_embeddings(self.endpoint, self.model, list(texts), self._transport)
        matrix = np.asarray(rows, dtype=np.float32)
        if matrix.shape != (len(texts), self.dim):
            raise EmbeddingError(
                f"endpoint returned shape {matrix.shape}, expected ({len(texts)}, {self.dim})"
            )
        return matrix


def text_key(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class EmbeddingCache:
    """Append-only on-disk vector cache keyed by content hash.

    Layout: ``manifest.json`` (encoder id, dim, count), ``keys.txt`` (one
    hash per line) and ``vectors.bin`` (float32 little-endian rows). A cache
    written by a different encoder id is discarded on open. Writes are
    serialized; readers see a consistent prefix.
    """

    def __init__(self, directory: str | Path, encoder_id: str, dim: int):
        self.directory = Path(directory)
        self.encoder_id = encoder_id
        self.dim = dim
        self._lock = threading.Lock()
        self._offsets: dict[str, int] = {}
        self._count = 0
        self.directory.mkdir(parents=True, exist_ok=True)
        self._load()

    @property
    def _manifest_path(self) -> Path:
        return self.directory / "manifest.json"

    @property
    def _keys_path(self) -> Path:
        return self.directory / "keys.txt"

    @property
    def _vectors_path(self) -> Path:
        return self.directory / "vectors.bin"

    def _load(self) -> None:
        if not self._manifest_path.exists():
            return
        manifest = json.loads(self._manifest_path.read_text(encoding="utf-8"))
        if manifest.get("encoder_id") != self.encoder_id or manifest.get("dim") != self.dim:
            # Different encoder: existing rows are unusable.
            self._keys_path.unlink(missing_ok=True)
            self._vectors_path.unlink(missing_ok=True)
            self._manifest_path.unlink(missing_ok=True)
            return
        keys = self._keys_path.read_text(encoding="utf-8").split() if self._keys_path.exists() else []
        bin_rows = 0
        if self._vectors_path.exists():
            bin_rows = self._vectors_path.stat().st_size // (4 * self.dim)
        count = min(int(manifest.get("count", 0)), len(keys), bin_rows)
        self._offsets = {key: i for i, key in enumerate(keys[:count])}
        self._count = count

    def lookup(self, keys: Sequence[str]) -> dict[str, int]:
        return {k: self._offsets[k] for k in keys if k in self._offsets}

    def read_rows(self, offsets: Sequence[int]) -> np.ndarray:
        if not offsets:
            return np.empty((0, self.dim), dtype=np.float32)
        data = np.fromfile(self._vectors_path, dtype="<f4").reshape(-1, self.dim)
        return data[np.asarray(offsets, dtype=np.int64)]

    def append(self, keys: Sequence[str], vectors: np.ndarray) -> None:
        if vectors.shape != (len(keys), self.dim):
            raise ContractError("cache append shape mismatch")
        with self._lock:
            fresh = [(k, i) for i, k in enumerate(keys) if k not in self._offsets]
            if not fresh:
                return
            rows = vectors[[i for _, i in fresh]].astype("<f4")
            with self._vectors_path.open("ab") as fh:
                fh.write(rows.tobytes())
            with self._keys_path.open("a", encoding="utf-8") as fh:
                for k, _ in fresh:
                    fh.write(k + "\n")
            for k, _ in fresh:
                self._offsets[k] = self._count
                self._count += 1
            tmp = self._manifest_path.with_suffix(".tmp")
            tmp.write_text(
                json.dumps(
                    {"encoder_id": self.encoder_id, "dim": self.dim, "count": self._count},
                    sort_keys=True,
                ),
                encoding="utf-8",
            )
            tmp.replace(self._manifest_path)


def embed_batch(
    texts: Sequence[str],
    client: EncoderClient,
    cache: EmbeddingCache | None = None,
    batch_size: int | None = None,
) -> EmbeddingMatrix:
    """Embed texts in order, consulting and extending the cache.

    Only cache misses reach the encoder client. A remote failure is wrapped
    in EmbeddingError carrying the offsets of the failing batch.
    """
    texts = list(texts)
    if not texts:
        return EmbeddingMatrix(values=np.empty((0, client.dim), dtype=np.float32), row_keys=[])
    size = batch_size or getattr(client, "batch_size", 64)
    keys = [text_key(t) for t in texts]
    out = np.empty((len(texts), client.dim), dtype=np.float32)

    hits = cache.lookup(keys) if cache is not None else {}
    if hits:
        hit_positions = [i for i, k in enumerate(keys) if k in hits]
        rows = cache.read_rows([hits[keys[i]] for i in hit_positions])
        out[hit_positions] = rows

    # Deduplicate misses so repeated texts are encoded once.
    miss_text_by_key: dict[str, str] = {}
    for i, k in enumerate(keys):
        if k not in hits and k not in miss_text_by_key:
            miss_text_by_key[k] = texts[i]
    miss_keys = list(miss_text_by_key)
    encoded: dict[str, np.ndarray] = {}
    for start in range(0, len(miss_keys), size):
        chunk = miss_keys[start : start + size]
        try:
            vectors = client.encode_batch([miss_text_by_key[k] for k in chunk])
        except Exception as exc:
            raise EmbeddingError(
                f"embedding batch failed at offsets [{start}, {start + len(chunk)}): {exc}",
                batch_offsets=(start, start + len(chunk)),
            ) from exc
        vectors = np.asarray(vectors, dtype=np.float32)
        if cache is not None:
            cache.append(chunk, vectors)
        for k, vec in zip(chunk, vectors):
            encoded[k] = vec
    for i, k in enumerate(keys):
        if k in encoded:
            out[i] = encoded[k]

    return EmbeddingMatrix(values=out, row_keys=keys)


_UNIT_ROWS_BLOCK = 4096


def unit_rows(values: np.ndarray) -> np.ndarray:
    """``values`` in float64 with each row scaled to unit L2 norm; zero rows stay zero.

    Works through blocks of rows, so the float64 copy and the squared
    temporary that ``np.linalg.norm`` makes are one block, not the whole
    matrix. Each row's norm depends only on that row, so the result does not
    depend on the block size.
    """
    values = np.asarray(values)
    out = np.empty(values.shape, dtype=np.float64)
    for start in range(0, values.shape[0], _UNIT_ROWS_BLOCK):
        stop = start + _UNIT_ROWS_BLOCK
        block = values[start:stop].astype(np.float64)
        norms = np.linalg.norm(block, axis=1, keepdims=True)
        np.divide(block, np.where(norms > 0.0, norms, 1.0), out=out[start:stop])
    return out


def cosine_against_rows(query_vec: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Cosine of one vector against every row; ``rows`` already went through
    ``unit_rows``. A zero query or a zero row gives 0."""
    query_vec = np.asarray(query_vec, dtype=np.float64).ravel()
    if rows.shape[0] == 0:
        return np.zeros(0, dtype=np.float64)
    if rows.shape[1] != query_vec.shape[0]:
        raise ContractError(f"dim mismatch: rows {rows.shape[1]} vs query {query_vec.shape[0]}")
    qn = float(np.linalg.norm(query_vec))
    if qn == 0.0:
        return np.zeros(rows.shape[0], dtype=np.float64)
    return np.clip(rows @ (query_vec / qn), -1.0, 1.0)


def max_sim_to_query_entities(
    query_rows: np.ndarray, unit_corpus_rows: np.ndarray
) -> np.ndarray:
    """Per-corpus-entity max cosine over all query entity embeddings.

    ``query_rows`` are raw embeddings, ``unit_corpus_rows`` already went
    through ``unit_rows``. An empty query entity set yields the all-zero
    vector.
    """
    n_corpus = unit_corpus_rows.shape[0]
    if query_rows.shape[0] == 0:
        return np.zeros(n_corpus, dtype=np.float64)
    if n_corpus == 0:
        return np.zeros(0, dtype=np.float64)
    if query_rows.shape[1] != unit_corpus_rows.shape[1]:
        raise ContractError("query and corpus embedding dims differ")
    sims = unit_corpus_rows @ unit_rows(query_rows).T  # (n_corpus, n_query)
    # A column-by-column fold gives the values of sims.max(axis=1) about 30x
    # faster: numpy reduces a short trailing axis one row at a time.
    best = sims[:, 0].copy()
    for col in range(1, sims.shape[1]):
        np.maximum(best, sims[:, col], out=best)
    return np.clip(best, -1.0, 1.0)
