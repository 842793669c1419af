"""Dense embeddings for passages, entities and queries, with a content cache.

Two encoder clients share one interface: a remote OpenAI-compatible
embeddings endpoint, and an offline hashed bag-of-words encoder that is a
pure function of its input (stable hashing, no seed, no state) so tests and
desk runs never need a model.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import re
import threading
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Protocol, Sequence

import numpy as np

from .errors import ContractError, EmbeddingError, IndexIntegrityError
from .remote import EndpointConfig, Transport
from .remote import embeddings as remote_embeddings

_WORD_RE = re.compile(r"[a-z0-9]+")


class EncoderClient(Protocol):
    encoder_id: str
    dim: int

    def encode_batch(self, texts: Sequence[str]) -> np.ndarray: ...


@functools.lru_cache(maxsize=1 << 16)
def _token_hash(token: str) -> int:
    return int.from_bytes(hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest(), "little")


class OfflineEncoder:
    """Hashed bag-of-words encoder: stable, dependency-free, L2-normalized.

    Tokens are hashed (blake2b) to a bucket and a sign; token counts
    accumulate into a fixed-dim vector that is then normalized. Identical
    strings map to bitwise-identical vectors on every platform. Texts with
    no tokens map to the zero vector.

    The per-text definition in ``tests/reference.py`` (``encode_one``) is
    the specification. A batch does the same work at once: each distinct
    token is hashed once, through a memo of at most 2**16 tokens (ten times
    the vocabulary of either benchmark corpus) shared by every dim, and
    every row's +-1 counts go through one ``bincount``. The counts and their
    squares are exact integers in float64, so the sums and norms are bit
    for bit the per-text ones.
    """

    def __init__(self, dim: int = 256):
        if dim < 1:
            raise ContractError("encoder dim must be >= 1")
        self.dim = dim
        self.encoder_id = f"offline-hash-bow-d{dim}"

    def encode_batch(self, texts: Sequence[str]) -> np.ndarray:
        n, dim = len(texts), self.dim
        tokens = [_WORD_RE.findall(text.lower()) for text in texts]
        values = np.array([*map(_token_hash, chain.from_iterable(tokens))], dtype=np.uint64)
        slots = np.repeat(np.arange(0, n * dim, dim), [*map(len, tokens)])
        slots += (values % np.uint64(dim)).astype(np.intp)
        signs = np.where(values >> np.uint64(63), -1.0, 1.0)
        vec = np.bincount(slots, weights=signs, minlength=n * dim).reshape(n, dim)
        norms = np.sqrt(np.einsum("ij,ij->i", vec, vec))
        return (vec / np.where(norms > 0.0, norms, 1.0)[:, None]).astype(np.float32)


class RemoteEncoder:
    """OpenAI-compatible embeddings endpoint client."""

    def __init__(
        self,
        endpoint: EndpointConfig,
        model: str,
        dim: int,
        transport: Transport | None = None,
    ):
        self.endpoint = endpoint
        self.model = model
        self.dim = dim
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


_KEY_CHARS = 64  # a text_key: sha256 as hex


def open_cache(directory: Path, producer: dict) -> None:
    """Make ``directory`` the cache of ``producer``, which its
    ``manifest.json`` holds as sorted JSON.

    The manifest is written when the cache is made and never on an append.
    A manifest that is missing or not that one (another producer, an older
    layout, an unparsable file) is replaced, and every other file in the
    directory, the records of another producer or layout, is deleted.
    """
    directory.mkdir(parents=True, exist_ok=True)
    manifest = directory / "manifest.json"
    expected = json.dumps(producer, sort_keys=True).encode()
    if not manifest.is_file() or manifest.read_bytes() != expected:
        for path in directory.iterdir():
            if path.is_file():
                path.unlink()
        manifest.write_bytes(expected)


class EmbeddingCache:
    """Append-only on-disk vector cache keyed by content hash.

    ``manifest.json`` holds the encoder id and dim (see ``open_cache``).
    ``records.bin`` holds one fixed-size record per entry: the 64-character
    ``text_key`` as ASCII, then the float32 little-endian row. The entry
    count is the file size over the record size, and a key and its row are
    written together, so they cannot disagree. Opening truncates a partial
    last record that a crashed append left. Appends are serialized; one
    process writes a cache at a time.
    """

    def __init__(self, directory: str | Path, encoder_id: str, dim: int):
        self.directory = Path(directory)
        self.encoder_id = encoder_id
        self.dim = dim
        self._lock = threading.Lock()
        self._records = self.directory / "records.bin"
        self._dtype = np.dtype([("key", f"S{_KEY_CHARS}"), ("row", "<f4", (dim,))])
        open_cache(self.directory, {"dim": dim, "encoder_id": encoder_id})
        size = self._records.stat().st_size if self._records.exists() else 0
        self._count = size // self._dtype.itemsize
        if size != self._count * self._dtype.itemsize:
            os.truncate(self._records, self._count * self._dtype.itemsize)
        # latin-1 decodes any byte, so a damaged key is a miss, not a crash.
        self._offsets = {
            key.decode("latin-1"): i for i, key in enumerate(self._mapped()["key"].tolist())
        }

    def _mapped(self) -> np.ndarray:
        """A read-only map of the first ``count`` records."""
        if not self._count:
            return np.empty(0, dtype=self._dtype)
        return np.memmap(self._records, dtype=self._dtype, mode="r", shape=(self._count,))

    def lookup(self, keys: Sequence[str]) -> dict[str, int]:
        return {k: self._offsets[k] for k in keys if k in self._offsets}

    def read_rows(self, offsets: Sequence[int]) -> np.ndarray:
        """The rows at ``offsets``, gathered from a read-only map of the
        first ``count`` records, so only their pages are read."""
        rows = self._mapped()["row"]
        return rows[np.asarray(offsets, dtype=np.int64)]  # a gather: an ndarray copy

    def append(self, keys: Sequence[str], vectors: np.ndarray) -> None:
        if vectors.shape != (len(keys), self.dim):
            raise ContractError("cache append shape mismatch")
        for key in keys:
            if len(key) != _KEY_CHARS or not key.isascii():
                raise ContractError(f"cache key must be {_KEY_CHARS} ASCII characters: {key!r}")
        with self._lock:
            fresh = {k: i for i, k in enumerate(keys) if k not in self._offsets}
            if not fresh:
                return
            records = np.empty(len(fresh), dtype=self._dtype)
            records["key"] = list(fresh)
            records["row"] = vectors[list(fresh.values())]
            with self._records.open("ab") as fh:
                fh.write(records.tobytes())
            self._offsets.update(zip(fresh, range(self._count, self._count + len(fresh))))
            self._count += len(fresh)


def embed_batch(
    texts: Sequence[str],
    client: EncoderClient,
    cache: EmbeddingCache | None = None,
    batch_size: int = 64,
) -> np.ndarray:
    """Embed texts in order, consulting and extending the cache; returns the
    float32 (len(texts), client.dim) matrix, one row per text.

    Only cache misses reach the encoder client, ``batch_size`` texts per
    call. A remote failure, or a batch holding a non-finite value, raises
    EmbeddingError carrying the offsets of the failing batch, before the
    batch reaches the cache; a non-finite value read from the cache raises
    IndexIntegrityError.
    """
    if batch_size < 1:
        raise ContractError(f"batch_size must be >= 1, got {batch_size}")
    texts = list(texts)
    keys = [text_key(t) for t in texts]
    out = np.empty((len(texts), client.dim), dtype=np.float32)

    hits = cache.lookup(keys) if cache is not None else {}
    if hits:
        hit_positions = [i for i, k in enumerate(keys) if k in hits]
        rows = cache.read_rows([hits[keys[i]] for i in hit_positions])
        if not np.isfinite(rows).all():
            raise IndexIntegrityError("embedding cache holds non-finite entries")
        out[hit_positions] = rows

    # Deduplicate misses, in order of first appearance, so repeated texts are
    # encoded once.
    miss_positions = [i for i, k in enumerate(keys) if k not in hits]
    miss_text_by_key = {keys[i]: texts[i] for i in miss_positions}
    miss_keys = list(miss_text_by_key)
    encoded = np.empty((len(miss_keys), client.dim), dtype=np.float32)
    for start in range(0, len(miss_keys), batch_size):
        chunk = miss_keys[start : start + batch_size]
        stop = start + len(chunk)
        try:
            vectors = client.encode_batch([miss_text_by_key[k] for k in chunk])
        except Exception as exc:
            raise EmbeddingError(
                f"embedding batch failed at offsets [{start}, {stop}): {exc}",
                batch_offsets=(start, stop),
            ) from exc
        vectors = np.asarray(vectors, dtype=np.float32)
        if not np.isfinite(vectors).all():
            raise EmbeddingError(
                f"embedding batch at offsets [{start}, {stop}) holds a non-finite value",
                batch_offsets=(start, stop),
            )
        if cache is not None:
            cache.append(chunk, vectors)
        encoded[start:stop] = vectors
    slot = dict(zip(miss_keys, range(len(miss_keys))))
    out[miss_positions] = encoded[[slot[keys[i]] for i in miss_positions]]
    return out


# Rows per block wherever rows pass through float64 a few at a time, in
# screen_max_sim's float32 product, and per read when load_index streams an
# embedding file. On 50k rows of dimension 256 (2-core Xeon, numpy 2.4),
# 256-row blocks beat 4096-row ones: unit_rows 74 vs 117 ms, the row norms
# 25 vs 101 ms.
ROW_BLOCK = 256


def row_norms_and_largest(block: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The float64 L2 norm of each float32 row of ``block``, and each row's
    first coordinate of largest absolute value with that coordinate's value.

    Takes one float64 copy of the block, squared in place and summed as
    ``np.linalg.norm`` sums it, so the norms are bit for bit its norms
    without its two temporaries. The squares of float32 values are exact in
    float64, so they order and tie as the absolute values do, and their
    argmax is the largest coordinate. Each row's results depend only on
    that row, so they do not depend on how the rows are split into blocks.
    """
    squares = block.astype(np.float64)
    np.multiply(squares, squares, out=squares)
    axis = squares.argmax(axis=1)
    return np.sqrt(np.add.reduce(squares, axis=1)), axis, block[np.arange(block.shape[0]), axis]


def unit_rows(values: np.ndarray, norms: np.ndarray | None = None) -> np.ndarray:
    """``values`` in float64 with each row scaled to unit L2 norm; zero rows stay zero.

    ``norms`` are the float64 norms of the rows (``EntityRows.norms``),
    computed block by block when not given; either way the rows come out
    bit for bit the same, so the rows of a matrix can be normalized a few at
    a time from its cached norms. Works through blocks of rows, so the
    float64 copy is one block, not the whole matrix; the cast to float64 is
    exact.
    """
    values = np.asarray(values)
    out = np.empty(values.shape, dtype=np.float64)
    for start in range(0, values.shape[0], ROW_BLOCK):
        stop = start + ROW_BLOCK
        block = values[start:stop].astype(np.float64)
        scale = np.linalg.norm(block, axis=1) if norms is None else norms[start:stop]
        np.divide(block, np.where(scale > 0.0, scale, 1.0)[:, None], out=out[start:stop])
    return out


def _blocks_of(values: np.ndarray) -> Iterator[tuple[int, int, np.ndarray]]:
    """``(start, stop, block)`` over ``values``, ``ROW_BLOCK`` rows at a time."""
    for start in range(0, values.shape[0], ROW_BLOCK):
        yield start, start + ROW_BLOCK, values[start : start + ROW_BLOCK]


@dataclass(frozen=True, eq=False)
class PassageRows:
    """What the passage similarity reads of the passages: the stored float32
    values, exactly, as float64 and coordinate-major (``columns[k]`` holds
    coordinate k of every passage), and each row's float64 L2 ``norms``.

    The rows are not normalized: a query divides by ``norms`` once per
    passage (``cosine_against_rows``), which costs less than dividing the
    whole matrix at load. The coordinate-major layout lets a query that is
    nonzero on few coordinates read only those rows of ``columns``; a dense
    query reads them all in one product, as it would read unit rows.
    """

    columns: np.ndarray  # float64 (dim, n_passages)
    norms: np.ndarray  # float64 (n_passages,)

    @classmethod
    def of(
        cls, values: np.ndarray, filled: Iterable[tuple[int, int, np.ndarray]] | None = None
    ) -> PassageRows:
        """The passage rows of the float32 matrix ``values``, each block
        transposed into ``columns`` and its norms taken while it is in cache.

        ``filled`` is as in ``EntityRows.of``: when given, it yields the
        blocks of ``values`` as they are read, and ``values`` gives only the
        shape. The norms are summed over each row's float64 squares as
        ``np.linalg.norm`` sums them, so they are bit for bit its norms.
        """
        n_rows, dim = np.shape(values)
        columns = np.empty((dim, n_rows), dtype=np.float64)
        norms = np.empty(n_rows, dtype=np.float64)
        for start, stop, block in _blocks_of(values) if filled is None else filled:
            squares = block.astype(np.float64)
            columns[:, start:stop] = squares.T
            np.multiply(squares, squares, out=squares)
            norms[start:stop] = np.sqrt(np.add.reduce(squares, axis=1))
        columns.flags.writeable = False
        norms.flags.writeable = False
        return cls(columns, norms)


def cosine_against_rows(query_vec: np.ndarray, rows: PassageRows) -> np.ndarray:
    """Cosine of one vector against every passage row; a zero query or a
    zero row gives 0.

    The query is scaled to unit length ``q``. While ``q`` is nonzero on at
    most ``dim // 2`` coordinates, the sums are taken over those alone:
    ``q[k] * columns[k]`` is added to every passage's sum, ``k`` ascending,
    with numpy's ``multiply`` and ``add`` and no BLAS, so each sum is bit
    for bit ``tests/reference.py``'s ``passage_cosines`` on any machine.
    Otherwise one GEMV, ``q @ columns``, reads every coordinate. Either way
    each sum is then divided by its row's norm and clipped to [-1, 1].

    On 50k random rows of dimension 256 (2-core Xeon, one BLAS thread), the
    loop took 0.5 ms at 16 nonzero coordinates, 2.1 ms at 64 and 5.7 ms at
    128, against 6-8 ms for the GEMV, which beat it at 192 (7.9 against
    10.0 ms): hence the cut-over at half the coordinates.

    Why the two routes agree to about ``(dim + 2) 2**-53``. Let ``v`` be a
    row, ``n`` its computed norm and ``s`` the exact ``v . q``. Any float64
    sum of the ``dim`` products, in any order, with or without FMA, is
    within ``gamma_dim sum|v_k q_k| <= gamma_dim |v| |q|`` of ``s``, with
    ``gamma_dim = dim u / (1 - dim u)`` and ``u = 2**-53``. ``|q|`` and
    ``|v| / n`` are 1 to within ``(dim + 2) u``, so over ``n`` that is
    ``(dim + 1) u`` up to terms in ``u**2``; the division adds one rounding
    of at most ``u``. Clipping moves two values no further apart. So each
    route is within ``(dim + 2) u`` of ``s / n``, and the routes within
    twice that of each other, which can flip a tie in the ranking.
    """
    query_vec = np.asarray(query_vec, dtype=np.float64).ravel()
    dim, n_rows = rows.columns.shape
    if dim != query_vec.shape[0]:
        raise ContractError(f"dim mismatch: rows {dim} vs query {query_vec.shape[0]}")
    qn = float(np.linalg.norm(query_vec))
    if n_rows == 0 or qn == 0.0:
        return np.zeros(n_rows, dtype=np.float64)
    q = query_vec / qn
    support = np.flatnonzero(q)
    if support.shape[0] <= dim // 2:
        sums = np.zeros(n_rows, dtype=np.float64)
        term = np.empty(n_rows, dtype=np.float64)
        for k in support.tolist():
            np.multiply(rows.columns[k], q[k], out=term)
            np.add(sums, term, out=sums)
    else:
        sums = q @ rows.columns
    np.divide(sums, rows.norms, out=sums, where=rows.norms > 0.0)
    return np.clip(sums, -1.0, 1.0, out=sums)


def _fold_max(sims: np.ndarray) -> np.ndarray:
    """``sims.max(axis=1)`` of a (rows, few) matrix, as a column-by-column
    fold: numpy reduces a short trailing axis one row at a time, about 30x
    slower."""
    best = sims[:, 0].copy()
    for col in range(1, sims.shape[1]):
        np.maximum(best, sims[:, col], out=best)
    return best


def max_sim_to_query_entities(
    query_rows: np.ndarray,
    corpus_rows: np.ndarray,
    corpus_norms: np.ndarray,
    candidates: np.ndarray,
) -> np.ndarray:
    """Max cosine over the query entity embeddings of each corpus row in
    ``candidates``, in their order.

    ``query_rows`` and ``corpus_rows`` are raw embeddings, ``corpus_norms``
    their float64 norms (``EntityRows.norms``) and ``candidates`` row
    indices, such as the ones ``EntityRows.candidates`` gives. The candidate
    rows are gathered, normalized from their norms (bit for bit the rows of
    ``unit_rows``) and scored ``ROW_BLOCK`` at a time, so no float64 copy of
    more than one block is made. An empty query entity set yields zeros.
    """
    if query_rows.shape[0] == 0:
        return np.zeros(candidates.shape[0], dtype=np.float64)
    if query_rows.shape[1] != corpus_rows.shape[1]:
        raise ContractError("query and corpus embedding dims differ")
    unit_query = unit_rows(query_rows).T
    best = np.empty(candidates.shape[0], dtype=np.float64)
    for start in range(0, candidates.shape[0], ROW_BLOCK):
        rows = candidates[start : start + ROW_BLOCK]
        block = unit_rows(corpus_rows[rows], corpus_norms[rows])
        best[start : start + ROW_BLOCK] = _fold_max(block @ unit_query)  # (block, n_query) folded
    return np.clip(best, -1.0, 1.0, out=best)


# Rows whose float32 dot products with a unit vector can overflow; below
# _FLOAT32_TINY, products can underflow by more than the margin covers (see
# screen_max_sim).
_SCREEN_MAX_NORM = 2.0**127
_FLOAT32_TINY = float(np.finfo(np.float32).tiny)  # 2**-126, the smallest normal float32


def _screen_margin(dim: int) -> float:
    """``2 (dim + 2) eps32``, the margin of ``screen_max_sim``'s tests."""
    return 2 * (dim + 2) * float(np.finfo(np.float32).eps)


def screen_max_sim(
    query_rows: np.ndarray, corpus_rows: np.ndarray, corpus_norms: np.ndarray, eta: float
) -> np.ndarray:
    """Indices of every corpus row whose ``max_sim_to_query_entities`` value
    can exceed ``eta >= 0``, found in float32 without normalizing the corpus.

    ``corpus_rows`` are the raw float32 embeddings and ``corpus_norms``
    their float64 norms. Let ``q_j`` be query j's float64 unit row, ``h_j``
    that row rounded to float32, ``s_i`` the max over j of the float32
    product ``e_i . h_j``, ``n_i = |e_i|``, ``u = 2**-24`` and ``margin =
    2 (dim + 2) eps32 = 4 (dim + 2) u``. No row whose float64 value exceeds
    ``eta`` fails either of two tests:

    1. The norm bound, over every row: keep row i when
       ``s_i > (eta - margin) n_i``.
    2. The support test, over the rows that pass 1 with
       ``s_i <= (eta + margin) n_i``, which 1 cannot settle: keep row i when
       it is nonzero on some coordinate where some ``q_j`` is nonzero.

    Why 1. Rounding ``q`` to float32 moves ``e . q`` by at most ``u sum|e_k
    q_k| <= u (1 + u) n``. Any float32 dot product of length ``dim``, in any
    summation order, with or without FMA, is within ``gamma_dim (1 + u) n``
    of the exact one, with ``gamma_dim = dim u / (1 - dim u)``. The float64
    value, from ``e / n`` (the computed norm) and ``q``, in any order, is
    within about ``(dim + 1) 2**-53`` of ``e . q / n``. So a row whose value
    exceeds ``eta`` has ``s > eta n - (dim + 2) u n`` (up to a factor 4/3 for
    dim below 2**22), which half the margin covers; the other half covers
    rounding in evaluating the test. Clipping to [-1, 1] only lowers a value
    above ``eta``. Partial sums stay below ``(1 + u) n``, so none overflows
    when ``n < 2**127``; an underflowing product adds at most ``2**-150``,
    and the margin covers ``dim`` of them when ``n >= 2**-126``. Test 1 keeps
    every row with a norm outside that range, zero rows aside; a zero row has
    the value 0, and ``0 > -0.0`` is false.

    Why 2. A row dropped by 2 has ``e_k = 0`` wherever some ``q_jk != 0``,
    so every float64 term ``(e_k / n) q_jk`` has a zero factor and its value
    is exactly +-0, which exceeds no ``eta >= 0``.

    The float32 product goes ``ROW_BLOCK`` rows at a time into one array of
    ``s_i``. Over the whole catalog at once, with two or more query rows, it
    is a matrix product for which OpenBLAS first packs the whole matrix: on
    50k rows of dimension 256 that took 2.1-2.5 times the one-row product.
    In 256-row blocks it streams the matrix once. The bound in 1 holds for
    any summation order, so the blocks change nothing above. The tests stay
    whole-catalog array operations, each with one float64 temporary of the
    catalog's length: run per block, they cost about 1 ms more on 50k rows.
    """
    if eta < 0.0:
        raise ContractError(f"eta must be >= 0, got {eta}")
    if query_rows.shape[0] == 0:
        return np.zeros(0, dtype=np.intp)
    if query_rows.shape[1] != corpus_rows.shape[1]:
        raise ContractError("query and corpus embedding dims differ")
    unit_query = unit_rows(query_rows)
    query32 = unit_query.astype(np.float32).T
    best = np.empty(corpus_rows.shape[0], dtype=np.float32)
    for start in range(0, corpus_rows.shape[0], ROW_BLOCK):
        stop = start + ROW_BLOCK
        best[start:stop] = _fold_max(corpus_rows[start:stop] @ query32)
    margin = _screen_margin(corpus_rows.shape[1])
    keep = best > (eta - margin) * corpus_norms
    in_range = (corpus_norms >= _FLOAT32_TINY) & (corpus_norms < _SCREEN_MAX_NORM)
    keep |= ~in_range & (corpus_norms > 0.0)

    cols = np.flatnonzero((unit_query != 0.0).any(axis=0))
    undecided = np.flatnonzero(keep & (best <= (eta + margin) * corpus_norms))
    keep[undecided] = (corpus_rows[np.ix_(undecided, cols)] != 0.0).any(axis=1)
    return np.flatnonzero(keep)


# Gathering the rows of the buckets a query can reach costs a copy, so it
# pays only when few rows are kept. On 50k random dense rows of dimension 256
# with 3 query rows (one BLAS thread, 2-core Xeon, a 128 MB flush before each
# call), the screen over gathered rows took 6.9, 8.9, 11.2 and 14.4 ms at
# kept shares 0.2, 0.3, 0.35 and 0.5, against 11.1 ms in place.
_GATHER_MAX_KEPT_SHARE = 0.3


@dataclass(frozen=True, eq=False)
class EntityRows:
    """What the entity similarity reads of the catalog: the float32 rows as
    stored, their float64 L2 ``norms``, and the rows in ``2 dim + 1``
    buckets around the signed coordinate axes, so that a query screens only
    the rows of the buckets that can reach ``eta`` (see ``reachable_rows``).
    The buckets are an exact cone bound, after LEMP (Teflioudi, Gemulla &
    Mykytiuk, SIGMOD 2015) and cone trees (Ram & Gray, KDD 2012), whose
    centroids are the axes, so they need no training and nothing on disk.

    A row ``e`` whose norm ``n`` lies in ``[2**-126, 2**127)`` goes to
    bucket ``2 k + [e_k < 0]``, with ``k`` the first coordinate of largest
    ``|e_k|``. ``cos_r[b]`` is the least float64 ``|e_k| / n`` over the rows
    of bucket b (1 for an empty one), the cosine of the widest angle between
    a row of the bucket and its signed axis. Zero rows and rows of a norm
    outside that range, which the screen keeps whatever their product, go to
    bucket ``2 dim``, which is never skipped. ``rows`` lists the row indices
    bucket by bucket, ascending in each; bucket b holds ``rows[starts[b]:
    starts[b + 1]]``, so a query reads only the indices of the buckets it
    keeps.
    """

    values: np.ndarray  # float32 (n_rows, dim)
    norms: np.ndarray  # float64 (n_rows,)
    rows: np.ndarray  # int32 (n_rows,)
    starts: np.ndarray  # (2 dim + 2,)
    cos_r: np.ndarray  # float64 (2 dim + 1,)

    @classmethod
    def of(
        cls, values: np.ndarray, filled: Iterable[tuple[int, int, np.ndarray]] | None = None
    ) -> EntityRows:
        """The entity rows of the float32 matrix ``values``, each block's
        norms and largest coordinates (``row_norms_and_largest``) taken
        while the block is in cache.

        ``filled``, when given, yields ``(start, stop, block)`` as the rows
        ``[start, stop)`` of ``values`` are filled, so ``load_index`` derives
        them as it reads the rows; otherwise the blocks are ``ROW_BLOCK``
        rows of ``values``.
        """
        values = np.asarray(values)
        n_rows, dim = values.shape
        norms = np.empty(n_rows, dtype=np.float64)
        axis = np.empty(n_rows, dtype=np.intp)
        value = np.empty(n_rows, dtype=values.dtype)
        for start, stop, block in _blocks_of(values) if filled is None else filled:
            norms[start:stop], axis[start:stop], value[start:stop] = row_norms_and_largest(block)
        # 16-bit keys sort stably by radix, about 6 times faster than wider ones.
        keys = (2 * axis + (value < 0.0)).astype(np.int16 if 2 * dim < 2**15 else np.int32)
        in_range = (norms >= _FLOAT32_TINY) & (norms < _SCREEN_MAX_NORM)
        keys[~in_range] = 2 * dim
        cos_r = np.ones(2 * dim + 1, dtype=np.float64)
        np.minimum.at(cos_r, keys[in_range], np.abs(value[in_range]) / norms[in_range])
        starts = np.zeros(2 * dim + 2, dtype=np.intp)
        np.cumsum(np.bincount(keys, minlength=2 * dim + 1), out=starts[1:])
        rows = np.argsort(keys, kind="stable").astype(np.int32)
        for array in (norms, rows, starts, cos_r):
            array.flags.writeable = False
        return cls(values, norms, rows, starts, cos_r)

    def candidates(self, query_rows: np.ndarray, eta: float) -> np.ndarray:
        """Ascending indices of every row whose ``max_sim_to_query_entities``
        value can exceed ``eta``: the rows of the buckets that can reach it
        (``reachable_rows``), gathered and screened (``screen_max_sim``).
        When they are more than ``_GATHER_MAX_KEPT_SHARE`` of the rows, every
        row is screened in place instead.
        """
        if query_rows.shape[1] != self.values.shape[1]:
            raise ContractError(
                f"query rows have dim {query_rows.shape[1]}, the entity rows {self.values.shape[1]}"
            )
        max_rows = _GATHER_MAX_KEPT_SHARE * self.values.shape[0]
        rows = self.reachable_rows(query_rows, eta, max_rows)
        if rows is None:
            return screen_max_sim(query_rows, self.values, self.norms, eta)
        return rows[screen_max_sim(query_rows, self.values[rows], self.norms[rows], eta)]

    def reachable_rows(
        self, query_rows: np.ndarray, eta: float, max_rows: float
    ) -> np.ndarray | None:
        """Ascending indices of the rows of every bucket that may hold a row
        whose ``max_sim_to_query_entities`` value exceeds ``eta``; None when
        they are more than ``max_rows``.

        Let ``q`` be a float64 unit query row, ``t = s q_k`` its cosine with
        the axis of bucket ``(k, s)`` and ``c = cos_r``. A row within angle
        ``r = arccos c`` of the axis is at least ``arccos t - r`` away from
        ``q``, by the triangle inequality on the sphere, so its cosine with
        ``q`` is at most ``cos(max(0, arccos t - r))``: 1 when ``t >= c``,
        else ``t c + sqrt(1 - t**2) sqrt(1 - c**2)``. A bucket is skipped
        when that bound is at most ``eta - margin`` for every query row, with
        ``screen_max_sim``'s ``margin = 4 (dim + 2) u``, ``u = 2**-24``. So
        the bound prunes only buckets whose rows each put at least about
        ``sqrt(1 - eta**2)`` of their norm on one coordinate.

        Why no skipped row exceeds ``eta``. In float64, ``q`` is a unit row
        to within ``(dim + 1) 2**-53``, ``n`` is the norm to within ``(dim /
        2 + 2) 2**-53`` relative and ``|e_k| / n`` adds one rounding, so
        ``t`` and each row's ``c`` are within ``D = (dim + 2) 2**-53`` of
        the exact cosines. The bound does not fall as ``t`` grows or ``c``
        falls, and it is 1-Lipschitz in the two angles, while ``arccos``
        moves by at most ``(pi / 2) sqrt(D)`` when its argument moves by
        ``D``: errors of ``D`` in ``t`` and ``c`` move the bound by at most
        ``pi sqrt(D)``. That square root is the sensitivity of ``sqrt(1 -
        c**2)`` as ``c`` approaches 1 (and of ``sqrt(1 - t**2)`` as ``|t|``
        does). Evaluating the two square roots in float64 adds at most
        ``2**-26`` each, by the same square root, and the rest of the
        formula a few ulps. The float64 value of a row is within ``(dim + 1)
        2**-53`` of its exact cosine, and clipping only lowers it. In all
        that is below ``(0.6 sqrt(dim + 2) + 0.6) u``, less than ``margin``
        for every ``dim >= 1``. On an argmax tie any of the tied axes bounds
        the row as well; the first is taken, so a row's key depends on the
        row alone. A zero query row has value 0 against every row and the
        bound ``sqrt(1 - c**2) >= 0``, so it skips nothing wrongly.
        """
        if query_rows.shape[0] == 0:
            return np.zeros(0, dtype=np.int32)
        unit_query = unit_rows(query_rows)
        dim = unit_query.shape[1]
        t = np.stack([unit_query, -unit_query], axis=2).reshape(unit_query.shape[0], 2 * dim)
        c = self.cos_r[:-1]
        tilted = t * c + np.sqrt(np.maximum(1.0 - t * t, 0.0)) * np.sqrt(
            np.maximum(1.0 - c * c, 0.0)
        )
        bound = np.where(t >= c, 1.0, tilted).max(axis=0)
        kept = np.flatnonzero(np.append(bound > eta - _screen_margin(dim), True))
        starts = self.starts
        if np.sum(starts[kept + 1] - starts[kept]) > max_rows:
            return None
        return np.sort(np.concatenate([self.rows[starts[b] : starts[b + 1]] for b in kept]))
