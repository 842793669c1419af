"""Dense embeddings for passages, entities and queries, with a content cache.

Two encoder clients share one interface: a remote OpenAI-compatible
embeddings endpoint, and an offline hashed bag-of-words encoder that is a
pure function of its input (stable hashing, no seed, no state) so tests and
desk runs never need a model.
"""

from __future__ import annotations

import fcntl
import functools
import hashlib
import json
import math
import os
import re
import weakref
from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path
from typing import Protocol, Sequence

import numpy as np

from .corpus import passage_sha256
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


def text_key(text: str) -> bytes:
    """The embedding cache's key of ``text`` embedded as itself, such as an
    entity name: the ``passage_sha256`` of the title-less passage ``("",
    text)``, whose embedded text ``text`` is."""
    return passage_sha256("", text)


# Both build caches key a record by a passage_sha256, read as raw bytes (V32):
# an S32 field would drop trailing NULs.
CACHE_KEY = np.dtype("V32")
# Layout 3 stored no norm or bucket, layout 2 keyed the raw sha256 of the
# embedded text, and the layout of 64-character hex keys had no tag.
_LAYOUT = 4


def hold_lock(path: Path, what: str) -> int:
    """A descriptor of ``path``, made when missing, that holds an exclusive
    ``flock`` on it, taken without waiting; the lock lasts until the
    descriptor is closed. While another open file holds it, raises
    ContractError naming ``what`` as in use by another build."""
    lock = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
    try:
        fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        os.close(lock)
        raise ContractError(f"{what} is in use by another build") from None
    except OSError:
        os.close(lock)
        raise
    return lock


def open_cache(owner: object, directory: Path, producer: dict) -> weakref.finalize:
    """Make ``directory`` the cache of ``producer``, which its
    ``manifest.json`` holds as sorted JSON, for ``owner`` alone; returns the
    ``close`` of ``owner``, which releases the directory once, as does the
    collection of ``owner``.

    The directory is held by ``hold_lock`` on its ``lock`` file. The
    manifest is written when the cache is made and never on an append. A
    manifest that is missing or not that one (another producer, an older
    layout, an unparsable file) is replaced, and every other file in the
    directory but the lock, the records of another producer or layout, is
    deleted. Only the cache's ``append`` writes records.
    """
    directory.mkdir(parents=True, exist_ok=True)
    lock = hold_lock(directory / "lock", f"cache directory {directory}")
    close = weakref.finalize(owner, os.close, lock)
    manifest = directory / "manifest.json"
    expected = json.dumps(producer, sort_keys=True).encode()
    if not manifest.is_file() or manifest.read_bytes() != expected:
        for path in directory.iterdir():
            if path.is_file() and path.name != "lock":
                path.unlink()
        manifest.write_bytes(expected)
    return close


def check_cache_keys(keys: Sequence[bytes]) -> None:
    """Raise ContractError unless every key is a raw sha256: 32 bytes."""
    for key in keys:
        if not isinstance(key, bytes) or len(key) != CACHE_KEY.itemsize:
            raise ContractError(f"a cache key is a raw sha256 of 32 bytes, not {key!r}")


def append_committed(path: Path, committed: int, data: bytes) -> None:
    """Append ``data`` to ``path``, made when missing, after cutting the
    file back to its ``committed`` bytes: what a failed append left goes."""
    with path.open("ab") as fh:
        fh.truncate(committed)
        fh.write(data)


class EmbeddingCache:
    """Append-only on-disk vector cache keyed by content, as the extraction
    cache is.

    A passage's row is keyed by the ``passage_sha256`` of its title and
    text, and holds the embedding of its ``passage_embedding_text``. Any
    other text, such as an entity name, is keyed as the title-less passage
    ``("", text)`` (``text_key``), whose embedded text is the text itself.
    So equal keys mean equal embedded text, and a name never hits a
    passage's row unless the passage is that name without a title.

    ``manifest.json`` holds the encoder id, the dim and the layout (see
    ``open_cache``). ``records.bin`` holds one fixed-size record per entry:
    the 32 raw bytes of the key, the float32 little-endian row, then the
    row's float64 norm and uint16 ``EntityRows`` bucket, which ``append``
    takes once (``norms_and_buckets``) so that a build only gathers them. A
    key and its row are written together, so they cannot disagree, and the
    keys are taken as the mapped bytes, so a damaged key is a miss, not a
    crash. The entry count is the whole records found at opening plus those
    appended. ``append`` alone writes: it first cuts a partial record that
    a crashed append left. The cache holds its directory until ``close()``
    (``open_cache``).
    """

    def __init__(self, directory: str | Path, encoder_id: str, dim: int):
        self.directory = Path(directory)
        self.dim = dim
        self._records = self.directory / "records.bin"
        self._dtype = np.dtype(
            [("key", CACHE_KEY), ("row", "<f4", (dim,)), ("norm", "<f8"), ("bucket", "<u2")]
        )
        producer = {"dim": dim, "encoder_id": encoder_id, "layout": _LAYOUT}
        self.close = open_cache(self, self.directory, producer)
        size = self._records.stat().st_size if self._records.exists() else 0
        self._count = size // self._dtype.itemsize
        self._offsets = dict(zip(self._mapped()["key"].tolist(), range(self._count)))

    def _mapped(self) -> np.ndarray:
        """A read-only map of the first ``count`` records."""
        if not self._count:
            return np.empty(0, dtype=self._dtype)
        return np.memmap(self._records, dtype=self._dtype, mode="r", shape=(self._count,))

    def lookup(self, keys: Sequence[bytes]) -> dict[bytes, int]:
        """The record of each key that the cache holds; a miss is left out."""
        return {k: i for k, i in zip(keys, map(self._offsets.get, keys)) if i is not None}

    def read_rows(
        self, records: Sequence[int], layout: type[EntityRows] | type[PassageRows]
    ) -> EntityRows | PassageRows:
        """The ``EntityRows`` or ``PassageRows`` (``layout``) of the records
        ``records``, from a read-only map of the first ``count`` records, so
        only their pages are read: their stored norms and buckets gathered
        whole, their rows ``ROW_BLOCK`` at a time into the values or the
        columns. Nothing is computed again from a row.

        Raises IndexIntegrityError naming the first record read that holds
        a norm that is not finite and >= 0 or a bucket above ``2 dim``, or a
        non-finite value: ``append`` writes none, so the file is damaged.
        The stored norms do not show a row's finiteness, so each block of
        rows is checked by its min and max, through which NaN propagates.
        """
        records = np.asarray(records, dtype=np.int64)
        mapped = self._mapped()
        rows, norms, buckets = mapped["row"], mapped["norm"][records], mapped["bucket"][records]
        bad = ~(np.isfinite(norms) & (norms >= 0.0)) | (buckets > 2 * self.dim)
        if bad.any():
            raise self._damaged("a norm or bucket out of range", records[bad].min())
        shape = (len(records), self.dim) if layout is EntityRows else (self.dim, len(records))
        out = np.empty(shape, dtype=np.float32)
        by_row = out if layout is EntityRows else out.T  # row-major in either layout
        for start in range(0, len(records), ROW_BLOCK):
            stop = start + ROW_BLOCK
            block = rows[records[start:stop]]
            if not (math.isfinite(block.min()) and math.isfinite(block.max())):
                read = np.unique(records)
                first = read[~np.isfinite(rows[read]).all(axis=1)].min()
                raise self._damaged("non-finite entries", first)
            by_row[start:stop] = block
        if layout is EntityRows:
            return EntityRows.from_buckets(out, norms, buckets)
        out.flags.writeable = norms.flags.writeable = False
        return PassageRows(out, norms)

    def _damaged(self, what: str, record: int) -> IndexIntegrityError:
        return IndexIntegrityError(
            f"embedding cache {self._records} holds {what}, first in record {record} (counted"
            f" from 0); delete the cache directory {self.directory} and build again"
        )

    def append(self, keys: Sequence[bytes], vectors: np.ndarray) -> np.ndarray:
        """Append a record of each key the cache does not hold yet, with its
        row of ``vectors`` and that row's ``norms_and_buckets``; returns
        every key's record, int64."""
        if vectors.shape != (len(keys), self.dim):
            raise ContractError("cache append shape mismatch")
        check_cache_keys(keys)
        fresh = {k: i for i, k in enumerate(keys) if k not in self._offsets}
        if fresh:
            records = np.empty(len(fresh), dtype=self._dtype)
            records["key"] = list(fresh)
            records["row"] = vectors[list(fresh.values())]
            records["norm"], records["bucket"] = norms_and_buckets(records["row"])
            append_committed(self._records, self._count * self._dtype.itemsize, records.tobytes())
            self._offsets.update(zip(fresh, range(self._count, self._count + len(fresh))))
            self._count += len(fresh)
        return np.fromiter(map(self._offsets.get, keys), dtype=np.int64, count=len(keys))


def embed_batch(
    texts: Sequence[str],
    client: EncoderClient,
    cache: EmbeddingCache | None = None,
    batch_size: int = 64,
    keys: Sequence[bytes] | None = None,
    layout: type[EntityRows] | type[PassageRows] | None = None,
):
    """Embed texts in order, one row per text: without a cache, the float32
    (len(texts), client.dim) matrix, encoded ``batch_size`` texts per call;
    with one, the ``EntityRows`` or ``PassageRows`` (``layout``) a build
    stores. A layout without a cache, or a cache without one, raises
    ContractError.

    ``keys`` are the texts' cache keys, each text's ``text_key`` when not
    given. A build passes the catalog's keys from its extraction cache
    (``ExtractionCache.name_keys``), and the passages' ``passage_sha256``
    with a sequence whose i-th text is made when read, and only a miss's
    text is read. The misses, deduplicated by key, are encoded
    ``batch_size`` per call and each batch is appended to the cache; then
    every row, with its stored norm and bucket, is gathered into the layout
    (``EmbeddingCache.read_rows``). A failing batch raises EmbeddingError
    (``_encoded``) before it reaches the cache; a non-finite value read
    from the cache raises IndexIntegrityError.
    """
    if batch_size < 1:
        raise ContractError(f"batch_size must be >= 1, got {batch_size}")
    if (cache is None) != (layout is None):
        raise ContractError("embed_batch gathers cached rows into a layout: pass both or neither")
    if cache is None:
        matrix = np.empty((len(texts), client.dim), dtype=np.float32)
        for start in range(0, len(texts), batch_size):
            stop = start + batch_size
            matrix[start:stop] = _encoded(client, texts[start:stop], start)
        return matrix
    if keys is None:
        keys = list(map(text_key, texts))
    record_of = cache.lookup(keys).get
    records = np.fromiter(map(record_of, keys, repeat(-1)), dtype=np.int64, count=len(keys))
    miss_positions = np.flatnonzero(records < 0).tolist()
    miss_at = {keys[i]: i for i in miss_positions}  # in order of first appearance
    miss_keys = list(miss_at)
    appended: dict[bytes, int] = {}
    for start in range(0, len(miss_keys), batch_size):
        chunk = miss_keys[start : start + batch_size]
        vectors = _encoded(client, [texts[miss_at[k]] for k in chunk], start)
        appended.update(zip(chunk, cache.append(chunk, vectors).tolist()))
    records[miss_positions] = [appended[keys[i]] for i in miss_positions]
    return cache.read_rows(records, layout)


def _encoded(client: EncoderClient, texts: Sequence[str], start: int) -> np.ndarray:
    """The float32 rows of ``texts``, the batch at offsets ``[start, start +
    len(texts))`` of the texts encoded; EmbeddingError carrying those offsets
    when the client fails or a row holds a non-finite value."""
    stop = start + len(texts)
    try:
        vectors = client.encode_batch(texts)
    except Exception as exc:
        message = f"embedding batch failed at offsets [{start}, {stop}): {exc}"
        raise EmbeddingError(message, batch_offsets=(start, stop)) from exc
    vectors = np.asarray(vectors, dtype=np.float32)
    if not np.isfinite(vectors).all():
        message = f"embedding batch at offsets [{start}, {stop}) holds a non-finite value"
        raise EmbeddingError(message, batch_offsets=(start, stop))
    return vectors


# Rows per block wherever a few rows at a time are gathered or multiplied:
# EmbeddingCache.read_rows, max_sim_to_query_entities's float64 unit rows and
# screen_max_sim's float32 product.
ROW_BLOCK = 256
# Passages per float64 block in cosine_against_rows's GEMV. On 50k and 10k
# mapped float32 rows of dimension 256 (one BLAS thread, median of 40), 384
# took 15.7 and 1.5 ms, 256 20.8 and 1.8 ms, 512 16.3 and 1.6 ms.
WIDEN_BLOCK = 384


def row_norms(block: np.ndarray) -> np.ndarray:
    """The float64 L2 norm of each float32 row of ``block``: one C-ordered
    float64 copy, squared in place and summed as ``np.linalg.norm`` sums a
    row-major row, so bit for bit its norms without its two temporaries. A
    row's norm depends only on that row, not on how rows are split into blocks."""
    squares = np.array(block, dtype=np.float64, order="C")
    return np.sqrt(np.add.reduce(np.multiply(squares, squares, out=squares), axis=1))


def norms_and_buckets(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``row_norms(block)`` and each row's ``EntityRows`` bucket as
    ``entity_buckets.bin`` stores it, uint16: ``2 k + [e_k < 0]`` for the
    row's first coordinate ``k`` of largest ``|e_k|``, or ``2 dim`` when its
    norm lies outside ``[2**-126, 2**127)``."""
    norms = row_norms(block)
    axis = np.abs(block).argmax(axis=1)
    buckets = (2 * axis + (block[np.arange(block.shape[0]), axis] < 0.0)).astype(np.uint16)
    buckets[~_in_screen_range(norms)] = _never_skipped(block.shape[1])
    return norms, buckets


def _never_skipped(dim: int) -> int:
    """``2 dim``, the bucket of ``EntityRows`` that is never skipped;
    ContractError when a uint16 cannot hold it."""
    if 2 * dim > np.iinfo(np.uint16).max:
        raise ContractError(f"entity rows of dim {dim}: uint16 buckets index dims up to 32767")
    return 2 * dim


def unit_rows(values: np.ndarray, norms: np.ndarray | None = None) -> np.ndarray:
    """``values`` in float64 with each row scaled to unit L2 norm; zero rows stay zero.

    ``norms`` are the float64 norms of the rows (``EntityRows.norms``),
    taken by ``row_norms`` when not given; either way the rows come out bit
    for bit the same, so the rows of a matrix can be normalized a few at a
    time from its cached norms. One float64 copy of ``values`` (the cast is
    exact), divided in place: callers pass a block of rows at most.
    """
    out = np.array(values, dtype=np.float64)
    scale = row_norms(out) if norms is None else norms
    return np.divide(out, np.where(scale > 0.0, scale, 1.0)[:, None], out=out)


@dataclass(frozen=True, eq=False)
class PassageRows:
    """What the passage similarity reads of the passages: the stored float32
    values coordinate-major (``columns[k]`` holds coordinate k of every
    passage), and each row's float64 L2 ``norms``. This is the layout of the
    index files ``passage_columns.bin`` and ``passage_norms.bin``, so a
    loaded index maps ``columns`` as stored.

    The rows are not normalized: a query divides by ``norms`` once per
    passage (``cosine_against_rows``), which costs less than dividing the
    whole matrix. The coordinate-major layout lets a query that is nonzero on
    few coordinates read only those rows of ``columns``; a dense query reads
    them all, a block of passages at a time.
    """

    columns: np.ndarray  # float32 (dim, n_passages)
    norms: np.ndarray  # float64 (n_passages,)


def cosine_against_rows(query_vec: np.ndarray, rows: PassageRows) -> np.ndarray:
    """Cosine of one vector against every passage row; a zero query or a
    zero row gives 0.

    The query is scaled to unit length ``q``. While ``q`` is nonzero on at
    most ``3 dim // 4`` coordinates, the sums are taken over those alone:
    ``q[k] * columns[k]``, widened to float64 (exactly), is added to every
    passage's sum, ``k`` ascending, with numpy's ``multiply`` and ``add`` and
    no BLAS, so each sum is bit for bit ``tests/reference.py``'s
    ``passage_cosines`` on any machine. Otherwise a GEMV, ``q @ columns``,
    reads every coordinate, ``WIDEN_BLOCK`` passages at a time widened into
    one reused float64 block, so no float64 copy of the whole matrix is
    made. Either way each sum is then divided by its row's norm and clipped
    to [-1, 1]. README "Performance" gives the timings behind the cut-over.

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
    columns = rows.columns
    dim, n_rows = columns.shape
    if dim != query_vec.shape[0]:
        raise ContractError(f"dim mismatch: rows {dim} vs query {query_vec.shape[0]}")
    qn = float(np.linalg.norm(query_vec))
    if n_rows == 0 or qn == 0.0:
        return np.zeros(n_rows, dtype=np.float64)
    q = query_vec / qn
    support = np.flatnonzero(q)
    if support.shape[0] <= 3 * dim // 4:
        sums = np.zeros(n_rows, dtype=np.float64)
        term = np.empty(n_rows, dtype=np.float64)
        for k in support.tolist():
            np.multiply(columns[k], q[k], out=term, dtype=np.float64)
            np.add(sums, term, out=sums)
    else:
        sums = np.empty(n_rows, dtype=np.float64)
        wide = np.empty((dim, min(n_rows, WIDEN_BLOCK)), dtype=np.float64)
        for start in range(0, n_rows, WIDEN_BLOCK):
            block = columns[:, start : start + WIDEN_BLOCK]
            part = wide[:, : block.shape[1]]
            np.copyto(part, block)
            np.matmul(q, part, out=sums[start : start + WIDEN_BLOCK])
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


def _in_screen_range(norms: np.ndarray) -> np.ndarray:
    """Where a norm lies in ``[2**-126, 2**127)``, the range in which
    ``screen_max_sim``'s margin covers its float32 products."""
    return (norms >= _FLOAT32_TINY) & (norms < _SCREEN_MAX_NORM)


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
    ``s_i`` (README "Performance" says why); the bound in 1 holds for any
    summation order, so the blocks change nothing above.
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
    keep |= ~_in_screen_range(corpus_norms) & (corpus_norms > 0.0)

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
    centroids are the axes, so they need no training. Each row's norm and
    bucket are taken once, when the embedding cache stores the row
    (``EmbeddingCache.append``), and the index stores both, in
    ``entity_norms.bin`` and ``entity_buckets.bin``; a build and a load
    derive the rest from them (``from_buckets``).

    A row ``e`` whose norm ``n`` lies in ``[2**-126, 2**127)`` goes to
    bucket ``2 k + [e_k < 0]``, with ``k`` the first coordinate of largest
    ``|e_k|``. ``cos_r[b]`` is the least float64 ``s e_k / n`` over the rows
    of bucket b, with ``s`` the bucket's sign (1 for an empty bucket): the
    cosine of the widest angle between a row of the bucket and its signed
    axis. Zero rows and rows of a norm outside that range, which the screen
    keeps whatever their product, go to bucket ``2 dim``, which is never
    skipped. ``buckets`` holds each row's bucket, as ``entity_buckets.bin``
    stores it; ``rows`` lists the row indices bucket by bucket, ascending in
    each; bucket b holds ``rows[starts[b]: starts[b + 1]]``, so a query
    reads only the indices of the buckets it keeps.
    """

    values: np.ndarray  # float32 (n_rows, dim)
    norms: np.ndarray  # float64 (n_rows,)
    buckets: np.ndarray  # uint16 (n_rows,)
    rows: np.ndarray  # int32 (n_rows,)
    starts: np.ndarray  # (2 dim + 2,)
    cos_r: np.ndarray  # float64 (2 dim + 1,)

    @classmethod
    def from_buckets(
        cls, values: np.ndarray, norms: np.ndarray, buckets: np.ndarray
    ) -> EntityRows:
        """The entity rows of ``values`` from their float64 ``norms`` and
        one bucket per row, each at most ``2 dim``. A row whose norm lies
        outside ``[2**-126, 2**127)`` goes to bucket ``2 dim`` whatever its
        given bucket, and ``cos_r`` takes each other row's signed value on
        its bucket's axis, so a wrong bucket only widens a cone: the
        buckets can change which rows are screened, never ``x``.
        """
        last = _never_skipped(values.shape[1])
        keys = np.array(buckets, dtype=np.uint16)  # 16-bit keys sort stably by radix
        keys[~_in_screen_range(norms)] = last
        on_axis = np.flatnonzero(keys < last)
        axis_keys = keys[on_axis]
        value = values[on_axis, axis_keys >> 1]
        cos_r = np.ones(last + 1, dtype=np.float64)
        signed = np.where((axis_keys & 1) == 1, -value, value)
        np.minimum.at(cos_r, axis_keys, signed / norms[on_axis])
        starts = np.zeros(last + 2, dtype=np.intp)
        np.cumsum(np.bincount(keys, minlength=last + 1), out=starts[1:])
        rows = np.argsort(keys, kind="stable").astype(np.int32)
        for array in (norms, keys, rows, starts, cos_r):
            array.flags.writeable = False
        return cls(values, norms, keys, rows, starts, cos_r)

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
