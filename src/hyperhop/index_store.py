"""Immutable on-disk retrieval index, format version 4.

Directory layout (all binary arrays little-endian):

    manifest.json           counts, format version, corpus digest, encoder id
    entities.json           entity names, row order (``EntitySets.catalog``)
    passages.json           passage ids, column order
    pas_offsets.bin         int32, len n_passages + 1
    pas_indices.bin         int32, len nnz (entity row per entry, ascending per passage)
    entity_embeddings.bin   float32, n_entities x dim
    entity_norms.bin        float64, n_entities (L2 norm of each entity row)
    entity_buckets.bin      uint16, n_entities (axis bucket of each entity row)
    passage_columns.bin     float32, dim x n_passages (passage values, coordinate-major)
    passage_norms.bin       float64, n_passages (L2 norm of each passage row)

The incidence is stored passage-major only; its degrees and its
entity-major and slot-major orders are derived from it on first use. The entity files are the
``embeddings.EntityRows`` that a build derives once: the norms and buckets
of ``embeddings.norms_and_buckets``. The passage files are the
``embeddings.PassageRows`` the query path reads. Every norm is summed in
row order, bit for bit ``np.linalg.norm``'s. ``save_index`` writes each file
to a temporary name beside it and renames it into place, so a process that
mapped the old file keeps it whole.

``load_index`` maps both embedding files read-only and reads the rest; of
the entity rows it derives only the bucket order and each bucket's cone
(``EntityRows.from_buckets``). It raises IndexIntegrityError unless every
file is there and of its size, the incidence arrays are consistent, each id
list holds distinct strings, ``embedding_dim`` is positive, every embedding
value is finite (a min/max sweep over each map), every norm is finite and
>= 0, every bucket is at most ``2 embedding_dim``, and the norms (and, for
entities, the buckets) of ``_NORM_CHECKS`` seeded rows of each matrix,
recomputed from the values, equal the stored ones bit for bit. The buckets
steer only which rows a query screens: a wrong bucket widens a cone and
leaves ``x`` as it is. Versions 1 to 3 are rejected and must be rebuilt.
The manifest has sorted keys and no timestamps, so rebuilding from warm
caches reproduces it byte for byte.
"""

from __future__ import annotations

import json
import math
import mmap
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .embeddings import EntityRows, PassageRows, hold_lock, norms_and_buckets, row_norms
from .entities import EntitySets, distinct
from .errors import IndexIntegrityError
from .hypergraph import IncidenceMatrix, build_incidence

FORMAT_VERSION = 4

MANIFEST_NAME = "manifest.json"

# Rows of each matrix whose stored norm (and bucket) load_index recomputes.
_NORM_CHECKS = 64
# Values per step of the finiteness sweep: 256 KB of float32, so the max
# reads what the min left in cache.
_FINITE_CHUNK = 1 << 16


@dataclass
class HypergraphIndex:
    """Incidence and aligned embeddings for one corpus, with the names of
    its entity rows and the ids of its passage columns. Each side is held
    once, as the ``embeddings.EntityRows`` and ``embeddings.PassageRows``
    that ``save_index`` writes and a query reads. The degrees of the
    incidence are derived on first use.
    """

    entity_names: list[str]
    incidence: IncidenceMatrix
    passage_ids: list[str]
    entity_rows: EntityRows
    passage_rows: PassageRows
    manifest: dict | None = None

    @property
    def n_entities(self) -> int:
        return self.incidence.n_entities

    @property
    def n_passages(self) -> int:
        return self.incidence.n_passages


def build_index(
    entity_sets: EntitySets, entity_rows: EntityRows, passage_rows: PassageRows
) -> HypergraphIndex:
    """Assemble an in-memory index from a corpus's entity sets and its
    embedding rows, one per name of ``entity_sets.catalog`` and one per
    passage (as ``embeddings.embed_batch`` gathers them into each layout);
    raises IndexIntegrityError when the rows do not line up with them, or
    when the two sides differ in dimension.
    """
    (n_entities, entity_dim), (passage_dim, n_passages) = (
        entity_rows.values.shape,
        passage_rows.columns.shape,
    )
    for kind, n_rows, expected in (
        ("entity", n_entities, len(entity_sets.catalog)),
        ("passage", n_passages, len(entity_sets)),
    ):
        if n_rows != expected:
            raise IndexIntegrityError(f"{kind} embeddings have {n_rows} rows, expected {expected}")
    if entity_dim != passage_dim:
        dims = sorted({entity_dim, passage_dim})
        raise IndexIntegrityError(f"entity and passage embedding dims differ: {dims}")
    return HypergraphIndex(
        entity_names=entity_sets.catalog,
        incidence=build_incidence(entity_sets),
        passage_ids=list(entity_sets.passage_ids),
        entity_rows=entity_rows,
        passage_rows=passage_rows,
    )


def _stored(path: Path, dtype: str, shape: tuple[int, ...], mapped: bool = False) -> np.ndarray:
    """The array of ``shape`` that fills ``path``, read-only (loaded indices
    are immutable): mapped when ``mapped``, else read into memory."""
    if not path.exists():
        raise IndexIntegrityError(f"missing index file: {path.name}")
    dtype, size = np.dtype(dtype), path.stat().st_size
    if size != math.prod(shape) * dtype.itemsize:
        shown = " x ".join(map(str, shape))
        raise IndexIntegrityError(f"{path.name} holds {size} bytes, expected {shown} {dtype.name}")
    with path.open("rb") as fh:
        buffer = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) if mapped and size else fh.read()
    if len(buffer) != size:
        raise IndexIntegrityError(f"short read from {path.name}")
    return np.frombuffer(buffer, dtype=dtype).reshape(shape)  # a read-only map or bytes


def _replace(path: Path, data: bytes | np.ndarray) -> None:
    """Write ``data`` to a temporary file beside ``path`` and rename it over
    ``path``, so no reader sees a partly written file and a map of the old
    one stays valid."""
    temporary = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with temporary.open("wb") as fh:
            fh.write(data)
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def save_index(index: HypergraphIndex, directory: str | Path, extra_manifest: dict | None = None) -> dict:
    """Persist the index, one file at a time, the manifest last; returns the
    manifest that was written.

    The manifest holds the index's own manifest, then ``extra_manifest``,
    then the format version, the counts and ``embedding_dim``, derived from
    the index; a later source wins on a shared key. The directory is held
    for the save by ``embeddings.hold_lock`` on the file ``<name>.lock``
    beside it: while another save holds it, raises ContractError naming the
    index directory as in use by another build, and writes no index file.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    inc = index.incidence
    manifest = {
        **(index.manifest or {}),
        **(extra_manifest or {}),
        "format_version": FORMAT_VERSION,
        "n_entities": inc.n_entities,
        "n_passages": inc.n_passages,
        "nnz": inc.nnz,
        "embedding_dim": int(index.entity_rows.values.shape[1]),
    }
    files = {
        "entities.json": json.dumps(index.entity_names, ensure_ascii=False).encode("utf-8"),
        "passages.json": json.dumps(index.passage_ids, ensure_ascii=False).encode("utf-8"),
        "pas_offsets.bin": np.ascontiguousarray(inc.pas_offsets, dtype="<i4"),
        "pas_indices.bin": np.ascontiguousarray(inc.pas_indices, dtype="<i4"),
        "entity_embeddings.bin": np.ascontiguousarray(index.entity_rows.values, dtype="<f4"),
        "entity_norms.bin": np.ascontiguousarray(index.entity_rows.norms, dtype="<f8"),
        "entity_buckets.bin": np.ascontiguousarray(index.entity_rows.buckets, dtype="<u2"),
        "passage_columns.bin": np.ascontiguousarray(index.passage_rows.columns, dtype="<f4"),
        "passage_norms.bin": np.ascontiguousarray(index.passage_rows.norms, dtype="<f8"),
        MANIFEST_NAME: (json.dumps(manifest, sort_keys=True, indent=2) + "\n").encode("utf-8"),
    }
    beside = directory.resolve()
    lock = hold_lock(beside.with_name(f"{beside.name}.lock"), f"index directory {directory}")
    try:
        for name, data in files.items():
            _replace(directory / name, data)
    finally:
        os.close(lock)
    return manifest


def _checked_incidence(
    offsets: np.ndarray, indices: np.ndarray, n_entities: int, n_passages: int, nnz: int
) -> IncidenceMatrix:
    """Wrap the stored arrays, which ``_stored`` sized, raising
    IndexIntegrityError on any inconsistency."""
    if offsets[0] != 0 or offsets[-1] != nnz or np.any(offsets[1:] < offsets[:-1]):
        raise IndexIntegrityError("pas_offsets.bin does not frame pas_indices.bin")
    if nnz and (indices.min() < 0 or indices.max() >= n_entities):
        raise IndexIntegrityError("pas_indices.bin holds an entity row outside [0, n_entities)")
    # H^T relies on rows ascending inside each passage; a repeated row would
    # be a duplicate incidence. Rows may descend from one passage to the next.
    not_ascending = indices[1:] <= indices[:-1]
    boundaries = offsets[1:-1]
    not_ascending[boundaries[(boundaries > 0) & (boundaries < nnz)] - 1] = False
    if np.any(not_ascending):
        raise IndexIntegrityError("pas_indices.bin rows are not strictly ascending in a passage")
    return IncidenceMatrix(n_entities, n_passages, offsets, indices)


def spot_checked_rows(n_rows: int) -> np.ndarray:
    """The ``_NORM_CHECKS`` seeded rows (all, when fewer) of a matrix of
    ``n_rows`` whose stored norms ``load_index`` recomputes."""
    return np.random.default_rng(0).choice(n_rows, min(n_rows, _NORM_CHECKS), replace=False)


def _check_finite(path: Path, values: np.ndarray) -> None:
    """Raise unless every value of the C-ordered ``values`` is finite:
    checked by the min and max of each chunk, as NaN propagates through both
    and an infinity is an extreme, with no temporary of the chunk's size."""
    flat = values.reshape(-1)
    for start in range(0, flat.shape[0], _FINITE_CHUNK):  # an empty map has no chunk
        chunk = flat[start : start + _FINITE_CHUNK]
        if not (math.isfinite(chunk.min()) and math.isfinite(chunk.max())):
            raise IndexIntegrityError(f"{path.name} holds a non-finite value")


def _stored_norms(path: Path, n_rows: int) -> np.ndarray:
    norms = _stored(path, "<f8", (n_rows,))
    if not (np.isfinite(norms) & (norms >= 0.0)).all():
        raise IndexIntegrityError(f"{path.name} holds a non-finite or negative norm")
    return norms


def _checked_passage_rows(directory: Path, n_passages: int, dim: int) -> PassageRows:
    """The passage rows as stored: the columns mapped, the norms read, and
    both checked (see the module docstring)."""
    columns_path = directory / "passage_columns.bin"
    columns = _stored(columns_path, "<f4", (dim, n_passages), mapped=True)
    _check_finite(columns_path, columns)
    norms = _stored_norms(directory / "passage_norms.bin", n_passages)
    picked = spot_checked_rows(n_passages)
    if row_norms(columns[:, picked].T).tobytes() != norms[picked].tobytes():
        raise IndexIntegrityError("passage_norms.bin does not hold the norms of passage_columns.bin")
    return PassageRows(columns, norms)


def _checked_entity_rows(directory: Path, n_entities: int, dim: int) -> EntityRows:
    """The entity rows from the stored values, mapped, and the stored norms
    and buckets, all checked (see the module docstring)."""
    values_path = directory / "entity_embeddings.bin"
    values = _stored(values_path, "<f4", (n_entities, dim), mapped=True)
    _check_finite(values_path, values)
    norms = _stored_norms(directory / "entity_norms.bin", n_entities)
    buckets = _stored(directory / "entity_buckets.bin", "<u2", (n_entities,))
    if n_entities and buckets.max() > 2 * dim:
        raise IndexIntegrityError(f"entity_buckets.bin holds a bucket above 2 embedding_dim = {2 * dim}")
    picked = spot_checked_rows(n_entities)
    for name, stored, recomputed in zip(
        ("norms", "buckets"), (norms, buckets), norms_and_buckets(values[picked])
    ):
        if recomputed.tobytes() != stored[picked].tobytes():
            raise IndexIntegrityError(f"entity_{name}.bin does not hold the {name} of {values_path.name}")
    return EntityRows.from_buckets(values, norms, buckets)


def _read_json(path: Path, kind: type):
    try:
        value = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise IndexIntegrityError(f"missing index file: {path.name}") from None
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise IndexIntegrityError(f"{path.name} is not valid JSON: {exc}") from exc
    if not isinstance(value, kind):
        raise IndexIntegrityError(f"{path.name} does not hold a JSON {kind.__name__}")
    return value


def _read_ids(path: Path) -> list[str]:
    """The list of distinct strings in ``path``."""
    ids = _read_json(path, list)
    if all(map(str.__instancecheck__, ids)) and distinct(ids):
        return ids
    raise IndexIntegrityError(f"{path.name} is not a list of distinct strings")


def _count(manifest: dict, key: str) -> int:
    value = manifest.get(key)
    if type(value) is not int or value < 0:
        raise IndexIntegrityError(f"{MANIFEST_NAME} has no count {key!r}")
    return value


def load_index(directory: str | Path) -> HypergraphIndex:
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.exists():
        raise IndexIntegrityError(f"no index manifest at {manifest_path}")
    manifest = _read_json(manifest_path, dict)
    if manifest.get("format_version") != FORMAT_VERSION:
        raise IndexIntegrityError(
            f"unsupported index format version {manifest.get('format_version')!r}"
            f" (expected {FORMAT_VERSION}); rebuild the index"
        )
    n_entities, n_passages, nnz, dim = (
        _count(manifest, k) for k in ("n_entities", "n_passages", "nnz", "embedding_dim")
    )
    if dim == 0:
        raise IndexIntegrityError(f"{MANIFEST_NAME} declares embedding_dim 0")
    passage_ids = _read_ids(directory / "passages.json")
    entity_names = _read_ids(directory / "entities.json")
    if len(entity_names) != n_entities or len(passage_ids) != n_passages:
        raise IndexIntegrityError("manifest counts disagree with stored id lists")

    incidence = _checked_incidence(
        _stored(directory / "pas_offsets.bin", "<i4", (n_passages + 1,)),
        _stored(directory / "pas_indices.bin", "<i4", (nnz,)),
        n_entities,
        n_passages,
        nnz,
    )

    return HypergraphIndex(
        entity_names=entity_names,
        incidence=incidence,
        passage_ids=passage_ids,
        passage_rows=_checked_passage_rows(directory, n_passages, dim),
        entity_rows=_checked_entity_rows(directory, n_entities, dim),
        manifest=manifest,
    )
