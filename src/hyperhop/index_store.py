"""Immutable on-disk retrieval index, format version 2.

Directory layout (all binary arrays little-endian):

    manifest.json           counts, format version, corpus digest, encoder id
    entities.json           entity strings, row order
    passages.json           passage ids, column order
    pas_offsets.bin         int32, len n_passages + 1
    pas_indices.bin         int32, len nnz (entity row per entry, ascending per passage)
    entity_embeddings.bin   float32, n_entities x dim
    passage_embeddings.bin  float32, n_passages x dim

Every index has both embedding matrices, and the manifest always declares
their ``embedding_dim``, which ``save_index`` derives from the matrices.
The incidence is stored passage-major only; degrees are derived at load.
``load_index`` checks the incidence arrays, a positive ``embedding_dim``,
and that both embedding files are there, of the right size, read in full
and with every value finite; it raises IndexIntegrityError on any
mismatch. Version 1 indexes, which also stored the entity-major
orientation and the degrees, are rejected and must be rebuilt.

In memory, a loaded index keeps what the query path reads and nothing else:
the ``embeddings.PassageRows`` of the passages (the passage similarity
needs every passage): the stored values as float64, coordinate-major and
not normalized, and their float64 norms; and the ``embeddings.EntityRows``
of the entities: the float32 rows as stored, their float64 norms and their
buckets. ``load_index`` streams each embedding file once, ``ROW_BLOCK`` rows
at a time, straight into these arrays, so it keeps no float32 passage
matrix, no float64 entity matrix and makes no whole-matrix temporary. The
norms and buckets are derived from the rows as they are read, so they add
nothing to the files.

The manifest is written with sorted keys and no timestamps, so rebuilding
from warm caches reproduces it byte for byte.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Sequence, Sized

import numpy as np

from .embeddings import ROW_BLOCK, EntityRows, PassageRows
from .entities import EntityCatalog, EntitySets
from .errors import ContractError, IndexIntegrityError
from .hypergraph import (
    DegreeVectors,
    IncidenceMatrix,
    build_incidence,
    compute_degrees,
)

FORMAT_VERSION = 2

MANIFEST_NAME = "manifest.json"


@dataclass
class HypergraphIndex:
    """Catalog, incidence, degrees and aligned embeddings for one corpus.

    ``passage_rows`` (the ``embeddings.PassageRows`` of
    ``passage_embeddings``) and ``entity_rows`` (the
    ``embeddings.EntityRows`` of ``entity_embeddings``) are computed on first
    use and then kept, so a query never converts a whole matrix and a build
    never converts one. ``load_index`` sets both as it reads the
    files and leaves ``passage_embeddings`` None, the one field an index
    leaves unset, so a loaded index cannot be saved again.
    """

    catalog: EntityCatalog
    incidence: IncidenceMatrix
    degrees: DegreeVectors
    passage_ids: list[str]
    entity_embeddings: np.ndarray  # float32 (n_entities, dim)
    passage_embeddings: np.ndarray | None  # float32 (n_passages, dim); None once loaded
    manifest: dict | None = None

    @property
    def n_entities(self) -> int:
        return self.incidence.n_entities

    @property
    def n_passages(self) -> int:
        return self.incidence.n_passages

    @functools.cached_property
    def entity_rows(self) -> EntityRows:
        return EntityRows.of(self.entity_embeddings)

    @functools.cached_property
    def passage_rows(self) -> PassageRows:
        return PassageRows.of(self.passage_embeddings)


def build_index(
    entity_sets: EntitySets,
    catalog: EntityCatalog,
    passage_ids: Sequence[str],
    entity_embeddings: np.ndarray,
    passage_embeddings: np.ndarray,
) -> HypergraphIndex:
    """Assemble an in-memory index from already-extracted pieces and the two
    float32 embedding matrices, one row per catalog entity and per passage.

    Raises IndexIntegrityError when the entity sets, or an embedding matrix's
    rows, do not line up with the catalog and the passages, or when the two
    matrices differ in dimension.
    """
    if len(entity_sets) != len(passage_ids):
        raise IndexIntegrityError("entity sets and passage ids are misaligned")
    dims = set()
    for kind, values, rows in (
        ("entity", entity_embeddings, len(catalog)),
        ("passage", passage_embeddings, len(passage_ids)),
    ):
        if values.ndim != 2 or values.shape[0] != rows:
            raise IndexIntegrityError(
                f"{kind} embeddings have shape {values.shape}, expected {rows} rows"
            )
        dims.add(values.shape[1])
    if len(dims) > 1:
        raise IndexIntegrityError(f"entity and passage embedding dims differ: {sorted(dims)}")
    incidence = build_incidence(entity_sets, catalog)
    return HypergraphIndex(
        catalog=catalog,
        incidence=incidence,
        degrees=compute_degrees(incidence),
        passage_ids=list(passage_ids),
        entity_embeddings=entity_embeddings,
        passage_embeddings=passage_embeddings,
    )


def _write_array(path: Path, array: np.ndarray, dtype: str) -> None:
    array.astype(dtype).tofile(path)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _read_array(path: Path, count: int) -> np.ndarray:
    """The ``count`` little-endian int32 values that fill ``path``, read-only
    (loaded indices are immutable)."""
    if not path.exists():
        raise IndexIntegrityError(f"missing index file: {path.name}")
    size = path.stat().st_size
    if size != count * 4:
        raise IndexIntegrityError(f"{path.name} holds {size} bytes, expected {count} int32")
    return _read_only(np.fromfile(path, dtype="<i4"))


def save_index(index: HypergraphIndex, directory: str | Path, extra_manifest: dict | None = None) -> dict:
    """Persist the index; returns the manifest that was written.

    The manifest holds the index's own manifest, then ``extra_manifest``,
    then the format version, the counts and ``embedding_dim``, derived from
    the index; a later source wins on a shared key.
    """
    if index.passage_embeddings is None:
        raise ContractError("a loaded index keeps no float32 passage matrix and cannot be saved")
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
        "embedding_dim": int(index.entity_embeddings.shape[1]),
    }

    (directory / "entities.json").write_text(
        json.dumps(index.catalog.to_list(), ensure_ascii=False), encoding="utf-8"
    )
    (directory / "passages.json").write_text(
        json.dumps(index.passage_ids, ensure_ascii=False), encoding="utf-8"
    )
    _write_array(directory / "pas_offsets.bin", inc.pas_offsets, "<i4")
    _write_array(directory / "pas_indices.bin", inc.pas_indices, "<i4")
    _write_array(directory / "entity_embeddings.bin", index.entity_embeddings, "<f4")
    _write_array(directory / "passage_embeddings.bin", index.passage_embeddings, "<f4")

    (directory / MANIFEST_NAME).write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    return manifest


def _checked_incidence(
    offsets: np.ndarray, indices: np.ndarray, n_entities: int, n_passages: int, nnz: int
) -> IncidenceMatrix:
    """Wrap the stored arrays, which ``_read_array`` sized, raising
    IndexIntegrityError on any inconsistency."""
    if offsets[0] != 0 or offsets[-1] != nnz or np.any(offsets[1:] < offsets[:-1]):
        raise IndexIntegrityError("pas_offsets.bin does not frame pas_indices.bin")
    if nnz and (indices.min() < 0 or indices.max() >= n_entities):
        raise IndexIntegrityError("pas_indices.bin holds an entity row outside [0, n_entities)")
    incidence = IncidenceMatrix(n_entities, n_passages, offsets, indices)
    # H^T relies on rows ascending inside each passage; a repeated row would
    # be a duplicate incidence.
    same_passage = incidence.pas_columns[1:] == incidence.pas_columns[:-1]
    if np.any(same_passage & (indices[1:] <= indices[:-1])):
        raise IndexIntegrityError("pas_indices.bin rows are not strictly ascending in a passage")
    return incidence


def _stream_embeddings(
    directory: Path, kind: str, rows: int, dim: int, block_at: Callable[[int, int], np.ndarray]
) -> Iterator[tuple[int, int, np.ndarray]]:
    """Read the float32 (rows, dim) matrix in ``{kind}_embeddings.bin`` once,
    ``ROW_BLOCK`` rows at a time.

    Rows ``[start, stop)`` are read into ``block_at(start, stop)``, a
    contiguous float32 array of that many rows, and yielded as ``(start,
    stop, block)`` once every value in them is checked finite.
    """
    path = directory / f"{kind}_embeddings.bin"
    if not path.exists():
        raise IndexIntegrityError(f"no {kind} embeddings: missing {path.name}")
    size = path.stat().st_size
    if size != rows * dim * 4:
        raise IndexIntegrityError(f"{path.name} holds {size} bytes, expected {rows} x {dim} float32")
    with path.open("rb") as fh:
        for start in range(0, rows, ROW_BLOCK):
            stop = min(start + ROW_BLOCK, rows)
            block = block_at(start, stop)
            if fh.readinto(block) != block.nbytes:
                raise IndexIntegrityError(f"short read from {path.name}")
            if not np.isfinite(block).all():
                raise IndexIntegrityError(f"{path.name} holds a non-finite value")
            yield start, stop, block


def _read_json(path: Path, kind: type):
    try:
        value = json.loads(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise IndexIntegrityError(f"{path.name} is not valid JSON: {exc}") from exc
    if not isinstance(value, kind):
        raise IndexIntegrityError(f"{path.name} does not hold a JSON {kind.__name__}")
    return value


def _read_ids(
    path: Path, distinct: Callable[[list[str]], Sized] = set
) -> tuple[list[str], Sized]:
    """The id list in ``path`` and ``distinct(ids)``, which must hold as many.

    ``distinct`` is what the caller keeps of the ids' hashes (the entity
    catalog's dict), so each id is hashed once.
    """
    ids = _read_json(path, list)
    if all(map(str.__instancecheck__, ids)):
        held = distinct(ids)
        if len(held) == len(ids):
            return ids, held
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
    entities, catalog = _read_ids(directory / "entities.json", EntityCatalog)
    passage_ids = _read_ids(directory / "passages.json")[0]  # its set is not kept
    if len(entities) != n_entities or len(passage_ids) != n_passages:
        raise IndexIntegrityError("manifest counts disagree with stored id lists")

    incidence = _checked_incidence(
        _read_array(directory / "pas_offsets.bin", n_passages + 1),
        _read_array(directory / "pas_indices.bin", nnz),
        n_entities,
        n_passages,
        nnz,
    )

    values = np.empty((n_entities, dim), dtype="<f4")
    blocks = _stream_embeddings(directory, "entity", n_entities, dim, lambda i, j: values[i:j])
    entity_rows = EntityRows.of(values, blocks)
    index = HypergraphIndex(
        catalog=catalog,
        incidence=incidence,
        degrees=compute_degrees(incidence),
        passage_ids=passage_ids,
        entity_embeddings=_read_only(values),
        passage_embeddings=None,
        manifest=manifest,
    )
    index.entity_rows = entity_rows
    # The passage rows pass through one reused block; the zero-stride
    # matrix gives PassageRows.of only their shape.
    buffer = np.empty((min(n_passages, ROW_BLOCK), dim), dtype="<f4")
    blocks = _stream_embeddings(directory, "passage", n_passages, dim, lambda i, j: buffer[: j - i])
    index.passage_rows = PassageRows.of(np.broadcast_to(buffer[:1], (n_passages, dim)), blocks)
    return index
