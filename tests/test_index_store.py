import fcntl
import gc
import io
import json
import mmap
import os
import tempfile
import tracemalloc
from contextlib import closing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperhop import embeddings, index_store
from hyperhop.cli import main
from hyperhop.embeddings import (
    ROW_BLOCK,
    EmbeddingCache,
    EntityRows,
    OfflineEncoder,
    PassageRows,
    embed_batch,
    norms_and_buckets,
)
from hyperhop.errors import ContractError, IndexIntegrityError
from hyperhop.index_store import (
    _NORM_CHECKS,
    build_index,
    load_index,
    save_index,
    spot_checked_rows,
)

from conftest import TOY_SETS, entity_rows_of, entity_sets_of, passage_rows_of
from reference import row_norms


def make_toy_index(sets=TOY_SETS):
    entity_sets = entity_sets_of(sets)
    encoder = OfflineEncoder(dim=32)
    entity_embeddings = embed_batch(entity_sets.catalog, encoder)
    passage_embeddings = embed_batch([f"t {pid}" for pid in entity_sets.passage_ids], encoder)
    return build_index(
        entity_sets, entity_rows_of(entity_embeddings), passage_rows_of(passage_embeddings)
    )


def test_round_trip_preserves_everything(tmp_path):
    index = make_toy_index()
    save_index(index, tmp_path, extra_manifest={"corpus_sha256": "abc"})
    loaded = load_index(tmp_path)

    assert loaded.passage_ids == index.passage_ids
    assert loaded.entity_names == index.entity_names
    assert loaded.incidence.nnz == index.incidence.nnz
    np.testing.assert_array_equal(loaded.incidence.pas_offsets, index.incidence.pas_offsets)
    np.testing.assert_array_equal(loaded.incidence.pas_indices, index.incidence.pas_indices)
    np.testing.assert_array_equal(
        loaded.incidence.degrees.node_degrees, index.incidence.degrees.node_degrees
    )
    np.testing.assert_array_equal(
        loaded.incidence.degrees.edge_degrees, index.incidence.degrees.edge_degrees
    )
    _assert_bitwise_equal(loaded.entity_rows.values, index.entity_rows.values)
    _assert_bitwise_equal(loaded.entity_rows.norms, index.entity_rows.norms)
    _assert_bitwise_equal(loaded.passage_rows.columns, index.passage_rows.columns)
    _assert_bitwise_equal(loaded.passage_rows.norms, index.passage_rows.norms)
    assert loaded.manifest["corpus_sha256"] == "abc"


def _assert_bitwise_equal(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def test_binary_files_are_little_endian_int32(tmp_path):
    index = make_toy_index()
    save_index(index, tmp_path)
    raw = (tmp_path / "pas_offsets.bin").read_bytes()
    assert np.frombuffer(raw, dtype="<i4").tolist() == [0, 2, 5, 7]
    raw_rows = (tmp_path / "pas_indices.bin").read_bytes()
    assert np.frombuffer(raw_rows, dtype="<i4").tolist() == [0, 1, 1, 2, 3, 3, 4]


def test_manifest_is_byte_stable(tmp_path):
    index = make_toy_index()
    save_index(index, tmp_path / "a", extra_manifest={"corpus_sha256": "abc"})
    save_index(index, tmp_path / "b", extra_manifest={"corpus_sha256": "abc"})
    assert (tmp_path / "a/manifest.json").read_bytes() == (tmp_path / "b/manifest.json").read_bytes()


def test_missing_manifest(tmp_path):
    with pytest.raises(IndexIntegrityError, match="manifest"):
        load_index(tmp_path)


def test_corrupted_counts_detected(tmp_path):
    index = make_toy_index()
    save_index(index, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["nnz"] = 99
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(IndexIntegrityError):
        load_index(tmp_path)


def test_missing_binary_detected(tmp_path):
    index = make_toy_index()
    save_index(index, tmp_path)
    (tmp_path / "pas_indices.bin").unlink()
    with pytest.raises(IndexIntegrityError, match="pas_indices"):
        load_index(tmp_path)


@pytest.mark.parametrize(
    "name",
    [
        "entity_embeddings.bin",
        "entity_norms.bin",
        "entity_buckets.bin",
        "passage_columns.bin",
        "passage_norms.bin",
    ],
)
def test_missing_embedding_file_detected_at_load(tmp_path, name):
    (_saved(tmp_path) / name).unlink()
    with pytest.raises(IndexIntegrityError, match=f"missing index file: {name}"):
        load_index(tmp_path)


@pytest.mark.parametrize("embedding_dim", [None, 0])
def test_index_without_embedding_dim_exits_2(tmp_path, capsys, embedding_dim):
    save_index(make_toy_index(), tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["embedding_dim"] = embedding_dim
    if embedding_dim is None:
        del manifest["embedding_dim"]
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    assert main(["stats", "--index-dir", str(tmp_path), "--offline"]) == 2
    err = capsys.readouterr().err
    assert "manifest.json" in err and "embedding_dim" in err


def test_an_embedding_dim_too_large_for_the_files_exits_2(tmp_path, capsys):
    """The files' sizes are checked before any array of that size is made."""
    save_index(make_toy_index(), tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["embedding_dim"] = 10**13
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    assert main(["stats", "--index-dir", str(tmp_path), "--offline"]) == 2
    assert "passage_columns.bin holds" in capsys.readouterr().err


def test_derived_manifest_keys_win_over_extra_manifest(tmp_path):
    index = make_toy_index()
    index.manifest = {"corpus_sha256": "abc", "nnz": 1}
    written = save_index(index, tmp_path, extra_manifest={"nnz": 99, "embedding_dim": 7})
    assert (written["nnz"], written["embedding_dim"]) == (7, 32)
    assert written["corpus_sha256"] == "abc"
    assert json.loads((tmp_path / "manifest.json").read_text()) == written
    assert load_index(tmp_path).manifest == written


@pytest.mark.parametrize(
    "entity_shape, passage_shape",
    [
        ((3, 32), (3, 32)),  # entity matrix two rows short
        ((8, 32), (3, 32)),  # three extra entity rows
        ((5, 32), (2, 32)),  # passage matrix one row short
        ((5, 32), (3, 16)),  # the two matrices differ in dimension
    ],
)
def test_misaligned_embeddings_rejected(entity_shape, passage_shape):
    entity_sets = entity_sets_of(TOY_SETS)  # 3 passages over 5 entities
    entities = np.ones(entity_shape, dtype=np.float32)
    passages = np.ones(passage_shape, dtype=np.float32)
    with pytest.raises(IndexIntegrityError, match="embedding"):
        build_index(entity_sets, entity_rows_of(entities), passage_rows_of(passages))


def _saved(tmp_path):
    save_index(make_toy_index(), tmp_path)
    return tmp_path


def test_only_the_passage_major_incidence_is_stored(tmp_path):
    assert sorted(f.name for f in _saved(tmp_path).iterdir()) == [
        "entities.json",
        "entity_buckets.bin",
        "entity_embeddings.bin",
        "entity_norms.bin",
        "manifest.json",
        "pas_indices.bin",
        "pas_offsets.bin",
        "passage_columns.bin",
        "passage_norms.bin",
        "passages.json",
    ]
    assert json.loads((tmp_path / "manifest.json").read_text())["format_version"] == 4


@pytest.mark.parametrize("version", [1, 2, 3])
def test_older_index_versions_rejected(tmp_path, version):
    directory = _saved(tmp_path)
    manifest = json.loads((directory / "manifest.json").read_text())
    manifest["format_version"] = version
    (directory / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(IndexIntegrityError, match=f"version {version}.*rebuild the index"):
        load_index(directory)


@pytest.mark.parametrize(
    "name, resize",
    [
        ("passage_columns.bin", lambda raw: raw[:-4]),  # truncated
        ("passage_norms.bin", lambda raw: raw[:-1]),  # torn
        ("entity_embeddings.bin", lambda raw: raw + bytes(4)),  # oversized
        ("entity_norms.bin", lambda raw: raw[:-8]),  # a norm short
        ("entity_buckets.bin", lambda raw: raw + bytes(2)),  # a bucket over
    ],
)
def test_wrong_size_embeddings_detected(tmp_path, name, resize):
    path = _saved(tmp_path) / name
    path.write_bytes(resize(path.read_bytes()))
    with pytest.raises(IndexIntegrityError, match=name):
        load_index(tmp_path)


@pytest.mark.parametrize("name", ["pas_offsets.bin", "pas_indices.bin"])
@pytest.mark.parametrize("extra", [1, 2, 3])
def test_torn_incidence_array_detected(tmp_path, name, extra):
    # np.fromfile would drop the partial last item and load the rest.
    path = _saved(tmp_path) / name
    size = path.stat().st_size
    path.write_bytes(path.read_bytes() + bytes(extra))
    with pytest.raises(IndexIntegrityError, match=rf"{name} holds {size + extra} bytes"):
        load_index(tmp_path)


@pytest.mark.parametrize("row", [5, -1])  # the toy index has entities 0..4
def test_out_of_range_row_detected(tmp_path, row):
    np.array([0, 1, 1, 2, 3, 3, row], dtype="<i4").tofile(_saved(tmp_path) / "pas_indices.bin")
    with pytest.raises(IndexIntegrityError, match="outside"):
        load_index(tmp_path)


@pytest.mark.parametrize(
    "rows",
    [
        [0, 1, 2, 1, 3, 3, 4],  # passage 1 holds rows 2, 1: unsorted
        [0, 1, 1, 1, 3, 3, 4],  # passage 1 holds row 1 twice: duplicate incidence
    ],
)
def test_unsorted_or_duplicated_row_detected(tmp_path, rows):
    np.array(rows, dtype="<i4").tofile(_saved(tmp_path) / "pas_indices.bin")
    with pytest.raises(IndexIntegrityError, match="strictly ascending"):
        load_index(tmp_path)


@pytest.mark.parametrize(
    "sets",
    [
        # Rows 0, 1 of p3 and row 0 of p6 descend across p4 and p5.
        {"p1": [], "p2": [], "p3": ["a", "b"], "p4": [], "p5": [], "p6": ["a"], "p7": []},
        {"p1": [], "p2": []},
    ],
    ids=["empty-side-by-side", "no-entries"],
)
def test_empty_passages_side_by_side_load(tmp_path, sets):
    # Rows need ascend only inside a passage; the check marks each passage
    # boundary from pas_offsets, repeated where passages are empty.
    index = make_toy_index(sets)
    save_index(index, tmp_path)
    loaded = load_index(tmp_path).incidence
    assert loaded.pas_offsets.tobytes() == index.incidence.pas_offsets.astype("<i4").tobytes()
    np.testing.assert_array_equal(loaded.pas_indices, index.incidence.pas_indices)


@pytest.mark.parametrize(
    "rows",
    [
        [3, 4, 0, 1, 2, 0, 1],  # rows descend across both passage boundaries
        [0, 4, 0, 1, 2, 0, 4],  # and repeat across them
    ],
)
def test_rows_descending_across_toy_boundaries_load(tmp_path, rows):
    np.array(rows, dtype="<i4").tofile(_saved(tmp_path) / "pas_indices.bin")
    assert load_index(tmp_path).incidence.pas_indices.tolist() == rows


@pytest.mark.parametrize(
    "rows",
    [
        [1, 1, 0, 1, 2, 3, 4],  # the first passage repeats a row
        [1, 0, 0, 1, 2, 3, 4],  # the first passage's rows descend
        [0, 1, 0, 1, 2, 4, 4],  # the last passage repeats a row
        [0, 1, 0, 1, 2, 4, 3],  # the last passage's rows descend
    ],
)
def test_a_bad_row_in_the_first_or_last_passage_exits_2(tmp_path, capsys, rows):
    np.array(rows, dtype="<i4").tofile(_saved(tmp_path) / "pas_indices.bin")
    _exits_2_naming(tmp_path, capsys, "pas_indices.bin rows are not strictly ascending in a passage")


@pytest.mark.parametrize(
    "offsets",
    [
        [0, 2, 5],  # too short for three passages
        [1, 2, 5, 7],  # does not start at 0
        [0, 2, 5, 6],  # does not end at nnz
        [0, 5, 2, 7],  # decreases
    ],
)
def test_bad_offsets_detected(tmp_path, offsets):
    directory = _saved(tmp_path)
    np.array(offsets, dtype="<i4").tofile(directory / "pas_offsets.bin")
    with pytest.raises(IndexIntegrityError, match="pas_offsets"):
        load_index(directory)


@pytest.mark.parametrize(
    "name, value",
    [
        ("passage_columns.bin", np.nan),
        ("entity_embeddings.bin", np.nan),
        ("entity_embeddings.bin", -np.inf),
    ],
)
def test_non_finite_embeddings_detected(tmp_path, name, value):
    path = _saved(tmp_path) / name
    values = np.fromfile(path, dtype="<f4")
    values[5] = value
    values.tofile(path)
    with pytest.raises(IndexIntegrityError, match=f"{name} holds a non-finite value"):
        load_index(tmp_path)


def _synthetic_index(rows, dim, seed=7):
    """``rows`` passages, each holding its own entity, with random embeddings
    of mixed scale and a few zero rows."""
    rng = np.random.default_rng(seed)
    entity_sets = entity_sets_of({f"p{i:06d}": [f"e{i}"] for i in range(rows)})
    matrices = []
    for _ in range(2):
        values = rng.standard_normal((rows, dim)) * 10.0 ** rng.integers(-20, 20, (rows, 1))
        values[::17] = 0.0
        matrices.append(values.astype(np.float32))
    return build_index(entity_sets, entity_rows_of(matrices[0]), passage_rows_of(matrices[1]))


def _stored(directory, name, dim):
    return np.fromfile(directory / name, dtype="<f4").reshape(-1, dim)


@pytest.mark.parametrize("rows", [0, 1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1])
def test_loaded_rows_are_bitwise_those_of_the_stored_matrices(tmp_path, rows):
    save_index(_synthetic_index(rows, 16), tmp_path)
    loaded = load_index(tmp_path)
    entities = _stored(tmp_path, "entity_embeddings.bin", 16)
    columns = np.fromfile(tmp_path / "passage_columns.bin", dtype="<f4").reshape(16, rows)
    _assert_bitwise_equal(loaded.entity_rows.values, entities)
    _assert_bitwise_equal(loaded.entity_rows.norms, row_norms(entities))
    _assert_bitwise_equal(loaded.passage_rows.columns, columns)
    # Row order: np.linalg.norm sums an F-ordered row in another order.
    _assert_bitwise_equal(loaded.passage_rows.norms, row_norms(np.ascontiguousarray(columns.T)))
    _assert_bitwise_equal(loaded.passage_rows.norms, np.fromfile(tmp_path / "passage_norms.bin"))
    buckets = np.fromfile(tmp_path / "entity_buckets.bin", dtype="<u2")
    _assert_bitwise_equal(loaded.entity_rows.buckets, buckets)
    entity_rows = entity_rows_of(entities)
    for name in ("values", "norms", "buckets", "rows", "starts", "cos_r"):
        _assert_bitwise_equal(getattr(loaded.entity_rows, name), getattr(entity_rows, name))
    for name in ("values", "norms", "buckets"):
        assert not getattr(loaded.entity_rows, name).flags.writeable
    assert not loaded.passage_rows.columns.flags.writeable
    assert not loaded.passage_rows.norms.flags.writeable


# Coordinates on the edges of the entity buckets: zero, ties of either
# sign, norms below 2**-126 (subnormals), at it, and at or above 2**127.
_EDGE_VALUES = [0.0, 1.0, -1.0, 2.0**-149, -(2.0**-149), 2.0**-126, 2.0**127, -(2.0**127), 3e38]


@st.composite
def _entity_matrices(draw):
    n_rows, dim = draw(st.integers(0, 40)), draw(st.integers(1, 5))
    value = st.one_of(st.sampled_from(_EDGE_VALUES), st.floats(-4.0, 4.0, width=32))
    flat = draw(st.lists(value, min_size=n_rows * dim, max_size=n_rows * dim))
    return np.array(flat, dtype=np.float32).reshape(n_rows, dim)


def _reference_buckets(values):
    """Each row's bucket, row by row, as the ``EntityRows`` docstring
    defines it."""
    dim = values.shape[1]
    buckets = []
    for row, norm in zip(values, row_norms(values)):
        k = int(np.argmax(np.abs(row)))
        in_range = 2.0**-126 <= norm < 2.0**127
        buckets.append(2 * k + int(row[k] < 0) if in_range else 2 * dim)
    return np.array(buckets, dtype="<u2")


@settings(max_examples=80, deadline=None)
@given(values=_entity_matrices())
@example(
    values=np.array(
        [
            [0.0, 0.0, 0.0],  # zero: bucket 2 dim
            [1.0, -1.0, 0.5],  # a tie: the first axis, positive
            [-1.0, 1.0, 0.5],  # a tie: the first axis, negative
            [0.0, -(2.0**-126), 0.0],  # a norm of 2**-126: in range
            [2.0**-149, 0.0, -(2.0**-149)],  # a norm below 2**-126
            [0.0, 0.0, 2.0**127],  # a norm of 2**127
            [3e38, -3e38, 1.0],  # a norm above 2**127
        ],
        dtype=np.float32,
    )
)
def test_stored_entity_rows_are_bitwise_those_of_the_values(values):
    entity_sets = entity_sets_of({f"p{i:02d}": [f"e{i}"] for i in range(len(values))})
    with tempfile.TemporaryDirectory() as directory:
        save_index(build_index(entity_sets, entity_rows_of(values), passage_rows_of(values)), directory)
        stored = np.fromfile(Path(directory) / "entity_buckets.bin", dtype="<u2")
        loaded = load_index(directory).entity_rows
    assert stored.tobytes() == _reference_buckets(values).tobytes()
    built = entity_rows_of(values)
    for name in ("values", "norms", "buckets", "rows", "starts", "cos_r"):
        _assert_bitwise_equal(getattr(loaded, name), getattr(built, name))


@pytest.fixture
def bucket_passes(monkeypatch):
    """The row count of every ``norms_and_buckets`` call, in order."""
    passes = []

    def counted(block):
        passes.append(len(block))
        return norms_and_buckets(block)

    for module in (embeddings, index_store):
        monkeypatch.setattr(module, "norms_and_buckets", counted)
    return passes


@pytest.mark.parametrize("rows", [_NORM_CHECKS - 1, ROW_BLOCK + 1])
def test_only_a_build_takes_every_norm_and_bucket(tmp_path, bucket_passes, rows):
    """A cached build takes each row's norm and bucket once, when the cache
    appends its batch, and none while it gathers the rows; a warm build
    takes none; a load recomputes those of ``_NORM_CHECKS`` rows at most and
    reads the rest from the stored files."""
    client, batch = OfflineEncoder(dim=16), 50
    entity_sets = entity_sets_of({f"p{i:06d}": [f"e{i}"] for i in range(rows)})
    texts = [f"text of {pid}" for pid in entity_sets.passage_ids]

    def cached_build():
        with closing(EmbeddingCache(tmp_path / "cache", client.encoder_id, 16)) as cache:
            entity_rows = embed_batch(entity_sets.catalog, client, cache, batch, layout=EntityRows)
            passage_rows = embed_batch(texts, client, cache, batch, layout=PassageRows)
        return build_index(entity_sets, entity_rows, passage_rows)

    index = cached_build()
    appended = [min(batch, rows - start) for start in range(0, rows, batch)]
    assert bucket_passes == appended + appended  # the names' batches, then the passages'
    bucket_passes.clear()
    warm = cached_build()
    assert bucket_passes == []
    save_index(index, tmp_path / "index")
    loaded = load_index(tmp_path / "index")
    assert bucket_passes == [min(rows, _NORM_CHECKS)]
    for name in ("norms", "buckets", "rows", "starts", "cos_r"):
        for rows_of in (warm.entity_rows, loaded.entity_rows):
            _assert_bitwise_equal(getattr(rows_of, name), getattr(index.entity_rows, name))
        assert not getattr(index.entity_rows, name).flags.writeable


def test_a_loaded_index_maps_its_embedding_matrices(tmp_path):
    loaded = load_index(_saved(tmp_path))
    columns, values = loaded.passage_rows.columns, loaded.entity_rows.values
    assert columns.shape == (32, loaded.n_passages) and columns.dtype == np.float32
    assert values.shape == (loaded.n_entities, 32) and values.dtype == np.float32
    assert _mapped(columns) and _mapped(values)


def _mapped(array):
    base = array
    while isinstance(base, np.ndarray):
        base = base.base
    return isinstance(base.obj, mmap.mmap)


def test_a_loaded_index_saves_the_same_bytes(tmp_path):
    index = make_toy_index()
    save_index(index, tmp_path / "a", extra_manifest={"corpus_sha256": "abc"})
    save_index(load_index(tmp_path / "a"), tmp_path / "b")
    for path in (tmp_path / "a").iterdir():
        assert (tmp_path / "b" / path.name).read_bytes() == path.read_bytes(), path.name
    assert sorted(f.name for f in (tmp_path / "b").iterdir()) == sorted(
        f.name for f in (tmp_path / "a").iterdir()
    )


def test_a_map_outlives_a_save_into_its_directory(tmp_path):
    """Each file is replaced, not rewritten in place: an index loaded before
    the save keeps its values, and no temporary file is left."""
    save_index(_synthetic_index(ROW_BLOCK + 5, 16, seed=1), tmp_path)
    old = load_index(tmp_path)
    before = old.passage_rows.columns.copy()
    save_index(_synthetic_index(ROW_BLOCK + 5, 16, seed=2), tmp_path)
    _assert_bitwise_equal(old.passage_rows.columns, before)
    new = load_index(tmp_path)
    assert new.passage_rows.columns.tobytes() != before.tobytes()
    assert not [f.name for f in tmp_path.iterdir() if f.name.endswith(".tmp")]


def test_a_failed_save_leaves_no_temporary_file(tmp_path, monkeypatch):
    def fail(*args):
        raise OSError("disk full")

    monkeypatch.setattr(index_store.os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        save_index(make_toy_index(), tmp_path)
    assert list(tmp_path.iterdir()) == []


class TestIndexDirectoryLock:
    @staticmethod
    def lock_is_free(lock_path):
        lock = os.open(lock_path, os.O_RDWR)
        try:
            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
            return True
        except BlockingIOError:
            return False
        finally:
            os.close(lock)

    def test_a_save_into_a_held_directory_raises_and_writes_nothing(self, tmp_path):
        directory, lock_path = tmp_path / "index", tmp_path / "index.lock"
        save_index(make_toy_index(), directory)
        before = {f.name: f.read_bytes() for f in directory.iterdir()}
        other = make_toy_index({"P1": ["alpha"], "P2": ["beta"]})
        held = os.open(lock_path, os.O_RDWR)
        try:
            fcntl.flock(held, fcntl.LOCK_EX | fcntl.LOCK_NB)
            message = f"^index directory {directory} is in use by another build"
            with pytest.raises(ContractError, match=message):
                save_index(other, directory)
        finally:
            os.close(held)
        assert {f.name: f.read_bytes() for f in directory.iterdir()} == before
        save_index(other, directory)
        assert load_index(directory).entity_names == ["alpha", "beta"]
        assert sorted(f.name for f in tmp_path.iterdir()) == ["index", "index.lock"]
        assert self.lock_is_free(lock_path)

    def test_a_failed_save_releases_the_lock(self, tmp_path, monkeypatch):
        def fail(*args):
            raise OSError("disk full")

        monkeypatch.setattr(index_store.os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            save_index(make_toy_index(), tmp_path / "index")
        assert self.lock_is_free(tmp_path / "index.lock")


def _exits_2_naming(directory, capsys, message):
    assert main(["stats", "--index-dir", str(directory), "--offline"]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("name", ["passage_norms.bin", "entity_norms.bin"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -1.0])
def test_a_norm_that_is_not_finite_and_nonnegative_detected(tmp_path, capsys, name, value):
    path = _saved(tmp_path) / name
    norms = np.fromfile(path)
    norms[1] = value
    norms.tofile(path)
    _exits_2_naming(tmp_path, capsys, f"{name} holds a non-finite or negative norm")


def _next_up(norm):
    return np.nextafter(norm, np.inf)


def _other_sign(bucket):
    return bucket ^ 1


@pytest.mark.parametrize(
    "name, dtype, change, message",
    [
        ("passage_norms.bin", "<f8", _next_up, "the norms of passage_columns.bin"),
        ("entity_norms.bin", "<f8", _next_up, "the norms of entity_embeddings.bin"),
        ("entity_buckets.bin", "<u2", _other_sign, "the buckets of entity_embeddings.bin"),
    ],
)
def test_a_changed_spot_checked_row_exits_2(tmp_path, capsys, name, dtype, change, message):
    save_index(_synthetic_index(ROW_BLOCK + 3, 8), tmp_path)
    path = tmp_path / name
    stored = np.fromfile(path, dtype=dtype)
    # A spot-checked row that _synthetic_index did not zero, so its bucket
    # is an axis's.
    row = next(row for row in spot_checked_rows(stored.size) if row % 17)
    stored[row] = change(stored[row])
    stored.tofile(path)
    _exits_2_naming(tmp_path, capsys, f"{name} does not hold {message}")


def test_a_bucket_above_twice_the_dim_exits_2(tmp_path, capsys):
    """Every bucket is range-checked, not only the spot-checked ones."""
    save_index(_synthetic_index(ROW_BLOCK + 3, 8), tmp_path)
    path = tmp_path / "entity_buckets.bin"
    buckets = np.fromfile(path, dtype="<u2")
    assert buckets.max() == 16  # the zero rows' bucket, 2 dim
    row = np.setdiff1d(np.arange(buckets.size), spot_checked_rows(buckets.size))[-1]
    buckets[row] = 17
    buckets.tofile(path)
    _exits_2_naming(tmp_path, capsys, "entity_buckets.bin holds a bucket above 2 embedding_dim = 16")


@pytest.mark.parametrize("name", ["entity_embeddings.bin", "passage_columns.bin"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("position", [0, -1])
def test_a_non_finite_first_or_last_value_exits_2(tmp_path, capsys, name, value, position):
    save_index(_synthetic_index(ROW_BLOCK + 3, 8), tmp_path)
    path = tmp_path / name
    values = np.fromfile(path, dtype="<f4")
    values[position] = value
    values.tofile(path)
    _exits_2_naming(tmp_path, capsys, f"{name} holds a non-finite value")


@pytest.mark.parametrize("position", [None, 0, 4, 5, 159])
def test_the_finiteness_sweep_reads_every_chunk(tmp_path, monkeypatch, position):
    """The toy's 5 x 32 entity values in chunks of 5: a NaN at either end of
    a chunk, or at the end of the map, is found."""
    monkeypatch.setattr(index_store, "_FINITE_CHUNK", 5)
    path = _saved(tmp_path) / "entity_embeddings.bin"
    values = np.fromfile(path, dtype="<f4")
    assert values.size == 160
    if position is not None:
        values[position] = np.nan
        values.tofile(path)
        with pytest.raises(IndexIntegrityError, match="entity_embeddings.bin holds a non-finite"):
            load_index(tmp_path)
    else:
        assert load_index(tmp_path).entity_rows.values.tobytes() == values.tobytes()


@pytest.mark.parametrize("name", ["passage_norms.bin", "pas_indices.bin"])
def test_short_read_detected(tmp_path, monkeypatch, name):
    """A file that ends before the size it reported when checked."""
    directory = _saved(tmp_path)
    real_open = Path.open

    def open_short(self, mode="r", *args, **kwargs):
        if self.name != name:
            return real_open(self, mode, *args, **kwargs)
        with real_open(self, "rb") as fh:
            return io.BytesIO(fh.read()[:-4])

    monkeypatch.setattr(Path, "open", open_short)
    with pytest.raises(IndexIntegrityError, match=f"short read from {name}"):
        load_index(directory)


@pytest.mark.parametrize("name", ["entity_embeddings.bin", "passage_columns.bin"])
def test_short_map_detected(tmp_path, monkeypatch, name):
    """A mapped file that ends before the size it reported when checked."""
    directory = _saved(tmp_path)
    size = (directory / name).stat().st_size
    real_mmap = mmap.mmap

    def map_short(fileno, length, **kwargs):
        buffer = real_mmap(fileno, length, **kwargs)
        return buffer[:-4] if len(buffer) == size else buffer

    monkeypatch.setattr(mmap, "mmap", map_short)
    with pytest.raises(IndexIntegrityError, match=f"short read from {name}"):
        load_index(directory)


def test_load_neither_copies_nor_holds_a_matrix(tmp_path):
    """Both embedding matrices are mapped, so the load holds far less than
    one in traced memory; on top of what it holds, its peak is one float64
    block and a few O(n) temporaries (the entity buckets' sort), far below
    any whole-matrix temporary, even a bool one."""
    n_rows, dim = 20_000, 256
    save_index(_synthetic_index(n_rows, dim), tmp_path)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loaded = load_index(tmp_path)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded.passage_rows.columns.nbytes == n_rows * dim * 4
    assert loaded.entity_rows.values.nbytes == n_rows * dim * 4
    assert retained - before < n_rows * dim * 2
    assert peak - retained <= ROW_BLOCK * dim * 8 + 64 * n_rows < n_rows * dim
