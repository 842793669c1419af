import gc
import io
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hyperhop import embeddings
from hyperhop.cli import main
from hyperhop.embeddings import (
    ROW_BLOCK,
    EntityRows,
    OfflineEncoder,
    PassageRows,
    embed_batch,
    row_norms_and_largest,
)
from hyperhop.entities import build_catalog
from hyperhop.errors import ContractError, IndexIntegrityError
from hyperhop.index_store import build_index, load_index, save_index

from conftest import TOY_SETS, entity_sets_of
from reference import row_norms


def make_toy_index():
    pids = sorted(TOY_SETS)
    entity_sets = entity_sets_of(TOY_SETS)
    catalog = build_catalog(entity_sets)
    encoder = OfflineEncoder(dim=32)
    entity_embeddings = embed_batch(catalog.to_list(), encoder)
    passage_embeddings = embed_batch([f"t {pid}" for pid in pids], encoder)
    return build_index(entity_sets, catalog, pids, entity_embeddings, passage_embeddings)


def test_round_trip_preserves_everything(tmp_path):
    index = make_toy_index()
    save_index(index, tmp_path, extra_manifest={"corpus_sha256": "abc"})
    loaded = load_index(tmp_path)

    assert loaded.passage_ids == index.passage_ids
    assert loaded.catalog.to_list() == index.catalog.to_list()
    assert loaded.incidence.nnz == index.incidence.nnz
    np.testing.assert_array_equal(loaded.incidence.pas_offsets, index.incidence.pas_offsets)
    np.testing.assert_array_equal(loaded.incidence.pas_indices, index.incidence.pas_indices)
    np.testing.assert_array_equal(loaded.incidence.pas_columns, index.incidence.pas_columns)
    np.testing.assert_array_equal(loaded.degrees.node_degrees, index.degrees.node_degrees)
    np.testing.assert_array_equal(loaded.degrees.edge_degrees, index.degrees.edge_degrees)
    _assert_bitwise_equal(loaded.entity_embeddings, index.entity_embeddings)
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


@pytest.mark.parametrize("name", ["entity_embeddings.bin", "passage_embeddings.bin"])
def test_missing_embedding_file_detected_at_load(tmp_path, name):
    (_saved(tmp_path) / name).unlink()
    with pytest.raises(IndexIntegrityError, match=f"missing {name}"):
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


def test_derived_manifest_keys_win_over_extra_manifest(tmp_path):
    index = make_toy_index()
    index.manifest = {"corpus_sha256": "abc", "nnz": 1}
    written = save_index(index, tmp_path, extra_manifest={"nnz": 99, "embedding_dim": 7})
    assert (written["nnz"], written["embedding_dim"]) == (7, 32)
    assert written["corpus_sha256"] == "abc"
    assert json.loads((tmp_path / "manifest.json").read_text()) == written
    assert load_index(tmp_path).manifest == written


def test_misaligned_sets_rejected():
    entity_sets = entity_sets_of({"p1": ["a"]})
    catalog = build_catalog(entity_sets)
    values = np.ones((1, 4), dtype=np.float32)
    with pytest.raises(IndexIntegrityError):
        build_index(entity_sets, catalog, ["p1", "p2"], values, values)


@pytest.mark.parametrize(
    "entity_shape, passage_shape",
    [
        ((3, 32), (3, 32)),  # entity matrix two rows short
        ((8, 32), (3, 32)),  # three extra entity rows
        ((5,), (3, 32)),  # a 1-D entity matrix
        ((5, 32), (2, 32)),  # passage matrix one row short
        ((5, 32), (3, 16)),  # the two matrices differ in dimension
    ],
)
def test_misaligned_embeddings_rejected(entity_shape, passage_shape):
    pids = sorted(TOY_SETS)  # 3 passages over 5 entities
    entity_sets = entity_sets_of(TOY_SETS)
    catalog = build_catalog(entity_sets)
    entities = np.ones(entity_shape, dtype=np.float32)
    passages = np.ones(passage_shape, dtype=np.float32)
    with pytest.raises(IndexIntegrityError, match="embedding"):
        build_index(entity_sets, catalog, pids, entities, passages)


def _saved(tmp_path):
    save_index(make_toy_index(), tmp_path)
    return tmp_path


def test_only_the_passage_major_incidence_is_stored(tmp_path):
    assert sorted(f.name for f in _saved(tmp_path).iterdir()) == [
        "entities.json",
        "entity_embeddings.bin",
        "manifest.json",
        "pas_indices.bin",
        "pas_offsets.bin",
        "passage_embeddings.bin",
        "passages.json",
    ]
    assert json.loads((tmp_path / "manifest.json").read_text())["format_version"] == 2


def test_version_1_index_rejected(tmp_path):
    directory = _saved(tmp_path)
    manifest = json.loads((directory / "manifest.json").read_text())
    manifest["format_version"] = 1
    (directory / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(IndexIntegrityError, match="version 1.*rebuild"):
        load_index(directory)


@pytest.mark.parametrize(
    "name, resize",
    [
        ("passage_embeddings.bin", lambda raw: raw[:-4]),  # truncated
        ("entity_embeddings.bin", lambda raw: raw + bytes(4)),  # oversized
    ],
)
def test_wrong_size_embeddings_detected(tmp_path, name, resize):
    path = _saved(tmp_path) / name
    path.write_bytes(resize(path.read_bytes()))
    with pytest.raises(IndexIntegrityError, match=name):
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
        ("passage_embeddings.bin", np.nan),
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
    pids = entity_sets.passage_ids
    return build_index(entity_sets, build_catalog(entity_sets), pids, *matrices)


def _stored(directory, name, dim):
    return np.fromfile(directory / name, dtype="<f4").reshape(-1, dim)


@pytest.mark.parametrize("rows", [0, 1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1])
def test_loaded_rows_are_bitwise_those_of_the_stored_matrices(tmp_path, rows):
    save_index(_synthetic_index(rows, 16), tmp_path)
    loaded = load_index(tmp_path)
    entities = _stored(tmp_path, "entity_embeddings.bin", 16)
    passages = _stored(tmp_path, "passage_embeddings.bin", 16)
    _assert_bitwise_equal(loaded.entity_embeddings, entities)
    _assert_bitwise_equal(loaded.entity_rows.norms, row_norms(entities))
    _assert_bitwise_equal(loaded.passage_rows.columns, passages.T.astype(np.float64))
    _assert_bitwise_equal(loaded.passage_rows.norms, row_norms(passages))
    entity_rows = EntityRows.of(entities)
    for name in ("values", "norms", "rows", "starts", "cos_r"):
        _assert_bitwise_equal(getattr(loaded.entity_rows, name), getattr(entity_rows, name))
    assert loaded.entity_rows.values is loaded.entity_embeddings
    assert not loaded.entity_embeddings.flags.writeable
    assert not loaded.entity_rows.norms.flags.writeable
    assert not loaded.passage_rows.columns.flags.writeable
    assert not loaded.passage_rows.norms.flags.writeable


def test_a_built_index_takes_its_norms_and_buckets_from_one_pass(tmp_path, monkeypatch):
    index = _synthetic_index(ROW_BLOCK + 1, 16)
    save_index(index, tmp_path)
    loaded = load_index(tmp_path)
    passes = []

    def counted(block):
        passes.append(len(block))
        return row_norms_and_largest(block)

    monkeypatch.setattr(embeddings, "row_norms_and_largest", counted)
    built, read = index.entity_rows, loaded.entity_rows
    for name in ("norms", "rows", "starts", "cos_r"):
        _assert_bitwise_equal(getattr(built, name), getattr(read, name))
    assert index.entity_rows is built
    assert passes == [ROW_BLOCK, 1]  # each row once, a block at a time
    assert not built.norms.flags.writeable


def test_loaded_index_keeps_no_float32_passage_matrix(tmp_path):
    loaded = load_index(_saved(tmp_path))
    assert loaded.passage_embeddings is None
    assert loaded.passage_rows.columns.shape == (32, loaded.n_passages)


def test_a_loaded_index_cannot_be_saved_again(tmp_path):
    loaded = load_index(_saved(tmp_path / "a"))
    with pytest.raises(ContractError, match="float32 passage matrix"):
        save_index(loaded, tmp_path / "b")
    assert not (tmp_path / "b").exists()


@pytest.mark.parametrize("name", ["entity_embeddings.bin", "passage_embeddings.bin"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_last_row_of_a_partial_block_exits_2(tmp_path, capsys, name, value):
    save_index(_synthetic_index(ROW_BLOCK + 3, 8), tmp_path)
    path = tmp_path / name
    values = np.fromfile(path, dtype="<f4")
    values[-1] = value
    values.tofile(path)
    assert main(["stats", "--index-dir", str(tmp_path), "--offline"]) == 2
    assert f"{name} holds a non-finite value" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["entity_embeddings.bin", "passage_embeddings.bin"])
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


def test_load_makes_no_temporary_beyond_one_block(tmp_path):
    """Everything traced after the load is held by the index; on top of
    that, the load's peak holds about one block's temporaries."""
    dim = 64
    save_index(_synthetic_index(20_000, dim), tmp_path)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loaded = load_index(tmp_path)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded.passage_rows.columns.nbytes == 20_000 * dim * 8
    assert peak - before <= (retained - before) + ROW_BLOCK * dim * 4 + 2**20
