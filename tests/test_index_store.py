import json

import numpy as np
import pytest

from hyperhop.embeddings import OfflineEncoder, embed_batch
from hyperhop.entities import EntitySet, build_catalog
from hyperhop.errors import IndexIntegrityError
from hyperhop.index_store import build_index, load_index, save_index

from conftest import TOY_SETS


def make_toy_index(with_embeddings=True):
    pids = sorted(TOY_SETS)
    entity_sets = [EntitySet(pid, tuple(TOY_SETS[pid])) for pid in pids]
    catalog = build_catalog(entity_sets)
    entity_embeddings = passage_embeddings = None
    if with_embeddings:
        encoder = OfflineEncoder(dim=32)
        entity_embeddings = embed_batch(catalog.to_list(), encoder).values
        passage_embeddings = embed_batch([f"t {pid}" for pid in pids], encoder).values
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
    np.testing.assert_array_equal(loaded.entity_embeddings, index.entity_embeddings)
    np.testing.assert_array_equal(loaded.passage_embeddings, index.passage_embeddings)
    assert loaded.manifest["corpus_sha256"] == "abc"


def test_binary_files_are_little_endian_int32(tmp_path):
    index = make_toy_index(with_embeddings=False)
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
    index = make_toy_index(with_embeddings=False)
    save_index(index, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["nnz"] = 99
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(IndexIntegrityError):
        load_index(tmp_path)


def test_missing_binary_detected(tmp_path):
    index = make_toy_index(with_embeddings=False)
    save_index(index, tmp_path)
    (tmp_path / "pas_indices.bin").unlink()
    with pytest.raises(IndexIntegrityError, match="pas_indices"):
        load_index(tmp_path)


@pytest.mark.parametrize("name", ["entity_embeddings.bin", "passage_embeddings.bin"])
def test_missing_embedding_file_detected_at_load(tmp_path, name):
    (_saved(tmp_path) / name).unlink()
    with pytest.raises(IndexIntegrityError, match=f"missing {name}"):
        load_index(tmp_path)


def test_index_without_embedding_dim_loads(tmp_path):
    save_index(make_toy_index(with_embeddings=False), tmp_path)
    assert "embedding_dim" not in json.loads((tmp_path / "manifest.json").read_text())
    loaded = load_index(tmp_path)
    assert loaded.entity_embeddings is None and loaded.passage_embeddings is None


def test_misaligned_sets_rejected():
    entity_sets = [EntitySet("p1", ("a",))]
    catalog = build_catalog(entity_sets)
    with pytest.raises(IndexIntegrityError):
        build_index(entity_sets, catalog, ["p1", "p2"])


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
    entity_sets = [EntitySet(pid, tuple(TOY_SETS[pid])) for pid in pids]
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
