import json
from dataclasses import replace

import numpy as np
import pytest

from hyperhop import pipeline
from hyperhop.config import AppConfig
from hyperhop.corpus import Passage, corpus_digest
from hyperhop.embeddings import OfflineEncoder
from hyperhop.entities import OfflineEntityExtractor, _is_normalized, normalize_entity
from hyperhop.errors import ContractError
from hyperhop.pipeline import (
    build_index_from_corpus,
    extractor_id,
    make_chat,
    make_encoder,
    make_extractor,
    passage_embedding_text,
)


def test_passage_embedding_text_uses_title_when_present():
    with_title = Passage(id="p", title="T", text="body")
    without = Passage(id="p", title="", text="body")
    assert passage_embedding_text(with_title) == "T\nbody"
    assert passage_embedding_text(without) == "body"


def test_built_embeddings_align_with_catalog_and_passages(toy_built):
    index, passages, manifest = toy_built
    encoder = OfflineEncoder(dim=manifest["embedding_dim"])
    for i, entity in enumerate(index.catalog.to_list()):
        expected = encoder.encode_batch([entity])[0]
        np.testing.assert_array_equal(index.entity_embeddings[i], expected)
    for j, passage in enumerate(passages):
        expected = encoder.encode_batch([passage_embedding_text(passage)])[0]
        np.testing.assert_array_equal(index.passage_embeddings[j], expected)


def test_manifest_records_build_fingerprint(toy_built, data_dir):
    _, _, manifest = toy_built
    assert manifest["corpus_sha256"] == corpus_digest(data_dir / "toy_corpus.jsonl")
    assert manifest["encoder_id"] == "offline-hash-bow-d256"
    assert manifest["n_entities"] == 5 and manifest["n_passages"] == 3


def test_offline_clients_require_no_settings(no_network):
    config = AppConfig(offline=True)
    make_encoder(config)
    make_extractor(config)
    make_chat(config)


def test_remote_clients_demand_endpoint_and_models():
    config = AppConfig(offline=False)
    with pytest.raises(ContractError, match="api_base"):
        make_encoder(config)
    config.api_base = "http://x.local/v1"
    with pytest.raises(ContractError, match="embed_model"):
        make_encoder(config)
    with pytest.raises(ContractError, match="chat_model"):
        make_extractor(config)
    with pytest.raises(ContractError, match="chat_model"):
        make_chat(config)


def test_rebuild_with_warm_caches_is_bitwise_identical(tmp_path, data_dir, no_network):
    results = []
    config = AppConfig(
        corpus=str(data_dir / "toy_corpus.jsonl"),
        index_dir=str(tmp_path / "index"),
        cache_dir=str(tmp_path / "cache"),
        offline=True,
    )
    for _ in range(2):
        index, manifest = build_index_from_corpus(config)
        results.append((manifest, index.entity_embeddings.tobytes()))
    assert results[0] == results[1]


def _index_files(directory):
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


def test_warm_rebuild_extracts_only_the_edited_passage(tmp_path, data_dir, monkeypatch, no_network):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes((data_dir / "toy_corpus.jsonl").read_bytes())
    config = AppConfig(
        corpus=str(corpus),
        index_dir=str(tmp_path / "index"),
        cache_dir=str(tmp_path / "cache"),
        offline=True,
    )
    build_index_from_corpus(config)
    first = _index_files(tmp_path / "index")

    titles = []

    class RecordingExtractor(OfflineEntityExtractor):
        def extract(self, title, text):
            titles.append(title)
            return super().extract(title, text)

    monkeypatch.setattr(pipeline, "make_extractor", lambda config: RecordingExtractor())
    build_index_from_corpus(config)
    assert titles == []
    assert _index_files(tmp_path / "index") == first

    corpus.write_text(corpus.read_text().replace("Brussels", "Strasbourg"))
    index, _ = build_index_from_corpus(config)
    assert titles == ["European Union"]  # the title of P3, the passage edited
    entities = index.catalog.to_list()
    assert "strasbourg" in entities and "brussels" not in entities


def test_warm_rebuild_normalizes_each_distinct_name_once(tmp_path, monkeypatch, no_network):
    names = ["Berlin", "Paris", "Rome", "Vienna", "Madrid"]
    corpus = tmp_path / "corpus.jsonl"
    with corpus.open("w", encoding="utf-8") as fh:
        for i in range(40):
            picked = [names[(i + k) % len(names)] for k in range(3)]
            text = f"{picked[0]} met {picked[1]} and {picked[2]}."
            fh.write(json.dumps({"id": f"p{i:02d}", "title": "", "text": text}) + "\n")
    config = AppConfig(
        corpus=str(corpus),
        index_dir=str(tmp_path / "index"),
        cache_dir=str(tmp_path / "cache"),
        offline=True,
    )
    build_index_from_corpus(config)
    first = _index_files(tmp_path / "index")

    normalized = []

    def counting_normalize(raw):
        normalized.append(raw)
        return normalize_entity(raw)

    _is_normalized.cache_clear()  # earlier tests may have memoized these names
    monkeypatch.setattr("hyperhop.entities.normalize_entity", counting_normalize)
    build_index_from_corpus(config)
    assert _index_files(tmp_path / "index") == first
    assert sorted(normalized) == sorted(name.lower() for name in names)  # not once per mention


def test_extractor_id_follows_the_model_and_the_prompt(tmp_path):
    remote = AppConfig(offline=False, api_base="http://x.local/v1", chat_model="m1")
    prompt = tmp_path / "prompt.txt"
    prompt.write_text("Entities of {title}: {text}", encoding="utf-8")
    ids = [
        extractor_id(AppConfig(offline=True)),
        extractor_id(remote),
        extractor_id(replace(remote, chat_model="m2")),
        extractor_id(replace(remote, extraction_prompt=str(prompt))),
    ]
    assert ids[0] == OfflineEntityExtractor.extractor_id
    assert len(set(ids)) == 4
    assert extractor_id(remote) == ids[1]
