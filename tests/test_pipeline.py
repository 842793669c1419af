import hashlib
import json
import threading
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from hyperhop import corpus as corpus_module
from hyperhop import embeddings, pipeline
from hyperhop.config import AppConfig
from hyperhop.corpus import passage_sha256
from hyperhop.embeddings import OfflineEncoder, norms_and_buckets, text_key
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
    assert passage_embedding_text("T", "body") == "T\nbody"
    assert passage_embedding_text("", "body") == "body"


def test_built_embeddings_align_with_entity_names_and_passages(toy_built):
    index, passages, manifest = toy_built
    encoder = OfflineEncoder(dim=manifest["embedding_dim"])
    for i, entity in enumerate(index.entity_names):
        expected = encoder.encode_batch([entity])[0]
        np.testing.assert_array_equal(index.entity_rows.values[i], expected)
    for j, passage in enumerate(passages):
        expected = encoder.encode_batch([passage_embedding_text(passage.title, passage.text)])[0]
        np.testing.assert_array_equal(index.passage_rows.columns[:, j], expected)


def test_manifest_records_build_fingerprint(toy_built, data_dir):
    _, _, manifest = toy_built
    corpus_bytes = (data_dir / "toy_corpus.jsonl").read_bytes()
    assert manifest["corpus_sha256"] == hashlib.sha256(corpus_bytes).hexdigest()
    assert manifest["encoder_id"] == "offline-hash-bow-d256"
    assert manifest["n_entities"] == 5 and manifest["n_passages"] == 3


class RewritesTheCorpus(OfflineEntityExtractor):
    """Edits the corpus file while the build extracts, as a slow remote build may see."""

    def __init__(self, path):
        self.path = path

    def extract(self, title, text):
        self.path.write_text(self.path.read_text().replace("Berlin", "Bonn"), encoding="utf-8")
        return super().extract(title, text)


def test_manifest_names_the_corpus_bytes_the_build_parsed(tmp_path, data_dir, monkeypatch):
    corpus = tmp_path / "corpus.jsonl"
    original = (data_dir / "toy_corpus.jsonl").read_bytes()
    corpus.write_bytes(original)
    monkeypatch.setattr(pipeline, "make_extractor", lambda config: RewritesTheCorpus(corpus))
    config = AppConfig(
        corpus=str(corpus),
        index_dir=str(tmp_path / "index"),
        cache_dir=str(tmp_path / "cache"),
        offline=True,
    )
    _, manifest = build_index_from_corpus(config)
    assert corpus.read_bytes() != original
    stored = json.loads((tmp_path / "index" / "manifest.json").read_text())
    assert manifest["corpus_sha256"] == stored["corpus_sha256"]
    assert stored["corpus_sha256"] == hashlib.sha256(original).hexdigest()


def test_only_an_extractor_miss_makes_a_passage(tmp_path, data_dir, monkeypatch):
    """A build reads the corpus columns: a cold build makes one Passage per
    extraction, a warm one none."""
    made = []

    class CountedPassage(corpus_module.Passage):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self.id)

    monkeypatch.setattr(corpus_module, "Passage", CountedPassage)
    config = AppConfig(
        corpus=str(data_dir / "toy_corpus.jsonl"),
        index_dir=str(tmp_path / "index"),
        cache_dir=str(tmp_path / "cache"),
        offline=True,
    )
    build_index_from_corpus(config)
    assert sorted(made) == ["P1", "P2", "P3"]
    made.clear()
    build_index_from_corpus(config)
    assert made == []


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
        results.append((manifest, index.entity_rows.values.tobytes()))
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
    entities = index.entity_names
    assert "strasbourg" in entities and "brussels" not in entities


def test_edited_corpus_warm_rebuild_writes_the_bytes_of_a_cold_build(
    tmp_path, data_dir, monkeypatch, no_network
):
    original = (data_dir / "toy_corpus.jsonl").read_text(encoding="utf-8")
    edited = original.replace("born in Germany", "born in Ulm, Germany")
    assert edited != original
    corpus = tmp_path / "corpus.jsonl"

    def build(text, root, cache="cache"):
        corpus.write_text(text, encoding="utf-8")
        config = AppConfig(
            corpus=str(corpus),
            index_dir=str(tmp_path / root),
            cache_dir=str(tmp_path / cache),
            offline=True,
        )
        build_index_from_corpus(config)
        return _index_files(tmp_path / root)

    first = build(original, "index")
    cold = build(edited, "cold", cache="fresh")
    calls = []

    class RecordingExtractor(OfflineEntityExtractor):
        def extract(self, title, text):
            calls.append(text)
            return super().extract(title, text)

    monkeypatch.setattr(pipeline, "make_extractor", lambda config: RecordingExtractor())
    assert build(edited, "index") == cold
    assert calls == ["Albert Einstein was born in Ulm, Germany."]
    assert build(original, "index") == first  # the old entry still serves the old text
    assert len(calls) == 1


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


@pytest.mark.parametrize("max_workers", [1, 4])
def test_repeated_content_is_extracted_once(tmp_path, monkeypatch, no_network, max_workers):
    """Two passages of one title and text share an extraction even when the
    extractor answers each call differently, so a warm rebuild, whose cache
    holds one entry per content, writes the cold build's index bytes."""
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(
        "".join(
            json.dumps({"id": pid, "title": "T", "text": text}) + "\n"
            for pid, text in [("p1", "same"), ("p2", "other"), ("p3", "same")]
        )
    )

    answers, lock = [], threading.Lock()

    class NewNameEachCall:
        def extract(self, title, text):
            with lock:
                answers.append(f"name{len(answers) + 1}")
                return answers[-1:]

    monkeypatch.setattr(pipeline, "make_extractor", lambda config: NewNameEachCall())
    config = AppConfig(
        corpus=str(corpus),
        index_dir=str(tmp_path / "index"),
        cache_dir=str(tmp_path / "cache"),
        offline=True,
        max_workers=max_workers,
    )
    cold, _ = build_index_from_corpus(config)
    cold_files = _index_files(tmp_path / "index")
    warm, _ = build_index_from_corpus(config)
    assert answers == ["name1", "name2"]
    assert sorted(cold.entity_names) == sorted(warm.entity_names) == answers
    assert _index_files(tmp_path / "index") == cold_files


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


def test_a_build_keys_each_passage_once_and_makes_no_embedded_text_for_a_hit(
    tmp_path, data_dir, monkeypatch, no_network
):
    """One ``passage_sha256`` per passage serves both caches, an entity name
    is keyed as the title-less passage of it when the extraction cache
    stores it, and a warm build keys no name and reads no passage's
    embedded text."""
    keyed, texts = Counter(), []

    def counting_sha256(title, text):
        keyed[title, text] += 1
        return passage_sha256(title, text)

    def counting_text(title, text):
        texts.append(title)
        return passage_embedding_text(title, text)

    for module in (corpus_module, embeddings, pipeline):
        monkeypatch.setattr(module, "passage_sha256", counting_sha256)
    monkeypatch.setattr(pipeline, "passage_embedding_text", counting_text)
    config = AppConfig(
        corpus=str(data_dir / "toy_corpus.jsonl"),
        index_dir=str(tmp_path / "index"),
        cache_dir=str(tmp_path / "cache"),
        offline=True,
    )
    corpus = corpus_module.load_corpus(config.corpus)
    for build in ("cold", "warm"):
        keyed.clear()
        texts.clear()
        index, _ = build_index_from_corpus(config)
        passages = Counter(zip(corpus.titles, corpus.texts))
        names = Counter(("", name) for name in index.entity_names if build == "cold")
        assert keyed == passages + names, build
        assert sorted(texts) == (sorted(corpus.titles) if build == "cold" else []), build


def test_an_entity_name_never_shares_a_passage_key(tmp_path, monkeypatch, no_network):
    """The passage ("hello", " world") hashes "5:hello world"; a raw sha256
    of the entity name "5:hello world" would be the same key."""
    assert hashlib.sha256(b"5:hello world").digest() == passage_sha256("hello", " world")
    assert embeddings.text_key("5:hello world") != passage_sha256("hello", " world")
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(json.dumps({"id": "p1", "title": "hello", "text": " world"}) + "\n")

    class NamesTheKey(OfflineEntityExtractor):
        def extract(self, title, text):
            return ["5:hello world"]

    monkeypatch.setattr(pipeline, "make_extractor", lambda config: NamesTheKey())
    config = AppConfig(
        corpus=str(corpus),
        index_dir=str(tmp_path / "index"),
        cache_dir=str(tmp_path / "cache"),
        offline=True,
    )
    encoder = OfflineEncoder(dim=config.offline_dim)
    name_row, passage_row = encoder.encode_batch(["5:hello world", "hello\n world"])
    assert name_row.tobytes() != passage_row.tobytes()
    for _ in ("cold", "warm"):
        index, _ = build_index_from_corpus(config)
        assert index.entity_names == ["5:hello world"]
        assert index.entity_rows.values[0].tobytes() == name_row.tobytes()
        assert index.passage_rows.columns[:, 0].tobytes() == passage_row.tobytes()


def _names_corpus(path):
    """300 passages that name 300 + 7 + 11 entities, as the CI's larger corpus does."""
    lines = (
        json.dumps({"id": f"B{i:03d}", "title": "", "text": f"Alda{i} Berg met Corin{i % 7} Dahl"
                    f" in Essen{i % 11}."})
        for i in range(300)
    )
    path.write_text("".join(line + "\n" for line in lines))
    return path


def _build_into(tmp_path, corpus, root, max_workers=1):
    """Build ``corpus`` into ``root``'s index and cache; returns the index files."""
    config = AppConfig(
        corpus=str(corpus),
        index_dir=str(tmp_path / root / "index"),
        cache_dir=str(tmp_path / root / "cache"),
        offline=True,
        max_workers=max_workers,
    )
    build_index_from_corpus(config)
    return _index_files(tmp_path / root / "index")


def _records(cache_dir, dim=256):
    layout = [("key", "V32"), ("row", "<f4", (dim,)), ("norm", "<f8"), ("bucket", "<u2")]
    return np.fromfile(cache_dir / "embeddings" / "records.bin", dtype=layout)


def test_a_cache_without_keys_bin_builds_the_same_index_and_writes_every_key(
    tmp_path, no_network
):
    corpus = _names_corpus(tmp_path / "corpus.jsonl")
    cold = _build_into(tmp_path, corpus, "b")
    extraction = tmp_path / "b" / "cache" / "extraction"
    keys = extraction / "keys.bin"
    written = keys.read_bytes()
    names = (extraction / "names.txt").read_text(encoding="utf-8").split("\n")[:-1]
    assert written == b"".join(map(text_key, names)) and len(names) == 318
    records = _records(tmp_path / "b" / "cache").tobytes()
    keys.unlink()
    assert _build_into(tmp_path, corpus, "b") == cold
    assert keys.read_bytes() == written
    assert _records(tmp_path / "b" / "cache").tobytes() == records  # every row a hit
    keys.write_bytes(written[: 32 * 100 + 7])  # a torn keys.bin
    assert _build_into(tmp_path, corpus, "b") == cold
    assert keys.read_bytes() == written


def test_a_flipped_byte_in_keys_bin_makes_its_name_one_miss(tmp_path, monkeypatch, no_network):
    corpus = _names_corpus(tmp_path / "corpus.jsonl")
    cold = _build_into(tmp_path, corpus, "b")
    cache = tmp_path / "b" / "cache"
    names = (cache / "extraction" / "names.txt").read_text(encoding="utf-8").split("\n")[:-1]
    keys = bytearray((cache / "extraction" / "keys.bin").read_bytes())
    keys[32 * 5 + 31] ^= 0x40
    (cache / "extraction" / "keys.bin").write_bytes(bytes(keys))
    before = _records(cache)
    encoded = []

    class RecordingEncoder(OfflineEncoder):
        def encode_batch(self, texts):
            encoded.extend(texts)
            return super().encode_batch(texts)

    monkeypatch.setattr(pipeline, "make_encoder", lambda config: RecordingEncoder(256))
    assert _build_into(tmp_path, corpus, "b") == cold
    assert encoded == [names[5]]
    after = _records(cache)
    assert after[:-1].tobytes() == before.tobytes()
    assert after[-1]["key"].tobytes() == bytes(keys[32 * 5 : 32 * 6])
    assert after[-1]["row"].tobytes() == OfflineEncoder(256).encode_batch([names[5]]).tobytes()


def test_every_record_stores_the_norm_and_bucket_of_its_row(tmp_path, no_network):
    corpus = _names_corpus(tmp_path / "corpus.jsonl")
    built = {workers: _build_into(tmp_path, corpus, f"w{workers}", workers) for workers in (1, 4)}
    assert built[1] == built[4]
    for workers in (1, 4):
        records = _records(tmp_path / f"w{workers}" / "cache")
        assert len(records) == 318 + 300
        norms, buckets = norms_and_buckets(records["row"])
        assert records["norm"].tobytes() == norms.tobytes()
        assert records["bucket"].tobytes() == buckets.tobytes()
    for name in ("extraction/keys.bin", "embeddings/records.bin"):
        paths = [tmp_path / f"w{workers}" / "cache" / name for workers in (1, 4)]
        assert paths[0].read_bytes() == paths[1].read_bytes()
