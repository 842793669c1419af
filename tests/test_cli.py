import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys
from contextlib import closing
import time
from pathlib import Path

import numpy as np
import pytest

import hyperhop
from hyperhop import cli
from hyperhop.cli import build_parser, main
from hyperhop.config import SETTING_TYPES
from hyperhop.corpus import load_corpus, passage_sha256
from hyperhop.embeddings import EmbeddingCache, OfflineEncoder
from hyperhop.entities import ExtractionCache, OfflineEntityExtractor
from hyperhop.errors import ContractError
from hyperhop.evaluate import load_qa_dataset, run_eval
from hyperhop.index_store import load_index
from hyperhop.pipeline import passage_embedding_text
from hyperhop.qa import RemoteChatClient
from hyperhop.remote import EndpointConfig
from hyperhop.retrieval import RetrievalConfig, ranked_order, retrieve

from conftest import DATA_DIR

TOY_CORPUS = str(DATA_DIR / "toy_corpus.jsonl")
TOY_QA = str(DATA_DIR / "toy_qa.jsonl")
TOY_QUERY = "What is the capital of the country where Albert Einstein was born?"
INDEX_FILES = [
    "manifest.json",
    "entities.json",
    "passages.json",
    "pas_offsets.bin",
    "pas_indices.bin",
    "entity_embeddings.bin",
    "entity_norms.bin",
    "entity_buckets.bin",
    "passage_columns.bin",
    "passage_norms.bin",
]


@pytest.fixture
def built(tmp_path, no_network):
    """Index the toy corpus offline; every command here runs socket-guarded."""
    index_dir = tmp_path / "index"
    cache_dir = tmp_path / "cache"
    args = [
        "index",
        "--corpus", TOY_CORPUS,
        "--index-dir", str(index_dir),
        "--cache-dir", str(cache_dir),
        "--offline",
    ]
    assert main(args) == 0
    return tmp_path


def common(tmp_path):
    return [
        "--corpus", TOY_CORPUS,
        "--index-dir", str(tmp_path / "index"),
        "--cache-dir", str(tmp_path / "cache"),
        "--offline",
    ]


class TestIndexCommand:
    def test_manifest_reports_toy_counts(self, built, capsys):
        capsys.readouterr()
        manifest = json.loads((built / "index" / "manifest.json").read_text())
        assert manifest["n_passages"] == 3
        assert manifest["n_entities"] == 5
        assert manifest["nnz"] == 7

    def test_rerun_is_idempotent(self, built, capsys):
        manifest_before = (built / "index" / "manifest.json").read_bytes()
        assert main(["index"] + common(built)) == 0
        assert (built / "index" / "manifest.json").read_bytes() == manifest_before

    def test_unreadable_corpus_exits_2(self, tmp_path, capsys, no_network):
        missing = tmp_path / "nope.jsonl"
        code = main(
            ["index", "--corpus", str(missing), "--index-dir", str(tmp_path / "i"), "--offline"]
        )
        assert code == 2
        assert "nope.jsonl" in capsys.readouterr().err


    def test_corpus_that_is_a_directory_exits_2(self, tmp_path, capsys, no_network):
        args = ["--corpus", str(tmp_path), "--index-dir", str(tmp_path / "i"), "--offline"]
        assert main(["index"] + args) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_corpus_that_is_not_utf8_exits_2(self, tmp_path, capsys, no_network):
        corpus = tmp_path / "latin1.jsonl"
        corpus.write_bytes(
            (DATA_DIR / "toy_corpus.jsonl").read_bytes()
            + '{"id": "P4", "title": "", "text": "Köln"}\n'.encode("latin-1")
        )
        code = main(
            ["index", "--corpus", str(corpus), "--index-dir", str(tmp_path / "i"), "--offline"]
        )
        assert code == 2
        assert "line 4: not UTF-8" in capsys.readouterr().err

    # A \ud800 escape decodes to a lone surrogate, which UTF-8 cannot encode:
    # the corpus line is refused before any extraction or embedding runs.
    @pytest.mark.parametrize("key", ["id", "text"])
    def test_corpus_escape_that_utf8_cannot_encode_exits_2(self, tmp_path, capsys, no_network, key):
        line = {"id": "P4", "title": "", "text": "Köln"} | {key: "K\ud800ln"}
        corpus = tmp_path / "surrogate.jsonl"
        corpus.write_bytes(
            (DATA_DIR / "toy_corpus.jsonl").read_bytes() + (json.dumps(line) + "\n").encode()
        )
        code = main(
            ["index", "--corpus", str(corpus), "--index-dir", str(tmp_path / "i"), "--offline"]
        )
        assert code == 2
        assert "line 4: not UTF-8: a lone surrogate" in capsys.readouterr().err
        assert not (tmp_path / "i").exists()

    def test_garbage_embedding_cache_manifest_is_replaced(self, built, capsys):
        index_before = {f.name: f.read_bytes() for f in (built / "index").iterdir()}
        manifest = built / "cache" / "embeddings" / "manifest.json"
        manifest.write_text("{not json")
        assert main(["index"] + common(built)) == 0
        assert {f.name: f.read_bytes() for f in (built / "index").iterdir()} == index_before
        assert "count" not in json.loads(manifest.read_text())

    @pytest.mark.parametrize(
        "file, damage",
        [
            ("ids.bin", lambda data: data[:-4] + np.int32(5).tobytes()),
            ("ids.bin", lambda data: np.int32(-1).tobytes() + data[4:]),
            ("entries.bin", lambda data: data[:-4] + np.uint32(3).tobytes()),
            ("names.txt", lambda data: data + b"germany\n"),
            ("names.txt", lambda data: data + b"\xff\n"),
        ],
        ids=["id-past-the-names", "negative-id", "counts-overrun-ids", "repeated-name", "not-utf8"],
    )
    def test_damaged_extraction_cache_exits_2(self, built, capsys, file, damage):
        path = built / "cache" / "extraction" / file
        path.write_bytes(damage(path.read_bytes()))
        capsys.readouterr()
        assert main(["index"] + common(built)) == 2
        assert f"error: extraction cache {path}: " in capsys.readouterr().err

    def test_older_extraction_cache_layout_is_wiped_and_rebuilt(self, built, capsys):
        index_before = {f.name: f.read_bytes() for f in (built / "index").iterdir()}
        extraction = built / "cache" / "extraction"
        shutil.rmtree(extraction)
        shutil.copytree(DATA_DIR / "toy_extraction", extraction)  # one records.jsonl
        assert main(["index"] + common(built)) == 0
        assert {f.name: f.read_bytes() for f in (built / "index").iterdir()} == index_before
        assert sorted(f.name for f in extraction.iterdir()) == [
            "entries.bin", "ids.bin", "keys.bin", "lock", "manifest.json", "names.txt"
        ]
        assert (extraction / "entries.bin").stat().st_size == 3 * 36  # extracted again

    def test_older_embedding_cache_layout_is_wiped_and_rebuilt(self, built, capsys):
        index_before = {f.name: f.read_bytes() for f in (built / "index").iterdir()}
        embeddings = built / "cache" / "embeddings"
        shutil.rmtree(embeddings)
        shutil.copytree(DATA_DIR / "toy_embeddings", embeddings)
        old_records = (embeddings / "records.bin").read_bytes()
        assert hashlib.sha256(b"germany").hexdigest().encode() in old_records  # hex keys
        old_size = len(old_records)
        assert main(["index"] + common(built)) == 0
        assert {f.name: f.read_bytes() for f in (built / "index").iterdir()} == index_before
        assert sorted(f.name for f in embeddings.iterdir()) == [
            "lock", "manifest.json", "records.bin"
        ]
        # Each text encoded again: as many records, each with a 32-byte key,
        # the row, its float64 norm and its uint16 bucket.
        record_size = 32 + 4 * 256 + 8 + 2
        assert (embeddings / "records.bin").stat().st_size == old_size // (64 + 1024) * record_size

    def test_layout_2_embedding_cache_is_wiped_and_encoded_once(self, built, capsys):
        """Layout 2 keyed each row by the raw sha256 of its embedded text."""
        index_before = {f.name: f.read_bytes() for f in (built / "index").iterdir()}
        embeddings = built / "cache" / "embeddings"
        new_records = (embeddings / "records.bin").read_bytes()
        encoder = OfflineEncoder(dim=256)
        index = load_index(built / "index")
        texts = index.entity_names + [
            passage_embedding_text(p.title, p.text) for p in load_corpus(TOY_CORPUS)
        ]
        manifest = {"dim": 256, "encoder_id": encoder.encoder_id, "layout": 2}
        (embeddings / "manifest.json").write_text(json.dumps(manifest, sort_keys=True))
        old = np.empty(len(texts), dtype=[("key", "V32"), ("row", "<f4", (256,))])
        old["key"] = [hashlib.sha256(text.encode()).digest() for text in texts]
        old["row"] = encoder.encode_batch(texts)
        (embeddings / "records.bin").write_bytes(old.tobytes())

        assert main(["index"] + common(built)) == 0
        assert {f.name: f.read_bytes() for f in (built / "index").iterdir()} == index_before
        assert json.loads((embeddings / "manifest.json").read_text())["layout"] == 4
        assert (embeddings / "records.bin").read_bytes() == new_records  # each text encoded again
        assert main(["index"] + common(built)) == 0
        assert (embeddings / "records.bin").read_bytes() == new_records  # and only once

    @pytest.mark.parametrize("record, kind", [(1, "entity"), (6, "passage")])
    def test_non_finite_cached_row_exits_2_naming_the_record(self, built, capsys, record, kind):
        """The cold build appended the 5 entity rows, then the 3 passage rows;
        a warm one gathers them into the index layouts and checks each row,
        whose stored norm stays finite."""
        records = built / "cache" / "embeddings" / "records.bin"
        layout = [("key", "V32"), ("row", "<f4", (256,)), ("norm", "<f8"), ("bucket", "<u2")]
        raw = np.frombuffer(records.read_bytes(), dtype=layout).copy()
        raw["row"][record, 100] = np.inf
        raw["row"][7, 0] = np.nan  # a later record, read in the same pass
        assert np.isfinite(raw["norm"]).all()
        records.write_bytes(raw.tobytes())
        capsys.readouterr()
        assert main(["index"] + common(built)) == 2
        message = f"embedding cache {records} holds non-finite entries, first in record {record} "
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "entities, message",
        [
            (["Germany"], "entity 'Germany' is not normalized"),
            ([""], "empty entity in set for passage 'P1'"),
            (["germany", "germany"], "duplicate entity 'germany' in passage 'P1'"),
        ],
    )
    def test_unchecked_extraction_cache_hit_exits_2(self, built, capsys, entities, message):
        """A hit is checked like a fresh extraction; from other content it is a miss."""
        extraction = built / "cache" / "extraction"
        saved = {f: f.read_bytes() for f in extraction.iterdir()}
        index_before = {f.name: f.read_bytes() for f in (built / "index").iterdir()}
        p1 = next(p for p in load_corpus(TOY_CORPUS) if p.id == "P1")
        append_extraction_entry(extraction, passage_sha256(p1.title, p1.text), entities)
        capsys.readouterr()
        assert main(["index"] + common(built)) == 2
        damaged = damaged_extraction_cache(extraction, message)
        assert capsys.readouterr().err == f"error: {damaged}\n"

        for f, data in saved.items():
            f.write_bytes(data)
        append_extraction_entry(extraction, bytes(32), entities)
        assert main(["index"] + common(built)) == 0
        assert {f.name: f.read_bytes() for f in (built / "index").iterdir()} == index_before


    def test_a_lowered_entry_count_is_blamed_on_the_cache(self, built, capsys):
        """A flipped byte in the first entry's count takes its last id from
        it and gives it to the next entry: P2 then holds "germany" twice."""
        extraction = built / "cache" / "extraction"
        raw = bytearray((extraction / "entries.bin").read_bytes())
        assert raw[32:36] == np.uint32(2).tobytes()  # P1's count
        raw[32] ^= 0x03
        (extraction / "entries.bin").write_bytes(bytes(raw))
        capsys.readouterr()
        assert main(["index"] + common(built)) == 2
        message = "duplicate entity 'germany' in passage 'P2'"
        damaged = damaged_extraction_cache(extraction, message)
        assert capsys.readouterr().err == f"error: {damaged}\n"
        shutil.rmtree(extraction)  # as the message says
        assert main(["index"] + common(built)) == 0


    def test_a_lowered_entry_count_cuts_no_id_and_restored_builds_the_cold_index(
        self, built, capsys
    ):
        """A build that finds the damage exits 2 and writes no cache byte, so
        undoing the damage undoes it all."""
        extraction = built / "cache" / "extraction"
        index_before = {f.name: f.read_bytes() for f in (built / "index").iterdir()}
        entries = extraction / "entries.bin"
        whole = entries.read_bytes()
        assert whole[32:36] == np.uint32(2).tobytes()  # P1's count
        entries.write_bytes(whole[:32] + np.uint32(1).tobytes() + whole[36:])
        capsys.readouterr()
        assert main(["index"] + common(built)) == 2
        damaged = damaged_extraction_cache(extraction, "duplicate entity 'germany' in passage 'P2'")
        assert capsys.readouterr().err == f"error: {damaged}\n"
        assert (extraction / "ids.bin").stat().st_size == 28
        entries.write_bytes(whole)
        assert main(["index"] + common(built)) == 0
        assert {f.name: f.read_bytes() for f in (built / "index").iterdir()} == index_before

    def test_a_lowered_entry_count_fails_a_build_with_a_miss_before_it_appends(
        self, built, capsys
    ):
        """The hits' entries are checked before the new passage is extracted
        or appended, so no cache file is written and ids.bin keeps the id
        the lowered count no longer frames; restoring the count builds the
        cold index of the larger corpus."""
        corpus = built / "corpus.jsonl"
        new = {"id": "P4", "title": "Lyon", "text": "Lyon lies in France."}
        corpus.write_text(Path(TOY_CORPUS).read_text() + json.dumps(new) + "\n")

        def index(name, cache):
            return main(["index", "--corpus", str(corpus), "--index-dir", str(built / name),
                         "--cache-dir", str(built / cache), "--offline"])

        extraction = built / "cache" / "extraction"
        entries = extraction / "entries.bin"
        whole = entries.read_bytes()
        assert whole[32:36] == np.uint32(2).tobytes()  # P1's count
        entries.write_bytes(whole[:32] + np.uint32(1).tobytes() + whole[36:])
        damaged = {f.name: f.read_bytes() for f in extraction.iterdir()}
        capsys.readouterr()
        assert index("index", "cache") == 2
        message = damaged_extraction_cache(extraction, "duplicate entity 'germany' in passage 'P2'")
        assert capsys.readouterr().err == f"error: {message}\n"
        assert (extraction / "ids.bin").stat().st_size == 28
        assert {f.name: f.read_bytes() for f in extraction.iterdir()} == damaged
        assert set(damaged) >= {"names.txt", "keys.bin", "ids.bin", "entries.bin"}

        entries.write_bytes(whole)
        assert index("index", "cache") == 0
        assert index("cold", "fresh") == 0
        files = sorted(f.name for f in (built / "cold").iterdir())
        assert files == sorted(INDEX_FILES)
        for name in files:
            assert (built / "index" / name).read_bytes() == (built / "cold" / name).read_bytes()

    def test_a_warm_rebuild_writes_no_cache_file(self, built):
        def cache_files():
            return {
                path: (path.read_bytes(), path.stat().st_mtime_ns)
                for path in (built / "cache").rglob("*")
                if path.is_file()
            }

        before = cache_files()
        assert len(before) == 2 + 2 + 4 + 1  # both locks and manifests, the records
        assert main(["index"] + common(built)) == 0
        assert main(["index"] + common(built) + ["--max-workers", "4"]) == 0
        assert cache_files() == before


def damaged_extraction_cache(extraction, message):
    files = ", ".join(str(extraction / name) for name in ("names.txt", "ids.bin", "entries.bin"))
    return (
        f"extraction cache {files}: the cached entries are damaged ({message});"
        f" delete the cache directory {extraction} and build again"
    )


def append_extraction_entry(extraction, key, entities):
    """Append an entry to the extraction cache files as ``ExtractionCache.append``
    would, but without its checks."""
    names = (extraction / "names.txt").read_text(encoding="utf-8").split("\n")[:-1]
    fresh = [name for name in dict.fromkeys(entities) if name not in names]
    ids = [(names + fresh).index(name) for name in entities]
    with (extraction / "names.txt").open("a", encoding="utf-8") as fh:
        fh.write("".join(name + "\n" for name in fresh))
    with (extraction / "ids.bin").open("ab") as fh:
        fh.write(np.array(ids, dtype="<i4").tobytes())
    with (extraction / "entries.bin").open("ab") as fh:
        fh.write(key + np.uint32(len(ids)).tobytes())


@pytest.mark.parametrize(
    "config_text, env, named",
    [
        ("{not json", {}, "cfg.json"),
        (None, {}, "cfg.json"),  # a directory
        ("[1]", {}, "cfg.json"),
        ('"k1"', {}, "cfg.json"),
        ('{"k1": "x"}', {}, "k1='x'"),
        ('{"k1": 2.7}', {}, "k1=2.7"),
        ('{"k2": true}', {}, "k2=True"),
        ('{"eta": false}', {}, "eta=False"),
        ('{"steps": [4]}', {}, "steps=[4]"),
        ("{}", {"HYPERHOP_K1": "abc"}, "k1='abc'"),
        ("{}", {"HYPERHOP_ETA": "high"}, "eta='high'"),
        ('{"index_dir": ["a", 1]}', {}, "index_dir=['a', 1]"),
        ('{"api_key": 5}', {}, "api_key=5"),
    ],
)
def test_malformed_config_exits_2(built, tmp_path, capsys, monkeypatch, config_text, env, named):
    cfg = tmp_path / "cfg.json"
    if config_text is None:
        cfg.mkdir()
    else:
        cfg.write_text(config_text)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    capsys.readouterr()
    assert main(["retrieve", TOY_QUERY, "--config", str(cfg)] + common(built)) == 2
    assert named in capsys.readouterr().err


class TestRetrieveCommand:
    def test_toy_query_selects_p1_p2(self, built, capsys):
        code = main(["retrieve", TOY_QUERY, "--k1", "1", "--k2", "3"] + common(built))
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert [e["id"] for e in payload["selected"]] == ["P1", "P2"]

    def test_beta_one_matches_dense_ordering(self, built, capsys):
        code = main(
            ["retrieve", TOY_QUERY, "--beta", "1", "--k1", "1", "--k2", "3"] + common(built)
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        index = load_index(built / "index")
        from hyperhop.retrieval import build_passage_similarity

        p = build_passage_similarity(TOY_QUERY, index, OfflineEncoder(dim=256))
        expected = [index.passage_ids[col] for col in ranked_order(p, len(p))]
        assert [e["id"] for e in payload["topk2"]] == expected

    def test_ablation_flags_compose(self, built, capsys):
        code = main(
            ["retrieve", TOY_QUERY, "--t", "0", "--no-weights", "--no-se",
             "--k1", "3", "--k2", "3"] + common(built)
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        # k1 == k2: selection is exactly the top-k1 of the composed score.
        assert [e["id"] for e in payload["selected"]] == [e["id"] for e in payload["topk2"]]

    def test_missing_index_exits_2(self, tmp_path, capsys, no_network):
        code = main(["retrieve", "q", "--index-dir", str(tmp_path / "void"), "--offline"])
        assert code == 2

    def test_truncated_passage_columns_exit_2(self, built, capsys):
        path = built / "index" / "passage_columns.bin"
        path.write_bytes(path.read_bytes()[:-4])
        code = main(["retrieve", TOY_QUERY] + common(built))
        assert code == 2
        assert "passage_columns.bin" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["passage_columns.bin", "entity_embeddings.bin"])
    def test_nan_embedding_exits_2(self, built, capsys, name):
        path = built / "index" / name
        values = np.fromfile(path, dtype="<f4")
        values[0] = np.nan
        values.tofile(path)
        code = main(["retrieve", TOY_QUERY] + common(built))
        assert code == 2
        assert f"{name} holds a non-finite value" in capsys.readouterr().err

    @pytest.mark.parametrize("name", INDEX_FILES)
    def test_missing_index_file_exits_2(self, built, capsys, name):
        (built / "index" / name).unlink()
        code = main(["retrieve", TOY_QUERY] + common(built))
        assert code == 2
        err = capsys.readouterr().err
        assert name in err and "Errno" not in err

    @pytest.mark.parametrize("version", [2, 3])
    def test_older_index_version_exits_2(self, built, capsys, version):
        path = built / "index" / "manifest.json"
        text = path.read_text()
        assert '"format_version": 4' in text
        path.write_text(text.replace('"format_version": 4', f'"format_version": {version}'))
        assert main(["retrieve", TOY_QUERY] + common(built)) == 2
        assert "rebuild the index" in capsys.readouterr().err

    def test_old_index_answers_after_a_rebuild_into_its_directory(self, built, capsys):
        """The rebuild replaces each file: the loaded index's map keeps the old one."""
        index = load_index(built / "index")
        config = RetrievalConfig(k1=1, k2=3)
        encoder, extractor = OfflineEncoder(dim=256), OfflineEntityExtractor()
        before = retrieve(TOY_QUERY, index, config, encoder, extractor)
        columns = index.passage_rows.columns.copy()
        other = built / "other.jsonl"
        rows = [json.loads(line) for line in Path(TOY_CORPUS).read_text().splitlines()]
        other.write_text("".join(
            json.dumps({**row, "text": row["text"] + " Capital cities matter."}) + "\n"
            for row in rows
        ))
        args = ["index", "--corpus", str(other), "--index-dir", str(built / "index"), "--offline"]
        assert main(args) == 0
        assert load_index(built / "index").passage_rows.columns.tobytes() != columns.tobytes()
        assert index.passage_rows.columns.tobytes() == columns.tobytes()
        after = retrieve(TOY_QUERY, index, config, encoder, extractor)
        assert (after.selected, after.ranking) == (before.selected, before.ranking)
        assert sorted(f.name for f in (built / "index").iterdir()) == sorted(INDEX_FILES)


class TestStatsCommand:
    def test_toy_counts(self, built, capsys):
        assert main(["stats"] + common(built)) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["nodes"] == 5
        assert payload["hyperedges"] == 3
        assert payload["incidences"] == 7


def _truncate(path):
    path.write_bytes(path.read_bytes()[:-3])


def _drop_nnz(path):
    manifest = json.loads(path.read_text(encoding="utf-8"))
    del manifest["nnz"]
    path.write_text(json.dumps(manifest), encoding="utf-8")


def _repeat_first_id(path):
    ids = json.loads(path.read_text(encoding="utf-8"))
    path.write_text(json.dumps([ids[0]] + ids[:-1]), encoding="utf-8")


@pytest.mark.parametrize(
    "name, corrupt",
    [
        ("manifest.json", _truncate),
        ("entities.json", _truncate),
        ("passages.json", _truncate),
        ("manifest.json", _drop_nnz),
        ("manifest.json", lambda path: path.write_text("[1, 2]", encoding="utf-8")),
        ("entities.json", lambda path: path.write_text("[1, 2, 3, 4, 5]", encoding="utf-8")),
        ("passages.json", lambda path: path.write_text('{"P1": 0}', encoding="utf-8")),
        ("entities.json", _repeat_first_id),
        ("passages.json", _repeat_first_id),
    ],
)
def test_corrupt_index_json_exits_2(built, capsys, name, corrupt):
    corrupt(built / "index" / name)
    assert main(["stats"] + common(built)) == 2
    assert name in capsys.readouterr().err


@pytest.mark.parametrize("command", [["stats"], ["retrieve", TOY_QUERY]])
@pytest.mark.parametrize("name", ["pas_offsets.bin", "pas_indices.bin"])
def test_torn_incidence_array_exits_2(built, capsys, command, name):
    path = built / "index" / name
    path.write_bytes(path.read_bytes() + bytes(2))
    assert main(command + common(built)) == 2
    assert name in capsys.readouterr().err


class TestAnswerCommand:
    def test_offline_placeholder_answer(self, built, capsys):
        code = main(["answer", TOY_QUERY, "--k1", "1", "--k2", "3"] + common(built))
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["answer"].startswith("offline-answer-")
        assert payload["passages"] == ["P1", "P2"]


def null_content_chat(failing_question):
    """A remote chat client whose endpoint replies with null content to the
    prompt of ``failing_question``, and with "Berlin" to any other."""

    def transport(url, payload, headers):
        failing = failing_question in payload["messages"][0]["content"]
        return {"choices": [{"message": {"content": None if failing else "Berlin"}}]}

    return RemoteChatClient(EndpointConfig("http://fake.local/v1"), "chat-model", transport)


def test_answer_with_null_chat_content_exits_2(built, capsys, monkeypatch):
    monkeypatch.setattr(cli, "make_chat", lambda config: null_content_chat(TOY_QUERY))
    assert main(["answer", TOY_QUERY] + common(built)) == 2
    assert "chat reply content is NoneType, not a string" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["retrieve", "answer"])
def test_query_that_utf8_cannot_encode_exits_2(built, capsys, command):
    # argv carries the byte 0xff, which is not UTF-8, as the lone surrogate \udcff.
    assert main([command, "Br\udcffssels"] + common(built)) == 2
    assert "the query is not valid UTF-8 at character 2" in capsys.readouterr().err


class TestPromptFiles:
    """A prompt file is a ``str.format`` template: a literal brace is doubled,
    and a file with a single one is a failed precondition."""

    @pytest.mark.parametrize(
        "command", [["answer", TOY_QUERY], ["eval", "--dataset", TOY_QA, "--qa"]]
    )
    def test_answer_prompt_with_a_literal_brace_exits_2(self, built, capsys, command):
        prompt = built / "answer.txt"
        prompt.write_text('Reply {"answer": "..."}.\n{context}\n{question}\n', encoding="utf-8")
        assert main(command + common(built) + ["--answer-prompt", str(prompt)]) == 2
        err = capsys.readouterr().err
        assert f"prompt file {prompt} holds a brace" in err and "{{ or }}" in err

    def test_doubled_braces_are_literal(self, built, capsys):
        prompt = built / "answer.txt"
        prompt.write_text('Reply {{"answer": "..."}}.\n{context}\n{question}\n', encoding="utf-8")
        args = ["answer", TOY_QUERY, "--answer-prompt", str(prompt)] + common(built)
        assert main(args) == 0
        assert json.loads(capsys.readouterr().out)["answer"].startswith("offline-answer-")

    def test_extraction_prompt_with_a_literal_brace_exits_2(self, built, capsys):
        # The remote build stops before it extracts or connects.
        prompt = built / "extraction.txt"
        prompt.write_text('Reply {"entities": [...]}.\n{title}\n{text}\n', encoding="utf-8")
        args = [
            "index",
            "--corpus", TOY_CORPUS,
            "--index-dir", str(built / "remote"),
            "--api-base", "http://127.0.0.1:9/v1",
            "--chat-model", "chat",
            "--embed-model", "embed",
            "--extraction-prompt", str(prompt),
        ]
        assert main(args) == 2
        assert f"prompt file {prompt} holds a brace" in capsys.readouterr().err
        assert not (built / "remote").exists()


def stale_corpus(tmp_path):
    """The toy corpus with passage P3 renamed after indexing."""
    path = tmp_path / "stale.jsonl"
    text = (DATA_DIR / "toy_corpus.jsonl").read_text(encoding="utf-8")
    path.write_text(text.replace('"id": "P3"', '"id": "P3b"'), encoding="utf-8")
    return str(path)


class TestStaleCorpus:
    def test_answer_exits_2(self, built, capsys):
        args = ["answer", TOY_QUERY] + common(built) + ["--corpus", stale_corpus(built)]
        assert main(args) == 2
        assert "rebuild the index" in capsys.readouterr().err

    def test_eval_qa_exits_2(self, built, capsys):
        args = ["eval", "--dataset", TOY_QA, "--qa"] + common(built)
        assert main(args + ["--corpus", stale_corpus(built)]) == 2
        assert "rebuild the index" in capsys.readouterr().err


class TestEvalCommand:
    def test_deterministic_report_bytes(self, built, capsys):
        out_a = built / "report_a.json"
        out_b = built / "report_b.json"
        args = ["eval", "--dataset", TOY_QA, "--k1", "1", "--k2", "3"] + common(built)
        assert main(args + ["--output", str(out_a)]) == 0
        assert main(args + ["--output", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_qa_mode_adds_answer_metrics(self, built, capsys):
        args = ["eval", "--dataset", TOY_QA, "--qa", "--k1", "1", "--k2", "3"] + common(built)
        assert main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "em" in payload["aggregates"]

    def test_partial_failure_exit_1(self, built, tmp_path, capsys):
        bad = tmp_path / "bad_qa.jsonl"
        bad.write_text(
            json.dumps({"question": "q", "answers": ["a"], "gold_passage_ids": ["MISSING"]})
            + "\n",
            encoding="utf-8",
        )
        out = tmp_path / "report.json"
        args = ["eval", "--dataset", str(bad), "--output", str(out),
                "--k1", "1", "--k2", "3"] + common(built)
        assert main(args) == 1
        assert out.exists()  # report still written on partial failure
        payload = json.loads(out.read_text())
        assert payload["aggregates"]["errors"] == 1

    def test_malformed_dataset_line_exits_2(self, built, tmp_path, capsys):
        bad = tmp_path / "bad_qa.jsonl"
        bad.write_text('{"question": "q", "answers": "Paris"}\n', encoding="utf-8")
        args = ["eval", "--dataset", str(bad), "--k1", "1", "--k2", "3"] + common(built)
        assert main(args) == 2
        assert "line 1" in capsys.readouterr().err

    def test_question_that_utf8_cannot_encode_exits_2(self, built, tmp_path, capsys):
        bad = tmp_path / "bad_qa.jsonl"
        bad.write_text('{"question": "Br\\udcffssels?", "answers": ["a"]}\n', encoding="utf-8")
        args = ["eval", "--dataset", str(bad), "--k1", "1", "--k2", "3"] + common(built)
        assert main(args) == 2
        assert "line 1: not UTF-8: a lone surrogate" in capsys.readouterr().err

    def test_null_chat_content_is_the_examples_error(self, built, tmp_path, capsys, monkeypatch):
        failing = load_qa_dataset(TOY_QA)[1].question
        monkeypatch.setattr(cli, "make_chat", lambda config: null_content_chat(failing))
        out = tmp_path / "report.json"
        args = ["eval", "--dataset", TOY_QA, "--qa", "--output", str(out)] + common(built)
        assert main(args) == 1
        records = json.loads(out.read_text())["records"]
        assert [r.get("error") for r in records] == [
            None,
            "ChatError: chat completion failed: chat reply content is NoneType, not a string",
            None,
        ]

    def test_dataset_that_is_a_directory_exits_2(self, built, tmp_path, capsys):
        args = ["eval", "--dataset", str(tmp_path), "--k1", "1", "--k2", "3"] + common(built)
        assert main(args) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_index_without_passage_columns_exits_2(self, built, capsys):
        # A broken index fails every example alike: a precondition, not a
        # per-example failure.
        (built / "index" / "passage_columns.bin").unlink()
        args = ["eval", "--dataset", TOY_QA, "--k1", "1", "--k2", "3"] + common(built)
        assert main(args) == 2
        assert "missing index file: passage_columns.bin" in capsys.readouterr().err

    def test_endpoint_failing_every_question_exits_2(self, built, capsys, monkeypatch):
        def down(self, texts):
            raise RuntimeError("endpoint down")

        monkeypatch.setattr(OfflineEncoder, "encode_batch", down)
        args = ["eval", "--dataset", TOY_QA, "--k1", "1", "--k2", "3"] + common(built)
        assert main(args) == 2
        assert "endpoint down" in capsys.readouterr().err


class TestSettingsOutOfRange:
    """A numeric setting out of range exits 2 naming it, when the config is
    made: before any cache is opened or any passage extracted."""

    def test_batch_size_0_extracts_nothing(self, tmp_path, capsys, no_network):
        assert main(["index"] + common(tmp_path) + ["--batch-size", "0"]) == 2
        assert "batch_size must be >= 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "cache" / "extraction" / "entries.bin").exists()

    def test_a_negative_remote_embed_dim(self, tmp_path, capsys, monkeypatch, no_network):
        monkeypatch.delenv("HYPERHOP_OFFLINE", raising=False)
        args = [
            "index", "--corpus", TOY_CORPUS,
            "--index-dir", str(tmp_path / "index"), "--cache-dir", str(tmp_path / "cache"),
            "--api-base", "http://localhost:9",
            "--embed-model", "m", "--embed-dim", "-5", "--chat-model", "chat",
        ]
        assert main(args) == 2
        assert "embed_dim must be >= 1, got -5" in capsys.readouterr().err
        assert not (tmp_path / "cache").exists()


class TestEncoderMismatch:
    """A query command whose encoder is not the one the index was built
    with stops before the first query."""

    @pytest.mark.parametrize(
        "command",
        [
            ["retrieve", TOY_QUERY],
            ["answer", TOY_QUERY],
            ["eval", "--dataset", TOY_QA, "--output", "report.json"],
        ],
    )
    def test_another_offline_dim_exits_2(self, built, capsys, monkeypatch, command):
        monkeypatch.chdir(built)
        assert main(command + common(built) + ["--offline-dim", "64"]) == 2
        err = capsys.readouterr().err
        assert "'offline-hash-bow-d256'" in err and "'offline-hash-bow-d64'" in err
        assert not (built / "report.json").exists()

    def test_remote_encoder_of_the_same_width_exits_2(self, built, capsys, monkeypatch):
        monkeypatch.delenv("HYPERHOP_OFFLINE", raising=False)
        args = [
            "retrieve", TOY_QUERY,
            "--index-dir", str(built / "index"),
            "--api-base", "http://localhost:9",
            "--embed-model", "other", "--embed-dim", "256", "--chat-model", "chat",
        ]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "'offline-hash-bow-d256'" in err and "'remote:other-d256'" in err

    def test_library_queries_with_another_encoder_raise(self, built):
        index = load_index(built / "index")
        encoder = OfflineEncoder(256)
        encoder.encoder_id = "another-model-d256"
        config = RetrievalConfig(k1=1, k2=3)
        named = "'offline-hash-bow-d256', not 'another-model-d256'"
        with pytest.raises(ContractError, match=named):
            retrieve(TOY_QUERY, index, config, encoder, None)
        with pytest.raises(ContractError, match=named):
            run_eval(load_qa_dataset(TOY_QA), index, config, encoder, None)

    def test_index_without_encoder_id_still_answers(self, built, capsys):
        path = built / "index" / "manifest.json"
        manifest = json.loads(path.read_text())
        del manifest["encoder_id"]
        path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
        assert main(["answer", TOY_QUERY, "--k1", "1", "--k2", "3"] + common(built)) == 0
        assert json.loads(capsys.readouterr().out)["passages"] == ["P1", "P2"]


class TestRebuildDeterminism:
    def test_two_builds_produce_identical_artifacts(self, tmp_path, no_network):
        digests = []
        for name in ("one", "two"):
            root = tmp_path / name
            args = [
                "index",
                "--corpus", TOY_CORPUS,
                "--index-dir", str(root / "index"),
                "--cache-dir", str(root / "cache"),
                "--offline",
            ]
            assert main(args) == 0
            files = sorted((root / "index").iterdir())
            digests.append([(f.name, f.read_bytes()) for f in files])
        assert digests[0] == digests[1]


class TestOneWriterPerCache:
    @staticmethod
    def index_args(root, corpus=TOY_CORPUS, cache_dir=None):
        return [
            "index",
            "--corpus", str(corpus),
            "--index-dir", str(root / "index"),
            "--cache-dir", str(cache_dir or root / "cache"),
            "--offline",
        ]

    @staticmethod
    def index_files(root):
        return {f.name: f.read_bytes() for f in (root / "index").iterdir()}

    @pytest.mark.parametrize("kind", ["extraction", "embeddings"])
    def test_a_build_on_a_held_cache_directory_exits_2(self, tmp_path, no_network, capsys, kind):
        held = tmp_path / "cache" / kind
        producer = OfflineEntityExtractor.extractor_id if kind == "extraction" else "offline"
        cache = ExtractionCache(held, producer) if kind == "extraction" else (
            EmbeddingCache(held, OfflineEncoder().encoder_id, OfflineEncoder().dim)
        )
        with closing(cache):
            assert main(self.index_args(tmp_path)) == 2
            assert f"cache directory {held} is in use by another build" in capsys.readouterr().err
            assert not (tmp_path / "index").exists()
        assert main(self.index_args(tmp_path)) == 0

    def test_a_build_into_a_held_index_directory_exits_2(self, tmp_path, no_network, capsys):
        assert main(self.index_args(tmp_path)) == 0
        before = self.index_files(tmp_path)
        edited = tmp_path / "edited.jsonl"
        edited.write_text(Path(TOY_CORPUS).read_text().replace("Berlin", "Bonn"))
        held = os.open(tmp_path / "index.lock", os.O_RDWR)
        try:
            fcntl.flock(held, fcntl.LOCK_EX | fcntl.LOCK_NB)
            capsys.readouterr()
            assert main(self.index_args(tmp_path, edited)) == 2
            message = f"error: index directory {tmp_path / 'index'} is in use by another build"
            assert capsys.readouterr().err == message + "\n"
        finally:
            os.close(held)
        assert self.index_files(tmp_path) == before
        assert main(self.index_args(tmp_path, edited)) == 0
        assert self.index_files(tmp_path) != before

    def test_of_two_index_processes_on_one_cache_the_second_exits_2(self, tmp_path, no_network):
        # The first build reads its corpus from a FIFO, so it holds both
        # caches, their manifests written, until the corpus is written.
        assert main(self.index_args(tmp_path / "solo")) == 0
        fifo, shared = tmp_path / "corpus.fifo", tmp_path / "shared"
        os.mkfifo(fifo)
        src = str(Path(hyperhop.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}

        def index(root, corpus):
            command = [sys.executable, "-m", "hyperhop", *self.index_args(root, corpus, shared)]
            return subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                    text=True, env=env)

        first = index(tmp_path / "first", fifo)
        try:
            for _ in range(600):
                if (shared / "embeddings" / "manifest.json").exists() or first.poll() is not None:
                    break
                time.sleep(0.05)
            assert first.poll() is None, first.communicate()
            second = index(tmp_path / "second", TOY_CORPUS)
            _, err = second.communicate(timeout=60)
            assert second.returncode == 2
            assert f"cache directory {shared / 'extraction'} is in use by another build" in err
            assert not (tmp_path / "second" / "index").exists()
            while True:  # the toy corpus fits the pipe's buffer
                try:
                    writer = os.open(fifo, os.O_WRONLY | os.O_NONBLOCK)
                    break
                except OSError:  # the first build has not opened the FIFO yet
                    assert first.poll() is None, first.communicate()
                    time.sleep(0.01)
            os.write(writer, Path(TOY_CORPUS).read_bytes())
            os.close(writer)
            _, err = first.communicate(timeout=60)
            assert first.returncode == 0, err
        finally:
            if first.poll() is None:
                first.kill()
                first.communicate()
        assert self.index_files(tmp_path / "first") == self.index_files(tmp_path / "solo")


class TestRemoteModePreconditions:
    def test_missing_api_base_exits_2(self, built, capsys, monkeypatch):
        for var in ("HYPERHOP_API_BASE", "HYPERHOP_OFFLINE"):
            monkeypatch.delenv(var, raising=False)
        code = main(["retrieve", "q", "--index-dir", str(built / "index")])
        assert code == 2
        assert "api_base" in capsys.readouterr().err

    def test_config_file_supplies_settings(self, built, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"offline": True, "k1": 1, "k2": 3}))
        code = main(
            ["retrieve", TOY_QUERY, "--config", str(cfg),
             "--index-dir", str(built / "index")]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert [e["id"] for e in payload["selected"]] == ["P1", "P2"]


def test_entityless_query_reports_dense_fallback(built, capsys):
    code = main(
        ["retrieve", "what is the capital?", "--k1", "1", "--k2", "3"] + common(built)
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["diagnostics"]["dense_fallback"] is True
    assert payload["diagnostics"]["nonzero_entity_count"] == 0


def test_eta_one_forces_fallback(built, capsys):
    code = main(
        ["retrieve", TOY_QUERY, "--eta", "1.0", "--k1", "1", "--k2", "3"] + common(built)
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["diagnostics"]["dense_fallback"] is True


def test_all_commands_honor_offline_mode(built, capsys):
    # The no_network guard in the fixture fails the test on any socket open;
    # run the full command surface under it.
    assert main(["stats"] + common(built)) == 0
    assert main(["retrieve", "q", "--k1", "1", "--k2", "2"] + common(built)) == 0
    assert main(["answer", "q", "--k1", "1", "--k2", "2"] + common(built)) == 0
    assert main(["eval", "--dataset", TOY_QA, "--k1", "1", "--k2", "2"] + common(built)) == 0


def test_stats_counts_zero_norm_rows(tmp_path, no_network, capsys):
    """An entity or passage whose offline embedding is the zero vector, which
    no query can reach, is counted. `menalif saposig`'s two words cancel on
    one coordinate at dim 256; "..." has no tokens."""
    corpus = tmp_path / "corpus.jsonl"
    rows = [
        {"id": "P1", "title": "", "text": "Menalif Saposig met Albert Einstein."},
        {"id": "P2", "title": "", "text": "..."},
    ]
    corpus.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    args = ["--corpus", str(corpus), "--index-dir", str(tmp_path / "index"), "--offline"]
    assert main(["index"] + args) == 0
    capsys.readouterr()
    assert main(["stats"] + args) == 0
    stats = json.loads(capsys.readouterr().out)
    assert (stats["nodes"], stats["zero_norm_entity_rows"], stats["zero_norm_passage_rows"]) == (
        2, 1, 1
    )


GOLDEN = DATA_DIR / "toy_golden"


def test_toy_outputs_are_the_golden_bytes(built, capsys):
    """The toy index manifest, `stats`, `eval` and `eval --qa` outputs byte for
    byte as in tests/data/toy_golden, the sha256 of every index file, and the
    ids that `retrieve` selects and ranks. The retrieval scores are left out:
    BLAS kernels may move their last bits from one CPU to another."""
    golden = {path.name: path.read_bytes() for path in GOLDEN.iterdir()}
    assert (built / "index" / "manifest.json").read_bytes() == golden["manifest.json"]
    index_files = (built / "index").iterdir()
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in index_files}
    assert digests == json.loads(golden["index_digests.json"])
    runs = {
        "manifest.json": ["index"],
        "stats.json": ["stats"],
        "eval.json": ["eval", "--dataset", TOY_QA],
        "eval_qa.json": ["eval", "--dataset", TOY_QA, "--qa", "--k1", "1", "--k2", "3"],
    }
    capsys.readouterr()
    for name, args in runs.items():
        assert main(args + common(built)) == 0
        assert capsys.readouterr().out.encode("utf-8") == golden[name], name
    assert main(["retrieve", TOY_QUERY, "--k1", "1", "--k2", "3"] + common(built)) == 0
    payload = json.loads(capsys.readouterr().out)
    ids = {key: [e["id"] for e in payload[key]] for key in ("selected", "topk2")}
    rendered = json.dumps({"query": payload["query"], **ids}, indent=2) + "\n"
    assert rendered.encode("utf-8") == golden["retrieve_ids.json"]


def test_no_weights_retrieve_is_the_golden_bytes(built, capsys):
    """`retrieve --no-weights` gives every passage weight one, so its full
    diffusion half-steps run over the whole incidence, H^T slot-major (on
    the toy, every half-step is full). Its payloads, at the default k and at `--k1 1 --k2 3`,
    scores included, are as in tests/data/toy_golden: the query has one
    entity, and its scores were the same bytes on OpenBLAS's Prescott,
    Nehalem, Sandy Bridge, Haswell and SkylakeX kernels."""
    runs = {}
    for extra in ([], ["--k1", "1", "--k2", "3"]):
        args = ["--no-weights", *extra]
        capsys.readouterr()
        assert main(["retrieve", TOY_QUERY, *args] + common(built)) == 0
        runs[" ".join(args)] = json.loads(capsys.readouterr().out)
    rendered = json.dumps(runs, indent=2) + "\n"
    assert rendered.encode("utf-8") == (GOLDEN / "retrieve_no_weights.json").read_bytes()


# Each subcommand's arguments in --help order: option string (a positional's
# name) -> (dest, action or type), written out by hand.
APP_FLAGS = {
    "--config": ("config", "str"),
    "--corpus": ("corpus", "str"),
    "--index-dir": ("index_dir", "str"),
    "--cache-dir": ("cache_dir", "str"),
    "--offline": ("offline", "store_true"),
    "--api-base": ("api_base", "str"),
    "--api-key": ("api_key", "str"),
    "--embed-model": ("embed_model", "str"),
    "--embed-dim": ("embed_dim", "int"),
    "--chat-model": ("chat_model", "str"),
    "--batch-size": ("batch_size", "int"),
    "--max-workers": ("max_workers", "int"),
    "--offline-dim": ("offline_dim", "int"),
    "--extraction-prompt": ("extraction_prompt", "str"),
    "--answer-prompt": ("answer_prompt", "str"),
}
RETRIEVAL_FLAGS = {
    "--eta": ("eta", "float"),
    "--beta": ("beta", "float"),
    "--t": ("steps", "int"),
    "--k1": ("k1", "int"),
    "--k2": ("k2", "int"),
    "--no-weights": ("use_weight_matrix", "store_false"),
    "--no-se": ("use_semantic_enhancement", "store_false"),
    "--no-struct": ("use_structural_enhancement", "store_false"),
}
QUERY_ARGUMENT = {"query": ("query", "str")}
EVAL_FLAGS = {
    "--dataset": ("dataset", "str"),
    "--output": ("output", "str"),
    "--qa": ("qa", "store_true"),
    "--timing": ("timing", "store_true"),
}
EXPECTED_FLAGS = {
    "index": APP_FLAGS,
    "retrieve": {**QUERY_ARGUMENT, **APP_FLAGS, **RETRIEVAL_FLAGS},
    "answer": {**QUERY_ARGUMENT, **APP_FLAGS, **RETRIEVAL_FLAGS},
    "eval": {**EVAL_FLAGS, **APP_FLAGS, **RETRIEVAL_FLAGS},
    "stats": APP_FLAGS,
}
OWN_DESTS = {
    "index": set(),
    "retrieve": {"query"},
    "answer": {"query"},
    "eval": {"dataset", "output", "qa", "timing"},
    "stats": set(),
}


def flag_table(parser: argparse.ArgumentParser) -> dict:
    table = {}
    for action in parser._actions:
        if action.dest == "help":
            continue
        if action.nargs == 0:
            kind = "store_true" if action.const is True else "store_false"
        else:
            kind = (action.type or str).__name__
        for name in action.option_strings or [action.dest]:
            table[name] = (action.dest, kind)
    return table


def test_every_setting_has_its_flag():
    """Each command's flags keep their spellings, dests, actions, types and
    order; index and stats take no retrieval flag; the dests are the
    settings, --config and the command's own arguments; an unset setting
    flag is None, so it overrides no other source."""
    subcommands = next(a for a in build_parser()._actions if a.nargs == argparse.PARSER)
    assert list(subcommands.choices) == list(EXPECTED_FLAGS)
    retrieval = {dest for dest, _ in RETRIEVAL_FLAGS.values()}
    for command, expected in EXPECTED_FLAGS.items():
        parser = subcommands.choices[command]
        table = flag_table(parser)
        assert list(table.items()) == list(expected.items()), command
        settings = set(SETTING_TYPES) - (retrieval if command in ("index", "stats") else set())
        dests = {dest for dest, _ in table.values()}
        assert dests == settings | {"config"} | OWN_DESTS[command], command
        assert all(a.default is None for a in parser._actions if a.dest in settings), command


@pytest.mark.parametrize("module", ["hyperhop", "hyperhop.cli"])
class TestRunAsModule:
    """``python -m`` runs the same CLI as the installed ``hyperhop`` script."""

    def run(self, module, *args):
        return self.run_code(None, "-m", module, *args)

    def run_code(self, code, *args):
        src = str(Path(hyperhop.__file__).resolve().parent.parent)
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        env = {**os.environ, "PYTHONPATH": path}
        command = [sys.executable, *(("-c", code) if code else args)]
        return subprocess.run(command, capture_output=True, text=True, env=env)

    def test_help_prints_usage(self, module):
        done = self.run(module, "--help")
        assert done.returncode == 0
        assert done.stdout.startswith("usage: hyperhop")

    def test_offline_retrieve_does_not_import_requests(self, module, built):
        """``requests`` is imported on the first remote call only."""
        args = ["retrieve", TOY_QUERY, "--index-dir", str(built / "index"), "--offline"]
        code = (
            f"import sys, runpy; sys.argv = ['hyperhop', *{args!r}]\n"
            f"try:\n    runpy.run_module({module!r}, run_name='__main__')\n"
            "finally:\n    assert 'requests' not in sys.modules, 'requests was imported'"
        )
        done = self.run_code(code)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["query"] == TOY_QUERY

    def test_stats_on_a_missing_index_exits_2(self, module, tmp_path):
        done = self.run(module, "stats", "--index-dir", str(tmp_path / "void"), "--offline")
        assert done.returncode == 2
        assert "no index manifest" in done.stderr
