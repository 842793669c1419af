import json

import pytest

from hyperhop.corpus import Passage, corpus_digest, load_corpus
from hyperhop.errors import CorpusFormatError


def write_jsonl(path, rows):
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")


def test_load_corpus_sorts_by_id(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(
        path,
        [
            {"id": "p3", "title": "", "text": "three"},
            {"id": "p1", "title": "", "text": "one"},
            {"id": "p2", "title": "", "text": "two"},
        ],
    )
    passages = load_corpus(path)
    assert [p.id for p in passages] == ["p1", "p2", "p3"]
    assert passages[0] == Passage(id="p1", title="", text="one")


def test_load_corpus_empty_file(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text("", encoding="utf-8")
    assert load_corpus(path) == []


def test_load_corpus_missing_text_names_line(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text(
        json.dumps({"id": "p1", "title": "", "text": "ok"})
        + "\n"
        + json.dumps({"id": "p2", "title": ""})
        + "\n",
        encoding="utf-8",
    )
    with pytest.raises(CorpusFormatError, match="line 2"):
        load_corpus(path)


def test_load_corpus_malformed_json_names_line(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"id": "p1", "title": "", "text": "ok"}\n{broken\n', encoding="utf-8")
    with pytest.raises(CorpusFormatError, match="line 2"):
        load_corpus(path)


def test_load_corpus_duplicate_id(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(
        path,
        [
            {"id": "p1", "title": "", "text": "a"},
            {"id": "p1", "title": "", "text": "b"},
        ],
    )
    with pytest.raises(CorpusFormatError, match="duplicate"):
        load_corpus(path)


def test_load_corpus_rejects_blank_text(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [{"id": "p1", "title": "", "text": "   "}])
    with pytest.raises(CorpusFormatError, match="empty text"):
        load_corpus(path)


def test_corpus_digest_changes_with_content(tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    write_jsonl(a, [{"id": "p1", "title": "", "text": "x"}])
    write_jsonl(b, [{"id": "p1", "title": "", "text": "y"}])
    assert corpus_digest(a) != corpus_digest(b)
    assert corpus_digest(a) == corpus_digest(a)


def test_load_corpus_rejects_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_bytes(
        json.dumps({"id": "p1", "title": "", "text": "ok"}).encode("utf-8")
        + b"\n"
        + '{"id": "p2", "title": "", "text": "Köln"}\n'.encode("latin-1")
    )
    with pytest.raises(CorpusFormatError, match="line 2: not UTF-8"):
        load_corpus(path)
