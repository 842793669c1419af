import hashlib
import json

import pytest

from hyperhop.corpus import Corpus, Passage, load_corpus
from hyperhop.errors import CorpusFormatError

from reference import load_corpus_per_line


def write_jsonl(path, rows):
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")


def line(pid, text="body", title=""):
    return json.dumps({"id": pid, "title": title, "text": text}).encode("utf-8")


GOOD = line("p1") + b"\n" + line("p2") + b"\n"


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
    corpus = load_corpus(path)
    assert corpus.ids == ["p1", "p2", "p3"]
    assert corpus.texts == ["one", "two", "three"]
    assert corpus[0] == Passage(id="p1", title="", text="one")


def test_load_corpus_empty_file(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text("", encoding="utf-8")
    corpus = load_corpus(path)
    assert len(corpus) == 0 and corpus.ids == corpus.titles == corpus.texts == []
    assert corpus.sha256 == hashlib.sha256(b"").hexdigest()


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


def test_corpus_sha256_is_the_digest_of_the_file(tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    write_jsonl(a, [{"id": "p1", "title": "", "text": "x"}])
    write_jsonl(b, [{"id": "p1", "title": "", "text": "y"}])
    assert load_corpus(a).sha256 == hashlib.sha256(a.read_bytes()).hexdigest()
    assert load_corpus(a).sha256 != load_corpus(b).sha256


def test_load_corpus_rejects_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_bytes(
        json.dumps({"id": "p1", "title": "", "text": "ok"}).encode("utf-8")
        + b"\n"
        + '{"id": "p2", "title": "", "text": "Köln"}\n'.encode("latin-1")
    )
    with pytest.raises(CorpusFormatError, match="line 2: not UTF-8"):
        load_corpus(path)


def test_load_corpus_accepts_an_escaped_surrogate_pair(tmp_path):
    # A \u escape pair makes one valid character; only a lone half is refused
    # (tests/test_cli.py runs the refusal end to end).
    path = tmp_path / "c.jsonl"
    path.write_text('{"id": "p1", "title": "", "text": "smile \\ud83d\\ude00"}\n', encoding="utf-8")
    assert load_corpus(path)[0].text == "smile \U0001f600"


def test_passages_looks_up_ids_in_the_given_order():
    corpus = Corpus(ids=["a", "b", "c"], titles=["", "T", ""], texts=["x", "y", "z"], sha256="")
    assert corpus.passages(["c", "missing", "a", "b"]) == [
        Passage("c", "", "z"), Passage("a", "", "x"), Passage("b", "T", "y")
    ]
    assert corpus.passages([]) == []


# Each case is the bytes of a corpus file. load_corpus must give the
# reference loader's passages, or its CorpusFormatError on the same line.
PARITY = {
    # malformed
    "not-utf8-on-line-3": GOOD + b'{"id": "p3", "title": "", "text": "K\xf6ln"}\n',
    "not-utf8-split-sequence": GOOD + b'{"id": "p3", "title": "\xc3\n", "text": "x"}\n',
    "invalid-json": GOOD + b"{broken\n",
    "unterminated-string": GOOD + b'{"id": "p3\n',
    "not-an-object": GOOD + b'["p3", "", "x"]\n',
    "a-bare-number": GOOD + b"3\n",
    "lone-surrogate-escape": GOOD + b'{"id": "p3", "title": "", "text": "a \\ud800 b"}\n',
    "missing-key": GOOD + b'{"id": "p3", "title": ""}\n',
    "missing-id": GOOD + b'{"title": "", "text": "x"}\n',
    "non-string-key": GOOD + b'{"id": 3, "title": "", "text": "x"}\n',
    "non-string-title": GOOD + b'{"id": "p3", "title": null, "text": "x"}\n',
    "empty-text": GOOD + b'{"id": "p3", "title": "", "text": ""}\n',
    "whitespace-text": GOOD + b'{"id": "p3", "title": "", "text": " \\t\\u00a0"}\n',
    "duplicate-id": GOOD + line("p1", "again") + b"\n",
    "utf8-bom": b"\xef\xbb\xbf" + GOOD,
    "nbsp-before-the-object": GOOD + " ".encode() + line("p3") + b"\n",
    "two-objects-on-one-line": GOOD + line("p3") + line("p4") + b"\n",
    "one-object-over-two-lines": GOOD + b'{"id": "p3",\n "title": "", "text": "x"}\n',
    "trailing-comma": GOOD + b'{"id": "p3", "title": "", "text": "x",}\n',
    "nan-is-not-an-object": GOOD + b"NaN\n",
    # the first error in line order wins
    "duplicate-before-bad-bytes": GOOD + line("p1") + b"\n" + b"\xff\n",
    "bad-json-before-bad-bytes": GOOD + b"{\n" + b"\xff\n",
    "missing-key-before-bad-json": GOOD + b'{"id": "p3"}\n{\n',
    "a-lone-cr-ends-no-line": GOOD + line("p3") + b"\r" + line("p4") + b"\n",
    # valid
    "crlf-line-ends": GOOD.replace(b"\n", b"\r\n"),
    "spaces-before-the-cr": line("p2") + b"  \r\n" + line("p1") + b" \t\r\n",
    "a-lone-cr-line": GOOD + b"\r",
    "blank-and-whitespace-lines": b"\n" + line("p2") + b"\n  \t\n\r\n" + "  \n".encode()
    + line("p1") + b"\n\n",
    "no-final-newline": GOOD + line("p0"),
    "non-ascii-titles": line("p2", "Köln liegt am Rhein", "Köln") + b"\n"
    + line("p1", "東京", "東京 \U0001f600") + b"\n" + b'{"id": "p3", "title": "\\u00e9t\\u00e9",'
    b' "text": "smile \\ud83d\\ude00"}\n',
    "surrounding-whitespace": b"  " + line("p2") + b" \t\n" + line("p1") + b"   \n",
    "extra-keys-and-order": b'{"text": "x", "extra": [1, {"a": null}], "title": "", "id": "p1"}\n',
    "empty-file": b"",
    "unsorted-ids": line("b") + b"\n" + line("a") + b"\n" + line("B") + b"\n",
}


@pytest.mark.parametrize("data", list(PARITY.values()), ids=list(PARITY))
def test_load_corpus_matches_the_per_line_reference(tmp_path, data):
    path = tmp_path / "c.jsonl"
    path.write_bytes(data)
    try:
        want = load_corpus_per_line(path)
    except CorpusFormatError as expected:
        with pytest.raises(CorpusFormatError) as got:
            load_corpus(path)
        assert (str(got.value), got.value.line) == (str(expected), expected.line)
        return
    corpus = load_corpus(path)
    assert corpus.ids == [p.id for p in want]
    assert corpus.titles == [p.title for p in want]
    assert corpus.texts == [p.text for p in want]
    assert list(corpus) == want
    assert corpus.sha256 == hashlib.sha256(data).hexdigest()


def test_crlf_lines_take_the_scanner_path(tmp_path, monkeypatch):
    rows = [line(f"p{i}", f"text {i}", f"t{i}") for i in (3, 1, 2)]
    lf, crlf = tmp_path / "lf.jsonl", tmp_path / "crlf.jsonl"
    lf.write_bytes(b"\n".join(rows) + b"\n")
    crlf.write_bytes(b"\r\n".join(rows) + b"\r\n")
    want = load_corpus(lf)

    def refuse(*args, **kwargs):
        raise AssertionError("json.loads called")

    monkeypatch.setattr("hyperhop.corpus.json.loads", refuse)
    got = load_corpus(crlf)
    assert (got.ids, got.titles, got.texts) == (want.ids, want.titles, want.texts)


def test_the_parity_table_holds_the_errors_of_the_older_loader(tmp_path):
    """Cases that a faster parser could get wrong keep the errors the
    per-line loader gives: the table is no weaker than it reads."""
    expected = {
        "utf8-bom": "line 1: invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)",
        "nbsp-before-the-object": "line 3: invalid JSON: Expecting value",
        "two-objects-on-one-line": "line 3: invalid JSON: Extra data",
        "one-object-over-two-lines":
            "line 3: invalid JSON: Expecting property name enclosed in double quotes",
        "not-utf8-on-line-3": "line 3: not UTF-8 at byte 36",
        "unterminated-string": "line 3: invalid JSON: Invalid control character at",
        "a-lone-cr-ends-no-line": "line 3: invalid JSON: Extra data",
    }
    for case, message in expected.items():
        path = tmp_path / f"{case}.jsonl"
        path.write_bytes(PARITY[case])
        with pytest.raises(CorpusFormatError) as got:
            load_corpus(path)
        assert str(got.value) == message, case
