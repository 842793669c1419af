"""Corpus loading.

A corpus is a JSONL file, one passage per line, with string keys
``id``, ``title`` and ``text``. Passages are the coarse-grained unit of
retrieval and become the hyperedges of the entity hypergraph. A passage's
content has one key, ``passage_sha256``, by which both build caches find
its records, and one embedded text, ``passage_embedding_text``.
"""

from __future__ import annotations

import hashlib
import json
import re
from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from .errors import CorpusFormatError

_REQUIRED_KEYS = ("id", "title", "text")

# Strict UTF-8 decoding refuses a surrogate's bytes: only a JSON escape makes one.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")

# The JSON scanner that ``json.loads`` runs (the C one where it is built),
# without the wrappers that ``json.loads`` spends per call.
_SCAN = json.JSONDecoder().scan_once


@dataclass(frozen=True)
class Passage:
    """One corpus unit. ``text`` is non-empty after whitespace trim."""

    id: str
    title: str
    text: str


@dataclass(frozen=True, eq=False)
class Corpus:
    """The passages of a corpus file as columns, sorted by ascending id, and
    the hex ``sha256`` of the bytes they were parsed from.

    A build reads the columns; ``corpus[i]`` makes the i-th passage a
    ``Passage`` for the few places that need one (an extractor call, a chat
    prompt).
    """

    ids: list[str]
    titles: list[str]
    texts: list[str]
    sha256: str

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i: int) -> Passage:
        return Passage(self.ids[i], self.titles[i], self.texts[i])

    def passages(self, ids: Iterable[str]) -> list[Passage]:
        """The passages of ``ids`` that the corpus holds, in that order."""
        found = []
        for pid in ids:
            i = bisect_left(self.ids, pid)
            if i < len(self.ids) and self.ids[i] == pid:
                found.append(self[i])
        return found


def passage_sha256(title: str, text: str) -> bytes:
    """The raw sha256 of a passage's content, its title and text: the key of
    both build caches' records.

    The title's length goes first, so no other title and text hash alike.
    """
    content = f"{len(title)}:{title}{text}"
    return hashlib.sha256(content.encode("utf-8")).digest()


def passage_embedding_text(title: str, text: str) -> str:
    """The text an encoder embeds of a passage: its title and text, or
    only its text when it has no title."""
    return f"{title}\n{text}" if title else text


def parse_jsonl(data: bytes) -> Iterator[tuple[int, dict]]:
    """Each non-blank line of the JSONL bytes ``data`` as ``(line number,
    JSON object)``; lines end at ``\\n``.

    Raises CorpusFormatError naming the line on bytes that are not UTF-8,
    invalid JSON, a value that is not an object, or a ``\\u`` escape of a
    lone surrogate, which no UTF-8 text holds. The lines before the first
    bad one are yielded first, so errors come in line order.

    ``data`` is decoded once, and each line is one call of the JSON
    scanner. A line that the scanner does not take whole, up to its ``\n``
    or a ``\r`` just before it (surrounding whitespace, a blank line, a
    malformed one), goes through ``json.loads``, which accepts it or raises
    its exact error.
    """
    try:
        text, bad_bytes = data.decode("utf-8"), None
    except UnicodeDecodeError as exc:
        start = data.rfind(b"\n", 0, exc.start) + 1
        text = data[:start].decode("utf-8")
        bad_bytes = CorpusFormatError(
            f"not UTF-8 at byte {exc.start - start}", line=data.count(b"\n", 0, start) + 1
        )
    surrogates = _SURROGATE_ESCAPE.search(text) is not None
    pos, lineno = 0, 0
    while pos <= len(text):
        lineno += 1
        stop = text.find("\n", pos)
        if stop < 0:
            stop = len(text)
        line_start, pos = pos, stop + 1
        try:
            obj, end = _SCAN(text, line_start)
        except (StopIteration, ValueError):
            end = -1
        # "\r" is JSON whitespace: a scan that ends at a CRLF's "\r" took the line whole.
        if end != stop and not (end == stop - 1 and text[end:stop] == "\r"):
            line = text[line_start:pos]  # with its "\n", as json.loads always saw it
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(f"invalid JSON: {exc.msg}", line=lineno) from exc
        if not isinstance(obj, dict):
            raise CorpusFormatError("expected a JSON object", line=lineno)
        if surrogates and _SURROGATE_ESCAPE.search(text, line_start, stop):
            try:
                json.dumps(obj, ensure_ascii=False).encode("utf-8")
            except UnicodeEncodeError as exc:
                raise CorpusFormatError("not UTF-8: a lone surrogate", line=lineno) from exc
        yield lineno, obj
    if bad_bytes is not None:
        raise bad_bytes


def load_corpus(path: str | Path) -> Corpus:
    """Load the passages of a JSONL file as a Corpus, sorted by ascending id.

    The file is read once; the Corpus's ``sha256`` is the digest of those
    bytes. Raises CorpusFormatError naming the line number on a line that
    ``parse_jsonl`` rejects, missing keys, empty text, or duplicate ids.
    """
    data = Path(path).read_bytes()
    ids: list[str] = []
    titles: list[str] = []
    texts: list[str] = []
    seen: dict[str, int] = {}
    for lineno, obj in parse_jsonl(data):
        pid, title, text = map(obj.get, _REQUIRED_KEYS)
        if not (isinstance(pid, str) and isinstance(title, str) and isinstance(text, str)):
            key = next(k for k in _REQUIRED_KEYS if not isinstance(obj.get(k), str))
            problem = f"key {key!r} must be a string" if key in obj else f"missing key {key!r}"
            raise CorpusFormatError(problem, line=lineno)
        if not text or text.isspace():
            raise CorpusFormatError("empty text", line=lineno)
        if pid in seen:
            raise CorpusFormatError(
                f"duplicate passage id {pid!r} (first seen at line {seen[pid]})",
                line=lineno,
            )
        seen[pid] = lineno
        ids.append(pid)
        titles.append(title)
        texts.append(text)
    order = sorted(range(len(ids)), key=ids.__getitem__)
    return Corpus(
        ids=[ids[i] for i in order],
        titles=[titles[i] for i in order],
        texts=[texts[i] for i in order],
        sha256=hashlib.sha256(data).hexdigest(),
    )
