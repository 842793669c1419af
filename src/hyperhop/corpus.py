"""Corpus loading.

A corpus is a JSONL file, one passage per line, with string keys
``id``, ``title`` and ``text``. Passages are the coarse-grained unit of
retrieval and become the hyperedges of the entity hypergraph.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from .errors import CorpusFormatError

_REQUIRED_KEYS = ("id", "title", "text")

# Strict UTF-8 decoding refuses a surrogate's bytes: only a JSON escape makes one.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


@dataclass(frozen=True)
class Passage:
    """One corpus unit. ``text`` is non-empty after whitespace trim."""

    id: str
    title: str
    text: str


def read_jsonl(path: str | Path) -> Iterator[tuple[int, dict]]:
    """Each non-blank line of a JSONL file as ``(line number, JSON object)``.

    Raises CorpusFormatError naming the line on bytes that are not UTF-8,
    invalid JSON, a value that is not an object, or a ``\\u`` escape of a
    lone surrogate, which no UTF-8 text holds.
    """
    with Path(path).open("rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CorpusFormatError(f"not UTF-8 at byte {exc.start}", line=lineno) from exc
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(f"invalid JSON: {exc.msg}", line=lineno) from exc
            if not isinstance(obj, dict):
                raise CorpusFormatError("expected a JSON object", line=lineno)
            if _SURROGATE_ESCAPE.search(line):
                try:
                    json.dumps(obj, ensure_ascii=False).encode("utf-8")
                except UnicodeEncodeError as exc:
                    raise CorpusFormatError("not UTF-8: a lone surrogate", line=lineno) from exc
            yield lineno, obj


def load_corpus(path: str | Path) -> list[Passage]:
    """Load passages from a JSONL file, sorted by ascending id.

    Raises CorpusFormatError naming the line number on a line that
    ``read_jsonl`` rejects, missing keys, empty text, or duplicate ids.
    """
    passages: list[Passage] = []
    seen: dict[str, int] = {}
    for lineno, obj in read_jsonl(path):
        for key in _REQUIRED_KEYS:
            if key not in obj:
                raise CorpusFormatError(f"missing key {key!r}", line=lineno)
            if not isinstance(obj[key], str):
                raise CorpusFormatError(f"key {key!r} must be a string", line=lineno)
        if not obj["text"].strip():
            raise CorpusFormatError("empty text", line=lineno)
        pid = obj["id"]
        if pid in seen:
            raise CorpusFormatError(
                f"duplicate passage id {pid!r} (first seen at line {seen[pid]})",
                line=lineno,
            )
        seen[pid] = lineno
        passages.append(Passage(id=pid, title=obj["title"], text=obj["text"]))
    passages.sort(key=lambda p: p.id)
    return passages


def corpus_digest(path: str | Path) -> str:
    """SHA-256 of the raw corpus file, used to fingerprint an index build."""
    h = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
