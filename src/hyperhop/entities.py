"""Entity extraction, normalization, and the global entity catalog.

Entities are the fine-grained nodes of the hypergraph. Each passage yields
an ordered, deduplicated set of normalized entity strings; the union over
all passages (in ascending passage-id order) defines the catalog that maps
entity strings to dense row indices.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import re
import threading
import unicodedata
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator, Protocol, Sequence

from .corpus import Passage, read_jsonl
from .embeddings import open_cache
from .errors import ContractError, CorpusFormatError, ExtractionError

# Tokens that may never start a capitalized span in the offline extractor.
_SPAN_STOPWORDS = frozenset(
    """
    a an the and or but nor so yet if then than as at by for from in into of
    on onto over to under with without is are was were be been being am do
    does did done have has had will would shall should can could may might
    must he she it they them we us you i me his her hers its their theirs
    our ours your yours my mine this that these those there here when where
    why how what which who whom whose while during between after before
    about against not no yes also
    """.split()
)

_TOKEN_RE = re.compile(r"\w[\w'’\-]*", re.UNICODE)


def normalize_entity(raw: str) -> str:
    """Canonicalize an entity string: NFC, lowercase, collapsed whitespace.

    Returns "" when nothing survives, which callers treat as a signal to
    drop the entity.
    """
    text = unicodedata.normalize("NFC", raw).lower()
    return " ".join(text.split())


# A corpus names each entity in many passages. The memo's bound is over twice
# the largest benchmark catalog (50k names); past it the least recent names
# are normalized again.
@functools.lru_cache(maxsize=1 << 17)
def _is_normalized(entity: str) -> bool:
    return entity == normalize_entity(entity)


@dataclass(frozen=True)
class EntitySet:
    """Normalized, deduplicated entities of one passage (order preserved)."""

    passage_id: str
    entities: tuple[str, ...]

    def __post_init__(self):
        entities = self.entities
        # Each check runs as one C-level pass; only a failing set goes through
        # the loop, which names its first offending entity.
        if (
            all(entities)
            and all(map(_is_normalized, entities))
            and len(set(entities)) == len(entities)
        ):
            return
        seen = set()
        for ent in entities:
            if not ent:
                raise ContractError(f"empty entity in set for passage {self.passage_id!r}")
            if not _is_normalized(ent):
                raise ContractError(f"entity {ent!r} is not normalized")
            if ent in seen:
                raise ContractError(f"duplicate entity {ent!r} in passage {self.passage_id!r}")
            seen.add(ent)


class EntityCatalog:
    """Bijection between normalized entity strings and indices in [0, n).

    One dict holds it: its keys, in order, are the entities.
    """

    def __init__(self, entities: Iterable[str] = ()):
        entities = list(entities)
        self._index: dict[str, int] = dict(zip(entities, range(len(entities))))
        if len(self._index) != len(entities):
            # Repeats keep their first position.
            self._index = dict(zip(dict.fromkeys(entities), range(len(entities))))

    def index_of(self, entity: str) -> int:
        try:
            return self._index[entity]
        except KeyError:
            raise KeyError(f"entity {entity!r} not in catalog") from None

    def indices_of(self, entities: Iterable[str]) -> Iterator[int]:
        """The index of each entity, lazily; a missing one raises a bare KeyError."""
        return map(self._index.__getitem__, entities)

    def __len__(self) -> int:
        return len(self._index)

    def to_list(self) -> list[str]:
        return list(self._index)


def build_catalog(entity_sets: Sequence[EntitySet]) -> EntityCatalog:
    """Union all entity sets into a catalog, indices in first-seen order.

    Callers must pass the sets in the deterministic indexing order
    (ascending passage id) for reproducible index assignment.
    """
    mentions = chain.from_iterable(map(attrgetter("entities"), entity_sets))
    return EntityCatalog(dict.fromkeys(mentions))


class ExtractionClient(Protocol):
    def extract(self, title: str, text: str) -> list[str]:
        """Return raw (unnormalized) entity strings for one passage."""
        ...


class OfflineEntityExtractor:
    """Deterministic fallback extractor: runs of capitalized tokens.

    A span is a maximal run of capitalized tokens whose lowercased forms are
    not stopwords. Works without any model and is the extractor used by the
    test fixtures and offline mode.
    """

    extractor_id = "offline-capitalized-spans"

    def extract(self, title: str, text: str) -> list[str]:
        spans: list[str] = []
        current: list[str] = []
        prev_end = 0
        for match in _TOKEN_RE.finditer(text):
            token = match.group(0)
            # Punctuation between tokens (periods, commas, ...) breaks a span.
            contiguous = text[prev_end : match.start()].isspace() or prev_end == 0
            if not contiguous and current:
                spans.append(" ".join(current))
                current = []
            if token[0].isalpha() and token[0].isupper() and token.lower() not in _SPAN_STOPWORDS:
                current.append(token)
            else:
                if current:
                    spans.append(" ".join(current))
                    current = []
            prev_end = match.end()
        if current:
            spans.append(" ".join(current))
        return spans


class RemoteEntityExtractor:
    """LLM-backed extractor over an OpenAI-compatible chat endpoint.

    Sends the configured one-shot prompt with temperature 0 and parses the
    reply as a JSON array of strings (falling back to one entity per line).
    """

    def __init__(self, chat_client, prompt_template: str):
        if "{text}" not in prompt_template:
            raise ContractError("extraction prompt template must contain {text}")
        self._chat = chat_client
        self._template = prompt_template

    def extract(self, title: str, text: str) -> list[str]:
        prompt = self._template.format(title=title, text=text)
        reply = self._chat.complete(prompt)
        return _parse_entity_reply(reply)


def _parse_entity_reply(reply: str) -> list[str]:
    reply = reply.strip()
    # Tolerate fenced code blocks around the JSON payload.
    if reply.startswith("```"):
        reply = re.sub(r"^```[a-zA-Z]*\n?|```$", "", reply).strip()
    start, end = reply.find("["), reply.rfind("]")
    if start != -1 and end > start:
        try:
            parsed = json.loads(reply[start : end + 1])
            if isinstance(parsed, list):
                return [str(item) for item in parsed]
        except json.JSONDecodeError:
            pass
    return [line.strip(" -*\t") for line in reply.splitlines() if line.strip(" -*\t")]


def passage_sha256(passage: Passage) -> str:
    """The sha256 of what an extractor reads of a passage: its title and text.

    The title's length goes first, so no other title and text hash alike.
    """
    content = f"{len(passage.title)}:{passage.title}{passage.text}"
    return hashlib.sha256(content.encode("utf-8")).hexdigest()


class ExtractionCache:
    """Append-only cache of extraction results, keyed by passage content.

    The cache is a directory. Its ``manifest.json`` names the extractor (the
    offline tag, or the chat model and the sha256 of the prompt); opening for
    another one wipes the cache (see ``embeddings.open_cache``).
    ``records.jsonl`` holds one ``{"passage_sha256", "entities"}`` object per
    line. The key is ``passage_sha256``, the hash of all an extractor reads
    of a passage, so an edited title or text is a miss and the entry of the
    old text stays valid for it. When a key repeats, the last line wins.
    Opening truncates a last line that has no newline, the torn tail of a
    crashed append; a complete line that is not such an entry raises
    CorpusFormatError naming the file and the line. ``put`` queues a line and
    ``flush`` appends the queued lines in one write; both are serialized.

    Opening interns the entity strings, so all mentions of a name are one
    object, hashed once and matched by identity in every later dict lookup.
    Each entry keeps its entities as a tuple, which ``get`` hands to its
    EntitySet without a copy.
    """

    def __init__(self, directory: str | Path, extractor_id: str):
        directory = Path(directory)
        open_cache(directory, {"extractor_id": extractor_id})
        self._records = directory / "records.jsonl"
        self._entries: dict[str, tuple[str, ...]] = {}
        self._queued: list[str] = []
        self._lock = threading.Lock()
        with self._records.open("ab+") as fh:  # made when missing
            fh.seek(max(fh.seek(0, os.SEEK_END) - 1, 0))
            if fh.read(1) not in (b"", b"\n"):  # the torn tail of a crashed append
                fh.seek(0)
                fh.truncate(fh.read().rfind(b"\n") + 1)
        names: dict[str, str] = {}
        try:
            for lineno, obj in read_jsonl(self._records):
                key, entities = obj.get("passage_sha256"), obj.get("entities")
                if not (
                    isinstance(key, str)
                    and isinstance(entities, list)
                    and all(map(str.__instancecheck__, entities))
                ):
                    raise CorpusFormatError(
                        "an entry needs a string 'passage_sha256' and a list of strings "
                        "in 'entities'",
                        line=lineno,
                    )
                self._entries[key] = tuple(map(names.setdefault, entities, entities))
        except CorpusFormatError as exc:
            raise CorpusFormatError(f"extraction cache {self._records}: {exc}") from None

    def get(self, key: str) -> tuple[str, ...] | None:
        return self._entries.get(key)

    def put(self, key: str, entities: Sequence[str]) -> None:
        entities = tuple(entities)
        line = json.dumps({"passage_sha256": key, "entities": entities}, ensure_ascii=False)
        with self._lock:
            self._entries[key] = entities
            self._queued.append(line + "\n")

    def flush(self) -> None:
        with self._lock:
            if self._queued:
                with self._records.open("a", encoding="utf-8") as fh:
                    fh.write("".join(self._queued))
                self._queued.clear()


def extract_entities(
    passage: Passage,
    extractor: ExtractionClient,
    cache: ExtractionCache | None = None,
) -> EntitySet:
    """Extract, normalize and deduplicate entities for one passage.

    Cache hits bypass the extractor entirely. An extractor failure (remote
    clients retry inside ``remote.post_json``) surfaces as ExtractionError
    carrying the passage id. An empty extraction result is valid and yields
    an empty EntitySet.
    """
    if cache is not None:
        key = passage_sha256(passage)
        cached = cache.get(key)
        if cached is not None:
            return EntitySet(passage_id=passage.id, entities=cached)

    try:
        raw = extractor.extract(passage.title, passage.text)
    except Exception as exc:
        raise ExtractionError(
            f"extraction failed for passage {passage.id!r}: {exc}", passage_id=passage.id
        ) from exc

    entities = tuple(dedup_normalized(raw))
    if cache is not None:
        cache.put(key, entities)
    return EntitySet(passage_id=passage.id, entities=entities)


def dedup_normalized(raw_entities: Iterable[str]) -> list[str]:
    """Normalize raw entity strings, dropping empties and later duplicates.

    Each distinct raw string is normalized once, at its first position.
    """
    entities = dict.fromkeys(map(normalize_entity, dict.fromkeys(raw_entities)))
    entities.pop("", None)
    return list(entities)


def extract_corpus_entities(
    passages: Sequence[Passage],
    extractor: ExtractionClient,
    cache: ExtractionCache | None = None,
    max_workers: int = 1,
) -> list[EntitySet]:
    """Extract entity sets for a whole corpus, preserving passage order.

    ``max_workers`` bounds in-flight extraction requests; results come back
    aligned with ``passages`` regardless of completion order. The cache is
    flushed however the extraction ends, so a failed or interrupted build
    keeps what it extracted.
    """
    try:
        if max_workers <= 1:
            return [extract_entities(p, extractor, cache) for p in passages]
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            return list(pool.map(lambda p: extract_entities(p, extractor, cache), passages))
    finally:
        if cache is not None:
            cache.flush()
