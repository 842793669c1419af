"""Entity extraction, normalization, and the global entity catalog.

Entities are the fine-grained nodes of the hypergraph. Each passage yields
an ordered, deduplicated set of normalized entity strings. The sets of a
corpus travel as one ``EntitySets``: name ids into a table of names, so a
cached passage adds no Python object beyond its content hash. Its
``catalog`` names the index's entity rows.
"""

from __future__ import annotations

import functools
import json
import re
import threading
import unicodedata
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path
from typing import Iterable, Protocol, Sequence

import numpy as np

from .corpus import Corpus, Passage
from .embeddings import CACHE_KEY, append_committed, check_cache_keys, open_cache, text_key
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

# Runs of tokens (``\w[\w'’-]*``) separated only by whitespace: any other
# character between two tokens ends a run. ``\s`` and ``str.split`` take the
# characters of ``str.isspace`` as whitespace.
_RUN_RE = re.compile(r"\w[\w'’\-]*(?:\s+\w[\w'’\-]*)*")


def normalize_entity(raw: str) -> str:
    """Canonicalize an entity string: NFC, lowercase, collapsed whitespace.

    Returns "" when nothing survives, which callers treat as a signal to
    drop the entity.
    """
    text = unicodedata.normalize("NFC", raw).lower()
    return " ".join(text.split())


# A corpus names each entity in many passages. The memos' bound is over twice
# the largest benchmark catalog (50k names); past it the least recent names
# are normalized again.
@functools.lru_cache(maxsize=1 << 17)
def _is_normalized(entity: str) -> bool:
    return entity == normalize_entity(entity)


_normalized = functools.lru_cache(maxsize=1 << 17)(normalize_entity)


# Ten times the distinct tokens of either benchmark corpus (about 6k).
@functools.lru_cache(maxsize=1 << 16)
def _starts_span(token: str) -> bool:
    """Whether ``token`` may be part of a span: capitalized, not a stopword."""
    return token[0].isalpha() and token[0].isupper() and token.lower() not in _SPAN_STOPWORDS


@dataclass(frozen=True, eq=False)
class EntitySets:
    """The normalized, deduplicated entities of each passage, as name ids.

    Passage ``passage_ids[j]`` has the entities ``names[i]`` for ``i`` in
    ``ids[offsets[j]:offsets[j + 1]]``, in extraction order. Construction
    raises ContractError unless ``offsets`` frames ``ids`` into one span per
    passage (from 0, never decreasing, to ``len(ids)``), every id is a
    position of ``names``, and the names the sets use are distinct,
    nonempty, normalized and not repeated in a passage, naming the first
    offending entity of the first offending passage. Unused names are free.
    """

    passage_ids: Sequence[str]
    names: Sequence[str]
    ids: np.ndarray  # integer, len nnz
    offsets: np.ndarray  # integer, len(passage_ids) + 1

    def __post_init__(self):
        names, ids, offsets = self.names, self.ids, self.offsets
        framed = len(offsets) == len(self) + 1 and offsets[0] == 0 and offsets[-1] == len(ids)
        if not (framed and (np.diff(offsets) >= 0).all()):
            raise ContractError(
                f"entity sets: offsets do not frame {len(ids)} ids into {len(self)} passages"
            )
        outside = ids[(ids < 0) | (ids >= len(names))]
        if outside.size:
            raise ContractError(f"entity sets: id {outside[0]} is not one of {len(names)} names")
        # One sort of (passage, id) keys puts the repeats of a passage side by side.
        keys = np.sort(self.columns() * len(names) + ids)
        if (
            all(name and _is_normalized(name) for name in self.catalog)
            and not (keys[1:] == keys[:-1]).any()
            and distinct(self.catalog)
        ):
            return
        for passage, passage_id in enumerate(self.passage_ids):  # name the first offense
            seen = set()
            for ent in self.entities(passage):
                if not ent:
                    raise ContractError(f"empty entity in set for passage {passage_id!r}")
                if not _is_normalized(ent):
                    raise ContractError(f"entity {ent!r} is not normalized")
                if ent in seen:
                    raise ContractError(f"duplicate entity {ent!r} in passage {passage_id!r}")
                seen.add(ent)
        repeated = next(name for name, count in Counter(self.catalog).items() if count > 1)
        raise ContractError(f"entity sets: the name {repeated!r} has two ids")

    def __len__(self) -> int:
        return len(self.passage_ids)

    def columns(self) -> np.ndarray:
        """The passage of each id, as intp."""
        sizes = np.diff(self.offsets)
        return np.repeat(np.arange(len(sizes), dtype=np.intp), sizes)

    def entities(self, passage: int) -> tuple[str, ...]:
        """The entity names of the ``passage``-th passage."""
        span = self.ids[self.offsets[passage] : self.offsets[passage + 1]]
        return tuple(self.names[i] for i in span.tolist())

    @functools.cached_property
    def catalog(self) -> list[str]:
        """The used names in first-seen order, by passage then by position."""
        return [self.names[i] for i in self.catalog_ids.tolist()]

    @functools.cached_property
    def rows(self) -> np.ndarray:
        """The catalog row of each id, as intp."""
        row_of = np.empty(len(self.names), dtype=np.intp)
        row_of[self.catalog_ids] = np.arange(len(self.catalog_ids))
        return row_of[self.ids]

    @functools.cached_property
    def catalog_ids(self) -> np.ndarray:
        """The ids of the used names, in first-seen order: the catalog's."""
        first = np.full(len(self.names), len(self.ids), dtype=np.intp)
        np.minimum.at(first, self.ids, np.arange(len(self.ids), dtype=np.intp))
        used = np.flatnonzero(first < len(self.ids))
        return used[np.argsort(first[used])]


def distinct(strings: Sequence[str]) -> bool:
    """Whether no string repeats: no two int64 hashes are equal after one
    sort of them in place, or else a set of the strings has one per string.
    The sort takes 8 bytes a string; a set of them all takes 50 to 100."""
    hashes = np.fromiter(map(hash, strings), dtype=np.int64, count=len(strings))
    hashes.sort()
    return not (hashes[1:] == hashes[:-1]).any() or len(set(strings)) == len(strings)


class ExtractionClient(Protocol):
    def extract(self, title: str, text: str) -> list[str]:
        """Return raw (unnormalized) entity strings for one passage."""
        ...


class OfflineEntityExtractor:
    """Deterministic fallback extractor: runs of capitalized tokens.

    A span is a maximal run of capitalized tokens whose lowercased forms are
    not stopwords, joined by whitespace alone; punctuation between tokens
    breaks a span. Works without any model and is the extractor used by the
    test fixtures and offline mode.

    The per-token definition in ``tests/reference.py`` (``extract_spans``)
    is the specification. Here one regex finds the whitespace-joined runs of
    tokens, and whether a token may start or extend a span is decided once
    per distinct token, through a memo of at most 2**16 tokens.
    """

    extractor_id = "offline-capitalized-spans"

    def extract(self, title: str, text: str) -> list[str]:
        spans: list[str] = []
        for run in _RUN_RE.findall(text):
            current: list[str] = []
            for token in run.split():
                if _starts_span(token):
                    current.append(token)
                elif current:
                    spans.append(" ".join(current))
                    current = []
            if current:
                spans.append(" ".join(current))
        return spans


class RemoteEntityExtractor:
    """LLM-backed extractor over an OpenAI-compatible chat endpoint.

    Sends the configured one-shot prompt with temperature 0 and parses the
    reply as a JSON array, keeping its string items (falling back to one
    entity per line).
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
    """The entity names of a chat reply; raises ExtractionError on a name
    that UTF-8 cannot encode, such as a JSON escape of a lone surrogate
    makes, before it can reach a cache."""
    names = _reply_names(reply)
    for name in names:
        try:
            name.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ExtractionError(
                f"the reply holds an entity that is not valid UTF-8 at character {exc.start}:"
                f" {name!r}"
            ) from None
    return names


def _reply_names(reply: str) -> list[str]:
    reply = reply.strip()
    # Tolerate fenced code blocks around the JSON payload.
    if reply.startswith("```"):
        reply = re.sub(r"^```[a-zA-Z]*\n?|```$", "", reply).strip()
    start, end = reply.find("["), reply.rfind("]")
    if start != -1 and end > start:
        try:
            parsed = json.loads(reply[start : end + 1])
            if isinstance(parsed, list):
                return [item for item in parsed if isinstance(item, str)]
        except json.JSONDecodeError:
            pass
    return [line.strip(" -*\t") for line in reply.splitlines() if line.strip(" -*\t")]


# An entry record: the raw passage_sha256, then the count of the entry's ids.
_ENTRY = np.dtype([("key", CACHE_KEY), ("count", "<u4")])
_LAYOUT = 2  # the array layout; the older records.jsonl one had no tag
_FILES = ("names.txt", "ids.bin", "entries.bin")  # the files of the entries
_WRITES = ("names.txt", "keys.bin", "ids.bin", "entries.bin")  # in the order an append writes


class ExtractionCache:
    """Append-only cache of extraction results, keyed by passage content.

    The cache is a directory. Its ``manifest.json`` names the extractor
    (the offline tag, or the chat model and the sha256 of the prompt) and
    the layout; opening for another one wipes the cache (see
    ``embeddings.open_cache``). An entry holds the entities of one passage
    content as ids into a table of names:

    - ``names.txt``: one name per line, UTF-8; a name's id is its line
      number, counted from 0.
    - ``ids.bin``: the int32 name ids of every entry, entry after entry.
    - ``entries.bin``: one record per entry, the 32-byte ``passage_sha256``
      and the uint32 count of the entry's ids.
    - ``keys.bin``: the 32-byte ``embeddings.text_key`` of each line of
      ``names.txt``, in line order, which the embedding cache keys the
      name's row by (``name_keys``).

    The key hashes all an extractor reads of a passage, so an edited title
    or text is a miss and the entry of the old text stays valid for it.
    When a key repeats, the last entry wins. Opening only reads: the
    committed entries are the whole records of ``entries.bin``, their ids
    and the whole lines of ``names.txt`` (a missing file is empty); files
    they cannot be read from (too few ids, an id past ``names.txt``, a
    repeated or non-UTF-8 name) raise CorpusFormatError naming the file.
    The keys of the names past the whole keys of ``keys.bin`` (a cache
    written before it, a torn append) are computed at opening. ``append``
    alone writes, from one thread: it writes its entries' new names, the
    keys ``keys.bin`` lacks, then the ids and records, in that file order
    and one write per file, each cut back to its committed bytes first. So
    an entry is committed once its record is whole.
    """

    def __init__(self, directory: str | Path, extractor_id: str):
        self._directory = directory = Path(directory)
        producer = {"extractor_id": extractor_id, "layout": _LAYOUT}
        self.close = open_cache(self, directory, producer)
        self.names, ids, entries, self._names_size = _read_committed(directory)
        self._name_ids = dict(zip(self.names, range(len(self.names))))
        if len(self._name_ids) != len(self.names):  # a repeat maps to its last line
            line = next(i for i, name in enumerate(self.names) if self._name_ids[name] != i)
            raise CorpusFormatError(
                f"extraction cache {directory / 'names.txt'}: line {line + 1} repeats"
                f" on line {self._name_ids[self.names[line]] + 1}"
            )
        self._entry_of = dict(zip(entries["key"].tolist(), range(len(entries))))
        self._ids, self._counts = ids, entries["count"].astype(np.intp)
        keys = directory / "keys.bin"
        stored = keys.read_bytes() if keys.exists() else b""
        self._keyed = min(len(stored) // CACHE_KEY.itemsize, len(self.names))  # whole keys on disk
        self._keys = np.concatenate(
            (np.frombuffer(stored, CACHE_KEY, self._keyed), _text_keys(self.names[self._keyed :]))
        )

    def lookup(self, keys: Sequence[bytes]) -> np.ndarray:
        """The entry of each key as intp, -1 for a miss."""
        entries = map(self._entry_of.get, keys, repeat(-1))
        return np.fromiter(entries, dtype=np.intp, count=len(keys))

    def name_keys(self, ids: np.ndarray) -> list[bytes]:
        """The ``embeddings.text_key`` of the name of each id."""
        return self._keys[ids].tolist()

    def append(self, keys: Sequence[bytes], entity_lists: Sequence[Sequence[str]]) -> None:
        """Append an entry per key, its list of distinct normalized names,
        and the keys of the names ``keys.bin`` lacks; a file with nothing to
        append is not written. Every key and new name is checked before the
        first write: a key that is not a raw sha256 or a name that is not a
        normalized entity raises ContractError, and nothing is appended.
        """
        check_cache_keys(keys)
        named = list(chain.from_iterable(entity_lists))
        fresh = [name for name in dict.fromkeys(named) if name not in self._name_ids]
        for name in fresh:
            if not name or not _is_normalized(name):
                raise ContractError(f"cannot cache {name!r}: not a normalized entity")
        lines = "".join(f"{name}\n" for name in fresh).encode()
        records = np.empty(len(keys), dtype=_ENTRY)
        records["key"], records["count"] = keys, list(map(len, entity_lists))
        self._name_ids.update(zip(fresh, range(len(self.names), len(self.names) + len(fresh))))
        self.names += fresh
        self._keys = np.concatenate((self._keys, _text_keys(fresh)))
        ids = np.fromiter(map(self._name_ids.__getitem__, named), dtype="<i4", count=len(named))
        committed = (
            self._names_size,
            CACHE_KEY.itemsize * self._keyed,
            4 * len(self._ids),
            _ENTRY.itemsize * len(self._counts),
        )
        data = (lines, self._keys[self._keyed :].tobytes(), ids.tobytes(), records.tobytes())
        for file, size, tail in zip(_WRITES, committed, data):
            if tail:
                append_committed(self._directory / file, size, tail)
        self._names_size += len(lines)
        self._keyed = len(self.names)
        self._entry_of.update(zip(keys, range(len(self._counts), len(self._counts) + len(keys))))
        self._ids = np.concatenate((self._ids, ids))
        self._counts = np.concatenate((self._counts, records["count"].astype(np.intp)))

    def entity_sets(self, passage_ids: Sequence[str], entries: np.ndarray) -> EntitySets:
        """The EntitySets of passages whose entries (from ``lookup``) are
        ``entries``, gathered with numpy. Every entry was appended checked,
        so entries that do not form valid sets (a repeated name in one
        entry, say, after a changed count) mean damaged cache files: that
        raises CorpusFormatError naming them."""
        counts = self._counts[entries]
        offsets = np.zeros(len(entries) + 1, dtype=np.intp)
        np.cumsum(counts, out=offsets[1:])
        starts = (np.cumsum(self._counts) - self._counts)[entries]
        gather = np.repeat(starts - offsets[:-1], counts) + np.arange(offsets[-1])
        try:
            return EntitySets(list(passage_ids), list(self.names), self._ids[gather], offsets)
        except ContractError as exc:
            raise CorpusFormatError(
                f"extraction cache {', '.join(str(self._directory / f) for f in _FILES)}: the"
                f" cached entries are damaged ({exc}); delete the cache directory"
                f" {self._directory} and build again"
            ) from None


def _text_keys(names: Sequence[str]) -> np.ndarray:
    return np.array(list(map(text_key, names)), dtype=CACHE_KEY)


def _read_committed(directory: Path) -> tuple[list[str], np.ndarray, np.ndarray, int]:
    """The names, ids and entry records of the committed entries, and the
    size of the whole lines of ``names.txt``; a missing file reads as empty."""
    paths = {name: directory / name for name in _FILES}
    text, ids, entries = (p.read_bytes() if p.exists() else b"" for p in paths.values())
    entries = np.frombuffer(entries, dtype=_ENTRY, count=len(entries) // _ENTRY.itemsize)
    n_ids = int(entries["count"].sum(dtype=np.int64))
    held = len(ids) // 4
    if held < n_ids:
        raise CorpusFormatError(
            f"extraction cache {paths['entries.bin']}: its records count {n_ids} ids,"
            f" ids.bin holds {held}"
        )
    ids = np.frombuffer(ids, dtype="<i4", count=n_ids)
    text = text[: text.rfind(b"\n") + 1]
    try:
        names = text.decode("utf-8").split("\n")[:-1]
    except UnicodeDecodeError as exc:
        raise CorpusFormatError(f"extraction cache {paths['names.txt']}: not UTF-8: {exc}") from None
    past = ids[(ids < 0) | (ids >= len(names))]
    if past.size:
        raise CorpusFormatError(
            f"extraction cache {paths['ids.bin']}: id {past[0]} is not a line of the"
            f" {len(names)} in names.txt"
        )
    return names, ids, entries, len(text)


def extract_entities(passage: Passage, extractor: ExtractionClient) -> list[str]:
    """Extract, normalize and deduplicate the entities of one passage.

    An extractor failure (remote clients retry inside ``remote.post_json``)
    surfaces as ExtractionError carrying the passage id. An empty
    extraction result is valid and yields no entities.
    """
    try:
        raw = extractor.extract(passage.title, passage.text)
    except Exception as exc:
        raise ExtractionError(
            f"extraction failed for passage {passage.id!r}: {exc}", passage_id=passage.id
        ) from exc
    return dedup_normalized(raw)


def dedup_normalized(raw_entities: Iterable[str]) -> list[str]:
    """Normalize raw entity strings, dropping empties and later duplicates.

    Each distinct raw string is normalized once, at its first position,
    through a memo of at most 2**17 strings.
    """
    entities = dict.fromkeys(map(_normalized, dict.fromkeys(raw_entities)))
    entities.pop("", None)
    return list(entities)


# Passages per task of a pooled extraction: a task per passage costs the
# pool's hand-off each time, which took more CPU than the extraction itself.
_TASK_PASSAGES = 256


def extract_corpus_entities(
    corpus: Corpus,
    extractor: ExtractionClient,
    cache: ExtractionCache,
    max_workers: int = 1,
    *,
    keys: Sequence[bytes],
) -> EntitySets:
    """Extract the entity sets of a whole corpus, aligned with its passages.

    ``keys`` are the passages' ``passage_sha256``. A passage whose content
    the cache holds is a hit: it costs one dict lookup and its share of a
    numpy gather, and no extractor call. The misses are deduplicated by
    key, so each distinct content is extracted once, at its first passage,
    and only that passage is made a ``Passage``. With ``max_workers`` above
    1, a pool of that many threads takes the misses in tasks of up to
    ``_TASK_PASSAGES`` passages, split so that every worker has one, and a
    task stops before its next passage once another has failed. The
    workers only extract; this thread appends every new entry in one
    ``ExtractionCache.append``, in passage order, however the extraction
    ends. So a failed or interrupted build keeps what it extracted, and the
    cache bytes do not depend on the workers. The hits' entries are
    gathered and checked (``ExtractionCache.entity_sets``) before anything
    is extracted or appended, so damaged entries fail the build before an
    append can cut the cache back to them.
    """
    entries = cache.lookup(keys)
    hits = entries >= 0
    misses = np.flatnonzero(~hits).tolist()
    hit_ids = [corpus.ids[i] for i in np.flatnonzero(hits).tolist()] if misses else corpus.ids
    checked = cache.entity_sets(hit_ids, entries[hits])
    # Each distinct missed content at its first passage, in passage order.
    firsts = sorted({keys[i]: i for i in reversed(misses)}.values())
    extracted: dict[int, list[str]] = {}
    failed = threading.Event()

    def extract(task: list[int]) -> None:
        try:
            for i in task:
                if failed.is_set():
                    return
                extracted[i] = extract_entities(corpus[i], extractor)
        except BaseException:
            failed.set()
            raise

    try:
        if max_workers <= 1:
            extract(firsts)
        else:
            size = max(1, min(_TASK_PASSAGES, -(-len(firsts) // max_workers)))
            with ThreadPoolExecutor(max_workers=max_workers) as pool:
                list(pool.map(extract, (firsts[s : s + size] for s in range(0, len(firsts), size))))
    finally:
        done = [i for i in firsts if i in extracted]
        cache.append([keys[i] for i in done], [extracted[i] for i in done])
    if not misses:
        return checked
    entries[misses] = cache.lookup([keys[i] for i in misses])
    return cache.entity_sets(corpus.ids, entries)
