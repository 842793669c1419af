from __future__ import annotations

import socket
from itertools import chain
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np
import pytest

from hyperhop.corpus import Corpus, Passage, passage_sha256
from hyperhop.embeddings import (
    EntityRows,
    OfflineEncoder,
    PassageRows,
    embed_batch,
    norms_and_buckets,
    row_norms,
)
from hyperhop.entities import (
    EntitySets,
    ExtractionCache,
    ExtractionClient,
    OfflineEntityExtractor,
    extract_corpus_entities,
)
from hyperhop.index_store import HypergraphIndex, build_index

DATA_DIR = Path(__file__).parent / "data"

# Toy corpus: three passages chained by shared entities.
TOY_SETS = {
    "P1": ["albert einstein", "germany"],
    "P2": ["germany", "berlin", "european union"],
    "P3": ["european union", "brussels"],
}


def corpus_of(passages: Sequence[Passage]) -> Corpus:
    """The Corpus of ``passages`` in their order, parsed from no file."""
    columns = ([p.id for p in passages], [p.title for p in passages], [p.text for p in passages])
    return Corpus(*columns, sha256="")


def extract_through(
    cache: ExtractionCache,
    passages: Corpus | Sequence[Passage],
    extractor: ExtractionClient | None = None,
    max_workers: int = 1,
) -> EntitySets:
    """``extract_corpus_entities`` of ``passages`` through ``cache``, keyed by
    their ``passage_sha256``, with the offline extractor when none is given."""
    corpus = passages if isinstance(passages, Corpus) else corpus_of(passages)
    keys = list(map(passage_sha256, corpus.titles, corpus.texts))
    extractor = extractor if extractor is not None else OfflineEntityExtractor()
    return extract_corpus_entities(corpus, extractor, cache, max_workers, keys=keys)


def cached_rows(cache, records) -> np.ndarray:
    """The float32 matrix of the rows of ``records`` in an
    ``EmbeddingCache``: the values that ``read_rows`` gathers into
    ``EntityRows``."""
    return cache.read_rows(records, EntityRows).values


def embed_cached(texts, client, cache, batch_size: int = 64) -> np.ndarray:
    """``embed_batch`` of ``texts`` through ``cache``, as the float32 matrix
    of the ``EntityRows`` it gathers."""
    return embed_batch(texts, client, cache, batch_size, layout=EntityRows).values


def entity_rows_of(values) -> EntityRows:
    """The ``EntityRows`` of the float32 matrix ``values``, made as a build
    and a load make them: from each row's ``norms_and_buckets``."""
    values = np.asarray(values, dtype=np.float32)
    return EntityRows.from_buckets(values, *norms_and_buckets(values))


def passage_rows_of(values) -> PassageRows:
    """The read-only ``PassageRows`` of the float32 (n_passages, dim) matrix
    ``values``: its columns and its ``row_norms``, as a build gathers them."""
    values = np.asarray(values, dtype=np.float32)
    columns, norms = np.ascontiguousarray(values.T), row_norms(values)
    columns.flags.writeable = norms.flags.writeable = False
    return PassageRows(columns, norms)


def entity_sets_of(sets_by_pid: Mapping[str, Sequence[str]]) -> EntitySets:
    """The EntitySets of passage id -> entity list, passages in id order."""
    pids = sorted(sets_by_pid)
    names = list(dict.fromkeys(chain.from_iterable(sets_by_pid.values())))
    name_ids = dict(zip(names, range(len(names))))
    ids = [name_ids[name] for pid in pids for name in sets_by_pid[pid]]
    offsets = np.zeros(len(pids) + 1, dtype=np.intp)
    np.cumsum([len(sets_by_pid[pid]) for pid in pids], out=offsets[1:])
    return EntitySets(pids, names, np.array(ids, dtype=np.intp), offsets)


def index_of(entity_names: Sequence[str], entity: str) -> int:
    """The row of ``entity`` in a list of entity names; ValueError when it
    is not one of them."""
    return entity_names.index(entity)


def index_from_sets(sets_by_pid: dict[str, list[str]], dim: int = 64) -> HypergraphIndex:
    """Assemble an in-memory index from passage-id -> entity list, embedded
    by the offline encoder."""
    entity_sets = entity_sets_of(sets_by_pid)
    encoder = OfflineEncoder(dim=dim)
    entity_embeddings = embed_batch(entity_sets.catalog, encoder)
    passage_embeddings = embed_batch([f"text of {pid}" for pid in entity_sets.passage_ids], encoder)
    return build_index(
        entity_sets, entity_rows_of(entity_embeddings), passage_rows_of(passage_embeddings)
    )


@pytest.fixture
def toy_index() -> HypergraphIndex:
    return index_from_sets(TOY_SETS)


@pytest.fixture
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture
def no_network(monkeypatch):
    """Fail the test if anything opens a socket."""

    def guard(*args, **kwargs):
        raise AssertionError("network access attempted in offline mode")

    monkeypatch.setattr(socket, "socket", guard)
    monkeypatch.setattr(socket, "create_connection", guard)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def toy_built(tmp_path_factory):
    """Toy corpus run through the full offline build pipeline."""
    from hyperhop.config import AppConfig
    from hyperhop.corpus import load_corpus
    from hyperhop.pipeline import build_index_from_corpus

    root = tmp_path_factory.mktemp("toy_build")
    config = AppConfig(
        corpus=str(DATA_DIR / "toy_corpus.jsonl"),
        index_dir=str(root / "index"),
        cache_dir=str(root / "cache"),
        offline=True,
    )
    index, manifest = build_index_from_corpus(config)
    return index, load_corpus(config.corpus), manifest
