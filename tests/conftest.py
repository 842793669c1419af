from __future__ import annotations

import socket
from pathlib import Path

import numpy as np
import pytest

from hyperhop.embeddings import OfflineEncoder, embed_batch
from hyperhop.entities import EntitySet, build_catalog
from hyperhop.index_store import HypergraphIndex, build_index

DATA_DIR = Path(__file__).parent / "data"

# Toy corpus: three passages chained by shared entities.
TOY_SETS = {
    "P1": ["albert einstein", "germany"],
    "P2": ["germany", "berlin", "european union"],
    "P3": ["european union", "brussels"],
}


def index_from_sets(sets_by_pid: dict[str, list[str]], dim: int = 64) -> HypergraphIndex:
    """Assemble an in-memory index from passage-id -> entity list, embedded
    by the offline encoder."""
    pids = sorted(sets_by_pid)
    entity_sets = [EntitySet(pid, tuple(sets_by_pid[pid])) for pid in pids]
    catalog = build_catalog(entity_sets)
    encoder = OfflineEncoder(dim=dim)
    entity_embeddings = embed_batch(catalog.to_list(), encoder)
    passage_embeddings = embed_batch([f"text of {pid}" for pid in pids], encoder)
    return build_index(entity_sets, catalog, pids, entity_embeddings, passage_embeddings)


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
    passages = load_corpus(config.corpus)
    return index, passages, manifest
