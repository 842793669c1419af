#!/usr/bin/env python3
"""Walk the full offline pipeline on the bundled three-passage corpus.

Builds the index in a temp directory, then shows every stage of one query:
extracted query entities, the entity and passage similarity vectors, the
diffused relevance, the enhanced scores, and the final dynamic selection.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from hyperhop.config import AppConfig
from hyperhop.embeddings import OfflineEncoder
from hyperhop.entities import OfflineEntityExtractor, dedup_normalized
from hyperhop.pipeline import build_index_from_corpus
from hyperhop.retrieval import (
    RetrievalConfig,
    build_entity_similarity,
    build_passage_similarity,
    rank_passages,
)

CORPUS = Path(__file__).resolve().parent.parent / "tests" / "data" / "toy_corpus.jsonl"
QUERY = "What is the capital of the country where Albert Einstein was born?"


def main() -> None:
    with tempfile.TemporaryDirectory() as scratch:
        config = AppConfig(
            corpus=str(CORPUS),
            index_dir=f"{scratch}/index",
            cache_dir=f"{scratch}/cache",
            offline=True,
        )
        index, manifest = build_index_from_corpus(config)
        print(f"index: {manifest['n_entities']} entities, {manifest['n_passages']} passages")
        print(f"entity names: {index.entity_names}")

        encoder = OfflineEncoder(dim=config.offline_dim)
        extractor = OfflineEntityExtractor()
        print(f"\nquery: {QUERY}")
        print(f"query entities: {dedup_normalized(extractor.extract('', QUERY))}")

        retrieval = RetrievalConfig(k1=1, k2=3)
        x = build_entity_similarity(QUERY, index, encoder, extractor, retrieval.eta)
        p = build_passage_similarity(QUERY, index, encoder)
        print(f"entity similarity x (eta={retrieval.eta}): {np.round(x, 4)}")
        print(f"passage similarity p: {np.round(p, 4)}")

        result = rank_passages(x, p, index, retrieval)
        print(f"diffused relevance p_t (t={retrieval.steps}): "
              f"{np.round(result.artifacts.p_t, 4)}")
        print(f"enhanced scores (beta={retrieval.beta}): "
              f"{np.round(result.artifacts.p_tilde, 4)}")
        ranked = [(index.passage_ids[c], round(s, 4)) for c, s in result.ranking]
        chosen = [index.passage_ids[c] for c, _ in result.selected]
        print(f"ranking: {ranked}")
        print(f"selected set: {chosen}")


if __name__ == "__main__":
    main()
