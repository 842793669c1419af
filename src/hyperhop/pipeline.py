"""Index build orchestration and client construction from an AppConfig."""

from __future__ import annotations

from pathlib import Path

from .config import AppConfig
from .corpus import Passage, corpus_digest, load_corpus
from .embeddings import (
    EmbeddingCache,
    EncoderClient,
    OfflineEncoder,
    RemoteEncoder,
    embed_batch,
    text_key,
)
from .entities import (
    ExtractionCache,
    ExtractionClient,
    OfflineEntityExtractor,
    RemoteEntityExtractor,
    build_catalog,
    extract_corpus_entities,
)
from .errors import ContractError
from .index_store import HypergraphIndex, build_index, save_index
from .qa import ChatClient, OfflineChatClient, RemoteChatClient, default_prompt_template
from .remote import EndpointConfig


def passage_embedding_text(passage: Passage) -> str:
    return f"{passage.title}\n{passage.text}" if passage.title else passage.text


def _endpoint(config: AppConfig) -> EndpointConfig:
    if config.offline:
        raise ContractError("offline mode forbids remote endpoints")
    base = config.api_base
    if not base:
        raise ContractError("no api_base configured; pass --offline for network-free runs")
    return EndpointConfig(base_url=base, api_key=config.api_key)


def make_encoder(config: AppConfig) -> EncoderClient:
    if config.offline:
        return OfflineEncoder(dim=config.offline_dim)
    endpoint = _endpoint(config)
    if not config.embed_model:
        raise ContractError("embed_model is required for remote encoding")
    return RemoteEncoder(endpoint, config.embed_model, dim=config.embed_dim)


def make_extractor(config: AppConfig) -> ExtractionClient:
    if config.offline:
        return OfflineEntityExtractor()
    if not config.chat_model:
        raise ContractError("chat_model is required for remote extraction")
    chat = RemoteChatClient(_endpoint(config), config.chat_model)
    return RemoteEntityExtractor(chat, _extraction_template(config))


def _extraction_template(config: AppConfig) -> str:
    if config.extraction_prompt:
        return Path(config.extraction_prompt).read_text(encoding="utf-8")
    return default_prompt_template("entity_extraction")


def extractor_id(config: AppConfig) -> str:
    """The extractor that ``make_extractor`` gives, as the extraction cache
    keys it: the offline tag, or the chat model and the sha256 of the prompt."""
    if config.offline:
        return OfflineEntityExtractor.extractor_id
    return f"remote:{config.chat_model}:{text_key(_extraction_template(config))}"


def make_chat(config: AppConfig) -> ChatClient:
    if config.offline:
        return OfflineChatClient()
    if not config.chat_model:
        raise ContractError("chat_model is required for answer generation")
    return RemoteChatClient(_endpoint(config), config.chat_model)


def answer_template(config: AppConfig) -> str | None:
    if config.answer_prompt:
        return Path(config.answer_prompt).read_text(encoding="utf-8")
    return None


def build_index_from_corpus(config: AppConfig) -> tuple[HypergraphIndex, dict]:
    """Extract, embed, assemble and persist the index; returns it with its manifest.

    Idempotent with warm caches: extraction and embedding results are reused
    and the manifest is reproduced byte for byte.
    """
    corpus_path = Path(config.require("corpus"))
    index_dir = Path(config.require("index_dir"))
    cache_dir = Path(config.cache_dir) if config.cache_dir else index_dir.parent / "cache"

    passages = load_corpus(corpus_path)
    extractor = make_extractor(config)
    extraction_cache = ExtractionCache(cache_dir / "extraction", extractor_id(config))
    entity_sets = extract_corpus_entities(
        passages, extractor, extraction_cache, max_workers=config.max_workers
    )
    catalog = build_catalog(entity_sets)

    encoder = make_encoder(config)
    embedding_cache = EmbeddingCache(cache_dir / "embeddings", encoder.encoder_id, encoder.dim)
    entity_embeddings = embed_batch(catalog.to_list(), encoder, embedding_cache, config.batch_size)
    passage_embeddings = embed_batch(
        [passage_embedding_text(p) for p in passages], encoder, embedding_cache, config.batch_size
    )

    index = build_index(
        entity_sets,
        catalog,
        [p.id for p in passages],
        entity_embeddings=entity_embeddings,
        passage_embeddings=passage_embeddings,
    )
    manifest = save_index(
        index,
        index_dir,
        extra_manifest={
            "corpus_sha256": corpus_digest(corpus_path),
            "encoder_id": encoder.encoder_id,
        },
    )
    index.manifest = manifest
    return index, manifest
