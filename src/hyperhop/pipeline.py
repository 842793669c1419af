"""Index build orchestration and client construction from an AppConfig."""

from __future__ import annotations

import hashlib
from contextlib import closing
from pathlib import Path

from .config import AppConfig
from .corpus import Corpus, load_corpus, passage_embedding_text, passage_sha256
from .embeddings import (
    EmbeddingCache,
    EncoderClient,
    EntityRows,
    OfflineEncoder,
    PassageRows,
    RemoteEncoder,
    embed_batch,
)
from .entities import (
    ExtractionCache,
    ExtractionClient,
    OfflineEntityExtractor,
    RemoteEntityExtractor,
    extract_corpus_entities,
)
from .errors import ContractError
from .index_store import HypergraphIndex, build_index, save_index
from .qa import ChatClient, OfflineChatClient, RemoteChatClient, default_prompt_template
from .remote import EndpointConfig


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


def _read_template(path: str, *fields: str) -> str:
    """The prompt template in ``path``; raises ContractError unless
    ``str.format`` takes it with placeholder ``fields``."""
    template = Path(path).read_text(encoding="utf-8")
    try:
        template.format(**dict.fromkeys(fields, ""))
    except (AttributeError, IndexError, KeyError, ValueError) as exc:
        named = ", ".join(f"{{{name}}}" for name in fields)
        raise ContractError(
            f"prompt file {path} holds a brace that is not one of {named}"
            f" ({type(exc).__name__}: {exc}); write a literal brace as {{{{ or }}}}"
        ) from None
    return template


def _extraction_template(config: AppConfig) -> str:
    if config.extraction_prompt:
        return _read_template(config.extraction_prompt, "title", "text")
    return default_prompt_template("entity_extraction")


def extractor_id(config: AppConfig) -> str:
    """The extractor that ``make_extractor`` gives, as the extraction cache
    keys it: the offline tag, or the chat model and the sha256 of the prompt."""
    if config.offline:
        return OfflineEntityExtractor.extractor_id
    prompt = _extraction_template(config).encode("utf-8")
    return f"remote:{config.chat_model}:{hashlib.sha256(prompt).hexdigest()}"


def make_chat(config: AppConfig) -> ChatClient:
    if config.offline:
        return OfflineChatClient()
    if not config.chat_model:
        raise ContractError("chat_model is required for answer generation")
    return RemoteChatClient(_endpoint(config), config.chat_model)


def answer_template(config: AppConfig) -> str | None:
    if config.answer_prompt:
        return _read_template(config.answer_prompt, "context", "question")
    return None


class _PassageTexts:
    """The ``passage_embedding_text`` of each passage of a corpus, made when
    read: a build reads only its embedding cache's misses."""

    def __init__(self, corpus: Corpus):
        self._titles, self._texts = corpus.titles, corpus.texts

    def __getitem__(self, i: int) -> str:
        return passage_embedding_text(self._titles[i], self._texts[i])


def build_index_from_corpus(config: AppConfig) -> tuple[HypergraphIndex, dict]:
    """Extract, embed, assemble and persist the index; returns it with its manifest.

    Each passage is keyed once, by the ``passage_sha256`` of its title and
    text, and both caches look it up by that key; each entity name is keyed
    once, when the extraction cache stores it (``ExtractionCache.name_keys``).
    The embedding of the entity names and then of the passages encodes and
    appends their misses first, then gathers every row, with the norm and
    bucket the cache stored with it, straight into the layout the index
    stores (``embed_batch``). Idempotent with warm caches:
    extraction and embedding results are reused and the index is reproduced
    byte for byte. The manifest's ``corpus_sha256`` is the digest of the
    bytes the passages were parsed from, however the file changes during
    the build. Both caches are held, before the corpus is read, until the
    rows are gathered: a build on a cache directory that another build
    holds raises ContractError (see ``embeddings.open_cache``).
    """
    corpus_path = Path(config.require("corpus"))
    index_dir = Path(config.require("index_dir"))
    cache_dir = Path(config.cache_dir) if config.cache_dir else index_dir.parent / "cache"

    extractor, encoder = make_extractor(config), make_encoder(config)
    extraction_cache = ExtractionCache(cache_dir / "extraction", extractor_id(config))
    with closing(extraction_cache), closing(
        EmbeddingCache(cache_dir / "embeddings", encoder.encoder_id, encoder.dim)
    ) as embedding_cache:
        corpus = load_corpus(corpus_path)
        keys = list(map(passage_sha256, corpus.titles, corpus.texts))
        entity_sets = extract_corpus_entities(
            corpus, extractor, extraction_cache, max_workers=config.max_workers, keys=keys
        )
        entity_rows = embed_batch(
            entity_sets.catalog,
            encoder,
            embedding_cache,
            config.batch_size,
            keys=extraction_cache.name_keys(entity_sets.catalog_ids),
            layout=EntityRows,
        )
        passage_rows = embed_batch(
            _PassageTexts(corpus),
            encoder,
            embedding_cache,
            config.batch_size,
            keys=keys,
            layout=PassageRows,
        )

    index = build_index(entity_sets, entity_rows, passage_rows)
    manifest = save_index(
        index,
        index_dir,
        extra_manifest={
            "corpus_sha256": corpus.sha256,
            "encoder_id": encoder.encoder_id,
        },
    )
    index.manifest = manifest
    return index, manifest
