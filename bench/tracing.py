"""In-memory spans and counters for the traced benchmark run.

The program has no spans of its own yet. This module wraps the calls into
each layer from outside: ``patched`` rebinds, for the duration of a ``with``
block, the names that a calling module looks up (``retrieval.diffuse``,
``pipeline.embed_batch``, ...), and restores them on exit. Only the traced
run imports this module, so the end-to-end run executes the program as is.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import numpy as np
from hyperhop import index_store, pipeline, retrieval
from hyperhop.embeddings import EmbeddingCache


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # position of the enclosing span in Tracer.spans
    query: str | None


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = []
    for pos, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for start, end in sorted(children[pos]):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.end - span.start - covered)
    return out


class Tracer:
    """Spans with parent links and query ids, plus exact counters.

    Calls per query are counted from the spans; ``counters`` holds what a
    span cannot show (texts encoded, cache hits, extractor calls), and
    ``frontier`` the nonzero entities after each diffusion step.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: Counter[str] = Counter()
        self.frontier: dict[str, list[int]] = defaultdict(list)  # query -> nnz after each step
        self.query: str | None = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        pos = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent, self.query))
        self._open.append(pos)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[pos].end = time.perf_counter()

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] += amount

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def records(self, phase: str) -> list[dict]:
        """The spans as JSON-ready dicts, each with its self time."""
        return [
            {"phase": phase, **asdict(span), "self": own}
            for span, own in zip(self.spans, self_times(self.spans))
        ]


class _CountingExtractor:
    def __init__(self, tracer: Tracer, inner):
        self._tracer, self._inner = tracer, inner

    def extract(self, title: str, text: str) -> list[str]:
        self._tracer.count("entities.extract_calls")
        return self._inner.extract(title, text)


class QueryExtractor:
    """The query-time extractor, timed as ``entities.query_extract``."""

    def __init__(self, tracer: Tracer, inner):
        self._tracer, self._inner = tracer, inner

    def extract(self, title: str, text: str) -> list[str]:
        with self._tracer.span("entities.query_extract"):
            return self._inner.extract(title, text)


class _CountingEncoder:
    def __init__(self, tracer: Tracer, inner):
        self._tracer, self._inner = tracer, inner
        self.encoder_id, self.dim = inner.encoder_id, inner.dim

    def encode_batch(self, texts):
        self._tracer.count("embeddings.texts_encoded", len(texts))
        return self._inner.encode_batch(texts)


def _counting_cache(tracer: Tracer):
    class CountingCache(EmbeddingCache):
        def lookup(self, keys):
            hits = super().lookup(keys)
            tracer.count("embeddings.cache_lookups", len(keys))
            tracer.count("embeddings.cache_hits", len(hits))
            return hits

        def append(self, keys, vectors):
            tracer.count("embeddings.cache_appends")
            return super().append(keys, vectors)

    return CountingCache


def _diffusion_step(tracer: Tracer, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span("hypergraph.diffusion_step"):
            out = fn(*args, **kwargs)
        tracer.frontier[tracer.query].append(int(np.count_nonzero(out)))
        return out

    return traced


def _build_patches(tracer: Tracer) -> list[tuple[object, str, object]]:
    make_extractor, make_encoder = pipeline.make_extractor, pipeline.make_encoder
    return [
        (pipeline, "load_corpus", tracer.wrap("corpus.load", pipeline.load_corpus)),
        (pipeline, "extract_corpus_entities",
         tracer.wrap("entities.extract", pipeline.extract_corpus_entities)),
        (pipeline, "make_extractor",
         lambda config: _CountingExtractor(tracer, make_extractor(config))),
        (pipeline, "make_encoder", lambda config: _CountingEncoder(tracer, make_encoder(config))),
        (pipeline, "EmbeddingCache", _counting_cache(tracer)),
        (pipeline, "embed_batch", tracer.wrap("embeddings.embed", pipeline.embed_batch)),
        (pipeline, "build_index", tracer.wrap("index_store.build_index", pipeline.build_index)),
        (index_store, "build_incidence",
         tracer.wrap("hypergraph.incidence_build", index_store.build_incidence)),
        (pipeline, "save_index", tracer.wrap("index_store.save", pipeline.save_index)),
    ]


def _query_patches(tracer: Tracer) -> list[tuple[object, str, object]]:
    r = retrieval
    return [
        (r, "build_entity_similarity", tracer.wrap("retrieval.x", r.build_entity_similarity)),
        (r, "build_passage_similarity", tracer.wrap("retrieval.p", r.build_passage_similarity)),
        (r, "rank_passages", tracer.wrap("retrieval.rank", r.rank_passages)),
        (r, "diffuse", tracer.wrap("retrieval.diffuse", r.diffuse)),
        (r, "structural_enhance", tracer.wrap("retrieval.select", r.structural_enhance)),
        (r, "ranked_order", tracer.wrap("retrieval.sort", r.ranked_order)),
        (r, "apply_diffusion_operator", _diffusion_step(tracer, r.apply_diffusion_operator)),
        (r, "max_sim_to_query_entities",
         tracer.wrap("embeddings.max_sim", r.max_sim_to_query_entities)),
        (r, "cosine_against_rows", tracer.wrap("embeddings.cosine_rows", r.cosine_against_rows)),
        (r, "embed_batch", tracer.wrap("embeddings.query_embed", r.embed_batch)),
    ]


@contextmanager
def patched(tracer: Tracer, phase: str):
    """Trace the ``"build"`` or ``"query"`` layers inside the ``with`` block."""
    patches = _build_patches(tracer) if phase == "build" else _query_patches(tracer)
    saved = [(module, name, getattr(module, name)) for module, name, _ in patches]
    for module, name, replacement in patches:
        setattr(module, name, replacement)
    try:
        yield
    finally:
        for module, name, original in saved:
            setattr(module, name, original)
