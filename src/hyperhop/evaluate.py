"""Evaluation harness: retrieval scoring, optional QA scoring, timing.

The retrieval timer wraps the whole retrieval of an example: the entity
similarity x (query entity extraction and embedding included), the passage
similarity p (query embedding included) and the ranking (diffusion,
enhancement, selection). The answer call stays outside the measured region.
Timing fields are excluded from the serialized report by default so that
repeated offline runs produce byte-identical output.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

from .corpus import Passage, read_jsonl
from .embeddings import EncoderClient
from .entities import ExtractionClient
from .errors import ChatError, CorpusFormatError, EmbeddingError, ExtractionError, HyperhopError
from .index_store import HypergraphIndex
from .metrics import exact_match, hit_at_k, recall_at_k, token_f1
from .qa import ChatClient, answer
from .retrieval import RetrievalConfig, build_entity_similarity, build_passage_similarity, rank_passages

RECALL_KS = (5, 10)


@dataclass(frozen=True)
class QAExample:
    question: str
    gold_answers: tuple[str, ...]
    gold_passage_ids: tuple[str, ...]

    def __post_init__(self):
        if not self.gold_answers:
            raise CorpusFormatError(f"example {self.question!r} has no gold answers")


def load_qa_dataset(path: str | Path) -> list[QAExample]:
    """JSONL loader: {question, answers: [...], gold_passage_ids: [...]}.

    ``question`` must be a string, ``answers`` a non-empty list of strings
    and ``gold_passage_ids`` (an empty list when absent) a list of strings;
    anything else, or a line that ``read_jsonl`` rejects, raises
    CorpusFormatError naming the line.
    """
    examples = []
    for lineno, obj in read_jsonl(path):
        obj.setdefault("gold_passage_ids", [])
        if not isinstance(obj.get("question"), str):
            raise CorpusFormatError("'question' must be a string", line=lineno)
        for key in ("answers", "gold_passage_ids"):
            value = obj.get(key)
            if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
                raise CorpusFormatError(f"{key!r} must be a list of strings", line=lineno)
        try:
            example = QAExample(
                obj["question"], tuple(obj["answers"]), tuple(obj["gold_passage_ids"])
            )
        except CorpusFormatError as exc:
            raise CorpusFormatError(str(exc), line=lineno) from None
        examples.append(example)
    return examples


@dataclass
class ExampleRecord:
    question: str
    selected_ids: list[str]
    selected_size: int
    recall: dict[int, float]
    hits: dict[int, int]
    em: int | None = None
    f1: float | None = None
    prediction: str | None = None
    retrieval_seconds: float = 0.0
    dense_fallback: bool = False
    error: str | None = None

    def to_dict(self, include_timing: bool) -> dict:
        payload = {
            "question": self.question,
            "selected_ids": self.selected_ids,
            "selected_size": self.selected_size,
            "recall": {f"recall@{k}": v for k, v in sorted(self.recall.items())},
            "hits": {f"hit@{k}": v for k, v in sorted(self.hits.items())},
            "dense_fallback": self.dense_fallback,
        }
        if self.prediction is not None:
            payload["prediction"] = self.prediction
            payload["em"] = self.em
            payload["f1"] = self.f1
        if self.error is not None:
            payload["error"] = self.error
        if include_timing:
            payload["retrieval_seconds"] = self.retrieval_seconds
        return payload


@dataclass
class EvalReport:
    records: list[ExampleRecord]
    config: RetrievalConfig
    qa_scored: bool
    errors: int = 0

    @property
    def aggregates(self) -> dict:
        scored = [r for r in self.records if r.error is None]
        n = len(scored)
        agg: dict = {"examples": len(self.records), "scored": n, "errors": self.errors}
        if n == 0:
            return agg
        for k in RECALL_KS:
            agg[f"recall@{k}"] = sum(r.recall[k] for r in scored) / n
            agg[f"hit@{k}"] = sum(r.hits[k] for r in scored) / n
        agg["mean_selected_size"] = sum(r.selected_size for r in scored) / n
        agg["dense_fallbacks"] = sum(r.dense_fallback for r in scored)
        if self.qa_scored:
            agg["em"] = sum(r.em for r in scored) / n
            agg["f1"] = sum(r.f1 for r in scored) / n
        return agg

    @property
    def total_retrieval_seconds(self) -> float:
        return sum(r.retrieval_seconds for r in self.records)

    def to_json(self, include_timing: bool = False) -> str:
        payload = {
            "aggregates": self.aggregates,
            "config": asdict(self.config),
            "records": [r.to_dict(include_timing) for r in self.records],
        }
        if include_timing:
            payload["total_retrieval_seconds"] = self.total_retrieval_seconds
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def to_table(self, include_timing: bool = False) -> str:
        agg = self.aggregates
        rows = [("examples", agg["examples"]), ("errors", agg["errors"])]
        for k in RECALL_KS:
            if f"recall@{k}" in agg:
                rows.append((f"recall@{k}", f"{agg[f'recall@{k}']:.4f}"))
                rows.append((f"hit@{k}", f"{agg[f'hit@{k}']:.4f}"))
        if "mean_selected_size" in agg:
            rows.append(("mean |C_q|", f"{agg['mean_selected_size']:.2f}"))
        if self.qa_scored and "em" in agg:
            rows.append(("em", f"{agg['em']:.4f}"))
            rows.append(("f1", f"{agg['f1']:.4f}"))
        if include_timing:
            rows.append(("retrieval seconds", f"{self.total_retrieval_seconds:.3f}"))
        width = max(len(name) for name, _ in rows)
        return "\n".join(f"{name:<{width}}  {value}" for name, value in rows) + "\n"


def _failed_record(example: QAExample, reason: str) -> ExampleRecord:
    return ExampleRecord(
        question=example.question,
        selected_ids=[],
        selected_size=0,
        recall={k: 0.0 for k in RECALL_KS},
        hits={k: 0 for k in RECALL_KS},
        error=reason,
    )


def _evaluate_one(
    example: QAExample,
    index: HypergraphIndex,
    known_ids: set[str],
    config: RetrievalConfig,
    encoder: EncoderClient,
    extractor: ExtractionClient,
    chat: ChatClient | None,
    passages_by_id: dict[str, Passage] | None,
    answer_template: str | None,
) -> tuple[ExampleRecord, HyperhopError | None]:
    """Score one example; also return the failed endpoint call, if any.

    A failed query entity extraction or embedding call leaves nothing to
    score. A failed chat call keeps the retrieval fields and sets only
    ``error``.
    """
    missing = [pid for pid in example.gold_passage_ids if pid not in known_ids]
    if missing or not example.gold_passage_ids:
        reason = (
            f"gold passage ids missing from index: {missing}"
            if missing
            else "example has no gold passage ids"
        )
        return _failed_record(example, reason), None

    start = time.perf_counter()
    try:
        x = build_entity_similarity(example.question, index, encoder, extractor, config.eta)
        p = build_passage_similarity(example.question, index, encoder)
    except (ExtractionError, EmbeddingError) as exc:
        return _failed_record(example, f"{type(exc).__name__}: {exc}"), exc
    result = rank_passages(x, p, index, config, ranking_depth=max(RECALL_KS))
    elapsed = time.perf_counter() - start

    ranked_ids = [index.passage_ids[col] for col, _ in result.ranking]
    selected_ids = [index.passage_ids[col] for col, _ in result.selected]
    record = ExampleRecord(
        question=example.question,
        selected_ids=selected_ids,
        selected_size=len(selected_ids),
        recall={k: recall_at_k(ranked_ids, example.gold_passage_ids, k) for k in RECALL_KS},
        hits={k: hit_at_k(ranked_ids, example.gold_passage_ids, k) for k in RECALL_KS},
        retrieval_seconds=elapsed,
        dense_fallback=result.diagnostics.dense_fallback,
    )
    if chat is not None and passages_by_id is not None:
        context = [passages_by_id[pid] for pid in selected_ids if pid in passages_by_id]
        try:
            record.prediction = answer(example.question, context, chat, answer_template)
        except ChatError as exc:
            record.error = f"ChatError: {exc}"
            return record, exc
        record.em = exact_match(record.prediction, example.gold_answers)
        record.f1 = token_f1(record.prediction, example.gold_answers)
    return record, None


def run_eval(
    dataset: Sequence[QAExample],
    index: HypergraphIndex,
    config: RetrievalConfig,
    encoder: EncoderClient,
    extractor: ExtractionClient,
    chat: ChatClient | None = None,
    passages: Sequence[Passage] | None = None,
    answer_template: str | None = None,
    max_workers: int = 1,
) -> EvalReport:
    """Evaluate retrieval (and QA when a chat client is given) over a dataset.

    Per-example failures (gold ids absent from the index, a failed query
    entity extraction, embedding or chat call) are recorded in the
    example's ``error`` and evaluation continues. A failed call before any
    example has succeeded (in dataset order) propagates instead: the
    endpoint or its configuration is taken to be broken for every example,
    and the run stops before each one pays the retry budget. Index errors propagate.
    """
    passages_by_id = {p.id: p for p in passages} if passages is not None else None
    if chat is not None and passages_by_id is None:
        raise CorpusFormatError("QA scoring requires the corpus passages")
    known_ids = set(index.passage_ids)

    def work(example: QAExample) -> tuple[ExampleRecord, HyperhopError | None]:
        return _evaluate_one(
            example, index, known_ids, config, encoder, extractor, chat,
            passages_by_id, answer_template,
        )

    def collect(outcomes) -> list[ExampleRecord]:
        records: list[ExampleRecord] = []
        succeeded = False
        for record, failure in outcomes:
            if failure is not None and not succeeded:
                raise failure
            succeeded = succeeded or record.error is None
            records.append(record)
        return records

    if max_workers <= 1:
        records = collect(work(ex) for ex in dataset)
    else:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            try:
                records = collect(pool.map(work, dataset))
            except BaseException:
                pool.shutdown(cancel_futures=True)
                raise
    errors = sum(1 for r in records if r.error is not None)
    return EvalReport(records=records, config=config, qa_scored=chat is not None, errors=errors)
