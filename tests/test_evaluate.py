import json
import time

import pytest

from hyperhop.embeddings import OfflineEncoder
from hyperhop.entities import OfflineEntityExtractor
from hyperhop.errors import ChatError, CorpusFormatError, EmbeddingError, ExtractionError
from hyperhop.evaluate import QAExample, load_qa_dataset, run_eval
from hyperhop.qa import OfflineChatClient
from hyperhop.retrieval import RetrievalConfig

ENCODER = OfflineEncoder(dim=256)
EXTRACTOR = OfflineEntityExtractor()
CONFIG = RetrievalConfig(k1=1, k2=3)


def test_load_qa_dataset(data_dir):
    examples = load_qa_dataset(data_dir / "toy_qa.jsonl")
    assert len(examples) == 3
    assert examples[0].gold_answers == ("Berlin",)
    assert examples[1].gold_passage_ids == ("P3",)


def test_load_qa_dataset_rejects_missing_keys(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"question": "q"}\n', encoding="utf-8")
    with pytest.raises(CorpusFormatError, match="line 1"):
        load_qa_dataset(path)


GOOD_LINE = json.dumps({"question": "q", "answers": ["a"], "gold_passage_ids": ["P1"]})


@pytest.mark.parametrize(
    "line, message",
    [
        ('{"question": "q", "answers": "Paris"}', "'answers' must be a list of strings"),
        ('{"question": "q", "answers": ["a", 1]}', "'answers' must be a list of strings"),
        ('{"question": "q", "answers": []}', "has no gold answers"),
        (
            '{"question": "q", "answers": ["a"], "gold_passage_ids": "P1"}',
            "'gold_passage_ids' must be a list of strings",
        ),
        ('{"question": 7, "answers": ["a"]}', "'question' must be a string"),
        ("[1, 2]", "expected a JSON object"),
        ('{"question": "q"', "invalid JSON"),
    ],
)
def test_load_qa_dataset_rejects_malformed_lines(tmp_path, line, message):
    path = tmp_path / "bad.jsonl"
    path.write_text(GOOD_LINE + "\n" + line + "\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError, match=f"line 2: .*{message}"):
        load_qa_dataset(path)


def test_load_qa_dataset_gold_passage_ids_default_to_empty(tmp_path):
    path = tmp_path / "qa.jsonl"
    path.write_text('{"question": "q", "answers": ["a"]}\n', encoding="utf-8")
    assert load_qa_dataset(path)[0].gold_passage_ids == ()


def test_load_qa_dataset_rejects_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "bad.jsonl"
    latin1 = '{"question": "Köln?", "answers": ["a"]}\n'.encode("latin-1")
    path.write_bytes(GOOD_LINE.encode("utf-8") + b"\n" + latin1)
    with pytest.raises(CorpusFormatError, match="line 2: not UTF-8"):
        load_qa_dataset(path)


def test_retrieval_only_report(toy_built, data_dir):
    index, _, _ = toy_built
    dataset = load_qa_dataset(data_dir / "toy_qa.jsonl")
    report = run_eval(dataset, index, CONFIG, ENCODER, EXTRACTOR)
    agg = report.aggregates
    assert agg["examples"] == 3 and agg["errors"] == 0
    assert "em" not in agg  # QA disabled
    assert 0.0 <= agg["recall@5"] <= 1.0
    assert agg["recall@10"] >= agg["recall@5"]
    # Toy question 1 has gold {P1, P2} and the toy pipeline selects exactly those.
    assert report.records[0].recall[5] == 1.0
    assert report.records[0].selected_ids == ["P1", "P2"]


def test_qa_scoring_included_when_chat_configured(toy_built, data_dir):
    index, passages, _ = toy_built
    dataset = load_qa_dataset(data_dir / "toy_qa.jsonl")
    report = run_eval(
        dataset, index, CONFIG, ENCODER, EXTRACTOR,
        chat=OfflineChatClient(), passages=passages,
    )
    agg = report.aggregates
    assert "em" in agg and "f1" in agg
    assert all(r.prediction is not None for r in report.records)


def test_aggregates_equal_recomputation(toy_built, data_dir):
    index, _, _ = toy_built
    dataset = load_qa_dataset(data_dir / "toy_qa.jsonl")
    report = run_eval(dataset, index, CONFIG, ENCODER, EXTRACTOR)
    agg = report.aggregates
    scored = [r for r in report.records if r.error is None]
    assert agg["recall@5"] == pytest.approx(
        sum(r.recall[5] for r in scored) / len(scored), abs=1e-12
    )
    assert agg["mean_selected_size"] == pytest.approx(
        sum(r.selected_size for r in scored) / len(scored), abs=1e-12
    )


def test_missing_gold_id_records_error_and_continues(toy_built):
    index, _, _ = toy_built
    dataset = [
        QAExample("Who?", ("x",), ("NOPE",)),
        QAExample("Where are the institutions of the European Union seated?", ("Brussels",), ("P3",)),
    ]
    report = run_eval(dataset, index, CONFIG, ENCODER, EXTRACTOR)
    assert report.errors == 1
    assert report.records[0].error is not None
    assert report.records[1].error is None


def test_report_json_deterministic_without_timing(toy_built, data_dir):
    index, _, _ = toy_built
    dataset = load_qa_dataset(data_dir / "toy_qa.jsonl")
    a = run_eval(dataset, index, CONFIG, ENCODER, EXTRACTOR).to_json()
    b = run_eval(dataset, index, CONFIG, ENCODER, EXTRACTOR).to_json()
    assert a == b
    payload = json.loads(a)
    assert "total_retrieval_seconds" not in payload
    assert "retrieval_seconds" not in payload["records"][0]


def test_report_json_with_timing(toy_built, data_dir):
    index, _, _ = toy_built
    dataset = load_qa_dataset(data_dir / "toy_qa.jsonl")
    report = run_eval(dataset, index, CONFIG, ENCODER, EXTRACTOR)
    payload = json.loads(report.to_json(include_timing=True))
    assert payload["total_retrieval_seconds"] >= 0.0
    assert all("retrieval_seconds" in r for r in payload["records"])


def test_timing_covers_both_similarity_vectors_and_the_ranking(toy_built, data_dir, monkeypatch):
    # Each stage sleeps its own length; the timer must cover all three and
    # stop before the answer call, which sleeps longer than the three together.
    from hyperhop import evaluate

    def slowed(fn, seconds):
        def slow(*args, **kwargs):
            time.sleep(seconds)
            return fn(*args, **kwargs)

        return slow

    stages = {
        "build_entity_similarity": 0.01,
        "build_passage_similarity": 0.02,
        "rank_passages": 0.04,
    }
    for name, seconds in stages.items():
        monkeypatch.setattr(evaluate, name, slowed(getattr(evaluate, name), seconds))
    monkeypatch.setattr(evaluate, "answer", slowed(evaluate.answer, 0.5))
    dataset = load_qa_dataset(data_dir / "toy_qa.jsonl")[:1]
    index, passages, _ = toy_built
    report = run_eval(dataset, index, CONFIG, ENCODER, EXTRACTOR, OfflineChatClient(), passages)
    assert 0.07 <= report.records[0].retrieval_seconds < 0.5


def test_parallel_evaluation_matches_serial(toy_built, data_dir):
    index, _, _ = toy_built
    dataset = load_qa_dataset(data_dir / "toy_qa.jsonl")
    serial = run_eval(dataset, index, CONFIG, ENCODER, EXTRACTOR).to_json()
    parallel = run_eval(dataset, index, CONFIG, ENCODER, EXTRACTOR, max_workers=4).to_json()
    assert serial == parallel


def test_table_rendering(toy_built, data_dir):
    index, _, _ = toy_built
    dataset = load_qa_dataset(data_dir / "toy_qa.jsonl")
    table = run_eval(dataset, index, CONFIG, ENCODER, EXTRACTOR).to_table()
    assert "recall@5" in table
    assert "mean |C_q|" in table


class FailingOnQuestionEncoder(OfflineEncoder):
    """Offline encoder whose endpoint fails for the given texts."""

    def __init__(self, *failing_texts: str):
        super().__init__(dim=256)
        self.failing_texts = set(failing_texts)
        self.failures = 0

    def encode_batch(self, texts):
        if self.failing_texts & set(texts):
            self.failures += 1
            raise RuntimeError("endpoint down")
        return super().encode_batch(texts)


@pytest.mark.parametrize("max_workers", [1, 2])
def test_embedding_failure_is_recorded_and_evaluation_continues(
    toy_built, data_dir, max_workers
):
    index, _, _ = toy_built
    dataset = load_qa_dataset(data_dir / "toy_qa.jsonl")
    failing = dataset[1].question
    report = run_eval(
        dataset, index, CONFIG, FailingOnQuestionEncoder(failing), EXTRACTOR,
        max_workers=max_workers,
    )
    assert report.errors == 1
    assert report.records[1].error.startswith(EmbeddingError.__name__)
    assert "endpoint down" in report.records[1].error
    healthy = run_eval(dataset, index, CONFIG, ENCODER, EXTRACTOR)
    for got, want in zip(report.records, healthy.records):
        if got.error is None:
            assert got.selected_ids == want.selected_ids
    assert report.aggregates["scored"] == 2


class NonFiniteOnQuestionEncoder(OfflineEncoder):
    """Offline encoder that returns an infinite value for the given texts."""

    def __init__(self, *failing_texts: str):
        super().__init__(dim=256)
        self.failing_texts = set(failing_texts)

    def encode_batch(self, texts):
        out = super().encode_batch(texts)
        for row, text in enumerate(texts):
            if text in self.failing_texts:
                out[row, 0] = float("inf")
        return out


@pytest.mark.parametrize("max_workers", [1, 2])
def test_non_finite_query_vector_is_recorded_and_evaluation_continues(
    toy_built, data_dir, max_workers
):
    index, _, _ = toy_built
    dataset = load_qa_dataset(data_dir / "toy_qa.jsonl")
    encoder = NonFiniteOnQuestionEncoder(dataset[1].question)
    report = run_eval(dataset, index, CONFIG, encoder, EXTRACTOR, max_workers=max_workers)
    assert report.errors == 1
    assert report.records[0].error is None and report.records[2].error is None
    assert report.records[1].error.startswith(EmbeddingError.__name__)
    assert "non-finite" in report.records[1].error
    assert report.records[1].selected_ids == []


@pytest.mark.parametrize("max_workers", [1, 2])
def test_embedding_failure_before_any_success_propagates(toy_built, data_dir, max_workers):
    # A dead endpoint or a wrong model width fails every example alike: the
    # run stops at the first one instead of recording the same error for all.
    index, _, _ = toy_built
    dataset = load_qa_dataset(data_dir / "toy_qa.jsonl")
    encoder = FailingOnQuestionEncoder(*(ex.question for ex in dataset))
    with pytest.raises(EmbeddingError, match="endpoint down"):
        run_eval(dataset, index, CONFIG, encoder, EXTRACTOR, max_workers=max_workers)
    if max_workers == 1:
        assert encoder.failures == 1


class FailingOnQuestionExtractor(OfflineEntityExtractor):
    """Offline extractor whose chat endpoint fails for the given questions."""

    def __init__(self, *failing_texts: str):
        self.failing_texts = set(failing_texts)
        self.failures = 0

    def extract(self, title, text):
        if text in self.failing_texts:
            self.failures += 1
            raise ChatError("chat endpoint down")
        return super().extract(title, text)


@pytest.mark.parametrize("max_workers", [1, 2])
def test_extraction_failure_is_recorded_and_evaluation_continues(
    toy_built, data_dir, max_workers
):
    index, _, _ = toy_built
    dataset = load_qa_dataset(data_dir / "toy_qa.jsonl")
    extractor = FailingOnQuestionExtractor(dataset[1].question)
    report = run_eval(dataset, index, CONFIG, ENCODER, extractor, max_workers=max_workers)
    assert report.errors == 1
    error = "ExtractionError: query entity extraction failed: chat endpoint down"
    assert report.records[1].error == error
    assert report.records[1].selected_ids == []
    healthy = run_eval(dataset, index, CONFIG, ENCODER, EXTRACTOR)
    for i in (0, 2):
        assert report.records[i].error is None
        assert report.records[i].selected_ids == healthy.records[i].selected_ids
    assert report.aggregates["scored"] == 2


@pytest.mark.parametrize("max_workers", [1, 2])
def test_extraction_failure_before_any_success_propagates(toy_built, data_dir, max_workers):
    index, _, _ = toy_built
    dataset = load_qa_dataset(data_dir / "toy_qa.jsonl")
    extractor = FailingOnQuestionExtractor(*(ex.question for ex in dataset))
    with pytest.raises(ExtractionError, match="chat endpoint down") as raised:
        run_eval(dataset, index, CONFIG, ENCODER, extractor, max_workers=max_workers)
    assert isinstance(raised.value.__cause__, ChatError)
    if max_workers == 1:
        assert extractor.failures == 1


def test_missing_gold_ids_do_not_count_as_success(toy_built, data_dir):
    index, _, _ = toy_built
    dataset = load_qa_dataset(data_dir / "toy_qa.jsonl")
    dataset = [QAExample("q", ("a",), ("MISSING",))] + list(dataset)
    encoder = FailingOnQuestionEncoder(dataset[1].question)
    with pytest.raises(EmbeddingError):
        run_eval(dataset, index, CONFIG, encoder, EXTRACTOR)


class FailingOnQuestionChat(OfflineChatClient):
    def __init__(self, *failing_texts: str):
        self.failing_texts = failing_texts

    def complete(self, prompt: str) -> str:
        if any(text in prompt for text in self.failing_texts):
            raise ChatError("chat endpoint down")
        return super().complete(prompt)


def test_chat_failure_keeps_the_retrieval_and_evaluation_continues(toy_built, data_dir):
    index, passages, _ = toy_built
    dataset = load_qa_dataset(data_dir / "toy_qa.jsonl")
    chat = FailingOnQuestionChat(dataset[1].question)
    report = run_eval(dataset, index, CONFIG, ENCODER, EXTRACTOR, chat=chat, passages=passages)
    healthy = run_eval(dataset, index, CONFIG, ENCODER, EXTRACTOR)
    assert report.errors == 1
    failed = report.records[1]
    assert failed.error == "ChatError: chat endpoint down"
    assert failed.prediction is None and failed.em is None
    assert failed.selected_ids == healthy.records[1].selected_ids
    assert failed.recall == healthy.records[1].recall
    assert report.records[0].prediction is not None
    assert report.records[2].prediction is not None


def test_chat_failure_before_any_success_propagates(toy_built, data_dir):
    index, passages, _ = toy_built
    dataset = load_qa_dataset(data_dir / "toy_qa.jsonl")
    chat = FailingOnQuestionChat(dataset[0].question)
    with pytest.raises(ChatError):
        run_eval(dataset, index, CONFIG, ENCODER, EXTRACTOR, chat=chat, passages=passages)
