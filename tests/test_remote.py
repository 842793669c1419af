"""Wire-format tests for the OpenAI-compatible clients via a fake transport."""

from types import SimpleNamespace

import numpy as np
import pytest

from hyperhop import pipeline
from hyperhop.cli import main
from hyperhop.corpus import Passage, passage_sha256
from hyperhop.embeddings import RemoteEncoder, embed_batch
from hyperhop.entities import (
    ExtractionCache,
    OfflineEntityExtractor,
    RemoteEntityExtractor,
    _parse_entity_reply,
    extract_entities,
)
from hyperhop.errors import ChatError, EmbeddingError, ExtractionError
from hyperhop.qa import RemoteChatClient, default_prompt_template
from hyperhop.remote import EndpointConfig, chat_completion, embeddings, post_json

from conftest import DATA_DIR

ENDPOINT = EndpointConfig(base_url="http://fake.local/v1", api_key="k", backoff_seconds=0)


class RecordingTransport:
    def __init__(self, responses):
        self.responses = list(responses)
        self.requests = []

    def __call__(self, url, payload, headers):
        self.requests.append((url, payload, headers))
        response = self.responses.pop(0)
        if isinstance(response, Exception):
            raise response
        return response


def test_chat_completion_payload_and_parse():
    transport = RecordingTransport(
        [{"choices": [{"message": {"content": "Berlin"}}]}]
    )
    reply = chat_completion(ENDPOINT, "test-model", [{"role": "user", "content": "hi"}], transport)
    assert reply == "Berlin"
    url, payload, headers = transport.requests[0]
    assert url == "http://fake.local/v1/chat/completions"
    assert payload == {
        "model": "test-model",
        "messages": [{"role": "user", "content": "hi"}],
        "temperature": 0,
    }
    assert headers["Authorization"] == "Bearer k"


def test_embeddings_payload_and_index_ordering():
    transport = RecordingTransport(
        [
            {
                "data": [
                    {"index": 1, "embedding": [0.0, 1.0]},
                    {"index": 0, "embedding": [1.0, 0.0]},
                ]
            }
        ]
    )
    rows = embeddings(ENDPOINT, "emb-model", ["a", "b"], transport)
    assert rows == [[1.0, 0.0], [0.0, 1.0]]
    url, payload, _ = transport.requests[0]
    assert url == "http://fake.local/v1/embeddings"
    assert payload == {"model": "emb-model", "input": ["a", "b"]}


def test_post_json_retries_then_succeeds():
    transport = RecordingTransport([RuntimeError("503"), {"ok": True}])
    assert post_json(ENDPOINT, "/x", {}, transport) == {"ok": True}
    assert len(transport.requests) == 2


def test_post_json_exhausts_attempts():
    transport = RecordingTransport([RuntimeError("down")] * 3)
    with pytest.raises(RuntimeError, match="down"):
        post_json(ENDPOINT, "/x", {}, transport)
    assert len(transport.requests) == 3


class HTTPError(Exception):
    """An error that carries its response, as ``requests.HTTPError`` does."""

    def __init__(self, status_code):
        super().__init__(f"HTTP {status_code}")
        self.response = SimpleNamespace(status_code=status_code)


@pytest.mark.parametrize("status", [400, 401, 404])
def test_post_json_does_not_retry_a_client_error(status):
    transport = RecordingTransport([HTTPError(status), {"ok": True}])
    with pytest.raises(HTTPError, match=str(status)):
        post_json(ENDPOINT, "/x", {}, transport)
    assert len(transport.requests) == 1


@pytest.mark.parametrize("status", [408, 429, 500, 503])
def test_post_json_retries_a_timeout_a_rate_limit_and_a_server_error(status):
    transport = RecordingTransport([HTTPError(status), {"ok": True}])
    assert post_json(ENDPOINT, "/x", {}, transport) == {"ok": True}
    assert len(transport.requests) == 2


def test_remote_encoder_through_embed_batch():
    transport = RecordingTransport(
        [
            {"data": [{"index": i, "embedding": [float(i), 0.0]} for i in range(2)]},
            {"data": [{"index": 0, "embedding": [9.0, 9.0]}]},
        ]
    )
    encoder = RemoteEncoder(ENDPOINT, "emb-model", dim=2, transport=transport)
    matrix = embed_batch(["a", "b", "c"], encoder, batch_size=2)
    assert matrix.shape == (3, 2)
    np.testing.assert_array_equal(matrix[2], [9.0, 9.0])


def test_remote_encoder_shape_mismatch_is_embedding_error():
    transport = RecordingTransport([{"data": [{"index": 0, "embedding": [1.0]}]}] * 3)
    encoder = RemoteEncoder(ENDPOINT, "emb-model", dim=2, transport=transport)
    with pytest.raises(EmbeddingError):
        embed_batch(["a"], encoder)


def test_remote_chat_client_wraps_errors():
    transport = RecordingTransport([RuntimeError("x")] * 3)
    client = RemoteChatClient(ENDPOINT, "chat-model", transport=transport)
    with pytest.raises(ChatError):
        client.complete("question")


def test_null_chat_content_is_a_chat_error_and_an_extraction_error():
    transport = RecordingTransport([{"choices": [{"message": {"content": None}}]}] * 2)
    chat = RemoteChatClient(ENDPOINT, "chat-model", transport=transport)
    with pytest.raises(ChatError, match="chat reply content is NoneType, not a string"):
        chat.complete("question")
    extractor = RemoteEntityExtractor(chat, default_prompt_template("entity_extraction"))
    with pytest.raises(ExtractionError, match="content is NoneType, not a string") as excinfo:
        extract_entities(Passage(id="p7", title="", text="Berlin"), extractor)
    assert excinfo.value.passage_id == "p7"
    assert len(transport.requests) == 2  # a reply is not retried


def test_remote_extractor_formats_prompt_and_parses_json():
    transport = RecordingTransport(
        [{"choices": [{"message": {"content": '["Berlin", "Germany"]'}}]}]
    )
    chat = RemoteChatClient(ENDPOINT, "chat-model", transport=transport)
    extractor = RemoteEntityExtractor(chat, default_prompt_template("entity_extraction"))
    raw = extractor.extract("Title", "Some passage text")
    assert raw == ["Berlin", "Germany"]
    _, payload, _ = transport.requests[0]
    assert "Some passage text" in payload["messages"][0]["content"]
    assert payload["temperature"] == 0


def test_failing_remote_extraction_is_retried_by_the_transport_only():
    transport = RecordingTransport([RuntimeError("down")] * 10)
    chat = RemoteChatClient(ENDPOINT, "chat-model", transport=transport)
    extractor = RemoteEntityExtractor(chat, default_prompt_template("entity_extraction"))
    with pytest.raises(ExtractionError) as excinfo:
        extract_entities(Passage(id="p7", title="", text="Berlin"), extractor)
    assert excinfo.value.passage_id == "p7"
    assert len(transport.requests) == ENDPOINT.attempts == 3


@pytest.mark.parametrize(
    "reply,expected",
    [
        ('["a", "b"]', ["a", "b"]),
        ('```json\n["a"]\n```', ["a"]),
        ("- alpha\n- beta", ["alpha", "beta"]),
        ("single line", ["single line"]),
        ("", []),
        # Only the string items of a JSON list are entities.
        ('["a", null, true, 3, {"a": 1}, ["x"], "b"]', ["a", "b"]),
        ("[null]", []),
    ],
)
def test_entity_reply_parsing(reply, expected):
    assert _parse_entity_reply(reply) == expected


def test_a_reply_that_utf8_cannot_encode_exits_2_and_keeps_the_cache(tmp_path, monkeypatch, capsys):
    """A JSON escape of a lone surrogate is refused where the reply is
    parsed, so the build names the passage and exits 2, and the extraction
    cache on disk keeps the other passages' entries."""

    def transport(url, payload, headers):
        prompt = payload["messages"][0]["content"]
        content = '["Br\\ud800ssels"]' if "Brussels" in prompt else '["Germany"]'
        return {"choices": [{"message": {"content": content}}]}

    chat = RemoteChatClient(ENDPOINT, "chat-model", transport=transport)
    extractor = RemoteEntityExtractor(chat, default_prompt_template("entity_extraction"))
    with pytest.raises(ExtractionError, match="not valid UTF-8 at character 2"):
        extractor.extract("", "Brussels")
    monkeypatch.setattr(pipeline, "make_extractor", lambda config: extractor)
    corpus = DATA_DIR / "toy_corpus.jsonl"
    args = ["index", "--corpus", str(corpus), "--index-dir", str(tmp_path / "index"),
            "--cache-dir", str(tmp_path / "cache"), "--offline"]
    assert main(args) == 2
    assert "extraction failed for passage 'P3'" in capsys.readouterr().err
    assert not (tmp_path / "index").exists()
    cache = ExtractionCache(tmp_path / "cache" / "extraction", OfflineEntityExtractor.extractor_id)
    keys = [passage_sha256(p.title, p.text) for p in pipeline.load_corpus(corpus)]
    assert cache.lookup(keys).tolist() == [0, 1, -1]
    assert cache.names == ["germany"]
