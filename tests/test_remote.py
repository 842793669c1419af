"""Wire-format tests for the OpenAI-compatible clients via a fake transport."""

import numpy as np
import pytest

from hyperhop.corpus import Passage
from hyperhop.embeddings import RemoteEncoder, embed_batch
from hyperhop.entities import RemoteEntityExtractor, _parse_entity_reply, extract_entities
from hyperhop.errors import ChatError, EmbeddingError, ExtractionError
from hyperhop.qa import RemoteChatClient, default_prompt_template
from hyperhop.remote import EndpointConfig, chat_completion, embeddings, post_json

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
    ],
)
def test_entity_reply_parsing(reply, expected):
    assert _parse_entity_reply(reply) == expected
