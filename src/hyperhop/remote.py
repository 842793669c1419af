"""Thin client for OpenAI-compatible chat-completions and embeddings APIs.

All remote calls go through ``post_json`` so tests can inject a fake
transport; retries use exponential backoff with a bounded attempt count.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import Callable

Transport = Callable[[str, dict, dict], dict]

# Client errors other than a timeout (408) and a rate limit (429): a retry fails alike.
_FINAL_STATUSES = frozenset(range(400, 500)) - {408, 429}


@dataclass
class EndpointConfig:
    base_url: str
    api_key: str = ""
    timeout_seconds: float = 60.0
    attempts: int = 3
    backoff_seconds: float = 0.5


def _requests_transport(url: str, payload: dict, headers: dict, timeout: float) -> dict:
    import requests  # here, not at the top: an offline command never pays for the import

    response = requests.post(url, json=payload, headers=headers, timeout=timeout)
    response.raise_for_status()
    return response.json()


def post_json(
    endpoint: EndpointConfig,
    path: str,
    payload: dict,
    transport: Transport | None = None,
) -> dict:
    """POST with retries; raises the last error after attempts are exhausted,
    or at once an error whose ``response.status_code`` no retry can change."""
    url = endpoint.base_url.rstrip("/") + path
    headers: dict[str, str] = {"Content-Type": "application/json"}
    if endpoint.api_key:
        headers["Authorization"] = f"Bearer {endpoint.api_key}"
    send = transport or partial(_requests_transport, timeout=endpoint.timeout_seconds)
    last_error: Exception | None = None
    for attempt in range(endpoint.attempts):
        try:
            return send(url, payload, headers)
        except Exception as exc:
            if getattr(getattr(exc, "response", None), "status_code", None) in _FINAL_STATUSES:
                raise
            last_error = exc
            if attempt + 1 < endpoint.attempts and endpoint.backoff_seconds > 0:
                time.sleep(endpoint.backoff_seconds * (2**attempt))
    raise last_error  # type: ignore[misc]


def chat_completion(
    endpoint: EndpointConfig,
    model: str,
    messages: list[dict],
    transport: Transport | None = None,
) -> str:
    payload = {"model": model, "messages": messages, "temperature": 0}
    data = post_json(endpoint, "/chat/completions", payload, transport)
    content = data["choices"][0]["message"]["content"]
    if not isinstance(content, str):
        raise TypeError(f"chat reply content is {type(content).__name__}, not a string")
    return content


def embeddings(
    endpoint: EndpointConfig,
    model: str,
    texts: list[str],
    transport: Transport | None = None,
) -> list[list[float]]:
    payload = {"model": model, "input": texts}
    data = post_json(endpoint, "/embeddings", payload, transport)
    rows = sorted(data["data"], key=lambda item: item.get("index", 0))
    return [row["embedding"] for row in rows]
