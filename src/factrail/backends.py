"""Text-generation backends behind a single request/reply contract.

Two implementations: a scripted backend that replays canned continuations
keyed by a SHA-256 fingerprint of the exact prompt (deterministic tests and
offline replay), and an HTTP client speaking the common chat-completion JSON
shape. Both cut a reply at its earliest stop string or section token, head
or end, so a reply body never holds a section token, and ``terminated_by``
names the one it ended at.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Protocol

import requests

from .fileio import atomic_path, read_jsonl, typed_field
from .grammar import StepKind, TokenKind

__all__ = [
    "BackendError",
    "BackendUnavailableError",
    "MalformedUpstreamResponseError",
    "EmptyGenerationError",
    "AgentRequest",
    "AgentReply",
    "Backend",
    "BackendConfig",
    "ScriptedBackend",
    "HttpBackend",
    "prompt_text",
    "fingerprint",
    "load_script",
    "save_script",
    "chat_completion",
    "LENGTH_LIMIT_MARKER",
    "END_TOKEN_SURFACES",
    "HEAD_TOKEN_SURFACES",
]

END_TOKEN_SURFACES = tuple(kind.end.value for kind in StepKind)
HEAD_TOKEN_SURFACES = tuple(kind.head.value for kind in StepKind)
# No surface is a prefix of another, so at most one starts at any position.
_SECTION_TOKEN_SURFACES = END_TOKEN_SURFACES + HEAD_TOKEN_SURFACES

LENGTH_LIMIT_MARKER = "length"

# Client errors that a later attempt may get past: timeout, rate limit.
_RETRYABLE_CLIENT_STATUSES = frozenset({408, 429})
# Statuses whose Retry-After header sets the wait before the next attempt.
_RETRY_AFTER_STATUSES = frozenset({429, 503})
# The wait before the first retry, doubled before each later one, and the
# most any wait may be, Retry-After included.
_BACKOFF_S = 0.5
_MAX_BACKOFF_S = 8.0

_MATCHING_END = {kind.head: kind.end for kind in StepKind}


class BackendError(Exception):
    pass


class BackendUnavailableError(BackendError):
    def __init__(self, message: str, status: int | None = None) -> None:
        self.status = status
        super().__init__(message)


class MalformedUpstreamResponseError(BackendError):
    pass


class EmptyGenerationError(BackendError):
    def __init__(self) -> None:
        super().__init__("backend produced an empty continuation")


@dataclass(frozen=True)
class AgentRequest:
    """One generation call: framed instruction, prior trajectory text, next head."""

    instruction: str
    prior_trajectory: str
    head: TokenKind
    stop: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "stop", tuple(self.stop))
        if self.head not in _MATCHING_END:
            raise ValueError(f"{self.head.value} is not a section head token")
        if _MATCHING_END[self.head].value not in self.stop:
            raise ValueError("stop strings must include the end token matching the head")


@dataclass(frozen=True)
class AgentReply:
    body: str
    terminated_by: str


class Backend(Protocol):
    """Replies with a non-empty body cut before the reply's first stop string
    or section token, head or end, and names in ``terminated_by`` the one it
    was cut at (a head the model wrote early), or ``LENGTH_LIMIT_MARKER``."""

    def generate(self, request: AgentRequest) -> AgentReply: ...


def prompt_text(request: AgentRequest) -> str:
    """The exact prompt sent upstream: instruction, prior sections, open head."""
    return f"{request.instruction}{request.prior_trajectory}{request.head.value}\n"


def fingerprint(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


def _finalize(raw: str, stop: tuple[str, ...]) -> tuple[str, str | None]:
    """Cut at the earliest stop string or section token, head or end, and trim
    framing newlines; return the body, which holds no section token, and
    the string it was cut at."""
    candidates = list(stop) + [t for t in _SECTION_TOKEN_SURFACES if t not in stop]
    found = [(at, c) for c in candidates if (at := raw.find(c)) != -1]
    # min keeps the first of equal positions, so stop order breaks ties.
    cut, fired = min(found, key=lambda hit: hit[0], default=(len(raw), None))
    body = raw[:cut]
    if body.startswith("\n"):
        body = body[1:]
    if body.endswith("\n"):
        body = body[:-1]
    return body, fired


class ScriptedBackend:
    """Replays canned reply bodies keyed by the fingerprint of the exact prompt."""

    def __init__(self, script: Mapping[str, str] | None = None) -> None:
        self._script: dict[str, str] = dict(script or {})

    @classmethod
    def from_file(cls, path: str | Path) -> "ScriptedBackend":
        return cls(load_script(path))

    def add_reply(self, prompt: str, body: str) -> None:
        self._script[fingerprint(prompt)] = body

    def generate(self, request: AgentRequest) -> AgentReply:
        prompt = prompt_text(request)
        key = fingerprint(prompt)
        raw = self._script.get(key)
        if raw is None:
            raise BackendUnavailableError(
                f"no scripted reply for prompt fingerprint {key[:12]}"
            )
        body, fired = _finalize(raw, request.stop)
        if not body:
            raise EmptyGenerationError()
        return AgentReply(body, fired or _MATCHING_END[request.head].value)


def _script_entry(record: dict) -> tuple[str, str]:
    return typed_field(record, "fingerprint"), typed_field(record, "reply")


def load_script(path: str | Path) -> dict[str, str]:
    """Read a JSONL replay script of {"fingerprint", "reply"} records."""
    return dict(entry for _, entry in read_jsonl(path, _script_entry, "script record", BackendError))


def save_script(script: Mapping[str, str], path: str | Path) -> None:
    """Write a replay script that ``load_script`` reads, atomically."""
    with atomic_path(path) as temp, open(temp, "w", encoding="utf-8") as handle:
        for key in sorted(script):
            handle.write(
                json.dumps(
                    {"fingerprint": key, "reply": script[key]},
                    ensure_ascii=False,
                    sort_keys=True,
                )
                + "\n"
            )


@dataclass(frozen=True)
class BackendConfig:
    """Connection settings for the HTTP chat-completion backend."""

    endpoint_url: str
    model: str = "default"
    api_key_env: str = "FACTRAIL_API_KEY"
    max_output_tokens: int = 512
    timeout_s: float = 30.0
    retries: int = 2

    def __post_init__(self) -> None:
        for name in ("endpoint_url", "model", "api_key_env"):
            typed_field(vars(self), name, str)
        for name in ("max_output_tokens", "retries"):
            typed_field(vars(self), name, int)
        if type(self.timeout_s) not in (int, float):
            raise ValueError(f"'timeout_s' must be int or float, not {type(self.timeout_s).__name__}")
        if self.retries < 0:
            raise ValueError("retries must be non-negative")
        if not 0 < self.timeout_s < math.inf:
            raise ValueError("timeout must be positive and finite")
        if self.max_output_tokens < 1:
            raise ValueError("max_output_tokens must be at least 1")


def _retry_delay(retry: int, response: requests.Response | None) -> float:
    """Seconds to wait before retry number ``retry`` (from 0).

    A 429 or 503 response's Retry-After, given in seconds, sets the wait;
    otherwise it is _BACKOFF_S doubled per earlier retry. Either way it is
    at most _MAX_BACKOFF_S.
    """
    delay = _BACKOFF_S * 2.0 ** min(retry, 16)
    if response is not None and response.status_code in _RETRY_AFTER_STATUSES:
        try:
            asked = float(response.headers.get("Retry-After", ""))
        except ValueError:
            asked = math.nan
        if math.isfinite(asked):
            delay = max(asked, 0.0)
    return min(delay, _MAX_BACKOFF_S)


def chat_completion(
    config: BackendConfig,
    prompt: str,
    stop: tuple[str, ...] = (),
    session: requests.Session | None = None,
    sleep: Callable[[float], None] = time.sleep,
) -> tuple[str, str | None]:
    """POST one chat-completion request; return (content, finish_reason).

    Transport failures, 5xx statuses, 408 and 429 are retried until the
    attempt budget (retries + 1) is spent, then surface as unavailability.
    Before each retry it calls ``sleep`` with a capped exponential backoff
    that honours Retry-After (see ``_retry_delay``); it never sleeps after
    the last attempt, and tests pass a ``sleep`` that only records. Any
    other 4xx status cannot succeed on a retry, so it surfaces after one
    request. A 2xx response missing the text field is malformed and not
    retried.
    """
    payload = {
        "model": config.model,
        "messages": [{"role": "user", "content": prompt}],
        "stop": list(stop),
        "temperature": 0,
        "max_tokens": config.max_output_tokens,
    }
    headers = {}
    api_key = os.environ.get(config.api_key_env)
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    post = (session or requests).post
    last_error: BackendUnavailableError | None = None
    response: requests.Response | None = None  # the last attempt's, if any
    for attempt in range(config.retries + 1):
        if attempt:
            sleep(_retry_delay(attempt - 1, response))
        try:
            response = post(
                config.endpoint_url, json=payload, headers=headers, timeout=config.timeout_s
            )
        except requests.RequestException as exc:
            last_error = BackendUnavailableError(f"transport failure: {exc}")
            response = None
            continue
        status = response.status_code
        if status < 200 or status >= 300:
            last_error = BackendUnavailableError(
                f"upstream returned status {status}", status=status
            )
            if 400 <= status < 500 and status not in _RETRYABLE_CLIENT_STATUSES:
                raise last_error
            continue
        try:
            document = response.json()
        except ValueError as exc:
            raise MalformedUpstreamResponseError(f"response is not JSON: {exc}") from exc
        try:
            choice = document["choices"][0]
            content = choice["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise MalformedUpstreamResponseError(
                "response lacks choices[0].message.content"
            ) from exc
        if not isinstance(content, str):
            raise MalformedUpstreamResponseError("message content is not text")
        finish_reason = choice.get("finish_reason") if isinstance(choice, dict) else None
        return content, finish_reason
    assert last_error is not None
    raise last_error


class HttpBackend:
    """Chat-completion client with retries.

    ``sleep`` waits out the backoff between attempts (see ``chat_completion``).
    """

    def __init__(self, config: BackendConfig, sleep: Callable[[float], None] = time.sleep) -> None:
        self._config = config
        self._sleep = sleep
        self._session = requests.Session()

    def generate(self, request: AgentRequest) -> AgentReply:
        prompt = prompt_text(request)
        content, finish_reason = chat_completion(
            self._config, prompt, request.stop, session=self._session, sleep=self._sleep
        )
        body, fired = _finalize(content, request.stop)
        if not body:
            raise EmptyGenerationError()
        if fired is not None:
            terminated_by = fired
        elif finish_reason == "length":
            terminated_by = LENGTH_LIMIT_MARKER
        else:
            # Upstream consumed the stop string itself.
            terminated_by = _MATCHING_END[request.head].value
        return AgentReply(body, terminated_by)
