"""Text-generation backends behind a single request/reply contract.

Two implementations: a scripted backend that replays canned continuations
keyed by a SHA-256 fingerprint of the exact prompt (deterministic tests and
offline replay), and an HTTP client speaking the common chat-completion JSON
shape. Both cut a reply at its earliest stop string or section token, head
or end, so a reply body never holds a section token, and ``terminated_by``
names the one it ended at.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Mapping, Protocol
from urllib.parse import urlsplit

from .fileio import atomic_path, json_line, read_jsonl, typed_field
from .grammar import StepKind, TokenKind

# The HTTP stack loads on the first request, so a process that sends none
# never pays for it.
if TYPE_CHECKING:
    import http.client
    import ssl

    # The connection factory, host, port and request target of an endpoint URL.
    _Endpoint = tuple[Callable[..., http.client.HTTPConnection], str, int | None, str]

__all__ = [
    "BackendError",
    "BackendUnavailableError",
    "MalformedUpstreamResponseError",
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

END_TOKEN_SURFACES = tuple(kind.end_surface for kind in StepKind)
HEAD_TOKEN_SURFACES = tuple(kind.head_surface for kind in StepKind)
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


@functools.lru_cache(maxsize=16)
def _cut_pattern(stop: tuple[str, ...]) -> re.Pattern[str]:
    """One alternation of the stop strings, then the section tokens not among them."""
    candidates = stop + tuple(t for t in _SECTION_TOKEN_SURFACES if t not in stop)
    return re.compile("|".join(map(re.escape, candidates)))


def _finalize(raw: str, stop: tuple[str, ...]) -> tuple[str, str | None]:
    """Cut at the earliest stop string or section token, head or end, and trim
    framing newlines; return the body, which holds no section token, and
    the string it was cut at.

    One compiled search finds the cut: ``re`` takes the leftmost match and,
    at that position, the first alternative that matches, so stop order
    breaks ties as a ``min`` over one ``find`` per candidate would. The
    pattern of each stop tuple is kept in a cache of 16 entries; inference
    asks for four.
    """
    match = _cut_pattern(stop).search(raw)
    if match is None:
        body, fired = raw, None
    else:
        body, fired = raw[: match.start()], match.group()
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
            raise BackendError("backend produced an empty continuation")
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
            handle.write(json_line({"fingerprint": key, "reply": script[key]}))


@functools.cache
def _tls_context() -> ssl.SSLContext:
    """The process's one TLS context, made on the first https request and
    configured as ``HTTPSConnection`` configures its own default. Making one
    loads the CA store (about 27 ms on a 2-vCPU Xeon VM), which a context per
    connection would pay on every attempt."""
    import ssl

    context = ssl._create_default_https_context()
    context.set_alpn_protocols(["http/1.1"])
    if context.post_handshake_auth is not None:
        context.post_handshake_auth = True
    return context


def _https_connection(host: str, port: int | None, timeout: float) -> http.client.HTTPSConnection:
    import http.client

    return http.client.HTTPSConnection(host, port, timeout=timeout, context=_tls_context())


def _endpoint(url: str) -> _Endpoint:
    """Where to send a request for an http or https endpoint URL; a
    ValueError names what is wrong with the URL."""
    if not url.isascii() or not url.isprintable() or " " in url:
        raise ValueError(f"endpoint_url must be printable ASCII with no spaces, not {url!r}")
    parts = urlsplit(url)
    if parts.scheme not in ("http", "https"):
        raise ValueError(f"endpoint_url must be an http or https URL, not {url!r}")
    if not parts.hostname:
        raise ValueError(f"endpoint_url names no host: {url!r}")
    if parts.scheme == "https":
        connect = _https_connection
    else:
        import http.client

        connect = http.client.HTTPConnection
    try:
        port = parts.port
    except ValueError:  # not a number in 0-65535
        raise ValueError(f"endpoint_url names a bad port: {url!r}") from None
    target = parts.path or "/"
    if parts.query:
        target += "?" + parts.query
    return connect, parts.hostname, port, target


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
        _endpoint(self.endpoint_url)
        if self.retries < 0:
            raise ValueError("retries must be non-negative")
        if not 0 < self.timeout_s < math.inf:
            raise ValueError("timeout must be positive and finite")
        if self.max_output_tokens < 1:
            raise ValueError("max_output_tokens must be at least 1")


def _retry_delay(retry: int, status: int | None, retry_after: str | None) -> float:
    """Seconds to wait before retry number ``retry`` (from 0), given the
    status and Retry-After header of the attempt before it, if it got one.

    A 429 or 503 response's Retry-After, given in seconds, sets the wait;
    otherwise it is _BACKOFF_S doubled per earlier retry. Either way it is
    at most _MAX_BACKOFF_S.
    """
    delay = _BACKOFF_S * 2.0 ** min(retry, 16)
    if status in _RETRY_AFTER_STATUSES:
        try:
            asked = float(retry_after or "")
        except ValueError:
            asked = math.nan
        if math.isfinite(asked):
            delay = max(asked, 0.0)
    return min(delay, _MAX_BACKOFF_S)


def _post(
    endpoint: _Endpoint, body: bytes, headers: dict[str, str], timeout_s: float
) -> tuple[int, str | None, bytes]:
    """POST ``body`` over a connection of its own, closed before returning;
    return the status, the Retry-After header and the whole response body."""
    connect, host, port, target = endpoint
    connection = connect(host, port, timeout=timeout_s)
    try:
        connection.request("POST", target, body, headers)
        response = connection.getresponse()
        return response.status, response.getheader("Retry-After"), response.read()
    finally:
        connection.close()


def chat_completion(
    config: BackendConfig,
    prompt: str,
    stop: tuple[str, ...] = (),
    sleep: Callable[[float], None] = time.sleep,
) -> tuple[str, str | None]:
    """POST one chat-completion request; return (content, finish_reason).

    Each attempt opens its own connection and closes it once the body is
    read, so worker threads share nothing but the TLS context. Transport
    failures (``OSError``, timeouts included, and
    ``http.client.HTTPException``), 5xx statuses, 408 and 429 are retried
    until the attempt budget (retries + 1) is spent, then surface as
    unavailability. Before each retry it calls
    ``sleep`` with a capped exponential backoff that honours Retry-After
    (see ``_retry_delay``); it never sleeps after the last attempt, and
    tests pass a ``sleep`` that only records. Any other status outside 2xx,
    redirects included, cannot succeed on a retry, so it surfaces after one
    request. A 2xx body that is not UTF-8 JSON, or lacks the text field,
    is malformed and not retried.
    """
    import http.client

    endpoint = _endpoint(config.endpoint_url)
    payload = {
        "model": config.model,
        "messages": [{"role": "user", "content": prompt}],
        "stop": list(stop),
        "temperature": 0,
        "max_tokens": config.max_output_tokens,
    }
    body = json.dumps(payload).encode("utf-8")
    headers = {"Content-Type": "application/json"}
    api_key = os.environ.get(config.api_key_env)
    if api_key:
        if not api_key.isascii() or not api_key.isprintable():
            raise BackendUnavailableError(
                f"{config.api_key_env} holds a character an HTTP header cannot carry"
            )
        headers["Authorization"] = f"Bearer {api_key}"
    last_error: BackendUnavailableError | None = None
    status: int | None = None  # the last attempt's status and Retry-After, if any
    retry_after: str | None = None
    for attempt in range(config.retries + 1):
        if attempt:
            sleep(_retry_delay(attempt - 1, status, retry_after))
        try:
            status, retry_after, raw = _post(endpoint, body, headers, config.timeout_s)
        except (OSError, http.client.HTTPException) as exc:
            last_error = BackendUnavailableError(f"transport failure: {exc}")
            status = retry_after = None
            continue
        if status < 200 or status >= 300:
            last_error = BackendUnavailableError(
                f"upstream returned status {status}", status=status
            )
            if 300 <= status < 500 and status not in _RETRYABLE_CLIENT_STATUSES:
                raise last_error
            continue
        try:
            document = json.loads(raw.decode("utf-8"))
        except (ValueError, RecursionError) as exc:
            raise MalformedUpstreamResponseError(f"response is not UTF-8 JSON: {exc}") from exc
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

    def generate(self, request: AgentRequest) -> AgentReply:
        prompt = prompt_text(request)
        content, finish_reason = chat_completion(self._config, prompt, request.stop, sleep=self._sleep)
        body, fired = _finalize(content, request.stop)
        if not body:
            raise BackendError("backend produced an empty continuation")
        if fired is not None:
            terminated_by = fired
        elif finish_reason == "length":
            terminated_by = LENGTH_LIMIT_MARKER
        else:
            # Upstream consumed the stop string itself.
            terminated_by = _MATCHING_END[request.head].value
        return AgentReply(body, terminated_by)
