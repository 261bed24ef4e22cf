"""Backend contract: scripted replay, stop discipline, and the HTTP client."""

import http.client
import json
import ssl

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factrail import backends
from factrail.backends import (
    END_TOKEN_SURFACES,
    HEAD_TOKEN_SURFACES,
    AgentReply,
    AgentRequest,
    BackendConfig,
    BackendError,
    BackendUnavailableError,
    HttpBackend,
    LENGTH_LIMIT_MARKER,
    MalformedUpstreamResponseError,
    ScriptedBackend,
    chat_completion,
    fingerprint,
    load_script,
    prompt_text,
    save_script,
    _BACKOFF_S,
    _MAX_BACKOFF_S,
    _finalize,
)
from factrail.corpus import index_documents
from factrail.grammar import TokenKind
from factrail.orchestrator import run_batch

from helpers import InFlightHandler, StubServer, chat_reply, exactly


def NO_WAIT(_seconds):
    """A sleep for tests that count attempts, not waits."""


def request_for(head=TokenKind.GENERATOR_HEAD, instruction="q</eoi>\n", prior=""):
    end = {
        TokenKind.RECONSTRUCTOR_HEAD: "</eor>",
        TokenKind.LOCATOR_HEAD: "</eol>",
        TokenKind.GENERATOR_HEAD: "</eog>",
        TokenKind.RETRIEVAL_HEAD: "</retrieval>",
    }[head]
    return AgentRequest(instruction, prior, head, (end,))


# ---------------------------------------------------------------------------
# request shape


def test_prompt_text_layout():
    req = AgentRequest("ask</eoi>\n", "<Reconstructor>\nS\n</eor>\n", TokenKind.LOCATOR_HEAD, ("</eol>",))
    assert prompt_text(req) == "ask</eoi>\n<Reconstructor>\nS\n</eor>\n<Locator>\n"


def test_request_rejects_non_head_token():
    with pytest.raises(ValueError):
        AgentRequest("x", "", TokenKind.GENERATOR_END, ("</eog>",))


def test_request_requires_matching_stop():
    with pytest.raises(ValueError):
        AgentRequest("x", "", TokenKind.GENERATOR_HEAD, ("</eor>",))


def test_fingerprint_is_stable_sha256():
    assert fingerprint("abc") == "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"


# ---------------------------------------------------------------------------
# scripted backend


def test_scripted_round_trip():
    backend = ScriptedBackend()
    req = request_for()
    backend.add_reply(prompt_text(req), "an answer")
    reply = backend.generate(req)
    assert reply == AgentReply("an answer", "</eog>")


def test_scripted_miss_raises():
    backend = ScriptedBackend()
    with pytest.raises(BackendUnavailableError):
        backend.generate(request_for())


def test_scripted_truncates_at_stop():
    backend = ScriptedBackend()
    req = request_for()
    backend.add_reply(prompt_text(req), "body text\n</eog>\n<Generator>\nleaked")
    reply = backend.generate(req)
    assert reply.body == "body text"
    assert reply.terminated_by == "</eog>"


def test_scripted_truncates_at_any_end_token():
    backend = ScriptedBackend()
    req = request_for(TokenKind.RECONSTRUCTOR_HEAD)
    backend.add_reply(prompt_text(req), "Search(q)\n</eog>extra")
    reply = backend.generate(req)
    assert reply.body == "Search(q)"
    assert reply.terminated_by == "</eog>"


def test_scripted_ends_a_reply_at_a_head_the_model_wrote_early():
    backend = ScriptedBackend()
    req = request_for(TokenKind.RECONSTRUCTOR_HEAD)
    backend.add_reply(prompt_text(req), "Search(q)\n<Locator>\n[Relevant]: [1] f\n</eor>")
    assert backend.generate(req) == AgentReply("Search(q)", "<Locator>")


def test_scripted_trims_one_framing_newline_each_side():
    backend = ScriptedBackend()
    req = request_for()
    backend.add_reply(prompt_text(req), "\n\nkeep\n\n")
    assert backend.generate(req).body == "\nkeep\n"


def test_scripted_empty_reply_raises():
    # Empty before its end token, or before a head the model wrote early.
    for raw in ("\n</eog>\n", "\n<Generator>\nleaked"):
        backend = ScriptedBackend()
        req = request_for()
        backend.add_reply(prompt_text(req), raw)
        with pytest.raises(BackendError, match=exactly("backend produced an empty continuation")):
            backend.generate(req)


SECTION_SURFACES = END_TOKEN_SURFACES + HEAD_TOKEN_SURFACES

# Whole token surfaces, proper prefixes of the section tokens (such as
# "</eo" or "<Loc"), newlines and plain characters: raw replies full of
# near misses.
_REPLY_PIECES = sorted(
    {t.value for t in TokenKind}
    | {s[:i] for s in SECTION_SURFACES for i in range(1, len(s))}
    | set("\n <>/ab")
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.sampled_from(_REPLY_PIECES), max_size=16).map("".join),
    st.lists(st.sampled_from(END_TOKEN_SURFACES), unique=True, max_size=4).map(tuple),
)
def test_finalize_body_never_holds_an_end_token(raw, stop):
    # Nor a head token: the body ends at the earliest section token.
    body, fired = _finalize(raw, stop)
    assert not any(token in body for token in SECTION_SURFACES)
    assert raw.startswith(body) or raw.startswith("\n" + body)
    positions = [raw.find(token) for token in SECTION_SURFACES if token in raw]
    if fired is None:
        assert positions == []
    else:
        assert fired in SECTION_SURFACES
        assert raw.find(fired) == min(positions)
        assert raw[: raw.find(fired)].removeprefix("\n").removesuffix("\n") == body


def test_script_file_round_trip(tmp_path):
    path = tmp_path / "script.jsonl"
    save_script({"ff" * 32: "reply one", "aa" * 32: "reply two"}, path)
    loaded = load_script(path)
    assert loaded == {"ff" * 32: "reply one", "aa" * 32: "reply two"}
    backend = ScriptedBackend.from_file(path)
    assert backend._script == loaded


def test_load_script_reports_bad_line(tmp_path):
    path = tmp_path / "script.jsonl"
    path.write_text('{"fingerprint": "x", "reply": "y"}\nnot json\n')
    with pytest.raises(BackendError, match="line 2"):
        load_script(path)


def test_failed_script_write_keeps_previous_script_bytes(tmp_path):
    path = tmp_path / "script.jsonl"
    save_script({"cc" * 32: "old reply"}, path)
    before = path.read_bytes()
    # The second record's lone surrogate cannot be encoded, so the write
    # fails after the first record.
    with pytest.raises(UnicodeEncodeError):
        save_script({"aa" * 32: "reply one", "bb" * 32: "reply \udc80"}, path)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


# ---------------------------------------------------------------------------
# config


def test_backend_config_validation():
    good = BackendConfig(endpoint_url="http://x")
    assert good.retries == 2
    with pytest.raises(ValueError):
        BackendConfig(endpoint_url="http://x", retries=-1)
    with pytest.raises(ValueError):
        BackendConfig(endpoint_url="http://x", timeout_s=0)
    with pytest.raises(ValueError):
        BackendConfig(endpoint_url="http://x", max_output_tokens=0)
    assert BackendConfig(endpoint_url="HTTPS://x:8443/v1?api-version=2").retries == 2
    for url, fault in (
        ("ftp://x/v1", "must be an http or https URL"),
        ("x:8000/v1", "must be an http or https URL"),
        ("http:///v1", "names no host"),
        ("http://:8000/v1", "names no host"),
        ("http://x:99999/v1", "names a bad port"),
        ("http://x:port/v1", "names a bad port"),
        ("http://x/v1 chat", "must be printable ASCII"),
        ("http://x/v1/\u00e9", "must be printable ASCII"),
        ("http://x/v1\n", "must be printable ASCII"),
    ):
        with pytest.raises(ValueError, match=f"^endpoint_url {fault}"):
            BackendConfig(endpoint_url=url)


# ---------------------------------------------------------------------------
# HTTP client against a stub server


def config_for(server, **overrides):
    settings = {"endpoint_url": server.url, "timeout_s": 5.0, "retries": 1}
    settings.update(overrides)
    return BackendConfig(**settings)


def test_http_happy_path_and_payload_shape():
    with StubServer(lambda payload: (200, chat_reply("Search(q)\n</eor>"))) as server:
        backend = HttpBackend(config_for(server, model="test-model", max_output_tokens=99))
        req = request_for(TokenKind.RECONSTRUCTOR_HEAD, instruction="why?</eoi>\n")
        reply = backend.generate(req)
    assert reply == AgentReply("Search(q)", "</eor>")
    payload = server.requests[0]
    assert payload == {
        "model": "test-model",
        "messages": [{"role": "user", "content": "why?</eoi>\n<Reconstructor>\n"}],
        "stop": ["</eor>"],
        "temperature": 0,
        "max_tokens": 99,
    }


def test_http_sends_bearer_token_when_env_set(monkeypatch):
    monkeypatch.setenv("FACTRAIL_TEST_KEY", "sekrit")
    with StubServer(lambda payload: (200, chat_reply("ok"))) as server:
        backend = HttpBackend(config_for(server, api_key_env="FACTRAIL_TEST_KEY"))
        backend.generate(request_for())
    assert server.header_log[0].get("authorization") == "Bearer sekrit"


def test_http_omits_auth_header_without_key(monkeypatch):
    monkeypatch.delenv("FACTRAIL_API_KEY", raising=False)
    with StubServer(lambda payload: (200, chat_reply("ok"))) as server:
        HttpBackend(config_for(server)).generate(request_for())
    assert "authorization" not in server.header_log[0]


def test_http_body_is_the_json_requests_sends_under_a_json_content_type():
    # Default separators and ensure_ascii, UTF-8 encoded: the bytes
    # requests' json= sends.
    prompt = "Qu'est-ce que « la lune » ? Луна 月 \u2028 \U0001f319</eoi>\n"
    with StubServer(lambda payload: (200, chat_reply("ok"))) as server:
        chat_completion(config_for(server, model="m", max_output_tokens=7), prompt, ("</eog>",))
    sent = {
        "model": "m",
        "messages": [{"role": "user", "content": prompt}],
        "stop": ["</eog>"],
        "temperature": 0,
        "max_tokens": 7,
    }
    assert server.bodies == [json.dumps(sent).encode("utf-8")]
    assert server.header_log[0]["content-type"] == "application/json"


def test_http_api_key_a_header_cannot_carry_fails_before_sending(monkeypatch):
    monkeypatch.setenv("FACTRAIL_TEST_KEY", "sek\nrit")
    with StubServer(lambda payload: (200, chat_reply("ok"))) as server:
        backend = HttpBackend(config_for(server, api_key_env="FACTRAIL_TEST_KEY"))
        with pytest.raises(BackendUnavailableError, match="FACTRAIL_TEST_KEY"):
            backend.generate(request_for())
    assert server.request_count == 0


def test_http_retry_exhaustion_counts_attempts():
    with StubServer(lambda payload: (500, {"error": "down"})) as server:
        backend = HttpBackend(config_for(server, retries=2), sleep=NO_WAIT)
        with pytest.raises(BackendUnavailableError) as err:
            backend.generate(request_for())
    assert err.value.status == 500
    assert server.request_count == 3


def test_http_client_error_is_not_retried():
    with StubServer(lambda payload: (404, {"error": "no such model"})) as server:
        backend = HttpBackend(config_for(server, retries=2))
        with pytest.raises(BackendUnavailableError) as err:
            backend.generate(request_for())
    assert err.value.status == 404
    assert server.request_count == 1


@pytest.mark.parametrize("status", [408, 429])
def test_http_timeout_and_rate_limit_statuses_are_retried(status):
    with StubServer(lambda payload: (status, {"error": "later"})) as server:
        backend = HttpBackend(config_for(server, retries=2), sleep=NO_WAIT)
        with pytest.raises(BackendUnavailableError) as err:
            backend.generate(request_for())
    assert err.value.status == status
    assert server.request_count == 3


def test_http_recovers_after_transient_failure():
    calls = []

    def handler(payload):
        calls.append(1)
        if len(calls) == 1:
            return 503, {"error": "warming up"}
        return 200, chat_reply("recovered")

    with StubServer(handler) as server:
        reply = HttpBackend(config_for(server, retries=3), sleep=NO_WAIT).generate(request_for())
    assert reply.body == "recovered"
    assert server.request_count == 2


def test_http_malformed_shape_is_not_retried():
    with StubServer(lambda payload: (200, {"unexpected": True})) as server:
        with pytest.raises(MalformedUpstreamResponseError):
            HttpBackend(config_for(server, retries=5)).generate(request_for())
    assert server.request_count == 1


def test_http_non_json_body_is_malformed():
    with StubServer(lambda payload: (200, "plain text, not json")) as server:
        with pytest.raises(MalformedUpstreamResponseError):
            HttpBackend(config_for(server)).generate(request_for())
    assert server.request_count == 1


@pytest.mark.parametrize(
    "body",
    [
        b'{"choices": [{"message": {"content": "caf\xe9"}}]}',
        json.dumps(chat_reply("ok")).encode("utf-16"),
        "[" * 100_000 + "]" * 100_000,
    ],
    ids=["latin-1", "utf-16", "nested-too-deep"],
)
def test_http_2xx_body_that_is_not_utf8_json_is_malformed_and_not_retried(body):
    with StubServer(lambda payload: (200, body)) as server:
        with pytest.raises(MalformedUpstreamResponseError):
            HttpBackend(config_for(server, retries=2)).generate(request_for())
    assert server.request_count == 1


def test_http_response_cut_short_is_a_retried_transport_failure():
    # The server closes the connection 990 bytes before the promised end.
    cut = (200, b'{"choices"', {"Content-Length": "1000"})
    waits = []
    with StubServer(lambda payload: cut) as server:
        with pytest.raises(BackendUnavailableError, match="transport failure") as err:
            chat_completion(config_for(server, retries=1), "p", sleep=waits.append)
    assert err.value.status is None
    assert server.request_count == 2
    assert waits == [_BACKOFF_S]


def test_http_body_of_several_megabytes_is_read_whole():
    content = "the moon orbits the earth; " * 200_000
    with StubServer(lambda payload: (200, chat_reply(content))) as server:
        got, _ = chat_completion(config_for(server), "p")
    assert len(got) > 5_000_000
    assert got == content


def test_http_redirect_is_a_status_error_and_not_followed():
    with StubServer(lambda payload: (307, "", {"Location": "/elsewhere"})) as server:
        with pytest.raises(BackendUnavailableError) as err:
            chat_completion(config_for(server, retries=2), "p")
    assert err.value.status == 307
    assert server.request_count == 1


def test_http_length_finish_reason():
    with StubServer(lambda payload: (200, chat_reply("cut off mid", "length"))) as server:
        reply = HttpBackend(config_for(server)).generate(request_for())
    assert reply.terminated_by == LENGTH_LIMIT_MARKER


def test_http_reply_cut_at_a_head_names_the_head_not_the_length_limit():
    with StubServer(lambda payload: (200, chat_reply("cut\n<Locator>\nleaked", "length"))) as server:
        reply = HttpBackend(config_for(server)).generate(request_for())
    assert reply == AgentReply("cut", "<Locator>")


def test_http_empty_content_raises():
    with StubServer(lambda payload: (200, chat_reply(""))) as server:
        with pytest.raises(BackendError, match=exactly("backend produced an empty continuation")):
            HttpBackend(config_for(server)).generate(request_for())


def test_http_transport_failure_is_unavailable():
    config = BackendConfig(endpoint_url="http://127.0.0.1:9/nothing", timeout_s=0.2, retries=1)
    waits = []
    with pytest.raises(BackendUnavailableError):
        HttpBackend(config, sleep=waits.append).generate(request_for())
    assert waits == [_BACKOFF_S]


def test_https_attempts_share_one_tls_context_and_http_makes_none(monkeypatch):
    made, passed = [], []
    default_context = ssl._create_default_https_context

    def counted_default_context():
        made.append(default_context())
        return made[-1]

    class RefusedHTTPSConnection:
        def __init__(self, host, port, *, timeout, context):
            passed.append(context)

        def request(self, *args):
            raise ConnectionRefusedError("refused")

        def close(self):
            pass

    backends._tls_context.cache_clear()
    monkeypatch.setattr(ssl, "_create_default_https_context", counted_default_context)
    monkeypatch.setattr(http.client, "HTTPSConnection", RefusedHTTPSConnection)
    with StubServer(lambda payload: (200, chat_reply("plain"))) as server:
        assert chat_completion(config_for(server), "p") == ("plain", "stop")
    assert made == []
    config = BackendConfig(endpoint_url="https://127.0.0.1:9/v1", timeout_s=0.2, retries=1)
    with pytest.raises(BackendUnavailableError, match="transport failure: refused"):
        chat_completion(config, "p", sleep=NO_WAIT)
    # Two attempts, one context: the retry reuses the first attempt's.
    assert len(made) == 1 and len(passed) == 2
    assert passed[0] is passed[1] is made[0]
    assert made[0].verify_mode == ssl.CERT_REQUIRED and made[0].check_hostname
    backends._tls_context.cache_clear()


def test_http_503_waits_the_retry_after_seconds_then_succeeds():
    replies = iter([(503, {"error": "busy"}, {"Retry-After": "2"}), (200, chat_reply("done"))])
    waits = []
    with StubServer(lambda payload: next(replies)) as server:
        content, _ = chat_completion(config_for(server, retries=3), "p", sleep=waits.append)
    assert content == "done"
    assert server.request_count == 2
    assert waits == [2.0]


def test_http_backoff_doubles_to_the_cap_and_never_follows_the_last_attempt():
    # A 500's Retry-After is not honoured; only 429 and 503 set the wait.
    waits = []
    with StubServer(lambda payload: (500, {"error": "down"}, {"Retry-After": "0"})) as server:
        with pytest.raises(BackendUnavailableError):
            chat_completion(config_for(server, retries=7), "p", sleep=waits.append)
    assert server.request_count == 8
    assert (_BACKOFF_S, _MAX_BACKOFF_S) == (0.5, 8.0)
    assert waits == [0.5, 1.0, 2.0, 4.0, 8.0, 8.0, 8.0]


def test_http_retry_after_beyond_the_cap_is_capped():
    waits = []
    with StubServer(lambda payload: (429, {"error": "slow"}, {"Retry-After": "3600"})) as server:
        with pytest.raises(BackendUnavailableError):
            chat_completion(config_for(server, retries=2), "p", sleep=waits.append)
    assert server.request_count == 3
    assert waits == [_MAX_BACKOFF_S, _MAX_BACKOFF_S]


def test_chat_completion_reports_finish_reason():
    with StubServer(lambda payload: (200, chat_reply("text", "stop"))) as server:
        content, finish = chat_completion(config_for(server), "p")
    assert (content, finish) == ("text", "stop")


def test_http_in_flight_bound_is_respected():
    # Each batch worker holds one request at a time, so max_workers bounds
    # the requests in flight.
    handler = InFlightHandler()
    index = index_documents([("Moon", "the moon orbits the earth")])
    with StubServer(handler) as server:
        backend = HttpBackend(config_for(server))
        results = run_batch([f"question {i}?" for i in range(6)], index, backend, max_workers=2)
    assert [r.answer for r in results] == ["ok"] * 6
    assert server.request_count == 12
    assert handler.peak == 2
