"""Shared test machinery: scenario scripting, oracles, a reference index
loader, and a stub HTTP server."""

from __future__ import annotations

import json
import math
import random
import re
import threading
import time
import zlib
from array import array
from collections import Counter
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Sequence

from factrail import corpus
from factrail.backends import ScriptedBackend
from factrail.corpus import (
    BM25_B,
    BM25_K1,
    CorpusError,
    CorpusIndex,
    Passage,
    tokenize,
)
from factrail.grammar import (
    IRRELEVANT_PHRASE,
    GrammarError,
    LocatorJudgment,
    Relevance,
    StepKind,
    TokenKind,
    Trajectory,
    TrajectoryStep,
    format_judgment,
    parse_intents,
    parse_locator_body,
    retrieval_body,
    text_violation,
)
from factrail.orchestrator import InferenceConfig, InferenceTrace, build_step_prompt


def exactly(message: str) -> str:
    """A ``pytest.raises`` pattern that matches this message and nothing else."""
    return "^" + re.escape(message) + "$"


def make_passage(pid: int, title: str, text: str) -> Passage:
    return Passage(id=pid, title=title, text=text, word_count=len(text.split()))


VOCAB = [f"w{i}" for i in range(12)]
# Term w<r> is drawn about 12/(r+1) times as often as w0: Zipf-skewed text.
ZIPF_DRAWS = [term for rank, term in enumerate(VOCAB) for _ in range(12 // (rank + 1))]


def query_postings(index: CorpusIndex, query: str) -> int:
    """The postings of the query's matching terms, which decide whether
    ``retrieve`` prunes it."""
    return sum(end - start for start, end in map(index.span, set(tokenize(query))))


def brute_force_bm25(
    passages: Sequence[Passage], query: str, k: int
) -> list[tuple[int, float]]:
    """Exhaustive BM25 scorer: no inverted index, recounts everything per query."""
    terms = []
    for term in tokenize(query):
        if term not in terms:
            terms.append(term)
    total = len(passages)
    lengths = {p.id: p.word_count for p in passages}
    avg = sum(lengths.values()) / total if total else 0.0
    bags = [tokenize(passage.text) + tokenize(passage.title) for passage in passages]
    dfs = {term: sum(1 for bag in bags if term in bag) for term in terms}
    scored = []
    for passage, bag in zip(passages, bags):
        score = 0.0
        for term in terms:
            tf = bag.count(term)
            if tf == 0:
                continue
            df = dfs[term]
            idf = math.log(1.0 + (total - df + 0.5) / (df + 0.5))
            norm = 1.0 - BM25_B + BM25_B * lengths[passage.id] / avg
            score += idf * tf * (BM25_K1 + 1.0) / (tf + BM25_K1 * norm)
        if score > 0.0:
            scored.append((passage.id, score))
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored[:k]


def reference_load_index(path) -> CorpusIndex:
    """``load_index`` as plain loops: each header number, block line and
    posting checked one at a time, in the order and with the messages of
    ``load_index``. Only reading the header line and assembling the index
    are ``load_index``'s own code."""
    with open(path, "rb") as handle:
        header, _ = corpus._read_header(handle)
        # Every check but the checksum's stops before the file's last 4 bytes.
        rest = handle.read()[:-4]
        handle.seek(0)
        data = handle.read()

    ids, word_counts = header.get("ids"), header.get("word_counts")
    if not isinstance(ids, list) or not all(type(pid) is int for pid in ids):
        raise CorpusError("index has no 'ids' list of ints")
    if not isinstance(word_counts, list) or len(word_counts) != len(ids):
        raise CorpusError("index has no 'word_counts' list as long as 'ids'")
    for at in range(1, len(ids)):
        if ids[at] <= ids[at - 1]:
            raise CorpusError(f"ids[{at}] = {ids[at]} is not above ids[{at - 1}] = {ids[at - 1]}")
    for at, words in enumerate(word_counts):
        if type(words) is not int:
            raise CorpusError(f"word_counts[{at}] must be int, not {type(words).__name__}")
        if words < 1:
            raise CorpusError(f"word_counts[{at}] must be at least 1")
    sizes = header.get("block_bytes")
    for name in BLOCKS:
        size = sizes.get(name) if isinstance(sizes, dict) else None
        if type(size) is not int or size < 0:
            raise CorpusError(f"index has no byte count for its {name} block")

    need = sum(sizes[name] for name in BLOCKS)
    if len(rest) < need:
        raise CorpusError(f"the index blocks need {need} bytes, but {len(rest)} follow the header")
    parts, lines = {}, {}
    for name in BLOCKS:
        parts[name], rest = rest[: sizes[name]], rest[sizes[name] :]
        count = None if name == "terms" else len(ids)
        lines[name] = _reference_block_lines(name, parts[name], count)
    terms = lines["terms"]
    counts = Counter(terms)
    for term in terms:
        if counts[term] > 1:
            raise CorpusError(f"the terms block lists {term!r} twice")

    if len(rest) < 4 * len(terms):
        raise CorpusError(
            f"index columns hold {len(rest)} bytes, fewer than 4 * len(terms) = {4 * len(terms)}"
        )
    parts["doc_freqs"] = rest[: 4 * len(terms)]
    doc_freqs = _uint32s_of(parts["doc_freqs"])
    for at, freq in enumerate(doc_freqs):
        if freq < 1:
            raise CorpusError(f"doc_freqs[{at}] must be at least 1")
    total = sum(doc_freqs)
    if len(rest) != 4 * len(terms) + 8 * total:
        raise CorpusError(
            f"index columns hold {len(rest)} bytes, but 4 * len(terms) + 8 * sum(doc_freqs) = "
            f"{4 * len(terms) + 8 * total}"
        )
    parts["rows"] = rest[4 * len(terms) : 4 * len(terms) + 4 * total]
    parts["tfs"] = rest[4 * len(terms) + 4 * total :]
    rows, tfs = _uint32s_of(parts["rows"]), _uint32s_of(parts["tfs"])
    for tf in tfs:
        if tf < 1:
            raise CorpusError("a term frequency in the index is below 1")
    for row in rows:
        if row >= len(ids):
            raise CorpusError(
                f"the postings name passage row {row}, but len(passages) = {len(ids)}"
            )
    offsets = [0]
    for term, freq in zip(terms, doc_freqs):
        start = offsets[-1]
        for at in range(start + 1, start + freq):
            if ids[rows[at]] <= ids[rows[at - 1]]:
                raise CorpusError(f"the passage ids of term {term!r} are not strictly ascending")
        offsets.append(start + freq)
    if int.from_bytes(data[-4:], "little") != zlib.crc32(data[:-4]):
        raise CorpusError("the index file does not match its checksum")
    by_id = {
        pid: Passage(pid, title, text, words)
        for pid, title, text, words in zip(ids, lines["titles"], lines["texts"], word_counts)
    }
    term_numbers = {term: number for number, term in enumerate(terms)}
    return corpus._corpus_index(by_id, ids, term_numbers, offsets, rows, array("I", tfs))


_LINE_NAMES = {
    "titles": "passages[{}] 'title'",
    "texts": "passages[{}] 'text'",
    "terms": "terms[{}]",
}


def _reference_block_lines(name: str, block: bytes, count) -> list[str]:
    if block and block[-1] != ord("\n"):
        raise CorpusError(f"the index {name} block does not end with a line break")
    raw_lines = block.split(b"\n")[:-1]
    if count is not None and len(raw_lines) != count:
        raise CorpusError(
            f"the index {name} block holds {len(raw_lines)} lines, but 'ids' lists {count}"
        )
    lines = []
    for at, raw in enumerate(raw_lines):
        try:
            lines.append(raw.decode("utf-8"))
        except UnicodeDecodeError:
            raise CorpusError(f"{_LINE_NAMES[name].format(at)} is not UTF-8") from None
    for at, line in enumerate(lines):
        problem = text_violation(line)
        if problem is not None:
            raise CorpusError(f"{_LINE_NAMES[name].format(at)} {problem}")
    return lines


def _uint32s_of(column: bytes) -> list[int]:
    return [int.from_bytes(column[at : at + 4], "little") for at in range(0, len(column), 4)]


# ---------------------------------------------------------------------------
# index files taken apart and put together

BLOCKS = ("titles", "texts", "terms")
INDEX_PARTS = (*BLOCKS, "doc_freqs", "rows", "tfs")


def uint32s(values) -> bytes:
    return b"".join(value.to_bytes(4, "little") for value in values)


def split_index(data: bytes) -> tuple[dict, dict[str, bytes]]:
    """The header and the six parts, by name, of a well-formed index file;
    its last 4 bytes, the checksum, are left out."""
    line, _, rest = data[:-4].partition(b"\n")
    header = json.loads(line)
    parts = {}
    for name in BLOCKS:
        size = header["block_bytes"][name]
        parts[name], rest = rest[:size], rest[size:]
    terms = parts["terms"].count(b"\n")
    parts["doc_freqs"], rest = rest[: 4 * terms], rest[4 * terms :]
    parts["rows"], parts["tfs"] = rest[: len(rest) // 2], rest[len(rest) // 2 :]
    return header, parts


def join_index(header: dict, parts: dict[str, bytes], crc: bytes | None = None) -> bytes:
    """An index file: header as one line of JSON as ``save_index`` writes it,
    then the parts in file order, then crc, or if None the little-endian
    CRC-32 of every byte before it."""
    line = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    data = line + b"\n" + b"".join(parts[name] for name in INDEX_PARTS)
    return data + (zlib.crc32(data).to_bytes(4, "little") if crc is None else crc)


def sized(header: dict, parts: dict[str, bytes]) -> dict:
    """header with the byte length of each block of parts."""
    return {**header, "block_bytes": {name: len(parts[name]) for name in BLOCKS}}


def with_block_lines(
    data: bytes, name: str, edit: Callable[[list[bytes]], list[bytes]]
) -> bytes:
    """data, an index file, with the lines of block ``name`` (bytes, without
    their line breaks) replaced by what edit returns for them, and its block
    sizes and checksum true again, so that only what edit did is wrong."""
    header, parts = split_index(data)
    lines = edit(parts[name].split(b"\n")[:-1])
    parts[name] = b"".join(line + b"\n" for line in lines)
    return join_index(sized(header, parts), parts)


def mirror_retrieval(
    index: CorpusIndex, reconstructor_body: str, cfg: InferenceConfig
) -> list[Passage]:
    """Recompute what the pipeline will retrieve for a scripted reconstruction body."""
    from factrail.corpus import retrieve_multi
    from factrail.grammar import IntentSet

    proposed = parse_intents(reconstructor_body)
    intents = proposed
    if proposed.m > cfg.max_intents:
        intents = IntentSet(proposed.intents[: cfg.max_intents])
    passages = retrieve_multi(index, intents, cfg.k)
    return passages[: cfg.max_passages]


def script_scenario(
    backend: ScriptedBackend,
    index: CorpusIndex,
    cfg: InferenceConfig,
    instruction: str,
    reconstructor_body: str,
    locator_body_for: Callable[[Sequence[Passage]], str],
    generator_body: str,
    fallback_generator_body: str | None = None,
) -> list[Passage]:
    """Register scripted replies for one instruction by mirroring prompt assembly.

    Returns the passages the pipeline will see. The generator reply is keyed
    under whichever branch the judgments select; pass fallback_generator_body
    to also cover the no-facts branch explicitly.
    """
    backend.add_reply(
        build_step_prompt(instruction, [], StepKind.RECONSTRUCTOR), reconstructor_body
    )
    passages = mirror_retrieval(index, reconstructor_body, cfg)
    steps = [TrajectoryStep(StepKind.RECONSTRUCTOR, reconstructor_body)]
    any_relevant = False
    if passages:
        steps.append(TrajectoryStep(StepKind.RETRIEVAL, retrieval_body(passages)))
        locator_body = locator_body_for(passages)
        backend.add_reply(
            build_step_prompt(instruction, steps, StepKind.LOCATOR), locator_body
        )
        judgments = parse_locator_body(locator_body)
        any_relevant = any(j.relevance is Relevance.RELEVANT for j in judgments)
        steps.append(TrajectoryStep(StepKind.LOCATOR, locator_body))
    if any_relevant:
        backend.add_reply(
            build_step_prompt(instruction, steps, StepKind.GENERATOR), generator_body
        )
    else:
        backend.add_reply(
            build_step_prompt(instruction, [], StepKind.GENERATOR),
            fallback_generator_body or generator_body,
        )
    return passages


def with_section(trace: InferenceTrace, kind: StepKind, body: str) -> InferenceTrace:
    """The trace with the body of its section of this kind replaced."""
    steps = tuple(
        TrajectoryStep(kind, body) if step.kind is kind else step
        for step in trace.trajectory.steps
    )
    return replace(trace, trajectory=Trajectory(steps))


def judge_by_answer(answer: str) -> Callable[[Sequence[Passage]], str]:
    """Locator reply builder: Relevant (first sentence as fact) iff the answer occurs."""

    def build(passages: Sequence[Passage]) -> str:
        lines = []
        for i, passage in enumerate(passages, start=1):
            if answer.casefold() in passage.text.casefold():
                sentence = passage.text.split(". ")[0].rstrip(".") + "."
                lines.append(format_judgment_line(i, sentence))
            else:
                lines.append(f"[Irrelevant]: [{i}] Lacking Supporting Facts.")
        return "\n".join(lines)

    return build


def format_judgment_line(index: int, fact: str) -> str:
    from factrail.grammar import LocatorJudgment

    return format_judgment(LocatorJudgment(index, Relevance.RELEVANT, fact))


# ---------------------------------------------------------------------------
# random trajectory generation and mutation (grammar fuzzing)

_TOKEN_SURFACES = [
    "</eoi>",
    "<Reconstructor>",
    "</eor>",
    "<retrieval>",
    "</retrieval>",
    "<Locator>",
    "</eol>",
    "<Generator>",
    "</eog>",
]

_BODY_ALPHABET = (
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
    " .,;:!?()[]-'\"\n"
)


def random_body(rng: random.Random, max_len: int = 60) -> str:
    while True:
        body = "".join(
            rng.choice(_BODY_ALPHABET) for _ in range(rng.randint(0, max_len))
        )
        if not any(tok in body for tok in _TOKEN_SURFACES):
            return body


def random_trajectory(rng: random.Random):
    from factrail.grammar import Trajectory

    kinds = [
        kind
        for kind in (StepKind.RECONSTRUCTOR, StepKind.RETRIEVAL, StepKind.LOCATOR)
        if rng.random() < 0.6
    ]
    kinds.append(StepKind.GENERATOR)
    return Trajectory(tuple(TrajectoryStep(k, random_body(rng)) for k in kinds))


def mutate_serialized(rng: random.Random, text: str) -> str:
    """Apply one structural corruption guaranteed to break well-formedness."""
    heads = [s for s in _TOKEN_SURFACES if s.startswith("<") and not s.startswith("</")]
    ends = ["</eor>", "</retrieval>", "</eol>", "</eog>"]
    choices = ["drop_end", "drop_head", "wrong_end", "inject_head", "dup_section", "stray_text"]
    while True:
        kind = rng.choice(choices)
        if kind == "drop_end":
            present = [e for e in ends if e in text]
            if not present:
                continue
            victim = rng.choice(present)
            return text.replace(victim + "\n", "", 1)
        if kind == "drop_head":
            present = [h for h in heads if h in text]
            if not present:
                continue
            victim = rng.choice(present)
            return text.replace(victim + "\n", "", 1)
        if kind == "wrong_end":
            present = [e for e in ends if e in text]
            if not present:
                continue
            victim = rng.choice(present)
            replacement = rng.choice([e for e in ends if e != victim])
            return text.replace(victim, replacement, 1)
        if kind == "inject_head":
            at = text.find("\n")
            if at == -1:
                continue
            head = rng.choice(heads)
            return text[: at + 1] + head + "\n" + text[at + 1 :]
        if kind == "dup_section":
            # Duplicate the generator section; repeated kinds break the order rule.
            at = text.find("<Generator>")
            if at == -1:
                continue
            return text + text[at:]
        if kind == "stray_text":
            # Outside any section: before the first head or after the last end.
            if rng.random() < 0.5:
                return "stray words here\n" + text
            return text + "stray words here\n"


# ---------------------------------------------------------------------------
# reference parsers and scans: the plain readers that the grammar's and the
# backends' fast passes must match, result for result and message for message


_REFERENCE_TOKEN_RE = re.compile(
    "|".join(re.escape(s) for s in sorted(_TOKEN_SURFACES, key=lambda s: -len(s)))
)
_REFERENCE_KINDS = {kind.head.value: kind for kind in StepKind}


def reference_parse_trajectory(text: str) -> Trajectory:
    """``grammar.parse_trajectory`` as a token search per head and per closer."""
    steps: list[TrajectoryStep] = []
    last_rank = -1
    pos = 0
    n = len(text)
    while True:
        match = _REFERENCE_TOKEN_RE.search(text, pos)
        gap = text[pos : n if match is None else match.start()]
        if gap.strip():
            at = pos + len(gap) - len(gap.lstrip())
            raise GrammarError(f"unexpected text outside any section at offset {at}", at)
        if match is None:
            break
        at = match.start()
        kind = _REFERENCE_KINDS.get(match.group(0))
        if kind is None:
            raise GrammarError(f"unexpected text outside any section at offset {at}", at)
        if kind.rank <= last_rank:
            raise GrammarError(f"{kind.head.value} at offset {at} breaks the section order", at)
        closer = _REFERENCE_TOKEN_RE.search(text, match.end())
        if closer is None:
            raise GrammarError(f"{kind.head.value} at offset {at} is never closed", at)
        if closer.group(0) != kind.end.value:
            at = closer.start()
            message = f"expected {kind.end.value} but found {closer.group(0)} at offset {at}"
            raise GrammarError(message, at)
        interior = text[match.end() : closer.start()]
        if interior.startswith("\n"):
            interior = interior[1:]
        if interior.endswith("\n"):
            interior = interior[:-1]
        steps.append(TrajectoryStep(kind, interior))
        last_rank = kind.rank
        pos = closer.end()
        if pos >= n:
            break
    return Trajectory(tuple(steps))


_REFERENCE_ENTRY_RE = re.compile(r"^\[(\d+)\] (.*?) -(.*)$")


def reference_parse_retrieval_body(body: str) -> list[tuple[str, str]]:
    """``grammar.parse_retrieval_body`` as one regex match per line."""
    if not body:
        raise GrammarError("a retrieval block must contain at least one passage")
    entries: list[tuple[str, str]] = []
    for lineno, line in enumerate(body.split("\n"), start=1):
        match = _REFERENCE_ENTRY_RE.match(line)
        if match is None:
            raise GrammarError(f"malformed retrieval entry (line {lineno})")
        try:
            number = int(match.group(1))
        except ValueError:
            message = f"entry number of {len(match.group(1))} digits is too long (line {lineno})"
            raise GrammarError(message) from None
        if number != (expected := len(entries) + 1):
            raise GrammarError(f"entry numbered {number}, expected {expected} (line {lineno})")
        entries.append((match.group(2), match.group(3)))
    return entries


_REFERENCE_JUDGMENT_RE = re.compile(
    r"^\s*-?\s*\[(Relevant|Irrelevant)\]\s*:\s*\[(\d+)\]\s*(.*)$"
)


def reference_parse_locator_body(body: str) -> list:
    """``grammar.parse_locator_body`` as one regex match and one freshly
    built judgment per line."""
    judgments = []
    seen: set[int] = set()
    for lineno, line in enumerate(body.split("\n"), start=1):
        if not line.strip():
            continue
        match = _REFERENCE_JUDGMENT_RE.match(line)
        if match is None:
            raise GrammarError(f"malformed judgment line (line {lineno})")
        tag, index_text, rest = match.groups()
        rest = rest.rstrip()
        try:
            index = int(index_text)
        except ValueError:
            message = f"passage index of {len(index_text)} digits is too long (line {lineno})"
            raise GrammarError(message) from None
        if index < 1:
            raise GrammarError(f"passage indices are 1-based (line {lineno})")
        if index in seen:
            raise GrammarError(f"passage index {index} judged more than once")
        seen.add(index)
        if tag == "Relevant":
            if not rest:
                raise GrammarError(f"a Relevant judgment must carry a fact (line {lineno})")
            judgments.append(LocatorJudgment(index, Relevance.RELEVANT, rest))
        else:
            if rest not in ("", "Lacking Supporting Facts", IRRELEVANT_PHRASE):
                raise GrammarError(f"an Irrelevant judgment must not carry a fact (line {lineno})")
            judgments.append(LocatorJudgment(index, Relevance.IRRELEVANT, None))
    return judgments


def reference_entry_fault(body: str | None, meta: Sequence[tuple[int, str, int]]) -> str | None:
    """The ValueError message with which ``InferenceTrace`` refuses passages
    ``meta`` beside a retrieval section ``body`` (None: no section), checked
    by splitting the body into lines; None if it accepts them."""
    lines = [] if body is None else body.split("\n")
    if len(lines) != len(meta):
        return f"{len(meta)} passages but {len(lines)} retrieval entries"
    for i, ((_, title, _), line) in enumerate(zip(meta, lines), start=1):
        if not line.startswith(prefix := f"[{i}] {title} -"):
            return f"retrieval entry {i} does not start with {prefix!r}"
    return None


def reference_first_token(text: str) -> TokenKind | None:
    """``grammar.first_token`` as one substring search per token, in
    ``TokenKind`` order."""
    for token in TokenKind:
        if token.value in text:
            return token
    return None


def reference_finalize(raw: str, stop: tuple[str, ...]) -> tuple[str, str | None]:
    """``backends._finalize`` as one ``find`` per stop string and per section
    token (every surface but the instruction terminator) not among them;
    ``min`` keeps the first of equal positions, so stop order breaks ties."""
    sections = [t for t in _TOKEN_SURFACES if t != "</eoi>"]
    candidates = list(stop) + [t for t in sections if t not in stop]
    found = [(at, c) for c in candidates if (at := raw.find(c)) != -1]
    cut, fired = min(found, key=lambda hit: hit[0], default=(len(raw), None))
    return raw[:cut].removeprefix("\n").removesuffix("\n"), fired


def parse_outcome(parse: Callable, text: str):
    """What a parser makes of text: ``("ok", result)``, or ``("error",
    message, offset)`` for the GrammarError it raises."""
    try:
        return ("ok", parse(text))
    except GrammarError as exc:
        return ("error", str(exc), exc.offset)


# ---------------------------------------------------------------------------
# stub chat-completion server


class StubServer:
    """Tiny local chat-completion endpoint driven by a per-test handler.

    The handler receives the parsed request payload and returns
    (status_code, response_object) or (status_code, response_object,
    headers); a bytes response object is sent as-is, a string UTF-8
    encoded, anything else JSON-encoded. The headers replace the defaults,
    so a Content-Length beyond the body makes a response that the server
    cuts short when it closes the connection. Requests are counted, and
    each one's payload, raw body bytes and headers are recorded.
    """

    def __init__(self, handler: Callable[[dict], tuple]) -> None:
        self._handler = handler
        self.requests: list[dict] = []
        self.bodies: list[bytes] = []
        self.header_log: list[dict] = []
        self.request_count = 0
        stub = self

        class Handler(BaseHTTPRequestHandler):
            # Keep-alive by default, as real endpoints are, but each
            # connection serves one request: a client that does not close
            # its socket leaks it, and -X dev reports the leak.
            protocol_version = "HTTP/1.1"

            def do_POST(self) -> None:
                self.close_connection = True
                length = int(self.headers.get("Content-Length", "0"))
                raw_body = self.rfile.read(length)
                payload = json.loads(raw_body or b"{}")
                stub.requests.append(payload)
                stub.bodies.append(raw_body)
                stub.header_log.append({k.lower(): v for k, v in self.headers.items()})
                stub.request_count += 1
                status, body, *extra = stub._handler(payload)
                if isinstance(body, bytes):
                    data = body
                else:
                    data = (body if isinstance(body, str) else json.dumps(body)).encode("utf-8")
                headers = {"Content-Type": "application/json", "Content-Length": str(len(data))}
                headers.update(extra[0] if extra else {})
                self.send_response(status)
                for name, value in headers.items():
                    self.send_header(name, value)
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, *args) -> None:
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        # A short poll, since shutdown() waits for serve_forever to see it.
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
        )

    @property
    def url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}/v1/chat/completions"

    def __enter__(self) -> "StubServer":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._server.shutdown()
        self._server.server_close()


def chat_reply(content: str, finish_reason: str = "stop") -> dict:
    return {"choices": [{"message": {"content": content}, "finish_reason": finish_reason}]}


class InFlightHandler:
    """A StubServer handler that holds each request 50 ms and keeps the
    peak number in flight at once. It answers the reconstructor with
    Search(zebra), which retrieves nothing, so each item asks twice."""

    def __init__(self) -> None:
        self.now = self.peak = 0
        self.lock = threading.Lock()

    def __call__(self, payload: dict) -> tuple:
        with self.lock:
            self.now += 1
            self.peak = max(self.peak, self.now)
        time.sleep(0.05)
        with self.lock:
            self.now -= 1
        prompt = payload["messages"][0]["content"]
        return 200, chat_reply("Search(zebra)" if prompt.endswith("<Reconstructor>\n") else "ok")
