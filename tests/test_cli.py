"""Command-line behavior: exit codes, config strictness, and file outputs."""

import errno
import gc
import io
import json
import os
import re
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factrail.backends import BackendConfig, ScriptedBackend, save_script
from factrail.cli import (
    EXIT_FAILURE,
    EXIT_OK,
    EXIT_USAGE,
    ConfigError,
    GlobalConfig,
    load_config,
    main,
)
from factrail.corpus import index_documents, load_index
from factrail.dataset import (
    ExampleKind,
    RuleBasedCritic,
    build_example,
    emit_dataset,
    read_raw_examples,
)
from factrail.grammar import StepKind, TrajectoryStep, retrieval_body
from factrail.orchestrator import InferenceConfig, build_step_prompt

from helpers import StubServer, chat_reply, judge_by_answer, mirror_retrieval, script_scenario

DOCS = [
    {"title": "Moon", "text": "the moon orbits the earth every month"},
    {"title": "Sun", "text": "the sun is a star at the center of the system"},
    {"title": "Tides", "text": "ocean tides follow the moon closely"},
]

INSTRUCTION = "what does the moon orbit?"


def write_jsonl(path, rows):
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    return str(path)


@pytest.fixture
def corpus_file(tmp_path):
    return write_jsonl(tmp_path / "docs.jsonl", DOCS)


@pytest.fixture
def index_file(tmp_path, corpus_file):
    out = tmp_path / "corpus.index.json"
    assert main(["index", "--corpus", corpus_file, "--out", str(out)]) == EXIT_OK
    return str(out)


def scripted_setup(tmp_path, instructions_and_answers, replies=()):
    """Create a replay script plus config file covering the given
    instructions; ``replies`` are (prompt, reply) pairs that replace theirs."""
    docs = [(d["title"], d["text"]) for d in DOCS]
    index = index_documents(docs)
    backend = ScriptedBackend()
    for instruction, answer in instructions_and_answers:
        script_scenario(
            backend, index, InferenceConfig(), instruction,
            "Search(moon orbit; ocean tides)",
            judge_by_answer(answer.split("\n")[0]), answer,
        )
    for prompt, reply in replies:
        backend.add_reply(prompt, reply)
    script_path = tmp_path / "replies.jsonl"
    save_script(backend._script, script_path)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"script": str(script_path)}))
    return str(config_path)


# ---------------------------------------------------------------------------
# config loading


def test_load_config_defaults():
    cfg = load_config(None)
    assert cfg.concurrency == 4
    assert cfg.inference == InferenceConfig()
    assert cfg.backend is None


def test_load_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "c.json"
    path.write_text('{"mystery": 1}')
    with pytest.raises(ConfigError, match="mystery"):
        load_config(str(path))
    path.write_text('{"seed": 0}')
    with pytest.raises(ConfigError, match="seed"):
        load_config(str(path))
    path.write_text('{"inference": {"k": 2, "bogus": true}}')
    with pytest.raises(ConfigError, match="bogus"):
        load_config(str(path))


def test_load_config_type_and_value_checks(tmp_path):
    path = tmp_path / "c.json"
    path.write_text('{"concurrency": "many"}')
    with pytest.raises(ConfigError):
        load_config(str(path))
    path.write_text('{"inference": {"k": 0}}')
    with pytest.raises(ConfigError):
        load_config(str(path))
    path.write_text("not json")
    with pytest.raises(ConfigError):
        load_config(str(path))


def log_level_argv(tmp_path, where, level):
    if where == "flag":
        return ["--log-level", level]
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"log_level": level}))
    return ["--config", str(config)]


def exit_code(argv):
    """main's return value, or the code argparse exits with."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("where", ["flag", "config"])
@pytest.mark.parametrize("level", ["basic_format", "loud", "Debug"])
def test_an_unknown_log_level_is_a_usage_error(tmp_path, capsys, where, level):
    argv = log_level_argv(tmp_path, where, level)
    assert exit_code([*argv, "validate", "--traces", os.devnull]) == EXIT_USAGE
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1
    if where == "flag":
        assert f"argument --log-level: invalid choice: {level!r}" in errors[0]
    else:
        assert errors == [
            "error: bad config: 'log_level' must be one of debug, info, warning, error, "
            f"critical, not {level!r}"
        ]


@pytest.mark.parametrize("where", ["flag", "config"])
def test_a_known_log_level_is_accepted(tmp_path, capsys, where):
    argv = log_level_argv(tmp_path, where, "error")
    assert main([*argv, "validate", "--traces", os.devnull]) == EXIT_OK
    assert capsys.readouterr() == ("clean\n", "")


def test_load_config_sections(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(
        json.dumps(
            {
                "concurrency": 2,
                "inference": {"k": 5, "max_passages": 6},
                "backend": {"endpoint_url": "http://h", "retries": 0},
                "script": "replies.jsonl",
            }
        )
    )
    cfg = load_config(str(path))
    assert cfg.inference.k == 5
    assert cfg.backend.endpoint_url == "http://h"
    assert cfg.backend.retries == 0
    assert cfg.script == "replies.jsonl"


BACKEND = {"endpoint_url": "http://h"}


@pytest.mark.parametrize(
    "config, message",
    [
        ({"inference": {"k": 2.5}}, "bad inference config: 'k' must be int, not float"),
        ({"inference": {"max_intents": True}}, "bad inference config: 'max_intents' must be int, not bool"),
        ({"inference": {"max_passages": "12"}}, "bad inference config: 'max_passages' must be int, not str"),
        ({"backend": {**BACKEND, "model": 7}}, "bad backend config: 'model' must be str, not int"),
        ({"backend": {**BACKEND, "retries": 1.5}}, "bad backend config: 'retries' must be int, not float"),
        (
            {"backend": {**BACKEND, "max_output_tokens": 512.0}},
            "bad backend config: 'max_output_tokens' must be int, not float",
        ),
        ({"script": ["replies.jsonl"]}, "bad config: 'script' must be str, not list"),
        (
            {"backend": {**BACKEND, "timeout_s": True}},
            "bad backend config: 'timeout_s' must be int or float, not bool",
        ),
        ({"backend": {"endpoint_url": 8000}}, "bad backend config: 'endpoint_url' must be str, not int"),
        ({"concurrency": True}, "bad config: 'concurrency' must be int, not bool"),
        ({"concurrency": -2}, "bad config: 'concurrency' must be at least 1"),
        ({"inference": 3}, "the inference config must be a JSON object"),
    ],
)
def test_mistyped_config_value_exits_with_usage(tmp_path, index_file, capsys, config, message):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    ins = write_jsonl(tmp_path / "ins.jsonl", [{"instruction": INSTRUCTION}])
    argv = ["--config", str(path), "infer", "--backend", "scripted", "--index", index_file]
    capsys.readouterr()
    assert main([*argv, "--in", ins, "--out", str(tmp_path / "t.jsonl")]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "config, message",
    [
        ({"inference": {"locator_required": True}}, "unknown inference config keys: locator_required"),
        ({"inference": {"generator_fallback": True}}, "unknown inference config keys: generator_fallback"),
        ({"backend": {**BACKEND, "max_in_flight": 4}}, "unknown backend config keys: max_in_flight"),
    ],
    ids=["locator_required", "generator_fallback", "max_in_flight"],
)
def test_a_removed_config_key_is_an_unknown_key(tmp_path, capsys, config, message):
    # The locator is always required, the no-facts fallback always on, and
    # the batch workers bound the requests in flight.
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    capsys.readouterr()
    assert main(["--config", str(path), "validate", "--traces", os.devnull]) == EXIT_USAGE
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_the_readme_config_block_holds_every_key_at_its_default(tmp_path):
    # The config README.md documents is the whole config: every key of every
    # section, each at its default but for the deployment values.
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("### Config file\n\n```json\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "c.json"
    path.write_text(block)
    load_config(str(path))
    documented = json.loads(block)
    for cls, values in (
        (GlobalConfig, documented),
        (InferenceConfig, documented["inference"]),
        (BackendConfig, documented["backend"]),
    ):
        assert set(values) == {f.name for f in fields(cls)}, cls.__name__
        for f in fields(cls):
            if f.name not in ("inference", "backend", "endpoint_url", "script"):
                assert values[f.name] == f.default, f.name


@pytest.mark.parametrize(
    "content, message",
    [
        (b"\xff\xfe", "config is not UTF-8: 'utf-8' codec can't decode byte 0xff"),
        (b"[" * 200_000 + b"]" * 200_000, "config nests arrays or objects too deeply to read"),
    ],
    ids=["not-utf8", "nested-200k"],
)
def test_unreadable_config_exits_with_usage(tmp_path, capsys, content, message):
    path = tmp_path / "c.json"
    path.write_bytes(content)
    capsys.readouterr()
    assert main(["--config", str(path), "validate", "--traces", os.devnull]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {message}")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


def test_bad_config_exits_with_usage(tmp_path, corpus_file):
    config = tmp_path / "c.json"
    config.write_text('{"mystery": 1}')
    code = main(
        ["--config", str(config), "index", "--corpus", corpus_file, "--out", "x"]
    )
    assert code == EXIT_USAGE


# ---------------------------------------------------------------------------
# index


def test_index_command_writes_loadable_index(tmp_path, corpus_file, capsys):
    out = tmp_path / "idx.json"
    assert main(["index", "--corpus", corpus_file, "--out", str(out)]) == EXIT_OK
    assert "3 documents into 3 passages" in capsys.readouterr().out
    index = load_index(out)
    assert index.total_docs == 3


@pytest.mark.parametrize(
    "row, where",
    [
        ({"title": "Zebra", "text": "zebra stripes hide a <Generator> token"}, "text"),
        ({"title": "Zebra </eoi>", "text": "zebra stripes"}, "title"),
    ],
)
def test_index_rejects_a_document_holding_a_grammar_token(tmp_path, capsys, row, where):
    corpus_path = write_jsonl(tmp_path / "docs.jsonl", [DOCS[0], row])
    out = tmp_path / "idx.json"
    assert main(["index", "--corpus", corpus_path, "--out", str(out)]) == EXIT_FAILURE
    err = capsys.readouterr().err
    assert err.startswith(f"error: document 2 ({row['title']!r}): its {where} holds")
    assert ("</eoi>" if where == "title" else "<Generator>") in err
    assert list(tmp_path.iterdir()) == [tmp_path / "docs.jsonl"]


def test_index_rejects_a_record_whose_text_is_not_a_string(tmp_path, capsys):
    corpus_path = write_jsonl(tmp_path / "docs.jsonl", [DOCS[0], {"title": "N", "text": 7}])
    assert main(["index", "--corpus", corpus_path, "--out", str(tmp_path / "i")]) == EXIT_FAILURE
    assert "bad corpus record on line 2" in capsys.readouterr().err


def test_index_missing_corpus_fails(tmp_path):
    code = main(["index", "--corpus", str(tmp_path / "nope.jsonl"), "--out", "x"])
    assert code == EXIT_FAILURE


GOOD_ENTRY = {"id": 0, "title": "Moon", "text": "the moon", "word_count": 2}
V1_COMPLAINT = (
    "index format version 1 is no longer read; re-run `factrail index` "
    "on the corpus to rebuild the index"
)


def index_bytes(header, pids=(), tfs=()):
    """A version 2 index file: a JSON header line, then the two columns."""
    return (
        json.dumps(header).encode() + b"\n"
        + b"".join(pid.to_bytes(8, "little", signed=True) for pid in pids)
        + b"".join(tf.to_bytes(4, "little") for tf in tfs)
    )


def v2_header(passages=(GOOD_ENTRY,), terms=(), doc_freqs=()):
    return {
        "format": "factrail-index", "version": 2, "passages": list(passages),
        "terms": list(terms), "doc_freqs": list(doc_freqs),
    }


def assert_infer_fails_with(tmp_path, capsys, index_data, complaint):
    index_path = tmp_path / "bad.index.json"
    index_path.write_bytes(index_data)
    ins = write_jsonl(tmp_path / "ins.jsonl", [{"instruction": INSTRUCTION}])
    code = main(
        [
            "infer", "--backend", "scripted", "--index", str(index_path),
            "--in", ins, "--out", str(tmp_path / "traces.jsonl"),
        ]
    )
    assert code == EXIT_FAILURE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {complaint}") and err.count("\n") == 1 and err.endswith("\n")
    assert not (tmp_path / "traces.jsonl").exists()


@pytest.mark.parametrize(
    "passages, complaint",
    [
        (None, "index has no 'passages' list"),
        ({"0": GOOD_ENTRY}, "index has no 'passages' list"),
        ([GOOD_ENTRY, "moon"], "passages[1] is not an object"),
        *[
            ([{k: v for k, v in GOOD_ENTRY.items() if k != name}], f"passages[0] has no '{name}'")
            for name in GOOD_ENTRY
        ],
        ([GOOD_ENTRY, {**GOOD_ENTRY, "id": "1"}], "passages[1] 'id' must be int, not str"),
        ([{**GOOD_ENTRY, "title": 7}], "passages[0] 'title' must be str, not int"),
        ([{**GOOD_ENTRY, "text": None}], "passages[0] 'text' must be str, not NoneType"),
        ([{**GOOD_ENTRY, "word_count": "2"}], "passages[0] 'word_count' must be int, not str"),
        ([{**GOOD_ENTRY, "word_count": True}], "passages[0] 'word_count' must be int, not bool"),
        ([{**GOOD_ENTRY, "word_count": 0}], "passages[0] 'word_count' must be at least 1"),
    ],
)
def test_malformed_index_exits_with_message(tmp_path, capsys, passages, complaint):
    header = v2_header()
    del header["passages"]
    if passages is not None:
        header["passages"] = passages
    assert_infer_fails_with(tmp_path, capsys, index_bytes(header), complaint + "\n")


MOON_TERMS = {"terms": ["the", "moon"], "doc_freqs": [1, 1]}
V1_PAYLOAD = {"format": "factrail-index", "version": 1, "passages": [GOOD_ENTRY]}


@pytest.mark.parametrize(
    "index_data, complaint",
    [
        pytest.param(b'{"format": "factrail-index",\n', "not an index file: ", id="header-not-json"),
        pytest.param(
            b"\xff\xfe" + index_bytes(v2_header()),
            "not an index file: 'utf-8' codec can't decode byte 0xff",
            id="header-not-utf8",
        ),
        pytest.param(
            index_bytes(v2_header(**MOON_TERMS), [0], [1]),
            "index columns hold 12 bytes, but sum(doc_freqs) = 2 postings need 24",
            id="columns-too-short",
        ),
        pytest.param(
            index_bytes(v2_header(**MOON_TERMS), [0, 0, 0], [1, 1, 1]),
            "index columns hold 36 bytes, but sum(doc_freqs) = 2 postings need 24",
            id="columns-too-long",
        ),
        pytest.param(
            index_bytes(v2_header(**MOON_TERMS), [0, 0], [1, 0]),
            "a term frequency in the index is below 1",
            id="tf-zero",
        ),
        pytest.param(
            index_bytes(v2_header(**MOON_TERMS), [0, 5], [1, 1]),
            "the postings name passage id 5, which is not in 'passages'",
            id="unknown-pid",
        ),
        pytest.param(
            index_bytes(
                v2_header([GOOD_ENTRY, {**GOOD_ENTRY, "id": 1}], ["the", "moon"], [2, 2]),
                [0, 1, 1, 0], [1, 1, 1, 1],
            ),
            "the passage ids of term 'moon' are not strictly ascending",
            id="descending-pids",
        ),
        pytest.param(
            index_bytes(
                v2_header([GOOD_ENTRY, {**GOOD_ENTRY, "id": 1}], ["the", "moon"], [2, 2]),
                [0, 0, 0, 1], [1, 1, 1, 1],
            ),
            "the passage ids of term 'the' are not strictly ascending",
            id="duplicate-pid",
        ),
        pytest.param(
            index_bytes(v2_header(terms=["moon", "moon"], doc_freqs=[1, 1]), [0, 0], [1, 1]),
            "'terms' lists 'moon' twice",
            id="duplicate-term",
        ),
        pytest.param(
            index_bytes(v2_header([GOOD_ENTRY, GOOD_ENTRY])),
            "passages[1] repeats passage id 0",
            id="duplicate-passage-id",
        ),
        pytest.param(
            index_bytes(v2_header(terms=["the", "moon"], doc_freqs=[1, 0]), [0], [1]),
            "doc_freqs[1] must be at least 1",
            id="doc-freq-zero",
        ),
        pytest.param(
            index_bytes(v2_header(terms=["moon"], doc_freqs=[-1])),
            "doc_freqs[0] must be at least 1",
            id="doc-freq-negative",
        ),
        pytest.param(
            index_bytes(v2_header(terms=["moon"], doc_freqs=[True]), [0], [1]),
            "doc_freqs[0] must be int, not bool",
            id="doc-freq-bool",
        ),
        pytest.param(
            index_bytes(v2_header(terms=["the", "moon"], doc_freqs=[1])),
            "index has no 'doc_freqs' list as long as 'terms'",
            id="doc-freqs-short",
        ),
        pytest.param(
            index_bytes(v2_header(terms=["the", 7], doc_freqs=[1, 1]), [0, 0], [1, 1]),
            "index has no 'terms' list of strings",
            id="term-not-str",
        ),
        pytest.param(
            json.dumps(V1_PAYLOAD, indent=1).encode() + b"\n", V1_COMPLAINT, id="v1-pretty-printed"
        ),
        pytest.param(json.dumps(V1_PAYLOAD).encode(), V1_COMPLAINT, id="v1-one-line"),
    ],
)
def test_malformed_v2_index_exits_with_message(tmp_path, capsys, index_data, complaint):
    assert_infer_fails_with(tmp_path, capsys, index_data, complaint)


def test_index_with_valid_columns_loads(tmp_path):
    # Ids may fall where one term's column ends and the next begins.
    header = v2_header([GOOD_ENTRY, {**GOOD_ENTRY, "id": 1}], ["the", "moon"], [2, 1])
    path = tmp_path / "ok.index"
    path.write_bytes(index_bytes(header, [0, 1, 0], [1, 1, 2]))
    index = load_index(path)
    assert index.term_numbers == {"the": 0, "moon": 1}
    assert (index.offsets, index.ids, index.tfs.tolist()) == ([0, 2, 3], [0, 1, 0], [1, 1, 2])


# ---------------------------------------------------------------------------
# build-dataset


RAWS = [
    {"task": "open-qa", "x": "what does the moon orbit?", "y": "the earth", "source": "astro"},
    {"task": "open-qa", "x": "what do ocean tides follow?", "y": "the moon", "source": "astro"},
]


def test_build_dataset_short_intent(tmp_path, capsys):
    raw_path = write_jsonl(tmp_path / "raw.jsonl", RAWS)
    out = tmp_path / "train.jsonl"
    code = main(
        ["build-dataset", "--kind", "short-intent", "--in", raw_path, "--out", str(out)]
    )
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    manifest = json.loads((tmp_path / "train.jsonl.manifest.json").read_text())
    assert manifest["total"] == 2
    assert manifest["counts_by_kind"] == {"short-intent": 2}
    assert manifest["counts_by_source"] == {"astro": 2}
    assert manifest["config_fingerprint"]


def test_failed_manifest_write_keeps_previous_manifest_bytes(tmp_path, monkeypatch):
    raw_path = write_jsonl(tmp_path / "raw.jsonl", RAWS)

    def build(*task):
        out = str(tmp_path / "train.jsonl")
        return main(["build-dataset", "--kind", "short-intent", *task, "--in", raw_path, "--out", out])

    assert build() == EXIT_OK
    manifest = tmp_path / "train.jsonl.manifest.json"
    before = manifest.read_bytes()

    def half_then_disk_full(self, data, encoding=None):
        with open(self, "w", encoding=encoding) as handle:
            handle.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(Path, "write_text", half_then_disk_full)
    # A different --task changes the manifest's config fingerprint.
    assert build("--task", "fact-verification") == EXIT_FAILURE
    assert manifest.read_bytes() == before
    assert not list(tmp_path.glob("*.part"))


def test_build_dataset_long_requires_index(tmp_path):
    raw_path = write_jsonl(tmp_path / "raw.jsonl", RAWS)
    code = main(
        ["build-dataset", "--kind", "long", "--in", raw_path, "--out", str(tmp_path / "o")]
    )
    assert code == EXIT_USAGE


def test_build_dataset_long_with_index(tmp_path, index_file):
    raw_path = write_jsonl(tmp_path / "raw.jsonl", RAWS)
    out = tmp_path / "train.jsonl"
    code = main(
        [
            "build-dataset", "--kind", "long", "--in", raw_path,
            "--index", index_file, "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    assert main(["validate", "--dataset", str(out)]) == EXIT_OK


@pytest.mark.parametrize("kind", [k.value for k in ExampleKind])
def test_build_dataset_every_kind_matches_the_library(tmp_path, index_file, capsys, kind):
    raw_path = write_jsonl(tmp_path / "raw.jsonl", RAWS)
    out = tmp_path / "train.jsonl"
    code = main(
        [
            "build-dataset", "--kind", kind, "--in", raw_path,
            "--index", index_file, "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    index = load_index(index_file)
    expected = [
        build_example(ExampleKind(kind), raw, RuleBasedCritic(), index, InferenceConfig().k)
        for raw in read_raw_examples(raw_path)
    ]
    emit_dataset(expected, tmp_path / "expected.jsonl")
    assert out.read_bytes() == (tmp_path / "expected.jsonl").read_bytes()
    capsys.readouterr()
    assert main(["validate", "--dataset", str(out)]) == EXIT_OK
    assert capsys.readouterr().out == "clean\n"


def test_http_critic_fact_outside_its_passage_fails_the_build(tmp_path, index_file):
    def handler(payload):
        prompt = payload["messages"][0]["content"]
        if prompt.startswith("Decompose"):
            return 200, chat_reply("Search Intent: moon orbit")
        return 200, chat_reply("Rating: [Relevant]\nExtracted span: the moon is made of cheese")

    raw_path = write_jsonl(tmp_path / "raw.jsonl", RAWS[:1])
    out = tmp_path / "train.jsonl"
    with StubServer(handler) as server:
        config = tmp_path / "c.json"
        config.write_text(
            json.dumps({"backend": {"endpoint_url": server.url, "retries": 0, "timeout_s": 5.0}})
        )
        code = main(
            [
                "--config", str(config), "build-dataset", "--kind", "short-generator-facts",
                "--critic", "http", "--in", raw_path, "--index", index_file, "--out", str(out),
            ]
        )
    assert code == EXIT_FAILURE
    assert not out.exists()
    assert not (tmp_path / "train.jsonl.manifest.json").exists()
    assert not list(tmp_path.glob("*.part"))


@pytest.mark.parametrize(
    "intent, problem",
    [("smallest \ud800 planet", "holds the lone surrogate '\\ud800'"),
     ("smallest </eoi> planet", "holds the grammar token </eoi>")],
    ids=["surrogate", "token"],
)
def test_a_critic_intent_no_prompt_may_hold_fails_the_build(
    tmp_path, capsys, monkeypatch, intent, problem
):
    monkeypatch.setattr(
        "factrail.dataset.chat_completion",
        lambda *args, **kwargs: (f"Search Intent: {intent}", "stop"),
    )
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"backend": {"endpoint_url": "http://127.0.0.1:9/"}}))
    raw_path = write_jsonl(tmp_path / "raw.jsonl", RAWS[:1])
    out = tmp_path / "train.jsonl"
    argv = ["--config", str(config), "build-dataset", "--kind", "short-intent", "--critic", "http"]
    capsys.readouterr()
    assert main([*argv, "--in", raw_path, "--out", str(out)]) == EXIT_FAILURE
    assert capsys.readouterr().err == f"error: the critic's intent {ascii(intent)} {problem}\n"
    assert sorted(tmp_path.iterdir()) == [tmp_path / "c.json", tmp_path / "raw.jsonl"]


def test_build_dataset_failure_leaves_no_partial_output(tmp_path, index_file):
    bad = [{"task": "open-qa", "x": "zebra xylophone", "y": "nothing matches"}]
    raw_path = write_jsonl(tmp_path / "raw.jsonl", bad)
    out = tmp_path / "train.jsonl"
    code = main(
        [
            "build-dataset", "--kind", "long", "--in", raw_path,
            "--index", index_file, "--out", str(out),
        ]
    )
    assert code == EXIT_FAILURE
    assert not out.exists()
    assert not list(tmp_path.glob("*.part"))


# ---------------------------------------------------------------------------
# infer


def test_http_reply_with_a_lone_surrogate_fails_only_its_item(tmp_path, index_file, capsys):
    def handler(payload):
        prompt = payload["messages"][0]["content"]
        if prompt.endswith("<Reconstructor>\n"):
            return 200, chat_reply("Search(zebra)")  # retrieves nothing
        return 200, chat_reply("the earth \udc80" if "moon" in prompt else "the sun")

    ins = write_jsonl(
        tmp_path / "ins.jsonl", [{"instruction": INSTRUCTION}, {"instruction": "what is the sun?"}]
    )
    out = tmp_path / "traces.jsonl"
    with StubServer(handler) as server:
        config = tmp_path / "c.json"
        config.write_text(
            json.dumps({"backend": {"endpoint_url": server.url, "retries": 0, "timeout_s": 5.0}})
        )
        code = main(
            [
                "--config", str(config), "infer", "--backend", "http",
                "--index", index_file, "--in", ins, "--out", str(out),
            ]
        )
    assert code == EXIT_OK
    assert "wrote 2 traces (1 failures)" in capsys.readouterr().out
    failed, answered = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
    assert failed == {
        "error": {"stage": "generator", "message": "the reply holds the lone surrogate '\\udc80'"}
    }
    assert answered["trajectory"].endswith("<Generator>\nthe sun\n</eog>\n")


def test_infer_scripted_writes_traces(tmp_path, index_file, capsys):
    config = scripted_setup(tmp_path, [(INSTRUCTION, "the earth\n[Cite]: [1]")])
    ins = write_jsonl(tmp_path / "ins.jsonl", [{"instruction": INSTRUCTION}])
    out = tmp_path / "traces.jsonl"
    code = main(
        [
            "--config", config, "infer", "--backend", "scripted",
            "--index", index_file, "--in", ins, "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    stdout = capsys.readouterr().out
    assert "wrote 1 traces (0 failures)" in stdout
    assert "stage generator: mean" in stdout
    record = json.loads(out.read_text().splitlines()[0])
    assert sorted(record) == ["citations", "flags", "instruction", "passages", "trajectory"]
    assert [sorted(p) for p in record["passages"]] == [["id", "title", "word_count"]] * 2
    assert record["trajectory"].endswith("<Generator>\nthe earth\n[Cite]: [1]\n</eog>\n")
    assert record["citations"] == [1]
    assert "duration" not in json.dumps(record)


def test_infer_strict_fails_on_unscripted_items(tmp_path, index_file):
    config = scripted_setup(tmp_path, [(INSTRUCTION, "the earth\n[Cite]: [1]")])
    ins = write_jsonl(
        tmp_path / "ins.jsonl",
        [{"instruction": INSTRUCTION}, {"instruction": "not scripted"}],
    )
    out = tmp_path / "traces.jsonl"
    base = [
        "--config", config, "infer", "--backend", "scripted",
        "--index", index_file, "--in", ins, "--out", str(out),
    ]
    assert main(base) == EXIT_OK
    rows = [json.loads(l) for l in out.read_text().splitlines()]
    assert "error" in rows[1]
    assert main(base + ["--strict"]) == EXIT_FAILURE


def test_infer_writes_an_error_row_for_a_number_int_refuses(tmp_path, index_file, capsys):
    bad = "which body does the moon orbit?"
    reconstruction = "Search(moon orbit; ocean tides)"
    passages = mirror_retrieval(load_index(index_file), reconstruction, InferenceConfig())
    prior = [
        TrajectoryStep(StepKind.RECONSTRUCTOR, reconstruction),
        TrajectoryStep(StepKind.RETRIEVAL, retrieval_body(passages)),
    ]
    # int() reads at most 4300 digits by default.
    locator_reply = f"[Relevant]: [{'1' * 5000}] the moon orbits the earth."
    config = scripted_setup(
        tmp_path,
        [(bad, "the earth\n[Cite]: [1]"), (INSTRUCTION, "the earth\n[Cite]: [1]")],
        [(build_step_prompt(bad, prior, StepKind.LOCATOR), locator_reply)],
    )
    ins = write_jsonl(tmp_path / "ins.jsonl", [{"instruction": bad}, {"instruction": INSTRUCTION}])
    out = tmp_path / "traces.jsonl"
    code = main(
        [
            "--config", config, "infer", "--backend", "scripted",
            "--index", index_file, "--in", ins, "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    assert "wrote 2 traces (1 failures)" in capsys.readouterr().out
    first, second = (json.loads(line) for line in out.read_text().splitlines())
    assert first == {
        "error": {
            "stage": "locator",
            "message": "passage index of 5000 digits is too long (line 1)",
        }
    }
    assert second["citations"] == [1]


def test_infer_scripted_needs_script_config(tmp_path, index_file):
    ins = write_jsonl(tmp_path / "ins.jsonl", [{"instruction": INSTRUCTION}])
    code = main(
        ["infer", "--backend", "scripted", "--index", index_file, "--in", ins, "--out", "x"]
    )
    assert code == EXIT_USAGE


def test_infer_http_needs_backend_config(tmp_path, index_file):
    ins = write_jsonl(tmp_path / "ins.jsonl", [{"instruction": INSTRUCTION}])
    code = main(
        ["infer", "--backend", "http", "--index", index_file, "--in", ins, "--out", "x"]
    )
    assert code == EXIT_USAGE


# ---------------------------------------------------------------------------
# eval


def infer_traces(tmp_path, index_file):
    config = scripted_setup(tmp_path, [(INSTRUCTION, "the earth\n[Cite]: [1]")])
    ins = write_jsonl(tmp_path / "ins.jsonl", [{"instruction": INSTRUCTION}])
    out = tmp_path / "traces.jsonl"
    assert (
        main(
            [
                "--config", config, "infer", "--backend", "scripted",
                "--index", index_file, "--in", ins, "--out", str(out),
            ]
        )
        == EXIT_OK
    )
    return str(out)


def test_eval_command(tmp_path, index_file, capsys):
    traces = infer_traces(tmp_path, index_file)
    refs = write_jsonl(
        tmp_path / "refs.jsonl",
        [{"task": "popqa", "question": INSTRUCTION, "gold_answers": ["the earth"]}],
    )
    out = tmp_path / "report.json"
    code = main(["eval", "--traces", traces, "--refs", refs, "--task", "popqa", "--out", str(out)])
    assert code == EXIT_OK
    assert "Acc=1.0000" in capsys.readouterr().out
    report = json.loads(out.read_text())
    assert report["metrics"]["acc"] == 1.0
    assert report["n"] == 1


def test_eval_schema_mismatch_is_usage_error(tmp_path, index_file):
    traces = infer_traces(tmp_path, index_file)
    refs = write_jsonl(
        tmp_path / "refs.jsonl",
        [{"task": "popqa", "question": INSTRUCTION, "gold_answers": ["the earth"]}],
    )
    code = main(["eval", "--traces", traces, "--refs", refs, "--task", "squad", "--out", "r"])
    assert code == EXIT_USAGE


POPQA_REF = {"task": "popqa", "question": INSTRUCTION, "gold_answers": ["the earth"]}


def eval_errors(tmp_path, trace_lines, ref_lines):
    """Run eval on files of these lines; its exit code and error lines."""
    traces, refs = tmp_path / "t.jsonl", tmp_path / "refs.jsonl"
    traces.write_text("".join(line + "\n" for line in trace_lines))
    refs.write_text("".join(line + "\n" for line in ref_lines))
    out = tmp_path / "report.json"
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(
            ["eval", "--traces", str(traces), "--refs", str(refs), "--task", "popqa", "--out", str(out)]
        )
    assert not out.exists()
    return code, err.getvalue().splitlines()


@pytest.mark.parametrize("n_traces, n_refs", [(3, 1), (1, 3), (0, 2), (2, 0)])
def test_eval_count_mismatch_counts_both_files_whole(tmp_path, index_file, n_traces, n_refs):
    row = Path(infer_traces(tmp_path, index_file)).read_text().splitlines()[0]
    code, errors = eval_errors(tmp_path, [row] * n_traces, [json.dumps(POPQA_REF)] * n_refs)
    assert (code, errors) == (EXIT_USAGE, [f"error: {n_traces} traces but {n_refs} references"])


@pytest.mark.parametrize("good_rows", [1, 2])
def test_eval_names_a_bad_trace_row_beyond_the_last_reference(tmp_path, index_file, good_rows):
    row = Path(infer_traces(tmp_path, index_file)).read_text().splitlines()[0]
    code, errors = eval_errors(tmp_path, [row] * good_rows + ["{not json"], [json.dumps(POPQA_REF)])
    assert code == EXIT_FAILURE
    assert len(errors) == 1 and f"line {good_rows + 1}" in errors[0], errors


@pytest.mark.parametrize(
    "bad_ref, complaint",
    [
        ("{not json", "bad reference on line 1"),
        (json.dumps(dict(POPQA_REF, task="squad")), "reference task 'squad' does not match 'popqa'"),
    ],
    ids=["malformed", "other-task"],
)
def test_eval_reads_the_references_before_the_traces(tmp_path, bad_ref, complaint):
    # Both files are bad: the references' error wins.
    code, errors = eval_errors(tmp_path, ["{not a trace"], [bad_ref])
    assert code == EXIT_USAGE
    assert len(errors) == 1 and complaint in errors[0], errors


def test_failed_eval_report_write_keeps_previous_report_bytes(
    tmp_path, index_file, monkeypatch
):
    traces = infer_traces(tmp_path, index_file)
    out = tmp_path / "report.json"

    # Written up front: write_jsonl uses the Path.write_text patched below.
    refs = {
        gold: write_jsonl(
            tmp_path / f"refs{i}.jsonl",
            [{"task": "popqa", "question": INSTRUCTION, "gold_answers": [gold]}],
        )
        for i, gold in enumerate(("the earth", "the sun"))
    }

    def run_eval(gold):
        return main(["eval", "--traces", traces, "--refs", refs[gold], "--task", "popqa", "--out", str(out)])

    assert run_eval("the earth") == EXIT_OK
    before = out.read_bytes()

    def half_then_disk_full(self, data, encoding=None):
        with open(self, "w", encoding=encoding) as handle:
            handle.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(Path, "write_text", half_then_disk_full)
    # Another gold answer changes the accuracy in the report.
    assert run_eval("the sun") == EXIT_FAILURE
    assert out.read_bytes() == before
    assert not list(tmp_path.glob("*.part"))


def eval_traces(tmp_path, traces):
    refs = write_jsonl(
        tmp_path / "refs.jsonl",
        [{"task": "popqa", "question": INSTRUCTION, "gold_answers": ["the earth"]}],
    )
    return main(
        ["eval", "--traces", str(traces), "--refs", refs, "--task", "popqa", "--out", str(tmp_path / "r")]
    )


def test_eval_counts_a_trace_citing_no_passage_as_an_error_row(tmp_path, capsys):
    # The generator cites [99], but the trace holds no passages.
    row = {
        "instruction": INSTRUCTION,
        "passages": [],
        "citations": [99],
        "trajectory": (
            "<Reconstructor>\nSearch(moon orbit)\n</eor>\n"
            "<Generator>\nthe earth\n[Cite]: [99]\n</eog>\n"
        ),
        "flags": [],
    }
    traces = write_jsonl(tmp_path / "traces.jsonl", [row])
    assert eval_traces(tmp_path, traces) == EXIT_OK
    assert "Acc=0.0000" in capsys.readouterr().out
    report = json.loads((tmp_path / "r").read_text())
    assert report["citations"]["errors"] == 1.0
    assert report["citations"]["traces_scored"] == 0.0
    assert report["rows"] == [
        {"i": 0, "error": "citation_out_of_range: 99", "prediction": "", "acc": 0}
    ]


def _set(key, value):
    def corrupt(row):
        row[key] = value
        return row

    return corrupt


def _drop(key):
    def corrupt(row):
        del row[key]
        return row

    return corrupt


def first_trace_row(tmp_path, index_file):
    row = json.loads(Path(infer_traces(tmp_path, index_file)).read_text().splitlines()[0])
    assert row["trajectory"] == (
        "<Reconstructor>\nSearch(moon orbit; ocean tides)\n</eor>\n"
        "<retrieval>\n[1] Moon -the moon orbits the earth every month\n"
        "[2] Tides -ocean tides follow the moon closely\n</retrieval>\n"
        "<Locator>\n[Relevant]: [1] the moon orbits the earth every month.\n"
        "[Irrelevant]: [2] Lacking Supporting Facts.\n</eol>\n"
        "<Generator>\nthe earth\n[Cite]: [1]\n</eog>\n"
    )
    return row


def rewrite_section(old, new):
    def rewrite(row):
        assert old in row["trajectory"]
        row["trajectory"] = row["trajectory"].replace(old, new)

    return rewrite


def drop_generator(row):
    rewrite_section("<Generator>\nthe earth\n[Cite]: [1]\n</eog>\n", "")(row)
    row["citations"] = []


def drop_locator(row):
    # Without its locator section the trace judges none of its passages;
    # the citation goes too, so coverage is the one problem.
    rewrite_section(
        "<Locator>\n[Relevant]: [1] the moon orbits the earth every month.\n"
        "[Irrelevant]: [2] Lacking Supporting Facts.\n</eol>\n",
        "",
    )(row)
    rewrite_section("the earth\n[Cite]: [1]", "the earth")(row)
    row["citations"] = []


@pytest.mark.parametrize(
    "rewrite, error",
    [
        (
            rewrite_section("\n[Irrelevant]: [2] Lacking Supporting Facts.", ""),
            "judgment_coverage: judgments cover [1], expected [1, 2]",
        ),
        (drop_generator, "generator_missing: no generator section"),
        (drop_locator, "judgment_coverage: judgments cover [], expected [1, 2]"),
    ],
    ids=["judgments", "generator", "locator"],
)
def test_eval_scores_no_row_that_validate_rejects(tmp_path, index_file, capsys, rewrite, error):
    # The row reads, but validate rejects it, so eval counts it as an error
    # row and scores no citation precision from it.
    row = first_trace_row(tmp_path, index_file)
    rewrite(row)
    traces = write_jsonl(tmp_path / "traces.jsonl", [row])
    capsys.readouterr()
    assert main(["validate", "--traces", traces]) == EXIT_FAILURE
    assert capsys.readouterr().out == f"line 1: {error}\n1 problem(s) found\n"
    assert eval_traces(tmp_path, traces) == EXIT_OK
    report = json.loads((tmp_path / "r").read_text())
    assert report["citations"] == {"errors": 1.0, "precision_mean": 0.0, "traces_scored": 0.0}
    assert report["rows"] == [{"i": 0, "error": error, "prediction": "", "acc": 0}]


def _set_passage(at, key, value):
    def corrupt(row):
        row["passages"][at][key] = value

    return corrupt


V1_TRACE_COMPLAINT = (
    "trace format version 1 is no longer read; re-run `factrail infer` "
    "on the instructions to rewrite the traces"
)


@pytest.mark.parametrize(
    "corrupt, complaint",
    [
        pytest.param(
            _set("citations", []), "'citations' differ from those of the generator section",
            id="citations-differ",
        ),
        pytest.param(
            lambda row: row["passages"].pop(), "1 passages but 2 retrieval entries",
            id="passage-missing",
        ),
        pytest.param(
            _set_passage(1, "title", "Tide"),
            "retrieval entry 2 does not start with '[2] Tide -'",
            id="entry-prefix",
        ),
        pytest.param(
            rewrite_section("[Relevant]: [1]", "[Relevant] [1]"),
            "malformed judgment line (line 1)",
            id="locator-section",
        ),
        pytest.param(
            rewrite_section("[Cite]: [1]", "[Cite]: one"),
            "bad citation token 'one'",
            id="generator-section",
        ),
        pytest.param(
            rewrite_section("Search(moon orbit; ocean tides)", "Search()"),
            "no search intents remain after parsing",
            id="reconstructor-section",
        ),
        pytest.param(
            _set("flags", ["intents_truncated:5->2"]),
            "flag intents_truncated:5->2 does not fit the 2 intents of the section",
            id="truncation-flag",
        ),
        pytest.param(_set("answer", "the earth"), V1_TRACE_COMPLAINT, id="v1-answer"),
        pytest.param(_set("judgments", []), V1_TRACE_COMPLAINT, id="v1-judgments"),
        pytest.param(_set("intents", ["moon orbit"]), V1_TRACE_COMPLAINT, id="v1-intents"),
        pytest.param(
            _set_passage(0, "text", "the moon orbits the earth every month"),
            V1_TRACE_COMPLAINT,
            id="v1-passage-text",
        ),
    ],
)
def test_eval_and_validate_refuse_a_row_that_is_not_a_v2_trace(
    tmp_path, index_file, capsys, corrupt, complaint
):
    # A row that contradicts itself, or holds a key of format v1, is no
    # trace: reading it fails and names its line, before anything is scored.
    row = first_trace_row(tmp_path, index_file)
    good = json.dumps(row)
    corrupt(row)
    traces = tmp_path / "traces.jsonl"
    traces.write_text(good + "\n" + json.dumps(row) + "\n")
    refs = write_jsonl(
        tmp_path / "refs.jsonl",
        [{"task": "popqa", "question": INSTRUCTION, "gold_answers": ["the earth"]}] * 2,
    )
    capsys.readouterr()
    for argv in (
        ["validate", "--traces", str(traces)],
        ["eval", "--traces", str(traces), "--refs", refs, "--task", "popqa", "--out", str(tmp_path / "r")],
    ):
        assert main(argv) == EXIT_FAILURE
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: bad trace record on line 2: {complaint}\n")
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize(
    "entry, kind",
    [("a text", "str"), (["text"], "list"), (5, "int"), (None, "NoneType")],
    ids=["str", "list", "int", "null"],
)
def test_validate_names_a_passage_entry_that_is_not_an_object(
    tmp_path, index_file, capsys, entry, kind
):
    row = first_trace_row(tmp_path, index_file)
    row["passages"][1] = entry
    traces = write_jsonl(tmp_path / "traces.jsonl", [row])
    capsys.readouterr()
    assert main(["validate", "--traces", traces]) == EXIT_FAILURE
    out, err = capsys.readouterr()
    assert (out, err) == (
        "", f"error: bad trace record on line 1: passages[1] must be an object, not {kind}\n"
    )


@pytest.mark.parametrize("key", ["trajectory", "instruction", "passages"])
def test_eval_trace_row_missing_a_key_exits_with_message(tmp_path, index_file, capsys, key):
    row = json.loads(Path(infer_traces(tmp_path, index_file)).read_text().splitlines()[0])
    del row[key]
    error_row = {"error": {"stage": "locator", "message": "gave up"}}
    traces = tmp_path / "traces.jsonl"
    traces.write_text(json.dumps(error_row) + "\n" + json.dumps(row) + "\n")
    capsys.readouterr()
    assert eval_traces(tmp_path, traces) == EXIT_FAILURE
    assert capsys.readouterr().err == f"error: trace record on line 2 has no '{key}'\n"


def test_eval_trace_row_that_is_not_an_object_exits_with_message(tmp_path, capsys):
    traces = tmp_path / "traces.jsonl"
    traces.write_text('"an error string"\n')
    assert eval_traces(tmp_path, traces) == EXIT_FAILURE
    assert capsys.readouterr().err.startswith("error: line 1 is not a trace record: ")


# ---------------------------------------------------------------------------
# validate


def test_validate_requires_some_input():
    assert main(["validate"]) == EXIT_USAGE


def test_validate_clean_traces(tmp_path, index_file, capsys):
    traces = infer_traces(tmp_path, index_file)
    assert main(["validate", "--traces", traces]) == EXIT_OK
    assert "clean" in capsys.readouterr().out


def test_validate_flags_tampered_traces(tmp_path, index_file, capsys):
    # The answer cites passage 1; a locator section rewritten to judge it
    # Irrelevant leaves that citation unsupported.
    row = first_trace_row(tmp_path, index_file)
    rewrite_section(
        "[Relevant]: [1] the moon orbits the earth every month.",
        "[Irrelevant]: [1] Lacking Supporting Facts.",
    )(row)
    write_jsonl(tmp_path / "bad_traces.jsonl", [row])
    capsys.readouterr()
    code = main(["validate", "--traces", str(tmp_path / "bad_traces.jsonl")])
    assert code == EXIT_FAILURE
    assert capsys.readouterr().out == "line 1: citation_unsupported: 1\n1 problem(s) found\n"


def test_validate_flags_tampered_dataset(tmp_path, capsys):
    raw_path = write_jsonl(tmp_path / "raw.jsonl", RAWS)
    out = tmp_path / "train.jsonl"
    main(["build-dataset", "--kind", "short-intent", "--in", raw_path, "--out", str(out)])
    rows = [json.loads(l) for l in out.read_text().splitlines()]
    rows[0]["loss_spans"] = [[0, 3]]
    write_jsonl(tmp_path / "bad.jsonl", rows)
    code = main(["validate", "--dataset", str(tmp_path / "bad.jsonl")])
    assert code == EXIT_FAILURE
    assert "supervise its whole output" in capsys.readouterr().out


PLAIN_ROW = {
    "kind": "short-generator-plain",
    "input": "q</eoi>\n<Generator>\n",
    "output": "a</eog>",
    "loss_spans": [[0, 7]],
    "source": "open-qa",
}


@pytest.mark.parametrize(
    "change, complaint",
    [
        ({"loss_spans": [[0, 7.9]]}, "loss span bounds must be int, not float"),
        ({"loss_spans": [["0", "7"]]}, "loss span bounds must be int, not str"),
        ({"loss_spans": [[False, 7]]}, "loss span bounds must be int, not bool"),
        ({"source": 5}, "source must be str, not int"),
    ],
    ids=["float-bound", "str-bound", "bool-bound", "int-source"],
)
def test_validate_names_a_mistyped_dataset_row(tmp_path, capsys, change, complaint):
    path = write_jsonl(tmp_path / "train.jsonl", [PLAIN_ROW, dict(PLAIN_ROW, **change)])
    assert main(["validate", "--dataset", path]) == EXIT_FAILURE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: bad dataset record on line 2: {complaint}\n"


def test_validate_reports_a_number_int_refuses_and_checks_the_rows_after_it(tmp_path, capsys):
    huge = "1" * 5000  # int() reads at most 4300 digits by default
    located = f"[Relevant]: [{huge}] a fact</eol>"
    cited = f"a\n[Cite]: [{huge}]</eog>"
    rows = [
        {
            "kind": "short-locator",
            "input": "q</eoi>\n<retrieval>\n[1] T -x\n</retrieval>\n<Locator>\n",
            "output": located,
            "loss_spans": [[0, len(located)]],
            "source": "open-qa",
        },
        dict(PLAIN_ROW, output=cited, loss_spans=[[0, len(cited)]]),
        PLAIN_ROW,
    ]
    path = write_jsonl(tmp_path / "train.jsonl", rows)
    assert main(["validate", "--dataset", path]) == EXIT_FAILURE
    assert capsys.readouterr().out == (
        "line 1: the locator section does not parse:"
        " passage index of 5000 digits is too long (line 1)\n"
        "line 2: the generator section does not parse:"
        " citation index of 5000 digits is too long (line 2)\n"
        "2 problem(s) found\n"
    )


def test_validate_flags_a_short_input_that_is_not_a_stage_prompt(tmp_path, capsys):
    record = {
        "kind": "short-intent",
        "input": "no terminator, no head",
        "output": "Search(q)</eor>",
        "loss_spans": [[0, 15]],
        "source": "open-qa",
    }
    path = write_jsonl(tmp_path / "bad.jsonl", [record])
    assert main(["validate", "--dataset", path]) == EXIT_FAILURE
    assert capsys.readouterr().out == (
        "line 1: short input lacks the instruction terminator\n"
        "line 1: short input must end with the <Reconstructor> head\n"
        "2 problem(s) found\n"
    )


# ---------------------------------------------------------------------------
# memory: infer and eval hold one item at a time, not the batch


@pytest.fixture(scope="module")
def long_passage_setup(tmp_path_factory):
    """An index whose one scripted instruction retrieves twelve 100-word
    passages, so each trace outweighs what a command holds for the batch."""
    tmp = tmp_path_factory.mktemp("memory")
    docs = [
        (f"Doc {d}", " ".join(f"t{d // 3}" if j % 10 == 0 else f"w{d}x{j}" for j in range(100)))
        for d in range(12)
    ]
    index = str(tmp / "corpus.index")
    corpus_file = write_jsonl(tmp / "docs.jsonl", [{"title": t, "text": x} for t, x in docs])
    assert main(["index", "--corpus", corpus_file, "--out", index]) == EXIT_OK
    backend = ScriptedBackend()
    passages = script_scenario(
        backend, load_index(index), InferenceConfig(), INSTRUCTION, "Search(t0; t1; t2; t3)",
        judge_by_answer("w0x1"), "w0x1\n[Cite]: [1]",
    )
    assert len(passages) == 12
    save_script(backend._script, tmp / "replies.jsonl")
    config = tmp / "config.json"
    config.write_text(json.dumps({"script": str(tmp / "replies.jsonl"), "concurrency": 1}))
    return tmp, index, str(config)


def peak_bytes(argv):
    """The tracemalloc peak of one cli.main call, which must succeed."""
    gc.collect()
    tracemalloc.start()
    try:
        with redirect_stdout(io.StringIO()):
            assert main(argv) == EXIT_OK
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def infer_argv(setup, n):
    tmp, index, config = setup
    ins = write_jsonl(tmp / f"ins{n}.jsonl", [{"instruction": INSTRUCTION}] * n)
    out = str(tmp / f"traces{n}.jsonl")
    return [
        "--config", config, "infer", "--backend", "scripted",
        "--index", index, "--in", ins, "--out", out,
    ]


@pytest.mark.parametrize("command", ["infer", "eval"])
def test_peak_memory_does_not_grow_with_the_item_count(long_passage_setup, command):
    # Held whole, 4n traces weigh about 4 times n. Streamed, at most the
    # 16 in flight and the 32 drawn ahead are held (n is above both), and
    # the eval report's rows are what grows.
    tmp = long_passage_setup[0]
    ref = {"task": "popqa", "question": INSTRUCTION, "gold_answers": ["w0x1"]}
    n = 64
    peaks = []
    for items in (n, 4 * n):
        argv = infer_argv(long_passage_setup, items)
        if command == "eval":
            assert main(argv) == EXIT_OK
            refs = write_jsonl(tmp / f"refs{items}.jsonl", [ref] * items)
            out = str(tmp / "report.json")
            argv = ["eval", "--traces", argv[-1], "--refs", refs, "--task", "popqa", "--out", out]
        peaks.append(peak_bytes(argv))
    assert peaks[1] < 2 * peaks[0], peaks


# ---------------------------------------------------------------------------
# argparse plumbing


def test_unknown_subcommand_exits_via_argparse():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == EXIT_USAGE


# ---------------------------------------------------------------------------
# input files: every malformed line is named


def test_index_names_a_corpus_line_that_is_not_utf8(tmp_path, capsys):
    corpus_path = tmp_path / "docs.jsonl"
    corpus_path.write_bytes(json.dumps(DOCS[0]).encode() + b'\n{"title": "Caf\xe9", "text": "x"}\n')
    assert main(["index", "--corpus", str(corpus_path), "--out", str(tmp_path / "i")]) == EXIT_FAILURE
    assert capsys.readouterr().err.startswith(
        "error: bad corpus record on line 2: 'utf-8' codec can't decode byte 0xe9"
    )
    assert list(tmp_path.iterdir()) == [corpus_path]


def test_index_rejects_a_document_holding_a_lone_surrogate(tmp_path, capsys):
    corpus_path = write_jsonl(tmp_path / "docs.jsonl", [DOCS[0], {"title": "X", "text": "a \ud800 b"}])
    assert main(["index", "--corpus", corpus_path, "--out", str(tmp_path / "i")]) == EXIT_FAILURE
    assert capsys.readouterr().err == (
        "error: document 2 ('X'): its text holds the lone surrogate '\\ud800', "
        "which no passage may contain\n"
    )
    assert list(tmp_path.iterdir()) == [tmp_path / "docs.jsonl"]


def test_infer_turns_an_instruction_holding_a_lone_surrogate_into_an_item_error(
    tmp_path, index_file, capsys
):
    config = scripted_setup(tmp_path, [(INSTRUCTION, "the earth\n[Cite]: [1]")])
    ins = write_jsonl(
        tmp_path / "ins.jsonl", [{"instruction": "what \udc80 moon"}, {"instruction": INSTRUCTION}]
    )
    out = tmp_path / "traces.jsonl"
    base = [
        "--config", config, "infer", "--backend", "scripted",
        "--index", index_file, "--in", ins, "--out", str(out),
    ]
    assert main(base) == EXIT_OK
    assert "wrote 2 traces (1 failures)" in capsys.readouterr().out
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert rows[0] == {
        "error": {"stage": "instruction", "message": "the instruction holds the lone surrogate '\\udc80'"}
    }
    assert rows[1]["trajectory"].endswith("<Generator>\nthe earth\n[Cite]: [1]\n</eog>\n")
    assert main(base + ["--strict"]) == EXIT_FAILURE


def test_build_dataset_names_a_raw_line_holding_the_instruction_terminator(tmp_path, capsys):
    bad = {"task": "open-qa", "x": "which planet is </eoi> the smallest planet?", "y": "mercury"}
    raw_path = write_jsonl(tmp_path / "raw.jsonl", [RAWS[0], bad])
    out = tmp_path / "train.jsonl"
    code = main(["build-dataset", "--kind", "short-intent", "--in", raw_path, "--out", str(out)])
    assert code == EXIT_FAILURE
    assert capsys.readouterr().err == (
        "error: bad raw record on line 2: x holds the grammar token </eoi>\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "turn", [{"question": "is it?", "answer": "no"}, "ab"], ids=["object", "string"]
)
def test_build_dataset_names_a_raw_line_whose_dialogue_turn_is_not_a_pair(
    tmp_path, capsys, turn
):
    # A turn is read as [question, answer]; an object or a string is not
    # unpacked into its keys or characters.
    dialogue = {"task": "dialogue", "x": "and now?", "y": "yes", "history": [turn]}
    raw_path = write_jsonl(tmp_path / "raw.jsonl", [RAWS[0], dialogue])
    out = tmp_path / "train.jsonl"
    code = main(["build-dataset", "--kind", "short-intent", "--in", raw_path, "--out", str(out)])
    assert code == EXIT_FAILURE
    assert capsys.readouterr().err == (
        "error: bad raw record on line 2: 'history' must be a list of [question, answer] pairs\n"
    )
    assert not out.exists()


def test_validate_flags_a_dataset_input_with_two_instruction_terminators(tmp_path, capsys):
    x = "which planet is </eoi> the smallest planet?"
    output = f"Search({x})</eor>"
    record = {
        "kind": "short-intent",
        "input": f"{x}</eoi>\n<Reconstructor>\n",
        "output": output,
        "loss_spans": [[0, len(output)]],
        "source": "open-qa",
    }
    path = write_jsonl(tmp_path / "train.jsonl", [record])
    assert main(["validate", "--dataset", path]) == EXIT_FAILURE
    assert capsys.readouterr().out == (
        "line 1: input holds 2 instruction terminators, not one\n1 problem(s) found\n"
    )


def _bogus_judgment(row):
    row["trajectory"] = row["trajectory"].replace("[Relevant]: [1]", "[Bogus]: [1]")
    return row


@pytest.mark.parametrize(
    "corrupt, complaint",
    [
        (lambda row: b'{"answer": "caf\xe9"}', "bad trace record on line 2: 'utf-8' codec"),
        (lambda row: b"not json", "bad trace record on line 2: Expecting value"),
        (
            lambda row: json.dumps(_bogus_judgment(row)).encode(),
            "bad trace record on line 2: malformed judgment line (line 1)",
        ),
        (
            lambda row: json.dumps(_set("trajectory", "<Generator>\nthe earth")(row)).encode(),
            "bad trace record on line 2: <Generator> at offset 0 is never closed",
        ),
    ],
)
def test_eval_and_validate_name_a_malformed_trace_line(
    tmp_path, index_file, capsys, corrupt, complaint
):
    good = Path(infer_traces(tmp_path, index_file)).read_bytes()
    traces = tmp_path / "bad_traces.jsonl"
    traces.write_bytes(good + corrupt(json.loads(good)) + b"\n")
    capsys.readouterr()
    assert eval_traces(tmp_path, traces) == EXIT_FAILURE
    assert capsys.readouterr().err.startswith(f"error: {complaint}")
    assert main(["validate", "--traces", str(traces)]) == EXIT_FAILURE
    out, err = capsys.readouterr()
    assert (out, err.startswith(f"error: {complaint}")) == ("", True)


@pytest.fixture(scope="module")
def good_inputs(tmp_path_factory):
    """One valid file of each kind the command line reads, and their rows."""
    tmp = tmp_path_factory.mktemp("inputs")
    corpus = write_jsonl(tmp / "docs.jsonl", DOCS)
    index = str(tmp / "corpus.index")
    config = scripted_setup(tmp, [(INSTRUCTION, "the earth\n[Cite]: [1]")])
    instructions = write_jsonl(tmp / "ins.jsonl", [{"instruction": INSTRUCTION}])
    refs_rows = [{"task": "popqa", "question": INSTRUCTION, "gold_answers": ["the earth"]}]
    refs = write_jsonl(tmp / "refs.jsonl", refs_rows)
    traces, dataset = tmp / "traces.jsonl", tmp / "train.jsonl"
    raw = write_jsonl(tmp / "raw.jsonl", RAWS)
    assert main(["index", "--corpus", corpus, "--out", index]) == EXIT_OK
    assert main(
        ["--config", config, "infer", "--backend", "scripted", "--index", index,
         "--in", instructions, "--out", str(traces)]
    ) == EXIT_OK
    assert main(["build-dataset", "--kind", "short-intent", "--in", raw, "--out", str(dataset)]) == EXIT_OK

    def rows(path):
        return [json.loads(line) for line in Path(path).read_text().splitlines()]

    return {
        "dir": tmp, "index": index, "instructions": instructions, "refs": refs,
        "traces": str(traces), "rows": {
            "corpus": DOCS, "raw": RAWS, "instructions": rows(instructions),
            "script": rows(tmp / "replies.jsonl"), "traces": rows(traces),
            "refs": refs_rows, "dataset": rows(dataset),
        },
    }


def _commands(kind, path, inputs):
    """The commands that read ``path`` as a file of this kind."""
    out = str(inputs["dir"] / "out")
    infer = ["infer", "--backend", "scripted", "--index", inputs["index"], "--out", out]
    eval_ = ["eval", "--task", "popqa", "--out", out]
    if kind == "script":
        config = inputs["dir"] / "script-config.json"
        config.write_text(json.dumps({"script": path}))
        return [["--config", str(config), *infer, "--in", inputs["instructions"]]]
    return {
        "corpus": [["index", "--corpus", path, "--out", out]],
        "raw": [["build-dataset", "--kind", "short-intent", "--in", path, "--out", out]],
        "instructions": [["--config", str(inputs["dir"] / "config.json"), *infer, "--in", path]],
        "traces": [[*eval_, "--traces", path, "--refs", inputs["refs"]], ["validate", "--traces", path]],
        "refs": [[*eval_, "--traces", inputs["traces"], "--refs", path]],
        "dataset": [["validate", "--dataset", path]],
    }[kind]


# Per kind: its exit code, and what makes one of its rows unreadable: a
# missing field, a field of the wrong type, a bad enum value.
INPUT_KINDS = {
    "corpus": (EXIT_FAILURE, [_drop("text"), _set("title", 7)]),
    "raw": (EXIT_FAILURE, [_drop("y"), _set("x", 7), _set("task", "bogus")]),
    "instructions": (EXIT_USAGE, [_drop("instruction"), _set("instruction", ["a"])]),
    "script": (EXIT_FAILURE, [_drop("reply"), _set("fingerprint", 7)]),
    "traces": (
        EXIT_FAILURE,
        [_drop("trajectory"), _set("citations", 7), _set("flags", "moon"), _bogus_judgment,
         _set("trajectory", "<Generator>\nthe earth"), _set("answer", "the earth")],
    ),
    "refs": (EXIT_USAGE, [_drop("gold_answers"), _set("question", 7), _set("task", "bogus")]),
    "dataset": (EXIT_FAILURE, [_drop("output"), _set("input", 7), _set("kind", "bogus")]),
}

# Faults that any kind of row can have; each maps a good line to a bad one.
LINE_FAULTS = [
    lambda line: line.replace(b'"', b'"\xe9', 1),  # not UTF-8
    lambda line: line[: len(line) // 2],  # truncated JSON
    lambda line: b"7",
    lambda line: b'"a string"',
    lambda line: b"null",
    lambda line: b"[" + line + b"]",
    lambda line: b"[" * 100_000,  # nested deeper than the JSON decoder recurses
]


@settings(max_examples=120, deadline=None)
@given(
    kind=st.sampled_from(sorted(INPUT_KINDS)),
    good=st.integers(min_value=0, max_value=3),
    data=st.data(),
)
def test_one_bad_line_in_any_input_file_is_named(good_inputs, kind, good, data):
    code, row_faults = INPUT_KINDS[kind]
    rows = good_inputs["rows"][kind]
    lines = [json.dumps(rows[i % len(rows)]).encode() for i in range(good)]
    blank = data.draw(st.integers(min_value=0, max_value=len(lines) + 1))
    if blank <= len(lines):
        lines.insert(blank, b"  ")
    template = json.loads(json.dumps(rows[0]))
    bad = data.draw(st.sampled_from(LINE_FAULTS + row_faults))
    if bad in row_faults:
        bad_line = json.dumps(bad(template)).encode()
    else:
        bad_line = bad(json.dumps(template).encode())
    at = data.draw(st.integers(min_value=0, max_value=len(lines)))
    lines.insert(at, bad_line)
    path = good_inputs["dir"] / f"bad-{kind}.jsonl"
    path.write_bytes(b"\n".join(lines) + b"\n")

    for argv in _commands(kind, str(path), good_inputs):
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            assert main(argv) == code
        errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
        assert len(errors) == 1, err.getvalue()
        assert re.search(rf"\bline {at + 1}\b", errors[0]), errors[0]
        assert not (good_inputs["dir"] / "out").exists()


# ---------------------------------------------------------------------------
# a training example keeps the rules a trace keeps

RETRIEVED = "<retrieval>\n[1] Moon -the moon orbits\n[2] Sun -the sun shines\n</retrieval>\n"
LOCATED = (
    "<Locator>\n[Relevant]: [1] the moon orbits\n"
    "[Irrelevant]: [2] Lacking Supporting Facts.\n</eol>\n"
)


def _long_row(output):
    ends = (("<Reconstructor>", "</eor>"), ("<Locator>", "</eol>"), ("<Generator>", "</eog>"))
    spans = [[output.index(head), output.index(end) + len(end)] for head, end in ends]
    return {"kind": "long", "input": "q</eoi>\n", "output": output, "loss_spans": spans}


def _short_row(kind, prompt, output):
    return {"kind": kind, "input": f"q</eoi>\n{prompt}", "output": output,
            "loss_spans": [[0, len(output)]]}


@pytest.mark.parametrize(
    "row, problems",
    [
        pytest.param(
            # One of two passages judged, an Irrelevant one cited, and one
            # cited that the retrieval section does not list.
            _long_row(
                "<Reconstructor>\nSearch(q)\n</eor>\n" + RETRIEVED
                + "<Locator>\n[Irrelevant]: [1] Lacking Supporting Facts.\n</eol>\n"
                + "<Generator>\nthe earth\n[Cite]: [1] [7]\n</eog>\n"
            ),
            ["judgment_coverage: judgments cover [1], expected [1, 2]",
             "citation_unsupported: 1", "citation_out_of_range: 7"],
            id="long",
        ),
        pytest.param(
            _short_row(
                "short-locator", RETRIEVED + "<Locator>\n",
                "[Relevant]: [2] the sun shines</eol>",
            ),
            ["judgment_coverage: judgments cover [2], expected [1, 2]"],
            id="short-locator-coverage",
        ),
        pytest.param(
            _short_row(
                "short-generator-facts", LOCATED + "<Generator>\n", "the sun\n[Cite]: [2]</eog>"
            ),
            ["citation_unsupported: 2"],
            id="short-generator-facts-unsupported",
        ),
        pytest.param(
            _short_row("short-generator-plain", "<Generator>\n", "the earth\n[Cite]: [1]</eog>"),
            ["citation_out_of_range: 1"],
            id="short-generator-plain-out-of-range",
        ),
        pytest.param(
            _short_row("short-intent", "<Reconstructor>\n", "Search()</eor>"),
            ["the reconstructor section does not parse: no search intents remain after parsing"],
            id="short-intent-body",
        ),
        pytest.param(
            _short_row("short-locator", "<Locator>\n", "[Irrelevant]: [1]</eol>"),
            ["short example is not a canonical retrieval-locator trajectory"
             " (re-serializing its parse differs)"],
            id="short-locator-without-its-retrieval-section",
        ),
    ],
)
def test_validate_checks_a_dataset_row_by_the_rules_of_a_trace(tmp_path, capsys, row, problems):
    path = write_jsonl(tmp_path / "train.jsonl", [row])
    assert main(["validate", "--dataset", path]) == EXIT_FAILURE
    assert capsys.readouterr().out == "".join(
        f"line 1: {p}\n" for p in problems
    ) + f"{len(problems)} problem(s) found\n"


def test_a_passage_holding_a_form_feed_survives_build_dataset_and_validate(tmp_path, capsys):
    # A retrieval section's entries are its "\n"-separated lines; a form
    # feed in a passage text (a hand-edited index) breaks no entry.
    data = Path(__file__).parent / "data"
    index = tmp_path / "toy.index"
    assert main(["index", "--corpus", str(data / "toy_corpus.jsonl"), "--out", str(index)]) == EXIT_OK
    head, _, columns = index.read_bytes().partition(b"\n")
    header = json.loads(head)
    for passage in header["passages"]:
        passage["text"] = passage["text"].replace(" ", "\x0c", 1)
    index.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + columns)
    out = tmp_path / "train.jsonl"
    argv = ["build-dataset", "--kind", "long", "--in", str(data / "toy_raw.jsonl")]
    assert main([*argv, "--index", str(index), "--out", str(out)]) == EXIT_OK
    assert "\\f" in out.read_text(encoding="utf-8")
    capsys.readouterr()
    assert main(["validate", "--dataset", str(out)]) == EXIT_OK
    assert capsys.readouterr().out == "clean\n"


@pytest.mark.parametrize("command", ["infer", "build-dataset"])
def test_an_index_header_nested_too_deeply_is_an_index_error(tmp_path, capsys, command):
    index = tmp_path / "deep.index"
    index.write_bytes(b"[" * 200_000 + b"\n")
    out = tmp_path / "out.jsonl"
    instructions = write_jsonl(tmp_path / "ins.jsonl", [{"instruction": INSTRUCTION}])
    inputs = {
        "infer": ["--backend", "scripted", "--in", instructions],
        "build-dataset": ["--kind", "long", "--in", write_jsonl(tmp_path / "raw.jsonl", RAWS)],
    }[command]
    assert main([command, *inputs, "--index", str(index), "--out", str(out)]) == EXIT_FAILURE
    assert capsys.readouterr().err == (
        "error: the index header nests arrays or objects too deeply\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "field, value, problem",
    [
        ("text", "the moon orbits \udc80", "holds the lone surrogate '\\udc80'"),
        ("title", "Moon <Generator>", "holds the grammar token <Generator>"),
    ],
    ids=["surrogate-text", "token-title"],
)
def test_infer_refuses_an_index_holding_a_passage_no_prompt_may_hold(
    tmp_path, capsys, field, value, problem
):
    # Refused as the index loads: at inference, a lone surrogate would abort
    # the batch (exit 2, no traces), and a token fail each item retrieving it.
    config = scripted_setup(tmp_path, [(INSTRUCTION, "the earth\n[Cite]: [1]")])
    clean = tmp_path / "clean.index"
    main(["index", "--corpus", write_jsonl(tmp_path / "docs.jsonl", DOCS), "--out", str(clean)])
    header_line, columns = clean.read_bytes().split(b"\n", 1)
    header = json.loads(header_line)
    header["passages"][0][field] = value
    index = tmp_path / "unclean.index"
    index.write_bytes(json.dumps(header).encode() + b"\n" + columns)
    ins = write_jsonl(tmp_path / "ins.jsonl", [{"instruction": INSTRUCTION}] * 2)
    out = tmp_path / "traces.jsonl"
    capsys.readouterr()
    code = main(["--config", config, "infer", "--backend", "scripted", "--index", str(index),
                 "--in", ins, "--out", str(out)])
    assert code == EXIT_FAILURE
    assert capsys.readouterr().err == f"error: passages[0] {field!r} {problem}\n"
    assert not out.exists()
