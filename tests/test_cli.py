"""Command-line behavior: exit codes, config strictness, and file outputs."""

import json

import pytest

from factrail.backends import ScriptedBackend, save_script
from factrail.cli import EXIT_FAILURE, EXIT_OK, EXIT_USAGE, ConfigError, load_config, main
from factrail.corpus import index_documents, load_index
from factrail.orchestrator import InferenceConfig

from helpers import judge_by_answer, script_scenario

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


def scripted_setup(tmp_path, instructions_and_answers):
    """Create a replay script plus config file covering the given instructions."""
    docs = [(d["title"], d["text"]) for d in DOCS]
    index = index_documents(docs)
    backend = ScriptedBackend()
    for instruction, answer in instructions_and_answers:
        script_scenario(
            backend, index, InferenceConfig(), instruction,
            "Search(moon orbit; ocean tides)",
            judge_by_answer(answer.split("\n")[0]), answer,
        )
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


def test_index_missing_corpus_fails(tmp_path):
    code = main(["index", "--corpus", str(tmp_path / "nope.jsonl"), "--out", "x"])
    assert code == EXIT_FAILURE


GOOD_ENTRY = {"id": 0, "title": "Moon", "text": "the moon", "word_count": 2}


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
    payload = {"format": "factrail-index", "version": 1}
    if passages is not None:
        payload["passages"] = passages
    index_path = tmp_path / "bad.index.json"
    index_path.write_text(json.dumps(payload))
    ins = write_jsonl(tmp_path / "ins.jsonl", [{"instruction": INSTRUCTION}])
    code = main(
        [
            "infer", "--backend", "scripted", "--index", str(index_path),
            "--in", ins, "--out", str(tmp_path / "traces.jsonl"),
        ]
    )
    assert code == EXIT_FAILURE
    err = capsys.readouterr().err
    assert err == f"error: {complaint}\n"
    assert not (tmp_path / "traces.jsonl").exists()


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
    assert record["answer"] == "the earth"
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


# ---------------------------------------------------------------------------
# validate


def test_validate_requires_some_input():
    assert main(["validate"]) == EXIT_USAGE


def test_validate_clean_traces(tmp_path, index_file, capsys):
    traces = infer_traces(tmp_path, index_file)
    assert main(["validate", "--traces", traces]) == EXIT_OK
    assert "clean" in capsys.readouterr().out


def test_validate_flags_tampered_traces(tmp_path, index_file, capsys):
    traces = infer_traces(tmp_path, index_file)
    rows = [json.loads(l) for l in open(traces)]
    rows[0]["answer"] = "tampered"
    write_jsonl(tmp_path / "bad_traces.jsonl", rows)
    code = main(["validate", "--traces", str(tmp_path / "bad_traces.jsonl")])
    assert code == EXIT_FAILURE
    assert "generator_mismatch" in capsys.readouterr().out


def test_validate_flags_tampered_dataset(tmp_path, capsys):
    raw_path = write_jsonl(tmp_path / "raw.jsonl", RAWS)
    out = tmp_path / "train.jsonl"
    main(["build-dataset", "--kind", "short-intent", "--in", raw_path, "--out", str(out)])
    rows = [json.loads(l) for l in open(out)]
    rows[0]["loss_spans"] = [[0, 3]]
    write_jsonl(tmp_path / "bad.jsonl", rows)
    code = main(["validate", "--dataset", str(tmp_path / "bad.jsonl")])
    assert code == EXIT_FAILURE
    assert "supervise its whole output" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# argparse plumbing


def test_unknown_subcommand_exits_via_argparse():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == EXIT_USAGE
