"""Command-line entry point.

Subcommands: ``index`` builds and saves a passage index from a JSONL corpus,
``build-dataset`` turns raw records into training examples, ``infer`` runs
the staged pipeline over instructions, ``eval`` scores traces against
references, and ``validate`` re-checks dataset or trace files. Exit codes:
0 on success, 1 on a domain failure, 2 on usage or schema problems.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from contextlib import closing
from dataclasses import dataclass, fields
from pathlib import Path

from . import backends, corpus, dataset, evaluation, grammar, orchestrator
from .fileio import atomic_path, read_jsonl, typed_field

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class GlobalConfig:
    concurrency: int = 4
    inference: orchestrator.InferenceConfig = orchestrator.InferenceConfig()
    backend: backends.BackendConfig | None = None
    script: str | None = None

    def __post_init__(self) -> None:
        typed_field(vars(self), "concurrency", int)
        if self.script is not None:
            typed_field(vars(self), "script")
        if self.concurrency < 1:
            raise ValueError("'concurrency' must be at least 1")


# The config's sections: each key names the class its JSON object builds.
_SECTIONS = {"inference": orchestrator.InferenceConfig, "backend": backends.BackendConfig}


def _build_section(cls, data: object, where: str, sections: dict):
    """``cls`` built from the JSON object ``data``, its keys in ``sections``
    built first as sections of their own; any fault is a ConfigError, and
    unknown keys are reported before the values are checked."""
    if type(data) is not dict:
        raise ConfigError(f"{'the ' if where else ''}{where}config must be a JSON object")
    unknown = set(data) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {where}config keys: {', '.join(sorted(unknown))}")
    built = {
        key: _build_section(section, data[key], f"{key} ", {})
        for key, section in sections.items()
        if key in data
    }
    try:
        return cls(**{**data, **built})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {where}config: {exc}") from exc


def load_config(path: str | None) -> GlobalConfig:
    """Load the JSON config file; unknown keys are rejected, not ignored."""
    if path is None:
        return GlobalConfig()
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config is not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError("config nests arrays or objects too deeply to read") from exc
    return _build_section(GlobalConfig, data, "", _SECTIONS)


def _config_fingerprint(parts: dict) -> str:
    return hashlib.sha256(
        json.dumps(parts, sort_keys=True).encode("utf-8")
    ).hexdigest()


def _write_json(path: str, data: dict) -> None:
    with atomic_path(path) as temp:
        temp.write_text(
            json.dumps(data, ensure_ascii=False, sort_keys=True, indent=1) + "\n", encoding="utf-8"
        )


def _read_instructions(path: str) -> list[str]:
    rows = read_jsonl(
        path, lambda row: typed_field(row, "instruction"), "instruction record",
        evaluation.SchemaMismatchError,
    )
    return [instruction for _, instruction in rows]


# ---------------------------------------------------------------------------
# subcommands


def cmd_index(args: argparse.Namespace, cfg: GlobalConfig) -> int:
    # The documents stream into the index, so only the passages hold the corpus's text.
    document_count = 0

    def counted(docs):
        nonlocal document_count
        for document_count, doc in enumerate(docs, start=1):
            yield doc

    with closing(corpus.iter_documents(args.corpus)) as docs:
        index = corpus.index_documents(counted(docs))
    corpus.save_index(index, args.out)
    print(
        f"indexed {document_count} documents into {index.total_docs} passages "
        f"(avg length {index.avg_doc_length:.1f} words) -> {args.out}"
    )
    return EXIT_OK


def _make_critic(name: str, cfg: GlobalConfig) -> dataset.Critic:
    if name == "rule":
        return dataset.RuleBasedCritic()
    if cfg.backend is None:
        raise ConfigError("the http critic needs a backend section in the config")
    return dataset.HttpCritic(cfg.backend)


def cmd_build_dataset(args: argparse.Namespace, cfg: GlobalConfig) -> int:
    default_task = dataset.TaskTag(args.task) if args.task else None
    raws = dataset.read_raw_examples(args.input, default_task)
    critic = _make_critic(args.critic, cfg)
    kind = dataset.ExampleKind(args.kind)
    index = corpus.load_index(args.index) if kind.needs_index else None
    k = cfg.inference.k
    # The long kind goes through its public name, so tracing that wraps
    # build_long_example sees one span per long example built.
    if kind is dataset.ExampleKind.LONG:
        examples = (dataset.build_long_example(raw, critic, index, k) for raw in raws)
    else:
        examples = (dataset.build_example(kind, raw, critic, index, k) for raw in raws)
    fingerprint = _config_fingerprint(
        {"kind": args.kind, "task": args.task, "k": k, "critic": args.critic}
    )
    out = Path(args.out)
    manifest = dataset.emit_dataset(examples, out, config_fingerprint=fingerprint)
    manifest_path = str(out) + ".manifest.json"
    _write_json(manifest_path, manifest.to_dict())
    print(f"wrote {manifest.total} examples -> {out} (manifest {manifest_path})")
    return EXIT_OK


def cmd_infer(args: argparse.Namespace, cfg: GlobalConfig) -> int:
    index = corpus.load_index(args.index)
    if args.backend == "scripted":
        if cfg.script is None:
            raise ConfigError("the scripted backend needs a script path in the config")
        backend: backends.Backend = backends.ScriptedBackend.from_file(cfg.script)
    else:
        if cfg.backend is None:
            raise ConfigError("the http backend needs a backend section in the config")
        backend = backends.HttpBackend(cfg.backend)
    instructions = _read_instructions(args.input)
    failures = 0
    totals: dict[str, tuple[float, int]] = {}

    def tally(items):
        nonlocal failures
        for item in items:
            if isinstance(item, orchestrator.PipelineError):
                failures += 1
            else:
                for record in item.steps:
                    total, count = totals.get(record.kind.value, (0.0, 0))
                    totals[record.kind.value] = (total + record.duration_s, count + 1)
            yield item

    # Only HTTP requests wait; threads would run scripted CPU work one at a time anyway.
    workers = cfg.concurrency if args.backend == "http" else 1
    items = orchestrator.iter_batch(instructions, index, backend, cfg.inference, max_workers=workers)
    orchestrator.write_traces(tally(items), args.out)
    for stage in sorted(totals):
        total, count = totals[stage]
        print(f"stage {stage}: mean {total / count * 1000:.2f} ms over {count} calls")
    print(f"wrote {len(instructions)} traces ({failures} failures) -> {args.out}")
    if failures and args.strict:
        return EXIT_FAILURE
    return EXIT_OK


def cmd_eval(args: argparse.Namespace, cfg: GlobalConfig) -> int:
    # The references are read whole and first; the traces stream past them.
    examples = evaluation.read_eval_examples(args.refs)
    items = (row for _, row in orchestrator.iter_traces(args.traces))
    report = evaluation.evaluate(items, examples, args.task)
    _write_json(args.out, report.to_dict())
    print(report.format_table())
    return EXIT_OK


def cmd_validate(args: argparse.Namespace, cfg: GlobalConfig) -> int:
    problems: list[str] = []
    if args.dataset:
        rows = read_jsonl(
            args.dataset, dataset.check_example_dict, "dataset record", dataset.DatasetError
        )
        for lineno, row_problems in rows:
            problems.extend(f"line {lineno}: {p}" for p in row_problems)
    if args.traces:
        for lineno, row in orchestrator.iter_traces(args.traces):
            if isinstance(row, orchestrator.InferenceTrace):
                problems.extend(f"line {lineno}: {v}" for v in orchestrator.validate_trace(row))
    for problem in problems:
        print(problem)
    if problems:
        print(f"{len(problems)} problem(s) found")
        return EXIT_FAILURE
    print("clean")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="factrail",
        description="Retrieval-grounded answer pipelines: index, build, infer, eval.",
    )
    parser.add_argument("--config", help="path to a JSON config file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("index", help="chunk and index a JSONL corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("build-dataset", help="build training examples from raw records")
    p.add_argument("--task", choices=[t.value for t in dataset.TaskTag])
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--index")
    p.add_argument("--critic", choices=["rule", "http"], default="rule")
    p.add_argument(
        "--kind", choices=[k.value for k in dataset.ExampleKind], required=True
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_dataset)

    p = sub.add_parser("infer", help="run the staged pipeline over instructions")
    p.add_argument("--index", required=True)
    p.add_argument("--backend", choices=["scripted", "http"], required=True)
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--strict", action="store_true", help="exit nonzero on any failure")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("eval", help="score traces against references")
    p.add_argument("--traces", required=True)
    p.add_argument("--refs", required=True)
    p.add_argument("--task", choices=list(evaluation.KNOWN_TASKS), required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("validate", help="re-check dataset or trace files")
    p.add_argument("--dataset")
    p.add_argument("--traces")
    p.set_defaults(func=cmd_validate)
    return parser


_DOMAIN_ERRORS = (
    grammar.GrammarError,
    corpus.CorpusError,
    dataset.DatasetError,
    backends.BackendError,
    orchestrator.PipelineError,
    orchestrator.TraceFormatError,
    evaluation.UnknownTaskError,
    OSError,
)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.command == "validate" and not (args.dataset or args.traces):
        print("error: validate needs --dataset or --traces", file=sys.stderr)
        return EXIT_USAGE
    if (
        args.command == "build-dataset"
        and dataset.ExampleKind(args.kind).needs_index
        and not args.index
    ):
        print(f"error: --kind {args.kind} needs --index", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args, cfg)
    except (evaluation.SchemaMismatchError, ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
