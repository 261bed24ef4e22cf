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
import logging
import sys
from dataclasses import dataclass, fields
from pathlib import Path

from . import backends, corpus, dataset, evaluation, grammar, orchestrator
from .fileio import atomic_path

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class GlobalConfig:
    log_level: str = "warning"
    seed: int = 0
    concurrency: int = 4
    inference: orchestrator.InferenceConfig = orchestrator.InferenceConfig()
    backend: backends.BackendConfig | None = None
    script: str | None = None


def _build_section(cls, data: dict, where: str):
    allowed = {f.name for f in fields(cls)}
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"unknown {where} config keys: {', '.join(sorted(unknown))}")
    try:
        return cls(**data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {where} config: {exc}") from exc


def load_config(path: str | None) -> GlobalConfig:
    """Load the JSON config file; unknown keys are rejected, not ignored."""
    if path is None:
        return GlobalConfig()
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    known = {"log_level", "seed", "concurrency", "inference", "backend", "script"}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    inference = _build_section(
        orchestrator.InferenceConfig, data.get("inference", {}), "inference"
    )
    backend_cfg = None
    if "backend" in data:
        backend_cfg = _build_section(backends.BackendConfig, data["backend"], "backend")
    for key, kind in (("log_level", str), ("seed", int), ("concurrency", int), ("script", str)):
        if key in data and not isinstance(data[key], kind):
            raise ConfigError(f"config key {key!r} must be {kind.__name__}")
    return GlobalConfig(
        log_level=data.get("log_level", "warning"),
        seed=data.get("seed", 0),
        concurrency=data.get("concurrency", 4),
        inference=inference,
        backend=backend_cfg,
        script=data.get("script"),
    )


def _config_fingerprint(parts: dict) -> str:
    return hashlib.sha256(
        json.dumps(parts, sort_keys=True).encode("utf-8")
    ).hexdigest()


def _read_instructions(path: str) -> list[str]:
    instructions = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                instructions.append(json.loads(line)["instruction"])
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise evaluation.SchemaMismatchError(
                    f"bad instruction record on line {lineno}: {exc}"
                ) from exc
    return instructions


# ---------------------------------------------------------------------------
# subcommands


def cmd_index(args: argparse.Namespace, cfg: GlobalConfig) -> int:
    docs = corpus.read_documents(args.corpus)
    index = corpus.index_documents(docs)
    corpus.save_index(index, args.out)
    print(
        f"indexed {len(docs)} documents into {index.total_docs} passages "
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
    needs_index = kind in (
        dataset.ExampleKind.LONG,
        dataset.ExampleKind.SHORT_LOCATOR,
        dataset.ExampleKind.SHORT_GENERATOR_FACTS,
    )
    index = corpus.load_index(args.index) if needs_index else None
    k = cfg.inference.k

    examples = []
    for raw in raws:
        if kind is dataset.ExampleKind.LONG:
            assert index is not None
            examples.append(dataset.build_long_example(raw, critic, index, k))
            continue
        if kind is dataset.ExampleKind.SHORT_INTENT:
            examples.append(dataset.build_short_intent(raw, critic))
            continue
        if kind is dataset.ExampleKind.SHORT_GENERATOR_PLAIN:
            examples.append(dataset.build_short_generator(raw))
            continue
        assert index is not None
        flat = dataset.normalize_dialogue(raw) if (
            raw.task is dataset.TaskTag.DIALOGUE and raw.history is not None
        ) else raw
        intents = critic.propose_intents(flat.x, flat.task)
        passages = corpus.retrieve_multi(index, intents, k)
        if kind is dataset.ExampleKind.SHORT_LOCATOR:
            examples.append(dataset.build_short_locator(flat, passages, critic))
        else:
            judgments = [
                critic.judge_passage(flat.x, flat.y, p, i)
                for i, p in enumerate(passages, start=1)
            ]
            examples.append(dataset.build_short_generator(flat, judgments))

    fingerprint = _config_fingerprint(
        {"kind": args.kind, "task": args.task, "k": k, "critic": args.critic}
    )
    out = Path(args.out)
    with atomic_path(out) as temp:
        manifest = dataset.emit_dataset(examples, temp, config_fingerprint=fingerprint)
    manifest_path = str(out) + ".manifest.json"
    Path(manifest_path).write_text(
        json.dumps(manifest.to_dict(), ensure_ascii=False, sort_keys=True, indent=1) + "\n",
        encoding="utf-8",
    )
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
    results = orchestrator.run_batch(
        instructions, index, backend, cfg.inference, max_workers=cfg.concurrency
    )
    orchestrator.write_traces(results, args.out)

    failures = sum(1 for r in results if r.error is not None)
    totals: dict[str, tuple[float, int]] = {}
    for result in results:
        if result.trace is None:
            continue
        for record in result.trace.steps:
            total, count = totals.get(record.kind.value, (0.0, 0))
            totals[record.kind.value] = (total + record.duration_s, count + 1)
    for stage in sorted(totals):
        total, count = totals[stage]
        print(f"stage {stage}: mean {total / count * 1000:.2f} ms over {count} calls")
    print(f"wrote {len(results)} traces ({failures} failures) -> {args.out}")
    if failures and args.strict:
        return EXIT_FAILURE
    return EXIT_OK


def cmd_eval(args: argparse.Namespace, cfg: GlobalConfig) -> int:
    results = orchestrator.read_traces(args.traces)
    examples = evaluation.read_eval_examples(args.refs)
    report = evaluation.evaluate(results, examples, args.task)
    Path(args.out).write_text(
        json.dumps(report.to_dict(), ensure_ascii=False, sort_keys=True, indent=1) + "\n",
        encoding="utf-8",
    )
    print(report.format_table())
    return EXIT_OK


def cmd_validate(args: argparse.Namespace, cfg: GlobalConfig) -> int:
    problems: list[str] = []
    if args.dataset:
        with open(args.dataset, encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    problems.append(f"line {lineno}: not JSON ({exc})")
                    continue
                for problem in dataset.check_example_dict(record):
                    problems.append(f"line {lineno}: {problem}")
    if args.traces:
        with open(args.traces, encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                    if "error" in record:
                        continue
                    trace = orchestrator.trace_from_dict(record)
                except Exception as exc:  # noqa: BLE001 - report, don't crash
                    problems.append(f"line {lineno}: unreadable trace ({exc})")
                    continue
                for violation in orchestrator.validate_trace(trace):
                    problems.append(f"line {lineno}: {violation}")
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
    parser.add_argument("--log-level", help="override the configured log level")
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
    logging.basicConfig(
        level=getattr(logging, (args.log_level or cfg.log_level).upper(), logging.WARNING)
    )
    if args.command == "validate" and not (args.dataset or args.traces):
        print("error: validate needs --dataset or --traces", file=sys.stderr)
        return EXIT_USAGE
    if args.command == "build-dataset":
        needs_index = args.kind in ("long", "short-locator", "short-generator-facts")
        if needs_index and not args.index:
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
