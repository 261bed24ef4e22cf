"""The benchmark's three workloads, their output checks and their metrics.

Every workload times only calls into factrail's public functions. Untraced
runs (``trace=False``) measure for ``seconds`` and give the end-to-end
metrics; traced runs do a fixed amount of work untraced and then traced, and
give the per-layer metrics, so their call counts repeat exactly.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import re
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path

from factrail import backends, cli, corpus, dataset, orchestrator
from factrail.backends import prompt_text as _prompt_text

import gen
from canned import CannedBackend, Recorder
from oracle import ExhaustiveBM25, ranking_problem, unique_terms
from speed import Speedometer, scale_by_mean
from tracing import SpanIndex, Tracer, median, quantile

# (name, unit, better, bound): the metrics every untraced run reports.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("items_per_s", "items/s", "higher", 0.25),
    ("latency_ms", "ms", "lower", 0.25),
]

# (name, unit, better): the metrics every traced run reports; 0 where the
# workload does not run the layer's operation.
PER_LAYER = [
    ("corpus.read_documents.s", "s", "lower"),
    ("corpus.chunk_document.s", "s", "lower"),
    ("corpus.build_index.s", "s", "lower"),
    ("corpus.save_index.s", "s", "lower"),
    ("corpus.load_index.self_s", "s", "lower"),
    ("corpus.index_file_bytes", "bytes", "lower"),
    ("corpus.retrieve.calls", "count", "lower"),
    ("corpus.retrieve.p50_us", "us", "lower"),
    ("corpus.retrieve.p90_us", "us", "lower"),
    ("corpus.retrieve_multi.self_us", "us", "lower"),
    ("corpus.retrieve.ns_per_candidate_posting", "ns/posting", "lower"),
    ("corpus.retrieve.candidate_postings", "postings/query", "lower"),
    ("corpus.retrieve.share", "ratio", "lower"),
    ("grammar.serialize_steps.calls_per_trace", "calls/trace", "lower"),
    ("grammar.serialize_steps.us_per_trace", "us/trace", "lower"),
    ("grammar.parse_bodies.us_per_trace", "us/trace", "lower"),
    ("grammar.retrieval_body.calls_per_trace", "calls/trace", "lower"),
    ("grammar.parse_trajectory.calls", "count", "lower"),
    ("grammar.parse_trajectory.us_per_call", "us", "lower"),
    ("backends.generate.calls_per_trace", "calls/trace", "lower"),
    ("backends.generate.us_per_call", "us", "lower"),
    ("backends.prompt_bytes_per_trace", "bytes/trace", "lower"),
    ("backends.load_script.s", "s", "lower"),
    ("backends.generate.failed", "count", "lower"),
    ("orchestrator.run_inference.self_us_p50", "us", "lower"),
    ("orchestrator.build_step_prompt.calls_per_trace", "calls/trace", "lower"),
    ("orchestrator.validate_trace.us_per_trace", "us/trace", "lower"),
    ("orchestrator.run_batch.parallel_efficiency", "ratio", "higher"),
    ("orchestrator.write_traces.s", "s", "lower"),
    ("orchestrator.trace_file_bytes", "bytes", "lower"),
    ("orchestrator.read_traces.s", "s", "lower"),
    ("orchestrator.flags_per_trace", "flags/trace", "lower"),
    ("dataset.build_long_example.self_us", "us", "lower"),
    ("dataset.judge_passage.calls", "count", "lower"),
    ("dataset.emit_dataset.s", "s", "lower"),
    ("dataset.check_example_dict.us_per_record", "us/record", "lower"),
    ("evaluation.read_eval_examples.s", "s", "lower"),
    ("evaluation.rouge_l.calls", "count", "lower"),
    ("evaluation.rouge_l.us_per_call", "us", "lower"),
    ("evaluation.evaluate.self_s", "s", "lower"),
    ("cli.build_dataset.self_s", "s", "lower"),
    ("cli.infer.self_s", "s", "lower"),
    ("cli.validate.self_s", "s", "lower"),
    ("cli.eval.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

# Untraced runs repeat their operations in rounds until --seconds have passed,
# timing each raw and speed-scaled (speed.py).
SETUP_REPS = 3  # set-ups per untraced run, before rounds 1-3; setup_s is their median
MIN_ROUNDS = 3
SPEED_CHUNK = 10  # answer-zipf: instructions between two speed readings
ORACLE_INSTRUCTIONS = 20  # instructions whose intents the BM25 oracle checks
ORACLE_K = 10

RUN_INFERENCE = "orchestrator.run_inference"

# Public functions the traced run wraps, by module.
TRACED = {
    "factrail.corpus": [
        "read_documents", "chunk_document", "build_index", "save_index",
        "load_index", "index_documents", "retrieve", "retrieve_multi",
    ],
    "factrail.grammar": [
        "serialize_steps", "serialize_trajectory", "parse_trajectory", "parse_intents",
        "parse_locator_body", "parse_citations", "retrieval_body", "render_retrieval_block",
    ],
    "factrail.backends": ["prompt_text", "fingerprint", "load_script", "save_script"],
    "factrail.orchestrator": [
        "run_inference", "run_batch", "build_step_prompt", "validate_trace",
        "write_traces", "read_traces", "trace_to_dict", "trace_from_dict",
    ],
    "factrail.dataset": [
        "build_long_example", "emit_dataset", "check_example_dict", "read_raw_examples",
    ],
    "factrail.evaluation": [
        "read_eval_examples", "rouge_l", "str_em", "citation_precision", "evaluate",
    ],
}
_CLI_COMMANDS = ("index", "build-dataset", "infer", "validate", "eval")
_WROTE_TRACES = re.compile(r"wrote (\d+) traces \((\d+) failures\)")


@dataclass(frozen=True)
class Run:
    seed: int
    seconds: float
    trace: bool
    work: Path
    nproc: int


@dataclass
class Outcome:
    """What one run measured and found.

    metrics and named map a name to (value, unit, samples, raw): value is
    the speed-scaled figure (see speed.py), raw the figure as timed, or
    None where the metric is not a time.
    """

    metrics: dict[str, tuple[float, str, int, float | None]] = field(default_factory=dict)
    named: dict[str, tuple[float, str, int, float | None]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    tracer: Tracer | None = None
    speed_readings: list[float] = field(default_factory=list)
    samples: dict = field(default_factory=dict)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def digest(self, name: str, value: str) -> None:
        """Keep the first digest under name; a later different one is a problem."""
        first = self.digests.setdefault(name, value)
        self.check(first == value, f"{name} digest changed between passes of one run")


# ---------------------------------------------------------------------------
# helpers


def call_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Measured:
    """Set-up times and per-round operation times, as (raw, scaled) seconds."""

    state: object = None
    setups: list[tuple[float, float]] = field(default_factory=list)
    rounds: int = 0
    samples: list[list[tuple[float, float]]] = field(default_factory=list)
    readings: list[float] = field(default_factory=list)

    def medians(self) -> list[tuple[float, float]]:
        """Per operation, the median over rounds of its raw and its scaled time.

        For short operations, which the readings around them describe.
        """
        return [(median([r for r, _ in op]), median([s for _, s in op])) for op in zip(*self.samples)]

    def run_scaled_means(self) -> list[tuple[float, float]]:
        """Per operation, its mean raw time over rounds, and that scaled by the run's mean reading.

        For operations of a second or so, which outlast the speed the
        readings around them show; over a run they sample the same drift.
        """
        means = [sum(r for r, _ in op) / len(op) for op in zip(*self.samples)]
        return [(raw, scale_by_mean(raw, self.readings)) for raw in means]


def measure(run: Run, out: Outcome, setup, timed_round) -> Measured:
    """Set up, then time rounds of the workload's operations.

    A traced run sets up once and times nothing. An untraced run sets up
    afresh before each of its first SETUP_REPS rounds, so the set-ups are
    spread over the run, and goes on until MIN_ROUNDS and run.seconds are
    both done. timed_round(state, meter) returns (raw, scaled) seconds per
    operation; Measured.medians or run_scaled_means turn them into figures.
    """
    meter = Speedometer()
    m = Measured()
    deadline = time.perf_counter() + run.seconds
    while True:
        if len(m.setups) < SETUP_REPS:
            m.state = None
            gc.collect()
            m.state, raw, scaled = meter.timed(setup)
            m.setups.append((raw, scaled))
        if run.trace:
            break
        gc.collect()
        times = timed_round(m.state, meter)
        m.samples.append(times)
        m.rounds += 1
        if m.rounds >= MIN_ROUNDS and time.perf_counter() >= deadline:
            break
    m.readings = out.speed_readings = meter.readings
    out.samples = {"setups": m.setups, "rounds": m.samples}
    return m


def put_common(
    out: Outcome, m: Measured, items: float, throughput_op: tuple, latency_op: tuple, samples: int
) -> None:
    """The end-to-end metrics: items over the (raw, scaled) time throughput_op, latency_op."""
    raw_setup = median([raw for raw, _ in m.setups])
    out.metrics["setup_s"] = (median([scaled for _, scaled in m.setups]), "s", len(m.setups), raw_setup)
    out.metrics["peak_rss_mb"] = (peak_rss_mb(), "MB", 1, None)
    raw, scaled = throughput_op
    out.metrics["items_per_s"] = (items / scaled, "items/s", samples, items / raw)
    raw, scaled = latency_op
    out.metrics["latency_ms"] = (scaled * 1e3, "ms", samples, raw * 1e3)


def check_retrieval(out: Outcome, index, queries: list[str], bm: ExhaustiveBM25) -> None:
    for query in queries:
        problem = ranking_problem(bm.rank(query, ORACLE_K), corpus.retrieve(index, query, ORACLE_K).ranked)
        out.check(problem is None, f"retrieve({query!r}): {problem}")


def sorted_passages(index) -> list:
    return [index.passages[pid] for pid in sorted(index.passages)]


# ---------------------------------------------------------------------------
# tracing


def _cli_span(argv=None, *_args, **_kwargs) -> str:
    command = next((a for a in argv or () if a in _CLI_COMMANDS), "unknown")
    return "cli." + command.replace("-", "_")


def _note_query(tracer, args, kwargs, _result) -> None:
    tracer.notes["retrieve.query"].append(args[1] if len(args) > 1 else kwargs["query"])


def _note_prompt(tracer, args, _kwargs, _result) -> None:
    tracer.add("prompt_bytes", len(_prompt_text(args[1]).encode("utf-8")))


def _note_flags(tracer, _args, _kwargs, result) -> None:
    tracer.add("flags", len(result.flags))


def _note_workers(tracer, _args, kwargs, _result) -> None:
    tracer.counters["workers"] = kwargs.get("max_workers", 4)


_OBSERVERS = {
    "retrieve": _note_query,
    "run_inference": _note_flags,
    "run_batch": _note_workers,
}


def traced(fn, *args):
    """Call fn with factrail's public functions wrapped; return (result, tracer)."""
    tracer = Tracer(item_names=frozenset({RUN_INFERENCE, "dataset.build_long_example"}))
    for module, names in TRACED.items():
        for name in names:
            tracer.patch_function(module, name, observe=_OBSERVERS.get(name))
    tracer.patch_function("factrail.cli", "main", name=_cli_span)
    tracer.patch_method(backends.ScriptedBackend, "generate", "backends.generate", _note_prompt)
    tracer.patch_method(CannedBackend, "generate", "backends.generate", _note_prompt)
    tracer.patch_method(dataset.RuleBasedCritic, "judge_passage", "dataset.judge_passage")
    tracer.patch_method(dataset.RuleBasedCritic, "propose_intents", "dataset.propose_intents")
    try:
        result = fn(*args)
    finally:
        tracer.uninstall()
    return result, tracer


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def layer_metrics(
    tracer: Tracer,
    overhead_ratio: float,
    doc_freq=None,
    index_file: Path | None = None,
    trace_file: Path | None = None,
) -> dict[str, tuple[float, str, int]]:
    """Derive every PER_LAYER metric from a finished trace."""
    ix = SpanIndex(tracer.spans)
    traces = ix.count(RUN_INFERENCE)

    def per_trace(value: float) -> float:
        return value / traces if traces else 0.0

    def us(spans) -> list[float]:
        return [s.duration * 1e6 for s in spans]

    def self_us(name: str) -> list[float]:
        return [ix.self_time[s.id] * 1e6 for s in ix.calls(name)]

    retrieve_us = us(ix.calls("corpus.retrieve"))
    queries = tracer.notes["retrieve.query"]
    postings = [sum(doc_freq(t) for t in unique_terms(q)) for q in queries] if doc_freq else []
    parse_bodies = sum(
        ix.total(f"grammar.{name}", RUN_INFERENCE)
        for name in ("parse_intents", "parse_locator_body", "parse_citations")
    )
    efficiency = []
    for batch in ix.calls("orchestrator.run_batch"):
        busy = sum(s.duration for s in ix.calls(RUN_INFERENCE) if s.parent == batch.id)
        efficiency.append(busy / (batch.duration * tracer.counters["workers"]))
    rouge_us = us(ix.calls("evaluation.rouge_l"))
    parse_trajectory_us = us(ix.calls("grammar.parse_trajectory"))
    generate_us = us(ix.calls("backends.generate"))

    def size(path: Path | None) -> int:
        return path.stat().st_size if path is not None and path.exists() else 0

    def cli_self(command: str):
        return (ix.self_total(f"cli.{command}"), ix.count(f"cli.{command}"))

    values = {
        "corpus.read_documents.s": (ix.total("corpus.read_documents"), ix.count("corpus.read_documents")),
        "corpus.chunk_document.s": (ix.total("corpus.chunk_document"), ix.count("corpus.chunk_document")),
        "corpus.build_index.s": (ix.total("corpus.build_index"), ix.count("corpus.build_index")),
        "corpus.save_index.s": (ix.total("corpus.save_index"), ix.count("corpus.save_index")),
        "corpus.load_index.self_s": (ix.self_total("corpus.load_index"), ix.count("corpus.load_index")),
        "corpus.index_file_bytes": (size(index_file), 1),
        "corpus.retrieve.calls": (len(retrieve_us), 1),
        "corpus.retrieve.p50_us": (quantile(retrieve_us, 0.5), len(retrieve_us)),
        "corpus.retrieve.p90_us": (quantile(retrieve_us, 0.9), len(retrieve_us)),
        "corpus.retrieve_multi.self_us": (median(self_us("corpus.retrieve_multi")), ix.count("corpus.retrieve_multi")),
        "corpus.retrieve.ns_per_candidate_posting": (
            sum(retrieve_us) * 1e3 / sum(postings) if sum(postings) else 0.0,
            len(postings),
        ),
        "corpus.retrieve.candidate_postings": (_mean(postings), len(postings)),
        "corpus.retrieve.share": (
            ix.total("corpus.retrieve", RUN_INFERENCE) / ix.total(RUN_INFERENCE) if traces else 0.0,
            traces,
        ),
        "grammar.serialize_steps.calls_per_trace": (
            per_trace(ix.count("grammar.serialize_steps", RUN_INFERENCE)), traces),
        "grammar.serialize_steps.us_per_trace": (
            per_trace(ix.total("grammar.serialize_steps", RUN_INFERENCE) * 1e6), traces),
        "grammar.parse_bodies.us_per_trace": (per_trace(parse_bodies * 1e6), traces),
        "grammar.retrieval_body.calls_per_trace": (
            per_trace(ix.count("grammar.retrieval_body", RUN_INFERENCE)), traces),
        "grammar.parse_trajectory.calls": (len(parse_trajectory_us), 1),
        "grammar.parse_trajectory.us_per_call": (_mean(parse_trajectory_us), len(parse_trajectory_us)),
        "backends.generate.calls_per_trace": (
            per_trace(ix.count("backends.generate", RUN_INFERENCE)), traces),
        "backends.generate.us_per_call": (_mean(generate_us), len(generate_us)),
        "backends.prompt_bytes_per_trace": (per_trace(tracer.counters["prompt_bytes"]), traces),
        "backends.load_script.s": (ix.total("backends.load_script"), ix.count("backends.load_script")),
        "backends.generate.failed": (ix.failed("backends.generate"), len(generate_us)),
        "orchestrator.run_inference.self_us_p50": (median(self_us(RUN_INFERENCE)), traces),
        "orchestrator.build_step_prompt.calls_per_trace": (
            per_trace(ix.count("orchestrator.build_step_prompt", RUN_INFERENCE)), traces),
        "orchestrator.validate_trace.us_per_trace": (
            _mean(us(ix.calls("orchestrator.validate_trace"))), ix.count("orchestrator.validate_trace")),
        "orchestrator.run_batch.parallel_efficiency": (_mean(efficiency), len(efficiency)),
        "orchestrator.write_traces.s": (ix.total("orchestrator.write_traces"), ix.count("orchestrator.write_traces")),
        "orchestrator.trace_file_bytes": (size(trace_file), 1),
        "orchestrator.read_traces.s": (ix.total("orchestrator.read_traces"), ix.count("orchestrator.read_traces")),
        "orchestrator.flags_per_trace": (per_trace(tracer.counters["flags"]), traces),
        "dataset.build_long_example.self_us": (
            median(self_us("dataset.build_long_example")), ix.count("dataset.build_long_example")),
        "dataset.judge_passage.calls": (ix.count("dataset.judge_passage"), 1),
        "dataset.emit_dataset.s": (ix.total("dataset.emit_dataset"), ix.count("dataset.emit_dataset")),
        "dataset.check_example_dict.us_per_record": (
            _mean(us(ix.calls("dataset.check_example_dict"))), ix.count("dataset.check_example_dict")),
        "evaluation.read_eval_examples.s": (
            ix.total("evaluation.read_eval_examples"), ix.count("evaluation.read_eval_examples")),
        "evaluation.rouge_l.calls": (len(rouge_us), 1),
        "evaluation.rouge_l.us_per_call": (_mean(rouge_us), len(rouge_us)),
        "evaluation.evaluate.self_s": (ix.self_total("evaluation.evaluate"), ix.count("evaluation.evaluate")),
        "cli.build_dataset.self_s": cli_self("build_dataset"),
        "cli.infer.self_s": cli_self("infer"),
        "cli.validate.self_s": cli_self("validate"),
        "cli.eval.self_s": cli_self("eval"),
        "trace.overhead_ratio": (overhead_ratio, 1),
    }
    return {name: (float(values[name][0]), unit, values[name][1], None) for name, unit, _ in PER_LAYER}


def traced_twice(out: Outcome, fn, *args):
    """Run fn untraced twice, then traced; return (traced result, tracer, overhead ratio).

    The first run warms the process up; the ratio compares the speed-scaled
    wall times (speed.py) of the other two.
    """
    meter = Speedometer()
    fn(*args)
    gc.collect()
    _, _, plain = meter.timed(fn, *args)
    gc.collect()
    (result, tracer), _, with_tracing = meter.timed(traced, fn, *args)
    out.tracer = tracer
    out.speed_readings = meter.readings
    return result, tracer, with_tracing / plain


# ---------------------------------------------------------------------------
# ingest-zipf: the corpus write path, then load_index


def ingest_zipf(run: Run) -> Outcome:
    shape = gen.SHAPES["ingest-zipf"]
    corpus_path, index_path = run.work / "corpus.jsonl", run.work / "index.json"
    argv = ["index", "--corpus", str(corpus_path), "--out", str(index_path)]
    n_docs = shape["docs"]
    out = Outcome()

    def setup():
        docs = gen.documents(run.seed, n_docs)
        gen.write_corpus(corpus_path, docs)
        return docs

    def check_cycle(code: int, text: str) -> None:
        out.attempted += 2
        out.failed += code != 0
        out.check(code == 0 and text.startswith(f"indexed {n_docs} documents"), f"index: {text!r}")
        out.digest("index_file", sha256_file(index_path))

    def cycle():
        code, text = call_cli(argv)
        index = corpus.load_index(index_path)
        check_cycle(code, text)
        return index

    kept = []

    def timed_round(_docs, meter):
        kept.clear()
        (code, text), *index_times = meter.timed(call_cli, argv)
        index, *load_times = meter.timed(corpus.load_index, index_path)
        kept.append(index)
        check_cycle(code, text)
        return [tuple(index_times), tuple(load_times)]

    m = measure(run, out, setup, timed_round)
    docs = m.state
    if run.trace:
        index, tracer, overhead = traced_twice(out, cycle)
    else:
        index = kept[0]
        index_s, load_s = m.run_scaled_means()
        put_common(out, m, n_docs, index_s, load_s, m.rounds)
        out.named["index_docs_per_s"] = (n_docs / index_s[1], "docs/s", m.rounds, n_docs / index_s[0])
        out.named["load_index_s"] = (load_s[1], "s", m.rounds, load_s[0])

    # Checks: chunking matches the generator's own split, retrieval the oracle.
    expected = []
    for title, body in docs:
        words = body.split()
        for begin in range(0, len(words), corpus.CHUNK_WORDS):
            piece = words[begin : begin + corpus.CHUNK_WORDS]
            expected.append((len(expected), title, " ".join(piece), len(piece)))
    passages = sorted_passages(index)
    out.check(
        [(p.id, p.title, p.text, p.word_count) for p in passages] == expected,
        "loaded passages differ from the generator's 100-word chunks",
    )
    _instructions, plans = gen.answer_instructions(run.seed, docs, ORACLE_INSTRUCTIONS)
    queries = [q for plan in plans.values() for q in plan.intents]
    bm = ExhaustiveBM25(passages, queries)
    check_retrieval(out, index, queries, bm)
    if run.trace:
        out.metrics = layer_metrics(tracer, overhead, index_file=index_path)
    return out


# ---------------------------------------------------------------------------
# answer-zipf: closed-loop run_inference over head-term intents


def answer_zipf(run: Run) -> Outcome:
    shape = gen.SHAPES["answer-zipf"]
    out = Outcome()

    def setup():
        docs = gen.documents(run.seed, shape["docs"])
        index = corpus.index_documents(docs)
        instructions, plans = gen.answer_instructions(run.seed, docs, shape["instructions"])
        return index, instructions, CannedBackend(plans), plans

    traces: list = []

    def answer(state, instruction: str):
        index, _instructions, backend, _plans = state
        out.attempted += 1
        try:
            return orchestrator.run_inference(instruction, index, backend)
        except orchestrator.PipelineError as exc:
            out.failed += 1
            out.problems.append(f"run_inference({instruction!r}): {exc}")
            return None

    def answer_all(state) -> list:
        return [answer(state, instruction) for instruction in state[1]]

    def timed_round(state, meter):
        instructions = state[1]
        times = []
        before = meter.read()
        for start in range(0, len(instructions), SPEED_CHUNK):
            raws = []
            for instruction in instructions[start : start + SPEED_CHUNK]:
                begin = time.perf_counter()
                trace = answer(state, instruction)
                raws.append(time.perf_counter() - begin)
                if len(traces) < len(instructions):
                    traces.append(trace)
            after = meter.read()
            times += [(raw, meter.scale(raw, before, after)) for raw in raws]
            before = after
        return times

    m = measure(run, out, setup, timed_round)
    index, instructions, _backend, plans = m.state
    if run.trace:
        traces, tracer, overhead = traced_twice(out, answer_all, m.state)
    else:
        medians = m.medians()
        n = len(medians)
        raw, scaled = [t[0] for t in medians], [t[1] for t in medians]
        put_common(out, m, n, (sum(raw), sum(scaled)), (quantile(raw, 0.5), quantile(scaled, 0.5)), n)
        out.named["answer_latency_p50_ms"] = (quantile(scaled, 0.5) * 1e3, "ms", n, quantile(raw, 0.5) * 1e3)
        out.named["answer_latency_p90_ms"] = (quantile(scaled, 0.9) * 1e3, "ms", n, quantile(raw, 0.9) * 1e3)
        out.named["answer_qps"] = (n / sum(scaled), "instructions/s", n, n / sum(raw))

    for trace in traces:
        if trace is not None:
            out.check(not trace.flags and trace.passages, f"trace for {trace.instruction!r}: flags {trace.flags}")
    digest = hashlib.sha256()
    for trace in traces:
        record = orchestrator.trace_to_dict(trace) if trace is not None else None
        digest.update(json.dumps(record, sort_keys=True).encode("utf-8") + b"\n")
    out.digest("traces", digest.hexdigest())

    checked = [q for i in instructions[:ORACLE_INSTRUCTIONS] for q in plans[i].intents]
    traced_queries = out.tracer.notes["retrieve.query"] if run.trace else []
    bm = ExhaustiveBM25(sorted_passages(index), checked + traced_queries)
    check_retrieval(out, index, checked, bm)
    if run.trace:
        out.metrics = layer_metrics(tracer, overhead, doc_freq=bm.doc_freq)
    return out


# ---------------------------------------------------------------------------
# chain-small: build-dataset, infer, validate, eval through cli.main


def chain_small(run: Run) -> Outcome:
    shape = gen.SHAPES["chain-small"]
    n = shape["instructions"]
    paths = {
        name: run.work / file
        for name, file in [
            ("corpus", "corpus.jsonl"), ("index", "index.json"), ("raw", "raw.jsonl"),
            ("instructions", "instructions.jsonl"), ("refs", "refs.jsonl"),
            ("script", "script.jsonl"), ("config", "config.json"), ("dataset", "dataset.jsonl"),
            ("traces", "traces.jsonl"), ("eval", "eval.json"),
        ]
    }
    p = {name: str(path) for name, path in paths.items()}
    commands = {
        "build-dataset": ["build-dataset", "--kind", "long", "--in", p["raw"],
                          "--index", p["index"], "--out", p["dataset"]],
        "infer": ["--config", p["config"], "infer", "--backend", "scripted",
                  "--index", p["index"], "--in", p["instructions"], "--out", p["traces"]],
        "validate": ["validate", "--traces", p["traces"], "--dataset", p["dataset"]],
        "eval": ["eval", "--traces", p["traces"], "--refs", p["refs"], "--task", "asqa",
                 "--out", p["eval"]],
    }
    out = Outcome()

    def setup():
        docs = gen.documents(run.seed, shape["docs"])
        inputs = gen.chain_inputs(run.seed, docs, n)
        gen.write_corpus(paths["corpus"], docs)
        gen.write_jsonl(paths["raw"], inputs.raw)
        gen.write_jsonl(paths["refs"], inputs.refs)
        gen.write_jsonl(paths["instructions"], ({"instruction": i} for i in inputs.instructions))
        code, text = call_cli(["index", "--corpus", p["corpus"], "--out", p["index"]])
        out.check(code == 0, f"index: {text!r}")
        index = corpus.load_index(paths["index"])
        recorder = Recorder(CannedBackend(inputs.plans))
        config = orchestrator.InferenceConfig(max_passages=shape["max_passages"])
        for instruction in inputs.instructions:
            orchestrator.run_inference(instruction, index, recorder, config)
        recorder.save(paths["script"])
        paths["config"].write_text(json.dumps({
            "concurrency": run.nproc,
            "inference": {"max_passages": shape["max_passages"]},
            "script": p["script"],
        }))
        return inputs

    def chain_pass() -> dict[str, tuple[int, str]]:
        return {name: call_cli(argv) for name, argv in commands.items()}

    def check_pass(inputs, results: dict[str, tuple[int, str]]) -> None:
        out.attempted += n
        for name, (code, text) in results.items():
            out.check(code == 0, f"{name} exited {code}: {text[-200:]!r}")
        wrote = _WROTE_TRACES.search(results["infer"][1])
        completed = all(code == 0 for code, _ in results.values()) and wrote and int(wrote[1]) == n
        out.failed += int(wrote[2]) if completed else n
        validate_text = results["validate"][1]
        out.check(validate_text.strip() == "clean", f"validate: {validate_text[:200]!r}")
        report = json.loads(paths["eval"].read_text(encoding="utf-8"))
        got = dict(report["metrics"], precision_mean=report["citations"]["precision_mean"])
        for key, want in inputs.expected_eval.items():
            out.check(abs(got[key] - want) <= 1e-9, f"eval {key} = {got[key]!r}, generator predicts {want!r}")
        out.check(report["citations"]["errors"] == 0, "eval counted trace errors")
        out.digest("traces", sha256_file(paths["traces"]))
        out.digest("dataset", sha256_file(paths["dataset"]))

    def timed_round(inputs, meter):
        results, times = {}, []
        for name, argv in commands.items():
            results[name], raw, scaled = meter.timed(call_cli, argv)
            times.append((raw, scaled))
        check_pass(inputs, results)
        return times

    m = measure(run, out, setup, timed_round)
    if run.trace:
        results, tracer, overhead = traced_twice(out, chain_pass)
        check_pass(m.state, results)
        bm = ExhaustiveBM25(sorted_passages(corpus.load_index(paths["index"])), tracer.notes["retrieve.query"])
        out.metrics = layer_metrics(
            tracer, overhead, doc_freq=bm.doc_freq, index_file=paths["index"], trace_file=paths["traces"]
        )
        return out

    typical = dict(zip(commands, m.run_scaled_means()))
    chain = (sum(raw for raw, _ in typical.values()), sum(scaled for _, scaled in typical.values()))
    put_common(out, m, n, chain, typical["infer"], m.rounds)
    for metric, command, per_item, unit in [
        ("build_dataset_examples_per_s", "build-dataset", 1, "examples/s"),
        ("infer_items_per_s", "infer", 1, "instructions/s"),
        ("validate_records_per_s", "validate", 2, "records/s"),
        ("eval_items_per_s", "eval", 1, "items/s"),
    ]:
        raw, scaled = typical[command]
        out.named[metric] = (n * per_item / scaled, unit, m.rounds, n * per_item / raw)
    return out


WORKLOADS = {
    "ingest-zipf": ingest_zipf,
    "answer-zipf": answer_zipf,
    "chain-small": chain_small,
}
