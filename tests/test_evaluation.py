"""Metric oracles and report assembly."""

import json
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factrail.backends import ScriptedBackend
from factrail.corpus import index_documents
from factrail.evaluation import (
    EvalExample,
    _lcs_length,
    SchemaMismatchError,
    UnknownTaskError,
    citation_precision,
    evaluate,
    match_accuracy,
    normalize_answer,
    read_eval_examples,
    rouge_l,
    str_em,
)
from factrail.grammar import (
    CitationList,
    LocatorJudgment,
    Relevance,
    StepKind,
    Trajectory,
    TrajectoryStep,
    format_judgment,
)
from factrail.orchestrator import InferenceConfig, PipelineError, InferenceTrace, run_inference

from helpers import judge_by_answer, script_scenario, with_section


def fact_trace(judgments, citations, answer="a"):
    """Minimal trace whose locator and generator sections hold just what
    citation scoring reads."""
    steps = []
    if judgments:
        body = "\n".join(format_judgment(j) for j in judgments)
        steps.append(TrajectoryStep(StepKind.LOCATOR, body))
    cited = CitationList(tuple(citations)).render()
    steps.append(TrajectoryStep(StepKind.GENERATOR, f"{answer}\n{cited}" if cited else answer))
    trace = InferenceTrace(instruction="q", trajectory=Trajectory(tuple(steps)), passage_meta=())
    assert trace.judgments == tuple(judgments)
    assert (trace.answer, trace.citations.indices) == (answer, tuple(citations))
    return trace


# ---------------------------------------------------------------------------
# normalization


def test_normalize_answer_examples():
    assert normalize_answer("The Quick, Brown fox!") == "quick brown fox"
    assert normalize_answer("A  an THE") == ""
    assert normalize_answer("it's well-known") == "its wellknown"
    assert normalize_answer("  spaced\tout\nwords ") == "spaced out words"


def test_normalize_answer_is_idempotent():
    rng = random.Random(5)
    alphabet = "abcThe !?.,'-\n\t"
    for _ in range(200):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 40)))
        once = normalize_answer(text)
        assert normalize_answer(once) == once


# ---------------------------------------------------------------------------
# accuracy metrics


def test_match_accuracy_substring_semantics():
    assert match_accuracy("The answer is Paris.", ["paris"]) == 1
    assert match_accuracy("paris", ["The Paris"]) == 1
    assert match_accuracy("london", ["paris"]) == 0
    assert match_accuracy("identical", ["identical"]) == 1
    with pytest.raises(ValueError):
        match_accuracy("x", [])


def test_str_em_fraction_of_sets():
    sets = [["Rome", "Roma"], ["Italy"], ["Tiber"]]
    assert str_em("Rome sits in Italy", sets) == pytest.approx(2 / 3)
    assert str_em("nothing relevant", sets) == 0.0
    assert str_em("Rome Italy Tiber", sets) == 1.0
    with pytest.raises(ValueError):
        str_em("x", [])


# ---------------------------------------------------------------------------
# rouge


def oracle_rouge(prediction, references):
    def tokens(text):
        return normalize_answer(text).split()

    pred = tokens(prediction)
    best = 0.0
    for reference in references:
        ref = tokens(reference)
        if not pred or not ref:
            continue
        table = [[0] * (len(ref) + 1) for _ in range(len(pred) + 1)]
        for i in range(1, len(pred) + 1):
            for j in range(1, len(ref) + 1):
                if pred[i - 1] == ref[j - 1]:
                    table[i][j] = table[i - 1][j - 1] + 1
                else:
                    table[i][j] = max(table[i - 1][j], table[i][j - 1])
        lcs = table[-1][-1]
        if lcs:
            precision = lcs / len(pred)
            recall = lcs / len(ref)
            best = max(best, 2 * precision * recall / (precision + recall))
    return best


def test_rouge_boundaries():
    assert rouge_l("same words here", ["same words here"]) == 1.0
    assert rouge_l("alpha beta", ["gamma delta"]) == 0.0
    assert rouge_l("", ["anything"]) == 0.0
    assert rouge_l("anything", [""]) == 0.0
    assert rouge_l("anything", []) == 0.0


def test_rouge_hand_computed():
    got = rouge_l("the cat sat on the mat", ["the cat lay on the mat"])
    assert got == pytest.approx(0.75)


def test_rouge_takes_best_reference():
    refs = ["completely different words", "the exact prediction text"]
    assert rouge_l("the exact prediction text", refs) == 1.0


def test_rouge_matches_oracle_on_random_pairs():
    rng = random.Random(17)
    vocab = ["cat", "dog", "sat", "ran", "mat", "the", "a", "fast", "slow"]
    for _ in range(150):
        pred = " ".join(rng.choice(vocab) for _ in range(rng.randint(0, 12)))
        refs = [
            " ".join(rng.choice(vocab) for _ in range(rng.randint(0, 12)))
            for _ in range(rng.randint(1, 3))
        ]
        assert rouge_l(pred, refs) == pytest.approx(oracle_rouge(pred, refs), abs=1e-9)


def reference_lcs_length(a, b):
    """The textbook O(n*m) dynamic programme."""
    previous = [0] * (len(b) + 1)
    for token in a:
        current = [0]
        for j, other in enumerate(b, start=1):
            if token == other:
                current.append(previous[j - 1] + 1)
            else:
                current.append(max(previous[j], current[j - 1]))
        previous = current
    return previous[-1]


# Small alphabets make long common subsequences; lengths up to 300 make the
# bit vector span many of CPython's 30-bit digits, so carries cross them.
@settings(max_examples=150, deadline=None)
@given(st.data())
def test_lcs_length_matches_the_textbook_table(data):
    alphabet = st.sampled_from(data.draw(st.sampled_from(["a", "ab", "abc", "abcdef"])))
    a, b = (
        data.draw(st.lists(alphabet, min_size=n, max_size=n))
        for n in data.draw(st.tuples(st.integers(0, 300), st.integers(0, 300)))
    )
    assert _lcs_length(a, b) == reference_lcs_length(a, b)


def test_lcs_length_across_digit_boundaries():
    rng = random.Random(5)
    for length in (29, 30, 31, 59, 60, 61, 299, 300):
        a = [rng.choice("ab") for _ in range(length)]
        b = [rng.choice("ab") for _ in range(length)]
        assert _lcs_length(a, b) == reference_lcs_length(a, b)
        assert _lcs_length(a, a) == length
        assert _lcs_length(["c"] * length, b) == 0


# ---------------------------------------------------------------------------
# citation precision


def test_citation_precision_vacuous_cases():
    no_relevant = fact_trace([LocatorJudgment(1, Relevance.IRRELEVANT, None)], [])
    assert citation_precision(no_relevant, ["gold"]) == 1.0
    uncited_relevant = fact_trace([LocatorJudgment(1, Relevance.RELEVANT, "gold fact")], [])
    assert citation_precision(uncited_relevant, ["gold"]) == 0.0


def test_citation_precision_counts_supporting_facts():
    trace = fact_trace(
        [
            LocatorJudgment(1, Relevance.RELEVANT, "the gold answer appears here"),
            LocatorJudgment(2, Relevance.RELEVANT, "nothing relevant in this one"),
        ],
        [1, 2],
    )
    assert citation_precision(trace, ["gold answer"]) == 0.5
    assert citation_precision(trace, ["missing"]) == 0.0


def test_citation_precision_ignores_unsupported_citations():
    trace = fact_trace([LocatorJudgment(1, Relevance.RELEVANT, "has the gold")], [1, 3])
    assert citation_precision(trace, ["gold"]) == 0.5


# ---------------------------------------------------------------------------
# reference records


def test_eval_example_validation():
    with pytest.raises(UnknownTaskError):
        EvalExample("q", ("a",), "mystery")
    with pytest.raises(ValueError):
        EvalExample("q", (), "popqa")
    with pytest.raises(ValueError):
        EvalExample("q", ("a",), "popqa", long_form_refs=("ref",))
    with pytest.raises(ValueError):
        EvalExample("q", ("a",), "asqa")


@pytest.mark.parametrize("answer_sets", [None, ()])
def test_an_asqa_example_without_answer_sets_scores_each_gold_as_a_set(answer_sets):
    example = EvalExample(
        "what does the moon orbit?", ("the earth", "luna"), "asqa",
        long_form_refs=("the moon orbits the earth",), answer_sets=answer_sets,
    )
    assert example.answer_sets == (("the earth",), ("luna",))
    report = evaluate(moon_results(), [example, replace(example, question="unanswered")], "asqa")
    assert [row["str_em"] for row in report.rows] == [0.5, 0.0]
    assert report.rows[1]["error"] == "locator: boom"


@pytest.mark.parametrize("answer_sets", [((), ("a",)), (("a",), ())])
def test_an_empty_answer_set_is_refused(answer_sets):
    with pytest.raises(ValueError, match="every answer set must be non-empty"):
        EvalExample("q", ("a",), "asqa", long_form_refs=("r",), answer_sets=answer_sets)


def test_read_eval_examples_names_the_line_of_an_empty_answer_set(tmp_path):
    good = {"task": "asqa", "question": "q", "gold_answers": ["a"], "long_form_refs": ["r"]}
    path = tmp_path / "refs.jsonl"
    rows = [good, dict(good, gold_answer_sets=[[], ["a"]])]
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    with pytest.raises(
        SchemaMismatchError, match="^bad reference on line 2: every answer set must be non-empty$"
    ):
        read_eval_examples(path)


def test_read_eval_examples(tmp_path):
    rows = [
        {"task": "popqa", "question": "q1", "gold_answers": ["a1", "a2"]},
        {
            "task": "asqa",
            "question": "q2",
            "gold_answers": ["x", "y"],
            "gold_answer_sets": [["x", "x2"], ["y"]],
            "long_form_refs": ["a long reference answer"],
        },
        {
            "task": "asqa",
            "question": "q3",
            "gold_answers": ["p", "q"],
            "long_form_refs": ["another"],
        },
    ]
    path = tmp_path / "refs.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    examples = read_eval_examples(path)
    assert examples[0].answer_sets is None
    assert examples[1].answer_sets == (("x", "x2"), ("y",))
    assert examples[2].answer_sets == (("p",), ("q",))
    assert examples[2].long_form_refs == ("another",)


def test_read_eval_examples_reports_bad_line(tmp_path):
    path = tmp_path / "refs.jsonl"
    path.write_text('{"task": "popqa", "question": "q"}\n')
    with pytest.raises(SchemaMismatchError, match="line 1"):
        read_eval_examples(path)


# ---------------------------------------------------------------------------
# end-to-end scoring


DOCS = [
    ("Moon", "the moon orbits the earth every month"),
    ("Sun", "the sun is a star at the center of the system"),
    ("Tides", "ocean tides follow the moon closely"),
]


def moon_results():
    index = index_documents(DOCS)
    cfg = InferenceConfig()
    backend = ScriptedBackend()
    script_scenario(
        backend, index, cfg, "what does the moon orbit?",
        "Search(moon orbit; ocean tides)",
        judge_by_answer("earth"), "the earth\n[Cite]: [1]",
    )
    trace = run_inference("what does the moon orbit?", index, backend, cfg)
    return [trace, PipelineError("locator", "boom")]


def popqa_examples():
    return [
        EvalExample("what does the moon orbit?", ("the earth",), "popqa"),
        EvalExample("unanswered", ("jupiter",), "popqa"),
    ]


def test_evaluate_popqa_accuracy_and_errors():
    report = evaluate(moon_results(), popqa_examples(), "popqa")
    assert report.n == 2
    assert report.metrics == {"acc": 0.5}
    assert report.citations["traces_scored"] == 1.0
    assert report.citations["errors"] == 1.0
    assert report.citations["precision_mean"] == 1.0
    assert report.rows[0]["prediction"] == "the earth"
    assert report.rows[1]["prediction"] == ""
    assert "error" in report.rows[1]


def test_evaluate_does_not_score_an_answer_without_a_generator_section():
    trace = fact_trace([], [], answer="mars")
    headless = replace(
        trace, trajectory=Trajectory((TrajectoryStep(StepKind.RECONSTRUCTOR, "Search(mars)"),))
    )
    examples = [EvalExample("q", ("mars",), "popqa")] * 2
    report = evaluate([trace, headless], examples, "popqa")
    assert [row["acc"] for row in report.rows] == [1, 0]
    assert report.rows[1]["error"] == "generator_missing: no generator section"


def test_evaluate_scores_the_answer_of_an_edited_generator_section():
    # The answer is the parse of the generator section, so a trace whose
    # section was edited scores the edited answer.
    trace = moon_results()[0]
    edited = with_section(trace, StepKind.GENERATOR, "the sun")
    assert (edited.answer, edited.citations) == ("the sun", CitationList())
    examples = [EvalExample("what does the moon orbit?", ("the sun",), "popqa")]
    report = evaluate([edited], examples, "popqa")
    assert report.metrics == {"acc": 1.0}
    assert report.rows[0]["prediction"] == "the sun"


def test_evaluate_asqa_uses_sets_and_rouge():
    results = moon_results()[:1]
    examples = [
        EvalExample(
            "what does the moon orbit?",
            ("the earth",),
            "asqa",
            long_form_refs=("the moon orbits the earth",),
            answer_sets=(("the earth",), ("luna",)),
        )
    ]
    report = evaluate(results, examples, "asqa")
    assert set(report.metrics) == {"str_em", "rouge_l"}
    assert report.metrics["str_em"] == 0.5
    assert report.metrics["rouge_l"] == pytest.approx(
        oracle_rouge("the earth", ["the moon orbits the earth"])
    )


def test_evaluate_schema_mismatches():
    results = moon_results()
    with pytest.raises(SchemaMismatchError):
        evaluate(results, popqa_examples()[:1], "popqa")
    with pytest.raises(SchemaMismatchError):
        evaluate(results, popqa_examples(), "squad")
    with pytest.raises(UnknownTaskError):
        evaluate(results, popqa_examples(), "mystery")


def test_report_table_and_dict():
    report = evaluate(moon_results(), popqa_examples(), "popqa")
    table = report.format_table()
    assert table.startswith("task=popqa n=2")
    assert "Acc=0.5000" in table
    assert "CitePrec=1.0000" in table
    payload = report.to_dict()
    assert payload["task"] == "popqa"
    assert list(payload["metrics"]) == sorted(payload["metrics"])
