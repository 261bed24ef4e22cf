"""Deterministic toolkit for retrieval-grounded answer pipelines.

The pieces: a token grammar for staged trajectories (grammar), chunked BM25
passage retrieval (corpus), scripted and HTTP generation backends
(backends), the staged pipeline driver (orchestrator), training-example
construction with loss masks (dataset), and metrics (evaluation). The
``factrail`` command wires them together.
"""

from .grammar import (
    CitationList,
    IntentSet,
    LocatorJudgment,
    Relevance,
    StepKind,
    TokenKind,
    Trajectory,
    TrajectoryStep,
    parse_citations,
    parse_intents,
    parse_locator_body,
    parse_trajectory,
    render_retrieval_block,
    serialize_trajectory,
)
from .corpus import (
    CorpusIndex,
    Passage,
    build_index,
    chunk_document,
    load_index,
    retrieve,
    retrieve_multi,
    save_index,
)
from .backends import (
    AgentReply,
    AgentRequest,
    BackendConfig,
    HttpBackend,
    ScriptedBackend,
)
from .orchestrator import (
    InferenceConfig,
    InferenceTrace,
    iter_batch,
    run_batch,
    run_inference,
    validate_trace,
)
from .dataset import (
    RawExample,
    RuleBasedCritic,
    TaskTag,
    TrainingExample,
    build_example,
    build_long_example,
    emit_dataset,
)
from .evaluation import (
    EvalExample,
    citation_precision,
    evaluate,
    match_accuracy,
    normalize_answer,
    rouge_l,
    str_em,
)

__version__ = "0.1.0"
