"""Deterministic toolkit for retrieval-grounded answer pipelines.

The pieces: a token grammar for staged trajectories (grammar), chunked BM25
passage retrieval (corpus), scripted and HTTP generation backends
(backends), the staged pipeline driver (orchestrator), training-example
construction with loss masks (dataset), and metrics (evaluation). The
``factrail`` command wires them together.
"""

__version__ = "0.1.0"
