"""Benchmark-local backends: a canned backend that replies by head, and a
recorder that turns one pass of it into a replay script.

The canned backend costs next to nothing, so a run measures factrail's own
work. Its replies never trip a flag: passage 1 is judged Relevant and the
answer cites only ``[1]``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping

from factrail.backends import AgentReply, AgentRequest, fingerprint, prompt_text, save_script
from factrail.grammar import TokenKind

from gen import Plan

_INSTRUCTION_END = TokenKind.INSTRUCTION_END.value + "\n"
_RETRIEVAL_HEAD = TokenKind.RETRIEVAL_HEAD.value + "\n"
_RETRIEVAL_END = "\n" + TokenKind.RETRIEVAL_END.value


class CannedBackend:
    """Replies from each instruction's plan, chosen by the requested head."""

    def __init__(self, plans: Mapping[str, Plan]) -> None:
        self._plans = plans

    def generate(self, request: AgentRequest) -> AgentReply:
        plan = self._plans[request.instruction[: -len(_INSTRUCTION_END)]]
        if request.head is TokenKind.RECONSTRUCTOR_HEAD:
            body = "Search(" + "; ".join(plan.intents) + ")"
        elif request.head is TokenKind.LOCATOR_HEAD:
            prior = request.prior_trajectory
            start = prior.index(_RETRIEVAL_HEAD) + len(_RETRIEVAL_HEAD)
            listed = prior.count("\n", start, prior.index(_RETRIEVAL_END, start)) + 1
            lines = [f"[Relevant]: [1] {plan.fact}"]
            lines += [f"[Irrelevant]: [{i}] Lacking Supporting Facts." for i in range(2, listed + 1)]
            body = "\n".join(lines)
        else:
            body = plan.answer + "\n[Cite]: [1]"
        return AgentReply(body, request.stop[0])


class Recorder:
    """Passes requests through and keeps each reply under its prompt fingerprint."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self.script: dict[str, str] = {}

    def generate(self, request: AgentRequest) -> AgentReply:
        reply = self._inner.generate(request)
        self.script[fingerprint(prompt_text(request))] = reply.body
        return reply

    def save(self, path: str | Path) -> None:
        save_script(self.script, path)
