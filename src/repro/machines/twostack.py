"""Two-stack machines.

A two-stack machine is a finite control with two pushdown stacks; it is
Turing-complete, which is exactly why the paper uses it (Corollary 4.6):
encoding one in TD needs only *three* concurrent processes -- one per
stack, one for the control.

Transition format: ``(state, top1, top2) -> [(state', gamma1, gamma2)]``
where ``topi`` is the popped top of stack *i* (the bottom marker ``$`` is
read but never removed) and ``gammai`` is the string pushed back, leftmost
symbol ending on top.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Tuple

__all__ = ["TwoStackMachine", "TwoStackConfig", "BOTTOM"]

BOTTOM = "$"


@dataclass(frozen=True)
class TwoStackConfig:
    """State plus both stacks (tuples, top last)."""

    state: str
    stack1: Tuple[str, ...]
    stack2: Tuple[str, ...]


@dataclass
class TwoStackMachine:
    states: FrozenSet[str]
    alphabet: FrozenSet[str]
    transitions: Dict[
        Tuple[str, str, str], List[Tuple[str, Tuple[str, ...], Tuple[str, ...]]]
    ]
    start: str
    accepting: FrozenSet[str]

    def __post_init__(self):
        if BOTTOM in self.alphabet:
            raise ValueError("the bottom marker %r is reserved" % BOTTOM)
        for (q, a1, a2), outs in self.transitions.items():
            for sym in (a1, a2):
                if sym != BOTTOM and sym not in self.alphabet:
                    raise ValueError("unknown stack symbol %r" % sym)
            for q2, g1, g2 in outs:
                if q2 not in self.states:
                    raise ValueError("unknown target state %r" % q2)
                for g in (g1, g2):
                    for sym in g:
                        if sym not in self.alphabet:
                            raise ValueError("cannot push %r" % sym)

    # -- execution -------------------------------------------------------------

    def initial_config(self, stack2_word: Sequence[str] = ()) -> TwoStackConfig:
        """Start state; input loaded on stack 2 (first symbol on top)."""
        return TwoStackConfig(self.start, (), tuple(reversed(list(stack2_word))))

    @staticmethod
    def _top(stack: Tuple[str, ...]) -> str:
        return stack[-1] if stack else BOTTOM

    def step(self, config: TwoStackConfig) -> List[TwoStackConfig]:
        a1 = self._top(config.stack1)
        a2 = self._top(config.stack2)
        outs = self.transitions.get((config.state, a1, a2), [])
        result = []
        for q2, gamma1, gamma2 in outs:
            s1 = config.stack1 if a1 == BOTTOM else config.stack1[:-1]
            s2 = config.stack2 if a2 == BOTTOM else config.stack2[:-1]
            # gamma is pushed rightmost-first so its leftmost symbol ends
            # on top.
            s1 = s1 + tuple(reversed(gamma1))
            s2 = s2 + tuple(reversed(gamma2))
            result.append(TwoStackConfig(q2, s1, s2))
        return result

    def accepts(
        self, stack2_word: Sequence[str] = (), max_steps: int = 100_000
    ) -> bool:
        """Breadth-first acceptance with a step bound (RE question)."""
        frontier = [self.initial_config(stack2_word)]
        seen = set(frontier)
        steps = 0
        while frontier:
            next_frontier = []
            for config in frontier:
                if config.state in self.accepting:
                    return True
                for succ in self.step(config):
                    steps += 1
                    if steps > max_steps:
                        raise TimeoutError(
                            "two-stack machine did not halt within %d steps"
                            % max_steps
                        )
                    if succ not in seen:
                        seen.add(succ)
                        next_frontier.append(succ)
            frontier = next_frontier
        return False

    def run_trace(
        self, stack2_word: Sequence[str] = (), max_steps: int = 10_000
    ) -> List[TwoStackConfig]:
        """Deterministic run (first applicable transition each step)."""
        config = self.initial_config(stack2_word)
        trace = [config]
        for _ in range(max_steps):
            if config.state in self.accepting:
                return trace
            succs = self.step(config)
            if not succs:
                return trace
            config = succs[0]
            trace.append(config)
        raise TimeoutError("no halt within %d steps" % max_steps)
