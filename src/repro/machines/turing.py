"""Single-tape Turing machines and the compilation to two-stack machines.

The native simulator is the ground truth for experiment C1/C3: a Turing
machine run here must accept exactly when its two-stack compilation
accepts, and exactly when the TD encoding of that two-stack machine
commits under the full-TD interpreter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Tuple

__all__ = ["TuringMachine", "TMConfig", "tm_to_two_stack"]

BLANK = "_"
LEFT = "L"
RIGHT = "R"


@dataclass(frozen=True)
class TMConfig:
    """An instantaneous description: state, tape, head position."""

    state: str
    tape: Tuple[str, ...]
    head: int

    def render(self) -> str:
        cells = list(self.tape)
        cells.insert(self.head, "[%s]" % self.state)
        return "".join(cells)


@dataclass
class TuringMachine:
    """A deterministic (or nondeterministic) single-tape Turing machine.

    ``transitions`` maps ``(state, symbol)`` to a list of
    ``(new_state, written_symbol, direction)`` triples; a single entry
    means deterministic.  The blank symbol is ``"_"``.
    """

    states: FrozenSet[str]
    input_alphabet: FrozenSet[str]
    tape_alphabet: FrozenSet[str]
    transitions: Dict[Tuple[str, str], List[Tuple[str, str, str]]]
    start: str
    accepting: FrozenSet[str]

    def __post_init__(self):
        if BLANK not in self.tape_alphabet:
            raise ValueError("tape alphabet must contain the blank %r" % BLANK)
        for (q, a), outs in self.transitions.items():
            if q not in self.states:
                raise ValueError("transition from unknown state %r" % q)
            if a not in self.tape_alphabet:
                raise ValueError("transition on unknown symbol %r" % a)
            for q2, b, d in outs:
                if q2 not in self.states or b not in self.tape_alphabet:
                    raise ValueError("bad transition target (%r, %r)" % (q2, b))
                if d not in (LEFT, RIGHT):
                    raise ValueError("direction must be L or R, got %r" % d)

    # -- execution -------------------------------------------------------------

    def initial_config(self, word: Sequence[str]) -> TMConfig:
        tape = tuple(word) if word else (BLANK,)
        for a in tape:
            if a not in self.tape_alphabet:
                raise ValueError("input symbol %r not in tape alphabet" % a)
        return TMConfig(self.start, tape, 0)

    def step(self, config: TMConfig) -> List[TMConfig]:
        """All successor configurations (empty list = halted)."""
        tape = list(config.tape)
        symbol = tape[config.head]
        outs = self.transitions.get((config.state, symbol), [])
        result = []
        for q2, b, d in outs:
            new_tape = list(tape)
            new_tape[config.head] = b
            head = config.head + (1 if d == RIGHT else -1)
            if head < 0:
                new_tape.insert(0, BLANK)
                head = 0
            elif head >= len(new_tape):
                new_tape.append(BLANK)
            result.append(TMConfig(q2, tuple(new_tape), head))
        return result

    def accepts(self, word: Sequence[str], max_steps: int = 100_000) -> bool:
        """Breadth-first acceptance check with a step bound.

        Raises :class:`TimeoutError` when the bound is exhausted without
        a verdict -- the honest outcome for an RE-complete question.
        """
        frontier = [self.initial_config(word)]
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
                            "Turing machine did not halt within %d steps"
                            % max_steps
                        )
                    if succ not in seen:
                        seen.add(succ)
                        next_frontier.append(succ)
            frontier = next_frontier
        return False

    def run_trace(
        self, word: Sequence[str], max_steps: int = 10_000
    ) -> List[TMConfig]:
        """The deterministic run (first applicable transition each step)."""
        config = self.initial_config(word)
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


# ---------------------------------------------------------------------------
# Compilation to two-stack machines
# ---------------------------------------------------------------------------


def tm_to_two_stack(tm: TuringMachine) -> "TwoStackMachine":
    """Compile a Turing machine to an equivalent two-stack machine.

    Standard simulation: stack 1 holds the tape left of the head (top =
    cell immediately left), stack 2 holds the head cell and everything to
    its right (top = head cell).  The bottom marker reads as a blank.

    Every two-stack transition inspects both tops, so each TM transition
    ``(q, a) -> (q', b, d)`` expands over all possible left tops ``x``.
    """
    from .twostack import BOTTOM, TwoStackMachine

    alphabet = sorted(tm.tape_alphabet)
    transitions: Dict[Tuple[str, str, str], List[Tuple[str, Tuple[str, ...], Tuple[str, ...]]]] = {}

    def add(q, x, a, q2, gamma1, gamma2):
        transitions.setdefault((q, x, a), []).append((q2, tuple(gamma1), tuple(gamma2)))

    for (q, a), outs in tm.transitions.items():
        for q2, b, d in outs:
            for x in alphabet + [BOTTOM]:
                # Reading: stack1 top x is popped (unless BOTTOM), stack2
                # top is the head symbol.  a == BLANK also matches an
                # empty right stack (reading beyond the right end).
                right_tops = [a] + ([BOTTOM] if a == BLANK else [])
                for a2 in right_tops:
                    if d == RIGHT:
                        # b moves onto the left stack; head becomes the
                        # next right cell.  Restore x beneath b.
                        gamma1 = (b,) if x == BOTTOM else (b, x)
                        gamma2 = ()
                    else:
                        # Head moves onto x (or a blank if left empty);
                        # b sits to its right on stack 2.
                        head_sym = BLANK if x == BOTTOM else x
                        gamma1 = ()
                        gamma2 = (head_sym, b)
                    add(q, x, a2, q2, gamma1, gamma2)

    return TwoStackMachine(
        states=frozenset(tm.states),
        alphabet=frozenset(tm.tape_alphabet),
        transitions=transitions,
        start=tm.start,
        accepting=frozenset(tm.accepting),
    )
