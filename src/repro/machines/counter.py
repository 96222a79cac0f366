"""Minsky counter machines.

Two-counter machines are the minimal Turing-complete model; their TD
encoding (``repro.machines.encodings.counter_to_td``) is the leanest
demonstration of the paper's RE-completeness construction: unbounded
counter values live purely in recursion depth while the database stays
constant-size, which is the crux of Theorem 4.1's "fixed domain, fixed
schema" claim.

Program format: a list of instructions indexed by position.

* ``Inc(counter, goto)`` -- increment ``counter`` (0 or 1), jump.
* ``Dec(counter, goto_nonzero, goto_zero)`` -- if the counter is positive
  decrement and jump to ``goto_nonzero``; otherwise jump to ``goto_zero``.
* ``Halt(accept=True)`` -- stop (accepting or rejecting).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

__all__ = ["Inc", "Dec", "Halt", "CounterMachine", "CounterProgramError"]


class CounterProgramError(ValueError):
    """Malformed counter program (bad counter index or jump target)."""


@dataclass(frozen=True)
class Inc:
    counter: int
    goto: int


@dataclass(frozen=True)
class Dec:
    counter: int
    goto_nonzero: int
    goto_zero: int


@dataclass(frozen=True)
class Halt:
    accept: bool = True


Instruction = Union[Inc, Dec, Halt]


@dataclass
class CounterMachine:
    """A two-counter (Minsky) machine."""

    program: Tuple[Instruction, ...]

    def __post_init__(self):
        n = len(self.program)
        for pc, instr in enumerate(self.program):
            if isinstance(instr, Inc):
                targets = [instr.goto]
                counters = [instr.counter]
            elif isinstance(instr, Dec):
                targets = [instr.goto_nonzero, instr.goto_zero]
                counters = [instr.counter]
            elif isinstance(instr, Halt):
                continue
            else:
                raise CounterProgramError("unknown instruction %r" % (instr,))
            for c in counters:
                if c not in (0, 1):
                    raise CounterProgramError(
                        "instruction %d uses counter %d (only 0/1 exist)"
                        % (pc, c)
                    )
            for t in targets:
                if not 0 <= t < n:
                    raise CounterProgramError(
                        "instruction %d jumps to %d (program length %d)"
                        % (pc, t, n)
                    )

    def run(
        self, c0: int = 0, c1: int = 0, max_steps: int = 1_000_000
    ) -> Tuple[bool, int, int, int]:
        """Execute; returns (accepted, final c0, final c1, steps taken).

        Raises :class:`TimeoutError` if the bound is exhausted (counter
        machine halting is undecidable; the bound is the only honest
        escape hatch).
        """
        counters = [c0, c1]
        pc = 0
        for steps in range(max_steps):
            instr = self.program[pc]
            if isinstance(instr, Halt):
                return instr.accept, counters[0], counters[1], steps
            if isinstance(instr, Inc):
                counters[instr.counter] += 1
                pc = instr.goto
            else:
                if counters[instr.counter] > 0:
                    counters[instr.counter] -= 1
                    pc = instr.goto_nonzero
                else:
                    pc = instr.goto_zero
        raise TimeoutError("counter machine ran for %d steps" % max_steps)

    def accepts(self, c0: int = 0, c1: int = 0, max_steps: int = 1_000_000) -> bool:
        accepted, _, _, _ = self.run(c0, c1, max_steps)
        return accepted


# ---------------------------------------------------------------------------
# A small library of counter programs (used by tests and benchmarks)
# ---------------------------------------------------------------------------


def transfer_program() -> CounterMachine:
    """Move the contents of counter 0 onto counter 1, then accept."""
    return CounterMachine((
        Dec(0, 1, 2),   # 0: if c0>0 dec, goto 1 else goto 2
        Inc(1, 0),      # 1: c1++, back to 0
        Halt(True),     # 2: done
    ))


def double_program() -> CounterMachine:
    """c1 := 2 * c0 (destroys c0), then accept."""
    return CounterMachine((
        Dec(0, 1, 3),   # 0: while c0 > 0
        Inc(1, 2),      # 1:   c1++
        Inc(1, 0),      # 2:   c1++ again
        Halt(True),     # 3: done
    ))


def parity_program() -> CounterMachine:
    """Accept iff c0 is even (repeatedly subtract 2)."""
    return CounterMachine((
        Dec(0, 1, 2),   # 0: first unit of a pair (or zero -> accept)
        Dec(0, 0, 3),   # 1: second unit (or odd -> reject)
        Halt(True),     # 2: even
        Halt(False),    # 3: odd
    ))


def collatz_program() -> CounterMachine:
    """A busy loop: compute c1 := c0 + c0 repeatedly a fixed number of
    times is not expressible without more counters; instead this program
    simply counts c0 down by 1 while counting c1 up by 3 -- a linear-time
    workload whose TD simulation length scales with the input, used by
    the RE benchmark to show runtime growing while the database stays
    constant-size."""
    return CounterMachine((
        Dec(0, 1, 4),   # 0: while c0 > 0
        Inc(1, 2),      # 1:   c1 += 3
        Inc(1, 3),      # 2:
        Inc(1, 0),      # 3:
        Halt(True),     # 4: done
    ))
