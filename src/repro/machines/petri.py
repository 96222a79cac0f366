"""Safe (1-bounded) Petri nets and their embedding into TD.

The paper's related-work section contrasts TD with Petri-net workflow
formalisms; the embedding here makes the comparison executable.  A safe
net's marking is a *set* of marked places -- exactly a TD database state
over propositional facts -- and a transition is a TD rule that tests and
deletes the preset and inserts the postset.  Firing sequences become
sequential TD executions, so reachability questions route to the tabled
interpreter (decidable, as Petri-net reachability is), and the native
breadth-first explorer below serves as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Set, Tuple

from ..core.database import Database
from ..core.formulas import Call, Del, Formula, Ins, Neg, Test, seq
from ..core.program import Program, Rule
from ..core.terms import atom

__all__ = ["PetriNet", "petri_to_td"]

Marking = FrozenSet[str]


@dataclass
class PetriNet:
    """A safe Petri net: named places and transitions with pre/post sets.

    Safety (1-boundedness) is *assumed* of the input net and *checked*
    during exploration: firing a transition whose postset intersects the
    current marking outside its preset would create a second token, and
    :meth:`reachable` raises in that case.
    """

    places: FrozenSet[str]
    transitions: Dict[str, Tuple[FrozenSet[str], FrozenSet[str]]]
    initial: Marking

    def __post_init__(self):
        for name, (pre, post) in self.transitions.items():
            unknown = (pre | post) - self.places
            if unknown:
                raise ValueError(
                    "transition %s uses unknown places %s" % (name, sorted(unknown))
                )
        if not self.initial <= self.places:
            raise ValueError("initial marking uses unknown places")

    # -- native semantics -------------------------------------------------------

    def enabled(self, marking: Marking) -> List[str]:
        return [
            name
            for name, (pre, _post) in sorted(self.transitions.items())
            if pre <= marking
        ]

    def fire(self, marking: Marking, name: str) -> Marking:
        pre, post = self.transitions[name]
        if not pre <= marking:
            raise ValueError("transition %s is not enabled" % name)
        after = (marking - pre) | post
        overlap = (marking - pre) & post
        if overlap:
            raise ValueError(
                "net is not safe: firing %s would double-mark %s"
                % (name, sorted(overlap))
            )
        return frozenset(after)

    def reachable(self, max_markings: int = 1_000_000) -> Set[Marking]:
        """All markings reachable from the initial one (BFS)."""
        frontier = [self.initial]
        seen: Set[Marking] = {self.initial}
        while frontier:
            next_frontier = []
            for marking in frontier:
                for name in self.enabled(marking):
                    succ = self.fire(marking, name)
                    if succ not in seen:
                        if len(seen) >= max_markings:
                            raise MemoryError("too many reachable markings")
                        seen.add(succ)
                        next_frontier.append(succ)
            frontier = next_frontier
        return seen

    def can_reach(self, target: Marking) -> bool:
        return frozenset(target) in self.reachable()


def petri_to_td(net: PetriNet, target: Marking) -> Tuple[Program, Formula, Database]:
    """Embed *net* into sequential TD, asking whether *target* (an exact
    marking) is reachable.

    Each transition becomes a ``fire_t`` rule; ``run`` nondeterministically
    fires transitions (tail recursion) and commits when the database
    equals the target marking.  Returns (program, goal, initial db) with
    the goal committing iff the target marking is reachable -- routed to
    the tabled interpreter, this is a decision procedure.
    """
    rules: List[Rule] = []
    for name, (pre, post) in sorted(net.transitions.items()):
        parts: List[Formula] = []
        for p in sorted(pre):
            parts.append(Test(atom("m", p)))
        for p in sorted(pre):
            parts.append(Del(atom("m", p)))
        for p in sorted(post):
            parts.append(Ins(atom("m", p)))
        rules.append(Rule(atom("fire", name), seq(*parts)))

    # at_target: the current marking is exactly `target`.
    target_parts: List[Formula] = []
    for p in sorted(target):
        target_parts.append(Test(atom("m", p)))
    for p in sorted(net.places - set(target)):
        target_parts.append(Neg(atom("m", p)))
    rules.append(Rule(atom("at_target"), seq(*target_parts)))

    # run: commit at the target, or fire any transition and continue.
    rules.append(Rule(atom("run"), Call(atom("at_target"))))
    for name in sorted(net.transitions):
        rules.append(
            Rule(atom("run"), seq(Call(atom("fire", name)), Call(atom("run"))))
        )

    program = Program(rules)
    goal = Call(atom("run"))
    db = Database([atom("m", p) for p in sorted(net.initial)])
    return program, goal, db
