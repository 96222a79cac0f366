"""Property-based cross-validation of machines and their TD encodings."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro import Interpreter
from repro.machines import (
    CounterMachine,
    Dec,
    Halt,
    Inc,
    PetriNet,
    counter_to_td,
    petri_to_td,
    solve_andor,
    andor_to_td,
)


# -- random *halting* counter machines ---------------------------------------
#
# Arbitrary counter programs may diverge (that is the point of RE), so we
# generate a shape that always halts: straight-line programs whose jumps
# only go forward, terminated by a Halt.


@st.composite
def forward_counter_machines(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    instrs = []
    for pc in range(n):
        kind = draw(st.sampled_from(["inc", "dec"]))
        counter = draw(st.integers(min_value=0, max_value=1))
        if kind == "inc":
            goto = draw(st.integers(min_value=pc + 1, max_value=n))
            instrs.append(Inc(counter, goto))
        else:
            g1 = draw(st.integers(min_value=pc + 1, max_value=n))
            g2 = draw(st.integers(min_value=pc + 1, max_value=n))
            instrs.append(Dec(counter, g1, g2))
    instrs.append(Halt(accept=draw(st.booleans())))
    return CounterMachine(tuple(instrs))


class TestCounterEncodingProperties:
    @settings(max_examples=15, deadline=None)
    @given(forward_counter_machines(), st.integers(min_value=0, max_value=2))
    def test_td_encoding_agrees_with_machine(self, machine, c0):
        program, goal, db = counter_to_td(machine, c0=c0)
        interp = Interpreter(program, max_configs=2_000_000)
        assert interp.succeeds(goal, db) == machine.accepts(c0=c0)


# -- random safe Petri nets ------------------------------------------------------


@st.composite
def safe_nets(draw):
    n_places = draw(st.integers(min_value=2, max_value=4))
    places = ["p%d" % i for i in range(n_places)]
    n_trans = draw(st.integers(min_value=1, max_value=3))
    transitions = {}
    for t in range(n_trans):
        pre = frozenset(draw(st.lists(st.sampled_from(places), min_size=1,
                                      max_size=2, unique=True)))
        post_pool = [p for p in places if p not in pre]
        if not post_pool:
            post = frozenset()
        else:
            post = frozenset(draw(st.lists(st.sampled_from(post_pool),
                                           min_size=0, max_size=2, unique=True)))
        transitions["t%d" % t] = (pre, post)
    initial = frozenset(draw(st.lists(st.sampled_from(places), min_size=1,
                                      max_size=2, unique=True)))
    return PetriNet(places=frozenset(places), transitions=transitions,
                    initial=initial)


class TestPetriEncodingProperties:
    @settings(max_examples=15, deadline=None)
    @given(safe_nets(), st.data())
    def test_td_reachability_agrees_with_native(self, net, data):
        try:
            reachable = net.reachable()
        except ValueError:
            return  # generated net turned out unsafe; out of scope
        # pick a target: half the time a reachable marking, half random
        targets = sorted(reachable, key=sorted)
        pick_reachable = data.draw(st.booleans())
        if pick_reachable:
            target = data.draw(st.sampled_from(targets))
        else:
            target = frozenset(
                data.draw(st.lists(st.sampled_from(sorted(net.places)),
                                   max_size=2, unique=True))
            )
        program, goal, db = petri_to_td(net, target)
        interp = Interpreter(program, max_configs=500_000)
        assert interp.succeeds(goal, db) == (frozenset(target) in reachable)


# -- random AND/OR graphs ----------------------------------------------------------


@st.composite
def andor_graphs(draw):
    from repro.machines import AndOrGraph

    n = draw(st.integers(min_value=1, max_value=5))
    nodes = ["n%d" % i for i in range(n)]
    axioms = frozenset(
        draw(st.lists(st.sampled_from(["ax0", "ax1"]), min_size=1, max_size=2,
                      unique=True))
    )
    kind = {}
    successors = {}
    pool = nodes + sorted(axioms)
    for i, node in enumerate(nodes):
        kind[node] = draw(st.sampled_from(["and", "or"]))
        # edges go to later nodes or axioms (DAG) -- keeps examples readable
        later = nodes[i + 1 :] + sorted(axioms)
        successors[node] = tuple(
            draw(st.lists(st.sampled_from(later), min_size=0, max_size=3))
        )
    return AndOrGraph(kind=kind, successors=successors, axioms=axioms)


class TestAndOrProperties:
    @settings(max_examples=20, deadline=None)
    @given(andor_graphs())
    def test_td_encoding_agrees_with_fixpoint(self, graph):
        from repro import parse_goal, select_engine

        program, db = andor_to_td(graph)
        engine = select_engine(program)
        solvable = solve_andor(graph)
        for node in sorted(graph.nodes()):
            goal = parse_goal("solve(%s)" % node)
            assert engine.succeeds(goal, db) == (node in solvable)
