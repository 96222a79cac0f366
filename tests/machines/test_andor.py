"""Tests for AND/OR graphs and their sequential-TD encoding."""

import pytest

from repro import Sublanguage, classify, parse_goal, select_engine
from repro.machines import AndOrGraph, andor_to_td, solve_andor


def diamond_graph():
    return AndOrGraph(
        kind={"root": "and", "l": "or", "r": "or", "sink": "or"},
        successors={
            "root": ("l", "r"),
            "l": ("ax",),
            "r": ("ax", "sink"),
            "sink": (),
        },
        axioms=frozenset({"ax"}),
    )


class TestNativeSolver:
    def test_axioms_solvable(self):
        assert "ax" in solve_andor(diamond_graph())

    def test_and_needs_all_children(self):
        # invalid successor detected at construction
        with pytest.raises(ValueError):
            AndOrGraph(kind={"n": "and"}, successors={"n": ("nowhere",)},
                       axioms=frozenset())
        g2 = AndOrGraph(
            kind={"n": "and", "dead": "or"},
            successors={"n": ("ax", "dead"), "dead": ()},
            axioms=frozenset({"ax"}),
        )
        assert "n" not in solve_andor(g2)

    def test_or_needs_one_child(self):
        solvable = solve_andor(diamond_graph())
        assert {"root", "l", "r", "ax"} <= solvable
        assert "sink" not in solvable

    def test_cyclic_graph_least_fixpoint(self):
        # a <-> b cycle with no axiom support: unsolvable (least, not
        # greatest, fixpoint)
        g = AndOrGraph(
            kind={"a": "or", "b": "or"},
            successors={"a": ("b",), "b": ("a",)},
            axioms=frozenset(),
        )
        assert solve_andor(g) == set()

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            AndOrGraph(kind={"n": "xor"}, successors={}, axioms=frozenset())


class TestTDEncoding:
    def test_encoding_agrees_with_native(self):
        g = diamond_graph()
        program, db = andor_to_td(g)
        engine = select_engine(program)
        solvable = solve_andor(g)
        for node in sorted(g.nodes()):
            goal = parse_goal("solve(%s)" % node)
            assert engine.succeeds(goal, db) == (node in solvable), node

    def test_encoding_is_query_only(self):
        program, _db = andor_to_td(diamond_graph())
        assert classify(program) in (
            Sublanguage.QUERY_ONLY,
            Sublanguage.FULLY_BOUNDED,
        )

    def test_random_layered_graphs_agree(self):
        from repro.complexity import grid_andor_graph

        for seed in range(3):
            g = grid_andor_graph(depth=3, fanout=2, seed=seed)
            program, db = andor_to_td(g)
            engine = select_engine(program)
            solvable = solve_andor(g)
            root = "n0_0"
            assert engine.succeeds(parse_goal("solve(%s)" % root), db) == (
                root in solvable
            )
