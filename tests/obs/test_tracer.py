"""Tracer: span nesting, deterministic ids, JSON-lines round trip."""

import itertools

from repro.obs.tracer import Tracer, read_jsonl


def fake_clock():
    counter = itertools.count()
    return lambda: float(next(counter))


class TestSpans:
    def test_sequential_ids_and_parents(self):
        t = Tracer(clock=fake_clock())
        with t.span("solve") as outer:
            with t.span("iso-subsearch") as inner:
                assert inner.parent_id == outer.span_id
        assert outer.span_id == "s1"
        assert inner.span_id == "s2"
        assert outer.parent_id is None

    def test_children_finish_before_parents(self):
        t = Tracer(clock=fake_clock())
        with t.span("solve"):
            with t.span("iso-subsearch"):
                pass
        assert [s.name for s in t.spans] == ["iso-subsearch", "solve"]

    def test_attrs_recorded(self):
        t = Tracer(clock=fake_clock())
        with t.span("solve", engine="datalog", goal="p(X)") as span:
            pass
        assert span.attrs == {"engine": "datalog", "goal": "p(X)"}

    def test_current_span_id_tracks_innermost(self):
        t = Tracer(clock=fake_clock())
        assert t.current_span_id is None
        with t.span("a") as a:
            assert t.current_span_id == a.span_id
            with t.span("b") as b:
                assert t.current_span_id == b.span_id
            assert t.current_span_id == a.span_id
        assert t.current_span_id is None

    def test_out_of_order_finish_is_tolerated(self):
        t = Tracer(clock=fake_clock())
        a = t.start("a")
        b = t.start("b")
        t.finish(a)  # abandoned-generator shape: outer closes first
        t.finish(b)
        assert {s.span_id for s in t.spans} == {a.span_id, b.span_id}
        assert t.current_span_id is None

    def test_max_depth(self):
        t = Tracer(clock=fake_clock())
        with t.span("a"):
            with t.span("b"):
                with t.span("c"):
                    pass
        with t.span("d"):
            pass
        assert t.max_depth == 3


class TestSerialization:
    def test_jsonl_round_trip(self, tmp_path):
        t = Tracer(clock=fake_clock())
        with t.span("solve", engine="interpreter"):
            with t.span("iso-subsearch"):
                pass
        path = tmp_path / "trace.jsonl"
        t.write_jsonl(str(path))
        rows = read_jsonl(path.read_text())
        assert len(rows) == 2
        by_name = {r["name"]: r for r in rows}
        assert by_name["iso-subsearch"]["parent_id"] == by_name["solve"]["span_id"]
        assert by_name["solve"]["attrs"] == {"engine": "interpreter"}
        for row in rows:
            assert row["end"] >= row["start"]
            assert row["duration"] == row["end"] - row["start"]

    def test_empty_tracer_writes_empty_file(self, tmp_path):
        t = Tracer(clock=fake_clock())
        path = tmp_path / "trace.jsonl"
        t.write_jsonl(str(path))
        assert read_jsonl(path.read_text()) == []
