"""Metrics registry: counters, gauges, histograms, merge, snapshot."""

from repro.obs.metrics import RESERVOIR_CAP, HistogramSummary, Metrics


class TestCounters:
    def test_inc_creates_and_accumulates(self):
        m = Metrics()
        assert m.counter("x") == 0
        m.inc("x")
        m.inc("x", 4)
        assert m.counter("x") == 5

    def test_counters_independent(self):
        m = Metrics()
        m.inc("a")
        m.inc("b", 2)
        assert (m.counter("a"), m.counter("b")) == (1, 2)


class TestGauges:
    def test_gauge_max_is_high_water_mark(self):
        m = Metrics()
        m.gauge_max("frontier", 3)
        m.gauge_max("frontier", 7)
        m.gauge_max("frontier", 5)
        assert m.gauge("frontier") == 7

    def test_set_gauge_overwrites(self):
        m = Metrics()
        m.set_gauge("limit", 100)
        m.set_gauge("limit", 50)
        assert m.gauge("limit") == 50


class TestHistograms:
    def test_observe_summarizes(self):
        m = Metrics()
        for v in (1.0, 3.0, 2.0):
            m.observe("answers", v)
        h = m.histograms["answers"]
        assert h.count == 3
        assert h.total == 6.0
        assert h.min == 1.0
        assert h.max == 3.0
        assert h.mean == 2.0

    def test_percentiles_exact_under_cap(self):
        h = HistogramSummary()
        for v in range(1, 101):  # 1..100
            h.observe(float(v))
        assert h.percentile(50) == 50.0
        assert h.percentile(95) == 95.0
        assert h.percentile(0) == 1.0
        assert h.percentile(100) == 100.0

    def test_percentiles_in_as_dict(self):
        h = HistogramSummary()
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        d = h.as_dict()
        assert d["p50"] == 2.0
        assert d["p95"] == 4.0

    def test_empty_percentile_is_zero(self):
        assert HistogramSummary().percentile(50) == 0.0

    def test_reservoir_bounded_and_deterministic(self):
        a, b = HistogramSummary(), HistogramSummary()
        for v in range(10 * RESERVOIR_CAP):
            a.observe(float(v))
            b.observe(float(v))
        assert len(a._samples) <= RESERVOIR_CAP
        assert a._samples == b._samples
        assert a.percentile(50) == b.percentile(50)
        # Decimation keeps the estimate near the true median.
        true_median = (10 * RESERVOIR_CAP - 1) / 2.0
        assert abs(a.percentile(50) - true_median) / true_median < 0.05

    def test_merge_combines_reservoirs(self):
        a, b = HistogramSummary(), HistogramSummary()
        for v in (1.0, 2.0):
            a.observe(v)
        for v in (100.0, 200.0):
            b.observe(v)
        ma, mb = Metrics(), Metrics()
        ma.histograms["h"] = a
        mb.histograms["h"] = b
        ma.merge(mb)
        merged = ma.histograms["h"]
        assert merged.count == 4
        assert merged.percentile(100) == 200.0
        assert len(merged._samples) == 4


class TestSnapshotAndMerge:
    def test_snapshot_excludes_timers_on_request(self):
        m = Metrics()
        m.inc("c")
        m.add_time("t", 1.5)
        snap = m.snapshot(include_timers=False)
        assert "timers" not in snap
        assert snap["counters"] == {"c": 1}

    def test_snapshot_is_a_copy(self):
        m = Metrics()
        m.inc("c")
        snap = m.snapshot()
        snap["counters"]["c"] = 99
        assert m.counter("c") == 1

    def test_merge_adds_counters_maxes_gauges(self):
        a, b = Metrics(), Metrics()
        a.inc("c", 2)
        b.inc("c", 3)
        a.gauge_max("g", 10)
        b.gauge_max("g", 4)
        b.set_info("engine", "datalog")
        b.observe("h", 2.0)
        a.observe("h", 5.0)
        a.merge(b)
        assert a.counter("c") == 5
        assert a.gauge("g") == 10
        assert a.info["engine"] == "datalog"
        assert a.histograms["h"].count == 2
        assert a.histograms["h"].max == 5.0

    def test_reset_clears_everything(self):
        m = Metrics()
        m.inc("c")
        m.set_gauge("g", 1)
        m.set_info("i", "v")
        m.add_time("t", 0.1)
        m.reset()
        assert m.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
            "info": {},
            "timers": {},
        }


class TestTimers:
    def test_timer_accumulates(self):
        m = Metrics()
        with m.timer("t"):
            pass
        with m.timer("t"):
            pass
        assert m.timers["t"] >= 0.0
        # Two timed blocks accumulate into one entry.
        assert len(m.timers) == 1
