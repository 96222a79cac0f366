"""Experiment E3: workflow simulation throughput (Example 3.2 at scale).

Paper artifact: the dynamic instance-creation scheme of Example 3.2 --
one concurrent workflow instance per work item -- driving the genome-lab
production line.  The paper's motivation is throughput ("database
performance became a bottleneck in workflow throughput"); here we
measure the simulator's cost per sample as batches grow, with and
without the environment process feeding items at runtime.
"""

import pytest

from repro.complexity import estimate_growth, measure, print_series
from repro.lims import build_lab_simulator, sample_batch


def test_batch_throughput_scales(benchmark, bench_instrumentation):
    """The growth verdict is on counted work: the configurations the
    simulator expands per batch, read from the instrumentation every
    benchmark runs under.  The seconds are printed as context."""
    metrics = bench_instrumentation.metrics
    rows = []
    sizes = []
    expanded = []
    for n in (5, 10, 20, 40):
        sim = build_lab_simulator()
        before = metrics.counter("search.configs_expanded")
        res, seconds = measure(lambda: sim.run(sample_batch(n)))
        configs = metrics.counter("search.configs_expanded") - before
        assert len(res.completed("analyze")) == n
        rows.append([n, configs, seconds, seconds / n])
        sizes.append(n)
        expanded.append(configs)
    print_series(
        "E3: lab pipeline throughput (batch mode)",
        ["samples", "configs expanded", "seconds", "sec/sample"],
        rows,
    )
    assert estimate_growth(sizes, expanded) == "polynomial"

    sim = build_lab_simulator()
    benchmark.pedantic(lambda: sim.run(sample_batch(10)), rounds=3, iterations=1)


def test_environment_mode_throughput(benchmark):
    """Example 3.2's closing remark: the environment is just another
    process, feeding items while instances already run."""
    rows = []
    for n in (5, 10, 20):
        sim = build_lab_simulator()
        res, seconds = measure(
            lambda: sim.run([], pending=sample_batch(n), environment=True)
        )
        assert len(res.completed("analyze")) == n
        rows.append([n, seconds])
    print_series(
        "E3: lab pipeline throughput (environment feeding)",
        ["samples", "seconds"],
        rows,
    )
    sim = build_lab_simulator()
    benchmark.pedantic(
        lambda: sim.run([], pending=sample_batch(10), environment=True),
        rounds=3,
        iterations=1,
    )


def test_production_network_throughput(benchmark):
    """The full two-line network (mapping feeding sequencing per sample,
    Example 3.4 at production scale): cost per sample through both
    lines."""
    from repro.lims import build_network_simulator

    rows = []
    for n in (2, 5, 10):
        sim = build_network_simulator()
        res, seconds = measure(lambda: sim.run(sample_batch(n)))
        assert len(res.completed("seq_qc")) == n
        rows.append([n, seconds, seconds / n])
    print_series(
        "E3: mapping+sequencing network throughput",
        ["samples", "seconds", "sec/sample"],
        rows,
    )
    sim = build_network_simulator()
    benchmark.pedantic(lambda: sim.run(sample_batch(5)), rounds=3, iterations=1)


def test_iterated_protocol_throughput(benchmark):
    """The tail-recursive 'repeat until conclusive' protocol shape."""
    rows = []
    for n in (5, 10, 20):
        sim = build_lab_simulator(iterate=True)
        res, seconds = measure(lambda: sim.run(sample_batch(n)))
        assert len(res.completed("analyze")) == n
        rows.append([n, seconds])
    print_series(
        "E3: iterated gel protocol throughput",
        ["samples", "seconds"],
        rows,
    )
    sim = build_lab_simulator(iterate=True)
    benchmark.pedantic(lambda: sim.run(sample_batch(10)), rounds=3, iterations=1)
