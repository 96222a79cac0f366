"""Benchmark-suite configuration.

Every benchmark regenerates one of the paper's artifacts (DESIGN.md
section 3): it sweeps a size parameter, prints the measured series as a
table (archived in EXPERIMENTS.md), asserts the *shape* the paper
predicts (who wins, what growth class), and registers one representative
configuration with pytest-benchmark for timing stats.

Shape assertions use machine-independent counters (execution steps,
table sizes) wherever possible so they hold on slow CI machines too.

The series tables are replayed in the terminal summary so they reach
stdout whatever capture mode pytest runs under.
"""

import json

import pytest

from repro.complexity.runner import recorded_series
from repro.obs import Instrumentation, instrumented

#: (test id, deterministic metrics snapshot) per benchmark, in run
#: order: the explanatory counters (configurations expanded, table
#: hits, budget spent, ...) behind each timing entry.
_METRIC_SNAPSHOTS = []


def recorded_metrics():
    """Metrics snapshots collected so far (most recent last)."""
    return list(_METRIC_SNAPSHOTS)


@pytest.fixture(autouse=True)
def bench_instrumentation(request):
    """Run every benchmark under engine instrumentation.

    The deterministic snapshot (counters/gauges, no wall clock) is
    attached to the test report via ``user_properties`` -- so any
    result consumer can explain *why* a configuration was fast or
    slow -- and kept in
    :func:`recorded_metrics` for the terminal summary.
    """
    inst = Instrumentation.create()
    with instrumented(inst):
        yield inst
    snapshot = inst.metrics.snapshot(include_timers=False)
    if snapshot["counters"] or snapshot["gauges"]:
        _METRIC_SNAPSHOTS.append((request.node.nodeid, snapshot))
        request.node.user_properties.append(("metrics", snapshot))


def pytest_addoption(parser):
    parser.addoption(
        "--metrics-json",
        default=None,
        metavar="FILE",
        help="write every benchmark's deterministic metrics snapshot "
             "to FILE as JSON (consumed by perf tooling alongside "
             "the timings)",
    )
    parser.addoption(
        "--quick",
        action="store_true",
        default=False,
        help="representative subset: run only the first benchmark of "
             "each bench_*.py module (one per paper artifact); used by "
             "the CI profile-gate job to keep metrics artifacts cheap",
    )


def pytest_collection_modifyitems(config, items):
    if not config.getoption("--quick"):
        return
    seen_modules = set()
    selected, deselected = [], []
    for item in items:
        module = item.nodeid.split("::", 1)[0]
        if module in seen_modules:
            deselected.append(item)
        else:
            seen_modules.add(module)
            selected.append(item)
    if deselected:
        config.hook.pytest_deselected(items=deselected)
        items[:] = selected


def pytest_sessionfinish(session, exitstatus):
    path = session.config.getoption("--metrics-json", default=None)
    if not path:
        return
    payload = [
        {"nodeid": nodeid, "metrics": snapshot}
        for nodeid, snapshot in _METRIC_SNAPSHOTS
    ]
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    tables = recorded_series()
    if tables:
        terminalreporter.section("experiment series (paper artifacts)")
        for table in tables:
            for line in table.splitlines():
                terminalreporter.write_line(line)
    if _METRIC_SNAPSHOTS:
        terminalreporter.section("engine metrics (per benchmark)")
        for nodeid, snapshot in _METRIC_SNAPSHOTS:
            counters = snapshot["counters"]
            digest = ", ".join(
                "%s=%d" % (name, counters[name]) for name in sorted(counters)
            )
            terminalreporter.write_line("%s: %s" % (nodeid, digest or "(no counters)"))
