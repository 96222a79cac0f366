"""Synthetic genome-laboratory workload generator.

The modeled production line follows the physical-mapping workflow the
paper's examples reference: a DNA sample is received, prepared, loaded on
a gel alongside other samples, the gel is run and read, and the readings
are analyzed; inconclusive analyses repeat the gel stage (the paper:
"an experimental protocol may be repeated until a conclusive result is
achieved").
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

from ..core.database import Database
from ..core.terms import Atom, atom
from ..workflow import (
    Agent,
    Emit,
    Iterate,
    ParFlow,
    SeqFlow,
    Step,
    Subflow,
    Task,
    WaitFor,
    WorkflowSimulator,
    WorkflowSpec,
)

__all__ = [
    "build_lab_simulator",
    "build_network_simulator",
    "gel_pipeline",
    "lab_agents",
    "mapping_then_sequencing",
    "network_agents",
    "sample_batch",
    "sequencing_pipeline",
    "synthetic_history",
]

#: The production-line stages, in flow order.
PIPELINE_TASKS: Tuple[Task, ...] = (
    Task("receive", role="clerk"),
    Task("prep_dna", role="tech"),
    Task("load_gel", role="tech"),
    Task("run_gel", role="gel_rig"),
    Task("read_gel", role="reader"),
    Task("analyze", None),  # automated analysis program
)


def gel_pipeline(iterate: bool = True) -> WorkflowSpec:
    """The gel-mapping production line as a workflow spec.

    With ``iterate=True`` (the default, matching the paper) the gel stage
    repeats until the analysis emits a conclusive result for the sample;
    the ``analyze`` task is automated and the ``conclusive`` flag is
    emitted by the workflow itself after analysis (every round concludes
    in this synthetic lab -- the point is exercising the tail-recursive
    iteration shape, which stays fully bounded).
    """
    gel_round = SeqFlow(
        Step("prep_dna"),
        ParFlow(Step("load_gel"), Step("run_gel")),
        Step("read_gel"),
        Step("analyze"),
        Emit("conclusive"),
    )
    if iterate:
        body: SeqFlow = SeqFlow(Step("receive"), Iterate(gel_round, until="conclusive"))
    else:
        body = SeqFlow(Step("receive"), gel_round)
    return WorkflowSpec(name="mapping", body=body, tasks=PIPELINE_TASKS)


def lab_agents(
    n_clerks: int = 1,
    n_techs: int = 2,
    n_rigs: int = 1,
    n_readers: int = 1,
) -> List[Agent]:
    """An agent pool with the pipeline's qualification mix.

    Technicians double as readers when there are more technicians than
    gel rigs -- mirroring real labs where staff cover multiple stations.
    """
    agents: List[Agent] = []
    for i in range(n_clerks):
        agents.append(Agent("clerk%d" % i, ("clerk",)))
    for i in range(n_techs):
        quals = ("tech", "reader") if i >= n_rigs else ("tech",)
        agents.append(Agent("tech%d" % i, quals))
    for i in range(n_rigs):
        agents.append(Agent("rig%d" % i, ("gel_rig",)))
    for i in range(n_readers):
        agents.append(Agent("reader%d" % i, ("reader",)))
    return agents


def sample_batch(n: int, prefix: str = "dna") -> List[str]:
    """Work-item identifiers for a batch of DNA samples."""
    return ["%s%04d" % (prefix, i) for i in range(n)]


def build_lab_simulator(
    iterate: bool = False,
    agents: Optional[Sequence[Agent]] = None,
    max_configs: int = 5_000_000,
    abortable: bool = False,
) -> WorkflowSimulator:
    """A ready-to-run simulator for the gel pipeline.

    ``abortable=True`` compiles the graceful-degradation task rules
    (attempts that cannot claim an agent record ``aborted`` instead of
    deadlocking) -- the configuration the fault-injection chaos suite
    runs the lab under.
    """
    pool = list(agents) if agents is not None else lab_agents()
    return WorkflowSimulator([gel_pipeline(iterate=iterate)], agents=pool,
                             max_configs=max_configs, abortable=abortable)


#: Stages of the downstream sequencing line.
SEQUENCING_TASKS: Tuple[Task, ...] = (
    Task("pick_clones", role="tech"),
    Task("sequence_run", role="sequencer"),
    Task("base_call", None),
    Task("seq_qc", role="reader"),
)


def sequencing_pipeline() -> WorkflowSpec:
    """The sequencing production line.

    It *cooperates* with the mapping line (Example 3.4's network shape):
    sequencing a sample only makes sense once its physical map exists,
    so the line blocks on the ``mapped`` fact the mapping line emits for
    the same sample.
    """
    return WorkflowSpec(
        name="sequencing",
        body=SeqFlow(
            WaitFor("mapped"),
            Step("pick_clones"),
            Step("sequence_run"),
            Step("base_call"),
            Step("seq_qc"),
        ),
        tasks=SEQUENCING_TASKS,
    )


def mapping_then_sequencing() -> Tuple[WorkflowSpec, WorkflowSpec, WorkflowSpec]:
    """The two production lines joined into a network.

    The ``genome`` workflow runs both lines *concurrently* per sample;
    the hand-off is pure database communication -- mapping ends by
    emitting ``mapped(W)``, sequencing starts by waiting for it.
    Returns (network, mapping', sequencing) specs ready for a simulator.
    """
    base = gel_pipeline(iterate=False)
    mapping = WorkflowSpec(
        name=base.name,
        body=SeqFlow(base.body, Emit("mapped")),
        tasks=base.tasks,
    )
    sequencing = sequencing_pipeline()
    network = WorkflowSpec(
        name="genome",
        body=ParFlow(Subflow("mapping"), Subflow("sequencing")),
        tasks=(),
    )
    return network, mapping, sequencing


def network_agents() -> List[Agent]:
    """An agent pool covering both production lines."""
    agents = lab_agents(n_clerks=1, n_techs=3, n_rigs=1, n_readers=1)
    agents.append(Agent("seqmachine0", ("sequencer",)))
    return agents


def build_network_simulator(max_configs: int = 8_000_000) -> WorkflowSimulator:
    """Simulator for the full two-line genome network."""
    network, mapping, sequencing = mapping_then_sequencing()
    return WorkflowSimulator(
        [network, mapping, sequencing],
        agents=network_agents(),
        max_configs=max_configs,
    )


def synthetic_history(
    n_samples: int,
    seed: int = 0,
    agents: Optional[Sequence[Agent]] = None,
) -> Database:
    """Directly generate an insert-only experiment history.

    Produces the database a full pipeline simulation would leave behind
    (``started``/``done`` facts for every stage of every sample, agents
    assigned respecting qualifications), without paying for simulation --
    used by the query benchmarks (experiment C6) that need histories with
    tens of thousands of facts.
    """
    rng = random.Random(seed)
    pool = list(agents) if agents is not None else lab_agents(2, 4, 2, 2)
    by_role = {}
    for agent in pool:
        for q in agent.qualifications:
            by_role.setdefault(q, []).append(agent.name)
    facts: List[Atom] = []
    for agent in pool:
        facts.append(atom("available", agent.name))
        for q in agent.qualifications:
            facts.append(atom("qualified", agent.name, q))
    for sample in sample_batch(n_samples):
        for task in PIPELINE_TASKS:
            facts.append(atom("started", task.name, sample))
            if task.role is None:
                performer = "auto"
            else:
                performer = rng.choice(by_role[task.role])
            facts.append(atom("done", task.name, sample, performer))
    return Database(facts)
