"""Simulated multi-condition systems (Appendix D, Figures D-7 and D-8).

Two topologies, matching the appendix's reductions:

* **Separate CEs** (Figure D-7(c)): every condition gets its own set of
  replicated CE nodes; all CEs interested in a variable subscribe to its
  DM; one AD runs an independent filter instance per condition stream
  (:class:`DemuxAD`).  Each stream then enjoys exactly the
  single-condition guarantees of Sections 3–4, which
  :meth:`MultiConditionResult.evaluate_stream` verifies per stream.
* **Co-located CEs** (Figure D-7(d)): conditions hosted on one node see
  one update interleaving, so the system reduces to a single-condition
  system over ``C = A ∨ B`` — build it with :func:`colocated_system`.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from repro.components.ad_node import ADNode
from repro.components.ce_node import CENode
from repro.components.data_monitor import DataMonitor
from repro.components.system import MonitoringSystem, SystemConfig, Workload
from repro.core.alert import Alert
from repro.core.condition import Condition
from repro.core.update import Update
from repro.displayers.base import ADAlgorithm
from repro.displayers.registry import make_ad
from repro.multicondition.combined import DisjunctionCondition
from repro.props.report import PropertyReport, evaluate_run
from repro.simulation.kernel import Kernel
from repro.simulation.network import LossyFifoLink, ReliableLink
from repro.simulation.rng import RandomStreams

__all__ = ["DemuxAD", "MultiConditionSystem", "MultiConditionResult", "colocated_system"]


class DemuxAD(ADAlgorithm):
    """An AD algorithm that routes alerts to per-condition sub-filters.

    The appendix's observation: "Although there is only one AD for both
    conditions, it can effectively separate the A and B alert streams and
    run one instance of the filtering algorithm against each stream."
    Each alert goes to its stream's own :meth:`offer` (a key to its
    :meth:`decide`), so any algorithm works there, ``adaptive`` included.
    """

    name = "demux"

    def __init__(self, algorithms: Mapping[str, ADAlgorithm]) -> None:
        super().__init__()
        if not algorithms:
            raise ValueError("DemuxAD needs at least one sub-algorithm")
        self._algorithms = dict(algorithms)

    def _fresh_args(self) -> tuple:
        return ({name: algo.fresh() for name, algo in self._algorithms.items()},)

    def stream_output(self, condname: str) -> tuple[Alert, ...]:
        """The displayed alerts of one condition's stream, in order."""
        return self._algorithms[condname].output

    def _stream(self, condname: str) -> ADAlgorithm:
        try:
            return self._algorithms[condname]
        except KeyError:
            raise KeyError(f"no sub-filter for condition {condname!r}") from None

    def decide(self, key: tuple) -> bool:
        return self._stream(key[0]).decide(key)

    def offer(self, alert: Alert) -> bool:
        displayed = self._stream(alert.condname).offer(alert)
        if displayed:
            self._output.append(alert)
        return displayed


@dataclass(frozen=True)
class MultiConditionResult:
    """Observables of one separate-CE multi-condition run."""

    conditions: tuple[Condition, ...]
    #: Per condition name: the U_i traces of that condition's CE replicas.
    received: dict[str, tuple[tuple[Update, ...], ...]]
    #: The merged displayed sequence across all conditions, arrival order.
    displayed: tuple[Alert, ...]
    #: Per condition name: its displayed stream.
    streams: dict[str, tuple[Alert, ...]]
    ad_arrivals: tuple[Alert, ...]

    def evaluate_stream(self, condname: str) -> PropertyReport:
        """Single-condition property report for one stream (App. D)."""
        condition = next(c for c in self.conditions if c.name == condname)
        return evaluate_run(
            condition,
            self.received[condname],
            [a.identity() for a in self.streams[condname]],
        )


class MultiConditionSystem:
    """Figure D-7(c): per-condition replicated CEs, demuxing AD."""

    def __init__(
        self,
        conditions: Sequence[Condition],
        workload: Workload,
        config: SystemConfig,
        seed: int = 0,
        ad_algorithm_name: str | None = None,
    ) -> None:
        names = [c.name for c in conditions]
        if len(set(names)) != len(names):
            raise ValueError(f"condition names must be unique, got {names}")
        needed = {v for c in conditions for v in c.variables}
        missing = needed - set(workload)
        if missing:
            raise ValueError(f"workload lacks variables: {sorted(missing)}")

        self.conditions = tuple(conditions)
        self.config = config
        self.seed = seed
        self.kernel = Kernel()
        streams = RandomStreams(seed)

        algo_name = ad_algorithm_name or config.ad_algorithm
        self._demux = DemuxAD(
            {c.name: make_ad(algo_name, c) for c in conditions}
        )
        self.ad = ADNode(self.kernel, "AD", self._demux)

        self.ces: dict[str, list[CENode]] = {}
        for condition in conditions:
            replicas = []
            for index in range(config.replication):
                ce = CENode(
                    self.kernel,
                    f"CE-{condition.name}-{index + 1}",
                    condition,
                    config.crash_schedules.get(index),
                )
                back = ReliableLink(
                    self.kernel,
                    self.ad.receive,
                    config.back_delay,
                    streams.stream(f"back/{ce.name}"),
                    name=f"{ce.name}->AD",
                )
                ce.connect_ad(back)
                replicas.append(ce)
            self.ces[condition.name] = replicas

        self.dms: list[DataMonitor] = []
        for varname in sorted(workload):
            dm = DataMonitor(self.kernel, varname, list(workload[varname]))
            for condition in conditions:
                if varname not in condition.variables:
                    continue
                for ce in self.ces[condition.name]:
                    front = LossyFifoLink(
                        self.kernel,
                        ce.receive,
                        config.front_delay,
                        streams.stream(f"front/{varname}/{ce.name}"),
                        loss_prob=config.front_loss,
                        name=f"DM-{varname}->{ce.name}",
                    )
                    dm.attach(front)
            self.dms.append(dm)

    def run(self) -> MultiConditionResult:
        for dm in self.dms:
            dm.start()
        self.kernel.run()
        displayed = self.ad.displayed
        return MultiConditionResult(
            conditions=self.conditions,
            received={
                name: tuple(ce.received for ce in replicas)
                for name, replicas in self.ces.items()
            },
            displayed=displayed,
            streams={
                condition.name: tuple(
                    a for a in displayed if a.condname == condition.name
                )
                for condition in self.conditions
            },
            ad_arrivals=self.ad.arrivals,
        )


def colocated_system(
    conditions: Sequence[Condition],
    workload: Workload,
    config: SystemConfig,
    seed: int = 0,
    combined_name: str = "C",
) -> MonitoringSystem:
    """Figure D-7(d)/D-8: co-located conditions as one combined condition.

    Returns an ordinary single-condition :class:`MonitoringSystem` over
    ``C = A ∨ B ∨ …`` — demonstrating the appendix's reduction: all the
    single-condition analysis applies unchanged.
    """
    combined = DisjunctionCondition(combined_name, list(conditions))
    return MonitoringSystem(combined, workload, config, seed)
