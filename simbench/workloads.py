"""The benchmark's four workloads, assembled only from the public ``repro`` API.

Each workload is built once per process from ``(seed, scale)``: everything
that depends only on the seed (traffic classes, the measurement protocol,
pre-materialised arrival traces) is made in the constructor, and
:meth:`Workload.parts` hands out a *fresh* set of per-run objects (server
model, controller, admission, autoscaler, sources) for every repetition,
because those hold per-run state.  Every repetition of one seed therefore
simulates exactly the same thing, which is what the digest check relies on.

``scale`` multiplies the simulated horizon; the benchmark runs at 1.0 and
its smoke test at a small fraction.  Why each workload exists is recorded in
``README.md`` next to this file.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.cluster import (
    AdmissionController,
    FleetSchedule,
    build_autoscaler,
    build_partitioner,
    make_cluster,
    parse_fleet_events,
)
from repro.core import FeedbackPsdController, PsdController, PsdSpec
from repro.experiments import ExperimentConfig
from repro.scheduling import WeightedFairQueueing
from repro.simulation import MeasurementConfig, RateScalableServers, SharedProcessorServer
from repro.workload import DiurnalPattern, FlashCrowd, pattern_sources

#: The paper's two-class differentiation target, delta = (1, 2).
SPEC = PsdSpec.of(1, 2)


def _paper_point(load: float, warmup: float, horizon: float, scale: float):
    """Classes and measurement (raw time) for the paper's workload at ``load``."""
    config = ExperimentConfig(
        measurement=MeasurementConfig(warmup=warmup * scale, horizon=horizon * scale),
        load_grid=(load,),
        name="simbench",
    )
    return config.classes_for_load(load, SPEC.deltas), config.scaled_measurement()


class Workload:
    """A named, seeded scenario recipe (see the module docstring)."""

    name = ""
    #: Forwarded to ``Scenario(batched=...)``; ``None`` lets it choose.
    batched: bool | None = None

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.seed = int(seed)

    def _seed(self, stream: int) -> np.random.SeedSequence:
        # A fresh SeedSequence per call: spawning mutates its child counter,
        # so reusing one object would give every repetition new inputs.
        return np.random.SeedSequence(entropy=(self.seed, stream))

    def parts(self) -> dict:
        """Fresh keyword arguments for one ``Scenario``."""
        raise NotImplementedError


class PsdSingle(Workload):
    """The paper's Fig. 1 point: one rate-scalable server, load 0.6."""

    name = "psd-single"
    LOAD = 0.6
    #: Warm-up and horizon in time units (mean service times); ~150k requests.
    WARMUP, HORIZON = 10_000.0, 250_000.0

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        super().__init__(seed, scale)
        self.classes, self.measurement = _paper_point(self.LOAD, self.WARMUP, self.HORIZON, scale)

    def server(self):
        return RateScalableServers()

    def parts(self) -> dict:
        return dict(
            classes=self.classes,
            config=self.measurement,
            server=self.server(),
            controller=PsdController(self.classes, SPEC),
            seed=self._seed(0),
            batched=self.batched,
        )


class PerEventWfq(PsdSingle):
    """The ``psd-single`` point on a WFQ shared processor, per-event path."""

    name = "per-event-wfq"
    batched = False
    #: ~15k requests: the per-event path is ~6x slower per request.
    WARMUP, HORIZON = 5_000.0, 25_000.0

    def server(self):
        return SharedProcessorServer(WeightedFairQueueing(len(self.classes)))


class ClusterJsq(Workload):
    """Four heterogeneous nodes behind join-shortest-queue, one leave/join."""

    name = "cluster-jsq"
    LOAD = 0.7
    CAPACITIES = (0.4, 0.3, 0.2, 0.1)
    #: The 0.2 node leaves at 40% of the horizon and rejoins at 70%; while
    #: it is away the fleet runs at load 0.875.
    CHURN_NODE = 2

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        super().__init__(seed, scale)
        self.classes, self.measurement = _paper_point(self.LOAD, 5_000.0, 40_000.0, scale)
        horizon = self.measurement.horizon
        self.fleet_tokens = (
            f"leave:{self.CHURN_NODE}@{0.4 * horizon!r}",
            f"join:{self.CHURN_NODE}@{0.7 * horizon!r}",
        )

    def parts(self) -> dict:
        server = make_cluster(
            len(self.CAPACITIES),
            "jsq",
            capacities=self.CAPACITIES,
            partitioner=build_partitioner("capacity"),
            seed=self._seed(1),
            fleet=parse_fleet_events(self.fleet_tokens),
        )
        return dict(
            classes=self.classes,
            config=self.measurement,
            server=server,
            controller=PsdController(self.classes, SPEC),
            seed=self._seed(0),
            batched=self.batched,
        )


class ClusterControl(Workload):
    """The autoscale-frontier fleet with quota admission in front.

    Eight eighth-capacity nodes (four live at t=0) behind vectorised
    round-robin, a feedback PSD controller, the tuned target tracker and a
    quota ``AdmissionController``; diurnal + flash-crowd arrivals at mean
    load 0.55, pre-materialised once per process as traces.
    """

    name = "cluster-control"
    LOAD = 0.55
    NUM_NODES = 8
    INITIAL_NODES = 4
    AUTOSCALER_ARGS = ("target=1.15", "scale_in_cooldown=450")
    #: The default ``target_utilisation=0.95`` sheds so much that the
    #: autoscaler, which sees only admitted demand, never scales out (see
    #: README.md, "Admission + autoscaler spiral"); at 1.3 admission sheds a
    #: minority share and the fleet still scales both ways.
    ADMISSION_ARGS = dict(target_utilisation=1.3)

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        super().__init__(seed, scale)
        config = ExperimentConfig(
            measurement=MeasurementConfig(
                warmup=2_000.0, horizon=2_000.0 + 40_000.0 * scale, window=100.0
            ),
            load_grid=(self.LOAD,),
            upper_bound=10.0,
            name="simbench",
        )
        self.classes = config.classes_for_load(self.LOAD, SPEC.deltas)
        self.measurement = config.scaled_measurement()
        span = self.measurement.horizon - self.measurement.warmup
        self.patterns = (
            DiurnalPattern(amplitude=0.5, period=span / 2.0, phase=0.0),
            FlashCrowd(
                start=self.measurement.warmup + 0.6 * span,
                duration=20.0 * self.measurement.window,
                magnitude=2.0,
            ),
        )
        self.traces = pattern_sources(
            self.classes, self.patterns, horizon=self.measurement.horizon, seed=self._seed(0)
        )

    def parts(self) -> dict:
        server = make_cluster(
            self.NUM_NODES,
            "round_robin",
            capacities=tuple(1.0 / self.NUM_NODES for _ in range(self.NUM_NODES)),
            partitioner=build_partitioner("capacity"),
            seed=self._seed(1),
            fleet=FleetSchedule(initial_down=tuple(range(self.INITIAL_NODES, self.NUM_NODES))),
        )
        return dict(
            classes=self.classes,
            config=self.measurement,
            server=server,
            controller=FeedbackPsdController(self.classes, SPEC),
            # Trace sources replay by cursor: copy the pristine traces.
            sources=copy.deepcopy(self.traces),
            admission=AdmissionController(**self.ADMISSION_ARGS),
            autoscaler=build_autoscaler("target_tracking", self.AUTOSCALER_ARGS),
            batched=self.batched,
        )


WORKLOADS = {cls.name: cls for cls in (PsdSingle, ClusterJsq, ClusterControl, PerEventWfq)}
