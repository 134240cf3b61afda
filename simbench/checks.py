"""Run-end output checks and the digest of a repetition's simulated outputs.

The checks read the ``SimulationResult`` and its ledger from outside; they
do not trust the simulator's own bookkeeping, they reconcile it:

* every ledger row is exactly one of completed, in flight or shed, and the
  completion log lists exactly the completed rows, once each;
* ``arrival <= start <= completion`` on every completed row;
* per origin class, generated = completed + in flight + shed, and the
  result's completed / shed / generated counts agree with the ledger (and,
  for trace sources, with how much of each trace was consumed).

The digest hashes the simulated statistics a speed-only change must leave
unchanged; every repetition of one seed must produce the same digest.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.simulation import TraceSource
from repro.simulation.ledger import DISPOSITION_DEGRADED, DISPOSITION_SHED


class CheckFailed(Exception):
    """A repetition's outputs violate a run-end invariant."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def check_result(result, scenario) -> None:
    """Raise :class:`CheckFailed` unless the run-end invariants hold."""
    ledger = result.ledger
    num_classes = len(result.classes)
    rows = len(ledger)
    _require(rows > 0, "the run generated no requests")
    shed = ledger.disposition == DISPOSITION_SHED
    start = ledger.service_start_time
    completion = ledger.completion_time
    completed = ~np.isnan(completion)
    in_flight = ~shed & ~completed
    _require(not bool((shed & completed).any()), "a shed row completed")
    _require(bool(np.isnan(start[shed]).all()), "a shed row started service")
    _require(not bool(np.isnan(start[completed]).any()), "a completed row never started")

    logged = ledger.completed_ids
    _require(logged.size == int(completed.sum()), "completion log and completed rows differ")
    _require(np.unique(logged).size == logged.size, "a row is logged as completed twice")
    _require(bool(completed[logged].all()), "the completion log lists an unfinished row")

    arrival = ledger.arrival_time
    _require(bool((arrival[completed] <= start[completed]).all()), "a row started before arriving")
    _require(
        bool((start[completed] <= completion[completed]).all()),
        "a row completed before it started",
    )

    # Degraded rows are stored under their target class; map them back to
    # the class that generated them.
    origin = ledger.class_index.copy()
    degraded = ledger.disposition == DISPOSITION_DEGRADED
    if degraded.any():
        back = {}
        for c in range(num_classes - 1):
            target = int(scenario.admission.degrade_target(c))
            _require(target not in back, "two classes degrade into the same class")
            back[target] = c
        lut = np.array([back.get(c, -1) for c in range(num_classes)], dtype=np.int64)
        origin[degraded] = lut[origin[degraded]]
        _require(bool((origin >= 0).all()), "a degraded row has no origin class")

    def per_class(mask: np.ndarray) -> tuple[int, ...]:
        return tuple(int(n) for n in np.bincount(origin[mask], minlength=num_classes))

    n_completed, n_in_flight, n_shed = per_class(completed), per_class(in_flight), per_class(shed)
    for c in range(num_classes):
        _require(
            result.generated_counts[c] == n_completed[c] + n_in_flight[c] + n_shed[c],
            f"class {c}: generated != completed + in flight + shed",
        )
    _require(tuple(result.rejected_counts) == n_shed, "shed counts disagree with the ledger")
    served_completed = np.bincount(ledger.class_index[completed], minlength=num_classes)
    _require(
        tuple(result.completed_counts) == tuple(int(n) for n in served_completed),
        "completed counts disagree with the ledger",
    )
    for c, source in enumerate(scenario.sources):
        if isinstance(source, TraceSource):
            consumed = len(source) - source.remaining
            _require(
                result.generated_counts[c] == consumed,
                f"class {c}: generated count disagrees with the trace consumed",
            )


def summarise(result) -> dict:
    """The post-run summaries the experiments read (part of the timed op)."""
    return {
        "slowdowns": result.per_class_mean_slowdowns(),
        "ratios": result.slowdown_ratios_to_first(),
        "waiting": result.per_class_mean_waiting_times(),
        "system_slowdown": result.system_mean_slowdown(),
        "shed_frac": result.shed_fraction(),
        "degraded_frac": result.degraded_fraction(),
    }


def sim_stats(result, summary: dict) -> dict:
    """The simulated statistics recorded beside the host metrics."""
    events = result.autoscale_events or []
    return {
        "rows": len(result.ledger),
        "generated": list(result.generated_counts),
        "completed": list(result.completed_counts),
        "shed": list(result.rejected_counts),
        "degraded": list(result.degraded_counts),
        "slowdowns": list(summary["slowdowns"]),
        "ratio": summary["ratios"][-1],
        "system_slowdown": summary["system_slowdown"],
        "shed_frac": summary["shed_frac"],
        "degraded_frac": summary["degraded_frac"],
        "autoscale_events": len(events),
        "scale_out": sum(1 for e in events if e.action == "join"),
        "scale_in": sum(1 for e in events if e.action == "leave"),
        "autoscale_log": [repr(e) for e in events],
    }


def digest(stats: dict) -> str:
    """A short hash of the simulated statistics (floats at full precision)."""
    text = repr(sorted(stats.items()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
