"""The workload process: set up one workload, run timed repetitions, check them.

Started by ``run.py`` (never by hand); ``src`` must be on ``PYTHONPATH``.
It prints ``READY`` as soon as the first repetition's ``Scenario`` is built
(``run.py`` times set-up from process start to that line), then ``REF`` with
the reference kernel's time right after set-up and, unless ``--setup-only``,
a final ``RESULT {json}`` line.

A repetition is one ``Scenario.run()`` plus the result summaries the
experiments read; that is the timed operation.  Building the repetition's
objects, the output checks and a ``gc.collect()`` happen outside the timing.
Repetitions run until ``--seconds`` have passed (at least ``MIN_TIMED``)
after ``WARMUP`` untimed ones.  The reference kernel (``reference.py``) runs
between consecutive repetitions; each repetition records the mean of the
two kernel times around it, which scales its ``sim_rps`` to the nominal
host.  With ``--trace 1`` untraced and traced
repetitions alternate: the untraced ones give the tracer's overhead, the
traced ones the per-layer spans.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from pathlib import Path

from checks import CheckFailed, check_result, digest, sim_stats, summarise
from reference import NOMINAL_S, median_reference_seconds, reference_seconds
from tracer import (
    LAYER_OF,
    LAYERS,
    SpanRecorder,
    instrument_scenario,
    instrument_server,
    undo_patches,
)
from workloads import WORKLOADS

from repro.simulation import Scenario

WARMUP = 1
MIN_TIMED = 3


class Repetition:
    """One fresh, fully built scenario, optionally instrumented."""

    def __init__(self, workload, recorder: SpanRecorder | None = None) -> None:
        self.recorder = recorder
        parts = workload.parts()
        self.undo = instrument_server(recorder, parts) if recorder is not None else []
        try:
            self.scenario = Scenario(**parts)
        except BaseException:
            undo_patches(self.undo)
            raise
        if recorder is not None:
            instrument_scenario(recorder, self.scenario)

    def run(self) -> dict:
        """Run, time, check; returns the repetition's record."""
        scenario = self.scenario
        recorder = self.recorder
        try:
            if recorder is None:
                t0 = time.perf_counter()
                result = scenario.run()
                summary = summarise(result)
                t1 = time.perf_counter()
            else:
                summary_fn = recorder.wrap(summarise, "monitor.summary")

                def op():
                    result = scenario.run()
                    return result, summary_fn(result)

                op = recorder.wrap(op, "op")
                # Spans from here on belong to the timed operation; building
                # the scenario already called some wrapped methods.
                first_span = len(recorder)
                t0 = time.perf_counter()
                result, summary = op()
                t1 = time.perf_counter()
        finally:
            undo_patches(self.undo)
        record = {"seconds": t1 - t0, "rows": len(result.ledger)}
        check_result(result, scenario)
        stats = sim_stats(result, summary)
        record["stats"] = stats
        record["digest"] = digest(stats)
        record["windows"] = len(result.rate_history) - 1
        record["engine_events"] = scenario.engine.events_processed
        if recorder is not None:
            record["layers"] = recorder.layer_times(first_span)
        return record


def layer_metrics(traced: list[dict]) -> dict:
    """Per-layer metrics over every traced repetition (see README.md)."""
    totals: dict[str, dict[str, float]] = {}
    for record in traced:
        for name, entry in record["layers"].items():
            into = totals.setdefault(name, dict.fromkeys(entry, 0.0))
            for key, value in entry.items():
                into[key] += value

    def get(name: str, key: str) -> float:
        return totals.get(name, {}).get(key, 0.0)

    def layer_self(layer: str) -> float:
        return sum(get(name, "self_ns") for name, owner in LAYER_OF.items() if owner == layer)

    reps = len(traced)
    wall = get("op", "total_ns")
    rows = float(sum(record["rows"] for record in traced))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.share"] = ratio(layer_self(layer), wall)
    m["generator.self_ns_per_req"] = ratio(layer_self("generator"), rows)
    m["generator.calls"] = ratio(
        get("generator.draw_block", "calls")
        + get("generator.next_interarrival", "calls")
        + get("generator.next_size", "calls"),
        reps,
    )
    m["ledger.self_ns_per_req"] = ratio(layer_self("ledger"), rows)
    m["server.drain.self_ns_per_req"] = ratio(get("server.drain", "self_ns"), rows)
    m["server.submit.self_ns_per_req"] = ratio(get("server.submit", "self_ns"), rows)
    m["cluster.walk.self_ns_per_req"] = ratio(get("cluster.walk", "self_ns"), rows)
    drains = get("cluster.member_drain", "calls")
    m["cluster.member_drains"] = ratio(drains, reps)
    m["cluster.member_drains_per_req"] = ratio(drains, rows)
    m["cluster.empty_drain_frac"] = ratio(get("cluster.member_drain", "empty"), drains)
    scalar = get("dispatch.select_node", "calls")
    vectorised = get("dispatch.select_block", "items")
    m["dispatch.scalar_decisions"] = ratio(scalar, reps)
    m["dispatch.vectorised_frac"] = ratio(vectorised, scalar + vectorised)
    partitions = get("partition.partition", "calls")
    m["partition.calls"] = ratio(partitions, reps)
    m["partition.self_us_per_call"] = ratio(get("partition.partition", "self_ns"), partitions) / 1e3
    m["controller.self_us_per_window"] = (
        ratio(layer_self("controller"), get("controller.observe_window", "calls")) / 1e3
    )
    m["admission.decide.self_ns_per_req"] = ratio(
        get("admission.decide_block", "self_ns"), get("admission.decide_block", "items")
    )
    m["admission.observe.self_us_per_window"] = (
        ratio(get("admission.observe_window", "self_ns"), get("admission.observe_window", "calls"))
        / 1e3
    )
    m["admission.shed_frac"] = traced[0]["stats"]["shed_frac"]
    m["admission.degraded_frac"] = traced[0]["stats"]["degraded_frac"]
    m["autoscale.self_us_per_window"] = (
        ratio(layer_self("autoscale"), get("autoscale.observe_boundary", "calls")) / 1e3
    )
    m["autoscale.events"] = float(traced[0]["stats"]["autoscale_events"])
    m["scenario.self_share"] = m.pop("scenario.share")
    m["scenario.windows"] = float(traced[0]["windows"])
    m["engine.events"] = float(traced[0]["engine_events"])
    m["engine.events_per_req"] = ratio(traced[0]["engine_events"], traced[0]["rows"])
    m["scheduling.self_ns_per_req"] = ratio(layer_self("scheduling"), rows)
    m["monitor.summary_ms"] = ratio(get("monitor.summary", "total_ns"), reps) / 1e6
    return m


def nominal_rps(record: dict) -> float:
    """Ledger rows per second of the repetition, scaled to the nominal host."""
    return record["rows"] / record["seconds"] * (record["ref_seconds"] / NOMINAL_S)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.scale)
    first = Repetition(workload)
    print("READY", flush=True)
    print(f"REF {median_reference_seconds()!r}", flush=True)
    if args.setup_only:
        return 0

    records: list[dict] = []
    errors: list[str] = []
    recorder = SpanRecorder() if args.trace else None
    traced: list[dict] = []
    deadline = None
    count = 0
    ref_before = None
    while True:
        if count == WARMUP:
            deadline = time.perf_counter() + args.seconds
        traced_rep = bool(args.trace) and count >= WARMUP and (count - WARMUP) % 2 == 1
        gc.collect()
        try:
            if traced_rep:
                recorder.run_id = len(traced)
                rep = Repetition(workload, recorder)
            else:
                rep = first if count == 0 else Repetition(workload)
            first = None
            if ref_before is None:
                ref_before = reference_seconds()
            record = rep.run()
            ref_after = reference_seconds()
            record["ref_seconds"] = (ref_before + ref_after) / 2.0
            ref_before = ref_after
        except CheckFailed as exc:
            record = {"error": f"check failed: {exc}"}
        except Exception as exc:  # a raising repetition counts as failed
            record = {"error": f"{type(exc).__name__}: {exc}"}
        rep = None
        if "error" in record:
            errors.append(record["error"])
        if count < WARMUP:
            record["warmup"] = True
        elif traced_rep:
            record["run_id"] = recorder.run_id
            traced.append(record)
        # Warm-up repetitions are checked and counted like timed ones; they
        # are only left out of the timings.
        records.append(record)
        count += 1
        timed = count - WARMUP
        if deadline is not None and timed >= MIN_TIMED and time.perf_counter() >= deadline:
            if not args.trace or timed % 2 == 0:
                break

    good = [r for r in records if "error" not in r]
    digests = sorted({r["digest"] for r in good})
    if len(digests) > 1:
        errors.append(f"simulated outputs differ between repetitions: {digests}")
        # Every repetition that disagrees with the most common digest fails.
        common = max(digests, key=lambda d: sum(r["digest"] == d for r in good))
        for r in good:
            if r["digest"] != common:
                r["error"] = "digest mismatch"
        good = [r for r in good if "error" not in r]
    out = {
        "attempted": len(records),
        "failed": len(records) - len(good),
        "errors": errors[:5],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if good:
        out["stats"] = good[0]["stats"]
        out["digest"] = good[0]["digest"]
        untraced = [r for r in good if "run_id" not in r and "warmup" not in r]
        out["raw_sim_rps"] = [r["rows"] / r["seconds"] for r in untraced]
        out["sim_rps"] = [nominal_rps(r) for r in untraced]
        out["ref_seconds"] = [r["ref_seconds"] for r in untraced]
        if args.trace:
            good_traced = [r for r in good if "run_id" in r]
            out["traced_sim_rps"] = [nominal_rps(r) for r in good_traced]
            if good_traced:
                out["layers"] = layer_metrics(good_traced)
            if args.trace_out is not None:
                args.trace_out.parent.mkdir(parents=True, exist_ok=True)
                recorder.save(args.trace_out)
    print("RESULT " + json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
