"""Run one benchmark workload and print its metrics.

    python3 simbench/run.py --workload psd-single --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the simulator is imported from ``src``.
The workload runs in its own process (``worker.py``), serially: set-up is
timed from that process's start until its first repetition is built, once
in the measuring process and once in each of ``SETUP_PROBES`` set-up-only
processes, and ``setup_s`` is the median.  ``sim_rps`` and ``setup_s`` are
scaled to a nominal host with the reference kernel (``reference.py``); the
measured values are printed beside them.  Every metric is printed with its
unit; the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``).  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from reference import NOMINAL_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("psd-single", "cluster-jsq", "cluster-control", "per-event-wfq")
#: Set-up-only processes started beside the measuring one.
SETUP_PROBES = 2
#: Wall-clock limit for a single child process.
CHILD_TIMEOUT_S = 150.0

#: Per-layer metrics and their units (``--trace 1``); README.md says what
#: each one measures and which end-to-end metric it should move.
LAYER_UNITS = {
    "generator.share": "ratio",
    "generator.self_ns_per_req": "ns/req",
    "generator.calls": "count",
    "ledger.share": "ratio",
    "ledger.self_ns_per_req": "ns/req",
    "server.share": "ratio",
    "server.drain.self_ns_per_req": "ns/req",
    "server.submit.self_ns_per_req": "ns/req",
    "cluster.walk.self_ns_per_req": "ns/req",
    "cluster.member_drains": "count",
    "cluster.member_drains_per_req": "ratio",
    "cluster.empty_drain_frac": "ratio",
    "cluster.share": "ratio",
    "dispatch.scalar_decisions": "count",
    "dispatch.vectorised_frac": "ratio",
    "dispatch.share": "ratio",
    "partition.calls": "count",
    "partition.self_us_per_call": "us/call",
    "partition.share": "ratio",
    "controller.self_us_per_window": "us/window",
    "controller.share": "ratio",
    "admission.decide.self_ns_per_req": "ns/req",
    "admission.observe.self_us_per_window": "us/window",
    "admission.shed_frac": "ratio",
    "admission.degraded_frac": "ratio",
    "admission.share": "ratio",
    "autoscale.self_us_per_window": "us/window",
    "autoscale.events": "count",
    "autoscale.share": "ratio",
    "scenario.self_share": "ratio",
    "scenario.windows": "count",
    "engine.events": "count",
    "engine.events_per_req": "ratio",
    "scheduling.self_ns_per_req": "ns/req",
    "scheduling.share": "ratio",
    "monitor.summary_ms": "ms",
    "monitor.share": "ratio",
    "trace.overhead_pct": "%",
}
SHARES = tuple(name for name in LAYER_UNITS if name.endswith("share"))


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # A fixed string-hash seed keeps dict and set layouts, and so the speed
    # of the per-event path, the same from one worker process to the next.
    env["PYTHONHASHSEED"] = "0"
    return env


def _run_child(args: list[str]) -> tuple[float, float, str]:
    """Run one worker; return (seconds until it printed READY, the reference
    kernel's time it printed next, later output)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT,
        env=_env(),
        stdout=subprocess.PIPE,
        text=True,
    )
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = None
        for line in proc.stdout:
            if line.strip() == "READY":
                ready = time.perf_counter() - start
                break
        out = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or ready is None:
        raise RuntimeError(f"worker {' '.join(args)} exited with code {code}")
    ref = [float(line[len("REF ") :]) for line in out.splitlines() if line.startswith("REF ")]
    if not ref:
        raise RuntimeError(f"worker {' '.join(args)} printed no reference time")
    return ready, ref[0], out


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def measure(workload: str, seed: int, seconds: float, trace: bool, scale: float) -> dict:
    common = ["--workload", workload, "--seed", str(seed), "--scale", repr(scale)]
    probes = [_run_child([*common, "--setup-only"])[:2] for _ in range(SETUP_PROBES)]
    run_args = [*common, "--seconds", repr(seconds), "--trace", str(int(trace))]
    if trace:
        run_args += ["--trace-out", str(ROOT / ".simbench" / f"trace-{workload}.npz")]
    ready, ref, out = _run_child(run_args)
    probes.append((ready, ref))
    lines = [line for line in out.splitlines() if line.startswith("RESULT ")]
    if not lines:
        raise RuntimeError("worker printed no result")
    result = json.loads(lines[-1][len("RESULT ") :])
    result["raw_setup_s"] = [ready for ready, _ in probes]
    result["setup_s"] = [ready * NOMINAL_S / ref for ready, ref in probes]
    return result


def report(workload: str, result: dict, trace: bool) -> dict:
    """Print the human-readable record; return the final JSON object."""
    attempted, failed = result["attempted"], result["failed"]
    correct = failed == 0 and bool(result.get("sim_rps"))
    print(f"workload {workload}: {attempted} repetitions attempted, {failed} failed")
    for error in result["errors"]:
        print(f"  error: {error}")
    if not result.get("sim_rps"):
        return {"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}
    rps = result["sim_rps"]
    q1, median, q3 = _quartiles(rps)
    raw_q1, raw_median, raw_q3 = _quartiles(result["raw_sim_rps"])
    setup = result["setup_s"]
    stats = result["stats"]
    ref_ms = statistics.median(result["ref_seconds"]) * 1e3
    print(f"  sim_rps      {median:.1f} req/s (q1 {q1:.1f}, q3 {q3:.1f}, n={len(rps)} timed)")
    print(f"    measured   {raw_median:.1f} req/s (q1 {raw_q1:.1f}, q3 {raw_q3:.1f})")
    print(f"    reference  {ref_ms:.2f} ms per kernel run, {NOMINAL_S * 1e3:.0f} ms nominal")
    samples = [round(s, 4) for s in setup]
    print(f"  setup_s      {statistics.median(setup):.4f} s (samples {samples})")
    print(f"    measured   {[round(s, 4) for s in result['raw_setup_s']]} s")
    print(f"  peak_rss_mb  {result['peak_rss_mb']:.1f} MB")
    print(f"  failed_frac  {failed / attempted:.4f} ratio")
    print(
        f"  simulated    digest {result['digest']}  rows {stats['rows']}  slowdowns "
        f"{[round(s, 6) for s in stats['slowdowns']]}  ratio {stats['ratio']:.6f}  "
        f"shed {stats['shed_frac']:.4f}  degraded {stats['degraded_frac']:.4f}  "
        f"autoscale events {stats['autoscale_events']} "
        f"(out {stats['scale_out']}, in {stats['scale_in']})"
    )
    if not trace:
        metrics = {
            "sim_rps": {"value": median, "unit": "req/s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    else:
        layers = dict(result.get("layers", {}))
        traced = result.get("traced_sim_rps") or [float("nan")]
        layers["trace.overhead_pct"] = (median / statistics.median(traced) - 1.0) * 100.0
        print(f"  traced sim_rps {statistics.median(traced):.1f} req/s (n={len(traced)})")
        shares = sorted(((layers.get(name, 0.0), name) for name in SHARES), reverse=True)
        print("  layer self shares: " + ", ".join(f"{n} {v:.3f}" for v, n in shares if v))
        print(f"  largest self share: {shares[0][1]} ({shares[0][0]:.3f})")
        metrics = {
            name: {"value": float(layers.get(name, 0.0)), "unit": unit}
            for name, unit in LAYER_UNITS.items()
        }
        for name, entry in metrics.items():
            print(f"  {name:40s} {entry['value']:.6g} {entry['unit']}")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0, help="simulated-horizon multiplier (smoke test)"
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report(args.workload, result, bool(args.trace))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
