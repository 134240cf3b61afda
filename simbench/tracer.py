"""An in-memory span recorder that times ``repro`` layers from outside.

Nothing under ``src/`` knows about it: :func:`instrument_server` and
:func:`instrument_scenario` replace public methods of one repetition's
objects with wrappers that record a span (name, start, end, parent, run id,
items) per call, then
:meth:`SpanRecorder.layer_times` turns the spans into per-name self time,
where self time is a span's duration minus the time its direct child spans
cover.  Calls are strictly nested (one thread), so children never overlap.

Two placement rules come from the code being wrapped:

* ``RequestLedger`` has ``__slots__``, so its methods can only be wrapped
  on the class.  :func:`instrument_server` returns an undo list and the caller
  restores the class after every traced repetition, so untraced
  repetitions in the same process run the original methods.
* ``ClusterServerModel`` resolves the dispatch policy's ``select_block`` and
  pre-binds member methods when the ``Scenario`` binds it, so the server
  side (members, dispatch, partitioner) is wrapped *before* the ``Scenario``
  is built; sources and ``Scenario.run`` are wrapped after.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

from repro.cluster import ClusterServerModel
from repro.simulation import RequestLedger, SharedProcessorServer

#: Span name -> layer.  The table in README.md names the same layers.
LAYER_OF = {
    "op": "root",
    "scenario.run": "scenario",
    "generator.draw_block": "generator",
    "generator.next_interarrival": "generator",
    "generator.next_size": "generator",
    "ledger.append_batch": "ledger",
    "ledger.log_completions": "ledger",
    "ledger.append": "ledger",
    "server.drain": "server",
    "server.submit": "server",
    "server.apply_rates": "server",
    "cluster.walk": "cluster",
    "cluster.member_drain": "cluster",
    "cluster.member_submit": "cluster",
    "cluster.member_apply_rates": "cluster",
    "dispatch.select_node": "dispatch",
    "dispatch.select_block": "dispatch",
    "partition.partition": "partition",
    "controller.observe_window": "controller",
    "admission.decide_block": "admission",
    "admission.observe_window": "admission",
    "autoscale.observe_boundary": "autoscale",
    "scheduling.enqueue": "scheduling",
    "scheduling.select": "scheduling",
    "monitor.summary": "monitor",
}
NAMES = tuple(LAYER_OF)
LAYERS = tuple(dict.fromkeys(layer for layer in LAYER_OF.values() if layer != "root"))


def _first_len(args, result) -> int:
    return len(args[0])


def _result_len(args, result) -> int:
    return len(result)


def _block_len(args, result) -> int:
    return len(result[0])


class SpanRecorder:
    """Spans as parallel typed arrays (a few bytes each, no per-span object)."""

    def __init__(self) -> None:
        self.name = array("h")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.run = array("h")
        #: Work items a call handled (requests drawn, dispatched, decided,
        #: drained), or -1 where the span carries no item count.
        self.items = array("i")
        self.run_id = 0
        self._stack = [-1]

    def __len__(self) -> int:
        return len(self.name)

    def wrap(self, fn, span: str, items=None):
        """``fn`` wrapped to record one ``span`` per call.

        ``items(args, result)`` (optional) counts the work items of a call.
        """
        name_id = NAMES.index(span)
        clock = time.perf_counter_ns
        stack = self._stack
        names, starts, ends = self.name, self.start, self.end
        parents, runs, counts = self.parent, self.run, self.items
        recorder = self

        def traced(*args, **kwargs):
            index = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            runs.append(recorder.run_id)
            counts.append(-1)
            stack.append(index)
            starts.append(0)
            ends.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[index] = t0
                ends[index] = t1
            if items is not None:
                counts[index] = items(args, result)
            return result

        return traced

    def columns(self, first: int = 0) -> dict[str, np.ndarray]:
        """Copies of the span columns from span ``first`` on.

        Copies, because an ``array`` cannot grow while a view exports it.
        """
        return {
            column: np.frombuffer(getattr(self, column), dtype=dtype)[first:].copy()
            for column, dtype in (
                ("name", np.int16),
                ("start", np.int64),
                ("end", np.int64),
                ("parent", np.int32),
                ("run", np.int16),
                ("items", np.int32),
            )
        }

    def layer_times(self, first: int) -> dict[str, dict[str, float]]:
        """Per span name over spans ``first:``: calls, total and self ns, items.

        ``first`` must be the index of a root span, so every parent in the
        range points inside it.  ``empty`` counts calls that handled no items.
        """
        cols = self.columns(first)
        name = cols["name"]
        duration = (cols["end"] - cols["start"]).astype(np.float64)
        parent = cols["parent"].astype(np.int64) - first
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=name.size)
        self_ns = duration - covered
        items = cols["items"]
        out = {}
        for name_id in np.unique(name):
            mask = name == name_id
            counted = items[mask]
            counted = counted[counted >= 0]
            out[NAMES[name_id]] = {
                "calls": float(mask.sum()),
                "total_ns": float(duration[mask].sum()),
                "self_ns": float(self_ns[mask].sum()),
                "items": float(counted.sum()),
                "empty": float((counted == 0).sum()),
            }
        return out

    def save(self, path) -> None:
        np.savez(path, names=np.asarray(NAMES), **self.columns())


def _wrap_attr(recorder: SpanRecorder, obj, attr: str, span: str, items=None) -> None:
    setattr(obj, attr, recorder.wrap(getattr(obj, attr), span, items))


def instrument_server(recorder: SpanRecorder, parts: dict) -> list:
    """Wrap the server side of one repetition, before its ``Scenario`` exists.

    Also wraps the controller, admission and autoscaler passed in ``parts``.
    Returns the class-level patches to undo after the repetition.
    """
    server = parts["server"]
    if isinstance(server, ClusterServerModel):
        _wrap_attr(recorder, server, "submit_batch", "cluster.walk")
        _wrap_attr(recorder, server, "drain", "server.drain")
        _wrap_attr(recorder, server, "apply_rates", "server.apply_rates")
        for node in server.nodes:
            _wrap_attr(recorder, node, "drain", "cluster.member_drain", _result_len)
            _wrap_attr(recorder, node, "submit_batch", "cluster.member_submit")
            _wrap_attr(recorder, node, "apply_rates", "cluster.member_apply_rates")
        dispatch = server.dispatch
        # Wrap select_block whenever the policy has one, so the cluster's
        # "is select_block mirrored?" check sees both names on the instance.
        _wrap_attr(recorder, dispatch, "select_node", "dispatch.select_node")
        if getattr(dispatch, "select_block", None) is not None:
            _wrap_attr(recorder, dispatch, "select_block", "dispatch.select_block", _first_len)
        _wrap_attr(recorder, server.partitioner, "partition", "partition.partition")
    else:
        _wrap_attr(recorder, server, "drain", "server.drain")
        _wrap_attr(recorder, server, "submit_batch", "server.submit")
        _wrap_attr(recorder, server, "submit", "server.submit")
        _wrap_attr(recorder, server, "apply_rates", "server.apply_rates")
        if isinstance(server, SharedProcessorServer):
            _wrap_attr(recorder, server.scheduler, "enqueue", "scheduling.enqueue")
            _wrap_attr(recorder, server.scheduler, "select", "scheduling.select")
    _wrap_attr(recorder, parts["controller"], "observe_window", "controller.observe_window")
    if parts.get("admission") is not None:
        admission = parts["admission"]
        _wrap_attr(recorder, admission, "decide_block", "admission.decide_block", _first_len)
        _wrap_attr(recorder, admission, "observe_window", "admission.observe_window")
    if parts.get("autoscaler") is not None:
        _wrap_attr(recorder, parts["autoscaler"], "observe_boundary", "autoscale.observe_boundary")
    undo = []
    for attr in ("append_batch", "log_completions", "append"):
        original = vars(RequestLedger)[attr]
        undo.append((RequestLedger, attr, original))
        setattr(RequestLedger, attr, recorder.wrap(original, f"ledger.{attr}"))
    return undo


def instrument_scenario(recorder: SpanRecorder, scenario) -> None:
    """Wrap the built ``Scenario``'s run and its request sources."""
    _wrap_attr(recorder, scenario, "run", "scenario.run")
    for source in scenario.sources:
        if scenario.batched:
            _wrap_attr(recorder, source, "draw_block", "generator.draw_block", _block_len)
        else:
            # Per-event sources are drawn one value per call; draw_block is
            # never called and wrapping both would double-count.
            _wrap_attr(recorder, source, "next_interarrival", "generator.next_interarrival")
            _wrap_attr(recorder, source, "next_size", "generator.next_size")


def undo_patches(undo: list) -> None:
    for owner, attr, original in undo:
        setattr(owner, attr, original)
