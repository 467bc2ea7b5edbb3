"""Span tracer that wraps the public calls of each layer from outside.

Nothing under ``src/`` knows about it: :func:`install` replaces class
attributes and module globals of the imported ``repro`` package with
thin wrappers before the CLI runs.  Each call becomes one span
``(name, start, end, parent, trace, self)`` on ``CLOCK_MONOTONIC``;
``self`` is the span's duration minus the time its direct child spans
cover (so store-side masking nested under ``store.index`` is charged
to ``textproc``).  A new trace id starts at every ``broker.poll``: one
consume pass of ``listen``, one forwarder poll of ``simulate``.  Spans
stay in memory until :meth:`Tracer.dump`.

The tracer assumes one thread drives the layers, which holds for
``listen`` (one event loop) and ``simulate`` (one discrete-event loop).
"""

from __future__ import annotations

import asyncio
import functools
import json
import time
import types

_now = time.monotonic

#: maskers whose outermost calls count toward textproc.mask_calls_per_msg;
#: the value says whether the call's first argument is a batch
MASKERS = {
    "textproc.normalize": False,
    "textproc.normalize_many": True,
    "textproc.mask": False,
    "textproc.mask_many": True,
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0
        self.trace = 0
        self.mask_items = 0
        self._mask_depth = 0
        # extra series gathered by specific wrappers
        self.loop_lag: list[tuple[float, float]] = []
        self.queue_wait: list[tuple[float, float]] = []
        self.broker_lag: list[tuple[float, int]] = []
        self.poll_sizes: list[int] = []

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name: str, *, new_trace: bool = False, after=None):
        nid = self.name_id(name)
        stack = self._stack
        spans = self.spans
        batch_masker = MASKERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if new_trace:
                tracer.trace += 1
            if batch_masker is not None:
                if tracer._mask_depth == 0:
                    tracer.mask_items += len(args[1]) if batch_masker else 1
                tracer._mask_depth += 1
            sid = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _now()
                stack.pop()
                if batch_masker is not None:
                    tracer._mask_depth -= 1
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                spans.append((nid, t0, t1, parent, tracer.trace, dur - frame[1], sid))
            if after is not None:
                after(args, result, t1)
            return result

        return wrapper

    def patch(self, owner, attr: str, name: str, **kw) -> None:
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, **kw))

    def dump(self, path) -> None:
        """Write spans as JSON: names plus rows (name, t0, t1, parent, trace, self, id)."""
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh)


def _loop_lag_probe(tracer: Tracer):
    async def probe() -> None:
        while True:
            t = _now()
            await asyncio.sleep(0.01)
            tracer.loop_lag.append((t, _now() - t - 0.01))
    return probe


def _step(coro, value, exc):
    """Run one step of ``coro`` up to its next suspension."""
    return coro.throw(exc) if exc is not None else coro.send(value)


@types.coroutine
def _stepped(coro, step):
    """Drive ``coro`` with every step through ``step`` (a traced
    :func:`_step`), so each run between two suspensions is one span."""
    value, exc = None, None
    while True:
        try:
            future = step(coro, value, exc)
        except StopIteration as stop:
            return stop.value
        try:
            value, exc = (yield future), None
        except BaseException as e:  # cancellation goes back into coro
            value, exc = None, e


def install(tracer: Tracer) -> None:
    """Wrap every traced layer of the imported ``repro`` package."""
    import repro.ingest.listener as listener_mod
    from repro.core.pipeline import ClassificationPipeline
    from repro.durability.wal import WriteAheadLog
    from repro.ingest.broker import LogBroker
    from repro.ingest.listener import SyslogListener
    from repro.replication.store import ReplicatedLogStore
    from repro.stream.fluentd import FluentdForwarder
    from repro.stream.opensearch import LogStore
    from repro.stream.tivan import TivanCluster
    from repro.textproc.fingerprint import TemplateFingerprinter
    from repro.textproc.normalize import MaskingNormalizer

    # ingest.listener + stream.rfc: the parser as the listener looks it
    # up, the accept path per line, and every step of a TCP connection's
    # read loop (buffering and line splitting; accept nests inside it)
    tracer.patch(listener_mod, "safe_parse_line", "listener.parse")
    tracer.patch(SyslogListener, "_handle_line", "listener.accept")
    serve = SyslogListener._serve_tcp
    serve_step = tracer.wrap(_step, "listener.read")

    async def traced_serve(self, reader, writer):
        return await _stepped(serve(self, reader, writer), serve_step)

    SyslogListener._serve_tcp = traced_serve

    probes: dict[int, asyncio.Task] = {}
    start, stop = SyslogListener.start, SyslogListener.stop

    async def traced_start(self):
        await start(self)
        probes[id(self)] = asyncio.get_running_loop().create_task(
            _loop_lag_probe(tracer)()
        )

    async def traced_stop(self):
        task = probes.pop(id(self), None)
        if task is not None:
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
        await stop(self)

    SyslogListener.start, SyslogListener.stop = traced_start, traced_stop

    # ingest.broker
    def after_poll(args, records, t1):
        broker, group = args[0], args[1]
        tracer.poll_sizes.append(len(records))
        if records:
            wall = time.time()
            for rec in records:
                if rec.pub_s is not None:
                    tracer.queue_wait.append((t1, wall - rec.pub_s))
        tracer.broker_lag.append((t1, broker.lag(group)))

    tracer.patch(LogBroker, "publish", "broker.publish")
    tracer.patch(LogBroker, "poll", "broker.poll", new_trace=True, after=after_poll)
    tracer.patch(LogBroker, "commit", "broker.commit")

    # core.pipeline / core.template_cache / textproc
    tracer.patch(ClassificationPipeline, "classify_batch", "classify")
    tracer.patch(MaskingNormalizer, "normalize", "textproc.normalize")
    tracer.patch(MaskingNormalizer, "normalize_many", "textproc.normalize_many")
    tracer.patch(TemplateFingerprinter, "mask", "textproc.mask")
    tracer.patch(TemplateFingerprinter, "mask_many", "textproc.mask_many")

    # stream.opensearch + monitor.dashboard reads
    for attr in ("index", "bulk_index", "set_category"):
        tracer.patch(LogStore, attr, f"store.{attr}")
    for owner in (LogStore, ReplicatedLogStore):
        for attr in ("term_query", "time_range", "date_histogram",
                     "terms_aggregation", "severity_histogram"):
            if hasattr(owner, attr):
                tracer.patch(owner, attr, f"store.{attr}")

    # durability / replication / stream.fluentd / stream.tivan
    tracer.patch(ReplicatedLogStore, "bulk_index", "replication.bulk_index")
    tracer.patch(ReplicatedLogStore, "set_category", "replication.set_category")
    tracer.patch(WriteAheadLog, "append", "wal.append")
    tracer.patch(WriteAheadLog, "sync", "wal.sync")
    tracer.patch(FluentdForwarder, "flush", "fluentd.flush")
    tracer.patch(TivanCluster, "write_checkpoint", "checkpoint.write")
