"""Starts the system under test in this process and reports on it.

Usage::

    python3 perfbench/launcher.py --dump out.json [--spans spans.json]
        [--refreshes N] [--inject KIND] -- listen|simulate <cli args...>
    python3 perfbench/launcher.py --dump out.json --dashboard plan.json

The CLI modes call ``repro.cli.main(argv)`` unchanged.  Before that,
the launcher wraps a few public calls from outside:

- always: ``LogBroker.commit`` records ``(partition, offset, t)`` on
  ``CLOCK_MONOTONIC`` (the freshness join), constructors record the
  broker, listener, store and pipeline instances, and
  ``TivanCluster.run`` records its entry and exit times, and a
  host-speed probe (see ``hostspeed``) runs every ``PROBE_EVERY_S`` on
  the SUT's own thread (a task on the listener's event loop; before a
  Fluentd flush in ``simulate``);
- ``simulate``: ``LogBroker.publish`` and ``ReplicatedLogStore.bulk_index``
  time each message from publish to durable index;
- ``--spans``: every layer is traced (see ``tracer``).

After ``main`` returns it reads peak RSS first, runs the operator's
refreshes against the final store, and writes one JSON dump for the
harness.  ``--inject`` plants a known defect (``wrong_category``,
``drop_line``) so the smoke check can prove the gate catches it.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

_HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(_HERE))

import hostspeed  # noqa: E402

_now = time.monotonic
#: a host-speed probe runs this often on the SUT's own thread
PROBE_EVERY_S = 0.025


class Capture:
    """Instances and timings observed through the wrapped calls."""

    def __init__(self) -> None:
        self.brokers: list = []
        self.listeners: list = []
        self.stores: list = []
        self.pipelines: list = []
        self.commits: list[tuple[str, int, float]] = []
        self.run_enter: float | None = None
        self.run_exit: float | None = None
        self.cluster = None
        self.report = None
        self.pub_t: dict[int, float] = {}
        self.dwell: list[float] = []
        self.probes: list[tuple[float, float]] = []  # (t, probe seconds)


def _record_instances(cls, bucket: list) -> None:
    init = cls.__init__

    def wrapped(self, *args, **kwargs):
        init(self, *args, **kwargs)
        bucket.append(self)

    cls.__init__ = wrapped


def install_capture(cap: Capture, *, inject: str | None, simulate: bool) -> None:
    import repro.core.serialize as serialize
    from repro.core.taxonomy import Category
    from repro.ingest.broker import LogBroker
    from repro.ingest.listener import SyslogListener
    from repro.replication.store import ReplicatedLogStore
    from repro.stream.fluentd import FluentdForwarder
    from repro.stream.opensearch import LogStore
    from repro.stream.tivan import TivanCluster

    _record_instances(LogBroker, cap.brokers)
    _record_instances(SyslogListener, cap.listeners)
    _record_instances(LogStore, cap.stores)

    load = serialize.load_pipeline

    def load_pipeline(*args, **kwargs):
        pipe = load(*args, **kwargs)
        cap.pipelines.append(pipe)
        return pipe

    serialize.load_pipeline = load_pipeline

    commit = LogBroker.commit

    def traced_commit(self, group, partition, offset):
        ok = commit(self, group, partition, offset)
        cap.commits.append((partition, offset, _now()))
        return ok

    LogBroker.commit = traced_commit

    run = TivanCluster.run

    def traced_run(self, *args, **kwargs):
        cap.cluster = self
        cap.run_enter = _now()
        cap.report = run(self, *args, **kwargs)
        cap.run_exit = _now()
        return cap.report

    TivanCluster.run = traced_run

    start, stop = SyslogListener.start, SyslogListener.stop
    tasks: dict[int, asyncio.Task] = {}

    async def probe_loop():
        while True:
            await asyncio.sleep(PROBE_EVERY_S)
            cap.probes.append((_now(), hostspeed.probe()))

    async def probed_start(self):
        await start(self)
        tasks[id(self)] = asyncio.get_running_loop().create_task(probe_loop())

    async def probed_stop(self):
        task = tasks.pop(id(self), None)
        if task is not None:
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
        await stop(self)

    SyslogListener.start, SyslogListener.stop = probed_start, probed_stop

    if simulate:
        flush = FluentdForwarder.flush
        last = [0.0]

        def probed_flush(self, *args, **kwargs):
            now = _now()
            if now - last[0] >= PROBE_EVERY_S:
                last[0] = now
                cap.probes.append((now, hostspeed.probe()))
            return flush(self, *args, **kwargs)

        FluentdForwarder.flush = probed_flush
        publish = LogBroker.publish
        bulk = ReplicatedLogStore.bulk_index

        def timed_publish(self, message, **kwargs):
            cap.pub_t[id(message)] = _now()
            return publish(self, message, **kwargs)

        def timed_bulk(self, messages):
            ok = bulk(self, messages)
            now = _now()
            for m in messages:
                t = cap.pub_t.pop(id(m), None)
                if t is not None:
                    cap.dwell.append(now - t)
            return ok

        LogBroker.publish = timed_publish
        ReplicatedLogStore.bulk_index = timed_bulk

    # the planted defects act where the documents land: the replicated
    # store for ``simulate``, the broker and the local store for ``listen``
    store_cls = ReplicatedLogStore if simulate else LogStore
    if inject == "wrong_category":
        set_category = store_cls.set_category
        flipped = []

        def bad_set_category(self, doc_id, category):
            if not flipped and doc_id == 100:
                flipped.append(doc_id)
                category = next(c for c in Category if c is not category)
            return set_category(self, doc_id, category)

        store_cls.set_category = bad_set_category
    elif inject == "drop_line" and simulate:
        bulk_index = ReplicatedLogStore.bulk_index
        seen = [0]

        def lossy_bulk_index(self, messages):
            seen[0] += len(messages)
            if messages and seen[0] >= 100 > seen[0] - len(messages):
                messages = list(messages)[1:]  # acknowledged, never stored
            return bulk_index(self, messages)

        ReplicatedLogStore.bulk_index = lossy_bulk_index
    elif inject == "drop_line":
        publish_one = LogBroker.publish
        seen = []

        def lossy_publish(self, message, **kwargs):
            seen.append(1)
            if len(seen) == 100:
                return object()  # acknowledged, never stored
            return publish_one(self, message, **kwargs)

        LogBroker.publish = lossy_publish


def rss_peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def dump_docs(store) -> list:
    return [
        [d.message.timestamp, d.message.hostname, d.message.app,
         int(d.message.severity), d.message.text,
         d.category.value if d.category is not None else None]
        for d in store.iter_documents()
    ]


def listen_report(cap: Capture, refreshes: int) -> dict:
    import dashops

    rss = rss_peak_mb()
    (listener,), (broker,), (store,) = cap.listeners, cap.brokers, cap.stores
    pipe = cap.pipelines[0] if cap.pipelines else None
    s = listener.stats
    out = {
        "rss_peak_mb": rss,
        "listener": {
            **{k: v for k, v in vars(s).items()},
            "received": s.received,
            "accounted": s.accounted(),
        },
        "broker": {
            "published": broker.stats.published,
            "polled": broker.stats.polled,
            "lag": broker.lag("cli"),
        },
        "commits": cap.commits,
        "probes": cap.probes,
        "refresh": dashops.repeated_refreshes(store, refreshes),
        "docs": dump_docs(store),
        "index_stats": store.index_stats(),
    }
    if pipe is not None:
        out["pipeline"] = {
            "classified": pipe.n_classified,
            "quarantined": len(pipe.dead_letters),
            "cache": pipe.template_cache.stats() if pipe.template_cache else None,
            "timing": pipe.timing_report().as_dict(),
        }
    return out


def simulate_report(cap: Capture, refreshes: int, stdout: str) -> dict:
    import dashops
    from repro.durability import reconcile

    rss = rss_peak_mb()
    cluster, report = cap.cluster, cap.report
    cons = reconcile(cluster.journal.state, report.produced)
    pipe = cap.pipelines[0] if cap.pipelines else None
    return {
        "rss_peak_mb": rss,
        "run_enter": cap.run_enter,
        "run_exit": cap.run_exit,
        "produced": report.produced,
        "indexed": report.indexed,
        "conservation": {
            "ok": cons.ok, "lost": cons.lost, "duplicated": cons.duplicated,
            "line": cons.render(),
        },
        "cli_conservation_ok": "conservation OK" in stdout,
        "dwell": cap.dwell,
        "probes": cap.probes,
        "refresh": dashops.repeated_refreshes(cluster.store, refreshes),
        "docs": dump_docs(cluster.store),
        "index_stats": cluster.store.index_stats(),
        "pipeline": None if pipe is None else {
            "classified": pipe.n_classified,
            "quarantined": len(pipe.dead_letters),
            "cache": pipe.template_cache.stats() if pipe.template_cache else None,
            "timing": pipe.timing_report().as_dict(),
        },
    }


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    cli_argv: list[str] = []
    if "--" in argv:
        cut = argv.index("--")
        argv, cli_argv = argv[:cut], argv[cut + 1:]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dump", type=Path, required=True)
    ap.add_argument("--spans", type=Path, default=None)
    ap.add_argument("--refreshes", type=int, default=0)
    ap.add_argument("--inject", choices=["wrong_category", "drop_line"], default=None)
    ap.add_argument("--dashboard", type=Path, default=None)
    args = ap.parse_args(argv)

    tracer = None
    if args.spans is not None:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer_mod.install(tracer)

    if args.dashboard is not None:
        import dashops

        plan = json.loads(args.dashboard.read_text())
        result = dashops.run_dashboard(plan, args.inject)
        result["rss_peak_mb"] = rss_peak_mb()
    else:
        from repro.cli import main as cli_main

        cap = Capture()
        simulate = cli_argv[:1] == ["simulate"]
        install_capture(cap, inject=args.inject, simulate=simulate)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli_main(cli_argv)
        stdout = buf.getvalue()
        if rc != 0:
            sys.stdout.write(stdout)
            print(f"launcher: SUT exited {rc}", file=sys.stderr)
            return rc
        if simulate:
            result = simulate_report(cap, args.refreshes, stdout)
        else:
            result = listen_report(cap, args.refreshes)
        result["stdout_tail"] = stdout[-2000:]
    if tracer is not None:
        tracer.dump(args.spans)
        result["trace"] = {
            "mask_items": tracer.mask_items,
            "loop_lag": tracer.loop_lag,
            "queue_wait": tracer.queue_wait,
            "broker_lag": tracer.broker_lag,
            "poll_sizes": tracer.poll_sizes,
        }
    tmp = args.dump.with_suffix(".tmp")
    tmp.write_text(json.dumps(result))
    tmp.replace(args.dump)
    return 0


if __name__ == "__main__":
    sys.exit(main())
